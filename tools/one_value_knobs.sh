#!/bin/sh
# Fails if a `pub` field of `LiteConfig` is assigned nowhere outside
# config.rs: a knob with one value in use is a constant, not an option.
# An assignment is `field:` in a struct literal, `.field =`, or a call of
# a `with_<field>(` constructor, anywhere in the workspace's crates,
# tests, examples and benchmark; inside
# crates/lite/src only test modules (from `#[cfg(test)]` to the end of a
# file) count, because the kernel's own structs copy the fields they read
# under the same names.
set -e
cd "$(dirname "$0")/.."
config=crates/lite/src/config.rs
fields=$(awk '
  /^pub struct LiteConfig \{/ { inside = 1; next }
  inside && /^\}/ { exit }
  inside && /^ *pub [a-z0-9_]+:/ { sub(/^ *pub /, ""); sub(/:.*/, ""); print }
' "$config")
[ -n "$fields" ] || { echo "error: no pub fields found in $config" >&2; exit 1; }
sources=$(find crates src tests examples benchmark/src -name '*.rs' ! -path "$config" ! -path '*/target/*' | sort)
unset_fields=
for field in $fields; do
  found=
  for f in $sources; do
    case "$f" in
      crates/lite/src/*) from='/^#\[cfg\(test\)\]/' ;;
      *) from='1' ;;
    esac
    if awk -v re="(^|[^a-z0-9_])$field:|\\.$field *=[^=]|with_$field\\(" "$from { on = 1 } on && \$0 ~ re { hit = 1; exit } END { exit !hit }" "$f"; then
      found=1
      break
    fi
  done
  [ -n "$found" ] || unset_fields="$unset_fields $field"
done
if [ -n "$unset_fields" ]; then
  echo "error: LiteConfig fields assigned nowhere outside $config:$unset_fields" >&2
  echo "make each a const beside the code that reads it, or delete it with the path it selects" >&2
  exit 1
fi

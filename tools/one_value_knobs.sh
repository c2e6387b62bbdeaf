#!/bin/sh
# Fails if a `pub` field of a config struct is set nowhere outside the
# crate that defines it: a knob with one value in use is a constant, not
# an option. A field is set by `field:` in a struct literal, `.field =`,
# a call of a `with_<field>(` constructor, or a `pub fn` of the defining
# file that takes it as a parameter and returns the struct (every caller
# passes it). Lines anywhere in the workspace's crates, tests, examples
# and benchmark count, except in the defining crate's src: its own code
# copies the fields it reads under the same names, so there only test
# modules (from `#[cfg(test)]` to the end of a file) and, outside the
# defining file, literals of the struct itself count.
# Prints `struct → settable fields` for every struct checked.
set -e
cd "$(dirname "$0")/.."
# file:struct, one pair a line.
structs='
crates/lite/src/config.rs:LiteConfig
crates/rnic/src/fabric.rs:IbConfig
crates/lite-kv/src/service.rs:KvSpec
crates/lite-txn/src/table.rs:TableSpec
crates/transport/src/tcp.rs:TcpCostModel
crates/lite-graph/src/engine.rs:PagerankConfig
crates/lite-kv/src/workload.rs:WorkloadSpec
crates/lite/src/verify.rs:MixedWorkload
'
sources=$(find crates src tests examples benchmark/src -name '*.rs' ! -path '*/target/*' | sort)
failed=
for pair in $structs; do
  file=${pair%%:*}
  name=${pair##*:}
  fields=$(awk -v s="$name" '
    $0 ~ "^pub struct " s " \\{" { inside = 1; next }
    inside && /^\}/ { exit }
    inside && /^ *pub [a-z0-9_]+:/ { sub(/^ *pub /, ""); sub(/:.*/, ""); print }
  ' "$file")
  [ -n "$fields" ] || { echo "error: no pub fields of $name found in $file" >&2; exit 1; }
  # Parameters of the defining file's constructors, then one pass over
  # every source; each prints the fields it sets.
  set_fields=$(
    awk -v s="$name" '
      $0 ~ "^ *pub fn [a-z0-9_]+\\(.*\\) -> (Self|" s ") \\{" {
        sub(/^[^(]*\(/, ""); sub(/\) -> .*/, "")
        n = split($0, params, ",")
        for (i = 1; i <= n; i++) { p = params[i]; sub(/:.*/, "", p); gsub(/ /, "", p); print p }
      }
    ' "$file"
    awk -v fields="$fields" -v s="$name" -v def="$file" -v crate="${file%%/src/*}/src/" '
      BEGIN { n = split(fields, f, "\n") }
      FNR == 1 { on = index(FILENAME, crate) != 1; lit = 0 }
      /^#\[cfg\(test\)\]/ { on = 1 }
      !on && !lit && FILENAME != def && $0 ~ "(^|[^A-Za-z0-9_])" s " \\{" && $0 !~ /(struct|impl|fn) / {
        lit = 1; depth = 0
      }
      on || lit {
        for (i = 1; i <= n; i++)
          if (!(i in hit) && $0 ~ ("(^|[^a-z0-9_])" f[i] ":|\\." f[i] " *=[^=]|with_" f[i] "\\("))
            hit[i] = 1
      }
      lit {
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth <= 0) lit = 0
      }
      END { for (i = 1; i <= n; i++) if (i in hit) print f[i] }
    ' $sources
  )
  unset_fields=
  for field in $fields; do
    echo "$set_fields" | grep -qx "$field" || unset_fields="$unset_fields $field"
  done
  printf '%-16s → %2s settable\n' "$name" "$(echo "$fields" | wc -l)"
  if [ -n "$unset_fields" ]; then
    echo "error: $name fields set nowhere outside ${file%%/src/*}:$unset_fields" >&2
    failed=1
  fi
done
if [ -n "$failed" ]; then
  echo "make each a const beside the code that reads it, or delete it with the path it selects" >&2
  exit 1
fi

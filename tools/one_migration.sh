#!/bin/sh
# Fails if `lite::mm` says migration more than once.
#
# Eviction and fetch-back are one body (`migrate_one`, DESIGN.md §11), so
# non-test crates/lite/src/mm.rs (up to `#[cfg(test)]`) may name
# `replace_extents(` at one site and call `drain_pins(` at one site, and
# may not mention the two per-direction states that one `Migrating`
# replaced.
set -e
cd "$(dirname "$0")/.."
f=crates/lite/src/mm.rs
product=$(awk '/^#\[cfg\(test\)\]/ { exit } { print FNR ": " $0 }' "$f")
# Lines of the product (comments excluded) that match $1.
sites() {
  echo "$product" | grep -v '^[0-9]*: *//' | grep "$1" || true
}
fail=0
for call in 'replace_extents(' '\.drain_pins('; do
  n=$(sites "$call" | grep -c . || true)
  if [ "$n" -ne 1 ]; then
    sites "$call"
    echo "error: $n sites match '$call' in $f, want 1: both directions go through migrate_one" >&2
    fail=1
  fi
done
old=$(echo "$product" | grep 'R_EVICTING\|R_FETCHING' || true)
if [ -n "$old" ]; then
  echo "$old"
  echo "error: $f names a per-direction residency state: a migration in flight is R_MIGRATING" >&2
  fail=1
fi
exit $fail

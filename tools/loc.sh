#!/bin/sh
# Lines-of-code summary per crate plus LITE-API call-site counts per app
# (the Figure 20 analogue).
set -e
cd "$(dirname "$0")/.."
# Lines of every .rs file under the given directories (0 when none exist).
lines() {
  find "$@" -name '*.rs' 2>/dev/null | xargs cat 2>/dev/null | wc -l
}
echo "== lines of Rust per crate (src/**, tests/**, all .rs) =="
printf '%-24s %6s %6s %6s\n' crate src tests total
for c in crates/*/; do
  printf '%-24s %6s %6s %6s\n' "$(basename "$c")" "$(lines "$c"src)" "$(lines "$c"tests)" "$(lines "$c")"
done
printf '%-24s %6s %6s %6s\n' "root (src+examples+tests)" "$(lines src examples)" "$(lines tests)" "$(lines src examples tests)"
echo
echo "== the API layer and the memory manager on their own (ROADMAP items 5b, 5c) =="
printf '%-24s %6s\n' crates/lite/src/api.rs "$(wc -l < crates/lite/src/api.rs)"
printf '%-24s %6s non-test (up to #[cfg(test)])\n' crates/lite/src/mm.rs \
  "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n }' crates/lite/src/mm.rs)"
echo
echo "== LITE-API call sites per application (Fig 20 analogue) =="
for c in lite-log lite-mr lite-graph lite-dsm; do
  calls=$(grep -roE 'lt_[a-z_]+\(|register_rpc\(' "crates/$c/src" | wc -l)
  printf '%-12s %4s call sites\n' "$c" "$calls"
done

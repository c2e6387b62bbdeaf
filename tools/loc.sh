#!/bin/sh
# Lines-of-code summary per crate, settable fields per config struct,
# plus LITE-API call-site counts per app (the Figure 20 analogue).
set -e
cd "$(dirname "$0")/.."
# Lines of every .rs file under the given directories (0 when none exist).
lines() {
  find "$@" -name '*.rs' 2>/dev/null | xargs cat 2>/dev/null | wc -l
}
# Lines of every .rs file under the given directories up to the file's
# first `#[cfg(test)]`: the code that is not a test.
nontest() {
  find "$@" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + 2>/dev/null |
    awk '{ n += $1 } END { print n + 0 }'
}
echo "== lines of Rust per crate and vendored shim (src/**, src/** up to #[cfg(test)], tests/**; total adds benches/** and examples/**) =="
printf '%-24s %6s %8s %6s %6s\n' crate src non-test tests total
for c in crates/*/ crates/compat/*/; do
  [ -d "$c"src ] || continue
  name=${c#crates/}
  printf '%-24s %6s %8s %6s %6s\n' "${name%/}" "$(lines "$c"src)" "$(nontest "$c"src)" \
    "$(lines "$c"tests)" "$(lines "$c"src "$c"tests "$c"benches "$c"examples)"
done
printf '%-24s %6s %8s %6s %6s\n' "root (src+examples+tests)" "$(lines src examples)" \
  "$(nontest src examples)" "$(lines tests)" "$(lines src examples tests)"
srcs=$(for c in crates/*/; do echo "$c"src; done)
# shellcheck disable=SC2086
printf '%-24s %6s %8s %6s %6s\n' "workspace" "$(lines $srcs src examples)" \
  "$(nontest $srcs src examples)" "$(lines crates/*/tests tests)" "$(lines crates src examples tests)"
echo
echo "== the API layer and the memory manager on their own (ROADMAP item 8) =="
printf '%-24s %6s\n' crates/lite/src/api.rs "$(wc -l < crates/lite/src/api.rs)"
printf '%-24s %6s non-test (up to #[cfg(test)])\n' crates/lite/src/mm.rs \
  "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n }' crates/lite/src/mm.rs)"
echo
echo "== settable fields per config struct (tools/one_value_knobs.sh) =="
sh tools/one_value_knobs.sh || true
echo
echo "== LITE-API call sites per application (Fig 20 analogue) =="
for c in lite-log lite-mr lite-graph lite-dsm; do
  calls=$(grep -roE 'lt_[a-z_]+\(|register_rpc\(' "crates/$c/src" | wc -l)
  printf '%-12s %4s call sites\n' "$c" "$calls"
done

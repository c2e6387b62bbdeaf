#!/bin/sh
# Runs a test binary N times, k copies at once, and prints per test how
# many runs failed, with each distinct panic line and its count.
#
#   tools/loaded.sh <test-binary> [filter] <N> <k>
#
# <test-binary> is a built test executable (`cargo test --no-run` prints
# its path); [filter] is passed to it as the libtest name filter. Copies
# run in the current directory, as `cargo test` runs them in the
# package's. Exits non-zero if any run failed.
set -eu
case $# in
3) bin=$1 filter= n=$2 k=$3 ;;
4) bin=$1 filter=$2 n=$3 k=$4 ;;
*)
  echo "usage: $0 <test-binary> [filter] <N> <k>" >&2
  exit 2
  ;;
esac
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
run=0
while [ "$run" -lt "$n" ]; do
  batch=0
  while [ "$batch" -lt "$k" ] && [ "$run" -lt "$n" ]; do
    # shellcheck disable=SC2086
    (
      "$bin" $filter >"$out/run-$run.log" 2>&1 && st=0 || st=$?
      echo "loaded.sh: exit $st" >>"$out/run-$run.log"
    ) &
    run=$((run + 1))
    batch=$((batch + 1))
  done
  wait
done
# libtest prints each failure as a `---- <test> stdout ----` block whose
# `thread '...' panicked at <file:line:col>:` line is followed by the
# panic message (its first non-blank line). A run that failed with no such block (an abort, a
# signal) counts under "(no test named)".
awk -v n="$n" '
  FNR == 1 { test = ""; want = 0; named = 0 }
  /^---- .* stdout ----$/ { test = $2; want = 0; next }
  test != "" && /panicked at / { want = 1; where = $0; sub(/.*panicked at /, "", where); next }
  want && NF { fails[test]++; line[test SUBSEP $0 " (" where ")"]++; want = 0; test = ""; named = 1; next }
  /^loaded.sh: exit / && $3 != 0 { failed_runs++; if (!named) fails["(no test named)"]++ }
  END {
    printf "%d runs, %d failed\n", n, failed_runs
    for (t in fails) {
      printf "%s: %d\n", t, fails[t]
      for (key in line) {
        split(key, part, SUBSEP)
        if (part[1] == t) printf "    %d x %s\n", line[key], part[2]
      }
    }
    exit (failed_runs > 0)
  }
' "$out"/run-*.log

#!/bin/sh
# Fails if a package of the workspace declares a dependency it does not
# use: every crate under `[dependencies]` or `[dev-dependencies]` of a
# `Cargo.toml` must be named (`use x` or `x::`, outside `//` comments) by
# some `.rs` file in that package's `src`, `tests`, `benches` or
# `examples`. Also fails on any mention of `crossbeam` or `criterion` in a
# `Cargo.toml`, in the workspace's `Cargo.lock` or in a `.rs` file: std's
# `mpsc` is the channel and the benchmark's ladder times the primitives.
# `benchmark/` is a workspace of its own (its own `Cargo.lock`) and is not
# checked.
set -e
cd "$(dirname "$0")/.."
manifests=$(find . -name Cargo.toml -not -path './target/*' -not -path './benchmark/*' \
  -not -path './.bench_build/*' | sort)
unused=0
for m in $manifests; do
  dir=$(dirname "$m")
  deps=$(awk '
    /^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
    on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }
  ' "$m")
  for d in $deps; do
    name=$(echo "$d" | tr - _)
    if ! find "$dir/src" "$dir/tests" "$dir/benches" "$dir/examples" -name '*.rs' 2>/dev/null |
      xargs cat 2>/dev/null | grep -v '^[[:space:]]*//' |
      grep -Eq "(^|[^A-Za-z0-9_])$name::|use $name([^A-Za-z0-9_]|$)"; then
      echo "$m: declares $d, which nothing in its src, tests, benches or examples uses"
      unused=1
    fi
  done
done
if [ "$unused" -ne 0 ]; then
  echo "error: a Cargo.toml declares a dependency its package does not use" >&2
fi
shims=$( (echo "$manifests" | xargs grep -n -e crossbeam -e criterion /dev/null;
  grep -n -e crossbeam -e criterion Cargo.lock /dev/null;
  find crates src tests examples tools -name '*.rs' -exec grep -n -e crossbeam -e criterion /dev/null {} +) || true)
if [ -n "$shims" ]; then
  echo "$shims"
  echo "error: crossbeam or criterion is back: use std::sync::mpsc, and time primitives on the benchmark's ladder" >&2
fi
[ "$unused" -eq 0 ] && [ -z "$shims" ]

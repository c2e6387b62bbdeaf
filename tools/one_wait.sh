#!/bin/sh
# Fails if non-test product code blocks any way but through
# `simnet::wait`: a thread that waits for another parks on the `Event` of
# the object whose state it waits on, and a wait nothing in the process
# ends is `simnet::wait::pause`. So no `Condvar`, `thread::sleep`,
# `thread::park`, `park_timeout` or `yield_now` in any `crates/*/src`
# outside `simnet/src/wait.rs`. The benchmark figures (`bench`) and the
# vendored stand-ins (`compat`) are not product code. Test modules (from
# `#[cfg(test)]` to the end of a file) are not checked. There is no
# allow-list.
set -e
cd "$(dirname "$0")/.."
hits=$(find crates/*/src -name '*.rs' | grep -v -e '^crates/bench/' -e '^crates/compat/' \
  -e '^crates/simnet/src/wait\.rs$' | sort | while read -r f; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /Condvar|thread::sleep|thread::park|park_timeout|yield_now/ { print f ":" FNR ": " $0 }
  ' "$f"
done)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "error: a product thread blocks outside simnet::wait: park on the Event of what it waits for, or pause for what no event ends" >&2
  exit 1
fi

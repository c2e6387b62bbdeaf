#!/bin/sh
# Fails if non-test product code reads the host clock anywhere but
# `simnet::wait`: a bound on a wait, an interval or a lease is a
# `simnet::wait::Deadline` (or a `simnet::wait::lease_ms` stamp), and only
# `simnet/src/wait.rs` makes one. So no `Instant`, `.elapsed()` or
# `SystemTime` in any `crates/*/src` outside it, except in the three
# gauges that time host set-up cost, named by file and function:
# `LiteKernel::boot` (`boot_ns`), `RnicDataPath::ensure_qps` and
# `LiteKernel::ensure_ring` (`mesh_ns`). The benchmark figures (`bench`)
# and the vendored stand-ins (`compat`) are not product code. Test modules
# (from `#[cfg(test)]` to the end of a file) are not checked.
set -e
cd "$(dirname "$0")/.."
hits=$(find crates/*/src -name '*.rs' | grep -v -e '^crates/bench/' -e '^crates/compat/' \
  -e '^crates/simnet/src/wait\.rs$' | sort | while read -r f; do
  awk -v f="$f" '
    BEGIN {
      gauge["crates/lite/src/kernel.rs:boot"] = 1
      gauge["crates/lite/src/kernel/datapath.rs:ensure_qps"] = 1
      gauge["crates/lite/src/kernel/rpc.rs:ensure_ring"] = 1
    }
    /^#\[cfg\(test\)\]/ { exit }
    # The function a line is in: from its `fn` line to the `}` at the
    # same indent.
    match($0, /^[ \t]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
      fn = substr($0, RSTART, RLENGTH)
      sub(/.*fn /, "", fn)
      end = $0
      sub(/[^ \t].*/, "}", end)
    }
    /Instant|\.elapsed\(\)|SystemTime/ && !((f ":" fn) in gauge) { print f ":" FNR ": " $0 }
    $0 == end { fn = ""; end = "" }
  ' "$f"
done)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "error: product code reads the host clock outside simnet::wait: bound a wait with simnet::wait::Deadline, stamp a lease with simnet::wait::lease_ms" >&2
  exit 1
fi

#!/bin/sh
# Fails if kernel-service wire formats leak out of the modules that own
# them, or if `api.rs` grows a second tiering heal loop.
#
# `Enc::new` / `Dec::new` may appear under crates/lite/src only in wire.rs
# (the codec), kernel/msg.rs (each service's handler arm and its client
# stub) and kernel/rpc.rs; test modules (from `#[cfg(test)]` to the end of
# a file) are not checked. `Err(LiteError::Relocated) =>` may appear in
# api.rs once: in `heal`, which every Relocated-healing call goes through.
set -e
cd "$(dirname "$0")/.."
hits=$(find crates/lite/src -name '*.rs' \
  ! -path crates/lite/src/wire.rs \
  ! -path crates/lite/src/kernel/msg.rs \
  ! -path crates/lite/src/kernel/rpc.rs | sort | while read -r f; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /Enc::new|Dec::new/ { print f ":" FNR ": " $0 }
  ' "$f"
done)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "error: kernel-service payload built or parsed outside wire.rs / kernel/msg.rs: call (or add) the service's k_* stub in kernel/msg.rs" >&2
  exit 1
fi
loops=$(grep -c 'Err(LiteError::Relocated) =>' crates/lite/src/api.rs || true)
if [ "$loops" -gt 1 ]; then
  grep -n 'Err(LiteError::Relocated) =>' crates/lite/src/api.rs
  echo "error: $loops retry loops in api.rs: run the body under LiteHandle::heal instead" >&2
  exit 1
fi

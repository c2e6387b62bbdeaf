#!/bin/sh
# Fails unless a node comes up in one step (DESIGN.md §12): the kernel is
# built with its datapath and the cluster directory in hand, so nothing
# is filled in later and nothing guards against a half-built kernel.
#
# 1. No `OnceLock` in `crates/lite/src/{kernel.rs,mm.rs,kernel/datapath.rs}`:
#    `LiteKernel`, `MemManager` and `RnicDataPath` hold plain fields.
# 2. No `Weak<LiteKernel>` under `crates/lite/src` outside `directory.rs`:
#    the directory is the one holder of a weak kernel handle, so no
#    owner-to-owned back-reference can form a cycle.
# 3. No `try_datapath`, `try_dir` or `set_directory` under
#    `crates/lite/src`: the accessors of the in-between state are gone.
set -e
cd "$(dirname "$0")/.."
status=0
if grep -n 'OnceLock' crates/lite/src/kernel.rs crates/lite/src/mm.rs crates/lite/src/kernel/datapath.rs; then
  echo "error: OnceLock in the kernel, its datapath or its memory manager: build the field in LiteKernel::boot" >&2
  status=1
fi
if grep -rn 'Weak<LiteKernel>' crates/lite/src | grep -v '^crates/lite/src/directory\.rs:'; then
  echo "error: Weak<LiteKernel> outside the directory: reach a kernel through ClusterDirectory::kernel" >&2
  status=1
fi
if grep -rnw -e 'try_datapath' -e 'try_dir' -e 'set_directory' crates/lite/src; then
  echo "error: a half-built-kernel accessor is back: the datapath and the directory are plain fields" >&2
  status=1
fi
exit $status

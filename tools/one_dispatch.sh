#!/bin/sh
# Fails unless a node's arrivals have one dispatcher (DESIGN.md §5.3): the
# thread that delivers a write-imm drains the destination's shared receive
# CQ, and nothing else takes entries off it.
#
# 1. Under crates/lite/src, `shared_recv_cq` is popped or polled only
#    inside `fn drain_arrivals` (a chain split over lines counts).
# 2. `poll_blocking` appears nowhere under crates/lite/src: no thread
#    waits on a CQ for arrivals.
# 3. `fn post_write_imm` calls `drain_arrivals` on both of its paths
#    (loop-back and remote), so every delivery is dispatched.
# 4. No `thread::spawn`, `thread::Builder`, `thread::scope` or `mpsc` in
#    non-test crates/lite/src (what comes before a file's first
#    `#[cfg(test)]`): the thread that delivers a kernel call serves it, and
#    the product starts no thread. The one exception is verify.rs, whose
#    scoped workers are the test oracle's.
set -e
cd "$(dirname "$0")/.."
status=0
takes=$(find crates/lite/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '
    /^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {
      fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn)
    }
    /shared_recv_cq/ { open = 1 }
    open && /\.(pop|poll|poll_blocking)\(/ && fn != "drain_arrivals" {
      print f ":" FNR ": " $0
    }
    open && /;|\{/ { open = 0 }
  ' "$f"
done)
if [ -n "$takes" ]; then
  echo "$takes"
  echo "error: shared_recv_cq taken from outside drain_arrivals: deliver with post_write_imm and let it drain" >&2
  status=1
fi
if grep -rn 'poll_blocking' crates/lite/src; then
  echo "error: poll_blocking in crates/lite/src: arrivals are dispatched by whoever delivers them, not by a waiting thread" >&2
  status=1
fi
drains=$(awk '
  /fn post_write_imm\(/ { body = 1 }
  body && /drain_arrivals\(/ { n++ }
  body && /^    }$/ { body = 0 }
  END { print n + 0 }
' crates/lite/src/kernel/rpc.rs)
if [ "$drains" -lt 2 ]; then
  echo "error: post_write_imm calls drain_arrivals $drains time(s): its loop-back and remote paths must each drain the destination" >&2
  status=1
fi
threads=$(find crates/lite/src -name '*.rs' ! -name verify.rs | sort | while read -r f; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /thread::(spawn|Builder|scope)|mpsc/ { print f ":" FNR ": " $0 }
  ' "$f"
done)
if [ -n "$threads" ]; then
  echo "$threads"
  echo "error: a thread or a channel in crates/lite/src: run the work on the thread that delivered it (kernel/serve.rs)" >&2
  status=1
fi
exit $status

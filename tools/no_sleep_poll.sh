#!/bin/sh
# Fails if non-test code of the LITE kernel or the KV service sleeps on a
# timer: a thread with nothing to do blocks on what it is waiting for, it
# does not sleep beside it and poll. The allow-list is in the source: a
# sleep that stays carries `sleep-ok: <why>` on its line or the line above. Test modules (from
# `#[cfg(test)]` to the end of a file) are not checked.
set -e
cd "$(dirname "$0")/.."
hits=$(find crates/lite/src crates/lite-kv/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /thread::sleep|IDLE_SLEEP/ && !/sleep-ok: / && !ok { print f ":" FNR ": " $0 }
    { ok = /sleep-ok: / }
  ' "$f"
done)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "error: timer sleep in kernel/service code: block on what the thread waits for, or mark the line sleep-ok: <why>" >&2
  exit 1
fi
# lite-kv keeps no timer: its leader and followers sleep in `lt_wait_rpc`
# until a call arrives, and the replicator parks until the leader rings it
# for a batch (or its window ends), so no sleep there is allowed.
if kv=$(grep -rn 'sleep-ok: ' crates/lite-kv/src); then
  echo "$kv"
  echo "error: lite-kv keeps no timer: a server loop waits with lt_wait_rpc, the replicator parks until rung" >&2
  exit 1
fi

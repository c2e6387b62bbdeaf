#!/bin/sh
# Fails if lite-kv moves records to a follower any way but through the log
# (DESIGN.md §15, "Replication is the log").
#
# The replicator sends a follower only how far the log is committed; the
# follower reads what it lacks out of the log itself. So in non-test
# crates/lite-kv/src (up to `#[cfg(test)]`, comments excluded) one line
# calls `read_from(`, and it is in `catch_up_from_log`; and the stream of
# records that replication used to be (`Frame`, `enc_frames`,
# `apply_stream_frame`) is gone. There is no allow-list.
set -e
cd "$(dirname "$0")/.."
# Product lines of lite-kv as `file:line: fn: text`, `fn` the function
# the line is in.
product=$(find crates/lite-kv/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^ *\/\// { next }
    match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
      fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn)
    }
    { print f ":" FNR ": " fn ": " $0 }
  ' "$f"
done)
fail=0
reads=$(echo "$product" | grep 'read_from(' || true)
n=$(echo "$reads" | grep -c . || true)
if [ "$n" -ne 1 ] || ! echo "$reads" | grep -q ': catch_up_from_log: '; then
  echo "$reads"
  echo "error: $n lines call read_from( in crates/lite-kv/src, want 1, in catch_up_from_log: only a follower reads the log" >&2
  fail=1
fi
stream=$(echo "$product" | grep -w -e 'Frame' -e 'enc_frames' -e 'dec_frames' -e 'apply_stream_frame' || true)
if [ -n "$stream" ]; then
  echo "$stream"
  echo "error: crates/lite-kv/src streams records to followers: the replicator sends (committed, end) and nothing else" >&2
  fail=1
fi
exit $fail

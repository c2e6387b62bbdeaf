#!/bin/sh
# Fails when a one-sided verb's host path regrows a cost it shed
# (DESIGN.md §7, "what a verb may cost the host"):
#
# 1. `HashMap` anywhere in crates/smem/src/phys.rs: pages are found
#    through the page table, not a hashed map.
# 2. Inside `Nic::post_chain_on` (crates/rnic/src/nic.rs), the body of
#    every one-sided post: an `upgrade()`, a `self.fabric()` or a
#    `lookup_mr(` — the post borrows the fabric its caller holds, and node
#    memory and MRs from it — or other than one `Pair::lock(`: each NIC's
#    state is locked once a post. `Nic::post_chain`, the entry point for
#    a caller without the fabric, upgrades it once at most.
# 3. More than one `Mutex` field in `simnet::Resource`: a grant takes one
#    lock.
# 4. A map in `simnet::Lru`, or the `mrs` / `qps` registry of `NicState`
#    (what a NIC keeps under its lock), that is not a `KeyMap` (keyed with
#    simnet's shared `KeyHasher`).
# 5. `struct Nic` with other than one `Mutex` field, or a `Mutex` /
#    `RwLock` / `Resource` inside `struct NicState`: a NIC has one lock,
#    and everything a post touches sits under it.
set -e
cd "$(dirname "$0")/.."
status=0

# The lines of the item that starts at the first line matching $2 in file
# $1, through the closing brace at that line's indentation.
body() {
  awk -v start="$2" '
    !open && $0 ~ start {
      open = 1; match($0, /^ */); indent = RLENGTH
      close_re = "^" sprintf("%" indent "s", "") "}"
    }
    open { print FILENAME ":" FNR ": " $0 }
    open && FNR > 1 && $0 ~ close_re && $0 !~ start { exit }
  ' "$1"
}

phys=crates/smem/src/phys.rs
if grep -n 'HashMap' "$phys"; then
  echo "error: HashMap in $phys: find pages through the page table" >&2
  status=1
fi

nic=crates/rnic/src/nic.rs
post=$(body "$nic" 'pub fn post_chain_on\(')
if [ -z "$post" ]; then
  echo "error: no fn post_chain_on in $nic" >&2
  status=1
fi
if echo "$post" | grep -E 'upgrade\(\)|self\.fabric\(\)|lookup_mr\('; then
  echo "error: Nic::post_chain_on upgrades a Weak or clones an MR out of the registry: borrow the fabric the caller holds and resolve under the NIC's lock" >&2
  status=1
fi
locks=$(echo "$post" | grep -c 'Pair::lock(' || true)
if [ "$locks" -ne 1 ]; then
  echo "error: Nic::post_chain_on locks the NIC pair $locks times: once per post" >&2
  status=1
fi
entry=$(body "$nic" 'pub fn post_chain\(')
fabrics=$(echo "$entry" | grep -c 'self\.fabric()' || true)
if [ "$fabrics" -gt 1 ]; then
  echo "$entry" | grep 'self\.fabric()'
  echo "error: Nic::post_chain upgrades the fabric $fabrics times: once per post" >&2
  status=1
fi

resource=$(body crates/simnet/src/resource.rs '^pub struct Resource ')
mutexes=$(echo "$resource" | grep -c 'Mutex<' || true)
if [ "$mutexes" -ne 1 ]; then
  echo "$resource" | grep 'Mutex<' || true
  echo "error: simnet::Resource has $mutexes Mutex fields: a grant takes its one state lock" >&2
  status=1
fi

lru=$(body crates/simnet/src/lru.rs '^pub struct Lru<')
if echo "$lru" | grep -E 'Map<' | grep -v 'KeyMap<'; then
  echo "error: a map in simnet::Lru not keyed with KeyHasher: use KeyMap" >&2
  status=1
fi
if ! echo "$lru" | grep -q 'KeyMap<'; then
  echo "error: simnet::Lru's map is not a KeyMap" >&2
  status=1
fi
state=$(body "$nic" '^struct NicState ')
registries=$(echo "$state" | grep -E '^[^:]*:[0-9]+: +(mrs|qps):')
for field in mrs qps; do
  line=$(echo "$registries" | grep -E ": +$field:" || true)
  if [ -z "$line" ] || ! echo "$line" | grep -q 'KeyMap<'; then
    echo "${line:-$nic: no field $field in struct NicState}"
    echo "error: NicState::$field is not a KeyMap: key the registry with KeyHasher" >&2
    status=1
  fi
done
if echo "$state" | grep -E 'Mutex<|RwLock<|Resource'; then
  echo "error: a lock inside NicState: it is already under the NIC's one lock" >&2
  status=1
fi
nic_mutexes=$(body "$nic" '^pub struct Nic ' | grep -c 'Mutex<' || true)
if [ "$nic_mutexes" -ne 1 ]; then
  echo "error: struct Nic has $nic_mutexes Mutex fields: a NIC has one lock" >&2
  status=1
fi
exit $status

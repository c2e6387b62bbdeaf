#!/bin/sh
# Fails when a one-sided verb's host path regrows a cost it shed
# (DESIGN.md §7, "what a verb may cost the host"):
#
# 1. `HashMap` anywhere in crates/smem/src/phys.rs: pages are found
#    through the page table, not a hashed map.
# 2. Inside `Nic::post_chain` (crates/rnic/src/nic.rs): an `upgrade()`, a
#    `lookup_mr(`, or more than one `self.fabric()` — the post upgrades
#    the fabric once and borrows node memory and MRs from what it holds.
# 3. More than one `Mutex` field in `simnet::Resource`: a grant takes one
#    lock.
# 4. A map in `simnet::Lru`, or `Nic`'s `mrs` / `qps` registry, that is not
#    a `KeyMap` (keyed with simnet's shared `KeyHasher`).
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
post=$(body "$nic" 'pub fn post_chain\(')
if [ -z "$post" ]; then
  echo "error: no fn post_chain in $nic" >&2
  status=1
fi
if echo "$post" | grep -E 'upgrade\(\)|lookup_mr\('; then
  echo "error: Nic::post_chain upgrades a Weak or clones an MR out of the registry: borrow from the fabric it holds and resolve under the registry's read guard" >&2
  status=1
fi
fabrics=$(echo "$post" | grep -c 'self\.fabric()' || true)
if [ "$fabrics" -gt 1 ]; then
  echo "$post" | grep 'self\.fabric()'
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
registries=$(body "$nic" '^pub struct Nic ' | grep -E '^[^:]*:[0-9]+: +(mrs|qps):')
for field in mrs qps; do
  line=$(echo "$registries" | grep -E ": +$field:" || true)
  if [ -z "$line" ] || ! echo "$line" | grep -q 'KeyMap<'; then
    echo "${line:-$nic: no field $field in struct Nic}"
    echo "error: Nic::$field is not a KeyMap: key the registry with KeyHasher" >&2
    status=1
  fi
done
exit $status

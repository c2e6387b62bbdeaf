//! A constant-time LRU cache with hit/miss accounting.
//!
//! This is the model of on-RNIC SRAM in the reproduction: the RNIC keeps an
//! [`Lru`] of MR keys, an [`Lru`] of cached page-table entries, and an
//! [`Lru`] of QP contexts. A miss costs extra virtual time (a PCIe round
//! trip to host memory in the real hardware), which is what produces the
//! paper's Figure 4 and Figure 5 scalability cliffs.
//!
//! Its map, and every other map a verb looks an integer key up in (the
//! RNIC's MR and QP registries), hashes with [`KeyHasher`]: one multiply
//! per word instead of SipHash's rounds.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fixed multiplicative hasher for small keys (integers and tuples of
/// them): each word is added to the state, which is then multiplied by
/// an odd constant; `finish` rotates the well-mixed high bits down to
/// where a table indexes. Deterministic across runs and processes, and
/// not resistant to chosen keys: every key it sees is the simulator's
/// own (ids, addresses, and names its callers pick).
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher(u64);

impl MulHasher {
    /// An odd constant with well-spread bits (the fractional part of π).
    const K: u64 = 0x243f_6a88_85a3_08d3;
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(Self::K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`MulHasher`] as a map's hash builder.
pub type KeyHasher = BuildHasherDefault<MulHasher>;

/// A `HashMap` keyed with [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, KeyHasher>;

/// Slab index used by the intrusive doubly-linked list.
type Idx = usize;
const NIL: Idx = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: Idx,
    next: Idx,
}

/// An LRU cache with a fixed capacity and hit/miss counters.
///
/// Not internally synchronized: wrap in a lock (the RNIC model keeps its
/// caches under the NIC's one lock, mirroring the single SRAM port), so
/// the counters are plain integers, not atomics.
pub struct Lru<K, V> {
    map: KeyMap<K, Idx>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<Idx>,
    head: Idx,
    tail: Idx,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates an empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Lru {
            map: KeyMap::with_capacity_and_hasher(capacity, KeyHasher::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn slot(&self, idx: Idx) -> &Entry<K, V> {
        self.slab[idx].as_ref().expect("linked slot is occupied")
    }

    fn slot_mut(&mut self, idx: Idx) -> &mut Entry<K, V> {
        self.slab[idx].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, idx: Idx) {
        let (prev, next) = {
            let e = self.slot(idx);
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: Idx) {
        let head = self.head;
        {
            let e = self.slot_mut(idx);
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.slot_mut(head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks `key` up, promoting it on a hit. Records hit/miss. Returns a
    /// reference to the cached value on a hit.
    pub fn touch(&mut self, key: &K) -> Option<&V> {
        // The most recent entry again (a NIC's one global MR key, every
        // verb): a hit with nothing to promote, found without hashing.
        if self.head != NIL && self.slot(self.head).key == *key {
            self.hits += 1;
            return Some(&self.slot(self.head).value);
        }
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                Some(&self.slot(idx).value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks residency without promoting or counting.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key` as the most-recently-used entry, evicting the LRU
    /// entry if at capacity. Returns the evicted pair, if any. Inserting an
    /// existing key replaces its value and promotes it.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slot_mut(idx).value = value;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old = self.slab[victim].take().expect("tail slot occupied");
            self.map.remove(&old.key);
            self.free.push(victim);
            self.evictions += 1;
            evicted = Some((old.key, old.value));
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(free) = self.free.pop() {
            self.slab[free] = Some(entry);
            free
        } else {
            self.slab.push(Some(entry));
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key` if resident, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let entry = self.slab[idx].take().expect("mapped slot occupied");
        self.free.push(idx);
        Some(entry.value)
    }

    /// Iterates keys coldest-first (tail to head), without promoting or
    /// counting. Callers scanning for an eviction victim walk this and
    /// skip entries that cannot be evicted right now.
    pub fn iter_lru(&self) -> impl Iterator<Item = &K> + '_ {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let e = self.slot(cur);
            cur = e.prev;
            Some(&e.key)
        })
    }

    /// Clears all entries (counters are preserved).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_evict() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert!(lru.touch(&1).is_none());
        assert_eq!(lru.misses(), 1);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.touch(&1), Some(&10));
        // Inserting 3 evicts 2 (1 was just promoted).
        let ev = lru.insert(3, 30);
        assert_eq!(ev, Some((2, 20)));
        assert!(lru.contains(&1) && lru.contains(&3) && !lru.contains(&2));
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn reinsert_promotes() {
        let mut lru: Lru<u32, ()> = Lru::new(2);
        lru.insert(1, ());
        lru.insert(2, ());
        lru.insert(1, ()); // promote 1
        let ev = lru.insert(3, ());
        assert_eq!(ev.map(|e| e.0), Some(2));
    }

    #[test]
    fn hit_rate_matches_capacity_over_working_set() {
        // Random touches over a working set W with capacity C should give
        // a hit rate near C/W once warm.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let (cap, ws) = (64usize, 256u32);
        let mut lru: Lru<u32, ()> = Lru::new(cap);
        for _ in 0..ws * 4 {
            let k = rng.gen_range(0..ws);
            if lru.touch(&k).is_none() {
                lru.insert(k, ());
            }
        }
        let (h0, m0) = (lru.hits(), lru.misses());
        for _ in 0..20_000 {
            let k = rng.gen_range(0..ws);
            if lru.touch(&k).is_none() {
                lru.insert(k, ());
            }
        }
        let hits = lru.hits() - h0;
        let total = hits + (lru.misses() - m0);
        let rate = hits as f64 / total as f64;
        let expect = cap as f64 / ws as f64;
        assert!(
            (rate - expect).abs() < 0.05,
            "hit rate {rate:.3} far from {expect:.3}"
        );
    }

    #[test]
    fn iter_lru_walks_cold_to_hot() {
        let mut lru: Lru<u32, ()> = Lru::new(4);
        for k in 0..4 {
            lru.insert(k, ());
        }
        lru.touch(&0);
        let order: Vec<u32> = lru.iter_lru().copied().collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        lru.remove(&2);
        let order: Vec<u32> = lru.iter_lru().copied().collect();
        assert_eq!(order, vec![1, 3, 0]);
    }

    #[test]
    fn remove_frees_slot() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        assert_eq!(lru.remove(&1), Some(10));
        assert!(lru.is_empty());
        lru.insert(2, 20);
        lru.insert(3, 30);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.remove(&9), None);
    }

    #[test]
    fn key_hasher_spreads_sequential_keys() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let h = KeyHasher::default();
        // Keys one apart, keys a page apart, and (key, vpn) pairs land in
        // distinct low bits — where a table picks its bucket.
        for step in [1u64, 4096] {
            let low: HashSet<u64> = (0..1024u64).map(|k| h.hash_one(k * step) & 1023).collect();
            assert!(
                low.len() > 600,
                "step {step}: {} buckets of 1024",
                low.len()
            );
        }
        let pairs: HashSet<u64> = (0..1024u64).map(|v| h.hash_one((7u32, v)) & 1023).collect();
        assert!(pairs.len() > 600);
        assert_eq!(h.hash_one(42u64), h.hash_one(42u64));
    }

    #[test]
    fn eviction_order_is_lru_under_sequence() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        for k in 0..3 {
            lru.insert(k, k);
        }
        lru.touch(&0);
        lru.touch(&1);
        // LRU is now 2.
        assert_eq!(lru.insert(3, 3).map(|e| e.0), Some(2));
        assert_eq!(lru.insert(4, 4).map(|e| e.0), Some(0));
    }
}

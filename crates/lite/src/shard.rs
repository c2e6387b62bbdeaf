//! Sharded hash maps for the kernel's hot tables.
//!
//! Every kernel table used to be one `Mutex<HashMap>` — fine at the
//! paper's 10-machine scale, a global serialization point once hundreds
//! of nodes and thousands of client contexts hammer the same kernel
//! (RDMAvisor's argument, and Storm's per-connection-state lesson). A
//! [`ShardedMap`] splits the table into a fixed power-of-two number of
//! shards ([`crate::LiteConfig::kernel_shards`]), each behind its own
//! `parking_lot` mutex, routed by key hash. An op on one key locks
//! exactly one shard; ops on keys in different shards never contend. The
//! key is hashed once, with `simnet`'s fixed [`KeyHasher`]: the shard
//! comes from the middle bits of that hash, the shard's own table uses
//! its low and top bits.
//!
//! # Lock-ordering rule
//!
//! Holding two shard locks of the *same* map is forbidden (the closure
//! APIs make it structurally hard), and no caller may invoke anything
//! that takes another kernel lock from inside [`ShardedMap::with_shard_of`]
//! — compute an action inside the closure, act after it returns. This
//! is the rule DESIGN.md §12 documents; the FN_LOCK/FN_BARRIER handlers
//! are the reference pattern.
//!
//! # Iteration
//!
//! [`ShardedMap::for_each_mut`] and friends iterate **snapshot-per-shard**:
//! one shard is locked, visited, and released before the next is taken.
//! There is no global freeze — entries inserted into an already-visited
//! shard during iteration are missed, entries removed from an unvisited
//! one are skipped. Every current consumer (lh invalidation, the mm
//! migrator, stats gauges) tolerates that weaker snapshot.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash};

use parking_lot::Mutex;
use simnet::{KeyHasher, KeyMap};

/// A hash map split into power-of-two shards with per-shard locks.
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<KeyMap<K, V>>]>,
    mask: u64,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Creates a map with `shards` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n).map(|_| Mutex::default()).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &K) -> &Mutex<KeyMap<K, V>> {
        // A fixed hasher: shard routing must agree with itself across
        // calls, and must not depend on process-global hasher state (the
        // simulation is otherwise deterministic).
        let h = KeyHasher::default().hash_one(key);
        &self.shards[((h >> 32) & self.mask) as usize]
    }

    /// Inserts, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_of(&key).lock().insert(key, value)
    }

    /// Inserts only if the key is absent; `true` when inserted.
    pub fn insert_if_absent(&self, key: K, value: V) -> bool {
        let shard = self.shard_of(&key);
        let mut m = shard.lock();
        match m.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    /// Removes, returning the value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_of(key).lock().remove(key)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_of(key).lock().contains_key(key)
    }

    /// Runs `f` with the key's shard locked. The single entry point for
    /// entry-style read-modify-write; `f` must not take other kernel
    /// locks (see the module-level lock-ordering rule).
    pub fn with_shard_of<R>(&self, key: &K, f: impl FnOnce(&mut KeyMap<K, V>) -> R) -> R {
        f(&mut self.shard_of(key).lock())
    }

    /// Visits every entry mutably, snapshot-per-shard (no global freeze).
    pub fn for_each_mut(&self, mut f: impl FnMut(&K, &mut V)) {
        for shard in self.shards.iter() {
            for (k, v) in shard.lock().iter_mut() {
                f(k, v);
            }
        }
    }

    /// Keeps only entries for which `f` returns true, shard by shard.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for shard in self.shards.iter() {
            shard.lock().retain(|k, v| f(k, v));
        }
    }

    /// Total entries (summed across shards; a racy gauge, not a fence).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty (racy, like [`ShardedMap::len`]).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// Clone of the value under `key`. The clone is deliberate: handing
    /// out references would pin the shard lock at the caller.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).lock().get(key).cloned()
    }

    /// Clones every entry, snapshot-per-shard.
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            for (k, v) in shard.lock().iter() {
                out.push((k.clone(), v.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedMap::<u64, u64>::new(0).shard_count(), 1);
        assert_eq!(ShardedMap::<u64, u64>::new(1).shard_count(), 1);
        assert_eq!(ShardedMap::<u64, u64>::new(3).shard_count(), 4);
        assert_eq!(ShardedMap::<u64, u64>::new(16).shard_count(), 16);
        assert_eq!(ShardedMap::<u64, u64>::new(17).shard_count(), 32);
    }

    #[test]
    fn basic_map_semantics() {
        let m: ShardedMap<u64, String> = ShardedMap::new(8);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(1, "b".into()), Some("a".into()));
        assert_eq!(m.get(&1), Some("b".into()));
        assert!(m.contains_key(&1));
        assert!(!m.insert_if_absent(1, "c".into()));
        assert!(m.insert_if_absent(2, "c".into()));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&1), Some("b".into()));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn with_shard_of_entry_style() {
        let m: ShardedMap<u64, Vec<u32>> = ShardedMap::new(4);
        for i in 0..100u32 {
            m.with_shard_of(&(i as u64 % 10), |s| {
                s.entry(i as u64 % 10).or_default().push(i)
            });
        }
        for k in 0..10u64 {
            assert_eq!(m.get(&k).unwrap().len(), 10);
        }
    }

    #[test]
    fn iteration_and_retain_cover_all_shards() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(16);
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        let mut sum = 0u64;
        m.for_each_mut(|_, v| {
            *v += 1;
            sum += 1;
        });
        assert_eq!(sum, 1000);
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 500);
        assert_eq!(m.snapshot().len(), 500);
        assert_eq!(m.get(&10), Some(21));
        assert_eq!(m.get(&11), None);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(8));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (t * 2_000 + i) % 512;
                        m.insert(k, t);
                        let _ = m.get(&k);
                        m.with_shard_of(&k, |s| {
                            if let Some(v) = s.get_mut(&k) {
                                *v = v.wrapping_add(1);
                            }
                        });
                        if i % 7 == 0 {
                            m.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // No panics, no deadlocks, and the map is still coherent.
        assert!(m.len() <= 512);
    }
}

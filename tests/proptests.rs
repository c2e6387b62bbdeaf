//! Property-based tests over the reproduction's core invariants.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

// ---------------------------------------------------------------------
// Physical allocator: no overlap, exact reclamation, chunk integrity.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_never_overlaps_and_reclaims(
        ops in prop::collection::vec((0u8..2, 64u64..8192), 1..120)
    ) {
        let mut a = smem::PhysAllocator::new(0, 1 << 22);
        let total = a.free_bytes();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (kind, len) in ops {
            if kind == 0 || live.is_empty() {
                if let Ok(addr) = a.alloc(len) {
                    // No overlap with any live allocation.
                    for &(la, ll) in &live {
                        prop_assert!(addr + len <= la || la + ll <= addr,
                            "overlap: [{addr},+{len}) vs [{la},+{ll})");
                    }
                    live.push((addr, len));
                }
            } else {
                let (addr, _) = live.swap_remove(0);
                prop_assert!(a.free(addr).is_ok());
            }
        }
        for (addr, _) in live {
            prop_assert!(a.free(addr).is_ok());
        }
        prop_assert_eq!(a.free_bytes(), total, "memory leaked or duplicated");
        prop_assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn chunked_alloc_covers_len_without_overlap(
        len in 1u64..(1 << 21),
        max_chunk in 4096u64..(1 << 19)
    ) {
        let mut a = smem::PhysAllocator::new(0, 1 << 23);
        let chunks = a.alloc_chunked(len, max_chunk).unwrap();
        let sum: u64 = chunks.iter().map(|c| c.len).sum();
        prop_assert!(sum >= len);
        for c in &chunks {
            prop_assert!(c.len <= max_chunk.div_ceil(64) * 64);
        }
        let mut sorted = chunks.clone();
        sorted.sort_by_key(|c| c.addr);
        for w in sorted.windows(2) {
            prop_assert!(w[0].addr + w[0].len <= w[1].addr);
        }
        a.free_chunks(&chunks).unwrap();
        prop_assert_eq!(a.free_bytes(), 1 << 23);
    }

    // -------------------------------------------------------------
    // Physical memory: read-back equals writes, any alignment.
    // -------------------------------------------------------------

    #[test]
    fn phys_mem_roundtrips(
        writes in prop::collection::vec((0u64..60_000, prop::collection::vec(any::<u8>(), 1..3000)), 1..20)
    ) {
        let m = smem::PhysMem::new(1 << 16);
        let mut shadow = vec![0u8; 1 << 16];
        for (addr, data) in &writes {
            let addr = (*addr).min((1 << 16) - data.len() as u64);
            m.write(addr, data).unwrap();
            shadow[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        }
        let mut back = vec![0u8; 1 << 16];
        m.read(0, &mut back).unwrap();
        prop_assert_eq!(back, shadow);
    }

    // -------------------------------------------------------------
    // LMR location slicing: pieces tile the requested range exactly.
    // -------------------------------------------------------------

    #[test]
    fn location_slices_tile_exactly(
        lens in prop::collection::vec(1u64..5000, 1..8),
        frac_off in 0.0f64..1.0,
        frac_len in 0.0f64..1.0
    ) {
        let mut extents = Vec::new();
        let mut base = 0x1000u64;
        for (i, l) in lens.iter().enumerate() {
            extents.push((i % 3, smem::Chunk { addr: base, len: *l }));
            base += l + 4096;
        }
        let loc = lite::Location { extents };
        let total = loc.len();
        let off = (frac_off * total as f64) as u64 % total;
        let len = 1 + ((frac_len * (total - off) as f64) as u64).min(total - off - 1);
        let pieces = loc.slice(off, len).unwrap();
        prop_assert_eq!(pieces.iter().map(|(_, c)| c.len).sum::<u64>(), len);
        // Pieces appear in order and don't overlap in LMR space.
        let mut cursor = off;
        for (_, c) in &pieces {
            prop_assert!(c.len > 0);
            cursor += c.len;
        }
        prop_assert_eq!(cursor, off + len);
    }

    // -------------------------------------------------------------
    // Wire formats: total decode of IMM; header roundtrip.
    // -------------------------------------------------------------

    #[test]
    fn imm_decode_is_total_and_roundtrips(v in any::<u32>()) {
        match lite::wire::Imm::decode(v) {
            // Re-encoding preserves the payload bits we keep.
            Some(imm) => prop_assert_eq!(lite::wire::Imm::decode(imm.encode()), Some(imm)),
            None => prop_assert_eq!(v >> 30, 2, "only the reserved kind is ignored"),
        }
    }

    #[test]
    fn msg_header_roundtrips(
        func in any::<u8>(),
        slot in 0u32..(1 << 30),
        len in any::<u32>(),
        reply_addr in any::<u64>(),
        reply_max in any::<u32>(),
        src_node in any::<u32>(),
        src_pid in any::<u32>(),
        skip in any::<u32>()
    ) {
        let h = lite::wire::MsgHeader {
            func, slot, len, reply_addr, reply_max, src_node, src_pid, skip,
        };
        let enc = h.encode();
        prop_assert_eq!(lite::wire::MsgHeader::decode(&enc).unwrap(), h);
    }
}

// ---------------------------------------------------------------------
// Ring accounting: random reserve/consume interleavings reconcile.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rpc_ring_accounting_reconciles(
        sizes in prop::collection::vec(1u64..1500, 1..300),
        consume_lag in 1usize..8
    ) {
        let cr = lite::ring::ClientRing::new(0, 16 * 1024).unwrap();
        let sr = lite::ring::ServerRing::new(0, 16 * 1024).unwrap();
        let mem = smem::PhysMem::new(32 * 1024);
        // The client learns of freed space only by pulling the head cell.
        let pull = || {
            let mut cell = [0u8; lite::ring::HeadCell::BYTES];
            mem.read(cr.head_cell(), &mut cell).unwrap();
            cr.update_head(lite::ring::HeadCell::decode(&cell).head);
        };
        let mut pending: Vec<(lite::ring::Reservation, u64)> = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            match cr.try_reserve(len) {
                Ok(r) => pending.push((r, len)),
                Err(lite::LiteError::RingFull) => {
                    // Drain a few, pull, and retry once.
                    for _ in 0..consume_lag.min(pending.len()) {
                        let (r, l) = pending.remove(0);
                        sr.consume(&mem, r.offset, l, r.skip, i as u64).unwrap();
                    }
                    pull();
                    if let Ok(r) = cr.try_reserve(len) {
                        pending.push((r, len));
                    }
                }
                Err(lite::LiteError::TooLarge { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
            if pending.len() >= consume_lag {
                let (r, l) = pending.remove(0);
                sr.consume(&mem, r.offset, l, r.skip, i as u64).unwrap();
            }
        }
        for (r, l) in pending {
            sr.consume(&mem, r.offset, l, r.skip, u64::MAX - 1).unwrap();
        }
        pull();
        prop_assert_eq!(cr.in_flight(), 0, "ring space leaked");
    }

    // -------------------------------------------------------------
    // Resource: rate never exceeded, grants never start early.
    // -------------------------------------------------------------

    #[test]
    fn resource_rate_is_conserved(
        reqs in prop::collection::vec((0u64..100_000, 1u64..5_000), 1..200),
        slack in 0u64..20_000
    ) {
        let r = simnet::Resource::with_slack("p", slack);
        let mut total_service = 0u64;
        let mut max_finish = 0u64;
        let mut min_start = u64::MAX;
        for (now, svc) in reqs {
            let g = r.acquire(now, svc);
            prop_assert!(g.start >= now);
            prop_assert_eq!(g.finish, g.start + svc);
            total_service += svc;
            max_finish = max_finish.max(g.finish);
            min_start = min_start.min(g.start);
        }
        // Aggregate rate bound: all service fits in the busy span plus
        // one pipeline window.
        prop_assert!(max_finish - min_start + slack + 1 >= total_service,
            "rate exceeded: {total_service} service in {} span (slack {slack})",
            max_finish - min_start);
        prop_assert_eq!(r.busy_time(), total_service);
    }
}

// ---------------------------------------------------------------------
// Stateful end-to-end property: random LITE memory operations against a
// shadow model.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lite_memory_matches_shadow(
        ops in prop::collection::vec(
            (0u8..3, 0u64..8000, prop::collection::vec(any::<u8>(), 1..600)),
            1..40
        )
    ) {
        let cluster = lite::LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = simnet::Ctx::new();
        let lh = h.lt_malloc(&mut ctx, 1, 8192, "shadowed", lite::Perm::RW).unwrap();
        let mut shadow = vec![0u8; 8192];
        for (kind, off, data) in &ops {
            let off = (*off).min(8192 - data.len() as u64);
            match kind {
                0 => {
                    h.lt_write(&mut ctx, lh, off, data).unwrap();
                    shadow[off as usize..off as usize + data.len()].copy_from_slice(data);
                }
                1 => {
                    h.lt_memset(&mut ctx, lh, off, data.len(), data[0]).unwrap();
                    shadow[off as usize..off as usize + data.len()].fill(data[0]);
                }
                _ => {
                    let mut buf = vec![0u8; data.len()];
                    h.lt_read(&mut ctx, lh, off, &mut buf).unwrap();
                    prop_assert_eq!(&buf[..], &shadow[off as usize..off as usize + data.len()]);
                }
            }
        }
        let mut all = vec![0u8; 8192];
        h.lt_read(&mut ctx, lh, 0, &mut all).unwrap();
        prop_assert_eq!(all, shadow);
    }

    // -------------------------------------------------------------
    // DSM: concurrent counters under acquire/release lose nothing.
    // -------------------------------------------------------------

    #[test]
    fn dsm_counters_linearize(per_node in 1usize..8, cells in 1u64..4) {
        let cluster = lite::LiteCluster::start(3).unwrap();
        let dsm = lite_dsm::DsmCluster::create(&cluster, 1 << 16).unwrap();
        let mut joins = Vec::new();
        for node in 0..3usize {
            let dsm = Arc::clone(&dsm);
            joins.push(std::thread::spawn(move || {
                let mut h = dsm.handle(node).unwrap();
                let mut ctx = simnet::Ctx::new();
                for i in 0..per_node {
                    let cell = (i as u64 % cells) * 8;
                    h.acquire(&mut ctx, cell, 8).unwrap();
                    let mut b = [0u8; 8];
                    h.read(&mut ctx, cell, &mut b).unwrap();
                    let v = u64::from_le_bytes(b);
                    h.write(&mut ctx, cell, &(v + 1).to_le_bytes()).unwrap();
                    h.release(&mut ctx).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = dsm.handle(0).unwrap();
        let mut ctx = simnet::Ctx::new();
        let mut sum = 0u64;
        for c in 0..cells {
            let mut b = [0u8; 8];
            h.read(&mut ctx, c * 8, &mut b).unwrap();
            sum += u64::from_le_bytes(b);
        }
        prop_assert_eq!(sum as usize, 3 * per_node, "increments lost or duplicated");
    }
}

/// Deterministic (non-proptest) check that the MapReduce merge is
/// equivalent to hash aggregation for adversarial duplicates.
#[test]
fn merge_sorted_equals_hash_aggregation() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    for _ in 0..50 {
        let n = rng.gen_range(1..200);
        let mut a: Vec<(u32, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..50), rng.gen_range(1..5)))
            .collect();
        let mut b: Vec<(u32, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..50), rng.gen_range(1..5)))
            .collect();
        // Aggregate duplicates within each run first (runs are sorted and
        // unique in the real pipeline).
        let squash = |v: &mut Vec<(u32, u64)>| {
            let mut m: HashMap<u32, u64> = HashMap::new();
            for (k, c) in v.iter() {
                *m.entry(*k).or_insert(0) += c;
            }
            let mut out: Vec<(u32, u64)> = m.into_iter().collect();
            out.sort_unstable();
            *v = out;
        };
        squash(&mut a);
        squash(&mut b);
        let text_merge = lite_mr::merge_for_tests(&a, &b);
        let mut expect: HashMap<u32, u64> = HashMap::new();
        for (k, c) in a.iter().chain(b.iter()) {
            *expect.entry(*k).or_insert(0) += c;
        }
        let mut expect: Vec<(u32, u64)> = expect.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(text_merge, expect);
    }
}

// ---------------------------------------------------------------------
// ShardedMap: equivalent to one big map under any key distribution and
// any shard count (DESIGN.md §12).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_map_matches_hashmap_model(
        shards in 0usize..40,
        // Skewed key spaces on purpose: tiny (everything collides into
        // few shards), clustered, and wide.
        ops in prop::collection::vec((0u8..5, 0u64..96, any::<u16>()), 1..200)
    ) {
        let m: lite::ShardedMap<u64, u16> = lite::ShardedMap::new(shards);
        let mut model: HashMap<u64, u16> = HashMap::new();
        for (kind, key, val) in ops {
            match kind {
                0 => {
                    prop_assert_eq!(m.insert(key, val), model.insert(key, val));
                }
                1 => {
                    let fresh = m.insert_if_absent(key, val);
                    prop_assert_eq!(fresh, !model.contains_key(&key));
                    if fresh {
                        model.insert(key, val);
                    }
                }
                2 => {
                    prop_assert_eq!(m.remove(&key), model.remove(&key));
                }
                3 => {
                    prop_assert_eq!(m.get(&key), model.get(&key).copied());
                    prop_assert_eq!(m.contains_key(&key), model.contains_key(&key));
                }
                _ => {
                    let r = m.with_shard_of(&key, |s| {
                        s.get_mut(&key).map(|v| { *v = v.wrapping_add(1); *v })
                    });
                    let rm = model.get_mut(&key).map(|v| { *v = v.wrapping_add(1); *v });
                    prop_assert_eq!(r, rm);
                }
            }
            prop_assert_eq!(m.len(), model.len());
        }
        // Snapshot-per-shard iteration sees exactly the model's entries
        // when the map is quiescent.
        let mut snap = m.snapshot();
        snap.sort_unstable();
        let mut expect: Vec<(u64, u16)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        expect.sort_unstable();
        prop_assert_eq!(snap, expect);
        m.retain(|k, _| k % 2 == 0);
        model.retain(|k, _| k % 2 == 0);
        prop_assert_eq!(m.len(), model.len());
    }
}

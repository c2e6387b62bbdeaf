//! Property-based tests of the DSM protocol: a shadow-model check of
//! arbitrary acquire/write/release/read schedules, and a multi-threaded
//! no-lost-update property over random cells.

use std::sync::Arc;

use lite::LiteCluster;
use lite_dsm::{DsmCluster, PAGE};
use proptest::prelude::*;
use simnet::Ctx;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One handle, random single-threaded schedule vs a shadow buffer:
    /// the DSM must behave exactly like local memory.
    #[test]
    fn single_handle_matches_shadow(
        ops in prop::collection::vec(
            (0u8..2, 0u64..30_000, prop::collection::vec(any::<u8>(), 1..2000)),
            1..30
        )
    ) {
        let cluster = LiteCluster::start(3).unwrap();
        let dsm = DsmCluster::create(&cluster, 32_768).unwrap();
        let mut h = dsm.handle(1).unwrap();
        let mut ctx = Ctx::new();
        let mut shadow = vec![0u8; 32_768];
        for (kind, addr, data) in &ops {
            let addr = (*addr).min(32_768 - data.len() as u64);
            if *kind == 0 {
                h.acquire(&mut ctx, addr, data.len()).unwrap();
                h.write(&mut ctx, addr, data).unwrap();
                h.release(&mut ctx).unwrap();
                shadow[addr as usize..addr as usize + data.len()].copy_from_slice(data);
            } else {
                let mut buf = vec![0u8; data.len()];
                h.read(&mut ctx, addr, &mut buf).unwrap();
                prop_assert_eq!(&buf[..], &shadow[addr as usize..addr as usize + data.len()]);
            }
        }
    }

    /// Readers on other nodes always observe a prefix-consistent value:
    /// after a writer's release, a fresh reader sees that write (no
    /// stale-forever, no torn page).
    #[test]
    fn release_visibility(seeds in prop::collection::vec(any::<u64>(), 1..6)) {
        let cluster = LiteCluster::start(2).unwrap();
        let dsm = DsmCluster::create(&cluster, (4 * PAGE) as u64).unwrap();
        let mut w = dsm.handle(0).unwrap();
        let mut r = dsm.handle(1).unwrap();
        let mut wctx = Ctx::new();
        let mut rctx = Ctx::new();
        for (i, seed) in seeds.iter().enumerate() {
            let page = (i % 4) as u64 * PAGE as u64;
            let val = seed.to_le_bytes();
            w.acquire(&mut wctx, page, 8).unwrap();
            w.write(&mut wctx, page, &val).unwrap();
            w.release(&mut wctx).unwrap();
            let mut buf = [0u8; 8];
            r.read(&mut rctx, page, &mut buf).unwrap();
            prop_assert_eq!(buf, val, "reader missed a released write");
        }
    }
}

/// Three nodes hammer random cells under tokens; no increment is ever
/// lost (MRSW single-writer guarantee).
#[test]
fn concurrent_random_cells_lose_nothing() {
    let cluster = LiteCluster::start(3).unwrap();
    let dsm = DsmCluster::create(&cluster, (8 * PAGE) as u64).unwrap();
    let per_node = 25;
    let mut joins = Vec::new();
    for node in 0..3usize {
        let dsm = Arc::clone(&dsm);
        joins.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(node as u64);
            let mut h = dsm.handle(node).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..per_node {
                let cell = rng.gen_range(0..16u64) * 8;
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
    let mut h = dsm.handle(1).unwrap();
    let mut ctx = Ctx::new();
    let mut total = 0u64;
    for cell in 0..16u64 {
        let mut b = [0u8; 8];
        h.read(&mut ctx, cell * 8, &mut b).unwrap();
        total += u64::from_le_bytes(b);
    }
    assert_eq!(total as usize, 3 * per_node);
}

/// §8.4's one-sided read property: moving N pages of data involves the
/// home node's CPU only for the per-page sharer registration (one RPC
/// per home per batch), never for the data itself.
#[test]
fn reads_move_data_one_sidedly() {
    let cluster = LiteCluster::start(2).unwrap();
    let dsm = DsmCluster::create(&cluster, (64 * PAGE) as u64).unwrap();
    let mut h = dsm.handle(0).unwrap();
    let mut ctx = Ctx::new();
    let before_rpc = cluster.kernel(1).stats().rpc_dispatched;
    let before_reads = cluster.kernel(0).stats().lt_reads;
    // Read 32 pages homed on node 1 (odd pages), one batched read each 8.
    for batch in 0..4u64 {
        let first_odd = batch * 16 * PAGE as u64 + PAGE as u64;
        let mut buf = vec![0u8; 8 * PAGE];
        // Addresses stride 2 pages; read page-by-page to hit the fault
        // batcher per call.
        h.read(&mut ctx, first_odd, &mut buf[..PAGE]).unwrap();
        let _ = &buf;
    }
    let reads = cluster.kernel(0).stats().lt_reads - before_reads;
    let rpcs = cluster.kernel(1).stats().rpc_dispatched - before_rpc;
    assert!(reads >= 4, "data moved via one-sided reads (saw {reads})");
    // Registration RPCs are bounded by the number of fault batches, not
    // bytes: far fewer than a per-page-RPC design would need.
    assert!(
        rpcs <= 8,
        "home CPU touched {rpcs} times for 4 faulted pages"
    );
}

/// The MRSW protocol on a memory-tiered cluster: the per-node budget
/// sits below node 0's partition of the DSM, so the `lt_malloc` that
/// creates that partition evicts its pages to swap nodes before it
/// returns, and all the acquire/write/release/read traffic
/// transparently follows the chunks. The counting workload must still
/// lose nothing, and the tiering machinery must actually have engaged.
#[test]
fn concurrent_cells_lose_nothing_under_memory_budget() {
    use lite::LiteConfig;
    use rnic::IbConfig;

    let config = LiteConfig {
        // Node 0 masters ~1/3 of an 8-page DSM (plus DSM metadata);
        // 4 KB keeps it permanently over budget.
        mem_budget_bytes: 4096,
        max_lmr_chunk: 4096,
        ..LiteConfig::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(3), config).unwrap();
    let dsm = DsmCluster::create(&cluster, (8 * PAGE) as u64).unwrap();
    let per_node = 25;
    let mut joins = Vec::new();
    for node in 0..3usize {
        let dsm = Arc::clone(&dsm);
        joins.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(100 + node as u64);
            let mut h = dsm.handle(node).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..per_node {
                let cell = rng.gen_range(0..16u64) * 8;
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
    let mut h = dsm.handle(1).unwrap();
    let mut ctx = Ctx::new();
    let mut total = 0u64;
    for cell in 0..16u64 {
        let mut b = [0u8; 8];
        h.read(&mut ctx, cell * 8, &mut b).unwrap();
        total += u64::from_le_bytes(b);
    }
    assert_eq!(
        total as usize,
        3 * per_node,
        "increments lost under eviction"
    );
    let evictions: u64 = (0..3).map(|n| cluster.kernel(n).mm_stats().evictions).sum();
    assert!(evictions > 0, "budget never forced eviction");
}

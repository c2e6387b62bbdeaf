//! End-to-end tests of the memory-tiering subsystem (`lite::mm`):
//! budget-pressure eviction, explicit migration requests, fault-driven
//! fetch-back, transparency of the API layer across migrations, and the
//! ablation (budget 0 leaves every gauge at zero and behavior
//! unchanged).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite::mm::{MmRequest, FETCH_BACK_FAULTS};
use lite::{LiteCluster, LiteConfig, Perm};
use rnic::IbConfig;
use simnet::Ctx;

fn tiered_cluster(nodes: usize, budget: u64) -> Arc<LiteCluster> {
    let config = LiteConfig {
        mem_budget_bytes: budget,
        max_lmr_chunk: 8 * 1024,
        ..LiteConfig::default()
    };
    LiteCluster::start_with(IbConfig::with_nodes(nodes), config).unwrap()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// A written working set is evicted to swap nodes by the `lt_malloc`
/// that takes the node over its budget, before that call returns, and
/// every byte survives the trip: reads through the original (now stale)
/// handle transparently refresh and follow the chunks to their new
/// hosts.
#[test]
fn pressure_eviction_keeps_data_intact() {
    let budget = 48 * 1024u64;
    let total = 48 * 1024usize;
    let cluster = tiered_cluster(3, budget);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, total as u64, "mm.pressure", Perm::RW)
        .unwrap();
    let data = pattern(total, 7);
    for (i, slice) in data.chunks(16 * 1024).enumerate() {
        h.lt_write(&mut ctx, lh, (i * 16 * 1024) as u64, slice)
            .unwrap();
    }
    let kernel = cluster.kernel(0);
    assert_eq!(kernel.mm_stats().evictions, 0, "evicted within budget");

    // 80 KB more: the written LMR is the coldest, so it goes first.
    h.lt_malloc(&mut ctx, 0, 80 * 1024, "mm.pressure.more", Perm::RW)
        .unwrap();
    let stats = kernel.mm_stats();
    assert!(
        stats.evictions >= (total / (8 * 1024)) as u64 && stats.resident_bytes <= budget,
        "the malloc over budget did not relieve it: {stats:?}"
    );
    assert!(stats.enabled);
    assert!(
        stats.evicted_bytes > 0,
        "no bytes accounted remote: {stats:?}"
    );
    assert!(stats.evicted_chunks > 0);

    // Everything reads back intact through the pre-eviction handle.
    let mut buf = vec![0u8; total];
    for (i, slice) in buf.chunks_mut(16 * 1024).enumerate() {
        h.lt_read(&mut ctx, lh, (i * 16 * 1024) as u64, slice)
            .unwrap();
    }
    assert_eq!(buf, data, "data corrupted across eviction");

    // A fresh mapper on another node sees the same bytes.
    let mut remote = cluster.attach(1).unwrap();
    let rlh = remote.lt_map(&mut ctx, "mm.pressure").unwrap();
    let mut rbuf = vec![0u8; 4096];
    remote.lt_read(&mut ctx, rlh, 40 * 1024, &mut rbuf).unwrap();
    assert_eq!(&rbuf[..], &data[40 * 1024..44 * 1024]);
}

/// An explicit `MmRequest::Evict` migrates every chunk of one LMR, and
/// the stale handle keeps working for both reads and writes — writes
/// land on the remote copy, visible to other mappers.
#[test]
fn explicit_evict_is_transparent_to_stale_handles() {
    let total = 32 * 1024usize;
    // Budget far above the working set: nothing evicts on its own.
    let cluster = tiered_cluster(2, 4 << 20);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, total as u64, "mm.explicit", Perm::RW)
        .unwrap();
    let data = pattern(total, 3);
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    let id = h.lh_id(lh).unwrap();

    let kernel = cluster.kernel(0);
    let before = kernel.mm_stats();
    assert_eq!(before.evictions, 0, "unexpected background eviction");
    kernel.mm().request(MmRequest::Evict {
        idx: id.idx,
        off: u64::MAX,
    });
    assert!(
        kernel.mm_stats().evicted_chunks >= total / (8 * 1024),
        "explicit evict did not complete: {:?}",
        kernel.mm_stats()
    );

    // Read through the stale handle: transparently refreshed.
    let mut buf = vec![0u8; total];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(buf, data);

    // Write through it too; a fresh mapper on node 1 must see the new
    // bytes at the chunk the write touched.
    let update = pattern(4096, 99);
    h.lt_write(&mut ctx, lh, 10 * 1024, &update).unwrap();
    let mut remote = cluster.attach(1).unwrap();
    let rlh = remote.lt_map(&mut ctx, "mm.explicit").unwrap();
    let mut rbuf = vec![0u8; 4096];
    remote.lt_read(&mut ctx, rlh, 10 * 1024, &mut rbuf).unwrap();
    assert_eq!(rbuf, update);

    // Atomics redirect as well: the counter lives wherever the chunk is.
    let v0 = h.lt_fetch_add(&mut ctx, lh, 16, 5).unwrap();
    let v1 = remote.lt_fetch_add(&mut ctx, rlh, 16, 1).unwrap();
    assert_eq!(v1, v0 + 5);
}

/// Repeated remote map-faults on an evicted LMR pull its chunks home:
/// the fetch-back path restores residency and the data.
#[test]
fn map_faults_pull_chunks_home() {
    let total = 16 * 1024usize;
    let cluster = tiered_cluster(2, 4 << 20);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, total as u64, "mm.faults", Perm::RW)
        .unwrap();
    let data = pattern(total, 42);
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    let id = h.lh_id(lh).unwrap();

    let kernel = cluster.kernel(0);
    kernel.mm().request(MmRequest::Evict {
        idx: id.idx,
        off: u64::MAX,
    });
    assert!(
        kernel.mm_stats().evicted_chunks > 0,
        "evict did not complete: {:?}",
        kernel.mm_stats()
    );

    // Each lt_map re-fetches the record from the master and counts as a
    // remote fault there (extents point away from home). The map whose
    // fault crosses the threshold runs the fetch-back before it returns.
    let mut remote = cluster.attach(1).unwrap();
    for _ in 1..FETCH_BACK_FAULTS {
        remote.lt_map(&mut ctx, "mm.faults").unwrap();
    }
    assert_eq!(kernel.mm_stats().fetch_backs, 0, "fetched back early");
    remote.lt_map(&mut ctx, "mm.faults").unwrap();
    let stats = kernel.mm_stats();
    assert!(
        stats.fetch_backs > 0 && stats.evicted_chunks == 0,
        "fetch-back never fired: {stats:?}"
    );
    assert_eq!(stats.evicted_bytes, 0, "still remote: {stats:?}");
    assert!(stats.resident_bytes >= total as u64);

    // Data intact after the round trip, from both nodes.
    let mut buf = vec![0u8; total];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
    let rlh = remote.lt_map(&mut ctx, "mm.faults").unwrap();
    let mut rbuf = vec![0u8; total];
    remote.lt_read(&mut ctx, rlh, 0, &mut rbuf).unwrap();
    assert_eq!(rbuf, data);
}

/// A fetch-back that does not fit runs no migrator: an evicted LMR whose
/// map-faults pass the threshold while the node sits at its budget stays
/// where it is, and the maps that fault on it run nothing, until a free
/// makes room and the next map fetches it back.
#[test]
fn a_fetch_back_without_headroom_runs_no_migrator() {
    let total = 16 * 1024u64;
    let cluster = tiered_cluster(2, total);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, total, "mm.futile", Perm::RW)
        .unwrap();
    let id = h.lh_id(lh).unwrap();
    let kernel = cluster.kernel(0);
    kernel.mm().request(MmRequest::Evict {
        idx: id.idx,
        off: u64::MAX,
    });
    let filler = h
        .lt_malloc(&mut ctx, 0, total, "mm.filler", Perm::RW)
        .unwrap();
    let stats = kernel.mm_stats();
    assert_eq!((stats.evicted_bytes, stats.resident_bytes), (total, total));
    let runs = stats.migrator_runs;

    let mut remote = cluster.attach(1).unwrap();
    for _ in 0..FETCH_BACK_FAULTS + 5 {
        remote.lt_map(&mut ctx, "mm.futile").unwrap();
    }
    let stats = kernel.mm_stats();
    assert_eq!(stats.migrator_runs, runs, "futile runs: {stats:?}");
    assert_eq!((stats.fetch_backs, stats.evicted_bytes), (0, total));

    h.lt_free(&mut ctx, filler).unwrap();
    remote.lt_map(&mut ctx, "mm.futile").unwrap();
    let stats = kernel.mm_stats();
    assert_eq!(stats.evicted_bytes, 0, "not fetched back: {stats:?}");
    assert!(stats.migrator_runs > runs);
}

/// Concurrent writers and readers make progress while their LMR churns
/// between hosts — the pin/retry fencing never loses an acknowledged
/// write. The main thread moves the chunks out and back with explicit
/// requests while the writers run.
#[test]
fn concurrent_access_survives_live_migration() {
    let cluster = tiered_cluster(3, 16 * 1024);
    let id = {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h
            .lt_malloc(&mut ctx, 0, 64 * 1024, "mm.churn", Perm::RW)
            .unwrap();
        h.lh_id(lh).unwrap()
    };
    let moved = || {
        let s = cluster.kernel(0).mm_stats();
        s.evictions + s.fetch_backs
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for t in 0..2usize {
            let (cluster, moved) = (&cluster, &moved);
            writers.push(scope.spawn(move || {
                let mut h = cluster.attach(t).unwrap();
                let mut ctx = Ctx::new();
                let lh = h.lt_map(&mut ctx, "mm.churn").unwrap();
                // At least 150 rounds, and on until a migration has ended
                // since this writer's first one, within ten seconds.
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut first = None;
                for i in 0u32.. {
                    let churned = first.is_some_and(|f| moved() > f);
                    if i >= 150 && (churned || Instant::now() > deadline) {
                        return churned;
                    }
                    let off = (t * 32 * 1024) as u64 + u64::from(i % 64) * 256;
                    let tag = [(t as u8) << 4 | (i % 16) as u8; 64];
                    h.lt_write(&mut ctx, lh, off, &tag).unwrap();
                    first.get_or_insert_with(moved);
                    let mut back = [0u8; 64];
                    h.lt_read(&mut ctx, lh, off, &mut back).unwrap();
                    assert_eq!(back, tag, "writer {t} lost write {i}");
                }
                unreachable!()
            }));
        }
        let mm = cluster.kernel(0).mm();
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            mm.request(MmRequest::FetchBack { idx: id.idx });
            mm.request(MmRequest::Evict {
                idx: id.idx,
                off: u64::MAX,
            });
            if writers.iter().all(|w| w.is_finished()) {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        for w in writers {
            assert!(
                w.join().unwrap(),
                "no migration ended under a writer: {:?}",
                cluster.kernel(0).mm_stats()
            );
        }
    });
}

/// Budget 0 disables tiering entirely: no migrator, every gauge stays
/// zero, explicit requests are no-ops, and the data path behaves exactly
/// as before the subsystem existed.
#[test]
fn ablation_budget_zero_is_inert() {
    let cluster = tiered_cluster(2, 0);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, 64 * 1024, "mm.off", Perm::RW)
        .unwrap();
    let data = pattern(64 * 1024, 11);
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();

    let kernel = cluster.kernel(0);
    let id = h.lh_id(lh).unwrap();
    kernel.mm().request(MmRequest::Evict {
        idx: id.idx,
        off: u64::MAX,
    });

    let stats = kernel.mm_stats();
    assert!(!stats.enabled);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.fetch_backs, 0);
    assert_eq!(stats.evicted_bytes, 0);
    assert_eq!(stats.redirects, 0);

    let mut buf = vec![0u8; 64 * 1024];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
}

/// A scripted migration — four 8 KiB chunks pushed out to the swap node,
/// then pulled home — costs, in virtual time, exactly what it cost
/// before `lite::mm` had one migration body (measured at f148b75): the
/// push is `Op::write` at `Priority::Low`, the pull `Op::read` at
/// `Priority::High`, and neither direction gained or lost a round trip.
#[test]
fn migration_costs_what_it_cost() {
    let total = 32 * 1024usize;
    let cluster = tiered_cluster(2, 4 << 20);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, total as u64, "mm.cost", Perm::RW)
        .unwrap();
    let data = pattern(total, 5);
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    let id = h.lh_id(lh).unwrap();

    let kernel = cluster.kernel(0);
    kernel.mm().request(MmRequest::Evict {
        idx: id.idx,
        off: u64::MAX,
    });
    assert_eq!(kernel.mm_stats().evictions, 4, "evict did not complete");
    kernel.mm().request(MmRequest::FetchBack { idx: id.idx });
    assert_eq!(kernel.mm_stats().fetch_backs, 4, "fetch-back did not complete");

    let stats = kernel.lt_stats();
    let mm = &stats.mm;
    assert_eq!((mm.evictions, mm.fetch_backs), (4, 4));
    assert_eq!(mm.resident_bytes, total as u64);
    assert_eq!(mm.evicted_bytes, 0);
    assert_eq!(cluster.kernel(1).mm_stats().hosted_bytes, 0);
    let spread = |l: &lite::LatencySummary| (l.count, l.p0, l.p50, l.p90, l.p99, l.p999, l.p100);
    assert_eq!(
        spread(&mm.fetch_back_lat),
        (4, 7_846, 7_846, 7_846, 7_846, 7_846, 7_846)
    );
    let push = stats
        .class(lite::OpClass::Write, lite::Priority::Low)
        .expect("eviction pushes at low priority");
    assert_eq!((push.count, push.p0, push.p100), (4, 3_911, 5_311));
    let pull = stats
        .class(lite::OpClass::Read, lite::Priority::High)
        .expect("fetch-back pulls at high priority");
    assert_eq!(spread(pull), (4, 3_911, 3_911, 3_911, 3_911, 3_911, 3_911));

    let mut buf = vec![0u8; total];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(buf, data, "data corrupted across the round trip");
}

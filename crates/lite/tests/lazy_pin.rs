//! End-to-end tests of pin-free on-demand registration
//! (`LiteConfig::lazy_pinning`): O(1) registration latency, first-touch
//! fault-in at the datapath, the background unpinner, and the
//! Relocated-retry regression for atomics racing a concurrent eviction.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite::mm::{MmRequest, EPOCH_NS};
use lite::{LiteCluster, LiteConfig, Perm};
use rnic::IbConfig;
use simnet::Ctx;

const MB: u64 = 1 << 20;

fn cluster_with(nodes: usize, lazy: bool, budget: u64) -> Arc<LiteCluster> {
    let config = LiteConfig {
        lazy_pinning: lazy,
        mem_budget_bytes: budget,
        ..LiteConfig::default()
    };
    LiteCluster::start_with(IbConfig::with_nodes(nodes), config).unwrap()
}

/// Virtual latency of one `lt_malloc` of `size` bytes on a fresh
/// cluster (fresh so poller-clock history cannot skew the measurement).
fn reg_latency(lazy: bool, size: u64, name: &str) -> u64 {
    let cluster = cluster_with(2, lazy, 0);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t0 = ctx.now();
    h.lt_malloc(&mut ctx, 0, size, name, Perm::RW).unwrap();
    ctx.now() - t0
}

/// The Fig 8 claim, in-test: eager registration latency scales with the
/// LMR size (per-page get_user_pages), lazy stays flat.
#[test]
fn lazy_registration_latency_is_flat_across_sizes() {
    let lazy_small = reg_latency(true, 16 * MB, "lazy.16m");
    let lazy_large = reg_latency(true, 256 * MB, "lazy.256m");
    assert!(
        lazy_large < 2 * lazy_small,
        "lazy registration not flat: 16MB={lazy_small}ns 256MB={lazy_large}ns"
    );

    let eager_small = reg_latency(false, 16 * MB, "eager.16m");
    let eager_large = reg_latency(false, 256 * MB, "eager.256m");
    assert!(
        eager_large > 8 * eager_small,
        "eager registration should scale with pages: 16MB={eager_small}ns 256MB={eager_large}ns"
    );
    assert!(
        eager_large > 10 * lazy_large,
        "eager 256MB ({eager_large}ns) should dwarf lazy 256MB ({lazy_large}ns)"
    );
}

/// Lazy mode pins nothing at registration; the first access faults in
/// and pins only the pages it covers, and repeat accesses to the same
/// range are fault-free (and cheaper in virtual time). The test's clock
/// stays inside the first unpin epoch, so the unpinner never runs here
/// (`background_unpinner_releases_cold_pages_and_refault_restores`
/// covers it).
#[test]
fn first_touch_pins_only_the_touched_pages() {
    let cluster = cluster_with(2, true, 0);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    h.lt_malloc(&mut ctx, 0, MB, "lazy.touch", Perm::RW)
        .unwrap();
    let kernel = cluster.kernel(0);
    let s0 = kernel.mm_stats();
    assert!(s0.lazy);
    assert_eq!(s0.pinned_pages, 0, "registration must not pin: {s0:?}");

    // Touch 64 KB out of the 1 MB region.
    let lh = h.lt_map(&mut ctx, "lazy.touch").unwrap();
    let data = vec![0xABu8; 64 * 1024];
    let t0 = ctx.now();
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    let cold = ctx.now() - t0;
    let s1 = kernel.mm_stats();
    assert!(
        s1.first_touch_faults >= 16,
        "64KB touch should fault ≥16 pages: {s1:?}"
    );
    assert!(
        s1.pinned_pages >= 16 && s1.pinned_pages < 64,
        "only the touched pages pin, not the whole LMR: {s1:?}"
    );

    // Steady state: same range, no new faults, cheaper access.
    let t0 = ctx.now();
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    let warm = ctx.now() - t0;
    let s2 = kernel.mm_stats();
    assert_eq!(
        s2.first_touch_faults, s1.first_touch_faults,
        "warm access refaulted: {s2:?}"
    );
    assert!(
        warm < cold,
        "warm access ({warm}ns) should beat the faulting one ({cold}ns)"
    );

    // The data survives the fault-in path.
    let mut buf = vec![0u8; 64 * 1024];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert!(ctx.now() < EPOCH_NS, "the test left the first epoch");
}

/// The unpinner demotes segments that go cold for a full epoch: the
/// first touch of node 0 in a later epoch releases their pins, and the
/// next access faults them back in with the bytes intact.
#[test]
fn background_unpinner_releases_cold_pages_and_refault_restores() {
    let cluster = cluster_with(2, true, 0);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, 256 * 1024, "lazy.cold", Perm::RW)
        .unwrap();
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    let kernel = cluster.kernel(0);
    let touched = kernel.mm_stats();
    assert!(touched.pinned_pages >= 16, "write should pin: {touched:?}");

    // Go idle for two epochs, then touch node 0 from node 1 at memory
    // node 0 does not track (an LMR node 1 masters): the touch that
    // advances the epoch reaps the cold pins.
    let mut peer = cluster.attach(1).unwrap();
    let tick = peer
        .lt_malloc(&mut ctx, 0, 4096, "lazy.tick", Perm::RW)
        .unwrap();
    ctx.wait_until(ctx.now() + 2 * EPOCH_NS);
    peer.lt_write(&mut ctx, tick, 0, &[1; 8]).unwrap();
    let s = kernel.mm_stats();
    assert!(
        s.bg_unpins >= 16 && s.pinned_pages == 0,
        "the unpinner never reaped cold pages: {s:?}"
    );

    // Refault: the read faults the pages back in, data intact.
    let faults_before = kernel.mm_stats().first_touch_faults;
    let mut buf = vec![0u8; 64 * 1024];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(buf, data, "data corrupted across unpin/refault");
    let s = kernel.mm_stats();
    assert!(
        s.first_touch_faults > faults_before,
        "read of an Unpinned segment must refault: {s:?}"
    );
    assert!(s.pinned_pages >= 16, "refault must repin: {s:?}");
}

/// Regression (pin-fencing on Relocated retries): a stream of atomics
/// racing explicit evictions/fetch-backs of their chunk must apply each
/// op exactly once — the pin is re-acquired against the refreshed
/// mapping after every relocation, never the stale piece list.
#[test]
fn atomics_survive_concurrent_eviction() {
    // Lazy + budget: eviction can claim segments from the Unpinned tier.
    let cluster = cluster_with(3, true, 4 << 20);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, 32 * 1024, "lazy.atomic", Perm::RW)
        .unwrap();
    let id = h.lh_id(lh).unwrap();
    let kernel = cluster.kernel(0);

    // Churn thread: bounce the LMR's chunks out and back while the
    // atomics run.
    let churn_kernel = Arc::clone(kernel);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let churn = std::thread::spawn(move || {
        while !stop2.load(std::sync::atomic::Ordering::Acquire) {
            churn_kernel.mm().request(MmRequest::Evict {
                idx: id.idx,
                off: u64::MAX,
            });
            std::thread::sleep(Duration::from_millis(2));
            churn_kernel
                .mm()
                .request(MmRequest::FetchBack { idx: id.idx });
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    // An op that loses to a migration waits it out and retries (`heal`),
    // and only a migration outlasting `op_timeout` fails it (`Timeout`).
    // Pins are taken before any side effect, so a retried op applies once.
    fn healed<T>(op: impl FnOnce() -> lite::LiteResult<T>) -> T {
        op().unwrap_or_else(|e| panic!("atomic failed under churn: {e:?}"))
    }

    // At least 200 adds and 50 swaps, and on until the churn thread has
    // migrated something under them (an optimised build finishes the
    // floor before its first eviction lands), within ten seconds.
    const ADDS: u64 = 200;
    const SWAPS: u64 = 50;
    let deadline = Instant::now() + Duration::from_secs(10);
    let churned = || kernel.mm_stats().evictions > 0;
    let mut prev_sum = 0u64;
    for i in 0u64.. {
        if i >= ADDS && (churned() || Instant::now() > deadline) {
            break;
        }
        let before = healed(|| h.lt_fetch_add(&mut ctx, lh, 16, 1));
        assert_eq!(before, i, "fetch-add lost or double-applied at {i}");
        prev_sum = before + 1;
    }
    // CAS chain: each step must see exactly the previous value. Its floor
    // runs with evictions already landing.
    for i in 0..SWAPS {
        let prev = healed(|| h.lt_test_set(&mut ctx, lh, 24, i, i + 1));
        assert_eq!(prev, i, "test-set saw a torn value at {i}");
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    churn.join().unwrap();

    // Final word agrees from a fresh mapper on another node.
    let mut remote = cluster.attach(1).unwrap();
    let rlh = remote.lt_map(&mut ctx, "lazy.atomic").unwrap();
    let mut word = [0u8; 8];
    remote.lt_read(&mut ctx, rlh, 16, &mut word).unwrap();
    assert_eq!(u64::from_le_bytes(word), prev_sum);
    let stats = kernel.mm_stats();
    assert!(
        stats.evictions > 0,
        "churn never actually migrated — test exercised nothing: {stats:?}"
    );
}

/// Both modes expose the registration-latency histogram, and the mm /
/// verify suites' invariants hold with lazy pinning on: a full
/// write-evict-read round trip stays intact.
#[test]
fn lazy_mode_reports_gauges_and_survives_eviction_roundtrip() {
    let cluster = cluster_with(3, true, 16 * 1024);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, 16 * 1024, "lazy.roundtrip", Perm::RW)
        .unwrap();
    let data: Vec<u8> = (0..16 * 1024).map(|i| (i * 7 % 253) as u8).collect();
    for (i, slice) in data.chunks(4 * 1024).enumerate() {
        h.lt_write(&mut ctx, lh, (i * 4 * 1024) as u64, slice)
            .unwrap();
    }
    let kernel = cluster.kernel(0);
    assert!(kernel.mm_stats().reg_lat.count >= 1, "reg_lat not recorded");
    // 48 KB more against a 16 KB budget: the malloc evicts the written
    // LMR, the coldest, before it returns.
    h.lt_malloc(&mut ctx, 0, 48 * 1024, "lazy.roundtrip.more", Perm::RW)
        .unwrap();
    assert!(
        kernel.mm_stats().evictions > 0,
        "no eviction under pressure in lazy mode: {:?}",
        kernel.mm_stats()
    );
    let mut buf = vec![0u8; 16 * 1024];
    for (i, slice) in buf.chunks_mut(4 * 1024).enumerate() {
        h.lt_read(&mut ctx, lh, (i * 4 * 1024) as u64, slice)
            .unwrap();
    }
    assert_eq!(buf, data, "data corrupted across lazy-mode eviction");
}

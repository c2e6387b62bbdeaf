//! Chaos acceptance test: a seeded fault plan — random drops, a QP
//! break, and a whole-node crash with a delayed restart — runs under a
//! mixed workload (one-sided reads/writes, RPC, and a full MapReduce
//! job) and everything still completes with correct results. A second
//! scenario turns the kernel recovery layer off and shows the same
//! class of fault surfacing, proving recovery is load-bearing rather
//! than decorative.

use std::sync::Arc;
use std::time::Duration;

use lite::mm::MmRequest;
use lite::{EventKind, LiteCluster, LiteConfig, Perm, USER_FUNC_MIN};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

/// The full stack survives drops + a QP break + a crash/restart of a
/// worker node, deterministically scheduled on the fabric op counter.
#[test]
fn chaos_workload_completes_under_seeded_faults() {
    const FN_ECHO: u8 = USER_FUNC_MIN + 9;
    let config = LiteConfig {
        // Short deadlines so failover paths run quickly under faults.
        op_timeout: Duration::from_millis(400),
        // Sample op lifecycles sparsely but keep a roomy trace ring:
        // error events (retried/reconnected/failed) are recorded
        // unsampled, and the assertions below need them all to survive.
        stats_sample_rate: 1_000,
        trace_ring_slots: 1 << 16,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(4), config).unwrap();

    // Node 0 is the master / job tracker and is never crashed; node 2
    // (a MapReduce worker) dies mid-run and comes back.
    cluster.fabric().install_fault_plan(
        FaultPlan::seeded(2017)
            .with(FaultRule::DropWr {
                src: None,
                dst: None,
                prob: 0.02,
                max_drops: 100,
            })
            .with(FaultRule::BreakQp {
                src: 0,
                dst: 1,
                at_op: 50,
            })
            .with(FaultRule::CrashNode {
                node: 2,
                at_op: 300,
                restart_after_ops: 600,
            }),
    );

    // RPC echo server on node 3 (no faults target it directly; it still
    // sees dropped WRs, which the datapath must absorb).
    cluster.attach(3).unwrap().register_rpc(FN_ECHO).unwrap();
    let rpc_calls = 100usize;
    let server = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(3).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..rpc_calls {
                let call = h.lt_recv_rpc(&mut ctx, FN_ECHO).unwrap();
                let out: Vec<u8> = call.input.iter().rev().copied().collect();
                h.lt_reply_rpc(&mut ctx, &call, &out).unwrap();
            }
        })
    };

    // Raw one-sided traffic 0 → 1: crosses the QP that the plan breaks,
    // and keeps the fabric op counter moving so the scheduled crash and
    // restart are always reached.
    let raw = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            let lh = h
                .lt_malloc(&mut ctx, 1, 1 << 16, "chaos.raw", Perm::RW)
                .unwrap();
            for i in 0..300u64 {
                h.lt_write(&mut ctx, lh, (i % 512) * 8, &i.to_le_bytes())
                    .unwrap();
                let mut buf = [0u8; 8];
                h.lt_read(&mut ctx, lh, (i % 512) * 8, &mut buf).unwrap();
                assert_eq!(u64::from_le_bytes(buf), i);
            }
        })
    };

    // RPC client on node 0.
    let rpc = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            for i in 0..rpc_calls {
                let input = [i as u8, (i >> 8) as u8, 0xab];
                let reply = h.lt_rpc(&mut ctx, 3, FN_ECHO, &input, 64).unwrap();
                assert_eq!(reply, vec![0xab, (i >> 8) as u8, i as u8]);
            }
        })
    };

    // The MapReduce job over workers 1..=3 — worker 2 crashes mid-run;
    // the fault-tolerant runner re-executes its tasks and the kernel
    // retry layer bridges reads from the restarting node.
    let text = lite_mr::Text::generate(20_000, 300, 1.0, 23);
    let mr = lite_mr::run_litemr_ft(&cluster, &text, 3, 2).unwrap();
    assert_eq!(mr.counts, lite_mr::reference_counts(&text));

    raw.join().unwrap();
    rpc.join().unwrap();
    server.join().unwrap();

    // Every planned fault actually fired...
    let fired = cluster.fabric().fault_stats();
    assert!(fired.drops > 0, "no drops fired: {fired:?}");
    assert_eq!(fired.qp_breaks, 1, "QP break must fire: {fired:?}");
    assert_eq!(fired.crashes, 1, "crash must fire: {fired:?}");
    assert_eq!(fired.restarts, 1, "restart must fire: {fired:?}");
    // ...and the recovery layer did real work to mask it.
    let totals = (0..4)
        .map(|n| cluster.kernel(n).stats())
        .fold((0u64, 0u64), |(r, q), s| {
            (r + s.retries, q + s.qp_reconnects)
        });
    assert!(totals.0 > 0, "faults fired but nothing was retried");
    assert!(totals.1 >= 1, "the broken QP was never re-established");

    // The trace ring is the recovery layer's flight recorder: error
    // events bypass sampling and pair 1:1 with the counters, so each
    // node's surviving Retried / Reconnected events must equal its
    // kernel counters exactly.
    for n in 0..4 {
        let report = cluster.kernel(n).lt_stats();
        let stats = cluster.kernel(n).stats();
        assert_eq!(
            report.trace_count(EventKind::Retried),
            stats.retries,
            "node {n}: trace-ring retry events diverge from KernelStats.retries"
        );
        assert_eq!(
            report.trace_count(EventKind::Reconnected),
            stats.qp_reconnects,
            "node {n}: trace-ring reconnect events diverge from qp_reconnects"
        );
        assert!(
            report.trace.occupancy <= report.trace.capacity,
            "node {n}: ring occupancy above capacity"
        );
    }
    cluster.fabric().clear_fault_plan();

    // Post-chaos health: the cluster still serves plain traffic.
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 2, 4096, "chaos.after", Perm::RW)
        .unwrap();
    h.lt_write(&mut ctx, lh, 0, b"healthy").unwrap();
    let mut buf = [0u8; 7];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"healthy");
}

/// The same QP-break fault with the recovery layer disabled: the broken
/// QP is never repaired, the fault reaches the application, and no
/// reconnect is attempted — recovery is what made the scenario above
/// pass.
#[test]
fn chaos_without_recovery_layer_fails() {
    let config = LiteConfig {
        retry_enabled: false,
        op_timeout: Duration::from_millis(400),
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap();
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(2017).with(FaultRule::BreakQp {
            src: 0,
            dst: 1,
            at_op: 10,
        }));

    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 16, "chaos.naked", Perm::RW)
        .unwrap();
    let mut failures = 0;
    for i in 0..40u64 {
        if h.lt_write(&mut ctx, lh, i * 8, &i.to_le_bytes()).is_err() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "without recovery, a broken QP must surface to the application"
    );
    let stats = cluster.kernel(0).stats();
    assert!(stats.ops_failed > 0);
    assert_eq!(stats.qp_reconnects, 0, "recovery disabled means no repairs");
    cluster.fabric().clear_fault_plan();
}

/// The linearizability acceptance sweep: >= 50 seeded interleavings of
/// the mixed lock / fetch-add / test-set / barrier workload, each
/// recorded and certified by the history checker. Two thirds run with
/// injected delays only (pure scheduling exploration); the rest add
/// bounded WR drops so the recovery layer's retries are part of the
/// certified schedule too.
#[test]
fn mixed_sync_workload_linearizable_across_seeds() {
    use lite::verify::{explore, run_mixed, MixedWorkload};

    let delays_only = MixedWorkload::default();
    let with_drops = MixedWorkload {
        drop_prob: 0.02,
        max_drops: 4,
        ..MixedWorkload::default()
    };

    let report = explore(0..54u64, |seed| {
        let w = if seed % 3 == 2 {
            &with_drops
        } else {
            &delays_only
        };
        run_mixed(seed, w)
    });
    // Each failing history goes to `verify-failures/seed-<seed>.json`
    // first, for offline replay with `History::check`.
    for r in report
        .reports
        .iter()
        .filter(|r| !r.outcome.is_linearizable())
    {
        let dir = std::path::Path::new("verify-failures");
        let path = dir.join(format!("seed-{}.json", r.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, r.history.to_json()));
        match written {
            Ok(()) => eprintln!("seed {}: history in {}", r.seed, path.display()),
            Err(e) => eprintln!("seed {}: cannot write {}: {e}", r.seed, path.display()),
        }
    }
    assert!(
        report.run_errors.is_empty(),
        "workload runs failed: {:?}",
        report.run_errors
    );
    assert!(
        report.all_linearizable(),
        "non-linearizable seeds: {:?}",
        report.failing_seeds()
    );
}

/// The linearizability sweep again, with memory tiering live under the
/// recorded workload: every seed runs with a budget a quarter of the
/// synchronization LMR, so its chunks are evicted to a swap node (and
/// every recorded op redirects through the migration machinery) while
/// the checker certifies the history. A third of the seeds add bounded
/// WR drops on top, racing the recovery layer's retries against
/// eviction fencing.
#[test]
fn mixed_sync_workload_linearizable_under_eviction() {
    use lite::verify::{explore, run_mixed, MixedWorkload};

    let evicting = MixedWorkload {
        mem_budget: 1024,
        ..MixedWorkload::default()
    };
    let evicting_with_drops = MixedWorkload {
        drop_prob: 0.02,
        max_drops: 4,
        ..evicting.clone()
    };

    let report = explore(0..54u64, |seed| {
        let w = if seed % 3 == 2 {
            &evicting_with_drops
        } else {
            &evicting
        };
        run_mixed(seed, w)
    });
    assert!(
        report.run_errors.is_empty(),
        "workload runs failed: {:?}",
        report.run_errors
    );
    assert!(
        report.all_linearizable(),
        "non-linearizable seeds under eviction: {:?}",
        report.failing_seeds()
    );
}

/// Eviction churn racing a swap-node crash: a tight budget and a churn
/// thread keep node 0's manager migrating chunks to nodes 1 and 2 while
/// node 2 (a swap target, possibly hosting evicted chunks) crashes and
/// later restarts, with background WR drops throughout. Acknowledged
/// writes must never be lost: every slot reads back the last value
/// whose write returned Ok, and migrations keep ending around the dead
/// node.
#[test]
fn eviction_churn_survives_swap_node_crash() {
    let config = LiteConfig {
        op_timeout: Duration::from_millis(300),
        mem_budget_bytes: 16 * 1024,
        max_lmr_chunk: 8 * 1024,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(3), config).unwrap();
    cluster.fabric().install_fault_plan(
        FaultPlan::seeded(77)
            .with(FaultRule::DropWr {
                src: None,
                dst: None,
                prob: 0.02,
                max_drops: 60,
            })
            .with(FaultRule::CrashNode {
                node: 2,
                at_op: 250,
                restart_after_ops: 500,
            }),
    );

    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // 64 KB tracked on node 0 against a 16 KB budget: ~3/4 of the
    // chunks live on swap nodes at any time.
    let lh = h
        .lt_malloc(&mut ctx, 0, 64 * 1024, "chaos.mm", Perm::RW)
        .unwrap();
    // The churn thread pulls the chunks home and pushes the written one
    // out again while the writes run.
    let idx = h.lh_id(lh).unwrap().idx;
    let mm = Arc::clone(cluster.kernel(0).mm());
    let moved = || mm.stats().evictions + mm.stats().fetch_backs;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let (mm, stop) = (Arc::clone(&mm), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                mm.request(MmRequest::FetchBack { idx });
                std::thread::sleep(Duration::from_millis(1));
                mm.request(MmRequest::Evict { idx, off: 0 });
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    // Keepalive traffic to node 1 keeps the fabric op counter moving
    // while writes to chunks on the dead node spin, so the scheduled
    // restart is always reached.
    let keep = h
        .lt_malloc(&mut ctx, 1, 4096, "chaos.mm.keepalive", Perm::RW)
        .unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut acked = [0u8; 64];
    // Run at least 400 iterations, until the scheduled restart has fired
    // AND until a migration has ended since the first write, so the
    // workload always spans the whole crash window and the eviction race.
    let mut first = None;
    let mut i = 0u32;
    loop {
        let fired = cluster.fabric().fault_stats();
        let migrated = first.is_some_and(|f| moved() > f);
        if i >= 400 && fired.restarts >= 1 && migrated {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "restart or migration never reached: {fired:?}, migrated: {migrated}"
        );
        let slot = (i % 64) as u64;
        let tag = [i as u8; 64];
        loop {
            if h.lt_write(&mut ctx, lh, slot * 64, &tag).is_ok() {
                acked[slot as usize] = i as u8;
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "write to slot {slot} never succeeded (iteration {i})"
            );
            let _ = h.lt_write(&mut ctx, keep, 0, &i.to_le_bytes());
            std::thread::sleep(Duration::from_millis(1));
        }
        first.get_or_insert_with(moved);
        let _ = h.lt_write(&mut ctx, keep, (slot % 8) * 8, &i.to_le_bytes());
        i += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churn.join().unwrap();

    let fired = cluster.fabric().fault_stats();
    assert_eq!(fired.crashes, 1, "crash must fire: {fired:?}");
    assert_eq!(fired.restarts, 1, "restart must fire: {fired:?}");
    cluster.fabric().clear_fault_plan();

    // Every slot holds the last acknowledged write, wherever its chunk
    // ended up.
    for slot in 0..64u64 {
        let mut buf = [0u8; 64];
        loop {
            if h.lt_read(&mut ctx, lh, slot * 64, &mut buf).is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "read of slot {slot} never succeeded"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            buf, [acked[slot as usize]; 64],
            "slot {slot} lost an acknowledged write"
        );
    }

    let stats = cluster.kernel(0).mm_stats();
    assert!(
        stats.evictions > 0,
        "budget never forced eviction — the race was not exercised: {stats:?}"
    );
}

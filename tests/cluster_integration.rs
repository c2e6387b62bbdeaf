//! Cross-crate integration tests: whole-stack scenarios that span the
//! substrate, the LITE layer, the baselines, and the applications.

use std::sync::Arc;

use lite::{LiteCluster, Perm, Priority, QosMode, USER_FUNC_MIN};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use simnet::Ctx;

/// A mixed workload touching every LITE API family at once, from every
/// node, concurrently.
#[test]
fn whole_stack_mixed_workload() {
    let cluster = LiteCluster::start(4).unwrap();
    const FN_SUM: u8 = USER_FUNC_MIN + 7;
    cluster.attach(3).unwrap().register_rpc(FN_SUM).unwrap();

    // RPC server on node 3: sums bytes.
    let c2 = Arc::clone(&cluster);
    let total_calls = 3 * 10;
    let server = std::thread::spawn(move || {
        let mut h = c2.attach(3).unwrap();
        let mut ctx = Ctx::new();
        for _ in 0..total_calls {
            let call = h.lt_recv_rpc(&mut ctx, FN_SUM).unwrap();
            let sum: u64 = call.input.iter().map(|&b| b as u64).sum();
            h.lt_reply_rpc(&mut ctx, &call, &sum.to_le_bytes()).unwrap();
        }
    });

    // Shared LMR + lock + per-node workers.
    let lock = {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        h.lt_malloc(&mut ctx, 2, 1 << 16, "shared", Perm::RW)
            .unwrap();
        h.lt_create_lock(&mut ctx).unwrap()
    };
    let mut joins = Vec::new();
    for node in 0..3 {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(node).unwrap();
            let mut ctx = Ctx::new();
            let lh = h.lt_map(&mut ctx, "shared").unwrap();
            for i in 0..10u8 {
                // One-sided write to a private slice.
                let data = [node as u8 + 1; 64];
                h.lt_write(&mut ctx, lh, (node * 4096) as u64 + i as u64 * 64, &data)
                    .unwrap();
                // Locked read-modify-write of a shared cell.
                h.lt_lock(&mut ctx, lock).unwrap();
                let v = h.lt_fetch_add(&mut ctx, lh, 60_000, 1).unwrap();
                assert!(v < 30);
                h.lt_unlock(&mut ctx, lock).unwrap();
                // RPC with a payload that encodes node+i.
                let reply = h
                    .lt_rpc(&mut ctx, 3, FN_SUM, &[node as u8, i, 1], 64)
                    .unwrap();
                let sum = u64::from_le_bytes(reply.try_into().unwrap());
                assert_eq!(sum, node as u64 + i as u64 + 1);
            }
            h.lt_barrier(&mut ctx, 4_242, 3).unwrap();
            ctx.now()
        }));
    }
    for j in joins {
        assert!(j.join().unwrap() > 0);
    }
    server.join().unwrap();

    // Verify everything landed.
    let mut h = cluster.attach(1).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_map(&mut ctx, "shared").unwrap();
    for node in 0..3u64 {
        let mut buf = [0u8; 64];
        h.lt_read(&mut ctx, lh, node * 4096 + 9 * 64, &mut buf)
            .unwrap();
        assert!(buf.iter().all(|&b| b == node as u8 + 1));
    }
    assert_eq!(h.lt_fetch_add(&mut ctx, lh, 60_000, 0).unwrap(), 30);
}

/// The sharing claim of §6.1, checked against the raw NIC: LITE's QP
/// count is K per *used* peer pair no matter how many threads run —
/// K×(N-1) once a node has talked to everyone — while a per-thread
/// verbs design would need 2×N×T. Pairs are wired lazily on first use
/// (incremental membership, DESIGN.md §12), so six threads hammering
/// all three peers still leave exactly 2 × 3 = 6 QPs on node 0.
#[test]
fn qp_sharing_beats_per_thread_connections() {
    let cluster = LiteCluster::start(4).unwrap();
    let threads = 6;
    let mut joins = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            // Spread the LMRs across every peer so node 0 wires all
            // three pairs, from multiple threads at once.
            let target = 1 + t % 3;
            let lh = h
                .lt_malloc(&mut ctx, target, 4096, &format!("qs{t}"), Perm::RW)
                .unwrap();
            h.lt_write(&mut ctx, lh, 0, b"x").unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // Default K = 2, all 3 peers used: 2 × 3 = 6 QPs on node 0 — not
    // 2 × 4 × 6.
    assert_eq!(cluster.fabric().nic(0).stats().live_qps, 6);
}

/// Failure injection through the whole stack: a down node makes LITE ops
/// time out with typed errors; recovery restores service. (A short
/// deadline keeps the test quick — the retry layer otherwise spends the
/// full default `op_timeout` re-posting towards the dead node.)
#[test]
fn node_failure_and_recovery() {
    let cluster = LiteCluster::start_with(
        rnic::IbConfig::with_nodes(3),
        lite::LiteConfig {
            op_timeout: std::time::Duration::from_millis(200),
            ..Default::default()
        },
    )
    .unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "flaky", Perm::RW).unwrap();
    h.lt_write(&mut ctx, lh, 0, b"before").unwrap();

    cluster.fabric().set_down(1, true);
    assert_eq!(
        h.lt_write(&mut ctx, lh, 0, b"during"),
        Err(lite::LiteError::Timeout)
    );
    // RPC to the dead node also fails in bounded time (ring write fails).
    let err = h
        .lt_rpc(&mut ctx, 1, USER_FUNC_MIN + 1, b"x", 64)
        .unwrap_err();
    assert!(matches!(
        err,
        lite::LiteError::Timeout | lite::LiteError::UnknownRpc { .. } | lite::LiteError::Verbs(_)
    ));

    cluster.fabric().set_down(1, false);
    h.lt_write(&mut ctx, lh, 0, b"after!").unwrap();
    let mut buf = [0u8; 6];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"after!");
}

/// End-to-end QoS behaviour: HW-Sep's static partition caps each class
/// at its share — even running alone (the rigidity §6.2 demonstrates) —
/// and the high-priority share is the larger one.
#[test]
fn qos_protects_high_priority_bandwidth() {
    let cluster = LiteCluster::start(2).unwrap();
    cluster.set_qos_mode(QosMode::HwSep);
    {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        h.lt_malloc(&mut ctx, 1, 8 << 20, "tgt", Perm::RW).unwrap();
    }
    let run = |prio: Priority, ops: usize| {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            h.set_priority(prio);
            let mut ctx = Ctx::new();
            let lh = h.lt_map(&mut ctx, "tgt").unwrap();
            let start = ctx.now();
            let buf = vec![0u8; 64 * 1024];
            for i in 0..ops {
                h.lt_write(&mut ctx, lh, ((i * 65_536) % (4 << 20)) as u64, &buf)
                    .unwrap();
            }
            (ops * 65_536) as f64 / (ctx.now() - start) as f64
        })
    };
    // Measure the classes sequentially: the partition is static, so each
    // class's ceiling is visible even alone.
    let hi_gbps = run(Priority::High, 60).join().unwrap();
    let lo_gbps = run(Priority::Low, 60).join().unwrap();
    assert!(
        hi_gbps > lo_gbps * 1.5,
        "HW-Sep must favor high priority: hi {hi_gbps:.2} lo {lo_gbps:.2}"
    );
}

/// All four applications running *on the same cluster*, concurrently —
/// the resource-sharing story of §6.
#[test]
fn applications_share_one_cluster() {
    let cluster = LiteCluster::start(4).unwrap();

    // LITE-Log on nodes 0→3.
    let log_thread = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            let log = lite_log::LiteLog::create(&mut h, &mut ctx, 3, "shlog", 1 << 20).unwrap();
            for i in 0..40u32 {
                log.commit(&mut h, &mut ctx, &[&i.to_le_bytes()]).unwrap();
            }
            log.committed(&mut h, &mut ctx).unwrap()
        })
    };

    // LITE-MR on the same cluster (nodes 1..=3 as workers).
    let text = lite_mr::Text::generate(12_000, 200, 1.0, 99);
    let mr = lite_mr::run_litemr(&cluster, &text, 3, 2).unwrap();
    assert_eq!(mr.counts, lite_mr::reference_counts(&text));

    // LITE-Graph, also sharing the cluster.
    let g = lite_graph::Graph::power_law(300, 2_000, 0.9, 5);
    let cfg = lite_graph::PagerankConfig { max_iters: 4 };
    let pr = lite_graph::run_lite(&cluster, &g, 4, 2, &cfg).unwrap();
    let reference = lite_graph::run_reference(&g, &cfg);
    for (a, b) in pr.ranks.iter().zip(&reference.ranks) {
        assert!((a - b).abs() < 1e-9);
    }

    assert_eq!(log_thread.join().unwrap(), 40);
}

/// The RPC baselines deliver correct bytes under the same fabric as the
/// verbs tests.
#[test]
fn rpc_baselines_echo_correctly() {
    use rpc_baselines::{FasstClient, FasstServer, HerdClient, HerdServer};
    use std::time::Duration;
    let fabric = rnic::IbFabric::new(rnic::IbConfig::with_nodes(2));

    let herd = HerdServer::new(&fabric, 1, 2, 1024).unwrap();
    let hc = HerdClient::connect(&herd, 0, 1024).unwrap();
    let h2 = Arc::clone(&herd);
    let hs = std::thread::spawn(move || {
        let mut ctx = Ctx::new();
        for _ in 0..5 {
            h2.serve_one(
                &mut ctx,
                |req| req.iter().rev().copied().collect(),
                Duration::from_secs(5),
            )
            .unwrap();
        }
    });
    let mut ctx = Ctx::new();
    for i in 0..5u8 {
        let out = hc
            .call(&mut ctx, &[i, i + 1, i + 2], Duration::from_secs(5))
            .unwrap();
        assert_eq!(out, vec![i + 2, i + 1, i]);
    }
    hs.join().unwrap();

    let fasst = FasstServer::new(&fabric, 1, 1024).unwrap();
    let fc = FasstClient::connect(&fabric, 0, fasst.address(), 1024).unwrap();
    let f2 = Arc::clone(&fasst);
    let fs = std::thread::spawn(move || {
        let mut ctx = Ctx::new();
        for _ in 0..5 {
            f2.serve_one(&mut ctx, |req| req.to_vec(), Duration::from_secs(5))
                .unwrap();
        }
    });
    for i in 0..5u8 {
        let out = fc.call(&mut ctx, &[i; 8], Duration::from_secs(5)).unwrap();
        assert_eq!(out, vec![i; 8]);
    }
    fs.join().unwrap();
}

/// DSM and plain LITE coexist: a graph job reading DSM state while raw
/// LT ops hit the same nodes.
#[test]
fn dsm_and_lite_ops_interleave() {
    let cluster = LiteCluster::start(3).unwrap();
    let dsm = lite_dsm::DsmCluster::create(&cluster, 1 << 20).unwrap();
    let mut lite_h = cluster.attach(0).unwrap();
    let mut lctx = Ctx::new();
    let lh = lite_h
        .lt_malloc(&mut lctx, 1, 4096, "side", Perm::RW)
        .unwrap();

    let mut d = dsm.handle(0).unwrap();
    let mut dctx = Ctx::new();
    for i in 0..20u64 {
        d.acquire(&mut dctx, 0, 8).unwrap();
        d.write(&mut dctx, 0, &i.to_le_bytes()).unwrap();
        d.release(&mut dctx).unwrap();
        lite_h.lt_write(&mut lctx, lh, 0, &i.to_le_bytes()).unwrap();
    }
    let mut r = dsm.handle(2).unwrap();
    let mut rctx = Ctx::new();
    let mut buf = [0u8; 8];
    r.read(&mut rctx, 0, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 19);
}

/// Dropping a cluster frees it: its directory and every node's memory
/// manager die with it, even after traffic has wired peer pairs. The
/// directory is the only `Weak` holder, so no `Arc` cycle runs between
/// it and the kernels' managers.
#[test]
fn dropped_cluster_frees_directory_and_managers() {
    let cluster = LiteCluster::start(3).unwrap();
    {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h.lt_malloc(&mut ctx, 1, 4096, "leak", Perm::RW).unwrap();
        h.lt_write(&mut ctx, lh, 0, &[7; 64]).unwrap();
    }
    let dir = Arc::downgrade(cluster.directory());
    let mm = Arc::downgrade(cluster.kernel(0).mm());
    drop(cluster);
    assert_eq!(dir.strong_count(), 0, "the directory outlived its cluster");
    assert_eq!(
        mm.strong_count(),
        0,
        "node 0's manager outlived its cluster"
    );
}

/// The same with tiering and lazy pinning on, after migrations ran: a
/// node's migrator owns a handle on its node, and its manager holds it
/// weakly, so no kernel → manager → migrator → handle → kernel cycle
/// outlives the cluster.
#[test]
fn dropped_tiered_cluster_frees_directory_and_managers() {
    let config = lite::LiteConfig {
        mem_budget_bytes: 16 * 1024,
        lazy_pinning: true,
        max_lmr_chunk: 8 * 1024,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(rnic::IbConfig::with_nodes(3), config).unwrap();
    {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h.lt_malloc(&mut ctx, 0, 64 * 1024, "leak", Perm::RW).unwrap();
        h.lt_write(&mut ctx, lh, 0, &[7; 64]).unwrap();
        let id = h.lh_id(lh).unwrap();
        cluster
            .kernel(0)
            .mm()
            .request(lite::mm::MmRequest::FetchBack { idx: id.idx });
    }
    let stats = cluster.kernel(0).mm_stats();
    assert!(stats.evictions > 0 && stats.fetch_backs > 0, "{stats:?}");
    let dir = Arc::downgrade(cluster.directory());
    let mm = Arc::downgrade(cluster.kernel(0).mm());
    drop(cluster);
    assert_eq!(dir.strong_count(), 0, "the directory outlived its cluster");
    assert_eq!(
        mm.strong_count(),
        0,
        "node 0's manager outlived its cluster"
    );
}

/// The same after a KV service ran and stopped. Its leader and followers
/// are served functions whose handlers own handles on their own nodes:
/// the kernels hold their servers weakly, so no kernel → handler → handle
/// → kernel cycle outlives the cluster.
#[test]
fn a_stopped_kv_service_frees_its_cluster() {
    let cluster = LiteCluster::start(4).unwrap();
    {
        let spec = KvSpec::new("leak.kv", 1, &[2, 3]);
        let svc = KvService::spawn(&cluster, spec.clone());
        // The gets assert the puts' own values: the session mode that
        // promises that is read-your-writes (eventual reads may be stale).
        let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
        let mut ctx = Ctx::new();
        for i in 0..100u32 {
            c.put(&mut ctx, &i.to_le_bytes(), &[i as u8; 64]).unwrap();
        }
        for i in 0..100u32 {
            let got = c.get(&mut ctx, &i.to_le_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(&[i as u8; 64][..]));
        }
        svc.stop();
    }
    let dir = Arc::downgrade(cluster.directory());
    let mms: Vec<_> = (0..4)
        .map(|n| Arc::downgrade(cluster.kernel(n).mm()))
        .collect();
    drop(cluster);
    assert_eq!(dir.strong_count(), 0, "the directory outlived its cluster");
    for (n, mm) in mms.iter().enumerate() {
        assert_eq!(
            mm.strong_count(),
            0,
            "node {n}'s manager outlived its cluster"
        );
    }
}

/// The DSM twin of the test above: a DSM dropped without any shutdown
/// call unbinds its served functions, so nothing it left behind keeps the
/// cluster alive once the cluster is dropped.
#[test]
fn a_dropped_dsm_frees_its_cluster() {
    let cluster = LiteCluster::start(2).unwrap();
    {
        let dsm = lite_dsm::DsmCluster::create(&cluster, 1 << 16).unwrap();
        let (mut w, mut r) = (dsm.handle(0).unwrap(), dsm.handle(1).unwrap());
        let (mut wctx, mut rctx) = (Ctx::new(), Ctx::new());
        let mut buf = [0u8; 8];
        // Node 1 faults in a page homed on node 0 (a sharer registration),
        // and node 0's release invalidates it.
        r.read(&mut rctx, 0, &mut buf).unwrap();
        w.acquire(&mut wctx, 0, 8).unwrap();
        w.write(&mut wctx, 0, &7u64.to_le_bytes()).unwrap();
        w.release(&mut wctx).unwrap();
        r.read(&mut rctx, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }
    let weak = Arc::downgrade(&cluster);
    drop(cluster);
    assert!(weak.upgrade().is_none(), "the DSM kept its cluster alive");
}

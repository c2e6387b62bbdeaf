//! Fault injection against the kernel recovery layer: dropped WRs are
//! masked by retries, broken QPs are re-established transparently, dead
//! peers fail fast and revive through probes, and with recovery
//! disabled the same faults surface — proving the layer is load-bearing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite::{LiteCluster, LiteConfig, LiteError, Perm, USER_FUNC_MIN};
use rnic::{FaultPlan, FaultRule, IbConfig, VerbsError};
use simnet::Ctx;

fn cluster_with(nodes: usize, config: LiteConfig) -> Arc<LiteCluster> {
    LiteCluster::start_with(IbConfig::with_nodes(nodes), config).unwrap()
}

/// Probabilistically dropped work requests never reach the application:
/// the retry layer re-posts them (faults inject before side effects),
/// every byte lands, and the retry counter proves drops actually fired.
#[test]
fn dropped_wrs_are_masked_by_retries() {
    let cluster = cluster_with(2, LiteConfig::default());
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 16, "droppy", Perm::RW)
        .unwrap();

    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(42).with(FaultRule::DropWr {
            src: Some(0),
            dst: Some(1),
            prob: 0.3,
            max_drops: 64,
        }));
    for i in 0..100u64 {
        h.lt_write(&mut ctx, lh, i * 8, &i.to_le_bytes()).unwrap();
    }
    for i in 0..100u64 {
        let mut buf = [0u8; 8];
        h.lt_read(&mut ctx, lh, i * 8, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), i);
    }
    let fired = cluster.fabric().fault_stats();
    assert!(fired.drops > 0, "plan never fired: {fired:?}");
    let stats = cluster.kernel(0).stats();
    assert!(stats.retries >= fired.drops, "every drop costs a retry");
    assert_eq!(stats.ops_failed, 0, "no drop may surface to the app");
    cluster.fabric().clear_fault_plan();
}

/// A QP moved to the error state mid-run is torn down and re-created on
/// the shared CQs without the application noticing; the pool size is
/// restored and the reconnect counter records the repair.
#[test]
fn broken_qp_reconnects_transparently() {
    let cluster = cluster_with(2, LiteConfig::default());
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 16, "breaky", Perm::RW)
        .unwrap();
    let qps_before = cluster.fabric().nic(0).stats().live_qps;

    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(7).with(FaultRule::BreakQp {
            src: 0,
            dst: 1,
            at_op: 5,
        }));
    for i in 0..40u64 {
        h.lt_write(&mut ctx, lh, i * 8, &i.to_le_bytes()).unwrap();
    }
    let mut buf = [0u8; 8];
    h.lt_read(&mut ctx, lh, 39 * 8, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 39);

    assert_eq!(cluster.fabric().fault_stats().qp_breaks, 1);
    let reconnects: u64 = (0..2)
        .map(|n| cluster.kernel(n).stats().qp_reconnects)
        .sum();
    assert_eq!(reconnects, 1, "exactly one end repairs the pair");
    assert_eq!(
        cluster.fabric().nic(0).stats().live_qps,
        qps_before,
        "pool restored to full strength"
    );
    cluster.fabric().clear_fault_plan();
}

/// Liveness monitoring: consecutive exhausted deadlines mark the peer
/// dead, after which ops fail fast with `PeerDead` instead of burning a
/// timeout each — and a probe revives the peer once it returns.
#[test]
fn dead_peer_fails_fast_and_probes_revive_it() {
    let config = LiteConfig {
        op_timeout: Duration::from_millis(150),
        peer_dead_threshold: 2,
        ..Default::default()
    };
    let cluster = cluster_with(2, config);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "deady", Perm::RW).unwrap();

    cluster.fabric().set_down(1, true);
    // Two ops exhaust their deadlines and trip the threshold.
    assert_eq!(h.lt_write(&mut ctx, lh, 0, b"x"), Err(LiteError::Timeout));
    assert_eq!(h.lt_write(&mut ctx, lh, 0, b"x"), Err(LiteError::Timeout));
    assert_eq!(cluster.kernel(0).stats().peers_marked_dead, 1);

    // Fail-fast: once the (cheap) probe budget of a call is spent, a
    // dead-peer op returns well inside the 150 ms deadline.
    let t0 = Instant::now();
    let err = h.lt_write(&mut ctx, lh, 0, b"x").unwrap_err();
    assert_eq!(err, LiteError::PeerDead { node: 1 });
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "dead-peer op must not burn the timeout: {:?}",
        t0.elapsed()
    );

    // The node comes back; the rate-limited probe notices and the peer
    // transparently returns to service.
    cluster.fabric().set_down(1, false);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match h.lt_write(&mut ctx, lh, 0, b"back!") {
            Ok(_) => break,
            Err(LiteError::PeerDead { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected error while reviving: {e:?}"),
        }
    }
    let mut buf = [0u8; 5];
    h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"back!");
}

/// The load-bearing check: with `retry_enabled: false` the very same
/// deterministic fault that the other tests mask reaches the
/// application, and the failure counter records it.
#[test]
fn with_retries_disabled_the_same_fault_surfaces() {
    let config = LiteConfig {
        retry_enabled: false,
        ..Default::default()
    };
    let cluster = cluster_with(2, config);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "naked", Perm::RW).unwrap();

    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(42).with(FaultRule::DropWr {
            src: Some(0),
            dst: Some(1),
            prob: 1.0,
            max_drops: 1,
        }));
    assert_eq!(
        h.lt_write(&mut ctx, lh, 0, b"gone"),
        Err(LiteError::Timeout),
        "without the recovery layer a dropped WR is a user-visible fault"
    );
    let stats = cluster.kernel(0).stats();
    assert!(stats.ops_failed >= 1);
    assert_eq!(stats.retries, 0);
    // The drop budget is spent, so the next attempt goes through.
    h.lt_write(&mut ctx, lh, 0, b"okay").unwrap();
    cluster.fabric().clear_fault_plan();
}

/// An RPC whose reply never comes back times out at the liveness bound
/// instead of hanging the caller.
#[test]
fn rpc_with_no_reply_times_out() {
    const FN_SILENT: u8 = USER_FUNC_MIN + 3;
    let config = LiteConfig {
        op_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let cluster = cluster_with(2, config);
    cluster.attach(1).unwrap().register_rpc(FN_SILENT).unwrap();

    // Server takes the request off the queue and never replies.
    let c2 = Arc::clone(&cluster);
    let server = std::thread::spawn(move || {
        let mut h = c2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let _swallowed = h.lt_recv_rpc(&mut ctx, FN_SILENT);
    });

    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t0 = Instant::now();
    let err = h
        .lt_rpc(&mut ctx, 1, FN_SILENT, b"anyone there?", 64)
        .unwrap_err();
    assert_eq!(err, LiteError::Timeout);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout must honor the configured bound, took {:?}",
        t0.elapsed()
    );
    server.join().unwrap();
}

/// With the receiver's credit pool empty and its reposter contributing
/// nothing (zero pre-posted credits models a stalled poller), a
/// write-imm RPC surfaces RNR as a typed error in bounded time.
#[test]
fn recv_credit_exhaustion_is_a_bounded_typed_error() {
    const FN_ECHO: u8 = USER_FUNC_MIN;
    let config = LiteConfig {
        recv_credits: 0,
        op_timeout: Duration::from_millis(500),
        ..Default::default()
    };
    let cluster = cluster_with(2, config);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t0 = Instant::now();
    let err = h
        .lt_rpc(&mut ctx, 1, FN_ECHO, b"no credits", 64)
        .unwrap_err();
    assert_eq!(err, LiteError::Verbs(VerbsError::ReceiverNotReady));
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "RNR exhaustion must not hang, took {:?}",
        t0.elapsed()
    );
    assert!(cluster.kernel(0).stats().ops_failed >= 1);
}

/// RPCs towards a down server leak their ring reservations (the send
/// fails after reservation), so a small ring eventually reports
/// `RingFull` — a typed, bounded failure rather than a hang.
#[test]
fn ring_fills_up_while_peer_is_down() {
    const FN_VOID: u8 = USER_FUNC_MIN + 1;
    let config = LiteConfig {
        rpc_ring_bytes: 1 << 10,
        op_timeout: Duration::from_millis(150),
        peer_dead_threshold: 2,
        ..Default::default()
    };
    let cluster = cluster_with(2, config);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    cluster.fabric().set_down(1, true);

    let mut saw_ring_full = false;
    for _ in 0..16 {
        match h.lt_rpc(&mut ctx, 1, FN_VOID, &[7u8; 200], 64) {
            Err(LiteError::RingFull) => {
                saw_ring_full = true;
                break;
            }
            Err(LiteError::Timeout | LiteError::PeerDead { .. }) => {}
            other => panic!("unexpected outcome against a down server: {other:?}"),
        }
    }
    assert!(saw_ring_full, "leaked reservations must fill the ring");
}

/// A full ring is reopened by a one-sided read of the server's head
/// cell, and that read is datapath traffic like any other: dropped, it
/// is re-posted by the recovery layer, and the RPC behind it completes.
#[test]
fn dropped_ring_pull_is_retried() {
    const FN_ECHO: u8 = USER_FUNC_MIN + 2;
    let config = LiteConfig {
        rpc_ring_bytes: 1 << 10,
        ..Default::default()
    };
    let cluster = cluster_with(2, config);
    cluster.attach(1).unwrap().register_rpc(FN_ECHO).unwrap();
    let srv = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(1).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..5 {
                let call = h.lt_recv_rpc(&mut ctx, FN_ECHO).unwrap();
                h.lt_reply_rpc(&mut ctx, &call, &call.input[..8]).unwrap();
            }
        })
    };
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // Four 256-byte messages fill the client's view of the ring exactly.
    for i in 0..4u8 {
        let reply = h.lt_rpc(&mut ctx, 1, FN_ECHO, &[i; 200], 64).unwrap();
        assert_eq!(reply, [i; 8]);
    }
    assert_eq!(cluster.kernel(0).stats().ring_pulls, 0);

    // The fifth call's first WR towards the server is the pull.
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(3).with(FaultRule::DropWr {
            src: Some(0),
            dst: Some(1),
            prob: 1.0,
            max_drops: 1,
        }));
    let reply = h.lt_rpc(&mut ctx, 1, FN_ECHO, &[9; 200], 64).unwrap();
    assert_eq!(reply, [9; 8]);
    srv.join().unwrap();
    assert_eq!(cluster.fabric().fault_stats().drops, 1, "plan never fired");
    cluster.fabric().clear_fault_plan();
    let stats = cluster.kernel(0).stats();
    assert_eq!(stats.ring_pulls, 1);
    assert!(stats.retries >= 1, "the dropped read costs a retry");
    assert_eq!(stats.ops_failed, 0, "the drop must not surface");
}

/// `lt_free` with a storage node down still runs to the end: the master
/// record and the name are gone, so every handle must be too. It used to
/// return at the first free that failed, leaving the mapper's handle (and
/// the caller's own) pointing at storage no record names any more.
#[test]
fn free_with_a_dead_storage_node_still_kills_every_handle() {
    let config = LiteConfig {
        op_timeout: Duration::from_millis(150),
        ..Default::default()
    };
    let cluster = cluster_with(3, config);
    let (mut owner, mut mapper) = (cluster.attach(0).unwrap(), cluster.attach(1).unwrap());
    let (mut octx, mut mctx) = (Ctx::new(), Ctx::new());
    // Stored on node 2, mastered on node 0, mapped on node 1.
    let lh = owner
        .lt_malloc(&mut octx, 2, 1 << 16, "orphan", Perm::RW)
        .unwrap();
    let mapped = mapper.lt_map(&mut mctx, "orphan").unwrap();
    mapper.lt_write(&mut mctx, mapped, 0, b"alive").unwrap();

    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(3).with(FaultRule::CrashNode {
            node: 2,
            at_op: 1,
            restart_after_ops: u64::MAX,
        }));
    let leaks_before = cluster.kernel(0).stats().cleanup_failures;
    let freed = owner.lt_free(&mut octx, lh);
    assert!(freed.is_err(), "node 2 never freed its chunks: {freed:?}");
    assert!(cluster.kernel(0).stats().cleanup_failures > leaks_before);

    // Both handles fail at the lookup, not after a post towards node 2
    // (which would be a `Timeout`).
    let dead = |r: Result<(), LiteError>| matches!(r, Err(LiteError::BadLh { .. }));
    let at_mapper = mapper.lt_write(&mut mctx, mapped, 0, b"x");
    assert!(dead(at_mapper.clone()), "mapper: {at_mapper:?}");
    let at_owner = owner.lt_write(&mut octx, lh, 0, b"x");
    assert!(dead(at_owner.clone()), "owner: {at_owner:?}");
    // The name is free again.
    owner
        .lt_malloc(&mut octx, 1, 4096, "orphan", Perm::RW)
        .unwrap();
    cluster.fabric().clear_fault_plan();
}

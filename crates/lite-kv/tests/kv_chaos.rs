//! Chaos acceptance for the KV service: with one follower crashed
//! mid-run (and later restarted) by a seeded fault plan, the service
//! stays fully available — every client put and read-your-writes get
//! succeeds — staleness stays bounded (the lag gauge rises while the
//! follower is dead), and after the restart the follower replays the
//! log and reconverges with the leader.

use std::time::{Duration, Instant};

use lite::{LiteCluster, LiteConfig};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

#[test]
fn service_survives_follower_crash_and_restart() {
    let config = LiteConfig {
        // Short deadlines so calls toward the dead follower fail fast
        // and the replicator's backoff kicks in quickly.
        op_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(5), config).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());

    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();

    // Warm traffic before the fault fires, and make sure everyone has
    // the prefix.
    for i in 0..30 {
        c.put(
            &mut ctx,
            format!("k{i}").as_bytes(),
            format!("v{i}").as_bytes(),
        )
        .unwrap();
    }
    assert!(eventually(Duration::from_secs(10), || {
        svc.applied_seq(3) == svc.committed_seq()
    }));

    // Kill follower 3 shortly after the plan lands and keep it down for
    // the whole client workload below (a second plan revives it later).
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(2026).with(FaultRule::CrashNode {
            node: 3,
            at_op: 30,
            restart_after_ops: u64::MAX,
        }));

    // Full client workload across the outage: every op must succeed.
    // Reads pin the doomed replica — read-your-writes must fail over.
    // The session is warm (every put told it where the key sits), so a
    // get first tries the dead replica's arena.
    c.prefer_replica(3);
    let mut get_ns = Vec::new();
    for i in 0..120 {
        let key = format!("c{i}");
        c.put(&mut ctx, key.as_bytes(), format!("w{i}").as_bytes())
            .unwrap_or_else(|e| panic!("put {key} during outage: {e}"));
        let began = ctx.now();
        let v = c
            .get(&mut ctx, key.as_bytes())
            .unwrap_or_else(|e| panic!("get {key} during outage: {e}"));
        get_ns.push(ctx.now() - began);
        assert_eq!(v.as_deref(), Some(format!("w{i}").as_bytes()), "{key}");
    }
    // A get pinned to the dead replica costs one failed attempt, not two:
    // the read that could not reach it goes straight to the leader, for
    // no more virtual time than the fast-failed RPC plus the leader's RPC
    // it cost before reads were one-sided (4 581 ns).
    let unreachable = c.stats().fallbacks.unreachable;
    assert!(unreachable >= 100, "{:?}", c.stats());
    get_ns.sort_unstable();
    let typical = get_ns[get_ns.len() / 2];
    assert!(typical <= 4_581, "an outage get took {typical} ns");
    let faults = cluster.fabric().fault_stats();
    assert!(faults.crashes >= 1, "crash never fired: {faults:?}");
    // The dead follower shows up as replication lag (bounded
    // staleness), while the healthy follower keeps up regardless.
    assert!(
        eventually(Duration::from_secs(10), || svc.replication_lag() > 0),
        "a dead follower must show up as replication lag"
    );
    assert!(eventually(Duration::from_secs(10), || {
        svc.applied_seq(2) == svc.committed_seq()
    }));

    // Revive follower 3 (a fresh plan re-crashes the already-down node
    // and restarts it a few ops later); it replays the log from where
    // it died (gap catch-up) and the lag drains to zero.
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(2027).with(FaultRule::CrashNode {
            node: 3,
            at_op: 0,
            restart_after_ops: 5,
        }));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut tick = 0u64;
    let reconverged = loop {
        if cluster.fabric().fault_stats().restarts >= 1
            && svc.applied_seq(3) == svc.committed_seq()
            && svc.replication_lag() == 0
        {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        // Each put drives the op counter past the restart and gives the
        // recovering follower fresh traffic to converge on.
        c.put(&mut ctx, b"tick", &tick.to_le_bytes()).unwrap();
        tick += 1;
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        reconverged,
        "follower 3 never reconverged: applied {} vs committed {}, lag {}, faults {:?}",
        svc.applied_seq(3),
        svc.committed_seq(),
        svc.replication_lag(),
        cluster.fabric().fault_stats(),
    );
    // And it serves the data written while it was dead, locally — by RPC
    // to a session that has to ask where the key is, one-sidedly after.
    // Node 4 has had no session, so its cache knows nothing.
    let reads_node_3_again = |c: &mut KvClient, ctx: &mut Ctx, key: &[u8], want: &[u8]| {
        eventually(Duration::from_secs(10), || {
            let before = c.stats().one_sided;
            assert_eq!(c.get(ctx, key).unwrap().as_deref(), Some(want));
            c.stats().one_sided > before
        })
    };
    let mut ev = KvClient::connect(&cluster, 4, &spec, SessionMode::Eventual).unwrap();
    ev.prefer_replica(3);
    assert!(
        reads_node_3_again(&mut ev, &mut ctx, b"c119", b"w119"),
        "{:?}",
        ev.stats()
    );
    assert_eq!(ev.stats().fallbacks.no_entry, 1, "{:?}", ev.stats());
    assert_eq!(ev.stats().rpc, 1, "{:?}", ev.stats());
    // A session opened on node 0 now starts with what `c` learnt there: it
    // never has to ask (node 0 may still hold node 3 for dead on the first
    // read: that one falls back as unreachable).
    let mut warm = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    warm.prefer_replica(3);
    assert!(
        reads_node_3_again(&mut warm, &mut ctx, b"c119", b"w119"),
        "{:?}",
        warm.stats()
    );
    assert_eq!(warm.stats().fallbacks.no_entry, 0, "{:?}", warm.stats());
    // The session that lived through the outage reads node 3's arena
    // again too: `tick` carries its last write.
    let last_tick = (tick - 1).to_le_bytes();
    assert!(
        reads_node_3_again(&mut c, &mut ctx, b"tick", &last_tick),
        "{:?}",
        c.stats()
    );
    svc.stop();
}

//! End-to-end tests of the replicated KV service: write/read round
//! trips on every replica, session consistency with a stalled
//! follower, event-log scans, capacity overflow over `lite::mm`
//! tiering, the kernel gauges the service feeds, set-up failures,
//! replication in batches (and a lone put not left waiting for one) that
//! carries no record bytes, and prompt shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lite::mm::MmRequest;
use lite::{LiteCluster, LiteConfig};
use lite_kv::{KvClient, KvError, KvService, KvSpec, SessionMode};
use rnic::IbConfig;
use simnet::Ctx;

/// Polls `cond` (host time) until it holds or `timeout` passes.
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
fn put_get_roundtrip_on_every_replica() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());

    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
    let n = 20usize;
    for i in 0..n {
        let seq = c
            .put(
                &mut ctx,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        assert_eq!(seq, (i + 1) as u64, "leader assigns a dense order");
    }
    // Overwrites keep the same key, new value.
    c.put(&mut ctx, b"k0", b"v0-new").unwrap();

    // Read-your-writes: correct answers immediately, whatever replica
    // the session happens to pick.
    for i in 0..n {
        let v = c.get(&mut ctx, format!("k{i}").as_bytes()).unwrap();
        let expect = if i == 0 {
            "v0-new".into()
        } else {
            format!("v{i}")
        };
        assert_eq!(v.as_deref(), Some(expect.as_bytes()));
    }
    assert_eq!(c.get(&mut ctx, b"nope").unwrap(), None);

    // Once replication catches up, every replica serves the data
    // locally under eventual consistency.
    assert!(
        eventually(Duration::from_secs(10), || {
            spec.replicas()
                .iter()
                .all(|&r| svc.applied_seq(r) == svc.committed_seq())
        }),
        "followers converge: {:?} vs committed {}",
        spec.replicas()
            .iter()
            .map(|&r| svc.applied_seq(r))
            .collect::<Vec<_>>(),
        svc.committed_seq(),
    );
    for &replica in &spec.replicas() {
        let mut e = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
        e.prefer_replica(replica);
        let v = e.get(&mut ctx, b"k7").unwrap();
        assert_eq!(v.as_deref(), Some(b"v7".as_ref()), "replica {replica}");
    }

    // The event log replays the write order, including the overwrite.
    let events = c.events(&mut ctx, 0, 100).unwrap();
    assert_eq!(events.len(), n + 1);
    assert_eq!(events[0].key, b"k0");
    assert_eq!(events[0].value, b"v0");
    assert_eq!(events[n].key, b"k0");
    assert_eq!(events[n].value, b"v0-new");
    // Offsets chain: each event's `next` is the next event's offset.
    for w in events.windows(2) {
        assert_eq!(w[0].next, w[1].offset);
    }

    // The service feeds the kernel gauges, and they surface in the
    // stats JSON export.
    let leader_stats = cluster.kernel(1).stats();
    assert_eq!(leader_stats.kv_puts, (n + 1) as u64);
    let json = cluster.attach(1).unwrap().lt_stats().to_json();
    assert!(json.contains("\"kv_puts\":21"), "missing gauge: {json}");
    svc.stop();
}

#[test]
fn paused_follower_bounds_staleness_not_availability() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());

    let mut ctx = Ctx::new();
    let mut rw = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
    rw.put(&mut ctx, b"warm", b"base").unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        svc.applied_seq(2) == svc.committed_seq()
    }));

    // Stall follower 2, then write past it.
    svc.pause_follower(2);
    for i in 0..10 {
        rw.put(&mut ctx, b"hot", format!("v{i}").as_bytes())
            .unwrap();
    }
    // The session still reads its own writes — the stalled replica
    // answers "behind" and the client falls back to the leader.
    rw.prefer_replica(2);
    assert_eq!(
        rw.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(b"v9".as_ref())
    );

    // An eventual session pinned to the stalled replica sees bounded
    // staleness (the old world), not an error.
    let mut ev = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    ev.prefer_replica(2);
    assert_eq!(
        ev.get(&mut ctx, b"hot").unwrap(),
        None,
        "stalled replica is stale"
    );
    assert_eq!(
        ev.get(&mut ctx, b"warm").unwrap().as_deref(),
        Some(b"base".as_ref())
    );

    // The replicator notices and publishes the lag.
    assert!(
        eventually(Duration::from_secs(10), || svc.replication_lag() > 0),
        "lag gauge never rose"
    );
    assert!(cluster.kernel(1).stats().kv_replication_lag > 0);

    // Resume: the follower recovers from the log and the lag drains.
    svc.resume_follower(2);
    assert!(eventually(Duration::from_secs(10), || {
        svc.applied_seq(2) == svc.committed_seq() && svc.replication_lag() == 0
    }));
    assert_eq!(
        ev.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(b"v9".as_ref())
    );
    svc.stop();
}

/// With a memory budget far below the working set, the value arenas
/// overflow onto `lite::mm` swap: evictions happen, reads fault values
/// back, and every byte still comes back correct. A churn thread moves
/// the leader's chunks all along, so migrations end under the puts and
/// gets, not only at set-up.
#[test]
fn capacity_overflow_rides_mm_tiering() {
    let config = LiteConfig {
        mem_budget_bytes: 256 * 1024,
        // Small chunks so tiering moves values, not whole arenas.
        max_lmr_chunk: 16 * 1024,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(4), config).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[2]);
    spec.arena_bytes = 1 << 20;
    spec.log_capacity = 2 << 20;
    spec.max_value = 20 * 1024;
    let svc = KvService::spawn(&cluster, spec.clone());
    let moved = || {
        let s = cluster.kernel(1).mm_stats();
        s.evictions + s.fetch_backs
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| churn(&cluster, 1, &stop));
        let _stop = Stop(&stop);
        let mut ctx = Ctx::new();
        let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
        // ~40 × 16 KiB values ≈ 640 KiB per replica — several times the
        // 256 KiB node budget.
        let blob = |i: usize| vec![(i % 251) as u8; 16 * 1024];
        let mut first = None;
        for i in 0..40 {
            c.put(&mut ctx, format!("big{i}").as_bytes(), &blob(i))
                .unwrap_or_else(|e| panic!("put big{i}: {e}"));
            first.get_or_insert_with(moved);
        }
        // Every value, and on until a migration has ended since the first
        // put, within ten seconds.
        let deadline = Instant::now() + Duration::from_secs(10);
        for n in 0usize.. {
            if n >= 40 && moved() > first.unwrap() {
                break;
            }
            assert!(Instant::now() < deadline, "no migration under the ops");
            let i = n % 40;
            let v = c.get(&mut ctx, format!("big{i}").as_bytes()).unwrap();
            assert_eq!(v.as_deref(), Some(blob(i).as_slice()), "big{i}");
        }
    });
    let mm = cluster.kernel(1).mm_stats();
    assert!(mm.enabled);
    assert!(
        mm.evictions > 0,
        "budget {} should have forced evictions: {mm:?}",
        256 * 1024
    );
    svc.stop();
}

/// Sets its flag when dropped, by a panic too: what stops [`churn`].
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Until `stop`, pulls home every LMR node `node` masters, pushes its
/// first chunk out again, and rests a millisecond: migrations of the
/// service's own log and arenas while its ops run. The pulls take the
/// node over its budget, and the next lt_map there evicts.
fn churn(cluster: &LiteCluster, node: usize, stop: &AtomicBool) {
    let mm = cluster.kernel(node).mm();
    while !stop.load(Ordering::Relaxed) {
        // Master-table indices count up from 1 per node.
        for idx in 1..=8 {
            mm.request(MmRequest::FetchBack { idx });
            mm.request(MmRequest::Evict { idx, off: 0 });
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A service that cannot be set up says so: a log larger than the
/// leader's memory is an error from `try_spawn` within `op_timeout`, not a
/// spawner parked forever on a thread that died.
#[test]
fn try_spawn_reports_a_log_that_does_not_fit() {
    let cluster = LiteCluster::start(3).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[2]);
    spec.log_capacity = 32 << 30; // twice a node's memory
    let asked = Instant::now();
    let err = KvService::try_spawn(&cluster, spec).err();
    assert!(matches!(err, Some(KvError::Lite(_))), "{err:?}");
    let op_timeout = cluster.kernel(1).config().op_timeout;
    assert!(asked.elapsed() < op_timeout, "{:?}", asked.elapsed());
}

/// Stopping a freshly loaded service — the replicator still streaming the
/// load to the followers — returns promptly: `stop()` retires the
/// replicator while the followers still answer it, then the serving
/// threads. (Followers leaving first used to cost the replicator two 5 s
/// `op_timeout`s.)
#[test]
fn stop_right_after_a_load_returns_promptly() {
    for round in 0..20 {
        let cluster = LiteCluster::start(4).unwrap();
        let spec = KvSpec::new("kv", 1, &[2, 3]);
        let svc = KvService::spawn(&cluster, spec.clone());
        let mut ctx = Ctx::new();
        let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
        for i in 0..1_000u32 {
            c.put(&mut ctx, &i.to_le_bytes(), &[round as u8; 64])
                .unwrap();
        }
        let asked = Instant::now();
        svc.stop();
        let took = asked.elapsed();
        assert!(took < Duration::from_secs(1), "round {round}: {took:?}");
    }
}

/// RPCs each follower's node has dispatched so far: in the tests below,
/// nothing but the replicator calls a follower.
fn calls(cluster: &LiteCluster, spec: &KvSpec) -> Vec<u64> {
    let of = |&node: &usize| cluster.kernel(node).stats().rpc_dispatched;
    spec.followers.iter().map(of).collect()
}

/// The replicator calls in batches, not puts: N puts back to back reach
/// each follower in about N / 32 replication calls — each one for a full
/// batch of 32 or at the close of a 1 ms window. A replicator woken on
/// every apply sends about one a put.
#[test]
fn replication_streams_in_batches() {
    const N: u64 = 8 * 32;
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    let before = calls(&cluster, &spec);
    let began = Instant::now();
    for i in 0..N {
        c.put(&mut ctx, &i.to_le_bytes(), &[7; 64]).unwrap();
    }
    // Windows that can have closed while the puts ran, and the last one.
    let windows = began.elapsed().as_millis() as u64 + 2;
    assert!(
        eventually(Duration::from_secs(10), || {
            spec.followers.iter().all(|&f| svc.applied_seq(f) == N)
        }),
        "followers never caught up"
    );
    for ((f, after), before) in spec
        .followers
        .iter()
        .zip(calls(&cluster, &spec))
        .zip(before)
    {
        let sent = after - before;
        assert!(
            sent <= N / 32 + windows,
            "follower {f}: {sent} replication calls for {N} puts in {windows} windows"
        );
    }
    svc.stop();
}

/// A put with nothing behind it is not left waiting for a batch to fill:
/// the replicator's window closes within 1 ms and tells every follower,
/// which reads the record out of the log.
#[test]
fn a_lone_put_reaches_every_follower() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    let before = calls(&cluster, &spec);
    let seq = c.put(&mut ctx, b"lone", b"put").unwrap();
    assert!(
        eventually(Duration::from_millis(100), || {
            let sent = calls(&cluster, &spec)
                .iter()
                .zip(&before)
                .all(|(a, b)| a > b);
            sent && spec.followers.iter().all(|&f| svc.applied_seq(f) >= seq)
        }),
        "applied {:?}, replication calls {:?} (before {before:?})",
        spec.followers
            .iter()
            .map(|&f| svc.applied_seq(f))
            .collect::<Vec<_>>(),
        calls(&cluster, &spec),
    );
    svc.stop();
}

/// Replication is the log: the leader's node sends each follower notices
/// of a few words, and the followers read the records out of its log. 256
/// puts of 64 B are ~24 KiB of records; a replicator that sent them would
/// move that much towards each follower.
#[test]
fn replication_sends_no_record_bytes() {
    const N: u64 = 256;
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let sent = |f: usize| {
        let stats = cluster.attach(spec.leader).unwrap().lt_stats();
        stats
            .peers
            .iter()
            .find(|p| p.peer == f)
            .map_or(0, |p| p.bytes)
    };
    let before: Vec<u64> = spec.followers.iter().map(|&f| sent(f)).collect();
    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    for i in 0..N {
        c.put(&mut ctx, &i.to_le_bytes(), &[7; 64]).unwrap();
    }
    assert!(
        eventually(Duration::from_secs(10), || {
            spec.followers.iter().all(|&f| svc.applied_seq(f) == N)
        }),
        "followers never caught up"
    );
    for (&f, before) in spec.followers.iter().zip(before) {
        let grew = sent(f) - before;
        assert!(
            grew < 2_048,
            "leader node sent follower {f} {grew} B for {N} puts"
        );
    }
    svc.stop();
}

/// Stopping a service with nothing to do wakes the parked replicator and
/// the serving threads' waits end within their 1 ms: nobody sleeps out a
/// window.
#[test]
fn stopping_an_idle_service_returns_at_once() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    c.put(&mut ctx, b"k", b"v").unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        spec.followers.iter().all(|&f| svc.applied_seq(f) == 1)
    }));
    std::thread::sleep(Duration::from_millis(20));
    let asked = Instant::now();
    svc.stop();
    let took = asked.elapsed();
    assert!(took < Duration::from_millis(50), "{took:?}");
}

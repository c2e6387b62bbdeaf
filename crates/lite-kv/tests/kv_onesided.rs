//! The one-sided read path: a get from a node that knows where the key's
//! slot is reads it with one `lt_read`, lets the record say whether the
//! answer is good, and takes the RPC only when it is not. These tests pin
//! the path itself (no server thread involved), every fallback, the
//! record's resistance to torn reads, the layout claim a shared location
//! rests on, and — with a seeded model — that no interleaving of puts,
//! overwrites and growth makes a get return what was never put. Locations
//! are learnt per node, not per session: the `shared_*` tests pin who
//! gets to read what whom was told, and that it ends at the cluster.
//! A test that wants a session that knows nothing opens it on a node no
//! session has used.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite::mm::MmRequest;
use lite::{LiteCluster, LiteConfig, LiteError, Perm};
use lite_kv::record::{self, Slot, HEADER};
use lite_kv::{KvClient, KvClientStats, KvFallbacks, KvService, KvSpec, SessionMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rnic::IbConfig;
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

/// Waits until every replica has applied what the leader committed.
fn converge(svc: &KvService) {
    let replicas = svc.spec().replicas();
    assert!(
        eventually(Duration::from_secs(10), || replicas
            .iter()
            .all(|&r| svc.applied_seq(r) == svc.committed_seq())),
        "replicas never converged"
    );
}

/// (a) Once a session knows the locations, gets on any replica are one
/// `lt_read` each: right bytes, and the replica's RPC dispatch count — a
/// count that repeats exactly — does not move.
#[test]
fn cached_gets_reach_no_server_thread() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    let key = |i: usize| format!("k{i}").into_bytes();
    let value = |i: usize| format!("value-{i}").into_bytes();
    for i in 0..50 {
        c.put(&mut ctx, &key(i), &value(i)).unwrap();
    }
    converge(&svc);
    let gets_before: u64 = (0..4).map(|n| cluster.kernel(n).stats().kv_gets).sum();
    for &replica in &spec.replicas() {
        c.prefer_replica(replica);
        // Maps the replica's arena (a kernel RPC to it), outside the count.
        assert_eq!(c.get(&mut ctx, &key(0)).unwrap(), Some(value(0)));
        let dispatched = cluster.kernel(replica).stats().rpc_dispatched;
        let before = c.stats();
        for i in 0..1_000 {
            let got = c.get(&mut ctx, &key(i % 50)).unwrap();
            assert_eq!(got, Some(value(i % 50)), "replica {replica} key {i}");
        }
        assert_eq!(c.stats().one_sided, before.one_sided + 1_000);
        assert_eq!(c.stats().rpc, before.rpc);
        assert_eq!(
            cluster.kernel(replica).stats().rpc_dispatched,
            dispatched,
            "a cached get woke replica {replica}"
        );
    }
    // The cluster-wide gauge still counts every get issued: one-sided
    // hits on the client's node, the rest where they were served.
    let gets_after: u64 = (0..4).map(|n| cluster.kernel(n).stats().kv_gets).sum();
    assert_eq!(gets_after - gets_before, 3 * 1_001);
    assert_eq!(c.stats().fallbacks.no_entry, 0, "puts fill the cache");
    svc.stop();
}

/// (b) Every value length, overwritten in place and then grown past its
/// slot: a session on a node that holds the pre-growth location finds a
/// tombstone there, asks, and from then on reads the new slot — never
/// the old value once the replica has applied the move. One stale node
/// per replica (the writer sits on none of them), and on each a
/// neighbour session: what the reader's fallback learnt, the neighbour
/// reads without meeting the tombstone.
#[test]
fn growth_leaves_a_tombstone_stale_readers_follow() {
    let cluster = LiteCluster::start(7).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[2, 3]);
    spec.max_value = 20 * 1024;
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut writer = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    let lens = [0usize, 1, 64, 4096, 16 * 1024];
    let n = lens.len() as u64;
    let key = |len: usize| format!("len{len}").into_bytes();
    let fill = |len: usize, byte: u8| vec![byte; len];
    for &len in &lens {
        writer.put(&mut ctx, &key(len), &fill(len, 1)).unwrap();
    }
    converge(&svc);
    // One reader per replica, each on a node of its own, learns the first
    // locations by RPC, then reads them one-sidedly.
    let on_node_of = |i: usize| {
        let mut c = KvClient::connect(&cluster, 4 + i, &spec, SessionMode::Eventual).unwrap();
        c.prefer_replica(spec.replicas()[i]);
        c
    };
    let mut readers: Vec<KvClient> = (0..3).map(on_node_of).collect();
    for r in &mut readers {
        for pass in 0..2 {
            for &len in &lens {
                let got = r.get(&mut ctx, &key(len)).unwrap();
                assert_eq!(got, Some(fill(len, 1)), "len {len} pass {pass}");
            }
        }
        assert_eq!(r.stats().one_sided, n);
        assert_eq!(r.stats().fallbacks.no_entry, n);
    }
    // Their neighbours, opened after, never have to ask.
    let mut neighbours: Vec<KvClient> = (0..3).map(on_node_of).collect();
    for nb in &mut neighbours {
        for &len in &lens {
            let got = nb.get(&mut ctx, &key(len)).unwrap();
            assert_eq!(got, Some(fill(len, 1)), "len {len}, neighbour");
        }
        assert_eq!((nb.stats().one_sided, nb.stats().rpc), (n, 0));
    }
    // In place: same slot, new bytes (the empty value gets a few).
    let in_place = |len: usize| fill(len.max(5), 2);
    for &len in &lens {
        writer.put(&mut ctx, &key(len), &in_place(len)).unwrap();
    }
    converge(&svc);
    for r in &mut readers {
        for &len in &lens {
            let got = r.get(&mut ctx, &key(len)).unwrap();
            assert_eq!(got, Some(in_place(len)), "len {len} in place");
        }
        assert_eq!(r.stats().one_sided, 2 * n);
        assert_eq!(r.stats().rpc, n);
    }
    // Grown past the slot: the value moves, the old slot says so.
    let grown = |len: usize| fill(len.max(5) + 9, 3);
    for &len in &lens {
        writer.put(&mut ctx, &key(len), &grown(len)).unwrap();
    }
    converge(&svc);
    for r in &mut readers {
        for pass in 0..2 {
            for &len in &lens {
                let got = r.get(&mut ctx, &key(len)).unwrap();
                assert_eq!(got, Some(grown(len)), "len {len} grown, pass {pass}");
            }
        }
        let s = r.stats();
        assert_eq!(s.fallbacks.tombstone, n, "{s:?}");
        assert_eq!(s.one_sided, 3 * n, "{s:?}");
        assert_eq!(s.rpc, 2 * n, "{s:?}");
    }
    // Per node each tombstone was met once: the reader's refresh is the
    // neighbour's too, which last read these keys at their old slots.
    for nb in &mut neighbours {
        for &len in &lens {
            let got = nb.get(&mut ctx, &key(len)).unwrap();
            assert_eq!(got, Some(grown(len)), "len {len} grown, neighbour");
        }
        let s = nb.stats();
        assert_eq!((s.one_sided, s.rpc), (2 * n, 0), "{s:?}");
        assert_eq!(s.fallbacks, KvFallbacks::default(), "{s:?}");
    }
    // The writer's node followed its puts.
    for &len in &lens {
        let got = writer.get(&mut ctx, &key(len)).unwrap();
        assert_eq!(got, Some(grown(len)));
    }
    assert_eq!(writer.stats().rpc, 0);
    svc.stop();
}

/// (c) `paused_follower_bounds_staleness_not_availability` with warm
/// sessions: the stalled replica's slot for a key it never applied is
/// still zeroed (or, for one it did, too old for the session), so the
/// read-your-writes get takes the RPC, hears "behind" and ends on the
/// leader; the eventual one still reads the old world.
#[test]
fn paused_follower_with_warm_sessions() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut rw = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
    rw.put(&mut ctx, b"warm", b"base").unwrap();
    converge(&svc);

    svc.pause_follower(2);
    for i in 0..10 {
        rw.put(&mut ctx, b"hot", format!("v{i}").as_bytes())
            .unwrap();
    }
    // An eventual session that learnt both locations from the leader.
    let mut ev = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    ev.prefer_replica(1);
    assert_eq!(
        ev.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(&b"v9"[..])
    );
    assert_eq!(
        ev.get(&mut ctx, b"warm").unwrap().as_deref(),
        Some(&b"base"[..])
    );

    rw.prefer_replica(2);
    assert_eq!(
        rw.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(&b"v9"[..])
    );
    assert_eq!(
        rw.stats().fallbacks.behind,
        1,
        "zeroed slot: {:?}",
        rw.stats()
    );
    assert_eq!(
        rw.get(&mut ctx, b"warm").unwrap().as_deref(),
        Some(&b"base"[..])
    );
    assert_eq!(rw.stats().fallbacks.too_old, 1, "{:?}", rw.stats());
    assert_eq!(rw.stats().one_sided, 0);

    ev.prefer_replica(2);
    assert_eq!(ev.get(&mut ctx, b"hot").unwrap(), None, "the old world");
    assert_eq!(ev.stats().fallbacks.behind, 1, "{:?}", ev.stats());
    let one_sided = ev.stats().one_sided;
    assert_eq!(
        ev.get(&mut ctx, b"warm").unwrap().as_deref(),
        Some(&b"base"[..])
    );
    assert_eq!(
        ev.stats().one_sided,
        one_sided + 1,
        "applied slots are served"
    );

    svc.resume_follower(2);
    converge(&svc);
    // The miss kept the location: the slot is served once it is applied.
    assert_eq!(
        ev.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(&b"v9"[..])
    );
    assert_eq!(ev.stats().one_sided, one_sided + 2);
    // Read-your-writes is served one-sidedly once the record is new
    // enough: `hot` carries the session's last write.
    assert_eq!(
        rw.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(&b"v9"[..])
    );
    assert_eq!(rw.stats().one_sided, 1, "{:?}", rw.stats());
    svc.stop();
}

/// (d) Any mix of two different valid records of one slot — a prefix of
/// one, the rest of the other, split at every offset — fails the check.
#[test]
fn no_mix_of_two_records_passes() {
    let key = b"key:000017";
    let mut rng = SmallRng::seed_from_u64(4);
    let mut value = |len: usize| (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>();
    let pairs = [
        (
            record::live(7, key, &value(64)),
            record::live(8, key, &value(64)),
        ),
        (
            record::live(7, key, &value(64)),
            record::live(300, key, &value(40)),
        ),
        (record::live(1, key, &value(9)), record::tombstone(2, key)),
        // Same value, rewritten: only the header differs.
        (
            record::live(5, key, &[9; 32]),
            record::live(6, key, &[9; 32]),
        ),
    ];
    for (a, b) in &pairs {
        for (x, y) in [(a, b), (b, a)] {
            // The slot is as long as the longer record; the shorter one
            // leaves the longer one's tail behind it.
            let len = x.len().max(y.len());
            let whole = |r: &[u8], under: &[u8]| {
                let mut s = under.to_vec();
                s.resize(len, 0);
                s[..r.len()].copy_from_slice(r);
                s
            };
            let (old, new) = (whole(x, y), whole(y, x));
            for split in 0..=len {
                let mut mix = new[..split].to_vec();
                mix.extend_from_slice(&old[split..]);
                // What passes the check is one of the two records, whole.
                let n = match record::parse(&mix, key) {
                    Slot::Torn => continue,
                    Slot::Live { value, .. } => HEADER + value.len(),
                    Slot::Tombstone { .. } | Slot::Empty => HEADER,
                };
                assert!(
                    mix[..n] == old[..n] || mix[..n] == new[..n],
                    "split {split} of {len} passed the check"
                );
            }
        }
    }
}

/// (d) A record that spans a page boundary (memory is written and read a
/// page at a time, so a read may see half of each of two writes), read
/// remotely while its owner rewrites it in a loop: every read that
/// passes the check is a value that was put.
#[test]
fn reads_racing_a_rewrite_never_invent_a_value() {
    const VALUE: usize = 120;
    let cluster = LiteCluster::start(2).unwrap();
    let key = b"racing";
    let off = 4096 - (HEADER + VALUE / 2) as u64;
    let value_of = |seq: u64| vec![seq as u8; VALUE];
    let stop = AtomicBool::new(false);
    let mut owner = cluster.attach(1).unwrap();
    let mut ctx = Ctx::new();
    let lh = owner
        .lt_malloc(&mut ctx, 1, 8192, "racing.arena", Perm::RO)
        .unwrap();
    owner
        .lt_write(&mut ctx, lh, off, &record::live(1, key, &value_of(1)))
        .unwrap();
    let (mut live, mut torn) = (0u32, 0u32);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut ctx = Ctx::new();
            let mut seq = 1;
            while !stop.load(Ordering::Acquire) {
                seq += 1;
                let rec = record::live(seq, key, &value_of(seq));
                owner.lt_write(&mut ctx, lh, off, &rec).unwrap();
            }
        });
        let mut reader = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = reader.lt_map(&mut ctx, "racing.arena").unwrap();
        let mut buf = vec![0u8; HEADER + VALUE];
        for _ in 0..20_000 {
            reader.lt_read(&mut ctx, lh, off, &mut buf).unwrap();
            match record::parse(&buf, key) {
                Slot::Live { seq, value } => {
                    assert_eq!(value, value_of(seq), "seq {seq} never held this");
                    live += 1;
                }
                Slot::Torn => torn += 1,
                other => panic!("never written: {other:?}"),
            }
        }
        stop.store(true, Ordering::Release);
    });
    assert!(live > 0);
    println!("racing reads: {live} whole, {torn} torn");
}

/// (e) The claim a shared location rests on: replicas that applied the
/// same log prefix — by the stream or, after a pause, from the log —
/// hold byte-identical arenas, tombstones included. Also the arena's
/// permissions: anyone may map and read it, only its replica writes it.
#[test]
fn arenas_are_byte_identical_and_read_only() {
    let cluster = LiteCluster::start(4).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[2, 3]);
    spec.arena_bytes = 64 * 1024;
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    let mut rng = SmallRng::seed_from_u64(11);
    for round in 0..3 {
        if round == 1 {
            svc.pause_follower(3); // this stretch reaches node 3 from the log
        }
        for _ in 0..150 {
            let key = format!("k{}", rng.gen_range(0..24u32));
            let len = [0usize, 3, 8, 30, 64, 200][rng.gen_range(0..6usize)];
            let value: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            c.put(&mut ctx, key.as_bytes(), &value).unwrap();
        }
        if round == 1 {
            svc.resume_follower(3);
        }
    }
    converge(&svc);

    let mut h = cluster.attach(0).unwrap();
    let arenas: Vec<Vec<u8>> = spec
        .replicas()
        .iter()
        .map(|&node| {
            let lh = h.lt_map(&mut ctx, &format!("kv.arena{node}")).unwrap();
            let mut bytes = vec![0u8; spec.arena_bytes as usize];
            h.lt_read(&mut ctx, lh, 0, &mut bytes).unwrap();
            assert!(
                matches!(
                    h.lt_write(&mut ctx, lh, 0, &[0xFF; 8]),
                    Err(LiteError::PermissionDenied)
                ),
                "a client wrote into replica {node}'s arena"
            );
            bytes
        })
        .collect();
    let used = arenas[0].iter().rposition(|&b| b != 0).unwrap_or(0);
    assert!(used > 4096, "the arena holds the puts: {used} bytes used");
    assert!(arenas[0] == arenas[1], "leader and node 2 differ");
    assert!(arenas[0] == arenas[2], "leader and node 3 differ");
    svc.stop();
}

/// (f) The memory-budget case of `capacity_overflow_rides_mm_tiering`
/// with warm sessions: one-sided reads of slots whose chunks were tiered
/// out fault them back (or fall back) and return every byte. A churn
/// thread moves the leader's chunks all along, so migrations end under
/// the gets.
#[test]
fn cached_reads_ride_mm_tiering() {
    let config = LiteConfig {
        mem_budget_bytes: 256 * 1024,
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
    let (s, passes) = std::thread::scope(|scope| {
        scope.spawn(|| churn(&cluster, 1, &stop));
        let _stop = Stop(&stop);
        let mut ctx = Ctx::new();
        let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
        let blob = |i: usize| vec![(i % 251) as u8; 16 * 1024];
        for i in 0..40 {
            c.put(&mut ctx, format!("big{i}").as_bytes(), &blob(i))
                .unwrap_or_else(|e| panic!("put big{i}: {e}"));
        }
        converge(&svc);
        // Two passes, and on until a migration has ended since the first
        // get, within ten seconds.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut first = None;
        let mut passes = 0;
        while passes < 2 || moved() <= first.unwrap() {
            assert!(Instant::now() < deadline, "no migration under the gets");
            for i in 0..40 {
                let v = c.get(&mut ctx, format!("big{i}").as_bytes()).unwrap();
                assert_eq!(v.as_deref(), Some(blob(i).as_slice()), "big{i} pass {passes}");
                first.get_or_insert_with(moved);
            }
            passes += 1;
        }
        (c.stats(), passes)
    });
    assert_eq!(s.one_sided + s.rpc, 40 * passes);
    assert!(
        s.one_sided >= 20 * passes,
        "warm gets should mostly be one-sided: {s:?}"
    );
    assert!(cluster.kernel(1).mm_stats().evictions > 0);
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

/// (g) Seeded model: three sessions (two eventual, one read-your-writes)
/// interleave puts of random lengths — overwrites in place, growth,
/// shrinkage — and gets over a few keys, round-robin over the replicas.
/// Every get returns a value that was put for that key, and a
/// read-your-writes get never one older than the session's own last
/// write to it.
#[test]
fn random_interleavings_match_the_model() {
    for seed in 0..6u64 {
        let cluster = LiteCluster::start(4).unwrap();
        let spec = KvSpec::new("kv", 1, &[2, 3]);
        let svc = KvService::spawn(&cluster, spec.clone());
        let mut ctx = Ctx::new();
        let modes = [
            SessionMode::Eventual,
            SessionMode::Eventual,
            SessionMode::ReadYourWrites,
        ];
        let mut sessions: Vec<KvClient> = modes
            .iter()
            .map(|&m| KvClient::connect(&cluster, 0, &spec, m).unwrap())
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Per key, every value put, in order; a value starts with its
        // index in that list.
        let mut put: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
        // Per (session, key), the index of the session's last write.
        let mut own: HashMap<(usize, u32), usize> = HashMap::new();
        for step in 0..400 {
            let who = rng.gen_range(0..sessions.len());
            let k = rng.gen_range(0..6u32);
            let key = format!("k{k}");
            let at = format!("seed {seed} step {step} session {who} key {key}");
            if rng.gen_bool(0.4) {
                let versions = put.entry(k).or_default();
                let len = [0usize, 1, 8, 40, 64, 200][rng.gen_range(0..6usize)];
                let mut value = (versions.len() as u64).to_le_bytes().to_vec();
                value.extend((0..len).map(|_| rng.gen::<u8>()));
                sessions[who]
                    .put(&mut ctx, key.as_bytes(), &value)
                    .unwrap_or_else(|e| panic!("{at}: put: {e}"));
                own.insert((who, k), versions.len());
                versions.push(value);
            } else {
                let got = sessions[who]
                    .get(&mut ctx, key.as_bytes())
                    .unwrap_or_else(|e| panic!("{at}: get: {e}"));
                let floor = match modes[who] {
                    SessionMode::ReadYourWrites => own.get(&(who, k)).copied(),
                    SessionMode::Eventual => None,
                };
                match got {
                    // A replica that has not applied the key's first put.
                    None => assert_eq!(floor, None, "{at}: own write lost"),
                    Some(v) => {
                        let index = u64::from_le_bytes(v[..8].try_into().unwrap()) as usize;
                        let was_put = put.get(&k).and_then(|vs| vs.get(index));
                        assert_eq!(Some(&v), was_put, "{at}: never put");
                        assert!(
                            floor.is_none_or(|f| index >= f),
                            "{at}: older than own write"
                        );
                    }
                }
            }
        }
        let served: u64 = sessions.iter().map(|s| s.stats().one_sided).sum();
        assert!(served > 0, "seed {seed}: the one-sided path never ran");
        svc.stop();
    }
}

/// (h) Locations are the node's: a session opened after another on the
/// same node filled the cache reads every key on every replica with one
/// `lt_read` and no server thread; a node that has had no session pays one
/// RPC per key, once, for all its sessions.
#[test]
fn shared_cache_warms_later_sessions_of_the_node() {
    let cluster = LiteCluster::start(5).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let key = |i: usize| format!("k{i}").into_bytes();
    let value = |i: usize| format!("value-{i}").into_bytes();
    let mut a = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    for i in 0..50 {
        a.put(&mut ctx, &key(i), &value(i)).unwrap();
    }
    converge(&svc);

    let served = |n: usize| cluster.kernel(n).stats().kv_gets;
    let served_before: Vec<u64> = spec.replicas().iter().map(|&r| served(r)).collect();
    let mut b = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    for &replica in &spec.replicas() {
        b.prefer_replica(replica);
        // Maps the replica's arena (a kernel RPC to it), outside the count.
        assert_eq!(b.get(&mut ctx, &key(0)).unwrap(), Some(value(0)));
        let dispatched = cluster.kernel(replica).stats().rpc_dispatched;
        for i in 1..50 {
            let got = b.get(&mut ctx, &key(i)).unwrap();
            assert_eq!(got, Some(value(i)), "replica {replica} key {i}");
        }
        assert_eq!(
            cluster.kernel(replica).stats().rpc_dispatched,
            dispatched,
            "a get of session b woke replica {replica}"
        );
    }
    let warm = KvClientStats {
        one_sided: 150,
        ..Default::default()
    };
    assert_eq!(b.stats(), warm);
    let served_after: Vec<u64> = spec.replicas().iter().map(|&r| served(r)).collect();
    assert_eq!(served_after, served_before, "no replica served a get");

    // Node 4 knows nothing: its first session asks once per key ...
    let mut c = KvClient::connect(&cluster, 4, &spec, SessionMode::Eventual).unwrap();
    for pass in 0..2 {
        for i in 0..50 {
            assert_eq!(c.get(&mut ctx, &key(i)).unwrap(), Some(value(i)), "{pass}");
        }
    }
    let s = c.stats();
    assert_eq!((s.one_sided, s.rpc, s.fallbacks.no_entry), (50, 50, 50));
    // ... and its second never.
    let mut d = KvClient::connect(&cluster, 4, &spec, SessionMode::Eventual).unwrap();
    for i in 0..50 {
        assert_eq!(d.get(&mut ctx, &key(i)).unwrap(), Some(value(i)));
    }
    let warm = KvClientStats {
        one_sided: 50,
        ..Default::default()
    };
    assert_eq!(d.stats(), warm);
    svc.stop();
}

/// (i) The cache belongs to a node of a cluster, not to a node index or a
/// service name: two clusters alive at once, same name, same index, hold
/// two; and a cluster built where one was dropped starts cold.
#[test]
fn shared_cache_ends_at_its_cluster() {
    const KEYS: usize = 20;
    let spec = KvSpec::new("kv", 1, &[2]);
    let key = |i: usize| format!("k{i}").into_bytes();
    let mut ctx = Ctx::new();
    // A cluster whose node 0 never put: the keys arrive from node 3, each
    // tagged with the cluster's name and padded by a different amount, so
    // that one cluster's locations are wrong for another.
    let loaded = |tag: &'static str, pad: usize| {
        let cluster = LiteCluster::start(4).unwrap();
        let svc = KvService::spawn(&cluster, spec.clone());
        let mut loader = KvClient::connect(&cluster, 3, &spec, SessionMode::Eventual).unwrap();
        let mut ctx = Ctx::new();
        loader.put(&mut ctx, b"pad", &vec![0; pad]).unwrap();
        for i in 0..KEYS {
            let value = format!("{tag}-{i}");
            loader.put(&mut ctx, &key(i), value.as_bytes()).unwrap();
        }
        converge(&svc);
        (cluster, svc)
    };
    // Reads every key from node 0 and says how the session fared.
    let mut read_all = |cluster: &Arc<LiteCluster>, tag: &str| {
        let mut c = KvClient::connect(cluster, 0, &spec, SessionMode::Eventual).unwrap();
        for i in 0..KEYS {
            let got = c.get(&mut ctx, &key(i)).unwrap();
            assert_eq!(got, Some(format!("{tag}-{i}").into_bytes()), "key {i}");
        }
        c.stats()
    };
    let cold = (0, KEYS as u64, KEYS as u64);
    let warm = (KEYS as u64, 0, 0);
    let fared = |s: KvClientStats| (s.one_sided, s.rpc, s.fallbacks.no_entry);

    let (x, x_svc) = loaded("x", 8);
    assert_eq!(fared(read_all(&x, "x")), cold);
    assert_eq!(fared(read_all(&x, "x")), warm);
    // Cluster y's node 0 learns nothing from x's ...
    let (y, y_svc) = loaded("y", 40);
    assert_eq!(fared(read_all(&y, "y")), cold);
    assert_eq!(fared(read_all(&y, "y")), warm);
    // ... nor x's from y's: still warm, still its own values.
    assert_eq!(fared(read_all(&x, "x")), warm);
    // Dropped and rebuilt — same name, same node, maybe the same
    // addresses — it knows nothing.
    x_svc.stop();
    drop(x);
    let (z, z_svc) = loaded("z", 72);
    assert_eq!(fared(read_all(&z, "z")), cold);
    assert_eq!(fared(read_all(&y, "y")), warm);
    y_svc.stop();
    z_svc.stop();
}

/// (j) Four threads of two sessions each (one eventual, one
/// read-your-writes) on one node put, overwrite, grow and get 64 keys for
/// two seconds through the one cache: nothing deadlocks, every get
/// returns a value that was put for that key, and every get is counted
/// once.
#[test]
fn shared_cache_under_concurrent_sessions() {
    const THREADS: usize = 4;
    const KEYS: u64 = 64;
    // A value says who wrote it and which of their puts it is; its length
    // and bytes follow from that, so a reader can tell a value that was
    // put from one that never was without a shared model.
    fn value_of(key: u64, writer: u64, n: u64) -> Vec<u8> {
        let mut v = Vec::new();
        for word in [key, writer, n] {
            v.extend_from_slice(&word.to_le_bytes());
        }
        // Mostly 64 B bodies; every so often one that outgrows the slot,
        // a little further as the writer goes on.
        let body = [64, 64, 64, 8, 200, 1000][(n % 6) as usize] + (n / 40 % 8 * 16) as usize;
        let mut rng = SmallRng::seed_from_u64(key << 40 ^ writer << 32 ^ n);
        v.extend((0..body).map(|_| rng.gen::<u8>()));
        v
    }
    let cluster = LiteCluster::start(4).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[2, 3]);
    // Slots are never freed: room for every key to climb through every size.
    spec.arena_bytes = 4 << 20;
    spec.log_capacity = 16 << 20;
    let svc = KvService::spawn(&cluster, spec.clone());
    // Puts each writer (thread × session) has begun: stored before the put.
    let begun: Vec<AtomicU64> = (0..2 * THREADS).map(|_| AtomicU64::new(0)).collect();
    let deadline = Instant::now() + Duration::from_secs(2);
    let (gets, stats): (Vec<u64>, Vec<KvClientStats>) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cluster, spec, begun) = (&cluster, &spec, &begun);
                s.spawn(move || {
                    let modes = [SessionMode::Eventual, SessionMode::ReadYourWrites];
                    let mut sessions =
                        modes.map(|m| KvClient::connect(cluster, 0, spec, m).unwrap());
                    let mut ctx = Ctx::new();
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    let mut gets = 0;
                    while Instant::now() < deadline {
                        let which = rng.gen_range(0..2usize);
                        let writer = (2 * t + which) as u64;
                        let k = rng.gen_range(0..KEYS);
                        let key = format!("k{k}");
                        if rng.gen_bool(0.3) {
                            let n = begun[writer as usize].fetch_add(1, Ordering::AcqRel);
                            sessions[which]
                                .put(&mut ctx, key.as_bytes(), &value_of(k, writer, n))
                                .unwrap_or_else(|e| panic!("writer {writer} put {n}: {e}"));
                            continue;
                        }
                        gets += 1;
                        let got = sessions[which]
                            .get(&mut ctx, key.as_bytes())
                            .unwrap_or_else(|e| panic!("writer {writer} get {key}: {e}"));
                        // `None`: a replica that has not applied the first put.
                        let Some(v) = got else { continue };
                        let word =
                            |i: usize| u64::from_le_bytes(v[8 * i..][..8].try_into().unwrap());
                        let (by, n) = (word(1), word(2));
                        assert_eq!(word(0), k, "{key} holds another key's value");
                        assert!(
                            n < begun[by as usize].load(Ordering::Acquire),
                            "{key}: put {n} of writer {by} was never begun"
                        );
                        assert!(v == value_of(k, by, n), "{key}: not put {n} of {by}");
                    }
                    let stats = sessions.map(|s| s.stats());
                    (gets, stats)
                })
            })
            .collect();
        let done = threads.into_iter().map(|t| t.join().unwrap());
        let (gets, stats): (Vec<u64>, Vec<[KvClientStats; 2]>) = done.unzip();
        (gets, stats.into_iter().flatten().collect())
    });
    let issued: u64 = gets.iter().sum();
    let one_sided: u64 = stats.iter().map(|s| s.one_sided).sum();
    let rpc: u64 = stats.iter().map(|s| s.rpc).sum();
    assert_eq!(one_sided + rpc, issued, "{stats:?}");
    assert!(issued > 1_000, "only {issued} gets in two seconds");
    // Followers trail a put stream this dense, so many slots read as not
    // applied yet or too old for the session; a good share is still served.
    assert!(one_sided > issued / 10, "{one_sided} of {issued} one-sided");
    let sum = |f: fn(&KvFallbacks) -> u64| stats.iter().map(|s| f(&s.fallbacks)).sum::<u64>();
    println!(
        "{issued} gets: {one_sided} one-sided, no entry {}, behind {}, torn {}, tombstone {}, too old {}",
        sum(|f| f.no_entry),
        sum(|f| f.behind),
        sum(|f| f.torn),
        sum(|f| f.tombstone),
        sum(|f| f.too_old),
    );
    svc.stop();
}

/// (k) Three times as many keys as the node's cache has entries: what it
/// dropped costs an RPC again (`no_entry`), what it kept is one-sided,
/// and every get is right either way.
#[test]
fn shared_cache_past_capacity_falls_back() {
    /// `LOC_CACHE_ENTRIES` of `service.rs`.
    const ENTRIES: u64 = 16 * 1024;
    const KEYS: u64 = 3 * ENTRIES;
    let cluster = LiteCluster::start(2).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[]);
    spec.arena_bytes = 4 << 20;
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut ctx = Ctx::new();
    let key = |i: u64| format!("key:{i:06}").into_bytes();
    let mut writer = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    for i in 0..KEYS {
        writer.put(&mut ctx, &key(i), &i.to_le_bytes()).unwrap();
    }
    // Newest first: a set's entries are all read before the first miss in
    // that set replaces one of them.
    let mut reader = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    for i in (0..KEYS).rev() {
        let got = reader.get(&mut ctx, &key(i)).unwrap();
        assert_eq!(got, Some(i.to_le_bytes().to_vec()), "key {i}");
    }
    let s = reader.stats();
    assert_eq!(s.one_sided + s.fallbacks.no_entry, KEYS, "{s:?}");
    assert_eq!(s.rpc, s.fallbacks.no_entry, "{s:?}");
    assert!(s.one_sided <= ENTRIES, "{s:?}");
    // Four-way sets keep the cache full to within a few entries: the sets
    // fewer than four of the keys hashed to.
    assert!(s.one_sided >= ENTRIES * 98 / 100, "{s:?}");
    svc.stop();
}

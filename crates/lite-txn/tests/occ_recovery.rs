//! Crash-of-committer recovery: a commit abandoned at every protocol
//! stage must be settled by the next transaction that runs into its
//! expired lock words — rolled back before the decision point, rolled
//! forward after it — and every CAS lock word must be reclaimed.

use std::sync::Arc;
use std::time::Duration;

use lite::{LiteCluster, LiteConfig, TxnLog};
use lite_txn::{CrashPoint, TableSpec, TxnError, TxnTable};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

fn start() -> Arc<LiteCluster> {
    LiteCluster::start(2).unwrap()
}

/// A spec with a short lease so tests recover quickly.
fn spec(records: u64) -> TableSpec {
    TableSpec {
        lease_ms: 15,
        ..TableSpec::new(records, 8)
    }
}

fn u64s(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

fn expire_lease() {
    std::thread::sleep(Duration::from_millis(30));
}

/// Crash a two-record commit at `crash` on node 0's handle, then read
/// both records through a second handle after the lease expires and
/// return what the recovered table holds — on a freshly claimed slot and
/// on a kept one, which must recover alike.
fn crash_and_recover(crash: CrashPoint, name: &str) -> (u64, u64) {
    let fresh = crash_on(crash, name, false);
    let kept = crash_on(crash, &format!("{name}.kept"), true);
    assert_eq!(kept, fresh, "{crash:?} on a kept slot");
    fresh
}

/// One `crash_and_recover` run; `warm` first commits once, so the crashed
/// commit starts on the slot that left `COMMITTED@e`: its lock words
/// carry `e+1` over a header that is already decided.
fn crash_on(crash: CrashPoint, name: &str, warm: bool) -> (u64, u64) {
    let cluster = start();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    // A kept slot is trusted for half a lease: the lease must outlast the
    // gap between the two commits, or the second claims afresh.
    let table_spec = TableSpec {
        lease_ms: if warm { 60 } else { 15 },
        ..spec(4)
    };
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, name, table_spec).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, name).unwrap();

    if warm {
        let mut w = t0.begin();
        w.write(3, &1u64.to_le_bytes()).unwrap();
        w.commit(&mut h0, &mut c0).unwrap();
    }
    let mut w = t0.begin();
    w.write(1, &7u64.to_le_bytes()).unwrap();
    w.write(2, &9u64.to_le_bytes()).unwrap();
    assert_eq!(
        w.commit_at(&mut h0, &mut c0, crash),
        Err(TxnError::Indeterminate)
    );
    assert_eq!(t0.stats().claims_kept, warm as u64);

    std::thread::sleep(Duration::from_millis(2 * table_spec.lease_ms));
    let mut r = t1.begin();
    let a = u64s(&r.read(&mut h1, &mut c1, 1).unwrap());
    let b = u64s(&r.read(&mut h1, &mut c1, 2).unwrap());
    r.commit(&mut h1, &mut c1).unwrap();

    // Locks must be fully reclaimed: a write transaction over the whole
    // table (including the crashed txn's records) commits cleanly.
    let mut sweep = t1.begin();
    for rec in 0..4 {
        let cur = u64s(&sweep.read(&mut h1, &mut c1, rec).unwrap());
        sweep.write(rec, &(cur + 1).to_le_bytes()).unwrap();
    }
    sweep.commit(&mut h1, &mut c1).unwrap();
    (a, b)
}

#[test]
fn crash_after_lock_rolls_back() {
    // Undecided at the crash: recovery steal-aborts; no write survives.
    assert_eq!(crash_and_recover(CrashPoint::AfterLock, "rec.lock"), (0, 0));
}

#[test]
fn crash_after_decide_rolls_forward() {
    // Decided committed: recovery replays the redo; both writes land.
    assert_eq!(
        crash_and_recover(CrashPoint::AfterDecide, "rec.decide"),
        (7, 9)
    );
}

#[test]
fn crash_mid_apply_completes_the_write_set() {
    // One payload applied, one not: recovery must finish the job — a
    // half-applied commit would be a serializability hole.
    assert_eq!(crash_and_recover(CrashPoint::MidApply, "rec.apply"), (7, 9));
}

#[test]
fn crash_mid_release_settles_the_rest() {
    assert_eq!(
        crash_and_recover(CrashPoint::MidRelease, "rec.release.both"),
        (7, 9)
    );
    // The release is a chain of version *writes*, and the crash cuts
    // between two of them: record 1 is released and readable at once,
    // record 2 still carries the lock word, the slot says COMMITTED —
    // under the lease of that epoch, exactly as a kept slot reads.
    let cluster = start();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let (name, table_spec) = ("rec.release", spec(4));
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, name, table_spec).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, name).unwrap();
    let mut w = t0.begin();
    w.write(1, &7u64.to_le_bytes()).unwrap();
    w.write(2, &9u64.to_le_bytes()).unwrap();
    assert_eq!(
        w.commit_at(&mut h0, &mut c0, CrashPoint::MidRelease),
        Err(TxnError::Indeterminate)
    );
    let raw = Raw::of(&mut h1, &mut c1, name, &table_spec);
    assert_eq!(raw.record(&mut h1, &mut c1, 1), (2, 7), "released");
    let (lock, payload) = raw.record(&mut h1, &mut c1, 2);
    assert_eq!((lock & 1, payload), (1, 9), "applied, still locked");
    assert_eq!(raw.scan(&mut h1, &mut c1), (1, 1));
    let mut early = t1.begin();
    assert_eq!(u64s(&early.read(&mut h1, &mut c1, 1).unwrap()), 7);
    early.commit(&mut h1, &mut c1).unwrap();

    // Recovery rolls record 2 forward from the redo and treats record 1
    // as settled: one bump each, no lock word and no busy slot left.
    expire_lease();
    let mut r = t1.begin();
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 2).unwrap()), 9);
    r.commit(&mut h1, &mut c1).unwrap();
    assert_eq!(raw.record(&mut h1, &mut c1, 1), (2, 7));
    assert_eq!(raw.record(&mut h1, &mut c1, 2), (2, 9));
    assert_eq!(raw.scan(&mut h1, &mut c1), (0, 0));
}

/// Every atomic of a commit loses its ack once — the two locks, and the
/// decide, which is the second chain's only atomic and its first op.
/// Each retry *resumes* at the atomic that lost its ack, its repeat a
/// deduplicated lookup: the NIC stops a chain right after that atomic's
/// apply, so the payload and version writes behind the decide go out
/// exactly once, on the retry, and nothing behind them can send any of
/// them out again. A "later committer" on a third node shows it: it
/// locks record 1 the moment the version write releases it, well inside
/// the retry backoff, and that lock word must still stand when the commit
/// returns. (A decide repeated without its dedup token would lose to its
/// own first apply, and the commit would not return `Ok`.)
#[test]
fn lost_decide_ack_lands_each_write_once() {
    let cluster = LiteCluster::start_with(
        IbConfig::with_nodes(3),
        LiteConfig {
            // Host-wall pacing between attempts: the later committer's
            // window.
            retry_base_ns: 100_000,
            ..Default::default()
        },
    )
    .unwrap();
    let mut h0 = cluster.attach(0).unwrap();
    let mut c0 = Ctx::new();
    // A lease that outlasts the test: the commit under faults starts on
    // the slot the warm-up kept, with no claim CAS.
    let table_spec = TableSpec {
        lease_ms: 60_000,
        ..TableSpec::new(4, 8)
    };
    let name = "rec.ack";
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, name, table_spec).unwrap();
    // Version 0 -> 2, fault-free: wires the QPs and leaves the handle the
    // slot it keeps.
    let mut warm = t0.begin();
    warm.write(1, &1u64.to_le_bytes()).unwrap();
    warm.write(2, &1u64.to_le_bytes()).unwrap();
    warm.commit(&mut h0, &mut c0).unwrap();

    let fake_lock = 0xdead_0001u64;
    let later = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h2 = cluster.attach(2).unwrap();
            let mut c2 = Ctx::new();
            let raw = Raw::of(&mut h2, &mut c2, name, &table_spec);
            let word = raw.rec_base + raw.rec_stride;
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while h2.lt_cmp_swap(&mut c2, raw.lh, word, 4, fake_lock).unwrap() != 4 {
                assert!(std::time::Instant::now() < deadline, "never released");
            }
        })
    };
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(1).with(FaultRule::DropAtomicAck {
            src: Some(0),
            dst: Some(1),
            prob: 1.0,
            max_drops: u64::MAX,
        }));
    let atomics = || cluster.kernel(1).lt_stats().nic.atomic_ops;
    let before = (atomics(), cluster.kernel(0).stats().retries);
    let mut w = t0.begin();
    w.write(1, &7u64.to_le_bytes()).unwrap();
    w.write(2, &9u64.to_le_bytes()).unwrap();
    w.commit(&mut h0, &mut c0).unwrap();
    let dropped = cluster.fabric().fault_stats().ack_drops;
    cluster.fabric().clear_fault_plan();
    later.join().unwrap();
    assert_eq!(dropped, 3, "two locks, decide");
    assert_eq!(cluster.kernel(0).stats().retries - before.1, 3);

    let mut h1 = cluster.attach(1).unwrap();
    let mut c1 = Ctx::new();
    let raw = Raw::of(&mut h1, &mut c1, name, &table_spec);
    assert_eq!(
        raw.record(&mut h1, &mut c1, 1),
        (fake_lock, 7),
        "a version write landed again, over the later committer's lock"
    );
    assert_eq!(raw.record(&mut h1, &mut c1, 2), (4, 9));
    // The later committer's own CASes are in this count; the commit's
    // share is three applies and three deduplicated repeats.
    assert!(atomics() - before.0 >= 6);
    assert_eq!(raw.scan(&mut h1, &mut c1), (1, 0), "only the fake lock");
}

#[test]
fn recovered_history_is_serializable() {
    // The indeterminate transaction plus the recovery-observing reads
    // must still admit a serial witness (the checker explores the
    // crashed txn both as committed and as never-happened).
    for (crash, name) in [
        (CrashPoint::AfterLock, "rec.hist.lock"),
        (CrashPoint::AfterDecide, "rec.hist.decide"),
        (CrashPoint::MidApply, "rec.hist.apply"),
    ] {
        let cluster = start();
        let mut h0 = cluster.attach(0).unwrap();
        let mut h1 = cluster.attach(1).unwrap();
        let mut c0 = Ctx::new();
        let mut c1 = Ctx::new();
        let log = Arc::new(TxnLog::new());
        let mut t0 = TxnTable::create(&mut h0, &mut c0, 1, name, spec(4)).unwrap();
        t0.arm_txn_log(log.clone());
        let mut t1 = TxnTable::open(&mut h1, &mut c1, name).unwrap();
        t1.arm_txn_log(log.clone());

        let mut w = t0.begin();
        w.write(1, &7u64.to_le_bytes()).unwrap();
        w.write(2, &9u64.to_le_bytes()).unwrap();
        let _ = w.commit_at(&mut h0, &mut c0, crash);
        expire_lease();

        let mut r = t1.begin();
        let _ = r.read(&mut h1, &mut c1, 1).unwrap();
        let _ = r.read(&mut h1, &mut c1, 2).unwrap();
        r.commit(&mut h1, &mut c1).unwrap();

        let out = log.take().check();
        assert!(out.is_serializable(), "{crash:?}: {:?}", out.violation);
        assert_eq!(out.indeterminate, 1, "{crash:?}");
    }
}

#[test]
fn slot_ring_exhaustion_is_scavenged() {
    // Two slots, two crashed committers holding both undecided: the
    // next committer must scavenge an expired slot (steal-abort + drain)
    // rather than fail forever.
    let cluster = start();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let table_spec = TableSpec {
        slots: 2,
        lease_ms: 15,
        ..TableSpec::new(8, 8)
    };
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, "rec.ring", table_spec).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, "rec.ring").unwrap();

    for rec in 0..2u64 {
        let mut w = t0.begin();
        w.write(rec * 2, &5u64.to_le_bytes()).unwrap();
        w.write(rec * 2 + 1, &5u64.to_le_bytes()).unwrap();
        assert_eq!(
            w.commit_at(&mut h0, &mut c0, CrashPoint::AfterLock),
            Err(TxnError::Indeterminate)
        );
    }
    expire_lease();

    // Both slots are stuck in flight; this commit needs one.
    let mut w = t1.begin();
    w.write(7, &1u64.to_le_bytes()).unwrap();
    w.commit(&mut h1, &mut c1).unwrap();

    // And the steal-aborted writes never became visible.
    let mut r = t1.begin();
    for rec in 0..4 {
        assert_eq!(u64s(&r.read(&mut h1, &mut c1, rec).unwrap()), 0);
    }
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 7).unwrap()), 1);
    r.commit(&mut h1, &mut c1).unwrap();
}

#[test]
fn live_lock_is_not_stolen_before_expiry() {
    // A *fresh* lock (healthy committer mid-flight) must not be
    // reclaimed: a reader arriving inside the lease waits it out and
    // then sees the settled outcome, never a torn state.
    let cluster = start();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let table_spec = TableSpec {
        lease_ms: 80,
        ..TableSpec::new(4, 8)
    };
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, "rec.live", table_spec).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, "rec.live").unwrap();

    let mut w = t0.begin();
    w.write(1, &7u64.to_le_bytes()).unwrap();
    w.write(2, &9u64.to_le_bytes()).unwrap();
    assert_eq!(
        w.commit_at(&mut h0, &mut c0, CrashPoint::AfterDecide),
        Err(TxnError::Indeterminate)
    );

    // Reader starts well inside the 80 ms lease. It must block until
    // expiry and then roll the decided txn forward — both records or
    // neither, never one of the two.
    let mut r = t1.begin();
    let a = u64s(&r.read(&mut h1, &mut c1, 1).unwrap());
    let b = u64s(&r.read(&mut h1, &mut c1, 2).unwrap());
    r.commit(&mut h1, &mut c1).unwrap();
    assert_eq!((a, b), (7, 9));
}

/// One read-modify-write of `rec` (+1) through `t`; the commit's result.
fn bump(t: &TxnTable, h: &mut lite::LiteHandle, ctx: &mut Ctx, rec: u64) -> Result<(), TxnError> {
    let mut w = t.begin();
    let cur = u64s(&w.read(h, ctx, rec)?);
    w.write(rec, &(cur + 1).to_le_bytes())?;
    w.commit(h, ctx)
}

/// A cluster with `n` handles (nodes 0 and 1 in turn) on a fresh
/// `slots`-slot table mastered on node 1.
#[allow(clippy::type_complexity)]
fn handles_on(
    name: &str,
    table_spec: TableSpec,
    n: usize,
) -> (Arc<LiteCluster>, Vec<(lite::LiteHandle, Ctx, TxnTable)>) {
    let cluster = start();
    let ends = (0..n)
        .map(|i| {
            let mut h = cluster.attach(i % 2).unwrap();
            let mut ctx = Ctx::new();
            let t = if i == 0 {
                TxnTable::create(&mut h, &mut ctx, 1, name, table_spec).unwrap()
            } else {
                TxnTable::open(&mut h, &mut ctx, name).unwrap()
            };
            (h, ctx, t)
        })
        .collect();
    (cluster, ends)
}

#[test]
fn kept_slot_of_a_vanished_handle_is_scavenged() {
    // Two handles commit once each and go away: both slots of the ring
    // are left kept — COMMITTED under a lease of the same epoch, with
    // nobody to start the next transaction on them. Once the leases they
    // were kept under run out they are anybody's.
    let table_spec = TableSpec {
        slots: 2,
        lease_ms: 15,
        ..TableSpec::new(4, 8)
    };
    let name = "rec.vanished";
    let (_cluster, mut ends) = handles_on(name, table_spec, 4);
    let (mut h2, mut c2, t2) = ends.pop().unwrap();
    let (mut h3, mut c3, t3) = ends.pop().unwrap();
    for (h, ctx, t) in &mut ends {
        bump(t, h, ctx, 0).unwrap();
    }
    let raw = Raw::of(&mut h2, &mut c2, name, &table_spec);
    assert!(raw.kept(&mut h2, &mut c2, 0) && raw.kept(&mut h2, &mut c2, 1));
    drop(ends);

    expire_lease();
    bump(&t2, &mut h2, &mut c2, 0).unwrap();
    assert_eq!(t2.stats().slots_scavenged, 2);
    // Both are reusable: one is this handle's now, the other takes a
    // second committer while that one's lease is live.
    bump(&t3, &mut h3, &mut c3, 0).unwrap();
    assert_eq!((t3.stats().slots_scavenged, t3.stats().claims_cas), (0, 1));
    assert!(raw.kept(&mut h2, &mut c2, 0) && raw.kept(&mut h2, &mut c2, 1));
    assert_eq!(raw.record(&mut h2, &mut c2, 0), (8, 4));
    assert_eq!(raw.scan(&mut h2, &mut c2), (0, 0));
}

#[test]
fn kept_slot_whose_next_commit_died_is_scavenged() {
    // A one-slot ring. Its owner commits once and keeps it `COMMITTED@e`;
    // its next commit dies holding record 1's lock, so the lease word says
    // `e+1` — one ahead of a header that is already decided. A second
    // handle needs the slot for record 3, which nobody locked: it must
    // steal-abort the dead transaction by a CAS from that very header,
    // roll its lock back, drain the slot and take it.
    let table_spec = TableSpec {
        slots: 1,
        lease_ms: 60,
        ..TableSpec::new(4, 8)
    };
    let name = "rec.kept.dead";
    let (_cluster, mut ends) = handles_on(name, table_spec, 2);
    let (mut hb, mut cb, tb) = ends.pop().unwrap();
    let (ha, ca, ta) = &mut ends[0];
    bump(ta, ha, ca, 0).unwrap();
    let mut w = ta.begin();
    w.write(1, &7u64.to_le_bytes()).unwrap();
    let crashed = w.commit_at(ha, ca, CrashPoint::AfterLock);
    assert_eq!(crashed, Err(TxnError::Indeterminate));
    assert_eq!(ta.stats().claims_kept, 1, "died on the kept slot");
    let raw = Raw::of(&mut hb, &mut cb, name, &table_spec);
    let slot = raw.slot(&mut hb, &mut cb, 0);
    assert_eq!((slot.0 & 0xf, lease_ahead(slot)), (2, 1));
    assert_eq!(raw.scan(&mut hb, &mut cb), (1, 1));

    std::thread::sleep(Duration::from_millis(2 * table_spec.lease_ms));
    bump(&tb, &mut hb, &mut cb, 3).unwrap();
    assert_eq!(tb.stats().slots_scavenged, 1);
    assert_eq!(raw.record(&mut hb, &mut cb, 1), (0, 0), "rolled back");
    assert_eq!(raw.record(&mut hb, &mut cb, 3), (2, 1));
    assert!(raw.kept(&mut hb, &mut cb, 0));
    assert_eq!(raw.scan(&mut hb, &mut cb), (0, 0));
}

#[test]
fn expired_keep_falls_back_to_the_claim_cas() {
    let table_spec = TableSpec {
        slots: 2,
        lease_ms: 100,
        ..TableSpec::new(4, 8)
    };
    let name = "rec.expired";
    let (cluster, mut ends) = handles_on(name, table_spec, 3);
    // The scavenger sits on the home node; the two owners' verbs all
    // cross its NIC, where they are counted.
    let (mut hc, mut cc, tc) = ends.remove(1);
    let raw = Raw::of(&mut hc, &mut cc, name, &table_spec);
    let atomics = || cluster.kernel(1).lt_stats().nic.atomic_ops;
    let idle = || std::thread::sleep(Duration::from_millis(150));

    // An owner that idles past its lease no longer trusts its slot: the
    // next commit re-claims it with exactly one CAS from the header it
    // left, the epoch bumped, on top of the steady state's two (one
    // lock, decide).
    let (ha, ca, ta) = &mut ends[0];
    bump(ta, ha, ca, 0).unwrap();
    let a = (0..2).find(|&s| raw.kept(&mut hc, &mut cc, s)).unwrap();
    let left = raw.slot(&mut hc, &mut cc, a).0;
    idle();
    let before = atomics();
    bump(ta, ha, ca, 0).unwrap();
    assert_eq!(atomics() - before, 3);
    assert_eq!((ta.stats().claims_cas, ta.stats().claims_kept), (2, 0));
    let now = raw.slot(&mut hc, &mut cc, a).0;
    assert!(raw.kept(&mut hc, &mut cc, a) && now >> 4 > (left >> 4) + 1);
    // Inside the lease the same slot costs no claim at all.
    let before = atomics();
    bump(ta, ha, ca, 0).unwrap();
    assert_eq!(atomics() - before, 2);

    // Now a scavenger takes it meanwhile. A second owner fills the ring,
    // both idle out, and a third handle scavenges both and keeps one.
    let (hb, cb, tb) = &mut ends[1];
    bump(tb, hb, cb, 1).unwrap();
    idle();
    bump(&tc, &mut hc, &mut cc, 2).unwrap();
    assert_eq!(tc.stats().slots_scavenged, 2);
    let taken = (0..2).find(|&s| raw.kept(&mut hc, &mut cc, s)).unwrap();
    // The slot's old owner comes back: its blind CAS loses to the new
    // owner's header, it claims the other slot, and not a word of the new
    // owner's header, lease or redo is overwritten.
    let (h, ctx, t) = &mut ends[if taken == a { 0 } else { 1 }];
    let words = |h: &mut lite::LiteHandle, ctx: &mut Ctx| {
        let off = raw.slot_off(taken);
        (0..raw.slot_size / 8)
            .map(|i| raw.word(h, ctx, off + i * 8))
            .collect::<Vec<_>>()
    };
    let theirs = words(&mut hc, &mut cc);
    let (before, claims) = (atomics(), t.stats().claims_cas);
    bump(t, h, ctx, 3).unwrap();
    assert_eq!(atomics() - before, 4, "lost CAS, claim, lock, decide");
    assert_eq!(t.stats().claims_cas, claims + 1);
    assert_eq!(words(&mut hc, &mut cc), theirs);
    assert!(raw.kept(&mut hc, &mut cc, 1 - taken));
    assert_eq!(raw.scan(&mut hc, &mut cc), (0, 0));
}

#[test]
fn more_handles_than_slots_all_commit() {
    // Four handles take turns on a two-slot ring: whoever holds no slot
    // waits out a lease, scavenges one, and the handle it took it from
    // does the same on its next turn. Everybody finishes, nothing is
    // lost, and the history is serializable.
    let table_spec = TableSpec {
        slots: 2,
        lease_ms: 10,
        ..TableSpec::new(4, 8)
    };
    const ROUNDS: u64 = 4;
    let (_cluster, mut ends) = handles_on("rec.crowd", table_spec, 4);
    let log = Arc::new(TxnLog::new());
    for (_, _, t) in &mut ends {
        t.arm_txn_log(log.clone());
    }
    for _ in 0..ROUNDS {
        for (h, ctx, t) in &mut ends {
            lite_txn::with_txn_retry(h, ctx, 1_000, |h, ctx| bump(t, h, ctx, 0)).unwrap();
        }
    }
    let (h, ctx, t) = &mut ends[0];
    let mut r = t.begin();
    assert_eq!(u64s(&r.read(h, ctx, 0).unwrap()), 4 * ROUNDS);
    r.commit(h, ctx).unwrap();
    let scavenged: u64 = ends.iter().map(|(_, _, t)| t.stats().slots_scavenged).sum();
    assert!(scavenged > 0, "four handles never fit two slots");
    let out = log.take().check();
    assert!(out.is_serializable(), "{:?}", out.violation);
    assert_eq!(out.committed as u64, 4 * ROUNDS + 1);
}

/// How far a slot's lease word runs ahead of its header, in epochs: 0
/// when its last transaction decided, 1 while one is in flight.
fn lease_ahead((hdr, lease): (u64, u64)) -> u64 {
    lease.wrapping_sub(hdr >> 4) & 0xffff
}

/// Whether a slot's `(header, lease word)` say kept and idle: COMMITTED
/// or ABORTED, at the epoch of its lease.
fn is_kept(slot: (u64, u64)) -> bool {
    matches!(slot.0 & 0xf, 2 | 3) && lease_ahead(slot) == 0
}

/// Raw view of a table's LMR (layout from `lite_txn::table`'s module
/// docs).
struct Raw {
    lh: lite::Lh,
    spec: TableSpec,
    slot_size: u64,
    rec_base: u64,
    rec_stride: u64,
}

impl Raw {
    fn of(h: &mut lite::LiteHandle, ctx: &mut Ctx, name: &str, spec: &TableSpec) -> Raw {
        let payload_p = (spec.payload as u64).div_ceil(8) * 8;
        let slot_size = 24 + spec.max_writes as u64 * (16 + payload_p);
        Raw {
            lh: h.lt_map(ctx, name).unwrap(),
            spec: *spec,
            slot_size,
            rec_base: 64 + spec.slots as u64 * slot_size,
            rec_stride: 8 + payload_p,
        }
    }

    fn word(&self, h: &mut lite::LiteHandle, ctx: &mut Ctx, off: u64) -> u64 {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.lh, off, &mut b).unwrap();
        u64::from_le_bytes(b)
    }

    /// `(version word, first payload word)` of record `r`.
    fn record(&self, h: &mut lite::LiteHandle, ctx: &mut Ctx, r: u64) -> (u64, u64) {
        let off = self.rec_base + r * self.rec_stride;
        (self.word(h, ctx, off), self.word(h, ctx, off + 8))
    }

    fn slot_off(&self, s: u64) -> u64 {
        64 + s * self.slot_size
    }

    /// `(header, lease word)` of slot `s`.
    fn slot(&self, h: &mut lite::LiteHandle, ctx: &mut Ctx, s: u64) -> (u64, u64) {
        let off = self.slot_off(s);
        (self.word(h, ctx, off), self.word(h, ctx, off + 8))
    }

    /// Whether slot `s` is kept and idle (`is_kept`).
    fn kept(&self, h: &mut lite::LiteHandle, ctx: &mut Ctx, s: u64) -> bool {
        is_kept(self.slot(h, ctx, s))
    }

    /// `(records whose version word is a lock word, slots stuck
    /// mid-commit: a lock word names them, or their lease is one epoch
    /// ahead of the header — in flight)`. The header alone cannot tell: a
    /// commit whose release was cut short leaves `COMMITTED` under the
    /// lease of its epoch, exactly as a kept slot reads.
    fn scan(&self, h: &mut lite::LiteHandle, ctx: &mut Ctx) -> (u64, u64) {
        let locks: Vec<u64> = (0..self.spec.records)
            .map(|r| self.record(h, ctx, r).0)
            .filter(|w| w & 1 == 1)
            .collect();
        let busy = (0..self.spec.slots as u64)
            .filter(|&s| {
                locks.iter().any(|w| (w >> 1) & 0xffff == s)
                    || lease_ahead(self.slot(h, ctx, s)) == 1
            })
            .count() as u64;
        (locks.len() as u64, busy)
    }
}

#[test]
fn losing_the_second_lock_gives_back_the_first() {
    // Eight read-2-write-2 transactions over records (1, 2) snapshot
    // both, then another committer takes record 2's lock and stalls.
    // Each of the eight wins lock 1 and loses lock 2 in the same chain:
    // it must give lock 1 back, settle its own slot, and report a clean
    // conflict — never wait on 2 while holding 1, never leak either.
    let cluster = start();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let table_spec = TableSpec {
        lease_ms: 150,
        ..TableSpec::new(4, 8)
    };
    let name = "rec.second";
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, name, table_spec).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, name).unwrap();

    let mut losers = Vec::new();
    for i in 0..8u64 {
        let mut t = t1.begin();
        for rec in [1, 2] {
            assert_eq!(u64s(&t.read(&mut h1, &mut c1, rec).unwrap()), 0);
            t.write(rec, &(100 + i).to_le_bytes()).unwrap();
        }
        losers.push(t);
    }
    let mut blocker = t0.begin();
    blocker.write(2, &9u64.to_le_bytes()).unwrap();
    assert_eq!(
        blocker.commit_at(&mut h0, &mut c0, CrashPoint::AfterLock),
        Err(TxnError::Indeterminate)
    );
    for t in losers {
        assert_eq!(
            t.commit(&mut h1, &mut c1),
            Err(TxnError::Conflict { validation: false })
        );
    }
    // Only the stalled committer's lock and slot are left.
    let raw = Raw::of(&mut h1, &mut c1, name, &table_spec);
    assert_eq!(raw.scan(&mut h1, &mut c1), (1, 1));

    // Its lease runs out; the next reader settles it. Nothing is left.
    std::thread::sleep(Duration::from_millis(200));
    let mut r = t1.begin();
    for rec in 0..4 {
        assert_eq!(u64s(&r.read(&mut h1, &mut c1, rec).unwrap()), 0);
    }
    r.commit(&mut h1, &mut c1).unwrap();
    assert_eq!(raw.scan(&mut h1, &mut c1), (0, 0));
}

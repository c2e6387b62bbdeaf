//! Crash-of-committer recovery: a commit abandoned at every protocol
//! stage must be settled by the next transaction that runs into its
//! expired lock words — rolled back before the decision point, rolled
//! forward after it — and every CAS lock word must be reclaimed.

use std::sync::Arc;
use std::time::Duration;

use lite::{LiteCluster, TxnLog};
use lite_txn::{CrashPoint, TableSpec, TxnError, TxnTable};
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
/// return what the recovered table holds.
fn crash_and_recover(crash: CrashPoint, name: &str) -> (u64, u64) {
    let cluster = start();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, name, spec(4)).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, name).unwrap();

    let mut w = t0.begin();
    w.write(1, &7u64.to_le_bytes()).unwrap();
    w.write(2, &9u64.to_le_bytes()).unwrap();
    assert_eq!(
        w.commit_at(&mut h0, &mut c0, crash),
        Err(TxnError::Indeterminate)
    );

    expire_lease();
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
    // All payloads applied, one lock released: recovery reclaims the
    // remaining lock word without double-bumping the released one.
    assert_eq!(
        crash_and_recover(CrashPoint::MidRelease, "rec.release"),
        (7, 9)
    );
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

    // Both slots are stuck UNDECIDED; this commit needs one.
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

/// Raw scan of a table's LMR (layout from `lite_txn::table`'s module
/// docs): `(records whose version word is a lock word, slots left
/// UNDECIDED or COMMITTED)`.
fn scan(h: &mut lite::LiteHandle, ctx: &mut Ctx, name: &str, spec: &TableSpec) -> (u64, u64) {
    let payload_p = (spec.payload as u64).div_ceil(8) * 8;
    let slot_size = 24 + spec.max_writes as u64 * (16 + payload_p);
    let rec_base = 64 + spec.slots as u64 * slot_size;
    let lh = h.lt_map(ctx, name).unwrap();
    let mut word = |off: u64| {
        let mut b = [0u8; 8];
        h.lt_read(ctx, lh, off, &mut b).unwrap();
        u64::from_le_bytes(b)
    };
    let locked = (0..spec.records)
        .filter(|r| word(rec_base + r * (8 + payload_p)) & 1 == 1)
        .count() as u64;
    let busy = (0..spec.slots as u64)
        .filter(|s| matches!(word(64 + s * slot_size) & 0xf, 1 | 2))
        .count() as u64;
    (locked, busy)
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
    assert_eq!(scan(&mut h1, &mut c1, name, &table_spec), (1, 1));

    // Its lease runs out; the next reader settles it. Nothing is left.
    std::thread::sleep(Duration::from_millis(200));
    let mut r = t1.begin();
    for rec in 0..4 {
        assert_eq!(u64s(&r.read(&mut h1, &mut c1, rec).unwrap()), 0);
    }
    r.commit(&mut h1, &mut c1).unwrap();
    assert_eq!(scan(&mut h1, &mut c1, name, &table_spec), (0, 0));
}

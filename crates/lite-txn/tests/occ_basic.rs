//! Core OCC semantics: atomic visibility, read-your-writes, conflicts,
//! validation, and the stats surface.

use std::sync::Arc;

use lite::{LiteCluster, TxnHistory, TxnLog};
use lite_txn::{CrashPoint, TableSpec, TxnError, TxnTable};
use simnet::Ctx;

fn start(nodes: usize) -> Arc<LiteCluster> {
    LiteCluster::start(nodes).unwrap()
}

fn u64s(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

#[test]
fn commit_makes_writes_atomically_visible() {
    let cluster = start(2);
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, "txn.basic", TableSpec::new(8, 8)).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, "txn.basic").unwrap();

    // Stage two writes; nothing is visible before commit.
    let mut w = t0.begin();
    w.write(2, &7u64.to_le_bytes()).unwrap();
    w.write(5, &9u64.to_le_bytes()).unwrap();
    let mut r = t1.begin();
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 2).unwrap()), 0);
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 5).unwrap()), 0);
    r.commit(&mut h1, &mut c1).unwrap();

    w.commit(&mut h0, &mut c0).unwrap();
    let mut r = t1.begin();
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 2).unwrap()), 7);
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 5).unwrap()), 9);
    r.commit(&mut h1, &mut c1).unwrap();
}

#[test]
fn read_your_own_writes() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.ryw", TableSpec::new(4, 8)).unwrap();

    let mut txn = t.begin();
    assert_eq!(u64s(&txn.read(&mut h, &mut ctx, 1).unwrap()), 0);
    txn.write(1, &42u64.to_le_bytes()).unwrap();
    assert_eq!(u64s(&txn.read(&mut h, &mut ctx, 1).unwrap()), 42);
    txn.commit(&mut h, &mut ctx).unwrap();
}

#[test]
fn stale_read_set_fails_validation() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.stale", TableSpec::new(4, 8)).unwrap();

    // T1 reads record 0 then record 1; between the two, T2 commits a
    // write to record 0. T1's write-commit must fail validation.
    let mut t1 = t.begin();
    let _ = t1.read(&mut h, &mut ctx, 0).unwrap();
    let mut t2 = t.begin();
    t2.write(0, &5u64.to_le_bytes()).unwrap();
    t2.commit(&mut h, &mut ctx).unwrap();
    let _ = t1.read(&mut h, &mut ctx, 1).unwrap();
    t1.write(1, &6u64.to_le_bytes()).unwrap();
    assert_eq!(
        t1.commit(&mut h, &mut ctx),
        Err(TxnError::Conflict { validation: true })
    );

    // The abort unwound cleanly: record 1 is untouched and writable.
    let mut t3 = t.begin();
    assert_eq!(u64s(&t3.read(&mut h, &mut ctx, 1).unwrap()), 0);
    t3.write(1, &8u64.to_le_bytes()).unwrap();
    t3.commit(&mut h, &mut ctx).unwrap();
}

#[test]
fn read_only_txn_validates_too() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.ro", TableSpec::new(4, 8)).unwrap();

    let mut ro = t.begin();
    let _ = ro.read(&mut h, &mut ctx, 0).unwrap();
    let mut w = t.begin();
    w.write(0, &1u64.to_le_bytes()).unwrap();
    w.commit(&mut h, &mut ctx).unwrap();
    assert_eq!(
        ro.commit(&mut h, &mut ctx),
        Err(TxnError::Conflict { validation: true })
    );
}

#[test]
fn lost_update_is_impossible() {
    // Two increments racing on one record: OCC must serialize them —
    // one may abort and retry, but the final value counts both.
    let cluster = start(2);
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, "txn.incr", TableSpec::new(2, 8)).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, "txn.incr").unwrap();

    // Interleave: both read 0, both try to write 1; the loser retries.
    let mut a = t0.begin();
    let va = u64s(&a.read(&mut h0, &mut c0, 0).unwrap());
    let mut b = t1.begin();
    let vb = u64s(&b.read(&mut h1, &mut c1, 0).unwrap());
    a.write(0, &(va + 1).to_le_bytes()).unwrap();
    b.write(0, &(vb + 1).to_le_bytes()).unwrap();
    assert!(a.commit(&mut h0, &mut c0).is_ok());
    assert!(matches!(
        b.commit(&mut h1, &mut c1),
        Err(TxnError::Conflict { .. })
    ));
    // The loser's retry sees the winner's value.
    let mut b = t1.begin();
    let vb = u64s(&b.read(&mut h1, &mut c1, 0).unwrap());
    assert_eq!(vb, 1);
    b.write(0, &(vb + 1).to_le_bytes()).unwrap();
    b.commit(&mut h1, &mut c1).unwrap();

    let mut r = t0.begin();
    assert_eq!(u64s(&r.read(&mut h0, &mut c0, 0).unwrap()), 2);
    r.commit(&mut h0, &mut c0).unwrap();
}

#[test]
fn explicit_abort_leaves_no_trace() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.abort", TableSpec::new(2, 8)).unwrap();

    let mut a = t.begin();
    a.write(0, &99u64.to_le_bytes()).unwrap();
    a.abort(&mut h, &mut ctx);
    let mut r = t.begin();
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, 0).unwrap()), 0);
    r.commit(&mut h, &mut ctx).unwrap();
}

#[test]
fn write_set_is_bounded_by_max_writes() {
    // The redo area holds `max_writes` entries a slot; the bound lives in
    // the table's header, so a handle that opens the table by name
    // enforces the creator's bound.
    let cluster = start(2);
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let spec = TableSpec {
        max_writes: 2,
        ..TableSpec::new(4, 8)
    };
    TxnTable::create(&mut h0, &mut c0, 1, "txn.bound", spec).unwrap();
    let t = TxnTable::open(&mut h1, &mut c1, "txn.bound").unwrap();
    assert_eq!(t.spec().max_writes, 2);

    let mut big = t.begin();
    for rec in 0..3u64 {
        big.write(rec, &7u64.to_le_bytes()).unwrap();
    }
    assert!(matches!(
        big.commit(&mut h1, &mut c1),
        Err(TxnError::Invalid(_))
    ));
    let mut ok = t.begin();
    ok.write(0, &1u64.to_le_bytes()).unwrap();
    ok.write(1, &2u64.to_le_bytes()).unwrap();
    ok.commit(&mut h1, &mut c1).unwrap();

    let mut r = t.begin();
    let got: Vec<u64> = (0..3)
        .map(|rec| u64s(&r.read(&mut h1, &mut c1, rec).unwrap()))
        .collect();
    r.commit(&mut h1, &mut c1).unwrap();
    assert_eq!(got, [1, 2, 0], "the refused write set left no trace");
}

#[test]
fn stats_gauges_count_commits_and_aborts() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.stats", TableSpec::new(4, 8)).unwrap();

    let mut a = t.begin();
    a.write(0, &1u64.to_le_bytes()).unwrap();
    a.commit(&mut h, &mut ctx).unwrap();

    let mut ro = t.begin();
    let _ = ro.read(&mut h, &mut ctx, 0).unwrap();
    let mut w = t.begin();
    w.write(0, &2u64.to_le_bytes()).unwrap();
    w.commit(&mut h, &mut ctx).unwrap();
    let _ = ro.commit(&mut h, &mut ctx); // validation abort

    let mut e = t.begin();
    e.write(1, &3u64.to_le_bytes()).unwrap();
    e.abort(&mut h, &mut ctx); // explicit abort

    let ks = h.lt_stats().kernel;
    assert_eq!(ks.txn_commits, 2);
    assert_eq!(ks.txn_aborts, 2);
    assert_eq!(ks.txn_validation_fails, 1);
}

/// Which verbs a commit spends at the home node, read off the home's own
/// `lt_stats()`: validation is word reads, release is version writes and
/// the decide carries the slot to its next epoch, so a read-only commit
/// costs the home NIC no atomic at all and an uncontended read-2-write-2
/// exactly three — two locks and the decide. Only the first on a handle
/// pays a fourth, the claim CAS. An abort on a lost lock gives back the
/// `won` locks and finalizes its slot: `won + 1`.
#[test]
fn home_nic_atomics_per_commit() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut hb = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // A lease no host stall between two commits outlasts: a kept slot
    // whose lease ran out costs a claim CAS again.
    let spec = TableSpec {
        lease_ms: 60_000,
        ..TableSpec::new(8, 8)
    };
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.verbs", spec).unwrap();
    let home_atomics = || cluster.kernel(1).lt_stats().nic.atomic_ops;

    let before = home_atomics();
    for i in 0..100u64 {
        let mut ro = t.begin();
        ro.read(&mut h, &mut ctx, i % 8).unwrap();
        ro.read(&mut h, &mut ctx, (i + 3) % 8).unwrap();
        ro.commit(&mut h, &mut ctx).unwrap();
    }
    assert_eq!(home_atomics() - before, 0, "read-only commits");

    for i in 0..100u64 {
        let (a, b) = (i % 8, (i + 3) % 8);
        let before = home_atomics();
        let mut rw = t.begin();
        let va = u64s(&rw.read(&mut h, &mut ctx, a).unwrap());
        let vb = u64s(&rw.read(&mut h, &mut ctx, b).unwrap());
        rw.write(a, &va.wrapping_add(1).to_le_bytes()).unwrap();
        rw.write(b, &vb.wrapping_sub(1).to_le_bytes()).unwrap();
        rw.commit(&mut h, &mut ctx).unwrap();
        let expect = if i == 0 { 4 } else { 3 };
        assert_eq!(home_atomics() - before, expect, "read-2-write-2 commit {i}");
    }
    let mut sum = t.begin();
    let total = (0..8).fold(0u64, |acc, r| {
        acc.wrapping_add(u64s(&sum.read(&mut h, &mut ctx, r).unwrap()))
    });
    sum.commit(&mut h, &mut ctx).unwrap();
    assert_eq!(total, 0, "every transfer landed whole");
    // The handle's own counters tell the same story without a verb.
    let stats = t.stats();
    assert_eq!((stats.commits, stats.aborts), (201, 0));
    assert_eq!((stats.claims_cas, stats.claims_kept), (1, 99));
    assert_eq!(stats.slots_scavenged, 0);

    // A second handle locks record 7 and stalls there. A read-2-write-2
    // over (6, 7) that snapshot both first wins 6 and loses 7: two lock
    // CASes, then the abort chain — 6 back, the slot `ABORTED`.
    let tb = TxnTable::open(&mut hb, &mut ctx, "txn.verbs").unwrap();
    let mut rw = t.begin();
    for r in [6, 7] {
        let v = u64s(&rw.read(&mut h, &mut ctx, r).unwrap());
        rw.write(r, &v.wrapping_add(1).to_le_bytes()).unwrap();
    }
    let mut blocker = tb.begin();
    blocker.write(7, &1u64.to_le_bytes()).unwrap();
    let stalled = blocker.commit_at(&mut hb, &mut ctx, CrashPoint::AfterLock);
    assert_eq!(stalled, Err(TxnError::Indeterminate));
    let before = home_atomics();
    assert_eq!(
        rw.commit(&mut h, &mut ctx),
        Err(TxnError::Conflict { validation: false })
    );
    let (locks, won) = (2, 1);
    assert_eq!(home_atomics() - before, locks + won + 1, "lost-lock abort");
    // The abort kept the slot: the next commit pays no claim.
    let before = home_atomics();
    let mut rw = t.begin();
    rw.write(0, &5u64.to_le_bytes()).unwrap();
    rw.write(1, &5u64.to_le_bytes()).unwrap();
    rw.commit(&mut h, &mut ctx).unwrap();
    assert_eq!(home_atomics() - before, 3, "read-2-write-2 after an abort");
    assert_eq!((t.stats().claims_cas, t.stats().claims_kept), (1, 101));
}

#[test]
fn armed_log_yields_serializable_history() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let log = Arc::new(TxnLog::new());
    let mut t = TxnTable::create(&mut h, &mut ctx, 1, "txn.log", TableSpec::new(4, 8)).unwrap();
    t.arm_txn_log(log.clone());

    for i in 1..=4u64 {
        let mut w = t.begin();
        let cur = u64s(&w.read(&mut h, &mut ctx, 0).unwrap());
        w.write(0, &(cur + i).to_le_bytes()).unwrap();
        w.commit(&mut h, &mut ctx).unwrap();
    }
    let history: TxnHistory = log.take();
    assert_eq!(history.txns.len(), 4);
    let out = history.check();
    assert!(out.is_serializable(), "{:?}", out.violation);
    assert_eq!(out.committed, 4);
}

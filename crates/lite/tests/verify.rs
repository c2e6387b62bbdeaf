//! Integration tests for the linearizability verifier ([`lite::verify`])
//! and the lock/cleanup fault-path fixes it guards.
//!
//! The deterministic fault scenarios here replay the exact failure modes
//! the bugfix sweep closed: a release whose ack is dropped (must retry
//! without granting a second waiter) and an acquire that times out in
//! the owner's queue (must unwind its lock-word increment). Each run is
//! recorded and fed through the history checker, so the assertions are
//! not just liveness — the interleaving itself is certified.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lite::{fingerprint, ChainOp, LiteCluster, LiteConfig, LiteError, OpKind, Perm};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

fn quick_config(op_timeout: Duration) -> LiteConfig {
    LiteConfig {
        op_timeout,
        ..LiteConfig::default()
    }
}

/// A release whose ack is dropped must be retried by the unlocker and
/// deduplicated by the owner: the waiter is granted exactly once, nothing
/// leaks, and the recorded history linearizes.
#[test]
fn unlock_handover_survives_dropped_ack() {
    let mut config = quick_config(Duration::from_millis(300));
    // Disable the transparent datapath retry layer: this test exercises
    // the API-level release retry + owner-side dedup, which only engage
    // once a reply is truly lost.
    config.retry_enabled = false;
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap();
    let log = cluster.record_history();

    let mut owner = cluster.attach(0).unwrap();
    let mut ctx0 = Ctx::new();
    let lock = owner.lt_create_lock(&mut ctx0).unwrap();

    // A (node 1) takes the lock on the fast path.
    let mut a = cluster.attach(1).unwrap();
    let mut ctx_a = Ctx::new();
    a.lt_lock(&mut ctx_a, lock).unwrap();

    // B (node 0) contends and parks in the owner's queue.
    let b_granted = Arc::new(AtomicBool::new(false));
    let b_thread = {
        let cluster = Arc::clone(&cluster);
        let b_granted = Arc::clone(&b_granted);
        std::thread::spawn(move || {
            let mut b = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            b.lt_lock(&mut ctx, lock).unwrap();
            b_granted.store(true, Ordering::SeqCst);
            b.lt_unlock(&mut ctx, lock).unwrap();
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !b_granted.load(Ordering::SeqCst),
        "B must still be queued while A holds the lock"
    );

    // Drop the next owner->A WR: the release ack of A's first unlock
    // attempt (consuming the request sends nothing). The grant to B
    // (loop-back on the owner) is unaffected, so B wakes while A's ack is
    // lost.
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(1).with(FaultRule::DropWr {
            src: Some(0),
            dst: Some(1),
            prob: 1.0,
            max_drops: 1,
        }));
    a.lt_unlock(&mut ctx_a, lock).unwrap();
    b_thread.join().unwrap();
    assert!(
        cluster.fabric().fault_stats().drops >= 1,
        "fault never fired"
    );
    cluster.fabric().clear_fault_plan();

    for n in 0..2 {
        let stats = cluster.kernel(n).stats();
        assert_eq!(stats.sync_leaks, 0, "node {n} leaked sync state");
        assert_eq!(stats.lock_unwinds, 0, "node {n} unwound a healthy acquire");
    }

    // The lock is free and reusable: the duplicate release must not have
    // pre-granted a phantom waiter.
    a.lt_lock(&mut ctx_a, lock).unwrap();
    a.lt_unlock(&mut ctx_a, lock).unwrap();

    let outcome = log.take().check();
    assert!(
        outcome.is_linearizable(),
        "history not linearizable: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.skipped, 0, "no partition should be ambiguous");
}

/// An acquire that times out while queued must abort its enqueue and
/// unwind its lock-word increment, leaving the lock healthy for the
/// holder and for future acquirers.
#[test]
fn lock_timeout_abort_unwinds_word() {
    let cluster = LiteCluster::start_with(
        IbConfig::with_nodes(2),
        quick_config(Duration::from_millis(150)),
    )
    .unwrap();
    let log = cluster.record_history();

    let mut holder = cluster.attach(0).unwrap();
    let mut ctx_h = Ctx::new();
    let lock = holder.lt_create_lock(&mut ctx_h).unwrap();
    holder.lt_lock(&mut ctx_h, lock).unwrap();

    // The waiter gives up after 150ms; the holder sits on the lock for
    // 400ms, so the wait deterministically expires first.
    let waiter = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut w = cluster.attach(1).unwrap();
            let mut ctx = Ctx::new();
            w.lt_lock(&mut ctx, lock)
        })
    };
    std::thread::sleep(Duration::from_millis(400));
    let waited = waiter.join().unwrap();
    assert!(matches!(waited, Err(LiteError::Timeout)), "got {waited:?}");
    assert_eq!(
        cluster.kernel(1).stats().lock_unwinds,
        1,
        "the failed acquire must roll its fetch_add back"
    );
    assert_eq!(cluster.kernel(1).stats().sync_leaks, 0);

    // The holder's unlock takes the fast path (the word is back to 1),
    // and the lock keeps working for everyone afterwards.
    holder.lt_unlock(&mut ctx_h, lock).unwrap();
    let mut late = cluster.attach(1).unwrap();
    let mut ctx_l = Ctx::new();
    late.lt_lock(&mut ctx_l, lock).unwrap();
    late.lt_unlock(&mut ctx_l, lock).unwrap();

    let outcome = log.take().check();
    assert!(
        outcome.is_linearizable(),
        "history not linearizable: {:?}",
        outcome.violations
    );
}

/// Reusing a barrier id after a generation completes must form a fresh
/// generation, never mix arrivals across generations (satellite of the
/// verifier work: the checker's generation chunking certifies it).
#[test]
fn barrier_id_reuse_forms_fresh_generations() {
    let cluster = LiteCluster::start(3).unwrap();
    let log = cluster.record_history();

    for _round in 0..4 {
        let mut threads = Vec::new();
        for node in 0..3 {
            let cluster = Arc::clone(&cluster);
            threads.push(std::thread::spawn(move || {
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                // Same id every round: each completed generation must
                // retire owner-side state so the next one starts clean.
                h.lt_barrier(&mut ctx, 9, 3).unwrap();
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    let history = log.take();
    assert_eq!(history.ops.len(), 12, "4 generations x 3 arrivals");
    let outcome = history.check();
    assert!(
        outcome.is_linearizable(),
        "barrier generations overlap: {:?}",
        outcome.violations
    );
}

/// An 8-byte atomic that spans two chunks of a multi-chunk LMR must be
/// rejected with the real offset, not the bogus `OutOfBounds {{ offset:
/// 0 }}` the old `single_piece` produced.
#[test]
fn atomic_straddling_chunk_boundary_reports_real_offset() {
    let config = LiteConfig {
        max_lmr_chunk: 4096,
        ..LiteConfig::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 8192, "straddle", Perm::RW)
        .unwrap();

    // Fully inside the first chunk: fine.
    assert_eq!(h.lt_fetch_add(&mut ctx, lh, 4088, 5).unwrap(), 0);
    // Spanning [4092, 4100): must name the offending offset.
    assert_eq!(
        h.lt_fetch_add(&mut ctx, lh, 4092, 1),
        Err(LiteError::StraddlesChunk {
            offset: 4092,
            len: 8
        })
    );
    assert_eq!(
        h.lt_test_set(&mut ctx, lh, 4092, 0, 7),
        Err(LiteError::StraddlesChunk {
            offset: 4092,
            len: 8
        })
    );
    // First word of the second chunk: fine again.
    assert_eq!(h.lt_test_set(&mut ctx, lh, 4096, 0, 7).unwrap(), 0);
}

/// End-to-end smoke of the canonical mixed workload: one seeded run,
/// recorded and certified by the checker.
#[test]
fn mixed_workload_records_linearizable_history() {
    let w = lite::verify::MixedWorkload::default();
    let history = lite::verify::run_mixed(0xC0FFEE, &w).unwrap();
    assert!(!history.ops.is_empty(), "workload recorded nothing");
    let outcome = history.check();
    assert!(
        outcome.is_linearizable(),
        "mixed workload not linearizable: {:?}",
        outcome.violations
    );
}

/// An armed history carries the payload fingerprints of `lt_write`,
/// `lt_read` and the reads and writes of an `lt_chain` — computed only
/// because a log is armed, and the same values the register spec has
/// always been checked against.
#[test]
fn armed_history_fingerprints_every_payload() {
    let cluster = LiteCluster::start(2).unwrap();
    let log = cluster.record_history();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "fp", Perm::RW).unwrap();
    let (first, second) = ([0xA5u8; 100], [0x3Cu8; 24]);
    h.lt_write(&mut ctx, lh, 0, &first).unwrap();
    let mut back = [0u8; 100];
    h.lt_read(&mut ctx, lh, 0, &mut back).unwrap();
    let mut untouched = [1u8; 16];
    h.lt_read(&mut ctx, lh, 2048, &mut untouched).unwrap();
    let mut got = [0u8; 24];
    let mut chain = [
        ChainOp::Write {
            off: 512,
            data: &second,
        },
        ChainOp::Read {
            off: 512,
            buf: &mut got,
        },
    ];
    h.lt_chain(&mut ctx, lh, &mut chain).unwrap();
    assert_eq!(got, second);

    let kinds: Vec<OpKind> = log.take().ops.iter().map(|op| op.kind).collect();
    let (fp1, fp2) = (fingerprint(&first), fingerprint(&second));
    assert!(fp1 != 0 && fp2 != 0 && fp1 != fp2);
    assert_eq!(
        kinds,
        [
            OpKind::Write { fp: fp1 },
            OpKind::Read { fp: fp1 },
            OpKind::Read { fp: 0 }, // never-written memory reads as zeroes
            OpKind::Write { fp: fp2 },
            OpKind::Read { fp: fp2 },
        ]
    );
}

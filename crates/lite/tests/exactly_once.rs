//! End-to-end exactly-once atomics through the kernel's retry layer.
//!
//! `DropAtomicAck` faults drop the *response* leg of remote atomics —
//! the apply has landed when the requester sees the timeout. The
//! datapath mints one sequence per logical op outside `with_retry` and
//! tags every attempt with it, so the responder NIC's dedup filter turns
//! the retry into a replay of the one real apply. These tests drive the
//! full stack (`lt_fetch_add` / `lt_test_set` / `lt_cmp_swap` →
//! datapath → verbs) under seeded ack loss and assert no double-apply.

use lite::{LiteCluster, LiteConfig, Perm};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

fn cluster_with_retry() -> std::sync::Arc<LiteCluster> {
    let config = LiteConfig {
        retry_base_ns: 500,
        ..LiteConfig::default()
    };
    LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap()
}

fn ack_plan(seed: u64, prob: f64, max_drops: u64) -> FaultPlan {
    FaultPlan::seeded(seed).with(FaultRule::DropAtomicAck {
        src: Some(0),
        dst: Some(1),
        prob,
        max_drops,
    })
}

/// Every lost ack forces a retry; the counter must still advance by
/// exactly one per logical op, and the returned old values must be the
/// exact sequence 0, 1, 2, ... (any double-apply skips a value).
#[test]
fn fetch_add_exactly_once_under_ack_loss() {
    let cluster = cluster_with_retry();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "eo.fa", Perm::RW).unwrap();

    cluster.fabric().install_fault_plan(ack_plan(7, 0.5, 16));
    let n = 64u64;
    for i in 0..n {
        let old = h.lt_fetch_add(&mut ctx, lh, 0, 1).unwrap();
        assert_eq!(old, i, "old value stream must have no gaps or repeats");
    }
    // Stats are owned by the installed plan — read them before clearing.
    let stats = cluster.fabric().fault_stats();
    cluster.fabric().clear_fault_plan();

    let mut word = [0u8; 8];
    h.lt_read(&mut ctx, lh, 0, &mut word).unwrap();
    assert_eq!(u64::from_le_bytes(word), n, "applied exactly once each");
    assert!(stats.ack_drops > 0, "the plan must actually have fired");
    let ks = h.lt_stats().kernel;
    assert!(ks.retries > 0, "lost acks must have forced retries");
}

/// A CAS chain i -> i+1 survives ack loss: a retried winning CAS must
/// report its original success (a re-execution would see the swapped
/// word and report a spurious failure, derailing the chain).
#[test]
fn cmp_swap_chain_exactly_once_under_ack_loss() {
    let cluster = cluster_with_retry();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "eo.cas", Perm::RW).unwrap();

    cluster.fabric().install_fault_plan(ack_plan(13, 0.5, 16));
    let n = 48u64;
    for i in 0..n {
        let old = h.lt_cmp_swap(&mut ctx, lh, 0, i, i + 1).unwrap();
        assert_eq!(old, i, "every CAS in the chain must win exactly once");
    }
    let stats = cluster.fabric().fault_stats();
    cluster.fabric().clear_fault_plan();

    let mut word = [0u8; 8];
    h.lt_read(&mut ctx, lh, 0, &mut word).unwrap();
    assert_eq!(u64::from_le_bytes(word), n);
    assert!(stats.ack_drops > 0);
}

/// `lt_test_set` (the paper-surface alias of `lt_cmp_swap`) gets the
/// same exactly-once treatment: a lock word acquired under ack loss is
/// held once, not twice.
#[test]
fn test_set_exactly_once_under_ack_loss() {
    let cluster = cluster_with_retry();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "eo.ts", Perm::RW).unwrap();

    cluster.fabric().install_fault_plan(ack_plan(29, 1.0, 4));
    // Acquire (0 -> 1): ack dropped, retried, must still report old = 0.
    assert_eq!(h.lt_test_set(&mut ctx, lh, 0, 0, 1).unwrap(), 0);
    // Re-acquire attempt fails cleanly: the word is 1, exactly once.
    assert_eq!(h.lt_test_set(&mut ctx, lh, 0, 0, 1).unwrap(), 1);
    // Release (1 -> 0) under ack loss, then verify.
    assert_eq!(h.lt_test_set(&mut ctx, lh, 0, 1, 0).unwrap(), 1);
    cluster.fabric().clear_fault_plan();

    let mut word = [0u8; 8];
    h.lt_read(&mut ctx, lh, 0, &mut word).unwrap();
    assert_eq!(u64::from_le_bytes(word), 0);
}

/// The atomic history recorded under ack loss stays linearizable: Ok
/// completions correspond to exactly one apply each, so the checker
/// finds a witness (a double-apply would leave a gap no order explains).
#[test]
fn atomic_history_linearizable_under_ack_loss() {
    let cluster = cluster_with_retry();
    let log = cluster.record_history();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "eo.hist", Perm::RW).unwrap();

    cluster.fabric().install_fault_plan(ack_plan(99, 0.3, 8));
    for i in 0..32u64 {
        if i % 3 == 0 {
            let _ = h.lt_cmp_swap(&mut ctx, lh, 0, i, i + 1);
        } else {
            let _ = h.lt_fetch_add(&mut ctx, lh, 0, 1);
        }
    }
    cluster.fabric().clear_fault_plan();

    let history = log.take();
    assert!(!history.ops.is_empty());
    let outcome = history.check();
    assert!(
        outcome.is_linearizable(),
        "exactly-once atomics must stay linearizable: {:?}",
        outcome.violations
    );
}

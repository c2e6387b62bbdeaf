//! Exactly-once semantics for atomics under lost-ACK faults.
//!
//! `FaultRule::DropAtomicAck` models the window the request-leg gate
//! cannot: the responder applied the atomic, but the completion never
//! reached the requester. A blind retry of an *untagged* verb then
//! double-applies; a *tagged* atomic (`Wr::{FetchAdd, CmpSwap}` with
//! `token: Some(..)`, posted through `Nic::post_chain` as LITE posts it)
//! carries a per-logical-op sequence the responder memoizes, so a retry
//! returns the original old value instead.

use std::sync::Arc;

use parking_lot::Mutex;
use rnic::{
    Access, FaultPlan, FaultRule, IbConfig, IbFabric, Qp, RemoteAddr, VerbsError, VerbsResult, Wr,
    ATOMIC_MEMO_WINDOW,
};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator};

fn setup() -> (Arc<IbFabric>, u64, RemoteAddr) {
    let fabric = IbFabric::new(IbConfig::with_nodes(2));
    let space = Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
        0,
        1 << 20,
    )))));
    let mut ctx = Ctx::new();
    let va = space.mmap(4096).unwrap();
    let mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &space, va, 4096, Access::RW)
        .unwrap();
    let pa = space.translate(va).unwrap();
    fabric.mem(1).store_u64(pa, 0).unwrap();
    let remote = RemoteAddr {
        rkey: mr.rkey(),
        addr: va,
    };
    (fabric, pa, remote)
}

/// Posts one tagged atomic from node 0 as a one-element chain; the old
/// value it acknowledged, or the chain's error.
fn post_tagged(fabric: &IbFabric, ctx: &mut Ctx, qp: &Qp, wr: Wr) -> VerbsResult<u64> {
    let mut old = None;
    fabric
        .nic(0)
        .post_chain(ctx, qp, &[wr], |o| old = Some(o.value))?;
    Ok(old.expect("an acknowledged atomic"))
}

/// Node 0's logical fetch-add number `seq`.
fn tagged_add(remote: RemoteAddr, delta: u64, seq: u64) -> Wr<'static> {
    Wr::FetchAdd {
        remote,
        delta,
        token: Some((0, seq)),
    }
}

/// Node 0's logical compare-and-swap number `seq`.
fn tagged_cas(remote: RemoteAddr, expect: u64, new: u64, seq: u64) -> Wr<'static> {
    Wr::CmpSwap {
        remote,
        expect,
        new,
        token: Some((0, seq)),
    }
}

fn ack_drop_plan(max_drops: u64) -> FaultPlan {
    FaultPlan::seeded(42).with(FaultRule::DropAtomicAck {
        src: Some(0),
        dst: Some(1),
        prob: 1.0,
        max_drops,
    })
}

/// The modeled hazard: an untagged fetch-add whose ack is dropped has
/// already landed, so a blind retry applies the delta twice.
#[test]
fn untagged_blind_retry_double_applies() {
    let (fabric, pa, remote) = setup();
    let (qa, _qb) = fabric.rc_pair(0, 1);
    fabric.install_fault_plan(ack_drop_plan(1));
    let mut ctx = Ctx::new();

    let first = fabric.nic(0).fetch_add(&mut ctx, &qa, remote, 5);
    assert!(matches!(first, Err(VerbsError::Timeout)), "{first:?}");
    assert_eq!(
        fabric.mem(1).load_u64(pa).unwrap(),
        5,
        "the op applied before its ack was lost"
    );
    // A layer above that blindly retries the same logical op...
    let second = fabric.nic(0).fetch_add(&mut ctx, &qa, remote, 5).unwrap();
    assert_eq!(second, 5);
    // ...has now applied it twice. This is the bug the tokens fix.
    assert_eq!(fabric.mem(1).load_u64(pa).unwrap(), 10);
    assert_eq!(fabric.fault_stats().ack_drops, 1);
}

/// Tagged retry with the same sequence is exactly-once: the responder
/// memo returns the original old value and the word is untouched.
#[test]
fn tagged_retry_is_exactly_once() {
    let (fabric, pa, remote) = setup();
    let (qa, _qb) = fabric.rc_pair(0, 1);
    fabric.install_fault_plan(ack_drop_plan(2));
    let mut ctx = Ctx::new();

    // Fetch-add: first attempt applies + loses its ack; the retry (same
    // token) must return old = 0 and leave the word at 5.
    let r = post_tagged(&fabric, &mut ctx, &qa, tagged_add(remote, 5, 1));
    assert!(matches!(r, Err(VerbsError::Timeout)));
    let old = post_tagged(&fabric, &mut ctx, &qa, tagged_add(remote, 5, 1)).unwrap();
    assert_eq!(old, 0);
    assert_eq!(fabric.mem(1).load_u64(pa).unwrap(), 5);

    // CAS: ack of the winning 5 -> 9 swap is lost; the retry must report
    // the original success (old = 5), not a spurious CAS failure from
    // re-executing against the already-swapped word.
    let r = post_tagged(&fabric, &mut ctx, &qa, tagged_cas(remote, 5, 9, 2));
    assert!(matches!(r, Err(VerbsError::Timeout)));
    let old = post_tagged(&fabric, &mut ctx, &qa, tagged_cas(remote, 5, 9, 2)).unwrap();
    assert_eq!(old, 5, "retry reports the one real apply");
    assert_eq!(fabric.mem(1).load_u64(pa).unwrap(), 9, "swapped once");
    assert_eq!(fabric.fault_stats().ack_drops, 2);
}

/// Distinct logical ops (fresh sequences) are not deduplicated.
#[test]
fn fresh_sequences_apply_normally() {
    let (fabric, pa, remote) = setup();
    let (qa, _qb) = fabric.rc_pair(0, 1);
    let mut ctx = Ctx::new();
    for seq in 0..4u64 {
        let old = post_tagged(&fabric, &mut ctx, &qa, tagged_add(remote, 1, seq)).unwrap();
        assert_eq!(old, seq);
    }
    assert_eq!(fabric.mem(1).load_u64(pa).unwrap(), 4);
}

/// The memo's edge: after `ATOMIC_MEMO_WINDOW` newer tokens, the oldest
/// one kept still deduplicates and the one before it — forgotten — is
/// applied again, as when the window was an ordered map trimmed from its
/// smallest sequence.
#[test]
fn the_window_keeps_exactly_the_last_window_of_tokens() {
    let (fabric, pa, remote) = setup();
    let (qa, _qb) = fabric.rc_pair(0, 1);
    let mut ctx = Ctx::new();
    let w = ATOMIC_MEMO_WINDOW as u64;
    for seq in 0..=w {
        let old = post_tagged(&fabric, &mut ctx, &qa, tagged_add(remote, 1, seq)).unwrap();
        assert_eq!(old, seq);
    }
    // Token 1 is the oldest of the last `w`: a retry is a lookup.
    let old = post_tagged(&fabric, &mut ctx, &qa, tagged_add(remote, 1, 1)).unwrap();
    assert_eq!(old, 1, "the oldest kept token returns its first apply");
    assert_eq!(
        fabric.mem(1).load_u64(pa).unwrap(),
        w + 1,
        "and applies nothing"
    );
    // Token 0 fell out of the window: a retry applies again.
    let old = post_tagged(&fabric, &mut ctx, &qa, tagged_add(remote, 1, 0)).unwrap();
    assert_eq!(old, w + 1);
    assert_eq!(fabric.mem(1).load_u64(pa).unwrap(), w + 2);
}

//! Mixed-verb doorbell chains (`Nic::post_chain`): in-order execution,
//! one doorbell's worth of host cost, equivalence of a one-element chain
//! with the single verb, and all-or-nothing validation.

use std::sync::Arc;

use parking_lot::Mutex;
use rnic::{
    Access, FaultPlan, FaultRule, IbConfig, IbFabric, Mr, Qp, RemoteAddr, Sge, SgeRef, VerbsError,
    Wr, WrOutcome, COST,
};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator};

/// A 2-node fabric with one RC pair, a local buffer on node 0 and a
/// remote-writable region on node 1 (one page each, warmed so no SRAM
/// miss depends on which test touches them first).
struct Rig {
    fabric: Arc<IbFabric>,
    qp: Arc<Qp>,
    spaces: [Arc<AddrSpace>; 2],
    local: (Mr, u64),
    remote: (Mr, u64),
}

fn rig() -> Rig {
    let fabric = IbFabric::new(IbConfig::with_nodes(2));
    let space = || {
        Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
            0,
            1 << 20,
        )))))
    };
    let spaces = [space(), space()];
    let mut ctx = Ctx::new();
    let mut region = |node: usize, access| {
        let va = spaces[node].mmap(4096).unwrap();
        let mr = fabric
            .nic(node)
            .register_mr(&mut ctx, &spaces[node], va, 4096, access)
            .unwrap();
        (mr, va)
    };
    let local = region(0, Access::LOCAL);
    let remote = region(1, Access::RW);
    let (qp, _peer) = fabric.rc_pair(0, 1);
    let r = Rig {
        fabric,
        qp,
        spaces,
        local,
        remote,
    };
    // Warm both NICs' caches for the QP, both keys and both pages.
    r.fabric
        .nic(0)
        .post_write(&mut ctx, &r.qp, 0, &r.sge(0, 8), r.at(0), None, false)
        .unwrap();
    r.fabric.nic(0).reset_resources();
    r.fabric.nic(1).reset_resources();
    r
}

impl Rig {
    fn sge(&self, off: u64, len: usize) -> Sge {
        Sge::Virt {
            lkey: self.local.0.lkey(),
            addr: self.local.1 + off,
            len,
        }
    }

    /// Posts `chain` from node 0 and collects what it acknowledged: every
    /// outcome on `Ok`, the acknowledged prefix beside the error on `Err`.
    fn post(
        &self,
        ctx: &mut Ctx,
        chain: &[Wr],
    ) -> Result<Vec<WrOutcome>, (Vec<WrOutcome>, VerbsError)> {
        let mut done = Vec::new();
        match self
            .fabric
            .nic(0)
            .post_chain(ctx, &self.qp, chain, |o| done.push(o))
        {
            Ok(()) => Ok(done),
            Err(e) => Err((done, e)),
        }
    }

    /// [`Rig::sge`] as a chained work request carries it.
    fn wr_sge(&self, off: u64, len: usize) -> SgeRef<'static> {
        SgeRef::Virt {
            lkey: self.local.0.lkey(),
            addr: self.local.1 + off,
            len,
        }
    }

    fn at(&self, off: u64) -> RemoteAddr {
        RemoteAddr {
            rkey: self.remote.0.rkey(),
            addr: self.remote.1 + off,
        }
    }

    fn local_u64(&self, off: u64) -> u64 {
        let pa = self.spaces[0].translate(self.local.1 + off).unwrap();
        self.fabric.mem(0).load_u64(pa).unwrap()
    }

    fn set_local_u64(&self, off: u64, v: u64) {
        let pa = self.spaces[0].translate(self.local.1 + off).unwrap();
        self.fabric.mem(0).store_u64(pa, v).unwrap();
    }

    fn remote_u64(&self, off: u64) -> u64 {
        let pa = self.spaces[1].translate(self.remote.1 + off).unwrap();
        self.fabric.mem(1).load_u64(pa).unwrap()
    }
}

/// Write, then CAS, then read of the same word: each sees the one before
/// it, stamps never go backwards, and the host pays for one doorbell.
#[test]
fn mixed_chain_executes_in_order_behind_one_doorbell() {
    let r = rig();
    r.set_local_u64(0, 41);
    let chain = [
        Wr::Write {
            sge: r.wr_sge(0, 8),
            remote: r.at(64),
            imm: None,
        },
        Wr::CmpSwap {
            remote: r.at(64),
            expect: 41,
            new: 42,
            token: None,
        },
        Wr::FetchAdd {
            remote: r.at(64),
            delta: 8,
            token: None,
        },
        Wr::Read {
            sge: r.wr_sge(128, 8),
            remote: r.at(64),
        },
    ];
    let mut ctx = Ctx::new();
    let start = ctx.now();
    let done = r.post(&mut ctx, &chain).unwrap();
    assert_eq!(
        ctx.now() - start,
        COST.post_wr_ns,
        "one doorbell: the host post cost is charged once and nothing blocks"
    );
    assert_eq!(done.len(), 4);
    assert_eq!(done[1].value, 41, "the CAS saw the chained write");
    assert_eq!(done[2].value, 42, "the fetch-add saw the CAS");
    assert_eq!(r.local_u64(128), 50, "the read saw all three");
    assert_eq!(r.remote_u64(64), 50);
    for pair in done.windows(2) {
        assert!(
            pair[0].completion <= pair[1].completion,
            "completion stamps are non-decreasing: {done:?}"
        );
        assert!(
            pair[0].remote_visible <= pair[1].remote_visible,
            "the responder executes in order: {done:?}"
        );
    }
    assert!(done[0].completion > ctx.now(), "completions lie ahead");
}

/// A one-element chain is the single verb: same stamp, same clock, for a
/// write, a read and an atomic (each pair on its own identical rig).
#[test]
fn one_element_chain_equals_the_single_verb() {
    // Write.
    let (a, b) = (rig(), rig());
    let (mut ca, mut cb) = (Ctx::new(), Ctx::new());
    let single = a
        .fabric
        .nic(0)
        .post_write_outcome(&mut ca, &a.qp, 0, &a.sge(0, 64), a.at(0), None, false)
        .unwrap();
    let wr = Wr::Write {
        sge: b.wr_sge(0, 64),
        remote: b.at(0),
        imm: None,
    };
    let chained = b.post(&mut cb, &[wr]).unwrap();
    assert_eq!(chained, [single]);
    assert_eq!(ca.now(), cb.now());

    // Read.
    let (a, b) = (rig(), rig());
    let (mut ca, mut cb) = (Ctx::new(), Ctx::new());
    let single = a
        .fabric
        .nic(0)
        .post_read(&mut ca, &a.qp, 0, &a.sge(0, 2048), a.at(0), false)
        .unwrap();
    let wr = Wr::Read {
        sge: b.wr_sge(0, 2048),
        remote: b.at(0),
    };
    let chained = b.post(&mut cb, &[wr]).unwrap();
    assert_eq!(chained[0].completion, single);
    assert_eq!(ca.now(), cb.now());

    // Atomic: the verb blocks and reaps its completion, the chain leaves
    // both to the poster.
    let (a, b) = (rig(), rig());
    let (mut ca, mut cb) = (Ctx::new(), Ctx::new());
    let old = a
        .fabric
        .nic(0)
        .fetch_add(&mut ca, &a.qp, a.at(8), 3)
        .unwrap();
    let wr = Wr::FetchAdd {
        remote: b.at(8),
        delta: 3,
        token: None,
    };
    let chained = b.post(&mut cb, &[wr]).unwrap();
    assert_eq!(chained[0].value, old);
    assert_eq!(cb.now(), COST.post_wr_ns);
    assert_eq!(
        chained[0].completion + COST.cq_poll_ns,
        ca.now(),
        "verb = chain stamp + the CQ poll"
    );
    assert_eq!((a.remote_u64(8), b.remote_u64(8)), (3, 3));
}

/// One bad element anywhere fails the whole chain before any side effect
/// and before the doorbell is paid for.
#[test]
fn validation_failure_leaves_no_side_effect() {
    let r = rig();
    r.set_local_u64(0, 7);
    let good_write = Wr::Write {
        sge: r.wr_sge(0, 8),
        remote: r.at(256),
        imm: None,
    };
    let good_add = Wr::FetchAdd {
        remote: r.at(264),
        delta: 1,
        token: None,
    };
    type Expect = fn(&VerbsError) -> bool;
    let bad: [(Wr, Expect); 3] = [
        (
            // Remote range runs off the end of the MR.
            Wr::Read {
                sge: r.wr_sge(0, 64),
                remote: r.at(4090),
            },
            |e| matches!(e, VerbsError::OutOfBounds { .. }),
        ),
        (
            // Unknown rkey.
            Wr::CmpSwap {
                remote: RemoteAddr {
                    rkey: 0xdead,
                    addr: 0,
                },
                expect: 0,
                new: 1,
                token: None,
            },
            |e| matches!(e, VerbsError::BadKey { .. }),
        ),
        (
            // No receive credit posted for the immediate.
            Wr::Write {
                sge: r.wr_sge(0, 8),
                remote: r.at(272),
                imm: Some(9),
            },
            |e| matches!(e, VerbsError::ReceiverNotReady),
        ),
    ];
    for (pos, (wr, expected)) in bad.iter().enumerate() {
        // The bad element takes each position of a three-element chain.
        let mut chain = vec![good_write, good_add];
        chain.insert(pos, *wr);
        let mut ctx = Ctx::new();
        let ops_before = r.fabric.nic(0).stats().one_sided_ops;
        let (done, error) = r.post(&mut ctx, &chain).unwrap_err();
        assert!(expected(&error), "position {pos}: {error:?}");
        assert!(done.is_empty(), "nothing ran");
        assert_eq!(ctx.now(), 0, "no doorbell was rung");
        assert_eq!(r.remote_u64(256), 0, "the good write did not land");
        assert_eq!(r.remote_u64(264), 0, "the good fetch-add did not apply");
        assert_eq!(r.fabric.nic(0).stats().one_sided_ops, ops_before);
    }
}

/// A lost atomic ack stops the chain *after* that atomic's apply: the
/// acknowledged prefix is reported, nothing behind the atomic ran, and
/// resuming from it with the same token neither re-applies it nor
/// re-runs the prefix.
#[test]
fn lost_ack_mid_chain_resumes_from_the_atomic() {
    let r = rig();
    r.set_local_u64(0, 1);
    r.set_local_u64(8, 2);
    let chain = [
        Wr::Write {
            sge: r.wr_sge(0, 8),
            remote: r.at(512),
            imm: None,
        },
        Wr::FetchAdd {
            remote: r.at(520),
            delta: 5,
            token: Some((0, 77)),
        },
        Wr::Write {
            sge: r.wr_sge(8, 8),
            remote: r.at(528),
            imm: None,
        },
    ];
    r.fabric
        .install_fault_plan(FaultPlan::seeded(7).with(FaultRule::DropAtomicAck {
            src: Some(0),
            dst: Some(1),
            prob: 1.0,
            max_drops: 1,
        }));
    let mut ctx = Ctx::new();
    let (acked, error) = r.post(&mut ctx, &chain).unwrap_err();
    assert!(matches!(error, VerbsError::Timeout), "{error:?}");
    assert_eq!(acked.len(), 1, "only the leading write was acknowledged");
    assert_eq!(r.remote_u64(512), 1);
    assert_eq!(
        r.remote_u64(520),
        5,
        "the atomic applied before its ack was lost"
    );
    assert_eq!(r.remote_u64(528), 0, "nothing behind the atomic ran");

    // The poster meanwhile overwrote the first payload's source; a replay
    // from the top would carry the new bytes, a resume must not.
    r.set_local_u64(0, 99);
    let done = r.post(&mut ctx, &chain[acked.len()..]).unwrap();
    assert_eq!(
        done[0].value, 0,
        "the memoized old value, not a second apply"
    );
    assert_eq!(r.remote_u64(520), 5);
    assert_eq!(r.remote_u64(528), 2);
    assert_eq!(
        r.remote_u64(512),
        1,
        "the acknowledged prefix was not replayed"
    );
}

/// An aligned one-word read is a stamped load: chained behind a CAS it
/// returns what the CAS left and completes no earlier than the CAS's
/// stamp, yet it costs the responder's engine a read, not an atomic. A
/// read of any other shape is the plain copy it always was.
#[test]
fn one_word_read_is_a_stamped_load_at_the_price_of_a_read() {
    let r = rig();
    let cost = COST;
    let read = |local: u64, remote: u64, len: usize| Wr::Read {
        sge: r.wr_sge(local, len),
        remote: r.at(remote),
    };
    // An atomic from a context whose clock runs far ahead parks node 1's
    // atomic clock there: what observes a word after it must not complete
    // before it.
    let ahead = 1_000_000;
    let other = r.spaces[1].translate(r.remote.1 + 1024).unwrap();
    r.fabric
        .mem(1)
        .fetch_add_u64_stamped(other, 0, ahead)
        .unwrap();

    let mut ctx = Ctx::new();
    let word = 0x0000_0007_0000_0009;
    let cas = Wr::CmpSwap {
        remote: r.at(64),
        expect: 0,
        new: word,
        token: None,
    };
    let before = r.fabric.nic(1).stats();
    let done = r.post(&mut ctx, &[cas, read(128, 64, 8)]).unwrap();
    let after = r.fabric.nic(1).stats();
    assert_eq!(r.local_u64(128), word, "the read saw the CAS ahead of it");
    assert!(done[0].completion > ahead, "the CAS is stamped: {done:?}");
    assert!(
        done[1].completion > done[0].completion,
        "the word read is stamped after the CAS it observed: {done:?}"
    );
    assert_eq!(after.atomic_ops - before.atomic_ops, 1, "the CAS alone");
    assert_eq!(
        after.engine_busy_ns - before.engine_busy_ns,
        (cost.nic_engine_ns + cost.atomic_extra_ns) + cost.nic_engine_ns,
        "the responder charged one atomic and one read"
    );

    // Sixteen bytes, or eight at a misaligned address: the plain copy,
    // which neither reads nor moves the atomic clock.
    let chain = [read(512, 64, 16), read(256, 68, 8)];
    let before = r.fabric.nic(1).stats();
    let plain = r.post(&mut ctx, &chain).unwrap();
    let after = r.fabric.nic(1).stats();
    assert_eq!((r.local_u64(512), r.local_u64(520)), (word, 0));
    assert_eq!(r.local_u64(256), word >> 32, "bytes 68..76 of the region");
    assert!(
        plain.iter().all(|o| o.completion < ahead),
        "plain reads complete on the poster's own clock: {plain:?}"
    );
    assert_eq!(
        after.engine_busy_ns - before.engine_busy_ns,
        2 * cost.nic_engine_ns
    );
    assert_eq!(after.atomic_ops, before.atomic_ops);
    let again = r.post(&mut ctx, &[read(128, 64, 8)]).unwrap();
    assert!(
        again[0].completion > done[1].completion,
        "and the clock they left alone still orders the next word read"
    );
}

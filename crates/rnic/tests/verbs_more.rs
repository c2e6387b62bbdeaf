//! Additional Verbs-layer coverage: UC semantics, CQ/RQ sharing (SRQ),
//! counters, resource resets, and error surfaces.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rnic::qp::{RecvEntry, RecvQueue};
use rnic::{Access, Cq, IbConfig, IbFabric, QpType, RemoteAddr, Sge, VerbsError};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator};

fn setup(nodes: usize) -> (Arc<IbFabric>, Vec<Arc<AddrSpace>>) {
    let fabric = IbFabric::new(IbConfig::with_nodes(nodes));
    let spaces = (0..nodes)
        .map(|_| {
            Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
                0,
                1 << 28,
            )))))
        })
        .collect();
    (fabric, spaces)
}

/// UC writes complete at the wire (no ack leg) — earlier than RC.
#[test]
fn uc_write_completes_before_rc() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();

    let rc_a = fabric.nic(0).create_qp(QpType::Rc);
    let rc_b = fabric.nic(1).create_qp(QpType::Rc);
    fabric.connect(&rc_a, &rc_b);
    let uc_a = fabric.nic(0).create_qp(QpType::Uc);
    let uc_b = fabric.nic(1).create_qp(QpType::Uc);
    fabric.connect(&uc_a, &uc_b);

    let sge = Sge::Virt {
        lkey: src.lkey(),
        addr: src_va,
        len: 64,
    };
    let remote = RemoteAddr {
        rkey: dst.rkey(),
        addr: dst_va,
    };
    // Warm, then compare completion deltas from the same instant.
    fabric
        .nic(0)
        .post_write(&mut ctx, &rc_a, 0, &sge, remote, None, false)
        .unwrap();
    fabric
        .nic(0)
        .post_write(&mut ctx, &uc_a, 0, &sge, remote, None, false)
        .unwrap();
    let t = ctx.now();
    let rc_comp = fabric
        .nic(0)
        .post_write(&mut ctx, &rc_a, 0, &sge, remote, None, false)
        .unwrap();
    ctx.wait_until(t); // same epoch for the UC probe
    let uc_comp = fabric
        .nic(0)
        .post_write(&mut ctx, &uc_a, 0, &sge, remote, None, false)
        .unwrap();
    assert!(
        uc_comp < rc_comp,
        "UC ({uc_comp}) must complete before RC ({rc_comp}) — no ack leg"
    );
    // UC still refuses reads and atomics.
    assert!(matches!(
        fabric
            .nic(0)
            .post_read(&mut ctx, &uc_a, 0, &sge, remote, false),
        Err(VerbsError::BadOpForQpType)
    ));
    assert!(matches!(
        fabric.nic(0).fetch_add(&mut ctx, &uc_a, remote, 1),
        Err(VerbsError::BadOpForQpType)
    ));
}

/// Several QPs sharing one recv CQ and one receive queue (SRQ style):
/// messages from different senders drain through the shared structures.
#[test]
fn srq_style_sharing_across_qps() {
    let (fabric, spaces) = setup(3);
    let mut ctx = Ctx::new();
    let shared_cq = Arc::new(Cq::new());
    let shared_rq = Arc::new(RecvQueue::new());

    // Node 2 hosts two QPs (one per peer) on the shared structures.
    let mk_server_qp = |peer: usize| {
        let q2 = fabric.nic(2).create_qp_with(
            QpType::Rc,
            Arc::new(Cq::new()),
            Arc::clone(&shared_cq),
            Arc::clone(&shared_rq),
        );
        let qp = fabric.nic(2).create_qp(QpType::Rc); // placeholder peer end
        let q_peer = fabric.nic(peer).create_qp(QpType::Rc);
        fabric.connect(&q2, &q_peer);
        drop(qp);
        q_peer
    };
    let q0 = mk_server_qp(0);
    let q1 = mk_server_qp(1);

    // Post shared buffers.
    let rbuf_va = spaces[2].mmap(16 * 1024).unwrap();
    let rbuf = fabric
        .nic(2)
        .register_mr(&mut ctx, &spaces[2], rbuf_va, 16 * 1024, Access::LOCAL)
        .unwrap();
    for i in 0..8 {
        shared_rq.post(RecvEntry {
            wr_id: i,
            sge: Some(Sge::Virt {
                lkey: rbuf.lkey(),
                addr: rbuf_va + i * 1024,
                len: 1024,
            }),
        });
    }

    // Both peers send through their own QPs.
    for (node, qp, tag) in [(0usize, &q0, 0xAAu8), (1, &q1, 0xBB)] {
        let sva = spaces[node].mmap(4096).unwrap();
        let smr = fabric
            .nic(node)
            .register_mr(&mut ctx, &spaces[node], sva, 4096, Access::LOCAL)
            .unwrap();
        let pa = spaces[node].translate(sva).unwrap();
        fabric.mem(node).write(pa, &[tag; 32]).unwrap();
        fabric
            .nic(node)
            .post_send(
                &mut ctx,
                qp,
                7,
                &Sge::Virt {
                    lkey: smr.lkey(),
                    addr: sva,
                    len: 32,
                },
                None,
                false,
            )
            .unwrap();
    }
    // Both arrive in the one shared CQ.
    let mut rctx = Ctx::new();
    let mut seen = Vec::new();
    for _ in 0..2 {
        let wc = shared_cq
            .poll_blocking(&mut rctx, false, Duration::from_secs(2))
            .unwrap();
        seen.push(wc.src.unwrap().0);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1]);
    assert_eq!(shared_rq.depth(), 6, "two buffers consumed from the SRQ");
}

/// NIC statistics reflect traffic, and resets clear queueing state.
#[test]
fn stats_and_resets() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(1 << 16).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 1 << 16, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src.lkey(),
        addr: src_va,
        len: 256,
    };
    for _ in 0..10 {
        fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qa,
                0,
                &sge,
                RemoteAddr {
                    rkey: dst.rkey(),
                    addr: dst_va,
                },
                None,
                false,
            )
            .unwrap();
    }
    let s = fabric.nic(0).stats();
    assert_eq!(s.one_sided_ops, 10);
    assert_eq!(s.bytes_tx, 2560);
    assert_eq!(s.live_mrs, 1);
    assert!(s.live_qps >= 1);
    fabric.nic(0).reset_resources();
    fabric.nic(1).reset_resources();
    // After a reset, a fresh clock on a *fresh QP* starts immediately
    // (an existing QP keeps its per-QP FIFO ordering horizon).
    let (qf, _) = fabric.rc_pair(0, 1);
    let mut fresh = Ctx::new();
    let comp = fabric
        .nic(0)
        .post_write(
            &mut fresh,
            &qf,
            0,
            &sge,
            RemoteAddr {
                rkey: dst.rkey(),
                addr: dst_va,
            },
            None,
            false,
        )
        .unwrap();
    assert!(comp < 10_000, "reset state should serve a t=0 client fast");
}

/// Deregistered keys stop working; unknown keys are typed errors.
#[test]
fn key_lifecycle_errors() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src.lkey(),
        addr: src_va,
        len: 16,
    };
    let remote = RemoteAddr {
        rkey: dst.rkey(),
        addr: dst_va,
    };
    fabric
        .nic(0)
        .post_write(&mut ctx, &qa, 0, &sge, remote, None, false)
        .unwrap();
    fabric.nic(1).deregister_mr(&mut ctx, &dst).unwrap();
    assert!(matches!(
        fabric
            .nic(0)
            .post_write(&mut ctx, &qa, 0, &sge, remote, None, false),
        Err(VerbsError::BadKey { .. })
    ));
    // Bogus local key too.
    let bad = Sge::Virt {
        lkey: 0xDEAD,
        addr: src_va,
        len: 16,
    };
    assert!(matches!(
        fabric.nic(0).post_send(&mut ctx, &qa, 0, &bad, None, false),
        Err(VerbsError::BadKey { .. })
    ));
}

//! End-to-end tests of the simulated Verbs layer: data correctness,
//! virtual-time behaviour, and the SRAM scalability model.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rnic::{Access, IbConfig, IbFabric, QpType, RemoteAddr, Sge, WcOpcode, COST};
use simnet::{Ctx, MICROS};
use smem::{AddrSpace, PhysAllocator};

/// Builds a fabric plus one address space per node.
fn setup(nodes: usize) -> (Arc<IbFabric>, Vec<Arc<AddrSpace>>) {
    let fabric = IbFabric::new(IbConfig::with_nodes(nodes));
    let spaces = (0..nodes)
        .map(|_| {
            Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
                0,
                1 << 30,
            )))))
        })
        .collect();
    (fabric, spaces)
}

#[test]
fn one_sided_write_moves_bytes() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();

    // Node 1 registers a 1 MB remote-writable MR.
    let dst_va = spaces[1].mmap(1 << 20).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 1 << 20, Access::RW)
        .unwrap();

    // Node 0 registers a local buffer and writes into node 1.
    let src_va = spaces[0].mmap(4096).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let payload = b"hello, remote memory!".to_vec();
    let src_pa = spaces[0].translate(src_va).unwrap();
    fabric.mem(0).write(src_pa, &payload).unwrap();

    let (qa, _qb) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src_mr.lkey(),
        addr: src_va,
        len: payload.len(),
    };
    let remote = RemoteAddr {
        rkey: dst_mr.rkey(),
        addr: dst_va + 100,
    };
    let comp = fabric
        .nic(0)
        .post_write(&mut ctx, &qa, 1, &sge, remote, None, true)
        .unwrap();
    assert!(comp > ctx.now(), "completion is in the future");

    // Poll the send CQ: clock joins the completion stamp.
    let wcs = qa.send_cq.poll(&mut ctx, 1);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].opcode, WcOpcode::RdmaWrite);
    assert!(ctx.now() >= comp);

    // Bytes actually landed at node 1.
    let dst_pa = spaces[1].translate(dst_va + 100).unwrap();
    let mut back = vec![0u8; payload.len()];
    fabric.mem(1).read(dst_pa, &mut back).unwrap();
    assert_eq!(back, payload);
}

#[test]
fn one_sided_read_fetches_bytes() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();

    let data_va = spaces[1].mmap(8192).unwrap();
    let data_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], data_va, 8192, Access::RO)
        .unwrap();
    let secret: Vec<u8> = (0..256).map(|i| i as u8).collect();
    let data_pa = spaces[1].translate(data_va).unwrap();
    fabric.mem(1).write(data_pa, &secret).unwrap();

    let buf_va = spaces[0].mmap(4096).unwrap();
    let buf_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], buf_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _qb) = fabric.rc_pair(0, 1);
    let comp = fabric
        .nic(0)
        .post_read(
            &mut ctx,
            &qa,
            2,
            &Sge::Virt {
                lkey: buf_mr.lkey(),
                addr: buf_va,
                len: secret.len(),
            },
            RemoteAddr {
                rkey: data_mr.rkey(),
                addr: data_va,
            },
            false,
        )
        .unwrap();
    ctx.wait_until(comp);

    let buf_pa = spaces[0].translate(buf_va).unwrap();
    let mut got = vec![0u8; secret.len()];
    fabric.mem(0).read(buf_pa, &mut got).unwrap();
    assert_eq!(got, secret);
}

#[test]
fn read_only_mr_rejects_write() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RO)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let err = fabric
        .nic(0)
        .post_write(
            &mut ctx,
            &qa,
            1,
            &Sge::Virt {
                lkey: src_mr.lkey(),
                addr: src_va,
                len: 64,
            },
            RemoteAddr {
                rkey: dst_mr.rkey(),
                addr: dst_va,
            },
            None,
            false,
        )
        .unwrap_err();
    assert!(matches!(err, rnic::VerbsError::AccessDenied { .. }));
}

#[test]
fn out_of_bounds_rejected() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(8192).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 8192, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let err = fabric
        .nic(0)
        .post_write(
            &mut ctx,
            &qa,
            1,
            &Sge::Virt {
                lkey: src_mr.lkey(),
                addr: src_va,
                len: 8192,
            },
            RemoteAddr {
                rkey: dst_mr.rkey(),
                addr: dst_va, // 8 KB into a 4 KB MR
            },
            None,
            false,
        )
        .unwrap_err();
    assert!(matches!(err, rnic::VerbsError::OutOfBounds { .. }));
}

#[test]
fn write_imm_delivers_to_recv_cq() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(1 << 16).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 1 << 16, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, qb) = fabric.rc_pair(0, 1);

    // Without a posted credit the write-imm is RNR-rejected.
    let sge = Sge::Virt {
        lkey: src_mr.lkey(),
        addr: src_va,
        len: 128,
    };
    let remote = RemoteAddr {
        rkey: dst_mr.rkey(),
        addr: dst_va,
    };
    let err = fabric
        .nic(0)
        .post_write(&mut ctx, &qa, 1, &sge, remote, Some(42), false)
        .unwrap_err();
    assert!(matches!(err, rnic::VerbsError::ReceiverNotReady));

    // Post a pure credit and retry.
    fabric.nic(1).post_recv(
        &mut ctx,
        &qb,
        rnic::qp::RecvEntry {
            wr_id: 77,
            sge: None,
        },
    );
    fabric
        .nic(0)
        .post_write(&mut ctx, &qa, 1, &sge, remote, Some(42), false)
        .unwrap();
    let mut rctx = Ctx::new();
    let wc = qb
        .recv_cq
        .poll_blocking(&mut rctx, false, Duration::from_secs(1))
        .unwrap();
    assert_eq!(wc.opcode, WcOpcode::RecvRdmaWithImm);
    assert_eq!(wc.imm, Some(42));
    assert_eq!(wc.wr_id, 77);
    assert_eq!(wc.byte_len, 128);
    assert_eq!(wc.src, Some((0, qa.id)));
    assert!(rctx.now() >= MICROS, "arrival stamp propagated");
}

#[test]
fn send_recv_roundtrip() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let (qa, qb) = fabric.rc_pair(0, 1);

    // Receiver posts a real buffer.
    let rbuf_va = spaces[1].mmap(4096).unwrap();
    let rbuf_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], rbuf_va, 4096, Access::LOCAL)
        .unwrap();
    fabric.nic(1).post_recv(
        &mut ctx,
        &qb,
        rnic::qp::RecvEntry {
            wr_id: 9,
            sge: Some(Sge::Virt {
                lkey: rbuf_mr.lkey(),
                addr: rbuf_va,
                len: 4096,
            }),
        },
    );

    let sbuf_va = spaces[0].mmap(4096).unwrap();
    let sbuf_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], sbuf_va, 4096, Access::LOCAL)
        .unwrap();
    let msg = b"ping".to_vec();
    let spa = spaces[0].translate(sbuf_va).unwrap();
    fabric.mem(0).write(spa, &msg).unwrap();

    fabric
        .nic(0)
        .post_send(
            &mut ctx,
            &qa,
            3,
            &Sge::Virt {
                lkey: sbuf_mr.lkey(),
                addr: sbuf_va,
                len: msg.len(),
            },
            None,
            true,
        )
        .unwrap();

    let mut rctx = Ctx::new();
    let wc = qb
        .recv_cq
        .poll_blocking(&mut rctx, false, Duration::from_secs(1))
        .unwrap();
    assert_eq!(wc.opcode, WcOpcode::Recv);
    assert_eq!(wc.byte_len, 4);
    let rpa = spaces[1].translate(rbuf_va).unwrap();
    let mut got = vec![0u8; 4];
    fabric.mem(1).read(rpa, &mut got).unwrap();
    assert_eq!(got, msg);

    // Sender's completion also arrives.
    let wcs = qa.send_cq.poll(&mut ctx, 4);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].opcode, WcOpcode::Send);
}

#[test]
fn ud_send_enforces_mtu_and_delivers() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let qa = fabric.nic(0).create_qp(QpType::Ud);
    let qb = fabric.nic(1).create_qp(QpType::Ud);

    let rbuf_va = spaces[1].mmap(8192).unwrap();
    let rbuf_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], rbuf_va, 8192, Access::LOCAL)
        .unwrap();
    fabric.nic(1).post_recv(
        &mut ctx,
        &qb,
        rnic::qp::RecvEntry {
            wr_id: 1,
            sge: Some(Sge::Virt {
                lkey: rbuf_mr.lkey(),
                addr: rbuf_va,
                len: 4096,
            }),
        },
    );

    let sbuf_va = spaces[0].mmap(8192).unwrap();
    let sbuf_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], sbuf_va, 8192, Access::LOCAL)
        .unwrap();

    // Over-MTU payload is rejected.
    let big = Sge::Virt {
        lkey: sbuf_mr.lkey(),
        addr: sbuf_va,
        len: 5000,
    };
    assert!(matches!(
        fabric
            .nic(0)
            .post_send_ud(&mut ctx, &qa, 1, &big, (1, qb.id), false),
        Err(rnic::VerbsError::PayloadTooLarge { .. })
    ));

    let ok = Sge::Virt {
        lkey: sbuf_mr.lkey(),
        addr: sbuf_va,
        len: 4096,
    };
    fabric
        .nic(0)
        .post_send_ud(&mut ctx, &qa, 1, &ok, (1, qb.id), false)
        .unwrap();
    let mut rctx = Ctx::new();
    let wc = qb
        .recv_cq
        .poll_blocking(&mut rctx, false, Duration::from_secs(1))
        .unwrap();
    assert_eq!(wc.byte_len, 4096);
}

#[test]
fn atomics_are_globally_consistent() {
    let (fabric, spaces) = setup(3);
    let mut ctx = Ctx::new();
    let ctr_va = spaces[2].mmap(4096).unwrap();
    let ctr_mr = fabric
        .nic(2)
        .register_mr(&mut ctx, &spaces[2], ctr_va, 4096, Access::RW)
        .unwrap();
    let ctr_pa = spaces[2].translate(ctr_va).unwrap();
    fabric.mem(2).store_u64(ctr_pa, 0).unwrap();

    let remote = RemoteAddr {
        rkey: ctr_mr.rkey(),
        addr: ctr_va,
    };
    let (q0, _) = fabric.rc_pair(0, 2);
    let (q1, _) = fabric.rc_pair(1, 2);

    let old0 = fabric.nic(0).fetch_add(&mut ctx, &q0, remote, 5).unwrap();
    let mut ctx1 = Ctx::new();
    let old1 = fabric.nic(1).fetch_add(&mut ctx1, &q1, remote, 7).unwrap();
    assert_eq!(old0, 0);
    assert_eq!(old1, 5);
    assert_eq!(fabric.mem(2).load_u64(ctr_pa).unwrap(), 12);

    // CAS: succeeds once, then observes the new value.
    let old = fabric
        .nic(0)
        .cmp_swap(&mut ctx, &q0, remote, 12, 100)
        .unwrap();
    assert_eq!(old, 12);
    let old = fabric
        .nic(0)
        .cmp_swap(&mut ctx, &q0, remote, 12, 200)
        .unwrap();
    assert_eq!(old, 100, "failed CAS returns current value");
    assert_eq!(fabric.mem(2).load_u64(ctr_pa).unwrap(), 100);
    // Atomic latency is ~2.2 us as in the paper (§7.2). Measure with the
    // already-advanced clock so we don't queue behind our own history.
    let before = ctx.now();
    fabric.nic(0).fetch_add(&mut ctx, &q0, remote, 1).unwrap();
    let lat = ctx.now() - before;
    assert!(
        (1_500..=3_500).contains(&lat),
        "atomic latency {lat} ns out of range"
    );
}

#[test]
fn down_node_times_out() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    fabric.set_down(1, true);
    let err = fabric
        .nic(0)
        .post_write(
            &mut ctx,
            &qa,
            1,
            &Sge::Virt {
                lkey: src_mr.lkey(),
                addr: src_va,
                len: 64,
            },
            RemoteAddr {
                rkey: dst_mr.rkey(),
                addr: dst_va,
            },
            None,
            false,
        )
        .unwrap_err();
    assert_eq!(err, rnic::VerbsError::Timeout);
    fabric.set_down(1, false);
    assert!(fabric
        .nic(0)
        .post_write(
            &mut ctx,
            &qa,
            1,
            &Sge::Virt {
                lkey: src_mr.lkey(),
                addr: src_va,
                len: 64,
            },
            RemoteAddr {
                rkey: dst_mr.rkey(),
                addr: dst_va,
            },
            None,
            false,
        )
        .is_ok());
}

/// The Figure 4 mechanism: with many MRs, rkey lookups miss in NIC SRAM
/// and latency rises; with one MR they always hit.
#[test]
fn mr_key_cache_produces_fig4_cliff() {
    let cost = COST;
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();

    // Register 1024 4 KB MRs on node 1 (capacity is 128).
    let n_mrs = 1024usize;
    let region = spaces[1].mmap((n_mrs * 4096) as u64).unwrap();
    let mrs: Vec<_> = (0..n_mrs)
        .map(|i| {
            fabric
                .nic(1)
                .register_mr(
                    &mut ctx,
                    &spaces[1],
                    region + (i * 4096) as u64,
                    4096,
                    Access::RW,
                )
                .unwrap()
        })
        .collect();

    let src_va = spaces[0].mmap(4096).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src_mr.lkey(),
        addr: src_va,
        len: 64,
    };

    // Round-robin over all MRs: every rkey lookup misses.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let mut spread = simnet::Summary::new();
    for _ in 0..400 {
        let mr = &mrs[rng.gen_range(0..n_mrs)];
        let before = ctx.now();
        let comp = fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qa,
                1,
                &sge,
                RemoteAddr {
                    rkey: mr.rkey(),
                    addr: mr.base(),
                },
                None,
                false,
            )
            .unwrap();
        ctx.wait_until(comp);
        spread.record(ctx.now() - before);
    }

    // Single hot MR: all hits.
    let mut hot = simnet::Summary::new();
    for _ in 0..400 {
        let before = ctx.now();
        let comp = fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qa,
                1,
                &sge,
                RemoteAddr {
                    rkey: mrs[0].rkey(),
                    addr: mrs[0].base(),
                },
                None,
                false,
            )
            .unwrap();
        ctx.wait_until(comp);
        hot.record(ctx.now() - before);
    }
    assert!(
        spread.mean() > hot.mean() + cost.mr_miss_ns as f64 * 0.8,
        "spread {} vs hot {}",
        spread.mean(),
        hot.mean()
    );
}

/// The Figure 5 mechanism: a working set beyond the PTE cache reach
/// (4 MB) makes every access pay a PTE miss; a physical (global) MR
/// never does.
#[test]
fn pte_cache_produces_fig5_cliff_and_phys_mr_avoids_it() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let big = 64u64 << 20; // 64 MB >> 4 MB reach
    let dst_va = spaces[1].mmap(big).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, big, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src_mr = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src_mr.lkey(),
        addr: src_va,
        len: 64,
    };

    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
    let s1 = fabric.nic(1).stats();
    for _ in 0..500 {
        let off = rng.gen_range(0..big - 64) & !63;
        let comp = fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qa,
                1,
                &sge,
                RemoteAddr {
                    rkey: dst_mr.rkey(),
                    addr: dst_va + off,
                },
                None,
                false,
            )
            .unwrap();
        ctx.wait_until(comp);
    }
    let s2 = fabric.nic(1).stats();
    let misses = s2.pte_misses - s1.pte_misses;
    assert!(
        misses > 400,
        "random access over 64 MB should miss nearly always, got {misses}"
    );

    // LITE path: global physical MR over the whole memory. Zero PTE
    // traffic by construction.
    let gmr = fabric
        .nic(1)
        .register_phys_mr(&mut ctx, 0, fabric.mem(1).size(), Access::RW)
        .unwrap();
    let psge = Sge::Phys {
        lkey: src_mr.lkey(),
        chunks: vec![],
    };
    let _ = psge; // physical sends come from LITE later; here we target it remotely
    let s3 = fabric.nic(1).stats();
    for _ in 0..500 {
        let off = rng.gen_range(0..(1u64 << 29)) & !63;
        let comp = fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qa,
                1,
                &sge,
                RemoteAddr {
                    rkey: gmr.rkey(),
                    addr: off,
                },
                None,
                false,
            )
            .unwrap();
        ctx.wait_until(comp);
    }
    let s4 = fabric.nic(1).stats();
    assert_eq!(
        s4.pte_misses, s3.pte_misses,
        "physical MR causes no PTE traffic"
    );
}

/// Figure 8 mechanism: registration cost scales with pages pinned;
/// physical registration is O(1).
#[test]
fn registration_cost_scales_with_pages() {
    let (fabric, spaces) = setup(1);
    let cost = COST;

    let mut ctx = Ctx::new();
    let v_small = spaces[0].mmap(4096).unwrap();
    let t0 = ctx.now();
    let small = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], v_small, 4096, Access::RW)
        .unwrap();
    let small_cost = ctx.now() - t0;

    let v_big = spaces[0].mmap(1 << 20).unwrap();
    let t1 = ctx.now();
    let big = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], v_big, 1 << 20, Access::RW)
        .unwrap();
    let big_cost = ctx.now() - t1;
    assert!(
        big_cost >= small_cost + 200 * cost.pin_page_ns,
        "1 MB register ({big_cost}) should cost ~256 pages more than 4 KB ({small_cost})"
    );

    let t2 = ctx.now();
    let gmr = fabric
        .nic(0)
        .register_phys_mr(&mut ctx, 0, fabric.mem(0).size(), Access::RW)
        .unwrap();
    let phys_cost = ctx.now() - t2;
    assert!(phys_cost < small_cost * 2, "physical registration is O(1)");

    // Deregistration unpins.
    assert_eq!(spaces[0].pinned_pages(), 1 + 256);
    fabric.nic(0).deregister_mr(&mut ctx, &small).unwrap();
    fabric.nic(0).deregister_mr(&mut ctx, &big).unwrap();
    assert_eq!(spaces[0].pinned_pages(), 0);
    fabric.nic(0).deregister_mr(&mut ctx, &gmr).unwrap();
    assert!(fabric.nic(0).deregister_mr(&mut ctx, &gmr).is_err());
}

/// Concurrent writers through one NIC serialize on its engine/link:
/// aggregate throughput is bounded by the link bandwidth.
#[test]
fn link_saturates_under_parallel_writers() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let big = 16u64 << 20;
    let dst_va = spaces[1].mmap(big).unwrap();
    let dst_mr = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, big, Access::RW)
        .unwrap();

    let threads = 8;
    let per_thread_ops = 64;
    let size = 64 * 1024usize;
    let mut handles = Vec::new();
    for t in 0..threads {
        let fabric = Arc::clone(&fabric);
        let space = Arc::clone(&spaces[0]);
        let rkey = dst_mr.rkey();
        handles.push(std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            let src_va = space.mmap(size as u64).unwrap();
            let src_mr = fabric
                .nic(0)
                .register_mr(&mut ctx, &space, src_va, size as u64, Access::LOCAL)
                .unwrap();
            let (qa, _) = fabric.rc_pair(0, 1);
            let sge = Sge::Virt {
                lkey: src_mr.lkey(),
                addr: src_va,
                len: size,
            };
            let mut last = 0;
            for i in 0..per_thread_ops {
                let off = ((t * per_thread_ops + i) * size) as u64 % (big - size as u64);
                let comp = fabric
                    .nic(0)
                    .post_write(
                        &mut ctx,
                        &qa,
                        i as u64,
                        &sge,
                        RemoteAddr {
                            rkey,
                            addr: dst_va + off,
                        },
                        None,
                        false,
                    )
                    .unwrap();
                ctx.wait_until(comp);
                last = ctx.now();
            }
            last
        }));
    }
    let makespan = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .max()
        .unwrap();
    let bytes = (threads * per_thread_ops * size) as u64;
    let gbps = bytes as f64 / makespan as f64; // bytes/ns == GB/s
    let link = COST.link_bytes_per_sec as f64 / 1e9;
    assert!(
        gbps <= link * 1.02,
        "throughput {gbps:.2} GB/s exceeds link {link:.2} GB/s"
    );
    assert!(
        gbps >= link * 0.5,
        "8 blocking writers of 64 KB should get near line rate, got {gbps:.2}"
    );
}

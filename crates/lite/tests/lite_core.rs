//! End-to-end tests of the LITE layer: memory API, RPC, messaging,
//! synchronization, permissions, QoS plumbing, and failure handling.

use std::sync::Arc;

use lite::{
    LiteCluster, LiteConfig, LiteError, LiteHandle, LiteResult, Perm, Priority, QosMode,
    USER_FUNC_MIN,
};
use rnic::IbConfig;
use simnet::Ctx;

#[test]
fn malloc_write_read_across_nodes() {
    let cluster = LiteCluster::start(3).unwrap();
    let mut h0 = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // LMR lives on node 2, master is node 0.
    let lh = h0
        .lt_malloc(&mut ctx, 2, 64 * 1024, "data", Perm::RW)
        .unwrap();
    let payload: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
    h0.lt_write(&mut ctx, lh, 1_000, &payload).unwrap();

    // Node 1 maps by name and reads it back.
    let mut h1 = cluster.attach(1).unwrap();
    let mut ctx1 = Ctx::new();
    let lh1 = h1.lt_map(&mut ctx1, "data").unwrap();
    let mut buf = vec![0u8; payload.len()];
    h1.lt_read(&mut ctx1, lh1, 1_000, &mut buf).unwrap();
    assert_eq!(buf, payload);

    // Out-of-bounds and unknown-name errors are typed.
    assert!(matches!(
        h1.lt_read(&mut ctx1, lh1, 64 * 1024 - 10, &mut [0u8; 100]),
        Err(LiteError::OutOfBounds { .. })
    ));
    assert!(matches!(
        h1.lt_map(&mut ctx1, "nope"),
        Err(LiteError::NameNotFound { .. })
    ));
}

#[test]
fn large_lmr_is_chunked_transparently() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // 16 MB LMR: split into 4 MB physically-consecutive chunks (§4.1).
    let lh = h.lt_malloc(&mut ctx, 1, 16 << 20, "big", Perm::RW).unwrap();
    // Write across a chunk boundary.
    let data = vec![0xCDu8; 1 << 20];
    h.lt_write(&mut ctx, lh, (4 << 20) - 512 * 1024, &data)
        .unwrap();
    let mut buf = vec![0u8; 1 << 20];
    h.lt_read(&mut ctx, lh, (4 << 20) - 512 * 1024, &mut buf)
        .unwrap();
    assert_eq!(buf, data);
}

#[test]
fn name_collision_is_rejected_and_rolled_back() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let _lh = h.lt_malloc(&mut ctx, 1, 4096, "dup", Perm::RW).unwrap();
    let err = h.lt_malloc(&mut ctx, 1, 4096, "dup", Perm::RW).unwrap_err();
    assert!(matches!(err, LiteError::NameExists { .. }));
}

#[test]
fn free_invalidates_remote_mappers() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut ctx0 = Ctx::new();
    let mut ctx1 = Ctx::new();
    let lh = h0.lt_malloc(&mut ctx0, 1, 4096, "gone", Perm::RW).unwrap();
    let lh1 = h1.lt_map(&mut ctx1, "gone").unwrap();
    h1.lt_write(&mut ctx1, lh1, 0, b"ok").unwrap();

    h0.lt_free(&mut ctx0, lh).unwrap();
    // The remote mapper's lh is now stale.
    let err = h1.lt_write(&mut ctx1, lh1, 0, b"x").unwrap_err();
    assert!(matches!(err, LiteError::BadLh { .. }));
    // The name can be reused.
    let _lh2 = h0.lt_malloc(&mut ctx0, 1, 4096, "gone", Perm::RW).unwrap();
}

#[test]
fn permissions_and_grants() {
    let cluster = LiteCluster::start(3).unwrap();
    let mut h0 = cluster.attach(0).unwrap();
    let mut ctx0 = Ctx::new();
    // Default permission for mappers: read-only.
    let lh = h0.lt_malloc(&mut ctx0, 0, 4096, "ro", Perm::RO).unwrap();
    h0.lt_write(&mut ctx0, lh, 0, b"master can write").unwrap();

    let mut h1 = cluster.attach(1).unwrap();
    let mut ctx1 = Ctx::new();
    let lh1 = h1.lt_map(&mut ctx1, "ro").unwrap();
    let mut buf = [0u8; 6];
    h1.lt_read(&mut ctx1, lh1, 0, &mut buf).unwrap();
    assert_eq!(
        h1.lt_write(&mut ctx1, lh1, 0, b"nope"),
        Err(LiteError::PermissionDenied)
    );
    // Non-masters cannot free or grant.
    assert_eq!(h1.lt_free(&mut ctx1, lh1), Err(LiteError::NotMaster));
    assert_eq!(
        h1.lt_grant(&mut ctx1, lh1, 2, Perm::RW),
        Err(LiteError::NotMaster)
    );

    // Master grants node 2 read-write; a fresh map from node 2 gets it.
    h0.lt_grant(&mut ctx0, lh, 2, Perm::RW).unwrap();
    let mut h2 = cluster.attach(2).unwrap();
    let mut ctx2 = Ctx::new();
    let lh2 = h2.lt_map(&mut ctx2, "ro").unwrap();
    h2.lt_write(&mut ctx2, lh2, 0, b"granted!").unwrap();
}

#[test]
fn rpc_echo_roundtrip() {
    let cluster = LiteCluster::start(2).unwrap();
    const ECHO: u8 = USER_FUNC_MIN + 1;
    let server = cluster.attach(1).unwrap();
    server.register_rpc(ECHO).unwrap();

    let cluster2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = cluster2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        for _ in 0..3 {
            let call = h.lt_recv_rpc(&mut ctx, ECHO).unwrap();
            let mut out = call.input.clone();
            out.reverse();
            h.lt_reply_rpc(&mut ctx, &call, &out).unwrap();
        }
        ctx
    });

    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    for msg in [b"abc".to_vec(), vec![7u8; 4096], b"x".to_vec()] {
        let reply = c.lt_rpc(&mut ctx, 1, ECHO, &msg, 1 << 20).unwrap();
        let mut expect = msg.clone();
        expect.reverse();
        assert_eq!(reply, expect);
    }
    let sctx = srv.join().unwrap();
    assert!(sctx.now() > 0);
    // RPC latency is microseconds, not milliseconds.
    assert!(ctx.now() < 1_000_000 * 10, "3 RPCs took {} ns", ctx.now());
}

#[test]
fn rpc_to_self_works_via_loopback() {
    let cluster = LiteCluster::start(2).unwrap();
    const F: u8 = USER_FUNC_MIN + 2;
    let h = cluster.attach(0).unwrap();
    h.register_rpc(F).unwrap();
    let cluster2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = cluster2.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
        h.lt_reply_rpc(&mut ctx, &call, b"self-reply").unwrap();
    });
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let reply = c.lt_rpc(&mut ctx, 0, F, b"hi", 4096).unwrap();
    assert_eq!(reply, b"self-reply");
    srv.join().unwrap();
}

#[test]
fn rpc_unknown_function_errors_not_hangs() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let err = c
        .lt_rpc(&mut ctx, 1, USER_FUNC_MIN + 9, b"hello", 4096)
        .unwrap_err();
    assert!(matches!(err, LiteError::UnknownRpc { .. }));
    // Reserved ids are rejected locally.
    assert!(matches!(
        c.lt_rpc(&mut ctx, 1, 3, b"", 64),
        Err(LiteError::ReservedFunc { .. })
    ));
}

/// A call that fails has still returned from the kernel: with the §5.2
/// crossing optimization ablated (`fast_syscalls = false`), an RPC-side
/// call that errors is charged the same syscall return — two crossings —
/// as one that succeeds.
#[test]
fn failed_rpc_calls_pay_the_syscall_return() {
    const F: u8 = USER_FUNC_MIN + 9;
    type Call = fn(&mut LiteHandle, &mut Ctx) -> LiteResult<()>;
    // Virtual cost of the first `call` on a fresh cluster of its own.
    let cost = |fast_syscalls: bool, serve: bool, call: Call| {
        let config = LiteConfig {
            fast_syscalls,
            ..Default::default()
        };
        let cluster = LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap();
        // Kernel-level server: its own cost does not depend on the knob.
        let srv = serve.then(|| {
            let mut h = cluster.attach_kernel(1).unwrap();
            h.register_rpc(F).unwrap();
            std::thread::spawn(move || {
                let mut ctx = Ctx::new();
                let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
                h.lt_reply_rpc(&mut ctx, &call, b"pong").unwrap();
            })
        });
        let mut c = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let outcome = call(&mut c, &mut ctx);
        assert_eq!(outcome.is_ok(), serve);
        if let Some(srv) = srv {
            srv.join().unwrap();
        }
        ctx.now()
    };
    let rpc: Call = |c, ctx| c.lt_rpc(ctx, 1, F, b"ping", 64).map(|_| ());
    let send: Call = |c, ctx| c.lt_send(ctx, 1, &vec![0; lite::api::MAX_RPC_PAYLOAD + 1]);
    // Node 5 is not in the cluster; lh 999 was never handed out; a 1 TB
    // reply cell cannot be carved out of the scratch allocator.
    let malloc: Call = |c, ctx| c.lt_malloc(ctx, 5, 64, "nowhere", Perm::RW).map(|_| ());
    let free: Call = |c, ctx| c.lt_free(ctx, 999);
    let mv: Call = |c, ctx| c.lt_move(ctx, 999, 1);
    let grant: Call = |c, ctx| c.lt_grant(ctx, 999, 1, Perm::RW);
    let memset: Call = |c, ctx| c.lt_memset(ctx, 999, 0, 8, 0);
    let memcpy: Call = |c, ctx| c.lt_memcpy(ctx, 999, 0, 998, 0, 8);
    let multicast: Call = |c, ctx| {
        c.lt_multicast_rpc_partial(ctx, &[1], F, b"ping", 1 << 40)
            .map(|_| ())
    };
    let syscall_return = 2 * lite::api::SYSCALL_CROSSING_NS;
    assert_eq!(
        cost(false, true, rpc) - cost(true, true, rpc),
        syscall_return
    );
    for (name, failing) in [
        ("lt_rpc", rpc),
        ("lt_send", send),
        ("lt_malloc", malloc),
        ("lt_free", free),
        ("lt_move", mv),
        ("lt_grant", grant),
        ("lt_memset", memset),
        ("lt_memcpy", memcpy),
        ("lt_multicast_rpc_partial", multicast),
    ] {
        assert_eq!(
            cost(false, false, failing) - cost(true, false, failing),
            syscall_return,
            "{name} that fails"
        );
    }
}

#[test]
fn reply_recv_combined_pipeline() {
    let cluster = LiteCluster::start(2).unwrap();
    const F: u8 = USER_FUNC_MIN + 3;
    cluster.attach(1).unwrap().register_rpc(F).unwrap();
    let n = 16;
    let cluster2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = cluster2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let mut call = h.lt_recv_rpc(&mut ctx, F).unwrap();
        for _ in 0..n - 1 {
            let out = vec![call.input[0] + 1];
            call = h.lt_reply_recv(&mut ctx, &call, &out, F).unwrap();
        }
        h.lt_reply_rpc(&mut ctx, &call, &[call.input[0] + 1])
            .unwrap();
    });
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    for i in 0..n {
        let reply = c.lt_rpc(&mut ctx, 1, F, &[i as u8], 64).unwrap();
        assert_eq!(reply, vec![i as u8 + 1]);
    }
    srv.join().unwrap();
}

#[test]
fn messaging_send_recv() {
    let cluster = LiteCluster::start(2).unwrap();
    let cluster2 = Arc::clone(&cluster);
    let recv = std::thread::spawn(move || {
        let mut h = cluster2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let (src, data) = h.lt_recv_msg(&mut ctx).unwrap();
        assert_eq!(src, 0);
        data
    });
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    h.lt_send(&mut ctx, 1, b"one-way message").unwrap();
    assert_eq!(recv.join().unwrap(), b"one-way message");
}

#[test]
fn memset_memcpy_between_nodes() {
    let cluster = LiteCluster::start(3).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let a = h.lt_malloc(&mut ctx, 1, 8192, "a", Perm::RW).unwrap();
    let b = h.lt_malloc(&mut ctx, 2, 8192, "b", Perm::RW).unwrap();

    h.lt_memset(&mut ctx, a, 100, 2000, 0x5A).unwrap();
    let mut buf = vec![0u8; 2000];
    h.lt_read(&mut ctx, a, 100, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 0x5A));

    // Cross-node memcpy a→b (executed by node 1 pushing to node 2).
    h.lt_memcpy(&mut ctx, a, 100, b, 500, 2000).unwrap();
    let mut buf2 = vec![0u8; 2000];
    h.lt_read(&mut ctx, b, 500, &mut buf2).unwrap();
    assert!(buf2.iter().all(|&x| x == 0x5A));

    // Same-node memcpy within one LMR via memmove.
    h.lt_memmove(&mut ctx, b, 500, b, 4000, 1000).unwrap();
    let mut buf3 = vec![0u8; 1000];
    h.lt_read(&mut ctx, b, 4000, &mut buf3).unwrap();
    assert!(buf3.iter().all(|&x| x == 0x5A));
}

#[test]
fn fetch_add_and_test_set() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "ctr", Perm::RW).unwrap();
    assert_eq!(h.lt_fetch_add(&mut ctx, lh, 0, 5).unwrap(), 0);
    assert_eq!(h.lt_fetch_add(&mut ctx, lh, 0, 3).unwrap(), 5);
    assert_eq!(h.lt_test_set(&mut ctx, lh, 8, 0, 99).unwrap(), 0);
    assert_eq!(h.lt_test_set(&mut ctx, lh, 8, 0, 77).unwrap(), 99);
    let mut buf = [0u8; 8];
    h.lt_read(&mut ctx, lh, 8, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 99);
}

#[test]
fn lock_is_mutually_exclusive_and_fifoish() {
    let cluster = LiteCluster::start(3).unwrap();
    let mut owner = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lock = owner.lt_create_lock(&mut ctx).unwrap();

    // Uncontended acquire is fast (~2.2 us one fetch-add, §7.2).
    let t0 = ctx.now();
    owner.lt_lock(&mut ctx, lock).unwrap();
    let fast = ctx.now() - t0;
    assert!(fast < 5_000, "uncontended lock took {fast} ns");
    owner.lt_unlock(&mut ctx, lock).unwrap();

    // 3 nodes × 2 threads hammer a shared counter under the lock.
    let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for node in 0..3 {
        for _ in 0..2 {
            let cluster = Arc::clone(&cluster);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                for _ in 0..20 {
                    h.lt_lock(&mut ctx, lock).unwrap();
                    // Critical section: non-atomic read-modify-write made
                    // safe only by the LITE lock.
                    let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                    std::thread::yield_now();
                    counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                    h.lt_unlock(&mut ctx, lock).unwrap();
                }
            }));
        }
    }
    for th in handles {
        th.join().unwrap();
    }
    assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 120);
}

#[test]
fn barrier_releases_all_at_once() {
    let cluster = LiteCluster::start(4).unwrap();
    let arrived = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for node in 0..4 {
        let cluster = Arc::clone(&cluster);
        let arrived = Arc::clone(&arrived);
        handles.push(std::thread::spawn(move || {
            let mut h = cluster.attach(node).unwrap();
            let mut ctx = Ctx::new();
            if node == 3 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            arrived.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            h.lt_barrier(&mut ctx, 42, 4).unwrap();
            // By the time anyone passes, all four must have arrived.
            assert_eq!(arrived.load(std::sync::atomic::Ordering::SeqCst), 4);
        }));
    }
    for th in handles {
        th.join().unwrap();
    }
}

#[test]
fn multicast_rpc_gathers_all_replies() {
    let cluster = LiteCluster::start(4).unwrap();
    const F: u8 = USER_FUNC_MIN + 4;
    let mut servers = Vec::new();
    for node in 1..4 {
        cluster.attach(node).unwrap().register_rpc(F).unwrap();
        let cluster = Arc::clone(&cluster);
        servers.push(std::thread::spawn(move || {
            let mut h = cluster.attach(node).unwrap();
            let mut ctx = Ctx::new();
            let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
            h.lt_reply_rpc(&mut ctx, &call, &[node as u8]).unwrap();
        }));
    }
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let replies = c
        .lt_multicast_rpc(&mut ctx, &[1, 2, 3], F, b"bcast", 64)
        .unwrap();
    assert_eq!(replies, vec![vec![1u8], vec![2u8], vec![3u8]]);
    for s in servers {
        s.join().unwrap();
    }
}

#[test]
fn qp_sharing_counts_match_section_6_1() {
    // LITE uses K×(N-1) QPs per node regardless of thread count — and
    // with incremental membership (DESIGN.md §12) pairs are wired on
    // first use, so boot itself creates *zero* data QPs.
    let cluster = LiteCluster::start_with(
        rnic::IbConfig::with_nodes(5),
        lite::LiteConfig::with_qp_factor(2),
    )
    .unwrap();
    for node in 0..5 {
        assert_eq!(cluster.kernel(node).stats().qps, 0);
    }
    assert_eq!(cluster.fabric().nic(0).stats().live_qps, 0);
    // Touch every pair once; each unordered pair is wired exactly once
    // no matter which side posted first.
    let mut ctx = Ctx::new();
    for node in 0..5usize {
        let mut h = cluster.attach(node).unwrap();
        h.lt_malloc(&mut ctx, node, 4096, &format!("qp{node}"), Perm::RW)
            .unwrap();
    }
    for node in 0..5usize {
        let mut h = cluster.attach(node).unwrap();
        for peer in 0..5 {
            if peer != node {
                let lh = h.lt_map(&mut ctx, &format!("qp{peer}")).unwrap();
                h.lt_write(&mut ctx, lh, 0, &[peer as u8]).unwrap();
            }
        }
    }
    // Fully meshed now: K×(N-1) per node, and the NIC sees exactly
    // those QPs, not 2×N×T.
    for node in 0..5 {
        assert_eq!(cluster.kernel(node).stats().qps, 2 * 4);
    }
    assert_eq!(cluster.fabric().nic(0).stats().live_qps, 8);
}

#[test]
fn qos_modes_switch_and_low_priority_is_throttled_under_hwsep() {
    let cluster = LiteCluster::start(2).unwrap();
    cluster.set_qos_mode(QosMode::HwSep);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 1 << 20, "qos", Perm::RW).unwrap();
    let data = vec![0u8; 256 * 1024];

    // Low priority is capped at its HW share even with an idle link.
    h.set_priority(Priority::Low);
    let t0 = ctx.now();
    for _ in 0..8 {
        h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    }
    let low_time = ctx.now() - t0;

    cluster.set_qos_mode(QosMode::None);
    let t1 = ctx.now();
    for _ in 0..8 {
        h.lt_write(&mut ctx, lh, 0, &data).unwrap();
    }
    let free_time = ctx.now() - t1;
    assert!(
        low_time > free_time * 2,
        "HW-Sep low-priority ({low_time}) should be much slower than unrestricted ({free_time})"
    );
}

#[test]
fn node_down_yields_timeout_not_hang() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "down", Perm::RW).unwrap();
    cluster.fabric().set_down(1, true);
    let err = h.lt_write(&mut ctx, lh, 0, b"x").unwrap_err();
    assert_eq!(err, LiteError::Timeout);
    cluster.fabric().set_down(1, false);
    h.lt_write(&mut ctx, lh, 0, b"x").unwrap();
}

#[test]
fn unmap_then_use_fails() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "u", Perm::RW).unwrap();
    h.lt_unmap(&mut ctx, lh).unwrap();
    assert!(matches!(
        h.lt_write(&mut ctx, lh, 0, b"x"),
        Err(LiteError::BadLh { .. })
    ));
}

#[test]
fn concurrent_rpc_clients_share_one_server_ring() {
    let cluster = LiteCluster::start(2).unwrap();
    const F: u8 = USER_FUNC_MIN + 5;
    cluster.attach(1).unwrap().register_rpc(F).unwrap();
    let total = 4 * 50;
    let cluster2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = cluster2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        for _ in 0..total {
            let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
            let out = call.input.iter().map(|b| b ^ 0xFF).collect::<Vec<_>>();
            h.lt_reply_rpc(&mut ctx, &call, &out).unwrap();
        }
    });
    let mut clients = Vec::new();
    for t in 0..4u8 {
        let cluster = Arc::clone(&cluster);
        clients.push(std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            for i in 0..50u8 {
                let msg = vec![t, i, t ^ i];
                let reply = h.lt_rpc(&mut ctx, 1, F, &msg, 64).unwrap();
                let expect: Vec<u8> = msg.iter().map(|b| b ^ 0xFF).collect();
                assert_eq!(reply, expect);
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    srv.join().unwrap();
}

#[test]
fn kernel_level_handle_skips_crossings() {
    // Two isolated clusters so the measurements share no queues.
    let measure = |kernel_level: bool| {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = if kernel_level {
            cluster.attach_kernel(0).unwrap()
        } else {
            cluster.attach(0).unwrap()
        };
        let mut ctx = Ctx::new();
        let lh = h.lt_malloc(&mut ctx, 1, 4096, "m", Perm::RW).unwrap();
        h.lt_write(&mut ctx, lh, 0, b"warm").unwrap();
        let mut total = 0;
        for _ in 0..32 {
            let t0 = ctx.now();
            h.lt_write(&mut ctx, lh, 0, b"data").unwrap();
            total += ctx.now() - t0;
        }
        total / 32
    };
    let user_lat = measure(false);
    let kern_lat = measure(true);
    assert!(
        user_lat > kern_lat,
        "user-level ({user_lat}) must pay the crossing over kernel-level ({kern_lat})"
    );
    assert!(user_lat - kern_lat < 1_000, "crossing cost is sub-µs");
}

#[test]
fn lt_move_migrates_data_and_invalidates_mappers() {
    let cluster = LiteCluster::start(3).unwrap();
    let mut master = cluster.attach(0).unwrap();
    let mut mctx = Ctx::new();
    let lh = master
        .lt_malloc(&mut mctx, 1, 64 * 1024, "movable", Perm::RW)
        .unwrap();
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
    master.lt_write(&mut mctx, lh, 100, &payload).unwrap();

    // A remote mapper caches the old location.
    let mut mapper = cluster.attach(2).unwrap();
    let mut ctx2 = Ctx::new();
    let lh2 = mapper.lt_map(&mut ctx2, "movable").unwrap();
    let mut probe = vec![0u8; 16];
    mapper.lt_read(&mut ctx2, lh2, 100, &mut probe).unwrap();
    assert_eq!(&probe[..], &payload[..16]);

    // Master moves the LMR from node 1 to node 2.
    master.lt_move(&mut mctx, lh, 2).unwrap();

    // The master's own lh keeps working against the new location.
    let mut back = vec![0u8; payload.len()];
    master.lt_read(&mut mctx, lh, 100, &mut back).unwrap();
    assert_eq!(back, payload);
    master.lt_write(&mut mctx, lh, 0, b"post-move").unwrap();

    // The old mapper's lh is stale; a fresh map sees the new home.
    assert!(matches!(
        mapper.lt_read(&mut ctx2, lh2, 100, &mut probe),
        Err(LiteError::BadLh { .. })
    ));
    let lh3 = mapper.lt_map(&mut ctx2, "movable").unwrap();
    mapper.lt_read(&mut ctx2, lh3, 100, &mut probe).unwrap();
    assert_eq!(&probe[..], &payload[..16]);

    // Non-masters cannot move.
    assert_eq!(mapper.lt_move(&mut ctx2, lh3, 1), Err(LiteError::NotMaster));
}

#[test]
fn lt_move_chunked_large_lmr() {
    // A 12 MB LMR spans multiple 4 MB chunks; the move must stitch the
    // pieces back together byte-exactly.
    let cluster = LiteCluster::start(3).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 12 << 20, "bigmove", Perm::RW)
        .unwrap();
    let stamp: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    // Stamp a pattern near each chunk boundary.
    for mb in [0u64, 4, 8, 11] {
        h.lt_write(&mut ctx, lh, mb * (1 << 20) + 7, &stamp)
            .unwrap();
    }
    h.lt_move(&mut ctx, lh, 2).unwrap();
    for mb in [0u64, 4, 8, 11] {
        let mut buf = vec![0u8; 4096];
        h.lt_read(&mut ctx, lh, mb * (1 << 20) + 7, &mut buf)
            .unwrap();
        assert_eq!(buf, stamp, "corruption after move at {mb} MB");
    }
}

//! Stress and edge-case tests of the LITE RPC stack: tiny rings with
//! wrap-around under concurrency, oversized replies, multicast failures,
//! per-sender ordering, and barrier reuse.

use std::sync::Arc;

use lite::{LiteCluster, LiteConfig, LiteError, USER_FUNC_MIN};
use rnic::IbConfig;
use simnet::Ctx;

/// A deliberately tiny (64 KB) ring forces constant wrap-around and
/// head-cell pulls (flow control) under 4 concurrent clients.
#[test]
fn tiny_ring_wraps_under_concurrency() {
    let config = LiteConfig {
        rpc_ring_bytes: 64 * 1024,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap();
    const F: u8 = USER_FUNC_MIN + 11;
    cluster.attach(1).unwrap().register_rpc(F).unwrap();
    let per_client = 150;
    let clients = 4;
    let c2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = c2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        for _ in 0..per_client * clients {
            let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
            // Echo a checksum so corruption is caught.
            let sum: u64 = call.input.iter().map(|&b| b as u64).sum();
            h.lt_reply_rpc(&mut ctx, &call, &sum.to_le_bytes()).unwrap();
        }
    });
    let mut joins = Vec::new();
    for t in 0..clients as u8 {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            for i in 0..per_client {
                // Payload sizes chosen to hit the wrap at odd offsets.
                let len = 500 + ((t as usize * per_client + i) * 37) % 9_000;
                let payload: Vec<u8> = (0..len).map(|j| (j as u8) ^ t).collect();
                let expect: u64 = payload.iter().map(|&b| b as u64).sum();
                let reply = h.lt_rpc(&mut ctx, 1, F, &payload, 64).unwrap();
                assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), expect);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    srv.join().unwrap();
}

/// Rings are wired lazily, so one can land on memory an LMR dirtied and
/// freed. Its head cell must still read "nothing consumed": a client
/// that fills the ring before the server consumed anything gets a typed
/// `RingFull` in bounded time, keeps its clock, and carries on once the
/// server drains.
#[test]
fn ring_on_reused_memory_starts_empty() {
    let config = LiteConfig {
        rpc_ring_bytes: 1 << 10,
        op_timeout: std::time::Duration::from_millis(150),
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(3), config).unwrap();
    let mut ctx = Ctx::new();
    let mut dirty = cluster.attach(0).unwrap();
    let lh = dirty
        .lt_malloc(&mut ctx, 1, 8 << 10, "dirt", lite::Perm::RW)
        .unwrap();
    dirty.lt_write(&mut ctx, lh, 0, &[0x11; 8 << 10]).unwrap();
    dirty.lt_free(&mut ctx, lh).unwrap();

    // Node 2's ring at node 1 is wired now, over the freed bytes. Four
    // 256-byte messages fill it; nobody receives yet.
    let mut h = cluster.attach(2).unwrap();
    let mut ctx = Ctx::new();
    for i in 0..4u8 {
        h.lt_send(&mut ctx, 1, &[i; 200]).unwrap();
    }
    let before = ctx.now();
    let full = h.lt_send(&mut ctx, 1, &[4; 200]);
    assert!(matches!(full, Err(LiteError::RingFull)), "{full:?}");
    assert!(
        ctx.now() - before < 1_000_000,
        "a pull costs a read, not a jump to a garbage stamp"
    );
    assert_eq!(
        cluster.kernel(2).stats().ring_pulls,
        1,
        "no progress, one pull"
    );

    let mut srv = cluster.attach(1).unwrap();
    let mut sctx = Ctx::new();
    // (Two shared QPs: arrival order across them is not the send order.)
    let mut got: Vec<_> = (0..4)
        .map(|_| srv.lt_recv_msg(&mut sctx).unwrap())
        .collect();
    got.sort();
    assert_eq!(got, (0..4u8).map(|i| (2, vec![i; 200])).collect::<Vec<_>>());
    h.lt_send(&mut ctx, 1, &[4; 200]).unwrap();
    assert_eq!(srv.lt_recv_msg(&mut sctx).unwrap(), (2, vec![4; 200]));
}

/// Replies larger than the client's announced buffer are rejected at the
/// server with a typed error — not written past the buffer.
#[test]
fn oversized_reply_is_rejected() {
    let cluster = LiteCluster::start(2).unwrap();
    const F: u8 = USER_FUNC_MIN + 12;
    cluster.attach(1).unwrap().register_rpc(F).unwrap();
    let c2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = c2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
        let too_big = vec![9u8; 1024];
        let err = h.lt_reply_rpc(&mut ctx, &call, &too_big).unwrap_err();
        assert!(matches!(err, LiteError::TooLarge { .. }));
        // A fitting reply still goes through afterwards.
        h.lt_reply_rpc(&mut ctx, &call, &[1, 2, 3]).unwrap();
    });
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let reply = c.lt_rpc(&mut ctx, 1, F, b"gimme", 64).unwrap();
    assert_eq!(reply, vec![1, 2, 3]);
    srv.join().unwrap();
}

/// Oversized *inputs* are rejected locally before touching the wire.
#[test]
fn oversized_input_rejected_locally() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let huge = vec![0u8; 5 << 20];
    assert!(matches!(
        c.lt_rpc(&mut ctx, 1, USER_FUNC_MIN + 1, &huge, 64),
        Err(LiteError::TooLarge { .. })
    ));
}

/// Multicast to a set that includes a node with no handler: the call
/// reports the failure rather than hanging, and healthy targets replied.
#[test]
fn multicast_partial_failure_reports() {
    let cluster = LiteCluster::start(4).unwrap();
    const F: u8 = USER_FUNC_MIN + 13;
    // Only nodes 1 and 2 serve; node 3 never registered the function.
    for node in [1usize, 2] {
        cluster.attach(node).unwrap().register_rpc(F).unwrap();
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(node).unwrap();
            let mut ctx = Ctx::new();
            if let Ok(call) = h.lt_recv_rpc(&mut ctx, F) {
                let _ = h.lt_reply_rpc(&mut ctx, &call, &[node as u8]);
            }
        });
    }
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let err = c
        .lt_multicast_rpc(&mut ctx, &[1, 2, 3], F, b"x", 64)
        .unwrap_err();
    assert!(matches!(err, LiteError::UnknownRpc { .. }));
}

/// Messages from one sender arrive in order when the sender uses a
/// single QP (K = 1): RC guarantees per-QP FIFO. With K > 1, LITE's
/// round-robin QP sharing can reorder across QPs — exactly as on real
/// hardware — so applications needing total order use one QP or sequence
/// numbers.
#[test]
fn per_sender_message_order() {
    let cluster =
        LiteCluster::start_with(IbConfig::with_nodes(2), LiteConfig::with_qp_factor(1)).unwrap();
    let c2 = Arc::clone(&cluster);
    let n = 200u32;
    let recv = std::thread::spawn(move || {
        let mut h = c2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let mut last = None;
        for _ in 0..n {
            let (_, data) = h.lt_recv_msg(&mut ctx).unwrap();
            let v = u32::from_le_bytes(data.try_into().unwrap());
            if let Some(prev) = last {
                assert_eq!(v, prev + 1, "message reordering within one sender");
            }
            last = Some(v);
        }
    });
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    for i in 0..n {
        h.lt_send(&mut ctx, 1, &i.to_le_bytes()).unwrap();
    }
    recv.join().unwrap();
}

/// Barriers can be reused sequentially with the same id and different
/// participant counts.
#[test]
fn barrier_reuse_and_varied_counts() {
    let cluster = LiteCluster::start(3).unwrap();
    for round in 0..3u64 {
        let mut joins = Vec::new();
        for node in 0..3 {
            let cluster = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                h.lt_barrier(&mut ctx, 555, 3).unwrap();
                let _ = round;
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
    // A two-party barrier with a different id runs independently.
    let mut joins = Vec::new();
    for node in 0..2 {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(node).unwrap();
            let mut ctx = Ctx::new();
            h.lt_barrier(&mut ctx, 556, 2).unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

/// Interleaved handles on one node: dropping one mid-flight releases its
/// staging without disturbing the other.
#[test]
fn handle_drop_releases_resources() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut keep = cluster.attach(0).unwrap();
    let mut kctx = Ctx::new();
    let lh = keep
        .lt_malloc(&mut kctx, 1, 4096, "keeper", lite::Perm::RW)
        .unwrap();
    for _ in 0..20 {
        let mut temp = cluster.attach(0).unwrap();
        let mut tctx = Ctx::new();
        let tlh = temp.lt_map(&mut tctx, "keeper").unwrap();
        temp.lt_write(&mut tctx, tlh, 0, b"transient").unwrap();
        // temp dropped here; its staging/reply scratch must be reclaimed.
    }
    keep.lt_write(&mut kctx, lh, 0, b"still fine").unwrap();
    let mut buf = [0u8; 10];
    keep.lt_read(&mut kctx, lh, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"still fine");
}

/// Buffers far larger than the initial 64 KB scratch exercise the
/// staging-growth path on both the one-sided and RPC planes.
#[test]
fn large_buffers_grow_staging() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 3 << 20, "bigbuf", lite::Perm::RW)
        .unwrap();
    let data: Vec<u8> = (0..2_500_000u32).map(|i| (i % 241) as u8).collect();
    h.lt_write(&mut ctx, lh, 17, &data).unwrap();
    let mut back = vec![0u8; data.len()];
    h.lt_read(&mut ctx, lh, 17, &mut back).unwrap();
    assert_eq!(back, data);

    // A 1 MB RPC payload (under the 4 MB cap) round-trips too.
    const F: u8 = USER_FUNC_MIN + 14;
    cluster.attach(1).unwrap().register_rpc(F).unwrap();
    let c2 = Arc::clone(&cluster);
    let srv = std::thread::spawn(move || {
        let mut h = c2.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
        let digest: u64 = call.input.iter().map(|&b| b as u64).sum();
        let mut out = digest.to_le_bytes().to_vec();
        out.extend_from_slice(&call.input[..1024]);
        h.lt_reply_rpc(&mut ctx, &call, &out).unwrap();
    });
    let payload = vec![0x42u8; 1 << 20];
    let reply = h.lt_rpc(&mut ctx, 1, F, &payload, 2 << 20).unwrap();
    let digest = u64::from_le_bytes(reply[..8].try_into().unwrap());
    assert_eq!(digest, 0x42u64 * (1 << 20));
    assert!(reply[8..].iter().all(|&b| b == 0x42));
    srv.join().unwrap();
}

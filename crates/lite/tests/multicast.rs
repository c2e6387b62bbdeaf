//! Direct coverage for `lt_multicast_rpc` / `lt_multicast_rpc_partial`:
//! fan-out ordering, partial-failure isolation (one bad destination must
//! not poison the others' replies), behavior under a seeded fault plan,
//! and a scratch-balance regression test for the resource leaks the
//! fault path originally turned up (reply buffers and completion slots
//! orphaned by early returns mid-fan-out).

use std::sync::Arc;
use std::time::Duration;

use lite::{LiteCluster, LiteConfig, LiteError, USER_FUNC_MIN};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

/// Spawns an echo server on `node` that answers `calls` requests for
/// `func` with its own node id followed by the request payload.
fn echo_server(
    cluster: &Arc<LiteCluster>,
    node: usize,
    func: u8,
    calls: usize,
) -> std::thread::JoinHandle<()> {
    cluster.attach(node).unwrap().register_rpc(func).unwrap();
    let cluster = Arc::clone(cluster);
    std::thread::spawn(move || {
        let mut h = cluster.attach(node).unwrap();
        let mut ctx = Ctx::new();
        for _ in 0..calls {
            // Retry on timeout: some tests run with a short `op_timeout`
            // and the client may not have posted yet.
            let call = loop {
                match h.lt_recv_rpc(&mut ctx, func) {
                    Ok(call) => break call,
                    Err(LiteError::Timeout) => continue,
                    Err(e) => panic!("server recv failed: {e:?}"),
                }
            };
            let mut reply = vec![node as u8];
            reply.extend_from_slice(&call.input);
            h.lt_reply_rpc(&mut ctx, &call, &reply).unwrap();
        }
    })
}

/// Replies come back in destination order regardless of which server
/// answers first, and repeated fan-outs reuse the handle's persistent
/// reply cells without disturbing results.
#[test]
fn multicast_replies_align_with_destination_order() {
    let cluster = LiteCluster::start(4).unwrap();
    const F: u8 = USER_FUNC_MIN + 11;
    let rounds = 3usize;
    let servers: Vec<_> = (1..4)
        .map(|node| echo_server(&cluster, node, F, rounds))
        .collect();

    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // Destinations deliberately out of node order: the result vector
    // must be indexed by position in `servers`, not by node id.
    for round in 0..rounds {
        let payload = [round as u8];
        let replies = c
            .lt_multicast_rpc(&mut ctx, &[3, 1, 2], F, &payload, 64)
            .unwrap();
        assert_eq!(
            replies,
            vec![
                vec![3, round as u8],
                vec![1, round as u8],
                vec![2, round as u8]
            ]
        );
    }
    for s in servers {
        s.join().unwrap();
    }
}

/// A destination that never registered the function gets an error reply;
/// the partial API surfaces it in that destination's slot while the
/// other replies come through intact, and the all-or-nothing wrapper
/// turns the same outcome into a call-wide error.
#[test]
fn multicast_partial_isolates_unregistered_destination() {
    let cluster = LiteCluster::start(4).unwrap();
    const F: u8 = USER_FUNC_MIN + 12;
    // Servers on 1 and 3 only — node 2 never binds the function, so its
    // poller error-replies and releases the ring slot itself.
    let servers: Vec<_> = [1usize, 3]
        .into_iter()
        .map(|node| echo_server(&cluster, node, F, 2))
        .collect();

    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let results = c
        .lt_multicast_rpc_partial(&mut ctx, &[1, 2, 3], F, b"go", 64)
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_deref().unwrap(), [1, b'g', b'o']);
    assert!(matches!(results[1], Err(LiteError::UnknownRpc { func: F })));
    assert_eq!(results[2].as_deref().unwrap(), [3, b'g', b'o']);

    // Same fan-out through the all-or-nothing view: the healthy replies
    // are discarded and the first failure is the call's result.
    let err = c
        .lt_multicast_rpc(&mut ctx, &[1, 2, 3], F, b"go", 64)
        .unwrap_err();
    assert!(matches!(err, LiteError::UnknownRpc { func: F }));
    for s in servers {
        s.join().unwrap();
    }
}

/// With one destination crashed by a seeded fault plan, the fan-out
/// still gathers the live destinations' replies and reports a
/// per-destination error for the dead one.
#[test]
fn multicast_partial_survives_crashed_destination() {
    const F: u8 = USER_FUNC_MIN + 13;
    let config = LiteConfig {
        // Short deadlines: the dead destination should fail the call
        // quickly instead of serializing the test on long timeouts.
        op_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(4), config).unwrap();
    let servers: Vec<_> = [1usize, 3]
        .into_iter()
        .map(|node| echo_server(&cluster, node, F, 1))
        .collect();
    // Node 2 dies on the first fabric op and never comes back.
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(7).with(FaultRule::CrashNode {
            node: 2,
            at_op: 1,
            restart_after_ops: u64::MAX,
        }));

    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let results = c
        .lt_multicast_rpc_partial(&mut ctx, &[1, 2, 3], F, b"up?", 64)
        .unwrap();
    assert_eq!(results[0].as_deref().unwrap(), [1, b'u', b'p', b'?']);
    assert!(results[1].is_err(), "crashed destination must error");
    assert_eq!(results[2].as_deref().unwrap(), [3, b'u', b'p', b'?']);
    assert!(cluster.fabric().fault_stats().crashes >= 1);
    for s in servers {
        s.join().unwrap();
    }
}

/// Regression test for the leak the fault path turned up: the original
/// multicast bailed out with `?` mid-fan-out, orphaning the reply
/// buffers and completion slots of destinations already posted (and
/// skipping the syscall-exit bookkeeping). Failing fan-outs must leave
/// the client kernel's scratch allocator balance exactly where they
/// found it, and the handle must remain usable afterwards.
#[test]
fn multicast_failure_paths_release_client_scratch() {
    const F: u8 = USER_FUNC_MIN + 14;
    let config = LiteConfig {
        op_timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(3), config).unwrap();
    let server = echo_server(&cluster, 1, F, 2);

    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // Warm-up: one successful fan-out sizes the handle's persistent
    // staging and multicast-reply scratch.
    c.lt_multicast_rpc(&mut ctx, &[1], F, b"warm", 64).unwrap();

    // Crash node 2, then let one failing call settle any lazy wiring
    // state (ring structures are cached across calls, so the first
    // attempt may legitimately shift the allocator balance).
    cluster
        .fabric()
        .install_fault_plan(FaultPlan::seeded(11).with(FaultRule::CrashNode {
            node: 2,
            at_op: 1,
            restart_after_ops: u64::MAX,
        }));
    let _ = c.lt_multicast_rpc(&mut ctx, &[2], F, b"warm", 64);

    let baseline = c.kernel().scratch_free_bytes();
    for i in 0..10 {
        let r = c.lt_multicast_rpc(&mut ctx, &[2], F, b"warm", 64);
        assert!(r.is_err(), "call {i} to a crashed node must fail");
        assert_eq!(
            c.kernel().scratch_free_bytes(),
            baseline,
            "failing multicast {i} moved the scratch allocator balance"
        );
    }

    // The handle is still healthy: a fresh fan-out to the live server
    // succeeds with the same persistent scratch.
    let replies = c.lt_multicast_rpc(&mut ctx, &[1], F, b"ok", 64).unwrap();
    assert_eq!(replies, vec![vec![1, b'o', b'k']]);
    server.join().unwrap();
}

/// A reply longer than the `max_reply` a multicast announced never
/// reaches its cell, whose neighbours belong to other destinations: the
/// server is refused with `TooLarge`, as for `lt_rpc`, and the reply that
/// fits is what the destination's entry holds. (A server that ignored the
/// limit is a `TooLarge` at the client too, not a truncated reply — the
/// `api` unit tests forge one.)
#[test]
fn multicast_reply_larger_than_max_reply_is_refused() {
    const F: u8 = USER_FUNC_MIN + 15;
    let cluster = LiteCluster::start(3).unwrap();
    let polite = echo_server(&cluster, 1, F, 1);
    cluster.attach(2).unwrap().register_rpc(F).unwrap();
    let greedy = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(2).unwrap();
            let mut ctx = Ctx::new();
            let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
            let refused = h.lt_reply_rpc(&mut ctx, &call, &[9u8; 9]);
            assert_eq!(refused, Err(LiteError::TooLarge { len: 9, max: 8 }));
            h.lt_reply_rpc(&mut ctx, &call, &[2u8; 8]).unwrap();
        })
    };
    let mut c = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let replies = c
        .lt_multicast_rpc(&mut ctx, &[2, 1], F, b"seven b", 8)
        .unwrap();
    assert_eq!(replies[0], [2u8; 8]);
    assert_eq!(replies[1], [&[1u8][..], b"seven b"].concat());
    polite.join().unwrap();
    greedy.join().unwrap();
}

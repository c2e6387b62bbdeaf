//! Served functions (DESIGN.md §5.3): a function bound with
//! `LiteHandle::serve_rpc` has no server thread; the thread that delivers
//! a call runs its handler once that thread holds nothing.
//!
//! (a) A served echo costs its caller exactly what an echo served by a
//! thread with `lt_recv_rpc` + `lt_reply_rpc` costs, call for call, in
//! virtual time. (b) Four client threads hammering one served function
//! get every reply, promptly: a call delivered while another thread holds
//! the server is served by that holder, never left queued — (c) even one
//! that lands after the holder's pass over its queue. Nesting (a call
//! found while a handler runs waits until it returns) is
//! `lite::kernel::serve`'s unit test: it holds a node's poller by hand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use lite::{LiteCluster, LiteHandle, RpcHandler, USER_FUNC_MIN};
use simnet::Ctx;

const ECHO: u8 = USER_FUNC_MIN + 7;

/// Echoes every call on its own clock.
struct Echo {
    ctx: Ctx,
}

impl RpcHandler for Echo {
    fn ctx(&mut self, _: u8) -> &mut Ctx {
        &mut self.ctx
    }

    fn call(&mut self, _: &mut LiteHandle, _: u8, input: &[u8], reply: &mut Vec<u8>) {
        reply.extend_from_slice(input);
    }
}

/// The calls of (a): sizes from a few bytes to past a 4 KiB page.
fn inputs() -> impl Iterator<Item = Vec<u8>> {
    (0..300u32).map(|i| {
        let len = [8, 64, 1024, 4096, 5000][i as usize % 5];
        (0..len).map(|b| (b as u32 ^ i) as u8).collect()
    })
}

/// Each call's virtual latency, as node 0's one client sees it, against an
/// echo on node 1 of a fresh cluster.
fn latencies(cluster: &LiteCluster) -> Vec<u64> {
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    inputs()
        .map(|input| {
            let start = ctx.now();
            let reply = h.lt_rpc(&mut ctx, 1, ECHO, &input, 8192).unwrap();
            assert_eq!(reply, input);
            ctx.now() - start
        })
        .collect()
}

/// (a) The same 300 calls against a served echo and against a server
/// thread: identical virtual latencies, call for call.
#[test]
fn a_served_call_costs_what_a_thread_served_one_costs() {
    let served = {
        let cluster = LiteCluster::start(2).unwrap();
        let h = cluster.attach(1).unwrap();
        let _server = h.serve_rpc(&[ECHO], Echo { ctx: Ctx::new() }).unwrap();
        latencies(&cluster)
    };
    let threaded = {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(1).unwrap();
        h.register_rpc(ECHO).unwrap();
        let server = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in inputs() {
                let call = h.lt_recv_rpc(&mut ctx, ECHO).unwrap();
                h.lt_reply_rpc(&mut ctx, &call, &call.input).unwrap();
            }
        });
        let lat = latencies(&cluster);
        server.join().unwrap();
        lat
    };
    assert_eq!(served.len(), 300);
    assert_eq!(served, threaded);
}

/// Echoes `(client, seq)` and counts the calls run by a thread other than
/// the one that made them: each of those was handed over.
struct Tagged {
    ctx: Ctx,
    clients: Vec<ThreadId>,
    handed_over: Arc<AtomicU64>,
}

impl RpcHandler for Tagged {
    fn ctx(&mut self, _: u8) -> &mut Ctx {
        &mut self.ctx
    }

    fn call(&mut self, _: &mut LiteHandle, _: u8, input: &[u8], reply: &mut Vec<u8>) {
        let client = self.clients.get(input[0] as usize);
        if client.is_some_and(|&c| c != std::thread::current().id()) {
            self.handed_over.fetch_add(1, Ordering::Relaxed);
        }
        // Hold the server across a yield, so that other clients deliver
        // while it is held.
        std::thread::yield_now();
        reply.extend_from_slice(input);
    }
}

/// (b) 4 client threads × 500 calls to one served function, from two
/// nodes: every reply is the caller's own, each well inside `op_timeout`
/// (a call stranded in the queue waits all of it, then fails), and some
/// calls were served by a thread that found the server held by another.
#[test]
fn a_hammer_strands_no_call() {
    const CLIENTS: usize = 4;
    const CALLS: u32 = 500;
    let cluster = LiteCluster::start(3).unwrap();
    let handed_over = Arc::new(AtomicU64::new(0));
    let (go, gates): (Vec<_>, Vec<_>) = (0..CLIENTS).map(|_| std::sync::mpsc::channel()).unzip();
    let clients: Vec<_> = gates
        .into_iter()
        .enumerate()
        .map(|(c, gate)| {
            let mut h = cluster.attach([0, 2][c % 2]).unwrap();
            std::thread::spawn(move || {
                gate.recv().unwrap();
                let mut ctx = Ctx::new();
                let mut slowest = Duration::ZERO;
                for i in 0..CALLS {
                    let mut input = [0u8; 5];
                    input[0] = c as u8;
                    input[1..].copy_from_slice(&i.to_le_bytes());
                    let asked = Instant::now();
                    let reply = h.lt_rpc(&mut ctx, 1, ECHO, &input, 8).unwrap();
                    slowest = slowest.max(asked.elapsed());
                    assert_eq!(reply, input, "client {c} call {i}");
                }
                slowest
            })
        })
        .collect();
    let handler = Tagged {
        ctx: Ctx::new(),
        clients: clients.iter().map(|t| t.thread().id()).collect(),
        handed_over: Arc::clone(&handed_over),
    };
    let _server = cluster
        .attach(1)
        .unwrap()
        .serve_rpc(&[ECHO], handler)
        .unwrap();
    go.iter().for_each(|g| g.send(()).unwrap());
    for t in clients {
        let slowest = t.join().unwrap();
        assert!(slowest < Duration::from_secs(2), "a call took {slowest:?}");
    }
    let handed = handed_over.load(Ordering::Relaxed);
    eprintln!(
        "{handed} of {} calls served by another client's thread",
        CLIENTS as u32 * CALLS
    );
    assert!(
        handed > 0,
        "no call was delivered while the server was held"
    );
}

/// (c) One server for two functions, 500 rounds in which each of 4
/// clients makes one call — two to each function — and waits for the
/// others. A call queued for one function while the holder serves the
/// other misses the holder's pass; only the holder's second look after it
/// lets go serves it, for in a round nothing else comes to. A call left
/// queued stalls its round until `op_timeout`, and the test fails.
#[test]
fn a_call_queued_while_the_server_is_held_is_served_by_its_holder() {
    const CLIENTS: usize = 4;
    const ROUNDS: u32 = 500;
    const OTHER: u8 = ECHO + 1;
    let cluster = LiteCluster::start(3).unwrap();
    let handler = Tagged {
        ctx: Ctx::new(),
        clients: Vec::new(),
        handed_over: Arc::default(),
    };
    let _server = cluster
        .attach(1)
        .unwrap()
        .serve_rpc(&[ECHO, OTHER], handler)
        .unwrap();
    // Round `i` ends when every client has counted itself in `(i + 1)`
    // times; a client whose call failed stops the others, so a failure
    // fails the test instead of leaving them waiting.
    let (arrived, failed) = (AtomicU64::new(0), std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut h = cluster.attach([0, 2][c % 2]).unwrap();
            let (arrived, failed) = (&arrived, &failed);
            s.spawn(move || {
                let mut ctx = Ctx::new();
                let func = [ECHO, OTHER][c / 2];
                for i in 0..ROUNDS as u64 {
                    let input = [c as u8, i as u8];
                    let asked = Instant::now();
                    let reply = h.lt_rpc(&mut ctx, 1, func, &input, 8);
                    let took = asked.elapsed();
                    if reply.as_deref().ok() != Some(&input[..]) || took > Duration::from_secs(2) {
                        failed.store(true, Ordering::SeqCst);
                        panic!("client {c} round {i}: {reply:?} after {took:?}");
                    }
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < (i + 1) * CLIENTS as u64 {
                        assert!(!failed.load(Ordering::SeqCst), "another client failed");
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

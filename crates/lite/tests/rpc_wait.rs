//! `lt_wait_rpc`: a server thread parks on a set of functions and wakes
//! when a call to any of them arrives — at once if one is already queued,
//! on the arrival otherwise, `false` at its timeout — and never misses a
//! wake-up however arrivals race its park.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lite::{LiteCluster, LiteError, LiteHandle, USER_FUNC_MIN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::Ctx;

const A: u8 = USER_FUNC_MIN + 20;
const B: u8 = USER_FUNC_MIN + 21;
const C: u8 = USER_FUNC_MIN + 22;

/// A cluster of three whose node 1 serves `A`, `B` and `C`, and the
/// serving handle.
fn server() -> (Arc<LiteCluster>, LiteHandle) {
    let cluster = LiteCluster::start(3).unwrap();
    let h = cluster.attach(1).unwrap();
    for f in [A, B, C] {
        h.register_rpc(f).unwrap();
    }
    (cluster, h)
}

/// Calls `func` on node 1 from `node` on a thread of its own.
fn call(cluster: &Arc<LiteCluster>, node: usize, func: u8) -> std::thread::JoinHandle<Vec<u8>> {
    let cluster = Arc::clone(cluster);
    std::thread::spawn(move || {
        let mut h = cluster.attach(node).unwrap();
        h.lt_rpc(&mut Ctx::new(), 1, func, &[func], 8).unwrap()
    })
}

/// Takes and echoes the one queued call to `func`.
fn serve(h: &mut LiteHandle, ctx: &mut Ctx, func: u8) {
    let call = h
        .lt_try_recv_rpc(ctx, func)
        .unwrap()
        .expect("a queued call");
    h.lt_reply_rpc(ctx, &call, &call.input).unwrap();
}

/// (a) A call already queued: the wait returns `true` at once, and it
/// takes nothing — the call is still there for the receive.
#[test]
fn a_queued_call_returns_at_once() {
    let (cluster, mut h) = server();
    let client = call(&cluster, 0, A);
    assert!(h.lt_wait_rpc(&[A], Duration::from_secs(10)).unwrap());
    let asked = Instant::now();
    assert!(h.lt_wait_rpc(&[B, A], Duration::from_secs(10)).unwrap());
    assert!(h.lt_wait_rpc(&[A], Duration::ZERO).unwrap());
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "{:?}",
        asked.elapsed()
    );
    serve(&mut h, &mut Ctx::new(), A);
    assert_eq!(client.join().unwrap(), [A]);
}

/// (b) A call to the set's second function, sent from another node while
/// the waiter is parked, wakes it long before its timeout; the receive
/// that follows then advances the server's clock to the call's arrival.
#[test]
fn an_arrival_wakes_a_parked_waiter() {
    let (cluster, mut h) = server();
    let (parking, parked) = mpsc::channel();
    let sender = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            parked.recv().unwrap();
            // Give the waiter time to fall asleep; it passes either way.
            std::thread::sleep(Duration::from_millis(20));
            call(&cluster, 2, B).join().unwrap()
        })
    };
    parking.send(()).unwrap();
    let asked = Instant::now();
    assert!(h.lt_wait_rpc(&[A, B], Duration::from_secs(10)).unwrap());
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "{:?}",
        asked.elapsed()
    );
    let mut ctx = Ctx::new();
    serve(&mut h, &mut ctx, B);
    assert!(ctx.now() > 0, "the receive waits for the call's stamp");
    assert_eq!(sender.join().unwrap(), [B]);
}

/// (c) Nothing queued, or only a call outside the set: `false` once the
/// timeout passes, and the wait charged the waiter nothing — its clock
/// and its CPU meter read what they read before.
#[test]
fn a_quiet_set_times_out_and_charges_nothing() {
    let (cluster, mut h) = server();
    let mut ctx = Ctx::new();
    serve_one_warm_up(&cluster, &mut h, &mut ctx);
    let (now, cpu) = (ctx.now(), ctx.cpu.total());
    let timeout = Duration::from_millis(50);
    let asked = Instant::now();
    assert!(!h.lt_wait_rpc(&[A, B], timeout).unwrap());
    assert!(asked.elapsed() >= timeout);
    // A call to `C` is queued; a wait on `A` and `B` still sleeps it out.
    let client = call(&cluster, 0, C);
    assert!(h.lt_wait_rpc(&[C], Duration::from_secs(10)).unwrap());
    let asked = Instant::now();
    assert!(!h.lt_wait_rpc(&[A, B], timeout).unwrap());
    assert!(asked.elapsed() >= timeout);
    assert_eq!((ctx.now(), ctx.cpu.total()), (now, cpu));
    serve(&mut h, &mut ctx, C);
    assert_eq!(client.join().unwrap(), [C]);
}

/// Serves one call to `A`, so the clock and meter checked afterwards are
/// not simply zero.
fn serve_one_warm_up(cluster: &Arc<LiteCluster>, h: &mut LiteHandle, ctx: &mut Ctx) {
    let client = call(cluster, 0, A);
    assert!(h.lt_wait_rpc(&[A], Duration::from_secs(10)).unwrap());
    serve(h, ctx, A);
    client.join().unwrap();
    assert!(ctx.now() > 0 && ctx.cpu.total() > 0);
}

/// (d) A function nobody registered — user or kernel-internal — is
/// `UnknownRpc`, wherever it sits in the set.
#[test]
fn an_unregistered_function_is_unknown() {
    let (_cluster, h) = server();
    for func in [A + 10, 2] {
        let got = h.lt_wait_rpc(&[A, func], Duration::from_secs(10));
        assert!(
            matches!(got, Err(LiteError::UnknownRpc { func: f }) if f == func),
            "{got:?}"
        );
    }
}

/// (e) Lost wake-ups: 10 000 calls against a waiter with a 10 s timeout.
/// Eight clients on eight nodes call one of two functions of the set in
/// rounds: each sends one call at a random host gap (none, a yield, a
/// spin, a sleep) after the round starts, so arrivals race the waiter's
/// register / re-check / park, and the round's last call has no later
/// arrival to cover for a wake-up it lost. The wait never times out.
#[test]
fn no_wake_up_is_lost() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 1_250;
    let cluster = LiteCluster::start(1 + CLIENTS).unwrap();
    let mut h = cluster.attach(1).unwrap();
    for f in [A, B] {
        h.register_rpc(f).unwrap();
    }
    let round = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..=CLIENTS)
        .filter(|&node| node != 1)
        .map(|node| {
            let cluster = Arc::clone(&cluster);
            let round = Arc::clone(&round);
            std::thread::spawn(move || {
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                let mut rng = SmallRng::seed_from_u64(node as u64);
                let func = [A, B][node % 2];
                for i in 0..ROUNDS {
                    round.wait();
                    match rng.gen_range(0u32..4) {
                        0 => {}
                        1 => std::thread::yield_now(),
                        2 => {
                            let until =
                                Instant::now() + Duration::from_micros(rng.gen_range(0..20));
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        }
                        _ => std::thread::sleep(Duration::from_micros(rng.gen_range(0..50))),
                    }
                    let input = (i as u32).to_le_bytes();
                    assert_eq!(h.lt_rpc(&mut ctx, 1, func, &input, 8).unwrap(), input);
                }
            })
        })
        .collect();
    let mut ctx = Ctx::new();
    let mut served = 0;
    while served < CLIENTS * ROUNDS {
        let woke = h.lt_wait_rpc(&[A, B], Duration::from_secs(10)).unwrap();
        assert!(woke, "timed out after {served} calls with a call queued");
        for func in [A, B] {
            while let Some(call) = h.lt_try_recv_rpc(&mut ctx, func).unwrap() {
                h.lt_reply_rpc(&mut ctx, &call, &call.input).unwrap();
                served += 1;
            }
        }
    }
    for c in clients {
        c.join().unwrap();
    }
}

//! DataPath dispatch tests: batched vs element-at-a-time posting must
//! move identical bytes (batching is a cost optimization, never a
//! semantic change), and the RPC ring must survive wrap-around while
//! replies go out as doorbell chains.

use std::sync::Arc;

use lite::{Chunk, LiteCluster, LiteConfig, Op, Priority, USER_FUNC_MIN};
use rnic::{FaultPlan, FaultRule, IbConfig, COST};
use simnet::Ctx;

fn cluster_with_batching(batch: bool) -> Arc<LiteCluster> {
    LiteCluster::start_with(
        IbConfig::with_nodes(2),
        LiteConfig {
            batch_posting: batch,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Streams `rounds` blocking 8-write chains through `post_many` and
/// returns the bytes that landed on node 1 plus the total elapsed
/// virtual time (after one untimed warm-up chain).
fn run_chains(cluster: &Arc<LiteCluster>, rounds: usize) -> (Vec<u8>, u64) {
    let dp0 = cluster.datapath(0);
    let dp1 = cluster.datapath(1);
    let mut ctx = Ctx::new();
    let n = 8usize;
    let piece = 256usize;
    let src = dp0.alloc((n * piece) as u64).unwrap();
    let dst = dp1.alloc((n * piece) as u64).unwrap();
    let payload: Vec<u8> = (0..n * piece).map(|i| (i % 251) as u8).collect();
    dp0.fabric().mem(0).write(src, &payload).unwrap();
    let ops: Vec<Op> = (0..n)
        .map(|i| {
            Op::write(
                1,
                dst + (i * piece) as u64,
                vec![Chunk {
                    addr: src + (i * piece) as u64,
                    len: piece as u64,
                }],
                piece,
            )
        })
        .collect();
    let mut start = 0;
    for round in 0..rounds + 1 {
        let comps = dp0.post_many(&mut ctx, Priority::High, &ops).unwrap();
        assert_eq!(comps.len(), n);
        let last = comps.iter().map(|c| c.stamp).max().unwrap();
        ctx.wait_until(last);
        if round == 0 {
            // Warm-up chain: QP-context and QoS state settle here.
            start = ctx.now();
        }
    }
    let mut got = vec![0u8; n * piece];
    dp0.fabric().mem(1).read(dst, &mut got).unwrap();
    assert_eq!(got, payload, "chain must deliver every piece intact");
    (got, ctx.now() - start)
}

/// Batched and unbatched `post_many` write identical bytes; over a
/// stream of blocking chains the doorbell path is no slower — one host
/// post and one QP-context touch per chain instead of eight.
#[test]
fn batched_posting_matches_single_and_is_no_slower() {
    let (batched_bytes, batched_ns) = run_chains(&cluster_with_batching(true), 25);
    let (single_bytes, single_ns) = run_chains(&cluster_with_batching(false), 25);
    assert_eq!(batched_bytes, single_bytes);
    assert!(
        batched_ns <= single_ns,
        "batched stream took {batched_ns} ns, unbatched {single_ns} ns"
    );
}

/// A mixed op list — write, atomic, two more writes towards one peer —
/// goes out as one doorbell chain: nothing blocks (the atomic included),
/// completions come back in op order with non-decreasing stamps, and
/// memory ends up exactly as element-at-a-time posting leaves it.
#[test]
fn mixed_ops_dispatch_through_post_many() {
    let run = |batch: bool| {
        let cluster = cluster_with_batching(batch);
        let dp0 = cluster.datapath(0);
        let dp1 = cluster.datapath(1);
        let mut ctx = Ctx::new();
        let src = dp0.alloc(64).unwrap();
        let dst = dp1.alloc(64).unwrap();
        let counter = dp1.alloc(8).unwrap();
        dp0.fabric().mem(0).write(src, &[7u8; 64]).unwrap();
        dp0.fabric().mem(1).write(counter, &[0u8; 8]).unwrap();
        let w = |off: u64| {
            Op::write(
                1,
                dst + off,
                vec![Chunk {
                    addr: src + off,
                    len: 16,
                }],
                16,
            )
        };
        let ops = vec![
            w(0),
            Op::FetchAdd {
                node: 1,
                addr: counter,
                delta: 5,
            },
            w(16),
            w(32),
        ];
        let comps = dp0.post_many(&mut ctx, Priority::High, &ops).unwrap();
        assert_eq!(comps.len(), 4);
        assert_eq!(comps[1].value, 0, "fetch-add returns the old value");
        let posted = ctx.now();
        let last = comps.iter().map(|c| c.stamp).max().unwrap();
        ctx.wait_until(last);
        let mut got = vec![0u8; 48];
        dp0.fabric().mem(1).read(dst, &mut got).unwrap();
        assert_eq!(got, vec![7u8; 48]);
        let mut c = [0u8; 8];
        dp0.fabric().mem(1).read(counter, &mut c).unwrap();
        assert_eq!(u64::from_le_bytes(c), 5);
        (posted, comps)
    };
    let (posted, comps) = run(true);
    assert!(
        comps.iter().all(|c| c.stamp > posted),
        "a chained op does not block, atomics included: posted at {posted}, {comps:?}"
    );
    assert!(
        comps.windows(2).all(|p| p[0].stamp <= p[1].stamp),
        "an RC QP completes its chain in order: {comps:?}"
    );
    let (posted_single, single) = run(false);
    assert!(
        single[1].stamp <= posted_single,
        "posted one by one, the atomic blocks like its verb"
    );
    assert!(posted < posted_single, "one doorbell beats four posts");
}

/// Chains under request-leg drops (`DropWr`: nothing applied, the whole
/// remainder retries) and lost atomic acks (`DropAtomicAck`: the apply
/// landed, the retry must *resume* at that atomic): every atomic applies
/// exactly once, and no write lands after a later atomic of its chain
/// has taken effect. Each round's chain is
/// `[X <- v, CAS X: v -> w, counter += 1, read X]`; a replay from the top
/// after the CAS's ack was lost would put `v` back over `w`.
#[test]
fn faulted_chains_resume_instead_of_replaying() {
    for seed in [3u64, 11, 29] {
        let cluster = LiteCluster::start_with(
            IbConfig::with_nodes(2),
            LiteConfig {
                retry_base_ns: 500,
                ..Default::default()
            },
        )
        .unwrap();
        let dp0 = cluster.datapath(0);
        let dp1 = cluster.datapath(1);
        let mem0 = dp0.fabric().mem(0).clone();
        let mem1 = dp0.fabric().mem(1).clone();
        let mut ctx = Ctx::new();
        let src = dp0.alloc(8).unwrap();
        let land = dp0.alloc(8).unwrap();
        let x = dp1.alloc(8).unwrap();
        let counter = dp1.alloc(8).unwrap();
        mem1.store_u64(x, 0).unwrap();
        mem1.store_u64(counter, 0).unwrap();
        // Warm the QP mesh before faults start.
        let probe = Op::read(1, x, vec![Chunk { addr: land, len: 8 }], 8);
        dp0.post(&mut ctx, Priority::High, &probe).unwrap();

        cluster.fabric().install_fault_plan(
            FaultPlan::seeded(seed)
                .with(FaultRule::DropWr {
                    src: Some(0),
                    dst: Some(1),
                    prob: 0.25,
                    max_drops: 64,
                })
                .with(FaultRule::DropAtomicAck {
                    src: Some(0),
                    dst: Some(1),
                    prob: 0.4,
                    max_drops: 64,
                }),
        );
        let rounds = 96u64;
        for k in 0..rounds {
            let (v, w) = (1000 + 2 * k, 1001 + 2 * k);
            mem0.store_u64(src, v).unwrap();
            let ops = [
                Op::write(1, x, vec![Chunk { addr: src, len: 8 }], 8),
                Op::CmpSwap {
                    node: 1,
                    addr: x,
                    expect: v,
                    new: w,
                },
                Op::FetchAdd {
                    node: 1,
                    addr: counter,
                    delta: 1,
                },
                Op::read(1, x, vec![Chunk { addr: land, len: 8 }], 8),
            ];
            let comps = dp0.post_many(&mut ctx, Priority::High, &ops).unwrap();
            ctx.wait_until(comps.iter().map(|c| c.stamp).max().unwrap());
            assert_eq!(comps[1].value, v, "seed {seed} round {k}: the CAS won");
            assert_eq!(comps[2].value, k, "seed {seed} round {k}: counter stream");
            assert_eq!(mem0.load_u64(land).unwrap(), w, "seed {seed} round {k}");
            assert_eq!(
                mem1.load_u64(x).unwrap(),
                w,
                "seed {seed} round {k}: the write did not land again behind its CAS"
            );
        }
        let stats = cluster.fabric().fault_stats();
        cluster.fabric().clear_fault_plan();
        assert_eq!(mem1.load_u64(counter).unwrap(), rounds, "seed {seed}");
        assert!(
            stats.ack_drops > 0 && stats.drops > 0,
            "seed {seed}: {stats:?}"
        );
    }
}

/// The loop-back twin of `rnic`'s `one_word_read_is_a_stamped_load_…`: an
/// op on the poster's own node never reaches a NIC (`post_local`), so the
/// stamped word read has to exist there too — a lite-txn client that sits
/// on its table's home node validates through this path.
#[test]
fn loopback_word_read_is_a_stamped_load_at_the_price_of_a_copy() {
    let cluster = cluster_with_batching(true);
    let dp = cluster.datapath(0);
    let mem = dp.fabric().mem(0).clone();
    let cost = COST;
    let cells = dp.alloc(64).unwrap();
    let land = dp.alloc(64).unwrap();
    mem.write(cells, &[0u8; 64]).unwrap();
    let read = |off: u64, len: usize| {
        let dst = vec![Chunk {
            addr: land,
            len: len as u64,
        }];
        Op::read(0, cells + off, dst, len)
    };
    // A context whose clock runs far ahead applies an atomic to another
    // word of this node.
    let mut far = Ctx::new();
    far.wait_until(1_000_000);
    let other = Op::FetchAdd {
        node: 0,
        addr: cells + 32,
        delta: 0,
    };
    let ahead = dp.post(&mut far, Priority::High, &other).unwrap().stamp;

    // A lagging context's CAS is stamped behind it, and so is the word
    // read that observes the CAS; both block until their stamps.
    let mut ctx = Ctx::new();
    let word = 0x0000_0007_0000_0009;
    let cas = Op::CmpSwap {
        node: 0,
        addr: cells,
        expect: 0,
        new: word,
    };
    let locked = dp.post(&mut ctx, Priority::High, &cas).unwrap();
    assert!(locked.stamp > ahead && ctx.now() == locked.stamp);
    let before = ctx.now();
    let seen = dp.post(&mut ctx, Priority::High, &read(0, 8)).unwrap();
    assert_eq!(mem.load_u64(land).unwrap(), word);
    assert!(seen.stamp > locked.stamp && ctx.now() == seen.stamp);
    let word_read_ns = ctx.now() - before;

    // It is charged as the copy it is: what a 16-byte read pays, less the
    // eight extra bytes — and less than the local atomic it replaces.
    let before = ctx.now();
    dp.post(&mut ctx, Priority::High, &read(0, 16)).unwrap();
    let wide_read_ns = ctx.now() - before;
    assert_eq!(
        wide_read_ns - word_read_ns,
        cost.memcpy_time(16) - cost.memcpy_time(8)
    );
    let before = ctx.now();
    dp.post(&mut ctx, Priority::High, &other).unwrap();
    assert!(word_read_ns < ctx.now() - before);

    // Reads of any other shape stay plain copies: a context that lags
    // does not get pulled up to the atomic clock by them.
    for (off, len) in [(0, 16), (4, 8)] {
        let mut lag = Ctx::new();
        let plain = dp.post(&mut lag, Priority::High, &read(off, len)).unwrap();
        assert!(plain.stamp < ahead, "{len} bytes at +{off}: {plain:?}");
    }
    assert_eq!(mem.load_u64(land).unwrap(), word >> 32, "bytes 4..12");
    let mut lag = Ctx::new();
    let pulled = dp.post(&mut lag, Priority::High, &read(0, 8)).unwrap();
    assert!(pulled.stamp > seen.stamp && lag.now() == pulled.stamp);
}

/// RPC through a deliberately tiny ring: the client runs out of cached
/// space every few calls and pulls the server's head cell with a
/// one-sided read through the datapath, at odd wrap offsets. Both
/// posting settings must produce identical replies.
#[test]
fn ring_wraparound_survives_batched_posting() {
    for batch in [true, false] {
        let cluster = LiteCluster::start_with(
            IbConfig::with_nodes(2),
            LiteConfig {
                rpc_ring_bytes: 32 * 1024,
                batch_posting: batch,
                ..Default::default()
            },
        )
        .unwrap();
        const F: u8 = USER_FUNC_MIN + 12;
        cluster.attach(1).unwrap().register_rpc(F).unwrap();
        let ops = 120;
        let c2 = Arc::clone(&cluster);
        let srv = std::thread::spawn(move || {
            let mut h = c2.attach(1).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..ops {
                let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
                let sum: u64 = call.input.iter().map(|&b| b as u64).sum();
                h.lt_reply_rpc(&mut ctx, &call, &sum.to_le_bytes()).unwrap();
            }
        });
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        for i in 0..ops {
            // Sizes sweep past the ring capacity several times and hit
            // the wrap at odd offsets.
            let len = 300 + (i * 613) % 5_000;
            let payload: Vec<u8> = (0..len).map(|j| (j % 241) as u8).collect();
            let expect: u64 = payload.iter().map(|&b| b as u64).sum();
            let reply = h.lt_rpc(&mut ctx, 1, F, &payload, 64).unwrap();
            assert_eq!(
                u64::from_le_bytes(reply.try_into().unwrap()),
                expect,
                "batch={batch} rpc #{i} corrupted"
            );
        }
        srv.join().unwrap();
    }
}

//! Golden virtual-time values: what one context pays, per call, at each
//! public entry point of a default 2-node cluster (4 nodes under the
//! lite-txn rows). These are the `.vns` rows of the benchmark's ladder
//! (`benchmark/src/ladder.rs`), asserted exactly: the model is
//! deterministic for one context, so a change meant only to make the
//! simulator cheaper to run (the host clock) that moves any of them has
//! changed the model, and fails here before it reaches the benchmark.

use lite::{Chunk, LiteCluster, LiteError, LiteHandle, Op, Perm, Priority, USER_FUNC_MIN};
use lite_log::LiteLog;
use lite_txn::{TableSpec, TxnTable};
use simnet::Ctx;

/// Untimed calls first: lazy QP and ring wiring, warm NIC caches.
const WARM: usize = 16;
const CALLS: usize = 200;

/// Total virtual ns of `CALLS` calls of `f`, after `WARM` untimed ones.
fn total_vns(ctx: &mut Ctx, mut f: impl FnMut(&mut Ctx, usize)) -> u64 {
    for i in 0..WARM {
        f(ctx, i);
    }
    let start = ctx.now();
    for i in 0..CALLS {
        f(ctx, WARM + i);
    }
    ctx.now() - start
}

/// Replies to an 8-byte request with as many bytes as its leading u32
/// says; anything else stops it.
fn echo_server(mut h: LiteHandle, func: u8) {
    let mut ctx = Ctx::new();
    loop {
        let call = match h.lt_recv_rpc(&mut ctx, func) {
            Ok(call) => call,
            Err(LiteError::Timeout) => continue,
            Err(e) => panic!("echo server: {e:?}"),
        };
        let Ok(request) = <[u8; 8]>::try_from(&call.input[..]) else {
            h.lt_reply_rpc(&mut ctx, &call, &[]).unwrap();
            return;
        };
        let len = u32::from_le_bytes(request[..4].try_into().unwrap());
        let reply = vec![7u8; len as usize];
        h.lt_reply_rpc(&mut ctx, &call, &reply).unwrap();
    }
}

#[test]
fn per_call_virtual_costs_are_the_published_ones() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut ctx = Ctx::new();
    let calls = CALLS as u64;

    // DataPath::post_many: a doorbell chain of 8 x 64 B writes.
    let dp = cluster.datapath(0);
    let staging = dp.alloc(64).unwrap();
    let target = cluster.datapath(1).alloc(1 << 20).unwrap();
    let src = [Chunk {
        addr: staging,
        len: 64,
    }];
    let chains = total_vns(&mut ctx, |ctx, i| {
        let at = |k: usize| target + ((i * 8 + k) * 64) as u64 % (1 << 20);
        let ops: Vec<Op> = (0..8)
            .map(|k| Op::write(1, at(k), src.to_vec(), 64))
            .collect();
        let done = dp.post_many(ctx, Priority::High, &ops).unwrap();
        ctx.wait_until(done.iter().map(|c| c.stamp).max().unwrap());
    });
    // 316.75 ns per write.
    assert_eq!(chains * 4, 1267 * 8 * calls, "post_many 8 x 64 B");

    let mut user = cluster.attach(0).unwrap();
    let lh = user
        .lt_malloc(&mut ctx, 1, 8 << 20, "golden.lmr", Perm::RW)
        .unwrap();
    let small = [7u8; 64];
    let writes = total_vns(&mut ctx, |ctx, i| {
        let offset = (i * 64) as u64;
        user.lt_write(ctx, lh, offset, &small).unwrap();
    });
    assert_eq!(writes, 2_062 * calls, "lt_write 64 B");
    let mut large = vec![0u8; 16 << 10];
    let reads = total_vns(&mut ctx, |ctx, i| {
        let offset = (i << 14) as u64 % (8 << 20);
        user.lt_read(ctx, lh, offset, &mut large).unwrap();
    });
    assert_eq!(reads, 6_247 * calls, "lt_read 16 KB");
    // Two words the writes above did not touch.
    let (counter, flag) = (4 << 20, (4 << 20) + 8);
    let adds = total_vns(&mut ctx, |ctx, _| {
        user.lt_fetch_add(ctx, lh, counter, 1).unwrap();
    });
    assert_eq!(adds, 2_945 * calls, "lt_fetch_add");
    let swaps = total_vns(&mut ctx, |ctx, i| {
        // Alternates 0 -> 1 -> 0 on its own word, so every CAS wins.
        let (expect, new) = ((i % 2) as u64, ((i + 1) % 2) as u64);
        assert_eq!(
            user.lt_cmp_swap(ctx, lh, flag, expect, new).unwrap(),
            expect
        );
    });
    assert_eq!(swaps, 2_945 * calls, "lt_cmp_swap");
    // A read that straddles the LMR's 4 MB chunk boundary is two pieces
    // on node 1 behind one doorbell: what `lt_chain(&[ChainOp::Read])` of
    // this range cost before `lt_read` was a chain of one (two doorbells,
    // whose small reads overlapped at the responder, made it 2 250 then).
    let straddle = (4 << 20) - 8;
    let straddles = total_vns(&mut ctx, |ctx, _| {
        user.lt_read(ctx, lh, straddle, &mut [0u8; 24]).unwrap();
    });
    assert_eq!(
        straddles,
        2_330 * calls,
        "lt_read 24 B over a chunk boundary"
    );
    // A call that moved bytes reaps one completion, on this node's own
    // memory too: 192 ns of crossing, map check and copy + `cq_poll_ns`.
    let local = user
        .lt_malloc(&mut ctx, 0, 1 << 20, "golden.local", Perm::RW)
        .unwrap();
    let local_writes = total_vns(&mut ctx, |ctx, i| {
        user.lt_write(ctx, local, (i * 64) as u64, &small).unwrap();
    });
    assert_eq!(local_writes, 342 * calls, "lt_write 64 B, local LMR");

    const ECHO: u8 = USER_FUNC_MIN;
    let verbs = || -> u64 {
        let of = |n| cluster.fabric().nic(n).stats();
        [of(0), of(1)]
            .iter()
            .map(|s| s.one_sided_ops + s.send_ops)
            .sum()
    };
    let verbs_before = verbs();
    let server = {
        let h = cluster.attach(1).unwrap();
        h.register_rpc(ECHO).unwrap();
        std::thread::spawn(move || echo_server(h, ECHO))
    };
    // The 4 KB row is what it was when every consumed request still
    // pushed a head update in front of its reply (the 64 B row was 4 404):
    // there the reply's time on the link hides whatever the client's
    // poller does before it lands.
    for (reply_len, each) in [(64u32, 3_871), (4_096, 4_905)] {
        let request = u64::from(reply_len).to_le_bytes();
        let rpcs = total_vns(&mut ctx, |ctx, _| {
            let reply = user.lt_rpc(ctx, 1, ECHO, &request, 4_096).unwrap();
            assert_eq!(reply.len(), reply_len as usize);
        });
        assert_eq!(rpcs, each * calls, "lt_rpc 8 B -> {reply_len} B");
    }
    user.lt_rpc(&mut ctx, 1, ECHO, &[], 8).unwrap();
    server.join().unwrap();
    // Two write-imms a call and nothing else: 200 calls are 400 verbs,
    // counted here over every call made (a NIC counts a verb after it
    // delivers it, so only a joined server's count is final).
    let rpc_calls = 2 * (WARM + CALLS) as u64 + 1;
    assert_eq!(verbs() - verbs_before, 2 * rpc_calls, "verbs per lt_rpc");

    let log = LiteLog::create(&mut user, &mut ctx, 1, "golden.log", 1 << 20).unwrap();
    let entry = [7u8; 16];
    let commits = total_vns(&mut ctx, |ctx, _| {
        log.commit(&mut user, ctx, &[&entry]).unwrap();
    });
    // Reserve, then one chain that writes and publishes: two waits.
    assert_eq!(commits, 6_179 * calls, "LiteLog::commit 16 B");

    // lite-txn, on the benchmark's shape: 4 nodes, the table mastered on
    // the last. `commit` alone is timed; the two reads before it are not.
    // A read-only commit is one chain of two word reads. A steady-state
    // read-2-write-2 commit is two chains on the slot the handle keeps —
    // [redo, lease, lock, lock] and [decide, payload x 2, version x 2],
    // the decide carrying the slot to its next epoch — so a third round
    // trip (it was 13 942 ns with a claim CAS before them and the decide
    // between them) or a fourth atomic (8 152 ns with a keep-slot CAS
    // last) fails here.
    let cluster = LiteCluster::start(4).unwrap();
    let mut user = cluster.attach(0).unwrap();
    let spec = TableSpec {
        // Host-wall: no stall between two commits may outlast it.
        lease_ms: 60_000,
        ..TableSpec::new(64, 8)
    };
    let table = TxnTable::create(&mut user, &mut ctx, 3, "golden.txn", spec).unwrap();
    let verbs = || -> u64 {
        (0..4)
            .map(|n| cluster.fabric().nic(n).stats())
            .map(|s| s.one_sided_ops + s.send_ops)
            .sum()
    };
    // `(virtual ns inside commit, verbs of the whole transactions)` over
    // `CALLS` transactions, after `WARM` untimed ones.
    let mut txns = |writes: bool| {
        let (mut vns, mut verbs_before) = (0, 0);
        for i in 0..WARM + CALLS {
            if i == WARM {
                (vns, verbs_before) = (0, verbs());
            }
            let (a, b) = ((i % 64) as u64, ((i + 1) % 64) as u64);
            let mut txn = table.begin();
            let va = txn.read(&mut user, &mut ctx, a).unwrap();
            let vb = txn.read(&mut user, &mut ctx, b).unwrap();
            if writes {
                txn.write(a, &vb).unwrap();
                txn.write(b, &va).unwrap();
            }
            let start = ctx.now();
            txn.commit(&mut user, &mut ctx).unwrap();
            vns += ctx.now() - start;
        }
        (vns, verbs() - verbs_before)
    };
    assert_eq!(txns(false).0, 2_328 * calls, "Txn::commit read-only");
    let (vns, issued) = txns(true);
    assert_eq!(vns, 7_866 * calls, "Txn::commit read-2-write-2");
    assert_eq!(issued, 11 * calls, "verbs per read-2-write-2: 2 + 4 + 5");
}

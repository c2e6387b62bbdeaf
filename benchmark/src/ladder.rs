//! The ladder: the same logical op, one context, issued at each successive
//! public entry point from `simnet` up to `lite-kv`. Every rung reports
//! virtual ns and host ns per call, timed from outside; the difference
//! between a rung and the one below is what that layer adds.

use std::hint::black_box;
use std::time::Instant;

use lite::{Chunk, LiteCluster, Op, Perm, Priority};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use lite_log::LiteLog;
use lite_txn::{TableSpec, TxnTable};
use rnic::{Access, IbConfig, IbFabric, RemoteAddr, Sge};
use simnet::{Ctx, Histogram, Resource};
use smem::{PhysMem, PinTable};

use crate::workloads::rpc::{request, EchoServer, FUNC, MAX_REPLY};
use crate::workloads::txn::LEASE_MS;

/// Calls per rung for a cheap call; slower rungs take a share of it.
const CALLS: usize = 20_000;
/// Untimed calls before each rung: lazy QP and ring wiring, warm caches.
const WARM: usize = 16;

const SMALL: usize = 64;
const LARGE: usize = 16 << 10;

/// What the rungs measured: full per-layer metric names and values.
#[derive(Default)]
pub struct Rungs(pub Vec<(String, f64)>);

impl Rungs {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    /// Records `<name>.vns` and `<name>.host_ns`.
    fn both(&mut self, name: &str, (vns, host_ns): (f64, f64)) {
        self.put(&format!("{name}.vns"), vns);
        self.put(&format!("{name}.host_ns"), host_ns);
    }

    fn get(&self, name: &str) -> f64 {
        let found = self.0.iter().find(|(n, _)| n == name);
        found.map_or(0.0, |(_, v)| *v)
    }
}

/// Mean virtual and host ns per call of `f`.
fn time(ctx: &mut Ctx, calls: usize, mut f: impl FnMut(&mut Ctx, usize)) -> (f64, f64) {
    for i in 0..WARM {
        f(ctx, i);
    }
    let v0 = ctx.now();
    let t = Instant::now();
    for i in 0..calls {
        f(ctx, WARM + i);
    }
    let host = t.elapsed().as_nanos() as f64;
    ((ctx.now() - v0) as f64 / calls as f64, host / calls as f64)
}

/// Verbs all NICs of `fabric` have issued.
fn verbs(fabric: &IbFabric) -> u64 {
    (0..fabric.num_nodes())
        .map(|n| {
            let s = fabric.nic(n).stats();
            s.one_sided_ops + s.send_ops
        })
        .sum()
}

fn substrate(out: &mut Rungs) {
    let mut ctx = Ctx::new();
    let res = Resource::new("ladder");
    let mut now = 0;
    let acquire = time(&mut ctx, CALLS * 20, |_, _| {
        now = black_box(res.acquire(black_box(now), 10)).finish;
    });
    out.put("simnet.resource_acquire.host_ns", acquire.1);
    let mut hist = Histogram::new();
    let record = time(&mut ctx, CALLS * 20, |_, i| {
        hist.record(black_box(i as u64 * 37 % 100_000));
    });
    black_box(hist.count());
    out.put("simnet.histogram_record.host_ns", record.1);

    let mem = PhysMem::new(1 << 30);
    let small = [7u8; SMALL];
    let write = time(&mut ctx, CALLS * 5, |_, i| {
        let addr = (i * SMALL) as u64 % (16 << 20);
        mem.write(addr, black_box(&small)).expect("in range");
    });
    out.put("smem.phys_write_64.host_ns", write.1);
    let mut large = vec![0u8; LARGE];
    let read = time(&mut ctx, CALLS, |_, i| {
        let addr = (i * LARGE) as u64 % (16 << 20);
        mem.read(addr, black_box(&mut large)).expect("in range");
    });
    out.put("smem.phys_read_16k.host_ns", read.1);
    let pins = PinTable::new();
    let pin = time(&mut ctx, CALLS * 5, |_, i| {
        black_box(pins.pin_range(i as u64 * 4096, 4096)).expect("pin");
    });
    out.put("smem.pin_range_page.host_ns", pin.1);
}

/// Verbs on a bare fabric: no LITE kernel, one physical MR a side.
fn bare_nic(out: &mut Rungs) {
    let fabric = IbFabric::new(IbConfig::with_nodes(2));
    let mut ctx = Ctx::new();
    let span = 64 << 20;
    let mr0 = fabric
        .nic(0)
        .register_phys_mr(&mut ctx, 0, span, Access::RW)
        .expect("mr");
    let mr1 = fabric
        .nic(1)
        .register_phys_mr(&mut ctx, 0, span, Access::RW)
        .expect("mr");
    let (qp, _peer) = fabric.rc_pair(0, 1);
    let nic = fabric.nic(0);
    let sge = |len: usize| Sge::Phys {
        lkey: mr0.lkey(),
        chunks: vec![Chunk {
            addr: 0,
            len: len as u64,
        }],
    };
    let remote = |i: usize, len: usize| RemoteAddr {
        rkey: mr1.rkey(),
        addr: (i * len) as u64 % (16 << 20),
    };
    let write = time(&mut ctx, CALLS * 5, |ctx, i| {
        let done = nic
            .post_write(ctx, &qp, 0, &sge(SMALL), remote(i, SMALL), None, false)
            .expect("post_write");
        ctx.wait_until(done);
    });
    out.both("rnic.post_write_64", write);
    let read = time(&mut ctx, CALLS, |ctx, i| {
        let done = nic
            .post_read(ctx, &qp, 0, &sge(LARGE), remote(i, LARGE), false)
            .expect("post_read");
        ctx.wait_until(done);
    });
    out.both("rnic.post_read_16k", read);
    let fetch_add = time(&mut ctx, CALLS * 5, |ctx, _| {
        black_box(nic.fetch_add(ctx, &qp, remote(0, 8), 1)).expect("fetch_add");
    });
    out.both("rnic.fetch_add", fetch_add);
    fabric.shutdown();
}

/// `DataPath`, the `lt_*` API, RPC, lite-log and lite-txn on a 2-node cluster.
fn lite_rungs(out: &mut Rungs) {
    let cluster = LiteCluster::start(2).expect("cluster start");
    let mut ctx = Ctx::new();

    let dp = cluster.datapath(0);
    let staging = dp.alloc(8 * SMALL as u64).expect("alloc");
    let target = cluster.datapath(1).alloc(1 << 20).expect("alloc");
    let write = |i: usize| {
        let src = vec![Chunk {
            addr: staging,
            len: SMALL as u64,
        }];
        Op::write(1, target + (i * SMALL) as u64 % (1 << 20), src, SMALL)
    };
    let dp_write = time(&mut ctx, CALLS * 5, |ctx, i| {
        let done = dp.post(ctx, Priority::High, &write(i)).expect("post");
        ctx.wait_until(done.stamp);
    });
    out.both("lite.datapath.post_write_64", dp_write);
    // A rung's self time: its mean minus the rung below (one call of it).
    out.put(
        "lite.datapath.post_write_64.self_vns",
        dp_write.0 - out.get("rnic.post_write_64.vns"),
    );
    // A chain of 8 writes; reported per write.
    let chain = time(&mut ctx, CALLS, |ctx, i| {
        let ops: Vec<Op> = (0..8).map(|k| write(i * 8 + k)).collect();
        let done = dp.post_many(ctx, Priority::High, &ops).expect("post_many");
        ctx.wait_until(done.iter().map(|c| c.stamp).max().unwrap_or(0));
    });
    out.both(
        "lite.datapath.post_many_8x64",
        (chain.0 / 8.0, chain.1 / 8.0),
    );

    let mut user = cluster.attach(0).expect("attach");
    let mut kernel = cluster.attach_kernel(0).expect("attach_kernel");
    let lh = user
        .lt_malloc(&mut ctx, 1, 8 << 20, "ladder.lmr", Perm::RW)
        .expect("lt_malloc");
    let klh = kernel.lt_map(&mut ctx, "ladder.lmr").expect("lt_map");
    let small = [7u8; SMALL];
    let offset = |i: usize, len: usize| (i * len) as u64 % (8 << 20);
    let kernel_write = time(&mut ctx, CALLS * 5, |ctx, i| {
        kernel
            .lt_write(ctx, klh, offset(i, SMALL), &small)
            .expect("lt_write");
    });
    out.put("lite.api.lt_write_64_kernel.vns", kernel_write.0);
    out.put(
        "lite.api.lt_write_64_kernel.self_vns",
        kernel_write.0 - dp_write.0,
    );
    let user_write = time(&mut ctx, CALLS * 5, |ctx, i| {
        user.lt_write(ctx, lh, offset(i, SMALL), &small)
            .expect("lt_write");
    });
    out.both("lite.api.lt_write_64", user_write);
    out.put("lite.api.crossing.vns", user_write.0 - kernel_write.0);
    let mut large = vec![0u8; LARGE];
    let read = time(&mut ctx, CALLS, |ctx, i| {
        user.lt_read(ctx, lh, offset(i, LARGE), &mut large)
            .expect("lt_read");
    });
    out.both("lite.api.lt_read_16k", read);
    let fetch_add = time(&mut ctx, CALLS * 2, |ctx, _| {
        black_box(user.lt_fetch_add(ctx, lh, 0, 1)).expect("lt_fetch_add");
    });
    out.both("lite.api.lt_fetch_add", fetch_add);
    let cmp_swap = time(&mut ctx, CALLS * 2, |ctx, i| {
        // Alternates 0 -> 1 -> 0 on its own word, so every CAS wins.
        let (expect, new) = ((i % 2) as u64, ((i + 1) % 2) as u64);
        black_box(user.lt_cmp_swap(ctx, lh, 8, expect, new)).expect("lt_cmp_swap");
    });
    out.put("lite.api.lt_cmp_swap.vns", cmp_swap.0);
    let mut mapped = Vec::new();
    let malloc = time(&mut ctx, CALLS / 100, |ctx, i| {
        let name = format!("ladder.m{i}");
        let lh = user.lt_malloc(ctx, 1, 1 << 20, &name, Perm::RW);
        mapped.push(lh.expect("lt_malloc"));
    });
    out.both("lite.api.lt_malloc_1m", malloc);
    let map = time(&mut ctx, CALLS / 100, |ctx, i| {
        black_box(kernel.lt_map(ctx, &format!("ladder.m{i}"))).expect("lt_map");
    });
    out.put("lite.api.lt_map.vns", map.0);
    for lh in mapped {
        user.lt_free(&mut ctx, lh).expect("lt_free");
    }

    let server = EchoServer::start(&cluster, 1);
    let mut rpc = |len: u32, calls: usize| {
        time(&mut ctx, calls, |ctx, i| {
            let reply = user.lt_rpc(ctx, 1, FUNC, &request(len, i as u32), MAX_REPLY);
            assert_eq!(reply.expect("lt_rpc").len(), len as usize);
        })
    };
    let rpc_64 = rpc(64, CALLS / 4);
    let rpc_4k = rpc(4096, CALLS / 4);
    out.both("lite.rpc.lt_rpc_8_64", rpc_64);
    out.put("lite.rpc.lt_rpc_8_4k.vns", rpc_4k.0);
    server.stop(&mut user, &mut ctx);

    let log = LiteLog::create(&mut user, &mut ctx, 1, "ladder.log", 16 << 20).expect("log");
    let entry = [7u8; 16];
    let before = verbs(cluster.fabric());
    let commit = time(&mut ctx, CALLS, |ctx, _| {
        black_box(log.commit(&mut user, ctx, &[&entry])).expect("commit");
    });
    let issued = verbs(cluster.fabric()) - before;
    out.both("lite-log.commit_16", commit);
    out.put(
        "lite-log.verbs_per_commit",
        issued as f64 / (CALLS + WARM) as f64,
    );

    let spec = TableSpec {
        lease_ms: LEASE_MS,
        ..TableSpec::new(64, 8)
    };
    let table = TxnTable::create(&mut user, &mut ctx, 1, "ladder.txn", spec).expect("table");
    // Times `commit` alone; the two reads before it are not in the figure.
    let mut commits = |writes: bool, calls: usize| {
        let (mut vns, mut host) = (0u64, 0u128);
        for i in 0..WARM + calls {
            let (a, b) = ((i % 64) as u64, ((i + 1) % 64) as u64);
            let mut txn = table.begin();
            let va = txn.read(&mut user, &mut ctx, a).expect("read");
            let vb = txn.read(&mut user, &mut ctx, b).expect("read");
            if writes {
                txn.write(a, &vb)
                    .and_then(|()| txn.write(b, &va))
                    .expect("write");
            }
            let (v0, t) = (ctx.now(), Instant::now());
            txn.commit(&mut user, &mut ctx).expect("uncontended commit");
            if i >= WARM {
                vns += ctx.now() - v0;
                host += t.elapsed().as_nanos();
            }
        }
        (vns as f64 / calls as f64, host as f64 / calls as f64)
    };
    let calls = CALLS / 4;
    out.both("lite-txn.commit_ro", commits(false, calls));
    let before = verbs(cluster.fabric());
    out.both("lite-txn.commit_rw2", commits(true, calls));
    // Of the whole read-2-write-2 transaction, its two reads included.
    let issued = verbs(cluster.fabric()) - before;
    out.put(
        "lite-txn.verbs_per_commit",
        issued as f64 / (calls + WARM) as f64,
    );
}

/// `KvClient::put` / `get` against a leader and two followers.
fn kv_rungs(out: &mut Rungs) {
    let cluster = LiteCluster::start(4).expect("cluster start");
    let spec = KvSpec::new("ladder.kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut client = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).expect("connect");
    let mut ctx = Ctx::new();
    let value = [7u8; SMALL];
    let key = |i: usize| format!("key:{:06}", i % 1000).into_bytes();
    let put = time(&mut ctx, CALLS / 8, |ctx, i| {
        black_box(client.put(ctx, &key(i), &value)).expect("put");
    });
    out.both("lite-kv.put_64", put);
    let get = time(&mut ctx, CALLS / 8, |ctx, i| {
        black_box(client.get(ctx, &key(i))).expect("get");
    });
    out.both("lite-kv.get_64", get);
    svc.stop();
}

/// Runs every rung, bottom up.
pub fn run() -> Rungs {
    let mut out = Rungs::default();
    substrate(&mut out);
    bare_nic(&mut out);
    lite_rungs(&mut out);
    kv_rungs(&mut out);
    out
}

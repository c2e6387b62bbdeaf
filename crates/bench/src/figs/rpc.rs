//! RPC comparisons: Figures 10, 11, 12, 13.
//!
//! No server has a thread of its own. A LITE server is a served echo
//! ([`serve_echo`]) that runs inside its caller's `lt_rpc`. A baseline's
//! server steps on its clients' thread: right after a lone client's send
//! (Fig 10), or as a context of the loop that steps the clients
//! (`run_calls`), due at its earliest queued request.

use std::sync::Arc;
use std::time::Duration;

use lite::kernel::ADAPTIVE_SPIN_NS;
use lite::{LiteCluster, LiteHandle, RpcHandler, RpcServer, USER_FUNC_MIN};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rnic::{IbConfig, IbFabric};
use rpc_baselines::{
    FarmPair, FasstClient, FasstServer, HerdClient, HerdServer, RingAccounting, SendRpcAccounting,
};
use simnet::{CpuMeter, Ctx, Nanos, Summary};

use crate::drive::drive;
use crate::env::LiteEnv;
use crate::facebook;
use crate::table::Row;

const US: f64 = 1_000.0;
/// The first echo function; a server of `n` serves `ECHO .. ECHO + n`.
pub const ECHO: u8 = USER_FUNC_MIN + 1;
/// A baseline's poll on the loop: the loop steps a side only once what it
/// takes is queued, so no poll waits.
const QUEUED: Duration = Duration::ZERO;

/// The LITE echo server of the RPC figures: serves `ECHO .. ECHO + n` on
/// `node`, each function on its own clock (as one server thread would), all
/// charging the returned meter, and answers every call with `reply_len`
/// bytes. The functions are served while the returned server lives.
pub fn serve_echo(
    cluster: &LiteCluster,
    node: usize,
    n: usize,
    reply_len: usize,
) -> (Arc<RpcServer>, Arc<CpuMeter>) {
    let cpu = Arc::new(CpuMeter::new());
    let echo = Echo {
        clocks: (0..n)
            .map(|_| (Ctx::with_meter(Arc::clone(&cpu)), 0, 0))
            .collect(),
        reply_len,
        adaptive_poll: cluster.kernel(node).config().adaptive_poll,
    };
    let funcs: Vec<u8> = (0..n as u8).map(|i| ECHO + i).collect();
    let h = cluster.attach(node).unwrap();
    (h.serve_rpc(&funcs, echo).unwrap(), cpu)
}

/// [`serve_echo`]'s handler.
struct Echo {
    /// Per function: its clock, and that clock's time and CPU when it was
    /// last lent out.
    clocks: Vec<(Ctx, Nanos, Nanos)>,
    reply_len: usize,
    adaptive_poll: bool,
}

impl RpcHandler for Echo {
    fn ctx(&mut self, func: u8) -> &mut Ctx {
        let (ctx, now, cpu) = &mut self.clocks[usize::from(func - ECHO)];
        (*now, *cpu) = (ctx.now(), ctx.cpu.total());
        ctx
    }

    fn call(&mut self, _: &mut LiteHandle, func: u8, _: &[u8], reply: &mut Vec<u8>) {
        // The clock was last lent out to take this call. A server thread's
        // `lt_recv_rpc` charges its wait for the call as the library waits:
        // a brief busy check, or all of it without `adaptive_poll`. A served
        // take charges no wait, so charge it here: the clock's advance across
        // the take that no CPU charge matches (DESIGN.md §5.3).
        let (ctx, now, cpu) = &mut self.clocks[usize::from(func - ECHO)];
        let gap = (ctx.now() - *now) - (ctx.cpu.total() - *cpu);
        let spun = if self.adaptive_poll {
            gap.min(ADAPTIVE_SPIN_NS)
        } else {
            gap
        };
        ctx.cpu.charge(spun);
        reply.resize(self.reply_len, 0xEE);
    }
}

/// A client of [`run_calls`]: a LITE handle and the echo function it
/// calls on node 1, or a baseline's client.
pub(crate) enum Client {
    Lite(LiteHandle, u8),
    Herd(HerdClient),
    Fasst(FasstClient),
}

impl Client {
    /// Posts a call. LITE's `lt_rpc` runs the served echo inside it, so
    /// its reply is in hand once the call is sent.
    fn send(&mut self, ctx: &mut Ctx, input: &[u8]) {
        match self {
            Client::Lite(h, func) => drop(h.lt_rpc(ctx, 1, *func, input, 8192).unwrap()),
            Client::Herd(c) => c.send(ctx, input).unwrap(),
            Client::Fasst(c) => c.send(ctx, input).unwrap(),
        }
    }

    /// The stamp of the reply, once it is queued.
    fn reply_due(&self) -> Option<Nanos> {
        match self {
            Client::Lite(..) => Some(0),
            Client::Herd(c) => c.peek_reply(),
            Client::Fasst(c) => c.peek_reply(),
        }
    }

    /// Takes the queued reply.
    fn recv(&mut self, ctx: &mut Ctx) {
        match self {
            Client::Lite(..) => {}
            Client::Herd(c) => drop(c.recv(ctx, QUEUED).unwrap()),
            Client::Fasst(c) => drop(c.recv(ctx, QUEUED).unwrap()),
        }
    }
}

/// A server thread of a baseline, and the length of its replies.
#[derive(Clone)]
pub(crate) enum Server {
    Herd(Arc<HerdServer>, usize),
    Fasst(Arc<FasstServer>, usize),
}

impl Server {
    /// The stamp of the earliest queued request.
    fn request_due(&self) -> Option<Nanos> {
        match self {
            Server::Herd(s, _) => s.peek_request(),
            Server::Fasst(s, _) => s.peek_request(),
        }
    }

    /// Serves the earliest queued request.
    fn serve(&self, ctx: &mut Ctx) {
        match self {
            Server::Herd(s, n) => s.serve_one(ctx, |_| vec![0xCD; *n], QUEUED),
            Server::Fasst(s, n) => s.serve_one(ctx, |_| vec![0xEF; *n], QUEUED),
        }
        .unwrap()
    }
}

/// A context of [`run_calls`]'s loop: a client, or a server thread.
enum Party {
    Client(Box<Caller>),
    Server(Server),
}

/// A client of [`run_calls`], with its rng, when its next call is due,
/// when its pending call's send ended and how many calls it made.
struct Caller {
    client: Client,
    rng: SmallRng,
    due: Nanos,
    sent: Option<Nanos>,
    done: usize,
}

/// Makes `calls` calls of `input` from every client, with every server
/// thread a context of the same loop ([`drive()`]). Client `t`'s first call
/// is due `gap(rng)` after the start and each later one `gap` after the
/// last returned, its rng seeded `seed + t`. A client busy-polls its
/// reply, so the loop's wait for it is its CPU. Returns the clients' CPU,
/// the servers' and the makespan; panics if a reply is lost.
pub(crate) fn run_calls(
    clients: Vec<Client>,
    servers: Vec<Server>,
    input: &[u8],
    calls: usize,
    seed: u64,
    mut gap: impl FnMut(&mut SmallRng) -> Nanos,
) -> (Nanos, Nanos, Nanos) {
    let mut parties: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(t, client)| {
            let mut rng = SmallRng::seed_from_u64(seed + t as u64);
            let due = gap(&mut rng);
            let caller = Caller {
                client,
                rng,
                due,
                sent: None,
                done: 0,
            };
            (Ctx::new(), Party::Client(Box::new(caller)))
        })
        .chain(servers.into_iter().map(|s| (Ctx::new(), Party::Server(s))))
        .collect();
    let makespan = drive(
        &mut parties,
        |_, p| match p {
            Party::Client(c) if c.sent.is_some() => c.client.reply_due(),
            Party::Client(c) => (c.done < calls).then_some(c.due),
            Party::Server(s) => s.request_due(),
        },
        |ctx, p| match p {
            Party::Client(c) => match c.sent.take() {
                None => {
                    c.client.send(ctx, input);
                    c.sent = Some(ctx.now());
                }
                Some(at) => {
                    ctx.cpu.charge(ctx.now() - at);
                    c.client.recv(ctx);
                    c.done += 1;
                    c.due = ctx.now() + gap(&mut c.rng);
                }
            },
            Party::Server(s) => s.serve(ctx),
        },
    );
    let (mut client_cpu, mut server_cpu) = (0, 0);
    for (ctx, p) in &parties {
        match p {
            Party::Client(c) => {
                assert_eq!(c.done, calls, "a reply was lost");
                client_cpu += ctx.cpu.total();
            }
            Party::Server(_) => server_cpu += ctx.cpu.total(),
        }
    }
    (client_cpu, server_cpu, makespan)
}

/// Makes one warm call and then `ops` timed ones on `ctx`; returns their
/// mean latency in µs.
pub(crate) fn warm_mean_us(ctx: &mut Ctx, ops: usize, mut call: impl FnMut(&mut Ctx)) -> f64 {
    call(ctx);
    let mut s = Summary::new();
    for _ in 0..ops {
        let t0 = ctx.now();
        call(ctx);
        s.record(ctx.now() - t0);
    }
    s.mean() / US
}

/// Figure 10: RPC latency vs return size (8 B input). One client calls at
/// a time, so a baseline's server serves each request as soon as it is
/// sent, on its own clock.
pub fn fig10(full: bool) -> Vec<Row> {
    let ops = if full { 1_000 } else { 200 };
    let input = [1u8; 8];
    let mut rows = Vec::new();
    for size in [8usize, 64, 512, 4096] {
        let slot = size.max(64);
        // LITE user / kernel.
        let lite = |kernel_level: bool| {
            let lenv = LiteEnv::new(2);
            let _echo = serve_echo(&lenv.cluster, 1, 1, size);
            let mut h = if kernel_level {
                lenv.cluster.attach_kernel(0).unwrap()
            } else {
                lenv.cluster.attach(0).unwrap()
            };
            warm_mean_us(&mut Ctx::new(), ops, |ctx| {
                h.lt_rpc(ctx, 1, ECHO, &input, 8192).unwrap();
            })
        };

        // Two verbs writes (FaRM-style lower bound).
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let pair = FarmPair::new(&fabric, 0, 1, slot).unwrap();
        let mut sctx = Ctx::new();
        let farm = warm_mean_us(&mut Ctx::new(), ops, |ctx| {
            pair.send(ctx, 0, &input).unwrap();
            let reply = |_: &[u8]| vec![0xAB; size];
            pair.serve_one(&mut sctx, reply, QUEUED).unwrap();
            pair.recv(ctx, 0, QUEUED).unwrap();
        });

        // HERD.
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, 4, slot).unwrap();
        let client = HerdClient::connect(&server, 0, slot).unwrap();
        let mut sctx = Ctx::new();
        let herd = warm_mean_us(&mut Ctx::new(), ops, |ctx| {
            client.send(ctx, &input).unwrap();
            let reply = |_: &[u8]| vec![0xCD; size];
            server.serve_one(&mut sctx, reply, QUEUED).unwrap();
            client.recv(ctx, QUEUED).unwrap();
        });

        // FaSST (UD, ≤ MTU).
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = FasstServer::new(&fabric, 1, slot).unwrap();
        let client = FasstClient::connect(&fabric, 0, server.address(), slot).unwrap();
        let mut sctx = Ctx::new();
        let fasst = warm_mean_us(&mut Ctx::new(), ops, |ctx| {
            client.send(ctx, &input).unwrap();
            let reply = |_: &[u8]| vec![0xEF; size];
            server.serve_one(&mut sctx, reply, QUEUED).unwrap();
            client.recv(ctx, QUEUED).unwrap();
        });

        rows.push(
            Row::new(size.to_string())
                .cell("lite_user_us", lite(false))
                .cell("lite_kern_us", lite(true))
                .cell("2writes_us", farm)
                .cell("herd_us", herd)
                .cell("fasst_us", fasst),
        );
    }
    rows
}

/// Figure 11: RPC throughput with 1 and 16 concurrent client/server
/// pairs, vs return size.
pub fn fig11(full: bool) -> Vec<Row> {
    let per_client = if full { 400 } else { 120 };
    let input = [1u8; 8];
    let mut rows = Vec::new();
    for size in [64usize, 1024, 4096] {
        let slot = size.max(64);
        let mut row = Row::new(size.to_string());
        for pairs in [1usize, 16] {
            let total_bytes = (pairs * per_client * (size + 8)) as f64;
            let mut gbps = |name: &str, clients, servers| {
                let (.., span) = run_calls(clients, servers, &input, per_client, 0, |_| 0);
                row.cells
                    .push((format!("{name}{pairs}_gbps"), total_bytes / span as f64));
            };

            // ---- LITE: `pairs` clients, `pairs` servers, one ring. ----
            let lenv = LiteEnv::new(2);
            let _echo = serve_echo(&lenv.cluster, 1, pairs, size);
            let clients = (0..pairs as u8)
                .map(|i| Client::Lite(lenv.cluster.attach(0).unwrap(), ECHO + i))
                .collect();
            gbps("lite", clients, vec![]);

            // ---- HERD: `pairs` clients, 2 server threads. ----
            let fabric = IbFabric::new(IbConfig::with_nodes(2));
            let server = HerdServer::new(&fabric, 1, pairs, slot).unwrap();
            let clients = (0..pairs)
                .map(|_| Client::Herd(HerdClient::connect(&server, 0, slot).unwrap()))
                .collect();
            gbps(
                "herd",
                clients,
                vec![Server::Herd(server, size); 2.min(pairs)],
            );

            // ---- FaSST: one master thread serves everyone. ----
            let fabric = IbFabric::new(IbConfig::with_nodes(2));
            let server = FasstServer::new(&fabric, 1, slot).unwrap();
            let address = server.address();
            let clients = (0..pairs)
                .map(|_| Client::Fasst(FasstClient::connect(&fabric, 0, address, slot).unwrap()))
                .collect();
            gbps("fasst", clients, vec![Server::Fasst(server, size)]);
        }
        rows.push(row);
    }
    rows
}

/// Figure 12: RPC memory utilization under the Facebook key/value size
/// distributions: send-based with 1..4 RQ ladders vs LITE's ring.
pub fn fig12(full: bool) -> Vec<Row> {
    let msgs = if full { 500_000 } else { 50_000 };
    let mut rng = SmallRng::seed_from_u64(12);
    let keys = facebook::key_sizes();
    let values = facebook::value_sizes();
    let max_size = 65_536;
    let mut rows = Vec::new();
    for nrq in 1..=4usize {
        let mut key_acc = SendRpcAccounting::new(nrq, max_size);
        let mut val_acc = SendRpcAccounting::new(nrq, max_size);
        for _ in 0..msgs {
            key_acc.receive(keys.sample(&mut rng) as usize);
            val_acc.receive(values.sample(&mut rng) as usize);
        }
        rows.push(
            Row::new(format!("{nrq}RQ"))
                .cell("key_util", key_acc.utilization())
                .cell("value_util", val_acc.utilization()),
        );
    }
    let mut key_ring = RingAccounting::new();
    let mut val_ring = RingAccounting::new();
    for _ in 0..msgs {
        key_ring.receive(keys.sample(&mut rng) as usize);
        val_ring.receive(values.sample(&mut rng) as usize);
    }
    rows.push(
        Row::new("LITE")
            .cell("key_util", key_ring.utilization())
            .cell("value_util", val_ring.utilization()),
    );
    rows
}

/// Figure 13: CPU time per request under the Facebook inter-arrival
/// distribution, amplified 1×..8×: each client's next call is due an
/// inter-arrival gap × the factor after its last returned.
pub fn fig13(full: bool) -> Vec<Row> {
    let requests = if full { 20_000 } else { 4_000 };
    let threads = 8usize;
    let per_thread = requests / threads;
    let arrivals = facebook::inter_arrivals();
    let input = [1u8; 16];
    let mut rows = Vec::new();
    for factor in [1u64, 2, 4, 8] {
        let gap = |rng: &mut SmallRng| arrivals.sample(rng) * factor;
        let per_req_us = |cpu: Nanos| cpu as f64 / requests as f64 / US;

        // ---- LITE. ----
        let lenv = LiteEnv::new(2);
        let (_echo, server_cpu) = serve_echo(&lenv.cluster, 1, threads, 64);
        let clients = (0..threads as u8)
            .map(|t| Client::Lite(lenv.cluster.attach(0).unwrap(), ECHO + t))
            .collect();
        let (client_cpu, ..) = run_calls(clients, vec![], &input, per_thread, 13, gap);
        let poller_cpu =
            lenv.cluster.kernel(0).poller_cpu.total() + lenv.cluster.kernel(1).poller_cpu.total();
        let lite = per_req_us(client_cpu + server_cpu.total() + poller_cpu);

        // The baselines' server threads busy-poll: each burns the whole
        // span even when idle, and the loop charges it only for what it
        // serves.
        let busy = |(client, server, span): (Nanos, Nanos, Nanos), pollers: u64| {
            per_req_us(client + server.max(pollers * span))
        };

        // ---- HERD: busy pollers on both sides, two server threads. ----
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, threads, 4096).unwrap();
        let clients = (0..threads)
            .map(|_| Client::Herd(HerdClient::connect(&server, 0, 4096).unwrap()))
            .collect();
        let servers = vec![Server::Herd(server, 64); 2];
        let herd = busy(run_calls(clients, servers, &input, per_thread, 31, gap), 2);

        // ---- FaSST: one busy master thread. ----
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = FasstServer::new(&fabric, 1, 4096).unwrap();
        let address = server.address();
        let clients = (0..threads)
            .map(|_| Client::Fasst(FasstClient::connect(&fabric, 0, address, 4096).unwrap()))
            .collect();
        let servers = vec![Server::Fasst(server, 64)];
        let fasst = busy(run_calls(clients, servers, &input, per_thread, 57, gap), 1);

        rows.push(
            Row::new(format!("{factor}x"))
                .cell("herd_us", herd)
                .cell("fasst_us", fasst)
                .cell("lite_us", lite),
        );
    }
    rows
}

//! `rpc-echo`: 8 client contexts on node 0 calling one harness-owned
//! server thread on node 1 — `lite::kernel::rpc` without the services
//! stacked on it.

use std::sync::Arc;
use std::thread::JoinHandle;

use lite::{LiteCluster, LiteError, LiteHandle, USER_FUNC_MIN};
use simnet::{CpuMeter, Ctx};

use super::{fill, Spec, World};
use crate::driver::{self, Client, Phase, Progress, Round, Step};
use crate::gen::Rng;
use crate::trace::Tracer;

const CONTEXTS: usize = 8;
pub const FUNC: u8 = USER_FUNC_MIN;
const REPLY_SIZES: [u32; 3] = [64, 1024, 4096];
pub const MAX_REPLY: usize = 4096;

pub const RPC_ECHO: Spec = Spec {
    name: "rpc-echo",
    why: "8 closed-loop contexts of lt_rpc (8 B in, 64 B/1 KB/4 KB out) saturating one server thread: isolates the RPC ring, write-imm pair and poller (Fig 10/11)",
    contexts: CONTEXTS,
    round_ops: 4_000,
    slo_ns: None,
    open_loop: false,
    setup: |seed| Box::new(RpcEcho::setup(seed)),
};

/// Serves until a request that is not 8 bytes long arrives.
fn serve(mut h: LiteHandle, cpu: Arc<CpuMeter>) {
    let mut ctx = Ctx::with_meter(cpu);
    let mut reply = vec![0u8; MAX_REPLY];
    loop {
        let call = match h.lt_recv_rpc(&mut ctx, FUNC) {
            Ok(call) => call,
            Err(LiteError::Timeout) => continue,
            Err(e) => panic!("rpc-echo server: {e:?}"),
        };
        let Ok(req) = <[u8; 8]>::try_from(&call.input[..]) else {
            h.lt_reply_rpc(&mut ctx, &call, &[]).expect("stop reply");
            return;
        };
        let len = u32::from_le_bytes(req[..4].try_into().expect("4")) as usize;
        let tag = u32::from_le_bytes(req[4..].try_into().expect("4"));
        let out = &mut reply[..len.min(MAX_REPLY)];
        fill(tag as u64, out);
        h.lt_reply_rpc(&mut ctx, &call, out).expect("reply");
    }
}

/// The harness-owned echo server: one thread on one node.
pub struct EchoServer {
    node: usize,
    thread: JoinHandle<()>,
    /// Virtual CPU the server thread was charged.
    pub cpu: Arc<CpuMeter>,
}

impl EchoServer {
    pub fn start(cluster: &LiteCluster, node: usize) -> Self {
        let h = cluster.attach(node).expect("server attach");
        h.register_rpc(FUNC).expect("register_rpc");
        let cpu = Arc::new(CpuMeter::new());
        let meter = Arc::clone(&cpu);
        EchoServer {
            node,
            thread: std::thread::spawn(move || serve(h, meter)),
            cpu,
        }
    }

    /// Sends the stop request through `h` and joins the thread.
    pub fn stop(self, h: &mut LiteHandle, ctx: &mut Ctx) {
        h.lt_rpc(ctx, self.node, FUNC, &[0], 8).expect("stop rpc");
        self.thread.join().expect("server thread panicked");
    }
}

/// An echo request: `len` reply bytes of the content tagged `tag`.
pub fn request(len: u32, tag: u32) -> [u8; 8] {
    let mut req = [0u8; 8];
    req[..4].copy_from_slice(&len.to_le_bytes());
    req[4..].copy_from_slice(&tag.to_le_bytes());
    req
}

struct Caller {
    h: LiteHandle,
    ctx: Ctx,
    idx: u64,
    rng: Rng,
    left: usize,
    want: Vec<u8>,
}

impl Client for Caller {
    fn ctx(&mut self) -> &mut Ctx {
        &mut self.ctx
    }

    fn remaining(&self) -> usize {
        self.left
    }

    fn phase(&self) -> Phase {
        Phase::LtRpc
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        self.left -= 1;
        let len = REPLY_SIZES[self.rng.below(REPLY_SIZES.len() as u64) as usize];
        let tag = self.rng.next_u64() as u32;
        let req = request(len, tag);
        let h = &mut self.h;
        let res = tr.call("lite.rpc", "lt_rpc", &mut self.ctx, |ctx| {
            h.lt_rpc(ctx, 1, FUNC, &req, MAX_REPLY)
        });
        let want = &mut self.want[..len as usize];
        fill(tag as u64, want);
        Step::Done {
            ok: res.is_ok_and(|got| got == *want),
        }
    }
}

struct RpcEcho {
    cluster: Arc<LiteCluster>,
    seed: u64,
    clients: Vec<Caller>,
    server: Option<EchoServer>,
}

impl RpcEcho {
    fn setup(seed: u64) -> Self {
        let cluster = LiteCluster::start(2).expect("cluster start");
        let server = EchoServer::start(&cluster, 1);
        let clients = (0..CONTEXTS as u64)
            .map(|idx| Caller {
                h: cluster.attach(0).expect("attach"),
                ctx: Ctx::new(),
                idx,
                rng: Rng::new(0),
                left: 0,
                want: vec![0; MAX_REPLY],
            })
            .collect();
        RpcEcho {
            cluster,
            seed,
            clients,
            server: Some(server),
        }
    }
}

impl World for RpcEcho {
    fn cluster(&self) -> &Arc<LiteCluster> {
        &self.cluster
    }

    fn round(&mut self, round: u64, ops: usize, tr: &mut Tracer, pg: &Progress) -> Round {
        for c in &mut self.clients {
            c.rng = Rng::stream(self.seed, round << 8 | c.idx);
            c.left = ops;
        }
        let mut app = driver::app_work(self.seed, round, self.clients.len());
        driver::run(&mut self.clients, &mut app, tr, pg)
    }

    /// Every reply is verified as it arrives; nothing is left to check.
    fn check(&mut self) -> (u64, u64) {
        (0, 0)
    }

    fn server_vcpu_ns(&self) -> u64 {
        self.server.as_ref().map_or(0, |s| s.cpu.total())
    }

    fn teardown(mut self: Box<Self>) {
        let c = &mut self.clients[0];
        let server = self.server.take().expect("server running");
        server.stop(&mut c.h, &mut c.ctx);
    }
}

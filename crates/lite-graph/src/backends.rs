//! The four substrates under the GAS engine, plus runners.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lite::{Lh, LiteCluster, LiteHandle, LiteResult, LockId, Perm};
use lite_dsm::{DsmCluster, DsmHandle};
use simnet::turn::{self, Turns};
use simnet::{Ctx, Nanos};
use transport::{Mesh, MeshSock, TcpCostModel, TcpNet};

use crate::engine::{node_loop, Backend, PagerankConfig, PagerankResult};
use crate::gen::Graph;

static RUN_NONCE: AtomicU64 = AtomicU64::new(1);

fn encode_bundle(ranks: &[f64], actives: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ranks.len() * 9);
    for r in ranks {
        out.extend_from_slice(&r.to_le_bytes());
    }
    out.extend(actives.iter().map(|&a| a as u8));
    out
}

fn decode_bundle(bytes: &[u8], n: usize) -> (Vec<f64>, Vec<bool>) {
    let mut ranks = Vec::with_capacity(n);
    for i in 0..n {
        ranks.push(f64::from_le_bytes(
            bytes[i * 8..i * 8 + 8].try_into().expect("8"),
        ));
    }
    let actives = bytes[n * 8..n * 8 + n].iter().map(|&b| b != 0).collect();
    (ranks, actives)
}

// ---------------------------------------------------------------------
// Reference (single node, no network)
// ---------------------------------------------------------------------

struct LocalBackend;

impl Backend for LocalBackend {
    fn nodes(&self) -> usize {
        1
    }
    fn me(&self) -> usize {
        0
    }
    fn fetch(&mut self, _: &mut Ctx, _: usize) -> Vec<f64> {
        unreachable!("single node")
    }
    fn publish(&mut self, _: &mut Ctx, _: &[f64], _: &[bool]) {}
    fn fetch_actives(&mut self, _: &mut Ctx, _: usize) -> Vec<bool> {
        unreachable!("single node")
    }
    fn barrier(&mut self, _: &mut Ctx, _: u64) {}
}

/// Sequential reference run (exact same math and delta caching).
pub fn run_reference(graph: &Graph, cfg: &PagerankConfig) -> PagerankResult {
    let mut b = LocalBackend;
    let (ranks, stamps, iters) = node_loop(&mut b, graph, cfg, 1);
    PagerankResult {
        ranks,
        runtime_ns: stamps.last().copied().unwrap_or(0),
        iterations: iters,
    }
}

// ---------------------------------------------------------------------
// LITE backend (§8.3)
// ---------------------------------------------------------------------

/// LITE substrate: rank/activity segments in named LMRs, `LT_read` pulls,
/// `LT_lock`-guarded publishes, `LT_barrier` rounds — the paper's entire
/// networking surface for LITE-Graph is these 4 calls.
pub struct LiteBackend {
    h: LiteHandle,
    me: usize,
    nodes: usize,
    seg_lens: Vec<usize>,
    lhs: Vec<Lh>,
    locks: Vec<LockId>,
    nonce: u64,
}

impl Backend for LiteBackend {
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn me(&self) -> usize {
        self.me
    }

    fn fetch(&mut self, ctx: &mut Ctx, node: usize) -> Vec<f64> {
        let n = self.seg_lens[node];
        let mut buf = vec![0u8; n * 9];
        self.h
            .lt_read(ctx, self.lhs[node], 0, &mut buf)
            .expect("segment read");
        decode_bundle(&buf, n).0
    }

    fn fetch_actives(&mut self, ctx: &mut Ctx, node: usize) -> Vec<bool> {
        let n = self.seg_lens[node];
        let mut buf = vec![0u8; n];
        self.h
            .lt_read(ctx, self.lhs[node], (n * 8) as u64, &mut buf)
            .expect("actives read");
        buf.into_iter().map(|b| b != 0).collect()
    }

    fn publish(&mut self, ctx: &mut Ctx, ranks: &[f64], actives: &[bool]) {
        let bytes = encode_bundle(ranks, actives);
        self.h.lt_lock(ctx, self.locks[self.me]).expect("lock");
        self.h
            .lt_write(ctx, self.lhs[self.me], 0, &bytes)
            .expect("publish");
        self.h.lt_unlock(ctx, self.locks[self.me]).expect("unlock");
    }

    fn barrier(&mut self, ctx: &mut Ctx, seq: u64) {
        let (id, count) = (self.nonce * 10_000 + seq, self.nodes as u32);
        turn::aside(ctx.now(), || {
            self.h.lt_barrier(ctx, id, count).expect("barrier");
            ctx.now()
        });
    }
}

/// Runs LITE-Graph on `engine_nodes` nodes × `threads` threads each.
pub fn run_lite(
    cluster: &Arc<LiteCluster>,
    graph: &Graph,
    engine_nodes: usize,
    threads: usize,
    cfg: &PagerankConfig,
) -> LiteResult<PagerankResult> {
    assert!(cluster.num_nodes() >= engine_nodes);
    let nonce = RUN_NONCE.fetch_add(1, Ordering::Relaxed);
    let seg_lens: Vec<usize> = (0..engine_nodes)
        .map(|n| graph.partition_range(n, engine_nodes).len())
        .collect();
    // Create segment LMRs + locks (one per partition, owned by its node).
    let mut locks = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for node in 0..engine_nodes {
        let mut h = cluster.attach(node)?;
        let mut ctx = Ctx::new();
        h.lt_malloc(
            &mut ctx,
            node,
            (seg_lens[node] * 9).max(64) as u64,
            &format!("pr{nonce}.seg.{node}"),
            Perm::RW,
        )?;
        locks.push(h.lt_create_lock(&mut ctx)?);
    }

    let (locks, seg_lens) = (&locks, &seg_lens);
    run_nodes(
        graph,
        (0..engine_nodes).map(|me| {
            move || {
                let mut h = cluster.attach(me)?;
                let mut ctx = Ctx::new();
                let mut lhs = Vec::new();
                for node in 0..engine_nodes {
                    lhs.push(h.lt_map(&mut ctx, &format!("pr{nonce}.seg.{node}"))?);
                }
                let mut backend = LiteBackend {
                    h,
                    me,
                    nodes: engine_nodes,
                    seg_lens: seg_lens.clone(),
                    lhs,
                    locks: locks.clone(),
                    nonce,
                };
                Ok(node_loop(&mut backend, graph, cfg, threads))
            }
        }),
    )
}

// ---------------------------------------------------------------------
// Message-passing backends (PowerGraph / Grappa)
// ---------------------------------------------------------------------

/// A backend that broadcasts its bundle to every peer each round over a
/// socket mesh; fetch = receive. Used for both the PowerGraph (TCP) and
/// Grappa (aggregating stack) substrates — only the cost model differs.
pub struct MeshBackend {
    me: usize,
    nodes: usize,
    seg_lens: Vec<usize>,
    socks: Vec<Option<MeshSock>>,
    cached_actives: Vec<Option<Vec<bool>>>,
    /// Additional per-exchange latency (Grappa's aggregation window).
    extra_ns: Nanos,
    /// Per-vertex marshalling cost. PowerGraph serializes mirror updates
    /// per vertex; Grappa's delegation aggregates per-vertex ops. LITE
    /// and the DSM move raw arrays with one-sided reads and pay nothing —
    /// a core reason the paper's LITE-Graph wins.
    ser_ns: Nanos,
}

impl Backend for MeshBackend {
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn me(&self) -> usize {
        self.me
    }

    fn fetch(&mut self, ctx: &mut Ctx, node: usize) -> Vec<f64> {
        let sock = self.socks[node].as_ref().expect("mesh");
        let bytes = {
            let s = sock.lock();
            s.recv(ctx).expect("bundle")
        };
        ctx.clock.advance(self.extra_ns);
        ctx.work(self.ser_ns * self.seg_lens[node] as u64);
        let (ranks, actives) = decode_bundle(&bytes, self.seg_lens[node]);
        self.cached_actives[node] = Some(actives);
        ranks
    }

    fn fetch_actives(&mut self, _: &mut Ctx, node: usize) -> Vec<bool> {
        self.cached_actives[node]
            .clone()
            .expect("fetch before fetch_actives")
    }

    fn publish(&mut self, ctx: &mut Ctx, ranks: &[f64], actives: &[bool]) {
        let bytes = encode_bundle(ranks, actives);
        for node in 0..self.nodes {
            if node == self.me {
                continue;
            }
            ctx.work(self.ser_ns * ranks.len() as u64);
            self.socks[node]
                .as_ref()
                .expect("mesh")
                .lock()
                .send(ctx, &bytes);
        }
    }

    fn barrier(&mut self, _: &mut Ctx, _: u64) {
        // Receive-synchronized; no explicit barrier in these stacks.
    }
}

fn run_mesh(
    graph: &Graph,
    nodes: usize,
    threads: usize,
    cfg: &PagerankConfig,
    tcp_cost: TcpCostModel,
    extra_ns: Nanos,
    ser_ns: Nanos,
) -> PagerankResult {
    let net = TcpNet::new(nodes, tcp_cost);
    let mut mesh = Mesh::full(&net);
    let seg_lens: Vec<usize> = (0..nodes)
        .map(|n| graph.partition_range(n, nodes).len())
        .collect();
    let rows: Vec<_> = (0..nodes).map(|me| mesh.take_row(me)).collect();
    let seg_lens = &seg_lens;
    run_nodes(
        graph,
        rows.into_iter().enumerate().map(|(me, socks)| {
            move || {
                let mut backend = MeshBackend {
                    me,
                    nodes,
                    seg_lens: seg_lens.clone(),
                    socks,
                    cached_actives: (0..nodes).map(|_| None).collect(),
                    extra_ns,
                    ser_ns,
                };
                Ok(node_loop(&mut backend, graph, cfg, threads))
            }
        }),
    )
    .expect("mesh run is infallible")
}

/// PowerGraph baseline: the GAS engine over TCP/IPoIB.
pub fn run_powergraph_tcp(
    graph: &Graph,
    nodes: usize,
    threads: usize,
    cfg: &PagerankConfig,
) -> PagerankResult {
    run_mesh(graph, nodes, threads, cfg, TcpCostModel::default(), 0, 55)
}

/// Grappa-like baseline: a latency-tolerant aggregating user-level stack
/// over IB — cheaper per byte than kernel TCP, plus a fixed aggregation
/// window per exchange.
pub fn run_grappa(
    graph: &Graph,
    nodes: usize,
    threads: usize,
    cfg: &PagerankConfig,
) -> PagerankResult {
    let grappa_cost = TcpCostModel {
        syscall_ns: 300, // user-level stack, no syscalls
        segment_ns: 120, // aggregated big frames
        mss: 65_536,
        bytes_per_sec: 3_000_000_000,
        propagation_ns: 450,
        rx_wakeup_ns: 1_500,
        copy_bytes_per_sec: 10_000_000_000,
    };
    // Aggregation buys bandwidth at the price of batching delay.
    run_mesh(graph, nodes, threads, cfg, grappa_cost, 8_000, 28)
}

// ---------------------------------------------------------------------
// DSM backend (LITE-Graph-DSM, §8.4)
// ---------------------------------------------------------------------

/// LITE-Graph-DSM: segments live in `lite_dsm` shared memory. Each
/// node's rank segment and activity segment occupy page-aligned,
/// exclusively-owned regions, so the owner holds its write tokens for the
/// whole run and publishes with `write + flush` (whole-page overwrite).
pub struct DsmBackend {
    dsm: DsmHandle,
    lite: LiteHandle,
    me: usize,
    nodes: usize,
    rank_off: Vec<u64>,
    act_off: Vec<u64>,
    seg_lens: Vec<usize>,
    nonce: u64,
    acquired: bool,
}

impl Backend for DsmBackend {
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn me(&self) -> usize {
        self.me
    }

    fn fetch(&mut self, ctx: &mut Ctx, node: usize) -> Vec<f64> {
        let n = self.seg_lens[node];
        let mut buf = vec![0u8; n * 8];
        self.dsm
            .read(ctx, self.rank_off[node], &mut buf)
            .expect("dsm read");
        buf.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect()
    }

    fn fetch_actives(&mut self, ctx: &mut Ctx, node: usize) -> Vec<bool> {
        let n = self.seg_lens[node];
        let mut buf = vec![0u8; n];
        self.dsm
            .read(ctx, self.act_off[node], &mut buf)
            .expect("dsm read actives");
        buf.into_iter().map(|b| b != 0).collect()
    }

    fn publish(&mut self, ctx: &mut Ctx, ranks: &[f64], actives: &[bool]) {
        let rank_addr = self.rank_off[self.me];
        let act_addr = self.act_off[self.me];
        let rank_bytes: Vec<u8> = ranks.iter().flat_map(|r| r.to_le_bytes()).collect();
        let act_bytes: Vec<u8> = actives.iter().map(|&a| a as u8).collect();
        if !self.acquired {
            // Own segments for the whole run: tokens taken once.
            self.dsm
                .acquire_for_overwrite(ctx, rank_addr, rank_bytes.len())
                .expect("acquire ranks");
            self.dsm
                .acquire_for_overwrite(ctx, act_addr, act_bytes.len())
                .expect("acquire actives");
            self.acquired = true;
        }
        self.dsm.write(ctx, rank_addr, &rank_bytes).expect("write");
        self.dsm.write(ctx, act_addr, &act_bytes).expect("write");
        self.dsm.flush(ctx).expect("flush");
    }

    fn barrier(&mut self, ctx: &mut Ctx, seq: u64) {
        let (id, count) = (self.nonce * 10_000 + seq, self.nodes as u32);
        turn::aside(ctx.now(), || {
            self.lite.lt_barrier(ctx, id, count).expect("barrier");
            ctx.now()
        });
    }
}

/// Runs LITE-Graph-DSM: same engine, ranks in distributed shared memory.
pub fn run_dsm(
    cluster: &Arc<LiteCluster>,
    graph: &Graph,
    engine_nodes: usize,
    threads: usize,
    cfg: &PagerankConfig,
) -> LiteResult<PagerankResult> {
    let nonce = RUN_NONCE.fetch_add(1, Ordering::Relaxed);
    let seg_lens: Vec<usize> = (0..engine_nodes)
        .map(|m| graph.partition_range(m, engine_nodes).len())
        .collect();
    // Page-aligned, exclusively-owned regions: ranks then actives per
    // node.
    const PG: u64 = lite_dsm::PAGE as u64;
    let mut rank_off = Vec::new();
    let mut act_off = Vec::new();
    let mut cursor = 0u64;
    for &len in &seg_lens {
        rank_off.push(cursor);
        cursor += ((len as u64 * 8).div_ceil(PG)) * PG;
        act_off.push(cursor);
        cursor += (len as u64).div_ceil(PG) * PG;
    }
    let dsm = DsmCluster::create(cluster, cursor + PG)?;
    let (dsm, seg_lens, rank_off, act_off) = (&dsm, &seg_lens, &rank_off, &act_off);
    run_nodes(
        graph,
        (0..engine_nodes).map(|me| {
            move || {
                let mut backend = DsmBackend {
                    dsm: dsm.handle(me)?,
                    lite: cluster.attach_kernel(me)?,
                    me,
                    nodes: engine_nodes,
                    rank_off: rank_off.clone(),
                    act_off: act_off.clone(),
                    seg_lens: seg_lens.clone(),
                    nonce,
                    acquired: false,
                };
                Ok(node_loop(&mut backend, graph, cfg, threads))
            }
        }),
    )
}

// ---------------------------------------------------------------------

type NodeOutcome = LiteResult<(Vec<f64>, Vec<u64>, usize)>;

/// Runs each engine node on a thread of its own, the threads taking
/// turns ([`simnet::turn`]: their LITE calls go lowest clock first), and
/// gathers the ranks and the makespan.
fn run_nodes<F>(graph: &Graph, nodes: impl Iterator<Item = F>) -> LiteResult<PagerankResult>
where
    F: FnOnce() -> NodeOutcome + Send,
{
    let nodes: Vec<F> = nodes.collect();
    let turns = &Turns::new(nodes.len());
    let outcomes: Vec<NodeOutcome> = std::thread::scope(|s| {
        let run = |(me, node): (usize, F)| {
            s.spawn(move || {
                turns.join(me);
                node()
            })
        };
        let handles: Vec<_> = nodes.into_iter().enumerate().map(run).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node"))
            .collect()
    });
    let mut ranks = vec![0.0; graph.n];
    let mut runtime = 0u64;
    let mut iterations = 0usize;
    let count = outcomes.len();
    for (node, r) in outcomes.into_iter().enumerate() {
        let (seg, stamps, iters) = r?;
        let range = graph.partition_range(node, count);
        ranks[range].copy_from_slice(&seg);
        runtime = runtime.max(stamps.last().copied().unwrap_or(0));
        iterations = iterations.max(iters);
    }
    Ok(PagerankResult {
        ranks,
        runtime_ns: runtime,
        iterations,
    })
}

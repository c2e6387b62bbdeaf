//! The substrate-independent GAS engine: pull-based PageRank with delta
//! caching (PowerGraph's design, §8.3).

use simnet::{Ctx, Nanos};

use crate::gen::Graph;

/// Per-edge gather cost (read neighbor rank, accumulate).
pub const EDGE_NS: Nanos = 7;
/// Per-vertex apply cost.
pub const APPLY_NS: Nanos = 25;
/// Per-vertex cost of the delta-cache check when a vertex is skipped.
pub const SKIP_NS: Nanos = 2;

/// PageRank damping factor.
pub const DAMPING: f64 = 0.85;
/// Delta-cache threshold: vertices whose rank moved less than this are
/// inactive next iteration.
pub const EPSILON: f64 = 1e-7;

/// PageRank parameters.
#[derive(Debug, Clone)]
pub struct PagerankConfig {
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for PagerankConfig {
    fn default() -> Self {
        PagerankConfig { max_iters: 10 }
    }
}

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PagerankResult {
    /// Final ranks, all vertices.
    pub ranks: Vec<f64>,
    /// Virtual makespan.
    pub runtime_ns: u64,
    /// Iterations executed.
    pub iterations: usize,
}

/// How a node's engine exchanges rank partitions with its peers. One
/// backend instance runs per node, on its own thread.
pub trait Backend {
    /// Number of nodes.
    fn nodes(&self) -> usize;
    /// This node's id.
    fn me(&self) -> usize;
    /// Fetches the current rank segment owned by `node` (never called for
    /// `me`).
    fn fetch(&mut self, ctx: &mut Ctx, node: usize) -> Vec<f64>;
    /// Publishes this node's updated segment.
    fn publish(&mut self, ctx: &mut Ctx, ranks: &[f64], actives: &[bool]);
    /// Fetches the active flags of `node`'s segment from the last publish.
    fn fetch_actives(&mut self, ctx: &mut Ctx, node: usize) -> Vec<bool>;
    /// Barrier across all engine nodes; `seq` increments per use.
    fn barrier(&mut self, ctx: &mut Ctx, seq: u64);
}

/// Runs the per-node engine loop; returns this node's final segment and
/// the node's final clock. `threads` is the intra-node parallelism the
/// compute model divides by.
pub fn node_loop<B: Backend>(
    backend: &mut B,
    graph: &Graph,
    cfg: &PagerankConfig,
    threads: usize,
) -> (Vec<f64>, Vec<u64>, usize) {
    let nodes = backend.nodes();
    let me = backend.me();
    let mine = graph.partition_range(me, nodes);
    let in_edges = graph.in_edges_for(me, nodes);
    let n = graph.n;

    let mut ctx = Ctx::new();
    let mut global: Vec<f64> = vec![1.0 / n as f64; n];
    let mut active: Vec<bool> = vec![true; n];
    let mut my_ranks: Vec<f64> = global[mine.clone()].to_vec();
    let mut seq = 0u64;
    let mut iters = 0usize;
    let mut iter_stamps = Vec::new();

    // Publish the initial segment so the first fetch has data.
    if nodes > 1 {
        backend.publish(&mut ctx, &my_ranks, &active[mine.clone()]);
        backend.barrier(&mut ctx, seq);
        seq += 1;
    }

    for _ in 0..cfg.max_iters {
        iters += 1;
        // ---- Gather remote segments (skip if nothing there is active —
        // the delta cache at partition granularity is checked first). ----
        for peer in 0..nodes {
            if peer == me {
                continue;
            }
            let seg = backend.fetch(&mut ctx, peer);
            let range = graph.partition_range(peer, nodes);
            global[range.clone()].copy_from_slice(&seg);
            let act = backend.fetch_actives(&mut ctx, peer);
            active[range].copy_from_slice(&act);
        }
        // First half of the BSP double barrier: nobody may publish
        // iteration k while a peer is still reading iteration k-1's
        // shared segments (no-op for message-passing backends, whose
        // queues provide the isolation).
        if nodes > 1 {
            backend.barrier(&mut ctx, seq);
            seq += 1;
        }

        // ---- Apply: recompute owned vertices whose in-neighborhood has
        // activity (delta caching). ----
        let mut new_active = vec![false; my_ranks.len()];
        let mut edges_done = 0u64;
        let mut applied = 0u64;
        let mut skipped = 0u64;
        let mut max_delta = 0.0f64;
        for (i, srcs) in in_edges.iter().enumerate() {
            let recompute = srcs.iter().any(|&s| active[s as usize]);
            if !recompute {
                skipped += 1;
                continue;
            }
            let mut acc = 0.0;
            for &s in srcs {
                let od = graph.out_degree[s as usize].max(1) as f64;
                acc += global[s as usize] / od;
            }
            edges_done += srcs.len() as u64;
            applied += 1;
            let new_rank = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
            let delta = (new_rank - my_ranks[i]).abs();
            if delta > EPSILON {
                new_active[i] = true;
            }
            max_delta = max_delta.max(delta);
            my_ranks[i] = new_rank;
        }
        // Charge the compute model, divided over intra-node threads.
        let compute = edges_done * EDGE_NS + applied * APPLY_NS + skipped * SKIP_NS;
        ctx.work(compute / threads as u64);

        // ---- Scatter/publish + barrier. ----
        if nodes > 1 {
            backend.publish(&mut ctx, &my_ranks, &new_active);
        }
        global[mine.clone()].copy_from_slice(&my_ranks);
        active[mine.clone()].copy_from_slice(&new_active);
        backend.barrier(&mut ctx, seq);
        seq += 1;
        iter_stamps.push(ctx.now());
        let _ = max_delta; // convergence is by iteration budget: all
                           // backends run the same fixed schedule so
                           // their ranks stay bit-comparable.
    }
    (my_ranks, iter_stamps, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        const { assert!(DAMPING > 0.8 && DAMPING < 0.9) };
        assert!(PagerankConfig::default().max_iters >= 5);
    }
}

//! Scale-out proof: boot cost versus cluster size and kernel behavior
//! under thousands of client contexts (DESIGN.md §12).
//!
//! Two sweeps, both read off the kernel's own gauges:
//!
//! * **Boot sweep** — clusters of growing node count. Incremental
//!   membership makes boot O(N): each node registers a directory record
//!   and starts a poller, and *no* pair-wise QP mesh or ring matrix is
//!   built. The per-node boot time must stay roughly flat as N grows
//!   (the old eager bring-up grew linearly per node, quadratically in
//!   total).
//! * **Context sweep** — a fixed cluster hammered by hundreds to
//!   thousands of client contexts spread over every node. Throughput
//!   (host-clock) and the write-class p99 (sim-clock, from `lt_stats`)
//!   chart how the sharded kernel tables hold up as context count grows
//!   by two orders of magnitude.

use std::sync::Arc;

use lite::{LiteCluster, OpClass, Perm, Priority};
use simnet::Ctx;

use crate::table::Row;

const US: f64 = 1_000.0;
const MS: f64 = 1_000_000.0;

/// One boot-sweep row: host-wall boot time in all and per node, and
/// the live QPs on the whole fabric right after boot (0: the mesh is
/// lazy).
fn boot_row(nodes: usize) -> Row {
    let cluster = LiteCluster::start(nodes).unwrap();
    let boot_ns = cluster.directory().boot_host_ns();
    let qps_after_boot: usize = (0..nodes).map(|n| cluster.kernel(n).stats().qps).sum();
    Row::new(format!("{nodes} nodes"))
        .cell("boot_ms", boot_ns as f64 / MS)
        .cell("per_node_us", boot_ns as f64 / nodes as f64 / US)
        .cell("qps_after_boot", qps_after_boot as f64)
}

/// Runs `contexts` client contexts against an `nodes`-node cluster.
/// Context `i` attaches on node `i % nodes`, creates one small LMR on
/// the next node over, and issues `ops_per_ctx` writes then reads.
/// Contexts live on a bounded worker pool but every handle stays alive
/// until the sweep point ends, so table occupancy really reaches
/// `contexts` entries.
fn context_row(nodes: usize, contexts: usize, ops_per_ctx: usize) -> Row {
    let cluster = LiteCluster::start(nodes).unwrap();
    let workers = 16.min(contexts);
    let start = std::time::Instant::now();
    let mut joins = Vec::new();
    for w in 0..workers {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut handles = Vec::new();
            let mut ops = 0u64;
            for i in (w..contexts).step_by(workers) {
                let node = i % nodes;
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                let lh = h
                    .lt_malloc(
                        &mut ctx,
                        (node + 1) % nodes,
                        4096,
                        &format!("sc{i}"),
                        Perm::RW,
                    )
                    .unwrap();
                let block = [i as u8; 64];
                let mut buf = [0u8; 64];
                for k in 0..ops_per_ctx {
                    h.lt_write(&mut ctx, lh, (k as u64 % 64) * 64, &block)
                        .unwrap();
                    h.lt_read(&mut ctx, lh, (k as u64 % 64) * 64, &mut buf)
                        .unwrap();
                    ops += 2;
                }
                handles.push((h, ctx, lh));
            }
            ops
        }));
    }
    let ops: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    let host_s = start.elapsed().as_secs_f64();

    let mut p99 = 0u64;
    let mut lazy_connects = 0u64;
    let mut mesh_ns = 0u64;
    for n in 0..nodes {
        let report = cluster.kernel(n).lt_stats();
        for prio in [Priority::High, Priority::Low] {
            if let Some(lat) = report.class(OpClass::Write, prio) {
                p99 = p99.max(lat.p99);
            }
        }
        lazy_connects += report.kernel.lazy_connects;
        mesh_ns += report.kernel.mesh_ns;
    }
    Row::new(format!("{nodes}x{contexts}"))
        .cell("ops", ops as f64)
        .cell("tput_kops", ops as f64 / host_s / 1_000.0)
        .cell("p99_write_us", p99 as f64 / US)
        .cell("lazy_connects", lazy_connects as f64)
        .cell("mesh_ms", mesh_ns as f64 / MS)
}

/// The boot sweep, out to 512 nodes with `full`. Gates: no node wires a
/// data QP at boot, and the per-node boot cost of the largest cluster is
/// under 8x the smallest's (generous slack for host noise; the old eager
/// bring-up grew linearly per node). The last row is that ratio.
pub fn scale_boot(full: bool) -> Vec<Row> {
    let sizes: &[usize] = if full {
        &[16, 64, 256, 512]
    } else {
        &[8, 16, 32]
    };
    let mut rows: Vec<Row> = sizes.iter().map(|&n| boot_row(n)).collect();
    for r in &rows {
        assert_eq!(
            r.get("qps_after_boot"),
            Some(0.0),
            "{}: boot must not wire data QPs (lazy mesh)",
            r.label
        );
    }
    let per_node = |r: &Row| r.get("per_node_us").unwrap();
    let ratio = per_node(&rows[rows.len() - 1]) / per_node(&rows[0]).max(1e-9);
    assert!(
        ratio < 8.0,
        "per-node boot cost grew superlinearly (x{ratio:.2})"
    );
    rows.push(Row::new("last/first").cell("per_node_us", ratio));
    rows
}

/// The context sweep: contexts out to 10⁴ against a 256-node cluster
/// with `full`.
pub fn scale_contexts(full: bool) -> Vec<Row> {
    let (nodes, counts, ops_per_ctx): (usize, &[usize], usize) = if full {
        (256, &[100, 1_000, 4_096, 10_000], 4)
    } else {
        (8, &[16, 100, 256], 2)
    };
    counts
        .iter()
        .map(|&c| context_row(nodes, c, ops_per_ctx))
        .collect()
}

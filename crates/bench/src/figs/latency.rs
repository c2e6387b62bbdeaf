//! Kernel-level observability: runs a mixed workload (one-sided
//! reads/writes, RPC, locks, barriers) and renders each node's
//! `lt_stats()` report — per-class latency percentiles for the table,
//! the full structured report as a JSON artifact.
//!
//! Unlike the figure harnesses, nothing here times the workload from
//! the outside: every number comes out of the kernel's own histograms
//! and trace ring, which is the point.

use lite::{LiteCluster, OpClass, Perm, Priority, StatsReport};
use simnet::Ctx;

use crate::figs::rpc::{serve_echo, ECHO};
use crate::table::Row;

const US: f64 = 1_000.0;

/// The workload's outcome: one row per recorded class × priority cell
/// on the client node, plus every node's full report for JSON export.
pub struct LatencyReport {
    /// Table rows (latencies in µs).
    pub rows: Vec<Row>,
    /// Per-node structured reports, in node order.
    pub reports: Vec<StatsReport>,
}

impl LatencyReport {
    /// All per-node reports as one JSON array (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push(']');
        s
    }
}

/// Mixed workload over 3 nodes, observed entirely through `lt_stats()`.
pub fn latency(full: bool) -> LatencyReport {
    let (data_ops, rpc_ops, sync_ops) = if full {
        (2_000u64, 500usize, 100u64)
    } else {
        (200u64, 50usize, 10u64)
    };

    let cluster = LiteCluster::start(3).unwrap();
    let _echo = serve_echo(&cluster, 2, 1, 8);

    let mut hi = cluster.attach(0).unwrap();
    let mut lo = cluster.attach(0).unwrap();
    lo.set_priority(Priority::Low);
    let mut ctx = Ctx::new();
    let lh_hi = hi
        .lt_malloc(&mut ctx, 1, 1 << 20, "latency.hi", Perm::RW)
        .unwrap();
    let lh_lo = lo
        .lt_malloc(&mut ctx, 1, 1 << 20, "latency.lo", Perm::RW)
        .unwrap();
    let block = vec![0x42u8; 4096];
    let mut buf = vec![0u8; 4096];
    for i in 0..data_ops {
        let off = (i % 64) * 4096;
        hi.lt_write(&mut ctx, lh_hi, off, &block).unwrap();
        lo.lt_write(&mut ctx, lh_lo, off, &block).unwrap();
        hi.lt_read(&mut ctx, lh_hi, off, &mut buf).unwrap();
    }
    for _ in 0..rpc_ops {
        hi.lt_rpc(&mut ctx, 2, ECHO, b"observed", 64).unwrap();
    }
    let lock = hi.lt_create_lock(&mut ctx).unwrap();
    for _ in 0..sync_ops {
        hi.lt_lock(&mut ctx, lock).unwrap();
        hi.lt_unlock(&mut ctx, lock).unwrap();
        hi.lt_barrier(&mut ctx, 7, 1).unwrap();
    }

    let reports: Vec<StatsReport> = (0..cluster.num_nodes())
        .map(|n| cluster.kernel(n).lt_stats())
        .collect();
    let client = &reports[0];
    let mut rows = Vec::new();
    for class in [
        OpClass::Read,
        OpClass::Write,
        OpClass::Atomic,
        OpClass::Rpc,
        OpClass::Lock,
        OpClass::Barrier,
    ] {
        for prio in [Priority::High, Priority::Low] {
            let Some(lat) = client.class(class, prio) else {
                continue;
            };
            let label = format!(
                "{}.{}",
                class.name(),
                if prio == Priority::High {
                    "high"
                } else {
                    "low"
                }
            );
            rows.push(
                Row::new(label)
                    .cell("count", lat.count as f64)
                    .cell("p50_us", lat.p50 as f64 / US)
                    .cell("p90_us", lat.p90 as f64 / US)
                    .cell("p99_us", lat.p99 as f64 / US)
                    .cell("max_us", lat.p100 as f64 / US)
                    .cell("mean_us", lat.mean_ns / US),
            );
        }
    }
    LatencyReport { rows, reports }
}

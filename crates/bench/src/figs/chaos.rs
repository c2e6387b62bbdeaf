//! Chaos harness: the kernel recovery layer under seeded fault plans.
//!
//! Not a paper figure — a robustness report for the fault-injection
//! subsystem (DESIGN.md "Fault model & recovery"). Each scenario runs a
//! fixed workload under one deterministic [`FaultPlan`] and reports how
//! much work completed, how much the recovery layer had to do (retries,
//! QP re-establishments), and what leaked through (`failed`). The last
//! rows run the fault-tolerant MapReduce job with a worker crashing and
//! restarting mid-run.

use std::sync::Arc;
use std::time::Duration;

use lite::{LiteCluster, LiteConfig, Perm};
use rnic::{FaultPlan, FaultRule, IbConfig};
use simnet::Ctx;

use crate::table::Row;

fn cluster(nodes: usize, retry_enabled: bool) -> Arc<LiteCluster> {
    LiteCluster::start_with(
        IbConfig::with_nodes(nodes),
        LiteConfig {
            op_timeout: Duration::from_millis(300),
            retry_enabled,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Streams `ops` write+read pairs 0 → 1, tolerating per-op failures.
/// Returns (virtual ns, completed, failed).
fn raw_traffic(cluster: &Arc<LiteCluster>, ops: u64) -> (u64, u64, u64) {
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 16, "chaos.bench", Perm::RW)
        .unwrap();
    let (mut done, mut failed) = (0u64, 0u64);
    for i in 0..ops {
        let off = (i % 512) * 8;
        let mut buf = [0u8; 8];
        let ok = h.lt_write(&mut ctx, lh, off, &i.to_le_bytes()).is_ok()
            && h.lt_read(&mut ctx, lh, off, &mut buf).is_ok();
        if ok {
            done += 1;
        } else {
            failed += 1;
        }
    }
    (ctx.now(), done, failed)
}

/// One raw-traffic scenario under `plan`.
fn raw_row(label: &str, plan: Option<FaultPlan>, retry_enabled: bool, ops: u64) -> Row {
    let cluster = cluster(2, retry_enabled);
    if let Some(p) = plan {
        cluster.fabric().install_fault_plan(p);
    }
    let (virt_ns, done, failed) = raw_traffic(&cluster, ops);
    let stats: Vec<_> = (0..2).map(|n| cluster.kernel(n).stats()).collect();
    Row::new(label)
        .cell("completed", done as f64)
        .cell("failed", failed as f64)
        .cell(
            "retries",
            stats.iter().map(|s| s.retries).sum::<u64>() as f64,
        )
        .cell(
            "reconnects",
            stats.iter().map(|s| s.qp_reconnects).sum::<u64>() as f64,
        )
        .cell("virt_ms", virt_ns as f64 / 1e6)
}

/// One fault-tolerant MapReduce scenario under `plan` (4 nodes: master
/// plus 3 workers; plans may crash worker 2 but never node 0).
fn mr_row(label: &str, plan: Option<FaultPlan>, full: bool) -> Row {
    let cluster = cluster(4, true);
    if let Some(p) = plan {
        cluster.fabric().install_fault_plan(p);
    }
    let words = if full { 80_000 } else { 15_000 };
    let text = lite_mr::Text::generate(words, 300, 1.0, 29);
    let r = lite_mr::run_litemr_ft(&cluster, &text, 3, 2).unwrap();
    assert_eq!(
        r.counts,
        lite_mr::reference_counts(&text),
        "chaos must never corrupt results"
    );
    let stats: Vec<_> = (0..4).map(|n| cluster.kernel(n).stats()).collect();
    Row::new(label)
        .cell("completed", 1.0)
        .cell(
            "failed",
            stats.iter().map(|s| s.ops_failed).sum::<u64>() as f64,
        )
        .cell(
            "retries",
            stats.iter().map(|s| s.retries).sum::<u64>() as f64,
        )
        .cell(
            "reconnects",
            stats.iter().map(|s| s.qp_reconnects).sum::<u64>() as f64,
        )
        .cell("virt_ms", r.runtime_ns as f64 / 1e6)
}

/// The chaos report rows.
pub fn chaos(full: bool) -> Vec<Row> {
    let ops = if full { 2_000 } else { 400 };
    vec![
        raw_row("no faults", None, true, ops),
        raw_row(
            "2% drops",
            Some(FaultPlan::seeded(11).with(FaultRule::DropWr {
                src: None,
                dst: None,
                prob: 0.02,
                max_drops: u64::MAX,
            })),
            true,
            ops,
        ),
        raw_row(
            "qp break",
            Some(FaultPlan::seeded(12).with(FaultRule::BreakQp {
                src: 0,
                dst: 1,
                at_op: 40,
            })),
            true,
            ops,
        ),
        // The crash window is bridged inside the op deadline: the retry
        // loop itself advances the fault op counter to the restart.
        raw_row(
            "crash+restart",
            Some(FaultPlan::seeded(13).with(FaultRule::CrashNode {
                node: 1,
                at_op: 100,
                restart_after_ops: 200,
            })),
            true,
            ops,
        ),
        raw_row(
            "drops, no recovery",
            Some(FaultPlan::seeded(11).with(FaultRule::DropWr {
                src: None,
                dst: None,
                prob: 0.02,
                max_drops: u64::MAX,
            })),
            false,
            ops,
        ),
        mr_row("mapreduce, no faults", None, full),
        mr_row(
            "mapreduce, worker crash",
            Some(
                FaultPlan::seeded(14)
                    .with(FaultRule::DropWr {
                        src: None,
                        dst: None,
                        prob: 0.02,
                        max_drops: 200,
                    })
                    .with(FaultRule::CrashNode {
                        node: 2,
                        at_op: 200,
                        restart_after_ops: 400,
                    }),
            ),
            full,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_masks_faults_and_its_absence_shows() {
        let rows = chaos(false);
        let get = |label: &str, col: &str| -> f64 {
            rows.iter()
                .find(|r| r.label == label)
                .and_then(|r| r.get(col))
                .unwrap()
        };
        assert_eq!(get("no faults", "failed"), 0.0);
        assert_eq!(get("2% drops", "failed"), 0.0, "drops must be masked");
        assert!(get("2% drops", "retries") > 0.0);
        assert_eq!(get("qp break", "failed"), 0.0);
        assert!(get("qp break", "reconnects") >= 1.0);
        assert_eq!(get("crash+restart", "failed"), 0.0);
        assert!(
            get("drops, no recovery", "failed") > 0.0,
            "without recovery the same drops must surface"
        );
        assert_eq!(get("mapreduce, worker crash", "completed"), 1.0);
    }
}

//! Registration-cost benchmark (the Fig 8 sweep, eager vs pin-free):
//! `lt_malloc` virtual latency across LMR sizes in both registration
//! modes, plus a steady-state hot-working-set workload measuring the
//! datapath tax of lazy pinning once the working set has faulted in.
//!
//! Eager mode pays per-page pinning at registration (the paper's
//! malloc line: cost scales with size); lazy mode registers O(1) and
//! pays a one-time page-fault premium on first touch instead. The
//! smoke assertions live in `bin/regcost.rs`.

use lite::{LiteConfig, MmReport, Perm};
use rand::{Rng, SeedableRng};
use simnet::{Ctx, Summary};

use crate::env::LiteEnv;
use crate::table::Row;

const US: f64 = 1_000.0;
const MB: u64 = 1 << 20;

/// One LMR size measured in both modes.
pub struct RegPoint {
    /// LMR size, bytes.
    pub size_bytes: u64,
    /// Eager `lt_malloc` virtual latency, ns.
    pub eager_ns: u64,
    /// Lazy `lt_malloc` virtual latency, ns.
    pub lazy_ns: u64,
    /// Pages pinned right after the lazy registration (must be 0).
    pub lazy_pinned_pages: usize,
}

/// The steady-state comparison on a hot working set.
pub struct SteadyResult {
    /// Working-set bytes.
    pub working_set: u64,
    /// Mean op latency with eager registration, µs.
    pub eager_mean_us: f64,
    /// Mean op latency with lazy registration (after warm-up), µs.
    pub lazy_mean_us: f64,
    /// Mean latency of the lazy warm-up pass (pays the faults), µs.
    pub lazy_cold_mean_us: f64,
    /// `lazy_mean_us / eager_mean_us`.
    pub overhead: f64,
    /// Node-0 mm gauges at the end of the lazy run.
    pub lazy_mm: MmReport,
}

/// The benchmark's outcome: rows plus the JSON artifact inputs.
pub struct RegCostReport {
    /// Table rows (one per size, plus the steady-state row).
    pub rows: Vec<Row>,
    /// The registration sweep.
    pub sweep: Vec<RegPoint>,
    /// The steady-state comparison.
    pub steady: SteadyResult,
}

impl RegCostReport {
    /// The CI artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"sweep\":[");
        for (i, p) in self.sweep.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"size_bytes\":{},\"eager_ns\":{},\"lazy_ns\":{},\"lazy_pinned_pages\":{}}}",
                p.size_bytes, p.eager_ns, p.lazy_ns, p.lazy_pinned_pages
            ));
        }
        s.push_str(&format!(
            "],\"steady\":{{\"working_set\":{},\"eager_mean_us\":{:.3},\"lazy_mean_us\":{:.3},\"lazy_cold_mean_us\":{:.3},\"overhead\":{:.4},\"lazy_mm\":{}}}}}",
            self.steady.working_set,
            self.steady.eager_mean_us,
            self.steady.lazy_mean_us,
            self.steady.lazy_cold_mean_us,
            self.steady.overhead,
            self.steady.lazy_mm.json()
        ));
        s
    }
}

fn config(lazy: bool) -> LiteConfig {
    LiteConfig {
        lazy_pinning: lazy,
        ..LiteConfig::default()
    }
}

/// Virtual latency of one `lt_malloc` of `size` bytes, on a fresh
/// cluster so poller-clock history cannot leak between measurements.
/// Also returns node 0's pinned-page gauge right after the call.
fn measure_reg(lazy: bool, size: u64) -> (u64, usize) {
    let env = LiteEnv::with_config(2, config(lazy));
    let mut h = env.cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t0 = ctx.now();
    h.lt_malloc(&mut ctx, 0, size, "regcost", Perm::RW).unwrap();
    let lat = ctx.now() - t0;
    (lat, env.cluster.kernel(0).mm_stats().pinned_pages)
}

/// Runs the hot-working-set workload in one mode: a full warm-up pass
/// (sequential writes — in lazy mode this faults every page in), then
/// `ops` random 4 KB reads/writes over the warm set.
fn run_steady(lazy: bool, working_set: u64, ops: u64) -> (f64, f64, MmReport) {
    let env = LiteEnv::with_config(2, config(lazy));
    let mut h = env.cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, working_set, "regcost.steady", Perm::RW)
        .unwrap();
    let io = 4096usize;
    let block = vec![0x5Au8; io];
    let mut cold = Summary::new();
    for off in (0..working_set).step_by(io) {
        let t0 = ctx.now();
        h.lt_write(&mut ctx, lh, off, &block).unwrap();
        cold.record(ctx.now() - t0);
    }
    let mut rng = rand::rngs::SmallRng::seed_from_u64(88);
    let mut warm = Summary::new();
    let mut buf = vec![0u8; io];
    for i in 0..ops {
        let off = (rng.gen_range(0..working_set - io as u64) / 64) * 64;
        let t0 = ctx.now();
        if i % 2 == 0 {
            h.lt_write(&mut ctx, lh, off, &block).unwrap();
        } else {
            h.lt_read(&mut ctx, lh, off, &mut buf).unwrap();
        }
        warm.record(ctx.now() - t0);
    }
    (
        cold.mean() / US,
        warm.mean() / US,
        env.cluster.kernel(0).mm_stats(),
    )
}

/// The full benchmark: the registration sweep plus the steady-state
/// comparison. `full` widens the sweep to 4 GB and quadruples the ops.
pub fn regcost(full: bool) -> RegCostReport {
    let sizes: Vec<u64> = if full {
        vec![64 * MB, 256 * MB, 1024 * MB, 4096 * MB]
    } else {
        vec![16 * MB, 64 * MB, 256 * MB]
    };
    let ops = if full { 2_000 } else { 500 };
    let working_set = MB;

    let sweep: Vec<RegPoint> = sizes
        .iter()
        .map(|&size| {
            let (eager_ns, _) = measure_reg(false, size);
            let (lazy_ns, lazy_pinned_pages) = measure_reg(true, size);
            RegPoint {
                size_bytes: size,
                eager_ns,
                lazy_ns,
                lazy_pinned_pages,
            }
        })
        .collect();

    let (_, eager_mean_us, _) = run_steady(false, working_set, ops);
    let (lazy_cold_mean_us, lazy_mean_us, lazy_mm) = run_steady(true, working_set, ops);
    let steady = SteadyResult {
        working_set,
        eager_mean_us,
        lazy_mean_us,
        lazy_cold_mean_us,
        overhead: lazy_mean_us / eager_mean_us,
        lazy_mm,
    };

    let mut rows: Vec<Row> = sweep
        .iter()
        .map(|p| {
            Row::new(format!("{} MB", p.size_bytes / MB))
                .cell("eager_us", p.eager_ns as f64 / US)
                .cell("lazy_us", p.lazy_ns as f64 / US)
                .cell("speedup", p.eager_ns as f64 / p.lazy_ns.max(1) as f64)
                .cell("lazy_pinned", p.lazy_pinned_pages as f64)
        })
        .collect();
    rows.push(
        Row::new("steady 1MB hot".to_string())
            .cell("eager_us", steady.eager_mean_us)
            .cell("lazy_us", steady.lazy_mean_us)
            .cell("speedup", 1.0 / steady.overhead.max(1e-9))
            .cell("lazy_pinned", steady.lazy_mm.pinned_pages as f64),
    );
    RegCostReport {
        rows,
        sweep,
        steady,
    }
}

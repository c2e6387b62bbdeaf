//! Registration-cost benchmark (the Fig 8 sweep, eager vs pin-free):
//! `lt_malloc` virtual latency across LMR sizes in both registration
//! modes, plus a steady-state hot-working-set workload measuring the
//! datapath tax of lazy pinning once the working set has faulted in.
//!
//! Eager mode pays per-page pinning at registration (the paper's
//! malloc line: cost scales with size); lazy mode registers O(1) and
//! pays a one-time page-fault premium on first touch instead. The
//! figure's gates state that on its rows (see [`regcost`]).

use lite::{LiteConfig, MmReport, Perm};
use rand::{Rng, SeedableRng};
use simnet::{Ctx, Summary};

use crate::env::LiteEnv;
use crate::table::Row;

const US: f64 = 1_000.0;
const MB: u64 = 1 << 20;

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
/// `ops` random 4 KB reads/writes over the warm set. Returns their mean
/// latency in µs and node 0's mm gauges.
fn run_steady(lazy: bool, working_set: u64, ops: u64) -> (f64, MmReport) {
    let env = LiteEnv::with_config(2, config(lazy));
    let mut h = env.cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, working_set, "regcost.steady", Perm::RW)
        .unwrap();
    let io = 4096usize;
    let block = vec![0x5Au8; io];
    for off in (0..working_set).step_by(io) {
        h.lt_write(&mut ctx, lh, off, &block).unwrap();
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
    (warm.mean() / US, env.cluster.kernel(0).mm_stats())
}

/// The full benchmark: the registration sweep plus the steady-state
/// comparison. `full` widens the sweep to 4 GB and quadruples the ops.
///
/// Gates: lazy registration is flat across sizes (max < 2x min) and
/// pins nothing up front; eager registration scales with size (the
/// largest > a quarter of the size ratio times the smallest) and is
/// over 10x lazy at the largest; on the hot set lazy costs at most 10 %
/// over eager, and its warm-up took first-touch faults.
pub fn regcost(full: bool) -> Vec<Row> {
    let sizes: Vec<u64> = if full {
        vec![64 * MB, 256 * MB, 1024 * MB, 4096 * MB]
    } else {
        vec![16 * MB, 64 * MB, 256 * MB]
    };
    let ops = if full { 2_000 } else { 500 };
    let working_set = MB;

    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for &size in &sizes {
        let (eager_ns, _) = measure_reg(false, size);
        let (lazy_ns, lazy_pinned) = measure_reg(true, size);
        assert_eq!(
            lazy_pinned,
            0,
            "lazy registration of {} MB pinned pages up front",
            size / MB
        );
        rows.push(
            Row::new(format!("{} MB", size / MB))
                .cell("eager_us", eager_ns as f64 / US)
                .cell("lazy_us", lazy_ns as f64 / US)
                .cell("speedup", eager_ns as f64 / lazy_ns.max(1) as f64)
                .cell("lazy_pinned", lazy_pinned as f64),
        );
        sweep.push((size, eager_ns, lazy_ns));
    }
    let lazy_min = sweep.iter().map(|p| p.2).min().unwrap().max(1);
    let lazy_max = sweep.iter().map(|p| p.2).max().unwrap();
    assert!(
        lazy_max < 2 * lazy_min,
        "lazy registration latency must be flat across sizes: min={lazy_min}ns max={lazy_max}ns"
    );
    let ((first_size, first_eager, _), (last_size, last_eager, last_lazy)) =
        (sweep[0], sweep[sweep.len() - 1]);
    let size_ratio = last_size / first_size;
    assert!(
        last_eager > (size_ratio / 4) * first_eager,
        "eager registration should scale ~linearly with pages: \
         {}MB={first_eager}ns {}MB={last_eager}ns (size ratio {size_ratio}x)",
        first_size / MB,
        last_size / MB,
    );
    assert!(
        last_eager > 10 * last_lazy,
        "eager should dwarf lazy at {} MB: eager={last_eager}ns lazy={last_lazy}ns",
        last_size / MB,
    );

    let (eager_mean_us, _) = run_steady(false, working_set, ops);
    let (lazy_mean_us, lazy_mm) = run_steady(true, working_set, ops);
    let overhead = lazy_mean_us / eager_mean_us;
    assert!(
        overhead <= 1.10,
        "lazy steady-state tax over eager exceeds 10%: {:.2}% \
         (eager {eager_mean_us:.3}us, lazy {lazy_mean_us:.3}us)",
        (overhead - 1.0) * 100.0,
    );
    assert!(
        lazy_mm.first_touch_faults > 0,
        "lazy run never faulted — warm-up did not exercise the lazy path"
    );
    rows.push(
        Row::new("steady 1MB hot")
            .cell("eager_us", eager_mean_us)
            .cell("lazy_us", lazy_mean_us)
            .cell("speedup", 1.0 / overhead.max(1e-9))
            .cell("lazy_pinned", lazy_mm.pinned_pages as f64),
    );
    rows
}

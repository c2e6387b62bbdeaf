//! Memory-tiering pressure benchmark (`lite::mm`): a seeded random
//! read/write workload over a working set of two LMRs, run twice — once
//! with no budget (tiering off) and once with a per-node budget at 50 %
//! of the working set. The first LMR is written in full within the
//! budget; allocating the second takes the node over it, and that
//! `lt_malloc` evicts the first (the coldest) before it returns, so what
//! tiering moves is written data. Every read is checked against a
//! shadow buffer, so the report carries a hard verify-failure count
//! alongside the latency and the kernel's own tiering gauges.

use lite::{LiteConfig, MmReport, Perm};
use rand::{Rng, SeedableRng};
use simnet::{Ctx, Summary};

use crate::env::LiteEnv;
use crate::table::Row;

const US: f64 = 1_000.0;

/// Runs the seeded workload once with `budget` bytes per node. Returns
/// its row, and whether any node had tiering enabled.
fn run_case(label: &str, working_set: u64, budget: u64, ops: u64) -> (Row, bool) {
    let config = LiteConfig {
        mem_budget_bytes: budget,
        max_lmr_chunk: 16 * 1024,
        ..LiteConfig::default()
    };
    let env = LiteEnv::with_config(3, config);
    let mut h = env.cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let io = 4096usize;
    let half = working_set / 2;
    let mut shadow: Vec<u8> = (0..working_set).map(|j| (j % 251) as u8).collect();
    // Both halves are mastered and stored on node 0: exactly the memory
    // the budget governs. Each is written in full right after its
    // `lt_malloc`, so the second one's evictions move written bytes.
    let mut lhs = Vec::new();
    for (n, part) in shadow.chunks(half as usize).enumerate() {
        let lh = h
            .lt_malloc(&mut ctx, 0, half, &format!("mempressure.{n}"), Perm::RW)
            .unwrap();
        for (i, block) in part.chunks(io).enumerate() {
            h.lt_write(&mut ctx, lh, (i * io) as u64, block)
                .expect("filling the working set");
        }
        lhs.push(lh);
    }

    let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
    let mut s = Summary::new();
    let mut done = 0u64;
    let mut failures = 0u64;
    for i in 0..ops {
        let n = rng.gen_range(0..lhs.len());
        let off = (rng.gen_range(0..half - io as u64) / 64) * 64;
        let at = (n as u64 * half + off) as usize;
        let t0 = ctx.now();
        if i % 2 == 0 {
            let block: Vec<u8> = (0..io).map(|j| (i as u8).wrapping_add(j as u8)).collect();
            if h.lt_write(&mut ctx, lhs[n], off, &block).is_ok() {
                shadow[at..at + io].copy_from_slice(&block);
                done += 1;
            }
        } else {
            let mut buf = vec![0u8; io];
            if h.lt_read(&mut ctx, lhs[n], off, &mut buf).is_ok() {
                done += 1;
                if buf != shadow[at..at + io] {
                    failures += 1;
                }
            }
        }
        s.record(ctx.now() - t0);
    }
    // Final full read of the shadow: every byte, wherever its chunk
    // migrated to, must read back exactly.
    let mut buf = vec![0u8; working_set as usize];
    for (part, &lh) in buf.chunks_mut(half as usize).zip(&lhs) {
        for (i, slice) in part.chunks_mut(io).enumerate() {
            if h.lt_read(&mut ctx, lh, (i * io) as u64, slice).is_err() {
                failures += 1;
            }
        }
    }
    if buf != shadow {
        failures += 1;
    }
    let mm: Vec<MmReport> = (0..3).map(|n| env.cluster.kernel(n).mm_stats()).collect();
    let sum = |f: fn(&MmReport) -> u64| mm.iter().map(f).sum::<u64>() as f64;
    let row = Row::new(label)
        .cell("mean_us", s.mean() / US)
        .cell("ops", done as f64)
        .cell("verify_fail", failures as f64)
        .cell("evictions", sum(|m| m.evictions))
        .cell("fetch_backs", sum(|m| m.fetch_backs))
        .cell("redirects", sum(|m| m.redirects));
    (row, mm.iter().any(|m| m.enabled))
}

/// Unlimited vs budget-at-50 %: the tiering tax under pressure, and
/// the zero-eviction ablation when the budget is off.
///
/// Gates: neither run reads a byte wrong; the unlimited run leaves
/// tiering disabled and migrates nothing; the budgeted run evicts and
/// completes as many ops as the unlimited one.
pub fn mempressure(full: bool) -> Vec<Row> {
    let (working_set, ops) = if full {
        (1u64 << 20, 4_000u64)
    } else {
        (256u64 << 10, 800u64)
    };
    let (unlimited, tiering_on) = run_case("unlimited", working_set, 0, ops);
    let (budgeted, _) = run_case("budget-50%", working_set, working_set / 2, ops);
    let u = |c: &str| unlimited.get(c).unwrap();
    let b = |c: &str| budgeted.get(c).unwrap();
    assert_eq!(u("verify_fail"), 0.0, "corruption with tiering OFF");
    assert_eq!(
        u("evictions") + u("fetch_backs"),
        0.0,
        "unlimited budget must never migrate (ablation)"
    );
    assert!(!tiering_on, "budget 0 must leave tiering disabled");
    assert_eq!(b("verify_fail"), 0.0, "corruption under eviction");
    assert!(b("evictions") > 0.0, "budgeted run never evicted");
    assert_eq!(b("ops"), u("ops"), "budgeted run lost forward progress");
    vec![unlimited, budgeted]
}

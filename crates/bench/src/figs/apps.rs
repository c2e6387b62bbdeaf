//! Application results: Figures 18 and 19, plus the in-text numbers for
//! LITE-Log (§8.1), the DSM microbenchmarks (§8.4), and the lock
//! latency (§7.2).

use std::sync::Arc;

use lite_log::LiteLog;
use lite_mr::{run_hadoop, run_litemr, run_phoenix, Text};
use simnet::{Ctx, Summary};

use crate::drive::drive;
use crate::env::LiteEnv;
use crate::table::Row;

const US: f64 = 1_000.0;

/// Figure 18: WordCount run time — Phoenix (1 node), LITE-MR and
/// Hadoop (2, 4, 8 worker nodes), equal total threads (16).
pub fn fig18(full: bool) -> Vec<Row> {
    let words = if full { 2_000_000 } else { 200_000 };
    let text = Text::generate(words, 50_000.min(words / 4), 1.0, 18);
    let mut rows = Vec::new();

    let p = run_phoenix(&text, 16);
    rows.push(
        Row::new("Phoenix")
            .cell("runtime_s", p.runtime_ns as f64 / 1e9)
            .cell("map_s", p.phases[0] as f64 / 1e9)
            .cell("reduce_s", p.phases[1] as f64 / 1e9)
            .cell("merge_s", p.phases[2] as f64 / 1e9),
    );
    for nodes in [2usize, 4, 8] {
        let lenv = LiteEnv::new(nodes + 1);
        let l = run_litemr(&lenv.cluster, &text, nodes, 16 / nodes).unwrap();
        assert_eq!(l.counts, p.counts, "LITE-MR counts diverge from Phoenix");
        rows.push(
            Row::new(format!("LITE-MR-{nodes}"))
                .cell("runtime_s", l.runtime_ns as f64 / 1e9)
                .cell("map_s", l.phases[0] as f64 / 1e9)
                .cell("reduce_s", l.phases[1] as f64 / 1e9)
                .cell("merge_s", l.phases[2] as f64 / 1e9),
        );
        let h = run_hadoop(&text, nodes, 16 / nodes);
        assert_eq!(h.counts, p.counts, "Hadoop counts diverge from Phoenix");
        rows.push(
            Row::new(format!("Hadoop-{nodes}"))
                .cell("runtime_s", h.runtime_ns as f64 / 1e9)
                .cell("map_s", h.phases[0] as f64 / 1e9)
                .cell("reduce_s", h.phases[1] as f64 / 1e9)
                .cell("merge_s", h.phases[2] as f64 / 1e9),
        );
    }
    rows
}

/// Figure 19: PageRank run time on 4 and 7 engine nodes × 4 threads:
/// LITE-Graph, LITE-Graph-DSM, Grappa-like, PowerGraph/IPoIB.
pub fn fig19(full: bool) -> Vec<Row> {
    let (v, e) = if full {
        (120_000, 1_200_000)
    } else {
        (24_000, 200_000)
    };
    let g = lite_graph::Graph::power_law(v, e, 0.9, 19);
    let cfg = lite_graph::PagerankConfig {
        max_iters: if full { 10 } else { 6 },
    };
    let reference = lite_graph::run_reference(&g, &cfg);
    let mut rows = Vec::new();
    for nodes in [4usize, 7] {
        let lenv = LiteEnv::new(nodes);
        let lite_r = lite_graph::run_lite(&lenv.cluster, &g, nodes, 4, &cfg).unwrap();
        let denv = LiteEnv::new(nodes);
        let dsm_r = lite_graph::run_dsm(&denv.cluster, &g, nodes, 4, &cfg).unwrap();
        let grappa_r = lite_graph::run_grappa(&g, nodes, 4, &cfg);
        let tcp_r = lite_graph::run_powergraph_tcp(&g, nodes, 4, &cfg);
        for r in [&lite_r, &dsm_r, &grappa_r, &tcp_r] {
            for (a, b) in r.ranks.iter().zip(&reference.ranks) {
                assert!((a - b).abs() < 1e-9, "rank divergence");
            }
        }
        rows.push(
            Row::new(format!("{nodes}node"))
                .cell("lite_graph_s", lite_r.runtime_ns as f64 / 1e9)
                .cell("lite_graph_dsm_s", dsm_r.runtime_ns as f64 / 1e9)
                .cell("grappa_s", grappa_r.runtime_ns as f64 / 1e9)
                .cell("powergraph_s", tcp_r.runtime_ns as f64 / 1e9),
        );
    }
    rows
}

/// §8.1 in-text: LITE-Log commit throughput — writers on N nodes
/// committing 16 B single-entry transactions.
pub fn app_log(full: bool) -> Vec<Row> {
    let commits = if full { 5_000 } else { 1_000 };
    let mut rows = Vec::new();
    for writers in [1usize, 2, 4] {
        let lenv = LiteEnv::new(writers.max(2) + 1);
        let home = writers.max(2);
        {
            let mut h = lenv.cluster.attach(0).unwrap();
            let mut c = Ctx::new();
            LiteLog::create(&mut h, &mut c, home, "alog", 64 << 20).unwrap();
        }
        let mut logs: Vec<_> = (0..writers)
            .map(|w| {
                let mut h = lenv.cluster.attach(w).unwrap();
                let mut ctx = Ctx::new();
                let log = LiteLog::open(&mut h, &mut ctx, "alog", 64 << 20).unwrap();
                (ctx, (h, log, 0))
            })
            .collect();
        let entry = [0xBBu8; 16];
        let makespan = drive(
            &mut logs,
            |_, (.., i)| (*i < commits).then_some(0),
            |ctx, (h, log, i)| {
                log.commit(h, ctx, &[&entry]).unwrap();
                *i += 1;
            },
        );
        let rate = (writers * commits) as f64 * 1e9 / makespan as f64;
        rows.push(Row::new(format!("{writers}w")).cell("commits_per_s", rate));
    }
    rows
}

/// §8.4 in-text: DSM microbenchmarks — 4 KB random/sequential reads and
/// acquire/release of 10 dirty pages.
pub fn app_dsm(full: bool) -> Vec<Row> {
    use lite_dsm::{DsmCluster, PAGE};
    use rand::{Rng, SeedableRng};
    let ops = if full { 400 } else { 100 };
    let lenv = LiteEnv::new(4);
    let dsm = DsmCluster::create(&lenv.cluster, 32 << 20).unwrap();
    let mut h = dsm.handle(0).unwrap();
    let mut ctx = Ctx::new();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(84);
    let pages = (32 << 20) / PAGE as u64;

    // Random uncached 4 KB reads (each hits a fresh page: fault path).
    let mut rand_read = Summary::new();
    let mut visited = std::collections::HashSet::new();
    for _ in 0..ops {
        let mut p = rng.gen_range(0..pages);
        while !visited.insert(p) {
            p = rng.gen_range(0..pages);
        }
        let mut buf = vec![0u8; PAGE];
        let t0 = ctx.now();
        h.read(&mut ctx, p * PAGE as u64, &mut buf).unwrap();
        rand_read.record(ctx.now() - t0);
    }
    // Sequential reads (batched faults amortize).
    let mut seq_read = Summary::new();
    let base = (pages / 2) * PAGE as u64;
    for i in 0..ops as u64 {
        let mut buf = vec![0u8; PAGE];
        let t0 = ctx.now();
        h.read(&mut ctx, base + i * PAGE as u64, &mut buf).unwrap();
        seq_read.record(ctx.now() - t0);
    }
    // Cached re-reads.
    let mut cached_read = Summary::new();
    for i in 0..ops as u64 {
        let mut buf = vec![0u8; PAGE];
        let t0 = ctx.now();
        h.read(&mut ctx, base + i * PAGE as u64, &mut buf).unwrap();
        cached_read.record(ctx.now() - t0);
    }
    // Acquire ("begin") and flush+release ("commit") of 10 dirty pages.
    let (mut begin, mut commit) = (Summary::new(), Summary::new());
    for i in 0..ops as u64 {
        let addr = ((i * 16) % (pages - 16)) * PAGE as u64;
        let t0 = ctx.now();
        h.acquire(&mut ctx, addr, 10 * PAGE).unwrap();
        begin.record(ctx.now() - t0);
        h.write(&mut ctx, addr, &vec![i as u8; 10 * PAGE]).unwrap();
        let t1 = ctx.now();
        h.release(&mut ctx).unwrap();
        commit.record(ctx.now() - t1);
    }
    vec![
        Row::new("4KB_read")
            .cell("random_us", rand_read.mean() / US)
            .cell("sequential_us", seq_read.mean() / US)
            .cell("cached_us", cached_read.mean() / US),
        Row::new("10pages")
            .cell("begin_us", begin.mean() / US)
            .cell("commit_us", commit.mean() / US),
    ]
}

/// §7.2 in-text: lock latency, uncontended and under contention.
pub fn sync_bench(full: bool) -> Vec<Row> {
    let iters = if full { 500 } else { 150 };
    let mut rows = Vec::new();

    // Uncontended acquire+release from a remote node.
    let lenv = LiteEnv::new(2);
    let mut owner = lenv.cluster.attach(0).unwrap();
    let mut octx = Ctx::new();
    let lock = owner.lt_create_lock(&mut octx).unwrap();
    let mut h = lenv.cluster.attach(1).unwrap();
    let mut ctx = Ctx::new();
    let (mut acq, mut rel) = (Summary::new(), Summary::new());
    for _ in 0..iters {
        let t0 = ctx.now();
        h.lt_lock(&mut ctx, lock).unwrap();
        acq.record(ctx.now() - t0);
        let t1 = ctx.now();
        h.lt_unlock(&mut ctx, lock).unwrap();
        rel.record(ctx.now() - t1);
    }
    rows.push(
        Row::new("uncontended")
            .cell("lock_us", acq.mean() / US)
            .cell("unlock_us", rel.mean() / US),
    );

    // Contended: N threads across nodes hammer one lock; report average
    // time per critical section.
    for contenders in [2usize, 4, 8] {
        let lenv = LiteEnv::new(4);
        let mut owner = lenv.cluster.attach(0).unwrap();
        let mut octx = Ctx::new();
        let lock = owner.lt_create_lock(&mut octx).unwrap();
        let per = iters / 2;
        let mut handles = Vec::new();
        for c in 0..contenders {
            let cluster = Arc::clone(&lenv.cluster);
            handles.push(std::thread::spawn(move || {
                let mut h = cluster.attach(c % 4).unwrap();
                let mut ctx = Ctx::new();
                for _ in 0..per {
                    h.lt_lock(&mut ctx, lock).unwrap();
                    ctx.work(500); // tiny critical section
                    h.lt_unlock(&mut ctx, lock).unwrap();
                }
                ctx.now()
            }));
        }
        let makespan = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .max()
            .unwrap();
        let per_cs = makespan as f64 / (contenders * per) as f64;
        rows.push(Row::new(format!("{contenders}threads")).cell("per_cs_us", per_cs / US));
    }

    // Barrier latency by participant count.
    for n in [2usize, 4, 8] {
        let lenv = LiteEnv::new(n);
        let mut handles = Vec::new();
        for node in 0..n {
            let cluster = Arc::clone(&lenv.cluster);
            handles.push(std::thread::spawn(move || {
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                let t0 = ctx.now();
                for i in 0..20u64 {
                    h.lt_barrier(&mut ctx, 900 + i, n as u32).unwrap();
                }
                (ctx.now() - t0) / 20
            }));
        }
        let avg: u64 = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .max()
            .unwrap();
        rows.push(Row::new(format!("barrier{n}")).cell("per_round_us", avg as f64 / US));
    }
    rows
}

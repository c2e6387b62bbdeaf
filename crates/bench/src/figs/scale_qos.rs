//! Scalability and QoS: Figures 14, 15, 16.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lite::{LiteCluster, LiteHandle, Perm, Priority, QosMode};
use lite_log::LiteLog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{Ctx, Nanos, TimeSeries, MILLIS, SECONDS};

use crate::drive::drive;
use crate::env::LiteEnv;
use crate::figs::rpc::{lite_server, ECHO};
use crate::table::Row;

/// Figure 14: LT_write and LT_RPC throughput vs cluster size (8 threads
/// per node, 64 B ops to random peers).
pub fn fig14(full: bool) -> Vec<Row> {
    let sizes: &[usize] = &[2, 4, 6, 8];
    let ops = if full { 600 } else { 200 };
    let threads = 8usize;
    let mut rows = Vec::new();
    for &nodes in sizes {
        // ---- LT_write. ----
        let lenv = LiteEnv::new(nodes);
        for n in 0..nodes {
            let mut h = lenv.cluster.attach(n).unwrap();
            let mut c = Ctx::new();
            h.lt_malloc(&mut c, n, 1 << 20, &format!("f14.{n}"), Perm::RW)
                .unwrap();
        }
        let mut writers = Vec::new();
        for node in 0..nodes {
            for t in 0..threads {
                let mut h = lenv.cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                let lhs: Vec<u64> = (0..nodes)
                    .map(|n| h.lt_map(&mut ctx, &format!("f14.{n}")).unwrap())
                    .collect();
                let rng = SmallRng::seed_from_u64((node * 8 + t) as u64);
                writers.push((ctx, (h, lhs, t, rng, 0)));
            }
        }
        let makespan = drive(
            &mut writers,
            |_, (.., i)| (*i < ops).then_some(0),
            |ctx, (h, lhs, t, rng, i)| {
                let peer = rng.gen_range(0..nodes);
                h.lt_write(ctx, lhs[peer], (*t * 64) as u64, &[5u8; 64])
                    .unwrap();
                *i += 1;
            },
        );
        let write_tput = (nodes * threads * ops) as f64 / (makespan as f64 / 1000.0);

        // ---- LT_RPC: every node also runs 8 echo servers, which
        // share the calls the clients' seeded peer choices send there. ----
        let lenv = LiteEnv::new(nodes);
        let mut calls = vec![0; nodes];
        let mut clients = Vec::new();
        for node in 0..nodes {
            for t in 0..threads {
                let mut rng = SmallRng::seed_from_u64(100 + (node * 8 + t) as u64);
                let peers: Vec<usize> = (0..ops)
                    .map(|_| (node + rng.gen_range(1..nodes)) % nodes)
                    .collect();
                for &p in &peers {
                    calls[p] += 1;
                }
                clients.push((Ctx::new(), (lenv.cluster.attach(node).unwrap(), peers, 0)));
            }
        }
        let mut servers = Vec::new();
        for (node, &n) in calls.iter().enumerate() {
            lenv.cluster
                .attach(node)
                .unwrap()
                .register_rpc(ECHO)
                .unwrap();
            for s in 0..threads {
                let share = n / threads + usize::from(s < n % threads);
                servers.push(lite_server(&lenv.cluster, node, share, 8));
            }
        }
        let makespan = drive(
            &mut clients,
            |_, (_, peers, i)| (*i < peers.len()).then_some(0),
            |ctx, (h, peers, i)| {
                h.lt_rpc(ctx, peers[*i], ECHO, &[2u8; 64], 256).unwrap();
                *i += 1;
            },
        );
        for s in servers {
            s.join().unwrap();
        }
        let rpc_tput = (nodes * threads * ops) as f64 / (makespan as f64 / 1000.0);

        rows.push(
            Row::new(nodes.to_string())
                .cell("write_per_us", write_tput)
                .cell("rpc_per_us", rpc_tput),
        );
    }
    rows
}

/// A background low-priority writer on node 0 with the LMR `bg` mapped.
fn bg_writer(cluster: &LiteCluster) -> (Ctx, LiteHandle, u64) {
    let mut h = cluster.attach(0).unwrap();
    h.set_priority(Priority::Low);
    let mut ctx = Ctx::new();
    let lh = h.lt_map(&mut ctx, "bg").unwrap();
    (ctx, h, lh)
}

/// `n` background writers as threads, flooding 64 KB writes until `stop`.
fn background_writers(
    cluster: &LiteCluster,
    n: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let (mut ctx, mut h, lh) = bg_writer(cluster);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let buf = vec![0u8; 64 * 1024];
                while !stop.load(Ordering::Acquire) {
                    h.lt_write(&mut ctx, lh, (i * 65_536) as u64, &buf).unwrap();
                }
            })
        })
        .collect()
}

/// Figure 15: real applications (LITE-Log commits/s and LITE-Graph
/// iteration rate) at high priority with low-priority background
/// writers, under the three QoS modes. Values normalized to the
/// no-background baseline.
pub fn fig15(full: bool) -> Vec<Row> {
    let commits = if full { 3_000 } else { 800 };
    let modes: &[(&str, Option<QosMode>)] = &[
        ("no_bg", None),
        ("sw_pri", Some(QosMode::SwPri)),
        ("hw_sep", Some(QosMode::HwSep)),
        ("no_qos", Some(QosMode::None)),
    ];
    // ---- LITE-Log under each mode. ----
    let mut log_rate = Vec::new();
    for &(_, mode) in modes {
        let lenv = LiteEnv::new(3);
        {
            let mut h = lenv.cluster.attach(0).unwrap();
            let mut c = Ctx::new();
            h.lt_malloc(&mut c, 2, 8 << 20, "bg", Perm::RW).unwrap();
        }
        if let Some(m) = mode {
            lenv.cluster.set_qos_mode(m);
        }
        let mut h = lenv.cluster.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 2, "f15log", 32 << 20).unwrap();
        // Context 0 commits; with a QoS mode, four 64 KB background
        // writers ride along until it is done.
        let mut contexts = vec![(ctx, (h, None))];
        for i in 0..if mode.is_some() { 4 } else { 0 } {
            let (ctx, h, lh) = bg_writer(&lenv.cluster);
            contexts.push((ctx, (h, Some((lh, (i * 65_536) as u64)))));
        }
        // The loop's common start: the latest clock.
        let start = contexts.iter().map(|(c, _)| c.now()).max().unwrap();
        let committed = Cell::new(0);
        let entry = [0xAAu8; 16];
        let bg = vec![0u8; 64 * 1024];
        drive(
            &mut contexts,
            |_, _| (committed.get() < commits).then_some(0),
            |ctx, (h, writes)| match writes {
                Some((lh, off)) => h.lt_write(ctx, *lh, *off, &bg).unwrap(),
                None => {
                    log.commit(h, ctx, &[&entry]).unwrap();
                    committed.set(committed.get() + 1);
                }
            },
        );
        let elapsed = contexts[0].0.now() - start;
        log_rate.push(commits as f64 * 1e9 / elapsed as f64);
    }

    // ---- LITE-Graph under each mode. ----
    let g = lite_graph::Graph::power_law(4_000, 40_000, 0.9, 15);
    let cfg = lite_graph::PagerankConfig {
        max_iters: if full { 6 } else { 4 },
    };
    let mut graph_rate = Vec::new();
    for &(_, mode) in modes {
        let lenv = LiteEnv::new(3);
        {
            let mut h = lenv.cluster.attach(0).unwrap();
            let mut c = Ctx::new();
            h.lt_malloc(&mut c, 2, 8 << 20, "bg", Perm::RW).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut bg = Vec::new();
        if let Some(m) = mode {
            lenv.cluster.set_qos_mode(m);
            bg = background_writers(&lenv.cluster, 4, &stop);
        }
        let r = lite_graph::run_lite(&lenv.cluster, &g, 3, 4, &cfg).unwrap();
        stop.store(true, Ordering::Release);
        for b in bg {
            b.join().unwrap();
        }
        graph_rate.push(1e9 / r.runtime_ns as f64);
    }

    // Normalize to the no-background baseline.
    modes
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            Row::new(*name)
                .cell("lite_log", log_rate[i] / log_rate[0])
                .cell("lite_graph", graph_rate[i] / graph_rate[0])
        })
        .collect()
}

/// One Fig 16 worker: its handle, the LMRs it targets, its priority, the
/// `(start, end)` bursts it runs an op in, and what it moved when.
struct QosWorker {
    h: LiteHandle,
    lhs: Vec<u64>,
    high: bool,
    bursts: Vec<(Nanos, Nanos)>,
    rng: SmallRng,
    ts: TimeSeries,
    ops: usize,
}

/// Figure 16: QoS timeline under the synthetic §6.2 schedule, driven by
/// virtual deadlines so quick mode compresses time rather than load:
/// 20 low-priority workers run from 0 to 4.5T; 20 high-priority workers
/// join at T and run to 2.2T; 8 of them sleep until 3.2T and run again to
/// 4T. Returns one row per bucket (T/20): total and high GB/s per mode.
pub fn fig16(full: bool) -> Vec<Row> {
    let t_unit = if full { SECONDS } else { 300 * MILLIS };
    let bucket = t_unit / 20;
    let modes = [
        ("no_qos", QosMode::None),
        ("hw_sep", QosMode::HwSep),
        ("sw_pri", QosMode::SwPri),
    ];
    let mut series: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for (name, mode) in modes {
        let lenv = LiteEnv::new(5);
        lenv.cluster.set_qos_mode(mode);
        {
            let mut h = lenv.cluster.attach(0).unwrap();
            let mut c = Ctx::new();
            for n in 0..5 {
                h.lt_malloc(&mut c, n, 8 << 20, &format!("bg{n}"), Perm::RW)
                    .unwrap();
            }
        }
        let mut workers = Vec::new();
        for w in 0..40 {
            // Spread senders over all 5 nodes; targets exclude the
            // local node so every op crosses the fabric.
            let me = w % 5;
            let mut h = lenv.cluster.attach(me).unwrap();
            let high = w >= 20;
            h.set_priority(if high { Priority::High } else { Priority::Low });
            let mut ctx = Ctx::new();
            let lhs = (0..5)
                .filter(|&n| n != me)
                .map(|n| h.lt_map(&mut ctx, &format!("bg{n}")).unwrap())
                .collect();
            let bursts = match w {
                0..20 => vec![(0, t_unit * 45 / 10)],
                // 8 of the 20 high sleep, then run a second burst.
                20..28 => vec![(t_unit, t_unit * 22 / 10), (t_unit * 32 / 10, t_unit * 4)],
                _ => vec![(t_unit, t_unit * 22 / 10)],
            };
            let rng = SmallRng::seed_from_u64(w as u64);
            let ts = TimeSeries::new(bucket);
            workers.push((
                ctx,
                QosWorker {
                    h,
                    lhs,
                    high,
                    bursts,
                    rng,
                    ts,
                    ops: 0,
                },
            ));
        }
        let buf = vec![1u8; 8192];
        let mut read = vec![0u8; 8192];
        drive(
            &mut workers,
            // An op starts while the clock is inside a burst.
            |ctx, w| {
                let mut left = w.bursts.iter().filter(|&&(_, end)| ctx.now() < end);
                left.next().map(|&(start, _)| start)
            },
            |ctx, w| {
                let size = if !w.high && w.rng.gen_bool(0.5) {
                    8192
                } else {
                    4096
                };
                let lh = w.lhs[w.ops % w.lhs.len()];
                w.ops += 1;
                if w.rng.gen_bool(0.5) {
                    w.h.lt_read(ctx, lh, 0, &mut read[..size]).unwrap();
                } else {
                    w.h.lt_write(ctx, lh, 0, &buf[..size]).unwrap();
                }
                w.ts.record(ctx.now(), size as u64);
            },
        );
        let mut total = TimeSeries::new(bucket);
        let mut high = TimeSeries::new(bucket);
        for (_, w) in &workers {
            total.merge(&w.ts);
            if w.high {
                high.merge(&w.ts);
            }
        }
        series.push((
            name.to_string(),
            total.rates_per_sec().iter().map(|b| b / 1e9).collect(),
            high.rates_per_sec().iter().map(|b| b / 1e9).collect(),
        ));
    }
    // Rows: one per bucket, columns per mode.
    let buckets = series.iter().map(|(_, t, _)| t.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for b in 0..buckets {
        let mut row = Row::new(format!("{:.2}T", b as f64 / 20.0));
        for (name, total, high) in &series {
            row = row
                .cell(
                    format!("{name}_total"),
                    total.get(b).copied().unwrap_or(0.0),
                )
                .cell(format!("{name}_high"), high.get(b).copied().unwrap_or(0.0));
        }
        rows.push(row);
    }
    rows
}

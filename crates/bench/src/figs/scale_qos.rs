//! Scalability and QoS: Figures 14, 15, 16.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lite::{Perm, Priority, QosMode, USER_FUNC_MIN};
use lite_log::LiteLog;
use rand::{Rng, SeedableRng};
use simnet::{Ctx, TimeSeries, MILLIS, SECONDS};

use crate::env::LiteEnv;
use crate::skew::SkewGate;
use crate::table::Row;

const ECHO: u8 = USER_FUNC_MIN + 2;

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
        let gate = Arc::new(SkewGate::new(nodes * threads, 5_000));
        let mut workers = Vec::new();
        for node in 0..nodes {
            for t in 0..threads {
                let cluster = Arc::clone(&lenv.cluster);
                let gate = Arc::clone(&gate);
                workers.push(std::thread::spawn(move || {
                    let mut h = cluster.attach(node).unwrap();
                    let mut ctx = Ctx::new();
                    let mut lhs = Vec::new();
                    for n in 0..nodes {
                        lhs.push(h.lt_map(&mut ctx, &format!("f14.{n}")).unwrap());
                    }
                    // Align clocks so the measurement starts together.
                    h.lt_barrier(&mut ctx, 7_140, (nodes * threads) as u32)
                        .unwrap();
                    let start = ctx.now();
                    let mut rng = rand::rngs::SmallRng::seed_from_u64((node * 8 + t) as u64);
                    let buf = [5u8; 64];
                    for _ in 0..ops {
                        let peer = rng.gen_range(0..nodes);
                        h.lt_write(&mut ctx, lhs[peer], (t * 64) as u64, &buf)
                            .unwrap();
                        gate.pace(node * threads + t, ctx.now() - start);
                    }
                    gate.finish(node * threads + t);
                    ctx.now() - start
                }));
            }
        }
        let makespan = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .max()
            .unwrap();
        let write_tput = (nodes * threads * ops) as f64 / (makespan as f64 / 1000.0);

        // ---- LT_RPC: every node also runs 8 echo servers. ----
        let lenv = LiteEnv::new(nodes);
        let done = Arc::new(AtomicBool::new(false));
        let mut servers = Vec::new();
        for node in 0..nodes {
            lenv.cluster
                .attach(node)
                .unwrap()
                .register_rpc(ECHO)
                .unwrap();
            for _ in 0..threads {
                let cluster = Arc::clone(&lenv.cluster);
                let done = Arc::clone(&done);
                servers.push(std::thread::spawn(move || {
                    let mut h = cluster.attach(node).unwrap();
                    let mut ctx = Ctx::new();
                    loop {
                        match h.lt_try_recv_rpc(&mut ctx, ECHO) {
                            Ok(Some(call)) => {
                                h.lt_reply_rpc(&mut ctx, &call, &[0u8; 8]).unwrap();
                            }
                            _ => {
                                if done.load(Ordering::Acquire) {
                                    return;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                }));
            }
        }
        let gate = Arc::new(SkewGate::new(nodes * threads, 5_000));
        let mut clients = Vec::new();
        for node in 0..nodes {
            for t in 0..threads {
                let cluster = Arc::clone(&lenv.cluster);
                let gate = Arc::clone(&gate);
                clients.push(std::thread::spawn(move || {
                    let mut h = cluster.attach(node).unwrap();
                    let mut ctx = Ctx::new();
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(100 + (node * 8 + t) as u64);
                    for _ in 0..ops {
                        let peer = (node + rng.gen_range(1..nodes)) % nodes;
                        h.lt_rpc(&mut ctx, peer, ECHO, &[2u8; 64], 256).unwrap();
                        gate.pace(node * threads + t, ctx.now());
                    }
                    gate.finish(node * threads + t);
                    ctx.now()
                }));
            }
        }
        let makespan = clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .max()
            .unwrap();
        done.store(true, Ordering::Release);
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

/// Background low-priority writers flooding 64 KB writes to `victims`.
/// Paced against the foreground's clock so the conservative queueing
/// model stays causal.
fn background_writers(
    cluster: &Arc<lite::LiteCluster>,
    n: usize,
    gate: Option<(Arc<SkewGate>, usize)>,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<u64>> {
    let mut out = Vec::new();
    for i in 0..n {
        let cluster = Arc::clone(cluster);
        let stop = Arc::clone(stop);
        let gate = gate.clone();
        out.push(std::thread::spawn(move || {
            let mut h = cluster.attach(0).unwrap();
            h.set_priority(Priority::Low);
            let mut ctx = Ctx::new();
            let lh = h.lt_map(&mut ctx, "bg").unwrap();
            let buf = vec![0u8; 64 * 1024];
            let mut bytes = 0u64;
            while !stop.load(Ordering::Acquire) {
                h.lt_write(&mut ctx, lh, (i * 65_536) as u64, &buf).unwrap();
                bytes += buf.len() as u64;
                if let Some((g, base)) = &gate {
                    g.pace(base + i, ctx.now());
                }
            }
            if let Some((g, base)) = &gate {
                g.finish(base + i);
            }
            bytes
        }));
    }
    out
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
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(SkewGate::new(5, 10_000));
        let mut bg = Vec::new();
        if let Some(m) = mode {
            lenv.cluster.set_qos_mode(m);
            bg = background_writers(&lenv.cluster, 4, Some((Arc::clone(&gate), 1)), &stop);
        } else {
            for i in 1..5 {
                gate.finish(i);
            }
        }
        let mut h = lenv.cluster.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 2, "f15log", 32 << 20).unwrap();
        let start = ctx.now();
        let entry = [0xAAu8; 16];
        for _ in 0..commits {
            log.commit(&mut h, &mut ctx, &[&entry]).unwrap();
            gate.pace(0, ctx.now());
        }
        gate.finish(0);
        let elapsed = ctx.now() - start;
        stop.store(true, Ordering::Release);
        for b in bg {
            b.join().unwrap();
        }
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
            bg = background_writers(&lenv.cluster, 4, None, &stop);
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

/// Figure 16: QoS timeline under the synthetic §6.2 schedule, driven by
/// virtual deadlines so quick mode compresses time rather than load:
/// low-priority threads run from 0 to 4.5T; high-priority threads join at
/// T and run to 2.2T; 8 of them sleep until 3.2T and run again to 4T.
/// Returns one row per bucket (T/20): total and high GB/s per mode.
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
        let workers = 40usize;
        let gate = Arc::new(SkewGate::new(workers, 20_000));
        let finished = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for w in 0..workers {
            let cluster = Arc::clone(&lenv.cluster);
            let gate = Arc::clone(&gate);
            let finished = Arc::clone(&finished);
            handles.push(std::thread::spawn(move || {
                // Spread senders over all 5 nodes; targets exclude the
                // local node so every op crosses the fabric.
                let me = w % 5;
                let mut h = cluster.attach(me).unwrap();
                let high = w >= 20;
                h.set_priority(if high { Priority::High } else { Priority::Low });
                let mut ctx = Ctx::new();
                let mut lhs = Vec::new();
                for n in 0..5 {
                    if n != me {
                        lhs.push(h.lt_map(&mut ctx, &format!("bg{n}")).unwrap());
                    }
                }
                let mut ts = TimeSeries::new(bucket);
                let mut rng = rand::rngs::SmallRng::seed_from_u64(w as u64);
                let mut i = 0usize;
                let mut run_until = |h: &mut lite::LiteHandle,
                                     ctx: &mut Ctx,
                                     rng: &mut rand::rngs::SmallRng,
                                     ts: &mut TimeSeries,
                                     deadline: u64,
                                     low: bool| {
                    let buf = vec![1u8; 8192];
                    while ctx.now() < deadline {
                        let size = if low && rng.gen_bool(0.5) { 8192 } else { 4096 };
                        let lh = lhs[i % lhs.len()];
                        i += 1;
                        if rng.gen_bool(0.5) {
                            let mut b = vec![0u8; size];
                            h.lt_read(ctx, lh, 0, &mut b).unwrap();
                        } else {
                            h.lt_write(ctx, lh, 0, &buf[..size]).unwrap();
                        }
                        ts.record(ctx.now(), size as u64);
                        gate.pace(w, ctx.now());
                    }
                };
                if high {
                    gate.pace(w, t_unit);
                    ctx.wait_until(t_unit);
                    run_until(&mut h, &mut ctx, &mut rng, &mut ts, t_unit * 22 / 10, false);
                    if w < 28 {
                        // 8 of the 20 sleep, then run a second burst.
                        gate.pace(w, t_unit * 32 / 10);
                        ctx.wait_until(t_unit * 32 / 10);
                        run_until(&mut h, &mut ctx, &mut rng, &mut ts, t_unit * 4, false);
                    }
                } else {
                    run_until(&mut h, &mut ctx, &mut rng, &mut ts, t_unit * 45 / 10, true);
                }
                gate.finish(w);
                finished.fetch_add(1, Ordering::Relaxed);
                (high, ts)
            }));
        }
        let mut total = TimeSeries::new(bucket);
        let mut high = TimeSeries::new(bucket);
        for h in handles {
            let (is_high, ts) = h.join().unwrap();
            total.merge(&ts);
            if is_high {
                high.merge(&ts);
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

//! RPC comparisons: Figures 10, 11, 12, 13.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lite::USER_FUNC_MIN;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rnic::{IbConfig, IbFabric};
use rpc_baselines::{
    FarmPair, FasstClient, FasstServer, HerdClient, HerdServer, RingAccounting, SendRpcAccounting,
};
use simnet::{Ctx, Nanos, Summary};

use crate::drive::drive;
use crate::env::LiteEnv;
use crate::facebook;
use crate::table::Row;

const US: f64 = 1_000.0;
pub(crate) const ECHO: u8 = USER_FUNC_MIN + 1;
const TIMEOUT: Duration = Duration::from_secs(20);

/// Runs a LITE RPC echo server thread for `calls` calls; returns its CPU
/// accounting handles.
pub(crate) fn lite_server(
    cluster: &Arc<lite::LiteCluster>,
    node: usize,
    calls: usize,
    reply_len: usize,
) -> std::thread::JoinHandle<u64> {
    let cluster = Arc::clone(cluster);
    std::thread::spawn(move || {
        let mut h = cluster.attach(node).unwrap();
        let mut ctx = Ctx::new();
        let reply = vec![0xEE; reply_len.max(1)];
        for _ in 0..calls {
            let call = h.lt_recv_rpc(&mut ctx, ECHO).unwrap();
            h.lt_reply_rpc(&mut ctx, &call, &reply[..reply_len])
                .unwrap();
        }
        ctx.cpu.total()
    })
}

/// Steps `calls` blocking calls of every client, lowest clock first;
/// returns the makespan.
fn closed_clients<C>(
    clients: Vec<C>,
    calls: usize,
    mut call: impl FnMut(&mut Ctx, &mut C),
) -> Nanos {
    let mut clients: Vec<_> = clients.into_iter().map(|c| (Ctx::new(), (c, 0))).collect();
    drive(
        &mut clients,
        |_, (_, i)| (*i < calls).then_some(0),
        |ctx, (c, i)| {
            call(ctx, c);
            *i += 1;
        },
    )
}

/// Fig 13's clients: each makes `calls` blocking calls, the next one due
/// a Facebook inter-arrival gap × `factor` after the last returned (client
/// `t`'s rng seeded `seed + t`), stepped in due order. Returns the
/// clients' summed CPU and the makespan.
fn facebook_clients<C>(
    clients: Vec<C>,
    calls: usize,
    factor: u64,
    seed: u64,
    mut call: impl FnMut(&mut Ctx, &mut C),
) -> (Nanos, Nanos) {
    let arrivals = facebook::inter_arrivals();
    let mut clients: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(t, c)| {
            let mut rng = SmallRng::seed_from_u64(seed + t as u64);
            let due = arrivals.sample(&mut rng) * factor;
            (Ctx::new(), (c, rng, due, 0))
        })
        .collect();
    let makespan = drive(
        &mut clients,
        |_, (_, _, due, i)| (*i < calls).then_some(*due),
        |ctx, (c, rng, due, i)| {
            call(ctx, c);
            *i += 1;
            *due = ctx.now() + arrivals.sample(rng) * factor;
        },
    );
    let cpu = clients.iter().map(|(ctx, _)| ctx.cpu.total()).sum();
    (cpu, makespan)
}

/// Figure 10: RPC latency vs return size (8 B input).
pub fn fig10(full: bool) -> Vec<Row> {
    let sizes: &[usize] = &[8, 64, 512, 4096];
    let ops = if full { 1_000 } else { 200 };
    let mut rows = Vec::new();
    for &size in sizes {
        // LITE user / kernel.
        let mut lite_u = Summary::new();
        let mut lite_k = Summary::new();
        for (kernel_level, out) in [(false, &mut lite_u), (true, &mut lite_k)] {
            let lenv = LiteEnv::new(2);
            lenv.cluster.attach(1).unwrap().register_rpc(ECHO).unwrap();
            let srv = lite_server(&lenv.cluster, 1, ops + 1, size);
            let mut h = if kernel_level {
                lenv.cluster.attach_kernel(0).unwrap()
            } else {
                lenv.cluster.attach(0).unwrap()
            };
            let mut ctx = Ctx::new();
            let input = [1u8; 8];
            h.lt_rpc(&mut ctx, 1, ECHO, &input, 8192).unwrap(); // warm
            for _ in 0..ops {
                let t0 = ctx.now();
                h.lt_rpc(&mut ctx, 1, ECHO, &input, 8192).unwrap();
                out.record(ctx.now() - t0);
            }
            srv.join().unwrap();
        }

        // Two verbs writes (FaRM-style lower bound).
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let pair = Arc::new(FarmPair::new(&fabric, 0, 1, size.max(64)).unwrap());
        let srv_pair = Arc::clone(&pair);
        let srv = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in 0..ops + 1 {
                srv_pair
                    .serve_one(&mut ctx, |_| vec![0xAB; size], TIMEOUT)
                    .unwrap();
            }
        });
        let mut ctx = Ctx::new();
        pair.call(&mut ctx, 0, &[1u8; 8], TIMEOUT).unwrap();
        let mut farm = Summary::new();
        for _ in 0..ops {
            let t0 = ctx.now();
            pair.call(&mut ctx, 0, &[1u8; 8], TIMEOUT).unwrap();
            farm.record(ctx.now() - t0);
        }
        srv.join().unwrap();

        // HERD.
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, 4, size.max(64)).unwrap();
        let client = HerdClient::connect(&server, 0, size.max(64)).unwrap();
        let s2 = Arc::clone(&server);
        let srv = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in 0..ops + 1 {
                s2.serve_one(&mut ctx, |_| vec![0xCD; size], TIMEOUT)
                    .unwrap();
            }
        });
        let mut ctx = Ctx::new();
        client.call(&mut ctx, &[1u8; 8], TIMEOUT).unwrap();
        let mut herd = Summary::new();
        for _ in 0..ops {
            let t0 = ctx.now();
            client.call(&mut ctx, &[1u8; 8], TIMEOUT).unwrap();
            herd.record(ctx.now() - t0);
        }
        srv.join().unwrap();

        // FaSST (UD, ≤ MTU).
        let mut fasst = Summary::new();
        if size <= 4096 {
            let fabric = IbFabric::new(IbConfig::with_nodes(2));
            let server = FasstServer::new(&fabric, 1, size.max(64)).unwrap();
            let client = FasstClient::connect(&fabric, 0, server.address(), size.max(64)).unwrap();
            let s2 = Arc::clone(&server);
            let srv = std::thread::spawn(move || {
                let mut ctx = Ctx::new();
                for _ in 0..ops + 1 {
                    s2.serve_one(&mut ctx, |_| vec![0xEF; size], TIMEOUT)
                        .unwrap();
                }
            });
            let mut ctx = Ctx::new();
            client.call(&mut ctx, &[1u8; 8], TIMEOUT).unwrap();
            for _ in 0..ops {
                let t0 = ctx.now();
                client.call(&mut ctx, &[1u8; 8], TIMEOUT).unwrap();
                fasst.record(ctx.now() - t0);
            }
            srv.join().unwrap();
        }

        rows.push(
            Row::new(size.to_string())
                .cell("lite_user_us", lite_u.mean() / US)
                .cell("lite_kern_us", lite_k.mean() / US)
                .cell("2writes_us", farm.mean() / US)
                .cell("herd_us", herd.mean() / US)
                .cell("fasst_us", fasst.mean() / US),
        );
    }
    rows
}

/// Figure 11: RPC throughput with 1 and 16 concurrent client/server
/// pairs, vs return size.
pub fn fig11(full: bool) -> Vec<Row> {
    let sizes: &[usize] = &[64, 1024, 4096];
    let per_client = if full { 400 } else { 120 };
    let mut rows = Vec::new();
    for &size in sizes {
        let mut row = Row::new(size.to_string());
        for pairs in [1usize, 16] {
            // ---- LITE: `pairs` clients, `pairs` servers, one ring. ----
            let lenv = LiteEnv::new(2);
            lenv.cluster.attach(1).unwrap().register_rpc(ECHO).unwrap();
            let mut servers = Vec::new();
            for _ in 0..pairs {
                servers.push(lite_server(&lenv.cluster, 1, per_client, size));
            }
            let handles = (0..pairs)
                .map(|_| lenv.cluster.attach(0).unwrap())
                .collect();
            let makespan = closed_clients(handles, per_client, |ctx, h| {
                h.lt_rpc(ctx, 1, ECHO, &[1u8; 8], 8192).unwrap();
            });
            for s in servers {
                s.join().unwrap();
            }
            let total_bytes = (pairs * per_client * (size + 8)) as f64;
            row = row.cell(format!("lite{pairs}_gbps"), total_bytes / makespan as f64);

            // ---- HERD: `pairs` clients, 2 server threads. ----
            let fabric = IbFabric::new(IbConfig::with_nodes(2));
            let server = HerdServer::new(&fabric, 1, pairs, size.max(64)).unwrap();
            let total = pairs * per_client;
            let mut srvs = Vec::new();
            for _ in 0..2.min(pairs) {
                let s2 = Arc::clone(&server);
                let n = total / 2.min(pairs);
                srvs.push(std::thread::spawn(move || {
                    let mut ctx = Ctx::new();
                    for _ in 0..n {
                        s2.serve_one(&mut ctx, |_| vec![0xCD; size], TIMEOUT)
                            .unwrap();
                    }
                }));
            }
            let clients = (0..pairs)
                .map(|_| HerdClient::connect(&server, 0, size.max(64)).unwrap())
                .collect();
            let makespan = closed_clients(clients, per_client, |ctx, c| {
                c.call(ctx, &[1u8; 8], TIMEOUT).unwrap();
            });
            for s in srvs {
                s.join().unwrap();
            }
            row = row.cell(format!("herd{pairs}_gbps"), total_bytes / makespan as f64);

            // ---- FaSST: one master thread serves everyone. ----
            if size <= 4096 {
                let fabric = IbFabric::new(IbConfig::with_nodes(2));
                let server = FasstServer::new(&fabric, 1, size.max(64)).unwrap();
                let s2 = Arc::clone(&server);
                let srv = std::thread::spawn(move || {
                    let mut ctx = Ctx::new();
                    for _ in 0..pairs * per_client {
                        s2.serve_one(&mut ctx, |_| vec![0xEF; size], TIMEOUT)
                            .unwrap();
                    }
                });
                let clients = (0..pairs)
                    .map(|_| {
                        FasstClient::connect(&fabric, 0, server.address(), size.max(64)).unwrap()
                    })
                    .collect();
                let makespan = closed_clients(clients, per_client, |ctx, c| {
                    c.call(ctx, &[1u8; 8], TIMEOUT).unwrap();
                });
                srv.join().unwrap();
                row = row.cell(format!("fasst{pairs}_gbps"), total_bytes / makespan as f64);
            }
        }
        rows.push(row);
    }
    rows
}

/// Figure 12: RPC memory utilization under the Facebook key/value size
/// distributions: send-based with 1..4 RQ ladders vs LITE's ring.
pub fn fig12(full: bool) -> Vec<Row> {
    let msgs = if full { 500_000 } else { 50_000 };
    let mut rng = SmallRng::seed_from_u64(12);
    let keys = facebook::key_sizes();
    let values = facebook::value_sizes();
    let max_size = 65_536;
    let mut rows = Vec::new();
    for nrq in 1..=4usize {
        let mut key_acc = SendRpcAccounting::new(nrq, max_size);
        let mut val_acc = SendRpcAccounting::new(nrq, max_size);
        for _ in 0..msgs {
            key_acc.receive(keys.sample(&mut rng) as usize);
            val_acc.receive(values.sample(&mut rng) as usize);
        }
        rows.push(
            Row::new(format!("{nrq}RQ"))
                .cell("key_util", key_acc.utilization())
                .cell("value_util", val_acc.utilization()),
        );
    }
    let mut key_ring = RingAccounting::new();
    let mut val_ring = RingAccounting::new();
    for _ in 0..msgs {
        key_ring.receive(keys.sample(&mut rng) as usize);
        val_ring.receive(values.sample(&mut rng) as usize);
    }
    rows.push(
        Row::new("LITE")
            .cell("key_util", key_ring.utilization())
            .cell("value_util", val_ring.utilization()),
    );
    rows
}

/// Figure 13: CPU time per request under the Facebook inter-arrival
/// distribution, amplified 1×..8×.
pub fn fig13(full: bool) -> Vec<Row> {
    let requests = if full { 20_000 } else { 4_000 };
    let threads = 8usize;
    let factors = [1u64, 2, 4, 8];
    let mut rows = Vec::new();
    for &factor in &factors {
        // ---- LITE. ----
        let lenv = LiteEnv::new(2);
        lenv.cluster.attach(1).unwrap().register_rpc(ECHO).unwrap();
        let per_thread = requests / threads;
        let mut servers = Vec::new();
        let mut server_cpu = 0u64;
        for _ in 0..threads {
            servers.push(lite_server(&lenv.cluster, 1, per_thread, 64));
        }
        let handles = (0..threads)
            .map(|_| lenv.cluster.attach(0).unwrap())
            .collect();
        let (client_cpu, _) = facebook_clients(handles, per_thread, factor, 13, |ctx, h| {
            h.lt_rpc(ctx, 1, ECHO, &[1u8; 16], 4096).unwrap();
        });
        for s in servers {
            server_cpu += s.join().unwrap();
        }
        let poller_cpu =
            lenv.cluster.kernel(0).poller_cpu.total() + lenv.cluster.kernel(1).poller_cpu.total();
        let lite_per_req = (client_cpu + server_cpu + poller_cpu) as f64 / requests as f64;

        // ---- HERD: busy pollers on both sides. ----
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, threads, 4096).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut srvs = Vec::new();
        for _ in 0..2 {
            let s2 = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            srvs.push(std::thread::spawn(move || {
                let mut ctx = Ctx::new();
                while !stop.load(Ordering::Acquire) {
                    let _ = s2.serve_one(&mut ctx, |_| vec![0xCD; 64], Duration::from_millis(50));
                }
                ctx.cpu.total()
            }));
        }
        let clients = (0..threads)
            .map(|_| HerdClient::connect(&server, 0, 4096).unwrap())
            .collect();
        let (herd_client_cpu, herd_span) =
            facebook_clients(clients, per_thread, factor, 31, |ctx, c| {
                c.call(ctx, &[1u8; 16], TIMEOUT).unwrap();
            });
        stop.store(true, Ordering::Release);
        let mut herd_server_cpu: u64 = srvs.into_iter().map(|s| s.join().unwrap()).sum();
        // The busy-polling server burns the whole (virtual) span even when
        // idle; our poll loop only accounts while handling, so add the
        // idle-spin burn explicitly.
        herd_server_cpu = herd_server_cpu.max(2 * herd_span);
        let herd_per_req = (herd_client_cpu + herd_server_cpu) as f64 / requests as f64;

        // ---- FaSST: one busy master thread. ----
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = FasstServer::new(&fabric, 1, 4096).unwrap();
        let s2 = Arc::clone(&server);
        let srv = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in 0..requests {
                s2.serve_one(&mut ctx, |_| vec![0xEF; 64], TIMEOUT).unwrap();
            }
            (ctx.cpu.total(), ctx.now())
        });
        let clients = (0..threads)
            .map(|_| FasstClient::connect(&fabric, 0, server.address(), 4096).unwrap())
            .collect();
        let (fasst_client_cpu, _) = facebook_clients(clients, per_thread, factor, 57, |ctx, c| {
            c.call(ctx, &[1u8; 16], TIMEOUT).unwrap();
        });
        let (fasst_server_cpu, fasst_span) = srv.join().unwrap();
        let fasst_per_req =
            (fasst_client_cpu + fasst_server_cpu.max(fasst_span)) as f64 / requests as f64;

        rows.push(
            Row::new(format!("{factor}x"))
                .cell("herd_us", herd_per_req / US)
                .cell("fasst_us", fasst_per_req / US)
                .cell("lite_us", lite_per_req / US),
        );
    }
    rows
}

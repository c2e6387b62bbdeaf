//! Ablations of LITE's design decisions (DESIGN.md §5).

use lite::{LiteConfig, Perm};
use rand::{Rng, SeedableRng};
use rnic::COST;
use simnet::{Ctx, Summary};

use crate::drive::drive;
use crate::env::LiteEnv;
use crate::figs::micro::lite_writers;
use crate::table::Row;

const US: f64 = 1_000.0;

fn write_latency(env: &LiteEnv, lmr_bytes: u64, ops: usize, spread: bool) -> f64 {
    let mut h = env.cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h.lt_malloc(&mut ctx, 1, lmr_bytes, "ab", Perm::RW).unwrap();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let buf = [9u8; 64];
    h.lt_write(&mut ctx, lh, 0, &buf).unwrap();
    let mut s = Summary::new();
    for _ in 0..ops {
        let off = if spread {
            rng.gen_range(0..lmr_bytes - 64) & !63
        } else {
            0
        };
        let t0 = ctx.now();
        h.lt_write(&mut ctx, lh, off, &buf).unwrap();
        s.record(ctx.now() - t0);
    }
    s.mean() / US
}

/// Ablation: the global physical MR (§4.1). Disabling it is emulated by
/// issuing LITE traffic through per-LMR virtual MRs — here we compare
/// LITE against the raw-verbs numbers from Figs 4/5, so this ablation
/// reports LITE with a large LMR (no PTE pressure) vs the same working
/// set through a *virtual* MR (the fallback's cost).
pub fn ablation_global_mr(full: bool) -> Vec<Row> {
    let ops = if full { 1_500 } else { 400 };
    // LITE path: spread 64 B writes over 64 MB — flat.
    let env = LiteEnv::new(2);
    let lite = write_latency(&env, 64 << 20, ops, true);
    // Fallback path ≈ native virtual MR of the same size (Fig 5's
    // mechanism): reuse the verbs substrate directly.
    let venv = crate::env::VerbsEnv::new(2);
    let mut ctx = Ctx::new();
    let region = venv.spaces[1].mmap(64 << 20).unwrap();
    let mr = venv
        .fabric
        .nic(1)
        .register_mr(
            &mut ctx,
            &venv.spaces[1],
            region,
            64 << 20,
            rnic::Access::RW,
        )
        .unwrap();
    let src_va = venv.spaces[0].mmap(4096).unwrap();
    let src = venv
        .fabric
        .nic(0)
        .register_mr(&mut ctx, &venv.spaces[0], src_va, 4096, rnic::Access::LOCAL)
        .unwrap();
    let (qp, _) = venv.fabric.rc_pair(0, 1);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
    let mut s = Summary::new();
    for _ in 0..ops {
        let off = rng.gen_range(0..(64u64 << 20) - 64) & !63;
        let t0 = ctx.now();
        let comp = venv
            .fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qp,
                0,
                &rnic::Sge::Virt {
                    lkey: src.lkey(),
                    addr: src_va,
                    len: 64,
                },
                rnic::RemoteAddr {
                    rkey: mr.rkey(),
                    addr: region + off,
                },
                None,
                false,
            )
            .unwrap();
        ctx.wait_until(comp);
        ctx.work(COST.cq_poll_ns);
        s.record(ctx.now() - t0);
    }
    vec![Row::new("64B@64MB")
        .cell("global_mr_us", lite)
        .cell("virtual_mr_us", s.mean() / US)]
}

/// Ablation: §5.2 syscall-crossing optimizations and adaptive polling.
pub fn ablation_syscalls(full: bool) -> Vec<Row> {
    let ops = if full { 800 } else { 250 };
    let mut rows = Vec::new();
    for (name, fast, adaptive) in [
        ("optimized", true, true),
        ("slow_syscalls", false, true),
        ("busy_poll", true, false),
    ] {
        let env = LiteEnv::with_config(
            2,
            LiteConfig {
                fast_syscalls: fast,
                adaptive_poll: adaptive,
                ..Default::default()
            },
        );
        // RPC latency is where the crossings live.
        const F: u8 = lite::USER_FUNC_MIN + 3;
        env.cluster.attach(1).unwrap().register_rpc(F).unwrap();
        let cluster = std::sync::Arc::clone(&env.cluster);
        let srv = std::thread::spawn(move || {
            let mut h = cluster.attach(1).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..ops + 1 {
                let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
                h.lt_reply_rpc(&mut ctx, &call, &[0u8; 64]).unwrap();
            }
            ctx.cpu.total()
        });
        let mut h = env.cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        h.lt_rpc(&mut ctx, 1, F, &[1u8; 8], 4096).unwrap();
        let mut s = Summary::new();
        for _ in 0..ops {
            let t0 = ctx.now();
            h.lt_rpc(&mut ctx, 1, F, &[1u8; 8], 4096).unwrap();
            s.record(ctx.now() - t0);
        }
        let server_cpu = srv.join().unwrap();
        let poller_cpu =
            env.cluster.kernel(0).poller_cpu.total() + env.cluster.kernel(1).poller_cpu.total();
        rows.push(Row::new(name).cell("rpc_us", s.mean() / US).cell(
            "cpu_per_req_us",
            (ctx.cpu.total() + server_cpu + poller_cpu) as f64 / ops as f64 / US,
        ));
    }
    rows
}

/// Ablation: the QP sharing factor K (§6.1).
pub fn ablation_qp_factor(full: bool) -> Vec<Row> {
    let ops = if full { 500 } else { 150 };
    let threads = 8usize;
    let mut rows = Vec::new();
    for k in [1usize, 2, 4] {
        let env = LiteEnv::with_config(2, LiteConfig::with_qp_factor(k));
        let mut writers = lite_writers(&env, "qpk", 16 << 20, threads, 0);
        let buf = vec![1u8; 4096];
        let makespan = drive(
            &mut writers,
            |_, w| (w.done < ops).then_some(0),
            |ctx, w| {
                let off = ((w.t * ops + w.done) * 4096) as u64 % (16 << 20) / 64 * 64;
                w.h.lt_write(ctx, w.lh, off, &buf).unwrap();
                w.done += 1;
            },
        );
        let gbps = (threads * ops * 4096) as f64 / makespan as f64;
        rows.push(
            Row::new(format!("K={k}"))
                .cell("gbps", gbps)
                .cell("qps_per_node", env.cluster.kernel(0).stats().qps as f64),
        );
    }
    rows
}

/// Ablation: doorbell-batched posting through the shared datapath.
///
/// With `batch_posting` on, multi-extent writes (`lt_write` across LMR
/// chunks: one verb per piece in `chain_pieces`) and the RPC reply's
/// head-release + data pair go out as one `Nic::post_chain` doorbell chain —
/// one host post and one QP-context touch per chain instead of per
/// work request. Off, the same chains degrade to element-at-a-time
/// posting. This is the fig07/fig11 hot path, isolated.
pub fn ablation_batch_posting(full: bool) -> Vec<Row> {
    let write_ops = if full { 400 } else { 150 };
    let rpc_per_client = if full { 300 } else { 100 };
    let rpc_clients = 8usize;
    let mut rows = Vec::new();
    for (name, batch) in [("batched", true), ("unbatched", false)] {
        // ---- Multi-extent writes: 8 KB over 512 B chunks = 16-WQE
        // chains. At this extent size the per-WQE host charge
        // (map check + doorbell) outweighs the engine service, so the
        // unbatched path is host-bound and the chain pays for itself.
        let env = LiteEnv::with_config(
            2,
            LiteConfig {
                batch_posting: batch,
                max_lmr_chunk: 512,
                ..Default::default()
            },
        );
        let mut h = env.cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h.lt_malloc(&mut ctx, 1, 256 << 10, "bp", Perm::RW).unwrap();
        let buf = vec![3u8; 8192];
        h.lt_write(&mut ctx, lh, 0, &buf).unwrap();
        let start = ctx.now();
        for i in 0..write_ops {
            let off = ((i * 8192) as u64) % ((256 << 10) - 8192);
            h.lt_write(&mut ctx, lh, off, &buf).unwrap();
        }
        let write_mops = write_ops as f64 * 16.0 / (ctx.now() - start) as f64 * 1_000.0;

        // ---- RPC echo, fig11 shape: 8 clients on one ring keep the
        // server busy; each reply is a head-release + data chain. ----
        const F: u8 = lite::USER_FUNC_MIN + 9;
        env.cluster.attach(1).unwrap().register_rpc(F).unwrap();
        let total = rpc_clients * rpc_per_client;
        let cluster = std::sync::Arc::clone(&env.cluster);
        let srv = std::thread::spawn(move || {
            let mut h = cluster.attach(1).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..total {
                let call = h.lt_recv_rpc(&mut ctx, F).unwrap();
                h.lt_reply_rpc(&mut ctx, &call, &[0u8; 512]).unwrap();
            }
        });
        let mut clients = Vec::new();
        for _ in 0..rpc_clients {
            let cluster = std::sync::Arc::clone(&env.cluster);
            clients.push(std::thread::spawn(move || {
                let mut h = cluster.attach(0).unwrap();
                let mut ctx = Ctx::new();
                for _ in 0..rpc_per_client {
                    h.lt_rpc(&mut ctx, 1, F, &[1u8; 64], 4096).unwrap();
                }
                ctx.now()
            }));
        }
        let makespan = clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .max()
            .unwrap();
        srv.join().unwrap();
        let rpc_kops = total as f64 / makespan as f64 * 1_000_000.0;
        rows.push(
            Row::new(name)
                .cell("write_mops", write_mops)
                .cell("rpc_kops", rpc_kops),
        );
    }
    rows
}

/// Ablation: chunked large-LMR allocation (§4.1 reports <2 % overhead).
pub fn ablation_chunking(full: bool) -> Vec<Row> {
    let ops = if full { 200 } else { 60 };
    let mut rows = Vec::new();
    for (name, max_chunk) in [("4MB_chunks", 4u64 << 20), ("huge_chunk", 1 << 30)] {
        let env = LiteEnv::with_config(
            2,
            LiteConfig {
                max_lmr_chunk: max_chunk,
                ..Default::default()
            },
        );
        let mut h = env.cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h
            .lt_malloc(&mut ctx, 1, 128 << 20, "chunk", Perm::RW)
            .unwrap();
        let buf = vec![2u8; 1 << 20];
        h.lt_write(&mut ctx, lh, 0, &buf).unwrap();
        let mut s = Summary::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..ops {
            let off = rng.gen_range(0..(127u64 << 20)) & !63;
            let t0 = ctx.now();
            h.lt_write(&mut ctx, lh, off, &buf).unwrap();
            s.record(ctx.now() - t0);
        }
        rows.push(Row::new(name).cell("write_1mb_us", s.mean() / US));
    }
    rows
}

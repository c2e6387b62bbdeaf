//! Microbenchmarks: Figures 4, 5, 6, 7, 8 and 17.

use std::sync::Arc;

use lite::Perm;
use rand::{Rng, SeedableRng};
use rnic::{Access, RemoteAddr, Sge, COST};
use simnet::{Ctx, Summary};
use transport::{RcmSock, TcpCostModel, TcpNet};

use crate::env::{LiteEnv, VerbsEnv};
use crate::table::Row;

const US: f64 = 1_000.0;

/// A warmed verbs write path: node 0 → node 1, single source buffer.
struct VerbsWriter {
    env: VerbsEnv,
    qp: Arc<rnic::Qp>,
    src_sge: Sge,
}

impl VerbsWriter {
    fn new(env: VerbsEnv, max_size: usize) -> (Self, Ctx) {
        let mut ctx = Ctx::new();
        let src_va = env.spaces[0].mmap(max_size as u64).unwrap();
        let src_mr = env
            .fabric
            .nic(0)
            .register_mr(
                &mut ctx,
                &env.spaces[0],
                src_va,
                max_size as u64,
                Access::LOCAL,
            )
            .unwrap();
        let (qp, _) = env.fabric.rc_pair(0, 1);
        let src_sge = Sge::Virt {
            lkey: src_mr.lkey(),
            addr: src_va,
            len: max_size,
        };
        (VerbsWriter { env, qp, src_sge }, ctx)
    }

    fn write_blocking(&self, ctx: &mut Ctx, len: usize, remote: RemoteAddr) {
        let sge = match &self.src_sge {
            Sge::Virt { lkey, addr, .. } => Sge::Virt {
                lkey: *lkey,
                addr: *addr,
                len,
            },
            _ => unreachable!(),
        };
        let comp = self
            .env
            .fabric
            .nic(0)
            .post_write(ctx, &self.qp, 0, &sge, remote, None, false)
            .unwrap();
        ctx.wait_until(comp);
        ctx.work(COST.cq_poll_ns);
    }
}

/// Figure 4: 64 B write latency vs number of (L)MRs.
pub fn fig04(full: bool) -> Vec<Row> {
    let counts: &[usize] = if full {
        &[10, 100, 1_000, 10_000, 100_000]
    } else {
        &[10, 100, 1_000, 10_000]
    };
    let ops = if full { 2_000 } else { 500 };
    let mut rows = Vec::new();
    for &m in counts {
        // ---- Verbs: m registered 4 KB MRs on node 1. ----
        let env = VerbsEnv::new(2);
        let mut ctx = Ctx::new();
        let region = env.spaces[1].mmap((m * 4096) as u64).unwrap();
        let mrs: Vec<rnic::Mr> = (0..m)
            .map(|i| {
                env.fabric
                    .nic(1)
                    .register_mr(
                        &mut ctx,
                        &env.spaces[1],
                        region + (i * 4096) as u64,
                        4096,
                        Access::RW,
                    )
                    .unwrap()
            })
            .collect();
        let (w, mut wctx) = VerbsWriter::new(env, 64);
        wctx.wait_until(ctx.now());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut verbs = Summary::new();
        for _ in 0..ops {
            let mr = &mrs[rng.gen_range(0..m)];
            let t0 = wctx.now();
            w.write_blocking(
                &mut wctx,
                64,
                RemoteAddr {
                    rkey: mr.rkey(),
                    addr: mr.base(),
                },
            );
            verbs.record(wctx.now() - t0);
        }

        // ---- LITE: m LMRs; the NIC only ever sees the global MR. ----
        let lenv = LiteEnv::new(2);
        let mut h = lenv.cluster.attach(0).unwrap();
        let mut lctx = Ctx::new();
        let lhs: Vec<u64> = (0..m)
            .map(|i| {
                h.lt_malloc(&mut lctx, 1, 4096, &format!("f4.{i}"), Perm::RW)
                    .unwrap()
            })
            .collect();
        let mut lite = Summary::new();
        let buf = [7u8; 64];
        for _ in 0..ops {
            let lh = lhs[rng.gen_range(0..m)];
            let t0 = lctx.now();
            h.lt_write(&mut lctx, lh, 0, &buf).unwrap();
            lite.record(lctx.now() - t0);
        }
        rows.push(
            Row::new(m.to_string())
                .cell("lite_us", lite.mean() / US)
                .cell("verbs_us", verbs.mean() / US),
        );
    }
    rows
}

/// Figure 5: pipelined write throughput vs total MR size (8 threads of
/// blocking writers approximate the paper's request pipelining).
pub fn fig05(full: bool) -> Vec<Row> {
    let sizes_mb: &[u64] = if full {
        &[1, 4, 16, 64, 256, 1024]
    } else {
        &[1, 4, 16, 64]
    };
    let threads = 8;
    let ops = if full { 600 } else { 200 };
    let mut rows = Vec::new();
    for &mb in sizes_mb {
        let total = mb << 20;
        let mut cells = Vec::new();
        for (label, req) in [("64B", 64usize), ("1KB", 1024)] {
            // ---- Verbs: one big virtual MR. ----
            let env = VerbsEnv::new(2);
            let mut ctx = Ctx::new();
            let region = env.spaces[1].mmap(total).unwrap();
            let mr = env
                .fabric
                .nic(1)
                .register_mr(&mut ctx, &env.spaces[1], region, total, Access::RW)
                .unwrap();
            let env = Arc::new(env);
            let gate = Arc::new(crate::skew::SkewGate::new(threads, 5_000));
            let mut handles = Vec::new();
            for t in 0..threads {
                let env = Arc::clone(&env);
                let gate = Arc::clone(&gate);
                let rkey = mr.rkey();
                handles.push(std::thread::spawn(move || {
                    let mut ctx = Ctx::new();
                    let src_va = env.spaces[0].mmap(4096).unwrap();
                    let src = env
                        .fabric
                        .nic(0)
                        .register_mr(&mut ctx, &env.spaces[0], src_va, 4096, Access::LOCAL)
                        .unwrap();
                    let (qp, _) = env.fabric.rc_pair(0, 1);
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(t as u64);
                    let sge = Sge::Virt {
                        lkey: src.lkey(),
                        addr: src_va,
                        len: req,
                    };
                    for _ in 0..ops {
                        let off = rng.gen_range(0..(total - req as u64)) & !63;
                        let comp = env
                            .fabric
                            .nic(0)
                            .post_write(
                                &mut ctx,
                                &qp,
                                0,
                                &sge,
                                RemoteAddr {
                                    rkey,
                                    addr: region + off,
                                },
                                None,
                                false,
                            )
                            .unwrap();
                        ctx.wait_until(comp);
                        ctx.work(COST.cq_poll_ns);
                        gate.pace(t, ctx.now());
                    }
                    gate.finish(t);
                    ctx.now()
                }));
            }
            let makespan = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            let verbs_tput = (threads * ops) as f64 / (makespan as f64 / 1000.0);

            // ---- LITE: one LMR; physical global MR underneath. ----
            let lenv = LiteEnv::new(2);
            {
                let mut h = lenv.cluster.attach(0).unwrap();
                let mut c = Ctx::new();
                h.lt_malloc(&mut c, 1, total, "f5", Perm::RW).unwrap();
            }
            let cluster = Arc::clone(&lenv.cluster);
            let gate = Arc::new(crate::skew::SkewGate::new(threads, 5_000));
            let mut handles = Vec::new();
            for t in 0..threads {
                let cluster = Arc::clone(&cluster);
                let gate = Arc::clone(&gate);
                handles.push(std::thread::spawn(move || {
                    let mut h = cluster.attach(0).unwrap();
                    let mut ctx = Ctx::new();
                    let lh = h.lt_map(&mut ctx, "f5").unwrap();
                    let start = ctx.now();
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(100 + t as u64);
                    let buf = vec![1u8; req];
                    for _ in 0..ops {
                        let off = rng.gen_range(0..(total - req as u64)) & !63;
                        h.lt_write(&mut ctx, lh, off, &buf).unwrap();
                        gate.pace(t, ctx.now() - start);
                    }
                    gate.finish(t);
                    ctx.now() - start
                }));
            }
            let makespan = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            let lite_tput = (threads * ops) as f64 / (makespan as f64 / 1000.0);
            cells.push((format!("lite_{label}"), lite_tput));
            cells.push((format!("verbs_{label}"), verbs_tput));
        }
        let mut row = Row::new(format!("{mb}MB"));
        for (n, v) in cells {
            row = row.cell(n, v);
        }
        rows.push(row);
    }
    rows
}

/// Figure 6: write latency vs request size for TCP, LITE (user and
/// kernel level), and native verbs.
pub fn fig06(full: bool) -> Vec<Row> {
    let sizes: &[usize] = &[8, 64, 512, 4096, 32_768];
    let ops = if full { 1_000 } else { 300 };
    let mut rows = Vec::new();
    for &size in sizes {
        // Verbs.
        let env = VerbsEnv::new(2);
        let mut ctx = Ctx::new();
        let dst_va = env.spaces[1].mmap(1 << 20).unwrap();
        let dst = env
            .fabric
            .nic(1)
            .register_mr(&mut ctx, &env.spaces[1], dst_va, 1 << 20, Access::RW)
            .unwrap();
        let (w, mut wctx) = VerbsWriter::new(env, size);
        let remote = RemoteAddr {
            rkey: dst.rkey(),
            addr: dst_va,
        };
        w.write_blocking(&mut wctx, size, remote); // warm
        let mut verbs = Summary::new();
        for _ in 0..ops {
            let t0 = wctx.now();
            w.write_blocking(&mut wctx, size, remote);
            verbs.record(wctx.now() - t0);
        }

        // LITE user and kernel level.
        let mut lite_u = Summary::new();
        let mut lite_k = Summary::new();
        for (kernel_level, out) in [(false, &mut lite_u), (true, &mut lite_k)] {
            let lenv = LiteEnv::new(2);
            let mut h = if kernel_level {
                lenv.cluster.attach_kernel(0).unwrap()
            } else {
                lenv.cluster.attach(0).unwrap()
            };
            let mut ctx = Ctx::new();
            let lh = h.lt_malloc(&mut ctx, 1, 1 << 20, "f6", Perm::RW).unwrap();
            let buf = vec![3u8; size];
            h.lt_write(&mut ctx, lh, 0, &buf).unwrap(); // warm
            for _ in 0..ops {
                let t0 = ctx.now();
                h.lt_write(&mut ctx, lh, 0, &buf).unwrap();
                out.record(ctx.now() - t0);
            }
        }

        // TCP one-way (qperf-style).
        let net = TcpNet::new(2, TcpCostModel::default());
        let (a, b) = net.connect(0, 1);
        let mut actx = Ctx::new();
        let mut bctx = Ctx::new();
        let msg = vec![9u8; size];
        let mut tcp = Summary::new();
        for _ in 0..ops {
            let t0 = actx.now().max(bctx.now());
            actx.wait_until(t0);
            a.send(&mut actx, &msg);
            b.recv(&mut bctx).unwrap();
            tcp.record(bctx.now() - t0);
        }

        rows.push(
            Row::new(size.to_string())
                .cell("tcp_us", tcp.mean() / US)
                .cell("lite_user_us", lite_u.mean() / US)
                .cell("lite_kern_us", lite_k.mean() / US)
                .cell("verbs_us", verbs.mean() / US),
        );
    }
    rows
}

/// Figure 7: write/stream throughput vs size, 1 and 8 ways.
pub fn fig07(full: bool) -> Vec<Row> {
    let sizes_kb: &[usize] = &[1, 4, 16, 64];
    let ops = if full { 400 } else { 150 };
    let mut rows = Vec::new();
    for &kb in sizes_kb {
        let size = kb * 1024;
        let mut row = Row::new(format!("{kb}KB"));
        for threads in [1usize, 8] {
            // LITE.
            let region_bytes: u64 = 4 << 20;
            let lenv = LiteEnv::new(2);
            {
                let mut h = lenv.cluster.attach(0).unwrap();
                let mut c = Ctx::new();
                h.lt_malloc(&mut c, 1, region_bytes, "f7", Perm::RW)
                    .unwrap();
            }
            let gate = Arc::new(crate::skew::SkewGate::new(threads, 5_000));
            let mut handles = Vec::new();
            for t in 0..threads {
                let cluster = Arc::clone(&lenv.cluster);
                let gate = Arc::clone(&gate);
                handles.push(std::thread::spawn(move || {
                    let mut h = cluster.attach(0).unwrap();
                    let mut ctx = Ctx::new();
                    let lh = h.lt_map(&mut ctx, "f7").unwrap();
                    let start = ctx.now();
                    let buf = vec![1u8; size];
                    for i in 0..ops {
                        let off = (((t * ops + i) * size) as u64) % (region_bytes - size as u64);
                        h.lt_write(&mut ctx, lh, off & !63, &buf).unwrap();
                        gate.pace(t, ctx.now() - start);
                    }
                    gate.finish(t);
                    ctx.now() - start
                }));
            }
            let makespan = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            let lite = (threads * ops * size) as f64 / makespan as f64;

            // Verbs (warm 4 MB region, within PTE reach — the paper's
            // Fig 7 microbenchmark, unlike Fig 5's thrashing sweep).
            let env = Arc::new(VerbsEnv::new(2));
            let mut ctx = Ctx::new();
            let dst_va = env.spaces[1].mmap(region_bytes).unwrap();
            let dst = env
                .fabric
                .nic(1)
                .register_mr(&mut ctx, &env.spaces[1], dst_va, region_bytes, Access::RW)
                .unwrap();
            let gate = Arc::new(crate::skew::SkewGate::new(threads, 5_000));
            let mut handles = Vec::new();
            for t in 0..threads {
                let env = Arc::clone(&env);
                let gate = Arc::clone(&gate);
                let rkey = dst.rkey();
                handles.push(std::thread::spawn(move || {
                    let mut ctx = Ctx::new();
                    let src_va = env.spaces[0].mmap(size as u64).unwrap();
                    let src = env
                        .fabric
                        .nic(0)
                        .register_mr(&mut ctx, &env.spaces[0], src_va, size as u64, Access::LOCAL)
                        .unwrap();
                    let (qp, _) = env.fabric.rc_pair(0, 1);
                    let sge = Sge::Virt {
                        lkey: src.lkey(),
                        addr: src_va,
                        len: size,
                    };
                    for i in 0..ops {
                        let off = (((t * ops + i) * size) as u64) % (region_bytes - size as u64);
                        let comp = env
                            .fabric
                            .nic(0)
                            .post_write(
                                &mut ctx,
                                &qp,
                                0,
                                &sge,
                                RemoteAddr {
                                    rkey,
                                    addr: dst_va + (off & !63),
                                },
                                None,
                                false,
                            )
                            .unwrap();
                        ctx.wait_until(comp);
                        ctx.work(COST.cq_poll_ns);
                        gate.pace(t, ctx.now());
                    }
                    gate.finish(t);
                    ctx.now()
                }));
            }
            let makespan = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            let verbs = (threads * ops * size) as f64 / makespan as f64;

            // RDMA-CM (rsockets): stream over `threads` connections.
            let env2 = Arc::new(VerbsEnv::new(2));
            let mut handles = Vec::new();
            for t in 0..threads {
                let (sa, sb) = RcmSock::pair(
                    &env2.fabric,
                    (0, Arc::clone(&env2.spaces[0])),
                    (1, Arc::clone(&env2.spaces[1])),
                    size.max(4096),
                )
                .unwrap();
                let _ = t;
                handles.push(std::thread::spawn(move || {
                    let recv = std::thread::spawn(move || {
                        let mut ctx = Ctx::new();
                        for _ in 0..ops {
                            sb.recv(&mut ctx, std::time::Duration::from_secs(10))
                                .unwrap();
                        }
                        ctx.now()
                    });
                    let mut ctx = Ctx::new();
                    let msg = vec![2u8; size];
                    for _ in 0..ops {
                        sa.send(&mut ctx, &msg).unwrap();
                    }
                    recv.join().unwrap()
                }));
            }
            let makespan = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            let rcm = (threads * ops * size) as f64 / makespan as f64;

            // TCP streaming.
            let net = TcpNet::new(2, TcpCostModel::default());
            let mut handles = Vec::new();
            for _ in 0..threads {
                let (a, b) = net.connect(0, 1);
                handles.push(std::thread::spawn(move || {
                    let recv = std::thread::spawn(move || {
                        let mut ctx = Ctx::new();
                        for _ in 0..ops {
                            b.recv(&mut ctx).unwrap();
                        }
                        ctx.now()
                    });
                    let mut ctx = Ctx::new();
                    let msg = vec![4u8; size];
                    for _ in 0..ops {
                        a.send(&mut ctx, &msg);
                    }
                    recv.join().unwrap()
                }));
            }
            let makespan = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            let tcp = (threads * ops * size) as f64 / makespan as f64;

            row = row
                .cell(format!("lite{threads}_gbps"), lite)
                .cell(format!("verbs{threads}_gbps"), verbs)
                .cell(format!("rcm{threads}_gbps"), rcm)
                .cell(format!("tcp{threads}_gbps"), tcp);
        }
        rows.push(row);
    }
    rows
}

/// Figure 8: (de)registration vs LT_map/LT_unmap latency by size.
pub fn fig08(full: bool) -> Vec<Row> {
    let sizes_kb: &[u64] = &[1, 4, 16, 64, 256, 1024];
    let ops = if full { 100 } else { 30 };
    let mut rows = Vec::new();
    for &kb in sizes_kb {
        let size = kb * 1024;
        // Verbs register/deregister.
        let env = VerbsEnv::new(2);
        let mut ctx = Ctx::new();
        let (mut reg, mut dereg) = (Summary::new(), Summary::new());
        for _ in 0..ops {
            let va = env.spaces[1].mmap(size).unwrap();
            let t0 = ctx.now();
            let mr = env
                .fabric
                .nic(1)
                .register_mr(&mut ctx, &env.spaces[1], va, size, Access::RW)
                .unwrap();
            reg.record(ctx.now() - t0);
            let t1 = ctx.now();
            env.fabric.nic(1).deregister_mr(&mut ctx, &mr).unwrap();
            dereg.record(ctx.now() - t1);
            env.spaces[1].munmap(va).unwrap();
        }

        // LITE map/unmap (from a remote node — the full manager+master
        // path).
        let lenv = LiteEnv::new(2);
        let mut owner = lenv.cluster.attach(1).unwrap();
        let mut octx = Ctx::new();
        owner.lt_malloc(&mut octx, 1, size, "f8", Perm::RW).unwrap();
        let mut h = lenv.cluster.attach(0).unwrap();
        let mut lctx = Ctx::new();
        let (mut map, mut unmap) = (Summary::new(), Summary::new());
        for _ in 0..ops {
            let t0 = lctx.now();
            let lh = h.lt_map(&mut lctx, "f8").unwrap();
            map.record(lctx.now() - t0);
            let t1 = lctx.now();
            h.lt_unmap(&mut lctx, lh).unwrap();
            unmap.record(lctx.now() - t1);
        }
        rows.push(
            Row::new(format!("{kb}KB"))
                .cell("verbs_reg_us", reg.mean() / US)
                .cell("verbs_dereg_us", dereg.mean() / US)
                .cell("lite_map_us", map.mean() / US)
                .cell("lite_unmap_us", unmap.mean() / US),
        );
    }
    rows
}

/// Figure 17: LITE memory-op latency vs size.
pub fn fig17(full: bool) -> Vec<Row> {
    let sizes_kb: &[u64] = &[1, 4, 16, 64, 256, 1024];
    let ops = if full { 50 } else { 15 };
    let mut rows = Vec::new();
    let lenv = LiteEnv::new(3);
    let mut h = lenv.cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let mut uniq = 0u64;
    for &kb in sizes_kb {
        let size = kb * 1024;
        let (mut malloc, mut memset, mut memcpy, mut memcpy_local) = (
            Summary::new(),
            Summary::new(),
            Summary::new(),
            Summary::new(),
        );
        for _ in 0..ops {
            uniq += 1;
            let t0 = ctx.now();
            let a = h
                .lt_malloc(&mut ctx, 1, size, &format!("f17a.{uniq}"), Perm::RW)
                .unwrap();
            malloc.record(ctx.now() - t0);
            let b = h
                .lt_malloc(&mut ctx, 2, size, &format!("f17b.{uniq}"), Perm::RW)
                .unwrap();
            let c = h
                .lt_malloc(&mut ctx, 1, size, &format!("f17c.{uniq}"), Perm::RW)
                .unwrap();

            let t1 = ctx.now();
            h.lt_memset(&mut ctx, a, 0, size as usize, 0xAB).unwrap();
            memset.record(ctx.now() - t1);

            let t2 = ctx.now();
            h.lt_memcpy(&mut ctx, a, 0, b, 0, size as usize).unwrap();
            memcpy.record(ctx.now() - t2);

            let t3 = ctx.now();
            h.lt_memcpy(&mut ctx, a, 0, c, 0, size as usize).unwrap();
            memcpy_local.record(ctx.now() - t3);

            h.lt_free(&mut ctx, a).unwrap();
            h.lt_free(&mut ctx, b).unwrap();
            h.lt_free(&mut ctx, c).unwrap();
        }
        rows.push(
            Row::new(format!("{kb}KB"))
                .cell("malloc_us", malloc.mean() / US)
                .cell("memset_us", memset.mean() / US)
                .cell("memcpy_us", memcpy.mean() / US)
                .cell("memcpy_local_us", memcpy_local.mean() / US),
        );
    }
    rows
}

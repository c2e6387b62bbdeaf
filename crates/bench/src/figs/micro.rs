//! Microbenchmarks: Figures 4, 5, 6, 7, 8 and 17.

use std::sync::Arc;

use lite::{LiteHandle, Perm};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rnic::{Access, IbFabric, RemoteAddr, Sge, COST};
use simnet::{Ctx, Summary};
use transport::{RcmSock, TcpCostModel, TcpNet};

use crate::drive::drive;
use crate::env::{LiteEnv, VerbsEnv};
use crate::table::Row;

const US: f64 = 1_000.0;

/// A warmed verbs write path: node 0 → node 1, single source buffer.
struct VerbsWriter {
    fabric: Arc<IbFabric>,
    qp: Arc<rnic::Qp>,
    src_sge: Sge,
}

impl VerbsWriter {
    fn new(env: &VerbsEnv, max_size: usize) -> (Self, Ctx) {
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
        let fabric = Arc::clone(&env.fabric);
        (
            VerbsWriter {
                fabric,
                qp,
                src_sge,
            },
            ctx,
        )
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
        let (w, mut wctx) = VerbsWriter::new(&env, 64);
        wctx.wait_until(ctx.now());
        let mut rng = SmallRng::seed_from_u64(4);
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

/// Figure 5: pipelined write throughput vs total MR size: 8 blocking
/// writers, stepped lowest clock first, approximate the paper's request
/// pipelining. `lite_threads_64B` is the control column.
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
        let mut row = Row::new(format!("{mb}MB"));
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
            let mut writers: Vec<_> = (0..threads)
                .map(|t| {
                    let (w, ctx) = VerbsWriter::new(&env, 4096);
                    (ctx, (w, SmallRng::seed_from_u64(t as u64), 0))
                })
                .collect();
            let makespan = drive(
                &mut writers,
                |_, (.., i)| (*i < ops).then_some(0),
                |ctx, (w, rng, i)| {
                    let off = rng.gen_range(0..(total - req as u64)) & !63;
                    let remote = RemoteAddr {
                        rkey: mr.rkey(),
                        addr: region + off,
                    };
                    w.write_blocking(ctx, req, remote);
                    *i += 1;
                },
            );
            let verbs_tput = (threads * ops) as f64 / (makespan as f64 / 1000.0);

            // ---- LITE: one LMR; physical global MR underneath. ----
            let lenv = LiteEnv::new(2);
            let mut writers = lite_writers(&lenv, "f5", total, threads, 100);
            let buf = vec![1u8; req];
            let makespan = drive(
                &mut writers,
                |_, w| (w.done < ops).then_some(0),
                |ctx, w| {
                    let off = w.rng.gen_range(0..(total - req as u64)) & !63;
                    w.h.lt_write(ctx, w.lh, off, &buf).unwrap();
                    w.done += 1;
                },
            );
            let lite_tput = (threads * ops) as f64 / (makespan as f64 / 1000.0);
            row = row
                .cell(format!("lite_{label}"), lite_tput)
                .cell(format!("verbs_{label}"), verbs_tput);
        }
        rows.push(row.cell("lite_threads_64B", lite_threads_64b(total, threads, ops)));
    }
    rows
}

/// Fig 5's control column: the LITE 64 B writers as plain threads, each
/// on its own host schedule. A host-fast thread books the shared QPs far
/// in the virtual future and the others queue behind that booking, so
/// this column reads below `lite_64B` and moves from run to run. It keeps
/// that artifact in view until the product's concurrent runs are exact
/// (ROADMAP item 2).
fn lite_threads_64b(total: u64, threads: usize, ops: usize) -> f64 {
    let lenv = LiteEnv::new(2);
    let handles: Vec<_> = lite_writers(&lenv, "f5", total, threads, 100)
        .into_iter()
        .map(|(mut ctx, mut w)| {
            std::thread::spawn(move || {
                let start = ctx.now();
                for _ in 0..ops {
                    let off = w.rng.gen_range(0..(total - 64)) & !63;
                    w.h.lt_write(&mut ctx, w.lh, off, &[1u8; 64]).unwrap();
                }
                ctx.now() - start
            })
        })
        .collect();
    let makespan = handles.into_iter().map(|h| h.join().unwrap()).max();
    (threads * ops) as f64 / (makespan.unwrap() as f64 / 1000.0)
}

/// A LITE writer on node 0: its own handle with the LMR mapped, its
/// index, a seeded rng and the count of ops it has done.
pub(crate) struct LiteWriter {
    pub(crate) h: LiteHandle,
    pub(crate) lh: u64,
    pub(crate) t: usize,
    pub(crate) rng: SmallRng,
    pub(crate) done: usize,
}

/// Allocates the LMR `name` (`bytes` on node 1) and opens `threads`
/// writers on it, writer `t`'s rng seeded `seed + t`.
pub(crate) fn lite_writers(
    lenv: &LiteEnv,
    name: &str,
    bytes: u64,
    threads: usize,
    seed: u64,
) -> Vec<(Ctx, LiteWriter)> {
    {
        let mut h = lenv.cluster.attach(0).unwrap();
        let mut c = Ctx::new();
        h.lt_malloc(&mut c, 1, bytes, name, Perm::RW).unwrap();
    }
    (0..threads)
        .map(|t| {
            let mut h = lenv.cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            let lh = h.lt_map(&mut ctx, name).unwrap();
            let rng = SmallRng::seed_from_u64(seed + t as u64);
            (
                ctx,
                LiteWriter {
                    h,
                    lh,
                    t,
                    rng,
                    done: 0,
                },
            )
        })
        .collect()
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
        let (w, mut wctx) = VerbsWriter::new(&env, size);
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
            let mut writers = lite_writers(&lenv, "f7", region_bytes, threads, 0);
            let buf = vec![1u8; size];
            let makespan = drive(
                &mut writers,
                |_, w| (w.done < ops).then_some(0),
                |ctx, w| {
                    let off = (((w.t * ops + w.done) * size) as u64) % (region_bytes - size as u64);
                    w.h.lt_write(ctx, w.lh, off & !63, &buf).unwrap();
                    w.done += 1;
                },
            );
            let lite = (threads * ops * size) as f64 / makespan as f64;

            // Verbs (warm 4 MB region, within PTE reach — the paper's
            // Fig 7 microbenchmark, unlike Fig 5's thrashing sweep).
            let env = VerbsEnv::new(2);
            let mut ctx = Ctx::new();
            let dst_va = env.spaces[1].mmap(region_bytes).unwrap();
            let dst = env
                .fabric
                .nic(1)
                .register_mr(&mut ctx, &env.spaces[1], dst_va, region_bytes, Access::RW)
                .unwrap();
            let mut writers: Vec<_> = (0..threads)
                .map(|t| {
                    let (w, ctx) = VerbsWriter::new(&env, size);
                    (ctx, (w, t, 0))
                })
                .collect();
            let makespan = drive(
                &mut writers,
                |_, (.., i)| (*i < ops).then_some(0),
                |ctx, (w, t, i)| {
                    let off = (((*t * ops + *i) * size) as u64) % (region_bytes - size as u64);
                    let remote = RemoteAddr {
                        rkey: dst.rkey(),
                        addr: dst_va + (off & !63),
                    };
                    w.write_blocking(ctx, size, remote);
                    *i += 1;
                },
            );
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
        // The mapper starts where set-up ended: from 0 its first map
        // would wait out the registration's pinning on node 1's clock.
        let mut lctx = Ctx::new();
        lctx.wait_until(octx.now());
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

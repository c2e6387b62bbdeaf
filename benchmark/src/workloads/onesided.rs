//! `write-small` and `read-large`: one-sided ops from 8 contexts on node 0
//! to LMRs mastered on node 1.

use std::sync::Arc;

use lite::{Lh, LiteCluster, LiteHandle, Perm};
use simnet::Ctx;

use super::{fill, word, Spec, World};
use crate::driver::{self, Client, Phase, Progress, Round, Step};
use crate::gen::Rng;
use crate::trace::Tracer;

const CONTEXTS: usize = 8;
/// Per context; 8 x 8 MB = 64 MB = 16x the modelled PTE-cache reach
/// (1024 entries x 4 KB), so a lost global MR shows as PTE misses.
const LMR_BYTES: u64 = 8 << 20;
const SMALL: usize = 64;
/// read-large reads 1 to 3 of these: 8, 16 or 24 KB, 16 KB on average.
/// With the size seeded the link's queue — the whole latency of a
/// link-bound workload — is too.
const BLOCK: usize = 8 << 10;
const BLOCKS: u64 = LMR_BYTES / BLOCK as u64;
/// Slots read back per context by the end-state check.
const CHECK_SAMPLES: u64 = 256;

pub const WRITE_SMALL: Spec = Spec {
    name: "write-small",
    why: "8 closed-loop contexts of 64 B lt_write: every ns is per-op software + NIC engine (Fig 4/5), host cost is per-op overhead",
    contexts: CONTEXTS,
    round_ops: 25_000,
    slo_ns: None,
    open_loop: false,
    setup: |seed| Box::new(OneSided::setup(seed, false)),
};

pub const READ_LARGE: Spec = Spec {
    name: "read-large",
    why: "8 closed-loop contexts of 8-24 KB lt_read (16 KB mean): link-bound, so per-op software changes must show no change here, copy/bandwidth changes do",
    contexts: CONTEXTS,
    round_ops: 4_000,
    slo_ns: None,
    open_loop: false,
    setup: |seed| Box::new(OneSided::setup(seed, true)),
};

struct OneSidedCtx {
    h: LiteHandle,
    ctx: Ctx,
    lh: Lh,
    idx: u64,
    seed: u64,
    rng: Rng,
    left: usize,
    reads: bool,
    /// write-small: tag last written to each 64 B slot (0 = never).
    shadow: Vec<u64>,
    /// Next write tag; unique per context and never 0.
    next_tag: u64,
    buf: Vec<u8>,
}

impl OneSidedCtx {
    /// Tag of the preloaded block `block` of this context's LMR.
    fn block_tag(&self, block: u64) -> u64 {
        word(self.seed, self.idx << 32 | block)
    }
}

impl Client for OneSidedCtx {
    fn ctx(&mut self) -> &mut Ctx {
        &mut self.ctx
    }

    fn remaining(&self) -> usize {
        self.left
    }

    fn phase(&self) -> Phase {
        if self.reads {
            Phase::LtRead
        } else {
            Phase::LtWrite
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        self.left -= 1;
        let (h, lh) = (&mut self.h, self.lh);
        let ok = if self.reads {
            let blocks = 1 + self.rng.below(3);
            let first = self.rng.below(BLOCKS - blocks + 1);
            let buf = &mut self.buf[..blocks as usize * BLOCK];
            let res = tr.call("lite.api", "lt_read", &mut self.ctx, |ctx| {
                h.lt_read(ctx, lh, first * BLOCK as u64, buf)
            });
            res.is_ok()
                && (first..first + blocks)
                    .zip(self.buf.chunks_exact(BLOCK))
                    .all(|(block, got)| {
                        let tag = self.block_tag(block);
                        got.chunks_exact(8)
                            .enumerate()
                            .all(|(i, w)| w == word(tag, i as u64).to_le_bytes())
                    })
        } else {
            let slot = self.rng.below(LMR_BYTES / SMALL as u64);
            self.next_tag += 1;
            fill(self.next_tag, &mut self.buf);
            let buf = &self.buf;
            let res = tr.call("lite.api", "lt_write", &mut self.ctx, |ctx| {
                h.lt_write(ctx, lh, slot * SMALL as u64, buf)
            });
            self.shadow[slot as usize] = self.next_tag;
            res.is_ok()
        };
        Step::Done { ok }
    }
}

struct OneSided {
    cluster: Arc<LiteCluster>,
    seed: u64,
    clients: Vec<OneSidedCtx>,
}

impl OneSided {
    fn setup(seed: u64, reads: bool) -> Self {
        let cluster = LiteCluster::start(2).expect("cluster start");
        let clients = (0..CONTEXTS as u64)
            .map(|idx| {
                let mut h = cluster.attach(0).expect("attach");
                let mut ctx = Ctx::new();
                let name = format!("onesided.{idx}");
                let lh = h
                    .lt_malloc(&mut ctx, 1, LMR_BYTES, &name, Perm::RW)
                    .expect("lt_malloc");
                let mut c = OneSidedCtx {
                    h,
                    ctx,
                    lh,
                    idx,
                    seed,
                    rng: Rng::new(0),
                    left: 0,
                    reads,
                    shadow: Vec::new(),
                    next_tag: idx << 48,
                    buf: vec![0; if reads { 3 * BLOCK } else { SMALL }],
                };
                if reads {
                    // Preload the pattern the reads verify, 64 KB a write.
                    let mut chunk = vec![0u8; 8 * BLOCK];
                    for piece in 0..LMR_BYTES / chunk.len() as u64 {
                        for (b, block) in chunk.chunks_mut(BLOCK).enumerate() {
                            fill(c.block_tag(piece * 8 + b as u64), block);
                        }
                        c.h.lt_write(&mut c.ctx, lh, piece * chunk.len() as u64, &chunk)
                            .expect("preload");
                    }
                } else {
                    c.shadow = vec![0; (LMR_BYTES / SMALL as u64) as usize];
                }
                c
            })
            .collect();
        OneSided {
            cluster,
            seed,
            clients,
        }
    }
}

impl World for OneSided {
    fn cluster(&self) -> &Arc<LiteCluster> {
        &self.cluster
    }

    fn round(&mut self, round: u64, ops: usize, tr: &mut Tracer, pg: &Progress) -> Round {
        for c in &mut self.clients {
            c.rng = Rng::stream(self.seed, round << 8 | c.idx);
            c.left = ops;
        }
        let mut app = driver::app_work(self.seed, round, self.clients.len());
        driver::run(&mut self.clients, &mut app, tr, pg)
    }

    /// write-small: sampled read-back equals the shadow. (read-large
    /// verifies every read as it completes.)
    fn check(&mut self) -> (u64, u64) {
        let (mut checked, mut failed) = (0, 0);
        for c in self.clients.iter_mut().filter(|c| !c.reads) {
            let mut rng = Rng::stream(self.seed, 0xc4ec << 8 | c.idx);
            let written: Vec<usize> = (0..c.shadow.len()).filter(|&s| c.shadow[s] != 0).collect();
            for _ in 0..CHECK_SAMPLES.min(written.len() as u64) {
                let slot = written[rng.below(written.len() as u64) as usize];
                let mut got = [0u8; SMALL];
                let mut want = [0u8; SMALL];
                fill(c.shadow[slot], &mut want);
                let res =
                    c.h.lt_read(&mut c.ctx, c.lh, (slot * SMALL) as u64, &mut got);
                checked += 1;
                failed += u64::from(res.is_err() || got != want);
            }
        }
        (checked, failed)
    }

    fn teardown(self: Box<Self>) {}
}

//! `txn-write-heavy` and `txn-read-heavy`: serializable OCC transactions
//! over 64 zipfian records mastered on node 3, from 6 contexts on nodes
//! 0-2. A transaction is three steps — `read a` | `read b` | `commit` —
//! so contexts interleave mid-transaction and conflicts are real.

use std::sync::Arc;

use lite::{LiteCluster, LiteHandle};
use lite_txn::{TableSpec, Txn, TxnError, TxnTable};
use simnet::Ctx;

use super::{Spec, World};
use crate::driver::{self, Client, Phase, Progress, Round, Step};
use crate::gen::{Rng, Zipf};
use crate::trace::Tracer;

const CONTEXTS: usize = 6;
const CLIENT_NODES: usize = 3;
const HOME: usize = 3;
const RECORDS: u64 = 64;
const THETA: f64 = 0.99;
const INITIAL: u64 = 100;
const TABLE: &str = "benchmark.txn";
/// lite-txn leases are host-wall milliseconds, 50 by default: a 50 ms host
/// stall inside one commit (a busy VM is enough) would expire it and turn
/// the op into `Indeterminate`. No workload here crashes a committer, so a
/// minute-long lease changes nothing else.
pub const LEASE_MS: u64 = 60_000;
/// An op that conflicts this often in a row counts as failed.
const MAX_ATTEMPTS: u32 = 256;

pub const WRITE_HEAVY: Spec = Spec {
    name: "txn-write-heavy",
    why: "6 contexts, zipf 0.99 over 64 records, 50% read-2-write-2: a read-write commit is ~5x a read-only one in sequential round trips (ROADMAP 5a)",
    contexts: CONTEXTS,
    round_ops: 8_000,
    slo_ns: None,
    open_loop: false,
    setup: |seed| Box::new(TxnWorld::setup(seed, 50)),
};

pub const READ_HEAVY: Spec = Spec {
    name: "txn-read-heavy",
    why: "same table, 95% read-only: takes no locks, so lock-path batching should not move it and validation-path changes should",
    contexts: CONTEXTS,
    round_ops: 16_000,
    slo_ns: None,
    open_loop: false,
    setup: |seed| Box::new(TxnWorld::setup(seed, 95)),
};

fn u64_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte record"))
}

/// Where a transaction is between steps.
enum Stage {
    ReadA,
    ReadB { va: u64 },
    Commit { va: u64, vb: u64 },
}

struct TxnClient<'a> {
    h: &'a mut LiteHandle,
    ctx: &'a mut Ctx,
    table: &'a TxnTable,
    zipf: &'a Zipf,
    read_pct: u64,
    rng: Rng,
    left: usize,
    /// The op in flight: two distinct records and whether it only reads.
    op: (u64, u64, bool),
    txn: Option<Txn<'a>>,
    stage: Stage,
    attempt: u32,
}

impl TxnClient<'_> {
    fn next_op(&mut self) {
        let a = self.zipf.sample(&mut self.rng) as u64;
        let mut b = self.zipf.sample(&mut self.rng) as u64;
        if b == a {
            b = (a + 1) % RECORDS;
        }
        self.op = (a, b, self.rng.below(100) < self.read_pct);
        self.stage = Stage::ReadA;
        self.attempt = 0;
    }

    /// After a clean conflict: txnbench's backoff, then the op restarts
    /// from its first read (or fails for good).
    fn retry(&mut self) -> Step {
        self.ctx.work(200 << self.attempt.min(4));
        self.attempt += 1;
        self.stage = Stage::ReadA;
        if self.attempt < MAX_ATTEMPTS {
            Step::Mid
        } else {
            self.finish(false)
        }
    }

    fn finish(&mut self, ok: bool) -> Step {
        self.left -= 1;
        if self.left > 0 {
            self.next_op();
        }
        Step::Done { ok }
    }

    fn read(&mut self, tr: &mut Tracer, rec: u64) -> Result<u64, TxnError> {
        let txn = self.txn.get_or_insert_with(|| self.table.begin());
        let h = &mut *self.h;
        tr.call("lite-txn", "Txn::read", self.ctx, |ctx| {
            txn.read(h, ctx, rec)
        })
        .map(|v| u64_of(&v))
    }

    /// A failed read: drop the transaction, then retry or give up.
    fn read_failed(&mut self, e: TxnError) -> Step {
        if let Some(txn) = self.txn.take() {
            txn.abort(self.h, self.ctx);
        }
        match e {
            TxnError::Conflict { .. } => self.retry(),
            _ => self.finish(false),
        }
    }
}

impl Client for TxnClient<'_> {
    fn ctx(&mut self) -> &mut Ctx {
        self.ctx
    }

    fn remaining(&self) -> usize {
        self.left
    }

    fn phase(&self) -> Phase {
        match self.stage {
            Stage::Commit { .. } => Phase::TxnCommit,
            _ => Phase::TxnRead,
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let (a, b, read_only) = self.op;
        match self.stage {
            Stage::ReadA => match self.read(tr, a) {
                Ok(va) => {
                    self.stage = Stage::ReadB { va };
                    Step::Mid
                }
                Err(e) => self.read_failed(e),
            },
            Stage::ReadB { va } => match self.read(tr, b) {
                Ok(vb) => {
                    self.stage = Stage::Commit { va, vb };
                    Step::Mid
                }
                Err(e) => self.read_failed(e),
            },
            Stage::Commit { va, vb } => {
                let mut txn = self.txn.take().expect("reads began the transaction");
                if !read_only {
                    // A transfer: the sum over all records is conserved.
                    txn.write(a, &va.wrapping_add(1).to_le_bytes())
                        .and_then(|()| txn.write(b, &vb.wrapping_sub(1).to_le_bytes()))
                        .expect("two 8-byte writes fit the table");
                }
                let h = &mut *self.h;
                match tr.call("lite-txn", "Txn::commit", self.ctx, |ctx| {
                    txn.commit(h, ctx)
                }) {
                    Ok(()) => self.finish(true),
                    Err(TxnError::Conflict { .. }) => self.retry(),
                    Err(_) => self.finish(false),
                }
            }
        }
    }
}

struct TxnWorld {
    cluster: Arc<LiteCluster>,
    seed: u64,
    read_pct: u64,
    zipf: Zipf,
    /// One endpoint per context, on nodes 0-2 round-robin.
    ends: Vec<(LiteHandle, Ctx, TxnTable)>,
    /// Cluster-wide `txn_commits` when set-up finished.
    commits_at_start: u64,
    committed: u64,
}

fn txn_commits(cluster: &LiteCluster) -> u64 {
    (0..cluster.num_nodes())
        .map(|n| cluster.kernel(n).stats().txn_commits)
        .sum()
}

impl TxnWorld {
    fn setup(seed: u64, read_pct: u64) -> Self {
        let cluster = LiteCluster::start(CLIENT_NODES + 1).expect("cluster start");
        {
            let mut h = cluster.attach(0).expect("attach");
            let mut ctx = Ctx::new();
            let spec = TableSpec {
                lease_ms: LEASE_MS,
                ..TableSpec::new(RECORDS, 8)
            };
            let table = TxnTable::create(&mut h, &mut ctx, HOME, TABLE, spec).expect("create");
            for first in (0..RECORDS).step_by(spec.max_writes) {
                let mut init = table.begin();
                for rec in first..RECORDS.min(first + spec.max_writes as u64) {
                    init.write(rec, &INITIAL.to_le_bytes()).expect("init write");
                }
                init.commit(&mut h, &mut ctx).expect("init commit");
            }
        }
        let ends = (0..CONTEXTS)
            .map(|i| {
                let mut h = cluster.attach(i % CLIENT_NODES).expect("attach");
                let mut ctx = Ctx::new();
                let table = TxnTable::open(&mut h, &mut ctx, TABLE).expect("open");
                (h, ctx, table)
            })
            .collect();
        TxnWorld {
            commits_at_start: txn_commits(&cluster),
            cluster,
            seed,
            read_pct,
            zipf: Zipf::new(RECORDS as usize, THETA),
            ends,
            committed: 0,
        }
    }
}

impl World for TxnWorld {
    fn cluster(&self) -> &Arc<LiteCluster> {
        &self.cluster
    }

    fn round(&mut self, round: u64, ops: usize, tr: &mut Tracer, pg: &Progress) -> Round {
        let mut clients: Vec<TxnClient<'_>> = self
            .ends
            .iter_mut()
            .enumerate()
            .map(|(i, (h, ctx, table))| {
                let mut c = TxnClient {
                    h,
                    ctx,
                    table,
                    zipf: &self.zipf,
                    read_pct: self.read_pct,
                    rng: Rng::stream(self.seed, round << 8 | i as u64),
                    left: ops,
                    op: (0, 0, true),
                    txn: None,
                    stage: Stage::ReadA,
                    attempt: 0,
                };
                c.next_op();
                c
            })
            .collect();
        let mut app = driver::app_work(self.seed, round, clients.len());
        let r = driver::run(&mut clients, &mut app, tr, pg);
        self.committed += r.ops - r.failed;
        r
    }

    /// The sum over all records is what set-up wrote, and the kernels
    /// counted exactly the commits the harness saw succeed.
    fn check(&mut self) -> (u64, u64) {
        let counted = txn_commits(&self.cluster) - self.commits_at_start;
        let (h, ctx, table) = &mut self.ends[0];
        let mut txn = table.begin();
        let mut sum = 0u64;
        let mut read_ok = true;
        for rec in 0..RECORDS {
            match txn.read(h, ctx, rec) {
                Ok(v) => sum = sum.wrapping_add(u64_of(&v)),
                Err(_) => read_ok = false,
            }
        }
        let snapshot_ok = read_ok && txn.commit(h, ctx).is_ok();
        let conserved = snapshot_ok && sum == RECORDS * INITIAL;
        (
            2,
            u64::from(!conserved) + u64::from(counted != self.committed),
        )
    }

    fn teardown(self: Box<Self>) {}
}

//! `kv-closed` and `kv-open`: the whole stack — lite-kv over lite-log over
//! RPC over the datapath — from client contexts on node 0 against a
//! leader on node 1 and followers on nodes 2 and 3.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite::LiteCluster;
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use simnet::{Ctx, Nanos};

use super::{fill, word, Spec, World};
use crate::driver::{self, Client, Phase, Progress, Round, Step};
use crate::gen::{exact_mix, poisson_schedule, Rng, Zipf};
use crate::metrics::percentile;
use crate::trace::Tracer;

const LEADER: usize = 1;
const FOLLOWERS: [usize; 2] = [2, 3];
const KEYS: usize = 10_000;
const VALUE: usize = 64;
const THETA: f64 = 0.99;
const GET_SHARE: f64 = 0.9;
/// kv-open: aggregate offered load on the virtual clock. About a quarter
/// of the 8-context capacity, where the tail still repeats run to run.
const OPEN_RATE: f64 = 200_000.0;
/// The end-state scan reads every key put during the run and one in this
/// many of the others.
const CHECK_STRIDE: usize = 16;
/// How long replication may take to drain before the check gives up.
const QUIESCE: Duration = Duration::from_secs(10);

pub const CLOSED: Spec = Spec {
    name: "kv-closed",
    why: "4 closed-loop contexts, zipf 0.99 over 10k keys, 90% get / 10% put of 64 B: the whole stack (lite-kv, lite-log, rpc, datapath, rnic) at capacity",
    contexts: 4,
    round_ops: 1_500,
    slo_ns: None,
    open_loop: false,
    setup: |seed| Box::new(KvWorld::setup(seed, 4, false)),
};

pub const OPEN: Spec = Spec {
    name: "kv-open",
    why: "8 contexts replaying seeded Poisson schedules at 200 kops/s aggregate, latency from due time: what a service user sees at a fixed offered load, queueing included",
    contexts: 8,
    round_ops: 1_000,
    slo_ns: Some(25_000),
    open_loop: true,
    setup: |seed| Box::new(KvWorld::setup(seed, 8, true)),
};

fn key_of(id: usize) -> Vec<u8> {
    format!("key:{id:06}").into_bytes()
}

/// The 64 B value of version `version` of key `id`.
fn value_of(id: usize, version: u64) -> [u8; VALUE] {
    let mut v = [0u8; VALUE];
    v[..8].copy_from_slice(&(id as u64).to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    fill(word(id as u64, version), &mut v[16..]);
    v
}

/// The version a well-formed value of key `id` carries.
fn version_in(id: usize, value: &[u8]) -> Option<u64> {
    let version = u64::from_le_bytes(value.get(8..16)?.try_into().ok()?);
    (value == value_of(id, version)).then_some(version)
}

/// What the contexts of one world share (one thread drives them all):
/// the last version put per key, and what the ops measured.
struct Shared {
    versions: Vec<u64>,
    next_version: u64,
    get_lat: Vec<Nanos>,
    put_lat: Vec<Nanos>,
    /// Most records a follower was seen behind the leader, sampled after
    /// every op.
    lag_max: u64,
}

struct KvCtx<'a> {
    client: &'a mut KvClient,
    ctx: &'a mut Ctx,
    svc: &'a KvService,
    shared: &'a RefCell<Shared>,
    zipf: &'a Zipf,
    rng: Rng,
    left: usize,
    /// Open loop: due times of this round's ops.
    schedule: Option<Vec<Nanos>>,
    /// Which of this round's ops are gets: exactly `GET_SHARE` of them.
    gets: Vec<bool>,
    /// The op the next step makes: key and whether it is a get.
    op: (usize, bool),
}

impl KvCtx<'_> {
    fn next_op(&mut self) {
        let is_get = self.gets[self.gets.len() - self.left];
        self.op = (self.zipf.sample(&mut self.rng), is_get);
    }
}

impl Client for KvCtx<'_> {
    fn ctx(&mut self) -> &mut Ctx {
        self.ctx
    }

    fn remaining(&self) -> usize {
        self.left
    }

    fn due(&self) -> Option<Nanos> {
        self.schedule.as_ref().map(|s| s[s.len() - self.left])
    }

    fn phase(&self) -> Phase {
        if self.op.1 {
            Phase::KvGet
        } else {
            Phase::KvPut
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let (id, is_get) = self.op;
        let key = key_of(id);
        // Open loop: timed from the due time, like the driver does.
        let begin = self.due().unwrap_or(self.ctx.now());
        let client = &mut *self.client;
        let ok = if is_get {
            let got = tr.call("lite-kv", "KvClient::get", self.ctx, |ctx| {
                client.get(ctx, &key)
            });
            let mut shared = self.shared.borrow_mut();
            shared.get_lat.push(self.ctx.now() - begin);
            // An eventual read may be stale, never torn, absent or from
            // the future: every key was put before the first round.
            let known = 1..=shared.versions[id];
            matches!(got, Ok(Some(v)) if version_in(id, &v).is_some_and(|ver| known.contains(&ver)))
        } else {
            let mut shared = self.shared.borrow_mut();
            shared.next_version += 1;
            let version = shared.next_version;
            let value = value_of(id, version);
            let put = tr.call("lite-kv", "KvClient::put", self.ctx, |ctx| {
                client.put(ctx, &key, &value)
            });
            shared.put_lat.push(self.ctx.now() - begin);
            // Blocking puts from one thread: completion order is commit order.
            if put.is_ok() {
                shared.versions[id] = version;
            }
            put.is_ok()
        };
        let applied = FOLLOWERS.iter().map(|&f| self.svc.applied_seq(f)).min();
        let lag = self
            .svc
            .committed_seq()
            .saturating_sub(applied.unwrap_or(0));
        let mut shared = self.shared.borrow_mut();
        shared.lag_max = shared.lag_max.max(lag);
        drop(shared);
        self.left -= 1;
        if self.left > 0 {
            self.next_op();
        }
        Step::Done { ok }
    }
}

struct KvWorld {
    cluster: Arc<LiteCluster>,
    seed: u64,
    open_loop: bool,
    spec: KvSpec,
    svc: Option<KvService>,
    zipf: Zipf,
    ends: Vec<(KvClient, Ctx)>,
    shared: RefCell<Shared>,
}

impl KvWorld {
    fn setup(seed: u64, contexts: usize, open_loop: bool) -> Self {
        let cluster = LiteCluster::start(4).expect("cluster start");
        let mut spec = KvSpec::new("benchmark.kv", LEADER, &FOLLOWERS);
        spec.log_capacity = 16 << 20;
        spec.arena_bytes = 4 << 20;
        let svc = KvService::spawn(&cluster, spec.clone());
        let mut ends: Vec<(KvClient, Ctx)> = (0..contexts)
            .map(|_| {
                let c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual);
                (c.expect("connect"), Ctx::new())
            })
            .collect();
        let (loader, ctx) = &mut ends[0];
        for id in 0..KEYS {
            loader
                .put(ctx, &key_of(id), &value_of(id, 1))
                .expect("preload put");
        }
        KvWorld {
            cluster,
            seed,
            open_loop,
            spec,
            svc: Some(svc),
            zipf: Zipf::new(KEYS, THETA),
            ends,
            shared: RefCell::new(Shared {
                versions: vec![1; KEYS],
                next_version: 1,
                get_lat: Vec::new(),
                put_lat: Vec::new(),
                lag_max: 0,
            }),
        }
    }

    fn svc(&self) -> &KvService {
        self.svc.as_ref().expect("service running")
    }

    /// Waits until every follower has applied what the leader committed.
    fn quiesce(&self) -> bool {
        let deadline = Instant::now() + QUIESCE;
        loop {
            let committed = self.svc().committed_seq();
            if FOLLOWERS
                .iter()
                .all(|&f| self.svc().applied_seq(f) == committed)
            {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl World for KvWorld {
    fn cluster(&self) -> &Arc<LiteCluster> {
        &self.cluster
    }

    fn round(&mut self, round: u64, ops: usize, tr: &mut Tracer, pg: &Progress) -> Round {
        let contexts = self.ends.len();
        let base = self
            .ends
            .iter()
            .map(|(_, ctx)| ctx.now())
            .max()
            .unwrap_or(0);
        let svc = self.svc.as_ref().expect("service running");
        let mut clients: Vec<KvCtx<'_>> = self
            .ends
            .iter_mut()
            .enumerate()
            .map(|(i, (client, ctx))| {
                let mut rng = Rng::stream(self.seed, round << 8 | i as u64);
                let schedule = self.open_loop.then(|| {
                    let mut s = poisson_schedule(&mut rng, ops, OPEN_RATE / contexts as f64);
                    s.iter_mut().for_each(|t| *t += base);
                    s
                });
                let gets = exact_mix(&mut rng, ops, GET_SHARE);
                let mut c = KvCtx {
                    client,
                    ctx,
                    svc,
                    shared: &self.shared,
                    zipf: &self.zipf,
                    rng,
                    left: ops,
                    gets,
                    schedule,
                    op: (0, true),
                };
                c.next_op();
                c
            })
            .collect();
        let mut app = driver::app_work(self.seed, round, clients.len());
        driver::run(&mut clients, &mut app, tr, pg)
    }

    /// After replication drains, a read-your-writes scan on every replica
    /// equals the shadow map: every key put since set-up and every
    /// `CHECK_STRIDE`th of the rest.
    fn check(&mut self) -> (u64, u64) {
        if !self.quiesce() {
            return (1, 1);
        }
        let (mut checked, mut failed) = (0, 0);
        let shared = self.shared.borrow();
        for node in self.spec.replicas() {
            let mode = SessionMode::ReadYourWrites;
            let mut c = KvClient::connect(&self.cluster, 0, &self.spec, mode).expect("connect");
            c.prefer_replica(node);
            let mut ctx = Ctx::new();
            let scanned = shared
                .versions
                .iter()
                .enumerate()
                .filter(|(id, &version)| version > 1 || id % CHECK_STRIDE == 0);
            for (id, &version) in scanned {
                let got = c.get(&mut ctx, &key_of(id));
                checked += 1;
                failed += u64::from(!matches!(got, Ok(Some(v)) if v == value_of(id, version)));
            }
        }
        (checked, failed)
    }

    fn layer_metrics(&mut self, out: &mut Vec<(&'static str, f64)>) {
        let shared = self.shared.get_mut();
        shared.get_lat.sort_unstable();
        shared.put_lat.sort_unstable();
        let us = |lat: &[Nanos], p: f64| percentile(lat, p) as f64 / 1e3;
        out.push(("lite-kv.get.p50_us", us(&shared.get_lat, 50.0)));
        out.push(("lite-kv.get.p99_us", us(&shared.get_lat, 99.0)));
        out.push(("lite-kv.put.p50_us", us(&shared.put_lat, 50.0)));
        out.push(("lite-kv.put.p99_us", us(&shared.put_lat, 99.0)));
        out.push(("lite-kv.replication_lag_max", shared.lag_max as f64));
    }

    fn teardown(mut self: Box<Self>) {
        // Let replication drain first: a replicator caught mid-multicast
        // by `stop()` waits out two 5 s op timeouts for followers that have
        // already left.
        self.quiesce();
        self.svc.take().expect("service running").stop();
    }
}

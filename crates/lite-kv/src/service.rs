//! The replicated KV service proper: leader, followers, replicator, and
//! the client. The leader and followers are served functions with no
//! thread of their own; the replicator, the one thread, sleeps until a
//! batch is committed (or its 1 ms window ends). See the crate docs and
//! DESIGN.md §15 for the protocol.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use lite::{
    Lh, LiteCluster, LiteError, LiteHandle, LiteResult, Perm, Priority, RpcHandler, RpcServer,
    USER_FUNC_MIN,
};
use lite_log::LiteLog;
use rnic::COST;
use simnet::wait::{Deadline, Event};
use simnet::Ctx;

use crate::record::{self, Slot, HEADER};
use crate::{KvError, KvResult};

/// The three service functions' RPC ids: the first user ids.
const FN_PUT: u8 = USER_FUNC_MIN;
const FN_GET: u8 = USER_FUNC_MIN + 1;
const FN_REPL: u8 = USER_FUNC_MIN + 2;

/// Commits per replication round: the replicator sleeps until this many
/// wait, or until `IDLE_WAIT` passes, before it tells the followers how
/// far the log is committed.
const REPL_BATCH: u64 = 32;
/// Most log bytes one catch-up read takes.
const REPL_BYTES: u64 = 64 * 1024;

/// GET reply status bytes.
const GET_HIT: u8 = 0;
const GET_MISS: u8 = 1;
const GET_BEHIND: u8 = 2;

/// PUT reply status bytes.
const PUT_OK: u8 = 0;
const PUT_STORE_FULL: u8 = 1;
const PUT_LOG_FULL: u8 = 2;
/// The log commit failed for a reason other than space (time-out, dead
/// peer); the client surfaces it as `LiteError::Remote`.
const PUT_COMMIT_FAILED: u8 = 3;

/// Reply status, PUT and GET, of a request that does not parse.
const BAD_REQUEST: u8 = 0xFF;

/// A `PUT_OK` reply, and what a `GET_HIT` one carries before the value:
/// status, a sequence number (assigned / applied), then at `LOC_AT` the
/// slot's `(off u64, cap u32)`.
const REPLY_HEAD: usize = LOC_AT + 8 + 4;
const LOC_AT: usize = 1 + 8;

/// A node's location cache: this many 16 B entries (256 KiB) in sets of
/// `LOC_CACHE_WAYS`, the sets dealt over `LOC_CACHE_STRIPES` locks.
const LOC_CACHE_ENTRIES: usize = 16 * 1024;
const LOC_CACHE_WAYS: usize = 4;
const LOC_CACHE_STRIPES: usize = 64;

/// How many replicator rounds a follower sits out of the replication
/// fan-out after a failed multicast before it is probed again. A round is
/// one batch under load and at most `IDLE_WAIT` when idle.
const DOWN_ROUNDS: u32 = 20;

/// Value arena allocations are rounded up to this, so in-place
/// overwrites absorb small size changes.
const ARENA_ALIGN: u64 = 8;

/// Static description of one KV service instance.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Service name; prefixes every LMR the service allocates.
    pub name: String,
    /// Node hosting the leader (write path + ordering log).
    pub leader: usize,
    /// Follower replica nodes (read path + redundancy).
    pub followers: Vec<usize>,
    /// Byte capacity of the ordering log ring.
    pub log_capacity: u64,
    /// Byte capacity of each replica's value arena.
    pub arena_bytes: u64,
    /// Largest value a client may read back (sizes reply buffers).
    pub max_value: usize,
    /// Per-node artificial apply cost (virtual ns per update), for
    /// modelling deliberately slow consumer replicas.
    pub slow_followers: Vec<(usize, u64)>,
}

impl KvSpec {
    /// A spec with defaults sized for tests and CI smoke runs.
    pub fn new(name: &str, leader: usize, followers: &[usize]) -> KvSpec {
        KvSpec {
            name: name.to_string(),
            leader,
            followers: followers.to_vec(),
            log_capacity: 4 << 20,
            arena_bytes: 1 << 20,
            max_value: 4096,
            slow_followers: Vec::new(),
        }
    }

    /// All replica nodes, leader first.
    pub fn replicas(&self) -> Vec<usize> {
        let mut v = vec![self.leader];
        v.extend_from_slice(&self.followers);
        v
    }

    fn apply_delay(&self, node: usize) -> u64 {
        self.slow_followers
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(0, |(_, d)| *d)
    }
}

/// Per-replica state shared between the handlers, the replicator and the
/// accessors tests use.
struct ReplicaState {
    node: usize,
    /// Highest sequence number applied to this replica's store.
    applied: AtomicU64,
    /// Log offset of the record carrying `applied + 1`.
    next_off: AtomicU64,
    /// Test hook: a paused follower acks but does not apply, modelling
    /// a stalled consumer; it catches up from the log when resumed.
    paused: AtomicBool,
}

/// One record of the event log, as returned by [`KvClient::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvEvent {
    /// Log offset of this record.
    pub offset: u64,
    /// Offset of the next record (pass back to continue scanning).
    pub next: u64,
    /// Key written.
    pub key: Vec<u8>,
    /// Value written.
    pub value: Vec<u8>,
}

/// Read-consistency mode of a [`KvClient`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Reads take whatever the chosen replica has applied — possibly
    /// stale, never blocking on replication.
    Eventual,
    /// Reads carry the session's last written sequence number; a replica
    /// that has not applied that far reports "behind" and the client
    /// retries on the leader.
    ReadYourWrites,
}

// ---------------------------------------------------------------------------
// Wire encoding (little-endian throughout).
// ---------------------------------------------------------------------------

/// A put request, encoded into `b` (cleared first; a client reuses one).
fn enc_put(b: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    b.clear();
    b.extend_from_slice(&(key.len() as u16).to_le_bytes());
    b.extend_from_slice(key);
    b.extend_from_slice(value);
}

fn dec_put(req: &[u8]) -> Option<(&[u8], &[u8])> {
    let klen = u16::from_le_bytes(req.get(0..2)?.try_into().ok()?) as usize;
    let key = req.get(2..2 + klen)?;
    Some((key, &req[2 + klen..]))
}

fn enc_get(need_seq: u64, key: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 + key.len());
    b.extend_from_slice(&need_seq.to_le_bytes());
    b.extend_from_slice(key);
    b
}

/// A replication notice `(committed, end)` and a follower's ack
/// `(applied, next_off)`: two words.
fn enc_pair(a: u64, b: u64) -> [u8; 16] {
    let mut p = [0u8; 16];
    p[..8].copy_from_slice(&a.to_le_bytes());
    p[8..].copy_from_slice(&b.to_le_bytes());
    p
}

fn dec_pair(p: &[u8]) -> Option<(u64, u64)> {
    let (a, rest) = p.split_first_chunk()?;
    Some((
        u64::from_le_bytes(*a),
        u64::from_le_bytes(*rest.first_chunk()?),
    ))
}

/// Size of the log record a (key, value) update commits as.
fn update_record_size(key: &[u8], value: &[u8]) -> u64 {
    LiteLog::record_size(&[key, value])
}

// ---------------------------------------------------------------------------
// Replica store: a bump-allocated value arena (an LMR, so mm tiering
// applies) plus an in-memory index. Every slot holds a self-verifying
// `record`, and replicas apply the same updates in the same order, so a
// key's slot sits at the same offset in every replica's arena.
// ---------------------------------------------------------------------------

fn arena_name(service: &str, node: usize) -> String {
    format!("{service}.arena{node}")
}

/// A key's slot: `HEADER + cap` bytes at `off`, `len` of them value.
#[derive(Clone, Copy)]
struct Loc {
    off: u64,
    len: u32,
    cap: u32,
}

impl Loc {
    /// `(off, cap)` as replies carry it.
    fn append_to(&self, reply: &mut Vec<u8>) {
        reply.extend_from_slice(&self.off.to_le_bytes());
        reply.extend_from_slice(&self.cap.to_le_bytes());
    }
}

struct Store {
    arena: Lh,
    cap: u64,
    bump: u64,
    index: HashMap<Vec<u8>, Loc>,
}

impl Store {
    /// The arena is read-only to whoever maps it by name: only this
    /// replica (which holds `MASTER`) ever writes it.
    fn create(h: &mut LiteHandle, ctx: &mut Ctx, spec: &KvSpec, node: usize) -> KvResult<Store> {
        let name = arena_name(&spec.name, node);
        let arena = h.lt_malloc(ctx, node, spec.arena_bytes, &name, Perm::RO)?;
        Ok(Store {
            arena,
            cap: spec.arena_bytes,
            bump: 0,
            index: HashMap::new(),
        })
    }

    fn aligned(len: usize) -> u64 {
        (len.max(1) as u64).div_ceil(ARENA_ALIGN) * ARENA_ALIGN
    }

    /// Whether `apply` would succeed — checked on the leader *before*
    /// the log commit, so only applyable updates enter the order.
    fn can_apply(&self, key: &[u8], vlen: usize) -> bool {
        match self.index.get(key) {
            Some(loc) if vlen <= loc.cap as usize => true,
            _ => self.bump + HEADER as u64 + Self::aligned(vlen) <= self.cap,
        }
    }

    /// Writes update `seq` into `key`'s slot — in place when the value
    /// fits, else into a fresh slot, leaving a tombstone over the old one
    /// so a reader that still holds its location asks again.
    fn apply(
        &mut self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        seq: u64,
        key: &[u8],
        value: &[u8],
    ) -> KvResult<Loc> {
        let rec = record::live(seq, key, value);
        ctx.work(check_cost(rec.len()));
        if let Some(loc) = self.index.get_mut(key) {
            if value.len() <= loc.cap as usize {
                h.lt_write(ctx, self.arena, loc.off, &rec)?;
                loc.len = value.len() as u32;
                return Ok(*loc);
            }
        }
        let cap = Self::aligned(value.len());
        if self.bump + HEADER as u64 + cap > self.cap {
            return Err(KvError::StoreFull);
        }
        let loc = Loc {
            off: self.bump,
            len: value.len() as u32,
            cap: cap as u32,
        };
        h.lt_write(ctx, self.arena, loc.off, &rec)?;
        self.bump += HEADER as u64 + cap;
        if let Some(old) = self.index.insert(key.to_vec(), loc) {
            h.lt_write(ctx, self.arena, old.off, &record::tombstone(seq, key))?;
        }
        Ok(loc)
    }
}

/// CPU a record's check costs its writer and each reader: one pass over
/// the bytes.
fn check_cost(len: usize) -> u64 {
    COST.memcpy_time(len as u64)
}

// ---------------------------------------------------------------------------
// Service.
// ---------------------------------------------------------------------------

/// A running KV service: the leader and the followers are served
/// functions, run by whichever thread delivers a call to them (DESIGN.md
/// §15), and one replicator thread sleeps until a batch is ready.
pub struct KvService {
    spec: KvSpec,
    repl: Arc<Replication>,
    replicator: JoinHandle<()>,
    replicas: Vec<Arc<ReplicaState>>,
    /// The replicas' servers: their functions are served while these live.
    _servers: Vec<Arc<RpcServer>>,
}

/// What the service, the leader and the replicator share about
/// replication.
#[derive(Default)]
struct Replication {
    /// Set by `stop()`; the replicator leaves at its next wake-up.
    stop: AtomicBool,
    /// Last committed seq the replicator has told the followers about.
    notified: AtomicU64,
    /// Last replication lag the replicator computed.
    lag: AtomicU64,
    /// What the replicator parks on between batches; woken by the leader
    /// ([`Replication::applied`]) and by `stop()`.
    batch: Event,
    /// The `committed` of the replicator's last finished round.
    replicated: AtomicU64,
    /// Woken at the end of each round.
    round: Event,
}

impl Replication {
    /// The leader's side of the replicator's wait: called once `seq` is
    /// applied, it wakes the replicator when a whole batch waits — not on
    /// every apply, which would send a notice per put — and then waits, at
    /// most `IDLE_WAIT`, for a round that covers `seq` to finish. The put
    /// that fills a batch runs on its client's thread, which would
    /// otherwise keep the CPU from the replicator it woke: run on one CPU,
    /// the followers fell two batches and more behind, and an eventual get
    /// of a key they had not applied yet read it as absent.
    fn applied(&self, seq: u64) {
        if seq < self.notified.load(Ordering::Acquire) + REPL_BATCH {
            return;
        }
        self.batch.wake();
        let done =
            || self.stop.load(Ordering::SeqCst) || self.replicated.load(Ordering::SeqCst) >= seq;
        self.round.park_until(done, Deadline::after(IDLE_WAIT));
    }
}

impl KvService {
    /// Creates the log and arenas, binds every replica's functions and
    /// starts the replicator; returns once every replica is serving.
    ///
    /// Panics if the service cannot be set up; [`KvService::try_spawn`]
    /// returns the error instead.
    pub fn spawn(cluster: &Arc<LiteCluster>, spec: KvSpec) -> KvService {
        Self::try_spawn(cluster, spec).expect("kv service set-up")
    }

    /// Sets up every replica and the replicator's view of the log from
    /// the calling thread, then starts the replicator. A handle that
    /// cannot attach, or a log or arena that cannot be allocated or
    /// mapped, is returned as an error before the thread starts.
    pub fn try_spawn(cluster: &Arc<LiteCluster>, spec: KvSpec) -> KvResult<KvService> {
        let replicas: Vec<Arc<ReplicaState>> = spec
            .replicas()
            .iter()
            .map(|&node| {
                Arc::new(ReplicaState {
                    node,
                    applied: AtomicU64::new(0),
                    next_off: AtomicU64::new(0),
                    paused: AtomicBool::new(false),
                })
            })
            .collect();
        let repl = Arc::<Replication>::default();
        // The leader, first, creates the log the followers and the
        // replicator open.
        let mut servers = Vec::with_capacity(replicas.len());
        for (i, state) in replicas.iter().enumerate() {
            let (funcs, role) = if i == 0 {
                let repl = Arc::clone(&repl);
                (
                    [FN_PUT, FN_GET],
                    Role::Leader {
                        repl,
                        broken: false,
                    },
                )
            } else {
                let delay = spec.apply_delay(state.node);
                let reads = Ctx::new();
                ([FN_REPL, FN_GET], Role::Follower { reads, delay })
            };
            let (h, replica) = Replica::set_up(cluster, &spec, Arc::clone(state), role)?;
            servers.push(h.serve_rpc(&funcs, replica)?);
        }
        let mut rh = cluster.attach(spec.leader)?;
        let mut rctx = Ctx::new();
        let rlog = LiteLog::open(&mut rh, &mut rctx, &spec.name, spec.log_capacity)?;

        let replicator = {
            let spec = spec.clone();
            let repl = Arc::clone(&repl);
            let leader = Arc::clone(&replicas[0]);
            std::thread::spawn(move || {
                run_replicator(&spec, &repl, &leader, rh, rctx, &rlog);
            })
        };
        Ok(KvService {
            spec,
            repl,
            replicator,
            replicas,
            _servers: servers,
        })
    }

    /// The spec this service was started with.
    pub fn spec(&self) -> &KvSpec {
        &self.spec
    }

    /// Sequence number the leader has committed and applied.
    pub fn committed_seq(&self) -> u64 {
        self.replicas[0].applied.load(Ordering::Acquire)
    }

    /// Sequence number `node`'s replica has applied.
    pub fn applied_seq(&self, node: usize) -> u64 {
        self.replicas
            .iter()
            .find(|r| r.node == node)
            .map_or(0, |r| r.applied.load(Ordering::Acquire))
    }

    /// Last replication lag the replicator computed (committed minus
    /// the slowest follower's acknowledged seq).
    pub fn replication_lag(&self) -> u64 {
        self.repl.lag.load(Ordering::Acquire)
    }

    /// Stalls `node`'s applies: it keeps acking (so the leader sees it
    /// alive) but stops applying, and its staleness grows.
    pub fn pause_follower(&self, node: usize) {
        if let Some(r) = self.replicas.iter().find(|r| r.node == node) {
            r.paused.store(true, Ordering::Release);
        }
    }

    /// Resumes `node`; it catches up from the log on the replicator's next
    /// notice.
    pub fn resume_follower(&self, node: usize) {
        if let Some(r) = self.replicas.iter().find(|r| r.node == node) {
            r.paused.store(false, Ordering::Release);
        }
    }

    /// Stops the replicator and waits for it, woken rather than left to
    /// wait out its batch window, then unbinds every replica's functions.
    /// A call already being served finishes on the thread that runs it.
    pub fn stop(self) {
        self.repl.stop.store(true, Ordering::SeqCst);
        self.repl.batch.wake();
        let _ = self.replicator.join();
    }
}

/// The longest the replicator waits for a batch to fill: an idle follower
/// that is behind hears from it once per `IDLE_WAIT`.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// One replica's handler: what it owns besides its server's handle.
struct Replica {
    state: Arc<ReplicaState>,
    ctx: Ctx,
    log: LiteLog,
    store: Store,
    role: Role,
}

/// The leader serves `FN_PUT` and `FN_GET`, a follower `FN_REPL` and
/// `FN_GET`.
enum Role {
    /// `broken` once an update is in the order but not in this arena: the
    /// leader no longer answers for the order, and fails every call.
    Leader {
        repl: Arc<Replication>,
        broken: bool,
    },
    /// A follower's gets are served on a clock of their own, `reads`, as by
    /// a second thread of the replica: a get must not wait for a catch-up
    /// the replicator asked for after the get arrived. `delay` is the
    /// artificial apply cost per update (`KvSpec::slow_followers`).
    Follower { reads: Ctx, delay: u64 },
}

impl Replica {
    /// Attaches on the replica's node, creates (leader) or opens the
    /// ordering log and allocates the value arena; returns the handle the
    /// replica's server will own.
    fn set_up(
        cluster: &LiteCluster,
        spec: &KvSpec,
        state: Arc<ReplicaState>,
        role: Role,
    ) -> KvResult<(LiteHandle, Replica)> {
        let node = state.node;
        let mut h = cluster.attach(node)?;
        let mut ctx = Ctx::new();
        let log = match role {
            Role::Leader { .. } => {
                LiteLog::create(&mut h, &mut ctx, node, &spec.name, spec.log_capacity)?
            }
            Role::Follower { .. } => {
                LiteLog::open(&mut h, &mut ctx, &spec.name, spec.log_capacity)?
            }
        };
        let store = Store::create(&mut h, &mut ctx, spec, node)?;
        let replica = Replica {
            state,
            ctx,
            log,
            store,
            role,
        };
        Ok((h, replica))
    }

    /// The leader's put: orders the update through the log, applies it and
    /// acks it with its seq and slot.
    fn put(&mut self, h: &mut LiteHandle, input: &[u8], reply: &mut Vec<u8>) {
        let Replica {
            state,
            ctx,
            log,
            store,
            role: Role::Leader { repl, broken },
        } = self
        else {
            return;
        };
        let Some((key, value)) = dec_put(input) else {
            return reply.push(BAD_REQUEST);
        };
        if !store.can_apply(key, value.len()) {
            return reply.push(PUT_STORE_FULL);
        }
        let off = match log.commit(h, ctx, &[key, value]) {
            Ok(off) => off,
            Err(LiteError::OutOfBounds { .. }) => return reply.push(PUT_LOG_FULL),
            Err(_) => return reply.push(PUT_COMMIT_FAILED),
        };
        let seq = state.applied.load(Ordering::Acquire) + 1;
        let Ok(loc) = store.apply(h, ctx, seq, key, value) else {
            *broken = true;
            return reply.push(PUT_COMMIT_FAILED);
        };
        // `next_off` first: a replicator that sees `seq` sees where its
        // record ends. SeqCst: the replicator's wait reads `applied`
        // (`Event`).
        state
            .next_off
            .store(off + update_record_size(key, value), Ordering::Release);
        state.applied.store(seq, Ordering::SeqCst);
        repl.applied(seq);
        h.kernel().note_kv_put();
        reply.push(PUT_OK);
        reply.extend_from_slice(&seq.to_le_bytes());
        loc.append_to(reply);
    }

    /// A GET, leader and followers alike: the replica's applied seq, then
    /// `(off, cap)` and the value on a hit.
    fn get(&mut self, h: &mut LiteHandle, input: &[u8], reply: &mut Vec<u8>) {
        h.kernel().note_kv_get();
        let applied = self.state.applied.load(Ordering::Acquire);
        let Some((need, key)) = input.split_first_chunk::<8>() else {
            return reply.push(BAD_REQUEST);
        };
        reply.push(GET_BEHIND);
        reply.extend_from_slice(&applied.to_le_bytes());
        if u64::from_le_bytes(*need) > applied {
            return;
        }
        reply[0] = GET_MISS;
        let Some(&loc) = self.store.index.get(key) else {
            return;
        };
        loc.append_to(reply);
        reply.resize(REPLY_HEAD + loc.len as usize, 0);
        let (arena, at) = (self.store.arena, loc.off + HEADER as u64);
        let value = &mut reply[REPLY_HEAD..];
        if value.is_empty() || h.lt_read(self.ctx(FN_GET), arena, at, value).is_ok() {
            reply[0] = GET_HIT;
        } else {
            reply.truncate(LOC_AT);
        }
    }
}

impl RpcHandler for Replica {
    fn ctx(&mut self, func: u8) -> &mut Ctx {
        match &mut self.role {
            Role::Follower { reads, .. } if func == FN_GET => reads,
            _ => &mut self.ctx,
        }
    }

    fn call(&mut self, h: &mut LiteHandle, func: u8, input: &[u8], reply: &mut Vec<u8>) {
        match (&self.role, func) {
            (Role::Leader { broken: true, .. }, _) => reply.push(PUT_COMMIT_FAILED),
            (_, FN_PUT) => self.put(h, input, reply),
            (&Role::Follower { delay, .. }, FN_REPL) => {
                // Always answered promptly (the leader must never block on
                // a slow consumer); the log is read unless paused.
                if let Some((committed, end)) = dec_pair(input) {
                    if !self.state.paused.load(Ordering::Acquire) {
                        catch_up_from_log(self, h, committed, end, delay);
                    }
                }
                let state = &self.state;
                let next_off = state.next_off.load(Ordering::Acquire);
                reply.extend_from_slice(&enc_pair(state.applied.load(Ordering::Acquire), next_off));
            }
            _ => self.get(h, input, reply),
        }
    }
}

/// Replays the log records this replica lacks up to seq `target`, whose
/// record ends at or before log offset `end` (the LITE move: a follower
/// reads the leader's memory directly, never its CPU). Each one-sided read
/// takes the committed bytes up to `end`, at most `REPL_BYTES`: a read of
/// `REPL_BYTES` whatever was committed put all of the leader's log traffic
/// on its link, once per batch and follower.
fn catch_up_from_log(r: &mut Replica, h: &mut LiteHandle, target: u64, end: u64, delay: u64) {
    let Replica {
        state,
        ctx,
        log,
        store,
        ..
    } = r;
    let mut applied = state.applied.load(Ordering::Acquire);
    while applied < target {
        let off = state.next_off.load(Ordering::Acquire);
        let bytes = end.saturating_sub(off).min(REPL_BYTES);
        if bytes == 0 {
            return;
        }
        let txns = match log.read_from(h, ctx, off, bytes, (target - applied) as usize) {
            Ok(txns) if !txns.is_empty() => txns,
            _ => return, // not readable yet; the next notice retries
        };
        for txn in txns {
            let [key, value] = &txn.entries[..] else {
                return;
            };
            if store.apply(h, ctx, applied + 1, key, value).is_err() {
                return;
            }
            if delay > 0 {
                ctx.work(delay);
            }
            applied += 1;
            state.applied.store(applied, Ordering::Release);
            state.next_off.store(
                txn.offset + update_record_size(key, value),
                Ordering::Release,
            );
        }
    }
}

/// Parks the replicator until the leader has applied `REPL_BATCH` records
/// past the last `committed` it announced, `IDLE_WAIT` has passed, or
/// `stop()` was called.
fn wait_for_batch(repl: &Replication, leader: &ReplicaState) {
    let notified = repl.notified.load(Ordering::Acquire);
    let ready = || {
        repl.stop.load(Ordering::SeqCst)
            || leader.applied.load(Ordering::SeqCst) >= notified + REPL_BATCH
    };
    repl.batch.park_until(ready, Deadline::after(IDLE_WAIT));
}

/// The leader-side replication pump: tells every follower that is behind
/// how far the log is committed (it reads the records itself), tracks
/// acknowledgements, publishes the lag gauge, and cleans the log behind
/// the slowest ack.
fn run_replicator(
    spec: &KvSpec,
    repl: &Replication,
    leader: &ReplicaState,
    mut h: LiteHandle,
    mut ctx: Ctx,
    log: &LiteLog,
) {
    let kernel = Arc::clone(h.kernel());
    let n = spec.followers.len();
    let mut acked = vec![0u64; n]; // seq each follower acknowledged
    let mut acked_off = vec![0u64; n]; // their matching log offsets
    let mut down = vec![0u32; n]; // rounds left in a failure backoff
    let mut cleaned = 0u64; // log bytes already reclaimed
    while !repl.stop.load(Ordering::Acquire) {
        wait_for_batch(repl, leader);
        for d in down.iter_mut() {
            *d = d.saturating_sub(1);
        }
        // `applied` first: the leader stores `next_off` before it, so `end`
        // reaches at least the end of record `committed`.
        let committed = leader.applied.load(Ordering::Acquire);
        let end = leader.next_off.load(Ordering::Acquire);
        repl.notified.store(committed, Ordering::Release);
        // Skip followers that are caught up or sit out a failure backoff; a
        // failed call towards one follower must not stall the others.
        let targets: Vec<usize> = (0..n)
            .filter(|&i| down[i] == 0 && acked[i] < committed)
            .collect();
        if !targets.is_empty() {
            let nodes: Vec<usize> = targets.iter().map(|&i| spec.followers[i]).collect();
            let notice = enc_pair(committed, end);
            let results = h
                .lt_multicast_rpc_partial(&mut ctx, &nodes, FN_REPL, &notice, 32)
                .unwrap_or_else(|_| vec![Err(LiteError::Timeout); nodes.len()]);
            for (&i, result) in targets.iter().zip(results) {
                match result.ok().as_deref().and_then(dec_pair) {
                    Some((seq, off)) => {
                        acked[i] = acked[i].max(seq);
                        acked_off[i] = acked_off[i].max(off);
                    }
                    None => down[i] = DOWN_ROUNDS,
                }
            }
        }
        publish_lag(&repl.lag, &kernel, committed, &acked, n);
        repl.replicated.store(committed, Ordering::SeqCst);
        repl.round.wake();
        // Ack-aware cleaning: reclaim only what every follower has
        // durably applied. A dead follower pins the log; staleness is
        // bounded by the log capacity (DESIGN.md §15).
        let min_off = acked_off.iter().copied().min().unwrap_or(end);
        if min_off.saturating_sub(cleaned) >= spec.log_capacity / 4 {
            if let Ok(txns) = log.clean(&mut h, &mut ctx, min_off - cleaned) {
                for t in &txns {
                    let refs: Vec<&[u8]> = t.entries.iter().map(|e| e.as_slice()).collect();
                    cleaned += LiteLog::record_size(&refs);
                }
            }
        }
    }
}

fn publish_lag(
    lag: &AtomicU64,
    kernel: &lite::LiteKernel,
    committed: u64,
    acked: &[u64],
    n: usize,
) {
    let slowest = if n == 0 {
        committed
    } else {
        acked.iter().copied().min().unwrap_or(0)
    };
    let cur = committed.saturating_sub(slowest);
    lag.store(cur, Ordering::Release);
    kernel.set_kv_replication_lag(cur);
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// How one session's gets were served, as [`KvClient::stats`] reports it:
/// `one_sided + rpc` gets were issued, and every `rpc` one has its reason
/// counted in `fallbacks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvClientStats {
    /// Gets answered by one `lt_read` of a cached slot, no server thread
    /// involved.
    pub one_sided: u64,
    /// Gets that took the RPC path.
    pub rpc: u64,
    /// Why the RPC path was taken.
    pub fallbacks: KvFallbacks,
}

/// Why a get could not be served from a cached slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvFallbacks {
    /// The node's cache holds no location for the key.
    pub no_entry: u64,
    /// The slot is still zeroed: the replica has not applied the update
    /// that allocated it.
    pub behind: u64,
    /// The bytes were not one whole record of the key (read while the
    /// owner rewrote the slot, or another key's slot).
    pub torn: u64,
    /// The value outgrew the slot and moved.
    pub tombstone: u64,
    /// `ReadYourWrites` only: the record is older than the session's
    /// last write, so it does not prove the replica has applied it.
    pub too_old: u64,
    /// The replica's arena could not be mapped or read.
    pub unreachable: u64,
}

/// Why [`KvClient::read_slot`] did not serve a get; one per counter of
/// [`KvFallbacks`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Miss {
    NoEntry,
    Behind,
    Torn,
    Tombstone,
    TooOld,
    Unreachable,
}

/// One entry of a node's location cache.
#[derive(Clone, Copy, Default)]
struct CachedLoc {
    off: u64,
    /// 0 = empty (a slot's cap is at least `ARENA_ALIGN`).
    cap: u32,
    /// Upper half of the key's hash; the lower bits chose the set.
    tag: u32,
}

impl CachedLoc {
    fn is(&self, hash: u64) -> bool {
        self.cap != 0 && self.tag == (hash >> 32) as u32
    }
}

type LocSet = [CachedLoc; LOC_CACHE_WAYS];

/// `hash(key) → (off, cap)` for every session a node has open against one
/// service ([`lite::LiteKernel::service_state`] holds it): what a reply to
/// any of them said, all of them read. Sets of four, most recently used
/// first, a fifth key in a set taking the place of the last; one lock per
/// stripe of sets, so sessions on different threads rarely meet. A wrong
/// entry is harmless — the record it leads to fails the check against the
/// key asked for — so whoever learnt it, a reader trusts it no further
/// than one `lt_read`.
struct LocCache(Box<[Mutex<Box<[LocSet]>>]>);

impl LocCache {
    fn new() -> LocCache {
        let sets = LOC_CACHE_ENTRIES / LOC_CACHE_WAYS / LOC_CACHE_STRIPES;
        let stripe = || Mutex::new(vec![LocSet::default(); sets].into_boxed_slice());
        LocCache((0..LOC_CACHE_STRIPES).map(|_| stripe()).collect())
    }

    /// Runs `f` on `hash`'s set, its stripe locked.
    fn with_set<R>(&self, hash: u64, f: impl FnOnce(&mut LocSet) -> R) -> R {
        let stripe = &self.0[hash as usize % LOC_CACHE_STRIPES];
        // A panic elsewhere leaves entries that are each whole.
        let mut sets = stripe.lock().unwrap_or_else(PoisonError::into_inner);
        let index = (hash as usize / LOC_CACHE_STRIPES) % sets.len();
        f(&mut sets[index])
    }

    fn get(&self, hash: u64) -> Option<(u64, usize)> {
        self.with_set(hash, |set| {
            let at = set.iter().position(|e| e.is(hash))?;
            set[..=at].rotate_right(1);
            Some((set[0].off, set[0].cap as usize))
        })
    }

    /// Learns a location from the `(off, cap)` a reply carries — if it
    /// names a slot inside an arena of `arena_bytes`: every session on the
    /// node will read `HEADER + cap` bytes at `off` on this reply's word.
    fn learn(&self, hash: u64, wire: &[u8], arena_bytes: u64) {
        let (off, cap) = wire.split_at(8);
        let off = u64::from_le_bytes(off.try_into().expect("8"));
        let cap = u32::from_le_bytes(cap.try_into().expect("4"));
        let end = off.checked_add(HEADER as u64 + cap as u64);
        if (cap as u64) < ARENA_ALIGN || end.is_none_or(|end| end > arena_bytes) {
            return;
        }
        self.with_set(hash, |set| {
            let at = set.iter().position(|e| e.is(hash));
            set[..=at.unwrap_or(LOC_CACHE_WAYS - 1)].rotate_right(1);
            let tag = (hash >> 32) as u32;
            set[0] = CachedLoc { off, cap, tag };
        })
    }

    /// Drops `hash`'s entry if it still says `off`: a reader that found a
    /// tombstone there must not undo what a neighbour learnt since.
    fn forget(&self, hash: u64, off: u64) {
        self.with_set(hash, |set| {
            if let Some(at) = set.iter().position(|e| e.is(hash) && e.off == off) {
                set[at..].rotate_left(1);
                set[LOC_CACHE_WAYS - 1] = CachedLoc::default();
            }
        })
    }
}

/// A client session against a [`KvService`].
pub struct KvClient {
    h: LiteHandle,
    leader: usize,
    replicas: Vec<usize>,
    max_value: usize,
    mode: SessionMode,
    /// Highest sequence number this session has written.
    session_seq: u64,
    prefer: Option<usize>,
    rr: usize,
    log: Option<LiteLog>,
    name: String,
    log_capacity: u64,
    arena_bytes: u64,
    /// Where keys any session on this node has put or fetched sit in the
    /// arenas.
    locs: Arc<LocCache>,
    /// Replica arenas mapped so far, by node.
    arenas: Vec<(usize, Lh)>,
    stats: KvClientStats,
    /// The last put's request, kept so a warm put encodes into it.
    req: Vec<u8>,
}

impl KvClient {
    /// Opens a session from `node` against the service described by
    /// `spec` (pass the same spec the service was spawned with).
    pub fn connect(
        cluster: &Arc<LiteCluster>,
        node: usize,
        spec: &KvSpec,
        mode: SessionMode,
    ) -> KvResult<KvClient> {
        let h = cluster.attach(node)?;
        let locs = h.kernel().service_state(&spec.name, LocCache::new);
        Ok(KvClient {
            h,
            leader: spec.leader,
            replicas: spec.replicas(),
            max_value: spec.max_value,
            mode,
            session_seq: 0,
            prefer: None,
            rr: 0,
            log: None,
            name: spec.name.clone(),
            log_capacity: spec.log_capacity,
            arena_bytes: spec.arena_bytes,
            locs,
            arenas: Vec::new(),
            stats: KvClientStats::default(),
            req: Vec::new(),
        })
    }

    /// Pins reads to one replica instead of round-robining.
    pub fn prefer_replica(&mut self, node: usize) {
        self.prefer = Some(node);
    }

    /// QoS priority for this session's subsequent operations.
    pub fn set_priority(&mut self, prio: Priority) {
        self.h.set_priority(prio);
    }

    /// How this session's gets were served so far.
    pub fn stats(&self) -> KvClientStats {
        self.stats
    }

    /// Writes `key = value` through the leader; returns the assigned
    /// sequence number.
    pub fn put(&mut self, ctx: &mut Ctx, key: &[u8], value: &[u8]) -> KvResult<u64> {
        enc_put(&mut self.req, key, value);
        let rep = self
            .h
            .lt_rpc(ctx, self.leader, FN_PUT, &self.req, REPLY_HEAD)?;
        match rep.first() {
            Some(&PUT_OK) if rep.len() == REPLY_HEAD => {
                let seq = u64::from_le_bytes(rep[1..LOC_AT].try_into().expect("8"));
                self.session_seq = self.session_seq.max(seq);
                let hash = record::hash64(&[key]);
                self.locs.learn(hash, &rep[LOC_AT..], self.arena_bytes);
                Ok(seq)
            }
            Some(&PUT_STORE_FULL) => Err(KvError::StoreFull),
            Some(&PUT_LOG_FULL) => Err(KvError::LogFull),
            Some(&PUT_COMMIT_FAILED) => Err(LiteError::Remote(PUT_COMMIT_FAILED).into()),
            _ => Err(KvError::BadReply), // BAD_REQUEST included
        }
    }

    /// Reads `key` from a replica (preferred or round-robin): with one
    /// `lt_read` of the key's slot in that replica's arena when some
    /// session on this node has learnt where it is and the record there is
    /// good, else by RPC. In read-your-writes mode a record older than the
    /// session's last write does not count as good, a lagging replica
    /// answers the RPC "behind", and the read retries on the leader; a
    /// replica that cannot be reached at all fails over to the leader too.
    pub fn get(&mut self, ctx: &mut Ctx, key: &[u8]) -> KvResult<Option<Vec<u8>>> {
        let replica = self.prefer.unwrap_or_else(|| {
            let r = self.replicas[self.rr % self.replicas.len()];
            self.rr += 1;
            r
        });
        let need = match self.mode {
            SessionMode::Eventual => 0,
            SessionMode::ReadYourWrites => self.session_seq,
        };
        let hash = record::hash64(&[key]);
        let miss = match self.read_slot(ctx, replica, hash, key, need) {
            Ok(value) => {
                self.stats.one_sided += 1;
                self.h.kernel().note_kv_get();
                return Ok(Some(value));
            }
            Err(miss) => miss,
        };
        self.stats.rpc += 1;
        let f = &mut self.stats.fallbacks;
        *match miss {
            Miss::NoEntry => &mut f.no_entry,
            Miss::Behind => &mut f.behind,
            Miss::Torn => &mut f.torn,
            Miss::Tombstone => &mut f.tombstone,
            Miss::TooOld => &mut f.too_old,
            Miss::Unreachable => &mut f.unreachable,
        } += 1;
        // A replica that could not be read is not asked a second time.
        if replica != self.leader && miss != Miss::Unreachable {
            match self.get_rpc(ctx, replica, need, hash, key) {
                Ok(Some(hit)) => return Ok(hit),
                Ok(None) => {}              // behind: fall through to the leader
                Err(KvError::Lite(_)) => {} // unreachable replica: fail over
                Err(e) => return Err(e),
            }
        }
        // The leader applies synchronously, so need_seq 0 suffices.
        match self.get_rpc(ctx, self.leader, 0, hash, key)? {
            Some(hit) => Ok(hit),
            None => Err(KvError::BadReply), // the leader is never behind
        }
    }

    /// The one-sided attempt: reads `key`'s cached slot on `replica` and
    /// returns the value iff the record there is whole, live and — for a
    /// `need` above 0 — written at or after update `need`: replicas apply
    /// in order, so that proves `replica` has applied `need`.
    fn read_slot(
        &mut self,
        ctx: &mut Ctx,
        replica: usize,
        hash: u64,
        key: &[u8],
        need: u64,
    ) -> Result<Vec<u8>, Miss> {
        let (off, cap) = self.locs.get(hash).ok_or(Miss::NoEntry)?;
        let mut buf = vec![0u8; HEADER + cap];
        self.arena(ctx, replica)
            .and_then(|arena| self.h.lt_read(ctx, arena, off, &mut buf))
            .map_err(|_| Miss::Unreachable)?;
        ctx.work(check_cost(buf.len()));
        let len = match record::parse(&buf, key) {
            Slot::Live { seq, value } if seq >= need => value.len(),
            Slot::Live { .. } => return Err(Miss::TooOld),
            Slot::Empty => return Err(Miss::Behind),
            Slot::Torn => return Err(Miss::Torn),
            Slot::Tombstone { .. } => {
                self.locs.forget(hash, off);
                return Err(Miss::Tombstone);
            }
        };
        buf.copy_within(HEADER..HEADER + len, 0);
        buf.truncate(len);
        Ok(buf)
    }

    /// `replica`'s arena, mapped on first use.
    fn arena(&mut self, ctx: &mut Ctx, replica: usize) -> LiteResult<Lh> {
        if let Some(&(_, lh)) = self.arenas.iter().find(|(node, _)| *node == replica) {
            return Ok(lh);
        }
        let name = arena_name(&self.name, replica);
        let lh = self.h.lt_map_at(ctx, &name, replica)?;
        self.arenas.push((replica, lh));
        Ok(lh)
    }

    /// The GET RPC. `Ok(Some(hit))` = served (hit is the optional
    /// value, and its location is now cached); `Ok(None)` = `node` is
    /// behind the session.
    #[allow(clippy::type_complexity)]
    fn get_rpc(
        &mut self,
        ctx: &mut Ctx,
        node: usize,
        need: u64,
        hash: u64,
        key: &[u8],
    ) -> KvResult<Option<Option<Vec<u8>>>> {
        let rep = self.h.lt_rpc(
            ctx,
            node,
            FN_GET,
            &enc_get(need, key),
            REPLY_HEAD + self.max_value,
        )?;
        match rep.first() {
            Some(&GET_HIT) if rep.len() >= REPLY_HEAD => {
                self.locs
                    .learn(hash, &rep[LOC_AT..REPLY_HEAD], self.arena_bytes);
                Ok(Some(Some(rep[REPLY_HEAD..].to_vec())))
            }
            Some(&GET_MISS) => Ok(Some(None)),
            Some(&GET_BEHIND) => Ok(None),
            _ => Err(KvError::BadReply), // BAD_REQUEST included
        }
    }

    /// Scans the event log (the service's write order) starting at
    /// `from` (0 = the beginning, or a previous event's `next`),
    /// returning at most `max` events. Reads the log with one-sided
    /// operations — no server thread is involved.
    pub fn events(&mut self, ctx: &mut Ctx, from: u64, max: usize) -> KvResult<Vec<KvEvent>> {
        if self.log.is_none() {
            self.log = Some(LiteLog::open(
                &mut self.h,
                ctx,
                &self.name,
                self.log_capacity,
            )?);
        }
        let log = self.log.as_ref().expect("just opened");
        let mut off = from;
        let mut out = Vec::new();
        while out.len() < max {
            match log.read_at(&mut self.h, ctx, off) {
                Ok(txn) => {
                    let [key, value] = &txn.entries[..] else {
                        return Err(KvError::BadReply);
                    };
                    let next = off + update_record_size(key, value);
                    out.push(KvEvent {
                        offset: off,
                        next,
                        key: key.clone(),
                        value: value.clone(),
                    });
                    off = next;
                }
                // Unwritten/scrubbed record: end of the committed log.
                Err(LiteError::Remote(0xA0)) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One raw call, as a client that speaks the wire format badly (or
    /// well) would make it.
    fn raw(h: &mut LiteHandle, node: usize, func: u8, input: &[u8]) -> Vec<u8> {
        h.lt_rpc(&mut Ctx::new(), node, func, input, 64).unwrap()
    }

    fn put_req(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        enc_put(&mut b, key, value);
        b
    }

    #[test]
    fn malformed_requests_get_their_own_status() {
        let cluster = LiteCluster::start(3).unwrap();
        let spec = KvSpec::new("kv", 1, &[2]);
        let svc = KvService::spawn(&cluster, spec.clone());
        let mut h = cluster.attach(0).unwrap();
        // No key length; a key length past the end of the request.
        assert_eq!(raw(&mut h, 1, FN_PUT, &[5]), [BAD_REQUEST]);
        assert_eq!(raw(&mut h, 1, FN_PUT, &[9, 0, b'k']), [BAD_REQUEST]);
        // A GET too short to hold its `need_seq`, on leader and follower.
        for node in spec.replicas() {
            assert_eq!(raw(&mut h, node, FN_GET, &[0; 7]), [BAD_REQUEST]);
        }
        // Well-formed ones still answer as before.
        let ok = raw(&mut h, 1, FN_PUT, &put_req(b"k", b"v"));
        assert_eq!((ok[0], ok.len()), (PUT_OK, REPLY_HEAD));
        let hit = raw(&mut h, 1, FN_GET, &enc_get(0, b"k"));
        assert_eq!((hit[0], &hit[REPLY_HEAD..]), (GET_HIT, &b"v"[..]));
        let miss = raw(&mut h, 1, FN_GET, &enc_get(0, b"nope"));
        assert_eq!((miss[0], miss.len()), (GET_MISS, LOC_AT));
        assert_eq!(svc.committed_seq(), 1, "nothing malformed was ordered");
        svc.stop();
    }

    #[test]
    fn full_store_and_full_log_say_which() {
        let cluster = LiteCluster::start(3).unwrap();
        let mut spec = KvSpec::new("kv", 1, &[2]);
        spec.arena_bytes = 256;
        spec.log_capacity = 1024;
        let svc = KvService::spawn(&cluster, spec.clone());
        let mut h = cluster.attach(0).unwrap();
        let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
        let mut ctx = Ctx::new();
        // Two 64 B slots fit 256 B of arena, a third does not.
        c.put(&mut ctx, b"a", &[1; 64]).unwrap();
        c.put(&mut ctx, b"b", &[2; 64]).unwrap();
        let full = raw(&mut h, 1, FN_PUT, &put_req(b"c", &[3; 64]));
        assert_eq!(full, [PUT_STORE_FULL]);
        assert!(matches!(
            c.put(&mut ctx, b"c", &[3; 64]),
            Err(KvError::StoreFull)
        ));
        // A stalled follower pins the log: overwrites fill the ring.
        svc.pause_follower(2);
        let filled = (0..64).find_map(|_| c.put(&mut ctx, b"a", &[4; 64]).err());
        assert!(matches!(filled, Some(KvError::LogFull)), "{filled:?}");
        let full = raw(&mut h, 1, FN_PUT, &put_req(b"a", &[5; 64]));
        assert_eq!(full, [PUT_LOG_FULL]);
        svc.stop();
    }

    /// The client's reading of every status, against a scripted leader.
    #[test]
    fn client_maps_each_status_to_its_error() {
        let cluster = LiteCluster::start(2).unwrap();
        let spec = KvSpec::new("kv", 1, &[]);
        let script = [
            PUT_STORE_FULL,
            PUT_LOG_FULL,
            PUT_COMMIT_FAILED,
            BAD_REQUEST,
            0x77,
        ];
        let mut server = cluster.attach(1).unwrap();
        server.register_rpc(FN_PUT).unwrap();
        server.register_rpc(FN_GET).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut ctx = Ctx::new();
                for status in script {
                    let call = server.lt_recv_rpc(&mut ctx, FN_PUT).unwrap();
                    server.lt_reply_rpc(&mut ctx, &call, &[status]).unwrap();
                }
                let call = server.lt_recv_rpc(&mut ctx, FN_GET).unwrap();
                server
                    .lt_reply_rpc(&mut ctx, &call, &[BAD_REQUEST])
                    .unwrap();
            });
            let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
            let mut ctx = Ctx::new();
            let mut put = || c.put(&mut ctx, b"k", b"v").unwrap_err();
            assert!(matches!(put(), KvError::StoreFull));
            assert!(matches!(put(), KvError::LogFull));
            assert!(matches!(
                put(),
                KvError::Lite(LiteError::Remote(PUT_COMMIT_FAILED))
            ));
            assert!(matches!(put(), KvError::BadReply));
            assert!(matches!(put(), KvError::BadReply));
            assert!(matches!(c.get(&mut ctx, b"k"), Err(KvError::BadReply)));
        });
    }

    /// A reply's `(off, cap)` is learnt only if it names a slot inside the
    /// arena: a scripted leader that answers with anything else is served
    /// from (the op succeeds) and not believed (no entry, so no session on
    /// the node ever sizes a buffer or aims a read by it).
    #[test]
    fn client_learns_no_location_outside_the_arena() {
        let cluster = LiteCluster::start(2).unwrap();
        let spec = KvSpec::new("kv", 1, &[]);
        let arena = spec.arena_bytes;
        let last = arena - HEADER as u64 - ARENA_ALIGN;
        // (off, cap) of each reply: the first five must not be learnt.
        let script: [(u64, u32); 6] = [
            (0, u32::MAX),
            (arena, 8),
            (last + 1, 8),
            (u64::MAX - 10, 8),
            (0, 4),
            (last, 8),
        ];
        let mut server = cluster.attach(1).unwrap();
        server.register_rpc(FN_PUT).unwrap();
        server.register_rpc(FN_GET).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut ctx = Ctx::new();
                for (i, (off, cap)) in script.into_iter().enumerate() {
                    // Even replies answer a put, odd ones a get.
                    let (func, status) = [(FN_PUT, PUT_OK), (FN_GET, GET_HIT)][i % 2];
                    let call = server.lt_recv_rpc(&mut ctx, func).unwrap();
                    let mut reply = vec![status];
                    reply.extend_from_slice(&1u64.to_le_bytes());
                    Loc { off, len: 1, cap }.append_to(&mut reply);
                    if func == FN_GET {
                        reply.push(b'v');
                    }
                    server.lt_reply_rpc(&mut ctx, &call, &reply).unwrap();
                }
            });
            let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
            let mut ctx = Ctx::new();
            let hash = record::hash64(&[b"k"]);
            for i in 0..script.len() {
                assert!(c.locs.get(hash).is_none(), "learnt {:?}", &script[..i]);
                if i % 2 == 0 {
                    assert_eq!(c.put(&mut ctx, b"k", b"v").unwrap(), 1);
                } else {
                    assert_eq!(c.get(&mut ctx, b"k").unwrap().as_deref(), Some(&b"v"[..]));
                }
            }
            // Every get had to ask; the last reply named the arena's last
            // slot, and that one is believed.
            let stats = c.stats();
            assert_eq!((stats.rpc, stats.fallbacks.no_entry), (3, 3), "{stats:?}");
            assert_eq!(c.locs.get(hash), Some((last, 8)));
        });
    }
}

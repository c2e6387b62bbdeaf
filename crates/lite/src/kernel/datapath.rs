//! The datapath: op descriptors and their dispatch.
//!
//! Every one-sided operation of the LITE kernel goes through one seam:
//! callers describe work as [`Op`] descriptors and hand them to the
//! node's [`RnicDataPath`], which owns QoS, QP choice, posting and
//! recovery: the global physical MR (§4.1), K shared RC QPs per peer
//! (§6.1), HW-Sep/SW-Pri QoS (§6.2), and doorbell-batched posting
//! ([`RnicDataPath::post_many`]) that pays the host post cost and
//! QP-context touch once per chain.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rnic::qp::RecvQueue;
use rnic::{Cq, IbFabric, NodeId, Qp, QpId, QpType, RemoteAddr, SgeRef, VerbsError, Wr, COST};
use simnet::wait::{pause, Deadline};
use simnet::{Ctx, InlineVec, Nanos};
use smem::{PhysAllocator, PhysMem};

use super::stats::RetryCounters;
use super::LiteKernel;
use crate::config::LiteConfig;
use crate::directory::ClusterDirectory;
use crate::error::{LiteError, LiteResult};
use crate::observe::{EventKind, Observability, OpClass};
use crate::qos::{Priority, QosMode, QosState};

pub use smem::Chunk;

/// Cost of a local atomic executed by the kernel (no NIC involved).
const LOCAL_ATOMIC_NS: Nanos = 120;

/// Kernel-side mapping + permission check for a one-sided op (§4.2:
/// "less than 0.3 µs" for RPC metadata; one-sided is cheaper).
pub const MAP_CHECK_NS: Nanos = 100;

/// Cap on the growth of the exponential retry backoff, which starts at
/// [`LiteConfig::retry_base_ns`] and doubles per failed attempt.
pub const RETRY_MAX_BACKOFF_NS: Nanos = 1_000_000;

/// The one physically-consecutive extent `[addr, addr + len)`.
fn extent(addr: u64, len: usize) -> Chunk {
    let len = len as u64;
    Chunk { addr, len }
}

/// A one-sided datapath operation, described in terms of physical
/// addresses under the global MR rather than verbs objects. Chunk lists
/// are borrowed or owned: the kernel's own posts borrow the caller's, so
/// describing an op copies nothing.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    /// RDMA-write `len` bytes gathered from local `src` chunks to
    /// `(dst_node, dst_addr)`; optionally carries immediate data (which
    /// consumes a receive credit and is dispatched at the remote node).
    Write {
        /// Destination node.
        dst_node: NodeId,
        /// Destination physical address.
        dst_addr: u64,
        /// Local source chunks (gather list).
        src: Cow<'a, [Chunk]>,
        /// Bytes to move.
        len: usize,
        /// Encoded immediate value, if any.
        imm: Option<u32>,
    },
    /// RDMA-read `len` bytes from `(src_node, src_addr)` scattered into
    /// local `dst` chunks.
    Read {
        /// Source node.
        src_node: NodeId,
        /// Source physical address.
        src_addr: u64,
        /// Local destination chunks (scatter list).
        dst: Cow<'a, [Chunk]>,
        /// Bytes to move.
        len: usize,
    },
    /// One-sided atomic fetch-and-add on a remote u64.
    FetchAdd {
        /// Target node.
        node: NodeId,
        /// Physical address of the u64 cell.
        addr: u64,
        /// Addend.
        delta: u64,
    },
    /// One-sided atomic compare-and-swap on a remote u64.
    CmpSwap {
        /// Target node.
        node: NodeId,
        /// Physical address of the u64 cell.
        addr: u64,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
}

impl<'a> Op<'a> {
    /// Plain write descriptor (no immediate).
    pub fn write(
        dst_node: NodeId,
        dst_addr: u64,
        src: impl Into<Cow<'a, [Chunk]>>,
        len: usize,
    ) -> Op<'a> {
        Op::Write {
            dst_node,
            dst_addr,
            src: src.into(),
            len,
            imm: None,
        }
    }

    /// Plain read descriptor.
    pub fn read(
        src_node: NodeId,
        src_addr: u64,
        dst: impl Into<Cow<'a, [Chunk]>>,
        len: usize,
    ) -> Op<'a> {
        Op::Read {
            src_node,
            src_addr,
            dst: dst.into(),
            len,
        }
    }

    /// The remote node this op touches.
    pub fn dst_node(&self) -> NodeId {
        match self {
            Op::Write { dst_node, .. } => *dst_node,
            Op::Read { src_node, .. } => *src_node,
            Op::FetchAdd { node, .. } | Op::CmpSwap { node, .. } => *node,
        }
    }

    /// The observability class this op records under.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Write { .. } => OpClass::Write,
            Op::Read { .. } => OpClass::Read,
            Op::FetchAdd { .. } | Op::CmpSwap { .. } => OpClass::Atomic,
        }
    }

    /// Payload bytes this op moves (8 for atomics).
    pub fn bytes(&self) -> u64 {
        match self {
            Op::Write { len, .. } | Op::Read { len, .. } => *len as u64,
            Op::FetchAdd { .. } | Op::CmpSwap { .. } => 8,
        }
    }
}

/// Outcome of a posted op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Completion {
    /// Virtual time at which the op is complete (remotely visible for
    /// writes, locally filled for reads, executed for atomics).
    pub stamp: Nanos,
    /// Returned value for atomics (the previous cell contents); 0 for
    /// reads and writes.
    pub value: u64,
}

/// Liveness view of one peer node: consecutive deadline-exhausted ops
/// are counted, and past [`LiteConfig::peer_dead_threshold`] the peer is
/// declared dead — subsequent ops fail fast with [`LiteError::PeerDead`]
/// instead of burning a full timeout each. Revival comes from incoming
/// traffic (the poller marks the source alive) or from a rate-limited
/// probe attempt.
#[derive(Default)]
struct PeerHealth {
    consecutive_timeouts: AtomicU32,
    dead: AtomicBool,
    next_probe: Mutex<Option<Deadline>>,
}

/// The verbs-backed datapath of the LITE kernel.
pub struct RnicDataPath {
    fabric: Arc<IbFabric>,
    node: NodeId,
    batch: bool,
    global_lkey: u32,
    /// Cluster membership: peer rkeys, QoS views, and memory managers
    /// all come from here instead of boot-time broadcast vectors.
    dir: Arc<ClusterDirectory>,
    /// The node's shared send CQ, receive CQ and receive queue: every QP
    /// this end of a pair gets is created on them (§6.1).
    send_cq: Arc<Cq>,
    recv_cq: Arc<Cq>,
    rq: Arc<RecvQueue>,
    /// K, the shared-QP factor per peer pair (§6.1).
    qp_factor: usize,
    /// Per-peer shared QP pools, sized to fabric capacity; empty until
    /// the pair is wired on first use. Mutable so the recovery layer can
    /// swap broken QPs for fresh ones underneath in-flight traffic.
    qp_pools: Vec<Mutex<Vec<Arc<Qp>>>>,
    /// Per-peer wired latch, set on *both* ends when a pair is built so
    /// a pair is wired exactly once no matter which side touches it
    /// first.
    wired: Box<[AtomicBool]>,
    rr: AtomicUsize,
    qos: Arc<QosState>,
    alloc: Arc<Mutex<PhysAllocator>>,
    retry_enabled: bool,
    retry_base_ns: Nanos,
    peer_dead_threshold: u32,
    op_timeout: Duration,
    health: Vec<PeerHealth>,
    retry: RetryCounters,
    obs: Arc<Observability>,
    /// Host-wall nanoseconds spent wiring QP pairs lazily (gauge).
    mesh_ns: AtomicU64,
    /// Lazy pair connects performed from this end (gauge).
    lazy_connects: AtomicU64,
    /// Per-logical-op sequence for remote atomics. Allocated once in
    /// `post` — *outside* the retry loop — so every retry attempt of the
    /// same fetch-add/cmp-swap carries the same exactly-once token to
    /// the responder NIC's dedup filter.
    atomic_seq: AtomicU64,
}

/// The acknowledged prefix of a run being posted: `out[..n]` is final,
/// a retry resumes at op `n`.
struct Done<'a> {
    out: &'a mut [Completion],
    n: usize,
}

impl Done<'_> {
    fn push(&mut self, c: Completion) {
        self.out[self.n] = c;
        self.n += 1;
    }
}

/// Observability identity of one in-flight op, threaded through the
/// recovery layer so lifecycle events land in the trace ring at exactly
/// the points where the matching counters increment.
#[derive(Clone, Copy)]
struct OpTrace {
    op_id: u64,
    class: OpClass,
    prio: Priority,
}

impl RnicDataPath {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        fabric: Arc<IbFabric>,
        node: NodeId,
        config: &LiteConfig,
        global_lkey: u32,
        qos: Arc<QosState>,
        alloc: Arc<Mutex<PhysAllocator>>,
        dir: Arc<ClusterDirectory>,
        recv_cq: Arc<Cq>,
        rq: Arc<RecvQueue>,
    ) -> Self {
        let peers = dir.capacity();
        RnicDataPath {
            fabric,
            node,
            batch: config.batch_posting,
            global_lkey,
            dir,
            send_cq: Arc::new(Cq::new()),
            recv_cq,
            rq,
            qp_factor: config.qp_factor,
            qp_pools: (0..peers).map(|_| Mutex::new(Vec::new())).collect(),
            wired: (0..peers).map(|_| AtomicBool::new(false)).collect(),
            rr: AtomicUsize::new(0),
            qos,
            alloc,
            retry_enabled: config.retry_enabled,
            retry_base_ns: config.retry_base_ns.max(1),
            peer_dead_threshold: config.peer_dead_threshold.max(1),
            op_timeout: config.op_timeout,
            health: (0..peers).map(|_| PeerHealth::default()).collect(),
            retry: RetryCounters::default(),
            obs: Arc::new(Observability::new(
                peers,
                config.stats_sample_rate,
                config.trace_ring_slots,
            )),
            mesh_ns: AtomicU64::new(0),
            lazy_connects: AtomicU64::new(0),
            atomic_seq: AtomicU64::new(0),
        }
    }

    /// Host-wall nanoseconds spent wiring QP pairs lazily.
    pub(crate) fn mesh_host_ns(&self) -> u64 {
        self.mesh_ns.load(Ordering::Relaxed)
    }

    /// Lazy pair connects performed from this end.
    pub(crate) fn lazy_connects(&self) -> u64 {
        self.lazy_connects.load(Ordering::Relaxed)
    }

    /// Ensures the K-QP shared pool towards `peer` is wired (§6.1),
    /// establishing the pair on first use under the directory's connect
    /// lock. Wiring installs BOTH ends' pools and latches, so a pair is
    /// built exactly once no matter which side posts first.
    pub(crate) fn ensure_qps(&self, peer: NodeId) -> LiteResult<()> {
        if peer == self.node {
            return Ok(());
        }
        match self.wired.get(peer) {
            Some(w) if w.load(Ordering::Acquire) => return Ok(()),
            Some(_) => {}
            None => return Err(LiteError::NodeDown { node: peer }),
        }
        let start = std::time::Instant::now();
        let _g = self.dir.lock_connect();
        // Double-check under the lock (the peer's ensure may have won).
        if self.wired[peer].load(Ordering::Acquire) {
            return Ok(());
        }
        self.wire_peer(peer)?;
        self.mesh_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.lazy_connects.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Builds the K shared QPs between this node and `peer`, installing
    /// both ends' pools. Caller holds the directory's connect lock.
    fn wire_peer(&self, peer: NodeId) -> LiteResult<()> {
        let other = self
            .dir
            .kernel(peer)
            .ok_or(LiteError::NodeDown { node: peer })?;
        for _ in 0..self.qp_factor.max(1) {
            self.add_pair(peer, &other.datapath);
        }
        // Latch both ends so neither side re-wires the pair.
        self.wired[peer].store(true, Ordering::Release);
        if let Some(w) = other.datapath.wired.get(self.node) {
            w.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Builds one RC QP pair on the two nodes' shared queues, connects it
    /// and adds it to both ends' pools. Caller holds the directory's
    /// connect lock.
    fn add_pair(&self, peer: NodeId, other: &Self) {
        let qa = self.shared_qp();
        let qb = other.shared_qp();
        self.fabric.connect(&qa, &qb);
        self.add_qp(peer, qa);
        other.add_qp(self.node, qb);
    }

    /// A fresh RC QP on this node's shared queues.
    fn shared_qp(&self) -> Arc<Qp> {
        let send = Arc::clone(&self.send_cq);
        let recv = Arc::clone(&self.recv_cq);
        let nic = self.fabric.nic(self.node);
        nic.create_qp_with(QpType::Rc, send, recv, Arc::clone(&self.rq))
    }

    /// This node's observability surface (histograms + trace ring).
    pub(crate) fn observer(&self) -> &Arc<Observability> {
        &self.obs
    }

    pub(crate) fn num_qps(&self) -> usize {
        self.qp_pools.iter().map(|p| p.lock().len()).sum()
    }

    fn mem(&self) -> &Arc<PhysMem> {
        self.fabric.mem(self.node)
    }

    /// Feeds the target node's memory manager one access: promotes the
    /// touched chunk in its LRU. Called once per op (not per retry
    /// attempt).
    fn touch_mm(&self, op: &Op) {
        let (node, addr) = match op {
            Op::Write {
                dst_node, dst_addr, ..
            } => (*dst_node, *dst_addr),
            Op::Read {
                src_node, src_addr, ..
            } => (*src_node, *src_addr),
            Op::FetchAdd { node, addr, .. } | Op::CmpSwap { node, addr, .. } => (*node, *addr),
        };
        if let Some(mm) = self.dir.mm(node) {
            mm.touch(addr);
        }
    }

    /// Picks a QP towards `peer` (§6.1 sharing; §6.2 HW-Sep partitions
    /// the pool between priorities).
    pub(crate) fn qp_to(&self, peer: NodeId, prio: Priority) -> LiteResult<Arc<Qp>> {
        let pool = self
            .qp_pools
            .get(peer)
            .ok_or(LiteError::NodeDown { node: peer })?
            .lock();
        if pool.is_empty() {
            // Transient while a reconnect swaps the pool contents, or
            // permanent for an unwired peer — the retry layer decides.
            return Err(LiteError::NodeDown { node: peer });
        }
        let k = pool.len();
        let (lo, hi) = if self.qos.mode() == QosMode::HwSep {
            let (h, _) = self.qos.hw_partition(k);
            match prio {
                Priority::High => (0, h),
                Priority::Low => {
                    if h < k {
                        (h, k)
                    } else {
                        (0, k)
                    }
                }
            }
        } else {
            (0, k)
        };
        let n = hi - lo;
        let idx = lo + self.rr.fetch_add(1, Ordering::Relaxed) % n;
        Ok(Arc::clone(&pool[idx]))
    }

    // ------------------------------------------------------------------
    // Recovery layer: retry/backoff, QP re-establishment, peer liveness.
    // ------------------------------------------------------------------

    /// Live recovery counters (folded into the kernel stats snapshot).
    pub(crate) fn retry_counters(&self) -> &RetryCounters {
        &self.retry
    }

    /// Removes a (broken) QP from the pool towards `peer`; `false` when
    /// it was already gone — the peer's reconnect got there first.
    pub(crate) fn remove_qp(&self, peer: NodeId, qp_id: QpId) -> bool {
        let Some(pool) = self.qp_pools.get(peer) else {
            return false;
        };
        let mut pool = pool.lock();
        let before = pool.len();
        pool.retain(|q| q.id != qp_id);
        pool.len() != before
    }

    /// Adds a freshly connected QP to the pool towards `peer`.
    pub(crate) fn add_qp(&self, peer: NodeId, qp: Arc<Qp>) {
        if let Some(pool) = self.qp_pools.get(peer) {
            pool.lock().push(qp);
        }
    }

    /// Whether the liveness monitor currently considers `peer` dead.
    pub(crate) fn peer_is_dead(&self, peer: NodeId) -> bool {
        self.health
            .get(peer)
            .is_some_and(|h| h.dead.load(Ordering::Acquire))
    }

    /// Evidence of life from `peer` — a completed op or incoming traffic
    /// (the poller calls this on every remote completion it dispatches).
    /// A healthy peer's state is only read: this runs once per op.
    pub(crate) fn mark_peer_alive(&self, peer: NodeId) {
        let Some(h) = self.health.get(peer) else {
            return;
        };
        if h.consecutive_timeouts.load(Ordering::Relaxed) != 0 {
            h.consecutive_timeouts.store(0, Ordering::Relaxed);
        }
        if h.dead.load(Ordering::Acquire) && h.dead.swap(false, Ordering::AcqRel) {
            *h.next_probe.lock() = None;
        }
    }

    /// Records a deadline-exhausted op towards `peer`; past the threshold
    /// the peer is declared dead.
    fn note_peer_timeout(&self, peer: NodeId) {
        let Some(h) = self.health.get(peer) else {
            return;
        };
        let n = h.consecutive_timeouts.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= self.peer_dead_threshold && !h.dead.swap(true, Ordering::AcqRel) {
            self.retry.peers_marked_dead.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// At most one probe per interval towards a dead peer: the winning
    /// caller gets one real attempt, everyone else fails fast without
    /// touching the fabric.
    fn claim_probe(&self, peer: NodeId) -> bool {
        let Some(h) = self.health.get(peer) else {
            return false;
        };
        let interval = (self.op_timeout / 4).max(Duration::from_millis(5));
        let mut next = h.next_probe.lock();
        let due = next.is_none_or(Deadline::passed);
        if due {
            *next = Some(Deadline::after(interval));
        }
        due
    }

    /// Tears down and re-establishes a broken shared QP pair, touching
    /// both ends' pools through the directory. Serialized by the same
    /// connect lock as lazy wiring and runtime joins; the pool-membership
    /// check makes the repair idempotent when both ends of a broken pair
    /// race into their retry loops. Returns whether this call actually
    /// rebuilt the pair (`false`: the other end got there first).
    fn reconnect_qp(&self, peer: NodeId, qp: QpId) -> LiteResult<bool> {
        let _g = self.dir.lock_connect();
        let other = self
            .dir
            .kernel(peer)
            .ok_or(LiteError::NodeDown { node: peer })?;
        let other_dp = &other.datapath;
        // Already repaired from the other end?
        if !self.remove_qp(peer, qp) {
            return Ok(false);
        }
        // Tear down both halves of the broken pair...
        let nic = self.fabric.nic(self.node);
        if let Ok(q) = nic.qp(qp) {
            if let Ok((_, peer_qp)) = q.peer() {
                other_dp.remove_qp(self.node, peer_qp);
                if let Ok(pqp) = self.fabric.nic(peer).qp(peer_qp) {
                    self.fabric.nic(peer).destroy_qp(&pqp);
                }
            }
            nic.destroy_qp(&q);
        }
        // ...and wire a fresh one on the same shared queues.
        self.add_pair(peer, other_dp);
        self.retry.qp_reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// The recovery wrapper around every remote post. Faults are injected
    /// before any side effect, so a failed attempt is safe to repeat:
    ///
    /// * transient faults (drops, down nodes, pools mid-swap) retry with
    ///   exponential virtual-time backoff, bounded by the `op_timeout`
    ///   host-wall budget counted from the first of them;
    /// * a broken QP is torn down and re-established transparently, then
    ///   the op is replayed;
    /// * a peer past the liveness threshold fails fast with
    ///   [`LiteError::PeerDead`], except for one rate-limited probe that
    ///   can revive it after a restart.
    fn with_retry<T>(
        &self,
        ctx: &mut Ctx,
        peer: NodeId,
        t: OpTrace,
        mut attempt: impl FnMut(&Self, &mut Ctx) -> LiteResult<T>,
    ) -> LiteResult<T> {
        // Lifecycle *error* events are recorded unsampled, exactly where
        // the matching counter increments — the chaos tests assert that
        // trace-ring `Retried` events equal `KernelStats.retries`.
        let trace = |kind: EventKind, at: Nanos| {
            self.obs.trace(t.op_id, t.class, kind, t.prio, peer, at);
        };
        let retried = |at: Nanos| {
            self.retry.retries.fetch_add(1, Ordering::Relaxed);
            trace(EventKind::Retried, at);
            self.obs.record_retry(peer);
        };
        if peer == self.node {
            return attempt(self, ctx);
        }
        if !self.retry_enabled {
            return attempt(self, ctx).inspect_err(|_| {
                self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
            });
        }
        if self.peer_is_dead(peer) {
            if self.claim_probe(peer) {
                if let Ok(v) = attempt(self, ctx) {
                    self.mark_peer_alive(peer);
                    return Ok(v);
                }
            }
            self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
            return Err(LiteError::PeerDead { node: peer });
        }
        // Taken at the first transient failure: an op that goes through
        // at once never reads the host clock.
        let mut deadline = None;
        let mut backoff = self.retry_base_ns;
        loop {
            match attempt(self, ctx) {
                Ok(v) => {
                    self.mark_peer_alive(peer);
                    return Ok(v);
                }
                Err(LiteError::Verbs(VerbsError::QpBroken { qp })) => {
                    match self.reconnect_qp(peer, qp) {
                        Ok(true) => trace(EventKind::Reconnected, ctx.now()),
                        Ok(false) => {}
                        Err(e) => {
                            self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                    retried(ctx.now());
                }
                Err(e @ (LiteError::Timeout | LiteError::NodeDown { .. })) => {
                    let deadline = deadline.get_or_insert_with(|| Deadline::after(self.op_timeout));
                    if deadline.passed() {
                        self.note_peer_timeout(peer);
                        self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    retried(ctx.now());
                    ctx.wait_until(ctx.now() + backoff);
                    // A little host-wall pacing so a down peer does not
                    // turn the bounded wait into a hot spin.
                    pause(Duration::from_nanos(backoff.min(100_000)));
                    backoff = (backoff * 2).min(RETRY_MAX_BACKOFF_NS);
                }
                Err(e) => {
                    self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
    }

    /// The global rkey of `node`, or a graceful [`LiteError::NodeDown`]
    /// when `node` has not joined the cluster.
    fn rkey(&self, node: NodeId) -> LiteResult<u32> {
        self.dir.rkey(node).ok_or(LiteError::NodeDown { node })
    }

    /// Applies QoS before an op of `bytes` towards `dst`: HW-Sep
    /// partitions the sender; SW-Pri consults the *receiver's* monitor
    /// (the paper's policy 3 explicitly uses receiver-side information).
    /// An unknown `dst` falls back to the sender's own state — the op
    /// itself will fail cleanly at the rkey/QP lookup.
    fn qos_before(&self, ctx: &mut Ctx, prio: Priority, dst: NodeId, bytes: u64) {
        let state = match self.qos.mode() {
            QosMode::SwPri => self.dir.qos(dst).unwrap_or(&self.qos),
            _ => &self.qos,
        };
        state.before_op(ctx, prio, bytes);
    }

    /// Records a completed high-priority op at the receiver's monitor.
    fn qos_after_high(&self, dst: NodeId, finish: Nanos, bytes: u64, latency: Nanos) {
        if let Some(q) = self.dir.qos(dst) {
            q.after_high_op(finish, bytes, latency);
        }
    }

    /// One posting attempt of the doorbell chain `ops[done.n..]`
    /// towards the remote node `dst`: per-op mapping checks and QoS as the
    /// single posts charge them, then one [`rnic::Nic::post_chain`] so the
    /// host post cost and QP-context touch are paid once for the run.
    ///
    /// Every acknowledged completion is pushed onto `done`, on failure
    /// too, which makes a retry *resume* rather than replay: request-leg
    /// faults fire before any side effect (nothing is appended, the whole
    /// remainder retries), while an atomic's lost ack stops the chain
    /// after its apply — the next attempt starts at that atomic, whose
    /// exactly-once token (`aseq0` + its index, minted once per logical
    /// op) turns the repeat into a lookup. Replaying from the top instead
    /// would rewrite payloads *after* later atomics of the chain had
    /// taken effect — e.g. a record write after its lock release.
    fn post_chain_once<'o>(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        dst: NodeId,
        ops: &'o [Op],
        aseq0: u64,
        done: &mut Done,
    ) -> LiteResult<()> {
        let first = done.n;
        let rest = &ops[first..];
        let start = ctx.now();
        let qp = self.qp_to(dst, prio)?;
        let rkey = self.rkey(dst)?;
        let remote = |addr| RemoteAddr { rkey, addr };
        let lkey = self.global_lkey;
        let mut wr_of = |k: usize, op: &'o Op| -> Wr<'o> {
            if !matches!(op, Op::Write { imm: Some(_), .. }) {
                // Write-imm paths pay their (cheaper) mapping cost as
                // part of RPC metadata handling instead.
                ctx.work(MAP_CHECK_NS);
            }
            // Tagged with the logical-op sequence: a retry after a lost
            // ack hits the responder's dedup filter instead of applying
            // a second time.
            let token = Some((self.node, aseq0 + (first + k) as u64));
            match op {
                Op::Write {
                    dst_addr,
                    src,
                    len,
                    imm,
                    ..
                } => {
                    self.qos_before(ctx, prio, dst, *len as u64);
                    Wr::Write {
                        sge: SgeRef::Phys { lkey, chunks: src },
                        remote: remote(*dst_addr),
                        imm: *imm,
                    }
                }
                Op::Read {
                    src_addr,
                    dst: land,
                    len,
                    ..
                } => {
                    self.qos_before(ctx, prio, dst, *len as u64);
                    Wr::Read {
                        sge: SgeRef::Phys { lkey, chunks: land },
                        remote: remote(*src_addr),
                    }
                }
                Op::FetchAdd { addr, delta, .. } => Wr::FetchAdd {
                    remote: remote(*addr),
                    delta: *delta,
                    token,
                },
                Op::CmpSwap {
                    addr, expect, new, ..
                } => Wr::CmpSwap {
                    remote: remote(*addr),
                    expect: *expect,
                    new: *new,
                    token,
                },
            }
        };
        // Held inline: a run of up to `CHAIN_INLINE` needs no heap for its
        // work requests.
        let wrs: InlineVec<Wr> = rest
            .iter()
            .enumerate()
            .map(|(k, op)| wr_of(k, op))
            .collect();
        // A write-imm's credit is reposted when the arrival is dispatched,
        // by the thread that delivered it — or, while a kernel call holds
        // the remote dispatcher, once the kernel-call thread drains after
        // it. RNR (exhausted credits) is therefore transient: wait for the
        // destination to repost one, then retry. Safe to repeat whole:
        // `post_chain` claims credits before any side effect and rolls them
        // back on failure.
        let nic = self.fabric.nic(self.node);
        let mut ack = |o: rnic::WrOutcome| {
            let op = &ops[done.n];
            let plain = match op {
                Op::Write { imm, .. } => imm.is_none(),
                Op::Read { .. } => true,
                _ => false,
            };
            if plain && prio == Priority::High {
                let latency = o.completion.saturating_sub(start);
                self.qos_after_high(dst, o.completion, op.bytes(), latency);
            }
            done.push(Completion {
                stamp: o.completion,
                value: o.value,
            });
        };
        let mut tries = 0;
        let mut deadline = None;
        loop {
            match nic.post_chain(ctx, &qp, &wrs, &mut ack) {
                Err(VerbsError::ReceiverNotReady) if tries < 1000 => {
                    tries += 1;
                    ctx.clock.advance(200);
                    let deadline = deadline.get_or_insert_with(|| Deadline::after(self.op_timeout));
                    let reposted = self.dir.kernel(dst).is_some_and(|peer| {
                        peer.credits
                            .park_until(|| peer.shared_rq.depth() > 0, *deadline)
                    });
                    if !reposted {
                        return Err(VerbsError::ReceiverNotReady.into());
                    }
                }
                result => return Ok(result?),
            }
        }
    }

    /// An op on this node's own memory: a plain copy or a local atomic,
    /// no NIC. Cannot fault and never repeats.
    fn post_local(&self, ctx: &mut Ctx, op: &Op) -> LiteResult<Completion> {
        ctx.work(MAP_CHECK_NS);
        match op {
            Op::Write {
                dst_addr,
                src,
                len,
                imm,
                ..
            } => {
                // Loop-back write-imm goes through the kernel's RPC layer,
                // not here — it must land in the shared receive CQ.
                debug_assert!(imm.is_none(), "loopback imm handled by the RPC layer");
                let mem = self.mem();
                mem.copy_from(mem, src, &[extent(*dst_addr, *len)])?;
                ctx.work(COST.memcpy_time(*len as u64));
            }
            Op::Read {
                src_addr, dst, len, ..
            } => {
                let mem = self.mem();
                ctx.work(COST.memcpy_time(*len as u64));
                if *len == 8 && src_addr % 8 == 0 {
                    // One aligned word: the stamped load `Nic::post_chain`
                    // does for the same read from a remote node, at the
                    // price of the copy it is.
                    let (word, stamp) = mem.load_u64_stamped(*src_addr, ctx.now())?;
                    mem.scatter(dst, &word.to_le_bytes())?;
                    ctx.wait_until(stamp);
                } else {
                    mem.copy_from(mem, &[extent(*src_addr, *len)], dst)?;
                }
            }
            Op::FetchAdd { .. } | Op::CmpSwap { .. } => {
                ctx.work(LOCAL_ATOMIC_NS);
                // Stamped apply: the completion stamp is taken inside the
                // cell's critical section so conflicting atomics' stamps
                // follow the real apply order (history-checker soundness;
                // see `PhysMem::fetch_add_u64_stamped`).
                let (value, stamp) = match *op {
                    Op::FetchAdd { addr, delta, .. } => {
                        self.mem().fetch_add_u64_stamped(addr, delta, ctx.now())?
                    }
                    Op::CmpSwap {
                        addr, expect, new, ..
                    } => self.mem().cas_u64_stamped(addr, expect, new, ctx.now())?,
                    _ => unreachable!("matched an atomic"),
                };
                ctx.wait_until(stamp);
                return Ok(Completion { stamp, value });
            }
        }
        Ok(Completion {
            stamp: ctx.now(),
            value: 0,
        })
    }

    /// History capture for the linearizability checker: atomics are
    /// recorded here, at the datapath, so lock-word traffic is seen too —
    /// not just `lt_fetch_add`/`lt_test_set`. An acknowledged atomic's
    /// value is the one real apply (retries are exactly-once); a failed
    /// one is recorded as pending (the checker explores both did/didn't
    /// branches).
    fn record_atomic(&self, op: &Op, ret: u64, ok: bool, invoke: Nanos, response: Nanos) {
        let (node, addr, kind) = match *op {
            Op::FetchAdd { node, addr, delta } => {
                (node, addr, crate::verify::OpKind::FetchAdd { delta })
            }
            Op::CmpSwap {
                node,
                addr,
                expect,
                new,
            } => (node, addr, crate::verify::OpKind::TestSet { expect, new }),
            _ => return,
        };
        let Some(log) = self.obs.history() else {
            return;
        };
        // Key atomic histories by *logical* location when the cell lives
        // in a tracked LMR chunk: the physical address changes when the
        // chunk migrates, but the (LMR id, offset) identity does not — so
        // histories on a cell stay one linearizable history across
        // eviction and fetch-back. Untracked cells (lock words, budget-0
        // runs) keep their physical key, byte-identical to the
        // pre-tiering behavior.
        let key = match self.dir.mm(node).and_then(|mm| mm.logical_cell(addr)) {
            Some((id, off)) => crate::verify::Key::LogicalCell {
                node: id.node,
                idx: id.idx,
                off,
            },
            None => crate::verify::Key::Cell { node, addr },
        };
        log.record(crate::verify::HistOp {
            proc: crate::verify::proc_id(self.node, 0),
            key,
            kind,
            ret,
            ok,
            invoke,
            response,
        });
    }

    /// A run of ops towards one node through the recovery layer —
    /// retry/backoff, transparent QP re-establishment, and the
    /// peer-liveness fast path — around resumable posting attempts. A
    /// remote run of two or more goes out as one doorbell chain
    /// ([`RnicDataPath::post_chain_once`]); a run of one is the single
    /// verb, and its atomic blocks like the verb does. Each op's lifecycle
    /// (posted/batched/retried/reconnected/completed/failed) is traced and
    /// its post→completion latency recorded per class, priority, and
    /// peer.
    fn post_run(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        ops: &[Op],
        out: &mut [Completion],
    ) -> LiteResult<()> {
        let peer = ops[0].dst_node();
        if peer != self.node {
            self.ensure_qps(peer)?;
        }
        for op in ops {
            self.touch_mm(op);
        }
        let start = ctx.now();
        let sampled = self.obs.sample(ctx);
        let id0 = self.obs.next_op_ids(ops.len() as u64);
        if sampled {
            for (id, op) in (id0..).zip(ops) {
                self.obs
                    .trace(id, op.class(), EventKind::Posted, prio, peer, start);
                if ops.len() > 1 {
                    self.obs
                        .trace(id, op.class(), EventKind::Batched, prio, peer, start);
                }
            }
        }
        // A chain retries as a unit, so retry events carry the first
        // op's id.
        let trace = OpTrace {
            op_id: id0,
            class: ops[0].class(),
            prio,
        };
        // One sequence per *logical* op, minted before the retry loop:
        // every attempt below replays the same exactly-once tokens. Only
        // atomics carry one, so a run without them mints none.
        let atomics = ops.iter().any(|op| op.class() == OpClass::Atomic);
        let aseq0 = if atomics {
            self.atomic_seq
                .fetch_add(ops.len() as u64, Ordering::Relaxed)
        } else {
            0
        };
        let mut done = Done { out, n: 0 };
        let res = self.with_retry(ctx, peer, trace, |dp, ctx| {
            if peer == dp.node {
                for op in &ops[done.n..] {
                    done.push(dp.post_local(ctx, op)?);
                }
                return Ok(());
            }
            dp.post_chain_once(ctx, prio, peer, ops, aseq0, &mut done)?;
            if let ([op], [c]) = (ops, &mut *done.out) {
                if op.class() == OpClass::Atomic {
                    ctx.wait_until(c.stamp);
                    ctx.work(COST.cq_poll_ns);
                    c.stamp = ctx.now();
                }
            }
            Ok(())
        });
        let done = &done.out[..done.n];
        for ((id, op), c) in (id0..).zip(ops).zip(done) {
            self.record_atomic(op, c.value, true, start, c.stamp);
            self.obs.record_completion(
                ctx,
                op.class(),
                prio,
                peer,
                op.bytes(),
                c.stamp.saturating_sub(start),
                c.stamp,
                sampled,
            );
            if sampled {
                self.obs
                    .trace(id, op.class(), EventKind::Completed, prio, peer, c.stamp);
            }
        }
        if let Err(e) = res {
            for op in &ops[done.len()..] {
                self.record_atomic(op, 0, false, start, ctx.now());
            }
            let failed = &ops[done.len()];
            self.obs.record_failure(peer);
            self.obs.trace(
                id0 + done.len() as u64,
                failed.class(),
                EventKind::Failed,
                prio,
                peer,
                ctx.now(),
            );
            return Err(e);
        }
        Ok(())
    }
}

impl RnicDataPath {
    /// The fabric whose physical memory the descriptors address (staging
    /// buffers are filled through it; moving host bytes into simulated
    /// memory carries no virtual-time cost).
    pub fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    /// Allocates `bytes` of remote-accessible physical memory on this
    /// datapath's node; returns its physical address.
    pub fn alloc(&self, bytes: u64) -> LiteResult<u64> {
        Ok(self.alloc.lock().alloc(bytes)?)
    }

    /// Posts one op; returns its completion. The caller's clock advances
    /// through the post path only (block with `ctx.wait_until` on the
    /// stamp when needed); atomics are blocking, like their verbs.
    pub fn post(&self, ctx: &mut Ctx, prio: Priority, op: &Op) -> LiteResult<Completion> {
        let mut out = [Completion::default()];
        self.post_run(ctx, prio, std::slice::from_ref(op), &mut out)?;
        Ok(out[0])
    }

    /// Posts an ordered chain of ops; completions are returned in op
    /// order and ops towards one node take effect in that order. An op
    /// that went out in a chain — atomics included — does not block: wait
    /// on the latest stamp.
    ///
    /// Doorbell batching: every maximal run of remote ops towards the
    /// same peer — any mix of writes, reads and atomics — goes out as one
    /// chain (one host post, one QP-context touch, one engine batch —
    /// §6.1's sharing taken one step further). Local ops, and every op
    /// when `batch_posting` is off, post one by one.
    pub fn post_many(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        ops: &[Op],
    ) -> LiteResult<Vec<Completion>> {
        let mut out = vec![Completion::default(); ops.len()];
        self.post_many_into(ctx, prio, ops, &mut out)?;
        Ok(out)
    }

    /// [`Self::post_many`] into the caller's `out`, one slot per op.
    pub(crate) fn post_many_into(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        ops: &[Op],
        out: &mut [Completion],
    ) -> LiteResult<()> {
        let mut i = 0;
        while i < ops.len() {
            let dst = ops[i].dst_node();
            let mut j = i + 1;
            if self.batch && dst != self.node {
                while j < ops.len() && ops[j].dst_node() == dst {
                    j += 1;
                }
            }
            self.post_run(ctx, prio, &ops[i..j], &mut out[i..j])?;
            i = j;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Kernel wrappers: counters + delegation to the node's RnicDataPath.
// ---------------------------------------------------------------------

impl LiteKernel {
    /// Posts one read or write, counted like a chain of one; returns its
    /// completion stamp, and the caller decides whether to block on it.
    pub(crate) fn rdma_one(&self, ctx: &mut Ctx, prio: Priority, op: &Op) -> LiteResult<Nanos> {
        let mut out = [Completion::default()];
        self.rdma_chain(ctx, prio, std::slice::from_ref(op), &mut out)?;
        Ok(out[0].stamp)
    }

    /// Posts an ordered chain of ops ([`RnicDataPath::post_many`]: one
    /// doorbell per run of remote ops towards one node) into `out`,
    /// counting its reads and writes.
    pub(crate) fn rdma_chain(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        ops: &[Op],
        out: &mut [Completion],
    ) -> LiteResult<()> {
        self.observe().count_moved(ctx, ops);
        self.datapath.post_many_into(ctx, prio, ops, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_descriptor_accessors() {
        let w = Op::write(3, 0x1000, vec![Chunk { addr: 0, len: 64 }], 64);
        assert_eq!(w.dst_node(), 3);
        assert_eq!(w.bytes(), 64);
        let r = Op::read(1, 0x2000, vec![Chunk { addr: 0, len: 9 }], 9);
        assert_eq!(r.dst_node(), 1);
        assert_eq!(r.bytes(), 9);
        let fa = Op::FetchAdd {
            node: 2,
            addr: 8,
            delta: 1,
        };
        assert_eq!((fa.dst_node(), fa.bytes()), (2, 8));
        let cs = Op::CmpSwap {
            node: 0,
            addr: 8,
            expect: 0,
            new: 1,
        };
        assert_eq!((cs.dst_node(), cs.bytes()), (0, 8));
    }
}

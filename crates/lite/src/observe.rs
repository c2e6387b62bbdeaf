//! Kernel-level observability: latency histograms and per-peer accounting
//! kept in the ledgers of the contexts that record them, and an
//! op-lifecycle trace ring.
//!
//! The paper's evaluation (§6, §8) is built on per-priority latency and
//! throughput breakdowns; production RDMA stacks (FaRM's per-machine
//! telemetry, HERD's per-verb accounting) treat in-kernel measurement as
//! load-bearing. This module gives the LITE kernel the same capability:
//!
//! * The node's [`simnet::Book`] of ledgers: every context that posts
//!   through the node records its class × priority latency histograms,
//!   per-peer ops, bytes and latencies, the kernel's one-sided op and
//!   byte counts and mm's two latency histograms in its own ledger,
//!   with loads and stores and one release store per op (no
//!   read-modify-write); a dropped context's ledger retires into the
//!   book's total. `lt_stats()` folds them into a [`StatsReport`]. Per-peer failures
//!   and retries stay atomics here: they are counted on the recovery
//!   paths, some of which hold no context.
//! * [`TraceRing`] — a fixed-size, per-node, seqlock-style ring of
//!   timestamped op-lifecycle events (posted, batched, retried,
//!   reconnected, completed, failed). Writers never block; readers
//!   detect and skip torn slots. Dumpable on fault or via
//!   [`StatsReport`].
//! * [`StatsReport`] — the structured snapshot returned by
//!   `lt_stats()`: per-class × per-priority percentiles, per-peer
//!   liveness and byte counts, trace-ring occupancy, retry/QoS gauges,
//!   and a hand-rolled JSON export for benches and CI artifacts.
//!
//! Recording costs **host** cycles only — it never advances virtual
//! clocks — so observability is invisible to the modeled latencies it
//! measures. A sampling knob ([`crate::LiteConfig::stats_sample_rate`])
//! bounds even the host cost on hot paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rnic::NodeId;
use simnet::ledger::{Samples, Tally};
use simnet::{Book, Ctx, Nanos};

use crate::qos::{Priority, QosMode};

// ---------------------------------------------------------------------
// Op classification
// ---------------------------------------------------------------------

/// The class of a measured operation, one histogram family each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// One-sided RDMA read (`lt_read` and internal reads).
    Read,
    /// One-sided RDMA write (`lt_write`, write-imm payload posts).
    Write,
    /// One-sided atomic (fetch-add / compare-and-swap).
    Atomic,
    /// Full RPC round trip (request post → reply observed).
    Rpc,
    /// Distributed lock acquire (`lt_lock`, fast or queued path).
    Lock,
    /// Barrier wait (`lt_barrier`).
    Barrier,
    /// Management / cleanup traffic (allocation rollback, handle
    /// teardown, lock-word unwinds) — the paths whose failures used to
    /// be silently swallowed.
    Mgmt,
}

/// All op classes, in display order.
pub const OP_CLASSES: [OpClass; 7] = [
    OpClass::Read,
    OpClass::Write,
    OpClass::Atomic,
    OpClass::Rpc,
    OpClass::Lock,
    OpClass::Barrier,
    OpClass::Mgmt,
];

impl OpClass {
    /// Stable short name (JSON keys, table labels).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Atomic => "atomic",
            OpClass::Rpc => "rpc",
            OpClass::Lock => "lock",
            OpClass::Barrier => "barrier",
            OpClass::Mgmt => "mgmt",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Read => 0,
            OpClass::Write => 1,
            OpClass::Atomic => 2,
            OpClass::Rpc => 3,
            OpClass::Lock => 4,
            OpClass::Barrier => 5,
            OpClass::Mgmt => 6,
        }
    }

    fn from_index(i: usize) -> OpClass {
        OP_CLASSES[i]
    }
}

fn prio_index(p: Priority) -> usize {
    match p {
        Priority::High => 0,
        Priority::Low => 1,
    }
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

/// What happened to an op at one point in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Handed to the datapath.
    Posted,
    /// Part of a doorbell-batched chain.
    Batched,
    /// A failed attempt was retried (backoff or post-reconnect replay).
    Retried,
    /// A broken QP towards the peer was re-established for this op.
    Reconnected,
    /// Completed successfully.
    Completed,
    /// Failed after recovery gave up.
    Failed,
}

/// All event kinds, in display order.
pub const EVENT_KINDS: [EventKind; 6] = [
    EventKind::Posted,
    EventKind::Batched,
    EventKind::Retried,
    EventKind::Reconnected,
    EventKind::Completed,
    EventKind::Failed,
];

impl EventKind {
    /// Stable short name (JSON keys, dumps).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Posted => "posted",
            EventKind::Batched => "batched",
            EventKind::Retried => "retried",
            EventKind::Reconnected => "reconnected",
            EventKind::Completed => "completed",
            EventKind::Failed => "failed",
        }
    }

    fn code(self) -> u64 {
        match self {
            EventKind::Posted => 0,
            EventKind::Batched => 1,
            EventKind::Retried => 2,
            EventKind::Reconnected => 3,
            EventKind::Completed => 4,
            EventKind::Failed => 5,
        }
    }

    fn from_code(c: u64) -> EventKind {
        EVENT_KINDS[(c as usize) % EVENT_KINDS.len()]
    }
}

/// One decoded op-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic per-node op id (assigned at post time).
    pub op_id: u64,
    /// Op class.
    pub class: OpClass,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Priority the op ran at.
    pub prio: Priority,
    /// Remote peer (the local node id for loop-back ops).
    pub peer: NodeId,
    /// Virtual-time stamp of the event.
    pub stamp: Nanos,
}

fn pack_word(class: OpClass, kind: EventKind, prio: Priority, peer: NodeId) -> u64 {
    (class.index() as u64)
        | (kind.code() << 8)
        | ((prio_index(prio) as u64) << 16)
        | ((peer as u64) << 24)
}

fn unpack_word(w: u64) -> (OpClass, EventKind, Priority, NodeId) {
    let class = OpClass::from_index((w & 0xff) as usize % OP_CLASSES.len());
    let kind = EventKind::from_code((w >> 8) & 0xff);
    let prio = if (w >> 16) & 0xff == 0 {
        Priority::High
    } else {
        Priority::Low
    };
    (class, kind, prio, (w >> 24) as NodeId)
}

/// One ring slot: a double-sequence seqlock around three payload words.
///
/// Writers store `start = idx + 1`, the payload, then `end = idx + 1`
/// (release). Readers load `end` (acquire), the payload, then `start`
/// (acquire), and accept the slot only when both sequences agree —
/// anything else is a torn or in-progress write and is skipped. All
/// fields are atomics, so a race is at worst a skipped event, never UB.
struct TraceSlot {
    start: AtomicU64,
    end: AtomicU64,
    word: AtomicU64,
    op_id: AtomicU64,
    stamp: AtomicU64,
}

impl TraceSlot {
    fn new() -> Self {
        TraceSlot {
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            word: AtomicU64::new(0),
            op_id: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
        }
    }
}

/// A fixed-size, per-node, lock-free ring of the last N op-lifecycle
/// events. Writers claim a slot with one `fetch_add` and never wait;
/// overwrites evict the oldest events. [`TraceRing::snapshot`] returns
/// the surviving events oldest-first.
pub struct TraceRing {
    slots: Vec<TraceSlot>,
    head: AtomicU64,
}

impl TraceRing {
    /// Creates a ring with `slots` entries (rounded up to a power of
    /// two, minimum 64).
    pub fn new(slots: usize) -> Self {
        let n = slots.max(64).next_power_of_two();
        TraceRing {
            slots: (0..n).map(|_| TraceSlot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (monotonic; `recorded - capacity`
    /// events have been evicted once it exceeds the capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event (lock-free).
    pub fn record(&self, ev: TraceEvent) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx as usize) & (self.slots.len() - 1)];
        let seq = idx + 1;
        slot.start.store(seq, Ordering::Relaxed);
        slot.word.store(
            pack_word(ev.class, ev.kind, ev.prio, ev.peer),
            Ordering::Relaxed,
        );
        slot.op_id.store(ev.op_id, Ordering::Relaxed);
        slot.stamp.store(ev.stamp, Ordering::Relaxed);
        slot.end.store(seq, Ordering::Release);
    }

    /// The surviving events, oldest first. Slots being overwritten
    /// concurrently are skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for idx in lo..head {
            let slot = &self.slots[(idx as usize) & (self.slots.len() - 1)];
            let end = slot.end.load(Ordering::Acquire);
            let word = slot.word.load(Ordering::Relaxed);
            let op_id = slot.op_id.load(Ordering::Relaxed);
            let stamp = slot.stamp.load(Ordering::Relaxed);
            let start = slot.start.load(Ordering::Acquire);
            if start != idx + 1 || end != idx + 1 {
                continue; // torn or already overwritten
            }
            let (class, kind, prio, peer) = unpack_word(word);
            out.push(TraceEvent {
                op_id,
                class,
                kind,
                prio,
                peer,
                stamp,
            });
        }
        out
    }

    /// Number of surviving events of `kind` (snapshot-based).
    pub fn count_kind(&self, kind: EventKind) -> u64 {
        self.snapshot().iter().filter(|e| e.kind == kind).count() as u64
    }
}

// ---------------------------------------------------------------------
// The ledger cells
// ---------------------------------------------------------------------

/// What each fixed cell of a node's ledgers counts. The first
/// `OP_CLASSES.len() * 2` are the class × priority latency histograms
/// (`class * 2 + priority`).
pub(crate) mod cell {
    /// One-sided writes the kernel posted for `lt_*` calls and its own
    /// services (`KernelStats::lt_writes`, bytes in `lt_bytes`).
    pub const LT_WRITE: usize = 14;
    /// One-sided reads, likewise (`lt_reads`).
    pub const LT_READ: usize = 15;
    /// mm fetch-back latency (virtual ns, whole operation).
    pub const MM_FETCH_BACK: usize = 16;
    /// Registration (`lt_malloc`) latency, virtual ns.
    pub const MM_REG: usize = 17;
    /// Fixed cells per ledger.
    pub const COUNT: usize = 18;
}

fn class_cell(class: OpClass, prio: Priority) -> usize {
    class.index() * 2 + prio_index(prio)
}

/// Per-peer fault counters: counted where recovery gives up or repeats,
/// which are rare paths and not all of them hold a context.
#[derive(Default)]
struct PeerFaults {
    failures: AtomicU64,
    retries: AtomicU64,
}

// ---------------------------------------------------------------------
// The observability state owned by a datapath / kernel
// ---------------------------------------------------------------------

/// The kernel's observability surface: one per node, shared by the
/// datapath hot paths, the RPC plane, and the API layer.
pub struct Observability {
    /// The ledgers of every context that recorded here (class ×
    /// priority histograms, per-peer ops, bytes and latency, one-sided
    /// op counts, mm latencies).
    book: Arc<Book>,
    faults: Box<[PeerFaults]>,
    ring: TraceRing,
    /// Record 1 in `sample_rate` latency samples per context (lifecycle
    /// *error* events — retried/reconnected/failed — are always
    /// recorded).
    sample_rate: u32,
    next_op: AtomicU64,
    /// History log for the linearizability checker (armed by
    /// [`crate::LiteCluster::record_history`]; absent in normal runs).
    history: OnceLock<Arc<crate::verify::HistoryLog>>,
}

impl Observability {
    /// Creates observability state for a node with `peers` peers.
    pub fn new(peers: usize, sample_rate: u32, ring_slots: usize) -> Self {
        Observability {
            book: Arc::new(Book::new(cell::COUNT, peers)),
            faults: (0..peers).map(|_| PeerFaults::default()).collect(),
            ring: TraceRing::new(ring_slots),
            sample_rate: sample_rate.max(1),
            next_op: AtomicU64::new(1),
            history: OnceLock::new(),
        }
    }

    /// Arms history recording for this node; recording stays on for the
    /// node's lifetime. Subsequent installs are ignored (first wins).
    pub fn install_history(&self, log: Arc<crate::verify::HistoryLog>) {
        let _ = self.history.set(log);
    }

    /// The armed history log, if any. Hot paths check this and skip
    /// recording entirely when unarmed (one relaxed load).
    pub fn history(&self) -> Option<&Arc<crate::verify::HistoryLog>> {
        self.history.get()
    }

    /// Assigns the next monotonic op id.
    pub fn next_op_id(&self) -> u64 {
        self.next_op_ids(1)
    }

    /// Assigns `n` consecutive op ids (a doorbell chain's); returns the
    /// first.
    pub fn next_op_ids(&self, n: u64) -> u64 {
        self.next_op.fetch_add(n, Ordering::Relaxed)
    }

    /// Whether `ctx`'s next op's latency (and posted/completed trace
    /// events) should be recorded under the sampling rate: one in
    /// `sample_rate` of each context's ops.
    pub fn sample(&self, ctx: &mut Ctx) -> bool {
        ctx.ledger(&self.book).sample(self.sample_rate)
    }

    /// The trace ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Records a completed op in `ctx`'s ledger: per-peer op/byte gauges
    /// are always exact; the latency histograms (class cell + per-peer)
    /// record only when `sampled` — the caller's one
    /// [`Observability::sample`] draw for the op.
    #[allow(clippy::too_many_arguments)]
    pub fn record_completion(
        &self,
        ctx: &mut Ctx,
        class: OpClass,
        prio: Priority,
        peer: NodeId,
        bytes: u64,
        latency: Nanos,
        stamp: Nanos,
        sampled: bool,
    ) {
        ctx.ledger(&self.book).record(|e| {
            if sampled {
                e.sample(class_cell(class, prio), latency);
            }
            e.peer(peer, bytes, stamp, sampled.then_some(latency));
        });
    }

    /// Records a latency sample into one class × priority cell only (no
    /// per-peer accounting) — used for API-level round-trip spans (RPC,
    /// lock, barrier) whose underlying posts already feed the peer table.
    pub fn record_span(&self, ctx: &mut Ctx, class: OpClass, prio: Priority, latency: Nanos) {
        self.record_latency(ctx, class_cell(class, prio), latency);
    }

    /// Records one latency sample into fixed cell `cell` of `ctx`'s
    /// ledger.
    pub(crate) fn record_latency(&self, ctx: &mut Ctx, cell: usize, latency: Nanos) {
        ctx.ledger(&self.book).record(|e| e.sample(cell, latency));
    }

    /// Counts the one-sided reads and writes of a chain the kernel posts
    /// (`KernelStats::{lt_writes, lt_reads, lt_bytes}`), as one op.
    pub(crate) fn count_moved(&self, ctx: &mut Ctx, ops: &[crate::kernel::datapath::Op]) {
        use crate::kernel::datapath::Op;
        ctx.ledger(&self.book).record(|e| {
            for op in ops {
                match op {
                    Op::Write { len, .. } => e.add(cell::LT_WRITE, 1, *len as u64),
                    Op::Read { len, .. } => e.add(cell::LT_READ, 1, *len as u64),
                    Op::FetchAdd { .. } | Op::CmpSwap { .. } => {}
                }
            }
        });
    }

    /// Counts a failed op towards `peer`.
    pub fn record_failure(&self, peer: NodeId) {
        if let Some(p) = self.faults.get(peer) {
            p.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a retried attempt towards `peer`.
    pub fn record_retry(&self, peer: NodeId) {
        if let Some(p) = self.faults.get(peer) {
            p.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Emits one lifecycle event into the trace ring.
    pub fn trace(
        &self,
        op_id: u64,
        class: OpClass,
        kind: EventKind,
        prio: Priority,
        peer: NodeId,
        stamp: Nanos,
    ) {
        self.ring.record(TraceEvent {
            op_id,
            class,
            kind,
            prio,
            peer,
            stamp,
        });
    }

    /// Everything the node's contexts recorded, live and retired.
    pub(crate) fn tally(&self) -> Tally {
        self.book.fold()
    }

    /// Configured sampling rate (1 = every op).
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }
}

// ---------------------------------------------------------------------
// The structured report
// ---------------------------------------------------------------------

/// Percentile summary of one latency population (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Samples recorded (after sampling).
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Exact minimum (p0).
    pub p0: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — the SLO tail (ROADMAP asks for p50/p99/p999).
    /// Same log-bucket resolution as the other interior percentiles.
    pub p999: u64,
    /// Exact maximum (p100).
    pub p100: u64,
}

impl LatencySummary {
    /// The summary of folded samples (empty for none).
    pub(crate) fn of(samples: Option<&Samples>) -> LatencySummary {
        let Some(s) = samples else {
            return LatencySummary::default();
        };
        let h = &s.hist;
        LatencySummary {
            count: h.count(),
            mean_ns: s.mean(),
            p0: h.percentile(0.0),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            p100: h.percentile(100.0),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_ns\":{:.1},\"p0\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"p100\":{}}}",
            self.count, self.mean_ns, self.p0, self.p50, self.p90, self.p99, self.p999, self.p100
        )
    }
}

/// Latency breakdown of one op class at one priority.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Op class.
    pub class: OpClass,
    /// Priority.
    pub prio: Priority,
    /// Post→completion latency summary.
    pub lat: LatencySummary,
}

/// One peer's view from this node.
#[derive(Debug, Clone)]
pub struct PeerReport {
    /// Peer node id.
    pub peer: NodeId,
    /// Completed ops towards the peer.
    pub ops: u64,
    /// Bytes moved towards/from the peer.
    pub bytes: u64,
    /// Ops that failed after recovery gave up.
    pub failures: u64,
    /// Attempts repeated towards the peer.
    pub retries: u64,
    /// Whether the liveness monitor currently considers the peer alive.
    pub alive: bool,
    /// Virtual stamp of the latest completion.
    pub last_completion: Nanos,
    /// Latency summary towards the peer (all classes).
    pub lat: LatencySummary,
}

/// Trace-ring gauges.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Ring capacity in events.
    pub capacity: usize,
    /// Events ever recorded.
    pub recorded: u64,
    /// Events currently held (≤ capacity).
    pub occupancy: usize,
    /// Surviving events by kind, indexed like [`EVENT_KINDS`].
    pub by_kind: [u64; 6],
}

/// QoS gauges folded into the report.
#[derive(Debug, Clone)]
pub struct QosReport {
    /// Active mode.
    pub mode: QosMode,
    /// High-priority RTT EWMA (policy 3 input).
    pub rtt_ewma_ns: Nanos,
}

/// The structured snapshot returned by `lt_stats()`.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Reporting node.
    pub node: NodeId,
    /// Flat kernel counters (same data as [`crate::KernelStats`]).
    pub kernel: crate::KernelStats,
    /// Per class × priority latency summaries (only non-empty cells).
    pub classes: Vec<ClassStats>,
    /// Per-peer accounting and liveness.
    pub peers: Vec<PeerReport>,
    /// Trace-ring gauges.
    pub trace: TraceStats,
    /// QoS gauges.
    pub qos: QosReport,
    /// Memory-tiering gauges (resident/evicted bytes, migrations).
    pub mm: crate::mm::MmReport,
    /// This node's NIC: how long its WQE engine was busy and how many
    /// atomics it executed for its peers — whether one-sided traffic to
    /// this node is bound by the engine, and by which verb.
    pub nic: rnic::NicStats,
    /// Sampling rate the histograms were recorded at.
    pub sample_rate: u32,
}

impl StatsReport {
    /// The summary for one class × priority cell, if it recorded samples.
    pub fn class(&self, class: OpClass, prio: Priority) -> Option<&LatencySummary> {
        self.classes
            .iter()
            .find(|c| c.class == class && c.prio == prio)
            .map(|c| &c.lat)
    }

    /// Combined summary across both priorities of `class` (count-weighted
    /// mean; percentiles are the worse of the two cells).
    pub fn class_any_prio(&self, class: OpClass) -> Option<LatencySummary> {
        let cells: Vec<&LatencySummary> = self
            .classes
            .iter()
            .filter(|c| c.class == class)
            .map(|c| &c.lat)
            .collect();
        if cells.is_empty() {
            return None;
        }
        let count: u64 = cells.iter().map(|c| c.count).sum();
        Some(LatencySummary {
            count,
            mean_ns: cells
                .iter()
                .map(|c| c.mean_ns * c.count as f64)
                .sum::<f64>()
                / count.max(1) as f64,
            p0: cells.iter().map(|c| c.p0).min().unwrap_or(0),
            p50: cells.iter().map(|c| c.p50).max().unwrap_or(0),
            p90: cells.iter().map(|c| c.p90).max().unwrap_or(0),
            p99: cells.iter().map(|c| c.p99).max().unwrap_or(0),
            p999: cells.iter().map(|c| c.p999).max().unwrap_or(0),
            p100: cells.iter().map(|c| c.p100).max().unwrap_or(0),
        })
    }

    /// Surviving trace events of `kind`.
    pub fn trace_count(&self, kind: EventKind) -> u64 {
        self.trace.by_kind[kind.code() as usize]
    }

    /// Serializes the full report as a JSON object (no external deps —
    /// the schema is documented in DESIGN.md "Observability").
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\"node\":{},\"sample_rate\":{},\"kernel\":{{",
            self.node, self.sample_rate
        ));
        let k = &self.kernel;
        s.push_str(&format!(
            "\"rpc_dispatched\":{},\"lt_writes\":{},\"lt_reads\":{},\"lt_bytes\":{},\"qps\":{},\"retries\":{},\"qp_reconnects\":{},\"peers_marked_dead\":{},\"ops_failed\":{},\"cleanup_failures\":{},\"lock_unwinds\":{},\"sync_leaks\":{},\"txn_commits\":{},\"txn_aborts\":{},\"txn_validation_fails\":{},\"kv_puts\":{},\"kv_gets\":{},\"kv_replication_lag\":{},\"boot_ns\":{},\"mesh_ns\":{},\"lazy_connects\":{},\"ring_pulls\":{}}}",
            k.rpc_dispatched, k.lt_writes, k.lt_reads, k.lt_bytes, k.qps, k.retries,
            k.qp_reconnects, k.peers_marked_dead, k.ops_failed, k.cleanup_failures,
            k.lock_unwinds, k.sync_leaks, k.txn_commits, k.txn_aborts,
            k.txn_validation_fails, k.kv_puts, k.kv_gets, k.kv_replication_lag,
            k.boot_ns, k.mesh_ns, k.lazy_connects, k.ring_pulls
        ));
        s.push_str(",\"classes\":{");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let prio = if c.prio == Priority::High {
                "high"
            } else {
                "low"
            };
            s.push_str(&format!("\"{}.{}\":{}", c.class.name(), prio, c.lat.json()));
        }
        s.push_str("},\"peers\":[");
        for (i, p) in self.peers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"peer\":{},\"ops\":{},\"bytes\":{},\"failures\":{},\"retries\":{},\"alive\":{},\"last_completion\":{},\"lat\":{}}}",
                p.peer, p.ops, p.bytes, p.failures, p.retries, p.alive, p.last_completion,
                p.lat.json()
            ));
        }
        s.push_str("],\"trace\":{");
        s.push_str(&format!(
            "\"capacity\":{},\"recorded\":{},\"occupancy\":{}",
            self.trace.capacity, self.trace.recorded, self.trace.occupancy
        ));
        for (i, kind) in EVENT_KINDS.iter().enumerate() {
            s.push_str(&format!(",\"{}\":{}", kind.name(), self.trace.by_kind[i]));
        }
        s.push_str("},\"qos\":{");
        let mode = match self.qos.mode {
            QosMode::None => "none",
            QosMode::HwSep => "hw-sep",
            QosMode::SwPri => "sw-pri",
        };
        s.push_str(&format!(
            "\"mode\":\"{}\",\"rtt_ewma_ns\":{}}}",
            mode, self.qos.rtt_ewma_ns
        ));
        s.push_str(&format!(",\"mm\":{}", self.mm.json()));
        s.push_str(&format!(
            ",\"nic\":{{\"engine_busy_ns\":{},\"atomic_ops\":{}}}",
            self.nic.engine_busy_ns, self.nic.atomic_ops
        ));
        s.push('}');
        s
    }
}

/// Builds the per-class / per-peer sections of a report from the node's
/// folded ledgers (`tally`) and its fault counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_report(
    node: NodeId,
    kernel: crate::KernelStats,
    obs: &Observability,
    tally: &Tally,
    peer_alive: impl Fn(NodeId) -> bool,
    qos: QosReport,
    mm: crate::mm::MmReport,
    nic: rnic::NicStats,
) -> StatsReport {
    let mut classes = Vec::new();
    for &class in &OP_CLASSES {
        for prio in [Priority::High, Priority::Low] {
            let lat = LatencySummary::of(tally.cells[class_cell(class, prio)].lat.as_ref());
            if lat.count > 0 {
                classes.push(ClassStats { class, prio, lat });
            }
        }
    }
    let mut peers = Vec::new();
    for (peer, faults) in obs.faults.iter().enumerate() {
        let seen = tally.peers[peer].as_ref();
        let ops = seen.map_or(0, |p| p.count);
        let retries = faults.retries.load(Ordering::Relaxed);
        let failures = faults.failures.load(Ordering::Relaxed);
        if ops == 0 && retries == 0 && failures == 0 {
            continue; // never talked to this peer (or ourselves)
        }
        peers.push(PeerReport {
            peer,
            ops,
            bytes: seen.map_or(0, |p| p.bytes),
            failures,
            retries,
            alive: peer_alive(peer),
            last_completion: seen.map_or(0, |p| p.last),
            lat: LatencySummary::of(seen.and_then(|p| p.lat.as_ref())),
        });
    }
    let events = obs.ring.snapshot();
    let mut by_kind = [0u64; 6];
    for e in &events {
        by_kind[e.kind.code() as usize] += 1;
    }
    StatsReport {
        node,
        kernel,
        classes,
        peers,
        trace: TraceStats {
            capacity: obs.ring.capacity(),
            recorded: obs.ring.recorded(),
            occupancy: events.len(),
            by_kind,
        },
        qos,
        mm,
        nic,
        sample_rate: obs.sample_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ring_orders_and_evicts() {
        let ring = TraceRing::new(64);
        assert_eq!(ring.capacity(), 64);
        for i in 0..100u64 {
            ring.record(TraceEvent {
                op_id: i,
                class: OpClass::Write,
                kind: if i % 2 == 0 {
                    EventKind::Posted
                } else {
                    EventKind::Completed
                },
                prio: Priority::High,
                peer: 1,
                stamp: i * 10,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(snap.first().map(|e| e.op_id), Some(36));
        assert_eq!(snap.last().map(|e| e.op_id), Some(99));
        assert!(snap.windows(2).all(|w| w[0].op_id < w[1].op_id));
        assert_eq!(ring.recorded(), 100);
        assert_eq!(
            ring.count_kind(EventKind::Posted) + ring.count_kind(EventKind::Completed),
            64
        );
    }

    #[test]
    fn event_word_roundtrip() {
        for &class in &OP_CLASSES {
            for &kind in &EVENT_KINDS {
                for prio in [Priority::High, Priority::Low] {
                    let w = pack_word(class, kind, prio, 7);
                    assert_eq!(unpack_word(w), (class, kind, prio, 7));
                }
            }
        }
    }

    #[test]
    fn observability_records_and_reports() {
        let obs = Observability::new(3, 1, 256);
        let mut ctx = Ctx::new();
        for i in 0..50u64 {
            let id = obs.next_op_id();
            obs.trace(id, OpClass::Read, EventKind::Posted, Priority::High, 2, i);
            let (lat, stamp) = (1_000 + i, i + 5);
            obs.record_completion(
                &mut ctx,
                OpClass::Read,
                Priority::High,
                2,
                64,
                lat,
                stamp,
                true,
            );
            obs.trace(
                id,
                OpClass::Read,
                EventKind::Completed,
                Priority::High,
                2,
                i + 5,
            );
        }
        obs.record_failure(2);
        drop(ctx);
        let report = build_report(
            0,
            crate::KernelStats::default(),
            &obs,
            &obs.tally(),
            |_| true,
            QosReport {
                mode: QosMode::None,
                rtt_ewma_ns: 0,
            },
            crate::mm::MmReport::default(),
            rnic::NicStats::default(),
        );
        let lat = report.class(OpClass::Read, Priority::High).unwrap();
        assert_eq!(lat.count, 50);
        assert_eq!(lat.p0, 1_000);
        assert_eq!(lat.p100, 1_049);
        assert_eq!(report.peers.len(), 1);
        assert_eq!(report.peers[0].peer, 2);
        assert_eq!(report.peers[0].ops, 50);
        assert_eq!(report.peers[0].bytes, 3_200);
        assert_eq!(report.peers[0].failures, 1);
        assert_eq!(report.trace_count(EventKind::Posted), 50);
        assert_eq!(report.trace_count(EventKind::Completed), 50);
        assert!(lat.p999 >= lat.p99 && lat.p999 <= lat.p100);
        let json = report.to_json();
        assert!(json.contains("\"read.high\""));
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p999\""));
        assert!(json.contains("\"kv_puts\""));
        assert!(json.contains("\"peer\":2"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn sampling_rate_thins_recording() {
        let obs = Observability::new(1, 4, 64);
        let mut ctx = Ctx::new();
        let sampled = (0..100).filter(|_| obs.sample(&mut ctx)).count();
        assert_eq!(sampled, 25);
        let every = Observability::new(1, 1, 64);
        assert!((0..10).all(|_| every.sample(&mut ctx)));
    }
}

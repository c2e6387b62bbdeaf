//! Deterministic history checking for LITE synchronization — the
//! correctness oracle behind the chaos tests.
//!
//! The chaos layer (PR 2) injects seeded faults and asserts *liveness*
//! (everything completes) and counter equalities. Neither catches a
//! stranded lock, a double-granted waiter, or a lost wakeup that happens
//! to terminate. This module closes that gap with three pieces:
//!
//! 1. **History capture.** When [`crate::LiteCluster::record_history`]
//!    is armed, every synchronization and atomic operation appends one
//!    [`HistOp`] — operation kind and arguments, return value, success
//!    flag, and its virtual-time `[invoke, response]` interval — to a
//!    shared [`HistoryLog`]. Lock/unlock/barrier and `lt_read`/`lt_write`
//!    record at the API layer; fetch-add/compare-and-swap record at the
//!    datapath `post()` so lock-word traffic is captured too.
//!
//! 2. **A Wing–Gong linearizability checker.** [`History::check`]
//!    partitions the history by key (P-compositionality: each lock word,
//!    atomic cell, barrier id, and `(LMR, offset, len)` register is
//!    checked independently) and searches for a linearization of each
//!    partition against a sequential spec: a mutex for
//!    `lt_lock`/`lt_unlock`, a 64-bit cell for
//!    `lt_fetch_add`/`lt_test_set`, a last-write-wins register (by data
//!    fingerprint) for `lt_read`/`lt_write`, and a closed-form
//!    generation check for `lt_barrier`. Failed operations are treated
//!    as *pending*: they may have taken effect at any point after their
//!    invocation, or never — both branches are explored, so fault-path
//!    ambiguity can never produce a false violation.
//!
//! 3. **Seeded schedule exploration.** [`explore`] reruns a workload
//!    across many seeds — [`run_mixed`] builds the canonical mixed
//!    lock / fetch-add / test-set / barrier / read / write workload
//!    under a seeded [`FaultPlan`] — and feeds every history through the
//!    checker, keeping the failing histories for replay.
//!
//! 4. **Transaction-level serializability.** The `lite-txn` OCC layer
//!    records whole transactions — version-checked read set, staged
//!    write set, outcome — into a [`TxnLog`], and
//!    [`TxnHistory::check`] runs the same interval-respecting
//!    Wing–Gong search at transaction granularity against a multi-key
//!    map spec. Committed transactions must take effect atomically at
//!    one point inside their interval; cleanly aborted ones must have
//!    no effect; [`TxnOutcome::Indeterminate`] ones (committer crashed
//!    before learning the decision) are explored as pending. This is
//!    the oracle that catches write skew, lost updates, and dirty
//!    reads that per-key linearizability cannot see.
//!
//! Soundness of the intervals rests on a substrate guarantee added with
//! this module: conflicting atomics on one node produce completion
//! stamps that are monotone in actual apply order (see
//! `PhysMem::fetch_add_u64_stamped`). Without it, host-thread scheduling
//! could order two virtual-time intervals against the order the memory
//! system actually applied them and flag a correct run.
//!
//! Histories record *completed calls only* (the workload joins its
//! threads), and the register spec assumes the checked locations start
//! zero-filled — arm the log before the first synchronization op.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use rnic::{FaultPlan, FaultRule, IbConfig, NodeId};
use simnet::{Ctx, Nanos};

use crate::cluster::LiteCluster;
use crate::config::LiteConfig;
use crate::error::{LiteError, LiteResult};
use crate::lmr::Perm;
use crate::mm::MmRequest;

// ---------------------------------------------------------------------
// History model
// ---------------------------------------------------------------------

/// The partition key of one operation — P-compositionality checks each
/// key's subhistory independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// A distributed lock word (owner node + cell address).
    Lock {
        /// Owner node of the lock.
        node: NodeId,
        /// Physical address of the lock word on the owner.
        addr: u64,
    },
    /// A 64-bit atomic cell (fetch-add / test-set target).
    Cell {
        /// Node storing the cell.
        node: NodeId,
        /// Physical address of the cell.
        addr: u64,
    },
    /// A 64-bit atomic cell identified by its *logical* location — the
    /// owning LMR and the cell's byte offset within it. Used for cells
    /// in tracked (tierable) LMR chunks: the physical address changes
    /// when the chunk migrates, this key does not, so the cell's
    /// history stays joined across eviction and fetch-back.
    LogicalCell {
        /// LMR-id node half.
        node: u32,
        /// LMR-id index half.
        idx: u32,
        /// Byte offset of the cell within the LMR.
        off: u64,
    },
    /// A barrier id (coordinated by the manager node).
    Barrier {
        /// The barrier id.
        id: u64,
    },
    /// One `(LMR, offset, len)` register accessed by `lt_read`/`lt_write`.
    /// Overlapping-but-unequal ranges form distinct keys and are not
    /// cross-checked (documented limitation).
    Reg {
        /// LMR-id node half.
        node: u32,
        /// LMR-id index half.
        idx: u32,
        /// Byte offset within the LMR.
        offset: u64,
        /// Access length in bytes.
        len: u64,
    },
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Lock { node, addr } => write!(f, "lock:{node}:{addr:#x}"),
            Key::Cell { node, addr } => write!(f, "cell:{node}:{addr:#x}"),
            Key::LogicalCell { node, idx, off } => write!(f, "cell:{node}.{idx}+{off:#x}"),
            Key::Barrier { id } => write!(f, "barrier:{id}"),
            Key::Reg {
                node,
                idx,
                offset,
                len,
            } => write!(f, "reg:{node}.{idx}+{offset}x{len}"),
        }
    }
}

/// What one recorded operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `lt_lock` (acquire).
    Lock,
    /// `lt_unlock` (release).
    Unlock,
    /// `lt_fetch_add`; `ret` is the previous cell value.
    FetchAdd {
        /// The addend.
        delta: u64,
    },
    /// `lt_test_set` (compare-and-swap); `ret` is the previous value.
    TestSet {
        /// Expected previous value.
        expect: u64,
        /// Value stored on match.
        new: u64,
    },
    /// `lt_barrier` arrival.
    Barrier {
        /// Participant count of the barrier.
        count: u32,
    },
    /// `lt_write`; `fp` fingerprints the written bytes.
    Write {
        /// Data fingerprint (see [`fingerprint`]).
        fp: u64,
    },
    /// `lt_read`; `fp` fingerprints the bytes returned.
    Read {
        /// Data fingerprint (see [`fingerprint`]).
        fp: u64,
    },
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Lock => write!(f, "lock"),
            OpKind::Unlock => write!(f, "unlock"),
            OpKind::FetchAdd { delta } => write!(f, "fetch_add+{delta}"),
            OpKind::TestSet { expect, new } => write!(f, "test_set {expect}->{new}"),
            OpKind::Barrier { count } => write!(f, "barrier/{count}"),
            OpKind::Write { fp } => write!(f, "write fp={fp:#x}"),
            OpKind::Read { fp } => write!(f, "read fp={fp:#x}"),
        }
    }
}

/// One invocation/response pair in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistOp {
    /// The invoking process: `(node << 32) | pid` (pid 0 = the kernel
    /// datapath itself).
    pub proc: u64,
    /// Partition key.
    pub key: Key,
    /// Operation and arguments.
    pub kind: OpKind,
    /// Return value (previous cell value for atomics; 0 otherwise).
    pub ret: u64,
    /// Whether the call returned `Ok`. Failed calls are *pending*: the
    /// checker explores both "took effect" and "never happened".
    pub ok: bool,
    /// Virtual-time invocation stamp.
    pub invoke: Nanos,
    /// Virtual-time response stamp.
    pub response: Nanos,
}

/// Builds the `proc` identity for a [`HistOp`].
pub fn proc_id(node: NodeId, pid: u32) -> u64 {
    ((node as u64) << 32) | pid as u64
}

/// FNV-1a fingerprint of a data buffer for the register spec. All-zero
/// buffers map to 0 (the fingerprint of untouched memory); anything else
/// is forced non-zero so a fresh read can never alias a real write.
pub fn fingerprint(data: &[u8]) -> u64 {
    if data.iter().all(|&b| b == 0) {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// A shared, append-only log: a cluster records [`HistOp`]s into a
/// [`HistoryLog`], the `lite-txn` layer one [`TxnOp`] per `commit()` /
/// `abort()` return into a [`TxnLog`].
pub struct Log<T> {
    entries: Mutex<Vec<T>>,
}

/// The log a cluster records [`HistOp`]s into.
pub type HistoryLog = Log<HistOp>;

/// The log the `lite-txn` layer records [`TxnOp`]s into.
pub type TxnLog = Log<TxnOp>;

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log {
            entries: Mutex::new(Vec::new()),
        }
    }
}

impl<T> Log<T> {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry (called from API and datapath hot paths).
    pub fn record(&self, entry: T) {
        self.entries.lock().push(entry);
    }

    /// Number of entries recorded so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *self.entries.lock())
    }
}

impl HistoryLog {
    /// Drains the log into a [`History`] (subsequent records start a new
    /// history).
    pub fn take(&self) -> History {
        History { ops: self.drain() }
    }
}

impl TxnLog {
    /// Drains the log into a [`TxnHistory`].
    pub fn take(&self) -> TxnHistory {
        TxnHistory { txns: self.drain() }
    }
}

/// A complete recorded history, ready for checking or replay.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// The recorded operations, in recording order.
    pub ops: Vec<HistOp>,
}

impl History {
    /// Partitions by key and checks every partition against its
    /// sequential spec.
    pub fn check(&self) -> CheckOutcome {
        let mut parts: HashMap<Key, Vec<HistOp>> = HashMap::new();
        for op in &self.ops {
            parts.entry(op.key).or_default().push(*op);
        }
        let mut outcome = CheckOutcome {
            partitions: parts.len(),
            ..Default::default()
        };
        // Deterministic report order regardless of hash iteration.
        let mut keys: Vec<Key> = parts.keys().copied().collect();
        keys.sort_by_key(|k| format!("{k}"));
        for key in keys {
            let ops = &parts[&key];
            match check_partition(key, ops) {
                PartitionResult::Ok => outcome.checked += 1,
                PartitionResult::Skipped(why) => {
                    outcome.skipped += 1;
                    outcome.skip_reasons.push((key, why));
                }
                PartitionResult::Violation(reason) => {
                    outcome.checked += 1;
                    outcome.violations.push(Violation {
                        key,
                        reason,
                        ops: ops.clone(),
                    });
                }
            }
        }
        outcome
    }

    /// Hand-rolled JSON dump (CI artifacts, bench reports).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.ops.len() * 96);
        s.push_str("{\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"proc\":{},\"key\":\"{}\",\"kind\":\"{}\",\"ret\":{},\"ok\":{},\"invoke\":{},\"response\":{}}}",
                op.proc, op.key, op.kind, op.ret, op.ok, op.invoke, op.response
            ));
        }
        s.push_str("]}");
        s
    }
}

// ---------------------------------------------------------------------
// Check outcome
// ---------------------------------------------------------------------

/// One partition the checker rejected.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The partition's key.
    pub key: Key,
    /// Why no linearization exists.
    pub reason: String,
    /// The partition's operations (for replay / dumps).
    pub ops: Vec<HistOp>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.key, self.reason)?;
        for op in &self.ops {
            writeln!(
                f,
                "  proc {:#x} {} -> {} ok={} [{}, {}]",
                op.proc, op.kind, op.ret, op.ok, op.invoke, op.response
            )?;
        }
        Ok(())
    }
}

/// Result of checking one history.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Partitions in the history.
    pub partitions: usize,
    /// Partitions fully checked (including violated ones).
    pub checked: usize,
    /// Partitions skipped as inconclusive (failed writes or failed
    /// barrier arrivals make the spec ambiguous, or the search budget
    /// ran out) — never counted as violations.
    pub skipped: usize,
    /// Why each skipped partition was skipped.
    pub skip_reasons: Vec<(Key, String)>,
    /// Partitions with no valid linearization.
    pub violations: Vec<Violation>,
}

impl CheckOutcome {
    /// Whether every checked partition linearized.
    pub fn is_linearizable(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------
// Sequential specs + the Wing–Gong search
// ---------------------------------------------------------------------

/// Abstract state of one partition's sequential spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SpecState {
    /// Free / held-by-proc mutex.
    Mutex(Option<u64>),
    /// A 64-bit cell value.
    Cell(u64),
    /// Last written fingerprint (0 = untouched zero-filled memory).
    Reg(u64),
}

/// Applies `op` to `state`; `None` when the spec forbids it there.
/// Failed (pending) atomics apply their effect while ignoring the
/// (meaningless) return value.
fn apply(state: &SpecState, op: &HistOp) -> Option<SpecState> {
    match (state, &op.kind) {
        (SpecState::Mutex(holder), OpKind::Lock) => match holder {
            None => Some(SpecState::Mutex(Some(op.proc))),
            Some(_) => None,
        },
        (SpecState::Mutex(holder), OpKind::Unlock) => {
            if *holder == Some(op.proc) {
                Some(SpecState::Mutex(None))
            } else {
                None
            }
        }
        (SpecState::Cell(v), OpKind::FetchAdd { delta }) => {
            if op.ok && op.ret != *v {
                None
            } else {
                Some(SpecState::Cell(v.wrapping_add(*delta)))
            }
        }
        (SpecState::Cell(v), OpKind::TestSet { expect, new }) => {
            if op.ok && op.ret != *v {
                None
            } else {
                Some(SpecState::Cell(if v == expect { *new } else { *v }))
            }
        }
        (SpecState::Reg(_), OpKind::Write { fp }) => Some(SpecState::Reg(*fp)),
        (SpecState::Reg(cur), OpKind::Read { fp }) => {
            if *fp == *cur {
                Some(SpecState::Reg(*cur))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Exploration cap: total `apply` attempts per partition before the
/// search declares itself inconclusive instead of running away.
const SEARCH_BUDGET: usize = 4_000_000;

enum PartitionResult {
    Ok,
    Skipped(String),
    Violation(String),
}

fn check_partition(key: Key, ops: &[HistOp]) -> PartitionResult {
    match key {
        Key::Barrier { .. } => check_barrier(ops),
        Key::Lock { .. } => linearize(ops, SpecState::Mutex(None)),
        Key::Cell { .. } | Key::LogicalCell { .. } => linearize(ops, SpecState::Cell(0)),
        Key::Reg { .. } => {
            // A failed write may have applied some pieces of a
            // multi-chunk range: the resulting bytes match neither the
            // old nor the new fingerprint, so the register spec cannot
            // model it. Failed reads carry no constraint and no effect.
            if ops
                .iter()
                .any(|o| !o.ok && matches!(o.kind, OpKind::Write { .. }))
            {
                return PartitionResult::Skipped("failed write (possible partial data)".into());
            }
            let ok_or_write: Vec<HistOp> = ops.iter().filter(|o| o.ok).copied().collect();
            linearize(&ok_or_write, SpecState::Reg(0))
        }
    }
}

/// Barrier check (closed form, no search): generations are disjoint
/// groups of exactly `count` arrivals, and within a generation every
/// interval must contain the release point — `max(invoke) <=
/// min(response)`. A failed arrival may or may not have been counted by
/// the manager, which shifts every later generation boundary, so any
/// failure makes the partition inconclusive.
fn check_barrier(ops: &[HistOp]) -> PartitionResult {
    if ops.iter().any(|o| !o.ok) {
        return PartitionResult::Skipped("failed barrier arrival (generation ambiguity)".into());
    }
    let mut count = None;
    for op in ops {
        let OpKind::Barrier { count: c } = op.kind else {
            return PartitionResult::Violation("non-barrier op under a barrier key".into());
        };
        match count {
            None => count = Some(c),
            Some(prev) if prev != c => {
                return PartitionResult::Violation(format!(
                    "mismatched participant counts {prev} vs {c}"
                ));
            }
            _ => {}
        }
    }
    let Some(count) = count else {
        return PartitionResult::Ok; // empty partition
    };
    if count == 0 {
        return PartitionResult::Violation("zero participant count".into());
    }
    if !ops.len().is_multiple_of(count as usize) {
        return PartitionResult::Violation(format!(
            "{} successful arrivals is not a multiple of count {count}",
            ops.len()
        ));
    }
    let mut sorted: Vec<&HistOp> = ops.iter().collect();
    sorted.sort_by_key(|o| (o.response, o.invoke));
    for (g, gen) in sorted.chunks(count as usize).enumerate() {
        let max_invoke = gen.iter().map(|o| o.invoke).max().unwrap_or(0);
        let min_response = gen.iter().map(|o| o.response).min().unwrap_or(0);
        if max_invoke > min_response {
            return PartitionResult::Violation(format!(
                "generation {g} released before all {count} participants arrived \
                 (max invoke {max_invoke} > min response {min_response})"
            ));
        }
    }
    PartitionResult::Ok
}

/// Compact bitset over partition ops (partitions can exceed 64 ops).
type Bits = Box<[u64]>;

fn bit_get(b: &Bits, i: usize) -> bool {
    b[i / 64] >> (i % 64) & 1 != 0
}

fn bit_clear(b: &mut Bits, i: usize) {
    b[i / 64] &= !(1u64 << (i % 64));
}

fn bit_set(b: &mut Bits, i: usize) {
    b[i / 64] |= 1u64 << (i % 64);
}

/// One partition's Wing–Gong verdict against its sequential spec.
fn linearize(ops: &[HistOp], init: SpecState) -> PartitionResult {
    match wing_gong(ops, init, apply) {
        Some(true) => PartitionResult::Ok,
        Some(false) => PartitionResult::Violation("no valid linearization".into()),
        None => PartitionResult::Skipped("search budget exhausted".into()),
    }
}

/// What the Wing–Gong search needs of an operation besides its effect.
trait Interval {
    /// `(invoke, response, proc)`; also the search's deterministic order.
    fn span(&self) -> (Nanos, Nanos, u64);
    /// Whether the operation may never have happened: its caller never
    /// learned the outcome, so its effective response is ∞ and the search
    /// may also drop it without applying.
    fn pending(&self) -> bool;
}

impl Interval for HistOp {
    fn span(&self) -> (Nanos, Nanos, u64) {
        (self.invoke, self.response, self.proc)
    }
    fn pending(&self) -> bool {
        !self.ok
    }
}

impl Interval for TxnOp {
    fn span(&self) -> (Nanos, Nanos, u64) {
        (self.invoke, self.response, self.proc)
    }
    fn pending(&self) -> bool {
        self.outcome == TxnOutcome::Indeterminate
    }
}

/// Wing–Gong search: repeatedly pick a *minimal* remaining op (one whose
/// invocation precedes every remaining effective response) and try to
/// linearize it next from `init` through `apply`; memoize
/// (remaining-set, state) pairs. Returns `Some(linearizable)`, or `None`
/// when [`SEARCH_BUDGET`] ran out.
fn wing_gong<'a, T: Interval + 'a, S: Clone + Eq + Hash>(
    ops: impl IntoIterator<Item = &'a T>,
    init: S,
    apply: impl Fn(&S, &T) -> Option<S>,
) -> Option<bool> {
    let mut ops: Vec<&T> = ops.into_iter().collect();
    ops.sort_by_key(|o| o.span());
    let n = ops.len();
    let mut remaining: Bits = vec![u64::MAX; n.div_ceil(64)].into_boxed_slice();
    for i in n..remaining.len() * 64 {
        bit_clear(&mut remaining, i);
    }
    let mut search = Search {
        eff_resp: ops
            .iter()
            .map(|o| if o.pending() { Nanos::MAX } else { o.span().1 })
            .collect(),
        ops,
        apply,
        memo: HashSet::new(),
        budget: SEARCH_BUDGET,
    };
    search.step(&mut remaining, init)
}

/// The state of one [`wing_gong`] run.
struct Search<'a, T, S, A> {
    ops: Vec<&'a T>,
    eff_resp: Vec<Nanos>,
    apply: A,
    memo: HashSet<(Bits, S)>,
    budget: usize,
}

impl<T: Interval, S: Clone + Eq + Hash, A: Fn(&S, &T) -> Option<S>> Search<'_, T, S, A> {
    fn step(&mut self, remaining: &mut Bits, state: S) -> Option<bool> {
        if remaining.iter().all(|&w| w == 0) {
            return Some(true);
        }
        if !self.memo.insert((remaining.clone(), state.clone())) {
            return Some(false);
        }
        let min_resp = (0..self.ops.len())
            .filter(|&i| bit_get(remaining, i))
            .map(|i| self.eff_resp[i])
            .min()
            .unwrap_or(Nanos::MAX);
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            if !bit_get(remaining, i) || op.span().0 > min_resp {
                continue;
            }
            if self.budget == 0 {
                return None;
            }
            self.budget -= 1;
            // Branch 1: the op takes effect here; branch 2: a pending op
            // may simply never have happened.
            let branches = [
                (self.apply)(&state, op),
                op.pending().then(|| state.clone()),
            ];
            for next in branches.into_iter().flatten() {
                bit_clear(remaining, i);
                let r = self.step(remaining, next);
                bit_set(remaining, i);
                if r != Some(false) {
                    return r;
                }
            }
        }
        Some(false)
    }
}

// ---------------------------------------------------------------------
// Transaction-level serializability
// ---------------------------------------------------------------------

/// Outcome of one transaction attempt, as known to its issuer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// `commit()` returned success: the write set is durable and was
    /// applied atomically.
    Committed,
    /// The transaction aborted cleanly (lock conflict, validation
    /// failure, or explicit abort): no write may be visible, and the
    /// read set carries no constraint (validation rejected it).
    Aborted,
    /// The issuer never learned the decision — committer crash or lost
    /// completion mid-protocol. The checker explores both "committed at
    /// some point after invocation" and "never happened".
    Indeterminate,
}

/// One recorded transaction: the version-checked read set and staged
/// write set, with the `[invoke, response]` interval spanning the whole
/// attempt (first buffered read to the commit/abort return).
#[derive(Debug, Clone)]
pub struct TxnOp {
    /// The issuing process (see [`proc_id`]).
    pub proc: u64,
    /// `(record key, observed value)` pairs the commit validated.
    pub reads: Vec<(u64, u64)>,
    /// `(record key, new value)` pairs the commit applied.
    pub writes: Vec<(u64, u64)>,
    /// How the attempt ended.
    pub outcome: TxnOutcome,
    /// Virtual-time invocation stamp.
    pub invoke: Nanos,
    /// Virtual-time response stamp.
    pub response: Nanos,
}

/// Result of checking one transaction history.
#[derive(Debug, Clone, Default)]
pub struct TxnCheckOutcome {
    /// Transactions in the history.
    pub total: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Cleanly aborted transactions (excluded from the search).
    pub aborted: usize,
    /// Indeterminate transactions (explored as pending).
    pub indeterminate: usize,
    /// Why the history is not serializable (`None` = serializable).
    pub violation: Option<String>,
    /// The search budget ran out before a verdict; `violation` is
    /// `None` but the history is *not* certified.
    pub inconclusive: bool,
}

impl TxnCheckOutcome {
    /// Whether a serial witness order was found (or the history is
    /// trivially empty). `false` when violated *or* inconclusive.
    pub fn is_serializable(&self) -> bool {
        self.violation.is_none() && !self.inconclusive
    }
}

/// A complete transaction history, ready for checking.
#[derive(Debug, Clone, Default)]
pub struct TxnHistory {
    /// The recorded transactions, in recording order.
    pub txns: Vec<TxnOp>,
}

impl TxnHistory {
    /// Strict-serializability check: searches for a serial order of the
    /// committed (and optionally the indeterminate) transactions that
    /// respects real-time — a transaction whose response precedes
    /// another's invocation must serialize first — and in which every
    /// committed read set matches the map state at the transaction's
    /// serialization point. Keys absent from the map read as 0 (records
    /// start zero-filled).
    pub fn check(&self) -> TxnCheckOutcome {
        let mut out = TxnCheckOutcome {
            total: self.txns.len(),
            ..Default::default()
        };
        for t in &self.txns {
            match t.outcome {
                TxnOutcome::Committed => out.committed += 1,
                TxnOutcome::Aborted => out.aborted += 1,
                TxnOutcome::Indeterminate => out.indeterminate += 1,
            }
        }
        let txns = self
            .txns
            .iter()
            .filter(|t| t.outcome != TxnOutcome::Aborted);
        match wing_gong(txns, Vec::new(), |state, t| txn_apply(state, t)) {
            Some(true) => {}
            Some(false) => {
                out.violation = Some(format!(
                    "no serial order explains {} committed + {} indeterminate txns",
                    out.committed, out.indeterminate
                ));
            }
            None => out.inconclusive = true,
        }
        out
    }

    /// Hand-rolled JSON dump (CI artifacts, bench reports).
    pub fn to_json(&self) -> String {
        let pairs = |set: &[(u64, u64)]| {
            let body: Vec<String> = set.iter().map(|(k, v)| format!("[{k},{v}]")).collect();
            format!("[{}]", body.join(","))
        };
        let mut s = String::with_capacity(64 + self.txns.len() * 128);
        s.push_str("{\"txns\":[");
        for (i, t) in self.txns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"proc\":{},\"reads\":{},\"writes\":{},\"outcome\":\"{:?}\",\"invoke\":{},\"response\":{}}}",
                t.proc,
                pairs(&t.reads),
                pairs(&t.writes),
                t.outcome,
                t.invoke,
                t.response
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Map-state lookup: absent keys read as 0.
fn txn_state_get(state: &[(u64, u64)], key: u64) -> u64 {
    state
        .binary_search_by_key(&key, |e| e.0)
        .map(|i| state[i].1)
        .unwrap_or(0)
}

/// Applies one transaction to the sorted map state: every read must
/// observe the current value, then the writes land atomically. Zero
/// values are normalized to absence so memoization cannot split states
/// that are observationally identical.
fn txn_apply(state: &[(u64, u64)], t: &TxnOp) -> Option<Vec<(u64, u64)>> {
    for &(k, v) in &t.reads {
        if txn_state_get(state, k) != v {
            return None;
        }
    }
    let mut next = state.to_vec();
    for &(k, v) in &t.writes {
        match next.binary_search_by_key(&k, |e| e.0) {
            Ok(i) => next[i].1 = v,
            Err(i) => next.insert(i, (k, v)),
        }
    }
    next.retain(|e| e.1 != 0);
    Some(next)
}

// ---------------------------------------------------------------------
// Seeded schedule exploration
// ---------------------------------------------------------------------

/// Cluster size of every mixed-workload run.
const MIXED_NODES: usize = 3;
/// Worker threads (one handle each, round-robin over the nodes).
const MIXED_THREADS: usize = 3;
/// Rounds per worker.
const MIXED_ROUNDS: usize = 8;
/// Every worker hits the shared barrier every this many rounds.
const BARRIER_EVERY: usize = 4;
/// Per-WR delay probability of every run's seeded fault plan.
const DELAY_PROB: f64 = 0.2;
/// The delay it injects, in virtual nanoseconds.
const DELAY_NS: Nanos = 3_000;

/// The canonical mixed synchronization workload for schedule
/// exploration: [`MIXED_THREADS`] workers spread round-robin over
/// [`MIXED_NODES`] nodes share one distributed lock, one fetch-add counter,
/// one test-set cell, one lock-protected 8-byte register, and one (reused)
/// barrier id, hit every [`BARRIER_EVERY`] of their [`MIXED_ROUNDS`]
/// rounds. Every run installs a seeded fault plan that delays a
/// [`DELAY_PROB`] share of work requests by [`DELAY_NS`]; the fields say
/// what a sweep adds to that.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// Per-WR drop probability of the seeded fault plan (0.0 = none).
    pub drop_prob: f64,
    /// Cap on fired drops.
    pub max_drops: u64,
    /// Per-node physical-memory budget handed to `lite::mm`
    /// (`LiteConfig::mem_budget_bytes`); 0 leaves tiering off. A small
    /// budget forces chunk eviction and fetch-back *under* the recorded
    /// workload, so the checker also proves histories stay linearizable
    /// across migration.
    pub mem_budget: u64,
}

impl Default for MixedWorkload {
    fn default() -> Self {
        MixedWorkload {
            drop_prob: 0.0,
            max_drops: 0,
            mem_budget: 0,
        }
    }
}

/// splitmix64 — deterministic per-(seed, thread, round) jitter without
/// pulling RNG state into the workload.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs the mixed workload once under `seed` (fault schedule + virtual
/// think-time jitter) and returns the recorded history.
pub fn run_mixed(seed: u64, w: &MixedWorkload) -> LiteResult<History> {
    let config = LiteConfig {
        op_timeout: Duration::from_millis(400),
        stats_sample_rate: 1_000,
        mem_budget_bytes: w.mem_budget,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(MIXED_NODES), config)?;
    let log = cluster.record_history();
    let mut plan = FaultPlan::seeded(seed);
    if w.drop_prob > 0.0 {
        plan = plan.with(FaultRule::DropWr {
            src: None,
            dst: None,
            prob: w.drop_prob,
            max_drops: w.max_drops,
        });
    }
    cluster
        .fabric()
        .install_fault_plan(plan.with(FaultRule::DelayWr {
            src: None,
            dst: None,
            prob: DELAY_PROB,
            delay_ns: DELAY_NS,
        }));

    // Shared state: the lock lives on the last node, the cells + data
    // register on node 1 (distinct from the manager when possible).
    // Under a memory budget the LMR's storage is co-located with its
    // master record (the attach node) — `lite::mm` only tiers
    // locally-mastered chunks, so this is what puts the recorded ops on
    // evictable memory.
    let owner = MIXED_NODES - 1;
    let mut setup = cluster.attach_kernel(owner)?;
    let mut sctx = Ctx::new();
    let lock = setup.lt_create_lock(&mut sctx)?;
    let cells_node = if w.mem_budget > 0 { owner } else { 1 };
    let cells = setup.lt_malloc(&mut sctx, cells_node, 4096, "verify.cells", Perm::RW)?;
    // The budget evicts the cells as they are allocated. Under it worker
    // 0 pulls them home and pushes them out again after each of its
    // rounds but the last, while the others run theirs: migrations that
    // end between the first op and the last.
    let cells_idx = setup.lh_id(cells)?.idx;
    let mm = cluster.kernel(owner).mm();
    let moved = || mm.stats().evictions + mm.stats().fetch_backs;
    let under = AtomicU64::new(0);

    std::thread::scope(|scope| -> LiteResult<()> {
        let mut handles = Vec::new();
        for t in 0..MIXED_THREADS {
            let (cluster, moved, under) = (&cluster, &moved, &under);
            handles.push(scope.spawn(move || -> LiteResult<()> {
                let node = t % MIXED_NODES;
                let mut h = cluster.attach_kernel(node)?;
                let mut ctx = Ctx::new();
                let lh = h.lt_map(&mut ctx, "verify.cells")?;
                for r in 0..MIXED_ROUNDS {
                    ctx.work(mix(seed ^ (t as u64) << 32 ^ r as u64) % 2_000);
                    // Lock-protected read-modify-write of the data
                    // register at offset 64: couples the mutex spec to
                    // the register spec — any mutual-exclusion hole
                    // shows up as a torn register linearization too.
                    if h.lt_lock(&mut ctx, lock).is_ok() {
                        let mut buf = [0u8; 8];
                        let _ = h.lt_read(&mut ctx, lh, 64, &mut buf);
                        let tag = ((t as u64 + 1) << 32 | (r as u64 + 1)).to_le_bytes();
                        let _ = h.lt_write(&mut ctx, lh, 64, &tag);
                        let _ = h.lt_fetch_add(&mut ctx, lh, 0, (t + 1) as u64);
                        let _ = h.lt_unlock(&mut ctx, lock);
                    }
                    // Unprotected atomics on their own cells.
                    let _ = h.lt_test_set(&mut ctx, lh, 8, r as u64, r as u64 + 1);
                    let _ = h.lt_fetch_add(&mut ctx, lh, 16, 1);
                    if (r + 1) % BARRIER_EVERY == 0 {
                        // Same id every time: generations must still
                        // separate cleanly (id-reuse is checked).
                        let _ = h.lt_barrier(&mut ctx, 7, MIXED_THREADS as u32);
                    }
                    if t == 0 && w.mem_budget > 0 && r + 1 < MIXED_ROUNDS {
                        let before = moved();
                        mm.request(MmRequest::FetchBack { idx: cells_idx });
                        mm.request(MmRequest::Evict {
                            idx: cells_idx,
                            off: u64::MAX,
                        });
                        under.fetch_add(moved() - before, Ordering::SeqCst);
                    }
                }
                Ok(())
            }));
        }
        let mut first_err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(LiteError::Internal("workload thread panicked")))
                }
            }
        }
        match first_err {
            // Op-level errors inside the loop are tolerated (recorded as
            // failed history ops); only setup errors surface here.
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;
    // With tiering requested, refuse to certify a run where the
    // machinery never engaged under the ops.
    if w.mem_budget > 0 && under.load(Ordering::SeqCst) == 0 {
        return Err(LiteError::Internal("tiering enabled but no migration under the ops"));
    }
    cluster.fabric().clear_fault_plan();
    Ok(log.take())
}

/// One seed's worth of exploration.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Checker outcome for the seed's history.
    pub outcome: CheckOutcome,
    /// The history itself (kept for replay / artifact dumps).
    pub history: History,
}

/// Aggregate of one [`explore`] sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Per-seed outcomes, in seed order.
    pub reports: Vec<SeedReport>,
    /// Seeds whose workload failed to run at all (setup errors).
    pub run_errors: Vec<(u64, LiteError)>,
}

impl ExploreReport {
    /// Whether every seed produced a linearizable history.
    pub fn all_linearizable(&self) -> bool {
        self.reports.iter().all(|r| r.outcome.is_linearizable())
    }

    /// The seeds whose histories were rejected.
    pub fn failing_seeds(&self) -> Vec<u64> {
        self.reports
            .iter()
            .filter(|r| !r.outcome.is_linearizable())
            .map(|r| r.seed)
            .collect()
    }
}

/// Runs `run` once per seed and checks every resulting history. `run`
/// is any seeded workload returning a [`History`]; pair with
/// [`run_mixed`] for the canonical sweep.
pub fn explore<F>(seeds: impl IntoIterator<Item = u64>, mut run: F) -> ExploreReport
where
    F: FnMut(u64) -> LiteResult<History>,
{
    let mut report = ExploreReport::default();
    for seed in seeds {
        match run(seed) {
            Ok(history) => {
                let outcome = history.check();
                report.reports.push(SeedReport {
                    seed,
                    outcome,
                    history,
                });
            }
            Err(e) => report.run_errors.push((seed, e)),
        }
    }
    report
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    const L: Key = Key::Lock { node: 0, addr: 64 };
    const C: Key = Key::Cell { node: 0, addr: 128 };

    fn op(
        proc: u64,
        key: Key,
        kind: OpKind,
        ret: u64,
        ok: bool,
        invoke: Nanos,
        response: Nanos,
    ) -> HistOp {
        HistOp {
            proc,
            key,
            kind,
            ret,
            ok,
            invoke,
            response,
        }
    }

    fn check(ops: Vec<HistOp>) -> CheckOutcome {
        History { ops }.check()
    }

    #[test]
    fn sequential_lock_history_linearizes() {
        let out = check(vec![
            op(1, L, OpKind::Lock, 0, true, 0, 10),
            op(1, L, OpKind::Unlock, 0, true, 20, 30),
            op(2, L, OpKind::Lock, 0, true, 40, 50),
            op(2, L, OpKind::Unlock, 0, true, 60, 70),
        ]);
        assert!(out.is_linearizable(), "{:?}", out.violations);
        assert_eq!(out.checked, 1);
    }

    #[test]
    fn overlapping_holds_rejected() {
        // Two successful acquisitions whose critical sections overlap
        // entirely: no interleaving of the unlocks can save it.
        let out = check(vec![
            op(1, L, OpKind::Lock, 0, true, 0, 10),
            op(2, L, OpKind::Lock, 0, true, 20, 30),
            op(1, L, OpKind::Unlock, 0, true, 100, 110),
            op(2, L, OpKind::Unlock, 0, true, 120, 130),
        ]);
        assert!(!out.is_linearizable());
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].key, L);
    }

    #[test]
    fn pending_lock_may_take_effect_or_not() {
        // A failed lock followed by a successful one: linearizable by
        // dropping the pending op.
        let out = check(vec![
            op(1, L, OpKind::Lock, 0, false, 0, 10),
            op(2, L, OpKind::Lock, 0, true, 20, 30),
            op(2, L, OpKind::Unlock, 0, true, 40, 50),
        ]);
        assert!(out.is_linearizable(), "{:?}", out.violations);
    }

    #[test]
    fn fetch_add_return_values_must_chain() {
        let good = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 0, true, 0, 100),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 1, true, 10, 90),
            op(3, C, OpKind::FetchAdd { delta: 1 }, 2, true, 20, 80),
        ]);
        assert!(good.is_linearizable(), "{:?}", good.violations);

        // ret 2 then ret 0 with disjoint intervals cannot chain.
        let bad = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 2, true, 0, 10),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 0, true, 20, 30),
        ]);
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn disjoint_intervals_fix_the_order() {
        // Value order says B then A, but A responds before B invokes:
        // real-time order forbids the only value-consistent order.
        let out = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 1, true, 0, 10),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 0, true, 20, 30),
        ]);
        assert!(!out.is_linearizable());
    }

    #[test]
    fn failed_atomic_is_ambiguous() {
        // The failed op may or may not have bumped the cell; both
        // continuations appear in the history and must be accepted.
        let applied = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 0, false, 0, 10),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 1, true, 20, 30),
        ]);
        assert!(applied.is_linearizable(), "{:?}", applied.violations);
        let dropped = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 0, false, 0, 10),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 0, true, 20, 30),
        ]);
        assert!(dropped.is_linearizable(), "{:?}", dropped.violations);
    }

    #[test]
    fn test_set_semantics() {
        let out = check(vec![
            op(1, C, OpKind::TestSet { expect: 0, new: 7 }, 0, true, 0, 10),
            // Losing CAS: returns current value 7, does not store.
            op(2, C, OpKind::TestSet { expect: 0, new: 9 }, 7, true, 20, 30),
            op(3, C, OpKind::FetchAdd { delta: 1 }, 7, true, 40, 50),
        ]);
        assert!(out.is_linearizable(), "{:?}", out.violations);
    }

    #[test]
    fn register_reads_see_latest_write() {
        let r = Key::Reg {
            node: 0,
            idx: 1,
            offset: 64,
            len: 8,
        };
        let a = fingerprint(b"aaaaaaaa");
        let b = fingerprint(b"bbbbbbbb");
        let good = check(vec![
            op(1, r, OpKind::Write { fp: a }, 0, true, 0, 10),
            op(2, r, OpKind::Read { fp: a }, 0, true, 20, 30),
            op(1, r, OpKind::Write { fp: b }, 0, true, 40, 50),
            op(2, r, OpKind::Read { fp: b }, 0, true, 60, 70),
        ]);
        assert!(good.is_linearizable(), "{:?}", good.violations);

        // Reading the old value strictly after a write completed.
        let bad = check(vec![
            op(1, r, OpKind::Write { fp: a }, 0, true, 0, 10),
            op(1, r, OpKind::Write { fp: b }, 0, true, 20, 30),
            op(2, r, OpKind::Read { fp: a }, 0, true, 40, 50),
        ]);
        assert!(!bad.is_linearizable());

        // A fresh read of untouched memory fingerprints to 0.
        let fresh = check(vec![op(2, r, OpKind::Read { fp: 0 }, 0, true, 0, 10)]);
        assert!(fresh.is_linearizable(), "{:?}", fresh.violations);
    }

    #[test]
    fn barrier_generations_and_id_reuse() {
        let b = Key::Barrier { id: 7 };
        let arr = |p: u64, inv: Nanos, resp: Nanos| {
            op(p, b, OpKind::Barrier { count: 2 }, 0, true, inv, resp)
        };
        // Two clean generations under one reused id.
        let good = check(vec![
            arr(1, 0, 50),
            arr(2, 10, 50),
            arr(1, 100, 150),
            arr(2, 110, 150),
        ]);
        assert!(good.is_linearizable(), "{:?}", good.violations);

        // Second generation released before its second arrival: the
        // response of the gen-2 first arrival precedes gen-2's other
        // invoke — a lost-wakeup / premature-release shape.
        let bad = check(vec![
            arr(1, 0, 50),
            arr(2, 10, 50),
            arr(1, 100, 120),
            arr(2, 200, 250),
        ]);
        assert!(!bad.is_linearizable());

        // Any failed arrival makes the partition inconclusive.
        let mixed = check(vec![
            arr(1, 0, 50),
            op(2, b, OpKind::Barrier { count: 2 }, 0, false, 10, 400),
        ]);
        assert!(mixed.is_linearizable());
        assert_eq!(mixed.skipped, 1);
    }

    #[test]
    fn partitions_are_independent() {
        let c2 = Key::Cell { node: 1, addr: 8 };
        let out = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 0, true, 0, 10),
            op(1, c2, OpKind::FetchAdd { delta: 1 }, 0, true, 0, 10),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 1, true, 20, 30),
            // Violation confined to c2.
            op(2, c2, OpKind::FetchAdd { delta: 1 }, 5, true, 20, 30),
        ]);
        assert_eq!(out.partitions, 2);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].key, c2);
    }

    #[test]
    fn logical_cell_keys_partition_structurally() {
        // Under the former (1<<63)|(idx<<40)|off packing these two keys
        // collided (an offset >= 2^40 overflows into the idx field) and
        // their histories merged into one bogus partition. As struct
        // keys they stay independent.
        let k1 = Key::LogicalCell {
            node: 0,
            idx: 1,
            off: 1 << 40,
        };
        let k2 = Key::LogicalCell {
            node: 0,
            idx: 2,
            off: 0,
        };
        assert_ne!(k1, k2);
        let out = check(vec![
            op(1, k1, OpKind::FetchAdd { delta: 1 }, 0, true, 0, 10),
            op(2, k2, OpKind::FetchAdd { delta: 1 }, 0, true, 20, 30),
        ]);
        assert_eq!(out.partitions, 2);
        assert!(out.is_linearizable(), "{:?}", out.violations);
    }

    #[test]
    fn prefix_unlock_double_decrement_history_rejected() {
        // The pre-fix lt_unlock fault path, replayed: P1 holds, P2 is
        // queued at the owner. P1's first unlock decrements the lock
        // word and its one-way grant *lands* (P2 is granted and runs)
        // but the post reports failure, so the caller retries: the
        // second unlock decrements again (2 -> 1 -> 0), sees "no
        // waiters", and succeeds. The zeroed lock word then lets P3
        // fast-path straight into P2's still-running critical section.
        let out = check(vec![
            op(1, L, OpKind::Lock, 0, true, 0, 10),
            op(2, L, OpKind::Lock, 0, true, 15, 35),
            op(1, L, OpKind::Unlock, 0, false, 20, 30),
            op(1, L, OpKind::Unlock, 0, true, 40, 50),
            op(3, L, OpKind::Lock, 0, true, 60, 70),
            op(2, L, OpKind::Unlock, 0, true, 100, 110),
            op(3, L, OpKind::Unlock, 0, true, 200, 210),
        ]);
        assert!(
            !out.is_linearizable(),
            "the checker must reject the pre-fix double-decrement history"
        );
        assert_eq!(out.violations[0].key, L);
    }

    #[test]
    fn fingerprint_properties() {
        assert_eq!(fingerprint(&[0; 32]), 0);
        assert_ne!(fingerprint(b"x"), 0);
        assert_ne!(fingerprint(b"x") & 1, 0, "non-zero data => odd fp");
        assert_ne!(fingerprint(b"ab"), fingerprint(b"ba"));
    }

    #[test]
    fn history_json_shape() {
        let h = History {
            ops: vec![op(1, L, OpKind::Lock, 0, true, 0, 10)],
        };
        let j = h.to_json();
        assert!(j.starts_with("{\"ops\":["));
        assert!(j.contains("\"key\":\"lock:0:0x40\""));
        assert!(j.contains("\"ok\":true"));
    }

    fn txn(
        proc: u64,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
        outcome: TxnOutcome,
        invoke: Nanos,
        response: Nanos,
    ) -> TxnOp {
        TxnOp {
            proc,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            outcome,
            invoke,
            response,
        }
    }

    fn txn_check(txns: Vec<TxnOp>) -> TxnCheckOutcome {
        TxnHistory { txns }.check()
    }

    use TxnOutcome::{Aborted, Committed, Indeterminate};

    #[test]
    fn sequential_txns_serialize() {
        let out = txn_check(vec![
            txn(1, &[(1, 0)], &[(1, 5)], Committed, 0, 10),
            txn(2, &[(1, 5)], &[(1, 6), (2, 1)], Committed, 20, 30),
            txn(1, &[(1, 6), (2, 1)], &[], Committed, 40, 50),
        ]);
        assert!(out.is_serializable(), "{:?}", out.violation);
        assert_eq!(out.committed, 3);
    }

    #[test]
    fn write_skew_rejected() {
        // Classic write skew: T1 and T2 each read {x=1, y=1} and
        // concurrently zero the *other* key. Any serial order makes the
        // second transaction's read set stale, so full-read-set
        // validation must have aborted one of them — a history where
        // both committed is non-serializable.
        let out = txn_check(vec![
            txn(1, &[], &[(1, 1), (2, 1)], Committed, 0, 10),
            txn(2, &[(1, 1), (2, 1)], &[(2, 0)], Committed, 20, 60),
            txn(3, &[(1, 1), (2, 1)], &[(1, 0)], Committed, 25, 55),
        ]);
        assert!(!out.is_serializable());
        assert!(out.violation.is_some());
    }

    #[test]
    fn lost_update_rejected() {
        // Both transactions claim to have read 0 and written back 1:
        // one increment was lost. Neither order explains both reads.
        let out = txn_check(vec![
            txn(1, &[(7, 0)], &[(7, 1)], Committed, 0, 30),
            txn(2, &[(7, 0)], &[(7, 1)], Committed, 10, 40),
        ]);
        assert!(!out.is_serializable());
    }

    #[test]
    fn dirty_read_rejected() {
        // T2 observed a value only ever staged by the *aborted* T1.
        // Aborted transactions must leave no trace, so there is no
        // serial source for T2's read.
        let out = txn_check(vec![
            txn(1, &[], &[(3, 7)], Aborted, 0, 100),
            txn(2, &[(3, 7)], &[], Committed, 10, 20),
        ]);
        assert!(!out.is_serializable());
        assert_eq!(out.aborted, 1);
    }

    #[test]
    fn clean_abort_leaves_no_trace() {
        // Same shape, but T2 reads the *pre-abort* value: serializable.
        let out = txn_check(vec![
            txn(1, &[], &[(3, 7)], Aborted, 0, 100),
            txn(2, &[(3, 0)], &[], Committed, 10, 20),
        ]);
        assert!(out.is_serializable(), "{:?}", out.violation);
    }

    #[test]
    fn indeterminate_commit_explored_both_ways() {
        // A committer that crashed mid-protocol may or may not have
        // decided commit; later reads seeing either world are fine.
        let applied = txn_check(vec![
            txn(1, &[], &[(5, 9)], Indeterminate, 0, 50),
            txn(2, &[(5, 9)], &[], Committed, 60, 70),
        ]);
        assert!(applied.is_serializable(), "{:?}", applied.violation);
        let dropped = txn_check(vec![
            txn(1, &[], &[(5, 9)], Indeterminate, 0, 50),
            txn(2, &[(5, 0)], &[], Committed, 60, 70),
        ]);
        assert!(dropped.is_serializable(), "{:?}", dropped.violation);
        // But it cannot do both at once for the same key.
        let both = txn_check(vec![
            txn(1, &[], &[(5, 9)], Indeterminate, 0, 50),
            txn(2, &[(5, 9)], &[], Committed, 60, 70),
            txn(3, &[(5, 0)], &[], Committed, 80, 90),
        ]);
        assert!(!both.is_serializable());
    }

    #[test]
    fn txn_real_time_order_is_enforced() {
        // Strictness: T2 starts after T1's commit completed, so it must
        // observe T1's write even though value order alone would allow
        // serializing T2 first.
        let out = txn_check(vec![
            txn(1, &[], &[(9, 1)], Committed, 0, 10),
            txn(2, &[(9, 0)], &[], Committed, 20, 30),
        ]);
        assert!(!out.is_serializable());
    }

    #[test]
    fn prefix_atomic_double_apply_history_rejected() {
        // The pre-fix blind-retry bug, replayed against the existing
        // cell spec: a fetch-add whose ack was lost applied once, the
        // retry applied it again, so the old-value stream has a gap —
        // values 1 and 2 were returned but nobody ever saw 0. No
        // linearization of two increments from a zero cell explains it.
        let out = check(vec![
            op(1, C, OpKind::FetchAdd { delta: 1 }, 1, true, 0, 30),
            op(2, C, OpKind::FetchAdd { delta: 1 }, 2, true, 10, 40),
        ]);
        assert!(
            !out.is_linearizable(),
            "the checker must reject the double-apply old-value gap"
        );
    }

    #[test]
    fn txn_json_shape() {
        let h = TxnHistory {
            txns: vec![txn(1, &[(1, 0)], &[(1, 5)], Committed, 0, 10)],
        };
        let j = h.to_json();
        assert!(j.starts_with("{\"txns\":["));
        assert!(j.contains("\"reads\":[[1,0]]"));
        assert!(j.contains("\"outcome\":\"Committed\""));
    }

    #[test]
    fn explore_aggregates_outcomes() {
        let report = explore(0..3, |seed| {
            Ok(History {
                ops: vec![op(
                    1,
                    C,
                    OpKind::FetchAdd { delta: 1 },
                    if seed == 1 { 9 } else { 0 },
                    true,
                    0,
                    10,
                )],
            })
        });
        assert_eq!(report.reports.len(), 3);
        assert_eq!(report.failing_seeds(), vec![1]);
        assert!(!report.all_linearizable());
    }
}

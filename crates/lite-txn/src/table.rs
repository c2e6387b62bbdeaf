//! The OCC core: versioned record tables and the transaction commit
//! protocol.
//!
//! # Table layout (one LMR, home on the creating node)
//!
//! ```text
//! [ meta 64 B ][ decision slots ][ records ]
//!
//! slot   = header u64 | lease u64 | count u64 | max_writes × entry
//! entry  = rec_idx u64 | old_version u64 | payload (rounded to 8)
//! record = version word u64 | payload (rounded to 8)
//! ```
//!
//! # Version / lock words
//!
//! An **unlocked** record's version word has bit 0 clear; committed
//! writes bump it by 2. A **locked** word encodes the committing
//! transaction:
//!
//! ```text
//! bit 0      : 1 (locked)
//! bits 1..17 : decision slot index
//! bits 17..49: lease expiry (host-wall ms, low 32 bits)
//! bits 49..64: slot epoch (low 15 bits)
//! ```
//!
//! # Commit protocol
//!
//! Two blocking round trips to the table's home, each one
//! [`LiteHandle::lt_chain`]: its steps go out behind one doorbell and
//! execute in order, and nothing in a chain depends on a result of the
//! same chain.
//!
//! Every transaction runs at the epoch after the header it starts from
//! — `e+1` on a slot its handle kept at `COMMITTED@e` or `ABORTED@e`,
//! `c+1` on one it just claimed at `CLAIMED@c` — and its decide is a CAS
//! *from that header*.
//!
//! 0. **The slot is already ours**: a committer keeps its decision slot
//!    from one commit to the next (below), so in the steady state
//!    claiming it costs no verb. Only a handle's first commit, or one
//!    after it idled past half its lease, pays a claim CAS
//!    (`FREE`/`DRAINED`/the header its own last transaction left →
//!    `CLAIMED@(epoch+2)`), reading headers from a hash of `(node, pid)`
//!    on when it holds nothing.
//! 1. **Publish, lock, validate**: publish the redo log (write set with
//!    old versions and new payloads), then the lease word of `e+1` — the
//!    redo is written *before* the lease so a lease one epoch ahead of
//!    the header certifies a complete redo; **lock the write set** in
//!    ascending record order (CAS each version word from its expected
//!    version to the lock word); **validate the read set** (a one-word
//!    read of the version word per read-but-not-written record, which
//!    must still carry the version observed by [`Txn::read`]; write-set
//!    records are validated by the lock CAS itself). If any lock CAS
//!    lost, the ones that won are CASed back and the transaction aborts
//!    — it never waits while holding a lock, which is what keeps
//!    ascending-order locking deadlock-free.
//! 2. **Decide, apply, release**: CAS the slot header from the one the
//!    transaction started on to `COMMITTED@(e+1)` — this single word is
//!    the transaction's atomic commit point, and the header it leaves is
//!    the one the next transaction on the slot decides from — then, in
//!    the same chain, write every staged payload and write
//!    `old_version + 2` over each lock word. Nothing follows. The
//!    decide's outcome is read from the chain's results. Nothing behind
//!    it waits for it, which is safe for the reason the payload writes
//!    were always safe: a decide can only lose to a scavenger, and a
//!    scavenger only acts on an expired lease — the own-lease re-check
//!    is the last statement before the chain is posted. A decide that
//!    lost anyway (the lease ran out between that check and the NIC
//!    executing the chain, the window the blind payload writes have
//!    always had) reports [`TxnError::Indeterminate`], never a clean
//!    conflict.
//!
//! A read-only transaction takes no slot and no lock: one chain of
//! validating word reads, no atomic at all. Every abort path is one
//! chain too: locks CAS back to their old versions, then one CAS from
//! the header the transaction started on to `ABORTED@(e+1)` finalizes it
//! and keeps the slot.
//!
//! # The kept slot
//!
//! After a commit or an abort the handle remembers `(slot, header it
//! left, expiry of the lease that commit ran under)`. The header it left
//! — `COMMITTED@e` or `ABORTED@e`, under a lease word that says `e` too
//! — *is* the kept, idle state, no header state of its own. While the
//! lease is live nobody may touch the slot, and the next commit starts
//! on it at once; its lock chain publishes the redo and lease of epoch
//! `e+1`. Those writes are blind, so the owner trusts a kept slot for the
//! first half of the lease only — starting them inside the lease and
//! landing them past it takes a stall of half a lease, not of nothing.
//! After that it re-claims with one blind CAS from the header it left (a
//! miss returns the fresh header, so it costs no verb a read would not
//! have).
//!
//! Whoever reads a slot it does not own — a recoverer holding an expired
//! lock word, a scavenger (a claimer that found the whole ring busy)
//! holding an expired lease — goes by one rule, `stage`: compare the
//! epoch that word carries with the header's.
//!
//! * **Equal**: that transaction decided and the header says how; once
//!   its chain 2 has completed this is the kept, idle slot.
//! * **One ahead**: a transaction in flight and undecided. Its owner will
//!   decide by a CAS from this very header, so a steal CASes the same
//!   word to `ABORTED@(e+1)`: exactly one of the two wins.
//! * **Two or more behind**: just claimed, its owner's lease not yet
//!   published — which is why a claim bumps the epoch by 2, never 1 — or
//!   long settled. Hands off.
//!
//! A kept `COMMITTED@e` looks exactly like a commit whose release was
//! cut short with a lock word of `e` still out, so it no longer proves
//! by itself that every lock word of `e` is gone. In its owner's hands it
//! does: the owner keeps a slot only once its chain 2 has completed. A
//! scavenger settles a kept slot's redo before draining it, which
//! touches no released record and only happens on a rare path.
//!
//! The bound this introduces: a table serves `slots` handles at full
//! speed. Handle `slots + 1` finds every slot kept and gets one when an
//! owner has gone quiet (or away) for a lease: it waits out at most that
//! lease, scavenges the slot, and the handle it took it from pays one
//! failed CAS and claims again. An owner that never pauses for a lease
//! never loses its slot, so size `slots` for the handles that commit
//! read-write transactions concurrently (32 by default).
//!
//! # Which verb where
//!
//! The home node runs no code, but its NIC's request engine serves
//! every verb, and an atomic holds it six times as long as a read or a
//! write (`rnic::COST`: 180 ns, + 900 ns `atomic_extra_ns`). So
//! atomics are kept for the places where a race is *decided* — lock,
//! decide, the occasional claim, and everything abort and recovery do —
//! and the places that only *observe*, *publish* or *move on* use plain
//! verbs or none: 3 atomics for an uncontended read-2-write-2 commit,
//! none for a read-only one.
//!
//! * Validation observes. An aligned one-word read is executed as a
//!   stamped load, so it is ordered against the lock CASes on the same
//!   word exactly as the zero fetch-add it replaces was.
//! * Release publishes. The lock word under a version write is the
//!   committer's own: nobody else writes that word while the lock
//!   stands, except a recoverer — and only once the lease has expired.
//!   The payload writes of the same chain are blind under the same
//!   lease for the same reason, so the version write adds no exposure
//!   the protocol did not already have; the own-lease re-check right
//!   before the chain guards both. The version writes follow *all*
//!   payload writes (an RC QP executes in order), so a reader that sees
//!   `old + 2` sees the payload under it.
//! * The decide carries the epoch. Moving the slot to the next epoch
//!   needs no verb of its own: the next decide is a CAS from the header
//!   this one leaves, so it guards the move exactly as a separate CAS
//!   would — if a recoverer drained the slot and a new owner claimed it
//!   meanwhile, the decide loses and the owner stops. The owner starts
//!   the next transaction only once chain 2 has completed, so no lock
//!   word of the old epoch is out when the new one begins. And with no
//!   atomic left behind the version writes, no lost ack can make a retry
//!   re-land one: a chain's retry resumes at the atomic that lost its
//!   ack, and the decide comes before every write.
//! * Abort and recovery keep CAS: `abort_own` runs without a lease
//!   re-check (a scavenger may have rolled a lock back and a later
//!   committer re-locked the record — a blind write would clobber that
//!   lock), and a recoverer races other recoverers by design.
//!
//! # Crash recovery
//!
//! A committer that dies mid-protocol leaves lock words behind. Leases
//! make them reclaimable: any transaction that runs into an **expired**
//! lock word reads the owning slot, finalizes it — steal-aborting an
//! undecided transaction via the same header CAS the owner would have
//! used to commit, so the decision stays atomic — and then settles *every*
//! redo entry: roll forward (`COMMITTED`: copy the redo payload, CAS
//! the lock word to `old+2`) or roll back (`ABORTED`: CAS to `old`).
//! Settling the whole redo before the slot drains is what keeps lock
//! words from outliving the slot metadata that explains them.
//!
//! Leases are **host-wall** milliseconds (simnet virtual clocks are
//! per-thread and unsynchronized, so they cannot order a crashed
//! committer against its recoverer). A live committer re-checks its own
//! lease before it posts the deciding chain; once expired it stops
//! touching the table and reports [`TxnError::Indeterminate`] — recovery
//! owns the outcome.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use lite::verify::{fingerprint, proc_id, TxnLog, TxnOp, TxnOutcome};
use lite::{ChainOp, ChainOut, Lh, LiteError, LiteHandle, Perm};
use simnet::wait::lease_ms;
use simnet::{Ctx, Nanos};

/// Errors surfaced by the transaction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction lost an OCC race and aborted cleanly; retry it.
    /// `validation` is set when a read-set version check failed (the
    /// OCC conflict signal proper) rather than lock contention or slot
    /// exhaustion.
    Conflict {
        /// Whether read-set re-validation (not lock contention) failed.
        validation: bool,
    },
    /// The commit outcome is unknown (lease expired mid-commit or a
    /// crash hook fired): the transaction may or may not be durable,
    /// and recovery — not the issuer — will settle it.
    Indeterminate,
    /// Malformed use of the API (payload too large, write set over the
    /// table's `max_writes`, record out of range).
    Invalid(&'static str),
    /// An underlying LITE operation failed.
    Lite(LiteError),
}

impl From<LiteError> for TxnError {
    fn from(e: LiteError) -> Self {
        TxnError::Lite(e)
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict { validation: true } => write!(f, "conflict (validation failed)"),
            TxnError::Conflict { validation: false } => write!(f, "conflict (contention)"),
            TxnError::Indeterminate => write!(f, "indeterminate commit outcome"),
            TxnError::Invalid(why) => write!(f, "invalid: {why}"),
            TxnError::Lite(e) => write!(f, "lite: {e}"),
        }
    }
}

/// Result alias for the transaction layer.
pub type TxnResult<T> = Result<T, TxnError>;

/// Shape of a [`TxnTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Number of records.
    pub records: u64,
    /// Payload bytes per record (rounded up to 8 internally).
    pub payload: usize,
    /// Decision slots (concurrent committers the table can serve).
    pub slots: u16,
    /// Max write-set size per transaction (sizes the redo area).
    pub max_writes: usize,
    /// Lock/slot lease in host-wall milliseconds. Must exceed the
    /// worst-case lock-to-release latency of a healthy commit.
    pub lease_ms: u64,
}

impl TableSpec {
    /// A spec with default concurrency knobs (32 slots, 16-write
    /// transactions, 50 ms leases).
    pub fn new(records: u64, payload: usize) -> Self {
        TableSpec {
            records,
            payload,
            slots: 32,
            max_writes: 16,
            lease_ms: 50,
        }
    }
}

// Slot header states (low 4 bits; epoch in the high 60).
const S_FREE: u64 = 0;
/// Claimed, with nothing decided on it yet.
const S_CLAIMED: u64 = 1;
const S_COMMITTED: u64 = 2;
const S_ABORTED: u64 = 3;
const S_DRAINED: u64 = 4;

const MAGIC: u64 = 0x4c54_584e_0000_0001; // "LTXN" v1
const META_LEN: u64 = 64;

/// Bounded snapshot attempts before a read reports a conflict. Sized
/// so the accumulated backoff comfortably outlasts a default lease:
/// a reader parked on a healthy committer's lock must still be waiting
/// when the lease expires and recovery becomes legal.
const READ_ATTEMPTS: u32 = 512;
/// Bounded CAS attempts per lock acquisition.
const LOCK_ATTEMPTS: u32 = 16;

fn lock_word(slot: u16, epoch: u64, expiry_ms: u64) -> u64 {
    1 | ((slot as u64) << 1) | ((expiry_ms & 0xffff_ffff) << 17) | ((epoch & 0x7fff) << 49)
}

fn is_locked(w: u64) -> bool {
    w & 1 == 1
}

fn lock_slot(w: u64) -> u16 {
    ((w >> 1) & 0xffff) as u16
}

fn lock_expiry(w: u64) -> u64 {
    (w >> 17) & 0xffff_ffff
}

fn lock_epoch15(w: u64) -> u64 {
    w >> 49
}

/// Whether a lease that runs until `expiry_ms` (low 32 bits of
/// [`lease_ms`]) is over.
fn expired(expiry_ms: u64) -> bool {
    (lease_ms() & 0xffff_ffff) > expiry_ms
}

fn lock_expired(w: u64) -> bool {
    expired(lock_expiry(w))
}

/// Where a transaction stands, by the epoch a word it published carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// It decided, and the slot's header says how. Once its chain 2 has
    /// completed, this is the kept, idle slot.
    Decided(u64),
    /// In flight and undecided: its owner will decide by a CAS from the
    /// header as it stands.
    InFlight(u64),
}

/// The one rule for reading a slot one does not own: the low `bits` bits
/// of a transaction's epoch — 16 in a lease word, 15 in a lock word —
/// against the slot's header `hdr`. Equal, the transaction decided; one
/// ahead, it is in flight; two or more behind, the slot was just claimed
/// and its owner has not published a lease yet (a claim bumps the epoch
/// by 2 so that this never reads as one of the other two), or the
/// transaction is long settled: `None`, hands off.
fn stage(hdr: u64, epoch: u64, bits: u32) -> Option<Stage> {
    let at = hdr >> 4;
    match epoch.wrapping_sub(at) & ((1 << bits) - 1) {
        0 => Some(Stage::Decided(at)),
        1 => Some(Stage::InFlight(at + 1)),
        _ => None,
    }
}

/// Where a handle starts looking for a claimable slot: a mixing hash
/// (the splitmix64 finalizer) of `(node, pid)`, so neighbouring handles
/// do not share a start slot the way a linear `node * k + pid` makes them.
fn start_slot(node: usize, pid: u32, slots: u16) -> u16 {
    let mut x = (((node as u64) << 32) | pid as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % slots as u64) as u16
}

/// The words a chain observed, in op order: the old value of every
/// atomic and the word every one-word read fetched.
fn old_values(outs: &[ChainOut]) -> impl Iterator<Item = u64> + '_ {
    outs.iter().filter_map(|o| match o {
        ChainOut::Value(v) => Some(*v),
        ChainOut::Bytes(b) => b.as_slice().try_into().ok().map(u64::from_le_bytes),
        ChainOut::Done => None,
    })
}

/// Where to stop a commit mid-protocol without unwinding — the
/// crash-of-committer hook the recovery tests and chaos sweeps drive.
/// A fired hook returns [`TxnError::Indeterminate`] and leaves every
/// lock word and the decision slot exactly as a dead committer would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// No crash: run the full protocol.
    #[default]
    None,
    /// Crash after locking the write set, before deciding (recovery
    /// must steal-abort and roll back).
    AfterLock,
    /// Crash right after the commit-point CAS, before any apply: the
    /// deciding chain is cut after its first op (recovery must roll
    /// forward from the redo).
    AfterDecide,
    /// Crash after applying the first payload (recovery completes the
    /// partially applied write set).
    MidApply,
    /// Crash after the first version write: the first record is released
    /// and readable, the rest still locked (recovery settles the
    /// remainder from the redo).
    MidRelease,
}

/// What one [`TxnTable`] handle did, counted on the handle itself (no
/// verb, no virtual time): the per-handle view beside the kernel-wide
/// `txn_*` gauges of `lt_stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Transactions this handle committed.
    pub commits: u64,
    /// Transactions this handle aborted (conflicts, explicit aborts and
    /// indeterminate outcomes, as `txn_aborts` counts them).
    pub aborts: u64,
    /// Read-write commits that started on the slot the previous one
    /// kept: no claim verb.
    pub claims_kept: u64,
    /// Read-write commits that claimed a slot with a header CAS (the
    /// first on a handle, or one that no longer trusted its kept slot).
    pub claims_cas: u64,
    /// Expired slots of other committers this handle settled while
    /// looking for one to claim.
    pub slots_scavenged: u64,
}

/// A versioned record table inside one LMR, shared by name.
pub struct TxnTable {
    lh: Lh,
    spec: TableSpec,
    /// Payload bytes rounded up to 8.
    payload_p: u64,
    /// Bytes per decision slot.
    slot_size: u64,
    /// Offset of record 0.
    rec_base: u64,
    /// The slot this handle kept, the header it left there and how long
    /// it may trust that ([`TxnTable::keep`]): until then the next commit
    /// starts on it with no verb, after that with one blind CAS.
    last_slot: Cell<Option<(u16, u64, u64)>>,
    stats: Cell<TableStats>,
    log: Option<Arc<TxnLog>>,
}

impl TxnTable {
    fn with_layout(lh: Lh, spec: TableSpec) -> Self {
        let payload_p = (spec.payload as u64).div_ceil(8) * 8;
        let slot_size = 24 + spec.max_writes as u64 * (16 + payload_p);
        TxnTable {
            lh,
            spec,
            payload_p,
            slot_size,
            rec_base: META_LEN + spec.slots as u64 * slot_size,
            last_slot: Cell::new(None),
            stats: Cell::default(),
            log: None,
        }
    }

    /// Bytes of a table's LMR.
    fn lmr_len(&self) -> u64 {
        self.rec_off(self.spec.records)
    }

    /// Creates the table's LMR on `home` and initializes its metadata.
    pub fn create(
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        home: usize,
        name: &str,
        spec: TableSpec,
    ) -> TxnResult<Self> {
        if spec.records == 0 || spec.slots == 0 || spec.max_writes == 0 {
            return Err(TxnError::Invalid("empty table spec"));
        }
        // The layout sizes the LMR; the lh exists once it is allocated.
        let mut table = Self::with_layout(0, spec);
        table.lh = h.lt_malloc(ctx, home, table.lmr_len(), name, Perm::RW)?;
        let mut meta = [0u8; META_LEN as usize];
        for (i, v) in [
            MAGIC,
            spec.records,
            spec.payload as u64,
            spec.slots as u64,
            spec.max_writes as u64,
            spec.lease_ms,
        ]
        .into_iter()
        .enumerate()
        {
            meta[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        h.lt_write(ctx, table.lh, 0, &meta)?;
        Ok(table)
    }

    /// Opens a table created elsewhere by name; the spec is read back
    /// from the table's own metadata.
    pub fn open(h: &mut LiteHandle, ctx: &mut Ctx, name: &str) -> TxnResult<Self> {
        let lh = h.lt_map(ctx, name)?;
        let mut meta = [0u8; META_LEN as usize];
        h.lt_read(ctx, lh, 0, &mut meta)?;
        let word = |i: usize| u64::from_le_bytes(meta[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != MAGIC {
            return Err(TxnError::Invalid("not a lite-txn table"));
        }
        let spec = TableSpec {
            records: word(1),
            payload: word(2) as usize,
            slots: word(3) as u16,
            max_writes: word(4) as usize,
            lease_ms: word(5),
        };
        Ok(Self::with_layout(lh, spec))
    }

    /// The table's shape.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// This handle's own counters.
    pub fn stats(&self) -> TableStats {
        self.stats.get()
    }

    fn count(&self, bump: impl FnOnce(&mut TableStats)) {
        let mut stats = self.stats.get();
        bump(&mut stats);
        self.stats.set(stats);
    }

    /// Arms serializability recording: every commit/abort through this
    /// handle's transactions appends one [`TxnOp`] (record index as the
    /// key, payload [`fingerprint`] as the value). Arm one log per
    /// table — record indices are the checker's keys, so histories from
    /// different tables must not share a log.
    pub fn arm_txn_log(&mut self, log: Arc<TxnLog>) {
        self.log = Some(log);
    }

    /// Begins a transaction against this table.
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            table: self,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            invoke: None,
        }
    }

    fn slot_off(&self, s: u16) -> u64 {
        META_LEN + s as u64 * self.slot_size
    }

    fn slot_entry_off(&self, s: u16, j: usize) -> u64 {
        self.slot_off(s) + 24 + j as u64 * (16 + self.payload_p)
    }

    fn rec_off(&self, r: u64) -> u64 {
        self.rec_base + r * (8 + self.payload_p)
    }

    fn read_word(&self, h: &mut LiteHandle, ctx: &mut Ctx, off: u64) -> TxnResult<u64> {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.lh, off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// The validating read of `rec`'s *version* word: a one-sided read of
    /// exactly that aligned word, which the datapath executes as a stamped
    /// load (`smem::PhysMem::load_u64_stamped`). Its completion stamp is
    /// monotone with the conflicting lock CASes on the same word, and
    /// waiting for its chain advances the caller's virtual clock past it
    /// — which is what makes the `[invoke, response]` intervals recorded
    /// for the serializability checker sound across unsynchronized
    /// per-thread clocks: a transaction that observed another's commit
    /// can never be real-time-ordered before it. It costs the home NIC's
    /// engine what a read costs, not an atomic.
    fn version_probe(&self, rec: u64) -> ChainOp<'static> {
        ChainOp::Read {
            off: self.rec_off(rec),
            len: 8,
        }
    }

    /// One contention backoff step: virtual think time plus a little
    /// host-wall sleep so lock leases (host time) can actually expire
    /// while we wait.
    fn backoff(ctx: &mut Ctx, attempt: u32) {
        ctx.work(200u64 << attempt.min(4));
        if attempt > 1 {
            simnet::wait::pause(std::time::Duration::from_micros(300));
        }
    }

    /// Snapshots one record: a consistent `(version, payload)` pair
    /// obtained by the version-payload-version read dance, recovering
    /// expired lock words along the way.
    fn snapshot_record(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        rec: u64,
    ) -> TxnResult<(u64, Vec<u8>)> {
        if rec >= self.spec.records {
            return Err(TxnError::Invalid("record out of range"));
        }
        for attempt in 0..READ_ATTEMPTS {
            // One blob read covers the version word and the payload —
            // the snapshot is *optimistic* (Silo-style): it is not
            // verified here but by the stamped version check every
            // commit performs (`version_probe` in validation, or the
            // lock CAS for write records). That check is sound against
            // torn blobs because a payload byte can only be written
            // strictly between two version transitions (lock CAS, then
            // the release write of `old+2`), so a commit-time version
            // equal to the blob's unlocked `v1` certifies the payload
            // was never concurrently written. It is also what keeps recorded
            // serializability intervals clock-sound: the stamped
            // validation orders every committed reader after the
            // writers it observed.
            let mut blob = vec![0u8; 8 + self.payload_p as usize];
            h.lt_read(ctx, self.lh, self.rec_off(rec), &mut blob)?;
            let v1 = u64::from_le_bytes(blob[..8].try_into().unwrap());
            if is_locked(v1) {
                if lock_expired(v1) {
                    self.recover_from_lock(h, ctx, v1)?;
                } else {
                    Self::backoff(ctx, attempt);
                }
                continue;
            }
            let mut payload = blob.split_off(8);
            payload.truncate(self.spec.payload);
            return Ok((v1, payload));
        }
        Err(TxnError::Conflict { validation: false })
    }

    /// Recovery entry point for an expired lock word observed on some
    /// record: finalize the owning slot and settle its whole redo.
    fn recover_from_lock(&self, h: &mut LiteHandle, ctx: &mut Ctx, lw: u64) -> TxnResult<()> {
        let slot = lock_slot(lw);
        if slot >= self.spec.slots {
            return Err(TxnError::Invalid("lock word names a bogus slot"));
        }
        let hdr = self.read_word(h, ctx, self.slot_off(slot))?;
        match stage(hdr, lock_epoch15(lw), 15) {
            Some(at) => self.settle_slot(h, ctx, slot, hdr, at),
            // The owning epoch is gone; the lock word must have been
            // settled concurrently — let the caller re-read.
            None => Ok(()),
        }
    }

    /// Finalizes (steal-aborting if in flight) and fully settles the
    /// transaction `at` of one slot, whose header read `hdr_seen`, then
    /// drains the slot. Safe to race: every step is a CAS that loses
    /// harmlessly.
    fn settle_slot(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        slot: u16,
        hdr_seen: u64,
        at: Stage,
    ) -> TxnResult<()> {
        let (epoch, state) = match at {
            Stage::Decided(epoch) => (epoch, hdr_seen & 0xf),
            Stage::InFlight(epoch) => {
                // The same CAS the owner uses to commit, from the same
                // header: whoever wins, the decision is made exactly once.
                let stolen = (epoch << 4) | S_ABORTED;
                let prev = h.lt_cmp_swap(ctx, self.lh, self.slot_off(slot), hdr_seen, stolen)?;
                if prev == hdr_seen {
                    (epoch, S_ABORTED)
                } else if prev >> 4 == epoch {
                    (epoch, prev & 0xf) // owner (or another recoverer) decided
                } else {
                    return Ok(()); // slot moved on entirely
                }
            }
        };
        if state != S_COMMITTED && state != S_ABORTED {
            return Ok(()); // FREE, CLAIMED or DRAINED: nothing to settle
        }
        let count = self.read_word(h, ctx, self.slot_off(slot) + 16)?;
        if count > self.spec.max_writes as u64 {
            return Err(TxnError::Invalid("corrupt redo count"));
        }
        let mut all_settled = true;
        for j in 0..count as usize {
            let eoff = self.slot_entry_off(slot, j);
            let rec = self.read_word(h, ctx, eoff)?;
            let old_v = self.read_word(h, ctx, eoff + 8)?;
            if rec >= self.spec.records {
                return Err(TxnError::Invalid("corrupt redo entry"));
            }
            let mut settled = false;
            for attempt in 0..LOCK_ATTEMPTS {
                let cur = self.read_word(h, ctx, self.rec_off(rec))?;
                if !is_locked(cur)
                    || lock_slot(cur) != slot
                    || lock_epoch15(cur) != (epoch & 0x7fff)
                {
                    settled = true; // not (or no longer) held by this txn
                    break;
                }
                if state == S_ABORTED {
                    // Roll back: no payload to touch, the guarded CAS
                    // alone restores the version.
                    let _ = h.lt_cmp_swap(ctx, self.lh, self.rec_off(rec), cur, old_v)?;
                    continue; // re-read to confirm
                }
                // Roll forward. The payload write below is not CAS
                // guarded, so it must happen under an *exclusive*
                // lease: take the lock over (same slot/epoch, fresh
                // expiry) before touching the record. A stale
                // recoverer that lost this handoff can never clobber
                // a later transaction's committed payload.
                if !lock_expired(cur) {
                    TxnTable::backoff(ctx, attempt); // live owner/recoverer
                    continue;
                }
                let fresh = lock_word(slot, epoch, (lease_ms() + self.spec.lease_ms) & 0xffff_ffff);
                if h.lt_cmp_swap(ctx, self.lh, self.rec_off(rec), cur, fresh)? != cur {
                    continue; // someone else claimed it; re-read
                }
                let mut payload = vec![0u8; self.payload_p as usize];
                h.lt_read(ctx, self.lh, eoff + 16, &mut payload)?;
                h.lt_write(ctx, self.lh, self.rec_off(rec) + 8, &payload)?;
                let _ = h.lt_cmp_swap(
                    ctx,
                    self.lh,
                    self.rec_off(rec),
                    fresh,
                    old_v.wrapping_add(2),
                )?;
                settled = true;
                break;
            }
            all_settled &= settled;
        }
        // Only a slot whose every redo entry is confirmed settled may
        // be reclaimed — lock words must never outlive their slot.
        if all_settled {
            let _ = h.lt_cmp_swap(
                ctx,
                self.lh,
                self.slot_off(slot),
                (epoch << 4) | state,
                (epoch << 4) | S_DRAINED,
            )?;
        }
        Ok(())
    }

    /// One claim CAS on slot `s` from the header `hdr`: the header it
    /// leaves, `CLAIMED` and this handle's to decide from — or the header
    /// found there instead.
    fn try_claim(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        s: u16,
        hdr: u64,
    ) -> TxnResult<Result<u64, u64>> {
        // By 2: the lease word of a slot nobody is deciding on carries
        // its header's epoch or an older one, so a claimed slot's lease
        // stays two or more behind until its owner publishes one — never
        // equal (decided) nor one ahead (in flight), which a scavenger
        // may take.
        let claimed = (((hdr >> 4) + 2) << 4) | S_CLAIMED;
        let seen = h.lt_cmp_swap(ctx, self.lh, self.slot_off(s), hdr, claimed)?;
        if seen != hdr {
            return Ok(Err(seen));
        }
        self.count(|c| c.claims_cas += 1);
        Ok(Ok(claimed))
    }

    /// Claims a decision slot: `(slot, header)`, the header the next
    /// transaction on it decides from. A kept slot still trusted is
    /// returned as its last transaction left it; anything else costs a
    /// header CAS. Scavenges expired slots when the ring is exhausted.
    fn claim_slot(&self, h: &mut LiteHandle, ctx: &mut Ctx) -> TxnResult<(u16, u64)> {
        let slots = self.spec.slots as u64;
        // Start at the slot this handle kept. Once it is no longer
        // trusted a scavenger may have taken it, so CAS the header left
        // there without reading it first: the common case is one verb, and a miss costs no verb
        // a read would not have — the failed CAS's return value *is* the
        // fresh header.
        let (start, mut guess) = match self.last_slot.take() {
            Some((s, hdr, trusted_ms)) if !expired(trusted_ms) => {
                self.count(|c| c.claims_kept += 1);
                return Ok((s, hdr));
            }
            Some((s, hdr, _)) => (s, Some(hdr)),
            None => (start_slot(h.node(), h.pid(), self.spec.slots), None),
        };
        for pass in 0..3u32 {
            for i in 0..slots {
                let s = ((start as u64 + i) % slots) as u16;
                let off = self.slot_off(s);
                let hdr = match guess.take() {
                    Some(g) => match self.try_claim(h, ctx, s, g)? {
                        Ok(claimed) => return Ok((s, claimed)),
                        Err(seen) => seen,
                    },
                    None => self.read_word(h, ctx, off)?,
                };
                let state = hdr & 0xf;
                if state == S_FREE || state == S_DRAINED {
                    if let Ok(claimed) = self.try_claim(h, ctx, s, hdr)? {
                        return Ok((s, claimed));
                    }
                    continue;
                }
                if pass > 0 {
                    // Ring exhausted once already: scavenge expired
                    // slots. A lease at the header's epoch is a decided
                    // transaction's — a kept, idle slot, or one whose
                    // release was cut short — and one ahead an
                    // undecided one's; an older lease means the owner
                    // has just claimed and not published its own yet.
                    let lease = self.read_word(h, ctx, off + 8)?;
                    if let Some(at) = stage(hdr, lease & 0xffff, 16) {
                        if expired((lease >> 16) & 0xffff_ffff) {
                            self.settle_slot(h, ctx, s, hdr, at)?;
                            self.count(|c| c.slots_scavenged += 1);
                        }
                    }
                }
            }
            Self::backoff(ctx, pass);
        }
        Err(TxnError::Conflict { validation: false })
    }

    /// The redo log of `writes` (`(rec, old version, padded payload)`
    /// each) as it sits in a slot from its count word on.
    fn encode_redo(&self, writes: &[(u64, u64, &[u8])]) -> Vec<u8> {
        let entry_sz = (16 + self.payload_p) as usize;
        let mut redo = vec![0u8; 8 + writes.len() * entry_sz];
        redo[..8].copy_from_slice(&(writes.len() as u64).to_le_bytes());
        for (j, (rec, old_v, payload)) in writes.iter().enumerate() {
            let e = &mut redo[8 + j * entry_sz..8 + (j + 1) * entry_sz];
            e[..8].copy_from_slice(&rec.to_le_bytes());
            e[8..16].copy_from_slice(&old_v.to_le_bytes());
            e[16..16 + payload.len()].copy_from_slice(payload);
        }
        redo
    }

    /// A committer's own abort, one chain: CAS the locks it holds
    /// (`(rec, old version)` each) back, then finalize the transaction
    /// `ABORTED` with a CAS from the header it started on, which keeps
    /// the slot for the next one. That CAS cannot fail against ourselves
    /// unless a scavenger beat us to it — either way the slot ends
    /// settled. Moving the slot on unread is safe here, unlike in
    /// recovery: this transaction never decided, so nobody rolls it
    /// forward, and every lock word it placed is in `locked` — whichever
    /// of them a recoverer already rolled back just fails its CAS.
    fn abort_own(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        (slot, from, expiry): (u16, u64, u64),
        locked: &[(u64, u64)],
    ) -> TxnResult<()> {
        let epoch = (from >> 4) + 1;
        let (off, lw) = (self.slot_off(slot), lock_word(slot, epoch, expiry));
        let cas = |off, expect, new| ChainOp::CmpSwap { off, expect, new };
        let mut ops: Vec<ChainOp> = locked
            .iter()
            .map(|&(rec, old_v)| cas(self.rec_off(rec), lw, old_v))
            .collect();
        let aborted = (epoch << 4) | S_ABORTED;
        ops.push(cas(off, from, aborted));
        let outs = h.lt_chain(ctx, self.lh, &ops)?;
        if old_values(&outs).last() == Some(from) {
            self.keep(slot, aborted, expiry);
        }
        Ok(())
    }

    /// Remembers the slot a transaction just kept, the header `left` it
    /// decided there and the lease (until `expiry`) it ran under. Nobody
    /// may take the slot before that lease is over, but the handle trusts
    /// it for the first half only: the next commit's redo and lease
    /// writes go out blind, and a claimer that starts them just inside
    /// the lease and lands them just past it would write over whoever
    /// scavenged the slot in between. Half a lease is the stall that
    /// takes.
    fn keep(&self, slot: u16, left: u64, expiry: u64) {
        let trusted_ms = expiry.saturating_sub(self.spec.lease_ms / 2);
        self.last_slot.set(Some((slot, left, trusted_ms)));
    }

    /// One finished transaction, into this handle's counters and — when
    /// armed — the serializability log.
    fn record_txn(
        &self,
        h: &LiteHandle,
        invoke: Nanos,
        response: Nanos,
        reads: &BTreeMap<u64, (u64, Vec<u8>)>,
        writes: &BTreeMap<u64, Vec<u8>>,
        outcome: TxnOutcome,
    ) {
        self.count(|c| match outcome {
            TxnOutcome::Committed => c.commits += 1,
            TxnOutcome::Aborted | TxnOutcome::Indeterminate => c.aborts += 1,
        });
        if let Some(log) = &self.log {
            log.record(TxnOp {
                proc: proc_id(h.node(), h.pid()),
                reads: reads
                    .iter()
                    .filter(|(r, _)| !writes.contains_key(r))
                    .map(|(&r, (_, p))| (r, fingerprint(p)))
                    .collect(),
                writes: writes.iter().map(|(&r, p)| (r, fingerprint(p))).collect(),
                outcome,
                invoke,
                response,
            });
        }
    }
}

/// One optimistic transaction: buffered consistent reads and locally
/// staged writes, atomically published by [`Txn::commit`].
pub struct Txn<'t> {
    table: &'t TxnTable,
    /// rec -> (version observed, payload observed).
    reads: BTreeMap<u64, (u64, Vec<u8>)>,
    /// rec -> staged payload (padded to the table's rounded width).
    writes: BTreeMap<u64, Vec<u8>>,
    invoke: Option<Nanos>,
}

impl Txn<'_> {
    /// Reads one record. Own staged writes are returned as-is
    /// (read-your-writes); otherwise the first read of a record takes a
    /// version-consistent snapshot that `commit` later re-validates.
    pub fn read(&mut self, h: &mut LiteHandle, ctx: &mut Ctx, rec: u64) -> TxnResult<Vec<u8>> {
        self.invoke.get_or_insert(ctx.now());
        if let Some(w) = self.writes.get(&rec) {
            let mut out = w.clone();
            out.truncate(self.table.spec.payload);
            return Ok(out);
        }
        if let Some((_, p)) = self.reads.get(&rec) {
            return Ok(p.clone());
        }
        let (v, payload) = self.table.snapshot_record(h, ctx, rec)?;
        self.reads.insert(rec, (v, payload.clone()));
        Ok(payload)
    }

    /// Stages one write; nothing is visible remotely until `commit`.
    pub fn write(&mut self, rec: u64, data: &[u8]) -> TxnResult<()> {
        if rec >= self.table.spec.records {
            return Err(TxnError::Invalid("record out of range"));
        }
        if data.len() > self.table.spec.payload {
            return Err(TxnError::Invalid("payload too large"));
        }
        let mut padded = vec![0u8; self.table.payload_p as usize];
        padded[..data.len()].copy_from_slice(data);
        self.writes.insert(rec, padded);
        Ok(())
    }

    /// Aborts explicitly: staged state is dropped, nothing was ever
    /// visible remotely.
    pub fn abort(self, h: &mut LiteHandle, ctx: &mut Ctx) {
        let invoke = self.invoke.unwrap_or_else(|| ctx.now());
        self.table.record_txn(
            h,
            invoke,
            ctx.now(),
            &self.reads,
            &self.writes,
            TxnOutcome::Aborted,
        );
        h.kernel().note_txn_abort(false);
    }

    /// Commits: locks the write set and validates the read set in one
    /// round trip, decides, applies and releases in a second. On
    /// [`TxnError::Conflict`] the transaction aborted cleanly (all locks
    /// unwound) and may simply be retried.
    pub fn commit(self, h: &mut LiteHandle, ctx: &mut Ctx) -> TxnResult<()> {
        self.commit_at(h, ctx, CrashPoint::None)
    }

    /// `commit` with a crash hook — the recovery-test surface. A fired
    /// hook abandons the protocol mid-flight exactly as a committer
    /// crash would; see [`CrashPoint`].
    pub fn commit_at(
        mut self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        crash: CrashPoint,
    ) -> TxnResult<()> {
        let t = self.table;
        let invoke = self.invoke.unwrap_or_else(|| ctx.now());
        let fail = |this: &Self, h: &mut LiteHandle, ctx: &mut Ctx, validation: bool| {
            t.record_txn(
                h,
                invoke,
                ctx.now(),
                &this.reads,
                &this.writes,
                TxnOutcome::Aborted,
            );
            h.kernel().note_txn_abort(validation);
            Err(TxnError::Conflict { validation })
        };

        // Reads not covered by a write lock are re-validated at commit.
        let validate: Vec<(u64, u64)> = self
            .reads
            .iter()
            .filter(|(rec, _)| !self.writes.contains_key(rec))
            .map(|(&rec, &(v, _))| (rec, v))
            .collect();
        let probes = validate.iter().map(|&(rec, _)| t.version_probe(rec));
        let still_valid = |seen: &[u64]| seen.iter().zip(&validate).all(|(s, (_, v))| s == v);

        // Read-only fast path: validate in one chain and return — no
        // slot, no locks.
        if self.writes.is_empty() {
            let outs = h.lt_chain(ctx, t.lh, &probes.collect::<Vec<_>>())?;
            if !still_valid(&old_values(&outs).collect::<Vec<_>>()) {
                return fail(&self, h, ctx, true);
            }
            t.record_txn(
                h,
                invoke,
                ctx.now(),
                &self.reads,
                &self.writes,
                TxnOutcome::Committed,
            );
            h.kernel().note_txn_commit();
            return Ok(());
        }
        if self.writes.len() > t.spec.max_writes {
            return Err(TxnError::Invalid("write set exceeds table max_writes"));
        }

        // Every write record needs a base version for its lock CAS;
        // blind writes fetch one now.
        let blind: Vec<u64> = self
            .writes
            .keys()
            .filter(|r| !self.reads.contains_key(r))
            .copied()
            .collect();
        for rec in blind {
            let (v, payload) = t.snapshot_record(h, ctx, rec)?;
            self.reads.insert(rec, (v, payload));
        }

        // Ascending record order (the write set is a BTreeMap).
        let write_list: Vec<(u64, u64, &[u8])> = self
            .writes
            .iter()
            .map(|(&rec, p)| (rec, self.reads[&rec].0, p.as_slice()))
            .collect();
        let w = write_list.len();
        let (slot, from) = match t.claim_slot(h, ctx) {
            Ok(sh) => sh,
            Err(TxnError::Conflict { .. }) => return fail(&self, h, ctx, false),
            Err(e) => return Err(e),
        };
        // This transaction runs at the epoch after the header in hand, and
        // deciding moves the header there.
        let epoch = (from >> 4) + 1;
        // The lease runs from here, not from before a claim that may have
        // waited for a slot.
        let expiry = (lease_ms() + t.spec.lease_ms) & 0xffff_ffff;
        let own = (slot, from, expiry);
        let lw = lock_word(slot, epoch, expiry);
        let slot_off = t.slot_off(slot);
        let cas = |off, expect, new| ChainOp::CmpSwap { off, expect, new };

        // Publish redo then lease, lock the write set, validate the read
        // set: one chain.
        let redo = t.encode_redo(&write_list);
        let lease = ((expiry << 16) | (epoch & 0xffff)).to_le_bytes();
        let mut ops = vec![
            ChainOp::Write {
                off: slot_off + 16,
                data: &redo,
            },
            ChainOp::Write {
                off: slot_off + 8,
                data: &lease,
            },
        ];
        ops.extend(
            write_list
                .iter()
                .map(|&(rec, old_v, _)| cas(t.rec_off(rec), old_v, lw)),
        );
        ops.extend(probes);
        let outs = h.lt_chain(ctx, t.lh, &ops)?;
        let seen: Vec<u64> = old_values(&outs).collect();
        let (lock_seen, read_seen) = seen.split_at(w);
        let locked: Vec<(u64, u64)> = write_list
            .iter()
            .zip(lock_seen)
            .filter(|((_, old_v, _), cur)| old_v == *cur)
            .map(|(&(rec, old_v, _), _)| (rec, old_v))
            .collect();
        if locked.len() < w {
            // Lost at least one lock: give back the ones that won and
            // abort. Never wait while holding a later lock — that is
            // what keeps ascending-order locking deadlock-free. What the
            // validation probes saw is moot.
            t.abort_own(h, ctx, own, &locked)?;
            for &cur in lock_seen {
                if is_locked(cur) && lock_expired(cur) {
                    // A dead committer's lock: settle it now, so the
                    // retry does not run into it again.
                    t.recover_from_lock(h, ctx, cur)?;
                }
            }
            return fail(&self, h, ctx, false);
        }
        if crash == CrashPoint::AfterLock {
            return self.vanish(h, ctx, invoke);
        }
        if !still_valid(read_seen) {
            t.abort_own(h, ctx, own, &locked)?;
            return fail(&self, h, ctx, true);
        }

        // Decide, apply, release: one chain. Its first op is the commit
        // point, one CAS on the decision slot from the header in hand,
        // and the header it leaves is the one the next transaction here
        // decides from; nothing behind it waits for its outcome, which is
        // read from the results below. A crash hook posts the prefix up
        // to the hook and vanishes.
        // The releases are plain writes of `old + 2` over our own lock
        // words, posted after *every* payload write: the responder
        // executes a chain in order, so whoever sees a new version sees
        // the payload under it. Blind like the payload writes, and safe
        // for the same reason — the lease check below, which is also what
        // keeps a scavenger from deciding in our place. The decide is the
        // chain's only atomic and its first op, so a lost ack resumes at
        // it, ahead of every write, and re-lands nothing.
        let released: Vec<[u8; 8]> = write_list
            .iter()
            .map(|&(_, old_v, _)| old_v.wrapping_add(2).to_le_bytes())
            .collect();
        let payloads = write_list.iter().map(|&(rec, _, data)| ChainOp::Write {
            off: t.rec_off(rec) + 8,
            data,
        });
        let versions = write_list
            .iter()
            .zip(&released)
            .map(|(&(rec, ..), data)| ChainOp::Write {
                off: t.rec_off(rec),
                data,
            });
        let committed = (epoch << 4) | S_COMMITTED;
        let mut ops = vec![cas(slot_off, from, committed)];
        ops.extend(payloads.chain(versions));
        let cut = match crash {
            CrashPoint::AfterDecide => Some(1),
            CrashPoint::MidApply if w > 1 => Some(2),
            CrashPoint::MidRelease if w > 1 => Some(w + 2),
            _ => None,
        };
        ops.truncate(cut.unwrap_or(ops.len()));
        // Once our own lease is expired we must stop touching the table
        // (recovery may already be settling us) and report indeterminate.
        if expired(expiry) {
            return self.vanish(h, ctx, invoke);
        }
        let outs = h.lt_chain(ctx, t.lh, &ops)?;
        // A decide that lost did so to a scavenger, inside the window
        // between the check above and the chain executing: the writes
        // behind it went out all the same, so the outcome is recovery's
        // to tell, not a clean conflict.
        if cut.is_some() || old_values(&outs).next() != Some(from) {
            return self.vanish(h, ctx, invoke);
        }
        // The whole chain has completed: no lock word of this epoch is
        // out, so the header we left is the next transaction's to decide
        // from.
        t.keep(slot, committed, expiry);

        t.record_txn(
            h,
            invoke,
            ctx.now(),
            &self.reads,
            &self.writes,
            TxnOutcome::Committed,
        );
        h.kernel().note_txn_commit();
        Ok(())
    }

    /// The crash/lease-loss exit: record an indeterminate outcome and
    /// abandon the protocol without unwinding anything.
    fn vanish(self, h: &mut LiteHandle, ctx: &mut Ctx, invoke: Nanos) -> TxnResult<()> {
        self.table.record_txn(
            h,
            invoke,
            ctx.now(),
            &self.reads,
            &self.writes,
            TxnOutcome::Indeterminate,
        );
        h.kernel().note_txn_abort(false);
        Err(TxnError::Indeterminate)
    }
}

/// Runs `body` (build + commit one transaction) with bounded retries on
/// clean conflicts — the standard OCC loop. Indeterminate and invalid
/// outcomes surface immediately.
pub fn with_txn_retry<T>(
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    mut attempts: u32,
    mut body: impl FnMut(&mut LiteHandle, &mut Ctx) -> TxnResult<T>,
) -> TxnResult<T> {
    let mut attempt = 0u32;
    loop {
        match body(h, ctx) {
            Err(TxnError::Conflict { .. }) if attempts > 1 => {
                attempts -= 1;
                TxnTable::backoff(ctx, attempt);
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn start_slots_spread_over_the_ring() {
        // The old linear hash `(node * 31 + pid) % 32` sends (n, p) and
        // (n + 1, p + 1) to one slot; 12 neighbouring handles must not
        // pile up like that.
        let starts: BTreeSet<u16> = (0..3)
            .flat_map(|node| (1..=4).map(move |pid| start_slot(node, pid, 32)))
            .collect();
        assert!(starts.len() >= 10, "{starts:?}");
        assert!(starts.iter().all(|&s| s < 32));
    }
}

//! `lite::mm` — per-node memory tiering for LMR chunks.
//!
//! The paper's §4 indirection argument is that opaque `lh` handles free
//! the kernel to move, evict, and swap LMR chunks without application
//! involvement. This module is that freedom exercised: a per-node memory
//! manager that enforces a physical-memory budget
//! ([`crate::LiteConfig::mem_budget_bytes`]), tracks chunk temperature
//! with an LRU ([`simnet::Lru`]), evicts cold chunks of locally-mastered
//! LMRs to swap nodes over the existing datapath, transparently redirects
//! or faults accesses that land on evicted chunks (NP-RDMA's on-demand
//! materialization + RDMAbox's remote paging, folded into LITE).
//!
//! # Residency state machine
//!
//! Every tracked *segment* (one physically-consecutive piece of an LMR,
//! initially 1:1 with its allocation chunks) is in one of four states:
//!
//! ```text
//!              claim                commit
//!   Resident ────────▶ Migrating ────────▶ Remote     out, to a swap node
//!    ▲    │  ◀────────     ▲     ◀────────            home, the same protocol
//!    │    │    commit      │       claim
//!    │    ▼ bg unpin       │ claim (out)
//!   Unpinned ──────────────┘       (an abort restores the claimed state)
//!    first-touch fault: pin() pins the touched pages
//! ```
//!
//! # Migration protocol
//!
//! Eviction and fetch-back are one protocol ([`migrate_one`]) whose
//! direction is its `to` argument — a swap node, or home: claim the
//! segment, drain its pins, land space at `to`, fence the landing range
//! there with staged `Migrating` entries, copy, point the master record
//! at the landing, retire the source slot to a `Moved` tombstone, swap
//! the staged segments in for the old one (a migration *replaces* a
//! segment; its address and host never change), free the source, tell
//! the mappers. The source's manager and the master's are locked one
//! after the other, never both. `Migrating` fences new accesses (pins
//! wait); in-flight accesses hold a pin that the migrator drains before
//! moving bytes. Because one-sided op effects apply synchronously during
//! `post()`, a pin held across stage+post is a sound fence. A
//! migrated-away range leaves a `Moved` tombstone in the address map, so
//! accesses through a stale cached location observe
//! [`crate::LiteError::Relocated`] and the API layer re-fetches the
//! mapping from the master and retries.
//!
//! `Unpinned` is the pin-free registration tier
//! ([`crate::LiteConfig::lazy_pinning`], NP-RDMA's first-touch model):
//! the bytes are home but their pages hold no pin — registration was
//! O(1). The first access faults the touched pages in (the datapath
//! charges the NIC page-fault cost) and promotes the segment to
//! `Resident`; the unpinner demotes cold, pin-free segments back to
//! `Unpinned`, releasing their page pins. Eviction may start from either
//! tier — `Unpinned` segments are the cheapest victims. It does not fold
//! into `Resident`: it is the one bit that lets the background unpinner
//! skip segments it already released instead of re-walking their pages
//! every epoch.
//!
//! Budget is policy, not capacity: allocation never fails because of the
//! budget, so forward progress is guaranteed even when eviction cannot
//! keep up (swap nodes dead, pins never draining).
//!
//! # Who migrates
//!
//! No thread (DESIGN.md §11): the LITE call that made migrations due
//! runs the node's [`Migrator`] on its way out ([`MemManager::poke`]),
//! an [`MmRequest`]'s caller runs it, and the touch that moves the
//! virtual unpin epoch on walks the cold segments.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use rnic::NodeId;
use simnet::wait::{Deadline, Event};
use simnet::{Ctx, Lru, Nanos};
use smem::Chunk;

use crate::api::LiteHandle;
use crate::config::LiteConfig;
use crate::directory::ClusterDirectory;
use crate::error::{LiteError, LiteResult};
use crate::kernel::datapath::Op;
use crate::kernel::LiteKernel;
use crate::lmr::{LmrId, Location};
use crate::observe::LatencySummary;
use crate::qos::Priority;

/// How long a migrator waits for in-flight pins to drain before giving
/// up on this attempt (the segment reverts to its previous state).
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// How long an access waits on a `Migrating` segment before reporting
/// `Relocated` and letting the API refresh-retry.
const PIN_DEADLINE: Duration = Duration::from_secs(2);

/// Remote map-faults on an evicted LMR after which the manager pulls its
/// chunks home (fetch-back), budget permitting.
pub const FETCH_BACK_FAULTS: u32 = 3;

/// Virtual nanoseconds in one unpin epoch: a segment untouched for a
/// whole epoch is cold, and the lazy unpinner releases its pages.
pub const EPOCH_NS: Nanos = 1_000_000;

/// Track at most this many segments in the recency list; beyond it the
/// LRU sheds recency info (victim selection falls back to map order).
const LRU_CAPACITY: usize = 65_536;

// Residency of one tracked segment, from its master node's view.
/// Bytes live on the master node, pages pinned.
const R_RESIDENT: u8 = 0;
/// A migration (either direction) is draining pins and copying.
const R_MIGRATING: u8 = 1;
/// Bytes live on a swap node (the segment's host).
const R_REMOTE: u8 = 2;
/// Bytes are home but their pages hold no pin (lazy mode): the next
/// access faults them in; the unpinner parks cold segments here.
const R_UNPINNED: u8 = 3;
/// A migration replaced the segment (the source of a commit) or rolled it
/// back (a stage): it is in no map, and a pin that waited on it looks its
/// range up again.
const R_RETIRED: u8 = 4;

/// Logical identity of a segment: which LMR, at which byte offset.
/// Stable across migration — the physical address changes, the key does
/// not, which is what keeps linearizability histories joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegKey {
    /// Owning LMR.
    pub id: LmrId,
    /// Byte offset of the segment within the LMR.
    pub off: u64,
}

/// One tracked physically-consecutive piece of an LMR. Shared (`Arc`)
/// between the master node's logical table and whichever node currently
/// hosts the bytes, so pins taken at the host fence the master's
/// migrations too.
pub struct Segment {
    key: SegKey,
    len: u64,
    /// Physical address of the bytes on `host`. Never changes: a
    /// migration replaces the segment with new ones at the landing.
    addr: u64,
    /// Node the bytes live on.
    host: NodeId,
    residency: AtomicU8,
    /// In-flight accesses through this segment (API-layer fencing).
    pins: AtomicU32,
    /// Set when the owning LMR is unregistered (free / move / record
    /// takeover) or its storage freed while a migration may be in
    /// flight: the migrator re-checks it under the state lock and rolls
    /// back instead of committing segments of a dead LMR.
    dead: AtomicBool,
    /// Woken when a migration of this segment ends and when its last pin
    /// goes: what pins waiting out a migration and a migrator draining
    /// pins park on.
    changed: Event,
    /// Unpin epoch of the last access (unpinner input: a segment
    /// untouched for a full epoch is cold enough to unpin).
    last_touch: AtomicU64,
    /// The latest virtual stamp a pin was taken at, and the one the
    /// bytes landed at (0 when registered): a migration starts no earlier
    /// than the first, and an access joins the second (DESIGN.md §11).
    touched: AtomicU64,
    landed: AtomicU64,
}

impl Segment {
    fn new(key: SegKey, len: u64, addr: u64, host: NodeId, residency: u8) -> Self {
        Segment {
            key,
            len,
            addr,
            host,
            residency: AtomicU8::new(residency),
            pins: AtomicU32::new(0),
            dead: AtomicBool::new(false),
            changed: Event::default(),
            last_touch: AtomicU64::new(0),
            touched: AtomicU64::new(0),
            landed: AtomicU64::new(0),
        }
    }

    /// Stores the residency a migration leaves the segment in, and wakes
    /// the pins that waited for it to end.
    fn settle(&self, residency: u8) {
        self.residency.store(residency, Ordering::SeqCst);
        self.changed.wake();
    }

    /// Drops one pin; the last one wakes a migrator draining them.
    fn unpin(&self) {
        if self.pins.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.changed.wake();
        }
    }
}

/// A held pin: the segment cannot migrate until this drops.
pub struct PinGuard {
    seg: Arc<Segment>,
}

impl PinGuard {
    /// The virtual stamp the pinned bytes landed at.
    pub(crate) fn landed(&self) -> Nanos {
        self.seg.landed.load(Ordering::SeqCst)
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.seg.unpin();
    }
}

/// Outcome of fencing one physical access range.
pub enum PinOutcome {
    /// The range is not managed by this node's manager — proceed.
    Untracked,
    /// Pinned; hold the guard across the access. The count is the pages
    /// the access faulted in (lazy mode's first-touch pins), for the
    /// caller to charge the NIC page-fault cost in virtual time.
    Pinned(PinGuard, usize),
    /// The range was migrated (tombstone), is mid-migration past the
    /// wait deadline, or belongs to a different LMR than expected —
    /// the caller's cached location is stale.
    Relocated,
}

/// One entry of the per-node physical address map.
enum Slot {
    /// A tracked segment whose bytes live here.
    Entry(Arc<Segment>),
    /// Bytes moved away; the range was freed. Kept as a tombstone so
    /// stale cached locations fault instead of touching recycled memory;
    /// scrubbed when the range is re-registered or re-freed.
    Moved(u64),
}

impl Slot {
    fn len(&self) -> u64 {
        match self {
            Slot::Entry(s) => s.len,
            Slot::Moved(len) => *len,
        }
    }
}

/// An explicit migration, run on the caller ([`MemManager::request`]).
#[derive(Debug, Clone, Copy)]
pub enum MmRequest {
    /// Evict the segment of LMR `idx` containing byte `off`
    /// (`off == u64::MAX`: every resident segment of the LMR).
    Evict {
        /// Local master-table index.
        idx: u32,
        /// Byte offset within the LMR.
        off: u64,
    },
    /// Fetch every remote segment of LMR `idx` back home.
    FetchBack {
        /// Local master-table index.
        idx: u32,
    },
}

struct MmState {
    /// Local physical space: segments hosted here (ours or foreign) and
    /// tombstones of ranges migrated away.
    by_addr: BTreeMap<u64, Slot>,
    /// Logical segments of locally-mastered LMRs (resident or remote).
    segs: HashMap<SegKey, Arc<Segment>>,
    /// Recency over locally-resident owned segments.
    lru: Lru<SegKey, ()>,
    /// Remote map-faults per locally-mastered LMR (fetch-back trigger).
    faults: HashMap<u32, u32>,
    resident_bytes: u64,
    evicted_bytes: u64,
    hosted_bytes: u64,
}

impl MmState {
    /// The slot covering `addr`, with its start address.
    fn covering(&self, addr: u64) -> Option<(u64, &Slot)> {
        let (&start, slot) = self.by_addr.range(..=addr).next_back()?;
        (addr < start + slot.len()).then_some((start, slot))
    }

    /// Removes tombstones overlapping `[addr, addr+len)` so a fresh
    /// registration owns the range (ABA closure: a tombstone only
    /// survives until something tracked reclaims the space).
    fn scrub_moved(&mut self, addr: u64, len: u64) {
        let doomed: Vec<u64> = self
            .by_addr
            .range(..addr + len)
            .rev()
            .take_while(|(&s, slot)| s + slot.len() > addr)
            .filter(|(_, slot)| matches!(slot, Slot::Moved(_)))
            .map(|(&s, _)| s)
            .collect();
        for s in doomed {
            self.by_addr.remove(&s);
        }
    }
}

/// The per-node memory manager. Created disabled (budget 0) unless the
/// config sets a budget; a disabled manager tracks nothing and its hot
/// path hooks return immediately — the ablation baseline.
pub struct MemManager {
    node: NodeId,
    nodes: usize,
    budget: u64,
    /// Pin-free registration ([`crate::LiteConfig::lazy_pinning`]).
    lazy: bool,
    next_swap: AtomicUsize,
    state: Mutex<MmState>,
    /// Weak: the migrator's handle holds this node's kernel.
    migrator: Mutex<Weak<Migrator>>,
    /// Migrations claimed and not yet ended, and how many have ended.
    in_flight: AtomicU32,
    ended: AtomicU64,
    /// Woken when a migration ends, however it went.
    pub(crate) migrated: Event,
    evictions: AtomicU64,
    fetch_backs: AtomicU64,
    migrator_runs: AtomicU64,
    redirects: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Page-granular pin accounting for tracked ranges on this node.
    pins: smem::PinTable,
    /// Unpin epoch: the highest `clock / EPOCH_NS` a toucher has shown
    /// (cold detection input).
    epoch: AtomicU64,
    first_touch_faults: AtomicU64,
    bg_unpins: AtomicU64,
}

impl MemManager {
    /// Creates the manager for `node` in a cluster of `nodes` nodes.
    pub(crate) fn new(node: NodeId, nodes: usize, config: &LiteConfig) -> Self {
        MemManager {
            node,
            nodes,
            budget: config.mem_budget_bytes,
            lazy: config.lazy_pinning,
            next_swap: AtomicUsize::new(0),
            state: Mutex::new(MmState {
                by_addr: BTreeMap::new(),
                segs: HashMap::new(),
                lru: Lru::new(LRU_CAPACITY),
                faults: HashMap::new(),
                resident_bytes: 0,
                evicted_bytes: 0,
                hosted_bytes: 0,
            }),
            migrator: Mutex::new(Weak::new()),
            in_flight: AtomicU32::new(0),
            ended: AtomicU64::new(0),
            migrated: Event::default(),
            evictions: AtomicU64::new(0),
            fetch_backs: AtomicU64::new(0),
            migrator_runs: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            pins: smem::PinTable::new(),
            epoch: AtomicU64::new(0),
            first_touch_faults: AtomicU64::new(0),
            bg_unpins: AtomicU64::new(0),
        }
    }

    /// Whether this manager tracks segments at all: tiering (budget) or
    /// pin-free registration (lazy) — either needs the residency machine
    /// and a migrator.
    pub fn tracking(&self) -> bool {
        self.budget > 0 || self.lazy
    }

    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Registration (master-record lifecycle hooks)
    // ------------------------------------------------------------------

    /// Tracks the locally-resident extents of a freshly created
    /// locally-mastered LMR. Remote extents (cross-node LMRs) stay
    /// untracked, exactly as before this module existed.
    pub(crate) fn register(&self, id: LmrId, location: &Location) {
        if !self.tracking() || id.node as NodeId != self.node {
            return;
        }
        // Lazy mode registers pin-free: segments start Unpinned and the
        // datapath faults their pages in on first touch. Eager mode pins
        // the whole extent now (the Figure 8 register-time cost).
        let residency = if self.lazy { R_UNPINNED } else { R_RESIDENT };
        let epoch = self.current_epoch();
        let mut st = self.state.lock();
        let mut off = 0u64;
        for (node, c) in &location.extents {
            if *node == self.node && c.len > 0 {
                let key = SegKey { id, off };
                let seg = Arc::new(Segment::new(key, c.len, c.addr, self.node, residency));
                seg.last_touch.store(epoch, Ordering::Relaxed);
                if !self.lazy {
                    self.pins.fault_in(c.addr, c.len);
                }
                st.scrub_moved(c.addr, c.len);
                st.by_addr.insert(c.addr, Slot::Entry(Arc::clone(&seg)));
                st.segs.insert(key, seg);
                st.lru.insert(key, ());
                st.resident_bytes += c.len;
            }
            off += c.len;
        }
    }

    /// Drops every segment of LMR `idx` (free / move / record takeover).
    /// Hosted copies at other nodes are cleaned up by the `FN_FREE_CHUNKS`
    /// traffic that accompanies the free/move.
    pub(crate) fn unregister_lmr(&self, idx: u32) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        let keys: Vec<SegKey> = st
            .segs
            .keys()
            .filter(|k| k.id.idx == idx && k.id.node as NodeId == self.node)
            .copied()
            .collect();
        for key in keys {
            let Some(seg) = st.segs.remove(&key) else {
                continue;
            };
            seg.dead.store(true, Ordering::Release);
            st.lru.remove(&key);
            if seg.host == self.node {
                if matches!(st.by_addr.get(&seg.addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, &seg))
                {
                    st.by_addr.remove(&seg.addr);
                }
                self.pins.unpin_all(seg.addr, seg.len);
                st.resident_bytes = st.resident_bytes.saturating_sub(seg.len);
            } else {
                st.evicted_bytes = st.evicted_bytes.saturating_sub(seg.len);
            }
        }
        st.faults.remove(&idx);
    }

    /// A chunk at `addr` was freed through the allocator service. Drops
    /// the segment that covered it but leaves a `Moved` tombstone in its
    /// place (and keeps an existing one): the freed range is exactly
    /// where a stale mapper view may still point, and removing the slot
    /// would let that view pin `Untracked` — no fence at all — and post
    /// into recycled memory. The tombstone bounces it `Relocated` into a
    /// refresh instead, and is scrubbed when the range is next handed
    /// out (`on_alloc` / `register` / the migration stages).
    pub(crate) fn on_free(&self, addr: u64) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        let Some(Slot::Entry(seg)) = st.by_addr.get(&addr) else {
            return;
        };
        let seg = Arc::clone(seg);
        st.by_addr.insert(addr, Slot::Moved(seg.len));
        seg.dead.store(true, Ordering::Release);
        self.pins.unpin_all(addr, seg.len);
        if seg.key.id.node as NodeId == self.node {
            let key = seg.key;
            // A staged landing (mid-migration) lives in by_addr only:
            // it never counted toward resident_bytes and must not
            // decrement it — or evict a committed segment that happens
            // to share its key.
            if matches!(st.segs.get(&key), Some(e) if Arc::ptr_eq(e, &seg)) {
                st.resident_bytes = st.resident_bytes.saturating_sub(seg.len);
                st.segs.remove(&key);
                st.lru.remove(&key);
            }
        } else {
            st.hosted_bytes = st.hosted_bytes.saturating_sub(seg.len);
        }
    }

    /// Chunks at these addresses were just handed out by the local
    /// allocator service (`FN_MALLOC`): scrub any `Moved` tombstones
    /// they cover, since the range now has a fresh owner (ABA closure
    /// for ranges that are never `register()`ed here, e.g. cross-node
    /// LMR storage).
    pub(crate) fn on_alloc(&self, chunks: &[Chunk]) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        for c in chunks {
            st.scrub_moved(c.addr, c.len);
        }
    }

    // ------------------------------------------------------------------
    // Hot-path hooks (datapath / API)
    // ------------------------------------------------------------------

    /// Records one access at `addr` by a thread whose clock reads `now`:
    /// advances the unpin epoch to `now`'s (lazy mode), promotes the
    /// covering segment in the LRU and stamps it with the epoch.
    pub(crate) fn touch(&self, addr: u64, now: Nanos) {
        if !self.tracking() {
            return;
        }
        if self.lazy {
            self.advance_epoch(now);
        }
        let mut st = self.state.lock();
        let Some((_, slot)) = st.covering(addr) else {
            return;
        };
        let Slot::Entry(seg) = slot else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let seg = Arc::clone(seg);
        seg.last_touch
            .store(self.current_epoch(), Ordering::Relaxed);
        if seg.key.id.node as NodeId == self.node {
            st.lru.touch(&seg.key);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fences an access to `[addr, addr+len)` that the caller, at clock
    /// `now`, believes belongs to LMR `id` at byte offset `lmr_off`,
    /// waiting out a migration in progress. Verifying the identity closes
    /// the ABA window where the range was freed and recycled for a
    /// different tracked LMR.
    pub(crate) fn pin(
        &self,
        addr: u64,
        len: u64,
        (id, lmr_off): (LmrId, u64),
        now: Nanos,
    ) -> PinOutcome {
        let pinned = self.pin_range(addr, len, Some((id, lmr_off)), true);
        if let PinOutcome::Pinned(g, _) = &pinned {
            g.seg.touched.fetch_max(now, Ordering::SeqCst);
        }
        pinned
    }

    /// Fences a raw physical range (kernel services that operate on raw
    /// addresses, e.g. `FN_MEMSET`): no identity expectation, and no
    /// waiting — these run holding their node's dispatcher, even on a
    /// thread that is mid-migration, and must never block; so a
    /// mid-migration range answers `Relocated` immediately and the caller
    /// retries after a refresh.
    pub(crate) fn pin_raw_nowait(&self, addr: u64, len: u64) -> PinOutcome {
        self.pin_range(addr, len, None, false)
    }

    fn pin_range(
        &self,
        addr: u64,
        len: u64,
        expect: Option<(LmrId, u64)>,
        wait: bool,
    ) -> PinOutcome {
        if !self.tracking() {
            return PinOutcome::Untracked;
        }
        // Taken on the first pass that has to wait: only a pin that
        // finds a migration in progress reads the host clock.
        let mut deadline = None;
        loop {
            let seg = {
                let st = self.state.lock();
                let Some((start, slot)) = st.covering(addr) else {
                    return PinOutcome::Untracked;
                };
                let Slot::Entry(seg) = slot else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.redirects.fetch_add(1, Ordering::Relaxed);
                    return PinOutcome::Relocated;
                };
                if addr + len > start + seg.len {
                    // Straddles out of the tracked range — stale view.
                    self.redirects.fetch_add(1, Ordering::Relaxed);
                    return PinOutcome::Relocated;
                }
                if let Some((id, lmr_off)) = expect {
                    let actual_off = seg.key.off + (addr - start);
                    if seg.key.id != id || actual_off != lmr_off {
                        self.redirects.fetch_add(1, Ordering::Relaxed);
                        return PinOutcome::Relocated;
                    }
                }
                match seg.residency.load(Ordering::Acquire) {
                    R_MIGRATING => Arc::clone(seg), // wait below, lock released
                    r => {
                        // Lazy mode: fault the touched pages in (only the
                        // ones not yet resident) and promote an Unpinned
                        // segment. Done under the state lock, so the
                        // background unpinner (which also holds it) can
                        // never unpin between fault-in and the pin.
                        let mut faulted = 0;
                        if self.lazy {
                            faulted = self.pins.fault_in(addr, len);
                            if faulted > 0 {
                                self.first_touch_faults
                                    .fetch_add(faulted as u64, Ordering::Relaxed);
                            }
                            if r == R_UNPINNED {
                                seg.residency.store(R_RESIDENT, Ordering::Release);
                            }
                        }
                        seg.last_touch
                            .store(self.current_epoch(), Ordering::Relaxed);
                        seg.pins.fetch_add(1, Ordering::SeqCst);
                        // Our state lock only serializes against claims
                        // on segments WE master. A hosted copy is the
                        // origin's Arc: its migration claim runs under
                        // the origin's lock, so it can land between the
                        // residency read above and the increment — with
                        // its pin drain reading zero in that window and
                        // migrating under a live pin. Publish the pin
                        // first, then re-validate; both sides are SeqCst
                        // RMW-then-load, so at least one observes the
                        // other (see drain_pins).
                        let seg = Arc::clone(seg);
                        if seg.residency.load(Ordering::SeqCst) != R_MIGRATING {
                            return PinOutcome::Pinned(PinGuard { seg }, faulted);
                        }
                        // Lost to a claim: wait below, lock released.
                        seg.unpin();
                        seg
                    }
                }
            };
            let deadline = *deadline.get_or_insert_with(|| Deadline::after(PIN_DEADLINE));
            let ended = || seg.residency.load(Ordering::SeqCst) != R_MIGRATING;
            if !wait || !seg.changed.park_until(ended, deadline) {
                self.redirects.fetch_add(1, Ordering::Relaxed);
                return PinOutcome::Relocated;
            }
        }
    }

    /// Whether byte `off` of LMR `id`, mastered here, is tracked: then a
    /// piece of it that pins `Untracked` where it is stored was read from
    /// a stale location whose range the storage node has handed out
    /// again (its tombstone scrubbed, the new owner not yet staged).
    pub(crate) fn tracks(&self, id: LmrId, off: u64) -> bool {
        let covers = |s: &&Arc<Segment>| s.key.off <= off && off < s.key.off + s.len;
        id.node as NodeId == self.node
            && self.state.lock().segs.values().filter(|s| s.key.id == id).any(|s| covers(&s))
    }

    /// The logical identity of the byte at `addr`, if tracked: the
    /// owning LMR and the byte's offset within it. Used to key atomic
    /// histories by logical location so they survive migration.
    pub(crate) fn logical_cell(&self, addr: u64) -> Option<(LmrId, u64)> {
        if !self.tracking() {
            return None;
        }
        let st = self.state.lock();
        let (start, slot) = st.covering(addr)?;
        match slot {
            Slot::Entry(seg) => Some((seg.key.id, seg.key.off + (addr - start))),
            Slot::Moved(_) => None,
        }
    }

    /// Counts one remote map-fault on locally-mastered LMR `idx` (a
    /// mapper re-fetched a location with remote extents). Runs in the
    /// `FN_MAP` handler, which never migrates: the mapper whose fault
    /// crossed [`FETCH_BACK_FAULTS`] runs the fetch-back ([`Self::poke`]).
    pub(crate) fn note_map_fault(&self, idx: u32) {
        if !self.tracking() {
            return;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        *self.state.lock().faults.entry(idx).or_insert(0) += 1;
    }

    // ------------------------------------------------------------------
    // Requests and gauges
    // ------------------------------------------------------------------

    /// Runs `req` on the calling thread, which must hold nothing and be
    /// in no `lt_*` call: it waits for a migrator another thread holds.
    pub fn request(&self, req: MmRequest) {
        let Some(migrator) = self.migrator() else {
            return;
        };
        let (idx, off, out) = match req {
            MmRequest::Evict { idx, off } => (idx, off, true),
            MmRequest::FetchBack { idx } => (idx, u64::MAX, false),
        };
        let mut clock = migrator.clock.lock();
        let Clock { ctx, h } = &mut *clock;
        migrate_lmr(&Arc::clone(h.kernel()), ctx, h, idx, off, out);
        drop(clock);
        // Work noted while the request held the migrator.
        migrator.run();
    }

    /// Notes the migrations a thread in an `lt_*` call, at clock `now`,
    /// made due here (pressure, or a fetch-back its map-fault called
    /// for); it runs them on its way out of the outermost call.
    pub(crate) fn poke(&self, now: Nanos) {
        if !self.tracking() || !self.has_work() {
            return;
        }
        if let Some(migrator) = self.migrator() {
            migrator.due.fetch_max(now, Ordering::SeqCst);
            migrator.noted.store(true, Ordering::SeqCst);
            crate::kernel::serve::defer_migration(migrator);
        }
    }

    fn migrator(&self) -> Option<Arc<Migrator>> {
        self.tracking().then(|| self.migrator.lock().upgrade())?
    }

    /// Bytes over the budget, or an LMR to fetch back.
    fn has_work(&self) -> bool {
        self.budget > 0 && (self.pressure() > 0 || !self.fetch_back_candidates(false).is_empty())
    }

    /// Parks until no migration is in flight or one that was ends, or
    /// `deadline` passes: what an access that lost to a migration
    /// (`Relocated`) waits out before it refreshes its location.
    pub(crate) fn wait_migrations(&self, deadline: Deadline) {
        let seen = self.ended.load(Ordering::SeqCst);
        let ended = || {
            self.in_flight.load(Ordering::SeqCst) == 0 || self.ended.load(Ordering::SeqCst) != seen
        };
        self.migrated.park_until(ended, deadline);
    }

    /// Memory-tiering gauges (folded into [`crate::StatsReport`]). The
    /// two latency summaries are empty here: they live in the ledgers of
    /// the contexts that took them, and [`LiteKernel::mm_stats`] folds
    /// them in.
    pub fn stats(&self) -> MmReport {
        let (resident_bytes, evicted_bytes, hosted_bytes, resident_chunks, evicted_chunks) = {
            let st = self.state.lock();
            let evicted = st.segs.values().filter(|s| s.host != self.node).count();
            (
                st.resident_bytes,
                st.evicted_bytes,
                st.hosted_bytes,
                st.segs.len() - evicted,
                evicted,
            )
        };
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        MmReport {
            enabled: self.budget > 0,
            lazy: self.lazy,
            budget_bytes: self.budget,
            resident_bytes,
            evicted_bytes,
            hosted_bytes,
            resident_chunks,
            evicted_chunks,
            evictions: self.evictions.load(Ordering::Relaxed),
            fetch_backs: self.fetch_backs.load(Ordering::Acquire),
            migrator_runs: self.migrator_runs.load(Ordering::Relaxed),
            redirects: self.redirects.load(Ordering::Relaxed),
            lru_hits: hits,
            lru_misses: misses,
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            pinned_pages: self.pins.pinned_pages(),
            first_touch_faults: self.first_touch_faults.load(Ordering::Relaxed),
            bg_unpins: self.bg_unpins.load(Ordering::Relaxed),
            // Recorded in the ledgers of the contexts that migrate and
            // register; `LiteKernel::mm_stats` folds them in.
            fetch_back_lat: LatencySummary::default(),
            reg_lat: LatencySummary::default(),
        }
    }

    // ------------------------------------------------------------------
    // Victim / target selection
    // ------------------------------------------------------------------

    /// Bytes of locally-resident tracked segments over the budget.
    /// Always zero without a budget (lazy-only mode must not evict).
    fn pressure(&self) -> u64 {
        if self.budget == 0 {
            return 0;
        }
        self.state.lock().resident_bytes.saturating_sub(self.budget)
    }

    /// The coldest locally-resident segment (LRU order, falling back to
    /// map order for segments the LRU shed). Unpinned segments qualify —
    /// they are the cheapest victims (no pages to release).
    fn pick_victim(&self) -> Option<SegKey> {
        let st = self.state.lock();
        let resident = |key: &SegKey| {
            st.segs.get(key).is_some_and(|s| {
                matches!(s.residency.load(Ordering::Acquire), R_RESIDENT | R_UNPINNED)
            })
        };
        let mut coldest_first = st.lru.iter_lru().chain(st.segs.keys());
        coldest_first.find(|k| resident(k)).copied()
    }

    /// Picks the swap node for the next eviction: round-robin over alive
    /// peers.
    fn pick_swap_node(&self, kernel: &LiteKernel) -> Option<NodeId> {
        let alive = |n: NodeId| !kernel.datapath.peer_is_dead(n);
        let candidates: Vec<NodeId> = (0..self.nodes).filter(|&n| n != self.node).collect();
        if candidates.is_empty() {
            return None;
        }
        let start = self.next_swap.fetch_add(1, Ordering::Relaxed);
        (0..candidates.len())
            .map(|i| candidates[(start + i) % candidates.len()])
            .find(|&n| alive(n))
    }

    // ------------------------------------------------------------------
    // Migration primitives (called by the node's migrator only)
    // ------------------------------------------------------------------

    /// Claims `key` for a migration to `to`: Resident | Unpinned | Remote
    /// → Migrating. Returns the segment and the state it came from (what
    /// an abort restores); `None` when the segment is gone, mid-migration
    /// or not on the other side of the move — a segment at home can only
    /// leave, a remote one only come home.
    fn begin_migrate(&self, key: &SegKey, to: NodeId) -> Option<(Arc<Segment>, u8)> {
        let st = self.state.lock();
        let seg = st.segs.get(key)?;
        if (seg.host == self.node) == (to == self.node) {
            return None;
        }
        // SeqCst pairs with pin_range's publish-then-revalidate: the
        // claim RMW and the drain's pin load must order as a unit
        // against the pin RMW and its residency re-load.
        let claim = |r: u8| (r != R_MIGRATING).then_some(R_MIGRATING);
        let from = seg
            .residency
            .fetch_update(Ordering::SeqCst, Ordering::Acquire, claim)
            .ok()?;
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        Some((Arc::clone(seg), from))
    }

    /// Ends a migration `begin_migrate` claimed: `abort_migrate` and
    /// `finish`, whichever way it went.
    fn end_migration(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.ended.fetch_add(1, Ordering::SeqCst);
        self.migrated.wake();
    }

    fn abort_migrate(&self, seg: &Segment, back_to: u8) {
        seg.settle(back_to);
        self.end_migration();
    }

    /// Waits for in-flight pins to drain; `false` on deadline.
    fn drain_pins(&self, seg: &Segment) -> bool {
        // SeqCst: see pin_range's publish-then-revalidate. If a pin's
        // increment is not visible here, the claim preceding this load
        // is visible to that pin's residency re-check, and it backs off.
        let drained = || seg.pins.load(Ordering::SeqCst) == 0;
        let deadline = Deadline::after(DRAIN_DEADLINE);
        drained() || seg.changed.park_until(drained, deadline)
    }

    /// Stages a migration's landing range in the address map of the
    /// node it lands `at` (a swap node outbound, this one inbound)
    /// *before* the data copy: one entry per landed chunk, created
    /// directly in the claimed Migrating state so datapath pins block
    /// (or bounce, for no-wait pins). Without this, the window between
    /// `replace_extents` (which publishes the new location) and
    /// registration — and, worse, a stale view of a recycled address
    /// whose `Moved` tombstone the landing allocation just scrubbed —
    /// pins `Untracked` and posts unfenced while the bytes are in
    /// flight: a concurrent claim's pin drain reads zero and migrates
    /// under a live access, losing the op's effect. `finish` flips the
    /// stage to its settled state once the record points at it;
    /// `unstage` removes it on any abort.
    fn stage(
        &self,
        dir: &ClusterDirectory,
        seg: &Segment,
        at: NodeId,
        chunks: &[Chunk],
    ) -> Vec<Arc<Segment>> {
        let mut staged = Vec::with_capacity(chunks.len());
        let mut off = seg.key.off;
        for c in chunks {
            let key = SegKey {
                id: seg.key.id,
                off,
            };
            staged.push(Arc::new(Segment::new(key, c.len, c.addr, at, R_MIGRATING)));
            off += c.len;
        }
        if let Some(land) = dir.mm(at) {
            let mut lst = land.state.lock();
            for s in &staged {
                lst.scrub_moved(s.addr, s.len);
                land.pins.fault_in(s.addr, s.len);
                lst.by_addr.insert(s.addr, Slot::Entry(Arc::clone(s)));
                if at != self.node {
                    lst.hosted_bytes += s.len;
                }
            }
        }
        staged
    }

    /// Rolls a staged landing back out of the address map at `at`
    /// (aborted copy, vanished record, or dead LMR). The chunks
    /// themselves stay allocated — the caller (or, when the LMR died
    /// after `replace_extents` adopted them, the dropper) frees them.
    fn unstage(&self, dir: &ClusterDirectory, at: NodeId, staged: &[Arc<Segment>]) {
        if let Some(land) = dir.mm(at) {
            let mut lst = land.state.lock();
            for s in staged {
                if matches!(lst.by_addr.get(&s.addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, s)) {
                    lst.by_addr.remove(&s.addr);
                    land.pins.unpin_all(s.addr, s.len);
                    if at != self.node {
                        lst.hosted_bytes = lst.hosted_bytes.saturating_sub(s.len);
                    }
                }
            }
        }
        staged.iter().for_each(|s| s.settle(R_RETIRED));
    }

    /// Finalizes a migration whose record already points at the landing:
    /// retires the source slot to a `Moved` tombstone under the source
    /// manager's lock, then — under ours — replaces `seg` with the
    /// staged segments, flipped to their settled state (releasing any
    /// pins that queued against the stage during the copy). One order
    /// for both directions, and the two locks are never held at once, so
    /// cross-node managers cannot deadlock on each other. `false` when
    /// the LMR was unregistered (freed/moved/taken) mid-flight, in which
    /// case the stage is rolled back: committing would resurrect
    /// segments of a dead LMR in `segs` (leaking `evicted_bytes`) and
    /// leave entries over chunks the dropper frees at the landing. Either
    /// way the caller frees the source copy — nothing else will.
    fn finish(
        &self,
        dir: &ClusterDirectory,
        seg: &Arc<Segment>,
        at: NodeId,
        staged: &[Arc<Segment>],
    ) -> bool {
        if let Some(src) = dir.mm(seg.host) {
            let mut sst = src.state.lock();
            if matches!(sst.by_addr.get(&seg.addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, seg)) {
                sst.by_addr.insert(seg.addr, Slot::Moved(seg.len));
                // The source pages are about to be freed: release
                // whatever pins they held (all of them eager, only the
                // faulted subset lazy).
                src.pins.unpin_all(seg.addr, seg.len);
                if seg.host != self.node {
                    sst.hosted_bytes = sst.hosted_bytes.saturating_sub(seg.len);
                }
            }
        }
        let mut st = self.state.lock();
        // Re-verify liveness under our own lock: unregister_lmr/on_free
        // serialize on it, so a dead or replaced segment is definitely
        // visible here.
        if seg.dead.load(Ordering::Acquire)
            || !matches!(st.segs.get(&seg.key), Some(e) if Arc::ptr_eq(e, seg))
        {
            drop(st);
            self.unstage(dir, at, staged);
            seg.settle(R_RETIRED);
            self.end_migration();
            return false;
        }
        st.segs.remove(&seg.key);
        if at == self.node {
            st.evicted_bytes = st.evicted_bytes.saturating_sub(seg.len);
        } else {
            st.lru.remove(&seg.key);
            st.resident_bytes = st.resident_bytes.saturating_sub(seg.len);
            st.evicted_bytes += seg.len;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        for s in staged {
            st.segs.insert(s.key, Arc::clone(s));
            if at == self.node {
                // The bytes just DMAed in, so they land pinned (the stage
                // faulted them) and warm (a fetch-back is demand-driven).
                s.last_touch.store(self.current_epoch(), Ordering::Relaxed);
                st.lru.insert(s.key, ());
                st.resident_bytes += s.len;
                s.settle(R_RESIDENT);
            } else {
                s.settle(R_REMOTE);
            }
        }
        drop(st);
        seg.settle(R_RETIRED);
        self.end_migration();
        true
    }

    /// Segments of LMR `idx` covering byte `off` (`u64::MAX`: all of
    /// them) whose bytes are home (`here`) or on a swap node.
    fn segs_of<'a>(
        &self,
        st: &'a MmState,
        idx: u32,
        off: u64,
        here: bool,
    ) -> impl Iterator<Item = &'a Arc<Segment>> {
        let home = self.node;
        st.segs.values().filter(move |s| {
            s.key.id.idx == idx
                && (s.host == home) == here
                && (off == u64::MAX || (s.key.off <= off && off < s.key.off + s.len))
        })
    }

    /// LMRs whose remote map-faults crossed the fetch-back threshold and
    /// whose remote bytes fit under the budget. With `take`, consumes their
    /// counts, and those of LMRs with nothing left remote.
    fn fetch_back_candidates(&self, take: bool) -> Vec<u32> {
        let mut st = self.state.lock();
        let ready: Vec<u32> = st
            .faults
            .iter()
            .filter(|&(_, &n)| n >= FETCH_BACK_FAULTS)
            .map(|(&idx, _)| idx)
            .collect();
        let mut headroom = self.budget.saturating_sub(st.resident_bytes);
        let mut out = Vec::new();
        for idx in ready {
            let need: u64 = self.segs_of(&st, idx, u64::MAX, false).map(|s| s.len).sum();
            if take && need <= headroom {
                st.faults.remove(&idx);
            }
            if need > 0 && need <= headroom {
                headroom -= need;
                out.push(idx);
            }
        }
        out
    }

    /// Raises the unpin epoch to `now`'s; whoever raised it walks.
    fn advance_epoch(&self, now: Nanos) {
        let epoch = now / EPOCH_NS;
        if epoch > self.epoch.load(Ordering::Relaxed)
            && self.epoch.fetch_max(epoch, Ordering::AcqRel) < epoch
        {
            self.unpin_cold(epoch);
        }
    }

    /// The unpinner: demotes locally-resident segments last touched
    /// before the epoch preceding `epoch` — a full epoch without a touch —
    /// that have no pins in flight, Resident → Unpinned, pages released.
    /// Runs entirely under the state lock, so it can never interleave
    /// with `pin_range`'s fault-in/pin sequence: a segment is either
    /// demoted before a pin (the pin refaults it) or after (the pin count
    /// blocks the demotion).
    fn unpin_cold(&self, epoch: u64) {
        let st = self.state.lock();
        for seg in st.segs.values() {
            if seg.host != self.node
                || seg.pins.load(Ordering::Acquire) != 0
                || seg.last_touch.load(Ordering::Relaxed) + 1 >= epoch
                || seg
                    .residency
                    .compare_exchange(R_RESIDENT, R_UNPINNED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
            {
                continue;
            }
            let released = self.pins.unpin_all(seg.addr, seg.len);
            if released > 0 {
                self.bg_unpins.fetch_add(released as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Memory-tiering gauges for one node.
#[derive(Debug, Clone, Default)]
pub struct MmReport {
    /// Whether a budget is configured.
    pub enabled: bool,
    /// Whether pin-free (lazy) registration is on.
    pub lazy: bool,
    /// The configured budget, bytes.
    pub budget_bytes: u64,
    /// Bytes of tracked chunks resident on this node.
    pub resident_bytes: u64,
    /// Bytes of this node's LMR chunks currently evicted to swap nodes.
    pub evicted_bytes: u64,
    /// Bytes this node hosts on behalf of other nodes' evictions.
    pub hosted_bytes: u64,
    /// Tracked chunks resident here.
    pub resident_chunks: usize,
    /// This node's chunks living remotely.
    pub evicted_chunks: usize,
    /// Chunks evicted over the node's lifetime.
    pub evictions: u64,
    /// Chunks fetched back over the node's lifetime.
    pub fetch_backs: u64,
    /// Passes the node's migrator made, whether or not they moved a chunk.
    pub migrator_runs: u64,
    /// Accesses that landed on migrated chunks and were redirected
    /// (refresh + retry) instead of served in place.
    pub redirects: u64,
    /// Accesses that found their chunk resident.
    pub lru_hits: u64,
    /// Accesses/faults that missed (evicted chunk or map-fault).
    pub lru_misses: u64,
    /// `lru_hits / (lru_hits + lru_misses)`, 0.0 when idle.
    pub hit_rate: f64,
    /// Pages of tracked memory currently pinned on this node.
    pub pinned_pages: usize,
    /// Pages pinned at the datapath by lazy first-touch faults.
    pub first_touch_faults: u64,
    /// Pages released by the background unpinner.
    pub bg_unpins: u64,
    /// Fetch-back latency (virtual nanoseconds, whole operation).
    pub fetch_back_lat: LatencySummary,
    /// Registration latency (virtual nanoseconds, whole `lt_malloc`).
    pub reg_lat: LatencySummary,
}

impl MmReport {
    /// JSON object fragment (same hand-rolled style as the rest of the
    /// stats report).
    pub fn json(&self) -> String {
        format!(
            "{{\"enabled\":{},\"lazy\":{},\"budget_bytes\":{},\"resident_bytes\":{},\"evicted_bytes\":{},\"hosted_bytes\":{},\"resident_chunks\":{},\"evicted_chunks\":{},\"evictions\":{},\"fetch_backs\":{},\"migrator_runs\":{},\"redirects\":{},\"lru_hits\":{},\"lru_misses\":{},\"hit_rate\":{:.4},\"pinned_pages\":{},\"first_touch_faults\":{},\"bg_unpins\":{},\"fetch_back_lat\":{{\"count\":{},\"mean_ns\":{:.1},\"p50\":{},\"p99\":{}}},\"reg_lat\":{{\"count\":{},\"mean_ns\":{:.1},\"p50\":{},\"p99\":{}}}}}",
            self.enabled,
            self.lazy,
            self.budget_bytes,
            self.resident_bytes,
            self.evicted_bytes,
            self.hosted_bytes,
            self.resident_chunks,
            self.evicted_chunks,
            self.evictions,
            self.fetch_backs,
            self.migrator_runs,
            self.redirects,
            self.lru_hits,
            self.lru_misses,
            self.hit_rate,
            self.pinned_pages,
            self.first_touch_faults,
            self.bg_unpins,
            self.fetch_back_lat.count,
            self.fetch_back_lat.mean_ns,
            self.fetch_back_lat.p50,
            self.fetch_back_lat.p99,
            self.reg_lat.count,
            self.reg_lat.mean_ns,
            self.reg_lat.p50,
            self.reg_lat.p99,
        )
    }
}

// ---------------------------------------------------------------------
// The migrator
// ---------------------------------------------------------------------

/// A node's migration clock and the handle migrations post through. The
/// cluster holds it, its manager weakly. Only a request waits for it;
/// a thread that finds it held leaves its work `noted`, and the holder
/// looks again after it lets go. `due` is the latest noter's clock:
/// migrations start no earlier, and never charge the noter.
pub(crate) struct Migrator {
    noted: AtomicBool,
    due: AtomicU64,
    clock: Mutex<Clock>,
}

struct Clock {
    ctx: Ctx,
    h: LiteHandle,
}

impl Migrator {
    /// The migrator of `kernel`'s node, bound to its manager; `None` when
    /// the manager tracks nothing (no budget, no lazy pinning).
    pub(crate) fn bind(kernel: &Arc<LiteKernel>) -> LiteResult<Option<Arc<Migrator>>> {
        if !kernel.mm().tracking() {
            return Ok(None);
        }
        let migrator = Arc::new(Migrator {
            noted: AtomicBool::new(false),
            due: AtomicU64::new(0),
            clock: Mutex::new(Clock {
                ctx: Ctx::new(),
                h: LiteHandle::new(Arc::clone(kernel), false)?,
            }),
        });
        *kernel.mm().migrator.lock() = Arc::downgrade(&migrator);
        Ok(Some(migrator))
    }

    /// Runs the noted work unless another thread holds the migrator.
    pub(crate) fn run(&self) {
        while self.noted.load(Ordering::SeqCst) {
            let Some(mut clock) = self.clock.try_lock() else {
                return;
            };
            self.noted.store(false, Ordering::SeqCst);
            let Clock { ctx, h } = &mut *clock;
            ctx.wait_until(self.due.load(Ordering::SeqCst));
            relieve(&Arc::clone(h.kernel()), ctx, h);
        }
    }
}

/// Evicts coldest-first down to the budget (a failure leaves the rest to
/// the next poke), then fetches back the LMRs faults called home.
fn relieve(kernel: &Arc<LiteKernel>, ctx: &mut Ctx, handle: &mut LiteHandle) {
    let mm = kernel.mm();
    mm.migrator_runs.fetch_add(1, Ordering::Relaxed);
    for _ in 0..1_024 {
        if mm.pressure() == 0 {
            break;
        }
        let Some(victim) = mm.pick_victim() else {
            break;
        };
        let Some(to) = mm.pick_swap_node(kernel) else {
            break;
        };
        if migrate_one(kernel, ctx, handle, victim, to).is_err() {
            break;
        }
    }
    for idx in mm.fetch_back_candidates(true) {
        migrate_lmr(kernel, ctx, handle, idx, u64::MAX, false);
    }
}

/// Migrates the segments of LMR `idx` covering byte `off` (`u64::MAX`:
/// all of them): the ones at home `out` to swap nodes, or the remote
/// ones back home.
fn migrate_lmr(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    idx: u32,
    off: u64,
    out: bool,
) {
    let mm = kernel.mm();
    let keys: Vec<SegKey> = mm
        .segs_of(&mm.state.lock(), idx, off, out)
        .map(|s| s.key)
        .collect();
    for key in keys {
        let to = if out {
            mm.pick_swap_node(kernel)
        } else {
            Some(kernel.node())
        };
        if let Some(to) = to {
            let _ = migrate_one(kernel, ctx, handle, key, to);
        }
    }
}

/// Frees the chunks at `addrs` on `node`: straight from our allocator
/// when they are ours (no RPC to self — it would cost virtual time), by
/// `FN_FREE_CHUNKS` otherwise. A failure leaks them and is counted.
fn free_at(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    node: NodeId,
    addrs: impl ExactSizeIterator<Item = u64>,
) {
    if node != kernel.node() {
        let _ = handle.k_free_chunks(ctx, node, addrs);
        return;
    }
    let mut alloc = kernel.alloc.lock();
    for addr in addrs {
        if alloc.free(addr).is_err() {
            kernel.note_cleanup_failure(node, ctx.now());
        }
    }
}

/// Migrates one segment to node `to` — an eviction when `to` is a swap
/// node, a fetch-back when it is this one: claim, drain pins, land
/// space at `to`, fence the landing, copy over the datapath, point the
/// master record at the landing, retire and free the source, invalidate
/// mappers. A fetch-back's latency lands in its histogram cell.
fn migrate_one(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    key: SegKey,
    to: NodeId,
) -> LiteResult<()> {
    let mm = kernel.mm();
    let inbound = to == kernel.node();
    let Some((seg, was)) = mm.begin_migrate(&key, to) else {
        return Ok(()); // gone, mid-migration or already there; nothing to do
    };
    if !mm.drain_pins(&seg) {
        mm.abort_migrate(&seg, was);
        return Err(LiteError::Timeout);
    }
    ctx.wait_until(seg.touched.load(Ordering::SeqCst));
    let started = ctx.now();
    // Land space at `to`: straight from our allocator when that is us
    // (no RPC to self), from the swap node's allocator service otherwise.
    let landed = if inbound {
        let mut a = kernel.alloc.lock();
        a.alloc_chunked(seg.len, kernel.config().max_lmr_chunk)
            .map_err(LiteError::from)
    } else {
        handle.k_malloc(ctx, to, seg.len)
    };
    let chunks = match landed {
        Ok(c) => c,
        Err(e) => {
            mm.abort_migrate(&seg, was);
            return Err(e);
        }
    };
    // Fence the landing range before any byte moves (see `stage`), so a
    // stale (or freshly-refreshed) view of those addresses blocks on the
    // staged entries instead of posting unfenced mid-copy.
    let staged = mm.stage(&kernel.dir, &seg, to, &chunks);
    // Copy over the datapath — pulled with one-sided reads inbound,
    // pushed outbound with one-sided writes from the segment's own
    // physical range (no staging copy) at low priority — then point the
    // master record at the new home. A failed op, or a record that
    // vanished (freed/moved concurrently), rolls back.
    let moved = (|| {
        let mut done = 0u64;
        for c in &chunks {
            let comp = if inbound {
                let land = std::slice::from_ref(c);
                let pull = Op::read(seg.host, seg.addr + done, land, c.len as usize);
                kernel.rdma_one(ctx, Priority::High, &pull)?
            } else {
                let src = [Chunk {
                    addr: seg.addr + done,
                    len: c.len,
                }];
                let push = Op::write(to, c.addr, &src[..], c.len as usize);
                kernel.rdma_one(ctx, Priority::Low, &push)?
            };
            ctx.wait_until(comp);
            done += c.len;
        }
        for s in &staged {
            s.landed.store(ctx.now(), Ordering::SeqCst);
        }
        let repl: Vec<(NodeId, Chunk)> = chunks.iter().map(|c| (to, *c)).collect();
        if !kernel.replace_extents(key.id.idx, key.off, seg.len, &repl) {
            return Err(LiteError::Internal("record vanished during migration"));
        }
        Ok(())
    })();
    if let Err(e) = moved {
        mm.unstage(&kernel.dir, to, &staged);
        free_at(kernel, ctx, handle, to, chunks.iter().map(|c| c.addr));
        mm.abort_migrate(&seg, was);
        return Err(e);
    }
    let mappers = kernel.record_mappers(key.id.idx).unwrap_or_default();
    let committed = mm.finish(&kernel.dir, &seg, to, &staged);
    // Release the source last: its tombstone is already in place. Also
    // when the LMR was freed/moved after replace_extents pointed its
    // record at the landed chunks — the dropper owns (and frees) those,
    // but nothing else releases the source copy.
    free_at(kernel, ctx, handle, seg.host, [seg.addr].into_iter());
    if !committed {
        return Err(LiteError::Internal("record vanished during migration"));
    }
    if inbound {
        let took = ctx.now().saturating_sub(started).max(1);
        kernel
            .observe()
            .record_latency(ctx, crate::observe::cell::MM_FETCH_BACK, took);
        // Counted after its latency: a reader that sees the count sees
        // the sample.
        mm.fetch_backs.fetch_add(1, Ordering::Release);
    }
    // Tell every mapper — local handles directly, other nodes by
    // `FN_INVALIDATE` — that the LMR's location changed under them:
    // refreshable, not fatal. A mapper that cannot be told keeps a handle
    // that heals itself on its next `Relocated`; the miss is counted.
    kernel.invalidate_lmr(key.id, true);
    for m in mappers.into_iter().filter(|&m| m != kernel.node()) {
        if handle.k_invalidate(ctx, m, key.id, true).is_err() {
            kernel.note_cleanup_failure(m, ctx.now());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget: u64) -> LiteConfig {
        LiteConfig {
            mem_budget_bytes: budget,
            ..Default::default()
        }
    }

    fn loc(node: NodeId, extents: &[(u64, u64)]) -> Location {
        Location {
            extents: extents
                .iter()
                .map(|&(addr, len)| (node, Chunk { addr, len }))
                .collect(),
        }
    }

    #[test]
    fn disabled_manager_tracks_nothing() {
        let mm = MemManager::new(0, 2, &cfg(0));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        assert!(matches!(mm.pin(0x1000, 64, (id, 0), 0), PinOutcome::Untracked));
        let r = mm.stats();
        assert!(!r.enabled);
        assert_eq!(r.resident_bytes, 0);
    }

    #[test]
    fn register_pin_and_identity_check() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096), (0x4000, 4096)]));
        assert_eq!(mm.stats().resident_bytes, 8192);
        assert_eq!(mm.stats().resident_chunks, 2);
        // Pin inside the second chunk: lmr offset 4096 + 16.
        match mm.pin(0x4010, 32, (id, 4096 + 16), 0) {
            PinOutcome::Pinned(..) => {}
            _ => panic!("expected pin"),
        }
        // Wrong identity → Relocated.
        let other = LmrId { node: 0, idx: 9 };
        assert!(matches!(mm.pin(0x1000, 8, (other, 0), 0), PinOutcome::Relocated));
        // Wrong offset → Relocated.
        assert!(matches!(mm.pin(0x1000, 8, (id, 64), 0), PinOutcome::Relocated));
        // Outside tracked space → Untracked.
        assert!(matches!(mm.pin(0x9000, 8, (id, 0), 0), PinOutcome::Untracked));
    }

    #[test]
    fn logical_cell_maps_addresses() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 3 };
        mm.register(id, &loc(0, &[(0x1000, 128), (0x8000, 128)]));
        assert_eq!(mm.logical_cell(0x1008), Some((id, 8)));
        assert_eq!(mm.logical_cell(0x8000), Some((id, 128)));
        assert_eq!(mm.logical_cell(0x500), None);
    }

    #[test]
    fn unregister_and_on_free_clean_up() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        mm.on_free(0x1000);
        assert_eq!(mm.stats().resident_bytes, 0);
        mm.register(id, &loc(0, &[(0x2000, 4096)]));
        mm.unregister_lmr(1);
        assert_eq!(mm.stats().resident_bytes, 0);
        assert!(matches!(mm.pin(0x2000, 8, (id, 0), 0), PinOutcome::Untracked));
    }

    #[test]
    fn touch_feeds_lru() {
        let mm = MemManager::new(0, 3, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096), (0x4000, 4096)]));
        mm.touch(0x1000, 0);
        mm.touch(0x1080, 0);
        mm.touch(0x4000, 0);
        let r = mm.stats();
        assert_eq!(r.lru_hits, 3);
        // The coldest segment is the one at 0x4000? No: 0x4000 touched
        // last, so the 0x1000 segment is colder only by insertion; both
        // were touched. Victim selection still returns something.
        assert!(mm.pick_victim().is_some());
    }

    #[test]
    fn tombstone_relocates_and_scrubs() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        {
            let mut st = mm.state.lock();
            st.by_addr.insert(0x1000, Slot::Moved(4096));
            st.segs.clear();
            st.resident_bytes = 0;
        }
        assert!(matches!(
            mm.pin(0x1800, 8, (id, 0x800), 0),
            PinOutcome::Relocated
        ));
        assert!(mm.stats().redirects >= 1);
        // Re-registration scrubs the tombstone.
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        assert!(matches!(mm.pin(0x1000, 8, (id, 0), 0), PinOutcome::Pinned(..)));
    }

    #[test]
    fn victim_is_coldest() {
        let mm = MemManager::new(0, 2, &cfg(1));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096), (0x4000, 4096)]));
        // Touch the first; the second becomes the LRU victim.
        mm.touch(0x1000, 0);
        assert_eq!(mm.pick_victim(), Some(SegKey { id, off: 4096 }));
    }

    #[test]
    fn on_alloc_scrubs_tombstones() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        {
            let mut st = mm.state.lock();
            st.by_addr.insert(0x1000, Slot::Moved(4096));
        }
        // Recycling the range through the allocator service (e.g. for a
        // cross-node LMR that is never register()ed here) must clear the
        // tombstone, or every access would answer Relocated forever.
        mm.on_alloc(&[Chunk {
            addr: 0x1000,
            len: 4096,
        }]);
        assert!(matches!(
            mm.pin_raw_nowait(0x1000, 64),
            PinOutcome::Untracked
        ));
    }

    /// Two managers that find each other the way kernels' do: through
    /// a cluster directory (whose entries carry no kernel here).
    fn pair() -> (ClusterDirectory, Arc<MemManager>, Arc<MemManager>) {
        let dir = ClusterDirectory::new(2);
        let join = |node: NodeId| {
            let mm = Arc::new(MemManager::new(node, 2, &cfg(1 << 20)));
            let entry = crate::directory::DirEntry {
                kernel: std::sync::Weak::new(),
                rkey: 0,
                qos: Arc::new(crate::qos::QosState::new(1)),
                mm: Arc::clone(&mm),
            };
            dir.register(node, entry);
            mm
        };
        let (a, b) = (join(0), join(1));
        (dir, a, b)
    }

    /// LMR 1 of `a` (node 0), one 4 KiB segment, claimed for a migration
    /// `to` node 1 (an eviction from 0x1000) or `to` node 0 (a fetch-back
    /// of the copy `b` hosts at 0x9000): the claimed segment, the state
    /// it was in, and the chunk it is to land in.
    fn claimed(a: &MemManager, b: &MemManager, to: NodeId) -> (Arc<Segment>, u8, Chunk) {
        let id = LmrId { node: 0, idx: 1 };
        let key = SegKey { id, off: 0 };
        let mut landed = Chunk {
            addr: 0x9000,
            len: 4096,
        };
        if to == 1 {
            a.register(id, &loc(0, &[(0x1000, 4096)]));
        } else {
            let seg = Arc::new(Segment::new(key, 4096, 0x9000, 1, R_REMOTE));
            a.state.lock().segs.insert(key, Arc::clone(&seg));
            a.state.lock().evicted_bytes = 4096;
            b.state.lock().by_addr.insert(0x9000, Slot::Entry(seg));
            b.state.lock().hosted_bytes = 4096;
            landed.addr = 0x2000;
        }
        let (seg, was) = a.begin_migrate(&key, to).expect("claim");
        (seg, was, landed)
    }

    /// Both directions (`to` the peer: eviction; `to` home: fetch-back),
    /// the LMR unregistered mid-copy or between claim and stage.
    #[test]
    fn finish_rolls_back_when_lmr_dies() {
        for (to, dies_before_stage) in [(1, false), (1, true), (0, false), (0, true)] {
            let (dir, a, b) = pair();
            let (seg, _, landed) = claimed(&a, &b, to);
            if dies_before_stage {
                a.unregister_lmr(1);
            }
            let staged = a.stage(&dir, &seg, to, &[landed]);
            // The LMR is freed while the migration is mid-flight.
            a.unregister_lmr(1);
            assert!(!a.finish(&dir, &seg, to, &staged), "to {to}");
            // Nothing resurrected on the master.
            assert_eq!(a.stats().evicted_bytes, 0, "to {to}");
            assert_eq!(a.stats().resident_bytes, 0, "to {to}");
            assert!(a.state.lock().segs.is_empty(), "to {to}");
            // The rolled-back stage leaves no address slot, hosted byte
            // or pinned page at the landing node — nor anywhere else —
            // and the source slot is retired: gone with the LMR, or a
            // tombstone that bounces stale views.
            assert_eq!(b.stats().hosted_bytes, 0, "to {to}");
            assert_eq!(a.stats().pinned_pages + b.stats().pinned_pages, 0);
            for mm in [&a, &b] {
                let st = mm.state.lock();
                assert!(!st.by_addr.contains_key(&landed.addr), "to {to}");
                assert!(st.by_addr.values().all(|s| matches!(s, Slot::Moved(_))));
            }
        }
    }

    /// A migration fences both of its ends, in either direction: while
    /// the source is claimed and the landing staged, a kernel call's
    /// no-wait pin bounces off the landing range, and waiting pins on
    /// both ranges block until the migration commits (`finish`) or
    /// aborts (`unstage`, then the claim reverts) — and not a moment
    /// longer: the step that ends it wakes them.
    #[test]
    fn pin_blocks_until_transition_ends() {
        for (to, commits) in [(1, true), (1, false), (0, true), (0, false)] {
            let (dir, a, b) = pair();
            let (seg, was, landed) = claimed(&a, &b, to);
            let staged = a.stage(&dir, &seg, to, &[landed]);
            let (land, src) = if to == 1 { (&b, &a) } else { (&a, &b) };
            assert!(matches!(
                land.pin_raw_nowait(landed.addr, 64),
                PinOutcome::Relocated
            ));
            let ended = Arc::new(AtomicBool::new(false));
            let waiter = |mm: &Arc<MemManager>, addr: u64| {
                let (mm, ended, id) = (Arc::clone(mm), Arc::clone(&ended), seg.key.id);
                std::thread::spawn(move || {
                    let deadline = Deadline::after(PIN_DEADLINE);
                    let out = mm.pin(addr, 64, (id, 0), 0);
                    assert!(ended.load(Ordering::SeqCst), "pinned through the fence");
                    assert!(!deadline.passed(), "nothing woke the pin");
                    out
                })
            };
            let (at_src, at_land) = (waiter(src, seg.addr), waiter(land, landed.addr));
            std::thread::sleep(Duration::from_millis(5));
            ended.store(true, Ordering::SeqCst);
            if commits {
                // The source is a tombstone now, the landing live.
                assert!(a.finish(&dir, &seg, to, &staged));
                assert!(matches!(at_src.join().unwrap(), PinOutcome::Relocated));
                assert!(matches!(at_land.join().unwrap(), PinOutcome::Pinned(..)));
            } else {
                // The source is live again, the landing nobody's.
                a.unstage(&dir, to, &staged);
                a.abort_migrate(&seg, was);
                assert!(matches!(at_src.join().unwrap(), PinOutcome::Pinned(..)));
                assert!(matches!(at_land.join().unwrap(), PinOutcome::Untracked));
            }
        }
    }

    /// ROADMAP 1(a): an op that loses to a migration waits it out instead
    /// of losing every retry. A memset (run by the LMR's node, whose
    /// no-wait pin answers `Relocated` while chunk 0 is claimed) succeeds
    /// once a claim held by hand ends, and is `Timeout` after `op_timeout`
    /// if it never does.
    #[test]
    fn memset_waits_out_a_migration() {
        let op_timeout = Duration::from_secs(1);
        let config = LiteConfig {
            mem_budget_bytes: 1 << 30,
            op_timeout,
            ..Default::default()
        };
        let cluster =
            crate::LiteCluster::start_with(rnic::IbConfig::with_nodes(2), config).unwrap();
        let mm = Arc::clone(cluster.kernel(0).mm());
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h
            .lt_malloc(&mut ctx, 0, 8192, "held", crate::Perm::RW)
            .unwrap();
        let key = SegKey {
            id: h.lh_id(lh).unwrap(),
            off: 0,
        };
        for ends in [true, false] {
            let (seg, was) = mm.begin_migrate(&key, 1).expect("claim chunk 0");
            let redirects = mm.stats().redirects;
            let timeout = Deadline::after(op_timeout);
            let out = std::thread::scope(|s| {
                let memset = s.spawn(|| h.lt_memset(&mut ctx, lh, 0, 64, 7));
                if ends {
                    while mm.stats().redirects == redirects {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(50));
                    assert!(!memset.is_finished(), "gave up while the migration ran");
                    mm.abort_migrate(&seg, was);
                }
                memset.join().unwrap()
            });
            if ends {
                assert_eq!(out, Ok(()));
                let mut buf = [0u8; 64];
                h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
                assert_eq!(buf, [7; 64]);
            } else {
                assert_eq!(out, Err(LiteError::Timeout));
                assert!(timeout.passed());
                mm.abort_migrate(&seg, was);
            }
        }
    }

    /// A read through a stale location whose range the swap node handed
    /// out again (ROADMAP 1(d)), driven by hand: chunk 1 of an LMR is
    /// evicted to node 1, node 2 maps the LMR, the chunk is fetched back
    /// home, and node 1's `FN_MALLOC` gives its range to a cross-node LMR
    /// that node 1 never registers and that zeroes it. Node 2 then reads across
    /// the chunk boundary with the location it held before the fetch-back:
    /// the second piece pins `Untracked` at node 1, and only the master's
    /// [`MemManager::tracks`] turns that into `Relocated`, so that the read
    /// refreshes and returns the LMR's bytes rather than the new owner's.
    #[test]
    fn a_read_through_a_recycled_range_refreshes() {
        const CHUNK: u64 = 8192;
        let config = LiteConfig {
            mem_budget_bytes: 1 << 30,
            max_lmr_chunk: CHUNK,
            ..Default::default()
        };
        let cluster =
            crate::LiteCluster::start_with(rnic::IbConfig::with_nodes(3), config).unwrap();
        let mut ctx = Ctx::new();
        let mut h = cluster.attach(0).unwrap();
        let lh = h
            .lt_malloc(&mut ctx, 0, 2 * CHUNK, "stale", crate::Perm::RW)
            .unwrap();
        h.lt_write(&mut ctx, lh, 0, &[0xA5; 2 * CHUNK as usize])
            .unwrap();
        let idx = h.lh_id(lh).unwrap().idx;
        // Node 2 wires its ring to node 1 now, or the ring would take the
        // range the fetch-back frees there.
        let mut r = cluster.attach(2).unwrap();
        r.lt_malloc(&mut ctx, 1, CHUNK, "kept", crate::Perm::RW)
            .unwrap();
        let mm = cluster.kernel(0).mm();
        mm.request(MmRequest::Evict { idx, off: CHUNK });
        let rlh = r.lt_map(&mut ctx, "stale").unwrap();
        let node2 = cluster.kernel(2);
        let stale = node2.with_lh(r.pid(), rlh, |e| Ok(e.clone())).unwrap();
        let (swap, at) = stale.location.extents[1];
        assert_eq!(swap, 1, "chunk 1 was not evicted to node 1");

        mm.request(MmRequest::FetchBack { idx });
        assert_eq!(mm.stats().evicted_bytes, 0, "chunk 1 is not home");
        let other = r
            .lt_malloc(&mut ctx, 1, CHUNK, "recycled", crate::Perm::RW)
            .unwrap();
        let recycled = node2.with_lh(r.pid(), other, |e| Ok(e.location.extents[0]));
        let recycled = recycled.unwrap();
        let at = Chunk { len: CHUNK, ..at };
        assert_eq!(recycled, (1, at), "node 1 did not hand the range out again");
        r.lt_write(&mut ctx, other, 0, &[0; CHUNK as usize])
            .unwrap();
        node2.reinstall_lh(r.pid(), rlh, stale);

        let mut buf = [0u8; 64];
        r.lt_read(&mut ctx, rlh, CHUNK - 32, &mut buf).unwrap();
        assert_eq!(buf, [0xA5; 64], "read the new owner's bytes");
    }

    #[test]
    fn fetch_back_candidates_respect_budget() {
        let mm = MemManager::new(0, 2, &cfg(8192));
        let id = LmrId { node: 0, idx: 7 };
        // One remote segment of 4096 bytes.
        {
            let mut st = mm.state.lock();
            let seg = Arc::new(Segment::new(
                SegKey { id, off: 0 },
                4096,
                0x9000,
                1,
                R_REMOTE,
            ));
            st.segs.insert(seg.key, seg);
            st.evicted_bytes = 4096;
        }
        for _ in 0..3 {
            mm.note_map_fault(7);
        }
        assert_eq!(mm.fetch_back_candidates(false), vec![7]);
        assert_eq!(mm.fetch_back_candidates(true), vec![7]);
        // Counts consumed.
        assert!(mm.fetch_back_candidates(true).is_empty());
    }
}

//! Kernel-internal services: naming, mapping, master records, memory
//! ops, locks, and barriers (§3.3's management plane plus §4.4/§4.5's
//! synchronization primitives).
//!
//! Every handler here is *event-driven code run while its node's poller
//! dispatcher is held*, by the thread that delivered the call (usually
//! its caller, at its reply wait), so nothing else on the node is
//! dispatched until it returns. None of them blocks, and multi-step
//! operations are driven by the calling thread as a sequence of RPCs, so
//! dispatch can never deadlock (DESIGN.md §5.3).
//!
//! Both ends of every service live in this module and nowhere else: the
//! handler arms of [`LiteKernel::kernel_service`] and, below them, one
//! client stub per `FN_*` (`LiteHandle::k_*`) that encodes the request
//! the arm decodes and decodes the reply it encodes. The rest of the
//! crate calls the stubs and never sees a payload.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};

use rnic::{NodeId, COST};
use simnet::{Ctx, KeyMap};
use smem::Chunk;

use super::datapath::Op;
use super::rpc::ReplyRoute;
use super::{
    LiteKernel, FN_BARRIER, FN_FREE_CHUNKS, FN_GRANT, FN_INVALIDATE, FN_LOCK, FN_MALLOC, FN_MAP,
    FN_MEMCPY, FN_MEMSET, FN_QUERYNAME, FN_REGNAME, FN_TAKE_RECORD, FN_UNMAP, FN_UNREGNAME,
    LOCK_CELLS, MANAGER_NODE,
};
use crate::api::{LiteHandle, LockId, Seg};
use crate::error::{LiteError, LiteResult};
use crate::lmr::{LhEntry, LmrId, Location, MasterRecord, Perm};
use crate::qos::Priority;
use crate::shard::ShardedMap;
use crate::wire::{Dec, Enc, MsgHeader};

/// Owner-side state of one lock word. Every enqueue and every release
/// carries a cluster-unique token, which is what makes the fault paths
/// safe: releases are idempotent (retrying a grant whose ack was lost
/// cannot grant a second waiter) and a failed enqueue can be aborted
/// with a definite answer (queued / already granted / never arrived).
/// A release that finds no waiter is answered "no waiter yet" and
/// retried by the unlocker — the handover is never banked owner-side,
/// so an aborted (unwound) increment can never strand a pre-granted
/// credit. `granted` and `releases_seen` grow by O(contended ops +
/// releases with waiters) u64s per lock over its lifetime — accepted:
/// tokens are 8 bytes and lock cells are bounded by `LOCK_CELLS`.
#[derive(Default)]
pub(super) struct LockState {
    waiters: VecDeque<(u64, ReplyRoute)>,
    granted: HashSet<u64>,
    releases_seen: HashSet<u64>,
    /// First answer given for each aborted token — a retried abort
    /// (whose previous reply was lost) must repeat the original answer,
    /// not re-derive it ("granted" would wrongly become "never
    /// arrived" after the first abort consumed the `granted` entry).
    aborts_seen: HashMap<u64, u8>,
}

pub(super) struct BarrierState {
    routes: Vec<ReplyRoute>,
    count: u32,
}

/// Master records, sharded by record index with a sharded name index on
/// the side. The two maps are updated without a covering lock; the
/// invariants that keep that safe:
///
/// * a record is inserted into `records` *before* its `by_name` binding,
///   and removed from `records` *before* the binding is scrubbed — so a
///   `by_name` hit whose record is missing means "being torn down" and
///   is answered like an unknown name (status 2);
/// * `by_name` scrubs are conditional (`entry == idx`), so a name that
///   was freed and re-registered under a new index is never scrubbed by
///   the old record's teardown.
pub(super) struct MasterTable {
    records: ShardedMap<u32, MasterRecord>,
    by_name: ShardedMap<String, u32>,
    next_idx: AtomicU32,
}

impl MasterTable {
    pub(super) fn new(shards: usize) -> Self {
        MasterTable {
            records: ShardedMap::new(shards),
            by_name: ShardedMap::new(shards),
            next_idx: AtomicU32::new(1),
        }
    }

    /// Removes `name → idx` only if it still points at `idx`.
    fn scrub_name(&self, name: &str, idx: u32) {
        let key = name.to_string();
        self.by_name.with_shard_of(&key, |m| {
            if m.get(&key) == Some(&idx) {
                m.remove(&key);
            }
        });
    }
}

/// `FN_LOCK` sub-op: enqueue a waiter; the reply is the grant.
pub(crate) const LOCK_ENQUEUE: u8 = 1;
/// `FN_LOCK` sub-op: hand the lock to the next waiter.
pub(crate) const LOCK_RELEASE: u8 = 2;
/// `FN_LOCK` sub-op: cancel an enqueue whose fate is unknown.
pub(crate) const LOCK_ABORT: u8 = 3;
/// A release's answer when nobody is queued yet.
pub(crate) const LOCK_NO_WAITER: u8 = 3;

fn perm_to_byte(p: Perm) -> u8 {
    (p.read as u8) | ((p.write as u8) << 1) | ((p.master as u8) << 2)
}

fn byte_to_perm(b: u8) -> Perm {
    Perm {
        read: b & 1 != 0,
        write: b & 2 != 0,
        master: b & 4 != 0,
    }
}

/// A handle's own copies of the lh entries it uses, so a warm one-sided
/// call reads its entry without the table's shard lock
/// ([`LiteKernel::with_lh_cached`]). Good while the kernel's lh
/// generation reads what it read when the copies were taken: every change
/// to an existing entry bumps it. A new lh changes no entry anyone holds.
#[derive(Default)]
pub(crate) struct LhCache {
    gen: u64,
    entries: KeyMap<u64, LhEntry>,
}

impl LiteKernel {
    // ------------------------------------------------------------------
    // lh table
    // ------------------------------------------------------------------

    /// Creates a process on this node; returns its pid.
    pub(crate) fn alloc_pid(&self) -> u32 {
        self.next_pid.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn install_lh(&self, pid: u32, entry: LhEntry) -> u64 {
        let lh = self.next_lh.fetch_add(1, Ordering::Relaxed);
        self.lhs.insert((pid, lh), entry);
        lh
    }

    /// Runs `f` on the entry behind `(pid, lh)` under its shard lock: a
    /// call needs an id and a few pieces of the location, not a clone of
    /// the name and the whole extent list. `f` must not take
    /// another kernel lock ([`crate::shard`]'s ordering rule).
    pub(crate) fn with_lh<T>(
        &self,
        pid: u32,
        lh: u64,
        f: impl FnOnce(&LhEntry) -> LiteResult<T>,
    ) -> LiteResult<T> {
        self.lhs.with_shard_of(&(pid, lh), |shard| {
            f(shard.get(&(pid, lh)).ok_or(LiteError::BadLh { lh })?)
        })
    }

    /// [`Self::with_lh`] for a warm call: `f` runs on the handle's own
    /// copy of the entry, with no shard lock, unless some entry changed
    /// since `cache` was filled; then the cache starts over from the
    /// table, one entry at a time.
    pub(crate) fn with_lh_cached<T>(
        &self,
        cache: &mut LhCache,
        pid: u32,
        lh: u64,
        f: impl FnOnce(&LhEntry) -> LiteResult<T>,
    ) -> LiteResult<T> {
        // Read before the table: a change after this load bumps the
        // generation past it, so a copy taken below is never kept
        // beyond the change.
        let gen = self.lh_gen.load(Ordering::Acquire);
        if cache.gen != gen {
            cache.entries.clear();
            cache.gen = gen;
        }
        if let Some(entry) = cache.entries.get(&lh) {
            return f(entry);
        }
        let entry = self.lhs.get(&(pid, lh)).ok_or(LiteError::BadLh { lh })?;
        f(cache.entries.entry(lh).or_insert(entry))
    }

    /// Marks every [`LhCache`] out of date, after an entry changed.
    fn lh_changed(&self) {
        self.lh_gen.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn reinstall_lh(&self, pid: u32, lh: u64, entry: LhEntry) {
        self.lhs.insert((pid, lh), entry);
        self.lh_changed();
    }

    pub(crate) fn remove_lh(&self, pid: u32, lh: u64) -> LiteResult<LhEntry> {
        let entry = self.lhs.remove(&(pid, lh)).ok_or(LiteError::BadLh { lh });
        self.lh_changed();
        entry
    }

    /// Marks every local handle on `id` dead (`stale`: the LMR was freed
    /// or moved) or, with `relocated`, merely out of date: the LMR still
    /// exists but its chunks migrated under the handle, and the API layer
    /// re-fetches the mapping and clears the flag.
    pub(crate) fn invalidate_lmr(&self, id: LmrId, relocated: bool) {
        // Snapshot-per-shard: a handle installed into an already-visited
        // shard mid-sweep belongs to a mapping that re-fetched after the
        // invalidation, so skipping it is correct.
        self.lhs.for_each_mut(|_, entry| {
            if entry.id == id {
                if relocated {
                    entry.relocated = true;
                } else {
                    entry.stale = true;
                }
            }
        });
        self.lh_changed();
    }

    // ------------------------------------------------------------------
    // Master records
    // ------------------------------------------------------------------

    /// Removes a master record created on this node (rollback path).
    pub(crate) fn remove_master_record(&self, idx: u32) {
        if let Some(rec) = self.masters.records.remove(&idx) {
            if let Some(name) = rec.name {
                self.masters.scrub_name(&name, idx);
            }
            // Stop tiering the dropped record's chunks (lt_malloc
            // rollback); the storage itself is freed by the caller's
            // FN_FREE_CHUNKS traffic.
            self.mm.unregister_lmr(idx);
        }
    }

    /// Swaps the physical location of a master record held on this node
    /// (LT_move). Returns the old location, or `None` if the record is
    /// gone or the requester lacks master rights.
    pub(crate) fn swap_master_location(
        &self,
        name: &str,
        requester: NodeId,
        new_location: Location,
    ) -> Option<(LmrId, Location, Vec<NodeId>)> {
        let idx = self.masters.by_name.get(&name.to_string())?;
        let me = self.node;
        let (id, old, mappers, fresh) = self.masters.records.with_shard_of(&idx, move |m| {
            let rec = m.get_mut(&idx)?;
            if requester != me && !rec.perm_for(requester).master {
                return None;
            }
            let old = std::mem::replace(&mut rec.location, new_location);
            Some((rec.id, old, rec.mapped_by.clone(), rec.location.clone()))
        })?;
        // Re-register with the tiering manager outside the shard lock
        // (the manager takes its own locks).
        self.mm.unregister_lmr(idx);
        self.mm.register(id, &fresh);
        Some((id, old, mappers))
    }

    /// Installs a master record for a freshly allocated LMR.
    pub(crate) fn create_master_record(
        &self,
        location: Location,
        name: Option<String>,
        default_perm: Perm,
    ) -> LmrId {
        let idx = self.masters.next_idx.fetch_add(1, Ordering::Relaxed);
        let id = LmrId {
            node: self.node as u32,
            idx,
        };
        self.mm.register(id, &location);
        let binding = name.clone();
        // Record first, name binding second: a `by_name` hit always has
        // a live record behind it (or is a teardown race, answered as
        // "unknown name").
        self.masters.records.insert(
            idx,
            MasterRecord {
                id,
                location,
                name,
                default_perm,
                grants: HashMap::new(),
                mapped_by: vec![self.node],
            },
        );
        if let Some(n) = binding {
            self.masters.by_name.insert(n, idx);
        }
        id
    }

    /// Replaces the extents covering `[off, off+len)` of record `idx`
    /// with `repl`, in place. Returns `false` if the record is gone or
    /// the range does not line up with extent boundaries (a concurrent
    /// move/free changed the layout under the migrator, which then
    /// aborts and rolls back).
    pub(crate) fn replace_extents(
        &self,
        idx: u32,
        off: u64,
        len: u64,
        repl: &[(NodeId, Chunk)],
    ) -> bool {
        self.masters.records.with_shard_of(&idx, |m| {
            let Some(rec) = m.get_mut(&idx) else {
                return false;
            };
            let mut out = Vec::with_capacity(rec.location.extents.len() + repl.len());
            let mut cur = 0u64;
            let mut matched = 0u64;
            let mut replaced = false;
            for (node, c) in &rec.location.extents {
                let start = cur;
                cur += c.len;
                if start >= off && cur <= off + len {
                    matched += c.len;
                    if !replaced {
                        out.extend(repl.iter().copied());
                        replaced = true;
                    }
                } else if cur <= off || start >= off + len {
                    out.push((*node, *c));
                } else {
                    return false; // partial overlap: layout changed under us
                }
            }
            if !replaced || matched != len {
                return false;
            }
            rec.location.extents = out;
            true
        })
    }

    /// The nodes currently mapping record `idx` (relocation notification
    /// targets), if the record still exists.
    pub(crate) fn record_mappers(&self, idx: u32) -> Option<Vec<NodeId>> {
        self.masters
            .records
            .with_shard_of(&idx, |m| m.get(&idx).map(|r| r.mapped_by.clone()))
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Allocates a lock cell on this node; returns its physical address
    /// and index.
    pub(crate) fn alloc_lock_cell(&self) -> LiteResult<(u64, u64)> {
        let idx = self.next_lock.fetch_add(1, Ordering::Relaxed);
        if idx >= LOCK_CELLS {
            return Err(LiteError::Mem(smem::MemError::OutOfMemory { requested: 8 }));
        }
        let addr = self.lock_cells + idx * 8;
        self.mem().store_u64(addr, 0)?;
        Ok((addr, idx))
    }

    /// An enqueue or an abort landed here, or a waiter unwound a lock word
    /// this node owns: wakes the unlockers waiting for a waiter to show.
    pub(crate) fn note_lock_move(&self) {
        self.lock_moves.fetch_add(1, Ordering::SeqCst);
        self.lock_moved.wake();
    }

    // ------------------------------------------------------------------
    // Kernel services (run holding the dispatcher; must never block)
    // ------------------------------------------------------------------

    /// Pins the raw range `[addr, addr + len)` at `mm` for the length of
    /// a handler, charging the pages it faults in. `None`: the range
    /// migrated under the caller's cached location — the handler answers
    /// status 4 and the caller refreshes its mapping and retries.
    fn fence(
        &self,
        ctx: &mut Ctx,
        mm: &crate::mm::MemManager,
        addr: u64,
        len: u64,
    ) -> Option<crate::mm::PinOutcome> {
        let pin = mm.pin_raw_nowait(addr, len);
        if let crate::mm::PinOutcome::Pinned(_, faulted) = &pin {
            ctx.work(COST.fault_page_ns * *faulted as u64);
        }
        (!matches!(pin, crate::mm::PinOutcome::Relocated)).then_some(pin)
    }

    pub(super) fn kernel_service(
        &self,
        ctx: &mut Ctx,
        hdr: &MsgHeader,
        payload: &[u8],
    ) -> LiteResult<Option<Vec<u8>>> {
        let mut d = Dec::new(payload);
        match hdr.func {
            FN_MALLOC => {
                let size = d.u64()?;
                let max_chunk = d.u64()?;
                match self.alloc.lock().alloc_chunked(size, max_chunk) {
                    Ok(chunks) => {
                        // The range has a fresh owner: scrub any Moved
                        // tombstones it covers. Cross-node LMRs
                        // (allocated here, mastered elsewhere) are never
                        // register()ed locally, so without this a
                        // recycled address would answer Relocated
                        // forever.
                        self.mm.on_alloc(&chunks);
                        // Eager mode pins every page up front, the
                        // get_user_pages cost that makes registration
                        // scale with size (Fig 8). Lazy mode defers it
                        // to first touch at the datapath.
                        if !self.config().lazy_pinning {
                            let pages = chunks
                                .iter()
                                .map(|c| (c.len + smem::PAGE_SIZE as u64 - 1) >> smem::PAGE_SHIFT)
                                .sum::<u64>();
                            ctx.work(COST.pin_page_ns * pages);
                        }
                        let mut e = Enc::new().u8(0).u32(chunks.len() as u32);
                        for c in &chunks {
                            e = e.u64(c.addr).u64(c.len);
                        }
                        Ok(Some(e.done()))
                    }
                    Err(_) => Ok(Some(Enc::new().u8(1).done())),
                }
            }
            FN_FREE_CHUNKS => {
                let n = d.u32()?;
                let mut status = 0u8;
                for _ in 0..n {
                    let addr = d.u64()?;
                    if self.alloc.lock().free(addr).is_err() {
                        status = 1;
                    } else {
                        self.mm.on_free(addr);
                    }
                }
                Ok(Some(Enc::new().u8(status).done()))
            }
            FN_INVALIDATE => {
                let node = d.u32()?;
                let idx = d.u32()?;
                // Trailing kind byte: absent = the LMR is gone
                // (free/move) — handles go stale; 1 = the LMR's chunks
                // migrated — handles refresh transparently.
                self.invalidate_lmr(LmrId { node, idx }, d.u8() == Ok(1));
                Ok(Some(Enc::new().u8(0).done()))
            }
            FN_REGNAME => {
                let name = String::from_utf8_lossy(d.bytes()?).into_owned();
                let master = d.u32()?;
                if self.names.insert_if_absent(name, master) {
                    Ok(Some(Enc::new().u8(0).done()))
                } else {
                    Ok(Some(Enc::new().u8(1).done()))
                }
            }
            FN_UNREGNAME => {
                let name = String::from_utf8_lossy(d.bytes()?).into_owned();
                // Guarded scrub: the payload carries the master node the
                // caller believes owns the name. If the name was freed
                // and re-registered by another node in the meantime, the
                // newer binding is left alone — an unregister must never
                // scrub a binding it did not create.
                let expected = d.u32()?;
                self.names.with_shard_of(&name, |m| {
                    if m.get(&name) == Some(&expected) {
                        m.remove(&name);
                    }
                });
                Ok(Some(Enc::new().u8(0).done()))
            }
            FN_QUERYNAME => {
                let name = String::from_utf8_lossy(d.bytes()?).into_owned();
                match self.names.get(&name) {
                    Some(node) => Ok(Some(Enc::new().u8(0).u32(node).done())),
                    None => Ok(Some(Enc::new().u8(2).done())),
                }
            }
            FN_MAP => {
                let name = String::from_utf8_lossy(d.bytes()?).into_owned();
                let Some(idx) = self.masters.by_name.get(&name) else {
                    return Ok(Some(Enc::new().u8(2).done()));
                };
                let src = hdr.src_node as NodeId;
                let me = self.node;
                // Build the reply inside the record's shard; the
                // map-fault is only *noted* there and reported to the
                // tiering manager after the shard unlocks (the manager
                // takes its own locks).
                let out = self.masters.records.with_shard_of(&idx, |m| {
                    let rec = m.get_mut(&idx)?;
                    let perm = rec.perm_for(src);
                    if !rec.mapped_by.contains(&src) {
                        rec.mapped_by.push(src);
                    }
                    // A mapper re-fetching a location whose extents left
                    // the master node is a remote fault: enough of them
                    // pull the LMR home (the mapper runs it, `k_map`).
                    let fault = rec.id.node as NodeId == me
                        && rec.location.extents.iter().any(|(n, _)| *n != me);
                    let e = Enc::new()
                        .u8(0)
                        .u32(rec.id.node)
                        .u32(rec.id.idx)
                        .u8(perm_to_byte(perm))
                        .extents(&rec.location.extents);
                    Some((fault, e.done()))
                });
                match out {
                    Some((fault, bytes)) => {
                        if fault {
                            self.mm.note_map_fault(idx);
                        }
                        Ok(Some(bytes))
                    }
                    // The record vanished between the name lookup and the
                    // record lookup (concurrent free/take): same answer
                    // as an unknown name.
                    None => Ok(Some(Enc::new().u8(2).done())),
                }
            }
            FN_UNMAP => {
                let idx = d.u32()?;
                let node = d.u32()?;
                self.masters.records.with_shard_of(&idx, |m| {
                    if let Some(rec) = m.get_mut(&idx) {
                        rec.mapped_by.retain(|&n| n != node as NodeId);
                    }
                });
                Ok(Some(Enc::new().u8(0).done()))
            }
            FN_TAKE_RECORD => {
                let name = String::from_utf8_lossy(d.bytes()?).into_owned();
                let Some(idx) = self.masters.by_name.get(&name) else {
                    return Ok(Some(Enc::new().u8(2).done()));
                };
                let requester = hdr.src_node as NodeId;
                let me = self.node;
                enum Take {
                    Missing,
                    Denied,
                    Got(Box<MasterRecord>),
                }
                let taken = self.masters.records.with_shard_of(&idx, |m| {
                    let Some(rec) = m.get(&idx) else {
                        return Take::Missing;
                    };
                    if requester != me && !rec.perm_for(requester).master {
                        return Take::Denied;
                    }
                    match m.remove(&idx) {
                        Some(rec) => Take::Got(Box::new(rec)),
                        None => Take::Missing,
                    }
                });
                match taken {
                    Take::Missing => Ok(Some(Enc::new().u8(2).done())),
                    Take::Denied => Ok(Some(Enc::new().u8(3).done())),
                    Take::Got(rec) => {
                        self.masters.scrub_name(&name, idx);
                        self.mm.unregister_lmr(idx);
                        let mut e = Enc::new()
                            .u8(0)
                            .u32(rec.id.node)
                            .u32(rec.id.idx)
                            .extents(&rec.location.extents)
                            .u32(rec.mapped_by.len() as u32);
                        for n in &rec.mapped_by {
                            e = e.u32(*n as u32);
                        }
                        Ok(Some(e.done()))
                    }
                }
            }
            FN_GRANT => {
                let name = String::from_utf8_lossy(d.bytes()?).into_owned();
                let node = d.u32()?;
                let perm = byte_to_perm(d.u8()?);
                let Some(idx) = self.masters.by_name.get(&name) else {
                    return Ok(Some(Enc::new().u8(2).done()));
                };
                let requester = hdr.src_node as NodeId;
                let me = self.node;
                let code = self.masters.records.with_shard_of(&idx, |m| {
                    let Some(rec) = m.get_mut(&idx) else {
                        return 2u8; // torn down under the name lookup
                    };
                    if requester != me && !rec.perm_for(requester).master {
                        return 3;
                    }
                    rec.grants.insert(node as NodeId, perm);
                    0
                });
                Ok(Some(Enc::new().u8(code).done()))
            }
            FN_MEMSET => {
                let addr = d.u64()?;
                let len = d.u64()?;
                let byte = d.u8()?;
                let Some(_pin) = self.fence(ctx, &self.mm, addr, len) else {
                    return Ok(Some(Enc::new().u8(4).done()));
                };
                self.mem().fill(addr, len as usize, byte)?;
                ctx.work(COST.memcpy_time(len));
                Ok(Some(Enc::new().u8(0).done()))
            }
            FN_MEMCPY => {
                let op = d.u8()?;
                let src = d.u64()?;
                let len = d.u64()?;
                let dst_node = d.u32()? as NodeId;
                let dst = d.u64()?;
                let Some(_src_pin) = self.fence(ctx, &self.mm, src, len) else {
                    return Ok(Some(Enc::new().u8(4).done()));
                };
                let local_dst = op == 0 || dst_node == self.node;
                // Fence the destination at whichever node hosts it: a
                // local dst through our own manager, a cross-node dst
                // through the peer's. Without the peer pin, an eviction
                // at dst_node could free/recycle the range while the
                // one-sided push is in flight and the copy would land
                // in dead memory.
                let dst_mm = if local_dst {
                    Some(&self.mm)
                } else {
                    self.dir.mm(dst_node)
                };
                let _dst_pin = match dst_mm.map(|mm| self.fence(ctx, mm, dst, len)) {
                    Some(None) => return Ok(Some(Enc::new().u8(4).done())),
                    pinned => pinned,
                };
                let chunks = [Chunk { addr: src, len }];
                if local_dst {
                    // As if all of `src` were read before any of `dst` is
                    // written: an overlapping segment cannot tear itself.
                    let mem = self.mem();
                    mem.copy_from(mem, &chunks, &[Chunk { addr: dst, len }])?;
                    ctx.work(COST.memcpy_time(len));
                } else {
                    // Push to the destination node with a one-sided write;
                    // LT_memcpy returns only once the copy is durable.
                    let push = Op::write(dst_node, dst, &chunks[..], len as usize);
                    let comp = self.rdma_one(ctx, Priority::High, &push)?;
                    ctx.wait_until(comp);
                }
                Ok(Some(Enc::new().u8(0).done()))
            }
            FN_LOCK => {
                let op = d.u8()?;
                let addr = d.u64()?;
                let token = d.u64()?;
                match op {
                    LOCK_ENQUEUE => {
                        // Enqueue a waiter; reply only when granted. A
                        // release that raced ahead of this enqueue will
                        // come back (the unlocker retries releases that
                        // found no waiter), so the waiter just queues.
                        let route = ReplyRoute::of_hdr(hdr);
                        self.locks.with_shard_of(&addr, |m| {
                            m.entry(addr).or_default().waiters.push_back((token, route));
                        });
                        self.note_lock_move();
                        Ok(None)
                    }
                    LOCK_RELEASE => {
                        // Grant-next on release. Two-way: the unlocker
                        // gets an ack, so it can retry a lost one — and
                        // `releases_seen` makes the retry idempotent (a
                        // duplicate of a *consumed* release token acks
                        // without granting a second waiter). A release
                        // that finds no waiter is NOT consumed: it
                        // answers "no waiter yet" (sub-code 3) and the
                        // unlocker retries after re-reading the lock
                        // word. Banking the handover here instead (a
                        // credit) would be unsound: the increment it
                        // waits for can be unwound by an abort, and the
                        // orphaned credit would later grant a waiter
                        // while another holder owns the lock.
                        //
                        // The state transition happens inside the shard;
                        // the grant reply is sent after the shard
                        // unlocks (lock-ordering rule: replies post ops,
                        // which must never run under a shard lock).
                        let grant = self.locks.with_shard_of(&addr, |m| {
                            let st = m.entry(addr).or_default();
                            if st.releases_seen.contains(&token) {
                                return Err(0);
                            }
                            match st.waiters.pop_front() {
                                Some((wtoken, route)) => {
                                    st.releases_seen.insert(token);
                                    st.granted.insert(wtoken);
                                    Ok(route)
                                }
                                None => Err(LOCK_NO_WAITER),
                            }
                        });
                        match grant {
                            Ok(route) => {
                                // Grant before acking: the waiter's
                                // wakeup is never gated on the unlocker's
                                // reply path.
                                let _ = self.reply_bytes(ctx, route, &[0]);
                                Ok(Some(Enc::new().u8(0).u8(0).done()))
                            }
                            Err(code) => Ok(Some(Enc::new().u8(0).u8(code).done())),
                        }
                    }
                    LOCK_ABORT => {
                        // Abort an enqueue whose reply was lost. Replies
                        // with what actually happened: 0 = dequeued (the
                        // caller does not hold the lock), 1 = already
                        // granted (the caller holds it), 2 = the enqueue
                        // never arrived. The per-(client,server) ring is
                        // FIFO and drops are terminal, so by the time
                        // this abort is processed the enqueue either ran
                        // or never will — there is no in-flight window.
                        let code = self.locks.with_shard_of(&addr, |m| {
                            let st = m.entry(addr).or_default();
                            match st.aborts_seen.get(&token) {
                                Some(&c) => c,
                                None => {
                                    let c = if let Some(pos) =
                                        st.waiters.iter().position(|(t, _)| *t == token)
                                    {
                                        st.waiters.remove(pos);
                                        0
                                    } else if st.granted.remove(&token) {
                                        1
                                    } else {
                                        2
                                    };
                                    st.aborts_seen.insert(token, c);
                                    c
                                }
                            }
                        });
                        self.note_lock_move();
                        Ok(Some(Enc::new().u8(0).u8(code).done()))
                    }
                    _ => Err(LiteError::Remote(1)),
                }
            }
            FN_BARRIER => {
                let id = d.u64()?;
                let count = d.u32()?;
                let route = ReplyRoute::of_hdr(hdr);
                // Collect the released routes inside the shard, reply
                // after it unlocks.
                let released = self.barriers.with_shard_of(&id, |m| {
                    let st = m.entry(id).or_insert(BarrierState {
                        routes: Vec::new(),
                        count,
                    });
                    st.routes.push(route);
                    if st.routes.len() as u32 >= st.count {
                        m.remove(&id).map(|st| st.routes)
                    } else {
                        None
                    }
                });
                if let Some(routes) = released {
                    for route in routes {
                        let _ = self.reply_bytes(ctx, route, &[0]);
                    }
                }
                Ok(None)
            }
            other => Err(LiteError::UnknownRpc { func: other }),
        }
    }
}

// ---------------------------------------------------------------------
// Client stubs, one per service above: the request its arm decodes, the
// reply it encodes. Run on the calling thread, inside its syscall.
// ---------------------------------------------------------------------

impl LiteHandle {
    /// Calls kernel service `func` at `server` and checks the leading
    /// status byte of the reply; returns what follows it.
    fn kcall(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        payload: Vec<u8>,
    ) -> LiteResult<Vec<u8>> {
        let resp = self.call_raw(ctx, server, func, &payload, 64 * 1024, false)?;
        match resp.first() {
            Some(0) => Ok(resp[1..].to_vec()),
            Some(1) => Err(LiteError::Remote(1)),
            Some(2) => Err(LiteError::NameNotFound {
                name: String::new(),
            }),
            Some(3) => Err(LiteError::NotMaster),
            Some(4) => Err(LiteError::Relocated),
            Some(&other) => Err(LiteError::Remote(other)),
            None => Err(LiteError::Remote(0xFB)),
        }
    }

    /// `FN_MALLOC`: `size` bytes on `node`, in chunks of at most
    /// `max_lmr_chunk`; the landed chunks.
    pub(crate) fn k_malloc(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        size: u64,
    ) -> LiteResult<Vec<Chunk>> {
        let max_chunk = self.kernel().config().max_lmr_chunk;
        let request = Enc::new().u64(size).u64(max_chunk).done();
        let resp = self.kcall(ctx, node, FN_MALLOC, request)?;
        let mut d = Dec::new(&resp);
        let n = d.u32()? as usize;
        if n > resp.len() / 16 {
            return Err(LiteError::Remote(0xFC));
        }
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            let (addr, len) = (d.u64()?, d.u64()?);
            chunks.push(Chunk { addr, len });
        }
        Ok(chunks)
    }

    /// `FN_FREE_CHUNKS`: frees the chunks at `addrs` on `node`. A failure
    /// leaks them; it is counted as a cleanup failure here, for every
    /// caller.
    pub(crate) fn k_free_chunks(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        addrs: impl ExactSizeIterator<Item = u64>,
    ) -> LiteResult<()> {
        let request = Enc::new().u32(addrs.len() as u32);
        let request = addrs.fold(request, Enc::u64);
        let freed = self.kcall(ctx, node, FN_FREE_CHUNKS, request.done());
        if freed.is_err() {
            self.kernel().note_cleanup_failure(node, ctx.now());
        }
        freed.map(|_| ())
    }

    /// `FN_INVALIDATE`: tells `node` that LMR `id` is gone (its handles go
    /// stale) or, with `relocated`, that its chunks moved (its handles
    /// refresh on next use).
    pub(crate) fn k_invalidate(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        id: LmrId,
        relocated: bool,
    ) -> LiteResult<()> {
        let mut request = Enc::new().u32(id.node).u32(id.idx);
        if relocated {
            request = request.u8(1);
        }
        self.kcall(ctx, node, FN_INVALIDATE, request.done())
            .map(drop)
    }

    /// `FN_REGNAME`: binds `name` to `master` at the cluster manager;
    /// `Remote(1)` when the name is taken.
    pub(crate) fn k_regname(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        master: NodeId,
    ) -> LiteResult<()> {
        let request = Enc::new().bytes(name.as_bytes()).u32(master as u32);
        self.kcall(ctx, MANAGER_NODE, FN_REGNAME, request.done())
            .map(drop)
    }

    /// `FN_UNREGNAME`: scrubs the binding of `name` at the cluster manager
    /// if it still names `master`.
    pub(crate) fn k_unregname(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        master: NodeId,
    ) -> LiteResult<()> {
        let request = Enc::new().bytes(name.as_bytes()).u32(master as u32);
        self.kcall(ctx, MANAGER_NODE, FN_UNREGNAME, request.done())
            .map(drop)
    }

    /// `FN_QUERYNAME`: the master node `name` is bound to.
    pub(crate) fn k_queryname(&mut self, ctx: &mut Ctx, name: &str) -> LiteResult<NodeId> {
        let request = Enc::new().bytes(name.as_bytes()).done();
        let resp = self
            .kcall(ctx, MANAGER_NODE, FN_QUERYNAME, request)
            .map_err(|e| named_err(e, name))?;
        Ok(Dec::new(&resp).u32()? as NodeId)
    }

    /// `FN_MAP`: registers this node as a mapper of `name` at `master`;
    /// the LMR's id, the permission granted and where its bytes live.
    pub(crate) fn k_map(
        &mut self,
        ctx: &mut Ctx,
        master: NodeId,
        name: &str,
    ) -> LiteResult<(LmrId, Perm, Location)> {
        let request = Enc::new().bytes(name.as_bytes()).done();
        let resp = self
            .kcall(ctx, master, FN_MAP, request)
            .map_err(|e| named_err(e, name))?;
        // A fault that crossed the fetch-back threshold at the master is
        // this thread's to run.
        if let Some(mm) = self.kernel().dir.mm(master) {
            mm.poke(ctx.now());
        }
        let mut d = Dec::new(&resp);
        let (node, idx) = (d.u32()?, d.u32()?);
        let perm = byte_to_perm(d.u8()?);
        let extents = d.extents()?;
        Ok((LmrId { node, idx }, perm, Location { extents }))
    }

    /// `FN_UNMAP`: this node no longer maps `id`.
    pub(crate) fn k_unmap(&mut self, ctx: &mut Ctx, id: LmrId) -> LiteResult<()> {
        let request = Enc::new().u32(id.idx).u32(self.node() as u32).done();
        self.kcall(ctx, id.node as NodeId, FN_UNMAP, request)
            .map(drop)
    }

    /// `FN_TAKE_RECORD`: removes the master record of `name` at `master`
    /// (master permission required); its id, location and mappers.
    pub(crate) fn k_take_record(
        &mut self,
        ctx: &mut Ctx,
        master: NodeId,
        name: &str,
    ) -> LiteResult<(LmrId, Location, Vec<NodeId>)> {
        let request = Enc::new().bytes(name.as_bytes()).done();
        let resp = self.kcall(ctx, master, FN_TAKE_RECORD, request)?;
        let mut d = Dec::new(&resp);
        let (node, idx) = (d.u32()?, d.u32()?);
        let extents = d.extents()?;
        let mut mappers = Vec::new();
        for _ in 0..d.u32()? {
            mappers.push(d.u32()? as NodeId);
        }
        Ok((LmrId { node, idx }, Location { extents }, mappers))
    }

    /// `FN_GRANT`: grants `perm` on `name` to `node` (master permission
    /// required).
    pub(crate) fn k_grant(
        &mut self,
        ctx: &mut Ctx,
        master: NodeId,
        name: &str,
        node: NodeId,
        perm: Perm,
    ) -> LiteResult<()> {
        let request = Enc::new()
            .bytes(name.as_bytes())
            .u32(node as u32)
            .u8(perm_to_byte(perm));
        self.kcall(ctx, master, FN_GRANT, request.done()).map(drop)
    }

    /// `FN_MEMSET`: fills the physical range `c` of `node` with `byte`;
    /// `Relocated` when the range migrated under the caller's view.
    pub(crate) fn k_memset(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        c: Chunk,
        byte: u8,
    ) -> LiteResult<()> {
        let request = Enc::new().u64(c.addr).u64(c.len).u8(byte).done();
        self.kcall(ctx, node, FN_MEMSET, request).map(drop)
    }

    /// `FN_MEMCPY`: the node storing `seg`'s source copies it to the
    /// destination — a local copy when that is the same node, a one-sided
    /// write otherwise; `Relocated` when either end migrated.
    pub(crate) fn k_memcpy(&mut self, ctx: &mut Ctx, seg: &Seg) -> LiteResult<()> {
        let ((s_node, s_addr), (d_node, d_addr)) = (seg.src, seg.dst);
        let request = Enc::new()
            .u8((s_node != d_node) as u8)
            .u64(s_addr)
            .u64(seg.len)
            .u32(d_node as u32)
            .u64(d_addr);
        self.kcall(ctx, s_node, FN_MEMCPY, request.done()).map(drop)
    }

    /// `FN_LOCK`, sub-op `op` (`LOCK_ENQUEUE`: returns once granted;
    /// `LOCK_RELEASE`: 0 = handed over or already seen, `LOCK_NO_WAITER`;
    /// `LOCK_ABORT`: 0 = dequeued, 1 = already granted, 2 = never arrived)
    /// on `lock` under `token`; the owner's answer.
    pub(crate) fn k_lock(
        &mut self,
        ctx: &mut Ctx,
        lock: LockId,
        op: u8,
        token: u64,
    ) -> LiteResult<u8> {
        let request = Enc::new().u8(op).u64(lock.addr).u64(token).done();
        let resp = self.kcall(ctx, lock.node, FN_LOCK, request)?;
        // A grant is a bare status byte.
        Ok(resp.first().copied().unwrap_or(0))
    }

    /// `FN_BARRIER`: returns once `count` participants arrived at `id`.
    pub(crate) fn k_barrier(&mut self, ctx: &mut Ctx, id: u64, count: u32) -> LiteResult<()> {
        let request = Enc::new().u64(id).u32(count).done();
        self.kcall(ctx, MANAGER_NODE, FN_BARRIER, request).map(drop)
    }
}

fn named_err(e: LiteError, name: &str) -> LiteError {
    match e {
        LiteError::NameNotFound { .. } => LiteError::NameNotFound {
            name: name.to_string(),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_byte_roundtrip() {
        for p in [Perm::RO, Perm::RW, Perm::MASTER] {
            assert_eq!(byte_to_perm(perm_to_byte(p)), p);
        }
    }

    #[test]
    fn unregname_guard_spares_recycled_bindings() {
        // Regression for the stale-name bug: an unregister carrying an
        // expected-master guard must only scrub the binding it created.
        let cluster = crate::LiteCluster::start(3).unwrap();
        let mut ctx = simnet::Ctx::new();
        let mut h1 = cluster.attach(1).unwrap();
        h1.lt_malloc(&mut ctx, 1, 4096, "guarded", crate::Perm::RW)
            .unwrap();
        let mut h2 = cluster.attach(2).unwrap();
        // Wrong guard (node 2 never registered the name): no-op.
        h2.k_unregname(&mut ctx, "guarded", 2).unwrap();
        let lh = h2.lt_map(&mut ctx, "guarded").unwrap();
        h2.lt_unmap(&mut ctx, lh).unwrap();
        // Right guard: the binding goes away.
        h2.k_unregname(&mut ctx, "guarded", 1).unwrap();
        assert!(matches!(
            h2.lt_map(&mut ctx, "guarded"),
            Err(LiteError::NameNotFound { .. })
        ));
    }
}

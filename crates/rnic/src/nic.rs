//! The per-node RNIC: MR registry, QP registry, SRAM caches, request
//! engine, and the implementation of every verb.

use std::sync::{Arc, Weak};

use parking_lot::{Mutex, MutexGuard};
use simnet::{Book, Ctx, Fluid, Grant, InlineVec, KeyMap, Lru, Nanos};
use smem::{AddrSpace, Chunk, PhysMem, PAGE_SHIFT, PAGE_SIZE};

use crate::cost::COST;
use crate::cq::Cq;
use crate::error::{VerbsError, VerbsResult};
use crate::fabric::{IbFabric, NodeId};
use crate::fault::FaultAction;
use crate::qp::{Qp, QpId, QpType, RecvEntry, RecvQueue};
use crate::verbs::{Access, RemoteAddr, Sge, SgeRef, Wc, WcOpcode};

/// How a registered MR addresses memory.
enum MrKind {
    /// User-space MR: virtual addresses resolved through a page table.
    Virt {
        space: Arc<AddrSpace>,
        base: u64,
        len: u64,
    },
    /// Kernel physical MR (LITE's global MR): addresses are physical.
    Phys { base: u64, len: u64 },
}

struct MrInner {
    key: u32,
    kind: MrKind,
    access: Access,
}

/// A registered memory region handle.
///
/// In this simulation `lkey == rkey == key` (as on much real hardware,
/// where both name the same MR context).
#[derive(Clone)]
pub struct Mr {
    inner: Arc<MrInner>,
    node: NodeId,
}

impl Mr {
    /// Local key.
    pub fn lkey(&self) -> u32 {
        self.inner.key
    }

    /// Remote key.
    pub fn rkey(&self) -> u32 {
        self.inner.key
    }

    /// Node the MR lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registered length in bytes.
    pub fn len(&self) -> u64 {
        match &self.inner.kind {
            MrKind::Virt { len, .. } | MrKind::Phys { len, .. } => *len,
        }
    }

    /// Whether the region is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base address (virtual for user MRs, physical for global MRs).
    pub fn base(&self) -> u64 {
        match &self.inner.kind {
            MrKind::Virt { base, .. } | MrKind::Phys { base, .. } => *base,
        }
    }
}

struct Caches {
    /// MR key table: key -> (). Capacity `mr_cache_entries`.
    mr_keys: Lru<u32, ()>,
    /// PTE cache: (key, vpn) -> (). Capacity `pte_cache_entries`.
    ptes: Lru<(u32, u64), ()>,
    /// QP context cache: qpn -> (). Capacity `qp_cache_entries`.
    qpc: Lru<u64, ()>,
}

impl Caches {
    /// Looks the MR key up, loading it on a miss; the miss penalty.
    fn mr_key(&mut self, key: u32) -> Nanos {
        if self.mr_keys.touch(&key).is_some() {
            0
        } else {
            self.mr_keys.insert(key, ());
            COST.mr_miss_ns
        }
    }

    /// Looks up the PTE of every page of `[addr, addr+len)` under `key`,
    /// loading each one that misses; the summed miss penalty.
    fn ptes(&mut self, key: u32, addr: u64, len: usize) -> Nanos {
        let first = addr >> PAGE_SHIFT;
        let last = (addr + len.max(1) as u64 - 1) >> PAGE_SHIFT;
        let mut pen = 0;
        for vpn in first..=last {
            if self.ptes.touch(&(key, vpn)).is_none() {
                self.ptes.insert((key, vpn), ());
                pen += COST.pte_miss_ns;
            }
        }
        pen
    }

    /// Looks the QP context up, loading it on a miss; the miss penalty.
    fn qpc(&mut self, qpn: u64) -> Nanos {
        if self.qpc.touch(&qpn).is_some() {
            0
        } else {
            self.qpc.insert(qpn, ());
            COST.qp_miss_ns
        }
    }
}

/// Everything a post touches on one NIC, behind the NIC's one lock: the
/// SRAM caches, the request engine and both links, the MR and QP tables
/// and the responder's atomic memo. A post takes it once per side
/// ([`Pair`]) and books every grant of its chain under it.
struct NicState {
    sram: Caches,
    /// WQE processing engine (FCFS).
    engine: Fluid,
    /// Egress link.
    tx: Fluid,
    /// Ingress link (cut-through: contended only when several senders
    /// target this NIC at once).
    rx: Fluid,
    mrs: KeyMap<u32, Arc<MrInner>>,
    qps: KeyMap<QpId, Arc<Qp>>,
    /// Responder-side exactly-once filter for *tagged* atomics: per
    /// requester node, a direct-mapped window of (sequence, old value),
    /// slot `sequence % ATOMIC_MEMO_WINDOW`. A retried atomic whose first
    /// attempt already applied (its ack leg was lost) hits the memo and
    /// gets its original old value back instead of applying twice. Keyed
    /// by the requester's per-logical-op sequence, which the layer above
    /// must keep stable across retry attempts of the same logical op.
    atomic_memo: KeyMap<NodeId, MemoWindow>,
}

/// The state of the two NICs one post touches, each locked once for the
/// whole post — one guard when the post loops back to its own NIC. Two
/// NICs lock in node order, so posts in opposite directions cannot
/// deadlock.
struct Pair<'n> {
    local: MutexGuard<'n, NicState>,
    remote: Option<MutexGuard<'n, NicState>>,
}

impl<'n> Pair<'n> {
    fn lock(local: &'n Nic, remote: &'n Nic) -> Self {
        if std::ptr::eq(local, remote) {
            let local = local.state.lock();
            return Pair {
                local,
                remote: None,
            };
        }
        let (local, remote) = if local.node < remote.node {
            let l = local.state.lock();
            (l, remote.state.lock())
        } else {
            let r = remote.state.lock();
            (local.state.lock(), r)
        };
        Pair {
            local,
            remote: Some(remote),
        }
    }

    fn local(&mut self) -> &mut NicState {
        &mut self.local
    }

    fn remote(&mut self) -> &mut NicState {
        match &mut self.remote {
            Some(remote) => remote,
            None => &mut self.local,
        }
    }
}

impl NicState {
    /// Looks up a QP by number.
    fn qp(&self, id: QpId) -> VerbsResult<Arc<Qp>> {
        self.qps
            .get(&id)
            .cloned()
            .ok_or(VerbsError::BadQp { qp: id })
    }

    /// Receive-side arrival: the last byte of a `len`-byte transfer whose
    /// first byte hits this NIC at `first_byte`. Cut-through: an
    /// uncontended receive finishes exactly one serialization after the
    /// first byte; competing senders queue on the ingress link.
    fn arrival(&mut self, first_byte: Nanos, len: usize) -> Nanos {
        self.rx
            .acquire(first_byte, COST.link_time(len as u64))
            .finish
    }

    /// Resolves a local SGE to physical fragments, charging this NIC's
    /// SRAM penalties exactly as the hardware would. The MR is read in
    /// place, not cloned.
    fn resolve_local<'a>(&mut self, sge: SgeRef<'a>) -> VerbsResult<Resolved<'a>> {
        let NicState { sram: c, mrs, .. } = self;
        let mr = |key| mrs.get(&key).ok_or(VerbsError::BadKey { key });
        match sge {
            SgeRef::Virt { lkey, addr, len } => {
                let MrKind::Virt {
                    space,
                    base,
                    len: mrlen,
                } = &mr(lkey)?.kind
                else {
                    return Err(VerbsError::BadKey { key: lkey });
                };
                check_bounds(addr, len, *base, *mrlen)?;
                let penalty = c.mr_key(lkey) + c.ptes(lkey, addr, len);
                let chunks = Frags::Owned(space.translate_range(addr, len as u64)?);
                Ok(Resolved { chunks, penalty })
            }
            SgeRef::Phys { lkey, chunks } => {
                let MrKind::Phys { base, len: mrlen } = mr(lkey)?.kind else {
                    return Err(VerbsError::BadKey { key: lkey });
                };
                for chunk in chunks {
                    check_bounds(chunk.addr, chunk.len as usize, base, mrlen)?;
                }
                let penalty = c.mr_key(lkey);
                let chunks = Frags::Borrowed(chunks);
                Ok(Resolved { chunks, penalty })
            }
        }
    }

    /// Resolves a remote address (this NIC acting as the *target* of a
    /// one-sided operation), charging this NIC's SRAM penalties.
    fn resolve_remote(
        &mut self,
        remote: &RemoteAddr,
        len: usize,
        need_write: bool,
        need_read: bool,
        need_atomic: bool,
    ) -> VerbsResult<Resolved<'static>> {
        let NicState { sram: c, mrs, .. } = self;
        let mr = mrs
            .get(&remote.rkey)
            .ok_or(VerbsError::BadKey { key: remote.rkey })?;
        let a = &mr.access;
        if (need_write && !a.remote_write)
            || (need_read && !a.remote_read)
            || (need_atomic && !a.remote_atomic)
        {
            return Err(VerbsError::AccessDenied { key: remote.rkey });
        }
        match &mr.kind {
            MrKind::Virt {
                space,
                base,
                len: mrlen,
            } => {
                check_bounds(remote.addr, len, *base, *mrlen)?;
                let penalty = c.mr_key(remote.rkey) + c.ptes(remote.rkey, remote.addr, len);
                let chunks = Frags::Owned(space.translate_range(remote.addr, len as u64)?);
                Ok(Resolved { chunks, penalty })
            }
            MrKind::Phys { base, len: mrlen } => {
                check_bounds(remote.addr, len, *base, *mrlen)?;
                let penalty = c.mr_key(remote.rkey);
                let chunks = Frags::One(Chunk {
                    addr: remote.addr,
                    len: len as u64,
                });
                Ok(Resolved { chunks, penalty })
            }
        }
    }

    fn memo_get(&self, src: NodeId, seq: u64) -> Option<u64> {
        let (kept, old) = self.atomic_memo.get(&src)?[seq as usize % ATOMIC_MEMO_WINDOW];
        (kept == seq).then_some(old)
    }

    fn memo_put(&mut self, src: NodeId, seq: u64, old: u64) {
        let memo = self
            .atomic_memo
            .entry(src)
            .or_insert_with(|| vec![NO_TOKEN; ATOMIC_MEMO_WINDOW].into_boxed_slice());
        memo[seq as usize % ATOMIC_MEMO_WINDOW] = (seq, old);
    }
}

/// Aggregate NIC statistics for assertions and reports.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// One-sided + atomic operations issued from this NIC.
    pub one_sided_ops: u64,
    /// Two-sided sends issued from this NIC.
    pub send_ops: u64,
    /// Payload bytes transmitted.
    pub bytes_tx: u64,
    /// MR-key cache hits/misses.
    pub mr_hits: u64,
    /// MR-key cache misses.
    pub mr_misses: u64,
    /// PTE cache hits.
    pub pte_hits: u64,
    /// PTE cache misses.
    pub pte_misses: u64,
    /// QP-context cache misses.
    pub qp_misses: u64,
    /// Always 0: the NIC pins every page of a user MR at registration
    /// and takes no page fault. Pin-free registration is LITE's
    /// (`lite::mm`), and `MmReport::first_touch_faults` counts its
    /// first-touch faults.
    pub page_faults: u64,
    /// Virtual nanoseconds of service this NIC's WQE engine has handed
    /// out, as requester and as responder. Over an interval of virtual
    /// time it is the engine's utilisation.
    pub engine_busy_ns: Nanos,
    /// Atomics (fetch-add, cmp-swap) this NIC's engine executed as the
    /// responder; each costs it `nic_engine_ns + atomic_extra_ns`, a read
    /// or write `nic_engine_ns`.
    pub atomic_ops: u64,
    /// Registered MRs currently live.
    pub live_mrs: usize,
    /// QPs currently live.
    pub live_qps: usize,
}

/// What each cell of a NIC's ledgers counts.
mod gauge {
    /// One-sided verbs this NIC issued, and the bytes its writes sent.
    pub const ONE_SIDED: usize = 0;
    /// Two-sided sends this NIC issued, and their bytes.
    pub const SEND: usize = 1;
    /// Atomics this NIC's engine executed as the responder.
    pub const ATOMIC: usize = 2;
    pub const COUNT: usize = 3;
}

/// One simulated RNIC.
pub struct Nic {
    node: NodeId,
    fabric: Weak<IbFabric>,
    /// The NIC's one lock. Lock order: the states of two NICs in node
    /// order ([`Pair`]), then what a post reaches under them — receive
    /// queues, CQs, pages of simulated memory, the fabric's fault plan.
    /// Nothing takes a NIC's state while it holds one of those.
    state: Mutex<NicState>,
    /// The ledgers of the contexts that post through this NIC or whose
    /// atomics it executes: ops and bytes per [`gauge`] cell, folded by
    /// [`Nic::stats`].
    gauges: Arc<Book>,
}

/// Per-source window of remembered atomic sequences. Sequences are
/// minted in increasing order per source, so a token is forgotten once
/// the one `ATOMIC_MEMO_WINDOW` after it lands in its slot; the window
/// only needs to out-last the deepest retry pipeline (one in-flight
/// logical atomic per requester context).
pub const ATOMIC_MEMO_WINDOW: usize = 1024;

/// One source's memo: `(sequence, old value)` per slot.
type MemoWindow = Box<[(u64, u64)]>;

/// What an empty memo slot holds: a sequence no source mints.
const NO_TOKEN: (u64, u64) = (u64::MAX, 0);

/// The physical fragments behind one end of a work request: borrowed
/// from the poster's SGE, a single extent held inline, or a translated
/// list — only the last (user-space virtual MRs) touches the heap.
enum Frags<'a> {
    One(Chunk),
    Borrowed(&'a [Chunk]),
    Owned(Vec<Chunk>),
}

impl std::ops::Deref for Frags<'_> {
    type Target = [Chunk];
    fn deref(&self) -> &[Chunk] {
        match self {
            Frags::One(c) => std::slice::from_ref(c),
            Frags::Borrowed(cs) => cs,
            Frags::Owned(cs) => cs,
        }
    }
}

/// A buffer resolved to physical fragments.
struct Resolved<'a> {
    chunks: Frags<'a>,
    penalty: Nanos,
}

/// One work request of a doorbell chain ([`Nic::post_chain`]): any
/// one-sided verb towards the QP's peer. Chained WQEs are unsignaled —
/// the chain returns every completion stamp to the poster.
#[derive(Debug, Clone, Copy)]
pub enum Wr<'a> {
    /// RDMA write of the local `sge` to `remote`.
    Write {
        /// Local payload description.
        sge: SgeRef<'a>,
        /// Remote destination.
        remote: RemoteAddr,
        /// Immediate data (consumes a remote receive credit when present).
        imm: Option<u32>,
    },
    /// RDMA read of `remote` into the local `sge`.
    Read {
        /// Local landing buffer.
        sge: SgeRef<'a>,
        /// Remote source.
        remote: RemoteAddr,
    },
    /// Atomic fetch-and-add on the remote u64.
    FetchAdd {
        /// The remote word.
        remote: RemoteAddr,
        /// Addend.
        delta: u64,
        /// Exactly-once token `(requester node, per-logical-op
        /// sequence)`. The sequence must be allocated once per *logical*
        /// op and reused verbatim on every retry attempt: the responder
        /// memoizes the old value under it, so a retry after a lost ack
        /// returns the original result instead of applying the delta a
        /// second time. `None` applies every attempt.
        token: Option<(NodeId, u64)>,
    },
    /// Atomic compare-and-swap on the remote u64.
    CmpSwap {
        /// The remote word.
        remote: RemoteAddr,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
        /// Exactly-once token, as for [`Wr::FetchAdd`]'s: a retry after
        /// a lost ack returns the first attempt's old value and swaps
        /// nothing.
        token: Option<(NodeId, u64)>,
    },
}

/// Outcome of one work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrOutcome {
    /// When the local completion is observable. Non-decreasing along a
    /// chain: an RC QP completes its WQEs in order.
    pub completion: Nanos,
    /// When the responder executed the request: a write's data is visible
    /// in remote memory (what memory-polling receivers such as HERD and
    /// FaRM wait for), a read's data has left it, an atomic has applied.
    pub remote_visible: Nanos,
    /// The word's previous contents for atomics; 0 for reads and writes.
    pub value: u64,
}

/// One chained work request with both ends resolved (the validation
/// pass of [`Nic::post_chain`]).
struct PlannedWr<'a> {
    /// Local buffer; none for atomics.
    local: Option<Resolved<'a>>,
    /// Payload bytes (8 for atomics).
    len: usize,
    /// Local engine SRAM penalty.
    lpen: Nanos,
    remote: Resolved<'static>,
    /// Remote engine SRAM penalty.
    rpen: Nanos,
}

impl Nic {
    pub(crate) fn new(node: NodeId, fabric: Weak<IbFabric>) -> Self {
        let caches = Caches {
            mr_keys: Lru::new(COST.mr_cache_entries),
            ptes: Lru::new(COST.pte_cache_entries),
            qpc: Lru::new(COST.qp_cache_entries),
        };
        // Pipeline windows: the request engine accepts a deep WQE queue
        // (it processes WQEs from many QPs out of order, so a request
        // scheduled far ahead by ingress queueing never blocks an
        // independent one); the wire has NIC buffering worth tens of
        // microseconds.
        let engine_slack = 64_000;
        let tx_slack = COST.link_time(96 * 1024);
        let state = NicState {
            sram: caches,
            engine: Fluid::with_slack(engine_slack),
            tx: Fluid::with_slack(tx_slack),
            rx: Fluid::with_slack(tx_slack),
            mrs: KeyMap::default(),
            qps: KeyMap::default(),
            atomic_memo: KeyMap::default(),
        };
        Nic {
            node,
            fabric,
            state: Mutex::new(state),
            gauges: Arc::new(Book::new(gauge::COUNT, 0)),
        }
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn fabric(&self) -> Arc<IbFabric> {
        self.fabric.upgrade().expect("fabric alive")
    }

    /// Snapshot of counters and cache statistics.
    pub fn stats(&self) -> NicStats {
        let t = self.gauges.fold();
        let (one_sided, send) = (&t.cells[gauge::ONE_SIDED], &t.cells[gauge::SEND]);
        let st = self.state.lock();
        let c = &st.sram;
        NicStats {
            one_sided_ops: one_sided.count,
            send_ops: send.count,
            bytes_tx: one_sided.bytes + send.bytes,
            mr_hits: c.mr_keys.hits(),
            mr_misses: c.mr_keys.misses(),
            pte_hits: c.ptes.hits(),
            pte_misses: c.ptes.misses(),
            qp_misses: c.qpc.misses(),
            page_faults: 0,
            engine_busy_ns: st.engine.busy_time(),
            atomic_ops: t.cells[gauge::ATOMIC].count,
            live_mrs: st.mrs.len(),
            live_qps: st.qps.len(),
        }
    }

    /// Resets queueing state between experiments (caches keep warmth).
    pub fn reset_resources(&self) {
        let mut st = self.state.lock();
        st.engine.reset();
        st.tx.reset();
        st.rx.reset();
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers a user-space MR over `[addr, addr+len)` in `space`,
    /// pinning every page (the Figure 8 cost).
    pub fn register_mr(
        &self,
        ctx: &mut Ctx,
        space: &Arc<AddrSpace>,
        addr: u64,
        len: u64,
        access: Access,
    ) -> VerbsResult<Mr> {
        let pages = space.pin_range(addr, len)?;
        ctx.work(COST.reg_mr_base_ns + COST.pin_page_ns * pages as u64);
        let key = self.fabric().alloc_key();
        let inner = Arc::new(MrInner {
            key,
            kind: MrKind::Virt {
                space: Arc::clone(space),
                base: addr,
                len,
            },
            access,
        });
        self.state.lock().mrs.insert(key, inner.clone());
        Ok(Mr {
            inner,
            node: self.node,
        })
    }

    /// Registers a *physical* MR — the kernel-only verb LITE builds on
    /// (§4.1). No pinning, no page-table involvement: O(1) cost regardless
    /// of size.
    pub fn register_phys_mr(
        &self,
        ctx: &mut Ctx,
        base: u64,
        len: u64,
        access: Access,
    ) -> VerbsResult<Mr> {
        ctx.work(COST.reg_mr_base_ns);
        let key = self.fabric().alloc_key();
        let inner = Arc::new(MrInner {
            key,
            kind: MrKind::Phys { base, len },
            access,
        });
        self.state.lock().mrs.insert(key, inner.clone());
        Ok(Mr {
            inner,
            node: self.node,
        })
    }

    /// Deregisters an MR, unpinning user pages.
    ///
    /// Deregistration is continue-and-collect: the MR identity (registry
    /// entry and key-cache line) dies first and unconditionally, then
    /// every page is unpinned individually, so an unpin failure mid-list
    /// can neither resurrect the MR nor leave later pages pinned. The
    /// first unpin error, if any, is returned after the sweep completes.
    pub fn deregister_mr(&self, ctx: &mut Ctx, mr: &Mr) -> VerbsResult<()> {
        let removed = {
            let mut st = self.state.lock();
            let removed = st.mrs.remove(&mr.inner.key);
            let removed = removed.ok_or(VerbsError::BadKey { key: mr.inner.key })?;
            st.sram.mr_keys.remove(&mr.inner.key);
            removed
        };
        match &removed.kind {
            MrKind::Virt { space, base, len } => {
                // Fast path: the whole range unpins atomically.
                let (unpinned, first_err) = match space.unpin_range(*base, *len) {
                    Ok(pages) => (pages as u64, None),
                    // A page was unpinned behind our back: fall back to a
                    // per-page sweep so the rest of the range is still
                    // released.
                    Err(_) => {
                        let first = *base >> PAGE_SHIFT;
                        let last = (*base + (*len).max(1) - 1) >> PAGE_SHIFT;
                        Self::unpin_each(space, first..=last)
                    }
                };
                ctx.work(COST.dereg_mr_base_ns + COST.unpin_page_ns * unpinned);
                if let Some(e) = first_err {
                    return Err(e.into());
                }
            }
            MrKind::Phys { .. } => ctx.work(COST.dereg_mr_base_ns),
        }
        Ok(())
    }

    /// Unpins each page (by vpn), continuing past failures; returns the
    /// number of pages released and the first error encountered.
    fn unpin_each(
        space: &Arc<AddrSpace>,
        vpns: impl Iterator<Item = u64>,
    ) -> (u64, Option<smem::MemError>) {
        let mut unpinned = 0u64;
        let mut first_err = None;
        for vpn in vpns {
            match space.unpin_range(vpn << PAGE_SHIFT, PAGE_SIZE as u64) {
                Ok(_) => unpinned += 1,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        (unpinned, first_err)
    }

    // ------------------------------------------------------------------
    // QPs
    // ------------------------------------------------------------------

    /// Creates a QP with fresh CQs and receive queue.
    pub fn create_qp(&self, typ: QpType) -> Arc<Qp> {
        self.create_qp_with(
            typ,
            Arc::new(Cq::new()),
            Arc::new(Cq::new()),
            Arc::new(RecvQueue::new()),
        )
    }

    /// Creates a QP sharing the given CQs / receive queue (SRQ-style
    /// sharing; LITE attaches all its QPs to one shared recv CQ).
    pub fn create_qp_with(
        &self,
        typ: QpType,
        send_cq: Arc<Cq>,
        recv_cq: Arc<Cq>,
        rq: Arc<RecvQueue>,
    ) -> Arc<Qp> {
        let qp = Arc::new(Qp::new(
            self.fabric().alloc_qp_id(),
            self.node,
            typ,
            send_cq,
            recv_cq,
            rq,
        ));
        self.state.lock().qps.insert(qp.id, Arc::clone(&qp));
        qp
    }

    /// Destroys a QP.
    pub fn destroy_qp(&self, qp: &Arc<Qp>) {
        let mut st = self.state.lock();
        st.qps.remove(&qp.id);
        st.sram.qpc.remove(&qp.id);
    }

    /// Looks up a QP by number.
    pub fn qp(&self, id: QpId) -> VerbsResult<Arc<Qp>> {
        self.state.lock().qp(id)
    }

    /// Posts a receive entry on a QP's receive queue.
    pub fn post_recv(&self, ctx: &mut Ctx, qp: &Qp, entry: RecvEntry) {
        ctx.work(COST.post_wr_ns);
        qp.rq.post(entry);
    }

    pub(crate) fn close_all_cqs(&self) {
        for qp in self.state.lock().qps.values() {
            qp.send_cq.close();
            qp.recv_cq.close();
        }
    }

    fn check_up(&self, fabric: &IbFabric, peer: NodeId) -> VerbsResult<()> {
        if fabric.is_down(self.node) || fabric.is_down(peer) {
            return Err(VerbsError::Timeout);
        }
        Ok(())
    }

    /// The per-WR fault gate, run before any side effect: broken-QP
    /// check, the installed fault plan, then node liveness. Injected
    /// delays advance the caller's virtual clock; drops surface as
    /// [`VerbsError::Timeout`] (RC retry exhaustion), breaks as
    /// [`VerbsError::QpBroken`]. Runs *before* `check_up` so the plan's
    /// operation counter keeps advancing while nodes are down — that is
    /// what makes scheduled restarts reachable under retry traffic.
    fn fault_gate(
        &self,
        ctx: &mut Ctx,
        fabric: &IbFabric,
        qp: &Qp,
        peer: NodeId,
    ) -> VerbsResult<()> {
        if qp.is_broken() {
            return Err(VerbsError::QpBroken { qp: qp.id });
        }
        match fabric.fault_check(self.node, peer, Some(qp)) {
            FaultAction::None => {}
            FaultAction::Delay(d) => ctx.wait_until(ctx.now() + d),
            FaultAction::Drop => return Err(VerbsError::Timeout),
            FaultAction::BreakQp => return Err(VerbsError::QpBroken { qp: qp.id }),
        }
        self.check_up(fabric, peer)
    }

    // ------------------------------------------------------------------
    // One-sided verbs
    // ------------------------------------------------------------------

    /// Posts a one-sided RDMA write (optionally with immediate data).
    ///
    /// Executes the whole wire path and returns the completion stamp. The
    /// caller's clock advances only by the post cost — poll the send CQ
    /// (if `signaled`) or [`simnet::ctx::Ctx::wait_until`] the returned
    /// stamp for blocking semantics.
    #[allow(clippy::too_many_arguments)]
    pub fn post_write(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wr_id: u64,
        sge: &Sge,
        remote: RemoteAddr,
        imm: Option<u32>,
        signaled: bool,
    ) -> VerbsResult<Nanos> {
        self.post_write_outcome(ctx, qp, wr_id, sge, remote, imm, signaled)
            .map(|o| o.completion)
    }

    /// Like [`Nic::post_write`], but also reports when the data became
    /// visible in remote memory (for memory-polling receivers).
    #[allow(clippy::too_many_arguments)]
    pub fn post_write_outcome(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wr_id: u64,
        sge: &Sge,
        remote: RemoteAddr,
        imm: Option<u32>,
        signaled: bool,
    ) -> VerbsResult<WrOutcome> {
        let wr = Wr::Write {
            sge: sge.as_ref(),
            remote,
            imm,
        };
        let o = self.post_one(ctx, qp, wr)?;
        if signaled {
            let mut wc = Wc::new(wr_id, WcOpcode::RdmaWrite, sge.len(), o.completion);
            wc.imm = imm;
            qp.send_cq.push(wc);
        }
        Ok(o)
    }

    /// Posts a one-sided RDMA read. Data lands in the local SGE buffer.
    pub fn post_read(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wr_id: u64,
        sge: &Sge,
        remote: RemoteAddr,
        signaled: bool,
    ) -> VerbsResult<Nanos> {
        let wr = Wr::Read {
            sge: sge.as_ref(),
            remote,
        };
        let comp = self.post_one(ctx, qp, wr)?.completion;
        if signaled {
            qp.send_cq
                .push(Wc::new(wr_id, WcOpcode::RdmaRead, sge.len(), comp));
        }
        Ok(comp)
    }

    /// One-sided atomic fetch-and-add on a remote 8-byte word. Blocking:
    /// the caller's clock advances to completion; returns the old value.
    pub fn fetch_add(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        remote: RemoteAddr,
        delta: u64,
    ) -> VerbsResult<u64> {
        let wr = Wr::FetchAdd {
            remote,
            delta,
            token: None,
        };
        self.atomic_op(ctx, qp, wr)
    }

    /// One-sided atomic compare-and-swap; returns the old value.
    pub fn cmp_swap(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        remote: RemoteAddr,
        expect: u64,
        new: u64,
    ) -> VerbsResult<u64> {
        let wr = Wr::CmpSwap {
            remote,
            expect,
            new,
            token: None,
        };
        self.atomic_op(ctx, qp, wr)
    }

    /// The blocking atomic verbs: a one-element chain, then wait for the
    /// completion and reap it.
    fn atomic_op(&self, ctx: &mut Ctx, qp: &Qp, wr: Wr) -> VerbsResult<u64> {
        let o = self.post_one(ctx, qp, wr)?;
        ctx.wait_until(o.completion);
        ctx.work(COST.cq_poll_ns);
        Ok(o.value)
    }

    /// The single verbs are one-element chains.
    fn post_one(&self, ctx: &mut Ctx, qp: &Qp, wr: Wr) -> VerbsResult<WrOutcome> {
        let mut out = None;
        self.post_chain(ctx, qp, &[wr], |o| out = Some(o))?;
        Ok(out.expect("a chain that succeeded acknowledged its work request"))
    }

    /// Posts an ordered chain of one-sided work requests — any mix of
    /// write, read, fetch-add and cmp-swap — on one QP with a single
    /// doorbell.
    ///
    /// The host pays `post_wr_ns` and the QP-context lookup **once** for
    /// the whole chain, and the WQE-engine charges are granted in one
    /// batch ([`Fluid::acquire_batch`]) — this is the amortization a
    /// real NIC gets from doorbell batching. Everything downstream of the
    /// local engine (wire serialization, remote resolution and engine,
    /// delivery ordering, receive credits, the atomic's stamped apply) is
    /// charged per WQE, so a one-element chain *is* the single verb.
    ///
    /// The responder executes the chain in order: a read or atomic never
    /// starts before the work request ahead of it has executed, and
    /// completion stamps are non-decreasing. Nothing blocks: the caller's
    /// clock advances by the post cost only.
    ///
    /// Each NIC's state ([`NicState`]: SRAM, engine, links, MR and QP
    /// tables, atomic memo) is locked once for the whole chain, and every
    /// grant is booked under that guard.
    ///
    /// The chain is atomic with respect to validation: every SGE, remote
    /// address, and receive credit is checked/claimed, and the request-leg
    /// fault gate run once, before any memory is touched. The only
    /// failure past that point is an atomic's lost ack
    /// ([`IbFabric::fault_check_ack`]): the chain stops there.
    ///
    /// Each work request that executed *and* was acknowledged has its
    /// outcome handed to `ack`, in chain order, so nothing is collected
    /// on the poster's behalf (a chain of one — every single verb —
    /// touches no heap). On `Err` the outcomes already handed over are
    /// the acknowledged prefix: none when the chain failed before any
    /// side effect (validation, receive credits, the request-leg fault
    /// gate); otherwise the next work request is the one that failed and
    /// nothing after it ran. When that one is an atomic and the error is
    /// [`VerbsError::Timeout`], its apply landed and only the ack was
    /// lost — resume from it, reusing its token.
    pub fn post_chain(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wrs: &[Wr],
        ack: impl FnMut(WrOutcome),
    ) -> VerbsResult<()> {
        self.post_chain_on(&self.fabric(), ctx, qp, wrs, ack)
    }

    /// [`Self::post_chain`] for a caller that holds this NIC's fabric:
    /// the post borrows it instead of upgrading the NIC's `Weak` (two
    /// atomic read-modify-writes a post).
    pub fn post_chain_on(
        &self,
        fabric: &IbFabric,
        ctx: &mut Ctx,
        qp: &Qp,
        wrs: &[Wr],
        mut ack: impl FnMut(WrOutcome),
    ) -> VerbsResult<()> {
        assert!(
            std::ptr::eq(fabric, self.fabric.as_ptr()),
            "a NIC posts on its own fabric"
        );
        if wrs.is_empty() {
            return Ok(());
        }
        let supported = wrs.iter().all(|wr| match wr {
            Wr::Write { .. } => qp.supports_write(),
            _ => qp.supports_read_atomic(),
        });
        if !supported {
            return Err(VerbsError::BadOpForQpType);
        }
        let (peer_node, peer_qp) = qp.peer()?;
        self.fault_gate(ctx, fabric, qp, peer_node)?;
        let rnic = fabric.try_nic(peer_node)?;

        // Validation pass: resolve both sides of every WQE and claim all
        // receive credits before touching memory, so a bad element cannot
        // leave half the chain delivered. Each NIC's state is locked once,
        // here, for the whole chain. Plans, credits and grants are held
        // inline for a chain of up to `CHAIN_INLINE` work requests.
        let mut nics = Pair::lock(self, rnic);
        let mut plans: InlineVec<PlannedWr> = InlineVec::new();
        for wr in wrs {
            plans.push(plan_wr(&mut nics, wr)?);
        }
        // The doorbell chain touches the QP context once; only the
        // first WQE can miss.
        plans[0].lpen += nics.local().sram.qpc(qp.id);
        plans[0].rpen += nics.remote().sram.qpc(peer_qp);
        let imms = wrs
            .iter()
            .filter(|wr| matches!(wr, Wr::Write { imm: Some(_), .. }))
            .count();
        let rqp = if imms > 0 {
            Some(nics.remote().qp(peer_qp)?)
        } else {
            None
        };
        let mut credits: InlineVec<Option<RecvEntry>> = InlineVec::new();
        if let Some(rqp) = &rqp {
            for _ in 0..imms {
                match rqp.rq.consume() {
                    Ok(entry) => credits.push(Some(entry)),
                    Err(e) => {
                        // Roll back: pure credits are interchangeable, so
                        // re-posting in any order restores the queue.
                        for entry in credits.iter_mut().filter_map(Option::take) {
                            rqp.rq.post(entry);
                        }
                        return Err(e);
                    }
                }
            }
        }

        // One doorbell: a single host post charge, then the engine grants
        // the whole WQE chain back-to-back.
        ctx.work(COST.post_wr_ns);
        let services = plans.iter().map(|p| COST.nic_engine_ns + p.lpen);
        let mut grants: InlineVec<Grant> = InlineVec::new();
        nics.local()
            .engine
            .acquire_batch(ctx.now(), services, &mut grants);

        let prop = COST.propagation_ns;
        let (mem, rmem): (&PhysMem, &PhysMem) = (fabric.mem(self.node), fabric.mem(peer_node));
        let mut credits = credits.iter_mut().filter_map(Option::take);
        let (mut acked, mut bytes_tx, mut atomics) = (0u64, 0u64, 0u64);
        let mut failure = None;
        // In-order execution at the responder: requests that carry no
        // payload would otherwise overtake a large write ahead of them.
        let (mut fence, mut floor) = (0, 0);
        for ((wr, plan), g1) in wrs.iter().zip(plans.iter()).zip(grants.iter()) {
            let len = plan.len;
            let rsvc = COST.nic_engine_ns + plan.rpen;
            let mut step = || -> VerbsResult<WrOutcome> {
                match *wr {
                    Wr::Write { imm, .. } => {
                        // Local NIC DMA-reads the payload and pushes it
                        // onto the wire; the remote NIC takes it off the
                        // ingress link, resolves the rkey and DMA-writes.
                        let local = plan.local.as_ref().expect("writes carry an sge");
                        let g2 = nics
                            .local()
                            .tx
                            .acquire(g1.finish, COST.link_time(len as u64));
                        let arrive = nics.remote().arrival(g2.start + prop, len);
                        let g3 = nics.remote().engine.acquire(arrive, rsvc);
                        rmem.copy_from(mem, &local.chunks, &plan.remote.chunks)?;
                        let delivered = qp.order_delivery(g3.finish);
                        // Immediate data consumes a receive credit and
                        // surfaces in the remote receive CQ.
                        if let (Some(imm), Some(rqp)) = (imm, &rqp) {
                            let entry = credits.next().expect("credit claimed per imm");
                            let mut wc = Wc::new(
                                entry.wr_id,
                                WcOpcode::RecvRdmaWithImm,
                                len,
                                delivered + COST.recv_handle_ns,
                            );
                            wc.imm = Some(imm);
                            wc.src = Some((self.node, qp.id));
                            rqp.recv_cq.push(wc);
                        }
                        bytes_tx += len as u64;
                        // RC acks; UC completes at the wire.
                        let completion = match qp.typ {
                            QpType::Rc => delivered + prop + COST.ack_ns,
                            _ => g2.finish,
                        };
                        Ok(WrOutcome {
                            completion,
                            remote_visible: delivered,
                            value: 0,
                        })
                    }
                    Wr::Read { .. } => {
                        // The (tiny) request crosses the wire; the remote
                        // NIC resolves and streams the data back, and the
                        // local NIC DMAs it into the landing buffer.
                        let local = plan.local.as_ref().expect("reads carry an sge");
                        let remote = nics.remote();
                        let g3 = remote.engine.acquire((g1.finish + prop).max(fence), rsvc);
                        let g4 = remote.tx.acquire(g3.finish, COST.link_time(len as u64));
                        let back = nics.local().arrival(g4.start + prop, len);
                        let mut completion = back + COST.ack_ns;
                        match *plan.remote.chunks {
                            // One aligned word: a stamped load, so the
                            // read observes a word that atomics maintain
                            // in their apply order (it completes after
                            // every atomic whose effect it shows) while
                            // paying what a read pays — no atomic unit,
                            // no dedup token.
                            [Chunk { addr, len: 8 }] if addr % 8 == 0 => {
                                let (word, stamp) = rmem.load_u64_stamped(addr, completion)?;
                                mem.scatter(&local.chunks, &word.to_le_bytes())?;
                                completion = stamp;
                            }
                            _ => mem.copy_from(rmem, &plan.remote.chunks, &local.chunks)?,
                        }
                        Ok(WrOutcome {
                            completion,
                            remote_visible: g3.finish,
                            value: 0,
                        })
                    }
                    Wr::FetchAdd { token, .. } | Wr::CmpSwap { token, .. } => {
                        let remote = nics.remote();
                        let g3 = remote
                            .engine
                            .acquire((g1.finish + prop).max(fence), rsvc + COST.atomic_extra_ns);
                        atomics += 1;
                        let comp = g3.finish + prop + COST.ack_ns;
                        // Exactly-once filter for tagged ops: a retry
                        // whose first attempt already applied (its ack
                        // leg was lost) short-circuits to the memoized
                        // old value — the word is never touched twice.
                        if let Some(old) = token.and_then(|(src, seq)| remote.memo_get(src, seq)) {
                            return Ok(WrOutcome {
                                completion: comp,
                                remote_visible: g3.finish,
                                value: old,
                            });
                        }
                        // Apply through the stamped variants: the
                        // completion stamp is taken inside the target
                        // page's critical section, so stamps of
                        // conflicting atomics are monotone in the order
                        // the memory system actually applied them — even
                        // when host-thread scheduling reorders the
                        // appliers relative to virtual time.
                        let target = plan.remote.chunks[0].addr;
                        let (old, stamp) = match *wr {
                            Wr::FetchAdd { delta, .. } => {
                                rmem.fetch_add_u64_stamped(target, delta, comp)?
                            }
                            Wr::CmpSwap { expect, new, .. } => {
                                rmem.cas_u64_stamped(target, expect, new, comp)?
                            }
                            _ => unreachable!("matched an atomic"),
                        };
                        // The memo is recorded before the ack-leg gate
                        // below: if the ack is dropped, the retry must
                        // find the apply it is retrying.
                        if let Some((src, seq)) = token {
                            remote.memo_put(src, seq, old);
                        }
                        // Response-leg injection point — the apply above
                        // is durable, so a Drop here is the lost-ACK
                        // window that makes blind retry of a
                        // non-idempotent verb double-apply (the
                        // request-leg gate cannot model it: it fires
                        // before side effects).
                        if fabric.fault_check_ack(self.node, peer_node) == FaultAction::Drop {
                            return Err(VerbsError::Timeout);
                        }
                        Ok(WrOutcome {
                            completion: stamp,
                            remote_visible: g3.finish,
                            value: old,
                        })
                    }
                }
            };
            match step() {
                Ok(mut o) => {
                    o.completion = o.completion.max(floor);
                    (fence, floor) = (o.remote_visible, o.completion);
                    acked += 1;
                    ack(o);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        drop(nics);
        ctx.ledger(&self.gauges)
            .record(|e| e.add(gauge::ONE_SIDED, acked, bytes_tx));
        if atomics > 0 {
            ctx.ledger(&rnic.gauges)
                .record(|e| e.add(gauge::ATOMIC, atomics, 0));
        }
        let Some(error) = failure else {
            return Ok(());
        };
        // Credits of the writes that never ran go back.
        if let Some(rqp) = &rqp {
            for entry in credits {
                rqp.rq.post(entry);
            }
        }
        Err(error)
    }

    // ------------------------------------------------------------------
    // Two-sided verbs
    // ------------------------------------------------------------------

    /// Posts a two-sided send on a connected RC/UC QP.
    pub fn post_send(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wr_id: u64,
        sge: &Sge,
        imm: Option<u32>,
        signaled: bool,
    ) -> VerbsResult<Nanos> {
        let (peer_node, peer_qp) = qp.peer()?;
        self.send_inner(ctx, qp, wr_id, sge, imm, signaled, peer_node, peer_qp, 0)
    }

    /// Posts a UD send to an explicit destination (connectionless).
    pub fn post_send_ud(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wr_id: u64,
        sge: &Sge,
        dest: (NodeId, QpId),
        signaled: bool,
    ) -> VerbsResult<Nanos> {
        if qp.typ != QpType::Ud {
            return Err(VerbsError::BadOpForQpType);
        }
        if sge.len() > COST.ud_max_payload {
            return Err(VerbsError::PayloadTooLarge {
                len: sge.len(),
                max: COST.ud_max_payload,
            });
        }
        self.send_inner(
            ctx,
            qp,
            wr_id,
            sge,
            None,
            signaled,
            dest.0,
            dest.1,
            COST.ud_extra_ns,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn send_inner(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wr_id: u64,
        sge: &Sge,
        imm: Option<u32>,
        signaled: bool,
        peer_node: NodeId,
        peer_qp: QpId,
        extra: Nanos,
    ) -> VerbsResult<Nanos> {
        let fabric = self.fabric();
        self.fault_gate(ctx, &fabric, qp, peer_node)?;
        ctx.work(COST.post_wr_ns);
        let len = sge.len();
        // Each side's state is locked once: the sender's for resolution
        // and its engine and egress grants, then the receiver's for the
        // rest.
        let (local, g2) = {
            let mut st = self.state.lock();
            let local = st.resolve_local(sge.as_ref())?;
            let lpen = local.penalty + st.sram.qpc(qp.id);
            let g1 = st
                .engine
                .acquire(ctx.now(), COST.nic_engine_ns + lpen + extra);
            let g2 = st.tx.acquire(g1.finish, COST.link_time(len as u64));
            (local, g2)
        };

        let rnic = fabric.try_nic(peer_node)?;
        let mut rs = rnic.state.lock();
        let arrive = rs.arrival(g2.start + COST.propagation_ns, len);
        let rqp = rs.qp(peer_qp)?;
        let entry = rqp.rq.consume()?;
        let mut rpen = rs.sram.qpc(peer_qp) + COST.recv_handle_ns;
        // Deliver the payload into the posted buffer. Only the payload
        // prefix of the buffer is resolved/charged — the NIC translates
        // the pages it DMAs into, not the whole posted region.
        if len > 0 {
            let dst = entry
                .sge
                .as_ref()
                .ok_or(VerbsError::RecvBufferTooSmall { need: len, have: 0 })?;
            if dst.len() < len {
                return Err(VerbsError::RecvBufferTooSmall {
                    need: len,
                    have: dst.len(),
                });
            }
            let dst = truncate_sge(dst, len);
            let rres = rs.resolve_local(dst.as_ref())?;
            rpen += rres.penalty;
            fabric
                .mem(peer_node)
                .copy_from(fabric.mem(self.node), &local.chunks, &rres.chunks)?;
        }
        let g3 = rs.engine.acquire(arrive, COST.nic_engine_ns + rpen);
        drop(rs);
        let delivered = qp.order_delivery(g3.finish);
        let mut wc = Wc::new(entry.wr_id, WcOpcode::Recv, len, delivered);
        wc.imm = imm;
        wc.src = Some((self.node, qp.id));
        rqp.recv_cq.push(wc);

        let comp = match qp.typ {
            QpType::Rc => delivered + COST.propagation_ns + COST.ack_ns,
            _ => g2.finish,
        };
        if signaled {
            qp.send_cq.push(Wc::new(wr_id, WcOpcode::Send, len, comp));
        }
        ctx.ledger(&self.gauges)
            .record(|e| e.add(gauge::SEND, 1, len as u64));
        Ok(comp)
    }
}

/// Resolves both ends of one work request, charging each NIC's SRAM
/// penalties exactly as the hardware would.
fn plan_wr<'a>(nics: &mut Pair, wr: &Wr<'a>) -> VerbsResult<PlannedWr<'a>> {
    let (sge, remote, write, read) = match *wr {
        Wr::Write { sge, remote, .. } => (Some(sge), remote, true, false),
        Wr::Read { sge, remote } => (Some(sge), remote, false, true),
        Wr::FetchAdd { remote, .. } | Wr::CmpSwap { remote, .. } => (None, remote, false, false),
    };
    let len = sge.map_or(8, |sge| sge.len());
    let local = sge.map(|sge| nics.local().resolve_local(sge));
    let local = local.transpose()?;
    let need_atomic = sge.is_none();
    let remote = nics
        .remote()
        .resolve_remote(&remote, len, write, read, need_atomic)?;
    Ok(PlannedWr {
        lpen: local.as_ref().map_or(0, |l| l.penalty),
        rpen: remote.penalty,
        local,
        len,
        remote,
    })
}

/// Restricts an SGE to its first `len` bytes.
fn truncate_sge(sge: &Sge, len: usize) -> Sge {
    match sge {
        Sge::Virt { lkey, addr, len: l } => Sge::Virt {
            lkey: *lkey,
            addr: *addr,
            len: (*l).min(len),
        },
        Sge::Phys { lkey, chunks } => {
            let mut remaining = len as u64;
            let mut out = Vec::new();
            for c in chunks {
                if remaining == 0 {
                    break;
                }
                let take = c.len.min(remaining);
                out.push(Chunk {
                    addr: c.addr,
                    len: take,
                });
                remaining -= take;
            }
            Sge::Phys {
                lkey: *lkey,
                chunks: out,
            }
        }
    }
}

fn check_bounds(addr: u64, len: usize, base: u64, mrlen: u64) -> VerbsResult<()> {
    let end = addr
        .checked_add(len as u64)
        .ok_or(VerbsError::OutOfBounds { addr, len })?;
    if addr < base || end > base + mrlen {
        return Err(VerbsError::OutOfBounds { addr, len });
    }
    Ok(())
}

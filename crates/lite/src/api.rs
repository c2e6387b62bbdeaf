//! The LITE API (paper Table 1).
//!
//! A [`LiteHandle`] is one process's view of LITE on one node. Handles
//! come in two flavors: *user-level* (charges syscall-crossing costs,
//! §5.2) and *kernel-level* (no crossings — what LITE-DSM uses). A handle
//! is intended to be used by a single thread; spawn one per worker.
//!
//! | Paper API        | Here                                     |
//! |------------------|------------------------------------------|
//! | `LT_join`        | [`crate::LiteCluster::attach`]           |
//! | `LT_malloc`      | [`LiteHandle::lt_malloc`]                |
//! | `LT_free`        | [`LiteHandle::lt_free`]                  |
//! | `LT_map/unmap`   | [`LiteHandle::lt_map`] / [`LiteHandle::lt_unmap`] |
//! | `LT_read/write`  | [`LiteHandle::lt_read`] / [`LiteHandle::lt_write`] |
//! | `LT_memset`      | [`LiteHandle::lt_memset`]                |
//! | `LT_memcpy/move` | [`LiteHandle::lt_memcpy`] / [`LiteHandle::lt_memmove`] |
//! | `LT_regRPC`      | [`LiteHandle::register_rpc`] (+ served by the delivering thread: [`LiteHandle::serve_rpc`]) |
//! | `LT_RPC`         | [`LiteHandle::lt_rpc`]                   |
//! | `LT_recvRPC`     | [`LiteHandle::lt_recv_rpc`]              |
//! | `LT_replyRPC`    | [`LiteHandle::lt_reply_rpc`] (+ combined [`LiteHandle::lt_reply_recv`]) |
//! | `LT_send`        | [`LiteHandle::lt_send`] / [`LiteHandle::lt_recv_msg`] |
//! | `LT_(un)lock`    | [`LiteHandle::lt_lock`] / [`LiteHandle::lt_unlock`] |
//! | `LT_barrier`     | [`LiteHandle::lt_barrier`]               |
//! | `LT_fetch-add`   | [`LiteHandle::lt_fetch_add`]             |
//! | `LT_test-set`    | [`LiteHandle::lt_test_set`]              |
//! | `LT_cmp-swap`    | [`LiteHandle::lt_cmp_swap`] (general CAS; `lt_test_set` delegates) |
//! | (extension)      | [`LiteHandle::lt_chain`]: ordered write/read/fetch-add/cmp-swap ops on one LMR, one doorbell, one wait |
//!
//! `lt_write`, `lt_read`, `lt_fetch_add`, `lt_test_set` and `lt_cmp_swap`
//! are `lt_chain`s of one op: all six run the same body
//! (`one_sided` → `chain_pieces`), so the paper's one indirection — lh →
//! permission check → address mapping → verb (§4.2) — is written once.
//! The file is four mechanisms (DESIGN.md §5.2): `syscall` (the crossing,
//! on every path), `heal` (the tiering retry on `Relocated`), that
//! one-sided body, and the kernel-service stubs (`k_*`, defined beside
//! their handlers in `kernel/msg.rs`) under everything that is an RPC to
//! a kernel.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rnic::{NodeId, COST};
use simnet::wait::Deadline;
use simnet::{Ctx, InlineVec, Nanos};
use smem::Chunk;

use crate::error::{LiteError, LiteResult};
use crate::kernel::datapath::{Completion, Op};
use crate::kernel::serve;
use crate::kernel::{
    CallSlot, Incoming, LhCache, LiteKernel, QpCache, ReplyRoute, RpcHandler, RpcServer, FN_MSG,
    LOCK_ABORT, LOCK_ENQUEUE, LOCK_NO_WAITER, LOCK_RELEASE, MANAGER_NODE, RPC_META_NS,
    USER_FUNC_MIN,
};
use crate::lmr::{LhEntry, LmrId, Location, Perm};
use crate::observe::{EventKind, OpClass, StatsReport};
use crate::qos::Priority;
use crate::verify::{fingerprint, HistOp, Key, OpKind};
use crate::wire::{Imm, MsgHeader, HEADER_BYTES};

/// One user/kernel crossing (§5.2 measures ~0.17 µs for the two
/// crossings left on the RPC fast path).
pub const SYSCALL_CROSSING_NS: Nanos = 85;

/// Maximum RPC payload (input or reply), in bytes.
pub const MAX_RPC_PAYLOAD: usize = 4 << 20;

/// A cluster-wide lock identity (§7.2: a 64-bit integer in an internal
/// LMR with an owner node). `Copy` — distribute it to other nodes through
/// an LMR, a message, or any other channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockId {
    /// Owner node (maintains the FIFO wait queue).
    pub node: NodeId,
    /// Physical address of the lock word on the owner node.
    pub addr: u64,
}

impl LockId {
    /// The lock word's key in the linearizability history.
    fn key(self) -> Key {
        Key::Lock {
            node: self.node,
            addr: self.addr,
        }
    }
}

/// An opaque LITE handle to an LMR (the paper's `lh`).
pub type Lh = u64;

/// An incoming RPC held by a server thread; reply through
/// [`LiteHandle::lt_reply_rpc`].
pub struct RpcCall {
    /// The request payload.
    pub input: Vec<u8>,
    /// Calling node.
    pub src_node: NodeId,
    /// Calling process.
    pub src_pid: u32,
    pub(crate) route: ReplyRoute,
}

/// One op of an [`LiteHandle::lt_chain`]: a one-sided access at byte
/// offset `off` of the chain's LMR. What an op returns lands in the op:
/// a read in its `buf`, an atomic's previous word in its `old`.
#[derive(Debug)]
pub enum ChainOp<'a> {
    /// Writes `data` at `off`.
    Write {
        /// Byte offset in the LMR.
        off: u64,
        /// Bytes to write.
        data: &'a [u8],
    },
    /// Reads `buf.len()` bytes at `off` into `buf`.
    Read {
        /// Byte offset in the LMR.
        off: u64,
        /// Where the bytes land.
        buf: &'a mut [u8],
    },
    /// Fetch-and-add on the u64 at `off`.
    FetchAdd {
        /// Byte offset of the word.
        off: u64,
        /// Addend.
        delta: u64,
        /// Set to the word's previous contents.
        old: u64,
    },
    /// Compare-and-swap `expect -> new` on the u64 at `off`.
    CmpSwap {
        /// Byte offset of the word.
        off: u64,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
        /// Set to the word's previous contents (the CAS won iff it
        /// equals `expect`).
        old: u64,
    },
}

impl ChainOp<'_> {
    /// The op's range in the LMR: offset, length and the permission it
    /// needs.
    fn range(&self) -> (u64, usize, Perm) {
        match *self {
            ChainOp::Write { off, data } => (off, data.len(), Perm::RW),
            ChainOp::Read { off, ref buf } => (off, buf.len(), Perm::RO),
            ChainOp::FetchAdd { off, .. } | ChainOp::CmpSwap { off, .. } => (off, 8, Perm::RW),
        }
    }

    /// Bytes the op stages: a write's payload, a read's landing zone.
    fn staged(&self) -> usize {
        match self {
            ChainOp::Write { data, .. } => data.len(),
            ChainOp::Read { buf, .. } => buf.len(),
            ChainOp::FetchAdd { .. } | ChainOp::CmpSwap { .. } => 0,
        }
    }

    /// The word a completed op observed: an atomic's previous contents,
    /// or what an 8-byte read fetched; `None` for anything else.
    pub fn word(&self) -> Option<u64> {
        match self {
            ChainOp::FetchAdd { old, .. } | ChainOp::CmpSwap { old, .. } => Some(*old),
            ChainOp::Read { buf, .. } => (**buf).try_into().ok().map(u64::from_le_bytes),
            ChainOp::Write { .. } => None,
        }
    }
}

/// A physical scratch region owned by a handle; none yet while `cap`
/// is 0.
struct Scratch {
    addr: u64,
    cap: usize,
}

const NO_SCRATCH: Scratch = Scratch { addr: 0, cap: 0 };

/// One process's LITE endpoint.
pub struct LiteHandle {
    kernel: Arc<LiteKernel>,
    pid: u32,
    user_level: bool,
    prio: Priority,
    staging: Scratch,
    reply: Scratch,
    /// Reply cells for multicast calls, one `max_reply`-sized cell per
    /// destination, allocated by the first multicast. Persistent
    /// like [`LiteHandle::reply`] (never freed while the handle lives):
    /// a straggler reply landing after a slot timeout scribbles scratch
    /// this handle owns, never allocator memory someone else reused.
    mcast_reply: Scratch,
    /// This handle's copies of its lh entries and of the QP pools it
    /// posts on: a warm one-sided call takes neither table's lock.
    lh_cache: LhCache,
    qp_cache: QpCache,
}

const INIT_SCRATCH: usize = 64 * 1024;

impl LiteHandle {
    pub(crate) fn new(kernel: Arc<LiteKernel>, user_level: bool) -> LiteResult<Self> {
        let mut handle = LiteHandle {
            pid: kernel.alloc_pid(),
            kernel,
            user_level,
            prio: Priority::High,
            staging: NO_SCRATCH,
            reply: NO_SCRATCH,
            mcast_reply: NO_SCRATCH,
            lh_cache: LhCache::default(),
            qp_cache: QpCache::default(),
        };
        Self::ensure(&handle.kernel, &mut handle.staging, 1)?;
        Self::ensure(&handle.kernel, &mut handle.reply, 1)?;
        Ok(handle)
    }

    /// The node this handle lives on.
    pub fn node(&self) -> NodeId {
        self.kernel.node()
    }

    /// Process id on this node.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Sets the priority for subsequent operations (QoS, §6.2).
    pub fn set_priority(&mut self, prio: Priority) {
        self.prio = prio;
    }

    /// Current priority.
    pub fn priority(&self) -> Priority {
        self.prio
    }

    /// The kernel under this handle (stats, QoS control).
    pub fn kernel(&self) -> &Arc<LiteKernel> {
        &self.kernel
    }

    /// Structured observability report for this node: per-class latency
    /// percentiles, per-peer gauges and liveness, trace-ring occupancy,
    /// and QoS state (see DESIGN.md "Observability").
    pub fn lt_stats(&self) -> StatsReport {
        self.kernel.lt_stats()
    }

    /// The cluster-wide LMR id behind a local handle. The id is stable
    /// across chunk migrations (only the physical location moves), so
    /// tooling can use it to target `MmRequest`s at a specific LMR.
    pub fn lh_id(&self, lh: Lh) -> LiteResult<crate::lmr::LmrId> {
        self.kernel.with_lh(self.pid, lh, |entry| Ok(entry.id))
    }

    /// Records a completed API-level round trip (RPC/lock/barrier) into
    /// the class histograms and — when sampled — the trace ring. Spans
    /// feed only the class view; the datapath posts underneath them
    /// already account per-peer traffic.
    fn span(&self, ctx: &mut Ctx, class: OpClass, peer: NodeId, start: Nanos, end: Nanos) {
        let obs = self.kernel.observe();
        obs.record_span(ctx, class, self.prio, end.saturating_sub(start));
        if obs.sample(ctx) {
            let id = obs.next_op_id();
            obs.trace(id, class, EventKind::Posted, self.prio, peer, start);
            obs.trace(id, class, EventKind::Completed, self.prio, peer, end);
        }
    }

    /// Appends one op to the linearizability history, when recording is
    /// armed (see [`crate::LiteCluster::record_history`]). One `OnceLock`
    /// load when unarmed: `kind` — payload fingerprints included — is
    /// computed only for an armed log.
    fn record_hist(
        &self,
        key: Key,
        kind: impl FnOnce() -> OpKind,
        ret: u64,
        ok: bool,
        invoke: Nanos,
        response: Nanos,
    ) {
        let Some(log) = self.kernel.observe().history() else {
            return;
        };
        log.record(HistOp {
            proc: crate::verify::proc_id(self.kernel.node(), self.pid),
            key,
            kind: kind(),
            ret,
            ok,
            invoke,
            response,
        });
    }

    /// [`Self::record_hist`] for a read or write of `len` bytes at
    /// `offset` of the LMR `id`.
    #[allow(clippy::too_many_arguments)]
    fn record_reg(
        &self,
        id: LmrId,
        offset: u64,
        len: usize,
        kind: impl FnOnce() -> OpKind,
        ok: bool,
        invoke: Nanos,
        response: Nanos,
    ) {
        let key = Key::Reg {
            node: id.node,
            idx: id.idx,
            offset,
            len: len as u64,
        };
        self.record_hist(key, kind, 0, ok, invoke, response);
    }

    // ------------------------------------------------------------------
    // syscall model
    // ------------------------------------------------------------------

    /// Runs `body` as one simulated system call: the crossing in, and the
    /// return on every path — a call that fails still came back from the
    /// kernel.
    fn syscall<T>(
        &mut self,
        ctx: &mut Ctx,
        body: impl FnOnce(&mut Self, &mut Ctx) -> LiteResult<T>,
    ) -> LiteResult<T> {
        // Back outside every `lt_*` call, the thread runs the served calls
        // its deliveries dispatched (DESIGN.md §5.3).
        serve::in_call(ctx, |ctx| {
            if self.user_level {
                ctx.work(SYSCALL_CROSSING_NS);
            }
            let result = body(self, ctx);
            // With the §5.2 optimizations the return path is observed
            // through the shared page — no further crossing. The ablation
            // restores the full syscall return plus a re-entry to fetch
            // results.
            if self.user_level && !self.kernel.config.fast_syscalls {
                ctx.work(2 * SYSCALL_CROSSING_NS);
            }
            result
        })
    }

    /// One synchronization call (§7.2): a syscall whose round trip goes
    /// into the linearizability history under `key` and, when it
    /// succeeded and `span` names a class and peer, into that class's
    /// latency view.
    fn sync_call(
        &mut self,
        ctx: &mut Ctx,
        key: Key,
        kind: OpKind,
        span: Option<(OpClass, NodeId)>,
        body: impl FnOnce(&mut Self, &mut Ctx) -> LiteResult<()>,
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let start = ctx.now();
            let result = body(this, ctx);
            let end = ctx.now();
            this.record_hist(key, || kind, 0, result.is_ok(), start, end);
            if let (Ok(()), Some((class, peer))) = (&result, span) {
                this.span(ctx, class, peer, start, end);
            }
            result
        })
    }

    // ------------------------------------------------------------------
    // scratch management (simulation plumbing: user buffers live in Rust
    // memory; LITE addresses them physically with zero copies, so moving
    // bytes into the scratch region carries no virtual-time cost)
    // ------------------------------------------------------------------

    fn ensure(kernel: &LiteKernel, s: &mut Scratch, need: usize) -> LiteResult<()> {
        if need <= s.cap {
            return Ok(());
        }
        let new_cap = need.max(INIT_SCRATCH).next_power_of_two();
        let mut a = kernel.alloc.lock();
        let new_addr = a.alloc(new_cap as u64)?;
        if s.cap > 0 {
            a.free(s.addr)?;
        }
        s.addr = new_addr;
        s.cap = new_cap;
        Ok(())
    }

    fn stage(&mut self, data: &[u8]) -> LiteResult<u64> {
        Self::ensure(&self.kernel, &mut self.staging, data.len())?;
        self.kernel
            .fabric()
            .mem(self.kernel.node())
            .write(self.staging.addr, data)?;
        Ok(self.staging.addr)
    }

    // ------------------------------------------------------------------
    // kernel-call plumbing
    // ------------------------------------------------------------------

    /// The request half of an RPC: reserves ring space at `server`,
    /// claims a completion slot (none for a one-way message), writes the
    /// header at the front of `gather` — room for it, then the staged
    /// input — and posts `gather` as one write-imm (§5.1 step 2). The
    /// server writes its reply to `reply_at`, `max_reply` bytes at most. A
    /// failure releases the slot.
    pub(crate) fn post_request(
        &self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        gather: &[Chunk],
        (reply_at, max_reply): (u64, usize),
        oneway: bool,
    ) -> LiteResult<Option<Posted>> {
        let total = gather.iter().map(|c| c.len as usize).sum();
        let r = self.kernel.reserve_ring(ctx, server, total as u64)?;
        let posted = (!oneway).then(|| self.kernel.alloc_slot());
        let hdr = MsgHeader {
            func,
            slot: posted.as_ref().map_or(0, |(id, _)| *id),
            len: (total - HEADER_BYTES) as u32,
            reply_addr: reply_at,
            reply_max: max_reply as u32,
            src_node: self.kernel.node() as u32,
            src_pid: self.pid,
            skip: r.skip as u32,
        };
        let mem = self.kernel.fabric().mem(self.kernel.node());
        let sent = mem
            .write(gather[0].addr, &hdr.encode())
            .map_err(LiteError::from)
            .and_then(|()| {
                let dst = self.kernel.ring_remote_addr(server, r.offset)?;
                let imm = Imm::Request {
                    granule: (r.offset / crate::wire::RING_GRANULE) as u32,
                };
                self.kernel
                    .post_write_imm(ctx, self.prio, server, dst, gather, total, imm)
            });
        if let (Err(_), Some((slot_id, _))) = (&sent, &posted) {
            self.kernel.free_slot(*slot_id);
        }
        sent.map(|_| posted)
    }

    /// The reply half of an RPC (a one-way message has none): waits on
    /// the slot and frees it, whatever the outcome, then checks status and
    /// length and copies the reply out of `reply_at`, where the server
    /// RDMA-wrote it (zero-copy at the client). With `span`, the round
    /// trip from that start towards that server is recorded as an RPC
    /// span.
    fn harvest_reply(
        &self,
        ctx: &mut Ctx,
        func: u8,
        posted: Option<Posted>,
        (reply_at, max_reply): (u64, usize),
        span: Option<(NodeId, Nanos)>,
    ) -> LiteResult<Vec<u8>> {
        let Some((slot_id, slot)) = posted else {
            return Ok(Vec::new());
        };
        let waited = slot.wait(ctx, &self.kernel.config);
        self.kernel.free_slot(slot_id);
        let res = waited?;
        if let Some((server, start)) = span {
            self.span(ctx, OpClass::Rpc, server, start, res.stamp);
        }
        if !res.ok {
            return Err(LiteError::UnknownRpc { func });
        }
        let (len, max) = (res.len as usize, max_reply);
        if len > max {
            return Err(LiteError::TooLarge { len, max });
        }
        let mut out = vec![0u8; len];
        let mem = self.kernel.fabric().mem(self.kernel.node());
        mem.read(reply_at, &mut out)?;
        Ok(out)
    }

    /// Sends one LITE RPC (request write-imm → slot wait) and returns the
    /// reply bytes. `func` may be a kernel service or a user function.
    pub(crate) fn call_raw(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        payload: &[u8],
        max_reply: usize,
        oneway: bool,
    ) -> LiteResult<Vec<u8>> {
        if payload.len() > MAX_RPC_PAYLOAD {
            return Err(LiteError::TooLarge {
                len: payload.len(),
                max: MAX_RPC_PAYLOAD,
            });
        }
        ctx.work(RPC_META_NS);
        let span_start = ctx.now();
        // Header and input are staged back to back: one gather chunk.
        let total = HEADER_BYTES + payload.len();
        Self::ensure(&self.kernel, &mut self.staging, total)?;
        Self::ensure(&self.kernel, &mut self.reply, max_reply.max(1))?;
        let staged = self.staging.addr;
        let mem = self.kernel.fabric().mem(self.kernel.node());
        mem.write(staged + HEADER_BYTES as u64, payload)?;
        let gather = [Chunk {
            addr: staged,
            len: total as u64,
        }];
        let reply = (self.reply.addr, max_reply);
        let posted = self.post_request(ctx, server, func, &gather, reply, oneway)?;
        self.harvest_reply(ctx, func, posted, reply, Some((server, span_start)))
    }

    // ------------------------------------------------------------------
    // Memory API
    // ------------------------------------------------------------------

    /// LT_malloc: allocates a `size`-byte LMR on `target` (any node,
    /// including this one), names it, and returns a master lh.
    pub fn lt_malloc(
        &mut self,
        ctx: &mut Ctx,
        target: NodeId,
        size: u64,
        name: &str,
        default_perm: Perm,
    ) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| {
            let reg_started = ctx.now();
            let chunks = this.k_malloc(ctx, target, size)?;
            let location = Location {
                extents: chunks.iter().map(|c| (target, *c)).collect(),
            };
            let id = this.kernel.create_master_record(
                location.clone(),
                Some(name.to_string()),
                default_perm,
            );
            // Register the name with the cluster manager; roll back on clash.
            let me = this.kernel.node();
            if let Err(e) = this.k_regname(ctx, name, me) {
                this.kernel.remove_master_record(id.idx);
                // The registration may have landed with only its reply lost;
                // best-effort guarded scrub so a half-registered name cannot
                // outlive the record it pointed at. A clean name clash
                // (Remote(1)) means someone else owns the binding — the
                // guard makes scrubbing it a no-op either way.
                let clash = matches!(e, LiteError::Remote(1));
                if !clash {
                    let _ = this.k_unregname(ctx, name, me);
                }
                // A failed free leaks the chunks on `target`; the stub
                // counts it.
                let _ = this.k_free_chunks(ctx, target, chunks.iter().map(|c| c.addr));
                return Err(if clash {
                    LiteError::NameExists {
                        name: name.to_string(),
                    }
                } else {
                    e
                });
            }
            let lh = this
                .kernel
                .install_lh(this.pid, fresh_entry(id, name, location, Perm::MASTER));
            let reg = ctx.now().saturating_sub(reg_started).max(1);
            this.kernel
                .observe()
                .record_latency(ctx, crate::observe::cell::MM_REG, reg);
            // Over budget now? Evict before the call returns.
            this.kernel.mm().poke(ctx.now());
            Ok(lh)
        })
    }

    /// LT_map: acquires an lh for a named LMR (manager lookup + master
    /// map, §4.1).
    pub fn lt_map(&mut self, ctx: &mut Ctx, name: &str) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| {
            let master = this.k_queryname(ctx, name)?;
            this.map_at(ctx, name, master)
        })
    }

    /// LT_map with a known master node (the paper's
    /// `LT_map(name, master)` form) — skips the manager lookup.
    pub fn lt_map_at(&mut self, ctx: &mut Ctx, name: &str, master: NodeId) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| this.map_at(ctx, name, master))
    }

    fn map_at(&mut self, ctx: &mut Ctx, name: &str, master: NodeId) -> LiteResult<Lh> {
        let (id, perm, location) = self.k_map(ctx, master, name)?;
        let entry = fresh_entry(id, name, location, perm);
        Ok(self.kernel.install_lh(self.pid, entry))
    }

    /// Transparently refreshes an lh whose cached location went stale
    /// under memory tiering (the master's `lite::mm` migrated chunks):
    /// re-fetches the location from the master and reinstalls the entry
    /// under the *same* lh number. The permission the handle already
    /// carries is preserved — a plain `FN_MAP` reply would downgrade a
    /// master handle to the granted perm.
    fn refresh_lh(&mut self, ctx: &mut Ctx, lh: Lh, deadline: Deadline) -> LiteResult<()> {
        let (master, name, perm) = self.kernel.with_lh(self.pid, lh, |entry| {
            Ok((entry.id.node as NodeId, entry.name.clone(), entry.perm))
        })?;
        // The master's manager moves the LMR's chunks, wherever they live:
        // wait out a migration there before asking for the new location.
        if let Some(mm) = self.kernel.dir.mm(master) {
            mm.wait_migrations(deadline);
        }
        let (id, _granted, location) = self.k_map(ctx, master, &name).map_err(|e| match e {
            // The LMR vanished while we held a relocated handle: the
            // handle is dead, not merely stale.
            LiteError::NameNotFound { .. } => LiteError::BadLh { lh },
            other => other,
        })?;
        let entry = fresh_entry(id, &name, location, perm);
        self.kernel.reinstall_lh(self.pid, lh, entry);
        Ok(())
    }

    /// The tiering heal loop, the only one: runs `body`, and when it
    /// answers `Relocated` — a cached location went stale under
    /// `lite::mm`, noticed by the permission/bounds check, a pin, or a
    /// remote handler's own fence — waits out any migration in flight at
    /// each lh's master, re-fetches the lh's location from it (a fresh one
    /// is a cheap no-op) and runs `body` again, for `op_timeout` at most,
    /// then answers `Timeout`. A `body` that answers `Relocated` must have
    /// done nothing it cannot repeat whole.
    fn heal<T>(
        &mut self,
        ctx: &mut Ctx,
        lhs: &[Lh],
        mut body: impl FnMut(&mut Self, &mut Ctx) -> LiteResult<T>,
    ) -> LiteResult<T> {
        let mut deadline = None;
        loop {
            match body(self, ctx) {
                Err(LiteError::Relocated) => {}
                done => return done,
            }
            let deadline =
                *deadline.get_or_insert_with(|| Deadline::after(self.kernel.config.op_timeout));
            if deadline.passed() {
                return Err(LiteError::Timeout);
            }
            for &lh in lhs {
                self.refresh_lh(ctx, lh, deadline)?;
            }
        }
    }

    /// Pins every piece at its storage node's memory manager before a
    /// one-sided access, so eviction cannot pull the chunks out from
    /// under the in-flight op. The pin verifies piece identity (LMR id +
    /// byte offset), closing the window where a cached location points
    /// at freed-and-recycled memory. `Err(Relocated)` means the caller
    /// should refresh the lh and retry; no side effect has happened yet.
    ///
    /// Under lazy pinning this is also where memory becomes real: pages
    /// never touched before fault in here (the simulated NIC page
    /// fault), and each one charges the fault-service cost to the
    /// caller's clock — first touch is dear, steady state is free.
    fn pin_pieces(
        &self,
        ctx: &mut Ctx,
        id: LmrId,
        offset: u64,
        pieces: &[(NodeId, Chunk)],
        guards: &mut Pins,
    ) -> LiteResult<()> {
        let mut lmr_off = offset;
        let (mut faulted, mut landed) = (0usize, 0);
        for (node, c) in pieces {
            if let Some(mm) = self.kernel.dir.mm(*node) {
                match mm.pin(c.addr, c.len, (id, lmr_off), ctx.now()) {
                    crate::mm::PinOutcome::Untracked if mm.tracking() => {
                        let master = self.kernel.dir.mm(id.node as NodeId);
                        if master.is_some_and(|m| m.tracks(id, lmr_off)) {
                            return Err(LiteError::Relocated);
                        }
                    }
                    crate::mm::PinOutcome::Untracked => {}
                    crate::mm::PinOutcome::Pinned(g, f) => {
                        landed = g.landed().max(landed);
                        guards.push(g);
                        faulted += f;
                    }
                    crate::mm::PinOutcome::Relocated => return Err(LiteError::Relocated),
                }
            }
            lmr_off += c.len;
        }
        if landed > 0 {
            // Bytes a migration moved are there from its end on.
            ctx.wait_until(landed);
        }
        if faulted > 0 {
            ctx.work(COST.fault_page_ns * faulted as u64);
        }
        Ok(())
    }

    /// The lh's LMR, with the live physical pieces of every range
    /// (`(offset, len, needed permission)` each) in `pieces`, range after
    /// range ([`share`] cuts it back into ranges), and in `pins` the pins
    /// that keep them where they are — healed: every range is resolved and
    /// pinned before anything is posted, so a `Relocated` has no side
    /// effect to repeat, and stays pinned while the caller holds the
    /// guards (eviction drains pins, so no chunk can move or be freed
    /// under an in-flight op).
    fn fresh_pieces(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        ranges: impl Iterator<Item = (u64, usize, Perm)> + Clone,
        pieces: &mut Pieces,
        pins: &mut Pins,
    ) -> LiteResult<LmrId> {
        self.heal(ctx, &[lh], |this, ctx| {
            pins.clear();
            pieces.clear();
            // Resolve against the entry in place; only the pieces leave.
            let id = this
                .kernel
                .with_lh_cached(&mut this.lh_cache, this.pid, lh, |entry| {
                    for (offset, len, need) in ranges.clone() {
                        entry.check_into(offset, len, need, pieces)?;
                    }
                    Ok(entry.id)
                })?;
            let mut rest = &pieces[..];
            for (offset, len, _) in ranges.clone() {
                let share = share(&mut rest, len);
                if let Err(e) = this.pin_pieces(ctx, id, offset, share, pins) {
                    // Unpinned before the heal waits out the migration
                    // that relocated a piece: it drains pins.
                    pins.clear();
                    return Err(e);
                }
            }
            Ok(id)
        })
    }

    /// LT_unmap: drops the lh and tells the master.
    pub fn lt_unmap(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.kernel.remove_lh(this.pid, lh)?;
            let _ = this.k_unmap(ctx, entry.id);
            Ok(())
        })
    }

    /// The `(master node, name)` behind `lh`, which must carry master
    /// permission.
    fn master_of(&self, lh: Lh) -> LiteResult<(NodeId, String)> {
        self.kernel.with_lh(self.pid, lh, |entry| {
            if !entry.perm.master {
                return Err(LiteError::NotMaster);
            }
            Ok((entry.id.node as NodeId, entry.name.clone()))
        })
    }

    /// Releases storage a master record no longer names: frees `extents`
    /// at every node holding some — a node that fails to free leaks its
    /// chunks (counted by the stub) and does not stop the others — then
    /// tells every mapper, ourselves included via loop-back, that its
    /// handle is dead. Returns the first free that failed.
    fn free_and_invalidate(
        &mut self,
        ctx: &mut Ctx,
        id: LmrId,
        extents: &[(NodeId, Chunk)],
        mappers: &[NodeId],
    ) -> LiteResult<()> {
        let mut by_node: std::collections::BTreeMap<NodeId, Vec<u64>> = Default::default();
        for (node, c) in extents {
            by_node.entry(*node).or_default().push(c.addr);
        }
        let mut freed = Ok(());
        for (node, addrs) in by_node {
            freed = freed.and(self.k_free_chunks(ctx, node, addrs.into_iter()));
        }
        for &node in mappers {
            let _ = self.k_invalidate(ctx, node, id, false);
        }
        freed
    }

    /// LT_free: frees the LMR everywhere and invalidates every mapper.
    /// Requires a master lh. Once the master record is taken the call
    /// runs to the end whatever fails on the way: an `Err` means some
    /// storage node leaked its chunks, never that handles still point at
    /// them.
    pub fn lt_free(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let (master, name) = this.master_of(lh)?;
            let (id, location, mapped) = this.k_take_record(ctx, master, &name)?;
            // Scrub the name binding *now*, immediately after the record was
            // taken — before the fallible chunk frees below: the record is
            // gone, and a name left pointing at a master that would answer
            // "unknown" forever blocks re-registration. The scrub is
            // guarded by the master node, so a name freed and re-registered
            // by someone else in the meantime is left alone.
            let _ = this.k_unregname(ctx, &name, master);
            let freed = this.free_and_invalidate(ctx, id, &location.extents, &mapped);
            let _ = this.kernel.remove_lh(this.pid, lh);
            freed
        })
    }

    /// LT_move (§4.1 master role): migrates the LMR's bytes to `target`
    /// and updates the master record; every other mapper's lh is
    /// invalidated so their next access fails fast and they re-map.
    /// Requires a master lh, and (in this implementation) must run on the
    /// LMR's record-holder node.
    pub fn lt_move(&mut self, ctx: &mut Ctx, lh: Lh, target: NodeId) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let (master, name) = this.master_of(lh)?;
            if master != this.kernel.node() {
                return Err(LiteError::NotMaster);
            }
            let old = this
                .kernel
                .with_lh(this.pid, lh, |entry| Ok(entry.location.clone()))?;
            let len = old.len();
            let chunks = this.k_malloc(ctx, target, len)?;
            let new_loc = Location {
                extents: chunks.into_iter().map(|c| (target, c)).collect(),
            };
            // Copy the bytes: each source piece pushed by its storage node.
            for seg in segments(&old.slice(0, len)?, &new_loc.slice(0, len)?) {
                this.k_memcpy(ctx, &seg)?;
            }
            // Swap the record, free the old storage, invalidate mappers.
            let Some((id, old_loc, mapped)) =
                this.kernel
                    .swap_master_location(&name, master, new_loc.clone())
            else {
                return Err(LiteError::NotMaster);
            };
            let freed = this.free_and_invalidate(ctx, id, &old_loc.extents, &mapped);
            // The loop-back invalidation just marked our own handle stale:
            // put the fresh entry under the caller's lh number.
            let entry = fresh_entry(id, &name, new_loc, Perm::MASTER);
            this.kernel.reinstall_lh(this.pid, lh, entry);
            this.kernel.mm().poke(ctx.now());
            freed
        })
    }

    /// Grants `perm` on a named LMR to `node` (master only).
    pub fn lt_grant(&mut self, ctx: &mut Ctx, lh: Lh, node: NodeId, perm: Perm) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let (master, name) = this.master_of(lh)?;
            this.k_grant(ctx, master, &name, node, perm)
        })
    }

    /// LT_write: blocking one-sided write of `data` at `offset` in the
    /// LMR. Returns when the data is remotely visible (§4.2). A one-op
    /// [`Self::lt_chain`].
    pub fn lt_write(&mut self, ctx: &mut Ctx, lh: Lh, offset: u64, data: &[u8]) -> LiteResult<()> {
        let op = ChainOp::Write { off: offset, data };
        self.one_sided(ctx, lh, &mut [op])
    }

    /// LT_read: blocking one-sided read into `buf` from `offset`. A
    /// one-op [`Self::lt_chain`] whose bytes land in `buf`.
    pub fn lt_read(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        buf: &mut [u8],
    ) -> LiteResult<()> {
        self.one_sided(ctx, lh, &mut [ChainOp::Read { off: offset, buf }])
    }

    /// LT_memset: sets `len` bytes at `offset` to `byte`, executed at the
    /// node(s) storing the LMR (§7.1).
    pub fn lt_memset(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        len: usize,
        byte: u8,
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            this.heal(ctx, &[lh], |this, ctx| {
                let check = |entry: &LhEntry| entry.check(offset, len, Perm::RW);
                // The remote handler fences each range itself and answers
                // Relocated when a chunk is mid-migration; redoing all the
                // pieces after a refresh is idempotent.
                for (node, c) in this.kernel.with_lh(this.pid, lh, check)? {
                    this.k_memset(ctx, node, c, byte)?;
                }
                Ok(())
            })
        })
    }

    /// LT_memcpy: copies between LMRs. Each source piece is pushed by the
    /// node that stores it — locally if source and destination are
    /// co-located, with a one-sided write otherwise (§7.1).
    pub fn lt_memcpy(
        &mut self,
        ctx: &mut Ctx,
        src_lh: Lh,
        src_off: u64,
        dst_lh: Lh,
        dst_off: u64,
        len: usize,
    ) -> LiteResult<()> {
        self.copy_ranges(ctx, (src_lh, src_off), (dst_lh, dst_off), len, false)
    }

    /// Shared body of `lt_memcpy`/`lt_memmove`. With `overlap_safe`, a
    /// copy inside one LMR whose destination sits above its source issues
    /// the per-segment copies from the highest address down — each
    /// FN_MEMCPY call reads its whole subrange before writing, so segment
    /// order is the only thing that matters for overlapping ranges.
    fn copy_ranges(
        &mut self,
        ctx: &mut Ctx,
        (src_lh, src_off): (Lh, u64),
        (dst_lh, dst_off): (Lh, u64),
        len: usize,
        overlap_safe: bool,
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            // Either handle's cached location may be the stale one, and a
            // heal redoes the whole copy — re-copying bytes is idempotent —
            // from fresh pieces, so a stale segment list is never re-issued.
            this.heal(ctx, &[src_lh, dst_lh], |this, ctx| {
                let pieces_of = |lh, off, need| {
                    let check = |e: &LhEntry| Ok((e.id, e.check(off, len, need)?));
                    this.kernel.with_lh(this.pid, lh, check)
                };
                let (src_id, src) = pieces_of(src_lh, src_off, Perm::RO)?;
                let (dst_id, dst) = pieces_of(dst_lh, dst_off, Perm::RW)?;
                let mut segs = segments(&src, &dst);
                // Both ranges are in bounds: the sums cannot wrap.
                let overlaps = src_id == dst_id
                    && src_off < dst_off + len as u64
                    && dst_off < src_off + len as u64;
                if overlap_safe && overlaps && dst_off > src_off {
                    segs.reverse();
                }
                for seg in &segs {
                    this.k_memcpy(ctx, seg)?;
                }
                Ok(())
            })
        })
    }

    /// LT_memmove: memcpy with memmove semantics for overlapping ranges
    /// inside one LMR. Each FN_MEMCPY call reads its whole subrange
    /// before writing, so a single segment can never tear itself; the
    /// overlap hazard is *between* segments — a later segment reading
    /// source bytes an earlier segment already overwrote. Copying
    /// ascending is safe when the destination sits below the source;
    /// descending when it sits above (exactly `memmove`'s rule).
    pub fn lt_memmove(
        &mut self,
        ctx: &mut Ctx,
        src_lh: Lh,
        src_off: u64,
        dst_lh: Lh,
        dst_off: u64,
        len: usize,
    ) -> LiteResult<()> {
        self.copy_ranges(ctx, (src_lh, src_off), (dst_lh, dst_off), len, true)
    }

    // ------------------------------------------------------------------
    // RPC / messaging
    // ------------------------------------------------------------------

    /// LT_regRPC: binds `func` (≥ [`USER_FUNC_MIN`]) on this node.
    pub fn register_rpc(&self, func: u8) -> LiteResult<()> {
        self.kernel.register_rpc(func)
    }

    /// Binds each of `funcs` (≥ [`USER_FUNC_MIN`]) on this node to
    /// `handler`, which runs every call on the thread that delivered it
    /// (DESIGN.md §5.3); the returned server owns this handle and the
    /// handler. The functions are served while it lives; a function some
    /// other live server serves is an error.
    pub fn serve_rpc(self, funcs: &[u8], handler: impl RpcHandler) -> LiteResult<Arc<RpcServer>> {
        RpcServer::bind(self, funcs, Box::new(handler))
    }

    /// LT_RPC: calls `func` on `server`; returns the reply.
    pub fn lt_rpc(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        input: &[u8],
        max_reply: usize,
    ) -> LiteResult<Vec<u8>> {
        if func < USER_FUNC_MIN {
            return Err(LiteError::ReservedFunc { func });
        }
        self.syscall(ctx, |this, ctx| {
            this.call_raw(ctx, server, func, input, max_reply, false)
        })
    }

    /// LT_recvRPC: receives the next call for `func`. The payload move
    /// out of the ring is the single memory move of §5.2.
    pub fn lt_recv_rpc(&mut self, ctx: &mut Ctx, func: u8) -> LiteResult<RpcCall> {
        self.syscall(ctx, |this, ctx| this.recv(ctx, func))
    }

    /// The receive half of a server-side call: blocks for the next call
    /// of `func`, `op_timeout` at most, and moves its payload out.
    fn recv(&mut self, ctx: &mut Ctx, func: u8) -> LiteResult<RpcCall> {
        let inc = self
            .kernel
            .pop_rpc(ctx, func, self.kernel.config.op_timeout)?;
        let mut input = Vec::new();
        self.take_payload(ctx, &inc, &mut input)?;
        Ok(RpcCall {
            input,
            src_node: inc.hdr.src_node as NodeId,
            src_pid: inc.hdr.src_pid,
            route: ReplyRoute::of_hdr(&inc.hdr),
        })
    }

    /// Moves a taken call's payload out of the ring into `input` and frees
    /// its ring span.
    fn take_payload(
        &mut self,
        ctx: &mut Ctx,
        inc: &Incoming,
        input: &mut Vec<u8>,
    ) -> LiteResult<()> {
        let client = inc.hdr.src_node as NodeId;
        self.kernel.read_ring_payload(client, inc, input)?;
        ctx.work(COST.memcpy_time(input.len() as u64));
        ctx.work(RPC_META_NS);
        self.kernel.release_ring(ctx, client, inc)
    }

    /// A served call taken off its queue, charged as
    /// [`LiteHandle::lt_recv_rpc`] charges one except that the clock joins
    /// the call's stamp with no CPU charged for the wait; its payload lands
    /// in `input`.
    pub(crate) fn take_served(
        &mut self,
        ctx: &mut Ctx,
        inc: &Incoming,
        input: &mut Vec<u8>,
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            ctx.wait_until(inc.stamp);
            this.take_payload(ctx, inc, input)
        })
    }

    /// A served call's answer, charged as [`LiteHandle::lt_reply_rpc`].
    pub(crate) fn reply_served(
        &mut self,
        ctx: &mut Ctx,
        route: ReplyRoute,
        output: &[u8],
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| this.reply(ctx, route, output))
    }

    /// LT_replyRPC: sends the return value for `call`.
    pub fn lt_reply_rpc(&mut self, ctx: &mut Ctx, call: &RpcCall, output: &[u8]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| this.reply(ctx, call.route, output))
    }

    /// The reply half of a server-side call: stage `output` and send it.
    fn reply(&mut self, ctx: &mut Ctx, route: ReplyRoute, output: &[u8]) -> LiteResult<()> {
        ctx.work(RPC_META_NS);
        let staged = self.stage(output)?;
        let chunks = [Chunk {
            addr: staged,
            len: output.len() as u64,
        }];
        self.kernel
            .send_reply(ctx, self.prio, route, &chunks, output.len())?;
        Ok(())
    }

    /// The combined reply-and-receive of §5.2 (one crossing for both).
    pub fn lt_reply_recv(
        &mut self,
        ctx: &mut Ctx,
        call: &RpcCall,
        output: &[u8],
        func: u8,
    ) -> LiteResult<RpcCall> {
        self.syscall(ctx, |this, ctx| {
            this.reply(ctx, call.route, output)?;
            this.recv(ctx, func)
        })
    }

    /// LT_send: one-way message to `node` (received via
    /// [`LiteHandle::lt_recv_msg`]).
    pub fn lt_send(&mut self, ctx: &mut Ctx, node: NodeId, data: &[u8]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            this.call_raw(ctx, node, FN_MSG, data, 0, true)?;
            Ok(())
        })
    }

    /// Receives the next message sent to this node with LT_send.
    pub fn lt_recv_msg(&mut self, ctx: &mut Ctx) -> LiteResult<(NodeId, Vec<u8>)> {
        self.syscall(ctx, |this, ctx| {
            let call = this.recv(ctx, FN_MSG)?;
            Ok((call.src_node, call.input))
        })
    }

    /// Multicast RPC (§8.4): issues the same call to several servers
    /// concurrently and gathers every reply.
    ///
    /// All-or-nothing view of [`LiteHandle::lt_multicast_rpc_partial`]:
    /// if any destination fails, the first error is returned and the
    /// successful replies are discarded. Replication layers that must
    /// stay available when one destination is down want the partial
    /// variant instead.
    pub fn lt_multicast_rpc(
        &mut self,
        ctx: &mut Ctx,
        servers: &[NodeId],
        func: u8,
        input: &[u8],
        max_reply: usize,
    ) -> LiteResult<Vec<Vec<u8>>> {
        let results = self.lt_multicast_rpc_partial(ctx, servers, func, input, max_reply)?;
        results.into_iter().collect()
    }

    /// Multicast RPC with per-destination outcomes, in `servers` order.
    ///
    /// The outer `Err` covers only call-wide preconditions (reserved
    /// func, staging/reply-scratch growth); everything per-destination —
    /// ring reservation, posting, the reply wait — lands in that
    /// destination's slot of the returned vector, and a failure towards
    /// one server never blocks the posts to (or discards the replies
    /// from) the others. Every transient resource (completion slots,
    /// header staging cells) is released on every path; a mid-fan-out
    /// error must not leak the resources of the destinations already
    /// posted. Reply cells come from a persistent per-handle scratch
    /// region, so a straggler reply arriving after a slot timeout can
    /// never land in allocator memory that was reused by someone else.
    pub fn lt_multicast_rpc_partial(
        &mut self,
        ctx: &mut Ctx,
        servers: &[NodeId],
        func: u8,
        input: &[u8],
        max_reply: usize,
    ) -> LiteResult<Vec<LiteResult<Vec<u8>>>> {
        if func < USER_FUNC_MIN {
            return Err(LiteError::ReservedFunc { func });
        }
        self.syscall(ctx, |this, ctx| {
            ctx.work(RPC_META_NS);
            // Stage input once; carve one reply cell per destination out of
            // the persistent multicast scratch.
            let cell = max_reply.max(1);
            let staged = this.stage(input)?;
            let cells = cell.saturating_mul(servers.len());
            Self::ensure(&this.kernel, &mut this.mcast_reply, cells)?;
            let reply_base = this.mcast_reply.addr;
            let reply_of = |i: usize| (reply_base + (i * cell) as u64, max_reply);
            // Fan-out: per destination, a posted completion slot or the
            // error that stopped it. Failed destinations keep their entry so
            // the gather below stays index-aligned with `servers`.
            let mut pending = Vec::with_capacity(servers.len());
            for (i, &server) in servers.iter().enumerate() {
                // Header goes through a tiny transient staging cell so the
                // shared input staging stays untouched.
                let hdr_cell = this.kernel.alloc.lock().alloc(HEADER_BYTES as u64);
                pending.push(hdr_cell.map_err(LiteError::from).and_then(|hdr_at| {
                    let gather = [
                        Chunk {
                            addr: hdr_at,
                            len: HEADER_BYTES as u64,
                        },
                        Chunk {
                            addr: staged,
                            len: input.len() as u64,
                        },
                    ];
                    let posted = this.post_request(ctx, server, func, &gather, reply_of(i), false);
                    if this.kernel.alloc.lock().free(hdr_at).is_err() {
                        this.kernel.note_cleanup_failure(server, ctx.now());
                    }
                    posted
                }));
            }
            // Gather replies; every posted slot is waited on and freed
            // whatever its outcome.
            let harvested = pending
                .into_iter()
                .enumerate()
                .map(|(i, posted)| this.harvest_reply(ctx, func, posted?, reply_of(i), None));
            Ok(harvested.collect())
        })
    }

    // ------------------------------------------------------------------
    // Synchronization (§7.2)
    // ------------------------------------------------------------------

    /// Creates a distributed lock owned by this node.
    pub fn lt_create_lock(&mut self, ctx: &mut Ctx) -> LiteResult<LockId> {
        self.syscall(ctx, |this, _| {
            let (addr, _idx) = this.kernel.alloc_lock_cell()?;
            Ok(LockId {
                node: this.kernel.node(),
                addr,
            })
        })
    }

    /// LT_lock: fetch-add fast path; FIFO enqueue at the owner otherwise.
    ///
    /// Fault behavior: an `Err` means this handle does **not** hold the
    /// lock and the lock word has been restored (unwound) whenever the
    /// owner was reachable; retrying `lt_lock` is always safe. The one
    /// unrecoverable case — the owner unreachable with our enqueue fate
    /// unknown — is counted in [`crate::KernelStats::sync_leaks`].
    pub fn lt_lock(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        let span = Some((OpClass::Lock, lock.node));
        self.sync_call(ctx, lock.key(), OpKind::Lock, span, |this, ctx| {
            this.lock_inner(ctx, lock)
        })
    }

    /// One-sided fetch-and-add on the lock word; its previous contents.
    fn lock_word_add(&self, ctx: &mut Ctx, lock: LockId, delta: u64) -> LiteResult<u64> {
        let (node, addr) = (lock.node, lock.addr);
        let add = Op::FetchAdd { node, addr, delta };
        Ok(self.kernel.datapath.post(ctx, self.prio, &add)?.value)
    }

    fn lock_inner(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        if self.lock_word_add(ctx, lock, 1)? == 0 {
            return Ok(());
        }
        // Contended: wait in the owner's FIFO queue (reply == grant).
        // The token names this enqueue attempt; on failure it lets the
        // abort ask the owner what actually happened.
        let token = self.kernel.next_sync_token();
        match self.k_lock(ctx, lock, LOCK_ENQUEUE, token) {
            Ok(_) => Ok(()),
            Err(e) => {
                // The enqueue's fate is unknown: the request or the
                // grant may have been dropped, or we may merely have
                // timed out while still queued. The per-pair ring is
                // FIFO and drops are terminal, so by the time the abort
                // runs the enqueue either ran or never will.
                match self.ask_owner(ctx, lock, LOCK_ABORT, token) {
                    // The grant won the race — we hold the lock.
                    Ok(1) => Ok(()),
                    // Dequeued (0) or never arrived (2): we don't hold
                    // it; roll our fetch_add back so the word stays
                    // consistent.
                    Ok(_) => {
                        self.unwind_lock_word(ctx, lock);
                        Err(e)
                    }
                    // Owner unreachable: our queue entry (if any) is
                    // stranded and the word may stay elevated.
                    Err(_) => {
                        self.kernel.note_sync_leak(lock.node, ctx.now());
                        Err(e)
                    }
                }
            }
        }
    }

    /// Asks the lock owner `op` (`LOCK_ABORT` or `LOCK_RELEASE`) under
    /// `token` until an answer settles it; returns that answer. The owner
    /// memoizes abort answers and dedups consumed release tokens, so the
    /// retries are idempotent. An abort settles at its first answer
    /// (0 = dequeued, 1 = already granted, 2 = never arrived). A release
    /// settles at any answer but `LOCK_NO_WAITER`, which means the
    /// winner's enqueue is still in flight *or* its increment was unwound
    /// by an abort; re-reading the word tells the two apart (0 = nothing
    /// outstanding, the lock is simply free).
    fn ask_owner(&mut self, ctx: &mut Ctx, lock: LockId, op: u8, token: u64) -> LiteResult<u8> {
        // Each failed kcall already burns up to one op_timeout, so the
        // attempt budget (not the deadline) bounds the error path; the
        // deadline bounds the "no waiter yet" waits.
        let deadline = Deadline::after(self.kernel.config.op_timeout * 4);
        let owner = self.kernel.dir.kernel(lock.node);
        let moves = |k: &LiteKernel| k.lock_moves.load(Ordering::SeqCst);
        let mut errs = 0;
        let mut last = LiteError::Timeout;
        loop {
            let seen = owner.as_deref().map_or(0, moves);
            match self.k_lock(ctx, lock, op, token) {
                Ok(LOCK_NO_WAITER) if op == LOCK_RELEASE => {
                    match self.lock_word_add(ctx, lock, 0) {
                        Ok(0) => return Ok(LOCK_NO_WAITER),
                        // A waiter is in flight: re-ask once its enqueue
                        // (or its abort and unwind) lands at the owner.
                        Ok(_) => {
                            if let Some(k) = &owner {
                                k.lock_moved.park_until(|| moves(k) != seen, deadline);
                            }
                        }
                        Err(e) => last = e,
                    }
                }
                Ok(answer) => return Ok(answer),
                Err(e) => {
                    errs += 1;
                    last = e;
                    if errs >= 3 {
                        return Err(last);
                    }
                }
            }
            if deadline.passed() {
                return Err(last);
            }
            ctx.work(2_000); // back off before re-asking
        }
    }

    /// Best-effort rollback of a failed acquire's `fetch_add`.
    fn unwind_lock_word(&mut self, ctx: &mut Ctx, lock: LockId) {
        match self.lock_word_add(ctx, lock, u64::MAX) {
            Ok(_) => {
                self.kernel.note_lock_unwind();
                // An unlocker re-reading the word waits at the owner for this.
                if let Some(owner) = self.kernel.dir.kernel(lock.node) {
                    owner.note_lock_move();
                }
            }
            Err(_) => self.kernel.note_sync_leak(lock.node, ctx.now()),
        }
    }

    /// LT_unlock: fetch-sub; hands the lock to the next waiter if any.
    ///
    /// Fault behavior: the release carries a token the owner dedups on,
    /// so the handover is retried internally without ever granting two
    /// waiters. An `Err` means the release state is indeterminate — the
    /// lock is poisoned and the caller must **not** call `lt_unlock`
    /// again (the internal retries are already exhausted; another call
    /// would decrement the lock word a second time). Counted in
    /// [`crate::KernelStats::sync_leaks`].
    pub fn lt_unlock(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        self.sync_call(ctx, lock.key(), OpKind::Unlock, None, |this, ctx| {
            this.unlock_inner(ctx, lock)
        })
    }

    fn unlock_inner(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        let old = self.lock_word_add(ctx, lock, u64::MAX)?; // -1
        if old == 0 {
            // Unlock of a free lock (app bug or a forbidden retry after
            // a poisoned unlock): restore the word — leaving it at
            // `u64::MAX` would let every subsequent acquire fast-path.
            let _ = self.lock_word_add(ctx, lock, 1);
            return Err(LiteError::Internal("unlock of a free lock"));
        }
        if old == 1 {
            return Ok(()); // no waiters
        }
        // Another increment is outstanding: hand the lock over. The
        // release token is generated once and reused verbatim across
        // retries — the owner's dedup on consumed tokens is what makes
        // the retries safe (a release whose ack was lost cannot grant a
        // second waiter).
        let token = self.kernel.next_sync_token();
        match self.ask_owner(ctx, lock, LOCK_RELEASE, token) {
            Ok(_) => Ok(()),
            Err(e) => {
                // The word is already decremented but the handover may
                // or may not have been processed: indeterminate —
                // poisoned.
                self.kernel.note_sync_leak(lock.node, ctx.now());
                Err(e)
            }
        }
    }

    /// LT_barrier: blocks until `count` participants arrive at barrier
    /// `id` (coordinated by the manager node).
    pub fn lt_barrier(&mut self, ctx: &mut Ctx, id: u64, count: u32) -> LiteResult<()> {
        let key = Key::Barrier { id };
        let kind = OpKind::Barrier { count };
        let span = Some((OpClass::Barrier, MANAGER_NODE));
        self.sync_call(ctx, key, kind, span, |this, ctx| {
            this.k_barrier(ctx, id, count)
        })
    }

    /// LT_fetch-add on a u64 inside an LMR; returns the previous value.
    /// A one-op [`Self::lt_chain`].
    pub fn lt_fetch_add(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        delta: u64,
    ) -> LiteResult<u64> {
        let (off, old) = (offset, 0);
        self.atomic(ctx, lh, ChainOp::FetchAdd { off, delta, old })
    }

    /// A one-op chain of an atomic: the word's previous contents.
    fn atomic(&mut self, ctx: &mut Ctx, lh: Lh, mut op: ChainOp) -> LiteResult<u64> {
        self.one_sided(ctx, lh, std::slice::from_mut(&mut op))?;
        Ok(op.word().unwrap_or(0))
    }

    /// LT_test-set on a u64 inside an LMR: compare-and-swap
    /// `expect -> new`; returns the previous value (acquired iff it
    /// equals `expect`). A convenience alias of [`Self::lt_cmp_swap`],
    /// kept for the paper's API surface (Table 1).
    pub fn lt_test_set(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        expect: u64,
        new: u64,
    ) -> LiteResult<u64> {
        self.lt_cmp_swap(ctx, lh, offset, expect, new)
    }

    /// Compare-and-swap on a u64 inside an LMR: atomically replaces the
    /// word with `new` iff it currently equals `expect`; returns the
    /// previous value (the CAS won iff it equals `expect`). This is the
    /// primitive OCC commit protocols build on (lock-word acquire and
    /// version-check release). A one-op [`Self::lt_chain`]; the datapath
    /// records the CAS in the verification history so `lite::verify` sees
    /// lock traffic.
    pub fn lt_cmp_swap(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        expect: u64,
        new: u64,
    ) -> LiteResult<u64> {
        let (off, old) = (offset, 0);
        self.atomic(
            ctx,
            lh,
            ChainOp::CmpSwap {
                off,
                expect,
                new,
                old,
            },
        )
    }

    /// Executes an ordered chain of one-sided ops on one LMR in a single
    /// call: one syscall crossing, one lh lookup, one pin pass over every
    /// range, one doorbell per storage node, one completion wait. Ops are
    /// unconditional and take effect in order (a later op sees every
    /// earlier one); what each returns lands in it — a read's bytes in
    /// its `buf`, an atomic's previous word in its `old`
    /// ([`ChainOp::word`]). A chain of up to [`simnet::CHAIN_INLINE`]
    /// verbs allocates nothing.
    ///
    /// This is the round-trip lever for protocols whose steps do not
    /// depend on each other's results (publish a record *then* release
    /// its lock; lock a write set *and* validate a read set): N blocking
    /// waits become one.
    ///
    /// An `Err` means the chain stopped part-way: a prefix of the ops may
    /// have taken effect, each at most once, and no op's result is set.
    pub fn lt_chain(&mut self, ctx: &mut Ctx, lh: Lh, ops: &mut [ChainOp]) -> LiteResult<()> {
        if ops.is_empty() {
            return Ok(());
        }
        self.one_sided(ctx, lh, ops)
    }

    /// Every one-sided call — `lt_write`, `lt_read`, the atomics,
    /// `lt_chain` — is this: one syscall crossing around the healed,
    /// pinned pieces of every op's range ([`Self::fresh_pieces`]) and the
    /// one body that posts them ([`Self::chain_pieces`]).
    fn one_sided(&mut self, ctx: &mut Ctx, lh: Lh, ops: &mut [ChainOp]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            // Held until the chain completed: the pins keep its pieces
            // where they are.
            let (mut pieces, mut pins) = (Pieces::new(), Pins::new());
            let ranges = ops.iter().map(ChainOp::range);
            let id = this.fresh_pieces(ctx, lh, ranges, &mut pieces, &mut pins)?;
            this.chain_pieces(ctx, id, ops, &pieces)
        })
    }

    /// The one body of a one-sided call, once every range is resolved
    /// (`pieces` holds op after op's, as [`Self::fresh_pieces`] lists
    /// them) and pinned: stage, post, wait once, land each op's result.
    /// One verb per physical piece; `zones`, `posts` and `comps` below
    /// are indexed by verb and held inline.
    fn chain_pieces(
        &mut self,
        ctx: &mut Ctx,
        id: LmrId,
        ops: &mut [ChainOp],
        pieces: &[(NodeId, Chunk)],
    ) -> LiteResult<()> {
        let start = ctx.now();
        // Staging holds every write's payload and every read's landing
        // zone, in op order.
        let total: usize = ops.iter().map(ChainOp::staged).sum();
        Self::ensure(&self.kernel, &mut self.staging, total)?;
        let mem = self.kernel.fabric().mem(self.kernel.node());
        // Each verb's zone: its piece's share of the op's staging (none
        // for an atomic).
        let (mut at, mut rest) = (self.staging.addr, pieces);
        let mut zones: InlineVec<Chunk> = InlineVec::new();
        for op in ops.iter() {
            let share = share(&mut rest, op.range().1);
            match *op {
                ChainOp::Write { data, .. } => mem.write(at, data)?,
                ChainOp::Read { .. } => {}
                // An atomic operates on one 8-byte word, which must
                // therefore live inside a single chunk of the LMR; `check`
                // has bounds/permission checked the range, so more than
                // one piece means the word straddles a chunk boundary.
                ChainOp::FetchAdd { off, .. } | ChainOp::CmpSwap { off, .. } => {
                    if share.len() != 1 {
                        return Err(LiteError::StraddlesChunk {
                            offset: off,
                            len: 8,
                        });
                    }
                }
            }
            for (_, c) in share {
                let len = if op.staged() > 0 { c.len } else { 0 };
                zones.push(Chunk { addr: at, len });
                at += len;
            }
        }
        let mut posts: InlineVec<Op> = InlineVec::new();
        let (mut verbs, mut rest) = (zones.iter(), pieces);
        for op in ops.iter() {
            for (&(node, c), zone) in share(&mut rest, op.range().1).iter().zip(&mut verbs) {
                let (addr, zone, len) = (c.addr, std::slice::from_ref(zone), c.len as usize);
                posts.push(match *op {
                    ChainOp::Write { .. } => Op::write(node, addr, zone, len),
                    ChainOp::Read { .. } => Op::read(node, addr, zone, len),
                    ChainOp::FetchAdd { delta, .. } => Op::FetchAdd { node, addr, delta },
                    ChainOp::CmpSwap { expect, new, .. } => Op::CmpSwap {
                        node,
                        addr,
                        expect,
                        new,
                    },
                });
            }
        }
        let mut comps: InlineVec<Completion> =
            pieces.iter().map(|_| Completion::default()).collect();
        let qps = Some(&mut self.qp_cache);
        let result = self
            .kernel
            .rdma_chain(ctx, self.prio, &posts, &mut comps, qps);
        if result.is_ok() {
            // A call that moved bytes reaps one completion. Atomics alone:
            // a lone one was reaped by its post, like the blocking verb it
            // is; those of a doorbell chain are still in flight.
            let last = comps.iter().map(|c| c.stamp).max().unwrap_or(0);
            if total > 0 || last > ctx.now() {
                ctx.wait_until(last);
                ctx.work(COST.cq_poll_ns);
            }
        }
        let (end, ok) = (ctx.now(), result.is_ok());
        // Walk the ops again with the same two cursors the posting pass
        // advanced: the staging address and the verb index.
        let (mut at, mut verb, mut rest) = (self.staging.addr, 0, pieces);
        for op in ops.iter_mut() {
            let (staged, n) = (op.staged(), share(&mut rest, op.range().1).len());
            match op {
                ChainOp::Write { off, data } => {
                    // Lookup/permission/bounds failures returned before any
                    // side effect and are not recorded in the history (a
                    // no-effect op adds no constraint); a chain that failed
                    // past that point may have applied any prefix, so its
                    // writes are recorded as failed.
                    let kind = || OpKind::Write {
                        fp: fingerprint(data),
                    };
                    self.record_reg(id, *off, data.len(), kind, ok, start, end);
                }
                ChainOp::Read { off, buf } => {
                    // Failed reads are excluded by the checker; fp is
                    // meaningful only on the ok path.
                    let len = buf.len();
                    let kind = || {
                        let mut got = vec![0u8; len];
                        let read = ok && mem.read(at, &mut got).is_ok();
                        let fp = if read { fingerprint(&got) } else { 0 };
                        OpKind::Read { fp }
                    };
                    self.record_reg(id, *off, len, kind, ok, start, end);
                    if ok {
                        mem.read(at, buf)?;
                    }
                }
                ChainOp::FetchAdd { old, .. } | ChainOp::CmpSwap { old, .. } => {
                    if ok {
                        *old = comps[verb].value;
                    }
                }
            }
            at += staged as u64;
            verb += n;
        }
        result
    }
}

/// A one-sided call's physical pieces, op after op's, inline for a
/// chain of up to [`simnet::CHAIN_INLINE`] of them.
type Pieces = InlineVec<(NodeId, Chunk)>;

/// The pins that hold a call's pieces in place while it runs.
type Pins = InlineVec<crate::mm::PinGuard>;

/// A claimed completion slot: its id and the slot to wait on.
type Posted = (u32, Arc<CallSlot>);

impl Drop for LiteHandle {
    fn drop(&mut self) {
        let node = self.kernel.node();
        let mut failures = 0;
        {
            let mut a = self.kernel.alloc.lock();
            for s in [&self.staging, &self.reply, &self.mcast_reply] {
                if s.cap > 0 && a.free(s.addr).is_err() {
                    failures += 1;
                }
            }
        }
        // Count leaked scratch regions (outside the allocator lock —
        // note_cleanup_failure walks the observability surface). No Ctx
        // in Drop, so the trace stamp is 0.
        for _ in 0..failures {
            self.kernel.note_cleanup_failure(node, 0);
        }
    }
}

/// The next range's share of a call's one piece list: the pieces at
/// the front of `rest` whose lengths add up to `len`, taken off it.
/// [`Location::slice_into`] covers a range exactly with pieces none of
/// which is empty, so the share is exact — none for an empty range.
fn share<'p>(rest: &mut &'p [(NodeId, Chunk)], len: usize) -> &'p [(NodeId, Chunk)] {
    let (mut n, mut left) = (0, len as u64);
    while left > 0 {
        left -= rest[n].1.len;
        n += 1;
    }
    let (share, tail) = rest.split_at(n);
    *rest = tail;
    share
}

/// A just-fetched lh table entry.
fn fresh_entry(id: LmrId, name: &str, location: Location, perm: Perm) -> LhEntry {
    LhEntry {
        id,
        name: name.to_string(),
        location,
        perm,
        stale: false,
        relocated: false,
    }
}

/// One `FN_MEMCPY`'s worth of a copy: `len` bytes contiguous at both
/// ends, `(node, physical address)` each.
pub(crate) struct Seg {
    pub(crate) src: (NodeId, u64),
    pub(crate) dst: (NodeId, u64),
    pub(crate) len: u64,
}

/// Walks the piece lists of two equally long ranges in lockstep, cutting
/// a segment wherever either side crosses a piece boundary.
fn segments(src: &[(NodeId, Chunk)], dst: &[(NodeId, Chunk)]) -> Vec<Seg> {
    let (mut si, mut di) = (0usize, 0usize);
    let (mut s_used, mut d_used) = (0u64, 0u64);
    let mut segs = Vec::new();
    while si < src.len() && di < dst.len() {
        let ((s_node, s), (d_node, d)) = (src[si], dst[di]);
        let len = (s.len - s_used).min(d.len - d_used);
        segs.push(Seg {
            src: (s_node, s.addr + s_used),
            dst: (d_node, d.addr + d_used),
            len,
        });
        s_used += len;
        d_used += len;
        if s_used == s.len {
            si += 1;
            s_used = 0;
        }
        if d_used == d.len {
            di += 1;
            d_used = 0;
        }
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LiteCluster;

    /// What is computed only for the history log is computed only when a
    /// log is armed: on an unarmed cluster the `kind` closure (payload
    /// fingerprints, on the real paths) never runs.
    #[test]
    fn history_kind_is_computed_only_when_armed() {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h.lt_malloc(&mut ctx, 1, 4096, "lazy", Perm::RW).unwrap();
        let id = h.lh_id(lh).unwrap();
        let unarmed = || -> OpKind { panic!("computed for an observer nobody armed") };
        h.record_reg(id, 0, 8, unarmed, true, 0, 1);

        let log = cluster.record_history();
        h.record_reg(id, 0, 8, || OpKind::Write { fp: 7 }, true, 0, 1);
        let ops = log.take().ops;
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, OpKind::Write { fp: 7 });
    }

    /// A reply longer than the caller allowed is `TooLarge` from `lt_rpc`
    /// and from a multicast alike, never cut to the reply cell. Only a
    /// server that ignores the limit it was sent produces one: forge its
    /// route.
    #[test]
    fn overlong_reply_is_too_large_for_rpc_and_multicast_alike() {
        const F: u8 = USER_FUNC_MIN;
        let cluster = LiteCluster::start(2).unwrap();
        let mut server = cluster.attach(1).unwrap();
        server.register_rpc(F).unwrap();
        let rogue = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in 0..2 {
                let mut call = server.lt_recv_rpc(&mut ctx, F).unwrap();
                call.route.reply_max = 64;
                server.lt_reply_rpc(&mut ctx, &call, &[9; 64]).unwrap();
            }
        });
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let too_large = Err(LiteError::TooLarge { len: 64, max: 8 });
        assert_eq!(h.lt_rpc(&mut ctx, 1, F, b"x", 8), too_large);
        let each = h.lt_multicast_rpc_partial(&mut ctx, &[1], F, b"x", 8);
        assert_eq!(each.unwrap(), [too_large]);
        rogue.join().unwrap();
    }
}

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
//! | `LT_regRPC`      | [`LiteHandle::register_rpc`]             |
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

use std::sync::Arc;

use rnic::NodeId;
use simnet::{Ctx, Nanos};
use smem::Chunk;

use crate::error::{LiteError, LiteResult};
use crate::kernel::datapath::Op;
use crate::kernel::{
    perm_to_byte, LiteKernel, ReplyRoute, FN_BARRIER, FN_FREE_CHUNKS, FN_GRANT, FN_INVALIDATE,
    FN_LOCK, FN_MALLOC, FN_MAP, FN_MEMCPY, FN_MEMSET, FN_MSG, FN_QUERYNAME, FN_REGNAME,
    FN_TAKE_RECORD, FN_UNMAP, FN_UNREGNAME, MANAGER_NODE, RPC_META_NS, USER_FUNC_MIN,
};
use crate::lmr::{LhEntry, LmrId, Location, Perm};
use crate::observe::{EventKind, OpClass, StatsReport};
use crate::qos::Priority;
use crate::wire::{Dec, Enc, Imm, MsgHeader, HEADER_BYTES};

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
/// offset `off` of the chain's LMR.
#[derive(Debug, Clone, Copy)]
pub enum ChainOp<'a> {
    /// Writes `data` at `off`.
    Write {
        /// Byte offset in the LMR.
        off: u64,
        /// Bytes to write.
        data: &'a [u8],
    },
    /// Reads `len` bytes at `off`.
    Read {
        /// Byte offset in the LMR.
        off: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Fetch-and-add on the u64 at `off`.
    FetchAdd {
        /// Byte offset of the word.
        off: u64,
        /// Addend.
        delta: u64,
    },
    /// Compare-and-swap `expect -> new` on the u64 at `off`.
    CmpSwap {
        /// Byte offset of the word.
        off: u64,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
}

/// What one [`ChainOp`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainOut {
    /// A write; nothing to return.
    Done,
    /// The bytes a read fetched.
    Bytes(Vec<u8>),
    /// The word's previous contents (an atomic; a CAS won iff it equals
    /// `expect`).
    Value(u64),
}

/// A physical scratch region owned by a handle.
struct Scratch {
    addr: u64,
    cap: usize,
}

/// One process's LITE endpoint.
pub struct LiteHandle {
    kernel: Arc<LiteKernel>,
    pid: u32,
    user_level: bool,
    prio: Priority,
    staging: Scratch,
    reply: Scratch,
    /// Reply cells for multicast calls, one `max_reply`-sized cell per
    /// destination, allocated lazily on the first multicast. Persistent
    /// like [`LiteHandle::reply`] (never freed while the handle lives):
    /// a straggler reply landing after a slot timeout scribbles scratch
    /// this handle owns, never allocator memory someone else reused.
    mcast_reply: Option<Scratch>,
}

const INIT_SCRATCH: usize = 64 * 1024;

impl LiteHandle {
    pub(crate) fn new(kernel: Arc<LiteKernel>, user_level: bool) -> LiteResult<Self> {
        let pid = kernel.alloc_pid();
        let staging = Scratch {
            addr: kernel.alloc.lock().alloc(INIT_SCRATCH as u64)?,
            cap: INIT_SCRATCH,
        };
        let reply = Scratch {
            addr: kernel.alloc.lock().alloc(INIT_SCRATCH as u64)?,
            cap: INIT_SCRATCH,
        };
        Ok(LiteHandle {
            kernel,
            pid,
            user_level,
            prio: Priority::High,
            staging,
            reply,
            mcast_reply: None,
        })
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
    fn span(&self, class: OpClass, peer: NodeId, start: Nanos, end: Nanos) {
        let Some(obs) = self.kernel.observe() else {
            return;
        };
        obs.record_span(class, self.prio, end.saturating_sub(start));
        if obs.sample() {
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
        key: crate::verify::Key,
        kind: impl FnOnce() -> crate::verify::OpKind,
        ret: u64,
        ok: bool,
        invoke: Nanos,
        response: Nanos,
    ) {
        let Some(log) = self.kernel.observe().and_then(|obs| obs.history().cloned()) else {
            return;
        };
        log.record(crate::verify::HistOp {
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
        kind: impl FnOnce() -> crate::verify::OpKind,
        ok: bool,
        invoke: Nanos,
        response: Nanos,
    ) {
        let key = crate::verify::Key::Reg {
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

    fn enter(&self, ctx: &mut Ctx) {
        if self.user_level {
            ctx.work(SYSCALL_CROSSING_NS);
        }
    }

    fn exit(&self, ctx: &mut Ctx) {
        // With the §5.2 optimizations the return path is observed through
        // the shared page — no further crossing. The ablation restores
        // the full syscall return plus a re-entry to fetch results.
        if self.user_level && !self.kernel.config.fast_syscalls {
            ctx.work(2 * SYSCALL_CROSSING_NS);
        }
    }

    /// Runs `body` as one simulated system call: the crossing in, and the
    /// return on every path — a call that fails still came back from the
    /// kernel.
    fn syscall<T>(
        &mut self,
        ctx: &mut Ctx,
        body: impl FnOnce(&mut Self, &mut Ctx) -> LiteResult<T>,
    ) -> LiteResult<T> {
        self.enter(ctx);
        let result = body(self, ctx);
        self.exit(ctx);
        result
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
        let new_cap = need.next_power_of_two();
        let mut a = kernel.alloc.lock();
        let new_addr = a.alloc(new_cap as u64)?;
        a.free(s.addr)?;
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

    fn unstage(&self, addr: u64, buf: &mut [u8]) -> LiteResult<()> {
        self.kernel
            .fabric()
            .mem(self.kernel.node())
            .read(addr, buf)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // kernel-call plumbing
    // ------------------------------------------------------------------

    /// Sends one LITE RPC (request write-imm → slot wait) and returns the
    /// reply bytes. `func` may be a kernel service or a user function.
    fn call_raw(
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
        let total = HEADER_BYTES as u64 + payload.len() as u64;
        let r = self.kernel.reserve_ring(ctx, server, total)?;
        let (slot_id, slot) = if oneway {
            (0, None)
        } else {
            Self::ensure(&self.kernel, &mut self.reply, max_reply.max(1))?;
            let (id, s) = self.kernel.alloc_slot();
            (id, Some(s))
        };
        let hdr = MsgHeader {
            func,
            slot: slot_id,
            len: payload.len() as u32,
            reply_addr: self.reply.addr,
            reply_max: max_reply as u32,
            src_node: self.kernel.node() as u32,
            src_pid: self.pid,
            skip: r.skip as u32,
        };
        // One write-imm carries header + input (§5.1 step 2), staged
        // back to back.
        Self::ensure(&self.kernel, &mut self.staging, total as usize)?;
        let staged = self.staging.addr;
        let mem = self.kernel.fabric().mem(self.kernel.node());
        mem.write(staged, &hdr.encode())?;
        mem.write(staged + HEADER_BYTES as u64, payload)?;
        let chunks = [Chunk {
            addr: staged,
            len: total,
        }];
        let dst = self.kernel.ring_remote_addr(server, r.offset)?;
        let imm = Imm::Request {
            granule: (r.offset / crate::wire::RING_GRANULE) as u32,
        };
        let post =
            self.kernel
                .post_write_imm(ctx, self.prio, server, dst, &chunks, total as usize, imm);
        let Some(slot) = slot else {
            post?;
            return Ok(Vec::new());
        };
        let result = post.and_then(|_| slot.wait(ctx, &self.kernel.config));
        self.kernel.free_slot(slot_id);
        let res = result?;
        self.span(OpClass::Rpc, server, span_start, res.stamp);
        if !res.ok {
            return Err(LiteError::UnknownRpc { func });
        }
        if res.len as usize > max_reply {
            return Err(LiteError::TooLarge {
                len: res.len as usize,
                max: max_reply,
            });
        }
        // The reply was RDMA-written straight into our reply buffer —
        // zero-copy at the client.
        let mut out = vec![0u8; res.len as usize];
        self.unstage(self.reply.addr, &mut out)?;
        Ok(out)
    }

    /// Kernel-service call; checks the leading status byte.
    pub(crate) fn kcall(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        payload: Vec<u8>,
    ) -> LiteResult<Vec<u8>> {
        let resp = self.call_raw(ctx, server, func, &payload, 64 * 1024, false)?;
        match resp.first() {
            Some(0) => Ok(resp[1..].to_vec()),
            Some(&code) => Err(map_status(code)),
            None => Err(LiteError::Remote(0xFB)),
        }
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
            let max_chunk = this.kernel.config.max_lmr_chunk;
            let resp = this.kcall(
                ctx,
                target,
                FN_MALLOC,
                Enc::new().u64(size).u64(max_chunk).done(),
            )?;
            let mut d = Dec::new(&resp);
            let n = d.u32()?;
            let mut extents = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let addr = d.u64()?;
                let len = d.u64()?;
                extents.push((target, Chunk { addr, len }));
            }
            let location = Location { extents };
            let id = this.kernel.create_master_record(
                location.clone(),
                Some(name.to_string()),
                default_perm,
            );
            // Register the name with the cluster manager; roll back on clash.
            let reg = this.kcall(
                ctx,
                MANAGER_NODE,
                FN_REGNAME,
                Enc::new()
                    .bytes(name.as_bytes())
                    .u32(this.kernel.node() as u32)
                    .done(),
            );
            if let Err(e) = reg {
                this.kernel.remove_master_record(id.idx);
                // The registration may have landed with only its reply lost;
                // best-effort guarded scrub so a half-registered name cannot
                // outlive the record it pointed at. A clean name clash
                // (Remote(1)) means someone else owns the binding — the
                // guard makes scrubbing it a no-op either way.
                if !matches!(e, LiteError::Remote(1)) {
                    let _ = this.kcall(
                        ctx,
                        MANAGER_NODE,
                        FN_UNREGNAME,
                        Enc::new()
                            .bytes(name.as_bytes())
                            .u32(this.kernel.node() as u32)
                            .done(),
                    );
                }
                let mut free = Enc::new().u32(location.extents.len() as u32);
                for (_, c) in &location.extents {
                    free = free.u64(c.addr);
                }
                if this
                    .kcall(ctx, target, FN_FREE_CHUNKS, free.done())
                    .is_err()
                {
                    // Rollback failed: the chunks on `target` are leaked.
                    // Count it and trace it instead of swallowing it.
                    this.kernel.note_cleanup_failure(target, ctx.now());
                }
                let mapped = matches!(e, LiteError::Remote(1));
                return Err(if mapped {
                    LiteError::NameExists {
                        name: name.to_string(),
                    }
                } else {
                    e
                });
            }
            let lh = this.kernel.install_lh(
                this.pid,
                LhEntry {
                    id,
                    name: name.to_string(),
                    location,
                    perm: Perm::MASTER,
                    stale: false,
                    relocated: false,
                },
            );
            this.kernel
                .mm()
                .record_reg_latency(ctx.now().saturating_sub(reg_started));
            Ok(lh)
        })
    }

    /// LT_map: acquires an lh for a named LMR (manager lookup + master
    /// map, §4.1).
    pub fn lt_map(&mut self, ctx: &mut Ctx, name: &str) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| {
            let query = Enc::new().bytes(name.as_bytes()).done();
            let resp = this
                .kcall(ctx, MANAGER_NODE, FN_QUERYNAME, query)
                .map_err(|e| named_err(e, name))?;
            let master = Dec::new(&resp).u32()? as NodeId;
            this.map_at(ctx, name, master)
        })
    }

    /// LT_map with a known master node (the paper's
    /// `LT_map(name, master)` form) — skips the manager lookup.
    pub fn lt_map_at(&mut self, ctx: &mut Ctx, name: &str, master: NodeId) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| this.map_at(ctx, name, master))
    }

    fn map_at(&mut self, ctx: &mut Ctx, name: &str, master: NodeId) -> LiteResult<Lh> {
        let resp = self
            .kcall(
                ctx,
                master,
                FN_MAP,
                Enc::new().bytes(name.as_bytes()).done(),
            )
            .map_err(|e| named_err(e, name))?;
        let mut d = Dec::new(&resp);
        let id = LmrId {
            node: d.u32()?,
            idx: d.u32()?,
        };
        let perm = crate::kernel::byte_to_perm(d.u8()?);
        let n = d.u32()?;
        let mut extents = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let node = d.u32()? as NodeId;
            let addr = d.u64()?;
            let len = d.u64()?;
            extents.push((node, Chunk { addr, len }));
        }
        Ok(self.kernel.install_lh(
            self.pid,
            LhEntry {
                id,
                name: name.to_string(),
                location: Location { extents },
                perm,
                stale: false,
                relocated: false,
            },
        ))
    }

    /// Transparently refreshes an lh whose cached location went stale
    /// under memory tiering (the master's `lite::mm` migrated chunks):
    /// re-fetches the location from the master and reinstalls the entry
    /// under the *same* lh number. The permission the handle already
    /// carries is preserved — a plain `FN_MAP` reply would downgrade a
    /// master handle to the granted perm.
    fn refresh_lh(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        let entry = self.kernel.lookup_lh(self.pid, lh)?;
        let resp = self
            .kcall(
                ctx,
                entry.id.node as NodeId,
                FN_MAP,
                Enc::new().bytes(entry.name.as_bytes()).done(),
            )
            .map_err(|e| match e {
                // The LMR vanished while we held a relocated handle: the
                // handle is dead, not merely stale.
                LiteError::NameNotFound { .. } => LiteError::BadLh { lh },
                other => other,
            })?;
        let mut d = Dec::new(&resp);
        let id = LmrId {
            node: d.u32()?,
            idx: d.u32()?,
        };
        let _granted = d.u8()?;
        let n = d.u32()?;
        let mut extents = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let node = d.u32()? as NodeId;
            let addr = d.u64()?;
            let len = d.u64()?;
            extents.push((node, Chunk { addr, len }));
        }
        self.kernel.reinstall_lh(
            self.pid,
            lh,
            LhEntry {
                id,
                name: entry.name,
                location: Location { extents },
                perm: entry.perm,
                stale: false,
                relocated: false,
            },
        );
        Ok(())
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
        guards: &mut Vec<crate::mm::PinGuard>,
    ) -> LiteResult<()> {
        let mut lmr_off = offset;
        let mut faulted = 0usize;
        for (node, c) in pieces {
            if let Some(mm) = self.kernel.mm().peer(*node) {
                match mm.pin_touch(c.addr, c.len, id, lmr_off) {
                    (crate::mm::PinOutcome::Untracked, _) => {}
                    (crate::mm::PinOutcome::Pinned(g), f) => {
                        guards.push(g);
                        faulted += f;
                    }
                    (crate::mm::PinOutcome::Relocated, _) => return Err(LiteError::Relocated),
                }
            }
            lmr_off += c.len;
        }
        if faulted > 0 {
            ctx.work(self.kernel.fabric().cost().fault_page_ns * faulted as u64);
        }
        Ok(())
    }

    /// Runs `body` once against the live physical pieces of `ranges`
    /// (`(offset, len, needed permission)` each) of `lh`, inside one
    /// syscall crossing. The combinator owns the tiering heal loop — a
    /// `Relocated` from the permission/bounds check or from a pin means
    /// the cached location is stale: re-fetch it from the master and
    /// resolve again — and the pin fencing: every range is pinned before
    /// `body` runs (so healing has no side effect to repeat) and stays
    /// pinned until it returns (eviction drains pins, so no chunk can
    /// move or be freed under an in-flight op). `body` reads target
    /// addresses out of the piece lists it is handed, which the pins have
    /// just verified against the live mapping. Every path, error or not,
    /// leaves through `exit()`.
    fn with_fresh_pieces<T>(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        ranges: impl Iterator<Item = (u64, usize, Perm)> + Clone,
        body: impl FnOnce(&mut Self, &mut Ctx, LmrId, &[Vec<(NodeId, Chunk)>]) -> LiteResult<T>,
    ) -> LiteResult<T> {
        self.syscall(ctx, |this, ctx| {
            let (id, pieces, _pins) = this.fresh_pieces(ctx, lh, ranges)?;
            body(this, ctx, id, &pieces)
        })
    }

    /// The heal loop of [`Self::with_fresh_pieces`]: the lh's LMR, the
    /// pieces of every range, and the pins that keep them where they are.
    #[allow(clippy::type_complexity)]
    fn fresh_pieces(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        ranges: impl Iterator<Item = (u64, usize, Perm)> + Clone,
    ) -> LiteResult<(LmrId, Vec<Vec<(NodeId, Chunk)>>, Vec<crate::mm::PinGuard>)> {
        for attempt in 0..3 {
            if attempt > 0 {
                self.refresh_lh(ctx, lh)?;
            }
            // Resolve against the entry in place; only the pieces leave.
            let resolved = self.kernel.with_lh(self.pid, lh, |entry| {
                let mut pieces = Vec::with_capacity(ranges.size_hint().0);
                for (offset, len, need) in ranges.clone() {
                    pieces.push(entry.check(offset, len, need)?);
                }
                Ok((entry.id, pieces))
            });
            let mut pins = Vec::new();
            let pinned = resolved.and_then(|(id, pieces)| {
                for ((offset, ..), p) in ranges.clone().zip(&pieces) {
                    self.pin_pieces(ctx, id, offset, p, &mut pins)?;
                }
                Ok((id, pieces))
            });
            match pinned {
                Ok((id, pieces)) => return Ok((id, pieces, pins)),
                Err(LiteError::Relocated) => {}
                Err(e) => return Err(e),
            }
        }
        Err(LiteError::Relocated)
    }

    /// LT_unmap: drops the lh and tells the master.
    pub fn lt_unmap(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.kernel.remove_lh(this.pid, lh)?;
            let _ = this.kcall(
                ctx,
                entry.id.node as NodeId,
                FN_UNMAP,
                Enc::new()
                    .u32(entry.id.idx)
                    .u32(this.kernel.node() as u32)
                    .done(),
            );
            Ok(())
        })
    }

    /// LT_free: frees the LMR everywhere and invalidates every mapper.
    /// Requires a master lh.
    pub fn lt_free(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.kernel.lookup_lh(this.pid, lh)?;
            if !entry.perm.master {
                return Err(LiteError::NotMaster);
            }
            let resp = this.kcall(
                ctx,
                entry.id.node as NodeId,
                FN_TAKE_RECORD,
                Enc::new().bytes(entry.name.as_bytes()).done(),
            )?;
            let mut d = Dec::new(&resp);
            let id = LmrId {
                node: d.u32()?,
                idx: d.u32()?,
            };
            let n = d.u32()?;
            let mut extents: Vec<(NodeId, Chunk)> = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let node = d.u32()? as NodeId;
                let addr = d.u64()?;
                let len = d.u64()?;
                extents.push((node, Chunk { addr, len }));
            }
            let m = d.u32()?;
            let mut mapped = Vec::with_capacity(m as usize);
            for _ in 0..m {
                mapped.push(d.u32()? as NodeId);
            }
            // Scrub the name binding *now*, immediately after the record was
            // taken — before the fallible chunk frees below. The old
            // ordering (unregister last) leaked the binding whenever a free
            // failed mid-way: the record was gone but the name stayed,
            // pointing at a master that would answer "unknown" forever and
            // blocking re-registration. The trailing u32 guards the scrub:
            // the manager only removes the binding if it still names this
            // master, so a name freed and re-registered by someone else in
            // the meantime is left alone.
            let _ = this.kcall(
                ctx,
                MANAGER_NODE,
                FN_UNREGNAME,
                Enc::new()
                    .bytes(entry.name.as_bytes())
                    .u32(entry.id.node)
                    .done(),
            );
            // Free storage per node.
            let mut by_node: std::collections::HashMap<NodeId, Vec<u64>> = Default::default();
            for (node, c) in &extents {
                by_node.entry(*node).or_default().push(c.addr);
            }
            for (node, addrs) in by_node {
                let mut e = Enc::new().u32(addrs.len() as u32);
                for a in addrs {
                    e = e.u64(a);
                }
                this.kcall(ctx, node, FN_FREE_CHUNKS, e.done())?;
            }
            // Invalidate every mapper (including ourselves, via loop-back).
            for node in mapped {
                let _ = this.kcall(
                    ctx,
                    node,
                    FN_INVALIDATE,
                    Enc::new().u32(id.node).u32(id.idx).done(),
                );
            }
            let _ = this.kernel.remove_lh(this.pid, lh);
            Ok(())
        })
    }

    /// LT_move (§4.1 master role): migrates the LMR's bytes to `target`
    /// and updates the master record; every other mapper's lh is
    /// invalidated so their next access fails fast and they re-map.
    /// Requires a master lh, and (in this implementation) must run on the
    /// LMR's record-holder node.
    pub fn lt_move(&mut self, ctx: &mut Ctx, lh: Lh, target: NodeId) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.kernel.lookup_lh(this.pid, lh)?;
            if !entry.perm.master {
                return Err(LiteError::NotMaster);
            }
            if entry.id.node as NodeId != this.kernel.node() {
                return Err(LiteError::NotMaster);
            }
            let len = entry.location.len();
            // Allocate at the target.
            let resp = this.kcall(
                ctx,
                target,
                FN_MALLOC,
                Enc::new()
                    .u64(len)
                    .u64(this.kernel.config.max_lmr_chunk)
                    .done(),
            )?;
            let mut d = Dec::new(&resp);
            let n = d.u32()?;
            let mut new_extents = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let addr = d.u64()?;
                let clen = d.u64()?;
                new_extents.push((target, Chunk { addr, len: clen }));
            }
            let new_loc = Location {
                extents: new_extents,
            };
            // Copy the bytes: each source piece pushed by its storage node.
            let src_pieces = entry.location.slice(0, len)?;
            let dst_pieces = new_loc.slice(0, len)?;
            let (mut si, mut di) = (0usize, 0usize);
            let (mut s_used, mut d_used) = (0u64, 0u64);
            let mut remaining = len;
            while remaining > 0 {
                let (s_node, s_c) = &src_pieces[si];
                let (d_node, d_c) = &dst_pieces[di];
                let nbytes = (s_c.len - s_used).min(d_c.len - d_used).min(remaining);
                let op = if s_node == d_node { 0u8 } else { 1u8 };
                this.kcall(
                    ctx,
                    *s_node,
                    FN_MEMCPY,
                    Enc::new()
                        .u8(op)
                        .u64(s_c.addr + s_used)
                        .u64(nbytes)
                        .u32(*d_node as u32)
                        .u64(d_c.addr + d_used)
                        .done(),
                )?;
                s_used += nbytes;
                d_used += nbytes;
                remaining -= nbytes;
                if s_used == s_c.len {
                    si += 1;
                    s_used = 0;
                }
                if d_used == d_c.len {
                    di += 1;
                    d_used = 0;
                }
            }
            // Swap the record, free the old storage, invalidate mappers.
            let Some((id, old_loc, mapped)) =
                this.kernel
                    .swap_master_location(&entry.name, this.kernel.node(), new_loc.clone())
            else {
                return Err(LiteError::NotMaster);
            };
            let mut by_node: std::collections::HashMap<NodeId, Vec<u64>> = Default::default();
            for (node, c) in &old_loc.extents {
                by_node.entry(*node).or_default().push(c.addr);
            }
            for (node, addrs) in by_node {
                let mut e = Enc::new().u32(addrs.len() as u32);
                for a in addrs {
                    e = e.u64(a);
                }
                this.kcall(ctx, node, FN_FREE_CHUNKS, e.done())?;
            }
            for node in mapped {
                let _ = this.kcall(
                    ctx,
                    node,
                    FN_INVALIDATE,
                    Enc::new().u32(id.node).u32(id.idx).done(),
                );
            }
            // Re-install our own (fresh) lh in place.
            this.kernel.remove_lh(this.pid, lh).ok();
            let new_lh = this.kernel.install_lh(
                this.pid,
                LhEntry {
                    id,
                    name: entry.name.clone(),
                    location: new_loc,
                    perm: Perm::MASTER,
                    stale: false,
                    relocated: false,
                },
            );
            // Keep the caller's lh number stable by aliasing: re-register the
            // fresh entry under the original lh id as well.
            let fresh = this.kernel.lookup_lh(this.pid, new_lh)?;
            this.kernel.reinstall_lh(this.pid, lh, fresh);
            this.kernel.remove_lh(this.pid, new_lh).ok();
            Ok(())
        })
    }

    /// Grants `perm` on a named LMR to `node` (master only).
    pub fn lt_grant(&mut self, ctx: &mut Ctx, lh: Lh, node: NodeId, perm: Perm) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.kernel.lookup_lh(this.pid, lh)?;
            if !entry.perm.master {
                return Err(LiteError::NotMaster);
            }
            this.kcall(
                ctx,
                entry.id.node as NodeId,
                FN_GRANT,
                Enc::new()
                    .bytes(entry.name.as_bytes())
                    .u32(node as u32)
                    .u8(perm_to_byte(perm))
                    .done(),
            )?;
            Ok(())
        })
    }

    /// LT_write: blocking one-sided write of `data` at `offset` in the
    /// LMR. Returns when the data is remotely visible (§4.2).
    pub fn lt_write(&mut self, ctx: &mut Ctx, lh: Lh, offset: u64, data: &[u8]) -> LiteResult<()> {
        let range = [(offset, data.len(), Perm::RW)].into_iter();
        self.with_fresh_pieces(ctx, lh, range, |this, ctx, id, pieces| {
            // Lookup/permission/bounds failures return before any side
            // effect and are not recorded in the history (a no-effect op
            // adds no constraint); failures past this point may have
            // partially applied and are recorded as failed writes.
            let start = ctx.now();
            let result = this.write_pieces(ctx, &pieces[0], data);
            let kind = || crate::verify::OpKind::Write {
                fp: crate::verify::fingerprint(data),
            };
            this.record_reg(
                id,
                offset,
                data.len(),
                kind,
                result.is_ok(),
                start,
                ctx.now(),
            );
            result
        })
    }

    fn write_pieces(
        &mut self,
        ctx: &mut Ctx,
        pieces: &[(NodeId, Chunk)],
        data: &[u8],
    ) -> LiteResult<()> {
        let staged = self.stage(data)?;
        // Multi-extent writes towards one node chain into a single
        // doorbell batch; single-extent writes post as before.
        let last = self.kernel.rdma_write_vec(ctx, self.prio, staged, pieces)?;
        self.finish_blocking(ctx, last);
        Ok(())
    }

    /// LT_read: blocking one-sided read into `buf` from `offset`.
    pub fn lt_read(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        buf: &mut [u8],
    ) -> LiteResult<()> {
        let range = [(offset, buf.len(), Perm::RO)].into_iter();
        self.with_fresh_pieces(ctx, lh, range, |this, ctx, id, pieces| {
            let start = ctx.now();
            let result = this.read_pieces(ctx, &pieces[0], buf);
            // Failed reads are excluded by the checker; fp is meaningful
            // only on the ok path.
            let ok = result.is_ok();
            let kind = || crate::verify::OpKind::Read {
                fp: if ok {
                    crate::verify::fingerprint(buf)
                } else {
                    0
                },
            };
            this.record_reg(
                id,
                offset,
                buf.len(),
                kind,
                result.is_ok(),
                start,
                ctx.now(),
            );
            result
        })
    }

    fn read_pieces(
        &mut self,
        ctx: &mut Ctx,
        pieces: &[(NodeId, Chunk)],
        buf: &mut [u8],
    ) -> LiteResult<()> {
        Self::ensure(&self.kernel, &mut self.staging, buf.len())?;
        let staged = self.staging.addr;
        let mut off = 0u64;
        let mut last = ctx.now();
        for (node, c) in pieces {
            let dst = [Chunk {
                addr: staged + off,
                len: c.len,
            }];
            let comp =
                self.kernel
                    .rdma_read(ctx, self.prio, *node, c.addr, &dst, c.len as usize)?;
            last = last.max(comp);
            off += c.len;
        }
        self.finish_blocking(ctx, last);
        self.unstage(staged, buf)?;
        Ok(())
    }

    fn finish_blocking(&self, ctx: &mut Ctx, comp: Nanos) {
        ctx.wait_until(comp);
        ctx.work(self.kernel.fabric().cost().cq_poll_ns);
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
            'attempt: for attempt in 0..3 {
                if attempt > 0 {
                    this.refresh_lh(ctx, lh)?;
                }
                let entry = this.kernel.lookup_lh(this.pid, lh)?;
                let pieces = match entry.check(offset, len, Perm::RW) {
                    Ok(p) => p,
                    Err(LiteError::Relocated) => continue,
                    Err(e) => return Err(e),
                };
                // The remote handler fences each range itself and answers
                // Relocated when a chunk is mid-migration; redoing all the
                // pieces after a refresh is idempotent.
                for (node, c) in pieces {
                    match this.kcall(
                        ctx,
                        node,
                        FN_MEMSET,
                        Enc::new().u64(c.addr).u64(c.len).u8(byte).done(),
                    ) {
                        Ok(_) => {}
                        Err(LiteError::Relocated) => continue 'attempt,
                        Err(e) => return Err(e),
                    }
                }
                return Ok(());
            }
            Err(LiteError::Relocated)
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
        self.copy_ranges(ctx, src_lh, src_off, dst_lh, dst_off, len, false)
    }

    /// Shared body of `lt_memcpy`/`lt_memmove`. `reverse` issues the
    /// per-piece copies from the highest address down — each FN_MEMCPY
    /// call buffers its whole subrange before writing, so segment order
    /// is the only thing that matters for overlapping ranges.
    #[allow(clippy::too_many_arguments)]
    fn copy_ranges(
        &mut self,
        ctx: &mut Ctx,
        src_lh: Lh,
        src_off: u64,
        dst_lh: Lh,
        dst_off: u64,
        len: usize,
        reverse: bool,
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            'attempt: for attempt in 0..3 {
                if attempt > 0 {
                    // Either handle's cached location may be the stale one;
                    // refresh both (a fresh refresh is a cheap no-op) and
                    // redo the whole copy — re-copying bytes is idempotent.
                    this.refresh_lh(ctx, src_lh)?;
                    this.refresh_lh(ctx, dst_lh)?;
                }
                let src_entry = this.kernel.lookup_lh(this.pid, src_lh)?;
                let dst_entry = this.kernel.lookup_lh(this.pid, dst_lh)?;
                let src_pieces = match src_entry.check(src_off, len, Perm::RO) {
                    Ok(p) => p,
                    Err(LiteError::Relocated) => continue,
                    Err(e) => return Err(e),
                };
                let dst_pieces = match dst_entry.check(dst_off, len, Perm::RW) {
                    Ok(p) => p,
                    Err(LiteError::Relocated) => continue,
                    Err(e) => return Err(e),
                };
                // Walk both piece lists in lockstep to build the per-call
                // segments, then issue them in copy order. A retry after
                // Relocated rebuilds from fresh pieces, so a stale segment
                // list is never re-issued.
                let (mut si, mut di) = (0usize, 0usize);
                let (mut s_used, mut d_used) = (0u64, 0u64);
                let mut remaining = len as u64;
                let mut segs: Vec<(NodeId, u64, NodeId, u64, u64)> = Vec::new();
                while remaining > 0 {
                    let (s_node, s_c) = &src_pieces[si];
                    let (d_node, d_c) = &dst_pieces[di];
                    let n = (s_c.len - s_used).min(d_c.len - d_used).min(remaining);
                    segs.push((*s_node, s_c.addr + s_used, *d_node, d_c.addr + d_used, n));
                    s_used += n;
                    d_used += n;
                    remaining -= n;
                    if s_used == s_c.len {
                        si += 1;
                        s_used = 0;
                    }
                    if d_used == d_c.len {
                        di += 1;
                        d_used = 0;
                    }
                }
                if reverse {
                    segs.reverse();
                }
                for (s_node, s_addr, d_node, d_addr, n) in segs {
                    let op = if s_node == d_node { 0u8 } else { 1u8 };
                    match this.kcall(
                        ctx,
                        s_node,
                        FN_MEMCPY,
                        Enc::new()
                            .u8(op)
                            .u64(s_addr)
                            .u64(n)
                            .u32(d_node as u32)
                            .u64(d_addr)
                            .done(),
                    ) {
                        Ok(_) => {}
                        Err(LiteError::Relocated) => continue 'attempt,
                        Err(e) => return Err(e),
                    }
                }
                return Ok(());
            }
            Err(LiteError::Relocated)
        })
    }

    /// LT_memmove: memcpy with memmove semantics for overlapping ranges
    /// inside one LMR. Each FN_MEMCPY call buffers its whole subrange
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
        let same_lmr = {
            let src_entry = self.kernel.lookup_lh(self.pid, src_lh)?;
            let dst_entry = self.kernel.lookup_lh(self.pid, dst_lh)?;
            src_entry.id == dst_entry.id
        };
        let overlaps = same_lmr && src_off < dst_off + len as u64 && dst_off < src_off + len as u64;
        let reverse = overlaps && dst_off > src_off;
        self.copy_ranges(ctx, src_lh, src_off, dst_lh, dst_off, len, reverse)
    }

    // ------------------------------------------------------------------
    // RPC / messaging
    // ------------------------------------------------------------------

    /// LT_regRPC: binds `func` (≥ [`USER_FUNC_MIN`]) on this node.
    pub fn register_rpc(&self, func: u8) -> LiteResult<()> {
        self.kernel.register_rpc(func)
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
        self.syscall(ctx, |this, ctx| {
            let timeout = this.kernel.config.op_timeout;
            let inc = this.kernel.pop_rpc(ctx, func, timeout)?;
            this.finish_recv(ctx, inc)
        })
    }

    fn finish_recv(&mut self, ctx: &mut Ctx, inc: crate::kernel::Incoming) -> LiteResult<RpcCall> {
        let client = inc.hdr.src_node as NodeId;
        let input = self.kernel.read_ring_payload(client, &inc)?;
        ctx.work(self.kernel.fabric().cost().memcpy_time(input.len() as u64));
        ctx.work(RPC_META_NS);
        self.kernel.release_ring(ctx, client, &inc)?;
        Ok(RpcCall {
            input,
            src_node: client,
            src_pid: inc.hdr.src_pid,
            route: ReplyRoute::of_hdr(&inc.hdr),
        })
    }

    /// Non-blocking LT_recvRPC: returns `Ok(None)` when no call is
    /// queued. Lets servers interleave RPC service with other work.
    pub fn lt_try_recv_rpc(&mut self, ctx: &mut Ctx, func: u8) -> LiteResult<Option<RpcCall>> {
        self.syscall(ctx, |this, ctx| {
            let inc = this.kernel.try_pop_rpc(ctx, func)?;
            inc.map(|inc| this.finish_recv(ctx, inc)).transpose()
        })
    }

    /// LT_replyRPC: sends the return value for `call`.
    pub fn lt_reply_rpc(&mut self, ctx: &mut Ctx, call: &RpcCall, output: &[u8]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| this.reply(ctx, call, output))
    }

    /// The reply half of a server-side call: stage `output` and send it.
    fn reply(&mut self, ctx: &mut Ctx, call: &RpcCall, output: &[u8]) -> LiteResult<()> {
        ctx.work(RPC_META_NS);
        let staged = self.stage(output)?;
        let chunks = [Chunk {
            addr: staged,
            len: output.len() as u64,
        }];
        self.kernel
            .send_reply(ctx, self.prio, call.route, &chunks, output.len())?;
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
            this.reply(ctx, call, output)?;
            let timeout = this.kernel.config.op_timeout;
            let inc = this.kernel.pop_rpc(ctx, func, timeout)?;
            this.finish_recv(ctx, inc)
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
            let timeout = this.kernel.config.op_timeout;
            let inc = this.kernel.pop_rpc(ctx, FN_MSG, timeout)?;
            let call = this.finish_recv(ctx, inc)?;
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
        let mut outs = Vec::with_capacity(results.len());
        let mut first_err = None;
        for r in results {
            match r {
                Ok(reply) => outs.push(reply),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(outs),
        }
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
            if this.mcast_reply.is_none() {
                this.mcast_reply = Some(Scratch {
                    addr: this.kernel.alloc.lock().alloc(INIT_SCRATCH as u64)?,
                    cap: INIT_SCRATCH,
                });
            }
            let scratch = this.mcast_reply.as_mut().expect("just initialized");
            Self::ensure(&this.kernel, scratch, cell.saturating_mul(servers.len()))?;
            let reply_base = scratch.addr;
            let total = HEADER_BYTES as u64 + input.len() as u64;
            // Fan-out: per destination, a posted completion slot or the
            // error that stopped it. Failed destinations keep their entry so
            // the gather below stays index-aligned with `servers`.
            let mut pending = Vec::with_capacity(servers.len());
            for (i, &server) in servers.iter().enumerate() {
                let raddr = reply_base + (i * cell) as u64;
                let r = match this.kernel.reserve_ring(ctx, server, total) {
                    Ok(r) => r,
                    Err(e) => {
                        pending.push(Err(e));
                        continue;
                    }
                };
                let (slot_id, slot) = this.kernel.alloc_slot();
                let hdr = MsgHeader {
                    func,
                    slot: slot_id,
                    len: input.len() as u32,
                    reply_addr: raddr,
                    reply_max: max_reply as u32,
                    src_node: this.kernel.node() as u32,
                    src_pid: this.pid,
                    skip: r.skip as u32,
                };
                // Header goes through a tiny transient staging cell so the
                // shared input staging stays untouched.
                let hdr_addr = match this.kernel.alloc.lock().alloc(HEADER_BYTES as u64) {
                    Ok(a) => a,
                    Err(e) => {
                        this.kernel.free_slot(slot_id);
                        pending.push(Err(LiteError::from(e)));
                        continue;
                    }
                };
                let post = this
                    .kernel
                    .fabric()
                    .mem(this.kernel.node())
                    .write(hdr_addr, &hdr.encode())
                    .map_err(LiteError::from)
                    .and_then(|()| {
                        let chunks = [
                            Chunk {
                                addr: hdr_addr,
                                len: HEADER_BYTES as u64,
                            },
                            Chunk {
                                addr: staged,
                                len: input.len() as u64,
                            },
                        ];
                        let dst = this.kernel.ring_remote_addr(server, r.offset)?;
                        let imm = Imm::Request {
                            granule: (r.offset / crate::wire::RING_GRANULE) as u32,
                        };
                        this.kernel.post_write_imm(
                            ctx,
                            this.prio,
                            server,
                            dst,
                            &chunks,
                            total as usize,
                            imm,
                        )
                    });
                if this.kernel.alloc.lock().free(hdr_addr).is_err() {
                    this.kernel.note_cleanup_failure(server, ctx.now());
                }
                match post {
                    Ok(_) => pending.push(Ok((slot_id, slot))),
                    Err(e) => {
                        this.kernel.free_slot(slot_id);
                        pending.push(Err(e));
                    }
                }
            }
            // Gather replies; every posted slot is waited on and freed
            // whatever its outcome.
            let mut results = Vec::with_capacity(pending.len());
            for (i, posted) in pending.into_iter().enumerate() {
                let result = match posted {
                    Ok((slot_id, slot)) => {
                        let waited = slot.wait(ctx, &this.kernel.config);
                        this.kernel.free_slot(slot_id);
                        match waited {
                            Ok(r) if r.ok => {
                                let mut buf = vec![0u8; (r.len as usize).min(cell)];
                                this.unstage(reply_base + (i * cell) as u64, &mut buf)
                                    .map(|()| buf)
                            }
                            Ok(_) => Err(LiteError::UnknownRpc { func }),
                            Err(e) => Err(e),
                        }
                    }
                    Err(e) => Err(e),
                };
                results.push(result);
            }
            Ok(results)
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
        self.enter(ctx);
        let start = ctx.now();
        let result = self.lock_inner(ctx, lock);
        let end = ctx.now();
        self.record_hist(
            crate::verify::Key::Lock {
                node: lock.node,
                addr: lock.addr,
            },
            || crate::verify::OpKind::Lock,
            0,
            result.is_ok(),
            start,
            end,
        );
        if result.is_ok() {
            self.span(OpClass::Lock, lock.node, start, end);
        }
        self.exit(ctx);
        result
    }

    fn lock_inner(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        let old = self
            .kernel
            .fetch_add(ctx, self.prio, lock.node, lock.addr, 1)?;
        if old == 0 {
            return Ok(());
        }
        // Contended: wait in the owner's FIFO queue (reply == grant).
        // The token names this enqueue attempt; on failure it lets the
        // abort ask the owner what actually happened.
        let token = self.kernel.next_sync_token();
        match self.kcall(
            ctx,
            lock.node,
            FN_LOCK,
            Enc::new().u8(1).u64(lock.addr).u64(token).done(),
        ) {
            Ok(_) => Ok(()),
            Err(e) => {
                // The enqueue's fate is unknown: the request or the
                // grant may have been dropped, or we may merely have
                // timed out while still queued. The per-pair ring is
                // FIFO and drops are terminal, so by the time the abort
                // runs the enqueue either ran or never will.
                match self.lock_abort(ctx, lock, token) {
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

    /// Asks the lock owner to cancel enqueue `token`; returns the
    /// owner's answer (0 = dequeued, 1 = already granted, 2 = never
    /// arrived). The owner memoizes the answer per token, so the
    /// bounded retries here are idempotent.
    fn lock_abort(&mut self, ctx: &mut Ctx, lock: LockId, token: u64) -> LiteResult<u8> {
        let payload = Enc::new().u8(3).u64(lock.addr).u64(token).done();
        let mut last = LiteError::Timeout;
        for _ in 0..3 {
            match self.kcall(ctx, lock.node, FN_LOCK, payload.clone()) {
                Ok(resp) => return resp.first().copied().ok_or(LiteError::Remote(0xFB)),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Best-effort rollback of a failed acquire's `fetch_add`.
    fn unwind_lock_word(&mut self, ctx: &mut Ctx, lock: LockId) {
        match self
            .kernel
            .fetch_add(ctx, self.prio, lock.node, lock.addr, u64::MAX)
        {
            Ok(_) => self.kernel.note_lock_unwind(),
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
        self.enter(ctx);
        let start = ctx.now();
        let result = self.unlock_inner(ctx, lock);
        self.record_hist(
            crate::verify::Key::Lock {
                node: lock.node,
                addr: lock.addr,
            },
            || crate::verify::OpKind::Unlock,
            0,
            result.is_ok(),
            start,
            ctx.now(),
        );
        self.exit(ctx);
        result
    }

    fn unlock_inner(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        let old = self
            .kernel
            .fetch_add(ctx, self.prio, lock.node, lock.addr, u64::MAX)?; // -1
        if old == 0 {
            // Unlock of a free lock (app bug or a forbidden retry after
            // a poisoned unlock): restore the word — leaving it at
            // `u64::MAX` would let every subsequent acquire fast-path.
            let _ = self
                .kernel
                .fetch_add(ctx, self.prio, lock.node, lock.addr, 1);
            return Err(LiteError::Internal("unlock of a free lock"));
        }
        if old == 1 {
            return Ok(()); // no waiters
        }
        // Another increment is outstanding: hand the lock over. The
        // release token is generated once and reused verbatim across
        // retries — the owner's dedup on consumed tokens is what makes
        // the retries safe (a release whose ack was lost cannot grant a
        // second waiter). "No waiter yet" (sub-code 3) means the
        // winner's enqueue is still in flight *or* its increment was
        // unwound by an abort; re-reading the word tells the two apart
        // (0 = nothing outstanding, the lock is simply free).
        let token = self.kernel.next_sync_token();
        let payload = Enc::new().u8(2).u64(lock.addr).u64(token).done();
        // Each failed kcall already burns up to one op_timeout, so the
        // attempt budget (not the deadline) bounds the error path; the
        // deadline bounds the fast "no waiter yet" polling loop.
        let deadline = std::time::Instant::now() + self.kernel.config.op_timeout * 4;
        let mut errs = 0;
        let mut last = None;
        loop {
            match self.kcall(ctx, lock.node, FN_LOCK, payload.clone()) {
                Ok(resp) if resp.first() == Some(&3) => {
                    match self
                        .kernel
                        .fetch_add(ctx, self.prio, lock.node, lock.addr, 0)
                    {
                        Ok(0) => return Ok(()),
                        Ok(_) => {}
                        Err(e) => last = Some(e),
                    }
                }
                Ok(_) => return Ok(()),
                Err(e) => {
                    errs += 1;
                    last = Some(e);
                    if errs >= 3 {
                        break;
                    }
                }
            }
            if std::time::Instant::now() >= deadline {
                break;
            }
            // Back off before re-asking: the in-flight enqueue (or the
            // aborting waiter's unwind) needs time to land.
            ctx.work(2_000);
            std::thread::yield_now();
        }
        // The word is already decremented but the handover may or may
        // not have been processed: indeterminate — poisoned.
        self.kernel.note_sync_leak(lock.node, ctx.now());
        Err(last.unwrap_or(LiteError::Timeout))
    }

    /// LT_barrier: blocks until `count` participants arrive at barrier
    /// `id` (coordinated by the manager node).
    pub fn lt_barrier(&mut self, ctx: &mut Ctx, id: u64, count: u32) -> LiteResult<()> {
        self.enter(ctx);
        let start = ctx.now();
        let result = self
            .kcall(
                ctx,
                MANAGER_NODE,
                FN_BARRIER,
                Enc::new().u64(id).u32(count).done(),
            )
            .map(|_| ());
        let end = ctx.now();
        self.record_hist(
            crate::verify::Key::Barrier { id },
            || crate::verify::OpKind::Barrier { count },
            0,
            result.is_ok(),
            start,
            end,
        );
        if result.is_ok() {
            self.span(OpClass::Barrier, MANAGER_NODE, start, end);
        }
        self.exit(ctx);
        result
    }

    /// LT_fetch-add on a u64 inside an LMR; returns the previous value.
    /// A one-element [`Self::lt_chain`].
    pub fn lt_fetch_add(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        delta: u64,
    ) -> LiteResult<u64> {
        self.lt_atomic(ctx, lh, ChainOp::FetchAdd { off: offset, delta })
    }

    fn lt_atomic(&mut self, ctx: &mut Ctx, lh: Lh, op: ChainOp) -> LiteResult<u64> {
        match self.lt_chain(ctx, lh, &[op])?.pop() {
            Some(ChainOut::Value(old)) => Ok(old),
            _ => Err(LiteError::Internal("atomic chain op returned no value")),
        }
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
    /// version-check release). A one-element [`Self::lt_chain`], so it
    /// shares its Relocated-healing and pin discipline; the datapath
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
        let off = offset;
        self.lt_atomic(ctx, lh, ChainOp::CmpSwap { off, expect, new })
    }

    /// Executes an ordered chain of one-sided ops on one LMR in a single
    /// call: one syscall crossing, one lh lookup, one pin pass over every
    /// range, one doorbell per storage node, one completion wait. Ops are
    /// unconditional and take effect in order (a later op sees every
    /// earlier one); the result holds one [`ChainOut`] per op — the bytes
    /// read, or the word's previous value for atomics.
    ///
    /// This is the round-trip lever for protocols whose steps do not
    /// depend on each other's results (publish a record *then* release
    /// its lock; lock a write set *and* validate a read set): N blocking
    /// waits become one.
    ///
    /// An `Err` means the chain stopped part-way: a prefix of the ops may
    /// have taken effect, each at most once.
    pub fn lt_chain(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        ops: &[ChainOp],
    ) -> LiteResult<Vec<ChainOut>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let ranges = ops.iter().map(|op| match *op {
            ChainOp::Write { off, data } => (off, data.len(), Perm::RW),
            ChainOp::Read { off, len } => (off, len, Perm::RO),
            ChainOp::FetchAdd { off, .. } | ChainOp::CmpSwap { off, .. } => (off, 8, Perm::RW),
        });
        self.with_fresh_pieces(ctx, lh, ranges, |this, ctx, id, pieces| {
            this.chain_pieces(ctx, id, ops, pieces)
        })
    }

    /// The body of [`Self::lt_chain`] once every range is resolved and
    /// pinned: stage, post, wait once, collect.
    fn chain_pieces(
        &mut self,
        ctx: &mut Ctx,
        id: LmrId,
        ops: &[ChainOp],
        pieces: &[Vec<(NodeId, Chunk)>],
    ) -> LiteResult<Vec<ChainOut>> {
        let start = ctx.now();
        // Staging holds every write's payload and every read's landing
        // zone, in op order: one local chunk per physical piece.
        let staged = |op: &ChainOp| match *op {
            ChainOp::Write { data, .. } => data.len(),
            ChainOp::Read { len, .. } => len,
            ChainOp::FetchAdd { .. } | ChainOp::CmpSwap { .. } => 0,
        };
        let total: usize = ops.iter().map(staged).sum();
        Self::ensure(&self.kernel, &mut self.staging, total)?;
        let mem = self.kernel.fabric().mem(self.kernel.node());
        let mut zone = self.staging.addr;
        let staged_pieces = ops.iter().zip(pieces).filter(|(op, _)| staged(op) > 0);
        let mut zones = Vec::with_capacity(staged_pieces.map(|(_, p)| p.len()).sum());
        for (op, pieces) in ops.iter().zip(pieces) {
            match *op {
                ChainOp::Write { data, .. } => mem.write(zone, data)?,
                ChainOp::Read { .. } => {}
                ChainOp::FetchAdd { .. } | ChainOp::CmpSwap { .. } => continue,
            }
            for (_, c) in pieces {
                zones.push(Chunk {
                    addr: zone,
                    len: c.len,
                });
                zone += c.len;
            }
        }
        // One datapath descriptor per physical piece, borrowing its zone.
        let mut posts = Vec::with_capacity(zones.len() + ops.len());
        let mut zone_of = zones.iter().map(std::slice::from_ref);
        for (op, pieces) in ops.iter().zip(pieces) {
            match *op {
                ChainOp::Write { .. } | ChainOp::Read { .. } => {
                    for (&(node, c), here) in pieces.iter().zip(&mut zone_of) {
                        posts.push(match op {
                            ChainOp::Write { .. } => Op::write(node, c.addr, here, c.len as usize),
                            _ => Op::read(node, c.addr, here, c.len as usize),
                        });
                    }
                }
                ChainOp::FetchAdd { off, delta } => {
                    let (node, c) = single_piece(off, pieces)?;
                    let addr = c.addr;
                    posts.push(Op::FetchAdd { node, addr, delta });
                }
                ChainOp::CmpSwap { off, expect, new } => {
                    let (node, c) = single_piece(off, pieces)?;
                    posts.push(Op::CmpSwap {
                        node,
                        addr: c.addr,
                        expect,
                        new,
                    });
                }
            }
        }
        let result = self.kernel.rdma_chain(ctx, self.prio, &posts);
        if let Ok(comps) = &result {
            // Ops that went out in a doorbell chain are still in flight;
            // single posts of blocking verbs have already been reaped.
            let last = comps.iter().map(|c| c.stamp).max().unwrap_or(0);
            if last > ctx.now() {
                self.finish_blocking(ctx, last);
            }
        }
        let end = ctx.now();
        // Walk the ops again with the same two cursors the posting pass
        // advanced: the staging zone and the descriptor index.
        let (mut zone, mut first) = (self.staging.addr, 0);
        let mut outs = Vec::with_capacity(ops.len());
        for (op, pieces) in ops.iter().zip(pieces) {
            match *op {
                ChainOp::Write { off, data } => {
                    // As `lt_write`: a failed chain may have applied any
                    // prefix, so its writes are recorded as failed.
                    let kind = || crate::verify::OpKind::Write {
                        fp: crate::verify::fingerprint(data),
                    };
                    self.record_reg(id, off, data.len(), kind, result.is_ok(), start, end);
                    outs.push(ChainOut::Done);
                    first += pieces.len();
                }
                ChainOp::Read { off, len } => {
                    let mut buf = vec![0u8; len];
                    if result.is_ok() {
                        mem.read(zone, &mut buf)?;
                    }
                    // An unread buffer is all zeroes: fingerprint 0.
                    let kind = || crate::verify::OpKind::Read {
                        fp: crate::verify::fingerprint(&buf),
                    };
                    self.record_reg(id, off, len, kind, result.is_ok(), start, end);
                    outs.push(ChainOut::Bytes(buf));
                    first += pieces.len();
                }
                ChainOp::FetchAdd { .. } | ChainOp::CmpSwap { .. } => {
                    let old = result.as_ref().map_or(0, |comps| comps[first].value);
                    outs.push(ChainOut::Value(old));
                    first += 1;
                }
            }
            zone += staged(op) as u64;
        }
        result.map(|_| outs)
    }
}

impl Drop for LiteHandle {
    fn drop(&mut self) {
        let node = self.kernel.node();
        let mut failures = 0;
        {
            let mut a = self.kernel.alloc.lock();
            let mcast = self.mcast_reply.as_ref().map(|s| s.addr);
            for addr in [self.staging.addr, self.reply.addr]
                .into_iter()
                .chain(mcast)
            {
                if a.free(addr).is_err() {
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

/// Atomics operate on one 8-byte word, which must therefore live inside
/// a single chunk of the LMR; `check` has already bounds/permission
/// checked the range, so more than one piece means the word straddles a
/// chunk boundary.
fn single_piece(offset: u64, pieces: &[(NodeId, Chunk)]) -> LiteResult<(NodeId, &Chunk)> {
    if pieces.len() != 1 {
        return Err(LiteError::StraddlesChunk { offset, len: 8 });
    }
    Ok((pieces[0].0, &pieces[0].1))
}

fn map_status(code: u8) -> LiteError {
    match code {
        1 => LiteError::Remote(1),
        2 => LiteError::NameNotFound {
            name: String::new(),
        },
        3 => LiteError::NotMaster,
        4 => LiteError::Relocated,
        other => LiteError::Remote(other),
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
    use crate::verify::OpKind;
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

        let log = cluster.record_history().unwrap();
        h.record_reg(id, 0, 8, || OpKind::Write { fp: 7 }, true, 0, 1);
        let ops = log.take().ops;
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, OpKind::Write { fp: 7 });
    }
}

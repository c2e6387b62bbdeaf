//! The RPC plane: completion slots, per-function queues, ring
//! reservation/release, reply routing, and the node's poller (§5.1,
//! §5.2, §6.1).
//!
//! The poller is a role, not a thread: the thread that delivers a
//! write-imm dispatches everything queued on the destination's shared
//! receive CQ ([`LiteKernel::drain_arrivals`]) on the poller's one clock.
//! A kernel call stops the node's dispatch until it is served, so that a
//! node's kernel state changes in the order its poller stamps (DESIGN.md
//! §5.3); it runs, as a served function's calls do, on the thread that
//! dispatched it once that holds nothing ([`super::serve`]).
//!
//! Everything here speaks [`Op`] descriptors through the node's
//! datapath; the only NIC-adjacent artifact left is the loop-back
//! delivery, which fabricates a completion into the shared receive CQ.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rnic::qp::RecvEntry;
use rnic::{NodeId, Wc, WcOpcode, COST};
use simnet::wait::{Deadline, Event};
use simnet::{Ctx, Nanos};
use smem::Chunk;

use super::datapath::Op;
use super::serve::{self, Pending, RpcQueue};
use super::{LiteKernel, FN_MSG, USER_FUNC_MIN};
use crate::config::LiteConfig;
use crate::error::{LiteError, LiteResult};
use crate::qos::Priority;
use crate::ring::{ClientRing, HeadCell, Reservation, ServerRing};
use crate::wire::{Imm, MsgHeader, HEADER_BYTES, RING_GRANULE};

/// Simulation-internal cost of a loop-back delivery (RPC to self).
const LOOPBACK_NS: Nanos = 400;

/// RPC metadata handling: mapping + protection for an RPC (§4.2: "less
/// than 0.3 µs").
pub const RPC_META_NS: Nanos = 300;

/// Poller cost to parse an IMM and dispatch to a queue.
pub const IMM_DISPATCH_NS: Nanos = 300;

/// How long a user thread busy-checks the shared completion page before
/// sleeping (the "adaptive" thread model of §5.2).
pub const ADAPTIVE_SPIN_NS: Nanos = 2_000;

/// A per-call completion slot: the simulation analogue of §5.2's shared
/// user/kernel page through which the LITE library observes completion
/// without a kernel-to-user crossing. It also carries a call that a
/// thread outside any `lt_*` call dispatched: the caller runs it
/// ([`serve::note`]).
#[derive(Default)]
pub(crate) struct CallSlot {
    state: Mutex<SlotState>,
    done: Event,
}

#[derive(Default)]
struct SlotState {
    result: Option<SlotResult>,
    help: Option<Pending>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotResult {
    pub stamp: Nanos,
    pub len: u32,
    pub ok: bool,
}

impl CallSlot {
    pub(crate) fn complete(&self, r: SlotResult) {
        self.state.lock().result = Some(r);
        self.done.wake();
    }

    /// Asks the caller to run `work`, which holds its call.
    pub(super) fn help(&self, work: Pending) {
        self.state.lock().help = Some(work);
        self.done.wake();
    }

    /// The result, or else the work the caller was asked to run.
    fn take(&self) -> Option<Result<SlotResult, Pending>> {
        let mut s = self.state.lock();
        s.result.map(Ok).or_else(|| s.help.take().map(Err))
    }

    /// Blocks for the result; models the adaptive busy-check-then-sleep
    /// wait of the LITE library (§5.2). The caller holds nothing here, so
    /// first it runs the calls its own deliveries dispatched, and any it
    /// is handed while it waits.
    pub(crate) fn wait(&self, ctx: &mut Ctx, cfg: &LiteConfig) -> LiteResult<SlotResult> {
        serve::run_pending();
        let mut deadline = None;
        let r = loop {
            let mut got = self.take();
            if got.is_none() {
                let until = *deadline.get_or_insert_with(|| Deadline::after(cfg.op_timeout));
                let ready = || {
                    got = self.take();
                    got.is_some()
                };
                self.done.park_until(ready, until);
            }
            match got.ok_or(LiteError::Timeout)? {
                Ok(r) => break r,
                Err(work) => serve::run_now(work),
            }
        };
        join_adaptively(ctx, cfg, r.stamp);
        Ok(r)
    }
}

/// Joins `stamp` as the LITE library waits (§5.2): it busy-checks briefly,
/// then sleeps until completion — or, with `adaptive_poll` off, spins.
fn join_adaptively(ctx: &mut Ctx, cfg: &LiteConfig, stamp: Nanos) {
    let gap = stamp.saturating_sub(ctx.now());
    let spun = if cfg.adaptive_poll {
        gap.min(ADAPTIVE_SPIN_NS)
    } else {
        gap
    };
    ctx.cpu.charge(spun);
    ctx.wait_until(stamp);
}

/// An incoming RPC parked in a function queue, payload still in the ring.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Decoded header.
    pub hdr: MsgHeader,
    /// Ring byte offset of the message start.
    pub ring_offset: u64,
    /// Virtual arrival stamp.
    pub stamp: Nanos,
}

/// The node's poller: its clock, and the kernel call it dispatched that
/// is still to be served. Held by whichever thread is dispatching or
/// serving; a deliverer only ever `try_lock`s it.
pub(super) struct Dispatcher {
    pub(super) ctx: Ctx,
    pub(super) held: Option<KernelCall>,
}

/// A kernel-service request the poller dispatched, parked until the
/// thread that noted it serves it.
pub(super) struct KernelCall {
    client: NodeId,
    inc: Incoming,
}

/// Where to send a (possibly delayed) reply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyRoute {
    pub node: u32,
    pub slot: u32,
    pub reply_addr: u64,
    pub reply_max: u32,
}

impl ReplyRoute {
    pub(crate) fn of_hdr(hdr: &MsgHeader) -> Self {
        ReplyRoute {
            node: hdr.src_node,
            slot: hdr.slot,
            reply_addr: hdr.reply_addr,
            reply_max: hdr.reply_max,
        }
    }
}

impl LiteKernel {
    pub(super) fn client_ring(&self, server: NodeId) -> LiteResult<Arc<ClientRing>> {
        self.client_rings
            .read()
            .get(server)
            .and_then(|r| r.clone())
            .ok_or(LiteError::NodeDown { node: server })
    }

    pub(super) fn server_ring(&self, client: NodeId) -> LiteResult<Arc<ServerRing>> {
        self.server_rings
            .read()
            .get(client)
            .and_then(|r| r.clone())
            .ok_or(LiteError::NodeDown { node: client })
    }

    /// Ensures the RPC ring pair towards `server` exists, wiring it on
    /// first use under the directory's connect lock (incremental
    /// membership: boot wires no rings except self-loopback). The wiring
    /// is client-driven and installs the *server's* ring state before
    /// the local client view, so a request can never arrive at a server
    /// that lacks ring state.
    pub(crate) fn ensure_ring(&self, server: NodeId) -> LiteResult<()> {
        if self
            .client_rings
            .read()
            .get(server)
            .is_some_and(Option::is_some)
        {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let _g = self.dir.lock_connect();
        // Double-check under the lock (another thread may have wired
        // the pair while this one waited).
        if self
            .client_rings
            .read()
            .get(server)
            .ok_or(LiteError::NodeDown { node: server })?
            .is_some()
        {
            return Ok(());
        }
        let srv = self
            .dir
            .kernel(server)
            .ok_or(LiteError::NodeDown { node: server })?;
        let base = srv.alloc_ring(self.node)?;
        let size = srv.config.rpc_ring_bytes;
        srv.install_server_ring(self.node, Arc::new(ServerRing::new(base, size)?));
        self.client_rings.write()[server] = Some(Arc::new(ClientRing::new(base, size)?));
        self.note_mesh_ns(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Posts a write-imm carrying `len` bytes from `src_chunks` to
    /// `(dst_node, dst_addr)`, then dispatches what waits in the
    /// destination's shared receive CQ, this one included. Loop-back
    /// (self) deliveries bypass the NIC but land in the same shared CQ;
    /// remote ones are an [`Op::Write`] with immediate data. Nothing else
    /// fills a shared receive CQ, so no arrival waits for a thread.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_write_imm(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        dst_node: NodeId,
        dst_addr: u64,
        src_chunks: &[Chunk],
        len: usize,
        imm: Imm,
    ) -> LiteResult<Nanos> {
        if dst_node == self.node {
            let land = [Chunk {
                addr: dst_addr,
                len: len as u64,
            }];
            self.mem().copy_from(self.mem(), src_chunks, &land)?;
            ctx.work(COST.memcpy_time(len as u64));
            let stamp = ctx.now() + LOOPBACK_NS;
            let mut wc = Wc::new(0, WcOpcode::RecvRdmaWithImm, len, stamp);
            wc.imm = Some(imm.encode());
            wc.src = Some((self.node, u64::MAX)); // loopback marker
            self.shared_recv_cq.push(wc);
            self.drain_arrivals();
            return Ok(stamp);
        }
        let op = Op::Write {
            dst_node,
            dst_addr,
            src: src_chunks.into(),
            len,
            imm: Some(imm.encode()),
        };
        let posted = self.datapath.post(ctx, prio, &op);
        if let Some(dst) = self.dir.kernel(dst_node) {
            dst.drain_arrivals();
        }
        Ok(posted?.stamp)
    }

    /// Reserves ring space towards `server`. Only when the cached head
    /// says the ring is full does this cost anything: the client pulls
    /// the server's head cell and retries, bounded by `op_timeout`. A ring
    /// that stays full — the server made no progress, or is unreachable
    /// and cannot say otherwise — is a typed [`LiteError::RingFull`].
    pub(crate) fn reserve_ring(
        &self,
        ctx: &mut Ctx,
        server: NodeId,
        total_len: u64,
    ) -> LiteResult<Reservation> {
        // The single chokepoint every outgoing RPC passes through: wire
        // the ring pair lazily here.
        self.ensure_ring(server)?;
        let ring = self.client_ring(server)?;
        let deadline = Deadline::after(self.config.op_timeout);
        loop {
            match ring.try_reserve(total_len) {
                Err(LiteError::RingFull) if !deadline.passed() => {}
                reserved => return reserved,
            }
            let seen = ring.head();
            match self.pull_head(ctx, server, &ring) {
                Err(
                    LiteError::Timeout | LiteError::NodeDown { .. } | LiteError::PeerDead { .. },
                ) => return Err(LiteError::RingFull),
                pulled => pulled?,
            }
            if ring.head() == seen {
                // Nothing was consumed since the last pull. Pull again
                // only once something has been, so that pulls — and the
                // virtual time they cost — follow the server's consumes,
                // not how often this host thread gets to spin.
                let srv = self.dir.kernel(server);
                let srv = srv.ok_or(LiteError::NodeDown { node: server })?;
                srv.server_ring(self.node)?.wait_past(seen, deadline);
            }
        }
    }

    /// Reads the head cell behind `ring` at `server` with one one-sided
    /// 16 B read through the datapath (a local copy on the loop-back
    /// ring), applies it, and advances the caller past both the read's
    /// completion and the consume that published the head.
    fn pull_head(&self, ctx: &mut Ctx, server: NodeId, ring: &ClientRing) -> LiteResult<()> {
        self.counters.count_ring_pull();
        let mut slot = self.pull_land.lock();
        let land = Chunk {
            addr: match *slot {
                Some(addr) => addr,
                None => *slot.insert(self.alloc.lock().alloc(HeadCell::BYTES as u64)?),
            },
            len: HeadCell::BYTES as u64,
        };
        let op = Op::read(
            server,
            ring.head_cell(),
            std::slice::from_ref(&land),
            HeadCell::BYTES,
        );
        let done = self.datapath.post(ctx, Priority::High, &op)?.stamp;
        let mut cell = [0u8; HeadCell::BYTES];
        self.mem().read(land.addr, &mut cell)?;
        let cell = HeadCell::decode(&cell);
        if !ring.update_head(cell.head) {
            return Err(LiteError::Internal("head cell ahead of the ring's tail"));
        }
        ctx.wait_until(done.max(cell.stamp));
        ctx.work(COST.cq_poll_ns);
        Ok(())
    }

    /// Ring slot → physical address at the server.
    pub(crate) fn ring_remote_addr(&self, server: NodeId, offset: u64) -> LiteResult<u64> {
        Ok(self.client_ring(server)?.remote_base + offset)
    }

    /// Registers a fresh completion slot.
    pub(crate) fn alloc_slot(&self) -> (u32, Arc<CallSlot>) {
        loop {
            let id = self.next_slot.fetch_add(1, Ordering::Relaxed) & ((1 << 30) - 1);
            if id == 0 {
                continue;
            }
            let slot = Arc::<CallSlot>::default();
            if self.slots.insert_if_absent(id, Arc::clone(&slot)) {
                return (id, slot);
            }
        }
    }

    /// Drops a completion slot (after wait or timeout).
    pub(crate) fn free_slot(&self, id: u32) {
        self.slots.remove(&id);
    }

    /// Binds an RPC function id to a fresh queue (LT_regRPC).
    pub fn register_rpc(&self, func: u8) -> LiteResult<()> {
        if func < USER_FUNC_MIN {
            return Err(LiteError::ReservedFunc { func });
        }
        self.queues.with_shard_of(&func, |m| {
            m.entry(func).or_default();
        });
        Ok(())
    }

    pub(crate) fn queue_of(&self, func: u8) -> LiteResult<Arc<RpcQueue>> {
        self.queues.get(&func).ok_or(LiteError::UnknownRpc { func })
    }

    /// Blocking dequeue of the next call for `func` (LT_recvRPC's kernel
    /// half).
    pub(crate) fn pop_rpc(
        &self,
        ctx: &mut Ctx,
        func: u8,
        timeout: Duration,
    ) -> LiteResult<Incoming> {
        let q = self.queue_of(func)?;
        let inc = self.arrivals.take_within(|| q.pop(), timeout);
        let inc = inc.ok_or(LiteError::Timeout)?;
        join_adaptively(ctx, &self.config, inc.stamp);
        Ok(inc)
    }

    /// Copies a parked message's payload out of the ring into `buf`.
    pub(crate) fn read_ring_payload(
        &self,
        client: NodeId,
        inc: &Incoming,
        buf: &mut Vec<u8>,
    ) -> LiteResult<()> {
        let ring = self.server_ring(client)?;
        buf.resize(inc.hdr.len as usize, 0);
        self.mem()
            .read(ring.base + inc.ring_offset + HEADER_BYTES as u64, buf)?;
        Ok(())
    }

    /// Frees the ring span of a consumed message (§5.1 step f). The new
    /// head is published in the ring's head cell; nothing is sent.
    pub(crate) fn release_ring(&self, ctx: &Ctx, client: NodeId, inc: &Incoming) -> LiteResult<()> {
        let total = HEADER_BYTES as u64 + inc.hdr.len as u64;
        let ring = self.server_ring(client)?;
        let skip = inc.hdr.skip as u64;
        Ok(ring.consume(self.mem(), inc.ring_offset, total, skip, ctx.now())?)
    }

    /// Sends a reply (LT_replyRPC's kernel half): writes the payload to
    /// the client's reply buffer and signals its slot.
    pub(crate) fn send_reply(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        route: ReplyRoute,
        src_chunks: &[Chunk],
        len: usize,
    ) -> LiteResult<Nanos> {
        if route.slot == 0 {
            // One-way message: nothing to send.
            return Ok(ctx.now());
        }
        if len > route.reply_max as usize {
            return Err(LiteError::TooLarge {
                len,
                max: route.reply_max as usize,
            });
        }
        let imm = Imm::Reply { slot: route.slot };
        let dst = route.node as NodeId;
        self.post_write_imm(ctx, prio, dst, route.reply_addr, src_chunks, len, imm)
    }

    /// Sends an error reply (consumes no reply-buffer space).
    pub(super) fn send_error_reply(&self, ctx: &mut Ctx, route: ReplyRoute) -> LiteResult<()> {
        if route.slot == 0 {
            return Ok(());
        }
        self.post_write_imm(
            ctx,
            Priority::High,
            route.node as NodeId,
            route.reply_addr,
            &[],
            0,
            Imm::ReplyErr { slot: route.slot },
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // The node's poller (§5.1/§6.1: one per node), a role any thread
    // that delivers an arrival takes on.
    // ------------------------------------------------------------------

    /// Dispatches every arrival queued on the shared receive CQ, on the
    /// poller's clock. `post_write_imm` calls it on the destination after
    /// each delivery. A call that finds the dispatcher held returns at
    /// once: it pushed before it tried the lock, and a holder re-checks
    /// the CQ after it lets go, so one of them sees every arrival. A
    /// kernel call stops the drain until it is served: it is parked and
    /// noted for this thread to serve ([`serve::note`]), and so is one
    /// found parked, lest the thread that noted it be waiting elsewhere.
    pub(super) fn drain_arrivals(&self) {
        while !self.shared_recv_cq.is_empty() {
            let Some(mut d) = self.dispatcher.try_lock() else {
                return;
            };
            while d.held.is_none() {
                let Some(wc) = self.shared_recv_cq.pop() else {
                    break;
                };
                d.held = self.dispatch(&mut d.ctx, wc);
            }
            if let Some(call) = &d.held {
                let (client, slot) = (call.client, call.inc.hdr.slot);
                drop(d);
                if let Some(me) = self.dir.kernel(self.node) {
                    serve::note(self, Pending::Kernel(me), client, slot);
                }
                return;
            }
        }
    }

    /// Serves the parked kernel call, if no other thread has, on the
    /// poller's clock; then lets dispatch resume. Once the fabric is shut
    /// down nothing is served: the caller times out.
    pub(super) fn serve_held(&self) {
        if self.fabric.is_shut_down() {
            return;
        }
        let mut d = self.dispatcher.lock();
        if let Some(call) = d.held.take() {
            self.serve_kernel_call(&mut d.ctx, call);
        }
        drop(d);
        self.drain_arrivals();
    }

    /// One arrival, charged as a poll of the shared receive CQ: joins its
    /// stamp, reposts the credit it consumed, and routes it. Replies
    /// complete their slot and user calls join their function queue; a
    /// kernel call comes back to be parked.
    fn dispatch(&self, ctx: &mut Ctx, wc: Wc) -> Option<KernelCall> {
        if self.config.adaptive_poll {
            ctx.wait_until(wc.ready_at);
        } else {
            ctx.spin_until(wc.ready_at);
        }
        ctx.work(COST.cq_poll_ns);
        let (src_node, src_qp) = wc.src.unwrap_or((self.node, u64::MAX));
        // Repost the consumed receive credit (not for loop-backs, which
        // never consumed one).
        if src_qp != u64::MAX {
            self.shared_rq.post(RecvEntry {
                wr_id: 0,
                sge: None,
            });
            self.credits.wake();
            ctx.work(COST.post_wr_ns);
            if src_node != self.node {
                // Traffic from a peer is proof of life: revive it for the
                // liveness monitor without waiting for a probe (a
                // restarted node announces itself with its first RPC).
                self.datapath.mark_peer_alive(src_node);
            }
        }
        ctx.work(IMM_DISPATCH_NS);
        // A reserved (never sent) kind is dispatched to nobody.
        let (slot, len, ok) = match Imm::decode(wc.imm.unwrap_or(0))? {
            Imm::Request { granule } => {
                self.counters.count_rpc();
                let offset = granule as u64 * RING_GRANULE;
                return self.handle_request(ctx, src_node, offset, wc.ready_at);
            }
            Imm::Reply { slot } => (slot, wc.byte_len as u32, true),
            Imm::ReplyErr { slot } => (slot, 0, false),
        };
        if let Some(s) = self.slots.get(&slot) {
            let stamp = ctx.now();
            s.complete(SlotResult { stamp, len, ok });
        }
        None
    }

    /// Routes a request: a user function's (or `FN_MSG`'s) call joins its
    /// queue — a served one's noted for its server ([`serve::note`]) — and
    /// a kernel service's is returned to be served.
    fn handle_request(
        &self,
        ctx: &mut Ctx,
        client: NodeId,
        offset: u64,
        stamp: Nanos,
    ) -> Option<KernelCall> {
        let ring = self.server_ring(client).ok()?;
        let mut hbuf = [0u8; HEADER_BYTES];
        self.mem().read(ring.base + offset, &mut hbuf).ok()?;
        let hdr = MsgHeader::decode(&hbuf).ok()?;
        let inc = Incoming {
            hdr,
            ring_offset: offset,
            stamp,
        };
        if hdr.func < USER_FUNC_MIN && hdr.func != FN_MSG {
            return Some(KernelCall { client, inc });
        }
        match self.queues.get(&hdr.func) {
            Some(q) => match q.push(inc) {
                Some(server) => serve::note(self, Pending::Serve(server), client, hdr.slot),
                None => self.arrivals.wake(),
            },
            None => {
                // No handler bound: error-reply and release the ring.
                let _ = self.release_ring(ctx, client, &inc);
                let _ = self.send_error_reply(ctx, ReplyRoute::of_hdr(&hdr));
            }
        }
        None
    }

    /// Kernel service: reads the payload, frees the ring, runs the
    /// handler and sends its reply.
    fn serve_kernel_call(&self, ctx: &mut Ctx, KernelCall { client, inc }: KernelCall) {
        let mut payload = Vec::new();
        if self.read_ring_payload(client, &inc, &mut payload).is_err() {
            return;
        }
        let _ = self.release_ring(ctx, client, &inc);
        ctx.work(RPC_META_NS);
        let route = ReplyRoute::of_hdr(&inc.hdr);
        match self.kernel_service(ctx, &inc.hdr, &payload) {
            Ok(Some(resp)) => {
                let _ = self.reply_bytes(ctx, route, &resp);
            }
            Ok(None) => {} // delayed reply (locks, barriers) or one-way
            Err(_) => {
                let _ = self.send_error_reply(ctx, route);
            }
        }
    }

    /// Stages `bytes` in a scratch allocation and write-imm's them as a
    /// reply. Used by kernel-service handlers (user replies go through the
    /// caller's staging buffer instead).
    pub(super) fn reply_bytes(
        &self,
        ctx: &mut Ctx,
        route: ReplyRoute,
        bytes: &[u8],
    ) -> LiteResult<()> {
        if route.slot == 0 {
            return Ok(());
        }
        let addr = {
            let mut a = self.alloc.lock();
            a.alloc(bytes.len().max(1) as u64)?
        };
        self.mem().write(addr, bytes)?;
        let chunks = [Chunk {
            addr,
            len: bytes.len() as u64,
        }];
        let r = self.send_reply(ctx, Priority::High, route, &chunks, bytes.len());
        self.alloc.lock().free(addr)?;
        r.map(|_| ())
    }
}

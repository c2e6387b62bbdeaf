//! An RDMA-CM / rsockets-style socket on raw RC verbs.
//!
//! This is the "RDMA-CM" baseline of Figure 7: a connection manager that
//! gives applications a socket-like send/recv API over a dedicated RC QP
//! with pre-registered bounce buffers. It performs one extra user-buffer
//! copy on each side (rsockets semantics) and pays native Verbs costs for
//! everything else — close to raw RDMA, but with per-connection resources
//! and no sharing, unlike LITE.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use rnic::qp::RecvEntry;
use rnic::{Access, IbFabric, NodeId, Sge, VerbsError, VerbsResult, Wc, COST};
use simnet::wait::{Deadline, Event};
use simnet::{Ctx, Nanos};
use smem::AddrSpace;

/// Receive ring depth per socket.
const RING: usize = 64;

/// How long a sender waits for the peer to free a receive slot.
const CREDIT_WAIT: Duration = Duration::from_secs(10);

/// Free slots in one socket's receive ring, and what its peer's sender
/// parks on while there are none.
type Credits = Arc<(AtomicUsize, Event)>;

/// One end of an RDMA-CM style connection.
pub struct RcmSock {
    fabric: Arc<IbFabric>,
    node: NodeId,
    space: Arc<AddrSpace>,
    qp: Arc<rnic::Qp>,
    /// Registered send bounce buffer.
    send_mr: rnic::Mr,
    send_va: u64,
    /// Registered receive ring.
    recv_mr: rnic::Mr,
    recv_va: u64,
    buf_size: usize,
    /// Per-operation CM overhead vs raw verbs.
    overhead_ns: Nanos,
    /// Receive credits at the peer (flow control: rsockets blocks the
    /// sender when the peer's ring is full).
    peer_credits: Credits,
    /// Our own ring's credits (incremented when we repost).
    my_credits: Credits,
}

impl RcmSock {
    /// Establishes a connected pair between `(node_a, space_a)` and
    /// `(node_b, space_b)`, with `buf_size`-byte bounce buffers.
    pub fn pair(
        fabric: &Arc<IbFabric>,
        a: (NodeId, Arc<AddrSpace>),
        b: (NodeId, Arc<AddrSpace>),
        buf_size: usize,
    ) -> VerbsResult<(RcmSock, RcmSock)> {
        let (qa, qb) = fabric.rc_pair(a.0, b.0);
        let mut ctx = Ctx::new();
        let mut sa = Self::build(fabric, a.0, a.1, qa, buf_size, &mut ctx)?;
        let mut sb = Self::build(fabric, b.0, b.1, qb, buf_size, &mut ctx)?;
        sa.peer_credits = Arc::clone(&sb.my_credits);
        sb.peer_credits = Arc::clone(&sa.my_credits);
        Ok((sa, sb))
    }

    fn build(
        fabric: &Arc<IbFabric>,
        node: NodeId,
        space: Arc<AddrSpace>,
        qp: Arc<rnic::Qp>,
        buf_size: usize,
        ctx: &mut Ctx,
    ) -> VerbsResult<RcmSock> {
        let nic = fabric.nic(node);
        let send_va = space.mmap(buf_size as u64)?;
        let send_mr = nic.register_mr(ctx, &space, send_va, buf_size as u64, Access::LOCAL)?;
        let ring_len = (buf_size * RING) as u64;
        let recv_va = space.mmap(ring_len)?;
        let recv_mr = nic.register_mr(ctx, &space, recv_va, ring_len, Access::LOCAL)?;
        let sock = RcmSock {
            fabric: Arc::clone(fabric),
            node,
            space,
            qp,
            send_mr,
            send_va,
            recv_mr,
            recv_va,
            buf_size,
            overhead_ns: 150,
            peer_credits: Arc::default(),
            my_credits: Arc::new((AtomicUsize::new(RING), Event::default())),
        };
        for i in 0..RING {
            sock.post_ring_entry(ctx, i);
        }
        Ok(sock)
    }

    fn post_ring_entry(&self, ctx: &mut Ctx, slot: usize) {
        self.fabric.nic(self.node).post_recv(
            ctx,
            &self.qp,
            RecvEntry {
                wr_id: slot as u64,
                sge: Some(Sge::Virt {
                    lkey: self.recv_mr.lkey(),
                    addr: self.recv_va + (slot * self.buf_size) as u64,
                    len: self.buf_size,
                }),
            },
        );
    }

    /// Sends one message (≤ buffer size). Returns the remote-availability
    /// stamp.
    pub fn send(&self, ctx: &mut Ctx, data: &[u8]) -> VerbsResult<Nanos> {
        if data.len() > self.buf_size {
            return Err(VerbsError::RecvBufferTooSmall {
                need: data.len(),
                have: self.buf_size,
            });
        }
        // Flow control: take a receive credit at the peer, waiting for its
        // `recv` to free one (`Timeout` after `CREDIT_WAIT`).
        let (free, freed) = &*self.peer_credits;
        let take = |c: usize| c.checked_sub(1);
        let took = || free.fetch_update(SeqCst, SeqCst, take).is_ok();
        if !took() && !freed.park_until(took, Deadline::after(CREDIT_WAIT)) {
            return Err(VerbsError::Timeout);
        }
        let nic = self.fabric.nic(self.node);
        // rsockets copies the user buffer into the registered region.
        ctx.work(self.overhead_ns + COST.memcpy_time(data.len() as u64));
        let pa = self.space.translate(self.send_va)?;
        self.fabric.mem(self.node).write(pa, data)?;
        nic.post_send(
            ctx,
            &self.qp,
            0,
            &Sge::Virt {
                lkey: self.send_mr.lkey(),
                addr: self.send_va,
                len: data.len(),
            },
            None,
            false,
        )
    }

    /// Blocking receive of one message.
    pub fn recv(&self, ctx: &mut Ctx, timeout: Duration) -> VerbsResult<Vec<u8>> {
        let wc: Wc = self
            .qp
            .recv_cq
            .poll_blocking(ctx, false, timeout)
            .ok_or(VerbsError::Timeout)?;
        let slot = wc.wr_id as usize;
        let va = self.recv_va + (slot * self.buf_size) as u64;
        let mut out = vec![0u8; wc.byte_len];
        // Copy out of the bounce buffer (page at a time through the page
        // table; the ring is slab-backed so this resolves contiguously).
        let frags = self.space.translate_range(va, wc.byte_len as u64)?;
        let mut off = 0;
        for f in frags {
            self.fabric
                .mem(self.node)
                .read(f.addr, &mut out[off..off + f.len as usize])?;
            off += f.len as usize;
        }
        ctx.work(self.overhead_ns + COST.memcpy_time(wc.byte_len as u64));
        self.post_ring_entry(ctx, slot);
        let (free, freed) = &*self.my_credits;
        free.fetch_add(1, SeqCst);
        freed.wake();
        Ok(out)
    }

    /// The node this socket lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rnic::IbConfig;
    use simnet::MICROS;
    use smem::PhysAllocator;

    fn spaces(n: usize) -> Vec<Arc<AddrSpace>> {
        (0..n)
            .map(|_| {
                Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
                    0,
                    1 << 28,
                )))))
            })
            .collect()
    }

    #[test]
    fn roundtrip_and_latency_band() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let sp = spaces(2);
        let (a, b) = RcmSock::pair(
            &fabric,
            (0, Arc::clone(&sp[0])),
            (1, Arc::clone(&sp[1])),
            64 * 1024,
        )
        .unwrap();
        let mut actx = Ctx::new();
        let mut bctx = Ctx::new();
        // Warm the NIC SRAM caches (keys, PTEs, QP contexts), as the
        // paper's benchmarks do, then measure.
        a.send(&mut actx, b"warmup").unwrap();
        b.recv(&mut bctx, Duration::from_secs(1)).unwrap();
        bctx.wait_until(actx.now());
        actx.wait_until(bctx.now());
        let t0 = actx.now();
        a.send(&mut actx, b"hello rcm").unwrap();
        let got = b.recv(&mut bctx, Duration::from_secs(1)).unwrap();
        assert_eq!(got, b"hello rcm");
        // One-way small message: ~1.5-3 us, i.e. verbs-like, far below TCP.
        let e2e = bctx.now() - t0;
        assert!(e2e < 5 * MICROS, "rcm small-message {e2e} ns");
    }

    #[test]
    fn many_messages_reuse_ring() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let sp = spaces(2);
        let (a, b) = RcmSock::pair(
            &fabric,
            (0, Arc::clone(&sp[0])),
            (1, Arc::clone(&sp[1])),
            4096,
        )
        .unwrap();
        let mut actx = Ctx::new();
        let mut bctx = Ctx::new();
        for i in 0..500u32 {
            a.send(&mut actx, &i.to_le_bytes()).unwrap();
            let got = b.recv(&mut bctx, Duration::from_secs(1)).unwrap();
            assert_eq!(got, i.to_le_bytes());
        }
    }

    #[test]
    fn oversized_send_rejected() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let sp = spaces(2);
        let (a, _b) = RcmSock::pair(
            &fabric,
            (0, Arc::clone(&sp[0])),
            (1, Arc::clone(&sp[1])),
            1024,
        )
        .unwrap();
        let mut ctx = Ctx::new();
        assert!(a.send(&mut ctx, &vec![0u8; 2048]).is_err());
    }
}

//! Shared plumbing for the RPC baselines: registered scratch regions, UD
//! endpoints, and the stamp side-channel used by memory-polling receivers.
//!
//! The simulation moves real bytes through [`smem::PhysMem`], but a
//! receiver that polls *memory* (HERD's request regions, FaRM's rings)
//! has no CQ entry to learn the virtual arrival stamp from. The
//! [`Doorbell`] is the simulation's stand-in for the cache-coherent flag
//! byte such systems poll: it carries `(slot, stamp)` while the payload
//! itself travels through simulated memory.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rnic::qp::RecvEntry;
use rnic::{Access, IbFabric, Mr, NodeId, QpType, Sge, VerbsError, VerbsResult, Wc};
use simnet::wait::Event;
use simnet::{Ctx, Nanos};
use smem::{AddrSpace, PhysAllocator};

/// A registered, physically-resolved scratch region on one node.
pub struct Region {
    /// Owning node.
    pub node: NodeId,
    /// Virtual base in `space`.
    pub va: u64,
    /// Length in bytes.
    pub len: usize,
    /// The MR covering it.
    pub mr: Mr,
    space: Arc<AddrSpace>,
    fabric: Arc<IbFabric>,
}

impl Region {
    /// Allocates and registers a fresh region.
    pub fn new(
        fabric: &Arc<IbFabric>,
        node: NodeId,
        space: &Arc<AddrSpace>,
        len: usize,
        access: Access,
        ctx: &mut Ctx,
    ) -> VerbsResult<Region> {
        let va = space.mmap(len as u64)?;
        let mr = fabric
            .nic(node)
            .register_mr(ctx, space, va, len as u64, access)?;
        Ok(Region {
            node,
            va,
            len,
            mr,
            space: Arc::clone(space),
            fabric: Arc::clone(fabric),
        })
    }

    /// Writes bytes into the region at `off` (local host access).
    pub fn put(&self, off: usize, data: &[u8]) -> VerbsResult<()> {
        let frags = self
            .space
            .translate_range(self.va + off as u64, data.len() as u64)?;
        let mut pos = 0;
        for f in frags {
            self.fabric
                .mem(self.node)
                .write(f.addr, &data[pos..pos + f.len as usize])?;
            pos += f.len as usize;
        }
        Ok(())
    }

    /// Reads bytes from the region at `off`.
    pub fn get(&self, off: usize, buf: &mut [u8]) -> VerbsResult<()> {
        let frags = self
            .space
            .translate_range(self.va + off as u64, buf.len() as u64)?;
        let mut pos = 0;
        for f in frags {
            self.fabric
                .mem(self.node)
                .read(f.addr, &mut buf[pos..pos + f.len as usize])?;
            pos += f.len as usize;
        }
        Ok(())
    }
}

/// An unreliable-datagram endpoint: a UD QP with a ring of receives
/// posted, and a send scratch region.
pub struct UdEndpoint {
    fabric: Arc<IbFabric>,
    node: NodeId,
    qp: Arc<rnic::Qp>,
    recv: Region,
    /// The send scratch.
    pub send: Region,
    slot_size: usize,
}

impl UdEndpoint {
    /// An endpoint on `node` with `ring` receives of `slot_size` bytes.
    pub fn new(
        fabric: &Arc<IbFabric>,
        node: NodeId,
        ring: usize,
        slot_size: usize,
    ) -> VerbsResult<UdEndpoint> {
        let mut ctx = Ctx::new();
        let space = Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
            0,
            1 << 28,
        )))));
        let recv = Region::new(
            fabric,
            node,
            &space,
            slot_size * ring,
            Access::LOCAL,
            &mut ctx,
        )?;
        let send = Region::new(fabric, node, &space, slot_size, Access::LOCAL, &mut ctx)?;
        let qp = fabric.nic(node).create_qp(QpType::Ud);
        let ep = UdEndpoint {
            fabric: Arc::clone(fabric),
            node,
            qp,
            recv,
            send,
            slot_size,
        };
        for i in 0..ring {
            ep.repost(&mut ctx, i as u64);
        }
        Ok(ep)
    }

    /// The address senders send to.
    pub fn address(&self) -> (NodeId, u64) {
        (self.node, self.qp.id)
    }

    /// The stamp of the earliest received message, taking nothing.
    pub fn peek(&self) -> Option<Nanos> {
        self.qp.recv_cq.peek()
    }

    /// Busy-polls a received message; returns its completion and bytes.
    /// Its receive stays consumed until [`UdEndpoint::repost`].
    pub fn take(&self, ctx: &mut Ctx, timeout: Duration) -> VerbsResult<(Wc, Vec<u8>)> {
        let wc = self
            .qp
            .recv_cq
            .poll_blocking(ctx, true, timeout)
            .ok_or(VerbsError::Timeout)?;
        let mut out = vec![0u8; wc.byte_len];
        self.recv
            .get(wc.wr_id as usize * self.slot_size, &mut out)?;
        Ok((wc, out))
    }

    /// Posts receive `wr_id` of the ring (again).
    pub fn repost(&self, ctx: &mut Ctx, wr_id: u64) {
        let sge = Sge::Virt {
            lkey: self.recv.mr.lkey(),
            addr: self.recv.va + wr_id * self.slot_size as u64,
            len: self.slot_size,
        };
        let entry = RecvEntry {
            wr_id,
            sge: Some(sge),
        };
        self.fabric.nic(self.node).post_recv(ctx, &self.qp, entry);
    }

    /// UD-sends `payload` to `dest`.
    pub fn send_to(&self, ctx: &mut Ctx, dest: (NodeId, u64), payload: &[u8]) -> VerbsResult<()> {
        assert!(payload.len() <= self.slot_size);
        self.send.put(0, payload)?;
        let sge = Sge::Virt {
            lkey: self.send.mr.lkey(),
            addr: self.send.va,
            len: payload.len(),
        };
        let nic = self.fabric.nic(self.node);
        nic.post_send_ud(ctx, &self.qp, 0, &sge, dest, false)?;
        Ok(())
    }
}

/// A `(tag, stamp, len)` notification channel standing in for polled
/// memory flags.
#[derive(Default)]
pub struct Doorbell {
    q: Mutex<BinaryHeap<Reverse<(Nanos, u64, usize)>>>,
    rung: Event,
}

impl Doorbell {
    /// Creates an empty doorbell.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Rings: data tagged `tag` became visible at `stamp`.
    pub fn ring(&self, tag: u64, stamp: Nanos, len: usize) {
        self.q.lock().push(Reverse((stamp, tag, len)));
        self.rung.wake();
    }

    /// The earliest rung stamp, taking nothing.
    pub fn peek(&self) -> Option<Nanos> {
        self.q.lock().peek().map(|Reverse((stamp, ..))| *stamp)
    }

    /// Busy-polling receive: charges `scan_cost` CPU per poll iteration
    /// that found something, plus the full idle gap (these receivers spin).
    pub fn poll(
        &self,
        ctx: &mut Ctx,
        scan_cost: Nanos,
        timeout: Duration,
    ) -> Option<(u64, Nanos, usize)> {
        let Reverse((stamp, tag, len)) = self.rung.take_within(|| self.q.lock().pop(), timeout)?;
        ctx.spin_until(stamp);
        ctx.work(scan_cost);
        Some((tag, stamp, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use rnic::IbConfig;
    use smem::PhysAllocator;

    #[test]
    fn region_put_get() {
        let fabric = IbFabric::new(IbConfig::with_nodes(1));
        let space = Arc::new(AddrSpace::new(Arc::new(PMutex::new(PhysAllocator::new(
            0,
            1 << 24,
        )))));
        let mut ctx = Ctx::new();
        let r = Region::new(&fabric, 0, &space, 8192, Access::RW, &mut ctx).unwrap();
        r.put(100, b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        r.get(100, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn doorbell_stamps_and_spins() {
        let db = Doorbell::new();
        assert_eq!(db.peek(), None);
        db.ring(5, 10_000, 64);
        assert_eq!(db.peek(), Some(10_000));
        let mut ctx = Ctx::new();
        let (tag, stamp, len) = db.poll(&mut ctx, 100, Duration::from_secs(1)).unwrap();
        assert_eq!((tag, stamp, len), (5, 10_000, 64));
        assert!(ctx.now() >= 10_000);
        assert!(ctx.cpu.total() >= 10_000, "spinning receiver burns CPU");
        assert!(db.poll(&mut ctx, 100, Duration::from_millis(5)).is_none());
    }
}

//! FaRM-style two-write messaging (the "2 Verbs writes" line of Fig 10).
//!
//! FaRM's message-passing primitive is a one-sided RDMA write into a ring
//! at the receiver, which busy-polls the ring tail. An RPC is two of
//! those: request write + reply write. This module implements exactly
//! that pair over raw RC verbs.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex as PMutex;
use rnic::{Access, IbFabric, NodeId, RemoteAddr, Sge, VerbsError, VerbsResult, COST};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator};

use crate::common::{Doorbell, Region};

/// Ring slots per direction.
const SLOTS: usize = 64;

/// One FaRM-style connected pair. The client calls; the server serves
/// with a handler.
pub struct FarmPair {
    fabric: Arc<IbFabric>,
    client_node: NodeId,
    server_node: NodeId,
    qp_c: Arc<rnic::Qp>,
    qp_s: Arc<rnic::Qp>,
    /// Client-side send scratch + reply ring.
    c_send: Region,
    c_reply: Region,
    /// Server-side request ring + reply scratch.
    s_ring: Region,
    s_send: Region,
    /// Stamp side channels (the polled ring tails).
    req_bell: Arc<Doorbell>,
    rep_bell: Arc<Doorbell>,
    slot_size: usize,
}

impl FarmPair {
    /// Builds a pair with `slot_size`-byte message slots.
    pub fn new(
        fabric: &Arc<IbFabric>,
        client_node: NodeId,
        server_node: NodeId,
        slot_size: usize,
    ) -> VerbsResult<FarmPair> {
        let mut ctx = Ctx::new();
        let mk_space = |node: NodeId| {
            let _ = node;
            Arc::new(AddrSpace::new(Arc::new(PMutex::new(PhysAllocator::new(
                0,
                1 << 28,
            )))))
        };
        let c_space = mk_space(client_node);
        let s_space = mk_space(server_node);
        let (qp_c, qp_s) = fabric.rc_pair(client_node, server_node);
        Ok(FarmPair {
            fabric: Arc::clone(fabric),
            client_node,
            server_node,
            qp_c,
            qp_s,
            c_send: Region::new(
                fabric,
                client_node,
                &c_space,
                slot_size,
                Access::LOCAL,
                &mut ctx,
            )?,
            c_reply: Region::new(
                fabric,
                client_node,
                &c_space,
                slot_size * SLOTS,
                Access::RW,
                &mut ctx,
            )?,
            s_ring: Region::new(
                fabric,
                server_node,
                &s_space,
                slot_size * SLOTS,
                Access::RW,
                &mut ctx,
            )?,
            s_send: Region::new(
                fabric,
                server_node,
                &s_space,
                slot_size,
                Access::LOCAL,
                &mut ctx,
            )?,
            req_bell: Doorbell::new(),
            rep_bell: Doorbell::new(),
            slot_size,
        })
    }

    /// Client: writes a request into ring slot `slot`. FaRM senders don't
    /// wait for their own completion; they poll the reply ring.
    pub fn send(&self, ctx: &mut Ctx, slot: usize, payload: &[u8]) -> VerbsResult<()> {
        assert!(slot < SLOTS && payload.len() <= self.slot_size);
        self.c_send.put(0, payload)?;
        let nic = self.fabric.nic(self.client_node);
        let outcome = nic.post_write_outcome(
            ctx,
            &self.qp_c,
            0,
            &Sge::Virt {
                lkey: self.c_send.mr.lkey(),
                addr: self.c_send.va,
                len: payload.len(),
            },
            RemoteAddr {
                rkey: self.s_ring.mr.rkey(),
                addr: self.s_ring.va + (slot * self.slot_size) as u64,
            },
            None,
            false,
        )?;
        self.req_bell
            .ring(slot as u64, outcome.remote_visible, payload.len());
        Ok(())
    }

    /// Client: polls the reply to the request in slot `slot`.
    pub fn recv(&self, ctx: &mut Ctx, slot: usize, timeout: Duration) -> VerbsResult<Vec<u8>> {
        let (tag, _stamp, len) = self
            .rep_bell
            .poll(ctx, COST.cq_poll_ns, timeout)
            .ok_or(VerbsError::Timeout)?;
        debug_assert_eq!(tag as usize, slot);
        let mut out = vec![0u8; len];
        self.c_reply.get(slot * self.slot_size, &mut out)?;
        Ok(out)
    }

    /// Server: receives one request, applies `f`, writes the reply back.
    pub fn serve_one(
        &self,
        ctx: &mut Ctx,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
        timeout: Duration,
    ) -> VerbsResult<()> {
        let (slot, _stamp, len) = self
            .req_bell
            .poll(ctx, COST.cq_poll_ns, timeout)
            .ok_or(VerbsError::Timeout)?;
        let mut req = vec![0u8; len];
        self.s_ring.get(slot as usize * self.slot_size, &mut req)?;
        let reply = f(&req);
        assert!(reply.len() <= self.slot_size);
        self.s_send.put(0, &reply)?;
        let nic = self.fabric.nic(self.server_node);
        let outcome = nic.post_write_outcome(
            ctx,
            &self.qp_s,
            0,
            &Sge::Virt {
                lkey: self.s_send.mr.lkey(),
                addr: self.s_send.va,
                len: reply.len(),
            },
            RemoteAddr {
                rkey: self.c_reply.mr.rkey(),
                addr: self.c_reply.va + slot as usize as u64 * self.slot_size as u64,
            },
            None,
            false,
        )?;
        self.rep_bell
            .ring(slot, outcome.remote_visible, reply.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic::IbConfig;
    use simnet::MICROS;

    #[test]
    fn two_write_rpc_roundtrip_and_latency() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let pair = FarmPair::new(&fabric, 0, 1, 4096).unwrap();
        let (mut ctx, mut sctx) = (Ctx::new(), Ctx::new());
        let t = Duration::from_secs(2);
        let reverse = |req: &[u8]| {
            let mut r = req.to_vec();
            r.reverse();
            r
        };
        let mut call = |ctx: &mut Ctx, slot: usize, payload: &[u8]| {
            pair.send(ctx, slot, payload).unwrap();
            pair.serve_one(&mut sctx, reverse, t).unwrap();
            pair.recv(ctx, slot, t).unwrap()
        };
        // Warm up once.
        call(&mut ctx, 0, b"warm");
        let t0 = ctx.now();
        for i in 0..9 {
            assert_eq!(call(&mut ctx, i % SLOTS, b"ping"), b"gnip");
        }
        let per_call = (ctx.now() - t0) / 9;
        // Two one-sided writes plus polling: ~3-6 us.
        assert!(
            per_call < 8 * MICROS,
            "two-write RPC costs {per_call} ns/call"
        );
    }
}

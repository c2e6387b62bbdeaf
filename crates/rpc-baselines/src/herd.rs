//! HERD-style RPC (Kalia et al., the paper's fastest small-RPC baseline).
//!
//! Requests travel as one-sided RDMA writes into a *per-client* request
//! region at the server; server threads busy-poll every client's region
//! in turn (cheap detection, but CPU scales with the number of clients —
//! the §5.3 criticism). Replies travel as UD sends.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex as PMutex;
use rnic::qp::RecvEntry;
use rnic::{Access, IbFabric, NodeId, QpType, RemoteAddr, Sge, VerbsError, VerbsResult};
use simnet::{Ctx, Nanos};
use smem::{AddrSpace, PhysAllocator};

use crate::common::{Doorbell, Region};

/// Cost of checking one client's request region for a new flag byte.
const REGION_CHECK_NS: Nanos = 40;
/// Receive ring posted on each client's UD QP.
const CLIENT_RING: usize = 64;

/// The HERD server: one request region per client, one UD QP for replies.
pub struct HerdServer {
    fabric: Arc<IbFabric>,
    node: NodeId,
    regions: Vec<Region>,
    send: Region,
    ud: Arc<rnic::Qp>,
    bell: Arc<Doorbell>,
    slot_size: usize,
    clients: PMutex<Vec<(NodeId, u64)>>,
}

/// A HERD client endpoint.
pub struct HerdClient {
    fabric: Arc<IbFabric>,
    node: NodeId,
    id: usize,
    qp: Arc<rnic::Qp>,
    send: Region,
    recv: Region,
    ud: Arc<rnic::Qp>,
    server: Arc<HerdServer>,
    slot_size: usize,
}

impl HerdServer {
    /// Creates the server with room for `max_clients` clients.
    pub fn new(
        fabric: &Arc<IbFabric>,
        node: NodeId,
        max_clients: usize,
        slot_size: usize,
    ) -> VerbsResult<Arc<HerdServer>> {
        let mut ctx = Ctx::new();
        let space = Arc::new(AddrSpace::new(Arc::new(PMutex::new(PhysAllocator::new(
            0,
            1 << 30,
        )))));
        let regions = (0..max_clients)
            .map(|_| Region::new(fabric, node, &space, slot_size, Access::RW, &mut ctx))
            .collect::<VerbsResult<Vec<_>>>()?;
        let send = Region::new(fabric, node, &space, slot_size, Access::LOCAL, &mut ctx)?;
        let ud = fabric.nic(node).create_qp(QpType::Ud);
        Ok(Arc::new(HerdServer {
            fabric: Arc::clone(fabric),
            node,
            regions,
            send,
            ud,
            bell: Doorbell::new(),
            slot_size,
            clients: PMutex::new(Vec::new()),
        }))
    }

    /// Serves one request with `f`; busy-polls all client regions.
    pub fn serve_one(
        &self,
        ctx: &mut Ctx,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
        timeout: Duration,
    ) -> VerbsResult<()> {
        let n = self.clients.lock().len().max(1);
        // Scanning cost grows with the number of client regions (§5.3:
        // "it needs to busy check different RDMA regions for all RPC
        // clients").
        let scan = REGION_CHECK_NS * n as u64;
        let (client, _stamp, len) = self
            .bell
            .poll(ctx, scan, timeout)
            .ok_or(VerbsError::Timeout)?;
        let mut req = vec![0u8; len];
        self.regions[client as usize].get(0, &mut req)?;
        let reply = f(&req);
        assert!(reply.len() <= self.slot_size, "HERD reply exceeds slot");
        self.send.put(0, &reply)?;
        let dest = self.clients.lock()[client as usize];
        self.fabric.nic(self.node).post_send_ud(
            ctx,
            &self.ud,
            0,
            &Sge::Virt {
                lkey: self.send.mr.lkey(),
                addr: self.send.va,
                len: reply.len(),
            },
            dest,
            false,
        )?;
        Ok(())
    }
}

impl HerdClient {
    /// Connects a new client from `node`.
    pub fn connect(
        server: &Arc<HerdServer>,
        node: NodeId,
        slot_size: usize,
    ) -> VerbsResult<HerdClient> {
        let fabric = Arc::clone(&server.fabric);
        let mut ctx = Ctx::new();
        let space = Arc::new(AddrSpace::new(Arc::new(PMutex::new(PhysAllocator::new(
            0,
            1 << 28,
        )))));
        let send = Region::new(&fabric, node, &space, slot_size, Access::LOCAL, &mut ctx)?;
        let recv = Region::new(
            &fabric,
            node,
            &space,
            slot_size * CLIENT_RING,
            Access::LOCAL,
            &mut ctx,
        )?;
        let ud = fabric.nic(node).create_qp(QpType::Ud);
        for i in 0..CLIENT_RING {
            fabric.nic(node).post_recv(
                &mut ctx,
                &ud,
                RecvEntry {
                    wr_id: i as u64,
                    sge: Some(Sge::Virt {
                        lkey: recv.mr.lkey(),
                        addr: recv.va + (i * slot_size) as u64,
                        len: slot_size,
                    }),
                },
            );
        }
        let (qp, _server_qp) = fabric.rc_pair(node, server.node);
        let id = {
            let mut clients = server.clients.lock();
            clients.push((node, ud.id));
            clients.len() - 1
        };
        Ok(HerdClient {
            fabric,
            node,
            id,
            qp,
            send,
            recv,
            ud,
            server: Arc::clone(server),
            slot_size,
        })
    }

    /// One RPC: RDMA-write the request into our region at the server,
    /// then busy-poll our UD recv CQ for the reply.
    pub fn call(&self, ctx: &mut Ctx, payload: &[u8], timeout: Duration) -> VerbsResult<Vec<u8>> {
        assert!(payload.len() <= self.slot_size);
        self.send.put(0, payload)?;
        let region = &self.server.regions[self.id];
        let outcome = self.fabric.nic(self.node).post_write_outcome(
            ctx,
            &self.qp,
            0,
            &Sge::Virt {
                lkey: self.send.mr.lkey(),
                addr: self.send.va,
                len: payload.len(),
            },
            RemoteAddr {
                rkey: region.mr.rkey(),
                addr: region.va,
            },
            None,
            false,
        )?;
        self.server
            .bell
            .ring(self.id as u64, outcome.remote_visible, payload.len());
        let wc = self
            .ud
            .recv_cq
            .poll_blocking(ctx, true, timeout)
            .ok_or(VerbsError::Timeout)?;
        let slot = wc.wr_id as usize;
        let mut out = vec![0u8; wc.byte_len];
        self.recv.get(slot * self.slot_size, &mut out)?;
        // Repost the consumed receive.
        self.fabric.nic(self.node).post_recv(
            ctx,
            &self.ud,
            RecvEntry {
                wr_id: wc.wr_id,
                sge: Some(Sge::Virt {
                    lkey: self.recv.mr.lkey(),
                    addr: self.recv.va + (slot * self.slot_size) as u64,
                    len: self.slot_size,
                }),
            },
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic::IbConfig;
    use simnet::MICROS;

    #[test]
    fn herd_roundtrip_and_small_latency() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, 4, 4096).unwrap();
        let client = HerdClient::connect(&server, 0, 4096).unwrap();
        let s2 = Arc::clone(&server);
        let h = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in 0..10 {
                s2.serve_one(&mut ctx, |req| req.to_vec(), Duration::from_secs(2))
                    .unwrap();
            }
        });
        let mut ctx = Ctx::new();
        client
            .call(&mut ctx, b"warm", Duration::from_secs(2))
            .unwrap();
        let t0 = ctx.now();
        for _ in 0..9 {
            let out = client
                .call(&mut ctx, b"herd!", Duration::from_secs(2))
                .unwrap();
            assert_eq!(out, b"herd!");
        }
        let per_call = (ctx.now() - t0) / 9;
        assert!(per_call < 6 * MICROS, "HERD 5B RPC = {per_call} ns");
        h.join().unwrap();
    }

    #[test]
    fn herd_server_cpu_scales_with_clients() {
        // With more connected clients, each detection costs more scanning.
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, 64, 1024).unwrap();
        let mut clients = Vec::new();
        for _ in 0..64 {
            clients.push(HerdClient::connect(&server, 0, 1024).unwrap());
        }
        let mut cctx = Ctx::new();
        let mut sctx = Ctx::new();
        clients[0].send.put(0, b"x").unwrap();
        // Ring directly to isolate the scan cost.
        server.bell.ring(0, cctx.now(), 1);
        let cpu0 = sctx.cpu.total();
        server
            .serve_one(&mut sctx, |r| r.to_vec(), Duration::from_secs(1))
            .unwrap();
        let scan_cost = sctx.cpu.total() - cpu0;
        assert!(
            scan_cost >= REGION_CHECK_NS * 64,
            "scan cost {scan_cost} should cover 64 regions"
        );
        let _ = &mut cctx;
    }
}

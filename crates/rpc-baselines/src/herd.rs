//! HERD-style RPC (Kalia et al., the paper's fastest small-RPC baseline).
//!
//! Requests travel as one-sided RDMA writes into a *per-client* request
//! region at the server; server threads busy-poll every client's region
//! in turn (cheap detection, but CPU scales with the number of clients —
//! the §5.3 criticism). Replies travel as UD sends.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex as PMutex;
use rnic::{Access, IbFabric, NodeId, RemoteAddr, Sge, VerbsError, VerbsResult};
use simnet::{Ctx, Nanos};
use smem::{AddrSpace, PhysAllocator};

use crate::common::{Doorbell, Region, UdEndpoint};

/// Cost of checking one client's request region for a new flag byte.
const REGION_CHECK_NS: Nanos = 40;
/// Receive ring posted on each client's UD QP.
const CLIENT_RING: usize = 64;

/// The HERD server: one request region per client, one UD endpoint (with
/// no receives posted) for replies.
pub struct HerdServer {
    fabric: Arc<IbFabric>,
    node: NodeId,
    regions: Vec<Region>,
    ep: UdEndpoint,
    bell: Arc<Doorbell>,
    clients: PMutex<Vec<(NodeId, u64)>>,
}

/// A HERD client endpoint: an RC QP it writes requests on, from its UD
/// endpoint's send scratch, and the UD endpoint replies arrive at.
pub struct HerdClient {
    fabric: Arc<IbFabric>,
    node: NodeId,
    id: usize,
    qp: Arc<rnic::Qp>,
    ep: UdEndpoint,
    server: Arc<HerdServer>,
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
        Ok(Arc::new(HerdServer {
            fabric: Arc::clone(fabric),
            node,
            regions,
            ep: UdEndpoint::new(fabric, node, 0, slot_size)?,
            bell: Doorbell::new(),
            clients: PMutex::new(Vec::new()),
        }))
    }

    /// The stamp of the earliest queued request, taking nothing.
    pub fn peek_request(&self) -> Option<Nanos> {
        self.bell.peek()
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
        let dest = self.clients.lock()[client as usize];
        self.ep.send_to(ctx, dest, &reply)
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
        let ep = UdEndpoint::new(&fabric, node, CLIENT_RING, slot_size)?;
        let (qp, _server_qp) = fabric.rc_pair(node, server.node);
        let id = {
            let mut clients = server.clients.lock();
            clients.push(ep.address());
            clients.len() - 1
        };
        Ok(HerdClient {
            fabric,
            node,
            id,
            qp,
            ep,
            server: Arc::clone(server),
        })
    }

    /// RDMA-writes a request into our region at the server.
    pub fn send(&self, ctx: &mut Ctx, payload: &[u8]) -> VerbsResult<()> {
        let scratch = &self.ep.send;
        assert!(payload.len() <= scratch.len);
        scratch.put(0, payload)?;
        let region = &self.server.regions[self.id];
        let outcome = self.fabric.nic(self.node).post_write_outcome(
            ctx,
            &self.qp,
            0,
            &Sge::Virt {
                lkey: scratch.mr.lkey(),
                addr: scratch.va,
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
        Ok(())
    }

    /// One RPC: [`HerdClient::send`], then [`HerdClient::recv`].
    pub fn call(&self, ctx: &mut Ctx, payload: &[u8], timeout: Duration) -> VerbsResult<Vec<u8>> {
        self.send(ctx, payload)?;
        self.recv(ctx, timeout)
    }

    /// The stamp of our earliest queued reply, taking nothing.
    pub fn peek_reply(&self) -> Option<Nanos> {
        self.ep.peek()
    }

    /// Busy-polls our UD recv CQ for a reply.
    pub fn recv(&self, ctx: &mut Ctx, timeout: Duration) -> VerbsResult<Vec<u8>> {
        let (wc, out) = self.ep.take(ctx, timeout)?;
        self.ep.repost(ctx, wc.wr_id);
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
        let (mut ctx, mut sctx) = (Ctx::new(), Ctx::new());
        let t = Duration::from_secs(2);
        let mut call = |ctx: &mut Ctx, payload: &[u8]| {
            client.send(ctx, payload).unwrap();
            server.serve_one(&mut sctx, |req| req.to_vec(), t).unwrap();
            client.recv(ctx, t).unwrap()
        };
        call(&mut ctx, b"warm");
        let t0 = ctx.now();
        for _ in 0..9 {
            assert_eq!(call(&mut ctx, b"herd!"), b"herd!");
        }
        let per_call = (ctx.now() - t0) / 9;
        assert!(per_call < 6 * MICROS, "HERD 5B RPC = {per_call} ns");
    }

    #[test]
    fn peeks_read_the_earliest_stamp() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = HerdServer::new(&fabric, 1, 4, 64).unwrap();
        let client = HerdClient::connect(&server, 0, 64).unwrap();
        let (mut ctx, mut sctx) = (Ctx::new(), Ctx::new());
        assert_eq!((server.peek_request(), client.peek_reply()), (None, None));
        let t0 = ctx.now();
        client.send(&mut ctx, b"x").unwrap();
        let sent = server.peek_request().expect("request queued");
        assert!(sent > t0);
        let t = Duration::from_secs(1);
        server.serve_one(&mut sctx, |r| r.to_vec(), t).unwrap();
        assert_eq!(server.peek_request(), None);
        let replied = client.peek_reply().expect("reply queued");
        assert!(replied > sent);
        client.recv(&mut ctx, t).unwrap();
        assert!(ctx.now() > replied);
        assert_eq!(client.peek_reply(), None);
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
        clients[0].ep.send.put(0, b"x").unwrap();
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

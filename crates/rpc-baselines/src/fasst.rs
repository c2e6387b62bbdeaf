//! FaSST-style RPC (Kalia et al., OSDI '16): unreliable-datagram sends in
//! both directions, with a master thread ("coroutine scheduler") that
//! polls the receive CQ *and executes handlers inline* — the design LITE
//! §5.3 criticizes for coupling polling with execution.

use std::sync::Arc;
use std::time::Duration;

use rnic::{IbFabric, NodeId, VerbsError, VerbsResult, COST};
use simnet::{Ctx, Nanos};

use crate::common::UdEndpoint;

/// Receive ring depth (both sides).
const RING: usize = 256;

/// The FaSST server endpoint.
pub struct FasstServer {
    ep: UdEndpoint,
}

/// A FaSST client endpoint.
pub struct FasstClient {
    ep: UdEndpoint,
    server: (NodeId, u64),
}

impl FasstServer {
    /// Creates the server endpoint. UD caps messages at one MTU (4 KB),
    /// exactly FaSST's constraint.
    pub fn new(fabric: &Arc<IbFabric>, node: NodeId, slot_size: usize) -> VerbsResult<Arc<Self>> {
        assert!(slot_size <= COST.ud_max_payload);
        let ep = UdEndpoint::new(fabric, node, RING, slot_size)?;
        Ok(Arc::new(FasstServer { ep }))
    }

    /// The server's UD address clients send to.
    pub fn address(&self) -> (NodeId, u64) {
        self.ep.address()
    }

    /// The stamp of the earliest queued request, taking nothing.
    pub fn peek_request(&self) -> Option<Nanos> {
        self.ep.peek()
    }

    /// Master-thread step: poll the CQ (busy), run the handler *inline*,
    /// and UD-send the reply back to the request's source.
    pub fn serve_one(
        &self,
        ctx: &mut Ctx,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
        timeout: Duration,
    ) -> VerbsResult<()> {
        let (wc, req) = self.ep.take(ctx, timeout)?;
        // Handler runs on the polling thread — FaSST's bottleneck.
        let reply = f(&req);
        let dest = wc.src.ok_or(VerbsError::Disconnected)?;
        self.ep.send_to(ctx, dest, &reply)?;
        self.ep.repost(ctx, wc.wr_id);
        Ok(())
    }
}

impl FasstClient {
    /// Creates a client endpoint talking to `server`.
    pub fn connect(
        fabric: &Arc<IbFabric>,
        node: NodeId,
        server: (NodeId, u64),
        slot_size: usize,
    ) -> VerbsResult<FasstClient> {
        assert!(slot_size <= COST.ud_max_payload);
        let ep = UdEndpoint::new(fabric, node, RING, slot_size)?;
        Ok(FasstClient { ep, server })
    }

    /// UD-sends a request to the server.
    pub fn send(&self, ctx: &mut Ctx, payload: &[u8]) -> VerbsResult<()> {
        self.ep.send_to(ctx, self.server, payload)
    }

    /// One RPC: [`FasstClient::send`], then [`FasstClient::recv`].
    pub fn call(&self, ctx: &mut Ctx, payload: &[u8], timeout: Duration) -> VerbsResult<Vec<u8>> {
        self.send(ctx, payload)?;
        self.recv(ctx, timeout)
    }

    /// The stamp of our earliest queued reply, taking nothing.
    pub fn peek_reply(&self) -> Option<Nanos> {
        self.ep.peek()
    }

    /// Busy-polls a reply.
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
    fn fasst_roundtrip() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = FasstServer::new(&fabric, 1, 4096).unwrap();
        let client = FasstClient::connect(&fabric, 0, server.address(), 4096).unwrap();
        let (mut ctx, mut sctx) = (Ctx::new(), Ctx::new());
        let t = Duration::from_secs(2);
        let rotate = |req: &[u8]| {
            let mut r = req.to_vec();
            r.rotate_left(1);
            r
        };
        let mut call = |ctx: &mut Ctx, payload: &[u8]| {
            client.send(ctx, payload).unwrap();
            server.serve_one(&mut sctx, rotate, t).unwrap();
            client.recv(ctx, t).unwrap()
        };
        call(&mut ctx, b"warm");
        let t0 = ctx.now();
        for _ in 0..9 {
            assert_eq!(call(&mut ctx, b"abcd"), b"bcda");
        }
        let per_call = (ctx.now() - t0) / 9;
        assert!(per_call < 7 * MICROS, "FaSST 4B RPC = {per_call} ns");
        // The busy-polling master thread burned CPU.
        assert!(sctx.cpu.total() > 0);
    }

    #[test]
    #[should_panic(expected = "slot_size <= COST.ud_max_payload")]
    fn fasst_rejects_over_mtu() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let _ = FasstServer::new(&fabric, 1, 8192);
    }
}

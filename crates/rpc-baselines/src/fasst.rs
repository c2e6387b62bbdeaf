//! FaSST-style RPC (Kalia et al., OSDI '16): unreliable-datagram sends in
//! both directions, with a master thread ("coroutine scheduler") that
//! polls the receive CQ *and executes handlers inline* — the design LITE
//! §5.3 criticizes for coupling polling with execution.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex as PMutex;
use rnic::qp::RecvEntry;
use rnic::{Access, IbFabric, NodeId, QpType, Sge, VerbsError, VerbsResult, COST};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator};

use crate::common::Region;

/// Receive ring depth (both sides).
const RING: usize = 256;

/// The FaSST server endpoint.
pub struct FasstServer {
    fabric: Arc<IbFabric>,
    node: NodeId,
    ud: Arc<rnic::Qp>,
    recv: Region,
    send: Region,
    slot_size: usize,
}

/// A FaSST client endpoint.
pub struct FasstClient {
    fabric: Arc<IbFabric>,
    node: NodeId,
    ud: Arc<rnic::Qp>,
    recv: Region,
    send: Region,
    server: (NodeId, u64),
    slot_size: usize,
}

fn make_endpoint(
    fabric: &Arc<IbFabric>,
    node: NodeId,
    slot_size: usize,
) -> VerbsResult<(Arc<rnic::Qp>, Region, Region)> {
    let mut ctx = Ctx::new();
    let space = Arc::new(AddrSpace::new(Arc::new(PMutex::new(PhysAllocator::new(
        0,
        1 << 28,
    )))));
    let recv = Region::new(
        fabric,
        node,
        &space,
        slot_size * RING,
        Access::LOCAL,
        &mut ctx,
    )?;
    let send = Region::new(fabric, node, &space, slot_size, Access::LOCAL, &mut ctx)?;
    let ud = fabric.nic(node).create_qp(QpType::Ud);
    for i in 0..RING {
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
    Ok((ud, recv, send))
}

impl FasstServer {
    /// Creates the server endpoint. UD caps messages at one MTU (4 KB),
    /// exactly FaSST's constraint.
    pub fn new(fabric: &Arc<IbFabric>, node: NodeId, slot_size: usize) -> VerbsResult<Arc<Self>> {
        assert!(slot_size <= COST.ud_max_payload);
        let (ud, recv, send) = make_endpoint(fabric, node, slot_size)?;
        Ok(Arc::new(FasstServer {
            fabric: Arc::clone(fabric),
            node,
            ud,
            recv,
            send,
            slot_size,
        }))
    }

    /// The server's UD address clients send to.
    pub fn address(&self) -> (NodeId, u64) {
        (self.node, self.ud.id)
    }

    /// Master-thread step: poll the CQ (busy), run the handler *inline*,
    /// and UD-send the reply back to the request's source.
    pub fn serve_one(
        &self,
        ctx: &mut Ctx,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
        timeout: Duration,
    ) -> VerbsResult<()> {
        let wc = self
            .ud
            .recv_cq
            .poll_blocking(ctx, true, timeout)
            .ok_or(VerbsError::Timeout)?;
        let slot = wc.wr_id as usize;
        let mut req = vec![0u8; wc.byte_len];
        self.recv.get(slot * self.slot_size, &mut req)?;
        // Handler runs on the polling thread — FaSST's bottleneck.
        let reply = f(&req);
        assert!(reply.len() <= self.slot_size);
        self.send.put(0, &reply)?;
        let dest = wc.src.ok_or(VerbsError::Disconnected)?;
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
        let (ud, recv, send) = make_endpoint(fabric, node, slot_size)?;
        Ok(FasstClient {
            fabric: Arc::clone(fabric),
            node,
            ud,
            recv,
            send,
            server,
            slot_size,
        })
    }

    /// One RPC: UD send + busy-poll the reply.
    pub fn call(&self, ctx: &mut Ctx, payload: &[u8], timeout: Duration) -> VerbsResult<Vec<u8>> {
        assert!(payload.len() <= self.slot_size);
        self.send.put(0, payload)?;
        self.fabric.nic(self.node).post_send_ud(
            ctx,
            &self.ud,
            0,
            &Sge::Virt {
                lkey: self.send.mr.lkey(),
                addr: self.send.va,
                len: payload.len(),
            },
            self.server,
            false,
        )?;
        let wc = self
            .ud
            .recv_cq
            .poll_blocking(ctx, true, timeout)
            .ok_or(VerbsError::Timeout)?;
        let slot = wc.wr_id as usize;
        let mut out = vec![0u8; wc.byte_len];
        self.recv.get(slot * self.slot_size, &mut out)?;
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
    fn fasst_roundtrip() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let server = FasstServer::new(&fabric, 1, 4096).unwrap();
        let client = FasstClient::connect(&fabric, 0, server.address(), 4096).unwrap();
        let s2 = Arc::clone(&server);
        let h = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            for _ in 0..10 {
                s2.serve_one(
                    &mut ctx,
                    |req| {
                        let mut r = req.to_vec();
                        r.rotate_left(1);
                        r
                    },
                    Duration::from_secs(2),
                )
                .unwrap();
            }
            ctx.cpu.total()
        });
        let mut ctx = Ctx::new();
        client
            .call(&mut ctx, b"warm", Duration::from_secs(2))
            .unwrap();
        let t0 = ctx.now();
        for _ in 0..9 {
            let out = client
                .call(&mut ctx, b"abcd", Duration::from_secs(2))
                .unwrap();
            assert_eq!(out, b"bcda");
        }
        let per_call = (ctx.now() - t0) / 9;
        assert!(per_call < 7 * MICROS, "FaSST 4B RPC = {per_call} ns");
        let server_cpu = h.join().unwrap();
        // The busy-polling master thread burned CPU for the entire run.
        assert!(server_cpu > 0);
    }

    #[test]
    #[should_panic(expected = "slot_size <= COST.ud_max_payload")]
    fn fasst_rejects_over_mtu() {
        let fabric = IbFabric::new(IbConfig::with_nodes(2));
        let _ = FasstServer::new(&fabric, 1, 8192);
    }
}

//! TCP/IP over IPoIB.
//!
//! The paper's TCP baseline runs the kernel socket stack over the same
//! InfiniBand link (IPoIB). Costs: syscalls and copies on both sides, a
//! per-segment kernel processing charge, interrupt + wakeup latency at
//! the receiver, and a lower effective bandwidth than raw RDMA (IPoIB
//! overhead). All constants are calibrated to the paper's Figure 6/7
//! TCP lines (~20+ µs small-message latency, ~2 GB/s peak streaming).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use simnet::{Ctx, Nanos, Resource};

/// Cost parameters for the TCP/IPoIB stack.
#[derive(Debug, Clone)]
pub struct TcpCostModel {
    /// Syscall entry/exit + user-kernel copy setup, per call.
    pub syscall_ns: Nanos,
    /// Sender kernel protocol processing per segment.
    pub segment_ns: Nanos,
    /// Segment (MSS) size in bytes.
    pub mss: usize,
    /// Effective streaming bandwidth of IPoIB (bytes/s).
    pub bytes_per_sec: u64,
    /// Wire propagation (same switch as RDMA).
    pub propagation_ns: Nanos,
    /// Receive path: interrupt, softirq, scheduler wakeup.
    pub rx_wakeup_ns: Nanos,
    /// User-kernel copy bandwidth (bytes/s).
    pub copy_bytes_per_sec: u64,
}

impl Default for TcpCostModel {
    fn default() -> Self {
        TcpCostModel {
            syscall_ns: 1_500,
            segment_ns: 550,
            mss: 1_460,
            bytes_per_sec: 2_100_000_000,
            propagation_ns: 450,
            rx_wakeup_ns: 9_000,
            copy_bytes_per_sec: 10_000_000_000,
        }
    }
}

impl TcpCostModel {
    fn segments(&self, len: usize) -> u64 {
        (len.max(1)).div_ceil(self.mss) as u64
    }

    fn copy_time(&self, len: usize) -> Nanos {
        simnet::transfer_time(len as u64, self.copy_bytes_per_sec)
    }

    fn wire_time(&self, len: usize) -> Nanos {
        simnet::transfer_time(len as u64, self.bytes_per_sec)
    }
}

struct Endpoint {
    /// Kernel TX processing (per node, shared by all of its sockets).
    kernel: Resource,
    /// The wire itself; pipelines with kernel processing.
    wire: Resource,
}

/// A simulated IP network over the IB fabric.
pub struct TcpNet {
    cost: TcpCostModel,
    nodes: Vec<Endpoint>,
}

impl TcpNet {
    /// Creates a network of `nodes` endpoints.
    pub fn new(nodes: usize, cost: TcpCostModel) -> Arc<Self> {
        Arc::new(TcpNet {
            cost,
            nodes: (0..nodes)
                .map(|_| Endpoint {
                    kernel: Resource::with_slack("tcp-kernel", 40_000),
                    wire: Resource::with_slack("ipoib-wire", 40_000),
                })
                .collect(),
        })
    }

    /// The cost model.
    pub fn cost(&self) -> &TcpCostModel {
        &self.cost
    }

    /// Number of endpoints.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Creates a connected socket pair between nodes `a` and `b`.
    pub fn connect(self: &Arc<Self>, a: usize, b: usize) -> (TcpSock, TcpSock) {
        assert!(a < self.nodes.len() && b < self.nodes.len());
        let (tx_ab, rx_ab) = channel();
        let (tx_ba, rx_ba) = channel();
        (
            TcpSock {
                net: Arc::clone(self),
                local: a,
                tx: tx_ab,
                rx: rx_ba,
            },
            TcpSock {
                net: Arc::clone(self),
                local: b,
                tx: tx_ba,
                rx: rx_ab,
            },
        )
    }
}

type Frame = (Nanos, Vec<u8>);

/// One end of a TCP connection.
pub struct TcpSock {
    net: Arc<TcpNet>,
    local: usize,
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
}

impl TcpSock {
    /// Sends one message (framing preserved for simplicity — the layers
    /// above all exchange discrete messages).
    ///
    /// Returns the virtual time at which the message is available at the
    /// receiver. The caller's clock advances through its local send path
    /// only (send buffers decouple the wire, as in real TCP).
    pub fn send(&self, ctx: &mut Ctx, data: &[u8]) -> Nanos {
        let c = self.net.cost();
        ctx.work(c.syscall_ns + c.copy_time(data.len()));
        let seg = self.net.nodes[self.local]
            .kernel
            .acquire(ctx.now(), c.segment_ns * c.segments(data.len()));
        let wire = self.net.nodes[self.local]
            .wire
            .acquire(seg.finish, c.wire_time(data.len()));
        let arrive = wire.finish + c.propagation_ns + c.rx_wakeup_ns;
        // Channel send only fails if the peer is gone; model as dropped
        // packet (receiver will time out).
        let _ = self.tx.send((arrive, data.to_vec()));
        arrive
    }

    /// Blocking receive of one message.
    pub fn recv(&self, ctx: &mut Ctx) -> Option<Vec<u8>> {
        let (arrive, data) = self.rx.recv().ok()?;
        let c = self.net.cost();
        ctx.wait_until(arrive);
        ctx.work(c.syscall_ns + c.copy_time(data.len()));
        Some(data)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, ctx: &mut Ctx) -> Option<Vec<u8>> {
        let (arrive, data) = self.rx.try_recv().ok()?;
        let c = self.net.cost();
        ctx.wait_until(arrive);
        ctx.work(c.syscall_ns + c.copy_time(data.len()));
        Some(data)
    }

    /// Blocking receive with a host wall-clock timeout (liveness bound).
    pub fn recv_timeout(&self, ctx: &mut Ctx, timeout: std::time::Duration) -> Option<Vec<u8>> {
        let (arrive, data) = self.rx.recv_timeout(timeout).ok()?;
        let c = self.net.cost();
        ctx.wait_until(arrive);
        ctx.work(c.syscall_ns + c.copy_time(data.len()));
        Some(data)
    }

    /// Request/response helper: send, then block for the reply.
    pub fn call(&self, ctx: &mut Ctx, data: &[u8]) -> Option<Vec<u8>> {
        self.send(ctx, data);
        self.recv(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::MICROS;

    #[test]
    fn small_message_latency_matches_qperf_band() {
        let net = TcpNet::new(2, TcpCostModel::default());
        let (a, b) = net.connect(0, 1);
        let mut actx = Ctx::new();
        let mut bctx = Ctx::new();
        // Warm: single 64 B message one way.
        let t0 = actx.now();
        a.send(&mut actx, &[0u8; 64]);
        let got = b.recv(&mut bctx).unwrap();
        assert_eq!(got.len(), 64);
        // End-to-end: ~15-30 us (paper Fig 6 TCP line).
        let e2e = bctx.now() - t0;
        assert!(
            (10 * MICROS..=35 * MICROS).contains(&e2e),
            "TCP 64B latency {e2e} ns"
        );
        // Sender-side cost is small (buffered send).
        assert!(actx.now() - t0 < 5 * MICROS);
    }

    #[test]
    fn streaming_throughput_near_configured_bandwidth() {
        let net = TcpNet::new(2, TcpCostModel::default());
        let (a, b) = net.connect(0, 1);
        let mut actx = Ctx::new();
        let msg = vec![7u8; 64 * 1024];
        let n = 200;
        let mut last_arrive = 0;
        for _ in 0..n {
            last_arrive = a.send(&mut actx, &msg);
        }
        let mut bctx = Ctx::new();
        for _ in 0..n {
            b.recv(&mut bctx).unwrap();
        }
        let bytes = (n * msg.len()) as f64;
        let gbps = bytes / last_arrive as f64;
        assert!(
            (1.2..=2.2).contains(&gbps),
            "streaming {gbps:.2} GB/s out of IPoIB band"
        );
    }

    #[test]
    fn bidirectional_call() {
        let net = TcpNet::new(2, TcpCostModel::default());
        let (a, b) = net.connect(0, 1);
        let h = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            let req = b.recv(&mut ctx).unwrap();
            assert_eq!(req, b"req");
            b.send(&mut ctx, b"resp");
        });
        let mut ctx = Ctx::new();
        let resp = a.call(&mut ctx, b"req").unwrap();
        assert_eq!(resp, b"resp");
        h.join().unwrap();
        // Round trip over TCP: tens of microseconds of virtual time.
        assert!(ctx.now() > 20 * MICROS);
    }

    #[test]
    fn try_recv_and_disconnect() {
        let net = TcpNet::new(2, TcpCostModel::default());
        let (a, b) = net.connect(0, 1);
        let mut ctx = Ctx::new();
        assert!(b.try_recv(&mut ctx).is_none());
        a.send(&mut ctx, b"x");
        // Must eventually be visible via try_recv.
        let mut got = None;
        for _ in 0..100 {
            got = b.try_recv(&mut ctx);
            if got.is_some() {
                break;
            }
        }
        assert_eq!(got.unwrap(), b"x");
        drop(a);
        assert!(b.recv(&mut ctx).is_none(), "disconnect yields None");
    }
}

//! Queue pairs and receive queues.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::cq::Cq;
use crate::error::{VerbsError, VerbsResult};
use crate::fabric::NodeId;
use crate::verbs::Sge;

/// Fabric-unique queue pair number.
pub type QpId = u64;

/// Transport type of a QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpType {
    /// Reliable connection: acked, ordered, supports one-sided + atomics.
    Rc,
    /// Unreliable connection: connection-oriented, no acks; supports
    /// one-sided writes but not reads/atomics.
    Uc,
    /// Unreliable datagram: connectionless two-sided only, one MTU max.
    Ud,
}

/// A posted receive buffer.
#[derive(Debug, Clone)]
pub struct RecvEntry {
    /// Caller-chosen id returned in the receive completion.
    pub wr_id: u64,
    /// Target buffer for incoming payloads. `None` posts a pure credit
    /// (LITE's IMM buffers: write-imm consumes a credit but carries its
    /// payload in the RDMA write itself).
    pub sge: Option<Sge>,
}

/// A receive queue, possibly shared between QPs (SRQ semantics).
#[derive(Default)]
pub struct RecvQueue {
    q: Mutex<VecDeque<RecvEntry>>,
}

impl RecvQueue {
    /// Creates an empty receive queue.
    pub fn new() -> Self {
        RecvQueue {
            q: Mutex::new(VecDeque::new()),
        }
    }

    /// Posts a receive entry.
    pub fn post(&self, entry: RecvEntry) {
        self.q.lock().push_back(entry);
    }

    /// Consumes the next posted entry (the sending NIC does this).
    pub fn consume(&self) -> VerbsResult<RecvEntry> {
        self.q
            .lock()
            .pop_front()
            .ok_or(VerbsError::ReceiverNotReady)
    }

    /// Posted entries outstanding.
    pub fn depth(&self) -> usize {
        self.q.lock().len()
    }
}

/// A queue pair.
///
/// The send queue itself needs no structure in the simulation (requests
/// execute inline through the NIC's FCFS resources); the QP carries
/// identity, connection state, and its attached queues.
pub struct Qp {
    /// Fabric-unique id.
    pub id: QpId,
    /// Node owning this QP.
    pub node: NodeId,
    /// Transport type.
    pub typ: QpType,
    /// Send completion queue.
    pub send_cq: Arc<Cq>,
    /// Receive completion queue (shared with other QPs under LITE).
    pub recv_cq: Arc<Cq>,
    /// Receive queue (shareable — SRQ).
    pub rq: Arc<RecvQueue>,
    /// Connected peer, for RC/UC: set once, by `IbFabric::connect`.
    pub(crate) peer: OnceLock<(NodeId, QpId)>,
    /// Error state: a broken QP rejects every post with
    /// [`VerbsError::QpBroken`] until destroyed and replaced (real RC
    /// QPs enter the error state after retry exhaustion and must be
    /// torn down and reconnected).
    broken: AtomicBool,
    /// Last remote-delivery stamp issued on this QP (RC/UC process WQEs
    /// of one QP strictly in order; the fluid resource model alone would
    /// let a cheap later WQE overtake an expensive earlier one).
    last_delivery: AtomicU64,
}

impl Qp {
    /// Creates a QP (used by the NIC; applications go through
    /// `Nic::create_qp`).
    pub(crate) fn new(
        id: QpId,
        node: NodeId,
        typ: QpType,
        send_cq: Arc<crate::cq::Cq>,
        recv_cq: Arc<crate::cq::Cq>,
        rq: Arc<RecvQueue>,
    ) -> Qp {
        Qp {
            id,
            node,
            typ,
            send_cq,
            recv_cq,
            rq,
            peer: OnceLock::new(),
            broken: AtomicBool::new(false),
            last_delivery: AtomicU64::new(0),
        }
    }

    /// Moves the QP into (or out of) the error state.
    pub fn set_broken(&self, broken: bool) {
        self.broken.store(broken, Ordering::Release);
    }

    /// Whether the QP is in the error state.
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    /// Window within which per-QP FIFO ordering is enforced. Ops whose
    /// stamps land further apart than this are causally independent in
    /// the simulation (they were produced by threads whose virtual clocks
    /// have drifted apart); clamping across such gaps would let a
    /// far-future post block a present one — a simulation artifact, not
    /// RC semantics.
    const ORDER_WINDOW: u64 = 50_000;

    /// Clamps a computed delivery stamp to be monotone on this QP
    /// (per-QP FIFO, the RC/UC ordering guarantee), within
    /// [`Self::ORDER_WINDOW`].
    pub(crate) fn order_delivery(&self, stamp: u64) -> u64 {
        let mut cur = self.last_delivery.load(Ordering::Relaxed);
        loop {
            let next = if cur > stamp + Self::ORDER_WINDOW {
                stamp // independent epoch: no clamp, horizon unchanged
            } else {
                stamp.max(cur + 1)
            };
            let store = next.max(cur);
            match self.last_delivery.compare_exchange_weak(
                cur,
                store,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return next,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Returns the connected peer or an error for unconnected RC/UC QPs.
    pub fn peer(&self) -> VerbsResult<(NodeId, QpId)> {
        self.peer
            .get()
            .copied()
            .ok_or(VerbsError::BadQp { qp: self.id })
    }

    /// Whether this QP supports one-sided reads and atomics.
    pub fn supports_read_atomic(&self) -> bool {
        self.typ == QpType::Rc
    }

    /// Whether this QP supports one-sided writes.
    pub fn supports_write(&self) -> bool {
        matches!(self.typ, QpType::Rc | QpType::Uc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_delivery_is_monotone() {
        let qp = Qp::new(
            9,
            0,
            QpType::Rc,
            Arc::new(Cq::new()),
            Arc::new(Cq::new()),
            Arc::new(RecvQueue::new()),
        );
        assert_eq!(qp.order_delivery(100), 100);
        assert_eq!(qp.order_delivery(50), 101, "late cheap WQE cannot overtake");
        assert_eq!(qp.order_delivery(500), 500);
        // A stamp far in the past of the horizon is causally independent:
        // it passes through unclamped and leaves the horizon alone.
        qp.order_delivery(10_000_000);
        assert_eq!(qp.order_delivery(1_000), 1_000);
        assert_eq!(qp.order_delivery(10_000_100), 10_000_100);
    }

    #[test]
    fn recv_queue_fifo() {
        let rq = RecvQueue::new();
        rq.post(RecvEntry {
            wr_id: 1,
            sge: None,
        });
        rq.post(RecvEntry {
            wr_id: 2,
            sge: None,
        });
        assert_eq!(rq.depth(), 2);
        assert_eq!(rq.consume().unwrap().wr_id, 1);
        assert_eq!(rq.consume().unwrap().wr_id, 2);
        assert!(matches!(rq.consume(), Err(VerbsError::ReceiverNotReady)));
    }

    #[test]
    fn qp_capabilities() {
        let mk = |typ| {
            Qp::new(
                1,
                0,
                typ,
                Arc::new(Cq::new()),
                Arc::new(Cq::new()),
                Arc::new(RecvQueue::new()),
            )
        };
        assert!(mk(QpType::Rc).supports_read_atomic());
        assert!(!mk(QpType::Ud).supports_write());
        assert!(mk(QpType::Uc).supports_write());
        assert!(!mk(QpType::Uc).supports_read_atomic());
        assert!(matches!(
            mk(QpType::Rc).peer(),
            Err(VerbsError::BadQp { qp: 1 })
        ));
    }
}

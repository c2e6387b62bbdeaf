//! The InfiniBand fabric: a set of nodes, each with physical memory and
//! one RNIC, joined by a switch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use smem::PhysMem;

use crate::error::{VerbsError, VerbsResult};
use crate::fault::{FaultAction, FaultPlan, FaultState, FaultStats};
use crate::nic::Nic;
use crate::qp::{Qp, QpType};

/// Index of a node in the fabric.
pub type NodeId = usize;

/// Physical memory per node, bytes (sparse — only touched pages cost
/// host memory).
const PHYS_MEM_PER_NODE: u64 = 16 << 30;

/// Fabric construction parameters. Every node gets 16 GiB of memory and
/// every NIC and link runs on [`COST`](crate::COST).
#[derive(Debug, Clone)]
pub struct IbConfig {
    /// Number of nodes.
    pub nodes: usize,
}

impl IbConfig {
    /// Config with `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        IbConfig { nodes: n }
    }
}

pub(crate) struct NodeHw {
    pub(crate) mem: Arc<PhysMem>,
    pub(crate) nic: Nic,
    pub(crate) down: AtomicBool,
}

/// The fabric. Everything in the simulation hangs off one of these.
pub struct IbFabric {
    pub(crate) nodes: Vec<NodeHw>,
    next_qp: AtomicU64,
    next_key: AtomicU64,
    /// Installed fault plan, if any (`fault_active` is its lock-free
    /// fast-path mirror: the hot path pays one relaxed load when no plan
    /// is installed).
    fault: Mutex<Option<FaultState>>,
    fault_active: AtomicBool,
    /// Fabric-wide count of work requests that passed the injection
    /// point; drives the scheduled (`at_op`) fault rules.
    fault_ops: AtomicU64,
    /// Set by [`IbFabric::shutdown`].
    shut: AtomicBool,
}

impl IbFabric {
    /// Builds a fabric of `cfg.nodes` nodes.
    pub fn new(cfg: IbConfig) -> Arc<Self> {
        assert!(cfg.nodes >= 1, "fabric needs at least one node");
        Arc::new_cyclic(|weak| {
            let nodes = (0..cfg.nodes)
                .map(|id| NodeHw {
                    mem: Arc::new(PhysMem::new(PHYS_MEM_PER_NODE)),
                    nic: Nic::new(id, weak.clone()),
                    down: AtomicBool::new(false),
                })
                .collect();
            IbFabric {
                nodes,
                next_qp: AtomicU64::new(1),
                next_key: AtomicU64::new(1),
                fault: Mutex::new(None),
                fault_active: AtomicBool::new(false),
                fault_ops: AtomicU64::new(0),
                shut: AtomicBool::new(false),
            }
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The NIC of node `n`.
    pub fn nic(&self, n: NodeId) -> &Nic {
        &self.nodes[n].nic
    }

    /// Checked NIC access.
    pub fn try_nic(&self, n: NodeId) -> VerbsResult<&Nic> {
        self.nodes
            .get(n)
            .map(|hw| &hw.nic)
            .ok_or(VerbsError::BadNode { node: n })
    }

    /// The physical memory of node `n`.
    pub fn mem(&self, n: NodeId) -> &Arc<PhysMem> {
        &self.nodes[n].mem
    }

    /// Marks a node up/down. Operations touching a down node fail with
    /// [`VerbsError::Timeout`] (RC retry exhaustion) — the failure
    /// injection hook used by the fault tests.
    pub fn set_down(&self, n: NodeId, down: bool) {
        self.nodes[n].down.store(down, Ordering::Release);
    }

    /// Whether [`IbFabric::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.shut.load(Ordering::Acquire)
    }

    /// Whether node `n` is marked down.
    pub fn is_down(&self, n: NodeId) -> bool {
        self.nodes[n].down.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault plan; replaces any previous plan and resets the
    /// fabric-wide operation counter its schedule runs on.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.fault_ops.store(0, Ordering::Relaxed);
        *self.fault.lock() = Some(FaultState::new(plan));
        self.fault_active.store(true, Ordering::Release);
    }

    /// Removes the installed fault plan (in-flight breakage — broken QPs,
    /// down nodes — stays; only future injections stop).
    pub fn clear_fault_plan(&self) {
        self.fault_active.store(false, Ordering::Release);
        *self.fault.lock() = None;
    }

    /// Counts of faults the installed plan has fired so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .lock()
            .as_ref()
            .map(|s| s.stats())
            .unwrap_or_default()
    }

    /// The injection point: every verb calls this once per work request
    /// `src → dst` (posted on `qp` when one is identified), *before* any
    /// side effect. Applies scheduled node crash/restart transitions and
    /// marks the victim QP pair broken for [`FaultAction::BreakQp`].
    pub fn fault_check(&self, src: NodeId, dst: NodeId, qp: Option<&Qp>) -> FaultAction {
        if !self.fault_active.load(Ordering::Acquire) {
            return FaultAction::None;
        }
        let (action, power) = {
            let mut guard = self.fault.lock();
            let Some(state) = guard.as_mut() else {
                return FaultAction::None;
            };
            state.check(&self.fault_ops, src, dst, qp.map(|q| q.id))
        };
        for n in power.crash {
            self.set_down(n, true);
        }
        for n in power.restart {
            self.set_down(n, false);
        }
        if action == FaultAction::BreakQp {
            if let Some(qp) = qp {
                self.break_qp_pair(qp);
            }
        }
        action
    }

    /// The *ack-leg* injection point: atomics call this once per work
    /// request after the remote apply has landed. Only
    /// [`FaultRule::DropAtomicAck`](crate::FaultRule::DropAtomicAck)
    /// rules participate and the fabric-wide operation counter is left
    /// untouched, so installing ack rules never shifts an existing
    /// op-scheduled crash/break schedule.
    pub fn fault_check_ack(&self, src: NodeId, dst: NodeId) -> FaultAction {
        if !self.fault_active.load(Ordering::Acquire) {
            return FaultAction::None;
        }
        let mut guard = self.fault.lock();
        let Some(state) = guard.as_mut() else {
            return FaultAction::None;
        };
        state.check_ack(src, dst)
    }

    /// Moves a QP and its connected peer into the error state; further
    /// posts on either end fail with
    /// [`VerbsError::QpBroken`](crate::VerbsError::QpBroken) until the
    /// layer above re-establishes the connection.
    pub fn break_qp_pair(&self, qp: &Qp) {
        qp.set_broken(true);
        if let Some(&(peer_node, peer_qp)) = qp.peer.get() {
            if let Ok(nic) = self.try_nic(peer_node) {
                if let Ok(p) = nic.qp(peer_qp) {
                    p.set_broken(true);
                }
            }
        }
    }

    /// Allocates a fabric-unique QP number.
    pub(crate) fn alloc_qp_id(&self) -> u64 {
        self.next_qp.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a fabric-unique MR key.
    pub(crate) fn alloc_key(&self) -> u32 {
        let k = self.next_key.fetch_add(1, Ordering::Relaxed);
        u32::try_from(k).expect("key space exhausted")
    }

    /// Creates a connected RC QP pair between nodes `a` and `b`, each with
    /// its own fresh CQs and receive queue.
    pub fn rc_pair(&self, a: NodeId, b: NodeId) -> (Arc<Qp>, Arc<Qp>) {
        let qa = self.nic(a).create_qp(QpType::Rc);
        let qb = self.nic(b).create_qp(QpType::Rc);
        self.connect(&qa, &qb);
        (qa, qb)
    }

    /// Connects two fresh RC/UC QPs. A QP connects once: a broken one
    /// is destroyed and replaced, never reconnected.
    pub fn connect(&self, a: &Arc<Qp>, b: &Arc<Qp>) {
        assert_ne!(a.typ, QpType::Ud, "UD QPs are connectionless");
        assert_eq!(a.typ, b.typ, "QP types must match");
        let fresh = a.peer.set((b.node, b.id)).is_ok() && b.peer.set((a.node, a.id)).is_ok();
        assert!(fresh, "QP already connected");
    }

    /// Closes every CQ on every node, releasing blocked pollers.
    pub fn shutdown(&self) {
        self.shut.store(true, Ordering::Release);
        for hw in &self.nodes {
            hw.nic.close_all_cqs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_builds_and_indexes() {
        let f = IbFabric::new(IbConfig::with_nodes(3));
        assert_eq!(f.num_nodes(), 3);
        assert!(f.try_nic(2).is_ok());
        assert!(matches!(f.try_nic(3), Err(VerbsError::BadNode { node: 3 })));
        assert!(!f.is_down(0));
        f.set_down(0, true);
        assert!(f.is_down(0));
    }

    #[test]
    fn rc_pair_is_connected() {
        let f = IbFabric::new(IbConfig::with_nodes(2));
        let (qa, qb) = f.rc_pair(0, 1);
        assert_eq!(qa.peer().unwrap(), (1, qb.id));
        assert_eq!(qb.peer().unwrap(), (0, qa.id));
        assert_ne!(qa.id, qb.id);
    }
}

//! The cluster directory: per-node membership records and the single
//! connect lock behind incremental (lazy) mesh bring-up.
//!
//! Boot used to wire the full O(N²·K) QP mesh and every ordered-pair
//! RPC ring before the first op could run. The directory replaces that:
//! [`crate::LiteCluster`] registers each node's membership record —
//! global rkey, QoS state, memory manager, and a
//! weak kernel handle — as the node joins (O(N) total), and peers pull
//! what they need from the directory on demand. Shared QPs and rings
//! are established on *first use* of a peer pair, under the one
//! [`ClusterDirectory::lock_connect`] mutex that also serializes QP
//! repairs and runtime joins, so pair wiring is race-free and
//! idempotent.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, MutexGuard};
use rnic::NodeId;

use crate::kernel::LiteKernel;
use crate::mm::MemManager;
use crate::qos::QosState;

/// One node's membership record.
pub(crate) struct DirEntry {
    /// The node's kernel (weak: the cluster owns kernels, and every
    /// kernel holds the directory, so a strong handle here would be a
    /// cycle). The one weak kernel handle in the crate.
    pub(crate) kernel: Weak<LiteKernel>,
    /// The node's global-MR rkey (§4.1).
    pub(crate) rkey: u32,
    /// The node's QoS state (receiver-side SW-Pri policies read it).
    pub(crate) qos: Arc<QosState>,
    /// The node's memory-tiering manager.
    pub(crate) mm: Arc<MemManager>,
}

/// Cluster membership, sized to the fabric's node capacity. Entries are
/// written once per node (at boot or at a runtime join) and never
/// removed — a dead node keeps its record, liveness is the datapath
/// monitor's job.
pub struct ClusterDirectory {
    /// Write-once per slot, so runtime joins fill entries out of order
    /// while readers stay lock-free.
    entries: Box<[OnceLock<DirEntry>]>,
    /// Serializes lazy pair wiring (QPs + rings), QP repairs, and
    /// runtime joins. Never held across a datapath post.
    connect_lock: Mutex<()>,
    joined: AtomicUsize,
    /// Host-wall nanoseconds the cluster spent booting (all joins).
    boot_host_ns: AtomicU64,
}

impl ClusterDirectory {
    /// An empty directory for a fabric of `capacity` nodes.
    pub(crate) fn new(capacity: usize) -> Self {
        ClusterDirectory {
            entries: (0..capacity).map(|_| OnceLock::new()).collect(),
            connect_lock: Mutex::new(()),
            joined: AtomicUsize::new(0),
            boot_host_ns: AtomicU64::new(0),
        }
    }

    /// Fabric node capacity (registered or not).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Nodes registered so far.
    pub fn joined(&self) -> usize {
        self.joined.load(Ordering::Acquire)
    }

    /// Registers `node`'s membership record; `false` if already present
    /// or out of range. Called by `LiteKernel::boot`, whose caller holds
    /// [`ClusterDirectory::lock_connect`] across the whole bring-up, so
    /// a peer never reaches a kernel whose threads have not started.
    pub(crate) fn register(&self, node: NodeId, entry: DirEntry) -> bool {
        let Some(slot) = self.entries.get(node) else {
            return false;
        };
        let fresh = slot.set(entry).is_ok();
        if fresh {
            self.joined.fetch_add(1, Ordering::AcqRel);
        }
        fresh
    }

    fn entry(&self, node: NodeId) -> Option<&DirEntry> {
        self.entries.get(node)?.get()
    }

    /// The node's kernel, if joined and alive.
    pub(crate) fn kernel(&self, node: NodeId) -> Option<Arc<LiteKernel>> {
        self.entry(node)?.kernel.upgrade()
    }

    /// The node's global rkey.
    pub(crate) fn rkey(&self, node: NodeId) -> Option<u32> {
        Some(self.entry(node)?.rkey)
    }

    /// The node's QoS state.
    pub(crate) fn qos(&self, node: NodeId) -> Option<&Arc<QosState>> {
        Some(&self.entry(node)?.qos)
    }

    /// The node's memory manager.
    pub(crate) fn mm(&self, node: NodeId) -> Option<&Arc<MemManager>> {
        Some(&self.entry(node)?.mm)
    }

    /// Takes the cluster-wide connect lock (pair wiring, QP repair,
    /// runtime join).
    pub(crate) fn lock_connect(&self) -> MutexGuard<'_, ()> {
        self.connect_lock.lock()
    }

    /// Adds to the cumulative boot-time gauge.
    pub(crate) fn note_boot(&self, host_ns: u64) {
        self.boot_host_ns.fetch_add(host_ns, Ordering::Relaxed);
    }

    /// Cumulative host-wall nanoseconds spent joining nodes.
    pub fn boot_host_ns(&self) -> u64 {
        self.boot_host_ns.load(Ordering::Relaxed)
    }
}

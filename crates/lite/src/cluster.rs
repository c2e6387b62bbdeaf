//! Cluster construction: fabric, kernels, and the membership directory.
//!
//! Boot is **incremental**: starting a node builds its kernel and
//! datapath and registers its membership record in the
//! [`ClusterDirectory`], in one step ([`LiteKernel::boot`]), and starts no
//! thread — O(1) work per node, O(N) for the cluster. The
//! shared QP mesh and the ordered-pair RPC rings of the old eager
//! bring-up are *not* built here; each pair is wired on first use by
//! the datapath
//! ([`RnicDataPath::ensure_qps`](crate::kernel::datapath::RnicDataPath))
//! and the RPC layer (`ensure_ring`), both under the directory's single
//! connect lock.
//!
//! Nodes can also join at runtime: [`LiteCluster::start_partial`] boots a
//! prefix of the fabric and [`LiteCluster::join_node`] brings up the rest
//! on demand, which is what makes thousand-node scale-out affordable —
//! see `DESIGN.md` §12 and the `scale` bench.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rnic::{IbConfig, IbFabric, NodeId};

use crate::api::LiteHandle;
use crate::config::LiteConfig;
use crate::directory::ClusterDirectory;
use crate::error::{LiteError, LiteResult};
use crate::kernel::datapath::RnicDataPath;
use crate::kernel::LiteKernel;
use crate::mm::Migrator;
use crate::qos::QosMode;

/// A running LITE cluster: one fabric, one kernel per joined node, one
/// membership directory.
pub struct LiteCluster {
    fabric: Arc<IbFabric>,
    config: LiteConfig,
    dir: Arc<ClusterDirectory>,
    /// Write-once kernel slot per fabric node; empty until the node
    /// joins (at boot or via [`LiteCluster::join_node`]).
    nodes: Box<[OnceLock<Arc<LiteKernel>>]>,
    /// The migrators of the nodes whose managers track segments. Their
    /// managers hold them weakly, so they drop with the cluster.
    migrators: Mutex<Vec<Arc<Migrator>>>,
    /// History log handed to late joiners so runtime joins see the same
    /// recording state as boot nodes.
    history: OnceLock<Arc<crate::verify::HistoryLog>>,
}

impl LiteCluster {
    /// Starts a cluster of `nodes` nodes with default configuration.
    pub fn start(nodes: usize) -> LiteResult<Arc<Self>> {
        Self::start_with(IbConfig::with_nodes(nodes), LiteConfig::default())
    }

    /// Starts a cluster with explicit fabric / LITE configuration. Every
    /// fabric node joins at boot.
    pub fn start_with(ib: IbConfig, config: LiteConfig) -> LiteResult<Arc<Self>> {
        let boot = ib.nodes;
        Self::start_partial(ib, config, boot)
    }

    /// Starts a cluster in which only nodes `0..boot_nodes` join at
    /// boot; the rest of the fabric's capacity stays dark until
    /// [`LiteCluster::join_node`] brings a node up. Boot cost is
    /// O(boot_nodes), independent of fabric capacity.
    pub fn start_partial(
        ib: IbConfig,
        config: LiteConfig,
        boot_nodes: usize,
    ) -> LiteResult<Arc<Self>> {
        let fabric = IbFabric::new(ib);
        let capacity = fabric.num_nodes();
        let boot = boot_nodes.min(capacity);
        let cluster = Arc::new(LiteCluster {
            fabric,
            dir: Arc::new(ClusterDirectory::new(capacity)),
            nodes: (0..capacity).map(|_| OnceLock::new()).collect(),
            migrators: Mutex::new(Vec::new()),
            history: OnceLock::new(),
            config,
        });
        for node in 0..boot {
            cluster.join_node(node)?;
        }
        Ok(cluster)
    }

    /// Brings `node` up at runtime ([`LiteKernel::boot`]) under the
    /// directory's connect lock, so concurrent joins and lazy pair wiring
    /// serialize. Idempotent: joining a running node returns its kernel.
    pub fn join_node(&self, node: NodeId) -> LiteResult<Arc<LiteKernel>> {
        let slot = self.nodes.get(node).ok_or(LiteError::NodeDown { node })?;
        if let Some(k) = slot.get() {
            return Ok(Arc::clone(k));
        }
        let kernel = {
            let _g = self.dir.lock_connect();
            if let Some(k) = slot.get() {
                return Ok(Arc::clone(k)); // lost a join race — fine
            }
            let kernel = LiteKernel::boot(node, self.config.clone(), &self.fabric, &self.dir)?;
            if let Some(m) = Migrator::bind(&kernel)? {
                self.migrators.lock().push(m);
            }
            Arc::clone(slot.get_or_init(|| kernel))
        };
        if let Some(log) = self.history.get() {
            kernel.observe().install_history(Arc::clone(log));
        }
        Ok(kernel)
    }

    /// Nodes joined so far (boot nodes plus runtime joins).
    pub fn num_nodes(&self) -> usize {
        self.dir.joined()
    }

    /// Fabric node capacity (joined or not).
    pub fn capacity(&self) -> usize {
        self.dir.capacity()
    }

    /// The membership directory (boot gauges, join state).
    pub fn directory(&self) -> &Arc<ClusterDirectory> {
        &self.dir
    }

    /// The underlying fabric (for baselines sharing the cluster).
    pub fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    /// The kernel on `node`.
    ///
    /// Panics if `node` has not joined; use [`LiteCluster::try_kernel`]
    /// for a fallible lookup.
    pub fn kernel(&self, node: NodeId) -> &Arc<LiteKernel> {
        self.try_kernel(node).expect("node joined the cluster")
    }

    /// The kernel on `node`, or [`LiteError::NodeDown`] for a node that
    /// has not joined (or an id outside the fabric).
    pub fn try_kernel(&self, node: NodeId) -> LiteResult<&Arc<LiteKernel>> {
        self.nodes
            .get(node)
            .and_then(OnceLock::get)
            .ok_or(LiteError::NodeDown { node })
    }

    /// The datapath of `node` — the same op plane the kernel posts
    /// through, exposed for kernel-level consumers that post [`Op`]
    /// descriptors directly.
    ///
    /// Panics if `node` has not joined.
    ///
    /// [`Op`]: crate::kernel::datapath::Op
    pub fn datapath(&self, node: NodeId) -> Arc<RnicDataPath> {
        Arc::clone(&self.kernel(node).datapath)
    }

    /// Attaches a user-level process on `node` (LT_join).
    pub fn attach(&self, node: NodeId) -> LiteResult<LiteHandle> {
        LiteHandle::new(Arc::clone(self.try_kernel(node)?), true)
    }

    /// Attaches a kernel-level user on `node` (LITE serves kernel
    /// applications too, without syscall crossings — LITE-DSM uses this).
    pub fn attach_kernel(&self, node: NodeId) -> LiteResult<LiteHandle> {
        LiteHandle::new(Arc::clone(self.try_kernel(node)?), false)
    }

    /// Arms history recording for the linearizability checker
    /// ([`crate::verify`]): installs one shared [`HistoryLog`] on every
    /// joined node (and every later joiner) and returns it. Arm *before*
    /// the first synchronization op — the checker's register spec assumes
    /// recorded locations start zero-filled. Recording stays on for the
    /// cluster's lifetime; a second call returns a new log only if none
    /// was installed (first install wins on every node).
    ///
    /// [`HistoryLog`]: crate::verify::HistoryLog
    pub fn record_history(&self) -> Arc<crate::verify::HistoryLog> {
        let log = Arc::new(crate::verify::HistoryLog::new());
        let _ = self.history.set(Arc::clone(&log));
        for k in self.nodes.iter().filter_map(OnceLock::get) {
            k.observe().install_history(Arc::clone(&log));
        }
        log
    }

    /// Switches the QoS mode on every joined node.
    pub fn set_qos_mode(&self, mode: QosMode) {
        for slot in self.nodes.iter() {
            if let Some(k) = slot.get() {
                k.qos().set_mode(mode);
            }
        }
    }
}

impl Drop for LiteCluster {
    /// Shuts the fabric down; a cluster runs no thread to stop. No kernel
    /// call is served after this, so calls in flight time out. A running
    /// migration holds its migrator, so the migrators drop with it.
    fn drop(&mut self) {
        self.fabric.shutdown();
    }
}

//! The per-node LITE kernel module: composition root.
//!
//! One `LiteKernel` per node owns everything the paper's loadable module
//! owns: the node's physical allocator, the single *global physical MR*
//! (§4.1), K shared RC QPs per peer attached to one shared receive CQ
//! (§6.1), per-peer RPC rings (§5.1), the shared poller, the lh tables,
//! master records, and the kernel-internal services (naming, mapping,
//! locks, barriers, memory ops) that the LITE API is built on.
//!
//! The shared poller is one clock and one lock, not a thread: whoever
//! delivers a write-imm dispatches the node's arrivals on it. The one
//! thread a node runs, `lite-kcall-N`, serves kernel calls (DESIGN.md
//! §5.3).
//!
//! A node comes up in one step, [`LiteKernel::boot`]: the kernel is
//! built with its datapath and the cluster directory in hand, registered,
//! and its threads started, all under the directory's connect lock. No
//! kernel exists without its datapath, so nothing checks for one.
//!
//! This file only holds the struct and bring-up; the behavior lives in
//! focused submodules:
//!
//! * [`datapath`] — op descriptors and the verbs-backed
//!   [`datapath::RnicDataPath`] (one-sided plane + batching + recovery).
//! * [`rpc`] — rings, completion slots, reply routing, dispatch.
//! * [`msg`] — kernel services (naming, mapping, locks, barriers).
//! * [`stats`] — hot-path counters and the stats snapshot.

use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use parking_lot::{Mutex, RwLock};
use rnic::qp::{RecvEntry, RecvQueue};
use rnic::{Cq, IbFabric, NodeId, COST};
use simnet::wait::Event;
use simnet::{CpuMeter, Ctx};
use smem::{PhysAllocator, PhysMem};

use crate::config::LiteConfig;
use crate::directory::{ClusterDirectory, DirEntry};
use crate::error::{LiteError, LiteResult};
use crate::mm::MemManager;
use crate::observe::{self, Observability, QosReport, StatsReport};
use crate::qos::QosState;
use crate::ring::{ClientRing, HeadCell, ServerRing, HEAD_CELL_SPAN};
use crate::shard::ShardedMap;

pub mod datapath;
mod msg;
mod rpc;
mod stats;

pub use rpc::{Incoming, ADAPTIVE_SPIN_NS, IMM_DISPATCH_NS, RPC_META_NS};
pub use stats::KernelStats;

pub(crate) use msg::{LOCK_ABORT, LOCK_ENQUEUE, LOCK_NO_WAITER, LOCK_RELEASE};
pub(crate) use rpc::{CallSlot, ReplyRoute};

use datapath::RnicDataPath;
use msg::{BarrierState, LockState, MasterTable};
use rpc::{Dispatcher, KernelCall, RpcQueue};
use stats::KernelCounters;

// ---------------------------------------------------------------------
// Kernel-internal RPC function ids (< USER_FUNC_MIN).
// ---------------------------------------------------------------------

/// One-way messaging (LT_send / LT_recv).
pub const FN_MSG: u8 = 1;
pub(crate) const FN_MALLOC: u8 = 2;
pub(crate) const FN_FREE_CHUNKS: u8 = 3;
pub(crate) const FN_INVALIDATE: u8 = 4;
pub(crate) const FN_REGNAME: u8 = 5;
pub(crate) const FN_QUERYNAME: u8 = 6;
pub(crate) const FN_MAP: u8 = 7;
pub(crate) const FN_UNMAP: u8 = 8;
pub(crate) const FN_MEMSET: u8 = 9;
pub(crate) const FN_MEMCPY: u8 = 10;
pub(crate) const FN_LOCK: u8 = 11;
pub(crate) const FN_BARRIER: u8 = 12;
pub(crate) const FN_TAKE_RECORD: u8 = 13;
pub(crate) const FN_GRANT: u8 = 14;
pub(crate) const FN_UNREGNAME: u8 = 15;
/// First function id available to applications (16 and 17 are unassigned).
pub const USER_FUNC_MIN: u8 = 18;

/// The cluster-manager node (name registry; §3.3's management service).
pub const MANAGER_NODE: NodeId = 0;

/// Number of pre-allocated lock cells per node.
const LOCK_CELLS: u64 = 4_096;

// ---------------------------------------------------------------------
// The kernel proper.
// ---------------------------------------------------------------------

/// The LITE kernel module instance on one node.
pub struct LiteKernel {
    pub(crate) node: NodeId,
    pub(crate) config: LiteConfig,
    pub(crate) fabric: Arc<IbFabric>,
    pub(crate) alloc: Arc<Mutex<PhysAllocator>>,
    global_mr: rnic::Mr,
    pub(crate) datapath: Arc<RnicDataPath>,
    /// Cluster membership directory (rkeys, peer kernels and managers).
    pub(crate) dir: Arc<ClusterDirectory>,
    pub(crate) shared_recv_cq: Arc<Cq>,
    shared_rq: Arc<RecvQueue>,
    /// Woken when dispatch reposts a credit to `shared_rq`: what a sender
    /// that found none (RNR) waits on.
    credits: Event,
    /// Client-side ring views, indexed by server node. Slots fill lazily
    /// on the first RPC towards a peer (under the directory's connect
    /// lock); the `RwLock` read on the fast path is uncontended.
    client_rings: RwLock<Vec<Option<Arc<ClientRing>>>>,
    /// Server-side ring state, indexed by client node; filled lazily by
    /// the *client's* `ensure_ring`.
    server_rings: RwLock<Vec<Option<Arc<ServerRing>>>>,
    /// Where this node's head-cell pulls land: allocated by the first
    /// pull, held for the length of each one.
    pull_land: Mutex<Option<u64>>,
    /// Base of the lock-cell array.
    lock_cells: u64,
    next_lock: AtomicU64,
    slots: ShardedMap<u32, Arc<CallSlot>>,
    next_slot: AtomicU32,
    queues: ShardedMap<u8, Arc<RpcQueue>>,
    /// Woken after every push onto `queues`: what a thread waiting for a
    /// call on one of them or on several at once parks on.
    arrivals: Event,
    locks: ShardedMap<u64, LockState>,
    /// Counts the enqueues and aborts that land in `locks` and the lock
    /// words waiters unwind; `lock_moved` is woken after each. An unlocker
    /// whose release found no waiter yet waits on it (`ask_owner`).
    pub(crate) lock_moves: AtomicU64,
    pub(crate) lock_moved: Event,
    barriers: ShardedMap<u64, BarrierState>,
    masters: MasterTable,
    names: ShardedMap<String, u32>,
    lhs: ShardedMap<(u32, u64), crate::lmr::LhEntry>,
    /// What services layered above the kernel hold once per node, by type
    /// and service name ([`LiteKernel::service_state`]).
    service_states: ShardedMap<(TypeId, String), Arc<dyn Any + Send + Sync>>,
    next_pid: AtomicU32,
    next_lh: AtomicU64,
    pub(crate) qos: Arc<QosState>,
    /// Memory-tiering manager (budget, residency, eviction policy).
    mm: Arc<MemManager>,
    mm_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The shared poller's clock, taken by whichever thread dispatches.
    dispatcher: Mutex<Dispatcher>,
    /// Where dispatch hands kernel calls; `None` once stopped.
    kcalls: Mutex<Option<mpsc::Sender<KernelCall>>>,
    kcall_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// CPU meter of the shared poller.
    pub poller_cpu: Arc<CpuMeter>,
    counters: KernelCounters,
    /// Sequence half of the cluster-unique synchronization tokens
    /// (enqueue / release identities on the lock fault paths).
    next_sync_token: AtomicU64,
    /// Host-wall nanoseconds this node's `boot` took (gauge).
    boot_host_ns: AtomicU64,
    /// Host-wall nanoseconds spent wiring rings lazily (gauge; QP
    /// wiring time is tracked by the datapath).
    mesh_host_ns: AtomicU64,
}

impl LiteKernel {
    /// Brings `node` up in one step: builds the kernel and its datapath
    /// (empty QP pools — peers are wired lazily on first use), registers
    /// its membership record in `dir`, wires the self-loopback RPC ring,
    /// pre-posts receive credits, and starts the kernel-call thread (and
    /// the memory manager's, when it has work). The caller holds the
    /// directory's connect lock, so a peer that finds the record finds a
    /// running kernel: reaching it (`ensure_qps` / `ensure_ring`) takes
    /// the same lock. O(1) per node, which is what makes cluster boot
    /// O(N) instead of the old O(N²·K) full-mesh bring-up.
    pub(crate) fn boot(
        node: NodeId,
        config: LiteConfig,
        fabric: &Arc<IbFabric>,
        dir: &Arc<ClusterDirectory>,
    ) -> LiteResult<Arc<Self>> {
        let boot_start = std::time::Instant::now();
        let fabric = Arc::clone(fabric);
        let mem_size = fabric.mem(node).size();
        let alloc = Arc::new(Mutex::new(PhysAllocator::new(0, mem_size)));
        let mut ctx = Ctx::new();
        let nic = fabric.nic(node);
        // The heart of §4.1: one MR covering all physical memory,
        // registered with physical addresses. With the ablation switch
        // off, this MR is still created but LMR traffic goes through
        // per-LMR virtual MRs instead (see `ablation` tests).
        let global_mr = nic.register_phys_mr(&mut ctx, 0, mem_size, rnic::Access::RW)?;
        let lock_cells = alloc.lock().alloc(LOCK_CELLS * 8)?;
        let mm = Arc::new(MemManager::new(node, fabric.num_nodes(), &config));
        let shards = config.kernel_shards;
        let capacity = fabric.num_nodes();
        let poller_cpu = Arc::new(CpuMeter::new());
        let qos = Arc::new(QosState::new(COST.link_bytes_per_sec));
        let shared_recv_cq = Arc::new(Cq::new());
        let shared_rq = Arc::new(RecvQueue::new());
        let datapath = Arc::new(RnicDataPath::new(
            Arc::clone(&fabric),
            node,
            &config,
            global_mr.lkey(),
            Arc::clone(&qos),
            Arc::clone(&alloc),
            Arc::clone(dir),
            Arc::clone(&shared_recv_cq),
            Arc::clone(&shared_rq),
        ));
        let kernel = Arc::new(LiteKernel {
            node,
            config,
            fabric,
            alloc,
            global_mr,
            datapath,
            dir: Arc::clone(dir),
            shared_recv_cq,
            shared_rq,
            credits: Event::default(),
            client_rings: RwLock::new(vec![None; capacity]),
            server_rings: RwLock::new(vec![None; capacity]),
            pull_land: Mutex::new(None),
            lock_cells,
            next_lock: AtomicU64::new(0),
            slots: ShardedMap::new(shards),
            next_slot: AtomicU32::new(1),
            queues: ShardedMap::new(shards),
            arrivals: Event::default(),
            locks: ShardedMap::new(shards),
            lock_moves: AtomicU64::new(0),
            lock_moved: Event::default(),
            barriers: ShardedMap::new(shards),
            masters: MasterTable::new(shards),
            names: ShardedMap::new(shards),
            lhs: ShardedMap::new(shards),
            service_states: ShardedMap::new(shards),
            next_pid: AtomicU32::new(1),
            next_lh: AtomicU64::new(1),
            qos,
            mm,
            mm_thread: Mutex::new(None),
            dispatcher: Mutex::new(Dispatcher::new(Arc::clone(&poller_cpu))),
            kcalls: Mutex::new(None),
            kcall_thread: Mutex::new(None),
            poller_cpu,
            counters: KernelCounters::new(),
            next_sync_token: AtomicU64::new(1),
            boot_host_ns: AtomicU64::new(0),
            mesh_host_ns: AtomicU64::new(0),
        });
        // FN_MSG delivers through a queue like user functions do.
        kernel.queues.insert(FN_MSG, Arc::default());
        dir.register(
            node,
            DirEntry {
                kernel: Arc::downgrade(&kernel),
                rkey: kernel.global_mr.rkey(),
                qos: Arc::clone(&kernel.qos),
                mm: Arc::clone(&kernel.mm),
            },
        );
        // The self-loopback ring is wired eagerly: kernel services RPC
        // their own node (manager calls on node 0, local lock homes),
        // and a node is always a member of itself.
        let base = kernel.alloc_ring(node)?;
        let size = kernel.config.rpc_ring_bytes;
        kernel.server_rings.write()[node] = Some(Arc::new(ServerRing::new(base, size)?));
        kernel.client_rings.write()[node] = Some(Arc::new(ClientRing::new(base, size)?));
        // Pre-post receive credits for write-imm (the paper's background
        // IMM-buffer posting).
        for _ in 0..kernel.config.recv_credits {
            kernel.shared_rq.post(RecvEntry {
                wr_id: 0,
                sge: None,
            });
        }
        let (calls, served) = mpsc::channel();
        let me = Arc::clone(&kernel);
        let handle = std::thread::Builder::new()
            .name(format!("lite-kcall-{node}"))
            .spawn(move || me.serve_kernel_calls(served))
            .map_err(|_| LiteError::Internal("could not spawn the kernel-call thread"))?;
        *kernel.kcalls.lock() = Some(calls);
        *kernel.kcall_thread.lock() = Some(handle);
        // The tiering manager only runs when it has work — a budget to
        // enforce or lazy pins to reap — so default clusters (neither)
        // get no extra thread and byte-identical behavior.
        if kernel.mm.tracking() {
            let me = Arc::clone(&kernel);
            let mm_handle = std::thread::Builder::new()
                .name(format!("lite-mm-{node}"))
                .spawn(move || crate::mm::run(me))
                .map_err(|_| LiteError::Internal("could not spawn the memory manager"))?;
            *kernel.mm_thread.lock() = Some(mm_handle);
        }
        let ns = boot_start.elapsed().as_nanos() as u64;
        kernel.boot_host_ns.store(ns, Ordering::Relaxed);
        dir.note_boot(ns);
        Ok(kernel)
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The LITE configuration.
    pub fn config(&self) -> &LiteConfig {
        &self.config
    }

    /// The fabric under this kernel.
    pub fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    /// QoS control surface.
    pub fn qos(&self) -> &QosState {
        &self.qos
    }

    /// The node's memory-tiering manager.
    pub fn mm(&self) -> &Arc<MemManager> {
        &self.mm
    }

    /// Memory-tiering gauges.
    pub fn mm_stats(&self) -> crate::mm::MmReport {
        self.mm_stats_with(&self.observe().tally())
    }

    /// [`Self::mm_stats`] with mm's latencies from an already folded
    /// `tally`.
    fn mm_stats_with(&self, tally: &simnet::ledger::Tally) -> crate::mm::MmReport {
        use crate::observe::{cell, LatencySummary};
        let lat = |c: usize| LatencySummary::of(tally.cells[c].lat.as_ref());
        crate::mm::MmReport {
            fetch_back_lat: lat(cell::MM_FETCH_BACK),
            reg_lat: lat(cell::MM_REG),
            ..self.mm.stats()
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> KernelStats {
        self.stats_with(&self.observe().tally())
    }

    /// [`Self::stats`] with the one-sided counts of an already folded
    /// `tally`.
    fn stats_with(&self, tally: &simnet::ledger::Tally) -> KernelStats {
        use crate::observe::cell;
        let dp = &self.datapath;
        let mut s = self.counters.snapshot(dp.num_qps(), dp.retry_counters());
        let (w, r) = (&tally.cells[cell::LT_WRITE], &tally.cells[cell::LT_READ]);
        (s.lt_writes, s.lt_reads, s.lt_bytes) = (w.count, r.count, w.bytes + r.bytes);
        s.mesh_ns = self.mesh_host_ns.load(Ordering::Relaxed) + dp.mesh_host_ns();
        s.lazy_connects = dp.lazy_connects();
        s.boot_ns = self.boot_host_ns.load(Ordering::Relaxed);
        s
    }

    /// Structured observability report: per-class × priority latency
    /// percentiles, per-peer gauges and liveness, trace-ring occupancy,
    /// and QoS state.
    pub fn lt_stats(&self) -> StatsReport {
        let qos = QosReport {
            mode: self.qos.mode(),
            rtt_ewma_ns: self.qos.rtt_estimate(),
        };
        let dp = &self.datapath;
        let tally = dp.observer().tally();
        observe::build_report(
            self.node,
            self.stats_with(&tally),
            dp.observer(),
            &tally,
            |peer| !dp.peer_is_dead(peer),
            qos,
            self.mm_stats_with(&tally),
            self.fabric.nic(self.node).stats(),
        )
    }

    /// The node's observability state (op traces + histograms).
    pub fn observe(&self) -> &Arc<Observability> {
        self.datapath.observer()
    }

    /// A cluster-unique synchronization token: node id in the top bits,
    /// a local sequence below. One token names one enqueue attempt or
    /// one release, which is what makes lock fault-path recovery
    /// (idempotent grants, definite aborts) possible.
    pub(crate) fn next_sync_token(&self) -> u64 {
        ((self.node as u64) << 40) | self.next_sync_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts a swallowed cleanup failure (allocation rollback, handle
    /// teardown) and emits a Mgmt/Failed trace event so leaks are
    /// observable instead of silent.
    pub(crate) fn note_cleanup_failure(&self, peer: NodeId, stamp: simnet::Nanos) {
        self.counters.count_cleanup_failure();
        let obs = self.observe();
        obs.trace(
            obs.next_op_id(),
            crate::observe::OpClass::Mgmt,
            crate::observe::EventKind::Failed,
            crate::qos::Priority::Low,
            peer,
            stamp,
        );
    }

    /// Counts a lock-word unwind (a failed acquire rolled its
    /// `fetch_add` back so the lock word stays consistent).
    pub(crate) fn note_lock_unwind(&self) {
        self.counters.count_lock_unwind();
    }

    /// Counts a committed OCC transaction. Public: the transaction layer
    /// (`lite-txn`) lives outside the kernel, entirely on the `lt_*`
    /// API, and reports outcomes through these gauges so they show up in
    /// [`LiteKernel::lt_stats`] next to the datapath counters.
    pub fn note_txn_commit(&self) {
        self.counters.count_txn_commit();
    }

    /// Counts an aborted OCC transaction; `validation_fail` marks the
    /// aborts caused by read-set validation (the OCC conflict signal),
    /// as opposed to lock conflicts, faults, or explicit aborts.
    pub fn note_txn_abort(&self, validation_fail: bool) {
        self.counters.count_txn_abort(validation_fail);
    }

    /// Counts a KV write applied by a `lite-kv` replica on this node.
    /// Public for the same reason as [`LiteKernel::note_txn_commit`]:
    /// the service layer lives outside the kernel, entirely on the
    /// `lt_*` API, and reports through these gauges so its traffic shows
    /// up in [`LiteKernel::lt_stats`] next to the datapath counters.
    pub fn note_kv_put(&self) {
        self.counters.count_kv_put();
    }

    /// Counts a KV read served by a `lite-kv` replica on this node.
    pub fn note_kv_get(&self) {
        self.counters.count_kv_get();
    }

    /// Publishes the `lite-kv` leader's current replication lag
    /// (committed writes minus the slowest follower's acknowledged seq).
    /// A gauge — each call overwrites the previous value.
    pub fn set_kv_replication_lag(&self, lag: u64) {
        self.counters.set_kv_replication_lag(lag);
    }

    /// The one `T` this node holds for the service called `name`, made by
    /// `init` on the first call: state that is per node, not per process
    /// — every handle attached here that asks gets the same `Arc`. It
    /// lives as long as the kernel, so a cluster built later starts empty.
    /// `init` runs with a table shard locked and must not call the kernel.
    pub fn service_state<T: Any + Send + Sync>(
        &self,
        name: &str,
        init: impl FnOnce() -> T,
    ) -> Arc<T> {
        let key = (TypeId::of::<T>(), name.to_string());
        let state = self.service_states.with_shard_of(&key, |shard| {
            let made = shard.entry(key.clone()).or_insert_with(|| Arc::new(init()));
            Arc::clone(made)
        });
        state.downcast().expect("keyed by its type")
    }

    /// Free bytes in this node's kernel scratch allocator (staging
    /// cells, reply buffers, ring space). A leak detector for tests:
    /// any `lt_*` call that returns — successfully or not — must leave
    /// this balance where it found it.
    pub fn scratch_free_bytes(&self) -> u64 {
        self.alloc.lock().free_bytes()
    }

    /// Counts a synchronization-state leak: a lock fault path that could
    /// not restore consistency (abort unreachable, unwind failed, or a
    /// release grant undeliverable). Also traced as Mgmt/Failed.
    pub(crate) fn note_sync_leak(&self, peer: NodeId, stamp: simnet::Nanos) {
        self.counters.count_sync_leak();
        let obs = self.observe();
        obs.trace(
            obs.next_op_id(),
            crate::observe::OpClass::Mgmt,
            crate::observe::EventKind::Failed,
            crate::qos::Priority::Low,
            peer,
            stamp,
        );
    }

    fn mem(&self) -> &Arc<PhysMem> {
        self.fabric.mem(self.node)
    }

    /// Installs the server-side ring state for messages from `client`.
    /// Called by the *client's* `ensure_ring` (under the directory's
    /// connect lock) before it builds its own view, so a request can
    /// never arrive at a server without ring state.
    pub(crate) fn install_server_ring(&self, client: NodeId, ring: Arc<ServerRing>) {
        if let Some(slot) = self.server_rings.write().get_mut(client) {
            *slot = Some(ring);
        }
    }

    /// Adds host-wall nanoseconds to the lazy ring-wiring gauge.
    pub(crate) fn note_mesh_ns(&self, ns: u64) {
        self.mesh_host_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Allocates the server-side ring for messages from `client`, with
    /// its head cell right behind it. Rings are wired lazily and may land
    /// on freed (dirty) memory, so the cell is written: nothing consumed.
    pub(crate) fn alloc_ring(&self, _client: NodeId) -> LiteResult<u64> {
        let size = self.config.rpc_ring_bytes;
        let base = self.alloc.lock().alloc(size + HEAD_CELL_SPAN)?;
        let empty = HeadCell { head: 0, stamp: 0 };
        self.mem().write(base + size, &empty.encode())?;
        Ok(base)
    }

    /// First half of shutdown: stops and joins the memory manager. It
    /// issues kernel calls of its own, to this node and to others, so the
    /// cluster stops every node's manager before it stops any node's
    /// kernel calls.
    pub(crate) fn stop_mm(&self) {
        self.mm.begin_shutdown();
        if let Some(h) = self.mm_thread.lock().take() {
            let _ = h.join();
        }
    }

    /// Second half of shutdown: closes the kernel-call queue and joins its
    /// thread, which serves what is queued and exits. A kernel call that
    /// arrives later is never served: its caller times out.
    pub(crate) fn stop_poller(&self) {
        self.kcalls.lock().take();
        if let Some(h) = self.kcall_thread.lock().take() {
            let _ = h.join();
        }
    }
}

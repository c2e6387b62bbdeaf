#![warn(missing_docs)]

//! # LITE: a Local Indirection TiEr for RDMA
//!
//! A faithful reimplementation of *LITE Kernel RDMA Support for
//! Datacenter Applications* (Tsai & Zhang, SOSP 2017) over the simulated
//! RNIC substrate in [`rnic`].
//!
//! LITE virtualizes native RDMA behind a kernel-level indirection layer:
//!
//! * **Memory** — applications see named, permissioned *LITE memory
//!   regions* (LMRs) through opaque handles (`lh`); the kernel maps them
//!   onto physical memory and registers a **single global physical MR**
//!   with the NIC, eliminating the on-NIC MR-key and PTE-cache
//!   scalability cliffs of native RDMA (§4).
//! * **RPC** — a new mechanism built on paired `RDMA write-imm`
//!   operations through per-node-pair rings, one shared poller per node
//!   (run by the threads that deliver, not a thread of its own), and
//!   user/kernel crossing optimizations (§5).
//! * **Sharing & QoS** — K×N shared RC QPs per node, one shared receive
//!   CQ, and two QoS schemes (HW-Sep partitioning and SW-Pri software
//!   flow control) (§6).
//! * **Extensions** — memory-like ops (`LT_memset/memcpy/memmove`),
//!   synchronization (`LT_lock`, `LT_barrier`, `LT_fetch-add`,
//!   `LT_test-set`), and multicast RPC (§7).
//!
//! Start a cluster with [`LiteCluster::start`], attach processes with
//! [`LiteCluster::attach`], and use the `lt_*` methods on
//! [`LiteHandle`] (they mirror the paper's Table 1).
//!
//! ```
//! use lite::{LiteCluster, Perm};
//! use simnet::Ctx;
//!
//! let cluster = LiteCluster::start(2).unwrap();
//! let mut h0 = cluster.attach(0).unwrap();
//! let mut h1 = cluster.attach(1).unwrap();
//! let mut ctx = Ctx::new();
//!
//! // Allocate a named LMR on node 1, write from node 0, read it back.
//! let lh = h0.lt_malloc(&mut ctx, 1, 4096, "demo", Perm::RW).unwrap();
//! h0.lt_write(&mut ctx, lh, 0, b"hello LITE").unwrap();
//!
//! let mut ctx1 = Ctx::new();
//! let lh1 = h1.lt_map(&mut ctx1, "demo").unwrap();
//! let mut buf = [0u8; 10];
//! h1.lt_read(&mut ctx1, lh1, 0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello LITE");
//! ```

pub mod api;
pub mod cluster;
pub mod config;
pub mod directory;
pub mod error;
pub mod kernel;
pub mod lmr;
pub mod mm;
pub mod observe;
pub mod qos;
pub mod ring;
pub mod shard;
pub mod verify;
pub mod wire;

pub use api::{ChainOp, Lh, LiteHandle, LockId, RpcCall};
pub use cluster::LiteCluster;
pub use config::LiteConfig;
pub use directory::ClusterDirectory;
pub use error::{LiteError, LiteResult};
pub use kernel::datapath::{Chunk, Completion, Op, RnicDataPath};
pub use kernel::{KernelStats, LiteKernel, RpcHandler, RpcServer, MANAGER_NODE, USER_FUNC_MIN};
pub use lmr::{LmrId, Location, Perm};
pub use mm::{MemManager, MmReport};
pub use observe::{
    ClassStats, EventKind, LatencySummary, Observability, OpClass, PeerReport, QosReport,
    StatsReport, TraceEvent, TraceRing, TraceStats,
};
pub use qos::{Priority, QosMode, QosState};
pub use shard::ShardedMap;
pub use verify::{
    explore, fingerprint, proc_id, run_mixed, CheckOutcome, ExploreReport, HistOp, History,
    HistoryLog, Key, MixedWorkload, OpKind, SeedReport, TxnCheckOutcome, TxnHistory, TxnLog, TxnOp,
    TxnOutcome, Violation,
};

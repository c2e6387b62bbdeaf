#![warn(missing_docs)]

//! A software RNIC implementing the Verbs abstraction over an in-memory
//! InfiniBand fabric, with an explicit on-NIC SRAM model.
//!
//! This crate is the substrate the whole reproduction stands on. It
//! models, per node, a 40 Gbps ConnectX-3-class RNIC:
//!
//! * **Verbs objects** — memory regions ([`Mr`]) with `lkey`/`rkey`,
//!   queue pairs ([`Qp`], RC/UC/UD), completion queues ([`Cq`]), receive
//!   queues with posted buffers, and shared receive queues.
//! * **Operations** — one-sided `READ`/`WRITE`/`WRITE_WITH_IMM`, two-sided
//!   `SEND`/`RECV`, and `ATOMIC` fetch-add / compare-and-swap, all moving
//!   real bytes through [`smem::PhysMem`].
//! * **The SRAM model** — three LRU caches with per-miss virtual-time
//!   penalties: the MR key table, the PTE cache, and the QP context cache.
//!   These caches are why native RDMA's performance collapses with many
//!   MRs (paper Fig 4), large MRs (Fig 5), and many QPs (§2.4); the LITE
//!   layer above avoids all three by registering a single *physical*
//!   global MR ([`Nic::register_phys_mr`]).
//! * **Queueing** — per-NIC request engines and link resources
//!   ([`simnet::Resource`]) through which every operation passes, so
//!   throughput saturation and multi-thread contention emerge naturally.
//! * **One cost model** — every NIC and link charges the constants of
//!   [`COST`], calibrated against the paper's testbed; no fabric, NIC or
//!   caller picks other numbers.
//!
//! One-sided operations are executed by the *requester's* thread directly
//! against the target node's memory — the remote CPU is never involved,
//! exactly like the hardware. Two-sided operations deposit a completion
//! (with its virtual arrival stamp) in the remote CQ, where a remote
//! software thread polls it out.

pub mod cost;
pub mod cq;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod nic;
pub mod qp;
pub mod verbs;

pub use cost::{CostModel, COST};
pub use cq::Cq;
pub use error::{VerbsError, VerbsResult};
pub use fabric::{IbConfig, IbFabric, NodeId};
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultStats};
pub use nic::{Mr, Nic, NicStats, Wr, WrOutcome, ATOMIC_MEMO_WINDOW};
pub use qp::{Qp, QpId, QpType};
pub use verbs::{Access, RemoteAddr, Sge, SgeRef, Wc, WcOpcode};

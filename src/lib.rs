//! # lite-repro — LITE (SOSP '17) reproduced in Rust
//!
//! The root package of the workspace. It holds the integration tests
//! (`tests/`) and the walkthroughs (`examples/`), which use the component
//! crates directly:
//!
//! * `lite` — the paper's contribution: a kernel-level indirection tier
//!   virtualizing RDMA (LMRs, write-imm RPC, sync primitives, QoS).
//! * `rnic` — the simulated Verbs RNIC + InfiniBand fabric substrate,
//!   including the on-NIC SRAM model behind the paper's scalability
//!   results.
//! * `smem` / `simnet` — simulated host memory and the virtual-time
//!   queueing machinery.
//! * `transport` — TCP/IPoIB and RDMA-CM baselines.
//! * `rpc-baselines` — HERD, FaSST, and FaRM-style RPC baselines.
//! * `lite-log`, `lite-mr`, `lite-graph`, `lite-dsm` — the four
//!   datacenter applications of §8 plus their comparison systems.
//! * `lite-txn`, `lite-kv` — OCC transactions and a replicated KV service
//!   built on the same API.
//!
//! The `bench` crate holds the per-figure reproduction harnesses.

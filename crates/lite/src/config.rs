//! LITE configuration, including the ablation switches called out in
//! DESIGN.md §5.

use simnet::Nanos;

/// Tunables of the LITE kernel module.
#[derive(Debug, Clone)]
pub struct LiteConfig {
    /// K, the number of shared RC QPs per peer node (§6.1: LITE uses K×N
    /// QPs per node; 1..=4 measured best).
    pub qp_factor: usize,
    /// Size of each per-client RPC ring LMR at a server node (§5.1 uses
    /// 16 MB).
    pub rpc_ring_bytes: u64,
    /// Receive-credit pool pre-posted per QP (write-imm consumes one; its
    /// dispatch reposts it).
    pub recv_credits: usize,
    /// Maximum physically-consecutive chunk of an LMR (§4.1 splits large
    /// LMRs to avoid external fragmentation).
    pub max_lmr_chunk: u64,
    /// Liveness bound on any blocking LITE call, in host wall time.
    pub op_timeout: std::time::Duration,

    // ---- scale-out (DESIGN.md §12 "Sharded kernel state") ----
    /// Shard count for the kernel's hot tables (lh entries, master
    /// records, names, locks, barriers, RPC slots/queues). Rounded up to
    /// a power of two, minimum 1. More shards = less lock contention
    /// between unrelated keys; 16 is plenty up to thousands of contexts.
    pub kernel_shards: usize,

    // ---- fault recovery (DESIGN.md "Fault model & recovery") ----
    /// `false` disables the kernel recovery layer: datapath ops fail on
    /// the first transport fault instead of being retried, broken QPs
    /// are never re-established, and peers are never declared dead.
    pub retry_enabled: bool,
    /// Initial retry backoff (virtual time); doubles per failed attempt.
    pub retry_base_ns: Nanos,
    /// Consecutive deadline-exhausted ops towards one peer after which
    /// the peer is declared dead; subsequent ops fail fast with
    /// [`crate::LiteError::PeerDead`] until incoming traffic or a probe
    /// revives it.
    pub peer_dead_threshold: u32,

    // ---- observability (DESIGN.md "Observability") ----
    /// Record 1 in `stats_sample_rate` op latencies into the kernel
    /// histograms (and their posted/completed trace events). Lifecycle
    /// *error* events — retried, reconnected, failed — are always
    /// recorded regardless of the rate, so recovery accounting stays
    /// exact. 1 (the default) records everything; recording costs host
    /// cycles only and never advances virtual clocks.
    pub stats_sample_rate: u32,
    /// Capacity of the per-node op-lifecycle trace ring, in events
    /// (rounded up to a power of two, minimum 64). Oldest events are
    /// evicted once full.
    pub trace_ring_slots: usize,

    // ---- memory tiering (DESIGN.md §11 "Memory tiering") ----
    /// Per-node physical-memory budget for LMR chunks, in bytes. When the
    /// resident bytes of locally-mastered LMRs exceed the budget, the
    /// [`crate::mm`] manager evicts cold chunks to swap nodes over the
    /// datapath, before the `lt_malloc` or `lt_move` that went over the
    /// budget returns. 0 (the default) disables tiering entirely: nothing is
    /// tracked or evicted — the ablation baseline.
    pub mem_budget_bytes: u64,
    /// Pin-free on-demand registration (DESIGN.md §13). `false` (the
    /// default) pins every LMR page up front, so registration cost
    /// scales with size (the paper's Fig 8 malloc line). `true` defers
    /// pinning to first touch at the datapath — O(1) registration, a
    /// one-time page-fault penalty per touched page, and an unpinner that
    /// releases pages cold for a full epoch ([`crate::mm::EPOCH_NS`] of
    /// virtual time).
    pub lazy_pinning: bool,

    // ---- ablation switches ----
    /// `false` reverts §5.2's crossing optimizations: every RPC pays
    /// 3 syscalls / 6 crossings instead of 2 crossings.
    pub fast_syscalls: bool,
    /// `false` makes the shared poller and user waiters burn CPU
    /// for their whole wait (no adaptive sleep) — the Fig 13 ablation.
    pub adaptive_poll: bool,
    /// `false` disables doorbell-batched posting: chains handed to
    /// `RnicDataPath::post_many` degrade to one host post + QP-context touch
    /// per work request instead of one per chain.
    pub batch_posting: bool,
}

impl Default for LiteConfig {
    fn default() -> Self {
        LiteConfig {
            qp_factor: 2,
            rpc_ring_bytes: 16 << 20,
            recv_credits: 4_096,
            max_lmr_chunk: 4 << 20,
            op_timeout: std::time::Duration::from_secs(5),
            kernel_shards: 16,
            retry_enabled: true,
            retry_base_ns: 2_000,
            peer_dead_threshold: 3,
            stats_sample_rate: 1,
            trace_ring_slots: 4_096,
            mem_budget_bytes: 0,
            lazy_pinning: false,
            fast_syscalls: true,
            adaptive_poll: true,
            batch_posting: true,
        }
    }
}

impl LiteConfig {
    /// Config with a given QP sharing factor.
    pub fn with_qp_factor(k: usize) -> Self {
        LiteConfig {
            qp_factor: k,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LiteConfig::default();
        assert_eq!(c.rpc_ring_bytes, 16 << 20);
        assert_eq!(c.max_lmr_chunk, 4 << 20);
        assert!((1..=4).contains(&c.qp_factor));
        // Two crossings ≈ 0.17 µs.
        assert_eq!(2 * crate::api::SYSCALL_CROSSING_NS, 170);
    }
}

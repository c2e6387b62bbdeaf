//! The RNIC/fabric cost model.
//!
//! Every constant is calibrated against a number the paper reports for its
//! testbed (two-socket Xeon E5-2620, 40 Gbps ConnectX-3, one IB switch) or
//! against well-known ConnectX-3 characteristics. The *shapes* of the
//! reproduced figures come from the model's structure (caches, queues),
//! not from these constants; the constants only pin the axes.
//!
//! There is one model, [`COST`]: every NIC and link of every fabric runs
//! on it, and no caller picks another.

use simnet::Nanos;

/// Cost/capacity parameters of the simulated RNIC + fabric; [`COST`] is
/// the only value (`non_exhaustive`: no other crate can build one).
#[derive(Debug)]
#[non_exhaustive]
pub struct CostModel {
    // ---- software/NIC interface ----
    /// CPU cost to build and ring a work request (doorbell, WQE write).
    pub post_wr_ns: Nanos,
    /// CPU cost of one completion-queue poll that returns an entry.
    pub cq_poll_ns: Nanos,
    /// CPU cost of one empty completion-queue poll.
    pub cq_poll_empty_ns: Nanos,

    // ---- NIC request engines ----
    /// Per-WQE service time on the NIC request engine (pipelined rate:
    /// ~5.5 M small verbs/s, matching Fig 5's flat-region throughput).
    pub nic_engine_ns: Nanos,
    /// Extra engine service for two-sided receive handling.
    pub recv_handle_ns: Nanos,
    /// Extra engine service for an atomic (fetch-add / cmp-swap) —
    /// read-modify-write through the PCIe root complex.
    pub atomic_extra_ns: Nanos,

    // ---- fabric ----
    /// One-way propagation + switch traversal.
    pub propagation_ns: Nanos,
    /// Effective data bandwidth of a node's link (40 Gbps minus framing;
    /// the paper's peak measured ~3.9 GB/s).
    pub link_bytes_per_sec: u64,
    /// Acknowledgement / completion return path cost.
    pub ack_ns: Nanos,

    // ---- on-NIC SRAM: the scalability model ----
    /// MR key-table capacity (entries). The paper observes degradation
    /// beyond ~100 MRs.
    pub mr_cache_entries: usize,
    /// Penalty per MR-key miss (fetch from host memory over PCIe).
    pub mr_miss_ns: Nanos,
    /// PTE cache capacity in *pages*. 1024 pages = 4 MB reach, where the
    /// paper's Fig 5 cliff begins.
    pub pte_cache_entries: usize,
    /// Penalty per PTE miss.
    pub pte_miss_ns: Nanos,
    /// QP context cache capacity (QPs).
    pub qp_cache_entries: usize,
    /// Penalty per QP-context miss.
    pub qp_miss_ns: Nanos,

    // ---- registration (host-side, Fig 8) ----
    /// Fixed cost of `ibv_reg_mr` bookkeeping.
    pub reg_mr_base_ns: Nanos,
    /// Per-page pin cost during registration (get_user_pages).
    pub pin_page_ns: Nanos,
    /// Fixed cost of `ibv_dereg_mr`.
    pub dereg_mr_base_ns: Nanos,
    /// Per-page unpin cost during deregistration.
    pub unpin_page_ns: Nanos,
    /// First-touch page-fault service for a page LITE registered without
    /// pinning (`lite::mm`'s lazy segments): the host pins the page on
    /// the datapath's first touch. Much dearer than a register-time pin,
    /// which is the eager-vs-lazy tradeoff.
    pub fault_page_ns: Nanos,

    // ---- memory ----
    /// Host memcpy bandwidth (user<->kernel moves, local memcpy).
    pub memcpy_bytes_per_sec: u64,

    // ---- UD specifics ----
    /// Extra per-message cost of UD (address handle resolution, GRH).
    pub ud_extra_ns: Nanos,
    /// Maximum UD payload (one MTU; no fragmentation in UD).
    pub ud_max_payload: usize,
}

/// The calibrated model every NIC and link uses.
pub const COST: CostModel = CostModel {
    post_wr_ns: 100,
    cq_poll_ns: 150,
    cq_poll_empty_ns: 60,
    nic_engine_ns: 180,
    recv_handle_ns: 200,
    atomic_extra_ns: 900,
    propagation_ns: 450,
    link_bytes_per_sec: 3_900_000_000,
    ack_ns: 350,
    mr_cache_entries: 128,
    mr_miss_ns: 1_100,
    pte_cache_entries: 1_024,
    pte_miss_ns: 900,
    qp_cache_entries: 256,
    qp_miss_ns: 700,
    reg_mr_base_ns: 5_000,
    pin_page_ns: 350,
    dereg_mr_base_ns: 3_000,
    unpin_page_ns: 250,
    fault_page_ns: 1_800,
    memcpy_bytes_per_sec: 10_000_000_000,
    ud_extra_ns: 150,
    ud_max_payload: 4_096,
};

impl CostModel {
    /// Transfer time of `bytes` on the link.
    #[inline]
    pub fn link_time(&self, bytes: u64) -> Nanos {
        simnet::transfer_time(bytes, self.link_bytes_per_sec)
    }

    /// Host memcpy time for `bytes`.
    #[inline]
    pub fn memcpy_time(&self, bytes: u64) -> Nanos {
        simnet::transfer_time(bytes, self.memcpy_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latency_budget_matches_paper() {
        // A small one-sided write should come out around 1.2-1.7 us:
        // post + engine + link + propagation + remote engine + ack.
        let c = COST;
        let small = c.post_wr_ns
            + c.nic_engine_ns
            + c.link_time(64)
            + c.propagation_ns
            + c.nic_engine_ns
            + c.propagation_ns
            + c.ack_ns
            + c.cq_poll_ns;
        assert!(
            (1_200..=1_900).contains(&small),
            "64B write path = {small} ns"
        );
        // PTE reach = 4 MB.
        assert_eq!(c.pte_cache_entries * 4096, 4 << 20);
    }

    #[test]
    fn link_time_is_sane() {
        let c = COST;
        // 4 KB at ~3.9 GB/s ≈ 1.05 us.
        let t = c.link_time(4096);
        assert!((900..=1200).contains(&t), "4KB link time = {t}");
    }
}

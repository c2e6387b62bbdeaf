//! Benchmark harnesses reproducing every table and figure of the LITE
//! paper's evaluation.
//!
//! Each `figs::figNN` module regenerates one figure: it builds the
//! workload the paper describes, runs it over the simulated substrate,
//! and returns the same rows/series the paper plots. The `reproduce`
//! binary runs everything in [`FIGURES`] and prints a report, or only
//! the figures named on its command line (`reproduce fig04 fig06`).
//! Pass `--full` for paper-scale parameters (default is a quick mode
//! suitable for CI).
//!
//! Absolute numbers come from a calibrated cost model (see
//! [`rnic::COST`] and DESIGN.md §2); the claims under test are the
//! *shapes*: who wins, by what factor, and where the cliffs fall.
//!
//! A figure's concurrent clients are contexts that one host thread steps
//! lowest virtual clock first ([`drive()`]), so a figure that runs no
//! thread of its own prints the same rows on every run. RPC servers run
//! on that thread too: a LITE server is a served function, run inside
//! its caller's `lt_rpc`, and a baseline's server steps there as well (a
//! context of the loop where several clients call). OS threads are left where contexts block on one another — §7.2's
//! contended lock and barrier, Fig 7's RDMA-CM and TCP senders and
//! receivers, Fig 15's graph half with its background writers, the
//! `scale` and `txnbench` workers, and the applications of Figs 18 and
//! 19 — and in Fig 5's `lite_threads_64B` control column, which shows
//! what threads do to a shared QP's virtual schedule.

pub mod drive;
pub mod env;
pub mod facebook;
pub mod figs;
pub mod table;

pub use drive::drive;
pub use env::{LiteEnv, VerbsEnv};
pub use table::{print_table, Row};

/// Quick-vs-full switch parsed from CLI args.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// One entry of the report: what `reproduce <name>` runs and how its
/// table is headed.
pub struct Figure {
    /// Command-line name (`fig04`, `ablation_syscalls`, ...).
    pub name: &'static str,
    /// Table title.
    pub title: &'static str,
    /// Label of the row-key column.
    pub xlabel: &'static str,
    /// The harness; `true` asks for paper-scale parameters.
    pub run: fn(bool) -> Vec<Row>,
}

/// Every figure and table of the report, in print order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig04",
        title: "Figure 4: 64B write latency vs number of (L)MRs (us)",
        xlabel: "num_mrs",
        run: figs::micro::fig04,
    },
    Figure {
        name: "fig05",
        title: "Figure 5: write throughput vs (L)MR size (requests/us)",
        xlabel: "mr_size",
        run: figs::micro::fig05,
    },
    Figure {
        name: "fig06",
        title: "Figure 6: write latency vs request size (us)",
        xlabel: "size_bytes",
        run: figs::micro::fig06,
    },
    Figure {
        name: "fig07",
        title: "Figure 7: throughput vs write size, 1 and 8 ways (GB/s)",
        xlabel: "size",
        run: figs::micro::fig07,
    },
    Figure {
        name: "fig08",
        title: "Figure 8: (de)register and (un)map latency vs size (us)",
        xlabel: "size",
        run: figs::micro::fig08,
    },
    Figure {
        name: "fig10",
        title: "Figure 10: RPC latency vs return size (us)",
        xlabel: "ret_bytes",
        run: figs::rpc::fig10,
    },
    Figure {
        name: "fig11",
        title: "Figure 11: RPC throughput, 1 and 16 pairs (GB/s)",
        xlabel: "ret_bytes",
        run: figs::rpc::fig11,
    },
    Figure {
        name: "fig12",
        title: "Figure 12: RPC memory utilization (fraction)",
        xlabel: "scheme",
        run: figs::rpc::fig12,
    },
    Figure {
        name: "fig13",
        title: "Figure 13: CPU time per request, Facebook arrivals (us)",
        xlabel: "amplification",
        run: figs::rpc::fig13,
    },
    Figure {
        name: "fig14",
        title: "Figure 14: scalability with cluster size (requests/us)",
        xlabel: "nodes",
        run: figs::scale_qos::fig14,
    },
    Figure {
        name: "fig15",
        title: "Figure 15: QoS with real applications (normalized)",
        xlabel: "mode",
        run: figs::scale_qos::fig15,
    },
    Figure {
        name: "fig16",
        title: "Figure 16: QoS timeline, synthetic mix (GB/s per 100ms)",
        xlabel: "time",
        run: figs::scale_qos::fig16,
    },
    Figure {
        name: "fig17",
        title: "Figure 17: LITE memory-op latency vs size (us)",
        xlabel: "size",
        run: figs::micro::fig17,
    },
    Figure {
        name: "fig18",
        title: "Figure 18: MapReduce WordCount run time (s)",
        xlabel: "system",
        run: figs::apps::fig18,
    },
    Figure {
        name: "fig19",
        title: "Figure 19: PageRank run time (s)",
        xlabel: "cluster",
        run: figs::apps::fig19,
    },
    Figure {
        name: "sync_bench",
        title: "Section 7.2: lock and barrier latency (us)",
        xlabel: "case",
        run: figs::apps::sync_bench,
    },
    Figure {
        name: "app_log",
        title: "Section 8.1: LITE-Log commit throughput",
        xlabel: "writers",
        run: figs::apps::app_log,
    },
    Figure {
        name: "app_dsm",
        title: "Section 8.4: LITE-DSM microbenchmarks (us)",
        xlabel: "op",
        run: figs::apps::app_dsm,
    },
    Figure {
        name: "ablation_global_mr",
        title: "Ablation: global physical MR vs virtual MR",
        xlabel: "workload",
        run: figs::ablation::ablation_global_mr,
    },
    Figure {
        name: "ablation_syscalls",
        title: "Ablation: syscall crossing + polling optimizations",
        xlabel: "variant",
        run: figs::ablation::ablation_syscalls,
    },
    Figure {
        name: "ablation_qp_factor",
        title: "Ablation: QP sharing factor K",
        xlabel: "K",
        run: figs::ablation::ablation_qp_factor,
    },
    Figure {
        name: "ablation_chunking",
        title: "Ablation: chunked LMR allocation",
        xlabel: "policy",
        run: figs::ablation::ablation_chunking,
    },
    Figure {
        name: "ablation_batch_posting",
        title: "Ablation: doorbell-batched posting",
        xlabel: "posting",
        run: figs::ablation::ablation_batch_posting,
    },
];

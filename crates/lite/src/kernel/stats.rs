//! Kernel statistics: the counters of the paths that are not per verb,
//! and the aggregate snapshot handed to benchmarks.
//!
//! # Snapshot consistency contract
//!
//! `lt_writes`, `lt_reads` and `lt_bytes` are counted per verb in the
//! ledgers of the posting contexts (`crate::observe`) and folded in by
//! `LiteKernel::stats`. Each ledger is read at an op boundary, so every
//! byte in a snapshot belongs to an op the snapshot counts, and a
//! quiesced snapshot is exact. The counters here are monotonic relaxed
//! atomics with no ordering relative to one another: each is counted
//! once per RPC, transaction, KV op or fault, never per verb.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate kernel statistics.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// RPC requests dispatched by the poller.
    pub rpc_dispatched: u64,
    /// One-sided writes issued through LITE.
    pub lt_writes: u64,
    /// One-sided reads issued through LITE.
    pub lt_reads: u64,
    /// Bytes moved by LITE one-sided ops.
    pub lt_bytes: u64,
    /// Total RC QPs this kernel created (K × (N-1)).
    pub qps: usize,
    /// Datapath attempts repeated by the recovery layer (backoff retries
    /// plus post-reconnect replays).
    pub retries: u64,
    /// Broken shared QPs this node tore down and re-established.
    pub qp_reconnects: u64,
    /// Peers this node's liveness monitor declared dead.
    pub peers_marked_dead: u64,
    /// Datapath ops that failed after recovery gave up (deadline
    /// exhausted, dead peer, or a non-retryable fault).
    pub ops_failed: u64,
    /// Cleanup paths that failed (allocation rollback, handle teardown)
    /// — previously swallowed with `let _ = ...`; each one is a leaked
    /// remote chunk or scratch region.
    pub cleanup_failures: u64,
    /// Lock-word unwinds: failed acquires that rolled their `fetch_add`
    /// back, keeping the lock word consistent under faults.
    pub lock_unwinds: u64,
    /// Lock fault paths that could not restore consistency (abort
    /// unreachable, unwind failed, or a release grant undeliverable) —
    /// the lock involved should be considered poisoned.
    pub sync_leaks: u64,
    /// OCC transactions committed through this node (reported by the
    /// `lite-txn` layer via [`crate::LiteKernel::note_txn_commit`]).
    pub txn_commits: u64,
    /// OCC transactions aborted (lock conflict, validation failure,
    /// explicit abort, or indeterminate outcome).
    pub txn_aborts: u64,
    /// The subset of aborts caused by read-set validation failure —
    /// the OCC conflict signal proper.
    pub txn_validation_fails: u64,
    /// KV writes applied by a `lite-kv` replica on this node (reported
    /// by the service layer via [`crate::LiteKernel::note_kv_put`]).
    pub kv_puts: u64,
    /// KV reads served by a `lite-kv` replica on this node.
    pub kv_gets: u64,
    /// Current replication lag of the `lite-kv` leader on this node:
    /// committed writes minus the slowest follower's acknowledged seq.
    /// A gauge (last stored value), not a monotonic counter.
    pub kv_replication_lag: u64,
    /// Host-wall nanoseconds this node's bring-up (`LiteKernel::boot`)
    /// took.
    pub boot_ns: u64,
    /// Host-wall nanoseconds spent wiring peer pairs lazily (shared QP
    /// pools + RPC rings) after boot.
    pub mesh_ns: u64,
    /// Peer pairs this node wired on first use (incremental membership).
    pub lazy_connects: u64,
    /// Times a client found an RPC ring full and pulled the server's
    /// head cell — a caller stalled for ring space.
    pub ring_pulls: u64,
}

/// The kernel's live counters (relaxed atomics; snapshot via
/// [`KernelCounters::snapshot`]).
#[derive(Debug, Default)]
pub(crate) struct KernelCounters {
    pub(crate) rpc: AtomicU64,
    pub(crate) cleanup_failures: AtomicU64,
    pub(crate) lock_unwinds: AtomicU64,
    pub(crate) sync_leaks: AtomicU64,
    pub(crate) txn_commits: AtomicU64,
    pub(crate) txn_aborts: AtomicU64,
    pub(crate) txn_validation_fails: AtomicU64,
    pub(crate) kv_puts: AtomicU64,
    pub(crate) kv_gets: AtomicU64,
    pub(crate) kv_replication_lag: AtomicU64,
    pub(crate) ring_pulls: AtomicU64,
}

/// Recovery-layer counters, owned by the node's datapath (the retry
/// wrapper is the only writer).
#[derive(Debug, Default)]
pub(crate) struct RetryCounters {
    pub(crate) retries: AtomicU64,
    pub(crate) qp_reconnects: AtomicU64,
    pub(crate) peers_marked_dead: AtomicU64,
    pub(crate) ops_failed: AtomicU64,
}

impl KernelCounters {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn count_rpc(&self) {
        self.rpc.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_cleanup_failure(&self) {
        self.cleanup_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_lock_unwind(&self) {
        self.lock_unwinds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_sync_leak(&self) {
        self.sync_leaks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_txn_commit(&self) {
        self.txn_commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_txn_abort(&self, validation_fail: bool) {
        self.txn_aborts.fetch_add(1, Ordering::Relaxed);
        if validation_fail {
            self.txn_validation_fails.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_kv_put(&self) {
        self.kv_puts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_kv_get(&self) {
        self.kv_gets.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_ring_pull(&self) {
        self.ring_pulls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_kv_replication_lag(&self, lag: u64) {
        self.kv_replication_lag.store(lag, Ordering::Relaxed);
    }

    /// Snapshot with the QP count and recovery counters supplied by the
    /// kernel (which owns the pool tables and the datapath).
    pub(crate) fn snapshot(&self, qps: usize, retry: &RetryCounters) -> KernelStats {
        let r = |c: &AtomicU64| c.load(Ordering::Relaxed);
        KernelStats {
            rpc_dispatched: r(&self.rpc),
            qps,
            retries: r(&retry.retries),
            qp_reconnects: r(&retry.qp_reconnects),
            peers_marked_dead: r(&retry.peers_marked_dead),
            ops_failed: r(&retry.ops_failed),
            cleanup_failures: r(&self.cleanup_failures),
            lock_unwinds: r(&self.lock_unwinds),
            sync_leaks: r(&self.sync_leaks),
            txn_commits: r(&self.txn_commits),
            txn_aborts: r(&self.txn_aborts),
            txn_validation_fails: r(&self.txn_validation_fails),
            kv_puts: r(&self.kv_puts),
            kv_gets: r(&self.kv_gets),
            kv_replication_lag: r(&self.kv_replication_lag),
            ring_pulls: r(&self.ring_pulls),
            // Counted in the contexts' ledgers or owned by the
            // kernel/datapath; folded in by `LiteKernel::stats` after
            // this snapshot.
            lt_writes: 0,
            lt_reads: 0,
            lt_bytes: 0,
            boot_ns: 0,
            mesh_ns: 0,
            lazy_connects: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot() {
        let c = KernelCounters::new();
        c.count_rpc();
        c.count_cleanup_failure();
        c.count_lock_unwind();
        c.count_sync_leak();
        c.count_txn_commit();
        c.count_txn_abort(true);
        c.count_txn_abort(false);
        c.count_kv_put();
        c.count_kv_put();
        c.count_kv_get();
        c.set_kv_replication_lag(9);
        c.set_kv_replication_lag(4);
        let s = c.snapshot(6, &RetryCounters::default());
        assert_eq!(s.rpc_dispatched, 1);
        assert_eq!(s.qps, 6);
        assert_eq!(s.retries, 0);
        assert_eq!(s.cleanup_failures, 1);
        assert_eq!(s.lock_unwinds, 1);
        assert_eq!(s.sync_leaks, 1);
        assert_eq!(s.txn_commits, 1);
        assert_eq!(s.txn_aborts, 2);
        assert_eq!(s.txn_validation_fails, 1);
        assert_eq!(s.kv_puts, 2);
        assert_eq!(s.kv_gets, 1);
        // The lag is a gauge: the last stored value wins.
        assert_eq!(s.kv_replication_lag, 4);
    }

    #[test]
    fn retry_counters_fold_into_snapshot() {
        let c = KernelCounters::new();
        let r = RetryCounters::default();
        r.retries.fetch_add(4, Ordering::Relaxed);
        r.qp_reconnects.fetch_add(1, Ordering::Relaxed);
        r.peers_marked_dead.fetch_add(2, Ordering::Relaxed);
        r.ops_failed.fetch_add(3, Ordering::Relaxed);
        let s = c.snapshot(0, &r);
        assert_eq!(s.retries, 4);
        assert_eq!(s.qp_reconnects, 1);
        assert_eq!(s.peers_marked_dead, 2);
        assert_eq!(s.ops_failed, 3);
    }
}

#![warn(missing_docs)]

//! lite-txn: optimistic (OCC) transactions over LITE LMRs.
//!
//! Everything here is built purely on the public `lt_*` API — one-sided
//! reads, `lt_cmp_swap`, and `lt_chain` (ordered writes and atomics
//! behind one doorbell) — exactly the way a LITE application
//! would build it (paper §8: LITE's indirection makes one-sided
//! primitives safe enough to compose into real systems).
//!
//! The OCC core is [`TxnTable`] / [`Txn`]. A table is one LMR holding
//! versioned records plus a ring of *decision slots*. `Txn::read` takes
//! version-consistent snapshots, `Txn::write` stages locally, and
//! `commit` runs lock + validate, then decide + apply + release, in two
//! blocking round trips on a decision slot the handle keeps from one
//! commit to the next, with every abort path unwinding its CAS locks.
//! Committer crashes are survivable: lock words carry leases and name
//! their decision slot, so any peer can finalize and roll the victim
//! forward or back (see the [`table`] module docs for the full
//! protocol).
//!
//! Commits and aborts are reported to the kernel's stats surface
//! (`txn_commits` / `txn_aborts` / `txn_validation_fails` in
//! `lt_stats()`), and [`TxnTable::arm_txn_log`] records whole
//! transactions for `lite::verify`'s txn-level serializability checker.

pub mod table;

pub use table::{
    with_txn_retry, CrashPoint, TableSpec, TableStats, Txn, TxnError, TxnResult, TxnTable,
};

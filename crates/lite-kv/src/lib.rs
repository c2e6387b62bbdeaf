//! `lite-kv`: a replicated KV/event-log service over LITE RPC.
//!
//! The paper validates LITE with a ten-machine memcached-style store
//! (§5.2); this crate builds the production-shaped version of that
//! experiment on top of everything the repo has grown since: writes flow
//! through a single leader that assigns a total order by committing each
//! update to a [`lite_log::LiteLog`], and any replica serves reads. The
//! leader and the followers have no threads: they are served RPC
//! functions (`lite::LiteHandle::serve_rpc`), run by whichever thread
//! delivers a call to them, so a put runs on its client's own thread.
//! Replication is the log: one replicator thread — asleep until a batch
//! is ready: 32 commits, or 1 ms since the last — tells each follower
//! that is behind how far the log is committed, and the follower reads
//! what it lacks out of the log itself, a batch to a one-sided `LT_read`,
//! the same way the paper's applications sidestep their servers' CPUs. A
//! follower that was slow, paused or crashed catches up the same way.
//!
//! So do warm reads: every value slot holds a self-verifying [`record`],
//! PUT and GET replies say where the key's slot is, and a session on a
//! node that knows reads it out of the replica's arena with one `LT_read`
//! — no server thread involved — falling back to the GET RPC only when
//! the record says so (not applied yet, torn, moved, too old for the
//! session) or the replica cannot be read. What is known is known per
//! *node*: one fixed-size location cache per (node, service), owned by
//! the node's kernel, that every reply to any session there fills and
//! every session there reads — a session opened later starts warm, and a
//! location is believed only if it lies inside the arena.
//! [`KvClient::stats`] counts, per session, which way each get went.
//!
//! Consistency is per-session: [`SessionMode::ReadYourWrites`] accepts a
//! one-sided record only if it is at least as new as the session's last
//! write, threads that sequence number through its RPC reads, and falls
//! back to the leader when a replica has not applied that far yet;
//! [`SessionMode::Eventual`] takes whatever the chosen replica has.
//! Values live in a per-replica LMR arena, so capacity overflow rides on
//! `lite::mm` tiering — hot keys stay resident, cold values spill to
//! swap nodes and fault back on access.
//!
//! The [`workload`] module is the load side of the story: an open-loop
//! (coordinated-omission-free) arrival schedule over millions of
//! simulated users with zipfian popularity, a configurable read/write
//! mix, and bursty on/off arrival — precomputed from a seed so the
//! schedule is independent of service time by construction.
//! `reproduce kvbench` (`crates/bench`) drives it and emits an SLO report.
//!
//! See DESIGN.md §15 for the replication protocol and its guarantees.

pub mod record;
mod service;
pub mod workload;

pub use service::{KvClient, KvClientStats, KvEvent, KvFallbacks, KvService, KvSpec, SessionMode};

use lite::LiteError;

/// Errors surfaced by the KV service and client.
#[derive(Debug)]
pub enum KvError {
    /// A LITE-layer failure (transport, timeout, permissions, ...).
    Lite(LiteError),
    /// The replica value arenas are full; the write was refused before
    /// entering the log, so no replica state changed.
    StoreFull,
    /// The ordering log is full (cleaner pinned by a lagging follower).
    LogFull,
    /// A reply that does not parse — protocol corruption.
    BadReply,
}

impl From<LiteError> for KvError {
    fn from(e: LiteError) -> Self {
        KvError::Lite(e)
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Lite(e) => write!(f, "lite error: {e:?}"),
            KvError::StoreFull => write!(f, "value arena full"),
            KvError::LogFull => write!(f, "ordering log full"),
            KvError::BadReply => write!(f, "malformed reply"),
        }
    }
}

impl std::error::Error for KvError {}

/// Result alias for this crate.
pub type KvResult<T> = Result<T, KvError>;

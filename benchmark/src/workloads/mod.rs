//! The seven workloads. Each builds a world (cluster, LMRs, services,
//! preload), runs fixed-size rounds of its op mix through the single
//! driver, and checks the content the product returned.

use std::sync::Arc;

use lite::LiteCluster;

use crate::driver::{Progress, Round};
use crate::gen::mix64;
use crate::trace::Tracer;

mod kv;
mod onesided;
pub mod rpc;
pub mod txn;

/// A set-up workload.
pub trait World {
    /// The cluster under test, for counter deltas.
    fn cluster(&self) -> &Arc<LiteCluster>;
    /// Runs round `round` of `ops` ops per context. Inputs are a pure
    /// function of `(seed, round)`.
    fn round(&mut self, round: u64, ops: usize, tr: &mut Tracer, pg: &Progress) -> Round;
    /// End-state content check after the last round: `(checked, failed)`.
    fn check(&mut self) -> (u64, u64);
    /// Per-layer metrics only this workload can measure.
    fn layer_metrics(&mut self, _out: &mut Vec<(&'static str, f64)>) {}
    /// Virtual CPU ns charged so far to harness-owned server threads.
    fn server_vcpu_ns(&self) -> u64 {
        0
    }
    /// Stops what the harness started and joins it.
    fn teardown(self: Box<Self>);
}

/// One workload of the suite.
pub struct Spec {
    pub name: &'static str,
    /// Why it exists: what it stresses and what it bypasses.
    pub why: &'static str,
    pub contexts: usize,
    /// Ops per context per round; fixed, so a round's virtual metrics are
    /// exact for a seed.
    pub round_ops: usize,
    /// Latency limit for `slo_attain`, virtual ns. Only `kv-open` has one;
    /// elsewhere an op misses only by failing.
    pub slo_ns: Option<u64>,
    /// Open loop (latency from due time) or closed loop.
    pub open_loop: bool,
    pub setup: fn(seed: u64) -> Box<dyn World>,
}

pub const ALL: [Spec; 7] = [
    onesided::WRITE_SMALL,
    onesided::READ_LARGE,
    rpc::RPC_ECHO,
    txn::WRITE_HEAVY,
    txn::READ_HEAVY,
    kv::CLOSED,
    kv::OPEN,
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// `mix64`-filled bytes: the content every workload writes and expects
/// back, a pure function of `tag`.
pub fn fill(tag: u64, out: &mut [u8]) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let w = word(tag, i as u64).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// Word `i` of the content tagged `tag`.
pub fn word(tag: u64, i: u64) -> u64 {
    mix64(tag ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

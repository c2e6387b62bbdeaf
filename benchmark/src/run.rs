//! Measuring one workload in this process: set-up, rounds, checks, and
//! the two metric sets (end to end untraced, per layer traced).

use std::collections::BTreeMap;
use std::time::Instant;

use lite::{LiteCluster, OpClass};

use crate::driver::{Progress, Round};
use crate::ladder;
use crate::metrics::{median, peak_rss_mb, percentile, Value, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{Spec, World};

/// An untraced run builds the world at least this many times; `setup_s` is
/// the median.
const MIN_SETUPS: usize = 3;
/// A cheap set-up is repeated, up to this often, until set-up has taken
/// this long in total: a 10 ms set-up timed three times is mostly noise.
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 0.5;
/// Virtual metrics come from the first rounds only, which every run
/// completes, so they are exact for a seed however fast the host is.
pub const V_ROUNDS: usize = 5;
/// Round index of the unmeasured warm-up that wires lazy QPs and rings.
const WARMUP_ROUND: u64 = 1 << 40;

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this many seconds have been measured (at least
    /// [`V_ROUNDS`]).
    Seconds(f64),
    /// Exactly this many rounds of this many ops per context.
    Rounds { rounds: usize, ops: usize },
}

/// Counters the product keeps, summed over nodes.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    verbs: u64,
    bytes_tx: u64,
    mr_hits: u64,
    mr_misses: u64,
    pte_hits: u64,
    pte_misses: u64,
    qp_misses: u64,
    page_faults: u64,
    rpc_dispatched: u64,
    retries: u64,
    ops_failed: u64,
    txn_commits: u64,
    txn_aborts: u64,
    txn_validation_fails: u64,
    kv_puts: u64,
    kv_gets: u64,
}

impl Counters {
    fn of(cluster: &LiteCluster) -> Self {
        let mut c = Counters::default();
        for n in 0..cluster.num_nodes() {
            let nic = cluster.fabric().nic(n).stats();
            c.verbs += nic.one_sided_ops + nic.send_ops;
            c.bytes_tx += nic.bytes_tx;
            c.mr_hits += nic.mr_hits;
            c.mr_misses += nic.mr_misses;
            c.pte_hits += nic.pte_hits;
            c.pte_misses += nic.pte_misses;
            c.qp_misses += nic.qp_misses;
            c.page_faults += nic.page_faults;
            let k = cluster.kernel(n).stats();
            c.rpc_dispatched += k.rpc_dispatched;
            c.retries += k.retries;
            c.ops_failed += k.ops_failed;
            c.txn_commits += k.txn_commits;
            c.txn_aborts += k.txn_aborts;
            c.txn_validation_fails += k.txn_validation_fails;
            c.kv_puts += k.kv_puts;
            c.kv_gets += k.kv_gets;
        }
        c
    }
}

/// What the kernel's own per-class histograms read.
#[derive(Debug, Default, Clone, Copy)]
struct ClassNs {
    write_p50: u64,
    read_p50: u64,
    atomic_p50: u64,
    rpc_p50: u64,
    rpc_p99: u64,
}

/// Everything one measured world produced.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<RoundStats>,
    pub checked: u64,
    pub check_failed: u64,
    /// `VmHWM` when the measured world had run its first `V_ROUNDS`
    /// rounds: the work every run does, however many more rounds fit.
    peak_rss_mb: f64,
    before: Counters,
    after: Counters,
    server_vcpu_ns: u64,
    /// Node 0's `lt_stats()` latency histograms, virtual ns.
    classes: ClassNs,
    extras: Vec<(&'static str, f64)>,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.ops() + self.checked
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum::<u64>() + self.check_failed
    }
}

fn build(spec: &Spec, seed: u64, pg: &Progress) -> (Box<dyn World>, f64) {
    let t = Instant::now();
    let mut world = (spec.setup)(seed);
    world.round(
        WARMUP_ROUND,
        (spec.round_ops / 16).max(1),
        &mut Tracer::off(),
        pg,
    );
    (world, t.elapsed().as_secs_f64())
}

/// Builds the world, runs rounds under `budget`, checks, tears down; with
/// `repeat_setup`, then builds it again until set-up has been timed often
/// enough for a median.
pub fn measure(
    spec: &Spec,
    seed: u64,
    budget: Budget,
    repeat_setup: bool,
    tr: &mut Tracer,
    pg: &Progress,
) -> Measured {
    let (mut world, first_setup_s) = build(spec, seed, pg);
    let before = Counters::of(world.cluster());
    let server0 = world.server_vcpu_ns();
    let ops = match budget {
        Budget::Seconds(_) => spec.round_ops,
        Budget::Rounds { ops, .. } => ops,
    };
    let t = Instant::now();
    let more = |done: usize| match budget {
        Budget::Seconds(s) => done < V_ROUNDS || t.elapsed().as_secs_f64() < s,
        Budget::Rounds { rounds, .. } => done < rounds,
    };
    let mut rounds = Vec::new();
    let mut peak_rss = None;
    while more(rounds.len()) {
        let round = world.round(rounds.len() as u64, ops, tr, pg);
        rounds.push(summarize(round, spec.slo_ns));
        if rounds.len() == V_ROUNDS {
            peak_rss = Some(peak_rss_mb());
        }
    }
    let peak_rss_mb = peak_rss.unwrap_or_else(peak_rss_mb);
    let after = Counters::of(world.cluster());
    let server_vcpu_ns = world.server_vcpu_ns() - server0;
    let stats = world.cluster().kernel(0).lt_stats();
    let class = |c: OpClass| stats.class_any_prio(c).unwrap_or_default();
    let classes = ClassNs {
        write_p50: class(OpClass::Write).p50,
        read_p50: class(OpClass::Read).p50,
        atomic_p50: class(OpClass::Atomic).p50,
        rpc_p50: class(OpClass::Rpc).p50,
        rpc_p99: class(OpClass::Rpc).p99,
    };
    let (checked, check_failed) = world.check();
    let mut extras = Vec::new();
    world.layer_metrics(&mut extras);
    world.teardown();
    let mut setup_s = vec![first_setup_s];
    let cheap = |s: &[f64]| s.len() < MAX_SETUPS && s.iter().sum::<f64>() < SETUP_BUDGET_S;
    while repeat_setup && (setup_s.len() < MIN_SETUPS || cheap(&setup_s)) {
        let (world, s) = build(spec, seed, pg);
        setup_s.push(s);
        world.teardown();
    }
    Measured {
        setup_s,
        rounds,
        checked,
        check_failed,
        peak_rss_mb,
        before,
        after,
        server_vcpu_ns,
        classes,
        extras,
    }
}

/// What is kept of a round: its sums, and its end-to-end values. The
/// per-op samples are dropped here, so memory does not grow with the
/// number of rounds a fast host fits into `--seconds`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    pub ops: u64,
    pub failed: u64,
    pub v_makespan_ns: u64,
    pub v_cpu_ns: u64,
    pub lat_sum_ns: u64,
    /// Order-sensitive hash of the per-op latencies: equal for two rounds
    /// only if every op took the same virtual time in the same order.
    pub lat_hash: u64,
    pub host_s: f64,
    /// Open loop: ops issued after their due time, ops with a due time,
    /// and the p99 of how late.
    late_ops: u64,
    due_ops: u64,
    late_p99_ns: u64,
    vtput_kops: f64,
    mean_us: f64,
    /// Mean of the slowest 1 % of ops.
    tail_us: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    vcpu_us_per_op: f64,
    /// Ops that succeeded within the workload's latency limit, if it has one.
    slo_met: u64,
    host_kops: f64,
}

fn summarize(r: Round, slo_ns: Option<u64>) -> RoundStats {
    let lat_hash = r.lat_ns.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &l| {
        (h ^ l).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let (mut lat, mut late) = (r.lat_ns, r.late_ns);
    lat.sort_unstable();
    late.sort_unstable();
    let ops = r.ops.max(1) as f64;
    let within = slo_ns.map_or(lat.len(), |slo| lat.partition_point(|&l| l <= slo)) as u64;
    let slowest = &lat[lat.len() - lat.len().div_ceil(100)..];
    let mean_us = |l: &[u64]| l.iter().sum::<u64>() as f64 / l.len().max(1) as f64 / 1e3;
    RoundStats {
        ops: r.ops,
        failed: r.failed,
        v_makespan_ns: r.v_makespan_ns,
        v_cpu_ns: r.v_cpu_ns,
        lat_sum_ns: lat.iter().sum(),
        lat_hash,
        host_s: r.host_s,
        late_ops: late.iter().filter(|&&l| l > 0).count() as u64,
        due_ops: late.len() as u64,
        late_p99_ns: percentile(&late, 99.0),
        vtput_kops: ops * 1e6 / r.v_makespan_ns.max(1) as f64,
        mean_us: mean_us(&lat),
        tail_us: mean_us(slowest),
        p50_us: percentile(&lat, 50.0) as f64 / 1e3,
        p99_us: percentile(&lat, 99.0) as f64 / 1e3,
        p999_us: percentile(&lat, 99.9) as f64 / 1e3,
        vcpu_us_per_op: r.v_cpu_ns as f64 / 1e3 / ops,
        // A failed op misses any limit (counted as if it had been in time,
        // so the share is exact with no failures and a floor with some).
        slo_met: within.saturating_sub(r.failed),
        host_kops: ops / 1e3 / r.host_s.max(1e-9),
    }
}

fn med(views: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> f64 {
    median(&views.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics, in `END_TO_END` order.
pub fn end_to_end(m: &Measured) -> Vec<Value> {
    let views = &m.rounds;
    let v = &views[..views.len().min(V_ROUNDS)];
    let values = [
        median(&m.setup_s),
        med(v, |r| r.vtput_kops),
        med(v, |r| r.mean_us),
        med(v, |r| r.tail_us),
        med(v, |r| r.vcpu_us_per_op),
        // A share of ops, not a median over rounds: no failure is dropped.
        ratio(views.iter().map(|r| r.slo_met).sum(), m.ops()),
        med(views, |r| r.host_kops),
        m.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| def.value(value))
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order: the
/// ladder (workload independent), this workload's counter deltas, and the
/// health of the measurement itself. Also returns what was measured (for
/// `correct`/`attempted`/`failed`) and the spans.
pub fn per_layer(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    pg: &Progress,
) -> (Measured, Vec<Value>, Tracer) {
    let ladder_t = Instant::now();
    let mut got: BTreeMap<String, f64> = ladder::run().0.into_iter().collect();
    let ladder_s = ladder_t.elapsed().as_secs_f64();

    // The same quarter-size round 0 on two fresh worlds, untraced then
    // traced: their virtual results must be equal, the host difference is
    // what tracing costs.
    let quarter = Budget::Rounds {
        rounds: 1,
        ops: (spec.round_ops / 4).max(1),
    };
    let plain = measure(spec, seed, quarter, false, &mut Tracer::off(), pg);
    let mut tracer = Tracer::on(spec.contexts);
    let traced = measure(spec, seed, quarter, false, &mut tracer, pg);
    let (ua, ub) = (&plain.rounds[0], &traced.rounds[0]);
    let vdelta = [
        (ua.v_makespan_ns, ub.v_makespan_ns),
        (ua.v_cpu_ns, ub.v_cpu_ns),
        (ua.lat_sum_ns, ub.lat_sum_ns),
    ]
    .iter()
    .map(|&(a, b)| a.abs_diff(b) as f64 / a.max(1) as f64)
    .fold(0.0, f64::max);

    // Full rounds on a third world for the counters, in what is left of
    // the time.
    let left = (seconds - ladder_s).max(1.0);
    let m = measure(
        spec,
        seed,
        Budget::Seconds(left),
        false,
        &mut Tracer::off(),
        pg,
    );
    let ops = m.ops();
    let d = |f: fn(&Counters) -> u64| f(&m.after) - f(&m.before);
    let views = &m.rounds;

    let mut put = |name: &str, value: f64| {
        got.insert(name.to_string(), value);
    };
    put("rnic.verbs_per_op", ratio(d(|c| c.verbs), ops));
    put("rnic.bytes_per_op", ratio(d(|c| c.bytes_tx), ops));
    let (mr_m, mr_h) = (d(|c| c.mr_misses), d(|c| c.mr_hits));
    put("rnic.mr_miss_ratio", ratio(mr_m, mr_m + mr_h));
    let (pte_m, pte_h) = (d(|c| c.pte_misses), d(|c| c.pte_hits));
    put("rnic.pte_miss_ratio", ratio(pte_m, pte_m + pte_h));
    put("rnic.qp_misses", d(|c| c.qp_misses) as f64);
    put("rnic.page_faults", d(|c| c.page_faults) as f64);
    put("lite.datapath.write.p50_ns", m.classes.write_p50 as f64);
    put("lite.datapath.read.p50_ns", m.classes.read_p50 as f64);
    put("lite.datapath.atomic.p50_ns", m.classes.atomic_p50 as f64);
    put("lite.datapath.retries", d(|c| c.retries) as f64);
    put("lite.datapath.ops_failed", d(|c| c.ops_failed) as f64);
    put("lite.rpc.dispatched", d(|c| c.rpc_dispatched) as f64);
    put("lite.rpc.p50_ns", m.classes.rpc_p50 as f64);
    put("lite.rpc.p99_ns", m.classes.rpc_p99 as f64);
    put(
        "lite.rpc.server_vcpu_ns_per_op",
        ratio(m.server_vcpu_ns, ops),
    );
    let attempts = d(|c| c.txn_commits) + d(|c| c.txn_aborts);
    put("lite-txn.abort_ratio", ratio(d(|c| c.txn_aborts), attempts));
    put(
        "lite-txn.validation_fail_ratio",
        ratio(d(|c| c.txn_validation_fails), attempts),
    );
    for name in [
        "lite-kv.get.p50_us",
        "lite-kv.get.p99_us",
        "lite-kv.put.p50_us",
        "lite-kv.put.p99_us",
        "lite-kv.replication_lag_max",
    ] {
        let measured = m.extras.iter().find(|(n, _)| *n == name);
        put(name, measured.map_or(0.0, |e| e.1));
    }
    put("lite-kv.puts", d(|c| c.kv_puts) as f64);
    put("lite-kv.gets", d(|c| c.kv_gets) as f64);
    put("harness.ops", ops as f64);
    put("harness.host_kops", med(views, |r| r.host_kops));
    put("harness.vlat_p50_us", med(views, |r| r.p50_us));
    put("harness.vlat_p99_us", med(views, |r| r.p99_us));
    put("harness.vlat_p999_us", med(views, |r| r.p999_us));
    put("harness.fail_ratio", ratio(m.failed(), m.attempted()));
    let sum = |f: fn(&RoundStats) -> u64| views.iter().map(f).sum::<u64>();
    put(
        "harness.sched_late_ratio",
        ratio(sum(|r| r.late_ops), sum(|r| r.due_ops)),
    );
    put(
        "harness.sched_late_p99_us",
        med(views, |r| r.late_p99_ns as f64 / 1e3),
    );
    put(
        "harness.trace_overhead_ratio",
        ub.host_s / ua.host_s.max(1e-9) - 1.0,
    );
    put("harness.trace_vdelta", vdelta);
    put("harness.spans", tracer.spans().len() as f64);

    let values = PER_LAYER
        .iter()
        .map(|def| match got.remove(def.name) {
            Some(value) => def.value(value),
            None => panic!("per-layer metric {} was not measured", def.name),
        })
        .collect();
    assert!(got.is_empty(), "measured but not in PER_LAYER: {got:?}");

    // The two quarter-size worlds count towards correctness too.
    let mut total = m;
    total.checked += plain.attempted() + traced.attempted();
    total.check_failed += plain.failed() + traced.failed();
    (total, values, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    /// One round of about 2 000 ops on a fresh world.
    fn miniature(name: &str, seed: u64) -> Measured {
        let spec = find(name).expect("workload exists");
        let budget = Budget::Rounds {
            rounds: 1,
            ops: 2_000 / spec.contexts,
        };
        let pg = Progress::new(spec.contexts);
        measure(spec, seed, budget, false, &mut Tracer::off(), &pg)
    }

    #[test]
    fn threadless_workloads_repeat_bit_for_bit_and_follow_the_seed() {
        for name in [
            "write-small",
            "read-large",
            "rpc-echo",
            "txn-write-heavy",
            "txn-read-heavy",
        ] {
            let (a, b, other) = (miniature(name, 7), miniature(name, 7), miniature(name, 8));
            let (ra, rb) = (&a.rounds[0], &b.rounds[0]);
            assert_eq!(a.failed() + b.failed() + other.failed(), 0, "{name}");
            assert!(ra.ops >= 1_900, "{name}");
            assert_eq!(ra.lat_hash, rb.lat_hash, "{name}");
            assert_eq!(ra.lat_sum_ns, rb.lat_sum_ns, "{name}");
            assert_eq!(ra.v_makespan_ns, rb.v_makespan_ns, "{name}");
            assert_eq!(ra.v_cpu_ns, rb.v_cpu_ns, "{name}");
            assert_ne!(ra.lat_hash, other.rounds[0].lat_hash, "{name}");
        }
    }

    #[test]
    fn an_op_meets_its_slo_by_succeeding_and_being_in_time() {
        let round = |failed| Round {
            ops: 4,
            failed,
            lat_ns: vec![40, 10, 30, 20],
            ..Round::default()
        };
        // No latency limit: only a failure misses.
        assert_eq!(summarize(round(0), None).slo_met, 4);
        assert_eq!(summarize(round(1), None).slo_met, 3);
        assert_eq!(summarize(round(0), Some(30)).slo_met, 3);
        assert_eq!(summarize(round(1), Some(30)).slo_met, 2);
    }

    #[test]
    fn kv_miniatures_pass_every_content_check() {
        for name in ["kv-closed", "kv-open"] {
            let m = miniature(name, 7);
            assert_eq!(m.rounds[0].ops, 2_000, "{name}");
            assert!(m.checked > 0, "{name}");
            assert_eq!(m.failed(), 0, "{name}");
        }
        // Open loop: every op has a due time and a lateness sample.
        assert_eq!(miniature("kv-open", 7).rounds[0].due_ops, 2_000);
    }

    #[test]
    fn tracing_leaves_virtual_results_alone() {
        let spec = find("txn-write-heavy").expect("workload exists");
        let budget = Budget::Rounds {
            rounds: 1,
            ops: 200,
        };
        let pg = Progress::new(spec.contexts);
        let plain = measure(spec, 3, budget, false, &mut Tracer::off(), &pg);
        let mut tracer = Tracer::on(spec.contexts);
        let traced = measure(spec, 3, budget, false, &mut tracer, &pg);
        assert_eq!(plain.rounds[0].lat_hash, traced.rounds[0].lat_hash);
        // One op span per transaction, and at least three calls under it.
        let ops = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(ops as u64, traced.rounds[0].ops);
        assert!(tracer.spans().len() >= 4 * ops);
    }
}

//! kvbench: the lite-kv SLO harness — an open-loop "millions of users"
//! load against the replicated KV service, reported per QoS mode.
//!
//! Shape: a 5-node cluster (leader on 1, followers on 2 and 3 with 3 a
//! deliberately slow consumer, clients on 0 and 4). Two clients, stepped
//! in arrival order on one thread ([`drive()`]), replay one
//! precomputed zipfian schedule (1M-user popularity, 90/10 read/write,
//! bursty on/off arrival) at three offered load points, under both QoS
//! modes. Reads run at `Priority::High`, writes at
//! `Priority::Low`, so the kernel's per-class × per-priority histograms
//! separate the two populations.
//!
//! Latency is open-loop: measured from each op's *scheduled* arrival on
//! the virtual clock, so backlog at an overloaded service shows up as
//! queueing delay instead of silently thinning the offered load
//! (coordinated omission). The report gives exact harness-side
//! percentiles per op class, SLO attainment against fixed targets (the
//! last row), and the peak replication lag the slow follower produced.

use lite::{LiteCluster, Priority, QosMode};
use lite_kv::workload::{exact_percentile, WorkloadSpec};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use simnet::{Ctx, Nanos};

use crate::drive;
use crate::table::Row;

/// Client nodes; leader and followers sit between them.
const CLIENTS: [usize; 2] = [0, 4];
const LEADER: usize = 1;
const FOLLOWERS: [usize; 2] = [2, 3];
/// Virtual ns of apply cost per record on the slow follower.
const SLOW_APPLY_NS: u64 = 20_000;

/// SLO targets (open-loop, scheduled-arrival to completion).
const SLO_GET_NS: Nanos = 150_000; // 150 us
const SLO_PUT_NS: Nanos = 300_000; // 300 us

/// One op class's harness-side summary.
struct ClassSummary {
    p50: Nanos,
    p99: Nanos,
    p999: Nanos,
    attainment: f64,
}

fn summarize(lats: &[Nanos], slo: Nanos) -> ClassSummary {
    let under = lats.iter().filter(|&&l| l <= slo).count();
    ClassSummary {
        p50: exact_percentile(lats, 50.0),
        p99: exact_percentile(lats, 99.0),
        p999: exact_percentile(lats, 99.9),
        attainment: under as f64 / lats.len().max(1) as f64,
    }
}

struct RunResult {
    gets: ClassSummary,
    puts: ClassSummary,
    max_lag: u64,
}

/// One load point under one QoS mode: fresh cluster, fresh service,
/// both clients replaying the shared schedule.
fn run(mode: QosMode, rate: f64, ops: usize) -> RunResult {
    let cluster = LiteCluster::start(5).unwrap();
    cluster.set_qos_mode(mode);
    let mut spec = KvSpec::new("kvbench", LEADER, &FOLLOWERS);
    spec.log_capacity = 16 << 20;
    spec.arena_bytes = 4 << 20;
    spec.slow_followers = vec![(FOLLOWERS[1], SLOW_APPLY_NS)];
    let svc = KvService::spawn(&cluster, spec.clone());

    let workload = WorkloadSpec {
        rate_ops_per_sec: rate,
        ops,
        // Bursty on/off arrival: 200 us bursts with 100 us gaps.
        burst_on_ns: 200_000,
        burst_off_ns: 100_000,
        ..WorkloadSpec::default()
    };
    let schedule = workload.schedule();

    // Client t owns every other op, starting at op t; arrival times stay
    // global, and each op waits for its arrival.
    let mut clients: Vec<_> = CLIENTS
        .iter()
        .enumerate()
        .map(|(t, &node)| {
            let c = KvClient::connect(&cluster, node, &spec, SessionMode::Eventual).unwrap();
            (Ctx::new(), (c, t))
        })
        .collect();
    let mut get_lats = Vec::new();
    let mut put_lats = Vec::new();
    let mut max_lag = 0u64;
    drive(
        &mut clients,
        |_, (_, i)| schedule.get(*i).map(|op| op.at),
        |ctx, (c, i)| {
            let op = &schedule[*i];
            let key = WorkloadSpec::key_of(op.user);
            if op.is_read {
                c.set_priority(Priority::High);
                c.get(ctx, &key).unwrap_or_else(|e| panic!("get {i}: {e}"));
                get_lats.push(ctx.now() - op.at);
            } else {
                c.set_priority(Priority::Low);
                let value = format!("v{:06}@{i}", op.user % 1_000_000);
                c.put(ctx, &key, value.as_bytes())
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
                put_lats.push(ctx.now() - op.at);
            }
            // The slow consumer's instantaneous lag (in records),
            // sampled behind every op — two atomic loads.
            let gap = svc
                .committed_seq()
                .saturating_sub(svc.applied_seq(FOLLOWERS[1]));
            max_lag = max_lag.max(gap);
            *i += CLIENTS.len();
        },
    );
    svc.stop();
    RunResult {
        gets: summarize(&get_lats, SLO_GET_NS),
        puts: summarize(&put_lats, SLO_PUT_NS),
        max_lag,
    }
}

/// Both QoS modes at three offered loads, then a `slo_target` row with
/// the SLOs in the p999 columns. Gate: at the lowest load the service
/// meets its read SLO for at least 90 % of gets in every QoS mode.
pub fn kvbench(full: bool) -> Vec<Row> {
    let ops = if full { 6_000 } else { 1_200 };
    // Offered load points (ops/s on the virtual clock, during bursts).
    let rates: &[f64] = &[20_000.0, 50_000.0, 100_000.0];
    let modes: &[(&str, QosMode)] = &[("hw_sep", QosMode::HwSep), ("sw_pri", QosMode::SwPri)];

    let mut rows = Vec::new();
    for &(mode_name, mode) in modes {
        for (li, &rate) in rates.iter().enumerate() {
            let r = run(mode, rate, ops);
            assert!(
                li > 0 || r.gets.attainment >= 0.9,
                "{mode_name}: read SLO attainment {:.3} < 0.9 at the lowest load point",
                r.gets.attainment
            );
            rows.push(
                Row::new(format!("{mode_name}/{:.0}k", rate / 1e3))
                    .cell("get_p50_us", r.gets.p50 as f64 / 1e3)
                    .cell("get_p99_us", r.gets.p99 as f64 / 1e3)
                    .cell("get_p999_us", r.gets.p999 as f64 / 1e3)
                    .cell("put_p999_us", r.puts.p999 as f64 / 1e3)
                    .cell("get_slo", r.gets.attainment)
                    .cell("put_slo", r.puts.attainment)
                    .cell("max_lag", r.max_lag as f64),
            );
        }
    }
    rows.push(
        Row::new("slo_target")
            .cell("get_p999_us", SLO_GET_NS as f64 / 1e3)
            .cell("put_p999_us", SLO_PUT_NS as f64 / 1e3),
    );
    rows
}

//! kvbench: the lite-kv SLO harness — an open-loop "millions of users"
//! load against the replicated KV service, reported per QoS mode.
//!
//! Shape: a 5-node cluster (leader on 1, followers on 2 and 3 with 3 a
//! deliberately slow consumer, clients on 0 and 4). Two clients, stepped
//! in arrival order on one thread ([`bench::drive`]), replay one
//! precomputed zipfian schedule (1M-user popularity, 90/10 read/write,
//! bursty on/off arrival) at three offered load points, under both QoS
//! modes. Reads run at `Priority::High`, writes at
//! `Priority::Low`, so the kernel's per-class × per-priority histograms
//! separate the two populations.
//!
//! Latency is open-loop: measured from each op's *scheduled* arrival on
//! the virtual clock, so backlog at an overloaded service shows up as
//! queueing delay instead of silently thinning the offered load
//! (coordinated omission). The report combines exact harness-side
//! percentiles (p50/p99/p999 per op class), kernel `lt_stats` RPC
//! summaries, SLO attainment against fixed targets, and the peak
//! replication lag the slow follower produced.
//!
//! Usage: `kvbench [--full] [--json [path]]` — `--json` emits one JSON
//! document (the CI artifact) to `path` or stdout.

use bench::{drive, print_table, Row};
use lite::{LiteCluster, Priority, QosMode};
use lite_kv::workload::{exact_percentile, WorkloadSpec};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use simnet::{Ctx, Nanos};

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
    count: usize,
    p50: Nanos,
    p99: Nanos,
    p999: Nanos,
    attainment: f64,
}

fn summarize(lats: &[Nanos], slo: Nanos) -> ClassSummary {
    let under = lats.iter().filter(|&&l| l <= slo).count();
    ClassSummary {
        count: lats.len(),
        p50: exact_percentile(lats, 50.0),
        p99: exact_percentile(lats, 99.0),
        p999: exact_percentile(lats, 99.9),
        attainment: under as f64 / lats.len().max(1) as f64,
    }
}

impl ClassSummary {
    fn json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"slo_attainment\":{:.4}}}",
            self.count, self.p50, self.p99, self.p999, self.attainment
        )
    }
}

struct RunResult {
    gets: ClassSummary,
    puts: ClassSummary,
    max_lag: u64,
    kernel_rpc_high_p999: Nanos,
    kernel_rpc_low_p999: Nanos,
    kv_puts: u64,
    kv_gets: u64,
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

    // Kernel-side view: the clients' RPC histograms split by priority
    // (gets that took the RPC path high, puts low) and the service gauges
    // — puts count on the leader, a get where it was served: on a replica
    // by RPC, on the client's own node by a one-sided read.
    let client_stats = cluster.attach(CLIENTS[0]).unwrap().lt_stats();
    let rpc_p999 = |prio| {
        client_stats
            .class(lite::OpClass::Rpc, prio)
            .map_or(0, |s| s.p999)
    };
    let kv_gets = (0..cluster.num_nodes()).map(|n| cluster.kernel(n).stats().kv_gets);
    let result = RunResult {
        gets: summarize(&get_lats, SLO_GET_NS),
        puts: summarize(&put_lats, SLO_PUT_NS),
        max_lag,
        kernel_rpc_high_p999: rpc_p999(Priority::High),
        kernel_rpc_low_p999: rpc_p999(Priority::Low),
        kv_puts: cluster.kernel(LEADER).stats().kv_puts,
        kv_gets: kv_gets.sum(),
    };
    svc.stop();
    result
}

fn main() {
    let full = bench::full_mode();
    let args: Vec<String> = std::env::args().collect();
    let json_at = args.iter().position(|a| a == "--json");
    let json_path = json_at.and_then(|i| args.get(i + 1)).cloned();

    let ops = if full { 6_000 } else { 1_200 };
    // Offered load points (ops/s on the virtual clock, during bursts).
    let rates: &[f64] = &[20_000.0, 50_000.0, 100_000.0];
    let modes: &[(&str, QosMode)] = &[("hw_sep", QosMode::HwSep), ("sw_pri", QosMode::SwPri)];

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut low_load_get_attainment = f64::MAX;
    for &(mode_name, mode) in modes {
        for (li, &rate) in rates.iter().enumerate() {
            let r = run(mode, rate, ops);
            if li == 0 {
                low_load_get_attainment = low_load_get_attainment.min(r.gets.attainment);
            }
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
            entries.push(format!(
                "{{\"qos\":\"{mode_name}\",\"rate_ops_per_sec\":{rate:.0},\
                 \"gets\":{},\"puts\":{},\"max_replication_lag\":{},\
                 \"kernel_rpc_high_p999\":{},\"kernel_rpc_low_p999\":{},\
                 \"kv_puts\":{},\"kv_gets\":{}}}",
                r.gets.json(),
                r.puts.json(),
                r.max_lag,
                r.kernel_rpc_high_p999,
                r.kernel_rpc_low_p999,
                r.kv_puts,
                r.kv_gets,
            ));
        }
    }

    let doc = format!(
        "{{\"bench\":\"kvbench\",\"ops\":{ops},\"clients\":{},\"users\":1000000,\
         \"zipf_theta\":0.99,\"read_pct\":90,\"burst_on_ns\":200000,\"burst_off_ns\":100000,\
         \"slow_follower_apply_ns\":{SLOW_APPLY_NS},\
         \"slo_get_ns\":{SLO_GET_NS},\"slo_put_ns\":{SLO_PUT_NS},\
         \"low_load_get_attainment\":{low_load_get_attainment:.4},\"runs\":[{}]}}",
        CLIENTS.len(),
        entries.join(",")
    );
    if json_at.is_some() {
        match &json_path {
            Some(p) => std::fs::write(p, &doc).expect("write report"),
            None => println!("{doc}"),
        }
    } else {
        print_table("kvbench: open-loop SLO report", "qos/rate", &rows);
        println!("\nSLO targets: get {SLO_GET_NS} ns, put {SLO_PUT_NS} ns (open-loop)");
    }

    // Headline: at the lowest load point the service must actually meet
    // its read SLO in every QoS mode.
    if low_load_get_attainment < 0.9 {
        eprintln!(
            "kvbench: read SLO attainment {low_load_get_attainment:.3} < 0.9 at the lowest load point"
        );
        std::process::exit(1);
    }
}

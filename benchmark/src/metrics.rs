//! Metric definitions (the same names `BENCHMARK.json` lists), order
//! statistics, and the one-line JSON the driver reads.

use std::fmt::Write as _;

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Modelled time from `simnet::Ctx`: what the paper's hardware would take.
    Virtual,
    /// What the simulator costs to run on this machine.
    Host,
    /// A count or ratio; no clock.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
            Clock::None => "-",
        }
    }
}

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the baseline by which the
    /// metric may worsen. Per-layer metrics have no bound (0).
    pub bound: f64,
}

impl MetricDef {
    /// A measured value of this metric.
    pub fn value(&self, value: f64) -> Value {
        Value {
            name: self.name.to_string(),
            value,
            unit: self.unit,
            clock: self.clock,
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
) -> MetricDef {
    e2e(name, unit, clock, higher_is_better, 0.0)
}

pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Clock::Host, false, 0.25),
    e2e("vtput_kops", "kops/s", Clock::Virtual, true, 0.02),
    e2e("vlat_mean_us", "us", Clock::Virtual, false, 0.02),
    e2e("vlat_tail_us", "us", Clock::Virtual, false, 0.2),
    e2e("vcpu_us_per_op", "us", Clock::Virtual, false, 0.02),
    e2e("slo_attain", "ratio", Clock::Virtual, true, 0.01),
    e2e("host_kops", "kops/s", Clock::Host, true, 0.25),
    e2e("peak_rss_mb", "MB", Clock::Host, false, 0.1),
];

/// Every per-layer metric a traced run prints, in print order.
pub const PER_LAYER: [MetricDef; 79] = [
    layer("simnet.resource_acquire.host_ns", "ns", Clock::Host, false),
    layer("simnet.histogram_record.host_ns", "ns", Clock::Host, false),
    layer("smem.phys_write_64.host_ns", "ns", Clock::Host, false),
    layer("smem.phys_read_16k.host_ns", "ns", Clock::Host, false),
    layer("smem.pin_range_page.host_ns", "ns", Clock::Host, false),
    layer("rnic.post_write_64.vns", "ns", Clock::Virtual, false),
    layer("rnic.post_write_64.host_ns", "ns", Clock::Host, false),
    layer("rnic.post_read_16k.vns", "ns", Clock::Virtual, false),
    layer("rnic.post_read_16k.host_ns", "ns", Clock::Host, false),
    layer("rnic.fetch_add.vns", "ns", Clock::Virtual, false),
    layer("rnic.fetch_add.host_ns", "ns", Clock::Host, false),
    layer("rnic.verbs_per_op", "count", Clock::None, false),
    layer("rnic.bytes_per_op", "B", Clock::None, false),
    layer("rnic.mr_miss_ratio", "ratio", Clock::None, false),
    layer("rnic.pte_miss_ratio", "ratio", Clock::None, false),
    layer("rnic.qp_misses", "count", Clock::None, false),
    layer("rnic.page_faults", "count", Clock::None, false),
    layer(
        "lite.datapath.post_write_64.vns",
        "ns",
        Clock::Virtual,
        false,
    ),
    layer(
        "lite.datapath.post_write_64.host_ns",
        "ns",
        Clock::Host,
        false,
    ),
    layer(
        "lite.datapath.post_write_64.self_vns",
        "ns",
        Clock::Virtual,
        false,
    ),
    layer(
        "lite.datapath.post_many_8x64.vns",
        "ns",
        Clock::Virtual,
        false,
    ),
    layer(
        "lite.datapath.post_many_8x64.host_ns",
        "ns",
        Clock::Host,
        false,
    ),
    layer("lite.datapath.write.p50_ns", "ns", Clock::Virtual, false),
    layer("lite.datapath.read.p50_ns", "ns", Clock::Virtual, false),
    layer("lite.datapath.atomic.p50_ns", "ns", Clock::Virtual, false),
    layer("lite.datapath.retries", "count", Clock::None, false),
    layer("lite.datapath.ops_failed", "count", Clock::None, false),
    layer("lite.api.lt_write_64.vns", "ns", Clock::Virtual, false),
    layer("lite.api.lt_write_64.host_ns", "ns", Clock::Host, false),
    layer(
        "lite.api.lt_write_64_kernel.vns",
        "ns",
        Clock::Virtual,
        false,
    ),
    layer(
        "lite.api.lt_write_64_kernel.self_vns",
        "ns",
        Clock::Virtual,
        false,
    ),
    layer("lite.api.crossing.vns", "ns", Clock::Virtual, false),
    layer("lite.api.lt_read_16k.vns", "ns", Clock::Virtual, false),
    layer("lite.api.lt_read_16k.host_ns", "ns", Clock::Host, false),
    layer("lite.api.lt_fetch_add.vns", "ns", Clock::Virtual, false),
    layer("lite.api.lt_fetch_add.host_ns", "ns", Clock::Host, false),
    layer("lite.api.lt_cmp_swap.vns", "ns", Clock::Virtual, false),
    layer("lite.api.lt_malloc_1m.vns", "ns", Clock::Virtual, false),
    layer("lite.api.lt_malloc_1m.host_ns", "ns", Clock::Host, false),
    layer("lite.api.lt_map.vns", "ns", Clock::Virtual, false),
    layer("lite.rpc.lt_rpc_8_64.vns", "ns", Clock::Virtual, false),
    layer("lite.rpc.lt_rpc_8_64.host_ns", "ns", Clock::Host, false),
    layer("lite.rpc.lt_rpc_8_4k.vns", "ns", Clock::Virtual, false),
    layer("lite.rpc.dispatched", "count", Clock::None, true),
    layer("lite.rpc.p50_ns", "ns", Clock::Virtual, false),
    layer("lite.rpc.p99_ns", "ns", Clock::Virtual, false),
    layer(
        "lite.rpc.server_vcpu_ns_per_op",
        "ns",
        Clock::Virtual,
        false,
    ),
    layer("lite-log.commit_16.vns", "ns", Clock::Virtual, false),
    layer("lite-log.commit_16.host_ns", "ns", Clock::Host, false),
    layer("lite-log.verbs_per_commit", "count", Clock::None, false),
    layer("lite-txn.commit_ro.vns", "ns", Clock::Virtual, false),
    layer("lite-txn.commit_ro.host_ns", "ns", Clock::Host, false),
    layer("lite-txn.commit_rw2.vns", "ns", Clock::Virtual, false),
    layer("lite-txn.commit_rw2.host_ns", "ns", Clock::Host, false),
    layer("lite-txn.verbs_per_commit", "count", Clock::None, false),
    layer("lite-txn.abort_ratio", "ratio", Clock::None, false),
    layer(
        "lite-txn.validation_fail_ratio",
        "ratio",
        Clock::None,
        false,
    ),
    layer("lite-kv.put_64.vns", "ns", Clock::Virtual, false),
    layer("lite-kv.put_64.host_ns", "ns", Clock::Host, false),
    layer("lite-kv.get_64.vns", "ns", Clock::Virtual, false),
    layer("lite-kv.get_64.host_ns", "ns", Clock::Host, false),
    layer("lite-kv.get.p50_us", "us", Clock::Virtual, false),
    layer("lite-kv.get.p99_us", "us", Clock::Virtual, false),
    layer("lite-kv.put.p50_us", "us", Clock::Virtual, false),
    layer("lite-kv.put.p99_us", "us", Clock::Virtual, false),
    layer("lite-kv.replication_lag_max", "count", Clock::None, false),
    layer("lite-kv.puts", "count", Clock::None, true),
    layer("lite-kv.gets", "count", Clock::None, true),
    layer("harness.ops", "count", Clock::None, true),
    layer("harness.host_kops", "kops/s", Clock::Host, true),
    layer("harness.vlat_p50_us", "us", Clock::Virtual, false),
    layer("harness.vlat_p99_us", "us", Clock::Virtual, false),
    layer("harness.vlat_p999_us", "us", Clock::Virtual, false),
    layer("harness.fail_ratio", "ratio", Clock::None, false),
    layer("harness.sched_late_ratio", "ratio", Clock::Virtual, false),
    layer("harness.sched_late_p99_us", "us", Clock::Virtual, false),
    layer("harness.trace_overhead_ratio", "ratio", Clock::Host, false),
    layer("harness.trace_vdelta", "ratio", Clock::Virtual, false),
    layer("harness.spans", "count", Clock::None, true),
];

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 5;

/// `BENCHMARK.json`, generated from the tables above so the file at the
/// root of the repo and the code cannot drift (a test compares them).
pub fn manifest(workloads: &[(&str, &str)]) -> String {
    let better = |higher| if higher { "higher" } else { "lower" };
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let sep = if i + 1 == workloads.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count; 0 if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Every digit of a finite number; JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Reads every `"name":{"value":<number>,"unit":"<unit>"}` back out of a
/// result line this module wrote.
pub fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some(at) = line.find("\"metrics\":{") else {
        return Vec::new();
    };
    let mut rest = &line[at + "\"metrics\":{".len()..];
    let mut out = Vec::new();
    while let Some(entry) = rest.strip_prefix(',').unwrap_or(rest).strip_prefix('"') {
        let Some((name, tail)) = entry.split_once("\":{\"value\":") else {
            break;
        };
        let Some((value, tail)) = tail.split_once(",\"unit\":\"") else {
            break;
        };
        let Some((unit, tail)) = tail.split_once("\"}") else {
            break;
        };
        let Ok(value) = value.parse() else { break };
        out.push((name.to_string(), value, unit.to_string()));
        rest = tail;
    }
    out
}

/// Reads a top-level `"key":<token>` of a result line.
pub fn parse_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(&rest[..rest.find([',', '}'])?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.9), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Value {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
                clock: Clock::Host,
            },
            Value {
                name: "vtput_kops".into(),
                value: 3879.7,
                unit: "kops/s",
                clock: Clock::Virtual,
            },
        ];
        let line = result_json(true, 1000, 0, &metrics);
        assert_eq!(
            parse_metrics(&line),
            vec![
                ("setup_s".to_string(), 0.8127, "s".to_string()),
                ("vtput_kops".to_string(), 3879.7, "kops/s".to_string()),
            ]
        );
        assert!(parse_metrics("{}").is_empty());
        assert_eq!(parse_field(&line, "correct"), Some("true"));
        assert_eq!(parse_field(&line, "attempted"), Some("1000"));
        assert_eq!(parse_field(&line, "failed"), Some("0"));
    }
}

//! The repo's benchmark. See `benchmark/README.md`.
//!
//! With `--workload W` it measures that workload in this process and
//! prints one line per metric and, last, the result as one JSON object.
//! Without it, it runs every workload in a fresh process of this same
//! binary (so `peak_rss_mb` and `setup_s` are per workload), prints the
//! table, and writes `benchmark/out/result.json`.

mod driver;
mod gen;
mod ladder;
mod metrics;
mod pin;
mod run;
mod suite;
mod trace;
mod watchdog;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use driver::Progress;
use metrics::{result_json, Value};
use run::Budget;
use trace::Tracer;
use watchdog::Watchdog;

const USAGE: &str = "usage: lite-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--rounds N] [--repeat N] [--manifest]
  --workload W  one of: write-small read-large rpc-echo txn-write-heavy txn-read-heavy kv-closed kv-open
                (default: all, each in a fresh process)
  --seed N      workload seed (default 1); every input is a pure function of it
  --seconds S   seconds to measure per workload (default 5)
  --trace       traced run: per-layer metrics and out/trace-<workload>.json
  --rounds N    measure exactly N rounds instead of --seconds (exact virtual metrics)
  --repeat N    run the suite N times and compare the runs against the bounds
  --manifest    print BENCHMARK.json as the metric and workload tables define it
exit code: 0 correct, 1 a content check failed (or --repeat runs disagree), 2 bad usage or
environment, 3 a workload passed its deadline (10x its expected host time; it reports
where every context was)";

/// Host seconds a run spends outside the measured rounds (three set-ups,
/// checks, the ladder); the watchdog allows ten times the expected total.
const OVERHEAD_S: f64 = 8.0;
/// The driver gives a run 180 s; the watchdog speaks up before that.
const MAX_DEADLINE_S: f64 = 170.0;
/// Exit code of a run whose content checks failed.
pub const EXIT_INCORRECT: u8 = 1;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<usize>,
    repeat: usize,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        rounds: None,
        repeat: 1,
        manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{name}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = num("--seconds", value("--seconds")?)?,
            "--rounds" => args.rounds = Some(num("--rounds", value("--rounds")?)?),
            "--repeat" => args.repeat = num("--repeat", value("--repeat")?)?,
            // Bare `--trace` or `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--manifest" => args.manifest = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.rounds == Some(0) || args.repeat == 0 {
        return Err("--rounds and --repeat must be at least 1".into());
    }
    Ok(args)
}

/// `BENCHMARK.json` as the code defines it.
fn manifest() -> String {
    let workloads: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    metrics::manifest(&workloads)
}

/// Where traces and the result file go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_values(workload: &str, values: &[Value]) {
    for v in values {
        println!(
            "{workload} {} {} {} {}",
            v.name,
            metrics::json_number(v.value),
            v.unit,
            v.clock.name()
        );
    }
}

/// Measures one workload in this process.
fn run_one(args: &Args, name: &str) -> Result<u8, String> {
    let spec = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    eprintln!(
        "# {}: {} loop, {} contexts x {} ops a round, seed {}",
        spec.name,
        if spec.open_loop { "open" } else { "closed" },
        spec.contexts,
        spec.round_ops,
        args.seed
    );
    let progress = Progress::new(spec.contexts);
    let deadline =
        Duration::from_secs_f64((10.0 * (args.seconds + OVERHEAD_S)).min(MAX_DEADLINE_S));
    let watched = progress.clone();
    let dog = Watchdog::arm(deadline, move || {
        watchdog::report_and_exit(spec.name, deadline, &watched)
    });
    let (measured, values) = if args.trace {
        let (measured, values, tracer) = run::per_layer(spec, args.seed, args.seconds, &progress);
        let path = out_dir().join(format!("trace-{}.json", spec.name));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(spec.name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        (measured, values)
    } else {
        let budget = match args.rounds {
            Some(rounds) => Budget::Rounds {
                rounds,
                ops: spec.round_ops,
            },
            None => Budget::Seconds(args.seconds),
        };
        let m = run::measure(spec, args.seed, budget, true, &mut Tracer::off(), &progress);
        let values = run::end_to_end(&m);
        (m, values)
    };
    dog.disarm();
    let correct = measured.failed() == 0;
    print_values(spec.name, &values);
    println!(
        "{}",
        result_json(correct, measured.attempted(), measured.failed(), &values)
    );
    Ok(if correct { 0 } else { EXIT_INCORRECT })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let outcome = match &args.workload {
        Some(name) => {
            if pin::to_one_cpu().is_none() {
                eprintln!("warning: could not pin to one CPU; host metrics will be noisier");
            }
            run_one(&args, name)
        }
        None => suite::run(&args),
    };
    match outcome {
        Ok(code) => {
            if code == EXIT_INCORRECT {
                eprintln!("error: a content check failed");
            }
            ExitCode::from(code)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "kv-open",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]);
        let a = a.unwrap();
        assert_eq!(a.workload.as_deref(), Some("kv-open"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 5.0, true));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--seed", "2"]).unwrap().trace);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn benchmark_json_is_what_the_tables_say() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn workload_and_metric_names_are_unique() {
        let mut names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        names.extend(metrics::END_TO_END.iter().map(|m| m.name));
        names.extend(metrics::PER_LAYER.iter().map(|m| m.name));
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        assert!(workloads::ALL.iter().all(|w| w.why.len() <= 200));
    }
}

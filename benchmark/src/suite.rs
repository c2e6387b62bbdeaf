//! The whole suite: every workload in a fresh process of this binary,
//! the table, `out/result.json`, and `--repeat` to compare runs of the
//! same code against the bounds.

use std::fmt::Write as _;
use std::process::Command;

use crate::metrics::{parse_field, parse_metrics, END_TO_END};
use crate::watchdog::EXIT_HUNG;
use crate::{out_dir, workloads, Args, EXIT_INCORRECT};

/// One child run: how it exited and, if it printed one, its result line.
struct Child {
    workload: &'static str,
    trace: bool,
    /// `None` if the child ended (crash, watchdog) without a result.
    line: Option<String>,
    correct: bool,
    hung: bool,
}

/// Runs one workload in a fresh process and waits for it. A child that
/// crashes or that its watchdog ends is recorded as not correct; the suite
/// goes on.
fn spawn(args: &Args, workload: &'static str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(rounds) = args.rounds {
        cmd.args(["--rounds", &rounds.to_string()]);
    }
    // `output` waits for the child; its stderr (watchdog report) passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (child, table) = Child::of(workload, trace, &stdout, out.status.code());
    for l in table {
        println!("{l}");
    }
    if child.line.is_none() {
        eprintln!(
            "error: {workload}: exited with {} and no result",
            out.status
        );
    }
    Ok(child)
}

impl Child {
    /// What a child's output and exit code say, and the metric lines it
    /// printed before its result.
    fn of<'a>(
        workload: &'static str,
        trace: bool,
        stdout: &'a str,
        code: Option<i32>,
    ) -> (Child, Vec<&'a str>) {
        let mut lines: Vec<&str> = stdout.lines().collect();
        let line = lines.pop_if(|l| l.starts_with('{')).map(str::to_string);
        let said_correct = line
            .as_deref()
            .is_some_and(|l| parse_field(l, "correct") == Some("true"));
        let child = Child {
            workload,
            trace,
            line,
            correct: said_correct && code == Some(0),
            hung: code == Some(i32::from(EXIT_HUNG)),
        };
        (child, lines)
    }
}

fn run_once(args: &Args) -> Result<Vec<Child>, String> {
    let mut children = Vec::new();
    for spec in &workloads::ALL {
        children.push(spawn(args, spec.name, false)?);
        if args.trace {
            children.push(spawn(args, spec.name, true)?);
        }
    }
    Ok(children)
}

fn write_result(args: &Args, runs: &[Vec<Child>]) -> Result<(), String> {
    let mut s = format!(
        "{{\"seed\":{},\"seconds\":{},\"results\":[",
        args.seed, args.seconds
    );
    let mut first = true;
    for (rep, children) in runs.iter().enumerate() {
        for c in children {
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                s,
                "{sep}\n{{\"repeat\":{rep},\"workload\":\"{}\",\"trace\":{},\"result\":{}}}",
                c.workload,
                c.trace,
                c.line.as_deref().unwrap_or("null")
            );
        }
    }
    s.push_str("\n]}\n");
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, s))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Per (workload, end-to-end metric): both values, the relative
/// difference, and PASS if it is within the metric's bound, UNRESOLVED if
/// runs of the same code differ by more than the bound allows.
fn compare(first: &[Child], second: &[Child]) -> bool {
    let mut all_pass = true;
    println!("# repeat: workload metric first second worse_by bound verdict");
    for (a, b) in first.iter().zip(second).filter(|(a, _)| !a.trace) {
        let metrics = |c: &Child| c.line.as_deref().map(parse_metrics).unwrap_or_default();
        let (va, vb) = (metrics(a), metrics(b));
        for def in &END_TO_END {
            let get = |v: &[(String, f64, String)]| {
                v.iter().find(|m| m.0 == def.name).map_or(f64::NAN, |m| m.1)
            };
            let (x, y) = (get(&va), get(&vb));
            // Positive = the second run is worse. Either run could be the
            // baseline, so a difference in either direction must fit. A
            // run without a result compares as NaN: UNRESOLVED.
            let worse = if def.higher_is_better { x - y } else { y - x };
            let diff = worse / x;
            let pass = diff.abs() <= def.bound;
            all_pass &= pass;
            println!(
                "repeat {} {} {x} {y} {diff:+.5} {} {}",
                a.workload,
                def.name,
                def.bound,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    all_pass
}

/// Runs the suite `--repeat` times; the exit code says whether every run
/// was correct (and repeats agree), some were not, or one hung.
pub fn run(args: &Args) -> Result<u8, String> {
    let mut runs = Vec::new();
    for _ in 0..args.repeat {
        runs.push(run_once(args)?);
    }
    write_result(args, &runs)?;
    let mut ok = runs.iter().flatten().all(|c| c.correct);
    for pair in runs.windows(2) {
        ok &= compare(&pair[0], &pair[1]);
    }
    Ok(if runs.iter().flatten().any(|c| c.hung) {
        EXIT_HUNG
    } else if ok {
        0
    } else {
        EXIT_INCORRECT
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_without_a_result_is_incorrect_and_a_hung_one_is_known() {
        let good =
            "w m 1 us virtual\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n";
        let (c, table) = Child::of("w", false, good, Some(0));
        assert!(c.correct && !c.hung && c.line.is_some());
        assert_eq!(table, vec!["w m 1 us virtual"]);
        // The watchdog ended it: metric lines at most, no result.
        let (c, table) = Child::of("w", false, "w m 1 us virtual\n", Some(3));
        assert!(!c.correct && c.hung && c.line.is_none());
        assert_eq!(table.len(), 1);
        // Killed by a signal, nothing printed.
        let (c, _) = Child::of("w", false, "", None);
        assert!(!c.correct && !c.hung && c.line.is_none());
        // A result that says correct from a process that failed is not.
        assert!(!Child::of("w", false, good, Some(1)).0.correct);
    }
}

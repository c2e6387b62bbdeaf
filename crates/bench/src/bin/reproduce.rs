//! Runs the figure/table harnesses of [`bench::FIGURES`] and prints the
//! report.
//!
//! `cargo run --release -p bench --bin reproduce` runs all of them;
//! `reproduce fig04 ablation_syscalls` runs only those (`reproduce
//! scale` runs both `scale_*` entries). `--full` asks for paper-scale
//! parameters; `--json <path>` also writes every printed table to `path`.
//! A figure whose claim fails panics, and `reproduce` exits non-zero.
use std::process::exit;

fn main() {
    let mut full = false;
    let mut json = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--json" => match args.next() {
                Some(path) => json = Some(path),
                None => usage("`--json` takes a path"),
            },
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            _ => names.push(arg),
        }
    }
    if let Some(unknown) = names
        .iter()
        .find(|n| !bench::FIGURES.iter().any(|f| f.selected_by(n)))
    {
        usage(&format!("unknown figure `{unknown}`"));
    }
    let t0 = std::time::Instant::now();
    let mut printed = Vec::new();
    for fig in bench::FIGURES {
        if names.is_empty() || names.iter().any(|n| fig.selected_by(n)) {
            let rows = (fig.run)(full);
            bench::print_table(fig.title, fig.xlabel, &rows);
            printed.push((fig.title, fig.xlabel, rows));
        }
    }
    eprintln!(
        "\n(reproduced in {:.1?}, mode = {})",
        t0.elapsed(),
        if full { "full" } else { "quick" }
    );
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, bench::table::to_json(&printed)) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
    }
}

fn usage(problem: &str) -> ! {
    let known: Vec<&str> = bench::FIGURES.iter().map(|f| f.name).collect();
    eprintln!(
        "{problem}\nusage: reproduce [--full] [--json <path>] [figure ...]\nfigures: {}",
        known.join(" ")
    );
    exit(2);
}

//! Runs the figure/table harnesses of [`bench::FIGURES`] and prints the
//! report.
//!
//! `cargo run --release -p bench --bin reproduce` runs all of them;
//! `reproduce fig04 ablation_syscalls` runs only those. Add `--full` for
//! paper-scale parameters.
fn main() {
    let full = bench::full_mode();
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| !bench::FIGURES.iter().any(|f| f.name == n.as_str()))
    {
        let known: Vec<&str> = bench::FIGURES.iter().map(|f| f.name).collect();
        eprintln!("unknown figure `{unknown}`; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    for fig in bench::FIGURES {
        if names.is_empty() || names.iter().any(|n| n == fig.name) {
            bench::print_table(fig.title, fig.xlabel, &(fig.run)(full));
        }
    }
    eprintln!(
        "\n(reproduced in {:.1?}, mode = {})",
        t0.elapsed(),
        if full { "full" } else { "quick" }
    );
}

//! The gated reports that hold on a loaded host, in quick mode: `latency`,
//! `kvbench`, `mempressure` and `regcost` each panic inside `run` when
//! their claim fails. (`regcost`'s unpinner ticks on virtual time, so its
//! steady-state gate does not depend on how the host schedules the
//! loop.) `reproduce --json` writes exactly `to_json` of the tables each
//! figure returns (`table.rs`'s tests pin `to_json`'s own format).

use std::process::Command;

use bench::table::to_json;
use bench::FIGURES;

fn figure(name: &str) -> &'static bench::Figure {
    FIGURES.iter().find(|f| f.name == name).unwrap()
}

#[test]
fn kvbench_meets_its_read_slo() {
    let rows = (figure("kvbench").run)(false);
    assert!(rows.iter().any(|r| r.label == "slo_target"));
}

#[test]
fn mempressure_loses_no_byte_and_no_op() {
    (figure("mempressure").run)(false);
}

#[test]
fn regcost_lazy_is_flat_and_its_steady_tax_small() {
    (figure("regcost").run)(false);
}

#[test]
fn reproduce_json_is_every_table_it_printed() {
    // One file per process: copies of this test may run at once.
    let path = format!(
        "{}/gates-{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["latency", "fig12", "--json", &path])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tables: Vec<_> = ["fig12", "latency"]
        .iter()
        .map(|&name| {
            let fig = figure(name);
            assert!(stdout.contains(fig.title));
            (fig.title, fig.xlabel, (fig.run)(false))
        })
        .collect();
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(written, to_json(&tables));
}

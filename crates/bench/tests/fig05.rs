//! Figure 5 in quick mode: LITE flat at every LMR size and never below
//! Verbs, and the same rows on every run but for the threaded control
//! column.

use bench::figs::micro::fig05;
use bench::Row;

/// The rows without the threaded control column.
fn stepped(rows: &[Row]) -> Vec<(String, Vec<(String, f64)>)> {
    rows.iter()
        .map(|r| {
            let cells = r.cells.iter().filter(|(n, _)| n != "lite_threads_64B");
            (r.label.clone(), cells.cloned().collect())
        })
        .collect()
}

#[test]
fn lite_is_flat_above_verbs_and_exact() {
    let rows = fig05(false);
    for req in ["64B", "1KB"] {
        let lite: Vec<f64> = rows
            .iter()
            .map(|r| r.get(&format!("lite_{req}")).unwrap())
            .collect();
        let max = lite.iter().cloned().fold(f64::MIN, f64::max);
        let min = lite.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min <= 1.01, "lite_{req} not flat: {lite:?}");
        for r in &rows {
            let verbs = r.get(&format!("verbs_{req}")).unwrap();
            let l = r.get(&format!("lite_{req}")).unwrap();
            assert!(l >= verbs, "{}: lite_{req} {l} < verbs {verbs}", r.label);
        }
    }
    assert!(rows.iter().all(|r| r.get("lite_threads_64B").is_some()));
    assert_eq!(stepped(&rows), stepped(&fig05(false)));
}

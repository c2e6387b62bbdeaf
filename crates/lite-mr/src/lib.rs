#![warn(missing_docs)]

//! LITE-MR: MapReduce ported from Phoenix onto LITE (paper §8.2), plus
//! the two baselines the paper compares against.
//!
//! Three implementations share identical application logic (WordCount
//! over a Zipf-distributed synthetic corpus — the stand-in for the
//! Wikimedia dump) and differ only in substrate:
//!
//! * [`phoenix`] — single-node shared-memory MapReduce with Phoenix's
//!   *global* tree index, whose insert path serializes all threads;
//! * [`litemr`] — map/reduce/merge phases spread over LITE nodes with a
//!   *per-node* index; reducers and mergers pull data with `LT_read`;
//! * [`hadoop`] — the same phases over TCP/IPoIB with per-task launch
//!   overhead and disk-spill shuffle, Hadoop-style.
//!
//! All implementations produce bit-identical word counts (asserted in
//! tests); runtimes diverge exactly the way Figure 18 shows.

pub mod ft;
pub mod hadoop;
pub mod litemr;
pub mod model;
pub mod phoenix;
pub mod text;

use std::collections::HashMap;

pub use ft::run_litemr_ft;
pub use hadoop::run_hadoop;
pub use litemr::run_litemr;
pub use phoenix::run_phoenix;
pub use text::Text;

/// Output of one WordCount run.
#[derive(Debug, Clone)]
pub struct WordCountResult {
    /// Final counts, sorted by word id.
    pub counts: Vec<(u32, u64)>,
    /// Virtual makespan of the whole job, nanoseconds.
    pub runtime_ns: u64,
    /// Per-phase virtual times (map, reduce, merge).
    pub phases: [u64; 3],
}

/// Reference (sequential, unmodeled) WordCount for verification.
pub fn reference_counts(text: &Text) -> Vec<(u32, u64)> {
    let mut m: HashMap<u32, u64> = HashMap::new();
    for &w in &text.words {
        *m.entry(w).or_insert(0) += 1;
    }
    let mut v: Vec<(u32, u64)> = m.into_iter().collect();
    v.sort_unstable();
    v
}

/// Test-only re-export of the merge kernel.
#[doc(hidden)]
pub fn merge_for_tests(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    merge_sorted(a, b)
}

/// Merges sorted `(word, count)` runs (shared by all implementations).
pub(crate) fn merge_sorted(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Serializes sorted pairs for LMR / wire transport.
pub(crate) fn encode_pairs(pairs: &[(u32, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 12 + 4);
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (w, c) in pairs {
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_pairs`].
pub(crate) fn decode_pairs(bytes: &[u8]) -> Vec<(u32, u64)> {
    let n = u32::from_le_bytes(bytes[0..4].try_into().expect("4")) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 4;
    for _ in 0..n {
        let w = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
        let c = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
        out.push((w, c));
        pos += 12;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::Text;

    #[test]
    fn merge_and_codec() {
        let a = vec![(1u32, 2u64), (3, 1), (7, 5)];
        let b = vec![(2u32, 1u64), (3, 4), (9, 9)];
        let m = merge_sorted(&a, &b);
        assert_eq!(m, vec![(1, 2), (2, 1), (3, 5), (7, 5), (9, 9)]);
        assert_eq!(decode_pairs(&encode_pairs(&m)), m);
    }

    #[test]
    fn all_three_match_reference() {
        let text = Text::generate(20_000, 500, 1.05, 42);
        let reference = reference_counts(&text);

        let p = run_phoenix(&text, 8);
        assert_eq!(p.counts, reference, "phoenix counts diverge");

        let cluster = lite::LiteCluster::start(3).unwrap();
        let l = run_litemr(&cluster, &text, 2, 4).unwrap();
        assert_eq!(l.counts, reference, "LITE-MR counts diverge");

        let h = run_hadoop(&text, 2, 4);
        assert_eq!(h.counts, reference, "hadoop counts diverge");

        // Relative performance sanity: Hadoop pays TCP+disk+launch.
        assert!(
            h.runtime_ns > l.runtime_ns,
            "hadoop {} vs lite {}",
            h.runtime_ns,
            l.runtime_ns
        );
    }
}

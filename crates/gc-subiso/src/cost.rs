//! The paper's sub-iso cost estimator (§5.2).
//!
//! GraphCache estimates the cost of a sub-iso test of query `g` (with `n`
//! nodes) against a dataset graph `G` (with `N ≥ n` nodes and `L` distinct
//! labels) as
//!
//! ```text
//! c(g, G) = N · N! / (L^(n+1) · (N − n)!)
//! ```
//!
//! i.e. the number of injective node assignments, discounted by the label
//! selectivity. The factorials overflow `f64` beyond trivial sizes, so the
//! estimate is computed in log-space and only exponentiated at the end,
//! saturating at `f64::MAX`. The logs come from a table of `ln k` for the
//! node and label counts graphs have, filled once with the very values
//! `f64::ln` returns, so an estimate costs one table read per query node
//! and is bit-identical to calling `ln` for each term.

use gc_graph::LabeledGraph;
use std::sync::OnceLock;

/// Arguments below this are read from [`ln_table`]; larger ones call `ln`.
const LN_TABLE_LEN: usize = 1024;

/// `ln k` for `k < LN_TABLE_LEN` (entry 0 is `ln 0 = -inf`, never read).
fn ln_table() -> &'static [f64; LN_TABLE_LEN] {
    static TABLE: OnceLock<[f64; LN_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|k| (k as f64).ln()))
}

/// The paper's cost estimate `c(g, G)` given the raw parameters: `n` query
/// nodes, `cap_n` dataset-graph nodes, `labels` distinct labels in `G`.
///
/// Returns 0.0 when `cap_n < n` (the test would be trivially negative) and
/// saturates at `f64::MAX` instead of overflowing.
pub fn estimate_raw(n: u64, cap_n: u64, labels: u64) -> f64 {
    if cap_n < n {
        return 0.0;
    }
    let table = ln_table();
    let ln = |k: u64| match table.get(k as usize) {
        Some(&v) => v,
        None => (k as f64).ln(),
    };
    // ln(N!/(N-n)!), summed from the smallest factor up.
    let ln_falling: f64 = ((cap_n - n + 1)..=cap_n).map(ln).sum();
    // ln c = ln N + ln(N!/(N-n)!) - (n+1)·ln L
    let ln_c = ln(cap_n.max(1)) + ln_falling - (n as f64 + 1.0) * ln(labels.max(1));
    if ln_c > f64::MAX.ln() {
        f64::MAX
    } else {
        ln_c.exp()
    }
}

/// The paper's cost estimate `c(g, G)` for a query/dataset-graph pair.
pub fn estimate(query: &LabeledGraph, dataset_graph: &LabeledGraph) -> f64 {
    estimate_raw(
        query.node_count() as u64,
        dataset_graph.node_count() as u64,
        dataset_graph.distinct_label_count() as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_closed_form_small() {
        // N=5, n=3, L=2: c = 5 * 5!/2! / 2^4 = 5 * 60 / 16 = 18.75
        let c = estimate_raw(3, 5, 2);
        assert!((c - 18.75).abs() < 1e-9, "c = {c}");
    }

    #[test]
    fn zero_when_query_larger() {
        assert_eq!(estimate_raw(10, 5, 3), 0.0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let c = estimate_raw(170, 10_000, 1);
        assert!(c.is_finite());
        assert!(c > 0.0);
    }

    #[test]
    fn monotone_in_target_size() {
        let small = estimate_raw(4, 10, 3);
        let large = estimate_raw(4, 100, 3);
        assert!(large > small);
    }

    #[test]
    fn more_labels_cheaper() {
        let few = estimate_raw(4, 50, 2);
        let many = estimate_raw(4, 50, 20);
        assert!(many < few);
    }

    /// The estimate as it was computed before the table: `f64::ln` for
    /// every term, in the same order.
    fn estimate_with_ln(n: u64, cap_n: u64, labels: u64) -> f64 {
        if cap_n < n {
            return 0.0;
        }
        let l = labels.max(1) as f64;
        let falling: f64 = ((cap_n - n + 1)..=cap_n).map(|k| (k as f64).ln()).sum();
        let ln_c = (cap_n.max(1) as f64).ln() + falling - (n as f64 + 1.0) * l.ln();
        if ln_c > f64::MAX.ln() {
            f64::MAX
        } else {
            ln_c.exp()
        }
    }

    /// The table changes no estimate by a single bit, over every query
    /// size, graph size and label count a dataset graph of up to 1 200
    /// nodes can give, inside and past the table.
    #[test]
    fn table_estimate_is_bit_identical_to_ln_per_term() {
        for cap_n in (0u64..=300).chain((301..1_200).step_by(7)) {
            for n in (0..=cap_n.min(64)).chain([cap_n.saturating_sub(1), cap_n, cap_n + 1]) {
                for labels in [0, 1, 2, 3, 5, 9, 17, 62, 200, 1_023, 1_024, 5_000] {
                    let got = estimate_raw(n, cap_n, labels);
                    let want = estimate_with_ln(n, cap_n, labels);
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} N={cap_n} L={labels}");
                }
            }
        }
    }

    #[test]
    fn graph_level_wrapper() {
        let q = LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let g = LabeledGraph::from_parts(vec![0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let c = estimate(&q, &g);
        // N=5, n=3, L=2 → 18.75 as above.
        assert!((c - 18.75).abs() < 1e-9);
    }

    #[test]
    fn empty_query_cost_positive() {
        let q = LabeledGraph::empty();
        let g = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let c = estimate(&q, &g);
        assert!(c.is_finite() && c > 0.0);
    }
}

//! "VF2+": VF2 whose visiting order counts label rarity in the target.
//!
//! The paper uses a modified VF2 provided by the CT-Index authors (denoted
//! VF2+ in §7.1). The exact modifications are not published; the consensus
//! improvements for labelled databases — ordering pattern vertices by label
//! rarity in the target and strongest-connectivity-first (as in RI/VF3), and
//! pruning with per-label neighbour counts — are what it stands for here.
//! This crate's VF2 already orders by connectivity and prunes with the same
//! per-label neighbour counts, but counts rarity *in the pattern*, so one
//! plan serves every target. VF2+ is that engine — the same plan builder,
//! search, quick reject and work count — with the plan's rarity read from
//! the target ([`Rarity::Target`](crate::vf2::Rarity)), so it builds one
//! plan per target.

use crate::vf2::Compiled;
use crate::{MatchConfig, MatchOutcome, Matcher};
use gc_graph::{LabeledGraph, NodeId};

/// The VF2+ matcher. Stateless; construct once and reuse freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct Vf2Plus;

impl Vf2Plus {
    /// Creates a new VF2+ matcher.
    pub fn new() -> Self {
        Vf2Plus
    }
}

impl Matcher for Vf2Plus {
    fn name(&self) -> &'static str {
        "VF2+"
    }

    fn contains_with(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
    ) -> MatchOutcome {
        Compiled::vf2_plus(pattern).decide(target, cfg)
    }

    fn contains_each(
        &self,
        pattern: &LabeledGraph,
        targets: &[&LabeledGraph],
        cfg: &MatchConfig,
        out: &mut Vec<MatchOutcome>,
    ) {
        Compiled::vf2_plus(pattern).decide_each(targets, cfg, out);
    }

    fn find_embedding(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> Option<Vec<NodeId>> {
        Compiled::vf2_plus(pattern).find(target)
    }

    fn count_embeddings(&self, pattern: &LabeledGraph, target: &LabeledGraph, limit: u64) -> u64 {
        Compiled::vf2_plus(pattern).count(target, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_embedding;
    use crate::vf2::Vf2;

    fn path(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    #[test]
    fn agrees_with_vf2_on_basics() {
        let cases = [
            (path(&[0, 1, 0]), path(&[0, 1, 0, 1])),
            (path(&[0, 0]), path(&[1, 1])),
            (
                LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]),
                path(&[0, 0, 0, 0]),
            ),
        ];
        for (p, t) in cases {
            assert_eq!(
                Vf2Plus::new().contains(&p, &t),
                Vf2::new().contains(&p, &t),
                "disagree on {p:?} vs {t:?}"
            );
        }
    }

    #[test]
    fn embedding_valid() {
        let p = LabeledGraph::from_parts(vec![2, 3, 2], &[(0, 1), (1, 2)]);
        let t = LabeledGraph::from_parts(
            vec![2, 3, 2, 3, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        );
        let emb = Vf2Plus::new().find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn count_matches_vf2() {
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(
            Vf2Plus::new().count_embeddings(&p, &t, u64::MAX),
            Vf2::new().count_embeddings(&p, &t, u64::MAX)
        );
    }

    #[test]
    fn disconnected_pattern_handled() {
        let p = LabeledGraph::from_parts(vec![5, 7], &[]);
        let t = LabeledGraph::from_parts(vec![7, 9, 5], &[(0, 1), (1, 2)]);
        assert!(Vf2Plus::new().contains(&p, &t));
        let only_one = LabeledGraph::from_parts(vec![7, 9], &[(0, 1)]);
        assert!(!Vf2Plus::new().contains(&p, &only_one));
    }

    #[test]
    fn ordering_prefers_rare_labels() {
        // Target: one node labelled 9 (rare) and many labelled 0. A pattern
        // containing label 9 should anchor there and explore little.
        let mut labels = vec![0u32; 20];
        labels[10] = 9;
        let edges: Vec<(u32, u32)> = (0..19u32).map(|i| (i, i + 1)).collect();
        let t = LabeledGraph::from_parts(labels, &edges);
        let p = LabeledGraph::from_parts(vec![9, 0], &[(0, 1)]);
        let out = Vf2Plus::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert!(out.found);
        // Rare-first ordering pins node 10 immediately: tiny search.
        assert!(out.nodes_expanded <= 4, "expanded {}", out.nodes_expanded);
    }

    #[test]
    fn label_lookahead_prunes() {
        // u's unmapped neighbours have labels {1, 2}; candidate v offers
        // only {1, 1} — must be pruned at depth 0 rather than depth 2.
        let p = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (0, 2)]);
        let t = LabeledGraph::from_parts(vec![0, 1, 1], &[(0, 1), (0, 2)]);
        let out = Vf2Plus::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert!(!out.found);
        assert!(out.nodes_expanded <= 2, "expanded {}", out.nodes_expanded);
    }

    #[test]
    fn budget_respected() {
        let p = LabeledGraph::from_parts(vec![0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut te = vec![];
        for i in 0..10u32 {
            for j in i + 1..10 {
                te.push((i, j));
            }
        }
        let t = LabeledGraph::from_parts(vec![0; 10], &te);
        let out = Vf2Plus::new().contains_with(&p, &t, &MatchConfig::bounded(2));
        assert!(!out.complete);
    }
}

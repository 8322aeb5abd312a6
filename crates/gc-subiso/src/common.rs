//! Shared plumbing for the matcher implementations: quick-reject tests,
//! label statistics, and the search driver protocol.

use gc_graph::{Label, LabeledGraph, NodeId, CYCLES_UNKNOWN};
use std::ops::ControlFlow;

/// Cheap necessary conditions for `pattern ⊆ target`; returning `true`
/// proves non-containment without any search. It reads only the shapes
/// both graphs laid out when they were built, so it allocates nothing:
/// [`lacks_a_cycle`], then [`counts_reject`].
pub(crate) fn quick_reject(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    lacks_a_cycle(pattern, target) || counts_reject(pattern, target)
}

/// Whether the pattern has a simple cycle of some length from 3 to
/// [`gc_graph::CYCLE_MAX`] nodes that the target has none of. An injective
/// mapping that keeps edges maps a `k`-cycle onto a `k`-cycle, so this
/// refuses no non-induced embedding. A word the walk gave up on
/// ([`CYCLES_UNKNOWN`]) refuses nothing: a pattern's is skipped, and a
/// target's has every bit.
pub(crate) fn lacks_a_cycle(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    let cycles = pattern.short_cycles();
    cycles != CYCLES_UNKNOWN && cycles & !target.short_cycles() != 0
}

/// The counting conditions: no more nodes or edges than the target; a
/// contained label multiset, merged over the two graphs' label runs; and
/// the `i`-th largest pattern degree at most the `i`-th largest target
/// degree (each pattern node needs a distinct image of at least its own
/// degree).
pub(crate) fn counts_reject(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    pattern.node_count() > target.node_count()
        || pattern.edge_count() > target.edge_count()
        || !labels_contained(pattern, target)
        || pattern
            .degrees_desc()
            .iter()
            .zip(target.degrees_desc())
            .any(|(p, t)| p > t)
}

/// Label multiset containment: each pattern label, with its count, meets
/// a target run of the same label at least as long.
fn labels_contained(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    let mut runs = target.label_counts();
    pattern.label_counts().all(|(l, need)| {
        runs.by_ref()
            .find(|&(t, _)| t >= l)
            .is_some_and(|(t, have)| t == l && have >= need)
    })
}

/// Sorted multiset of the labels of `v`'s neighbours.
pub(crate) fn neighbor_labels_sorted(g: &LabeledGraph, v: NodeId) -> Vec<Label> {
    let mut ls: Vec<Label> = g.neighbors(v).iter().map(|&w| g.label(w)).collect();
    ls.sort_unstable();
    ls
}

/// Multiset containment over two sorted sequences: every element of `a`
/// (with multiplicity) appears in `b`.
pub(crate) fn sorted_multiset_contained(
    a: impl IntoIterator<Item = Label>,
    b: impl IntoIterator<Item = Label>,
) -> bool {
    let mut b = b.into_iter();
    // Each element of `a` consumes the first unconsumed element of `b` that
    // is not smaller; anything but an equal one is a miss.
    a.into_iter()
        .all(|x| b.by_ref().find(|&y| y >= x) == Some(x))
}

/// What a search driver should do after an embedding is reported.
pub(crate) enum Found {
    /// Stop the search (decision / first-embedding mode).
    Stop,
    /// Keep enumerating (count mode, below the limit).
    Continue,
}

/// Budget-aware step counter shared by all searches.
pub(crate) struct Work {
    pub nodes: u64,
    budget: Option<u64>,
    pub exhausted: bool,
}

impl Work {
    pub fn new(budget: Option<u64>) -> Self {
        Work {
            nodes: 0,
            budget,
            exhausted: false,
        }
    }

    /// Counts one recursion step; returns `Break` when the budget trips.
    #[inline]
    pub fn step(&mut self) -> ControlFlow<()> {
        self.nodes += 1;
        if let Some(b) = self.budget {
            if self.nodes > b {
                self.exhausted = true;
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reject_catches_size_and_labels() {
        let small = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let big = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]);
        assert!(quick_reject(&big, &small)); // more nodes than target
        let wrong_label = LabeledGraph::from_parts(vec![9, 1], &[(0, 1)]);
        assert!(quick_reject(&wrong_label, &big));
        assert!(!quick_reject(&small, &big));
    }

    #[test]
    fn quick_reject_degree_dominance() {
        // Star with 3 leaves needs a target node of degree >= 3.
        let star = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert!(quick_reject(&star, &path));
    }

    /// `n` label-0 nodes on a ring, plus `pendants` label-0 leaves hung off
    /// node 0.
    fn ring(n: u32, pendants: u32) -> LabeledGraph {
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((n..n + pendants).map(|leaf| (0, leaf)));
        LabeledGraph::from_parts(vec![0; (n + pendants) as usize], &edges)
    }

    /// The complete graph on twelve label-0 nodes: its short-cycle walk
    /// trips the cap, so its cycle word is unknown.
    fn clique12() -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..12)
            .flat_map(|u| (u + 1..12).map(move |v| (u, v)))
            .collect();
        LabeledGraph::from_parts(vec![0; 12], &edges)
    }

    #[test]
    fn a_triangle_into_a_hexagon_is_refused_with_no_search() {
        // Sizes, labels and degrees all fit; only the cycle lengths differ.
        let (triangle, hexagon) = (ring(3, 0), ring(6, 0));
        assert!(!counts_reject(&triangle, &hexagon));
        assert!(quick_reject(&triangle, &hexagon));
        // The paper's three matchers and Ullmann, the referee.
        let matchers = crate::MatcherKind::ALL
            .map(|kind| kind.build())
            .into_iter()
            .chain([Box::new(crate::Ullmann::new()) as Box<dyn crate::Matcher>]);
        for m in matchers {
            let out = m.contains_with(&triangle, &hexagon, &crate::MatchConfig::UNBOUNDED);
            assert!(!out.found && out.complete, "{}", m.name());
            assert_eq!(out.nodes_expanded, 0, "{}", m.name());
        }
    }

    #[test]
    fn a_four_cycle_into_a_six_ring_graph_is_refused() {
        let (square, benzene) = (ring(4, 0), ring(6, 3));
        assert!(!counts_reject(&square, &benzene));
        assert!(quick_reject(&square, &benzene));
        // The ring itself, and a path around it, still pass.
        assert!(!quick_reject(&ring(6, 0), &benzene));
        let path = LabeledGraph::from_parts(vec![0; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert!(!quick_reject(&path, &benzene));
    }

    #[test]
    fn an_unknown_cycle_word_never_refuses() {
        let clique = clique12();
        assert_eq!(clique.short_cycles(), CYCLES_UNKNOWN);
        // A capped target: every pattern cycle may be in it.
        for k in 3..=6 {
            assert!(!lacks_a_cycle(&ring(k, 0), &clique), "{k}-ring");
        }
        assert!(!quick_reject(&ring(3, 0), &clique));
        // A capped pattern against targets without short cycles.
        for target in [
            ring(7, 0),
            ring(3, 0),
            LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]),
        ] {
            assert!(!lacks_a_cycle(&clique, &target), "{target:?}");
        }
    }

    #[test]
    fn multiset_containment() {
        assert!(sorted_multiset_contained([1, 2, 2], [1, 2, 2, 3]));
        assert!(!sorted_multiset_contained([2, 2, 2], [1, 2, 2, 3]));
        assert!(!sorted_multiset_contained([0, 2], [1, 2, 2, 3]));
        assert!(sorted_multiset_contained([], [1]));
        assert!(!sorted_multiset_contained([1], []));
    }

    #[test]
    fn work_budget_trips() {
        let mut w = Work::new(Some(2));
        assert!(w.step().is_continue());
        assert!(w.step().is_continue());
        assert!(w.step().is_break());
        assert!(w.exhausted);
        assert_eq!(w.nodes, 3);
    }

    #[test]
    fn work_unbounded() {
        let mut w = Work::new(None);
        for _ in 0..1000 {
            assert!(w.step().is_continue());
        }
        assert!(!w.exhausted);
    }
}

//! Shared plumbing for the matcher implementations: quick-reject tests,
//! label statistics, and the search driver protocol.

use gc_graph::{Label, LabeledGraph, NodeId};
use std::ops::ControlFlow;

/// Cheap necessary conditions for `pattern ⊆ target`; returning `true`
/// proves non-containment without any search. It reads only the shapes
/// both graphs laid out when they were built, so it allocates nothing.
pub(crate) fn quick_reject(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    if pattern.node_count() > target.node_count() || pattern.edge_count() > target.edge_count() {
        return true;
    }
    // Label multiset containment: a merge of the two sorted label lists.
    !sorted_multiset_contained(sorted_labels(pattern), sorted_labels(target))
        // Sorted-descending degree dominance: the i-th largest pattern
        // degree must not exceed the i-th largest target degree (each
        // pattern node needs a distinct image of at least its own degree).
        || pattern
            .degrees_desc()
            .iter()
            .zip(target.degrees_desc())
            .any(|(p, t)| p > t)
}

/// The labels of `g`, sorted ascending.
fn sorted_labels(g: &LabeledGraph) -> impl Iterator<Item = Label> + '_ {
    g.nodes_by_label().iter().map(|&v| g.label(v))
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

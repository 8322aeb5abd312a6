//! Shared plumbing for the matcher implementations: quick-reject tests,
//! label statistics, and the search driver protocol.

use gc_graph::{Label, LabeledGraph, NodeId};
use std::ops::ControlFlow;

/// Cheap necessary conditions for `pattern ⊆ target`; returning `false`
/// proves non-containment without any search.
pub(crate) fn quick_reject(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    Shape::of(pattern).rejects(target, &mut Shape::default())
}

/// The sorted label multiset and sorted-descending degree sequence of a
/// graph: everything [`quick_reject`] reads. A sweep computes the pattern's
/// shape once and refills one scratch shape per target.
#[derive(Debug, Default)]
pub(crate) struct Shape {
    edges: usize,
    /// The labels sorted ascending, then the degrees sorted descending:
    /// `2·|V|` entries in one buffer.
    sorted: Vec<u32>,
}

impl Shape {
    /// The shape of `g`.
    pub(crate) fn of(g: &LabeledGraph) -> Shape {
        let mut s = Shape::default();
        s.fill(g);
        s
    }

    /// Overwrites `self` with the shape of `g`, reusing its buffer.
    fn fill(&mut self, g: &LabeledGraph) {
        self.edges = g.edge_count();
        self.sorted.clear();
        self.sorted.extend_from_slice(g.labels());
        self.sorted.extend(g.nodes().map(|v| g.degree(v) as u32));
        let (labels, degrees) = self.sorted.split_at_mut(g.node_count());
        labels.sort_unstable();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// `(labels, degrees)`, both sorted.
    fn split(&self) -> (&[Label], &[u32]) {
        self.sorted.split_at(self.sorted.len() / 2)
    }

    /// `quick_reject(pattern, target)` for the pattern whose shape is
    /// `self`; `scratch` is overwritten with the target's shape.
    pub(crate) fn rejects(&self, target: &LabeledGraph, scratch: &mut Shape) -> bool {
        let (labels, degrees) = self.split();
        if labels.len() > target.node_count() || self.edges > target.edge_count() {
            return true;
        }
        scratch.fill(target);
        let (t_labels, t_degrees) = scratch.split();
        // Label multiset containment.
        if !sorted_multiset_contained(labels, t_labels) {
            return true;
        }
        // Sorted-descending degree dominance: the i-th largest pattern
        // degree must not exceed the i-th largest target degree (each
        // pattern node needs a distinct image of at least its own degree).
        degrees.iter().zip(t_degrees).any(|(p, t)| p > t)
    }
}

/// Sorted multiset of the labels of `v`'s neighbours.
pub(crate) fn neighbor_labels_sorted(g: &LabeledGraph, v: NodeId) -> Vec<Label> {
    let mut ls: Vec<Label> = g.neighbors(v).iter().map(|&w| g.label(w)).collect();
    ls.sort_unstable();
    ls
}

/// Multiset containment over two sorted slices: every element of `a` (with
/// multiplicity) appears in `b`.
pub(crate) fn sorted_multiset_contained(a: &[Label], b: &[Label]) -> bool {
    let mut j = 0usize;
    for &x in a {
        // advance j to the first b element >= x
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
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
        assert!(sorted_multiset_contained(&[1, 2, 2], &[1, 2, 2, 3]));
        assert!(!sorted_multiset_contained(&[2, 2, 2], &[1, 2, 2, 3]));
        assert!(sorted_multiset_contained(&[], &[1]));
        assert!(!sorted_multiset_contained(&[1], &[]));
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

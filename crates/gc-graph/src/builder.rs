//! Incremental construction of [`LabeledGraph`]s.

use crate::graph::{Label, LabeledGraph, NodeId};

/// Builds a [`LabeledGraph`] incrementally.
///
/// The builder accepts edges in any order, including duplicates, reversed
/// duplicates and self-loops; `build` normalises everything into the CSR
/// invariants documented on [`LabeledGraph`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `labels.len()` nodes.
    pub fn with_labels(labels: Vec<Label>) -> Self {
        GraphBuilder {
            labels,
            edges: Vec::new(),
        }
    }

    /// Adds a node with the given label, returning its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = self.labels.len() as NodeId;
        self.labels.push(label);
        id
    }

    /// Adds an undirected edge. Self-loops are silently dropped (the paper's
    /// model has none); duplicates are merged at `build` time.
    ///
    /// # Panics
    /// If either endpoint is not a node added earlier.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.labels.len() && (v as usize) < self.labels.len(),
            "edge ({u}, {v}) references a node that was never added (n={})",
            self.labels.len()
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Returns true if the undirected edge was added before (linear scan —
    /// intended for generator-time checks on small graphs only).
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edge insertions so far (before deduplication).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable [`LabeledGraph`].
    pub fn build(mut self) -> LabeledGraph {
        let n = self.labels.len();
        self.edges.sort_unstable();
        self.edges.dedup();

        let mut degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; acc as usize];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Edges were inserted in sorted (u, v) order with u < v, so each
        // node's list is already sorted: for node w, all smaller neighbours
        // arrive first (from pairs where w is the second endpoint, ordered by
        // the first), then larger ones (pairs where w is first). A debug
        // assertion guards the invariant.
        debug_assert!((0..n).all(|w| {
            let lo = offsets[w] as usize;
            let hi = offsets[w + 1] as usize;
            neighbors[lo..hi].windows(2).all(|p| p[0] < p[1])
        }));
        LabeledGraph::from_csr(self.labels, offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(5);
        let c = b.add_node(6);
        let d = b.add_node(7);
        b.add_edge(a, c);
        b.add_edge(d, a);
        assert_eq!(b.node_count(), 3);
        assert!(b.contains_edge(c, a));
        assert!(!b.contains_edge(c, d));
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "references a node")]
    fn edge_to_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_edge(0, 3);
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::with_labels(vec![1, 2]);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn adjacency_sorted_after_unordered_insertions() {
        let mut b = GraphBuilder::with_labels(vec![0; 6]);
        for &(u, v) in &[(5, 0), (0, 3), (4, 0), (0, 1), (2, 0)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }
}

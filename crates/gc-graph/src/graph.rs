//! The core immutable graph type.

use std::cmp::Ordering;
use std::fmt;

/// Identifier of a node inside a single [`LabeledGraph`] (0-based, dense).
pub type NodeId = u32;

/// A vertex label. The paper assumes labels come from an arbitrary domain
/// `U`; we represent them as `u32` (callers may intern strings if needed).
pub type Label = u32;

/// An immutable, vertex-labelled, undirected graph in CSR form.
///
/// Invariants (established by [`crate::GraphBuilder`]):
///
/// * adjacency lists are sorted ascending and contain no duplicates;
/// * each undirected edge `{u, v}` appears exactly twice: `v` in the list of
///   `u` and `u` in the list of `v`;
/// * there are no self-loops;
/// * `shape` is the shape of `labels` and the adjacency: the nodes ordered
///   by label, the degrees sorted descending, the short-cycle word and the
///   label runs (see [`LabeledGraph::nodes_by_label`],
///   [`LabeledGraph::degrees_desc`], [`LabeledGraph::short_cycles`] and
///   [`LabeledGraph::label_counts`]).
///
/// The structure is deliberately compact (`u32` everywhere) because datasets
/// hold thousands of graphs and queries are created at a high rate by the
/// workload generators.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LabeledGraph {
    pub(crate) labels: Vec<Label>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) neighbors: Vec<NodeId>,
    /// Laid out once at construction so a sub-iso test only reads it:
    /// `[..n]` are the node ids ordered by (label, id), `[n..2n]` the
    /// degrees sorted descending, `[2n]` the short-cycle word and `[2n+1..]`
    /// one `(label, end)` pair per distinct label, ascending, where `end`
    /// is where the label's nodes end in `[..n]`.
    shape: Box<[u32]>,
}

/// The longest cycle length [`LabeledGraph::short_cycles`] records. Rings
/// of 3 to 6 nodes are the ones molecules carry (benzene is a 6-ring) and
/// the ones GGSX's path features cannot see; lengths 3 and 4 alone give
/// almost all of the refusals on AIDS-shaped candidate sets, and the walk
/// grows exponentially with the length.
pub const CYCLE_MAX: usize = 6;

/// The short-cycle walk stops after this many neighbour reads per node
/// and per edge endpoint, and the graph's cycle word becomes
/// [`CYCLES_UNKNOWN`]. On AIDS-shaped graphs the walk reads 1.8 per unit
/// on average and 4.2 at most, so 64 leaves room for dense ring systems
/// and bounds graph construction at a constant factor of its input. A
/// graph dense enough to trip it would cost a walk far longer than the
/// tests it could save: a 12-clique reads over 50 000 from its first node.
const CYCLE_STEPS_PER_UNIT: usize = 64;

/// The cycle word of a graph whose short-cycle walk tripped its cap: the
/// lengths are unknown, so the word claims every one and refuses nothing.
pub const CYCLES_UNKNOWN: u32 = u32::MAX;

impl LabeledGraph {
    /// Builds a graph directly from node labels and an undirected edge list.
    ///
    /// Duplicate edges, reversed duplicates and self-loops are removed. Edge
    /// endpoints must be valid node indices (panics otherwise — this is a
    /// programming error, not an input error; use [`crate::io`] for parsing
    /// untrusted inputs).
    pub fn from_parts(labels: Vec<Label>, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = crate::GraphBuilder::with_labels(labels);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Completes a graph from its CSR arrays (which must already satisfy
    /// the adjacency invariants) by laying out its shape.
    pub(crate) fn from_csr(labels: Vec<Label>, offsets: Vec<u32>, neighbors: Vec<NodeId>) -> Self {
        let n = labels.len();
        let mut by_label: Vec<NodeId> = (0..n as NodeId).collect();
        by_label.sort_unstable_by_key(|&v| (labels[v as usize], v));
        let same_label = |a: &NodeId, b: &NodeId| labels[*a as usize] == labels[*b as usize];
        // The shape's one allocation, sized exactly: shrinking an
        // oversized one leaves its freed tail to fragment the heap.
        let runs = by_label.chunk_by(same_label).count();
        let mut shape = Vec::with_capacity(2 * n + 1 + 2 * runs);
        shape.extend_from_slice(&by_label);
        let degrees = offsets.windows(2).map(|w| w[1] - w[0]);
        // The degree slots are the cycle walk's scratch, then written again.
        shape.extend(degrees.clone());
        let cycles = short_cycles(&offsets, &neighbors, &mut shape[n..]);
        for (slot, d) in shape[n..].iter_mut().zip(degrees) {
            *slot = d;
        }
        shape[n..].sort_unstable_by(|a, b| b.cmp(a));
        shape.push(cycles);
        let mut end = 0;
        for run in by_label.chunk_by(same_label) {
            end += run.len() as u32;
            shape.extend([labels[run[0] as usize], end]);
        }
        LabeledGraph {
            labels,
            offsets,
            neighbors,
            shape: shape.into_boxed_slice(),
        }
    }

    /// The empty graph.
    pub fn empty() -> Self {
        Self::from_csr(Vec::new(), vec![0], Vec::new())
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Sorted list of neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the undirected edge `{u, v}` exists (O(log deg(u))).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids, `0..n`.
    #[inline]
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count() as NodeId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            idx: 0,
        }
    }

    /// Number of distinct labels appearing in the graph (the number of
    /// label runs laid out when the graph was built).
    #[inline]
    pub fn distinct_label_count(&self) -> usize {
        self.runs().len() / 2
    }

    /// Node ids ordered by label, ascending ids within a label.
    #[inline]
    pub fn nodes_by_label(&self) -> &[NodeId] {
        &self.shape[..self.node_count()]
    }

    /// The `(label, end)` pairs over [`LabeledGraph::nodes_by_label`],
    /// flattened.
    #[inline]
    fn runs(&self) -> &[u32] {
        &self.shape[2 * self.node_count() + 1..]
    }

    /// Each distinct label with its number of nodes, labels ascending.
    pub fn label_counts(&self) -> impl Iterator<Item = (Label, u32)> + '_ {
        let mut start = 0;
        self.runs().chunks_exact(2).map(move |run| {
            let count = run[1] - start;
            start = run[1];
            (run[0], count)
        })
    }

    /// The nodes labelled `l`, in ascending id order (empty if none).
    pub fn nodes_with_label(&self, l: Label) -> &[NodeId] {
        let mut start = 0;
        for run in self.runs().chunks_exact(2) {
            let end = run[1] as usize;
            match run[0].cmp(&l) {
                Ordering::Less => start = end,
                Ordering::Equal => return &self.nodes_by_label()[start..end],
                Ordering::Greater => break,
            }
        }
        &[]
    }

    /// Node degrees sorted descending.
    #[inline]
    pub fn degrees_desc(&self) -> &[u32] {
        let n = self.node_count();
        &self.shape[n..2 * n]
    }

    /// The lengths of the graph's short simple cycles: bit `k` is set when
    /// some simple cycle has exactly `k` nodes, for `3 ≤ k ≤` [`CYCLE_MAX`]
    /// (every other bit is clear), or the word is [`CYCLES_UNKNOWN`] when
    /// the walk that finds them passed its cap.
    #[inline]
    pub fn short_cycles(&self) -> u32 {
        self.shape[2 * self.node_count()]
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees_desc().first().map_or(0, |&d| d as usize)
    }

    /// Average degree `2|E| / |V|` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.node_count() as f64
        }
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Extracts the subgraph spanned by a set of undirected edges of `self`.
    ///
    /// Node ids are remapped densely in order of first appearance; labels are
    /// copied from the source. Returns the subgraph and the mapping from new
    /// node id to original node id. Duplicate / reversed edges are merged.
    pub fn edge_subgraph(&self, edges: &[(NodeId, NodeId)]) -> (LabeledGraph, Vec<NodeId>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_count()];
        let mut back: Vec<NodeId> = Vec::new();
        let mut labels: Vec<Label> = Vec::new();
        let mut remapped: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        let intern = |orig: NodeId,
                      map: &mut Vec<Option<NodeId>>,
                      back: &mut Vec<NodeId>,
                      labels: &mut Vec<Label>| {
            if let Some(id) = map[orig as usize] {
                id
            } else {
                let id = back.len() as NodeId;
                map[orig as usize] = Some(id);
                back.push(orig);
                labels.push(self.label(orig));
                id
            }
        };
        for &(u, v) in edges {
            let nu = intern(u, &mut map, &mut back, &mut labels);
            let nv = intern(v, &mut map, &mut back, &mut labels);
            remapped.push((nu, nv));
        }
        (LabeledGraph::from_parts(labels, &remapped), back)
    }

    /// Relabels every node through `f`, preserving structure.
    pub fn relabeled(&self, mut f: impl FnMut(NodeId, Label) -> Label) -> LabeledGraph {
        let labels = self
            .nodes()
            .map(|v| f(v, self.label(v)))
            .collect::<Vec<_>>();
        Self::from_csr(labels, self.offsets.clone(), self.neighbors.clone())
    }

    /// Rough in-memory footprint in bytes (used for space-overhead
    /// experiments, paper §7.3).
    pub fn memory_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<Label>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
            + self.shape.len() * std::mem::size_of::<u32>()
    }
}

/// The cycle word of the CSR graph `(offsets, neighbors)`, given each
/// node's degree in `core` (which it overwrites).
///
/// Nodes off the graph's 2-core lie on no cycle, so leaves are peeled
/// first, chain by chain: a node left with one neighbour goes, and so may
/// that neighbour. Then a depth-first walk from each core node `s` over
/// core nodes with larger ids, along paths of at most [`CYCLE_MAX`] nodes,
/// sets bit `k` when a `k`-node path leads back to `s`. Each simple cycle
/// is found from its smallest node, so the word is exact unless the walk
/// reads more than [`CYCLE_STEPS_PER_UNIT`] neighbours per node and edge
/// endpoint; then it is [`CYCLES_UNKNOWN`].
fn short_cycles(offsets: &[u32], neighbors: &[NodeId], core: &mut [u32]) -> u32 {
    struct Walk<'a> {
        offsets: &'a [u32],
        neighbors: &'a [NodeId],
        core: &'a [u32],
        path: [NodeId; CYCLE_MAX],
        steps_left: usize,
        word: u32,
    }
    impl<'a> Walk<'a> {
        /// Extends `path[..len]` by each core neighbour of its last node;
        /// `None` when the step cap trips.
        fn extend(&mut self, len: usize) -> Option<()> {
            let (s, v) = (self.path[0], self.path[len - 1] as usize);
            let all: &'a [NodeId] = self.neighbors;
            for &w in &all[self.offsets[v] as usize..self.offsets[v + 1] as usize] {
                self.steps_left = self.steps_left.checked_sub(1)?;
                if w == s && len >= 3 {
                    self.word |= 1 << len;
                } else if w > s
                    && len < CYCLE_MAX
                    && self.core[w as usize] > 0
                    && !self.path[1..len].contains(&w)
                {
                    self.path[len] = w;
                    self.extend(len + 1)?;
                }
            }
            Some(())
        }
    }
    let n = core.len();
    for leaf in 0..n {
        let mut v = leaf;
        while core[v] == 1 {
            core[v] = 0;
            let u = neighbors[offsets[v] as usize..offsets[v + 1] as usize]
                .iter()
                .map(|&u| u as usize)
                .find(|&u| core[u] > 0)
                .expect("a node of core degree 1 keeps one neighbour");
            core[u] -= 1;
            v = u;
        }
    }
    let mut walk = Walk {
        offsets,
        neighbors,
        core,
        path: [0; CYCLE_MAX],
        steps_left: CYCLE_STEPS_PER_UNIT * (n + neighbors.len()),
        word: 0,
    };
    for s in 0..n as NodeId {
        walk.path[0] = s;
        if walk.core[s as usize] > 0 && walk.extend(1).is_none() {
            return CYCLES_UNKNOWN;
        }
    }
    walk.word
}

impl fmt::Debug for LabeledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LabeledGraph(n={}, m={}, labels={:?}, edges={:?})",
            self.node_count(),
            self.edge_count(),
            self.labels,
            self.edges().collect::<Vec<_>>()
        )
    }
}

/// Iterator over undirected edges; see [`LabeledGraph::edges`].
pub struct EdgeIter<'g> {
    graph: &'g LabeledGraph,
    u: NodeId,
    idx: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let n = self.graph.node_count() as NodeId;
        while self.u < n {
            let nbrs = self.graph.neighbors(self.u);
            while self.idx < nbrs.len() {
                let v = nbrs[self.idx];
                self.idx += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> LabeledGraph {
        LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.distinct_label_count(), 3);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = LabeledGraph::from_parts(vec![0; 5], &[(4, 0), (2, 1), (0, 2), (3, 0)]);
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted");
            for &w in nbrs {
                assert!(g.has_edge(w, v), "symmetric");
            }
        }
    }

    #[test]
    fn duplicate_and_self_edges_removed() {
        let g = LabeledGraph::from_parts(vec![0, 0], &[(0, 1), (1, 0), (0, 1), (0, 0)]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::empty();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let disconnected = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1)]);
        assert!(!disconnected.is_connected());
        let single = LabeledGraph::from_parts(vec![7], &[]);
        assert!(single.is_connected());
    }

    #[test]
    fn edge_subgraph_remaps_densely() {
        let g = LabeledGraph::from_parts(vec![10, 11, 12, 13], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (sub, back) = g.edge_subgraph(&[(2, 3), (3, 0)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(back, vec![2, 3, 0]);
        assert_eq!(sub.labels(), &[12, 13, 10]);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn relabeled_preserves_structure() {
        let g = triangle();
        let r = g.relabeled(|_, l| l + 100);
        assert_eq!(r.labels(), &[100, 101, 102]);
        assert_eq!(r.edge_count(), 3);
        assert!(r.has_edge(0, 1));
    }

    /// `n` nodes labelled 0 on a ring.
    fn ring(n: u32) -> LabeledGraph {
        LabeledGraph::from_parts(
            vec![0; n as usize],
            &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
        )
    }

    /// The complete graph on twelve nodes, dense enough to trip the
    /// short-cycle walk's cap.
    fn clique12() -> LabeledGraph {
        let edges: Vec<(NodeId, NodeId)> = (0..12)
            .flat_map(|u| (u + 1..12).map(move |v| (u, v)))
            .collect();
        LabeledGraph::from_parts((0..12).map(|v| v % 3).collect(), &edges)
    }

    /// One graph or more from every construction path: built, parsed,
    /// randomly generated, BFS and random-walk subgraphs, `edge_subgraph`,
    /// `relabeled` and `empty`.
    fn every_construction_path() -> Vec<LabeledGraph> {
        use crate::random::{
            bfs_edge_subgraph, random_connected_graph, random_walk_subgraph, LabelModel,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut graphs = vec![
            LabeledGraph::empty(),
            LabeledGraph::from_parts(vec![7], &[]),
            LabeledGraph::from_parts(vec![4, 4, 4, 4], &[(0, 1), (2, 3)]),
            LabeledGraph::from_parts(vec![3, 1, 3, 0, 1], &[(0, 1), (0, 2), (0, 4), (3, 4)]),
            triangle(),
            triangle().relabeled(|_, _| 9),
            triangle().relabeled(|v, _| 5 - v),
            triangle().edge_subgraph(&[(0, 1)]).0,
            ring(4),
            ring(6),
            ring(7),
            // A hexagon with a chord: cycles of 4, 4 and 6 nodes.
            LabeledGraph::from_parts(
                vec![0, 1, 0, 1, 0, 1],
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
            ),
            clique12(),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        let labels = LabelModel::zipf(12, 1.2).sampler();
        for (n, degree) in [
            (1usize, 2.5),
            (2, 2.5),
            (9, 2.5),
            (9, 4.0),
            (40, 2.5),
            (40, 3.5),
            (120, 2.5),
        ] {
            let g = random_connected_graph(&mut rng, n, degree, &labels);
            graphs.extend(bfs_edge_subgraph(&g, 0, 6));
            graphs.extend(random_walk_subgraph(&g, 0, 6, &mut rng));
            graphs.push(g.relabeled(|v, l| l + v % 3));
            graphs.push(g);
        }
        let mut text = Vec::new();
        crate::io::write_dataset(&mut text, &crate::GraphDataset::new(graphs.clone())).unwrap();
        let parsed = crate::io::read_dataset(&text[..]).unwrap();
        graphs.extend(parsed.iter().map(|(_, g)| g.clone()));
        graphs
    }

    /// The cached distinct-label count equals a recount of the label vector
    /// on every construction path and travels with `Clone` and `PartialEq`.
    #[test]
    fn cached_distinct_label_count_matches_recount() {
        let recount = |g: &LabeledGraph| {
            let mut ls = g.labels().to_vec();
            ls.sort_unstable();
            ls.dedup();
            ls.len()
        };
        for g in &every_construction_path() {
            assert_eq!(g.distinct_label_count(), recount(g), "{g:?}");
            let copy = g.clone();
            assert_eq!(copy.distinct_label_count(), g.distinct_label_count());
            assert_eq!(&copy, g);
        }
        // Same structure, different label multiset: the counts differ and
        // so do the graphs.
        assert_ne!(triangle(), triangle().relabeled(|_, _| 9));
    }

    /// Bit `k` set when `g` has a simple cycle of `k` nodes, `3 ≤ k ≤
    /// CYCLE_MAX`: every sequence of distinct nodes closed by edges, from
    /// every start and in both directions, with no pruning.
    fn brute_force_cycles(g: &LabeledGraph) -> u32 {
        fn walk(g: &LabeledGraph, path: &mut Vec<NodeId>, word: &mut u32) {
            let (first, last) = (path[0], *path.last().unwrap());
            if path.len() >= 3 && g.has_edge(last, first) {
                *word |= 1 << path.len();
            }
            if path.len() == CYCLE_MAX {
                return;
            }
            for w in g.nodes() {
                if g.has_edge(last, w) && !path.contains(&w) {
                    path.push(w);
                    walk(g, path, word);
                    path.pop();
                }
            }
        }
        let mut word = 0;
        for v in g.nodes() {
            walk(g, &mut vec![v], &mut word);
        }
        word
    }

    /// The shape equals a recount on every construction path, and `Clone`,
    /// `PartialEq` and `Hash` agree on it: nodes by label, degrees, label
    /// runs, and the short-cycle word, which only the 12-clique leaves
    /// unknown.
    #[test]
    fn shape_matches_recount() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let hash = |g: &LabeledGraph| {
            let mut h = DefaultHasher::new();
            g.hash(&mut h);
            h.finish()
        };
        for g in &every_construction_path() {
            let mut by_label: Vec<NodeId> = g.nodes().collect();
            by_label.sort_by_key(|&v| g.label(v));
            assert_eq!(g.nodes_by_label(), &by_label[..], "{g:?}");
            let mut degrees: Vec<u32> = g.nodes().map(|v| g.degree(v) as u32).collect();
            degrees.sort_by(|a, b| b.cmp(a));
            assert_eq!(g.degrees_desc(), &degrees[..], "{g:?}");
            assert_eq!(g.max_degree(), degrees.first().map_or(0, |&d| d as usize));
            for l in g.labels().iter().copied().chain([0, 99]) {
                let with: Vec<NodeId> = g.nodes().filter(|&v| g.label(v) == l).collect();
                assert_eq!(g.nodes_with_label(l), &with[..], "label {l} in {g:?}");
            }
            let mut runs: Vec<(Label, u32)> = Vec::new();
            for &v in &by_label {
                match runs.last_mut() {
                    Some((l, count)) if *l == g.label(v) => *count += 1,
                    _ => runs.push((g.label(v), 1)),
                }
            }
            assert_eq!(g.label_counts().collect::<Vec<_>>(), runs, "{g:?}");
            assert_eq!(g.distinct_label_count(), runs.len());
            if *g == clique12() {
                assert_eq!(g.short_cycles(), CYCLES_UNKNOWN);
                assert_eq!(brute_force_cycles(g), 0b111_1000);
            } else {
                assert_eq!(g.short_cycles(), brute_force_cycles(g), "{g:?}");
            }
            // Derived graphs that equal `g` carry an equal shape.
            for copy in [g.clone(), g.relabeled(|_, l| l)] {
                assert_eq!(&copy, g);
                assert_eq!(copy.nodes_by_label(), g.nodes_by_label());
                assert_eq!(copy.degrees_desc(), g.degrees_desc());
                assert_eq!(copy.short_cycles(), g.short_cycles());
                assert_eq!(hash(&copy), hash(g));
            }
        }
    }

    #[test]
    fn short_cycles_of_small_rings() {
        assert_eq!(triangle().short_cycles(), 1 << 3);
        assert_eq!(ring(4).short_cycles(), 1 << 4);
        assert_eq!(ring(6).short_cycles(), 1 << 6);
        // A 7-ring is longer than CYCLE_MAX: no bit.
        assert_eq!(ring(7).short_cycles(), 0);
        assert_eq!(LabeledGraph::empty().short_cycles(), 0);
        // Two triangles sharing an edge also close a 4-cycle.
        let diamond =
            LabeledGraph::from_parts(vec![0; 4], &[(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)]);
        assert_eq!(diamond.short_cycles(), 1 << 3 | 1 << 4);
    }

    #[test]
    fn memory_estimate_positive() {
        assert!(triangle().memory_bytes() > 0);
    }
}

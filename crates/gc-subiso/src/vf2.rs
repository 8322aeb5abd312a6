//! VF2 \[Cordella, Foggia, Sansone, Vento — TPAMI 2004\], adapted to
//! non-induced, vertex-labelled, undirected subgraph isomorphism.
//!
//! The search is the classic recipe: depth-first extension of a partial
//! mapping, connectivity-driven candidate generation (a pattern node with a
//! mapped neighbour, its *anchor*, is tried only against the target
//! neighbours of the anchor's image), plus the feasibility rules — label
//! equality, injectivity, degree dominance, mapped-neighbour consistency
//! and a label-aware one-step lookahead.
//!
//! **Most constrained node first.** VF2 leaves the order in which pattern
//! nodes are matched open; this one follows RI and VF2++. The next node is
//! the unplaced one with the most already-placed neighbours, then the
//! fewest same-label nodes *in the pattern*, then the highest degree, then
//! the lowest id; its anchor is its earliest-placed neighbour. A node with
//! no placed neighbour starts a connected component and is tried only
//! against the target nodes carrying its label. Any order enumerates the
//! same embeddings, so `found` and embedding counts do not depend on it;
//! `nodes_expanded` does. The order reads the pattern alone, never the
//! target, so [`Plan`] fixes it once before any search, together with what
//! each depth's feasibility test needs: the depths of its earlier-mapped
//! neighbours other than the anchor (the anchor edge is implied, since
//! candidates are drawn from the anchor image's neighbours) and its
//! lookahead table. VF2+ (`vf2_plus.rs`) is this engine with one change:
//! its plan counts a label's rarity in the target ([`Rarity::Target`]),
//! so it builds one plan per target.
//!
//! **Label-aware lookahead.** The pattern neighbours of a node `u` mapped
//! at later depths will each need their own target node, unused now,
//! adjacent to `u`'s image and carrying their label. So a candidate `v`
//! for `u` is cut unless, for every label `l` that `k` of those neighbours
//! carry, `v` has at least `k` unused neighbours labelled `l` (VF2++'s
//! cutting rule, and the pruning the paper's VF2+ is credited with). The
//! table is `(label, count)` pairs per depth. The rule is necessary for
//! every embedding, so decisions, counts and embeddings are those of the
//! label-blind count it replaces; it implies that count, so on the same
//! order its search tree is a subtree of the label-blind one and
//! `nodes_expanded` can only fall.
//!
//! **Quick reject before any plan.** A pair is refused without a search
//! node when the pattern has a short cycle (3 to 6 nodes) of a length the
//! target has none of, or when sizes, label counts or sorted degrees do
//! not fit. Both read the shape each graph lays out when it is built: a
//! word of short-cycle lengths, and label runs over the nodes ordered by
//! label, which the component roots also read. The cycle rule is what a
//! path-feature filter cannot see: a carbon triangle or 4-cycle survives
//! GGSX against most carbon-rich graphs, where a search would build every
//! tree-shaped partial match before the closing edge fails.
//!
//! [`Matcher::contains_each`] builds the plan once and reuses the search
//! buffers across every target, which is how Method M's verifier sweeps a
//! subgraph query's candidate set; it equals the per-target loop because
//! the plan ignores the target.

use crate::common::{quick_reject, Found, Work};
use crate::{MatchConfig, MatchOutcome, Matcher};
use gc_graph::{Label, LabeledGraph, NodeId};
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// The VF2 matcher. Stateless; construct once and reuse freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct Vf2;

impl Vf2 {
    /// Creates a new VF2 matcher.
    pub fn new() -> Self {
        Vf2
    }
}

impl Matcher for Vf2 {
    fn name(&self) -> &'static str {
        "VF2"
    }

    fn contains_with(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
    ) -> MatchOutcome {
        Compiled::vf2(pattern).decide(target, cfg)
    }

    fn contains_each(
        &self,
        pattern: &LabeledGraph,
        targets: &[&LabeledGraph],
        cfg: &MatchConfig,
        out: &mut Vec<MatchOutcome>,
    ) {
        Compiled::vf2(pattern).decide_each(targets, cfg, out);
    }

    fn find_embedding(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> Option<Vec<NodeId>> {
        Compiled::vf2(pattern).find(target)
    }

    fn count_embeddings(&self, pattern: &LabeledGraph, target: &LabeledGraph, limit: u64) -> u64 {
        Compiled::vf2(pattern).count(target, limit)
    }
}

/// Shared enumeration driver used by all three entry points (and reused by
/// the other matchers in this crate).
pub(crate) struct Driver {
    mode: Mode,
    pub(crate) found: bool,
    pub(crate) count: u64,
    pub(crate) embedding: Option<Vec<NodeId>>,
}

enum Mode {
    Decide,
    Find,
    Count { limit: u64 },
}

impl Driver {
    pub(crate) fn decide() -> Self {
        Driver {
            mode: Mode::Decide,
            found: false,
            count: 0,
            embedding: None,
        }
    }

    pub(crate) fn find() -> Self {
        Driver {
            mode: Mode::Find,
            found: false,
            count: 0,
            embedding: None,
        }
    }

    pub(crate) fn count(limit: u64) -> Self {
        Driver {
            mode: Mode::Count { limit },
            found: false,
            count: 0,
            embedding: None,
        }
    }

    /// Records a complete embedding; returns whether to keep searching.
    pub(crate) fn on_embedding(&mut self, mapping: &[Option<NodeId>]) -> Found {
        self.on_embedding_with(|| mapping.iter().map(|m| m.expect("complete")).collect())
    }

    /// [`Driver::on_embedding`] for a search that keeps its mapping in
    /// another form: `mapping` (pattern node → target node) is built only
    /// when the embedding itself is wanted.
    pub(crate) fn on_embedding_with(&mut self, mapping: impl FnOnce() -> Vec<NodeId>) -> Found {
        self.found = true;
        self.count += 1;
        match self.mode {
            Mode::Decide => Found::Stop,
            Mode::Find => {
                self.embedding = Some(mapping());
                Found::Stop
            }
            Mode::Count { limit } => {
                if self.count >= limit {
                    Found::Stop
                } else {
                    Found::Continue
                }
            }
        }
    }
}

/// One depth of a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Step {
    /// The pattern node mapped at this depth.
    pub(crate) node: NodeId,
    pub(crate) label: Label,
    pub(crate) degree: u32,
    /// Depth of the anchor: candidates are the target neighbours of its
    /// image. `None` for the first node of each connected component, whose
    /// candidates are the target nodes with its label.
    pub(crate) anchor: Option<u32>,
    /// `back[back_lo..back_hi]`: depths of the earlier-mapped pattern
    /// neighbours other than the anchor, in ascending node-id order.
    pub(crate) back_lo: u32,
    pub(crate) back_hi: u32,
    /// `back[back_hi..ahead_hi]`: the lookahead table, `(label, count)`
    /// pairs laid flat, one per label among the pattern neighbours mapped
    /// at later depths, in node-id order of their first such neighbour.
    /// The candidate needs `count` unused target neighbours carrying
    /// `label`.
    pub(crate) ahead_hi: u32,
}

/// Where a plan counts how rare a pattern node's label is.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rarity<'t> {
    /// The pattern nodes carrying it (VF2): the plan serves every target.
    Pattern,
    /// The target nodes carrying it (VF2+): the plan serves that target.
    Target(&'t LabeledGraph),
}

/// The visiting order for one pattern, with each depth's feasibility inputs
/// precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    /// Each step's back depths, then its lookahead pairs, step after step.
    pub(crate) back: Vec<u32>,
}

impl Plan {
    /// Orders the pattern most constrained node first (module doc) in
    /// O((|V| + |E|) log |V|). Each node's priority is one packed integer
    /// ([`Priority`]). Placing a node pushes a fresh entry for each
    /// unplaced neighbour onto a lazy heap; an entry is never updated, but
    /// a node's newer entries outrank its older ones, so the first of its
    /// entries to surface is its current one and later ones are skipped as
    /// placed. While the pattern, and a target that rarity is counted in,
    /// have below 2^16 nodes, the entries are `u64`s, half the bytes to
    /// move and compare of the `u128`s larger graphs need, in the same
    /// order.
    pub(crate) fn build(p: &LabeledGraph, rarity: Rarity<'_>) -> Plan {
        let t = match rarity {
            Rarity::Pattern => 0,
            Rarity::Target(t) => t.node_count(),
        };
        if p.node_count().max(t) <= usize::from(u16::MAX) {
            Self::build_with::<u64>(p, rarity)
        } else {
            Self::build_with::<u128>(p, rarity)
        }
    }

    pub(crate) fn build_with<K: Priority>(p: &LabeledGraph, rarity: Rarity<'_>) -> Plan {
        const UNPLACED: u32 = u32::MAX;
        let n = p.node_count();
        // Per pattern node, in one buffer: its priority with no placed
        // neighbour, its depth once placed and its placed-neighbour count.
        #[derive(Clone, Copy)]
        struct Node<K> {
            fixed: K,
            depth: u32,
            placed_nbrs: u32,
        }
        let mut node = vec![
            Node {
                fixed: K::fixed(0, 0, 0),
                depth: UNPLACED,
                placed_nbrs: 0,
            };
            n
        ];
        for same in p
            .nodes_by_label()
            .chunk_by(|&a, &b| p.label(a) == p.label(b))
        {
            let rare = match rarity {
                Rarity::Pattern => same.len(),
                Rarity::Target(t) => t.nodes_with_label(p.label(same[0])).len(),
            } as u32;
            for &u in same {
                node[u as usize].fixed = K::fixed(rare, p.degree(u) as u32, u);
            }
        }
        // Each edge pushes at most one endpoint, once.
        let mut frontier = BinaryHeap::with_capacity(p.edge_count());
        let mut steps = Vec::with_capacity(n);
        while steps.len() < n {
            let u = match frontier.pop() {
                Some(k) => K::node(k),
                // No unplaced node has a placed neighbour: a connected
                // component starts. The first starts at the best node, by
                // one scan. At the second, every unplaced node is queued
                // with no placed neighbour, once, so later starts come from
                // the heap and the build stays O((|V| + |E|) log |V|).
                None if steps.is_empty() => {
                    K::node(node.iter().map(|x| x.fixed).max().expect("n > 0"))
                }
                None => {
                    frontier.extend(node.iter().filter(|x| x.depth == UNPLACED).map(|x| x.fixed));
                    continue;
                }
            };
            if node[u as usize].depth != UNPLACED {
                continue;
            }
            node[u as usize].depth = steps.len() as u32;
            let mut anchor: Option<u32> = None;
            for &w in p.neighbors(u) {
                let x = &mut node[w as usize];
                match x.depth {
                    UNPLACED => {
                        x.placed_nbrs += 1;
                        frontier.push(x.fixed.placed(x.placed_nbrs));
                    }
                    dw => anchor = Some(anchor.map_or(dw, |a| a.min(dw))),
                }
            }
            steps.push(Step {
                node: u,
                label: p.label(u),
                degree: p.degree(u) as u32,
                anchor,
                back_lo: 0,
                back_hi: 0,
                ahead_hi: 0,
            });
        }
        // Each edge adds one back depth at its later endpoint, unless it is
        // the anchor's, and counts its later endpoint's label in its
        // earlier endpoint's pairs: at most 3|E| entries in all.
        let mut back = Vec::with_capacity(3 * p.edge_count());
        for (d, step) in (0..).zip(steps.iter_mut()) {
            step.back_lo = back.len() as u32;
            let nbrs = p.neighbors(step.node);
            back.extend(
                nbrs.iter()
                    .map(|&w| node[w as usize].depth)
                    .filter(|&dw| dw < d && Some(dw) != step.anchor),
            );
            step.back_hi = back.len() as u32;
            let pairs = back.len();
            for &w in nbrs {
                if node[w as usize].depth > d {
                    let l = p.label(w);
                    match back[pairs..].chunks_exact_mut(2).find(|pair| pair[0] == l) {
                        Some(pair) => pair[1] += 1,
                        None => back.extend([l, 1]),
                    }
                }
            }
            step.ahead_hi = back.len() as u32;
        }
        Plan { steps, back }
    }
}

/// A pattern node's packed priority on the plan's heap, larger is better:
/// placed neighbours, then `!rarity`, then degree, then `!id`, each in a
/// quarter of the integer.
pub(crate) trait Priority: Ord + Copy {
    /// The priority of node `u` with no placed neighbour.
    fn fixed(rarity: u32, degree: u32, u: NodeId) -> Self;
    /// `self`, which has no placed neighbour, with `placed` of them.
    fn placed(self, placed: u32) -> Self;
    /// The node whose priority this is.
    fn node(self) -> NodeId;
}

impl Priority for u128 {
    fn fixed(rarity: u32, degree: u32, u: NodeId) -> Self {
        u128::from(!rarity) << 64 | u128::from(degree) << 32 | u128::from(!u)
    }

    fn placed(self, placed: u32) -> Self {
        self | u128::from(placed) << 96
    }

    fn node(self) -> NodeId {
        !(self as u32)
    }
}

/// 16-bit fields: exact when the pattern, and the graph rarities are
/// counted in, have at most `u16::MAX` nodes, so rarities, degrees, placed
/// counts and ids all fit.
impl Priority for u64 {
    fn fixed(rarity: u32, degree: u32, u: NodeId) -> Self {
        u64::from(!(rarity as u16)) << 32 | u64::from(degree as u16) << 16 | u64::from(!(u as u16))
    }

    fn placed(self, placed: u32) -> Self {
        self | u64::from(placed as u16) << 48
    }

    fn node(self) -> NodeId {
        NodeId::from(!(self as u16))
    }
}

/// A pattern prepared for tests against any number of targets: its plan
/// (built on the first target that survives quick reject, or on each one
/// when rarity is counted in the target) and search buffers reused from
/// one target to the next.
pub(crate) struct Compiled<'p> {
    pattern: &'p LabeledGraph,
    /// VF2+'s order: a plan per target, [`Rarity::Target`].
    target_rarity: bool,
    plan: Option<Plan>,
    /// `img[d]`: the target node mapped at depth `d`. Like `used`, sized
    /// at the first search, so a pair quick reject refuses allocates
    /// nothing.
    img: Vec<NodeId>,
    /// Target nodes in the current partial mapping; all `false` between
    /// searches (every descent unmarks before it returns).
    used: Vec<bool>,
}

impl<'p> Compiled<'p> {
    /// VF2: one plan, rarity counted in the pattern.
    pub(crate) fn vf2(pattern: &'p LabeledGraph) -> Self {
        Self::new(pattern, false)
    }

    /// VF2+: a plan per target, rarity counted in the target.
    pub(crate) fn vf2_plus(pattern: &'p LabeledGraph) -> Self {
        Self::new(pattern, true)
    }

    fn new(pattern: &'p LabeledGraph, target_rarity: bool) -> Self {
        Compiled {
            pattern,
            target_rarity,
            plan: None,
            img: Vec::new(),
            used: Vec::new(),
        }
    }

    pub(crate) fn decide(&mut self, target: &LabeledGraph, cfg: &MatchConfig) -> MatchOutcome {
        self.run(target, cfg, &mut Driver::decide())
    }

    pub(crate) fn decide_each(
        &mut self,
        targets: &[&LabeledGraph],
        cfg: &MatchConfig,
        out: &mut Vec<MatchOutcome>,
    ) {
        out.extend(targets.iter().map(|t| self.decide(t, cfg)));
    }

    pub(crate) fn find(&mut self, target: &LabeledGraph) -> Option<Vec<NodeId>> {
        let mut driver = Driver::find();
        self.run(target, &MatchConfig::UNBOUNDED, &mut driver);
        driver.embedding
    }

    pub(crate) fn count(&mut self, target: &LabeledGraph, limit: u64) -> u64 {
        let mut driver = Driver::count(limit);
        self.run(target, &MatchConfig::UNBOUNDED, &mut driver);
        driver.count
    }

    fn run(
        &mut self,
        target: &LabeledGraph,
        cfg: &MatchConfig,
        driver: &mut Driver,
    ) -> MatchOutcome {
        if self.pattern.node_count() == 0 {
            // The empty pattern embeds vacuously (one empty embedding).
            driver.on_embedding(&[]);
            return MatchOutcome {
                found: true,
                complete: true,
                nodes_expanded: 0,
            };
        }
        let mut work = Work::new(cfg.budget);
        if !quick_reject(self.pattern, target) {
            let pattern = self.pattern;
            let plan = if self.target_rarity {
                self.plan
                    .insert(Plan::build(pattern, Rarity::Target(target)))
            } else {
                self.plan
                    .get_or_insert_with(|| Plan::build(pattern, Rarity::Pattern))
            };
            self.img.resize(pattern.node_count(), 0);
            if self.used.len() < target.node_count() {
                self.used.resize(target.node_count(), false);
            }
            let mut st = Search {
                plan,
                t: target,
                img: &mut self.img,
                used: &mut self.used,
            };
            let _ = st.search(0, &mut work, driver);
        }
        MatchOutcome {
            found: driver.found,
            complete: !work.exhausted,
            nodes_expanded: work.nodes,
        }
    }
}

/// One search of a compiled pattern against one target.
struct Search<'a> {
    plan: &'a Plan,
    t: &'a LabeledGraph,
    img: &'a mut [NodeId],
    used: &'a mut [bool],
}

impl Search<'_> {
    /// VF2 feasibility of mapping `step`'s pattern node `u` to `v`.
    #[inline]
    fn feasible(&self, step: &Step, v: NodeId) -> bool {
        let t = self.t;
        if step.label != t.label(v) || self.used[v as usize] {
            return false;
        }
        if step.degree as usize > t.degree(v) {
            return false;
        }
        // Consistency: every mapped neighbour of u must map to a neighbour
        // of v (non-induced: no converse requirement). The anchor's edge
        // holds by construction of the candidates.
        for &b in &self.plan.back[step.back_lo as usize..step.back_hi as usize] {
            if !t.has_edge(self.img[b as usize], v) {
                return false;
            }
        }
        // Label-aware one-step lookahead: each pattern neighbour of u mapped
        // at a later depth needs its own unused target neighbour of v with
        // its label. Per label `l` counted `k` times, v needs `k` unused
        // neighbours labelled `l`.
        let nbrs = t.neighbors(v);
        let ahead = &self.plan.back[step.back_hi as usize..step.ahead_hi as usize];
        ahead.chunks_exact(2).all(|pair| {
            let (l, k) = (pair[0], pair[1]);
            let mut free = 0;
            nbrs.iter().any(|&x| {
                free += ((t.label(x) == l) & !self.used[x as usize]) as u32;
                free == k
            })
        })
    }

    fn search(&mut self, depth: usize, work: &mut Work, driver: &mut Driver) -> ControlFlow<()> {
        let plan = self.plan;
        let Some(step) = plan.steps.get(depth) else {
            let img = &*self.img;
            return match driver.on_embedding_with(|| {
                let mut mapping = vec![0; img.len()];
                for (s, &v) in plan.steps.iter().zip(img) {
                    mapping[s.node as usize] = v;
                }
                mapping
            }) {
                Found::Stop => ControlFlow::Break(()),
                Found::Continue => ControlFlow::Continue(()),
            };
        };
        let t = self.t;
        match step.anchor {
            // Candidates: target neighbours of the anchor's image.
            Some(a) => {
                for &v in t.neighbors(self.img[a as usize]) {
                    work.step()?;
                    if self.feasible(step, v) {
                        self.descend(depth, v, work, driver)?;
                    }
                }
            }
            None => {
                for &v in t.nodes_with_label(step.label) {
                    work.step()?;
                    if self.feasible(step, v) {
                        self.descend(depth, v, work, driver)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    #[inline]
    fn descend(
        &mut self,
        depth: usize,
        v: NodeId,
        work: &mut Work,
        driver: &mut Driver,
    ) -> ControlFlow<()> {
        self.img[depth] = v;
        self.used[v as usize] = true;
        let flow = self.search(depth + 1, work, driver);
        self.used[v as usize] = false;
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_embedding;

    fn path(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    #[test]
    fn finds_path_in_cycle() {
        let p = path(&[0, 0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let m = Vf2::new();
        assert!(m.contains(&p, &t));
        let emb = m.find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn respects_labels() {
        let p = path(&[0, 1]);
        let t = path(&[0, 0, 0]);
        assert!(!Vf2::new().contains(&p, &t));
    }

    #[test]
    fn non_induced_semantics() {
        // A 3-path embeds into a triangle even though the triangle has the
        // extra chord (induced iso would reject).
        let p = path(&[0, 0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert!(Vf2::new().contains(&p, &t));
    }

    #[test]
    fn counts_embeddings_in_triangle() {
        // An edge with two identically-labelled endpoints has 6 embeddings
        // into a triangle (3 edges × 2 orientations).
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(Vf2::new().count_embeddings(&p, &t, u64::MAX), 6);
    }

    #[test]
    fn count_respects_limit() {
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(Vf2::new().count_embeddings(&p, &t, 2), 2);
    }

    #[test]
    fn empty_pattern_trivially_contained() {
        let p = LabeledGraph::empty();
        let t = path(&[0, 1]);
        let m = Vf2::new();
        assert!(m.contains(&p, &t));
        assert_eq!(m.count_embeddings(&p, &t, u64::MAX), 1);
        assert_eq!(m.find_embedding(&p, &t), Some(vec![]));
    }

    #[test]
    fn disconnected_pattern() {
        let p = LabeledGraph::from_parts(vec![0, 1, 2, 3], &[(0, 1), (2, 3)]);
        let t = LabeledGraph::from_parts(vec![0, 1, 9, 2, 3], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let m = Vf2::new();
        assert!(m.contains(&p, &t));
        let emb = m.find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A label-free 8-clique pattern into a 12-clique with budget 1.
        let n = 8u32;
        let mut pe = vec![];
        for i in 0..n {
            for j in i + 1..n {
                pe.push((i, j));
            }
        }
        let p = LabeledGraph::from_parts(vec![0; n as usize], &pe);
        let m_t = 12u32;
        let mut te = vec![];
        for i in 0..m_t {
            for j in i + 1..m_t {
                te.push((i, j));
            }
        }
        let t = LabeledGraph::from_parts(vec![0; m_t as usize], &te);
        let out = Vf2::new().contains_with(&p, &t, &MatchConfig::bounded(1));
        assert!(!out.complete);
        assert!(!out.found);
        // Unbounded succeeds.
        assert!(Vf2::new().contains(&p, &t));
    }

    #[test]
    fn deterministic_work_count() {
        let p = path(&[0, 1, 0, 1]);
        let t = LabeledGraph::from_parts(
            vec![0, 1, 0, 1, 0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        );
        let a = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        let b = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert_eq!(a, b);
        assert!(a.nodes_expanded > 0);
    }

    #[test]
    fn pattern_larger_than_target_rejected_without_search() {
        let p = path(&[0, 0, 0, 0]);
        let t = path(&[0, 0]);
        let out = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert!(!out.found);
        assert_eq!(out.nodes_expanded, 0);
    }

    #[test]
    fn plan_visits_the_most_constrained_node_first() {
        // A 3-1-2-0 chain hung off a triangle 0-1-5, a leaf 8 on 0, a
        // separate edge 6-7 and an isolated node 9. Labels: 3 is 1, 4 is 2,
        // 8 and 9 are 3, the rest 0.
        //
        // 3 first: no node has a placed neighbour, 3 and 4 have the rarest
        // labels, and 3 the higher degree. 4 beats 2 (one placed neighbour
        // each) on rarity; 0 beats 5 after 1 on degree; 5 (two placed
        // neighbours) beats the rarer 8 (one). Then two more components
        // start: 9 (rarer label) before 6, and 6 before 7 on id.
        let p = LabeledGraph::from_parts(
            vec![0, 0, 0, 1, 2, 0, 0, 0, 3, 3],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (1, 5),
                (0, 5),
                (0, 8),
                (6, 7),
            ],
        );
        let plan = Plan::build(&p, Rarity::Pattern);
        let order: Vec<NodeId> = plan.steps.iter().map(|s| s.node).collect();
        assert_eq!(order, vec![3, 4, 2, 1, 0, 5, 8, 9, 6, 7]);
        // The anchor is the earliest-placed neighbour: 5's are 1 (depth 3)
        // and 0 (depth 4), so 0's edge is its one back edge.
        let anchors: Vec<Option<u32>> = plan.steps.iter().map(|s| s.anchor).collect();
        assert_eq!(
            anchors,
            vec![
                None,
                Some(0),
                Some(0),
                Some(2),
                Some(3),
                Some(3),
                Some(4),
                None,
                None,
                Some(8)
            ]
        );
        // Lookahead pairs: 3 (label 1) awaits 2 (label 0) and 4 (label 2);
        // 1 awaits 0 and 5 (label 0 twice); 0 awaits 5 and 8 (label 3).
        let aheads: Vec<&[u32]> = plan
            .steps
            .iter()
            .map(|s| &plan.back[s.back_hi as usize..s.ahead_hi as usize])
            .collect();
        assert_eq!(
            aheads,
            vec![
                &[0, 1, 2, 1][..],
                &[],
                &[0, 1],
                &[0, 2],
                &[0, 1, 3, 1],
                &[],
                &[],
                &[],
                &[0, 1],
                &[]
            ]
        );
        let backs: Vec<&[u32]> = plan
            .steps
            .iter()
            .map(|s| &plan.back[s.back_lo as usize..s.back_hi as usize])
            .collect();
        assert_eq!(
            backs,
            vec![&[][..], &[], &[], &[], &[], &[4], &[], &[], &[], &[]]
        );
    }

    #[test]
    fn a_root_tries_only_the_nodes_with_its_label() {
        // One label-9 node (10) among twenty label-0 nodes on a path. The
        // pattern 0-9-0 starts at its rarer label, 9: one root candidate,
        // then two neighbours of 10 for each of its leaves (the second leaf
        // finds 9 used and takes 11).
        let mut labels = vec![0u32; 20];
        labels[10] = 9;
        let edges: Vec<(u32, u32)> = (0..19u32).map(|i| (i, i + 1)).collect();
        let t = LabeledGraph::from_parts(labels, &edges);
        let p = LabeledGraph::from_parts(vec![0, 9, 0], &[(0, 1), (1, 2)]);
        let out = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert!(out.found);
        assert_eq!(out.nodes_expanded, 4);
    }
}

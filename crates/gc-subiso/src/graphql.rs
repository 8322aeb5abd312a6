//! GraphQL-style subgraph matching \[He & Singh — SIGMOD 2008\].
//!
//! GraphQL's distinctive ingredients, reproduced here:
//!
//! 1. per-pattern-node **candidate lists** seeded by label, degree and
//!    neighbour-label-profile containment;
//! 2. iterative **pseudo subgraph isomorphism refinement**: a candidate
//!    `v ∈ C(u)` survives only if the neighbours of `u` can be matched
//!    one-to-one (bipartite matching) to distinct neighbours of `v` drawn
//!    from their own candidate lists;
//! 3. a search order that greedily minimises candidate-list size, and
//!    backtracking search constrained to the refined lists.

use crate::common::{neighbor_labels_sorted, quick_reject, sorted_multiset_contained, Found, Work};
use crate::vf2::Driver;
use crate::{MatchConfig, MatchOutcome, Matcher};
use gc_graph::{LabeledGraph, NodeId};
use std::ops::ControlFlow;

/// Number of pseudo-iso refinement sweeps (the paper's GraphQL defaults
/// to a small constant; 2 captures nearly all pruning in practice).
const REFINEMENT_ROUNDS: usize = 2;

/// The GraphQL matcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphQl;

impl GraphQl {
    /// Creates a GraphQL matcher.
    pub fn new() -> Self {
        GraphQl
    }
}

impl Matcher for GraphQl {
    fn name(&self) -> &'static str {
        "GQL"
    }

    fn contains_with(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
    ) -> MatchOutcome {
        let mut driver = Driver::decide();
        run(pattern, target, cfg, &mut driver)
    }

    fn find_embedding(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> Option<Vec<NodeId>> {
        let mut driver = Driver::find();
        run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
        driver.embedding
    }

    fn count_embeddings(&self, pattern: &LabeledGraph, target: &LabeledGraph, limit: u64) -> u64 {
        let mut driver = Driver::count(limit);
        run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
        driver.count
    }
}

fn run(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    cfg: &MatchConfig,
    driver: &mut Driver,
) -> MatchOutcome {
    if pattern.node_count() == 0 {
        driver.on_embedding(&[]);
        return MatchOutcome {
            found: true,
            complete: true,
            nodes_expanded: 0,
        };
    }
    let mut work = Work::new(cfg.budget);
    if !quick_reject(pattern, target) {
        if let ControlFlow::Continue(Some(cands)) = build_candidates(pattern, target, &mut work) {
            let order = search_order(pattern, &cands);
            let mut st = State {
                p: pattern,
                t: target,
                cands: &cands,
                order: &order,
                core_p: vec![None; pattern.node_count()],
                used_t: vec![false; target.node_count()],
            };
            let _ = search(&mut st, 0, &mut work, driver);
        }
    }
    MatchOutcome {
        found: driver.found,
        complete: !work.exhausted,
        nodes_expanded: work.nodes,
    }
}

/// Builds and refines candidate lists. `Continue(None)` means some list
/// emptied (definite non-match); `Break` means budget exhaustion.
fn build_candidates(
    p: &LabeledGraph,
    t: &LabeledGraph,
    work: &mut Work,
) -> ControlFlow<(), Option<Vec<Vec<NodeId>>>> {
    let profiles_t: Vec<Vec<u32>> = t.nodes().map(|v| neighbor_labels_sorted(t, v)).collect();
    let mut cands: Vec<Vec<NodeId>> = Vec::with_capacity(p.node_count());
    for u in p.nodes() {
        let profile_u = neighbor_labels_sorted(p, u);
        let mut list = Vec::new();
        for v in t.nodes() {
            if let ControlFlow::Break(()) = work.step() {
                return ControlFlow::Break(());
            }
            if p.label(u) == t.label(v)
                && p.degree(u) <= t.degree(v)
                && sorted_multiset_contained(
                    profile_u.iter().copied(),
                    profiles_t[v as usize].iter().copied(),
                )
            {
                list.push(v);
            }
        }
        if list.is_empty() {
            return ControlFlow::Continue(None);
        }
        cands.push(list);
    }

    // Pseudo sub-iso refinement sweeps.
    let mut in_cand: Vec<Vec<bool>> = p
        .nodes()
        .map(|u| {
            let mut row = vec![false; t.node_count()];
            for &v in &cands[u as usize] {
                row[v as usize] = true;
            }
            row
        })
        .collect();
    for _round in 0..REFINEMENT_ROUNDS {
        let mut changed = false;
        for u in p.nodes() {
            let mut kept = Vec::with_capacity(cands[u as usize].len());
            for &v in &cands[u as usize] {
                if let ControlFlow::Break(()) = work.step() {
                    return ControlFlow::Break(());
                }
                if neighbors_matchable(p, t, &in_cand, u, v) {
                    kept.push(v);
                } else {
                    in_cand[u as usize][v as usize] = false;
                    changed = true;
                }
            }
            if kept.is_empty() {
                return ControlFlow::Continue(None);
            }
            cands[u as usize] = kept;
        }
        if !changed {
            break;
        }
    }
    ControlFlow::Continue(Some(cands))
}

/// Bipartite-matching feasibility: can every neighbour of `u` be assigned a
/// distinct neighbour of `v` from its own candidate list? (Kuhn's
/// augmenting-path algorithm over the small neighbourhood bipartite graph.)
fn neighbors_matchable(
    p: &LabeledGraph,
    t: &LabeledGraph,
    in_cand: &[Vec<bool>],
    u: NodeId,
    v: NodeId,
) -> bool {
    let left: &[NodeId] = p.neighbors(u);
    let right: &[NodeId] = t.neighbors(v);
    if left.len() > right.len() {
        return false;
    }
    // match_right[j] = index into `left` currently matched to right[j].
    let mut match_right: Vec<Option<usize>> = vec![None; right.len()];
    let mut seen = vec![false; right.len()];
    for i in 0..left.len() {
        seen.iter_mut().for_each(|s| *s = false);
        if !augment(i, left, right, in_cand, &mut match_right, &mut seen) {
            return false;
        }
    }
    true
}

/// One augmenting-path attempt for left node `i` (Kuhn's algorithm).
fn augment(
    i: usize,
    left: &[NodeId],
    right: &[NodeId],
    in_cand: &[Vec<bool>],
    match_right: &mut [Option<usize>],
    seen: &mut [bool],
) -> bool {
    let un = left[i];
    for j in 0..right.len() {
        let vn = right[j];
        if seen[j] || !in_cand[un as usize][vn as usize] {
            continue;
        }
        seen[j] = true;
        let free_or_reroutable = match match_right[j] {
            None => true,
            Some(prev) => augment(prev, left, right, in_cand, match_right, seen),
        };
        if free_or_reroutable {
            match_right[j] = Some(i);
            return true;
        }
    }
    false
}

/// Greedy candidate-size-first search order with connectivity preference.
fn search_order(p: &LabeledGraph, cands: &[Vec<NodeId>]) -> Vec<NodeId> {
    let n = p.node_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut connected = vec![false; n];
    for _ in 0..n {
        let pick = p
            .nodes()
            .filter(|&u| !placed[u as usize])
            .min_by(|&a, &b| {
                connected[b as usize]
                    .cmp(&connected[a as usize])
                    .then(cands[a as usize].len().cmp(&cands[b as usize].len()))
                    .then(p.degree(b).cmp(&p.degree(a)))
                    .then(a.cmp(&b))
            })
            .expect("unplaced node");
        placed[pick as usize] = true;
        order.push(pick);
        for &w in p.neighbors(pick) {
            connected[w as usize] = true;
        }
    }
    order
}

struct State<'a> {
    p: &'a LabeledGraph,
    t: &'a LabeledGraph,
    cands: &'a [Vec<NodeId>],
    order: &'a [NodeId],
    core_p: Vec<Option<NodeId>>,
    used_t: Vec<bool>,
}

impl State<'_> {
    fn consistent(&self, u: NodeId, v: NodeId) -> bool {
        if self.used_t[v as usize] {
            return false;
        }
        for &w in self.p.neighbors(u) {
            if let Some(img) = self.core_p[w as usize] {
                if !self.t.has_edge(img, v) {
                    return false;
                }
            }
        }
        true
    }
}

fn search(
    st: &mut State<'_>,
    depth: usize,
    work: &mut Work,
    driver: &mut Driver,
) -> ControlFlow<()> {
    if depth == st.order.len() {
        return match driver.on_embedding(&st.core_p) {
            Found::Stop => ControlFlow::Break(()),
            Found::Continue => ControlFlow::Continue(()),
        };
    }
    let u = st.order[depth];
    let cands = st.cands[u as usize].clone();
    for v in cands {
        work.step()?;
        if st.consistent(u, v) {
            st.core_p[u as usize] = Some(v);
            st.used_t[v as usize] = true;
            let flow = search(st, depth + 1, work, driver);
            st.core_p[u as usize] = None;
            st.used_t[v as usize] = false;
            flow?;
        }
    }
    ControlFlow::Continue(())
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
    fn agrees_with_vf2() {
        let cases = [
            (path(&[0, 1, 0]), path(&[0, 1, 0, 1])),
            (path(&[0, 0]), path(&[1, 1])),
            (
                LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]),
                path(&[0, 0, 0, 0]),
            ),
            (
                LabeledGraph::from_parts(vec![1, 2, 3], &[(0, 1), (1, 2)]),
                LabeledGraph::from_parts(vec![1, 2, 3, 1], &[(0, 1), (1, 2), (2, 3)]),
            ),
        ];
        for (p, t) in cases {
            assert_eq!(
                GraphQl::new().contains(&p, &t),
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
        let emb = GraphQl::new().find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn profile_filter_prunes() {
        // Pattern centre needs neighbours {1, 2}; the only label-0 target
        // node has neighbour labels {1, 1} — candidate list becomes empty
        // with zero search steps beyond candidate construction.
        let p = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (0, 2)]);
        let t = LabeledGraph::from_parts(vec![0, 1, 1], &[(0, 1), (0, 2)]);
        assert!(!GraphQl::new().contains(&p, &t));
    }

    #[test]
    fn count_matches_vf2() {
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(
            GraphQl::new().count_embeddings(&p, &t, u64::MAX),
            Vf2::new().count_embeddings(&p, &t, u64::MAX)
        );
    }

    #[test]
    fn budget_respected() {
        let p = LabeledGraph::from_parts(vec![0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut te = vec![];
        for i in 0..9u32 {
            for j in i + 1..9 {
                te.push((i, j));
            }
        }
        let t = LabeledGraph::from_parts(vec![0; 9], &te);
        let out = GraphQl::new().contains_with(&p, &t, &MatchConfig::bounded(1));
        assert!(!out.complete);
    }
}

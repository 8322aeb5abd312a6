//! Matcher work invariants on Method M's verification sweep: one UU
//! subgraph workload (the `cold-uniform` shape) against its GGSX candidate
//! sets over an AIDS-shaped dataset, as the verifier sees them.
//!
//! * **One sweep, two forms** — `contains_each` returns the per-pair
//!   loop's outcomes, `nodes_expanded` included, for VF2 and for VF2+.
//! * **Work bounds** — VF2's summed `nodes_expanded` is at most half of
//!   what id-order VF2 expanded on the same sweep, at most 0.6× of what
//!   VF2 expanded with a label-blind lookahead, and strictly less than the
//!   label-aware VF2 expanded before quick reject read cycle lengths.
//! * **VF2+ is VF2's search** — it decides every sweep test as VF2 does
//!   and expands exactly the nodes it expanded with a search of its own.
//! * **Quick reject sees rings** — at least half of the small-ring sweep
//!   (a carbon triangle with a pendant and a carbon 4-cycle against their
//!   GGSX candidates) is refused without a search node.
//! * **Exact-hit confirmation** — every query embeds into an isomorphic
//!   copy of itself with its node ids reversed.
//!
//! The constants are counts of search nodes, so they hold on any host. A
//! search change that moves them must change them on purpose. CI runs this
//! file in release mode too (`cargo test --release --test matcher_work`).

use graphcache::graph::{GraphDataset, LabeledGraph};
use graphcache::index::{FilterIndex, GgsxConfig, PathTrie};
use graphcache::subiso::{MatchConfig, MatchOutcome, Matcher, MatcherKind};
use graphcache::workload::{datasets, generate_type_a, TypeAConfig};

/// Summed `nodes_expanded` of the sweep below under VF2 visiting pattern
/// nodes in id order (the order before most-constrained-first).
const ID_ORDER_SWEEP_WORK: u64 = 329_668;

/// The same under most-constrained-first VF2 whose lookahead counted free
/// target neighbours of any label (before the label-aware lookahead).
const LABEL_BLIND_SWEEP_WORK: u64 = 75_953;

/// The same under the label-aware VF2 behind a quick reject that knew no
/// cycle lengths.
const LABEL_AWARE_SWEEP_WORK: u64 = 41_804;

/// Summed `nodes_expanded` of the sweep below under VF2+, measured when it
/// still ran a search of its own (an O(|V|²) plan per target and a
/// lookahead that sorted label lists); running on VF2's plan builder and
/// search, it must expand exactly these nodes.
const VF2_PLUS_SWEEP_WORK: u64 = 38_576;

/// The sweep's dataset.
fn dataset() -> GraphDataset {
    datasets::aids_like(0.2, 5)
}

/// The sweep's 48 UU queries.
fn uu_queries(d: &GraphDataset) -> Vec<LabeledGraph> {
    generate_type_a(d, &TypeAConfig::uu().count(48).seed(11))
        .queries
        .into_iter()
        .map(|q| q.graph)
        .collect()
}

/// Subgraph queries with their GGSX candidate sets, as the verifier sees
/// them.
struct Sweeps<'d> {
    queries: Vec<(LabeledGraph, Vec<&'d LabeledGraph>)>,
}

impl<'d> Sweeps<'d> {
    fn new(d: &'d GraphDataset) -> Self {
        let ggsx = PathTrie::build(d, GgsxConfig::default());
        let queries = uu_queries(d)
            .into_iter()
            .map(|q| {
                let targets = ggsx.filter(&q).iter().map(|&id| d.graph(id)).collect();
                (q, targets)
            })
            .collect();
        Sweeps { queries }
    }

    fn per_pair(&self, m: &dyn Matcher) -> Vec<MatchOutcome> {
        self.queries
            .iter()
            .flat_map(|(q, ts)| {
                ts.iter()
                    .map(move |t| m.contains_with(q, t, &MatchConfig::UNBOUNDED))
            })
            .collect()
    }

    fn each(&self, m: &dyn Matcher) -> Vec<MatchOutcome> {
        let mut out = Vec::new();
        for (q, ts) in &self.queries {
            m.contains_each(q, ts, &MatchConfig::UNBOUNDED, &mut out);
        }
        out
    }
}

fn work(outcomes: &[MatchOutcome]) -> u64 {
    outcomes.iter().map(|o| o.nodes_expanded).sum()
}

/// The small-ring shapes among `cold-uniform`'s costliest queries, on the
/// dataset's commonest label (AIDS's carbon): a triangle with a pendant
/// and a 4-cycle. GGSX's path features cannot see a ring, so most of
/// their candidates lack it.
fn small_rings(d: &GraphDataset) -> Vec<LabeledGraph> {
    let mut counts = std::collections::BTreeMap::new();
    for g in d.graphs() {
        for &l in g.labels() {
            *counts.entry(l).or_insert(0u64) += 1;
        }
    }
    let carbon = counts
        .iter()
        .max_by_key(|&(&l, &n)| (n, std::cmp::Reverse(l)))
        .map(|(&l, _)| l)
        .expect("a non-empty dataset");
    vec![
        LabeledGraph::from_parts(vec![carbon; 4], &[(0, 1), (1, 2), (2, 0), (0, 3)]),
        LabeledGraph::from_parts(vec![carbon; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
    ]
}

#[test]
fn vf2_sweep_work_stays_under_every_earlier_search() {
    let d = dataset();
    let sweeps = Sweeps::new(&d);
    let vf2 = MatcherKind::Vf2.build();
    let per_pair = sweeps.per_pair(vf2.as_ref());
    assert_eq!(
        sweeps.each(vf2.as_ref()),
        per_pair,
        "contains_each must equal the per-pair loop"
    );
    let w = work(&per_pair);
    assert!(
        2 * w <= ID_ORDER_SWEEP_WORK,
        "most-constrained-first VF2 must expand at most half the id-order nodes: {w}"
    );
    assert!(
        5 * w <= 3 * LABEL_BLIND_SWEEP_WORK,
        "the label-aware lookahead must expand at most 0.6x the label-blind nodes: {w}"
    );
    assert!(
        w < LABEL_AWARE_SWEEP_WORK,
        "quick reject's cycle rule must cut the sweep below {LABEL_AWARE_SWEEP_WORK} nodes: {w}"
    );
}

#[test]
fn vf2_plus_decides_as_vf2_with_its_recorded_work() {
    let d = dataset();
    let sweeps = Sweeps::new(&d);
    let vf2 = sweeps.per_pair(MatcherKind::Vf2.build().as_ref());
    let plus = MatcherKind::Vf2Plus.build();
    let plus_each = sweeps.each(plus.as_ref());
    assert_eq!(
        plus_each,
        sweeps.per_pair(plus.as_ref()),
        "VF2+'s contains_each must equal its per-pair loop"
    );
    assert_eq!(plus_each.len(), vf2.len());
    assert!(
        plus_each.iter().zip(&vf2).all(|(p, v)| p.found == v.found),
        "VF2+ must decide every sweep test as VF2 does"
    );
    assert_eq!(
        work(&plus_each),
        VF2_PLUS_SWEEP_WORK,
        "VF2+ must expand exactly the nodes it expanded with a search of its own"
    );
}

#[test]
fn quick_reject_refuses_most_small_ring_candidates() {
    let d = dataset();
    let ggsx = PathTrie::build(&d, GgsxConfig::default());
    let vf2 = MatcherKind::Vf2.build();
    let (mut tests, mut refused) = (0, 0);
    for ring in &small_rings(&d) {
        let targets: Vec<&LabeledGraph> = ggsx.filter(ring).iter().map(|&id| d.graph(id)).collect();
        let mut out = Vec::new();
        vf2.contains_each(ring, &targets, &MatchConfig::UNBOUNDED, &mut out);
        tests += out.len();
        refused += out
            .iter()
            .filter(|o| !o.found && o.nodes_expanded == 0)
            .count();
    }
    assert!(
        2 * refused >= tests && tests > 0,
        "quick reject must refuse at least half of the small-ring candidates: {refused} of {tests}"
    );
}

/// `g` with its node ids reversed: isomorphic, but not the identity map.
fn reversed(g: &LabeledGraph) -> LabeledGraph {
    let last = g.node_count() as u32 - 1;
    let labels = g.labels().iter().rev().copied().collect();
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (last - u, last - v)).collect();
    LabeledGraph::from_parts(labels, &edges)
}

#[test]
fn every_query_embeds_into_its_reversed_copy() {
    let d = dataset();
    let vf2 = MatcherKind::Vf2.build();
    for q in uu_queries(&d) {
        assert!(vf2.contains(&q, &reversed(&q)), "{q:?}");
    }
}

//! Microbenchmarks of the four sub-iso matchers on AIDS-shaped instances:
//! positive (extracted subgraph) and negative (relabelled) decision tests;
//! the Method-M verification sweep — one subgraph query against its GGSX
//! candidate set — run per pair (`contains_with`) and as one
//! `contains_each` call; and two per-pair tests that build a plan for every
//! target, as a cold cache runs them: the exact-hit iso confirmation and
//! the supergraph direction.
//!
//! The sweep group asserts its invariants before timing anything: both
//! forms return the same outcomes; their summed `nodes_expanded` is at
//! most half of what id-order VF2 expanded on the same sweep, at most 0.6×
//! of what VF2 expanded with a label-blind lookahead, and strictly less
//! than the label-aware VF2 expanded before quick reject read cycle
//! lengths; VF2+ decides every test as VF2 does and expands exactly the
//! nodes it expanded with a search of its own; and at least half of the
//! small-ring sweep (a carbon triangle
//! with a pendant and a carbon 4-cycle against their GGSX candidates) is
//! refused without a search node. CI runs this bench (`cargo bench -p
//! gc-bench --bench subiso -- sweep`) as the matcher work gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_graph::random::bfs_edge_subgraph;
use gc_graph::{GraphDataset, LabeledGraph};
use gc_index::{FilterIndex, GgsxConfig, PathTrie};
use gc_subiso::{MatchConfig, MatchOutcome, Matcher, MatcherKind};
use gc_workload::{datasets, generate_type_a, TypeAConfig};

type Cases = Vec<(LabeledGraph, LabeledGraph)>;

fn instances() -> (Cases, Cases) {
    let d = datasets::aids_like(0.05, 77);
    let mut positive = Vec::new();
    let mut negative = Vec::new();
    for (i, g) in d.graphs().iter().enumerate().take(16) {
        if let Some(q) = bfs_edge_subgraph(g, (i % 3) as u32, 12) {
            // Negative twin: shift every label out of range.
            let neg = q.relabeled(|_, l| l + 1000);
            positive.push((q, g.clone()));
            negative.push((neg, g.clone()));
        }
    }
    (positive, negative)
}

fn bench_matchers(c: &mut Criterion) {
    let (positive, negative) = instances();
    let mut group = c.benchmark_group("subiso");
    for kind in MatcherKind::ALL {
        let matcher = kind.build();
        group.bench_with_input(
            BenchmarkId::new("positive", kind.name()),
            &positive,
            |b, cases| b.iter(|| cases.iter().filter(|(q, g)| matcher.contains(q, g)).count()),
        );
        group.bench_with_input(
            BenchmarkId::new("negative", kind.name()),
            &negative,
            |b, cases| b.iter(|| cases.iter().filter(|(q, g)| matcher.contains(q, g)).count()),
        );
    }
    group.finish();
}

/// Subgraph queries (UU, the `cold-uniform` shape) with their GGSX
/// candidate sets, as the verifier sees them.
struct Sweeps<'d> {
    queries: Vec<(LabeledGraph, Vec<&'d LabeledGraph>)>,
}

impl<'d> Sweeps<'d> {
    fn new(d: &'d GraphDataset) -> Self {
        let ggsx = PathTrie::build(d, GgsxConfig::default());
        let queries = generate_type_a(d, &TypeAConfig::uu().count(48).seed(11))
            .queries
            .into_iter()
            .map(|q| {
                let targets = ggsx
                    .filter(&q.graph)
                    .iter()
                    .map(|&id| d.graph(id))
                    .collect();
                (q.graph, targets)
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

fn bench_sweep(c: &mut Criterion) {
    let d = datasets::aids_like(0.2, 5);
    let sweeps = Sweeps::new(&d);
    let vf2 = MatcherKind::Vf2.build();

    // ---- Hardware-independent invariant (asserted, printed once). ----
    let per_pair = sweeps.per_pair(vf2.as_ref());
    let each = sweeps.each(vf2.as_ref());
    assert_eq!(each, per_pair, "contains_each must equal the per-pair loop");
    println!(
        "sweep: {} queries, {} GGSX candidates, {} found, {} nodes expanded either way \
         ({ID_ORDER_SWEEP_WORK} in id order, {LABEL_BLIND_SWEEP_WORK} label-blind)",
        sweeps.queries.len(),
        per_pair.len(),
        per_pair.iter().filter(|o| o.found).count(),
        work(&per_pair),
    );
    assert!(
        2 * work(&per_pair) <= ID_ORDER_SWEEP_WORK,
        "most-constrained-first VF2 must expand at most half the id-order nodes"
    );
    assert!(
        5 * work(&per_pair) <= 3 * LABEL_BLIND_SWEEP_WORK,
        "the label-aware lookahead must expand at most 0.6x the label-blind nodes"
    );
    assert!(
        work(&per_pair) < LABEL_AWARE_SWEEP_WORK,
        "quick reject's cycle rule must cut the sweep below {LABEL_AWARE_SWEEP_WORK} nodes"
    );
    let plus = MatcherKind::Vf2Plus.build();
    let plus_each = sweeps.each(plus.as_ref());
    assert_eq!(
        plus_each,
        sweeps.per_pair(plus.as_ref()),
        "VF2+'s contains_each must equal its per-pair loop"
    );
    assert!(
        plus_each
            .iter()
            .zip(&per_pair)
            .all(|(p, v)| p.found == v.found),
        "VF2+ must decide every sweep test as VF2 does"
    );
    println!(
        "sweep: VF2+ expands {} nodes ({VF2_PLUS_SWEEP_WORK} expected)",
        work(&plus_each)
    );
    assert_eq!(
        work(&plus_each),
        VF2_PLUS_SWEEP_WORK,
        "VF2+ must expand exactly the nodes it expanded with a search of its own"
    );
    let ggsx = PathTrie::build(&d, GgsxConfig::default());
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
    println!("small rings: {refused} of {tests} GGSX candidates refused without a search node");
    assert!(
        2 * refused >= tests && tests > 0,
        "quick reject must refuse at least half of the small-ring candidates"
    );

    // ---- Wall-clock comparison of the same sweep. ----
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("VF2/per_pair", |b| {
        b.iter(|| work(&sweeps.per_pair(vf2.as_ref())))
    });
    group.bench_function("VF2/contains_each", |b| {
        b.iter(|| work(&sweeps.each(vf2.as_ref())))
    });
    group.finish();
}

/// `g` with its node ids reversed: isomorphic, but not the identity map.
fn reversed(g: &LabeledGraph) -> LabeledGraph {
    let last = g.node_count() as u32 - 1;
    let labels = g.labels().iter().rev().copied().collect();
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (last - u, last - v)).collect();
    LabeledGraph::from_parts(labels, &edges)
}

fn bench_per_pair(c: &mut Criterion) {
    let d = datasets::aids_like(0.2, 5);
    // The exact-hit confirmation: a cached query against an isomorphic
    // copy of itself.
    let iso: Cases = generate_type_a(&d, &TypeAConfig::uu().count(48).seed(11))
        .queries
        .into_iter()
        .map(|q| {
            let copy = reversed(&q.graph);
            (q.graph, copy)
        })
        .collect();
    // The supergraph direction: dataset graphs as supergraph queries, each
    // candidate of GGSX's supergraph filter the pattern of one test.
    let ggsx = PathTrie::build(&d, GgsxConfig::default());
    let d = &d;
    let supergraph: Vec<(&LabeledGraph, &LabeledGraph)> = d
        .graphs()
        .iter()
        .take(48)
        .flat_map(|g| {
            let cands = ggsx
                .filter_supergraph(g)
                .expect("GGSX filters supergraph queries");
            cands.into_iter().map(move |id| (d.graph(id), g))
        })
        .collect();
    let vf2 = MatcherKind::Vf2.build();
    assert!(iso.iter().all(|(q, copy)| vf2.contains(q, copy)));
    println!(
        "per pair: {} iso confirmations, {} supergraph tests ({} found)",
        iso.len(),
        supergraph.len(),
        supergraph
            .iter()
            .filter(|(p, t)| vf2.contains(p, t))
            .count(),
    );

    let mut group = c.benchmark_group("pair");
    group.bench_function("VF2/iso", |b| {
        b.iter(|| iso.iter().filter(|(q, g)| vf2.contains(q, g)).count())
    });
    group.bench_function("VF2/supergraph", |b| {
        b.iter(|| {
            supergraph
                .iter()
                .filter(|(p, g)| vf2.contains(p, g))
                .count()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matchers, bench_sweep, bench_per_pair
}
criterion_main!(benches);

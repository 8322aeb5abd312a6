//! Microbenchmarks of the four sub-iso matchers on AIDS-shaped instances:
//! positive (extracted subgraph) and negative (relabelled) decision tests,
//! plus the Method-M verification sweep — one subgraph query against its
//! GGSX candidate set — run per pair (`contains_with`) and as one
//! `contains_each` call.
//!
//! The sweep group asserts its invariant before timing anything: both
//! forms return the same outcomes, so their summed `nodes_expanded` is
//! equal and the difference is the cost per search node.

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

fn bench_sweep(c: &mut Criterion) {
    let d = datasets::aids_like(0.2, 5);
    let sweeps = Sweeps::new(&d);
    let vf2 = MatcherKind::Vf2.build();

    // ---- Hardware-independent invariant (asserted, printed once). ----
    let per_pair = sweeps.per_pair(vf2.as_ref());
    let each = sweeps.each(vf2.as_ref());
    assert_eq!(each, per_pair, "contains_each must equal the per-pair loop");
    assert_eq!(work(&each), work(&per_pair));
    println!(
        "sweep: {} queries, {} GGSX candidates, {} found, {} nodes expanded either way",
        sweeps.queries.len(),
        per_pair.len(),
        per_pair.iter().filter(|o| o.found).count(),
        work(&per_pair),
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matchers, bench_sweep
}
criterion_main!(benches);

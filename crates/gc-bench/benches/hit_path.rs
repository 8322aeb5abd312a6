//! Hit-detection pipeline cost on a candidate-heavy Zipf workload: naive
//! flat sweep vs cost-ordered budgeted sweep vs fingerprint-first exact
//! resolution.
//!
//! The cache holds paths over a 2-letter alphabet, so the feature filter
//! passes often and every query drags a large candidate set into
//! verification — the worst case the paper's §5 premise (hit detection
//! must stay cheap) worries about. Queries are drawn Zipf(1.4) over the
//! cached population: the popular head produces exact repeats, the tail
//! produces fresh near-misses.
//!
//! The headline counters are *hardware-independent* (matcher `tests` and
//! `work`, not wall time); this bench asserts the pipeline's contract —
//!
//! * the budgeted ordered sweep spends ≥ 5x less matcher work than the
//!   naive sweep on the same queries, and
//! * exact repeats resolve through the fingerprint map with **zero**
//!   candidate sub-iso tests —
//!
//! and then times all three pipelines with criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use gc_core::processors::{exact_probe, find_hits_naive, sweep, HitQuery, VerifyOptions};
use gc_core::{CacheEntry, CacheSnapshot, QUERY_INDEX_SHAPE};
use gc_graph::idset::{self, IdSet};
use gc_graph::zipf::ZipfSampler;
use gc_graph::{GraphId, LabeledGraph};
use gc_index::paths::enumerate_paths;
use gc_methods::QueryKind;
use gc_subiso::Vf2;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SHARDS: usize = 8;
const CACHED: u64 = 120;
const QUERIES: usize = 200;
/// Target reduction of the budgeted sweep (the assertion checks ≥ 5x).
const BUDGET_DIVISOR: u64 = 8;

/// Labelled path over {0, 1}: shared alphabet, varied length/sequence, so
/// containment candidates are plentiful.
fn seeded_graph(seed: u64) -> LabeledGraph {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let len = 3 + (h % 6) as usize;
    let labels: Vec<u32> = (0..len).map(|i| ((h >> i) & 1) as u32).collect();
    let edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    LabeledGraph::from_parts(labels, &edges)
}

fn entry_for(serial: u64) -> Arc<CacheEntry> {
    let graph = seeded_graph(serial);
    let shape = QUERY_INDEX_SHAPE;
    let profile = enumerate_paths(&graph, shape.max_len, shape.work_cap);
    Arc::new(CacheEntry::new(
        serial,
        Arc::new(graph),
        vec![GraphId((serial % 16) as u32)],
        QueryKind::Subgraph,
        profile,
    ))
}

/// The workload: Zipf-ranked draws over the cached population. Head ranks
/// resubmit the cached graph verbatim (exact repeats); tail ranks perturb
/// the seed (fresh queries with heavy candidate overlap). Returns the
/// queries plus which of them are exact repeats.
fn workload(snapshot_entries: u64) -> (Vec<LabeledGraph>, Vec<bool>) {
    let zipf = ZipfSampler::new(snapshot_entries as usize, 1.4);
    let mut rng = StdRng::seed_from_u64(7);
    let mut queries = Vec::with_capacity(QUERIES);
    let mut is_repeat = Vec::with_capacity(QUERIES);
    for i in 0..QUERIES {
        let rank = zipf.sample(&mut rng) as u64;
        if i % 2 == 0 {
            queries.push(seeded_graph(rank + 1)); // serials are 1-based
            is_repeat.push(true);
        } else {
            queries.push(seeded_graph(rank + 1 + snapshot_entries * 31));
            is_repeat.push(false);
        }
    }
    (queries, is_repeat)
}

struct Totals {
    tests: u64,
    work: u64,
    hits: usize,
}

fn totals(
    snap: &CacheSnapshot,
    queries: &[LabeledGraph],
    mut f: impl FnMut(&CacheSnapshot, &LabeledGraph) -> (u64, u64, usize),
) -> Totals {
    let mut t = Totals {
        tests: 0,
        work: 0,
        hits: 0,
    };
    for q in queries {
        let (tests, work, hits) = f(snap, q);
        t.tests += tests;
        t.work += work;
        t.hits += hits;
    }
    t
}

fn run_naive(snap: &CacheSnapshot, q: &LabeledGraph) -> (u64, u64, usize) {
    let h = find_hits_naive(snap, q, QueryKind::Subgraph, &Vf2::new());
    (h.tests, h.work, h.sub.len() + h.super_.len())
}

/// The query path's order: the fingerprint probe, then — on a miss, or
/// always when `sweep_exact` — the sweep it hands its refutations to.
fn run_opts(
    snap: &CacheSnapshot,
    q: &LabeledGraph,
    opts: &VerifyOptions,
    sweep_exact: bool,
) -> (u64, u64, usize) {
    let profile = snap.profile_of(q);
    let hq = HitQuery::new(q, QueryKind::Subgraph, &profile);
    let vf2 = Vf2::new();
    let probe = exact_probe(snap, q, hq.kind, hq.fingerprint, &vf2, opts);
    // Method M's candidates: every id an answer holds and more, so every
    // candidate could prune and the sweep tests what the naive one does.
    let cs_m = IdSet::from_sorted(idset::full(32), 32);
    let h = if probe.hits.exact.is_some() && !sweep_exact {
        probe.hits
    } else {
        sweep(snap, &hq, probe, &cs_m, &vf2, opts)
    };
    (h.tests, h.work, h.sub.len() + h.super_.len())
}

fn bench_hit_path(c: &mut Criterion) {
    let entries: Vec<Arc<CacheEntry>> = (1..=CACHED).map(entry_for).collect();
    let snap = CacheSnapshot::build_sharded(SHARDS, entries);
    let (queries, is_repeat) = workload(CACHED);

    // ---- Hardware-independent counters (asserted, printed once). ----
    let naive = totals(&snap, &queries, run_naive);
    let per_query_budget = (naive.work / QUERIES as u64 / BUDGET_DIVISOR).max(1);
    let budgeted_opts = VerifyOptions {
        budget: Some(per_query_budget),
        ..VerifyOptions::default()
    };
    let budgeted = totals(&snap, &queries, |s, q| run_opts(s, q, &budgeted_opts, true));
    let fp_opts = VerifyOptions::default();
    let fp_first = totals(&snap, &queries, |s, q| run_opts(s, q, &fp_opts, false));

    // Exact repeats must complete with zero candidate sub-iso tests.
    let mut repeat_tests = 0u64;
    for (q, &rep) in queries.iter().zip(&is_repeat) {
        if rep {
            let (tests, _, _) = run_opts(&snap, q, &fp_opts, false);
            repeat_tests += tests;
        }
    }

    println!("hit-path counters over {QUERIES} queries, {CACHED} cached, {SHARDS} shards:");
    println!(
        "  naive flat sweep     : {:>8} tests {:>10} work {:>5} hits",
        naive.tests, naive.work, naive.hits
    );
    println!(
        "  ordered + budget {per_query_budget:>4}: {:>8} tests {:>10} work {:>5} hits ({:.1}x less work, {:.0}% hit recall)",
        budgeted.tests,
        budgeted.work,
        budgeted.hits,
        naive.work as f64 / budgeted.work.max(1) as f64,
        100.0 * budgeted.hits as f64 / naive.hits.max(1) as f64,
    );
    println!(
        "  fingerprint-first    : {:>8} tests {:>10} work {:>5} hits (exact-repeat tests: {repeat_tests})",
        fp_first.tests, fp_first.work, fp_first.hits
    );

    assert!(
        budgeted.work * 5 <= naive.work,
        "budgeted sweep must cut matcher work ≥5x: {} vs {}",
        budgeted.work,
        naive.work
    );
    assert_eq!(
        repeat_tests, 0,
        "exact repeats must resolve via the fingerprint with zero sub-iso tests"
    );

    // ---- Wall-clock comparison of the same three pipelines. ----
    let mut group = c.benchmark_group("hit_path");
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| totals(&snap, &queries, run_naive).work)
    });
    group.bench_function("ordered_budgeted", |b| {
        b.iter(|| totals(&snap, &queries, |s, q| run_opts(s, q, &budgeted_opts, true)).work)
    });
    group.bench_function("fingerprint_first", |b| {
        b.iter(|| totals(&snap, &queries, |s, q| run_opts(s, q, &fp_opts, false)).work)
    });
    group.finish();
}

criterion_group!(benches, bench_hit_path);
criterion_main!(benches);

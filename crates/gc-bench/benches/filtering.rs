//! Microbenchmarks of the FTV filtering indexes: build time and per-query
//! filtering time (GGSX vs CT-Index) on an AIDS-shaped dataset, in both
//! directions and for uniform (UU) and skewed (ZZ) queries. Grapes has no
//! row: it filters with GGSX's index. A path index filters from a query
//! enumeration made beforehand, as on a cache miss, so its rows time the
//! filter alone.
//!
//! The `+1` rows are the §7.3 feature-size ablation — GGSX paths ≤ 5 and
//! CT-Index trees ≤ 7 / cycles ≤ 9 / 8192 bits. The paper finds ≈ 10 %
//! faster queries for ≈ 2× the index space. Before the timings, the bench
//! prints each index's size over the dataset it times and over the §7.3
//! space suite's two datasets (AIDS at scale 0.2 and PDBS at 0.25, seed
//! 42), the sizes `docs/paper-figures.md` quotes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_graph::{GraphDataset, LabeledGraph};
use gc_index::paths::PathEnumeration;
use gc_index::{CtConfig, CtIndex, FilterIndex, GgsxConfig, PathTrie};
use gc_workload::{datasets, generate_type_a, DatasetProfile, TypeAConfig};

/// Every index under test, built over `d`.
fn indexes(d: &GraphDataset) -> Vec<(&'static str, Box<dyn FilterIndex>)> {
    vec![
        ("GGSX", Box::new(PathTrie::build(d, GgsxConfig::default()))),
        (
            "GGSX len5 (+1)",
            Box::new(PathTrie::build(d, GgsxConfig::with_path_len(5))),
        ),
        ("CT-Index", Box::new(CtIndex::build(d, CtConfig::default()))),
        (
            "CT-Index 7/9/8192 (+1)",
            Box::new(CtIndex::build(d, CtConfig::enlarged())),
        ),
    ]
}

/// 32 UU and 32 ZZ queries over `d`.
fn query_sets(d: &GraphDataset) -> [(&'static str, Vec<LabeledGraph>); 2] {
    let draw = |cfg: TypeAConfig| -> Vec<LabeledGraph> {
        generate_type_a(d, &cfg.count(32).seed(3))
            .queries
            .into_iter()
            .map(|q| q.graph)
            .collect()
    };
    [
        ("UU", draw(TypeAConfig::uu())),
        ("ZZ", draw(TypeAConfig::zz(1.4))),
    ]
}

fn print_space_suite_sizes() {
    for (name, profile, scale) in [
        ("AIDS", DatasetProfile::aids(), 0.2),
        ("PDBS", DatasetProfile::pdbs(), 0.25),
    ] {
        let d = profile.scaled(scale).generate(42);
        for (index, idx) in indexes(&d) {
            let kib = idx.memory_bytes() / 1024;
            println!(
                "space suite {name} ({} graphs): {index} index {kib} KiB",
                d.len()
            );
        }
    }
}

fn bench_build(c: &mut Criterion) {
    let d = datasets::aids_like(0.05, 5);
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_function("GGSX", |b| {
        b.iter(|| PathTrie::build(&d, GgsxConfig::default()).graph_count())
    });
    group.bench_function("GGSX len5 (+1)", |b| {
        b.iter(|| PathTrie::build(&d, GgsxConfig::with_path_len(5)).graph_count())
    });
    group.bench_function("CT-Index", |b| {
        b.iter(|| CtIndex::build(&d, CtConfig::default()).graph_count())
    });
    group.bench_function("CT-Index 7/9/8192 (+1)", |b| {
        b.iter(|| CtIndex::build(&d, CtConfig::enlarged()).graph_count())
    });
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    print_space_suite_sizes();
    let d = datasets::aids_like(0.2, 5);
    let sets = query_sets(&d);
    let indexes = indexes(&d);
    let mut group = c.benchmark_group("filter");
    // Each query with its enumeration under the index's path shape.
    let inputs = |idx: &dyn FilterIndex, queries: &[LabeledGraph]| {
        let shape = idx.path_shape();
        queries
            .iter()
            .map(|q| {
                let e = shape.map(|s| PathEnumeration::new(q, s.max_len, s.work_cap));
                (q.clone(), e)
            })
            .collect::<Vec<_>>()
    };
    for (name, idx) in &indexes {
        println!("{name}: index {} KiB", idx.memory_bytes() / 1024);
        for (skew, queries) in &sets {
            let input = inputs(idx.as_ref(), queries);
            group.bench_with_input(BenchmarkId::new(name, skew), &input, |b, qs| {
                b.iter(|| {
                    qs.iter()
                        .map(|(q, e)| idx.filter_with(q, e.as_ref()).len())
                        .sum::<usize>()
                })
            });
        }
    }
    group.finish();
    // CT-Index filters the subgraph direction only.
    let mut group = c.benchmark_group("filter_supergraph");
    for (name, idx) in indexes.iter().filter(|(_, idx)| idx.path_shape().is_some()) {
        for (skew, queries) in &sets {
            let input = inputs(idx.as_ref(), queries);
            group.bench_with_input(BenchmarkId::new(name, skew), &input, |b, qs| {
                b.iter(|| {
                    qs.iter()
                        .map(|(q, e)| {
                            idx.filter_supergraph_with(q, e.as_ref())
                                .map_or(0, |cs| cs.len())
                        })
                        .sum::<usize>()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_build, bench_filter
}
criterion_main!(benches);

//! Microbenchmarks of the FTV filtering indexes: build time and per-query
//! filtering time (GGSX vs Grapes vs CT-Index) on an AIDS-shaped dataset.
//!
//! The `+1` rows are the §7.3 feature-size ablation — GGSX paths ≤ 5 and
//! CT-Index trees ≤ 7 / cycles ≤ 9 / 8192 bits. The paper finds ≈ 10 %
//! faster queries for ≈ 2× the index space; each index's size is printed
//! before its timings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_graph::{GraphDataset, LabeledGraph};
use gc_index::{CtConfig, CtIndex, FilterIndex, GgsxConfig, GrapesConfig, GrapesIndex, PathTrie};
use gc_workload::{datasets, generate_type_a, TypeAConfig};

/// Every index under test, built over `d`.
fn indexes(d: &GraphDataset) -> Vec<(&'static str, Box<dyn FilterIndex>)> {
    vec![
        ("GGSX", Box::new(PathTrie::build(d, GgsxConfig::default()))),
        (
            "GGSX len5 (+1)",
            Box::new(PathTrie::build(d, GgsxConfig::with_path_len(5))),
        ),
        (
            "Grapes",
            Box::new(GrapesIndex::build(d, GrapesConfig::default())),
        ),
        ("CT-Index", Box::new(CtIndex::build(d, CtConfig::default()))),
        (
            "CT-Index 7/9/8192 (+1)",
            Box::new(CtIndex::build(d, CtConfig::enlarged())),
        ),
    ]
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
    group.bench_function("Grapes", |b| {
        b.iter(|| GrapesIndex::build(&d, GrapesConfig::default()).graph_count())
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
    let d = datasets::aids_like(0.2, 5);
    let queries: Vec<LabeledGraph> = generate_type_a(&d, &TypeAConfig::uu().count(32).seed(3))
        .queries
        .into_iter()
        .map(|q| q.graph)
        .collect();
    let mut group = c.benchmark_group("filter");
    for (name, idx) in indexes(&d) {
        println!("{name}: index {} KiB", idx.memory_bytes() / 1024);
        group.bench_with_input(BenchmarkId::from_parameter(name), &queries, |b, qs| {
            b.iter(|| qs.iter().map(|q| idx.filter(q).len()).sum::<usize>())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_build, bench_filter
}
criterion_main!(benches);

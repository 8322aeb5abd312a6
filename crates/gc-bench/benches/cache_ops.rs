//! Microbenchmarks of GraphCache's own machinery: the full query path on
//! hit-heavy vs miss-heavy streams, and the candidate-set pruner.

use criterion::{criterion_group, criterion_main, Criterion};
use gc_core::pruner::{prune, HitAnswer};
use gc_core::GraphCache;
use gc_graph::idset::IdSet;
use gc_graph::GraphId;
use gc_methods::MethodBuilder;
use gc_workload::{datasets, generate_type_a, TypeAConfig};

fn bench_query_path(c: &mut Criterion) {
    let d = datasets::aids_like(0.1, 9);
    let hits = generate_type_a(&d, &TypeAConfig::zz(1.7).count(64).seed(1));
    let misses = generate_type_a(&d, &TypeAConfig::uu().count(64).seed(2));

    let mut group = c.benchmark_group("gc_query");
    group.sample_size(10);
    group.bench_function("hit_heavy_zz", |b| {
        b.iter(|| {
            let cache = GraphCache::builder()
                .capacity(50)
                .window(10)
                .build(MethodBuilder::ggsx().build(&d));
            let mut answers = 0usize;
            for _ in 0..3 {
                for q in hits.graphs() {
                    answers += cache.run(q).answer.len();
                }
            }
            answers
        })
    });
    group.bench_function("miss_heavy_uu", |b| {
        b.iter(|| {
            let cache = GraphCache::builder()
                .capacity(50)
                .window(10)
                .build(MethodBuilder::ggsx().build(&d));
            let mut answers = 0usize;
            for q in misses.graphs() {
                answers += cache.run(q).answer.len();
            }
            answers
        })
    });
    group.finish();
}

fn bench_pruner(c: &mut Criterion) {
    let cs = IdSet::from_sorted((0..2000).map(GraphId).collect(), 2000);
    let a1: Vec<GraphId> = (0..2000).filter(|i| i % 3 == 0).map(GraphId).collect();
    let a2: Vec<GraphId> = (0..2000).filter(|i| i % 2 == 0).map(GraphId).collect();
    let a3: Vec<GraphId> = (500..1500).map(GraphId).collect();
    c.bench_function("pruner_2000_candidates", |b| {
        b.iter(|| {
            let r = prune(
                &cs,
                &[HitAnswer {
                    serial: 1,
                    answer: &a1,
                }],
                &[
                    HitAnswer {
                        serial: 2,
                        answer: &a2,
                    },
                    HitAnswer {
                        serial: 3,
                        answer: &a3,
                    },
                ],
            );
            r.remaining.len() + r.direct_answer.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_query_path, bench_pruner
}
criterion_main!(benches);

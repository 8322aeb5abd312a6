//! Concurrent service throughput: `run_batch` over one shared cache at
//! 1/2/4/8 worker threads, so future PRs can track scaling of the `&self`
//! query path (snapshot reads are lock-free; the Window, statistics and
//! admission stores are the contended state).
//!
//! Cache and request construction happens in the untimed setup phase —
//! only the query replay itself is measured.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gc_core::{GraphCache, QueryRequest};
use gc_methods::MethodBuilder;
use gc_workload::{datasets, generate_type_a, TypeAConfig};

fn bench_run_batch(c: &mut Criterion) {
    let d = datasets::aids_like(0.1, 9);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(96).seed(11));

    let mut group = c.benchmark_group("run_batch");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || {
                        let cache = GraphCache::builder()
                            .capacity(50)
                            .window(10)
                            .threads(threads)
                            .build(MethodBuilder::ggsx().build(&d));
                        let requests: Vec<QueryRequest> =
                            workload.graphs().map(QueryRequest::from).collect();
                        (cache, requests)
                    },
                    |(cache, requests)| {
                        let responses = cache.run_batch(requests);
                        responses
                            .iter()
                            .map(|r| r.result.answer.len())
                            .sum::<usize>()
                    },
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
}

fn bench_shared_handle_threads(c: &mut Criterion) {
    let d = datasets::aids_like(0.1, 9);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(96).seed(12));

    let mut group = c.benchmark_group("shared_handle");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || {
                        GraphCache::builder()
                            .capacity(50)
                            .window(10)
                            .shards(threads) // one per client thread
                            .build(MethodBuilder::ggsx().build(&d))
                    },
                    |cache| {
                        let queries: Vec<_> = workload.graphs().collect();
                        let total = std::sync::atomic::AtomicUsize::new(0);
                        std::thread::scope(|s| {
                            for t in 0..threads {
                                let cache = &cache;
                                let queries = &queries;
                                let total = &total;
                                s.spawn(move || {
                                    let mut answers = 0usize;
                                    for q in queries.iter().skip(t).step_by(threads) {
                                        answers += cache.run(q).answer.len();
                                    }
                                    total.fetch_add(answers, std::sync::atomic::Ordering::Relaxed);
                                });
                            }
                        });
                        total.into_inner()
                    },
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_run_batch, bench_shared_handle_threads
}
criterion_main!(benches);

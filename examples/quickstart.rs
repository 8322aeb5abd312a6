//! Quickstart: put GraphCache in front of a filter-then-verify method and
//! watch repeated/related queries get cheaper.
//!
//! Run with: `cargo run --release --example quickstart`

use graphcache::prelude::*;
use std::time::Duration;

fn main() {
    // A molecule-ish dataset: 1,000 sparse labelled graphs.
    let dataset = datasets::aids_like(1.0, 42);
    println!("dataset: {}", dataset.stats());

    // Method M: GraphGrepSX filtering + VF2 verification (paper §7.1).
    let method = MethodBuilder::ggsx().build(&dataset);
    let baseline = MethodBuilder::ggsx().build(&dataset);

    // GraphCache with the paper's defaults: C = 100, W = 20, HD policy.
    // The handle is a shared service: `run` takes &self.
    let cache = GraphCache::builder()
        .capacity(100)
        .window(20)
        .eviction("hd")
        .threads(4) // run_batch workers for the concurrent replay below
        .build(method);

    // A workload with locality: Zipf-skewed source-graph selection.
    let workload =
        graphcache::workload::generate_type_a(&dataset, &TypeAConfig::zz(1.4).count(300).seed(7));

    let mut gc_time = Duration::ZERO;
    let mut base_time = Duration::ZERO;
    let mut gc_tests = 0u64;
    let mut base_tests = 0u64;
    let mut hits = 0usize;
    for query in workload.graphs() {
        let r = cache.run(query);
        let b = baseline.run(query);
        assert_eq!(r.answer, b.answer, "cache must not change answers");
        gc_time += r.record.query_time();
        gc_tests += r.record.subiso_tests;
        base_time += b.total_time();
        base_tests += b.subiso_tests();
        hits += r.record.any_hit() as usize;
    }

    println!(
        "{} queries | cache holds {} entries | {} queries helped by the cache",
        workload.len(),
        cache.cache_len(),
        hits
    );
    println!(
        "query time:   baseline {:>7.1} ms | with GraphCache {:>7.1} ms | speedup {:.2}x",
        base_time.as_secs_f64() * 1e3,
        gc_time.as_secs_f64() * 1e3,
        base_time.as_secs_f64() / gc_time.as_secs_f64().max(1e-12)
    );
    println!(
        "sub-iso tests: baseline {:>6} | with GraphCache {:>6} | {:.2}x fewer",
        base_tests,
        gc_tests,
        base_tests as f64 / gc_tests.max(1) as f64
    );
    println!(
        "cache memory: {:.1} KiB vs Method M index {:.1} KiB",
        cache.memory_bytes() as f64 / 1024.0,
        cache.method().index_memory_bytes().unwrap_or(0) as f64 / 1024.0
    );

    // Exact repeats of a cached query are answered without verification.
    let popular = workload.queries[workload.len() - 1].graph.clone();
    let r = cache.run(&popular);
    println!(
        "re-running the last query: exact hit = {}, sub-iso tests = {}",
        r.record.exact_hit, r.record.subiso_tests
    );

    // The same warmed cache can serve many clients at once: replay the
    // whole workload again as a typed batch fanned across worker threads.
    let t0 = std::time::Instant::now();
    let responses = cache.run_batch(workload.graphs().map(QueryRequest::from));
    let wall = t0.elapsed();
    let exact = responses
        .iter()
        .filter(|resp| resp.result.record.exact_hit)
        .count();
    println!(
        "warm batch replay: {} queries on {} threads in {:.1} ms ({} exact hits)",
        responses.len(),
        cache.batch_threads(),
        wall.as_secs_f64() * 1e3,
        exact
    );
}

//! Molecule substructure search — the paper's biochemistry motivation:
//! "queries against a biochemical dataset range from queries for simple
//! molecules and aminoacids, all the way to queries for proteins" (§1).
//!
//! A chemist's session starts with small functional-group queries, then
//! grows them into larger scaffolds. GraphCache turns the containment
//! relations between those queries into candidate-set pruning. This example
//! compares the same session with and without the cache.
//!
//! Run with: `cargo run --release --example molecule_search`

use graphcache::prelude::*;
use graphcache::workload::generate_type_a;

/// Queries before measuring starts: one window, as in the paper (§7.2).
const WARMUP: usize = 20;

fn main() {
    let dataset = datasets::aids_like(1.0, 7);
    println!("molecule library: {}", dataset.stats());

    // A drill-down-style workload: Zipf-selected scaffolds, mixed sizes —
    // small fragments and the larger motifs containing them.
    let workload = generate_type_a(
        &dataset,
        &TypeAConfig::zz(1.4)
            .sizes(vec![4, 8, 12, 16, 20])
            .count(600)
            .seed(99),
    );

    // Baseline: CT-Index alone (the strongest FTV method in the paper).
    let baseline_method = MethodBuilder::ct_index().build(&dataset);
    let (mut base_us, mut base_tests) = (0.0, 0);
    for q in workload.graphs().skip(WARMUP) {
        let r = baseline_method.run(q);
        base_us += r.total_time().as_secs_f64() * 1e6;
        base_tests += r.subiso_tests();
    }

    // The same session through GraphCache.
    let cached_method = MethodBuilder::ct_index().build(&dataset);
    let cache = GraphCache::builder()
        .capacity(100)
        .window(20)
        .eviction("hd")
        .build(cached_method);
    let (mut gc_us, mut gc_tests, mut hits) = (0.0, 0, 0);
    for (i, q) in workload.graphs().enumerate() {
        let r = cache.run(q);
        // Answers must agree with the uncached method.
        debug_assert_eq!(r.answer, baseline_method.run(q).answer);
        if i >= WARMUP {
            gc_us += r.record.query_time().as_secs_f64() * 1e6;
            gc_tests += r.record.subiso_tests;
            hits += r.record.any_hit() as usize;
        }
    }

    let measured = workload.len().saturating_sub(WARMUP).max(1) as f64;
    println!(
        "\n                 {:>14} {:>14}",
        "CT-Index", "GC/CT-Index"
    );
    println!(
        "avg query time   {:>11.0} µs {:>11.0} µs",
        base_us / measured,
        gc_us / measured
    );
    println!(
        "avg sub-iso tests{:>14.1} {:>14.1}",
        base_tests as f64 / measured,
        gc_tests as f64 / measured
    );
    println!(
        "query-time speedup: {:.2}x | sub-iso speedup: {:.2}x | hit rate {:.0}%",
        base_us / gc_us.max(1e-9),
        base_tests as f64 / gc_tests.max(1) as f64,
        hits as f64 / measured * 100.0
    );
}

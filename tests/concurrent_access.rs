//! Concurrency correctness: one shared GraphCache hammered from many
//! threads must return exactly the answers of the uncached Method M —
//! the paper's no-false-positives/negatives invariant, under the service
//! API's `&self` query path (acceptance criterion of the concurrent
//! service redesign).

use graphcache::core::{GraphCache, QueryRequest};
use graphcache::prelude::*;
use graphcache::workload::generate_type_a;
use std::sync::atomic::{AtomicUsize, Ordering};

fn dataset() -> GraphDataset {
    datasets::aids_like(0.04, 77) // 40 graphs
}

fn zipf_workload(d: &GraphDataset, count: usize, seed: u64) -> Workload {
    generate_type_a(d, &TypeAConfig::zz(1.4).count(count).seed(seed))
}

/// ≥4 threads borrow one cache instance via `&self` and replay a Zipf
/// workload; every answer must equal the uncached baseline.
#[test]
fn shared_cache_matches_baseline_from_four_threads() {
    const THREADS: usize = 4;
    let d = dataset();
    let workload = zipf_workload(&d, 120, 21);
    let baseline = MethodBuilder::ggsx().build(&d);
    let expected: Vec<Vec<GraphId>> = workload.graphs().map(|q| baseline.run(q).answer).collect();

    let cache = GraphCache::builder()
        .capacity(15)
        .window(4)
        .shards(THREADS) // one per client thread, on any host
        .build(MethodBuilder::ggsx().build(&d));

    let queries: Vec<&LabeledGraph> = workload.graphs().collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let cache = &cache;
            let queries = &queries;
            let expected = &expected;
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let got = cache.run(queries[i]).answer;
                assert_eq!(got, expected[i], "answer mismatch at query {i}");
            });
        }
    });
    assert!(
        cache.cache_len() <= 15,
        "capacity respected under contention"
    );
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// The same invariant through `run_batch`: typed requests fanned over the
/// cache's own thread pool, responses in input order.
#[test]
fn run_batch_matches_baseline_on_zipf_workload() {
    let d = dataset();
    let workload = zipf_workload(&d, 100, 22);
    let baseline = MethodBuilder::ggsx().build(&d);

    let cache = GraphCache::builder()
        .capacity(15)
        .window(4)
        .threads(6)
        .build(MethodBuilder::ggsx().build(&d));

    let responses = cache.run_batch(
        workload
            .graphs()
            .enumerate()
            .map(|(i, q)| QueryRequest::from(q).tag(i as u64)),
    );
    assert_eq!(responses.len(), workload.len());
    for (i, (resp, q)) in responses.iter().zip(workload.graphs()).enumerate() {
        assert_eq!(resp.tag, i as u64, "responses keep input order");
        assert_eq!(
            resp.result.answer,
            baseline.run(q).answer,
            "answer mismatch at query {i}"
        );
    }

    // Serials are unique even when claimed concurrently.
    let mut serials: Vec<u64> = responses.iter().map(|r| r.result.serial).collect();
    serials.sort_unstable();
    serials.dedup();
    assert_eq!(serials.len(), workload.len());
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// Cloned handles whose rounds race: each handle's thread runs the round
/// its own miss triggers, so rounds of different clients overlap each
/// other's queries and queue on the maintenance lock. Clones observe each
/// other's cached queries, and no answer changes.
#[test]
fn cloned_handles_with_racing_inline_rounds_stay_consistent() {
    const THREADS: usize = 5;
    let d = dataset();
    let workload = zipf_workload(&d, 150, 23);
    let baseline = MethodBuilder::ggsx().build(&d);
    let expected: Vec<Vec<GraphId>> = workload.graphs().map(|q| baseline.run(q).answer).collect();

    let cache = GraphCache::builder()
        .capacity(12)
        .window(2)
        .shards(THREADS) // one per client thread, on any host
        .build(MethodBuilder::ggsx().build(&d));

    let queries: Vec<&LabeledGraph> = workload.graphs().collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            // Each thread gets its own handle; all share one cache.
            let handle = cache.clone();
            let queries = &queries;
            let expected = &expected;
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let got = handle.run(queries[i]).answer;
                assert_eq!(got, expected[i], "answer mismatch at query {i}");
            });
        }
    });
    assert!(cache.cache_len() <= 12);
    assert!(cache.maint_stats().rounds > 0, "the clients ran rounds");

    // The warmed cache answers exact repeats without verification.
    let repeat = cache.run(queries[0]);
    assert_eq!(repeat.answer, expected[0]);
    // The stores every client's rounds left.
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// Mixed batches: per-request kind overrides and cache bypasses running
/// concurrently against one service instance.
#[test]
fn mixed_requests_run_concurrently() {
    let d = dataset();
    let workload = zipf_workload(&d, 60, 24);
    let sub_baseline = MethodBuilder::ggsx().build(&d);
    let super_baseline = MethodBuilder::ggsx().build(&d);

    let cache = GraphCache::builder()
        .capacity(10)
        .window(3)
        .threads(4)
        .build(MethodBuilder::ggsx().build(&d));

    let requests: Vec<QueryRequest> = workload
        .graphs()
        .enumerate()
        .map(|(i, q)| {
            let req = QueryRequest::from(q).tag(i as u64);
            match i % 3 {
                0 => req,
                1 => req.kind(QueryKind::Supergraph),
                _ => req.bypass_cache(true),
            }
        })
        .collect();
    let responses = cache.run_batch(requests);
    for (i, (resp, q)) in responses.iter().zip(workload.graphs()).enumerate() {
        let expected = match i % 3 {
            1 => super_baseline.run_directed(q, QueryKind::Supergraph).answer,
            _ => sub_baseline.run(q).answer,
        };
        assert_eq!(resp.result.answer, expected, "request {i}");
        assert_eq!(resp.bypassed_cache, i % 3 == 2);
    }
    assert_eq!(cache.check_invariants(), Ok(()));
}

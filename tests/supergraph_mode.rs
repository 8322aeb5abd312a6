//! Supergraph-query mode: GraphCache's inverse pruning rules (paper §5.1,
//! "Supergraph Query Processing") must preserve answers exactly.

use graphcache::core::{GraphCache, QueryKind};
use graphcache::graph::random::bfs_edge_subgraph;
use graphcache::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dataset of small fragments; queries are larger graphs that may contain
/// them.
fn fragments_and_queries() -> (GraphDataset, Vec<LabeledGraph>) {
    let source = datasets::aids_like(0.05, 77); // 50 source graphs
    let mut rng = StdRng::seed_from_u64(9);
    let mut fragments = Vec::new();
    for i in 0..30u32 {
        let g = source.graph(GraphId(i % source.len() as u32));
        if let Some(f) = bfs_edge_subgraph(g, 0, 3 + (i as usize % 3)) {
            fragments.push(f);
        }
    }
    let mut queries = Vec::new();
    for i in 0..40u32 {
        let g = source.graph(GraphId((i * 7) % source.len() as u32));
        let start = rng.gen_range(0..g.node_count()) as u32;
        if let Some(q) = bfs_edge_subgraph(g, start, 10 + (i as usize % 8)) {
            queries.push(q);
        }
    }
    // Repeat some queries to exercise exact hits.
    let repeats: Vec<LabeledGraph> = queries.iter().take(8).cloned().collect();
    queries.extend(repeats);
    (GraphDataset::new(fragments), queries)
}

#[test]
fn supergraph_answers_match_baseline() {
    let (db, queries) = fragments_and_queries();
    let method = MethodBuilder::si_vf2().build(&db);
    let baseline = MethodBuilder::si_vf2().build(&db);
    let cache = GraphCache::builder()
        .capacity(15)
        .window(4)
        .query_kind(QueryKind::Supergraph)
        .build(method);
    for (i, q) in queries.iter().enumerate() {
        let expected = baseline.run_directed(q, QueryKind::Supergraph).answer;
        let got = cache.run(q).answer;
        assert_eq!(got, expected, "supergraph mismatch at query {i}");
    }
}

#[test]
fn supergraph_exact_hits_fire() {
    let (db, queries) = fragments_and_queries();
    let method = MethodBuilder::si_vf2().build(&db);
    let cache = GraphCache::builder()
        .capacity(30)
        .window(1)
        .query_kind(QueryKind::Supergraph)
        .build(method);
    let q = &queries[0];
    let first = cache.run(q);
    assert!(!first.record.exact_hit);
    let second = cache.run(q);
    assert!(second.record.exact_hit);
    assert_eq!(second.record.subiso_tests, 0);
    assert_eq!(first.answer, second.answer);
}

#[test]
fn supergraph_expanding_hits_prune() {
    let (db, _) = fragments_and_queries();
    let method = MethodBuilder::si_vf2().build(&db);
    let cache = GraphCache::builder()
        .capacity(30)
        .window(1)
        .query_kind(QueryKind::Supergraph)
        .build(method);
    // Build a nested pair: small ⊆ big. Cache the small query first; its
    // answers then transfer to the big one (inverse eq. (1)).
    let source = datasets::aids_like(0.05, 77);
    let _rng = StdRng::seed_from_u64(31);
    let big = bfs_edge_subgraph(source.graph(GraphId(0)), 0, 16).unwrap();
    let small = bfs_edge_subgraph(&big, 0, 8).unwrap();
    let small_result = cache.run(&small);
    let big_result = cache.run(&big);
    // The cached small query is a super-direction hit for the big query.
    assert!(
        big_result.record.super_hits > 0,
        "expected the cached narrower query to register"
    );
    // And pruning must have spared some verification whenever the small
    // query had answers.
    if !small_result.answer.is_empty() {
        assert!(big_result.record.cs_gc_size < big_result.record.cs_m_size);
    }
}

#[test]
fn supergraph_empty_shortcut() {
    // If a cached query g' ⊇ g has an empty answer in supergraph mode...
    // inverse rule: shortcut fires when a cached query *containing* g has
    // an empty answer (nothing fits in the bigger one ⇒ nothing fits in g).
    let (db, _) = fragments_and_queries();
    let method = MethodBuilder::si_vf2().build(&db);
    let baseline = MethodBuilder::si_vf2().build(&db);
    let cache = GraphCache::builder()
        .capacity(30)
        .window(1)
        .query_kind(QueryKind::Supergraph)
        .build(method);
    // A query with labels foreign to the fragment DB has an empty answer.
    let big_foreign = LabeledGraph::from_parts(
        vec![900, 901, 902, 903, 904],
        &[(0, 1), (1, 2), (2, 3), (3, 4)],
    );
    let (small_foreign, _) = big_foreign.edge_subgraph(&[(0, 1), (1, 2)]);
    let r1 = cache.run(&big_foreign);
    assert!(r1.answer.is_empty());
    let r2 = cache.run(&small_foreign);
    assert!(r2.answer.is_empty());
    assert_eq!(
        r2.answer,
        baseline
            .run_directed(&small_foreign, QueryKind::Supergraph)
            .answer
    );
    assert!(
        r2.record.empty_shortcut,
        "inverse empty-answer shortcut must fire"
    );
    assert_eq!(r2.record.subiso_tests, 0);
}

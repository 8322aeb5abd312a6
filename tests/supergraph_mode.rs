//! Supergraph-query mode: GraphCache's inverse pruning rules (paper §5.1,
//! "Supergraph Query Processing") must preserve answers exactly.

use graphcache::core::processors::{exact_probe, find_hits_naive, sweep, HitQuery, VerifyOptions};
use graphcache::core::pruner::{prune, sides, HitAnswer, PruneResult};
use graphcache::core::{
    CacheEntry, CacheSnapshot, GraphCache, HitSet, QueryKind, QuerySerial, QUERY_INDEX_SHAPE,
};
use graphcache::graph::idset::IdSet;
use graphcache::graph::random::bfs_edge_subgraph;
use graphcache::index::paths::enumerate_paths;
use graphcache::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// What pruning Method M's candidates with `hits` leaves.
fn pruned_with(snap: &CacheSnapshot, cs_m: &IdSet, hits: &HitSet) -> PruneResult {
    let answers = |serials: &[QuerySerial]| -> Vec<HitAnswer<'_>> {
        serials
            .iter()
            .map(|&serial| HitAnswer {
                serial,
                answer: &snap.entry(serial).expect("hit is cached").answer,
            })
            .collect()
    };
    let (expanding, restricting) = sides(QueryKind::Supergraph, hits);
    prune(cs_m, &answers(expanding), &answers(restricting))
}

/// The sweep, given Method M's candidates, leaves untested only hits that
/// prune nothing, in the supergraph direction: expanding hits (cached
/// queries inside the new one) with an empty answer — one edge holds no
/// dataset fragment — and restricting hits (cached queries around the new
/// one) whose answer covers the candidates. Each, pruned on its own,
/// removes no candidate, and pruning with or without them leaves the same
/// answer and candidates.
#[test]
fn untested_supergraph_hits_would_prune_nothing() {
    let (db, queries) = fragments_and_queries();
    let method = MethodBuilder::ggsx().build(&db);
    let kind = QueryKind::Supergraph;
    let (cached, probes) = queries.split_at(24);
    let mut cached = cached.to_vec();
    for probe in probes.iter().step_by(3) {
        let (u, v) = probe.edges().next().expect("queries have edges");
        cached.push(probe.edge_subgraph(&[(u, v)]).0);
        // Around the probe, a node no fragment can use: its answer is the
        // probe's own, which covers Method M's candidates whenever the
        // filter keeps no false positive.
        let mut labels = probe.labels().to_vec();
        labels.push(9_999);
        let mut edges: Vec<(u32, u32)> = probe.edges().collect();
        edges.push((0, probe.node_count() as u32));
        cached.push(LabeledGraph::from_parts(labels, &edges));
    }
    let shape = QUERY_INDEX_SHAPE;
    let entries: Vec<Arc<CacheEntry>> = cached
        .iter()
        .enumerate()
        .map(|(i, g)| {
            Arc::new(CacheEntry::new(
                i as QuerySerial + 1,
                Arc::new(g.clone()),
                method.run_directed(g, kind).answer,
                kind,
                enumerate_paths(g, shape.max_len, shape.work_cap),
            ))
        })
        .collect();
    let snap = CacheSnapshot::build_sharded(4, entries);
    let (vf2, opts) = (method.matcher().as_ref(), VerifyOptions::default());
    let mut untested = [0usize; 2];
    for probe in probes {
        let cs_m = IdSet::from_sorted(method.filter_directed(probe, kind).candidates, db.len());
        let profile = snap.profile_of(probe);
        let hq = HitQuery::new(probe, kind, &profile);
        let exact = exact_probe(&snap, probe, kind, hq.fingerprint, vf2, &opts);
        if exact.hits.exact.is_some() {
            continue; // the query path stops at the probe
        }
        let got = sweep(&snap, &hq, exact, &cs_m, vf2, &opts);
        let naive = find_hits_naive(&snap, probe, kind, vf2);
        for (side, found, all) in [(0, &got.sub, &naive.sub), (1, &got.super_, &naive.super_)] {
            for &serial in all.iter().filter(|s| !found.contains(s)) {
                untested[side] += 1;
                let mut alone = HitSet::default();
                if side == 0 {
                    alone.sub.push(serial)
                } else {
                    alone.super_.push(serial)
                }
                let pruned = pruned_with(&snap, &cs_m, &alone);
                assert!(
                    pruned.contributions[0].removed.is_empty(),
                    "untested hit {serial} prunes"
                );
            }
            assert!(
                found.iter().all(|s| all.contains(s)),
                "the sweep finds only naive hits"
            );
        }
        let (with_all, with_tested) = (
            pruned_with(&snap, &cs_m, &naive),
            pruned_with(&snap, &cs_m, &got),
        );
        assert_eq!(with_tested.direct_answer, with_all.direct_answer);
        assert_eq!(with_tested.remaining, with_all.remaining);
    }
    assert!(
        untested[0] > 0 && untested[1] > 0,
        "restricting, expanding hits untested: {untested:?}"
    );
}

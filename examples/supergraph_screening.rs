//! Supergraph queries: structural-alert screening.
//!
//! The dataset holds small "alert" fragments (toxicophores); each incoming
//! molecule is a **supergraph query** — find all alerts contained in it
//! (paper §3: determine all `Gi ∈ D` with `g ⊇ Gi`). GraphCache handles
//! this mode with the inverse pruning rules of §5.1, including the inverse
//! empty-answer shortcut.
//!
//! Run with: `cargo run --release --example supergraph_screening`

use graphcache::core::{QueryKind, QueryRequest};
use graphcache::graph::random::bfs_edge_subgraph;
use graphcache::prelude::*;

fn main() {
    // Alert library: many small fragments (3–6 edges each).
    let molecules = datasets::aids_like(0.3, 3);
    let mut alerts = Vec::new();
    for i in 0..120 {
        let src = molecules.graph(GraphId(i % molecules.len() as u32));
        if let Some(frag) = bfs_edge_subgraph(src, i % 5, 3 + (i as usize % 4)) {
            alerts.push(frag);
        }
    }
    let alert_db = GraphDataset::new(alerts);
    println!("alert library: {}", alert_db.stats());

    // Supergraph Method M: GGSX — its path index also filters the inverse
    // (containment) direction via per-graph feature counting.
    let method = MethodBuilder::ggsx().build(&alert_db);
    let baseline = MethodBuilder::ggsx().build(&alert_db);
    let cache = GraphCache::builder()
        .capacity(60)
        .window(10)
        .eviction("hd")
        .query_kind(QueryKind::Supergraph)
        .build(method);

    // Screen a stream of molecules, with repeats (realistic: the same
    // compound arrives through different assay pipelines).
    let mut screened = 0usize;
    let mut flagged = 0usize;
    let mut tests_gc = 0u64;
    let mut tests_base = 0u64;
    for round in 0..3 {
        for i in 0..60u32 {
            let mol = molecules.graph(GraphId((i * 3) % molecules.len() as u32));
            // Take a mid-size portion of the molecule as the screened unit.
            let Some(unit) = bfs_edge_subgraph(mol, 0, 14) else {
                continue;
            };
            // Typed submission: the request carries a correlation tag the
            // pipeline can route the response by.
            let response = cache.execute(QueryRequest::from(&unit).tag(u64::from(i)));
            assert_eq!(response.tag, u64::from(i));
            let gc_result = response.result;
            let base_result = baseline.run_directed(&unit, QueryKind::Supergraph);
            assert_eq!(gc_result.answer, base_result.answer, "screening mismatch");
            screened += 1;
            flagged += (!gc_result.answer.is_empty()) as usize;
            tests_gc += gc_result.record.subiso_tests;
            tests_base += base_result.verify.stats.tests;
            let _ = round;
        }
    }

    println!("screened {screened} units | {flagged} contained at least one alert");
    println!(
        "sub-iso tests: baseline = {tests_base}, with GraphCache = {tests_gc} ({:.1}x fewer)",
        tests_base as f64 / tests_gc.max(1) as f64
    );
    println!("cache entries: {}", cache.cache_len());
}

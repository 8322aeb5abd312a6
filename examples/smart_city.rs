//! Exploratory smart-city analytics — the paper's §1 scenario: "queries
//! referring to road networks may pertain to neighbourhoods, towns, metro
//! areas" — i.e. an analyst drills *down* (subqueries of an earlier query)
//! and rolls *up* (superqueries). GraphCache recognises both directions:
//!
//! * drill-down: the old broad query **contains** the new one — every graph
//!   in its cached answer is answered without a sub-iso test (eq. (1));
//! * roll-up: the old narrow query is **contained** in the new one — every
//!   graph outside its cached answer is pruned (eq. (2)).
//!
//! Run with: `cargo run --release --example smart_city`

use graphcache::graph::random::bfs_edge_subgraph;
use graphcache::prelude::*;

fn main() {
    // City districts: medium-size road-network-like graphs (PCM-shaped:
    // dense intersections, few labels = road categories).
    let dataset = datasets::pcm_like(1.0, 21);
    println!("district dataset: {}", dataset.stats());

    let method = MethodBuilder::grapes(1).build(&dataset);
    let cache = GraphCache::builder()
        .capacity(50)
        .window(1) // cache immediately so the session benefits right away
        .eviction("hd")
        .build(method);

    // The analyst extracts a "metro area" pattern from district 0, then
    // narrows it twice, then broadens again.
    let district = dataset.graph(GraphId(0));
    let metro = bfs_edge_subgraph(district, 0, 28).expect("metro pattern");
    let town = bfs_edge_subgraph(&metro, 0, 16).expect("town pattern");
    let neighbourhood = bfs_edge_subgraph(&town, 0, 8).expect("neighbourhood");

    let steps: [(&str, &LabeledGraph); 4] = [
        ("metro area (28 edges)", &metro),
        ("town (16 edges, ⊆ metro)", &town),
        ("neighbourhood (8 edges, ⊆ town)", &neighbourhood),
        ("metro area revisited", &metro),
    ];

    println!(
        "\n{:<34} {:>7} {:>7} {:>9} {:>6} {:>6} {:>6}",
        "query", "|CS_M|", "|CS_GC|", "sub-iso", "sub", "super", "exact"
    );
    for (name, q) in steps {
        let r = cache.run(q);
        println!(
            "{:<34} {:>7} {:>7} {:>9} {:>6} {:>6} {:>6}",
            name,
            r.record.cs_m_size,
            r.record.cs_gc_size,
            r.record.subiso_tests,
            r.record.sub_hits,
            r.record.super_hits,
            r.record.exact_hit
        );
    }

    println!(
        "\nDrill-downs hit the cached broader query (sub column), the\
         \nroll-up is pruned by the cached narrow queries (super column),\
         \nand revisiting the metro pattern is answered with zero sub-iso\
         \ntests (exact column)."
    );
}

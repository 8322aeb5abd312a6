//! End-to-end behaviour of the cache machinery: capacity, windowing,
//! statistics, admission control and maintenance accounting.

use graphcache::core::{GraphCache, PolicyKind};
use graphcache::prelude::*;
use graphcache::workload::generate_type_a;

fn dataset() -> GraphDataset {
    datasets::aids_like(0.05, 500)
}

fn build_cache(d: &GraphDataset, capacity: usize, window: usize) -> GraphCache {
    GraphCache::builder()
        .capacity(capacity)
        .window(window)
        .build(MethodBuilder::ggsx().build(d))
}

#[test]
fn window_batches_admissions() {
    let d = dataset();
    let gc = build_cache(&d, 50, 5);
    let w = generate_type_a(&d, &TypeAConfig::uu().count(14).seed(1));
    for (i, q) in w.graphs().enumerate() {
        gc.run(q);
        // Cache only changes at window boundaries.
        let expected = ((i + 1) / 5) * 5;
        assert_eq!(gc.cache_len(), expected.min(50), "after query {i}");
        assert_eq!(gc.window_len(), (i + 1) % 5);
    }
}

#[test]
fn capacity_is_hard_bound_under_all_policies() {
    let d = dataset();
    let w = generate_type_a(&d, &TypeAConfig::uu().count(60).seed(2));
    for policy in PolicyKind::ALL {
        let gc = GraphCache::builder()
            .capacity(7)
            .window(3)
            .eviction(policy.name())
            .build(MethodBuilder::ggsx().build(&d));
        for q in w.graphs() {
            gc.run(q);
            assert!(gc.cache_len() <= 7, "policy {policy:?} overflowed");
        }
    }
}

#[test]
fn evicted_entries_lose_their_stats_rows() {
    let d = dataset();
    let gc = build_cache(&d, 4, 2);
    let w = generate_type_a(&d, &TypeAConfig::uu().count(20).seed(3));
    for q in w.graphs() {
        gc.run(q);
    }
    // Stats rows exist only for currently cached entries.
    let cached = gc.cache_len();
    assert_eq!(
        gc.stats_rows().len(),
        cached,
        "stats rows must track cache contents"
    );
}

#[test]
fn admission_control_blocks_cheap_queries() {
    let d = dataset();
    // Expensiveness = verification work. With an aggressive target
    // fraction, only the heaviest queries enter.
    let gc = GraphCache::builder()
        .capacity(50)
        .window(5)
        .admission("threshold:windows=1,fraction=0.2")
        .build(MethodBuilder::ggsx().build(&d));
    let w = generate_type_a(&d, &TypeAConfig::uu().count(40).seed(4));
    for q in w.graphs() {
        gc.run(q);
    }
    // Window 1 (5 queries) admits everything (calibration); afterwards only
    // ~20% pass. 5 + ~7 of the remaining 35 → strictly fewer than the
    // no-AC case, which would cache min(40, 50) = 40.
    assert!(
        gc.cache_len() < 20,
        "admission control failed to gate: {} cached",
        gc.cache_len()
    );
}

#[test]
fn maintenance_time_is_recorded() {
    let d = dataset();
    let gc = build_cache(&d, 20, 5);
    let w = generate_type_a(&d, &TypeAConfig::uu().count(25).seed(5));
    let mut inline_maintenance = std::time::Duration::ZERO;
    for q in w.graphs() {
        inline_maintenance += gc.run(q).record.maintenance;
    }
    let total = gc.maint_stats().total;
    assert!(total.as_micros() > 0);
    // A round is charged to the query that fills the Window.
    assert!(inline_maintenance >= std::time::Duration::from_micros(1));
}

#[test]
fn hit_statistics_accumulate_on_cached_entries() {
    let d = dataset();
    let gc = build_cache(&d, 30, 1);
    let w = generate_type_a(&d, &TypeAConfig::zz(1.7).count(30).seed(6));
    let mut serials = Vec::new();
    for q in w.graphs() {
        serials.push(gc.run(q).serial);
    }
    // Zipf-1.7 workloads repeat queries; some cached entry must have been
    // credited with hits and R contributions.
    let total_hits: u64 = gc.stats_rows().iter().map(|r| r.hits).sum();
    assert!(total_hits > 0, "no hits credited on a skewed workload");
}

#[test]
fn larger_cache_never_hurts_hit_rate() {
    let d = dataset();
    let w = generate_type_a(&d, &TypeAConfig::zz(1.4).count(120).seed(7));
    let hit_count = |capacity: usize| {
        let gc = build_cache(&d, capacity, 5);
        let mut hits = 0usize;
        for q in w.graphs() {
            hits += gc.run(q).record.any_hit() as usize;
        }
        hits
    };
    let small = hit_count(5);
    let large = hit_count(60);
    assert!(large >= small, "bigger cache lost hits: {large} < {small}");
}

#[test]
fn gc_memory_stays_modest_relative_to_ftv_index() {
    // The §7.3 space claim at miniature scale: GC's stores are a fraction
    // of a serious FTV index.
    let d = datasets::aids_like(0.2, 901);
    let gc = GraphCache::builder()
        .capacity(100)
        .window(10)
        .build(MethodBuilder::grapes(1).build(&d));
    let w = generate_type_a(&d, &TypeAConfig::zz(1.4).count(150).seed(8));
    for q in w.graphs() {
        gc.run(q);
    }
    let gc_bytes = gc.memory_bytes() as f64;
    let index_bytes = gc.method().index_memory_bytes().unwrap() as f64;
    assert!(
        gc_bytes < 0.5 * index_bytes,
        "GC stores ({gc_bytes} B) not small vs index ({index_bytes} B)"
    );
}

//! Snapshot restore latency on a 10k-entry cache: what the PROFILES
//! section of `snapshot.bin` buys.
//!
//! A restore is `load_resilient` (checksum pass + bulk decode of the arena
//! sections) + materialisation (`into_snapshot_sharded`). Both measured
//! restores read the same snapshot. One reuses the stored path-feature
//! profiles verbatim, so its materialisation is a copy. The other drops
//! them (`profiles = None`) and re-enumerates every entry graph's simple
//! paths, the dominant cost of standing a cache back up without them.
//!
//! Both pay the same decode and index-rebuild cost (`build_sharded` from
//! profiles), so the comparison isolates exactly what storing profiles
//! buys. The bench asserts the profile-reusing restore is ≥ 5x faster
//! before handing both to criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use gc_core::{DatasetIdentity, PersistedCache, StatsStore, StoredProfiles, QUERY_INDEX_SHAPE};
use gc_graph::{GraphId, LabeledGraph};
use gc_index::fingerprint::iso_hash;
use gc_index::paths::enumerate_paths;
use gc_methods::QueryKind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const ENTRIES: u64 = 10_000;
const SHARDS: usize = 8;
/// The stored-profiles contract this bench gates on.
const MIN_SPEEDUP: f64 = 5.0;

/// A 10–12 node labelled path with chords at distance 2 and 3 over a
/// 2-letter alphabet. The density makes the simple-path walk expensive
/// (thousands of walks per graph — the cost a restore without profiles
/// pays per entry), while the tiny alphabet collapses those walks into few
/// distinct features, so the stored profile a restore reuses stays small
/// and cheap to decode.
fn seeded_graph(seed: u64) -> LabeledGraph {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let len = 10 + (h % 3) as usize;
    let labels: Vec<u32> = (0..len).map(|i| ((h >> i) & 1) as u32).collect();
    let mut edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    for i in 0..len as u32 - 2 {
        edges.push((i, i + 2));
    }
    for i in 0..len as u32 - 3 {
        edges.push((i, i + 3));
    }
    for i in (0..len as u32 - 4).step_by(2) {
        edges.push((i, i + 4));
    }
    LabeledGraph::from_parts(labels, &edges)
}

/// Builds the 10k-entry persisted state, profiles included.
fn corpus() -> PersistedCache {
    let shape = QUERY_INDEX_SHAPE;
    let mut entries = Vec::with_capacity(ENTRIES as usize);
    let mut profiles = Vec::with_capacity(ENTRIES as usize);
    for serial in 1..=ENTRIES {
        let graph = seeded_graph(serial);
        let fingerprint = iso_hash(&graph);
        profiles.push(enumerate_paths(&graph, shape.max_len, shape.work_cap));
        let answers = vec![GraphId((serial % 256) as u32), GraphId(300)];
        entries.push((serial, graph, answers, QueryKind::Subgraph, fingerprint));
    }
    PersistedCache {
        entries,
        stats: StatsStore::default(),
        next_serial: ENTRIES + 1,
        policy: Some("lru".to_string()),
        dataset: DatasetIdentity::default(),
        fragments: Vec::new(),
        profiles: Some(StoredProfiles { shape, profiles }),
    }
}

/// One full restore: load from `dir` + sharded materialisation, reusing
/// the stored profiles or (`reuse_profiles == false`) re-enumerating
/// paths. Returns the entry count so the work can't be optimised away.
fn restore(dir: &Path, reuse_profiles: bool) -> usize {
    let mut loaded = PersistedCache::load_resilient(dir).expect("load").state;
    if !reuse_profiles {
        loaded.profiles = None;
    }
    let (snap, _stats, _serial) = loaded.into_snapshot_sharded(SHARDS);
    snap.len()
}

/// Best-of-3 wall time for the hardware gate (criterion's distributions
/// come after; the assertion wants a stable point estimate).
fn best_of_3(mut f: impl FnMut() -> usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut n = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        n = f();
        best = best.min(t0.elapsed());
    }
    (best, n)
}

fn bench_restore(c: &mut Criterion) {
    let root: PathBuf =
        std::env::temp_dir().join(format!("gc-bench-restore-{}", std::process::id()));
    let state = corpus();
    state.save(&root).expect("save");
    let bytes = std::fs::metadata(root.join("snapshot.bin"))
        .expect("snapshot.bin")
        .len();

    // ---- The ≥5x restore contract (asserted, printed once). ----
    let (slow_t, slow_n) = best_of_3(|| restore(&root, false));
    let (fast_t, fast_n) = best_of_3(|| restore(&root, true));
    assert_eq!(slow_n, ENTRIES as usize);
    assert_eq!(fast_n, ENTRIES as usize);
    let speedup = slow_t.as_secs_f64() / fast_t.as_secs_f64().max(1e-9);
    println!("restore of {ENTRIES} entries into {SHARDS} shards ({bytes} snapshot bytes):");
    println!(
        "  re-enumerating paths   : {:>9.1} ms",
        slow_t.as_secs_f64() * 1e3
    );
    println!(
        "  reusing stored profiles: {:>9.1} ms  ({speedup:.1}x faster)",
        fast_t.as_secs_f64() * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "reusing stored profiles must restore ≥{MIN_SPEEDUP}x faster: {speedup:.2}x"
    );

    // ---- Wall-clock distributions of the same two paths. ----
    let mut group = c.benchmark_group("restore");
    group.sample_size(10);
    group.bench_function("re-enumerate", |b| b.iter(|| restore(&root, false)));
    group.bench_function("stored-profiles", |b| b.iter(|| restore(&root, true)));
    group.finish();

    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_restore);
criterion_main!(benches);

//! Cache persistence across process lifetimes (paper §6.1: stores are
//! loaded on startup and written back on shutdown) through the one
//! on-disk representation, the checksummed `snapshot.bin`. The property
//! test pins the round trip — save → restore → save is byte-identical and
//! the restored cache answers like the one that was saved — and the unit
//! tests pin the failure modes: corrupted snapshots, saves of earlier
//! releases and snapshots of another dataset fail with typed errors, never
//! a panic or a wrong answer.

use graphcache::core::{
    DatasetIdentity, GraphCache, PersistedCache, PolicyRow, StatsStore, QUERY_INDEX_SHAPE,
};
use graphcache::graph::GraphError;
use graphcache::prelude::*;
use graphcache::workload::generate_type_a;
use proptest::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gc-it-persist-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn save_and_restore_preserves_hits_and_answers() {
    let d = datasets::aids_like(0.04, 321);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(40).seed(11));
    let dir = tmpdir("roundtrip");

    // First lifetime: run the workload, persist on shutdown.
    let first = GraphCache::builder()
        .capacity(20)
        .window(4)
        .build(MethodBuilder::ggsx().build(&d));
    let mut first_answers = Vec::new();
    for q in workload.graphs() {
        first_answers.push(first.run(q).answer);
    }
    let cached_before = first.cache_len();
    assert!(cached_before > 0);
    first.save(&dir).unwrap();
    drop(first);

    // Second lifetime: restore, replay — answers identical, and previously
    // cached queries hit exactly.
    let second = GraphCache::builder()
        .capacity(20)
        .window(4)
        .build(MethodBuilder::ggsx().build(&d));
    second.restore(&dir).unwrap();
    assert_eq!(second.cache_len(), cached_before);

    let mut exact_hits = 0usize;
    for (i, q) in workload.graphs().enumerate() {
        let r = second.run(q);
        assert_eq!(r.answer, first_answers[i], "answer drift after restore");
        exact_hits += r.record.exact_hit as usize;
    }
    assert!(
        exact_hits > 0,
        "restored cache should serve exact hits immediately"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_serials_do_not_collide() {
    let d = datasets::aids_like(0.04, 322);
    let workload = generate_type_a(&d, &TypeAConfig::uu().count(10).seed(3));
    let dir = tmpdir("serials");

    let first = GraphCache::builder()
        .capacity(10)
        .window(2)
        .build(MethodBuilder::ggsx().build(&d));
    let mut max_serial = 0;
    for q in workload.graphs() {
        max_serial = first.run(q).serial;
    }
    first.save(&dir).unwrap();

    let second = GraphCache::builder()
        .capacity(10)
        .window(2)
        .build(MethodBuilder::ggsx().build(&d));
    second.restore(&dir).unwrap();
    let r = second.run(&workload.queries[0].graph);
    assert!(
        r.serial > max_serial,
        "restored cache must continue serial numbering ({} <= {max_serial})",
        r.serial
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Saves race client-thread rounds, as `gc serve --snapshot-every` does:
/// while four clients run queries (each running the maintenance round its
/// own miss triggers), the main thread saves several generations into one
/// directory. Every generation loads, holds entries and statistics rows of
/// the same serial set, and restores into a fresh cache that passes
/// `check_invariants`; every client answer equals uncached Method M's.
#[test]
fn save_races_client_thread_rounds() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const CLIENTS: usize = 4;
    const SAVES: usize = 6;
    let d = datasets::aids_like(0.04, 323);
    let workload = generate_type_a(&d, &TypeAConfig::uu().count(60).seed(5));
    let baseline = MethodBuilder::ggsx().build(&d);
    let expected: Vec<Vec<GraphId>> = workload.graphs().map(|q| baseline.run(q).answer).collect();
    let queries: Vec<&LabeledGraph> = workload.graphs().collect();
    let dir = tmpdir("racing-rounds");
    let build = || {
        GraphCache::builder()
            .capacity(10)
            .window(3)
            .build(MethodBuilder::ggsx().build(&d))
    };
    let gc = build();
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let mut generations = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let handle = gc.clone();
            let (queries, expected, stop, next) = (&queries, &expected, &stop, &next);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed) % queries.len();
                    assert_eq!(handle.run(queries[i]).answer, expected[i], "query {i}");
                }
            });
        }
        // Stops the clients however the saves end, so a failed assertion
        // below fails the test instead of leaving it waiting on them.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _stop = StopOnDrop(&stop);
        for _ in 0..SAVES {
            // Each save follows at least one more round, so every
            // generation is taken from a cache the clients are changing.
            let rounds = gc.maint_stats().rounds;
            let t0 = std::time::Instant::now();
            while gc.maint_stats().rounds == rounds {
                assert!(t0.elapsed().as_secs() < 60, "no round within 60 s");
                std::thread::yield_now();
            }
            gc.save(&dir).unwrap();
            let recovered = PersistedCache::load_resilient(&dir).unwrap();
            generations.push(recovered.generation);
            let state = recovered.state;
            let mut entries: Vec<u64> = state.entries.iter().map(|e| e.0).collect();
            entries.sort_unstable();
            let rows: Vec<u64> = state.stats.rows().iter().map(|r| r.serial).collect();
            assert_eq!(entries, rows, "generation {:?}", recovered.generation);
            let fresh = build();
            let report = fresh.restore(&dir).unwrap();
            assert_eq!(report.entries, entries.len());
            assert_eq!(fresh.check_invariants(), Ok(()));
        }
    });
    assert!(
        generations.windows(2).all(|w| w[0] < w[1]) && generations[0].is_some(),
        "every save commits a new generation: {generations:?}"
    );
    assert_eq!(gc.check_invariants(), Ok(()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs a small deterministic workload and returns the warmed cache
/// (plus the dataset so callers can build identically configured fresh
/// caches to restore into).
fn warmed_cache(seed: u64, count: usize, capacity: usize) -> (GraphCache, GraphDataset) {
    let d = datasets::aids_like(0.04, 400 + seed);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(count).seed(seed + 1));
    let gc = GraphCache::builder()
        .capacity(capacity)
        .window(4)
        .build(MethodBuilder::ggsx().build(&d));
    for q in workload.graphs() {
        gc.run(q);
    }
    (gc, d)
}

fn read_file(dir: &std::path::Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// A cache built like [`warmed_cache`]'s, without a replay.
fn fresh_cache(d: &GraphDataset, capacity: usize) -> GraphCache {
    GraphCache::builder()
        .capacity(capacity)
        .window(4)
        .build(MethodBuilder::ggsx().build(d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// save → restore → save is the identity on disk (entries, answer
    /// sets, stored profiles, statistics and fragments in one byte
    /// comparison), and the restored cache answers the workload exactly
    /// like the cache that was saved.
    #[test]
    fn save_restore_save_is_byte_identical(
        seed in 0u64..200,
        count in 8usize..30,
        capacity in 5usize..25,
    ) {
        let (gc, d) = warmed_cache(seed, count, capacity);
        let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(count).seed(seed + 1));
        let root = tmpdir(&format!("resave-{seed}-{count}-{capacity}"));
        gc.save(root.join("saved")).unwrap();
        let restored = fresh_cache(&d, capacity);
        restored.restore(root.join("saved")).unwrap();
        prop_assert_eq!(restored.cache_len(), gc.cache_len());
        prop_assert_eq!(restored.stats_rows(), gc.stats_rows());
        restored.save(root.join("resaved")).unwrap();
        prop_assert_eq!(
            read_file(&root.join("saved"), "snapshot.bin"),
            read_file(&root.join("resaved"), "snapshot.bin")
        );
        for q in workload.graphs() {
            prop_assert_eq!(restored.run(q).answer, gc.run(q).answer);
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Truncating or flipping bytes anywhere in a manifest-less directory's
/// `snapshot.bin` must surface as a typed [`GraphError::Snapshot`] from
/// `load_resilient` — never a panic, and never a silently wrong cache.
#[test]
fn corrupted_binary_snapshot_fails_typed() {
    let (gc, _d) = warmed_cache(9, 20, 12);
    let dir = tmpdir("corrupt");
    gc.save(&dir).unwrap();
    drop(gc);
    // Leave only the flat current view, so the load reads it directly.
    std::fs::remove_file(dir.join("MANIFEST")).unwrap();
    let good = read_file(&dir, "snapshot.bin");
    let recovered = PersistedCache::load_resilient(&dir).unwrap();
    assert_eq!(recovered.generation, None, "no manifest: the flat view");

    let expect_snapshot_err = |bytes: &[u8], what: String| {
        std::fs::write(dir.join("snapshot.bin"), bytes).unwrap();
        match PersistedCache::load_resilient(&dir) {
            Err(GraphError::Snapshot { .. }) => {}
            other => panic!("{what}: expected GraphError::Snapshot, got {other:?}"),
        }
    };
    // Truncations at coarse steps plus the boundary-sensitive first bytes.
    let step = (good.len() / 64).max(1);
    for cut in (0..good.len()).step_by(step).chain(0..16.min(good.len())) {
        expect_snapshot_err(&good[..cut], format!("truncated to {cut} bytes"));
    }
    // Bit flips anywhere break the checksum.
    for pos in (0..good.len()).step_by((good.len() / 32).max(1)) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        expect_snapshot_err(&bad, format!("flipped byte {pos}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Text saves of earlier releases are not read: a text-only directory
/// (flat `entries.txt`, no `MANIFEST`) and a directory whose `MANIFEST`
/// lists a `text` generation both fail `restore` with a typed error and
/// leave the cache empty.
#[test]
fn text_saves_fail_restore_typed() {
    let d = datasets::aids_like(0.04, 407);
    let dir = tmpdir("text-save");
    let entries = "next_serial 2\n@entry 1 sub fp:0000000000000001\n# q1\n1\n0\n0\nanswers: 0\n";
    std::fs::write(dir.join("entries.txt"), entries).unwrap();
    std::fs::write(dir.join("stats.txt"), "").unwrap();
    let cache = fresh_cache(&d, 12);
    match cache.restore(&dir) {
        Err(GraphError::Snapshot { message, .. }) => {
            assert!(
                message.contains("text saves are no longer read"),
                "{message}"
            );
        }
        other => panic!("text-only directory: expected GraphError::Snapshot, got {other:?}"),
    }

    std::fs::create_dir_all(dir.join("gen-000001")).unwrap();
    std::fs::write(dir.join("gen-000001/entries.txt"), entries).unwrap();
    let body = format!(
        "gc-manifest v1\ngen 000001 text entries.txt:{:016x}:{}\n",
        graphcache::index::fingerprint::fnv1a(entries.as_bytes()),
        entries.len()
    );
    let sum = graphcache::index::fingerprint::fnv1a(body.as_bytes());
    std::fs::write(dir.join("MANIFEST"), format!("{body}sum {sum:016x}\n")).unwrap();
    assert!(
        matches!(cache.restore(&dir), Err(GraphError::Snapshot { .. })),
        "a MANIFEST listing a text generation must not restore"
    );
    assert_eq!(cache.cache_len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `snapshot.bin` of the earlier format (`GCSNAP01`, here an otherwise
/// current image under that magic and a valid checksum) fails `restore`
/// with a typed error that names an earlier release and says to rebuild,
/// and leaves the cache empty.
#[test]
fn earlier_format_snapshot_fails_restore_typed() {
    let (gc, d) = warmed_cache(10, 20, 12);
    let dir = tmpdir("gcsnap01");
    gc.save(&dir).unwrap();
    std::fs::remove_file(dir.join("MANIFEST")).unwrap();
    let mut bytes = read_file(&dir, "snapshot.bin");
    let body = bytes.len() - 8;
    bytes[..8].copy_from_slice(b"GCSNAP01");
    let sum = graphcache::index::fingerprint::fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(dir.join("snapshot.bin"), bytes).unwrap();
    let cache = fresh_cache(&d, 12);
    match cache.restore(&dir) {
        Err(GraphError::Snapshot { message, .. }) => {
            assert!(message.contains("earlier release"), "{message}");
            assert!(message.contains("rebuild the cache"), "{message}");
        }
        other => panic!("GCSNAP01 image: expected GraphError::Snapshot, got {other:?}"),
    }
    assert_eq!(cache.cache_len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose header records no path profiles (`u64::MAX`, with its
/// PROFILE_KEYS section left in place or gone) or profiles of another path
/// shape than the query index's fails `restore` with a typed error that
/// says to rebuild, and leaves the warmed cache it was restored into as it
/// was: same entries and statistics rows, invariants intact, and a re-save
/// byte-identical to the save before the attempt.
#[test]
fn snapshot_without_query_index_profiles_fails_restore_and_keeps_the_cache() {
    let (gc, _d) = warmed_cache(11, 20, 12);
    let root = tmpdir("no-profiles");
    gc.save(root.join("before")).unwrap();
    let good = read_file(&root.join("before"), "snapshot.bin");
    let (len, rows) = (gc.cache_len(), gc.stats_rows());
    assert!(len > 0);
    let shape = QUERY_INDEX_SHAPE;
    // Header words: profile_max_len at byte 24, profile_work_cap at 32.
    let variants = [
        (24, u64::MAX, true),
        (24, u64::MAX, false),
        (24, shape.max_len as u64 + 1, true),
        (32, shape.work_cap * 2, true),
    ];
    for (at, word, keep_section) in variants {
        let mut image = good.clone();
        image[at..at + 8].copy_from_slice(&word.to_le_bytes());
        if !keep_section {
            // PROFILE_KEYS is the last section: drop its table row and
            // its bytes, which end the payload.
            let count = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
            let row = 48 + (count - 1) * 24;
            let id = u64::from_le_bytes(image[row..row + 8].try_into().unwrap());
            assert_eq!(id, 14, "PROFILE_KEYS is the last section");
            let section_len = u64::from_le_bytes(image[row + 16..row + 24].try_into().unwrap());
            image.truncate(image.len() - 8 - section_len as usize);
            image.drain(row..row + 24);
            image[40..48].copy_from_slice(&(count as u64 - 1).to_le_bytes());
            image.extend_from_slice(&[0; 8]);
        }
        let body = image.len() - 8;
        let sum = graphcache::index::fingerprint::fnv1a(&image[..body]);
        image[body..].copy_from_slice(&sum.to_le_bytes());
        let dir = root.join(format!("bad-{at}-{word}-{keep_section}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.bin"), image).unwrap();
        match gc.restore(&dir) {
            Err(GraphError::Snapshot { message, .. }) => {
                assert!(message.contains("profiles"), "{message}");
                assert!(message.contains("rebuild the cache"), "{message}");
            }
            other => {
                panic!("header word {at} = {word}: expected GraphError::Snapshot, got {other:?}")
            }
        }
        assert_eq!(gc.cache_len(), len);
        assert_eq!(gc.stats_rows(), rows);
        assert_eq!(gc.check_invariants(), Ok(()));
    }
    gc.save(root.join("after")).unwrap();
    assert_eq!(read_file(&root.join("after"), "snapshot.bin"), good);
    std::fs::remove_dir_all(&root).ok();
}

/// Restores `saved_over`'s warmed cache into a cache over `restored_over`:
/// the restore must fail typed, leave the cache empty, and the cache must
/// then answer a workload exactly like uncached Method M.
fn assert_foreign_snapshot_refused(saved_over: &GraphDataset, restored_over: &GraphDataset) {
    let workload = generate_type_a(saved_over, &TypeAConfig::zz(1.4).count(40).seed(11));
    let dir = tmpdir(&format!("foreign-{}", saved_over.len()));
    let first = fresh_cache(saved_over, 20);
    for q in workload.graphs() {
        first.run(q);
    }
    assert!(first.cache_len() > 0);
    first.save(&dir).unwrap();

    let cache = fresh_cache(restored_over, 20);
    match cache.restore(&dir) {
        Err(GraphError::Snapshot { message, .. }) => {
            assert!(message.contains("another dataset"), "{message}");
        }
        other => panic!("foreign snapshot: expected GraphError::Snapshot, got {other:?}"),
    }
    assert_eq!(cache.cache_len(), 0);
    let method_m = MethodBuilder::ggsx().build(restored_over);
    for q in workload.graphs() {
        assert_eq!(cache.run(q).answer, method_m.run(q).answer);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot saved over one dataset is refused over another with the
/// same number of graphs, whose answer ids would name other graphs.
#[test]
fn restore_over_same_sized_other_dataset_is_refused() {
    let saved_over = datasets::aids_like(0.04, 321);
    let restored_over = datasets::aids_like(0.04, 999);
    assert_eq!(saved_over.len(), restored_over.len());
    assert_foreign_snapshot_refused(&saved_over, &restored_over);
}

/// A snapshot saved over a larger dataset is refused over a smaller one,
/// whose answer ids it would index past the end.
#[test]
fn restore_over_smaller_dataset_is_refused() {
    let saved_over = datasets::aids_like(0.08, 321);
    let restored_over = datasets::aids_like(0.04, 321);
    assert!(saved_over.len() > restored_over.len());
    assert_foreign_snapshot_refused(&saved_over, &restored_over);
}

/// Snapshots written while exact repeats were still re-admitted hold
/// isomorphic copies of one query. Restore keeps the smallest serial of
/// each isomorphism class and drops the others with their statistics rows,
/// so the restored cache passes the duplicates invariant and the kept
/// entry answers the repeat.
#[test]
fn restore_drops_isomorphic_copies_of_old_snapshots() {
    let d = GraphDataset::new(vec![LabeledGraph::from_parts(
        vec![0, 1, 2, 3],
        &[(0, 1), (1, 2), (2, 3)],
    )]);
    let dir = tmpdir("dedup");
    // Entries 7 and 3 are the path 0-1-2 with its nodes numbered in
    // opposite orders; entry 5 is the edge 2-3.
    let path_7 = LabeledGraph::from_parts(vec![2, 1, 0], &[(0, 1), (1, 2)]);
    let path_3 = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]);
    let edge_5 = LabeledGraph::from_parts(vec![2, 3], &[(0, 1)]);
    let mut stats = StatsStore::new();
    for (serial, hits) in [(3, 4), (5, 1), (7, 2)] {
        stats.insert(PolicyRow {
            serial,
            last_hit: serial,
            hits,
            r_total: 0,
            c_total: 0.0,
        });
    }
    let entry = |serial: u64, graph: LabeledGraph| {
        let fingerprint = graphcache::index::fingerprint::iso_hash(&graph);
        let shape = QUERY_INDEX_SHAPE;
        let profile =
            graphcache::index::paths::enumerate_paths(&graph, shape.max_len, shape.work_cap);
        (
            serial,
            graph,
            vec![GraphId(0)],
            QueryKind::Subgraph,
            fingerprint,
            profile,
        )
    };
    PersistedCache {
        entries: vec![entry(7, path_7), entry(3, path_3), entry(5, edge_5)],
        stats,
        next_serial: 9,
        policy: Some("hd".to_string()),
        dataset: DatasetIdentity::of(&d),
        ..PersistedCache::default()
    }
    .save(&dir)
    .unwrap();
    let cache = GraphCache::builder()
        .capacity(10)
        .window(4)
        .build(MethodBuilder::ggsx().build(&d));
    let report = cache.restore(&dir).unwrap();
    assert_eq!(report.entries, 2);
    assert_eq!(cache.check_invariants(), Ok(()));
    let serials: Vec<u64> = cache.stats_rows().iter().map(|r| r.serial).collect();
    assert_eq!(serials, vec![3, 5], "the copy's row is dropped with it");
    let r = cache.run(&LabeledGraph::from_parts(vec![1, 2, 0], &[(2, 0), (0, 1)]));
    assert!(r.record.exact_hit);
    assert_eq!(r.answer, vec![GraphId(0)]);
    assert_eq!(cache.stats_rows()[0].hits, 5);
    std::fs::remove_dir_all(&dir).ok();
}

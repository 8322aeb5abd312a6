//! Cache persistence across process lifetimes (paper §6.1: stores are
//! loaded on startup and written back on shutdown), in both on-disk
//! representations: the text format and the persist-format-v2 binary
//! arena snapshot. The property tests pin the compat contract — the two
//! formats load into identical caches, re-saves are byte-identical,
//! legacy text saves keep loading, and corrupted binary snapshots fail
//! with typed errors, never a panic.

use graphcache::core::{CostModel, GraphCache, PersistFormat, PersistedCache};
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
        .cost_model(CostModel::Work)
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
        .cost_model(CostModel::Work)
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
        .cost_model(CostModel::Work)
        .build(MethodBuilder::ggsx().build(&d));
    let mut max_serial = 0;
    for q in workload.graphs() {
        max_serial = first.run(q).serial;
    }
    first.save(&dir).unwrap();

    let second = GraphCache::builder()
        .capacity(10)
        .window(2)
        .cost_model(CostModel::Work)
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

#[test]
fn save_flushes_background_maintenance() {
    let d = datasets::aids_like(0.04, 323);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(20).seed(5));
    let dir = tmpdir("background");
    let gc = GraphCache::builder()
        .capacity(15)
        .window(4)
        .background(true)
        .cost_model(CostModel::Work)
        .build(MethodBuilder::ggsx().build(&d));
    for q in workload.graphs() {
        gc.run(q);
    }
    gc.save(&dir).unwrap();
    let persisted = graphcache::core::PersistedCache::load(&dir).unwrap();
    assert_eq!(persisted.entries.len(), gc.cache_len());
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
        .cost_model(CostModel::Work)
        .build(MethodBuilder::ggsx().build(&d));
    for q in workload.graphs() {
        gc.run(q);
    }
    gc.flush_pending();
    (gc, d)
}

fn read_file(dir: &std::path::Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Both formats written from the same cache load into caches the
    /// canonical text encoding cannot tell apart, and each format
    /// re-saves byte-identically — save ∘ load is the identity on disk.
    #[test]
    fn formats_agree_and_resave_identically(
        seed in 0u64..200,
        count in 8usize..30,
        capacity in 5usize..25,
    ) {
        let (gc, _d) = warmed_cache(seed, count, capacity);
        let root = tmpdir(&format!("formats-{seed}-{count}-{capacity}"));
        let text = root.join("text");
        let bin = root.join("bin");
        gc.save_with_format(&text, PersistFormat::Text).unwrap();
        gc.save_with_format(&bin, PersistFormat::Binary).unwrap();

        // Loaded states must agree once both are re-encoded canonically
        // as text (entries, stats and fragments in one comparison).
        let from_text = PersistedCache::load_auto(&text, QueryKind::Subgraph).unwrap();
        let from_bin = PersistedCache::load_auto(&bin, QueryKind::Subgraph).unwrap();
        prop_assert_eq!(from_text.entries.len(), from_bin.entries.len());
        let text2 = root.join("text2");
        let bin_as_text = root.join("bin-as-text");
        from_text.save(&text2).unwrap();
        from_bin.save(&bin_as_text).unwrap();
        for name in ["entries.txt", "stats.txt", "fragments.txt"] {
            prop_assert_eq!(
                read_file(&text2, name),
                read_file(&bin_as_text, name),
                "{} differs between text and binary loads",
                name
            );
        }
        // Text re-save is byte-identical to the original text save.
        for name in ["entries.txt", "stats.txt", "fragments.txt"] {
            prop_assert_eq!(read_file(&text, name), read_file(&text2, name));
        }
        // Binary re-save (profiles included) is byte-identical too.
        let bin2 = root.join("bin2");
        PersistedCache::load_binary(&bin)
            .unwrap()
            .save_binary(&bin2)
            .unwrap();
        prop_assert_eq!(
            read_file(&bin, "snapshot.bin"),
            read_file(&bin2, "snapshot.bin")
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// A binary snapshot restores into a fresh cache that answers the
    /// original workload identically to a text restore of the same state.
    #[test]
    fn binary_restore_replays_like_text_restore(
        seed in 0u64..200,
        count in 8usize..25,
    ) {
        let (gc, d) = warmed_cache(seed, count, 15);
        let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(count).seed(seed + 1));
        let root = tmpdir(&format!("replay-{seed}-{count}"));
        gc.save_with_format(root.join("text"), PersistFormat::Text).unwrap();
        gc.save_with_format(root.join("bin"), PersistFormat::Binary).unwrap();
        drop(gc);

        let fresh = |dir: std::path::PathBuf| {
            let c = GraphCache::builder()
                .capacity(15)
                .window(4)
                .cost_model(CostModel::Work)
                .build(MethodBuilder::ggsx().build(&d));
            c.restore(dir).unwrap();
            c
        };
        let via_text = fresh(root.join("text"));
        let via_bin = fresh(root.join("bin"));
        prop_assert_eq!(via_text.cache_len(), via_bin.cache_len());
        for q in workload.graphs() {
            let a = via_text.run(q);
            let b = via_bin.run(q);
            prop_assert_eq!(a.answer, b.answer);
            prop_assert_eq!(a.record.exact_hit, b.record.exact_hit);
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Pre-fingerprint, pre-kind-token text saves (the legacy on-disk shape)
/// still load — into the same arena-backed layout as everything else —
/// and restore into a working cache.
#[test]
fn legacy_text_save_loads_into_arena_layout() {
    let (gc, d) = warmed_cache(7, 20, 12);
    let dir = tmpdir("legacy");
    gc.save(&dir).unwrap();
    let cached = gc.cache_len();
    drop(gc);

    // Strip the modern header tokens: "@entry N sub fp:abcd…" → "@entry N",
    // and drop the policy line — the shape written before direction
    // tagging, fingerprints and the policy engine existed.
    let entries = std::fs::read_to_string(dir.join("entries.txt")).unwrap();
    let legacy: String = entries
        .lines()
        .filter(|l| !l.starts_with("policy "))
        .map(|l| {
            if let Some(rest) = l.strip_prefix("@entry ") {
                let serial = rest.split_whitespace().next().unwrap();
                format!("@entry {serial}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(dir.join("entries.txt"), legacy).unwrap();

    let loaded = PersistedCache::load_auto(&dir, QueryKind::Subgraph).unwrap();
    assert_eq!(loaded.entries.len(), cached);
    let second = GraphCache::builder()
        .capacity(12)
        .window(4)
        .cost_model(CostModel::Work)
        .build(MethodBuilder::ggsx().build(&d));
    second.restore(&dir).unwrap();
    assert_eq!(second.cache_len(), cached);
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating or flipping bytes anywhere in a binary snapshot must
/// surface as a typed [`GraphError::Snapshot`] from the load — never a
/// panic, and never a silently wrong cache.
#[test]
fn corrupted_binary_snapshot_fails_typed() {
    let (gc, _d) = warmed_cache(9, 20, 12);
    let dir = tmpdir("corrupt");
    gc.save_with_format(&dir, PersistFormat::Binary).unwrap();
    drop(gc);
    let good = read_file(&dir, "snapshot.bin");
    assert!(PersistedCache::load_binary(&dir).is_ok());

    let expect_snapshot_err = |bytes: &[u8], what: String| {
        std::fs::write(dir.join("snapshot.bin"), bytes).unwrap();
        match PersistedCache::load_binary(&dir) {
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
    std::fs::write(
        dir.join("entries.txt"),
        "next_serial 9\npolicy hd\n\
         @entry 7 sub\n# q7\n3\n2\n1\n0\n2\n0 1\n1 2\nanswers: 0\n\
         @entry 3 sub\n# q3\n3\n0\n1\n2\n2\n0 1\n1 2\nanswers: 0\n\
         @entry 5 sub\n# q5\n2\n2\n3\n1\n0 1\nanswers: 0\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("stats.txt"),
        "row 3\n  hits int 4\nrow 5\n  hits int 1\nrow 7\n  hits int 2\n",
    )
    .unwrap();
    let cache = GraphCache::builder()
        .capacity(10)
        .window(4)
        .cost_model(CostModel::Work)
        .build(MethodBuilder::ggsx().build(&d));
    let report = cache.restore(&dir).unwrap();
    assert_eq!(report.entries, 2);
    assert_eq!(cache.check_invariants(), Ok(()));
    let rows = cache.with_stats(|s| {
        let mut keys: Vec<u64> = s.keys().collect();
        keys.sort_unstable();
        keys
    });
    assert_eq!(rows, vec![3, 5], "the copy's row is dropped with it");
    let r = cache.run(&LabeledGraph::from_parts(vec![1, 2, 0], &[(2, 0), (0, 1)]));
    assert!(r.record.exact_hit);
    assert_eq!(r.answer, vec![GraphId(0)]);
    assert_eq!(cache.stat(3, "hits"), Some(5.0));
    std::fs::remove_dir_all(&dir).ok();
}

//! Deterministic fault-injection sweep over the crash-safe snapshot
//! path: every filesystem operation of a staged save is crashed in turn
//! (hard failure, torn write, ENOSPC), and recovery must always yield a valid generation — either the previous
//! good snapshot (fault before the `MANIFEST` commit point) or the new
//! one (fault after) — and must never panic. This is the executable form
//! of the durability contract in `crates/gc-core/src/staged.rs`.

use graphcache::core::{FaultIo, FaultMode, Manifest, PersistedCache, QueryKind, RealIo};
use graphcache::graph::{GraphId, LabeledGraph};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Per-test scratch directory (tests run in parallel in one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc-fault-inj-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Recursive copy — each crash point gets its own pristine replica of the
/// two-generation baseline directory.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy target");
    for entry in std::fs::read_dir(src).expect("read src") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

/// A small distinguishable cache state: `tag` shows up in `next_serial`
/// and in every entry serial, so recovery asserts can tell exactly which
/// snapshot survived.
fn state(tag: u64) -> PersistedCache {
    let entries = (0..3u64)
        .map(|i| {
            let graph =
                LabeledGraph::from_parts(vec![0, 1, ((tag + i) % 3) as u32], &[(0, 1), (1, 2)]);
            let fingerprint = graphcache::index::fingerprint::iso_hash(&graph);
            (
                tag + i,
                graph,
                vec![GraphId(i as u32), GraphId(i as u32 + 7)],
                QueryKind::Subgraph,
                fingerprint,
            )
        })
        .collect();
    PersistedCache {
        entries,
        next_serial: tag + 10,
        policy: Some("hd".to_string()),
        ..PersistedCache::default()
    }
}

/// The serials that identify a recovered state.
fn serials(s: &PersistedCache) -> (u64, Vec<u64>) {
    (
        s.next_serial,
        s.entries.iter().map(|e| e.0).collect::<Vec<_>>(),
    )
}

/// Builds the baseline: generation 1 holds `state(100)`, generation 2
/// holds `state(200)` — both committed through the real staged writer.
fn baseline(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    state(100).save_staged(&dir, &RealIo).expect("gen 1");
    state(200).save_staged(&dir, &RealIo).expect("gen 2");
    dir
}

/// Crashes op number `fail_at` of a gen-3 save with `mode`, then asserts
/// the recovery invariant: `load_resilient` yields either the surviving
/// generation-2 state or the fully committed generation-3 state — never
/// an error, never a panic, never a hybrid.
fn crash_point_recovers(base: &Path, fail_at: usize, mode: FaultMode) {
    let dir = base.with_file_name(format!(
        "{}-p{fail_at}",
        base.file_name().unwrap().to_string_lossy()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(base, &dir);

    let io = FaultIo::new(fail_at, mode);
    let result = state(300).save_staged(&dir, &io);
    assert!(io.fired(), "fault at op {fail_at} never fired");
    assert!(result.is_err(), "a save whose IO failed must report it");
    if matches!(mode, FaultMode::NoSpace) {
        if let Err(e) = &result {
            // The injected error must keep its typed kind so callers can
            // distinguish disk-full from other failures.
            assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::StorageFull | std::io::ErrorKind::Other
                ) || e.to_string().contains("no space"),
                "ENOSPC fault lost its identity: {e}"
            );
        }
    }

    let recovered = PersistedCache::load_resilient(&dir)
        .unwrap_or_else(|e| panic!("crash at op {fail_at} ({mode:?}) lost the cache: {e}"));
    let generation = recovered
        .generation
        .expect("baseline has a manifest; recovery must use it");
    let got = serials(&recovered.state);
    match generation {
        2 => assert_eq!(
            got,
            serials(&state(200)),
            "crash at op {fail_at} ({mode:?}): generation 2 content diverged"
        ),
        3 => assert_eq!(
            got,
            serials(&state(300)),
            "crash at op {fail_at} ({mode:?}): generation 3 content diverged"
        ),
        other => panic!("crash at op {fail_at} ({mode:?}) recovered unexpected generation {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts the filesystem ops of one staged save on a replica, so the
/// exhaustive sweep knows every crash point.
fn count_ops(base: &Path) -> usize {
    let probe = base.with_file_name(format!(
        "{}-probe",
        base.file_name().unwrap().to_string_lossy()
    ));
    let _ = std::fs::remove_dir_all(&probe);
    copy_dir(base, &probe);
    let counter = FaultIo::counting();
    state(300)
        .save_staged(&probe, &counter)
        .expect("counting save succeeds");
    let ops = counter.ops();
    let _ = std::fs::remove_dir_all(&probe);
    assert!(
        ops >= 4,
        "a staged save is at least stage+rename+manifest+commit"
    );
    ops
}

fn sweep(tag: &str, mode: FaultMode) {
    let base = baseline(tag);
    let ops = count_ops(&base);
    for fail_at in 0..ops {
        crash_point_recovers(&base, fail_at, mode);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn every_crash_point_recovers_binary_fail() {
    sweep("binary-fail", FaultMode::Fail);
}

#[test]
fn every_crash_point_recovers_binary_tear() {
    sweep("binary-tear", FaultMode::Tear(3));
}

#[test]
fn every_crash_point_recovers_binary_enospc() {
    sweep("binary-enospc", FaultMode::NoSpace);
}

/// A directory whose `MANIFEST` is corrupted (bit flip) must not brick
/// recovery: the manifest is rejected by its checksum and the flat
/// `snapshot.bin` current view — refreshed at every commit — still loads.
#[test]
fn corrupt_manifest_falls_back_to_flat_view() {
    let dir = baseline("corrupt-manifest");
    let manifest = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&manifest).expect("read manifest");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&manifest, &bytes).expect("corrupt manifest");
    assert!(
        Manifest::read(&dir).is_none(),
        "a bit-flipped manifest must fail checksum validation"
    );

    let recovered = PersistedCache::load_resilient(&dir).expect("flat-view fallback");
    assert_eq!(recovered.generation, None, "fallback is the flat view");
    assert_eq!(serials(&recovered.state), serials(&state(200)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crashed save leaves recovery intact *and* the next real save heals
/// the directory: it commits a fresh generation on top of whatever the
/// crash left behind, and subsequent recovery returns the new state.
#[test]
fn next_save_after_crash_heals_the_directory() {
    let base = baseline("heal");
    let ops = count_ops(&base);
    for fail_at in [0, ops / 2, ops - 1] {
        let dir = base.with_file_name(format!("gc-fault-inj-heal-h{fail_at}"));
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&base, &dir);
        let io = FaultIo::new(fail_at, FaultMode::Fail);
        let _ = state(300).save_staged(&dir, &io);
        // The healing save must succeed and win recovery outright.
        state(400).save_staged(&dir, &RealIo).expect("healing save");
        let recovered = PersistedCache::load_resilient(&dir).expect("recover after heal");
        assert_eq!(serials(&recovered.state), serials(&state(400)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomised cross-product on top of the exhaustive sweeps: any
    /// (crash point, fault mode, tear offset) combination must recover a
    /// valid generation. The exhaustive tests pin every op index for
    /// fixed modes; this covers the tear-offset dimension the sweep holds
    /// constant.
    #[test]
    fn random_crash_points_recover(
        fail_at in 0usize..32,
        tear in 0usize..64,
        mode_sel in 0u8..3,
    ) {
        let mode = match mode_sel {
            0 => FaultMode::Fail,
            1 => FaultMode::Tear(tear),
            _ => FaultMode::NoSpace,
        };
        let base = baseline(&format!("prop-{fail_at}-{tear}-{mode_sel}"));
        let ops = count_ops(&base);
        crash_point_recovers(&base, fail_at % ops, mode);
        let _ = std::fs::remove_dir_all(&base);
    }
}

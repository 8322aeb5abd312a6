//! Cache persistence (paper §6.1): the cached-queries store and the
//! statistics store are "loaded from disk on startup and written back to
//! disk on shutdown"; the query index is rebuilt from the loaded entries.
//!
//! A save is one checksummed binary image, `snapshot.bin`, that mirrors
//! the shards' packed columns (byte-level specification in
//! [`crate::snapshot_bin`]): entries, statistics rows, fragments and path
//! profiles are all fixed-width columns and arenas, read by one decoder.
//! It is written only through the crash-safe staged writer of
//! [`crate::staged`] ([`PersistedCache::save`] /
//! [`PersistedCache::save_staged`]) and read only through
//! [`PersistedCache::load_resilient`], which tries the `MANIFEST`
//! generations newest-first and falls back to the flat `snapshot.bin`
//! current view when the directory has no usable manifest.
//!
//! A snapshot records the [`DatasetIdentity`] of the dataset its answer
//! sets index into, and [`GraphCache::restore`](crate::GraphCache::restore)
//! refuses one saved over any other dataset.
//!
//! Loading is strict: malformed input yields an error rather than a
//! silently truncated cache. Saves of earlier releases are not read: a
//! `GCSNAP01` image and an `entries.txt` text save both fail with a typed
//! error that says to rebuild the cache.

use crate::entry::{CacheEntry, CacheSnapshot};
use crate::query_index::QUERY_INDEX_SHAPE;
use crate::staged::{Generation, Manifest, SNAPSHOT_FILE};
use crate::stats::{QuerySerial, StatsStore};
use gc_graph::{GraphDataset, GraphError, GraphId};
use gc_index::fingerprint::{fnv1a, fnv1a_continue};
use gc_index::paths::{enumerate_paths, PathProfile, PathShape};
use gc_methods::QueryKind;
use gc_subiso::Matcher;
use std::path::Path;
use std::sync::Arc;

/// The on-disk representation: `snapshot.bin` is the only one. Exists
/// for [`GraphCache::save_with_format`](crate::GraphCache::save_with_format),
/// whose only caller is the `perf/src/replay.rs` benchmark.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum PersistFormat {
    /// `snapshot.bin`.
    Binary,
}

/// Path-feature profiles captured at save time, so a restore can skip
/// re-enumerating every entry graph's simple paths — the dominant cost of
/// materialising a restored cache. The path shape they were enumerated
/// under is recorded alongside; profiles are only reused when it is the
/// query index's [`QUERY_INDEX_SHAPE`] (see
/// [`PersistedCache::into_snapshot_sharded`]).
#[derive(Debug, Clone)]
pub struct StoredProfiles {
    /// The path shape the profiles were enumerated under.
    pub shape: PathShape,
    /// One profile per entry, parallel to [`PersistedCache::entries`].
    pub profiles: Vec<PathProfile>,
}

/// One persisted cache entry: serial, query graph, answer set, the query
/// direction the answer was computed under, and the graph's iso
/// fingerprint.
pub type PersistedEntry = (
    QuerySerial,
    gc_graph::LabeledGraph,
    Vec<GraphId>,
    QueryKind,
    u64,
);

/// Serialisable cache state: entries plus their statistics rows.
#[derive(Debug, Default)]
pub struct PersistedCache {
    /// The cached queries with serials, answer sets and query kinds.
    pub entries: Vec<PersistedEntry>,
    /// The statistics rows.
    pub stats: StatsStore,
    /// The serial counter at shutdown (so a restarted cache continues
    /// numbering without collisions).
    pub next_serial: QuerySerial,
    /// Registry name of the eviction policy the statistics were
    /// accumulated under, when recorded. Restoring under a different
    /// policy logs a warning (see
    /// [`GraphCache::restore`](crate::GraphCache::restore)).
    pub policy: Option<String>,
    /// The dataset the answer sets and fragment occurrences index into.
    pub dataset: DatasetIdentity,
    /// The sub-query fragment store (empty for caches without the
    /// fragment layer).
    pub fragments: Vec<PersistedFragment>,
    /// Path-feature profiles captured at save time, parallel to
    /// `entries`; `None` when the state was saved without them.
    pub profiles: Option<StoredProfiles>,
}

/// Which dataset a cache's graph ids index into: its graph count and an
/// FNV-1a fold over every graph's node count, edge count, labels and
/// edges, in dataset order. Computed when a cache is saved or restored,
/// never when one is built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetIdentity {
    /// Number of graphs in the dataset.
    pub graphs: u64,
    /// The FNV-1a fold over the dataset's graphs.
    pub fold: u64,
}

impl DatasetIdentity {
    /// The identity of `dataset`.
    pub fn of(dataset: &GraphDataset) -> Self {
        let mut fold = fnv1a(&[]);
        let mut bytes = Vec::new();
        for g in dataset.graphs() {
            bytes.clear();
            let counts = [g.node_count() as u32, g.edge_count() as u32];
            let labels = g.labels().iter().copied();
            let edges = g.edges().flat_map(|(u, v)| [u, v]);
            for w in counts.into_iter().chain(labels).chain(edges) {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            fold = fnv1a_continue(fold, &bytes);
        }
        Self {
            graphs: dataset.len() as u64,
            fold,
        }
    }
}

/// What [`PersistedCache::load_resilient`] recovered: the state plus the
/// generation it came from (`None` for a directory without a usable
/// `MANIFEST`, read through its flat `snapshot.bin`).
#[derive(Debug)]
pub struct RecoveredSnapshot {
    /// The recovered cache state.
    pub state: PersistedCache,
    /// The manifest generation the state was read from, when one exists.
    pub generation: Option<u64>,
}

/// One persisted fragment of the sub-query fragment cache: the canonical
/// (iso-invariant) key, the fragment's path graph, its exact occurrence
/// set, and the usage statistics that re-seed the fragment eviction
/// policy after a restore.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedFragment {
    /// Iso-invariant fragment key (`gc_index::fingerprint::iso_hash` of
    /// the fragment graph).
    pub key: u64,
    /// The fragment's path graph.
    pub graph: gc_graph::LabeledGraph,
    /// The fragment's exact occurrence set (sorted dataset graph ids).
    pub occs: Vec<GraphId>,
    /// Probe hits credited to this fragment.
    pub hits: u64,
    /// Serial of the last query that credited this fragment.
    pub last_hit: u64,
    /// Total candidates removed thanks to this fragment.
    pub r_total: u64,
    /// Total estimated matcher work avoided thanks to this fragment.
    pub c_total: f64,
}

impl PersistedCache {
    /// Writes the state into `dir` (created if missing) as a new
    /// `snapshot.bin` generation, through the crash-safe staged path (see
    /// [`save_staged`](Self::save_staged)).
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        self.save_staged(dir, &crate::staged::RealIo).map(|_| ())
    }

    /// The crash-safe save path every save funnels through: encodes
    /// `snapshot.bin` in memory, stages it (write to a `*.tmp` slot,
    /// fsync, rename) into a new generation slot, and commits by
    /// atomically replacing the checksum-validated `MANIFEST` — see
    /// [`crate::staged`]. All filesystem mutations run through `io`, so a
    /// fault-injecting [`SnapshotIo`](crate::staged::SnapshotIo) can
    /// deterministically crash the save at any operation. Returns the
    /// committed generation number.
    pub fn save_staged(
        &self,
        dir: impl AsRef<Path>,
        io: &dyn crate::staged::SnapshotIo,
    ) -> std::io::Result<u64> {
        let snapshot = crate::snapshot_bin::encode(self);
        crate::staged::commit_generation(dir.as_ref(), &snapshot, io)
    }

    /// The one way a save is read back. When the directory carries a
    /// valid `MANIFEST` (see [`crate::staged`]), generations are tried
    /// newest first — each validated against its recorded length and
    /// checksum before parsing — and the first valid one wins, so a save
    /// that crashed mid-write falls back to the previous good generation.
    /// A directory without a manifest (or with a corrupt one) loads its
    /// flat `snapshot.bin`. Every failure — truncation, checksum mismatch,
    /// malformed sections, a text save, no snapshot at all — is a
    /// [`GraphError`], never a panic.
    pub fn load_resilient(dir: impl AsRef<Path>) -> Result<RecoveredSnapshot, GraphError> {
        let dir = dir.as_ref();
        let Some(manifest) = Manifest::read(dir) else {
            return Ok(RecoveredSnapshot {
                state: Self::load_flat(dir)?,
                generation: None,
            });
        };
        let mut last_err: Option<GraphError> = None;
        for gen in &manifest.generations {
            match Self::load_generation(dir, gen) {
                Ok(state) => {
                    return Ok(RecoveredSnapshot {
                        state,
                        generation: Some(gen.seq),
                    })
                }
                Err(e) => {
                    eprintln!(
                        "gc-core: warning: generation {} in {dir:?} failed to load ({e}); \
                         falling back to the previous generation",
                        gen.seq
                    );
                    last_err = Some(e);
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| GraphError::snapshot(0, "manifest lists no usable generation")))
    }

    /// Loads one manifest-listed generation, validating the snapshot's
    /// length and checksum against the manifest before parsing — a torn
    /// or bit-flipped file is rejected without trusting its contents.
    fn load_generation(dir: &Path, gen: &Generation) -> Result<Self, GraphError> {
        let slot = dir.join(crate::staged::generation_dir_name(gen.seq));
        let bytes = std::fs::read(slot.join(SNAPSHOT_FILE))?;
        if bytes.len() as u64 != gen.len || fnv1a(&bytes) != gen.checksum {
            return Err(GraphError::snapshot(
                0,
                format!("generation {} fails manifest validation", gen.seq),
            ));
        }
        crate::snapshot_bin::decode(&bytes)
    }

    /// Loads the flat `snapshot.bin` current view of a directory without
    /// a usable manifest.
    fn load_flat(dir: &Path) -> Result<Self, GraphError> {
        match std::fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => crate::snapshot_bin::decode(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let why = if dir.join("entries.txt").is_file() {
                    "the directory holds a text save (entries.txt); text saves are no longer \
                     read — rebuild the cache and save it again"
                } else {
                    "no MANIFEST or snapshot.bin — not a saved cache directory"
                };
                Err(GraphError::snapshot(0, why))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Refuses a state saved over another dataset than `dataset` — its
    /// answer ids would name other graphs, or none — and, as a second
    /// guard, any answer or fragment occurrence id outside `dataset`.
    pub(crate) fn check_dataset(&self, dataset: &GraphDataset) -> Result<(), GraphError> {
        let here = DatasetIdentity::of(dataset);
        if self.dataset != here {
            return Err(GraphError::snapshot(
                0,
                format!(
                    "snapshot was saved over another dataset ({} graphs, fold {:016x}) than \
                     this cache serves ({} graphs, fold {:016x}) — rebuild the cache over \
                     this dataset",
                    self.dataset.graphs, self.dataset.fold, here.graphs, here.fold
                ),
            ));
        }
        let answers = self.entries.iter().flat_map(|e| &e.2);
        let occurrences = self.fragments.iter().flat_map(|f| &f.occs);
        match answers
            .chain(occurrences)
            .find(|id| id.index() >= dataset.len())
        {
            Some(id) => Err(GraphError::snapshot(
                0,
                format!(
                    "graph id {} outside the dataset's {} graphs",
                    id.0,
                    dataset.len()
                ),
            )),
            None => Ok(()),
        }
    }

    /// Keeps one entry per isomorphism class and kind — the smallest
    /// serial — and drops the others with their statistics rows (and
    /// stored profiles). Snapshots written while exact repeats were still
    /// re-admitted hold such copies, and a restored cache must satisfy the
    /// same duplicates invariant as a live one.
    pub(crate) fn drop_isomorphic_duplicates(&mut self, matcher: &dyn Matcher) {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_unstable_by_key(|&i| self.entries[i].0);
        let repeats = crate::processors::isomorphic_repeats(
            order.iter().map(|&i| {
                let (_, graph, _, kind, fingerprint) = &self.entries[i];
                (*kind, *fingerprint, graph)
            }),
            matcher,
        );
        if repeats.is_empty() {
            return;
        }
        let mut keep = vec![true; self.entries.len()];
        for &(repeat, _) in &repeats {
            let i = order[repeat];
            keep[i] = false;
            self.stats.remove_row(self.entries[i].0);
        }
        fn kept<T>(items: Vec<T>, keep: &[bool]) -> Vec<T> {
            items
                .into_iter()
                .zip(keep)
                .filter_map(|(item, &k)| k.then_some(item))
                .collect()
        }
        self.entries = kept(std::mem::take(&mut self.entries), &keep);
        // Profiles are parallel to the entries; a section that was not
        // (and would be ignored on load) is dropped rather than realigned.
        self.profiles = self.profiles.take().and_then(|mut stored| {
            (stored.profiles.len() == keep.len()).then(|| {
                stored.profiles = kept(std::mem::take(&mut stored.profiles), &keep);
                stored
            })
        });
    }

    /// Materialises a [`CacheSnapshot`] with `shards` partitions from the
    /// loaded entries (the query index is rebuilt, exactly as the paper's
    /// startup path does). The on-disk format carries no shard layout —
    /// shard counts are runtime configuration, so a save taken under one
    /// count restores cleanly under any other; entries are re-routed by
    /// serial hash on load.
    pub fn into_snapshot_sharded(self, shards: usize) -> (CacheSnapshot, StatsStore, QuerySerial) {
        // Stored profiles skip the per-entry path enumeration — but only
        // when they were captured under the query index's path shape and
        // cover every entry; anything else re-enumerates, so a stale or
        // mismatched profile section can never poison the index.
        let shape = QUERY_INDEX_SHAPE;
        let stored = self
            .profiles
            .filter(|p| p.shape == shape && p.profiles.len() == self.entries.len());
        let profiles: Vec<Option<PathProfile>> = match stored {
            Some(p) => p.profiles.into_iter().map(Some).collect(),
            None => vec![None; self.entries.len()],
        };
        let entries: Vec<Arc<CacheEntry>> = self
            .entries
            .into_iter()
            .zip(profiles)
            .map(
                |((serial, graph, answer, kind, fingerprint), stored_profile)| {
                    let profile = stored_profile
                        .unwrap_or_else(|| enumerate_paths(&graph, shape.max_len, shape.work_cap));
                    Arc::new(CacheEntry {
                        serial,
                        graph: Arc::new(graph),
                        answer,
                        kind,
                        profile,
                        fingerprint,
                        exact_saving: std::sync::OnceLock::new(),
                    })
                },
            )
            .collect();
        (
            CacheSnapshot::build_sharded(shards, entries),
            self.stats,
            self.next_serial,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyRow;
    use gc_graph::LabeledGraph;
    use gc_index::fingerprint::iso_hash;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gc-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> PersistedCache {
        let mut stats = StatsStore::new();
        stats.insert(PolicyRow {
            serial: 3,
            last_hit: 40,
            hits: 7,
            r_total: 11,
            c_total: 12.5,
        });
        stats.admit(9);
        let g3 = LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let g9 = LabeledGraph::from_parts(vec![5], &[]);
        let fp3 = iso_hash(&g3);
        let fp9 = iso_hash(&g9);
        PersistedCache {
            entries: vec![
                (
                    3,
                    g3,
                    vec![GraphId(0), GraphId(4)],
                    QueryKind::Subgraph,
                    fp3,
                ),
                (9, g9, vec![], QueryKind::Supergraph, fp9),
            ],
            stats,
            next_serial: 42,
            policy: Some("hd".to_string()),
            dataset: DatasetIdentity::default(),
            fragments: vec![PersistedFragment {
                key: 0xdead_beef_0042_7711,
                graph: LabeledGraph::from_parts(vec![1, 2, 1], &[(0, 1), (1, 2)]),
                occs: vec![GraphId(0), GraphId(2)],
                hits: 3,
                last_hit: 40,
                r_total: 9,
                c_total: 2.25,
            }],
            profiles: None,
        }
    }

    /// Saves `state` into a fresh directory and reads it back.
    fn roundtripped(tag: &str, state: &PersistedCache) -> PersistedCache {
        let dir = tmpdir(tag);
        state.save(&dir).unwrap();
        let back = PersistedCache::load_resilient(&dir).unwrap();
        assert_eq!(back.generation, Some(1), "a first save is generation 1");
        std::fs::remove_dir_all(&dir).ok();
        back.state
    }

    #[test]
    fn roundtrip() {
        let back = roundtripped("roundtrip", &sample());
        assert_eq!(back.next_serial, 42);
        assert_eq!(back.policy.as_deref(), Some("hd"));
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].0, 3);
        assert_eq!(back.entries[0].1.labels(), &[0, 1, 0]);
        assert_eq!(back.entries[0].2, vec![GraphId(0), GraphId(4)]);
        assert_eq!(back.entries[0].3, QueryKind::Subgraph);
        assert_eq!(back.entries[0].4, iso_hash(&back.entries[0].1));
        assert_eq!(back.entries[1].2, Vec::<GraphId>::new());
        assert_eq!(back.entries[1].3, QueryKind::Supergraph);
        assert_eq!(back.stats.rows(), sample().stats.rows());
        assert_eq!(back.fragments, sample().fragments);
    }

    #[test]
    fn snapshot_materialisation() {
        let loaded = roundtripped("snapshot", &sample());
        let (snap, stats, next) = loaded.into_snapshot_sharded(1);
        assert_eq!(snap.len(), 2);
        assert_eq!(next, 42);
        assert_eq!(stats.len(), 2);
        assert!(snap.entry(3).is_some());
        // The rebuilt index answers candidate queries over loaded entries.
        let probe = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let (sub, _) = snap.candidate_serials(&probe);
        assert!(!sub.is_empty());
    }

    /// Stored profiles are reused verbatim only when they were enumerated
    /// under [`QUERY_INDEX_SHAPE`]; under any other shape every entry is
    /// enumerated again.
    #[test]
    fn stored_profiles_are_reused_only_under_the_query_index_shape() {
        let marked = vec![PathProfile::Overflow, PathProfile::Overflow];
        for (shape, reused) in [
            (QUERY_INDEX_SHAPE, true),
            (
                PathShape {
                    max_len: 3,
                    ..QUERY_INDEX_SHAPE
                },
                false,
            ),
        ] {
            let mut state = sample();
            state.profiles = Some(StoredProfiles {
                shape,
                profiles: marked.clone(),
            });
            let (snap, _, _) = state.into_snapshot_sharded(2);
            for (serial, graph, ..) in &sample().entries {
                let expected = if reused {
                    PathProfile::Overflow
                } else {
                    enumerate_paths(graph, QUERY_INDEX_SHAPE.max_len, QUERY_INDEX_SHAPE.work_cap)
                };
                assert_eq!(snap.entry(*serial).unwrap().profile, expected, "{shape:?}");
            }
        }
    }

    #[test]
    fn sharded_materialisation_routes_entries() {
        let loaded = roundtripped("sharded", &sample());
        let (snap, _, _) = loaded.into_snapshot_sharded(4);
        assert_eq!(snap.shard_count(), 4);
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(3).is_some());
        assert!(snap.entry(9).is_some());
        // Candidates match the single-shard materialisation (as sets).
        let probe = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let (mut sub, _) = snap.candidate_serials(&probe);
        let (flat, _, _) = sample().into_snapshot_sharded(1);
        let (mut flat_sub, _) = flat.candidate_serials(&probe);
        sub.sort_unstable();
        flat_sub.sort_unstable();
        assert_eq!(sub, flat_sub);
    }

    /// A directory with no snapshot, or whose flat `snapshot.bin` is not
    /// one, fails with a typed error. (Malformed sections are pinned by
    /// `snapshot_bin`'s tests; text saves of earlier releases are refused
    /// through `GraphCache::restore` in `tests/persistence.rs`.)
    #[test]
    fn malformed_inputs_rejected() {
        let dir = tmpdir("malformed");
        let missing = PersistedCache::load_resilient(dir.join("absent"));
        assert!(matches!(missing, Err(GraphError::Snapshot { .. })));

        std::fs::write(dir.join(SNAPSHOT_FILE), b"not a snapshot at all, just text").unwrap();
        let garbage = PersistedCache::load_resilient(&dir);
        assert!(matches!(garbage, Err(GraphError::Snapshot { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A state is checked against the dataset it is restored over: its
    /// identity must match, and every answer and occurrence id must name
    /// one of the dataset's graphs.
    #[test]
    fn dataset_mismatch_and_foreign_ids_refused() {
        let graphs = |n: u32| {
            GraphDataset::new(
                (0..n)
                    .map(|i| LabeledGraph::from_parts(vec![i, 1], &[(0, 1)]))
                    .collect(),
            )
        };
        let five = graphs(5);
        let mut state = sample();
        state.dataset = DatasetIdentity::of(&five);
        state.check_dataset(&five).unwrap();

        let relabelled = GraphDataset::new(
            (0..5)
                .map(|i| LabeledGraph::from_parts(vec![i, 2], &[(0, 1)]))
                .collect(),
        );
        for other in [graphs(6), relabelled] {
            let err = state.check_dataset(&other).unwrap_err();
            assert!(err.to_string().contains("another dataset"), "{err}");
        }

        state.fragments[0].occs.push(GraphId(5));
        let err = state.check_dataset(&five).unwrap_err();
        assert!(err.to_string().contains("graph id 5 outside"), "{err}");
        state.fragments[0].occs.pop();
        state.entries[1].2.push(GraphId(7));
        assert!(state.check_dataset(&five).is_err());
    }

    #[test]
    fn empty_cache_roundtrip() {
        let empty = PersistedCache {
            next_serial: 1,
            ..Default::default()
        };
        let back = roundtripped("empty", &empty);
        assert!(back.entries.is_empty());
        assert!(back.stats.is_empty());
        assert!(back.policy.is_none(), "no policy recorded when unset");
    }

    /// The policy name in the META section is optional (a state without
    /// one round-trips as `None`) and strict (a name that is not UTF-8 is
    /// rejected, even under a valid checksum).
    #[test]
    fn policy_header_optional_and_strict() {
        let mut state = sample();
        state.policy = None;
        let back = roundtripped("policy-header", &state);
        assert!(back.policy.is_none());
        assert_eq!(back.entries.len(), 2);

        let mut bytes = crate::snapshot_bin::encode(&sample());
        let body_len = bytes.len() - 8;
        let sections = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        // META is the first section: a length word, then the name.
        let name_at = 48 + sections * 24 + 8;
        assert_eq!(&bytes[name_at..name_at + 2], b"hd");
        bytes[name_at..name_at + 2].copy_from_slice(&[0xff, 0xfe]);
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = crate::snapshot_bin::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }
}

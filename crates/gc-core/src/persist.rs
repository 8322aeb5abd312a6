//! Cache persistence (paper §6.1): the cached-queries store and the
//! statistics store are "loaded from disk on startup and written back to
//! disk on shutdown"; the query index is rebuilt from the loaded entries.
//!
//! A save is one checksummed binary image, `snapshot.bin`, that mirrors
//! the in-memory arena layout (byte-level specification in
//! [`crate::snapshot_bin`]). It is written only through the crash-safe
//! staged writer of [`crate::staged`] ([`PersistedCache::save`] /
//! [`PersistedCache::save_staged`]) and read only through
//! [`PersistedCache::load_resilient`], which tries the `MANIFEST`
//! generations newest-first and falls back to the flat `snapshot.bin`
//! current view when the directory has no usable manifest.
//!
//! Two sections of `snapshot.bin` embed line-oriented text codecs, defined
//! here: STATS (one `row <serial>` line per statistics row followed by its
//! four `  <column> <int|float> <value>` cells, `c_total float`,
//! `hits int`, `last_hit int` and `r_total int`) and FRAGMENTS (a `fragments_v1`
//! version header, then per fragment an
//! `@fragment key:<hex> hits:<n> last:<n> r:<n> c:<float>` header, the
//! fragment graph in the `gc_graph::io` record format, and an
//! `occs: <id> <id> …` line with the fragment's exact occurrence set).
//!
//! Loading is strict: malformed input yields an error rather than a
//! silently truncated cache. STATS sections of earlier releases carry
//! seven more columns no decision read (node, edge and label counts,
//! expensiveness, special-case hits and two timings); they still load,
//! and those columns are dropped, while any other unknown column is an
//! error. The `entries.txt` text saves of earlier releases are not read;
//! restoring one fails with a typed error that says so.

use crate::entry::{CacheEntry, CacheSnapshot};
use crate::query_index::QueryIndexConfig;
use crate::staged::{Generation, Manifest, SNAPSHOT_FILE};
use crate::stats::{QuerySerial, StatsStore};
use gc_graph::{io, GraphError, GraphId};
use gc_index::fingerprint::fnv1a;
use gc_index::paths::{enumerate_paths, PathProfile};
use gc_methods::QueryKind;
use gc_subiso::Matcher;
use std::io::{BufRead, Write};
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
/// materialising a restored cache. The index configuration they were
/// enumerated under is recorded alongside; profiles are only reused when
/// the restoring configuration matches (see
/// [`PersistedCache::into_snapshot_sharded`]).
#[derive(Debug, Clone)]
pub struct StoredProfiles {
    /// `max_path_len` the profiles were enumerated with.
    pub max_path_len: usize,
    /// `work_cap` the profiles were enumerated with.
    pub work_cap: u64,
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
    /// The sub-query fragment store (empty for caches without the
    /// fragment layer).
    pub fragments: Vec<PersistedFragment>,
    /// Path-feature profiles captured at save time, parallel to
    /// `entries`; `None` when the state was saved without them.
    pub profiles: Option<StoredProfiles>,
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
    pub fn into_snapshot_sharded(
        self,
        cfg: QueryIndexConfig,
        shards: usize,
    ) -> (CacheSnapshot, StatsStore, QuerySerial) {
        // Stored profiles skip the per-entry path enumeration — but only
        // when they were captured under this exact index configuration
        // and cover every entry; anything else re-enumerates, so a stale
        // or mismatched profile section can never poison the index.
        let stored = self.profiles.filter(|p| {
            p.max_path_len == cfg.max_path_len
                && p.work_cap == cfg.work_cap
                && p.profiles.len() == self.entries.len()
        });
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
                        .unwrap_or_else(|| enumerate_paths(&graph, cfg.max_path_len, cfg.work_cap));
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
            CacheSnapshot::build_sharded(cfg, shards, entries),
            self.stats,
            self.next_serial,
        )
    }
}

/// Columns that snapshots of earlier releases carry and no decision read:
/// the query's node, edge and label counts, its expensiveness, its
/// special-case hit count and two wall-clock timings. They load, and are
/// dropped.
const RETIRED_STATS_COLUMNS: [&str; 7] = [
    "nodes",
    "edges",
    "labels",
    "expensiveness",
    "special_hits",
    "filter_us",
    "verify_us",
];

/// Writes the STATS codec: rows in serial order, each as its four cells
/// in column-name order — so identical statistics always serialise to
/// identical bytes.
pub(crate) fn write_stats_text(mut w: impl Write, stats: &StatsStore) -> std::io::Result<()> {
    for row in stats.rows() {
        writeln!(w, "row {}", row.serial)?;
        writeln!(w, "  c_total float {}", row.c_total)?;
        writeln!(w, "  hits int {}", row.hits)?;
        writeln!(w, "  last_hit int {}", row.last_hit)?;
        writeln!(w, "  r_total int {}", row.r_total)?;
    }
    Ok(())
}

/// Parses the STATS codec into `stats`. Strict: malformed rows or cells
/// are errors, not skips. A cell a row lacks keeps the admitted row's
/// value (never hit, its own serial as the last hit), the retired columns
/// of earlier releases are dropped, and any other column name is an
/// error.
pub(crate) fn read_stats_text(r: impl BufRead, stats: &mut StatsStore) -> Result<(), GraphError> {
    let mut current: Option<QuerySerial> = None;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if let Some(k) = line.strip_prefix("row ") {
            let serial = k
                .trim()
                .parse()
                .map_err(|_| GraphError::parse(lineno, "bad stats key"))?;
            stats.admit(serial);
            current = Some(serial);
        } else if !line.trim().is_empty() {
            let key =
                current.ok_or_else(|| GraphError::parse(lineno, "stats cell before any row"))?;
            let mut parts = line.split_whitespace();
            let col = parts
                .next()
                .ok_or_else(|| GraphError::parse(lineno, "missing column name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| GraphError::parse(lineno, "missing value kind"))?;
            let raw = parts
                .next()
                .ok_or_else(|| GraphError::parse(lineno, "missing value"))?;
            let bad = || GraphError::parse(lineno, format!("bad {kind} {raw:?}"));
            let mut row = stats.row(key);
            match (col, kind) {
                ("hits", "int") => row.hits = raw.parse().map_err(|_| bad())?,
                ("last_hit", "int") => row.last_hit = raw.parse().map_err(|_| bad())?,
                ("r_total", "int") => row.r_total = raw.parse().map_err(|_| bad())?,
                ("c_total", "float") => row.c_total = raw.parse().map_err(|_| bad())?,
                ("hits" | "last_hit" | "r_total" | "c_total", "int" | "float") => {
                    return Err(GraphError::parse(
                        lineno,
                        format!("column {col:?} cannot hold a {kind} value"),
                    ))
                }
                (_, "int") if RETIRED_STATS_COLUMNS.contains(&col) => {
                    raw.parse::<i64>().map_err(|_| bad())?;
                }
                (_, "float") if RETIRED_STATS_COLUMNS.contains(&col) => {
                    raw.parse::<f64>().map_err(|_| bad())?;
                }
                (_, "int" | "float") => {
                    return Err(GraphError::parse(
                        lineno,
                        format!("unknown statistics column {col:?}"),
                    ))
                }
                (_, other) => {
                    return Err(GraphError::parse(
                        lineno,
                        format!("unknown value kind {other:?}"),
                    ))
                }
            }
            stats.insert(row);
        }
    }
    Ok(())
}

/// Writes the FRAGMENTS codec (version header + one record per fragment).
pub(crate) fn write_fragments_text(
    mut w: impl Write,
    fragments: &[PersistedFragment],
) -> std::io::Result<()> {
    writeln!(w, "fragments_v1")?;
    for f in fragments {
        writeln!(
            w,
            "@fragment key:{:016x} hits:{} last:{} r:{} c:{}",
            f.key, f.hits, f.last_hit, f.r_total, f.c_total
        )?;
        io::write_graph(&mut w, &format!("f{:016x}", f.key), &f.graph)?;
        write!(w, "occs:")?;
        for id in &f.occs {
            write!(w, " {}", id.0)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Parses the strict FRAGMENTS codec (see the module docs).
pub(crate) fn read_fragments_text(r: impl BufRead) -> Result<Vec<PersistedFragment>, GraphError> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .transpose()?
        .ok_or_else(|| GraphError::parse(1, "missing fragments version header"))?;
    if header.trim() != "fragments_v1" {
        return Err(GraphError::parse(1, "unknown fragments format version"));
    }
    let mut fragments = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut current: Option<PersistedFragment> = None;
    let mut lineno = 1usize;
    let finish = |mut frag: PersistedFragment,
                  pending: &mut Vec<String>,
                  fragments: &mut Vec<PersistedFragment>,
                  lineno: usize|
     -> Result<(), GraphError> {
        let occs_line = pending
            .pop()
            .ok_or_else(|| GraphError::parse(lineno, "fragment missing occs line"))?;
        let rest = occs_line
            .strip_prefix("occs:")
            .ok_or_else(|| GraphError::parse(lineno, "expected 'occs:' line"))?;
        for tok in rest.split_whitespace() {
            let id: u32 = tok
                .parse()
                .map_err(|_| GraphError::parse(lineno, format!("bad occurrence id {tok:?}")))?;
            frag.occs.push(GraphId(id));
        }
        let text = pending.join("\n");
        let ds = io::read_dataset(text.as_bytes())?;
        if ds.len() != 1 {
            return Err(GraphError::parse(
                lineno,
                "expected exactly one fragment graph record",
            ));
        }
        frag.graph = ds.graph(GraphId(0)).clone();
        fragments.push(frag);
        pending.clear();
        Ok(())
    };
    for line in lines {
        let line = line?;
        lineno += 1;
        if let Some(s) = line.strip_prefix("@fragment ") {
            if let Some(prev) = current.take() {
                finish(prev, &mut pending, &mut fragments, lineno)?;
            }
            current = Some(parse_fragment_header(s, lineno)?);
        } else if current.is_some() {
            pending.push(line);
        } else if !line.trim().is_empty() {
            return Err(GraphError::parse(lineno, "content before first @fragment"));
        }
    }
    if let Some(prev) = current.take() {
        finish(prev, &mut pending, &mut fragments, lineno)?;
    }
    Ok(fragments)
}

/// Parses one `@fragment` header's `name:value` tokens. Every token is
/// required and unknown names are rejected — a save that this code cannot
/// fully understand must fail loudly, not load a half-read fragment.
fn parse_fragment_header(s: &str, lineno: usize) -> Result<PersistedFragment, GraphError> {
    let mut key = None;
    let mut hits = None;
    let mut last_hit = None;
    let mut r_total = None;
    let mut c_total = None;
    for tok in s.split_whitespace() {
        let (name, val) = tok.split_once(':').ok_or_else(|| {
            GraphError::parse(lineno, format!("malformed fragment token {tok:?}"))
        })?;
        let bad = |what: &str| GraphError::parse(lineno, format!("bad fragment {what} {val:?}"));
        match name {
            "key" => key = Some(u64::from_str_radix(val, 16).map_err(|_| bad("key"))?),
            "hits" => hits = Some(val.parse::<u64>().map_err(|_| bad("hits"))?),
            "last" => last_hit = Some(val.parse::<u64>().map_err(|_| bad("last"))?),
            "r" => r_total = Some(val.parse::<u64>().map_err(|_| bad("r"))?),
            "c" => c_total = Some(val.parse::<f64>().map_err(|_| bad("c"))?),
            other => {
                return Err(GraphError::parse(
                    lineno,
                    format!("unknown fragment token {other:?}"),
                ))
            }
        }
    }
    let missing = |what: &str| GraphError::parse(lineno, format!("fragment missing {what} token"));
    Ok(PersistedFragment {
        key: key.ok_or_else(|| missing("key"))?,
        graph: gc_graph::LabeledGraph::from_parts(Vec::new(), &[]),
        occs: Vec::new(),
        hits: hits.ok_or_else(|| missing("hits"))?,
        last_hit: last_hit.ok_or_else(|| missing("last"))?,
        r_total: r_total.ok_or_else(|| missing("r"))?,
        c_total: c_total.ok_or_else(|| missing("c"))?,
    })
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
    fn malformed_fragments_rejected() {
        let mut buf = Vec::new();
        write_fragments_text(&mut buf, &sample().fragments).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parse = |t: &str| read_fragments_text(t.as_bytes());

        // Wrong version header.
        assert!(parse(&text.replace("fragments_v1", "fragments_v9")).is_err());
        // Malformed key.
        assert!(parse(&text.replace("key:", "key:zz")).is_err());
        // Unknown header token.
        assert!(parse(&text.replace("hits:", "hats:")).is_err());
        // Missing occs line.
        let no_occs: String = text
            .lines()
            .filter(|l| !l.starts_with("occs:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse(&no_occs).is_err());
        // The intact codec still parses (sanity-check the baseline).
        assert_eq!(parse(&text).unwrap(), sample().fragments);
    }

    #[test]
    fn snapshot_materialisation() {
        let loaded = roundtripped("snapshot", &sample());
        let (snap, stats, next) = loaded.into_snapshot_sharded(QueryIndexConfig::default(), 1);
        assert_eq!(snap.len(), 2);
        assert_eq!(next, 42);
        assert_eq!(stats.len(), 2);
        assert!(snap.entry(3).is_some());
        // The rebuilt index answers candidate queries over loaded entries.
        let probe = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let (sub, _) = snap.candidate_serials(&probe);
        assert!(!sub.is_empty());
    }

    #[test]
    fn sharded_materialisation_routes_entries() {
        let loaded = roundtripped("sharded", &sample());
        let (snap, _, _) = loaded.into_snapshot_sharded(QueryIndexConfig::default(), 4);
        assert_eq!(snap.shard_count(), 4);
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(3).is_some());
        assert!(snap.entry(9).is_some());
        // Candidates match the single-shard materialisation (as sets).
        let probe = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let (mut sub, _) = snap.candidate_serials(&probe);
        let (flat, _, _) = sample().into_snapshot_sharded(QueryIndexConfig::default(), 1);
        let (mut flat_sub, _) = flat.candidate_serials(&probe);
        sub.sort_unstable();
        flat_sub.sort_unstable();
        assert_eq!(sub, flat_sub);
    }

    /// A directory with no snapshot fails with a typed error, and a
    /// malformed STATS section is rejected, not skipped. (Text saves of
    /// earlier releases are refused through `GraphCache::restore` in
    /// `tests/persistence.rs`.)
    #[test]
    fn malformed_inputs_rejected() {
        let dir = tmpdir("malformed");
        let missing = PersistedCache::load_resilient(dir.join("absent"));
        assert!(matches!(missing, Err(GraphError::Snapshot { .. })));

        let mut stats = StatsStore::new();
        assert!(read_stats_text("  orphan int 3\n".as_bytes(), &mut stats).is_err());
        assert!(read_stats_text("row 1\n  hits int x\n".as_bytes(), &mut stats).is_err());
        assert!(read_stats_text("row 1\n  hits text 2\n".as_bytes(), &mut stats).is_err());
        std::fs::remove_dir_all(&dir).ok();
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

    /// Rows of earlier releases load into the four-field row: a
    /// nine-column row keeps its hits, last hit, `R` and `C`, the
    /// `filter_us`/`verify_us` timings of still older saves are dropped
    /// too, and a cell a row lacks keeps the admitted value. A column name
    /// no release wrote is a typed error.
    #[test]
    fn retired_timing_columns_are_dropped() {
        let old = "row 3\n  c_total float 12.5\n  edges int 2\n  expensiveness float 840\n  \
                   hits int 7\n  labels int 2\n  last_hit int 40\n  nodes int 3\n  \
                   r_total int 11\n  special_hits int 2\n\
                   row 5\n  filter_us float 1.5\n  hits int 2\n  verify_us float 9\n";
        let mut stats = StatsStore::new();
        read_stats_text(old.as_bytes(), &mut stats).unwrap();
        assert_eq!(
            stats.rows(),
            vec![
                PolicyRow {
                    serial: 3,
                    last_hit: 40,
                    hits: 7,
                    r_total: 11,
                    c_total: 12.5,
                },
                PolicyRow {
                    serial: 5,
                    last_hit: 5,
                    hits: 2,
                    r_total: 0,
                    c_total: 0.0,
                },
            ]
        );
        let mut written = Vec::new();
        write_stats_text(&mut written, &stats).unwrap();
        assert_eq!(
            String::from_utf8(written).unwrap(),
            "row 3\n  c_total float 12.5\n  hits int 7\n  last_hit int 40\n  r_total int 11\n\
             row 5\n  c_total float 0\n  hits int 2\n  last_hit int 5\n  r_total int 0\n"
        );

        let unknown = read_stats_text("row 1\n  hats int 2\n".as_bytes(), &mut stats);
        assert!(
            matches!(&unknown, Err(GraphError::Parse { message, .. }) if message.contains("hats")),
            "{unknown:?}"
        );
        let wrong_kind = read_stats_text("row 1\n  hits float 2.5\n".as_bytes(), &mut stats);
        assert!(matches!(wrong_kind, Err(GraphError::Parse { .. })));
    }
}

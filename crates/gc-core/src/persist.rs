//! Cache persistence (paper §6.1): the cached-queries store and the
//! statistics store are "loaded from disk on startup and written back to
//! disk on shutdown"; the query index is rebuilt from the loaded entries.
//!
//! Format: a directory with two line-oriented text files —
//!
//! * `entries.txt` — a `next_serial <n>` header, an optional
//!   `policy <name>` header recording the eviction policy the statistics
//!   were accumulated under (absent in saves predating the pluggable
//!   policy engine), then for each cached query: an
//!   `@entry <serial> [sub|super] [fp:<hex>]` header (the query direction
//!   the answer was computed under — `sub` when omitted, for saves
//!   predating direction-tagged entries — and the entry's iso fingerprint;
//!   when the token is absent the fingerprint is recomputed on load), the
//!   query graph in the `gc_graph::io` record format, then an
//!   `answers: <id> <id> …` line;
//! * `stats.txt` — one `row <serial>` line per statistics row followed by
//!   `  <column> <int|float> <value>` lines;
//! * `fragments.txt` — the sub-query fragment store: a `fragments_v1`
//!   version header, then per fragment an
//!   `@fragment key:<hex> hits:<n> last:<n> r:<n> c:<float>` header, the
//!   fragment graph in the `gc_graph::io` record format, and an
//!   `occs: <id> <id> …` line with the fragment's exact occurrence set.
//!   The file is absent in saves predating the fragment cache; such
//!   legacy directories load with an empty fragment list and the store
//!   simply rebuilds from scratch.
//!
//! Loading is strict: malformed input yields an error rather than a
//! silently truncated cache.
//!
//! A second on-disk representation, persist format v2, stores the same
//! state as a single checksummed binary image (`snapshot.bin`) that
//! mirrors the in-memory arena layout — see [`crate::snapshot_bin`] for
//! the byte-level specification. [`PersistedCache::load_auto`] detects
//! which format a directory holds, so either format restores through the
//! same call; [`PersistedCache::save_as`] picks the format at save time
//! and removes the other format's files so a directory never holds both.

use crate::entry::{CacheEntry, CacheSnapshot};
use crate::query_index::QueryIndexConfig;
use crate::stats::{QuerySerial, StatsStore, Value};
use gc_graph::{io, GraphError, GraphId};
use gc_index::fingerprint::iso_hash;
use gc_index::paths::{enumerate_paths, PathProfile};
use gc_methods::QueryKind;
use gc_subiso::Matcher;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Arc;

/// On-disk representation selector for [`PersistedCache::save_as`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistFormat {
    /// The line-oriented text format (`entries.txt` + `stats.txt` +
    /// `fragments.txt`) — human-readable, diff-friendly, and what every
    /// save before format v2 produced.
    #[default]
    Text,
    /// Persist format v2: one checksummed little-endian binary image
    /// (`snapshot.bin`) holding the arena layout directly, restored by a
    /// bulk read + validate with no per-entry text parsing.
    Binary,
}

/// Path-feature profiles captured at save time, so a binary restore can
/// skip re-enumerating every entry graph's simple paths — the dominant
/// cost of materialising a restored cache. The index configuration they
/// were enumerated under is recorded alongside; profiles are only reused
/// when the restoring configuration matches (see
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
/// fingerprint (recomputed on load when the save predates fingerprints).
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
    /// accumulated under; `None` for saves predating the policy engine.
    /// Restoring under a different policy logs a warning (see
    /// [`GraphCache::restore`](crate::GraphCache::restore)).
    pub policy: Option<String>,
    /// The sub-query fragment store (empty for caches without the
    /// fragment layer, and for legacy saves without `fragments.txt`).
    pub fragments: Vec<PersistedFragment>,
    /// Path-feature profiles captured at save time, parallel to
    /// `entries`; `None` for text saves and binary saves taken without
    /// profiles. Only the binary format persists them.
    pub profiles: Option<StoredProfiles>,
}

/// What [`PersistedCache::load_resilient`] recovered: the state plus the
/// generation it came from (`None` for legacy flat-file directories with
/// no `MANIFEST`).
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
    /// Writes the state into `dir` (created if missing) in the text
    /// format, through the crash-safe staged path (see
    /// [`save_staged`](Self::save_staged)).
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        self.save_as(dir, PersistFormat::Text)
    }

    /// Writes the state into `dir` as a persist-format-v2 binary snapshot
    /// (see [`crate::snapshot_bin`]), removing any text-format files so
    /// the flat view of the directory holds exactly one representation.
    pub fn save_binary(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        self.save_as(dir, PersistFormat::Binary)
    }

    /// Writes the state into `dir` in the chosen [`PersistFormat`].
    pub fn save_as(&self, dir: impl AsRef<Path>, format: PersistFormat) -> std::io::Result<()> {
        self.save_staged(dir, format, &crate::staged::RealIo)
            .map(|_| ())
    }

    /// The crash-safe save path every other save entry point funnels
    /// through: encodes the chosen format's files, stages them (write to
    /// `*.tmp`, fsync, rename) into a new generation slot, and commits by
    /// atomically replacing the checksum-validated `MANIFEST` — see
    /// [`crate::staged`]. All filesystem mutations run through `io`, so a
    /// fault-injecting [`SnapshotIo`](crate::staged::SnapshotIo) can
    /// deterministically crash the save at any operation. Returns the
    /// committed generation number.
    pub fn save_staged(
        &self,
        dir: impl AsRef<Path>,
        format: PersistFormat,
        io: &dyn crate::staged::SnapshotIo,
    ) -> std::io::Result<u64> {
        let files = self.encoded_files(format)?;
        crate::staged::commit_generation(dir.as_ref(), &files, format, io)
    }

    /// Encodes the on-disk file set of one save, fully in memory — the
    /// staged writer publishes whole files atomically, so contents are
    /// assembled before any filesystem mutation happens.
    fn encoded_files(
        &self,
        format: PersistFormat,
    ) -> std::io::Result<Vec<(&'static str, Vec<u8>)>> {
        match format {
            PersistFormat::Text => {
                let mut ef: Vec<u8> = Vec::new();
                writeln!(ef, "next_serial {}", self.next_serial)?;
                if let Some(policy) = &self.policy {
                    writeln!(ef, "policy {policy}")?;
                }
                for (serial, graph, answer, kind, fingerprint) in &self.entries {
                    let kind_tok = match kind {
                        QueryKind::Subgraph => "sub",
                        QueryKind::Supergraph => "super",
                    };
                    writeln!(ef, "@entry {serial} {kind_tok} fp:{fingerprint:016x}")?;
                    io::write_graph(&mut ef, &format!("q{serial}"), graph)?;
                    write!(ef, "answers:")?;
                    for id in answer {
                        write!(ef, " {}", id.0)?;
                    }
                    writeln!(ef)?;
                }
                let mut sf: Vec<u8> = Vec::new();
                write_stats_text(&mut sf, &self.stats)?;
                // Always (re)written, even when empty: a save into a
                // directory that previously held fragments must not leave
                // the stale file behind for the next load to pick up.
                let mut ff: Vec<u8> = Vec::new();
                write_fragments_text(&mut ff, &self.fragments)?;
                Ok(vec![
                    ("entries.txt", ef),
                    ("stats.txt", sf),
                    ("fragments.txt", ff),
                ])
            }
            PersistFormat::Binary => Ok(vec![("snapshot.bin", crate::snapshot_bin::encode(self))]),
        }
    }

    /// Reads a persist-format-v2 binary snapshot back from `dir`. All
    /// validation failures (truncation, checksum mismatch, malformed
    /// sections) surface as [`GraphError::Snapshot`] — never a panic.
    pub fn load_binary(dir: impl AsRef<Path>) -> Result<Self, GraphError> {
        let bytes = std::fs::read(dir.as_ref().join("snapshot.bin"))?;
        crate::snapshot_bin::decode(&bytes)
    }

    /// Reads the state back from `dir`, auto-detecting the format: a
    /// `snapshot.bin` loads as binary, otherwise the text files load with
    /// `default_kind` applied to legacy untagged entries (as in
    /// [`load_with_default_kind`](Self::load_with_default_kind); binary
    /// snapshots always carry explicit kinds, so the default is unused
    /// there).
    pub fn load_auto(dir: impl AsRef<Path>, default_kind: QueryKind) -> Result<Self, GraphError> {
        let dir = dir.as_ref();
        if dir.join("snapshot.bin").exists() {
            Self::load_binary(dir)
        } else {
            Self::load_with_default_kind(dir, default_kind)
        }
    }

    /// The crash-recovering load: when the directory carries a valid
    /// `MANIFEST` (see [`crate::staged`]), generations are tried newest
    /// first — each validated against its recorded checksums before
    /// parsing — and the first valid one wins, so a save that crashed
    /// mid-write falls back to the previous good generation. Directories
    /// without a manifest (or with a corrupt one) load through the legacy
    /// flat-file [`load_auto`](Self::load_auto) path.
    pub fn load_resilient(
        dir: impl AsRef<Path>,
        default_kind: QueryKind,
    ) -> Result<RecoveredSnapshot, GraphError> {
        let dir = dir.as_ref();
        let Some(manifest) = crate::staged::Manifest::read(dir) else {
            return Ok(RecoveredSnapshot {
                state: Self::load_auto(dir, default_kind)?,
                generation: None,
            });
        };
        let mut last_err: Option<GraphError> = None;
        for gen in &manifest.generations {
            match Self::load_generation(dir, gen, default_kind) {
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

    /// Loads one manifest-listed generation, validating every file's
    /// length and checksum against the manifest before parsing — a torn
    /// or bit-flipped file is rejected without trusting its contents.
    fn load_generation(
        dir: &Path,
        gen: &crate::staged::Generation,
        default_kind: QueryKind,
    ) -> Result<Self, GraphError> {
        let slot = dir.join(crate::staged::generation_dir_name(gen.seq));
        for file in &gen.files {
            let bytes = std::fs::read(slot.join(&file.name))?;
            if bytes.len() as u64 != file.len || crate::staged::fnv1a(&bytes) != file.checksum {
                return Err(GraphError::snapshot(
                    0,
                    format!(
                        "generation {} file {} fails manifest validation",
                        gen.seq, file.name
                    ),
                ));
            }
        }
        match gen.format {
            PersistFormat::Binary => Self::load_binary(&slot),
            PersistFormat::Text => Self::load_with_default_kind(&slot, default_kind),
        }
    }

    /// Reads the state back from `dir`. Entries whose header omits the
    /// kind token load as subgraph-mode; use
    /// [`load_with_default_kind`](Self::load_with_default_kind) to supply
    /// the right default for a supergraph cache.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, GraphError> {
        Self::load_with_default_kind(dir, QueryKind::Subgraph)
    }

    /// Reads the state back from `dir`, tagging entries whose `@entry`
    /// header predates direction tagging (no `sub`/`super` token) with
    /// `default_kind`. A cache restoring its own legacy save passes its
    /// configured query kind, so old supergraph saves keep hitting
    /// supergraph queries instead of silently mis-tagging as subgraph.
    pub fn load_with_default_kind(
        dir: impl AsRef<Path>,
        default_kind: QueryKind,
    ) -> Result<Self, GraphError> {
        let dir = dir.as_ref();
        let mut out = PersistedCache::default();

        let ef = BufReader::new(std::fs::File::open(dir.join("entries.txt"))?);
        let mut lines = ef.lines();
        let first = lines
            .next()
            .transpose()?
            .ok_or_else(|| GraphError::parse(1, "missing next_serial header"))?;
        out.next_serial = first
            .strip_prefix("next_serial ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| GraphError::parse(1, "malformed next_serial header"))?;
        // Re-assemble records: delegate graph parsing to gc_graph::io by
        // buffering each record's lines.
        let mut pending: Vec<String> = Vec::new();
        let mut serial: Option<(QuerySerial, QueryKind, Option<u64>)> = None;
        let mut lineno = 1usize;
        let finish = |(serial, kind, fp): (QuerySerial, QueryKind, Option<u64>),
                      pending: &mut Vec<String>,
                      out: &mut PersistedCache,
                      lineno: usize|
         -> Result<(), GraphError> {
            let answers_line = pending
                .pop()
                .ok_or_else(|| GraphError::parse(lineno, "entry missing answers line"))?;
            let rest = answers_line
                .strip_prefix("answers:")
                .ok_or_else(|| GraphError::parse(lineno, "expected 'answers:' line"))?;
            let mut answer = Vec::new();
            for tok in rest.split_whitespace() {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| GraphError::parse(lineno, format!("bad answer id {tok:?}")))?;
                answer.push(GraphId(id));
            }
            let text = pending.join("\n");
            let ds = io::read_dataset(text.as_bytes())?;
            if ds.len() != 1 {
                return Err(GraphError::parse(
                    lineno,
                    "expected exactly one graph record",
                ));
            }
            let graph = ds.graph(GraphId(0)).clone();
            // Saves predating fingerprints carry no token; re-hash on load.
            let fingerprint = fp.unwrap_or_else(|| iso_hash(&graph));
            out.entries.push((serial, graph, answer, kind, fingerprint));
            pending.clear();
            Ok(())
        };
        for line in lines {
            let line = line?;
            lineno += 1;
            if let Some(s) = line.strip_prefix("@entry ") {
                if let Some(prev) = serial.take() {
                    finish(prev, &mut pending, &mut out, lineno)?;
                }
                let mut toks = s.split_whitespace();
                let parsed: QuerySerial = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| GraphError::parse(lineno, "bad entry serial"))?;
                // The kind and fingerprint tokens are optional: saves
                // predating direction-tagged entries carry neither (the
                // kind defaults to the caller's, the fingerprint is
                // recomputed from the graph).
                let mut kind = default_kind;
                let mut fp: Option<u64> = None;
                for tok in toks {
                    match tok {
                        "sub" => kind = QueryKind::Subgraph,
                        "super" => kind = QueryKind::Supergraph,
                        _ => {
                            let hex = tok.strip_prefix("fp:").ok_or_else(|| {
                                GraphError::parse(lineno, format!("unknown entry kind {tok:?}"))
                            })?;
                            fp = Some(u64::from_str_radix(hex, 16).map_err(|_| {
                                GraphError::parse(lineno, "malformed fingerprint token")
                            })?);
                        }
                    }
                }
                serial = Some((parsed, kind, fp));
            } else if serial.is_some() {
                pending.push(line);
            } else if let Some(p) = line.strip_prefix("policy ") {
                // Optional header (saves predating the policy engine carry
                // none); only valid once, before the first @entry.
                if out.policy.is_some() || p.trim().is_empty() {
                    return Err(GraphError::parse(lineno, "malformed policy header"));
                }
                out.policy = Some(p.trim().to_string());
            } else if !line.trim().is_empty() {
                return Err(GraphError::parse(lineno, "content before first @entry"));
            }
        }
        if let Some(prev) = serial.take() {
            finish(prev, &mut pending, &mut out, lineno)?;
        }

        let sf = BufReader::new(std::fs::File::open(dir.join("stats.txt"))?);
        read_stats_text(sf, &mut out.stats)?;

        // Fragment store: optional file (absent in saves predating the
        // fragment cache — legacy directories load an empty list), strict
        // once present.
        let fragments_path = dir.join("fragments.txt");
        if fragments_path.exists() {
            out.fragments = load_fragments(&fragments_path)?;
        }
        Ok(out)
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

    /// Materialises a single-shard [`CacheSnapshot`] from the loaded
    /// entries (the query index is rebuilt, exactly as the paper's startup
    /// path does). See [`into_snapshot_sharded`](Self::into_snapshot_sharded)
    /// for restoring into a sharded cache.
    pub fn into_snapshot(self, cfg: QueryIndexConfig) -> (CacheSnapshot, StatsStore, QuerySerial) {
        self.into_snapshot_sharded(cfg, 1)
    }

    /// Materialises a [`CacheSnapshot`] with `shards` partitions from the
    /// loaded entries. The on-disk format carries no shard layout — shard
    /// counts are runtime configuration, so a save taken under one count
    /// restores cleanly under any other; entries are re-routed by serial
    /// hash on load.
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

/// Writes the `stats.txt` text codec: rows in sorted-serial order, each
/// row's columns in the store's (sorted) iteration order — so identical
/// stats always serialise to identical bytes. Shared between the text
/// save and the binary snapshot's embedded STATS section.
pub(crate) fn write_stats_text(mut w: impl Write, stats: &StatsStore) -> std::io::Result<()> {
    let mut keys: Vec<QuerySerial> = stats.keys().collect();
    keys.sort_unstable();
    for key in keys {
        writeln!(w, "row {key}")?;
        if let Some(row) = stats.row(key) {
            for (col, val) in row {
                match val {
                    Value::Int(i) => writeln!(w, "  {col} int {i}")?,
                    Value::Float(f) => writeln!(w, "  {col} float {f}")?,
                }
            }
        }
    }
    Ok(())
}

/// Parses the `stats.txt` text codec into `stats`. Strict: malformed rows
/// or cells are errors, not skips.
pub(crate) fn read_stats_text(r: impl BufRead, stats: &mut StatsStore) -> Result<(), GraphError> {
    let mut current: Option<QuerySerial> = None;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if let Some(k) = line.strip_prefix("row ") {
            current = Some(
                k.trim()
                    .parse()
                    .map_err(|_| GraphError::parse(lineno, "bad stats key"))?,
            );
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
            let col = leak_column(col);
            match kind {
                "int" => stats.set(
                    key,
                    col,
                    raw.parse::<i64>()
                        .map_err(|_| GraphError::parse(lineno, "bad int"))?,
                ),
                "float" => stats.set(
                    key,
                    col,
                    raw.parse::<f64>()
                        .map_err(|_| GraphError::parse(lineno, "bad float"))?,
                ),
                other => {
                    return Err(GraphError::parse(
                        lineno,
                        format!("unknown value kind {other:?}"),
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Writes the `fragments.txt` text codec (version header + one record per
/// fragment). Shared between the text save and the binary snapshot's
/// embedded FRAGMENTS section.
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

/// Parses the strict `fragments.txt` format (see the module docs).
fn load_fragments(path: &Path) -> Result<Vec<PersistedFragment>, GraphError> {
    read_fragments_text(BufReader::new(std::fs::File::open(path)?))
}

/// Parses the `fragments.txt` text codec from any reader. Shared between
/// the text load and the binary snapshot's embedded FRAGMENTS section.
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

/// Statistics columns are `&'static str`; persisted columns outside the
/// known set are interned by leaking (bounded by the column vocabulary).
fn leak_column(name: &str) -> &'static str {
    use crate::stats::columns as c;
    for known in [
        c::NODES,
        c::EDGES,
        c::LABELS,
        c::FILTER_US,
        c::VERIFY_US,
        c::HITS,
        c::SPECIAL_HITS,
        c::LAST_HIT,
        c::R_TOTAL,
        c::C_TOTAL,
        c::EXPENSIVENESS,
    ] {
        if known == name {
            return known;
        }
    }
    Box::leak(name.to_owned().into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::columns;
    use gc_graph::LabeledGraph;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gc-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> PersistedCache {
        let mut stats = StatsStore::new();
        stats.set(3, columns::HITS, 7i64);
        stats.set(3, columns::C_TOTAL, 12.5);
        stats.set(9, columns::NODES, 4i64);
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

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let orig = sample();
        orig.save(&dir).unwrap();
        let back = PersistedCache::load(&dir).unwrap();
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
        assert_eq!(back.stats.get(3, columns::HITS), Some(Value::Int(7)));
        assert_eq!(
            back.stats.get(3, columns::C_TOTAL),
            Some(Value::Float(12.5))
        );
        assert_eq!(back.fragments, sample().fragments);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_dirs_without_fragments_load_empty() {
        let dir = tmpdir("no-fragments");
        sample().save(&dir).unwrap();
        std::fs::remove_file(dir.join("fragments.txt")).unwrap();
        let back = PersistedCache::load(&dir).unwrap();
        assert!(back.fragments.is_empty(), "legacy save loads empty store");
        assert_eq!(back.entries.len(), 2, "entries unaffected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_fragments_rejected() {
        let dir = tmpdir("bad-fragments");
        sample().save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("fragments.txt")).unwrap();

        // Wrong version header.
        std::fs::write(
            dir.join("fragments.txt"),
            text.replace("fragments_v1", "fragments_v9"),
        )
        .unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        // Malformed key.
        std::fs::write(dir.join("fragments.txt"), text.replace("key:", "key:zz")).unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        // Unknown header token.
        std::fs::write(dir.join("fragments.txt"), text.replace("hits:", "hats:")).unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        // Missing occs line.
        std::fs::write(
            dir.join("fragments.txt"),
            text.lines()
                .filter(|l| !l.starts_with("occs:"))
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
        )
        .unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        // The intact file still loads (sanity-check the baseline).
        std::fs::write(dir.join("fragments.txt"), &text).unwrap();
        assert!(PersistedCache::load(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_materialisation() {
        let dir = tmpdir("snapshot");
        sample().save(&dir).unwrap();
        let loaded = PersistedCache::load(&dir).unwrap();
        let (snap, stats, next) = loaded.into_snapshot(QueryIndexConfig::default());
        assert_eq!(snap.len(), 2);
        assert_eq!(next, 42);
        assert_eq!(stats.len(), 2);
        assert!(snap.entry(3).is_some());
        // The rebuilt index answers candidate queries over loaded entries.
        let probe = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let (sub, _) = snap.candidate_serials(&probe);
        assert!(!sub.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_materialisation_routes_entries() {
        let dir = tmpdir("sharded");
        sample().save(&dir).unwrap();
        let loaded = PersistedCache::load(&dir).unwrap();
        let (snap, _, _) = loaded.into_snapshot_sharded(QueryIndexConfig::default(), 4);
        assert_eq!(snap.shard_count(), 4);
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(3).is_some());
        assert!(snap.entry(9).is_some());
        // Candidates match the single-shard materialisation (as sets).
        let probe = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let (mut sub, _) = snap.candidate_serials(&probe);
        let loaded = PersistedCache::load(&dir).unwrap();
        let (flat, _, _) = loaded.into_snapshot(QueryIndexConfig::default());
        let (mut flat_sub, _) = flat.candidate_serials(&probe);
        sub.sort_unstable();
        flat_sub.sort_unstable();
        assert_eq!(sub, flat_sub);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_inputs_rejected() {
        let dir = tmpdir("malformed");
        std::fs::write(dir.join("entries.txt"), "garbage\n").unwrap();
        std::fs::write(dir.join("stats.txt"), "").unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        std::fs::write(dir.join("entries.txt"), "next_serial 1\nstray\n").unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        std::fs::write(dir.join("entries.txt"), "next_serial 1\n").unwrap();
        std::fs::write(dir.join("stats.txt"), "  orphan int 3\n").unwrap();
        assert!(PersistedCache::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_headers_default_to_subgraph() {
        // Saves that predate direction tagging have bare `@entry <serial>`
        // headers; they must load as subgraph-mode entries.
        let dir = tmpdir("legacy");
        sample().save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("entries.txt")).unwrap();
        let stripped: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("@entry ") {
                    format!("@entry {}\n", rest.split_whitespace().next().unwrap())
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(dir.join("entries.txt"), stripped).unwrap();
        let back = PersistedCache::load(&dir).unwrap();
        assert!(back.entries.iter().all(|e| e.3 == QueryKind::Subgraph));
        // A supergraph cache restoring its own legacy save tags them with
        // its configured kind instead.
        let back = PersistedCache::load_with_default_kind(&dir, QueryKind::Supergraph).unwrap();
        assert!(back.entries.iter().all(|e| e.3 == QueryKind::Supergraph));

        // Unknown kind tokens are rejected, not silently defaulted.
        let bad = text.replace("@entry 3 sub", "@entry 3 sideways");
        std::fs::write(dir.join("entries.txt"), bad).unwrap();
        assert!(PersistedCache::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Saves without a fingerprint token load by re-hashing the graph, so
    /// the exact-match fast path works on restored legacy caches too.
    #[test]
    fn legacy_saves_recompute_fingerprints() {
        let dir = tmpdir("legacy-fp");
        sample().save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("entries.txt")).unwrap();
        assert!(text.contains(" fp:"), "fingerprints are persisted");
        let stripped: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("@entry ") {
                    let mut toks = rest.split_whitespace();
                    format!(
                        "@entry {} {}\n",
                        toks.next().unwrap(),
                        toks.next().unwrap() // keep the kind, drop fp
                    )
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(dir.join("entries.txt"), stripped).unwrap();
        let back = PersistedCache::load(&dir).unwrap();
        for (_, graph, _, _, fp) in &back.entries {
            assert_eq!(*fp, iso_hash(graph), "recomputed on load");
        }

        // A malformed fingerprint token is rejected, not guessed around.
        let bad = text.replacen(" fp:", " fp:zz", 1);
        std::fs::write(dir.join("entries.txt"), bad).unwrap();
        assert!(PersistedCache::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_cache_roundtrip() {
        let dir = tmpdir("empty");
        let empty = PersistedCache {
            next_serial: 1,
            ..Default::default()
        };
        empty.save(&dir).unwrap();
        let back = PersistedCache::load(&dir).unwrap();
        assert!(back.entries.is_empty());
        assert!(back.stats.is_empty());
        assert!(back.policy.is_none(), "no header written when unset");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_header_optional_and_strict() {
        // Legacy saves (no `policy` line) load with `policy: None`.
        let dir = tmpdir("policy-header");
        sample().save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("entries.txt")).unwrap();
        let without: String = text
            .lines()
            .filter(|l| !l.starts_with("policy "))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(dir.join("entries.txt"), &without).unwrap();
        let back = PersistedCache::load(&dir).unwrap();
        assert!(back.policy.is_none(), "legacy save still loads");
        assert_eq!(back.entries.len(), 2);

        // A duplicated policy header is rejected.
        let doubled = text.replace("policy hd", "policy hd\npolicy lru");
        std::fs::write(dir.join("entries.txt"), doubled).unwrap();
        assert!(PersistedCache::load(&dir).is_err());

        // An empty policy name is rejected.
        let empty_name = text.replace("policy hd", "policy  ");
        std::fs::write(dir.join("entries.txt"), empty_name).unwrap();
        assert!(PersistedCache::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

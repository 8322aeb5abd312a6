//! Crash-safe staged writes and generational snapshot bookkeeping.
//!
//! Every persist write goes through a staged path: file contents are
//! written to a `*.tmp` sibling, fsynced, and renamed into place, and a
//! whole save lands as one generation-numbered directory (`gen-NNNNNN/`)
//! recorded in a checksum-validated `MANIFEST` at the save root. The
//! commit point is the atomic rename of the new `MANIFEST`: a crash at
//! any earlier instant leaves the previous manifest (and every
//! generation it lists) untouched, and a crash at any later instant
//! leaves the new generation fully durable. Restore walks the manifest
//! newest-first and falls back to the previous generation when the
//! newest is truncated or corrupt — no crash point ever loses a
//! previously-good snapshot.
//!
//! # On-disk layout
//!
//! ```text
//! dir/
//!   MANIFEST            generation index, self-checksummed (see below)
//!   gen-000001/         one complete save: snapshot.bin
//!   gen-000002/
//!   snapshot.bin        flat "current view" of the newest generation,
//!                       refreshed after commit
//! ```
//!
//! The `MANIFEST` is line-oriented text:
//!
//! ```text
//! gc-manifest v1
//! gen 000002 binary snapshot.bin:<fnv1a-hex>:<len>
//! gen 000001 binary snapshot.bin:<fnv1a-hex>:<len>
//! sum <fnv1a-hex of every preceding byte>
//! ```
//!
//! Generations are listed newest-first; at most
//! [`RETAINED_GENERATIONS`] are kept (the newest plus its fallback).
//! A manifest whose trailing `sum` line does not match, or that lists
//! anything but `binary` generations (the `text` generations of earlier
//! releases), is treated as absent, which routes restore to the flat
//! `snapshot.bin`.
//!
//! # Fault injection
//!
//! All mutating filesystem operations of a save run through the
//! [`SnapshotIo`] trait. [`RealIo`] is the production implementation;
//! [`FaultIo`] deterministically fails the Nth operation — cleanly,
//! with a torn (partial) write, or with ENOSPC — and refuses every
//! operation after the injected fault, modelling a process that died at
//! that instant. The fault-injection suite sweeps every operation index
//! of a save and asserts restore always recovers a valid generation.

use gc_graph::GraphError;
use gc_index::fingerprint::fnv1a;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Name of the generation index file at the save root.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Name of the snapshot file, in each generation slot and as the flat
/// current view at the save root.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// How many generations a save keeps: the newest plus one fallback.
pub const RETAINED_GENERATIONS: usize = 2;

/// Directory name of a generation slot.
pub fn generation_dir_name(seq: u64) -> String {
    format!("gen-{seq:06}")
}

/// The mutating filesystem operations a staged save performs. Threading
/// them through a trait is what makes every crash point injectable: a
/// save is a fixed sequence of these calls, so "crash after the Nth
/// operation" is a deterministic, replayable event.
pub trait SnapshotIo {
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Creates `path`, writes `bytes`, and fsyncs before returning — the
    /// staged-write primitive (callers write to a `*.tmp` name and then
    /// [`rename`](SnapshotIo::rename) into place).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// The production [`SnapshotIo`]: real filesystem calls, with
/// `write_file` fsyncing the new contents before it returns so a
/// subsequent rename never publishes an unflushed file.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl SnapshotIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// How an injected fault manifests at the chosen operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails cleanly with no on-disk effect.
    Fail,
    /// A `write_file` persists only the first `k` bytes before failing —
    /// the torn write a power cut mid-`write(2)` leaves behind. Other
    /// operations fail cleanly (they have no partial state).
    Tear(usize),
    /// The operation fails with `ErrorKind::StorageFull` (ENOSPC); a
    /// `write_file` leaves a truncated file behind, as a full disk does.
    NoSpace,
}

/// A deterministic fault-injecting [`SnapshotIo`]: delegates to
/// [`RealIo`] until the `fail_at`-th mutating operation (0-based),
/// injects the configured [`FaultMode`] there, and fails every
/// subsequent operation — a process that crashed at that instant
/// performs no further IO.
#[derive(Debug)]
pub struct FaultIo {
    fail_at: usize,
    mode: FaultMode,
    ops: AtomicUsize,
    fired: AtomicBool,
}

impl FaultIo {
    /// Injects `mode` at the `fail_at`-th operation of the save.
    pub fn new(fail_at: usize, mode: FaultMode) -> Self {
        FaultIo {
            fail_at,
            mode,
            ops: AtomicUsize::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// A pure operation counter: never fails, counts every call — used to
    /// learn how many crash points a save has before sweeping them.
    pub fn counting() -> Self {
        Self::new(usize::MAX, FaultMode::Fail)
    }

    /// Operations observed so far (including the failed one).
    pub fn ops(&self) -> usize {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the fault has been injected.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Claims the next operation slot; `Some(mode)` when this is the one
    /// that must fail, `Err`-worthy immediately when a fault already
    /// fired earlier.
    fn arm(&self) -> Result<Option<FaultMode>, io::Error> {
        if self.fired.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected crash: process already dead"));
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n == self.fail_at {
            self.fired.store(true, Ordering::SeqCst);
            Ok(Some(self.mode))
        } else {
            Ok(None)
        }
    }

    fn injected(&self, mode: FaultMode) -> io::Error {
        match mode {
            FaultMode::NoSpace => io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC: no space left on device",
            ),
            _ => io::Error::other(format!("injected fault at operation {}", self.fail_at)),
        }
    }
}

impl SnapshotIo for FaultIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.arm()? {
            Some(mode) => Err(self.injected(mode)),
            None => RealIo.create_dir_all(path),
        }
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.arm()? {
            Some(mode) => {
                // Torn and ENOSPC writes leave a truncated file behind —
                // the on-disk state a crash or a full disk produces.
                if let FaultMode::Tear(k) = mode {
                    let _ = RealIo.write_file(path, &bytes[..k.min(bytes.len())]);
                } else if mode == FaultMode::NoSpace {
                    let _ = RealIo.write_file(path, &bytes[..bytes.len() / 2]);
                }
                Err(self.injected(mode))
            }
            None => RealIo.write_file(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.arm()? {
            Some(mode) => Err(self.injected(mode)),
            None => RealIo.rename(from, to),
        }
    }
}

/// One committed generation: its number plus the FNV-1a checksum and
/// byte length of its `snapshot.bin` — enough to validate the file on
/// restore without parsing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// Monotonic generation number (directory `gen-NNNNNN`).
    pub seq: u64,
    /// FNV-1a 64-bit checksum of the generation's `snapshot.bin`.
    pub checksum: u64,
    /// Length of the generation's `snapshot.bin` in bytes.
    pub len: u64,
}

/// The checksum-validated generation index (`MANIFEST`), newest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Committed generations, newest first.
    pub generations: Vec<Generation>,
}

impl Manifest {
    /// Serialises the manifest, appending the self-checksum line.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::from("gc-manifest v1\n");
        for g in &self.generations {
            out.push_str(&format!(
                "gen {:06} binary {SNAPSHOT_FILE}:{:016x}:{}\n",
                g.seq, g.checksum, g.len
            ));
        }
        let sum = fnv1a(out.as_bytes());
        out.push_str(&format!("sum {sum:016x}\n"));
        out.into_bytes()
    }

    /// Parses and validates a manifest image. Strict: a bad header, a
    /// malformed line, or a checksum mismatch is an error.
    pub fn decode(bytes: &[u8]) -> Result<Self, GraphError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| GraphError::snapshot(0, "manifest is not UTF-8"))?;
        let body_end = text
            .rfind("sum ")
            .ok_or_else(|| GraphError::snapshot(bytes.len(), "manifest missing sum line"))?;
        // The sum line must be the last line, covering everything before it.
        let (body, sum_line) = text.split_at(body_end);
        let sum_hex = sum_line
            .strip_suffix('\n')
            .and_then(|l| l.strip_prefix("sum "))
            .ok_or_else(|| GraphError::snapshot(body_end, "malformed sum line"))?;
        // Strict: exactly the 16 lowercase hex digits `encode` emits, so
        // no two distinct byte images decode to the same manifest.
        if sum_hex.len() != 16
            || !sum_hex
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return Err(GraphError::snapshot(body_end, "malformed sum value"));
        }
        let stored = u64::from_str_radix(sum_hex, 16)
            .map_err(|_| GraphError::snapshot(body_end, "malformed sum value"))?;
        if fnv1a(body.as_bytes()) != stored {
            return Err(GraphError::snapshot(body_end, "manifest checksum mismatch"));
        }
        let mut lines = body.lines();
        if lines.next() != Some("gc-manifest v1") {
            return Err(GraphError::snapshot(0, "unknown manifest version"));
        }
        let mut generations = Vec::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let rest = line
                .strip_prefix("gen ")
                .ok_or_else(|| GraphError::parse(lineno, "expected 'gen' line"))?;
            let mut toks = rest.split_whitespace();
            let seq: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| GraphError::parse(lineno, "bad generation number"))?;
            let (Some("binary"), Some(file), None) = (toks.next(), toks.next(), toks.next()) else {
                return Err(GraphError::parse(
                    lineno,
                    "expected 'binary snapshot.bin:<sum>:<len>' (text saves are no longer read)",
                ));
            };
            let bad = || GraphError::parse(lineno, format!("malformed file token {file:?}"));
            let mut parts = file.split(':');
            let (Some(SNAPSHOT_FILE), Some(sum), Some(len), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(bad());
            };
            generations.push(Generation {
                seq,
                checksum: u64::from_str_radix(sum, 16).map_err(|_| bad())?,
                len: len.parse().map_err(|_| bad())?,
            });
        }
        Ok(Manifest { generations })
    }

    /// Reads the manifest from a save directory. Returns `None` when the
    /// file is absent **or** fails validation — a corrupt manifest routes
    /// restore to the flat `snapshot.bin` rather than refusing a directory
    /// whose current view may be perfectly good.
    pub fn read(dir: &Path) -> Option<Self> {
        let bytes = std::fs::read(dir.join(MANIFEST_FILE)).ok()?;
        Self::decode(&bytes).ok()
    }

    /// The next generation number to allocate: one past the largest seen
    /// either in the manifest or as a `gen-*` directory on disk (leftover
    /// slots from crashed saves must not be reused).
    pub fn next_seq(dir: &Path, manifest: Option<&Manifest>) -> u64 {
        let mut max = manifest
            .map(|m| m.generations.iter().map(|g| g.seq).max().unwrap_or(0))
            .unwrap_or(0);
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(num) = name
                    .strip_prefix("gen-")
                    .map(|r| r.trim_end_matches(".tmp"))
                    .and_then(|r| r.parse::<u64>().ok())
                {
                    max = max.max(num);
                }
            }
        }
        max + 1
    }
}

/// Writes one complete save as a new generation: stage `snapshot.bin` into
/// a `gen-NNNNNN.tmp` directory (fsynced), rename the directory
/// into its slot, then commit by atomically replacing the `MANIFEST`.
/// Returns the committed generation number.
///
/// After the commit the flat `snapshot.bin` current view at the save root
/// is refreshed (staged rename), and generations that fell out of the
/// retention window are pruned best-effort. A crash anywhere in the
/// post-commit phase leaves a fully recoverable directory: restore reads
/// the manifest, never the flat view, when a manifest is present.
pub fn commit_generation(dir: &Path, snapshot: &[u8], io: &dyn SnapshotIo) -> io::Result<u64> {
    io.create_dir_all(dir)?;
    let previous = Manifest::read(dir);
    let seq = Manifest::next_seq(dir, previous.as_ref());
    let slot = dir.join(generation_dir_name(seq));
    let stage = dir.join(format!("{}.tmp", generation_dir_name(seq)));
    // A leftover stage directory from a crashed save would make the
    // rename below land the new directory *inside* the old one; clear it
    // (pre-fault bookkeeping, not part of the injectable sequence).
    let _ = std::fs::remove_dir_all(&stage);
    io.create_dir_all(&stage)?;
    io.write_file(&stage.join(SNAPSHOT_FILE), snapshot)?;
    io.rename(&stage, &slot)?;

    let mut generations = vec![Generation {
        seq,
        checksum: fnv1a(snapshot),
        len: snapshot.len() as u64,
    }];
    if let Some(prev) = &previous {
        generations.extend(
            prev.generations
                .iter()
                .filter(|g| g.seq < seq)
                .take(RETAINED_GENERATIONS - 1)
                .cloned(),
        );
    }
    let manifest = Manifest { generations };
    let manifest_tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    io.write_file(&manifest_tmp, &manifest.encode())?;
    // The commit point: everything before this rename is invisible to
    // restore; everything after is cleanup of state restore ignores.
    io.rename(&manifest_tmp, &dir.join(MANIFEST_FILE))?;

    // Refresh the flat current view (a manifest-less restore and the
    // smoke scripts read `dir/snapshot.bin` directly).
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    io.write_file(&tmp, snapshot)?;
    io.rename(&tmp, &dir.join(SNAPSHOT_FILE))?;
    prune_unreferenced(dir, &manifest);
    Ok(seq)
}

/// Best-effort removal of generation slots (and leftover stage
/// directories) the manifest no longer references. Runs after the
/// commit, so a failure here can only leak disk space, never durability.
fn prune_unreferenced(dir: &Path, manifest: &Manifest) {
    let live: Vec<String> = manifest
        .generations
        .iter()
        .map(|g| generation_dir_name(g.seq))
        .collect();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut doomed: Vec<PathBuf> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let is_slot = name.starts_with("gen-") && !name.ends_with(".tmp");
        let is_stage = name.starts_with("gen-") && name.ends_with(".tmp");
        if (is_slot && !live.contains(&name)) || is_stage {
            doomed.push(entry.path());
        }
    }
    for path in doomed {
        let _ = std::fs::remove_dir_all(&path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            generations: vec![
                Generation {
                    seq: 2,
                    checksum: 0xdead_beef,
                    len: 412,
                },
                Generation {
                    seq: 1,
                    checksum: 1,
                    len: 2,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = manifest();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_corruption_rejected() {
        let good = manifest().encode();
        // Any flipped byte fails the self-checksum (or a stricter check).
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x20;
            assert!(Manifest::decode(&bad).is_err(), "flip at {pos} accepted");
        }
        // Truncations lose the sum line or break the checksum.
        for cut in 0..good.len() {
            assert!(
                Manifest::decode(&good[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
    }

    #[test]
    fn next_seq_skips_leftover_slots() {
        let dir = std::env::temp_dir().join(format!("gc-staged-seq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("gen-000007")).unwrap();
        std::fs::create_dir_all(dir.join("gen-000009.tmp")).unwrap();
        assert_eq!(Manifest::next_seq(&dir, None), 10);
        let m = Manifest {
            generations: vec![Generation {
                seq: 12,
                checksum: 0,
                len: 0,
            }],
        };
        assert_eq!(Manifest::next_seq(&dir, Some(&m)), 13);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_io_fires_once_then_refuses_everything() {
        let dir = std::env::temp_dir().join(format!("gc-staged-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let io = FaultIo::new(1, FaultMode::Tear(3));
        assert!(io.write_file(&dir.join("a"), b"hello").is_ok());
        let err = io.write_file(&dir.join("b"), b"world!").unwrap_err();
        assert!(err.to_string().contains("injected"));
        // The torn write left a 3-byte prefix behind.
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"wor");
        assert!(io.fired());
        // Every later operation fails: the process is "dead".
        assert!(io.create_dir_all(&dir.join("c")).is_err());
        assert!(io.rename(&dir.join("a"), &dir.join("d")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_is_typed_storage_full() {
        let dir = std::env::temp_dir().join(format!("gc-staged-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let io = FaultIo::new(0, FaultMode::NoSpace);
        let err = io.write_file(&dir.join("full"), b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // A full disk leaves a truncated file, not a clean absence.
        assert_eq!(std::fs::read(dir.join("full")).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! [`GraphCache::check_invariants`] and its typed result: which structural
//! invariant of the cache stores is broken, where, and what was observed.
//!
//! The per-shard clauses live beside the private fields they read
//! ([`Shard::check_invariants`]); the cache-wide ones are checked here.
//! [`InvariantClause`] names the clauses in the order they are checked.
//!
//! [`Shard::check_invariants`]: crate::Shard::check_invariants

use crate::entry::CacheEntry;
use crate::{processors, GraphCache};
use std::fmt;
use std::sync::Arc;

/// One clause of the cache-store invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantClause {
    /// The per-slot columns of a shard all have one length, and every live
    /// slot's packed values (fingerprint, kind, label count, size, overflow
    /// flag, feature signature) equal its entry's.
    Columns,
    /// `serial → slot` is a bijection between the live serials and the live
    /// slots, and every serial lives in the shard it routes to.
    SerialMap,
    /// `fingerprint → slots` lists exactly the live slots, each under its
    /// own fingerprint, with no empty bucket left behind.
    FingerprintMap,
    /// A shard's `memory_bytes` differs from a recount over its live
    /// entries and allocated slots.
    MemoryBytes,
    /// Two live entries of the same kind are isomorphic: every cached query
    /// must occupy exactly one entry.
    Duplicates,
    /// Statistics rows and live entries are not the same serial set.
    StatsRows,
}

/// The first violated clause found by an invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The clause that does not hold.
    pub clause: InvariantClause,
    /// The shard it was found in (`None` for cache-wide clauses).
    pub shard: Option<usize>,
    /// What was observed, for the log line.
    pub detail: String,
}

/// `Ok` when `holds`, otherwise the violation of `clause` (not yet tagged
/// with a shard) described by `detail`.
pub(crate) fn ensure(
    holds: bool,
    clause: InvariantClause,
    detail: impl FnOnce() -> String,
) -> Result<(), InvariantViolation> {
    if holds {
        return Ok(());
    }
    Err(InvariantViolation {
        clause,
        shard: None,
        detail: detail(),
    })
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache invariant {:?} violated", self.clause)?;
        if let Some(shard) = self.shard {
            write!(f, " in shard {shard}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

impl GraphCache {
    /// Checks the cache stores against their structural invariant and
    /// returns the first violated clause: per shard, everything
    /// [`Shard::check_invariants`](crate::Shard::check_invariants) covers
    /// (serial and fingerprint maps against the packed columns, the
    /// running tallies and `memory_bytes` against recounts); cache-wide,
    /// that no two live entries of one kind are isomorphic (fingerprint
    /// buckets, a size prefilter, one matcher confirmation per collision)
    /// and that the statistics rows and the live entries are the same
    /// serial set. The check runs under the maintenance lock, so it sees
    /// the state between two rounds, never the middle of one. O(|cache|) —
    /// a test and diagnostics tool, not a query-path call.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let _round = self.shared.maint.lock();
        let snapshot = self.shared.load_snapshot();
        let shards = snapshot.shard_count();
        for (home, shard) in snapshot.shards().iter().enumerate() {
            shard.check_invariants(home, shards)?;
        }
        let live: Vec<&Arc<CacheEntry>> = snapshot.iter_entries().collect();
        let repeats = processors::isomorphic_repeats(
            live.iter()
                .map(|e| (e.kind, e.fingerprint, e.graph.as_ref())),
            self.method.matcher().as_ref(),
        );
        ensure(repeats.is_empty(), InvariantClause::Duplicates, || {
            let (i, j) = repeats[0];
            format!(
                "entries {} and {} are isomorphic",
                live[j].serial, live[i].serial
            )
        })?;
        let stats = self.shared.stats.lock();
        for e in snapshot.iter_entries() {
            ensure(
                stats.contains_row(e.serial),
                InvariantClause::StatsRows,
                || format!("live entry {} has no statistics row", e.serial),
            )?;
        }
        ensure(
            stats.len() == snapshot.len(),
            InvariantClause::StatsRows,
            || {
                format!(
                    "{} statistics rows for {} live entries",
                    stats.len(),
                    snapshot.len()
                )
            },
        )
    }
}

//! The typed result of [`GraphCache::check_invariants`]: which structural
//! invariant of the cache stores is broken, where, and what was observed.
//!
//! The checks themselves live beside the private fields they read
//! ([`Shard::check_invariants`]; the cache-wide clauses in
//! [`GraphCache::check_invariants`]); this module only names the clauses,
//! in the order they are checked.
//!
//! [`GraphCache::check_invariants`]: crate::GraphCache::check_invariants
//! [`Shard::check_invariants`]: crate::Shard::check_invariants

use std::fmt;

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

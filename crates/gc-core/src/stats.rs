//! The Statistics Manager's store of cached-query statistics (paper §6.1).
//!
//! One [`PolicyRow`] per cached entry, keyed by query serial: the entry's
//! hit count `H`, total candidates removed `R`, total estimated saving `C`
//! and last-hit serial — the four numbers the replacement policies of §6.3
//! read, and nothing else. A row is seeded when its query is admitted
//! (never hit, `last_hit` = its own serial), credited through the one rule
//! [`StatsStore::credit`] on every hit, and removed when the entry is
//! evicted.
//!
//! The paper describes its statistics stores as string-keyed triplets
//! `{key, column name, column value}` with row, column and cell access.
//! This store is typed instead, because no decision reads any other
//! column: a query's node, edge and label counts live on the cached
//! entry's graph, and its expensiveness is
//! [`WindowEntry::expensiveness`](crate::WindowEntry::expensiveness), read
//! once by admission control. Victim selection and compaction copy rows
//! out whole, one lookup per entry.
//!
//! # Concurrency
//!
//! [`StatsStore`] itself is a plain single-threaded map. In the service
//! API it lives behind the shared state's statistics mutex (see
//! `window::Shared`), which concurrent queries take once per query to
//! credit hit contributions — so every operation here must stay O(row)
//! cheap and must never block (no IO, no allocation beyond the row).

use crate::policy::PolicyRow;
use gc_graph::sizing;
use gc_index::fx::FxHashMap;

/// Serial number of a query — assigned on arrival, used as the key of all
/// cache/window/statistics stores (paper §6.1).
pub type QuerySerial = u64;

/// The statistics rows of the cached queries, one per serial.
#[derive(Debug, Clone, Default)]
pub struct StatsStore {
    rows: FxHashMap<QuerySerial, PolicyRow>,
}

/// The row of a query just admitted: never hit, its own serial as the
/// last-hit time.
fn seeded(serial: QuerySerial) -> PolicyRow {
    PolicyRow {
        serial,
        last_hit: serial,
        hits: 0,
        r_total: 0,
        c_total: 0.0,
    }
}

impl StatsStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the row of an admitted query.
    pub fn admit(&mut self, serial: QuerySerial) {
        self.insert(seeded(serial));
    }

    /// Stores `row` under its serial, replacing any row it had.
    pub fn insert(&mut self, row: PolicyRow) {
        self.rows.insert(row.serial, row);
    }

    /// Credits one hit on `serial` by the query with serial `now`: one
    /// more hit, `now` as the last-hit serial, `removed` more candidates
    /// alleviated (`R`) and `saved` more estimated saving (`C`). Returns
    /// `false`, crediting nothing, when `serial` has no row: a maintenance
    /// round evicted the entry after the query read it, and crediting
    /// would recreate an orphan row nothing ever cleans up.
    pub fn credit(
        &mut self,
        serial: QuerySerial,
        now: QuerySerial,
        removed: u64,
        saved: f64,
    ) -> bool {
        let Some(row) = self.rows.get_mut(&serial) else {
            return false;
        };
        row.hits += 1;
        row.last_hit = now;
        row.r_total += removed;
        row.c_total += saved;
        true
    }

    /// The row of `serial` as the policies see it. A serial without a row
    /// reads as just admitted.
    pub fn row(&self, serial: QuerySerial) -> PolicyRow {
        self.rows
            .get(&serial)
            .copied()
            .unwrap_or_else(|| seeded(serial))
    }

    /// Every row, sorted by serial.
    pub fn rows(&self) -> Vec<PolicyRow> {
        let mut rows: Vec<PolicyRow> = self.rows.values().copied().collect();
        rows.sort_unstable_by_key(|r| r.serial);
        rows
    }

    /// True when a row exists for `serial`.
    pub fn contains_row(&self, serial: QuerySerial) -> bool {
        self.rows.contains_key(&serial)
    }

    /// Removes a row (when its query is evicted from the cache).
    pub fn remove_row(&mut self, serial: QuerySerial) {
        self.rows.remove(&serial);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate memory footprint in bytes: one inline `(serial, row)`
    /// map slot per row.
    pub fn memory_bytes(&self) -> usize {
        sizing::slice_bytes::<(QuerySerial, PolicyRow)>(self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_row_is_never_hit() {
        let mut s = StatsStore::new();
        s.admit(7);
        assert_eq!(s.row(7), seeded(7));
        assert_eq!(s.row(7).last_hit, 7);
        assert!(s.contains_row(7));
        assert!(!s.contains_row(8));
        assert_eq!(s.row(8), seeded(8), "a missing row reads as admitted");
    }

    #[test]
    fn add_accumulates() {
        let mut s = StatsStore::new();
        s.admit(1);
        assert!(s.credit(1, 5, 3, 1.5));
        assert!(s.credit(1, 9, 0, 0.0));
        assert!(!s.credit(2, 9, 4, 2.0), "no row, no credit");
        assert!(!s.contains_row(2));
        assert_eq!(
            s.row(1),
            PolicyRow {
                serial: 1,
                last_hit: 9,
                hits: 2,
                r_total: 3,
                c_total: 1.5,
            }
        );
    }

    #[test]
    fn rows_sorted_by_serial() {
        let mut s = StatsStore::new();
        for serial in [5, 2, 9] {
            s.admit(serial);
        }
        let serials: Vec<QuerySerial> = s.rows().iter().map(|r| r.serial).collect();
        assert_eq!(serials, vec![2, 5, 9]);
    }

    #[test]
    fn remove_row_and_len() {
        let mut s = StatsStore::new();
        s.admit(1);
        s.admit(2);
        assert_eq!(s.len(), 2);
        s.remove_row(1);
        assert_eq!(s.len(), 1);
        assert!(!s.contains_row(1));
        assert!(!s.is_empty());
        assert!(s.memory_bytes() > 0);
        assert_eq!(s.rows(), vec![seeded(2)]);
    }
}

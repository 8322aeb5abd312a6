//! The Statistics Manager's key-value store (paper §6.1).
//!
//! The paper describes the statistics stores as triplets of the form
//! `{key, column name, column value}`, accessible by key (a "row"), by
//! column name alone (a "column"), or by both (a single cell). This module
//! implements exactly that interface; rows are keyed by query serial
//! number, and the columns used by GraphCache are named by the constants in
//! [`columns`].
//!
//! # Concurrency
//!
//! [`StatsStore`] itself is a plain single-threaded map. In the service
//! API it lives behind the shared state's statistics mutex (see
//! `window::Shared`), which concurrent queries take once per query to
//! credit hit contributions — so every operation here must stay O(row)
//! cheap and must never block (no IO, no allocation beyond the row).

use std::collections::{BTreeMap, HashMap};

/// Serial number of a query — assigned on arrival, used as the key of all
/// cache/window/statistics stores (paper §6.1).
pub type QuerySerial = u64;

/// Column names used by GraphCache's statistics (paper §5.2 lists the
/// monitored quantities).
pub mod columns {
    /// Number of nodes in the query.
    pub const NODES: &str = "nodes";
    /// Number of edges in the query.
    pub const EDGES: &str = "edges";
    /// Number of distinct labels in the query.
    pub const LABELS: &str = "labels";
    /// Times the query was matched by either GC processor (`H`).
    pub const HITS: &str = "hits";
    /// Number of special-case (exact / empty-shortcut) matches.
    pub const SPECIAL_HITS: &str = "special_hits";
    /// Serial number of the last benefited query.
    pub const LAST_HIT: &str = "last_hit";
    /// Total candidate-set reduction contributed (`R`).
    pub const R_TOTAL: &str = "r_total";
    /// Total estimated time saving contributed (`C`).
    pub const C_TOTAL: &str = "c_total";
    /// The query's "expensiveness" score (its verification work).
    pub const EXPENSIVENESS: &str = "expensiveness";
}

/// A statistics cell value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer-valued statistic (counts, serials).
    Int(i64),
    /// Real-valued statistic (times, costs, ratios).
    Float(f64),
}

impl Value {
    /// The value as f64 (integers widen).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
        }
    }

    /// The value as i64 (floats truncate).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// The triplet store: `{key, column, value}` with row/column/cell access.
#[derive(Debug, Clone, Default)]
pub struct StatsStore {
    rows: HashMap<QuerySerial, BTreeMap<&'static str, Value>>,
}

impl StatsStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a single cell.
    pub fn set(&mut self, key: QuerySerial, column: &'static str, value: impl Into<Value>) {
        self.rows
            .entry(key)
            .or_default()
            .insert(column, value.into());
    }

    /// Adds `delta` to an integer cell (creating it at 0).
    pub fn add_int(&mut self, key: QuerySerial, column: &'static str, delta: i64) {
        let row = self.rows.entry(key).or_default();
        let cur = row.get(column).map(|v| v.as_i64()).unwrap_or(0);
        row.insert(column, Value::Int(cur + delta));
    }

    /// Adds `delta` to a float cell (creating it at 0.0).
    pub fn add_float(&mut self, key: QuerySerial, column: &'static str, delta: f64) {
        let row = self.rows.entry(key).or_default();
        let cur = row.get(column).map(|v| v.as_f64()).unwrap_or(0.0);
        row.insert(column, Value::Float(cur + delta));
    }

    /// Reads a single cell.
    pub fn get(&self, key: QuerySerial, column: &str) -> Option<Value> {
        self.rows.get(&key).and_then(|r| r.get(column)).copied()
    }

    /// Reads a whole row: all `{column, value}` pairs of a key, sorted by
    /// column name (the store keeps columns sorted, as the paper notes).
    pub fn row(&self, key: QuerySerial) -> Option<&BTreeMap<&'static str, Value>> {
        self.rows.get(&key)
    }

    /// Reads a whole column: all `{key, value}` pairs carrying the column.
    pub fn column(&self, column: &str) -> Vec<(QuerySerial, Value)> {
        let mut out: Vec<(QuerySerial, Value)> = self
            .rows
            .iter()
            .filter_map(|(k, r)| r.get(column).map(|v| (*k, *v)))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// True when a row exists for `key`. Used by the hit-crediting path to
    /// avoid resurrecting the row of an entry a concurrent maintenance
    /// round just evicted (such a row would never be cleaned up again).
    pub fn contains_row(&self, key: QuerySerial) -> bool {
        self.rows.contains_key(&key)
    }

    /// Removes a row (when its query is evicted from the cache).
    pub fn remove_row(&mut self, key: QuerySerial) {
        self.rows.remove(&key);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterator over all keys (unordered).
    pub fn keys(&self) -> impl Iterator<Item = QuerySerial> + '_ {
        self.rows.keys().copied()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows
            .values()
            .map(|r| r.len() * (std::mem::size_of::<(&str, Value)>() + 16) + 48)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_cell() {
        let mut s = StatsStore::new();
        s.set(7, columns::NODES, 12i64);
        s.set(7, columns::EXPENSIVENESS, 3.5);
        assert_eq!(s.get(7, columns::NODES), Some(Value::Int(12)));
        assert_eq!(s.get(7, columns::EXPENSIVENESS), Some(Value::Float(3.5)));
        assert_eq!(s.get(7, "missing"), None);
        assert_eq!(s.get(8, columns::NODES), None);
    }

    #[test]
    fn add_accumulates() {
        let mut s = StatsStore::new();
        s.add_int(1, columns::HITS, 1);
        s.add_int(1, columns::HITS, 2);
        s.add_float(1, columns::C_TOTAL, 1.5);
        s.add_float(1, columns::C_TOTAL, 2.5);
        assert_eq!(s.get(1, columns::HITS), Some(Value::Int(3)));
        assert_eq!(s.get(1, columns::C_TOTAL), Some(Value::Float(4.0)));
    }

    #[test]
    fn row_access_sorted_by_column() {
        let mut s = StatsStore::new();
        s.set(1, columns::NODES, 10i64);
        s.set(1, columns::EDGES, 4i64);
        let row = s.row(1).unwrap();
        let cols: Vec<&str> = row.keys().copied().collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
        assert!(s.row(99).is_none());
    }

    #[test]
    fn column_access_sorted_by_key() {
        let mut s = StatsStore::new();
        s.set(5, columns::HITS, 50i64);
        s.set(2, columns::HITS, 20i64);
        s.set(9, columns::NODES, 1i64); // no HITS column
        let col = s.column(columns::HITS);
        assert_eq!(col, vec![(2, Value::Int(20)), (5, Value::Int(50))]);
    }

    #[test]
    fn remove_row_and_len() {
        let mut s = StatsStore::new();
        s.set(1, columns::NODES, 1i64);
        s.set(2, columns::NODES, 2i64);
        assert_eq!(s.len(), 2);
        s.remove_row(1);
        assert_eq!(s.len(), 1);
        assert!(s.get(1, columns::NODES).is_none());
        assert!(!s.is_empty());
        assert!(s.memory_bytes() > 0);
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64).as_f64(), 3.0);
        assert_eq!(Value::from(3u64).as_i64(), 3);
        assert_eq!(Value::from(2.9f64).as_i64(), 2);
    }
}

//! Cache replacement policies (paper §6.3): the [`EvictionPolicy`] trait,
//! plus the paper's built-in strategies LRU, POP, PIN, PINC and the hybrid
//! dynamic policy HD.
//!
//! Every built-in policy assigns each cached query a *utility* and evicts
//! the entries with the lowest utilities:
//!
//! * **LRU** — utility = serial number of the last query the entry expedited
//!   (its "last hit time");
//! * **POP** — utility = `H/A`: hit count over age;
//! * **PIN** — utility = `R/A`: total sub-iso tests alleviated over age
//!   (GraphCache-exclusive: hits save wildly different numbers of tests);
//! * **PINC** — utility = `C/A`: total *estimated time saving* over age
//!   (GraphCache-exclusive: saved tests have wildly different costs);
//! * **HD** — computes the squared coefficient of variation of the cached
//!   `R` values; when `CoV² > 1` (high variability) `R` is discriminative
//!   enough and HD scores like PIN, otherwise it scores like PINC.
//!
//! Age `A` is the difference between the most recent serial number assigned
//! to any query and the cached query's own serial (paper §6.3, POP).
//!
//! Every replacement strategy implements [`EvictionPolicy`]: the five above
//! through [`PolicyKind`], the two beyond the paper in [`crate::policies`].
//! [`crate::registry`] builds one from its name.

use crate::stats::QuerySerial;

/// A read-only view of the candidate entries offered to an eviction
/// decision: one [`PolicyRow`] per cached query, plus the current logical
/// time (the most recent serial assigned to any query).
///
/// The view is rebuilt from the statistics store for every maintenance
/// round, so policies never observe stale utilities.
#[derive(Debug, Clone, Copy)]
pub struct PolicyView<'a> {
    rows: &'a [PolicyRow],
    now: QuerySerial,
}

impl<'a> PolicyView<'a> {
    /// Wraps the candidate rows at logical time `now`.
    pub fn new(rows: &'a [PolicyRow], now: QuerySerial) -> Self {
        PolicyView { rows, now }
    }

    /// The candidate entries (one row per cached query).
    pub fn rows(&self) -> &'a [PolicyRow] {
        self.rows
    }

    /// The most recent serial number assigned to any query.
    pub fn now(&self) -> QuerySerial {
        self.now
    }

    /// Number of candidate entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A row's age `A` (paper §6.3): `now - serial`, floored at 1 so
    /// utility ratios never divide by zero.
    pub fn age(&self, row: &PolicyRow) -> f64 {
        self.now.saturating_sub(row.serial).max(1) as f64
    }
}

/// A cache replacement strategy.
///
/// The Window Manager calls [`select_victims`](Self::select_victims) once
/// per maintenance round that needs room; the event hooks let stateful
/// policies (e.g. [`crate::policies::GreedyDual`]) maintain private
/// bookkeeping between rounds. All per-policy state lives inside the
/// implementor — the cache keeps it behind the shared eviction lock, so
/// implementations need `Send` but no internal synchronisation.
///
/// The set is closed: [`crate::registry::build_eviction`] resolves each
/// name, and [`GraphCacheBuilder::eviction`](crate::GraphCacheBuilder::eviction)
/// selects one.
pub trait EvictionPolicy: Send + std::fmt::Debug {
    /// The policy's canonical name (e.g. `"hd"`). Recorded in
    /// persisted snapshots so a restore under a different policy can be
    /// detected.
    fn name(&self) -> &str;

    /// Selects at most `evict` victims from the candidates in `view`,
    /// lowest-retention-value first. Implementations must return serials
    /// present in the view and must not return duplicates; returning fewer
    /// than `evict` serials leaves the cache over capacity (the excess is
    /// carried to the next round), so built-ins always return
    /// `evict.min(view.len())` victims. Ties should break toward the older
    /// entry (smaller serial) so victim selection stays deterministic.
    fn select_victims(&mut self, view: &PolicyView<'_>, evict: usize) -> Vec<QuerySerial>;

    /// A query was admitted to the cache stores. `cost` is the admission's
    /// expensiveness score (see [`crate::admission`]).
    fn on_admit(&mut self, serial: QuerySerial, cost: f64) {
        let _ = (serial, cost);
    }

    /// A cached entry expedited the query running at logical time `now`,
    /// saving an estimated `saved_cost` (same unit as the statistics
    /// store's `C` column).
    fn on_hit(&mut self, serial: QuerySerial, now: QuerySerial, saved_cost: f64) {
        let _ = (serial, now, saved_cost);
    }

    /// Discards all policy-private state. Called on every snapshot
    /// restore: private state is never persisted and describes the
    /// pre-restore entries (whose serials can collide with restored ones),
    /// so keeping it would misattribute bookkeeping. The statistics rows
    /// themselves survive the restore — they are policy-agnostic.
    fn reset(&mut self) {}
}

/// The per-entry statistics a policy consumes — a row of `GCstats`
/// (cf. Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyRow {
    /// The cached query's serial number (doubles as insertion time).
    pub serial: QuerySerial,
    /// Serial of the last query this entry expedited (its own serial if it
    /// has never contributed).
    pub last_hit: QuerySerial,
    /// Number of queries this entry expedited (`H`).
    pub hits: u64,
    /// Total sub-iso tests alleviated (`R`, candidate-set reduction).
    pub r_total: u64,
    /// Total estimated query-time saving (`C`).
    pub c_total: f64,
}

/// Which replacement policy a [`GraphCache`](crate::GraphCache) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// Popularity-based ranking (`H/A`).
    Pop,
    /// Popularity and sub-iso test number (`R/A`).
    Pin,
    /// PIN plus sub-iso test costs (`C/A`).
    Pinc,
    /// Hybrid dynamic: PIN when `CoV²(R) > 1`, else PINC.
    Hd,
}

impl PolicyKind {
    /// All policies, in the order of the paper's Figure 4 legend.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Pop,
        PolicyKind::Pin,
        PolicyKind::Pinc,
        PolicyKind::Hd,
    ];

    /// Resolves HD to PIN or PINC based on the variability of `R`
    /// (squared coefficient of variation, sample variance as in §6.3).
    fn effective(self, rows: &[PolicyRow]) -> PolicyKind {
        match self {
            PolicyKind::Hd => {
                if squared_cov(rows.iter().map(|r| r.r_total as f64)) > 1.0 {
                    PolicyKind::Pin
                } else {
                    PolicyKind::Pinc
                }
            }
            other => other,
        }
    }

    fn utility(self, r: &PolicyRow, age: f64) -> f64 {
        match self {
            PolicyKind::Lru => r.last_hit as f64,
            PolicyKind::Pop => r.hits as f64 / age,
            PolicyKind::Pin => r.r_total as f64 / age,
            PolicyKind::Pinc => r.c_total / age,
            PolicyKind::Hd => unreachable!("HD resolves to PIN or PINC"),
        }
    }
}

/// The paper's strategies are stateless: every decision derives from the
/// [`PolicyView`] alone, so a [`PolicyKind`] is its own policy object.
impl EvictionPolicy for PolicyKind {
    fn name(&self) -> &str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Pop => "pop",
            PolicyKind::Pin => "pin",
            PolicyKind::Pinc => "pinc",
            PolicyKind::Hd => "hd",
        }
    }

    /// Lowest utility first; ties break toward the older entry (smaller
    /// serial), deterministically.
    fn select_victims(&mut self, view: &PolicyView<'_>, evict: usize) -> Vec<QuerySerial> {
        if evict == 0 || view.is_empty() {
            return Vec::new();
        }
        let scorer = self.effective(view.rows());
        let mut scored: Vec<(f64, QuerySerial)> = view
            .rows()
            .iter()
            .map(|r| (scorer.utility(r, view.age(r)), r.serial))
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored
            .into_iter()
            .take(evict.min(view.len()))
            .map(|(_, s)| s)
            .collect()
    }
}

/// Squared coefficient of variation `σ²/µ²` with *sample* variance
/// (n − 1 denominator), matching the paper's running example where
/// R = {170, 80, 76, 210, 120, 10} gives σ ≈ 72 and CoV ≈ 0.65.
pub fn squared_cov(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.len() < 2 {
        return 0.0;
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    var / (mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact snapshot of Table 1 in the paper.
    fn table1() -> Vec<PolicyRow> {
        let row = |serial, last_hit, hits, r_total, c_total: f64| PolicyRow {
            serial,
            last_hit,
            hits,
            r_total,
            c_total,
        };
        vec![
            row(11, 91, 23, 170, 2600.0),
            row(13, 51, 32, 80, 1200.0),
            row(37, 69, 26, 76, 780.0),
            row(53, 78, 13, 210, 360.0),
            row(82, 90, 5, 120, 150.0),
            row(91, 95, 4, 10, 270.0),
        ]
    }

    /// `kind`'s victims among `rows` at time `now`.
    fn select(
        mut kind: PolicyKind,
        rows: &[PolicyRow],
        evict: usize,
        now: u64,
    ) -> Vec<QuerySerial> {
        kind.select_victims(&PolicyView::new(rows, now), evict)
    }

    fn victims(kind: PolicyKind) -> Vec<QuerySerial> {
        let mut v = select(kind, &table1(), 2, 100);
        v.sort_unstable();
        v
    }

    /// Paper §6.3: "cached queries with serial number 13 and 37 would be
    /// cached out" under LRU.
    #[test]
    fn paper_running_example_lru() {
        assert_eq!(victims(PolicyKind::Lru), vec![13, 37]);
    }

    /// Paper §6.3: "this policy would evict queries 11 and 53" (POP).
    #[test]
    fn paper_running_example_pop() {
        assert_eq!(victims(PolicyKind::Pop), vec![11, 53]);
    }

    /// Paper §6.3: "this policy would evict queries 13 and 91" (PIN).
    #[test]
    fn paper_running_example_pin() {
        assert_eq!(victims(PolicyKind::Pin), vec![13, 91]);
    }

    /// Paper §6.3: "PINC would evict queries 53 and 82".
    #[test]
    fn paper_running_example_pinc() {
        assert_eq!(victims(PolicyKind::Pinc), vec![53, 82]);
    }

    /// Paper §6.3: µ = 111, σ ≈ 72, CoV ≈ 0.65 < 1 ⇒ HD uses PINC and
    /// evicts 53 and 82.
    #[test]
    fn paper_running_example_hd() {
        assert_eq!(victims(PolicyKind::Hd), vec![53, 82]);
        let cov2 = squared_cov(table1().iter().map(|r| r.r_total as f64));
        assert!((cov2.sqrt() - 0.65).abs() < 0.01, "CoV = {}", cov2.sqrt());
    }

    #[test]
    fn hd_switches_to_pin_on_high_variability() {
        // One enormous R value makes CoV² > 1.
        let mut rows = table1();
        rows[0].r_total = 100_000;
        let hd = select(PolicyKind::Hd, &rows, 2, 100);
        let pin = select(PolicyKind::Pin, &rows, 2, 100);
        assert_eq!(hd, pin);
    }

    #[test]
    fn evict_count_clamped() {
        assert_eq!(select(PolicyKind::Lru, &table1(), 99, 100).len(), 6);
        assert!(select(PolicyKind::Lru, &table1(), 0, 100).is_empty());
        assert!(select(PolicyKind::Lru, &[], 2, 100).is_empty());
    }

    #[test]
    fn ties_break_by_serial() {
        let rows = vec![
            PolicyRow {
                serial: 5,
                last_hit: 5,
                hits: 0,
                r_total: 0,
                c_total: 0.0,
            },
            PolicyRow {
                serial: 3,
                last_hit: 3,
                hits: 0,
                r_total: 0,
                c_total: 0.0,
            },
        ];
        // Equal POP utility (0): the older entry (serial 3) goes first.
        assert_eq!(select(PolicyKind::Pop, &rows, 1, 10), vec![3]);
    }

    #[test]
    fn age_floor_prevents_division_by_zero() {
        let rows = vec![PolicyRow {
            serial: 10,
            last_hit: 10,
            hits: 3,
            r_total: 9,
            c_total: 1.0,
        }];
        // now == serial: age clamps to 1 instead of dividing by zero.
        assert_eq!(select(PolicyKind::Pop, &rows, 1, 10), vec![10]);
    }

    #[test]
    fn cov_edge_cases() {
        assert_eq!(squared_cov([].into_iter()), 0.0);
        assert_eq!(squared_cov([5.0].into_iter()), 0.0);
        assert_eq!(squared_cov([0.0, 0.0].into_iter()), 0.0);
        // Identical values → zero variability.
        assert_eq!(squared_cov([7.0, 7.0, 7.0].into_iter()), 0.0);
    }

    #[test]
    fn names_and_all() {
        assert_eq!(PolicyKind::ALL.len(), 5);
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["lru", "pop", "pin", "pinc", "hd"]);
    }

    #[test]
    fn policy_view_accessors() {
        let rows = table1();
        let view = PolicyView::new(&rows, 100);
        assert_eq!(view.len(), 6);
        assert!(!view.is_empty());
        assert_eq!(view.now(), 100);
        assert_eq!(view.age(&rows[0]), 89.0);
        // now == serial clamps to age 1.
        let same = PolicyRow {
            serial: 100,
            last_hit: 100,
            hits: 0,
            r_total: 0,
            c_total: 0.0,
        };
        assert_eq!(view.age(&same), 1.0);
        assert!(PolicyView::new(&[], 5).is_empty());
    }
}

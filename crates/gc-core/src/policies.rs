//! Replacement strategies beyond the paper's §6.3 set, implemented against
//! the [`EvictionPolicy`] trait and resolved by name in
//! [`crate::registry::build_eviction`].
//!
//! * [`SegmentedLru`] (`"slru"`) — the classic two-segment LRU used by web
//!   and block caches: entries that have never expedited a query live in a
//!   *probationary* segment and are evicted first; proven contributors are
//!   *protected* (up to a configurable share of the cache) and only fall
//!   back to eviction when the probationary segment runs dry. Scan-resistant
//!   where plain LRU is not.
//! * [`GreedyDual`] (`"greedy-dual"`) — a cost-aware Greedy-Dual variant:
//!   each entry carries a retention credit `H = L + cost`, where `L` is a
//!   monotone inflation value raised to the credit of each evicted victim.
//!   Hits refresh an entry's credit with the cost the hit actually saved, so
//!   expensive-to-recompute entries survive longer even at equal recency.

use crate::policy::{EvictionPolicy, PolicyRow, PolicyView};
use crate::stats::QuerySerial;
use std::collections::HashMap;

/// Segmented LRU (`"slru"`): probationary entries (no hits yet) are evicted
/// before protected ones (at least one hit), with plain LRU order inside
/// each segment.
///
/// The protected segment is capped at `protected_share` of the candidate
/// set; the least recently hit overflow is demoted to probationary, exactly
/// like the classic SLRU's demotion on protected-segment overflow.
#[derive(Debug, Clone)]
pub struct SegmentedLru {
    protected_share: f64,
}

impl SegmentedLru {
    /// Default share of the cache reserved for the protected segment.
    pub const DEFAULT_PROTECTED_SHARE: f64 = 0.8;

    /// Creates the policy with a protected-segment share in `[0, 1]`
    /// (clamped).
    pub fn new(protected_share: f64) -> Self {
        SegmentedLru {
            protected_share: protected_share.clamp(0.0, 1.0),
        }
    }

    /// The configured protected-segment share.
    pub fn protected_share(&self) -> f64 {
        self.protected_share
    }
}

impl Default for SegmentedLru {
    fn default() -> Self {
        SegmentedLru::new(Self::DEFAULT_PROTECTED_SHARE)
    }
}

impl EvictionPolicy for SegmentedLru {
    fn name(&self) -> &str {
        "slru"
    }

    fn select_victims(&mut self, view: &PolicyView<'_>, evict: usize) -> Vec<QuerySerial> {
        if evict == 0 || view.is_empty() {
            return Vec::new();
        }
        // Deterministic LRU order: (last_hit, serial) ascending.
        let lru_key = |r: &PolicyRow| (r.last_hit, r.serial);
        let mut protected: Vec<&PolicyRow> = view.rows().iter().filter(|r| r.hits > 0).collect();
        protected.sort_by_key(|r| lru_key(r));
        // Cap the protected segment: the least recently hit overflow is
        // demoted and competes with the probationary entries.
        let cap = (self.protected_share * view.len() as f64).floor() as usize;
        let demote = protected.len().saturating_sub(cap);
        let demoted: Vec<&PolicyRow> = protected.drain(..demote).collect();
        let mut probationary: Vec<&PolicyRow> =
            view.rows().iter().filter(|r| r.hits == 0).collect();
        probationary.extend(demoted);
        probationary.sort_by_key(|r| lru_key(r));

        probationary
            .into_iter()
            .chain(protected)
            .take(evict.min(view.len()))
            .map(|r| r.serial)
            .collect()
    }
}

/// Cost-aware Greedy-Dual replacement (`"greedy-dual"`).
///
/// Stateful: retention credits and the inflation value `L` live inside the
/// policy (behind the cache's eviction lock) and are maintained through the
/// [`EvictionPolicy`] event hooks. An entry whose credit was lost — e.g.
/// after a snapshot restore reset the policy — falls back to `L` plus its
/// accumulated `C` statistic, so restored caches degrade gracefully instead
/// of evicting blindly.
#[derive(Debug, Clone, Default)]
pub struct GreedyDual {
    /// Inflation value: the credit of the most expensive victim so far.
    l: f64,
    /// Per-entry retention credit `H`.
    credit: HashMap<QuerySerial, f64>,
}

impl GreedyDual {
    /// Creates the policy with zero inflation and no credits.
    pub fn new() -> Self {
        GreedyDual::default()
    }

    /// The current inflation value `L` (diagnostics).
    pub fn inflation(&self) -> f64 {
        self.l
    }

    fn credit_of(&self, row: &PolicyRow) -> f64 {
        self.credit
            .get(&row.serial)
            .copied()
            .unwrap_or(self.l + row.c_total)
    }
}

impl EvictionPolicy for GreedyDual {
    fn name(&self) -> &str {
        "greedy-dual"
    }

    fn select_victims(&mut self, view: &PolicyView<'_>, evict: usize) -> Vec<QuerySerial> {
        if evict == 0 || view.is_empty() {
            return Vec::new();
        }
        let mut scored: Vec<(f64, QuerySerial)> = view
            .rows()
            .iter()
            .map(|r| (self.credit_of(r), r.serial))
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let victims: Vec<QuerySerial> = scored
            .iter()
            .take(evict.min(view.len()))
            .map(|&(_, s)| s)
            .collect();
        // Inflate L to the most expensive evicted credit: future admissions
        // start above everything that was ever deemed evictable.
        if let Some(&(h, _)) = scored.get(victims.len().saturating_sub(1)) {
            self.l = self.l.max(h);
        }
        for v in &victims {
            self.credit.remove(v);
        }
        // Credits of entries evicted out-of-band (duplicate-serial drops,
        // restores) would leak; prune anything not in the current view.
        if self.credit.len() > 2 * view.len() {
            let live: std::collections::HashSet<QuerySerial> =
                view.rows().iter().map(|r| r.serial).collect();
            self.credit.retain(|s, _| live.contains(s));
        }
        victims
    }

    fn on_admit(&mut self, serial: QuerySerial, cost: f64) {
        let cost = if cost.is_finite() { cost.max(0.0) } else { 0.0 };
        self.credit.insert(serial, self.l + cost);
    }

    fn on_hit(&mut self, serial: QuerySerial, _now: QuerySerial, saved_cost: f64) {
        let saved = if saved_cost.is_finite() {
            saved_cost.max(0.0)
        } else {
            0.0
        };
        // Classic Greedy-Dual hit rule: restore the credit to L + cost,
        // with the cost refreshed by what this hit actually saved.
        let h = self.l + saved;
        let slot = self.credit.entry(serial).or_insert(h);
        *slot = slot.max(h);
    }

    fn reset(&mut self) {
        self.l = 0.0;
        self.credit.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(serial: QuerySerial, last_hit: QuerySerial, hits: u64, c_total: f64) -> PolicyRow {
        PolicyRow {
            serial,
            last_hit,
            hits,
            r_total: 0,
            c_total,
        }
    }

    #[test]
    fn slru_evicts_probationary_first() {
        let rows = vec![
            row(1, 9, 3, 0.0), // protected, recently hit
            row(2, 2, 0, 0.0), // probationary
            row(3, 8, 1, 0.0), // protected
            row(4, 4, 0, 0.0), // probationary
        ];
        let mut p = SegmentedLru::default();
        let victims = p.select_victims(&PolicyView::new(&rows, 10), 3);
        // Probationary by LRU first (2 then 4), then the LRU protected (3).
        assert_eq!(victims, vec![2, 4, 3]);
    }

    #[test]
    fn slru_demotes_protected_overflow() {
        // Everything has hits; with a 50% protected share, the two least
        // recently hit entries are demoted and evicted first.
        let rows = vec![
            row(1, 5, 1, 0.0),
            row(2, 6, 1, 0.0),
            row(3, 7, 1, 0.0),
            row(4, 8, 1, 0.0),
        ];
        let mut p = SegmentedLru::new(0.5);
        let victims = p.select_victims(&PolicyView::new(&rows, 10), 2);
        assert_eq!(victims, vec![1, 2]);
    }

    #[test]
    fn slru_edge_cases() {
        let mut p = SegmentedLru::default();
        assert!(p.select_victims(&PolicyView::new(&[], 10), 2).is_empty());
        let rows = vec![row(1, 1, 0, 0.0)];
        assert!(p.select_victims(&PolicyView::new(&rows, 10), 0).is_empty());
        assert_eq!(p.select_victims(&PolicyView::new(&rows, 10), 5), vec![1]);
        assert_eq!(SegmentedLru::new(7.0).protected_share(), 1.0, "clamped");
    }

    #[test]
    fn greedy_dual_prefers_cheap_victims() {
        let rows = vec![row(1, 1, 0, 0.0), row(2, 2, 0, 0.0), row(3, 3, 0, 0.0)];
        let mut p = GreedyDual::new();
        p.on_admit(1, 100.0);
        p.on_admit(2, 5.0);
        p.on_admit(3, 50.0);
        let victims = p.select_victims(&PolicyView::new(&rows, 10), 1);
        assert_eq!(victims, vec![2], "cheapest entry goes first");
        // L inflated to the victim's credit.
        assert_eq!(p.inflation(), 5.0);
        // A new cheap admission now starts at L + cost.
        p.on_admit(4, 1.0);
        let rows = vec![row(1, 1, 0, 0.0), row(3, 3, 0, 0.0), row(4, 4, 0, 0.0)];
        let victims = p.select_victims(&PolicyView::new(&rows, 11), 1);
        assert_eq!(victims, vec![4], "6.0 credit < 50 and 100");
    }

    #[test]
    fn greedy_dual_hits_refresh_credit() {
        let rows = vec![row(1, 1, 0, 0.0), row(2, 2, 0, 0.0)];
        let mut p = GreedyDual::new();
        p.on_admit(1, 10.0);
        p.on_admit(2, 10.0);
        p.on_hit(1, 5, 90.0);
        let victims = p.select_victims(&PolicyView::new(&rows, 10), 1);
        assert_eq!(victims, vec![2], "hit entry retained");
        // A hit never lowers an existing credit.
        p.on_hit(2, 6, 0.5);
        assert!(p.credit_of(&row(2, 6, 1, 0.0)) >= 10.0);
    }

    #[test]
    fn greedy_dual_reset_falls_back_to_stats() {
        let rows = vec![row(1, 1, 2, 500.0), row(2, 2, 1, 1.0)];
        let mut p = GreedyDual::new();
        p.on_admit(1, 0.0);
        p.on_admit(2, 999.0);
        p.reset();
        assert_eq!(p.inflation(), 0.0);
        // After reset, credits derive from the C statistic: entry 2 is now
        // the cheap one.
        let victims = p.select_victims(&PolicyView::new(&rows, 10), 1);
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn greedy_dual_ignores_non_finite() {
        let mut p = GreedyDual::new();
        p.on_admit(1, f64::NAN);
        p.on_hit(1, 2, f64::INFINITY);
        let rows = vec![row(1, 1, 0, 0.0)];
        assert_eq!(p.select_victims(&PolicyView::new(&rows, 10), 1), vec![1]);
    }

    #[test]
    fn greedy_dual_prunes_stale_credits() {
        let mut p = GreedyDual::new();
        for s in 0..100 {
            p.on_admit(s, 1.0);
        }
        let rows = vec![row(200, 200, 0, 0.0)];
        p.on_admit(200, 1.0);
        let _ = p.select_victims(&PolicyView::new(&rows, 300), 0);
        let _ = p.select_victims(&PolicyView::new(&rows, 300), 1);
        assert!(p.credit.len() <= 2, "stale credits pruned");
    }
}

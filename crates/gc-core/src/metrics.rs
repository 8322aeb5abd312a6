//! Per-query records and run-level aggregates — what the Statistics Monitor
//! observes (paper §5.2) and what the evaluation figures are computed from.

use crate::stats::QuerySerial;
use std::time::Duration;

/// Everything measured about one query's execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query serial.
    pub serial: QuerySerial,
    /// Method M's own filter time (zero on an exact hit).
    pub m_filter: Duration,
    /// GraphCache's filter time: the exact probe and, on a miss, path
    /// enumeration and the hit sweep, but not Method M's filter between
    /// them. On an exact hit it also covers the answer copy and the §5.2
    /// saving's memo.
    pub gc_filter: Duration,
    /// Method M's verification of the pruned candidate set.
    pub verify: Duration,
    /// Cache maintenance time attributed to this query: the round it ran
    /// because its miss filled the Window (zero for every other query).
    pub maintenance: Duration,
    /// Sub-iso tests executed against dataset graphs.
    pub subiso_tests: u64,
    /// Matcher work (recursion steps) spent on dataset verification.
    pub verify_work: u64,
    /// Sub-iso tests spent verifying cache-hit candidates (the GC
    /// processors' sweep; exact fingerprint confirmations excluded).
    pub gc_tests: u64,
    /// Matcher work spent on hit detection — what the per-query
    /// verification budget pool deducts
    /// ([`GcConfig::verify_budget`](crate::GcConfig::verify_budget)).
    pub budget_spent: u64,
    /// The hit-verification sweep ran out of budget before covering every
    /// candidate; the hit sets (and therefore pruning) are a sound subset.
    pub truncated: bool,
    /// The exact hit was resolved through the O(1) fingerprint map rather
    /// than a candidate sweep.
    pub exact_via_fingerprint: bool,
    /// |CS_M(g)| — Method M's candidate set size.
    pub cs_m_size: usize,
    /// |CS_GC(g)| — candidate set size after GraphCache pruning.
    pub cs_gc_size: usize,
    /// Number of verified sub-direction hits (`g ⊆ cached`).
    pub sub_hits: usize,
    /// Number of verified super-direction hits (`cached ⊆ g`).
    pub super_hits: usize,
    /// The query hit an isomorphic cached query (first special case).
    pub exact_hit: bool,
    /// The query was answered empty via the second special case.
    pub empty_shortcut: bool,
    /// Final answer size.
    pub answer_size: usize,
    /// Fragment keys probed against the fragment store (0 when the
    /// fragment layer is off, the query is supergraph-directed, or path
    /// enumeration overflowed its work cap).
    pub fragment_probes: u64,
    /// Fragment keys found resident in the store.
    pub fragment_hits: u64,
    /// Candidates removed by intersecting fragment occurrence sets.
    pub fragment_pruned: u64,
    /// The query's wall-clock deadline expired mid-execution: it was
    /// aborted at the next stage boundary (or sweep test) with an empty
    /// answer, and its durations cover only the stages that ran (the
    /// daemon maps this to `ERR code=deadline`). Implies
    /// [`truncated`](Self::truncated).
    pub deadline_exceeded: bool,
}

impl QueryRecord {
    /// The four durations summed: filtering (M + GC), verification and
    /// inline maintenance. Pruning, fragment narrowing, credit, the
    /// admission observation and a Window push that runs no round fall in
    /// none, so this is not all the latency.
    pub fn total(&self) -> Duration {
        self.m_filter + self.gc_filter + self.verify + self.maintenance
    }

    /// [`total`](Self::total) without maintenance (the per-query cost the
    /// paper plots next to the overhead bars in Fig. 10).
    pub fn query_time(&self) -> Duration {
        self.m_filter + self.gc_filter + self.verify
    }

    /// Whether any kind of cache hit helped this query. Fragment hits are
    /// the fourth hit class: a resident fragment pre-pruned (or could have
    /// pre-pruned) the matcher even though no whole cached answer subsumed
    /// the query.
    pub fn any_hit(&self) -> bool {
        self.exact_hit
            || self.empty_shortcut
            || self.sub_hits > 0
            || self.super_hits > 0
            || self.fragment_hits > 0
    }
}

/// A record field as the `u64` a `RESULT` frame carries (flags as 0/1).
trait WireValue {
    fn to_wire(&self) -> u64;
    fn from_wire(value: u64) -> Self;
}

impl WireValue for u64 {
    fn to_wire(&self) -> u64 {
        *self
    }
    fn from_wire(value: u64) -> Self {
        value
    }
}

impl WireValue for usize {
    fn to_wire(&self) -> u64 {
        *self as u64
    }
    fn from_wire(value: u64) -> Self {
        value as usize
    }
}

impl WireValue for bool {
    fn to_wire(&self) -> u64 {
        *self as u64
    }
    fn from_wire(value: u64) -> Self {
        value != 0
    }
}

/// Generates the wire-field accessors from one `name => field` table, so
/// a field's name, its position and the field it reads and writes cannot
/// drift apart.
macro_rules! deterministic_fields {
    ($($name:literal => $field:ident,)*) => {
        impl QueryRecord {
            /// The wire names of
            /// [`deterministic_fields`](Self::deterministic_fields), in
            /// order. Renaming or reordering entries is a protocol change.
            pub const DETERMINISTIC_NAMES: [&'static str; 17] = [$($name),*];

            /// The record fields that are a pure function of the query
            /// sequence (durations excluded), as a stable `(name, value)`
            /// array named by
            /// [`DETERMINISTIC_NAMES`](Self::DETERMINISTIC_NAMES). This is
            /// the wire schema `gc serve` puts on every `RESULT` frame: a
            /// client that replays these values through
            /// [`QueryRecord::set_deterministic_value`] reconstructs a
            /// record whose [`RunCounters`] contribution is identical to
            /// the server's, which is what makes served counters
            /// byte-comparable to in-process [`RunCounters::from_records`].
            pub fn deterministic_fields(&self) -> [(&'static str, u64); 17] {
                [$(($name, self.$field.to_wire())),*]
            }

            /// Sets the field at `index` of
            /// [`deterministic_fields`](Self::deterministic_fields).
            /// Returns `false` past the last field.
            pub fn set_deterministic_value(&mut self, index: usize, value: u64) -> bool {
                let mut at = 0;
                $(
                    if index == at {
                        self.$field = WireValue::from_wire(value);
                        return true;
                    }
                    at += 1;
                )*
                let _ = at;
                false
            }
        }
    };
}

deterministic_fields! {
    "subiso_tests" => subiso_tests,
    "verify_work" => verify_work,
    "gc_tests" => gc_tests,
    "budget_spent" => budget_spent,
    "truncated" => truncated,
    "exact_fp" => exact_via_fingerprint,
    "cs_m" => cs_m_size,
    "cs_gc" => cs_gc_size,
    "sub_hits" => sub_hits,
    "super_hits" => super_hits,
    "exact" => exact_hit,
    "empty" => empty_shortcut,
    "answer_size" => answer_size,
    "fragment_probes" => fragment_probes,
    "fragment_hits" => fragment_hits,
    "fragment_pruned" => fragment_pruned,
    "deadline" => deadline_exceeded,
}

/// Cumulative per-phase breakdown of cache maintenance — what the Window
/// Manager spent each round on and how much cache state it touched.
/// Returned by [`GraphCache::maint_stats`](crate::GraphCache::maint_stats)
/// and printed by `gc query --maint-stats`.
///
/// With the sharded delta path, `index_delta` scales with the round's
/// victim/admit delta (plus any compactions), not with the cache size;
/// `shards_patched` vs `rounds × shard count` shows how much of the cache
/// each round actually touched.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintStats {
    /// Maintenance rounds executed.
    pub rounds: u64,
    /// Total wall time across rounds — Fig. 10's overhead metric.
    pub total: Duration,
    /// Time assembling policy rows and selecting victims.
    pub victim_select: Duration,
    /// Time applying the victim/admit delta to shard indexes (including
    /// any compaction fallbacks).
    pub index_delta: Duration,
    /// Time upkeeping statistics rows (drop victims, seed admissions).
    pub stats_upkeep: Duration,
    /// Time spent on fragment-store upkeep (building occurrence sets for
    /// new fragments and evicting down to the fragment byte budget).
    pub fragment_upkeep: Duration,
    /// Entries admitted into the cache.
    pub entries_admitted: u64,
    /// Entries evicted from the cache.
    pub entries_evicted: u64,
    /// Shard patches applied (a shard touched by k rounds counts k times).
    pub shards_patched: u64,
    /// Per-shard dense rebuilds triggered by tombstone debt.
    pub compactions: u64,
    /// Tombstoned slots currently left behind in the shards by evictions (a
    /// point-in-time gauge, reclaimed by compaction) — the one debt a shard
    /// carries. The name, and the `postings_debt` counter it is reported
    /// under, date from when each slot also owned postings.
    pub dead_postings: u64,
    /// Fragments built into the fragment store during maintenance.
    pub fragments_built: u64,
    /// Fragments evicted from the fragment store by its byte budget.
    pub fragments_evicted: u64,
}

impl MaintStats {
    /// Entries touched by maintenance (admissions + evictions) — the delta
    /// volume `index_delta` should scale with.
    pub fn entries_touched(&self) -> u64 {
        self.entries_admitted + self.entries_evicted
    }

    /// The maintenance counters that are a pure function of the query
    /// sequence (durations excluded), as a stable `(name, value)` list.
    /// The benchmark harness serializes exactly these names, and the CI
    /// regression gate compares them against the committed baseline, so
    /// renaming or reordering entries is a schema change.
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("maint_rounds", self.rounds),
            ("entries_admitted", self.entries_admitted),
            ("entries_evicted", self.entries_evicted),
            ("shards_patched", self.shards_patched),
            ("compactions", self.compactions),
            ("fragments_built", self.fragments_built),
            ("fragments_evicted", self.fragments_evicted),
            ("postings_debt", self.dead_postings),
        ]
    }
}

/// Integer-exact totals over a run of queries — the one run-level
/// aggregate over [`QueryRecord`]s (the paper's speed-ups, §7.2, are
/// ratios of these totals).
///
/// Every field is a pure function of the query sequence and the cache
/// configuration (no wall-clock, no thread scheduling with a single
/// client), which is what makes these totals suitable for bit-identical
/// benchmark output and baseline regression gating. Aggregation is plain
/// `u64` addition, so two runs over the same records produce the same
/// bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Number of queries replayed (after any warm-up skip).
    pub queries: u64,
    /// Queries helped by any cache hit (exact, empty shortcut, sub/super).
    pub cache_assisted: u64,
    /// Exact-match special cases.
    pub exact_hits: u64,
    /// Exact hits resolved through the O(1) fingerprint map.
    pub exact_fp_hits: u64,
    /// Empty-answer shortcut special cases.
    pub empty_shortcuts: u64,
    /// Queries whose hit-verification sweep was budget-truncated.
    pub truncated: u64,
    /// Verified sub-direction hits across the run.
    pub sub_hits: u64,
    /// Verified super-direction hits across the run.
    pub super_hits: u64,
    /// Sub-iso tests against dataset graphs.
    pub subiso_tests: u64,
    /// Sub-iso tests spent verifying cache-hit candidates.
    pub gc_tests: u64,
    /// Matcher work charged to the hit-verification budget pool.
    pub budget_spent: u64,
    /// Matcher work (recursion steps) spent on dataset verification.
    pub verify_work: u64,
    /// Summed |CS_M| — Method M's candidate set sizes.
    pub cs_m: u64,
    /// Summed |CS_GC| — candidate set sizes after GraphCache pruning.
    pub cs_gc: u64,
    /// Summed answer sizes — a strong end-to-end determinism signal.
    pub answers: u64,
    /// Fragment keys probed against the fragment store.
    pub fragment_probes: u64,
    /// Fragment keys found resident (the fourth hit class).
    pub fragment_hits: u64,
    /// Candidates removed by fragment occurrence-set intersection.
    pub fragment_pruned: u64,
    /// Queries aborted because their wall-clock deadline expired.
    pub deadline_aborts: u64,
}

impl RunCounters {
    /// Accumulates the totals from per-query records, skipping the first
    /// `warmup` queries (the paper allows one window before measuring).
    pub fn from_records(records: &[QueryRecord], warmup: usize) -> Self {
        let mut c = RunCounters::default();
        for r in &records[warmup.min(records.len())..] {
            c.add_record(r);
        }
        c
    }

    /// Folds one record into the totals — the incremental form of
    /// [`from_records`](RunCounters::from_records), used by `gc serve` to
    /// keep live global and per-session tallies without retaining every
    /// record.
    pub fn add_record(&mut self, r: &QueryRecord) {
        self.queries += 1;
        self.cache_assisted += r.any_hit() as u64;
        self.exact_hits += r.exact_hit as u64;
        self.exact_fp_hits += r.exact_via_fingerprint as u64;
        self.empty_shortcuts += r.empty_shortcut as u64;
        self.truncated += r.truncated as u64;
        self.sub_hits += r.sub_hits as u64;
        self.super_hits += r.super_hits as u64;
        self.subiso_tests += r.subiso_tests;
        self.gc_tests += r.gc_tests;
        self.budget_spent += r.budget_spent;
        self.verify_work += r.verify_work;
        self.cs_m += r.cs_m_size as u64;
        self.cs_gc += r.cs_gc_size as u64;
        self.answers += r.answer_size as u64;
        self.fragment_probes += r.fragment_probes;
        self.fragment_hits += r.fragment_hits;
        self.fragment_pruned += r.fragment_pruned;
        self.deadline_aborts += r.deadline_exceeded as u64;
    }

    /// Stable `(name, value)` enumeration of every counter, in schema
    /// order. The benchmark harness serializes exactly these names, and
    /// the CI regression gate compares them against the committed
    /// baseline, so renaming or reordering entries is a schema change.
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries", self.queries),
            ("cache_assisted", self.cache_assisted),
            ("exact_hits", self.exact_hits),
            ("exact_fp_hits", self.exact_fp_hits),
            ("empty_shortcuts", self.empty_shortcuts),
            ("truncated", self.truncated),
            ("sub_hits", self.sub_hits),
            ("super_hits", self.super_hits),
            ("subiso_tests", self.subiso_tests),
            ("gc_tests", self.gc_tests),
            ("budget_spent", self.budget_spent),
            ("verify_work", self.verify_work),
            ("cs_m", self.cs_m),
            ("cs_gc", self.cs_gc),
            ("answers", self.answers),
            ("fragment_probes", self.fragment_probes),
            ("fragment_hits", self.fragment_hits),
            ("fragment_pruned", self.fragment_pruned),
            ("deadline_aborts", self.deadline_aborts),
        ]
    }
}

/// Traffic-placement counters kept by the `gc route` front-end — how many
/// queries took the exact-repeat fast lane, how many candidate probes were
/// fanned out, and how often a dead peer degraded a slice to miss-only.
///
/// These live *outside* the deterministic counter schema on purpose:
/// [`RunCounters::deterministic_counters`] and
/// [`MaintStats::deterministic_counters`] are frozen wire/baseline schemas
/// (1-peer and N-peer routed runs must produce byte-identical vectors, and
/// `peer_misses` is nonzero only when topology — not the query sequence —
/// changes). The router appends them to its `STATS` payload as extra keys,
/// which every consumer of the deterministic schema ignores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounters {
    /// Queries whose fingerprint was already seen by the router: sent
    /// straight to the owning peer with no candidate fan-out (the routed
    /// form of the O(1) exact-repeat fast path).
    pub routed_exact: u64,
    /// Candidate probes (`PROBE` frames) fanned out to peers. One query
    /// probing three live peers counts three.
    pub fanout_probes: u64,
    /// Peer failures absorbed as degraded slices: a probe or apply that
    /// found its peer dead, or an owning peer lost mid-query (the query is
    /// then executed cache-bypassed on the survivors).
    pub peer_misses: u64,
}

impl RouteCounters {
    /// Stable `(name, value)` list, in declaration order — the keys the
    /// router appends to its proxied `STATS` payload.
    pub fn stats_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("routed_exact", self.routed_exact),
            ("fanout_probes", self.fanout_probes),
            ("peer_misses", self.peer_misses),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(us: u64, tests: u64, hit: bool) -> QueryRecord {
        QueryRecord {
            verify: Duration::from_micros(us),
            subiso_tests: tests,
            sub_hits: hit as usize,
            cs_m_size: 10,
            cs_gc_size: 10usize.saturating_sub(tests as usize),
            ..Default::default()
        }
    }

    #[test]
    fn record_totals() {
        let r = QueryRecord {
            m_filter: Duration::from_micros(10),
            gc_filter: Duration::from_micros(20),
            verify: Duration::from_micros(30),
            maintenance: Duration::from_micros(40),
            ..Default::default()
        };
        assert_eq!(r.total(), Duration::from_micros(100));
        assert_eq!(r.query_time(), Duration::from_micros(60));
        assert!(!r.any_hit());
    }

    #[test]
    fn run_counters_totals_and_warmup() {
        let recs = vec![record(100, 4, true), record(300, 8, false)];
        let c = RunCounters::from_records(&recs, 0);
        assert_eq!(c.queries, 2);
        assert_eq!(c.subiso_tests, 12);
        assert_eq!(c.cache_assisted, 1);
        assert_eq!(c.sub_hits, 1);
        assert_eq!(c.cs_m, 20);
        let warm = RunCounters::from_records(&recs, 1);
        assert_eq!(warm.queries, 1);
        assert_eq!(warm.subiso_tests, 8);
    }

    #[test]
    fn empty_records() {
        assert_eq!(RunCounters::from_records(&[], 0), RunCounters::default());
        // Warm-up larger than the record count must not panic.
        let recs = [record(1, 1, false)];
        assert_eq!(RunCounters::from_records(&recs, 5), RunCounters::default());
    }

    #[test]
    fn counter_enumerations_are_complete_and_stable() {
        let c = RunCounters {
            queries: 1,
            cache_assisted: 2,
            exact_hits: 3,
            exact_fp_hits: 4,
            empty_shortcuts: 5,
            truncated: 6,
            sub_hits: 7,
            super_hits: 8,
            subiso_tests: 9,
            gc_tests: 10,
            budget_spent: 11,
            verify_work: 12,
            cs_m: 13,
            cs_gc: 14,
            answers: 15,
            fragment_probes: 16,
            fragment_hits: 17,
            fragment_pruned: 18,
            deadline_aborts: 19,
        };
        let listed = c.deterministic_counters();
        // Every field appears exactly once, in declaration order, with
        // distinct values 1..=19 proving no field maps to a wrong name.
        assert_eq!(listed.len(), 19);
        let values: Vec<u64> = listed.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=19).collect::<Vec<u64>>());
        let m = MaintStats {
            rounds: 1,
            entries_admitted: 2,
            entries_evicted: 3,
            shards_patched: 4,
            compactions: 5,
            fragments_built: 6,
            fragments_evicted: 7,
            dead_postings: 8,
            ..Default::default()
        };
        let maint = m.deterministic_counters();
        assert_eq!(maint.len(), 8);
        let values: Vec<u64> = maint.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn route_counters_enumeration_is_complete_and_stable() {
        let r = RouteCounters {
            routed_exact: 1,
            fanout_probes: 2,
            peer_misses: 3,
        };
        let listed = r.stats_counters();
        assert_eq!(listed.len(), 3);
        let values: Vec<u64> = listed.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1, 2, 3]);
        // Route counters must never collide with the frozen deterministic
        // schema — they ride in the same STATS namespace.
        let frozen: Vec<&str> = RunCounters::default()
            .deterministic_counters()
            .into_iter()
            .map(|(k, _)| k)
            .chain(
                MaintStats::default()
                    .deterministic_counters()
                    .into_iter()
                    .map(|(k, _)| k),
            )
            .collect();
        for (k, _) in listed {
            assert!(!frozen.contains(&k), "{k} collides with baseline schema");
        }
    }

    #[test]
    fn deterministic_fields_round_trip_through_names() {
        let original = QueryRecord {
            subiso_tests: 1,
            verify_work: 2,
            gc_tests: 3,
            budget_spent: 4,
            truncated: true,
            exact_via_fingerprint: true,
            cs_m_size: 7,
            cs_gc_size: 8,
            sub_hits: 9,
            super_hits: 10,
            exact_hit: true,
            empty_shortcut: true,
            answer_size: 13,
            fragment_probes: 14,
            fragment_hits: 15,
            fragment_pruned: 16,
            deadline_exceeded: true,
            ..Default::default()
        };
        let mut rebuilt = QueryRecord::default();
        for (i, (name, value)) in original.deterministic_fields().into_iter().enumerate() {
            assert!(rebuilt.set_deterministic_value(i, value), "{name}");
        }
        // The rebuilt record contributes identical counters — the property
        // the wire protocol's RESULT frame relies on.
        assert_eq!(
            RunCounters::from_records(std::slice::from_ref(&rebuilt), 0),
            RunCounters::from_records(std::slice::from_ref(&original), 0)
        );
        assert_eq!(
            rebuilt.deterministic_fields(),
            original.deterministic_fields()
        );
        assert!(!rebuilt.set_deterministic_value(QueryRecord::DETERMINISTIC_NAMES.len(), 1));
        let mut names = QueryRecord::DETERMINISTIC_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), QueryRecord::DETERMINISTIC_NAMES.len());
    }

    /// Each wire name reads and writes its own field: a record with one
    /// field set shows a value under that name alone, and setting that
    /// name's index on an empty record rebuilds it.
    #[test]
    fn each_wire_name_maps_to_its_field() {
        let one = |f: fn(&mut QueryRecord)| {
            let mut r = QueryRecord::default();
            f(&mut r);
            r
        };
        let cases: [(&str, u64, QueryRecord); 17] = [
            ("subiso_tests", 11, one(|r| r.subiso_tests = 11)),
            ("verify_work", 12, one(|r| r.verify_work = 12)),
            ("gc_tests", 13, one(|r| r.gc_tests = 13)),
            ("budget_spent", 14, one(|r| r.budget_spent = 14)),
            ("truncated", 1, one(|r| r.truncated = true)),
            ("exact_fp", 1, one(|r| r.exact_via_fingerprint = true)),
            ("cs_m", 17, one(|r| r.cs_m_size = 17)),
            ("cs_gc", 18, one(|r| r.cs_gc_size = 18)),
            ("sub_hits", 19, one(|r| r.sub_hits = 19)),
            ("super_hits", 20, one(|r| r.super_hits = 20)),
            ("exact", 1, one(|r| r.exact_hit = true)),
            ("empty", 1, one(|r| r.empty_shortcut = true)),
            ("answer_size", 23, one(|r| r.answer_size = 23)),
            ("fragment_probes", 24, one(|r| r.fragment_probes = 24)),
            ("fragment_hits", 25, one(|r| r.fragment_hits = 25)),
            ("fragment_pruned", 26, one(|r| r.fragment_pruned = 26)),
            ("deadline", 1, one(|r| r.deadline_exceeded = true)),
        ];
        for (name, value, record) in cases {
            let index = QueryRecord::DETERMINISTIC_NAMES
                .iter()
                .position(|n| *n == name)
                .expect(name);
            for (i, (n, v)) in record.deterministic_fields().into_iter().enumerate() {
                let want = if i == index { value } else { 0 };
                assert_eq!(v, want, "{name} set, {n} reads {v}");
            }
            let mut rebuilt = QueryRecord::default();
            assert!(rebuilt.set_deterministic_value(index, value));
            assert_eq!(rebuilt, record, "{name}");
        }
    }

    #[test]
    fn add_record_matches_from_records() {
        let recs = vec![record(100, 4, true), record(300, 8, false)];
        let mut incremental = RunCounters::default();
        for r in &recs {
            incremental.add_record(r);
        }
        assert_eq!(incremental, RunCounters::from_records(&recs, 0));
    }
}

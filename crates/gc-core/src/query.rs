//! The query pipeline (paper §4, Fig. 2): stage methods over one
//! per-query state, [`QueryRun`], run in the order of
//! [`QueryRun::stages`]. A [`QueryRun::checkpoint`] between every two
//! stages from the exact probe up to verification turns a deadline that
//! has passed into [`Aborted`], which `?` carries to the one place that
//! finishes an aborted query. `docs/architecture.md` ("The query
//! pipeline") maps each stage to the [`QueryRecord`] duration it feeds.

use crate::entry::{CacheEntry, CacheSnapshot};
use crate::metrics::QueryRecord;
use crate::processors::{self, ExactProbe, HitSet, VerifyOptions};
use crate::pruner::{self, HitAnswer, PruneOutcome, PruneResult};
use crate::query_index::QUERY_INDEX_SHAPE;
use crate::request::{QueryRequest, QueryResult};
use crate::stats::QuerySerial;
use crate::window::{self, WindowEntry};
use crate::GraphCache;
use gc_graph::idset::{self, IdSet};
use gc_graph::{GraphId, LabeledGraph};
use gc_index::fingerprint::iso_hash;
use gc_index::paths::{PathEnumeration, PathProfile};
use gc_methods::{Method, QueryKind};
use gc_subiso::cost;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Enumerates a query's path features under the query index's path length
/// and `work_cap` — the query path's one enumeration.
pub(crate) fn enumerate_query(query: &LabeledGraph, work_cap: u64) -> PathEnumeration {
    PathEnumeration::new(query, QUERY_INDEX_SHAPE.max_len, work_cap)
}

/// A checkpoint found the request's deadline past.
struct Aborted;

/// The fragments a narrowing used, with the candidates they removed (`R`)
/// and the matcher work those would have cost (`C`), credited at stage 8.
type FragmentCredit = (Vec<u64>, u64, f64);

/// One cached query in flight.
struct QueryRun<'a> {
    cache: &'a GraphCache,
    method: &'a Method,
    query: &'a Arc<LabeledGraph>,
    kind: QueryKind,
    opts: VerifyOptions,
    /// The query's [`iso_hash`], taken by the probe.
    fingerprint: u64,
    record: QueryRecord,
    /// Start of the open `gc_filter` interval: the probe opens one that
    /// enumeration (or an exact hit) closes, the sweep one of its own.
    gc_clock: Option<Instant>,
}

impl GraphCache {
    /// The cached query path: runs `request` through the stages.
    pub(crate) fn run_cached(&self, request: &QueryRequest) -> QueryResult {
        let mut run = QueryRun {
            cache: self,
            method: &self.method,
            query: &request.graph,
            kind: request.kind.unwrap_or(self.cfg.query_kind),
            opts: VerifyOptions {
                budget: request.verify_budget.or(self.cfg.verify_budget),
                max_hits: request.max_hits,
                deadline: request
                    .timeout_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms)),
                allowed: request.allow.clone(),
            },
            fingerprint: 0,
            record: QueryRecord {
                serial: self.shared.next_serial(),
                ..Default::default()
            },
            gc_clock: None,
        };
        let answer = match run.stages() {
            Ok(answer) => answer,
            Err(Aborted) => run.abort(),
        };
        QueryResult {
            serial: run.record.serial,
            answer,
            record: run.record,
        }
    }

    /// Uncached execution for [`QueryRequest::bypass_cache`]: straight
    /// through Method M, no Window admission, no statistics credit.
    pub(crate) fn run_uncached(&self, request: &QueryRequest) -> QueryResult {
        let serial = self.shared.next_serial();
        let kind = request.kind.unwrap_or(self.cfg.query_kind);
        let m = self.method.run_directed(&request.graph, kind);
        let record = QueryRecord {
            serial,
            m_filter: m.filter.duration,
            verify: m.verify.duration,
            subiso_tests: m.verify.stats.tests,
            verify_work: m.verify.stats.nodes_expanded,
            cs_m_size: m.filter.candidates.len(),
            cs_gc_size: m.filter.candidates.len(),
            answer_size: m.answer.len(),
            ..Default::default()
        };
        QueryResult {
            serial,
            answer: m.answer,
            record,
        }
    }

    /// The work cap a miss enumerates its query under: the query index's,
    /// raised to Method M's when its filter reads paths (GGSX, Grapes, both
    /// at the query index's path length), so the one enumeration serves
    /// both. A filter that reads no paths (CT-Index, none for the SI
    /// methods) leaves it at the query index's.
    pub(crate) fn miss_work_cap(&self) -> u64 {
        let cap = QUERY_INDEX_SHAPE.work_cap;
        self.method
            .path_shape()
            .map_or(cap, |m| cap.max(m.work_cap))
    }
}

impl QueryRun<'_> {
    /// Runs the stages in order. `Err` once a checkpoint finds the
    /// deadline past; the record then keeps what the stages that ran
    /// filled in.
    fn stages(&mut self) -> Result<Vec<GraphId>, Aborted> {
        // The stages that read the cache run in this block, against one
        // snapshot view. A round patches a shard in place only while no
        // view holds its `Arc` (`window::maintain`), so the view and every
        // `HitQuery` / `HitAnswer` borrowing it end before `push_window`;
        // held across it, every one-client round deep-copied its shards.
        // An exact hit never reaches the Window, so it finishes in here.
        let (mut pruned, profile) = {
            self.gc_clock = Some(Instant::now());
            let snapshot = self.cache.shared.load_snapshot();
            let probe = self.exact_probe(&snapshot);
            if let Some(entry) = probe.hits.exact.and_then(|s| snapshot.entry(s)) {
                return Ok(self.exact_hit(entry));
            }
            self.checkpoint()?;
            let features = self.enumerate();
            self.checkpoint()?;
            let candidates = self.m_filter(&features);
            self.checkpoint()?;
            let (cs_m, hits) = self.sweep(&snapshot, probe, &features, candidates);
            self.checkpoint()?;
            let pruned = self.prune(&snapshot, &cs_m, &hits);
            (pruned, features.into_profile(QUERY_INDEX_SHAPE.work_cap))
        };
        self.checkpoint()?;
        let fragments = self.narrow_by_fragments(&mut pruned);
        self.checkpoint()?;
        let answer = self.verify(&pruned);
        // No checkpoint from here on: credit is the first change to cache
        // state, so an aborted query leaves none.
        self.credit_miss(&pruned, fragments);
        self.observe_admission();
        self.record.maintenance = self.push_window(profile, &answer);
        Ok(answer)
    }

    /// The one deadline checkpoint: `Err` once the request's deadline has
    /// passed. It reads the clock only when the request has a deadline.
    fn checkpoint(&self) -> Result<(), Aborted> {
        if processors::deadline_expired(&self.opts) {
            Err(Aborted)
        } else {
            Ok(())
        }
    }

    /// Finishes an aborted query: the answer is empty, the record is marked
    /// `deadline_exceeded` and `truncated` and keeps the counters of the
    /// stages that ran, and no cache state has changed (no credit, no
    /// admission observation, no Window push).
    fn abort(&mut self) -> Vec<GraphId> {
        self.stop_gc_clock();
        self.record.deadline_exceeded = true;
        self.record.truncated = true;
        Vec::new()
    }

    /// Closes the open `gc_filter` interval, if there is one.
    fn stop_gc_clock(&mut self) {
        if let Some(start) = self.gc_clock.take() {
            self.record.gc_filter += start.elapsed();
        }
    }

    /// Copies what hit detection found so far into the record.
    fn record_hits(&mut self, hits: &HitSet) {
        self.record.sub_hits = hits.sub.len();
        self.record.super_hits = hits.super_.len();
        self.record.gc_tests = hits.tests;
        self.record.budget_spent = hits.work;
        self.record.truncated = hits.truncated;
        self.record.exact_via_fingerprint = hits.exact_via_fingerprint;
    }

    /// Stage 1, the exact probe: hashes the query and confirms the cached
    /// queries of its fingerprint, kind and size (`processors::exact_probe`)
    /// — the paper's first special case, which "completely avoid[s] any
    /// further processing": no path enumeration, no Method M filter, no
    /// sweep.
    fn exact_probe(&mut self, snapshot: &CacheSnapshot) -> ExactProbe {
        self.fingerprint = iso_hash(self.query);
        let matcher = self.method.matcher().as_ref();
        let probe = processors::exact_probe(
            snapshot,
            self.query,
            self.kind,
            self.fingerprint,
            matcher,
            &self.opts,
        );
        self.record_hits(&probe.hits);
        probe
    }

    /// Finishes an exact hit on `entry`: copies its answer, credits it
    /// (R = the answer size floored at 1, C = the memoised saving) and lets
    /// the admission policy observe it. It never enters the Window.
    fn exact_hit(&mut self, entry: &CacheEntry) -> Vec<GraphId> {
        let answer = entry.answer.clone();
        let saving = self.exact_saving(entry);
        self.stop_gc_clock();
        self.record.exact_hit = true;
        self.record.answer_size = answer.len();
        self.credit([(entry.serial, answer.len().max(1) as u64, saving)]);
        self.observe_admission();
        answer
    }

    /// The saving one exact hit on `entry` is credited with. The entire
    /// candidate set is avoided, but it is never computed on that path
    /// (that is the point of the special case), so the contribution is
    /// estimated from the cached answer set — the sub-iso tests that would
    /// certainly have run. The estimate reads only the query's node count,
    /// which an isomorphic query shares with the entry, so the sum is the
    /// entry's own and is computed on its first exact hit.
    fn exact_saving(&self, entry: &CacheEntry) -> f64 {
        *entry.exact_saving.get_or_init(|| {
            let dataset = self.method.dataset();
            let saved: f64 = entry
                .answer
                .iter()
                .map(|&id| cost::estimate(&entry.graph, dataset.graph(id)))
                .sum();
            saved.max(1.0)
        })
    }

    /// Stage 2: enumerates the query's path features once, for Method M's
    /// filter, the sweep and the Window entry, each of which reads it
    /// within its own work cap. Closes the probe's `gc_filter` interval.
    fn enumerate(&mut self) -> PathEnumeration {
        let features = enumerate_query(self.query, self.cache.miss_work_cap());
        self.stop_gc_clock();
        features
    }

    /// Stage 3: Method M's filter, on the shared enumeration. It runs
    /// before the sweep, so the sweep tests only the hits that can prune
    /// its candidates (`docs/architecture.md` says why, against Fig. 2's
    /// side-by-side dispatch).
    fn m_filter(&mut self, features: &PathEnumeration) -> Vec<GraphId> {
        let m = self
            .method
            .filter_with(self.query, self.kind, Some(features));
        self.record.m_filter = m.duration;
        self.record.cs_m_size = m.candidates.len();
        m.candidates
    }

    /// Stage 4: the hit sweep over Method M's candidates, continuing the
    /// probe's budget pool (`processors::sweep`). Returns the candidates
    /// as CS_M with the hits.
    fn sweep(
        &mut self,
        snapshot: &CacheSnapshot,
        probe: ExactProbe,
        features: &PathEnumeration,
        candidates: Vec<GraphId>,
    ) -> (IdSet, HitSet) {
        self.gc_clock = Some(Instant::now());
        let cs_m = IdSet::from_sorted(candidates, self.method.dataset().len());
        let hit_query = processors::HitQuery {
            query: self.query,
            kind: self.kind,
            profile: features.within(QUERY_INDEX_SHAPE.work_cap),
            fingerprint: self.fingerprint,
        };
        let matcher = self.method.matcher().as_ref();
        let hits = processors::sweep(snapshot, &hit_query, probe, &cs_m, matcher, &self.opts);
        self.stop_gc_clock();
        self.record_hits(&hits);
        (cs_m, hits)
    }

    /// Stage 5: prunes CS_M by the hits' answers, equations (1) and (2).
    fn prune(&mut self, snapshot: &CacheSnapshot, cs_m: &IdSet, hits: &HitSet) -> PruneResult {
        let (expanding, restricting) = pruner::sides(self.kind, hits);
        let answers_of = |serials: &[QuerySerial]| -> Vec<HitAnswer<'_>> {
            serials
                .iter()
                .filter_map(|s| {
                    snapshot.entry(*s).map(|e| HitAnswer {
                        serial: *s,
                        answer: &e.answer,
                    })
                })
                .collect()
        };
        let pruned = pruner::prune(cs_m, &answers_of(expanding), &answers_of(restricting));
        self.record.cs_gc_size = pruned.remaining.len();
        pruned
    }

    /// Stage 6: intersects the remaining candidates with the exact
    /// occurrence sets of the query's cached fragments — sound because
    /// every answer contains every fragment of the query. Subgraph queries
    /// only, and never on a truncated fragment set (decomposition past its
    /// work cap). Returns what stage 8 credits to the fragments used.
    fn narrow_by_fragments(&mut self, pruned: &mut PruneResult) -> Option<FragmentCredit> {
        if self.kind != QueryKind::Subgraph
            || !matches!(pruned.outcome, PruneOutcome::Pruned)
            || pruned.remaining.is_empty()
        {
            return None;
        }
        let frags = self.cache.shared.fragments.as_ref()?;
        let probe = frags.probe(&frags.query_keys(self.query)?);
        self.record.fragment_probes = probe.probes;
        self.record.fragment_hits = probe.hit_ids.len() as u64;
        let narrowed = idset::intersect(&pruned.remaining, probe.intersection.as_ref()?);
        let removed = (pruned.remaining.len() - narrowed.len()) as u64;
        self.record.fragment_pruned = removed;
        let dataset = self.method.dataset();
        let credit = (!probe.hit_ids.is_empty()).then(|| {
            let saved: f64 = idset::difference(&pruned.remaining, &narrowed)
                .iter()
                .map(|&id| cost::estimate(self.query, dataset.graph(id)))
                .sum();
            (probe.hit_ids, removed, saved)
        });
        pruned.remaining = narrowed;
        self.record.cs_gc_size = pruned.remaining.len();
        credit
    }

    /// Stage 7: Method M's verifier over what pruning left, or nothing
    /// when the second special case emptied the answer.
    fn verify(&mut self, pruned: &PruneResult) -> Vec<GraphId> {
        let answer = match pruned.outcome {
            PruneOutcome::EmptyShortcut(_) => {
                self.record.empty_shortcut = true;
                Vec::new()
            }
            PruneOutcome::Pruned => {
                let v = self
                    .method
                    .verify_directed(self.query, &pruned.remaining, self.kind);
                self.record.verify = v.duration;
                self.record.subiso_tests = v.stats.tests;
                self.record.verify_work = v.stats.nodes_expanded;
                idset::union(&pruned.direct_answer, &v.answer)
            }
        };
        self.record.answer_size = answer.len();
        answer
    }

    /// Stage 8 on a miss: credits the fragments the narrowing used, then
    /// every pruning contribution (paper §5.2). A hit that removed no
    /// candidate earns a hit and a last-hit serial, but no `R` and no `C`.
    fn credit_miss(&self, pruned: &PruneResult, fragments: Option<FragmentCredit>) {
        if let (Some(frags), Some((ids, removed, saved))) =
            (&self.cache.shared.fragments, fragments)
        {
            frags.credit(&ids, removed, saved, self.record.serial);
        }
        if pruned.contributions.is_empty() {
            return;
        }
        let dataset = self.method.dataset();
        self.credit(pruned.contributions.iter().map(|c| {
            let saved = if c.removed.is_empty() {
                0.0
            } else {
                c.removed
                    .iter()
                    .map(|&id| cost::estimate(self.query, dataset.graph(id)))
                    .sum()
            };
            (c.serial, c.removed.len() as u64, saved)
        }));
    }

    /// Credits `(serial, R, C)` rows to the statistics, then tells the
    /// eviction policy of each row that found its entry. The two locks are
    /// never held together: the statistics lock is released first.
    fn credit(&self, rows: impl IntoIterator<Item = (QuerySerial, u64, f64)>) {
        let now = self.record.serial;
        let mut credited: Vec<(QuerySerial, f64)> = Vec::new();
        {
            let mut stats = self.cache.shared.stats.lock();
            for (serial, removed, saved) in rows {
                if stats.credit(serial, now, removed, saved) {
                    credited.push((serial, saved));
                }
            }
        }
        if !credited.is_empty() {
            let mut eviction = self.cache.shared.eviction.lock();
            for (serial, saved) in credited {
                eviction.on_hit(serial, now, saved);
            }
        }
    }

    /// Stage 9: feeds the executed query — exact hit or miss — to the
    /// admission policy. Its expensiveness (§6.2) is the matcher work
    /// Method M's verification spent on it (see [`crate::admission`]); its
    /// benefit is the answer size for an exact hit (the whole verification
    /// avoided) and the candidates pruning removed otherwise.
    fn observe_admission(&self) {
        let record = &self.record;
        let benefit = if record.exact_hit {
            record.answer_size.max(1) as f64
        } else {
            record.cs_m_size.saturating_sub(record.cs_gc_size) as f64
        };
        let mut admission = self.cache.shared.admission.lock();
        admission.observe(record.verify_work as f64, benefit);
    }

    /// Stage 10: adds the missed query to the Window and, when that fills
    /// it, runs the maintenance round on this thread. Returns the round's
    /// time (zero when the Window is not full yet).
    fn push_window(&self, profile: PathProfile, answer: &[GraphId]) -> Duration {
        // The entry is assembled before taking the window lock so the
        // critical section is a bare Vec push — concurrent queries must
        // not convoy on copy work that needs no synchronisation.
        let entry = WindowEntry {
            serial: self.record.serial,
            graph: self.query.clone(), // Arc clone — no graph copy
            answer: answer.to_vec(),
            kind: self.kind,
            profile,
            fingerprint: self.fingerprint,
            expensiveness: self.record.verify_work as f64,
        };
        let shared = &self.cache.shared;
        let batch = {
            let mut window = shared.window.lock();
            window.push(entry);
            if window.len() < self.cache.cfg.window {
                return Duration::ZERO;
            }
            std::mem::take(&mut *window)
        };
        // The batch is flushed outside the window lock so concurrent
        // queries keep accumulating while maintenance runs.
        window::maintain(
            shared,
            self.cache.cfg.capacity,
            batch,
            shared.current_serial(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphCache, QueryRequest};
    use gc_graph::{GraphDataset, LabeledGraph};
    use gc_methods::{MethodBuilder, QueryKind};
    use std::time::Duration;

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    /// A first-sight query whose deadline has already passed stops at the
    /// checkpoint after the exact probe, which finds no entry of its
    /// fingerprint and so never reads the clock itself: Method M's filter
    /// and the sweep never run, and no cache state moves.
    #[test]
    fn past_deadline_miss_aborts_before_method_m_filter() {
        let dataset = GraphDataset::new(vec![
            path_graph(&[0, 1, 0, 1, 0]),
            path_graph(&[0, 1, 2, 1, 0]),
            path_graph(&[3, 3]),
        ]);
        let gc = GraphCache::builder()
            .capacity(10)
            .window(3)
            .build(MethodBuilder::ggsx().build(&dataset));
        for q in [&[0, 1, 0, 1][..], &[1, 2], &[3, 3], &[2, 1, 0]] {
            gc.run(&path_graph(q)); // a round after the third, one pending
        }
        assert_eq!((gc.cache_len(), gc.window_len()), (3, 1));
        let q = path_graph(&[0, 1, 0]);
        let cs_m = gc.method().filter_directed(&q, QueryKind::Subgraph);
        assert!(!cs_m.candidates.is_empty());
        let rows = gc.stats_rows();

        let late = gc
            .execute(QueryRequest::new(q.clone()).timeout_ms(0))
            .result;
        let record = &late.record;
        assert!(record.deadline_exceeded && record.truncated);
        assert!(late.answer.is_empty() && !record.exact_hit);
        assert_eq!(record.m_filter, Duration::ZERO);
        assert_eq!((record.cs_m_size, record.gc_tests), (0, 0));
        assert_eq!(gc.window_len(), 1);
        assert_eq!(gc.stats_rows(), rows);
        assert_eq!(gc.check_invariants(), Ok(()));

        let on_time = gc.run(&q);
        assert!(!on_time.record.deadline_exceeded);
        assert_eq!(on_time.record.cs_m_size, cs_m.candidates.len());
        assert_eq!(on_time.answer, gc.method().run(&q).answer);
    }
}

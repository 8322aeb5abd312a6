//! The GraphCache handle: the query execution front end (paper §4, Fig. 2).
//!
//! [`GraphCache`] is a shared, thread-safe query *service*: `run`,
//! [`GraphCache::execute`] and [`GraphCache::run_batch`] all take `&self`,
//! so any number of threads can query one cache instance concurrently.
//! Handles are cheaply cloneable — every clone shares the same cache
//! stores, statistics and Window. The query path itself is
//! [`crate::query`]'s pipeline.

use crate::admission::AdmissionPolicy;
use crate::config::{effective_shards, GcConfig, GraphCacheBuilder};
use crate::fragments::FragmentState;
use crate::metrics::MaintStats;
use crate::policy::{EvictionPolicy, PolicyRow};
use crate::processors;
use crate::query::enumerate_query;
use crate::query_index::QUERY_INDEX_SHAPE;
use crate::request::{QueryRequest, QueryResponse, QueryResult};
use crate::stats::QuerySerial;
use crate::window::Shared;
use gc_graph::LabeledGraph;
use gc_methods::{Method, QueryKind};
use parking_lot::Mutex;
use std::sync::Arc;

/// The GraphCache service: a semantic cache wrapped around a Method M,
/// shared by any number of client threads.
///
/// All query entry points take `&self`; snapshot reads are a lock-free
/// `Arc` clone, and the per-query mutable state (Window buffer, serial
/// counter, statistics) sits behind fine-grained locks in
/// [`crate::window`] / [`crate::stats`]. Clone the handle to hand the same
/// cache to other threads, or share one instance behind an `Arc` — both
/// work, and `std::thread::scope` can borrow a single instance directly.
///
/// See the crate docs for an end-to-end example, and
/// [`run_batch`](GraphCache::run_batch) for fan-out over a thread pool.
#[derive(Clone)]
pub struct GraphCache {
    pub(crate) method: Arc<Method>,
    pub(crate) cfg: GcConfig,
    pub(crate) shared: Arc<Shared>,
}

impl GraphCache {
    /// Starts building a cache with the paper's default configuration.
    pub fn builder() -> GraphCacheBuilder {
        GraphCacheBuilder::default()
    }

    /// The one constructor, behind [`GraphCacheBuilder::try_build`]. The
    /// fragment layer is only instantiated when `cfg.fragments` asks for
    /// it.
    pub(crate) fn assemble(
        method: Method,
        cfg: GcConfig,
        eviction: Box<dyn EvictionPolicy>,
        admission: Box<dyn AdmissionPolicy>,
        fragment_eviction: Box<dyn EvictionPolicy>,
    ) -> Self {
        let method = Arc::new(method);
        let fragments = cfg
            .fragments
            .then(|| FragmentState::new(cfg.fragment, method.clone(), fragment_eviction));
        let shared = Arc::new(Shared::new(
            effective_shards(&cfg),
            eviction,
            admission,
            fragments,
            method.matcher().clone(),
        ));
        GraphCache {
            method,
            cfg,
            shared,
        }
    }

    /// The wrapped Method M.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The effective configuration.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// The active eviction policy's canonical name (e.g. `"hd"`, `"slru"`).
    pub fn eviction_name(&self) -> String {
        self.shared.eviction.lock().name().to_string()
    }

    /// The active admission policy's canonical name (e.g. `"none"`).
    pub fn admission_name(&self) -> String {
        self.shared.admission.lock().name().to_string()
    }

    /// The admission policy's current threshold, when it has one.
    pub fn admission_threshold(&self) -> Option<f64> {
        self.shared.admission.lock().threshold()
    }

    /// The fragment store's eviction policy name, when the fragment layer
    /// is enabled (e.g. `Some("lru")`).
    pub fn fragment_eviction_name(&self) -> Option<String> {
        self.shared
            .fragments
            .as_ref()
            .map(|f| f.eviction.lock().name().to_string())
    }

    /// Number of fragments currently cached (0 when the layer is off).
    pub fn fragment_store_len(&self) -> usize {
        self.shared
            .fragments
            .as_ref()
            .map_or(0, |f| f.store.lock().len())
    }

    /// The worker-thread count [`run_batch`](Self::run_batch) fans out to.
    pub fn batch_threads(&self) -> usize {
        self.cfg.threads.max(1)
    }

    /// The number of snapshot shards this cache maintains.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of queries currently cached.
    pub fn cache_len(&self) -> usize {
        self.shared.load_snapshot().len()
    }

    /// Number of missed queries waiting in the Window.
    pub fn window_len(&self) -> usize {
        self.shared.window.lock().len()
    }

    /// Cumulative maintenance: rounds and their total time (Fig. 10's
    /// overhead metric), the victim selection, index delta and
    /// statistics-upkeep durations, plus entries touched, shards patched
    /// and compactions (see [`MaintStats`]).
    pub fn maint_stats(&self) -> MaintStats {
        self.shared.maint_stats()
    }

    /// Approximate memory footprint of the cache stores (entries + query
    /// indexes + statistics + the pending Window buffer + the fragment
    /// store when enabled), for the §7.3 space-overhead comparison. The
    /// Window buffer counts because its queries hold graphs, answers and
    /// profiles that only the cache retains — omitting them would
    /// understate the overhead, and the fragment store counts for the
    /// same reason.
    pub fn memory_bytes(&self) -> usize {
        let pending: usize = self
            .shared
            .window
            .lock()
            .iter()
            .map(|e| e.memory_bytes())
            .sum();
        let fragments = self
            .shared
            .fragments
            .as_ref()
            .map_or(0, |f| f.memory_bytes());
        self.shared.load_snapshot().memory_bytes()
            + self.shared.stats.lock().memory_bytes()
            + pending
            + fragments
    }

    /// Every cached entry's statistics row — the hits, last hit, `R` and
    /// `C` the replacement policies read — sorted by serial (diagnostics).
    pub fn stats_rows(&self) -> Vec<PolicyRow> {
        self.shared.stats.lock().rows()
    }

    /// Does nothing: every maintenance round runs on the thread of the
    /// query that fills the Window, so none is ever pending. Its only
    /// caller is the `perf/src/replay.rs` benchmark.
    #[doc(hidden)]
    pub fn flush_pending(&self) {}

    /// Executes one query with cache-wide defaults (Fig. 2's data flow)
    /// and returns the answer with full metrics.
    ///
    /// Takes `&self`: any number of threads may call `run` on the same
    /// instance concurrently.
    ///
    /// ```
    /// use gc_core::GraphCache;
    /// use gc_graph::{GraphDataset, LabeledGraph};
    /// use gc_methods::MethodBuilder;
    ///
    /// let dataset = GraphDataset::new(vec![LabeledGraph::from_parts(
    ///     vec![0, 1, 0],
    ///     &[(0, 1), (1, 2)],
    /// )]);
    /// let method = MethodBuilder::ggsx().build(&dataset);
    /// let cache = GraphCache::builder().capacity(10).window(4).build(method);
    ///
    /// let query = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
    /// let first = cache.run(&query);
    /// let repeat = cache.run(&query); // exact repeat: served by the cache
    /// assert_eq!(first.answer, repeat.answer);
    /// assert!(repeat.record.exact_hit || !repeat.record.any_hit());
    /// ```
    pub fn run(&self, query: &LabeledGraph) -> QueryResult {
        // The one unavoidable copy on this borrowed-graph entry point: the
        // graph is shared from here on (the Window and the cache entry
        // take Arc clones).
        self.run_cached(&QueryRequest::new(query.clone()))
    }

    /// Executes one typed request, honouring its per-query overrides.
    pub fn execute(&self, request: QueryRequest) -> QueryResponse {
        self.execute_ref(&request)
    }

    /// Executes a batch of requests, fanning them across
    /// [`batch_threads`](Self::batch_threads) worker threads. Responses
    /// are returned in input order.
    ///
    /// Answers are identical to running the requests sequentially — the
    /// only observable differences are serial-number assignment order and
    /// which queries happen to benefit from which cached entries.
    pub fn run_batch(
        &self,
        requests: impl IntoIterator<Item = QueryRequest>,
    ) -> Vec<QueryResponse> {
        let requests: Vec<QueryRequest> = requests.into_iter().collect();
        let workers = self.batch_threads().min(requests.len());
        if workers <= 1 {
            return requests.iter().map(|r| self.execute_ref(r)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut responses: Vec<Option<QueryResponse>> = Vec::new();
        responses.resize_with(requests.len(), || None);
        let slots = Mutex::new(&mut responses);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let next = &next;
                let slots = &slots;
                let requests = &requests;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let resp = self.execute_ref(&requests[i]);
                    slots.lock()[i] = Some(resp);
                });
            }
        });
        responses
            .into_iter()
            .map(|r| r.expect("every batch slot filled"))
            .collect()
    }

    fn execute_ref(&self, request: &QueryRequest) -> QueryResponse {
        let result = if request.bypass_cache {
            self.run_uncached(request)
        } else {
            self.run_cached(request)
        };
        QueryResponse {
            tag: request.tag,
            bypassed_cache: request.bypass_cache,
            result,
        }
    }

    /// Enumerates the `(serial, entry fingerprint)` pairs the
    /// hit-verification sweep would consider for `query` — a pure read
    /// with no matcher tests, no serial consumption and no statistics
    /// side effects (see
    /// [`processors::candidate_serials`](crate::candidate_serials)).
    ///
    /// This is the cache half of the routed-fleet `PROBE` frame: each peer
    /// enumerates its candidates, keeps the slice of the fingerprint space
    /// it owns, and the router merges the slices into
    /// [`QueryRequest::allow_serials`] for the executing peer.
    pub fn probe_candidates(
        &self,
        query: &LabeledGraph,
        kind: Option<QueryKind>,
    ) -> Vec<(QuerySerial, u64)> {
        let kind = kind.unwrap_or(self.cfg.query_kind);
        let snapshot = self.shared.load_snapshot();
        let profile = enumerate_query(query, QUERY_INDEX_SHAPE.work_cap).profile;
        let hit_query = processors::HitQuery::new(query, kind, &profile);
        processors::candidate_serials(&snapshot, &hit_query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CacheEntry;
    use crate::invariants::InvariantClause;
    use crate::GcConfig;
    use gc_graph::GraphDataset;
    use gc_graph::GraphId;
    use gc_index::paths::PathEnumeration;
    use gc_methods::MethodBuilder;
    use gc_subiso::cost;
    use std::time::Duration;

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            path_graph(&[0, 1, 0, 1, 0]),
            path_graph(&[0, 1, 2, 1, 0]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            path_graph(&[3, 3]),
        ])
    }

    fn cache() -> GraphCache {
        let method = MethodBuilder::ggsx().build(&dataset());
        GraphCache::builder().capacity(10).window(2).build(method)
    }

    /// The statistics row of `serial`, if it has one.
    fn stats_row(gc: &GraphCache, serial: QuerySerial) -> Option<PolicyRow> {
        gc.stats_rows().into_iter().find(|r| r.serial == serial)
    }

    #[test]
    fn answers_match_baseline() {
        let d = dataset();
        let method = MethodBuilder::ggsx().build(&d);
        let gc = cache();
        let queries = [
            path_graph(&[0, 1]),
            path_graph(&[0, 1, 0]),
            path_graph(&[0, 1]), // exact repeat
            path_graph(&[1, 0, 1]),
            path_graph(&[9, 9]),
            path_graph(&[0, 1, 2]),
        ];
        for q in &queries {
            let expected = method.run(q).answer;
            let got = gc.run(q).answer;
            assert_eq!(got, expected, "query {q:?}");
        }
    }

    #[test]
    fn exact_hit_skips_verification() {
        let gc = cache();
        let q = path_graph(&[0, 1, 0]);
        let first = gc.run(&q);
        assert!(!first.record.exact_hit);
        assert!(first.record.subiso_tests > 0);
        // Window flushes after 2 queries; run one filler then repeat.
        gc.run(&path_graph(&[0, 1]));
        let repeat = gc.run(&q);
        assert!(repeat.record.exact_hit, "second run must be an exact hit");
        assert_eq!(repeat.record.subiso_tests, 0);
        assert_eq!(repeat.answer, first.answer);
    }

    #[test]
    fn empty_shortcut_fires() {
        // A hexagon and a long path of one label hold every path feature
        // of a triangle with a pendant node, but no triangle.
        let ring = LabeledGraph::from_parts(
            vec![0; 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let d = GraphDataset::new(vec![ring, path_graph(&[0; 9])]);
        let gc = GraphCache::builder()
            .capacity(10)
            .window(2)
            .build(MethodBuilder::ggsx().build(&d));
        let triangle = LabeledGraph::from_parts(vec![0; 3], &[(0, 1), (1, 2), (2, 0)]);
        assert!(gc.run(&triangle).answer.is_empty());
        // Flush the window: the empty query is cached. A superset query
        // whose filter keeps candidates must terminate via the empty
        // shortcut.
        gc.run(&path_graph(&[0, 0]));
        let superset = LabeledGraph::from_parts(vec![0; 4], &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let r2 = gc.run(&superset);
        assert!(r2.answer.is_empty());
        assert!(
            r2.record.cs_m_size > 0,
            "Method M's filter keeps candidates"
        );
        assert!(r2.record.empty_shortcut, "second special case must fire");
        assert_eq!(r2.record.subiso_tests, 0);
    }

    /// A query Method M's filter empties needs no hit: the sweep runs no
    /// test, and the second special case has nothing left to shortcut.
    #[test]
    fn empty_cs_m_runs_no_gc_test() {
        let gc = cache();
        assert!(gc.run(&path_graph(&[3, 3, 3])).answer.is_empty());
        gc.run(&path_graph(&[0, 1])); // round: the empty query is cached
        let r = gc.run(&path_graph(&[3, 3, 3, 3]));
        assert!(r.answer.is_empty());
        assert_eq!(r.record.cs_m_size, 0);
        assert_eq!(
            (r.record.gc_tests, r.record.sub_hits, r.record.super_hits),
            (0, 0, 0)
        );
        assert!(!r.record.empty_shortcut);
        assert_eq!(stats_row(&gc, 1).map(|row| row.hits), Some(0));
    }

    #[test]
    fn sub_hit_prunes_candidates() {
        let gc = cache();
        // Cache a large query first.
        let big = path_graph(&[0, 1, 0, 1]);
        gc.run(&big);
        gc.run(&path_graph(&[2, 1])); // flush window
        assert_eq!(gc.cache_len(), 2);
        // Smaller query contained in the cached one.
        let small = path_graph(&[0, 1, 0]);
        let r = gc.run(&small);
        assert!(r.record.sub_hits > 0, "cached superset must be found");
        assert!(
            r.record.cs_gc_size < r.record.cs_m_size,
            "pruning must shrink the candidate set"
        );
    }

    #[test]
    fn cache_capacity_bounded() {
        let method = MethodBuilder::ggsx().build(&dataset());
        let gc = GraphCache::builder().capacity(3).window(1).build(method);
        for i in 0..10u32 {
            // Distinct queries (varying labels) to avoid exact hits.
            let q = path_graph(&[i % 4, (i + 1) % 4]);
            gc.run(&q);
        }
        assert!(gc.cache_len() <= 3);
    }

    #[test]
    fn stats_credited_on_hits() {
        let gc = cache();
        let big = path_graph(&[0, 1, 0, 1]);
        let r_big = gc.run(&big);
        gc.run(&path_graph(&[2, 1]));
        let small = path_graph(&[0, 1, 0]);
        gc.run(&small);
        let row = stats_row(&gc, r_big.serial).expect("cached");
        assert!(row.hits >= 1, "cached query must be credited");
        assert!(row.r_total >= 1);
        assert!(row.c_total > 0.0);
    }

    /// The credit rule PIN (`R`), PINC and HD (`C`) and LRU/POP (hits,
    /// last hit) read, on concrete serials: a containment that could not
    /// prune Method M's candidates is never tested, so it earns nothing
    /// (a tested hit whose removals earlier hits already made earns a hit
    /// and a last-hit serial but no `R` and no `C`); an exact hit adds its
    /// answer size floored at 1 to `R` and its memoised saving, floored at
    /// 1.0, to `C`.
    #[test]
    fn credit_rule_is_what_the_policies_see() {
        let gc = cache();
        // Serial 1: a path longer than every dataset graph — empty answer.
        let long = path_graph(&[0, 1, 0, 1, 0, 1]);
        let edge = path_graph(&[3, 3]);
        assert!(gc.run(&long).answer.is_empty());
        assert_eq!(gc.run(&edge).answer, vec![GraphId(3)]); // serial 2; round
        let admitted = |serial| PolicyRow {
            serial,
            last_hit: serial,
            hits: 0,
            r_total: 0,
            c_total: 0.0,
        };
        assert_eq!(gc.stats_rows(), vec![admitted(1), admitted(2)]);

        // Serial 3 is contained in entry 1, whose empty answer could
        // remove nothing from Method M's candidates: the sweep does not
        // test it, so it is no hit and earns neither a hit nor a last-hit
        // serial.
        let r3 = gc.run(&path_graph(&[0, 1, 0]));
        assert_eq!(
            (r3.serial, r3.record.sub_hits, r3.record.gc_tests),
            (3, 0, 0)
        );
        assert_eq!(stats_row(&gc, 1), Some(admitted(1)));

        // Serial 4 repeats entry 2: R += 1 answer, C += its saving.
        assert!(gc.run(&edge).record.exact_hit);
        let saving = cost::estimate(&edge, gc.method().dataset().graph(GraphId(3))).max(1.0);
        assert_eq!(
            stats_row(&gc, 2),
            Some(PolicyRow {
                last_hit: 4,
                hits: 1,
                r_total: 1,
                c_total: saving,
                ..admitted(2)
            })
        );

        // Serial 5 repeats entry 1: an empty answer still counts 1 in R
        // and the 1.0 floor in C.
        assert!(gc.run(&long).record.exact_hit);
        assert_eq!(
            stats_row(&gc, 1),
            Some(PolicyRow {
                last_hit: 5,
                hits: 1,
                r_total: 1,
                c_total: 1.0,
                ..admitted(1)
            })
        );
        assert_eq!(gc.check_invariants(), Ok(()));
    }

    #[test]
    fn supergraph_mode_answers() {
        let d = dataset();
        let method = MethodBuilder::si_vf2().build(&d);
        let baseline = MethodBuilder::si_vf2().build(&d);
        let gc = GraphCache::builder()
            .capacity(10)
            .window(2)
            .query_kind(QueryKind::Supergraph)
            .build(method);
        // Big query containing the 3-3 edge graph (graph id 3).
        let queries = [
            path_graph(&[3, 3, 3, 3]),
            path_graph(&[3, 3, 3]),
            path_graph(&[3, 3]),
            path_graph(&[0, 1, 0, 1, 0]),
            path_graph(&[3, 3, 3, 3]),
        ];
        for q in &queries {
            let expected = baseline.run_directed(q, QueryKind::Supergraph).answer;
            let got = gc.run(q).answer;
            assert_eq!(got, expected, "supergraph query {q:?}");
        }
    }

    #[test]
    fn memory_accounting() {
        let gc = cache();
        gc.run(&path_graph(&[0, 1]));
        gc.run(&path_graph(&[0, 1, 0]));
        assert!(gc.memory_bytes() > 0);
        assert_eq!(gc.window_len(), 0, "window flushed at W=2");
        assert!(gc.config().capacity == 10);
        assert_eq!(gc.method().name(), "GGSX");
    }

    #[test]
    fn memory_accounting_includes_pending_window() {
        let method = MethodBuilder::ggsx().build(&dataset());
        let gc = GraphCache::builder().capacity(10).window(10).build(method);
        let before = gc.memory_bytes();
        gc.run(&path_graph(&[0, 1]));
        assert_eq!(gc.window_len(), 1, "query still pending in the window");
        assert_eq!(gc.cache_len(), 0, "no maintenance round yet");
        assert!(
            gc.memory_bytes() > before,
            "pending window entries must count toward the space overhead"
        );
    }

    #[test]
    fn request_overrides_kind_per_query() {
        let d = dataset();
        let baseline = MethodBuilder::si_vf2().build(&d);
        let gc = GraphCache::builder()
            .capacity(10)
            .window(2)
            .build(MethodBuilder::si_vf2().build(&d));
        // Cache-wide default is Subgraph; this request flips direction.
        let q = path_graph(&[3, 3, 3]);
        let resp = gc.execute(
            QueryRequest::new(q.clone())
                .kind(QueryKind::Supergraph)
                .tag(9),
        );
        assert_eq!(resp.tag, 9);
        assert!(!resp.bypassed_cache);
        assert_eq!(
            resp.result.answer,
            baseline.run_directed(&q, QueryKind::Supergraph).answer
        );
        // The default direction still applies to plain runs.
        assert_eq!(gc.run(&q).answer, baseline.run(&q).answer);
    }

    #[test]
    fn bypass_cache_skips_window_and_stats() {
        let gc = cache();
        let q = path_graph(&[0, 1]);
        let resp = gc.execute(QueryRequest::new(q.clone()).bypass_cache(true));
        assert!(resp.bypassed_cache);
        assert_eq!(gc.window_len(), 0, "bypassed query never enters the window");
        assert_eq!(gc.cache_len(), 0);
        // Answers still correct, and a serial was consumed.
        let baseline = MethodBuilder::ggsx().build(&dataset());
        assert_eq!(resp.result.answer, baseline.run(&q).answer);
        assert!(resp.result.serial >= 1);
        let cached = gc.run(&q);
        assert!(cached.serial > resp.result.serial);
    }

    #[test]
    fn run_batch_matches_sequential_answers() {
        let d = dataset();
        let baseline = MethodBuilder::ggsx().build(&d);
        let gc = GraphCache::builder()
            .capacity(10)
            .window(2)
            .threads(4)
            .build(MethodBuilder::ggsx().build(&d));
        let queries: Vec<LabeledGraph> = (0..24)
            .map(|i| match i % 4 {
                0 => path_graph(&[0, 1]),
                1 => path_graph(&[0, 1, 0]),
                2 => path_graph(&[1, 2]),
                _ => path_graph(&[0, 1, 2]),
            })
            .collect();
        let requests: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryRequest::from(q).tag(i as u64))
            .collect();
        let responses = gc.run_batch(requests);
        assert_eq!(responses.len(), queries.len());
        for (i, (resp, q)) in responses.iter().zip(&queries).enumerate() {
            assert_eq!(resp.tag, i as u64, "input order preserved");
            assert_eq!(resp.result.answer, baseline.run(q).answer, "query {i}");
        }
        // All serials distinct.
        let mut serials: Vec<u64> = responses.iter().map(|r| r.result.serial).collect();
        serials.sort_unstable();
        serials.dedup();
        assert_eq!(serials.len(), queries.len());
    }

    #[test]
    fn cloned_handles_share_the_cache() {
        let gc = cache();
        let clone = gc.clone();
        clone.run(&path_graph(&[0, 1]));
        clone.run(&path_graph(&[0, 1, 0])); // flush at W=2
        assert_eq!(gc.cache_len(), 2, "clone's queries visible via original");
        let r = gc.run(&path_graph(&[0, 1]));
        assert!(r.record.exact_hit, "original sees clone's cached query");
    }

    #[test]
    fn fragment_layer_prunes_and_stays_sound() {
        let d = dataset();
        let baseline = MethodBuilder::si_vf2().build(&d);
        // vf2 has no filter index, so CS_M is the whole dataset — exactly
        // the regime where fragment occurrence sets have room to prune.
        let gc = GraphCache::builder()
            .capacity(10)
            .window(1)
            .fragments(true)
            .build(MethodBuilder::si_vf2().build(&d));
        // q1 populates the fragment store on its maintenance round.
        let q1 = path_graph(&[0, 1, 0, 1]);
        let r1 = gc.run(&q1);
        assert_eq!(r1.answer, baseline.run(&q1).answer);
        assert!(gc.fragment_store_len() > 0, "q1's fragments cached");
        assert_eq!(gc.fragment_eviction_name().as_deref(), Some("lru"));
        // q2 shares the [1,0,1] fragment with q1 but is neither a sub- nor
        // a supergraph of it, so only the fragment layer can prune.
        let q2 = path_graph(&[1, 0, 1, 2]);
        let r2 = gc.run(&q2);
        assert_eq!(r2.answer, baseline.run(&q2).answer);
        assert!(r2.record.fragment_probes > 0, "fragments probed");
        assert!(r2.record.fragment_hits > 0, "shared fragment found");
        assert!(
            r2.record.fragment_pruned > 0,
            "occurrence intersection must shrink the candidate set"
        );
        assert!(r2.record.cs_gc_size < r2.record.cs_m_size);
        let maint = gc.maint_stats();
        assert!(maint.fragments_built > 0);
        assert!(gc.memory_bytes() > 0);
    }

    #[test]
    fn fragment_layer_off_reports_no_fragment_counters() {
        let gc = cache();
        let r = gc.run(&path_graph(&[0, 1, 0]));
        assert_eq!(r.record.fragment_probes, 0);
        assert_eq!(r.record.fragment_hits, 0);
        assert_eq!(r.record.fragment_pruned, 0);
        assert_eq!(gc.fragment_store_len(), 0);
        assert_eq!(gc.fragment_eviction_name(), None);
    }

    fn sharded_cache(window: usize) -> GraphCache {
        GraphCache::builder()
            .capacity(64)
            .window(window)
            .shards(4)
            .build(MethodBuilder::ggsx().build(&dataset()))
    }

    fn shard_ptrs(gc: &GraphCache) -> Vec<*const crate::entry::Shard> {
        gc.shared
            .shards
            .iter()
            .map(|lock| Arc::as_ptr(&*lock.read()))
            .collect()
    }

    /// With one client, a round that `run` triggers patches every shard in
    /// place: the query's own snapshot view is gone before the round starts.
    /// Only misses fill the Window, so an exact repeat inside a round
    /// neither counts toward it nor closes it.
    #[test]
    fn single_client_round_patches_shards_in_place() {
        let gc = sharded_cache(3);
        let rounds = [
            vec![
                path_graph(&[0, 1]),
                path_graph(&[0, 1, 0]),
                path_graph(&[1, 2]),
            ],
            // The second query repeats one the first round cached.
            vec![
                path_graph(&[0, 1, 2]),
                path_graph(&[1, 0]),
                path_graph(&[3, 3]),
                path_graph(&[2, 1, 0, 1]),
            ],
        ];
        for (i, queries) in rounds.iter().enumerate() {
            let before = shard_ptrs(&gc);
            let patched_before = gc.maint_stats().shards_patched;
            let results: Vec<QueryResult> = queries.iter().map(|q| gc.run(q)).collect();
            let exact: Vec<bool> = results.iter().map(|r| r.record.exact_hit).collect();
            assert_eq!(
                exact,
                (0..queries.len())
                    .map(|k| i == 1 && k == 1)
                    .collect::<Vec<_>>()
            );
            assert_eq!(gc.maint_stats().rounds, i as u64 + 1);
            assert_eq!(gc.cache_len(), 3 * (i + 1), "round {i} admitted its window");
            assert!(gc.maint_stats().shards_patched > patched_before);
            assert_eq!(before, shard_ptrs(&gc), "round {i} copied a shard");
            for r in &results {
                let snapshot = gc.shared.load_snapshot();
                match snapshot.entry(r.serial) {
                    Some(entry) => assert_eq!(entry.answer, r.answer),
                    None => assert!(r.record.exact_hit, "a miss is admitted"),
                }
            }
            assert_eq!(gc.check_invariants(), Ok(()));
        }
    }

    /// A view held across a round — what another client's query in flight
    /// holds — forces copy-on-write of
    /// exactly the patched shards, keeps serving its own epoch, and the
    /// live cache serves the new one (paper §6.2, per shard).
    #[test]
    fn held_view_forces_copy_on_write_and_keeps_its_epoch() {
        let gc = sharded_cache(2);
        gc.run(&path_graph(&[0, 1, 0, 1]));
        gc.run(&path_graph(&[0, 1, 2])); // round 1

        let probe = path_graph(&[0, 1]);
        let view = gc.shared.load_snapshot();
        let before = shard_ptrs(&gc);
        let candidates_before = view.candidate_serials(&probe);
        let answers_before: Vec<(QuerySerial, Vec<GraphId>)> = view
            .iter_entries()
            .map(|e| (e.serial, e.answer.clone()))
            .collect();
        assert_eq!(answers_before.len(), 2);

        let a = gc.run(&path_graph(&[0, 1, 0]));
        let b = gc.run(&path_graph(&[0, 1, 0, 1, 0])); // round 2, view still held
        assert_eq!(gc.maint_stats().rounds, 2);

        let after = shard_ptrs(&gc);
        let n = gc.shard_count();
        let touched = [
            crate::entry::shard_for(a.serial, n),
            crate::entry::shard_for(b.serial, n),
        ];
        for i in 0..n {
            assert_eq!(
                before[i] != after[i],
                touched.contains(&i),
                "shard {i}: copied iff the round patched it"
            );
        }

        // The held view is its own epoch: same candidates, same answers,
        // and the round's admissions are invisible to it.
        assert_eq!(view.candidate_serials(&probe), candidates_before);
        let answers_now: Vec<(QuerySerial, Vec<GraphId>)> = view
            .iter_entries()
            .map(|e| (e.serial, e.answer.clone()))
            .collect();
        assert_eq!(answers_now, answers_before);
        assert!(view.entry(a.serial).is_none() && view.entry(b.serial).is_none());

        // The live cache serves the post-round state.
        let live = gc.shared.load_snapshot();
        assert_eq!(live.len(), 4);
        assert_eq!(live.entry(a.serial).unwrap().answer, a.answer);
        assert_eq!(live.entry(b.serial).unwrap().answer, b.answer);
        let (sub_now, _) = live.candidate_serials(&probe);
        assert!(
            sub_now.contains(&a.serial) && sub_now.contains(&b.serial),
            "both new entries contain the probe"
        );
        let (sub_then, _) = candidates_before;
        assert!(!sub_then.contains(&a.serial));
        drop(view);
        assert_eq!(gc.check_invariants(), Ok(()));
    }

    /// The per-entry exact-hit saving is computed on the first exact hit,
    /// read on the next, and is the sum an exact hit has always credited:
    /// one estimate per answer id, in answer order, floored at 1.
    #[test]
    fn exact_hit_saving_is_memoised_and_bit_identical() {
        let gc = cache();
        let q = path_graph(&[0, 1]);
        let first = gc.run(&q);
        gc.run(&path_graph(&[0, 1, 2])); // flush at W=2
        let entry = gc
            .shared
            .load_snapshot()
            .entry(first.serial)
            .unwrap()
            .clone();
        assert_eq!(entry.exact_saving.get(), None, "not computed at admission");

        let expected = first
            .answer
            .iter()
            .map(|&id| cost::estimate(&q, gc.method().dataset().graph(id)))
            .sum::<f64>()
            .max(1.0);
        assert!(gc.run(&q).record.exact_hit);
        assert_eq!(entry.exact_saving.get(), Some(&expected));
        assert!(gc.run(&q).record.exact_hit);
        let row = stats_row(&gc, first.serial).expect("cached");
        assert_eq!(row.c_total, expected + expected);
        assert_eq!(row.hits, 2);
    }

    #[test]
    fn check_invariants_reports_statistics_rows_out_of_step() {
        let gc = cache();
        let first = gc.run(&path_graph(&[0, 1]));
        gc.run(&path_graph(&[0, 1, 0])); // flush at W=2
        assert_eq!(gc.check_invariants(), Ok(()));
        gc.shared.stats.lock().remove_row(first.serial);
        let v = gc.check_invariants().unwrap_err();
        assert_eq!(v.clause, InvariantClause::StatsRows);
        assert_eq!(v.shard, None);
        gc.shared.stats.lock().admit(first.serial);
        gc.shared.stats.lock().admit(9_999);
        assert_eq!(
            gc.check_invariants().unwrap_err().clause,
            InvariantClause::StatsRows,
            "orphan row"
        );
    }

    /// The defaults resolve like any spec: HD
    /// replacement, every miss admitted.
    #[test]
    fn default_policies_are_hd_and_admit_all() {
        let gc = GraphCache::builder().build(MethodBuilder::ggsx().build(&dataset()));
        assert_eq!(gc.eviction_name(), "hd");
        assert_eq!(gc.admission_name(), "none");
        assert_eq!(gc.admission_threshold(), None);
    }

    #[test]
    fn defaults_do_not_read_the_machine() {
        assert_eq!(GcConfig::default().threads, 1);
        assert_eq!(GcConfig::default().shards, 0);
        let gc = GraphCache::builder().build(MethodBuilder::ggsx().build(&dataset()));
        assert_eq!(gc.batch_threads(), 1);
        assert_eq!(gc.shard_count(), 1, "0 shards = one per client thread");
    }

    #[test]
    fn exact_hit_never_runs_mfilter_and_a_miss_reports_its_candidates() {
        let gc = cache();
        let q = path_graph(&[0, 1, 0]);
        let miss = gc.run(&q);
        assert!(!miss.record.exact_hit);
        let filtered = gc.method().filter_directed(&q, QueryKind::Subgraph);
        assert_eq!(miss.record.cs_m_size, filtered.candidates.len());
        gc.run(&path_graph(&[0, 1])); // flush the window at W=2
        let hit = gc.run(&q);
        assert!(hit.record.exact_hit);
        assert_eq!(hit.record.m_filter, Duration::ZERO);
        assert_eq!(hit.record.cs_m_size, 0);
    }

    /// A repeat credits the resident entry and stops: it never enters the
    /// Window, never runs a round, never adds an entry or a byte — only the
    /// entry's statistics move.
    #[test]
    fn exact_hit_never_enters_the_window() {
        let gc = cache();
        let q = path_graph(&[0, 1, 0]);
        let first = gc.run(&q);
        gc.run(&path_graph(&[0, 1])); // flush at W=2
        assert!(gc.run(&q).record.exact_hit);
        let (window, rounds) = (gc.window_len(), gc.maint_stats().rounds);
        let (len, bytes) = (gc.cache_len(), gc.memory_bytes());
        let admitted = gc.maint_stats().entries_admitted;
        for _ in 0..100 {
            let r = gc.run(&q);
            assert!(r.record.exact_hit);
            assert_eq!(r.record.maintenance, Duration::ZERO);
            assert_eq!(r.answer, first.answer);
        }
        assert_eq!(gc.window_len(), window);
        assert_eq!(gc.maint_stats().rounds, rounds);
        assert_eq!(gc.maint_stats().entries_admitted, admitted);
        assert_eq!(gc.cache_len(), len);
        assert_eq!(gc.memory_bytes(), bytes);
        assert_eq!(stats_row(&gc, first.serial).map(|r| r.hits), Some(101));
        assert_eq!(gc.check_invariants(), Ok(()));
    }

    /// Two node-permuted copies of a new query miss inside one window (the
    /// first is not cached yet when the second runs); the round admits the
    /// first and drops the second, so the query occupies one entry.
    #[test]
    fn first_sight_duplicates_in_one_window_admit_once() {
        let method = MethodBuilder::ggsx().build(&dataset());
        let gc = GraphCache::builder().capacity(10).window(3).build(method);
        let triangle =
            |labels: [u32; 3]| LabeledGraph::from_parts(labels.to_vec(), &[(0, 1), (1, 2), (2, 0)]);
        let a = gc.run(&triangle([0, 1, 2]));
        let b = gc.run(&triangle([2, 0, 1]));
        assert!(!a.record.exact_hit && !b.record.exact_hit, "both miss");
        assert_eq!(a.answer, b.answer);
        gc.run(&path_graph(&[3, 3])); // closes the window
        assert_eq!(gc.maint_stats().rounds, 1);
        assert_eq!(gc.maint_stats().entries_admitted, 2);
        assert_eq!(gc.cache_len(), 2);
        let snapshot = gc.shared.load_snapshot();
        assert!(snapshot.entry(a.serial).is_some() && snapshot.entry(b.serial).is_none());
        drop(snapshot);
        assert_eq!(stats_row(&gc, b.serial), None, "no row for the copy");
        let r = gc.run(&triangle([1, 2, 0]));
        assert!(r.record.exact_hit);
        assert_eq!(stats_row(&gc, a.serial).map(|r| r.hits), Some(1));
        assert_eq!(gc.check_invariants(), Ok(()));
    }

    /// The exact probe runs under the request's budget pool and deadline:
    /// a zero pool cannot pay for the confirmation (the repeat is answered
    /// by Method M, truncated, and the round's dedup keeps it out of the
    /// cache), and a deadline already past aborts before any side effect.
    #[test]
    fn exact_path_honours_zero_budget_and_past_deadline() {
        let gc = cache();
        let q = path_graph(&[0, 1, 0]);
        let first = gc.run(&q);
        gc.run(&path_graph(&[0, 1])); // flush at W=2

        let late = gc.execute(QueryRequest::new(q.clone()).timeout_ms(0));
        assert!(late.result.record.deadline_exceeded);
        assert!(!late.result.record.exact_hit);
        assert!(late.result.answer.is_empty());
        assert_eq!(
            stats_row(&gc, first.serial).map(|r| (r.hits, r.last_hit)),
            Some((0, first.serial)),
            "no credit"
        );
        assert_eq!(gc.window_len(), 0);

        let broke = gc.execute(QueryRequest::new(q.clone()).verify_budget(0));
        let record = &broke.result.record;
        assert!(record.truncated && !record.exact_hit && !record.exact_via_fingerprint);
        assert_eq!(record.budget_spent, 0);
        assert_eq!(broke.result.answer, first.answer);
        gc.run(&path_graph(&[1, 2])); // closes the window the miss entered
        assert_eq!(gc.maint_stats().rounds, 2);
        assert_eq!(gc.cache_len(), 3, "the resident copy is not admitted twice");
        assert!(gc
            .shared
            .load_snapshot()
            .entry(broke.result.serial)
            .is_none());
        assert_eq!(gc.check_invariants(), Ok(()));
    }

    /// The shared-profile overflow rule: one enumeration per miss, under the
    /// larger of the query index's and GGSX's work caps, gives the GC sweep,
    /// Method M's filter and the Window entry exactly what enumerating
    /// under each one's own cap gives — for queries within both caps, past
    /// the query index's only and past both, in both directions. A Method M
    /// with no path filter (an SI method) shares the query index's cap. The
    /// query index's cap is [`QUERY_INDEX_SHAPE`]'s (5 million enumeration
    /// steps) and GGSX's is its default (20 million), so the last two
    /// classes are a label-0 24-clique and a label-0 31-clique.
    #[test]
    fn one_enumeration_per_miss_matches_separate_enumerations() {
        use crate::query_index::Probe;
        use gc_index::GgsxConfig;
        let clique = |n: u32| {
            let edges: Vec<(u32, u32)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            LabeledGraph::from_parts(vec![0; n as usize], &edges)
        };
        let queries = [
            path_graph(&[0, 1]),
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[0, 1, 2, 1, 0]),
            clique(24),
            clique(31),
        ];
        let work: Vec<u64> = queries
            .iter()
            .map(|q| PathEnumeration::new(q, 4, u64::MAX).work)
            .collect();
        let index_cap = QUERY_INDEX_SHAPE.work_cap;
        let ggsx_cap = GgsxConfig::default().work_cap;
        assert!(
            work[0] < work[1]
                && work[1] < work[2]
                && work[2] < index_cap
                && index_cap < work[3]
                && work[3] < ggsx_cap
                && ggsx_cap < work[4],
            "{work:?}"
        );
        for (builder, expected_cap) in [
            (MethodBuilder::ggsx as fn() -> MethodBuilder, ggsx_cap),
            (MethodBuilder::si_vf2, index_cap),
        ] {
            let d = dataset();
            let method = builder().build(&d);
            let reference = builder().build(&d);
            let b = GraphCache::builder().capacity(10).window(1);
            let gc = b.build(method);
            let shared_cap = gc.miss_work_cap();
            assert_eq!(shared_cap, expected_cap);
            // Admit every query (W = 1), so the index holds one entry per
            // overflow class, then probe with each.
            for q in &queries {
                assert_eq!(gc.run(q).answer, reference.run(q).answer);
            }
            assert_eq!(gc.cache_len(), queries.len());
            let snapshot = gc.shared.load_snapshot();
            for q in &queries {
                let shared = enumerate_query(q, shared_cap);
                let own = snapshot.profile_of(q);
                let (qn, qm) = (q.node_count() as u32, q.edge_count() as u32);
                for shard in snapshot.shards() {
                    let a = shard.candidates(&Probe::new(shared.within(index_cap), (qn, qm)));
                    let b = shard.candidates(&Probe::new(&own, (qn, qm)));
                    assert_eq!(
                        (a.sub, a.super_),
                        (b.sub, b.super_),
                        "GC candidates of {q:?}"
                    );
                }
                for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                    assert_eq!(
                        gc.method().filter_with(q, kind, Some(&shared)).candidates,
                        reference.filter_directed(q, kind).candidates,
                        "CS_M of {q:?} ({kind:?}, {})",
                        reference.name()
                    );
                }
                assert_eq!(shared.into_profile(index_cap), own);
            }
            assert_eq!(gc.check_invariants(), Ok(()));
        }
    }

    /// The duplicates clause: an isomorphic copy of a live entry, inserted
    /// straight into a shard (bypassing the Window's dedup), is reported.
    #[test]
    fn check_invariants_reports_isomorphic_duplicates() {
        let gc = cache();
        let first = gc.run(&path_graph(&[0, 1, 2]));
        gc.run(&path_graph(&[0, 1])); // flush at W=2
        assert_eq!(gc.check_invariants(), Ok(()));
        let copy = Arc::new(path_graph(&[2, 1, 0]));
        let profile = enumerate_query(&copy, QUERY_INDEX_SHAPE.work_cap).profile;
        let entry = CacheEntry::new(99, copy, first.answer, QueryKind::Subgraph, profile);
        Arc::make_mut(&mut *gc.shared.shards[0].write()).insert(Arc::new(entry));
        let v = gc.check_invariants().unwrap_err();
        assert_eq!(v.clause, InvariantClause::Duplicates);
        assert_eq!(v.shard, None);
        assert!(v.detail.contains(&first.serial.to_string()) && v.detail.contains("99"));
    }
}

//! The GraphCache system: query execution front end (paper §4, Fig. 2).
//!
//! [`GraphCache`] is a shared, thread-safe query *service*: `run`,
//! [`GraphCache::execute`] and [`GraphCache::run_batch`] all take `&self`,
//! so any number of threads can query one cache instance concurrently.
//! Handles are cheaply cloneable — every clone shares the same cache
//! stores, statistics and Window.

use crate::admission::AdmissionPolicy;
use crate::entry::CacheEntry;
use crate::fragments::FragmentState;
use crate::invariants::{ensure, InvariantClause, InvariantViolation};
use crate::metrics::{MaintStats, QueryRecord};
use crate::policy::{EvictionPolicy, PolicyRow};
use crate::processors;
use crate::pruner::{self, HitAnswer, PruneOutcome};
use crate::query_index::QUERY_INDEX_SHAPE;
use crate::registry::{self, PolicyError};
use crate::stats::QuerySerial;
use crate::window::{self, MaintMsg, Shared, WindowEntry};
use gc_fragments::FragmentConfig;
use gc_graph::{idset, GraphId, LabeledGraph};
use gc_index::fingerprint::iso_hash;
use gc_index::paths::{PathEnumeration, PathProfile, PathShape};
use gc_methods::{Method, QueryKind};
use gc_subiso::cost;
use parking_lot::Mutex;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunable parameters of a [`GraphCache`] instance. Defaults mirror the
/// paper's evaluation setup (§7.1): C = 100, W = 20. The replacement and
/// admission policies are picked by registry name on the builder
/// ([`GraphCacheBuilder::eviction`], default `"hd"`;
/// [`GraphCacheBuilder::admission`], default `"none"`).
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Cache capacity C in entries (paper default: 100).
    ///
    /// The builder clamps this to at least 1 (see
    /// [`GraphCacheBuilder::capacity`]); constructing a [`GcConfig`] by
    /// hand with `capacity == 0` is not meaningful and unsupported.
    pub capacity: usize,
    /// Window size W (paper default: 20): a maintenance round runs once W
    /// *missed* queries — the admission candidates — have accumulated. An
    /// exact hit is already cached; it credits its entry and never enters
    /// the Window, so it does not count toward W.
    ///
    /// The builder clamps this to at least 1 (see
    /// [`GraphCacheBuilder::window`]); `window == 0` is unsupported.
    pub window: usize,
    /// Subgraph or supergraph query semantics. Individual requests may
    /// override this per query ([`QueryRequest::kind`]).
    pub query_kind: QueryKind,
    /// Shared verification work pool per query — the one bound on hit
    /// verification: hit-candidate tests are verified cheapest-first, each
    /// is clipped to what is left of the pool and deducts its matcher work
    /// (`nodes_expanded`); when it runs dry the sweep stops with a partial
    /// (still sound) hit set and the query is marked
    /// [`truncated`](crate::QueryRecord::truncated). It caps the query's
    /// total hit-detection spend so one candidate-heavy query cannot burn
    /// more matcher work than a cache hit could ever save (paper §5).
    /// `None` = unbounded. Individual requests may override this
    /// ([`QueryRequest::verify_budget`]).
    pub verify_budget: Option<u64>,
    /// Run the Window Manager on a background thread (the paper's design);
    /// `false` runs maintenance inline for deterministic tests.
    pub background: bool,
    /// Client concurrency: worker threads used by
    /// [`GraphCache::run_batch`], and nothing else. The default `1` replays
    /// a batch in input order, which makes every counter a pure function
    /// of the inputs; `0` is treated as `1`.
    pub threads: usize,
    /// Number of cache shards (serial-hashed snapshot partitions; see
    /// [`crate::entry`]). A maintenance round patches only the shards its
    /// victim/admit delta touches, and concurrent readers pin shards
    /// independently. `0` (the default) means one shard per client thread
    /// ([`threads`](Self::threads)), clamped to 64 — so one shard unless
    /// the caller asks for more of either.
    pub shards: usize,
    /// Enable the sub-query fragment cache: queries are decomposed into
    /// canonical path fragments whose *exact* occurrence sets, cached
    /// across queries, intersect-prune the candidate set before
    /// verification — a fourth hit class alongside exact/sub/super.
    /// Sound because intersection with an exact occurrence superset only
    /// removes non-answers. Off by default.
    pub fragments: bool,
    /// Fragment-layer knobs (decomposition bounds, per-round build cap,
    /// byte budget). Only consulted when [`fragments`](Self::fragments)
    /// is on.
    pub fragment: FragmentConfig,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            capacity: 100,
            window: 20,
            query_kind: QueryKind::Subgraph,
            verify_budget: None,
            background: false,
            threads: 1,
            shards: 0,
            fragments: false,
            fragment: FragmentConfig::default(),
        }
    }
}

/// Builder for [`GraphCache`].
///
/// Policies are picked by registry spec string
/// ([`eviction`](Self::eviction), [`admission`](Self::admission),
/// [`fragment_eviction`](Self::fragment_eviction)); a custom policy is
/// registered first with [`registry::register_eviction`] or
/// [`registry::register_admission`]. Name resolution happens at build
/// time: [`try_build`](Self::try_build) surfaces unknown names as a
/// [`PolicyError`], while [`build`](Self::build) panics on them.
///
/// ```
/// use gc_core::GraphCache;
/// use gc_graph::{GraphDataset, LabeledGraph};
/// use gc_methods::MethodBuilder;
///
/// let dataset = GraphDataset::new(vec![LabeledGraph::from_parts(
///     vec![0, 1],
///     &[(0, 1)],
/// )]);
/// let method = MethodBuilder::ggsx().build(&dataset);
/// let cache = GraphCache::builder()
///     .capacity(50)
///     .window(10)
///     .eviction("gcr")
///     .admission("adaptive")
///     .try_build(method)
///     .expect("policy names resolve");
/// assert_eq!(cache.eviction_name(), "hd"); // "gcr" is the paper's alias for HD
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphCacheBuilder {
    cfg: GcConfig,
    eviction_spec: Option<String>,
    admission_spec: Option<String>,
    fragment_eviction_spec: Option<String>,
}

impl GraphCacheBuilder {
    /// Cache capacity C (entries).
    ///
    /// A capacity of `0` would make every admission round evict the whole
    /// batch it just admitted, so the value is silently clamped to at
    /// least 1 — `capacity(0)` builds a one-entry cache. This clamp is
    /// part of the API contract and mirrored on [`GcConfig::capacity`].
    pub fn capacity(mut self, c: usize) -> Self {
        self.cfg.capacity = c.max(1);
        self
    }

    /// Window size W: cache misses per maintenance round (exact hits do
    /// not count; see [`GcConfig::window`]).
    ///
    /// A window of `0` would never trigger a maintenance round (no query
    /// could ever be admitted), so the value is silently clamped to at
    /// least 1 — `window(0)` flushes after every miss. This clamp is part
    /// of the API contract and mirrored on [`GcConfig::window`].
    pub fn window(mut self, w: usize) -> Self {
        self.cfg.window = w.max(1);
        self
    }

    /// Replacement policy by registry name (default `"hd"`, the paper's
    /// recommendation), e.g. `.eviction("gcr")`,
    /// `.eviction("slru:protected=0.5")`. Any name in [`crate::registry`]
    /// — built-in or registered by the application — is accepted; the name
    /// is resolved at build time ([`try_build`](Self::try_build) reports
    /// unknown names, [`build`](Self::build) panics on them).
    pub fn eviction(mut self, spec: impl Into<String>) -> Self {
        self.eviction_spec = Some(spec.into());
        self
    }

    /// Admission policy by registry name (default `"none"`: admit every
    /// miss), e.g. `.admission("adaptive")` or the paper's calibrated
    /// threshold, `.admission("threshold:windows=3,fraction=0.25")`.
    /// Resolved at build time like [`eviction`](Self::eviction).
    pub fn admission(mut self, spec: impl Into<String>) -> Self {
        self.admission_spec = Some(spec.into());
        self
    }

    /// Query semantics (subgraph vs supergraph).
    pub fn query_kind(mut self, k: QueryKind) -> Self {
        self.cfg.query_kind = k;
        self
    }

    /// Per-query verification work pool for hit detection (see
    /// [`GcConfig::verify_budget`]).
    pub fn verify_budget(mut self, budget: u64) -> Self {
        self.cfg.verify_budget = Some(budget);
        self
    }

    /// Background (true) vs inline (false) window maintenance.
    pub fn background(mut self, bg: bool) -> Self {
        self.cfg.background = bg;
        self
    }

    /// Worker threads for [`GraphCache::run_batch`] (default 1 = replay in
    /// input order).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Number of cache shards (0 = one per client thread).
    /// More shards mean smaller maintenance patches and less reader/writer
    /// interference; the shard count is fixed for the cache's lifetime.
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.shards = n;
        self
    }

    /// Enables (or disables) the sub-query fragment cache (see
    /// [`GcConfig::fragments`]).
    pub fn fragments(mut self, on: bool) -> Self {
        self.cfg.fragments = on;
        self
    }

    /// Byte budget of the fragment store (see
    /// [`FragmentConfig::budget_bytes`]).
    pub fn fragment_budget(mut self, bytes: usize) -> Self {
        self.cfg.fragment.budget_bytes = bytes;
        self
    }

    /// Full fragment-layer configuration (decomposition bounds, build
    /// cap, byte budget) — the fine-grained alternative to
    /// [`fragment_budget`](Self::fragment_budget).
    pub fn fragment_config(mut self, cfg: FragmentConfig) -> Self {
        self.cfg.fragment = cfg;
        self
    }

    /// Eviction policy for the *fragment* store by registry name (default
    /// `"lru"`), e.g. `.fragment_eviction("slru")` or
    /// `.fragment_eviction("greedy-dual")`. Resolved at build time like
    /// [`eviction`](Self::eviction); the spec is validated even when the
    /// fragment layer is disabled, so configuration errors surface
    /// regardless of the `fragments` switch.
    pub fn fragment_eviction(mut self, spec: impl Into<String>) -> Self {
        self.fragment_eviction_spec = Some(spec.into());
        self
    }

    /// Builds the cache in front of `method`.
    ///
    /// # Panics
    /// If a registry spec passed to [`eviction`](Self::eviction) /
    /// [`admission`](Self::admission) does not resolve — use
    /// [`try_build`](Self::try_build) to handle that as an error instead.
    pub fn build(self, method: Method) -> GraphCache {
        self.try_build(method)
            .unwrap_or_else(|e| panic!("GraphCacheBuilder: {e}"))
    }

    /// Builds the cache, reporting unresolvable policy specs as a
    /// [`PolicyError`] (whose message lists the available names). Unset
    /// specs resolve to their defaults through the registry: `"hd"`,
    /// `"none"`, and `"lru"` for the fragment store.
    pub fn try_build(self, method: Method) -> Result<GraphCache, PolicyError> {
        let eviction = registry::build_eviction(self.eviction_spec.as_deref().unwrap_or("hd"))?;
        let admission =
            registry::build_admission(self.admission_spec.as_deref().unwrap_or("none"))?;
        let fragment_eviction =
            registry::build_eviction(self.fragment_eviction_spec.as_deref().unwrap_or("lru"))?;
        Ok(GraphCache::assemble(
            method,
            self.cfg,
            QUERY_INDEX_SHAPE,
            eviction,
            admission,
            fragment_eviction,
        ))
    }
}

/// Outcome of one query through GraphCache.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query's serial number.
    pub serial: QuerySerial,
    /// The answer set (sorted dataset graph ids).
    pub answer: Vec<GraphId>,
    /// Everything measured about the execution.
    pub record: QueryRecord,
}

/// A typed query submission: the query graph plus per-query overrides of
/// the cache-wide defaults.
///
/// ```
/// use gc_core::QueryRequest;
/// use gc_graph::LabeledGraph;
/// use gc_methods::QueryKind;
///
/// let g = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
/// let req = QueryRequest::new(g)
///     .kind(QueryKind::Supergraph)
///     .tag(7);
/// assert_eq!(req.tag, 7);
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query graph. Held behind an `Arc` so building requests from an
    /// already-shared graph — and cloning/moving requests across batch
    /// worker threads — never deep-copies the graph.
    pub graph: Arc<LabeledGraph>,
    /// Per-query override of [`GcConfig::query_kind`].
    pub kind: Option<QueryKind>,
    /// Per-query override of the shared verification work pool
    /// ([`GcConfig::verify_budget`]).
    pub verify_budget: Option<u64>,
    /// The request's hit budget: stop hit verification once this many hits
    /// have been confirmed (fewer hits only means less pruning — answers
    /// are unaffected). `None` = verify every candidate the budget allows.
    pub max_hits: Option<usize>,
    /// Skip the cache entirely: the query runs through the uncached
    /// Method M and is neither admitted to the Window nor credited in the
    /// statistics. Useful for baselines and for queries known to be
    /// one-off.
    pub bypass_cache: bool,
    /// Wall-clock deadline for this request, in milliseconds from the
    /// moment execution starts. When it expires mid-query the execution
    /// aborts at the next checkpoint: the result comes back with an empty
    /// answer and
    /// [`deadline_exceeded`](crate::QueryRecord::deadline_exceeded) set,
    /// and the query is neither admitted to the Window nor credited in
    /// the statistics (an aborted query must not perturb cache state).
    /// `None` = no deadline.
    pub timeout_ms: Option<u64>,
    /// Restricts the hit-verification sweep to these candidate serials
    /// (see [`VerifyOptions::allowed`](crate::VerifyOptions::allowed)).
    /// Normally set only by the `gc route` front-end, which merges
    /// per-peer [`GraphCache::probe_candidates`] slices into this set.
    /// Restriction only removes candidates, so answers are unaffected —
    /// a missing serial just means less pruning. `None` = no filter.
    pub allow: Option<Vec<QuerySerial>>,
    /// Caller-chosen correlation tag, echoed on the [`QueryResponse`].
    /// Batch submission preserves input order, so the tag is only needed
    /// when responses are routed onward asynchronously.
    pub tag: u64,
}

impl QueryRequest {
    /// A request with cache-wide defaults for every knob.
    pub fn new(graph: impl Into<Arc<LabeledGraph>>) -> Self {
        QueryRequest {
            graph: graph.into(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass_cache: false,
            timeout_ms: None,
            allow: None,
            tag: 0,
        }
    }

    /// Overrides the query direction for this request only.
    pub fn kind(mut self, kind: QueryKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Overrides the shared verification work pool for this request only.
    pub fn verify_budget(mut self, budget: u64) -> Self {
        self.verify_budget = Some(budget);
        self
    }

    /// Caps the number of verified hits for this request (early exit once
    /// the hit budget is satisfied).
    pub fn max_hits(mut self, n: usize) -> Self {
        self.max_hits = Some(n);
        self
    }

    /// Routes this request around the cache (uncached Method M execution).
    pub fn bypass_cache(mut self, bypass: bool) -> Self {
        self.bypass_cache = bypass;
        self
    }

    /// Sets a wall-clock deadline (milliseconds from execution start) for
    /// this request; expiry aborts the query at the next checkpoint.
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Restricts the hit-verification sweep to these candidate serials.
    /// The list is sorted and deduplicated here so the sweep can binary
    /// search it.
    pub fn allow_serials(mut self, mut serials: Vec<QuerySerial>) -> Self {
        serials.sort_unstable();
        serials.dedup();
        self.allow = Some(serials);
        self
    }

    /// Attaches a correlation tag echoed on the response.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

impl From<LabeledGraph> for QueryRequest {
    fn from(graph: LabeledGraph) -> Self {
        QueryRequest::new(graph)
    }
}

impl From<Arc<LabeledGraph>> for QueryRequest {
    fn from(graph: Arc<LabeledGraph>) -> Self {
        QueryRequest::new(graph)
    }
}

impl From<&LabeledGraph> for QueryRequest {
    fn from(graph: &LabeledGraph) -> Self {
        QueryRequest::new(graph.clone())
    }
}

/// Per-query override knobs forwarded from a [`QueryRequest`] into the
/// cached execution path (all `None` on the plain [`GraphCache::run`]).
#[derive(Debug, Clone, Default)]
struct RunOverrides {
    kind: Option<QueryKind>,
    verify_budget: Option<u64>,
    max_hits: Option<usize>,
    deadline: Option<Instant>,
    allowed: Option<Vec<QuerySerial>>,
}

/// What the read phase of a cached query hands to its write phase: owned
/// data only, so nothing of the snapshot view outlives the read phase.
enum ReadOutcome {
    /// An isomorphic cached query answered it outright.
    Exact {
        source: QuerySerial,
        answer: Vec<GraphId>,
        /// The §5.2 saving this hit is credited with (see `credit_exact`).
        saved_cost: f64,
    },
    /// No exact hit: Method M's candidate set after GC pruning, plus the
    /// query's profile and fingerprint for Window admission.
    Miss {
        pruned: pruner::PruneResult,
        profile: PathProfile,
        fingerprint: u64,
    },
}

/// Enumerates a query's path features under the query index's path length
/// and `work_cap` — the query path's one enumeration.
fn enumerate_query(query: &LabeledGraph, shape: PathShape, work_cap: u64) -> PathEnumeration {
    PathEnumeration::new(query, shape.max_len, work_cap)
}

/// A query's record as far as hit detection, which started at `t_gc`,
/// fills it in.
fn hit_record(serial: QuerySerial, t_gc: Instant, hits: &processors::HitSet) -> QueryRecord {
    QueryRecord {
        serial,
        gc_filter: t_gc.elapsed(),
        sub_hits: hits.sub.len(),
        super_hits: hits.super_.len(),
        gc_tests: hits.tests,
        budget_spent: hits.work,
        truncated: hits.truncated,
        exact_via_fingerprint: hits.exact_via_fingerprint,
        ..Default::default()
    }
}

/// True once a request's wall-clock deadline has passed.
fn deadline_past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Finishes a deadline-aborted execution: the record keeps the work
/// counters of the phases that did run (truthful accounting), the answer
/// is empty, and the caller returns without Window admission or
/// statistics credit so the abort leaves cache state untouched.
fn deadline_abort(serial: QuerySerial, mut record: QueryRecord) -> QueryResult {
    record.deadline_exceeded = true;
    record.truncated = true;
    record.answer_size = 0;
    QueryResult {
        serial,
        answer: Vec::new(),
        record,
    }
}

/// Outcome of one [`QueryRequest`]: the wrapped [`QueryResult`] plus
/// request metadata.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The tag of the request that produced this response.
    pub tag: u64,
    /// True when the request asked to bypass the cache.
    pub bypassed_cache: bool,
    /// The execution outcome (serial, answer, metrics).
    pub result: QueryResult,
}

/// What [`GraphCache::restore`] recovered: which snapshot generation it
/// came from and how many entries landed in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Sequence number of the generation the state was loaded from, or
    /// `None` for a manifest-less directory (its flat `snapshot.bin`).
    pub generation: Option<u64>,
    /// Number of entries in the cache after the restore.
    pub entries: usize,
}

/// Owns the background Window Manager thread. Held behind an `Arc` by
/// every cache handle; when the last handle drops, the channel closes and
/// the manager thread is joined.
struct ManagerHandle {
    tx: Option<mpsc::Sender<MaintMsg>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ManagerHandle {
    fn sender(&self) -> &mpsc::Sender<MaintMsg> {
        self.tx.as_ref().expect("manager alive until drop")
    }
}

impl Drop for ManagerHandle {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel so the thread exits
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

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
pub struct GraphCache {
    method: Arc<Method>,
    cfg: GcConfig,
    shared: Arc<Shared>,
    worker: Option<Arc<ManagerHandle>>,
}

impl Clone for GraphCache {
    /// Clones the handle, not the cache: both handles share the same
    /// stores, statistics, Window and background manager.
    fn clone(&self) -> Self {
        GraphCache {
            method: self.method.clone(),
            cfg: self.cfg,
            shared: self.shared.clone(),
            worker: self.worker.clone(),
        }
    }
}

impl GraphCache {
    /// Starts building a cache with the paper's default configuration.
    pub fn builder() -> GraphCacheBuilder {
        GraphCacheBuilder::default()
    }

    /// The one constructor, behind [`GraphCacheBuilder::try_build`]. The
    /// fragment layer is only instantiated when `cfg.fragments` asks for
    /// it.
    fn assemble(
        method: Method,
        cfg: GcConfig,
        index_shape: PathShape,
        eviction: Box<dyn EvictionPolicy>,
        admission: Box<dyn AdmissionPolicy>,
        fragment_eviction: Box<dyn EvictionPolicy>,
    ) -> Self {
        let method = Arc::new(method);
        let fragments = cfg
            .fragments
            .then(|| FragmentState::new(cfg.fragment, method.clone(), fragment_eviction));
        let shared = Arc::new(Shared::new(
            index_shape,
            effective_shards(&cfg),
            eviction,
            admission,
            fragments,
            method.matcher().clone(),
        ));
        let worker = cfg.background.then(|| {
            let (tx, handle) = window::spawn_manager(shared.clone(), cfg.capacity);
            Arc::new(ManagerHandle {
                tx: Some(tx),
                handle: Some(handle),
            })
        });
        GraphCache {
            method,
            cfg,
            shared,
            worker,
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

    /// The active eviction policy's registry name (e.g. `"hd"`, `"slru"`).
    pub fn eviction_name(&self) -> String {
        self.shared.eviction.lock().name().to_string()
    }

    /// The active admission policy's registry name (e.g. `"none"`).
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

    /// Total cache maintenance time so far (Fig. 10's overhead metric).
    pub fn maintenance_total(&self) -> Duration {
        Duration::from_micros(
            self.shared
                .maintenance_us
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Cumulative per-phase maintenance breakdown: victim selection, index
    /// delta and statistics-upkeep durations, plus entries touched, shards
    /// patched and compactions (see [`MaintStats`]).
    pub fn maint_stats(&self) -> MaintStats {
        self.shared.maint_stats()
    }

    /// Per-shard answer-arena utilization as `(bytes_live, bytes_reserved)`
    /// — how much of each shard's answer arena holds live data versus
    /// tombstoned ranges awaiting compaction (diagnostics; surfaced by
    /// `gc query --maint-stats`).
    pub fn arena_utilization(&self) -> Vec<(usize, usize)> {
        self.shared.load_snapshot().arena_utilization()
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

    /// Checks the cache stores against their structural invariant and
    /// returns the first violated clause: per shard, everything
    /// [`Shard::check_invariants`](crate::Shard::check_invariants) covers
    /// (serial and fingerprint maps against the packed columns, the
    /// running tallies and `memory_bytes` against recounts); cache-wide,
    /// that no two live entries of one kind are isomorphic (fingerprint
    /// buckets, a size prefilter, one matcher confirmation per collision)
    /// and that the statistics rows and the live entries are the same
    /// serial set. Queued background maintenance is flushed first and the
    /// check runs under the maintenance lock, so it sees the state between
    /// two rounds, never the middle of one. O(|cache|) — a test and
    /// diagnostics tool, not a query-path call.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.flush_pending();
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

    /// Persists the cache contents and statistics to a directory (paper
    /// §6.1: stores are "written back to disk on shutdown of the Cache
    /// Manager subsystem"). Pending background maintenance is flushed
    /// first; the Window's not-yet-admitted queries are not persisted
    /// (they never reached the cache stores).
    ///
    /// The entry snapshot, statistics rows and serial counter are captured
    /// under the maintenance lock, so a maintenance round racing the save
    /// cannot produce a file whose entries and statistics disagree (an
    /// entry without its rows, or orphan rows for an unsaved entry).
    ///
    /// The save is one `snapshot.bin` generation committed through the
    /// crash-safe staged writer (see [`crate::persist`]). It also captures
    /// every entry's path-feature profile, so a restore under the same
    /// index configuration skips path re-enumeration entirely, and the
    /// dataset's identity, so a restore over another dataset is refused.
    pub fn save(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.flush_pending();
        let dataset = crate::persist::DatasetIdentity::of(self.method.dataset());
        let persisted = {
            let _round = self.shared.maint.lock();
            let snapshot = self.shared.load_snapshot();
            crate::persist::PersistedCache {
                entries: snapshot
                    .iter_entries()
                    .map(|e| {
                        (
                            e.serial,
                            e.graph.as_ref().clone(),
                            e.answer.clone(),
                            e.kind,
                            e.fingerprint,
                        )
                    })
                    .collect(),
                stats: self.shared.stats.lock().clone(),
                next_serial: self.shared.current_serial() + 1,
                policy: Some(self.eviction_name()),
                dataset,
                fragments: self
                    .shared
                    .fragments
                    .as_ref()
                    .map(|f| {
                        f.store
                            .lock()
                            .iter_sorted()
                            .into_iter()
                            .map(|sf| crate::persist::PersistedFragment {
                                key: sf.key,
                                graph: sf.graph.clone(),
                                occs: sf.occs.clone(),
                                hits: sf.hits,
                                last_hit: sf.last_hit,
                                r_total: sf.r_total,
                                c_total: sf.c_total,
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
                profiles: Some(crate::persist::StoredProfiles {
                    shape: self.shared.index_shape,
                    profiles: snapshot.iter_entries().map(|e| e.profile.clone()).collect(),
                }),
            }
        };
        // File IO happens after the lock is released.
        persisted.save(dir)
    }

    /// [`save`](Self::save) under its earlier name. Its only caller is the
    /// `perf/src/replay.rs` benchmark, which a later change moves to
    /// `save`, deleting this and [`PersistFormat`](crate::persist::PersistFormat).
    #[doc(hidden)]
    pub fn save_with_format(
        &self,
        dir: impl AsRef<std::path::Path>,
        _format: crate::persist::PersistFormat,
    ) -> std::io::Result<()> {
        self.save(dir)
    }

    /// Restores a previously saved cache state into this instance (paper
    /// §6.1: stores are "loaded from disk on startup"); the query index is
    /// rebuilt from the loaded entries. A snapshot saved over another
    /// dataset than this cache's method serves, or by an earlier release,
    /// is refused with [`GraphError::Snapshot`](gc_graph::GraphError) and
    /// leaves the cache as it was. Of isomorphic entries of one kind
    /// only the smallest serial is kept; the others are dropped with their
    /// statistics rows (snapshots written while exact repeats were still
    /// re-admitted hold such copies).
    ///
    /// Takes `&self` — restoring into a live service is safe: queued
    /// background maintenance is flushed first, the restore serialises
    /// with maintenance rounds, and each shard swaps atomically under its
    /// own lock. A query racing the restore may assemble a view mixing
    /// pre-restore and restored shards; since every serial routes to
    /// exactly one shard such a view is merely an intermediate cache
    /// state (answers are unaffected — the cache only removes work).
    /// Pre-restore queries still waiting in the Window
    /// are discarded (mirroring [`save`](Self::save), which never
    /// persists them); a maintenance batch already in flight when the
    /// restore lands races it — depending on which acquires the
    /// maintenance lock first, the batch is either discarded with the
    /// pre-restore state or applied on top of the restored snapshot (with
    /// duplicate serials dropped in the restored entries' favour). A query
    /// straddling the swap may briefly pair the new snapshot with
    /// pre-restore statistics, which only affects replacement-policy
    /// bookkeeping, never answers. The serial counter only moves forward
    /// (`max` with the restored value), so in-flight serials stay unique.
    pub fn restore(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<RestoreReport, gc_graph::GraphError> {
        // Generation-aware recovery: when a checksum-valid MANIFEST is
        // present the newest intact generation wins (falling back to the
        // previous one if the newest is damaged); manifest-less
        // directories restore their flat `snapshot.bin`.
        let recovered = crate::persist::PersistedCache::load_resilient(dir)?;
        let generation = recovered.generation;
        let mut loaded = recovered.state;
        loaded.check_dataset(self.method.dataset())?;
        loaded.drop_isomorphic_duplicates(self.method.matcher().as_ref());
        let saved_policy = loaded.policy.clone();
        let saved_fragments = std::mem::take(&mut loaded.fragments);
        // The persisted format carries no shard layout: entries are
        // re-routed into this instance's shard count on load.
        let (snapshot, stats, next_serial) =
            loaded.into_snapshot_sharded(self.shared.index_shape, self.shared.shards.len());
        // Drain queued background batches so none of them (built from the
        // pre-restore snapshot) lands after our swap.
        self.flush_pending();
        let _round = self.shared.maint.lock();
        // Pre-restore queries that never reached a maintenance round are
        // dropped, not merged: their serials could collide with restored
        // entries.
        self.shared.window.lock().clear();
        self.shared.install_snapshot(snapshot);
        *self.shared.stats.lock() = stats;
        self.shared.serial.fetch_max(
            next_serial.saturating_sub(1),
            std::sync::atomic::Ordering::Relaxed,
        );
        // Policy-private state is never persisted, so whatever the policy
        // accumulated in memory describes the *pre-restore* entries — and
        // restored serials can collide with them (both counters start at
        // 0). Reset unconditionally; the snapshot header only decides
        // whether to warn: it records the eviction policy that accumulated
        // the persisted statistics, and restoring those rows under a
        // different policy is worth flagging even though the rows
        // themselves are policy-agnostic. A snapshot that records no
        // policy resets quietly.
        {
            let mut eviction = self.shared.eviction.lock();
            if let Some(saved) = saved_policy.as_deref() {
                if saved != eviction.name() {
                    eprintln!(
                        "gc-core: warning: snapshot was saved under eviction policy \
                         {saved:?} but this cache runs {:?}; resetting policy-private state",
                        eviction.name()
                    );
                }
            }
            eviction.reset();
        }
        // The fragment layer swaps to the persisted fragment set the same
        // way. When this instance runs without the fragment layer,
        // persisted fragments are dropped.
        if let Some(frags) = &self.shared.fragments {
            frags.install(saved_fragments);
        }
        self.shared.recovered_generation.store(
            generation.unwrap_or(0),
            std::sync::atomic::Ordering::Relaxed,
        );
        Ok(RestoreReport {
            generation,
            entries: self.cache_len(),
        })
    }

    /// The generation the cache was last [`restore`](Self::restore)d from,
    /// or `None` when it never restored from a generational snapshot
    /// (fresh cache, or a restore from a manifest-less directory).
    pub fn recovered_generation(&self) -> Option<u64> {
        match self
            .shared
            .recovered_generation
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            0 => None,
            g => Some(g),
        }
    }

    /// Blocks until all queued background maintenance has been applied.
    /// No-op in inline mode.
    pub fn flush_pending(&self) {
        if let Some(worker) = &self.worker {
            let (rtx, rrx) = mpsc::channel();
            if worker.sender().send(MaintMsg::Sync(rtx)).is_ok() {
                let _ = rrx.recv();
            }
        }
    }

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
        self.run_overridden(&Arc::new(query.clone()), RunOverrides::default())
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
            self.run_uncached(
                request.graph.as_ref(),
                request.kind.unwrap_or(self.cfg.query_kind),
            )
        } else {
            self.run_overridden(
                &request.graph,
                RunOverrides {
                    kind: request.kind,
                    verify_budget: request.verify_budget,
                    max_hits: request.max_hits,
                    deadline: request
                        .timeout_ms
                        .map(|ms| Instant::now() + Duration::from_millis(ms)),
                    allowed: request.allow.clone(),
                },
            )
        };
        QueryResponse {
            tag: request.tag,
            bypassed_cache: request.bypass_cache,
            result,
        }
    }

    /// Uncached execution for [`QueryRequest::bypass_cache`]: straight
    /// through Method M, no Window admission, no statistics credit.
    fn run_uncached(&self, query: &LabeledGraph, kind: QueryKind) -> QueryResult {
        let serial = self.shared.next_serial();
        let m = self.method.run_directed(query, kind);
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
        let shape = snapshot.index_shape();
        let profile = enumerate_query(query, shape, shape.work_cap).profile;
        let hit_query = processors::HitQuery::new(query, kind, &profile);
        processors::candidate_serials(&snapshot, &hit_query)
    }

    /// The work cap a miss enumerates its query under: the query index's,
    /// raised to Method M's when its filter reads paths of the same length,
    /// so the one enumeration serves both. With a different length (the
    /// §7.3 ablation) Method M enumerates its own.
    fn miss_work_cap(&self, shape: PathShape) -> u64 {
        match self.method.path_shape() {
            Some(m) if m.max_len == shape.max_len => shape.work_cap.max(m.work_cap),
            _ => shape.work_cap,
        }
    }

    /// The cached query path with optional per-query overrides. The graph
    /// arrives behind an `Arc` so the Window and the eventual cache entry
    /// share it without deep copies.
    fn run_overridden(&self, query: &Arc<LabeledGraph>, ov: RunOverrides) -> QueryResult {
        let serial = self.shared.next_serial();
        let kind = ov.kind.unwrap_or(self.cfg.query_kind);
        let opts = processors::VerifyOptions {
            budget: ov.verify_budget.or(self.cfg.verify_budget),
            max_hits: ov.max_hits,
            deadline: ov.deadline,
            allowed: ov.allowed,
        };
        let matcher = self.method.matcher().as_ref();

        // Read phase: everything that looks at the cache contents runs
        // inside this block, against one snapshot view. The view owns an
        // `Arc` per shard, and a maintenance round patches a shard in place
        // only while nobody else owns that `Arc` (`window::maintain`), so
        // the view — and the `HitQuery` / `HitAnswer` borrows into it —
        // must be gone before `push_window` below can run a round on this
        // thread. Held across it, every round of a one-client workload
        // deep-copied every shard it touched.
        let (mut record, read) = {
            // (2)-(3): the GC processors run before Method M's filter, and
            // the fingerprint probe runs before anything else, so an exact
            // hit costs one hash, one map lookup per shard and one
            // confirmation — the paper's first special case "completely
            // avoid[s] any further processing": no path enumeration, no
            // candidate sweep, no Mfilter.
            let t_gc = Instant::now();
            let snapshot = self.shared.load_snapshot();
            let fingerprint = iso_hash(query);
            let probe =
                processors::exact_probe(&snapshot, query, kind, fingerprint, matcher, &opts);
            if let Some(entry) = probe.hits.exact.and_then(|s| snapshot.entry(s)) {
                // First special case: an isomorphic cached query answers
                // instantly.
                let read = ReadOutcome::Exact {
                    source: entry.serial,
                    answer: entry.answer.clone(),
                    saved_cost: self.exact_saving(entry),
                };
                (hit_record(serial, t_gc, &probe.hits), read)
            } else {
                // Deadline checkpoint, here and after the sweep: hit
                // detection itself timed out. Abort with an empty answer
                // before any cache-state side effect (no Window admission,
                // no statistics credit) — an aborted query must leave the
                // cache exactly as it found it.
                if probe.hits.deadline_exceeded {
                    return deadline_abort(serial, hit_record(serial, t_gc, &probe.hits));
                }
                // The miss path: the query's path features are enumerated
                // here, once, for the candidate sweep across every shard,
                // for Method M's filter and for index patching if the
                // query is later admitted. Each reads the enumeration
                // within its own work cap.
                let shape = snapshot.index_shape();
                let features = enumerate_query(query, shape, self.miss_work_cap(shape));
                let hit_query = processors::HitQuery {
                    query,
                    kind,
                    profile: features.within(shape.work_cap),
                    fingerprint,
                };
                let hits = processors::sweep(&snapshot, &hit_query, probe, matcher, &opts);
                let mut record = hit_record(serial, t_gc, &hits);
                if hits.deadline_exceeded {
                    return deadline_abort(serial, record);
                }

                let m_out = self.method.filter_with(query, kind, Some(&features));
                record.m_filter = m_out.duration;
                record.cs_m_size = m_out.candidates.len();

                // Deadline checkpoint after Method M's filter (the last
                // phase before pruning touches statistics).
                if deadline_past(ov.deadline) {
                    return deadline_abort(serial, record);
                }

                // (4): candidate set pruning via equations (1) and (2).
                let (expanding, restricting) = match kind {
                    QueryKind::Subgraph => (&hits.sub, &hits.super_),
                    QueryKind::Supergraph => (&hits.super_, &hits.sub),
                };
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
                let pruned = pruner::prune(
                    &m_out.candidates,
                    &answers_of(expanding),
                    &answers_of(restricting),
                );
                let read = ReadOutcome::Miss {
                    pruned,
                    profile: features.into_profile(shape.work_cap),
                    fingerprint,
                };
                (record, read)
            }
        };

        let (mut pruned, profile, fingerprint) = match read {
            ReadOutcome::Exact {
                source,
                answer,
                saved_cost,
            } => {
                record.exact_hit = true;
                record.cs_gc_size = 0;
                record.answer_size = answer.len();
                // A repeat credits the resident entry and stops: it is
                // already cached, so it never enters the Window (W counts
                // misses) and never triggers a maintenance round. The
                // admission policy still sees it — it observes every
                // executed query.
                self.credit_exact(source, serial, answer.len(), saved_cost);
                self.observe_admission(&record);
                return QueryResult {
                    serial,
                    answer,
                    record,
                };
            }
            ReadOutcome::Miss {
                pruned,
                profile,
                fingerprint,
            } => (pruned, profile, fingerprint),
        };
        record.cs_gc_size = pruned.remaining.len();

        // (4b): fragment-layer pruning. The query's canonical fragments
        // probe the fragment store; surviving candidates are intersected
        // with each hit fragment's *exact* occurrence set — sound because
        // every answer of the query contains every fragment of the query,
        // so intersection can only remove non-answers. Restricted to
        // subgraph semantics (occurrence sets certify containment of the
        // fragment, which says nothing about supergraph answers), and
        // skipped entirely when decomposition overflowed its work cap: a
        // truncated fragment set is never treated as the whole query's
        // fragments.
        if kind == QueryKind::Subgraph
            && matches!(pruned.outcome, PruneOutcome::Pruned)
            && !pruned.remaining.is_empty()
        {
            if let Some(frags) = &self.shared.fragments {
                if let Some(keys) = frags.query_keys(query) {
                    let probe = frags.probe(&keys);
                    record.fragment_probes = probe.probes;
                    record.fragment_hits = probe.hit_ids.len() as u64;
                    if let Some(occs) = &probe.intersection {
                        let narrowed = idset::intersect(&pruned.remaining, occs);
                        let removed = (pruned.remaining.len() - narrowed.len()) as u64;
                        record.fragment_pruned = removed;
                        if !probe.hit_ids.is_empty() {
                            // Credit the contributing fragments (store
                            // rows + fragment eviction policy), mirroring
                            // the entry-level Statistics Manager: R is the
                            // candidate reduction, C the estimated matcher
                            // work avoided on the removed candidates.
                            let saved: f64 = idset::difference(&pruned.remaining, &narrowed)
                                .iter()
                                .map(|&id| cost::estimate(query, self.method.dataset().graph(id)))
                                .sum();
                            frags.credit(&probe.hit_ids, removed, saved, serial);
                        }
                        pruned.remaining = narrowed;
                        record.cs_gc_size = pruned.remaining.len();
                    }
                }
            }
        }

        // Deadline checkpoint before Mverify — the NP-complete sweep is
        // the phase most likely to blow a latency budget, so it never
        // starts once the deadline has passed. (A test already in flight
        // inside Mverify runs to completion; deadlines are checked between
        // phases and between matcher tests, never inside one.)
        if deadline_past(ov.deadline) {
            return deadline_abort(serial, record);
        }

        // (5): verification of the reduced candidate set by Mverifier.
        let (answer, verify_duration) = match pruned.outcome {
            PruneOutcome::EmptyShortcut(_) => {
                record.empty_shortcut = true;
                (Vec::new(), Duration::ZERO)
            }
            PruneOutcome::Pruned => {
                let v = self.method.verify_directed(query, &pruned.remaining, kind);
                record.subiso_tests = v.stats.tests;
                record.verify_work = v.stats.nodes_expanded;
                let answer = idset::union(&pruned.direct_answer, &v.answer);
                (answer, v.duration)
            }
        };
        record.verify = verify_duration;
        record.answer_size = answer.len();

        // Statistics Manager updates (hit credit per contribution).
        self.credit_contributions(serial, query, &pruned);

        // (6)-(7): window admission and batched cache maintenance.
        self.observe_admission(&record);
        record.maintenance = self.push_window(query, kind, profile, fingerprint, &answer, &record);

        QueryResult {
            serial,
            answer,
            record,
        }
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

    /// Credits an exact hit on `source` with `saved_cost`
    /// ([`exact_saving`](Self::exact_saving)) as `C` and its answer-set
    /// size, floored at 1, as `R`.
    fn credit_exact(
        &self,
        source: QuerySerial,
        now: QuerySerial,
        answer_len: usize,
        saved_cost: f64,
    ) {
        let credited =
            self.shared
                .stats
                .lock()
                .credit(source, now, answer_len.max(1) as u64, saved_cost);
        // The eviction policy observes the hit after the stats lock is
        // released (the two locks are never held together).
        if credited {
            self.shared.eviction.lock().on_hit(source, now, saved_cost);
        }
    }

    /// Credits every pruning contribution (paper §5.2: hit count, last-hit
    /// serial, candidate-set reduction R, estimated time saving C).
    fn credit_contributions(
        &self,
        now: QuerySerial,
        query: &LabeledGraph,
        pruned: &pruner::PruneResult,
    ) {
        if pruned.contributions.is_empty() {
            return;
        }
        let dataset = self.method.dataset();
        let mut hit_events: Vec<(QuerySerial, f64)> = Vec::new();
        {
            let mut stats = self.shared.stats.lock();
            for c in &pruned.contributions {
                // A hit that removed no candidate earns a hit and a last-hit
                // serial, but no `R` and no `C`.
                let saved = if c.removed.is_empty() {
                    0.0
                } else {
                    c.removed
                        .iter()
                        .map(|&id| cost::estimate(query, dataset.graph(id)))
                        .sum()
                };
                if stats.credit(c.serial, now, c.removed.len() as u64, saved) {
                    hit_events.push((c.serial, saved));
                }
            }
        }
        // Eviction-policy hit events fire after the stats lock is released
        // (the two locks are never held together).
        if !hit_events.is_empty() {
            let mut eviction = self.shared.eviction.lock();
            for (serial, saved) in hit_events {
                eviction.on_hit(serial, now, saved);
            }
        }
    }

    /// Feeds one executed query — exact hit or miss — to the admission
    /// policy, as [`AdmissionPolicy::observe`] promises. Its expensiveness
    /// (§6.2) is the matcher work Method M's verification spent on it
    /// (see [`crate::admission`]).
    fn observe_admission(&self, record: &QueryRecord) {
        let expensiveness = record.verify_work as f64;
        // Benefit signal for adaptive admission policies: how much work the
        // cache saved this query. Exact hits avoid the entire verification
        // (proxied by the answer size); otherwise it is the candidate-set
        // reduction delivered by pruning.
        let benefit = if record.exact_hit {
            record.answer_size.max(1) as f64
        } else {
            record.cs_m_size.saturating_sub(record.cs_gc_size) as f64
        };
        self.shared.admission.lock().observe(expensiveness, benefit);
    }

    /// Adds a missed query to the Window; flushes when full. Returns inline
    /// maintenance time (zero in background mode).
    fn push_window(
        &self,
        query: &Arc<LabeledGraph>,
        kind: QueryKind,
        profile: PathProfile,
        fingerprint: u64,
        answer: &[GraphId],
        record: &QueryRecord,
    ) -> Duration {
        let expensiveness = record.verify_work as f64;
        // The entry is assembled before taking the window lock so the
        // critical section is a bare Vec push — concurrent queries must
        // not convoy on copy work that needs no synchronisation.
        let entry = WindowEntry {
            serial: record.serial,
            graph: query.clone(), // Arc clone — no graph copy
            answer: answer.to_vec(),
            kind,
            profile,
            fingerprint,
            expensiveness,
        };
        let batch = {
            let mut window = self.shared.window.lock();
            window.push(entry);
            if window.len() < self.cfg.window {
                return Duration::ZERO;
            }
            std::mem::take(&mut *window)
        };
        // The batch is flushed outside the window lock so concurrent
        // queries keep accumulating while maintenance runs.
        let now = self.shared.current_serial();
        match &self.worker {
            Some(worker) => {
                let _ = worker.sender().send(MaintMsg::Batch(batch, now));
                Duration::ZERO
            }
            None => window::maintain(&self.shared, self.cfg.capacity, batch, now),
        }
    }
}

/// Resolves the snapshot shard count: explicit when configured, otherwise
/// one shard per client thread (keeps reader interference and patch sizes
/// down), clamped so tiny caches are not shredded into dozens of
/// near-empty partitions.
fn effective_shards(cfg: &GcConfig) -> usize {
    if cfg.shards > 0 {
        cfg.shards
    } else {
        cfg.threads.clamp(1, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::GraphDataset;
    use gc_methods::MethodBuilder;

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
        let gc = cache();
        // Query with empty answer: path 3-3-3 (dataset has only edge 3-3).
        let empty_q = path_graph(&[3, 3, 3]);
        let r1 = gc.run(&empty_q);
        assert!(r1.answer.is_empty());
        gc.run(&path_graph(&[0, 1])); // flush window → cache the empty query
                                      // A superset query must terminate via the empty shortcut.
        let superset = path_graph(&[3, 3, 3, 3]);
        let r2 = gc.run(&superset);
        assert!(r2.answer.is_empty());
        assert!(r2.record.empty_shortcut, "second special case must fire");
        assert_eq!(r2.record.subiso_tests, 0);
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
    /// last hit) read, on concrete serials: a contribution that removed
    /// no candidate earns a hit and a last-hit serial but no `R` and no
    /// `C`; an exact hit adds its answer size floored at 1 to `R` and its
    /// memoised saving, floored at 1.0, to `C`.
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

        // Serial 3 is contained in entry 1, whose empty answer removes
        // nothing from Method M's candidates.
        let r3 = gc.run(&path_graph(&[0, 1, 0]));
        assert_eq!((r3.serial, r3.record.sub_hits), (3, 1));
        let after_zero_removal = PolicyRow {
            last_hit: 3,
            hits: 1,
            ..admitted(1)
        };
        assert_eq!(stats_row(&gc, 1), Some(after_zero_removal));

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
                hits: 2,
                r_total: 1,
                c_total: 1.0,
                ..admitted(1)
            })
        );
        assert_eq!(gc.check_invariants(), Ok(()));
    }

    #[test]
    fn background_mode_matches_inline_answers() {
        let d = dataset();
        let queries: Vec<LabeledGraph> = (0..20)
            .map(|i| match i % 4 {
                0 => path_graph(&[0, 1]),
                1 => path_graph(&[0, 1, 0]),
                2 => path_graph(&[1, 2]),
                _ => path_graph(&[0, 1, 2]),
            })
            .collect();
        let inline = GraphCache::builder()
            .capacity(5)
            .window(2)
            .build(MethodBuilder::ggsx().build(&d));
        let bg = GraphCache::builder()
            .capacity(5)
            .window(2)
            .background(true)
            .build(MethodBuilder::ggsx().build(&d));
        for q in &queries {
            let a = inline.run(q).answer;
            let b = bg.run(q).answer;
            assert_eq!(a, b);
        }
        bg.flush_pending();
        assert!(bg.cache_len() <= 5);
        assert!(bg.maintenance_total() >= Duration::ZERO);
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

    /// A view held across a round — what a concurrent session or a query
    /// overlapping background maintenance holds — forces copy-on-write of
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
    /// read on the next, and is the sum `credit_exact` always credited:
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

    /// The defaults resolve through the registry like any spec: HD
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
    /// under each one's own cap gives — for a query within both caps, one
    /// between them and one past both, in both directions. A Method M over
    /// a different path length enumerates its own.
    #[test]
    fn one_enumeration_per_miss_matches_separate_enumerations() {
        use crate::query_index::Probe;
        use gc_index::GgsxConfig;
        let queries = [
            path_graph(&[0, 1]),
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[0, 1, 2, 1, 0]),
        ];
        let work: Vec<u64> = queries
            .iter()
            .map(|q| PathEnumeration::new(q, 4, u64::MAX).work)
            .collect();
        assert!(work[0] < work[1] && work[1] < work[2], "{work:?}");
        let index_shape = PathShape {
            max_len: 4,
            work_cap: work[0],
        };
        for ggsx in [
            GgsxConfig {
                max_path_len: 4,
                work_cap: work[1],
            },
            GgsxConfig {
                max_path_len: 5,
                work_cap: work[1],
            },
        ] {
            let d = dataset();
            let method = MethodBuilder::ggsx_with(ggsx).build(&d);
            let reference = MethodBuilder::ggsx_with(ggsx).build(&d);
            let b = GraphCache::builder().capacity(10).window(1);
            let gc = GraphCache::assemble(
                method,
                b.cfg,
                index_shape,
                registry::build_eviction("hd").unwrap(),
                registry::build_admission("none").unwrap(),
                registry::build_eviction("lru").unwrap(),
            );
            let shared_cap = gc.miss_work_cap(index_shape);
            let expected_cap = if ggsx.max_path_len == 4 {
                work[1]
            } else {
                work[0]
            };
            assert_eq!(shared_cap, expected_cap);
            // Admit every query (W = 1), so the index holds one entry per
            // overflow class, then probe with each.
            for q in &queries {
                assert_eq!(gc.run(q).answer, reference.run(q).answer);
            }
            assert_eq!(gc.cache_len(), queries.len());
            let snapshot = gc.shared.load_snapshot();
            for q in &queries {
                let shared = enumerate_query(q, index_shape, shared_cap);
                let own = snapshot.profile_of(q);
                let (qn, qm) = (q.node_count() as u32, q.edge_count() as u32);
                for shard in snapshot.shards() {
                    let a = shard
                        .candidates(&Probe::new(shared.within(index_shape.work_cap), (qn, qm)));
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
                        "CS_M of {q:?} ({kind:?}, {ggsx:?})"
                    );
                }
                assert_eq!(shared.into_profile(index_shape.work_cap), own);
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
        let shape = gc.shared.load_snapshot().index_shape();
        let profile = enumerate_query(&copy, shape, shape.work_cap).profile;
        let entry = CacheEntry::new(99, copy, first.answer, QueryKind::Subgraph, profile);
        Arc::make_mut(&mut *gc.shared.shards[0].write()).insert(Arc::new(entry));
        let v = gc.check_invariants().unwrap_err();
        assert_eq!(v.clause, InvariantClause::Duplicates);
        assert_eq!(v.shard, None);
        assert!(v.detail.contains(&first.serial.to_string()) && v.detail.contains("99"));
    }
}

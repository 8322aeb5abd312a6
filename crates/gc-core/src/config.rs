//! How a [`GraphCache`] is configured: [`GcConfig`] and its builder.

use crate::registry::{self, PolicyError};
use crate::GraphCache;
use gc_fragments::FragmentConfig;
use gc_methods::{Method, QueryKind};

/// Tunable parameters of a [`GraphCache`] instance. Defaults mirror the
/// paper's evaluation setup (§7.1): C = 100, W = 20. The replacement and
/// admission policies are picked by name on the builder
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
    /// override this per query ([`QueryRequest::kind`](crate::QueryRequest::kind)).
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
    /// ([`QueryRequest::verify_budget`](crate::QueryRequest::verify_budget)).
    pub verify_budget: Option<u64>,
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
            threads: 1,
            shards: 0,
            fragments: false,
            fragment: FragmentConfig::default(),
        }
    }
}

/// Builder for [`GraphCache`].
///
/// Policies are picked by spec string
/// ([`eviction`](Self::eviction), [`admission`](Self::admission),
/// [`fragment_eviction`](Self::fragment_eviction)) from the closed set
/// [`registry::build_eviction`] and [`registry::build_admission`] resolve.
/// Resolution happens at build time: [`try_build`](Self::try_build)
/// surfaces an unknown name or a refused parameter as a [`PolicyError`],
/// while [`build`](Self::build) panics on it.
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

    /// Replacement policy by spec (default `"hd"`, the paper's
    /// recommendation), e.g. `.eviction("gcr")`,
    /// `.eviction("slru:protected=0.5")`. Any name in
    /// [`registry::EVICTION_NAMES`], or `gcr`, is accepted; the spec
    /// is resolved at build time ([`try_build`](Self::try_build) reports
    /// unknown names, [`build`](Self::build) panics on them).
    pub fn eviction(mut self, spec: impl Into<String>) -> Self {
        self.eviction_spec = Some(spec.into());
        self
    }

    /// Admission policy by spec (default `"none"`: admit every
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

    /// Eviction policy for the *fragment* store by spec (default
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
    /// If a policy spec passed to [`eviction`](Self::eviction) /
    /// [`admission`](Self::admission) does not resolve — use
    /// [`try_build`](Self::try_build) to handle that as an error instead.
    pub fn build(self, method: Method) -> GraphCache {
        self.try_build(method)
            .unwrap_or_else(|e| panic!("GraphCacheBuilder: {e}"))
    }

    /// Builds the cache, reporting unresolvable policy specs as a
    /// [`PolicyError`] (whose message lists the available names). Unset
    /// specs resolve to their defaults the same way: `"hd"`,
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
            eviction,
            admission,
            fragment_eviction,
        ))
    }
}

/// Resolves the snapshot shard count: explicit when configured, otherwise
/// one shard per client thread (keeps reader interference and patch sizes
/// down), clamped so tiny caches are not shredded into dozens of
/// near-empty partitions.
pub(crate) fn effective_shards(cfg: &GcConfig) -> usize {
    if cfg.shards > 0 {
        cfg.shards
    } else {
        cfg.threads.clamp(1, 64)
    }
}

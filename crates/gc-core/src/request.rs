//! What a query carries in and out: [`QueryRequest`], [`QueryResponse`]
//! and [`QueryResult`].

use crate::metrics::QueryRecord;
use crate::stats::QuerySerial;
use gc_graph::{GraphId, LabeledGraph};
use gc_methods::QueryKind;
use std::sync::Arc;

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
    /// Per-query override of [`GcConfig::query_kind`](crate::GcConfig::query_kind).
    pub kind: Option<QueryKind>,
    /// Per-query override of the shared verification work pool
    /// ([`GcConfig::verify_budget`](crate::GcConfig::verify_budget)).
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
    /// per-peer [`GraphCache::probe_candidates`](crate::GraphCache::probe_candidates) slices into this set.
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

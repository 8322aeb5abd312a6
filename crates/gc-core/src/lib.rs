//! GraphCache — the first full-fledged caching system for general
//! subgraph/supergraph queries (EDBT 2017).
//!
//! GraphCache (GC) sits in front of any graph query processing method
//! ("Method M", see [`gc_methods`]) and exploits subgraph/supergraph/exact
//! relations between new queries and previously executed ones to prune the
//! candidate sets that Method M would otherwise have to verify with
//! NP-complete sub-iso tests.
//!
//! # Architecture (paper §4)
//!
//! * **Query Processing Runtime** — [`GraphCache::run`] dispatches a query
//!   to Method M's filter and GC's own processors ([`processors`]), prunes
//!   the candidate set ([`pruner`], equations (1)/(2) + both special
//!   cases), verifies the remainder with M's verifier, and records
//!   statistics ([`metrics`], [`stats`]).
//! * **Cache Manager** — entries and the columns of the combined
//!   sub/supergraph candidate filter ([`query_index`]) live in
//!   serial-hashed, independently swapped shards ([`entry`]); the Window Manager ([`window`]) batches admissions
//!   through a Window, consults the admission policy ([`admission`]) and
//!   the replacement policy ([`policy`]), and applies the victim/admit
//!   delta incrementally to just the touched shards (per-shard compaction
//!   reclaims tombstones), so maintenance cost scales with the delta, not
//!   the cache size.
//! * **Policy engine** — replacement and admission are a closed set of
//!   strategies behind two traits ([`EvictionPolicy`] /
//!   [`AdmissionPolicy`]). [`registry`] builds one from a spec string with
//!   one `match` per kind; the paper's strategies and the extra ones in
//!   [`policies`] are selected that way and only that way
//!   (`GraphCache::builder().eviction("gcr").admission("adaptive")`).
//!
//! [`GraphCache`] is a shared service: `run`, [`GraphCache::execute`] and
//! [`GraphCache::run_batch`] take `&self`, so one cache instance serves
//! any number of client threads. Typed [`QueryRequest`]s carry per-query
//! overrides (direction, hit-verification work pool, cache bypass) and come
//! back as [`QueryResponse`]s wrapping the per-query [`QueryResult`].
//!
//! # Example
//!
//! ```
//! use gc_core::{GraphCache, QueryRequest};
//! use gc_graph::{GraphDataset, LabeledGraph};
//! use gc_methods::MethodBuilder;
//!
//! let dataset = GraphDataset::new(vec![
//!     LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
//!     LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
//! ]);
//! let method = MethodBuilder::ggsx().build(&dataset);
//! let cache = GraphCache::builder()
//!     .capacity(100)
//!     .window(20)
//!     .eviction("hd") // any policy name; "gcr" is the paper's alias for HD
//!     .build(method);
//!
//! let query = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
//! let first = cache.run(&query); // `run` takes &self — share the cache freely
//! let second = cache.run(&query); // may be served from the Window/cache
//! assert_eq!(first.answer, second.answer);
//!
//! // Batch submission fans out across a thread pool.
//! let responses = cache.run_batch(vec![
//!     QueryRequest::new(query.clone()).tag(1),
//!     QueryRequest::new(query.clone()).bypass_cache(true).tag(2),
//! ]);
//! assert_eq!(responses[0].result.answer, responses[1].result.answer);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod cache;
pub mod entry;
mod fragments;
pub mod invariants;
pub mod metrics;
pub mod persist;
pub mod policies;
pub mod policy;
pub mod processors;
pub mod pruner;
pub mod query_index;
pub mod registry;
pub mod snapshot_bin;
pub mod staged;
pub mod stats;
pub mod window;

pub use admission::{
    AdaptiveAdmission, AdmissionConfig, AdmissionControl, AdmissionPolicy, AdmitAll,
};
pub use cache::{
    GcConfig, GraphCache, GraphCacheBuilder, QueryRequest, QueryResponse, QueryResult,
    RestoreReport,
};
pub use entry::{shard_for, CacheEntry, CacheSnapshot, Shard};
pub use gc_fragments::FragmentConfig;
pub use gc_methods::QueryKind;
pub use invariants::{InvariantClause, InvariantViolation};
pub use metrics::{MaintStats, QueryRecord, RouteCounters, RunCounters};
#[doc(hidden)]
pub use persist::PersistFormat;
pub use persist::{
    DatasetIdentity, PersistedCache, PersistedEntry, RecoveredSnapshot, StoredProfiles,
};
pub use policies::{GreedyDual, SegmentedLru};
pub use policy::{EvictionPolicy, PolicyKind, PolicyRow, PolicyView};
pub use processors::{
    candidate_serials, exact_probe, find_hits_naive, sweep, ExactProbe, HitQuery, HitSet,
    VerifyOptions,
};
pub use query_index::{Probe, QUERY_INDEX_SHAPE};
pub use registry::PolicyError;
pub use staged::{FaultIo, FaultMode, Manifest, RealIo, SnapshotIo};
pub use stats::{QuerySerial, StatsStore};
pub use window::WindowEntry;

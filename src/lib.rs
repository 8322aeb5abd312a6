//! GraphCache — a semantic caching system for subgraph/supergraph queries.
//!
//! This umbrella crate re-exports the public API of every GraphCache
//! component crate. See the repository README for an architecture overview
//! and the crate docs of [`core`] for the mapping between the EDBT 2017
//! paper and the code.
//!
//! # Quick start
//!
//! ```
//! use graphcache::prelude::*;
//!
//! // A tiny dataset of two labelled graphs.
//! let dataset = GraphDataset::new(vec![
//!     LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
//!     LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
//! ]);
//!
//! // Method M: GraphGrepSX filtering + VF2 verification.
//! let method = MethodBuilder::ggsx().build(&dataset);
//!
//! // GraphCache in front of Method M. The handle is a shared service:
//! // `run` takes &self, and clones share the same cache.
//! let cache = GraphCache::builder()
//!     .capacity(100)
//!     .window(20)
//!     .eviction("hd") // the paper's recommended policy, by registry name
//!     .build(method);
//!
//! let query = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
//! let result = cache.run(&query);
//! assert_eq!(result.answer.len(), 2); // contained in both dataset graphs
//!
//! // Concurrent clients can borrow the same instance...
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         s.spawn(|| assert_eq!(cache.run(&query).answer.len(), 2));
//!     }
//! });
//!
//! // ...or submit typed requests as a batch fanned over a thread pool.
//! let responses = cache.run_batch(vec![
//!     QueryRequest::new(query.clone()).tag(1),
//!     QueryRequest::new(query.clone()).bypass_cache(true).tag(2),
//! ]);
//! assert_eq!(responses[0].tag, 1);
//! assert_eq!(responses[0].result.answer, responses[1].result.answer);
//! ```

pub use gc_core as core;
pub use gc_graph as graph;
pub use gc_harness as harness;
pub use gc_index as index;
pub use gc_methods as methods;
pub use gc_server as server;
pub use gc_subiso as subiso;
pub use gc_workload as workload;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use gc_core::{
        AdmissionPolicy, EvictionPolicy, GraphCache, GraphCacheBuilder, QueryKind, QueryRequest,
        QueryResponse,
    };
    pub use gc_graph::{GraphBuilder, GraphDataset, GraphId, LabeledGraph};
    pub use gc_methods::{Method, MethodBuilder};
    pub use gc_subiso::{MatchStats, Matcher, MatcherKind};
    pub use gc_workload::{datasets, DatasetProfile, TypeAConfig, TypeBConfig, Workload};
}

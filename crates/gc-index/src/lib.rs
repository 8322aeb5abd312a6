//! Filter-then-verify (FTV) dataset indexes for GraphCache.
//!
//! The paper bundles GraphCache with three top-performing subgraph FTV
//! methods (§7.1); the *filtering* halves of all three live here:
//!
//! * [`PathTrie`] — GraphGrepSX \[Bonnici et al. 2010\]: all labelled simple
//!   paths up to 4 edges, keyed by a 64-bit fold of their labels, with
//!   per-graph occurrence counts packed into one arena;
//! * [`GrapesIndex`] — Grapes \[Giugno et al. 2013\]: the same path features
//!   augmented with occurrence locations (Grapes' verification parallelism
//!   lives in `gc-methods`);
//! * [`CtIndex`] — CT-Index \[Klein, Kriege, Mutzel 2011\]: per-graph
//!   fingerprint bitmaps over tree features (≤ 6 nodes) and cycle features
//!   (≤ 8 nodes), 4096 bits by default.
//!
//! All filters are **sound**: the candidate set they return is always a
//! superset of the true answer set (no false negatives) — the property
//! tests in this crate check exactly that. Graphs whose feature enumeration
//! exceeds the configured work cap are conservatively treated as candidates
//! for every query, preserving soundness on pathological inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ct_index;
pub mod features;
pub mod fingerprint;
pub mod fx;
pub mod ggsx;
pub mod grapes;
pub mod paths;
pub mod postings;

pub use ct_index::{CtConfig, CtIndex};
pub use ggsx::{GgsxConfig, PathTrie};
pub use grapes::{GrapesConfig, GrapesIndex};

use gc_graph::{GraphDataset, GraphId, LabeledGraph};
use paths::{PathEnumeration, PathShape};

/// A sorted, duplicate-free set of dataset graph ids — the "candidate set"
/// CS(g) of the paper.
pub type CandidateSet = Vec<GraphId>;

/// A dataset filtering index: the `Mindex`/`Mfilter` half of a
/// filter-then-verify Method M (paper §4).
///
/// Path-feature indexes take the query's features from the caller: a
/// GraphCache miss enumerates the query once and hands that enumeration to
/// both its own query index and Method M's filter. An index reads a given
/// [`PathEnumeration`] only when it covers the index's [`PathShape`] and
/// enumerates the query itself otherwise; indexes over other features
/// ignore it.
pub trait FilterIndex: Send + Sync {
    /// Method name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The path shape the filter reads, for path-feature indexes.
    fn path_shape(&self) -> Option<PathShape> {
        None
    }

    /// Returns the candidate set for a subgraph query: every dataset graph
    /// that may contain `query`. Sound (superset of the answer set), sorted.
    fn filter_with(&self, query: &LabeledGraph, features: Option<&PathEnumeration>)
        -> CandidateSet;

    /// Supergraph-direction filtering, when the index supports it: every
    /// dataset graph that may be *contained in* `query`. `None` means the
    /// index cannot filter this direction (callers fall back to the full
    /// graph set, which is always sound).
    fn filter_supergraph_with(
        &self,
        query: &LabeledGraph,
        features: Option<&PathEnumeration>,
    ) -> Option<CandidateSet> {
        let _ = (query, features);
        None
    }

    /// [`filter_with`](Self::filter_with), enumerating the query itself.
    fn filter(&self, query: &LabeledGraph) -> CandidateSet {
        self.filter_with(query, None)
    }

    /// [`filter_supergraph_with`](Self::filter_supergraph_with),
    /// enumerating the query itself.
    fn filter_supergraph(&self, query: &LabeledGraph) -> Option<CandidateSet> {
        self.filter_supergraph_with(query, None)
    }

    /// Number of indexed graphs.
    fn graph_count(&self) -> usize;

    /// Approximate index memory footprint in bytes (space-overhead
    /// experiments, paper §7.3).
    fn memory_bytes(&self) -> usize;
}

/// Builds the given index over a dataset, timing the construction.
pub fn build_timed<I, F: FnOnce(&GraphDataset) -> I>(
    dataset: &GraphDataset,
    build: F,
) -> (I, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let idx = build(dataset);
    (idx, t0.elapsed())
}

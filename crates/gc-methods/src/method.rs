//! The [`Method`] runtime: filtering, (optionally parallel) verification,
//! and per-query metrics.

use gc_graph::{idset, GraphDataset, GraphId, LabeledGraph};
use gc_index::paths::{PathEnumeration, PathShape};
use gc_index::{CandidateSet, FilterIndex};
use gc_subiso::{MatchConfig, MatchOutcome, MatchStats, Matcher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether a workload asks subgraph queries (`g ⊆ G`: find dataset graphs
/// containing the query) or supergraph queries (`G ⊆ g`: find dataset
/// graphs contained in the query) — paper §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryKind {
    /// Find all dataset graphs containing the query.
    #[default]
    Subgraph,
    /// Find all dataset graphs contained in the query.
    Supergraph,
}

/// Result of the filtering stage.
#[derive(Debug, Clone)]
pub struct FilterOutput {
    /// The candidate set CS_M(g) — sorted graph ids.
    pub candidates: CandidateSet,
    /// Wall-clock filtering time.
    pub duration: Duration,
}

/// Result of the verification stage.
#[derive(Debug, Clone)]
pub struct VerifyOutput {
    /// The graphs that contain the query (sorted).
    pub answer: Vec<GraphId>,
    /// Wall-clock verification time.
    pub duration: Duration,
    /// Aggregate sub-iso counters.
    pub stats: MatchStats,
}

/// Result of a full (uncached) Method M query execution.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Answer set (sorted).
    pub answer: Vec<GraphId>,
    /// Filtering stage output.
    pub filter: FilterOutput,
    /// Verification stage output.
    pub verify: VerifyOutput,
}

impl MethodResult {
    /// Total query time (filter + verify).
    pub fn total_time(&self) -> Duration {
        self.filter.duration + self.verify.duration
    }

    /// Number of sub-iso tests executed.
    pub fn subiso_tests(&self) -> u64 {
        self.verify.stats.tests
    }
}

/// A concrete Method M: an optional filtering index, a verifier, and a
/// verification thread count. Construct through
/// [`MethodBuilder`](crate::MethodBuilder).
pub struct Method {
    pub(crate) name: String,
    pub(crate) filter: Option<Box<dyn FilterIndex>>,
    pub(crate) matcher: Arc<dyn Matcher>,
    pub(crate) dataset: Arc<GraphDataset>,
    pub(crate) threads: usize,
    pub(crate) match_config: MatchConfig,
}

impl std::fmt::Debug for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Method({}, dataset={} graphs, threads={})",
            self.name,
            self.dataset.len(),
            self.threads
        )
    }
}

impl Method {
    /// The method's display name ("GGSX", "Grapes6", "VF2+", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Arc<GraphDataset> {
        &self.dataset
    }

    /// The verifier algorithm.
    pub fn matcher(&self) -> &Arc<dyn Matcher> {
        &self.matcher
    }

    /// Verification thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Index memory, if this is an FTV method.
    pub fn index_memory_bytes(&self) -> Option<usize> {
        self.filter.as_ref().map(|f| f.memory_bytes())
    }

    /// Runs the filtering stage: `Mfilter` for FTV methods, the full graph
    /// id set for SI methods (paper §4: "For SI methods, MCS contains all
    /// graphs in dataset").
    pub fn filter(&self, query: &LabeledGraph) -> FilterOutput {
        self.filter_directed(query, QueryKind::Subgraph)
    }

    /// Direction-aware filtering: enumerates the query's features (path
    /// indexes) and runs [`filter_with`](Self::filter_with).
    pub fn filter_directed(&self, query: &LabeledGraph, kind: QueryKind) -> FilterOutput {
        self.filter_with(query, kind, None)
    }

    /// The path shape the method's filter reads, for path-feature indexes
    /// (GGSX, Grapes): a caller that enumerates the query anyway can share
    /// that enumeration through [`filter_with`](Self::filter_with).
    pub fn path_shape(&self) -> Option<PathShape> {
        self.filter.as_ref().and_then(|f| f.path_shape())
    }

    /// The one filtering entry point, both directions. `features` is the
    /// query's path enumeration when the caller already holds one; the
    /// index reads it when it covers [`path_shape`](Self::path_shape) and
    /// enumerates the query itself otherwise (an enumeration of shorter
    /// paths, or under a smaller work cap). Indexes that support
    /// the supergraph direction (the path-based ones) prune it too;
    /// otherwise supergraph queries fall back to the full dataset, which
    /// stays sound.
    pub fn filter_with(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        features: Option<&PathEnumeration>,
    ) -> FilterOutput {
        let t0 = Instant::now();
        let candidates = match (&self.filter, kind) {
            (Some(f), QueryKind::Subgraph) => f.filter_with(query, features),
            (Some(f), QueryKind::Supergraph) => f
                .filter_supergraph_with(query, features)
                .unwrap_or_else(|| idset::full(self.dataset.len())),
            (None, _) => idset::full(self.dataset.len()),
        };
        FilterOutput {
            candidates,
            duration: t0.elapsed(),
        }
    }

    /// Runs `Mverifier` over an explicit candidate set (which GraphCache may
    /// have pruned). Candidates must be sorted; the answer preserves order.
    pub fn verify(&self, query: &LabeledGraph, candidates: &[GraphId]) -> VerifyOutput {
        self.verify_directed(query, candidates, QueryKind::Subgraph)
    }

    /// Direction-aware verification: tests `query ⊆ G` for subgraph
    /// queries, `G ⊆ query` for supergraph queries.
    pub fn verify_directed(
        &self,
        query: &LabeledGraph,
        candidates: &[GraphId],
        kind: QueryKind,
    ) -> VerifyOutput {
        let t0 = Instant::now();
        let outcomes = if self.threads <= 1 || candidates.len() <= 1 {
            self.verify_serial(query, candidates, kind)
        } else {
            self.verify_threaded(query, candidates, kind)
        };
        let mut stats = MatchStats::default();
        let mut answer = Vec::new();
        for &(id, out) in &outcomes {
            stats.record(out);
            if out.found {
                answer.push(id);
            }
        }
        VerifyOutput {
            answer,
            duration: t0.elapsed(),
            stats,
        }
    }

    /// A subgraph query is the pattern of every test, so the matcher sweeps
    /// the candidates in one `contains_each` call (and prepares the query
    /// once); a supergraph query's patterns are the candidates themselves.
    fn verify_serial(
        &self,
        query: &LabeledGraph,
        candidates: &[GraphId],
        kind: QueryKind,
    ) -> Vec<(GraphId, MatchOutcome)> {
        match kind {
            QueryKind::Subgraph => {
                let targets: Vec<&LabeledGraph> = candidates
                    .iter()
                    .map(|&id| self.dataset.graph(id))
                    .collect();
                let mut outcomes = Vec::with_capacity(candidates.len());
                self.matcher
                    .contains_each(query, &targets, &self.match_config, &mut outcomes);
                candidates.iter().copied().zip(outcomes).collect()
            }
            QueryKind::Supergraph => candidates
                .iter()
                .map(|&id| {
                    let pattern = self.dataset.graph(id);
                    (
                        id,
                        self.matcher
                            .contains_with(pattern, query, &self.match_config),
                    )
                })
                .collect(),
        }
    }

    /// Splits the candidates into at most `threads` contiguous chunks, runs
    /// each through [`verify_serial`](Self::verify_serial) on a thread of its
    /// own (one matcher plan per chunk) and joins them in candidate order.
    fn verify_threaded(
        &self,
        query: &LabeledGraph,
        candidates: &[GraphId],
        kind: QueryKind,
    ) -> Vec<(GraphId, MatchOutcome)> {
        let chunk = candidates.len().div_ceil(self.threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|part| s.spawn(move || self.verify_serial(query, part, kind)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verifier thread panicked"))
                .collect()
        })
    }

    /// Runs a complete uncached subgraph query: filter, then verify.
    pub fn run(&self, query: &LabeledGraph) -> MethodResult {
        self.run_directed(query, QueryKind::Subgraph)
    }

    /// Runs a complete uncached query of either kind.
    pub fn run_directed(&self, query: &LabeledGraph, kind: QueryKind) -> MethodResult {
        let filter = self.filter_directed(query, kind);
        let verify = self.verify_directed(query, &filter.candidates, kind);
        MethodResult {
            answer: verify.answer.clone(),
            filter,
            verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MethodBuilder;

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![2, 2], &[(0, 1)]),
        ])
    }

    #[test]
    fn si_method_tests_every_graph() {
        let m = MethodBuilder::si_vf2().build(&dataset());
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let r = m.run(&q);
        assert_eq!(r.filter.candidates.len(), 4);
        assert_eq!(r.subiso_tests(), 4);
        assert_eq!(r.answer, vec![GraphId(0), GraphId(1), GraphId(2)]);
    }

    #[test]
    fn ftv_method_prunes_candidates() {
        let m = MethodBuilder::ggsx().build(&dataset());
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let r = m.run(&q);
        assert!(r.filter.candidates.len() < 4, "label-2 graph filtered out");
        assert_eq!(r.answer, vec![GraphId(0), GraphId(1), GraphId(2)]);
    }

    #[test]
    fn all_methods_agree_on_answers() {
        let d = dataset();
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]),
        ];
        let methods = [
            MethodBuilder::ggsx().build(&d),
            MethodBuilder::grapes(1).build(&d),
            MethodBuilder::grapes(6).build(&d),
            MethodBuilder::ct_index().build(&d),
            MethodBuilder::si_vf2().build(&d),
            MethodBuilder::si_vf2_plus().build(&d),
            MethodBuilder::si_graphql().build(&d),
        ];
        for q in &queries {
            let reference = methods[0].run(q).answer;
            for m in &methods[1..] {
                assert_eq!(m.run(q).answer, reference, "{} disagrees", m.name());
            }
        }
    }

    #[test]
    fn parallel_verification_matches_serial() {
        let d = dataset();
        let serial = MethodBuilder::grapes(1).build(&d);
        let parallel = MethodBuilder::grapes(6).build(&d);
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let a = serial.run(&q);
        let b = parallel.run(&q);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.verify.stats, b.verify.stats);

        // 13 candidates over 6 threads: uneven chunks of 3, both directions.
        let graphs: Vec<LabeledGraph> = (0..13u32)
            .map(|i| {
                let labels = (0..2 + i % 4).map(|j| (i + j) % 3).collect();
                let edges: Vec<(u32, u32)> = (1..2 + i % 4).map(|j| (j - 1, j)).collect();
                LabeledGraph::from_parts(labels, &edges)
            })
            .collect();
        let d = GraphDataset::new(graphs);
        let ids: Vec<GraphId> = (0..13).map(GraphId).collect();
        let serial = MethodBuilder::si_vf2().threads(1).build(&d);
        let parallel = MethodBuilder::si_vf2().threads(6).build(&d);
        let q = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]);
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let a = serial.verify_directed(&q, &ids, kind);
            let b = parallel.verify_directed(&q, &ids, kind);
            assert_eq!(a.answer, b.answer, "{kind:?}");
            assert_eq!(a.stats, b.stats, "{kind:?}");
            assert!(!a.answer.is_empty() && a.answer.len() < 13, "{kind:?}");
        }
    }

    #[test]
    fn verify_respects_explicit_candidates() {
        let m = MethodBuilder::si_vf2().build(&dataset());
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let out = m.verify(&q, &[GraphId(1), GraphId(3)]);
        assert_eq!(out.answer, vec![GraphId(1)]);
        assert_eq!(out.stats.tests, 2);
    }

    #[test]
    fn debug_and_accessors() {
        let m = MethodBuilder::grapes(6).build(&dataset());
        assert_eq!(m.name(), "Grapes6");
        assert_eq!(m.threads(), 6);
        assert!(m.index_memory_bytes().unwrap() > 0);
        assert!(format!("{m:?}").contains("Grapes6"));
        let si = MethodBuilder::si_vf2().build(&dataset());
        assert!(si.index_memory_bytes().is_none());
    }
}

//! GraphGrepSX (GGSX) — path-feature filtering \[Bonnici et al., PRIB 2010\].
//!
//! Dataset graphs are decomposed into all labelled simple paths of up to
//! `max_path_len` edges (default 4, the configuration used in the paper's
//! evaluation). GGSX stores them in a suffix trie; here each feature is a
//! 64-bit [`FeatureKey`] and its `(graph, occurrence count)` postings are
//! packed into one arena behind a key directory ([`KeyedPostings`]). A
//! query is decomposed the same way; a dataset graph remains a candidate
//! only if, for every query feature, it holds at least as many occurrences.

use crate::paths::{FeatureKey, PathEnumeration, PathProfile, PathShape};
use crate::postings::KeyedPostings;
use crate::{CandidateSet, FilterIndex};
use gc_graph::{idset, sizing, GraphDataset, GraphId, LabeledGraph};

/// Configuration for [`PathTrie`].
#[derive(Debug, Clone, Copy)]
pub struct GgsxConfig {
    /// Maximum path length in edges (paper default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration work cap; overflowing graphs are indexed
    /// conservatively (always candidates).
    pub work_cap: u64,
}

impl Default for GgsxConfig {
    fn default() -> Self {
        GgsxConfig {
            max_path_len: 4,
            work_cap: 20_000_000,
        }
    }
}

impl GgsxConfig {
    /// The feature-size ablation of §7.3 bumps the path length by one.
    pub fn with_path_len(max_path_len: usize) -> Self {
        GgsxConfig {
            max_path_len,
            ..Default::default()
        }
    }

    fn shape(&self) -> PathShape {
        PathShape {
            max_len: self.max_path_len,
            work_cap: self.work_cap,
        }
    }
}

/// Per-feature `(graph, count)` postings over a dataset — the filtering
/// core GGSX and Grapes share.
#[derive(Debug, Clone)]
pub(crate) struct CountPostings {
    postings: KeyedPostings<(GraphId, u32)>,
    /// Graphs whose enumeration overflowed; always included in candidates.
    overflow: Vec<GraphId>,
    /// Per graph: number of distinct features (supergraph filtering).
    distinct: Vec<u32>,
}

impl CountPostings {
    /// Packs one profile per dataset graph, in id order: every posting
    /// becomes a `(key, graph, count)` triple and one sort groups them.
    pub(crate) fn build(profiles: impl Iterator<Item = (GraphId, PathProfile)>) -> Self {
        let mut triples: Vec<(FeatureKey, GraphId, u32)> = Vec::new();
        let mut overflow = Vec::new();
        let mut distinct = Vec::new();
        for (id, profile) in profiles {
            debug_assert_eq!(id.index(), distinct.len());
            match profile {
                PathProfile::Counts(counts) => {
                    distinct.push(counts.len() as u32);
                    triples.extend(counts.into_iter().map(|(key, c)| (key, id, c)));
                }
                PathProfile::Overflow => {
                    distinct.push(0);
                    overflow.push(id);
                }
            }
        }
        // Sorting by (key, graph) also keeps each posting list in id order,
        // which the galloping intersection binary-searches.
        triples.sort_unstable_by_key(|&(key, id, _)| (key, id));
        CountPostings {
            postings: KeyedPostings::from_grouped(
                triples.into_iter().map(|(key, id, c)| (key, (id, c))),
            ),
            overflow,
            distinct,
        }
    }

    pub(crate) fn graph_count(&self) -> usize {
        self.distinct.len()
    }

    /// Subgraph direction: intersect, over all query features, the graphs
    /// holding enough occurrences. Starts from the rarest feature's
    /// posting, then gallops: each further feature only probes the (small)
    /// accumulator via binary search instead of materialising its full
    /// survivor list. The result does not depend on feature order.
    pub(crate) fn subgraph(&self, profile: &PathProfile) -> CandidateSet {
        let Some(features) = profile.counts() else {
            return idset::full(self.graph_count());
        };
        let mut postings: Vec<(&[(GraphId, u32)], u32)> = Vec::with_capacity(features.len());
        for &(key, qcount) in features {
            match self.postings.get(key) {
                Some(p) => postings.push((p, qcount)),
                // A feature absent from every graph: only overflow graphs
                // can still be candidates.
                None => return self.overflow.clone(),
            }
        }
        if postings.is_empty() {
            return idset::full(self.graph_count());
        }
        postings.sort_unstable_by_key(|(p, _)| p.len());
        let (base, need) = postings[0];
        let mut acc: Vec<GraphId> = base
            .iter()
            .filter(|(_, c)| *c >= need)
            .map(|(id, _)| *id)
            .collect();
        for &(posting, need) in &postings[1..] {
            if acc.is_empty() {
                break;
            }
            acc.retain(|id| {
                posting
                    .binary_search_by_key(id, |&(g, _)| g)
                    .is_ok_and(|i| posting[i].1 >= need)
            });
        }
        idset::union(&acc, &self.overflow)
    }

    /// Supergraph direction: a graph `G` can only be contained in the
    /// query if every feature of `G` occurs in the query at least as often
    /// — one sweep counting, per graph, its satisfied distinct features.
    /// Overflow graphs are conservatively kept.
    pub(crate) fn supergraph(&self, profile: &PathProfile) -> CandidateSet {
        let Some(features) = profile.counts() else {
            return idset::full(self.graph_count());
        };
        let mut satisfied = vec![0u32; self.graph_count()];
        for &(key, g_count) in features {
            if let Some(posting) = self.postings.get(key) {
                for &(id, count) in posting {
                    satisfied[id.index()] += (count <= g_count) as u32;
                }
            }
        }
        // Overflow graphs have distinct == 0 and trivially pass (they are
        // also in `overflow`, making the union a no-op safety net). An
        // empty dataset graph likewise passes — it is vacuously contained.
        let out: Vec<GraphId> = (0..self.graph_count() as u32)
            .map(GraphId)
            .filter(|id| satisfied[id.index()] == self.distinct[id.index()])
            .collect();
        idset::union(&out, &self.overflow)
    }

    pub(crate) fn overflowed(&self) -> &[GraphId] {
        &self.overflow
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.postings.memory_bytes()
            + sizing::slice_bytes::<GraphId>(self.overflow.len())
            + sizing::slice_bytes::<u32>(self.distinct.len())
    }
}

/// The GGSX filtering index: path-feature count postings packed behind a
/// key directory.
///
/// Besides the classic subgraph direction, the index also supports
/// **supergraph filtering** ([`PathTrie::supergraph_candidates`]): a
/// dataset graph `G` can only be contained in a query `g` if every feature
/// of `G` occurs in `g` at least as often. This is the same augmentation
/// GraphCache's own query index uses (paper §6.1) — per-graph distinct
/// feature counts make it a single posting sweep.
#[derive(Debug, Clone)]
pub struct PathTrie {
    core: CountPostings,
    cfg: GgsxConfig,
}

impl PathTrie {
    /// Builds the index over a dataset.
    pub fn build(dataset: &GraphDataset, cfg: GgsxConfig) -> Self {
        let profiles = dataset.iter().map(|(id, g)| {
            let profile = PathEnumeration::new(g, cfg.max_path_len, cfg.work_cap).profile;
            (id, profile)
        });
        PathTrie {
            core: CountPostings::build(profiles),
            cfg,
        }
    }

    /// Supergraph-direction filtering: candidates that may be *contained
    /// in* `query` (`G ⊆ g`). Sound: a graph survives iff all its features
    /// occur in the query with at least the graph's multiplicity; overflow
    /// graphs are conservatively kept.
    pub fn supergraph_candidates(&self, query: &LabeledGraph) -> CandidateSet {
        self.filter_supergraph(query)
            .expect("GGSX filters both directions")
    }

    /// The effective configuration.
    pub fn config(&self) -> GgsxConfig {
        self.cfg
    }

    /// Ids of graphs indexed conservatively due to enumeration overflow.
    pub fn overflowed(&self) -> &[GraphId] {
        self.core.overflowed()
    }
}

impl FilterIndex for PathTrie {
    fn name(&self) -> &'static str {
        "GGSX"
    }

    fn path_shape(&self) -> Option<PathShape> {
        Some(self.cfg.shape())
    }

    fn filter_with(
        &self,
        query: &LabeledGraph,
        features: Option<&PathEnumeration>,
    ) -> CandidateSet {
        let shape = self.cfg.shape();
        let features = shape.features(query, features);
        self.core.subgraph(features.within(shape.work_cap))
    }

    fn graph_count(&self) -> usize {
        self.core.graph_count()
    }

    fn memory_bytes(&self) -> usize {
        self.core.memory_bytes()
    }

    fn filter_supergraph_with(
        &self,
        query: &LabeledGraph,
        features: Option<&PathEnumeration>,
    ) -> Option<CandidateSet> {
        let shape = self.cfg.shape();
        let features = shape.features(query, features);
        Some(self.core.supergraph(features.within(shape.work_cap)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_subiso::{Matcher, Vf2};

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            // G0: path 0-1-2 labelled a,b,a
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            // G1: triangle a,b,c
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            // G2: single edge a-b
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
        ])
    }

    #[test]
    fn filter_is_sound_and_tight_here() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]); // a-b edge
        let cs = idx.filter(&q);
        // All three graphs contain an a-b edge.
        assert_eq!(cs, vec![GraphId(0), GraphId(1), GraphId(2)]);

        let q2 = LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]); // a-b-a
        let cs2 = idx.filter(&q2);
        assert_eq!(cs2, vec![GraphId(0)]);
    }

    #[test]
    fn count_filtering_uses_multiplicity() {
        // Query with two a-b edges sharing the b: star b(a,a).
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let star = LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]);
        let cs = idx.filter(&star);
        // Only G0 has two distinct a-b paths from one b.
        assert_eq!(cs, vec![GraphId(0)]);
    }

    #[test]
    fn unknown_feature_empties_candidates() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        assert!(idx.filter(&q).is_empty());
    }

    #[test]
    fn soundness_vs_vf2_on_dataset_subgraphs() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let vf2 = Vf2::new();
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![1, 2], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
        ];
        for q in &queries {
            let cs = idx.filter(q);
            for id in d.ids() {
                if vf2.contains(q, d.graph(id)) {
                    assert!(
                        idset::contains(&cs, id),
                        "false negative: {id} missing for {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overflow_graphs_always_candidates() {
        let d = dataset();
        let cfg = GgsxConfig {
            max_path_len: 4,
            work_cap: 1, // force overflow for every graph
        };
        let idx = PathTrie::build(&d, cfg);
        assert_eq!(idx.overflowed().len(), 3);
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        // Nothing matches the feature, but overflowed graphs stay in.
        assert_eq!(idx.filter(&q).len(), 3);
    }

    #[test]
    fn memory_accounting_nonzero() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.graph_count(), 3);
        assert_eq!(idx.name(), "GGSX");
    }

    #[test]
    fn supergraph_filter_sound_and_selective() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let vf2 = Vf2::new();
        // Query containing G2 (edge a-b) plus extra context.
        let q = LabeledGraph::from_parts(vec![0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let cs = idx.supergraph_candidates(&q);
        for id in d.ids() {
            if vf2.contains(d.graph(id), &q) {
                assert!(
                    idset::contains(&cs, id),
                    "supergraph filter dropped true answer {id}"
                );
            }
        }
        // G1 (triangle with label 2) cannot be inside q: pruned.
        assert!(!idset::contains(&cs, GraphId(1)));
    }

    #[test]
    fn supergraph_filter_overflow_conservative() {
        let d = dataset();
        let idx = PathTrie::build(
            &d,
            GgsxConfig {
                max_path_len: 4,
                work_cap: 1,
            },
        );
        let q = LabeledGraph::from_parts(vec![9], &[]);
        assert_eq!(idx.supergraph_candidates(&q).len(), 3);
    }

    #[test]
    fn longer_paths_increase_index_size() {
        // The §7.3 ablation: feature size +1 → bigger index.
        let d = dataset();
        let small = PathTrie::build(&d, GgsxConfig::with_path_len(2));
        let large = PathTrie::build(&d, GgsxConfig::with_path_len(4));
        assert!(large.memory_bytes() >= small.memory_bytes());
    }
}

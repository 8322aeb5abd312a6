//! Grapes — path index with occurrence locations \[Giugno et al., PLoS One
//! 2013\].
//!
//! Grapes indexes the same labelled-path features as GraphGrepSX but
//! additionally records, per feature and graph, the nodes at which
//! occurrences start. The original system uses these locations to restrict
//! verification to the relevant regions of each candidate graph and runs
//! verification on multiple threads (the paper evaluates Grapes1 and
//! Grapes6 — 1 and 6 threads). In this reproduction the filtering and the
//! location store live here; the thread pool lives in `gc-methods`, and the
//! location lists feed the space-accounting experiments (Grapes' index is
//! markedly larger than GGSX's, which the paper's space discussion relies
//! on).

use crate::ggsx::CountPostings;
use crate::paths::{
    enumerate_paths_located, feature_key, FeatureKey, LocatedProfile, PathEnumeration, PathProfile,
    PathShape,
};
use crate::postings::KeyedPostings;
use crate::{CandidateSet, FilterIndex};
use gc_graph::{sizing, GraphDataset, GraphId, Label, LabeledGraph, NodeId};

/// Configuration for [`GrapesIndex`].
#[derive(Debug, Clone, Copy)]
pub struct GrapesConfig {
    /// Maximum path length in edges (paper default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration work cap (overflow ⇒ conservative indexing).
    pub work_cap: u64,
}

impl Default for GrapesConfig {
    fn default() -> Self {
        GrapesConfig {
            max_path_len: 4,
            work_cap: 20_000_000,
        }
    }
}

impl GrapesConfig {
    fn shape(&self) -> PathShape {
        PathShape {
            max_len: self.max_path_len,
            work_cap: self.work_cap,
        }
    }
}

/// The Grapes filtering index: GGSX's count postings plus, per feature and
/// graph, a range of the packed start-node arena.
#[derive(Debug, Clone)]
pub struct GrapesIndex {
    core: CountPostings,
    /// Per feature: `(graph, offset, len)` into [`GrapesIndex::starts`].
    locations: KeyedPostings<(GraphId, u32, u32)>,
    /// Sorted start-node lists, packed back to back.
    starts: Vec<NodeId>,
    cfg: GrapesConfig,
}

impl GrapesIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &GraphDataset, cfg: GrapesConfig) -> Self {
        let mut profiles = Vec::with_capacity(dataset.len());
        let mut located: Vec<(FeatureKey, GraphId, u32, u32)> = Vec::new();
        let mut starts = Vec::new();
        for (id, g) in dataset.iter() {
            match enumerate_paths_located(g, cfg.max_path_len, cfg.work_cap) {
                LocatedProfile::Counts(features) => {
                    let mut counts = Vec::with_capacity(features.len());
                    for (seq, (count, locs)) in features {
                        let key = feature_key(&seq);
                        counts.push((key, count));
                        located.push((key, id, starts.len() as u32, locs.len() as u32));
                        starts.extend_from_slice(&locs);
                    }
                    counts.sort_unstable_by_key(|&(k, _)| k);
                    profiles.push((id, PathProfile::Counts(counts)));
                }
                LocatedProfile::Overflow => profiles.push((id, PathProfile::Overflow)),
            }
        }
        located.sort_unstable_by_key(|&(key, id, _, _)| (key, id));
        GrapesIndex {
            core: CountPostings::build(profiles.into_iter()),
            locations: KeyedPostings::from_grouped(
                located
                    .into_iter()
                    .map(|(key, id, off, len)| (key, (id, off, len))),
            ),
            starts,
            cfg,
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> GrapesConfig {
        self.cfg
    }

    /// The start-node locations of `feature` within graph `id`, if indexed.
    pub fn locations(&self, feature: &[Label], id: GraphId) -> Option<&[NodeId]> {
        let posting = self.locations.get(feature_key(feature))?;
        let i = posting.binary_search_by_key(&id, |&(g, _, _)| g).ok()?;
        let (_, off, len) = posting[i];
        Some(&self.starts[off as usize..(off + len) as usize])
    }
}

impl FilterIndex for GrapesIndex {
    fn name(&self) -> &'static str {
        "Grapes"
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
            + self.locations.memory_bytes()
            + sizing::slice_bytes::<NodeId>(self.starts.len())
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
    use crate::ggsx::{GgsxConfig, PathTrie};

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
        ])
    }

    #[test]
    fn filtering_agrees_with_ggsx() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]),
            LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]),
        ];
        for q in &queries {
            assert_eq!(grapes.filter(q), ggsx.filter(q), "query {q:?}");
        }
    }

    #[test]
    fn locations_recorded() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        // Feature [0, 1] (a→b) starts at nodes 0 and 2 in G0.
        let locs = grapes.locations(&[0, 1], GraphId(0)).unwrap();
        assert_eq!(locs, &[0, 2]);
        // Absent feature/graph combinations return None.
        assert!(grapes.locations(&[5, 5], GraphId(0)).is_none());
        assert!(grapes.locations(&[0, 1, 2], GraphId(0)).is_none());
    }

    #[test]
    fn grapes_index_larger_than_ggsx() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        assert!(
            grapes.memory_bytes() > ggsx.memory_bytes(),
            "location lists must cost memory: grapes {} vs ggsx {}",
            grapes.memory_bytes(),
            ggsx.memory_bytes()
        );
    }

    #[test]
    fn overflow_conservative() {
        let d = dataset();
        let grapes = GrapesIndex::build(
            &d,
            GrapesConfig {
                max_path_len: 4,
                work_cap: 1,
            },
        );
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        assert_eq!(grapes.filter(&q).len(), 3);
    }
}

//! Grapes — path index with occurrence locations \[Giugno et al., PLoS One
//! 2013\].
//!
//! Grapes indexes the same labelled-path features as GraphGrepSX and, in
//! the original system, additionally records per feature and graph the
//! nodes at which occurrences start, to restrict verification to the
//! relevant regions of each candidate graph; it runs verification on
//! multiple threads (the paper evaluates Grapes1 and Grapes6 — 1 and 6
//! threads). In this reproduction nothing reads locations — verification
//! runs VF2 over whole candidate graphs for every method — so Grapes keeps
//! only GGSX's count postings: its filter, candidate sets and index size
//! equal GGSX's, and the thread pool that sets it apart lives in
//! `gc-methods`. `docs/paper-figures.md` (§7.3) records the space row this
//! changes.

use crate::ggsx::CountPostings;
use crate::paths::{PathEnumeration, PathShape};
use crate::{CandidateSet, FilterIndex};
use gc_graph::{GraphDataset, LabeledGraph};

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

/// The Grapes filtering index: GGSX's count postings under Grapes'
/// configuration.
#[derive(Debug, Clone)]
pub struct GrapesIndex {
    core: CountPostings,
    cfg: GrapesConfig,
}

impl GrapesIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &GraphDataset, cfg: GrapesConfig) -> Self {
        let profiles = dataset.iter().map(|(id, g)| {
            let profile = PathEnumeration::new(g, cfg.max_path_len, cfg.work_cap).profile;
            (id, profile)
        });
        GrapesIndex {
            core: CountPostings::build(profiles),
            cfg,
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> GrapesConfig {
        self.cfg
    }

    /// The count postings the filters read.
    #[cfg(test)]
    pub(crate) fn core(&self) -> &CountPostings {
        &self.core
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
    fn grapes_index_same_size_as_ggsx() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        assert!(grapes.memory_bytes() > 0);
        assert_eq!(grapes.memory_bytes(), ggsx.memory_bytes());
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

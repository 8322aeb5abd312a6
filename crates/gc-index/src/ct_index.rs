//! CT-Index — fingerprint filtering over tree and cycle features
//! \[Klein, Kriege, Mutzel — ICDE 2011\].
//!
//! Every dataset graph gets a fixed-width bitmap: each canonical tree/cycle
//! feature (see [`crate::features`]) sets one hash-determined bit. A query
//! graph is fingerprinted the same way; the candidate set is every graph
//! whose bitmap is a superset of the query's. The paper's configuration —
//! trees ≤ 6 nodes, cycles ≤ 8 nodes, 4096-bit bitmaps — is the default,
//! and the §7.3 feature-size ablation (trees 7 / cycles 9 / 8192 bits) is a
//! constructor away.

use crate::features::{enumerate_features, FeatureConfig, FeatureSet};
use crate::fingerprint::{fnv1a, Fingerprint};
use crate::paths::PathEnumeration;
use crate::{CandidateSet, FilterIndex};
use gc_graph::{GraphDataset, GraphId, LabeledGraph};

/// Configuration for [`CtIndex`].
#[derive(Debug, Clone, Copy)]
pub struct CtConfig {
    /// Feature extraction parameters (tree/cycle size caps, work cap).
    pub features: FeatureConfig,
    /// Bitmap width in bits (paper default: 4096).
    pub bits: usize,
}

impl Default for CtConfig {
    fn default() -> Self {
        CtConfig {
            features: FeatureConfig::default(),
            bits: 4096,
        }
    }
}

impl CtConfig {
    /// The §7.3 feature-size ablation: trees ≤ 7, cycles ≤ 9, 8192 bits.
    pub fn enlarged() -> Self {
        CtConfig {
            features: FeatureConfig {
                tree_max_nodes: 7,
                cycle_max_nodes: 9,
                ..FeatureConfig::default()
            },
            bits: 8192,
        }
    }
}

/// The CT-Index filtering index: one fingerprint per dataset graph.
#[derive(Debug, Clone)]
pub struct CtIndex {
    fingerprints: Vec<Fingerprint>,
    cfg: CtConfig,
}

impl CtIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &GraphDataset, cfg: CtConfig) -> Self {
        let fingerprints = dataset
            .graphs()
            .iter()
            .map(|g| Self::fingerprint_with(g, &cfg))
            .collect();
        CtIndex { fingerprints, cfg }
    }

    /// The effective configuration.
    pub fn config(&self) -> CtConfig {
        self.cfg
    }

    /// Fingerprints a graph under an explicit configuration. Overflowing
    /// graphs get the all-ones fingerprint (conservative: they pass every
    /// subset test as targets).
    pub fn fingerprint_with(g: &LabeledGraph, cfg: &CtConfig) -> Fingerprint {
        match enumerate_features(g, &cfg.features) {
            FeatureSet::Codes(codes) => {
                let mut fp = Fingerprint::zeros(cfg.bits);
                for code in codes {
                    fp.set_hash(fnv1a(&code));
                }
                fp
            }
            FeatureSet::Overflow => Fingerprint::ones(cfg.bits),
        }
    }

    /// Fingerprints a query under this index's configuration. A query whose
    /// enumeration overflows gets the all-zero fingerprint (conservative: it
    /// keeps every graph as a candidate).
    pub fn query_fingerprint(&self, query: &LabeledGraph) -> Fingerprint {
        match enumerate_features(query, &self.cfg.features) {
            FeatureSet::Codes(codes) => {
                let mut fp = Fingerprint::zeros(self.cfg.bits);
                for code in codes {
                    fp.set_hash(fnv1a(&code));
                }
                fp
            }
            FeatureSet::Overflow => Fingerprint::zeros(self.cfg.bits),
        }
    }

    /// The stored fingerprint of a dataset graph.
    pub fn fingerprint(&self, id: GraphId) -> &Fingerprint {
        &self.fingerprints[id.index()]
    }
}

impl FilterIndex for CtIndex {
    fn name(&self) -> &'static str {
        "CT-Index"
    }

    fn filter_with(&self, query: &LabeledGraph, _: Option<&PathEnumeration>) -> CandidateSet {
        let qfp = self.query_fingerprint(query);
        self.fingerprints
            .iter()
            .enumerate()
            .filter(|(_, fp)| qfp.subset_of(fp))
            .map(|(i, _)| GraphId(i as u32))
            .collect()
    }

    fn graph_count(&self) -> usize {
        self.fingerprints.len()
    }

    fn memory_bytes(&self) -> usize {
        self.fingerprints.iter().map(|f| f.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::idset;
    use gc_subiso::{Matcher, Vf2};

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![3, 3, 3, 3], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        ])
    }

    #[test]
    fn filter_sound_vs_vf2() {
        let d = dataset();
        let idx = CtIndex::build(&d, CtConfig::default());
        let vf2 = Vf2::new();
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![3, 3, 3], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]),
        ];
        for q in &queries {
            let cs = idx.filter(q);
            for id in d.ids() {
                if vf2.contains(q, d.graph(id)) {
                    assert!(idset::contains(&cs, id), "false negative for {q:?}");
                }
            }
        }
    }

    #[test]
    fn cycle_feature_discriminates() {
        let d = dataset();
        let idx = CtIndex::build(&d, CtConfig::default());
        // Triangle query: only G1 contains an all-distinct-label triangle.
        let tri = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let cs = idx.filter(&tri);
        assert!(idset::contains(&cs, GraphId(1)));
        assert!(
            !idset::contains(&cs, GraphId(0)),
            "path graph pruned by cycle bit"
        );
    }

    #[test]
    fn wider_bitmaps_dont_lose_candidates() {
        let d = dataset();
        let small = CtIndex::build(
            &d,
            CtConfig {
                bits: 64,
                ..Default::default()
            },
        );
        let large = CtIndex::build(&d, CtConfig::enlarged());
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        // Narrow bitmaps only add false positives, never false negatives:
        // candidates(small) ⊇ candidates(large) does not hold in general
        // (different feature sets), but both must contain the true answers.
        let vf2 = Vf2::new();
        for id in d.ids() {
            if vf2.contains(&q, d.graph(id)) {
                assert!(idset::contains(&small.filter(&q), id));
                assert!(idset::contains(&large.filter(&q), id));
            }
        }
    }

    #[test]
    fn enlarged_config_more_memory() {
        let d = dataset();
        let base = CtIndex::build(&d, CtConfig::default());
        let big = CtIndex::build(&d, CtConfig::enlarged());
        assert!(big.memory_bytes() > base.memory_bytes());
        assert_eq!(base.memory_bytes(), 4 * (4096 / 8 + 8));
    }

    #[test]
    fn overflowing_graph_matches_everything() {
        let d = dataset();
        let idx = CtIndex::build(
            &d,
            CtConfig {
                features: FeatureConfig {
                    work_cap: 1,
                    ..Default::default()
                },
                bits: 256,
            },
        );
        // Every dataset graph overflowed ⇒ all pass any query fingerprint.
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        assert_eq!(idx.filter(&q).len(), d.len());
    }

    #[test]
    fn name_and_counts() {
        let d = dataset();
        let idx = CtIndex::build(&d, CtConfig::default());
        assert_eq!(idx.name(), "CT-Index");
        assert_eq!(idx.graph_count(), 4);
        assert!(idx.fingerprint(GraphId(0)).count_ones() > 0);
    }
}

//! Synthetic stand-ins for the paper's datasets (§7.2).
//!
//! The paper's real datasets are not redistributable here, so each is
//! replaced by a generator reproducing its *published shape statistics* —
//! the properties GraphCache's behaviour actually depends on:
//!
//! | dataset   | graphs | nodes avg (std, max)  | deg  | labels | character |
//! |-----------|--------|-----------------------|------|--------|-----------|
//! | AIDS      | 40,000 | 45 (22, 245)          | 2.09 | ~51    | many small sparse molecules |
//! | PDBS      | 600    | 2,939 (3,215, 16,341) | 2.13 | ~10    | few, very large, sparse |
//! | PCM       | 200    | 377 (187, 883)        | 22.4 | ~20    | few, dense (contact maps) |
//! | Synthetic | 1,000  | 892 (417, 7,135)      | 19.5 | ~20    | 5× PCM count, 2–3× PCM size |
//!
//! `DatasetProfile::paper_scale()` carries those numbers; `bench()` returns
//! the laptop-scale defaults the experiment harness uses (identical shape,
//! smaller counts — NP-complete verification makes full scale a cluster
//! job, cf. DESIGN.md §4/§7). Both scale linearly via [`DatasetProfile::scaled`].

use gc_graph::random::{random_connected_graph, sample_normal_clamped, LabelModel};
use gc_graph::{GraphDataset, LabeledGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shape parameters of a generated dataset.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Dataset name ("AIDS", "PDBS", "PCM", "Synthetic").
    pub name: &'static str,
    /// Number of graphs.
    pub graph_count: usize,
    /// Mean node count per graph.
    pub avg_nodes: f64,
    /// Standard deviation of node counts.
    pub std_nodes: f64,
    /// Smallest allowed node count.
    pub min_nodes: usize,
    /// Largest allowed node count.
    pub max_nodes: usize,
    /// Target average degree.
    pub avg_degree: f64,
    /// Label domain size.
    pub labels: u32,
    /// Zipf skew of the label distribution (`None` = uniform). Chemical
    /// datasets are heavily skewed (carbon dominates AIDS).
    pub label_skew: Option<f64>,
}

impl DatasetProfile {
    /// AIDS at published scale: 40,000 small sparse molecule graphs.
    pub fn aids_paper() -> Self {
        DatasetProfile {
            name: "AIDS",
            graph_count: 40_000,
            avg_nodes: 45.0,
            std_nodes: 22.0,
            min_nodes: 8,
            max_nodes: 245,
            avg_degree: 2.09,
            labels: 51,
            label_skew: Some(2.0),
        }
    }

    /// PDBS at published scale: 600 large sparse macromolecule graphs.
    pub fn pdbs_paper() -> Self {
        DatasetProfile {
            name: "PDBS",
            graph_count: 600,
            avg_nodes: 2_939.0,
            std_nodes: 3_215.0,
            min_nodes: 100,
            max_nodes: 16_341,
            avg_degree: 2.13,
            labels: 10,
            label_skew: Some(1.6),
        }
    }

    /// PCM at published scale: 200 dense protein contact maps.
    pub fn pcm_paper() -> Self {
        DatasetProfile {
            name: "PCM",
            graph_count: 200,
            avg_nodes: 377.0,
            std_nodes: 187.0,
            min_nodes: 60,
            max_nodes: 883,
            avg_degree: 22.39,
            labels: 20,
            label_skew: None,
        }
    }

    /// Synthetic at published scale: 5× PCM's graph count, 2–3× its size,
    /// similar density (the paper built it with GraphGen).
    pub fn synthetic_paper() -> Self {
        DatasetProfile {
            name: "Synthetic",
            graph_count: 1_000,
            avg_nodes: 892.0,
            std_nodes: 417.0,
            min_nodes: 150,
            max_nodes: 7_135,
            avg_degree: 19.52,
            labels: 20,
            label_skew: None,
        }
    }

    /// AIDS shape at bench scale.
    pub fn aids() -> Self {
        DatasetProfile {
            graph_count: 2_500,
            max_nodes: 160,
            ..Self::aids_paper()
        }
    }

    /// PDBS shape at bench scale: fewer but much larger sparse graphs
    /// (node counts scaled ~10×, preserving the AIDS:PDBS size ratio
    /// direction).
    pub fn pdbs() -> Self {
        DatasetProfile {
            graph_count: 200,
            avg_nodes: 600.0,
            std_nodes: 350.0,
            min_nodes: 100,
            max_nodes: 1_800,
            ..Self::pdbs_paper()
        }
    }

    /// PCM shape at bench scale: few, dense graphs. Density is the active
    /// ingredient for the admission-control experiments (Fig. 9).
    pub fn pcm() -> Self {
        DatasetProfile {
            graph_count: 60,
            avg_nodes: 110.0,
            std_nodes: 45.0,
            min_nodes: 40,
            max_nodes: 240,
            avg_degree: 12.0,
            ..Self::pcm_paper()
        }
    }

    /// Synthetic shape at bench scale: 3× the bench PCM's count, 2× its
    /// size, similar density — preserving the paper's PCM↔Synthetic
    /// relationship.
    pub fn synthetic() -> Self {
        DatasetProfile {
            graph_count: 180,
            avg_nodes: 220.0,
            std_nodes: 90.0,
            min_nodes: 70,
            max_nodes: 480,
            avg_degree: 10.0,
            ..Self::synthetic_paper()
        }
    }

    /// Looks up a bench-scale profile by its CLI name (`"aids"`, `"pdbs"`,
    /// `"pcm"`, `"synthetic"`, case-insensitive) — the single source for
    /// `gc generate --profile` and scenario files.
    pub fn by_name(name: &str) -> Option<DatasetProfile> {
        match name.to_ascii_lowercase().as_str() {
            "aids" => Some(Self::aids()),
            "pdbs" => Some(Self::pdbs()),
            "pcm" => Some(Self::pcm()),
            "synthetic" => Some(Self::synthetic()),
            _ => None,
        }
    }

    /// Scales graph count by `scale` (≥ 0.05), leaving per-graph shape
    /// untouched. A scenario's `dataset_scale` applies it.
    pub fn scaled(mut self, scale: f64) -> Self {
        let s = scale.max(0.05);
        self.graph_count = ((self.graph_count as f64 * s).round() as usize).max(4);
        self
    }

    /// Generates the dataset deterministically from a seed.
    pub fn generate(&self, seed: u64) -> GraphDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let label_model = match self.label_skew {
            Some(a) => LabelModel::zipf(self.labels, a),
            None => LabelModel::uniform(self.labels),
        };
        let sampler = label_model.sampler();
        let graphs: Vec<LabeledGraph> = (0..self.graph_count)
            .map(|_| {
                let n = sample_normal_clamped(
                    &mut rng,
                    self.avg_nodes,
                    self.std_nodes,
                    self.min_nodes,
                    self.max_nodes,
                );
                random_connected_graph(&mut rng, n, self.avg_degree, &sampler)
            })
            .collect();
        GraphDataset::new(graphs)
    }
}

/// Bench-scale AIDS stand-in (see [`DatasetProfile::aids`]).
pub fn aids_like(scale: f64, seed: u64) -> GraphDataset {
    DatasetProfile::aids().scaled(scale).generate(seed)
}

/// Bench-scale PDBS stand-in.
pub fn pdbs_like(scale: f64, seed: u64) -> GraphDataset {
    DatasetProfile::pdbs().scaled(scale).generate(seed)
}

/// Bench-scale PCM stand-in.
pub fn pcm_like(scale: f64, seed: u64) -> GraphDataset {
    DatasetProfile::pcm().scaled(scale).generate(seed)
}

/// Bench-scale Synthetic stand-in.
pub fn synthetic_like(scale: f64, seed: u64) -> GraphDataset {
    DatasetProfile::synthetic().scaled(scale).generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aids_shape_statistics() {
        let d = DatasetProfile::aids().scaled(0.2).generate(1);
        let s = d.stats();
        assert_eq!(s.graph_count, DatasetProfile::aids().graph_count / 5);
        assert!(
            (s.avg_nodes - 45.0).abs() < 6.0,
            "avg nodes {} off-profile",
            s.avg_nodes
        );
        assert!(
            (s.avg_degree - 2.09).abs() < 0.4,
            "avg degree {} off-profile",
            s.avg_degree
        );
        assert!(s.distinct_labels <= 51);
        assert!(s.distinct_labels > 10, "label diversity collapsed");
    }

    #[test]
    fn pcm_denser_than_aids() {
        let aids = DatasetProfile::aids().scaled(0.1).generate(2);
        let pcm = DatasetProfile::pcm().scaled(0.5).generate(2);
        assert!(pcm.stats().avg_degree > 3.0 * aids.stats().avg_degree);
    }

    #[test]
    fn pdbs_fewer_larger_than_aids() {
        let aids = DatasetProfile::aids().scaled(0.1).generate(3);
        let pdbs = DatasetProfile::pdbs().scaled(0.5).generate(3);
        assert!(pdbs.stats().graph_count < aids.stats().graph_count);
        assert!(pdbs.stats().avg_nodes > 3.0 * aids.stats().avg_nodes);
    }

    #[test]
    fn synthetic_matches_paper_relation_to_pcm() {
        let pcm = DatasetProfile::pcm();
        let syn = DatasetProfile::synthetic();
        assert!(syn.graph_count >= 2 * pcm.graph_count);
        assert!(syn.avg_nodes >= 1.8 * pcm.avg_nodes);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = aids_like(0.05, 7);
        let b = aids_like(0.05, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.graphs().iter().zip(b.graphs()) {
            assert_eq!(x, y);
        }
        let c = aids_like(0.05, 8);
        assert_ne!(
            a.graphs()[0].labels(),
            c.graphs()[0].labels(),
            "different seed must differ"
        );
    }

    #[test]
    fn all_graphs_connected() {
        for d in [
            aids_like(0.05, 1),
            pdbs_like(0.1, 1),
            pcm_like(0.2, 1),
            synthetic_like(0.05, 1),
        ] {
            assert!(d.graphs().iter().all(|g| g.is_connected()));
        }
    }

    #[test]
    fn by_name_resolves_every_cli_profile() {
        for name in ["aids", "pdbs", "pcm", "synthetic", "AIDS"] {
            let p = DatasetProfile::by_name(name).expect(name);
            assert_eq!(p.name.to_ascii_lowercase(), name.to_ascii_lowercase());
        }
        assert!(DatasetProfile::by_name("nope").is_none());
    }

    #[test]
    fn scaled_floor() {
        let p = DatasetProfile::aids().scaled(0.0);
        assert!(p.graph_count >= 4);
    }
}

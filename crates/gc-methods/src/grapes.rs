//! Grapes1 and Grapes6 filter with GGSX's path index: what sets them apart
//! is their verifier thread count. These tests pin that they build the
//! same index and return the same candidates as GGSX.

mod tests {
    use crate::{MethodKind, QueryKind};
    use gc_graph::{GraphDataset, LabeledGraph};

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![9, 9, 9], &[(0, 1), (1, 2)]),
        ])
    }

    const GRAPES: [(MethodKind, usize); 2] = [(MethodKind::Grapes1, 1), (MethodKind::Grapes6, 6)];

    #[test]
    fn filtering_agrees_with_ggsx() {
        let d = dataset();
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2, 9], &[(0, 1), (1, 2), (2, 0), (2, 3)]),
            LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]),
        ];
        let ggsx = MethodKind::Ggsx.build(&d);
        for (kind, threads) in GRAPES {
            let grapes = kind.build(&d);
            assert_eq!(grapes.threads(), threads);
            for q in &queries {
                for direction in [QueryKind::Subgraph, QueryKind::Supergraph] {
                    assert_eq!(
                        grapes.filter_directed(q, direction).candidates,
                        ggsx.filter_directed(q, direction).candidates,
                        "{} {direction:?} {q:?}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn grapes_index_same_size_as_ggsx() {
        let d = dataset();
        let ggsx = MethodKind::Ggsx.build(&d);
        assert!(ggsx.index_memory_bytes().unwrap() > 0);
        for (kind, _) in GRAPES {
            let grapes = kind.build(&d);
            assert_eq!(grapes.path_shape(), ggsx.path_shape());
            assert_eq!(grapes.index_memory_bytes(), ggsx.index_memory_bytes());
        }
    }
}

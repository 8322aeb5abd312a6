//! Property-based tests over the whole pipeline: random graphs and
//! workloads, with Ullmann as an algorithmically independent referee.

use graphcache::core::GraphCache;
use graphcache::index::{CtConfig, CtIndex, FilterIndex, GgsxConfig, PathTrie};
use graphcache::methods::MethodBuilder;
use graphcache::prelude::*;
use graphcache::subiso::{GraphQl, Matcher, Ullmann, Vf2, Vf2Plus};
use proptest::prelude::*;

/// Strategy: a small random connected-ish labelled graph.
fn arb_graph(max_nodes: usize, labels: u32) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let label_vec = proptest::collection::vec(0..labels, n);
        let edge_vec = proptest::collection::vec((0..n as u32, 0..n as u32), 1..(2 * n));
        (label_vec, edge_vec).prop_map(|(labels, edges)| LabeledGraph::from_parts(labels, &edges))
    })
}

/// Strategy: a graph plus an edge-subset subgraph of it.
fn arb_graph_with_subgraph() -> impl Strategy<Value = (LabeledGraph, LabeledGraph)> {
    arb_graph(8, 3).prop_flat_map(|g| {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let n_edges = edges.len();
        proptest::collection::vec(any::<bool>(), n_edges).prop_map(move |mask| {
            let chosen: Vec<(u32, u32)> = edges
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(&e, _)| e)
                .collect();
            let sub = if chosen.is_empty() {
                LabeledGraph::empty()
            } else {
                g.edge_subgraph(&chosen).0
            };
            (g.clone(), sub)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every matcher finds a genuine edge-subgraph.
    #[test]
    fn matchers_accept_true_subgraphs((g, sub) in arb_graph_with_subgraph()) {
        prop_assert!(Vf2::new().contains(&sub, &g));
        prop_assert!(Vf2Plus::new().contains(&sub, &g));
        prop_assert!(GraphQl::new().contains(&sub, &g));
        prop_assert!(Ullmann::new().contains(&sub, &g));
    }

    /// All four matchers agree on arbitrary pairs (Ullmann as referee).
    #[test]
    fn matchers_agree(p in arb_graph(6, 3), t in arb_graph(8, 3)) {
        let expected = Ullmann::new().contains(&p, &t);
        prop_assert_eq!(Vf2::new().contains(&p, &t), expected, "VF2 disagrees");
        prop_assert_eq!(Vf2Plus::new().contains(&p, &t), expected, "VF2+ disagrees");
        prop_assert_eq!(GraphQl::new().contains(&p, &t), expected, "GQL disagrees");
    }

    /// Embedding counts agree across matchers.
    #[test]
    fn embedding_counts_agree(p in arb_graph(5, 2), t in arb_graph(6, 2)) {
        let reference = Vf2::new().count_embeddings(&p, &t, u64::MAX);
        prop_assert_eq!(Vf2Plus::new().count_embeddings(&p, &t, u64::MAX), reference);
        prop_assert_eq!(GraphQl::new().count_embeddings(&p, &t, u64::MAX), reference);
        prop_assert_eq!(Ullmann::new().count_embeddings(&p, &t, u64::MAX), reference);
    }

    /// FTV filters never drop a true answer (soundness).
    #[test]
    fn filters_have_no_false_negatives(
        graphs in proptest::collection::vec(arb_graph(8, 3), 3..8),
        query in arb_graph(5, 3),
    ) {
        let d = GraphDataset::new(graphs);
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        let ct = CtIndex::build(&d, CtConfig::default());
        let vf2 = Vf2::new();
        let cs_ggsx = ggsx.filter(&query);
        let cs_ct = ct.filter(&query);
        for id in d.ids() {
            if vf2.contains(&query, d.graph(id)) {
                prop_assert!(cs_ggsx.binary_search(&id).is_ok(), "GGSX dropped {id}");
                prop_assert!(cs_ct.binary_search(&id).is_ok(), "CT-Index dropped {id}");
            }
        }
    }

    /// GraphCache answers equal baseline answers on random workloads.
    #[test]
    fn gc_equals_baseline(
        graphs in proptest::collection::vec(arb_graph(8, 3), 4..8),
        queries in proptest::collection::vec(arb_graph(5, 3), 5..12),
    ) {
        let d = GraphDataset::new(graphs);
        let method = MethodBuilder::ggsx().build(&d);
        let baseline = MethodBuilder::ggsx().build(&d);
        let cache = GraphCache::builder()
            .capacity(4)
            .window(2)
            .build(method);
        for q in &queries {
            let expected = baseline.run(q).answer;
            prop_assert_eq!(cache.run(q).answer, expected);
        }
    }
}

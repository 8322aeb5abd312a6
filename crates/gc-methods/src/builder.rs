//! Construction of [`Method`] instances.

use crate::method::Method;
use gc_graph::GraphDataset;
use gc_index::{CtConfig, CtIndex, FilterIndex, GgsxConfig, GrapesConfig, GrapesIndex, PathTrie};
use gc_subiso::{MatchConfig, Matcher, MatcherKind};
use std::sync::Arc;

/// The method configurations evaluated in the paper (§7.1), as a plain enum
/// for experiment plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// GraphGrepSX with VF2 verification.
    Ggsx,
    /// Grapes with 1 verification thread.
    Grapes1,
    /// Grapes with 6 verification threads.
    Grapes6,
    /// CT-Index with VF2+ verification.
    CtIndex,
    /// Direct VF2 over all dataset graphs.
    SiVf2,
    /// Direct VF2+ over all dataset graphs.
    SiVf2Plus,
    /// Direct GraphQL over all dataset graphs.
    SiGraphQl,
}

impl MethodKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Ggsx => "GGSX",
            MethodKind::Grapes1 => "Grapes1",
            MethodKind::Grapes6 => "Grapes6",
            MethodKind::CtIndex => "CT-Index",
            MethodKind::SiVf2 => "VF2",
            MethodKind::SiVf2Plus => "VF2+",
            MethodKind::SiGraphQl => "GQL",
        }
    }

    /// Every method, in registry-name order.
    pub const ALL: [MethodKind; 7] = [
        MethodKind::Ggsx,
        MethodKind::Grapes1,
        MethodKind::Grapes6,
        MethodKind::CtIndex,
        MethodKind::SiVf2,
        MethodKind::SiVf2Plus,
        MethodKind::SiGraphQl,
    ];

    /// The lowercase name used to select this method on the CLI and in
    /// config files — the same name-keyed selection style as
    /// `gc-core`'s policy registry.
    pub fn registry_name(self) -> &'static str {
        match self {
            MethodKind::Ggsx => "ggsx",
            MethodKind::Grapes1 => "grapes1",
            MethodKind::Grapes6 => "grapes6",
            MethodKind::CtIndex => "ct-index",
            MethodKind::SiVf2 => "vf2",
            MethodKind::SiVf2Plus => "vf2+",
            MethodKind::SiGraphQl => "gql",
        }
    }

    /// Resolves a registry name (or one of its aliases: `ct` for
    /// `ct-index`, `vf2plus` for `vf2+`, `graphql` for `gql`) to a kind.
    pub fn from_registry_name(name: &str) -> Option<MethodKind> {
        match name {
            "ggsx" => Some(MethodKind::Ggsx),
            "grapes1" => Some(MethodKind::Grapes1),
            "grapes6" => Some(MethodKind::Grapes6),
            "ct" | "ct-index" => Some(MethodKind::CtIndex),
            "vf2" => Some(MethodKind::SiVf2),
            "vf2+" | "vf2plus" => Some(MethodKind::SiVf2Plus),
            "gql" | "graphql" => Some(MethodKind::SiGraphQl),
            _ => None,
        }
    }

    /// All FTV methods (the ones with a dataset index).
    pub const FTV: [MethodKind; 4] = [
        MethodKind::CtIndex,
        MethodKind::Ggsx,
        MethodKind::Grapes1,
        MethodKind::Grapes6,
    ];

    /// The SI methods shown in Fig. 11.
    pub const SI: [MethodKind; 2] = [MethodKind::SiVf2Plus, MethodKind::SiGraphQl];

    /// Builds the corresponding method over a dataset.
    pub fn build(self, dataset: &GraphDataset) -> Method {
        self.builder().build(dataset)
    }

    /// The builder preconfigured for this kind.
    pub fn builder(self) -> MethodBuilder {
        match self {
            MethodKind::Ggsx => MethodBuilder::ggsx(),
            MethodKind::Grapes1 => MethodBuilder::grapes(1),
            MethodKind::Grapes6 => MethodBuilder::grapes(6),
            MethodKind::CtIndex => MethodBuilder::ct_index(),
            MethodKind::SiVf2 => MethodBuilder::si_vf2(),
            MethodKind::SiVf2Plus => MethodBuilder::si_vf2_plus(),
            MethodKind::SiGraphQl => MethodBuilder::si_graphql(),
        }
    }
}

enum FilterSpec {
    None,
    Ggsx(GgsxConfig),
    Grapes(GrapesConfig),
    Ct(CtConfig),
}

/// Fluent builder for [`Method`] instances.
///
/// ```
/// use gc_graph::{GraphDataset, LabeledGraph};
/// use gc_methods::MethodBuilder;
///
/// let d = GraphDataset::new(vec![LabeledGraph::from_parts(vec![0, 1], &[(0, 1)])]);
/// let method = MethodBuilder::ggsx().build(&d);
/// assert_eq!(method.name(), "GGSX");
/// ```
pub struct MethodBuilder {
    name: String,
    filter: FilterSpec,
    verifier: MatcherKind,
    threads: usize,
    match_config: MatchConfig,
}

impl MethodBuilder {
    /// GraphGrepSX: path-feature count filter (len ≤ 4) + VF2 (paper §7.1).
    pub fn ggsx() -> Self {
        MethodBuilder {
            name: "GGSX".into(),
            filter: FilterSpec::Ggsx(GgsxConfig::default()),
            verifier: MatcherKind::Vf2,
            threads: 1,
            match_config: MatchConfig::UNBOUNDED,
        }
    }

    /// GraphGrepSX with an explicit index configuration (the §7.3 ablation
    /// uses path length 5).
    pub fn ggsx_with(cfg: GgsxConfig) -> Self {
        MethodBuilder {
            name: "GGSX".into(),
            filter: FilterSpec::Ggsx(cfg),
            ..Self::ggsx()
        }
    }

    /// Grapes: located path postings + VF2 on `threads` verification threads
    /// (the paper evaluates Grapes1 and Grapes6).
    pub fn grapes(threads: usize) -> Self {
        MethodBuilder {
            name: format!("Grapes{threads}"),
            filter: FilterSpec::Grapes(GrapesConfig::default()),
            verifier: MatcherKind::Vf2,
            threads: threads.max(1),
            match_config: MatchConfig::UNBOUNDED,
        }
    }

    /// CT-Index: tree/cycle fingerprints + VF2+ (paper §7.1).
    pub fn ct_index() -> Self {
        MethodBuilder {
            name: "CT-Index".into(),
            filter: FilterSpec::Ct(CtConfig::default()),
            verifier: MatcherKind::Vf2Plus,
            threads: 1,
            match_config: MatchConfig::UNBOUNDED,
        }
    }

    /// CT-Index with an explicit configuration (the §7.3 ablation enlarges
    /// features and bitmap width).
    pub fn ct_index_with(cfg: CtConfig) -> Self {
        MethodBuilder {
            name: "CT-Index".into(),
            filter: FilterSpec::Ct(cfg),
            ..Self::ct_index()
        }
    }

    /// Direct VF2 (no index).
    pub fn si_vf2() -> Self {
        Self::si(MatcherKind::Vf2)
    }

    /// Direct VF2+ (no index).
    pub fn si_vf2_plus() -> Self {
        Self::si(MatcherKind::Vf2Plus)
    }

    /// Direct GraphQL (no index).
    pub fn si_graphql() -> Self {
        Self::si(MatcherKind::GraphQl)
    }

    /// A direct SI method using any matcher.
    pub fn si(kind: MatcherKind) -> Self {
        MethodBuilder {
            name: kind.name().into(),
            filter: FilterSpec::None,
            verifier: kind,
            threads: 1,
            match_config: MatchConfig::UNBOUNDED,
        }
    }

    /// Overrides the verifier algorithm.
    pub fn verifier(mut self, kind: MatcherKind) -> Self {
        self.verifier = kind;
        self
    }

    /// Overrides the verification thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets per-test search limits (used by benches as a hang guard).
    pub fn match_config(mut self, cfg: MatchConfig) -> Self {
        self.match_config = cfg;
        self
    }

    /// Overrides the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds the method, indexing a clone of `dataset`. Use
    /// [`MethodBuilder::build_arc`] to share an existing dataset without
    /// cloning.
    pub fn build(self, dataset: &GraphDataset) -> Method {
        self.build_arc(Arc::new(dataset.clone()))
    }

    /// Builds the method over a shared dataset.
    pub fn build_arc(self, dataset: Arc<GraphDataset>) -> Method {
        let filter: Option<Box<dyn FilterIndex>> = match self.filter {
            FilterSpec::None => None,
            FilterSpec::Ggsx(cfg) => Some(Box::new(PathTrie::build(&dataset, cfg))),
            FilterSpec::Grapes(cfg) => Some(Box::new(GrapesIndex::build(&dataset, cfg))),
            FilterSpec::Ct(cfg) => Some(Box::new(CtIndex::build(&dataset, cfg))),
        };
        let matcher: Arc<dyn Matcher> = self.verifier.build().into();
        Method {
            name: self.name,
            filter,
            matcher,
            dataset,
            threads: self.threads,
            match_config: self.match_config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::LabeledGraph;

    fn tiny() -> GraphDataset {
        GraphDataset::new(vec![LabeledGraph::from_parts(vec![0, 1], &[(0, 1)])])
    }

    #[test]
    fn kinds_build_with_expected_names() {
        let d = tiny();
        for kind in MethodKind::FTV.into_iter().chain(MethodKind::SI) {
            let m = kind.build(&d);
            assert_eq!(m.name(), kind.name());
        }
    }

    #[test]
    fn builder_overrides() {
        let d = tiny();
        let m = MethodBuilder::ggsx()
            .verifier(MatcherKind::GraphQl)
            .threads(3)
            .name("custom")
            .build(&d);
        assert_eq!(m.name(), "custom");
        assert_eq!(m.threads(), 3);
        assert_eq!(m.matcher().name(), "GQL");
    }

    #[test]
    fn grapes_thread_floor() {
        let d = tiny();
        let m = MethodBuilder::grapes(0).build(&d);
        assert_eq!(m.threads(), 1);
        assert_eq!(m.name(), "Grapes0"); // name reflects the requested count
    }

    #[test]
    fn shared_dataset_not_cloned() {
        let arc = Arc::new(tiny());
        let m = MethodBuilder::si_vf2().build_arc(arc.clone());
        assert!(Arc::ptr_eq(m.dataset(), &arc));
    }
}

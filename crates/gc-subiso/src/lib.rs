//! Subgraph isomorphism algorithms for GraphCache.
//!
//! The paper bundles GraphCache with three well-established SI methods —
//! VF2 \[Cordella et al. 2004\], a modified VF2 ("VF2+") and GraphQL
//! \[He & Singh 2008\] — and uses them both as standalone Method M instances
//! and as the verifiers of the FTV methods. This crate implements all three
//! plus Ullmann's algorithm (used as an independent referee in property
//! tests). VF2+ is not a second search: it is VF2's plan builder and
//! search with label rarity counted in the target instead of the pattern,
//! so it builds one plan per target.
//!
//! All matchers solve the **decision** version of non-induced, vertex-
//! labelled, undirected subgraph isomorphism (`g ⊆ G` of paper §3) and can
//! also enumerate embeddings. Each search counts its recursion steps
//! ("nodes expanded"), giving a deterministic work measure used by the
//! deterministic cost model, and accepts an optional budget so pathological
//! instances cannot hang a benchmark run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod cost;
mod graphql;
#[cfg(test)]
mod reference;
mod ullmann;
mod vf2;
mod vf2_plus;

pub use graphql::GraphQl;
pub use ullmann::Ullmann;
pub use vf2::Vf2;
pub use vf2_plus::Vf2Plus;

use gc_graph::{LabeledGraph, NodeId};

/// Search limits for a single sub-iso test.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchConfig {
    /// Maximum number of recursion steps ("nodes expanded") before the
    /// search gives up. `None` means unbounded. When the budget trips, the
    /// outcome reports `complete == false` and `found == false`.
    pub budget: Option<u64>,
}

impl MatchConfig {
    /// Unbounded search.
    pub const UNBOUNDED: MatchConfig = MatchConfig { budget: None };

    /// Search bounded to `budget` recursion steps.
    pub fn bounded(budget: u64) -> Self {
        MatchConfig {
            budget: Some(budget),
        }
    }
}

/// Outcome of a single sub-iso decision test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Whether an embedding of the pattern into the target was found.
    pub found: bool,
    /// False when the search aborted on budget exhaustion before reaching a
    /// decision; `found` is then necessarily `false`.
    pub complete: bool,
    /// Number of recursion steps performed — the deterministic work measure.
    pub nodes_expanded: u64,
}

/// Aggregate counters over many sub-iso tests (the Statistics Monitor feeds
/// on these; paper §5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of decision tests executed.
    pub tests: u64,
    /// Number of tests that found an embedding.
    pub positives: u64,
    /// Total recursion steps across all tests.
    pub nodes_expanded: u64,
    /// Number of tests that hit the budget.
    pub incomplete: u64,
}

impl MatchStats {
    /// Folds one outcome into the counters.
    pub fn record(&mut self, o: MatchOutcome) {
        self.tests += 1;
        self.positives += o.found as u64;
        self.nodes_expanded += o.nodes_expanded;
        self.incomplete += (!o.complete) as u64;
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &MatchStats) {
        self.tests += other.tests;
        self.positives += other.positives;
        self.nodes_expanded += other.nodes_expanded;
        self.incomplete += other.incomplete;
    }
}

/// A subgraph-isomorphism algorithm.
///
/// Implementations must be deterministic: the same `(pattern, target)` pair
/// always produces the same outcome and the same `nodes_expanded` count.
pub trait Matcher: Send + Sync {
    /// Short algorithm name as used in the paper ("VF2", "VF2+", "GQL", …).
    fn name(&self) -> &'static str;

    /// Decision test with explicit limits.
    fn contains_with(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
    ) -> MatchOutcome;

    /// One decision test of `pattern` against each of `targets`, appending
    /// the outcomes to `out` in target order. Equal to calling
    /// [`Matcher::contains_with`] per target (the default does exactly
    /// that); a matcher overrides it to prepare the pattern once for the
    /// whole sweep.
    fn contains_each(
        &self,
        pattern: &LabeledGraph,
        targets: &[&LabeledGraph],
        cfg: &MatchConfig,
        out: &mut Vec<MatchOutcome>,
    ) {
        out.extend(targets.iter().map(|t| self.contains_with(pattern, t, cfg)));
    }

    /// Unbounded decision test: is `pattern ⊆ target`?
    fn contains(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
        self.contains_with(pattern, target, &MatchConfig::UNBOUNDED)
            .found
    }

    /// Returns one embedding as a mapping `pattern node → target node`, if
    /// any exists.
    fn find_embedding(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> Option<Vec<NodeId>>;

    /// Counts embeddings up to `limit` (use `u64::MAX` for all). Two
    /// embeddings differ when any pattern node maps to a different target
    /// node — automorphisms of the pattern are counted separately, matching
    /// the usual "matching problem" semantics (paper §2).
    fn count_embeddings(&self, pattern: &LabeledGraph, target: &LabeledGraph, limit: u64) -> u64;
}

/// The paper's three matchers (§7.1), as a plain enum for configuration
/// plumbing. [`Ullmann`] is not one of them: it stays a public type, the
/// independent referee of the property tests, and no Method is built on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatcherKind {
    /// VF2 (used by several FTV implementations; paper §7.1), matching the
    /// most constrained pattern node first.
    Vf2,
    /// VF2 ordered by label rarity in the target, with a label-aware
    /// lookahead, standing in for the paper's "VF2+".
    Vf2Plus,
    /// GraphQL-style matching (candidate refinement + backtracking).
    GraphQl,
}

impl MatcherKind {
    /// Instantiates the matcher.
    pub fn build(self) -> Box<dyn Matcher> {
        match self {
            MatcherKind::Vf2 => Box::new(Vf2::new()),
            MatcherKind::Vf2Plus => Box::new(Vf2Plus::new()),
            MatcherKind::GraphQl => Box::new(GraphQl::new()),
        }
    }

    /// All three matchers (useful for agreement tests).
    pub const ALL: [MatcherKind; 3] =
        [MatcherKind::Vf2, MatcherKind::Vf2Plus, MatcherKind::GraphQl];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::Vf2 => "VF2",
            MatcherKind::Vf2Plus => "VF2+",
            MatcherKind::GraphQl => "GQL",
        }
    }
}

/// Verifies that an explicit mapping is a valid non-induced embedding —
/// shared by tests and by the matchers' debug assertions.
pub fn is_valid_embedding(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    mapping: &[NodeId],
) -> bool {
    if mapping.len() != pattern.node_count() {
        return false;
    }
    // Injectivity.
    let mut seen = vec![false; target.node_count()];
    for &t in mapping {
        if t as usize >= target.node_count() || seen[t as usize] {
            return false;
        }
        seen[t as usize] = true;
    }
    // Labels.
    for u in pattern.nodes() {
        if pattern.label(u) != target.label(mapping[u as usize]) {
            return false;
        }
    }
    // Edges (non-induced: only pattern edges must be present).
    for (u, v) in pattern.edges() {
        if !target.has_edge(mapping[u as usize], mapping[v as usize]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_stats_accumulate() {
        let mut s = MatchStats::default();
        s.record(MatchOutcome {
            found: true,
            complete: true,
            nodes_expanded: 10,
        });
        s.record(MatchOutcome {
            found: false,
            complete: false,
            nodes_expanded: 5,
        });
        assert_eq!(s.tests, 2);
        assert_eq!(s.positives, 1);
        assert_eq!(s.nodes_expanded, 15);
        assert_eq!(s.incomplete, 1);

        let mut t = MatchStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.tests, 4);
    }

    #[test]
    fn matcher_kind_builds_all() {
        for kind in MatcherKind::ALL {
            let m = kind.build();
            assert_eq!(m.name(), kind.name());
        }
    }

    #[test]
    fn embedding_validator() {
        let p = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let t = LabeledGraph::from_parts(vec![1, 0, 2], &[(0, 1), (1, 2)]);
        assert!(is_valid_embedding(&p, &t, &[1, 0]));
        assert!(!is_valid_embedding(&p, &t, &[0, 1])); // wrong labels
        assert!(!is_valid_embedding(&p, &t, &[1, 1])); // not injective
        assert!(!is_valid_embedding(&p, &t, &[1])); // wrong arity
        assert!(!is_valid_embedding(&p, &t, &[1, 9])); // out of range
    }
}

//! Test-only references, kept so the proptests below can prove the
//! matchers right:
//!
//! * [`quick_reject`] — the `HashMap` label-count predicate, which the
//!   counting part of the shape-reading quick reject must equal (the
//!   cycle part is held to the id-order reference's answers instead);
//! * [`vf2::Vf2`] — VF2 visiting pattern nodes in id order, re-deriving the
//!   next node at every recursion call. The most-constrained-first VF2
//!   expands different search nodes, so it is held to the reference's
//!   *answers*: decisions, counts and embeddings;
//! * [`vf2_label_blind::Vf2`] — the compiled VF2 on the same plan, with the
//!   lookahead that counts free target neighbours of any label. The
//!   shipped VF2's label-aware lookahead only cuts branches this one
//!   explores, so it is held to the same outcomes under any budget that
//!   does not trip, the same counts and embeddings, and at most the same
//!   `nodes_expanded`;
//! * [`vf2_plus::Vf2Plus`] — VF2+ as its own search: an O(|V|²) plan
//!   builder, a lookahead that allocates per call and a `HashMap` label
//!   index behind the shipped quick reject. The shipped VF2+ runs VF2's
//!   plan builder and search with rarity counted in the target, and must
//!   equal this one step for step.

use gc_graph::{Label, LabeledGraph};
use std::collections::HashMap;

/// Cheap necessary conditions for `pattern ⊆ target`; returning `false`
/// proves non-containment without any search.
pub(crate) fn quick_reject(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    if pattern.node_count() > target.node_count() || pattern.edge_count() > target.edge_count() {
        return true;
    }
    // Label multiset containment.
    let pc = label_counts(pattern);
    let tc = label_counts(target);
    for (l, n) in &pc {
        if tc.get(l).copied().unwrap_or(0) < *n {
            return true;
        }
    }
    // Sorted-descending degree dominance: the i-th largest pattern degree
    // must not exceed the i-th largest target degree (each pattern node
    // needs a distinct image of at least its own degree).
    let mut pd: Vec<usize> = pattern.nodes().map(|v| pattern.degree(v)).collect();
    let mut td: Vec<usize> = target.nodes().map(|v| target.degree(v)).collect();
    pd.sort_unstable_by(|a, b| b.cmp(a));
    td.sort_unstable_by(|a, b| b.cmp(a));
    pd.iter().zip(td.iter()).any(|(p, t)| p > t)
}

/// Label → occurrence count.
pub(crate) fn label_counts(g: &LabeledGraph) -> HashMap<Label, u32> {
    let mut m = HashMap::with_capacity(g.node_count().min(64));
    for &l in g.labels() {
        *m.entry(l).or_insert(0) += 1;
    }
    m
}

/// VF2 choosing its next pattern node, in id order, on every recursion call.
pub(crate) mod vf2 {
    use super::quick_reject;
    use crate::common::{Found, Work};
    use crate::vf2::Driver;
    use crate::{MatchConfig, MatchOutcome, Matcher};
    use gc_graph::{LabeledGraph, NodeId};
    use std::ops::ControlFlow;

    /// The id-order VF2.
    pub(crate) struct Vf2;

    impl Matcher for Vf2 {
        fn name(&self) -> &'static str {
            "VF2 (id order)"
        }

        fn contains_with(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            cfg: &MatchConfig,
        ) -> MatchOutcome {
            let mut driver = Driver::decide();
            run(pattern, target, cfg, &mut driver)
        }

        fn find_embedding(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
        ) -> Option<Vec<NodeId>> {
            let mut driver = Driver::find();
            run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
            driver.embedding
        }

        fn count_embeddings(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            limit: u64,
        ) -> u64 {
            let mut driver = Driver::count(limit);
            run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
            driver.count
        }
    }

    fn run(
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
        driver: &mut Driver,
    ) -> MatchOutcome {
        if pattern.node_count() == 0 {
            // The empty pattern embeds vacuously (one empty embedding).
            driver.on_embedding(&[]);
            return MatchOutcome {
                found: true,
                complete: true,
                nodes_expanded: 0,
            };
        }
        let mut work = Work::new(cfg.budget);
        if !quick_reject(pattern, target) {
            let mut st = State {
                p: pattern,
                t: target,
                core_p: vec![None; pattern.node_count()],
                used_t: vec![false; target.node_count()],
                mapped: 0,
            };
            let _ = search(&mut st, &mut work, driver);
        }
        MatchOutcome {
            found: driver.found,
            complete: !work.exhausted,
            nodes_expanded: work.nodes,
        }
    }

    struct State<'a> {
        p: &'a LabeledGraph,
        t: &'a LabeledGraph,
        core_p: Vec<Option<NodeId>>,
        used_t: Vec<bool>,
        mapped: usize,
    }

    impl State<'_> {
        /// Picks the next pattern node: the lowest-id unmapped node adjacent to
        /// the mapped core, or the lowest-id unmapped node if none (handles
        /// disconnected patterns).
        fn next_pattern_node(&self) -> (NodeId, Option<NodeId>) {
            let mut fallback = None;
            for u in self.p.nodes() {
                if self.core_p[u as usize].is_some() {
                    continue;
                }
                if fallback.is_none() {
                    fallback = Some(u);
                }
                if let Some(&w) = self
                    .p
                    .neighbors(u)
                    .iter()
                    .find(|&&w| self.core_p[w as usize].is_some())
                {
                    return (u, Some(w));
                }
            }
            (fallback.expect("at least one unmapped node"), None)
        }

        /// VF2 feasibility of the candidate pair `(u, v)`.
        fn feasible(&self, u: NodeId, v: NodeId) -> bool {
            if self.p.label(u) != self.t.label(v) || self.used_t[v as usize] {
                return false;
            }
            if self.p.degree(u) > self.t.degree(v) {
                return false;
            }
            // Consistency: every mapped neighbour of u must map to a neighbour
            // of v (non-induced: no converse requirement).
            let mut unmapped_p_nbrs = 0usize;
            for &w in self.p.neighbors(u) {
                match self.core_p[w as usize] {
                    Some(img) => {
                        if !self.t.has_edge(img, v) {
                            return false;
                        }
                    }
                    None => unmapped_p_nbrs += 1,
                }
            }
            // One-step lookahead: the unmapped pattern neighbours of u need
            // distinct unmapped target neighbours of v.
            let unmapped_t_nbrs = self
                .t
                .neighbors(v)
                .iter()
                .filter(|&&x| !self.used_t[x as usize])
                .count();
            unmapped_p_nbrs <= unmapped_t_nbrs
        }
    }

    fn search(st: &mut State<'_>, work: &mut Work, driver: &mut Driver) -> ControlFlow<()> {
        if st.mapped == st.p.node_count() {
            return match driver.on_embedding(&st.core_p) {
                Found::Stop => ControlFlow::Break(()),
                Found::Continue => ControlFlow::Continue(()),
            };
        }
        let (u, anchor) = st.next_pattern_node();
        match anchor {
            Some(w) => {
                // Candidates: unmapped target neighbours of the image of w.
                let img = st.core_p[w as usize].expect("anchor is mapped");
                let nbrs: &[NodeId] = st.t.neighbors(img);
                // Index loop (not iterator): the body re-borrows `st` mutably.
                #[allow(clippy::needless_range_loop)]
                for i in 0..nbrs.len() {
                    let v = nbrs[i];
                    work.step()?;
                    if st.feasible(u, v) {
                        st.core_p[u as usize] = Some(v);
                        st.used_t[v as usize] = true;
                        st.mapped += 1;
                        let flow = search(st, work, driver);
                        st.core_p[u as usize] = None;
                        st.used_t[v as usize] = false;
                        st.mapped -= 1;
                        flow?;
                    }
                }
            }
            None => {
                for v in st.t.nodes() {
                    work.step()?;
                    if st.feasible(u, v) {
                        st.core_p[u as usize] = Some(v);
                        st.used_t[v as usize] = true;
                        st.mapped += 1;
                        let flow = search(st, work, driver);
                        st.core_p[u as usize] = None;
                        st.used_t[v as usize] = false;
                        st.mapped -= 1;
                        flow?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// The compiled VF2 with the lookahead it had before it read labels: a
/// candidate needs only as many unused target neighbours, of any label, as
/// its node has pattern neighbours mapped later. Same plan, same order, so
/// the shipped VF2 must expand no more nodes than this on any test.
pub(crate) mod vf2_label_blind {
    use super::quick_reject;
    use crate::common::{Found, Work};
    use crate::vf2::{Driver, Plan, Rarity, Step};
    use crate::{MatchConfig, MatchOutcome, Matcher};
    use gc_graph::{LabeledGraph, NodeId};
    use std::ops::ControlFlow;

    /// The label-blind compiled VF2.
    pub(crate) struct Vf2;

    impl Matcher for Vf2 {
        fn name(&self) -> &'static str {
            "VF2 (label-blind lookahead)"
        }

        fn contains_with(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            cfg: &MatchConfig,
        ) -> MatchOutcome {
            run(pattern, target, cfg, &mut Driver::decide())
        }

        fn find_embedding(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
        ) -> Option<Vec<NodeId>> {
            let mut driver = Driver::find();
            run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
            driver.embedding
        }

        fn count_embeddings(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            limit: u64,
        ) -> u64 {
            let mut driver = Driver::count(limit);
            run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
            driver.count
        }
    }

    fn run(
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
        driver: &mut Driver,
    ) -> MatchOutcome {
        if pattern.node_count() == 0 {
            driver.on_embedding(&[]);
            return MatchOutcome {
                found: true,
                complete: true,
                nodes_expanded: 0,
            };
        }
        let mut work = Work::new(cfg.budget);
        if !quick_reject(pattern, target) {
            let plan = Plan::build(pattern, Rarity::Pattern);
            let mut st = State {
                plan: &plan,
                t: target,
                core_p: vec![None; pattern.node_count()],
                img: vec![0; pattern.node_count()],
                used: vec![false; target.node_count()],
            };
            let _ = search(&mut st, 0, &mut work, driver);
        }
        MatchOutcome {
            found: driver.found,
            complete: !work.exhausted,
            nodes_expanded: work.nodes,
        }
    }

    struct State<'a> {
        plan: &'a Plan,
        t: &'a LabeledGraph,
        core_p: Vec<Option<NodeId>>,
        img: Vec<NodeId>,
        used: Vec<bool>,
    }

    impl State<'_> {
        fn feasible(&self, step: &Step, v: NodeId) -> bool {
            let t = self.t;
            if step.label != t.label(v) || self.used[v as usize] {
                return false;
            }
            if step.degree as usize > t.degree(v) {
                return false;
            }
            let back = &self.plan.back[step.back_lo as usize..step.back_hi as usize];
            if back.iter().any(|&b| !t.has_edge(self.img[b as usize], v)) {
                return false;
            }
            // The pattern neighbours mapped later, whatever their labels.
            let need: u32 = self.plan.back[step.back_hi as usize..step.ahead_hi as usize]
                .chunks_exact(2)
                .map(|pair| pair[1])
                .sum();
            let free = t.neighbors(v).iter().filter(|&&x| !self.used[x as usize]);
            free.count() as u32 >= need
        }
    }

    fn search(
        st: &mut State<'_>,
        depth: usize,
        work: &mut Work,
        driver: &mut Driver,
    ) -> ControlFlow<()> {
        let plan = st.plan;
        let Some(step) = plan.steps.get(depth) else {
            return match driver.on_embedding(&st.core_p) {
                Found::Stop => ControlFlow::Break(()),
                Found::Continue => ControlFlow::Continue(()),
            };
        };
        let t = st.t;
        let cands = match step.anchor {
            Some(a) => t.neighbors(st.img[a as usize]),
            None => t.nodes_with_label(step.label),
        };
        for &v in cands {
            work.step()?;
            if st.feasible(step, v) {
                st.img[depth] = v;
                st.core_p[step.node as usize] = Some(v);
                st.used[v as usize] = true;
                let flow = search(st, depth + 1, work, driver);
                st.core_p[step.node as usize] = None;
                st.used[v as usize] = false;
                flow?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// VF2+ whose lookahead collects and sorts two fresh vectors per call.
pub(crate) mod vf2_plus {
    use crate::common::{quick_reject, sorted_multiset_contained, Found, Work};
    use crate::vf2::Driver;
    use crate::{MatchConfig, MatchOutcome, Matcher};
    use gc_graph::{Label, LabeledGraph, NodeId};
    use std::collections::HashMap;
    use std::ops::ControlFlow;

    /// The allocating VF2+.
    pub(crate) struct Vf2Plus;

    impl Matcher for Vf2Plus {
        fn name(&self) -> &'static str {
            "VF2+ (allocating lookahead)"
        }

        fn contains_with(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            cfg: &MatchConfig,
        ) -> MatchOutcome {
            let mut driver = Driver::decide();
            run(pattern, target, cfg, &mut driver)
        }

        fn find_embedding(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
        ) -> Option<Vec<NodeId>> {
            let mut driver = Driver::find();
            run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
            driver.embedding
        }

        fn count_embeddings(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            limit: u64,
        ) -> u64 {
            let mut driver = Driver::count(limit);
            run(pattern, target, &MatchConfig::UNBOUNDED, &mut driver);
            driver.count
        }
    }

    fn run(
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        cfg: &MatchConfig,
        driver: &mut Driver,
    ) -> MatchOutcome {
        if pattern.node_count() == 0 {
            driver.on_embedding(&[]);
            return MatchOutcome {
                found: true,
                complete: true,
                nodes_expanded: 0,
            };
        }
        let mut work = Work::new(cfg.budget);
        if !quick_reject(pattern, target) {
            let plan = Plan::build(pattern, target);
            let mut st = State {
                p: pattern,
                t: target,
                plan: &plan,
                core_p: vec![None; pattern.node_count()],
                used_t: vec![false; target.node_count()],
            };
            let _ = search(&mut st, 0, &mut work, driver);
        }
        MatchOutcome {
            found: driver.found,
            complete: !work.exhausted,
            nodes_expanded: work.nodes,
        }
    }

    /// Static search plan: pattern-node visit order plus, for each position, an
    /// anchor (an earlier-ordered pattern neighbour) when one exists.
    struct Plan {
        order: Vec<NodeId>,
        anchor: Vec<Option<NodeId>>,
        label_index: HashMap<Label, Vec<NodeId>>,
    }

    impl Plan {
        fn build(p: &LabeledGraph, t: &LabeledGraph) -> Plan {
            // Target label frequencies: rare labels first.
            let mut freq: HashMap<Label, u32> = HashMap::new();
            for &l in t.labels() {
                *freq.entry(l).or_insert(0) += 1;
            }
            let rarity = |u: NodeId| freq.get(&p.label(u)).copied().unwrap_or(0);

            let n = p.node_count();
            let mut order: Vec<NodeId> = Vec::with_capacity(n);
            let mut anchor: Vec<Option<NodeId>> = Vec::with_capacity(n);
            let mut placed = vec![false; n];
            let mut connectivity = vec![0u32; n]; // # already-ordered neighbours
            for _ in 0..n {
                // Greatest constraint first: maximise connectivity to the
                // ordered prefix, then minimise label frequency in the target,
                // then maximise degree; node id breaks remaining ties.
                let best = p
                    .nodes()
                    .filter(|&u| !placed[u as usize])
                    .min_by(|&a, &b| {
                        connectivity[b as usize]
                            .cmp(&connectivity[a as usize])
                            .then(rarity(a).cmp(&rarity(b)))
                            .then(p.degree(b).cmp(&p.degree(a)))
                            .then(a.cmp(&b))
                    })
                    .expect("unplaced node exists");
                placed[best as usize] = true;
                // Anchor: the earliest-ordered neighbour, if any.
                let a = order.iter().copied().find(|&w| p.has_edge(w, best));
                order.push(best);
                anchor.push(a);
                for &w in p.neighbors(best) {
                    connectivity[w as usize] += 1;
                }
            }

            let mut label_index: HashMap<Label, Vec<NodeId>> = HashMap::new();
            for v in t.nodes() {
                label_index.entry(t.label(v)).or_default().push(v);
            }
            Plan {
                order,
                anchor,
                label_index,
            }
        }
    }

    struct State<'a> {
        p: &'a LabeledGraph,
        t: &'a LabeledGraph,
        plan: &'a Plan,
        core_p: Vec<Option<NodeId>>,
        used_t: Vec<bool>,
    }

    impl State<'_> {
        fn feasible(&self, u: NodeId, v: NodeId) -> bool {
            if self.p.label(u) != self.t.label(v) || self.used_t[v as usize] {
                return false;
            }
            if self.p.degree(u) > self.t.degree(v) {
                return false;
            }
            let mut unmapped_p_labels: Vec<Label> = Vec::new();
            for &w in self.p.neighbors(u) {
                match self.core_p[w as usize] {
                    Some(img) => {
                        if !self.t.has_edge(img, v) {
                            return false;
                        }
                    }
                    None => unmapped_p_labels.push(self.p.label(w)),
                }
            }
            if unmapped_p_labels.is_empty() {
                return true;
            }
            // Label-aware lookahead: each unmapped pattern neighbour needs a
            // distinct unmapped target neighbour carrying the same label.
            let mut unmapped_t_labels: Vec<Label> = self
                .t
                .neighbors(v)
                .iter()
                .filter(|&&x| !self.used_t[x as usize])
                .map(|&x| self.t.label(x))
                .collect();
            unmapped_p_labels.sort_unstable();
            unmapped_t_labels.sort_unstable();
            sorted_multiset_contained(
                unmapped_p_labels.iter().copied(),
                unmapped_t_labels.iter().copied(),
            )
        }
    }

    fn search(
        st: &mut State<'_>,
        depth: usize,
        work: &mut Work,
        driver: &mut Driver,
    ) -> ControlFlow<()> {
        if depth == st.plan.order.len() {
            return match driver.on_embedding(&st.core_p) {
                Found::Stop => ControlFlow::Break(()),
                Found::Continue => ControlFlow::Continue(()),
            };
        }
        let u = st.plan.order[depth];
        match st.plan.anchor[depth] {
            Some(w) => {
                let img = st.core_p[w as usize].expect("anchor ordered earlier");
                let nbrs = st.t.neighbors(img);
                // Index loop (not iterator): the body re-borrows `st` mutably.
                #[allow(clippy::needless_range_loop)]
                for i in 0..nbrs.len() {
                    let v = nbrs[i];
                    work.step()?;
                    if st.feasible(u, v) {
                        descend(st, depth, u, v, work, driver)?;
                    }
                }
            }
            None => {
                if let Some(cands) = st.plan.label_index.get(&st.p.label(u)) {
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..cands.len() {
                        let v = cands[i];
                        work.step()?;
                        if st.feasible(u, v) {
                            descend(st, depth, u, v, work, driver)?;
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    #[inline]
    fn descend(
        st: &mut State<'_>,
        depth: usize,
        u: NodeId,
        v: NodeId,
        work: &mut Work,
        driver: &mut Driver,
    ) -> ControlFlow<()> {
        st.core_p[u as usize] = Some(v);
        st.used_t[v as usize] = true;
        let flow = search(st, depth + 1, work, driver);
        st.core_p[u as usize] = None;
        st.used_t[v as usize] = false;
        flow
    }
}

/// The matchers against the references on random labelled graphs: small
/// alphabets (so labels rarely reject), empty and disconnected patterns,
/// node-prefix patterns (so many tests succeed deep in the search) and
/// random budgets, many of which trip mid-search. Then every test Method M
/// runs on an AIDS-shaped corpus.
#[cfg(test)]
mod tests {
    use crate::{common, is_valid_embedding, MatchConfig, MatchOutcome, Matcher, Vf2, Vf2Plus};
    use gc_graph::LabeledGraph;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A graph with up to `max_nodes` nodes over `labels` labels and up to
    /// twice as many edges as nodes (possibly disconnected, possibly empty).
    fn arb_graph(max_nodes: usize, labels: u32) -> impl Strategy<Value = LabeledGraph> {
        (0..=max_nodes)
            .prop_flat_map(move |n| (vec(0..labels, n), vec((0..64u32, 0..64u32), 0..2 * n + 1)))
            .prop_map(|(ls, es)| {
                let n = ls.len() as u32;
                let edges: Vec<(u32, u32)> = if n == 0 {
                    Vec::new()
                } else {
                    es.iter().map(|&(a, b)| (a % n, b % n)).collect()
                };
                LabeledGraph::from_parts(ls, &edges)
            })
    }

    /// The subgraph of `t` on its first `k` nodes, minus the edges whose
    /// index has its bit set in `drop_mask` — a pattern that often embeds.
    fn prefix_pattern(t: &LabeledGraph, k: usize, drop_mask: u64) -> LabeledGraph {
        let k = k.min(t.node_count());
        let edges: Vec<(u32, u32)> = t
            .edges()
            .filter(|&(u, v)| (u as usize) < k && (v as usize) < k)
            .enumerate()
            .filter(|(i, _)| (drop_mask >> (i % 64)) & 1 == 0)
            .map(|(_, e)| e)
            .collect();
        LabeledGraph::from_parts(t.labels()[..k].to_vec(), &edges)
    }

    /// `None` (unbounded) one time in four; otherwise a budget small
    /// enough to trip on a fair share of the searches.
    fn budget(raw: u64) -> MatchConfig {
        match raw % 80 {
            b if b >= 60 => MatchConfig::UNBOUNDED,
            b => MatchConfig::bounded(b),
        }
    }

    fn limit(raw: u64) -> u64 {
        match raw % 12 {
            0 => u64::MAX,
            l => l,
        }
    }

    /// Both patterns a case exercises: a random one and a prefix of the
    /// target.
    fn patterns(p: LabeledGraph, t: &LabeledGraph, k: usize, drop_mask: u64) -> [LabeledGraph; 2] {
        [p, prefix_pattern(t, k, drop_mask)]
    }

    /// The patterns the cycle rule is tested on: those of [`patterns`],
    /// the target's whole prefix, which keeps every cycle among its first
    /// `k` nodes, and a ring through the labels of those nodes, which the
    /// counting conditions often pass whether or not the target has a
    /// cycle that long.
    fn cycle_patterns(
        p: LabeledGraph,
        t: &LabeledGraph,
        k: usize,
        drop_mask: u64,
    ) -> [LabeledGraph; 4] {
        let k = k.min(t.node_count());
        let ring: Vec<(u32, u32)> = (0..k as u32).map(|i| (i, (i + 1) % k as u32)).collect();
        let ring = LabeledGraph::from_parts(t.labels()[..k].to_vec(), &ring);
        let [p, prefix] = patterns(p, t, k, drop_mask);
        [p, prefix, prefix_pattern(t, k, 0), ring]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn compiled_vf2_decides_like_the_id_order_reference(
            p in arb_graph(7, 3),
            t in arb_graph(10, 3),
            (k, drop_mask) in (0..9usize, any::<u64>()),
            raw in any::<u64>(),
        ) {
            let cfg = budget(raw);
            for p in &patterns(p, &t, k, drop_mask) {
                let free = Vf2.contains_with(p, &t, &MatchConfig::UNBOUNDED);
                prop_assert!(free.complete);
                prop_assert_eq!(
                    free.found,
                    super::vf2::Vf2.contains(p, &t),
                    "{:?} in {:?}", p, t
                );
                // A search the budget did not stop is the unbounded one; a
                // stopped one ran one step past its budget and found nothing.
                let bounded = Vf2.contains_with(p, &t, &cfg);
                if bounded.complete {
                    prop_assert_eq!(bounded, free, "{:?} in {:?} under {:?}", p, t, cfg);
                } else {
                    prop_assert!(!bounded.found);
                    prop_assert_eq!(Some(bounded.nodes_expanded), cfg.budget.map(|b| b + 1));
                }
            }
        }

        #[test]
        fn compiled_vf2_counts_and_finds_like_the_reference(
            p in arb_graph(6, 2),
            t in arb_graph(9, 2),
            (k, drop_mask) in (0..7usize, any::<u64>()),
            raw in any::<u64>(),
        ) {
            for p in &patterns(p, &t, k, drop_mask) {
                for limit in [1, 2, 3, 4, limit(raw), u64::MAX] {
                    prop_assert_eq!(
                        Vf2.count_embeddings(p, &t, limit),
                        super::vf2::Vf2.count_embeddings(p, &t, limit),
                        "limit {}: {:?} in {:?}", limit, p, t
                    );
                }
                let found = Vf2.find_embedding(p, &t);
                prop_assert_eq!(found.is_some(), super::vf2::Vf2.find_embedding(p, &t).is_some());
                if let Some(embedding) = found {
                    prop_assert!(is_valid_embedding(p, &t, &embedding), "{:?}", embedding);
                }
            }
        }

        #[test]
        fn label_aware_lookahead_cuts_only_dead_branches(
            p in arb_graph(7, 3),
            t in arb_graph(10, 3),
            (k, drop_mask) in (0..9usize, any::<u64>()),
            raw in any::<u64>(),
        ) {
            let blind = super::vf2_label_blind::Vf2;
            let cfg = budget(raw);
            for p in &patterns(p, &t, k, drop_mask) {
                let free = Vf2.contains_with(p, &t, &MatchConfig::UNBOUNDED);
                let free_blind = blind.contains_with(p, &t, &MatchConfig::UNBOUNDED);
                prop_assert!(free.complete && free_blind.complete);
                prop_assert_eq!(free.found, free_blind.found, "{:?} in {:?}", p, t);
                prop_assert!(
                    free.nodes_expanded <= free_blind.nodes_expanded,
                    "{} > {} nodes: {:?} in {:?}",
                    free.nodes_expanded, free_blind.nodes_expanded, p, t
                );
                // A budget trips as it always did, and never where the
                // label-blind search finished within it.
                let bounded = Vf2.contains_with(p, &t, &cfg);
                if bounded.complete {
                    prop_assert_eq!(bounded, free);
                } else {
                    prop_assert!(!bounded.found);
                    prop_assert_eq!(Some(bounded.nodes_expanded), cfg.budget.map(|b| b + 1));
                    prop_assert!(!blind.contains_with(p, &t, &cfg).complete);
                }
                for limit in [1, 2, 3, limit(raw), u64::MAX] {
                    prop_assert_eq!(
                        Vf2.count_embeddings(p, &t, limit),
                        blind.count_embeddings(p, &t, limit),
                        "limit {}: {:?} in {:?}", limit, p, t
                    );
                }
                // The cut branches hold no embedding, so the first one
                // found is the same.
                let found = Vf2.find_embedding(p, &t);
                prop_assert_eq!(&found, &blind.find_embedding(p, &t));
                if let Some(embedding) = found {
                    prop_assert!(is_valid_embedding(p, &t, &embedding), "{:?}", embedding);
                }
            }
        }

        #[test]
        fn narrow_plan_priorities_order_like_wide_ones(
            p in arb_graph(12, 3),
            t in arb_graph(12, 4),
            (k, drop_mask) in (0..13usize, any::<u64>()),
        ) {
            use crate::vf2::{Plan, Rarity};
            for p in &patterns(p.clone(), &p, k, drop_mask) {
                if p.node_count() > 0 {
                    for rarity in [Rarity::Pattern, Rarity::Target(&t)] {
                        prop_assert_eq!(
                            Plan::build_with::<u64>(p, rarity),
                            Plan::build_with::<u128>(p, rarity)
                        );
                    }
                }
            }
        }

        #[test]
        fn contains_each_equals_the_per_target_loop(
            p in arb_graph(6, 3),
            targets in vec(arb_graph(10, 3), 0..6),
            (k, drop_mask) in (0..7usize, any::<u64>()),
            raw in any::<u64>(),
        ) {
            let cfg = budget(raw);
            let refs: Vec<&LabeledGraph> = targets.iter().collect();
            let pats = match targets.first() {
                Some(t) => patterns(p, t, k, drop_mask).to_vec(),
                None => vec![p],
            };
            for p in &pats {
                let per_pair: Vec<MatchOutcome> =
                    refs.iter().map(|t| Vf2.contains_with(p, t, &cfg)).collect();
                let mut each = Vec::new();
                Vf2.contains_each(p, &refs, &cfg, &mut each);
                prop_assert_eq!(&each, &per_pair);
                // VF2+ reuses the buffers but builds a plan per target.
                let per_pair: Vec<MatchOutcome> =
                    refs.iter().map(|t| Vf2Plus.contains_with(p, t, &cfg)).collect();
                let mut default = Vec::new();
                Vf2Plus.contains_each(p, &refs, &cfg, &mut default);
                prop_assert_eq!(&default, &per_pair);
            }
        }

        #[test]
        fn sorted_quick_reject_equals_the_hashmap_predicate(
            p in arb_graph(8, 3),
            t in arb_graph(8, 3),
            (k, drop_mask) in (0..9usize, any::<u64>()),
            edges in vec((0..64u32, 0..64u32), 0..12),
        ) {
            // Also a pattern on the target's first k labels with edges of
            // its own: label containment holds, so the size and degree
            // clauses decide.
            let k = k.min(t.node_count());
            let own: Vec<(u32, u32)> = match k as u32 {
                0 => Vec::new(),
                n => edges.iter().map(|&(a, b)| (a % n, b % n)).collect(),
            };
            let relabelled = LabeledGraph::from_parts(t.labels()[..k].to_vec(), &own);
            let [p, prefix] = patterns(p, &t, k, drop_mask);
            for p in &[p, prefix, relabelled] {
                prop_assert_eq!(
                    common::counts_reject(p, &t),
                    super::quick_reject(p, &t),
                    "{:?} vs {:?}", p, t
                );
                prop_assert_eq!(
                    common::quick_reject(p, &t),
                    common::counts_reject(p, &t) || common::lacks_a_cycle(p, &t)
                );
            }
        }

        #[test]
        fn cycle_rule_never_refuses_an_embedding(
            p in arb_graph(7, 2),
            t in arb_graph(10, 2),
            (k, drop_mask) in (0..11usize, any::<u64>()),
        ) {
            // Two labels and up to twice as many edges as nodes, so most
            // graphs hold short cycles; the prefixes are extracted
            // subgraphs of the target, one with every cycle among its
            // nodes. The id-order reference runs behind the cycle-blind
            // predicate.
            for p in &cycle_patterns(p, &t, k, drop_mask) {
                if super::vf2::Vf2.contains(p, &t) {
                    prop_assert!(!common::lacks_a_cycle(p, &t), "{:?} in {:?}", p, &t);
                    prop_assert!(!common::quick_reject(p, &t), "{:?} in {:?}", p, &t);
                }
            }
        }

        #[test]
        fn vf2_plus_scratch_lookahead_equals_the_allocating_one(
            p in arb_graph(7, 3),
            t in arb_graph(10, 3),
            (k, drop_mask) in (0..9usize, any::<u64>()),
            raw in any::<u64>(),
        ) {
            let cfg = budget(raw);
            for p in &patterns(p, &t, k, drop_mask) {
                prop_assert_eq!(
                    Vf2Plus.contains_with(p, &t, &cfg),
                    super::vf2_plus::Vf2Plus.contains_with(p, &t, &cfg)
                );
                if p.node_count() <= 6 {
                    prop_assert_eq!(
                        Vf2Plus.count_embeddings(p, &t, limit(raw)),
                        super::vf2_plus::Vf2Plus.count_embeddings(p, &t, limit(raw))
                    );
                }
                prop_assert_eq!(
                    Vf2Plus.find_embedding(p, &t),
                    super::vf2_plus::Vf2Plus.find_embedding(p, &t)
                );
            }
        }
    }

    #[test]
    fn the_cases_reach_budget_trips_and_deep_positives() {
        // Guards the generators: the properties above are only as strong as
        // the share of cases that trip a budget mid-search or find an
        // embedding several levels down.
        let mut rng = proptest::test_runner::new_rng();
        let (mut tripped, mut deep_found) = (0, 0);
        for _ in 0..512 {
            let t = arb_graph(10, 3).generate(&mut rng);
            let k = (0..9usize).generate(&mut rng);
            let p = prefix_pattern(&t, k, any::<u64>().generate(&mut rng));
            let cfg = budget(any::<u64>().generate(&mut rng));
            let out = Vf2.contains_with(&p, &t, &cfg);
            tripped += !out.complete as u32;
            deep_found += (out.found && p.node_count() >= 4) as u32;
        }
        assert!(tripped >= 20, "only {tripped} budget trips");
        assert!(deep_found >= 50, "only {deep_found} deep positives");
    }

    #[test]
    fn the_cycle_cases_reach_cyclic_positives_and_refusals() {
        // Guards the generator of `cycle_rule_never_refuses_an_embedding`:
        // it is only as strong as the share of embedded patterns that hold
        // a short cycle, and of pairs the cycle rule alone refuses.
        let mut rng = proptest::test_runner::new_rng();
        let (mut cyclic_found, mut refused) = (0, 0);
        for _ in 0..512 {
            let p = arb_graph(7, 2).generate(&mut rng);
            let t = arb_graph(10, 2).generate(&mut rng);
            let k = (0..11usize).generate(&mut rng);
            for p in &cycle_patterns(p, &t, k, any::<u64>().generate(&mut rng)) {
                let found = super::vf2::Vf2.contains(p, &t);
                cyclic_found += (found && p.short_cycles() != 0) as u32;
                refused += (!common::counts_reject(p, &t) && common::lacks_a_cycle(p, &t)) as u32;
            }
        }
        assert!(
            cyclic_found >= 50,
            "only {cyclic_found} positives with a cycle"
        );
        assert!(
            refused >= 10,
            "only {refused} pairs refused by cycles alone"
        );
    }

    #[test]
    fn vf2_plus_counts_rarity_past_sixteen_bits_in_a_large_target() {
        use crate::vf2::{Plan, Rarity};
        // A single-label path of 2^16 nodes: every label-0 node has rarity
        // 65 536, which a 16-bit field would read as 0.
        let n = 1u32 << 16;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let t = LabeledGraph::from_parts(vec![0; n as usize], &edges);
        // A label-0 hub (degree 2) with a label-0 and a label-1 leaf. In
        // the target, label 1 is rarer (0 nodes), so node 2 goes first;
        // the 16-bit keys would tie the rarities and start at the hub.
        let two = LabeledGraph::from_parts(vec![0, 0, 1], &[(0, 1), (0, 2)]);
        let wide = Plan::build(&two, Rarity::Target(&t));
        assert_eq!(wide, Plan::build_with::<u128>(&two, Rarity::Target(&t)));
        assert_eq!(wide.steps[0].node, 2);
        assert_eq!(
            Plan::build_with::<u64>(&two, Rarity::Target(&t)).steps[0].node,
            0
        );
        // Patterns that survive quick reject decide, count and embed as
        // the reference VF2+ does.
        let reference = super::vf2_plus::Vf2Plus;
        for p in [
            LabeledGraph::from_parts(vec![0; 3], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0; 5], &[(0, 1), (2, 3)]),
        ] {
            for cfg in [MatchConfig::UNBOUNDED, MatchConfig::bounded(5)] {
                assert_eq!(
                    Vf2Plus.contains_with(&p, &t, &cfg),
                    reference.contains_with(&p, &t, &cfg),
                    "{p:?} under {cfg:?}"
                );
            }
            assert_eq!(
                Vf2Plus.count_embeddings(&p, &t, 10),
                reference.count_embeddings(&p, &t, 10)
            );
            assert_eq!(
                Vf2Plus.find_embedding(&p, &t),
                reference.find_embedding(&p, &t)
            );
        }
    }

    /// `(shipped, label-blind)` outcomes of one unbounded decision test.
    fn both(p: &LabeledGraph, t: &LabeledGraph) -> (MatchOutcome, MatchOutcome) {
        (
            Vf2.contains_with(p, t, &MatchConfig::UNBOUNDED),
            super::vf2_label_blind::Vf2.contains_with(p, t, &MatchConfig::UNBOUNDED),
        )
    }

    #[test]
    fn label_lookahead_prunes() {
        // The star 1 - 0 - 2 (labels 0, 1, 2) against a label-0 node with
        // two label-1 leaves; the one label-2 node hangs off a leaf, so
        // quick reject passes. The root's later neighbours need labels
        // {1, 2} and the one root candidate offers {1, 1}: cut at the
        // root, where the label-blind count (two free neighbours) descends
        // into 2 × 3 more nodes.
        let p = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (0, 2)]);
        let t = LabeledGraph::from_parts(vec![0, 1, 1, 2], &[(0, 1), (0, 2), (2, 3)]);
        let (out, blind) = both(&p, &t);
        assert!(!out.found && !blind.found);
        assert_eq!((out.nodes_expanded, blind.nodes_expanded), (1, 7));
    }

    #[test]
    fn a_hub_missing_one_of_twelve_labels_is_cut_at_the_root() {
        // Pattern: a label-0 hub with twelve leaves labelled 1..=12.
        // Target: hub 0 has thirteen leaves but no label 12 among them;
        // hub 14 has all twelve. Hub 0 is cut where it is tried; the
        // label-blind search fills eleven leaves under it first and
        // backtracks through all of them.
        let p = LabeledGraph::from_parts(
            (0..=12).collect(),
            &(1..=12).map(|i| (0, i)).collect::<Vec<_>>(),
        );
        let mut labels: Vec<u32> = vec![0];
        labels.extend((1..=11).chain([13, 14]));
        labels.push(0);
        labels.extend(1..=12);
        let mut edges: Vec<(u32, u32)> = (1..=13).map(|i| (0, i)).collect();
        edges.extend((15..=26).map(|i| (14, i)));
        let t = LabeledGraph::from_parts(labels, &edges);
        let (out, blind) = both(&p, &t);
        assert!(out.found && blind.found);
        // Two roots tried, then leaf i matches at hub 14's i-th neighbour.
        assert_eq!(out.nodes_expanded, 2 + (1..=12).sum::<u64>());
        assert!(
            blind.nodes_expanded >= out.nodes_expanded + 11 * 13,
            "{} vs {}",
            blind.nodes_expanded,
            out.nodes_expanded
        );
        let embedding = Vf2.find_embedding(&p, &t).expect("hub 14 holds it");
        assert_eq!(embedding[0], 14);
        assert!(is_valid_embedding(&p, &t, &embedding));
    }

    #[test]
    fn a_disconnected_pattern_looks_ahead_per_component() {
        // Two components, 1 - 0 - 2 and 3 - 4, with labels 5, 6, 7 and
        // 5, 7. The first target offers every label but no label-5 node
        // with both a label-6 and a label-7 neighbour; the second does.
        let p = LabeledGraph::from_parts(vec![5, 6, 7, 5, 7], &[(0, 1), (0, 2), (3, 4)]);
        let without = LabeledGraph::from_parts(
            vec![5, 6, 6, 5, 7, 7],
            &[(0, 1), (0, 2), (3, 4), (3, 5), (1, 4)],
        );
        let with = LabeledGraph::from_parts(
            vec![5, 6, 7, 5, 7, 6],
            &[(0, 1), (0, 2), (3, 4), (3, 5), (1, 4)],
        );
        for t in [&without, &with] {
            let (out, blind) = both(&p, t);
            assert_eq!(out.found, blind.found, "{t:?}");
            assert!(out.nodes_expanded <= blind.nodes_expanded);
            assert_eq!(
                Vf2.count_embeddings(&p, t, u64::MAX),
                super::vf2_label_blind::Vf2.count_embeddings(&p, t, u64::MAX)
            );
        }
        let (out, blind) = both(&p, &without);
        assert!(!out.found);
        assert!(out.nodes_expanded < blind.nodes_expanded);
        assert!(Vf2.contains(&p, &with));
        assert_eq!(Vf2.count_embeddings(&p, &with, u64::MAX), 2);
    }

    /// Every test Method M's verifier runs for AIDS-shaped UU and ZZ
    /// queries — the GGSX candidate sets, in the subgraph and in the
    /// supergraph direction — decided alike by VF2, the id-order reference,
    /// the label-blind reference and VF2+, with VF2's summed work at most
    /// the label-blind one's; and each subgraph sweep through
    /// `contains_each` equal to its per-pair loop.
    #[test]
    fn aids_candidate_sets_decide_alike() {
        use gc_index::{FilterIndex, GgsxConfig, PathTrie};
        use gc_workload::{datasets, generate_type_a, TypeAConfig};

        let d = datasets::aids_like(0.2, 3);
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        let (mut tests, mut positives) = (0u32, 0u32);
        let (mut work, mut blind_work) = (0u64, 0u64);
        for cfg in [TypeAConfig::uu(), TypeAConfig::zz(1.4)] {
            for q in generate_type_a(&d, &cfg.count(200).seed(9)).queries {
                let q = &q.graph;
                let sub: Vec<&LabeledGraph> =
                    ggsx.filter(q).iter().map(|&id| d.graph(id)).collect();
                let sup = ggsx
                    .filter_supergraph(q)
                    .expect("GGSX filters supergraph queries");
                let pairs = sub
                    .iter()
                    .map(|&t| (q, t))
                    .chain(sup.iter().map(|&id| (d.graph(id), q)));
                for (p, t) in pairs {
                    let out = Vf2.contains_with(p, t, &MatchConfig::UNBOUNDED);
                    let found = out.found;
                    assert_eq!(found, super::vf2::Vf2.contains(p, t), "{p:?} in {t:?}");
                    assert_eq!(found, Vf2Plus.contains(p, t), "VF2+: {p:?} in {t:?}");
                    let blind =
                        super::vf2_label_blind::Vf2.contains_with(p, t, &MatchConfig::UNBOUNDED);
                    assert_eq!(found, blind.found, "label-blind: {p:?} in {t:?}");
                    work += out.nodes_expanded;
                    blind_work += blind.nodes_expanded;
                    tests += 1;
                    positives += found as u32;
                }
                let per_pair: Vec<MatchOutcome> = sub
                    .iter()
                    .map(|t| Vf2.contains_with(q, t, &MatchConfig::UNBOUNDED))
                    .collect();
                let mut each = Vec::new();
                Vf2.contains_each(q, &sub, &MatchConfig::UNBOUNDED, &mut each);
                assert_eq!(each, per_pair, "sweep of {q:?}");
            }
        }
        assert!(
            tests >= 10_000 && positives >= 5_000,
            "{tests} tests, {positives} positive"
        );
        assert!(
            work <= blind_work,
            "{work} nodes expanded, {blind_work} with the label-blind lookahead"
        );
    }
}

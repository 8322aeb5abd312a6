//! GraphGrepSX (GGSX) — path-feature filtering \[Bonnici et al., PRIB 2010\].
//!
//! Dataset graphs are decomposed into all labelled simple paths of up to
//! `max_path_len` edges (default 4, the configuration used in the paper's
//! evaluation). GGSX stores them in a suffix trie; here each feature is a
//! 64-bit [`FeatureKey`] resolved by one directory probe to its
//! `(graph, occurrence count)` postings. A query is decomposed the same
//! way; a dataset graph remains a candidate only if, for every query
//! feature, it holds at least as many occurrences.
//!
//! The postings of a feature take one of two layouts, whichever needs
//! fewer words: a sorted array of `(graph, count)` pairs, or, for a dense
//! feature, `P = bits(max count)` bit-sliced count planes over the whole
//! dataset (`P · ⌈n/64⌉` words). The subgraph filter narrows one dataset
//! bitmap feature by feature, comparing a plane feature's counts with the
//! query's 64 graphs at a time; the supergraph filter reads the same
//! planes. Both return exactly what a search of every pair array would,
//! which the test-only `reference` module holds them to.

use crate::fx::FxHashMap;
use crate::paths::{FeatureKey, PathEnumeration, PathProfile, PathShape};
use crate::{CandidateSet, FilterIndex};
use gc_graph::idset::{self, mask, ones, word};
use gc_graph::{sizing, GraphDataset, GraphId, LabeledGraph};

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
/// core of GGSX (and so of Grapes, which filters with GGSX's index).
///
/// Each feature takes whichever of two layouts needs fewer words. A sparse
/// feature keeps its `(graph, count)` pairs, one word per holder, sorted
/// by graph. A dense one becomes `P = bits(max count)` bit-sliced *count
/// planes*: plane `b` is a dataset bitmap of `W = ⌈n/64⌉` words holding bit
/// `b` of every graph's count. A feature gets planes when
/// `holders ≥ P · W`, so memory can only shrink. Both filter directions
/// read planes through [`CountPostings::keep_at_least`], a word-parallel
/// comparator.
#[derive(Debug, Clone)]
pub(crate) struct CountPostings {
    directory: FxHashMap<FeatureKey, Slot>,
    /// The array features' pairs, grouped by feature, each group in id order.
    pairs: Vec<(GraphId, u32)>,
    /// The plane features' planes, grouped by feature, lowest plane first.
    planes: Vec<u64>,
    /// Words per plane: `⌈n/64⌉`.
    words: usize,
    /// Graphs whose enumeration overflowed; always included in candidates.
    overflow: Vec<GraphId>,
    /// Per graph: number of distinct features (supergraph filtering).
    distinct: Vec<u32>,
}

/// Where one feature's postings live, in the two words of an arena range:
/// the offset of its first pair or plane word, and the graphs holding it
/// with its plane count `P` (0 for a pair array) in the top bits.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u32,
    holders_and_planes: u32,
}

/// Bits of [`Slot::holders_and_planes`] that count holders; `P ≤ 32` takes
/// the other six.
const HOLDER_BITS: u32 = 26;

impl Slot {
    fn new(start: usize, holders: usize, planes: u32) -> Self {
        Slot {
            start: u32::try_from(start).expect("postings arena exceeds 2^32 words"),
            holders_and_planes: holders as u32 | planes << HOLDER_BITS,
        }
    }

    /// Graphs holding the feature.
    fn holders(self) -> usize {
        (self.holders_and_planes & ((1 << HOLDER_BITS) - 1)) as usize
    }

    /// Count planes `P`; 0 for an array feature.
    fn planes(self) -> usize {
        (self.holders_and_planes >> HOLDER_BITS) as usize
    }
}

impl CountPostings {
    /// Packs one profile per dataset graph, in id order: every posting
    /// becomes a `(key, graph, count)` triple, one sort groups them, and
    /// one pass over the groups lays each feature out as pairs or planes.
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
        assert!(
            distinct.len() < 1 << HOLDER_BITS,
            "count postings index at most 2^26 graphs"
        );
        // Sorting by (key, graph) also keeps each group in id order.
        triples.sort_unstable_by_key(|&(key, id, _)| (key, id));
        let words = idset::words(distinct.len());
        let mut directory = FxHashMap::default();
        let (mut pairs, mut planes) = (Vec::with_capacity(triples.len()), Vec::new());
        for group in triples.chunk_by(|a, b| a.0 == b.0) {
            let max = group.iter().map(|&(_, _, c)| c).max().unwrap_or(0);
            let p = u32::BITS - max.leading_zeros();
            let slot = if group.len() >= p as usize * words {
                let slot = Slot::new(planes.len(), group.len(), p);
                planes.resize(planes.len() + p as usize * words, 0);
                let feature = &mut planes[slot.start as usize..];
                for &(_, id, c) in group {
                    for (b, plane) in feature.chunks_exact_mut(words).enumerate() {
                        plane[word(id.index())] |= mask(id.index()) * u64::from(c >> b & 1);
                    }
                }
                slot
            } else {
                let slot = Slot::new(pairs.len(), group.len(), 0);
                pairs.extend(group.iter().map(|&(_, id, c)| (id, c)));
                slot
            };
            directory.insert(group[0].0, slot);
        }
        pairs.shrink_to_fit();
        planes.shrink_to_fit();
        CountPostings {
            directory,
            pairs,
            planes,
            words,
            overflow,
            distinct,
        }
    }

    pub(crate) fn graph_count(&self) -> usize {
        self.distinct.len()
    }

    /// An array feature's pairs.
    fn pairs(&self, slot: Slot) -> &[(GraphId, u32)] {
        let start = slot.start as usize;
        &self.pairs[start..start + slot.holders()]
    }

    /// A plane feature's planes, lowest first.
    fn planes(&self, slot: Slot) -> std::slice::ChunksExact<'_, u64> {
        let start = slot.start as usize;
        self.planes[start..start + slot.planes() * self.words].chunks_exact(self.words)
    }

    /// Clears from the dataset bitmap `keep` every graph whose count of a
    /// plane feature is below `need`. Scanning from the top plane, `keep`
    /// holds the graphs whose count has so far matched `need` bit for bit,
    /// and `above` those that left it with a 1 where `need` has a 0; each
    /// plane is one branch-free pass over `W` words, and words of `keep`
    /// already zero stay zero.
    fn keep_at_least(&self, slot: Slot, need: u64, keep: &mut [u64], above: &mut [u64]) {
        if need >> slot.planes() != 0 {
            keep.fill(0);
            return;
        }
        above.fill(0);
        for (b, plane) in self.planes(slot).enumerate().rev() {
            if need >> b & 1 == 1 {
                for (k, &p) in keep.iter_mut().zip(plane) {
                    *k &= p;
                }
            } else {
                for ((k, a), &p) in keep.iter_mut().zip(above.iter_mut()).zip(plane) {
                    *a |= *k & p;
                    *k &= !p;
                }
            }
        }
        for (k, &a) in keep.iter_mut().zip(above.iter()) {
            *k |= a;
        }
    }

    /// Subgraph direction: the graphs holding every query feature at least
    /// as often as the query. A dataset bitmap starts full and each
    /// feature, rarest first, narrows it: a plane feature through
    /// [`keep_at_least`](Self::keep_at_least), an array feature by ANDing
    /// in the mask of its pairs that hold enough. The bitmap is then
    /// decoded, overflow graphs included. The result does not depend on
    /// feature order.
    pub(crate) fn subgraph(&self, profile: &PathProfile) -> CandidateSet {
        let Some(features) = profile.counts() else {
            return idset::full(self.graph_count());
        };
        let mut resolved: Vec<(Slot, u32)> = Vec::with_capacity(features.len());
        for &(key, need) in features {
            match self.directory.get(&key) {
                Some(&slot) => resolved.push((slot, need)),
                // A feature absent from every graph: only overflow graphs
                // can still be candidates.
                None => return self.overflow.clone(),
            }
        }
        if resolved.is_empty() {
            return idset::full(self.graph_count());
        }
        resolved.sort_unstable_by_key(|(slot, _)| slot.holders());
        // Bits past the last graph start set; the first feature clears them.
        let mut acc = vec![!0u64; self.words];
        let mut scratch = vec![0u64; self.words];
        for &(slot, need) in &resolved {
            if slot.planes() > 0 {
                self.keep_at_least(slot, u64::from(need), &mut acc, &mut scratch);
            } else {
                scratch.fill(0);
                for &(id, c) in self.pairs(slot) {
                    scratch[word(id.index())] |= mask(id.index()) * u64::from(c >= need);
                }
                for (a, &m) in acc.iter_mut().zip(&scratch) {
                    *a &= m;
                }
            }
            if acc.iter().all(|&w| w == 0) {
                return self.overflow.clone();
            }
        }
        for id in &self.overflow {
            acc[word(id.index())] |= mask(id.index());
        }
        let mut out = Vec::with_capacity(acc.iter().map(|w| w.count_ones() as usize).sum());
        out.extend(ones(&acc).map(|i| GraphId(i as u32)));
        out
    }

    /// Supergraph direction: a graph `G` can only be contained in the
    /// query if every feature of `G` occurs in the query at least as often
    /// — one sweep counting, per graph, its satisfied distinct features. A
    /// plane feature satisfies the graphs that hold it but not
    /// `g_count + 1` times. Overflow graphs are conservatively kept.
    pub(crate) fn supergraph(&self, profile: &PathProfile) -> CandidateSet {
        let Some(features) = profile.counts() else {
            return idset::full(self.graph_count());
        };
        let mut satisfied = vec![0u32; self.graph_count()];
        let mut held = vec![0u64; self.words];
        let mut too_many = vec![0u64; self.words];
        let mut scratch = vec![0u64; self.words];
        for &(key, g_count) in features {
            let Some(&slot) = self.directory.get(&key) else {
                continue;
            };
            if slot.planes() > 0 {
                held.fill(0);
                for plane in self.planes(slot) {
                    for (h, &p) in held.iter_mut().zip(plane) {
                        *h |= p;
                    }
                }
                too_many.copy_from_slice(&held);
                self.keep_at_least(slot, u64::from(g_count) + 1, &mut too_many, &mut scratch);
                for (h, &t) in held.iter_mut().zip(&too_many) {
                    *h &= !t;
                }
                for i in ones(&held) {
                    satisfied[i] += 1;
                }
            } else {
                for &(id, count) in self.pairs(slot) {
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
        self.directory.len() * sizing::MAP_SLOT_BYTES
            + sizing::slice_bytes::<(GraphId, u32)>(self.pairs.len())
            + sizing::slice_bytes::<u64>(self.planes.len())
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

/// The array layout the hybrid replaced — every feature's sorted
/// `(graph, count)` pairs, a galloping intersection for the subgraph
/// direction and a per-graph counting sweep for the supergraph direction —
/// kept as the reference the hybrid must equal.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct ArrayPostings<'a> {
        core: &'a CountPostings,
        postings: FxHashMap<FeatureKey, Vec<(GraphId, u32)>>,
    }

    impl<'a> ArrayPostings<'a> {
        /// Reads every feature of `core` back as pairs, bit by bit from its
        /// planes if it has them.
        pub(super) fn new(core: &'a CountPostings) -> Self {
            let postings = core
                .directory
                .iter()
                .map(|(&key, &slot)| {
                    if slot.planes() == 0 {
                        return (key, core.pairs(slot).to_vec());
                    }
                    let planes: Vec<&[u64]> = core.planes(slot).collect();
                    let pairs = (0..core.graph_count())
                        .map(|i| {
                            let count = (0..planes.len())
                                .map(|b| ((planes[b][i / 64] >> (i % 64) & 1) as u32) << b)
                                .sum();
                            (GraphId(i as u32), count)
                        })
                        .filter(|&(_, count)| count > 0)
                        .collect();
                    (key, pairs)
                })
                .collect();
            ArrayPostings { core, postings }
        }

        pub(super) fn get(&self, key: FeatureKey) -> Option<&[(GraphId, u32)]> {
            self.postings.get(&key).map(Vec::as_slice)
        }

        /// Subgraph direction: starts from the rarest feature's survivors
        /// and keeps those every further feature's pairs hold often
        /// enough, binary-searching each.
        pub(super) fn subgraph(&self, profile: &PathProfile) -> CandidateSet {
            let Some(features) = profile.counts() else {
                return idset::full(self.core.graph_count());
            };
            let mut postings = Vec::with_capacity(features.len());
            for &(key, qcount) in features {
                match self.get(key) {
                    Some(p) => postings.push((p, qcount)),
                    None => return self.core.overflow.clone(),
                }
            }
            if postings.is_empty() {
                return idset::full(self.core.graph_count());
            }
            postings.sort_unstable_by_key(|(p, _)| p.len());
            let (base, need) = postings[0];
            let mut acc: Vec<GraphId> = base
                .iter()
                .filter(|(_, c)| *c >= need)
                .map(|(id, _)| *id)
                .collect();
            for &(posting, need) in &postings[1..] {
                acc.retain(|id| {
                    posting
                        .binary_search_by_key(id, |&(g, _)| g)
                        .is_ok_and(|i| posting[i].1 >= need)
                });
            }
            idset::union(&acc, &self.core.overflow)
        }

        /// Supergraph direction: counts, per graph, the features the query
        /// holds at least as often, and keeps the graphs whose every
        /// feature counted.
        pub(super) fn supergraph(&self, profile: &PathProfile) -> CandidateSet {
            let Some(features) = profile.counts() else {
                return idset::full(self.core.graph_count());
            };
            let mut satisfied = vec![0u32; self.core.graph_count()];
            for &(key, g_count) in features {
                for &(id, count) in self.get(key).unwrap_or_default() {
                    satisfied[id.index()] += (count <= g_count) as u32;
                }
            }
            let out: Vec<GraphId> = (0..self.core.graph_count() as u32)
                .map(GraphId)
                .filter(|id| satisfied[id.index()] == self.core.distinct[id.index()])
                .collect();
            idset::union(&out, &self.core.overflow)
        }

        /// [`CountPostings::memory_bytes`] of this layout.
        pub(super) fn memory_bytes(&self) -> usize {
            let pairs: usize = self.postings.values().map(Vec::len).sum();
            self.postings.len() * sizing::MAP_SLOT_BYTES
                + sizing::slice_bytes::<(GraphId, u32)>(pairs)
                + sizing::slice_bytes::<GraphId>(self.core.overflow.len())
                + sizing::slice_bytes::<u32>(self.core.distinct.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_subiso::{Matcher, Vf2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reference::ArrayPostings;
    use std::sync::OnceLock;

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

    /// Counts on and around plane boundaries: one plane holds 1, two hold
    /// 2–3, three hold 4–7, …, nine hold 256.
    const BOUNDARY_COUNTS: [u32; 8] = [1, 2, 3, 4, 7, 8, 255, 256];

    /// A random dataset of `n` profiles over `keys`: some graphs overflow,
    /// and each key has its own density, so some features are laid out as
    /// planes and some as pairs. Returns the profiles and each key's
    /// largest count.
    fn random_profiles(rng: &mut StdRng, n: usize, keys: &[FeatureKey]) -> Vec<PathProfile> {
        let density: Vec<f64> = keys
            .iter()
            .map(|_| [0.005, 0.05, 0.3, 0.9, 1.0][rng.gen_range(0..5usize)])
            .collect();
        let spread: Vec<bool> = keys.iter().map(|_| rng.gen_bool(0.5)).collect();
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.03) {
                    return PathProfile::Overflow;
                }
                let mut counts = Vec::new();
                for (k, &key) in keys.iter().enumerate() {
                    if rng.gen_bool(density[k]) {
                        let c = if spread[k] {
                            BOUNDARY_COUNTS[rng.gen_range(0..BOUNDARY_COUNTS.len())]
                        } else {
                            rng.gen_range(1..4u32)
                        };
                        counts.push((key, c));
                    }
                }
                counts.sort_unstable();
                PathProfile::Counts(counts)
            })
            .collect()
    }

    /// A random query profile over `keys`: needs on plane boundaries, past
    /// a feature's largest count, and now and then a key no graph holds.
    fn random_query(rng: &mut StdRng, keys: &[FeatureKey]) -> PathProfile {
        let mut counts: Vec<(FeatureKey, u32)> = Vec::new();
        for _ in 0..rng.gen_range(0..6usize) {
            let key = if rng.gen_bool(0.05) {
                rng.gen::<u64>()
            } else {
                keys[rng.gen_range(0..keys.len())]
            };
            let need = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(1..4u32),
                1 => 257,
                2 => u32::MAX,
                _ => BOUNDARY_COUNTS[rng.gen_range(0..BOUNDARY_COUNTS.len())],
            };
            counts.push((key, need));
        }
        counts.sort_unstable();
        counts.dedup_by_key(|&mut (key, _)| key);
        PathProfile::Counts(counts)
    }

    /// A dataset graph's profile with every count moved by -1, 0 or +1:
    /// a query on the edge of containing, or being contained in, that
    /// graph and the graphs like it.
    fn near_query(rng: &mut StdRng, profiles: &[PathProfile]) -> PathProfile {
        let Some(counts) = profiles[rng.gen_range(0..profiles.len())].counts() else {
            return PathProfile::Overflow;
        };
        let counts = counts
            .iter()
            .map(|&(key, c)| (key, (c + rng.gen_range(0..3u32)).saturating_sub(1).max(1)))
            .collect();
        PathProfile::Counts(counts)
    }

    #[test]
    fn hybrid_filters_equal_the_array_reference_on_random_counts() {
        let mut rng = StdRng::seed_from_u64(30);
        let (mut plane_features, mut array_features, mut contained) = (0, 0, 0);
        for n in [0, 1, 63, 64, 65, 2500] {
            let keys: Vec<FeatureKey> = (0..24).map(|_| rng.gen()).collect();
            let profiles = random_profiles(&mut rng, n, &keys);
            let core = CountPostings::build(
                profiles
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, p)| (GraphId(i as u32), p)),
            );
            let arrays = ArrayPostings::new(&core);
            for &key in &keys {
                let expected: Vec<(GraphId, u32)> = profiles
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| {
                        let counts = p.counts()?;
                        let j = counts.binary_search_by_key(&key, |&(k, _)| k).ok()?;
                        Some((GraphId(i as u32), counts[j].1))
                    })
                    .collect();
                let stored = arrays.get(key).unwrap_or_default();
                assert_eq!(stored, expected, "n = {n}, key {key}");
            }
            for slot in core.directory.values() {
                plane_features += (slot.planes() > 0) as u32;
                array_features += (slot.planes() == 0) as u32;
            }
            let mut queries = vec![PathProfile::Overflow, PathProfile::Counts(Vec::new())];
            queries.extend((0..400).map(|_| random_query(&mut rng, &keys)));
            if n > 0 {
                queries.extend((0..200).map(|_| near_query(&mut rng, &profiles)));
            }
            for q in &queries {
                assert_eq!(core.subgraph(q), arrays.subgraph(q), "n = {n}, {q:?}");
                let sup = core.supergraph(q);
                assert_eq!(sup, arrays.supergraph(q), "n = {n}, {q:?}");
                contained += (sup.len() > core.overflow.len()) as u32;
            }
            assert!(core.memory_bytes() <= arrays.memory_bytes());
        }
        assert!(
            plane_features >= 20 && array_features >= 20,
            "{plane_features} plane, {array_features} array features"
        );
        assert!(
            contained >= 100,
            "only {contained} supergraph queries contain a graph"
        );
    }

    /// The 2 500-graph AIDS-shaped dataset and the path index over it.
    fn aids() -> &'static (GraphDataset, PathTrie) {
        static AIDS: OnceLock<(GraphDataset, PathTrie)> = OnceLock::new();
        AIDS.get_or_init(|| {
            let d = gc_workload::datasets::aids_like(1.0, 42);
            let ggsx = PathTrie::build(&d, GgsxConfig::default());
            (d, ggsx)
        })
    }

    #[test]
    fn hybrid_filters_equal_the_array_reference_on_aids_queries() {
        use gc_workload::{generate_type_a, TypeAConfig};
        let (d, ggsx) = aids();
        assert_eq!(d.len(), 2500);
        let arrays = ArrayPostings::new(&ggsx.core);
        for cfg in [TypeAConfig::uu(), TypeAConfig::zz(1.4)] {
            for q in generate_type_a(d, &cfg.count(200).seed(30)).queries {
                let q = &q.graph;
                let profile = PathEnumeration::new(q, 4, GgsxConfig::default().work_cap).profile;
                assert_eq!(ggsx.filter(q), arrays.subgraph(&profile), "subgraph {q:?}");
                assert_eq!(
                    ggsx.filter_supergraph(q),
                    Some(arrays.supergraph(&profile)),
                    "supergraph {q:?}"
                );
            }
        }
    }

    #[test]
    fn count_planes_never_cost_memory() {
        let (_, ggsx) = aids();
        let core = &ggsx.core;
        let planes = core.directory.values().filter(|s| s.planes() > 0).count();
        let (hybrid, arrays) = (core.memory_bytes(), ArrayPostings::new(core).memory_bytes());
        assert!(planes > 0, "no feature of the AIDS-shaped dataset is dense");
        assert!(hybrid < arrays, "hybrid {hybrid} B, arrays {arrays} B");
    }
}

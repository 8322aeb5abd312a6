//! Labelled simple-path enumeration — the feature extractor shared by
//! GraphGrepSX, Grapes and GraphCache's own query index.
//!
//! A *path feature* is the label sequence along a simple (vertex-distinct)
//! path, folded into a 64-bit [`FeatureKey`]. Every path of 0..=max_len
//! edges is enumerated from every start node, so a path and its reverse are
//! counted as two occurrences (unless palindromic) — consistently on both
//! the dataset and the query side, which is all that soundness needs:
//! `g ⊆ G` implies `count_g(p) ≤ count_G(p)` for every label sequence `p`,
//! because an embedding maps distinct simple paths of `g` to distinct
//! simple paths of `G` with identical labels.

use crate::fx::FxHashMap as HashMap;
use gc_graph::{Label, LabeledGraph, NodeId};
use std::borrow::Cow;

/// A path feature's key: the label sequence along the path folded into 64
/// bits by [`extend_key`]. The enumerator builds it label by label during
/// the depth-first search, so no sequence is ever materialised.
///
/// Two sequences that share a key merge their counts. A sum of dominated
/// counts is still dominated (`g ⊆ G` gives `count_g(p) ≤ count_G(p)` per
/// sequence, hence per key), so a collision can only weaken a filter, never
/// drop an answer.
pub type FeatureKey = u64;

/// The key of the empty sequence; every path key folds from here.
const KEY_SEED: FeatureKey = 0x243F_6A88_85A3_08D3;

/// Extends a path key by one label: the label is spread by an odd
/// multiplier (a bijection, so distinct labels after one prefix stay
/// distinct), xor-ed in, and the result runs through the splitmix64
/// finalizer.
#[inline]
pub fn extend_key(key: FeatureKey, label: Label) -> FeatureKey {
    let mut z = key ^ (u64::from(label) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of a label sequence: the same fold the enumerator applies along
/// a path.
pub fn feature_key(seq: &[Label]) -> FeatureKey {
    seq.iter().fold(KEY_SEED, |key, &l| extend_key(key, l))
}

/// Result of enumerating a graph's path features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathProfile {
    /// Feature multiset: distinct `(key, occurrences)` pairs sorted by key.
    Counts(Vec<(FeatureKey, u32)>),
    /// Enumeration exceeded the work cap; the graph must be treated
    /// conservatively (always a candidate / all bits set).
    Overflow,
}

/// The profile of a graph whose enumeration overflowed, by reference.
static OVERFLOW: PathProfile = PathProfile::Overflow;

impl PathProfile {
    /// The sorted `(key, count)` pairs, if enumeration completed.
    pub fn counts(&self) -> Option<&[(FeatureKey, u32)]> {
        match self {
            PathProfile::Counts(c) => Some(c),
            PathProfile::Overflow => None,
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            PathProfile::Counts(c) => c.len() * std::mem::size_of::<(FeatureKey, u32)>() + 24,
            PathProfile::Overflow => 0,
        }
    }
}

/// The path shape an index filters by: maximum path length in edges and
/// the per-graph enumeration work cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathShape {
    /// Maximum path length in edges.
    pub max_len: usize,
    /// Enumeration steps after which a graph counts as overflowed.
    pub work_cap: u64,
}

impl PathShape {
    /// `shared` when it holds exactly what enumerating `query` under this
    /// shape would; otherwise a fresh enumeration.
    pub fn features<'a>(
        &self,
        query: &LabeledGraph,
        shared: Option<&'a PathEnumeration>,
    ) -> Cow<'a, PathEnumeration> {
        match shared {
            Some(e) if e.covers(*self) => Cow::Borrowed(e),
            _ => Cow::Owned(PathEnumeration::new(query, self.max_len, self.work_cap)),
        }
    }
}

/// One enumeration of a graph's path features, with the work it spent.
///
/// A miss enumerates its query once, under the largest work cap of the
/// consumers that share it (the cache's query index and Method M's
/// filter). Each consumer then reads [`within`](Self::within) its own cap:
/// the profile counts as overflowed for it iff the work spent exceeds that
/// cap — exactly what enumerating under its own cap would have returned.
#[derive(Debug, Clone)]
pub struct PathEnumeration {
    /// Maximum path length the graph was enumerated with.
    pub max_len: usize,
    /// The cap the enumeration ran under.
    pub work_cap: u64,
    /// Enumeration steps spent (`work_cap + 1` when it overflowed).
    pub work: u64,
    /// The feature multiset, or `Overflow` past `work_cap`.
    pub profile: PathProfile,
}

impl PathEnumeration {
    /// Enumerates all simple paths of `g` with `0..=max_len` edges, up to
    /// `work_cap` steps (path extensions).
    pub fn new(g: &LabeledGraph, max_len: usize, work_cap: u64) -> Self {
        let mut counts: HashMap<FeatureKey, u32> = HashMap::default();
        let mut work = 0u64;
        let mut on_path = vec![false; g.node_count()];
        let mut complete = true;
        for start in g.nodes() {
            on_path[start as usize] = true;
            let key = extend_key(KEY_SEED, g.label(start));
            complete = dfs(
                g,
                start,
                key,
                max_len,
                &mut on_path,
                &mut counts,
                &mut work,
                work_cap,
            );
            if !complete {
                break;
            }
            on_path[start as usize] = false;
        }
        let profile = if complete {
            let mut features: Vec<(FeatureKey, u32)> = counts.into_iter().collect();
            features.sort_unstable_by_key(|&(k, _)| k);
            PathProfile::Counts(features)
        } else {
            PathProfile::Overflow
        };
        PathEnumeration {
            max_len,
            work_cap,
            work,
            profile,
        }
    }

    /// True when this enumeration decides `shape` exactly: same path
    /// length, and either it completed or its cap was at least as large.
    pub fn covers(&self, shape: PathShape) -> bool {
        self.max_len == shape.max_len
            && (self.work_cap >= shape.work_cap || self.profile.counts().is_some())
    }

    /// The profile as an enumeration under `work_cap` would have returned
    /// it (callers check [`covers`](Self::covers) first).
    pub fn within(&self, work_cap: u64) -> &PathProfile {
        if self.work > work_cap {
            &OVERFLOW
        } else {
            &self.profile
        }
    }

    /// [`within`](Self::within), by value.
    pub fn into_profile(self, work_cap: u64) -> PathProfile {
        if self.work > work_cap {
            PathProfile::Overflow
        } else {
            self.profile
        }
    }
}

/// Enumerates all simple paths with `0..=max_len` edges and returns the
/// feature multiset. `work_cap` bounds the number of enumeration steps
/// (path extensions); exceeding it yields [`PathProfile::Overflow`].
pub fn enumerate_paths(g: &LabeledGraph, max_len: usize, work_cap: u64) -> PathProfile {
    PathEnumeration::new(g, max_len, work_cap).profile
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &LabeledGraph,
    v: NodeId,
    key: FeatureKey,
    remaining: usize,
    on_path: &mut [bool],
    counts: &mut HashMap<FeatureKey, u32>,
    work: &mut u64,
    work_cap: u64,
) -> bool {
    *work += 1;
    if *work > work_cap {
        return false;
    }
    *counts.entry(key).or_insert(0) += 1;
    if remaining == 0 {
        return true;
    }
    for &w in g.neighbors(v) {
        if !on_path[w as usize] {
            on_path[w as usize] = true;
            let ok = dfs(
                g,
                w,
                extend_key(key, g.label(w)),
                remaining - 1,
                on_path,
                counts,
                work,
                work_cap,
            );
            on_path[w as usize] = false;
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Like [`enumerate_paths`] but keyed by the label sequence itself and
/// recording, for every feature, the start nodes at which an occurrence
/// begins (`gc-fragments` builds path graphs from the labels).
#[derive(Debug, Clone)]
pub enum LocatedProfile {
    /// label sequence → (occurrence count, sorted start-node list).
    Counts(HashMap<Vec<Label>, (u32, Vec<NodeId>)>),
    /// Work cap exceeded.
    Overflow,
}

/// Enumerates paths with per-feature start-node location lists, under the
/// same work accounting as [`enumerate_paths`].
pub fn enumerate_paths_located(g: &LabeledGraph, max_len: usize, work_cap: u64) -> LocatedProfile {
    let mut out: HashMap<Vec<Label>, (u32, Vec<NodeId>)> = HashMap::default();
    let mut work = 0u64;
    let mut seq: Vec<Label> = Vec::with_capacity(max_len + 1);
    let mut on_path = vec![false; g.node_count()];
    for start in g.nodes() {
        seq.push(g.label(start));
        on_path[start as usize] = true;
        let mut walk = LocateWalk {
            g,
            start,
            seq: &mut seq,
            on_path: &mut on_path,
            out: &mut out,
            work: &mut work,
            work_cap,
        };
        if !walk.dfs(start, max_len) {
            return LocatedProfile::Overflow;
        }
        on_path[start as usize] = false;
        seq.pop();
    }
    // Starts are visited in ascending order, so each list is sorted; a
    // start realising one feature along several paths appears repeatedly.
    for (_, locs) in out.values_mut() {
        locs.dedup();
    }
    LocatedProfile::Counts(out)
}

struct LocateWalk<'a> {
    g: &'a LabeledGraph,
    start: NodeId,
    seq: &'a mut Vec<Label>,
    on_path: &'a mut [bool],
    out: &'a mut HashMap<Vec<Label>, (u32, Vec<NodeId>)>,
    work: &'a mut u64,
    work_cap: u64,
}

impl LocateWalk<'_> {
    fn dfs(&mut self, v: NodeId, remaining: usize) -> bool {
        *self.work += 1;
        if *self.work > self.work_cap {
            return false;
        }
        let (count, locs) = match self.out.get_mut(self.seq.as_slice()) {
            Some(slot) => slot,
            None => self.out.entry(self.seq.clone()).or_default(),
        };
        *count += 1;
        locs.push(self.start);
        if remaining == 0 {
            return true;
        }
        let g = self.g;
        for &w in g.neighbors(v) {
            if !self.on_path[w as usize] {
                self.on_path[w as usize] = true;
                self.seq.push(g.label(w));
                let ok = self.dfs(w, remaining - 1);
                self.seq.pop();
                self.on_path[w as usize] = false;
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

/// Brute-force reference counter for a single feature — used by tests to
/// validate the enumerator.
pub fn count_feature_bruteforce(g: &LabeledGraph, feature: &[Label]) -> u32 {
    fn rec(g: &LabeledGraph, v: NodeId, feature: &[Label], pos: usize, used: &mut [bool]) -> u32 {
        if pos == feature.len() {
            return 1;
        }
        let mut total = 0;
        for &w in g.neighbors(v) {
            if !used[w as usize] && g.label(w) == feature[pos] {
                used[w as usize] = true;
                total += rec(g, w, feature, pos + 1, used);
                used[w as usize] = false;
            }
        }
        total
    }
    if feature.is_empty() {
        return 0;
    }
    let mut total = 0;
    let mut used = vec![false; g.node_count()];
    for v in g.nodes() {
        if g.label(v) == feature[0] {
            used[v as usize] = true;
            total += rec(g, v, feature, 1, &mut used);
            used[v as usize] = false;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::random::{random_connected_graph, LabelModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle() -> LabeledGraph {
        LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)])
    }

    /// The occurrence count of one feature key (0 when absent).
    fn key_count(p: &PathProfile, key: FeatureKey) -> u32 {
        let counts = p.counts().expect("no overflow");
        counts
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |i| counts[i].1)
    }

    fn count(p: &PathProfile, seq: &[Label]) -> u32 {
        key_count(p, feature_key(seq))
    }

    #[test]
    fn single_node_features_are_label_counts() {
        let g = LabeledGraph::from_parts(vec![7, 7, 8], &[(0, 1), (1, 2)]);
        let p = enumerate_paths(&g, 0, u64::MAX);
        assert_eq!(count(&p, &[7]), 2);
        assert_eq!(count(&p, &[8]), 1);
        assert_eq!(p.counts().unwrap().len(), 2);
    }

    #[test]
    fn triangle_path_counts() {
        let g = triangle();
        let p = enumerate_paths(&g, 2, u64::MAX);
        // Each directed edge is one length-1 path.
        assert_eq!(count(&p, &[0, 1]), 1);
        assert_eq!(count(&p, &[1, 0]), 1);
        // Length-2 simple paths: each (ordered) pair of distinct edges
        // through a middle vertex: e.g. 0-1-2 gives [0,1,2].
        assert_eq!(count(&p, &[0, 1, 2]), 1);
        assert_eq!(count(&p, &[2, 1, 0]), 1);
        let keys: Vec<FeatureKey> = p.counts().unwrap().iter().map(|&(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
    }

    /// Every key the DFS fold produces is `feature_key` of the sequence it
    /// walked, and every count equals the brute-force count — the located
    /// (sequence-keyed) enumeration names the sequences.
    fn assert_keys_fold_sequences(g: &LabeledGraph, max_len: usize) {
        let p = enumerate_paths(g, max_len, u64::MAX);
        let LocatedProfile::Counts(seqs) = enumerate_paths_located(g, max_len, u64::MAX) else {
            panic!("unexpected overflow");
        };
        let mut expected: Vec<(FeatureKey, u32)> = seqs
            .iter()
            .map(|(seq, &(c, _))| {
                assert_eq!(c, count_feature_bruteforce(g, seq), "feature {seq:?}");
                (feature_key(seq), c)
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(p.counts().unwrap(), expected.as_slice());
    }

    #[test]
    fn counts_match_bruteforce() {
        let g = LabeledGraph::from_parts(
            vec![0, 1, 0, 1, 0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
        );
        assert_keys_fold_sequences(&g, 3);
    }

    #[test]
    fn keys_fold_like_feature_key_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(28);
        for (i, labels) in [2u32, 3, 5, 40].iter().cycle().take(24).enumerate() {
            let sampler = LabelModel::uniform(*labels).sampler();
            let g = random_connected_graph(&mut rng, 3 + i % 9, 2.0 + (i % 3) as f64, &sampler);
            assert_keys_fold_sequences(&g, 1 + i % 4);
        }
    }

    #[test]
    fn subgraph_counts_dominated() {
        // Soundness cornerstone: sub ⊆ g ⇒ counts_sub ≤ counts_g.
        let g = LabeledGraph::from_parts(vec![0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (sub, _) = g.edge_subgraph(&[(0, 1), (1, 2)]);
        let cg = enumerate_paths(&g, 4, u64::MAX);
        let cs = enumerate_paths(&sub, 4, u64::MAX);
        for &(f, c) in cs.counts().unwrap() {
            assert!(
                key_count(&cg, f) >= c,
                "feature {f:#x} undercounted in supergraph"
            );
        }
    }

    #[test]
    fn overflow_reported() {
        let g = triangle();
        assert!(matches!(enumerate_paths(&g, 2, 2), PathProfile::Overflow));
        assert!(matches!(
            enumerate_paths_located(&g, 2, 2),
            LocatedProfile::Overflow
        ));
    }

    #[test]
    fn work_decides_overflow_under_any_smaller_cap() {
        let g = triangle();
        let full = PathEnumeration::new(&g, 2, u64::MAX);
        for cap in 0..=full.work + 1 {
            let own = enumerate_paths(&g, 2, cap);
            assert_eq!(full.within(cap), &own, "cap {cap}");
            let shared = PathEnumeration::new(&g, 2, full.work + 1);
            let shape = PathShape {
                max_len: 2,
                work_cap: cap,
            };
            assert!(shared.covers(shape));
            assert_eq!(shared.into_profile(cap), own, "cap {cap}");
        }
        // An overflowed enumeration decides only caps up to its own.
        let short = PathEnumeration::new(&g, 2, 3);
        assert!(short.covers(PathShape {
            max_len: 2,
            work_cap: 3
        }));
        assert!(!short.covers(PathShape {
            max_len: 2,
            work_cap: 4
        }));
        assert!(!full.covers(PathShape {
            max_len: 3,
            work_cap: 4
        }));
    }

    #[test]
    fn located_profile_counts_match_plain() {
        let g = LabeledGraph::from_parts(vec![0, 0, 1], &[(0, 1), (1, 2)]);
        let plain = enumerate_paths(&g, 2, u64::MAX);
        let LocatedProfile::Counts(loc) = enumerate_paths_located(&g, 2, u64::MAX) else {
            panic!("unexpected overflow");
        };
        assert_eq!(loc.len(), plain.counts().unwrap().len());
        for (f, (c, starts)) in &loc {
            assert_eq!(*c, count(&plain, f), "count mismatch for {f:?}");
            assert!(!starts.is_empty());
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_graph_has_no_features() {
        let g = LabeledGraph::empty();
        let p = enumerate_paths(&g, 4, u64::MAX);
        assert!(p.counts().unwrap().is_empty());
    }

    #[test]
    fn bruteforce_empty_feature_zero() {
        assert_eq!(count_feature_bruteforce(&triangle(), &[]), 0);
    }
}

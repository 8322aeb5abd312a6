//! Sub-query fragment cache for GraphCache.
//!
//! GraphCache's whole-query hit classes (exact / subgraph / supergraph) only
//! pay off when a cached answer subsumes the query; on low-repetition
//! workloads the hit rate collapses to near zero even though consecutive
//! queries share most of their *structure*. This crate adds the missing hit
//! class: queries are decomposed into canonical **path fragments** (label
//! sequences along simple paths, the same features GraphGrepSX/Grapes index),
//! and a bounded [`FragmentStore`] maps each fragment's isomorphism-invariant
//! fingerprint to the **exact set of dataset graphs containing it**. On a
//! whole-query miss the surviving fragments' occurrence sets are intersected
//! into the matcher's candidate set before verification.
//!
//! # Soundness
//!
//! For a subgraph query `g` and any fragment `f ⊆ g`: every dataset graph
//! `G ⊇ g` also satisfies `G ⊇ f`, so `answers(g) ⊆ occ(f)`. Intersecting
//! the candidate set with `occ(f)` therefore only removes graphs that could
//! never be answers — fragment pruning can shrink the verification frontier
//! but never the answer. Two requirements keep the argument airtight:
//!
//! 1. `occ(f)` must be **exact** (it is the verified occurrence set, built by
//!    running the fragment as its own sub-query through the filter+verify
//!    method — never a filter-only candidate superset of unknown polarity).
//! 2. A fragment set truncated by the enumeration work cap is **unusable**:
//!    [`decompose`] returns `None` on [`LocatedProfile::Overflow`] and the
//!    caller must skip fragment pruning for that query entirely.
//!
//! # Keying
//!
//! The fragment key is [`iso_hash`] of the fragment's path graph — the same
//! 1-WL iso-invariant fingerprint the cache's exact-match fast path uses.
//! A label sequence and its reverse describe isomorphic paths and thus
//! collide onto one key, which is exactly the canonicalisation we want.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gc_graph::idset;
use gc_graph::{GraphId, Label, LabeledGraph};
use gc_index::fingerprint::iso_hash;
use gc_index::fx::FxHashMap;
use gc_index::paths::{enumerate_paths_located, LocatedProfile};

/// Tuning knobs for fragment decomposition and the store budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentConfig {
    /// Minimum fragment length in edges. Single-edge fragments are almost
    /// never selective (their occurrence sets approach the whole dataset),
    /// so the default starts at 2.
    pub min_len: usize,
    /// Maximum fragment length in edges.
    pub max_len: usize,
    /// At most this many (deterministically ranked) fragments per query.
    pub max_per_query: usize,
    /// At most this many new fragments built per maintenance round — each
    /// build runs the fragment as a sub-query, so this caps matcher work
    /// done off the query path.
    pub max_build_per_round: usize,
    /// Work cap for path enumeration; exceeding it makes the query's
    /// fragment set unusable (see crate docs on soundness).
    pub work_cap: u64,
    /// Byte budget for the fragment store; maintenance evicts down to it.
    pub budget_bytes: usize,
}

impl Default for FragmentConfig {
    fn default() -> Self {
        FragmentConfig {
            min_len: 2,
            max_len: 4,
            max_per_query: 8,
            max_build_per_round: 16,
            work_cap: 200_000,
            budget_bytes: 1 << 20,
        }
    }
}

/// One canonical fragment of a query: the path graph plus its key.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Iso-invariant fingerprint of [`Fragment::graph`].
    pub key: u64,
    /// The fragment as a standalone path graph.
    pub graph: LabeledGraph,
}

/// Builds the path graph for a label sequence: nodes `0..n` labelled by the
/// sequence, edges `(i, i+1)`.
fn path_graph(labels: &[Label]) -> LabeledGraph {
    let edges: Vec<(u32, u32)> = (0..labels.len().saturating_sub(1) as u32)
        .map(|i| (i, i + 1))
        .collect();
    LabeledGraph::from_parts(labels.to_vec(), &edges)
}

/// Decomposes a query into its ranked canonical path fragments.
///
/// Returns `None` when path enumeration exceeds `cfg.work_cap` — a truncated
/// profile must never be treated as complete, so the caller has to disable
/// fragment probing for that query (soundness requirement 2 in the crate
/// docs). Fragments are ranked longest-first, then by fewest distinct start
/// nodes (rarer within the query ≈ more selective), then by label sequence;
/// the list is deduplicated by key and capped at `cfg.max_per_query`.
pub fn decompose(g: &LabeledGraph, cfg: &FragmentConfig) -> Option<Vec<Fragment>> {
    let located = match enumerate_paths_located(g, cfg.max_len, cfg.work_cap) {
        LocatedProfile::Overflow => return None,
        LocatedProfile::Counts(map) => map,
    };
    let min_len = cfg.min_len.max(1);
    // (edge_len desc, starts asc, labels lex) is a total order over features,
    // so the ranking is independent of hash-map iteration order.
    let mut ranked: Vec<(Vec<Label>, usize)> = located
        .into_iter()
        .filter(|(feature, _)| {
            let edges = feature.len().saturating_sub(1);
            edges >= min_len && edges <= cfg.max_len
        })
        .map(|(feature, (_, starts))| (feature, starts.len()))
        .collect();
    ranked.sort_unstable_by(|a, b| {
        b.0.len()
            .cmp(&a.0.len())
            .then(a.1.cmp(&b.1))
            .then(a.0.cmp(&b.0))
    });
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for (feature, _) in ranked {
        if out.len() >= cfg.max_per_query {
            break;
        }
        let graph = path_graph(&feature);
        let key = iso_hash(&graph);
        if seen.contains(&key) {
            continue; // a reversed sequence already produced this fragment
        }
        seen.push(key);
        out.push(Fragment { key, graph });
    }
    Some(out)
}

/// A fragment resident in the store, with its exact occurrence set and the
/// per-fragment statistics the eviction policies consume.
#[derive(Debug, Clone)]
pub struct StoredFragment {
    /// Stable serial assigned at insertion (the eviction-policy row id).
    pub id: u64,
    /// Iso-invariant fragment key.
    pub key: u64,
    /// The fragment path graph.
    pub graph: LabeledGraph,
    /// Exact, sorted set of dataset graphs containing the fragment.
    pub occs: Vec<GraphId>,
    /// Number of queries this fragment helped prune.
    pub hits: u64,
    /// Query serial of the most recent hit (insertion serial before any hit).
    pub last_hit: u64,
    /// Total candidates removed by intersections this fragment joined.
    pub r_total: u64,
    /// Total estimated verification cost saved by those removals.
    pub c_total: f64,
}

impl StoredFragment {
    /// Approximate resident bytes: graph + occurrence list + bookkeeping,
    /// accounted through the shared sizing model (`gc_graph::sizing`) so
    /// the fragment store and the cache stores agree on what a byte is.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + gc_graph::sizing::slice_bytes::<GraphId>(self.occs.len())
            + gc_graph::sizing::FRAGMENT_OVERHEAD
    }
}

/// Per-fragment statistics row exported for eviction-policy adaptation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentRow {
    /// Store serial (policy row id).
    pub id: u64,
    /// Hit count.
    pub hits: u64,
    /// Serial of the last hit.
    pub last_hit: u64,
    /// Candidates removed in total.
    pub r_total: u64,
    /// Estimated cost saved in total.
    pub c_total: f64,
}

/// Outcome of probing the store with a query's fragment keys.
#[derive(Debug, Clone, Default)]
pub struct ProbeResult {
    /// Number of keys looked up.
    pub probes: u64,
    /// Store ids of the fragments that were present.
    pub hit_ids: Vec<u64>,
    /// Intersection of the hit fragments' occurrence sets, if any hit.
    pub intersection: Option<Vec<GraphId>>,
}

/// Bounded map from fragment key to exact occurrence set.
///
/// The store itself is policy-agnostic: it tracks bytes and per-fragment
/// stats, exports [`FragmentRow`]s, and evicts whatever ids the caller's
/// eviction policy selects. Budget enforcement lives with the caller so the
/// registry-built policies (`lru`, `slru`, `greedy-dual`, …) apply here
/// exactly as they do to whole cache entries.
#[derive(Debug, Default)]
pub struct FragmentStore {
    map: FxHashMap<u64, StoredFragment>,
    bytes: usize,
    next_id: u64,
}

impl FragmentStore {
    /// An empty store.
    pub fn new() -> Self {
        FragmentStore::default()
    }

    /// Number of resident fragments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident bytes across all fragments.
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Whether a fragment with this key is resident.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts a fragment with its exact occurrence set. Returns the
    /// assigned store id, or `None` (changing nothing) when the key is
    /// already resident — occurrence sets are exact, so re-insertion could
    /// only rebuild the same set.
    pub fn insert(
        &mut self,
        key: u64,
        graph: LabeledGraph,
        occs: Vec<GraphId>,
        now: u64,
    ) -> Option<u64> {
        if self.map.contains_key(&key) {
            return None;
        }
        idset::debug_assert_sorted(&occs);
        let id = self.next_id;
        let frag = StoredFragment {
            id,
            key,
            graph,
            occs,
            hits: 0,
            last_hit: now,
            r_total: 0,
            c_total: 0.0,
        };
        self.next_id += 1;
        self.bytes += frag.memory_bytes();
        self.map.insert(key, frag);
        Some(id)
    }

    /// Restores a fragment with explicit statistics (persistence reload).
    /// Returns the assigned store id, or `None` if the key already exists.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &mut self,
        key: u64,
        graph: LabeledGraph,
        occs: Vec<GraphId>,
        hits: u64,
        last_hit: u64,
        r_total: u64,
        c_total: f64,
    ) -> Option<u64> {
        self.insert(key, graph, occs, last_hit)?;
        let frag = self.map.get_mut(&key).expect("just inserted");
        frag.hits = hits;
        frag.r_total = r_total;
        frag.c_total = c_total;
        Some(frag.id)
    }

    /// Looks up every key and intersects the occurrence sets of the hits.
    /// Read-only: hit accounting happens in [`FragmentStore::credit`], once
    /// the caller knows how much the intersection actually removed.
    pub fn probe(&self, keys: &[u64]) -> ProbeResult {
        let mut result = ProbeResult {
            probes: keys.len() as u64,
            ..ProbeResult::default()
        };
        for key in keys {
            let Some(frag) = self.map.get(key) else {
                continue;
            };
            result.hit_ids.push(frag.id);
            result.intersection = Some(match result.intersection.take() {
                None => frag.occs.clone(),
                Some(acc) => idset::intersect(&acc, &frag.occs),
            });
        }
        result
    }

    /// Credits a pruning outcome to the fragments that participated.
    pub fn credit(&mut self, ids: &[u64], removed: u64, saved: f64, now: u64) {
        for frag in self.map.values_mut() {
            if ids.contains(&frag.id) {
                frag.hits += 1;
                frag.last_hit = now;
                frag.r_total += removed;
                frag.c_total += saved;
            }
        }
    }

    /// Exports per-fragment statistics rows, sorted by id so victim
    /// selection sees a deterministic order.
    pub fn rows(&self) -> Vec<FragmentRow> {
        let mut rows: Vec<FragmentRow> = self
            .map
            .values()
            .map(|f| FragmentRow {
                id: f.id,
                hits: f.hits,
                last_hit: f.last_hit,
                r_total: f.r_total,
                c_total: f.c_total,
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.id);
        rows
    }

    /// Removes the fragments with the given store ids; returns how many
    /// were actually evicted.
    pub fn evict_ids(&mut self, ids: &[u64]) -> u64 {
        let keys: Vec<u64> = self
            .map
            .values()
            .filter(|f| ids.contains(&f.id))
            .map(|f| f.key)
            .collect();
        let mut evicted = 0;
        for key in keys {
            if let Some(frag) = self.map.remove(&key) {
                self.bytes -= frag.memory_bytes();
                evicted += 1;
            }
        }
        evicted
    }

    /// All resident fragments, sorted by id (persistence snapshot order).
    pub fn iter_sorted(&self) -> Vec<&StoredFragment> {
        let mut frags: Vec<&StoredFragment> = self.map.values().collect();
        frags.sort_unstable_by_key(|f| f.id);
        frags
    }

    /// Drops every fragment.
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<GraphId> {
        v.iter().copied().map(GraphId).collect()
    }

    fn chain(labels: &[Label]) -> LabeledGraph {
        path_graph(labels)
    }

    #[test]
    fn decompose_ranks_longest_first_and_dedupes_reversals() {
        // A 4-node labelled path: fragments of 2 and 3 edges exist; each
        // label sequence and its reverse must collapse to one key.
        let g = chain(&[1, 2, 3, 4]);
        let cfg = FragmentConfig {
            min_len: 2,
            max_len: 3,
            max_per_query: 16,
            ..FragmentConfig::default()
        };
        let frags = decompose(&g, &cfg).expect("no overflow");
        assert!(!frags.is_empty());
        // Longest fragment ([1,2,3,4], 3 edges) ranks first.
        assert_eq!(frags[0].graph.edge_count(), 3);
        // No duplicate keys.
        let mut keys: Vec<u64> = frags.iter().map(|f| f.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), frags.len());
        // Forward and reverse of the full path hash identically.
        assert_eq!(
            iso_hash(&chain(&[1, 2, 3, 4])),
            iso_hash(&chain(&[4, 3, 2, 1]))
        );
    }

    #[test]
    fn decompose_respects_length_bounds_and_cap() {
        let g = chain(&[1, 2, 3, 4, 5]);
        let cfg = FragmentConfig {
            min_len: 2,
            max_len: 2,
            max_per_query: 2,
            ..FragmentConfig::default()
        };
        let frags = decompose(&g, &cfg).expect("no overflow");
        assert_eq!(frags.len(), 2);
        assert!(frags.iter().all(|f| f.graph.edge_count() == 2));
    }

    #[test]
    fn overflow_yields_none() {
        // Work cap of 2 cannot even enumerate the single-node features.
        let g = chain(&[1, 2, 3, 4]);
        let cfg = FragmentConfig {
            work_cap: 2,
            ..FragmentConfig::default()
        };
        assert!(decompose(&g, &cfg).is_none());
    }

    #[test]
    fn store_insert_probe_intersect() {
        let mut store = FragmentStore::new();
        assert!(store
            .insert(10, chain(&[1, 2, 3]), ids(&[0, 2, 4, 6]), 1)
            .is_some());
        assert!(store
            .insert(20, chain(&[2, 3, 4]), ids(&[2, 3, 4]), 2)
            .is_some());
        assert!(
            store.insert(10, chain(&[1, 2, 3]), ids(&[9]), 3).is_none(),
            "dup key"
        );
        assert_eq!(store.len(), 2);

        let r = store.probe(&[10, 20, 99]);
        assert_eq!(r.probes, 3);
        assert_eq!(r.hit_ids.len(), 2);
        assert_eq!(r.intersection, Some(ids(&[2, 4])));

        let miss = store.probe(&[99]);
        assert_eq!(miss.probes, 1);
        assert!(miss.hit_ids.is_empty());
        assert!(miss.intersection.is_none());
    }

    #[test]
    fn credit_updates_stats_rows() {
        let mut store = FragmentStore::new();
        let _ = store.insert(10, chain(&[1, 2, 3]), ids(&[0, 1]), 5);
        let id = store.probe(&[10]).hit_ids[0];
        store.credit(&[id], 7, 3.5, 42);
        let rows = store.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].hits, 1);
        assert_eq!(rows[0].last_hit, 42);
        assert_eq!(rows[0].r_total, 7);
        assert!((rows[0].c_total - 3.5).abs() < 1e-9);
    }

    #[test]
    fn evict_reclaims_bytes() {
        let mut store = FragmentStore::new();
        let _ = store.insert(10, chain(&[1, 2, 3]), ids(&[0, 1, 2]), 1);
        let _ = store.insert(20, chain(&[4, 5, 6]), ids(&[3]), 2);
        let before = store.memory_bytes();
        assert!(before > 0);
        let victim = store.rows()[0].id;
        assert_eq!(store.evict_ids(&[victim]), 1);
        assert_eq!(store.len(), 1);
        assert!(store.memory_bytes() < before);
        store.clear();
        assert_eq!(store.memory_bytes(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn restore_preserves_stats() {
        let mut store = FragmentStore::new();
        let id = store
            .restore(10, chain(&[1, 2]), ids(&[0, 3]), 4, 17, 9, 2.25)
            .expect("fresh key");
        let rows = store.rows();
        assert_eq!(rows[0].id, id);
        assert_eq!(rows[0].hits, 4);
        assert_eq!(rows[0].last_hit, 17);
        assert_eq!(rows[0].r_total, 9);
        assert!((rows[0].c_total - 2.25).abs() < 1e-9);
        assert!(store
            .restore(10, chain(&[1, 2]), ids(&[0]), 0, 0, 0, 0.0)
            .is_none());
    }
}

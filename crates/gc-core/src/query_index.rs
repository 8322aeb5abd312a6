//! GCindex — the combined subgraph/supergraph filter over cached queries
//! (paper §6.1, second Cache store component).
//!
//! Cached query graphs are decomposed into labelled path features with
//! occurrence counts (the profile every [`CacheEntry`] already holds), and
//! one pass over a shard's slots answers both directions for a new query
//! `g`:
//!
//! * **sub-candidates** — cached queries `q` that may *contain* `g`
//!   (`g ⊆ q`): every feature of `g` appears in `q` at least as often;
//! * **super-candidates** — cached queries `q` that may be *contained in*
//!   `g` (`q ⊆ g`): every feature of `q` appears in `g` at least as often.
//!
//! The pass is CT-Index's fingerprint filter (paper §7.1) turned on the
//! cached queries. Each slot carries, in columns of its [`Shard`], its
//! `(nodes, edges)` size, an overflow flag and a 512-bit signature: one
//! bit per feature key, at the key's top 9 bits (keys are splitmix64
//! outputs, so any bits are uniform). A slot is decided by a size check,
//! then an 8-word subset test of the two signatures, and only then by one
//! merge of the two sorted `(key, count)` profiles.
//!
//! The pass is exact, not merely sound: a feature of one graph present in
//! the other sets the same bit in both signatures, so the subset test never
//! rejects a slot the merge would keep. A bit collision only lets a slot
//! through to the merge, which decides it on the keys and counts
//! themselves. A graph whose enumeration overflowed has no profile: an
//! overflowed query keeps every live slot its size allows, and an
//! overflowed entry passes both directions on size alone. Both lists are
//! sound overapproximations of the true relations; the GC processors
//! verify each candidate with a sub-iso test before it becomes a hit.
//!
//! [`CacheEntry`]: crate::CacheEntry
//! [`Shard`]: crate::Shard

use gc_index::paths::{FeatureKey, PathProfile};

/// Configuration of the query index.
#[derive(Debug, Clone, Copy)]
pub struct QueryIndexConfig {
    /// Maximum feature path length in edges (GGSX default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration work cap; overflowing graphs are indexed
    /// conservatively (always candidates, in both directions).
    pub work_cap: u64,
}

impl Default for QueryIndexConfig {
    fn default() -> Self {
        QueryIndexConfig {
            max_path_len: 4,
            work_cap: 5_000_000,
        }
    }
}

/// Candidate slots for a new query, in both directions, ascending.
#[derive(Debug, Clone, Default)]
pub struct HitCandidates {
    /// Slots of cached queries possibly containing the new query (`g ⊆ q`).
    pub sub: Vec<u32>,
    /// Slots of cached queries possibly contained in it (`q ⊆ g`).
    pub super_: Vec<u32>,
}

/// A graph's 512-bit feature signature: bit `key >> 55` is set for each of
/// its feature keys.
pub(crate) type Signature = [u64; 8];

/// The signature of a profile's features; all zero for an overflowed one.
pub(crate) fn signature(profile: &PathProfile) -> Signature {
    let mut sig = [0u64; 8];
    for &(key, _) in profile.counts().unwrap_or_default() {
        sig[(key >> 61) as usize] |= 1 << ((key >> 55) & 63);
    }
    sig
}

/// True when every bit of `part` is set in `whole` (branch-free over the
/// eight words).
fn covers(whole: &Signature, part: &Signature) -> bool {
    whole
        .iter()
        .zip(part)
        .fold(0, |missing, (w, p)| missing | (p & !w))
        == 0
}

/// True when every feature of `small` occurs in `big` at least as often:
/// one merge of two key-sorted profiles.
fn contains(big: &[(FeatureKey, u32)], small: &[(FeatureKey, u32)]) -> bool {
    let mut big = big.iter();
    small.iter().all(|&(key, count)| {
        big.find(|&&(k, _)| k >= key)
            .is_some_and(|&(k, c)| k == key && c >= count)
    })
}

/// The query side of a candidate pass, prepared once per query and shared
/// by every shard's scan.
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    /// The query's sorted features; `None` when its enumeration overflowed.
    counts: Option<&'a [(FeatureKey, u32)]>,
    signature: Signature,
    size: (u32, u32),
}

impl<'a> Probe<'a> {
    /// Prepares a query of `size` `(nodes, edges)` with its profile.
    pub fn new(profile: &'a PathProfile, size: (u32, u32)) -> Self {
        Probe {
            counts: profile.counts(),
            signature: signature(profile),
            size,
        }
    }

    /// Decides one live slot in both directions, as `(sub, super)`. The
    /// slot's profile is read only once its size and signature survive.
    pub(crate) fn decide(
        &self,
        size: (u32, u32),
        overflow: bool,
        sig: &Signature,
        profile: &PathProfile,
    ) -> (bool, bool) {
        let (qn, qm) = self.size;
        let (sn, sm) = size;
        let sub = sn >= qn && sm >= qm;
        let sup = sn <= qn && sm <= qm;
        let Some(q) = self.counts.filter(|_| !overflow && (sub || sup)) else {
            return (sub, sup);
        };
        let sub = sub && covers(sig, &self.signature);
        let sup = sup && covers(&self.signature, sig);
        if !(sub || sup) {
            return (false, false);
        }
        let e = profile.counts().unwrap_or_default();
        (sub && contains(e, q), sup && contains(q, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{CacheEntry, Shard};
    use crate::invariants::InvariantClause;
    use crate::stats::QuerySerial;
    use gc_graph::{GraphId, LabeledGraph};
    use gc_index::paths::enumerate_paths;
    use gc_methods::QueryKind;
    use std::sync::Arc;

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    fn entry_with(
        serial: QuerySerial,
        graph: &LabeledGraph,
        profile: PathProfile,
    ) -> Arc<CacheEntry> {
        Arc::new(CacheEntry::new(
            serial,
            Arc::new(graph.clone()),
            vec![GraphId(0)],
            QueryKind::Subgraph,
            profile,
        ))
    }

    fn entry_capped(serial: QuerySerial, graph: &LabeledGraph, work_cap: u64) -> Arc<CacheEntry> {
        entry_with(serial, graph, enumerate_paths(graph, 4, work_cap))
    }

    /// A shard over `graphs`, serials 0, 10, 20, … in slot order.
    fn build(graphs: &[LabeledGraph]) -> Shard {
        let cfg = QueryIndexConfig::default();
        Shard::build(
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| entry_capped(i as u64 * 10, g, cfg.work_cap))
                .collect(),
        )
    }

    fn candidates(shard: &Shard, query: &LabeledGraph) -> HitCandidates {
        let cfg = QueryIndexConfig::default();
        let profile = enumerate_paths(query, cfg.max_path_len, cfg.work_cap);
        let size = (query.node_count() as u32, query.edge_count() as u32);
        shard.candidates(&Probe::new(&profile, size))
    }

    #[test]
    fn empty_index_no_candidates() {
        let shard = build(&[]);
        assert!(shard.is_empty());
        let c = candidates(&shard, &path_graph(&[0, 1]));
        assert!(c.sub.is_empty() && c.super_.is_empty());
    }

    #[test]
    fn sub_candidates_found() {
        // Cached: a-b-a path (3 nodes). New query: a-b edge ⊆ cached.
        let shard = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        let c = candidates(&shard, &path_graph(&[0, 1]));
        assert_eq!(c.sub, vec![0]);
        // The edge is not a supergraph of anything cached.
        assert!(c.super_.is_empty());
    }

    #[test]
    fn super_candidates_found() {
        // Cached: a-b edge. New query: a-b-a path ⊇ cached.
        let shard = build(&[path_graph(&[0, 1])]);
        let c = candidates(&shard, &path_graph(&[0, 1, 0]));
        assert_eq!(c.super_, vec![0]);
        assert!(c.sub.is_empty());
    }

    #[test]
    fn exact_size_appears_in_both_directions() {
        let shard = build(&[path_graph(&[0, 1])]);
        let c = candidates(&shard, &path_graph(&[0, 1]));
        assert_eq!(c.sub, vec![0]);
        assert_eq!(c.super_, vec![0]);
    }

    #[test]
    fn label_mismatch_filters_out() {
        let shard = build(&[path_graph(&[0, 1, 0])]);
        let c = candidates(&shard, &path_graph(&[7, 8]));
        assert!(c.sub.is_empty());
        assert!(c.super_.is_empty());
    }

    #[test]
    fn count_filtering_in_sub_direction() {
        // Cached: single a-b edge. Query: star b(a,a) needs TWO a-b paths.
        let shard = build(&[path_graph(&[0, 1])]);
        let star = LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]);
        let c = candidates(&shard, &star);
        assert!(c.sub.is_empty(), "count precondition must prune");
    }

    #[test]
    fn count_filtering_in_super_direction() {
        // Cached: star b(a,a). Query: single a-b edge — the star cannot be
        // contained in it (feature count 2 > 1).
        let star = LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]);
        let shard = build(&[star]);
        let c = candidates(&shard, &path_graph(&[0, 1]));
        assert!(c.super_.is_empty());
    }

    #[test]
    fn soundness_on_true_containment() {
        // Whatever the filter does, true sub/super relations survive it.
        let cached = vec![
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[2, 2]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
        ];
        let shard = build(&cached);
        // g = a-b-a ⊆ cached[0].
        let c = candidates(&shard, &path_graph(&[0, 1, 0]));
        assert!(c.sub.contains(&0), "true containment must remain");
        // cached[1] ⊆ c-c-c.
        let c2 = candidates(&shard, &path_graph(&[2, 2, 2]));
        assert!(c2.super_.contains(&1));
    }

    #[test]
    fn overflow_slots_conservative() {
        let g = path_graph(&[0, 1, 0]);
        let shard = Shard::build(vec![entry_capped(7, &g, 1)]);
        // An overflowed cached graph passes both directions on size alone:
        // a sub-candidate of the smaller edge even with unrelated labels…
        let c = candidates(&shard, &path_graph(&[5, 6]));
        assert_eq!(c.sub, vec![0]);
        assert!(c.super_.is_empty());
        // …and a super-candidate of a larger query.
        let c = candidates(&shard, &path_graph(&[5, 6, 7, 8]));
        assert_eq!(c.super_, vec![0]);
        assert_eq!(shard.entry_at(0).unwrap().serial, 7);

        // An overflowed query keeps every size-compatible live slot.
        let shard = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        let c = shard.candidates(&Probe::new(&PathProfile::Overflow, (2, 1)));
        assert_eq!(c.sub, vec![0, 1]);
        assert_eq!(c.super_, vec![1]);
    }

    /// Two feature keys whose top 9 bits collide set the same signature
    /// bit, so only the merge can reject the slot.
    #[test]
    fn colliding_signature_bits_leave_the_decision_to_the_merge() {
        let (k1, k2) = (0xABC0_0000_0000_0001u64, 0xABC0_0000_0000_0002u64);
        assert_eq!(k1 >> 55, k2 >> 55);
        let cached = PathProfile::Counts(vec![(k1, 1)]);
        let query = PathProfile::Counts(vec![(k2, 1)]);
        assert_eq!(signature(&cached), signature(&query));

        let g = path_graph(&[0, 1]);
        let shard = Shard::build(vec![entry_with(3, &g, cached.clone())]);
        let c = shard.candidates(&Probe::new(&query, (2, 1)));
        assert!(c.sub.is_empty() && c.super_.is_empty(), "{c:?}");
        // The same key passes in both directions.
        let c = shard.candidates(&Probe::new(&cached, (2, 1)));
        assert_eq!((c.sub, c.super_), (vec![0], vec![0]));
    }

    #[test]
    fn accessors() {
        let shard = build(&[path_graph(&[0, 1, 0])]);
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.entry_at(0).unwrap().serial, 0);
        assert_eq!(shard.size_at(0), (3, 2));
        assert_eq!(shard.slot_of(0), Some(0));
        assert!(shard.memory_bytes() > 0);
    }

    #[test]
    fn remove_tombstones_slot() {
        let mut shard = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        assert!(shard.remove(0));
        assert!(!shard.remove(0), "already dead");
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.slots(), 2, "the slot stays until compaction");
        assert_eq!(shard.tombstones(), 1);
        assert!(shard.entry_at(0).is_none());
        assert!(shard.slot_of(0).is_none());
        // The dead slot no longer produces candidates…
        let c = candidates(&shard, &path_graph(&[0, 1]));
        assert!(c.sub.is_empty() && c.super_.is_empty());
        // …but the surviving one still does.
        let c = candidates(&shard, &path_graph(&[5, 5]));
        assert_eq!(c.sub, vec![1]);
        // An insert after the remove appends a fresh live slot.
        shard.insert(entry_capped(30, &path_graph(&[0, 1, 0]), u64::MAX));
        let c = candidates(&shard, &path_graph(&[0, 1]));
        assert_eq!(c.sub, vec![2]);
        assert_eq!(shard.check_invariants(0, 1), Ok(()));
    }

    #[test]
    fn insert_appends_live_slot() {
        let mut shard = build(&[path_graph(&[0, 1, 0])]);
        shard.insert(entry_capped(70, &path_graph(&[5, 5]), u64::MAX));
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.slot_of(70), Some(1));
        let c = candidates(&shard, &path_graph(&[5, 5]));
        assert_eq!(c.sub, vec![1]);
        assert_eq!(c.super_, vec![1]);
    }

    /// After a mixed insert/remove history, candidates (mapped to serials)
    /// match a fresh build over the surviving entries in slot order.
    #[test]
    fn incremental_matches_fresh_build() {
        let graphs = [
            path_graph(&[0, 1, 0]),
            path_graph(&[5, 5]),
            path_graph(&[0, 1]),
            path_graph(&[1, 0, 1, 0]),
        ];
        let entry = |i: usize| entry_capped(i as u64, &graphs[i], u64::MAX);
        let mut shard = Shard::build(vec![entry(0), entry(1)]);
        shard.remove(0);
        shard.insert(entry(2));
        shard.insert(entry(3));
        // Live entries in slot order: serials 1, 2, 3.
        let fresh = Shard::build(vec![entry(1), entry(2), entry(3)]);
        let to_serials = |shard: &Shard, slots: &[u32]| -> Vec<QuerySerial> {
            slots
                .iter()
                .map(|&s| shard.entry_at(s).unwrap().serial)
                .collect()
        };
        for probe in [
            path_graph(&[0, 1]),
            path_graph(&[5, 5]),
            path_graph(&[0, 1, 0]),
            path_graph(&[1, 0, 1, 0, 1]),
        ] {
            let got = candidates(&shard, &probe);
            let want = candidates(&fresh, &probe);
            assert_eq!(to_serials(&shard, &got.sub), to_serials(&fresh, &want.sub));
            assert_eq!(
                to_serials(&shard, &got.super_),
                to_serials(&fresh, &want.super_)
            );
        }
    }

    /// The filter columns are checked against a recount from each live
    /// entry's profile, and the serial map against the live slots.
    #[test]
    fn invariant_check_follows_churn_and_names_the_broken_clause() {
        let mut shard = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        assert_eq!(shard.check_invariants(0, 1), Ok(()));
        shard.remove(0);
        shard.insert(entry_capped(99, &path_graph(&[7, 8, 7]), 1));
        assert_eq!(
            shard.check_invariants(0, 1),
            Ok(()),
            "tombstone + overflowed append"
        );

        let mut flipped = shard.clone();
        flipped.signature_mut(1)[3] ^= 1 << 17;
        let v = flipped.check_invariants(0, 1).unwrap_err();
        assert_eq!(v.clause, InvariantClause::Columns);
        assert!(v.detail.contains("signature"), "{v}");

        let mut stale = shard.clone();
        stale.map_serial(0, 0); // resurrects the tombstoned serial
        assert_eq!(
            stale.check_invariants(0, 1).unwrap_err().clause,
            InvariantClause::SerialMap
        );
    }
}

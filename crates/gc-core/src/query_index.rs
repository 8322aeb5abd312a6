//! GCindex — the combined subgraph/supergraph index over cached queries
//! (paper §6.1, second Cache store component).
//!
//! The design is "loosely based on the GraphGrepSX subgraph query index,
//! augmented with additional metadata to allow for the processing of
//! supergraph queries": cached query graphs are decomposed into labelled
//! path features with occurrence counts, and a single structure answers both
//! directions for a new query `g`:
//!
//! * **sub-candidates** — cached queries `q` that may *contain* `g`
//!   (`g ⊆ q`): standard GGSX containment filtering — every feature of `g`
//!   must appear in `q` with at least `g`'s count;
//! * **super-candidates** — cached queries `q` that may be *contained in*
//!   `g` (`q ⊆ g`): the augmented direction — every feature of `q` must
//!   appear in `g` with at least `q`'s count. This is answered in one sweep
//!   over `g`'s feature multiset by counting, per cached query, how many of
//!   its distinct features are satisfied.
//!
//! Both candidate lists are *sound overapproximations*; the GC processors
//! verify each candidate with a sub-iso test before it becomes a hit.

use crate::invariants::{ensure, tiled_end, InvariantClause, InvariantViolation};
use crate::stats::QuerySerial;
use gc_graph::{sizing, LabeledGraph};
use gc_index::fx::FxHashMap as HashMap;
use gc_index::paths::{enumerate_paths, PathFeature, PathProfile};

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

/// Candidate slots for a new query, in both directions.
#[derive(Debug, Clone, Default)]
pub struct HitCandidates {
    /// Slots of cached queries possibly containing the new query (`g ⊆ q`).
    pub sub: Vec<u32>,
    /// Slots of cached queries possibly contained in it (`q ⊆ g`).
    pub super_: Vec<u32>,
}

/// The combined index. Slots are positions in the entry vector the index
/// was built from.
///
/// The index is *maintainable*: [`insert_profile`](Self::insert_profile)
/// appends a new slot and [`remove`](Self::remove) tombstones one in place
/// (postings are left behind; the candidate sweep skips dead slots). The
/// Window Manager patches a clone of the live index with each round's
/// delta instead of rebuilding from scratch, and compacts — a full
/// rebuild over the surviving slots — only when
/// [`tombstones`](Self::tombstones) accumulate past a debt threshold.
/// Incremental maintenance is build-equivalent: after any
/// insert/remove/compact sequence the index returns the same candidates
/// (as serials) as a fresh [`build`](Self::build) over the live entries in
/// slot order (see the equivalence proptests in `tests/`).
///
/// # Layout
///
/// Postings live in one flat **arena** of `(slot, count)` pairs, packed
/// feature-by-feature, with a compact feature → `(offset, len)` directory:
/// the candidate sweep resolves each query feature to an arena range and
/// then scans packed slots linearly instead of hopping through per-feature
/// heap vectors. A bulk build ([`build`](Self::build) /
/// [`build_from_profiles`](Self::build_from_profiles)) always ends fully
/// packed — so a compacted shard's index is 100% arena — while incremental
/// [`insert_profile`](Self::insert_profile) calls accumulate in a small
/// spill `tail` that the sweep visits after the arena range and the next
/// bulk rebuild folds back in.
#[derive(Debug, Clone)]
pub struct QueryIndex {
    cfg: QueryIndexConfig,
    /// Flat postings arena: `(slot, count)` pairs packed per feature.
    arena: Vec<(u32, u32)>,
    /// Feature → `(offset, len)` range into [`QueryIndex::arena`].
    directory: HashMap<PathFeature, (u32, u32)>,
    /// Postings appended since the last pack (incremental inserts); folded
    /// into the arena on the next bulk build.
    tail: HashMap<PathFeature, Vec<(u32, u32)>>,
    /// Number of postings resident in `tail` (totals without a map scan).
    tail_len: usize,
    /// Per slot: number of distinct features (for super-candidate checks).
    distinct: Vec<u32>,
    /// Per slot: (node count, edge count) — cheap containment preconditions.
    sizes: Vec<(u32, u32)>,
    /// Per slot: enumeration overflowed, treat conservatively.
    overflow: Vec<bool>,
    serials: Vec<QuerySerial>,
    /// Per slot: false once the slot has been tombstoned by `remove`.
    live: Vec<bool>,
    /// Live serial → slot, for O(1) removal and exact-serial lookup.
    slot_of: HashMap<QuerySerial, u32>,
    /// Number of tombstoned slots (the compaction-debt numerator).
    tombstones: usize,
    /// Per slot: postings the slot contributed (debt accounting on remove).
    feature_counts: Vec<u32>,
    /// Postings owned by tombstoned slots, resident until compaction.
    dead_postings: usize,
}

impl QueryIndex {
    /// Builds the index over `(serial, graph)` pairs, in slot order,
    /// enumerating each graph's features.
    pub fn build<'a>(
        cfg: QueryIndexConfig,
        entries: impl Iterator<Item = (QuerySerial, &'a LabeledGraph)>,
    ) -> Self {
        let materialized: Vec<(QuerySerial, (u32, u32), PathProfile)> = entries
            .map(|(serial, graph)| {
                let profile = enumerate_paths(graph, cfg.max_path_len, cfg.work_cap);
                (
                    serial,
                    (graph.node_count() as u32, graph.edge_count() as u32),
                    profile,
                )
            })
            .collect();
        Self::build_from_profiles(cfg, materialized.iter().map(|(s, z, p)| (*s, *z, p)))
    }

    /// Builds the index from *precomputed* feature profiles — the Window
    /// Manager stores each query's profile at execution time so re-indexing
    /// never re-enumerates cached graphs (paper §6.2 keeps rebuild latency
    /// low; this is the mechanism).
    pub fn build_from_profiles<'a>(
        cfg: QueryIndexConfig,
        entries: impl Iterator<Item = (QuerySerial, (u32, u32), &'a PathProfile)>,
    ) -> Self {
        let mut index = QueryIndex {
            cfg,
            arena: Vec::new(),
            directory: HashMap::default(),
            tail: HashMap::default(),
            tail_len: 0,
            distinct: Vec::new(),
            sizes: Vec::new(),
            overflow: Vec::new(),
            serials: Vec::new(),
            live: Vec::new(),
            slot_of: HashMap::default(),
            tombstones: 0,
            feature_counts: Vec::new(),
            dead_postings: 0,
        };
        for (serial, size, profile) in entries {
            index.insert_profile(serial, size, profile);
        }
        // A bulk build ends fully packed: compaction rebuilds route through
        // here, so a fresh index never carries a spill tail.
        index.pack();
        index
    }

    /// Folds the spill tail into the packed arena: every feature's postings
    /// become one contiguous, directory-addressed range. Features are laid
    /// out in sorted order so identical logical content always packs to an
    /// identical arena — the property the binary snapshot format and the
    /// byte-identical-rebuild tests rely on.
    fn pack(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        self.tail_len = 0;
        let old_arena = std::mem::take(&mut self.arena);
        let old_dir = std::mem::take(&mut self.directory);
        let mut features: Vec<PathFeature> = old_dir.keys().cloned().collect();
        features.extend(tail.keys().filter(|f| !old_dir.contains_key(*f)).cloned());
        features.sort_unstable();
        let extra: usize = tail.values().map(Vec::len).sum();
        let mut arena = Vec::with_capacity(old_arena.len() + extra);
        let mut directory = HashMap::default();
        for feature in features {
            let start = arena.len() as u32;
            if let Some(&(off, len)) = old_dir.get(&feature) {
                arena.extend_from_slice(&old_arena[off as usize..(off + len) as usize]);
            }
            if let Some(spill) = tail.get(&feature) {
                arena.extend_from_slice(spill);
            }
            let len = arena.len() as u32 - start;
            directory.insert(feature, (start, len));
        }
        self.arena = arena;
        self.directory = directory;
    }

    /// Appends a new slot for `serial` and threads its features into the
    /// postings. Returns the assigned slot. The serial must not already be
    /// live in this index (a store invariant the Window Manager enforces
    /// before admission).
    pub fn insert_profile(
        &mut self,
        serial: QuerySerial,
        size: (u32, u32),
        profile: &PathProfile,
    ) -> u32 {
        debug_assert!(
            !self.slot_of.contains_key(&serial),
            "serial {serial} inserted twice"
        );
        let slot = self.serials.len() as u32;
        self.serials.push(serial);
        self.sizes.push(size);
        self.live.push(true);
        self.slot_of.insert(serial, slot);
        match profile {
            PathProfile::Counts(counts) => {
                self.distinct.push(counts.len() as u32);
                self.overflow.push(false);
                self.feature_counts.push(counts.len() as u32);
                for (feature, &count) in counts {
                    self.tail
                        .entry(feature.clone())
                        .or_default()
                        .push((slot, count));
                }
                self.tail_len += counts.len();
            }
            PathProfile::Overflow => {
                self.distinct.push(0);
                self.overflow.push(true);
                self.feature_counts.push(0);
            }
        }
        slot
    }

    /// Tombstones the slot holding `serial`: the slot stops appearing in
    /// candidate sets but its postings stay in place until a compaction
    /// rebuilds the index densely. Returns the freed slot, or `None` when
    /// the serial is not live here.
    pub fn remove(&mut self, serial: QuerySerial) -> Option<u32> {
        let slot = self.slot_of.remove(&serial)?;
        self.live[slot as usize] = false;
        self.tombstones += 1;
        self.dead_postings += self.feature_counts[slot as usize] as usize;
        Some(slot)
    }

    /// Number of tombstoned slots still carrying postings.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Postings owned by tombstoned slots but still resident in the arena
    /// (reclaimed only by compaction). A handful of tombstoned slots can
    /// own a large share of the postings, so this is the debt signal the
    /// slot-count ratio misses.
    pub fn dead_postings(&self) -> usize {
        self.dead_postings
    }

    /// Total resident postings, live and dead, arena and spill tail.
    pub fn postings_len(&self) -> usize {
        self.arena.len() + self.tail_len
    }

    /// Fraction of resident postings owned by tombstoned slots — the
    /// postings-side compaction-debt ratio, complementing the slot-count
    /// ratio ([`tombstones`](Self::tombstones) / [`slots`](Self::slots)).
    pub fn postings_debt(&self) -> f64 {
        let total = self.postings_len();
        if total == 0 {
            0.0
        } else {
            self.dead_postings as f64 / total as f64
        }
    }

    /// Arena utilization in bytes: `(live, reserved)`. Reserved covers
    /// every resident posting (arena + spill tail); live excludes the
    /// postings owned by tombstoned slots. The gap is the fragmentation a
    /// compaction would reclaim.
    pub fn arena_utilization(&self) -> (usize, usize) {
        let reserved = sizing::slice_bytes::<(u32, u32)>(self.postings_len());
        let live = sizing::slice_bytes::<(u32, u32)>(self.postings_len() - self.dead_postings);
        (live, reserved)
    }

    /// Total slots, live and dead (the candidate sweep's array bound).
    pub fn slots(&self) -> usize {
        self.serials.len()
    }

    /// The slot currently holding `serial`, when it is live.
    pub fn slot_of(&self, serial: QuerySerial) -> Option<u32> {
        self.slot_of.get(&serial).copied()
    }

    /// True when the slot has not been tombstoned.
    pub fn is_live(&self, slot: u32) -> bool {
        self.live[slot as usize]
    }

    /// The index configuration it was built under.
    pub fn config(&self) -> QueryIndexConfig {
        self.cfg
    }

    /// Enumerates a query's feature profile under this index's
    /// configuration (callers compute it once and reuse it for candidate
    /// probing and for eventual admission into the cache).
    pub fn profile_of(&self, query: &LabeledGraph) -> PathProfile {
        enumerate_paths(query, self.cfg.max_path_len, self.cfg.work_cap)
    }

    /// Number of *live* indexed queries (tombstoned slots excluded).
    pub fn len(&self) -> usize {
        self.serials.len() - self.tombstones
    }

    /// True when no live queries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The serial stored at a slot.
    pub fn serial(&self, slot: u32) -> QuerySerial {
        self.serials[slot as usize]
    }

    /// The `(nodes, edges)` size of the query at a slot.
    pub fn size(&self, slot: u32) -> (u32, u32) {
        self.sizes[slot as usize]
    }

    /// Computes candidate slots for a new query, both directions, in one
    /// pass over the query's feature multiset.
    pub fn candidates(&self, query: &LabeledGraph) -> HitCandidates {
        let profile = self.profile_of(query);
        self.candidates_from_profile(
            &profile,
            query.node_count() as u32,
            query.edge_count() as u32,
        )
    }

    /// Like [`QueryIndex::candidates`] but reuses a precomputed profile.
    pub fn candidates_from_profile(
        &self,
        profile: &PathProfile,
        qn: u32,
        qm: u32,
    ) -> HitCandidates {
        let n = self.slots();
        if n == 0 || self.is_empty() {
            return HitCandidates::default();
        }
        let features = match profile.counts() {
            Some(c) => c,
            None => {
                // Query enumeration overflowed: every size-compatible live
                // slot stays a candidate (sound; the verifier sorts it out).
                let mut out = HitCandidates::default();
                for slot in 0..n as u32 {
                    if !self.live[slot as usize] {
                        continue;
                    }
                    let (sn, sm) = self.sizes[slot as usize];
                    if sn >= qn && sm >= qm {
                        out.sub.push(slot);
                    }
                    if sn <= qn && sm <= qm {
                        out.super_.push(slot);
                    }
                }
                return out;
            }
        };

        // One posting-driven sweep over the query's feature multiset covers
        // both directions (O(posting entries touched), not O(features × n)):
        //
        // * sub direction: slot q is a candidate iff it satisfies
        //   `count_q(f) ≥ count_g(f)` for EVERY feature f of g — counted in
        //   `sat_sub`, compared against the number of query features;
        // * super direction: slot q is a candidate iff g satisfies
        //   `count_q(f) ≤ count_g(f)` for every feature of q — counted in
        //   `sat_super`, compared against the slot's distinct-feature count.
        let mut sat_sub: Vec<u32> = vec![0; n];
        let mut sat_super: Vec<u32> = vec![0; n];
        let g_features = features.len() as u32;
        for (feature, &g_count) in features {
            // The packed arena range first (a linear scan over contiguous
            // postings), then any spill-tail postings appended since the
            // last pack. The counters are order-independent, so visiting
            // the two segments in sequence is build-equivalent.
            if let Some(&(off, len)) = self.directory.get(feature) {
                for &(slot, q_count) in &self.arena[off as usize..(off + len) as usize] {
                    sat_super[slot as usize] += (q_count <= g_count) as u32;
                    sat_sub[slot as usize] += (q_count >= g_count) as u32;
                }
            }
            if let Some(spill) = self.tail.get(feature) {
                for &(slot, q_count) in spill {
                    sat_super[slot as usize] += (q_count <= g_count) as u32;
                    sat_sub[slot as usize] += (q_count >= g_count) as u32;
                }
            }
        }

        let mut out = HitCandidates::default();
        for slot in 0..n {
            if !self.live[slot] {
                continue;
            }
            let (sn, sm) = self.sizes[slot];
            let size_sub = sn >= qn && sm >= qm;
            let size_super = sn <= qn && sm <= qm;
            if size_sub && (self.overflow[slot] || sat_sub[slot] == g_features) {
                out.sub.push(slot as u32);
            }
            if size_super && (self.overflow[slot] || sat_super[slot] == self.distinct[slot]) {
                out.super_.push(slot as u32);
            }
        }
        out
    }

    /// Checks the index's internal consistency: the per-slot columns share
    /// one length, `serial → slot` is a bijection onto the live slots, the
    /// tombstone / dead-postings / spill tallies equal a recount, and the
    /// directory's ranges tile the postings arena. Returns the first
    /// violated clause (see [`crate::GraphCache::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let slots = self.serials.len();
        for (name, len) in [
            ("distinct", self.distinct.len()),
            ("sizes", self.sizes.len()),
            ("overflow", self.overflow.len()),
            ("live", self.live.len()),
            ("feature_counts", self.feature_counts.len()),
        ] {
            ensure(len == slots, InvariantClause::Columns, || {
                format!("index column {name} has {len} rows for {slots} slots")
            })?;
        }

        let live = self.live.iter().filter(|&&l| l).count();
        ensure(
            self.slot_of.len() == live,
            InvariantClause::SerialMap,
            || {
                format!(
                    "{} mapped serials for {live} live slots",
                    self.slot_of.len()
                )
            },
        )?;
        for (&serial, &slot) in &self.slot_of {
            let s = slot as usize;
            ensure(
                s < slots && self.live[s] && self.serials[s] == serial,
                InvariantClause::SerialMap,
                || format!("serial {serial} maps to slot {slot}, which does not hold it live"),
            )?;
        }

        let dead_postings: usize = (0..slots)
            .filter(|&s| !self.live[s])
            .map(|s| self.feature_counts[s] as usize)
            .sum();
        let spilled: usize = self.tail.values().map(Vec::len).sum();
        let contributed: usize = self.feature_counts.iter().map(|&c| c as usize).sum();
        let mut ranges: Vec<(u32, u32)> = self.directory.values().copied().collect();
        ranges.sort_unstable();
        let tiled = tiled_end(ranges);
        for (name, held, recount) in [
            ("tombstones", self.tombstones, slots - live),
            ("dead_postings", self.dead_postings, dead_postings),
            ("tail_len", self.tail_len, spilled),
            ("resident postings", self.postings_len(), contributed),
            (
                "directory coverage",
                tiled.unwrap_or(usize::MAX),
                self.arena.len(),
            ),
        ] {
            ensure(held == recount, InvariantClause::Counters, || {
                format!("{name}: held {held}, recounted {recount}")
            })?;
        }
        Ok(())
    }

    /// Approximate memory footprint in bytes (tombstoned slots still count
    /// until a compaction reclaims their postings).
    pub fn memory_bytes(&self) -> usize {
        let directory: usize = self
            .directory
            .keys()
            .map(|k| sizing::slice_bytes::<u32>(k.len()) + sizing::MAP_NODE_OVERHEAD)
            .sum();
        let tail: usize = self
            .tail
            .iter()
            .map(|(k, v)| {
                sizing::slice_bytes::<u32>(k.len())
                    + sizing::slice_bytes::<(u32, u32)>(v.len())
                    + sizing::MAP_NODE_OVERHEAD
            })
            .sum();
        sizing::slice_bytes::<(u32, u32)>(self.arena.len())
            + directory
            + tail
            + self.serials.len() * sizing::INDEX_SLOT_BYTES
            + self.slot_of.len() * sizing::MAP_SLOT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    fn build(graphs: &[LabeledGraph]) -> QueryIndex {
        QueryIndex::build(
            QueryIndexConfig::default(),
            graphs.iter().enumerate().map(|(i, g)| (i as u64 * 10, g)),
        )
    }

    #[test]
    fn empty_index_no_candidates() {
        let idx = build(&[]);
        assert!(idx.is_empty());
        let c = idx.candidates(&path_graph(&[0, 1]));
        assert!(c.sub.is_empty() && c.super_.is_empty());
    }

    #[test]
    fn sub_candidates_found() {
        // Cached: a-b-a path (3 nodes). New query: a-b edge ⊆ cached.
        let idx = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        let c = idx.candidates(&path_graph(&[0, 1]));
        assert_eq!(c.sub, vec![0]);
        // The edge is not a supergraph of anything cached.
        assert!(c.super_.is_empty());
    }

    #[test]
    fn super_candidates_found() {
        // Cached: a-b edge. New query: a-b-a path ⊇ cached.
        let idx = build(&[path_graph(&[0, 1])]);
        let c = idx.candidates(&path_graph(&[0, 1, 0]));
        assert_eq!(c.super_, vec![0]);
        assert!(c.sub.is_empty());
    }

    #[test]
    fn exact_size_appears_in_both_directions() {
        let idx = build(&[path_graph(&[0, 1])]);
        let c = idx.candidates(&path_graph(&[0, 1]));
        assert_eq!(c.sub, vec![0]);
        assert_eq!(c.super_, vec![0]);
    }

    #[test]
    fn label_mismatch_filters_out() {
        let idx = build(&[path_graph(&[0, 1, 0])]);
        let c = idx.candidates(&path_graph(&[7, 8]));
        assert!(c.sub.is_empty());
        assert!(c.super_.is_empty());
    }

    #[test]
    fn count_filtering_in_sub_direction() {
        // Cached: single a-b edge. Query: star b(a,a) needs TWO a-b paths.
        let idx = build(&[path_graph(&[0, 1])]);
        let star = LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]);
        let c = idx.candidates(&star);
        assert!(c.sub.is_empty(), "count precondition must prune");
    }

    #[test]
    fn count_filtering_in_super_direction() {
        // Cached: star b(a,a). Query: single a-b edge — the star cannot be
        // contained in it (feature count 2 > 1).
        let star = LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]);
        let idx = build(&[star]);
        let c = idx.candidates(&path_graph(&[0, 1]));
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
        let idx = build(&cached);
        // g = a-b-a ⊆ cached[0].
        let g = path_graph(&[0, 1, 0]);
        let c = idx.candidates(&g);
        assert!(c.sub.contains(&0), "true containment must remain");
        // g ⊇ cached[1]? No (labels differ) — but cached[1] ⊆ [2,2,...]? n/a.
        let g2 = path_graph(&[2, 2, 2]);
        let c2 = idx.candidates(&g2);
        assert!(c2.super_.contains(&1));
    }

    #[test]
    fn overflow_slots_conservative() {
        let cfg = QueryIndexConfig {
            max_path_len: 4,
            work_cap: 1,
        };
        let graphs = [path_graph(&[0, 1, 0])];
        let idx = QueryIndex::build(cfg, graphs.iter().map(|g| (7, g)));
        let c = idx.candidates(&path_graph(&[0, 1]));
        // Overflowed cached graph stays a sub-candidate (size permits).
        assert_eq!(c.sub, vec![0]);
        assert_eq!(idx.serial(0), 7);
    }

    #[test]
    fn accessors() {
        let idx = build(&[path_graph(&[0, 1, 0])]);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.serial(0), 0);
        assert_eq!(idx.size(0), (3, 2));
        assert_eq!(idx.slot_of(0), Some(0));
        assert!(idx.is_live(0));
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn remove_tombstones_slot() {
        let mut idx = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        assert_eq!(idx.remove(0), Some(0));
        assert_eq!(idx.remove(0), None, "already dead");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.slots(), 2, "postings stay until compaction");
        assert_eq!(idx.tombstones(), 1);
        assert!(!idx.is_live(0));
        assert!(idx.slot_of(0).is_none());
        // The dead slot no longer produces candidates…
        let c = idx.candidates(&path_graph(&[0, 1]));
        assert!(c.sub.is_empty() && c.super_.is_empty());
        // …but the surviving one still does.
        let c = idx.candidates(&path_graph(&[5, 5]));
        assert_eq!(c.sub, vec![1]);
    }

    #[test]
    fn insert_appends_live_slot() {
        let mut idx = build(&[path_graph(&[0, 1, 0])]);
        let g = path_graph(&[5, 5]);
        let profile = enumerate_paths(&g, 4, u64::MAX);
        let slot = idx.insert_profile(70, (2, 1), &profile);
        assert_eq!(slot, 1);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.serial(1), 70);
        let c = idx.candidates(&path_graph(&[5, 5]));
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
        let mut idx = QueryIndex::build(
            QueryIndexConfig::default(),
            graphs
                .iter()
                .take(2)
                .enumerate()
                .map(|(i, g)| (i as u64, g)),
        );
        idx.remove(0);
        for (i, g) in graphs.iter().enumerate().skip(2) {
            let profile = enumerate_paths(g, 4, u64::MAX);
            idx.insert_profile(
                i as u64,
                (g.node_count() as u32, g.edge_count() as u32),
                &profile,
            );
        }
        // Live entries in slot order: serials 1, 2, 3.
        let fresh = QueryIndex::build(
            QueryIndexConfig::default(),
            [1usize, 2, 3].iter().map(|&i| (i as u64, &graphs[i])),
        );
        for probe in [
            path_graph(&[0, 1]),
            path_graph(&[5, 5]),
            path_graph(&[0, 1, 0]),
            path_graph(&[1, 0, 1, 0, 1]),
        ] {
            let got = idx.candidates(&probe);
            let want = fresh.candidates(&probe);
            let to_serials = |idx: &QueryIndex, slots: &[u32]| -> Vec<QuerySerial> {
                slots.iter().map(|&s| idx.serial(s)).collect()
            };
            assert_eq!(to_serials(&idx, &got.sub), to_serials(&fresh, &want.sub));
            assert_eq!(
                to_serials(&idx, &got.super_),
                to_serials(&fresh, &want.super_)
            );
        }
    }

    #[test]
    fn invariant_check_follows_churn_and_names_the_broken_clause() {
        let mut idx = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        assert_eq!(idx.check_invariants(), Ok(()));
        idx.remove(0);
        let g = path_graph(&[7, 8, 7]);
        idx.insert_profile(99, (3, 2), &enumerate_paths(&g, 4, u64::MAX));
        assert_eq!(idx.check_invariants(), Ok(()), "tombstone + spill tail");

        let mut miscounted = idx.clone();
        miscounted.dead_postings += 1;
        let v = miscounted.check_invariants().unwrap_err();
        assert_eq!(v.clause, InvariantClause::Counters);
        assert!(v.detail.contains("dead_postings"), "{v}");

        let mut stale = idx.clone();
        stale.slot_of.insert(0, 0); // resurrects the tombstoned serial
        assert_eq!(
            stale.check_invariants().unwrap_err().clause,
            InvariantClause::SerialMap
        );
    }

    #[test]
    fn bulk_build_is_fully_packed() {
        let idx = build(&[path_graph(&[0, 1, 0]), path_graph(&[5, 5])]);
        assert!(idx.tail.is_empty(), "bulk build must end arena-resident");
        assert_eq!(idx.tail_len, 0);
        assert!(idx.postings_len() > 0);
        assert_eq!(idx.postings_len(), idx.arena.len());
        // Incremental inserts spill into the tail…
        let mut idx = idx;
        let g = path_graph(&[7, 8]);
        let profile = enumerate_paths(&g, 4, u64::MAX);
        idx.insert_profile(99, (2, 1), &profile);
        assert!(idx.tail_len > 0);
        assert_eq!(idx.postings_len(), idx.arena.len() + idx.tail_len);
        // …and probing still sees them.
        let c = idx.candidates(&path_graph(&[7, 8]));
        assert_eq!(c.sub, vec![2]);
    }

    #[test]
    fn postings_debt_tracks_dead_slots() {
        // Slot 0 owns far more postings than slot 1, so removing it must
        // push the postings-debt ratio well past the slot-count ratio.
        let mut idx = build(&[path_graph(&[0, 1, 2, 3, 4]), path_graph(&[5, 5])]);
        assert_eq!(idx.dead_postings(), 0);
        assert_eq!(idx.postings_debt(), 0.0);
        let total = idx.postings_len();
        idx.remove(0);
        assert!(idx.dead_postings() > 0);
        assert_eq!(idx.postings_len(), total, "postings stay until compaction");
        assert!(
            idx.postings_debt() > 0.5,
            "big dead slot dominates the postings: {}",
            idx.postings_debt()
        );
        let (live, reserved) = idx.arena_utilization();
        assert!(live < reserved);
        assert_eq!(reserved, total * std::mem::size_of::<(u32, u32)>());
        // Rebuilding over the survivor clears the debt.
        let fresh = build(&[path_graph(&[5, 5])]);
        assert_eq!(fresh.dead_postings(), 0);
        let (l, r) = fresh.arena_utilization();
        assert_eq!(l, r);
    }

    #[test]
    fn packed_layout_is_deterministic() {
        // Same logical content → identical arena bytes, regardless of the
        // insertion history that produced it (bulk builds sort features).
        let a = build(&[path_graph(&[0, 1, 0]), path_graph(&[1, 0, 1, 0])]);
        let b = build(&[path_graph(&[0, 1, 0]), path_graph(&[1, 0, 1, 0])]);
        assert_eq!(a.arena, b.arena);
        assert_eq!(a.arena.len(), b.postings_len());
    }
}

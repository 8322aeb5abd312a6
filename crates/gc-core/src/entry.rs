//! Cache entries, shards, and immutable sharded cache snapshots.
//!
//! The cache contents are partitioned into `N` serial-hashed [`Shard`]s.
//! A shard holds its entries in slots plus one packed column per value the
//! query path reads before it touches an entry: kind, fingerprint, size,
//! overflow flag, feature signature, answer range. The candidate pass over
//! those columns is [`Shard::candidates`] (see [`crate::query_index`]). A
//! maintenance round only touches the shards its victims/admissions hash
//! into — tombstoning removals and appending insertions — and compacts a
//! shard only when its tombstone debt crosses a threshold, so maintenance
//! cost is O(delta + touched shards), not O(|cache|). Readers assemble a
//! [`CacheSnapshot`] view from per-shard `Arc`s; the paper's "old index
//! keeps serving reads" invariant holds per shard (see [`crate::window`]).

use crate::invariants::{ensure, tiled_end, InvariantClause, InvariantViolation};
use crate::query_index::{signature, HitCandidates, Probe, Signature};
use crate::stats::QuerySerial;
use gc_graph::{sizing, GraphId, LabeledGraph};
use gc_index::fingerprint::iso_hash;
use gc_index::fx::FxHashMap;
use gc_index::paths::{enumerate_paths, PathProfile, PathShape};
use gc_methods::QueryKind;
use std::sync::{Arc, OnceLock};

/// One cached query: the query graph and its full answer set (paper §6.1,
/// first Cache store component).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The query's serial number (the store key).
    pub serial: QuerySerial,
    /// The query graph as submitted, shared with the execution that
    /// produced it (entries never deep-copy the graph).
    pub graph: Arc<LabeledGraph>,
    /// The query's answer set: sorted ids of dataset graphs containing it
    /// (subgraph mode) or contained in it (supergraph mode).
    pub answer: Vec<GraphId>,
    /// The direction the answer was computed under. Queries of one kind
    /// must never prune (or exactly answer) queries of the other — the
    /// answer sets mean different things — so the processors only consider
    /// entries whose kind matches the incoming request.
    pub kind: QueryKind,
    /// The query's path-feature profile, computed once at execution time so
    /// index rebuilds never re-enumerate cached graphs.
    pub profile: PathProfile,
    /// Isomorphism-invariant fingerprint of the query graph
    /// ([`gc_index::fingerprint::iso_hash`]), computed once at execution
    /// time — the key of the shard's exact-match map.
    pub fingerprint: u64,
    /// Memo of the §5.2 saving an exact hit on this entry is credited with:
    /// the summed cost estimate of the sub-iso tests its answer set stands
    /// for. It depends only on the entry and the dataset, costs one
    /// estimate per answer id, and an entry that is hit once is usually hit
    /// again — so the first exact hit computes it and the rest read it.
    pub(crate) exact_saving: OnceLock<f64>,
}

impl CacheEntry {
    /// Assembles an entry, computing the graph's iso fingerprint. Callers
    /// that already hold the fingerprint (the Window Manager) construct the
    /// struct directly instead.
    pub fn new(
        serial: QuerySerial,
        graph: Arc<LabeledGraph>,
        answer: Vec<GraphId>,
        kind: QueryKind,
        profile: PathProfile,
    ) -> Self {
        let fingerprint = iso_hash(&graph);
        CacheEntry {
            serial,
            graph,
            answer,
            kind,
            profile,
            fingerprint,
            exact_saving: OnceLock::new(),
        }
    }

    /// Approximate memory footprint in bytes, including the retained
    /// feature profile (kept for index patching, so it counts toward the
    /// §7.3 space overhead just as it does while pending in the Window).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + sizing::slice_bytes::<GraphId>(self.answer.len())
            + self.profile.memory_bytes()
            + sizing::ENTRY_OVERHEAD
    }
}

/// An entry's `(nodes, edges)` size, as the candidate pass reads it.
fn entry_size(entry: &CacheEntry) -> (u32, u32) {
    (
        entry.graph.node_count() as u32,
        entry.graph.edge_count() as u32,
    )
}

/// Routes a serial to its shard: a fixed multiplicative hash, so every
/// layer (snapshot build, lookup, maintenance delta, persistence restore)
/// agrees on placement without coordination.
pub fn shard_for(serial: QuerySerial, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (serial.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// One cache partition: its entries in slots, and one packed column per
/// value the query path reads before it dereferences an entry.
///
/// Slots are positions in the shard's entry vector; a removed entry leaves
/// a `None` tombstone so surviving slots never shift. Admission appends a
/// row to every column; [`compact`](Self::compact) rebuilds them densely
/// when tombstones pile up. Shards are patched through `Arc::make_mut` by
/// the Window Manager: in place while the shard lock holds the only
/// reference, and by deep copy (readers keep the old state) while any
/// [`CacheSnapshot`] view still holds the `Arc` — which is why the query
/// path releases its view before it can trigger a round (see
/// [`crate::window`]).
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Entry per slot; `None` marks a tombstone. The full entry (graph +
    /// profile) is only dereferenced once a slot survives candidate
    /// filtering — the filter itself runs on the packed columns below.
    entries: Vec<Option<Arc<CacheEntry>>>,
    /// Live serial → slot, for O(1) removal and exact-serial lookup.
    slot_of: FxHashMap<QuerySerial, u32>,
    /// Iso fingerprint → live slots carrying it — the exact-match fast
    /// path's key map, maintained incrementally (`insert` appends the slot,
    /// `remove` prunes it eagerly, so the map never accumulates tombstone
    /// debt).
    exact: FxHashMap<u64, Vec<u32>>,
    /// Per-slot iso fingerprints, packed (struct-of-arrays hot lane).
    fingerprints: Vec<u64>,
    /// Per-slot query kinds, packed — the gather stage's direction filter
    /// reads this column instead of chasing the entry `Arc`.
    kinds: Vec<QueryKind>,
    /// Per-slot distinct-label counts, packed: the §5.2 cost estimate of
    /// the gather stage reads this column instead of chasing the entry and
    /// graph `Arc`s per candidate.
    distinct_labels: Vec<u32>,
    /// Per-slot `(nodes, edges)` sizes — the candidate pass's first test.
    sizes: Vec<(u32, u32)>,
    /// Per slot: the entry's enumeration overflowed (no profile), so it
    /// passes both directions on size alone.
    overflow: Vec<bool>,
    /// Per-slot feature signatures — the candidate pass's second test
    /// (see [`crate::query_index`]).
    signatures: Vec<Signature>,
    /// Per-slot `(offset, len)` range into the shared [`answers`] arena.
    /// Tombstoned slots keep their range; the ids behind it become
    /// reserved-but-dead bytes until compaction reclaims them.
    ///
    /// [`answers`]: Shard::answers
    answer_ranges: Vec<(u32, u32)>,
    /// Shared answer arena: every slot's answer ids flattened contiguously
    /// in admission order, so the verify stage walks packed ids instead of
    /// per-entry `Vec` allocations scattered across the heap.
    answers: Vec<GraphId>,
    /// Answer ids belonging to live slots — the arena-utilization
    /// numerator ([`arena_utilization`](Self::arena_utilization)).
    answers_live: usize,
}

impl Shard {
    /// Builds a dense shard from entries, in order, reusing each entry's
    /// stored feature profile.
    pub fn build(entries: Vec<Arc<CacheEntry>>) -> Self {
        let mut shard = Shard::default();
        for e in entries {
            shard.insert(e);
        }
        shard
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when the shard holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Total slots, live and tombstoned.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Tombstoned slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.slots() - self.len()
    }

    /// The slot currently holding `serial`, when it is live.
    pub fn slot_of(&self, serial: QuerySerial) -> Option<u32> {
        self.slot_of.get(&serial).copied()
    }

    /// Looks up a live entry by serial (O(1) via the slot map).
    pub fn entry(&self, serial: QuerySerial) -> Option<&Arc<CacheEntry>> {
        self.slot_of(serial)
            .and_then(|slot| self.entries[slot as usize].as_ref())
    }

    /// The entry at a slot (`None` for tombstoned slots).
    pub fn entry_at(&self, slot: u32) -> Option<&Arc<CacheEntry>> {
        self.entries.get(slot as usize).and_then(|e| e.as_ref())
    }

    /// Iterates the live entries in slot order.
    pub fn live_entries(&self) -> impl Iterator<Item = &Arc<CacheEntry>> {
        self.entries.iter().flatten()
    }

    /// Admits an entry: appends a slot to every column and threads its
    /// fingerprint into the exact-match map. The serial must not already be
    /// live in this shard (a store invariant the Window Manager enforces
    /// before admission).
    pub fn insert(&mut self, entry: Arc<CacheEntry>) {
        let slot = self.entries.len() as u32;
        let previous = self.slot_of.insert(entry.serial, slot);
        debug_assert!(previous.is_none(), "serial {} inserted twice", entry.serial);
        self.exact.entry(entry.fingerprint).or_default().push(slot);
        self.fingerprints.push(entry.fingerprint);
        self.kinds.push(entry.kind);
        self.distinct_labels
            .push(entry.graph.distinct_label_count() as u32);
        self.sizes.push(entry_size(&entry));
        self.overflow.push(entry.profile.counts().is_none());
        self.signatures.push(signature(&entry.profile));
        let offset = self.answers.len() as u32;
        self.answers.extend_from_slice(&entry.answer);
        self.answer_ranges.push((offset, entry.answer.len() as u32));
        self.answers_live += entry.answer.len();
        self.entries.push(Some(entry));
    }

    /// Evicts an entry: tombstones its slot in place and prunes the
    /// exact-match map. Returns whether the serial was live here.
    pub fn remove(&mut self, serial: QuerySerial) -> bool {
        let Some(slot) = self.slot_of.remove(&serial) else {
            return false;
        };
        if let Some(entry) = self.entries[slot as usize].take() {
            if let Some(slots) = self.exact.get_mut(&entry.fingerprint) {
                slots.retain(|&s| s != slot);
                if slots.is_empty() {
                    self.exact.remove(&entry.fingerprint);
                }
            }
            // The range stays behind in `answer_ranges`/`answers` as
            // reserved-dead bytes; only the live counter moves.
            self.answers_live -= self.answer_ranges[slot as usize].1 as usize;
        }
        true
    }

    /// Candidate slots for a prepared query, both directions, in one pass
    /// over the live slots: size, then signature, then — on survivors
    /// only — the exact profile merge (see [`crate::query_index`]).
    pub fn candidates(&self, probe: &Probe<'_>) -> HitCandidates {
        let mut out = HitCandidates::default();
        for (slot, entry) in self.entries.iter().enumerate() {
            let Some(entry) = entry else {
                continue;
            };
            let (sub, sup) = probe.decide(
                self.sizes[slot],
                self.overflow[slot],
                &self.signatures[slot],
                &entry.profile,
            );
            if sub {
                out.sub.push(slot as u32);
            }
            if sup {
                out.super_.push(slot as u32);
            }
        }
        out
    }

    /// Live slots whose entries carry the given iso fingerprint — the
    /// exact-match fast path probe. Candidates, not proof: the caller must
    /// confirm isomorphism (hash collisions are possible, just rare).
    pub fn exact_slots(&self, fingerprint: u64) -> &[u32] {
        self.exact.get(&fingerprint).map_or(&[], |v| v.as_slice())
    }

    /// The query kind at a slot, from the packed column (valid for any
    /// allocated slot, including tombstones).
    pub fn kind_at(&self, slot: u32) -> QueryKind {
        self.kinds[slot as usize]
    }

    /// The `(nodes, edges)` size of the query at a slot, from the packed
    /// column.
    pub fn size_at(&self, slot: u32) -> (u32, u32) {
        self.sizes[slot as usize]
    }

    /// The iso fingerprint at a slot, from the packed column.
    pub fn fingerprint_at(&self, slot: u32) -> u64 {
        self.fingerprints[slot as usize]
    }

    /// Distinct-label count of the graph at a slot, from the packed column
    /// (see [`LabeledGraph::distinct_label_count`]).
    pub fn distinct_labels_at(&self, slot: u32) -> u32 {
        self.distinct_labels[slot as usize]
    }

    /// Answer-set length at a slot, from the packed range column — the
    /// cost-estimation input the gather stage reads without dereferencing
    /// the entry.
    pub fn answer_len_at(&self, slot: u32) -> u32 {
        self.answer_ranges[slot as usize].1
    }

    /// The answer ids at a slot, as a contiguous arena segment.
    pub fn answer_at(&self, slot: u32) -> &[GraphId] {
        let (offset, len) = self.answer_ranges[slot as usize];
        &self.answers[offset as usize..(offset + len) as usize]
    }

    /// Answer-arena utilization of this shard as
    /// `(bytes_live, bytes_reserved)`: bytes still referenced by live slots
    /// versus total bytes held, so fragmentation left behind by tombstones
    /// is observable before compaction reclaims it.
    pub fn arena_utilization(&self) -> (usize, usize) {
        (
            sizing::slice_bytes::<GraphId>(self.answers_live),
            sizing::slice_bytes::<GraphId>(self.answers.len()),
        )
    }

    /// Fraction of slots that are tombstones — the compaction-debt signal
    /// the Window Manager compares against its threshold.
    pub fn tombstone_debt(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.tombstones() as f64 / self.slots() as f64
        }
    }

    /// A dense rebuild of this shard from its live entries (slot order
    /// preserved), reclaiming tombstoned slots — the per-shard full-rebuild
    /// fallback, O(|shard|). Non-mutating so the Window Manager can build it
    /// off-lock and swap it in with a pointer store.
    pub fn compacted(&self) -> Shard {
        Shard::build(self.live_entries().cloned().collect())
    }

    /// In-place [`compacted`](Self::compacted) (owned-state callers).
    pub fn compact(&mut self) {
        *self = self.compacted();
    }

    /// A dense rebuild with slots reordered by a maintenance rank: entries
    /// with smaller keys pack into the lowest slots, so the policy-hot
    /// entries a sweep visits most often share cache lines instead of being
    /// scattered in admission order. The key must totally order the live
    /// serials (callers tie-break on the serial itself) so the layout is
    /// deterministic; candidate *sets* are unchanged by construction — only
    /// slot numbering moves, and hit assembly is serial-ordered downstream.
    pub fn compacted_ranked<K, F>(&self, rank: F) -> Shard
    where
        K: Ord,
        F: Fn(QuerySerial) -> K,
    {
        let mut live: Vec<Arc<CacheEntry>> = self.live_entries().cloned().collect();
        live.sort_by_cached_key(|e| (rank(e.serial), e.serial));
        Shard::build(live)
    }

    /// Checks this shard against the store invariant, as shard `home` of
    /// `shards`: packed columns aligned with the entries they mirror
    /// (signature and overflow flag recomputed from each live profile),
    /// `serial → slot` a bijection onto the live slots, every serial routed
    /// here, the exact-match map listing exactly the live slots, the answer
    /// ranges tiling their arena with `answers_live` equal to a recount, and
    /// `memory_bytes` equal to a recount from the live entries and
    /// allocated slots. Returns the first violated clause, tagged with
    /// `home`.
    pub fn check_invariants(&self, home: usize, shards: usize) -> Result<(), InvariantViolation> {
        self.check_clauses(home, shards).map_err(|mut v| {
            v.shard = Some(home);
            v
        })
    }

    fn check_clauses(&self, home: usize, shards: usize) -> Result<(), InvariantViolation> {
        let slots = self.slots();
        for (name, len) in [
            ("fingerprints", self.fingerprints.len()),
            ("kinds", self.kinds.len()),
            ("distinct_labels", self.distinct_labels.len()),
            ("sizes", self.sizes.len()),
            ("overflow", self.overflow.len()),
            ("signatures", self.signatures.len()),
            ("answer_ranges", self.answer_ranges.len()),
        ] {
            ensure(len == slots, InvariantClause::Columns, || {
                format!("shard column {name} has {len} rows for {slots} slots")
            })?;
        }
        let live = self.live_entries().count();
        ensure(self.len() == live, InvariantClause::SerialMap, || {
            format!("{} mapped serials for {live} live slots", self.len())
        })?;
        for slot in 0..slots as u32 {
            let Some(e) = self.entry_at(slot) else {
                continue;
            };
            ensure(
                self.slot_of(e.serial) == Some(slot),
                InvariantClause::SerialMap,
                || {
                    format!(
                        "slot {slot} holds entry {}, the serial map disagrees",
                        e.serial
                    )
                },
            )?;
            ensure(
                shard_for(e.serial, shards) == home,
                InvariantClause::SerialMap,
                || format!("serial {} does not route to this shard", e.serial),
            )?;
            ensure(
                self.fingerprint_at(slot) == e.fingerprint
                    && self.kind_at(slot) == e.kind
                    && self.distinct_labels_at(slot) as usize == e.graph.distinct_label_count()
                    && self.size_at(slot) == entry_size(e)
                    && self.answer_at(slot) == e.answer.as_slice(),
                InvariantClause::Columns,
                || {
                    format!(
                        "packed columns of slot {slot} differ from entry {}",
                        e.serial
                    )
                },
            )?;
            ensure(
                self.overflow[slot as usize] == e.profile.counts().is_none()
                    && self.signatures[slot as usize] == signature(&e.profile),
                InvariantClause::Columns,
                || {
                    format!(
                        "signature or overflow flag of slot {slot} differs from entry {}'s profile",
                        e.serial
                    )
                },
            )?;
        }

        let mut listed = 0usize;
        for (&fp, bucket) in &self.exact {
            listed += bucket.len();
            let sound = !bucket.is_empty()
                && bucket.windows(2).all(|w| w[0] < w[1])
                && bucket.iter().all(|&slot| {
                    self.entry_at(slot).is_some() && self.fingerprints[slot as usize] == fp
                });
            ensure(sound, InvariantClause::FingerprintMap, || {
                format!("bucket {fp:#x} lists {bucket:?}")
            })?;
        }
        ensure(
            listed == self.len(),
            InvariantClause::FingerprintMap,
            || format!("{listed} slots listed for {} live entries", self.len()),
        )?;

        ensure(
            tiled_end(self.answer_ranges.iter().copied()) == Some(self.answers.len()),
            InvariantClause::Counters,
            || format!("answer ranges do not tile {} arena ids", self.answers.len()),
        )?;
        let answers_live: usize = self.live_entries().map(|e| e.answer.len()).sum();
        ensure(
            self.answers_live == answers_live,
            InvariantClause::Counters,
            || {
                format!(
                    "answers_live: held {}, recounted {answers_live}",
                    self.answers_live
                )
            },
        )?;

        // One bucket per distinct live fingerprint, one u32 per live slot.
        let mut live_fps: Vec<u64> = self.live_entries().map(|e| e.fingerprint).collect();
        live_fps.sort_unstable();
        live_fps.dedup();
        let per_slot = std::mem::size_of::<u64>()
            + std::mem::size_of::<QueryKind>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<(u32, u32)>()
            + std::mem::size_of::<bool>()
            + std::mem::size_of::<Signature>()
            + std::mem::size_of::<(u32, u32)>();
        let recount = self.live_entries().map(|e| e.memory_bytes()).sum::<usize>()
            + self.len() * sizing::MAP_SLOT_BYTES
            + live_fps.len() * sizing::MAP_NODE_OVERHEAD
            + sizing::slice_bytes::<u32>(self.len())
            + slots * per_slot
            + sizing::slice_bytes::<GraphId>(self.answers.len());
        ensure(
            self.memory_bytes() == recount,
            InvariantClause::MemoryBytes,
            || format!("reported {}, recounted {recount}", self.memory_bytes()),
        )
    }

    /// Approximate memory footprint of entries + serial map + exact map +
    /// packed columns, in bytes.
    pub fn memory_bytes(&self) -> usize {
        let exact: usize = self
            .exact
            .values()
            .map(|v| sizing::slice_bytes::<u32>(v.len()) + sizing::MAP_NODE_OVERHEAD)
            .sum();
        let columns = sizing::slice_bytes::<u64>(self.fingerprints.len())
            + sizing::slice_bytes::<QueryKind>(self.kinds.len())
            + sizing::slice_bytes::<u32>(self.distinct_labels.len())
            + sizing::slice_bytes::<(u32, u32)>(self.sizes.len())
            + sizing::slice_bytes::<bool>(self.overflow.len())
            + sizing::slice_bytes::<Signature>(self.signatures.len())
            + sizing::slice_bytes::<(u32, u32)>(self.answer_ranges.len())
            + sizing::slice_bytes::<GraphId>(self.answers.len());
        self.live_entries().map(|e| e.memory_bytes()).sum::<usize>()
            + self.slot_of.len() * sizing::MAP_SLOT_BYTES
            + exact
            + columns
    }
}

#[cfg(test)]
impl Shard {
    /// The signature column at `slot`, for invariant tests that corrupt it.
    pub(crate) fn signature_mut(&mut self, slot: u32) -> &mut Signature {
        &mut self.signatures[slot as usize]
    }

    /// Maps `serial` to `slot` behind the shard's back, for invariant tests.
    pub(crate) fn map_serial(&mut self, serial: QuerySerial, slot: u32) {
        self.slot_of.insert(serial, slot);
    }
}

/// An immutable view of the cache contents: one `Arc` per shard, assembled
/// by a reader from the per-shard locks. The Window Manager patches (or
/// swaps) only the shards a maintenance round touches; a reader's snapshot
/// keeps every shard it captured alive, exactly as the paper's old index
/// keeps serving in-flight queries — per shard (paper §6.2: swaps are
/// "simple in-memory reference (pointer) swaps").
#[derive(Debug, Clone)]
pub struct CacheSnapshot {
    shape: PathShape,
    shards: Vec<Arc<Shard>>,
}

impl CacheSnapshot {
    /// An empty single-shard snapshot (system start: "GraphCache's data
    /// stores are initially all empty", §5.1).
    pub fn empty(shape: PathShape) -> Self {
        Self::empty_sharded(shape, 1)
    }

    /// An empty snapshot with `shards` partitions.
    pub fn empty_sharded(shape: PathShape, shards: usize) -> Self {
        CacheSnapshot {
            shape,
            shards: (0..shards.max(1))
                .map(|_| Arc::new(Shard::default()))
                .collect(),
        }
    }

    /// Builds a single-shard snapshot from a set of entries, reusing each
    /// entry's stored feature profile.
    pub fn build(shape: PathShape, entries: Vec<Arc<CacheEntry>>) -> Self {
        Self::build_sharded(shape, 1, entries)
    }

    /// Builds a snapshot with `shards` partitions; entries are routed by
    /// [`shard_for`] and keep their relative order within each shard.
    pub fn build_sharded(shape: PathShape, shards: usize, entries: Vec<Arc<CacheEntry>>) -> Self {
        let n = shards.max(1);
        let mut parts: Vec<Vec<Arc<CacheEntry>>> = (0..n).map(|_| Vec::new()).collect();
        for e in entries {
            parts[shard_for(e.serial, n)].push(e);
        }
        CacheSnapshot {
            shape,
            shards: parts
                .into_iter()
                .map(|p| Arc::new(Shard::build(p)))
                .collect(),
        }
    }

    /// Assembles a snapshot view from already-built shards.
    pub fn from_shards(shape: PathShape, shards: Vec<Arc<Shard>>) -> Self {
        debug_assert!(!shards.is_empty());
        CacheSnapshot { shape, shards }
    }

    /// The shards, in routing order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Decomposes the view into its shards (used when installing a rebuilt
    /// snapshot, e.g. on restore).
    pub fn into_shards(self) -> Vec<Arc<Shard>> {
        self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The query index's path shape, shared by every shard.
    pub fn index_shape(&self) -> PathShape {
        self.shape
    }

    /// Number of cached queries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Looks up an entry by serial in its home shard.
    pub fn entry(&self, serial: QuerySerial) -> Option<&Arc<CacheEntry>> {
        self.shards[shard_for(serial, self.shards.len())].entry(serial)
    }

    /// Iterates all live entries, shard by shard in slot order.
    pub fn iter_entries(&self) -> impl Iterator<Item = &Arc<CacheEntry>> {
        self.shards.iter().flat_map(|s| s.live_entries())
    }

    /// Enumerates a query's feature profile under this snapshot's index
    /// configuration (computed once per query, reused for candidate probing
    /// across every shard and for eventual admission).
    pub fn profile_of(&self, query: &LabeledGraph) -> PathProfile {
        enumerate_paths(query, self.shape.max_len, self.shape.work_cap)
    }

    /// Candidate *serials* for a query, both directions, merged across
    /// shards (diagnostics and equivalence tests; the hot path works
    /// per shard on slots — see [`crate::processors`]).
    pub fn candidate_serials(&self, query: &LabeledGraph) -> (Vec<QuerySerial>, Vec<QuerySerial>) {
        let profile = self.profile_of(query);
        let probe = Probe::new(
            &profile,
            (query.node_count() as u32, query.edge_count() as u32),
        );
        let mut sub = Vec::new();
        let mut super_ = Vec::new();
        for shard in &self.shards {
            let HitCandidates { sub: s, super_: p } = shard.candidates(&probe);
            let serial = |&slot: &u32| shard.entry_at(slot).map(|e| e.serial);
            sub.extend(s.iter().filter_map(serial));
            super_.extend(p.iter().filter_map(serial));
        }
        (sub, super_)
    }

    /// Approximate memory footprint of entries + indexes, in bytes (the
    /// space overhead the paper compares against FTV index sizes, §7.3).
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }

    /// Per-shard arena utilization `(bytes_live, bytes_reserved)`, in
    /// routing order (see [`Shard::arena_utilization`]).
    pub fn arena_utilization(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| s.arena_utilization()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_index::QUERY_INDEX_SHAPE;

    fn entry(serial: QuerySerial) -> Arc<CacheEntry> {
        let graph = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let profile = gc_index::paths::enumerate_paths(&graph, 4, u64::MAX);
        Arc::new(CacheEntry::new(
            serial,
            Arc::new(graph),
            vec![GraphId(0), GraphId(2)],
            QueryKind::Subgraph,
            profile,
        ))
    }

    #[test]
    fn empty_snapshot() {
        let s = CacheSnapshot::empty(QUERY_INDEX_SHAPE);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.shard_count(), 1);
        assert!(s.entry(1).is_none());
    }

    #[test]
    fn build_and_lookup() {
        let s = CacheSnapshot::build(QUERY_INDEX_SHAPE, vec![entry(5), entry(9)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.entry(9).unwrap().serial, 9);
        assert!(s.entry(7).is_none());
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn sharded_build_routes_and_looks_up() {
        let serials: Vec<QuerySerial> = (1..=20).collect();
        let s = CacheSnapshot::build_sharded(
            QUERY_INDEX_SHAPE,
            4,
            serials.iter().map(|&x| entry(x)).collect(),
        );
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.len(), 20);
        for &x in &serials {
            assert_eq!(s.entry(x).unwrap().serial, x);
            // The entry lives in exactly its routed shard.
            assert!(s.shards()[shard_for(x, 4)].entry(x).is_some());
        }
        let mut seen: Vec<QuerySerial> = s.iter_entries().map(|e| e.serial).collect();
        seen.sort_unstable();
        assert_eq!(seen, serials);
    }

    #[test]
    fn shard_insert_remove_compact() {
        let mut shard = Shard::build(vec![entry(1), entry(2), entry(3)]);
        assert!(shard.remove(2));
        assert!(!shard.remove(2), "double remove is a no-op");
        assert_eq!(shard.len(), 2);
        assert!(shard.entry(2).is_none());
        assert!(shard.entry(3).is_some());
        assert!((shard.tombstone_debt() - 1.0 / 3.0).abs() < 1e-9);

        shard.insert(entry(4));
        assert_eq!(shard.len(), 3);
        assert_eq!(shard.entry(4).unwrap().serial, 4);

        shard.compact();
        assert_eq!(shard.len(), 3);
        assert_eq!(shard.tombstone_debt(), 0.0);
        assert_eq!(shard.slots(), 3, "dense after compaction");
        let order: Vec<QuerySerial> = shard.live_entries().map(|e| e.serial).collect();
        assert_eq!(order, vec![1, 3, 4], "slot order preserved");
    }

    #[test]
    fn exact_map_follows_insert_remove_compact() {
        let mut shard = Shard::build(vec![entry(1), entry(2)]);
        let fp = entry(1).fingerprint; // all test entries share one graph
        assert_eq!(shard.exact_slots(fp), &[0, 1]);
        assert!(shard.exact_slots(fp ^ 1).is_empty());

        shard.remove(1);
        assert_eq!(shard.exact_slots(fp), &[1], "evicted slot pruned eagerly");
        shard.insert(entry(3));
        assert_eq!(shard.exact_slots(fp), &[1, 2]);

        shard.compact();
        assert_eq!(shard.exact_slots(fp), &[0, 1], "dense slots after rebuild");
        for &slot in shard.exact_slots(fp) {
            assert!(shard.entry_at(slot).is_some());
        }
    }

    #[test]
    fn packed_columns_follow_insert_remove_compact() {
        let mut shard = Shard::build(vec![entry(1), entry(2), entry(3)]);
        for slot in 0..3u32 {
            let e = shard.entry_at(slot).unwrap();
            assert_eq!(shard.fingerprint_at(slot), e.fingerprint);
            assert_eq!(shard.kind_at(slot), e.kind);
            assert_eq!(shard.answer_len_at(slot) as usize, e.answer.len());
            assert_eq!(shard.answer_at(slot), e.answer.as_slice());
        }

        let (live_full, reserved_full) = shard.arena_utilization();
        assert_eq!(live_full, reserved_full, "dense shard fully utilized");

        shard.remove(2);
        let (live, reserved) = shard.arena_utilization();
        assert!(live < reserved, "tombstoned ranges become dead bytes");
        assert_eq!(reserved, reserved_full, "reserved unchanged until compact");
        // Surviving slots still read their own columns.
        let slot3 = 2u32; // slot of serial 3 (admission order 1, 2, 3)
        assert_eq!(
            shard.answer_at(slot3),
            shard.entry(3).unwrap().answer.as_slice()
        );

        shard.compact();
        let (live, reserved) = shard.arena_utilization();
        assert_eq!(live, reserved, "compaction reclaims dead arena bytes");
    }

    #[test]
    fn ranked_compaction_reorders_but_preserves_contents() {
        let mut shard = Shard::build(vec![entry(1), entry(2), entry(3), entry(4)]);
        shard.remove(2);
        // Hotter = smaller key; make serial 4 hottest, then 1, then 3.
        let heat = |serial: QuerySerial| match serial {
            4 => 0u64,
            1 => 1,
            _ => 2,
        };
        let ranked = shard.compacted_ranked(heat);
        let order: Vec<QuerySerial> = ranked.live_entries().map(|e| e.serial).collect();
        assert_eq!(order, vec![4, 1, 3], "hot entries pack into low slots");
        assert_eq!(ranked.tombstone_debt(), 0.0);
        let (live, reserved) = ranked.arena_utilization();
        assert_eq!(live, reserved);
        // Same live serials, same per-serial answers, columns realigned.
        for &serial in &[1u64, 3, 4] {
            let e = ranked.entry(serial).unwrap();
            let slot = ranked.slot_of(serial).unwrap();
            assert_eq!(ranked.fingerprint_at(slot), e.fingerprint);
            assert_eq!(ranked.answer_at(slot), e.answer.as_slice());
        }
        assert!(ranked.entry(2).is_none());
    }

    #[test]
    fn invariant_check_follows_churn_and_names_the_broken_clause() {
        let mut shard = Shard::build(vec![entry(1), entry(2), entry(3)]);
        assert_eq!(shard.check_invariants(0, 1), Ok(()));
        shard.remove(2);
        shard.insert(entry(4));
        assert_eq!(shard.check_invariants(0, 1), Ok(()), "tombstone + append");
        shard.compact();
        assert_eq!(shard.check_invariants(0, 1), Ok(()), "dense rebuild");

        let broken = |mutate: fn(&mut Shard)| {
            let mut s = shard.clone();
            mutate(&mut s);
            let v = s.check_invariants(0, 1).unwrap_err();
            assert_eq!(v.shard, Some(0));
            v.clause
        };
        assert_eq!(
            broken(|s| s.answers_live += 1),
            InvariantClause::Counters,
            "drifted tally"
        );
        assert_eq!(
            broken(|s| s.fingerprints[0] ^= 1),
            InvariantClause::Columns,
            "packed column out of step with its entry"
        );
        assert_eq!(
            broken(|s| s.exact.values_mut().for_each(|b| b.truncate(1))),
            InvariantClause::FingerprintMap,
            "live slots missing from the exact-match map"
        );
        assert_eq!(
            broken(|s| {
                s.exact.insert(7, Vec::new());
            }),
            InvariantClause::FingerprintMap,
            "empty bucket left behind"
        );
        // The same shard checked as a member of a 4-way partition: serials
        // 1, 3 and 4 do not all route to shard 0.
        assert_eq!(
            shard.check_invariants(0, 4).unwrap_err().clause,
            InvariantClause::SerialMap
        );
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 7, 16] {
            for serial in 0..200u64 {
                let s = shard_for(serial, n);
                assert!(s < n);
                assert_eq!(s, shard_for(serial, n), "deterministic");
            }
        }
    }
}

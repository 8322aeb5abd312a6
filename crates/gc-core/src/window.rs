//! The Window Manager (paper §6.2): batched cache admission, replacement
//! and re-indexing, with incremental, sharded snapshot maintenance.
//!
//! Missed queries accumulate in the Window (default W = 20); an exact hit
//! is already cached, credits its resident entry and never enters it, so W
//! counts admission candidates. When the Window fills, the manager (1) runs
//! admission control over the batch and drops every entry isomorphic to a
//! live entry or to an earlier one of the same batch, (2) asks the
//! replacement policy for victims if the cache lacks room, and (3) applies
//! the victim/admit *delta* to the cache shards — so every cached query
//! occupies exactly one entry.
//!
//! # The sharded delta path
//!
//! The cache snapshot is partitioned into `N` serial-hashed shards (see
//! [`crate::entry`]), each behind its own `RwLock<Arc<Shard>>`. A
//! maintenance round groups its delta by shard and patches only the shards
//! that victims or admissions actually hash into: evictions tombstone
//! their slot in place, admissions append a slot, and the patch goes
//! through `Arc::make_mut`. Shards the delta misses are never locked and
//! their `Arc`s are untouched, so the index delta is
//! O(delta + touched shards), not O(|cache|).
//!
//! `Arc::make_mut` patches in place exactly when the shard lock holds the
//! only reference, and otherwise deep-copies the shard — entry vector,
//! serial and fingerprint maps and packed columns (the candidate filter's
//! sizes and signatures among them) — before patching the copy. Who else
//! can hold a
//! reference: a query's snapshot view (`Shared::load_snapshot`, one
//! `Arc` per shard). The round's own view is dropped before the patch
//! loop, and the query path drops its view before it pushes to the Window
//! (`GraphCache::run_overridden` scopes it to the read phase), so the
//! inline round a query triggers on its own thread always patches in
//! place. Copy-on-write is left for a view that really is concurrent with
//! the round: another client's query in flight. `cache.rs` pins both
//! arms through the public path
//! (`single_client_round_patches_shards_in_place`,
//! `held_view_forces_copy_on_write_and_keeps_its_epoch`); the tests below
//! call `maintain` directly and cannot see a view the caller holds.
//!
//! An admission appends one row to each of the shard's columns; nothing is
//! re-sorted or re-packed. An eviction tombstones its slot, which keeps its
//! column rows until the shard's *compaction threshold* is crossed
//! (`COMPACT_DEBT`, 50% dead slots). Tombstones are the only debt a shard
//! carries, so this is the only trigger: that shard alone falls back to a
//! dense full rebuild ([`Shard::compacted`]), which keeps the live slots in
//! admission order and bounds both the dead rows and the candidate pass's
//! walk over them. The candidate pass visits every live slot and hit
//! assembly sorts by serial, so slot order changes no counter.
//!
//! The paper's invariant — "queries arriving at the system while this
//! procedure is taking place continue being served by the old index" —
//! holds per shard: a query's snapshot view pins the shard `Arc`s it
//! captured, a patch never mutates a shard some reader still holds
//! (copy-on-write takes over), and each shard flips atomically under its
//! own lock. Readers racing a round may observe some shards pre-patch and
//! others post-patch; since shards partition the serial space this is
//! merely an intermediate cache state (a transiently smaller/larger
//! candidate pool), never a torn shard.

use crate::admission::AdmissionPolicy;
use crate::entry::{shard_for, CacheEntry, CacheSnapshot, Shard};
use crate::fragments::{self, FragmentSource, FragmentState};
use crate::metrics::MaintStats;
use crate::policy::{EvictionPolicy, PolicyRow, PolicyView};
use crate::processors::{self, VerifyOptions};
use crate::stats::{QuerySerial, StatsStore};
use gc_graph::{sizing, GraphId, LabeledGraph};
use gc_index::paths::PathProfile;
use gc_methods::QueryKind;
use gc_subiso::Matcher;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The compaction threshold: a shard compacts once half its slots are
/// tombstones.
pub(crate) const COMPACT_DEBT: f64 = 0.5;

/// One missed query waiting in the Window: the graph, its freshly computed
/// answer, and the static/timing statistics the Window stores keep (paper
/// §6.1).
#[derive(Debug, Clone)]
pub struct WindowEntry {
    /// Query serial.
    pub serial: QuerySerial,
    /// The query graph, shared with the execution that produced it (the
    /// Window never deep-copies graphs).
    pub graph: Arc<LabeledGraph>,
    /// Its answer set.
    pub answer: Vec<GraphId>,
    /// The direction the answer was computed under (carried into the
    /// cache entry so hits never cross query kinds).
    pub kind: QueryKind,
    /// The query's feature profile (computed during execution; carried
    /// into the cache entry, whose signature it sets).
    pub profile: PathProfile,
    /// The query's iso fingerprint (computed during execution; carried into
    /// the cache entry so admission never re-hashes the graph).
    pub fingerprint: u64,
    /// Expensiveness score (see [`crate::admission`]).
    pub expensiveness: f64,
}

impl WindowEntry {
    /// Approximate memory footprint in bytes — the pending-buffer share of
    /// [`GraphCache::memory_bytes`](crate::GraphCache::memory_bytes).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + sizing::slice_bytes::<GraphId>(self.answer.len())
            + self.profile.memory_bytes()
            + sizing::WINDOW_ENTRY_OVERHEAD
    }
}

/// Cumulative maintenance counters: rounds, their wall time (the Fig. 10
/// overhead) and the per-phase breakdown (atomics: the query path reads
/// them without taking the maintenance lock). Snapshotted into the public
/// [`MaintStats`].
#[derive(Debug, Default)]
pub(crate) struct MaintCounters {
    rounds: AtomicU64,
    total_us: AtomicU64,
    victim_select_us: AtomicU64,
    index_delta_us: AtomicU64,
    stats_upkeep_us: AtomicU64,
    fragment_upkeep_us: AtomicU64,
    entries_admitted: AtomicU64,
    entries_evicted: AtomicU64,
    shards_patched: AtomicU64,
    compactions: AtomicU64,
    fragments_built: AtomicU64,
    fragments_evicted: AtomicU64,
}

impl MaintCounters {
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        victim_select: Duration,
        index_delta: Duration,
        stats_upkeep: Duration,
        admitted: usize,
        evicted: usize,
        shards_patched: u64,
        compactions: u64,
    ) {
        self.victim_select_us
            .fetch_add(victim_select.as_micros() as u64, Ordering::Relaxed);
        self.index_delta_us
            .fetch_add(index_delta.as_micros() as u64, Ordering::Relaxed);
        self.stats_upkeep_us
            .fetch_add(stats_upkeep.as_micros() as u64, Ordering::Relaxed);
        self.entries_admitted
            .fetch_add(admitted as u64, Ordering::Relaxed);
        self.entries_evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        self.shards_patched
            .fetch_add(shards_patched, Ordering::Relaxed);
        self.compactions.fetch_add(compactions, Ordering::Relaxed);
    }

    /// Books one finished round, started at `t0`, and returns its wall
    /// time.
    fn record_round(&self, t0: Instant) -> Duration {
        let elapsed = t0.elapsed();
        self.total_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.rounds.fetch_add(1, Ordering::Relaxed);
        elapsed
    }

    fn record_fragments(&self, upkeep: Duration, built: u64, evicted: u64) {
        self.fragment_upkeep_us
            .fetch_add(upkeep.as_micros() as u64, Ordering::Relaxed);
        self.fragments_built.fetch_add(built, Ordering::Relaxed);
        self.fragments_evicted.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// State shared between every [`GraphCache`](crate::GraphCache) handle: the
/// query path reads it, and the round a query runs when it fills the
/// Window ([`maintain`]) changes it.
///
/// All mutable state lives here behind fine-grained synchronisation so the
/// query path only needs `&self`: each cache shard behind its own
/// [`RwLock`] (held only for the `Arc` clone / patch), the statistics and
/// admission stores behind [`Mutex`]es, the Window buffer behind its own
/// [`Mutex`], and the serial counter as an atomic.
pub(crate) struct Shared {
    /// The cache shards; a maintenance round locks only the shards its
    /// delta touches, readers clone each shard's `Arc` independently.
    pub shards: Vec<RwLock<Arc<Shard>>>,
    /// Statistics of cached queries (GCstats).
    pub stats: Mutex<StatsStore>,
    /// The admission policy, built from its spec by
    /// [`crate::registry::build_admission`].
    pub admission: Mutex<Box<dyn AdmissionPolicy>>,
    /// The eviction policy. Per-policy private state lives inside the
    /// trait object, behind this lock, so the query path's event hooks
    /// and the maintenance path's victim selection never race.
    pub eviction: Mutex<Box<dyn EvictionPolicy>>,
    /// The Window buffer: missed queries waiting for the next maintenance
    /// round (paper §6.2). Exact hits never enter it — they are already
    /// cached.
    pub window: Mutex<Vec<WindowEntry>>,
    /// Serialises snapshot read-modify-write cycles ([`maintain`] rounds
    /// and [`GraphCache::restore`](crate::GraphCache::restore)). Without
    /// it, two clients' rounds would interleave their per-shard patches
    /// and the later round would select victims against a state the
    /// earlier round is still changing.
    pub maint: Mutex<()>,
    /// Serial-number source; queries claim `fetch_add(1) + 1` on arrival.
    pub serial: AtomicU64,
    /// Sequence number of the snapshot generation the cache was last
    /// restored from (`0` = never restored, or restored from a flat
    /// pre-generation snapshot). A gauge, not a counter: each successful
    /// [`GraphCache::restore`](crate::GraphCache::restore) overwrites it.
    pub recovered_generation: AtomicU64,
    /// Rounds, their time and the per-phase breakdown (see [`MaintStats`]).
    pub maint_counters: MaintCounters,
    /// The optional fragment layer (probe on the query path, population
    /// and budget eviction during maintenance). Carries its own `Method`
    /// handle so a round can build exact occurrence sets.
    pub fragments: Option<FragmentState>,
    /// Method M's matcher, for the isomorphism confirmations of the
    /// round's dedup (see [`maintain`]).
    pub matcher: Arc<dyn Matcher>,
}

impl Shared {
    pub(crate) fn new(
        shard_count: usize,
        eviction: Box<dyn EvictionPolicy>,
        admission: Box<dyn AdmissionPolicy>,
        fragments: Option<FragmentState>,
        matcher: Arc<dyn Matcher>,
    ) -> Self {
        Shared {
            shards: (0..shard_count.max(1))
                .map(|_| RwLock::new(Arc::new(Shard::default())))
                .collect(),
            stats: Mutex::new(StatsStore::new()),
            admission: Mutex::new(admission),
            eviction: Mutex::new(eviction),
            window: Mutex::new(Vec::new()),
            maint: Mutex::new(()),
            serial: AtomicU64::new(0),
            recovered_generation: AtomicU64::new(0),
            maint_counters: MaintCounters::default(),
            fragments,
            matcher,
        }
    }

    /// The current snapshot view: one cheap `Arc` clone per shard. Shards
    /// captured here stay alive (and unchanged) for the view's lifetime
    /// even while maintenance patches the live state.
    pub(crate) fn load_snapshot(&self) -> CacheSnapshot {
        CacheSnapshot::from_shards(self.shards.iter().map(|s| s.read().clone()).collect())
    }

    /// Replaces every shard with the given snapshot's (restore path). The
    /// caller must hold the maintenance lock and must have built the
    /// snapshot with a matching shard count.
    pub(crate) fn install_snapshot(&self, snapshot: CacheSnapshot) {
        let shards = snapshot.into_shards();
        debug_assert_eq!(shards.len(), self.shards.len());
        for (lock, shard) in self.shards.iter().zip(shards) {
            *lock.write() = shard;
        }
    }

    /// Claims the next query serial number.
    pub(crate) fn next_serial(&self) -> QuerySerial {
        self.serial.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The serial of the most recently admitted query.
    pub(crate) fn current_serial(&self) -> QuerySerial {
        self.serial.load(Ordering::Relaxed)
    }

    /// Snapshot of the cumulative per-phase maintenance breakdown.
    pub(crate) fn maint_stats(&self) -> MaintStats {
        let c = &self.maint_counters;
        MaintStats {
            rounds: c.rounds.load(Ordering::Relaxed),
            total: Duration::from_micros(c.total_us.load(Ordering::Relaxed)),
            victim_select: Duration::from_micros(c.victim_select_us.load(Ordering::Relaxed)),
            index_delta: Duration::from_micros(c.index_delta_us.load(Ordering::Relaxed)),
            stats_upkeep: Duration::from_micros(c.stats_upkeep_us.load(Ordering::Relaxed)),
            fragment_upkeep: Duration::from_micros(c.fragment_upkeep_us.load(Ordering::Relaxed)),
            entries_admitted: c.entries_admitted.load(Ordering::Relaxed),
            entries_evicted: c.entries_evicted.load(Ordering::Relaxed),
            shards_patched: c.shards_patched.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            fragments_built: c.fragments_built.load(Ordering::Relaxed),
            fragments_evicted: c.fragments_evicted.load(Ordering::Relaxed),
            dead_postings: self
                .shards
                .iter()
                .map(|s| s.read().tombstones() as u64)
                .sum(),
        }
    }
}

/// Executes one maintenance round over a full window batch against a cache
/// of `capacity` entries. The policies live in [`Shared`] (they are
/// stateful trait objects, not configuration). Returns the wall time spent
/// (recorded as overhead, Fig. 10).
pub(crate) fn maintain(
    shared: &Shared,
    capacity: usize,
    batch: Vec<WindowEntry>,
    now: QuerySerial,
) -> Duration {
    let t0 = Instant::now();

    // One round at a time: the round reads the shard states, selects
    // victims against them, and patches shard by shard — concurrent rounds
    // (each client whose miss fills the Window runs one on its own
    // thread) must not interleave those steps.
    let _round = shared.maint.lock();

    // (0) Fragment-store upkeep runs over the *whole* answered batch, not
    // just the admitted subset: fragment population is opportunistic and a
    // query rejected by admission control still carries a verified answer
    // worth decomposing. Only subgraph-direction answers qualify (a
    // fragment occurrence set is a "graphs containing f" set).
    if let Some(frag_state) = &shared.fragments {
        let t_frag = Instant::now();
        let sources: Vec<FragmentSource> = batch
            .iter()
            .filter(|e| e.kind == QueryKind::Subgraph)
            .map(|e| (e.graph.clone(), e.answer.clone()))
            .collect();
        let (built, evicted) = fragments::upkeep(frag_state, &sources, now);
        shared
            .maint_counters
            .record_fragments(t_frag.elapsed(), built, evicted);
    }

    // (1) Admission control over the batch.
    let admitted: Vec<WindowEntry> = {
        let mut ac = shared.admission.lock();
        let admitted = batch
            .into_iter()
            .filter(|e| ac.admits(e.expensiveness))
            .collect();
        ac.end_window();
        admitted
    };
    // More admitted queries than the whole cache can hold: keep the newest.
    let admitted = if admitted.len() > capacity {
        let skip = admitted.len() - capacity;
        admitted.into_iter().skip(skip).collect::<Vec<_>>()
    } else {
        admitted
    };

    // Serial uniqueness and isomorphism uniqueness are store invariants.
    // Entries that would break either are dropped here, *before* sizing
    // the eviction, so they cannot push live entries out for nothing:
    // * a batch admitted on top of a restored snapshot can carry a serial
    //   the restore already holds (the batch predates the restore) — it is
    //   dropped in the snapshot's favour;
    // * a missed query can be isomorphic to an earlier entry of its own
    //   batch (two copies of a new query missed inside one window), or to
    //   a resident one (admitted while it waited by another client's
    //   round, or its probe ran out of budget) — it is dropped in
    //   favour of the entry already there.
    //
    // Both isomorphism checks prefilter on kind, fingerprint and node/edge
    // counts — the resident one is the query path's own fingerprint probe
    // — and confirm with one matcher test. Like the probe's, these
    // confirmations are not sub-iso tests and are not counted as such.
    let old = shared.load_snapshot();
    let matcher = shared.matcher.as_ref();
    let repeats: Vec<usize> = processors::isomorphic_repeats(
        admitted
            .iter()
            .map(|e| (e.kind, e.fingerprint, e.graph.as_ref())),
        matcher,
    )
    .into_iter()
    .map(|(repeat, _)| repeat)
    .collect();
    let resident = |e: &WindowEntry| {
        let probe = processors::exact_probe(
            &old,
            &e.graph,
            e.kind,
            e.fingerprint,
            matcher,
            &VerifyOptions::default(),
        );
        probe.hits.exact.is_some()
    };
    let admitted: Vec<WindowEntry> = admitted
        .into_iter()
        .enumerate()
        .filter(|(i, e)| {
            old.entry(e.serial).is_none() && repeats.binary_search(i).is_err() && !resident(e)
        })
        .map(|(_, e)| e)
        .collect();
    if admitted.is_empty() {
        // Nothing to add; every shard stays as-is (no patch, no swap).
        return shared.maint_counters.record_round(t0);
    }

    // (2) Select victims as needed. The candidate rows are assembled from
    // the statistics store (and the stats lock released) before the
    // eviction policy is consulted — policies run behind their own lock
    // and never see store internals, only the PolicyView.
    let t_victims = Instant::now();
    let free = capacity.saturating_sub(old.len());
    let evict_needed = admitted.len().saturating_sub(free);
    let victims: Vec<QuerySerial> = {
        let rows: Vec<PolicyRow> = if evict_needed > 0 {
            let stats = shared.stats.lock();
            old.iter_entries().map(|e| stats.row(e.serial)).collect()
        } else {
            Vec::new()
        };
        let mut eviction = shared.eviction.lock();
        let victims = if evict_needed > 0 {
            eviction.select_victims(&PolicyView::new(&rows, now), evict_needed)
        } else {
            Vec::new()
        };
        // Tell the policy about this round's admissions while still
        // holding its lock, so no hit event can slip between the two.
        for e in &admitted {
            eviction.on_admit(e.serial, e.expensiveness);
        }
        victims
    };
    let victim_select = t_victims.elapsed();

    // Release the old view before patching: with no other reader holding a
    // shard's Arc, `Arc::make_mut` below patches in place instead of
    // copying the whole shard.
    drop(old);

    // (3) Group the delta by shard and patch only the touched shards.
    let t_delta = Instant::now();
    let n = shared.shards.len();
    let mut removes: Vec<Vec<QuerySerial>> = vec![Vec::new(); n];
    for &v in &victims {
        removes[shard_for(v, n)].push(v);
    }
    // The admitted entries are consumed here: graph, answer and profile
    // move into the cache entry (an admission allocates its feature keys
    // once); their serials are kept for step (4) to seed statistics rows.
    let mut inserts: Vec<Vec<Arc<CacheEntry>>> = vec![Vec::new(); n];
    let mut seeds: Vec<QuerySerial> = Vec::with_capacity(admitted.len());
    for e in admitted {
        seeds.push(e.serial);
        inserts[shard_for(e.serial, n)].push(Arc::new(CacheEntry {
            serial: e.serial,
            graph: e.graph,
            answer: e.answer,
            kind: e.kind,
            profile: e.profile,
            fingerprint: e.fingerprint,
            exact_saving: std::sync::OnceLock::new(),
        }));
    }
    let mut shards_patched = 0u64;
    let mut compactions = 0u64;
    for (i, (removes, inserts)) in removes.into_iter().zip(inserts).enumerate() {
        if removes.is_empty() && inserts.is_empty() {
            continue; // untouched shard: never locked, Arc untouched
        }
        shards_patched += 1;
        let over_debt = {
            let mut guard = shared.shards[i].write();
            // In place when this lock holds the only reference;
            // copy-on-write when an in-flight query still reads the shard
            // (it keeps the old state — the paper's old-index-serves-reads
            // invariant, per shard). Either way the lock is held only for
            // the O(delta) patch.
            let shard = Arc::make_mut(&mut *guard);
            for v in removes {
                shard.remove(v);
            }
            for e in inserts {
                shard.insert(e);
            }
            shard.tombstone_debt() > COMPACT_DEBT
        };
        if over_debt {
            // Compaction is the O(|shard|) fallback, so it runs OFF the
            // shard lock: rebuild densely from the live entries, then swap
            // with a pointer store. The maintenance lock serialises
            // writers, so the shard cannot change between the rebuild and
            // the swap; readers keep probing the tombstoned (but correct)
            // shard meanwhile — exactly the paper's rebuild-then-swap.
            compactions += 1;
            let current = shared.shards[i].read().clone();
            let rebuilt = Arc::new(current.compacted());
            *shared.shards[i].write() = rebuilt;
        }
    }
    let index_delta = t_delta.elapsed();

    // (4) Statistics rows: drop victims, seed the admitted (paper removes
    // evicted statistics "lazily"; we do it in the same round).
    let t_stats = Instant::now();
    {
        let mut stats = shared.stats.lock();
        for v in &victims {
            stats.remove_row(*v);
        }
        for &serial in &seeds {
            stats.admit(serial);
        }
    }
    let stats_upkeep = t_stats.elapsed();

    shared.maint_counters.record(
        victim_select,
        index_delta,
        stats_upkeep,
        seeds.len(),
        victims.len(),
        shards_patched,
        compactions,
    );
    shared.maint_counters.record_round(t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, AdmissionControl, AdmitAll};
    use crate::policy::PolicyKind;
    use gc_subiso::Vf2;

    /// A window entry whose graph is unique to its serial (an edge to a
    /// serial-derived label), so no two test entries are isomorphic and
    /// the round's dedup keeps them all.
    fn entry(serial: QuerySerial, expensiveness: f64) -> WindowEntry {
        entry_with(
            serial,
            LabeledGraph::from_parts(vec![0, serial as u32 + 1], &[(0, 1)]),
            expensiveness,
        )
    }

    fn entry_with(serial: QuerySerial, graph: LabeledGraph, expensiveness: f64) -> WindowEntry {
        let profile = gc_index::paths::enumerate_paths(&graph, 4, u64::MAX);
        let fingerprint = gc_index::fingerprint::iso_hash(&graph);
        WindowEntry {
            serial,
            graph: Arc::new(graph),
            answer: vec![GraphId(0)],
            kind: QueryKind::Subgraph,
            profile,
            fingerprint,
            expensiveness,
        }
    }

    fn shared_with(shards: usize) -> Shared {
        Shared::new(
            shards,
            Box::new(PolicyKind::Lru),
            Box::new(AdmitAll),
            None,
            Arc::new(Vf2::new()),
        )
    }

    fn shared() -> Shared {
        shared_with(1)
    }

    #[test]
    fn admitted_entries_enter_cache() {
        let s = shared();
        maintain(&s, 10, vec![entry(1, 1.0), entry(2, 1.0)], 2);
        let snap = s.load_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(1).is_some());
        assert!(s.stats.lock().contains_row(1));
        let m = s.maint_stats();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.entries_admitted, 2);
        assert_eq!(m.entries_evicted, 0);
        assert_eq!(m.shards_patched, 1);
    }

    #[test]
    fn capacity_respected_with_eviction() {
        let s = shared();
        maintain(&s, 2, vec![entry(1, 1.0), entry(2, 1.0)], 2);
        assert_eq!(s.maint_stats().dead_postings, 0, "dense cache, no debt");
        // Mark entry 2 as recently hit so LRU evicts entry 1.
        s.stats.lock().credit(2, 9, 0, 0.0);
        maintain(&s, 2, vec![entry(3, 1.0)], 3);
        let snap = s.load_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(1).is_none(), "LRU victim");
        assert!(snap.entry(2).is_some());
        assert!(snap.entry(3).is_some());
        // Victim's stats row dropped.
        assert!(!s.stats.lock().contains_row(1));
        let m = s.maint_stats();
        assert_eq!(m.entries_evicted, 1);
        // 1 tombstone of 3 slots is under the threshold: no compaction, and
        // the gauge counts the victim's slot until one runs.
        assert_eq!(m.compactions, 0);
        assert_eq!(m.dead_postings, 1, "the victim's slot is the debt");
    }

    #[test]
    fn oversized_batch_keeps_newest() {
        let s = shared();
        maintain(&s, 2, vec![entry(1, 1.0), entry(2, 1.0), entry(3, 1.0)], 3);
        let snap = s.load_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(2).is_some() && snap.entry(3).is_some());
    }

    #[test]
    fn empty_batch_after_admission_skips_rebuild() {
        let s = Shared::new(
            1,
            Box::new(PolicyKind::Lru),
            Box::new(AdmissionControl::new(AdmissionConfig {
                calibration_windows: 0,
                target_expensive_fraction: 0.5,
            })),
            None,
            Arc::new(Vf2::new()),
        );
        // Calibrate instantly with one cheap observation.
        {
            let mut ac = s.admission.lock();
            ac.observe(100.0, 0.0);
            ac.end_window();
        }
        let before = Arc::as_ptr(&s.load_snapshot().shards()[0]);
        maintain(&s, 10, vec![entry(1, 0.0)], 1); // 0.0 < threshold
        let after = Arc::as_ptr(&s.load_snapshot().shards()[0]);
        assert_eq!(before, after, "shard untouched");
        assert_eq!(s.load_snapshot().len(), 0);
    }

    /// The sharded twin of the fast path above: a round whose delta misses
    /// a shard must leave that shard's `Arc` pointer untouched.
    #[test]
    fn untouched_shards_keep_their_arc() {
        let n = 4usize;
        let s = shared_with(n);
        // Find serials that all land in one shard.
        let target = shard_for(1, n);
        let in_target: Vec<QuerySerial> = (1..200).filter(|&x| shard_for(x, n) == target).collect();
        assert!(in_target.len() >= 2);

        let before: Vec<*const Shard> = s.shards.iter().map(|l| Arc::as_ptr(&*l.read())).collect();
        maintain(
            &s,
            100,
            vec![entry(in_target[0], 1.0), entry(in_target[1], 1.0)],
            in_target[1],
        );
        let after: Vec<*const Shard> = s.shards.iter().map(|l| Arc::as_ptr(&*l.read())).collect();
        for i in 0..n {
            if i == target {
                continue; // the touched shard may patch in place or swap
            }
            assert_eq!(before[i], after[i], "shard {i} missed by the delta");
        }
        assert_eq!(s.load_snapshot().len(), 2);
        assert_eq!(s.maint_stats().shards_patched, 1);
    }

    /// A reader holding a pre-round snapshot keeps seeing the old shard
    /// state while the round patches copy-on-write.
    #[test]
    fn inflight_reader_keeps_old_shard_state() {
        let s = shared();
        maintain(&s, 10, vec![entry(1, 1.0)], 1);
        let pinned = s.load_snapshot(); // in-flight query's view
        maintain(&s, 10, vec![entry(2, 1.0)], 2);
        assert_eq!(pinned.len(), 1, "old view unchanged");
        assert!(pinned.entry(2).is_none());
        let fresh = s.load_snapshot();
        assert_eq!(fresh.len(), 2);
        assert!(fresh.entry(2).is_some());
    }

    /// Rounds of churn drive tombstone debt over the threshold and trigger
    /// per-shard compactions; live contents are unaffected.
    #[test]
    fn churn_triggers_compaction() {
        let s = shared();
        let capacity = 4usize;
        let mut serial = 0u64;
        for _ in 0..10 {
            let batch: Vec<WindowEntry> = (0..4)
                .map(|_| {
                    serial += 1;
                    entry(serial, 1.0)
                })
                .collect();
            maintain(&s, capacity, batch, serial);
        }
        let m = s.maint_stats();
        assert!(m.compactions > 0, "churn must compact: {m:?}");
        let snap = s.load_snapshot();
        assert_eq!(snap.len(), capacity);
        // Debt is bounded by the threshold after compaction rounds.
        for shard in snap.shards() {
            assert!(shard.tombstone_debt() <= COMPACT_DEBT + 1e-9);
        }
    }

    /// Maintenance-triggered compaction keeps the live entries in admission
    /// order, however often they were hit: live serials ascend by slot.
    #[test]
    fn compaction_keeps_admission_order() {
        let s = shared();
        let capacity = 4usize;
        let mut serial = 0u64;
        let mut dense_checked = 0;
        for _ in 0..10 {
            // Half the capacity per round, so entries outlive a round and
            // the rebuild sees older and newer entries side by side.
            let batch: Vec<WindowEntry> = (0..2)
                .map(|_| {
                    serial += 1;
                    entry(serial, 1.0)
                })
                .collect();
            let compactions = s.maint_stats().compactions;
            maintain(&s, capacity, batch, serial);
            let snap = s.load_snapshot();
            let shard = &snap.shards()[0];
            let order: Vec<QuerySerial> = shard.live_entries().map(|e| e.serial).collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "live serials ascend by slot: {order:?}"
            );
            if s.maint_stats().compactions > compactions {
                assert_eq!(shard.tombstone_debt(), 0.0, "dense after compaction");
                dense_checked += 1;
            }
            // The newest live entry becomes the most-hit one, so an order
            // by heat would move it ahead of older entries.
            let newest = *order.last().unwrap();
            let mut stats = s.stats.lock();
            let row = stats.row(newest);
            stats.insert(PolicyRow { hits: 1_000, ..row });
        }
        assert!(dense_checked > 0, "some round compacted");
    }

    #[test]
    fn concurrent_rounds_do_not_lose_admissions() {
        // Inline rounds racing must serialise: without the maint lock the
        // per-shard patches of different rounds would interleave and a
        // round could select victims against a half-applied state.
        let s = Arc::new(shared_with(2));
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let s = s.clone();
                sc.spawn(move || {
                    maintain(
                        &s,
                        100,
                        vec![entry(t * 10 + 1, 1.0), entry(t * 10 + 2, 1.0)],
                        t * 10 + 2,
                    );
                });
            }
        });
        let snap = s.load_snapshot();
        assert_eq!(snap.len(), 8, "every round's admissions survive");
        for t in 0..4u64 {
            assert!(snap.entry(t * 10 + 1).is_some());
            assert!(snap.entry(t * 10 + 2).is_some());
        }
        assert_eq!(s.maint_stats().rounds, 4);
    }

    /// A batch entry isomorphic to a live entry or to an earlier entry of
    /// its batch is dropped before victim sizing: it admits nothing, evicts
    /// nothing, and the entry already there keeps its place.
    #[test]
    fn duplicates_are_dropped_before_victim_sizing() {
        let s = shared();
        let path = |labels: [u32; 3]| LabeledGraph::from_parts(labels.to_vec(), &[(0, 1), (1, 2)]);
        maintain(&s, 2, vec![entry_with(1, path([0, 1, 2]), 1.0)], 1);
        maintain(&s, 2, vec![entry(2, 1.0)], 2);
        assert_eq!(s.load_snapshot().len(), 2, "the cache is full");
        // 3 repeats resident 1 (reversed node order), 4 and 5 are two
        // copies of a new query: only 4 is admitted, so one victim.
        maintain(
            &s,
            2,
            vec![
                entry_with(3, path([2, 1, 0]), 1.0),
                entry_with(4, path([5, 6, 7]), 1.0),
                entry_with(5, path([7, 6, 5]), 1.0),
            ],
            5,
        );
        let snap = s.load_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.entry(4).is_some());
        assert!(snap.entry(3).is_none() && snap.entry(5).is_none());
        let m = s.maint_stats();
        assert_eq!(m.entries_admitted, 3, "1, 2 and 4");
        assert_eq!(m.entries_evicted, 1, "one slot for one distinct admission");
        assert!(!s.stats.lock().contains_row(5));
        // A batch of nothing but duplicates patches no shard.
        let before = Arc::as_ptr(&s.load_snapshot().shards()[0]);
        maintain(&s, 2, vec![entry_with(6, path([5, 6, 7]), 1.0)], 6);
        assert_eq!(before, Arc::as_ptr(&s.load_snapshot().shards()[0]));
        assert_eq!(s.maint_stats().entries_admitted, 3);
    }
}

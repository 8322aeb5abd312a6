//! Incremental == full: equivalence of delta-maintained sharded indexes
//! with stop-the-world rebuilds.
//!
//! * **Property** — after any random admit/evict/compact sequence, the
//!   incrementally patched shards return the same candidates as a fresh
//!   `CacheSnapshot::build_sharded` over the surviving entries — and a
//!   compacted shard returns *byte-identical* `HitCandidates` (same slots,
//!   same order) to a freshly built shard over the same entries.
//! * **Invariants** — random query streams through `GraphCache::run`
//!   (admissions, evictions and compactions at 1/4/16 shards) leave the
//!   stores passing `check_invariants` after every round (the duplicates
//!   clause included), with one round per W misses.
//! * **Replay** — a sharded cache answers a Zipf workload exactly like a
//!   single-shard one (and like the bare method), and both converge on the
//!   same cached set under the same deterministic policy.

use graphcache::core::{
    exact_probe, find_hits_naive, shard_for, sweep, CacheEntry, CacheSnapshot, GraphCache,
    HitQuery, Probe, QuerySerial, Shard, VerifyOptions, QUERY_INDEX_SHAPE,
};
use graphcache::index::fx::FxHashMap;
use graphcache::index::paths::{enumerate_paths, FeatureKey, PathProfile};
use graphcache::prelude::*;
use graphcache::subiso::Vf2;
use graphcache::workload::generate_type_a;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

fn path_graph(labels: &[u32]) -> LabeledGraph {
    let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
    LabeledGraph::from_parts(labels.to_vec(), &edges)
}

/// A small deterministic query graph derived from a seed: a labelled path,
/// sometimes closed into a cycle, over a 4-letter alphabet so containment
/// relations between generated graphs are common.
fn seeded_graph(seed: u64) -> LabeledGraph {
    let len = 2 + (seed % 4) as usize;
    let labels: Vec<u32> = (0..len).map(|i| ((seed >> (2 * i)) & 3) as u32).collect();
    let mut edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    if len > 2 && seed.is_multiple_of(5) {
        edges.push((len as u32 - 1, 0)); // close the cycle
    }
    LabeledGraph::from_parts(labels, &edges)
}

fn entry_for(serial: QuerySerial, seed: u64) -> Arc<CacheEntry> {
    let graph = seeded_graph(seed);
    let shape = QUERY_INDEX_SHAPE;
    let profile = enumerate_paths(&graph, shape.max_len, shape.work_cap);
    Arc::new(CacheEntry::new(
        serial,
        Arc::new(graph),
        vec![GraphId((serial % 3) as u32)],
        QueryKind::Subgraph,
        profile,
    ))
}

fn probes() -> Vec<LabeledGraph> {
    vec![
        path_graph(&[0, 1]),
        path_graph(&[1, 0, 1]),
        path_graph(&[2, 3]),
        path_graph(&[0, 0, 0]),
        path_graph(&[3, 2, 1, 0]),
        path_graph(&[1, 1]),
        path_graph(&[0, 1, 2, 3, 0, 1]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random admit/evict/compact traces leave the sharded incremental
    /// state candidate-equivalent to a fresh build of the live entries.
    #[test]
    fn incremental_equals_full_rebuild(
        ops in pvec((0u8..4, 0u64..1_000_000), 1..80usize),
        n_shards in 1usize..6,
    ) {
        let shape = QUERY_INDEX_SHAPE;
        // The incrementally maintained state: one Arc per shard, patched
        // exactly like window::maintain patches the live shards.
        let mut shards: Vec<Arc<Shard>> =
            (0..n_shards).map(|_| Arc::new(Shard::default())).collect();
        // Ground truth: the live entries in admission order.
        let mut live: Vec<Arc<CacheEntry>> = Vec::new();
        let mut next_serial: QuerySerial = 0;

        for &(op, seed) in &ops {
            match op {
                // Admit a new entry (ops 0 and 1: admissions dominate so
                // the cache actually grows).
                0 | 1 => {
                    next_serial += 1;
                    let e = entry_for(next_serial, seed);
                    live.push(e.clone());
                    Arc::make_mut(&mut shards[shard_for(e.serial, n_shards)]).insert(e);
                }
                // Evict a random live entry (tombstone in place).
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.remove(seed as usize % live.len());
                    let removed = Arc::make_mut(
                        &mut shards[shard_for(victim.serial, n_shards)],
                    )
                    .remove(victim.serial);
                    prop_assert!(removed, "live entry must be removable");
                }
                // Compact a random shard (the debt-threshold fallback).
                _ => {
                    Arc::make_mut(&mut shards[seed as usize % n_shards]).compact();
                }
            }
        }

        let incremental = CacheSnapshot::from_shards(shape, shards.clone());
        let fresh = CacheSnapshot::build_sharded(shape, n_shards, live.clone());
        prop_assert_eq!(incremental.len(), live.len());
        for (i, shard) in shards.iter().enumerate() {
            prop_assert_eq!(shard.check_invariants(i, n_shards), Ok(()));
        }

        for probe in probes() {
            // Candidate serials agree exactly (same order: shards preserve
            // admission order of their surviving entries).
            let got = incremental.candidate_serials(&probe);
            let want = fresh.candidate_serials(&probe);
            prop_assert_eq!(&got, &want, "probe {:?}", &probe);
            // And as sets they match the monolithic single-shard build.
            let flat = CacheSnapshot::build(shape, live.clone());
            let (mut fs, mut fp) = flat.candidate_serials(&probe);
            let (mut gs, mut gp) = got;
            fs.sort_unstable();
            fp.sort_unstable();
            gs.sort_unstable();
            gp.sort_unstable();
            prop_assert_eq!(gs, fs);
            prop_assert_eq!(gp, fp);
        }

        // After compaction, each shard's HitCandidates are byte-identical
        // (same slots, same order) to a freshly built shard.
        for (i, shard) in shards.iter().enumerate() {
            let mut compacted = shard.as_ref().clone();
            compacted.compact();
            let rebuilt = Shard::build(shard.live_entries().cloned().collect());
            for probe in probes() {
                let profile = enumerate_paths(&probe, shape.max_len, shape.work_cap);
                let (qn, qm) = (probe.node_count() as u32, probe.edge_count() as u32);
                let probe = Probe::new(&profile, (qn, qm));
                let a = compacted.candidates(&probe);
                let b = rebuilt.candidates(&probe);
                prop_assert_eq!(a.sub, b.sub, "shard {} sub slots", i);
                prop_assert_eq!(a.super_, b.super_, "shard {} super slots", i);
            }
        }
    }

    /// Entry lookup routes to the right shard for any serial and count.
    #[test]
    fn entry_lookup_after_churn(
        serials in pvec(1u64..10_000, 1..40usize),
        n_shards in 1usize..8,
    ) {
        let shape = QUERY_INDEX_SHAPE;
        let mut unique = serials.clone();
        unique.sort_unstable();
        unique.dedup();
        let entries: Vec<Arc<CacheEntry>> =
            unique.iter().map(|&s| entry_for(s, s)).collect();
        let snap = CacheSnapshot::build_sharded(shape, n_shards, entries);
        for &s in &unique {
            prop_assert_eq!(snap.entry(s).map(|e| e.serial), Some(s));
        }
        prop_assert!(snap.entry(0).is_none());
        prop_assert!(snap.entry(10_001).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipeline's gather (packed columns, cost order, fingerprint
    /// fast path) is an implementation detail: for any churned state —
    /// tombstones included — and after hot-ranked compaction reorders the
    /// slots, the query path's [`exact_probe`] handing its refutations to
    /// [`sweep`] returns exactly the `HitSet` of the flat
    /// [`find_hits_naive`] sweep, which tests every candidate slot in slot
    /// order. Both read their candidates from the same
    /// [`Shard::candidates`] pass, so this cannot see a filter that drops
    /// a true candidate; `candidate_pass_equals_definition` below checks
    /// the pass itself. Pinned across 1/4/16 shards with mixed entry
    /// directions.
    #[test]
    fn arena_sweep_equals_pointer_sweep(
        seeds in pvec(0u64..1_000_000, 5..50usize),
        evicts in pvec(any::<bool>(), 5..50usize),
        ranks in pvec(0u64..16, 5..50usize),
        shard_sel in 0usize..3,
    ) {
        let n_shards = [1usize, 4, 16][shard_sel];
        let shape = QUERY_INDEX_SHAPE;
        let entry_with_kind = |serial: QuerySerial, seed: u64| {
            let graph = seeded_graph(seed);
            let profile = enumerate_paths(&graph, shape.max_len, shape.work_cap);
            let kind = if seed.is_multiple_of(3) {
                QueryKind::Supergraph
            } else {
                QueryKind::Subgraph
            };
            Arc::new(CacheEntry::new(
                serial,
                Arc::new(graph),
                vec![GraphId((serial % 3) as u32)],
                kind,
                profile,
            ))
        };

        let mut shards: Vec<Arc<Shard>> =
            (0..n_shards).map(|_| Arc::new(Shard::default())).collect();
        for (i, &seed) in seeds.iter().enumerate() {
            let serial = i as QuerySerial + 1;
            let e = entry_with_kind(serial, seed);
            Arc::make_mut(&mut shards[shard_for(serial, n_shards)]).insert(e);
        }
        // Tombstone a subset so the packed columns carry dead slots — the
        // sweep must skip them, not resurrect them.
        for (i, _) in seeds.iter().enumerate() {
            let serial = i as QuerySerial + 1;
            if evicts[i % evicts.len()] && i > 0 {
                Arc::make_mut(&mut shards[shard_for(serial, n_shards)]).remove(serial);
            }
        }

        let check = |snap: &CacheSnapshot| {
            for probe in probes() {
                let naive = find_hits_naive(
                    snap,
                    &probe,
                    QueryKind::Subgraph,
                    &Vf2::new(),
                );
                let profile = snap.profile_of(&probe);
                let hq = HitQuery::new(&probe, QueryKind::Subgraph, &profile);
                let (vf2, opts) = (Vf2::new(), VerifyOptions::default());
                let exact = exact_probe(snap, &probe, hq.kind, hq.fingerprint, &vf2, &opts);
                let swept = sweep(snap, &hq, exact, &vf2, &opts);
                prop_assert_eq!(&swept.sub, &naive.sub, "sub hits, probe {:?}", &probe);
                prop_assert_eq!(&swept.super_, &naive.super_, "super hits, probe {:?}", &probe);
                prop_assert_eq!(swept.exact, naive.exact, "exact hit, probe {:?}", &probe);
            }
        };

        // Churned layout: live slots interleaved with tombstones.
        check(&CacheSnapshot::from_shards(shape, shards.clone()));

        // Hot-packed layout: every shard compacted with an arbitrary
        // maintenance rank, reordering slots (and the columns and answer
        // arena with them).
        let ranked: Vec<Arc<Shard>> = shards
            .iter()
            .map(|s| {
                Arc::new(s.compacted_ranked(|serial| ranks[serial as usize % ranks.len()]))
            })
            .collect();
        check(&CacheSnapshot::from_shards(shape, ranked));
    }
}

/// Definition-level candidate reference, with no signature and no merge:
/// a live entry of a shard is a sub-candidate of the query when its size
/// allows containment and every feature of the query, looked up in the
/// entry's profile, occurs there at least as often; a super-candidate
/// symmetrically. An overflowed profile on either side leaves the size
/// test alone. Returns the serials in slot order.
fn reference_candidates(
    shard: &Shard,
    query: &PathProfile,
    size: (u32, u32),
) -> (Vec<QuerySerial>, Vec<QuerySerial>) {
    let lookup = |p: &PathProfile| -> Option<FxHashMap<FeatureKey, u32>> {
        p.counts().map(|c| c.iter().copied().collect())
    };
    // Every feature of `part` occurs in `whole` at least as often.
    let within = |part: &PathProfile, whole: &FxHashMap<FeatureKey, u32>| {
        part.counts()
            .unwrap()
            .iter()
            .all(|(k, c)| whole.get(k).is_some_and(|have| have >= c))
    };
    let q_map = lookup(query);
    let (mut sub, mut super_) = (Vec::new(), Vec::new());
    for e in shard.live_entries() {
        let (en, em) = (e.graph.node_count() as u32, e.graph.edge_count() as u32);
        let e_map = lookup(&e.profile);
        let features = |f: &dyn Fn() -> bool| q_map.is_none() || e_map.is_none() || f();
        if en >= size.0 && em >= size.1 && features(&|| within(query, e_map.as_ref().unwrap())) {
            sub.push(e.serial);
        }
        if en <= size.0 && em <= size.1 && features(&|| within(&e.profile, q_map.as_ref().unwrap()))
        {
            super_.push(e.serial);
        }
    }
    (sub, super_)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The candidate pass (size, signature, profile merge) returns, per
    /// shard and in both directions, exactly the serials of the
    /// definition-level reference: no true candidate dropped, no extra one
    /// kept. Runs over 1/4/16 shards, tombstones, ranked compaction,
    /// entries whose enumeration overflowed a small work cap, and an
    /// overflowed query.
    #[test]
    fn candidate_pass_equals_definition(
        seeds in pvec(0u64..1_000_000, 5..60usize),
        evicts in pvec(any::<bool>(), 5..60usize),
        ranks in pvec(0u64..16, 5..60usize),
        shard_sel in 0usize..3,
    ) {
        let n_shards = [1usize, 4, 16][shard_sel];
        let mut shards: Vec<Arc<Shard>> =
            (0..n_shards).map(|_| Arc::new(Shard::default())).collect();
        for (i, &seed) in seeds.iter().enumerate() {
            let serial = i as QuerySerial + 1;
            let graph = seeded_graph(seed);
            // Every seventh entry enumerates under a cap it overflows.
            let work_cap = if seed.is_multiple_of(7) { 2 } else { u64::MAX };
            let profile = enumerate_paths(&graph, 4, work_cap);
            let e = CacheEntry::new(
                serial,
                Arc::new(graph),
                vec![GraphId(0)],
                QueryKind::Subgraph,
                profile,
            );
            Arc::make_mut(&mut shards[shard_for(serial, n_shards)]).insert(Arc::new(e));
        }
        for i in 0..seeds.len() {
            let serial = i as QuerySerial + 1;
            if evicts[i % evicts.len()] {
                Arc::make_mut(&mut shards[shard_for(serial, n_shards)]).remove(serial);
            }
        }
        let ranked: Vec<Arc<Shard>> = shards
            .iter()
            .map(|s| Arc::new(s.compacted_ranked(|serial| ranks[serial as usize % ranks.len()])))
            .collect();

        let mut queries: Vec<(LabeledGraph, PathProfile)> = probes()
            .into_iter()
            .chain(seeds.iter().take(8).map(|&s| seeded_graph(s ^ 0x5A5A)))
            .map(|g| {
                let p = enumerate_paths(&g, 4, u64::MAX);
                (g, p)
            })
            .collect();
        queries.push((path_graph(&[0, 1, 2]), PathProfile::Overflow));

        for (layout, set) in [("churned", &shards), ("ranked", &ranked)] {
            for (i, shard) in set.iter().enumerate() {
                prop_assert_eq!(shard.check_invariants(i, n_shards), Ok(()));
                for (g, profile) in &queries {
                    let size = (g.node_count() as u32, g.edge_count() as u32);
                    let got = shard.candidates(&Probe::new(profile, size));
                    let serials = |slots: &[u32]| -> Vec<QuerySerial> {
                        slots.iter().map(|&s| shard.entry_at(s).unwrap().serial).collect()
                    };
                    let (sub, super_) = reference_candidates(shard, profile, size);
                    prop_assert_eq!(serials(&got.sub), sub, "{} shard {} sub, {:?}", layout, i, g);
                    prop_assert_eq!(serials(&got.super_), super_, "{} shard {} super, {:?}", layout, i, g);
                }
            }
        }
    }
}

/// The dataset and query pool of the invariant proptest, built once: 40
/// AIDS-shaped graphs and 60 Zipf-drawn queries, so a random stream over
/// the pool mixes exact repeats, sub/super hits and misses.
fn invariant_fixture() -> &'static (GraphDataset, Vec<LabeledGraph>) {
    static FIXTURE: std::sync::OnceLock<(GraphDataset, Vec<LabeledGraph>)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let d = datasets::aids_like(0.04, 77);
        let pool = generate_type_a(&d, &TypeAConfig::zz(1.4).count(60).seed(9))
            .graphs()
            .cloned()
            .collect();
        (d, pool)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random admit/evict/compact streams through the public query path:
    /// a small cache under a stream several times its capacity admits
    /// every query, evicts on most rounds and compacts whenever a shard's
    /// debt crosses the threshold. After every round the stores must pass
    /// `check_invariants`, and every answer must equal the bare method's.
    #[test]
    fn invariants_hold_after_every_round(
        stream in pvec(0usize..60, 30..90usize),
        capacity in 2usize..9,
        window in 1usize..6,
        shard_sel in 0usize..3,
    ) {
        let (d, pool) = invariant_fixture();
        let baseline = MethodBuilder::ggsx().build(d);
        let gc = GraphCache::builder()
            .capacity(capacity)
            .window(window)
            .shards([1usize, 4, 16][shard_sel])
            .build(MethodBuilder::ggsx().build(d));
        let mut rounds = 0;
        let mut misses = 0usize;
        for &i in &stream {
            let q = &pool[i];
            let r = gc.run(q);
            prop_assert_eq!(&r.answer, &baseline.run(q).answer);
            misses += !r.record.exact_hit as usize;
            let m = gc.maint_stats();
            if m.rounds > rounds {
                rounds = m.rounds;
                if let Err(violation) = gc.check_invariants() {
                    prop_assert!(false, "after round {}: {}", rounds, violation);
                }
                prop_assert!(gc.cache_len() <= capacity);
            }
        }
        // The stream really drove all three kinds of delta. Only misses
        // fill the Window: an exact hit never enters it.
        let m = gc.maint_stats();
        prop_assert_eq!(m.rounds as usize, misses / window);
        prop_assert!(m.entries_evicted > 0, "{:?}", m);
        prop_assert!(m.compactions > 0, "{:?}", m);
    }
}

/// A sharded cache replays a Zipf workload with exactly the answers of a
/// single-shard cache and of the bare method, and converges on the same
/// cached set (victim selection is global, so sharding must not change
/// policy outcomes).
#[test]
fn sharded_cache_replay_matches_single_shard() {
    let d = datasets::aids_like(0.04, 77);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(150).seed(33));
    let baseline = MethodBuilder::ggsx().build(&d);
    let build = |shards: usize| {
        GraphCache::builder()
            .capacity(8)
            .window(5)
            .shards(shards)
            .build(MethodBuilder::ggsx().build(&d))
    };
    let flat = build(1);
    let sharded = build(5);
    assert_eq!(sharded.shard_count(), 5);
    for q in workload.graphs() {
        let want = baseline.run(q).answer;
        assert_eq!(flat.run(q).answer, want);
        assert_eq!(sharded.run(q).answer, want);
    }
    let cached =
        |c: &GraphCache| -> Vec<QuerySerial> { c.stats_rows().iter().map(|r| r.serial).collect() };
    assert_eq!(cached(&flat), cached(&sharded), "same cached set");
    assert!(sharded.cache_len() <= 8);
    // Maintenance actually exercised the delta path.
    let m = sharded.maint_stats();
    assert!(m.rounds > 0);
    assert!(m.entries_admitted > 0);
    assert!(m.shards_patched > 0);
}

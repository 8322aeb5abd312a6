//! Hit-path parity: the cost-ordered / fingerprint-first verification
//! pipeline is hit-equivalent to the naive flat sweep.
//!
//! * **Unbounded parity** — with no budget, the ordered pipeline (the
//!   query path's [`exact_probe`] handing its refutations to [`sweep`])
//!   returns exactly the `HitSet` (sub, super, exact) of
//!   [`find_hits_naive`] less the hits that could not prune Method M's
//!   candidates ([`can_prune`]), over random graph mixes and candidate
//!   sets, across 1/4/16 shards.
//! * **Skipped hits prune nothing** — on a real dataset, every hit the
//!   sweep does not test would, if tested, remove no candidate, and the
//!   pruner leaves the same answer and candidates with or without them.
//! * **Budget soundness** — any budgeted run yields a *subset* of the
//!   unbounded hits, never a wrong one, and flags truncation whenever it
//!   stopped short.
//! * **Fingerprint fast path** — a query isomorphic to a cached entry
//!   resolves in the probe alone, with zero candidate sub-iso tests and no
//!   path profile.
//! * **Budgeted work** — on a candidate-heavy Zipf workload the budgeted
//!   sweep spends at least 5x less matcher work than the naive one.
//!
//! CI runs this file in release mode too (`cargo test --release --test
//! hit_path`) so the ordering/budget logic is exercised with optimizations.

use graphcache::core::processors::{exact_probe, find_hits_naive, sweep, HitQuery, VerifyOptions};
use graphcache::core::pruner::{can_prune, prune, role, sides, HitAnswer, PruneResult};
use graphcache::core::{CacheEntry, CacheSnapshot, HitSet, QuerySerial, QUERY_INDEX_SHAPE};
use graphcache::graph::idset::IdSet;
use graphcache::index::paths::enumerate_paths;
use graphcache::prelude::*;
use graphcache::subiso::Vf2;
use graphcache::workload::generate_type_a;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

/// A small deterministic query graph derived from a seed: a labelled path
/// over a 3-letter alphabet, sometimes closed into a cycle, so containment
/// and isomorphism relations between generated graphs are common.
fn seeded_graph(seed: u64) -> LabeledGraph {
    let len = 2 + (seed % 5) as usize;
    let labels: Vec<u32> = (0..len)
        .map(|i| ((seed >> (2 * i)) & 3) as u32 % 3)
        .collect();
    let mut edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    if len > 2 && seed.is_multiple_of(7) {
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
        vec![GraphId((serial % 4) as u32)],
        QueryKind::Subgraph,
        profile,
    ))
}

/// The fingerprint probe, then the sweep it hands its refutations and
/// Method M's candidates `cs_m` to.
fn pipeline(
    snap: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    cs_m: &IdSet,
    opts: &VerifyOptions,
) -> HitSet {
    let profile = snap.profile_of(query);
    let hq = HitQuery::new(query, kind, &profile);
    let vf2 = Vf2::new();
    let probe = exact_probe(snap, query, hq.kind, hq.fingerprint, &vf2, opts);
    sweep(snap, &hq, probe, cs_m, &vf2, opts)
}

/// The ids `0..8` whose bit is set in `bits`, as Method M's candidates
/// over a dataset of 8 graphs (entries' answers are one id below 4).
fn cs_m_of(bits: u32) -> IdSet {
    let ids = (0..8u32)
        .filter(|i| bits >> i & 1 == 1)
        .map(GraphId)
        .collect();
    IdSet::from_sorted(ids, 8)
}

/// The naive hits the sweep must still find with Method M's candidates
/// `cs_m`: same-size hits (isomorphic, both ways) and hits that could
/// prune `cs_m` in their role; none when `cs_m` is empty.
fn gate(
    snap: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    cs_m: &IdSet,
    naive: &HitSet,
) -> HitSet {
    let keeps = |serial: &QuerySerial, query_in_cached: bool| {
        let entry = snap.entry(*serial).expect("hit is cached");
        let same_size = entry.graph.node_count() == query.node_count()
            && entry.graph.edge_count() == query.edge_count();
        !cs_m.is_empty()
            && (same_size || can_prune(role(kind, query_in_cached), cs_m, &entry.answer))
    };
    HitSet {
        sub: naive
            .sub
            .iter()
            .copied()
            .filter(|s| keeps(s, true))
            .collect(),
        super_: naive
            .super_
            .iter()
            .copied()
            .filter(|s| keeps(s, false))
            .collect(),
        ..naive.clone()
    }
}

/// `a` is a sub-multiset of `b` (both sorted).
fn sorted_subset(a: &[QuerySerial], b: &[QuerySerial]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With an unbounded budget the ordered pipeline finds exactly the
    /// naive flat sweep's hits less those that could not prune Method M's
    /// candidates — for any cached mix, any probe, any candidate set and
    /// any shard count.
    #[test]
    fn unbounded_pipeline_matches_naive_sweep(
        seeds in pvec(0u64..4_000, 1..40usize),
        probe_seed in 0u64..4_000,
        cs_bits in 0u32..256,
    ) {
        let cs_m = cs_m_of(cs_bits);
        let entries: Vec<Arc<CacheEntry>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| entry_for(i as u64 + 1, s))
            .collect();
        // Probe with a fresh graph AND with an exact copy of a cached one,
        // so the exact path is exercised half the time.
        let probes = [
            seeded_graph(probe_seed),
            entries[probe_seed as usize % entries.len()].graph.as_ref().clone(),
        ];
        for shards in [1usize, 4, 16] {
            let snap = CacheSnapshot::build_sharded(shards, entries.clone());
            for probe in &probes {
                let naive = find_hits_naive(
                    &snap, probe, QueryKind::Subgraph, &Vf2::new(),
                );
                let want = gate(&snap, probe, QueryKind::Subgraph, &cs_m, &naive);
                let got = pipeline(&snap, probe, QueryKind::Subgraph, &cs_m, &VerifyOptions::default());
                prop_assert_eq!(&got.sub, &want.sub, "sub, {} shards", shards);
                prop_assert_eq!(&got.super_, &want.super_, "super, {} shards", shards);
                prop_assert_eq!(got.exact, want.exact, "exact, {} shards", shards);
                prop_assert!(!got.truncated, "must not truncate unbounded");
            }
        }
    }

    /// Budgeted runs degrade gracefully: every reported hit is also found
    /// by the unbounded sweep, and a run that did not truncate reports the
    /// full hit set.
    #[test]
    fn budgeted_hits_are_a_sound_subset(
        seeds in pvec(0u64..4_000, 1..30usize),
        probe_seed in 0u64..4_000,
        budget in 0u64..2_000,
        cs_bits in 0u32..256,
    ) {
        let cs_m = cs_m_of(cs_bits);
        let entries: Vec<Arc<CacheEntry>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| entry_for(i as u64 + 1, s))
            .collect();
        let probe = seeded_graph(probe_seed);
        let snap = CacheSnapshot::build_sharded(4, entries);
        let full = pipeline(&snap, &probe, QueryKind::Subgraph, &cs_m, &VerifyOptions::default());
        let budgeted = pipeline(&snap, &probe, QueryKind::Subgraph, &cs_m, &VerifyOptions {
            budget: Some(budget),
            ..VerifyOptions::default()
        });
        prop_assert!(sorted_subset(&budgeted.sub, &full.sub));
        prop_assert!(sorted_subset(&budgeted.super_, &full.super_));
        if let Some(e) = budgeted.exact {
            prop_assert_eq!(Some(e), full.exact);
        }
        // The budgeted run tests a (possibly clipped) subset of the full
        // sweep's candidates, so it can never spend more matcher work.
        prop_assert!(budgeted.work <= full.work,
            "budgeted work {} > unbounded work {}", budgeted.work, full.work);
        if !budgeted.truncated {
            // Nothing was cut short, so nothing may be missing.
            prop_assert_eq!(&budgeted.sub, &full.sub);
            prop_assert_eq!(&budgeted.super_, &full.super_);
            prop_assert_eq!(budgeted.exact, full.exact);
        }
    }

    /// The request's hit budget early-exits with exactly-enough hits (when
    /// that many exist) and never flags truncation.
    #[test]
    fn hit_budget_early_exit(
        seeds in pvec(0u64..4_000, 1..30usize),
        probe_seed in 0u64..4_000,
        max_hits in 1usize..4,
        cs_bits in 0u32..256,
    ) {
        let cs_m = cs_m_of(cs_bits);
        let entries: Vec<Arc<CacheEntry>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| entry_for(i as u64 + 1, s))
            .collect();
        let probe = seeded_graph(probe_seed);
        let snap = CacheSnapshot::build_sharded(4, entries);
        let full = pipeline(&snap, &probe, QueryKind::Subgraph, &cs_m, &VerifyOptions::default());
        let capped = pipeline(&snap, &probe, QueryKind::Subgraph, &cs_m, &VerifyOptions {
            max_hits: Some(max_hits),
            ..VerifyOptions::default()
        });
        let available = full.sub.len() + full.super_.len();
        let got = capped.sub.len() + capped.super_.len();
        prop_assert!(got <= available);
        prop_assert!(got >= available.min(max_hits), "hit budget undershot");
        // Iso hits land in pairs, so the cap may overshoot by at most one.
        prop_assert!(got <= max_hits + 1, "hit budget overshot");
        prop_assert!(!capped.truncated);
        prop_assert!(sorted_subset(&capped.sub, &full.sub));
        prop_assert!(sorted_subset(&capped.super_, &full.super_));
    }
}

/// An exact repeat of a cached query resolves in the fingerprint probe
/// alone — no profile, zero candidate sub-iso tests — across shard counts.
#[test]
fn exact_repeat_zero_tests_via_fingerprint() {
    let entries: Vec<Arc<CacheEntry>> = (0..25u64).map(|s| entry_for(s + 1, s * 17)).collect();
    for shards in [1usize, 4, 16] {
        let snap = CacheSnapshot::build_sharded(shards, entries.clone());
        for probe_entry in entries.iter().step_by(5) {
            let probe = probe_entry.graph.as_ref();
            let hits = exact_probe(
                &snap,
                probe,
                QueryKind::Subgraph,
                probe_entry.fingerprint,
                &Vf2::new(),
                &VerifyOptions::default(),
            )
            .hits;
            assert!(hits.exact.is_some(), "repeat must hit ({shards} shards)");
            assert!(hits.exact_via_fingerprint);
            assert_eq!(hits.tests, 0, "zero candidate tests on an exact repeat");
        }
    }
}

/// End-to-end: a cache with a verify budget still answers every query
/// exactly like the uncached baseline (budgeted hit sets only reduce
/// pruning, never correctness), and exact repeats ride the fingerprint.
#[test]
fn budgeted_cache_answers_match_baseline() {
    let d = datasets::aids_like(0.03, 11);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(120).seed(5));
    let baseline = MethodBuilder::ggsx().build(&d);
    let cache = GraphCache::builder()
        .capacity(16)
        .window(4)
        .verify_budget(500)
        .build(MethodBuilder::ggsx().build(&d));
    let mut exact_fp = 0usize;
    for q in workload.graphs() {
        let r = cache.run(q);
        assert_eq!(r.answer, baseline.run(q).answer);
        if r.record.exact_via_fingerprint {
            exact_fp += 1;
            assert_eq!(r.record.gc_tests, 0);
        }
    }
    assert!(exact_fp > 0, "a Zipf workload must produce exact repeats");
}

/// `g` with one more node, labelled `label`, joined to node 0.
fn with_pendant(g: &LabeledGraph, label: u32) -> LabeledGraph {
    let mut labels = g.labels().to_vec();
    labels.push(label);
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.push((0, g.node_count() as u32));
    LabeledGraph::from_parts(labels, &edges)
}

/// What pruning Method M's candidates with `hits` leaves: the answer so
/// far and the candidates still to verify.
fn pruned_with(snap: &CacheSnapshot, kind: QueryKind, cs_m: &IdSet, hits: &HitSet) -> PruneResult {
    let answers = |serials: &[QuerySerial]| -> Vec<HitAnswer<'_>> {
        serials
            .iter()
            .map(|&serial| HitAnswer {
                serial,
                answer: &snap.entry(serial).expect("hit is cached").answer,
            })
            .collect()
    };
    let (expanding, restricting) = sides(kind, hits);
    prune(cs_m, &answers(expanding), &answers(restricting))
}

/// Caches `cached` under `kind` with their true answers, then runs every
/// probe that is not an exact repeat through the sweep and the naive
/// one. Each hit the sweep left untested is a naive hit that, pruned on
/// its own, removes no candidate, and pruning with either hit set leaves
/// the same answer and candidates. Returns how many sub and super hits
/// went untested.
fn untested_hits_prune_nothing(
    method: &Method,
    kind: QueryKind,
    cached: &[LabeledGraph],
    probes: &[LabeledGraph],
) -> [usize; 2] {
    let shape = QUERY_INDEX_SHAPE;
    let entries: Vec<Arc<CacheEntry>> = cached
        .iter()
        .enumerate()
        .map(|(i, g)| {
            Arc::new(CacheEntry::new(
                i as QuerySerial + 1,
                Arc::new(g.clone()),
                method.run_directed(g, kind).answer,
                kind,
                enumerate_paths(g, shape.max_len, shape.work_cap),
            ))
        })
        .collect();
    let snap = CacheSnapshot::build_sharded(4, entries);
    let n = method.dataset().len();
    let mut untested = [0; 2];
    for probe in probes {
        let cs_m = IdSet::from_sorted(method.filter_directed(probe, kind).candidates, n);
        let got = pipeline(&snap, probe, kind, &cs_m, &VerifyOptions::default());
        if got.exact.is_some() {
            continue; // the query path stops at the probe
        }
        let naive = find_hits_naive(&snap, probe, kind, method.matcher().as_ref());
        for (found, all, query_in_cached) in [
            (&got.sub, &naive.sub, true),
            (&got.super_, &naive.super_, false),
        ] {
            assert!(sorted_subset(found, all), "the sweep finds only naive hits");
            for &serial in all.iter().filter(|s| !found.contains(s)) {
                untested[usize::from(!query_in_cached)] += 1;
                let alone = HitSet {
                    sub: if query_in_cached {
                        vec![serial]
                    } else {
                        Vec::new()
                    },
                    super_: if query_in_cached {
                        Vec::new()
                    } else {
                        vec![serial]
                    },
                    ..HitSet::default()
                };
                let pruned = pruned_with(&snap, kind, &cs_m, &alone);
                assert!(
                    pruned.contributions[0].removed.is_empty(),
                    "untested hit {serial} prunes"
                );
            }
        }
        let (with_all, with_tested) = (
            pruned_with(&snap, kind, &cs_m, &naive),
            pruned_with(&snap, kind, &cs_m, &got),
        );
        assert_eq!(with_tested.outcome, with_all.outcome);
        assert_eq!(with_tested.direct_answer, with_all.direct_answer);
        assert_eq!(with_tested.remaining, with_all.remaining);
    }
    untested
}

/// Subgraph queries over an AIDS-shaped dataset: restricting hits whose
/// answer covers Method M's candidates and expanding hits with an empty
/// answer (a cached query with a label no dataset graph has) go untested,
/// and prune nothing.
#[test]
fn untested_subgraph_hits_would_prune_nothing() {
    let d = datasets::aids_like(0.03, 11);
    let method = MethodBuilder::ggsx().build(&d);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.2).count(80).seed(5));
    let queries: Vec<LabeledGraph> = workload.graphs().cloned().collect();
    let (cached, probes) = queries.split_at(40);
    let mut cached = cached.to_vec();
    cached.extend(probes.iter().step_by(4).map(|g| with_pendant(g, 9_999)));
    let untested = untested_hits_prune_nothing(&method, QueryKind::Subgraph, &cached, probes);
    assert!(
        untested.iter().all(|&k| k > 0),
        "expanding, restricting hits untested: {untested:?}"
    );
}

/// A labelled path of 3–8 nodes over {0, 1}: a shared alphabet, so the
/// feature filter passes often and every query drags a large candidate
/// set into verification, the worst case for hit detection (§5).
fn two_letter_path(seed: u64) -> LabeledGraph {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let len = 3 + (h % 6) as usize;
    let labels: Vec<u32> = (0..len).map(|i| ((h >> i) & 1) as u32).collect();
    let edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    LabeledGraph::from_parts(labels, &edges)
}

/// Candidate-heavy Zipf(1.4) workload over 120 cached two-letter paths in
/// 8 shards: even queries resubmit a cached graph (exact repeats), odd
/// ones a perturbed seed (fresh queries with heavy candidate overlap).
/// With a per-query budget of an eighth of the naive sweep's mean work,
/// the cost-ordered sweep must spend at least 5x less matcher work than
/// the naive flat sweep, and every exact repeat must resolve in the
/// fingerprint probe with zero candidate sub-iso tests.
#[test]
fn budgeted_sweep_cuts_matcher_work_fivefold() {
    use graphcache::graph::zipf::ZipfSampler;
    use rand::SeedableRng;
    const SHARDS: usize = 8;
    const CACHED: u64 = 120;
    const QUERIES: usize = 200;
    const BUDGET_DIVISOR: u64 = 8;

    let entries: Vec<Arc<CacheEntry>> = (1..=CACHED)
        .map(|serial| {
            let graph = two_letter_path(serial);
            let shape = QUERY_INDEX_SHAPE;
            let profile = enumerate_paths(&graph, shape.max_len, shape.work_cap);
            Arc::new(CacheEntry::new(
                serial,
                Arc::new(graph),
                vec![GraphId((serial % 16) as u32)],
                QueryKind::Subgraph,
                profile,
            ))
        })
        .collect();
    let snap = CacheSnapshot::build_sharded(SHARDS, entries);
    let zipf = ZipfSampler::new(CACHED as usize, 1.4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let queries: Vec<(LabeledGraph, bool)> = (0..QUERIES)
        .map(|i| {
            let rank = zipf.sample(&mut rng) as u64;
            match i % 2 {
                0 => (two_letter_path(rank + 1), true), // serials are 1-based
                _ => (two_letter_path(rank + 1 + CACHED * 31), false),
            }
        })
        .collect();

    let naive_work: u64 = queries
        .iter()
        .map(|(q, _)| find_hits_naive(&snap, q, QueryKind::Subgraph, &Vf2::new()).work)
        .sum();
    let budgeted = VerifyOptions {
        budget: Some((naive_work / QUERIES as u64 / BUDGET_DIVISOR).max(1)),
        ..VerifyOptions::default()
    };
    // Method M's candidates: every id an answer holds and more, so every
    // candidate could prune and the sweep tests what the naive one does.
    let cs_m = IdSet::from_sorted(graphcache::graph::idset::full(32), 32);
    let budgeted_work: u64 = queries
        .iter()
        .map(|(q, _)| pipeline(&snap, q, QueryKind::Subgraph, &cs_m, &budgeted).work)
        .sum();
    assert!(
        budgeted_work * 5 <= naive_work,
        "budgeted sweep must cut matcher work ≥5x: {budgeted_work} vs {naive_work}"
    );

    for (q, _) in queries.iter().filter(|(_, repeat)| *repeat) {
        let profile = snap.profile_of(q);
        let hq = HitQuery::new(q, QueryKind::Subgraph, &profile);
        let opts = VerifyOptions::default();
        let probe = exact_probe(&snap, q, hq.kind, hq.fingerprint, &Vf2::new(), &opts);
        assert!(probe.hits.exact.is_some(), "a repeat must hit");
        assert_eq!(probe.hits.tests, 0, "zero sub-iso tests on an exact repeat");
    }
}

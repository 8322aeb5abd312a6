//! Hit-path parity: the cost-ordered / fingerprint-first verification
//! pipeline is hit-equivalent to the naive flat sweep.
//!
//! * **Unbounded parity** — with no budget, the ordered pipeline (the
//!   query path's [`exact_probe`] handing its refutations to [`sweep`])
//!   returns exactly the same `HitSet` (sub, super, exact) as
//!   [`find_hits_naive`] over random graph mixes, across 1/4/16 shards.
//! * **Budget soundness** — any budgeted run yields a *subset* of the
//!   unbounded hits, never a wrong one, and flags truncation whenever it
//!   stopped short.
//! * **Fingerprint fast path** — a query isomorphic to a cached entry
//!   resolves in the probe alone, with zero candidate sub-iso tests and no
//!   path profile.
//!
//! CI runs this file in release mode too (`cargo test --release --test
//! hit_path`) so the ordering/budget logic is exercised with optimizations.

use graphcache::core::processors::{exact_probe, find_hits_naive, sweep, HitQuery, VerifyOptions};
use graphcache::core::{CacheEntry, CacheSnapshot, HitSet, QuerySerial, QUERY_INDEX_SHAPE};
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

/// The fingerprint probe, then the sweep it hands its refutations to.
fn pipeline(snap: &CacheSnapshot, query: &LabeledGraph, opts: &VerifyOptions) -> HitSet {
    let profile = snap.profile_of(query);
    let hq = HitQuery::new(query, QueryKind::Subgraph, &profile);
    let vf2 = Vf2::new();
    let probe = exact_probe(snap, query, hq.kind, hq.fingerprint, &vf2, opts);
    sweep(snap, &hq, probe, &vf2, opts)
}

/// `a` is a sub-multiset of `b` (both sorted).
fn sorted_subset(a: &[QuerySerial], b: &[QuerySerial]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With an unbounded budget the ordered pipeline and the naive flat
    /// sweep agree exactly — for any cached mix, any probe, and any shard
    /// count.
    #[test]
    fn unbounded_pipeline_matches_naive_sweep(
        seeds in pvec(0u64..4_000, 1..40usize),
        probe_seed in 0u64..4_000,
    ) {
        let shape = QUERY_INDEX_SHAPE;
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
            let snap = CacheSnapshot::build_sharded(shape, shards, entries.clone());
            for probe in &probes {
                let naive = find_hits_naive(
                    &snap, probe, QueryKind::Subgraph, &Vf2::new(),
                );
                let got = pipeline(&snap, probe, &VerifyOptions::default());
                prop_assert_eq!(&got.sub, &naive.sub, "sub, {} shards", shards);
                prop_assert_eq!(&got.super_, &naive.super_, "super, {} shards", shards);
                prop_assert_eq!(got.exact, naive.exact, "exact, {} shards", shards);
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
    ) {
        let shape = QUERY_INDEX_SHAPE;
        let entries: Vec<Arc<CacheEntry>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| entry_for(i as u64 + 1, s))
            .collect();
        let probe = seeded_graph(probe_seed);
        let snap = CacheSnapshot::build_sharded(shape, 4, entries);
        let full = pipeline(&snap, &probe, &VerifyOptions::default());
        let budgeted = pipeline(&snap, &probe, &VerifyOptions {
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
    ) {
        let shape = QUERY_INDEX_SHAPE;
        let entries: Vec<Arc<CacheEntry>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| entry_for(i as u64 + 1, s))
            .collect();
        let probe = seeded_graph(probe_seed);
        let snap = CacheSnapshot::build_sharded(shape, 4, entries);
        let full = pipeline(&snap, &probe, &VerifyOptions::default());
        let capped = pipeline(&snap, &probe, &VerifyOptions {
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
    let shape = QUERY_INDEX_SHAPE;
    let entries: Vec<Arc<CacheEntry>> = (0..25u64).map(|s| entry_for(s + 1, s * 17)).collect();
    for shards in [1usize, 4, 16] {
        let snap = CacheSnapshot::build_sharded(shape, shards, entries.clone());
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

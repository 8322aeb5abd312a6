//! Fragment-cache soundness: intersecting the candidate space with cached
//! fragment occurrence sets never changes an answer.
//!
//! * **Pruned ≡ unpruned** — a fragment-enabled cache answers every query
//!   bit-identically to the bare Method M flat sweep, for random query
//!   mixes across 1/4/16 shards (the proptest below). Pruning by exact
//!   occurrence sets of sub-fragments can only remove non-answers.
//! * **Overflow guard** — a work-cap-truncated fragment decomposition
//!   disables pruning for that query entirely: a partial profile must
//!   never be treated as complete.
//! * **Persistence** — the fragment store survives a save/restore cycle
//!   and keeps pruning soundly afterwards.
//! * **Payoff** — on the `fragments` suite's regime the layer cuts matcher
//!   tests and raises the assisted-query count.

use graphcache::core::FragmentConfig;
use graphcache::prelude::*;
use graphcache::workload::generate_type_a;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// A deterministic labelled-path query over a 3-letter alphabet
/// (4–7 nodes, sometimes closed into a cycle). The tiny alphabet makes
/// shared 2–3-edge fragments common across seeds, so the fragment store
/// actually probes and prunes; the index-free `SiVf2` method keeps the
/// baseline an honest flat sweep.
fn seeded_query(seed: u64) -> LabeledGraph {
    let len = 4 + (seed % 4) as usize;
    let labels: Vec<u32> = (0..len)
        .map(|i| ((seed >> (2 * i)) & 3) as u32 % 3)
        .collect();
    let mut edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    if seed.is_multiple_of(5) {
        edges.push((len as u32 - 1, 0)); // close the cycle
    }
    LabeledGraph::from_parts(labels, &edges)
}

/// A fragment-enabled cache over the index-free baseline method, with a
/// small window so maintenance (and fragment upkeep) runs often.
fn fragment_cache(
    dataset: &GraphDataset,
    shards: usize,
    cfg: Option<FragmentConfig>,
) -> GraphCache {
    let mut builder = GraphCache::builder()
        .capacity(24)
        .window(4)
        .shards(shards)
        .fragments(true);
    if let Some(cfg) = cfg {
        builder = builder.fragment_config(cfg);
    }
    builder.build(MethodBuilder::si_vf2().build(dataset))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance bar of the fragment layer: for any query mix and any
    /// shard count, fragment-pruned answers are bit-identical to the naive
    /// flat sweep's. Seeds repeat with high probability (small range), so
    /// the store populates and later queries really are pruned.
    #[test]
    fn fragment_pruned_answers_match_naive_sweep(
        seeds in pvec(0u64..200, 6..24usize),
    ) {
        let d = datasets::aids_like(0.03, 11);
        let baseline = MethodBuilder::si_vf2().build(&d);
        for shards in [1usize, 4, 16] {
            let cache = fragment_cache(&d, shards, None);
            for &s in &seeds {
                let q = seeded_query(s);
                let got = cache.run(&q).answer;
                let want = baseline.run(&q).answer;
                prop_assert_eq!(got, want, "seed {} diverged on {} shards", s, shards);
            }
        }
    }
}

/// Regression (soundness): a work-cap-truncated `enumerate_paths` profile
/// must never be treated as a complete decomposition. With a 1-work cap
/// every decomposition overflows, so the layer neither probes nor builds —
/// and answers still match the baseline.
#[test]
fn overflow_disables_fragment_pruning() {
    let d = datasets::aids_like(0.03, 11);
    let baseline = MethodBuilder::si_vf2().build(&d);
    let strangled = FragmentConfig {
        work_cap: 1,
        ..FragmentConfig::default()
    };
    let cache = fragment_cache(&d, 4, Some(strangled));
    // Replay a repetitive mix twice over: were the overflow guard broken,
    // the second pass would find fragments to probe.
    for pass in 0..2 {
        for seed in 0..12u64 {
            let q = seeded_query(seed);
            let r = cache.run(&q);
            assert_eq!(
                r.record.fragment_probes, 0,
                "a work-capped decomposition must not probe (pass {pass}, seed {seed})"
            );
            assert_eq!(r.record.fragment_hits, 0);
            assert_eq!(r.record.fragment_pruned, 0);
            assert_eq!(r.answer, baseline.run(&q).answer);
        }
    }
    assert_eq!(
        cache.fragment_store_len(),
        0,
        "upkeep must skip overflowing decompositions too"
    );
}

/// The fragment store persists: populate through a real workload, save,
/// restore into a fresh cache, and the restored store keeps the same
/// shape and still answers soundly.
#[test]
fn save_restore_preserves_fragment_store() {
    let dir = std::env::temp_dir().join(format!("gc-fragments-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let d = datasets::aids_like(0.03, 11);
    let baseline = MethodBuilder::si_vf2().build(&d);
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.05).count(60).seed(7));
    let cache = fragment_cache(&d, 4, None);
    for q in workload.graphs() {
        cache.run(q);
    }
    let stored = cache.fragment_store_len();
    assert!(stored > 0, "the workload must populate the fragment store");
    cache.save(&dir).expect("save");

    let fresh = fragment_cache(&d, 4, None);
    fresh.restore(&dir).expect("restore");
    assert_eq!(
        fresh.fragment_store_len(),
        stored,
        "restore must rebuild the fragment store exactly"
    );
    for seed in 0..16u64 {
        let q = seeded_query(seed);
        assert_eq!(fresh.run(&q).answer, baseline.run(&q).answer);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The layer's payoff on the `fragments` suite's regime (a flat Zipf over
/// the index-free `vf2` baseline, where whole-query caching has little to
/// offer): with fragments on, the same scenario prunes candidates, spends
/// strictly fewer matcher tests and assists strictly more queries than
/// with the layer off. The scenarios are the ones `gc bench --suite
/// fragments` runs and CI gates against `benches/baseline-fragments.json`.
#[test]
fn fragments_suite_pays_off_against_fragments_off() {
    use graphcache::harness::{run_scenario, Suite};
    let run = |name: &'static str| {
        let scenario = Suite::from_name("fragments")
            .expect("fragments suite exists")
            .scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("scenario {name:?} missing from the fragments suite"));
        let report = run_scenario(&scenario).expect("scenario runs");
        move |key: &str| {
            report
                .counter(key)
                .unwrap_or_else(|| panic!("{name} is missing counter {key}"))
        }
    };
    let on = run("fragments-aids-zz-on");
    let off = run("fragments-aids-zz-off");
    assert!(
        on("fragment_pruned") > 0,
        "the suite regime must actually prune candidates"
    );
    let (tests_on, tests_off) = (on("subiso_tests"), off("subiso_tests"));
    assert!(
        tests_on < tests_off,
        "fragment pruning must cut matcher tests: {tests_on} vs {tests_off}"
    );
    let (assisted_on, assisted_off) = (on("cache_assisted"), off("cache_assisted"));
    assert!(
        assisted_on > assisted_off,
        "fragment hits must raise the assisted-query count: {assisted_on} vs {assisted_off}"
    );
}

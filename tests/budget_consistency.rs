//! Failure injection: search budgets (the hang guard on NP-complete tests)
//! must degrade gracefully — a starved hit-verification work pool
//! (`verify_budget`) can only lose cache hits, never change answers; and a
//! budget-limited Method verifier stays consistent between cached and
//! uncached execution.

use graphcache::core::GraphCache;
use graphcache::prelude::*;
use graphcache::subiso::MatchConfig;
use graphcache::workload::generate_type_a;

fn dataset() -> GraphDataset {
    datasets::aids_like(0.04, 777)
}

#[test]
fn tiny_hit_budget_never_changes_answers() {
    let d = dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(50).seed(1));
    let baseline = MethodBuilder::ggsx().build(&d);
    // A hit-verification pool of 1 recursion step per query: almost every
    // cache-hit candidate aborts incomplete and is treated as a non-hit.
    // Answers must be identical to the uncached baseline regardless.
    let cache = GraphCache::builder()
        .capacity(20)
        .window(4)
        .verify_budget(1)
        .build(MethodBuilder::ggsx().build(&d));
    for (i, q) in workload.graphs().enumerate() {
        let expected = baseline.run(q).answer;
        assert_eq!(cache.run(q).answer, expected, "query {i}");
    }
}

#[test]
fn tiny_hit_budget_reduces_hits_not_correctness() {
    let d = dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(60).seed(2));
    let run_with = |budget: Option<u64>| {
        let mut builder = GraphCache::builder().capacity(20).window(4);
        if let Some(b) = budget {
            builder = builder.verify_budget(b);
        }
        let cache = builder.build(MethodBuilder::ggsx().build(&d));
        let mut hits = 0usize;
        for q in workload.graphs() {
            hits += cache.run(q).record.any_hit() as usize;
        }
        hits
    };
    let unbounded = run_with(None);
    let strangled = run_with(Some(1));
    assert!(
        strangled <= unbounded,
        "budget cannot create hits ({strangled} > {unbounded})"
    );
}

#[test]
fn budgeted_method_verifier_stays_sound() {
    // With a budget-capped (incomplete) Method verifier, GC and baseline
    // may legitimately differ: a cached containment chain g ⊆ g′ ⊆ G is a
    // *proof*, so GC can recover true answers the truncated baseline
    // missed. What must hold is soundness against an unbounded referee:
    // every answer GC adds beyond the baseline is a true containment.
    use graphcache::subiso::{Matcher, Ullmann};
    let d = dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zu(1.4).count(40).seed(3));
    let budget = MatchConfig::bounded(200);
    let referee = Ullmann::new();
    let baseline = MethodBuilder::ggsx().match_config(budget).build(&d);
    let cache = GraphCache::builder()
        .capacity(15)
        .window(4)
        .verify_budget(200)
        .build(MethodBuilder::ggsx().match_config(budget).build(&d));
    for (i, q) in workload.graphs().enumerate() {
        let expected = baseline.run(q).answer;
        let got = cache.run(q).answer;
        for id in &got {
            if !expected.contains(id) {
                assert!(
                    referee.contains(q, d.graph(*id)),
                    "query {i}: GC added a false answer {id}"
                );
            }
        }
    }
}

#[test]
fn budgeted_method_verifier_reports_incomplete_tests() {
    // A one-step verifier budget trips on every test that needs a second
    // step. Method M must count those tests as incomplete, in both
    // directions and on one thread or several, and a tripped test never
    // answers yes: every answer of the budgeted run is an answer of the
    // unbounded one.
    let d = dataset();
    let workload = generate_type_a(&d, &TypeAConfig::uu().count(20).seed(4));
    let unbounded = MethodBuilder::ggsx().build(&d);
    for threads in [1, 3] {
        let budgeted = MethodBuilder::ggsx()
            .threads(threads)
            .match_config(MatchConfig::bounded(1))
            .build(&d);
        let mut incomplete = 0;
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            for q in workload.graphs() {
                let full = unbounded.run_directed(q, kind);
                let cut = budgeted.run_directed(q, kind);
                let stats = cut.verify.stats;
                assert_eq!(stats.tests, full.verify.stats.tests);
                assert!(stats.incomplete + stats.positives <= stats.tests);
                assert!(
                    cut.answer.iter().all(|id| full.answer.contains(id)),
                    "a budget-tripped test answered yes"
                );
                incomplete += stats.incomplete;
            }
        }
        assert!(
            incomplete > 0,
            "{threads} thread(s): no test reported incomplete"
        );
    }
}

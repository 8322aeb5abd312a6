//! The central correctness invariant (paper's "GC does not produce any
//! false negative or false positive"): for every method, policy and
//! workload, GraphCache returns exactly the same answer sets as the
//! uncached Method M.

use graphcache::core::{GraphCache, PolicyKind};
use graphcache::methods::{Method, MethodBuilder, MethodKind};
use graphcache::prelude::*;
use graphcache::workload::{generate_type_a, generate_type_b};

fn check_equivalence(cache: GraphCache, baseline: &Method, workload: &Workload) {
    for (i, q) in workload.graphs().enumerate() {
        let expected = baseline.run(q).answer;
        let got = cache.run(q).answer;
        assert_eq!(
            got,
            expected,
            "answer mismatch at query {i} (method {}, policy {})",
            baseline.name(),
            cache.eviction_name()
        );
    }
}

fn small_dataset() -> GraphDataset {
    datasets::aids_like(0.04, 1001) // 40 graphs
}

#[test]
fn gc_matches_baseline_for_every_ftv_method() {
    let d = small_dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(60).seed(2));
    for kind in MethodKind::FTV {
        let method = kind.build(&d);
        let baseline = kind.build(&d);
        let cache = GraphCache::builder().capacity(15).window(4).build(method);
        check_equivalence(cache, &baseline, &workload);
    }
}

#[test]
fn gc_matches_baseline_for_every_si_method() {
    let d = small_dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zu(1.4).count(40).seed(3));
    for kind in MethodKind::SI {
        let method = kind.build(&d);
        let baseline = kind.build(&d);
        let cache = GraphCache::builder().capacity(15).window(4).build(method);
        check_equivalence(cache, &baseline, &workload);
    }
}

#[test]
fn gc_matches_baseline_for_every_policy() {
    let d = small_dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.7).count(60).seed(4));
    for policy in PolicyKind::ALL {
        let method = MethodBuilder::ggsx().build(&d);
        let baseline = MethodBuilder::ggsx().build(&d);
        let cache = GraphCache::builder()
            .capacity(10)
            .window(3)
            .eviction(policy.name())
            .build(method);
        check_equivalence(cache, &baseline, &workload);
    }
}

#[test]
fn gc_matches_baseline_on_no_answer_workloads() {
    let d = small_dataset();
    let cfg = TypeBConfig::with_no_answer_prob(0.5)
        .pools(15, 6)
        .count(50)
        .sizes(vec![4, 8])
        .seed(5);
    let workload = generate_type_b(&d, &cfg);
    assert!(workload.no_answer_fraction() > 0.2);
    let method = MethodBuilder::ggsx().build(&d);
    let baseline = MethodBuilder::ggsx().build(&d);
    let cache = GraphCache::builder().capacity(12).window(4).build(method);
    check_equivalence(cache, &baseline, &workload);
}

#[test]
fn gc_matches_baseline_with_admission_control() {
    let d = small_dataset();
    let workload = generate_type_a(&d, &TypeAConfig::zz(1.4).count(60).seed(6));
    let method = MethodBuilder::ggsx().build(&d);
    let baseline = MethodBuilder::ggsx().build(&d);
    let cache = GraphCache::builder()
        .capacity(10)
        .window(5)
        .admission("threshold")
        .build(method);
    check_equivalence(cache, &baseline, &workload);
}

#[test]
fn exact_repeats_answered_identically_from_cache() {
    let d = small_dataset();
    let workload = generate_type_a(&d, &TypeAConfig::uu().count(10).seed(8));
    let method = MethodBuilder::ct_index().build(&d);
    let baseline = MethodBuilder::ct_index().build(&d);
    let cache = GraphCache::builder().capacity(20).window(2).build(method);
    // First pass populates, second pass must be all exact hits with
    // unchanged answers.
    let mut first: Vec<Vec<GraphId>> = Vec::new();
    for q in workload.graphs() {
        first.push(cache.run(q).answer);
    }
    for (i, q) in workload.graphs().enumerate() {
        let r = cache.run(q);
        assert_eq!(r.answer, first[i]);
        assert_eq!(r.answer, baseline.run(q).answer);
        assert!(r.record.exact_hit, "query {i} should be an exact hit");
        assert_eq!(r.record.subiso_tests, 0);
    }
}

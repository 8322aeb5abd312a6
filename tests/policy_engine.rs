//! Pluggable policy engine acceptance tests.
//!
//! * **Parity** — every built-in built by registry name must select
//!   exactly the victims the `PolicyKind` utility functions select on a
//!   recorded Zipf statistics trace.
//! * **Registry** — names round-trip (`name → build → name()`), unknown
//!   names fail with the available-policy listing, and the two post-paper
//!   policies are selectable end-to-end.
//! * **Persistence** — snapshots record the eviction policy; restoring
//!   under a different policy still loads.

use graphcache::core::registry;
use graphcache::core::{
    EvictionPolicy, GraphCache, PolicyKind, PolicyRow, PolicyView, QuerySerial,
};
use graphcache::graph::zipf::ZipfSampler;
use graphcache::prelude::*;
use graphcache::workload::generate_type_a;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn dataset() -> GraphDataset {
    datasets::aids_like(0.04, 77) // 40 graphs
}

fn zipf_workload(d: &GraphDataset, count: usize, seed: u64) -> Workload {
    generate_type_a(d, &TypeAConfig::zz(1.4).count(count).seed(seed))
}

/// Replays a synthetic Zipf hit trace over a fixed set of cached entries,
/// yielding the statistics table after every "window" of events — the same
/// `PolicyRow` views a maintenance round would assemble.
fn zipf_row_trace(entries: usize, events: usize, window: usize, seed: u64) -> Vec<Vec<PolicyRow>> {
    let mut rows: Vec<PolicyRow> = (1..=entries as u64)
        .map(|serial| PolicyRow {
            serial,
            last_hit: serial,
            hits: 0,
            r_total: 0,
            c_total: 0.0,
        })
        .collect();
    let sampler = ZipfSampler::new(entries, 1.2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snapshots = Vec::new();
    for event in 0..events {
        let idx = sampler.sample(&mut rng);
        let now = entries as u64 + event as u64 + 1;
        let row = &mut rows[idx];
        row.last_hit = now;
        row.hits += 1;
        let r: u64 = rng.gen_range(1..200);
        row.r_total += r;
        row.c_total += r as f64 * rng.gen_range(0.5..20.0);
        if (event + 1) % window == 0 {
            snapshots.push(rows.clone());
        }
    }
    snapshots
}

/// Each trait-based built-in must pick exactly the victims the enum
/// dispatch picks, at every point of the recorded trace and for several
/// eviction batch sizes.
#[test]
fn trace_replay_parity_with_enum_dispatch() {
    let trace = zipf_row_trace(40, 400, 50, 9);
    assert_eq!(trace.len(), 8, "recorded trace has 8 windows");
    for kind in PolicyKind::ALL {
        let mut policy = registry::build_eviction(kind.registry_name()).unwrap();
        for (w, rows) in trace.iter().enumerate() {
            let now = 40 + (w as u64 + 1) * 50;
            for evict in [1usize, 5, 17] {
                let expected = kind.select_victims(rows, evict, now);
                let got = policy.select_victims(&PolicyView::new(rows, now), evict);
                assert_eq!(
                    got,
                    expected,
                    "policy {} diverged at window {w}, evict {evict}",
                    kind.name()
                );
            }
        }
    }
}

/// `name → build → name()` for every canonical registry entry, plus alias
/// and error behaviour.
#[test]
fn registry_round_trips_names() {
    for name in registry::eviction_names() {
        let p = registry::build_eviction(&name).unwrap();
        assert_eq!(p.name(), name);
    }
    for name in registry::admission_names() {
        let p = registry::build_admission(&name).unwrap();
        assert_eq!(p.name(), name);
    }
    // The paper's recommended policy under its related-work name.
    assert_eq!(registry::build_eviction("gcr").unwrap().name(), "hd");

    let err = registry::build_eviction("not-a-policy").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not-a-policy"));
    for name in registry::eviction_names() {
        assert!(msg.contains(&name), "error must list {name}: {msg}");
    }
}

/// The builder surfaces unknown specs as typed errors via `try_build`.
#[test]
fn builder_rejects_unknown_specs() {
    let d = dataset();
    let err = GraphCache::builder()
        .eviction("belady")
        .try_build(MethodBuilder::ggsx().build(&d))
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("belady"));
    assert!(!err.available().is_empty());

    let err = GraphCache::builder()
        .admission("belady")
        .try_build(MethodBuilder::ggsx().build(&d))
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("admission"));
}

/// The two post-paper policies work end-to-end: correct answers, bounded
/// capacity, and the policy is reported under its registry name.
#[test]
fn new_policies_selectable_end_to_end() {
    let d = dataset();
    let workload = zipf_workload(&d, 120, 55);
    let baseline = MethodBuilder::ggsx().build(&d);
    let expected: Vec<Vec<GraphId>> = workload.graphs().map(|q| baseline.run(q).answer).collect();
    for spec in ["slru", "slru:protected=0.5", "greedy-dual"] {
        let cache = GraphCache::builder()
            .capacity(10)
            .window(4)
            .eviction(spec)
            .admission("adaptive")
            .build(MethodBuilder::ggsx().build(&d));
        for (q, want) in workload.graphs().zip(&expected) {
            assert_eq!(&cache.run(q).answer, want, "{spec}");
        }
        assert!(cache.cache_len() <= 10, "{spec} respects capacity");
        assert!(cache.cache_len() > 0, "{spec} cached something");
        let name = spec.split(':').next().unwrap();
        assert_eq!(cache.eviction_name(), name);
        assert_eq!(cache.admission_name(), "adaptive");
    }
}

/// Snapshots record the eviction policy by registry name, and restoring
/// under a different policy still loads (policy-private state is reset).
#[test]
fn restore_under_different_policy_loads() {
    let dir = std::env::temp_dir().join(format!("gc-policy-engine-{}", std::process::id()));
    let d = dataset();
    let workload = zipf_workload(&d, 60, 11);

    let writer = GraphCache::builder()
        .capacity(10)
        .window(4)
        .eviction("greedy-dual")
        .build(MethodBuilder::ggsx().build(&d));
    for q in workload.graphs() {
        writer.run(q);
    }
    writer.save(&dir).unwrap();
    let saved_len = writer.cache_len();
    assert!(saved_len > 0);
    let recorded = graphcache::core::PersistedCache::load_resilient(&dir).unwrap();
    assert_eq!(recorded.state.policy.as_deref(), Some("greedy-dual"));

    // Same policy: restores cleanly.
    let same = GraphCache::builder()
        .eviction("greedy-dual")
        .build(MethodBuilder::ggsx().build(&d));
    same.restore(&dir).unwrap();
    assert_eq!(same.cache_len(), saved_len);

    // Different policy: loads (with a reset + warning) and keeps serving.
    let other = GraphCache::builder()
        .capacity(10)
        .window(4)
        .eviction("slru")
        .build(MethodBuilder::ggsx().build(&d));
    other.restore(&dir).unwrap();
    assert_eq!(other.cache_len(), saved_len);
    let baseline = MethodBuilder::ggsx().build(&d);
    for q in workload.graphs().take(20) {
        assert_eq!(other.run(q).answer, baseline.run(q).answer);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A user-defined policy registered at runtime is constructible by name
/// and drives a cache end-to-end — the registry is open, not a closed
/// enum. (The README walks through this pattern; `examples/custom_policy.rs`
/// is the compilable version.)
#[test]
fn custom_policy_registers_and_runs() {
    /// Evicts the oldest entries regardless of hits (FIFO).
    #[derive(Debug, Default)]
    struct Fifo;

    impl EvictionPolicy for Fifo {
        fn name(&self) -> &str {
            "fifo-test"
        }

        fn select_victims(&mut self, view: &PolicyView<'_>, evict: usize) -> Vec<QuerySerial> {
            let mut serials: Vec<QuerySerial> = view.rows().iter().map(|r| r.serial).collect();
            serials.sort_unstable();
            serials.truncate(evict.min(view.len()));
            serials
        }
    }

    registry::register_eviction("fifo-test", |_params| Ok(Box::new(Fifo)));
    assert!(registry::eviction_names().contains(&"fifo-test".to_string()));

    let d = dataset();
    let workload = zipf_workload(&d, 60, 91);
    let baseline = MethodBuilder::ggsx().build(&d);
    let cache = GraphCache::builder()
        .capacity(6)
        .window(3)
        .eviction("fifo-test")
        .build(MethodBuilder::ggsx().build(&d));
    for q in workload.graphs() {
        assert_eq!(cache.run(q).answer, baseline.run(q).answer);
    }
    assert!(cache.cache_len() <= 6);
    assert_eq!(cache.eviction_name(), "fifo-test");
}

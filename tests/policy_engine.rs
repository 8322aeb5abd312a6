//! Pluggable policy engine acceptance tests.
//!
//! * **Parity** — each of the paper's five policies, built by name, must
//!   select exactly the victims the §6.3 utility formulas (restated here)
//!   select on a recorded Zipf statistics trace.
//! * **Names** — names round-trip (`name → build → name()`), unknown
//!   names fail with the available-policy listing, and the two post-paper
//!   policies are selectable end-to-end.
//! * **Persistence** — snapshots record the eviction policy; restoring
//!   under a different policy still loads.

use graphcache::core::registry;
use graphcache::core::{policy::squared_cov, GraphCache, PolicyKind, PolicyRow, PolicyView};
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

/// The paper's §6.3 victims, restated independently of `gc-core`: the
/// `evict` rows of lowest utility, ties to the smaller serial.
fn paper_victims(name: &str, rows: &[PolicyRow], evict: usize, now: u64) -> Vec<u64> {
    let name = match name {
        "hd" if squared_cov(rows.iter().map(|r| r.r_total as f64)) > 1.0 => "pin",
        "hd" => "pinc",
        other => other,
    };
    let mut scored: Vec<(f64, u64)> = rows
        .iter()
        .map(|r| {
            let age = now.saturating_sub(r.serial).max(1) as f64;
            let utility = match name {
                "lru" => r.last_hit as f64,
                "pop" => r.hits as f64 / age,
                "pin" => r.r_total as f64 / age,
                "pinc" => r.c_total / age,
                other => panic!("{other} is not a paper policy"),
            };
            (utility, r.serial)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(evict).map(|(_, s)| s).collect()
}

/// Each of the paper's policies, built by name, must pick exactly the
/// victims its utility formula picks, at every point of the recorded
/// trace and for several eviction batch sizes.
#[test]
fn trace_replay_parity_with_enum_dispatch() {
    let trace = zipf_row_trace(40, 400, 50, 9);
    assert_eq!(trace.len(), 8, "recorded trace has 8 windows");
    for &name in &registry::EVICTION_NAMES[..PolicyKind::ALL.len()] {
        let mut policy = registry::build_eviction(name).unwrap();
        for (w, rows) in trace.iter().enumerate() {
            let now = 40 + (w as u64 + 1) * 50;
            for evict in [1usize, 5, 17] {
                let expected = paper_victims(name, rows, evict, now);
                let got = policy.select_victims(&PolicyView::new(rows, now), evict);
                assert_eq!(
                    got, expected,
                    "policy {name} diverged at window {w}, evict {evict}"
                );
            }
        }
    }
}

/// A random statistics table of `len` rows with distinct, shuffled
/// serials; small value ranges make utility ties common.
fn random_rows(rng: &mut StdRng, len: usize) -> Vec<PolicyRow> {
    let mut serials: Vec<u64> = (1..=len as u64 * 2).collect();
    for i in (1..serials.len()).rev() {
        serials.swap(i, rng.gen_range(0..i + 1));
    }
    serials
        .into_iter()
        .take(len)
        .map(|serial| {
            let hits = rng.gen_range(0..4u64);
            PolicyRow {
                serial,
                last_hit: if hits == 0 {
                    serial
                } else {
                    serial + rng.gen_range(0..5u64)
                },
                hits,
                r_total: hits * rng.gen_range(0..3u64),
                c_total: (hits * rng.gen_range(0..3u64)) as f64,
            }
        })
        .collect()
}

/// The contract `window::maintain` relies on: every policy returns exactly
/// `evict.min(len)` distinct serials, all from the view, whatever the
/// table, its parameters and (for Greedy-Dual) its private credits.
#[test]
fn every_eviction_policy_returns_distinct_victims_from_the_view() {
    let mut specs: Vec<String> = registry::EVICTION_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    specs.extend(
        [
            "gcr",
            "slru:protected=0",
            "slru:protected=0.5",
            "slru:protected=1",
        ]
        .map(String::from),
    );
    let mut rng = StdRng::seed_from_u64(37);
    for round in 0..60 {
        let rows = random_rows(&mut rng, round % 23);
        let now = rows.iter().map(|r| r.last_hit).max().unwrap_or(0) + rng.gen_range(0..3u64);
        let len = rows.len();
        for spec in &specs {
            for credited in [false, true] {
                if credited && spec != "greedy-dual" {
                    continue;
                }
                let mut policy = registry::build_eviction(spec).unwrap();
                if credited {
                    for r in rows.iter().step_by(2) {
                        policy.on_admit(r.serial, rng.gen_range(0..4u64) as f64);
                    }
                    for r in rows.iter().filter(|r| r.hits > 0) {
                        policy.on_hit(r.serial, r.last_hit, r.c_total);
                    }
                }
                for evict in [0, 1, len / 2, len, len + 3] {
                    let victims = policy.select_victims(&PolicyView::new(&rows, now), evict);
                    let what = format!("{spec} (credited {credited}), {len} rows, evict {evict}");
                    assert_eq!(victims.len(), evict.min(len), "{what}");
                    let distinct: std::collections::HashSet<u64> =
                        victims.iter().copied().collect();
                    assert_eq!(distinct.len(), victims.len(), "{what}: repeated victim");
                    assert!(
                        victims.iter().all(|v| rows.iter().any(|r| r.serial == *v)),
                        "{what}: victim outside the view"
                    );
                }
            }
        }
    }
}

/// `name → build → name()` for every canonical policy name, plus alias
/// and error behaviour.
#[test]
fn registry_round_trips_names() {
    for &name in registry::EVICTION_NAMES {
        let p = registry::build_eviction(name).unwrap();
        assert_eq!(p.name(), name);
    }
    for &name in registry::ADMISSION_NAMES {
        let p = registry::build_admission(name).unwrap();
        assert_eq!(p.name(), name);
    }
    // The paper's recommended policy under its related-work name.
    assert_eq!(registry::build_eviction("gcr").unwrap().name(), "hd");

    let err = registry::build_eviction("not-a-policy").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not-a-policy"));
    for name in registry::EVICTION_NAMES {
        assert!(msg.contains(name), "error must list {name}: {msg}");
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

/// Snapshots record the eviction policy by name, and restoring
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

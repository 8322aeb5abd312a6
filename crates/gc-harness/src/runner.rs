//! The one scenario runner: dataset generation → workload generation →
//! one [`GraphCache`] per daemon over a freshly built Method M → an
//! [`Executor`] replays the workload in order → counter collection, the
//! persistence cycle and the reference arm on the first cache.
//!
//! Where a query executes is the [`Deployment`]'s choice: [`InProcess`]
//! calls [`GraphCache::execute`]; `gc_server::bench::Fleet` serves the
//! same caches through one daemon or a routed fleet. Everything else —
//! every [`Scenario`] field included — is this module's, once.

use crate::report::ScenarioReport;
use crate::scenario::Scenario;
use gc_core::{GraphCache, QueryRecord, QueryRequest, RunCounters};
use gc_graph::{GraphDataset, LabeledGraph};
use gc_methods::Method;
use gc_workload::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The cache-side counters every executor's [`settle`](Executor::settle)
/// reports, in schema order after the run counters: maintenance
/// ([`MaintStats::deterministic_counters`](gc_core::MaintStats::deterministic_counters)),
/// final cache shape, durability gauges. In-process they are read from the
/// cache, over the wire from the daemon's settled `STATS` reply; both are
/// looked up through this one list.
pub const SETTLED_COUNTERS: [&str; 12] = [
    "maint_rounds",
    "entries_admitted",
    "entries_evicted",
    "shards_patched",
    "compactions",
    "fragments_built",
    "fragments_evicted",
    "postings_debt",
    "cache_entries",
    "memory_bytes",
    "snapshots_written",
    "recovered_generation",
];

/// A system standing ready to take one scenario's workload. Dropping it
/// tears the system down, on error paths too.
pub trait Executor {
    /// Answers query `id` (its workload position) and returns its record.
    fn query(&mut self, id: usize, graph: &LabeledGraph) -> Result<QueryRecord, String>;

    /// Returns the stats after the last query, named as
    /// [`SETTLED_COUNTERS`] names them (extra keys are ignored).
    fn settle(&mut self) -> Result<Vec<(String, u64)>, String>;
}

/// How a run's scenarios execute: chosen once per run, stood up once per
/// scenario over the caches the runner built.
pub trait Deployment {
    /// Caches the runner builds, one per daemon; the first is the one the
    /// persistence cycle and the reference arm read.
    fn daemons(&self) -> usize;

    /// Stands the system up over `caches` (handles onto the runner's own).
    fn stand_up(
        &self,
        scenario: &Scenario,
        caches: &[GraphCache],
    ) -> Result<Box<dyn Executor>, String>;
}

/// In-process execution: [`GraphCache::execute`] in workload order, which
/// is what [`GraphCache::run_batch`] does with one client thread.
pub struct InProcess;

impl Deployment for InProcess {
    fn daemons(&self) -> usize {
        1
    }

    fn stand_up(&self, _: &Scenario, caches: &[GraphCache]) -> Result<Box<dyn Executor>, String> {
        Ok(Box::new(caches[0].clone()))
    }
}

impl Executor for GraphCache {
    fn query(&mut self, _: usize, graph: &LabeledGraph) -> Result<QueryRecord, String> {
        Ok(self.execute(QueryRequest::from(graph)).result.record)
    }

    fn settle(&mut self) -> Result<Vec<(String, u64)>, String> {
        Ok(settled_stats(self))
    }
}

/// Runs one scenario in-process and collects its report.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, String> {
    run_scenario_on(scenario, &InProcess)
}

/// Runs one scenario on `deployment` and collects its report: the one
/// sequence every executor shares. Queries go one at a time in workload
/// order, so the counters are a pure function of the seeds. Wall-clock
/// covers generation, construction, the replay and the tear-down, and is
/// advisory only.
pub fn run_scenario_on(
    scenario: &Scenario,
    deployment: &dyn Deployment,
) -> Result<ScenarioReport, String> {
    let named = |e: String| format!("scenario {:?}: {e}", scenario.name);
    let t0 = Instant::now();
    let (dataset, workload) = scenario.generate();
    let caches = (0..deployment.daemons())
        .map(|_| build_cache(scenario, &dataset))
        .collect::<Result<Vec<_>, _>>()?;
    let Some(cache) = caches.first() else {
        return Err(named("a deployment needs at least one daemon".into()));
    };
    let (records, settled) = {
        // Dropped at the end of this block, or at the first error.
        let mut executor = deployment.stand_up(scenario, &caches).map_err(named)?;
        let records = workload
            .graphs()
            .enumerate()
            .map(|(i, graph)| executor.query(i, graph))
            .collect::<Result<Vec<_>, _>>()
            .map_err(named)?;
        (records, executor.settle().map_err(named)?)
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut counters = assemble_counters(scenario, &records, &settled)?;
    if scenario.persist_cycle {
        let snapshot_bytes = persist_cycle(scenario, cache, &dataset)?;
        counters.push(("persisted_entries".to_string(), cache.cache_len() as u64));
        counters.push(("snapshot_bytes".to_string(), snapshot_bytes as u64));
    }
    Ok(finish_report(scenario, &workload, cache, counters, wall_ms))
}

/// An in-process cache's values for [`SETTLED_COUNTERS`], named as the
/// daemon's `STATS` payload names them. An in-process run never writes
/// periodic snapshots, so `snapshots_written` is structurally zero.
fn settled_stats(cache: &GraphCache) -> Vec<(String, u64)> {
    let mut stats: Vec<(String, u64)> = cache
        .maint_stats()
        .deterministic_counters()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    stats.push(("cache_entries".to_string(), cache.cache_len() as u64));
    stats.push(("memory_bytes".to_string(), cache.memory_bytes() as u64));
    stats.push(("snapshots_written".to_string(), 0));
    stats.push((
        "recovered_generation".to_string(),
        cache.recovered_generation().unwrap_or(0),
    ));
    stats
}

/// A replay's counters in schema order: the run counters of `records`
/// after the scenario's warm-up, then each of [`SETTLED_COUNTERS`] looked
/// up by name in `settled`. Extra `settled` keys (a daemon's session
/// gauges, a router's placement counters) are ignored; a missing one is
/// an error.
fn assemble_counters(
    scenario: &Scenario,
    records: &[QueryRecord],
    settled: &[(String, u64)],
) -> Result<Vec<(String, u64)>, String> {
    let run = RunCounters::from_records(records, scenario.warmup);
    let mut counters: Vec<(String, u64)> = run
        .deterministic_counters()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for key in SETTLED_COUNTERS {
        let value = settled
            .iter()
            .find(|(name, _)| name == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("scenario {:?}: settled stats lack {key}", scenario.name))?;
        counters.push((key.to_string(), value));
    }
    Ok(counters)
}

/// Wraps a finished replay's counters into the scenario's report. When
/// the scenario names a [`reference`](Scenario::reference) method, its
/// uncached replay runs here; a reference of the cache's own kind reuses
/// the cache's Method M instead of building its index again (Method M
/// keeps no state between queries).
fn finish_report(
    scenario: &Scenario,
    workload: &Workload,
    cache: &GraphCache,
    mut counters: Vec<(String, u64)>,
    wall_ms: f64,
) -> ScenarioReport {
    let reference_ms = scenario.reference.map(|kind| {
        let built;
        let method = if kind == scenario.method {
            cache.method()
        } else {
            built = kind.build(cache.method().dataset());
            &built
        };
        let (arm, ms) = reference_arm(scenario, method, workload);
        counters.extend(arm);
        ms
    });
    ScenarioReport {
        name: scenario.name.clone(),
        config: scenario.config_echo(),
        counters,
        wall_ms,
        reference_ms,
    }
}

/// Replays the measured queries (warm-up skipped, as for the cached run)
/// through `method` with no cache: the paper's baseline. Returns its
/// counters and its replay time in milliseconds (advisory; the index
/// build is excluded).
fn reference_arm(
    scenario: &Scenario,
    method: &Method,
    workload: &Workload,
) -> (Vec<(String, u64)>, f64) {
    let t0 = Instant::now();
    let (mut tests, mut work) = (0, 0);
    for query in workload.graphs().skip(scenario.warmup) {
        let stats = method.run_directed(query, scenario.kind).verify.stats;
        tests += stats.tests;
        work += stats.nodes_expanded;
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let index_bytes = method.index_memory_bytes().unwrap_or(0) as u64;
    let counters = [
        ("reference_subiso_tests", tests),
        ("reference_verify_work", work),
        ("reference_index_bytes", index_bytes),
    ];
    (counters.map(|(k, v)| (k.to_string(), v)).to_vec(), ms)
}

/// Builds the scenario's cache over a freshly built Method M: the runner's
/// one cache per daemon, and the persistence cycle's second, identically
/// configured cache to restore into. Expensiveness is a
/// query's verification work, never a clock reading, so admission
/// decisions, greedy-dual credits and policy statistics are a pure
/// function of the seeds even on a busy CI box.
pub fn build_cache(scenario: &Scenario, dataset: &GraphDataset) -> Result<GraphCache, String> {
    let method = scenario.method.build(dataset);
    let mut builder = GraphCache::builder()
        .capacity(scenario.capacity)
        .window(scenario.window)
        .eviction(scenario.eviction.as_str())
        .query_kind(scenario.kind)
        .threads(scenario.threads)
        .shards(scenario.shards)
        .fragments(scenario.fragments);
    if let Some(budget) = scenario.verify_budget {
        builder = builder.verify_budget(budget);
    }
    if let Some(admission) = &scenario.admission {
        builder = builder.admission(admission.as_str());
    }
    if let Some(bytes) = scenario.fragment_budget {
        builder = builder.fragment_budget(bytes);
    }
    if let Some(spec) = &scenario.fragment_eviction {
        builder = builder.fragment_eviction(spec.as_str());
    }
    builder
        .try_build(method)
        .map_err(|e| format!("scenario {:?}: {e}", scenario.name))
}

/// Runs the scenario's persistence cycle: save the replayed cache as a
/// `snapshot.bin`, restore it into a freshly built (empty) cache, and
/// re-save that restored cache. The cycle passes only if the re-save is
/// byte-identical to the first snapshot — one comparison that covers
/// entries, answer sets, stored profiles, policy stats and fragments at
/// once, because the binary encoding is deterministic. Returns the
/// snapshot size in bytes.
fn persist_cycle(
    scenario: &Scenario,
    cache: &GraphCache,
    dataset: &GraphDataset,
) -> Result<usize, String> {
    // Unique per process and per call: two runs of one scenario (the
    // parity tests) may cycle at the same time.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "gc-harness-persist-{}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
        scenario.name
    ));
    let result = persist_cycle_in(scenario, cache, dataset, &root);
    // Best-effort cleanup on success and failure alike; a vanished dir
    // must not mask the cycle's real outcome.
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn persist_cycle_in(
    scenario: &Scenario,
    cache: &GraphCache,
    dataset: &GraphDataset,
    root: &std::path::Path,
) -> Result<usize, String> {
    let ctx = |stage: &str, e: String| {
        format!("scenario {:?} persist cycle: {stage}: {e}", scenario.name)
    };
    let saved = root.join("saved");
    let resaved = root.join("resaved");
    cache.save(&saved).map_err(|e| ctx("save", e.to_string()))?;
    let original = std::fs::read(saved.join("snapshot.bin"))
        .map_err(|e| ctx("read snapshot", e.to_string()))?;

    let restored = build_cache(scenario, dataset)?;
    restored
        .restore(&saved)
        .map_err(|e| ctx("restore", e.to_string()))?;
    if restored.cache_len() != cache.cache_len() {
        return Err(ctx(
            "entry parity",
            format!(
                "restored {} entries, expected {}",
                restored.cache_len(),
                cache.cache_len()
            ),
        ));
    }
    restored
        .save(&resaved)
        .map_err(|e| ctx("re-save", e.to_string()))?;
    let roundtripped = std::fs::read(resaved.join("snapshot.bin"))
        .map_err(|e| ctx("read re-saved snapshot", e.to_string()))?;
    if roundtripped != original {
        return Err(ctx(
            "byte parity",
            format!(
                "re-saved snapshot differs ({} vs {} bytes)",
                roundtripped.len(),
                original.len()
            ),
        ));
    }
    Ok(original.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MatrixReport, SCHEMA_VERSION};
    use crate::scenario::{Suite, WorkloadSpec};
    use gc_methods::MethodKind;

    fn tiny() -> Scenario {
        let mut s = Scenario::named("tiny");
        s.dataset_scale = 0.05; // 125 AIDS-shaped graphs (the profile scale floor)
        s.queries = 40;
        s.capacity = 15;
        s.window = 10;
        s.query_sizes = vec![4, 6];
        s.warmup = 10;
        s
    }

    #[test]
    fn scenario_reports_are_deterministic() {
        let s = tiny();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.config, b.config);
        // The replay actually did work.
        assert_eq!(a.counter("queries"), Some(30)); // 40 - warmup 10
        assert!(a.counter("subiso_tests").unwrap_or(0) > 0);
        assert!(a.counter("maint_rounds").unwrap_or(0) > 0);
        assert!(a.counter("memory_bytes").unwrap_or(0) > 0);
    }

    #[test]
    fn different_seeds_change_counters() {
        let a = run_scenario(&tiny()).unwrap();
        let mut s = tiny();
        s.workload_seed = 777;
        let b = run_scenario(&s).unwrap();
        assert_ne!(
            a.counters, b.counters,
            "changing the workload seed must change the counter stream"
        );
    }

    #[test]
    fn budget_and_admission_paths_run() {
        let mut s = tiny();
        s.workload = WorkloadSpec::TypeB {
            no_answer: 0.2,
            alpha: 1.4,
        };
        s.verify_budget = Some(500);
        s.admission = Some("adaptive".into());
        s.eviction = "gcr".into();
        let r = run_scenario(&s).unwrap();
        assert_eq!(r.counter("queries"), Some(30));
        // Budgeted sweeps account their work in the budget pool.
        assert!(r.counter("budget_spent").is_some());
    }

    #[test]
    fn fragment_scenarios_report_fragment_counters() {
        let mut s = tiny();
        s.fragments = true;
        s.method = MethodKind::SiVf2;
        s.workload = WorkloadSpec::Zz(1.05);
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a.counters, b.counters, "fragment path is deterministic");
        assert!(a.counter("fragment_probes").unwrap_or(0) > 0);
        assert!(a.counter("fragments_built").unwrap_or(0) > 0);
        // Off keeps the counters present (schema-stable) but zero.
        s.fragments = false;
        let off = run_scenario(&s).unwrap();
        assert_eq!(off.counter("fragment_probes"), Some(0));
        assert_eq!(off.counter("fragments_built"), Some(0));
    }

    #[test]
    fn bad_fragment_eviction_spec_errors_with_scenario_name() {
        let mut s = tiny();
        s.fragments = true;
        s.fragment_eviction = Some("no-such-policy".into());
        let err = run_scenario(&s).unwrap_err();
        assert!(err.contains("tiny"), "{err}");
        assert!(err.contains("available"), "{err}");
    }

    #[test]
    fn bad_policy_spec_errors_with_scenario_name() {
        let mut s = tiny();
        s.eviction = "no-such-policy".into();
        let err = run_scenario(&s).unwrap_err();
        assert!(err.contains("tiny"), "{err}");
    }

    #[test]
    fn reference_arm_matches_direct_method_sum() {
        // Same kind as the cache (its Method M is reused) and another kind
        // (built for the arm), with and without an index.
        for kind in [MethodKind::Ggsx, MethodKind::SiVf2] {
            let mut s = tiny();
            s.reference = Some(kind);
            let report = run_scenario(&s).unwrap();
            let (dataset, workload) = s.generate();
            let method = kind.build(&dataset);
            let (mut tests, mut work) = (0, 0);
            for q in workload.graphs().skip(s.warmup) {
                let r = method.run_directed(q, s.kind);
                tests += r.verify.stats.tests;
                work += r.verify.stats.nodes_expanded;
            }
            assert!(tests > 0, "{kind:?}: the arm must do work");
            assert_eq!(report.counter("reference_subiso_tests"), Some(tests));
            assert_eq!(report.counter("reference_verify_work"), Some(work));
            assert_eq!(
                report.counter("reference_index_bytes"),
                Some(method.index_memory_bytes().unwrap_or(0) as u64)
            );
            assert!(report.reference_ms.is_some());
        }
    }

    #[test]
    fn reference_free_scenario_is_unchanged() {
        let plain = run_scenario(&tiny()).unwrap();
        assert_eq!(plain.reference_ms, None);
        assert!(plain.speedups().is_none());
        assert!(!plain
            .counters
            .iter()
            .any(|(k, _)| k.starts_with("reference")));
        assert!(!plain.config.iter().any(|(k, _)| k == "reference"));

        // The arm only appends: the cached replay's echo and counters are
        // the reference-free ones, in the same order.
        let mut s = tiny();
        s.reference = Some(MethodKind::SiVf2);
        let with = run_scenario(&s).unwrap();
        let n = plain.counters.len();
        assert_eq!(with.counters[..n], plain.counters[..]);
        let appended: Vec<&str> = with.counters[n..].iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            appended,
            [
                "reference_subiso_tests",
                "reference_verify_work",
                "reference_index_bytes"
            ]
        );
        assert_eq!(with.config[..plain.config.len()], plain.config[..]);
        assert_eq!(
            with.config[plain.config.len()..],
            [("reference".to_string(), "vf2".to_string())]
        );
    }

    #[test]
    fn settled_counters_cover_the_maintenance_schema() {
        // A new maintenance counter must be added to SETTLED_COUNTERS, or
        // neither runner would report it.
        let maint: Vec<&str> = gc_core::MaintStats::default()
            .deterministic_counters()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(SETTLED_COUNTERS[..maint.len()], maint[..]);
        let s = tiny();
        let (dataset, _) = s.generate();
        let cache = build_cache(&s, &dataset).unwrap();
        let names: Vec<String> = settled_stats(&cache).into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, SETTLED_COUNTERS);
    }

    #[test]
    fn figure_suites_replay_within_their_reference() {
        for suite in Suite::FIGURES {
            let mut s = suite.scenarios().remove(0);
            s.queries = 20;
            s.warmup = 0;
            let r = run_scenario(&s).unwrap();
            let reference = r.counter("reference_subiso_tests").unwrap();
            assert!(reference > 0, "{}: the reference arm ran no test", s.name);
            // CS_GC ⊆ CS_M and an exact hit runs no test, so a cache over
            // Method M never tests more than Method M alone.
            if s.reference == Some(s.method) {
                let cached = r.counter("subiso_tests").unwrap();
                assert!(cached <= reference, "{}: {cached} > {reference}", s.name);
            }
        }
    }

    #[test]
    fn batch_runner_matches_workload_order() {
        // RunCounters skip the warm-up by position, so run_batch must
        // return records in workload order even with several clients.
        let mut s = tiny();
        s.threads = 4;
        let (dataset, workload) = s.generate();
        let cache = build_cache(&s, &dataset).unwrap();
        let responses = cache.run_batch(workload.graphs().map(QueryRequest::from));
        assert_eq!(responses.len(), workload.len());
        let method = s.method.build(&dataset);
        for (resp, q) in responses.iter().zip(workload.graphs()) {
            assert_eq!(resp.result.record.answer_size, method.run(q).answer.len());
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = MatrixReport {
            schema_version: SCHEMA_VERSION,
            suite: "adhoc".into(),
            scenarios: vec![run_scenario(&tiny()).unwrap()],
        };
        let text = report.to_json(false);
        let back = MatrixReport::from_json(&text).unwrap();
        assert_eq!(back.scenarios[0].counters, report.scenarios[0].counters);
        assert!(MatrixReport::compare(&back, &report, 0.0).is_empty());
    }
}

//! Per-layer metrics: where each end-to-end number comes from.
//!
//! Names are prefixed with the module they attribute to. Spans are
//! recorded by this crate around public calls; counts come from the
//! `QueryRecord` / `MaintStats` / `STATS` values the program returns.
//! Stage durations inside `execute` are the record's own, min-merged per
//! query over the in-process passes like the latencies are.

use crate::measure::{MetricDef, Metrics, Quiet};
use crate::replay::Inputs;
use crate::stats::{self, FAILED};
use crate::trace::{Traced, Tracer};
use crate::workloads::Path as ExecPath;
use gc_core::QueryRecord;
use std::time::Duration;

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run
/// reports all of them; one that does not apply to the workload (wire
/// metrics in-process, fragment metrics outside `cold-uniform`) reads 0.
pub const PER_LAYER: [MetricDef; 71] = [
    layer("workload.dataset_gen_ms", "ms", "lower"),
    layer("methods.index_build_ms", "ms", "lower"),
    layer("core.cache_build_ms", "ms", "lower"),
    layer("server.bind_connect_ms", "ms", "lower"),
    layer("index.iso_hash_us", "us", "lower"),
    layer("query_index.probe_us", "us", "lower"),
    layer("query_index.candidates_per_probe", "count", "lower"),
    layer("processors.gc_filter_us", "us", "lower"),
    layer("processors.gc_tests_per_query", "count", "lower"),
    layer("processors.budget_spent_per_query", "count", "lower"),
    layer("core.execute_self_share", "ratio", "lower"),
    layer("core.exact_hit_us_p50", "us", "lower"),
    layer("core.miss_us_p50", "us", "lower"),
    layer("processors.exact_rate", "ratio", "higher"),
    layer("processors.exact_fp_rate", "ratio", "higher"),
    layer("processors.sub_hit_rate", "ratio", "higher"),
    layer("processors.super_hit_rate", "ratio", "higher"),
    layer("processors.any_hit_rate", "ratio", "higher"),
    layer("processors.truncated_rate", "ratio", "lower"),
    layer("pruner.cs_reduction", "ratio", "higher"),
    layer("pruner.empty_shortcut_rate", "ratio", "higher"),
    layer("methods.cs_m_size", "count", "lower"),
    layer("methods.filter_us", "us", "lower"),
    layer("methods.verify_us", "us", "lower"),
    layer("methods.uncached_us", "us", "lower"),
    layer("subiso.work_per_query", "count", "lower"),
    layer("subiso.ns_per_node", "ns", "lower"),
    layer("core.speedup_vs_m", "ratio", "higher"),
    layer("window.maint_share", "ratio", "lower"),
    layer("window.round_us_p50", "us", "lower"),
    layer("window.round_us_p99", "us", "lower"),
    layer("window.victim_select_us_per_round", "us", "lower"),
    layer("window.index_delta_us_per_round", "us", "lower"),
    layer("window.stats_upkeep_us_per_round", "us", "lower"),
    layer("window.rounds", "count", "lower"),
    layer("window.entries_admitted", "count", "lower"),
    layer("window.entries_evicted", "count", "lower"),
    layer("window.shards_patched", "count", "lower"),
    layer("window.compactions", "count", "lower"),
    layer("window.dead_postings", "count", "lower"),
    layer("core.memory_bytes", "bytes", "lower"),
    layer("core.cache_entries", "count", "higher"),
    layer("persist.save_ms", "ms", "lower"),
    layer("persist.restore_ms", "ms", "lower"),
    layer("persist.snapshot_bytes", "bytes", "lower"),
    layer("persist.bytes_per_entry", "bytes", "lower"),
    layer("proto.encode_request_us", "us", "lower"),
    layer("proto.parse_request_us", "us", "lower"),
    layer("proto.encode_response_us", "us", "lower"),
    layer("proto.parse_response_us", "us", "lower"),
    layer("proto.request_bytes", "bytes", "lower"),
    layer("proto.response_bytes", "bytes", "lower"),
    layer("server.ping_rtt_us", "us", "lower"),
    layer("server.wire_overhead_us", "us", "lower"),
    layer("server.busy_rate", "ratio", "lower"),
    layer("server.proto_errors", "count", "lower"),
    layer("router.overhead_us", "us", "lower"),
    layer("router.routed_exact_rate", "ratio", "higher"),
    layer("router.fanout_probes_per_query", "count", "lower"),
    layer("router.peer_misses", "count", "lower"),
    layer("router.probe_rtt_us", "us", "lower"),
    layer("router.cpu_ratio_vs_served", "ratio", "lower"),
    layer("fragments.decompose_us", "us", "lower"),
    layer("fragments.probes_per_query", "count", "lower"),
    layer("fragments.hit_rate", "ratio", "higher"),
    layer("fragments.pruned_per_query", "count", "higher"),
    layer("fragments.upkeep_ms_per_round", "ms", "lower"),
    layer("noise.canary_spread", "ratio", "lower"),
    layer("noise.pass_spread", "ratio", "lower"),
    layer("bench.qps_median_pass", "1/s", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// Everything a traced run gathered.
pub struct Evidence<'a> {
    /// Stream, oracle, scenario.
    pub inputs: &'a Inputs,
    /// Quiet passes through the workload's own path.
    pub quiet: &'a Quiet,
    /// Quiet passes of the same stream in-process (the same object as
    /// `quiet` for an in-process workload): the source of stage durations.
    pub in_process: &'a Quiet,
    /// Quiet passes through one daemon, for a routed workload.
    pub served: Option<&'a Quiet>,
    /// The traced pass through the workload's own path.
    pub traced: &'a Traced,
    /// The traced pass with the fragment layer on (`cold-uniform` only).
    pub fragments: Option<&'a Traced>,
    /// All spans.
    pub tracer: &'a Tracer,
    /// One Method M index build, timed on its own.
    pub index_build: Duration,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One of the record's stage durations, min-merged over the passes.
fn merged_stage(quiet: &Quiet, stage: impl Fn(&QueryRecord) -> Duration) -> Vec<u64> {
    let per_pass: Vec<Vec<u64>> = quiet
        .passes
        .iter()
        .map(|p| {
            p.records
                .iter()
                .zip(&p.lat_ns)
                .map(|(r, &t)| {
                    if t == FAILED {
                        FAILED
                    } else {
                        stage(r).as_nanos() as u64
                    }
                })
                .collect()
        })
        .collect();
    stats::min_merge(&per_pass.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

fn median_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        stats::percentile(ns, 50.0) as f64 / 1e3
    }
}

/// Median over measured positions of `a[i] - b[i]`, in µs.
fn median_gap_us(a: &Quiet, b: &Quiet) -> f64 {
    let mut gaps: Vec<i64> = a
        .measured()
        .filter(|&i| i < b.q.len() && b.q[i] != FAILED)
        .map(|i| a.q[i] as i64 - b.q[i] as i64)
        .collect();
    if gaps.is_empty() {
        return 0.0;
    }
    gaps.sort_unstable();
    gaps[(gaps.len() - 1) / 2] as f64 / 1e3
}

/// Computes every per-layer metric.
pub fn per_layer(ev: &Evidence) -> Metrics {
    let quiet = ev.quiet;
    let inproc = ev.in_process;
    let measured: Vec<usize> = inproc.measured().collect();
    let n = measured.len().max(1) as f64;
    let records = &inproc.passes[0].records;
    let sum = |f: &dyn Fn(&QueryRecord) -> u64| {
        measured.iter().map(|&i| f(&records[i])).sum::<u64>() as f64
    };
    let rate = |f: &dyn Fn(&QueryRecord) -> bool| sum(&|r| f(r) as u64) / n;

    // Stage durations, min-merged, summed over the measured positions.
    let stage_sum = |v: &[u64]| measured.iter().map(|&i| v[i]).sum::<u64>() as f64;
    let gc_filter = merged_stage(inproc, |r| r.gc_filter);
    let m_filter = merged_stage(inproc, |r| r.m_filter);
    let verify = merged_stage(inproc, |r| r.verify);
    let maintenance = merged_stage(inproc, |r| r.maintenance);
    let q_sum = stage_sum(&inproc.q);
    let stages_sum =
        stage_sum(&gc_filter) + stage_sum(&m_filter) + stage_sum(&verify) + stage_sum(&maintenance);

    let lat_where = |pred: &dyn Fn(&QueryRecord) -> bool| -> Vec<u64> {
        measured
            .iter()
            .filter(|&&i| pred(&records[i]))
            .map(|&i| inproc.q[i])
            .collect()
    };
    let rounds_ns: Vec<u64> = measured
        .iter()
        .map(|&i| maintenance[i])
        .filter(|&ns| ns > 0)
        .collect();
    let round_us = |p: f64| {
        if rounds_ns.is_empty() {
            0.0
        } else {
            stats::percentile(&rounds_ns, p) as f64 / 1e3
        }
    };

    let oracle = &ev.inputs.oracle;
    let uncached_sum: f64 = measured
        .iter()
        .map(|&i| (oracle.filter_ns[i] + oracle.verify_ns[i]) as f64)
        .sum();

    // Set-up, maintenance and snapshot phases: the quietest pass each.
    let pass_min = |f: &dyn Fn(&crate::replay::PassResult) -> Duration| {
        quiet.passes.iter().map(f).min().unwrap_or_default()
    };
    let settled = &quiet.passes[0].settled;
    let maint = &settled.maint;
    let rounds = maint.rounds.max(1) as f64;
    let per_round = |f: &dyn Fn(&gc_core::MaintStats) -> Duration| {
        us(pass_min(&|p| f(&p.settled.maint))) / rounds
    };
    let (daemons, wire_overhead) = match ev.inputs.def.path {
        ExecPath::InProcess => (1.0, 0.0),
        ExecPath::Served => (1.0, median_gap_us(quiet, inproc)),
        ExecPath::Routed(n) => (
            n as f64,
            ev.served
                .map_or(0.0, |served| median_gap_us(served, inproc)),
        ),
    };
    let cache_build = pass_min(&|p| p.setup.cache_build);
    let snapshot = &quiet.passes[0].snapshot;

    let queries = quiet.passes[0].lat_ns.len() as f64;
    let served_cpu = ev.served.map_or(0.0, Quiet::cpu_us_per_query);

    let frag = ev.fragments;
    let frag_sum = |f: &dyn Fn(&QueryRecord) -> u64| {
        frag.map_or(0.0, |t| t.records.iter().map(f).sum::<u64>() as f64)
    };
    let frag_n = frag.map_or(1.0, |t| t.records.len().max(1) as f64);

    let canaries: Vec<u64> = quiet.passes.iter().map(|p| p.canary_ns).collect();
    let walls: Vec<f64> = quiet.passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let pass_qps: Vec<f64> = walls.iter().map(|w| queries / w).collect();
    let median_wall = stats::median_f64(&walls);
    let traced_n = ev.traced.records.len().max(1) as f64;

    let values = [
        // set-up
        (
            "workload.dataset_gen_ms",
            ms(pass_min(&|p| p.setup.dataset_gen)),
        ),
        ("methods.index_build_ms", ms(ev.index_build)),
        ("core.cache_build_ms", ms(cache_build) / daemons),
        (
            "server.bind_connect_ms",
            ms(pass_min(&|p| p.setup.bind_connect)),
        ),
        // hit path
        ("index.iso_hash_us", ev.tracer.mean_us("index.iso_hash")),
        (
            "query_index.probe_us",
            ev.tracer.mean_us("query_index.probe_candidates"),
        ),
        (
            "query_index.candidates_per_probe",
            ev.traced.candidates as f64 / traced_n,
        ),
        ("processors.gc_filter_us", stage_sum(&gc_filter) / n / 1e3),
        ("processors.gc_tests_per_query", sum(&|r| r.gc_tests) / n),
        (
            "processors.budget_spent_per_query",
            sum(&|r| r.budget_spent) / n,
        ),
        ("core.execute_self_share", ratio(q_sum - stages_sum, q_sum)),
        (
            "core.exact_hit_us_p50",
            median_us(&lat_where(&|r| r.exact_hit)),
        ),
        ("core.miss_us_p50", median_us(&lat_where(&|r| !r.any_hit()))),
        // useful-outcome ratios
        ("processors.exact_rate", rate(&|r| r.exact_hit)),
        (
            "processors.exact_fp_rate",
            rate(&|r| r.exact_via_fingerprint),
        ),
        ("processors.sub_hit_rate", rate(&|r| r.sub_hits > 0)),
        ("processors.super_hit_rate", rate(&|r| r.super_hits > 0)),
        ("processors.any_hit_rate", rate(&|r| r.any_hit())),
        ("processors.truncated_rate", rate(&|r| r.truncated)),
        (
            "pruner.cs_reduction",
            1.0 - ratio(sum(&|r| r.cs_gc_size as u64), sum(&|r| r.cs_m_size as u64)),
        ),
        ("pruner.empty_shortcut_rate", rate(&|r| r.empty_shortcut)),
        ("methods.cs_m_size", sum(&|r| r.cs_m_size as u64) / n),
        // Method M
        ("methods.filter_us", stage_sum(&m_filter) / n / 1e3),
        ("methods.verify_us", stage_sum(&verify) / n / 1e3),
        ("methods.uncached_us", uncached_sum / n / 1e3),
        (
            "subiso.work_per_query",
            sum(&|r| r.verify_work + r.budget_spent) / n,
        ),
        (
            "subiso.ns_per_node",
            ratio(stage_sum(&verify), sum(&|r| r.verify_work)),
        ),
        ("core.speedup_vs_m", ratio(uncached_sum, q_sum)),
        // window
        ("window.maint_share", ratio(stage_sum(&maintenance), q_sum)),
        ("window.round_us_p50", round_us(50.0)),
        ("window.round_us_p99", round_us(99.0)),
        (
            "window.victim_select_us_per_round",
            per_round(&|m| m.victim_select),
        ),
        (
            "window.index_delta_us_per_round",
            per_round(&|m| m.index_delta),
        ),
        (
            "window.stats_upkeep_us_per_round",
            per_round(&|m| m.stats_upkeep),
        ),
        ("window.rounds", maint.rounds as f64),
        ("window.entries_admitted", maint.entries_admitted as f64),
        ("window.entries_evicted", maint.entries_evicted as f64),
        ("window.shards_patched", maint.shards_patched as f64),
        ("window.compactions", maint.compactions as f64),
        ("window.dead_postings", maint.dead_postings as f64),
        ("core.memory_bytes", settled.memory_bytes as f64),
        ("core.cache_entries", settled.cache_entries as f64),
        // persist
        ("persist.save_ms", ms(pass_min(&|p| p.snapshot.save))),
        ("persist.restore_ms", ms(pass_min(&|p| p.snapshot.restore))),
        ("persist.snapshot_bytes", snapshot.bytes as f64),
        (
            "persist.bytes_per_entry",
            ratio(snapshot.bytes as f64, snapshot.entries as f64),
        ),
        // proto + server
        (
            "proto.encode_request_us",
            ev.tracer.mean_us("proto.encode_request"),
        ),
        (
            "proto.parse_request_us",
            ev.tracer.mean_us("proto.parse_request"),
        ),
        (
            "proto.encode_response_us",
            ev.tracer.mean_us("proto.encode_response"),
        ),
        (
            "proto.parse_response_us",
            ev.tracer.mean_us("proto.parse_response"),
        ),
        (
            "proto.request_bytes",
            ev.traced.request_bytes as f64 / traced_n,
        ),
        (
            "proto.response_bytes",
            ev.traced.response_bytes as f64 / traced_n,
        ),
        ("server.ping_rtt_us", ev.tracer.median_us("client.ping")),
        ("server.wire_overhead_us", wire_overhead),
        (
            "server.busy_rate",
            ratio(settled.stat("busy_rejections") as f64, queries),
        ),
        ("server.proto_errors", settled.stat("proto_errors") as f64),
        // router
        (
            "router.overhead_us",
            ev.served.map_or(0.0, |served| median_gap_us(quiet, served)),
        ),
        (
            "router.routed_exact_rate",
            ratio(settled.stat("routed_exact") as f64, queries),
        ),
        (
            "router.fanout_probes_per_query",
            ratio(settled.stat("fanout_probes") as f64, queries),
        ),
        ("router.peer_misses", settled.stat("peer_misses") as f64),
        ("router.probe_rtt_us", ev.tracer.median_us("client.probe")),
        (
            "router.cpu_ratio_vs_served",
            ratio(quiet.cpu_us_per_query(), served_cpu),
        ),
        // fragments
        (
            "fragments.decompose_us",
            ev.tracer.mean_us("fragments.decompose"),
        ),
        (
            "fragments.probes_per_query",
            frag_sum(&|r| r.fragment_probes) / frag_n,
        ),
        (
            "fragments.hit_rate",
            ratio(
                frag_sum(&|r| r.fragment_hits),
                frag_sum(&|r| r.fragment_probes),
            ),
        ),
        (
            "fragments.pruned_per_query",
            frag_sum(&|r| r.fragment_pruned) / frag_n,
        ),
        (
            "fragments.upkeep_ms_per_round",
            frag.map_or(0.0, |t| {
                ratio(
                    ms(t.settled.maint.fragment_upkeep),
                    t.settled.maint.rounds as f64,
                )
            }),
        ),
        // noise
        (
            "noise.canary_spread",
            ratio(
                *canaries.iter().max().unwrap_or(&0) as f64,
                *canaries.iter().min().unwrap_or(&0) as f64,
            ),
        ),
        (
            "noise.pass_spread",
            ratio(
                walls.iter().copied().fold(0.0, f64::max),
                stats::min_f64(&walls),
            ),
        ),
        ("bench.qps_median_pass", stats::median_f64(&pass_qps)),
        (
            "trace.overhead_frac",
            ratio(ev.traced.wall.as_secs_f64() - median_wall, median_wall),
        ),
    ];
    assert_eq!(values.len(), PER_LAYER.len());
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, (name, v))| {
            assert_eq!(def.name, name, "values must follow the PER_LAYER order");
            (def.name, v, def.unit)
        })
        .collect()
}

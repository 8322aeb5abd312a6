//! Figure 9: cache admission control on the dense datasets (PCM and
//! Synthetic) against Grapes6, Type B workloads.
//!
//! Paper claims to reproduce: (a) enabling admission control ("C + AC")
//! *increases* query-time speedups; (b) it *decreases* the speedup in
//! number of sub-iso tests — because the cache stops chasing cheap queries
//! and prioritises the expensive ones. The `--detail` section prints the
//! top-1% expensive-query analysis the paper uses to explain the effect.
//!
//! Run with: `cargo run --release -p gc-bench --bin fig9`

use gc_bench::runner::*;
use gc_core::{AdmissionConfig, GraphCache};
use gc_methods::{MethodBuilder, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(300);
    let detail = std::env::args().any(|a| a == "--detail");
    let probs = [0.0, 0.2, 0.5];
    let columns: Vec<String> = ["PCM", "Synthetic"]
        .iter()
        .flat_map(|d| {
            probs
                .iter()
                .map(move |p| format!("{d}/{}%", (p * 100.0) as u32))
        })
        .collect();

    // Paper's printed values: PCM then Synthetic, each (0%, 20%, 50%).
    let paper_time = [
        Series {
            label: "C".into(),
            values: vec![4.35, 3.04, 2.94, 1.67, 1.73, 1.47],
        },
        Series {
            label: "C+AC".into(),
            values: vec![5.71, 4.05, 5.44, 2.50, 2.24, 1.92],
        },
    ];
    let paper_tests = [
        Series {
            label: "C".into(),
            values: vec![3.20, 2.97, 2.50, 4.36, 4.05, 3.97],
        },
        Series {
            label: "C+AC".into(),
            values: vec![2.57, 2.31, 2.28, 1.93, 1.95, 2.59],
        },
    ];

    let pcm = datasets::pcm_like(exp.scale, exp.seed);
    let synthetic = datasets::synthetic_like(exp.scale, exp.seed);
    eprintln!("[fig9] PCM: {}", pcm.stats());
    eprintln!("[fig9] Synthetic: {}", synthetic.stats());
    // The paper uses 20–40-edge queries on 377-node PCM graphs; the bench
    // datasets are ~3× smaller, so query sizes scale down proportionally
    // (keeping the paper's sizes would make single sub-iso tests dominate
    // whole runs on dense graphs). A generous work budget guards against
    // pathological tests without changing any measured outcome ordering —
    // it applies identically to the baseline and the cached runs.
    let sizes = vec![8usize, 11, 14, 17, 20];

    let mut measured_time = [
        Series {
            label: "C".into(),
            values: Vec::new(),
        },
        Series {
            label: "C+AC".into(),
            values: Vec::new(),
        },
    ];
    let mut measured_tests = [
        Series {
            label: "C".into(),
            values: Vec::new(),
        },
        Series {
            label: "C+AC".into(),
            values: Vec::new(),
        },
    ];

    for (dname, dataset) in [("PCM", &pcm), ("Synthetic", &synthetic)] {
        let budget = gc_subiso::MatchConfig::bounded(20_000_000);
        let baseline_method = MethodBuilder::grapes(6).match_config(budget).build(dataset);
        for &p in &probs {
            let spec = WorkloadSpec::TypeB {
                no_answer: p,
                alpha: 1.4,
            };
            let workload = spec.generate(dataset, &sizes, exp.queries, exp.seed);
            let base_records = baseline_records(&baseline_method, &workload, QueryKind::Subgraph);
            let base = summarize(&base_records);
            for (ac, series_idx) in [(false, 0usize), (true, 1usize)] {
                let admission = if ac {
                    AdmissionConfig::enabled()
                } else {
                    AdmissionConfig::default()
                };
                let cache = GraphCache::builder()
                    .capacity(100)
                    .window(20)
                    .admission(admission)
                    .hit_match(budget)
                    .build(MethodBuilder::grapes(6).match_config(budget).build(dataset));
                let records = gc_records(&cache, &workload);
                let gc = summarize(&records);
                measured_time[series_idx]
                    .values
                    .push(gc.time_speedup_vs(&base));
                measured_tests[series_idx]
                    .values
                    .push(gc.subiso_speedup_vs(&base));

                if detail && dname == "Synthetic" && (p - 0.5).abs() < 1e-9 {
                    top1_detail(&base_records, &records, ac);
                }
            }
            eprintln!("[fig9] {dname} {}% done", (p * 100.0) as u32);
        }
    }

    print_series(
        "Fig 9(a) — query-time speedup vs Grapes6, Type B (C vs C+AC)",
        &columns,
        &paper_time,
        &measured_time,
    );
    print_series(
        "Fig 9(b) — sub-iso-test speedup vs Grapes6, Type B (C vs C+AC)",
        &columns,
        &paper_tests,
        &measured_tests,
    );
    println!(
        "\nShape checks: C+AC time speedups ≥ C time speedups; C+AC\n\
         sub-iso speedups ≤ C sub-iso speedups (the paper's pollution\n\
         insight). Run with --detail for the top-1% analysis."
    );
}

/// The paper's explanation device: average time of the top-1% most
/// expensive queries vs the rest, with and without admission control.
fn top1_detail(base: &[gc_core::QueryRecord], gc: &[gc_core::QueryRecord], ac: bool) {
    let mut order: Vec<usize> = (0..base.len()).collect();
    order.sort_by(|&a, &b| base[b].query_time().cmp(&base[a].query_time()));
    let k = (base.len() / 100).max(1);
    let (top, rest) = order.split_at(k);
    let avg = |idx: &[usize], rs: &[gc_core::QueryRecord]| {
        idx.iter()
            .map(|&i| rs[i].query_time().as_secs_f64() * 1e3)
            .sum::<f64>()
            / idx.len() as f64
    };
    println!(
        "[detail Synthetic-50% {}] top-1%: base {:.1} ms → gc {:.1} ms ({:.2}x); rest: base {:.2} ms → gc {:.2} ms ({:.2}x)",
        if ac { "C+AC" } else { "C" },
        avg(top, base),
        avg(top, gc),
        avg(top, base) / avg(top, gc).max(1e-9),
        avg(rest, base),
        avg(rest, gc),
        avg(rest, base) / avg(rest, gc).max(1e-9),
    );
}

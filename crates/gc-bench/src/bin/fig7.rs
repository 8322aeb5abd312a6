//! Figure 7: GraphCache query-time speedups for Type B workloads on AIDS,
//! sweeping the Zipf skew α ∈ {1.1, 1.4, 1.7} — "the more skewed the query
//! distribution, the higher the gains from caching".
//!
//! Run with: `cargo run --release -p gc-bench --bin fig7`

use gc_bench::runner::*;
use gc_core::GraphCache;
use gc_methods::{MethodKind, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(600);
    let alphas = [1.1, 1.4, 1.7];
    let probs = [0.0, 0.2, 0.5];
    let columns: Vec<String> = probs
        .iter()
        .flat_map(|p| {
            alphas
                .iter()
                .map(move |a| format!("{}%/α{a}", (p * 100.0) as u32))
        })
        .collect();

    // Paper's printed values, grouped (0%, 20%, 50%) × (α 1.1, 1.4, 1.7).
    let paper = [
        Series {
            label: "CT-Index".into(),
            values: vec![4.42, 9.68, 22.99, 4.22, 9.76, 23.31, 4.09, 8.43, 16.55],
        },
        Series {
            label: "GGSX".into(),
            values: vec![2.82, 5.47, 10.22, 2.70, 5.38, 9.52, 2.65, 4.98, 8.27],
        },
        Series {
            label: "Grapes1".into(),
            values: vec![2.66, 3.70, 5.02, 2.52, 4.10, 4.82, 2.42, 3.45, 4.25],
        },
        Series {
            label: "Grapes6".into(),
            values: vec![1.66, 1.96, 2.17, 1.57, 1.96, 2.18, 1.56, 1.73, 1.99],
        },
    ];

    let dataset = datasets::aids_like(exp.scale, exp.seed);
    eprintln!("[fig7] AIDS: {}", dataset.stats());
    let sizes = vec![4usize, 8, 12, 16, 20];
    let mut workloads = Vec::new();
    for &p in &probs {
        for &alpha in &alphas {
            let spec = WorkloadSpec::TypeB {
                no_answer: p,
                alpha,
            };
            workloads.push(spec.generate(&dataset, &sizes, exp.queries, exp.seed));
        }
    }
    eprintln!("[fig7] workloads generated");

    let mut measured = Vec::new();
    for kind in MethodKind::FTV {
        let baseline_method = kind.build(&dataset);
        eprintln!("[fig7] {} index built", kind.name());
        let mut series = Series {
            label: kind.name().into(),
            values: Vec::new(),
        };
        for (wi, workload) in workloads.iter().enumerate() {
            let base = summarize(&baseline_records(
                &baseline_method,
                workload,
                QueryKind::Subgraph,
            ));
            let cache = GraphCache::builder()
                .capacity(100)
                .window(20)
                .build(kind.build(&dataset));
            let gc = summarize(&gc_records(&cache, workload));
            series.values.push(gc.time_speedup_vs(&base));
            if wi % 3 == 2 {
                eprintln!("[fig7] {} {}/{} done", kind.name(), wi + 1, workloads.len());
            }
        }
        measured.push(series);
    }
    print_series(
        "Fig 7 — GC query-time speedup, AIDS Type B, Zipf α sweep",
        &columns,
        &paper,
        &measured,
    );
    println!(
        "\nShape check: within each no-answer level, speedup should rise\n\
         with α (more skew ⇒ more cache hits), for every method."
    );
}

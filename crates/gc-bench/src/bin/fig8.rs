//! Figure 8: GraphCache speedup in query time against GGSX for varying
//! cache sizes (c100 / c300 / c500, all with W = 20), on AIDS and PDBS,
//! Type A and Type B workloads — "increasing the cache size improves the
//! performance of the cache".
//!
//! Run with: `cargo run --release -p gc-bench --bin fig8`

use gc_bench::runner::*;
use gc_core::GraphCache;
use gc_methods::{MethodBuilder, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(800);
    let capacities = [100usize, 300, 500];
    let type_a: Vec<WorkloadSpec> = vec![
        WorkloadSpec::Zz(1.4),
        WorkloadSpec::Zu(1.4),
        WorkloadSpec::Uu,
    ];
    let type_b: Vec<WorkloadSpec> = vec![
        WorkloadSpec::TypeB {
            no_answer: 0.0,
            alpha: 1.4,
        },
        WorkloadSpec::TypeB {
            no_answer: 0.2,
            alpha: 1.4,
        },
        WorkloadSpec::TypeB {
            no_answer: 0.5,
            alpha: 1.4,
        },
    ];

    // Paper's printed values per panel: rows c100/c300/c500.
    let paper: [(&str, [[f64; 3]; 3]); 4] = [
        (
            "AIDS/TypeA",
            [[3.39, 3.00, 2.81], [4.07, 3.82, 3.87], [4.31, 4.00, 4.05]],
        ),
        (
            "AIDS/TypeB",
            [[5.47, 5.38, 4.98], [7.94, 7.51, 6.34], [8.48, 7.86, 6.53]],
        ),
        (
            "PDBS/TypeA",
            [[5.72, 1.86, 1.53], [8.92, 2.68, 2.04], [10.00, 3.08, 2.30]],
        ),
        (
            "PDBS/TypeB",
            [[3.88, 2.83, 2.17], [5.23, 4.28, 4.11], [6.83, 5.47, 5.80]],
        ),
    ];

    let aids = datasets::aids_like(exp.scale, exp.seed);
    let pdbs = datasets::pdbs_like(exp.scale, exp.seed);
    eprintln!("[fig8] AIDS: {}", aids.stats());
    eprintln!("[fig8] PDBS: {}", pdbs.stats());
    let sizes = vec![4usize, 8, 12, 16, 20];

    let panels: [(&str, &gc_graph::GraphDataset, &[WorkloadSpec]); 4] = [
        ("AIDS/TypeA", &aids, &type_a),
        ("AIDS/TypeB", &aids, &type_b),
        ("PDBS/TypeA", &pdbs, &type_a),
        ("PDBS/TypeB", &pdbs, &type_b),
    ];

    for (panel_idx, (panel, dataset, specs)) in panels.into_iter().enumerate() {
        let columns: Vec<String> = specs.iter().map(|s| s.name()).collect();
        let baseline_method = MethodBuilder::ggsx().build(dataset);
        let workloads: Vec<_> = specs
            .iter()
            .map(|s| s.generate(dataset, &sizes, exp.queries, exp.seed))
            .collect();
        let bases: Vec<_> = workloads
            .iter()
            .map(|w| summarize(&baseline_records(&baseline_method, w, QueryKind::Subgraph)))
            .collect();
        let paper_rows: Vec<Series> = capacities
            .iter()
            .enumerate()
            .map(|(ci, c)| Series {
                label: format!("c{c}-b20"),
                values: paper[panel_idx].1[ci].to_vec(),
            })
            .collect();
        let mut measured_rows = Vec::new();
        for &capacity in &capacities {
            let mut series = Series {
                label: format!("c{capacity}-b20"),
                values: Vec::new(),
            };
            for (workload, base) in workloads.iter().zip(&bases) {
                let cache = GraphCache::builder()
                    .capacity(capacity)
                    .window(20)
                    .build(MethodBuilder::ggsx().build(dataset));
                let gc = summarize(&gc_records(&cache, workload));
                series.values.push(gc.time_speedup_vs(base));
            }
            eprintln!("[fig8] {panel} c{capacity} done");
            measured_rows.push(series);
        }
        print_series(
            &format!("Fig 8 — GC query-time speedup vs GGSX, {panel}"),
            &columns,
            &paper_rows,
            &measured_rows,
        );
    }
    println!("\nShape check: within every panel/column, speedup should be\nnon-decreasing in cache size.");
}

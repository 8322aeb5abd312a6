//! Figures 5 and 6: GraphCache speedups on PDBS across all four FTV
//! methods (CT-Index, GGSX, Grapes1, Grapes6) and all six workloads,
//! in query time (Fig. 5) and in number of sub-iso tests (Fig. 6).
//!
//! The paper prints every bar value; both reference series are embedded
//! below. Headline takeaways to reproduce: GC improves both metrics for
//! every method, and test-count reductions do *not* translate 1:1 into
//! time reductions.
//!
//! Run with: `cargo run --release -p gc-bench --bin fig5_fig6`

use gc_bench::runner::*;
use gc_core::GraphCache;
use gc_methods::{MethodKind, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(600);
    let specs = WorkloadSpec::paper_six();
    let columns: Vec<String> = specs.iter().map(|s| s.name()).collect();

    // Figure 5 — query-time speedups on PDBS (paper's printed values).
    let paper_time = [
        Series {
            label: "CT-Index".into(),
            values: vec![3.43, 1.60, 1.29, 2.54, 2.20, 1.43],
        },
        Series {
            label: "GGSX".into(),
            values: vec![5.72, 1.86, 1.53, 3.88, 2.83, 2.17],
        },
        Series {
            label: "Grapes1".into(),
            values: vec![42.37, 14.72, 10.92, 14.92, 16.44, 11.69],
        },
        Series {
            label: "Grapes6".into(),
            values: vec![22.09, 11.24, 8.29, 11.10, 10.39, 7.93],
        },
    ];
    // Figure 6 — sub-iso-test speedups on PDBS (paper's printed values).
    let paper_tests = [
        Series {
            label: "CT-Index".into(),
            values: vec![9.60, 4.46, 3.52, 8.77, 9.17, 7.80],
        },
        Series {
            label: "GGSX".into(),
            values: vec![9.11, 4.05, 3.25, 7.88, 6.09, 4.19],
        },
        Series {
            label: "Grapes1".into(),
            values: vec![10.56, 4.86, 3.75, 8.88, 9.33, 7.31],
        },
        Series {
            label: "Grapes6".into(),
            values: vec![10.56, 4.86, 3.75, 8.88, 9.33, 7.31],
        },
    ];

    let dataset = datasets::pdbs_like(exp.scale, exp.seed);
    eprintln!("[fig5/6] PDBS: {}", dataset.stats());
    let sizes = vec![4usize, 8, 12, 16, 20];
    // Workloads are shared across all four methods (generation — in
    // particular the Type B no-answer pools — is expensive on PDBS).
    let workloads: Vec<_> = specs
        .iter()
        .map(|s| s.generate(&dataset, &sizes, exp.queries, exp.seed))
        .collect();
    eprintln!("[fig5/6] workloads generated");

    let mut measured_time: Vec<Series> = Vec::new();
    let mut measured_tests: Vec<Series> = Vec::new();
    for kind in MethodKind::FTV {
        let baseline_method = kind.build(&dataset);
        eprintln!("[fig5/6] {} index built", kind.name());
        let mut t = Series {
            label: kind.name().into(),
            values: Vec::new(),
        };
        let mut n = Series {
            label: kind.name().into(),
            values: Vec::new(),
        };
        for (spec, workload) in specs.iter().zip(&workloads) {
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
            t.values.push(gc.time_speedup_vs(&base));
            n.values.push(gc.subiso_speedup_vs(&base));
            eprintln!("[fig5/6] {}/{} done", kind.name(), spec.name());
        }
        measured_time.push(t);
        measured_tests.push(n);
    }

    print_series(
        "Fig 5 — GC query-time speedup, PDBS (C=100, W=20, HD)",
        &columns,
        &paper_time,
        &measured_time,
    );
    print_series(
        "Fig 6 — GC sub-iso-test speedup, PDBS (C=100, W=20, HD)",
        &columns,
        &paper_tests,
        &measured_tests,
    );
    println!(
        "\nShape checks: every measured speedup should be > 1; ZZ should be\n\
         the best Type-A column; test-count speedups generally exceed the\n\
         corresponding time speedups for the cheap-filter methods."
    );
}

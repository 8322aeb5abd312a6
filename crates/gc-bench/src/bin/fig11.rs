//! Figure 11: GraphCache query-time speedups over the SI methods VF2+ and
//! GraphQL (GQL), on AIDS and PDBS, Type A workloads — "GC provides a new
//! way to expedite sub-iso tests … usable with any mainstream SI method".
//!
//! Also reproduces the paper's ZU-vs-UU insight: ZU has more exact-match
//! hits, UU compensates with more sub/supergraph hits.
//!
//! Run with: `cargo run --release -p gc-bench --bin fig11`

use gc_bench::runner::*;
use gc_core::GraphCache;
use gc_methods::{MethodKind, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(400);
    let specs = [
        WorkloadSpec::Zz(1.4),
        WorkloadSpec::Zu(1.4),
        WorkloadSpec::Uu,
    ];
    let columns: Vec<String> = ["AIDS", "PDBS"]
        .iter()
        .flat_map(|d| specs.iter().map(move |s| format!("{d}/{}", s.name())))
        .collect();

    // Paper's printed values: AIDS (ZZ, ZU, UU) then PDBS (ZZ, ZU, UU).
    let paper = [
        Series {
            label: "VF2+".into(),
            values: vec![8.85, 6.49, 7.18, 3.56, 2.02, 1.99],
        },
        Series {
            label: "GQL".into(),
            values: vec![6.11, 4.80, 4.15, 9.49, 4.35, 3.31],
        },
    ];

    let aids = datasets::aids_like(exp.scale, exp.seed);
    let pdbs = datasets::pdbs_like(exp.scale, exp.seed);
    eprintln!("[fig11] AIDS: {}", aids.stats());
    eprintln!("[fig11] PDBS: {}", pdbs.stats());
    let sizes = vec![4usize, 8, 12, 16, 20];

    let mut measured = vec![
        Series {
            label: "VF2+".into(),
            values: Vec::new(),
        },
        Series {
            label: "GQL".into(),
            values: Vec::new(),
        },
    ];
    let mut hit_mix: Vec<String> = Vec::new();
    for dataset in [&aids, &pdbs] {
        let workloads: Vec<_> = specs
            .iter()
            .map(|s| s.generate(dataset, &sizes, exp.queries, exp.seed))
            .collect();
        for (ki, kind) in [MethodKind::SiVf2Plus, MethodKind::SiGraphQl]
            .into_iter()
            .enumerate()
        {
            let baseline_method = kind.build(dataset);
            for (spec, workload) in specs.iter().zip(&workloads) {
                let base = summarize(&baseline_records(
                    &baseline_method,
                    workload,
                    QueryKind::Subgraph,
                ));
                let cache = GraphCache::builder()
                    .capacity(100)
                    .window(20)
                    .build(kind.build(dataset));
                let records = gc_records(&cache, workload);
                let gc = summarize(&records);
                measured[ki].values.push(gc.time_speedup_vs(&base));
                if ki == 0 {
                    let exact: usize = records.iter().filter(|r| r.exact_hit).count();
                    let relational: usize = records
                        .iter()
                        .filter(|r| !r.exact_hit && (r.sub_hits > 0 || r.super_hits > 0))
                        .count();
                    hit_mix.push(format!(
                        "{}: exact {} / sub-super {}",
                        spec.name(),
                        exact,
                        relational
                    ));
                }
                eprintln!("[fig11] {}/{} done", kind.name(), spec.name());
            }
        }
    }
    print_series(
        "Fig 11 — GC query-time speedup over SI methods (C=100, W=20)",
        &columns,
        &paper,
        &measured,
    );
    println!("\nhit mix under VF2+ (paper: ZU ≈ 2.5× the exact hits of UU; UU ≈ 2× the sub/super hits of ZU):");
    for line in hit_mix {
        println!("  {line}");
    }
}

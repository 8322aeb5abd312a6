//! Figure 12: GraphCache over plain VF2+ pitched against full CT-Index —
//! "GC can replace the best-performing FTV methods, achieving comparable
//! or better performance for a fraction of the space and no pre-processing
//! cost".
//!
//! Speedup here is CT-Index's avg query time over GC/VF2+'s (>1 means the
//! cache beats the index). Space figures are printed alongside.
//!
//! Run with: `cargo run --release -p gc-bench --bin fig12`

use gc_bench::runner::*;
use gc_core::GraphCache;
use gc_methods::{MethodBuilder, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(500);
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
            label: "c100-b20".into(),
            values: vec![0.74, 0.55, 1.02, 1.82, 1.02, 0.86],
        },
        Series {
            label: "c500-b20".into(),
            values: vec![1.82, 1.80, 1.85, 3.58, 1.69, 1.35],
        },
    ];

    let aids = datasets::aids_like(exp.scale, exp.seed);
    let pdbs = datasets::pdbs_like(exp.scale, exp.seed);
    eprintln!("[fig12] AIDS: {}", aids.stats());
    eprintln!("[fig12] PDBS: {}", pdbs.stats());
    let sizes = vec![4usize, 8, 12, 16, 20];

    let mut measured = vec![
        Series {
            label: "c100-b20".into(),
            values: Vec::new(),
        },
        Series {
            label: "c500-b20".into(),
            values: Vec::new(),
        },
    ];
    for (dname, dataset) in [("AIDS", &aids), ("PDBS", &pdbs)] {
        let ct = MethodBuilder::ct_index().build(dataset);
        let ct_index_bytes = ct.index_memory_bytes().unwrap_or(0);
        for spec in &specs {
            let workload = spec.generate(dataset, &sizes, exp.queries, exp.seed);
            let ct_summary = summarize(&baseline_records(&ct, &workload, QueryKind::Subgraph));
            for (ci, capacity) in [(0usize, 100usize), (1, 500)] {
                let cache = GraphCache::builder()
                    .capacity(capacity)
                    .window(20)
                    .build(MethodBuilder::si_vf2_plus().build(dataset));
                let gc = summarize(&gc_records(&cache, &workload));
                // Speedup of GC/VF2+ relative to CT-Index.
                measured[ci].values.push(gc.time_speedup_vs(&ct_summary));
                if ci == 1 && spec.name() == "ZZ" {
                    println!(
                        "[space {dname}] GC stores {:.0} KiB vs CT-Index {:.0} KiB ({:.1}%)",
                        cache.memory_bytes() as f64 / 1024.0,
                        ct_index_bytes as f64 / 1024.0,
                        cache.memory_bytes() as f64 / ct_index_bytes.max(1) as f64 * 100.0
                    );
                }
            }
            eprintln!("[fig12] {dname}/{} done", spec.name());
        }
    }
    print_series(
        "Fig 12 — GC/VF2+ vs CT-Index (query-time ratio; >1 = GC wins)",
        &columns,
        &paper,
        &measured,
    );
    println!(
        "\nShape checks: c500 beats c100 in every column; c500 matches or\n\
         beats CT-Index across the board (paper: avg 1.8×); GC space is a\n\
         fraction of the CT-Index index."
    );
}

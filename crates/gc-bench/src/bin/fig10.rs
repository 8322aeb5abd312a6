//! Figure 10: average per-query execution time and cache-maintenance
//! overhead (milliseconds) for the 20% Type B workload on AIDS, across
//! CT-Index / GGSX / Grapes6 and cache sizes c100/c300/c500.
//!
//! Paper claims to reproduce: (1) GC's query time is far below Method M's;
//! (2) the maintenance overhead is trivial relative to query time; (3) the
//! overhead grows with cache size.
//!
//! Run with: `cargo run --release -p gc-bench --bin fig10`

use gc_bench::runner::*;
use gc_core::GraphCache;
use gc_methods::{MethodKind, QueryKind};
use gc_workload::datasets;

fn main() {
    let exp = Experiment::from_args(600);
    let capacities = [100usize, 300, 500];

    // Paper's printed bars (ms/query): per method, Method M alone then GC
    // at c100/c300/c500; below them the overhead bars per cache size.
    let paper_query_ms = [
        ("CT-Index", [1285.0, 132.0, 68.0, 60.0]),
        ("GGSX", [697.0, 130.0, 93.0, 89.0]),
        ("Grapes6", [664.0, 338.0, 335.0, 320.0]),
    ];
    let paper_overhead_ms = [
        ("CT-Index", [6.0, 21.0, 34.0]),
        ("GGSX", [7.0, 18.0, 31.0]),
        ("Grapes6", [7.0, 20.0, 31.0]),
    ];

    let dataset = datasets::aids_like(exp.scale, exp.seed);
    eprintln!("[fig10] AIDS: {}", dataset.stats());
    let sizes = vec![4usize, 8, 12, 16, 20];
    let spec = WorkloadSpec::TypeB {
        no_answer: 0.2,
        alpha: 1.4,
    };
    let workload = spec.generate(&dataset, &sizes, exp.queries, exp.seed);

    println!("\n=== Fig 10 — avg query time + maintenance overhead, AIDS 20% workload ===");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "method", "M alone", "GC c100", "GC c300", "GC c500", "ovh c100", "ovh c300", "ovh c500"
    );
    for (mi, kind) in [MethodKind::CtIndex, MethodKind::Ggsx, MethodKind::Grapes6]
        .into_iter()
        .enumerate()
    {
        let baseline_method = kind.build(&dataset);
        let base = summarize(&baseline_records(
            &baseline_method,
            &workload,
            QueryKind::Subgraph,
        ));
        let mut row_q = vec![base.avg_query_time_us / 1e3];
        let mut row_o = Vec::new();
        for &capacity in &capacities {
            let cache = GraphCache::builder()
                .capacity(capacity)
                .window(20)
                .build(kind.build(&dataset));
            let records = gc_records(&cache, &workload);
            let gc = summarize(&records);
            // Overhead = total maintenance / number of maintenance-eligible
            // queries (the paper reports it per query).
            let overhead_ms = cache.maintenance_total().as_secs_f64() * 1e3 / records.len() as f64;
            row_q.push(gc.avg_query_time_us / 1e3);
            row_o.push(overhead_ms);
            eprintln!("[fig10] {} c{capacity} done", kind.name());
        }
        println!(
            "{:<10} {:>9.2} ms {:>9.2} ms {:>9.2} ms {:>9.2} ms | {:>7.3} ms {:>7.3} ms {:>7.3} ms",
            kind.name(),
            row_q[0],
            row_q[1],
            row_q[2],
            row_q[3],
            row_o[0],
            row_o[1],
            row_o[2]
        );
        println!(
            "{:<10} {:>9.0} ms {:>9.0} ms {:>9.0} ms {:>9.0} ms | {:>7.0} ms {:>7.0} ms {:>7.0} ms   (paper)",
            "",
            paper_query_ms[mi].1[0],
            paper_query_ms[mi].1[1],
            paper_query_ms[mi].1[2],
            paper_query_ms[mi].1[3],
            paper_overhead_ms[mi].1[0],
            paper_overhead_ms[mi].1[1],
            paper_overhead_ms[mi].1[2]
        );
    }
    println!(
        "\nShape checks: GC query time < Method M alone; overhead ≪ query\n\
         time; overhead grows with cache size."
    );
}

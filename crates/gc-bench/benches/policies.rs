//! Microbenchmarks of replacement-policy victim selection at various cache
//! sizes (the Window Manager invokes this once per full window).
//!
//! Every name in [`gc_core::registry::EVICTION_NAMES`] is benchmarked,
//! the post-paper policies included.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gc_core::policy::{PolicyRow, PolicyView};
use gc_core::registry;

fn rows(n: usize) -> Vec<PolicyRow> {
    (0..n as u64)
        .map(|i| PolicyRow {
            serial: i + 1,
            last_hit: i + 1 + (i * 7) % 90,
            hits: (i * 13) % 40,
            r_total: (i * 31) % 500,
            c_total: ((i * 17) % 1000) as f64,
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_select");
    for n in [100usize, 500, 5000] {
        let table = rows(n);
        for &name in registry::EVICTION_NAMES {
            group.bench_with_input(BenchmarkId::new(name, n), &table, |b, table| {
                // Stateful policies mutate in select_victims (credits are
                // consumed, inflation moves), so each sample gets a freshly
                // built and warmed policy via the untimed setup closure —
                // every iteration then measures the same steady state, not
                // a drifting (eventually empty) bookkeeping map.
                b.iter_batched(
                    || {
                        let mut policy =
                            registry::build_eviction(name).expect("policy name builds");
                        for row in table {
                            policy.on_admit(row.serial, row.c_total);
                        }
                        policy
                    },
                    |mut policy| {
                        policy
                            .select_victims(&PolicyView::new(table, n as u64 + 100), 20)
                            .len()
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);

//! Full-rebuild vs incremental snapshot maintenance across cache sizes and
//! churn rates.
//!
//! Models one maintenance round at steady state: a cache of `size` entries
//! takes a window whose delta evicts and admits `size × churn` entries.
//!
//! * `full` — the pre-sharding path: clone the surviving entries and
//!   rebuild every shard index from stored profiles (O(|cache|) per
//!   round, however small the delta).
//! * `incremental` — the live path: tombstone the victims and append the
//!   admissions in the touched shards, compacting only past the debt
//!   threshold (O(delta + touched shards); in place when no reader holds
//!   a shard).
//! * `incremental-cow` — the same patch when a concurrent reader pins
//!   every shard, forcing copy-on-write of each touched shard (the
//!   contended upper bound).
//! * `query-path` — the same round reached the way a client reaches it:
//!   the last `GraphCache::run` of a window, whose `push_window` runs
//!   `window::maintain` inline. The sample is that one query plus its
//!   whole round — victim selection over every cached row (O(|cache|),
//!   0.4–0.7 µs per entry), the index delta, statistics upkeep — so it
//!   sits above `incremental` by the selection cost. What it must not do
//!   is pay `incremental-cow` on top: the cases above patch shards by hand
//!   and cannot see a snapshot view the query path itself still holds when
//!   the round starts (`MaintStats::index_delta` of the sampled round
//!   equals the `incremental` time).
//!
//! Incremental round time should track the churn rate, not the cache
//! size: at 10k entries / 1% churn the incremental round is expected to
//! be well over 5x faster than the full rebuild.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gc_core::{shard_for, CacheEntry, CacheSnapshot, GraphCache, Shard, QUERY_INDEX_SHAPE};
use gc_graph::{GraphDataset, GraphId, LabeledGraph};
use gc_index::paths::enumerate_paths;
use gc_methods::{MethodBuilder, QueryKind};
use std::sync::Arc;

const SHARDS: usize = 16;
const COMPACT_DEBT: f64 = 0.5;

/// A small deterministic labelled path graph (3–6 nodes, 8 labels) — the
/// shape of typical cached queries.
fn seeded_graph(seed: u64) -> LabeledGraph {
    let len = 3 + (seed % 4) as usize;
    let labels: Vec<u32> = (0..len).map(|i| ((seed >> (3 * i)) & 7) as u32).collect();
    let edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    LabeledGraph::from_parts(labels, &edges)
}

fn entry_for(serial: u64) -> Arc<CacheEntry> {
    let graph = seeded_graph(serial.wrapping_mul(0x9E37_79B9));
    let shape = QUERY_INDEX_SHAPE;
    let profile = enumerate_paths(&graph, shape.max_len, shape.work_cap);
    Arc::new(CacheEntry::new(
        serial,
        Arc::new(graph),
        vec![GraphId((serial % 64) as u32)],
        QueryKind::Subgraph,
        profile,
    ))
}

/// Applies one round's delta to the shards, exactly as `window::maintain`
/// does: tombstone victims, append admissions, compact past the threshold.
fn apply_delta(shards: &mut [Arc<Shard>], victims: &[u64], admits: &[Arc<CacheEntry>]) {
    let n = shards.len();
    for &v in victims {
        Arc::make_mut(&mut shards[shard_for(v, n)]).remove(v);
    }
    for e in admits {
        Arc::make_mut(&mut shards[shard_for(e.serial, n)]).insert(e.clone());
    }
    for shard in shards.iter_mut() {
        if shard.tombstone_debt() > COMPACT_DEBT {
            Arc::make_mut(shard).compact();
        }
    }
}

/// A cache at steady state — `size` entries, full — one query short of the
/// round whose window evicts and admits `delta` entries. Hit verification
/// gets no work budget, so filling the cache costs index probes only and
/// the timed query is dominated by its round.
fn cache_before_round(size: u64, delta: u64) -> GraphCache {
    let dataset = GraphDataset::new((0..8).map(seeded_graph).collect());
    let cache = GraphCache::builder()
        .capacity(size as usize)
        .window(delta as usize)
        .shards(SHARDS)
        .verify_budget(0)
        .build(MethodBuilder::ggsx().build(&dataset));
    for serial in 1..size + delta {
        cache.run(&seeded_graph(serial.wrapping_mul(0x9E37_79B9)));
    }
    assert_eq!(cache.window_len() as u64, delta - 1);
    cache
}

fn bench_maintenance(c: &mut Criterion) {
    let shape = QUERY_INDEX_SHAPE;
    let mut group = c.benchmark_group("maintenance");
    group.sample_size(10);

    for &size in &[1_000u64, 10_000] {
        for &churn in &[0.01f64, 0.10] {
            let delta = ((size as f64 * churn) as u64).max(1);
            let label = format!("{size}x{}%", (churn * 100.0) as u64);

            let base: Vec<Arc<CacheEntry>> = (1..=size).map(entry_for).collect();
            let victims: Vec<u64> = (1..=delta).collect();
            let admits: Vec<Arc<CacheEntry>> = (size + 1..=size + delta).map(entry_for).collect();
            // The surviving entry set the full rebuild starts from.
            let survivors: Vec<Arc<CacheEntry>> = base[delta as usize..].to_vec();
            let base_snapshot = CacheSnapshot::build_sharded(shape, SHARDS, base.clone());

            // Old path: clone survivors + admissions, rebuild all indexes.
            group.bench_with_input(BenchmarkId::new("full", &label), &(), |b, _| {
                b.iter(|| {
                    let mut entries = survivors.clone();
                    entries.extend(admits.iter().cloned());
                    CacheSnapshot::build_sharded(shape, SHARDS, entries)
                })
            });

            // Live path, uncontended: unique shard Arcs, patched in place.
            group.bench_with_input(BenchmarkId::new("incremental", &label), &(), |b, _| {
                b.iter_batched(
                    || {
                        base_snapshot
                            .shards()
                            .iter()
                            .map(|s| Arc::new(s.as_ref().clone()))
                            .collect::<Vec<Arc<Shard>>>()
                    },
                    |mut shards| {
                        apply_delta(&mut shards, &victims, &admits);
                        shards
                    },
                    BatchSize::LargeInput,
                )
            });

            // Live path under reader contention: every touched shard is
            // copied-on-write before the patch lands.
            group.bench_with_input(BenchmarkId::new("incremental-cow", &label), &(), |b, _| {
                b.iter_batched(
                    || base_snapshot.shards().to_vec(),
                    |mut shards| {
                        apply_delta(&mut shards, &victims, &admits);
                        shards
                    },
                    BatchSize::LargeInput,
                )
            });

            // The same round, triggered by the query that fills the window.
            let closing = seeded_graph((size + delta).wrapping_mul(0x9E37_79B9));
            group.bench_with_input(BenchmarkId::new("query-path", &label), &(), |b, _| {
                b.iter_batched(
                    || cache_before_round(size, delta),
                    |cache| {
                        cache.run(&closing);
                        cache
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_maintenance);
criterion_main!(benches);

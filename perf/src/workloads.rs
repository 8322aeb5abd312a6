//! The five workloads: what is replayed, through which path, and why.
//!
//! Every workload is one closed loop with one client: the next query is
//! sent only after the previous answer arrived. All share the AIDS-shaped
//! bench dataset (2 500 graphs), GGSX as Method M, 4 shards, one batch
//! thread, `hd` eviction, admit-all admission and inline maintenance, so
//! the deterministic counters are a pure function of the seed.

use gc_harness::{Scenario, WorkloadSpec};

/// How the stream reaches the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `GraphCache::execute` on the calling thread.
    InProcess,
    /// One `Client` session to one in-process `Server` over a unix socket.
    Served,
    /// One `Client` session to a `Router` fronting this many lockstep peers.
    Routed(usize),
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct WorkloadDef {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line rationale (mirrored in `BENCHMARK.json` and the README).
    pub why: &'static str,
    /// Execution path.
    pub path: Path,
    /// Type A selection skew of the stream.
    pub spec: WorkloadSpec,
    /// Queries per pass: this long a prefix of the population.
    pub queries: usize,
    /// Cache capacity in entries.
    pub capacity: usize,
    /// Window size: queries per maintenance round.
    pub window: usize,
}

/// Queries at the head of every pass that are replayed and checked but
/// excluded from latency metrics: the cache is empty and the first rounds
/// have not run, which no steady-state user sees.
pub const WARMUP: usize = 300;

/// The dataset is the database the cache sits in front of and the query
/// population, in its drawn order, is the trace being replayed: both are
/// constants of the benchmark. `--seed` draws how requests interleave
/// locally (see [`arrival_order`]), the way concurrent users' requests
/// reach a server in a slightly different order on every run.
pub const POPULATION_SEED: u64 = 42;

/// Queries in the population; every workload replays a prefix of it,
/// in the seed's arrival order.
pub const POPULATION: usize = 2000;

/// The seed jitters the arrival order inside consecutive blocks of this
/// many queries. Wider than a maintenance window (20), so the jitter
/// changes what each round admits; far narrower than the stream, so the
/// cache's trajectory — and with it every exact count — moves by a
/// percent or two between seeds, not by the 10–20 % a full shuffle or a
/// fresh draw per seed costs.
pub const JITTER_BLOCK: usize = 50;

/// Deterministic arrival order: Fisher–Yates shuffles, driven by
/// splitmix64 from `seed`, inside each consecutive block of
/// [`JITTER_BLOCK`] queries. The warm-up is a whole number of blocks, so
/// which queries the latency metrics cover does not depend on the seed.
pub fn arrival_order<T>(items: &mut [T], seed: u64) {
    for (b, block) in items.chunks_mut(JITTER_BLOCK).enumerate() {
        shuffle(block, seed ^ (b as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    }
}

fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        // The modulo bias is below 2^-50 for any stream that fits in memory.
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// All workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<WorkloadDef> {
    let hot = WorkloadDef {
        name: "hot-zipf",
        why: "ZZ(1.4) stream that fits the cache: exact repeats and sub/super hits, so the fingerprint fast path, GC probe and admission-only maintenance do the work",
        path: Path::InProcess,
        spec: WorkloadSpec::Zz(1.4),
        queries: POPULATION,
        capacity: 4096,
        window: 20,
    };
    vec![
        hot.clone(),
        WorkloadDef {
            name: "cold-uniform",
            why: "UU stream far larger than a 100-entry cache, the paper's caching worst case: Method M filter+verify dominate and GC is pure overhead, so hit-path changes must show no change here",
            path: Path::InProcess,
            spec: WorkloadSpec::Uu,
            queries: POPULATION,
            capacity: 100,
            window: 20,
        },
        WorkloadDef {
            name: "churn-window",
            why: "ZU(1.4) stream through a 500-entry cache with window 5: every query admitted, thousands of evictions and compactions, so maintenance rounds set the tail",
            path: Path::InProcess,
            spec: WorkloadSpec::Zu(1.4),
            queries: POPULATION,
            capacity: 500,
            window: 5,
        },
        WorkloadDef {
            name: "served-zipf",
            why: "the hot-zipf stream through one Server on a unix socket and one Client session: same cache work, so the difference is proto + server + socket",
            path: Path::Served,
            ..hot.clone()
        },
        WorkloadDef {
            name: "routed-2",
            why: "the first 1400 hot-zipf queries through Router + 2 lockstep peers: what full replication costs per query over one daemon",
            path: Path::Routed(2),
            queries: 1400,
            ..hot
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<WorkloadDef> {
    all().into_iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// The harness scenario behind this workload. Going through
    /// [`Scenario`] means caches are built by `gc_harness::build_cache`,
    /// which pins the work-based cost model: with one client, query `i`
    /// then does bit-identical work in every pass.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::named(self.name);
        s.dataset_scale = 1.0;
        s.dataset_seed = POPULATION_SEED;
        s.workload = self.spec;
        s.workload_seed = POPULATION_SEED;
        s.queries = POPULATION;
        s.capacity = self.capacity;
        s.window = self.window;
        s.shards = 4;
        s.threads = 1;
        s.warmup = WARMUP;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..500).collect();
        let order = |seed| {
            let mut v = base.clone();
            arrival_order(&mut v, seed);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        assert_ne!(order(7), base);
        // Every block keeps its members, so the warm-up (a whole number
        // of blocks) and the measured rest do too.
        assert_eq!(WARMUP % JITTER_BLOCK, 0);
        for (shuffled, original) in order(7).chunks(JITTER_BLOCK).zip(base.chunks(JITTER_BLOCK)) {
            let mut sorted = shuffled.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, original);
        }
    }

    #[test]
    fn workloads_replay_prefixes_of_the_population() {
        let all = all();
        assert_eq!(all.len(), 5);
        for w in &all {
            assert!(
                w.queries <= POPULATION && w.queries > WARMUP + 1000,
                "{}",
                w.name
            );
            assert_eq!(w.scenario().queries, POPULATION);
        }
        // The wire workloads replay the hot-zipf population.
        let spec = |name| by_name(name).unwrap().spec;
        assert_eq!(spec("served-zipf"), spec("hot-zipf"));
        assert_eq!(spec("routed-2"), spec("hot-zipf"));
    }
}

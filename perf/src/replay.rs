//! One pass: stand the system up, replay the stream through it, settle,
//! snapshot, tear down — timing each step from outside.

use crate::stats::{self, FAILED};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Path as ExecPath, WorkloadDef};
use gc_core::{GraphCache, MaintStats, PersistFormat, QueryRecord, QueryRequest};
use gc_graph::{GraphDataset, LabeledGraph};
use gc_harness::{build_cache, Scenario};
use gc_methods::{Method, QueryKind};
use gc_server::{
    Client, PeerIdentity, QueryFrame, QueryOutcome, RetryPolicy, Router, RouterConfig, ServeConfig,
    Server, StatsScope,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A private directory for sockets and snapshot dirs, inside the
/// benchmark's own `out/` so a run touches nothing outside its checkout.
/// Removed on drop — success, failure and panic alike.
pub struct Scratch {
    dir: PathBuf,
}

/// `perf/out`, relative when launched from the checkout root: a unix
/// socket path is capped near 108 bytes and a checkout may sit deep.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("perf/Cargo.toml").exists() {
        PathBuf::from("perf/out")
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    }
}

impl Scratch {
    /// Creates `out/tmp-<pid>`.
    pub fn new() -> Result<Scratch, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Uncached Method M answers and timings for every stream position,
/// computed once before the passes. Repeated queries share one execution.
pub struct Oracle {
    /// Expected answer (dataset graph ids) per stream position.
    pub answers: Vec<Arc<[u32]>>,
    /// Uncached `filter_directed` time of the position's query.
    pub filter_ns: Vec<u64>,
    /// Uncached `verify_directed` time of the position's query.
    pub verify_ns: Vec<u64>,
    /// Distinct query graphs in the stream.
    pub distinct: usize,
}

/// Everything derived from `--seed` before the first pass.
pub struct Inputs {
    /// The workload being run.
    pub def: WorkloadDef,
    /// Its harness scenario (dataset, stream and cache configuration).
    pub scenario: Scenario,
    /// The query stream, shared so in-process requests never copy a graph.
    pub stream: Vec<Arc<LabeledGraph>>,
    /// The correctness reference.
    pub oracle: Oracle,
    /// An empty cache over the same dataset. Its Method M is the oracle's,
    /// and every snapshot cycle restores into it: `restore` replaces a
    /// cache's state wholesale, so one target serves every pass.
    pub restore_target: GraphCache,
}

fn generate_dataset(scenario: &Scenario) -> GraphDataset {
    scenario
        .dataset
        .clone()
        .scaled(scenario.dataset_scale)
        .generate(scenario.dataset_seed)
}

/// Puts the query population in `seed`'s arrival order and runs the
/// uncached oracle over the workload's prefix of it.
///
/// With a tracer, each distinct query's uncached filter and verify stages
/// are recorded as spans.
pub fn prepare(
    def: &WorkloadDef,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> Result<Inputs, String> {
    let scenario = def.scenario();
    let dataset = generate_dataset(&scenario);
    let population = scenario.workload.generate(
        &dataset,
        &scenario.query_sizes,
        scenario.queries,
        scenario.workload_seed,
    );
    let mut stream: Vec<Arc<LabeledGraph>> = population
        .queries
        .into_iter()
        .map(|q| Arc::new(q.graph))
        .collect();
    stream.truncate(def.queries);
    workloads::arrival_order(&mut stream, seed);
    let restore_target = build_cache(&scenario, &dataset)?;
    let oracle = run_oracle(restore_target.method(), &stream, tracer);
    Ok(Inputs {
        def: def.clone(),
        scenario,
        stream,
        oracle,
        restore_target,
    })
}

fn run_oracle(
    method: &Method,
    stream: &[Arc<LabeledGraph>],
    mut tracer: Option<&mut Tracer>,
) -> Oracle {
    let mut seen: HashMap<&LabeledGraph, usize> = HashMap::new();
    let mut distinct: Vec<(Arc<[u32]>, u64, u64)> = Vec::new();
    let mut oracle = Oracle {
        answers: Vec::with_capacity(stream.len()),
        filter_ns: Vec::with_capacity(stream.len()),
        verify_ns: Vec::with_capacity(stream.len()),
        distinct: 0,
    };
    for (i, graph) in stream.iter().enumerate() {
        let slot = *seen.entry(graph.as_ref()).or_insert_with(|| {
            let start = tracer.as_ref().map(|t| t.now());
            let run = method.run_directed(graph, QueryKind::Subgraph);
            let filter = run.filter.duration.as_nanos() as u64;
            let verify = run.verify.duration.as_nanos() as u64;
            if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start) {
                let end = t.now();
                let id = t.push("methods.run_directed", 0, Some(i), start, end);
                t.push(
                    "methods.filter_directed",
                    id,
                    Some(i),
                    start,
                    start + filter,
                );
                t.push("methods.verify_directed", id, Some(i), end - verify, end);
            }
            distinct.push((run.answer.iter().map(|id| id.0).collect(), filter, verify));
            distinct.len() - 1
        });
        let (answer, filter_ns, verify_ns) = &distinct[slot];
        oracle.answers.push(answer.clone());
        oracle.filter_ns.push(*filter_ns);
        oracle.verify_ns.push(*verify_ns);
    }
    oracle.distinct = distinct.len();
    oracle
}

/// Where `setup_s` went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `DatasetProfile::generate`.
    pub dataset_gen: Duration,
    /// `gc_harness::build_cache` (Method M index build + cache build),
    /// once per daemon.
    pub cache_build: Duration,
    /// `Server::bind`/`Router::bind`, thread spawn and `Client` connect.
    pub bind_connect: Duration,
}

impl SetupTimes {
    /// The set-up time a user waits before the first query can be sent.
    pub fn total(&self) -> Duration {
        self.dataset_gen + self.cache_build + self.bind_connect
    }
}

type Daemon = std::thread::JoinHandle<Result<(), gc_server::ServeError>>;

/// The wire half of a served or routed system.
struct Wire {
    client: Option<Client>,
    peers: Vec<(gc_server::ShutdownHandle, Daemon)>,
    router: Option<(gc_server::RouterShutdownHandle, Daemon)>,
    sockets: Vec<PathBuf>,
}

/// A system standing ready to take the stream.
pub struct Live {
    /// Handles onto every cache in the system; `caches[0]` is the one
    /// that is settled, sized and snapshotted (replicas agree in lockstep).
    caches: Vec<GraphCache>,
    wire: Option<Wire>,
}

/// One answered query as seen by the caller.
pub struct Answered {
    /// The per-query record: deterministic fields always, the four stage
    /// durations only in-process (they do not travel on the wire).
    pub record: QueryRecord,
    /// Whether the answer equals the oracle's.
    pub correct: bool,
}

/// The `QUERY` frame for stream position `id`: cache-wide defaults and
/// the 60 s deadline `gc bench --serve` attaches.
pub fn query_frame(id: usize, graph: &LabeledGraph) -> QueryFrame {
    QueryFrame {
        id: id as u64,
        graph: graph.clone(),
        kind: None,
        verify_budget: None,
        max_hits: None,
        bypass: false,
        timeout_ms: Some(60_000),
        allow: None,
    }
}

impl Live {
    /// Stands the system up for `path` and reports where the time went.
    pub fn stand_up(
        scenario: &Scenario,
        path: ExecPath,
        scratch: &Scratch,
    ) -> Result<(Live, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let dataset = generate_dataset(scenario);
        times.dataset_gen = t.elapsed();

        let daemons = match path {
            ExecPath::InProcess | ExecPath::Served => 1,
            ExecPath::Routed(n) => n,
        };
        let t = Instant::now();
        let caches = (0..daemons)
            .map(|_| build_cache(scenario, &dataset))
            .collect::<Result<Vec<_>, _>>()?;
        times.cache_build = t.elapsed();

        let mut live = Live { caches, wire: None };
        if path != ExecPath::InProcess {
            let t = Instant::now();
            // `live` owns whatever was started even when a later step
            // fails: its drop drains the daemons and unlinks the sockets.
            live.wire = Some(Wire {
                client: None,
                peers: Vec::new(),
                router: None,
                sockets: Vec::new(),
            });
            live.connect(path, scratch)?;
            times.bind_connect = t.elapsed();
        }
        Ok((live, times))
    }

    fn connect(&mut self, path: ExecPath, scratch: &Scratch) -> Result<(), String> {
        let wire = self.wire.as_mut().expect("wire initialised by stand_up");
        let total = self.caches.len();
        for (index, cache) in self.caches.iter().enumerate() {
            let socket = scratch.path(&format!("d{index}.sock"));
            let peer = match path {
                ExecPath::Routed(_) => PeerIdentity::new(index as u64, total as u64),
                _ => None,
            };
            let server = Server::bind(
                cache.clone(),
                ServeConfig {
                    unix: Some(socket.clone()),
                    peer,
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("cannot bind {socket:?}: {e}"))?;
            wire.sockets.push(socket);
            wire.peers.push((
                server.shutdown_handle(),
                std::thread::spawn(move || server.run()),
            ));
        }
        let front = if let ExecPath::Routed(_) = path {
            let socket = scratch.path("router.sock");
            let router = Router::bind(RouterConfig {
                unix: socket.clone(),
                peers: wire.sockets.clone(),
                retry: RetryPolicy::with_attempts(10),
                handle_signals: false,
            })
            .map_err(|e| format!("cannot bind router {socket:?}: {e}"))?;
            wire.sockets.push(socket.clone());
            wire.router = Some((
                router.shutdown_handle(),
                std::thread::spawn(move || router.run()),
            ));
            socket
        } else {
            wire.sockets[0].clone()
        };
        let client = Client::connect_unix_with_retry(&front, &RetryPolicy::with_attempts(10))
            .map_err(|e| format!("cannot connect to {front:?}: {e}"))?;
        wire.client = Some(client);
        Ok(())
    }

    /// The cache whose state is reported (peer 0 of a fleet).
    pub fn cache(&self) -> &GraphCache {
        &self.caches[0]
    }

    /// The client session, on served and routed paths.
    pub fn client(&mut self) -> Option<&mut Client> {
        self.wire.as_mut().and_then(|w| w.client.as_mut())
    }

    /// Socket of daemon `index` (peer sockets come first, the router last).
    pub fn daemon_socket(&self, index: usize) -> Option<&PathBuf> {
        self.wire.as_ref().and_then(|w| w.sockets.get(index))
    }

    /// Sends query `i`, waits for its answer and compares it with
    /// `expected` (a slice comparison, tens of nanoseconds against tens of
    /// microseconds per query). `Err` is a failed operation: transport
    /// error, `BUSY`, `ERR` (deadline included).
    pub fn query(
        &mut self,
        i: usize,
        graph: &Arc<LabeledGraph>,
        expected: &[u32],
    ) -> Result<Answered, String> {
        match self.client() {
            None => {
                let result = self.caches[0]
                    .execute(QueryRequest::new(graph.clone()))
                    .result;
                if result.record.deadline_exceeded {
                    return Err("deadline exceeded".into());
                }
                let correct = result
                    .answer
                    .iter()
                    .map(|id| id.0)
                    .eq(expected.iter().copied());
                Ok(Answered {
                    record: result.record,
                    correct,
                })
            }
            Some(client) => {
                match client
                    .query_with_retry(query_frame(i, graph), &RetryPolicy::default())
                    .map_err(|e| e.to_string())?
                {
                    QueryOutcome::Result(frame) => Ok(Answered {
                        correct: frame.answer == expected,
                        record: frame.record,
                    }),
                    QueryOutcome::Busy { inflight, max } => {
                        Err(format!("BUSY ({inflight}/{max} in flight)"))
                    }
                }
            }
        }
    }

    /// Folds pending maintenance in and reads the settled shape. On the
    /// wire this is `STATS scope=settle`, whose extra keys (serve gauges,
    /// routing counters) are returned as-is.
    pub fn settle(&mut self) -> Result<Settled, String> {
        let stats = match self.client() {
            Some(client) => client
                .stats(StatsScope::Settle)
                .map_err(|e| e.to_string())?,
            None => {
                self.caches[0].flush_pending();
                Vec::new()
            }
        };
        Ok(Settled {
            maint: self.caches[0].maint_stats(),
            cache_entries: self.caches[0].cache_len(),
            memory_bytes: self.caches[0].memory_bytes(),
            stats,
        })
    }

    /// Binary `save_with_format` of the replayed cache, then `restore`
    /// into `target`, a cache built over the same dataset.
    pub fn snapshot_cycle(
        &self,
        target: &GraphCache,
        scratch: &Scratch,
    ) -> Result<Snapshot, String> {
        let dir = scratch.path("snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        self.caches[0]
            .save_with_format(&dir, PersistFormat::Binary)
            .map_err(|e| format!("snapshot save: {e}"))?;
        let save = t.elapsed();
        let bytes = std::fs::metadata(dir.join("snapshot.bin"))
            .map_err(|e| format!("snapshot.bin: {e}"))?
            .len();
        let t = Instant::now();
        let report = target
            .restore(&dir)
            .map_err(|e| format!("snapshot restore: {e}"))?;
        let restore = t.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        if report.entries != self.caches[0].cache_len() {
            return Err(format!(
                "restore brought back {} entries, the cache holds {}",
                report.entries,
                self.caches[0].cache_len()
            ));
        }
        Ok(Snapshot {
            save,
            restore,
            bytes,
            entries: report.entries,
        })
    }

    /// Drains every daemon and joins its thread. Errors on the way down
    /// are reported, because a daemon that cannot stop cleanly is a bug
    /// the benchmark must not hide.
    pub fn tear_down(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(mut wire) = self.wire.take() else {
            return Ok(());
        };
        let mut errors = Vec::new();
        // SHUTDOWN over the session stops the front daemon (the router
        // does not forward it); the handles stop everything else and are
        // harmless on a daemon that is already draining.
        if let Some(mut client) = wire.client.take() {
            let _ = client.shutdown();
        }
        if let Some((handle, _)) = &wire.router {
            handle.shutdown();
        }
        for (handle, _) in &wire.peers {
            handle.shutdown();
        }
        let router = wire.router.take().map(|(_, thread)| thread);
        for thread in router
            .into_iter()
            .chain(wire.peers.drain(..).map(|(_, t)| t))
        {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("daemon failed: {e}")),
                Err(_) => errors.push("daemon thread panicked".to_string()),
            }
        }
        for socket in &wire.sockets {
            let _ = std::fs::remove_file(socket);
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The settled system after a pass.
pub struct Settled {
    /// Cumulative maintenance phases and counts.
    pub maint: MaintStats,
    /// Entries resident in the cache.
    pub cache_entries: usize,
    /// `GraphCache::memory_bytes`.
    pub memory_bytes: usize,
    /// The `STATS` reply (empty in-process).
    pub stats: Vec<(String, u64)>,
}

impl Settled {
    /// A `STATS` counter by name (0 when absent or in-process).
    pub fn stat(&self, key: &str) -> u64 {
        self.stats
            .iter()
            .find(|(name, _)| name == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// One snapshot cycle.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// `save_with_format(Binary)`.
    pub save: Duration,
    /// `restore` into a fresh cache.
    pub restore: Duration,
    /// Size of `snapshot.bin`.
    pub bytes: u64,
    /// Entries restored.
    pub entries: usize,
}

/// Everything one pass measured.
pub struct PassResult {
    /// Where the pass's set-up time went.
    pub setup: SetupTimes,
    /// Wall latency per stream position, [`FAILED`] for a failed op.
    pub lat_ns: Vec<u64>,
    /// Record per stream position (default for a failed op).
    pub records: Vec<QueryRecord>,
    /// Failure messages, `(position, what)`, capped.
    pub failures: Vec<(usize, String)>,
    /// Failed operations.
    pub failed: usize,
    /// Whole-process CPU time of each consecutive [`CPU_CHUNK`] queries
    /// (daemon, router and peer threads included), in nanoseconds.
    pub cpu_chunks_ns: Vec<u64>,
    /// `VmHWM` when the pass ended, in KiB.
    pub peak_rss_kib: u64,
    /// Wall time of the replay loop.
    pub wall: Duration,
    /// Settled state.
    pub settled: Settled,
    /// Snapshot cycle.
    pub snapshot: Snapshot,
    /// The fixed spin kernel timed just before the replay.
    pub canary_ns: u64,
}

/// Queries per CPU-time sample: one maintenance window of the default
/// configuration. Chunks are min-merged across passes the way single
/// queries are for latency; reading the clock costs a system call, so it
/// is not read per query.
pub const CPU_CHUNK: usize = 20;

/// A fixed, allocation-free spin. Its cost depends on nothing but the
/// machine, so its spread across passes is the machine's noise.
pub fn canary() -> u64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..2_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

/// Runs one quiet pass of `inputs` through `path`.
pub fn run_pass(inputs: &Inputs, path: ExecPath, scratch: &Scratch) -> Result<PassResult, String> {
    let (mut live, setup) = Live::stand_up(&inputs.scenario, path, scratch)?;
    let n = inputs.stream.len();
    let mut lat_ns = Vec::with_capacity(n);
    let mut records = Vec::with_capacity(n);
    let mut failures = Vec::new();
    let mut failed = 0usize;

    let mut cpu_chunks_ns = Vec::with_capacity(n / CPU_CHUNK + 1);

    let canary_ns = canary();
    let mut cpu_mark = sys::process_cpu_ns();
    let wall0 = Instant::now();
    for (i, graph) in inputs.stream.iter().enumerate() {
        if i > 0 && i % CPU_CHUNK == 0 {
            let now = sys::process_cpu_ns();
            cpu_chunks_ns.push(now - cpu_mark);
            cpu_mark = now;
        }
        let t = Instant::now();
        let outcome = live.query(i, graph, &inputs.oracle.answers[i]);
        let dt = t.elapsed().as_nanos() as u64;
        let failure = match outcome {
            Ok(answered) if answered.correct => {
                lat_ns.push(dt);
                records.push(answered.record);
                continue;
            }
            Ok(_) => "answer differs from uncached Method M".to_string(),
            Err(e) => e,
        };
        failed += 1;
        if failures.len() < 5 {
            failures.push((i, failure));
        }
        lat_ns.push(FAILED);
        records.push(QueryRecord::default());
    }
    let wall = wall0.elapsed();
    cpu_chunks_ns.push(sys::process_cpu_ns() - cpu_mark);

    let settled = live.settle()?;
    let snapshot = live.snapshot_cycle(&inputs.restore_target, scratch)?;
    live.tear_down()?;
    Ok(PassResult {
        setup,
        lat_ns,
        records,
        failures,
        failed,
        cpu_chunks_ns,
        peak_rss_kib: stats::peak_rss_kib().unwrap_or(0),
        wall,
        settled,
        snapshot,
        canary_ns,
    })
}

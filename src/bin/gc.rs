//! `gc` — command-line front end for GraphCache.
//!
//! Subcommands:
//!
//! * `gc generate --profile aids|pdbs|pcm|synthetic [--scale F] [--seed N] --out FILE`
//!   writes a synthetic dataset in the text format of `gc_graph::io`;
//! * `gc stats FILE` prints dataset shape statistics;
//! * `gc workload --dataset FILE --kind zz|zu|uu|b0|b20|b50 [--count N] [--seed N] --out FILE`
//!   generates a query workload (queries are stored as a dataset file);
//! * `gc query --dataset FILE --queries FILE [--method NAME]
//!   [--eviction NAME] [--admission NAME] [--capacity N] [--window N]
//!   [--threads N] [--shards N] [--verify-budget N]
//!   [--fragments on|off] [--fragment-budget BYTES] [--fragment-eviction NAME]
//!   [--supergraph] [--background] [--no-cache] [--maint-stats]
//!   [--save DIR] [--restore DIR]` replays
//!   the queries and prints per-run statistics;
//! * `gc bench [--suite NAME] [--json FILE] [--check BASELINE]
//!   [--tolerance PCT] [--timings] [--list] [--serve] [--route N]`
//!   runs a scenario suite end-to-end (dataset generation → workload →
//!   cached replay) and reports machine-readable metrics;
//! * `gc serve --dataset FILE (--listen ADDR | --unix PATH) [cache flags]
//!   [--max-sessions N] [--max-inflight N] [--drain-timeout SECS]
//!   [--persist-on-exit DIR] [--restore DIR]` runs the long-lived cache
//!   daemon speaking the line-delimited wire protocol of `gc_server`;
//! * `gc route --unix PATH --peers SOCK,SOCK,... [--retries N]
//!   [--retry-seed S]` runs the fingerprint-routing front-end over a
//!   fleet of `gc serve --peer-id` daemons (see `docs/architecture.md`);
//! * `gc ctl (--unix PATH | --tcp ADDR) [--timeout SECS] [--retries N]
//!   ping|stats|shutdown` sends one control frame to a running daemon;
//! * `gc query --connect unix:PATH|ADDR --queries FILE [--retries N]
//!   [--retry-seed S] [--timeout-ms MS]` replays a query file against a
//!   running daemon instead of an in-process cache.
//!
//! `gc serve` flags:
//!
//! * `--listen ADDR` / `--unix PATH` — TCP and/or unix-socket listener
//!   (at least one is required). The daemon removes a stale socket file
//!   at the unix path before binding, and unlinks it again on exit;
//! * `--max-sessions N` — concurrent session cap (default 64); further
//!   connections are refused with `ERR code=max-sessions`;
//! * `--max-inflight N` — admission-permit pool size (default: the
//!   cache's batch thread count). A `QUERY` that cannot take a permit is
//!   answered `BUSY` and not executed — bounded backpressure, never an
//!   unbounded queue;
//! * `--drain-timeout SECS` — how long graceful drain (SIGTERM, SIGINT,
//!   or a `SHUTDOWN` frame) waits for sessions to finish in-flight work
//!   (default 10);
//! * `--persist-on-exit DIR` — save the cache snapshot to DIR after a
//!   graceful drain (the `gc query --save` / `--restore` format).
//!   Snapshots commit atomically through generation slots plus a
//!   checksummed `MANIFEST`, so a crash mid-write never clobbers the
//!   previous good snapshot. A drain-time save failure is a typed error
//!   (exit 1), never a silent drop;
//! * `--snapshot-every SECS` — also write a background snapshot to the
//!   `--persist-on-exit` directory every SECS seconds while serving,
//!   without blocking queries (requires `--persist-on-exit`);
//! * `--peer-id I/N` — serve as routed peer `I` of an `N`-peer fleet
//!   behind `gc route`: `HELLO` advertises the identity, `PROBE` replies
//!   are filtered to the peer's consistent-hash slice of the fingerprint
//!   space, and query traffic requires a proto-4 `VERSION` announcement;
//! * the cache-construction flags of `gc query` (`--method`,
//!   `--eviction`, `--admission`, `--capacity`, `--window`, `--threads`,
//!   `--shards`, `--verify-budget`, `--fragments`,
//!   `--fragment-budget`, `--fragment-eviction`, `--supergraph`,
//!   `--background`, `--restore`) configure the shared cache; `--window N`
//!   counts cache misses, as for `gc query`.
//!
//! `gc bench` flags:
//!
//! * `--suite NAME` — which scenario matrix to run: any name in
//!   `gc_harness::Suite::ALL`, which the usage line lists (default
//!   `smoke`, the CI suite). The figure suites (`fig4` … `fig12`, `space`;
//!   `paper` runs them all) add two speed-up columns over uncached
//!   Method M — sub-iso tests and verification work — see
//!   `docs/paper-figures.md`. `--list` prints the scenarios of the
//!   selected suite without running them;
//! * `--json FILE` — write the versioned report (deterministic counters
//!   only, so the bytes are identical across runs with the same build;
//!   add `--timings` to include the advisory wall-clock section);
//! * `--check BASELINE` — compare the run's deterministic counters
//!   against a committed baseline (`benches/baseline.json`), failing with
//!   exit code 3 when any counter drifts beyond `--tolerance PCT`
//!   (default 5). Wall-clock is advisory and never gated. Refresh the
//!   baseline with `scripts/refresh-baseline.sh`;
//! * `--serve` — run every scenario through the `gc serve` daemon on a
//!   private unix socket instead of in-process calls. Counters are
//!   byte-identical to the in-process path for the same seeds, so the
//!   same committed baseline gates both (`--serve --check`);
//! * `--route N` — run every scenario through an `N`-peer routed fleet
//!   behind a `gc route` front-end on private unix sockets. The
//!   determinism gate: counters are byte-identical to the in-process
//!   path — and therefore identical for every fleet size — so the same
//!   committed baseline gates `--route 1` and `--route 3` alike.
//!
//! # Exit codes
//!
//! * `0` — success;
//! * `1` — runtime failure (I/O errors, malformed datasets, missing
//!   `--restore` state or one saved by an earlier release or over another
//!   dataset, protocol errors on a live connection);
//! * `2` — usage error (unknown subcommand, option or flag value, missing
//!   required option, unknown profile/workload/method/policy/suite name);
//! * `3` — benchmark regression: `gc bench --check` found deterministic
//!   counters drifting beyond tolerance;
//! * `4` — daemon unreachable: `gc ctl` / `gc query --connect` could not
//!   connect (refused, or the socket file is gone), even after any
//!   `--retries` budget. Distinct from 1 so scripts can tell "daemon
//!   down" apart from "daemon answered but the request failed".
//!
//! `gc query` flags:
//!
//! * `--verify-budget N` — shared hit-verification work pool per query:
//!   candidates are verified cheapest-first and each sub-iso test deducts
//!   its matcher work from the pool; when it runs dry the sweep stops with
//!   a partial (still sound) hit set and the query is reported as
//!   `truncated`. Exact repeats bypass the pool entirely through the
//!   fingerprint fast path;
//! * `--window N` — the Window size W (default 20): a maintenance round
//!   runs once `N` cache misses have accumulated. An exact hit is already
//!   cached — it credits its entry and never enters the Window, so it does
//!   not count toward `N`;
//! * `--threads N` — fan the workload across `N` client threads via
//!   `GraphCache::run_batch` (default `1` = sequential replay, the
//!   paper's single-client setup, where every printed counter is a pure
//!   function of the inputs; ignored with `--no-cache`, which always
//!   replays sequentially);
//! * `--shards N` — partition the cache snapshot into `N` serial-hashed
//!   shards so maintenance rounds patch only the shards their delta
//!   touches (`0`, the default, = one shard per client thread);
//! * `--background` — run the Window Manager on a background maintenance
//!   thread (the paper's deployment design) instead of inline;
//! * `--maint-stats` — print the per-phase maintenance breakdown (victim
//!   selection / index delta / stats upkeep, entries touched, shards
//!   patched, compactions) and the fragment store's counts after the
//!   replay, plus the answer arena's bytes live / bytes reserved, summed
//!   and per shard, and the tombstoned slots the compaction threshold
//!   watches;
//! * `--eviction NAME` — replacement policy by registry name (default
//!   `hd`; `lru|pop|pin|pinc|hd|gcr|slru|greedy-dual|…`, with optional
//!   parameters like `slru:protected=0.5`). Unknown names fail with the
//!   list of available policies;
//! * `--admission NAME` — admission policy by registry name (default
//!   `none`; `none|threshold|adaptive|…`, e.g. the paper's calibrated
//!   threshold `threshold:windows=3,fraction=0.25`). It ranks queries by
//!   their verification work;
//! * `--fragments on|off` — the sub-query fragment cache (default off):
//!   answered subgraph queries are decomposed into canonical path
//!   fragments whose exact occurrence sets pre-prune the candidate space
//!   of later structurally-overlapping queries;
//! * `--fragment-budget BYTES` — byte budget of the fragment store
//!   (default 1 MiB); `--fragment-eviction NAME` — its replacement policy
//!   by registry name (default `lru`; same registry as `--eviction`, so
//!   `slru:protected=0.5` etc. apply). Unknown names fail with the list
//!   of available policies;
//! * `--supergraph` — supergraph (`G ⊆ g`) instead of subgraph semantics;
//! * `--no-cache` — replay through the bare Method M (baseline timing);
//! * `--save DIR` / `--restore DIR` — persist / preload the cache stores
//!   as one checksummed arena snapshot (`snapshot.bin`, committed through
//!   a generation `MANIFEST`; see `docs/architecture.md`, "Persistence").
//!   Text saves of earlier releases (`entries.txt`) are not read:
//!   `--restore` fails on them with exit code 1.
//!
//! Example session:
//! ```text
//! gc generate --profile aids --scale 0.1 --out aids.txt
//! gc workload --dataset aids.txt --kind zz --count 200 --out queries.txt
//! gc query --dataset aids.txt --queries queries.txt --method ggsx --eviction hd
//! gc query --dataset aids.txt --queries queries.txt --eviction slru:protected=0.5 --admission adaptive
//! gc query --dataset aids.txt --queries queries.txt --threads 8 --background
//! ```

use graphcache::core::{
    registry, GraphCache, GraphCacheBuilder, PolicyError, QueryKind, QueryRequest, RunCounters,
};
use graphcache::graph::{io, GraphDataset};
use graphcache::harness::{
    run_scenario_on, Deployment, InProcess, MatrixReport, Suite, SCHEMA_VERSION,
};
use graphcache::methods::{Method, MethodKind};
use graphcache::server::bench::Fleet;
use graphcache::server::{
    Client, ClientError, PeerIdentity, QueryFrame, QueryOutcome, RetryPolicy, Router, RouterConfig,
    ServeConfig, Server, StatsScope,
};
use graphcache::workload::{
    generate_type_a, generate_type_b, DatasetProfile, TypeAConfig, TypeBConfig,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// CLI failures, by exit code. Usage errors (2) mean the invocation never
/// made sense; runtime errors (1) mean a valid invocation failed; drift
/// (3) means `gc bench --check` found a benchmark regression; unavailable
/// (4) means the daemon a `--connect`/`ctl` invocation targeted was not
/// reachable — distinct from 1 so scripts can tell "daemon down, maybe
/// retry" apart from "daemon answered but the request failed".
#[derive(Debug)]
enum CliError {
    /// Bad invocation → exit code 2.
    Usage(String),
    /// Valid invocation hit a failure → exit code 1.
    Runtime(String),
    /// `--check` found counters beyond tolerance → exit code 3.
    Drift(String),
    /// The target daemon was unreachable (connect refused/absent) → exit
    /// code 4.
    Unavailable(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
}

type CliResult = Result<(), CliError>;

fn print_usage() {
    eprintln!("usage: gc <generate|stats|workload|query|bench|serve|route|ctl> [options]");
    eprintln!("  gc generate --profile aids|pdbs|pcm|synthetic [--scale F] [--seed N] --out FILE");
    eprintln!("  gc stats FILE");
    eprintln!(
        "  gc workload --dataset FILE --kind zz|zu|uu|b0|b20|b50 [--count N] [--seed N] --out FILE"
    );
    eprintln!("  gc query --dataset FILE --queries FILE [--method NAME] [--eviction NAME]");
    eprintln!("           [--admission NAME] [--capacity N] [--window N] [--threads N]");
    eprintln!("           [--shards N] [--verify-budget N]");
    eprintln!("           [--fragments on|off] [--fragment-budget BYTES]");
    eprintln!("           [--fragment-eviction NAME] [--supergraph] [--background]");
    eprintln!("           [--no-cache] [--maint-stats] [--save DIR] [--restore DIR]");
    eprintln!("           (--window N: one maintenance round per N cache misses)");
    eprintln!("  gc query --connect unix:PATH|ADDR --queries FILE [--supergraph]");
    eprintln!("           [--verify-budget N] [--retries N] [--retry-seed S] [--timeout-ms MS]");
    let suites: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
    eprintln!("  gc bench [--suite {}]", suites.join("|"));
    eprintln!("           [--json FILE] [--timings] [--list]");
    eprintln!("           [--check BASELINE] [--tolerance PCT] [--serve] [--route N]");
    eprintln!("  gc serve --dataset FILE (--listen ADDR | --unix PATH) [--max-sessions N]");
    eprintln!("           [--max-inflight N] [--drain-timeout SECS] [--persist-on-exit DIR]");
    eprintln!("           [--snapshot-every SECS] [--restore DIR] [--peer-id I/N]");
    eprintln!("           [cache flags as for gc query]");
    eprintln!("  gc route --unix PATH --peers SOCK,SOCK,... [--retries N] [--retry-seed S]");
    eprintln!("  gc ctl (--unix PATH | --tcp ADDR) [--timeout SECS] [--retries N]");
    eprintln!("         ping|stats|shutdown");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err(CliError::usage("no subcommand given")),
        Some((cmd, rest)) => match cmd.as_str() {
            "generate" => cmd_generate(rest),
            "stats" => cmd_stats(rest),
            "workload" => cmd_workload(rest),
            "query" => cmd_query(rest),
            "bench" => cmd_bench(rest),
            "serve" => cmd_serve(rest),
            "route" => cmd_route(rest),
            "ctl" => cmd_ctl(rest),
            other => Err(CliError::usage(format!("unknown subcommand {other:?}"))),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("gc: {msg}");
            print_usage();
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("gc: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Drift(msg)) => {
            eprintln!("gc: {msg}");
            ExitCode::from(3)
        }
        Err(CliError::Unavailable(msg)) => {
            eprintln!("gc: {msg}");
            ExitCode::from(4)
        }
    }
}

/// The options each subcommand reads (value-taking and bare alike), as
/// `[cache-construction options, its own]`. `gc query --connect` is its own
/// row: the cache lives in the daemon, so cache flags would do nothing.
fn known_opts(cmd: &str, connect: bool) -> [&'static str; 2] {
    const CACHE: &str = "method eviction admission capacity window threads shards \
        verify-budget fragments fragment-budget fragment-eviction supergraph background restore";
    match (cmd, connect) {
        ("generate", _) => ["", "profile scale seed out"],
        ("workload", _) => ["", "dataset kind count seed out"],
        ("query", true) => [
            "",
            "connect queries supergraph verify-budget retries retry-seed timeout-ms",
        ],
        ("query", false) => [CACHE, "dataset queries no-cache maint-stats save"],
        ("serve", _) => [
            CACHE,
            "dataset listen unix max-sessions max-inflight drain-timeout persist-on-exit \
             snapshot-every peer-id",
        ],
        ("route", _) => ["", "unix peers retries retry-seed"],
        ("ctl", _) => ["", "unix tcp timeout retries retry-seed"],
        ("bench", _) => ["", "suite json check tolerance timings list serve route"],
        _ => ["", ""], // `gc stats` takes a path and nothing else
    }
}

/// Parses `--key value` pairs and bare flags into a map. Malformed
/// invocations are usage errors, and so is any option `cmd` never reads:
/// a typo (`--capcity 500`) or a flag from an older release must fail
/// loudly, not run with the default.
fn parse_opts(
    cmd: &str,
    args: &[String],
) -> Result<(HashMap<String, String>, Vec<String>), CliError> {
    let mut opts = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            // Bare flags take no value.
            const FLAGS: [&str; 7] = [
                "supergraph",
                "no-cache",
                "background",
                "maint-stats",
                "timings",
                "list",
                "serve",
            ];
            if FLAGS.contains(&key) {
                opts.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
                opts.insert(key.to_string(), v.clone());
                i += 2;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    let connect = cmd == "query" && opts.contains_key("connect");
    let known = known_opts(cmd, connect);
    let is_known = |k: &str| {
        known
            .iter()
            .any(|set| set.split_whitespace().any(|o| o == k))
    };
    let mut unknown: Vec<String> = opts
        .keys()
        .filter(|k| !is_known(k))
        .map(|k| format!("--{k}"))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(CliError::usage(format!(
            "unknown option {} for gc {cmd}{}",
            unknown.join(", "),
            if connect { " --connect" } else { "" }
        )));
    }
    Ok((opts, positional))
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage(format!("missing required option --{key}")))
}

fn num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --{key}: {v:?}"))),
    }
}

/// `--fragments on|off` (default off). An explicit value keeps the flag
/// scriptable — `--fragments "$MODE"` — where a bare boolean flag could
/// only ever turn the layer on.
fn fragments_enabled(opts: &HashMap<String, String>) -> Result<bool, CliError> {
    match opts.get("fragments").map(|s| s.as_str()) {
        None => Ok(false),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(CliError::usage(format!(
            "invalid --fragments {other:?} (on|off)"
        ))),
    }
}

fn cmd_generate(args: &[String]) -> CliResult {
    let (opts, _) = parse_opts("generate", args)?;
    let name = req(&opts, "profile")?;
    let profile = DatasetProfile::by_name(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown profile {name:?} (aids|pdbs|pcm|synthetic)"
        ))
    })?;
    let scale: f64 = num(&opts, "scale", 1.0)?;
    let seed: u64 = num(&opts, "seed", 42)?;
    let out = req(&opts, "out")?;
    let dataset = profile.scaled(scale).generate(seed);
    io::save_dataset(out, &dataset)
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!("wrote {} ({})", out, dataset.stats());
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let (_, positional) = parse_opts("stats", args)?;
    let path = positional
        .first()
        .ok_or_else(|| CliError::usage("usage: gc stats FILE"))?;
    let dataset = load_dataset(path)?;
    println!("{}", dataset.stats());
    Ok(())
}

/// Loads a dataset file, pointing the error at the path (runtime error:
/// the invocation was fine, the file was not).
fn load_dataset(path: &str) -> Result<GraphDataset, CliError> {
    io::load_dataset(path).map_err(|e| CliError::Runtime(format!("cannot load {path}: {e}")))
}

fn cmd_workload(args: &[String]) -> CliResult {
    let (opts, _) = parse_opts("workload", args)?;
    let dataset = load_dataset(req(&opts, "dataset")?)?;
    let count: usize = num(&opts, "count", 500)?;
    let seed: u64 = num(&opts, "seed", 42)?;
    let out = req(&opts, "out")?;
    let kind = req(&opts, "kind")?;
    let workload = match kind {
        "zz" => generate_type_a(&dataset, &TypeAConfig::zz(1.4).count(count).seed(seed)),
        "zu" => generate_type_a(&dataset, &TypeAConfig::zu(1.4).count(count).seed(seed)),
        "uu" => generate_type_a(&dataset, &TypeAConfig::uu().count(count).seed(seed)),
        "b0" | "b20" | "b50" => {
            let p = match kind {
                "b0" => 0.0,
                "b20" => 0.2,
                _ => 0.5,
            };
            generate_type_b(
                &dataset,
                &TypeBConfig::with_no_answer_prob(p)
                    .count(count)
                    .pools((count / 5).clamp(20, 400), (count / 15).clamp(5, 120))
                    .seed(seed),
            )
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown workload kind {other:?} (zz|zu|uu|b0|b20|b50)"
            )))
        }
    };
    let as_dataset = GraphDataset::new(workload.graphs().cloned().collect());
    io::save_dataset(out, &as_dataset)
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {} ({} queries, {})",
        out,
        workload.len(),
        workload.name
    );
    Ok(())
}

/// Method M over `dataset`, named by `--method` (default `ggsx`).
fn build_method(
    opts: &HashMap<String, String>,
    dataset: &GraphDataset,
) -> Result<Method, CliError> {
    let name = opts.get("method").map(|s| s.as_str()).unwrap_or("ggsx");
    match MethodKind::from_registry_name(name) {
        Some(kind) => Ok(kind.build(dataset)),
        None => {
            let available: Vec<&str> = MethodKind::ALL.iter().map(|k| k.registry_name()).collect();
            Err(CliError::usage(format!(
                "unknown method {name:?} (available: {})",
                available.join(", ")
            )))
        }
    }
}

/// The common cache-construction flags as a builder — the one code path
/// behind both `gc query` and `gc serve`, so the two subcommands can never
/// drift apart on flag semantics. It reads no file: callers run it before
/// the dataset loads, so a policy typo fails (exit 2, listing the
/// available policies) before any expensive parsing.
fn builder_from_opts(opts: &HashMap<String, String>) -> Result<GraphCacheBuilder, CliError> {
    let usage = |e: PolicyError| CliError::usage(e.to_string());
    let kind = if opts.contains_key("supergraph") {
        QueryKind::Supergraph
    } else {
        QueryKind::Subgraph
    };
    let mut builder = GraphCache::builder()
        .capacity(num(opts, "capacity", 100usize)?)
        .window(num(opts, "window", 20usize)?)
        .query_kind(kind)
        .background(opts.contains_key("background"))
        .threads(num(opts, "threads", 1usize)?)
        .shards(num(opts, "shards", 0usize)?)
        .fragments(fragments_enabled(opts)?);
    if let Some(spec) = opts.get("eviction") {
        registry::build_eviction(spec).map_err(usage)?;
        builder = builder.eviction(spec.as_str());
    }
    if let Some(spec) = opts.get("admission") {
        registry::build_admission(spec).map_err(usage)?;
        builder = builder.admission(spec.as_str());
    }
    if let Some(spec) = opts.get("fragment-eviction") {
        registry::build_eviction(spec).map_err(usage)?;
        builder = builder.fragment_eviction(spec.as_str());
    }
    if opts.contains_key("verify-budget") {
        builder = builder.verify_budget(num(opts, "verify-budget", 0u64)?);
    }
    if opts.contains_key("fragment-budget") {
        builder = builder.fragment_budget(num(opts, "fragment-budget", 0usize)?);
    }
    Ok(builder)
}

/// Builds `builder`'s cache in front of `--method` over `dataset`, then
/// applies `--restore` (printing the same confirmation line `gc query`
/// always has).
fn build_cache(
    builder: GraphCacheBuilder,
    opts: &HashMap<String, String>,
    dataset: &GraphDataset,
) -> Result<GraphCache, CliError> {
    let cache = builder
        .try_build(build_method(opts, dataset)?)
        .map_err(|e| CliError::usage(e.to_string()))?;
    if let Some(dir) = opts.get("restore") {
        let report = cache
            .restore(dir)
            .map_err(|e| CliError::Runtime(format!("cannot restore from {dir:?}: {e}")))?;
        match report.generation {
            Some(generation) => println!(
                "restored {} cached queries from {dir} (generation {generation})",
                report.entries
            ),
            None => println!("restored {} cached queries from {dir}", report.entries),
        }
    }
    Ok(cache)
}

/// Opens a protocol session against `unix:PATH`, `tcp:HOST:PORT`, or a
/// bare `HOST:PORT`, retrying transient connect failures under `policy`.
/// A daemon that stays unreachable is [`CliError::Unavailable`] (exit 4),
/// so scripts can distinguish "daemon down" from in-session failures.
fn connect_target(target: &str, policy: &RetryPolicy) -> Result<Client, CliError> {
    let result = if let Some(path) = target.strip_prefix("unix:") {
        Client::connect_unix_with_retry(path, policy)
    } else {
        let addr = target.strip_prefix("tcp:").unwrap_or(target);
        if !addr.contains(':') {
            return Err(CliError::usage(format!(
                "connect target {target:?} must be unix:PATH, tcp:HOST:PORT, or HOST:PORT"
            )));
        }
        Client::connect_tcp_with_retry(addr, policy)
    };
    result.map_err(|e| match &e {
        ClientError::Io(io) if RetryPolicy::transient_connect(io) => {
            CliError::Unavailable(format!("cannot connect to {target}: {e}"))
        }
        _ => CliError::Runtime(format!("cannot connect to {target}: {e}")),
    })
}

/// `--retries N [--retry-seed S]` → the bounded deterministic retry
/// policy shared by connect and `BUSY` handling (default: no retries, the
/// historical fail-fast behavior).
fn retry_policy(opts: &HashMap<String, String>) -> Result<RetryPolicy, CliError> {
    let attempts: u32 = num(opts, "retries", 0u32)?;
    Ok(match opts.get("retry-seed") {
        Some(_) => RetryPolicy::seeded(attempts, num(opts, "retry-seed", 0u64)?),
        None => RetryPolicy::with_attempts(attempts),
    })
}

fn cmd_query(args: &[String]) -> CliResult {
    let (opts, _) = parse_opts("query", args)?;
    if let Some(target) = opts.get("connect") {
        return query_connect(&opts, target);
    }
    let builder = builder_from_opts(&opts)?;
    let dataset = load_dataset(req(&opts, "dataset")?)?;
    let queries = load_dataset(req(&opts, "queries")?)?;
    let kind = if opts.contains_key("supergraph") {
        QueryKind::Supergraph
    } else {
        QueryKind::Subgraph
    };

    // --threads: 1 (default) replays sequentially, the paper's
    // single-client setup; N > 1 fans out via run_batch.
    let threads: usize = num(&opts, "threads", 1usize)?;

    if opts.contains_key("no-cache") {
        if threads != 1 {
            eprintln!("gc: note: --threads is ignored with --no-cache (the baseline replays sequentially)");
        }
        let method = build_method(&opts, &dataset)?;
        let t0 = std::time::Instant::now();
        let mut total_us = 0.0;
        let mut tests = 0u64;
        for (i, q) in queries.graphs().iter().enumerate() {
            let r = method.run_directed(q, kind);
            total_us += r.total_time().as_secs_f64() * 1e6;
            tests += r.subiso_tests();
            println!(
                "query {i}: {} answers, {} tests",
                r.answer.len(),
                r.subiso_tests()
            );
        }
        let wall = t0.elapsed();
        println!(
            "\n{} queries | avg {:.0} µs | {} sub-iso tests (no cache)",
            queries.len(),
            total_us / queries.len().max(1) as f64,
            tests
        );
        println!(
            "wall clock {:.1} ms on 1 client thread(s) ({:.0} queries/s)",
            wall.as_secs_f64() * 1e3,
            queries.len() as f64 / wall.as_secs_f64().max(1e-9)
        );
        return Ok(());
    }

    let cache = build_cache(builder, &opts, &dataset)?;

    let t0 = std::time::Instant::now();
    let records: Vec<graphcache::core::QueryRecord> = if threads == 1 {
        queries
            .graphs()
            .iter()
            .map(|q| cache.run(q).record)
            .collect()
    } else {
        cache
            .run_batch(queries.graphs().iter().map(QueryRequest::from))
            .into_iter()
            .map(|resp| resp.result.record)
            .collect()
    };
    let wall = t0.elapsed();

    let mut total_us = 0.0;
    for (i, r) in records.iter().enumerate() {
        total_us += r.query_time().as_secs_f64() * 1e6;
        let exact = if r.exact_via_fingerprint {
            " (exact hit via fingerprint)"
        } else if r.exact_hit {
            " (exact hit)"
        } else {
            ""
        };
        println!(
            "query {i}: {} answers, {} tests | hit-verify: {} tests, {} work{}{}",
            r.answer_size,
            r.subiso_tests,
            r.gc_tests,
            r.budget_spent,
            exact,
            if r.truncated { " [truncated]" } else { "" },
        );
    }
    let counters = RunCounters::from_records(&records, 0);
    println!(
        "\n{} queries | avg {:.0} µs | {} sub-iso tests | {} cache-assisted | {} cached entries | eviction {} | admission {}",
        queries.len(),
        total_us / queries.len().max(1) as f64,
        counters.subiso_tests,
        counters.cache_assisted,
        cache.cache_len(),
        cache.eviction_name(),
        cache.admission_name()
    );
    println!(
        "hit verification: {} work spent | {} exact via fingerprint | {} truncated queries",
        counters.budget_spent, counters.exact_fp_hits, counters.truncated,
    );
    if cache.fragment_eviction_name().is_some() {
        let probes: u64 = records.iter().map(|r| r.fragment_probes).sum();
        let fragment_hits: u64 = records.iter().map(|r| r.fragment_hits).sum();
        let pruned: u64 = records.iter().map(|r| r.fragment_pruned).sum();
        println!(
            "fragment cache: {probes} probes | {fragment_hits} fragment hits | \
             {pruned} candidates pruned | {} fragments stored",
            cache.fragment_store_len(),
        );
    }
    println!(
        "wall clock {:.1} ms on {} client thread(s) ({:.0} queries/s)",
        wall.as_secs_f64() * 1e3,
        if threads == 1 {
            1
        } else {
            // run_batch never uses more workers than there are requests.
            cache.batch_threads().min(records.len().max(1))
        },
        records.len() as f64 / wall.as_secs_f64().max(1e-9)
    );
    if opts.contains_key("maint-stats") {
        cache.flush_pending();
        let m = cache.maint_stats();
        println!(
            "maintenance: {} rounds | total {:.1} ms | victim select {:.1} ms | \
             index delta {:.1} ms | stats upkeep {:.1} ms | fragment upkeep {:.1} ms",
            m.rounds,
            m.total.as_secs_f64() * 1e3,
            m.victim_select.as_secs_f64() * 1e3,
            m.index_delta.as_secs_f64() * 1e3,
            m.stats_upkeep.as_secs_f64() * 1e3,
            m.fragment_upkeep.as_secs_f64() * 1e3,
        );
        println!(
            "maintenance: {} admitted, {} evicted ({} entries touched) | \
             {} shard patches across {} shards | {} compactions",
            m.entries_admitted,
            m.entries_evicted,
            m.entries_touched(),
            m.shards_patched,
            cache.shard_count(),
            m.compactions,
        );
        println!(
            "maintenance: {} fragments built, {} evicted ({} stored, eviction {})",
            m.fragments_built,
            m.fragments_evicted,
            cache.fragment_store_len(),
            cache
                .fragment_eviction_name()
                .unwrap_or_else(|| "off".to_string()),
        );
        // Answer-arena utilization per shard, and the tombstoned slots the
        // 50% compaction threshold watches (the gauge keeps its old name,
        // postings debt, in STATS and the bench counters).
        let util = cache.arena_utilization();
        let live: usize = util.iter().map(|(l, _)| l).sum();
        let reserved: usize = util.iter().map(|(_, r)| r).sum();
        let per_shard: Vec<String> = util.iter().map(|(l, r)| format!("{l}/{r}")).collect();
        println!(
            "maintenance: arena utilization {live}/{reserved} bytes live/reserved \
             (per shard: {}) | postings debt (tombstoned slots) {}",
            per_shard.join(" "),
            m.dead_postings,
        );
    }
    if let Some(dir) = opts.get("save") {
        cache
            .save(dir)
            .map_err(|e| CliError::Runtime(format!("cannot save to {dir:?}: {e}")))?;
        println!("saved cache state to {dir}");
    }
    Ok(())
}

/// `gc query --connect`: replay a query file against a running daemon.
/// `--retries N` retries `BUSY` rejections and transient connect failures
/// under the bounded deterministic backoff (`--retry-seed S` pins the
/// jitter stream); with the default of no retries a `BUSY` is fail-stop
/// (runtime error, exit 1). `--timeout-ms MS` attaches a per-query
/// deadline that the server answers with `ERR code=deadline` on expiry.
fn query_connect(opts: &HashMap<String, String>, target: &str) -> CliResult {
    let queries = load_dataset(req(opts, "queries")?)?;
    let kind = opts
        .contains_key("supergraph")
        .then_some(QueryKind::Supergraph);
    let verify_budget = if opts.contains_key("verify-budget") {
        Some(num(opts, "verify-budget", 0u64)?)
    } else {
        None
    };
    let timeout_ms = if opts.contains_key("timeout-ms") {
        Some(num(opts, "timeout-ms", 0u64)?)
    } else {
        None
    };
    let retry = retry_policy(opts)?;
    let mut client = connect_target(target, &retry)?;
    let t0 = std::time::Instant::now();
    let mut tests = 0u64;
    let mut hits = 0usize;
    for (i, q) in queries.graphs().iter().enumerate() {
        let frame = QueryFrame {
            id: i as u64,
            graph: q.clone(),
            kind,
            verify_budget,
            max_hits: None,
            bypass: false,
            timeout_ms,
            allow: None,
        };
        let outcome = client
            .query_with_retry(frame, &retry)
            .map_err(|e| CliError::Runtime(format!("query {i}: {e}")))?;
        match outcome {
            QueryOutcome::Result(r) => {
                tests += r.record.subiso_tests;
                hits += r.record.any_hit() as usize;
                println!(
                    "query {i}: {} answers, {} tests | hit-verify: {} tests, {} work{}",
                    r.answer.len(),
                    r.record.subiso_tests,
                    r.record.gc_tests,
                    r.record.budget_spent,
                    if r.record.truncated {
                        " [truncated]"
                    } else {
                        ""
                    },
                );
            }
            QueryOutcome::Busy { inflight, max } => {
                return Err(CliError::Runtime(format!(
                    "server busy at query {i} ({inflight}/{max} permits in flight{}); \
                     retry when the daemon has capacity",
                    if retry.attempts > 0 {
                        format!(", after {} retries", retry.attempts)
                    } else {
                        String::new()
                    }
                )));
            }
        }
    }
    let wall = t0.elapsed();
    println!(
        "\n{} queries served by {} (session {}) | {} sub-iso tests | {} cache-assisted | wall {:.1} ms",
        queries.len(),
        target,
        client.session(),
        tests,
        hits,
        wall.as_secs_f64() * 1e3,
    );
    let _ = client.quit();
    Ok(())
}

/// `gc serve`: the long-running daemon. Blocks until graceful drain
/// (SIGTERM, SIGINT, or a `SHUTDOWN` frame) completes, then exits 0.
fn cmd_serve(args: &[String]) -> CliResult {
    let (opts, _) = parse_opts("serve", args)?;
    let builder = builder_from_opts(&opts)?;
    let listen = opts.get("listen").cloned();
    let unix = opts.get("unix").map(PathBuf::from);
    if listen.is_none() && unix.is_none() {
        return Err(CliError::usage(
            "gc serve needs a listener: --listen ADDR and/or --unix PATH",
        ));
    }
    // `--peer-id I/N`: serve as routed peer I of an N-peer fleet. The
    // daemon then filters PROBE replies to its consistent-hash slice and
    // gates QUERY/PROBE/ROUTE behind a proto-4 VERSION announcement.
    let peer = match opts.get("peer-id") {
        None => None,
        Some(spec) => {
            let parsed = spec.split_once('/').and_then(|(index, total)| {
                let index: u64 = index.parse().ok()?;
                let total: u64 = total.parse().ok()?;
                PeerIdentity::new(index, total)
            });
            Some(parsed.ok_or_else(|| {
                CliError::usage(format!(
                    "invalid --peer-id {spec:?} (want I/N with 0 <= I < N, e.g. 0/3)"
                ))
            })?)
        }
    };
    let cfg = ServeConfig {
        listen,
        unix,
        peer,
        max_sessions: num(&opts, "max-sessions", 64usize)?,
        max_inflight: num(&opts, "max-inflight", 0usize)?,
        drain_timeout: Duration::from_secs(num(&opts, "drain-timeout", 10u64)?),
        persist_on_exit: opts.get("persist-on-exit").map(PathBuf::from),
        handle_signals: true,
        snapshot_every: if opts.contains_key("snapshot-every") {
            Some(Duration::from_secs(num(&opts, "snapshot-every", 0u64)?))
        } else {
            None
        },
    };
    if cfg.snapshot_every.is_some() && cfg.persist_on_exit.is_none() {
        return Err(CliError::usage(
            "--snapshot-every needs --persist-on-exit DIR (the snapshot target)",
        ));
    }
    let dataset = load_dataset(req(&opts, "dataset")?)?;
    let graphs = dataset.len();
    let cache = build_cache(builder, &opts, &dataset)?;
    let eviction = cache.eviction_name();
    let peer = cfg.peer;
    let server =
        Server::bind(cache, cfg).map_err(|e| CliError::Runtime(format!("cannot serve: {e}")))?;
    if let Some(addr) = server.tcp_addr() {
        println!("serving on tcp {addr}");
    }
    if let Some(path) = opts.get("unix") {
        println!("serving on unix {path}");
    }
    if let Some(p) = peer {
        println!("gc serve: routed peer {}/{}", p.index, p.total);
    }
    println!(
        "gc serve: {graphs} dataset graphs, eviction {eviction} | \
         SIGTERM or a SHUTDOWN frame drains gracefully"
    );
    server
        .run()
        .map_err(|e| CliError::Runtime(format!("daemon failed: {e}")))?;
    println!("gc serve: drained, exiting");
    Ok(())
}

/// `gc route`: the fingerprint-routing front-end for a fleet of routed
/// `gc serve --peer-id` daemons. Clients speak plain `QUERY` to the
/// router's socket; the router computes each query's iso-fingerprint,
/// sends it to the owning peer, and keeps every replica in lockstep.
fn cmd_route(args: &[String]) -> CliResult {
    let (opts, _) = parse_opts("route", args)?;
    let unix = PathBuf::from(req(&opts, "unix")?);
    let peers: Vec<PathBuf> = req(&opts, "peers")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect();
    if peers.is_empty() {
        return Err(CliError::usage(
            "gc route needs --peers SOCK,SOCK,... (one socket per peer, in peer-id order)",
        ));
    }
    let retry = match opts.get("retries") {
        // The router's default retry budget differs from gc ctl's: it
        // should ride out peer startup races and transient BUSY, so a
        // bounded-but-generous budget is the default.
        None => RetryPolicy::with_attempts(10),
        Some(_) => retry_policy(&opts)?,
    };
    let router = Router::bind(RouterConfig {
        unix: unix.clone(),
        peers: peers.clone(),
        retry,
        handle_signals: true,
    })
    .map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidInput => CliError::usage(format!("cannot route: {e}")),
        _ => CliError::Runtime(format!("cannot route: {e}")),
    })?;
    println!("routing on unix {}", unix.display());
    println!(
        "gc route: {} peer slice(s) | SIGTERM or a SHUTDOWN frame stops the router \
         (peers keep serving)",
        peers.len()
    );
    router
        .run()
        .map_err(|e| CliError::Runtime(format!("router failed: {e}")))?;
    println!("gc route: drained, exiting");
    Ok(())
}

/// `gc ctl`: one control frame against a running daemon.
fn cmd_ctl(args: &[String]) -> CliResult {
    let (opts, positional) = parse_opts("ctl", args)?;
    let command = positional
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage("gc ctl needs a command (ping|stats|shutdown)"))?;
    if !matches!(command, "ping" | "stats" | "shutdown") {
        return Err(CliError::usage(format!(
            "unknown ctl command {command:?} (ping|stats|shutdown)"
        )));
    }
    let target = match (opts.get("unix"), opts.get("tcp")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage("give --unix PATH or --tcp ADDR, not both"))
        }
        (Some(path), None) => format!("unix:{path}"),
        (None, Some(addr)) => addr.clone(),
        (None, None) => return Err(CliError::usage("gc ctl needs --unix PATH or --tcp ADDR")),
    };
    // Validate the timeout before dialing: a bad flag is a usage error
    // even when the daemon is unreachable.
    let timeout = if opts.contains_key("timeout") {
        let secs: u64 = num(&opts, "timeout", 0u64)?;
        if secs == 0 {
            return Err(CliError::usage("--timeout must be at least 1 second"));
        }
        Some(Duration::from_secs(secs))
    } else {
        None
    };
    let mut client = connect_target(&target, &retry_policy(&opts)?)?;
    if let Some(timeout) = timeout {
        client
            .set_timeout(Some(timeout))
            .map_err(|e| CliError::Runtime(format!("cannot set timeout: {e}")))?;
    }
    match command {
        "ping" => {
            client
                .ping(Some("ctl"))
                .map_err(|e| CliError::Runtime(format!("ping failed: {e}")))?;
            println!("pong (session {})", client.session());
            let _ = client.quit();
        }
        "stats" => {
            let counters = client
                .stats(StatsScope::Global)
                .map_err(|e| CliError::Runtime(format!("stats failed: {e}")))?;
            for (name, value) in counters {
                println!("{name} {value}");
            }
            let _ = client.quit();
        }
        "shutdown" => {
            client
                .shutdown()
                .map_err(|e| CliError::Runtime(format!("shutdown failed: {e}")))?;
            println!("shutdown requested; daemon draining");
        }
        _ => unreachable!("validated above"),
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> CliResult {
    let (opts, _) = parse_opts("bench", args)?;
    let suite_name = opts.get("suite").map(|s| s.as_str()).unwrap_or("smoke");
    let suite = Suite::from_name(suite_name).ok_or_else(|| {
        let available: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
        CliError::usage(format!(
            "unknown suite {suite_name:?} (available: {})",
            available.join(", ")
        ))
    })?;
    let tolerance: f64 = num(&opts, "tolerance", 5.0)?;
    // NaN/inf would make every drift comparison pass, silently disabling
    // the gate.
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(CliError::usage(
            "--tolerance must be a finite, non-negative percentage",
        ));
    }

    if opts.contains_key("list") {
        println!(
            "suite {} ({} scenarios):",
            suite.name(),
            suite.scenarios().len()
        );
        for s in suite.scenarios() {
            let echo: Vec<String> = s
                .config_echo()
                .into_iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("  {}  [{}]", s.name, echo.join(" "));
        }
        return Ok(());
    }

    let served = opts.contains_key("serve");
    let routed: Option<usize> = match opts.get("route") {
        None => None,
        Some(_) => {
            let peers: usize = num(&opts, "route", 0usize)?;
            if peers == 0 {
                return Err(CliError::usage("--route needs at least 1 peer"));
            }
            Some(peers)
        }
    };
    if served && routed.is_some() {
        return Err(CliError::usage(
            "--serve and --route are mutually exclusive",
        ));
    }
    // One runner, three deployments: in-process, one daemon on a private
    // unix socket, or a routed fleet behind a gc route front-end. The wire
    // paths must match the in-process counters byte-for-byte, so --check
    // gates all three (and any fleet size) against one baseline.
    let (deployment, via): (Box<dyn Deployment>, String) = match routed {
        Some(peers) => (
            Box::new(Fleet::routed(peers)),
            format!(", via {peers}-peer routed fleet"),
        ),
        None if served => (Box::new(Fleet::served()), ", via gc serve daemon".into()),
        None => (Box::new(InProcess), String::new()),
    };
    let scenarios = suite.scenarios();
    println!(
        "running suite {} ({} scenarios{via})...",
        suite.name(),
        scenarios.len(),
    );
    println!(
        "{:<30} {:>7} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8} {:>8}",
        "scenario",
        "queries",
        "assisted",
        "iso-tests",
        "gc-tests",
        "trunc",
        "wall-ms",
        "tests-x",
        "work-x"
    );
    let mut report = MatrixReport {
        schema_version: SCHEMA_VERSION,
        suite: suite.name().to_string(),
        scenarios: Vec::with_capacity(scenarios.len()),
    };
    for scenario in &scenarios {
        let s = run_scenario_on(scenario, deployment.as_ref()).map_err(CliError::Runtime)?;
        // Speed-ups over the uncached reference arm, when the scenario has one.
        let (tests_x, work_x) = match s.speedups() {
            Some((tests, work)) => (format!("{tests:.2}"), format!("{work:.2}")),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<30} {:>7} {:>9} {:>9} {:>9} {:>7} {:>9.1} {:>8} {:>8}",
            s.name,
            s.counter("queries").unwrap_or(0),
            s.counter("cache_assisted").unwrap_or(0),
            s.counter("subiso_tests").unwrap_or(0),
            s.counter("gc_tests").unwrap_or(0),
            s.counter("truncated").unwrap_or(0),
            s.wall_ms,
            tests_x,
            work_x,
        );
        report.scenarios.push(s);
    }

    if let Some(path) = opts.get("json") {
        let text = report.to_json(opts.contains_key("timings"));
        std::fs::write(path, &text)
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }

    if let Some(baseline_path) = opts.get("check") {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| CliError::Runtime(format!("cannot read baseline {baseline_path}: {e}")))?;
        let baseline = MatrixReport::from_json(&text)
            .map_err(|e| CliError::Runtime(format!("malformed baseline {baseline_path}: {e}")))?;
        if baseline.suite != report.suite {
            return Err(CliError::Runtime(format!(
                "baseline {baseline_path} is for suite {:?}, not {:?}",
                baseline.suite, report.suite
            )));
        }
        let drifts = MatrixReport::compare(&baseline, &report, tolerance);
        if drifts.is_empty() {
            println!("check: all deterministic counters within {tolerance}% of {baseline_path}");
        } else {
            for d in &drifts {
                eprintln!("drift: {d}");
            }
            return Err(CliError::Drift(format!(
                "{} counter(s) drifted beyond {tolerance}% of {baseline_path} \
                 (refresh with scripts/refresh-baseline.sh if intended)",
                drifts.len()
            )));
        }
    }
    Ok(())
}

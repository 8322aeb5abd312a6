//! `gc` — command-line front end for GraphCache.
//!
//! Subcommands: `generate` writes a synthetic dataset, `stats` prints its
//! shape, `workload` draws a query file, `query` replays one through a cache
//! (in process, or with `--connect` against a daemon), `bench` runs scenario
//! suites and the counter gate, `serve` runs the cache daemon, `route` the
//! fingerprint-routing front-end of a fleet of `gc serve --peer-id` daemons
//! (see `docs/architecture.md`), and `ctl` sends one control frame to a
//! daemon.
//!
//! The `COMMANDS` table holds every subcommand's options, each with its value
//! placeholder and a one-line help, and the positional word it takes.
//! Parsing, `gc <cmd> --help` and rejection all read it: an option the
//! subcommand does not read, an option without its value and an extra
//! positional word are usage errors, so a typo never runs with the default.
//! What the cache options mean beyond their help line (the Window counts
//! misses, the verify budget is one work pool per query, shards follow
//! threads) is documented on `gc_core::GcConfig` and `GraphCacheBuilder`; the
//! daemon's on `gc_server::ServeConfig` and in `docs/operations.md`; the
//! bench suites, their speed-up columns and the baseline gate in
//! `docs/paper-figures.md`.
//!
//! # Exit codes
//!
//! * `0` — success (and `gc <cmd> --help`);
//! * `1` — runtime failure (I/O errors, malformed datasets, missing
//!   `--restore` state or one saved by an earlier release or over another
//!   dataset, protocol errors on a live connection);
//! * `2` — usage error (unknown subcommand, option or flag value, missing
//!   required option, unexpected positional argument, unknown
//!   profile/workload/method/policy/suite name); the failing subcommand's
//!   usage follows the message;
//! * `3` — benchmark regression: `gc bench --check` found deterministic
//!   counters drifting beyond tolerance;
//! * `4` — daemon unreachable: `gc ctl` / `gc query --connect` could not
//!   connect (refused, or the socket file is gone), even after any
//!   `--retries` budget. Distinct from 1 so scripts can tell "daemon
//!   down" apart from "daemon answered but the request failed".
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
    registry, GraphCache, GraphCacheBuilder, PolicyError, QueryKind, QueryRecord, QueryRequest,
    RunCounters,
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
use std::fmt::Write;
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

/// One option a subcommand reads: its name, the placeholder of its value
/// (empty for a bare flag; alternatives like `on|off` are the only values
/// it admits) and its one-line help.
type Opt = (&'static str, &'static str, &'static str);

/// The cache-construction options `gc query` and `gc serve` share.
#[rustfmt::skip]
const CACHE_OPTS: &[Opt] = &[
    ("method", "NAME", "Method M: ggsx|grapes1|grapes6|ct-index|vf2|vf2+|gql (default ggsx)"),
    ("eviction", "NAME", "eviction policy: lru|pop|pin|pinc|hd|slru|greedy-dual… (default hd)"),
    ("admission", "NAME", "admission policy: none|threshold|adaptive… (default none)"),
    ("capacity", "N", "cache capacity C in entries (default 100)"),
    ("window", "N", "Window W: one maintenance round per N cache misses (default 20)"),
    ("threads", "N", "client threads through run_batch (default 1: sequential replay)"),
    ("shards", "N", "snapshot shards (default 0: one per client thread)"),
    ("fragments", "on|off", "the sub-query fragment cache (default off)"),
    ("fragment-budget", "BYTES", "byte budget of the fragment store (default 1 MiB)"),
    ("fragment-eviction", "NAME", "replacement policy of the fragment store (default lru)"),
    ("background", "", "run the Window Manager on a background thread"),
    ("restore", "DIR", "preload the cache from a snapshot saved to DIR"),
];

/// What a query asks, for a local cache and for one sent to a daemon alike.
#[rustfmt::skip]
const QUERY_OPTS: &[Opt] = &[
    ("supergraph", "", "supergraph (G ⊆ g) instead of subgraph queries"),
    ("verify-budget", "N", "hit-verification work pool per query (default: the cache's, unbounded)"),
];

/// Bounded deterministic retries of a refused connect or a `BUSY` reply.
#[rustfmt::skip]
const RETRY_OPTS: &[Opt] = &[
    ("retries", "N", "retries of a refused connect or a BUSY reply (default 0; gc route: 10)"),
    ("retry-seed", "S", "seed of the retry backoff's jitter"),
];

/// A subcommand: the options it reads, the positional word it takes, and
/// the function that runs it on the parsed line.
struct Command {
    /// `gc <name>`. `query --connect` is a row of its own: the cache lives
    /// in the daemon, so the cache options would do nothing.
    name: &'static str,
    about: &'static str,
    opts: &'static [&'static [Opt]],
    /// The placeholder of the one positional word it takes, alternatives
    /// admitted alone as for an option's value. `None` takes none.
    word: Option<&'static str>,
    run: fn(&Opts) -> CliResult,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "generate", about: "write a synthetic dataset in the text format of gc_graph::io",
        opts: &[&[
            ("profile", "NAME", "dataset profile: aids|pdbs|pcm|synthetic (required)"),
            ("scale", "F", "scale of the profile's graph count (default 1)"),
            ("seed", "N", "generator seed (default 42)"),
            ("out", "FILE", "output file (required)"),
        ]],
        word: None, run: cmd_generate,
    },
    Command {
        name: "stats", about: "print dataset shape statistics",
        opts: &[],
        word: Some("FILE"), run: cmd_stats,
    },
    Command {
        name: "workload", about: "generate a query workload (queries are stored as a dataset file)",
        opts: &[&[
            ("dataset", "FILE", "dataset the queries are drawn from (required)"),
            ("kind", "zz|zu|uu|b0|b20|b50", "workload type (required)"),
            ("count", "N", "number of queries (default 500)"),
            ("seed", "N", "generator seed (default 42)"),
            ("out", "FILE", "output file (required)"),
        ]],
        word: None, run: cmd_workload,
    },
    Command {
        name: "query", about: "replay a query file through a cache in process (or a daemon's)",
        opts: &[
            &[
                ("dataset", "FILE", "dataset file (required)"),
                ("queries", "FILE", "query file (required)"),
            ],
            CACHE_OPTS,
            QUERY_OPTS,
            &[
                ("no-cache", "", "replay through the bare Method M (the uncached baseline)"),
                ("maint-stats", "", "print maintenance phases, answer-arena bytes and dead slots"),
                ("save", "DIR", "save the cache snapshot to DIR after the replay"),
            ],
        ],
        word: None, run: cmd_query,
    },
    Command {
        name: "query --connect", about: "replay a query file against a running daemon",
        opts: &[
            &[
                ("connect", "TARGET", "the daemon: unix:PATH, tcp:HOST:PORT or HOST:PORT"),
                ("queries", "FILE", "query file (required)"),
                ("timeout-ms", "MS", "per-query deadline; on expiry the daemon answers ERR"),
            ],
            QUERY_OPTS,
            RETRY_OPTS,
        ],
        word: None, run: query_connect,
    },
    Command {
        name: "bench", about: "run a scenario suite end-to-end; report its deterministic counters",
        opts: &[&[
            ("suite", "NAME", "scenario suite (default smoke; an unknown name lists them)"),
            ("list", "", "print the suite's scenarios without running them"),
            ("json", "FILE", "write the versioned report of deterministic counters"),
            ("timings", "", "add the advisory wall-clock section to --json"),
            ("check", "BASELINE", "exit 3 if a counter drifts from BASELINE beyond --tolerance"),
            ("tolerance", "PCT", "allowed drift in percent (default 5)"),
            ("serve", "", "run every scenario through a gc serve daemon on a private socket"),
            ("route", "N", "run every scenario through an N-peer routed fleet"),
        ]],
        word: None, run: cmd_bench,
    },
    Command {
        name: "serve", about: "run the cache daemon speaking the line-delimited wire protocol",
        opts: &[
            &[
                ("dataset", "FILE", "dataset file (required)"),
                ("listen", "ADDR", "TCP listener (this and/or --unix is required)"),
                ("unix", "PATH", "unix-socket listener; a stale socket file is replaced"),
                ("max-sessions", "N", "concurrent session cap (default 64)"),
                ("max-inflight", "N", "queries in flight before a BUSY reply (default: --threads)"),
                ("drain-timeout", "SECS", "how long a drain waits for sessions (default 10)"),
                ("persist-on-exit", "DIR", "save the cache snapshot to DIR after a graceful drain"),
                ("snapshot-every", "SECS", "also snapshot to the --persist-on-exit DIR every SECS"),
                ("peer-id", "I/N", "serve as routed peer I of an N-peer fleet behind gc route"),
            ],
            CACHE_OPTS,
            QUERY_OPTS,
        ],
        word: None, run: cmd_serve,
    },
    Command {
        name: "route", about: "route queries by fingerprint over gc serve --peer-id daemons",
        opts: &[
            &[
                ("unix", "PATH", "the router's unix socket (required)"),
                ("peers", "SOCK,SOCK,...", "the peers' sockets, in peer-id order (required)"),
            ],
            RETRY_OPTS,
        ],
        word: None, run: cmd_route,
    },
    Command {
        name: "ctl", about: "send one control frame to a running daemon",
        opts: &[
            &[
                ("unix", "PATH", "the daemon's unix socket (this or --tcp is required)"),
                ("tcp", "ADDR", "the daemon's TCP address"),
                ("timeout", "SECS", "reply timeout, at least 1 second"),
            ],
            RETRY_OPTS,
        ],
        word: Some("ping|stats|shutdown"), run: cmd_ctl,
    },
];

impl Command {
    fn options(&self) -> impl Iterator<Item = &'static Opt> {
        self.opts.iter().flat_map(|set| set.iter())
    }
}

/// The row `gc <name> <args>` runs.
fn command(name: &str, args: &[String]) -> Option<&'static Command> {
    let connect = name == "query" && args.iter().any(|a| a == "--connect");
    let name = if connect { "query --connect" } else { name };
    COMMANDS.iter().find(|c| c.name == name)
}

/// `cmd`'s usage, built from its row.
fn usage(cmd: &Command) -> String {
    let mut text = format!("usage: gc {}", cmd.name);
    if !cmd.opts.is_empty() {
        text.push_str(" [options]");
    }
    if let Some(word) = cmd.word {
        write!(text, " {word}").unwrap();
    }
    writeln!(text, "\n  {}", cmd.about).unwrap();
    let head = |&(name, value, _): &Opt| format!("--{name} {value}");
    let width = cmd.options().map(head).map(|h| h.len()).max().unwrap_or(0);
    for o in cmd.options() {
        writeln!(text, "  {:<width$}  {}", head(o), o.2).unwrap();
    }
    text
}

/// The subcommand list, for a missing or unknown subcommand.
fn overview() -> String {
    let mut text = String::from(
        "usage: gc <subcommand> [options]; gc <subcommand> --help lists its options\n",
    );
    for cmd in COMMANDS {
        writeln!(text, "  gc {:<16} {}", cmd.name, cmd.about).unwrap();
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, result) = match args.split_first() {
        None => (None, Err(CliError::usage("no subcommand given"))),
        Some((name, rest)) => match command(name, rest) {
            None => (
                None,
                Err(CliError::usage(format!("unknown subcommand {name:?}"))),
            ),
            Some(cmd) if rest.iter().any(|a| a == "--help") => {
                print!("{}", usage(cmd));
                return ExitCode::SUCCESS;
            }
            Some(cmd) => (Some(cmd), parse_opts(cmd, rest).and_then(|o| (cmd.run)(&o))),
        },
    };
    let (msg, code) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprint!("gc: {msg}\n{}", cmd.map_or_else(overview, usage));
            return ExitCode::from(2);
        }
        Err(CliError::Runtime(msg)) => (msg, 1),
        Err(CliError::Drift(msg)) => (msg, 3),
        Err(CliError::Unavailable(msg)) => (msg, 4),
    };
    eprintln!("gc: {msg}");
    ExitCode::from(code)
}

/// A parsed command line: the values of the options given (a bare flag's is
/// `"true"`) and the positional word.
struct Opts {
    values: HashMap<&'static str, String>,
    word: Option<String>,
}

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn req(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::usage(format!("missing required option --{key}")))
    }

    /// The positional word; `parse_opts` refuses a line that lacks the
    /// one its row takes.
    fn word(&self) -> &str {
        self.word.as_deref().unwrap_or("")
    }

    /// `--key`'s value as a number, if given.
    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("invalid --{key}: {v:?}")))
            })
            .transpose()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// `--supergraph` as a query kind; `None` keeps the default (subgraph,
    /// or the daemon's own kind for `--connect`).
    fn kind(&self) -> Option<QueryKind> {
        self.has("supergraph").then_some(QueryKind::Supergraph)
    }
}

/// Parses `args` against `cmd`'s row: `--key value` for an option with a
/// value placeholder, `--key` alone for a bare flag, and at most the one
/// positional word the row takes. Anything else is a usage error — a typo
/// (`--capcity 500`) or a flag from an older release must fail loudly, not
/// run with the default.
fn parse_opts(cmd: &Command, args: &[String]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        values: HashMap::new(),
        word: None,
    };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            if cmd.word.is_none() || opts.word.is_some() {
                return Err(CliError::usage(format!(
                    "unexpected positional argument {a:?} for gc {}",
                    cmd.name
                )));
            }
            opts.word = Some(a.clone());
            continue;
        };
        let &(name, placeholder, _) = cmd.options().find(|o| o.0 == key).ok_or_else(|| {
            CliError::usage(format!("unknown option --{key} for gc {}", cmd.name))
        })?;
        let value = match placeholder {
            "" => "true",
            _ => args
                .next()
                .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?,
        };
        if !admits(placeholder, value) {
            return Err(CliError::usage(format!(
                "invalid --{key} {value:?} ({placeholder})"
            )));
        }
        opts.values.insert(name, value.to_string());
    }
    if let Some(word) = cmd.word {
        let w = opts.word();
        if w.is_empty() {
            return Err(CliError::usage(format!("gc {} needs {word}", cmd.name)));
        }
        if !admits(word, w) {
            return Err(CliError::usage(format!(
                "unknown gc {} command {w:?} ({word})",
                cmd.name
            )));
        }
    }
    Ok(opts)
}

/// Whether `placeholder` admits `value`: a list of alternatives (`on|off`)
/// admits only those, any other placeholder any value.
fn admits(placeholder: &str, value: &str) -> bool {
    !placeholder.contains('|') || placeholder.split('|').any(|choice| choice == value)
}

fn cmd_generate(opts: &Opts) -> CliResult {
    let name = opts.req("profile")?;
    let profile = DatasetProfile::by_name(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown profile {name:?} (aids|pdbs|pcm|synthetic)"
        ))
    })?;
    let scale: f64 = opts.num("scale", 1.0)?;
    let seed: u64 = opts.num("seed", 42)?;
    let out = opts.req("out")?;
    let dataset = profile.scaled(scale).generate(seed);
    io::save_dataset(out, &dataset)
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!("wrote {} ({})", out, dataset.stats());
    Ok(())
}

fn cmd_stats(opts: &Opts) -> CliResult {
    let dataset = load_dataset(opts.word())?;
    println!("{}", dataset.stats());
    Ok(())
}

/// Loads a dataset file, pointing the error at the path (runtime error:
/// the invocation was fine, the file was not).
fn load_dataset(path: &str) -> Result<GraphDataset, CliError> {
    io::load_dataset(path).map_err(|e| CliError::Runtime(format!("cannot load {path}: {e}")))
}

fn cmd_workload(opts: &Opts) -> CliResult {
    let dataset = load_dataset(opts.req("dataset")?)?;
    let count: usize = opts.num("count", 500)?;
    let seed: u64 = opts.num("seed", 42)?;
    let out = opts.req("out")?;
    let kind = opts.req("kind")?;
    let workload = match kind {
        "zz" => generate_type_a(&dataset, &TypeAConfig::zz(1.4).count(count).seed(seed)),
        "zu" => generate_type_a(&dataset, &TypeAConfig::zu(1.4).count(count).seed(seed)),
        "uu" => generate_type_a(&dataset, &TypeAConfig::uu().count(count).seed(seed)),
        // b0|b20|b50: parse_opts admits no other kind.
        _ => {
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
fn build_method(opts: &Opts, dataset: &GraphDataset) -> Result<Method, CliError> {
    let name = opts.get("method").unwrap_or("ggsx");
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
fn builder_from_opts(opts: &Opts) -> Result<GraphCacheBuilder, CliError> {
    let usage = |e: PolicyError| CliError::usage(e.to_string());
    let mut builder = GraphCache::builder()
        .capacity(opts.num("capacity", 100)?)
        .window(opts.num("window", 20)?)
        .query_kind(opts.kind().unwrap_or_default())
        .background(opts.has("background"))
        .threads(opts.num("threads", 1)?)
        .shards(opts.num("shards", 0)?)
        // `--fragments on|off` takes a value, so `--fragments "$MODE"` stays
        // scriptable where a bare flag could only ever turn the layer on.
        .fragments(opts.get("fragments") == Some("on"));
    if let Some(spec) = opts.get("eviction") {
        registry::build_eviction(spec).map_err(usage)?;
        builder = builder.eviction(spec);
    }
    if let Some(spec) = opts.get("admission") {
        registry::build_admission(spec).map_err(usage)?;
        builder = builder.admission(spec);
    }
    if let Some(spec) = opts.get("fragment-eviction") {
        registry::build_eviction(spec).map_err(usage)?;
        builder = builder.fragment_eviction(spec);
    }
    if let Some(budget) = opts.opt_num("verify-budget")? {
        builder = builder.verify_budget(budget);
    }
    if let Some(budget) = opts.opt_num("fragment-budget")? {
        builder = builder.fragment_budget(budget);
    }
    Ok(builder)
}

/// Builds `builder`'s cache in front of `--method` over `dataset`, then
/// applies `--restore` (printing the same confirmation line `gc query`
/// always has).
fn build_cache(
    builder: GraphCacheBuilder,
    opts: &Opts,
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
/// policy shared by connect and `BUSY` handling, `attempts` retries unless
/// `--retries` says otherwise.
fn retry_policy(opts: &Opts, attempts: u32) -> Result<RetryPolicy, CliError> {
    let attempts = opts.num("retries", attempts)?;
    Ok(match opts.opt_num("retry-seed")? {
        Some(seed) => RetryPolicy::seeded(attempts, seed),
        None => RetryPolicy::with_attempts(attempts),
    })
}

/// One replayed query's line: answers, Method-M tests, hit-verification
/// tests and work, and how it hit — the same in process and over the wire.
fn query_line(i: usize, r: &QueryRecord) -> String {
    let exact = if r.exact_via_fingerprint {
        " (exact hit via fingerprint)"
    } else if r.exact_hit {
        " (exact hit)"
    } else {
        ""
    };
    format!(
        "query {i}: {} answers, {} tests | hit-verify: {} tests, {} work{exact}{}",
        r.answer_size,
        r.subiso_tests,
        r.gc_tests,
        r.budget_spent,
        if r.truncated { " [truncated]" } else { "" },
    )
}

fn cmd_query(opts: &Opts) -> CliResult {
    let builder = builder_from_opts(opts)?;
    let dataset = load_dataset(opts.req("dataset")?)?;
    let queries = load_dataset(opts.req("queries")?)?;

    if opts.has("no-cache") {
        if opts.has("threads") {
            eprintln!("gc: note: --threads is ignored with --no-cache (the baseline replays sequentially)");
        }
        let kind = opts.kind().unwrap_or_default();
        let method = build_method(opts, &dataset)?;
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

    let cache = build_cache(builder, opts, &dataset)?;

    // One client thread (the default) replays sequentially, the paper's
    // single-client setup; --threads N > 1 fans out via run_batch.
    let threads = cache.batch_threads();
    let t0 = std::time::Instant::now();
    let records: Vec<QueryRecord> = if threads == 1 {
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
        println!("{}", query_line(i, r));
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
    // run_batch never uses more workers than there are requests.
    println!(
        "wall clock {:.1} ms on {} client thread(s) ({:.0} queries/s)",
        wall.as_secs_f64() * 1e3,
        threads.min(records.len().max(1)),
        records.len() as f64 / wall.as_secs_f64().max(1e-9)
    );
    if opts.has("maint-stats") {
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
fn query_connect(opts: &Opts) -> CliResult {
    let target = opts.req("connect")?;
    let queries = load_dataset(opts.req("queries")?)?;
    let kind = opts.kind();
    let verify_budget = opts.opt_num("verify-budget")?;
    let timeout_ms = opts.opt_num("timeout-ms")?;
    let retry = retry_policy(opts, 0)?;
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
                println!("{}", query_line(i, &r.record));
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
fn cmd_serve(opts: &Opts) -> CliResult {
    let builder = builder_from_opts(opts)?;
    let listen = opts.get("listen").map(String::from);
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
        max_sessions: opts.num("max-sessions", 64)?,
        max_inflight: opts.num("max-inflight", 0)?,
        drain_timeout: Duration::from_secs(opts.num("drain-timeout", 10)?),
        persist_on_exit: opts.get("persist-on-exit").map(PathBuf::from),
        handle_signals: true,
        snapshot_every: opts.opt_num("snapshot-every")?.map(Duration::from_secs),
    };
    if cfg.snapshot_every.is_some() && cfg.persist_on_exit.is_none() {
        return Err(CliError::usage(
            "--snapshot-every needs --persist-on-exit DIR (the snapshot target)",
        ));
    }
    let dataset = load_dataset(opts.req("dataset")?)?;
    let graphs = dataset.len();
    let cache = build_cache(builder, opts, &dataset)?;
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
fn cmd_route(opts: &Opts) -> CliResult {
    let unix = PathBuf::from(opts.req("unix")?);
    let peers: Vec<PathBuf> = opts
        .req("peers")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect();
    if peers.is_empty() {
        return Err(CliError::usage(
            "gc route needs --peers SOCK,SOCK,... (one socket per peer, in peer-id order)",
        ));
    }
    // The router's default retry budget differs from gc ctl's: it should
    // ride out peer startup races and transient BUSY, so a
    // bounded-but-generous budget is the default.
    let retry = retry_policy(opts, 10)?;
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
fn cmd_ctl(opts: &Opts) -> CliResult {
    let target = match (opts.get("unix"), opts.get("tcp")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage("give --unix PATH or --tcp ADDR, not both"))
        }
        (Some(path), None) => format!("unix:{path}"),
        (None, Some(addr)) => addr.to_string(),
        (None, None) => return Err(CliError::usage("gc ctl needs --unix PATH or --tcp ADDR")),
    };
    // Validate the timeout before dialing: a bad flag is a usage error
    // even when the daemon is unreachable.
    let timeout = match opts.opt_num("timeout")? {
        Some(0) => return Err(CliError::usage("--timeout must be at least 1 second")),
        secs => secs.map(Duration::from_secs),
    };
    let mut client = connect_target(&target, &retry_policy(opts, 0)?)?;
    if let Some(timeout) = timeout {
        client
            .set_timeout(Some(timeout))
            .map_err(|e| CliError::Runtime(format!("cannot set timeout: {e}")))?;
    }
    match opts.word() {
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
        _ => unreachable!("parse_opts admits ping|stats|shutdown only"),
    }
    Ok(())
}

fn cmd_bench(opts: &Opts) -> CliResult {
    let suite_name = opts.get("suite").unwrap_or("smoke");
    let suite = Suite::from_name(suite_name).ok_or_else(|| {
        let available: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
        CliError::usage(format!(
            "unknown suite {suite_name:?} (available: {})",
            available.join(", ")
        ))
    })?;
    let tolerance: f64 = opts.num("tolerance", 5.0)?;
    // NaN/inf would make every drift comparison pass, silently disabling
    // the gate.
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(CliError::usage(
            "--tolerance must be a finite, non-negative percentage",
        ));
    }

    if opts.has("list") {
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

    let served = opts.has("serve");
    let routed: Option<usize> = opts.opt_num("route")?;
    if routed == Some(0) {
        return Err(CliError::usage("--route needs at least 1 peer"));
    }
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
        let text = report.to_json(opts.has("timings"));
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

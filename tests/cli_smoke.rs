//! End-to-end CLI smoke test: drives the compiled `gc` binary through the
//! full generate → workload → query → bench pipeline, validates the
//! emitted JSON against the harness parser, and pins the exit-code
//! contract (0 success / 1 runtime / 2 usage / 3 bench drift /
//! 4 daemon unreachable).

use gc_harness::{Json, MatrixReport};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Absolute path of the compiled `gc` binary under test.
fn gc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_gc")
}

/// Per-test scratch directory (tests run in parallel in one process, so
/// the name carries both the pid and the test's own tag).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gc-cli-smoke-{}-{tag}", std::process::id()));
        // A previous crashed run may have left the directory behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(gc_bin())
        .args(args)
        .output()
        .expect("spawn gc binary")
}

#[track_caller]
fn assert_exit(args: &[&str], expected: i32) -> Output {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(expected),
        "gc {:?}\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

/// The full pipeline a user runs by hand, plus JSON validation of the
/// bench output — every deterministic counter key the gate relies on must
/// be present in every scenario.
#[test]
fn pipeline_generate_workload_query_bench() {
    let tmp = Scratch::new("pipeline");
    let dataset = tmp.path("aids.txt");
    let queries = tmp.path("queries.txt");
    let json = tmp.path("bench.json");

    assert_exit(
        &[
            "generate",
            "--profile",
            "aids",
            "--scale",
            "0.01",
            "--seed",
            "7",
            "--out",
            &dataset,
        ],
        0,
    );
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "zz",
            "--count",
            "20",
            "--seed",
            "9",
            "--out",
            &queries,
        ],
        0,
    );
    let out = assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--capacity",
            "10",
            "--window",
            "5",
        ],
        0,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("20 queries"), "query summary: {stdout}");
    // Without --eviction / --admission the summary names the defaults:
    // nothing gates admission.
    assert!(
        stdout.contains("eviction hd | admission none"),
        "default policies: {stdout}"
    );

    assert_exit(&["bench", "--suite", "smoke", "--json", &json], 0);
    let text = std::fs::read_to_string(&json).expect("bench json exists");

    // The file parses with the harness parser and carries the schema.
    let report = MatrixReport::from_json(&text).expect("valid report");
    assert_eq!(report.suite, "smoke");
    assert!(!report.scenarios.is_empty());
    for scenario in &report.scenarios {
        for key in [
            "queries",
            "cache_assisted",
            "exact_hits",
            "exact_fp_hits",
            "empty_shortcuts",
            "truncated",
            "subiso_tests",
            "gc_tests",
            "budget_spent",
            "fragment_probes",
            "fragment_hits",
            "fragment_pruned",
            "maint_rounds",
            "entries_admitted",
            "entries_evicted",
            "shards_patched",
            "compactions",
            "fragments_built",
            "fragments_evicted",
            "cache_entries",
            "memory_bytes",
        ] {
            assert!(
                scenario.counter(key).is_some(),
                "scenario {} is missing counter {key}",
                scenario.name
            );
        }
        assert!(scenario.counter("queries").unwrap() > 0);
    }

    // The raw document is also plain JSON for any other tool.
    let doc = gc_harness::json::parse(&text).expect("plain json");
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
}

/// Two runs of the same suite write byte-identical files (deterministic
/// counters; wall-clock is excluded without --timings), a run checked
/// against its own output passes, and a perturbed baseline trips the gate
/// with the dedicated exit code.
#[test]
fn bench_is_deterministic_and_gates_drift() {
    let tmp = Scratch::new("determinism");
    let first = tmp.path("first.json");
    let second = tmp.path("second.json");

    assert_exit(&["bench", "--suite", "smoke", "--json", &first], 0);
    assert_exit(&["bench", "--suite", "smoke", "--json", &second], 0);
    let a = std::fs::read(&first).unwrap();
    let b = std::fs::read(&second).unwrap();
    assert_eq!(a, b, "smoke suite JSON must be bit-identical across runs");

    // Self-check passes even at zero tolerance.
    assert_exit(
        &[
            "bench",
            "--suite",
            "smoke",
            "--check",
            &first,
            "--tolerance",
            "0",
        ],
        0,
    );

    // Perturb one deterministic counter beyond tolerance: the gate must
    // fail with the drift exit code and name the counter.
    let report = MatrixReport::from_json(&String::from_utf8(a).unwrap()).unwrap();
    let victim = &report.scenarios[0];
    let old = victim.counter("subiso_tests").unwrap();
    let perturbed_text = std::fs::read_to_string(&first).unwrap().replace(
        &format!("\"subiso_tests\": {old}"),
        &format!("\"subiso_tests\": {}", old * 2 + 100),
    );
    let perturbed = tmp.path("perturbed.json");
    std::fs::write(&perturbed, perturbed_text).unwrap();
    let out = assert_exit(
        &[
            "bench",
            "--suite",
            "smoke",
            "--check",
            &perturbed,
            "--tolerance",
            "5",
        ],
        3,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("subiso_tests"),
        "drift names the counter: {stderr}"
    );

    // With --timings the advisory block appears; the file still parses
    // and the deterministic counters are unchanged.
    let timed = tmp.path("timed.json");
    assert_exit(
        &["bench", "--suite", "smoke", "--json", &timed, "--timings"],
        0,
    );
    let timed_text = std::fs::read_to_string(&timed).unwrap();
    assert!(timed_text.contains("\"advisory\""));
    let timed_report = MatrixReport::from_json(&timed_text).unwrap();
    assert_eq!(
        timed_report.scenarios[0].counters, report.scenarios[0].counters,
        "--timings must not change deterministic counters"
    );
}

/// The committed baseline matches what this build produces: the CI gate
/// (`--check benches/baseline.json`) is exercised here too, so a code
/// change that shifts counters fails locally before it fails in CI.
#[test]
fn committed_baseline_is_current() {
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/baseline.json");
    assert!(
        baseline.is_file(),
        "benches/baseline.json is missing — run scripts/refresh-baseline.sh"
    );
    assert_exit(
        &[
            "bench",
            "--suite",
            "smoke",
            "--check",
            baseline.to_str().unwrap(),
            "--tolerance",
            "5",
        ],
        0,
    );

    // Same bar for the fragment-cache suite and its own baseline.
    let fragments = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/baseline-fragments.json");
    assert!(
        fragments.is_file(),
        "benches/baseline-fragments.json is missing — run scripts/refresh-baseline.sh"
    );
    assert_exit(
        &[
            "bench",
            "--suite",
            "fragments",
            "--check",
            fragments.to_str().unwrap(),
            "--tolerance",
            "5",
        ],
        0,
    );
}

/// Exit-code contract: usage errors are 2, runtime failures are 1, and
/// stderr says what went wrong.
#[test]
fn exit_codes_are_distinct() {
    let tmp = Scratch::new("exit-codes");
    let dataset = tmp.path("d.txt");
    let queries = tmp.path("q.txt");
    assert_exit(
        &[
            "generate",
            "--profile",
            "aids",
            "--scale",
            "0.01",
            "--seed",
            "3",
            "--out",
            &dataset,
        ],
        0,
    );
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "uu",
            "--count",
            "5",
            "--seed",
            "3",
            "--out",
            &queries,
        ],
        0,
    );

    // Usage errors → 2.
    assert_exit(&[], 2);
    assert_exit(&["frobnicate"], 2);
    assert_exit(&["generate", "--profile", "nope", "--out", "x"], 2);
    assert_exit(&["generate", "--profile"], 2); // flag without its value
    assert_exit(&["query", "--queries", &queries], 2); // missing --dataset
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "zzz",
            "--out",
            "x",
        ],
        2,
    );
    assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--method",
            "nope",
        ],
        2,
    );
    assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--eviction",
            "nope",
        ],
        2,
    );
    assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--capacity",
            "many",
        ],
        2,
    );
    // An unknown fragment policy fails fast and lists what exists.
    let out = assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--fragment-eviction",
            "nope",
        ],
        2,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("available"),
        "unknown fragment policy lists the registry: {stderr}"
    );
    // --fragments only takes on|off.
    assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--fragments",
            "maybe",
        ],
        2,
    );
    assert_exit(&["bench", "--suite", "nope"], 2);
    assert_exit(&["bench", "--tolerance", "-1"], 2);
    // NaN/inf tolerances would disable the gate silently.
    assert_exit(&["bench", "--tolerance", "NaN"], 2);
    assert_exit(&["bench", "--tolerance", "inf"], 2);

    // Runtime failures → 1.
    assert_exit(&["stats", &tmp.path("missing.txt")], 1);
    assert_exit(
        &[
            "query",
            "--dataset",
            &tmp.path("missing.txt"),
            "--queries",
            &queries,
        ],
        1,
    );
    assert_exit(
        &[
            "bench",
            "--suite",
            "smoke",
            "--check",
            &tmp.path("missing.json"),
        ],
        1,
    );
    let restore_out = assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--restore",
            &tmp.path("no-such-save"),
        ],
        1,
    );
    let stderr = String::from_utf8_lossy(&restore_out.stderr);
    assert!(
        stderr.contains("cannot restore") && stderr.contains("no-such-save"),
        "restore error must name the directory: {stderr}"
    );

    // A malformed baseline is a runtime error, not drift.
    let bad = tmp.path("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    assert_exit(&["bench", "--suite", "smoke", "--check", &bad], 1);
}

/// Every subcommand rejects options it never reads (exit 2, naming the
/// option) before doing any work: a typo must not run with the default,
/// and a flag removed in an earlier release (`--verify-threads`, the
/// save-format selector, `--policy`) must not be swallowed by scripts that
/// still pass it. A bare `--admission` is a missing value, not a policy.
/// None of the paths below exist — rejection comes first.
#[test]
fn unknown_options_are_rejected_by_every_subcommand() {
    // The retired save-format flag, spelled in parts so a search for it
    // finds no live use.
    let format_flag = ["--persist", "-format"].concat();
    let cases: [(&[&str], &str); 13] = [
        (
            &[
                "query",
                "--dataset",
                "d",
                "--queries",
                "q",
                &format_flag,
                "text",
            ],
            &format_flag,
        ),
        (
            &[
                "serve",
                "--dataset",
                "d",
                "--unix",
                "s",
                &format_flag,
                "binary",
            ],
            &format_flag,
        ),
        (
            &[
                "query",
                "--dataset",
                "d",
                "--queries",
                "q",
                "--verify-threads",
                "2",
            ],
            "--verify-threads",
        ),
        (
            &[
                "query",
                "--connect",
                "unix:s",
                "--queries",
                "q",
                "--capacity",
                "5",
            ],
            "--capacity",
        ),
        (
            &[
                "generate",
                "--profile",
                "aids",
                "--out",
                "x",
                "--sclae",
                "2",
            ],
            "--sclae",
        ),
        (&["stats", "--verbose", "yes", "d"], "--verbose"),
        (
            &[
                "workload",
                "--dataset",
                "d",
                "--kind",
                "zz",
                "--out",
                "x",
                "--cuont",
                "5",
            ],
            "--cuont",
        ),
        (&["bench", "--suit", "smoke"], "--suit"),
        (
            &[
                "serve",
                "--dataset",
                "d",
                "--unix",
                "s",
                "--max-inflght",
                "2",
            ],
            "--max-inflght",
        ),
        (
            &["route", "--unix", "s", "--peers", "a,b", "--retrys", "1"],
            "--retrys",
        ),
        (&["ctl", "--unix", "s", "--timeot", "5", "ping"], "--timeot"),
        (
            &[
                "query",
                "--dataset",
                "d",
                "--queries",
                "q",
                "--policy",
                "hd",
            ],
            "--policy",
        ),
        (
            &["serve", "--dataset", "d", "--unix", "s", "--policy", "lru"],
            "--policy",
        ),
    ];
    for (args, flag) in cases {
        let out = assert_exit(args, 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "gc {args:?} must name {flag}: {stderr}"
        );
    }
    let out = assert_exit(
        &["query", "--dataset", "d", "--queries", "q", "--admission"],
        2,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--admission needs a value"),
        "a bare --admission names no policy: {stderr}"
    );
}

/// Every subcommand takes at most the positional word its usage names
/// (`FILE` for `stats`, the command for `ctl`): one more word is a usage
/// error naming it, not silently dropped. None of the paths exist —
/// rejection comes first.
#[test]
fn every_subcommand_refuses_a_stray_positional() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["generate", "--profile", "aids", "--out", "x", "0.5"],
            "0.5",
        ),
        (&["stats", "d", "extra"], "extra"),
        (
            &[
                "workload",
                "--dataset",
                "d",
                "--kind",
                "zz",
                "--out",
                "x",
                "stray",
            ],
            "stray",
        ),
        (
            &["query", "--dataset", "d", "--queries", "q", "stray"],
            "stray",
        ),
        (
            &["query", "--connect", "unix:s", "--queries", "q", "stray"],
            "stray",
        ),
        (&["bench", "--suite", "smoke", "stray"], "stray"),
        (
            &["serve", "--dataset", "d", "--unix", "s", "stray"],
            "stray",
        ),
        (
            &["route", "--unix", "s", "--peers", "a,b", "stray"],
            "stray",
        ),
        (&["ctl", "--unix", "s", "ping", "extra"], "extra"),
    ];
    for (args, word) in cases {
        let out = assert_exit(args, 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected positional argument \"{word}\"")),
            "gc {args:?} must name {word}: {stderr}"
        );
    }
}

/// `gc <cmd> --help` exits 0 and prints every option the subcommand reads
/// (and, for `query --connect`, none of the cache options it does not).
#[test]
fn help_lists_every_option_of_each_subcommand() {
    const CACHE: &str = "method eviction admission capacity window threads shards \
        verify-budget fragments fragment-budget fragment-eviction supergraph background restore";
    let rows: [(&[&str], String); 9] = [
        (&["generate"], "profile scale seed out".into()),
        (&["stats"], String::new()),
        (&["workload"], "dataset kind count seed out".into()),
        (
            &["query"],
            format!("{CACHE} dataset queries no-cache maint-stats save"),
        ),
        (
            &["query", "--connect", "unix:s"],
            "connect queries supergraph verify-budget retries retry-seed timeout-ms".into(),
        ),
        (
            &["bench"],
            "suite json check tolerance timings list serve route".into(),
        ),
        (
            &["serve"],
            format!(
                "{CACHE} dataset listen unix max-sessions max-inflight drain-timeout \
                 persist-on-exit snapshot-every peer-id"
            ),
        ),
        (&["route"], "unix peers retries retry-seed".into()),
        (&["ctl"], "unix tcp timeout retries retry-seed".into()),
    ];
    for (cmd, opts) in rows {
        let args: Vec<&str> = cmd.iter().copied().chain(["--help"]).collect();
        let out = assert_exit(&args, 0);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("usage: gc {}", cmd[0])),
            "{stdout}"
        );
        for o in opts.split_whitespace() {
            assert!(
                stdout.contains(&format!("--{o} ")),
                "gc {args:?} must list --{o}: {stdout}"
            );
        }
    }
    let out = assert_exit(&["stats", "--help"], 0);
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: gc stats FILE"));
    let out = assert_exit(&["ctl", "--help"], 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("ping|stats|shutdown"));
    let out = assert_exit(&["query", "--connect", "unix:s", "--help"], 0);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("--capacity"));
    // Without a subcommand, the usage error lists them all.
    let out = assert_exit(&[], 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for cmd in [
        "generate", "stats", "workload", "query", "bench", "serve", "route", "ctl",
    ] {
        assert!(stderr.contains(&format!("gc {cmd} ")), "{stderr}");
    }
}

/// Exit-code contract for the daemon-facing subcommands (`serve`, `ctl`,
/// `query --connect`, `bench --serve`): bad invocations are usage errors
/// (2), unreachable daemons are the dedicated unavailable code (4) —
/// distinct from in-session runtime failures (1). The happy path lives
/// in tests/serve_smoke.rs and scripts/serve-smoke.sh.
#[test]
fn serve_and_ctl_exit_codes() {
    let tmp = Scratch::new("serve-exit-codes");
    let dataset = tmp.path("d.txt");
    let queries = tmp.path("q.txt");
    assert_exit(
        &[
            "generate",
            "--profile",
            "aids",
            "--scale",
            "0.01",
            "--seed",
            "3",
            "--out",
            &dataset,
        ],
        0,
    );
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "zz",
            "--count",
            "5",
            "--seed",
            "3",
            "--out",
            &queries,
        ],
        0,
    );

    // Usage errors → 2.
    let sock = tmp.path("never-bound.sock");
    // serve without any listener.
    assert_exit(&["serve", "--dataset", &dataset], 2);
    // serve without a dataset.
    assert_exit(&["serve", "--unix", &sock], 2);
    // serve with an unknown policy fails before binding anything.
    assert_exit(
        &[
            "serve",
            "--dataset",
            &dataset,
            "--unix",
            &sock,
            "--eviction",
            "nope",
        ],
        2,
    );
    // ... and the fragment-store policy gets the same early validation.
    assert_exit(
        &[
            "serve",
            "--dataset",
            &dataset,
            "--unix",
            &sock,
            "--fragment-eviction",
            "nope",
        ],
        2,
    );
    // ctl without a target / with two targets / with an unknown command.
    assert_exit(&["ctl", "ping"], 2);
    assert_exit(&["ctl", "--unix", &sock, "--tcp", "localhost:1", "ping"], 2);
    assert_exit(&["ctl", "--unix", &sock, "frobnicate"], 2);
    assert_exit(&["ctl", "--unix", &sock], 2); // no command at all
                                               // query --connect with a malformed target or missing --queries.
    assert_exit(
        &["query", "--connect", "not-a-target", "--queries", &queries],
        2,
    );
    assert_exit(&["query", "--connect", &format!("unix:{sock}")], 2);
    // --timeout must be a positive number of seconds.
    assert_exit(&["ctl", "--unix", &sock, "--timeout", "0", "ping"], 2);
    assert_exit(&["ctl", "--unix", &sock, "--timeout", "soon", "ping"], 2);
    // --snapshot-every without a snapshot target is a usage error.
    assert_exit(
        &[
            "serve",
            "--dataset",
            &dataset,
            "--unix",
            &sock,
            "--snapshot-every",
            "5",
        ],
        2,
    );

    // Unreachable daemon → 4 (distinct from in-session failures at 1), so
    // scripts can tell "daemon down, maybe retry" from "request failed".
    let out = assert_exit(&["ctl", "--unix", &sock, "ping"], 4);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot connect"),
        "connect failure names the problem: {stderr}"
    );
    // A timeout/retry budget doesn't change the classification.
    assert_exit(&["ctl", "--unix", &sock, "--timeout", "1", "ping"], 4);
    assert_exit(
        &[
            "query",
            "--connect",
            &format!("unix:{sock}"),
            "--queries",
            &queries,
            "--retries",
            "1",
        ],
        4,
    );
    assert_exit(
        &[
            "query",
            "--connect",
            &format!("unix:{sock}"),
            "--queries",
            &queries,
        ],
        4,
    );
    // serve with a dataset that doesn't exist fails before binding, so the
    // daemon never starts and the test can't hang on it.
    assert_exit(
        &[
            "serve",
            "--dataset",
            &tmp.path("missing.txt"),
            "--unix",
            &sock,
        ],
        1,
    );
}

/// Save → restore round-trips through the CLI (the happy path the
/// restore error message points at).
#[test]
fn save_then_restore_succeeds() {
    let tmp = Scratch::new("save-restore");
    let dataset = tmp.path("d.txt");
    let queries = tmp.path("q.txt");
    let saved = tmp.path("saved-cache");
    assert_exit(
        &[
            "generate",
            "--profile",
            "aids",
            "--scale",
            "0.01",
            "--seed",
            "5",
            "--out",
            &dataset,
        ],
        0,
    );
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "zz",
            "--count",
            "10",
            "--seed",
            "5",
            "--out",
            &queries,
        ],
        0,
    );
    assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--save",
            &saved,
        ],
        0,
    );
    let out = assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--restore",
            &saved,
        ],
        0,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("restored"), "{stdout}");
    assert!(std::path::Path::new(&saved).join("snapshot.bin").is_file());
}

/// `gc query --restore` on a directory holding only a text save of an
/// earlier release exits 1 and says text saves are no longer read.
#[test]
fn restore_from_text_save_is_refused() {
    let tmp = Scratch::new("text-restore");
    let dataset = tmp.path("d.txt");
    let queries = tmp.path("q.txt");
    let saved = tmp.path("text-save");
    assert_exit(
        &[
            "generate",
            "--profile",
            "aids",
            "--scale",
            "0.01",
            "--seed",
            "5",
            "--out",
            &dataset,
        ],
        0,
    );
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "zz",
            "--count",
            "5",
            "--seed",
            "5",
            "--out",
            &queries,
        ],
        0,
    );
    std::fs::create_dir_all(&saved).unwrap();
    std::fs::write(format!("{saved}/entries.txt"), "next_serial 1\n").unwrap();
    std::fs::write(format!("{saved}/stats.txt"), "").unwrap();
    let out = assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--restore",
            &saved,
        ],
        1,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("text saves are no longer read"),
        "the refusal must say why: {stderr}"
    );
}

/// The fragment flags work end-to-end through the CLI: `--fragments on`
/// reports the fragment-cache summary and the maintenance breakdown
/// carries the fragment-upkeep phase.
#[test]
fn fragments_flags_smoke() {
    let tmp = Scratch::new("fragments");
    let dataset = tmp.path("d.txt");
    let queries = tmp.path("q.txt");
    assert_exit(
        &[
            "generate",
            "--profile",
            "aids",
            "--scale",
            "0.05",
            "--seed",
            "5",
            "--out",
            &dataset,
        ],
        0,
    );
    assert_exit(
        &[
            "workload",
            "--dataset",
            &dataset,
            "--kind",
            "zz",
            "--count",
            "30",
            "--seed",
            "5",
            "--out",
            &queries,
        ],
        0,
    );
    let out = assert_exit(
        &[
            "query",
            "--dataset",
            &dataset,
            "--queries",
            &queries,
            "--method",
            "vf2",
            "--fragments",
            "on",
            "--fragment-budget",
            "65536",
            "--fragment-eviction",
            "slru:protected=0.5",
            "--window",
            "5",
            "--maint-stats",
        ],
        0,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fragment cache:"),
        "fragment summary line: {stdout}"
    );
    assert!(
        stdout.contains("fragments built"),
        "maint-stats fragment line: {stdout}"
    );
    assert!(
        stdout.contains("eviction slru"),
        "fragment eviction name echoed: {stdout}"
    );

    // Off stays silent: no fragment summary, counters absent from output.
    let out = assert_exit(&["query", "--dataset", &dataset, "--queries", &queries], 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("fragment cache:"), "{stdout}");
}

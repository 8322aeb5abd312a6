//! `perf` — the repo benchmark: five deterministic replays, quiet-pass
//! estimators, per-layer attribution. See `perf/README.md`.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perf trace NAME [--seed N] [--seconds S]      same as --trace 1
//! perf check [--seed N] [--seconds S] [--runs K] two sets back to back
//! perf manifest                                  prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the readable table goes
//! to standard error.

#![deny(unsafe_code)]

mod layers;
mod measure;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use measure::{Metrics, Quiet, END_TO_END};
use replay::Scratch;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Path as ExecPath, WorkloadDef};

/// The outcome of one run, as printed.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that came out so is
                // a bug the failed count cannot carry, so it reads 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_table(&self, title: &str) {
        eprintln!("{title}");
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<36} {value:>16.4} {unit}");
        }
        eprintln!(
            "  {:<36} {:>16}\n  {:<36} {:>16}",
            "ops_attempted", self.attempted, "ops_failed", self.failed
        );
    }
}

fn report_failures(quiet: &Quiet, what: &str) {
    for (r, pass) in quiet.passes.iter().enumerate() {
        for (i, why) in &pass.failures {
            eprintln!("  FAILED {what} pass {r} query {i}: {why}");
        }
    }
    if quiet.drift > 0 {
        eprintln!(
            "  FAILED {what}: {} (pass, query) pairs did different work than pass 0",
            quiet.drift
        );
    }
}

/// The timed run: quiet passes only, end-to-end metrics.
fn run_timed(def: &WorkloadDef, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = replay::prepare(def, seed, None)?;
    let scratch = Scratch::new()?;
    let mut failed = 0;
    let mut attempted = 0;
    // Served and routed streams must do the work of the in-process replay
    // query for query; one in-process pass is the reference.
    let reference = if def.path == ExecPath::InProcess {
        None
    } else {
        let r = measure::run_quiet(&inputs, ExecPath::InProcess, &scratch, Duration::ZERO, 1)?;
        report_failures(&r, "in-process reference");
        attempted += r.attempted();
        failed += r.failed();
        Some(r)
    };
    let quiet = measure::run_quiet(
        &inputs,
        def.path,
        &scratch,
        Duration::from_secs_f64(seconds),
        MIN_PASSES,
    )?;
    report_failures(&quiet, def.name);
    attempted += quiet.attempted();
    failed += quiet.failed();
    if let Some(reference) = &reference {
        let drift = quiet.drift_against(reference);
        if drift > 0 {
            eprintln!(
                "  FAILED {}: {drift} queries did different work than in-process",
                def.name
            );
        }
        failed += drift;
    }
    eprintln!(
        "{}: seed {seed}, {} queries x {} passes, {} distinct",
        def.name,
        inputs.stream.len(),
        quiet.passes.len(),
        inputs.oracle.distinct
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: quiet.end_to_end(),
    })
}

/// Fewest passes a timed run merges, whatever the time budget says.
const MIN_PASSES: usize = 3;

/// The traced run: fewer quiet passes (they are the baseline the layers
/// are read against), the same stream through the simpler paths for
/// attribution, then one pass with spans. Per-layer metrics only.
fn run_traced(def: &WorkloadDef, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tracer = trace::Tracer::new();
    let inputs = replay::prepare(def, seed, Some(&mut tracer))?;
    let scratch = Scratch::new()?;
    // Method M's index build on its own, the quietest of three:
    // `build_cache` does one inside, and from outside only the sum shows.
    let index_build = (0..3)
        .map(|_| {
            let dataset = inputs.restore_target.method().dataset();
            let t = std::time::Instant::now();
            std::hint::black_box(inputs.scenario.method.build(dataset));
            t.elapsed()
        })
        .min()
        .expect("three builds");
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let quiet_of =
        |path: ExecPath, budget: Duration| measure::run_quiet(&inputs, path, &scratch, budget, 2);

    let (own_share, other_share) = match def.path {
        ExecPath::InProcess => (0.6, 0.0),
        ExecPath::Served => (0.4, 0.25),
        ExecPath::Routed(_) => (0.3, 0.15),
    };
    let quiet = quiet_of(def.path, share(own_share))?;
    let in_process = match def.path {
        ExecPath::InProcess => None,
        _ => Some(quiet_of(ExecPath::InProcess, share(other_share))?),
    };
    let served = match def.path {
        ExecPath::Routed(_) => Some(quiet_of(ExecPath::Served, share(other_share))?),
        _ => None,
    };
    let traced = trace::run_traced(&mut tracer, &inputs, &inputs.scenario, def.path, &scratch)?;
    // No end-to-end workload turns the fragment layer on; one traced
    // pass of the worst case for whole-query hits attributes it.
    let fragments = if def.name == "cold-uniform" {
        let mut scenario = inputs.scenario.clone();
        scenario.fragments = true;
        Some(trace::run_traced(
            &mut tracer,
            &inputs,
            &scenario,
            ExecPath::InProcess,
            &scratch,
        )?)
    } else {
        None
    };

    let mut attempted = traced.records.len();
    let mut failed = traced.failed;
    for (what, run) in [
        (def.name, Some(&quiet)),
        ("in-process", in_process.as_ref()),
        ("served", served.as_ref()),
    ] {
        if let Some(run) = run {
            report_failures(run, what);
            attempted += run.attempted();
            failed += run.failed();
        }
    }
    if let Some(t) = &fragments {
        attempted += t.records.len();
        failed += t.failed;
    }
    if let Some(reference) = &in_process {
        failed += quiet.drift_against(reference);
    }

    let metrics = layers::per_layer(&layers::Evidence {
        inputs: &inputs,
        quiet: &quiet,
        in_process: in_process.as_ref().unwrap_or(&quiet),
        served: served.as_ref(),
        traced: &traced,
        fragments: fragments.as_ref(),
        tracer: &tracer,
        index_build,
    });
    let out = replay::out_dir().join(format!("trace-{}.jsonl", def.name));
    tracer
        .write_jsonl(&out)
        .map_err(|e| format!("cannot write {out:?}: {e}"))?;
    eprintln!("{}: {} spans in {}", def.name, tracer.len(), out.display());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

#[derive(Clone, Copy, PartialEq)]
enum Command {
    Run,
    Check,
    Manifest,
}

struct Args {
    command: Command,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Run,
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        runs: 1,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.to_string()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "check" => args.command = Command::Check,
            "manifest" => args.command = Command::Manifest,
            "trace" => {
                args.trace = true;
                args.workload = Some(value("trace")?.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The seconds one run measures for, `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, generated from the tables the runs report from so
/// the two cannot disagree (`perf manifest > BENCHMARK.json`; a unit test
/// compares the committed file).
fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = workloads::all()
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |m: &measure::MetricDef, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name, m.unit, m.better
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        list(layers::PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

/// Runs one workload in a child process (so peak RSS is per workload) and
/// returns its end-to-end metrics.
fn run_child(workload: &str, args: &Args, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let json = gc_harness::json::parse(line).map_err(|e| format!("{workload}: bad result: {e}"))?;
    if !output.status.success() || json.get("failed").and_then(|f| f.as_u64()) != Some(0) {
        return Err(format!("{workload}: run failed: {line}"));
    }
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or_else(|| format!("{workload}: no metrics"))?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(|v| v.as_f64());
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}/{name}: no value"))
        })
        .collect()
}

/// Two full sets back to back, `--runs` seeds each (the same seeds in
/// both sets). Passes when, for every workload and end-to-end metric, the
/// second median is not worse than the first by more than the metric's
/// bound and, given at least two runs per set, each set's interquartile
/// spread stays within the bound too (`setup_s` excepted, as in the
/// benchmark contract).
fn check(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::all().iter().map(|w| w.name).collect(),
    };
    // samples[set][workload][metric] = one value per run
    let mut samples: Vec<Vec<Vec<Vec<f64>>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for name in &names {
            let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
            for run in 0..args.runs {
                let metrics = run_child(name, args, args.seed + run as u64)?;
                for (slot, def) in per_metric.iter_mut().zip(END_TO_END.iter()) {
                    let value = metrics.iter().find(|(n, _)| n == def.name);
                    slot.push(
                        value
                            .ok_or_else(|| format!("{name}: {} missing", def.name))?
                            .1,
                    );
                }
                eprintln!("set {} {name} run {} done", set + 1, run + 1);
            }
            per_workload.push(per_metric);
        }
        samples.push(per_workload);
    }
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            0.0
        } else {
            stats::iqr_over_median(v)
        }
    };
    let mut ok = true;
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound"
    );
    for (w, name) in names.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (first, second) = (&samples[0][w][m], &samples[1][w][m]);
            let (a, b) = (stats::median_f64(first), stats::median_f64(second));
            let worse = if def.better == "lower" {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let spreads = [spread(first), spread(second)];
            let steady = def.name == "setup_s" || spreads.iter().all(|&s| s <= def.bound);
            let verdict = match (worse <= def.bound, steady) {
                (true, true) => "ok",
                (false, _) => "MEDIANS DIFFER",
                (true, false) => "SPREAD",
            };
            ok &= verdict == "ok";
            println!(
                "{name:<14} {:<24} {a:>12.4} {b:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                def.name,
                worse * 100.0,
                spreads[0] * 100.0,
                spreads[1] * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command {
        Command::Manifest => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Command::Check => check(&args).map(|ok| if ok { 0 } else { 1 }),
        Command::Run => {
            let Some(def) = args.workload.as_deref().and_then(workloads::by_name) else {
                eprintln!(
                    "perf: --workload must be one of: {}",
                    workloads::all()
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            };
            match sys::pin_to_one_cpu() {
                Some(cpu) => eprintln!("{}: pinned to CPU {cpu}", def.name),
                None => eprintln!("{}: could not pin to one CPU, running free", def.name),
            }
            let outcome = if args.trace {
                run_traced(&def, args.seed, args.seconds)
            } else {
                run_timed(&def, args.seed, args.seconds)
            };
            outcome.map(|outcome| {
                outcome.print_table(def.name);
                println!("{}", outcome.to_json());
                // A wrong answer fails the command, after the result line
                // so the failure count is on record.
                if outcome.failed == 0 {
                    0
                } else {
                    1
                }
            })
        }
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
        let doc = gc_harness::json::parse(&manifest()).expect("valid JSON");
        assert_eq!(
            doc.get("per_layer")
                .and_then(|l| l.as_arr())
                .map(<[_]>::len),
            Some(71)
        );
        for w in workloads::all() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn arguments_of_the_benchmark_contract_parse() {
        let argv: Vec<String> = "--workload routed-2 --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("routed-2"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }

    #[test]
    fn result_line_is_valid_json_with_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("qps", 1234.5, "1/s"), ("broken", f64::NAN, "us")],
        };
        let doc = gc_harness::json::parse(&outcome.to_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let qps = doc.get("metrics").and_then(|m| m.get("qps")).unwrap();
        assert_eq!(qps.get("value").and_then(|v| v.as_f64()), Some(1234.5));
        assert_eq!(qps.get("unit").and_then(|v| v.as_str()), Some("1/s"));
    }
}

//! Machine-readable scenario reports: a versioned JSON schema for
//! `BENCH_*.json` files, and the deterministic-counter comparison behind
//! `gc bench --check`.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "smoke",
//!   "scenarios": [
//!     {
//!       "name": "smoke-aids-zz-hd",
//!       "config": { "dataset": "AIDS", "...": "..." },
//!       "counters": { "queries": 60, "cache_assisted": 31, "...": 0 },
//!       "advisory": { "wall_ms": 12.75 }
//!     }
//!   ]
//! }
//! ```
//!
//! `counters` holds only values that are a pure function of the scenario's
//! seeds (see [`gc_core::RunCounters`]); `advisory` holds wall-clock (plus
//! `reference_ms` when the scenario has a reference arm) and is
//! both optional and **never** gated — [`MatrixReport::compare`] ignores
//! it entirely. `gc bench --json` omits `advisory` unless `--timings` is
//! passed, which keeps the default output bit-identical across runs.

use crate::json::{parse, Json};

/// The report format version. Bump on any change to field names, counter
/// names, or their meaning; `--check` refuses to compare across versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name — the baseline comparison key.
    pub name: String,
    /// Configuration echo (`Scenario::config_echo`), purely descriptive.
    pub config: Vec<(String, String)>,
    /// Deterministic counters in schema order.
    pub counters: Vec<(String, u64)>,
    /// Advisory wall-clock for the whole scenario (generate + replay),
    /// milliseconds. Never compared by the gate.
    pub wall_ms: f64,
    /// Advisory wall-clock of the reference arm's replay, milliseconds,
    /// when the scenario has one. Never compared by the gate.
    pub reference_ms: Option<f64>,
}

impl ScenarioReport {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The paper's speed-ups (§7.2) when the scenario ran a reference arm:
    /// reference ÷ cached sub-iso tests, and reference verification work
    /// ÷ (cached verification work + the cache's own hit-verification
    /// work, `budget_spent`).
    pub fn speedups(&self) -> Option<(f64, f64)> {
        let tests = speedup(
            self.counter("reference_subiso_tests")?,
            self.counter("subiso_tests")?,
        );
        let work = speedup(
            self.counter("reference_verify_work")?,
            self.counter("verify_work")? + self.counter("budget_spent")?,
        );
        Some((tests, work))
    }
}

/// `reference / cached`; a cached side that did no work is infinitely
/// faster, unless the reference did none either.
fn speedup(reference: u64, cached: u64) -> f64 {
    match (reference, cached) {
        (0, 0) => 1.0,
        (_, 0) => f64::INFINITY,
        _ => reference as f64 / cached as f64,
    }
}

/// A full suite run: what `gc bench --json` writes and `--check` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Schema version of this report.
    pub schema_version: u64,
    /// Suite name the scenarios came from.
    pub suite: String,
    /// Per-scenario results, in suite order.
    pub scenarios: Vec<ScenarioReport>,
}

/// One gated counter that moved beyond tolerance (or disappeared).
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Scenario name.
    pub scenario: String,
    /// Counter name, or a pseudo-entry (`"<scenario>"`) when a whole
    /// scenario is missing from the current run.
    pub counter: String,
    /// Baseline value (`None` when the counter is new).
    pub baseline: Option<u64>,
    /// Current value (`None` when the counter vanished).
    pub current: Option<u64>,
    /// Relative drift in percent, against `max(baseline, 1)`.
    pub delta_pct: f64,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => write!(
                f,
                "{}/{}: baseline {} -> current {} ({:+.2}%)",
                self.scenario,
                self.counter,
                b,
                c,
                if c >= b {
                    self.delta_pct
                } else {
                    -self.delta_pct
                }
            ),
            (Some(b), None) => write!(
                f,
                "{}/{}: baseline {} but missing from the current run",
                self.scenario, self.counter, b
            ),
            (None, Some(c)) => write!(
                f,
                "{}/{}: new counter {} absent from the baseline",
                self.scenario, self.counter, c
            ),
            (None, None) => write!(f, "{}/{}: missing everywhere", self.scenario, self.counter),
        }
    }
}

impl MatrixReport {
    /// Serializes to the versioned JSON schema. `include_timings` adds the
    /// per-scenario `advisory` object; leave it off for byte-stable
    /// output (baselines, determinism checks).
    pub fn to_json(&self, include_timings: bool) -> String {
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(s.name.clone())),
                    (
                        "config".to_string(),
                        Json::Obj(
                            s.config
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                    (
                        "counters".to_string(),
                        Json::Obj(
                            s.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                                .collect(),
                        ),
                    ),
                ];
                if include_timings {
                    // Round to centi-milliseconds: enough for a human,
                    // stable to print.
                    let ms = |v: f64| Json::Float((v * 100.0).round() / 100.0);
                    let mut advisory = vec![("wall_ms".to_string(), ms(s.wall_ms))];
                    if let Some(v) = s.reference_ms {
                        advisory.push(("reference_ms".to_string(), ms(v)));
                    }
                    fields.push(("advisory".to_string(), Json::Obj(advisory)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".to_string(), Json::Int(self.schema_version)),
            ("suite".to_string(), Json::Str(self.suite.clone())),
            ("scenarios".to_string(), Json::Arr(scenarios)),
        ])
        .to_pretty()
    }

    /// Parses a report back from JSON, validating the schema version.
    /// Unknown fields (e.g. `advisory`) are tolerated and dropped.
    pub fn from_json(text: &str) -> Result<MatrixReport, String> {
        let doc = parse(text)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("report is missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "report schema_version {version} is not the supported {SCHEMA_VERSION}"
            ));
        }
        let suite = doc
            .get("suite")
            .and_then(Json::as_str)
            .ok_or("report is missing suite")?
            .to_string();
        let mut scenarios = Vec::new();
        for (i, s) in doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("report is missing scenarios")?
            .iter()
            .enumerate()
        {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("scenario {i} is missing name"))?
                .to_string();
            let config = s
                .get("config")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("scenario {name:?} is missing config"))?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or_else(|| format!("scenario {name:?} config {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let counters = s
                .get("counters")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("scenario {name:?} is missing counters"))?
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("scenario {name:?} counter {k:?} is not a u64"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let advisory = |key: &str| {
                s.get("advisory")
                    .and_then(|a| a.get(key))
                    .and_then(Json::as_f64)
            };
            scenarios.push(ScenarioReport {
                name,
                config,
                counters,
                wall_ms: advisory("wall_ms").unwrap_or(0.0),
                reference_ms: advisory("reference_ms"),
            });
        }
        Ok(MatrixReport {
            schema_version: version,
            suite,
            scenarios,
        })
    }

    /// Compares `current` against `baseline`, returning every gated
    /// counter whose relative drift exceeds `tolerance_pct` percent.
    ///
    /// * Scenarios are matched by name; a baseline scenario missing from
    ///   the current run is a drift. Extra current scenarios are ignored
    ///   (new scenarios land before their baseline refresh).
    /// * Counters are matched by name within a scenario; missing and new
    ///   counters are both drifts (a silently vanishing counter must not
    ///   pass the gate).
    /// * Drift is `|current - baseline| / max(baseline, 1) * 100`, so
    ///   zero baselines gate on absolute movement.
    /// * Wall-clock is advisory and never consulted.
    pub fn compare(
        baseline: &MatrixReport,
        current: &MatrixReport,
        tolerance_pct: f64,
    ) -> Vec<Drift> {
        let mut drifts = Vec::new();
        for base in &baseline.scenarios {
            let Some(cur) = current.scenarios.iter().find(|s| s.name == base.name) else {
                drifts.push(Drift {
                    scenario: base.name.clone(),
                    counter: "<scenario>".into(),
                    baseline: Some(base.counters.iter().map(|(_, v)| *v).sum()),
                    current: None,
                    delta_pct: f64::INFINITY,
                });
                continue;
            };
            for (name, bval) in &base.counters {
                match cur.counter(name) {
                    None => drifts.push(Drift {
                        scenario: base.name.clone(),
                        counter: name.clone(),
                        baseline: Some(*bval),
                        current: None,
                        delta_pct: f64::INFINITY,
                    }),
                    Some(cval) => {
                        let delta_pct =
                            (cval.abs_diff(*bval)) as f64 / (*bval).max(1) as f64 * 100.0;
                        if delta_pct > tolerance_pct {
                            drifts.push(Drift {
                                scenario: base.name.clone(),
                                counter: name.clone(),
                                baseline: Some(*bval),
                                current: Some(cval),
                                delta_pct,
                            });
                        }
                    }
                }
            }
            for (name, cval) in &cur.counters {
                if base.counter(name).is_none() {
                    drifts.push(Drift {
                        scenario: base.name.clone(),
                        counter: name.clone(),
                        baseline: None,
                        current: Some(*cval),
                        delta_pct: f64::INFINITY,
                    });
                }
            }
        }
        drifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatrixReport {
        MatrixReport {
            schema_version: SCHEMA_VERSION,
            suite: "smoke".into(),
            scenarios: vec![
                ScenarioReport {
                    name: "a".into(),
                    config: vec![("dataset".into(), "AIDS".into())],
                    counters: vec![("queries".into(), 60), ("gc_tests".into(), 100)],
                    wall_ms: 12.345,
                    reference_ms: Some(40.004),
                },
                ScenarioReport {
                    name: "b".into(),
                    config: vec![],
                    counters: vec![("queries".into(), 0)],
                    wall_ms: 0.0,
                    reference_ms: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_without_timings() {
        let r = sample();
        let text = r.to_json(false);
        let back = MatrixReport::from_json(&text).unwrap();
        // Wall-clock is dropped by design; everything else survives.
        assert_eq!(back.suite, r.suite);
        assert_eq!(back.scenarios.len(), 2);
        assert_eq!(back.scenarios[0].counters, r.scenarios[0].counters);
        assert_eq!(back.scenarios[0].config, r.scenarios[0].config);
        assert_eq!(back.scenarios[0].wall_ms, 0.0);
        // Byte-stable: re-serializing reproduces the exact bytes.
        assert_eq!(back.to_json(false), text);
    }

    #[test]
    fn json_round_trip_with_timings() {
        let r = sample();
        let back = MatrixReport::from_json(&r.to_json(true)).unwrap();
        assert!((back.scenarios[0].wall_ms - 12.35).abs() < 1e-9);
        assert_eq!(back.scenarios[0].reference_ms, Some(40.0));
        assert_eq!(back.scenarios[1].reference_ms, None);
    }

    #[test]
    fn speedup_definition() {
        let mut r = sample().scenarios.remove(0);
        assert_eq!(r.speedups(), None, "no reference arm, no speed-up");
        r.counters.extend(
            [
                ("subiso_tests", 5),
                ("verify_work", 300),
                ("budget_spent", 100),
                ("reference_subiso_tests", 20),
                ("reference_verify_work", 1_600),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
        // Tests: 20 / 5. Work: the cache's hit verification counts on the
        // cached side, 1600 / (300 + 100).
        assert_eq!(r.speedups(), Some((4.0, 4.0)));
    }

    #[test]
    fn zero_cached_work_speedup_is_infinite() {
        assert!(speedup(10, 0).is_infinite());
        assert_eq!(speedup(0, 0), 1.0);
        assert_eq!(speedup(0, 4), 0.0);
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = sample().to_json(false).replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = MatrixReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn malformed_reports_rejected() {
        for bad in [
            "{}",
            "{\"schema_version\": 1}",
            "{\"schema_version\": 1, \"suite\": \"s\"}",
            "{\"schema_version\": 1, \"suite\": \"s\", \"scenarios\": [{}]}",
            "{\"schema_version\": 1, \"suite\": \"s\", \"scenarios\": [{\"name\": \"x\"}]}",
        ] {
            assert!(MatrixReport::from_json(bad).is_err(), "{bad:?}");
        }
        // A counter that is not a u64 is a schema violation.
        let text = sample().to_json(false).replace("100", "-1");
        assert!(MatrixReport::from_json(&text).is_err());
    }

    #[test]
    fn identical_reports_have_no_drift() {
        let r = sample();
        assert!(MatrixReport::compare(&r, &r, 0.0).is_empty());
    }

    #[test]
    fn drift_beyond_tolerance_detected() {
        let base = sample();
        let mut cur = sample();
        cur.scenarios[0].counters[1].1 = 110; // 100 -> 110 = +10%
        assert!(MatrixReport::compare(&base, &cur, 10.0).is_empty());
        let drifts = MatrixReport::compare(&base, &cur, 9.0);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].counter, "gc_tests");
        assert!((drifts[0].delta_pct - 10.0).abs() < 1e-9);
        // Display renders the direction.
        assert!(format!("{}", drifts[0]).contains("+10.00%"));
    }

    #[test]
    fn zero_baseline_gates_absolute_movement() {
        let base = sample();
        let mut cur = sample();
        cur.scenarios[1].counters[0].1 = 1; // 0 -> 1 over max(0,1) = 100%
        let drifts = MatrixReport::compare(&base, &cur, 50.0);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].scenario, "b");
    }

    #[test]
    fn missing_scenario_and_counters_are_drifts() {
        let base = sample();
        let mut cur = sample();
        cur.scenarios.remove(1);
        cur.scenarios[0].counters.remove(1);
        cur.scenarios[0].counters.push(("brand_new".into(), 7));
        let drifts = MatrixReport::compare(&base, &cur, 100.0);
        let kinds: Vec<&str> = drifts.iter().map(|d| d.counter.as_str()).collect();
        assert!(kinds.contains(&"<scenario>"));
        assert!(kinds.contains(&"gc_tests"));
        assert!(kinds.contains(&"brand_new"));
        // Extra current-only scenarios are not drifts.
        let mut extra = sample();
        extra.scenarios.push(ScenarioReport {
            name: "new".into(),
            config: vec![],
            counters: vec![],
            wall_ms: 0.0,
            reference_ms: None,
        });
        assert!(MatrixReport::compare(&base, &extra, 0.0).is_empty());
    }
}

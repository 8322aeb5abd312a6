//! Declarative scenarios: one point of the paper's evaluation matrix —
//! dataset profile × scale × workload kind × method × policies × cache
//! configuration × seeds — plus the named suites `gc bench` runs.

use crate::figures;
use gc_core::QueryKind;
use gc_graph::GraphDataset;
use gc_methods::MethodKind;
use gc_workload::{
    generate_type_a, generate_type_b, DatasetProfile, TypeAConfig, TypeBConfig, Workload,
};

/// The paper's six workload categories (§7.2), parameterised. Owned by the
/// harness: scenarios name their workload through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// Type A with Zipf graph + Zipf node selection.
    Zz(f64),
    /// Type A with Zipf graph + uniform node selection.
    Zu(f64),
    /// Type A, uniform at both levels.
    Uu,
    /// Type B with the given no-answer probability and Zipf α.
    TypeB {
        /// No-answer pool probability (0.0 / 0.2 / 0.5).
        no_answer: f64,
        /// Within-pool Zipf α.
        alpha: f64,
    },
}

impl WorkloadSpec {
    /// The six default categories in the paper's figure order.
    pub fn paper_six() -> [WorkloadSpec; 6] {
        [
            WorkloadSpec::Zz(1.4),
            WorkloadSpec::Zu(1.4),
            WorkloadSpec::Uu,
            WorkloadSpec::TypeB {
                no_answer: 0.0,
                alpha: 1.4,
            },
            WorkloadSpec::TypeB {
                no_answer: 0.2,
                alpha: 1.4,
            },
            WorkloadSpec::TypeB {
                no_answer: 0.5,
                alpha: 1.4,
            },
        ]
    }

    /// Display name ("ZZ", "UU", "20%", …).
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Zz(_) => "ZZ".into(),
            WorkloadSpec::Zu(_) => "ZU".into(),
            WorkloadSpec::Uu => "UU".into(),
            WorkloadSpec::TypeB { no_answer, .. } => {
                format!("{}%", (no_answer * 100.0).round() as u32)
            }
        }
    }

    /// Generates the workload over a dataset with the paper's query sizes
    /// for that dataset family. The per-family seed XORs are kept from the
    /// original harness so existing figure replays stay reproducible.
    pub fn generate(
        &self,
        dataset: &GraphDataset,
        sizes: &[usize],
        count: usize,
        seed: u64,
    ) -> Workload {
        match *self {
            WorkloadSpec::Zz(a) => generate_type_a(
                dataset,
                &TypeAConfig::zz(a)
                    .sizes(sizes.to_vec())
                    .count(count)
                    .seed(seed ^ 0x5a5a),
            ),
            WorkloadSpec::Zu(a) => generate_type_a(
                dataset,
                &TypeAConfig::zu(a)
                    .sizes(sizes.to_vec())
                    .count(count)
                    .seed(seed ^ 0x5a50),
            ),
            WorkloadSpec::Uu => generate_type_a(
                dataset,
                &TypeAConfig::uu()
                    .sizes(sizes.to_vec())
                    .count(count)
                    .seed(seed ^ 0x5055),
            ),
            WorkloadSpec::TypeB { no_answer, alpha } => generate_type_b(
                dataset,
                &TypeBConfig::with_no_answer_prob(no_answer)
                    .zipf(alpha)
                    .sizes(sizes.to_vec())
                    .pools((count / 5).clamp(30, 400), (count / 15).clamp(10, 120))
                    .count(count)
                    .seed(seed ^ 0xb0b0),
            ),
        }
    }
}

/// One fully specified end-to-end run: everything needed to reproduce a
/// cell of the evaluation matrix bit-for-bit.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique scenario name — the baseline comparison key.
    pub name: String,
    /// Dataset shape profile (AIDS / PDBS / PCM / Synthetic).
    pub dataset: DatasetProfile,
    /// Graph-count scale applied to the profile. Note
    /// [`DatasetProfile::scaled`] floors the scale at 0.05, so values
    /// below that are effectively 0.05 — the report's `graphs` config
    /// entry echoes the graph count actually generated.
    pub dataset_scale: f64,
    /// Dataset generation seed.
    pub dataset_seed: u64,
    /// Workload family.
    pub workload: WorkloadSpec,
    /// Query node-count targets.
    pub query_sizes: Vec<usize>,
    /// Number of queries to generate and replay.
    pub queries: usize,
    /// Workload generation seed.
    pub workload_seed: u64,
    /// Method M.
    pub method: MethodKind,
    /// Eviction policy registry spec (`"hd"`, `"slru:protected=0.5"`, …).
    pub eviction: String,
    /// Admission policy registry spec; `None` = admit-all.
    pub admission: Option<String>,
    /// Cache capacity (entries).
    pub capacity: usize,
    /// Window size (queries per maintenance round).
    pub window: usize,
    /// Snapshot shard count (0 = derive from threads).
    pub shards: usize,
    /// Per-query hit-verification work budget; `None` = unbounded.
    pub verify_budget: Option<u64>,
    /// The cache's worker threads ([`GraphCacheBuilder::threads`]; shards
    /// follow it when `shards` is 0). The runner replays one query at a
    /// time in workload order whatever the value; suites keep it at 1, so
    /// a cache's layout is the same on every host.
    ///
    /// [`GraphCacheBuilder::threads`]: gc_core::GraphCacheBuilder::threads
    pub threads: usize,
    /// Subgraph or supergraph semantics.
    pub kind: QueryKind,
    /// Queries excluded from the measured counters (the paper allows one
    /// window before measuring).
    pub warmup: usize,
    /// Enable the sub-query fragment cache (default off, matching the
    /// cache default).
    pub fragments: bool,
    /// Fragment-store byte budget; `None` = the cache default.
    pub fragment_budget: Option<usize>,
    /// Fragment-store eviction policy registry spec; `None` = the cache
    /// default (`lru`).
    pub fragment_eviction: Option<String>,
    /// After the replay, run a persistence cycle: save the cache as a
    /// binary snapshot, restore it into a freshly built cache, and fail
    /// the scenario unless the restored cache re-saves to byte-identical
    /// snapshot bytes (entry/stat/profile/fragment parity in one check).
    /// Adds the `persisted_entries` and `snapshot_bytes` counters.
    pub persist_cycle: bool,
    /// Also replay the measured queries through this method *uncached* —
    /// the paper's baseline (§7.2). Adds the `reference_subiso_tests`,
    /// `reference_verify_work` and `reference_index_bytes` counters, from
    /// which `gc bench` prints the speed-ups.
    pub reference: Option<MethodKind>,
}

impl Scenario {
    /// A scenario with the harness defaults: AIDS-shaped dataset at a
    /// small scale, ZZ workload, GGSX, HD eviction, capacity 100 /
    /// window 20, sequential client, one window of warm-up.
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            dataset: DatasetProfile::aids(),
            dataset_scale: 0.05,
            dataset_seed: 42,
            workload: WorkloadSpec::Zz(1.4),
            query_sizes: vec![4, 8, 12, 16, 20],
            queries: 120,
            workload_seed: 42,
            method: MethodKind::Ggsx,
            eviction: "hd".into(),
            admission: None,
            capacity: 100,
            window: 20,
            shards: 0,
            verify_budget: None,
            threads: 1,
            kind: QueryKind::Subgraph,
            warmup: 20,
            fragments: false,
            fragment_budget: None,
            fragment_eviction: None,
            persist_cycle: false,
            reference: None,
        }
    }

    /// Generates the scenario's dataset and the workload drawn over it —
    /// the one place the seeds turn into inputs, shared by the in-process,
    /// served and routed runners.
    pub fn generate(&self) -> (GraphDataset, Workload) {
        let dataset = self
            .dataset
            .clone()
            .scaled(self.dataset_scale)
            .generate(self.dataset_seed);
        let workload = self.workload.generate(
            &dataset,
            &self.query_sizes,
            self.queries,
            self.workload_seed,
        );
        (dataset, workload)
    }

    /// Configuration echo serialized into the report, so a baseline file
    /// is self-describing: `(key, value)` pairs in schema order.
    pub fn config_echo(&self) -> Vec<(String, String)> {
        let mut echo = vec![
            ("dataset".to_string(), self.dataset.name.to_string()),
            (
                "dataset_scale".to_string(),
                format!("{}", self.dataset_scale),
            ),
            // The graph count the scale actually resolves to (the profile
            // floors scales below 0.05), so the echo cannot misdescribe
            // the run.
            (
                "graphs".to_string(),
                format!(
                    "{}",
                    self.dataset.clone().scaled(self.dataset_scale).graph_count
                ),
            ),
            ("dataset_seed".to_string(), format!("{}", self.dataset_seed)),
            ("workload".to_string(), self.workload.name()),
            ("queries".to_string(), format!("{}", self.queries)),
            (
                "workload_seed".to_string(),
                format!("{}", self.workload_seed),
            ),
            (
                "method".to_string(),
                self.method.registry_name().to_string(),
            ),
            ("eviction".to_string(), self.eviction.clone()),
            (
                "admission".to_string(),
                self.admission.clone().unwrap_or_else(|| "none".into()),
            ),
            ("capacity".to_string(), format!("{}", self.capacity)),
            ("window".to_string(), format!("{}", self.window)),
            ("shards".to_string(), format!("{}", self.shards)),
            ("threads".to_string(), format!("{}", self.threads)),
            (
                "kind".to_string(),
                match self.kind {
                    QueryKind::Subgraph => "subgraph".to_string(),
                    QueryKind::Supergraph => "supergraph".to_string(),
                },
            ),
            ("warmup".to_string(), format!("{}", self.warmup)),
            // The cache's only cost model: expensiveness is verification
            // work, never wall time. Echoed so reports keep their shape.
            ("cost_model".to_string(), "work".to_string()),
            (
                "fragments".to_string(),
                if self.fragments { "on" } else { "off" }.to_string(),
            ),
        ];
        if let Some(b) = self.verify_budget {
            echo.push(("verify_budget".to_string(), format!("{b}")));
        }
        if let Some(b) = self.fragment_budget {
            echo.push(("fragment_budget".to_string(), format!("{b}")));
        }
        if let Some(spec) = &self.fragment_eviction {
            echo.push(("fragment_eviction".to_string(), spec.clone()));
        }
        if self.persist_cycle {
            echo.push(("persist_cycle".to_string(), "on".to_string()));
        }
        if let Some(kind) = self.reference {
            echo.push(("reference".to_string(), kind.registry_name().to_string()));
        }
        echo
    }
}

/// A named scenario list `gc bench` can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Small and fast — the CI regression gate. Covers both workload
    /// families, both special cases, budgeted verification, sharding and
    /// an admission policy in a few seconds even in debug builds.
    Smoke,
    /// Every figure suite, in figure order.
    Paper,
    /// One dataset/workload replayed across the policy registry's
    /// eviction and admission strategies.
    Policies,
    /// The fragment cache's home turf: a low-repetition Zipf workload of
    /// structurally overlapping queries over a filterless method, paired
    /// with fragments on vs off so the uplift is directly comparable.
    Fragments,
    /// Persistence round-trips: replay, save a binary arena snapshot,
    /// restore it into a fresh cache, and require the restored cache to
    /// re-save byte-identically (the save→restore→parity gate CI runs).
    Restore,
    /// Paper Fig. 4: replacement policies over CT-Index.
    Fig4,
    /// Paper Figs. 5 and 6: the four FTV methods on PDBS.
    Fig5,
    /// Paper Fig. 7: Type B on AIDS across Zipf skews.
    Fig7,
    /// Paper Fig. 8: cache sizes over GGSX.
    Fig8,
    /// Paper Fig. 9: admission control on the dense datasets.
    Fig9,
    /// Paper Fig. 10: cache sizes on the 20 % Type B workload.
    Fig10,
    /// Paper Fig. 11: the SI methods VF2+ and GraphQL.
    Fig11,
    /// Paper Fig. 12: GraphCache over VF2+ against CT-Index.
    Fig12,
    /// Paper §7.3: cache space against the FTV indexes.
    Space,
}

impl Suite {
    /// All suites — the one table behind names, parsing and listings.
    pub const ALL: [Suite; 14] = [
        Suite::Smoke,
        Suite::Paper,
        Suite::Policies,
        Suite::Fragments,
        Suite::Restore,
        Suite::Fig4,
        Suite::Fig5,
        Suite::Fig7,
        Suite::Fig8,
        Suite::Fig9,
        Suite::Fig10,
        Suite::Fig11,
        Suite::Fig12,
        Suite::Space,
    ];

    /// The figure suites (`docs/paper-figures.md`), which `paper` runs in
    /// this order.
    pub const FIGURES: [Suite; 9] = [
        Suite::Fig4,
        Suite::Fig5,
        Suite::Fig7,
        Suite::Fig8,
        Suite::Fig9,
        Suite::Fig10,
        Suite::Fig11,
        Suite::Fig12,
        Suite::Space,
    ];

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Smoke => "smoke",
            Suite::Paper => "paper",
            Suite::Policies => "policies",
            Suite::Fragments => "fragments",
            Suite::Restore => "restore",
            Suite::Fig4 => "fig4",
            Suite::Fig5 => "fig5",
            Suite::Fig7 => "fig7",
            Suite::Fig8 => "fig8",
            Suite::Fig9 => "fig9",
            Suite::Fig10 => "fig10",
            Suite::Fig11 => "fig11",
            Suite::Fig12 => "fig12",
            Suite::Space => "space",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The suite's scenario list. Deterministic: same list, same order,
    /// same seeds on every call.
    pub fn scenarios(&self) -> Vec<Scenario> {
        match self {
            Suite::Smoke => smoke_scenarios(),
            Suite::Paper => Suite::FIGURES.iter().flat_map(Suite::scenarios).collect(),
            Suite::Policies => policy_scenarios(),
            Suite::Fragments => fragment_scenarios(),
            Suite::Restore => restore_scenarios(),
            Suite::Fig4 => figures::fig4(),
            Suite::Fig5 => figures::fig5(),
            Suite::Fig7 => figures::fig7(),
            Suite::Fig8 => figures::fig8(),
            Suite::Fig9 => figures::fig9(),
            Suite::Fig10 => figures::fig10(),
            Suite::Fig11 => figures::fig11(),
            Suite::Fig12 => figures::fig12(),
            Suite::Space => figures::space(),
        }
    }
}

/// The smoke suite stays deliberately tiny: `tests/cli_smoke.rs` replays
/// it several times through the debug binary, and the CI gate runs it on
/// every push — a handful of seconds total is the budget.
fn smoke_scenarios() -> Vec<Scenario> {
    let mut zz = Scenario::named("smoke-aids-zz-hd");
    zz.dataset_scale = 0.05;
    zz.queries = 80;
    zz.capacity = 40;
    zz.query_sizes = vec![4, 8, 12];

    // Type B exercises the empty-answer shortcut; the adaptive admission
    // policy and a verification budget ride along, plus a fixed shard
    // count so the sharded maintenance path is pinned.
    let mut b20 = Scenario::named("smoke-aids-b20-gcr-adaptive");
    b20.workload = WorkloadSpec::TypeB {
        no_answer: 0.2,
        alpha: 1.4,
    };
    b20.dataset_scale = 0.05;
    b20.queries = 80;
    b20.capacity = 40;
    b20.query_sizes = vec![4, 8, 12];
    b20.eviction = "gcr".into();
    b20.admission = Some("adaptive".into());
    // Tight enough that some sweeps run dry: the `truncated` counter must
    // be pinned above zero or the budget-degradation path goes ungated.
    b20.verify_budget = Some(25);
    b20.shards = 4;

    // Dense graphs (PCM shape) under supergraph semantics — the other
    // query direction, a different method, and the segmented-LRU policy.
    let mut pcm = Scenario::named("smoke-pcm-zu-slru-super");
    pcm.dataset = DatasetProfile::pcm();
    pcm.dataset_scale = 0.2;
    pcm.workload = WorkloadSpec::Zu(1.4);
    pcm.queries = 50;
    pcm.capacity = 30;
    pcm.query_sizes = vec![4, 6, 8];
    pcm.method = MethodKind::SiVf2;
    pcm.eviction = "slru:protected=0.5".into();
    pcm.kind = QueryKind::Supergraph;

    vec![zz, b20, pcm]
}

fn policy_scenarios() -> Vec<Scenario> {
    let evictions = [
        "lru",
        "pop",
        "pin",
        "pinc",
        "hd",
        "slru:protected=0.5",
        "greedy-dual",
    ];
    let mut out = Vec::new();
    for ev in evictions {
        let mut s = Scenario::named(format!(
            "policies-aids-zz-{}",
            ev.split(':').next().unwrap_or(ev)
        ));
        s.dataset_scale = 0.05;
        s.queries = 120;
        s.capacity = 50;
        s.eviction = ev.into();
        out.push(s);
    }
    for adm in ["threshold", "adaptive"] {
        let mut s = Scenario::named(format!("policies-aids-zz-hd-{adm}"));
        s.dataset_scale = 0.05;
        s.queries = 120;
        s.capacity = 50;
        s.admission = Some(adm.into());
        out.push(s);
    }
    out
}

/// The fragment suite's regime is chosen so fragment pruning is the only
/// savings channel left: a flat Zipf (α = 1.05) keeps exact repeats rare,
/// while small query sizes over one dataset shape make queries *share
/// structure* without containing each other — and `si_vf2` has no filter
/// index, so CS_M is the whole dataset and exact fragment occurrence sets
/// have maximal room to prune. The on/off pair differs in nothing but the
/// `fragments` switch.
fn fragment_scenarios() -> Vec<Scenario> {
    let base = |name: &str| {
        let mut s = Scenario::named(name);
        s.dataset_scale = 0.05;
        s.workload = WorkloadSpec::Zz(1.05);
        s.queries = 80;
        s.capacity = 40;
        s.window = 10;
        s.query_sizes = vec![4, 6, 8];
        s.method = MethodKind::SiVf2;
        s.warmup = 10;
        s
    };
    let mut on = base("fragments-aids-zz-on");
    on.fragments = true;
    let off = base("fragments-aids-zz-off");
    // A second pair under the slru fragment policy and a tight budget, so
    // the fragment store's own eviction loop is exercised by the gate.
    let mut slru = base("fragments-aids-zz-slru-tight");
    slru.fragments = true;
    slru.fragment_eviction = Some("slru:protected=0.5".into());
    slru.fragment_budget = Some(16 * 1024);
    vec![on, off, slru]
}

/// The restore suite keeps CI-smoke size but flips the persistence cycle
/// on: a plain subgraph scenario, an evicting supergraph scenario (so
/// tombstone/compaction state precedes the save), and a fragments-on
/// scenario (so the snapshot's FRAGMENTS section is non-trivial). Each
/// cycle asserts byte-identical re-save of the restored cache.
fn restore_scenarios() -> Vec<Scenario> {
    let mut zz = Scenario::named("restore-aids-zz-binary");
    zz.dataset_scale = 0.05;
    zz.queries = 80;
    zz.capacity = 40;
    zz.query_sizes = vec![4, 8, 12];
    zz.persist_cycle = true;

    let mut sup = Scenario::named("restore-pcm-zu-super-binary");
    sup.dataset = DatasetProfile::pcm();
    sup.dataset_scale = 0.2;
    sup.workload = WorkloadSpec::Zu(1.4);
    sup.queries = 50;
    sup.capacity = 20; // tight: eviction churn precedes the save
    sup.query_sizes = vec![4, 6, 8];
    sup.method = MethodKind::SiVf2;
    sup.kind = QueryKind::Supergraph;
    sup.persist_cycle = true;

    let mut frags = Scenario::named("restore-aids-zz-fragments-binary");
    frags.dataset_scale = 0.05;
    frags.workload = WorkloadSpec::Zz(1.05);
    frags.queries = 60;
    frags.capacity = 40;
    frags.window = 10;
    frags.query_sizes = vec![4, 6, 8];
    frags.method = MethodKind::SiVf2;
    frags.warmup = 10;
    frags.fragments = true;
    frags.persist_cycle = true;

    vec![zz, sup, frags]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn spec_names() {
        let names: Vec<String> = WorkloadSpec::paper_six().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["ZZ", "ZU", "UU", "0%", "20%", "50%"]);
    }

    #[test]
    fn suite_names_round_trip() {
        for s in Suite::ALL {
            assert_eq!(Suite::from_name(s.name()), Some(s));
        }
        assert_eq!(Suite::from_name("nope"), None);
    }

    #[test]
    fn scenario_names_are_unique_within_each_suite() {
        for suite in Suite::ALL {
            let scenarios = suite.scenarios();
            assert!(!scenarios.is_empty());
            let names: HashSet<String> = scenarios.iter().map(|s| s.name.clone()).collect();
            assert_eq!(names.len(), scenarios.len(), "{} suite", suite.name());
        }
    }

    #[test]
    fn suites_are_deterministic_lists() {
        let a = Suite::Smoke.scenarios();
        let b = Suite::Smoke.scenarios();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.config_echo(), y.config_echo());
        }
    }

    #[test]
    fn suites_keep_one_client_thread() {
        // The committed baselines were recorded with one worker thread
        // (and so one shard); a suite scenario quietly flipping to
        // threads > 1 would change its cache layout under the gate.
        for suite in Suite::ALL {
            for s in suite.scenarios() {
                assert_eq!(s.threads, 1, "{}", s.name);
            }
        }
    }

    /// Every policy spec a suite names resolves, so narrowing the policy
    /// set can never orphan a suite. The smoke suite's `gcr` is HD.
    #[test]
    fn every_suite_policy_spec_resolves() {
        use gc_core::registry::{build_admission, build_eviction};
        let mut gcr = false;
        for suite in Suite::ALL {
            for s in suite.scenarios() {
                let eviction = build_eviction(&s.eviction)
                    .unwrap_or_else(|e| panic!("{}: eviction {e}", s.name));
                if s.eviction == "gcr" {
                    assert_eq!(eviction.name(), "hd", "{}", s.name);
                    gcr = true;
                }
                if let Some(spec) = &s.admission {
                    build_admission(spec).unwrap_or_else(|e| panic!("{}: admission {e}", s.name));
                }
                if let Some(spec) = &s.fragment_eviction {
                    build_eviction(spec)
                        .unwrap_or_else(|e| panic!("{}: fragment eviction {e}", s.name));
                }
            }
        }
        assert!(gcr, "a suite still runs the gcr alias");
    }

    #[test]
    fn workload_generation_matches_spec() {
        let d = DatasetProfile::aids().scaled(0.02).generate(3);
        let w = WorkloadSpec::Zz(1.4).generate(&d, &[4, 8], 30, 9);
        assert_eq!(w.len(), 30);
        let w2 = WorkloadSpec::Zz(1.4).generate(&d, &[4, 8], 30, 9);
        for (a, b) in w.graphs().zip(w2.graphs()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn config_echo_graphs_matches_generated_dataset() {
        // Even a sub-floor scale (clamped to 0.05 by the profile) must be
        // echoed as the graph count that actually runs.
        let mut s = Scenario::named("clamped");
        s.dataset_scale = 0.01;
        let echoed: usize = s
            .config_echo()
            .into_iter()
            .find(|(k, _)| k == "graphs")
            .expect("graphs echoed")
            .1
            .parse()
            .unwrap();
        let generated = s
            .dataset
            .clone()
            .scaled(s.dataset_scale)
            .generate(s.dataset_seed)
            .len();
        assert_eq!(echoed, generated);
    }

    #[test]
    fn suite_scales_are_not_silently_clamped() {
        // DatasetProfile::scaled floors the scale at 0.05; a suite
        // scenario below the floor would echo a scale the run never used.
        for suite in Suite::ALL {
            for s in suite.scenarios() {
                assert!(
                    s.dataset_scale >= 0.05,
                    "{}: scale {} is below the profile floor",
                    s.name,
                    s.dataset_scale
                );
            }
        }
    }

    #[test]
    fn config_echo_covers_budget_only_when_set() {
        let s = Scenario::named("x");
        assert!(!s.config_echo().iter().any(|(k, _)| k == "verify_budget"));
        let mut b = Scenario::named("y");
        b.verify_budget = Some(10);
        assert!(b.config_echo().iter().any(|(k, _)| k == "verify_budget"));
    }
}

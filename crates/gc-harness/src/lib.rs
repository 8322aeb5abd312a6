//! End-to-end scenario matrix harness for GraphCache.
//!
//! The paper's evaluation is a matrix — datasets × workload types ×
//! methods × policies — and every run used to be a hand-assembled
//! `gc generate` / `gc workload` / `gc query` pipeline whose results lived
//! only in stdout. This crate turns one cell of that matrix into a
//! declarative [`Scenario`], groups scenarios into named [`Suite`]s, runs
//! them end-to-end through the concurrent service API
//! ([`run_suite_by`] / [`run_scenario`]), and collects
//! [`ScenarioReport`]s whose counters are a *pure function of the seeds*:
//!
//! * deterministic counters — hit/miss composition, sub-iso tests,
//!   verification budget accounting, maintenance phase counts, final
//!   cache shape ([`gc_core::RunCounters`] +
//!   [`gc_core::MaintStats::deterministic_counters`]);
//! * wall-clock as **advisory only** — serialized on request, never
//!   compared.
//!
//! A scenario with a [`reference`](Scenario::reference) method also
//! replays its workload through that method uncached, which is how the
//! figure suites (`fig4` … `fig12`, `space`; all of them as `paper`)
//! report the paper's speed-ups.
//!
//! Reports serialize to a versioned JSON schema ([`report::SCHEMA_VERSION`])
//! through a small offline writer/parser ([`json`], no serde), and
//! [`MatrixReport::compare`] implements the CI regression gate behind
//! `gc bench --check benches/baseline.json --tolerance PCT`: any
//! deterministic counter drifting beyond the tolerance fails the build,
//! wall-clock never does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;
pub mod json;
pub mod report;
pub mod runner;
pub mod scenario;

pub use json::Json;
pub use report::{Drift, MatrixReport, ScenarioReport, SCHEMA_VERSION};
pub use runner::{
    assemble_counters, build_cache, finish_report, run_scenario, run_suite_by, SETTLED_COUNTERS,
};
pub use scenario::{Scenario, Suite, WorkloadSpec};

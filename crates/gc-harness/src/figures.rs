//! The paper's evaluation figures (§7) as scenario lists. Every bar is an
//! ordinary [`Scenario`] whose `reference` is the uncached Method M the
//! figure divides by, so `gc bench --suite figN` prints the figure's
//! speed-ups. `docs/paper-figures.md` sets them beside the paper's numbers.

use crate::scenario::{Scenario, WorkloadSpec};
use gc_methods::MethodKind;
use gc_workload::DatasetProfile;

/// Queries per scenario; the first window (20) is warm-up, as in §7.2.
const QUERIES: usize = 1000;

/// The capacities of Figs. 8 and 10.
const CAPACITIES: [usize; 3] = [100, 300, 500];

/// The paper's four datasets at figure scale.
#[derive(Clone, Copy)]
enum Data {
    Aids,
    Pdbs,
    Pcm,
    Synthetic,
}

impl Data {
    fn name(self) -> &'static str {
        match self {
            Data::Aids => "aids",
            Data::Pdbs => "pdbs",
            Data::Pcm => "pcm",
            Data::Synthetic => "synthetic",
        }
    }

    /// Profile, graph-count scale and query sizes. The dense shapes take
    /// 8–20-edge queries (the paper's 20–40 edges on ~3× larger graphs)
    /// and few graphs: a path index over them builds at ~1.5 s per graph,
    /// and Type B's no-answer pool builds one.
    fn shape(self) -> (DatasetProfile, f64, Vec<usize>) {
        match self {
            Data::Aids => (DatasetProfile::aids(), 0.2, vec![4, 8, 12, 16, 20]),
            Data::Pdbs => (DatasetProfile::pdbs(), 0.25, vec![4, 8, 12, 16, 20]),
            Data::Pcm => (DatasetProfile::pcm(), 0.25, vec![8, 11, 14, 17, 20]),
            Data::Synthetic => (DatasetProfile::synthetic(), 0.1, vec![8, 11, 14, 17, 20]),
        }
    }
}

/// The FTV methods, CT-Index last: its index is the slowest to build, and
/// the first scenario of every figure suite is replayed by a debug-build
/// test.
const FTV: [MethodKind; 4] = [
    MethodKind::Ggsx,
    MethodKind::Grapes1,
    MethodKind::Grapes6,
    MethodKind::CtIndex,
];

/// Type A workloads, in figure order.
const TYPE_A: [WorkloadSpec; 3] = [
    WorkloadSpec::Zz(1.4),
    WorkloadSpec::Zu(1.4),
    WorkloadSpec::Uu,
];

/// Type B workloads at the three no-answer shares, in figure order.
fn type_b(alpha: f64) -> [WorkloadSpec; 3] {
    [0.0, 0.2, 0.5].map(|no_answer| WorkloadSpec::TypeB { no_answer, alpha })
}

/// A workload's short name inside a scenario name (`zz`, `b20`, …).
fn tag(spec: WorkloadSpec) -> String {
    match spec {
        WorkloadSpec::TypeB { no_answer, .. } => {
            format!("b{}", (no_answer * 100.0).round() as u32)
        }
        other => other.name().to_lowercase(),
    }
}

/// One bar: the harness defaults (C = 100, W = 20, HD eviction, one
/// window of warm-up — the paper's §7.2 setting) over `method`, with the
/// same method uncached as the reference.
fn bar(name: String, data: Data, workload: WorkloadSpec, method: MethodKind) -> Scenario {
    let (profile, scale, sizes) = data.shape();
    let mut s = Scenario::named(name);
    s.dataset = profile;
    s.dataset_scale = scale;
    s.query_sizes = sizes;
    s.workload = workload;
    s.queries = QUERIES;
    s.method = method;
    s.reference = Some(method);
    s
}

/// Fig. 4: CT-Index on AIDS and PDBS, the six workloads, one bar per
/// replacement policy of §6.
pub(crate) fn fig4() -> Vec<Scenario> {
    let mut out = Vec::new();
    for data in [Data::Aids, Data::Pdbs] {
        for spec in WorkloadSpec::paper_six() {
            for policy in ["lru", "pop", "pin", "pinc", "hd"] {
                let name = format!("fig4-{}-{}-{policy}", data.name(), tag(spec));
                let mut s = bar(name, data, spec, MethodKind::CtIndex);
                s.eviction = policy.into();
                out.push(s);
            }
        }
    }
    out
}

/// Figs. 5 and 6 (one run, two speed-ups): the four FTV methods on PDBS
/// over the six workloads.
pub(crate) fn fig5() -> Vec<Scenario> {
    let mut out = Vec::new();
    for method in FTV {
        for spec in WorkloadSpec::paper_six() {
            let name = format!("fig5-pdbs-{}-{}", method.registry_name(), tag(spec));
            out.push(bar(name, Data::Pdbs, spec, method));
        }
    }
    out
}

/// Fig. 7: the four FTV methods on AIDS, Type B at Zipf α 1.1 / 1.4 / 1.7.
pub(crate) fn fig7() -> Vec<Scenario> {
    let mut out = Vec::new();
    for method in FTV {
        for alpha in [1.1, 1.4, 1.7] {
            for spec in type_b(alpha) {
                let name = format!(
                    "fig7-aids-{}-a{alpha}-{}",
                    tag(spec),
                    method.registry_name()
                );
                out.push(bar(name, Data::Aids, spec, method));
            }
        }
    }
    out
}

/// Fig. 8: GGSX on AIDS and PDBS, the six workloads, at the three cache
/// sizes.
pub(crate) fn fig8() -> Vec<Scenario> {
    let mut out = Vec::new();
    for data in [Data::Aids, Data::Pdbs] {
        for spec in WorkloadSpec::paper_six() {
            for capacity in CAPACITIES {
                let name = format!("fig8-{}-{}-c{capacity}", data.name(), tag(spec));
                let mut s = bar(name, data, spec, MethodKind::Ggsx);
                s.capacity = capacity;
                out.push(s);
            }
        }
    }
    out
}

/// Fig. 9: PCM and Synthetic, Type B, without (`c`) and with (`c-ac`) the
/// paper's admission control. The paper's Method M is Grapes6; its index
/// over these dense graphs would dominate every run, so VF2 stands in.
pub(crate) fn fig9() -> Vec<Scenario> {
    let mut out = Vec::new();
    for data in [Data::Pcm, Data::Synthetic] {
        for spec in type_b(1.4) {
            for admission in [None, Some("threshold")] {
                let arm = if admission.is_some() { "c-ac" } else { "c" };
                let name = format!("fig9-{}-{}-{arm}", data.name(), tag(spec));
                let mut s = bar(name, data, spec, MethodKind::SiVf2);
                s.admission = admission.map(Into::into);
                out.push(s);
            }
        }
    }
    out
}

/// Fig. 10: CT-Index, GGSX and Grapes6 on AIDS, 20 % Type B, at the
/// three cache sizes (the figure's maintenance bars are the advisory
/// wall time and the `maint_rounds` / `entries_*` counters).
pub(crate) fn fig10() -> Vec<Scenario> {
    let spec = type_b(1.4)[1];
    let mut out = Vec::new();
    for method in [MethodKind::Ggsx, MethodKind::Grapes6, MethodKind::CtIndex] {
        for capacity in CAPACITIES {
            let name = format!("fig10-aids-b20-{}-c{capacity}", method.registry_name());
            let mut s = bar(name, Data::Aids, spec, method);
            s.capacity = capacity;
            out.push(s);
        }
    }
    out
}

/// Fig. 11: the SI methods VF2+ and GraphQL on AIDS and PDBS, Type A.
pub(crate) fn fig11() -> Vec<Scenario> {
    let mut out = Vec::new();
    for data in [Data::Aids, Data::Pdbs] {
        for method in MethodKind::SI {
            for spec in TYPE_A {
                let name = format!(
                    "fig11-{}-{}-{}",
                    data.name(),
                    tag(spec),
                    method.registry_name()
                );
                out.push(bar(name, data, spec, method));
            }
        }
    }
    out
}

/// Fig. 12: GraphCache over VF2+ at C = 100 and 500 against CT-Index
/// uncached, on AIDS and PDBS, Type A.
pub(crate) fn fig12() -> Vec<Scenario> {
    let mut out = Vec::new();
    for data in [Data::Aids, Data::Pdbs] {
        for spec in TYPE_A {
            for capacity in [100, 500] {
                let name = format!("fig12-{}-{}-c{capacity}", data.name(), tag(spec));
                let mut s = bar(name, data, spec, MethodKind::SiVf2Plus);
                s.capacity = capacity;
                s.reference = Some(MethodKind::CtIndex);
                out.push(s);
            }
        }
    }
    out
}

/// §7.3 space: the cache's `memory_bytes` at C = 100 and 500 beside each
/// FTV method's `reference_index_bytes`, AIDS and PDBS, ZZ.
pub(crate) fn space() -> Vec<Scenario> {
    let mut out = Vec::new();
    for data in [Data::Aids, Data::Pdbs] {
        for method in FTV {
            for capacity in [100, 500] {
                let name = format!(
                    "space-{}-{}-c{capacity}",
                    data.name(),
                    method.registry_name()
                );
                let mut s = bar(name, data, TYPE_A[0], method);
                s.capacity = capacity;
                out.push(s);
            }
        }
    }
    out
}

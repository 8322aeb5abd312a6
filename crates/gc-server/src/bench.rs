//! Served-mode scenario execution: the same harness suites, driven
//! through the daemon over a socket instead of in-process calls.
//!
//! `gc bench --serve` runs each [`Scenario`] exactly as the in-process
//! runner does — same dataset, workload, and cache construction
//! ([`build_cache`]), whose admission and eviction read only work
//! counters — but replays the workload as a protocol client against an in-process [`Server`] on a private unix
//! socket. Records come back inside `RESULT` frames, maintenance and
//! cache-shape counters via `STATS scope=settle`, and the report is
//! assembled in the *identical* counter order. The point is the
//! acceptance bar of the daemon: served counters must be **byte-identical**
//! to `gc bench`'s in-process counters for the same seeds, so the same
//! committed `benches/baseline.json` gates both paths. That parity is
//! the correctness spine for routing queries to remote caches later
//! (ROADMAP item 5).

use crate::client::{Client, ClientError, QueryOutcome, RetryPolicy};
use crate::proto::{QueryFrame, StatsScope};
use crate::router::{PeerIdentity, Router, RouterConfig};
use crate::server::{ServeConfig, Server};
use gc_core::QueryRecord;
use gc_harness::{assemble_counters, build_cache, finish_report, Scenario, ScenarioReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A socket path that is unique per process *and* per call, so parallel
/// tests and repeated suites never collide.
fn scratch_socket(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "gc-serve-bench-{}-{seq}-{tag}.sock",
        std::process::id()
    ))
}

/// Runs one scenario through the daemon. The replay is a single client
/// session submitting queries strictly in workload order — the served
/// analogue of the suites' sequential one-client replay, which is what
/// keeps the counter stream a pure function of the seeds.
pub fn run_scenario_served(scenario: &Scenario) -> Result<ScenarioReport, String> {
    let t0 = Instant::now();
    let (dataset, workload) = scenario.generate();
    // Cache construction goes through the harness's own builder, so the
    // served cache is constructed by the exact code path the in-process
    // runner uses — any divergence shows up as counter drift against the
    // shared baseline.
    let cache = build_cache(scenario, &dataset)?;

    let socket = scratch_socket(&scenario.name);
    let server = Server::bind(
        cache,
        ServeConfig {
            unix: Some(socket.clone()),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("scenario {:?}: cannot bind {socket:?}: {e}", scenario.name))?;
    let shutdown = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run());

    let served = serve_workload(&socket, workload.graphs());
    if served.is_err() {
        // The protocol SHUTDOWN never went out; drain out-of-band so a
        // replay failure cannot leave the daemon thread running forever.
        shutdown.shutdown();
    }
    // Join the daemon even when the replay failed, so a scenario error
    // never leaks a live server thread or a socket file.
    let daemon_result = daemon
        .join()
        .map_err(|_| format!("scenario {:?}: server thread panicked", scenario.name))?;
    let _ = std::fs::remove_file(&socket);
    let (records, stats) = served.map_err(|e| format!("scenario {:?}: {e}", scenario.name))?;
    daemon_result.map_err(|e| format!("scenario {:?}: server failed: {e}", scenario.name))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let counters = assemble_counters(scenario, &records, &stats)?;
    Ok(finish_report(
        scenario, &dataset, &workload, None, counters, wall_ms,
    ))
}

/// Runs one scenario through a routed fleet: `peers` daemons, each a full
/// replica owning a consistent-hash slice of the fingerprint space,
/// fronted by a [`Router`] on its own socket. The replay is the same
/// single sequential client session as [`run_scenario_served`], pointed
/// at the router. The acceptance bar is the tentpole's determinism gate:
/// for any fleet size, the assembled counters are byte-identical to the
/// in-process runner's (and therefore to a 1-peer fleet's) for the same
/// seeds.
pub fn run_scenario_routed(scenario: &Scenario, peers: usize) -> Result<ScenarioReport, String> {
    if peers == 0 {
        return Err("a routed fleet needs at least one peer".into());
    }
    let t0 = Instant::now();
    let (dataset, workload) = scenario.generate();

    // Every peer is a full replica: same dataset, same deterministic
    // construction, so re-executing the routed stream keeps them in
    // lockstep.
    let mut fleet_handles = Vec::new();
    let mut fleet_daemons = Vec::new();
    let mut peer_sockets = Vec::new();
    let mut boot = || -> Result<(), String> {
        for index in 0..peers {
            let cache = build_cache(scenario, &dataset)?;
            let socket = scratch_socket(&format!("{}-peer{index}", scenario.name));
            let server = Server::bind(
                cache,
                ServeConfig {
                    unix: Some(socket.clone()),
                    peer: PeerIdentity::new(index as u64, peers as u64),
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("scenario {:?}: cannot bind {socket:?}: {e}", scenario.name))?;
            fleet_handles.push(server.shutdown_handle());
            fleet_daemons.push(std::thread::spawn(move || server.run()));
            peer_sockets.push(socket);
        }
        Ok(())
    };
    if let Err(e) = boot() {
        drain_fleet(&fleet_handles, fleet_daemons, &peer_sockets);
        return Err(e);
    }

    let router_socket = scratch_socket(&format!("{}-router", scenario.name));
    let router = match Router::bind(RouterConfig {
        unix: router_socket.clone(),
        peers: peer_sockets.clone(),
        retry: RetryPolicy::with_attempts(10),
        handle_signals: false,
    }) {
        Ok(router) => router,
        Err(e) => {
            drain_fleet(&fleet_handles, fleet_daemons, &peer_sockets);
            return Err(format!(
                "scenario {:?}: cannot bind router {router_socket:?}: {e}",
                scenario.name
            ));
        }
    };
    let router_shutdown = router.shutdown_handle();
    let router_daemon = std::thread::spawn(move || router.run());

    // The replay's final SHUTDOWN stops the router only; peers are
    // drained directly below.
    let served = serve_workload(&router_socket, workload.graphs());
    if served.is_err() {
        router_shutdown.shutdown();
    }
    let router_result = router_daemon
        .join()
        .map_err(|_| format!("scenario {:?}: router thread panicked", scenario.name));
    drain_fleet(&fleet_handles, fleet_daemons, &peer_sockets);
    let _ = std::fs::remove_file(&router_socket);
    let (records, stats) = served.map_err(|e| format!("scenario {:?}: {e}", scenario.name))?;
    router_result?.map_err(|e| format!("scenario {:?}: router failed: {e}", scenario.name))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let counters = assemble_counters(scenario, &records, &stats)?;
    Ok(finish_report(
        scenario, &dataset, &workload, None, counters, wall_ms,
    ))
}

/// Drains every peer daemon and unlinks its socket; failures are
/// swallowed because this also runs on error paths where the interesting
/// error is already in flight.
fn drain_fleet(
    handles: &[crate::server::ShutdownHandle],
    daemons: Vec<std::thread::JoinHandle<Result<(), crate::server::ServeError>>>,
    sockets: &[PathBuf],
) {
    for handle in handles {
        handle.shutdown();
    }
    for daemon in daemons {
        let _ = daemon.join();
    }
    for socket in sockets {
        let _ = std::fs::remove_file(socket);
    }
}

/// What one served replay produces: per-query records (for run-counter
/// reconstruction) plus the daemon's settled global STATS payload.
type ReplayOutput = (Vec<QueryRecord>, Vec<(String, u64)>);

/// One client session: replay every query in order, then read the settled
/// global stats and ask the daemon to drain.
fn serve_workload<'a>(
    socket: &Path,
    graphs: impl Iterator<Item = &'a gc_graph::LabeledGraph>,
) -> Result<ReplayOutput, ClientError> {
    let mut client = Client::connect_unix_with_retry(socket, &RetryPolicy::with_attempts(10))?;
    let mut records = Vec::new();
    // The ISSUE's parity bar: counters must stay byte-identical *with the
    // failure-handling paths enabled*. Every query carries a generous
    // deadline (never hit on these tiny scenarios) and goes through the
    // retry wrapper (BUSY never fires for one sequential client), so the
    // deadline and retry machinery is exercised without perturbing the
    // deterministic counter stream.
    let retry = RetryPolicy::default();
    for (i, graph) in graphs.enumerate() {
        let frame = QueryFrame {
            id: i as u64,
            graph: graph.clone(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: Some(60_000),
            allow: None,
        };
        match client.query_with_retry(frame, &retry)? {
            QueryOutcome::Result(result) => records.push(result.record),
            QueryOutcome::Busy { inflight, max } => {
                // One sequential client can never saturate the pool; a
                // BUSY here means the server is broken, not loaded.
                return Err(ClientError::Server {
                    code: "busy".into(),
                    msg: format!(
                        "sequential replay rejected with BUSY ({inflight}/{max} in flight)"
                    ),
                });
            }
        }
    }
    let stats = client.stats(StatsScope::Settle)?;
    client.shutdown()?;
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_harness::run_scenario;

    fn tiny(name: &str) -> Scenario {
        let mut s = Scenario::named(name);
        s.dataset_scale = 0.05;
        s.queries = 30;
        s.capacity = 12;
        s.window = 8;
        s.query_sizes = vec![4, 6];
        s.warmup = 5;
        s
    }

    /// The acceptance bar: served counters are byte-identical to the
    /// in-process runner's for the same scenario.
    #[test]
    fn served_counters_match_in_process() {
        let s = tiny("served-parity");
        let in_process = run_scenario(&s).expect("in-process run");
        let served = run_scenario_served(&s).expect("served run");
        assert_eq!(served.counters, in_process.counters);
        assert_eq!(served.config, in_process.config);
    }

    /// Parity holds on the budgeted/admission-gated path too, where the
    /// verification pool and admission threshold are live.
    #[test]
    fn served_counters_match_with_budget_and_admission() {
        let mut s = tiny("served-parity-budget");
        s.verify_budget = Some(400);
        s.admission = Some("adaptive".into());
        s.eviction = "gcr".into();
        let in_process = run_scenario(&s).expect("in-process run");
        let served = run_scenario_served(&s).expect("served run");
        assert_eq!(served.counters, in_process.counters);
    }

    /// Parity holds with the fragment layer live: the fragment counters in
    /// the RESULT frames and the fragment upkeep counters in STATS must be
    /// byte-identical to the in-process run.
    #[test]
    fn served_counters_match_with_fragments() {
        use gc_harness::WorkloadSpec;
        let mut s = tiny("served-parity-fragments");
        s.fragments = true;
        s.method = gc_methods::MethodKind::SiVf2;
        s.workload = WorkloadSpec::Zz(1.05);
        let in_process = run_scenario(&s).expect("in-process run");
        let served = run_scenario_served(&s).expect("served run");
        assert_eq!(served.counters, in_process.counters);
        assert!(
            in_process.counter("fragment_probes").unwrap_or(0) > 0,
            "the parity check must actually exercise the fragment path"
        );
    }

    /// The routed determinism gate, base case: a 1-peer fleet behind the
    /// router produces the in-process counters byte-identically.
    #[test]
    fn routed_counters_match_in_process_one_peer() {
        let s = tiny("routed-parity-1");
        let in_process = run_scenario(&s).expect("in-process run");
        let routed = run_scenario_routed(&s, 1).expect("routed run");
        assert_eq!(routed.counters, in_process.counters);
        assert_eq!(routed.config, in_process.config);
    }

    /// The routed determinism gate, tentpole case: a 3-peer fleet —
    /// probe fanout, allow-restricted queries, lockstep ROUTE replication
    /// — still produces the in-process counters byte-identically, because
    /// with all peers live the union of per-slice candidate sets is the
    /// full candidate set and the allow restriction is a no-op.
    #[test]
    fn routed_counters_match_in_process_three_peers() {
        let s = tiny("routed-parity-3");
        let in_process = run_scenario(&s).expect("in-process run");
        let routed = run_scenario_routed(&s, 3).expect("routed run");
        assert_eq!(routed.counters, in_process.counters);
    }
}

//! `gc bench --serve` and `gc bench --route N`: the harness's one
//! scenario runner ([`gc_harness::run_scenario_on`]) with the workload
//! served over unix sockets.
//!
//! A [`Fleet`] is a [`Deployment`]: the runner builds one cache per
//! daemon exactly as it does in-process, and the fleet serves those caches
//! — one [`Server`] with no router (`--serve`), or `N` routed peers behind
//! a [`Router`] (`--route N`). One client session submits the queries in
//! workload order, each with a 60 s deadline and through the retry
//! wrapper, so the failure-handling paths are live without perturbing the
//! counter stream; maintenance and cache-shape counters come from
//! `STATS scope=settle`. Everything else — the persistence cycle and the
//! reference arm on peer 0's cache handle included — is the runner's, so
//! served and routed counters are byte-identical to the in-process run's
//! and the same committed baselines gate all of them.

use crate::client::{Client, QueryOutcome, RetryPolicy};
use crate::proto::{QueryFrame, StatsScope};
use crate::router::{PeerIdentity, Router, RouterConfig, RouterShutdownHandle};
use crate::server::{ServeConfig, ServeError, Server, ShutdownHandle};
use gc_core::{GraphCache, QueryRecord};
use gc_graph::LabeledGraph;
use gc_harness::{Deployment, Executor, Scenario};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

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

/// Daemons serving a scenario's caches on private unix sockets.
#[derive(Debug, Clone)]
pub struct Fleet {
    peers: usize,
    routed: bool,
    /// Where the router binds; `None` is a fresh scratch socket.
    router_socket: Option<PathBuf>,
}

impl Fleet {
    /// `gc bench --serve`: one daemon, no router.
    pub fn served() -> Fleet {
        Fleet {
            peers: 1,
            routed: false,
            router_socket: None,
        }
    }

    /// `gc bench --route N`: `peers` routed daemons, each a full replica
    /// owning a consistent-hash slice of the fingerprint space, behind a
    /// [`Router`]. Replicas stay in lockstep, so peer 0's cache is the
    /// in-process cache.
    pub fn routed(peers: usize) -> Fleet {
        Fleet {
            peers,
            routed: true,
            router_socket: None,
        }
    }
}

impl Deployment for Fleet {
    fn daemons(&self) -> usize {
        self.peers
    }

    fn stand_up(
        &self,
        scenario: &Scenario,
        caches: &[GraphCache],
    ) -> Result<Box<dyn Executor>, String> {
        // `wire` owns whatever was started even when a later step fails:
        // its drop drains the daemons and unlinks the sockets.
        let mut wire = Wire::default();
        for (index, cache) in caches.iter().enumerate() {
            let socket = scratch_socket(&format!("{}-peer{index}", scenario.name));
            let peer = match self.routed {
                true => PeerIdentity::new(index as u64, caches.len() as u64),
                false => None,
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
        let front = if self.routed {
            let socket = self
                .router_socket
                .clone()
                .unwrap_or_else(|| scratch_socket(&format!("{}-router", scenario.name)));
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
        Ok(Box::new(wire))
    }
}

type Daemon = JoinHandle<Result<(), ServeError>>;

/// A stood-up fleet: the client session, every daemon thread and every
/// socket it bound.
#[derive(Default)]
struct Wire {
    client: Option<Client>,
    peers: Vec<(ShutdownHandle, Daemon)>,
    router: Option<(RouterShutdownHandle, Daemon)>,
    sockets: Vec<PathBuf>,
}

impl Executor for Wire {
    fn query(&mut self, id: usize, graph: &LabeledGraph) -> Result<QueryRecord, String> {
        let client = self.client.as_mut().expect("connected by stand_up");
        let frame = QueryFrame {
            id: id as u64,
            graph: graph.clone(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: Some(60_000),
            allow: None,
        };
        match client
            .query_with_retry(frame, &RetryPolicy::default())
            .map_err(|e| e.to_string())?
        {
            QueryOutcome::Result(result) => Ok(result.record),
            // One sequential client can never saturate the pool; a BUSY
            // here means the server is broken, not loaded.
            QueryOutcome::Busy { inflight, max } => Err(format!(
                "sequential replay rejected with BUSY ({inflight}/{max} in flight)"
            )),
        }
    }

    fn settle(&mut self) -> Result<Vec<(String, u64)>, String> {
        let client = self.client.as_mut().expect("connected by stand_up");
        client.stats(StatsScope::Settle).map_err(|e| e.to_string())
    }
}

impl Drop for Wire {
    /// SHUTDOWN over the session stops the front daemon (the router does
    /// not forward it); the handles stop everything else and are harmless
    /// on a daemon already draining. A daemon's own exit status is not
    /// read: the counters were settled before the drain began.
    fn drop(&mut self) {
        if let Some(mut client) = self.client.take() {
            let _ = client.shutdown();
        }
        if let Some((handle, _)) = &self.router {
            handle.shutdown();
        }
        for (handle, _) in &self.peers {
            handle.shutdown();
        }
        let router = self.router.take().map(|(_, thread)| thread);
        for thread in router
            .into_iter()
            .chain(self.peers.drain(..).map(|(_, thread)| thread))
        {
            let _ = thread.join();
        }
        for socket in &self.sockets {
            let _ = std::fs::remove_file(socket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_harness::{run_scenario, run_scenario_on, WorkloadSpec};
    use gc_methods::MethodKind;
    use std::time::{Duration, Instant};

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

    /// The parity table's columns: one scenario per `Scenario` path the
    /// wire must honour exactly as the in-process run does.
    fn plain() -> Scenario {
        tiny("parity-plain")
    }

    /// The budgeted/admission-gated path, where the verification pool and
    /// admission threshold are live.
    fn budget() -> Scenario {
        let mut s = tiny("parity-budget");
        s.verify_budget = Some(400);
        s.admission = Some("adaptive".into());
        s.eviction = "gcr".into();
        s
    }

    /// The fragment layer live: fragment counters in the RESULT frames and
    /// fragment upkeep counters in STATS.
    fn fragments() -> Scenario {
        let mut s = tiny("parity-fragments");
        s.fragments = true;
        s.method = MethodKind::SiVf2;
        s.workload = WorkloadSpec::Zz(1.05);
        s
    }

    fn persist() -> Scenario {
        let mut s = tiny("parity-persist");
        s.persist_cycle = true;
        s
    }

    fn columns() -> Vec<Scenario> {
        vec![plain(), budget(), fragments(), persist()]
    }

    /// Cells of the parity table: each column's counters and config on
    /// `fleet` equal the in-process run's.
    fn parity(fleet: &Fleet, columns: Vec<Scenario>) {
        for s in columns {
            let in_process = run_scenario(&s).expect("in-process run");
            let wire = run_scenario_on(&s, fleet).expect("wire run");
            assert_eq!(wire.counters, in_process.counters, "{fleet:?} {}", s.name);
            assert_eq!(wire.config, in_process.config, "{fleet:?} {}", s.name);
            if s.fragments {
                assert!(
                    in_process.counter("fragment_probes").unwrap_or(0) > 0,
                    "the fragment column must exercise the fragment path"
                );
            }
            if s.persist_cycle {
                assert!(in_process.counter("snapshot_bytes").unwrap_or(0) > 0);
            }
        }
    }

    /// One row of the parity table: every column on `fleet`.
    fn parity_row(fleet: Fleet) {
        parity(&fleet, columns());
    }

    /// The served row is split across three tests so each column fails
    /// under its own name.
    #[test]
    fn served_counters_match_in_process() {
        parity(&Fleet::served(), vec![plain(), persist()]);
    }

    #[test]
    fn served_counters_match_with_budget_and_admission() {
        parity(&Fleet::served(), vec![budget()]);
    }

    #[test]
    fn served_counters_match_with_fragments() {
        parity(&Fleet::served(), vec![fragments()]);
    }

    #[test]
    fn routed_counters_match_in_process_one_peer() {
        parity_row(Fleet::routed(1));
    }

    /// With all peers live the union of per-slice candidate sets is the
    /// full candidate set and the allow restriction is a no-op, so probe
    /// fanout and lockstep replication leave every counter unchanged.
    #[test]
    fn routed_counters_match_in_process_three_peers() {
        parity_row(Fleet::routed(3));
    }

    /// A router that cannot bind fails the stand-up after its peers are
    /// serving: the error names the scenario, and the drop drains every
    /// peer and unlinks its socket.
    #[test]
    fn failed_router_bind_tears_the_fleet_down() {
        let s = tiny("parity-no-router");
        let missing =
            std::env::temp_dir().join(format!("gc-serve-bench-{}-missing-dir", std::process::id()));
        let fleet = Fleet {
            router_socket: Some(missing.join("router.sock")),
            ..Fleet::routed(2)
        };
        let t0 = Instant::now();
        let err = run_scenario_on(&s, &fleet).unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
        assert!(err.contains("parity-no-router"), "{err}");
        assert!(err.contains("cannot bind router"), "{err}");
        let prefix = format!("gc-serve-bench-{}-", std::process::id());
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(&prefix) && name.contains("parity-no-router"))
            .collect();
        assert!(left.is_empty(), "peer sockets left behind: {left:?}");
    }
}

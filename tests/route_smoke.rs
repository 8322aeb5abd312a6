//! Routed-fleet smoke tests: in-process `gc serve` peers behind an
//! in-process `gc route` [`Router`], all over per-test unix sockets.
//! Covers the PR's failure-mode bar — a dead peer degrades its ring
//! slice to miss-only instead of taking the fleet down, `BUSY` peers are
//! retried with seeded backoff, and a proto-3 session that never
//! announced `VERSION proto=4` gets a typed version error from a routed
//! peer — plus the exact-repeat fast path and fleet `STATS`.

use graphcache::core::GraphCache;
use graphcache::graph::GraphDataset;
use graphcache::index::fingerprint::iso_hash;
use graphcache::methods::MethodBuilder;
use graphcache::server::{
    Client, ClientError, HoldOutcome, PeerIdentity, QueryFrame, QueryOutcome, RetryPolicy, Ring,
    Router, RouterConfig, RouterShutdownHandle, ServeConfig, Server, StatsScope,
};
use graphcache::workload::{generate_type_a, DatasetProfile, TypeAConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A per-test unix-socket path (tests run in parallel in one process).
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gc-route-smoke-{}-{tag}.sock", std::process::id()))
}

fn dataset() -> GraphDataset {
    DatasetProfile::aids().scaled(0.05).generate(11)
}

fn queries(dataset: &GraphDataset, count: usize) -> Vec<graphcache::graph::LabeledGraph> {
    generate_type_a(dataset, &TypeAConfig::zz(1.4).count(count).seed(13))
        .graphs()
        .cloned()
        .collect()
}

/// The same cache configuration on every peer: replicas advance in
/// lockstep only because they are identically configured and replay the
/// identical (router-sequenced) frame stream.
fn make_cache(dataset: &GraphDataset) -> GraphCache {
    let method = MethodBuilder::ggsx().build(dataset);
    GraphCache::builder()
        .capacity(25)
        .window(8)
        .eviction("hd")
        .try_build(method)
        .expect("cache builds")
}

type DaemonHandle = std::thread::JoinHandle<Result<(), graphcache::server::ServeError>>;

/// Spawns one routed peer (`--peer-id index/total`) on its own socket.
fn spawn_peer(
    cache: GraphCache,
    socket: &Path,
    index: u64,
    total: u64,
    tweak: impl FnOnce(&mut ServeConfig),
) -> DaemonHandle {
    let mut cfg = ServeConfig {
        unix: Some(socket.to_path_buf()),
        peer: PeerIdentity::new(index, total),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(cache, cfg).expect("bind peer socket");
    std::thread::spawn(move || server.run())
}

/// Boots `total` identically configured peers plus a router in front of
/// them. Returns everything a test needs to drive and then unwind the
/// fleet.
struct Fleet {
    router_socket: PathBuf,
    peer_sockets: Vec<PathBuf>,
    peers: Vec<Option<DaemonHandle>>,
    router: std::thread::JoinHandle<Result<(), graphcache::server::ServeError>>,
    router_handle: RouterShutdownHandle,
}

fn boot_fleet(tag: &str, total: u64, data: &GraphDataset) -> Fleet {
    boot_fleet_with(tag, total, data, |_| {})
}

fn boot_fleet_with(
    tag: &str,
    total: u64,
    data: &GraphDataset,
    tweak: impl Fn(&mut ServeConfig),
) -> Fleet {
    let peer_sockets: Vec<PathBuf> = (0..total)
        .map(|i| socket_path(&format!("{tag}-peer{i}")))
        .collect();
    let peers: Vec<Option<DaemonHandle>> = peer_sockets
        .iter()
        .enumerate()
        .map(|(i, sock)| Some(spawn_peer(make_cache(data), sock, i as u64, total, &tweak)))
        .collect();
    let router_socket = socket_path(&format!("{tag}-router"));
    let router = Router::bind(RouterConfig {
        unix: router_socket.clone(),
        peers: peer_sockets.clone(),
        retry: RetryPolicy::seeded(10, 0xf1ee7),
        handle_signals: false,
    })
    .expect("router binds once every peer greets");
    let router_handle = router.shutdown_handle();
    let router = std::thread::spawn(move || router.run());
    Fleet {
        router_socket,
        peer_sockets,
        peers,
        router,
        router_handle,
    }
}

impl Fleet {
    /// Connects to the router, tolerating the bind/accept gap.
    fn connect(&self) -> Client {
        connect(&self.router_socket)
    }

    /// Drains one peer and waits for it to be fully gone, so the next
    /// routed interaction deterministically observes the death instead of
    /// racing the peer's drain grace window.
    fn kill_peer(&mut self, idx: usize) {
        connect(&self.peer_sockets[idx])
            .shutdown()
            .expect("shutdown peer");
        self.peers[idx]
            .take()
            .expect("peer killed twice")
            .join()
            .expect("join peer")
            .expect("clean exit");
    }

    /// Stops the router, then drains every still-live peer directly.
    fn unwind(self) {
        self.router_handle.shutdown();
        self.router
            .join()
            .expect("join router")
            .expect("clean exit");
        for (sock, daemon) in self.peer_sockets.iter().zip(self.peers) {
            let Some(daemon) = daemon else { continue };
            if let Ok(mut client) = Client::connect_unix(sock) {
                let _ = client.shutdown();
            }
            daemon.join().expect("join peer").expect("clean exit");
            let _ = std::fs::remove_file(sock);
        }
        let _ = std::fs::remove_file(&self.router_socket);
    }
}

fn connect(socket: &Path) -> Client {
    for _ in 0..200 {
        match Client::connect_unix(socket) {
            Ok(client) => return client,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("daemon at {socket:?} never accepted");
}

fn frame(id: u64, graph: &graphcache::graph::LabeledGraph) -> QueryFrame {
    QueryFrame {
        id,
        graph: graph.clone(),
        kind: None,
        verify_budget: None,
        max_hits: None,
        bypass: false,
        timeout_ms: None,
        allow: None,
    }
}

fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("STATS missing {key}"))
}

/// Replaying a workload twice through the router: the second pass is all
/// exact repeats, so every query takes the O(1) fast path (no probe
/// fanout), and the fleet-health gauges report every peer live.
#[test]
fn exact_repeats_take_the_fast_path() {
    let data = dataset();
    let workload = queries(&data, 8);
    let fleet = boot_fleet("fastpath", 3, &data);
    let mut client = fleet.connect();

    let mut first_pass = Vec::new();
    for (i, graph) in workload.iter().enumerate() {
        match client.query(frame(i as u64, graph)).expect("query") {
            QueryOutcome::Result(r) => first_pass.push(r.answer),
            QueryOutcome::Busy { .. } => panic!("sequenced replay must never see BUSY"),
        }
    }
    let warm_stats = client.stats(StatsScope::Global).expect("stats");
    for (i, graph) in workload.iter().enumerate() {
        match client.query(frame(100 + i as u64, graph)).expect("query") {
            QueryOutcome::Result(r) => {
                assert_eq!(r.answer, first_pass[i], "repeat {i} changed its answer");
            }
            QueryOutcome::Busy { .. } => panic!("sequenced replay must never see BUSY"),
        }
    }

    let stats = client.stats(StatsScope::Global).expect("stats");
    // Every second-pass query was a known fingerprint with a live owner.
    let uniques = {
        let mut fps: Vec<u64> = workload.iter().map(iso_hash).collect();
        fps.sort_unstable();
        fps.dedup();
        fps.len() as u64
    };
    assert_eq!(
        stat(&stats, "routed_exact") - stat(&warm_stats, "routed_exact"),
        workload.len() as u64
    );
    // Each first-sight query fanned its probe to all three live peers.
    assert_eq!(stat(&stats, "fanout_probes"), uniques * 3);
    assert_eq!(stat(&stats, "peer_misses"), 0);
    assert_eq!(stat(&stats, "peers_live"), 3);
    assert_eq!(stat(&stats, "peers_total"), 3);
    drop(client);
    fleet.unwind();
}

/// Killing a peer mid-fleet degrades its ring slice to miss-only: fresh
/// queries — including ones the dead peer *owned* — still succeed, the
/// router counts the degradation in `peer_misses`, and nothing panics.
#[test]
fn dead_peer_degrades_to_miss_only() {
    let data = dataset();
    let workload = queries(&data, 24);
    let mut fleet = boot_fleet("degrade", 3, &data);
    let mut client = fleet.connect();

    // Warm with a prefix, then kill peer 1 out from under the router.
    for (i, graph) in workload[..6].iter().enumerate() {
        match client.query(frame(i as u64, graph)).expect("query") {
            QueryOutcome::Result(_) => {}
            QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
        }
    }
    fleet.kill_peer(1);

    // The ring is deterministic, so pick a fresh query the dead peer
    // owns: it must take the degraded (dead-owner) path and still answer.
    let ring = Ring::new(3);
    let orphan = workload[6..]
        .iter()
        .find(|g| ring.owner(iso_hash(g)) == 1)
        .expect("24 zipf queries cover all three slices");
    match client.query(frame(1000, orphan)).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 1000),
        QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
    }
    // And queries owned by surviving peers keep working too.
    let kept = workload[6..]
        .iter()
        .find(|g| ring.owner(iso_hash(g)) != 1)
        .expect("24 zipf queries cover all three slices");
    match client.query(frame(1001, kept)).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 1001),
        QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
    }

    let stats = client.stats(StatsScope::Global).expect("stats");
    assert!(
        stat(&stats, "peer_misses") > 0,
        "degradation went uncounted"
    );
    assert_eq!(stat(&stats, "peers_live"), 2);
    assert_eq!(stat(&stats, "peers_total"), 3);
    drop(client);
    fleet.unwind();
}

/// A saturated peer is retried with the router's seeded backoff: `HOLD`
/// takes the single permit on the only peer, a background release after
/// ~150ms lands inside the retry schedule, and the routed query succeeds
/// without ever surfacing `BUSY` to the client or degrading the peer.
#[test]
fn busy_peer_is_retried_with_backoff() {
    let data = dataset();
    let workload = queries(&data, 1);
    let fleet = boot_fleet_with("busy", 1, &data, |cfg| cfg.max_inflight = 1);

    let mut holder = connect(&fleet.peer_sockets[0]);
    assert_eq!(holder.hold().expect("hold"), HoldOutcome::Held);
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        holder.release().expect("release");
        holder.quit().expect("quit");
    });

    let mut client = fleet.connect();
    match client.query(frame(1, &workload[0])).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 1),
        QueryOutcome::Busy { .. } => panic!("router must retry BUSY, not forward it"),
    }
    releaser.join().expect("join releaser");

    let stats = client.stats(StatsScope::Global).expect("stats");
    assert_eq!(stat(&stats, "peer_misses"), 0, "BUSY is not a degradation");
    assert_eq!(stat(&stats, "peers_live"), 1);
    drop(client);
    fleet.unwind();
}

/// Version gating on routed peers: a session that never announced
/// `VERSION proto=4` (a proto-3 client) gets a typed `ERR code=version`
/// for query traffic, while control frames (`PING`, `STATS`) stay open;
/// after announcing, the same session queries normally.
#[test]
fn unannounced_sessions_cannot_query_a_routed_peer() {
    let data = dataset();
    let workload = queries(&data, 1);
    let socket = socket_path("vgate");
    let daemon = spawn_peer(make_cache(&data), &socket, 0, 1, |_| {});

    let mut client = connect(&socket);
    client.ping(Some("ungated")).expect("ping is version-free");
    client
        .stats(StatsScope::Global)
        .expect("stats is version-free");
    match client.query(frame(1, &workload[0])) {
        Err(ClientError::Server { code, msg }) => {
            assert_eq!(code, "version");
            assert!(msg.contains("proto"), "error names the protocol: {msg}");
        }
        other => panic!("unannounced query must be refused, got {other:?}"),
    }

    assert_eq!(client.announce().expect("announce"), 4);
    match client.query(frame(2, &workload[0])).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 2),
        QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

/// A plain (non-routed) daemon never version-gates: proto-3 clients keep
/// working against it exactly as before.
#[test]
fn unrouted_daemons_accept_unannounced_queries() {
    let data = dataset();
    let workload = queries(&data, 1);
    let socket = socket_path("ungated");
    let cfg = ServeConfig {
        unix: Some(socket.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind(make_cache(&data), cfg).expect("bind");
    let daemon = std::thread::spawn(move || server.run());

    let mut client = connect(&socket);
    match client.query(frame(1, &workload[0])).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 1),
        QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

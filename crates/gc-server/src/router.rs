//! `gc route` — the fingerprint-routing front-end for a fleet of
//! `gc serve` peers.
//!
//! # Routed replication
//!
//! Every peer holds a **full replica** of the cache and advances it in
//! lockstep by deterministic re-execution; what is partitioned across the
//! fleet is not cache *state* but cache *lookup work*. The [`Ring`]
//! assigns each 64-bit iso-fingerprint
//! ([`gc_index::fingerprint::iso_hash`]) an owning peer; the [`Router`]
//! computes each query's fingerprint locally and:
//!
//! 1. **Exact repeat, owner live** — the fingerprint was routed before,
//!    so the owner is guaranteed to answer it from its exact-match probe:
//!    skip the fanout entirely (`routed_exact`, the O(1) fast path) and
//!    send the `QUERY` unrestricted.
//! 2. **First sight** — `PROBE` every live peer; each returns the
//!    candidate serials whose *entry* fingerprints fall in its ring
//!    slice. The merged union is attached to the owner's `QUERY` (and to
//!    every replica's `ROUTE`) as `allow=`. With all peers live the union
//!    is the full candidate set, so the restriction is a no-op — which is
//!    exactly why a 1-peer and an N-peer fleet produce byte-identical
//!    deterministic counters. With a peer dead, its slice is simply
//!    missing: hits it would have contributed become misses (restriction
//!    only ever *removes* candidates, so degraded answers stay correct).
//! 3. **Replication** — the owner executes the `QUERY` authoritatively;
//!    every other live peer gets the same frame as a `ROUTE` apply and
//!    must report the same serial. A replica that desyncs, saturates, or
//!    drops the connection is degraded out of the fleet (`peer_misses`).
//! 4. **Dead owner** — no peer holds authority for the fingerprint, so
//!    the query executes cache-bypassed on every live replica (serials
//!    advance identically, cache state does not change) and the answer
//!    comes from the first live replica: a degraded *miss-only* slice,
//!    not an outage.
//!
//! The router serializes all query traffic through one mutex — it is the
//! fleet's global sequencer, which is what makes "deterministic
//! re-execution" well-defined across replicas.
//!
//! # Caveat: deadlines on a routed fleet
//!
//! A `timeout=` deadline abort is wall-clock-dependent: the owner may
//! abort where a replica completes (or vice versa), desynchronising
//! cache admission across the fleet. The router still broadcasts the
//! frame — serial counters stay in lockstep either way — but
//! deterministic-parity gates must use deadlines that never fire (the
//! committed smoke baseline uses 60s). See `docs/operations.md`.

use crate::client::{Client, ClientError, QueryOutcome, RetryPolicy, RouteOutcome};
use crate::proto::{
    parse_request, FrameEvent, FrameReader, QueryFrame, Request, Response, StatsScope,
    PROTO_VERSION,
};
use crate::server::{send, signal, Conn, ServeError, POLL_INTERVAL};
use gc_core::RouteCounters;
use gc_index::fingerprint::iso_hash;
use std::collections::HashSet;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Virtual nodes per peer on the consistent-hash ring. 64 vnodes keep
/// slice sizes within a few percent of even for small fleets while the
/// ring stays tiny (N×64 points).
const VNODES_PER_PEER: u64 = 64;

/// Read deadline on router→peer calls: a wedged peer is degraded out of
/// the fleet instead of wedging the router with it.
const PEER_CALL_TIMEOUT: Duration = Duration::from_secs(120);

/// This daemon's identity inside a routed fleet: peer `index` of `total`.
///
/// Carried in `ServeConfig::peer` (the `gc serve --peer-id I/N` flag),
/// advertised in `HELLO peer=I/N`, and used to filter `PROBE` replies to
/// the ring slice this peer owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerIdentity {
    /// Zero-based peer index.
    pub index: u64,
    /// Fleet size.
    pub total: u64,
}

impl PeerIdentity {
    /// A validated identity: `index` must be in `0..total`.
    pub fn new(index: u64, total: u64) -> Option<PeerIdentity> {
        (total >= 1 && index < total).then_some(PeerIdentity { index, total })
    }
}

/// SplitMix64 — a bijective 64-bit mixer, so distinct vnode seeds can
/// never collide on the ring.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fleet's consistent-hash ring over the 64-bit fingerprint space.
///
/// Deterministic in `total` alone: every router and every peer of an
/// N-peer fleet computes the identical ring, so ownership decisions need
/// no coordination. A fingerprint is owned by the peer of the first ring
/// point at or after it (wrapping).
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, peer)` sorted by point; points are distinct because the
    /// mixer is bijective over distinct `(peer, vnode)` seeds.
    points: Vec<(u64, u64)>,
}

impl Ring {
    /// The ring for a fleet of `total` peers (panics on `total == 0`).
    pub fn new(total: u64) -> Ring {
        assert!(total >= 1, "a fleet has at least one peer");
        let mut points = Vec::with_capacity((total * VNODES_PER_PEER) as usize);
        for peer in 0..total {
            for vnode in 0..VNODES_PER_PEER {
                points.push((splitmix64((peer << 32) | vnode), peer));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// The peer index owning `fingerprint`.
    ///
    /// ```
    /// use gc_server::router::Ring;
    ///
    /// let ring = Ring::new(3);
    /// assert!(ring.owner(0x1234_5678_9abc_def0) < 3);
    /// // Deterministic: any party computing the ring agrees.
    /// assert_eq!(ring.owner(42), Ring::new(3).owner(42));
    /// ```
    pub fn owner(&self, fingerprint: u64) -> u64 {
        let at = self
            .points
            .partition_point(|&(point, _)| point < fingerprint);
        let at = if at == self.points.len() { 0 } else { at };
        self.points[at].1
    }
}

/// Router configuration — the knobs behind `gc route`'s flags.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The unix socket the router serves clients on.
    pub unix: PathBuf,
    /// Peer sockets in peer-index order: `peers[i]` must be the daemon
    /// started with `--peer-id i/N`.
    pub peers: Vec<PathBuf>,
    /// Retry/backoff for peer connects, `BUSY` rejections, and routed
    /// applies (shared with the client-facing contract, see
    /// [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Install SIGTERM/SIGINT handlers that trigger graceful drain.
    pub handle_signals: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            unix: PathBuf::new(),
            peers: Vec::new(),
            retry: RetryPolicy::default(),
            handle_signals: false,
        }
    }
}

/// One router→peer link. `client: None` means the peer is dead and its
/// ring slice is degraded (miss-only) until the fleet restarts — a
/// restarted peer would hold a stale replica, so the router never
/// reconnects on its own.
struct PeerLink {
    path: PathBuf,
    client: Option<Client>,
}

/// The routing state behind the sequencer mutex.
struct RouteState {
    peers: Vec<PeerLink>,
    ring: Ring,
    retry: RetryPolicy,
    /// Fingerprints of queries already routed fleet-wide: membership
    /// proves the owner answers the repeat from its exact probe, so the
    /// fanout can be skipped.
    seen: HashSet<u64>,
    counters: RouteCounters,
}

impl RouteState {
    fn live_peers(&self) -> u64 {
        self.peers.iter().filter(|p| p.client.is_some()).count() as u64
    }

    /// Degrades a peer out of the fleet after a failed interaction.
    fn mark_dead(&mut self, idx: usize) {
        if let Some(link) = self.peers.get_mut(idx) {
            if link.client.take().is_some() {
                eprintln!(
                    "gc route: peer {idx} ({}) unreachable or desynced; \
                     its slice degrades to miss-only",
                    link.path.display()
                );
            }
        }
        self.counters.peer_misses += 1;
    }

    /// Routes one query (the sequencer mutex is held by the caller).
    fn route_query(&mut self, frame: QueryFrame) -> Response {
        let fp = iso_hash(&frame.graph);
        let owner = self.ring.owner(fp) as usize;

        if self.peers[owner].client.is_none() {
            self.counters.peer_misses += 1;
            return self.degraded_execute(frame);
        }

        // Build the allow restriction. `None` means unrestricted — used
        // both for bypass frames (no sweep happens) and for exact repeats
        // (the owner's exact probe ignores the allow filter anyway).
        let allow = if frame.bypass {
            None
        } else if self.seen.contains(&fp) {
            self.counters.routed_exact += 1;
            None
        } else {
            let mut merged = Vec::new();
            for idx in 0..self.peers.len() {
                let Some(client) = self.peers[idx].client.as_mut() else {
                    continue;
                };
                match client.probe(frame.id, frame.graph.clone(), frame.kind) {
                    Ok(cands) => {
                        self.counters.fanout_probes += 1;
                        merged.extend(cands);
                    }
                    Err(_) => self.mark_dead(idx),
                }
            }
            if self.peers[owner].client.is_none() {
                // The owner died during the fanout.
                return self.degraded_execute(frame);
            }
            merged.sort_unstable();
            merged.dedup();
            Some(merged)
        };

        let mut owner_frame = frame.clone();
        owner_frame.allow = allow.clone();
        let retry = self.retry;
        let outcome = self.peers[owner]
            .client
            .as_mut()
            .expect("owner checked live")
            .query_with_retry(owner_frame, &retry);
        let (reply, owner_serial) = match outcome {
            Ok(QueryOutcome::Result(r)) => {
                let serial = r.serial;
                (Response::Result(r), Some(serial))
            }
            // BUSY after retries: the owner never executed, so no replica
            // may either — propagate and leave the fleet untouched.
            Ok(QueryOutcome::Busy { inflight, max }) => {
                return Response::Busy {
                    id: frame.id,
                    inflight,
                    max,
                };
            }
            // A typed error (deadline) means the owner DID execute — its
            // serial advanced and the record was tallied — so replicas
            // must still apply the frame to stay in lockstep.
            Err(ClientError::Server { code, msg }) => (Response::Err { code, msg }, None),
            Err(_) => {
                // Transport failure mid-query: whether the owner applied
                // the frame is unknowable. Drop it and serve degraded.
                self.mark_dead(owner);
                return self.degraded_execute(frame);
            }
        };

        let mut routed_frame = frame.clone();
        routed_frame.allow = allow;
        self.broadcast_route(&routed_frame, owner, owner_serial);
        if !frame.bypass {
            self.seen.insert(fp);
        }
        reply
    }

    /// Applies `frame` on every live peer except `skip`, checking serial
    /// agreement where the owner's serial is known. A replica that
    /// saturates, errors, or reports a different serial has diverged from
    /// the fleet and is degraded out.
    fn broadcast_route(&mut self, frame: &QueryFrame, skip: usize, expect_serial: Option<u64>) {
        let retry = self.retry;
        for idx in 0..self.peers.len() {
            if idx == skip {
                continue;
            }
            let Some(client) = self.peers[idx].client.as_mut() else {
                continue;
            };
            let in_lockstep = match client.route_with_retry(frame.clone(), &retry) {
                Ok(RouteOutcome::Applied(serial)) => {
                    expect_serial.is_none_or(|expect| expect == serial)
                }
                // The replica hit the same deadline the owner did; its
                // serial still advanced.
                Err(ClientError::Server { ref code, .. }) if code == "deadline" => true,
                Ok(RouteOutcome::Busy { .. }) | Err(_) => false,
            };
            if !in_lockstep {
                self.mark_dead(idx);
            }
        }
    }

    /// Dead-owner path: no peer holds authority for this fingerprint, so
    /// the query executes **cache-bypassed** on every live replica —
    /// serials advance identically while no replica's cache state changes
    /// — and the answer comes from the first live replica. The
    /// fingerprint is *not* recorded as seen: repeats must take this
    /// degraded (miss-only) path for as long as the owner stays dead.
    fn degraded_execute(&mut self, frame: QueryFrame) -> Response {
        let mut bypass_frame = frame.clone();
        bypass_frame.bypass = true;
        bypass_frame.allow = None;
        let retry = self.retry;
        loop {
            let Some(first) = self.peers.iter().position(|p| p.client.is_some()) else {
                return Response::Err {
                    code: "degraded".into(),
                    msg: "no live peers: every slice of the fingerprint space is down".into(),
                };
            };
            let outcome = self.peers[first]
                .client
                .as_mut()
                .expect("position found a live peer")
                .query_with_retry(bypass_frame.clone(), &retry);
            match outcome {
                Ok(QueryOutcome::Result(r)) => {
                    let serial = r.serial;
                    self.broadcast_route(&bypass_frame, first, Some(serial));
                    return Response::Result(r);
                }
                // Nothing has executed anywhere yet — propagate BUSY.
                Ok(QueryOutcome::Busy { inflight, max }) => {
                    return Response::Busy {
                        id: frame.id,
                        inflight,
                        max,
                    };
                }
                Err(ClientError::Server { code, msg }) => {
                    // Executed but answered with a typed error (deadline):
                    // keep the replicas in lockstep, then forward it.
                    self.broadcast_route(&bypass_frame, first, None);
                    return Response::Err { code, msg };
                }
                Err(_) => {
                    self.mark_dead(first);
                    // Try the next live replica.
                }
            }
        }
    }

    /// Fleet STATS: the counter snapshot of the lowest-indexed live peer
    /// (all replicas agree while in lockstep) plus the router's own
    /// routing counters and fleet-health gauges appended as extra keys.
    fn stats_reply(&mut self, scope: StatsScope) -> Response {
        let mut counters: Vec<(String, u64)> = Vec::new();
        while let Some(first) = self.peers.iter().position(|p| p.client.is_some()) {
            match self.peers[first]
                .client
                .as_mut()
                .expect("position found a live peer")
                .stats(scope)
            {
                Ok(peer_counters) => {
                    counters = peer_counters;
                    break;
                }
                Err(_) => self.mark_dead(first),
            }
        }
        for (key, value) in self.counters.stats_counters() {
            counters.push((key.to_string(), value));
        }
        counters.push(("peers_live".to_string(), self.live_peers()));
        counters.push(("peers_total".to_string(), self.peers.len() as u64));
        Response::Stats(counters)
    }
}

/// State shared between the accept loop and router sessions.
struct RouterShared {
    /// The sequencer: all routed queries serialize through this mutex,
    /// which is what makes deterministic re-execution well-defined.
    state: Mutex<RouteState>,
    draining: AtomicBool,
    next_session: AtomicU64,
}

impl RouterShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::TERMINATE.load(Ordering::SeqCst)
    }
}

/// Requests router drain from outside the protocol (tests, embedders).
#[derive(Clone)]
pub struct RouterShutdownHandle {
    shared: Arc<RouterShared>,
}

impl RouterShutdownHandle {
    /// Flips the drain flag, as `SHUTDOWN`/SIGTERM would. Stops only the
    /// router — peers keep serving and are drained directly.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }
}

/// A bound-but-not-yet-running router. Like `Server`, binding and running
/// are separate so callers can connect the moment `bind` returns.
///
/// ```
/// use gc_server::router::{Router, RouterConfig};
/// use gc_server::RetryPolicy;
///
/// let sock = std::env::temp_dir().join(format!("gc-route-doc-{}.sock", std::process::id()));
/// let cfg = RouterConfig {
///     unix: sock.clone(),
///     peers: vec!["/nonexistent/peer-0.sock".into()],
///     retry: RetryPolicy::with_attempts(0),
///     handle_signals: false,
/// };
/// // A dead peer at bind time is a degraded slice, not a bind failure.
/// let router = Router::bind(cfg).unwrap();
/// let handle = router.shutdown_handle();
/// handle.shutdown(); // `router.run()` would now return immediately
/// # std::fs::remove_file(&sock).ok();
/// ```
pub struct Router {
    listener: UnixListener,
    unix_path: PathBuf,
    shared: Arc<RouterShared>,
    handle_signals: bool,
}

impl Router {
    /// Binds the router socket and dials every peer in index order.
    ///
    /// Each live peer must greet with `HELLO peer=i/N` matching its
    /// position in `cfg.peers` — a mismatch is a misconfiguration and
    /// fails the bind. A peer that cannot be reached at all is degraded
    /// (its slice serves misses), not fatal.
    pub fn bind(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.peers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no peers configured (need at least one --peer)",
            ));
        }
        let total = cfg.peers.len() as u64;
        let mut peers = Vec::with_capacity(cfg.peers.len());
        for (idx, path) in cfg.peers.iter().enumerate() {
            let client = match Client::connect_unix_with_retry(path, &cfg.retry) {
                Ok(mut client) => {
                    match client.peer() {
                        Some((index, fleet)) if index == idx as u64 && fleet == total => {}
                        Some((index, fleet)) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                format!(
                                    "peer {} ({}) identifies as {index}/{fleet}, expected {idx}/{total}",
                                    idx,
                                    path.display()
                                ),
                            ));
                        }
                        None => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                format!(
                                    "daemon at {} is not a routed peer (start it with --peer-id {idx}/{total})",
                                    path.display()
                                ),
                            ));
                        }
                    }
                    client.set_timeout(Some(PEER_CALL_TIMEOUT)).ok();
                    match client.announce() {
                        Ok(_) => Some(client),
                        Err(_) => None,
                    }
                }
                Err(_) => None,
            };
            if client.is_none() {
                eprintln!(
                    "gc route: peer {idx} ({}) is unreachable at bind; \
                     its slice starts degraded (miss-only)",
                    path.display()
                );
            }
            peers.push(PeerLink {
                path: path.clone(),
                client,
            });
        }

        // Same stale-socket ownership probe as the serve daemon.
        if cfg.unix.exists() {
            match UnixStream::connect(&cfg.unix) {
                Ok(_probe) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("socket {} is served by a live daemon", cfg.unix.display()),
                    ));
                }
                Err(_) => {
                    let _ = std::fs::remove_file(&cfg.unix);
                }
            }
        }
        let listener = UnixListener::bind(&cfg.unix)?;
        listener.set_nonblocking(true)?;

        Ok(Router {
            listener,
            unix_path: cfg.unix,
            shared: Arc::new(RouterShared {
                state: Mutex::new(RouteState {
                    peers,
                    ring: Ring::new(total),
                    retry: cfg.retry,
                    seen: HashSet::new(),
                    counters: RouteCounters::default(),
                }),
                draining: AtomicBool::new(false),
                next_session: AtomicU64::new(1),
            }),
            handle_signals: cfg.handle_signals,
        })
    }

    /// A handle that can request drain from another thread.
    pub fn shutdown_handle(&self) -> RouterShutdownHandle {
        RouterShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until drain, then unwinds sessions and
    /// unlinks the router socket. Peers are left running.
    pub fn run(self) -> Result<(), ServeError> {
        if self.handle_signals {
            signal::install();
        }
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
                    workers.push(std::thread::spawn(move || {
                        serve_session(shared, id, Conn::from(stream));
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(ServeError::Io(e)),
            }
            workers.retain(|h| !h.is_finished());
        }
        drop(self.listener);
        for handle in workers {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.unix_path);
        Ok(())
    }
}

/// One client session on the router: greet, then answer frames until the
/// client leaves, a transport error, or drain.
fn serve_session(shared: Arc<RouterShared>, id: u64, mut conn: Conn) {
    if conn.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let hello = Response::Hello {
        proto: PROTO_VERSION,
        session: id,
        // The sequencer mutex admits one routed query at a time.
        max_inflight: 1,
        peer: None,
    };
    if send(&mut conn, &hello).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    loop {
        if shared.draining() {
            let _ = send(
                &mut conn,
                &Response::Bye {
                    reason: "draining".into(),
                },
            );
            return;
        }
        let line = match reader.poll_frame(&mut conn) {
            Ok(FrameEvent::Frame(line)) => line,
            Ok(FrameEvent::Idle) => continue,
            Ok(FrameEvent::Closed) => return,
            Err(err) => {
                let _ = send(
                    &mut conn,
                    &Response::Err {
                        code: err.code().into(),
                        msg: err.to_string(),
                    },
                );
                return;
            }
        };
        let req = match parse_request(&line) {
            Ok(req) => req,
            Err(err) => {
                let reply = Response::Err {
                    code: err.code().into(),
                    msg: err.to_string(),
                };
                if send(&mut conn, &reply).is_err() {
                    return;
                }
                continue;
            }
        };
        let done = matches!(req, Request::Quit | Request::Shutdown);
        if answer(&shared, &mut conn, req).is_err() || done {
            return;
        }
    }
}

fn answer(shared: &RouterShared, conn: &mut Conn, req: Request) -> std::io::Result<()> {
    match req {
        Request::Ping(token) => send(conn, &Response::Pong(token)),
        Request::Version { proto } => send(
            conn,
            &Response::Version {
                proto: proto.min(PROTO_VERSION),
            },
        ),
        Request::Query(frame) => {
            let reply = shared
                .state
                .lock()
                .expect("router state")
                .route_query(frame);
            send(conn, &reply)
        }
        Request::Stats(scope) => {
            let reply = shared
                .state
                .lock()
                .expect("router state")
                .stats_reply(scope);
            send(conn, &reply)
        }
        Request::Probe { .. } | Request::Route(..) => send(
            conn,
            &Response::Err {
                code: "unsupported".into(),
                msg: "the router originates PROBE/ROUTE; clients send QUERY".into(),
            },
        ),
        Request::Hold | Request::Release => send(
            conn,
            &Response::Err {
                code: "unsupported".into(),
                msg: "HOLD/RELEASE are per-peer quiesce levers; address a peer directly".into(),
            },
        ),
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            send(
                conn,
                &Response::Bye {
                    reason: "shutdown".into(),
                },
            )
        }
        Request::Quit => send(
            conn,
            &Response::Bye {
                reason: "quit".into(),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic() {
        let a = Ring::new(5);
        let b = Ring::new(5);
        for fp in [0u64, 1, 42, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            assert_eq!(a.owner(fp), b.owner(fp));
        }
    }

    #[test]
    fn ring_covers_every_fingerprint_and_partitions_them() {
        let ring = Ring::new(3);
        let mut hit = [0u64; 3];
        // A fingerprint-space sweep: every probe resolves to exactly one
        // valid peer, and with 64 vnodes per peer none of the three
        // slices is empty.
        let mut fp = 0x0123_4567_89ab_cdefu64;
        for _ in 0..4096 {
            fp = splitmix64(fp);
            let owner = ring.owner(fp);
            assert!(owner < 3, "owner {owner} out of range");
            hit[owner as usize] += 1;
        }
        assert!(hit.iter().all(|&count| count > 0), "empty slice: {hit:?}");
    }

    #[test]
    fn ring_of_one_owns_everything() {
        let ring = Ring::new(1);
        for fp in [0u64, 7, u64::MAX] {
            assert_eq!(ring.owner(fp), 0);
        }
    }

    #[test]
    fn peer_identity_validates_bounds() {
        assert!(PeerIdentity::new(0, 1).is_some());
        assert!(PeerIdentity::new(2, 3).is_some());
        assert!(PeerIdentity::new(3, 3).is_none());
        assert!(PeerIdentity::new(0, 0).is_none());
    }

    #[test]
    fn router_refuses_an_empty_fleet() {
        let err = Router::bind(RouterConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}

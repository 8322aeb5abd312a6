//! The daemon: listeners, sessions, admission permits, graceful drain.
//!
//! One [`Server`] owns one shared [`GraphCache`] (a cheap-to-clone
//! service handle) and any number of listeners — TCP, unix socket, or
//! both. Each accepted connection becomes a *session*: a thread that
//! decodes frames with a [`FrameReader`],
//! executes `QUERY` frames against the shared cache, and tallies every
//! completed record into both its own and the global
//! [`RunCounters`] (via `RunCounters::add_record`, so `STATS` output uses
//! the exact counter names the benchmark harness serializes).
//!
//! # Admission under load
//!
//! Query admission is a fixed pool of permits (`max_inflight`, default =
//! the cache's batch thread count). A `QUERY` frame that cannot take a
//! permit is answered with a typed `BUSY` frame and **not executed** —
//! the client owns the retry, the server never queues unboundedly.
//! Sessions read frames strictly in order, so one session holds at most
//! one execution permit at a time; the pool bounds *cross-session*
//! concurrency. The `HOLD`/`RELEASE` frames take/return one permit from
//! the same pool without running a query, which gives operators a quiesce
//! lever and gives tests a deterministic way to saturate the pool (no
//! sleeps, no timing assumptions). A held permit is returned when the
//! session disconnects.
//!
//! # Graceful drain
//!
//! `SHUTDOWN` (any session), SIGTERM, or SIGINT set a draining flag. The
//! accept loop stops accepting; every session finishes the frame it is
//! executing, sends `BYE reason=draining` (or `reason=shutdown` to the
//! requester) and closes; [`Server::run`] waits up to `drain_timeout` for
//! sessions to unwind, optionally persists the cache snapshot
//! (`persist_on_exit`), and returns. In-flight queries always complete —
//! drain interrupts the protocol between frames, never a running query.

use crate::proto::{
    encode_response, parse_request, FrameEvent, FrameReader, ProtoError, QueryFrame, Request,
    Response, StatsScope, PROTO_VERSION,
};
use crate::router::{PeerIdentity, Ring};
use gc_core::{GraphCache, QueryRequest, RunCounters};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long sessions sleep between polls of their read timeout — the
/// latency bound on noticing a drain request mid-idle.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Why the daemon stopped abnormally. Typed so callers can distinguish a
/// transport failure from a drain-time snapshot that did not land — the
/// latter means the service ran fine but its final state was **not**
/// persisted, which deserves a different exit path than an accept error.
#[derive(Debug)]
pub enum ServeError {
    /// A listener or transport error in the accept loop.
    Io(std::io::Error),
    /// The drain-time `persist_on_exit` snapshot failed; the cache served
    /// correctly but its final state is only as durable as the last
    /// committed generation.
    ExitSnapshot {
        /// The snapshot directory the save targeted.
        dir: PathBuf,
        /// The underlying staged-write failure.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::ExitSnapshot { dir, source } => {
                write!(f, "exit snapshot to {dir:?} failed: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::ExitSnapshot { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// SIGTERM/SIGINT handling. `std` exposes no signal API and the offline
/// build has no `libc` crate, so this is a minimal hand-rolled binding to
/// the one function needed: `signal(2)`, which std's runtime already
/// links. The handler only stores to an atomic — async-signal-safe.
#[allow(unsafe_code)]
pub(crate) mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler on SIGTERM/SIGINT; polled by the accept loop.
    pub(crate) static TERMINATE: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Routes SIGTERM and SIGINT to the drain flag.
    pub(crate) fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Daemon configuration — the knobs behind `gc serve`'s flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (`host:port`), if any.
    pub listen: Option<String>,
    /// Unix socket path, if any. A stale socket file at this path is
    /// removed before binding (the daemon owns its path).
    pub unix: Option<PathBuf>,
    /// Maximum concurrent sessions; further connections are refused with
    /// `ERR code=max-sessions`.
    pub max_sessions: usize,
    /// Size of the admission-permit pool; `0` sizes it from the cache's
    /// batch thread count.
    pub max_inflight: usize,
    /// How long [`Server::run`] waits for sessions to unwind after drain
    /// starts before giving up on stragglers.
    pub drain_timeout: Duration,
    /// Persist the cache snapshot to this directory after drain.
    pub persist_on_exit: Option<PathBuf>,
    /// Also persist the snapshot periodically while serving (into the
    /// `persist_on_exit` directory), so a `kill -9` loses at most this
    /// much history. Saves run from the accept loop through the atomic
    /// generational writer; queries keep flowing while one is in
    /// progress. `None` = exit-time snapshot only.
    pub snapshot_every: Option<Duration>,
    /// Install SIGTERM/SIGINT handlers that trigger graceful drain (the
    /// CLI daemon sets this; in-process test servers leave it off).
    pub handle_signals: bool,
    /// Serve as routed peer `index` of a `total`-peer fleet: `HELLO`
    /// advertises the identity, `PROBE` replies are filtered to the
    /// consistent-hash slice of the fingerprint space this peer owns, and
    /// `QUERY`/`PROBE`/`ROUTE` require the session to announce
    /// `VERSION proto>=4` first (`None` = standalone daemon, no gate).
    pub peer: Option<PeerIdentity>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: None,
            unix: None,
            max_sessions: 64,
            max_inflight: 0,
            drain_timeout: Duration::from_secs(10),
            persist_on_exit: None,
            snapshot_every: None,
            handle_signals: false,
            peer: None,
        }
    }
}

/// A bidirectional connection over either transport.
#[derive(Debug)]
pub(crate) enum Conn {
    /// TCP client connection.
    Tcp(TcpStream),
    /// Unix-socket client connection.
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    cache: GraphCache,
    max_sessions: usize,
    max_inflight: usize,
    /// Admission permits currently taken (by executing queries and by
    /// `HOLD`ing sessions).
    inflight: AtomicUsize,
    /// Live session count.
    sessions: AtomicUsize,
    sessions_total: AtomicU64,
    next_session: AtomicU64,
    busy_rejections: AtomicU64,
    proto_errors: AtomicU64,
    draining: AtomicBool,
    /// Global query counters, accumulated record-by-record.
    global: Mutex<RunCounters>,
    persist_on_exit: Option<PathBuf>,
    /// Snapshot generations committed while serving (periodic saves).
    snapshots_written: AtomicU64,
    /// Routed-peer identity, when serving as part of a fleet.
    peer: Option<PeerIdentity>,
    /// The fleet's consistent-hash ring (present iff `peer` is).
    ring: Option<Ring>,
}

impl Shared {
    /// Takes one admission permit, or reports the pool saturated.
    fn try_acquire(&self) -> Result<(), usize> {
        let mut cur = self.inflight.load(Ordering::Acquire);
        loop {
            if cur >= self.max_inflight {
                return Err(cur);
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::TERMINATE.load(Ordering::SeqCst)
    }

    /// The `STATS` payload: query counters first (harness naming), then
    /// maintenance + cache shape (the same extension order as the
    /// harness runner), then serve-level gauges.
    fn global_stats(&self) -> Vec<(String, u64)> {
        let run = *self.global.lock().expect("stats lock");
        let mut out: Vec<(String, u64)> = run
            .deterministic_counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.extend(
            self.cache
                .maint_stats()
                .deterministic_counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v)),
        );
        out.push(("cache_entries".into(), self.cache.cache_len() as u64));
        out.push(("memory_bytes".into(), self.cache.memory_bytes() as u64));
        out.push((
            "sessions_open".into(),
            self.sessions.load(Ordering::SeqCst) as u64,
        ));
        out.push((
            "sessions_total".into(),
            self.sessions_total.load(Ordering::SeqCst),
        ));
        out.push((
            "inflight".into(),
            self.inflight.load(Ordering::SeqCst) as u64,
        ));
        out.push(("max_inflight".into(), self.max_inflight as u64));
        out.push((
            "busy_rejections".into(),
            self.busy_rejections.load(Ordering::SeqCst),
        ));
        out.push((
            "proto_errors".into(),
            self.proto_errors.load(Ordering::SeqCst),
        ));
        out.push((
            "snapshots_written".into(),
            self.snapshots_written.load(Ordering::SeqCst),
        ));
        out.push((
            "recovered_generation".into(),
            self.cache.recovered_generation().unwrap_or(0),
        ));
        out
    }
}

/// One bound listener of either flavour, switched to non-blocking so the
/// accept loop can interleave listeners and poll the drain flag.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one pending connection, if any (`None` when the accept
    /// would block).
    fn try_accept(&self) -> std::io::Result<Option<Conn>> {
        let conn = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Conn::Tcp(s)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Some(Conn::Unix(s)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        Ok(conn)
    }
}

/// A bound-but-not-yet-running daemon. Binding and running are separate
/// steps so callers (tests, the bench driver) can connect clients the
/// moment [`Server::bind`] returns — connections queue in the listen
/// backlog until [`Server::run`] starts accepting.
///
/// ```
/// use gc_core::GraphCache;
/// use gc_graph::{GraphDataset, LabeledGraph};
/// use gc_methods::MethodBuilder;
/// use gc_server::{ServeConfig, Server};
///
/// let dataset = GraphDataset::new(vec![LabeledGraph::from_parts(vec![0, 1], &[(0, 1)])]);
/// let cache = GraphCache::builder().build(MethodBuilder::ggsx().build(&dataset));
///
/// let sock = std::env::temp_dir().join(format!("gc-serve-doc-{}.sock", std::process::id()));
/// let cfg = ServeConfig { unix: Some(sock.clone()), ..ServeConfig::default() };
/// let server = Server::bind(cache, cfg)?;
/// let handle = server.shutdown_handle();
///
/// // `run()` blocks until drain; a real deployment parks the main thread
/// // here and drains on SIGTERM (`handle_signals: true`).
/// handle.shutdown();
/// server.run().expect("clean drain");
/// assert!(!sock.exists(), "socket unlinked on exit");
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    listeners: Vec<Listener>,
    drain_timeout: Duration,
    snapshot_every: Option<Duration>,
    handle_signals: bool,
    /// Socket file to unlink on exit.
    unix_path: Option<PathBuf>,
    tcp_addr: Option<std::net::SocketAddr>,
}

impl Server {
    /// Binds every configured listener. Fails with a usage-shaped error
    /// when no listener is configured, and with the bind error otherwise.
    pub fn bind(cache: GraphCache, cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.listen.is_none() && cfg.unix.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no listener configured (need --listen and/or --unix)",
            ));
        }
        let max_inflight = if cfg.max_inflight == 0 {
            cache.batch_threads()
        } else {
            cfg.max_inflight
        };
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &cfg.listen {
            let l = TcpListener::bind(addr)?;
            tcp_addr = Some(l.local_addr()?);
            l.set_nonblocking(true)?;
            listeners.push(Listener::Tcp(l));
        }
        let mut unix_path = None;
        if let Some(path) = &cfg.unix {
            // The daemon owns its socket path, but only when no other
            // daemon is serving it: probe a leftover socket file with a
            // connect before unlinking. A live server answers the connect
            // (bind fails with AddrInUse instead of silently stealing the
            // path); a dead one refuses, which marks the file stale — the
            // residue of a crashed or killed daemon — and safe to remove.
            if path.exists() {
                match UnixStream::connect(path) {
                    Ok(_probe) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("socket {} is served by a live daemon", path.display()),
                        ));
                    }
                    Err(_) => {
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            listeners.push(Listener::Unix(l));
            unix_path = Some(path.clone());
        }
        Ok(Server {
            shared: Arc::new(Shared {
                cache,
                max_sessions: cfg.max_sessions.max(1),
                max_inflight: max_inflight.max(1),
                inflight: AtomicUsize::new(0),
                sessions: AtomicUsize::new(0),
                sessions_total: AtomicU64::new(0),
                next_session: AtomicU64::new(1),
                busy_rejections: AtomicU64::new(0),
                proto_errors: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                global: Mutex::new(RunCounters::default()),
                persist_on_exit: cfg.persist_on_exit.clone(),
                snapshots_written: AtomicU64::new(0),
                peer: cfg.peer,
                ring: cfg.peer.map(|p| Ring::new(p.total)),
            }),
            listeners,
            drain_timeout: cfg.drain_timeout,
            snapshot_every: cfg.snapshot_every,
            handle_signals: cfg.handle_signals,
            unix_path,
            tcp_addr,
        })
    }

    /// The bound TCP address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_addr
    }

    /// A handle that can request drain from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until drain, then waits for sessions to
    /// unwind and optionally persists the snapshot. Returns once the
    /// daemon is fully stopped. A drain-time snapshot that fails is a
    /// typed [`ServeError::ExitSnapshot`], never a silent drop — the
    /// operator must learn the final state did not land.
    pub fn run(self) -> Result<(), ServeError> {
        if self.handle_signals {
            signal::install();
        }
        let mut workers = Vec::new();
        let mut last_snapshot = Instant::now();
        while !self.shared.draining() {
            let mut accepted = false;
            for listener in &self.listeners {
                while let Some(conn) = listener.try_accept()? {
                    accepted = true;
                    self.spawn_session(conn, &mut workers);
                }
            }
            // Reap finished session threads so the join list stays small
            // on long-lived daemons.
            workers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            // Periodic background snapshot, from the accept loop so no
            // session thread ever blocks on disk. The staged writer makes
            // a kill -9 mid-save harmless: the previous generation stays
            // committed until the new MANIFEST renames into place.
            if let (Some(every), Some(dir)) = (self.snapshot_every, &self.shared.persist_on_exit) {
                if last_snapshot.elapsed() >= every {
                    match self.shared.cache.save(dir) {
                        Ok(()) => {
                            self.shared.snapshots_written.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            // A failed periodic save degrades durability,
                            // not service: log and keep serving (the exit
                            // snapshot still gets its typed error).
                            eprintln!("gc serve: periodic snapshot to {dir:?} failed: {e}");
                        }
                    }
                    last_snapshot = Instant::now();
                }
            }
            if !accepted {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        // Drain: stop accepting (drop the listeners so new connects fail
        // fast), then wait for in-flight sessions to finish their work.
        drop(self.listeners);
        let deadline = Instant::now() + self.drain_timeout;
        while self.shared.sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_INTERVAL);
        }
        for handle in workers {
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        let exit_snapshot = self.shared.persist_on_exit.as_ref().map(|dir| {
            self.shared
                .cache
                .save(dir)
                .map_err(|source| ServeError::ExitSnapshot {
                    dir: dir.clone(),
                    source,
                })
        });
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        exit_snapshot.transpose()?;
        Ok(())
    }

    fn spawn_session(&self, mut conn: Conn, workers: &mut Vec<std::thread::JoinHandle<()>>) {
        let shared = Arc::clone(&self.shared);
        if shared.sessions.load(Ordering::SeqCst) >= shared.max_sessions {
            let refuse = Response::Err {
                code: "max-sessions".into(),
                msg: format!("session limit {} reached", shared.max_sessions),
            };
            let _ = send(&mut conn, &refuse);
            return;
        }
        shared.sessions.fetch_add(1, Ordering::SeqCst);
        shared.sessions_total.fetch_add(1, Ordering::SeqCst);
        let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
        workers.push(std::thread::spawn(move || {
            Session::new(shared.clone(), id).serve(conn);
            shared.sessions.fetch_sub(1, Ordering::SeqCst);
        }));
    }
}

/// Requests graceful drain from outside the protocol (tests, embedders).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Flips the drain flag, as `SHUTDOWN`/SIGTERM would.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }
}

fn send(conn: &mut Conn, resp: &Response) -> std::io::Result<()> {
    let mut line = encode_response(resp);
    line.push('\n');
    conn.write_all(line.as_bytes())?;
    conn.flush()
}

/// Per-connection protocol state.
struct Session {
    shared: Arc<Shared>,
    id: u64,
    counters: RunCounters,
    /// This session currently holds one quiesce permit (`HOLD`).
    holding: bool,
    /// Highest protocol version the client announced via `VERSION`
    /// (`None` until it does). Routed peers refuse query traffic from
    /// sessions that have not announced proto >= 4.
    announced: Option<u64>,
}

impl Session {
    fn new(shared: Arc<Shared>, id: u64) -> Session {
        Session {
            shared,
            id,
            counters: RunCounters::default(),
            holding: false,
            announced: None,
        }
    }

    /// The session loop: greet, then decode and answer frames until the
    /// peer leaves, a transport error, or drain.
    fn serve(&mut self, mut conn: Conn) {
        // Short read timeouts turn blocked reads into `Idle` events so
        // the loop can notice drain while the peer is quiet.
        if conn.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        let hello = Response::Hello {
            proto: PROTO_VERSION,
            session: self.id,
            max_inflight: self.shared.max_inflight as u64,
            peer: self.shared.peer.map(|p| (p.index, p.total)),
        };
        if send(&mut conn, &hello).is_err() {
            return;
        }
        let mut reader = FrameReader::new();
        loop {
            if self.shared.draining() {
                self.drain_close(&mut conn, &mut reader);
                break;
            }
            let line = match reader.poll_frame(&mut conn) {
                Ok(FrameEvent::Frame(line)) => line,
                Ok(FrameEvent::Idle) => continue,
                Ok(FrameEvent::Closed) => break,
                Err(err @ ProtoError::TooLarge { .. }) => {
                    // The stream position is unrecoverable past an
                    // oversized line; say why, then hang up.
                    self.shared.proto_errors.fetch_add(1, Ordering::SeqCst);
                    let _ = send(
                        &mut conn,
                        &Response::Err {
                            code: err.code().into(),
                            msg: err.to_string(),
                        },
                    );
                    break;
                }
                Err(err @ ProtoError::Malformed { .. }) => {
                    // Invalid UTF-8: the offending line was consumed, so
                    // framing is intact — reply and keep serving.
                    self.shared.proto_errors.fetch_add(1, Ordering::SeqCst);
                    let _ = send(
                        &mut conn,
                        &Response::Err {
                            code: err.code().into(),
                            msg: err.to_string(),
                        },
                    );
                    continue;
                }
                Err(ProtoError::Io(_)) => break,
            };
            match parse_request(&line) {
                Err(err) => {
                    self.shared.proto_errors.fetch_add(1, Ordering::SeqCst);
                    let reply = Response::Err {
                        code: err.code().into(),
                        msg: err.to_string(),
                    };
                    if send(&mut conn, &reply).is_err() {
                        break;
                    }
                }
                Ok(req) => {
                    let done = matches!(req, Request::Quit | Request::Shutdown);
                    if self.answer(&mut conn, req).is_err() || done {
                        break;
                    }
                }
            }
        }
        if self.holding {
            self.shared.release();
            self.holding = false;
        }
    }

    /// Drain-time goodbye: answer frames the client already has in flight
    /// before saying BYE, so `gc ctl stats` racing a drain still gets its
    /// STATS reply. The sweep is bounded (about two poll intervals of
    /// quiet) and stops early on Quit/Shutdown, which send their own BYE.
    fn drain_close(&mut self, conn: &mut Conn, reader: &mut FrameReader) {
        let deadline = Instant::now() + POLL_INTERVAL * 2;
        while Instant::now() < deadline {
            match reader.poll_frame(conn) {
                Ok(FrameEvent::Frame(line)) => match parse_request(&line) {
                    Ok(req) => {
                        let said_bye = matches!(req, Request::Quit | Request::Shutdown);
                        if self.answer(conn, req).is_err() || said_bye {
                            return;
                        }
                    }
                    Err(err) => {
                        self.shared.proto_errors.fetch_add(1, Ordering::SeqCst);
                        let reply = Response::Err {
                            code: err.code().into(),
                            msg: err.to_string(),
                        };
                        if send(conn, &reply).is_err() {
                            return;
                        }
                    }
                },
                Ok(FrameEvent::Idle) => continue,
                Ok(FrameEvent::Closed) | Err(_) => return,
            }
        }
        let _ = send(
            conn,
            &Response::Bye {
                reason: "draining".into(),
            },
        );
    }

    /// Routed peers refuse query traffic from sessions that have not
    /// announced a compatible protocol: a proto-3 client would silently
    /// ignore `allow=` restrictions and desynchronise the fleet.
    fn version_refusal(&self, what: &str) -> Option<Response> {
        self.shared.peer?;
        match self.announced {
            Some(proto) if proto >= 4 => None,
            Some(proto) => Some(Response::Err {
                code: "version".into(),
                msg: format!(
                    "routed peer requires proto>=4 for {what}; session announced proto {proto}"
                ),
            }),
            None => Some(Response::Err {
                code: "version".into(),
                msg: format!("routed peer requires `VERSION proto=4` before {what}"),
            }),
        }
    }

    fn answer(&mut self, conn: &mut Conn, req: Request) -> std::io::Result<()> {
        match req {
            Request::Ping(token) => send(conn, &Response::Pong(token)),
            Request::Version { proto } => {
                self.announced = Some(proto);
                send(
                    conn,
                    &Response::Version {
                        proto: proto.min(PROTO_VERSION),
                    },
                )
            }
            Request::Query(frame) => {
                if let Some(refusal) = self.version_refusal("QUERY") {
                    return send(conn, &refusal);
                }
                let reply = self.run_query(frame, false);
                send(conn, &reply)
            }
            Request::Probe { id, graph, kind } => {
                if let Some(refusal) = self.version_refusal("PROBE") {
                    return send(conn, &refusal);
                }
                let pairs = self.shared.cache.probe_candidates(&graph, kind);
                let cands: Vec<u64> = match (self.shared.peer, &self.shared.ring) {
                    // A fleet peer reports only the candidates whose
                    // entry fingerprints fall in its ring slice; the
                    // router unions the slices back together.
                    (Some(peer), Some(ring)) => pairs
                        .into_iter()
                        .filter(|&(_, fp)| ring.owner(fp) == peer.index)
                        .map(|(serial, _)| serial)
                        .collect(),
                    _ => pairs.into_iter().map(|(serial, _)| serial).collect(),
                };
                send(conn, &Response::Cands { id, cands })
            }
            Request::Route(frame) => {
                if let Some(refusal) = self.version_refusal("ROUTE") {
                    return send(conn, &refusal);
                }
                let reply = self.run_query(frame, true);
                send(conn, &reply)
            }
            Request::Stats(StatsScope::Mine) => {
                let counters: Vec<(String, u64)> = self
                    .counters
                    .deterministic_counters()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                send(conn, &Response::Stats(counters))
            }
            // `scope=settle` reads the global counters too: a round runs on
            // the thread of the query that fills the Window, so once that
            // query is answered there is no maintenance left to wait for.
            Request::Stats(_) => send(conn, &Response::Stats(self.shared.global_stats())),
            Request::Hold => {
                if self.holding {
                    return send(
                        conn,
                        &Response::Err {
                            code: "already-holding".into(),
                            msg: "this session already holds a permit".into(),
                        },
                    );
                }
                match self.shared.try_acquire() {
                    Ok(()) => {
                        self.holding = true;
                        send(conn, &Response::Held)
                    }
                    Err(inflight) => {
                        self.shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
                        send(
                            conn,
                            &Response::Busy {
                                id: 0,
                                inflight: inflight as u64,
                                max: self.shared.max_inflight as u64,
                            },
                        )
                    }
                }
            }
            Request::Release => {
                if !self.holding {
                    return send(
                        conn,
                        &Response::Err {
                            code: "not-holding".into(),
                            msg: "RELEASE without a matching HOLD".into(),
                        },
                    );
                }
                self.shared.release();
                self.holding = false;
                send(conn, &Response::Released)
            }
            Request::Shutdown => {
                self.shared.draining.store(true, Ordering::SeqCst);
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

    /// Admission + execution of one `QUERY` or `ROUTE` frame. A routed
    /// apply (`routed = true`) executes identically — every replica must
    /// advance its serial counter and cache state in lockstep — but
    /// answers with the compact `ROUTED id= serial=` acknowledgement
    /// instead of a full RESULT.
    fn run_query(&mut self, frame: QueryFrame, routed: bool) -> Response {
        if let Err(inflight) = self.shared.try_acquire() {
            self.shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
            return Response::Busy {
                id: frame.id,
                inflight: inflight as u64,
                max: self.shared.max_inflight as u64,
            };
        }
        let mut request = QueryRequest::new(frame.graph).tag(frame.id);
        if let Some(kind) = frame.kind {
            request = request.kind(kind);
        }
        if let Some(budget) = frame.verify_budget {
            request = request.verify_budget(budget);
        }
        if let Some(max_hits) = frame.max_hits {
            request = request.max_hits(max_hits as usize);
        }
        if let Some(ms) = frame.timeout_ms {
            request = request.timeout_ms(ms);
        }
        if let Some(allow) = frame.allow {
            request = request.allow_serials(allow);
        }
        request = request.bypass_cache(frame.bypass);
        let response = self.shared.cache.execute(request);
        self.shared.release();
        self.counters.add_record(&response.result.record);
        self.shared
            .global
            .lock()
            .expect("stats lock")
            .add_record(&response.result.record);
        // A deadline abort is a typed error, not a RESULT: the partial
        // (empty) answer must never be mistaken for the query's answer.
        // The record was still tallied above, so `deadline_aborts` counts
        // it in STATS.
        if response.result.record.deadline_exceeded {
            return Response::Err {
                code: "deadline".into(),
                msg: format!(
                    "query id={} exceeded its {}ms deadline",
                    frame.id,
                    frame.timeout_ms.unwrap_or(0)
                ),
            };
        }
        if routed {
            return Response::Routed {
                id: frame.id,
                serial: response.result.serial,
            };
        }
        Response::Result(crate::proto::ResultFrame {
            id: frame.id,
            serial: response.result.serial,
            answer: response.result.answer.iter().map(|g| g.0).collect(),
            record: response.result.record,
        })
    }
}

//! A small blocking client for the `gc serve` protocol — what `gc ctl`,
//! `gc query --connect`, `gc bench --serve`, and the e2e tests speak
//! through. One [`Client`] is one session: it consumes the `HELLO`
//! greeting on connect and then exchanges strictly one reply per request
//! (the protocol never pushes unsolicited frames except the final `BYE`
//! during drain, which surfaces as [`ClientError::SessionClosed`]).

use crate::proto::{
    parse_response, write_request, FrameEvent, FrameReader, ProtoError, QueryFrame, Request,
    Response, ResultFrame, StatsScope, PROTO_VERSION,
};
use crate::server::Conn;
use gc_graph::LabeledGraph;
use gc_methods::QueryKind;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Bounded, deterministic retry/backoff for `BUSY` rejections and
/// transient connect failures. The protocol's contract is "the client
/// owns the retry" — this is that retry, with two properties the server
/// counters depend on:
///
/// * **Bounded**: at most `attempts` retries after the first try, so a
///   saturated or dead server fails fast instead of spinning forever.
/// * **Deterministic**: the backoff schedule (exponential with jitter) is
///   a pure function of `seed` and the attempt number — no wall-clock
///   randomness — so two replays with the same seed sleep identically
///   and served counter streams stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = no retry, plain `query`).
    pub attempts: u32,
    /// Backoff base: attempt `i` targets `base_delay_ms << i`.
    pub base_delay_ms: u64,
    /// Hard cap on any single backoff delay.
    pub max_delay_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy with `attempts` retries and the default backoff shape.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        }
    }

    /// A policy with a caller-chosen jitter seed.
    pub fn seeded(attempts: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts,
            seed,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `attempt` (0-based): exponential
    /// growth capped at `max_delay_ms`, landing in the upper half of the
    /// cap window via seeded xorshift jitter. Pure — same policy, same
    /// attempt, same delay.
    pub fn delay(&self, attempt: u32) -> Duration {
        let capped = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        if capped == 0 {
            return Duration::ZERO;
        }
        // xorshift64* over (seed, attempt) — deterministic jitter with no
        // shared mutable state.
        let mut x = self.seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let jitter = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (capped / 2 + 1);
        Duration::from_millis(capped - capped / 2 + jitter)
    }

    /// Whether a connect-time I/O failure is worth retrying: the errors a
    /// daemon mid-restart produces (socket file not there yet, listener
    /// not accepting yet). Anything else — permission, address in use by
    /// a live server, unreachable host — fails fast.
    pub fn transient_connect(err: &std::io::Error) -> bool {
        matches!(
            err.kind(),
            std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::NotFound
                | std::io::ErrorKind::AddrNotAvailable
        )
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect refused, write to a closed socket, …).
    Io(std::io::Error),
    /// The server's reply did not parse.
    Proto(ProtoError),
    /// The server replied `ERR code=… msg=…`.
    Server {
        /// Stable error-code slug.
        code: String,
        /// Human-readable detail.
        msg: String,
    },
    /// The server closed the session (EOF or a `BYE` frame).
    SessionClosed {
        /// The `BYE` reason, when one was sent before closing.
        reason: Option<String>,
    },
    /// The server answered with a frame this request cannot accept.
    /// Boxed: `Response` is by far the largest payload, and every client
    /// call returns `Result<_, ClientError>` on the happy path.
    Unexpected(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, msg } => write!(f, "server error [{code}]: {msg}"),
            ClientError::SessionClosed { reason: Some(r) } => {
                write!(f, "session closed by server (reason: {r})")
            }
            ClientError::SessionClosed { reason: None } => write!(f, "session closed by server"),
            ClientError::Unexpected(resp) => {
                write!(
                    f,
                    "unexpected reply: {}",
                    crate::proto::encode_response(resp)
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

/// The outcome of [`Client::query`]: either a served result or a typed
/// backpressure rejection (the query did **not** run; retry when the
/// server has capacity).
#[derive(Debug)]
pub enum QueryOutcome {
    /// The query executed; here is its answer and record.
    Result(ResultFrame),
    /// The admission-permit pool was saturated.
    Busy {
        /// Permits in use at rejection time.
        inflight: u64,
        /// Pool size.
        max: u64,
    },
}

/// The outcome of [`Client::route`]: the replica applied the frame (and
/// reports the serial its counter stream assigned) or rejected it with
/// backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The replica executed the routed frame; its serial counter now
    /// stands at this value for the applied query.
    Applied(u64),
    /// The admission-permit pool was saturated; the frame did not run.
    Busy {
        /// Permits in use at rejection time.
        inflight: u64,
        /// Pool size.
        max: u64,
    },
}

/// The outcome of [`Client::hold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldOutcome {
    /// One permit is now held by this session.
    Held,
    /// The pool was already saturated; nothing was taken.
    Busy {
        /// Permits in use at rejection time.
        inflight: u64,
        /// Pool size.
        max: u64,
    },
}

/// One connected protocol session.
pub struct Client {
    conn: Conn,
    reader: FrameReader,
    session: u64,
    max_inflight: u64,
    server_proto: u64,
    peer: Option<(u64, u64)>,
    timeout: Option<Duration>,
}

impl Client {
    /// Connects over a unix socket and consumes the `HELLO` greeting.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::greet(Conn::from(UnixStream::connect(path)?))
    }

    /// Connects over TCP, retrying transient failures (connection
    /// refused/reset) under the policy's deterministic backoff.
    pub fn connect_tcp_with_retry(addr: &str, policy: &RetryPolicy) -> Result<Client, ClientError> {
        Client::connect_with_retry(policy, || TcpStream::connect(addr).map(Conn::from))
    }

    /// Connects over a unix socket, retrying transient failures (socket
    /// file missing or refusing) under the policy's deterministic backoff.
    pub fn connect_unix_with_retry(
        path: impl AsRef<Path>,
        policy: &RetryPolicy,
    ) -> Result<Client, ClientError> {
        let path = path.as_ref();
        Client::connect_with_retry(policy, || UnixStream::connect(path).map(Conn::from))
    }

    fn connect_with_retry(
        policy: &RetryPolicy,
        mut dial: impl FnMut() -> std::io::Result<Conn>,
    ) -> Result<Client, ClientError> {
        let mut attempt = 0u32;
        loop {
            match dial() {
                Ok(conn) => return Client::greet(conn),
                Err(e) if attempt < policy.attempts && RetryPolicy::transient_connect(&e) => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn greet(conn: Conn) -> Result<Client, ClientError> {
        conn.set_read_timeout(None)?;
        let mut client = Client {
            conn,
            reader: FrameReader::new(),
            session: 0,
            max_inflight: 0,
            server_proto: 0,
            peer: None,
            timeout: None,
        };
        match client.recv()? {
            Response::Hello {
                proto,
                session,
                max_inflight,
                peer,
            } => {
                client.session = session;
                client.max_inflight = max_inflight;
                client.server_proto = proto;
                client.peer = peer;
                Ok(client)
            }
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The server's admission-permit pool size, from `HELLO`.
    pub fn max_inflight(&self) -> u64 {
        self.max_inflight
    }

    /// The protocol version the server greeted with.
    pub fn server_proto(&self) -> u64 {
        self.server_proto
    }

    /// The server's routed-peer identity `(index, total)` from `HELLO`,
    /// when it serves as part of a fleet (`gc serve --peer-id`).
    pub fn peer(&self) -> Option<(u64, u64)> {
        self.peer
    }

    /// Announces this client's protocol version and returns the
    /// negotiated one (the minimum of both sides). Routed peers refuse
    /// `QUERY`/`PROBE`/`ROUTE` traffic from sessions that have not
    /// announced proto >= 4 — call this once right after connecting.
    pub fn announce(&mut self) -> Result<u64, ClientError> {
        match self.request(&Request::Version {
            proto: PROTO_VERSION,
        })? {
            Response::Version { proto } => Ok(proto),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Bounds every subsequent read on this session: when the server goes
    /// silent for `timeout`, the pending call fails with
    /// [`ClientError::Io`] of kind `TimedOut` instead of blocking forever.
    /// `None` restores fully blocking reads.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.conn.set_read_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.conn.send_frame(|out| write_request(out, req))?;
        self.recv()
    }

    /// Reads the next server frame (blocking). `ERR` frames become
    /// [`ClientError::Server`]; `BYE`/EOF become
    /// [`ClientError::SessionClosed`].
    fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.reader.poll_frame(&mut self.conn)? {
                FrameEvent::Frame(line) => {
                    return match parse_response(&line)? {
                        Response::Err { code, msg } => Err(ClientError::Server { code, msg }),
                        Response::Bye { reason } => Err(ClientError::SessionClosed {
                            reason: Some(reason),
                        }),
                        other => Ok(other),
                    }
                }
                FrameEvent::Closed => return Err(ClientError::SessionClosed { reason: None }),
                // Idle means the OS read timeout elapsed without bytes.
                // With a caller-set deadline that is the failure; without
                // one it is a spurious wakeup — keep waiting.
                FrameEvent::Idle => {
                    if self.timeout.is_some() {
                        return Err(ClientError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "server did not reply within the configured timeout",
                        )));
                    }
                    continue;
                }
            }
        }
    }

    /// `PING` round-trip; the token (when given) must echo back.
    pub fn ping(&mut self, token: Option<&str>) -> Result<(), ClientError> {
        let resp = self.request(&Request::Ping(token.map(str::to_string)))?;
        match resp {
            Response::Pong(echo) if echo.as_deref() == token => Ok(()),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Submits one query; `BUSY` is a normal outcome, not an error.
    pub fn query(&mut self, frame: QueryFrame) -> Result<QueryOutcome, ClientError> {
        let id = frame.id;
        match self.request(&Request::Query(frame))? {
            Response::Result(r) if r.id == id => Ok(QueryOutcome::Result(r)),
            Response::Busy {
                id: busy_id,
                inflight,
                max,
            } if busy_id == id => Ok(QueryOutcome::Busy { inflight, max }),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Submits one query, retrying `BUSY` rejections under `policy`.
    /// Every retry resubmits the identical frame, so the executed query —
    /// and therefore the server's deterministic counter stream — is
    /// byte-identical to a non-retried submission that was admitted first
    /// try. Returns the final `Busy` when the budget is exhausted; real
    /// errors (transport, protocol, `ERR`) are never retried.
    ///
    /// ```no_run
    /// use gc_server::{Client, QueryFrame, QueryOutcome, RetryPolicy};
    /// use gc_graph::LabeledGraph;
    ///
    /// let mut client = Client::connect_unix("/tmp/gc.sock")?;
    /// let frame = QueryFrame {
    ///     id: 1,
    ///     graph: LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
    ///     kind: None,
    ///     verify_budget: None,
    ///     max_hits: None,
    ///     bypass: false,
    ///     timeout_ms: Some(60_000),
    ///     allow: None,
    /// };
    /// match client.query_with_retry(frame, &RetryPolicy::with_attempts(5))? {
    ///     QueryOutcome::Result(r) => println!("{} answer graphs", r.answer.len()),
    ///     QueryOutcome::Busy { inflight, max } => eprintln!("saturated: {inflight}/{max}"),
    /// }
    /// # Ok::<(), gc_server::ClientError>(())
    /// ```
    pub fn query_with_retry(
        &mut self,
        frame: QueryFrame,
        policy: &RetryPolicy,
    ) -> Result<QueryOutcome, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.query(frame.clone())? {
                QueryOutcome::Busy { .. } if attempt < policy.attempts => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                outcome => return Ok(outcome),
            }
        }
    }

    /// `PROBE`: asks the server which cached-entry serials are hit
    /// candidates for `graph` under `kind`. A fleet peer reports only the
    /// candidates whose entry fingerprints fall in its ring slice; the
    /// router unions the slices back into the full candidate set.
    pub fn probe(
        &mut self,
        id: u64,
        graph: LabeledGraph,
        kind: Option<QueryKind>,
    ) -> Result<Vec<u64>, ClientError> {
        match self.request(&Request::Probe { id, graph, kind })? {
            Response::Cands { id: got, cands } if got == id => Ok(cands),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Submits one `ROUTE` apply frame — the router's replication path.
    /// The replica executes the query exactly as a `QUERY` would (its
    /// cache state and serial counter must advance in lockstep with the
    /// owner's) but acknowledges with the compact `ROUTED` frame.
    pub fn route(&mut self, frame: QueryFrame) -> Result<RouteOutcome, ClientError> {
        let id = frame.id;
        match self.request(&Request::Route(frame))? {
            Response::Routed { id: got, serial } if got == id => Ok(RouteOutcome::Applied(serial)),
            Response::Busy {
                id: busy_id,
                inflight,
                max,
            } if busy_id == id => Ok(RouteOutcome::Busy { inflight, max }),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// [`Client::route`] with `BUSY` retries under `policy`, mirroring
    /// [`Client::query_with_retry`].
    pub fn route_with_retry(
        &mut self,
        frame: QueryFrame,
        policy: &RetryPolicy,
    ) -> Result<RouteOutcome, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.route(frame.clone())? {
                RouteOutcome::Busy { .. } if attempt < policy.attempts => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                outcome => return Ok(outcome),
            }
        }
    }

    /// Reads a counter snapshot.
    pub fn stats(&mut self, scope: StatsScope) -> Result<Vec<(String, u64)>, ClientError> {
        match self.request(&Request::Stats(scope))? {
            Response::Stats(counters) => Ok(counters),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Takes one admission permit (operator quiesce). `BUSY` means the
    /// pool was already saturated.
    pub fn hold(&mut self) -> Result<HoldOutcome, ClientError> {
        match self.request(&Request::Hold)? {
            Response::Held => Ok(HoldOutcome::Held),
            Response::Busy { inflight, max, .. } => Ok(HoldOutcome::Busy { inflight, max }),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Returns the permit taken by [`Client::hold`].
    pub fn release(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Release)? {
            Response::Released => Ok(()),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Requests graceful drain. The server acknowledges with
    /// `BYE reason=shutdown` and closes this session, so the expected
    /// "error" is [`ClientError::SessionClosed`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown) {
            Err(ClientError::SessionClosed { .. }) => Ok(()),
            Ok(other) => Err(ClientError::Unexpected(Box::new(other))),
            Err(e) => Err(e),
        }
    }

    /// Ends this session politely.
    pub fn quit(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Quit) {
            Err(ClientError::SessionClosed { .. }) => Ok(()),
            Ok(other) => Err(ClientError::Unexpected(Box::new(other))),
            Err(e) => Err(e),
        }
    }
}

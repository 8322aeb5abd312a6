//! The `gc serve` wire protocol: hand-rolled, line-delimited text frames.
//!
//! The build environment is fully offline, so the protocol follows the
//! same idiom as the harness's JSON writer: no external dependencies, a
//! small hand-written encoder/parser pair, and round-trip fidelity proven
//! by tests. Every frame is one UTF-8 line terminated by `\n` (a trailing
//! `\r` is tolerated), capped at [`MAX_FRAME_BYTES`]; blank lines are
//! ignored. A frame is a keyword followed by `key=value` tokens:
//!
//! ```text
//! client → server                      server → client
//! ---------------                      ---------------
//! PING [token=T]                       HELLO proto=4 session=N max_inflight=N
//! VERSION proto=N                            [peer=I/N]
//! QUERY id=N graph=G [kind=sub|super]  VERSION proto=N
//!       [budget=N] [max_hits=N]        PONG [token=T]
//!       [bypass=1] [timeout=N]         RESULT id=N serial=N answers=N ids=L …
//!       [allow=L]                      BUSY id=N inflight=N max=N
//! PROBE id=N graph=G [kind=sub|super]  CANDS id=N cands=L
//! ROUTE id=N graph=G [… QUERY tokens]  ROUTED id=N serial=N
//! STATS [scope=mine|settle]            STATS k=v …
//! HOLD                                 HELD
//! RELEASE                              RELEASED
//! SHUTDOWN                             BYE reason=R
//! QUIT                                 ERR code=C msg="…"
//! ```
//!
//! * `graph=G` encodes a labelled graph inline as
//!   `<nodes>:<label,label,…>:<u-v,u-v,…>` (empty sections for zero nodes
//!   or edges), exactly reconstructing the graph on the other side;
//! * `ids=L` is the answer id list (`-` when empty);
//! * the trailing tokens of a `RESULT` frame are the
//!   [`QueryRecord::deterministic_fields`] names — replaying them through
//!   [`QueryRecord::set_deterministic_value`] rebuilds a record whose
//!   [`gc_core::RunCounters`] contribution is byte-identical to the
//!   server's, which is what makes served counters comparable to
//!   in-process `run_batch` counters. Since proto 2 this includes the
//!   fragment-cache fields `fragment_probes` (fragments of the query
//!   probed against the fragment store), `fragment_hits` (probes that
//!   found a cached fragment) and `fragment_pruned` (candidates removed
//!   by occurrence-set intersection);
//! * a `STATS` reply's tokens are counter `name=value` pairs; with the
//!   fragment layer the global scope carries `fragments_built` /
//!   `fragments_evicted` (fragment-store upkeep) and folds the fragment
//!   store into `memory_bytes`. All three stay present — as zeros — when
//!   the layer is off, so counter schemas never depend on configuration;
//! * `msg="…"` is a quoted string (escapes: `\"`, `\\`, `\n`, `\r`,
//!   `\t`) and is always the last token of its frame.
//!
//! Malformed input of any kind — unknown keywords, missing keys, garbage
//! bytes, truncated or oversized frames — yields a typed [`ProtoError`],
//! never a panic; the session replies `ERR` and stays usable (framing
//! re-synchronises at the next newline) except after an oversized frame,
//! where the stream position is unrecoverable and the connection closes.

use gc_core::QueryRecord;
use gc_graph::LabeledGraph;
use gc_methods::QueryKind;
use std::io::Read;

/// Protocol version announced in the `HELLO` greeting. Bump on any change
/// to frame keywords, token names, or their meaning.
///
/// History: 1 — initial protocol; 2 — `RESULT` frames carry the
/// fragment-cache fields (`fragment_probes`, `fragment_hits`,
/// `fragment_pruned`) and global `STATS` replies the fragment upkeep
/// counters (`fragments_built`, `fragments_evicted`); 3 — `QUERY` frames
/// accept a `timeout=` token (per-query deadline in milliseconds, expiry
/// answered with `ERR code=deadline`), `RESULT` frames carry the
/// `deadline` field, and global `STATS` replies add `deadline_aborts`,
/// `snapshots_written` and `recovered_generation`; 4 — the routed-peer
/// fleet: `HELLO` advertises a `peer=I/N` identity on routed peers,
/// `VERSION proto=N` announces the client's protocol level (a routed peer
/// answers `QUERY`/`PROBE`/`ROUTE` from un-announced or pre-4 sessions
/// with `ERR code=version`), `PROBE`/`CANDS` enumerate slice-filtered
/// candidate serials, `ROUTE`/`ROUTED` apply a query to a replica for
/// deterministic lockstep, and `QUERY` accepts an `allow=` serial list
/// restricting the hit-verification sweep.
pub const PROTO_VERSION: u64 = 4;

/// Hard cap on one frame's byte length (newline excluded). A frame beyond
/// the cap is a [`ProtoError::TooLarge`]; since the remainder of the
/// oversized line cannot be skipped reliably, connections close after it.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Sanity cap on wire-decoded graph size (nodes and edges each) — a typed
/// error beats an attempted multi-gigabyte allocation.
pub const MAX_GRAPH_ITEMS: usize = 1 << 20;

/// A protocol failure. Every variant carries a stable `code` slug used in
/// `ERR` frames, so clients can branch without string-matching messages.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (socket closed mid-frame, I/O error).
    Io(std::io::Error),
    /// A frame exceeded [`MAX_FRAME_BYTES`]; the connection must close.
    TooLarge {
        /// The configured frame cap that was exceeded.
        limit: usize,
    },
    /// The frame was syntactically or semantically malformed.
    Malformed {
        /// What was wrong, for the `ERR` message.
        what: String,
    },
}

impl ProtoError {
    fn malformed(what: impl Into<String>) -> ProtoError {
        ProtoError::Malformed { what: what.into() }
    }

    /// The stable error-code slug for `ERR code=…` frames.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Io(_) => "io",
            ProtoError::TooLarge { .. } => "too-large",
            ProtoError::Malformed { .. } => "bad-frame",
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::TooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            ProtoError::Malformed { what } => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// `STATS` request scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsScope {
    /// Global counters, as currently accumulated.
    #[default]
    Global,
    /// The requesting session's own counters.
    Mine,
    /// The global counters, as [`Global`](Self::Global) returns them. A
    /// maintenance round finishes before the query that ran it is
    /// answered, so nothing is left to settle; the token stays because
    /// `gc bench --serve` and the benchmark send it.
    Settle,
}

impl StatsScope {
    fn name(self) -> Option<&'static str> {
        match self {
            StatsScope::Global => None,
            StatsScope::Mine => Some("mine"),
            StatsScope::Settle => Some("settle"),
        }
    }
}

/// One query submission on the wire — the protocol's mirror of
/// [`gc_core::QueryRequest`] (the graph travels by value; per-query
/// overrides are optional tokens).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFrame {
    /// Client-chosen correlation id, echoed on `RESULT`/`BUSY`.
    pub id: u64,
    /// The query graph.
    pub graph: LabeledGraph,
    /// Per-query direction override.
    pub kind: Option<QueryKind>,
    /// Per-query verification-budget override.
    pub verify_budget: Option<u64>,
    /// Per-query hit-budget override.
    pub max_hits: Option<u64>,
    /// Route around the cache (baseline execution).
    pub bypass: bool,
    /// Per-query deadline in milliseconds; the server answers expiry with
    /// `ERR code=deadline`.
    pub timeout_ms: Option<u64>,
    /// Restricts the hit-verification sweep to these candidate serials
    /// (the router's merged `CANDS` slices). `None` = no restriction.
    pub allow: Option<Vec<u64>>,
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the optional token is echoed back.
    Ping(Option<String>),
    /// Announce the client's protocol level (proto 4+). Routed peers
    /// require an announcement of at least 4 before serving
    /// `QUERY`/`PROBE`/`ROUTE`; everywhere else it is informational.
    Version {
        /// The highest protocol version the client speaks.
        proto: u64,
    },
    /// Execute a query.
    Query(QueryFrame),
    /// Enumerate the candidate serials the hit sweep would consider for
    /// this graph — a pure read. A routed peer answers only the slice of
    /// the fingerprint space it owns.
    Probe {
        /// Client-chosen correlation id, echoed on `CANDS`.
        id: u64,
        /// The query graph.
        graph: LabeledGraph,
        /// Per-query direction override.
        kind: Option<QueryKind>,
    },
    /// Apply a query to this replica for deterministic lockstep: execute
    /// it exactly like `QUERY` (same admission, maintenance and serial
    /// consumption) but answer with the compact `ROUTED` frame instead of
    /// a full `RESULT`.
    Route(QueryFrame),
    /// Read counters.
    Stats(StatsScope),
    /// Take one admission permit out of the pool (operator quiesce) until
    /// `RELEASE` or disconnect.
    Hold,
    /// Return the permit taken by `HOLD`.
    Release,
    /// Begin graceful drain: stop accepting, finish in-flight queries,
    /// close every session, optionally persist, exit.
    Shutdown,
    /// Close this session only.
    Quit,
}

/// The outcome of one served query: answer ids plus the deterministic
/// slice of the [`QueryRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// Echo of the request's correlation id.
    pub id: u64,
    /// The serial the cache assigned to this query.
    pub serial: u64,
    /// Answer: matching dataset graph ids.
    pub answer: Vec<u32>,
    /// The deterministic record fields (durations are not transported —
    /// they are not a pure function of the query sequence).
    pub record: QueryRecord,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Greeting sent once per connection.
    Hello {
        /// Server protocol version.
        proto: u64,
        /// Server-assigned session id.
        session: u64,
        /// The admission-permit pool size (size of the in-flight window).
        max_inflight: u64,
        /// `(index, total)` when this daemon serves as routed peer
        /// `index` of a `total`-peer fleet; `None` for a standalone
        /// daemon (and on every pre-4 peer).
        peer: Option<(u64, u64)>,
    },
    /// Reply to `VERSION`: echoes the version the server will speak with
    /// this session (the minimum of both sides' levels).
    Version {
        /// The negotiated protocol version.
        proto: u64,
    },
    /// Reply to `PING`.
    Pong(Option<String>),
    /// A completed query.
    Result(ResultFrame),
    /// Admission rejected: the permit pool is saturated. The query was
    /// **not** executed; the client owns the retry.
    Busy {
        /// Echo of the request's correlation id (0 for `HOLD`).
        id: u64,
        /// Permits in use when the request was rejected.
        inflight: u64,
        /// Pool size.
        max: u64,
    },
    /// Reply to `PROBE`: the slice-filtered candidate serials.
    Cands {
        /// Echo of the request's correlation id.
        id: u64,
        /// Candidate serials this peer owns, sorted ascending (`-` on the
        /// wire when empty).
        cands: Vec<u64>,
    },
    /// Reply to `ROUTE`: the replica applied the query.
    Routed {
        /// Echo of the request's correlation id.
        id: u64,
        /// The serial this replica assigned — must match the owner's
        /// serial when the fleet is in lockstep.
        serial: u64,
    },
    /// Counter snapshot; keys follow the deterministic-counter naming.
    Stats(Vec<(String, u64)>),
    /// `HOLD` succeeded.
    Held,
    /// `RELEASE` succeeded.
    Released,
    /// The server is closing this session.
    Bye {
        /// Why: `quit`, `shutdown`, or `draining`.
        reason: String,
    },
    /// A typed protocol error; the session stays open unless the code is
    /// `too-large` or `io`.
    Err {
        /// Stable error-code slug ([`ProtoError::code`] plus server codes
        /// like `max-sessions`, `not-holding`, `already-holding`,
        /// `deadline`, and `version` for a routed peer refusing a session
        /// that has not announced proto ≥ 4).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
}

// ---------------------------------------------------------------------------
// Writers: every frame is written in one pass into a caller-owned buffer
// ---------------------------------------------------------------------------

/// Appends `value` in decimal.
fn push_u64(out: &mut String, mut value: u64) {
    // Most counters and flags of a frame are one digit.
    if value < 10 {
        out.push(char::from(b'0' + value as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while value > 0 {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends ` key=value`.
fn push_field(out: &mut String, key: &str, value: u64) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    push_u64(out, value);
}

/// Appends a comma-separated list (nothing when `items` is empty).
fn push_joined<T: Copy + Into<u64>>(out: &mut String, items: &[T]) {
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, item.into());
    }
}

/// Appends an id or serial list: comma-separated, `-` when empty.
fn push_list<T: Copy + Into<u64>>(out: &mut String, items: &[T]) {
    if items.is_empty() {
        out.push('-');
    }
    push_joined(out, items);
}

fn push_quoted(out: &mut String, msg: &str) {
    out.push('"');
    for c in msg.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_graph(out: &mut String, g: &LabeledGraph) {
    push_u64(out, g.node_count() as u64);
    out.push(':');
    push_joined(out, g.labels());
    out.push(':');
    for (i, (u, v)) in g.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, u.into());
        out.push('-');
        push_u64(out, v.into());
    }
}

fn push_kind(out: &mut String, kind: Option<QueryKind>) {
    match kind {
        None => {}
        Some(QueryKind::Subgraph) => out.push_str(" kind=sub"),
        Some(QueryKind::Supergraph) => out.push_str(" kind=super"),
    }
}

/// The shared token tail of `QUERY` and `ROUTE` frames.
fn push_query_tokens(out: &mut String, q: &QueryFrame) {
    push_field(out, "id", q.id);
    out.push_str(" graph=");
    push_graph(out, &q.graph);
    push_kind(out, q.kind);
    if let Some(b) = q.verify_budget {
        push_field(out, "budget", b);
    }
    if let Some(m) = q.max_hits {
        push_field(out, "max_hits", m);
    }
    if q.bypass {
        out.push_str(" bypass=1");
    }
    if let Some(t) = q.timeout_ms {
        push_field(out, "timeout", t);
    }
    if let Some(allow) = &q.allow {
        out.push_str(" allow=");
        push_list(out, allow);
    }
}

/// Encodes a graph as `<nodes>:<labels>:<edges>`.
pub fn encode_graph(g: &LabeledGraph) -> String {
    let mut out = String::new();
    push_graph(&mut out, g);
    out
}

/// Appends a request's one-line frame (no trailing newline) to `out`.
pub(crate) fn write_request(out: &mut String, req: &Request) {
    match req {
        Request::Ping(token) => {
            out.push_str("PING");
            if let Some(token) = token {
                out.push_str(" token=");
                out.push_str(token);
            }
        }
        Request::Version { proto } => {
            out.push_str("VERSION");
            push_field(out, "proto", *proto);
        }
        Request::Query(q) => {
            out.push_str("QUERY");
            push_query_tokens(out, q);
        }
        Request::Route(q) => {
            out.push_str("ROUTE");
            push_query_tokens(out, q);
        }
        Request::Probe { id, graph, kind } => {
            out.push_str("PROBE");
            push_field(out, "id", *id);
            out.push_str(" graph=");
            push_graph(out, graph);
            push_kind(out, *kind);
        }
        Request::Stats(scope) => {
            out.push_str("STATS");
            if let Some(name) = scope.name() {
                out.push_str(" scope=");
                out.push_str(name);
            }
        }
        Request::Hold => out.push_str("HOLD"),
        Request::Release => out.push_str("RELEASE"),
        Request::Shutdown => out.push_str("SHUTDOWN"),
        Request::Quit => out.push_str("QUIT"),
    }
}

/// Appends a response's one-line frame (no trailing newline) to `out`.
pub(crate) fn write_response(out: &mut String, resp: &Response) {
    match resp {
        Response::Hello {
            proto,
            session,
            max_inflight,
            peer,
        } => {
            out.push_str("HELLO");
            push_field(out, "proto", *proto);
            push_field(out, "session", *session);
            push_field(out, "max_inflight", *max_inflight);
            if let Some((index, total)) = peer {
                push_field(out, "peer", *index);
                out.push('/');
                push_u64(out, *total);
            }
        }
        Response::Version { proto } => {
            out.push_str("VERSION");
            push_field(out, "proto", *proto);
        }
        Response::Cands { id, cands } => {
            out.push_str("CANDS");
            push_field(out, "id", *id);
            out.push_str(" cands=");
            push_list(out, cands);
        }
        Response::Routed { id, serial } => {
            out.push_str("ROUTED");
            push_field(out, "id", *id);
            push_field(out, "serial", *serial);
        }
        Response::Pong(token) => {
            out.push_str("PONG");
            if let Some(token) = token {
                out.push_str(" token=");
                out.push_str(token);
            }
        }
        Response::Result(r) => {
            out.push_str("RESULT");
            push_field(out, "id", r.id);
            push_field(out, "serial", r.serial);
            push_field(out, "answers", r.answer.len() as u64);
            out.push_str(" ids=");
            push_list(out, &r.answer);
            for (name, value) in r.record.deterministic_fields() {
                push_field(out, name, value);
            }
        }
        Response::Busy { id, inflight, max } => {
            out.push_str("BUSY");
            push_field(out, "id", *id);
            push_field(out, "inflight", *inflight);
            push_field(out, "max", *max);
        }
        Response::Stats(counters) => {
            out.push_str("STATS");
            for (name, value) in counters {
                push_field(out, name, *value);
            }
        }
        Response::Held => out.push_str("HELD"),
        Response::Released => out.push_str("RELEASED"),
        Response::Bye { reason } => {
            out.push_str("BYE reason=");
            out.push_str(reason);
        }
        Response::Err { code, msg } => {
            out.push_str("ERR code=");
            out.push_str(code);
            out.push_str(" msg=");
            push_quoted(out, msg);
        }
    }
}

/// The capacity [`encode_request`] and [`encode_response`] start from: a
/// QUERY frame of the hot Zipf stream is about 120 bytes and its RESULT
/// about 400, so most frames are written without growing the buffer.
const FRAME_CAPACITY: usize = 512;

/// Serializes a request to its one-line frame (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut out = String::with_capacity(FRAME_CAPACITY);
    write_request(&mut out, req);
    out
}

/// Serializes a response to its one-line frame (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut out = String::with_capacity(FRAME_CAPACITY);
    write_response(&mut out, resp);
    out
}

// ---------------------------------------------------------------------------
// Readers: one pass over a frame's tokens, then each value in a fixed order
// ---------------------------------------------------------------------------

/// A frame's whitespace-separated tokens, except that everything from the
/// token holding the line's first `"` to its end is one token (quotes only
/// appear in the final `msg` token of `ERR` frames).
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    let rest = line.trim();
    let (words, quoted) = match rest.find('"') {
        Some(q) => {
            let start = rest[..q].rfind(' ').map_or(0, |i| i + 1);
            (&rest[..start], Some(&rest[start..]))
        }
        None => (rest, None),
    };
    words.split_whitespace().chain(quoted)
}

/// The first value of each of `keys` in one pass over `args`. Tokens
/// without `=` and keys not in `keys` are ignored.
fn first_values<'a, const N: usize>(
    args: impl Iterator<Item = &'a str>,
    keys: &[&str; N],
) -> [Option<&'a str>; N] {
    let mut values = [None; N];
    for tok in args {
        if let Some((key, value)) = tok.split_once('=') {
            if let Some(i) = keys.iter().position(|k| *k == key) {
                values[i].get_or_insert(value);
            }
        }
    }
    values
}

/// A `RESULT` frame's keys: its own four, then the record's fields.
const RESULT_KEYS: [&str; 21] = {
    let mut keys = [""; 21];
    keys[0] = "id";
    keys[1] = "serial";
    keys[2] = "answers";
    keys[3] = "ids";
    let mut i = 0;
    while i < QueryRecord::DETERMINISTIC_NAMES.len() {
        keys[4 + i] = QueryRecord::DETERMINISTIC_NAMES[i];
        i += 1;
    }
    keys
};

fn present<'a>(value: Option<&'a str>, key: &str, frame: &str) -> Result<&'a str, ProtoError> {
    value.ok_or_else(|| ProtoError::malformed(format!("{frame} frame is missing {key}=")))
}

fn parse_u64(value: &str, key: &str) -> Result<u64, ProtoError> {
    value
        .parse()
        .map_err(|_| ProtoError::malformed(format!("invalid {key}= value {value:?}")))
}

/// A required number: `key=` must be present and a decimal `u64`.
fn number(value: Option<&str>, key: &str, frame: &str) -> Result<u64, ProtoError> {
    parse_u64(present(value, key, frame)?, key)
}

fn optional_number(value: Option<&str>, key: &str) -> Result<Option<u64>, ProtoError> {
    value.map(|v| parse_u64(v, key)).transpose()
}

fn unquote(raw: &str) -> Result<String, ProtoError> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| ProtoError::malformed(format!("expected quoted string, got {raw:?}")))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            if c == '"' {
                return Err(ProtoError::malformed("unescaped quote inside string"));
            }
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => {
                return Err(ProtoError::malformed(format!(
                    "invalid escape \\{}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

/// A comma-separated list of `what`s (`-` when empty).
fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Result<Vec<T>, ProtoError> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    let mut items = Vec::with_capacity(raw.bytes().filter(|&b| b == b',').count() + 1);
    for t in raw.split(',') {
        items.push(
            t.parse()
                .map_err(|_| ProtoError::malformed(format!("invalid {what} {t:?} in list")))?,
        );
    }
    Ok(items)
}

fn parse_kind(value: Option<&str>) -> Result<Option<QueryKind>, ProtoError> {
    match value {
        None => Ok(None),
        Some("sub") => Ok(Some(QueryKind::Subgraph)),
        Some("super") => Ok(Some(QueryKind::Supergraph)),
        Some(other) => Err(ProtoError::malformed(format!(
            "invalid kind= value {other:?} (sub|super)"
        ))),
    }
}

/// Decodes [`encode_graph`]'s format back into a graph, validating label
/// counts, edge endpoints, and the [`MAX_GRAPH_ITEMS`] sanity cap.
/// Capacity is reserved from the bytes the frame carries, never from the
/// node count it declares.
pub fn parse_graph(text: &str) -> Result<LabeledGraph, ProtoError> {
    let (n, labels, edges) = match text.split_once(':') {
        Some((n, rest)) => match rest.split_once(':') {
            Some((labels, edges)) => (n, labels, edges),
            None => return Err(ProtoError::malformed("graph needs <n>:<labels>:<edges>")),
        },
        None => return Err(ProtoError::malformed("graph needs <n>:<labels>:<edges>")),
    };
    let n: usize = n
        .parse()
        .map_err(|_| ProtoError::malformed(format!("invalid node count {n:?}")))?;
    if n > MAX_GRAPH_ITEMS {
        return Err(ProtoError::malformed(format!(
            "graph node count {n} exceeds the {MAX_GRAPH_ITEMS} cap"
        )));
    }
    // `k` labels take at least `2k - 1` bytes, `k` edges `4k - 1`.
    let mut label_vec: Vec<u32> = Vec::with_capacity(n.min(labels.len().div_ceil(2)));
    if !labels.is_empty() {
        for tok in labels.split(',') {
            let l: u32 = tok
                .parse()
                .map_err(|_| ProtoError::malformed(format!("invalid node label {tok:?}")))?;
            label_vec.push(l);
        }
    }
    if label_vec.len() != n {
        return Err(ProtoError::malformed(format!(
            "graph declares {n} nodes but carries {} labels",
            label_vec.len()
        )));
    }
    let mut edge_vec: Vec<(u32, u32)> = Vec::with_capacity((edges.len() + 1) / 4);
    if !edges.is_empty() {
        for tok in edges.split(',') {
            if edge_vec.len() >= MAX_GRAPH_ITEMS {
                return Err(ProtoError::malformed(format!(
                    "graph edge count exceeds the {MAX_GRAPH_ITEMS} cap"
                )));
            }
            let (u, v) = tok
                .split_once('-')
                .ok_or_else(|| ProtoError::malformed(format!("invalid edge {tok:?}")))?;
            let u: u32 = u
                .parse()
                .map_err(|_| ProtoError::malformed(format!("invalid edge endpoint {u:?}")))?;
            let v: u32 = v
                .parse()
                .map_err(|_| ProtoError::malformed(format!("invalid edge endpoint {v:?}")))?;
            if u as usize >= n || v as usize >= n {
                return Err(ProtoError::malformed(format!(
                    "edge ({u}, {v}) out of range for {n} nodes"
                )));
            }
            edge_vec.push((u, v));
        }
    }
    Ok(LabeledGraph::from_parts(label_vec, &edge_vec))
}

fn parse_query_frame<'a>(
    args: impl Iterator<Item = &'a str>,
    frame: &str,
) -> Result<QueryFrame, ProtoError> {
    let [id, graph, kind, budget, max_hits, bypass, timeout, allow] = first_values(
        args,
        &[
            "id", "graph", "kind", "budget", "max_hits", "bypass", "timeout", "allow",
        ],
    );
    Ok(QueryFrame {
        id: number(id, "id", frame)?,
        graph: parse_graph(present(graph, "graph", frame)?)?,
        kind: parse_kind(kind)?,
        verify_budget: optional_number(budget, "budget")?,
        max_hits: optional_number(max_hits, "max_hits")?,
        bypass: match bypass {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => {
                return Err(ProtoError::malformed(format!(
                    "invalid bypass= value {other:?} (0|1)"
                )))
            }
        },
        timeout_ms: optional_number(timeout, "timeout")?,
        allow: allow.map(|raw| parse_list(raw, "serial")).transpose()?,
    })
}

/// Parses one client frame. Any failure is a typed error, never a panic.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut args = tokens(line);
    let keyword = args
        .next()
        .ok_or_else(|| ProtoError::malformed("empty frame"))?;
    match keyword {
        "PING" => {
            let [token] = first_values(args, &["token"]);
            Ok(Request::Ping(token.map(str::to_string)))
        }
        "VERSION" => {
            let [proto] = first_values(args, &["proto"]);
            Ok(Request::Version {
                proto: number(proto, "proto", "VERSION")?,
            })
        }
        "QUERY" => Ok(Request::Query(parse_query_frame(args, "QUERY")?)),
        "ROUTE" => Ok(Request::Route(parse_query_frame(args, "ROUTE")?)),
        "PROBE" => {
            let [id, graph, kind] = first_values(args, &["id", "graph", "kind"]);
            Ok(Request::Probe {
                id: number(id, "id", "PROBE")?,
                graph: parse_graph(present(graph, "graph", "PROBE")?)?,
                kind: parse_kind(kind)?,
            })
        }
        "STATS" => match first_values(args, &["scope"]) {
            [None] => Ok(Request::Stats(StatsScope::Global)),
            [Some("mine")] => Ok(Request::Stats(StatsScope::Mine)),
            [Some("settle")] => Ok(Request::Stats(StatsScope::Settle)),
            [Some(other)] => Err(ProtoError::malformed(format!(
                "invalid scope= value {other:?} (mine|settle)"
            ))),
        },
        "HOLD" => Ok(Request::Hold),
        "RELEASE" => Ok(Request::Release),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "QUIT" => Ok(Request::Quit),
        other => Err(ProtoError::malformed(format!(
            "unknown frame keyword {other:?}"
        ))),
    }
}

fn parse_result<'a>(args: impl Iterator<Item = &'a str>) -> Result<ResultFrame, ProtoError> {
    let [id, serial, answers, ids, fields @ ..] = first_values(args, &RESULT_KEYS);
    let id = number(id, "id", "RESULT")?;
    let serial = number(serial, "serial", "RESULT")?;
    let answers = number(answers, "answers", "RESULT")?;
    let answer: Vec<u32> = parse_list(present(ids, "ids", "RESULT")?, "id")?;
    if answer.len() as u64 != answers {
        return Err(ProtoError::malformed(format!(
            "RESULT declares {answers} answers but ids= carries {}",
            answer.len()
        )));
    }
    let mut record = QueryRecord {
        serial,
        ..Default::default()
    };
    // Every deterministic field must be present — a missing field would
    // silently zero a counter and break served-counter parity.
    for (i, (value, name)) in fields
        .into_iter()
        .zip(QueryRecord::DETERMINISTIC_NAMES)
        .enumerate()
    {
        record.set_deterministic_value(i, number(value, name, "RESULT")?);
    }
    Ok(ResultFrame {
        id,
        serial,
        answer,
        record,
    })
}

/// Parses one server frame. Any failure is a typed error, never a panic.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let mut args = tokens(line);
    let keyword = args
        .next()
        .ok_or_else(|| ProtoError::malformed("empty frame"))?;
    match keyword {
        "RESULT" => Ok(Response::Result(parse_result(args)?)),
        "HELLO" => {
            let [proto, session, max_inflight, peer] =
                first_values(args, &["proto", "session", "max_inflight", "peer"]);
            Ok(Response::Hello {
                proto: number(proto, "proto", "HELLO")?,
                session: number(session, "session", "HELLO")?,
                max_inflight: number(max_inflight, "max_inflight", "HELLO")?,
                peer: match peer {
                    None => None,
                    Some(raw) => {
                        let (index, total) = raw.split_once('/').ok_or_else(|| {
                            ProtoError::malformed(format!("invalid peer= value {raw:?} (want I/N)"))
                        })?;
                        Some((parse_u64(index, "peer")?, parse_u64(total, "peer")?))
                    }
                },
            })
        }
        "VERSION" => {
            let [proto] = first_values(args, &["proto"]);
            Ok(Response::Version {
                proto: number(proto, "proto", "VERSION")?,
            })
        }
        "CANDS" => {
            let [id, cands] = first_values(args, &["id", "cands"]);
            Ok(Response::Cands {
                id: number(id, "id", "CANDS")?,
                cands: parse_list(present(cands, "cands", "CANDS")?, "serial")?,
            })
        }
        "ROUTED" => {
            let [id, serial] = first_values(args, &["id", "serial"]);
            Ok(Response::Routed {
                id: number(id, "id", "ROUTED")?,
                serial: number(serial, "serial", "ROUTED")?,
            })
        }
        "PONG" => {
            let [token] = first_values(args, &["token"]);
            Ok(Response::Pong(token.map(str::to_string)))
        }
        "BUSY" => {
            let [id, inflight, max] = first_values(args, &["id", "inflight", "max"]);
            Ok(Response::Busy {
                id: number(id, "id", "BUSY")?,
                inflight: number(inflight, "inflight", "BUSY")?,
                max: number(max, "max", "BUSY")?,
            })
        }
        "STATS" => {
            let mut counters = Vec::new();
            for tok in args {
                let (name, value) = tok.split_once('=').ok_or_else(|| {
                    ProtoError::malformed(format!("STATS token {tok:?} is not key=value"))
                })?;
                counters.push((name.to_string(), parse_u64(value, name)?));
            }
            Ok(Response::Stats(counters))
        }
        "HELD" => Ok(Response::Held),
        "RELEASED" => Ok(Response::Released),
        "BYE" => {
            let [reason] = first_values(args, &["reason"]);
            Ok(Response::Bye {
                reason: present(reason, "reason", "BYE")?.to_string(),
            })
        }
        "ERR" => {
            let [code, msg] = first_values(args, &["code", "msg"]);
            Ok(Response::Err {
                code: present(code, "code", "ERR")?.to_string(),
                msg: unquote(present(msg, "msg", "ERR")?)?,
            })
        }
        other => Err(ProtoError::malformed(format!(
            "unknown frame keyword {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Frame reader
// ---------------------------------------------------------------------------

/// One step of [`FrameReader::poll_frame`].
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame line (newline stripped, never blank).
    Frame(String),
    /// The peer closed the connection cleanly (no partial frame buffered).
    Closed,
    /// The read timed out (`WouldBlock`/`TimedOut`) — the caller may poll
    /// its shutdown flags and call again.
    Idle,
}

/// Incremental line framer over any [`Read`]: tolerates arbitrarily split
/// reads (a frame may arrive one byte at a time), strips `\r\n`, skips
/// blank lines, and enforces the frame-size cap. The reader owns only the
/// buffer, not the transport, so the same stream can be written between
/// polls.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    scanned: usize,
    limit: usize,
}

impl FrameReader {
    /// A reader with the protocol's [`MAX_FRAME_BYTES`] cap.
    pub fn new() -> FrameReader {
        FrameReader::with_limit(MAX_FRAME_BYTES)
    }

    /// A reader with a custom frame cap (tests use small limits).
    pub fn with_limit(limit: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            scanned: 0,
            limit,
        }
    }

    /// Reads until one complete frame, EOF, or a read timeout.
    ///
    /// Errors: [`ProtoError::TooLarge`] once the buffered line exceeds the
    /// cap (the stream cannot be re-synchronised afterwards),
    /// [`ProtoError::Malformed`] for invalid UTF-8 (the line was consumed,
    /// so the caller may keep polling), and [`ProtoError::Io`] for
    /// transport failures including EOF in the middle of a frame.
    pub fn poll_frame(&mut self, r: &mut impl Read) -> Result<FrameEvent, ProtoError> {
        loop {
            // Scan only bytes not seen by previous polls.
            if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + off;
                let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                if line.len() > self.limit {
                    return Err(ProtoError::TooLarge { limit: self.limit });
                }
                let text = String::from_utf8(line)
                    .map_err(|_| ProtoError::malformed("frame is not valid utf-8"))?;
                if text.trim().is_empty() {
                    continue;
                }
                return Ok(FrameEvent::Frame(text));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.limit {
                return Err(ProtoError::TooLarge { limit: self.limit });
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.iter().all(|b| b.is_ascii_whitespace()) {
                        return Ok(FrameEvent::Closed);
                    }
                    // Transport-level truncation, not a frame-level parse
                    // failure — sessions close on it instead of replying.
                    return Err(ProtoError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed in the middle of a frame",
                    )));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return Ok(FrameEvent::Idle)
                    }
                    std::io::ErrorKind::Interrupted => continue,
                    _ => return Err(ProtoError::Io(e)),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_graph() -> LabeledGraph {
        LabeledGraph::from_parts(vec![3, 1, 4, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn graph_codec_round_trips() {
        for g in [
            sample_graph(),
            LabeledGraph::from_parts(vec![7], &[]),
            LabeledGraph::from_parts(vec![], &[]),
        ] {
            let back = parse_graph(&encode_graph(&g)).expect("parse");
            assert_eq!(back, g);
        }
    }

    #[test]
    fn graph_codec_rejects_garbage() {
        for bad in [
            "",
            "x",
            "2:1:0-1",       // label count mismatch
            "2:1,2:0-5",     // edge endpoint out of range
            "2:1,2:0+1",     // bad edge separator
            "2:1,a:",        // bad label
            "abc:1,2:",      // bad node count
            "9999999999:1:", // count over the cap
            "2:1,2:0-1,nonsense",
        ] {
            assert!(parse_graph(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn request_round_trips() {
        let requests = vec![
            Request::Ping(None),
            Request::Ping(Some("abc123".into())),
            Request::Version { proto: 4 },
            Request::Query(QueryFrame {
                id: 42,
                graph: sample_graph(),
                kind: Some(QueryKind::Supergraph),
                verify_budget: Some(500),
                max_hits: Some(3),
                bypass: true,
                timeout_ms: Some(250),
                allow: Some(vec![100, 200, u64::MAX]),
            }),
            Request::Query(QueryFrame {
                id: 0,
                graph: LabeledGraph::from_parts(vec![1], &[]),
                kind: None,
                verify_budget: None,
                max_hits: None,
                bypass: false,
                timeout_ms: None,
                allow: None,
            }),
            Request::Query(QueryFrame {
                id: 1,
                graph: LabeledGraph::from_parts(vec![1], &[]),
                kind: None,
                verify_budget: None,
                max_hits: None,
                bypass: false,
                timeout_ms: None,
                allow: Some(Vec::new()), // empty allow list ≠ no allow list
            }),
            Request::Probe {
                id: 7,
                graph: sample_graph(),
                kind: Some(QueryKind::Subgraph),
            },
            Request::Probe {
                id: 8,
                graph: LabeledGraph::from_parts(vec![2], &[]),
                kind: None,
            },
            Request::Route(QueryFrame {
                id: 11,
                graph: sample_graph(),
                kind: None,
                verify_budget: Some(9),
                max_hits: None,
                bypass: false,
                timeout_ms: None,
                allow: Some(vec![300]),
            }),
            Request::Stats(StatsScope::Global),
            Request::Stats(StatsScope::Mine),
            Request::Stats(StatsScope::Settle),
            Request::Hold,
            Request::Release,
            Request::Shutdown,
            Request::Quit,
        ];
        for req in requests {
            let line = encode_request(&req);
            let back = parse_request(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(back, req, "{line:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let mut record = QueryRecord::default();
        for i in 0..QueryRecord::DETERMINISTIC_NAMES.len() {
            record.set_deterministic_value(i, (i % 2) as u64 * (i as u64 + 1));
        }
        let responses = vec![
            Response::Hello {
                proto: PROTO_VERSION,
                session: 7,
                max_inflight: 4,
                peer: None,
            },
            Response::Hello {
                proto: PROTO_VERSION,
                session: 8,
                max_inflight: 1,
                peer: Some((2, 3)),
            },
            Response::Version { proto: 4 },
            Response::Cands {
                id: 5,
                cands: vec![100, 300, u64::MAX],
            },
            Response::Cands {
                id: 6,
                cands: Vec::new(),
            },
            Response::Routed { id: 7, serial: 99 },
            Response::Pong(None),
            Response::Pong(Some("tok".into())),
            Response::Result(ResultFrame {
                id: 9,
                serial: 12,
                answer: vec![1, 4, 9],
                record: record.clone(),
            }),
            Response::Result(ResultFrame {
                id: 1,
                serial: 2,
                answer: vec![],
                record: QueryRecord::default(),
            }),
            Response::Busy {
                id: 3,
                inflight: 4,
                max: 4,
            },
            Response::Stats(vec![("queries".into(), 10), ("busy".into(), 2)]),
            Response::Held,
            Response::Released,
            Response::Bye {
                reason: "draining".into(),
            },
            Response::Err {
                code: "bad-frame".into(),
                msg: "tricky \"message\"\nwith\\escapes\ttab".into(),
            },
        ];
        for resp in responses {
            let line = encode_response(&resp);
            let back = parse_response(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            // Result frames only transport the deterministic record slice;
            // compare those fields, everything else structurally.
            match (&back, &resp) {
                (Response::Result(b), Response::Result(r)) => {
                    assert_eq!(b.id, r.id);
                    assert_eq!(b.serial, r.serial);
                    assert_eq!(b.answer, r.answer);
                    assert_eq!(
                        b.record.deterministic_fields(),
                        r.record.deterministic_fields()
                    );
                }
                _ => assert_eq!(back, resp, "{line:?}"),
            }
        }
    }

    fn full_query(id: u64) -> QueryFrame {
        QueryFrame {
            id,
            graph: sample_graph(),
            kind: Some(QueryKind::Supergraph),
            verify_budget: Some(500),
            max_hits: Some(3),
            bypass: true,
            timeout_ms: Some(250),
            allow: Some(vec![100, 200, u64::MAX]),
        }
    }

    fn bare_query(id: u64) -> QueryFrame {
        QueryFrame {
            id,
            graph: LabeledGraph::from_parts(vec![7], &[]),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: None,
            allow: None,
        }
    }

    /// Every field at its widest: `u64::MAX - i` for the i-th counter,
    /// `1` for the flags.
    fn large_record() -> QueryRecord {
        QueryRecord {
            serial: 12,
            subiso_tests: u64::MAX,
            verify_work: u64::MAX - 1,
            gc_tests: u64::MAX - 2,
            budget_spent: u64::MAX - 3,
            truncated: true,
            exact_via_fingerprint: true,
            cs_m_size: usize::MAX - 6,
            cs_gc_size: usize::MAX - 7,
            sub_hits: usize::MAX - 8,
            super_hits: usize::MAX - 9,
            exact_hit: true,
            empty_shortcut: true,
            answer_size: usize::MAX - 12,
            fragment_probes: u64::MAX - 13,
            fragment_hits: u64::MAX - 14,
            fragment_pruned: u64::MAX - 15,
            deadline_exceeded: true,
            ..Default::default()
        }
    }

    const ZERO_FIELDS: &str = "subiso_tests=0 verify_work=0 gc_tests=0 budget_spent=0 \
        truncated=0 exact_fp=0 cs_m=0 cs_gc=0 sub_hits=0 super_hits=0 exact=0 empty=0 \
        answer_size=0 fragment_probes=0 fragment_hits=0 fragment_pruned=0 deadline=0";

    fn assert_bad<T: std::fmt::Debug>(line: &str, parse: fn(&str) -> Result<T, ProtoError>) {
        match parse(line) {
            Err(e @ ProtoError::Malformed { .. }) => assert_eq!(e.code(), "bad-frame", "{line:?}"),
            other => panic!("{line:?} gave {other:?}"),
        }
    }

    /// The exact bytes of one frame per request variant, each optional
    /// token set and unset, and that each golden line parses back.
    #[test]
    fn golden_request_frames() {
        let cases = [
            (Request::Ping(None), "PING"),
            (Request::Ping(Some("abc123".into())), "PING token=abc123"),
            (Request::Version { proto: 4 }, "VERSION proto=4"),
            (
                Request::Query(full_query(42)),
                "QUERY id=42 graph=4:3,1,4,1:0-1,0-3,1-2,2-3 kind=super budget=500 \
                 max_hits=3 bypass=1 timeout=250 allow=100,200,18446744073709551615",
            ),
            (Request::Query(bare_query(0)), "QUERY id=0 graph=1:7:"),
            (
                Request::Query(QueryFrame {
                    kind: Some(QueryKind::Subgraph),
                    allow: Some(Vec::new()),
                    ..bare_query(u64::MAX)
                }),
                "QUERY id=18446744073709551615 graph=1:7: kind=sub allow=-",
            ),
            (
                Request::Probe {
                    id: 7,
                    graph: sample_graph(),
                    kind: Some(QueryKind::Subgraph),
                },
                "PROBE id=7 graph=4:3,1,4,1:0-1,0-3,1-2,2-3 kind=sub",
            ),
            (
                Request::Probe {
                    id: 8,
                    graph: LabeledGraph::from_parts(vec![], &[]),
                    kind: None,
                },
                "PROBE id=8 graph=0::",
            ),
            (
                Request::Route(full_query(11)),
                "ROUTE id=11 graph=4:3,1,4,1:0-1,0-3,1-2,2-3 kind=super budget=500 \
                 max_hits=3 bypass=1 timeout=250 allow=100,200,18446744073709551615",
            ),
            (Request::Route(bare_query(12)), "ROUTE id=12 graph=1:7:"),
            (Request::Stats(StatsScope::Global), "STATS"),
            (Request::Stats(StatsScope::Mine), "STATS scope=mine"),
            (Request::Stats(StatsScope::Settle), "STATS scope=settle"),
            (Request::Hold, "HOLD"),
            (Request::Release, "RELEASE"),
            (Request::Shutdown, "SHUTDOWN"),
            (Request::Quit, "QUIT"),
        ];
        for (req, line) in cases {
            assert_eq!(encode_request(&req), line);
            assert_eq!(parse_request(line).expect(line), req, "{line:?}");
        }
    }

    /// The exact bytes of one frame per response variant, each optional
    /// token set and unset, RESULT at zero and at its widest, and ERR with
    /// every escape.
    #[test]
    fn golden_response_frames() {
        let large = "subiso_tests=18446744073709551615 verify_work=18446744073709551614 \
            gc_tests=18446744073709551613 budget_spent=18446744073709551612 truncated=1 \
            exact_fp=1 cs_m=18446744073709551609 cs_gc=18446744073709551608 \
            sub_hits=18446744073709551607 super_hits=18446744073709551606 exact=1 empty=1 \
            answer_size=18446744073709551603 fragment_probes=18446744073709551602 \
            fragment_hits=18446744073709551601 fragment_pruned=18446744073709551600 deadline=1";
        let cases = [
            (
                Response::Hello {
                    proto: PROTO_VERSION,
                    session: 7,
                    max_inflight: 4,
                    peer: None,
                },
                "HELLO proto=4 session=7 max_inflight=4".to_string(),
            ),
            (
                Response::Hello {
                    proto: PROTO_VERSION,
                    session: 8,
                    max_inflight: 1,
                    peer: Some((2, 3)),
                },
                "HELLO proto=4 session=8 max_inflight=1 peer=2/3".into(),
            ),
            (Response::Version { proto: 4 }, "VERSION proto=4".into()),
            (Response::Pong(None), "PONG".into()),
            (Response::Pong(Some("tok".into())), "PONG token=tok".into()),
            (
                Response::Result(ResultFrame {
                    id: 1,
                    serial: 2,
                    answer: vec![],
                    record: QueryRecord {
                        serial: 2,
                        ..Default::default()
                    },
                }),
                format!("RESULT id=1 serial=2 answers=0 ids=- {ZERO_FIELDS}"),
            ),
            (
                Response::Result(ResultFrame {
                    id: u64::MAX,
                    serial: 12,
                    answer: vec![0, 4, u32::MAX],
                    record: large_record(),
                }),
                format!(
                    "RESULT id=18446744073709551615 serial=12 answers=3 ids=0,4,4294967295 {large}"
                ),
            ),
            (
                Response::Busy {
                    id: 3,
                    inflight: 4,
                    max: 4,
                },
                "BUSY id=3 inflight=4 max=4".into(),
            ),
            (
                Response::Cands {
                    id: 5,
                    cands: vec![100, 300, u64::MAX],
                },
                "CANDS id=5 cands=100,300,18446744073709551615".into(),
            ),
            (
                Response::Cands {
                    id: 6,
                    cands: Vec::new(),
                },
                "CANDS id=6 cands=-".into(),
            ),
            (
                Response::Routed { id: 7, serial: 99 },
                "ROUTED id=7 serial=99".into(),
            ),
            (
                Response::Stats(vec![("queries".into(), 10), ("busy".into(), u64::MAX)]),
                "STATS queries=10 busy=18446744073709551615".into(),
            ),
            (Response::Stats(Vec::new()), "STATS".into()),
            (Response::Held, "HELD".into()),
            (Response::Released, "RELEASED".into()),
            (
                Response::Bye {
                    reason: "draining".into(),
                },
                "BYE reason=draining".into(),
            ),
            (
                Response::Err {
                    code: "bad-frame".into(),
                    msg: "q\"b\\s\nn\rr\tt end".into(),
                },
                r#"ERR code=bad-frame msg="q\"b\\s\nn\rr\tt end""#.into(),
            ),
            (
                Response::Err {
                    code: "deadline".into(),
                    msg: String::new(),
                },
                r#"ERR code=deadline msg="""#.into(),
            ),
        ];
        for (resp, line) in cases {
            assert_eq!(encode_response(&resp), line);
            assert_eq!(parse_response(&line).expect(&line), resp, "{line:?}");
        }
    }

    /// Decisions a codec rewrite must keep: the first of two equal keys
    /// wins, numbers follow `str::parse` (a leading `+` is accepted), bare
    /// tokens and unknown keys are ignored, the quoted tail is one token,
    /// and each rejection stays a `bad-frame`.
    #[test]
    fn golden_edge_cases() {
        let query = |line: &str| match parse_request(line) {
            Ok(Request::Query(q)) => q,
            other => panic!("{line:?} gave {other:?}"),
        };
        // First occurrence wins; the later duplicate is not even checked.
        let q = query("QUERY id=1 id=2 graph=1:7: graph=2:1,1: kind=sub kind=diagonal");
        assert_eq!(
            q,
            QueryFrame {
                kind: Some(QueryKind::Subgraph),
                ..bare_query(1)
            }
        );
        assert_eq!(
            parse_request("PING token=a token=b").unwrap(),
            Request::Ping(Some("a".into()))
        );
        assert_eq!(
            parse_response("PONG token= token=b").unwrap(),
            Response::Pong(Some(String::new()))
        );
        // `str::parse` grammar: a leading `+` is a number.
        assert_eq!(query("QUERY id=+7 graph=+1:+7: budget=+3").id, 7);
        assert_eq!(
            query("QUERY id=+7 graph=+1:+7: budget=+3").verify_budget,
            Some(3)
        );
        // Bare tokens and unknown keys are ignored; `idx=` is not `id=`.
        assert_eq!(
            query("QUERY idx=9 stray id=1 graph=1:7: color=blue ="),
            bare_query(1)
        );
        // The value runs to the end of its token: `id==5` is `"=5"`.
        assert_bad("QUERY id==5 graph=1:7:", parse_request);
        // From the token holding the first `"`, the rest is one token.
        assert_eq!(
            parse_request(r#"PING token="x y" z=1"#).unwrap(),
            Request::Ping(Some(r#""x y" z=1"#.into()))
        );
        assert_bad(r#"QUERY id=1 graph=1:7: kind="sub"#, parse_request);
        for line in [
            r#"ERR msg="a" code=x"#,
            r#"ERR code=x msg=a"#,
            r#"ERR code=x msg="a"b""#,
        ] {
            assert_bad(line, parse_response);
        }
        // STATS replies must be all `key=value`.
        assert_bad("STATS a=1 bare", parse_response);

        // RESULT: duplicates keep the first value, extra keys are ignored.
        let zero = format!("RESULT id=1 serial=2 answers=0 ids=- {ZERO_FIELDS}");
        let dup = format!("{zero} subiso_tests=9 id=5 extra=3 bare");
        match parse_response(&dup).expect("duplicate keys") {
            Response::Result(r) => {
                assert_eq!((r.id, r.serial), (1, 2));
                assert_eq!(r.record.subiso_tests, 0);
            }
            other => panic!("{other:?}"),
        }
        // Every field is required, the declared count must match, and a
        // field value must be a number.
        for name in [
            "id",
            "serial",
            "answers",
            "ids",
            "subiso_tests",
            "cs_m",
            "deadline",
        ] {
            let missing: Vec<&str> = zero
                .split(' ')
                .filter(|t| !t.starts_with(&format!("{name}=")))
                .collect();
            let line = missing.join(" ");
            assert_bad(&line, parse_response);
        }
        for line in [
            zero.replace("answers=0", "answers=1"),
            zero.replace("ids=-", "ids=3"),
            zero.replace("cs_m=0", "cs_m=-1"),
            zero.replace("deadline=0", "deadline=x"),
        ] {
            assert_bad(&line, parse_response);
        }

        // Graph sizes: over the cap is refused before anything else, and a
        // count at the cap must still carry its labels.
        for line in [
            format!("QUERY id=1 graph={}::", MAX_GRAPH_ITEMS + 1),
            format!("QUERY id=1 graph={MAX_GRAPH_ITEMS}::"),
            format!("PROBE id=1 graph={}:1:", u64::MAX),
        ] {
            assert_bad(&line, parse_request);
        }
    }

    #[test]
    fn result_frame_declared_count_must_match() {
        let line = encode_response(&Response::Result(ResultFrame {
            id: 1,
            serial: 1,
            answer: vec![5, 6],
            record: QueryRecord::default(),
        }));
        let broken = line.replace("answers=2", "answers=3");
        assert!(parse_response(&broken).is_err());
    }

    /// A RESULT key that appeared twice in the table would read its first
    /// occurrence into both slots.
    #[test]
    fn result_keys_are_distinct() {
        let mut keys = RESULT_KEYS.to_vec();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), RESULT_KEYS.len(), "{RESULT_KEYS:?}");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "",
            "   ",
            "NOPE",
            "QUERY",                    // missing id and graph
            "QUERY id=1",               // missing graph
            "QUERY id=x graph=1:1:",    // bad id
            "QUERY id=1 graph=2:1:0-1", // label count mismatch
            "QUERY id=1 graph=1:1: kind=diagonal",
            "QUERY id=1 graph=1:1: bypass=yes",
            "STATS scope=theirs",
        ] {
            match parse_request(bad) {
                Err(ProtoError::Malformed { .. }) => {}
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn split_reads_reassemble_frames() {
        // A reader that returns one byte per read call.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let wire = b"PING\r\n\nQUERY id=1 graph=1:1:\nQUIT\n";
        let mut reader = FrameReader::new();
        let mut src = OneByte(wire, 0);
        let mut frames = Vec::new();
        loop {
            match reader.poll_frame(&mut src).expect("no errors") {
                FrameEvent::Frame(f) => frames.push(f),
                FrameEvent::Closed => break,
                FrameEvent::Idle => unreachable!("OneByte never blocks"),
            }
        }
        assert_eq!(frames, vec!["PING", "QUERY id=1 graph=1:1:", "QUIT"]);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut reader = FrameReader::with_limit(16);
        let long = [b'A'; 64];
        let mut src = &long[..];
        match reader.poll_frame(&mut src) {
            Err(ProtoError::TooLarge { limit: 16 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // A line exactly at the limit passes.
        let mut reader = FrameReader::with_limit(16);
        let mut src: &[u8] = b"0123456789ABCDEF\n";
        match reader.poll_frame(&mut src) {
            Ok(FrameEvent::Frame(f)) => assert_eq!(f.len(), 16),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_a_truncation_error() {
        let mut reader = FrameReader::new();
        let mut src: &[u8] = b"QUERY id=1 gra";
        match reader.poll_frame(&mut src) {
            Err(ProtoError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut reader = FrameReader::new();
        let mut src: &[u8] = b"PING \xff\xfe\n";
        match reader.poll_frame(&mut src) {
            Err(ProtoError::Malformed { what }) => assert!(what.contains("utf-8"), "{what}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeouts_surface_as_idle() {
        struct AlwaysBlocks;
        impl Read for AlwaysBlocks {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "later"))
            }
        }
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll_frame(&mut AlwaysBlocks),
            Ok(FrameEvent::Idle)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary garbage never panics or wedges the parser: every line
        /// either parses or yields a typed error.
        #[test]
        fn garbage_lines_never_panic(bytes in proptest::collection::vec(0u8..=254, 0..200)) {
            let line = String::from_utf8_lossy(&bytes).into_owned();
            let _ = parse_request(&line);
            let _ = parse_response(&line);
            let _ = parse_graph(&line);
        }

        /// Truncating a valid frame at any byte never panics — it either
        /// still parses (prefix happens to be valid) or errors.
        #[test]
        fn truncated_frames_never_panic(cut in 0usize..200) {
            let full = encode_request(&Request::Query(QueryFrame {
                id: u64::MAX,
                graph: LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]),
                kind: Some(QueryKind::Subgraph),
                verify_budget: Some(9),
                max_hits: Some(2),
                bypass: false,
                timeout_ms: Some(100),
                allow: Some(vec![100, 200]),
            }));
            let cut = cut.min(full.len());
            if full.is_char_boundary(cut) {
                let _ = parse_request(&full[..cut]);
            }
        }

        /// Random query frames round-trip exactly.
        #[test]
        fn query_frames_round_trip(
            id in proptest::arbitrary::any::<u64>(),
            labels in proptest::collection::vec(0u32..5, 1..8),
            edge_seed in proptest::collection::vec((0u32..8, 0u32..8), 0..10),
            budget in proptest::arbitrary::any::<bool>(),
            allow_some in proptest::arbitrary::any::<bool>(),
            allow_vals in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..6),
        ) {
            let allow = allow_some.then_some(allow_vals);
            let n = labels.len() as u32;
            let edges: Vec<(u32, u32)> = edge_seed
                .into_iter()
                .map(|(u, v)| (u % n, v % n))
                .filter(|(u, v)| u != v)
                .collect();
            let frame = Request::Query(QueryFrame {
                id,
                graph: LabeledGraph::from_parts(labels, &edges),
                kind: None,
                verify_budget: budget.then_some(7),
                max_hits: None,
                bypass: false,
                timeout_ms: budget.then_some(42),
                allow,
            });
            let back = parse_request(&encode_request(&frame)).unwrap();
            prop_assert_eq!(back, frame);
        }

        /// Random RESULT frames — every counter zero, small or `u64`-wide,
        /// answer lists empty or not — encode, parse and encode again to
        /// the same bytes.
        #[test]
        fn result_frames_round_trip(
            (id, serial) in (counter(), counter()),
            fields in proptest::collection::vec(counter(), QueryRecord::DETERMINISTIC_NAMES.len()),
            answer in proptest::collection::vec(counter().prop_map(|v| v as u32), 0..12),
        ) {
            let mut record = QueryRecord::default();
            for (i, value) in fields.into_iter().enumerate() {
                record.set_deterministic_value(i, value);
            }
            let line = encode_response(&Response::Result(ResultFrame { id, serial, answer, record }));
            let back = parse_response(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            prop_assert_eq!(encode_response(&back), line);
        }

        /// Deleting, inserting or replacing one byte anywhere in a valid
        /// QUERY or RESULT frame never panics: every line the framer
        /// yields parses to a frame or to a typed error.
        #[test]
        fn one_byte_edits_never_panic(
            result in proptest::arbitrary::any::<bool>(),
            edit in 0u8..3,
            at in 0usize..512,
            byte in 0u8..=254,
        ) {
            let frame = if result {
                encode_response(&Response::Result(ResultFrame {
                    id: 9,
                    serial: 12,
                    answer: vec![0, 4, u32::MAX],
                    record: large_record(),
                }))
            } else {
                encode_request(&Request::Query(full_query(42)))
            };
            let mut wire = frame.into_bytes();
            let at = at % wire.len();
            match edit {
                0 => {
                    wire.remove(at);
                }
                1 => wire.insert(at, byte),
                _ => wire[at] = byte,
            }
            wire.push(b'\n');
            let mut reader = FrameReader::new();
            let mut src = &wire[..];
            loop {
                match reader.poll_frame(&mut src) {
                    Ok(FrameEvent::Frame(line)) => {
                        for outcome in [
                            parse_request(&line).err(),
                            parse_response(&line).err(),
                        ] {
                            prop_assert!(
                                matches!(outcome, None | Some(ProtoError::Malformed { .. })),
                                "{line:?}: {outcome:?}"
                            );
                        }
                    }
                    // Invalid UTF-8: the line is consumed, the stream goes on.
                    Err(ProtoError::Malformed { .. }) => {}
                    Ok(FrameEvent::Closed) => break,
                    other => panic!("{wire:?}: {other:?}"),
                }
            }
        }
    }

    /// A counter drawn from zero, small values, the whole `u64` range and
    /// `u64::MAX`.
    fn counter() -> impl Strategy<Value = u64> {
        (0u8..4, proptest::arbitrary::any::<u64>()).prop_map(|(pick, v)| match pick {
            0 => 0,
            1 => v % 100,
            2 => v,
            _ => u64::MAX,
        })
    }
}

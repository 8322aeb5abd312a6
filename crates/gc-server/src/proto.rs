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
//!   [`QueryRecord::set_deterministic_field`] rebuilds a record whose
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
use std::fmt::Write as _;
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
// Graph codec
// ---------------------------------------------------------------------------

/// Encodes a graph as `<nodes>:<labels>:<edges>`.
pub fn encode_graph(g: &LabeledGraph) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}:", g.node_count());
    for (i, v) in g.nodes().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", g.label(v));
    }
    out.push(':');
    for (i, (u, v)) in g.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{u}-{v}");
    }
    out
}

/// Decodes [`encode_graph`]'s format back into a graph, validating label
/// counts, edge endpoints, and the [`MAX_GRAPH_ITEMS`] sanity cap.
pub fn parse_graph(text: &str) -> Result<LabeledGraph, ProtoError> {
    let mut sections = text.splitn(3, ':');
    let (n, labels, edges) = match (sections.next(), sections.next(), sections.next()) {
        (Some(n), Some(l), Some(e)) => (n, l, e),
        _ => return Err(ProtoError::malformed("graph needs <n>:<labels>:<edges>")),
    };
    let n: usize = n
        .parse()
        .map_err(|_| ProtoError::malformed(format!("invalid node count {n:?}")))?;
    if n > MAX_GRAPH_ITEMS {
        return Err(ProtoError::malformed(format!(
            "graph node count {n} exceeds the {MAX_GRAPH_ITEMS} cap"
        )));
    }
    let mut label_vec: Vec<u32> = Vec::with_capacity(n);
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
    let mut edge_vec: Vec<(u32, u32)> = Vec::new();
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

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Splits a frame into whitespace-separated tokens, keeping a trailing
/// `key="quoted value"` token intact (quotes only appear in the final
/// `msg` token of `ERR` frames).
fn split_tokens(line: &str) -> Vec<&str> {
    let rest = line.trim();
    let mut tokens = Vec::new();
    if rest.is_empty() {
        return tokens;
    }
    if let Some(q) = rest.find('"') {
        // Everything from the token containing the opening quote to the
        // end of the line is one token.
        let start = rest[..q].rfind(' ').map(|i| i + 1).unwrap_or(0);
        tokens.extend(rest[..start].split_whitespace());
        tokens.push(rest[start..].trim_end());
    } else {
        tokens.extend(rest.split_whitespace());
    }
    tokens
}

/// Looks up `key=` in a token list, returning the raw value.
fn find_value<'a>(tokens: &[&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

fn require<'a>(tokens: &[&'a str], key: &str, frame: &str) -> Result<&'a str, ProtoError> {
    find_value(tokens, key)
        .ok_or_else(|| ProtoError::malformed(format!("{frame} frame is missing {key}=")))
}

fn parse_u64(value: &str, key: &str) -> Result<u64, ProtoError> {
    value
        .parse()
        .map_err(|_| ProtoError::malformed(format!("invalid {key}= value {value:?}")))
}

fn quote(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len() + 2);
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
    out
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

fn encode_id_list(ids: &[u32]) -> String {
    if ids.is_empty() {
        return "-".into();
    }
    let mut out = String::new();
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out
}

fn parse_id_list(raw: &str) -> Result<Vec<u32>, ProtoError> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|t| {
            t.parse()
                .map_err(|_| ProtoError::malformed(format!("invalid id {t:?} in list")))
        })
        .collect()
}

/// Serial lists (`allow=`, `cands=`) carry 64-bit query serials; the same
/// `-` convention marks an empty list.
fn encode_serial_list(serials: &[u64]) -> String {
    if serials.is_empty() {
        return "-".into();
    }
    let mut out = String::new();
    for (i, s) in serials.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    out
}

fn parse_serial_list(raw: &str) -> Result<Vec<u64>, ProtoError> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|t| {
            t.parse()
                .map_err(|_| ProtoError::malformed(format!("invalid serial {t:?} in list")))
        })
        .collect()
}

fn kind_name(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Subgraph => "sub",
        QueryKind::Supergraph => "super",
    }
}

fn parse_kind(args: &[&str]) -> Result<Option<QueryKind>, ProtoError> {
    match find_value(args, "kind") {
        None => Ok(None),
        Some("sub") => Ok(Some(QueryKind::Subgraph)),
        Some("super") => Ok(Some(QueryKind::Supergraph)),
        Some(other) => Err(ProtoError::malformed(format!(
            "invalid kind= value {other:?} (sub|super)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

/// The shared token tail of `QUERY` and `ROUTE` frames.
fn encode_query_tokens(q: &QueryFrame) -> String {
    let mut out = format!("id={} graph={}", q.id, encode_graph(&q.graph));
    if let Some(kind) = q.kind {
        let _ = write!(out, " kind={}", kind_name(kind));
    }
    if let Some(b) = q.verify_budget {
        let _ = write!(out, " budget={b}");
    }
    if let Some(m) = q.max_hits {
        let _ = write!(out, " max_hits={m}");
    }
    if q.bypass {
        out.push_str(" bypass=1");
    }
    if let Some(t) = q.timeout_ms {
        let _ = write!(out, " timeout={t}");
    }
    if let Some(allow) = &q.allow {
        let _ = write!(out, " allow={}", encode_serial_list(allow));
    }
    out
}

fn parse_query_frame(args: &[&str], frame: &str) -> Result<QueryFrame, ProtoError> {
    let id = parse_u64(require(args, "id", frame)?, "id")?;
    let graph = parse_graph(require(args, "graph", frame)?)?;
    let kind = parse_kind(args)?;
    let verify_budget = find_value(args, "budget")
        .map(|v| parse_u64(v, "budget"))
        .transpose()?;
    let max_hits = find_value(args, "max_hits")
        .map(|v| parse_u64(v, "max_hits"))
        .transpose()?;
    let bypass = match find_value(args, "bypass") {
        None => false,
        Some("1") => true,
        Some("0") => false,
        Some(other) => {
            return Err(ProtoError::malformed(format!(
                "invalid bypass= value {other:?} (0|1)"
            )))
        }
    };
    let timeout_ms = find_value(args, "timeout")
        .map(|v| parse_u64(v, "timeout"))
        .transpose()?;
    let allow = find_value(args, "allow")
        .map(parse_serial_list)
        .transpose()?;
    Ok(QueryFrame {
        id,
        graph,
        kind,
        verify_budget,
        max_hits,
        bypass,
        timeout_ms,
        allow,
    })
}

/// Serializes a request to its one-line frame (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Ping(None) => "PING".into(),
        Request::Ping(Some(token)) => format!("PING token={token}"),
        Request::Version { proto } => format!("VERSION proto={proto}"),
        Request::Query(q) => format!("QUERY {}", encode_query_tokens(q)),
        Request::Route(q) => format!("ROUTE {}", encode_query_tokens(q)),
        Request::Probe { id, graph, kind } => {
            let mut out = format!("PROBE id={id} graph={}", encode_graph(graph));
            if let Some(kind) = kind {
                let _ = write!(out, " kind={}", kind_name(*kind));
            }
            out
        }
        Request::Stats(scope) => match scope.name() {
            None => "STATS".into(),
            Some(name) => format!("STATS scope={name}"),
        },
        Request::Hold => "HOLD".into(),
        Request::Release => "RELEASE".into(),
        Request::Shutdown => "SHUTDOWN".into(),
        Request::Quit => "QUIT".into(),
    }
}

/// Parses one client frame. Any failure is a typed error, never a panic.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let tokens = split_tokens(line);
    let (&keyword, args) = tokens
        .split_first()
        .ok_or_else(|| ProtoError::malformed("empty frame"))?;
    match keyword {
        "PING" => Ok(Request::Ping(
            find_value(args, "token").map(|t| t.to_string()),
        )),
        "VERSION" => Ok(Request::Version {
            proto: parse_u64(require(args, "proto", "VERSION")?, "proto")?,
        }),
        "QUERY" => Ok(Request::Query(parse_query_frame(args, "QUERY")?)),
        "ROUTE" => Ok(Request::Route(parse_query_frame(args, "ROUTE")?)),
        "PROBE" => Ok(Request::Probe {
            id: parse_u64(require(args, "id", "PROBE")?, "id")?,
            graph: parse_graph(require(args, "graph", "PROBE")?)?,
            kind: parse_kind(args)?,
        }),
        "STATS" => match find_value(args, "scope") {
            None => Ok(Request::Stats(StatsScope::Global)),
            Some("mine") => Ok(Request::Stats(StatsScope::Mine)),
            Some("settle") => Ok(Request::Stats(StatsScope::Settle)),
            Some(other) => Err(ProtoError::malformed(format!(
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

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

/// Serializes a response to its one-line frame (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Hello {
            proto,
            session,
            max_inflight,
            peer,
        } => {
            let mut out =
                format!("HELLO proto={proto} session={session} max_inflight={max_inflight}");
            if let Some((index, total)) = peer {
                let _ = write!(out, " peer={index}/{total}");
            }
            out
        }
        Response::Version { proto } => format!("VERSION proto={proto}"),
        Response::Cands { id, cands } => {
            format!("CANDS id={id} cands={}", encode_serial_list(cands))
        }
        Response::Routed { id, serial } => format!("ROUTED id={id} serial={serial}"),
        Response::Pong(None) => "PONG".into(),
        Response::Pong(Some(token)) => format!("PONG token={token}"),
        Response::Result(r) => {
            let mut out = format!(
                "RESULT id={} serial={} answers={} ids={}",
                r.id,
                r.serial,
                r.answer.len(),
                encode_id_list(&r.answer)
            );
            for (name, value) in r.record.deterministic_fields() {
                let _ = write!(out, " {name}={value}");
            }
            out
        }
        Response::Busy { id, inflight, max } => {
            format!("BUSY id={id} inflight={inflight} max={max}")
        }
        Response::Stats(counters) => {
            let mut out = String::from("STATS");
            for (name, value) in counters {
                let _ = write!(out, " {name}={value}");
            }
            out
        }
        Response::Held => "HELD".into(),
        Response::Released => "RELEASED".into(),
        Response::Bye { reason } => format!("BYE reason={reason}"),
        Response::Err { code, msg } => format!("ERR code={code} msg={}", quote(msg)),
    }
}

/// Parses one server frame. Any failure is a typed error, never a panic.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let tokens = split_tokens(line);
    let (&keyword, args) = tokens
        .split_first()
        .ok_or_else(|| ProtoError::malformed("empty frame"))?;
    match keyword {
        "HELLO" => Ok(Response::Hello {
            proto: parse_u64(require(args, "proto", "HELLO")?, "proto")?,
            session: parse_u64(require(args, "session", "HELLO")?, "session")?,
            max_inflight: parse_u64(require(args, "max_inflight", "HELLO")?, "max_inflight")?,
            peer: match find_value(args, "peer") {
                None => None,
                Some(raw) => {
                    let (index, total) = raw.split_once('/').ok_or_else(|| {
                        ProtoError::malformed(format!("invalid peer= value {raw:?} (want I/N)"))
                    })?;
                    Some((parse_u64(index, "peer")?, parse_u64(total, "peer")?))
                }
            },
        }),
        "VERSION" => Ok(Response::Version {
            proto: parse_u64(require(args, "proto", "VERSION")?, "proto")?,
        }),
        "CANDS" => Ok(Response::Cands {
            id: parse_u64(require(args, "id", "CANDS")?, "id")?,
            cands: parse_serial_list(require(args, "cands", "CANDS")?)?,
        }),
        "ROUTED" => Ok(Response::Routed {
            id: parse_u64(require(args, "id", "ROUTED")?, "id")?,
            serial: parse_u64(require(args, "serial", "ROUTED")?, "serial")?,
        }),
        "PONG" => Ok(Response::Pong(
            find_value(args, "token").map(|t| t.to_string()),
        )),
        "RESULT" => {
            let id = parse_u64(require(args, "id", "RESULT")?, "id")?;
            let serial = parse_u64(require(args, "serial", "RESULT")?, "serial")?;
            let answers = parse_u64(require(args, "answers", "RESULT")?, "answers")?;
            let answer = parse_id_list(require(args, "ids", "RESULT")?)?;
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
            // Every deterministic field must be present — a missing field
            // would silently zero a counter and break served-counter
            // parity. Unknown extra tokens are ignored (forward compat).
            for (name, _) in QueryRecord::default().deterministic_fields() {
                let raw = require(args, name, "RESULT")?;
                let value = parse_u64(raw, name)?;
                record.set_deterministic_field(name, value);
            }
            Ok(Response::Result(ResultFrame {
                id,
                serial,
                answer,
                record,
            }))
        }
        "BUSY" => Ok(Response::Busy {
            id: parse_u64(require(args, "id", "BUSY")?, "id")?,
            inflight: parse_u64(require(args, "inflight", "BUSY")?, "inflight")?,
            max: parse_u64(require(args, "max", "BUSY")?, "max")?,
        }),
        "STATS" => {
            let mut counters = Vec::with_capacity(args.len());
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
        "BYE" => Ok(Response::Bye {
            reason: require(args, "reason", "BYE")?.to_string(),
        }),
        "ERR" => Ok(Response::Err {
            code: require(args, "code", "ERR")?.to_string(),
            msg: unquote(require(args, "msg", "ERR")?)?,
        }),
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
        for (i, (name, _)) in QueryRecord::default()
            .deterministic_fields()
            .iter()
            .enumerate()
        {
            record.set_deterministic_field(name, (i % 2) as u64 * (i as u64 + 1));
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
    }
}

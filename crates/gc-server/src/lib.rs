//! `gc-server` — the long-running GraphCache daemon behind `gc serve`.
//!
//! GraphCache is a *caching system*: the paper positions it in front of a
//! subgraph-query engine absorbing sustained query traffic from many
//! clients, not as a one-shot batch tool. This crate supplies that
//! missing deployment shape. A [`Server`] owns one shared
//! [`gc_core::GraphCache`] and listens on TCP and/or a unix socket; each
//! connection is a session speaking a hand-rolled line-delimited text
//! protocol ([`proto`]) whose `QUERY` frames are decoded into
//! [`gc_core::QueryRequest`]s, multiplexed onto the shared cache, and
//! answered with framed results carrying the deterministic
//! [`gc_core::QueryRecord`] counters.
//!
//! The pieces:
//!
//! * [`proto`] — the wire format: frames, the graph codec, the
//!   incremental [`proto::FrameReader`], typed [`proto::ProtoError`]s;
//! * [`server`] — the daemon: listeners, sessions, the admission-permit
//!   pool (`BUSY` backpressure, never unbounded queueing), `STATS`
//!   introspection, and `SHUTDOWN`/SIGTERM graceful drain with optional
//!   snapshot persistence;
//! * [`client`] — a small blocking [`Client`] used by `gc ctl`,
//!   `gc query --connect`, and the tests;
//! * [`router`] — `gc route`: the fingerprint-routing front-end that
//!   fans one query stream across a fleet of routed peers (consistent
//!   hashing over iso-fingerprints, probe fanout, lockstep replication);
//! * [`mod@bench`] — the [`bench::Fleet`] deployment behind
//!   `gc bench --serve` and `gc bench --route N`: the harness's one
//!   scenario runner with the workload served over sockets. Its parity
//!   table pins the acceptance bar: counters served through one daemon or
//!   a routed fleet are byte-identical to the in-process run's for the
//!   same seeds.
//!
//! The one `unsafe` block in the workspace lives here, fenced inside
//! `server::signal`: a two-line `signal(2)` binding (std has no signal
//! API and the offline build has no libc crate), so the crate carries
//! `deny(unsafe_code)` with a scoped allow instead of the usual `forbid`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod client;
pub mod proto;
pub mod router;
pub mod server;

pub use client::{Client, ClientError, HoldOutcome, QueryOutcome, RetryPolicy, RouteOutcome};
pub use proto::{
    FrameReader, ProtoError, QueryFrame, Request, Response, ResultFrame, StatsScope,
    MAX_FRAME_BYTES, PROTO_VERSION,
};
pub use router::{PeerIdentity, Ring, Router, RouterConfig, RouterShutdownHandle};
pub use server::{ServeConfig, ServeError, Server, ShutdownHandle};

//! End-to-end daemon smoke tests: an in-process `gc serve` [`Server`] on
//! a unix socket, driven through the protocol [`Client`]. Covers the
//! PR's acceptance bar — served counters byte-identical to in-process
//! `run_batch`, deterministic `BUSY` backpressure, `STATS`, graceful
//! drain with persistence — plus raw-socket protocol abuse (malformed
//! and oversized frames).

use graphcache::core::{GraphCache, QueryRecord, QueryRequest, RunCounters};
use graphcache::graph::GraphDataset;
use graphcache::methods::MethodBuilder;
use graphcache::server::{
    Client, ClientError, HoldOutcome, QueryFrame, QueryOutcome, ServeConfig, Server, StatsScope,
};
use graphcache::workload::{generate_type_a, DatasetProfile, TypeAConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A per-test unix-socket path (tests run in parallel in one process).
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gc-serve-smoke-{}-{tag}.sock", std::process::id()))
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

/// One cache configuration used for both the served and the in-process
/// side of the parity test. The deterministic work-proxy cost model keeps
/// admission/eviction decisions a pure function of the query sequence, so
/// two separately-built caches replaying the same queries stay in
/// lockstep.
fn make_cache(dataset: &GraphDataset) -> GraphCache {
    let method = MethodBuilder::ggsx().build(dataset);
    GraphCache::builder()
        .capacity(25)
        .window(8)
        .eviction("hd")
        .try_build(method)
        .expect("cache builds")
}

/// Spawns a daemon on its own socket; returns the join handle. The
/// default `ServeConfig` drain timeout is plenty for tests.
fn spawn_server(
    cache: GraphCache,
    socket: &Path,
    tweak: impl FnOnce(&mut ServeConfig),
) -> std::thread::JoinHandle<Result<(), graphcache::server::ServeError>> {
    let mut cfg = ServeConfig {
        unix: Some(socket.to_path_buf()),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(cache, cfg).expect("bind unix socket");
    std::thread::spawn(move || server.run())
}

/// Connects, tolerating the gap between bind and the accept loop.
fn connect(socket: &Path) -> Client {
    for _ in 0..200 {
        match Client::connect_unix(socket) {
            Ok(client) => return client,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("daemon at {socket:?} never accepted");
}

/// The acceptance bar: replaying a workload through the daemon produces
/// records (and therefore counters) byte-identical to an in-process
/// `run_batch` replay on an identically configured cache, and the settled
/// `STATS` maintenance/cache-shape counters match too.
#[test]
fn served_counters_match_in_process_run_batch() {
    let data = dataset();
    let workload = queries(&data, 40);

    // In-process reference replay.
    let reference = make_cache(&data);
    let in_process: Vec<QueryRecord> = reference
        .run_batch(workload.iter().map(QueryRequest::from))
        .into_iter()
        .map(|resp| resp.result.record)
        .collect();

    // Served replay of the same workload on an identical cache.
    let socket = socket_path("parity");
    let daemon = spawn_server(make_cache(&data), &socket, |_| {});
    let mut client = connect(&socket);
    let mut served = Vec::new();
    let mut answers = Vec::new();
    for (i, graph) in workload.iter().enumerate() {
        let frame = QueryFrame {
            id: i as u64,
            graph: graph.clone(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: None,
            allow: None,
        };
        match client.query(frame).expect("query") {
            QueryOutcome::Result(r) => {
                answers.push(r.answer.clone());
                served.push(r.record);
            }
            QueryOutcome::Busy { .. } => panic!("sequential replay must never see BUSY"),
        }
    }
    let stats = client.stats(StatsScope::Settle).expect("stats");
    client.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);

    // Record-level parity: every deterministic field of every query.
    assert_eq!(served.len(), in_process.len());
    for (i, (s, r)) in served.iter().zip(&in_process).enumerate() {
        assert_eq!(
            s.deterministic_fields(),
            r.deterministic_fields(),
            "query {i} diverged"
        );
    }
    // Counter-level parity (what the bench gate compares).
    assert_eq!(
        RunCounters::from_records(&served, 0),
        RunCounters::from_records(&in_process, 0)
    );
    // Answers made it across the wire intact: the record's answer_size
    // equals what arrived, and id lists stay sorted sets.
    for (wire, record) in answers.iter().zip(&served) {
        let answer_size = record
            .deterministic_fields()
            .into_iter()
            .find(|(k, _)| *k == "answer_size")
            .expect("answer_size field")
            .1;
        assert_eq!(wire.len() as u64, answer_size);
        assert!(
            wire.windows(2).all(|w| w[0] < w[1]),
            "answers sorted/deduped"
        );
    }
    // Settled maintenance + cache-shape counters match the reference.
    let stat = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("STATS missing {key}"))
    };
    let maint = reference.maint_stats();
    for (key, want) in maint.deterministic_counters() {
        assert_eq!(stat(key), want, "{key}");
    }
    assert_eq!(stat("cache_entries"), reference.cache_len() as u64);
    assert_eq!(stat("memory_bytes"), reference.memory_bytes() as u64);
    // The global query counters equal the client-side reconstruction.
    for (key, want) in RunCounters::from_records(&served, 0).deterministic_counters() {
        assert_eq!(stat(key), want, "{key}");
    }
}

/// Several sessions multiplex onto one shared cache concurrently; every
/// query is answered and the global counters account for all of them.
#[test]
fn concurrent_sessions_share_one_cache() {
    let data = dataset();
    let workload = queries(&data, 24);
    let socket = socket_path("concurrent");
    // A wide permit pool: this test is about multiplexing, not BUSY.
    let daemon = spawn_server(make_cache(&data), &socket, |cfg| cfg.max_inflight = 16);

    let clients = 4;
    let per_client = workload.len() / clients;
    std::thread::scope(|s| {
        for c in 0..clients {
            let chunk = &workload[c * per_client..(c + 1) * per_client];
            let socket = &socket;
            s.spawn(move || {
                let mut client = connect(socket);
                client.ping(Some("hello")).expect("ping");
                for (i, graph) in chunk.iter().enumerate() {
                    let frame = QueryFrame {
                        id: i as u64,
                        graph: graph.clone(),
                        kind: None,
                        verify_budget: None,
                        max_hits: None,
                        bypass: false,
                        timeout_ms: None,
                        allow: None,
                    };
                    match client.query(frame).expect("query") {
                        QueryOutcome::Result(_) => {}
                        QueryOutcome::Busy { .. } => {
                            panic!("pool of 16 permits cannot saturate at 4 clients")
                        }
                    }
                }
                // Per-session counters saw exactly this session's share.
                let mine = client.stats(StatsScope::Mine).expect("stats mine");
                let queries = mine
                    .iter()
                    .find(|(k, _)| k == "queries")
                    .map(|&(_, v)| v)
                    .unwrap();
                assert_eq!(queries, per_client as u64);
                client.quit().expect("quit");
            });
        }
    });

    let mut client = connect(&socket);
    let stats = client.stats(StatsScope::Global).expect("stats");
    let stat = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("STATS missing {key}"))
    };
    assert_eq!(stat("queries"), (per_client * clients) as u64);
    assert_eq!(stat("sessions_total"), clients as u64 + 1);
    assert_eq!(stat("sessions_open"), 1);
    client.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

/// Backpressure, deterministically: `HOLD` takes the only permit out of
/// the pool, so a second session's `QUERY` must be answered `BUSY`
/// (without executing); after `RELEASE` the same query succeeds. No
/// sleeps, no timing assumptions.
#[test]
fn saturated_permit_pool_yields_busy_then_recovers() {
    let data = dataset();
    let workload = queries(&data, 2);
    let socket = socket_path("busy");
    let daemon = spawn_server(make_cache(&data), &socket, |cfg| cfg.max_inflight = 1);

    let mut holder = connect(&socket);
    assert_eq!(holder.max_inflight(), 1);
    assert_eq!(holder.hold().expect("hold"), HoldOutcome::Held);
    // A second HOLD on the same session is a typed error, not a deadlock.
    match holder.hold() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "already-holding"),
        other => panic!("{other:?}"),
    }

    let mut worker = connect(&socket);
    let frame = |id: u64| QueryFrame {
        id,
        graph: workload[0].clone(),
        kind: None,
        verify_budget: None,
        max_hits: None,
        bypass: false,
        timeout_ms: None,
        allow: None,
    };
    match worker.query(frame(1)).expect("query") {
        QueryOutcome::Busy { inflight, max } => {
            assert_eq!((inflight, max), (1, 1));
        }
        QueryOutcome::Result(_) => panic!("pool is held; the query must be rejected"),
    }

    holder.release().expect("release");
    match worker.query(frame(2)).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 2),
        QueryOutcome::Busy { .. } => panic!("permit was released; query must run"),
    }
    // RELEASE without HOLD is a typed error too.
    match worker.release() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "not-holding"),
        other => panic!("{other:?}"),
    }

    let stats = worker.stats(StatsScope::Global).expect("stats");
    let busy = stats
        .iter()
        .find(|(k, _)| k == "busy_rejections")
        .map(|&(_, v)| v)
        .unwrap();
    assert_eq!(busy, 1, "exactly the one held-out query was rejected");
    worker.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

/// A held permit is returned when its session disconnects, so a crashed
/// operator cannot leak the pool empty.
#[test]
fn held_permit_is_released_on_disconnect() {
    let data = dataset();
    let workload = queries(&data, 1);
    let socket = socket_path("hold-leak");
    let daemon = spawn_server(make_cache(&data), &socket, |cfg| cfg.max_inflight = 1);

    {
        let mut holder = connect(&socket);
        assert_eq!(holder.hold().expect("hold"), HoldOutcome::Held);
        // Dropped without RELEASE — the disconnect must return the permit.
    }
    let mut worker = connect(&socket);
    // The server reaps the dropped session asynchronously; retry briefly.
    let mut served = false;
    for attempt in 0..100 {
        let frame = QueryFrame {
            id: attempt,
            graph: workload[0].clone(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: None,
            allow: None,
        };
        match worker.query(frame).expect("query") {
            QueryOutcome::Result(_) => {
                served = true;
                break;
            }
            QueryOutcome::Busy { .. } => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(served, "permit never came back after the holder vanished");
    worker.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

/// Graceful drain: `SHUTDOWN` stops the daemon, other connected sessions
/// get `BYE reason=draining`, `run()` returns cleanly, and the snapshot
/// is persisted when configured.
#[test]
fn shutdown_drains_sessions_and_persists() {
    let data = dataset();
    let workload = queries(&data, 20);
    let persist =
        std::env::temp_dir().join(format!("gc-serve-smoke-{}-persist-dir", std::process::id()));
    let _ = std::fs::remove_dir_all(&persist);
    let socket = socket_path("drain");
    let daemon = spawn_server(make_cache(&data), &socket, |cfg| {
        cfg.persist_on_exit = Some(persist.clone());
    });

    // Warm the cache past one window so the persisted snapshot is
    // non-empty.
    let mut warm = connect(&socket);
    for (i, graph) in workload.iter().enumerate() {
        let frame = QueryFrame {
            id: i as u64,
            graph: graph.clone(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: None,
            allow: None,
        };
        match warm.query(frame).expect("query") {
            QueryOutcome::Result(_) => {}
            QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
        }
    }

    let mut bystander = connect(&socket);
    let mut requester = connect(&socket);
    requester.shutdown().expect("shutdown acknowledged");

    // Drain interrupts between frames, so a ping already in flight may
    // still be answered — but the bystander's session must close shortly
    // after (BYE reason=draining or EOF, both SessionClosed here).
    let mut closed = false;
    for _ in 0..200 {
        match bystander.ping(None) {
            Ok(()) => std::thread::sleep(Duration::from_millis(5)),
            Err(ClientError::SessionClosed { .. }) | Err(ClientError::Io(_)) => {
                closed = true;
                break;
            }
            Err(other) => panic!("unexpected bystander failure: {other}"),
        }
    }
    assert!(closed, "draining server kept answering the bystander");

    daemon.join().expect("join").expect("clean exit");
    assert!(
        persist.join("snapshot.bin").is_file(),
        "persist-on-exit wrote a restorable snapshot"
    );
    // The snapshot restores into a fresh cache with entries intact.
    let restored = make_cache(&data);
    restored.restore(&persist).expect("restore");
    assert!(restored.cache_len() > 0, "snapshot was non-empty");
    // New connections are refused after drain: the socket file is gone.
    assert!(!socket.exists(), "socket unlinked on exit");
    let _ = std::fs::remove_dir_all(&persist);
}

/// The drain/ctl race, pinned: a `STATS` frame already in flight when the
/// daemon starts draining must be *answered* before the session's
/// `BYE reason=draining` — `gc ctl stats` against a draining daemon gets
/// its counters, not a bare goodbye.
#[test]
fn drain_answers_in_flight_frames_before_bye() {
    let data = dataset();
    let socket = socket_path("drain-race");
    let cfg = ServeConfig {
        unix: Some(socket.clone()),
        ..Default::default()
    };
    let server = Server::bind(make_cache(&data), cfg).expect("bind");
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run());

    // A raw session, so the reply order on the wire is observable.
    connect(&socket).quit().expect("probe session");
    let stream = UnixStream::connect(&socket).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("HELLO "), "greeting first: {line:?}");

    // Flip the drain flag first, then race the STATS in. The session
    // notices drain within one poll interval and its goodbye sweep must
    // still answer the frame that was already (or about to be) buffered.
    handle.shutdown();
    writer.write_all(b"STATS\n").expect("write");

    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.starts_with("STATS "),
        "drain swallowed the in-flight STATS, sent {line:?} instead"
    );
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.is_empty() || line.starts_with("BYE reason=draining"),
        "after the answer comes the goodbye, got {line:?}"
    );
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

/// Session caps: connection attempts beyond `max_sessions` are refused
/// with a typed error, not left hanging.
#[test]
fn session_limit_is_enforced() {
    let data = dataset();
    let socket = socket_path("max-sessions");
    let daemon = spawn_server(make_cache(&data), &socket, |cfg| cfg.max_sessions = 1);

    let mut first = connect(&socket);
    first.ping(None).expect("first session lives");
    match Client::connect_unix(&socket) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "max-sessions"),
        Ok(_) => panic!("second session must be refused"),
        Err(other) => panic!("expected a typed refusal, got {other}"),
    }
    first.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

/// Raw-socket protocol abuse: garbage frames get a typed `ERR` and the
/// session stays usable; an oversized frame gets `ERR code=too-large`
/// and the connection closes (framing cannot re-synchronise).
#[test]
fn malformed_and_oversized_frames_are_typed_errors() {
    let data = dataset();
    let socket = socket_path("abuse");
    let daemon = spawn_server(make_cache(&data), &socket, |_| {});

    // Wait for the accept loop, then talk raw bytes.
    connect(&socket).quit().expect("probe session");
    let stream = UnixStream::connect(&socket).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    let read_line = move |reader: &mut BufReader<UnixStream>, line: &mut String| {
        line.clear();
        reader.read_line(line).expect("read");
        line.trim_end().to_string()
    };

    assert!(
        read_line(&mut reader, &mut line).starts_with("HELLO "),
        "greeting first"
    );
    // Unknown keyword → typed ERR, session survives.
    writer.write_all(b"FROBNICATE now\n").expect("write");
    assert!(read_line(&mut reader, &mut line).starts_with("ERR code=bad-frame"));
    // Bad QUERY payload → typed ERR, session survives.
    writer
        .write_all(b"QUERY id=1 graph=2:9:0-5\n")
        .expect("write");
    assert!(read_line(&mut reader, &mut line).starts_with("ERR code=bad-frame"));
    // The session still answers after both.
    writer.write_all(b"PING token=alive\n").expect("write");
    assert_eq!(read_line(&mut reader, &mut line), "PONG token=alive");

    // Oversized frame: ERR too-large, then the server hangs up. The
    // server may notice the overrun and close while we are still
    // writing, so a BrokenPipe mid-write is also a pass — the reply (if
    // any arrived first) plus EOF is still readable from our side.
    let oversized = vec![b'A'; graphcache::server::MAX_FRAME_BYTES + 64];
    let write_result = writer
        .write_all(&oversized)
        .and_then(|()| writer.write_all(b"\n"));
    match write_result {
        Ok(()) => {
            assert!(read_line(&mut reader, &mut line).starts_with("ERR code=too-large"));
        }
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            // Hung up mid-write; the ERR frame may or may not have been
            // flushed before the close. Drain whatever is left.
            line.clear();
            let _ = reader.read_line(&mut line);
            assert!(
                line.is_empty() || line.starts_with("ERR code=too-large"),
                "unexpected frame after oversized write: {line:?}"
            );
        }
        Err(e) => panic!("write: {e}"),
    }
    assert_eq!(
        read_line(&mut reader, &mut line),
        "",
        "connection closed after an oversized frame"
    );

    let mut client = connect(&socket);
    client.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

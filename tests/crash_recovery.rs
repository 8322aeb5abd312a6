//! Kill-9 recovery end-to-end: a real `gc serve` daemon process writing
//! periodic background snapshots is killed with SIGKILL — no drain, no
//! exit handler — and a restarted daemon must come back serving the
//! committed baseline from the surviving snapshot generation. This is the
//! process-level counterpart of tests/fault_injection.rs: that sweep
//! proves every *simulated* crash point recovers; this test proves the
//! real thing (a dead process mid-snapshot-cadence) does too.

#![cfg(unix)]

use graphcache::core::PersistedCache;
use graphcache::graph::io as graph_io;
use graphcache::server::{Client, QueryFrame, QueryOutcome, RetryPolicy, StatsScope};
use graphcache::workload::{generate_type_a, DatasetProfile, TypeAConfig};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn gc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_gc")
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gc-crash-rec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon child that is never left running: killed on drop even when
/// an assertion fails first.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(dataset: &Path, socket: &Path, save: &Path, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(gc_bin());
    cmd.arg("serve")
        .arg("--dataset")
        .arg(dataset)
        .arg("--unix")
        .arg(socket)
        .arg("--persist-on-exit")
        .arg(save)
        .arg("--capacity")
        .arg("25")
        .arg("--window")
        .arg("4")
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    Daemon(cmd.spawn().expect("spawn gc serve"))
}

fn connect(socket: &Path) -> Client {
    Client::connect_unix_with_retry(socket, &RetryPolicy::seeded(8, 42))
        .expect("daemon never accepted")
}

fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("STATS missing {key}"))
}

#[test]
fn kill_nine_mid_snapshot_cadence_recovers_committed_generation() {
    let tmp = Scratch::new("kill9");
    let dataset_path = tmp.path("d.txt");
    let socket = tmp.path("daemon.sock");
    let save = tmp.path("save");

    let dataset = DatasetProfile::aids().scaled(0.05).generate(11);
    graph_io::save_dataset(&dataset_path, &dataset).expect("write dataset");
    let workload: Vec<_> = generate_type_a(&dataset, &TypeAConfig::zz(1.4).count(60).seed(13))
        .graphs()
        .cloned()
        .collect();

    // Phase 1: daemon with a 1-second background snapshot cadence. Keep
    // it busy so snapshots race live queries, then SIGKILL it cold.
    let daemon = spawn_daemon(&dataset_path, &socket, &save, &["--snapshot-every", "1"]);
    let mut client = connect(&socket);
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let observed_snapshot = 'warm: loop {
        for graph in &workload {
            let frame = QueryFrame {
                id: sent,
                graph: graph.clone(),
                kind: None,
                verify_budget: None,
                max_hits: None,
                bypass: false,
                timeout_ms: Some(60_000),
                allow: None,
            };
            match client.query(frame).expect("query") {
                QueryOutcome::Result(_) => sent += 1,
                QueryOutcome::Busy { .. } => panic!("sequential client saw BUSY"),
            }
            // Kill once at least one background snapshot committed and a
            // second cadence tick is plausibly in flight — the point is a
            // cold stop with snapshot activity around it.
            if sent.is_multiple_of(10) {
                let stats = client.stats(StatsScope::Global).expect("stats");
                let written = stat(&stats, "snapshots_written");
                if written >= 2 {
                    break 'warm written;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote two background snapshots"
            );
        }
    };
    drop(daemon); // SIGKILL: no drain, no persist-on-exit, no socket unlink
    let _ = std::fs::remove_file(&socket);

    // The kill must not have cost us the committed baseline: the save
    // directory recovers to a valid generation with entries.
    let recovered = PersistedCache::load_resilient(&save).expect("post-kill recovery");
    let generation = recovered
        .generation
        .expect("background snapshots commit through the manifest");
    assert!(generation >= 1, "at least one committed generation");
    let baseline_entries = recovered.state.entries.len() as u64;
    assert!(
        baseline_entries > 0,
        "observed {observed_snapshot} snapshots but the recovered baseline is empty"
    );

    // Phase 2: a restarted daemon restores that baseline and reports the
    // generation it came from.
    let daemon = spawn_daemon(
        &dataset_path,
        &socket,
        &save,
        &["--restore", save.to_str().unwrap()],
    );
    let mut client = connect(&socket);
    let stats = client.stats(StatsScope::Global).expect("stats");
    assert_eq!(
        stat(&stats, "cache_entries"),
        baseline_entries,
        "restart must serve exactly the committed baseline"
    );
    assert_eq!(
        stat(&stats, "recovered_generation"),
        generation,
        "restart must report the generation it restored from"
    );
    assert_eq!(stat(&stats, "snapshots_written"), 0, "fresh counter");
    // And it still answers queries on top of the restored state.
    let frame = QueryFrame {
        id: 0,
        graph: workload[0].clone(),
        kind: None,
        verify_budget: None,
        max_hits: None,
        bypass: false,
        timeout_ms: Some(60_000),
        allow: None,
    };
    match client.query(frame).expect("query after restore") {
        QueryOutcome::Result(_) => {}
        QueryOutcome::Busy { .. } => panic!("restored daemon rejected its first query"),
    }
    client.shutdown().expect("graceful shutdown");
    drop(daemon);
}

/// The stale-socket satellite: a SIGKILLed daemon leaves its socket file
/// behind; a restarted daemon must detect that nothing is listening,
/// unlink the stale file, and bind — while a *live* daemon's socket is
/// refused instead of stolen.
#[test]
fn stale_socket_is_reclaimed_live_socket_is_not() {
    let tmp = Scratch::new("stale-sock");
    let dataset_path = tmp.path("d.txt");
    let socket = tmp.path("daemon.sock");
    let save = tmp.path("save");

    let dataset = DatasetProfile::aids().scaled(0.02).generate(7);
    graph_io::save_dataset(&dataset_path, &dataset).expect("write dataset");

    // Boot, confirm liveness, SIGKILL — the socket file survives the kill.
    let daemon = spawn_daemon(&dataset_path, &socket, &save, &[]);
    connect(&socket).quit().expect("first daemon lives");
    drop(daemon);
    assert!(socket.exists(), "SIGKILL leaves the socket file behind");

    // A second daemon must treat the dead socket as stale and bind.
    let daemon = spawn_daemon(&dataset_path, &socket, &save, &[]);
    let mut client = connect(&socket);
    client
        .ping(Some("reclaimed"))
        .expect("rebound socket serves");

    // While it lives, a third daemon must refuse to steal the socket.
    let out = Command::new(gc_bin())
        .arg("serve")
        .arg("--dataset")
        .arg(&dataset_path)
        .arg("--unix")
        .arg(&socket)
        .output()
        .expect("spawn third daemon");
    assert_eq!(
        out.status.code(),
        Some(1),
        "binding a live socket must fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("live daemon"),
        "refusal names the cause: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The live daemon was not disturbed.
    client
        .ping(Some("still-here"))
        .expect("live daemon unharmed");
    client.shutdown().expect("graceful shutdown");
    drop(daemon);
}

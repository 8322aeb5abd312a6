//! The traced run: spans around every public call into a layer.
//!
//! Spans are recorded from here, outside the program: name, start, end,
//! the span that caused it, and the stream position they belong to. They
//! stay in memory and are written to `out/trace-<workload>.jsonl` when the
//! run ends. End-to-end metrics never come from a traced pass.

use crate::replay::{query_frame, Inputs, Live, Scratch, Settled};
use crate::stats;
use crate::workloads::Path as ExecPath;
use gc_core::QueryRecord;
use gc_fragments::FragmentConfig;
use gc_harness::Scenario;
use gc_index::fingerprint::iso_hash;
use gc_server::proto::{encode_request, encode_response, parse_request, parse_response};
use gc_server::{Client, Request, Response, ResultFrame, RetryPolicy};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` is the `id` of the span that caused
/// this one (0 = none); spans of one query share `query`.
pub struct Span {
    id: u32,
    parent: u32,
    query: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose bounds are already known; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        query: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a top-level span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, 0, query, start, end);
        out
    }

    fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Mean duration of the spans called `name`, in µs (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            return 0.0;
        }
        d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3
    }

    /// Median duration of the spans called `name`, in µs (0 when none).
    pub fn median_us(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            return 0.0;
        }
        stats::percentile(&d, 50.0) as f64 / 1e3
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let query = s.query.map_or("null".to_string(), |q| q.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one traced pass produced besides its spans.
pub struct Traced {
    /// Records per stream position.
    pub records: Vec<QueryRecord>,
    /// Operations that failed or answered wrongly.
    pub failed: usize,
    /// Wall time of the replay loop, extra calls included.
    pub wall: Duration,
    /// Candidates returned by `probe_candidates`, summed.
    pub candidates: u64,
    /// Encoded `QUERY` frame bytes, summed (newline included).
    pub request_bytes: u64,
    /// Encoded `RESULT` frame bytes, summed.
    pub response_bytes: u64,
    /// Settled state.
    pub settled: Settled,
}

/// How often the wire-only probes (`PING`, `PROBE`) are sent.
const WIRE_PROBE_EVERY: usize = 50;

/// Replays the stream once with spans around every layer call.
pub fn run_traced(
    tracer: &mut Tracer,
    inputs: &Inputs,
    scenario: &Scenario,
    path: ExecPath,
    scratch: &Scratch,
) -> Result<Traced, String> {
    let (mut live, _) = tracer.time("setup", None, || Live::stand_up(scenario, path, scratch))?;
    // A routed fleet refuses PROBE from clients; ask peer 0 directly, on
    // a session of its own that announces the fleet protocol first.
    let mut peer_probe = match path {
        ExecPath::Routed(_) => {
            let socket = live.daemon_socket(0).expect("a fleet has peer 0").clone();
            let mut client = Client::connect_unix_with_retry(&socket, &RetryPolicy::default())
                .map_err(|e| format!("probe session: {e}"))?;
            client
                .announce()
                .map_err(|e| format!("probe session: {e}"))?;
            Some(client)
        }
        _ => None,
    };
    let fragment_cfg = FragmentConfig::default();
    let mut records = Vec::with_capacity(inputs.stream.len());
    let (mut failed, mut candidates, mut request_bytes, mut response_bytes) = (0, 0, 0, 0);

    let wall0 = Instant::now();
    for (i, graph) in inputs.stream.iter().enumerate() {
        let q = Some(i);
        tracer.time("index.iso_hash", q, || black_box(iso_hash(graph)));
        candidates += tracer.time("query_index.probe_candidates", q, || {
            live.cache().probe_candidates(graph, None).len() as u64
        });
        if scenario.fragments {
            tracer.time("fragments.decompose", q, || {
                black_box(gc_fragments::decompose(graph, &fragment_cfg))
            });
        }

        let request = Request::Query(query_frame(i, graph));
        let line = tracer.time("proto.encode_request", q, || encode_request(&request));
        request_bytes += line.len() as u64 + 1;
        tracer
            .time("proto.parse_request", q, || parse_request(&line))
            .map_err(|e| format!("own QUERY frame does not parse: {e}"))?;

        let expected = &inputs.oracle.answers[i];
        let start = tracer.now();
        let outcome = live.query(i, graph, expected);
        let end = tracer.now();
        let record = match outcome {
            Ok(answered) if answered.correct => answered.record,
            _ => {
                failed += 1;
                QueryRecord::default()
            }
        };
        if path == ExecPath::InProcess {
            // The record's four stage durations become children, laid
            // back to back in pipeline order (their true offsets are not
            // exported); what they leave uncovered is execute's self time.
            let id = tracer.push("core.execute", 0, q, start, end);
            let mut at = start;
            for (name, d) in [
                ("processors.gc_filter", record.gc_filter),
                ("methods.filter", record.m_filter),
                ("methods.verify", record.verify),
                ("window.maintenance", record.maintenance),
            ] {
                let d = d.as_nanos() as u64;
                tracer.push(name, id, q, at, at + d);
                at += d;
            }
        } else {
            tracer.push("client.query", 0, q, start, end);
        }

        let response = Response::Result(ResultFrame {
            id: i as u64,
            serial: record.serial,
            answer: expected.to_vec(),
            record: record.clone(),
        });
        let line = tracer.time("proto.encode_response", q, || encode_response(&response));
        response_bytes += line.len() as u64 + 1;
        tracer
            .time("proto.parse_response", q, || parse_response(&line))
            .map_err(|e| format!("own RESULT frame does not parse: {e}"))?;
        records.push(record);

        if i % WIRE_PROBE_EVERY == 0 {
            if let Some(client) = live.client() {
                tracer
                    .time("client.ping", q, || client.ping(None))
                    .map_err(|e| format!("ping: {e}"))?;
            }
            if let Some(client) = peer_probe.as_mut() {
                tracer
                    .time("client.probe", q, || {
                        client.probe(i as u64, graph.as_ref().clone(), None)
                    })
                    .map_err(|e| format!("probe: {e}"))?;
            }
        }
    }
    let wall = wall0.elapsed();
    if let Some(mut client) = peer_probe {
        let _ = client.quit();
    }

    let settled = live.settle()?;
    let start = tracer.now();
    let snapshot = live.snapshot_cycle(&inputs.restore_target, scratch)?;
    let end = tracer.now();
    tracer.push(
        "persist.save",
        0,
        None,
        start,
        start + snapshot.save.as_nanos() as u64,
    );
    tracer.push(
        "persist.restore",
        0,
        None,
        end - snapshot.restore.as_nanos() as u64,
        end,
    );
    tracer.time("teardown", None, || live.tear_down())?;
    Ok(Traced {
        records,
        failed,
        wall,
        candidates,
        request_bytes,
        response_bytes,
        settled,
    })
}

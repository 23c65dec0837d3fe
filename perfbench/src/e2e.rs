//! One daemon run: set-up, the open-loop and saturation phases over one
//! connection, then the oracle — everything the end-to-end metrics and
//! the daemon layer's per-layer metrics are computed from.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;

use grape_daemon::protocol::{EventFrame, RequestBody, Response, ResponseBody, StatusInfo};

use crate::daemon::Daemon;
use crate::loadgen::{Conn, Frame, Sent};
use crate::oracle::{self, Rows};
use crate::workload::{OpKind, Plan, Workload};

/// Daemon start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// What one daemon run measured.
#[derive(Default)]
pub struct DaemonRun {
    pub setup_s: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub event_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub cold_read_ms: Vec<f64>,
    /// Eviction round trips (reported on standard error only).
    pub evict_ms: Vec<f64>,
    pub commits_per_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Oracle failures; any entry fails the run.
    pub mismatches: Vec<String>,
    pub late_ms: Vec<f64>,
    pub backlog_max: usize,
    /// Open-loop sends that found an earlier reply still outstanding.
    pub backlogged: usize,
    /// Server-side commit time of each open-loop commit (`metrics --samples`).
    pub server_commit_ms: Vec<f64>,
    /// Client commit latency minus the server sample of the same commit.
    pub wire_wait_ms: Vec<f64>,
    pub reply_bytes_per_commit: f64,
    pub event_bytes_per_commit: f64,
    pub answer_bytes: Vec<f64>,
    pub cpu_ms_per_commit: f64,
    pub spill_bytes: Vec<f64>,
    pub spill_chain_max: f64,
    pub compactions: f64,
    /// A hot-read reply payload and every parsed event, for the codec timings.
    pub answer_payload: Option<String>,
    pub events: Vec<EventFrame>,
    /// One span per open-loop request, for the trace file.
    pub request_spans: Vec<RequestSpan>,
}

/// A request's life on the wire, in seconds from the phase start.
#[derive(Serialize)]
pub struct RequestSpan {
    pub op: &'static str,
    pub query: Option<usize>,
    /// The timeline version a commit produced.
    pub version: Option<usize>,
    pub due_s: f64,
    pub sent_s: f64,
    pub reply_s: f64,
    /// Arrival of the last event the request caused.
    pub last_event_s: Option<f64>,
    /// The server's own time for a commit (`metrics --samples`), in ms.
    pub server_ms: Option<f64>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1000.0
}

/// Starts a daemon and registers (and subscribes) every query.
fn set_up(
    bin_dir: &Path,
    w: &Workload,
    plan: &Plan,
    spill: PathBuf,
) -> Result<(Daemon, Conn, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin_dir, plan, spill)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    for spec in &plan.specs {
        conn.call(RequestBody::Register { spec: *spec })?;
    }
    for query in 0..w.watched {
        conn.call(RequestBody::Subscribe { query })?;
    }
    Ok((daemon, conn, started.elapsed().as_secs_f64()))
}

fn output(conn: &mut Conn, query: usize) -> Result<Rows, String> {
    match conn.call(RequestBody::Output { query })? {
        ResponseBody::Answer { answer, .. } => Ok(oracle::rows(&answer)),
        other => Err(format!("unexpected reply to output: {other:?}")),
    }
}

fn shut_down(mut daemon: Daemon, mut conn: Conn) {
    let _ = conn.call(RequestBody::Shutdown);
    conn.close();
    daemon.reap(true);
}

/// Runs the plan against a fresh daemon and checks the answers.
pub fn run(
    bin_dir: &Path,
    work_dir: &Path,
    w: &Workload,
    plan: &Plan,
) -> Result<DaemonRun, String> {
    let mut out = DaemonRun::default();
    let spill = |k: usize| work_dir.join(format!("spill-{}-{k}", std::process::id()));
    for k in 0..SETUPS - 1 {
        let (daemon, conn, secs) = set_up(bin_dir, w, plan, spill(k))?;
        out.setup_s.push(secs);
        shut_down(daemon, conn);
    }
    let (mut daemon, mut conn, secs) = set_up(bin_dir, w, plan, spill(SETUPS - 1))?;
    out.setup_s.push(secs);
    let result = measure(&mut daemon, &mut conn, w, plan, &mut out);
    shut_down(daemon, conn);
    result?;
    Ok(out)
}

fn measure(
    daemon: &mut Daemon,
    conn: &mut Conn,
    w: &Workload,
    plan: &Plan,
    out: &mut DaemonRun,
) -> Result<(), String> {
    // The warm-up and the baselines are untimed; quick ACKs keep them short.
    conn.quick_acks(true);
    for &query in &plan.warmup {
        conn.call(RequestBody::Evict { query })?;
        conn.call(RequestBody::Output { query })?;
    }
    let mut baselines = Vec::new();
    for query in 0..w.watched {
        baselines.push(output(conn, query)?);
    }

    let cpu_before = daemon.cpu_ms();
    let start = Instant::now() + std::time::Duration::from_millis(20);
    let sent = conn.drive(plan, start)?;
    let cpu_after = daemon.cpu_ms();
    let status = match conn.call(RequestBody::Status)? {
        ResponseBody::Status(s) => s,
        other => return Err(format!("unexpected reply to status: {other:?}")),
    };
    out.peak_rss_mb = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    let server_samples = match conn.call(RequestBody::Metrics { samples: true })? {
        ResponseBody::Metrics(m) => m.samples.unwrap_or_default(),
        other => return Err(format!("unexpected reply to metrics: {other:?}")),
    };
    let mut finals = Vec::new();
    for query in 0..plan.specs.len() {
        finals.push(output(conn, query)?);
    }
    let frames = conn.take_frames();

    analyse(w, plan, start, &sent, &frames, &server_samples, out)?;
    spill_facts(&status, out);
    let commits = plan.ops.iter().filter(|op| op.is_commit()).count();
    if let (Some(a), Some(b)) = (cpu_before, cpu_after) {
        out.cpu_ms_per_commit = (b - a) / commits as f64;
    }

    // The oracle, outside the timed window.
    let expected = oracle::recompute(&plan.final_graph(), &plan.specs)?;
    for (query, (want, got)) in expected.iter().zip(&finals).enumerate() {
        if let Some(d) = oracle::diff(want, got) {
            out.mismatches.push(format!(
                "query {query} differs from a from-scratch run: {d}"
            ));
        }
    }
    for (query, baseline) in baselines.into_iter().enumerate() {
        let folded = oracle::fold(baseline, query, &out.events)?;
        if let Some(d) = oracle::diff(&finals[query], &folded) {
            out.mismatches.push(format!(
                "query {query}'s folded events differ from its answer: {d}"
            ));
        }
    }
    Ok(())
}

fn spill_facts(status: &StatusInfo, out: &mut DaemonRun) {
    out.spill_chain_max = status
        .queries
        .iter()
        .map(|row| row.status.spill_chain as f64)
        .fold(0.0, f64::max);
    out.compactions = status.compactions as f64;
}

/// Turns the timestamped frames into samples.
fn analyse(
    w: &Workload,
    plan: &Plan,
    start: Instant,
    sent: &[Sent],
    frames: &[Frame],
    server_samples: &[f64],
    out: &mut DaemonRun,
) -> Result<(), String> {
    let by_id: HashMap<u64, usize> = sent.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut reply_of: Vec<Option<&Frame>> = vec![None; sent.len()];
    // Events attributed to the request whose reply preceded them.
    let mut events_of: Vec<Vec<&Frame>> = vec![Vec::new(); sent.len()];
    let mut last: Option<usize> = None;
    for frame in frames {
        match frame.reply_to {
            Some(id) => {
                last = by_id.get(&id).copied();
                if let Some(i) = last {
                    reply_of[i] = Some(frame);
                }
            }
            None => {
                let event: EventFrame =
                    serde_json::from_str(&frame.payload).map_err(|e| format!("bad event: {e}"))?;
                out.events.push(event);
                if let Some(i) = last {
                    events_of[i].push(frame);
                }
            }
        }
    }

    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut evicted: BTreeSet<usize> = BTreeSet::new();
    let mut commit_ordinal = 0usize;
    // First saturation send, then each saturation commit's reply.
    let mut sat_marks: Vec<Instant> = Vec::new();
    let (mut reply_bytes, mut event_bytes, mut main_commits) = (0usize, 0usize, 0usize);
    for (i, s) in sent.iter().enumerate() {
        let op = &plan.ops[s.op];
        out.attempted += 1;
        let Some(reply) = reply_of[i] else {
            out.failed += 1;
            continue;
        };
        let response: Response =
            serde_json::from_str(&reply.payload).map_err(|e| format!("bad reply: {e}"))?;
        let latency = ms(s.due, reply.at);
        if let ResponseBody::Error { kind, message } = &response.body {
            // A failed request yields no sample; the run is invalid anyway.
            eprintln!("perfbench: request {} failed: {kind:?}: {message}", s.id);
            out.failed += 1;
            continue;
        }
        let last_event = events_of[i].iter().map(|f| f.at).max();
        if op.saturation {
            if sat_marks.is_empty() {
                sat_marks.push(s.sent);
            }
        } else {
            out.late_ms.push(ms(s.due, s.sent));
            out.backlog_max = out.backlog_max.max(s.backlog);
            out.backlogged += usize::from(s.backlog > 0);
            let (name, query) = match op.kind {
                OpKind::Commit(_) => ("commit", None),
                OpKind::Read(q) => ("read", Some(q)),
                OpKind::Evict(q) => ("evict", Some(q)),
                OpKind::ColdRead(q) => ("cold_read", Some(q)),
            };
            let (version, server_ms) = match &response.body {
                ResponseBody::Applied { reports, .. } => (
                    reports.last().map(|r| r.version),
                    server_samples.get(commit_ordinal).copied(),
                ),
                _ => (None, None),
            };
            out.request_spans.push(RequestSpan {
                op: name,
                query,
                version,
                due_s: secs(s.due),
                sent_s: secs(s.sent),
                reply_s: secs(reply.at),
                last_event_s: last_event.map(secs),
                server_ms,
            });
        }
        match &op.kind {
            OpKind::Commit(_) => {
                let expected = (0..w.watched).filter(|q| !evicted.contains(q)).count();
                let got = events_of[i].len();
                if got < expected {
                    out.failed += expected - got;
                }
                if op.saturation {
                    sat_marks.push(reply.at);
                } else {
                    main_commits += 1;
                    out.commit_ms.push(latency);
                    reply_bytes += reply.bytes;
                    event_bytes += events_of[i].iter().map(|f| f.bytes).sum::<usize>();
                    if let Some(at) = last_event {
                        out.event_ms.push(ms(s.due, at));
                    }
                    if let Some(&server) = server_samples.get(commit_ordinal) {
                        out.server_commit_ms.push(server);
                        out.wire_wait_ms.push(latency - server);
                    }
                }
                commit_ordinal += 1;
            }
            OpKind::Read(_) => {
                if !op.saturation {
                    out.read_ms.push(latency);
                    out.answer_bytes.push(reply.bytes as f64);
                    out.answer_payload
                        .get_or_insert_with(|| reply.payload.clone());
                }
            }
            OpKind::Evict(q) => {
                evicted.insert(*q);
                if !op.saturation {
                    out.evict_ms.push(latency);
                }
                if let ResponseBody::Evicted { spill, .. } = &response.body {
                    if let Ok(meta) = std::fs::metadata(spill) {
                        out.spill_bytes.push(meta.len() as f64);
                    }
                }
            }
            OpKind::ColdRead(q) => {
                evicted.remove(q);
                if !op.saturation {
                    out.cold_read_ms.push(latency);
                }
            }
        }
    }
    // The whole phase, not a median over short windows: about one eviction
    // in five folds a spill chain, and whether a window held a fold would
    // make the window rates bimodal and their median flip between modes.
    let (Some(&first), Some(&last)) = (sat_marks.iter().min(), sat_marks.iter().max()) else {
        return Err("the saturation phase sent nothing".to_string());
    };
    let elapsed = last.saturating_duration_since(first).as_secs_f64();
    if elapsed <= 0.0 {
        return Err("the saturation phase took no time".to_string());
    }
    out.commits_per_s = (sat_marks.len() - 1) as f64 / elapsed;
    if main_commits > 0 {
        out.reply_bytes_per_commit = reply_bytes as f64 / main_commits as f64;
        out.event_bytes_per_commit = event_bytes as f64 / main_commits as f64;
    }
    Ok(())
}

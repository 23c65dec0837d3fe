//! The traced run's per-layer numbers.
//!
//! Part one turns the daemon run's own records into the `loadgen.*`,
//! `daemon.*` and `spill.*` metrics.  Part two replays the same generated
//! inputs in process through each layer's public calls — `GrapeServer`,
//! `Fragmentation::apply_delta`, `Graph::apply_delta`,
//! `QuotientTables::derive`, `damage_frontier`, `PreparedQuery::update`,
//! `output_delta_since` — giving every call a span whose parent is its
//! commit's span.  A span's self time is its duration minus its children's.
//! Spans stay in memory and are written out when the run ends.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use grape_algorithms::cc::{Cc, CcQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_core::config::EngineMode;
use grape_core::pie::{IncrementalPie, PieProgram};
use grape_core::prepared::{PreparedQuery, RefreshKind, UpdateReport};
use grape_core::serve::{GrapeServer, QueryHandle};
use grape_core::session::GrapeSession;
use grape_core::spec::QuerySpec;
use grape_core::transport::TransportSpec;
use grape_core::{DeltaOutput, EngineError};
use grape_daemon::protocol::{self, Response, ServerFrame};
use grape_graph::delta::GraphDelta;
use grape_partition::delta::{damage_frontier, QuotientTables};
use grape_partition::fragment::Fragmentation;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;
use serde::Serialize;

use crate::e2e::{DaemonRun, RequestSpan};
use crate::stats::median;
use crate::workload::{OpKind, Plan, Workload};
use crate::Metrics;

/// Open-loop commits the in-process replay covers (with their reads).
pub const REPLAY_COMMITS: usize = 100;
/// The daemon's refresh fan-out width (`--refresh-threads`).
const FAN_OUT: usize = 2;
/// Repetitions of each codec timing.
const CODEC_REPS: usize = 25;

/// One timed call.
#[derive(Serialize)]
pub struct Span {
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Start, in ms after the replay began.
    pub start_ms: f64,
    pub dur_ms: f64,
    /// The commit (timeline version) the call belongs to.
    pub version: usize,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` as a span under `parent`; returns its result and span index.
    fn span<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        version: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let begin = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            parent,
            name,
            start_ms: ms(self.origin, begin),
            dur_ms: ms(begin, end),
            version,
        });
        (out, self.spans.len() - 1)
    }

    /// An empty root span, closed by [`Tracer::close`].
    fn open(&mut self, name: &'static str, version: usize) -> usize {
        self.spans.push(Span {
            parent: None,
            name,
            start_ms: ms(self.origin, Instant::now()),
            dur_ms: 0.0,
            version,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        let end = ms(self.origin, Instant::now());
        self.spans[span].dur_ms = end - self.spans[span].start_ms;
    }

    fn dur(&self, span: usize) -> f64 {
        self.spans[span].dur_ms
    }

    /// Duration minus the children's durations.
    fn self_ms(&self, span: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| s.dur_ms)
            .sum();
        self.spans[span].dur_ms - children
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1000.0
}

fn engine_err(e: EngineError) -> String {
    e.to_string()
}

/// Which server a [`Query`] handle belongs to.
const MEASURED: usize = 0;
const SERIAL: usize = 1;

/// A standing query: its handles on the measured and the serial server,
/// and a standalone copy for the engine timings.
enum Query {
    Sssp {
        handles: [QueryHandle<Sssp>; 2],
        alone: PreparedQuery<Sssp>,
    },
    Cc {
        handles: [QueryHandle<Cc>; 2],
        alone: PreparedQuery<Cc>,
    },
}

/// One query's standalone refresh of a commit.
struct Refresh {
    update_ms: f64,
    diff_ms: Option<f64>,
    rows_changed: usize,
    report: UpdateReport,
}

fn refresh<P>(
    alone: &mut PreparedQuery<P>,
    delta: &GraphDelta,
    watched: bool,
) -> Result<Refresh, String>
where
    P: DeltaOutput,
{
    let previous = if watched {
        Some(alone.canonical_rows().map_err(engine_err)?)
    } else {
        None
    };
    let begin = Instant::now();
    let report = alone.update(delta).map_err(engine_err)?;
    let update_ms = ms(begin, Instant::now());
    let (diff_ms, rows_changed) = match previous {
        Some(previous) => {
            let begin = Instant::now();
            let changed = alone.output_delta_since(&previous).map_err(engine_err)?;
            (Some(ms(begin, Instant::now())), changed.len())
        }
        None => (None, 0),
    };
    Ok(Refresh {
        update_ms,
        diff_ms,
        rows_changed,
        report,
    })
}

impl Query {
    fn refresh(&mut self, delta: &GraphDelta, watched: bool) -> Result<Refresh, String> {
        match self {
            Query::Sssp { alone, .. } => refresh(alone, delta, watched),
            Query::Cc { alone, .. } => refresh(alone, delta, watched),
        }
    }

    fn output(&self, server: &mut GrapeServer, at: usize) -> Result<(), String> {
        match self {
            Query::Sssp { handles, .. } => server.output(&handles[at]).map(drop),
            Query::Cc { handles, .. } => server.output(&handles[at]).map(drop),
        }
        .map_err(|e| e.to_string())
    }

    fn evict(&self, server: &mut GrapeServer, at: usize) -> Result<(), String> {
        match self {
            Query::Sssp { handles, .. } => server.evict(&handles[at]).map(drop),
            Query::Cc { handles, .. } => server.evict(&handles[at]).map(drop),
        }
        .map_err(|e| e.to_string())
    }

    /// Rehydrates the query; returns the number of deltas replayed.
    fn rehydrate(&self, server: &mut GrapeServer, at: usize) -> Result<usize, String> {
        match self {
            Query::Sssp { handles, .. } => server.rehydrate(&handles[at]).map(|r| r.replayed.len()),
            Query::Cc { handles, .. } => server.rehydrate(&handles[at]).map(|r| r.replayed.len()),
        }
        .map_err(|e| e.to_string())
    }

    fn subscribe(&self, server: &mut GrapeServer, at: usize) -> Result<(), String> {
        match self {
            Query::Sssp { handles, .. } => server.subscribe(&handles[at]).map(drop),
            Query::Cc { handles, .. } => server.subscribe(&handles[at]).map(drop),
        }
        .map_err(|e| e.to_string())
    }
}

/// A session `width` engine workers and `width` refreshes wide (the daemon
/// pins both to [`FAN_OUT`]; the serial baseline uses 1).
fn session(width: usize, transport: TransportSpec) -> Result<GrapeSession, String> {
    GrapeSession::builder()
        .workers(width)
        .mode(EngineMode::Sync)
        .refresh_threads(width)
        .transport(transport)
        .build()
        .map_err(engine_err)
}

/// Per-commit samples of every replayed layer.
#[derive(Default)]
struct Samples {
    serve_commit: Vec<f64>,
    serve_self: Vec<f64>,
    serve_serial: Vec<f64>,
    serve_output: Vec<f64>,
    serve_evict: Vec<f64>,
    serve_rehydrate: Vec<f64>,
    replayed: Vec<f64>,
    csr_apply: Vec<f64>,
    partition_apply: Vec<f64>,
    partition_self: Vec<f64>,
    gp_derive: Vec<f64>,
    rebuilt: Vec<f64>,
    reused: Vec<f64>,
    frontier: Vec<f64>,
    damaged: Vec<f64>,
    engine_refresh: Vec<f64>,
    supersteps: Vec<f64>,
    messages: Vec<f64>,
    message_bytes: Vec<f64>,
    peval_calls: Vec<f64>,
    kinds: [f64; 3],
    diff: Vec<f64>,
    rows_changed: Vec<f64>,
    host_prepare: Vec<f64>,
    host_refresh: Vec<f64>,
    pipe_bytes: Vec<f64>,
}

/// Replays the first [`REPLAY_COMMITS`] open-loop commits of the plan
/// (and the reads and evictions between them) in process.
pub fn replay(
    w: &Workload,
    plan: &Plan,
    work_dir: &Path,
    metrics: &mut Metrics,
) -> Result<Vec<Span>, String> {
    let start = MetisLike::new(4)
        .partition(&plan.start_graph())
        .map_err(|e| e.to_string())?;
    let dirs: [PathBuf; 2] =
        [0, 1].map(|k| work_dir.join(format!("replay-{}-{k}", std::process::id())));
    let result = replay_in(w, plan, start, &dirs, metrics);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn replay_in(
    w: &Workload,
    plan: &Plan,
    start: Fragmentation,
    dirs: &[PathBuf; 2],
    metrics: &mut Metrics,
) -> Result<Vec<Span>, String> {
    let session_main = session(FAN_OUT, TransportSpec::Barrier)?;
    let mut server =
        GrapeServer::with_spill_dir(session_main.clone(), start.clone(), dirs[0].clone());
    let mut serial = GrapeServer::with_spill_dir(
        session(1, TransportSpec::Barrier)?,
        start.clone(),
        dirs[1].clone(),
    );
    let mut s = Samples::default();
    // The host layer: query 0 placed in `grape-worker` subprocesses, as
    // `graped --transport process` would place it, fed the same commits.
    let QuerySpec::Sssp { source } = plan.specs[0] else {
        return Err("query 0 is always an SSSP query".to_string());
    };
    let placed = session(FAN_OUT, TransportSpec::Process { workers: FAN_OUT })?;
    let begin = Instant::now();
    let mut host = placed
        .prepare(start.clone(), Sssp, SsspQuery::new(source))
        .map_err(engine_err)?;
    s.host_prepare.push(ms(begin, Instant::now()));
    let mut queries = Vec::new();
    for spec in &plan.specs {
        let query = match *spec {
            QuerySpec::Sssp { source } => {
                let alone = session_main
                    .prepare(start.clone(), Sssp, SsspQuery::new(source))
                    .map_err(engine_err)?;
                let register = |server: &mut GrapeServer| {
                    server
                        .register(Sssp, SsspQuery::new(source))
                        .map_err(|e| e.to_string())
                };
                Query::Sssp {
                    handles: [register(&mut server)?, register(&mut serial)?],
                    alone,
                }
            }
            QuerySpec::Cc => {
                let alone = session_main
                    .prepare(start.clone(), Cc, CcQuery)
                    .map_err(engine_err)?;
                let register = |server: &mut GrapeServer| {
                    server.register(Cc, CcQuery).map_err(|e| e.to_string())
                };
                Query::Cc {
                    handles: [register(&mut server)?, register(&mut serial)?],
                    alone,
                }
            }
        };
        queries.push(query);
    }
    for q in queries.iter().take(w.watched) {
        q.subscribe(&mut server, MEASURED)?;
        q.subscribe(&mut serial, SERIAL)?;
    }
    // The frontier is the SSSP family's (reachability over G_P).
    let (policy, scope) = (Sssp.damage_policy(&SsspQuery::new(0)), Sssp.scope());

    for &q in &plan.warmup {
        queries[q].evict(&mut server, MEASURED)?;
        queries[q].evict(&mut serial, SERIAL)?;
        queries[q].output(&mut server, MEASURED)?;
        queries[q].rehydrate(&mut serial, SERIAL)?;
    }
    let mut t = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut commits = 0;
    for op in plan.ops.iter().filter(|op| !op.saturation) {
        let version = server.version();
        match &op.kind {
            OpKind::Commit(delta) => {
                if commits == REPLAY_COMMITS {
                    break;
                }
                commits += 1;
                let root = t.open("commit", version + 1);
                let pre = server.fragmentation().clone();
                let (applied, apply) = t.span(Some(root), "partition.apply", version + 1, || {
                    pre.apply_delta(delta)
                });
                let applied = applied.map_err(|e| e.to_string())?;
                let (_, csr) = t.span(Some(apply), "graph.csr_apply", version + 1, || {
                    pre.source().apply_delta(delta)
                });
                let (_, gp) = t.span(Some(apply), "partition.gp_derive", version + 1, || {
                    QuotientTables::derive(&applied.fragmentation)
                });
                let changed: Vec<usize> = applied.affected.iter().map(|a| a.fragment).collect();
                let (frontier, fr) =
                    t.span(Some(root), "partition.damage_frontier", version + 1, || {
                        damage_frontier(&pre, &applied.fragmentation, &changed, policy, scope)
                    });
                s.partition_apply.push(t.dur(apply));
                s.partition_self.push(t.self_ms(apply));
                s.csr_apply.push(t.dur(csr));
                s.gp_derive.push(t.dur(gp));
                s.frontier.push(t.dur(fr));
                s.damaged.push(frontier.damaged_ids().len() as f64);

                let (placed, host_span) = t.span(Some(root), "host.refresh", version + 1, || {
                    host.update(delta)
                });
                s.host_refresh.push(t.dur(host_span));
                s.pipe_bytes
                    .push(placed.map_err(engine_err)?.metrics.pipe_bytes as f64);

                let mut engine = 0.0;
                let (mut steps, mut msgs, mut bytes, mut pevals) = (0.0, 0.0, 0.0, 0.0);
                for (qi, q) in queries.iter_mut().enumerate() {
                    // Each standalone update re-runs the same apply_delta;
                    // the engine's share is the update minus that.
                    let begin = Instant::now();
                    let r = q.refresh(delta, qi < w.watched)?;
                    let engine_ms = r.update_ms - t.dur(apply);
                    t.spans.push(Span {
                        parent: Some(root),
                        name: "engine.refresh",
                        start_ms: ms(t.origin, begin),
                        dur_ms: engine_ms,
                        version: version + 1,
                    });
                    engine += engine_ms;
                    if let Some(d) = r.diff_ms {
                        s.diff.push(d);
                        s.rows_changed.push(r.rows_changed as f64);
                    }
                    let m = &r.report.metrics;
                    steps += m.supersteps as f64;
                    msgs += m.total_messages as f64;
                    bytes += m.total_bytes as f64;
                    pevals += m.peval_calls as f64;
                    let kind = match r.report.kind {
                        RefreshKind::Monotone => 0,
                        RefreshKind::Bounded => 1,
                        RefreshKind::Full => 2,
                    };
                    s.kinds[kind] += 1.0;
                }
                s.engine_refresh.push(engine);
                s.supersteps.push(steps);
                s.messages.push(msgs);
                s.message_bytes.push(bytes);
                s.peval_calls.push(pevals);

                let (report, commit) = t.span(Some(root), "serve.commit", version + 1, || {
                    server.apply(delta)
                });
                let report = report.map_err(|e| e.to_string())?;
                server.drain_events();
                s.serve_commit.push(t.dur(commit));
                // The fan-out overlaps the refreshes `refresh_threads` wide,
                // so their wall share is the engine sum over that width.
                s.serve_self
                    .push(t.dur(commit) - t.dur(apply) - engine / FAN_OUT as f64);
                s.rebuilt.push(report.rebuilt.len() as f64);
                s.reused.push(report.reused as f64);
                let (r, serial_span) =
                    t.span(Some(root), "serve.commit_serial", version + 1, || {
                        serial.apply(delta)
                    });
                r.map_err(|e| e.to_string())?;
                serial.drain_events();
                s.serve_serial.push(t.dur(serial_span));
                t.close(root);
            }
            OpKind::Read(q) => {
                let (r, span) = t.span(None, "serve.output", version, || {
                    queries[*q].output(&mut server, MEASURED)
                });
                r?;
                s.serve_output.push(t.dur(span));
            }
            OpKind::Evict(q) => {
                let (r, span) = t.span(None, "serve.evict", version, || {
                    queries[*q].evict(&mut server, MEASURED)
                });
                r?;
                s.serve_evict.push(t.dur(span));
                queries[*q].evict(&mut serial, SERIAL)?;
            }
            OpKind::ColdRead(q) => {
                let (r, span) = t.span(None, "serve.rehydrate", version, || {
                    queries[*q].rehydrate(&mut server, MEASURED)
                });
                s.replayed.push(r? as f64);
                s.serve_rehydrate.push(t.dur(span));
                queries[*q].rehydrate(&mut serial, SERIAL)?;
                queries[*q].output(&mut server, MEASURED)?;
                server.drain_events();
                serial.drain_events();
            }
        }
    }

    // Times are medians; per-commit work counts are means, because closure
    // and reopen commits alternate and a median would pick one of the two.
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    metrics.put("serve.commit_ms", med(&s.serve_commit), "ms");
    metrics.put("serve.commit_self_ms", med(&s.serve_self), "ms");
    metrics.put("serve.commit_serial_ms", med(&s.serve_serial), "ms");
    metrics.put("serve.output_ms", med(&s.serve_output), "ms");
    metrics.put("serve.evict_ms", med(&s.serve_evict), "ms");
    metrics.put("serve.rehydrate_ms", med(&s.serve_rehydrate), "ms");
    metrics.put("serve.replayed_deltas", mean(&s.replayed), "count");
    metrics.put("graph.csr_apply_ms", med(&s.csr_apply), "ms");
    metrics.put("partition.apply_ms", med(&s.partition_apply), "ms");
    metrics.put("partition.apply_self_ms", med(&s.partition_self), "ms");
    metrics.put("partition.gp_derive_ms", med(&s.gp_derive), "ms");
    metrics.put("partition.fragments_rebuilt", mean(&s.rebuilt), "count");
    metrics.put("partition.fragments_reused", mean(&s.reused), "count");
    metrics.put("partition.damage_frontier_ms", med(&s.frontier), "ms");
    metrics.put("partition.damaged_fragments", mean(&s.damaged), "count");
    metrics.put("engine.refresh_ms", med(&s.engine_refresh), "ms");
    metrics.put("engine.supersteps", mean(&s.supersteps), "count");
    metrics.put("engine.messages", mean(&s.messages), "count");
    metrics.put("engine.message_bytes", mean(&s.message_bytes), "bytes");
    metrics.put("engine.peval_calls", mean(&s.peval_calls), "count");
    metrics.put("engine.refresh.monotone", s.kinds[0], "count");
    metrics.put("engine.refresh.bounded", s.kinds[1], "count");
    metrics.put("engine.refresh.full", s.kinds[2], "count");
    metrics.put("delta.diff_ms", med(&s.diff), "ms");
    metrics.put("delta.rows_changed", mean(&s.rows_changed), "count");
    metrics.put("host.prepare_ms", med(&s.host_prepare), "ms");
    metrics.put("host.refresh_ms", med(&s.host_refresh), "ms");
    metrics.put("host.pipe_bytes", mean(&s.pipe_bytes), "bytes");
    Ok(t.spans)
}

/// Median time of `reps` runs of `f`, in ms.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let begin = Instant::now();
            f();
            ms(begin, Instant::now())
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Part one: the daemon run's records as per-layer metrics.
pub fn daemon_layer_metrics(run: &DaemonRun, metrics: &mut Metrics) -> Result<(), String> {
    metrics.put_pct("loadgen.late_p95_ms", &run.late_ms, 0.95, "ms")?;
    metrics.put("loadgen.backlog_max", run.backlog_max as f64, "count");
    metrics.put(
        "loadgen.backlogged_share",
        crate::backlogged_share(run),
        "ratio",
    );
    metrics.put(
        "trace.commit_p50_ms",
        median(&run.commit_ms).unwrap_or(0.0),
        "ms",
    );
    // Not an end-to-end metric: on a 2-CPU VM the hypervisor's steal
    // bursts set it (see NOTES.md).
    metrics.put_pct("trace.commit_p95_ms", &run.commit_ms, 0.95, "ms")?;
    metrics.put(
        "daemon.server_commit_p50_ms",
        median(&run.server_commit_ms).ok_or("no server commit samples")?,
        "ms",
    );
    metrics.put_pct("daemon.wire_wait_p50_ms", &run.wire_wait_ms, 0.50, "ms")?;
    metrics.put_pct("daemon.wire_wait_p95_ms", &run.wire_wait_ms, 0.95, "ms")?;
    metrics.put(
        "daemon.reply_bytes_per_commit",
        run.reply_bytes_per_commit,
        "bytes",
    );
    metrics.put(
        "daemon.event_bytes_per_commit",
        run.event_bytes_per_commit,
        "bytes",
    );
    metrics.put(
        "daemon.answer_bytes",
        median(&run.answer_bytes).unwrap_or(0.0),
        "bytes",
    );
    metrics.put("daemon.cpu_ms_per_commit", run.cpu_ms_per_commit, "ms");

    let payload = run
        .answer_payload
        .as_deref()
        .ok_or("no hot read to time the codec on")?;
    let reply: Response = serde_json::from_str(payload).map_err(|e| e.to_string())?;
    let frame = ServerFrame::Reply(reply);
    let mut wire = Vec::new();
    protocol::send(&mut wire, &frame).map_err(|e| e.to_string())?;
    metrics.put(
        "daemon.answer_encode_ms",
        time_median(CODEC_REPS, || {
            let mut sink = Vec::with_capacity(wire.len());
            protocol::send(&mut sink, black_box(&frame)).expect("encoding into a Vec cannot fail");
            black_box(sink);
        }),
        "ms",
    );
    metrics.put(
        "daemon.frame_decode_ms",
        time_median(CODEC_REPS, || {
            let decoded: Option<ServerFrame> = protocol::recv(&mut black_box(wire.as_slice()))
                .expect("the frame was just encoded");
            black_box(decoded);
        }),
        "ms",
    );
    let events: Vec<f64> = run
        .events
        .iter()
        .take(200)
        .map(|e| {
            let frame = ServerFrame::Event(e.clone());
            time_median(1, || {
                let mut sink = Vec::new();
                protocol::send(&mut sink, black_box(&frame))
                    .expect("encoding into a Vec cannot fail");
                black_box(sink);
            })
        })
        .collect();
    metrics.put(
        "daemon.event_encode_ms",
        median(&events).unwrap_or(0.0),
        "ms",
    );

    metrics.put(
        "spill.bytes_written",
        median(&run.spill_bytes).unwrap_or(0.0),
        "bytes",
    );
    metrics.put("spill.chain_len", run.spill_chain_max, "count");
    metrics.put("spill.compactions", run.compactions, "count");
    Ok(())
}

/// The trace file: the daemon run's request spans and the replay's spans.
#[derive(Serialize)]
struct Trace {
    workload: &'static str,
    seed: u64,
    daemon_requests: Vec<RequestSpan>,
    replay_spans: Vec<Span>,
}

/// Writes the client request spans and the replay spans as one JSON file.
pub fn write_trace(
    work_dir: &Path,
    w: &Workload,
    seed: u64,
    daemon_requests: Vec<RequestSpan>,
    replay_spans: Vec<Span>,
) -> Result<PathBuf, String> {
    let trace = Trace {
        workload: w.name,
        seed,
        daemon_requests,
        replay_spans,
    };
    let mut out = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
    out.push('\n');
    let path = work_dir.join(format!("trace-{}-{seed}.json", w.name));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

//! `perfbench` — the serving benchmark for `graped`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! `--trace 0` drives a real daemon over loopback TCP and prints the
//! end-to-end metrics; `--trace 1` repeats the daemon traffic recording a
//! span per request and then replays the same inputs in process through
//! each layer's public calls, printing the per-layer metrics.  The last
//! line of standard output is always the one-object JSON result.

mod daemon;
mod e2e;
mod loadgen;
mod oracle;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Serialize;

use crate::stats::{median, percentile};

/// A run whose sender fell behind its schedule by more than the least room
/// a gap leaves for work (after a hot read) no longer offers the planned
/// load: it is invalid, not slow.
pub const MAX_LATE_P95_MS: f64 = 15.0;
/// Most open-loop sends that may find an earlier reply still outstanding.
/// Such a send releases or delays a reply the daemon holds back, so beyond
/// this share a p95 would rest on requests the schedule failed to isolate,
/// and a backlog that keeps growing shows up here first.
pub const MAX_BACKLOGGED_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |flag: &str| {
        map.get(flag)
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: number("--trace")? == 1,
        bin_dir: PathBuf::from(get("--bin-dir")?),
    })
}

/// One metric's value and unit.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

/// The metrics of one run, by name, with units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Metric>);

/// The result line.
#[derive(Serialize)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, Metric>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), Metric { value, unit });
    }

    /// Puts a percentile that must exist (enough samples); an absent one
    /// makes the run invalid rather than silently short a metric.
    pub fn put_pct(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = percentile(samples, p).ok_or_else(|| {
            format!(
                "{name}: {} samples are too few for this percentile",
                samples.len()
            )
        })?;
        self.put(name, value, unit);
        Ok(())
    }

    /// The metrics; a value that is not a finite number is an error,
    /// never printed.
    fn checked(self) -> Result<BTreeMap<String, Metric>, String> {
        match self.0.iter().find(|(_, m)| !m.value.is_finite()) {
            Some((name, m)) => Err(format!("{name} is {}", m.value)),
            None => Ok(self.0),
        }
    }
}

/// The share of open-loop sends that found an earlier reply outstanding.
pub fn backlogged_share(run: &e2e::DaemonRun) -> f64 {
    run.backlogged as f64 / run.late_ms.len().max(1) as f64
}

/// Refuses a run with failed operations, a late sender or a backlog.
fn check_validity(run: &e2e::DaemonRun) -> Result<(), String> {
    if run.failed > 0 {
        return Err(format!(
            "{} of {} operations failed or went missing; the run is invalid",
            run.failed, run.attempted
        ));
    }
    let late = percentile(&run.late_ms, 0.95).ok_or("too few sends to judge lateness")?;
    if late > MAX_LATE_P95_MS {
        return Err(format!(
            "sends were {late:.1} ms late at p95 (limit {MAX_LATE_P95_MS} ms); the run is invalid"
        ));
    }
    let share = backlogged_share(run);
    if share > MAX_BACKLOGGED_SHARE {
        return Err(format!(
            "{:.1}% of sends found an earlier reply outstanding (limit {:.0}%); the run is invalid",
            share * 100.0,
            MAX_BACKLOGGED_SHARE * 100.0
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let w = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let plan = workload::plan(&w, args.seed, workload::main_commits(args.seconds));
    let growth = plan.growth();
    if growth > workload::MAX_GROWTH {
        return Err(format!(
            "{:.0}% edge growth over this run would let latency drift; shorten --seconds",
            growth * 100.0
        ));
    }
    // The traced replay places one query in subprocesses; they find the
    // worker binary the same way the daemon does.
    std::env::set_var("GRAPE_WORKER_BIN", args.bin_dir.join("grape-worker"));
    let work_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    println!(
        "perfbench host: nproc={} profile={} workload={} seed={} commits={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        w.name,
        args.seed,
        plan.commits().count(),
    );

    let mut run = e2e::run(&args.bin_dir, &work_dir, &w, &plan)?;
    for m in &run.mismatches {
        eprintln!("perfbench: oracle: {m}");
    }
    let correct = run.mismatches.is_empty();
    let summary = |name: &str, v: &[f64]| {
        let p = |q: f64| percentile(v, q).unwrap_or(f64::NAN);
        format!("{name} n={} p50={:.2} p90={:.2}", v.len(), p(0.5), p(0.9))
    };
    eprintln!(
        "perfbench: {} | {} | {} | {} | {} | setup {:?} | sat {:.1}/s | late {} | backlog max {} share {:.3} | failed {}/{}",
        summary("commit", &run.commit_ms),
        summary("event", &run.event_ms),
        summary("read", &run.read_ms),
        summary("cold", &run.cold_read_ms),
        summary("evict", &run.evict_ms),
        run.setup_s,
        run.commits_per_s,
        summary("", &run.late_ms),
        run.backlog_max,
        backlogged_share(&run),
        run.failed,
        run.attempted,
    );
    check_validity(&run)?;
    let mut metrics = Metrics::default();
    if args.trace {
        replay::daemon_layer_metrics(&run, &mut metrics)?;
        let spans = replay::replay(&w, &plan, &work_dir, &mut metrics)?;
        let requests = std::mem::take(&mut run.request_spans);
        replay::write_trace(&work_dir, &w, args.seed, requests, spans)?;
    } else {
        let setup = median(&run.setup_s).ok_or("no set-up samples")?;
        metrics.put("setup_s", setup, "s");
        metrics.put_pct("commit_p50_ms", &run.commit_ms, 0.50, "ms")?;
        metrics.put("commits_per_s", run.commits_per_s, "1/s");
        metrics.put_pct("event_p50_ms", &run.event_ms, 0.50, "ms")?;
        metrics.put_pct("event_p95_ms", &run.event_ms, 0.95, "ms")?;
        metrics.put_pct("read_p50_ms", &run.read_ms, 0.50, "ms")?;
        metrics.put_pct("read_p95_ms", &run.read_ms, 0.95, "ms")?;
        metrics.put_pct("cold_read_p50_ms", &run.cold_read_ms, 0.50, "ms")?;
        metrics.put_pct("cold_read_p90_ms", &run.cold_read_ms, 0.90, "ms")?;
        metrics.put("peak_rss_mb", run.peak_rss_mb, "MB");
    }
    Ok((correct, run.attempted, run.failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|(correct, attempted, failed, metrics)| {
        let outcome = Outcome {
            correct,
            attempted,
            failed,
            metrics: metrics.checked()?,
        };
        serde_json::to_string(&outcome)
            .map(|line| (correct, line))
            .map_err(|e| e.to_string())
    });
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

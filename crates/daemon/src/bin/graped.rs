//! `graped` — the GRAPE serving daemon.
//!
//! Binds a TCP listener, owns one `GrapeServer` on a single engine
//! thread, and serves the length-delimited JSON protocol to any number of
//! concurrent clients.  `--mock` registers a synthetic workload and feeds
//! a generated insert-only delta stream, so the daemon has something to
//! serve out of the box.

use std::path::PathBuf;

use grape_core::{EngineMode, TransportSpec};
use grape_daemon::server::{DaemonConfig, GrapedHandle, GraphSource};
use grape_daemon::MockConfig;

const USAGE: &str = "graped — GRAPE serving daemon

USAGE: graped [OPTIONS]

OPTIONS:
  --addr HOST:PORT        bind address (default 127.0.0.1:4817; port 0 = ephemeral)
  --workers N             engine workers per refresh (default 2)
  --refresh-threads N     concurrent query refreshes per delta (default 2)
  --fragments N           partition fragment count (default 4)
  --mode sync|async       engine mode (default: GRAPE_ENGINE_MODE or sync)
  --transport NAME        barrier | channel | process (default: the mode's
                          in-process substrate; process shards fragments
                          across --workers grape-worker subprocesses)
  --graph SPEC            start graph: grid:WxH[@seed] | path:N (default grid:24x24@7)
  --spill-dir PATH        directory for eviction spill files (default: temp dir)
  --mock                  register a synthetic workload + feed generated deltas
  --mock-queries N        standing SSSP queries in the mock workload (default 3)
  --mock-deltas N         stop the mock stream after N deltas (default: unbounded)
  --mock-interval-ms N    pause between mock deltas (default 200)
  -h, --help              this help";

fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    let mut mock = MockConfig::default();
    let mut want_mock = false;
    let mut transport: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |args: &[String], i: usize, flag: &str| -> Result<u64, String> {
        let raw = value(args, i, flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} needs a number, got {raw:?}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                config.addr = value(args, i, "--addr")?;
                i += 2;
            }
            "--workers" => {
                config.workers = number(args, i, "--workers")?.max(1) as usize;
                i += 2;
            }
            "--refresh-threads" => {
                config.refresh_threads = number(args, i, "--refresh-threads")?.max(1) as usize;
                i += 2;
            }
            "--fragments" => {
                config.fragments = number(args, i, "--fragments")?.max(1) as usize;
                i += 2;
            }
            "--mode" => {
                config.mode = match value(args, i, "--mode")?.as_str() {
                    "sync" => EngineMode::Sync,
                    "async" => EngineMode::Async,
                    other => return Err(format!("unknown mode {other:?} (expected sync|async)")),
                };
                i += 2;
            }
            "--transport" => {
                transport = Some(value(args, i, "--transport")?);
                i += 2;
            }
            "--graph" => {
                config.graph = GraphSource::parse(&value(args, i, "--graph")?)?;
                i += 2;
            }
            "--spill-dir" => {
                config.spill_dir = Some(PathBuf::from(value(args, i, "--spill-dir")?));
                i += 2;
            }
            "--mock" => {
                want_mock = true;
                i += 1;
            }
            "--mock-queries" => {
                mock.queries = number(args, i, "--mock-queries")?.max(1) as usize;
                want_mock = true;
                i += 2;
            }
            "--mock-deltas" => {
                mock.deltas = number(args, i, "--mock-deltas")? as usize;
                want_mock = true;
                i += 2;
            }
            "--mock-interval-ms" => {
                mock.interval_ms = number(args, i, "--mock-interval-ms")?;
                want_mock = true;
                i += 2;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    if want_mock {
        config.mock = Some(mock);
    }
    // Resolved after the loop so `--transport process` sizes its worker
    // pool from the final --workers value regardless of flag order.
    config.transport = match transport.as_deref() {
        None => None,
        Some("barrier") => Some(TransportSpec::Barrier),
        Some("channel") => Some(TransportSpec::Channel),
        Some("process") => Some(TransportSpec::Process {
            workers: config.workers,
        }),
        Some(other) => {
            return Err(format!(
                "unknown transport {other:?} (expected barrier|channel|process)"
            ))
        }
    };
    Ok(config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let mock = config.mock.is_some();
    let handle = match GrapedHandle::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("graped failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "graped listening on {}{}",
        handle.addr(),
        if mock { " (mock workload running)" } else { "" }
    );
    handle.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::EngineError;
    use grape_daemon::server::DaemonError;

    fn parse(args: &[&str]) -> Result<DaemonConfig, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn transport_flag_resolves_against_the_final_worker_count() {
        let config = parse(&[]).unwrap();
        assert_eq!(config.transport, None, "default: the mode's own substrate");
        let config = parse(&["--transport", "barrier"]).unwrap();
        assert_eq!(config.transport, Some(TransportSpec::Barrier));
        let config = parse(&["--transport", "channel"]).unwrap();
        assert_eq!(config.transport, Some(TransportSpec::Channel));
        // Flag order must not matter: the process pool is sized from the
        // final --workers value even when --transport comes first.
        let config = parse(&["--transport", "process", "--workers", "3"]).unwrap();
        assert_eq!(
            config.transport,
            Some(TransportSpec::Process { workers: 3 })
        );
        let err = parse(&["--transport", "carrier-pigeon"]).unwrap_err();
        assert!(err.contains("unknown transport"), "got: {err}");
    }

    /// A mode paired with the other mode's in-process transport is an
    /// invalid engine configuration, reported as such — not as a
    /// partitioning failure.
    #[test]
    fn mismatched_mode_and_transport_is_a_session_error() {
        for args in [
            ["--mode", "async", "--transport", "barrier"],
            ["--mode", "sync", "--transport", "channel"],
        ] {
            let err = match GrapedHandle::spawn(parse(&args).unwrap()) {
                Ok(_) => panic!("{args:?}: daemon started"),
                Err(e) => e,
            };
            assert!(
                matches!(err, DaemonError::Session(EngineError::InvalidConfig(_))),
                "{args:?}: {err}"
            );
            let shown = err.to_string();
            assert!(shown.contains("engine session"), "{args:?}: {shown}");
            assert!(!shown.contains("partition"), "{args:?}: {shown}");
        }
    }
}

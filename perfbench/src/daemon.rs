//! Spawning, observing and reaping one `graped` process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Plan, GRID};

/// A running daemon plus what is needed to observe and reap it.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub spill_dir: PathBuf,
}

impl Daemon {
    /// Starts `graped` with every flag pinned, so neither the environment
    /// (`GRAPE_ENGINE_MODE`) nor daemon defaults can change what runs.
    pub fn spawn(bin_dir: &Path, plan: &Plan, spill_dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&spill_dir).map_err(|e| format!("spill dir: {e}"))?;
        let graph = format!("grid:{g}x{g}@{}", plan.graph_seed, g = GRID);
        let mut child = Command::new(bin_dir.join("graped"))
            .args(["--mode", "sync", "--workers", "2", "--refresh-threads", "2"])
            .args(["--fragments", "4", "--transport", "barrier"])
            .args(["--graph", &graph, "--addr", "127.0.0.1:0", "--spill-dir"])
            .arg(&spill_dir)
            .env_remove("GRAPE_ENGINE_MODE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start graped: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("graped listening on ")
                .map(str::to_string),
            _ => None,
        };
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            spill_dir,
        };
        match addr {
            Some(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            None => {
                daemon.reap(false);
                Err(format!("graped did not report its address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `VmHWM` of the daemon in MB (peak resident set).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// User + system CPU time the daemon has used so far, in ms.
    pub fn cpu_ms(&self) -> Option<f64> {
        // utime and stime are fields 14 and 15 of the whole line.
        let fields = stat_fields(self.pid())?;
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) * 1000.0 / CLOCK_TICKS_PER_S)
    }

    /// Stops the daemon, waits for it and removes the spill directory.
    /// `graceful` gives a daemon that was sent `shutdown` a few seconds to
    /// exit on its own before it is killed.  Safe to call more than once.
    /// (The daemon runs `--transport barrier` and starts no children; the
    /// runner stops the whole process group as well.)
    pub fn reap(&mut self, graceful: bool) {
        let deadline = Instant::now() + Duration::from_secs(if graceful { 5 } else { 0 });
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap(false);
    }
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux target.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the parenthesised command name.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

//! The served program as a child process: launch, address discovery, resource
//! readings from `/proc`, and `/metrics` scrapes.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client;
use crate::host::CpuSet;

/// How long a launched server may take to print its listening address.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the server's stderr so it can never block on a full pipe; yields
    /// what it read once the process has exited.
    stderr: Option<JoinHandle<String>>,
}

impl ServerProc {
    /// Starts `binary` on an ephemeral loopback port with `args`, on the
    /// CPUs in `cpus`, and waits for its listening line.
    pub fn launch(binary: &Path, args: &[String], cpus: CpuSet) -> Result<Self, String> {
        let mut command = Command::new(binary);
        // SAFETY: the hook makes two system calls and touches no shared state.
        unsafe {
            command.pre_exec(move || {
                cpus.pin()?;
                die_with_parent()
            });
        }
        let mut child = command
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || drain(stderr, &tx));
        let mut proc = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        match rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!(
                "server printed no listening address: {}",
                proc.stop().trim()
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User+system CPU time of every server thread so far, in nanoseconds
    /// (`/proc/<pid>/task/*/schedstat`; all server threads live as long as
    /// the process).
    pub fn cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return 0;
        };
        tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
            .filter_map(|text| text.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Kills the server, waits for it, and returns its stderr.
    pub fn stop(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .map(|reader| reader.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

/// Has the kernel kill the calling process when the thread that started it
/// ends, so a benchmark killed from outside leaves no server behind. Every
/// server is launched from the benchmark's main thread. Only a system call:
/// safe between `fork` and `exec`.
fn die_with_parent() -> std::io::Result<()> {
    const PR_SET_PDEATHSIG: std::os::raw::c_int = 1;
    const SIGKILL: std::os::raw::c_ulong = 9;
    extern "C" {
        fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
    }
    // SAFETY: PR_SET_PDEATHSIG takes one signal number and changes only the
    // calling process's parent-death signal; no memory is passed.
    match unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

fn drain(stderr: ChildStderr, addr_tx: &mpsc::Sender<SocketAddr>) -> String {
    let mut text = String::new();
    let mut lines = BufReader::new(stderr);
    let mut line = String::new();
    while matches!(lines.read_line(&mut line), Ok(n) if n > 0) {
        if let Some(rest) = line.split("listening on http://").nth(1) {
            if !line.contains("REFUSING") {
                if let Some(addr) = rest.split_whitespace().next().and_then(|a| a.parse().ok()) {
                    let _ = addr_tx.send(addr);
                }
            }
        }
        text.push_str(&line);
        line.clear();
    }
    text
}

/// One `/metrics` exposition: series (`name{labels}`) to value.
#[derive(Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let text = client::get_once(addr, "/metrics")?;
        Ok(Self(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (series, value) = line.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every labelled series of `family` (exact name match before
    /// the label set).
    pub fn sum(&self, family: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(family))
            .map(|(_, value)| value)
            .sum()
    }

    /// `(le_seconds, cumulative_count)` buckets of histogram `family`.
    fn buckets(&self, family: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{family}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(series, &count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        buckets
    }
}

/// Counter/histogram movement between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn get(&self, series: &str) -> f64 {
        self.after.get(series) - self.before.get(series)
    }

    pub fn sum(&self, family: &str) -> f64 {
        self.after.sum(family) - self.before.sum(family)
    }

    /// Mean of histogram `family` over the interval, in milliseconds.
    pub fn mean_ms(&self, family: &str) -> f64 {
        let count = self.get(&format!("{family}_count"));
        if count == 0.0 {
            return 0.0;
        }
        1e3 * self.get(&format!("{family}_sum")) / count
    }

    /// The `q`-quantile of histogram `family` over the interval, in
    /// milliseconds, interpolated linearly inside the exposition bucket
    /// that holds it (the buckets are coarse: 1-2-5 steps per decade at best).
    pub fn quantile_ms(&self, family: &str, q: f64) -> f64 {
        let before = self.before.buckets(family);
        let after = self.after.buckets(family);
        let Some(&(_, total)) = after.last() else {
            return 0.0;
        };
        let total = total - before.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let target = q * total;
        let (mut lower_le, mut lower_count) = (0.0, 0.0);
        for (index, &(le, count)) in after.iter().enumerate() {
            let count = count - before.get(index).map_or(0.0, |b| b.1);
            if count >= target {
                if le.is_infinite() {
                    return 1e3 * lower_le;
                }
                let share = (target - lower_count) / (count - lower_count).max(1.0);
                return 1e3 * (lower_le + share * (le - lower_le));
            }
            (lower_le, lower_count) = (le, count);
        }
        1e3 * lower_le
    }
}

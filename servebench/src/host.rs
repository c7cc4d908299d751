//! The host: the fingerprint printed with every report (a number counts only
//! with the machine and the code it was measured on), the CPUs the client and
//! the server run on, and the spinners that keep those CPUs awake.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::{median, Digest};

pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub sha_ni: bool,
    pub avx2: bool,
    pub rustc: String,
    pub kernel: String,
    /// `git rev-parse HEAD`, or `none` outside a git repository.
    pub git_commit: String,
    /// Digest of every manifest and source file under `crates/`, which
    /// identifies the measured code where no git metadata exists.
    pub source_digest: String,
    /// Nanoseconds per step of a fixed integer loop that is not the
    /// repository's code: the host's speed when the run began, for reading
    /// figures that drift with neighbour load on a shared machine.
    pub ref_ns_per_step: f64,
}

/// The CPUs the benchmark may use, read once before any pinning narrows it.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A CPU affinity mask in the kernel's `cpu_set_t` layout (1024 CPUs).
#[derive(Clone, Copy)]
#[repr(C)]
pub struct CpuSet([u64; 16]);

#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// Linux's scheduling policy for work that runs only when a CPU has nothing
/// else to run.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

impl CpuSet {
    fn of(cpus: &[usize]) -> Self {
        let mut set = Self([0; 16]);
        for &cpu in cpus {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        set
    }

    /// Restricts the calling thread, and every thread and process it starts
    /// later, to these CPUs. Only a system call: safe between `fork` and
    /// `exec`.
    pub fn pin(&self) -> std::io::Result<()> {
        // SAFETY: the mask is a plain bit array of exactly the size passed.
        match unsafe { sched_setaffinity(0, std::mem::size_of::<Self>(), self) } {
            0 => Ok(()),
            _ => Err(std::io::Error::last_os_error()),
        }
    }
}

/// Where the client and the server run. With two or more CPUs the client
/// (this process) takes the first allowed CPU and the server the rest, so
/// every request crosses CPUs the same way on every run; left to itself, the
/// scheduler sometimes packs client and server onto one CPU for a whole run,
/// which halves the open loop's latency and CPU per request. With one CPU
/// both share it.
pub struct Placement {
    /// Every CPU the benchmark may use.
    pub cpus: Vec<usize>,
    pub all: CpuSet,
    pub client: CpuSet,
    pub server: CpuSet,
    pub text: String,
}

pub fn placement() -> Placement {
    let mut mask = CpuSet([0; 16]);
    // SAFETY: the kernel writes at most `size` bytes into the mask.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
    let allowed: Vec<usize> = (0..1024)
        .filter(|&cpu| ok && mask.0[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    match allowed.as_slice() {
        [client, server @ ..] if !server.is_empty() => Placement {
            cpus: allowed.clone(),
            all: mask,
            client: CpuSet::of(&[*client]),
            server: CpuSet::of(server),
            text: format!("client on CPU {client}, server on CPUs {server:?}"),
        },
        _ => Placement {
            cpus: allowed.clone(),
            all: mask,
            client: mask,
            server: mask,
            text: format!("client and server share CPUs {allowed:?}"),
        },
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            source_files(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    source_files(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Digest::default();
    for path in &files {
        digest.update(path.to_string_lossy().as_bytes());
        digest.update(&std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", digest.value())
}

/// Median over five rounds of the time per step of a dependent chain of
/// 64-bit multiply-xorshift steps.
fn reference_ns_per_step() -> f64 {
    const STEPS: u32 = 1 << 20;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..STEPS {
                x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .collect();
    median(&rounds)
}

pub fn fingerprint() -> Fingerprint {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(name))
            .and_then(|line| line.split_once(':'))
            .map(|(_, value)| value.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    Fingerprint {
        cpu_model: field("model name"),
        nproc: nproc(),
        sha_ni: has("sha_ni"),
        avx2: has("avx2"),
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |k| k.trim().to_string()),
        git_commit: Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "none".into()),
        source_digest: source_digest(Path::new(".")),
        ref_ns_per_step: reference_ns_per_step(),
    }
}

impl Fingerprint {
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("host.cpu_model: {}", self.cpu_model),
            format!("host.nproc: {}", self.nproc),
            format!("host.sha_ni: {}", self.sha_ni),
            format!("host.avx2: {}", self.avx2),
            format!("host.rustc: {}", self.rustc),
            format!("host.kernel: {}", self.kernel),
            format!("host.git_commit: {}", self.git_commit),
            format!("host.source_digest: {}", self.source_digest),
            format!("host.ref_ns_per_step: {:.4}", self.ref_ns_per_step),
        ]
    }
}

/// Keeps the benchmark's CPUs from halting while it lives: one busy thread
/// per CPU at `SCHED_IDLE`, which runs only when the CPU has nothing else to
/// run and gives way at once when it has. On a virtual machine a halted CPU
/// takes a round trip through the hypervisor to wake, whose time depends on
/// the load of other guests on the machine; at the open loop's reference rate
/// the CPUs would halt between requests and that wake-up would decide the
/// latency figures.
pub struct Awake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Awake {
    pub fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let _ = CpuSet::of(&[cpu]).pin();
                    // SAFETY: the parameter block is a valid `sched_param`;
                    // the call changes only this thread's policy.
                    let idle =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
                    // At normal priority the loop would take CPU from the
                    // work it waits beside, so it runs only at idle priority.
                    while idle == 0 && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

//! The load generators: a closed loop on one keep-alive connection, and an
//! open loop on a seeded arrival schedule over a few connections.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::{check, Conn, Expect};
use crate::stats::Digest;

/// The outcome of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Per-request latency in ms; a failed request counts as infinite, so it
    /// misses every latency limit.
    pub latency_ms: Vec<f64>,
    /// Open loop only: how late each request was sent against its schedule.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Verified body bytes.
    pub bytes: u64,
    pub elapsed_s: f64,
    /// Digest of each verified body, in completion order (closed loop only).
    pub digests: Vec<u64>,
    /// Connections opened, reconnects after the server's keep-alive cap
    /// included.
    pub connects: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
}

impl Phase {
    fn record(&mut self, latency_ms: f64, outcome: Result<usize, String>) {
        self.attempted += 1;
        match outcome {
            Ok(bytes) => {
                self.bytes += bytes as u64;
                self.latency_ms.push(latency_ms);
            }
            Err(reason) => {
                self.failed += 1;
                self.latency_ms.push(f64::INFINITY);
                if self.failures.len() < 5 {
                    self.failures.push(reason);
                }
            }
        }
    }

    fn merge(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.connects += other.connects;
        for reason in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(reason);
            }
        }
    }
}

/// Back-to-back requests on `conn` for `duration` or `limit` requests,
/// whichever ends first, each timed from send to last body byte and checked
/// against `expect`.
pub fn closed_loop(conn: &mut Conn, expect: &Expect, duration: Duration, limit: usize) -> Phase {
    let mut phase = Phase::default();
    let connects = conn.connects;
    let mut body = Vec::with_capacity(expect.bytes);
    let start = Instant::now();
    while start.elapsed() < duration && (phase.attempted as usize) < limit {
        let sent = Instant::now();
        let result = conn.fetch(&mut body);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let outcome = result
            .and_then(|head| check(&head, &body, expect))
            .map(|()| {
                let mut digest = Digest::default();
                digest.update(&body);
                phase.digests.push(digest.value());
                body.len()
            });
        phase.record(latency_ms, outcome);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.connects = conn.connects - connects;
    phase
}

/// Back-to-back requests on `threads` keep-alive connections at once for
/// `duration`: the most the open loop's connections can carry, which places
/// the open loop's rate ladder.
pub fn capacity(
    addr: SocketAddr,
    target: &str,
    expect: &Expect,
    threads: usize,
    duration: Duration,
) -> Phase {
    let start = Instant::now();
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::new(addr, target);
                    closed_loop(&mut conn, expect, duration, usize::MAX)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut total = Phase::default();
    for phase in phases {
        total.merge(phase);
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// A splitmix64 stream: the seeded source of arrival times.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrival offsets at `rate` per second over `duration`.
pub fn schedule(rate: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix(seed);
    let mut t = 0.0;
    let mut arrivals = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= duration.as_secs_f64() {
            return arrivals;
        }
        arrivals.push(Duration::from_secs_f64(t));
    }
}

/// Sends `arrivals` (offsets from a common start) round-robin over `threads`
/// keep-alive connections. Each request is timed from its scheduled arrival,
/// so a stall also charges the requests queued behind it. Bodies must be
/// distinct: a repeated 32-byte output fails the phase.
pub fn open_loop(
    addr: SocketAddr,
    target: &str,
    expect: &Expect,
    arrivals: &[Duration],
    threads: usize,
) -> Phase {
    let mut conns: Vec<Conn> = (0..threads).map(|_| Conn::new(addr, target)).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let phases: Vec<(Phase, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| {
                scope.spawn(move || {
                    tight_timer_slack();
                    let mut phase = Phase::default();
                    let mut prefixes = Vec::new();
                    let mut body = Vec::with_capacity(expect.bytes);
                    for &offset in arrivals.iter().skip(index).step_by(threads) {
                        let due = start + offset;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        phase.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        let result = conn.fetch(&mut body);
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        let outcome =
                            result
                                .and_then(|head| check(&head, &body, expect))
                                .map(|()| {
                                    let word = body.get(..8).map_or(0, |w| {
                                        u64::from_le_bytes(w.try_into().expect("8 bytes"))
                                    });
                                    prefixes.push(word);
                                    body.len()
                                });
                        phase.record(latency_ms, outcome);
                    }
                    phase.connects = conn.connects;
                    (phase, prefixes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut total = Phase::default();
    let mut seen = HashSet::new();
    let mut repeats = 0;
    for (phase, prefixes) in phases {
        total.merge(phase);
        repeats += prefixes.into_iter().filter(|w| !seen.insert(*w)).count() as u64;
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    if repeats > 0 {
        total.failed += repeats;
        total
            .failures
            .push(format!("{repeats} repeated body prefixes"));
    }
    total
}

/// Asks the kernel to wake this thread's sleeps on time instead of up to its
/// default 50 µs timer slack late: the open loop sleeps until each arrival,
/// and the slack would read as latency of every request.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
        extern "C" {
            fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
        }
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (nanoseconds) and
        // only changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_hit_the_rate() {
        let a = schedule(1000.0, Duration::from_secs(10), 3);
        assert_eq!(a, schedule(1000.0, Duration::from_secs(10), 3));
        assert_ne!(a, schedule(1000.0, Duration::from_secs(10), 4));
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
    }
}

//! `servebench`: runs the release `ptrng-serve` as its own process on
//! loopback and drives one workload against it.
//!
//! ```text
//! servebench --server <ptrng-serve> --workload random-bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced. `--trace 1`
//! runs a shorter live phase for the `/metrics` counts and the client-side
//! time per request, then replays the same request sequence in-process with
//! one span per layer call, and times single layers through their public
//! functions. Either way the human-readable report goes first and the last
//! line of standard output is one JSON object. The exit code is 0 only when
//! every output check passed.

mod client;
mod host;
mod load;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{check, Conn};
use load::Phase;
use server::{Delta, Scrape, ServerProc};
use stats::{beyond, median, quantile, Digest};
use workload::{Load, Replica, Tier, Workload};

/// Fresh servers per end-to-end run, each measured for an equal share of it.
const SUBRUNS: usize = 10;

/// Launches beyond the subruns' own that only time set-up, each with no other
/// server running, so `setup_s`, a few milliseconds, is a median over enough
/// samples to settle.
const EXTRA_SETUPS: usize = 40;

/// Closed-loop requests before each measured phase. A count, not a time:
/// the audit's full batteries fall at fixed stream positions (window 0, then
/// every 64 windows), so a fixed start keeps their number in a phase fixed.
const WARMUP_REQUESTS: usize = 32;

/// Open-loop warm-up before each measured phase.
const WARMUP: Duration = Duration::from_millis(300);

/// Share of an open-loop run spent on the rate ladder above the reference.
const LADDER_SHARE: f64 = 0.5;

/// How long all connections run closed-loop to find the capacity that places
/// the top of the rate ladder.
const CAPACITY_PROBE: Duration = Duration::from_millis(300);

/// Rungs above the measured capacity at which the ladder search starts, so
/// that the first rung is expected to fail.
const RUNGS_PAST_CAPACITY: u32 = 3;

/// Rungs the ladder search is sized for, and the most it tries.
const EXPECTED_RUNGS: usize = 6;
const MAX_RUNGS: usize = 16;

/// Trials per ladder rung.
const RUNG_TRIALS: usize = 3;

/// Share of its scheduled arrivals a trial must complete per second of
/// schedule; below it the backlog grew during the trial.
const KEPT_UP: f64 = 0.9;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    placement: host::Placement,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut server, mut workload, mut seed, mut seconds, mut trace) = (None, None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let server = server.ok_or("--server is required")?;
    if !server.is_file() {
        return Err(format!("no server binary at {}", server.display()));
    }
    Ok(Args {
        server,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        placement: host::placement(),
    })
}

/// What a run found: report lines, metrics, counts and failed checks.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A launched server and its first verified response.
struct Started {
    server: ServerProc,
    conn: Conn,
    setup_s: f64,
    first_digest: u64,
}

fn start(args: &Args) -> Result<Started, String> {
    let workload = &args.workload;
    let launched = Instant::now();
    let server = ServerProc::launch(
        &args.server,
        &workload.server_args(args.seed, host::nproc()),
        args.placement.server,
    )?;
    let mut conn = Conn::new(server.addr, &workload.target());
    let mut body = Vec::new();
    let head = conn.fetch(&mut body)?;
    check(&head, &body, &workload.expect()).map_err(|e| format!("first response: {e}"))?;
    let setup_s = launched.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    digest.update(&body);
    Ok(Started {
        server,
        conn,
        setup_s,
        first_digest: digest.value(),
    })
}

/// Ledger checks after a `/random` phase: every reseed debited exactly the
/// policy's seed bits, and the DRBG produced exactly the verified bytes.
fn check_ledger(
    args: &Args,
    delta: &Delta,
    verified_bytes: u64,
    report: &mut Report,
) -> Result<(), String> {
    let (_, policy) = args.workload.engine_config(args.seed)?;
    let policy = policy.ok_or("random tier without a DRBG policy")?;
    let reseeds = delta.get("ptrng_drbg_reseeds_total");
    let debited = delta.get("ptrng_drbg_seed_bits_debited_total");
    let drbg_bytes = delta.get("ptrng_drbg_bytes_total");
    report.line(format!(
        "ledger: reseeds {reseeds}, seed bits debited {debited} (policy {} per seed), drbg bytes {drbg_bytes}, verified bytes {verified_bytes}",
        policy.seed_bits_accounted
    ));
    if debited != reseeds * policy.seed_bits_accounted as f64 {
        report.problem(format!(
            "ledger: {debited} seed bits debited for {reseeds} reseeds"
        ));
    }
    if drbg_bytes != verified_bytes as f64 {
        report.problem(format!(
            "ledger: drbg produced {drbg_bytes} bytes, {verified_bytes} verified"
        ));
    }
    Ok(())
}

/// Per-layer counts from `/metrics` over a phase, as report lines and as
/// `count.*` metrics.
fn counts(delta: &Delta, report: &mut Report, metrics: bool) {
    let ok = delta.get("ptrng_http_responses_total{status=\"200\"}");
    let all = delta.sum("ptrng_http_responses_total");
    let items = [
        ("count.batches", delta.get("ptrng_batches_total")),
        ("count.tap_waits", delta.get("ptrng_tap_wait_seconds_count")),
        (
            "count.drbg_generates",
            delta.get("ptrng_drbg_generates_total"),
        ),
        ("expanded.reseeds", delta.get("ptrng_drbg_reseeds_total")),
        ("count.responses_200", ok),
        ("count.responses_other", all - ok),
        ("audit.windows", delta.sum("ptrng_audit_windows_total")),
    ];
    for (name, value) in items {
        report.line(format!("{name}: {value}"));
        if metrics {
            report.metric(name, value, "count");
        }
    }
}

fn latency_lines(report: &mut Report, label: &str, phase: &Phase) {
    let n = phase.latency_ms.len();
    let tail = beyond(&phase.latency_ms, 0.99);
    report.line(format!(
        "{label}: {n} requests, {} failed, p50 {:.4} ms, p99 {:.4} ms ({tail} samples beyond p99{})",
        phase.failed,
        quantile(&phase.latency_ms, 0.5),
        quantile(&phase.latency_ms, 0.99),
        if tail < 10 { "; p99 unresolved" } else { "" }
    ));
    for reason in &phase.failures {
        report.line(format!("{label}: failure: {reason}"));
    }
}

/// One fresh server through a measured phase: launch, first verified
/// response, warm-up, `/metrics` and CPU readings around the phase, ledger
/// check. The server is returned still running when `keep` is set.
struct SubRun {
    setup_s: f64,
    phase: Phase,
    /// Server CPU time over the measured phase.
    cpu_ns: u64,
    peak_rss_mb: f64,
    /// Digest of every body on the closed loop's connection, first response
    /// and warm-up included, when no request of the subrun failed; a failed
    /// request leaves the served stream out of step with the replay.
    stream: Option<Vec<u64>>,
    server: Option<ServerProc>,
}

fn subrun(
    args: &Args,
    duration: Duration,
    index: u64,
    keep: bool,
    report: &mut Report,
) -> Result<SubRun, String> {
    let workload = &args.workload;
    let expect = workload.expect();
    let Started {
        mut server,
        mut conn,
        setup_s,
        first_digest,
    } = start(args)?;
    let mut stream = vec![first_digest];
    let threads = host::nproc();
    let open = |server: &ServerProc, rate: f64, duration: Duration, salt: u64| {
        let arrivals = load::schedule(
            rate,
            duration,
            args.seed.wrapping_mul(1000).wrapping_add(salt),
        );
        load::open_loop(server.addr, &workload.target(), &expect, &arrivals, threads)
    };
    let warm = match &workload.load {
        Load::Closed => load::closed_loop(&mut conn, &expect, Duration::MAX, WARMUP_REQUESTS),
        Load::Open { reference_rps, .. } => open(&server, *reference_rps, WARMUP, 2 * index),
    };
    stream.extend(&warm.digests);
    report.attempted += warm.attempted + 1;
    report.failed += warm.failed;
    let before = Scrape::fetch(server.addr)?;
    let cpu_before = server.cpu_ns();
    let phase = match &workload.load {
        Load::Closed => load::closed_loop(&mut conn, &expect, duration, usize::MAX),
        Load::Open { reference_rps, .. } => open(&server, *reference_rps, duration, 2 * index + 1),
    };
    let cpu_ns = server.cpu_ns() - cpu_before;
    let after = Scrape::fetch(server.addr)?;
    let peak_rss_mb = server.peak_rss_mb();
    drop(conn);
    let server = if keep {
        Some(server)
    } else {
        server.stop();
        None
    };
    stream.extend(&phase.digests);
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    let delta = Delta {
        before: &before,
        after: &after,
    };
    let completed = phase.attempted - phase.failed;
    let cpu_per_op_us = cpu_ns as f64 / 1e3 / completed.max(1) as f64;
    report.line(format!(
        "subrun {index}: setup {setup_s:.6} s, {completed} requests in {:.3} s, {:.4} MB/s, p50 {:.4} ms, {cpu_per_op_us:.2} us server CPU per request, {} connections",
        phase.elapsed_s,
        phase.bytes as f64 / phase.elapsed_s / 1e6,
        quantile(&phase.latency_ms, 0.5),
        phase.connects
    ));
    for reason in &phase.failures {
        report.line(format!("subrun {index}: failure: {reason}"));
    }
    if index == 0 {
        counts(&delta, report, false);
    }
    if workload.tier == Tier::Random {
        check_ledger(args, &delta, phase.bytes, report)?;
    }
    let clean = warm.failed == 0 && phase.failed == 0;
    Ok(SubRun {
        setup_s,
        cpu_ns,
        peak_rss_mb,
        stream: (matches!(workload.load, Load::Closed) && clean).then_some(stream),
        phase,
        server,
    })
}

/// Regenerates the single-connection stream in-process, as long as the
/// longest clean subrun's, and compares each served body's digest with the
/// replayed one at the same position; a differing body counts as a failed
/// request. Every subrun's server starts from the same seed, so every served
/// stream is a prefix of the one replay.
fn check_streams(args: &Args, runs: &[SubRun], report: &mut Report) -> Result<(), String> {
    let streams: Vec<&[u64]> = runs.iter().filter_map(|r| r.stream.as_deref()).collect();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    if longest == 0 {
        return Ok(());
    }
    let replica = Replica::spawn(&args.workload, args.seed)?;
    let mut body = Vec::new();
    let mut replayed = Vec::with_capacity(longest);
    for _ in 0..longest {
        replica.body(&args.workload, &mut body)?;
        let mut digest = Digest::default();
        digest.update(&body);
        replayed.push(digest.value());
    }
    let mismatches: u64 = streams
        .iter()
        .map(|stream| stream.iter().zip(&replayed).filter(|(a, b)| a != b).count() as u64)
        .sum();
    report.line(format!(
        "stream check: {} subruns, {} bodies compared with the in-process replay, {mismatches} differ",
        streams.len(),
        streams.iter().map(|s| s.len()).sum::<usize>()
    ));
    if mismatches > 0 {
        report.failed += mismatches;
        report.problem(format!("{mismatches} served bodies differ from the replay"));
    }
    Ok(())
}

/// Runs `RUNG_TRIALS` open-loop trials at `rate` and returns the median
/// achieved rate of those that held, when most did (so one burst of host
/// noise does not decide a rung). A trial holds when no request failed, p99
/// stayed within `limit_ms`, and the backlog did not grow.
fn rung_holds(
    args: &Args,
    server: &ServerProc,
    rate: f64,
    trial: Duration,
    limit_ms: f64,
    report: &mut Report,
) -> Option<f64> {
    let workload = &args.workload;
    let mut held = Vec::new();
    for attempt in 0..RUNG_TRIALS {
        // Each rung and trial draws its own schedule from the seed.
        let salt = 500 + 8 * rate as u64 + attempt as u64;
        let arrivals = load::schedule(rate, trial, args.seed.wrapping_mul(1000).wrapping_add(salt));
        let phase = load::open_loop(
            server.addr,
            &workload.target(),
            &workload.expect(),
            &arrivals,
            host::nproc(),
        );
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        let scheduled = arrivals.len() as f64 / trial.as_secs_f64();
        let achieved = (phase.attempted - phase.failed) as f64 / phase.elapsed_s;
        let p99 = quantile(&phase.latency_ms, 0.99);
        let pass = phase.failed == 0 && p99 <= limit_ms && achieved >= KEPT_UP * scheduled;
        report.line(format!(
            "rung {rate:.1} req/s trial {attempt}: scheduled {scheduled:.1} req/s, achieved {achieved:.1} req/s, p99 {p99:.4} ms ({} beyond), lag p50 {:.4} ms, lag p99 {:.4} ms, {}",
            beyond(&phase.latency_ms, 0.99),
            quantile(&phase.lag_ms, 0.5),
            quantile(&phase.lag_ms, 0.99),
            if pass { "held" } else { "not held" }
        ));
        if pass {
            held.push(achieved);
        }
    }
    (2 * held.len() > RUNG_TRIALS).then(|| median(&held))
}

/// `max_rate_rps` on the open loop: the achieved rate at the highest rung of
/// the rate ladder that holds. Rung `k` offers the reference rate times
/// `rung_step^k`. The search starts `RUNGS_PAST_CAPACITY` rungs above the
/// capacity all connections reach closed-loop, where a rung is expected to
/// fail, and walks down one rung at a time to the first that holds, so a
/// rung that fails on a burst of host noise costs one step. Every rung tried
/// is in the report.
fn max_rate(
    args: &Args,
    server: &ServerProc,
    budget: Duration,
    reference_achieved: f64,
    report: &mut Report,
) -> f64 {
    let Load::Open {
        reference_rps,
        rung_step,
        limit_ms,
    } = args.workload.load
    else {
        unreachable!("only the open loop climbs a ladder");
    };
    let threads = host::nproc();
    let workload = &args.workload;
    let probe = load::capacity(
        server.addr,
        &workload.target(),
        &workload.expect(),
        threads,
        CAPACITY_PROBE,
    );
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    let capacity = (probe.attempted - probe.failed) as f64 / probe.elapsed_s;
    let rung = |k: u32| reference_rps * rung_step.powi(k as i32);
    let top = ((capacity / reference_rps).ln() / rung_step.ln())
        .ceil()
        .max(0.0) as u32
        + RUNGS_PAST_CAPACITY;
    let trial = budget
        .saturating_sub(CAPACITY_PROBE)
        .mul_f64(1.0 / (EXPECTED_RUNGS * RUNG_TRIALS) as f64);
    report.line(format!(
        "ladder: capacity {capacity:.1} req/s closed-loop on {threads} connections; rung k offers {reference_rps} x {rung_step}^k req/s, start k={top} ({:.1} req/s), {:.3} s trials",
        rung(top),
        trial.as_secs_f64()
    ));
    let mut k = top;
    let mut held = rung_holds(args, server, rung(k), trial, limit_ms, report);
    let mut tried = 1;
    if held.is_some() {
        // The probe read low on a burst of host noise: climb until a rung
        // fails.
        while tried < MAX_RUNGS {
            tried += 1;
            match rung_holds(args, server, rung(k + 1), trial, limit_ms, report) {
                Some(achieved) => {
                    k += 1;
                    held = Some(achieved);
                }
                None => break,
            }
        }
    } else {
        while held.is_none() && k > 0 && tried < MAX_RUNGS {
            tried += 1;
            k -= 1;
            held = rung_holds(args, server, rung(k), trial, limit_ms, report);
        }
    }
    match held {
        Some(achieved) => {
            report.line(format!(
                "ladder: highest rung held k={k} ({:.1} req/s offered)",
                rung(k)
            ));
            achieved
        }
        None => {
            report.line(format!(
                "ladder: no rung from k={top} down to k={k} held; max_rate_rps is the reference rate's"
            ));
            reference_achieved
        }
    }
}

/// The end-to-end run with nothing traced: `SUBRUNS` fresh servers, each
/// through a measured phase of an equal share of the run. Every figure is
/// taken over the whole run, all subruns pooled (total bytes over total time,
/// the median of all requests' latencies, total CPU over total requests): the
/// host's speed shifts every few seconds with its neighbours' load, and a
/// whole-run figure averages over those shifts where a median of subrun
/// figures jumps between the fast and the slow ones. The open-loop workload
/// then climbs its rate ladder on the last server.
fn measured(args: &Args) -> Result<Report, String> {
    let workload = &args.workload;
    let _awake = host::Awake::start(&args.placement.cpus);
    let mut report = Report::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let share = match workload.load {
        Load::Closed => 1.0,
        Load::Open { .. } => 1.0 - LADDER_SHARE,
    };
    let mut runs = Vec::new();
    for index in 0..SUBRUNS {
        let keep = index + 1 == SUBRUNS && matches!(workload.load, Load::Open { .. });
        runs.push(subrun(
            args,
            seconds.mul_f64(share / SUBRUNS as f64),
            index as u64,
            keep,
            &mut report,
        )?);
    }
    check_streams(args, &runs, &mut report)?;
    let kept = runs.last_mut().and_then(|r| r.server.take());
    let total = |f: &dyn Fn(&SubRun) -> f64| runs.iter().map(f).sum::<f64>();
    let elapsed_s = total(&|r| r.phase.elapsed_s);
    let completed = total(&|r| (r.phase.attempted - r.phase.failed) as f64);
    let completion_rps = completed / elapsed_s;
    // The closed loops have no ladder: their rate is their completion rate.
    let max_rate = match kept {
        Some(mut server) => {
            let best = max_rate(
                args,
                &server,
                seconds.mul_f64(LADDER_SHARE),
                completion_rps,
                &mut report,
            );
            server.stop();
            best
        }
        None => completion_rps,
    };
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    for _ in 0..EXTRA_SETUPS {
        let started = start(args)?;
        setups.push(started.setup_s);
        report.attempted += 1;
    }
    report.line(format!(
        "setup: {} launches, quartiles {:.6} {:.6} {:.6} s",
        setups.len(),
        quantile(&setups, 0.25),
        median(&setups),
        quantile(&setups, 0.75)
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "goodput_mb_s",
        total(&|r| r.phase.bytes as f64) / elapsed_s / 1e6,
        "MB/s",
    );
    let pooled: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.phase.latency_ms.iter().copied())
        .collect();
    report.metric("latency_p50_ms", median(&pooled), "ms");
    let p99 = quantile(&pooled, 0.99);
    let tail = beyond(&pooled, 0.99);
    report.line(format!(
        "latency_p99_ms: {p99:.4} ms over {} requests of all subruns ({tail} beyond; {})",
        pooled.len(),
        if tail < 10 {
            "unresolved: fewer than 10 beyond"
        } else {
            "reported, not bounded"
        }
    ));
    report.metric("max_rate_rps", max_rate, "1/s");
    report.metric(
        "server_cpu_per_op_us",
        total(&|r| r.cpu_ns as f64) / 1e3 / completed.max(1.0),
        "us",
    );
    report.metric(
        "peak_rss_mb",
        median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        "MB",
    );
    // A request that misses the open loop's latency limit counts against
    // `error_share` like a failed one (the closed loops fix no limit).
    let over_limit = match &workload.load {
        Load::Closed => 0,
        Load::Open { limit_ms, .. } => pooled
            .iter()
            .filter(|&&ms| ms.is_finite() && ms > *limit_ms)
            .count() as u64,
    };
    report.line(format!(
        "error_share: {} ({} failed + {over_limit} over the latency limit, of {} attempted)",
        (report.failed + over_limit) as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    Ok(report)
}

/// The traced run: a live phase for counts and the client-side time per
/// request, then the in-process replay with spans, then single-layer timings.
fn traced(args: &Args) -> Result<Report, String> {
    let workload = &args.workload;
    let mut report = Report::default();
    let threads = host::nproc();
    let expect = workload.expect();
    let live = Duration::from_secs_f64(args.seconds * 0.3);
    let awake = host::Awake::start(&args.placement.cpus);
    let Started {
        mut server,
        mut conn,
        first_digest,
        ..
    } = start(args)?;
    let mut stream = vec![first_digest];
    let before = Scrape::fetch(server.addr)?;
    let phase = match &workload.load {
        Load::Closed => load::closed_loop(&mut conn, &expect, live, usize::MAX),
        Load::Open { reference_rps, .. } => {
            let arrivals = load::schedule(*reference_rps, live, args.seed.wrapping_mul(31));
            load::open_loop(server.addr, &workload.target(), &expect, &arrivals, threads)
        }
    };
    let after = Scrape::fetch(server.addr)?;
    server.stop();
    // The in-process replay and layer timings use every CPU again, with no
    // spinner beside them.
    drop(awake);
    args.placement
        .all
        .pin()
        .map_err(|e| format!("cannot unpin: {e}"))?;
    stream.extend(&phase.digests);
    report.attempted += phase.attempted + 1;
    report.failed += phase.failed;
    latency_lines(&mut report, "live phase", &phase);
    let delta = Delta {
        before: &before,
        after: &after,
    };
    counts(&delta, &mut report, true);
    let completed = (phase.attempted - phase.failed).max(1) as f64;
    let client_mean_ms = phase
        .latency_ms
        .iter()
        .filter(|x| x.is_finite())
        .sum::<f64>()
        / completed;
    let server_p50 = delta.quantile_ms("ptrng_http_request_seconds", 0.5);
    let server_mean_ms = delta.mean_ms("ptrng_http_request_seconds");
    report.metric("count.requests", completed, "count");
    report.metric("count.connects", phase.connects as f64, "count");
    report.metric("server.request_p50_ms", server_p50, "ms");
    report.metric(
        "server.request_p99_ms",
        delta.quantile_ms("ptrng_http_request_seconds", 0.99),
        "ms",
    );
    report.metric("server.request_mean_ms", server_mean_ms, "ms");
    // The exposition buckets step 1-5-10 per decade, too coarse for a p50
    // difference; the histogram's exact sum gives the mean.
    report.metric(
        "server.outside_mean_ms",
        client_mean_ms - server_mean_ms,
        "ms",
    );
    report.metric(
        "source.batch_ms",
        delta.mean_ms("ptrng_batch_generation_seconds"),
        "ms",
    );
    report.metric(
        "tap.wait_ms_per_req",
        1e3 * delta.get("ptrng_tap_wait_seconds_sum") / completed,
        "ms",
    );
    report.metric(
        "tail.latency_p99_ms",
        quantile(&phase.latency_ms, 0.99),
        "ms",
    );
    report.metric(
        "tail.beyond_p99",
        beyond(&phase.latency_ms, 0.99) as f64,
        "count",
    );
    let lag = if phase.lag_ms.is_empty() {
        0.0
    } else {
        quantile(&phase.lag_ms, 0.99)
    };
    report.metric("loadgen.lag_p99_ms", lag, "ms");

    // Replay the same sequence in-process, traced, then untraced for the
    // tracing overhead.
    let head = client::request_head(&workload.target());
    let budget = Duration::from_secs_f64(args.seconds * 0.4);
    let requests = phase.attempted as usize + 1;
    let replay = trace::replay(workload, args.seed, requests, budget, true, &head)?;
    let n = replay.digests.len();
    let plain = trace::replay(workload, args.seed, n, Duration::MAX, false, &head)?;
    if matches!(workload.load, Load::Closed) {
        let compared = n.min(stream.len());
        let differ = (0..compared)
            .filter(|&i| replay.digests[i] != stream[i])
            .count();
        report.line(format!(
            "replay check: {compared} bodies compared with the served stream, {differ} differ"
        ));
        if differ > 0 {
            report.problem(format!(
                "{differ} replayed bodies differ from the served stream"
            ));
        }
    }
    if plain.digests != replay.digests {
        report.problem("traced and untraced replays drew different bytes".into());
    }
    let spans_path =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()))
            .join("servebench")
            .join(format!("{}-seed{}.spans.jsonl", workload.name, args.seed));
    replay
        .tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    report.line(format!("spans written to {}", spans_path.display()));
    let mut problems = Vec::new();
    let timings = trace::layer_timings(workload, args.seed, threads, &mut problems)?;
    for problem in problems {
        report.problem(format!("inconsistent layer timings: {problem}"));
    }
    let timing = |name: &str| timings.iter().find(|t| t.0 == name).map_or(0.0, |t| t.1);
    let self_ns = replay.tracer.self_ns();
    let per_request_us =
        |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / n as f64 / 1e3;
    // `engine.expanded` spans wrap `ExpandedTap::draw`, which runs one
    // Hash_DRBG generate per draw. Its own part, the lock and counters around
    // the generate, is the same at every size: measured at 32 bytes, it is
    // taken once per draw. Of the rest, the measured share of a generate
    // spent in SHA-256 compressions is `trng.sha256`, the remainder
    // `trng.drbg`. These three are derived from the spans, not spans.
    let expanded_us = per_request_us("engine.expanded");
    let (own_us, sha256_us, drbg_us) = if workload.tier == Tier::Random {
        let generate_share = timing("expanded.generate_share_pct") / 100.0;
        let sha256_share = timing("drbg.sha256_share_pct") / 100.0;
        let draws = workload.draw_plan().len() as f64;
        let own_us = draws * timing("drbg.generate_small_us") * (1.0 / generate_share - 1.0);
        let generate_us = expanded_us - own_us;
        (
            own_us,
            generate_us * sha256_share,
            generate_us * (1.0 - sha256_share),
        )
    } else {
        (expanded_us, 0.0, 0.0)
    };
    let mut shares: Vec<(&str, f64)> = vec![
        ("serve.parse", per_request_us("serve.parse")),
        ("engine.expanded", own_us),
        ("trng.drbg", drbg_us),
        ("trng.sha256", sha256_us),
    ];
    for layer in [
        "engine.source",
        "engine.health",
        "engine.audit",
        "trng.conditioning",
        "engine.pack",
        "serve.http",
        "socket.write",
    ] {
        shares.push((layer, per_request_us(layer)));
    }
    let explained_us: f64 = shares.iter().map(|s| s.1).sum();
    for (layer, us) in &shares {
        report.metric(&format!("self.{layer}_us"), *us, "us");
    }
    let e2e_us = client_mean_ms * 1e3;
    // Negative when the replay, which runs the shard pipeline inline, spends
    // longer per request than the live server, which runs it ahead of the
    // requests on its own thread.
    let residual_us = e2e_us - explained_us;
    shares.push(("server/outside residual", residual_us));
    report.metric("self.residual_us", residual_us, "us");
    report.metric("trace.coverage_pct", 100.0 * explained_us / e2e_us, "%");
    report.metric(
        "trace.overhead_pct",
        100.0 * (replay.elapsed_s / plain.elapsed_s - 1.0),
        "%",
    );
    report.metric("trace.spans", replay.tracer.span_count() as f64, "count");
    let (top, top_us) = shares
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layers listed");
    report.metric("trace.top_share_pct", 100.0 * top_us / e2e_us, "%");
    report.line(format!(
        "trace: {n} requests replayed ({} spans), end-to-end {e2e_us:.1} us/request live, largest self time: {top} ({top_us:.1} us/request)",
        replay.tracer.span_count(),
    ));
    for (layer, us) in &shares {
        report.line(format!(
            "self time {layer}: {us:.2} us/request ({:.1}%)",
            100.0 * us / e2e_us
        ));
    }
    for (name, value, unit) in timings {
        report.metric(name, value, unit);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::fingerprint();
    if let Err(e) = args.placement.client.pin() {
        eprintln!("servebench: cannot pin the client: {e}");
        return ExitCode::from(2);
    }
    let result = if args.trace {
        traced(&args)
    } else {
        measured(&args)
    };
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("servebench: {}: {message}", args.workload.name);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload: {} (seed {}, {} s, trace {})",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in fingerprint.lines() {
        println!("{line}");
    }
    println!("host.placement: {}", args.placement.text);
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name}: {value} {unit}");
    }
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    println!("{}", report.json());
    if report.problems.is_empty() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! ENGINE-SNAPSHOT: measures the generation pipeline's headline throughputs and writes
//! them to `BENCH_ENGINE.json`, so successive PRs can track the trajectory without
//! re-running the full Criterion suite.
//!
//! ```text
//! cargo run --release -p ptrng-bench --bin engine_snapshot
//! ```
//!
//! Every entry is a small wall-clock measurement (median of a few repetitions) of a
//! fixed workload; the `baseline_pr1` block records the same quantities measured on the
//! PR 1 code (per-sample scalar pipeline) on this container for reference.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::Serialize;

use ptrng_engine::expanded::{
    DrbgPolicy, ExpandedTap, DEFAULT_RESEED_AFTER_BYTES, DEFAULT_SEED_BITS_ACCOUNTED,
};
use ptrng_engine::fault::FaultPlan;
use ptrng_engine::health::HealthConfig;
use ptrng_engine::pool::{ConditionerSpec, Engine, EngineConfig, ObsOptions};
use ptrng_engine::source::{
    EntropySource, EroSource, JitterProfile, SourceSpec, THERMAL_SWEEP_DEPTHS,
};
use ptrng_noise::flicker::FlickerNoise;
use ptrng_noise::white::fill_standard_normal;
use ptrng_noise::NoiseSource;
use ptrng_osc::jitter::{JitterGenerator, JitterSampler};
use ptrng_serve::server::{ServeConfig, Server};
use ptrng_stats::sn::{sigma2_n_sweep, sigma2_n_sweep_windowed, SnSampling};
use ptrng_trng::ero::{EroTrng, EroTrngConfig};

#[derive(Serialize)]
struct Snapshot {
    schema_version: u32,
    engine: EngineNumbers,
    source: SourceNumbers,
    conditioning: Vec<ConditionerNumbers>,
    serve: ServeNumbers,
    serve_concurrency: ServeConcurrencyNumbers,
    drbg: DrbgNumbers,
    observability: ObservabilityNumbers,
    pool: PoolNumbers,
    estimators: EstimatorNumbers,
    flicker: FlickerNumbers,
    sweep: SweepNumbers,
    thermal_sweep: ThermalSweepNumbers,
    baseline_pr1: Baseline,
}

/// Cost of the SP 800-90B §6.3 non-IID estimator battery over one default audit
/// window of ideal bits — the price of `ptrngd validate`, `/selftest` and the
/// in-engine `EntropyAudit`, and therefore how often a deployment can re-audit.
#[derive(Serialize)]
struct EstimatorNumbers {
    /// Bits per audited window.
    window_bits: usize,
    /// Wall-clock cost of the full battery over one window, in milliseconds.
    battery_ms: f64,
    /// Battery throughput in raw Mbit/s (window bits over battery time).
    battery_mbit_s: f64,
    /// Battery minimum on the ideal window (the margin-calibration anchor).
    min_estimate_ideal: f64,
    /// Per-estimator cost over the same window, most expensive first.
    per_estimator: Vec<EstimatorCost>,
    /// 4-shard `ero:16` engine with the sparse-cadence audit on shard 0 only,
    /// output MB/s (median over the paired trials).
    single_lane_mb_s: f64,
    /// Same engine and audit with `--audit-every-lane`, output MB/s.
    every_lane_mb_s: f64,
    /// Relative throughput cost of auditing every lane, in percent: the median
    /// of the per-trial paired overheads
    /// (`(single - every) / single * 100` within each trial).
    audit_every_lane_overhead_pct: f64,
    /// Number of paired single/every-lane trials behind the medians.
    overhead_trials: usize,
}

#[derive(Serialize)]
struct EstimatorCost {
    name: String,
    ms: f64,
}

/// Loopback throughput of `ptrng-serve`: one client drawing sha256-conditioned
/// entropy from an `ero:16:strong` engine (the PR 3 e2e configuration) through the
/// full HTTP path — request parse, rate path, chunked framing, tap draws.
#[derive(Serialize)]
struct ServeNumbers {
    /// Entropy body bytes per second over loopback, in MB/s.
    loopback_sha256_mb_s: f64,
    /// Bytes drawn per measured request.
    request_bytes: u64,
    /// Median end-to-end request service time over the measured draws, in ms.
    request_p50_ms: f64,
    /// 99th-percentile request service time over the measured draws, in ms.
    request_p99_ms: f64,
}

/// Concurrency behaviour of the poll(2) event loop under the closed-loop
/// loadgen: a ramp of provably simultaneous keep-alive clients against
/// `/random` (DRBG-backed, so the serving plane rather than the conditioned
/// entropy rate is what saturates), the highest rung every client survived,
/// and the service quantiles at the reference rung.
#[derive(Serialize)]
struct ServeConcurrencyNumbers {
    /// Request path driven by every client.
    path: String,
    /// Keep-alive requests per connection at every rung.
    requests_per_conn: usize,
    /// The concurrency ramp attempted, in simultaneous connections.
    ramp: Vec<usize>,
    /// Highest ramp rung where every client connected and saw no transport
    /// errors and no 5xx — the measured concurrent-connection ceiling.
    ceiling: usize,
    /// Reference rung for the latency quantiles below, in connections.
    reference_connections: usize,
    /// Median request service latency at the reference rung, milliseconds.
    p50_ms: f64,
    /// 99th-percentile request service latency at the reference rung, ms.
    p99_ms: f64,
    /// Completed requests per second at the reference rung.
    requests_per_sec: f64,
}

/// The SP 800-90A Hash_DRBG expansion tier: in-process `ExpandedTap` draw
/// throughput, the same expansion served as `/random` over loopback HTTP
/// (chunked framing, per-tier rate path), the cost of one funded reseed, and
/// the seed economy of the default policy.  The tier's whole point is that
/// output speed decouples from the conditioned-entropy rate, so these numbers
/// should sit orders of magnitude above the `/entropy` row.
#[derive(Serialize)]
struct DrbgNumbers {
    /// Direct `ExpandedTap::draw` throughput at the default policy, MB/s.
    expansion_mb_s: f64,
    /// `/random` body bytes per second over loopback, in MB/s.
    random_loopback_mb_s: f64,
    /// Bytes drawn per measured `/random` request.
    request_bytes: u64,
    /// Median wall-clock cost of one funded `reseed_now` (ledger debit + seed
    /// draw + Hash_df re-derivation), in milliseconds.
    reseed_ms: f64,
    /// Conditioned seed bits debited per MiB of expanded output at the default
    /// policy (`seed_bits_accounted / reseed_after_bytes`, scaled).
    seed_bits_per_mib: f64,
}

/// Cost of the observability layer at the default engine configuration
/// (`ero:16:strong`, single shard, 256 KiB draw): the same workload with the
/// per-shard flight recorders capturing events versus disabled.  The latency
/// histograms stay on in both runs — they are part of the engine's fixed cost.
#[derive(Serialize)]
struct ObservabilityNumbers {
    /// Output MB/s with flight recorders on (median over `trials` runs).
    recorder_on_mb_s: f64,
    /// Output MB/s with flight recorders disabled (median over `trials` runs).
    recorder_off_mb_s: f64,
    /// Relative throughput cost of the recorder, in percent: the **median of the
    /// per-trial paired overheads** (`(off - on) / off * 100` within each trial,
    /// so slow drift of the container does not masquerade as recorder cost;
    /// small negative values are run-to-run noise).
    overhead_pct: f64,
    /// Number of paired on/off trials behind the medians.
    trials: usize,
}

/// The multi-source pool at its reference configuration (three equally-biased
/// `model:0.6` children, single shard): healthy mixing throughput, the same
/// workload through a full scripted quarantine → probation → reinstatement
/// cycle, and the conservative mixed entropy claim.
#[derive(Serialize)]
struct PoolNumbers {
    /// Child sources in the measured pool.
    children: usize,
    /// Healthy three-child pool, output MB/s (XOR mixing + per-child health
    /// lanes; median over the paired trials).
    model3_1shard_mb_s: f64,
    /// Same workload with a scripted stuck window on child 1 driving one full
    /// quarantine/reinstatement cycle, output MB/s.
    model3_drill_mb_s: f64,
    /// Relative throughput cost of the drill cycle, in percent: the median of
    /// the per-trial paired overheads (`(healthy - drill) / healthy * 100`
    /// within each trial, so container drift between the healthy and the drill
    /// run does not masquerade as quarantine cost).
    quarantine_cycle_overhead_pct: f64,
    /// Number of paired healthy/drill trials behind the medians.
    trials: usize,
    /// Accounted min-entropy per output bit of the healthy three-way mix
    /// (the piling-up combination, not the independence-assuming sum).
    mixed_claim_h_per_bit: f64,
}

/// Steady-state cost and accounted entropy of one conditioning chain: raw input bits
/// streamed through `ConditioningChain::process` into a reused output buffer, plus the
/// ledger fold for the engine's `ero:16:strong` source claim.
#[derive(Serialize)]
struct ConditionerNumbers {
    /// CLI-style chain spec (`xor:4`, `vn`, `sha256:2`, …).
    spec: String,
    /// Raw input throughput of the chain in Mbit/s (bits entering the chain).
    input_mbit_s: f64,
    /// Accounted min-entropy per conditioned output bit for the `ero:16:strong` claim.
    accounted_h_per_bit: f64,
    /// Expected output bits per raw bit from the ledger's rate algebra.
    rate: f64,
}

/// End-to-end cost of one engine thermal check — a fresh 32k relative-jitter record
/// reduced to `σ²_N` at the five thermal depths — comparing the PR 1 ingredients
/// (one-shot `generate_period_jitter` + windowed sweep) with the block pipeline
/// (persistent `JitterSampler` fill + fused prefix-sum sweep).
#[derive(Serialize)]
struct ThermalSweepNumbers {
    legacy_us: f64,
    block_us: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EngineNumbers {
    /// End-to-end `ero:16:strong` single-shard throughput through health + packing,
    /// in output MB/s.
    ero_strong_div16_1shard_mb_s: f64,
    /// Calibrated stochastic-model source, single shard, output MB/s.
    model_1shard_mb_s: f64,
    /// `ero:16:strong` single shard through the SHA-256 vetted conditioner (ratio 2)
    /// under a 0.997 bits/bit emission policy, output MB/s.
    ero_strong_div16_sha256_1shard_mb_s: f64,
}

#[derive(Serialize)]
struct SourceNumbers {
    /// Telescoped thermal-only sampler, raw Mbit/s (division 16, strong profile).
    ero_telescoped_div16_mbit_s: f64,
    /// Record-based (flicker) sampler at the paper's configuration, raw Mbit/s.
    ero_record_date14_div16_mbit_s: f64,
}

#[derive(Serialize)]
struct FlickerNumbers {
    /// FFT overlap-save block path, ns per sample (memory 4096).
    fft_ns_per_sample: f64,
    /// Scalar FIR reference, ns per sample (memory 4096).
    scalar_ns_per_sample: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SweepNumbers {
    /// Fused prefix-sum sweep over the thermal depths (32k record), microseconds.
    fused_us: f64,
    /// Windowed reference implementation, microseconds.
    windowed_us: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Baseline {
    /// PR 1 `ptrngd --shards 1 --budget 256KiB` on this container: ~2.78 s.
    ero_strong_div16_1shard_mb_s: f64,
    /// PR 1 per-sample eRO source: 8192 bits in ~11 ms.
    ero_source_div16_mbit_s: f64,
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn engine_mb_s(spec: SourceSpec, budget: u64) -> f64 {
    engine_mb_s_conditioned(spec, budget, ConditionerSpec::none(), None)
}

/// Throughput of the default `ero:16:strong` single-shard engine with the flight
/// recorder toggled, quantifying what always-on tracing costs.  Runs `TRIALS`
/// paired on/off measurements and reports medians, pairing within each trial so
/// container drift cancels out of the overhead.
fn observability_numbers() -> ObservabilityNumbers {
    const TRIALS: usize = 5;
    let mb_s = |recorder: bool| {
        let budget: u64 = 256 << 10;
        let start = Instant::now();
        let config =
            EngineConfig::new(SourceSpec::ero(16, JitterProfile::Strong).expect("valid spec"))
                .shards(1)
                .seed(1)
                .budget_bytes(Some(budget))
                .obs(ObsOptions {
                    recorder,
                    ..ObsOptions::default()
                })
                .health(HealthConfig::default().without_startup_battery());
        assert_eq!(drain(config), budget);
        budget as f64 / start.elapsed().as_secs_f64() / 1.0e6
    };
    // Warm-up run on each toggle sizes every buffer before measuring.
    mb_s(true);
    mb_s(false);
    let mut on = Vec::with_capacity(TRIALS);
    let mut off = Vec::with_capacity(TRIALS);
    let mut overheads = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let trial_on = mb_s(true);
        let trial_off = mb_s(false);
        on.push(trial_on);
        off.push(trial_off);
        overheads.push((trial_off - trial_on) / trial_off * 100.0);
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    ObservabilityNumbers {
        recorder_on_mb_s: median(&mut on),
        recorder_off_mb_s: median(&mut off),
        overhead_pct: median(&mut overheads),
        trials: TRIALS,
    }
}

/// Healthy versus drilled throughput of the reference three-child pool.  The
/// drill run asserts the cycle actually completed (one quarantine, one
/// reinstatement) so the overhead number always covers the full state machine.
/// Healthy and drill runs are **paired within each trial** and the overhead is
/// the median of the per-trial paired deltas — measuring them as two separate
/// medians let slow container drift show up as a (negative) quarantine cost.
fn pool_numbers() -> PoolNumbers {
    const TRIALS: usize = 5;
    let budget: u64 = 1 << 20;
    let spec = SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").expect("valid spec");
    let run = |fault: Option<&str>| {
        let plan = fault.map(|text| FaultPlan::parse(text).expect("valid plan"));
        let config = EngineConfig::new(spec.clone())
            .shards(1)
            .seed(1)
            .budget_bytes(Some(budget))
            .fault(plan)
            .health(HealthConfig::default().without_startup_battery());
        let start = Instant::now();
        let tap = Engine::spawn(config).expect("engine spawns").into_tap();
        let mut bytes = vec![0u8; budget as usize];
        assert_eq!(tap.draw(&mut bytes), bytes.len(), "the pool keeps serving");
        let secs = start.elapsed().as_secs_f64();
        let cycled = tap
            .metrics_snapshot()
            .pool_children
            .iter()
            .map(|child| child.status.reinstatements as usize)
            .sum::<usize>();
        tap.shutdown().expect("workers join");
        (budget as f64 / secs / 1.0e6, cycled)
    };
    const DRILL: &str = "child=1,kind=stuck,at=2KiB,for=1KiB";
    // Warm-up run on each variant sizes every buffer before measuring.
    run(None);
    run(Some(DRILL));
    let mut healthy = Vec::with_capacity(TRIALS);
    let mut drilled = Vec::with_capacity(TRIALS);
    let mut overheads = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let (trial_healthy, _) = run(None);
        let (trial_drill, cycled) = run(Some(DRILL));
        assert!(cycled >= 1, "every drill run completes the cycle: {cycled}");
        healthy.push(trial_healthy);
        drilled.push(trial_drill);
        overheads.push((trial_healthy - trial_drill) / trial_healthy * 100.0);
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let mixed_claim = Engine::spawn(
        EngineConfig::new(spec)
            .shards(1)
            .health(HealthConfig::default().without_startup_battery()),
    )
    .expect("engine spawns")
    .into_tap();
    let mixed_claim_h_per_bit = mixed_claim.ledger().min_entropy_per_bit();
    mixed_claim.shutdown().expect("tap shuts down");
    PoolNumbers {
        children: 3,
        model3_1shard_mb_s: median(&mut healthy),
        model3_drill_mb_s: median(&mut drilled),
        quarantine_cycle_overhead_pct: median(&mut overheads),
        trials: TRIALS,
        mixed_claim_h_per_bit,
    }
}

fn engine_mb_s_conditioned(
    spec: SourceSpec,
    budget: u64,
    conditioner: ConditionerSpec,
    min_h: Option<f64>,
) -> f64 {
    let secs = median_secs(3, || {
        let config = EngineConfig::new(spec.clone())
            .shards(1)
            .seed(1)
            .budget_bytes(Some(budget))
            .conditioner(conditioner.clone())
            .min_output_entropy(min_h)
            .health(HealthConfig::default().without_startup_battery());
        assert_eq!(drain(config), budget);
    });
    budget as f64 / secs / 1.0e6
}

/// Runs a budgeted engine to the end of its stream and returns the byte count,
/// asserting that no shard alarmed.
fn drain(config: EngineConfig) -> u64 {
    let tap = Engine::spawn(config).expect("engine spawns").into_tap();
    let mut buffer = vec![0u8; 64 << 10];
    let mut total = 0u64;
    loop {
        let drawn = tap.draw(&mut buffer);
        total += drawn as u64;
        if drawn < buffer.len() {
            break;
        }
    }
    tap.shutdown().expect("workers join");
    assert!(
        tap.alarms().is_empty(),
        "healthy stream: {:?}",
        tap.alarms()
    );
    total
}

fn source_mbit_s(config: EroTrngConfig, bits_per_call: usize, calls: usize) -> f64 {
    let trng = EroTrng::new(config).expect("valid config");
    let mut sampler = trng.sampler().expect("sampler builds");
    let mut rng = StdRng::seed_from_u64(3);
    let mut bits = vec![0u8; bits_per_call];
    // Warm-up sizes the scratch buffers.
    sampler.fill_bits(&mut rng, &mut bits).expect("bits flow");
    let secs = median_secs(3, || {
        for _ in 0..calls {
            sampler.fill_bits(&mut rng, &mut bits).expect("bits flow");
        }
    });
    (bits_per_call * calls) as f64 / secs / 1.0e6
}

fn conditioning_numbers() -> Vec<ConditionerNumbers> {
    // Accounting is evaluated for the engine's default source claim (ero:16:strong).
    let source = EroSource::new(16, JitterProfile::Strong, 1).expect("source builds");
    let source_ledger =
        ptrng_trng::conditioning::EntropyLedger::source(&source.label(), source.entropy_per_bit())
            .expect("valid claim");
    // A fixed pseudo-random raw record, reused for every chain.
    let mut rng = StdRng::seed_from_u64(7);
    let bits: Vec<u8> = (0..1 << 20).map(|_| (rng.next_u32() & 1) as u8).collect();
    ["xor:4", "vn", "sha256:2"]
        .into_iter()
        .map(|spec_text| {
            let spec = ConditionerSpec::parse(spec_text).expect("valid spec");
            let ledger = spec.ledger(&source_ledger).expect("accounting folds");
            let mut chain = spec.build().expect("chain builds");
            let mut out = Vec::new();
            // Warm-up sizes the scratch buffers.
            chain.process(&bits, &mut out).expect("bits flow");
            let secs = median_secs(5, || {
                out.clear();
                chain.process(&bits, &mut out).expect("bits flow");
            });
            ConditionerNumbers {
                spec: spec_text.to_string(),
                input_mbit_s: bits.len() as f64 / secs / 1.0e6,
                accounted_h_per_bit: ledger.min_entropy_per_bit(),
                rate: ledger.rate(),
            }
        })
        .collect()
}

/// Throughput cost of `--audit-every-lane` on the default 4-shard `ero:16`
/// engine, with the same sparse-cadence audit the CLI flag configures.  Paired
/// trials: each trial runs the single-lane baseline and the every-lane variant
/// back to back, and the reported overhead is the median of the per-trial
/// paired deltas.  The budget is sized so the one-time cost of each lane's
/// first full battery (the first completed window always recomputes every
/// member) amortizes and the number approximates the steady state.
fn every_lane_overhead() -> (f64, f64, f64, usize) {
    use ptrng_engine::audit::{
        AuditCadence, AuditConfig, DEFAULT_AUDIT_WINDOW_BITS, DEFAULT_EVERY_LANE_CADENCE,
    };
    const TRIALS: usize = 5;
    let budget: u64 = 8 << 20;
    let mb_s = |every_lane: bool, budget: u64| {
        let audit = AuditConfig::default()
            .slide_bits(Some(DEFAULT_AUDIT_WINDOW_BITS))
            .cadence(AuditCadence::EveryKSlides(DEFAULT_EVERY_LANE_CADENCE));
        let config =
            EngineConfig::new(SourceSpec::ero(16, JitterProfile::Strong).expect("valid spec"))
                .shards(4)
                .seed(1)
                .budget_bytes(Some(budget))
                .audit(Some(audit))
                .audit_every_lane(every_lane)
                .health(HealthConfig::default().without_startup_battery());
        let start = Instant::now();
        assert_eq!(drain(config), budget);
        let secs = start.elapsed().as_secs_f64();
        budget as f64 / secs / 1.0e6
    };
    // A short warm-up run on each variant sizes every buffer before measuring.
    mb_s(false, 64 << 10);
    mb_s(true, 64 << 10);
    let mut single = Vec::with_capacity(TRIALS);
    let mut every = Vec::with_capacity(TRIALS);
    let mut overheads = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let trial_single = mb_s(false, budget);
        let trial_every = mb_s(true, budget);
        single.push(trial_single);
        every.push(trial_every);
        overheads.push((trial_single - trial_every) / trial_single * 100.0);
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    (
        median(&mut single),
        median(&mut every),
        median(&mut overheads),
        TRIALS,
    )
}

fn estimator_numbers() -> EstimatorNumbers {
    use ptrng_ais::estimators::{
        collision_estimate, compression_estimate, lag_estimate, markov_estimate, mcv_estimate,
        multi_mcw_estimate, t_tuple_and_lrs_estimates, EstimatorBattery,
    };
    let window_bits = ptrng_engine::audit::DEFAULT_AUDIT_WINDOW_BITS;
    let mut rng = StdRng::seed_from_u64(13);
    let bits: Vec<u8> = (0..window_bits)
        .map(|_| (rng.next_u32() & 1) as u8)
        .collect();
    let battery = EstimatorBattery::run(&bits).expect("battery runs");
    let secs = median_secs(3, || {
        EstimatorBattery::run(&bits).expect("battery runs");
    });
    type Estimator = fn(&[u8]) -> ptrng_ais::Result<ptrng_ais::estimators::EstimatorResult>;
    let members: [(&str, Estimator); 6] = [
        ("mcv", mcv_estimate),
        ("collision", collision_estimate),
        ("markov", markov_estimate),
        ("compression", compression_estimate),
        ("multi-mcw", multi_mcw_estimate),
        ("lag", lag_estimate),
    ];
    let mut per_estimator: Vec<EstimatorCost> = members
        .into_iter()
        .map(|(name, estimate)| EstimatorCost {
            name: name.to_string(),
            ms: median_secs(3, || {
                estimate(&bits).expect("estimator runs");
            }) * 1.0e3,
        })
        .collect();
    // The tuple pair shares one counting scan (as in the battery), so its cost is
    // measured — and reported — as one unit.
    per_estimator.push(EstimatorCost {
        name: "t-tuple+lrs".to_string(),
        ms: median_secs(3, || {
            t_tuple_and_lrs_estimates(&bits).expect("estimators run");
        }) * 1.0e3,
    });
    per_estimator.sort_by(|a, b| b.ms.total_cmp(&a.ms));
    let (single_lane_mb_s, every_lane_mb_s, audit_every_lane_overhead_pct, overhead_trials) =
        every_lane_overhead();
    EstimatorNumbers {
        window_bits,
        battery_ms: secs * 1.0e3,
        battery_mbit_s: window_bits as f64 / secs / 1.0e6,
        min_estimate_ideal: battery.min_entropy_estimate(),
        per_estimator,
        single_lane_mb_s,
        every_lane_mb_s,
        audit_every_lane_overhead_pct,
        overhead_trials,
    }
}

fn flicker_numbers() -> FlickerNumbers {
    let len = 1usize << 15;
    let mut out = vec![0.0; len];
    let mut src = FlickerNoise::new(1.0, 1.0, 1.0e6, 4096).expect("valid filter");
    let mut rng = StdRng::seed_from_u64(5);
    let fft = median_secs(5, || src.fill_block(&mut rng, &mut out)) / len as f64 * 1.0e9;
    let scalar = median_secs(3, || src.fill_scalar(&mut rng, &mut out)) / len as f64 * 1.0e9;
    FlickerNumbers {
        fft_ns_per_sample: fft,
        scalar_ns_per_sample: scalar,
        speedup: scalar / fft,
    }
}

fn sweep_numbers() -> SweepNumbers {
    let mut rng = StdRng::seed_from_u64(9);
    let mut jitter = vec![0.0; 1 << 15];
    fill_standard_normal(&mut rng, &mut jitter);
    let depths = THERMAL_SWEEP_DEPTHS;
    let fused = median_secs(41, || {
        sigma2_n_sweep(&jitter, &depths, SnSampling::Overlapping).expect("sweep fits");
    }) * 1.0e6;
    let windowed = median_secs(41, || {
        sigma2_n_sweep_windowed(&jitter, &depths, SnSampling::Overlapping).expect("sweep fits");
    }) * 1.0e6;
    SweepNumbers {
        fused_us: fused,
        windowed_us: windowed,
        speedup: windowed / fused,
    }
}

fn thermal_sweep_numbers() -> ThermalSweepNumbers {
    // The engine's relative model for the strong profile (thermal-only), its record
    // length and its sweep depths.
    let config = strong_config(16);
    let relative = config
        .sampled
        .relative_to(&config.sampling)
        .expect("compatible models");
    let record_len = 1usize << 15;
    let depths = THERMAL_SWEEP_DEPTHS;
    let generator = JitterGenerator::new(relative);
    let mut rng = StdRng::seed_from_u64(11);
    let legacy = median_secs(5, || {
        let jitter = generator
            .generate_period_jitter(&mut rng, record_len)
            .expect("jitter flows");
        sigma2_n_sweep_windowed(&jitter, &depths, SnSampling::Overlapping).expect("sweep fits");
    }) * 1.0e6;
    let mut sampler = JitterSampler::new(generator).expect("sampler builds");
    let mut jitter = vec![0.0; record_len];
    let block = median_secs(5, || {
        sampler
            .fill_period_jitter(&mut rng, &mut jitter)
            .expect("jitter flows");
        sigma2_n_sweep(&jitter, &depths, SnSampling::Overlapping).expect("sweep fits");
    }) * 1.0e6;
    ThermalSweepNumbers {
        legacy_us: legacy,
        block_us: block,
        speedup: legacy / block,
    }
}

/// Draws `bytes` from a loopback `ptrng-serve` and returns the wall-clock entropy
/// throughput in MB/s (median of `reps` requests against one warmed-up server).
fn serve_numbers() -> ServeNumbers {
    let request_bytes: u64 = 512 << 10;
    // Serving tuning: larger batches amortize the per-batch channel hop (the HTTP
    // worker and the shard worker share one CPU here), see docs/operations.md.
    let engine = EngineConfig::new(SourceSpec::ero(16, JitterProfile::Strong).expect("valid spec"))
        .shards(1)
        .seed(1)
        .batch_bits(1 << 15)
        .conditioner(ConditionerSpec::parse("sha256").expect("valid conditioner"))
        .min_output_entropy(Some(0.997))
        .health(HealthConfig::default().without_startup_battery());
    let mut config = ServeConfig::new(engine);
    config.listen = "127.0.0.1:0".to_string();
    config.threads = 2;

    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let latency = server.request_latency();
    let serving = std::thread::spawn(move || server.serve());

    // Warm-up request sizes every buffer and fills the engine queue.
    assert_eq!(draw_over_http(addr, "/entropy", 64 << 10), 64 << 10);
    let secs = median_secs(3, || {
        assert_eq!(
            draw_over_http(addr, "/entropy", request_bytes),
            request_bytes
        );
    });
    handle.shutdown();
    serving
        .join()
        .expect("server thread joins")
        .expect("server drains cleanly");
    let latency = latency.snapshot();
    let quantile_ms = |q: f64| latency.quantile(q).expect("requests were recorded") as f64 / 1.0e6;
    ServeNumbers {
        loopback_sha256_mb_s: request_bytes as f64 / secs / 1.0e6,
        request_bytes,
        request_p50_ms: quantile_ms(0.5),
        request_p99_ms: quantile_ms(0.99),
    }
}

/// Ramps the closed-loop loadgen against one DRBG-backed server and records the
/// highest rung every client survived plus the quantiles at the reference rung.
fn serve_concurrency_numbers() -> ServeConcurrencyNumbers {
    const RAMP: [usize; 3] = [128, 512, 1024];
    const REFERENCE: usize = 512;
    let path = "/random?bytes=4096";

    let engine = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
        .shards(1)
        .seed(1)
        .health(HealthConfig::default().without_startup_battery());
    let mut config = ServeConfig::new(engine);
    config.listen = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.drbg = Some(DrbgPolicy::default());
    // Headroom above the top rung: the ceiling measured here is the loadgen's
    // verdict on the event loop, not the configured admission cap.
    config.max_connections = 2 * RAMP[RAMP.len() - 1];
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve());

    let mut ceiling = 0;
    let mut reference = None;
    for connections in RAMP {
        let report = ptrng_serve::loadgen::run(&ptrng_serve::loadgen::LoadgenConfig::closed(
            addr.to_string(),
            path,
            connections,
        ));
        if report.ok() {
            ceiling = connections;
        }
        if connections == REFERENCE {
            reference = Some(report);
        }
        // Let the previous rung's sockets drain before the next rendezvous.
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    handle.shutdown();
    serving
        .join()
        .expect("server thread joins")
        .expect("server drains cleanly");

    let reference_report = reference.expect("the reference rung is part of the ramp");
    ServeConcurrencyNumbers {
        path: path.to_string(),
        requests_per_conn: 2,
        ramp: RAMP.to_vec(),
        ceiling,
        reference_connections: REFERENCE,
        p50_ms: reference_report
            .p50_ms
            .expect("requests completed at the reference rung"),
        p99_ms: reference_report
            .p99_ms
            .expect("requests completed at the reference rung"),
        requests_per_sec: reference_report.requests_per_sec,
    }
}

/// Throughput and reseed economics of the Hash_DRBG expansion tier, measured
/// twice: directly through `ExpandedTap::draw` (the raw expansion speed), and
/// through a loopback `ptrng-serve --drbg` answering `GET /random` (the speed a
/// client actually sees).  The backing engine is the calibrated model source —
/// the tier only touches the conditioned stream at reseed time, so the source
/// rate is irrelevant between seeds and a fast backing keeps the warm-up cheap.
fn drbg_numbers() -> DrbgNumbers {
    let request_bytes: u64 = 64 << 20;

    // Direct expansion speed plus the cost of one funded reseed.
    let spawn = || {
        let config = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
            .shards(1)
            .seed(1)
            .health(HealthConfig::default().without_startup_battery());
        Engine::spawn(config).expect("engine spawns").into_tap()
    };
    let expanded =
        ExpandedTap::new(spawn(), DrbgPolicy::default()).expect("default policy is valid");
    let mut out = vec![0u8; 8 << 20];
    // Warm-up pays the lazy instantiation and sizes the buffer.
    expanded
        .draw(&mut out)
        .expect("model source funds the seed");
    let secs = median_secs(3, || {
        expanded.draw(&mut out).expect("expansion flows");
    });
    let expansion_mb_s = out.len() as f64 / secs / 1.0e6;
    let reseed_ms = median_secs(9, || {
        expanded
            .reseed_now()
            .expect("model source funds the reseed");
    }) * 1.0e3;
    expanded.shutdown().expect("tap shuts down");

    // The same expansion through the full `/random` HTTP path.
    let engine = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
        .shards(1)
        .seed(1)
        .health(HealthConfig::default().without_startup_battery());
    let mut config = ServeConfig::new(engine);
    config.listen = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.max_request_bytes = request_bytes;
    config.drbg = Some(DrbgPolicy::default());
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve());
    assert_eq!(draw_over_http(addr, "/random", 1 << 20), 1 << 20);
    let secs = median_secs(3, || {
        assert_eq!(
            draw_over_http(addr, "/random", request_bytes),
            request_bytes
        );
    });
    handle.shutdown();
    serving
        .join()
        .expect("server thread joins")
        .expect("server drains cleanly");

    DrbgNumbers {
        expansion_mb_s,
        random_loopback_mb_s: request_bytes as f64 / secs / 1.0e6,
        request_bytes,
        reseed_ms,
        seed_bits_per_mib: DEFAULT_SEED_BITS_ACCOUNTED as f64 * (1u64 << 20) as f64
            / DEFAULT_RESEED_AFTER_BYTES as f64,
    }
}

/// One `GET <path>?bytes=N` over a fresh connection; returns the decoded body
/// length (chunked transfer).
fn draw_over_http(addr: std::net::SocketAddr, path: &str, bytes: u64) -> u64 {
    let mut conn = TcpStream::connect(addr).expect("connects");
    write!(
        conn,
        "GET {path}?bytes={bytes} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut reader = BufReader::new(conn);
    // Skip the response head.
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        assert!(!line.is_empty(), "connection closed before the body");
        if line == "\r\n" {
            break;
        }
    }
    // Decode the chunked body, counting payload bytes.
    let mut body_bytes = 0u64;
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).expect("chunk size line");
        let size = u64::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return body_bytes;
        }
        std::io::copy(&mut (&mut reader).take(size + 2), &mut std::io::sink())
            .expect("chunk consumed");
        body_bytes += size;
    }
}

/// The engine's `strong` jitter profile at the given division — taken from the engine
/// itself so the snapshot always measures the workload the engine actually runs.
fn strong_config(division: u32) -> EroTrngConfig {
    JitterProfile::Strong
        .ero_config(division)
        .expect("valid profile")
}

fn main() {
    let snapshot = Snapshot {
        schema_version: 9,
        engine: EngineNumbers {
            ero_strong_div16_1shard_mb_s: engine_mb_s(
                SourceSpec::ero(16, JitterProfile::Strong).expect("valid spec"),
                256 << 10,
            ),
            model_1shard_mb_s: engine_mb_s(SourceSpec::model(0.5).expect("valid spec"), 1 << 20),
            ero_strong_div16_sha256_1shard_mb_s: engine_mb_s_conditioned(
                SourceSpec::ero(16, JitterProfile::Strong).expect("valid spec"),
                128 << 10,
                ConditionerSpec::parse("sha256").expect("valid conditioner"),
                Some(0.997),
            ),
        },
        source: SourceNumbers {
            ero_telescoped_div16_mbit_s: source_mbit_s(strong_config(16), 1 << 17, 4),
            ero_record_date14_div16_mbit_s: source_mbit_s(
                EroTrngConfig::date14_experiment(16),
                1 << 14,
                2,
            ),
        },
        conditioning: conditioning_numbers(),
        serve: serve_numbers(),
        serve_concurrency: serve_concurrency_numbers(),
        drbg: drbg_numbers(),
        observability: observability_numbers(),
        pool: pool_numbers(),
        estimators: estimator_numbers(),
        flicker: flicker_numbers(),
        sweep: sweep_numbers(),
        thermal_sweep: thermal_sweep_numbers(),
        baseline_pr1: Baseline {
            ero_strong_div16_1shard_mb_s: 0.092,
            ero_source_div16_mbit_s: 0.74,
        },
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write("BENCH_ENGINE.json", format!("{json}\n")).expect("snapshot written");
    println!("{json}");
}

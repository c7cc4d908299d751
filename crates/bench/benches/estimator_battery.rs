//! ESTIMATOR benchmark: throughput of the SP 800-90B §6.3 non-IID battery.
//!
//! The battery is the audit hot path: `ptrngd validate`, the `/selftest` endpoint
//! and the in-engine `EntropyAudit` all run it over whole windows of output bits,
//! so its cost decides how often a deployment can afford to re-audit its ledger.
//! Three sweeps: each estimator alone on one default-sized window (which member
//! dominates), the full battery across window sizes (how cost scales), and the
//! battery on a biased stream (degenerate inputs shift work into the tuple
//! estimators' repeated-substring scans).
//!
//! The audit's cost in the running daemon is measured end to end by the
//! `entropy-stream` workload of `BENCHMARK.json`; a traced run (`bash
//! servebench/run.sh --workload entropy-stream --seed 1 --seconds 10 --trace 1`)
//! reports `ais.battery_ms` and `self.engine.audit_us`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ptrng_ais::estimators::{
    collision_estimate, compression_estimate, counting_estimates, lag_estimate, markov_estimate,
    mcv_estimate, multi_mcw_estimate, t_tuple_and_lrs_estimates, EstimatorBattery,
};

fn bits(len: usize, p_one: f64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| u8::from(rng.gen_bool(p_one))).collect()
}

fn estimator_sweep(c: &mut Criterion) {
    let window = bits(1 << 17, 0.5, 1);
    let mut group = c.benchmark_group("estimator");
    type Estimator = fn(&[u8]) -> ptrng_ais::Result<ptrng_ais::estimators::EstimatorResult>;
    let members: [(&str, Estimator); 6] = [
        ("mcv", mcv_estimate),
        ("collision", collision_estimate),
        ("markov", markov_estimate),
        ("compression", compression_estimate),
        ("multi_mcw", multi_mcw_estimate),
        ("lag", lag_estimate),
    ];
    for (name, estimate) in members {
        group.bench_function(name, |b| {
            b.iter(|| estimate(&window).expect("estimator runs"));
        });
    }
    // The tuple pair shares one suffix-array construction, so it is measured as
    // one unit, exactly as the battery runs it.
    group.bench_function("t_tuple_and_lrs", |b| {
        b.iter(|| t_tuple_and_lrs_estimates(&window).expect("estimators run"));
    });
    // The streaming audit's steady-state cost on a cadenced lane: the three
    // counting members in one fused pass.
    group.bench_function("counting_fused", |b| {
        b.iter(|| counting_estimates(&window).expect("estimators run"));
    });
    group.finish();
}

fn battery_window_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("battery");
    for exponent in [14usize, 16, 17] {
        let window = bits(1 << exponent, 0.5, 2);
        group.bench_with_input(
            BenchmarkId::new("ideal", format!("2^{exponent}")),
            &window,
            |b, window| b.iter(|| EstimatorBattery::run(window).expect("battery runs")),
        );
    }
    // Biased input: longer repeated substrings push the tuple estimators harder.
    let biased = bits(1 << 16, 0.8, 3);
    group.bench_with_input(
        BenchmarkId::new("biased_p08", "2^16"),
        &biased,
        |b, window| b.iter(|| EstimatorBattery::run(window).expect("battery runs")),
    );
    group.finish();
}

criterion_group!(benches, estimator_sweep, battery_window_sweep);
criterion_main!(benches);

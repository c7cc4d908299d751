//! PERF benchmarks for the block-based generation pipeline introduced with the FFT
//! overlap-save flicker path.  The flicker group pits the FFT block path against the
//! scalar FIR path that `fill_block` still takes for small blocks, so the crossover
//! stays visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ptrng_engine::pool::ConditionerSpec;
use ptrng_engine::source::{JitterProfile, THERMAL_SWEEP_DEPTHS};
use ptrng_noise::flicker::FlickerNoise;
use ptrng_noise::NoiseSource;
use ptrng_stats::sn::{sigma2_n_sweep, SnSampling};
use ptrng_trng::ero::{EroTrng, EroTrngConfig};

fn bench_flicker_fill_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("block/flicker_fill_block_32k");
    group.sample_size(10);
    let len = 1usize << 15;
    for (name, memory, fft) in [
        ("fft_4096", 4096usize, true),
        ("scalar_4096", 4096, false),
        ("fft_1024", 1024, true),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &(memory, fft), |b, _| {
            let mut src = FlickerNoise::new(1.0, 1.0, 1.0e6, memory).expect("valid filter");
            let mut out = vec![0.0; len];
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                src.reset();
                if fft {
                    src.fill_block(&mut rng, &mut out);
                } else {
                    src.fill_scalar(&mut rng, &mut out);
                }
                out[len - 1]
            })
        });
    }
    group.finish();
}

/// The engine's `strong` jitter profile at the given division.
fn strong_config(division: u32) -> EroTrngConfig {
    JitterProfile::Strong
        .ero_config(division)
        .expect("valid profile")
}

fn bench_ero_fill_bits(c: &mut Criterion) {
    let mut group = c.benchmark_group("block/ero_fill_bits_8k");
    group.sample_size(10);
    for division in [8u32, 16] {
        let trng = EroTrng::new(strong_config(division)).expect("valid config");
        group.bench_with_input(
            BenchmarkId::new("telescoped", division),
            &trng,
            |b, trng| {
                let mut sampler = trng.sampler().expect("sampler builds");
                let mut rng = StdRng::seed_from_u64(7);
                let mut bits = vec![0u8; 8192];
                b.iter(|| {
                    sampler.fill_bits(&mut rng, &mut bits).expect("bits flow");
                    bits[0]
                })
            },
        );
    }
    // The record-based path (flicker-capable) at the paper's configuration.
    let trng = EroTrng::new(EroTrngConfig::date14_experiment(16)).expect("valid config");
    group.bench_with_input(BenchmarkId::new("record_date14", 16), &trng, |b, trng| {
        let mut sampler = trng.sampler().expect("sampler builds");
        let mut rng = StdRng::seed_from_u64(7);
        let mut bits = vec![0u8; 1024];
        b.iter(|| {
            sampler.fill_bits(&mut rng, &mut bits).expect("bits flow");
            bits[0]
        })
    });
    group.finish();
}

/// Streaming cost of the conditioning stages on a fixed 128-kibibit raw record:
/// the algebraic correctors, the SHA-256 vetted conditioner and a composed chain,
/// all through the engine-facing `ConditionerSpec → ConditioningChain` path with
/// reused output scratch (the shard worker's steady state).
fn bench_conditioning_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("block/conditioning_128k");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(13);
    let bits: Vec<u8> = (0..1 << 17).map(|_| (rng.next_u32() & 1) as u8).collect();
    for spec_text in ["xor:4", "vn", "sha256:2", "xor:2,sha256:2"] {
        group.bench_with_input(
            BenchmarkId::from_parameter(spec_text),
            &spec_text,
            |b, spec_text| {
                let mut chain = ConditionerSpec::parse(spec_text)
                    .expect("valid spec")
                    .build()
                    .expect("chain builds");
                let mut out = Vec::new();
                b.iter(|| {
                    out.clear();
                    chain.process(&bits, &mut out).expect("bits flow");
                    out.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_sigma2_n_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("block/sigma2_n_sweep_32k");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(9);
    let mut jitter = vec![0.0; 1 << 15];
    ptrng_noise::white::fill_standard_normal(&mut rng, &mut jitter);
    let depths = THERMAL_SWEEP_DEPTHS;
    group.bench_function("fused_prefix", |b| {
        b.iter(|| sigma2_n_sweep(&jitter, &depths, SnSampling::Overlapping).expect("sweep fits"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flicker_fill_block,
    bench_ero_fill_bits,
    bench_conditioning_stages,
    bench_sigma2_n_sweep
);
criterion_main!(benches);

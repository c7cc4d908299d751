//! ENGINE benchmark: end-to-end throughput of the sharded generation runtime.
//!
//! Three sweeps: the calibrated stochastic-model source isolates the runtime overhead
//! (sharding, health monitoring, packing, channel) and shows multi-shard scaling; the
//! physically-simulated eRO-TRNG shows the cost of the edge-level simulation itself,
//! at the CLI-default division 16 and the smaller division 8.
//!
//! These time the engine alone.  End-to-end figures, with the server, a host
//! fingerprint and a per-layer breakdown, come from the repo benchmark
//! (`BENCHMARK.json`): `bash servebench/run.sh --workload entropy-stream --seed 1
//! --seconds 30 --trace 0`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ptrng_engine::health::HealthConfig;
use ptrng_engine::pool::{Engine, EngineConfig};
use ptrng_engine::source::{JitterProfile, SourceSpec};

fn stream_budget(spec: SourceSpec, shards: usize, budget: u64) -> usize {
    let config = EngineConfig::new(spec)
        .shards(shards)
        .seed(1)
        .budget_bytes(Some(budget))
        .health(HealthConfig::default().without_startup_battery());
    let tap = Engine::spawn(config).expect("engine spawns").into_tap();
    // One byte past the budget: the draw comes up short once every shard ends.
    let mut bytes = vec![0u8; budget as usize + 1];
    let drawn = tap.draw(&mut bytes);
    tap.shutdown().expect("workers join");
    assert!(tap.alarms().is_empty(), "healthy stream");
    drawn
}

fn bench_model_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/model_1MiB");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let n = stream_budget(SourceSpec::model(0.5).unwrap(), shards, 1 << 20);
                    assert_eq!(n, 1 << 20);
                    n
                })
            },
        );
    }
    group.finish();
}

fn bench_ero_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/ero_div8_64KiB");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let spec = SourceSpec::ero(8, JitterProfile::Strong).unwrap();
                    let n = stream_budget(spec, shards, 64 << 10);
                    assert_eq!(n, 64 << 10);
                    n
                })
            },
        );
    }
    group.finish();
}

fn bench_ero_default_division(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/ero_div16_256KiB");
    group.sample_size(10);
    group.bench_function("1shard", |b| {
        b.iter(|| {
            let spec = SourceSpec::ero(16, JitterProfile::Strong).unwrap();
            let n = stream_budget(spec, 1, 256 << 10);
            assert_eq!(n, 256 << 10);
            n
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_model_scaling,
    bench_ero_scaling,
    bench_ero_default_division
);
criterion_main!(benches);

//! Stream entropy from a sharded engine and check it against the FIPS battery.
//!
//! ```text
//! cargo run --release --example engine_quickstart
//! ```

use std::time::Instant;

use ptrng::ais::fips;
use ptrng::engine::pool::{ConditionerSpec, Engine, EngineConfig};
use ptrng::engine::source::SourceSpec;
use ptrng::engine::stream::unpack_bits;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two engines, same budget: the physically-simulated eRO-TRNG (with XOR
    // conditioning, as a marginal raw source would be deployed) and the calibrated
    // stochastic-model fast path.
    // XOR factor 4: the eRO raw stream carries ~1% lag-1 correlation at division 8,
    // which adjacent-bit XOR would fold into output bias; two folds suppress it.
    for (spec, conditioner) in [
        ("ero:8", ConditionerSpec::xor(4)),
        ("model", ConditionerSpec::none()),
    ] {
        let budget = 256 * 1024u64;
        let config = EngineConfig::new(SourceSpec::parse(spec)?)
            .shards(4)
            .seed(42)
            .conditioner(conditioner)
            .budget_bytes(Some(budget));
        let started = Instant::now();
        let tap = Engine::spawn(config)?.into_tap();
        // One byte past the budget: the draw comes up short once every shard ends.
        let mut bytes = vec![0u8; budget as usize + 1];
        let drawn = tap.draw(&mut bytes);
        bytes.truncate(drawn);
        let elapsed = started.elapsed().as_secs_f64();
        let snapshot = tap.metrics_snapshot();
        tap.shutdown()?;
        if let Some(alarm) = tap.first_terminal_alarm() {
            return Err(alarm.to_string().into());
        }

        let bits = unpack_bits(&bytes[..fips::FIPS_BLOCK_BITS / 8]);
        let verdicts = fips::run_all(&bits)?;
        let all_passed = verdicts.iter().all(|r| r.passed);

        println!(
            "{spec:>8}: {} KiB in {elapsed:.2}s ({:.2} MiB/s), {} raw bits over {} batches, FIPS battery: {}",
            bytes.len() / 1024,
            bytes.len() as f64 / elapsed / (1024.0 * 1024.0),
            snapshot.total_raw_bits,
            snapshot.total_batches,
            if all_passed { "pass" } else { "FAIL" },
        );
        for shard in &snapshot.per_shard {
            println!(
                "          shard {}: {} bytes in {} batches ({:.6} accounted h/bit)",
                shard.shard, shard.output_bytes, shard.batches, shard.entropy_per_output_bit
            );
        }
    }
    Ok(())
}

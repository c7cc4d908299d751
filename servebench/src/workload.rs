//! The three serving workloads, the server flags each runs with, and the
//! in-process replica that replays a workload's draw sequence through the same
//! public calls the server makes.

use ptrng_engine::expanded::{DrbgPolicy, ExpandedTap};
use ptrng_engine::pool::{Engine, EngineConfig};
use ptrng_engine::tap::EntropyTap;
use ptrng_serve::cli::{DrbgArgs, EngineArgs};
use ptrng_trng::conditioning::EntropyLedger;

use crate::client::Expect;

/// `ptrng-serve`'s default `--chunk`: the draw and framing granularity of a
/// streamed body (the benchmark does not override it).
pub const CHUNK_BYTES: usize = 64 << 10;

/// Bytes one worker job pumps before handing the connection back to the loop.
const PUMP_BUDGET: usize = 4 * CHUNK_BYTES;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tier {
    /// `/random`: Hash_DRBG expansion through `ExpandedTap`.
    Random,
    /// `/entropy`: conditioned bytes straight from `EntropyTap`.
    Entropy,
}

#[derive(Clone, Debug)]
pub enum Load {
    /// One keep-alive connection, next request as soon as the last completes.
    Closed,
    /// Seeded Poisson arrivals at fixed offered rates, spread over at most
    /// `nproc` keep-alive connections.
    Open {
        /// The rate at which the latency metrics are reported.
        reference_rps: f64,
        /// Ratio of one `max_rate_rps` ladder rung to the next; rung `k`
        /// offers `reference_rps * rung_step^k`.
        rung_step: f64,
        /// p99 limit a rate must meet to count as sustained.
        limit_ms: f64,
    },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub tier: Tier,
    pub bytes: usize,
    /// Engine and DRBG flags, shared verbatim by the server and the replica.
    pub flags: &'static [&'static str],
    pub load: Load,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "random-bulk",
        tier: Tier::Random,
        bytes: 1 << 20,
        flags: &["--source", "model", "--shards", "1", "--drbg"],
        load: Load::Closed,
    },
    Workload {
        name: "random-small",
        tier: Tier::Random,
        bytes: 32,
        flags: &["--source", "model", "--shards", "1", "--drbg"],
        load: Load::Open {
            reference_rps: 1000.0,
            rung_step: 1.05,
            limit_ms: 50.0,
        },
    },
    Workload {
        name: "entropy-stream",
        tier: Tier::Entropy,
        bytes: 4096,
        flags: &[
            "--source",
            "ero:16",
            "--conditioner",
            "sha256",
            "--min-h",
            "0.997",
            "--shards",
            "1",
            "--audit-every-lane",
        ],
        load: Load::Closed,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    pub fn target(&self) -> String {
        let path = match self.tier {
            Tier::Random => "/random",
            Tier::Entropy => "/entropy",
        };
        format!("{path}?bytes={}", self.bytes)
    }

    pub fn expect(&self) -> Expect {
        match self.tier {
            Tier::Random => Expect {
                bytes: self.bytes,
                tier: "drbg-sha256",
                min_entropy: None,
            },
            Tier::Entropy => Expect {
                bytes: self.bytes,
                tier: "full-entropy",
                min_entropy: Some(0.997),
            },
        }
    }

    /// Server command-line arguments (after `--listen`).
    pub fn server_args(&self, seed: u64, threads: usize) -> Vec<String> {
        let mut args: Vec<String> = self.flags.iter().map(|f| f.to_string()).collect();
        args.extend(["--seed".into(), seed.to_string()]);
        args.extend(["--threads".into(), threads.to_string()]);
        args
    }

    /// The engine configuration and DRBG policy the server builds from the
    /// same flags, parsed by the server's own flag parser.
    pub fn engine_config(&self, seed: u64) -> Result<(EngineConfig, Option<DrbgPolicy>), String> {
        let mut engine = EngineArgs::default();
        let mut drbg = DrbgArgs::default();
        let argv = self.server_args(seed, 1);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--threads" {
                it.next();
            } else if !engine.accept(flag, &mut it)? && !drbg.accept(flag, &mut it)? {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok((engine.engine_config()?, drbg.policy()))
    }

    /// The draw sizes the server makes for one response body, in order, each
    /// tagged with whether a pump (one socket hand-off) ends after it.
    /// `/random` draws the first chunk while routing, then pumps the rest;
    /// `/entropy` pumps the whole body.
    pub fn draw_plan(&self) -> Vec<(usize, bool)> {
        let mut plan = Vec::new();
        let mut remaining = self.bytes;
        if self.tier == Tier::Random {
            let first = CHUNK_BYTES.min(remaining);
            plan.push((first, true));
            remaining -= first;
        }
        while remaining > 0 {
            let budget = PUMP_BUDGET.min(remaining);
            let mut pumped = 0;
            while pumped < budget {
                let want = CHUNK_BYTES.min(budget - pumped);
                pumped += want;
                plan.push((want, pumped == budget));
            }
            remaining -= budget;
        }
        plan
    }
}

/// The workload's supply, spawned in-process from the server's flags and
/// seed: drawing from it reproduces the served byte stream.
pub enum Replica {
    Random(Box<ExpandedTap>),
    Entropy(EntropyTap),
}

impl Replica {
    pub fn spawn(workload: &Workload, seed: u64) -> Result<Self, String> {
        let (config, policy) = workload.engine_config(seed)?;
        let tap = Engine::spawn(config).map_err(|e| e.to_string())?.into_tap();
        Ok(match (workload.tier, policy) {
            (Tier::Random, Some(policy)) => Self::Random(Box::new(
                ExpandedTap::new(tap, policy).map_err(|e| e.to_string())?,
            )),
            (Tier::Random, None) => return Err("random tier without --drbg".into()),
            (Tier::Entropy, _) => Self::Entropy(tap),
        })
    }

    /// The accounted ledger the server renders into every response head.
    pub fn ledger(&self) -> &EntropyLedger {
        match self {
            Self::Random(expanded) => expanded.tap().ledger(),
            Self::Entropy(tap) => tap.ledger(),
        }
    }

    /// Draws exactly `out.len()` bytes.
    pub fn draw(&self, out: &mut [u8]) -> Result<(), String> {
        match self {
            Self::Random(expanded) => expanded.draw(out).map_err(|e| e.to_string()),
            Self::Entropy(tap) => match tap.draw(out) {
                n if n == out.len() => Ok(()),
                n => Err(format!("entropy stream ended after {n} bytes")),
            },
        }
    }

    /// One response body, drawn with the server's draw sizes.
    pub fn body(&self, workload: &Workload, out: &mut Vec<u8>) -> Result<(), String> {
        out.clear();
        out.resize(workload.bytes, 0);
        let mut offset = 0;
        for (size, _) in workload.draw_plan() {
            self.draw(&mut out[offset..offset + size])?;
            offset += size;
        }
        Ok(())
    }
}

impl Drop for Replica {
    /// Joins the engine's shard threads.
    fn drop(&mut self) {
        let _ = match self {
            Self::Random(expanded) => expanded.shutdown(),
            Self::Entropy(tap) => tap.shutdown(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_plans_cover_the_body_in_chunks() {
        for workload in &WORKLOADS {
            let plan = workload.draw_plan();
            assert_eq!(plan.iter().map(|p| p.0).sum::<usize>(), workload.bytes);
            assert!(plan.iter().all(|p| p.0 <= CHUNK_BYTES));
            assert!(plan.last().is_some_and(|p| p.1));
        }
        let bulk = Workload::find("random-bulk").unwrap().draw_plan();
        assert_eq!(bulk.len(), 16);
        assert_eq!(bulk.iter().filter(|p| p.1).count(), 5);
    }

    #[test]
    fn flags_parse_with_the_server_parser() {
        for workload in &WORKLOADS {
            let (config, policy) = workload.engine_config(7).unwrap();
            assert_eq!(config.seed, 7);
            assert_eq!(policy.is_some(), workload.tier == Tier::Random);
        }
    }
}

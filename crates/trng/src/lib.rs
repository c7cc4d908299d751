//! Elementary ring-oscillator TRNG (eRO-TRNG) and its stochastic models.
//!
//! The generator studied by the paper (Fig. 4) samples the output of one free-running
//! ring oscillator with a D flip-flop clocked by a second ring oscillator (optionally
//! divided), producing a raw binary sequence whose entropy stems from the accumulated
//! relative jitter of the two rings.  This crate provides:
//!
//! * [`ero`] — the sampler/digitizer producing the raw binary sequence,
//! * [`postprocess`] — algebraic post-processing (XOR decimation, von Neumann, parity),
//! * [`conditioning`] — the streaming conditioning pipeline: composable stages
//!   (XOR decimation, von Neumann, a SHA-256 vetted conditioner) threading an
//!   end-to-end [`conditioning::EntropyLedger`] from the stochastic model's
//!   dependent-jitter bound to the emitted bits,
//! * [`sha256`] — a hand-rolled FIPS 180-4 SHA-256 backing the vetted conditioner,
//! * [`drbg`] — an SP 800-90A Hash_DRBG over that SHA-256: the expansion tier that
//!   decouples serving throughput from the physical source (seeded and reseeded
//!   from ledger-accounted conditioned output by the engine's `ExpandedTap`),
//! * [`entropy`] — empirical entropy estimators for bit sequences,
//! * [`stochastic`] — entropy-per-bit bounds: the classical thermal-only ("independent
//!   jitter") model and the flicker-aware correction motivated by the paper,
//! * [`online`] — the embedded online test sketched in the paper's conclusion: monitor
//!   the thermal-noise contribution to the jitter via the `σ²_N` counters.
//!
//! The full paper-math-to-code map lives in `docs/stochastic-model.md` of the
//! repository book; `docs/architecture.md` shows where the ledger travels at runtime.
//!
//! # Example
//!
//! The paper's warning, quantified: crediting the total measured jitter (independence
//! assumed) overstates the entropy that the thermal-only reading can actually back —
//! and the conditioning ledger is seeded from the honest bound:
//!
//! ```
//! use ptrng_trng::conditioning::EntropyLedger;
//! use ptrng_trng::stochastic::EntropyModel;
//!
//! # fn main() -> ptrng_trng::Result<()> {
//! let model = EntropyModel::date14_experiment();
//! let naive = model.entropy_bound_naive(20_000);
//! let honest = model.entropy_bound_thermal(20_000);
//! assert!(naive > honest, "independence overclaims: {naive:.4} vs {honest:.4}");
//!
//! let ledger = EntropyLedger::source("ero (date14, div 20000)", honest.max(1e-6))?;
//! assert!(ledger.min_entropy_per_bit() <= honest.max(1e-6));
//! assert!(ledger.to_json().contains("min_entropy_per_bit"));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conditioning;
pub mod drbg;
pub mod entropy;
pub mod ero;
pub mod online;
pub mod postprocess;
pub mod sha256;
pub mod stochastic;

use thiserror::Error;

/// Errors produced by the TRNG models.
#[derive(Debug, Clone, PartialEq, Error)]
#[non_exhaustive]
pub enum TrngError {
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// An oscillator-model routine failed.
    #[error("oscillator model error: {0}")]
    Osc(#[from] ptrng_osc::OscError),
    /// A statistical routine failed.
    #[error("statistics error: {0}")]
    Stats(#[from] ptrng_stats::StatsError),
    /// A statistical-test routine failed.
    #[error("test battery error: {0}")]
    Ais(#[from] ptrng_ais::AisError),
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TrngError>;

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(TrngError::InvalidParameter {
            name,
            reason: format!("must be positive and finite, got {value}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: TrngError = ptrng_osc::OscError::InvalidParameter {
            name: "x",
            reason: "bad".to_string(),
        }
        .into();
        assert!(e.to_string().contains("oscillator model error"));
        let e: TrngError = ptrng_stats::StatsError::SeriesTooShort { len: 0, needed: 1 }.into();
        assert!(e.to_string().contains("statistics error"));
        let e: TrngError = ptrng_ais::AisError::SequenceTooShort { len: 0, needed: 1 }.into();
        assert!(e.to_string().contains("test battery error"));
    }

    #[test]
    fn check_positive_rejects_non_positive() {
        assert!(check_positive("x", 1.0).is_ok());
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", f64::NAN).is_err());
    }
}

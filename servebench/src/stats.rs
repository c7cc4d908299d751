//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule; `NaN`
/// for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly beyond the `q`-quantile: the count the report states so a
/// reader can judge how well the tail is resolved.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&x| x > cut).count()
}

/// A 64-bit FNV-1a variant over 8-byte words: cheap enough to run on every
/// served byte without taking CPU from the server, and sensitive to every byte
/// and to order. Used only to compare a served stream with its in-process
/// replay, never for anything security-related. The length of each `update` is
/// mixed in, so both sides digest one whole response body per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(Self::PRIME).rotate_left(29);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self.0 = (h ^ bytes.len() as u64).wrapping_mul(Self::PRIME);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(beyond(&xs, 0.99), 1);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_depends_on_byte_order() {
        let mut a = Digest::default();
        a.update(b"abcdefgh12345678");
        let mut b = Digest::default();
        b.update(b"12345678abcdefgh");
        assert_ne!(a, b);
    }
}

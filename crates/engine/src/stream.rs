//! Worker-side output plumbing: bit packing and the shared byte budget.

use std::sync::atomic::{AtomicU64, Ordering};

/// Accumulates raw bits and drains packed bytes (MSB-first within each byte).
///
/// Bits are packed into bytes as they arrive, so the buffer holds one byte per eight
/// pushed bits (instead of one byte per bit) and draining is a buffer handoff rather
/// than a repacking pass.
#[derive(Debug, Default)]
pub struct BitPacker {
    packed: Vec<u8>,
    /// Partially-filled byte, bits entering from the LSB side.
    current: u8,
    /// Number of valid bits in `current` (0..8).
    filled: u8,
}

impl BitPacker {
    /// Creates an empty packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bits (one `0`/`1` per byte).
    pub fn push_bits(&mut self, bits: &[u8]) {
        // One exact reservation per drained batch (drain_bytes hands the buffer off),
        // instead of repeated doubling growth from zero.
        self.packed.reserve(bits.len() / 8 + 1);
        let mut current = self.current;
        let mut filled = self.filled;
        for &bit in bits {
            current = (current << 1) | (bit & 1);
            filled += 1;
            if filled == 8 {
                self.packed.push(current);
                current = 0;
                filled = 0;
            }
        }
        self.current = current;
        self.filled = filled;
    }

    /// Number of buffered bits not yet drained.
    pub fn pending_bits(&self) -> usize {
        self.packed.len() * 8 + self.filled as usize
    }

    /// Drains as many full bytes as are available, keeping the remainder bits.
    pub fn drain_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.packed)
    }
}

/// Unpacks bytes back into bits (MSB-first), the inverse of [`BitPacker`].
pub fn unpack_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &byte in bytes {
        for shift in (0..8).rev() {
            bits.push((byte >> shift) & 1);
        }
    }
    bits
}

/// Shared byte budget: shards claim output bytes until the budget is exhausted.
#[derive(Debug)]
pub struct ByteBudget {
    remaining: AtomicU64,
    bounded: bool,
}

impl ByteBudget {
    /// Creates a budget; `None` is unlimited.
    pub fn new(limit: Option<u64>) -> Self {
        Self {
            remaining: AtomicU64::new(limit.unwrap_or(u64::MAX)),
            bounded: limit.is_some(),
        }
    }

    /// Claims up to `want` bytes; returns how many were granted (0 = budget spent).
    pub fn claim(&self, want: usize) -> usize {
        if !self.bounded {
            return want;
        }
        let want = want as u64;
        let mut current = self.remaining.load(Ordering::Relaxed);
        loop {
            let granted = current.min(want);
            if granted == 0 {
                return 0;
            }
            match self.remaining.compare_exchange_weak(
                current,
                current - granted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return granted as usize,
                Err(actual) => current = actual,
            }
        }
    }

    /// Whether the budget has been fully claimed.
    pub fn exhausted(&self) -> bool {
        self.bounded && self.remaining.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips() {
        let bits: Vec<u8> = (0..64).map(|i| ((i * 7 + 3) % 5 < 2) as u8).collect();
        let mut packer = BitPacker::new();
        packer.push_bits(&bits);
        let bytes = packer.drain_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(unpack_bits(&bytes), bits);
        assert_eq!(packer.pending_bits(), 0);
    }

    #[test]
    fn packer_keeps_remainder_bits() {
        let mut packer = BitPacker::new();
        packer.push_bits(&[1, 0, 1]);
        assert!(packer.drain_bytes().is_empty());
        assert_eq!(packer.pending_bits(), 3);
        packer.push_bits(&[1, 1, 1, 1, 1]);
        assert_eq!(packer.drain_bytes(), vec![0b1011_1111]);
    }

    #[test]
    fn budget_grants_until_exhausted() {
        let budget = ByteBudget::new(Some(10));
        assert_eq!(budget.claim(4), 4);
        assert_eq!(budget.claim(8), 6);
        assert_eq!(budget.claim(1), 0);
        assert!(budget.exhausted());
        let unlimited = ByteBudget::new(None);
        assert_eq!(unlimited.claim(1 << 20), 1 << 20);
        assert!(!unlimited.exhausted());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Pushing bits in arbitrary chunkings equals one-shot packing, for any
            /// (also non-byte-aligned) total length, with the remainder retained.
            #[test]
            fn packing_is_chunking_invariant(
                bits in proptest::collection::vec(0u8..=1, 0..512),
                chunk in 1usize..64,
            ) {
                let mut packer = BitPacker::new();
                for piece in bits.chunks(chunk) {
                    packer.push_bits(piece);
                }
                prop_assert_eq!(packer.pending_bits(), bits.len());
                let bytes = packer.drain_bytes();
                prop_assert_eq!(bytes.len(), bits.len() / 8);
                prop_assert_eq!(packer.pending_bits(), bits.len() % 8);
                prop_assert_eq!(unpack_bits(&bytes), &bits[..(bits.len() / 8) * 8]);
            }

            /// The packer keeps working after a drain: remainder bits join the next
            /// pushes seamlessly (scratch reuse across calls).
            #[test]
            fn drain_preserves_the_remainder_across_calls(
                first in proptest::collection::vec(0u8..=1, 0..64),
                second in proptest::collection::vec(0u8..=1, 0..64),
            ) {
                let mut packer = BitPacker::new();
                packer.push_bits(&first);
                let mut bytes = packer.drain_bytes();
                packer.push_bits(&second);
                bytes.extend(packer.drain_bytes());

                let mut all = first.clone();
                all.extend_from_slice(&second);
                let mut reference = BitPacker::new();
                reference.push_bits(&all);
                prop_assert_eq!(bytes, reference.drain_bytes());
            }

            /// Empty pushes are no-ops.
            #[test]
            fn empty_input_is_a_no_op(bits in proptest::collection::vec(0u8..=1, 0..32)) {
                let mut packer = BitPacker::new();
                packer.push_bits(&bits);
                packer.push_bits(&[]);
                prop_assert_eq!(packer.pending_bits(), bits.len());
            }
        }
    }
}

//! SHA-256 (FIPS 180-4), hand-rolled for the vetted conditioning stage and the
//! Hash_DRBG expansion tier.
//!
//! The container building this workspace has no registry access, so the SP 800-90B
//! §3.1.5 vetted conditioner cannot pull in a crypto crate; this module implements
//! the full FIPS 180-4 algorithm (padding, message schedule, compression) and is
//! tested against the FIPS 180-4 / NIST CAVS example vectors.  The streaming
//! [`Sha256::update`] path compresses one 64-byte block at a time with no
//! allocation, through the same [`compress_block`] the DRBG's Hashgen loop calls.
//!
//! # Backends
//!
//! [`compress_block`] has two backends, chosen per call at run time:
//!
//! * **`sha-ni`** — the x86_64 SHA extensions (`sha256rnds2`, `sha256msg1/2`),
//!   written with `core::arch` intrinsics.  It runs when the CPU reports both the
//!   `sha` and `sse4.1` features (`is_x86_feature_detected!`, a cached bit test).
//! * **`scalar`** — the portable FIPS 180-4 §6.2.2 code.  It runs on every other
//!   CPU and is the oracle the equivalence tests compare the fast path against.
//!
//! No flag, environment variable or cargo feature picks the path; [`backend`]
//! reports which one this process uses (`/metrics` exports it as
//! `ptrng_sha256_backend_info`).  Both produce identical output, so every digest
//! and every DRBG byte is the same on either.

/// FIPS 180-4 §4.2.2 round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// FIPS 180-4 §5.3.3 initial hash value: the first 32 bits of the fractional parts
/// of the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Digest size in bytes.
pub const DIGEST_BYTES: usize = 32;

/// Digest size in bits (the conditioner's output block width and, being an
/// unkeyed hash, also its narrowest internal width for SP 800-90B accounting).
pub const DIGEST_BITS: usize = 256;

/// Compression block size in bytes (512 bits).
pub const BLOCK_BYTES: usize = 64;

/// The FIPS 180-4 §5.3.3 initial hash value, exposed for single-block callers.
///
/// [`crate::drbg`]'s Hashgen loop hashes millions of identically-padded one-block
/// messages; seeding a state with `INITIAL_STATE` and calling [`compress_block`]
/// once skips the per-message buffer and padding work of the streaming hasher.
pub const INITIAL_STATE: [u32; 8] = H0;

/// FIPS 180-4 §6.2.2 compression of one already-padded 512-bit block into `state`.
///
/// This is the single-block fast path behind [`Sha256`]: a message of at most
/// 55 bytes pads to exactly one block (`msg || 0x80 || zeros || bit-length`), so
/// callers that hash many same-length short messages can build the padded block
/// once, mutate the message bytes in place and re-compress from [`INITIAL_STATE`].
/// It runs the SHA-NI kernel when the CPU has one and the scalar code otherwise
/// (see the [module docs](self#backends)).
pub fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
    if !shani::try_compress(state, block) {
        compress_block_scalar(state, block);
    }
}

/// The SHA-256 backend [`compress_block`] uses on this CPU: `"sha-ni"` or
/// `"scalar"`.
pub fn backend() -> &'static str {
    if shani::detected() {
        "sha-ni"
    } else {
        "scalar"
    }
}

/// Portable FIPS 180-4 §6.2.2 compression: the fallback on CPUs without SHA
/// extensions and the oracle the equivalence tests hold the fast path to.
fn compress_block_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
    let mut w = [0u32; 64];
    for (t, chunk) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The SHA-NI backend: the crate's one unsafe corner.
///
/// The kernel keeps the working variables in the two-register `ABEF`/`CDGH`
/// layout `sha256rnds2` expects, runs four rounds per pair of `sha256rnds2`
/// calls, and extends the message schedule four words at a time with
/// `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_setr_epi32, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::{BLOCK_BYTES, K};

    /// Whether this CPU has the features the kernel enables.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `block` into `state` with SHA-NI if the CPU has it; returns
    /// `false`, leaving `state` untouched, if it does not.
    pub(super) fn try_compress(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` has just confirmed at run time, through
        // `is_x86_feature_detected!`, that this CPU supports `sha` and `sse4.1`,
        // the only target features `compress` enables.
        unsafe { compress(state, block) };
        true
    }

    /// Four rounds: adds the round constants to the schedule words `w` and runs
    /// two `sha256rnds2` (two rounds each, the second on the upper half).
    #[target_feature(enable = "sha,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = _mm_setr_epi32(
            K[4 * group] as i32,
            K[4 * group + 1] as i32,
            K[4 * group + 2] as i32,
            K[4 * group + 3] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The next four schedule words `W[t..t+4]` from `W[t-16..t]`, given as the
    /// four registers `w0` (oldest) to `w3` (newest).
    #[target_feature(enable = "sha,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let plus_w7 = _mm_add_epi32(sigma0, _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(plus_w7, w3)
    }

    /// FIPS 180-4 §6.2.2 compression of one block on the SHA extensions.
    ///
    /// # Safety
    ///
    /// Callers must have checked at run time that the CPU supports `sha` and
    /// `sse4.1` (as [`try_compress`] does); the instructions are undefined
    /// behaviour on a CPU without them.
    #[target_feature(enable = "sha,sse4.1")]
    fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
        // Byte order: big-endian message words into little-endian lanes.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: the features this function enables were confirmed by the
        // runtime `is_x86_feature_detected!` check in `try_compress`.  Every
        // load reads 16 bytes inside `state` (32 bytes) or `block` (64 bytes),
        // both live references, and `_mm_loadu_si128` has no alignment
        // requirement.
        let (dcba, hgfe, mut w0, mut w1, mut w2, mut w3) = unsafe {
            let words = state.as_ptr().cast::<__m128i>();
            let bytes = block.as_ptr().cast::<__m128i>();
            (
                _mm_loadu_si128(words),
                _mm_loadu_si128(words.add(1)),
                _mm_loadu_si128(bytes),
                _mm_loadu_si128(bytes.add(1)),
                _mm_loadu_si128(bytes.add(2)),
                _mm_loadu_si128(bytes.add(3)),
            )
        };
        w0 = _mm_shuffle_epi8(w0, bswap);
        w1 = _mm_shuffle_epi8(w1, bswap);
        w2 = _mm_shuffle_epi8(w2, bswap);
        w3 = _mm_shuffle_epi8(w3, bswap);

        // (a, b, c, d), (e, f, g, h) → (a, b, e, f), (c, d, g, h), high lane first.
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for group in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, group);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, group + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, group + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, group + 3);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: the features this function enables were confirmed by the
        // runtime `is_x86_feature_detected!` check in `try_compress`.  Both
        // stores write 16 bytes inside the exclusively borrowed 32-byte `state`,
        // and `_mm_storeu_si128` has no alignment requirement.
        unsafe {
            let words = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(words, dcba);
            _mm_storeu_si128(words.add(1), hgef);
        }
    }
}

/// Other architectures have no hardware backend: everything runs scalar.
#[cfg(not(target_arch = "x86_64"))]
mod shani {
    use super::BLOCK_BYTES;

    pub(super) fn detected() -> bool {
        false
    }

    pub(super) fn try_compress(_state: &mut [u32; 8], _block: &[u8; BLOCK_BYTES]) -> bool {
        false
    }
}

/// Incremental SHA-256 state: feed bytes with [`Sha256::update`], extract the
/// digest with [`Sha256::finalize`] or — to reuse the state for the next message
/// without reallocation — [`Sha256::finalize_reset`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: [u8; BLOCK_BYTES],
    block_len: usize,
    total_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            block: [0; BLOCK_BYTES],
            block_len: 0,
            total_bytes: 0,
        }
    }

    /// Absorbs `data` into the running hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_bytes += data.len() as u64;
        let mut rest = data;
        if self.block_len > 0 {
            let take = rest.len().min(BLOCK_BYTES - self.block_len);
            self.block[self.block_len..self.block_len + take].copy_from_slice(&rest[..take]);
            self.block_len += take;
            rest = &rest[take..];
            if self.block_len < BLOCK_BYTES {
                // The buffered block is still partial (rest is exhausted); falling
                // through would overwrite it with the empty remainder.
                return;
            }
            let block = self.block;
            self.compress(&block);
            self.block_len = 0;
        }
        let mut chunks = rest.chunks_exact(BLOCK_BYTES);
        for chunk in &mut chunks {
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(chunk);
            self.compress(&block);
        }
        let tail = chunks.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
        self.block_len = tail.len();
    }

    /// Pads, compresses the final block(s) and returns the digest, consuming the
    /// hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        self.finalize_reset()
    }

    /// Like [`Sha256::finalize`], but resets the hasher to the initial state so it
    /// can absorb the next message — the streaming conditioner's steady-state path.
    pub fn finalize_reset(&mut self) -> [u8; DIGEST_BYTES] {
        let bit_len = self.total_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length.
        self.update(&[0x80]);
        while self.block_len != 56 {
            self.update(&[0x00]);
        }
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.block_len, 0);
        let mut digest = [0u8; DIGEST_BYTES];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        self.state = H0;
        self.block_len = 0;
        self.total_bytes = 0;
        digest
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// FIPS 180-4 §6.2.2 compression of one 512-bit block.
    fn compress(&mut self, block: &[u8; BLOCK_BYTES]) {
        compress_block(&mut self.state, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Compress = fn(&mut [u32; 8], &[u8; BLOCK_BYTES]);

    fn state_bytes(state: [u32; 8]) -> [u8; DIGEST_BYTES] {
        let mut digest = [0u8; DIGEST_BYTES];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }

    /// One-shot digest with the FIPS 180-4 padding done by hand, so the scalar
    /// oracle can be run on the same vectors as the dispatched path.
    fn digest_with(compress: Compress, message: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_BYTES != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        let mut state = INITIAL_STATE;
        for block in padded.chunks_exact(BLOCK_BYTES) {
            compress(&mut state, block.try_into().unwrap());
        }
        state_bytes(state)
    }

    /// The equivalence gates are vacuous on a CPU without SHA extensions; say
    /// so once on stderr, past the test harness's capture, instead of passing
    /// silently.
    fn note_scalar_only() {
        use std::io::Write;
        static NOTED: std::sync::Once = std::sync::Once::new();
        if backend() == "scalar" {
            NOTED.call_once(|| {
                let _ = writeln!(
                    std::io::stderr(),
                    "sha256 equivalence gates: CPU lacks sha/sse4.1, compared scalar against scalar"
                );
            });
        }
    }

    /// FIPS 180-4 / NIST CAVS example vectors.
    #[test]
    fn fips_180_4_vectors() {
        let cases: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (message, expected) in cases {
            assert_eq!(
                hex(&Sha256::digest(message)),
                expected,
                "message {message:?}"
            );
            assert_eq!(
                hex(&digest_with(compress_block_scalar, message)),
                expected,
                "scalar oracle, message {message:?}"
            );
        }
    }

    /// FIPS 180-4 long-message vector: one million repetitions of `a`.
    #[test]
    fn fips_180_4_million_a() {
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(
            hex(&hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_for_every_split() {
        let message: Vec<u8> = (0u16..257).map(|i| (i % 251) as u8).collect();
        let reference = Sha256::digest(&message);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 200, message.len()] {
            let mut hasher = Sha256::new();
            hasher.update(&message[..split]);
            hasher.update(&message[split..]);
            assert_eq!(hasher.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn single_block_fast_path_matches_streaming() {
        // 55 bytes is the longest message that pads to exactly one block — the
        // shape the DRBG Hashgen loop compresses millions of times.
        let message: Vec<u8> = (0..55u8).map(|i| i ^ 0x5a).collect();
        let mut block = [0u8; BLOCK_BYTES];
        block[..55].copy_from_slice(&message);
        block[55] = 0x80;
        block[56..].copy_from_slice(&(55u64 * 8).to_be_bytes());
        let backends: [(&str, Compress); 2] = [
            ("compress_block", compress_block),
            ("compress_block_scalar", compress_block_scalar),
        ];
        for (name, compress) in backends {
            let mut state = INITIAL_STATE;
            compress(&mut state, &block);
            assert_eq!(state_bytes(state), Sha256::digest(&message), "{name}");
        }
    }

    #[test]
    fn sha256_hashgen_blocks_match_scalar_across_carries() {
        note_scalar_only();
        // Hashgen's blocks: a 55-byte V, 0x80, and the 440-bit length, with V
        // incremented as a big-endian integer between blocks.  The tails below
        // carry across four bytes, and all-ones wraps V to zero.
        let mut tailed = [0u8; 55];
        for (i, byte) in tailed.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(37) ^ 0xa5;
        }
        tailed[51..].copy_from_slice(&[0xff, 0xff, 0xff, 0xf8]);
        for start in [tailed, [0xff; 55], [0x00; 55]] {
            let mut block = [0u8; BLOCK_BYTES];
            block[..55].copy_from_slice(&start);
            block[55] = 0x80;
            block[56..].copy_from_slice(&440u64.to_be_bytes());
            for _ in 0..300 {
                let (mut fast, mut oracle) = (INITIAL_STATE, INITIAL_STATE);
                compress_block(&mut fast, &block);
                compress_block_scalar(&mut oracle, &block);
                assert_eq!(fast, oracle, "block {block:02x?}");
                for byte in block[..55].iter_mut().rev() {
                    *byte = byte.wrapping_add(1);
                    if *byte != 0 {
                        break;
                    }
                }
            }
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The equivalence gate: the dispatched backend matches the scalar
            /// oracle on arbitrary chaining states and blocks, and on the chain
            /// of states the block then produces.
            #[test]
            fn sha256_compress_block_matches_scalar(
                words in collection::vec(0u32..=u32::MAX, 8),
                bytes in collection::vec(0u8..=u8::MAX, BLOCK_BYTES),
            ) {
                note_scalar_only();
                let mut state: [u32; 8] = words[..].try_into().unwrap();
                let block: [u8; BLOCK_BYTES] = bytes[..].try_into().unwrap();
                for _ in 0..64 {
                    let (mut fast, mut oracle) = (state, state);
                    compress_block(&mut fast, &block);
                    compress_block_scalar(&mut oracle, &block);
                    prop_assert_eq!(fast, oracle);
                    state = fast;
                }
            }
        }
    }

    #[test]
    fn finalize_reset_starts_a_fresh_message() {
        let mut hasher = Sha256::new();
        hasher.update(b"abc");
        let first = hasher.finalize_reset();
        assert_eq!(first, Sha256::digest(b"abc"));
        hasher.update(b"abc");
        assert_eq!(hasher.finalize_reset(), first);
        // And an interleaved different message is unaffected by the history.
        hasher.update(b"");
        assert_eq!(hasher.finalize_reset(), Sha256::digest(b""));
    }
}

//! Draw helper for tests that consume a running engine through its tap.

use ptrng::engine::tap::EntropyTap;

/// Draws from `tap` until a draw comes up short, i.e. until the stream ends.
pub fn drain(tap: &EntropyTap) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    loop {
        let drawn = tap.draw(&mut chunk);
        out.extend_from_slice(&chunk[..drawn]);
        if drawn < chunk.len() {
            return out;
        }
    }
}

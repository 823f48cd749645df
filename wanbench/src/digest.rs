//! `result_digest`: a 64-bit fold over a workload's deterministic
//! outputs. Same seed, same digest — across runs, and between the
//! traced and untraced phases of one run.

use crate::rng::splitmix64;

/// Order-sensitive digest. Every field is length- or width-delimited,
/// so two different field sequences cannot concatenate to the same
/// input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    /// Floats enter by bit pattern: a last-digit change is a change.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(w));
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Fixed-width hex, as printed in results.
pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(parts: &[&str]) -> u64 {
        let mut d = Digest::new();
        for p in parts {
            d.str(p);
        }
        d.value()
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Pinned: a change of the fold silently invalidates every
        // recorded digest, so it must be deliberate.
        assert_eq!(hex(of(&["ulm", "ldif"])), "46f2a46b02bba0ce");
        assert_ne!(of(&["ulm", "ldif"]), of(&["ldif", "ulm"]));
        assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
        assert_ne!(of(&["a"]), of(&["a", ""]));
    }

    #[test]
    fn floats_enter_by_bit_pattern() {
        let mut a = Digest::new();
        a.f64(21.5);
        let mut b = Digest::new();
        b.f64(21.5 + f64::EPSILON * 16.0);
        assert_ne!(a.value(), b.value());
    }
}

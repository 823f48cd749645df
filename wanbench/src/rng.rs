//! Seed derivation and the benchmark's own generator.
//!
//! The benchmark owns its randomness: inputs are a pure function of
//! `--seed`, and none of it is borrowed from the crates under test, so a
//! refactor of their seeding helpers cannot change what the benchmark
//! feeds them.

/// SplitMix64 finaliser.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of pass `index` of stream `label` under run seed `seed`.
/// Distinct labels and indices give decorrelated seeds; the same triple
/// always gives the same seed.
pub fn sub_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = splitmix64(seed);
    for b in label.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_repeat_and_separate() {
        assert_eq!(sub_seed(7, "pass", 3), sub_seed(7, "pass", 3));
        let mut seen = std::collections::BTreeSet::new();
        for seed in [0u64, 1, 7] {
            for label in ["pass", "probe", "warm"] {
                for index in 0..50 {
                    assert!(seen.insert(sub_seed(seed, label, index)));
                }
            }
        }
    }

    #[test]
    fn stream_is_a_function_of_its_seed() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let mut c = Rng::new(10);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1_000 {
            assert!(a.below(13) < 13);
            let u = a.range_f64(1.0, 120.0);
            assert!((1.0..120.0).contains(&u));
        }
    }
}

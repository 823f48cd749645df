//! Log-bucketed histograms over `u64` values.
//!
//! The bucketing is pure integer arithmetic (HdrHistogram-style: a
//! linear region below 16, then 8 sub-buckets per power of two), so two
//! runs that record the same value sequence land the same counts in the
//! same buckets on any platform — a precondition for the byte-identical
//! snapshot contract. With 3 sub-bucket bits the bucket width is at most
//! 1/8 of its lower bound, so a quantile read from the bucket midpoint
//! is within ~6.25% of the exact order statistic.

use serde::Serialize;

/// Linear region: values below 16 get exact single-value buckets.
const LINEAR_MAX: u64 = 16;
/// Sub-bucket bits per power-of-two group.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Bit lengths 5..=64 each contribute `SUBS` buckets after the linear region.
const NUM_BUCKETS: usize = LINEAR_MAX as usize + 60 * SUBS;

/// Bucket index for a value. Total order preserving: `v1 <= v2` implies
/// `index(v1) <= index(v2)`.
fn index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let b = 64 - v.leading_zeros(); // bit length, >= 5
    let sub = ((v >> (b - 1 - SUB_BITS)) as usize) & (SUBS - 1);
    LINEAR_MAX as usize + (b as usize - 5) * SUBS + sub
}

/// Inclusive `(low, high)` value range covered by bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    if idx < LINEAR_MAX as usize {
        return (idx as u64, idx as u64);
    }
    let g = idx - LINEAR_MAX as usize;
    let b = (g / SUBS) as u32 + 5;
    let sub = (g % SUBS) as u64;
    let width = 1u64 << (b - 1 - SUB_BITS);
    let low = (1u64 << (b - 1)) + sub * width;
    (low, low + (width - 1))
}

/// A recorded distribution. Buckets are fixed at construction, so the
/// memory cost is a flat ~4 KiB per histogram regardless of value range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), read from the midpoint of the
    /// bucket containing the order statistic of rank `ceil(q * count)`.
    /// Exact for values below 16; within the bucket's half-width (≤ ~6.25%
    /// relative) above. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, high) = bounds(idx);
                // Midpoint, clamped to what was actually recorded so
                // p100 never exceeds max and p0 never undercuts min.
                return (low + (high - low) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Summarize into the serializable snapshot form.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// The exported summary of one histogram: totals plus the three
/// quantiles the paper's analyses care about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 if empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 0u64;
        loop {
            let idx = index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "index not monotone at v={v}");
            prev = idx;
            let (low, high) = bounds(idx);
            assert!(low <= v && v <= high, "v={v} outside bucket [{low},{high}]");
            if v > u64::MAX / 3 {
                break;
            }
            v = v * 3 / 2 + 1;
        }
        assert_eq!(index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.sum(), (0..16).sum::<u64>());
    }

    #[test]
    fn quantiles_track_exact_percentiles_uniform() {
        // Uniform 1..=10_000: compare against the exact order statistic.
        let mut h = Histogram::default();
        let exact: Vec<u64> = (1..=10_000u64).collect();
        for &v in &exact {
            h.record(v);
        }
        for &(q, _label) in &[(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let got = h.quantile(q);
            let rel = (got as f64 - truth as f64).abs() / truth as f64;
            assert!(rel <= 0.0625, "q={q}: got {got}, exact {truth}, rel {rel}");
        }
    }

    #[test]
    fn quantiles_track_exact_percentiles_heavy_tail() {
        // A deterministic heavy-tailed sequence (powers stretched by a
        // linear ramp), order-statistics compared the same way.
        let mut exact: Vec<u64> = (0..5_000u64)
            .map(|i| (i % 37 + 1) * (1 << (i % 20)))
            .collect();
        let mut h = Histogram::default();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - truth).abs() / truth <= 0.0625,
                "q={q}: got {got}, exact {truth}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn saturating_sum_never_panics() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}

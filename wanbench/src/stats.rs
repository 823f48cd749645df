//! Order statistics for timing samples.

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 8] = [50.0, 60.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Sort ascending; timing samples are finite.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples, the mean of the middle two when their
/// number is even (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n => (s[(n - 1) / 2] + s[n / 2]) / 2.0,
    }
}

/// A timing's `_hi`: the highest ladder percentile that still has at
/// least ten samples beyond it, with the percentile chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hi {
    pub value: f64,
    pub percentile: f64,
}

/// `None` below 20 samples, where not even the median has ten beyond it.
pub fn hi(sorted: &[f64]) -> Option<Hi> {
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| {
            let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
            n >= rank + 10
        })
        .map(|p| Hi {
            value: percentile(sorted, p),
            percentile: p,
        })
}

/// Interquartile range over the median, from `n = 4` quantiles computed
/// the way Python's `statistics.quantiles` does (exclusive method), so
/// `--compare` judges spread as the acceptance driver does.
pub fn iqr_over_median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    (q(3) - q(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn hi_keeps_ten_samples_beyond() {
        assert_eq!(hi(&ramp(19)), None);
        // 20 samples: the median (rank 10) has exactly ten beyond.
        let h = hi(&ramp(20)).unwrap();
        assert_eq!((h.percentile, h.value), (50.0, 10.0));
        // 30 samples: p60 is rank 18 (12 beyond); p75 is rank 23 (7 beyond).
        let h = hi(&ramp(30)).unwrap();
        assert_eq!((h.percentile, h.value), (60.0, 18.0));
        // 1 000 samples: p99 is rank 990, exactly ten beyond; p99.9 has one.
        let h = hi(&ramp(1_000)).unwrap();
        assert_eq!((h.percentile, h.value), (99.0, 990.0));
        let h = hi(&ramp(100_000)).unwrap();
        assert_eq!((h.percentile, h.value), (99.99, 99_990.0));
        for n in 20..400 {
            let s = ramp(n);
            let h = hi(&s).unwrap();
            let beyond = s.iter().filter(|&&x| x > h.value).count();
            assert!(beyond >= 10, "n={n} p={} beyond={beyond}", h.percentile);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let got = iqr_over_median(&ramp(10));
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
    }
}

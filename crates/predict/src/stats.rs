//! Descriptive statistics shared by predictors, the evaluation framework
//! and the information provider (min/avg/max bandwidth attributes in the
//! Figure 6 LDIF output).

/// Arithmetic mean; `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Median with the paper's §4.1 convention: for an ordered list of `t`
/// values, odd `t` takes the middle value; even `t` averages the two
/// middle values. `None` for empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    median_of_sorted(&v)
}

/// Insert `v` into a vector kept in `total_cmp` order (NaN sorts last,
/// so a NaN-tainted value keeps later positions consistent instead of
/// corrupting the order statistic).
pub(crate) fn insert_sorted(sorted: &mut Vec<f64>, v: f64) {
    let at = sorted.partition_point(|x| x.total_cmp(&v).is_lt());
    sorted.insert(at, v);
}

/// [`median`] of values already in `total_cmp` order — the read side of
/// an order statistic kept sorted by insertion. `total_cmp` calls two
/// values equal only when their bits are, so any sort of one multiset
/// yields the same sequence and this is bit-identical to [`median`].
pub(crate) fn median_of_sorted(v: &[f64]) -> Option<f64> {
    let t = v.len();
    match t {
        0 => None,
        _ if t % 2 == 1 => Some(v[t / 2]),
        _ => Some((v[t / 2 - 1] + v[t / 2]) / 2.0),
    }
}

/// Population variance; `None` for empty input.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Standard deviation; `None` for empty input.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Minimum; `None` for empty input.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum; `None` for empty input.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Linear interpolated percentile `p` in `[0, 100]`; `None` for empty
/// input.
///
/// Inputs must be finite (no NaN — the sort would panic). Callers that
/// derive errors from measurements share one convention: targets with a
/// zero measurement have *no* percentage error and are excluded before
/// ranking (see `PredictionOutcome::abs_pct_error` and [`mape`]), so no
/// infinities reach this function either.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return v.first().copied();
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// Ordinary-least-squares fit of `y = a + b x` over paired samples.
/// Returns `(a, b)`; `None` if fewer than two pairs or `x` is degenerate
/// (zero variance, which would make `b` unidentifiable).
pub fn ols(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n < 2 {
        return None;
    }
    ols_about(
        x.iter().copied().zip(y.iter().copied()),
        n,
        mean(x)?,
        mean(y)?,
    )
}

/// The centred pass of [`ols`] over `n >= 2` pairs whose means
/// `(mx, my)` the caller already holds — from [`mean`], or from running
/// sums folded in the same order, which is the same division.
pub(crate) fn ols_about(
    pairs: impl Iterator<Item = (f64, f64)>,
    n: usize,
    mx: f64,
    my: f64,
) -> Option<(f64, f64)> {
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (xi, yi) in pairs {
        sxx += (xi - mx) * (xi - mx);
        sxy += (xi - mx) * (yi - my);
    }
    if sxx < 1e-12 * (1.0 + mx * mx) * n as f64 {
        return None;
    }
    let b = sxy / sxx;
    let a = my - b * mx;
    Some((a, b))
}

/// Mean absolute percentage error of predictions vs measurements,
/// skipping pairs with zero measurement (the paper's §6.2 error formula,
/// averaged). `None` if no valid pairs.
pub fn mape(pairs: &[(f64, f64)]) -> Option<f64> {
    let errs: Vec<f64> = pairs
        .iter()
        // tidy: allow(float-eq): exact zero-measurement sentinel, same convention as eval::abs_pct_error
        .filter(|(measured, _)| *measured != 0.0)
        .map(|(measured, predicted)| (measured - predicted).abs() / measured.abs() * 100.0)
        .collect();
    mean(&errs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn order_statistics_survive_nan() {
        // Regression: these sorts used partial_cmp().expect(..) and
        // aborted the replay when a fault-injected log produced a NaN
        // bandwidth. total_cmp orders NaN last instead of panicking.
        assert!(median(&[1.0, f64::NAN, 2.0]).is_some());
        assert!(percentile(&[4.0, f64::NAN, 1.0], 50.0).is_some());
    }

    #[test]
    fn median_resists_outliers() {
        let m = median(&[10.0, 11.0, 9.0, 10.5, 1e9]).unwrap();
        assert!((m - 10.5).abs() < 1e-9);
    }

    #[test]
    fn variance_and_std() {
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        let v = variance(&[2.0, 4.0]).unwrap();
        assert!((v - 1.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 4.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(max(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 25.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn ols_recovers_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 + 0.5 * v).collect();
        let (a, b) = ols(&x, &y).unwrap();
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ols_degenerate_x_is_none() {
        assert_eq!(ols(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(ols(&[1.0], &[1.0]), None);
    }

    #[test]
    fn mape_skips_zero_measurements() {
        let m = mape(&[(100.0, 90.0), (0.0, 50.0), (200.0, 210.0)]).unwrap();
        // (10% + 5%) / 2 = 7.5%
        assert!((m - 7.5).abs() < 1e-9);
        assert_eq!(mape(&[(0.0, 1.0)]), None);
    }
}

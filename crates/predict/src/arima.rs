//! Auto-regressive predictors (§4.1): the paper's degenerate ARIMA,
//!
//! ```text
//! Y_t = a + b * Y_{t-1}
//! ```
//!
//! with `a` and `b` fit by ordinary least squares over past occurrences
//! (the shock term dropped, as the paper states). The paper notes the
//! technique formally wants ≥ 50 equally spaced measurements — which its
//! logs do not provide — and evaluates it anyway over 5- and 10-day
//! temporal windows (`AR5d`, `AR10d`) plus the full history (`AR`). We
//! implement the same predictors with an explicit small-sample guard:
//! below [`ArPredictor::MIN_POINTS`] usable pairs (or with a degenerate
//! regressor) the predictor falls back to the windowed mean rather than
//! extrapolating a meaningless line.

use crate::observation::Observation;
use crate::predictor::{bandwidths, mean_bandwidth, BandwidthSums, Predictor, PredictorSpec};
use crate::stats;
use crate::window::Window;

/// AR(1) predictor over a history window.
#[derive(Debug, Clone)]
pub struct ArPredictor {
    name: String,
    window: Window,
}

impl ArPredictor {
    /// Minimum number of observations (hence `MIN_POINTS - 1` regression
    /// pairs) before the OLS fit is trusted.
    pub const MIN_POINTS: usize = 4;

    /// AR(1) over the given window; named `AR` + window suffix.
    pub fn new(window: Window) -> Self {
        ArPredictor {
            name: format!("AR{}", window.name_suffix()),
            window,
        }
    }

    /// The window in use.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Fit `(a, b)` on the windowed series, if well-posed.
    pub fn fit(&self, history: &[Observation], now: u64) -> Option<(f64, f64)> {
        fit_selected(self.window.select(history, now), None)
    }
}

/// [`ArPredictor::fit`] on an already-selected window; `sums`, when the
/// caller keeps them, are the window's running sums.
fn fit_selected(sel: &[Observation], sums: Option<BandwidthSums>) -> Option<(f64, f64)> {
    if sel.len() < ArPredictor::MIN_POINTS {
        return None;
    }
    // Regress each value on its predecessor: x drops the newest, y the
    // oldest.
    let (x, y) = (sel.split_last()?.1, sel.split_first()?.1);
    let (sx, sy) = match sums {
        Some(s) => (s.but_newest, s.but_oldest),
        None => (bandwidths(x).sum(), bandwidths(y).sum()),
    };
    let n = x.len();
    stats::ols_about(
        bandwidths(x).zip(bandwidths(y)),
        n,
        sx / n as f64,
        sy / n as f64,
    )
}

/// [`ArPredictor::predict`] on an already-selected window.
pub(crate) fn predict_selected(sel: &[Observation], sums: Option<BandwidthSums>) -> Option<f64> {
    match (fit_selected(sel, sums), sel.last()) {
        (Some((a, b)), Some(newest)) => {
            // Negative bandwidth is physically meaningless; clamp to a
            // tiny positive floor so percentage errors stay defined.
            Some((a + b * newest.bandwidth_kbs).max(1e-6))
        }
        // Small or degenerate sample: fall back to the windowed mean,
        // as NWS-style systems do rather than refusing to forecast (an
        // empty window still declines).
        _ => mean_bandwidth(sel, sums.map(|s| s.all)),
    }
}

impl Predictor for ArPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, history: &[Observation], now: u64) -> Option<f64> {
        predict_selected(self.window.select(history, now), None)
    }

    fn spec(&self) -> Option<PredictorSpec> {
        Some(PredictorSpec::Ar(self.window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::testutil::{history, timed_history};

    #[test]
    fn names_match_paper() {
        assert_eq!(ArPredictor::new(Window::All).name(), "AR");
        assert_eq!(
            ArPredictor::new(Window::LastSeconds(5 * 86_400)).name(),
            "AR5d"
        );
        assert_eq!(
            ArPredictor::new(Window::LastSeconds(10 * 86_400)).name(),
            "AR10d"
        );
    }

    #[test]
    fn recovers_exact_ar1_process() {
        // y_{t} = 10 + 0.5 y_{t-1}, converging to 20.
        let mut v = vec![4.0];
        for _ in 0..20 {
            let prev = *v.last().unwrap();
            v.push(10.0 + 0.5 * prev);
        }
        let h = history(&v);
        let p = ArPredictor::new(Window::All);
        let (a, b) = p.fit(&h, 0).unwrap();
        assert!((a - 10.0).abs() < 1e-6, "a={a}");
        assert!((b - 0.5).abs() < 1e-6, "b={b}");
        let last = *v.last().unwrap();
        let pred = p.predict(&h, 0).unwrap();
        assert!((pred - (10.0 + 0.5 * last)).abs() < 1e-6);
    }

    #[test]
    fn small_sample_falls_back_to_mean() {
        let h = history(&[2.0, 4.0, 6.0]); // 3 < MIN_POINTS
        let p = ArPredictor::new(Window::All);
        assert!(p.fit(&h, 0).is_none());
        assert_eq!(p.predict(&h, 0), Some(4.0));
    }

    #[test]
    fn constant_series_falls_back_to_mean() {
        // Zero variance in the regressor: OLS is degenerate.
        let h = history(&[5.0; 30]);
        let p = ArPredictor::new(Window::All);
        assert!(p.fit(&h, 0).is_none());
        assert_eq!(p.predict(&h, 0), Some(5.0));
    }

    #[test]
    fn prediction_clamped_positive() {
        // A steeply decreasing series can extrapolate negative.
        let h = history(&[100.0, 50.0, 10.0, 1.0, 0.5, 0.1]);
        let p = ArPredictor::new(Window::All);
        let pred = p.predict(&h, 0).unwrap();
        assert!(pred > 0.0);
    }

    #[test]
    fn temporal_window_restricts_fit() {
        // Old regime (huge values) outside the window; fit sees only the
        // recent flat regime and predicts near it.
        let mut pairs = Vec::new();
        for i in 0..10 {
            pairs.push((i * 100, 1e6));
        }
        for i in 0..10 {
            pairs.push((10_000 + i * 100, 50.0 + (i % 2) as f64));
        }
        let h = timed_history(&pairs);
        let p = ArPredictor::new(Window::LastSeconds(2_000));
        let pred = p.predict(&h, 11_000).unwrap();
        assert!(pred < 100.0, "pred {pred} should ignore the old regime");
    }

    #[test]
    fn empty_history_is_none() {
        let p = ArPredictor::new(Window::All);
        assert_eq!(p.predict(&[], 0), None);
    }
}

//! Median-based predictors (§4.1): `MED`, `MED5/15/25`.
//!
//! Useful when the history contains randomly occurring asymmetric
//! outliers, at the cost of jitterier forecasts than means (the paper's
//! §6.2 indeed observes median predictors "varying more").

use crate::observation::Observation;
use crate::predictor::{bandwidths, Predictor, PredictorSpec};
use crate::stats;
use crate::window::Window;

/// Median predictor over a history window.
#[derive(Debug, Clone)]
pub struct MedianPredictor {
    name: String,
    window: Window,
}

impl MedianPredictor {
    /// Median over the given window; named `MED` + window suffix.
    pub fn new(window: Window) -> Self {
        MedianPredictor {
            name: format!("MED{}", window.name_suffix()),
            window,
        }
    }

    /// The window in use.
    pub fn window(&self) -> Window {
        self.window
    }
}

/// Median bandwidth of a slice ([`stats::median`]'s sort on one copy).
pub(crate) fn median_bandwidth(sel: &[Observation]) -> Option<f64> {
    let mut v: Vec<f64> = bandwidths(sel).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    stats::median_of_sorted(&v)
}

impl Predictor for MedianPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, history: &[Observation], now: u64) -> Option<f64> {
        median_bandwidth(self.window.select(history, now))
    }

    fn spec(&self) -> Option<PredictorSpec> {
        Some(PredictorSpec::Median(self.window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::testutil::history;

    #[test]
    fn med_all_name_and_value() {
        let p = MedianPredictor::new(Window::All);
        assert_eq!(p.name(), "MED");
        let h = history(&[1.0, 100.0, 2.0]);
        assert_eq!(p.predict(&h, 0), Some(2.0));
    }

    #[test]
    fn med5_window() {
        let p = MedianPredictor::new(Window::LastN(5));
        assert_eq!(p.name(), "MED5");
        let h = history(&[1e9, 1e9, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(p.predict(&h, 0), Some(3.0));
    }

    #[test]
    fn even_count_averages_middles() {
        let p = MedianPredictor::new(Window::All);
        let h = history(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.predict(&h, 0), Some(2.5));
    }

    #[test]
    fn outlier_rejection_vs_mean() {
        use crate::mean::MeanPredictor;
        let h = history(&[10.0, 10.5, 9.5, 10.2, 1e6]);
        let med = MedianPredictor::new(Window::All).predict(&h, 0).unwrap();
        let avg = MeanPredictor::new(Window::All).predict(&h, 0).unwrap();
        assert!(med < 11.0, "median stays near the mode");
        assert!(avg > 1e5, "mean dragged by the outlier");
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(MedianPredictor::new(Window::All).predict(&[], 0), None);
    }
}

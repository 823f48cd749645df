//! Mean-based predictors (§4.1): arithmetic average over a windowed
//! portion of history — `AVG`, `AVG5/15/25`, `AVG5hr/15hr/25hr`.

use crate::observation::Observation;
use crate::predictor::{mean_bandwidth, Predictor, PredictorSpec};
use crate::window::Window;

/// Arithmetic-mean predictor over a history window.
#[derive(Debug, Clone)]
pub struct MeanPredictor {
    name: String,
    window: Window,
}

impl MeanPredictor {
    /// Mean over the given window; the name follows the paper's
    /// convention (`AVG` + window suffix).
    pub fn new(window: Window) -> Self {
        MeanPredictor {
            name: format!("AVG{}", window.name_suffix()),
            window,
        }
    }

    /// The window in use.
    pub fn window(&self) -> Window {
        self.window
    }
}

impl Predictor for MeanPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, history: &[Observation], now: u64) -> Option<f64> {
        mean_bandwidth(self.window.select(history, now), None)
    }

    fn spec(&self) -> Option<PredictorSpec> {
        Some(PredictorSpec::Mean(self.window))
    }
}

/// Exponentially weighted moving average — not one of the paper's 15, but
/// a natural member of the mean family used in the extension experiments
/// (the NWS forecaster suite includes several EWMA gains).
#[derive(Debug, Clone)]
pub struct EwmaPredictor {
    name: String,
    alpha: f64,
}

impl EwmaPredictor {
    /// EWMA with gain `alpha` in `(0, 1]`: higher alpha weights recent
    /// values more.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        EwmaPredictor {
            name: format!("EWMA{:02}", (alpha * 100.0).round() as u32),
            alpha,
        }
    }
}

impl Predictor for EwmaPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, history: &[Observation], _now: u64) -> Option<f64> {
        let mut it = history.iter();
        let first = it.next()?;
        let mut est = first.bandwidth_kbs;
        for o in it {
            est = self.alpha * o.bandwidth_kbs + (1.0 - self.alpha) * est;
        }
        Some(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::testutil::{history, timed_history};

    #[test]
    fn avg_all_is_total_mean() {
        let h = history(&[1.0, 2.0, 3.0, 4.0]);
        let p = MeanPredictor::new(Window::All);
        assert_eq!(p.name(), "AVG");
        assert_eq!(p.predict(&h, 2_000), Some(2.5));
    }

    #[test]
    fn avg5_uses_last_five() {
        let h = history(&[100.0, 100.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let p = MeanPredictor::new(Window::LastN(5));
        assert_eq!(p.name(), "AVG5");
        assert_eq!(p.predict(&h, 2_000), Some(3.0));
    }

    #[test]
    fn avg_hours_window_by_time() {
        let h = timed_history(&[(0, 100.0), (3_600, 10.0), (7_200, 20.0)]);
        let p = MeanPredictor::new(Window::LastSeconds(2 * 3_600));
        // now = 7_201; cutoff = 1; keeps the 3600 and 7200 samples.
        assert_eq!(p.predict(&h, 7_201), Some(15.0));
    }

    #[test]
    fn empty_windowed_history_is_none() {
        let h = timed_history(&[(0, 100.0)]);
        let p = MeanPredictor::new(Window::LastSeconds(10));
        assert_eq!(p.predict(&h, 1_000), None);
        assert_eq!(p.predict(&[], 0), None);
    }

    #[test]
    fn ewma_weights_recent_values() {
        let h = history(&[10.0, 10.0, 10.0, 100.0]);
        let fast = EwmaPredictor::new(0.9).predict(&h, 0).unwrap();
        let slow = EwmaPredictor::new(0.1).predict(&h, 0).unwrap();
        assert!(fast > 90.0);
        assert!(slow < 30.0);
    }

    #[test]
    fn ewma_single_value_is_identity() {
        let h = history(&[42.0]);
        assert_eq!(EwmaPredictor::new(0.5).predict(&h, 0), Some(42.0));
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_zero_alpha() {
        let _ = EwmaPredictor::new(0.0);
    }
}

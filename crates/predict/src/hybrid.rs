//! Hybrid GridFTP + probe prediction — the paper's §7 future work,
//! implemented.
//!
//! The paper closes by proposing to "investigate using both basic
//! predictions on the sporadic data combined with more regular NWS
//! measurements and predictions for small regular data movement to
//! overcome the drawbacks of each approach in isolation", and to
//! "extrapolate data when there is no previous transfer data between two
//! sites" (citing Faerman et al.'s adaptive regression). Two estimators:
//!
//! * [`ConditionScaled`] — a classified GridFTP base prediction scaled by
//!   the ratio of the *current* probe reading to the probe's historical
//!   mean: probes are useless as absolute estimates (Figures 1–2) but
//!   informative as a *relative* load signal on the same path.
//! * [`ProbeRegression`] — ordinary least squares of transfer bandwidth
//!   on the nearest preceding probe reading; once fitted on one path it
//!   can be applied to a path with *no transfer history at all* given
//!   only that path's probes ([`ProbeRegression::cold_start`]).

use crate::classify::{filter_class, SizeClass};
use crate::observation::Observation;
use crate::stats;
use crate::window::Window;

/// One probe measurement `(unix seconds, bandwidth)` in any consistent
/// unit; only ratios and linear fits of the values are used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// Measurement time.
    pub at_unix: u64,
    /// Measured probe bandwidth.
    pub value: f64,
}

/// The probe value in effect at time `t`: the most recent measurement at
/// or before `t`. Probes must be time-sorted.
pub fn probe_at(probes: &[ProbePoint], t: u64) -> Option<f64> {
    let idx = probes.partition_point(|p| p.at_unix <= t);
    idx.checked_sub(1).map(|i| probes[i].value)
}

/// Mean of the `k` most recent probes at or before `t`.
pub fn recent_probe_mean(probes: &[ProbePoint], t: u64, k: usize) -> Option<f64> {
    let idx = probes.partition_point(|p| p.at_unix <= t);
    if idx == 0 {
        return None;
    }
    let start = idx.saturating_sub(k);
    let vals: Vec<f64> = probes[start..idx].iter().map(|p| p.value).collect();
    stats::mean(&vals)
}

/// Base-times-condition hybrid: classified GridFTP mean scaled by the
/// relative probe level.
#[derive(Debug, Clone)]
pub struct ConditionScaled {
    /// Window for the GridFTP base estimate (within the target's class).
    pub base_window: Window,
    /// Number of recent probes forming the "current conditions" reading.
    pub recent_probes: usize,
    /// Clamp on the condition factor, guarding against probe outliers.
    pub factor_clamp: (f64, f64),
}

impl Default for ConditionScaled {
    fn default() -> Self {
        ConditionScaled {
            base_window: Window::LastN(25),
            recent_probes: 3,
            factor_clamp: (0.5, 2.0),
        }
    }
}

impl ConditionScaled {
    /// Predict bandwidth for a transfer of `target_size` at `now`.
    ///
    /// Falls back to the unscaled base when probes are absent; returns
    /// `None` only when there is no class history at all.
    pub fn predict(
        &self,
        history: &[Observation],
        probes: &[ProbePoint],
        now: u64,
        target_size: u64,
    ) -> Option<f64> {
        let class = SizeClass::of_bytes(target_size);
        let class_history = filter_class(history, class);
        let sel = self.base_window.select(&class_history, now);
        let base = stats::mean(&sel.iter().map(|o| o.bandwidth_kbs).collect::<Vec<_>>())?;

        // Long-run probe level over the span the base estimate covers.
        let span_start = sel.first().map(|o| o.at_unix).unwrap_or(0);
        let long_run: Vec<f64> = probes
            .iter()
            .filter(|p| p.at_unix >= span_start && p.at_unix <= now)
            .map(|p| p.value)
            .collect();
        let (Some(long_mean), Some(recent)) = (
            stats::mean(&long_run),
            recent_probe_mean(probes, now, self.recent_probes),
        ) else {
            return Some(base);
        };
        if long_mean <= 0.0 {
            return Some(base);
        }
        let factor = (recent / long_mean).clamp(self.factor_clamp.0, self.factor_clamp.1);
        Some(base * factor)
    }
}

/// Linear regression of transfer bandwidth on the probe reading in
/// effect when each transfer started.
#[derive(Debug, Clone)]
pub struct ProbeRegression {
    /// Minimum matched pairs before the fit is trusted.
    pub min_points: usize,
}

impl Default for ProbeRegression {
    fn default() -> Self {
        ProbeRegression { min_points: 10 }
    }
}

/// A fitted probe→bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedRegression {
    /// Intercept (KB/s).
    pub a: f64,
    /// Slope (KB/s per probe unit).
    pub b: f64,
    /// Matched pairs used.
    pub n: usize,
}

impl ProbeRegression {
    /// Fit on a path's transfer history and probe series, optionally
    /// restricted to one size class.
    pub fn fit(
        &self,
        history: &[Observation],
        probes: &[ProbePoint],
        class: Option<SizeClass>,
    ) -> Option<FittedRegression> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for o in history {
            if let Some(c) = class {
                if SizeClass::of_bytes(o.file_size) != c {
                    continue;
                }
            }
            if let Some(p) = probe_at(probes, o.at_unix) {
                xs.push(p);
                ys.push(o.bandwidth_kbs);
            }
        }
        if xs.len() < self.min_points {
            return None;
        }
        let (a, b) = stats::ols(&xs, &ys)?;
        Some(FittedRegression { a, b, n: xs.len() })
    }

    /// Predict on the *same* path the model was fitted on.
    pub fn predict(
        &self,
        fitted: &FittedRegression,
        probes: &[ProbePoint],
        now: u64,
    ) -> Option<f64> {
        let p = probe_at(probes, now)?;
        Some((fitted.a + fitted.b * p).max(1e-6))
    }

    /// Cold start (Faerman-style extrapolation): apply a model fitted on
    /// one path to a *different* path for which only probes exist. The
    /// probe units must match; the estimate inherits the donor path's
    /// bandwidth scale, so it is a bootstrap, not a calibrated forecast.
    pub fn cold_start(
        &self,
        donor: &FittedRegression,
        target_probes: &[ProbePoint],
        now: u64,
    ) -> Option<f64> {
        self.predict(donor, target_probes, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PAPER_MB;

    fn probes(points: &[(u64, f64)]) -> Vec<ProbePoint> {
        points
            .iter()
            .map(|&(at_unix, value)| ProbePoint { at_unix, value })
            .collect()
    }

    fn obs(at: u64, bw: f64) -> Observation {
        Observation::new(at, bw, 100 * PAPER_MB)
    }

    #[test]
    fn probe_at_finds_most_recent() {
        let ps = probes(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert_eq!(probe_at(&ps, 5), None);
        assert_eq!(probe_at(&ps, 10), Some(1.0));
        assert_eq!(probe_at(&ps, 25), Some(2.0));
        assert_eq!(probe_at(&ps, 99), Some(3.0));
    }

    #[test]
    fn recent_mean_windows() {
        let ps = probes(&[(10, 1.0), (20, 2.0), (30, 6.0)]);
        assert_eq!(recent_probe_mean(&ps, 30, 2), Some(4.0));
        assert_eq!(recent_probe_mean(&ps, 30, 10), Some(3.0));
        assert_eq!(recent_probe_mean(&ps, 9, 3), None);
    }

    #[test]
    fn condition_scaling_tracks_probe_ratio() {
        // Transfers averaged 1000; probes historically 0.2, now 0.1
        // (halved): hybrid predicts ~500.
        let history: Vec<Observation> = (0..20).map(|i| obs(100 + i * 10, 1_000.0)).collect();
        let mut ps: Vec<ProbePoint> = (0..30)
            .map(|i| ProbePoint {
                at_unix: 100 + i * 10,
                value: 0.2,
            })
            .collect();
        for p in ps.iter_mut().rev().take(3) {
            p.value = 0.1;
        }
        let h = ConditionScaled::default();
        let pred = h
            .predict(&history, &ps, 400, 100 * PAPER_MB)
            .expect("history exists");
        assert!((pred - 1_000.0 * (0.1 / 0.19)).abs() < 60.0, "pred {pred}");
        assert!(pred < 700.0);
    }

    #[test]
    fn condition_scaling_clamps_extremes() {
        let history: Vec<Observation> = (0..20).map(|i| obs(100 + i * 10, 1_000.0)).collect();
        let mut ps: Vec<ProbePoint> = (0..30)
            .map(|i| ProbePoint {
                at_unix: 100 + i * 10,
                value: 0.2,
            })
            .collect();
        // Ludicrous probe spike.
        ps.last_mut().unwrap().value = 100.0;
        let h = ConditionScaled {
            recent_probes: 1,
            ..ConditionScaled::default()
        };
        let pred = h.predict(&history, &ps, 400, 100 * PAPER_MB).unwrap();
        assert!((pred - 2_000.0).abs() < 100.0, "clamped at 2x: {pred}");
    }

    #[test]
    fn no_probes_falls_back_to_base() {
        let history: Vec<Observation> = (0..20).map(|i| obs(100 + i * 10, 1_000.0)).collect();
        let h = ConditionScaled::default();
        assert_eq!(h.predict(&history, &[], 400, 100 * PAPER_MB), Some(1_000.0));
    }

    #[test]
    fn no_class_history_is_none() {
        let h = ConditionScaled::default();
        assert_eq!(h.predict(&[], &[], 400, 100 * PAPER_MB), None);
    }

    #[test]
    fn regression_recovers_linear_relation() {
        // bw = 500 + 5000 * probe, probes varying.
        let ps: Vec<ProbePoint> = (0..40)
            .map(|i| ProbePoint {
                at_unix: i * 100,
                value: 0.1 + 0.01 * (i % 10) as f64,
            })
            .collect();
        let history: Vec<Observation> = (0..40)
            .map(|i| {
                let p = probe_at(&ps, i * 100 + 1).unwrap();
                obs(i * 100 + 1, 500.0 + 5_000.0 * p)
            })
            .collect();
        let reg = ProbeRegression::default();
        let fitted = reg.fit(&history, &ps, None).expect("enough pairs");
        assert!((fitted.a - 500.0).abs() < 1e-6, "{fitted:?}");
        assert!((fitted.b - 5_000.0).abs() < 1e-6);
        let pred = reg.predict(&fitted, &ps, 4_500).unwrap();
        let expect = 500.0 + 5_000.0 * probe_at(&ps, 4_500).unwrap();
        assert!((pred - expect).abs() < 1e-6);
    }

    #[test]
    fn regression_needs_enough_points() {
        let ps = probes(&[(0, 0.1), (10, 0.2)]);
        let history = vec![obs(1, 100.0), obs(11, 200.0)];
        assert!(ProbeRegression::default()
            .fit(&history, &ps, None)
            .is_none());
    }

    #[test]
    fn cold_start_uses_target_probes() {
        let donor = FittedRegression {
            a: 100.0,
            b: 10_000.0,
            n: 50,
        };
        let target_ps = probes(&[(0, 0.3)]);
        let reg = ProbeRegression::default();
        let pred = reg.cold_start(&donor, &target_ps, 5).unwrap();
        assert!((pred - 3_100.0).abs() < 1e-9);
        assert!(reg.cold_start(&donor, &[], 5).is_none());
    }

    #[test]
    fn class_filtered_fit_ignores_other_classes() {
        let ps: Vec<ProbePoint> = (0..40)
            .map(|i| ProbePoint {
                at_unix: i * 100,
                value: 0.1 + 0.005 * (i % 8) as f64,
            })
            .collect();
        let mut history = Vec::new();
        for i in 0..40u64 {
            let p = probe_at(&ps, i * 100 + 1).unwrap();
            // 100MB class follows the line; 10MB class is garbage.
            history.push(Observation {
                at_unix: i * 100 + 1,
                bandwidth_kbs: 500.0 + 5_000.0 * p,
                file_size: 100 * PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            });
            history.push(Observation {
                at_unix: i * 100 + 2,
                bandwidth_kbs: 77_777.0,
                file_size: PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            });
        }
        let reg = ProbeRegression::default();
        let fitted = reg
            .fit(&history, &ps, Some(SizeClass::C100MB))
            .expect("enough pairs");
        assert!((fitted.b - 5_000.0).abs() < 1e-6, "{fitted:?}");
    }
}

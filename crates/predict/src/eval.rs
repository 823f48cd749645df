//! Replay evaluation of predictors against a transfer log (§6.2).
//!
//! The evaluator walks the observation series in time order. Once the
//! training set (15 values, §6.1) is in the log, every subsequent
//! transfer becomes a prediction target: each predictor sees the history
//! strictly before the target and its absolute percentage error
//! `|measured − predicted| / measured × 100` is recorded, grouped by the
//! target's file-size class. Relative performance (Figures 14–21) tallies
//! how often each predictor was the best or the worst on a transfer.

use serde::Serialize;

use crate::classify::SizeClass;
use crate::observation::Observation;
use crate::registry::NamedPredictor;
use crate::stats;

/// Evaluation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Number of log values that must exist before predictions begin
    /// (the paper's 15-value training set — counted over the *whole* log,
    /// not per class, exactly as §6.1 specifies).
    pub training: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { training: 15 }
    }
}

/// One prediction attempt on one target transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PredictionOutcome {
    /// Target transfer start time.
    pub at_unix: u64,
    /// Measured bandwidth (KB/s).
    pub measured: f64,
    /// Predicted bandwidth (KB/s).
    pub predicted: f64,
    /// The target's size class.
    pub class: SizeClass,
}

impl PredictionOutcome {
    /// Absolute percentage error of this prediction. `None` when the
    /// measured bandwidth is zero: a percentage of nothing is
    /// undefined, and every error aggregate in this crate (MAPE,
    /// percentiles, RMSPE, relative tallies) shares this convention by
    /// excluding such targets rather than propagating an infinity into
    /// sorts and means.
    pub fn abs_pct_error(&self) -> Option<f64> {
        // tidy: allow(float-eq): 0.0 is the exact "no measurement" sentinel this convention is built on
        if self.measured == 0.0 {
            return None;
        }
        Some((self.measured - self.predicted).abs() / self.measured.abs() * 100.0)
    }
}

/// All outcomes of one predictor over a replay.
#[derive(Debug, Clone, Serialize)]
pub struct PredictorReport {
    /// Predictor display name.
    pub name: String,
    /// One outcome per target the predictor could answer.
    pub outcomes: Vec<PredictionOutcome>,
    /// Targets the predictor declined (insufficient windowed history).
    pub declined: usize,
}

impl PredictorReport {
    /// Mean absolute percentage error over all answered targets.
    pub fn mape(&self) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = self
            .outcomes
            .iter()
            .map(|o| (o.measured, o.predicted))
            .collect();
        stats::mape(&pairs)
    }

    /// Mean absolute percentage error over targets of one size class.
    pub fn mape_for_class(&self, class: SizeClass) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = self
            .outcomes
            .iter()
            .filter(|o| o.class == class)
            .map(|o| (o.measured, o.predicted))
            .collect();
        stats::mape(&pairs)
    }

    /// Number of answered targets in a class.
    pub fn count_for_class(&self, class: SizeClass) -> usize {
        self.outcomes.iter().filter(|o| o.class == class).count()
    }

    /// The `p`-th percentile of the absolute percentage errors (e.g.
    /// `50.0` = median error, `90.0` = tail error). NWS-style systems
    /// report such error estimates next to every forecast so consumers
    /// can weigh predictions; `None` when nothing was answered.
    pub fn error_percentile(&self, p: f64) -> Option<f64> {
        let errs: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(PredictionOutcome::abs_pct_error)
            .collect();
        stats::percentile(&errs, p)
    }

    /// The `p`-th error percentile over targets of one size class.
    pub fn error_percentile_for_class(&self, class: SizeClass, p: f64) -> Option<f64> {
        let errs: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.class == class)
            .filter_map(PredictionOutcome::abs_pct_error)
            .collect();
        stats::percentile(&errs, p)
    }

    /// Root-mean-square percentage error (penalizes large misses harder
    /// than MAPE; useful when a broker cares about worst cases).
    pub fn rmspe(&self) -> Option<f64> {
        let sq: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.abs_pct_error().map(|e| e * e))
            .collect();
        stats::mean(&sq).map(f64::sqrt)
    }
}

/// Relative best/worst tallies for one predictor (Figures 14–21).
#[derive(Debug, Clone, PartialEq)]
pub struct RelativeReport {
    /// Predictor display name.
    pub name: String,
    /// Percentage of targets on which this predictor had the (possibly
    /// tied) lowest absolute error.
    pub best_pct: f64,
    /// Percentage of targets on which it had the (possibly tied) highest
    /// absolute error.
    pub worst_pct: f64,
    /// Number of targets considered.
    pub targets: usize,
}

/// Compute best/worst percentages over a replay, optionally restricted to
/// one size class. Only targets every predictor answered are compared
/// (so the tallies are over a common denominator, as in the paper's
/// per-class figures). Ties within `tie_eps` relative error are awarded
/// to all tied predictors.
pub fn relative_performance(
    series: &[Observation],
    predictors: &[NamedPredictor],
    opts: EvalOptions,
    class: Option<SizeClass>,
) -> Vec<RelativeReport> {
    let mut best = vec![0usize; predictors.len()];
    let mut worst = vec![0usize; predictors.len()];
    let mut targets = 0usize;
    let tie_eps = 1e-9;

    for i in opts.training..series.len() {
        let target = &series[i];
        // tidy: allow(float-eq): mirrors abs_pct_error's exact zero-measurement sentinel
        if target.bandwidth_kbs == 0.0 {
            continue;
        }
        if let Some(c) = class {
            if SizeClass::of_bytes(target.file_size) != c {
                continue;
            }
        }
        let history = &series[..i];
        let mut errs = Vec::with_capacity(predictors.len());
        let mut all_answered = true;
        for p in predictors {
            match p.predict(history, target.at_unix, target.file_size) {
                Some(pred) => {
                    errs.push((target.bandwidth_kbs - pred).abs() / target.bandwidth_kbs);
                }
                None => {
                    all_answered = false;
                    break;
                }
            }
        }
        if !all_answered {
            continue;
        }
        targets += 1;
        let lo = errs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = errs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (j, &e) in errs.iter().enumerate() {
            if e <= lo + tie_eps {
                best[j] += 1;
            }
            if e >= hi - tie_eps {
                worst[j] += 1;
            }
        }
    }

    predictors
        .iter()
        .enumerate()
        .map(|(j, p)| RelativeReport {
            name: p.name().to_string(),
            best_pct: if targets == 0 {
                0.0
            } else {
                best[j] as f64 / targets as f64 * 100.0
            },
            worst_pct: if targets == 0 {
                0.0
            } else {
                worst[j] as f64 / targets as f64 * 100.0
            },
            targets,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PAPER_MB;
    use crate::last::LastValue;
    use crate::mean::MeanPredictor;
    use crate::registry::{full_suite, paper_suite, NamedPredictor};
    use crate::testing::slice_replay as evaluate;
    use crate::window::Window;

    fn flat_series(n: usize, bw: f64) -> Vec<Observation> {
        (0..n)
            .map(|i| Observation {
                at_unix: 1_000_000 + i as u64 * 600,
                bandwidth_kbs: bw,
                file_size: 100 * PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect()
    }

    #[test]
    fn perfect_predictors_on_constant_series() {
        let series = flat_series(40, 5_000.0);
        let reports = evaluate(&series, &full_suite(), EvalOptions::default());
        for r in &reports {
            // Temporal windows cover the whole series (10-minute gaps), so
            // every predictor answers every target and is exact.
            assert_eq!(r.outcomes.len(), 25, "{}", r.name);
            assert!(r.mape().unwrap() < 1e-9, "{} mape", r.name);
        }
    }

    #[test]
    fn training_set_is_honored() {
        let series = flat_series(20, 1.0);
        let reports = evaluate(&series, &paper_suite(false), EvalOptions { training: 15 });
        assert_eq!(reports[0].outcomes.len(), 5);
        let reports = evaluate(&series, &paper_suite(false), EvalOptions { training: 19 });
        assert_eq!(reports[0].outcomes.len(), 1);
        let reports = evaluate(&series, &paper_suite(false), EvalOptions { training: 20 });
        assert_eq!(reports[0].outcomes.len(), 0);
    }

    #[test]
    fn outcome_error_formula() {
        let o = PredictionOutcome {
            at_unix: 0,
            measured: 200.0,
            predicted: 150.0,
            class: SizeClass::C10MB,
        };
        assert!((o.abs_pct_error().unwrap() - 25.0).abs() < 1e-12);
        let zero = PredictionOutcome {
            at_unix: 0,
            measured: 0.0,
            predicted: 150.0,
            class: SizeClass::C10MB,
        };
        assert_eq!(zero.abs_pct_error(), None);
    }

    #[test]
    fn mape_per_class_separates() {
        // Alternate classes with different predictability.
        let mut series = Vec::new();
        for i in 0..60 {
            let small = i % 2 == 0;
            series.push(Observation {
                at_unix: 1_000 + i as u64,
                bandwidth_kbs: if small {
                    // noisy small transfers
                    if i % 4 == 0 {
                        100.0
                    } else {
                        300.0
                    }
                } else {
                    5_000.0 // perfectly stable large transfers
                },
                file_size: if small { PAPER_MB } else { 1000 * PAPER_MB },
                streams: 1,
                tcp_buffer: 0,
            });
        }
        let preds = paper_suite(true);
        let reports = evaluate(&series, &preds, EvalOptions::default());
        let lv = reports.iter().find(|r| r.name == "LV+C").unwrap();
        let huge = lv.mape_for_class(SizeClass::C1GB).unwrap();
        let small = lv.mape_for_class(SizeClass::C10MB).unwrap();
        assert!(huge < 1e-9, "stable class exactly predicted: {huge}");
        assert!(small > 20.0, "noisy class poorly predicted: {small}");
    }

    #[test]
    fn error_percentiles_and_rmspe() {
        let mk = |measured: f64, predicted: f64| PredictionOutcome {
            at_unix: 0,
            measured,
            predicted,
            class: SizeClass::C10MB,
        };
        let report = PredictorReport {
            name: "t".into(),
            // Errors: 10%, 20%, 30%, 40%.
            outcomes: vec![
                mk(100.0, 90.0),
                mk(100.0, 80.0),
                mk(100.0, 70.0),
                mk(100.0, 60.0),
            ],
            declined: 0,
        };
        assert!((report.error_percentile(0.0).unwrap() - 10.0).abs() < 1e-9);
        assert!((report.error_percentile(100.0).unwrap() - 40.0).abs() < 1e-9);
        assert!((report.error_percentile(50.0).unwrap() - 25.0).abs() < 1e-9);
        // RMSPE = sqrt((100+400+900+1600)/4) = sqrt(750).
        assert!((report.rmspe().unwrap() - 750.0f64.sqrt()).abs() < 1e-9);
        // RMSPE >= MAPE always (Jensen).
        assert!(report.rmspe().unwrap() >= report.mape().unwrap());
        let empty = PredictorReport {
            name: "e".into(),
            outcomes: vec![],
            declined: 3,
        };
        assert_eq!(empty.error_percentile(50.0), None);
        assert_eq!(empty.rmspe(), None);
        // Class-filtered percentile only sees its class.
        assert_eq!(
            report.error_percentile_for_class(SizeClass::C10MB, 100.0),
            report.error_percentile(100.0)
        );
        assert_eq!(
            report.error_percentile_for_class(SizeClass::C1GB, 50.0),
            None
        );
    }

    #[test]
    fn zero_bandwidth_observation_keeps_error_aggregates_finite() {
        // Regression: a dead transfer (0 KB/s) in the replay used to
        // contribute an infinite percentage error to the percentile
        // sort. The shared convention now excludes it everywhere.
        let mut series = flat_series(40, 5_000.0);
        series[20].bandwidth_kbs = 0.0;
        let reports = evaluate(&series, &full_suite(), EvalOptions::default());
        for r in &reports {
            // The zero-measured target is still predicted (history is
            // non-empty) — it is the *aggregates* that must skip it.
            assert_eq!(r.outcomes.len(), 25, "{}", r.name);
            for p in [0.0, 50.0, 90.0, 100.0] {
                let e = r.error_percentile(p).unwrap();
                assert!(e.is_finite(), "{} p{}: {}", r.name, p, e);
            }
            assert!(r.rmspe().unwrap().is_finite(), "{}", r.name);
            assert!(r.mape().unwrap().is_finite(), "{}", r.name);
        }
    }

    #[test]
    fn relative_tallies_sum_sensibly() {
        // Two predictors with opposite behaviour on an alternating series:
        // LV is perfect when values repeat; AVG lags.
        let mut series = Vec::new();
        for i in 0..50 {
            series.push(Observation {
                at_unix: 1_000 + i as u64,
                bandwidth_kbs: if i < 25 { 100.0 } else { 900.0 },
                file_size: 100 * PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            });
        }
        let preds = vec![
            NamedPredictor::new(Box::new(LastValue::new()), false),
            NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false),
        ];
        let rel = relative_performance(&series, &preds, EvalOptions::default(), None);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel[0].targets, 35);
        // Every target has a best and a worst; with 2 predictors,
        // best% + worst% >= 100 for each... actually each target awards
        // exactly one best and one worst (or both to both if tied).
        let total_best: f64 = rel.iter().map(|r| r.best_pct).sum();
        assert!(total_best >= 100.0 - 1e-9);
        // LV should dominate on this regime-switching series.
        assert!(rel[0].best_pct > rel[1].best_pct, "{rel:?}");
    }

    #[test]
    fn relative_class_filter_restricts_targets() {
        let mut series = flat_series(40, 100.0);
        // Make ten of them 1 GB targets.
        for o in series.iter_mut().skip(30) {
            o.file_size = 1000 * PAPER_MB;
        }
        let preds = paper_suite(false);
        let rel = relative_performance(
            &series,
            &preds,
            EvalOptions::default(),
            Some(SizeClass::C1GB),
        );
        assert_eq!(rel[0].targets, 10);
    }

    #[test]
    fn zero_measured_targets_are_skipped_in_relative() {
        let mut series = flat_series(20, 100.0);
        series[17].bandwidth_kbs = 0.0;
        let preds = vec![NamedPredictor::new(Box::new(LastValue::new()), false)];
        let rel = relative_performance(&series, &preds, EvalOptions::default(), None);
        assert_eq!(rel[0].targets, 4);
    }
}

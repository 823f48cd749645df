//! Reference implementations the differential tests hold the product
//! to. Not API: only test targets (`#[cfg(test)]` modules, `tests/`)
//! import this module.

use crate::classify::SizeClass;
use crate::eval::{EvalOptions, PredictorReport};
use crate::incremental::replay_slices;
use crate::observation::Observation;
use crate::predictor::Predictor;
use crate::registry::{predictor_for_spec, NamedPredictor};

/// §6.2 replayed literally: every predictor derives every prediction
/// from the full history prefix. Quadratic in the series length but
/// trivially auditable against the paper, which is what makes it the
/// oracle for [`Evaluation`](crate::evaluation::Evaluation)'s
/// rolling-state engine.
pub fn slice_replay(
    series: &[Observation],
    predictors: &[NamedPredictor],
    opts: EvalOptions,
) -> Vec<PredictorReport> {
    let classes: Vec<SizeClass> = series
        .iter()
        .map(|o| SizeClass::of_bytes(o.file_size))
        .collect();
    predictors
        .iter()
        .map(|p| replay_slices(series, &classes, p, opts))
        .collect()
}

/// A predictor answering exactly as the one it wraps while reporting no
/// [`PredictorSpec`](crate::predictor::PredictorSpec), as a custom
/// predictor does.
pub struct SpecHidden(pub Box<dyn Predictor>);

impl Predictor for SpecHidden {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn predict(&self, history: &[Observation], now: u64) -> Option<f64> {
        self.0.predict(history, now)
    }

    fn predict_sized(&self, history: &[Observation], now: u64, target_size: u64) -> Option<f64> {
        self.0.predict_sized(history, now, target_size)
    }
}

/// `suite` with every standard candidate behind [`SpecHidden`]. A
/// [`Tournament`](crate::tournament::Tournament) over it runs each
/// candidate's own slice-based `predict_sized` — the path it keeps for
/// custom predictors — which makes the same `Tournament` the oracle for
/// its by-spec accumulator path.
pub fn hide_specs(suite: Vec<NamedPredictor>) -> Vec<NamedPredictor> {
    suite
        .into_iter()
        .map(|p| match p.spec() {
            Some(spec) => NamedPredictor::new(
                Box::new(SpecHidden(predictor_for_spec(spec))),
                p.is_classified(),
            ),
            None => p,
        })
        .collect()
}

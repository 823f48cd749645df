//! Reference implementations the differential tests hold the product
//! to. Not API: only test targets (`#[cfg(test)]` modules, `tests/`)
//! import this module.

use crate::classify::SizeClass;
use crate::eval::{EvalOptions, PredictorReport};
use crate::incremental::replay_slices;
use crate::observation::Observation;
use crate::registry::NamedPredictor;

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

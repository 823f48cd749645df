//! The unified evaluation front door.
//!
//! Every way of scoring a predictor suite against a history funnels
//! through [`Evaluation`]: pick a suite, options and an optional
//! [`ObsSink`], then [`run`](Evaluation::run) a series,
//! [`run_log`](Evaluation::run_log) a whole transfer log or
//! [`run_ulm`](Evaluation::run_ulm) a ULM document. There is one replay
//! engine — the rolling-state walk of [`crate::incremental`]; the
//! slice-based walk that restates §6.2 literally survives only as the
//! differential tests' oracle (`crate::testing`).
//!
//! ```
//! use wanpred_predict::prelude::*;
//!
//! let series: Vec<Observation> = (0..40)
//!     .map(|i| Observation {
//!         at_unix: 1_000 + i * 600,
//!         bandwidth_kbs: 4_000.0,
//!         file_size: 100 * PAPER_MB,
//! streams: 1,
//! tcp_buffer: 0,
//!     })
//!     .collect();
//! let eval = Evaluation::builder().suite(paper_suite(false)).build();
//! let reports = eval.run(&series);
//! assert_eq!(reports.len(), 15);
//! assert!(reports[0].mape().unwrap() < 1e-9);
//! ```

use wanpred_logfmt::{LogError, TransferLog};
use wanpred_obs::{names, ObsSink};

use crate::eval::{EvalOptions, PredictorReport};
use crate::incremental::incremental_replay;
use crate::observation::{observations_from_log, observations_from_ulm, sort_by_time, Observation};
use crate::registry::{full_suite, NamedPredictor};

/// A configured predictor evaluation: suite + options + sink.
///
/// Build one with [`Evaluation::builder`], then replay it over as many
/// series or logs as needed — the value is immutable and reusable.
#[derive(Debug)]
pub struct Evaluation {
    predictors: Vec<NamedPredictor>,
    opts: EvalOptions,
    obs: ObsSink,
}

impl Evaluation {
    /// Start building an evaluation. Defaults: the full 30-variant
    /// paper suite, [`EvalOptions::default`] (15-value training set),
    /// observability disabled.
    pub fn builder() -> EvaluationBuilder {
        EvaluationBuilder {
            predictors: None,
            opts: EvalOptions::default(),
            obs: ObsSink::disabled(),
        }
    }

    /// The suite this evaluation replays, in report order.
    pub fn predictors(&self) -> &[NamedPredictor] {
        &self.predictors
    }

    /// Replay a time-ordered series through the configured suite.
    ///
    /// The series must be sorted by `at_unix`; use
    /// [`crate::observation::sort_by_time`] if unsure (or
    /// [`run_log`](Evaluation::run_log), which sorts for you).
    pub fn run(&self, series: &[Observation]) -> Vec<PredictorReport> {
        Self::replay(series, &self.predictors, self.opts, &self.obs)
    }

    /// Extract the observation series from a transfer log, sort it by
    /// start time, and [`run`](Evaluation::run) it.
    pub fn run_log(&self, log: &TransferLog) -> Vec<PredictorReport> {
        let mut series = observations_from_log(log);
        sort_by_time(&mut series);
        self.run(&series)
    }

    /// Parse a ULM document straight into observations (the zero-copy
    /// ingest path, [`observations_from_ulm`]), sort by start time, and
    /// [`run`](Evaluation::run) it. Produces reports identical to
    /// loading the document into a [`TransferLog`] first and calling
    /// [`run_log`](Evaluation::run_log), without materialising the log.
    pub fn run_ulm(&self, doc: &str) -> Result<Vec<PredictorReport>, LogError> {
        let mut series = observations_from_ulm(doc)?;
        sort_by_time(&mut series);
        Ok(self.run(&series))
    }

    /// The borrowed-suite core every entry point funnels through:
    /// replay `series`, then emit `predict.eval.*` metrics to `obs`.
    ///
    /// Metrics are emitted sequentially *after* the (possibly
    /// parallel) replay, so same-seed runs produce byte-identical
    /// snapshots regardless of thread scheduling.
    pub fn replay(
        series: &[Observation],
        predictors: &[NamedPredictor],
        opts: EvalOptions,
        obs: &ObsSink,
    ) -> Vec<PredictorReport> {
        let reports = incremental_replay(series, predictors, opts);
        if obs.is_enabled() {
            obs.gauge(names::PREDICT_EVAL_PREDICTORS, predictors.len() as f64);
            obs.inc_by(
                names::PREDICT_EVAL_TARGETS,
                series.len().saturating_sub(opts.training) as u64,
            );
            let predictions: u64 = reports.iter().map(|r| r.outcomes.len() as u64).sum();
            let declined: u64 = reports.iter().map(|r| r.declined as u64).sum();
            obs.inc_by(names::PREDICT_EVAL_PREDICTIONS, predictions);
            obs.inc_by(names::PREDICT_EVAL_DECLINED, declined);
            if let (Some(first), Some(last)) = (series.first(), series.last()) {
                // The replay span covers the series' own time range:
                // evaluation is an offline walk over history, so its
                // "duration" is the span of log time it replayed.
                obs.span_enter(names::PREDICT_EVAL_REPLAY, first.at_unix * 1_000_000);
                obs.span_exit(names::PREDICT_EVAL_REPLAY, last.at_unix * 1_000_000);
            }
        }
        reports
    }
}

/// Builder for [`Evaluation`]; see [`Evaluation::builder`].
#[derive(Debug)]
pub struct EvaluationBuilder {
    predictors: Option<Vec<NamedPredictor>>,
    opts: EvalOptions,
    obs: ObsSink,
}

impl EvaluationBuilder {
    /// Use this predictor suite (replaces any previous selection).
    pub fn suite(mut self, predictors: Vec<NamedPredictor>) -> Self {
        self.predictors = Some(predictors);
        self
    }

    /// Set the training-set size (the paper's 15-value default).
    pub fn training(mut self, training: usize) -> Self {
        self.opts.training = training;
        self
    }

    /// Emit `predict.eval.*` metrics to this sink during replays.
    pub fn obs(mut self, sink: ObsSink) -> Self {
        self.obs = sink;
        self
    }

    /// Finish the builder. An unset suite defaults to the paper's full
    /// 30-variant suite ([`full_suite`]).
    pub fn build(self) -> Evaluation {
        Evaluation {
            predictors: self.predictors.unwrap_or_else(full_suite),
            opts: self.opts,
            obs: self.obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PAPER_MB;
    use crate::mean::EwmaPredictor;
    use crate::registry::paper_suite;
    use wanpred_logfmt::sample_record;

    fn series(n: usize) -> Vec<Observation> {
        (0..n)
            .map(|i| Observation {
                at_unix: 1_000 + i as u64 * 300,
                bandwidth_kbs: 2_000.0 + (i as f64 * 17.3) % 400.0,
                file_size: 100 * PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect()
    }

    #[test]
    fn defaults_are_full_suite_incremental() {
        let eval = Evaluation::builder().build();
        assert_eq!(eval.predictors().len(), 30);
        // The 15-value training prefix leaves 5 of 20 values as targets.
        let reports = eval.run(&series(20));
        assert_eq!(reports[0].outcomes.len() + reports[0].declined, 5);
    }

    #[test]
    fn engines_agree_on_reports() {
        let s = series(60);
        let naive = crate::testing::slice_replay(&s, &paper_suite(false), EvalOptions::default());
        let inc = Evaluation::builder()
            .suite(paper_suite(false))
            .build()
            .run(&s);
        assert_eq!(naive.len(), inc.len());
        for (n, i) in naive.iter().zip(&inc) {
            assert_eq!(n.name, i.name);
            assert_eq!(n.outcomes.len(), i.outcomes.len());
            assert_eq!(n.declined, i.declined);
        }
    }

    #[test]
    fn single_predictor_and_training_override() {
        let s = series(25);
        let reports = Evaluation::builder()
            .suite(vec![NamedPredictor::new(
                Box::new(EwmaPredictor::new(0.5)),
                false,
            )])
            .training(20)
            .build()
            .run(&s);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcomes.len() + reports[0].declined, 5);
    }

    #[test]
    fn run_log_sorts_before_replaying() {
        let mut log = TransferLog::new();
        // Deliberately out of order; 20 records, 600 s apart.
        for i in (0..20u64).rev() {
            let mut r = sample_record();
            r.start_unix = 1_000 + i * 600;
            r.end_unix = r.start_unix + 4;
            log.append(r);
        }
        let reports = Evaluation::builder()
            .suite(paper_suite(false))
            .training(15)
            .build()
            .run_log(&log);
        // 5 targets after training; a constant-bandwidth log is exact.
        assert_eq!(reports[0].outcomes.len(), 5);
        assert!(reports[0].mape().unwrap() < 1e-9);
    }

    #[test]
    fn run_ulm_matches_run_log() {
        let mut log = TransferLog::new();
        for i in 0..25u64 {
            let mut r = sample_record();
            r.start_unix = 1_000 + i * 600;
            r.end_unix = r.start_unix + 4;
            r.total_time_s = 3.5 + (i as f64 * 0.37) % 2.0;
            log.append(r);
        }
        let eval = Evaluation::builder().suite(paper_suite(false)).build();
        let via_log = eval.run_log(&log);
        let via_ulm = eval.run_ulm(&log.to_ulm_string()).expect("own encoding");
        assert_eq!(via_log.len(), via_ulm.len());
        for (a, b) in via_log.iter().zip(&via_ulm) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.declined, b.declined);
        }
        assert!(eval.run_ulm("definitely not ULM\n").is_err());
    }

    #[test]
    fn replay_emits_metrics_to_sink() {
        let sink = ObsSink::enabled();
        let s = series(40);
        let eval = Evaluation::builder()
            .suite(paper_suite(false))
            .obs(sink.clone())
            .build();
        let reports = eval.run(&s);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(names::PREDICT_EVAL_TARGETS), 25);
        let predictions: u64 = reports.iter().map(|r| r.outcomes.len() as u64).sum();
        let declined: u64 = reports.iter().map(|r| r.declined as u64).sum();
        assert_eq!(snap.counter(names::PREDICT_EVAL_PREDICTIONS), predictions);
        assert_eq!(snap.counter(names::PREDICT_EVAL_DECLINED), declined);
        assert_eq!(snap.gauge(names::PREDICT_EVAL_PREDICTORS), Some(15.0));
        let h = snap.histogram(names::PREDICT_EVAL_REPLAY).unwrap();
        assert_eq!(h.count, 1);
        // 39 gaps of 300 s, in microseconds.
        assert_eq!(h.sum, 39 * 300 * 1_000_000);
    }

    #[test]
    fn disabled_sink_emits_nothing() {
        let eval = Evaluation::builder().suite(paper_suite(false)).build();
        let _ = eval.run(&series(40));
        // Nothing to assert on the sink itself (it is null); the point
        // is that the replay ran without a registry allocation.
        assert!(!ObsSink::disabled().is_enabled());
    }
}

//! NaN robustness of the replay path.
//!
//! A fault-injected or corrupt log can yield a NaN bandwidth observation
//! (e.g. a zero-duration or unparsable record). Every predictor sort used
//! to order on `partial_cmp().expect(..)`, so one such observation
//! aborted the whole 30-predictor replay. The sorts are now
//! `f64::total_cmp` — these regressions feed NaN all the way through
//! the full log replay and must complete without panicking.

use wanpred_core::prelude::*;
use wanpred_logfmt::sample_record;

/// A log of `n` well-formed records on one (source, host) pair, with a
/// NaN-bandwidth record spliced in after the training window so it is
/// both an evaluation target and part of later histories.
fn log_with_nan(n: usize) -> TransferLog {
    let mut log = TransferLog::new();
    for i in 0..n {
        let mut r = sample_record();
        r.start_unix += (i as u64) * 600;
        r.end_unix = r.start_unix + 110;
        r.file_size = 1_000_000_000 + (i as u64 % 7) * 50_000_000;
        if i == 20 {
            // bandwidth_kbs() = size / NaN = NaN.
            r.total_time_s = f64::NAN;
        }
        log.append(r);
    }
    log
}

#[test]
fn evaluate_log_survives_a_nan_observation() {
    let log = log_with_nan(40);
    let eval = Evaluation::builder().build();
    let reports = eval.run_log(&log);
    assert_eq!(reports.len(), eval.predictors().len());
    assert!(!reports.is_empty());
    // The evaluation saw targets on both sides of the NaN record.
    assert!(reports.iter().any(|r| !r.outcomes.is_empty()));
}

#[test]
fn tournament_survives_a_nan_observation() {
    let mut t = Tournament::with_default_suite(TournamentOptions::default());
    for i in 0..30u64 {
        let mut bw = 5_000.0 + (i % 5) as f64 * 100.0;
        if i == 12 {
            bw = f64::NAN;
        }
        t.observe(Observation {
            at_unix: 996_642_000 + i * 600,
            file_size: 1_000_000_000,
            bandwidth_kbs: bw,
            streams: 1,
            tcp_buffer: 0,
        });
    }
    // Ranking by rolling MAPE must stay total even though every
    // candidate's history, the regression family's included, is
    // NaN-tainted; prediction must not panic.
    let _ = t.predict(996_642_000 + 31 * 600, 1_000_000_000);
}

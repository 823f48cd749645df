//! Per-figure data computation: everything the paper's evaluation section
//! reports, derived from campaign results.
//!
//! Each `figXX_*` function returns plain data structures; the rendering
//! to text tables lives in [`crate::report`], and `wanpred figure ID`
//! runs each one.

use wanpred_logfmt::Operation;
use wanpred_predict::prelude::*;

use crate::campaign::{CampaignResult, Pair};

/// Extract the prediction-ready observation series for a pair (read
/// transfers by the ANL client, time-ordered).
pub fn observation_series(result: &CampaignResult, pair: Pair) -> Vec<Observation> {
    let mut obs: Vec<Observation> = result
        .log(pair)
        .records()
        .iter()
        .filter(|r| r.operation == Operation::Read)
        .map(Observation::from_record)
        .collect();
    sort_by_time(&mut obs);
    obs
}

/// Figures 1–2: the GridFTP and NWS bandwidth series for one pair, in
/// MB/s against Unix time.
#[derive(Debug, Clone)]
pub struct Fig0102Series {
    /// Pair label.
    pub pair: String,
    /// `(unix, MB/s)` for every GridFTP transfer.
    pub gridftp: Vec<(u64, f64)>,
    /// `(unix, MB/s)` for every NWS probe.
    pub nws: Vec<(u64, f64)>,
}

/// Compute the Figures 1–2 series.
pub fn fig01_02(result: &CampaignResult, pair: Pair) -> Fig0102Series {
    let gridftp = result
        .log(pair)
        .records()
        .iter()
        .map(|r| (r.start_unix, r.bandwidth_mbs()))
        .collect();
    let nws = result
        .probes(pair)
        .iter()
        .map(|p| (result.epoch_unix + p.at.as_secs(), p.bandwidth_mbs()))
        .collect();
    Fig0102Series {
        pair: pair.label().to_string(),
        gridftp,
        nws,
    }
}

/// Figure 7: transfer counts overall and per size class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig07Counts {
    /// Pair label.
    pub pair: String,
    /// Total transfers.
    pub all: usize,
    /// Counts per class, in [`SizeClass::ALL`] order.
    pub per_class: [usize; 4],
}

/// Compute Figure 7's counts for one pair.
pub fn fig07(result: &CampaignResult, pair: Pair) -> Fig07Counts {
    let obs = observation_series(result, pair);
    let mut per_class = [0usize; 4];
    for o in &obs {
        let idx = SizeClass::ALL
            .iter()
            .position(|c| *c == SizeClass::of_bytes(o.file_size))
            .expect("classes partition sizes");
        per_class[idx] += 1;
    }
    Fig07Counts {
        pair: pair.label().to_string(),
        all: obs.len(),
        per_class,
    }
}

/// One predictor's error in one figure cell.
#[derive(Debug, Clone)]
pub struct ErrorCell {
    /// Predictor name (base name, no classification suffix).
    pub predictor: String,
    /// Mean absolute percentage error, if the predictor answered.
    pub mape: Option<f64>,
    /// Number of answered targets.
    pub answered: usize,
}

/// Figures 8–11: per-class percent error of the 15 predictors (evaluated
/// with file-size classification, which is how the paper reports its
/// per-class figures).
pub fn fig08_11(result: &CampaignResult, pair: Pair, class: SizeClass) -> Vec<ErrorCell> {
    let obs = observation_series(result, pair);
    let eval = Evaluation::builder().suite(paper_suite(true)).build();
    let reports = eval.run(&obs);
    reports
        .iter()
        .zip(eval.predictors())
        .map(|(r, p)| ErrorCell {
            predictor: p.base_name().to_string(),
            mape: r.mape_for_class(class),
            answered: r.count_for_class(class),
        })
        .collect()
}

/// Figures 12–13: classification benefit — each base predictor's MAPE
/// without vs with file-size classification, over all targets.
#[derive(Debug, Clone)]
pub struct ClassificationCell {
    /// Base predictor name.
    pub predictor: String,
    /// MAPE using the whole history (context-insensitive).
    pub unclassified: Option<f64>,
    /// MAPE using only same-class history (context-sensitive).
    pub classified: Option<f64>,
}

/// Compute Figures 12–13 for one pair.
pub fn fig12_13(result: &CampaignResult, pair: Pair) -> Vec<ClassificationCell> {
    let obs = observation_series(result, pair);
    let unclassified = Evaluation::builder()
        .suite(paper_suite(false))
        .build()
        .run(&obs);
    let classified_eval = Evaluation::builder().suite(paper_suite(true)).build();
    let classified = classified_eval.run(&obs);
    unclassified
        .iter()
        .zip(classified.iter())
        .zip(classified_eval.predictors())
        .map(|((u, c), p)| ClassificationCell {
            predictor: p.base_name().to_string(),
            unclassified: u.mape(),
            classified: c.mape(),
        })
        .collect()
}

/// Figures 14–21: relative best/worst percentages per predictor for one
/// pair and class (classified suite, as in the per-class figures).
pub fn fig14_21(result: &CampaignResult, pair: Pair, class: SizeClass) -> Vec<RelativeReport> {
    let obs = observation_series(result, pair);
    let suite = paper_suite(true);
    relative_performance(&obs, &suite, EvalOptions::default(), Some(class))
}

/// The §6.2 headline check: the worst per-class MAPE across predictors
/// and the average classification benefit.
#[derive(Debug, Clone)]
pub struct SummaryStats {
    /// Pair label.
    pub pair: String,
    /// Worst per-class MAPE over predictors, classes >= 100 MB.
    pub worst_large_class_mape: f64,
    /// Worst overall MAPE over predictors (all classes).
    pub worst_overall_mape: f64,
    /// Mean over predictors of (unclassified - classified) MAPE, in
    /// percentage points.
    pub mean_classification_benefit: f64,
}

/// Compute the summary.
pub fn summary(result: &CampaignResult, pair: Pair) -> SummaryStats {
    let mut worst_large: f64 = 0.0;
    for class in [SizeClass::C100MB, SizeClass::C500MB, SizeClass::C1GB] {
        for cell in fig08_11(result, pair, class) {
            if let Some(m) = cell.mape {
                worst_large = worst_large.max(m);
            }
        }
    }
    let cls = fig12_13(result, pair);
    let mut worst_overall: f64 = 0.0;
    let mut benefit_sum = 0.0;
    let mut benefit_n = 0usize;
    for c in &cls {
        if let (Some(u), Some(cl)) = (c.unclassified, c.classified) {
            worst_overall = worst_overall.max(u).max(cl);
            benefit_sum += u - cl;
            benefit_n += 1;
        }
    }
    SummaryStats {
        pair: pair.label().to_string(),
        worst_large_class_mape: worst_large,
        worst_overall_mape: worst_overall,
        mean_classification_benefit: if benefit_n > 0 {
            benefit_sum / benefit_n as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::workload::WorkloadConfig;
    use wanpred_simnet::rng::MasterSeed;
    use wanpred_simnet::time::SimDuration;

    fn campaign(days: u64) -> CampaignResult {
        run_campaign(&CampaignConfig {
            seed: MasterSeed(2024),
            duration: SimDuration::from_days(days),
            workload: WorkloadConfig::default(),
            probes: true,
            ..CampaignConfig::august(2024)
        })
    }

    #[test]
    fn fig01_02_series_shapes() {
        let r = campaign(2);
        for pair in Pair::ALL {
            let s = fig01_02(&r, pair);
            assert!(!s.gridftp.is_empty());
            assert!(!s.nws.is_empty());
            // NWS probes dense and slow; GridFTP sparse and fast.
            assert!(s.nws.len() > 4 * s.gridftp.len());
            let nws_max = s.nws.iter().map(|&(_, v)| v).fold(0.0, f64::max);
            let ftp_mean = s.gridftp.iter().map(|&(_, v)| v).sum::<f64>() / s.gridftp.len() as f64;
            assert!(nws_max < 0.3, "nws max {nws_max}");
            assert!(ftp_mean > 1.0, "gridftp mean {ftp_mean}");
        }
    }

    #[test]
    fn fig07_counts_partition() {
        let r = campaign(2);
        for pair in Pair::ALL {
            let c = fig07(&r, pair);
            assert_eq!(c.per_class.iter().sum::<usize>(), c.all);
            assert!(c.all > 20);
        }
    }

    #[test]
    fn fig08_11_has_fifteen_cells() {
        let r = campaign(3);
        let cells = fig08_11(&r, Pair::LblAnl, SizeClass::C10MB);
        assert_eq!(cells.len(), 15);
        assert_eq!(cells[0].predictor, "AVG");
        // The small class is the most common; predictors should answer.
        assert!(cells.iter().any(|c| c.mape.is_some()));
    }

    #[test]
    fn fig12_13_pairs_base_predictors() {
        let r = campaign(3);
        let cells = fig12_13(&r, Pair::IsiAnl);
        assert_eq!(cells.len(), 15);
        for c in &cells {
            assert!(!c.predictor.ends_with("+C"));
        }
    }

    #[test]
    fn fig14_21_reports_for_class() {
        let r = campaign(3);
        let rel = fig14_21(&r, Pair::LblAnl, SizeClass::C10MB);
        assert_eq!(rel.len(), 15);
        if rel[0].targets > 0 {
            let best_sum: f64 = rel.iter().map(|x| x.best_pct).sum();
            assert!(best_sum >= 100.0 - 1e-6);
        }
    }

    #[test]
    fn summary_is_finite() {
        let r = campaign(3);
        let s = summary(&r, Pair::LblAnl);
        assert!(s.worst_overall_mape.is_finite());
        assert!(s.worst_large_class_mape <= s.worst_overall_mape + 1e9);
    }
}

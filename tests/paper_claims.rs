//! The paper's headline quantitative claims, checked against a full
//! two-week reproduction campaign. These are the assertions EXPERIMENTS.md
//! reports; if calibration drifts, this file fails first.

use std::hint::black_box;
use std::time::Instant;

use wanpred_core::prelude::*;
use wanpred_core::testbed::{observation_series, serving_now_unix, serving_sites, summary};
use wanpred_gridftp::{measure_logging_cost, PAPER_LOGGING_OVERHEAD_MS};
use wanpred_infod::{GridFtpPerfProvider, ProviderConfig};
use wanpred_logfmt::sample_record;

fn august() -> (CampaignConfig, CampaignResult) {
    let cfg = CampaignConfig::august(42);
    let r = run_campaign(&cfg);
    (cfg, r)
}

#[test]
fn figure7_transfer_counts_in_band() {
    // Paper: 350-450 transfers per pair per two-week campaign, with the
    // 10MB class the most populous and the 1GB class the smallest.
    let (_, r) = august();
    for pair in Pair::ALL {
        let c = fig07(&r, pair);
        assert!(
            (300..=520).contains(&c.all),
            "{}: {} transfers",
            c.pair,
            c.all
        );
        assert_eq!(c.per_class.iter().sum::<usize>(), c.all);
        let max_class = *c.per_class.iter().max().unwrap();
        assert_eq!(c.per_class[0], max_class, "10MB class most populous");
        let min_class = *c.per_class.iter().min().unwrap();
        assert_eq!(c.per_class[3], min_class, "1GB class least populous");
    }
}

#[test]
fn figures_1_2_bandwidth_regimes() {
    // Paper: NWS < 0.3 MB/s; GridFTP ~1.5-10.2 MB/s with large spread.
    let (_, r) = august();
    for pair in Pair::ALL {
        let s = fig01_02(&r, pair);
        let nws_max = s.nws.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        assert!(nws_max < 0.3, "{}: NWS max {nws_max}", pair.label());
        let ftp: Vec<f64> = s.gridftp.iter().map(|&(_, v)| v).collect();
        let max = ftp.iter().copied().fold(0.0f64, f64::max);
        let min = ftp.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max > 8.0 && max < 14.0, "{}: max {max}", pair.label());
        assert!(min < 2.5, "{}: min {min}", pair.label());
        // GridFTP mean far above the NWS ceiling (the Figures 1-2 gap).
        let mean = ftp.iter().sum::<f64>() / ftp.len() as f64;
        assert!(
            mean > 10.0 * nws_max,
            "{}: mean {mean} vs nws {nws_max}",
            pair.label()
        );
    }
}

#[test]
fn simple_techniques_at_worst_about_25_percent_on_large_classes() {
    // Paper §6.2: "even simple techniques are at worst off by about 25%"
    // (their per-class figures cover >=100MB well; we allow a modest
    // band above 25 for seed variance).
    let (_, r) = august();
    for pair in Pair::ALL {
        let s = summary(&r, pair);
        assert!(
            s.worst_large_class_mape < 40.0,
            "{}: worst large-class MAPE {}",
            pair.label(),
            s.worst_large_class_mape
        );
    }
}

#[test]
fn classification_reduces_error_for_most_predictors() {
    // Paper §4.3/Figures 12-13: 5-10% average improvement from file-size
    // classification; in our reproduction the effect is larger because
    // the size-bandwidth correlation is strong.
    let (_, r) = august();
    for pair in Pair::ALL {
        let cells = fig12_13(&r, pair);
        let improved = cells
            .iter()
            .filter(|c| match (c.unclassified, c.classified) {
                (Some(u), Some(cl)) => cl < u,
                _ => false,
            })
            .count();
        assert!(
            improved >= 13,
            "{}: only {improved}/15 predictors improved",
            pair.label()
        );
        let s = summary(&r, pair);
        assert!(
            s.mean_classification_benefit > 5.0,
            "{}: benefit {} points",
            pair.label(),
            s.mean_classification_benefit
        );
    }
}

#[test]
fn large_files_more_predictable_than_small() {
    // Paper §6.2: "large file transfers seem to be more predictable than
    // smaller file transfers."
    let (_, r) = august();
    for pair in Pair::ALL {
        let mean_mape = |class| {
            let cells = fig08_11(&r, pair, class);
            let v: Vec<f64> = cells.iter().filter_map(|c| c.mape).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let small = mean_mape(SizeClass::C10MB);
        let big = mean_mape(SizeClass::C1GB);
        assert!(
            big < small,
            "{}: 1GB {} vs 10MB {}",
            pair.label(),
            big,
            small
        );
    }
}

#[test]
fn ar_models_do_not_beat_simple_means() {
    // Paper §6.2: "the ARIMA models do not see improved performance for
    // our data, although they are significantly more expensive."
    let (_, r) = august();
    for pair in Pair::ALL {
        let obs = observation_series(&r, pair);
        let reports = Evaluation::builder()
            .suite(paper_suite(true))
            .build()
            .run(&obs);
        let mape_of = |name: &str| {
            reports
                .iter()
                .find(|x| x.name == name)
                .and_then(|x| x.mape())
                .expect("predictor answered")
        };
        let ar = mape_of("AR+C")
            .min(mape_of("AR5d+C"))
            .min(mape_of("AR10d+C"));
        let avg = mape_of("AVG+C");
        // AR is not decisively better: no more than a couple points.
        assert!(ar > avg - 3.0, "{}: AR {} vs AVG {}", pair.label(), ar, avg);
    }
}

#[test]
fn windowing_shows_no_decisive_advantage() {
    // Paper §6.2: "we did not see a noticeable advantage in limiting
    // either average or median techniques by sliding window or time
    // frames" (controlled workload).
    let (_, r) = august();
    let obs = observation_series(&r, Pair::LblAnl);
    let reports = Evaluation::builder()
        .suite(paper_suite(true))
        .build()
        .run(&obs);
    let mape_of = |name: &str| {
        reports
            .iter()
            .find(|x| x.name == name)
            .and_then(|x| x.mape())
            .expect("answered")
    };
    let all = mape_of("AVG+C");
    for windowed in ["AVG5+C", "AVG15+C", "AVG25+C", "AVG25hr+C"] {
        let w = mape_of(windowed);
        assert!(
            (w - all).abs() < 12.0,
            "{windowed} ({w}) vs AVG ({all}) differ wildly"
        );
    }
}

#[test]
fn logging_overhead_far_below_papers_25ms() {
    let cost = measure_logging_cost(&sample_record(), 2_000);
    assert!(
        cost.mean_ms < PAPER_LOGGING_OVERHEAD_MS / 10.0,
        "logging {} ms/record",
        cost.mean_ms
    );
    assert!(cost.entry_bytes < 512);
}

/// The fewest nanoseconds one call to `f` took over `samples` timed
/// batches of `batch` calls: the least disturbed batch is the best
/// estimate of the call's own cost on a shared machine.
fn min_ns_per_call<T>(samples: usize, batch: u32, mut f: impl FnMut() -> T) -> f64 {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn ar_prediction_costs_a_multiple_of_a_windowed_mean() {
    // Paper §6.2: the AR technique "can have a much greater computational
    // cost" than the means. At a 2 000-transfer history one AR prediction
    // fits the whole series while AVG25 reads 25 values. Measured
    // AR / AVG25 ratio: 399–478x in release and 244–253x in debug
    // (2-core x86-64); the bound is under a quarter of the smaller.
    let site = serving_sites(1, 2_000, 42).remove(0);
    let history = observations_from_log(&site.log);
    let now = serving_now_unix(2_000);
    let ar = ArPredictor::new(Window::All);
    let avg25 = MeanPredictor::new(Window::LastN(25));
    assert!(ar.predict(&history, now).is_some() && avg25.predict(&history, now).is_some());
    let ar_ns = min_ns_per_call(30, 20, || ar.predict(black_box(&history), black_box(now)));
    let avg25_ns = min_ns_per_call(30, 400, || {
        avg25.predict(black_box(&history), black_box(now))
    });
    let ratio = ar_ns / avg25_ns;
    assert!(
        ratio > 50.0,
        "AR {ar_ns:.0} ns vs AVG25 {avg25_ns:.0} ns per prediction: only {ratio:.1}x"
    );
}

#[test]
fn provider_builds_700_entries_far_inside_the_papers_second() {
    // Paper §5.1: a log of "around 700 log entries" took the information
    // provider "approximately 1 to 2 seconds to filter, classify the
    // entries into object classes, and compute predictions". Measured
    // here, ingest plus `build_entries`: 0.28–0.34 ms in release and
    // 0.74–0.80 ms in debug (2-core x86-64); the bound is a tenth of the
    // paper's 1 s.
    let site = serving_sites(1, 700, 42).remove(0);
    let cfg = ProviderConfig::new(&site.host, &site.address);
    let now = serving_now_unix(700);
    let build =
        || GridFtpPerfProvider::from_snapshot(cfg.clone(), site.log.clone()).build_entries(now);
    assert!(!build().is_empty(), "the provider published nothing");
    let ms = min_ns_per_call(5, 1, build) / 1e6;
    assert!(ms < 100.0, "700-entry provider build took {ms:.1} ms");
}

#[test]
fn relative_best_and_worst_tallies_anticorrelate_weakly() {
    // Paper §6.2: predictors that are most often best also tend to be
    // often worst (high-variance techniques), "median-based predictors
    // seemed to vary more". We assert the structural property: the
    // best-tally leader is not uniformly dominant (its worst tally is
    // nonzero on at least one class).
    let (_, r) = august();
    let mut leader_sometimes_worst = false;
    for class in [SizeClass::C100MB, SizeClass::C500MB, SizeClass::C1GB] {
        let rel = fig14_21(&r, Pair::IsiAnl, class);
        if rel.iter().all(|x| x.targets == 0) {
            continue;
        }
        let best = rel
            .iter()
            .max_by(|a, b| a.best_pct.partial_cmp(&b.best_pct).unwrap())
            .unwrap();
        if best.worst_pct > 0.0 {
            leader_sometimes_worst = true;
        }
    }
    assert!(
        leader_sometimes_worst,
        "no class showed the best-tally leader ever being worst"
    );
}

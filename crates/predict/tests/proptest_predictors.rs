//! Property tests for predictor invariants.

use proptest::prelude::*;
use wanpred_predict::prelude::*;

fn arb_history() -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec((0u64..1_000_000, 0.1f64..1e6, 1u64..2_000_000_000), 1..80).prop_map(
        |mut v| {
            v.sort_by_key(|(t, _, _)| *t);
            v.into_iter()
                .map(|(t, bw, size)| Observation {
                    at_unix: t,
                    bandwidth_kbs: bw,
                    file_size: size,
                    streams: 1,
                    tcp_buffer: 0,
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mean and median predictions always lie within the range of the
    /// windowed history they saw.
    #[test]
    fn mean_median_bounded_by_history(h in arb_history(), now in 0u64..2_000_000) {
        let lo = h.iter().map(|o| o.bandwidth_kbs).fold(f64::INFINITY, f64::min);
        let hi = h.iter().map(|o| o.bandwidth_kbs).fold(f64::NEG_INFINITY, f64::max);
        for p in [
            MeanPredictor::new(Window::All),
            MeanPredictor::new(Window::LastN(5)),
            MeanPredictor::new(Window::LastSeconds(100_000)),
        ] {
            if let Some(v) = p.predict(&h, now) {
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{} out of [{lo},{hi}]", v);
            }
        }
        for p in [MedianPredictor::new(Window::All), MedianPredictor::new(Window::LastN(15))] {
            if let Some(v) = p.predict(&h, now) {
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }

    /// Every paper predictor returns a finite positive prediction on any
    /// non-empty positive-valued history (AR included, thanks to the
    /// fallback and clamp).
    #[test]
    fn paper_suite_total_on_positive_history(h in arb_history()) {
        let now = h.last().unwrap().at_unix + 1;
        for p in paper_predictors() {
            if let Some(v) = p.predict(&h, now) {
                prop_assert!(v.is_finite() && v > 0.0, "{} produced {v}", p.name());
            }
        }
        // Predictors with non-temporal windows must answer.
        prop_assert!(LastValue::new().predict(&h, now).is_some());
        prop_assert!(MeanPredictor::new(Window::All).predict(&h, now).is_some());
    }

    /// A classified variant equals its base predictor run on the
    /// class-filtered history.
    #[test]
    fn classified_equals_filtered(h in arb_history(), target_size in 1u64..2_000_000_000) {
        let now = h.last().unwrap().at_unix + 1;
        let class = SizeClass::of_bytes(target_size);
        let filtered = filter_class(&h, class);
        let base = MeanPredictor::new(Window::LastN(5));
        let wrapped = NamedPredictor::new(Box::new(MeanPredictor::new(Window::LastN(5))), true);
        prop_assert_eq!(wrapped.predict(&h, now, target_size), base.predict(&filtered, now));
    }

    /// Replay bookkeeping: answered + declined equals the number of
    /// targets for every predictor.
    #[test]
    fn evaluate_accounts_for_every_target(h in arb_history(), training in 0usize..30) {
        let suite = full_suite();
        let reports = wanpred_predict::testing::slice_replay(&h, &suite, EvalOptions { training });
        let targets = h.len().saturating_sub(training);
        for r in &reports {
            prop_assert_eq!(r.outcomes.len() + r.declined, targets, "{}", &r.name);
        }
    }

    /// Relative tallies: every compared target awards at least one best
    /// and one worst, and percentages are within [0, 100].
    #[test]
    fn relative_percentages_sane(h in arb_history()) {
        let suite = paper_suite(false);
        let rel = relative_performance(&h, &suite, EvalOptions { training: 5 }, None);
        for r in &rel {
            prop_assert!((0.0..=100.0 + 1e-9).contains(&r.best_pct));
            prop_assert!((0.0..=100.0 + 1e-9).contains(&r.worst_pct));
        }
        if rel[0].targets > 0 {
            let sum_best: f64 = rel.iter().map(|r| r.best_pct).sum();
            let sum_worst: f64 = rel.iter().map(|r| r.worst_pct).sum();
            prop_assert!(sum_best >= 100.0 - 1e-6);
            prop_assert!(sum_worst >= 100.0 - 1e-6);
        }
    }

    /// Size classes partition the byte space: exactly one class matches
    /// any size.
    #[test]
    fn size_classes_partition(bytes in any::<u64>()) {
        let matches = SizeClass::ALL
            .iter()
            .filter(|c| {
                let (lo, hi) = c.byte_range();
                bytes >= lo && bytes < hi
            })
            .count();
        // u64::MAX itself falls outside the half-open top range; of_bytes
        // still assigns it to the top class.
        if bytes == u64::MAX {
            prop_assert_eq!(SizeClass::of_bytes(bytes), SizeClass::C1GB);
        } else {
            prop_assert_eq!(matches, 1);
            let (lo, hi) = SizeClass::of_bytes(bytes).byte_range();
            prop_assert!(bytes >= lo && bytes < hi);
        }
    }
}

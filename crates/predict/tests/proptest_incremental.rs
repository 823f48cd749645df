//! Differential property test: the rolling-state replay engine agrees
//! with the slice-based oracle (`wanpred_predict::testing::slice_replay`).
//!
//! For arbitrary irregular histories — bursty arrival gaps (including
//! gaps that empty every temporal window), mixed and single size
//! classes, occasional zero-bandwidth (dead) transfers — every
//! [`PredictorReport`] from the incremental engine must match the naive
//! oracle's: same answered/declined split per target, and predictions
//! within a 1e-9 relative tolerance (the incremental sums reassociate
//! floating-point additions; medians and count-window means are in
//! fact bit-identical).

use proptest::prelude::*;
use wanpred_obs::ObsSink;
use wanpred_predict::prelude::*;
use wanpred_predict::testing::slice_replay;

/// An irregular replay log. Gaps span 1 s to ~11 days, so temporal
/// windows (5 h … 10 d) are sometimes saturated and sometimes empty;
/// roughly one bandwidth in twelve is a dead transfer (0 KB/s). Stream
/// counts and TCP buffers vary (or are held constant when
/// `single_class` pins everything), so the regression covariates see
/// both well-posed and degenerate designs.
fn arb_series() -> impl Strategy<Value = Vec<Observation>> {
    (
        prop::collection::vec(
            (
                1u64..1_000_000,
                0.1f64..20_000.0,
                0usize..7,
                0u8..12,
                1u32..9,
                0usize..4,
            ),
            0..120,
        ),
        proptest::arbitrary::any::<bool>(),
    )
        .prop_map(|(raw, single_class)| {
            let sizes_mb = [2u64, 25, 100, 150, 400, 750, 1000];
            let buffers = [0u64, 64 * 1024, 1_000_000, 16_000_000];
            let mut t = 1_000_000_000u64;
            raw.into_iter()
                .map(|(gap, bw, size_idx, dead, streams, buf_idx)| {
                    t += gap;
                    Observation {
                        at_unix: t,
                        bandwidth_kbs: if dead == 0 { 0.0 } else { bw },
                        file_size: if single_class {
                            100 * PAPER_MB
                        } else {
                            sizes_mb[size_idx] * PAPER_MB
                        },
                        streams: if single_class { 8 } else { streams },
                        tcp_buffer: if single_class {
                            1_000_000
                        } else {
                            buffers[buf_idx]
                        },
                    }
                })
                .collect()
        })
}

fn assert_close(name: &str, a: f64, b: f64) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{name}: naive {a} vs incremental {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_replay_matches_naive_oracle(series in arb_series(), training in 0usize..25) {
        // The extended suite = the paper's 30 plus the regression
        // family, so the differential oracle also covers the Gram-fit
        // predictors (and their windowed-mean fallback paths).
        let suite = extended_suite();
        let opts = EvalOptions { training };
        let naive = slice_replay(&series, &suite, opts);
        let inc = Evaluation::replay(&series, &suite, opts, &ObsSink::disabled());
        prop_assert_eq!(naive.len(), inc.len());
        for (n, i) in naive.iter().zip(&inc) {
            prop_assert_eq!(&n.name, &i.name);
            prop_assert_eq!(n.declined, i.declined, "{} declined", n.name);
            prop_assert_eq!(n.outcomes.len(), i.outcomes.len(), "{} outcomes", n.name);
            for (a, b) in n.outcomes.iter().zip(&i.outcomes) {
                prop_assert_eq!(a.at_unix, b.at_unix, "{}", n.name);
                prop_assert_eq!(a.class, b.class, "{}", n.name);
                prop_assert_eq!(a.measured, b.measured, "{}", n.name);
                assert_close(&n.name, a.predicted, b.predicted);
            }
            // Aggregates agree too (both `None` or both close).
            match (n.mape(), i.mape()) {
                (None, None) => {}
                (Some(x), Some(y)) => assert_close(&n.name, x, y),
                (x, y) => panic!("{} mape mismatch: {:?} vs {:?}", n.name, x, y),
            }
        }
    }
}

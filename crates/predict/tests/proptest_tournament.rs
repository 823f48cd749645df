//! Differential property tests: the tournament's by-spec path over
//! shared append-only accumulators is **bit-identical** to the
//! slice-based path it replaced — not close, identical, because
//! leaders are ranked on these bits and every `result_digest` folds
//! them.
//!
//! Two oracles, neither a second tournament implementation:
//!
//! * per candidate, [`NamedPredictor::predict`] on the same
//!   arrival-ordered history (class filter and window re-derived from
//!   scratch on every call);
//! * for a whole [`Tournament`], the same `Tournament` over
//!   [`hide_specs`]-wrapped candidates, which forces the slice fallback
//!   it keeps for custom predictors.
//!
//! The series are what the paper's logs and this repo's campaigns
//! produce, including what a tidy generator would leave out: arrival
//! order that is not start-time order (co-allocated and overlapping
//! transfers), duplicate timestamps, quiet gaps past 25 h and 10 d
//! (empty hour windows, AR windows under `MIN_POINTS`), dead (0 and
//! -0 KB/s) and repeated bandwidths, and campaigns with a single file size,
//! stream count and buffer (every regression degenerate → mean
//! fallback).

use proptest::prelude::*;
use wanpred_predict::prelude::*;
use wanpred_predict::testing::hide_specs;

/// The default pool plus one custom (spec-less) predictor, classified
/// so it reads a class stream.
fn pool() -> Vec<NamedPredictor> {
    let mut suite = extended_suite();
    suite.push(NamedPredictor::new(Box::new(EwmaPredictor::new(0.3)), true));
    suite
}

/// An arrival-ordered transfer series of `len` observations. `pinned`
/// campaigns use one size, stream count and buffer throughout;
/// otherwise six sizes over all four classes, three quarters of them in
/// the 100 MB class so that its board fills within a long run.
fn arb_series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Observation>> {
    (
        prop::collection::vec(
            (
                0u8..24,
                1u64..5_000,
                0u8..12,
                0.1f64..20_000.0,
                0usize..12,
                1u32..9,
                0usize..4,
            ),
            len,
        ),
        any::<bool>(),
    )
        .prop_map(|(raw, pinned)| {
            let sizes_mb = [100u64, 2, 100, 25, 100, 150, 100, 400, 100, 1000, 100, 100];
            let buffers = [0u64, 64 * 1024, 1_000_000, 16_000_000];
            let mut clock = 1_000_000_000u64;
            let mut last_bw = 750.0;
            raw.into_iter()
                .map(|(step, gap, bw_kind, bw, size_idx, streams, buf_idx)| {
                    let at_unix = match step {
                        // Same second as the previous arrival.
                        0 => clock,
                        // Started earlier than transfers already logged.
                        1 | 2 => clock - gap * 20,
                        // Quiet for longer than the hour windows.
                        3 => {
                            clock += 26 * 3_600 + gap;
                            clock
                        }
                        // ... and than the longest day window.
                        4 => {
                            clock += 11 * 86_400 + gap;
                            clock
                        }
                        _ => {
                            clock += gap;
                            clock
                        }
                    };
                    last_bw = match bw_kind {
                        0 => 0.0,
                        // `-0` is a legal ULM decimal; it is also the one
                        // input that tells `Iterator::sum`'s identity
                        // from `0.0` and `total_cmp` from `==`.
                        1 => -0.0,
                        2 | 3 => last_bw,
                        _ => bw,
                    };
                    Observation {
                        at_unix,
                        bandwidth_kbs: last_bw,
                        file_size: if pinned { 100 } else { sizes_mb[size_idx] } * PAPER_MB,
                        streams: if pinned { 8 } else { streams },
                        tcp_buffer: if pinned { 1_000_000 } else { buffers[buf_idx] },
                    }
                })
                .collect()
        })
}

/// A target size inside each class.
fn class_targets() -> [u64; 4] {
    SizeClass::ALL.map(|c| c.byte_range().0 + PAPER_MB)
}

/// Every candidate alone in a tournament (so `predict` can only be its
/// answer) against `NamedPredictor::predict` on the history so far, at
/// every prefix, for a target in every class.
fn assert_candidates_match_slices(series: &[Observation]) {
    let mut solo: Vec<Tournament> = pool()
        .into_iter()
        .map(|p| Tournament::new(vec![p], TournamentOptions::default()))
        .collect();
    let oracle = pool();
    for (i, o) in series.iter().enumerate() {
        let history = &series[..i];
        for size in class_targets() {
            for (t, p) in solo.iter().zip(&oracle) {
                let got = t.predict(o.at_unix, size).map(|(_, v)| v.to_bits());
                let want = p.predict(history, o.at_unix, size).map(f64::to_bits);
                assert_eq!(got, want, "{} at prefix {i}, target {size} B", p.name());
            }
        }
        for t in &mut solo {
            t.observe(*o);
        }
    }
}

/// A tournament over the pool against the same tournament over
/// spec-hidden candidates: leaders, switch count, every rolling MAPE
/// and the served prediction, at every step.
fn assert_tournament_matches_oracle(series: &[Observation], opts: TournamentOptions) {
    let mut fast = Tournament::new(pool(), opts);
    let mut oracle = Tournament::new(hide_specs(pool()), opts);
    let n = fast.candidate_names().len();
    for (step, o) in series.iter().enumerate() {
        for size in class_targets() {
            let got = fast.predict(o.at_unix, size).map(|(c, v)| (c, v.to_bits()));
            let want = oracle
                .predict(o.at_unix, size)
                .map(|(c, v)| (c, v.to_bits()));
            assert_eq!(got, want, "served prediction at step {step}");
        }
        fast.observe(*o);
        oracle.observe(*o);
        assert_eq!(fast.winner(), oracle.winner(), "winner after step {step}");
        for class in SizeClass::ALL {
            assert_eq!(
                fast.class_winner(class),
                oracle.class_winner(class),
                "{class} winner after step {step}"
            );
        }
        assert_eq!(
            fast.switches(),
            oracle.switches(),
            "switches after step {step}"
        );
        for i in 0..n {
            assert_eq!(
                fast.rolling_mape(i).map(f64::to_bits),
                oracle.rolling_mape(i).map(f64::to_bits),
                "rolling MAPE of {} after step {step}",
                fast.candidate_names()[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_candidate_is_bit_identical_to_its_slice_predictor(series in arb_series(0..140)) {
        assert_candidates_match_slices(&series);
    }

    /// Small boards roll over within a short series and hysteresis is
    /// on, so leader changes are frequent and every tie rule is hit.
    #[test]
    fn tournament_is_bit_identical_to_its_spec_hidden_twin(
        series in arb_series(0..200),
        window in 1usize..30,
        min_lead in 0.0f64..0.2,
    ) {
        let opts = TournamentOptions {
            window,
            class_window: 2 * window,
            min_lead,
            ..TournamentOptions::default()
        };
        assert_tournament_matches_oracle(&series, opts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Long runs at the default options: the 50-slot global board rolls
    /// over many times and (in pinned and skewed campaigns) so does a
    /// 400-slot class board.
    #[test]
    fn long_runs_stay_bit_identical_past_board_rollover(series in arb_series(700..800)) {
        assert_tournament_matches_oracle(&series, TournamentOptions::default());
        assert_candidates_match_slices(&series[..640]);
    }
}

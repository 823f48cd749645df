//! Incremental replay engine: rolling per-predictor state.
//!
//! Replaying §6.2 literally re-derives every prediction from the full
//! history slice — for each target it re-filters the class history (an
//! `O(history)` copy per classified predictor), re-sums windows and
//! re-fits regressions, which makes a full 30-predictor replay quadratic
//! in the log length. This module carries state *forward* through the
//! replay instead:
//!
//! * **AVG\*** — a rolling sum/count with count-based (`AVG5/15/25`)
//!   and time-based (`AVG5hr/15hr/25hr`) eviction. The sum uses a
//!   two-stack sliding aggregate ([`RollingSum`]) rather than a single
//!   subtract-on-evict accumulator: subtracting evicted values from a
//!   running total cancels catastrophically when a large old regime
//!   leaves the window, while the two-stack form only ever *adds*
//!   nonnegative values, keeping it as accurate as the naive sum.
//! * **MED\*** — a sorted-vector order statistic alongside the window
//!   deque; insertion/removal by binary search. Because it maintains
//!   exactly the window's multiset, medians are bit-identical to the
//!   naive sort-based median.
//! * **AR\*** — rolling OLS accumulators `(n, Σx, Σy, Σxx, Σxy)` over
//!   the window's consecutive pairs, in the same two-stack shape, plus
//!   the rolling mean used by the small-sample fallback.
//! * **Classification** — the size class of each observation and target
//!   is computed once; classified predictors keep four independent
//!   per-class states instead of re-filtering the history per call.
//!
//! The engine produces reports equivalent to the slice-based walk (the
//! differential property test in `tests/` holds them to a 1e-9
//! relative tolerance against `crate::testing::slice_replay`; medians
//! and count-window means are exact) and parallelizes the replay across
//! predictors with rayon. Custom predictors without a [`PredictorSpec`]
//! transparently fall back to the slice-based path, so the engine
//! accepts any suite. It is the one engine behind
//! [`Evaluation`](crate::evaluation::Evaluation).

use std::collections::VecDeque;

use rayon::prelude::*;

use crate::arima::ArPredictor;
use crate::classify::SizeClass;
use crate::eval::{EvalOptions, PredictionOutcome, PredictorReport};
use crate::observation::Observation;
use crate::predictor::PredictorSpec;
use crate::registry::NamedPredictor;
use crate::regression::{eval_fit, GramAcc, RegKind};
use crate::window::Window;

/// A sliding-window sum over nonnegative values with O(1) amortized
/// push/evict, implemented as the classic two-stack aggregate. `front`
/// holds the older elements with suffix sums precomputed at flip time;
/// `back` accumulates newer elements with a plain running sum. The
/// window total is one addition, and no subtraction ever occurs, so
/// accuracy matches a from-scratch summation of the window.
#[derive(Debug, Clone, Default)]
struct RollingSum {
    /// `(value, sum of this value and everything older... through newer
    /// front entries)` — the top entry's sum covers the whole front.
    front: Vec<(f64, f64)>,
    back: Vec<f64>,
    back_sum: f64,
}

impl RollingSum {
    fn push(&mut self, v: f64) {
        self.back.push(v);
        self.back_sum += v;
    }

    /// Evict the oldest value, returning it.
    fn pop_oldest(&mut self) -> Option<f64> {
        if self.front.is_empty() {
            // Flip: move `back` into `front`, newest first, so that the
            // stack pops oldest-first with each entry carrying the sum
            // of itself and everything above it (i.e. newer than it).
            let mut cum = 0.0;
            for v in self.back.drain(..).rev() {
                cum += v;
                self.front.push((v, cum));
            }
            self.back_sum = 0.0;
        }
        self.front.pop().map(|(v, _)| v)
    }

    fn sum(&self) -> f64 {
        match self.front.last() {
            Some(&(_, front_sum)) => front_sum + self.back_sum,
            None => self.back_sum,
        }
    }

    fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }
}

/// Rolling OLS accumulators over the window's consecutive value pairs
/// `(x, y) = (v[i], v[i+1])`, in the same two-stack shape as
/// [`RollingSum`]. Each component is a sum of nonnegative terms
/// (bandwidths are nonnegative), so eviction never cancels.
#[derive(Debug, Clone, Copy, Default)]
struct OlsAcc {
    n: usize,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
}

impl OlsAcc {
    fn of_pair(x: f64, y: f64) -> OlsAcc {
        OlsAcc {
            n: 1,
            sx: x,
            sy: y,
            sxx: x * x,
            sxy: x * y,
        }
    }

    fn merge(self, o: OlsAcc) -> OlsAcc {
        OlsAcc {
            n: self.n + o.n,
            sx: self.sx + o.sx,
            sy: self.sy + o.sy,
            sxx: self.sxx + o.sxx,
            sxy: self.sxy + o.sxy,
        }
    }

    /// OLS fit `y = a + b x`, mirroring [`crate::stats::ols`]: `None`
    /// below two pairs or when the regressor is degenerate.
    fn fit(self) -> Option<(f64, f64)> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let mx = self.sx / n;
        let my = self.sy / n;
        let sxx_c = self.sxx - mx * self.sx;
        if sxx_c < 1e-12 * (1.0 + mx * mx) * n {
            return None;
        }
        let b = (self.sxy - mx * self.sy) / sxx_c;
        let a = my - b * mx;
        Some((a, b))
    }
}

/// Two-stack sliding aggregate of [`GramAcc`] entries — the regression
/// family's windowed Gram matrix, one accumulator per observation, in
/// the same shape as [`RollingOls`]. Both engines end at the shared
/// [`GramAcc::fit`], so they agree within floating-point reassociation.
#[derive(Debug, Clone, Default)]
struct RollingGram {
    front: Vec<(GramAcc, GramAcc)>,
    back: Vec<GramAcc>,
    back_agg: GramAcc,
}

impl RollingGram {
    fn push(&mut self, acc: GramAcc) {
        self.back.push(acc);
        self.back_agg = self.back_agg.merge(acc);
    }

    fn pop_oldest(&mut self) {
        if self.front.is_empty() {
            let mut cum = GramAcc::default();
            for acc in self.back.drain(..).rev() {
                cum = acc.merge(cum);
                self.front.push((acc, cum));
            }
            self.back_agg = GramAcc::default();
        }
        self.front.pop();
    }

    fn agg(&self) -> GramAcc {
        match self.front.last() {
            Some(&(_, cum)) => cum.merge(self.back_agg),
            None => self.back_agg,
        }
    }
}

/// Two-stack sliding aggregate of [`OlsAcc`] entries.
#[derive(Debug, Clone, Default)]
struct RollingOls {
    front: Vec<(OlsAcc, OlsAcc)>,
    back: Vec<OlsAcc>,
    back_agg: OlsAcc,
}

impl RollingOls {
    fn push(&mut self, acc: OlsAcc) {
        self.back.push(acc);
        self.back_agg = self.back_agg.merge(acc);
    }

    fn pop_oldest(&mut self) {
        if self.front.is_empty() {
            let mut cum = OlsAcc::default();
            for acc in self.back.drain(..).rev() {
                cum = acc.merge(cum);
                self.front.push((acc, cum));
            }
            self.back_agg = OlsAcc::default();
        }
        self.front.pop();
    }

    fn agg(&self) -> OlsAcc {
        match self.front.last() {
            Some(&(_, cum)) => cum.merge(self.back_agg),
            None => self.back_agg,
        }
    }

    fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }
}

/// Per-stream rolling state for one predictor family over one window.
/// Classified predictors hold one `StreamState` per size class; the
/// stream only ever sees its own class's observations.
#[derive(Debug, Clone)]
enum StreamState {
    Mean {
        window: Window,
        sum: RollingSum,
        /// Arrival times of in-window values, for time-based eviction.
        times: VecDeque<u64>,
    },
    Median {
        window: Window,
        /// In-window values in arrival order.
        vals: VecDeque<(u64, f64)>,
        /// The same values, sorted.
        sorted: Vec<f64>,
    },
    Ar {
        window: Window,
        /// Element-level rolling mean (the small-sample fallback).
        sum: RollingSum,
        times: VecDeque<u64>,
        /// Pair-level accumulators; a pair's eviction time is its
        /// *earlier* element's timestamp (a pair is in the window iff
        /// its earlier element is — the later one always is, since the
        /// window is a time-ordered suffix).
        pairs: RollingOls,
        pair_times: VecDeque<u64>,
        /// The newest in-stream value with its timestamp: regression
        /// input and the next pair's `x` (the timestamp survives even
        /// when temporal eviction empties `times`, so the pair formed
        /// with the *next* observation still knows when it ages out).
        last: Option<(u64, f64)>,
    },
    Last {
        last: Option<f64>,
    },
    Regression {
        kind: RegKind,
        window: Window,
        /// Element-level rolling mean (the degenerate-fit fallback).
        sum: RollingSum,
        /// Windowed Gram matrix, one accumulator per observation.
        gram: RollingGram,
        /// The in-window observations themselves: eviction times, and
        /// the newest one supplies the target's tuning covariates
        /// (streams, buffer) — same rule as the naive path.
        obs_q: VecDeque<Observation>,
    },
}

impl StreamState {
    fn new(spec: PredictorSpec) -> StreamState {
        match spec {
            PredictorSpec::Mean(window) => StreamState::Mean {
                window,
                sum: RollingSum::default(),
                times: VecDeque::new(),
            },
            PredictorSpec::Median(window) => StreamState::Median {
                window,
                vals: VecDeque::new(),
                sorted: Vec::new(),
            },
            PredictorSpec::Ar(window) => StreamState::Ar {
                window,
                sum: RollingSum::default(),
                times: VecDeque::new(),
                pairs: RollingOls::default(),
                pair_times: VecDeque::new(),
                last: None,
            },
            PredictorSpec::Last => StreamState::Last { last: None },
            PredictorSpec::Regression(kind, window) => StreamState::Regression {
                kind,
                window,
                sum: RollingSum::default(),
                gram: RollingGram::default(),
                obs_q: VecDeque::new(),
            },
        }
    }

    /// Feed one observation of this stream into the state. Count-based
    /// eviction happens here; time-based eviction is deferred to
    /// [`StreamState::predict`], where `now` is known.
    fn observe(&mut self, o: &Observation) {
        let v = o.bandwidth_kbs;
        match self {
            StreamState::Mean { window, sum, times } => {
                sum.push(v);
                times.push_back(o.at_unix);
                if let Window::LastN(n) = *window {
                    while sum.len() > n {
                        sum.pop_oldest();
                        times.pop_front();
                    }
                }
            }
            StreamState::Median {
                window,
                vals,
                sorted,
            } => {
                vals.push_back((o.at_unix, v));
                crate::stats::insert_sorted(sorted, v);
                if let Window::LastN(n) = *window {
                    while vals.len() > n {
                        if let Some((_, old)) = vals.pop_front() {
                            remove_sorted(sorted, old);
                        }
                    }
                }
            }
            StreamState::Ar {
                window,
                sum,
                times,
                pairs,
                pair_times,
                last,
            } => {
                if let Some((prev_t, prev)) = *last {
                    pairs.push(OlsAcc::of_pair(prev, v));
                    // The pair leaves the window when its earlier
                    // element does.
                    pair_times.push_back(prev_t);
                }
                sum.push(v);
                times.push_back(o.at_unix);
                *last = Some((o.at_unix, v));
                if let Window::LastN(n) = *window {
                    while sum.len() > n {
                        sum.pop_oldest();
                        times.pop_front();
                    }
                    while pairs.len() > n.saturating_sub(1) {
                        pairs.pop_oldest();
                        pair_times.pop_front();
                    }
                }
            }
            StreamState::Last { last } => *last = Some(v),
            StreamState::Regression {
                kind,
                window,
                sum,
                gram,
                obs_q,
            } => {
                sum.push(v);
                gram.push(GramAcc::of_obs(kind.basis_of_obs(o), v));
                obs_q.push_back(*o);
                if let Window::LastN(n) = *window {
                    while obs_q.len() > n {
                        sum.pop_oldest();
                        gram.pop_oldest();
                        obs_q.pop_front();
                    }
                }
            }
        }
    }

    /// Predict at instant `now` for a transfer of `target_size` bytes,
    /// evicting anything that has aged out of a temporal window. `now`
    /// must be nondecreasing across calls (replay order), which makes
    /// front-only eviction sound. Only the regression family reads
    /// `target_size`; the paper's history techniques ignore it.
    fn predict(&mut self, now: u64, target_size: u64) -> Option<f64> {
        match self {
            StreamState::Mean { window, sum, times } => {
                if let Window::LastSeconds(secs) = *window {
                    let cutoff = now.saturating_sub(secs);
                    while times.front().is_some_and(|&t| t < cutoff) {
                        sum.pop_oldest();
                        times.pop_front();
                    }
                }
                match sum.len() {
                    0 => None,
                    n => Some(sum.sum() / n as f64),
                }
            }
            StreamState::Median {
                window,
                vals,
                sorted,
            } => {
                if let Window::LastSeconds(secs) = *window {
                    let cutoff = now.saturating_sub(secs);
                    while vals.front().is_some_and(|&(t, _)| t < cutoff) {
                        if let Some((_, old)) = vals.pop_front() {
                            remove_sorted(sorted, old);
                        }
                    }
                }
                crate::stats::median_of_sorted(sorted)
            }
            StreamState::Ar {
                window,
                sum,
                times,
                pairs,
                pair_times,
                last,
            } => {
                if let Window::LastSeconds(secs) = *window {
                    let cutoff = now.saturating_sub(secs);
                    while times.front().is_some_and(|&t| t < cutoff) {
                        sum.pop_oldest();
                        times.pop_front();
                    }
                    while pair_times.front().is_some_and(|&t| t < cutoff) {
                        pairs.pop_oldest();
                        pair_times.pop_front();
                    }
                }
                let count = sum.len();
                if count == 0 {
                    return None;
                }
                let fit = if count >= ArPredictor::MIN_POINTS {
                    pairs.agg().fit()
                } else {
                    None
                };
                // `last` is always `Some` when `count > 0`, but the
                // mean fallback is a graceful answer either way — no
                // reason to make that invariant a panic in the hot
                // path.
                match (fit, *last) {
                    (Some((a, b)), Some((_, l))) => Some((a + b * l).max(1e-6)),
                    _ => Some(sum.sum() / count as f64),
                }
            }
            StreamState::Last { last } => *last,
            StreamState::Regression {
                kind,
                window,
                sum,
                gram,
                obs_q,
            } => {
                if let Window::LastSeconds(secs) = *window {
                    let cutoff = now.saturating_sub(secs);
                    while obs_q.front().is_some_and(|o| o.at_unix < cutoff) {
                        sum.pop_oldest();
                        gram.pop_oldest();
                        obs_q.pop_front();
                    }
                }
                let newest = *obs_q.back()?;
                match gram.agg().fit(kind.dim()) {
                    Some(coef) => Some(eval_fit(
                        coef,
                        kind.basis_of_target(now, target_size, &newest),
                        kind.dim(),
                    )),
                    // Small or degenerate sample: windowed mean, same
                    // fallback as the naive path and the AR family.
                    None => Some(sum.sum() / obs_q.len() as f64),
                }
            }
        }
    }
}

/// Remove one occurrence of `v` from a sorted vector. The value is
/// always present (it was inserted by `observe` and not yet removed);
/// if that invariant ever broke, removing nothing degrades the order
/// statistic gracefully instead of panicking the replay.
fn remove_sorted(sorted: &mut Vec<f64>, v: f64) {
    let at = sorted.partition_point(|x| x.total_cmp(&v).is_lt());
    let present = sorted.get(at).is_some_and(|x| x.total_cmp(&v).is_eq());
    debug_assert!(present, "evicted value missing from order stat");
    if present {
        sorted.remove(at);
    }
}

/// Rolling state for one (possibly classified) predictor variant.
struct VariantState {
    /// One stream for unclassified variants; four per-class streams for
    /// classified ones, indexed by [`SizeClass::index`].
    streams: Vec<StreamState>,
    classified: bool,
}

impl VariantState {
    fn new(spec: PredictorSpec, classified: bool) -> VariantState {
        let n = if classified { SizeClass::ALL.len() } else { 1 };
        VariantState {
            streams: (0..n).map(|_| StreamState::new(spec)).collect(),
            classified,
        }
    }

    fn observe(&mut self, o: &Observation, class: SizeClass) {
        let idx = if self.classified { class.index() } else { 0 };
        self.streams[idx].observe(o);
    }

    fn predict(&mut self, now: u64, target_class: SizeClass, target_size: u64) -> Option<f64> {
        let idx = if self.classified {
            target_class.index()
        } else {
            0
        };
        self.streams[idx].predict(now, target_size)
    }
}

/// Replay one predictor over the series with rolling state.
fn replay_incremental(
    series: &[Observation],
    classes: &[SizeClass],
    p: &NamedPredictor,
    spec: PredictorSpec,
    opts: EvalOptions,
) -> PredictorReport {
    let mut state = VariantState::new(spec, p.is_classified());
    let mut report = PredictorReport {
        name: p.name().to_string(),
        outcomes: Vec::new(),
        declined: 0,
    };
    for (i, (o, &class)) in series.iter().zip(classes).enumerate() {
        if i >= opts.training {
            match state.predict(o.at_unix, class, o.file_size) {
                Some(pred) => report.outcomes.push(PredictionOutcome {
                    at_unix: o.at_unix,
                    measured: o.bandwidth_kbs,
                    predicted: pred,
                    class,
                }),
                None => report.declined += 1,
            }
        }
        state.observe(o, class);
    }
    report
}

/// Slice-based replay of one predictor, exactly as §6.2 describes:
/// every prediction is derived from the full history prefix. The path
/// for custom predictors without a [`PredictorSpec`], and the oracle
/// `crate::testing::slice_replay` runs over a whole suite.
pub(crate) fn replay_slices(
    series: &[Observation],
    classes: &[SizeClass],
    p: &NamedPredictor,
    opts: EvalOptions,
) -> PredictorReport {
    let mut report = PredictorReport {
        name: p.name().to_string(),
        outcomes: Vec::new(),
        declined: 0,
    };
    for i in opts.training..series.len() {
        let target = &series[i];
        match p.predict(&series[..i], target.at_unix, target.file_size) {
            Some(pred) => report.outcomes.push(PredictionOutcome {
                at_unix: target.at_unix,
                measured: target.bandwidth_kbs,
                predicted: pred,
                class: classes[i],
            }),
            None => report.declined += 1,
        }
    }
    report
}

/// Replay `series` through every predictor, carrying rolling state
/// forward: classify once, then fan the predictors out across threads.
pub(crate) fn incremental_replay(
    series: &[Observation],
    predictors: &[NamedPredictor],
    opts: EvalOptions,
) -> Vec<PredictorReport> {
    // Classify each observation once, not once per predictor per target.
    let classes: Vec<SizeClass> = series
        .iter()
        .map(|o| SizeClass::of_bytes(o.file_size))
        .collect();
    predictors
        .par_iter()
        .map(|p| match p.spec() {
            Some(spec) => replay_incremental(series, &classes, p, spec, opts),
            None => replay_slices(series, &classes, p, opts),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::incremental_replay as evaluate_incremental;
    use super::*;
    use crate::classify::PAPER_MB;
    use crate::predictor::testutil::bursty_series;
    use crate::registry::full_suite;
    use crate::testing::slice_replay as evaluate;

    fn assert_reports_match(naive: &[PredictorReport], inc: &[PredictorReport]) {
        assert_eq!(naive.len(), inc.len());
        for (n, i) in naive.iter().zip(inc) {
            assert_eq!(n.name, i.name);
            assert_eq!(n.declined, i.declined, "{}", n.name);
            assert_eq!(n.outcomes.len(), i.outcomes.len(), "{}", n.name);
            for (a, b) in n.outcomes.iter().zip(&i.outcomes) {
                assert_eq!(a.at_unix, b.at_unix);
                assert_eq!(a.class, b.class);
                assert_eq!(a.measured, b.measured);
                let tol = 1e-9 * a.predicted.abs().max(b.predicted.abs()).max(1.0);
                assert!(
                    (a.predicted - b.predicted).abs() <= tol,
                    "{}: {} vs {}",
                    n.name,
                    a.predicted,
                    b.predicted
                );
            }
        }
    }

    #[test]
    fn matches_naive_on_bursty_multiclass_series() {
        let series = bursty_series(120);
        let suite = full_suite();
        let naive = evaluate(&series, &suite, EvalOptions::default());
        let inc = evaluate_incremental(&series, &suite, EvalOptions::default());
        assert_reports_match(&naive, &inc);
    }

    #[test]
    fn matches_naive_on_single_class_log() {
        let series: Vec<Observation> = (0..60)
            .map(|i| Observation {
                at_unix: 1_000 + i * 400,
                bandwidth_kbs: 100.0 + (i as f64 * 31.7) % 50.0,
                file_size: 500 * PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect();
        let suite = full_suite();
        let naive = evaluate(&series, &suite, EvalOptions::default());
        let inc = evaluate_incremental(&series, &suite, EvalOptions::default());
        assert_reports_match(&naive, &inc);
    }

    #[test]
    fn empty_and_short_series() {
        let suite = full_suite();
        let inc = evaluate_incremental(&[], &suite, EvalOptions::default());
        assert_eq!(inc.len(), 30);
        assert!(inc.iter().all(|r| r.outcomes.is_empty() && r.declined == 0));

        let series = bursty_series(10); // shorter than the training set
        let inc = evaluate_incremental(&series, &suite, EvalOptions::default());
        assert!(inc.iter().all(|r| r.outcomes.is_empty() && r.declined == 0));
    }

    #[test]
    fn rolling_sum_survives_regime_collapse() {
        // A large regime evicted from the window must not poison the
        // tiny residual (the failure mode of subtract-on-evict sums).
        let mut s = RollingSum::default();
        for _ in 0..1_000 {
            s.push(1e12);
        }
        s.push(1e-3);
        for _ in 0..1_000 {
            s.pop_oldest();
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.sum(), 1e-3);
    }

    #[test]
    fn custom_predictors_fall_back_to_slices() {
        use crate::mean::EwmaPredictor;
        let series = bursty_series(40);
        let suite = vec![NamedPredictor::new(Box::new(EwmaPredictor::new(0.5)), true)];
        assert!(suite[0].spec().is_none());
        let naive = evaluate(&series, &suite, EvalOptions::default());
        let inc = evaluate_incremental(&series, &suite, EvalOptions::default());
        assert_reports_match(&naive, &inc);
    }
}

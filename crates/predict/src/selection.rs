//! Dynamic predictor selection — the NWS-style "evaluate a number of
//! techniques and choose the most appropriate one on the fly" extension
//! the paper names as future work (§4.4, §7).
//!
//! The selector maintains, for every candidate predictor, its running
//! mean absolute percentage error on the observations seen so far; a
//! prediction request is answered by the candidate with the lowest
//! running error (falling back through candidates that decline).
//!
//! Ranking rules, shared with the windowed [`crate::tournament`]:
//!
//! * candidates that have never scored rank below every scored one;
//! * equal errors break ties by **candidate name** (lexicographic), not
//!   by registration index, so the winner does not depend on suite
//!   construction order;
//! * only *finite* errors accumulate — a NaN slipping into the error sum
//!   would poison the running mean forever and make every comparison
//!   against it false.

use std::collections::VecDeque;

use crate::observation::Observation;
use crate::registry::NamedPredictor;

/// Rolling mean absolute percentage error over the last `window` scored
/// predictions — the tournament's freshness-bounded variant of the
/// selector's all-time running MAPE.
///
/// Only finite errors are retained ([`record`](RollingMape::record)
/// drops NaN/infinite inputs), so [`mape`](RollingMape::mape) is always
/// finite or `None` — an all-zero-measurement stretch, which produces no
/// scorable errors at all under the shared zero-measurement convention,
/// simply leaves the window unchanged rather than surfacing NaN.
#[derive(Debug, Clone)]
pub struct RollingMape {
    window: usize,
    errs: VecDeque<f64>,
}

impl RollingMape {
    /// Rolling window over the last `window` errors (`window >= 1`).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one error");
        RollingMape {
            window,
            // No slots until something scores: a tournament holds one
            // of these per candidate per board, and most boards of most
            // pairs stay far below their nominal window.
            errs: VecDeque::new(),
        }
    }

    /// Record one absolute percentage error, evicting the oldest entry
    /// once the window is full. Non-finite errors are dropped (the NaN
    /// guard) — they carry no ranking information.
    pub fn record(&mut self, err: f64) {
        if !err.is_finite() {
            return;
        }
        if self.errs.len() == self.window {
            self.errs.pop_front();
        } else if self.errs.len() == self.errs.capacity() {
            // Grow geometrically, but never past the window.
            let target = (self.errs.capacity() * 2).max(4).min(self.window);
            self.errs.reserve_exact(target - self.errs.len());
        }
        self.errs.push_back(err);
    }

    /// Mean of the in-window errors; `None` until something scores: a
    /// front-to-back sum of up to `window` entries (50 on the
    /// tournament's global board, 400 on a class board by default). A
    /// sliding-window sum has no bit-exact O(1) form, and leaders are
    /// ranked on these bits.
    pub fn mape(&self) -> Option<f64> {
        if self.errs.is_empty() {
            return None;
        }
        Some(self.errs.iter().sum::<f64>() / self.errs.len() as f64)
    }

    /// Number of in-window errors.
    pub fn count(&self) -> usize {
        self.errs.len()
    }
}

/// A streaming dynamic selector over a set of candidate predictors.
pub struct DynamicSelector {
    candidates: Vec<NamedPredictor>,
    /// Sum of absolute percentage errors and count, per candidate.
    err_sum: Vec<f64>,
    err_count: Vec<usize>,
    history: Vec<Observation>,
    /// Observations to absorb before errors start accumulating.
    training: usize,
}

impl DynamicSelector {
    /// Create a selector; `training` observations are absorbed before
    /// scoring begins (mirrors the paper's 15-value training set).
    pub fn new(candidates: Vec<NamedPredictor>, training: usize) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let n = candidates.len();
        DynamicSelector {
            candidates,
            err_sum: vec![0.0; n],
            err_count: vec![0; n],
            history: Vec::new(),
            training,
        }
    }

    /// Feed one observation: each candidate is scored on how well it
    /// would have predicted it, then the observation joins the history.
    pub fn observe(&mut self, o: Observation) {
        // tidy: allow(float-eq): exact zero-measurement sentinel, same convention as eval::abs_pct_error
        if self.history.len() >= self.training && o.bandwidth_kbs != 0.0 {
            for (i, p) in self.candidates.iter().enumerate() {
                if let Some(pred) = p.predict(&self.history, o.at_unix, o.file_size) {
                    let err = (o.bandwidth_kbs - pred).abs() / o.bandwidth_kbs.abs() * 100.0;
                    // NaN guard: a non-finite measurement or prediction
                    // must not poison the running sum — every later
                    // comparison against a NaN mean would be false.
                    if err.is_finite() {
                        self.err_sum[i] += err;
                        self.err_count[i] += 1;
                    }
                }
            }
        }
        self.history.push(o);
    }

    /// Current running MAPE of a candidate (by index), if it has scored.
    pub fn running_mape(&self, idx: usize) -> Option<f64> {
        if self.err_count[idx] == 0 {
            None
        } else {
            Some(self.err_sum[idx] / self.err_count[idx] as f64)
        }
    }

    /// The index and name of the currently best-scoring candidate.
    /// Candidates that have never scored rank below all scored ones;
    /// equal running errors break ties by candidate name (stable,
    /// documented rule — not by registration index, which would make
    /// the winner depend on suite construction order).
    pub fn best_candidate(&self) -> (usize, &str) {
        let best = (0..self.candidates.len())
            .min_by(|&a, &b| self.rank_cmp(a, b))
            .expect("candidates is non-empty by construction");
        (best, self.candidates[best].name())
    }

    /// Total ranking order: `(running MAPE or +inf, name)`. `total_cmp`
    /// keeps the order total even for non-finite values, and the name
    /// component makes every tie deterministic.
    fn rank_cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        let ma = self.running_mape(a).unwrap_or(f64::INFINITY);
        let mb = self.running_mape(b).unwrap_or(f64::INFINITY);
        ma.total_cmp(&mb)
            .then_with(|| self.candidates[a].name().cmp(self.candidates[b].name()))
    }

    /// Predict for a transfer of `target_size` at `now` using the
    /// best-scoring candidate; falls back through candidates in score
    /// order (ties again broken by name) if the best declines. Returns
    /// `(candidate name, prediction)`.
    pub fn predict(&self, now: u64, target_size: u64) -> Option<(&str, f64)> {
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| self.rank_cmp(a, b));
        for i in order {
            if let Some(pred) = self.candidates[i].predict(&self.history, now, target_size) {
                return Some((self.candidates[i].name(), pred));
            }
        }
        None
    }

    /// Number of absorbed observations.
    pub fn observed(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PAPER_MB;
    use crate::last::LastValue;
    use crate::mean::MeanPredictor;
    use crate::registry::NamedPredictor;
    use crate::window::Window;

    fn obs(i: u64, bw: f64) -> Observation {
        Observation::new(1_000 + i, bw, 100 * PAPER_MB)
    }

    #[test]
    fn rolling_mape_allocates_on_first_use_and_never_past_its_window() {
        let mut m = RollingMape::new(400);
        assert_eq!(m.errs.capacity(), 0, "a fresh board owns no heap slots");
        m.record(f64::NAN);
        assert_eq!(m.errs.capacity(), 0, "dropped errors allocate nothing");
        for i in 0..1_000 {
            m.record(i as f64);
            assert!(m.errs.capacity() <= 400);
        }
        assert_eq!(m.count(), 400);
        assert_eq!(m.mape(), Some((600..1_000).sum::<i32>() as f64 / 400.0));
        let mut one = RollingMape::new(1);
        one.record(1.0);
        one.record(3.0);
        assert_eq!((one.count(), one.mape()), (1, Some(3.0)));
    }

    fn selector() -> DynamicSelector {
        DynamicSelector::new(
            vec![
                NamedPredictor::new(Box::new(LastValue::new()), false),
                NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false),
            ],
            5,
        )
    }

    #[test]
    fn picks_lv_on_regime_switching_series() {
        let mut s = selector();
        // Step series: LV tracks, AVG lags.
        for i in 0..40 {
            let bw = if i < 20 { 100.0 } else { 1_000.0 };
            s.observe(obs(i, bw));
        }
        let (_, name) = s.best_candidate();
        assert_eq!(name, "LV");
        let (used, pred) = s.predict(2_000, 100 * PAPER_MB).unwrap();
        assert_eq!(used, "LV");
        assert_eq!(pred, 1_000.0);
    }

    #[test]
    fn picks_mean_on_alternating_noise() {
        let mut s = selector();
        // Alternating 90/110: mean (100) beats last-value (always 20% off).
        for i in 0..40 {
            let bw = if i % 2 == 0 { 90.0 } else { 110.0 };
            s.observe(obs(i, bw));
        }
        let (_, name) = s.best_candidate();
        assert_eq!(name, "AVG");
    }

    #[test]
    fn training_period_suppresses_scoring() {
        let mut s = selector();
        for i in 0..5 {
            s.observe(obs(i, 100.0));
        }
        assert_eq!(s.running_mape(0), None);
        assert_eq!(s.running_mape(1), None);
        s.observe(obs(5, 100.0));
        // Sixth observation scored against five-strong history.
        assert!(s.running_mape(0).is_some());
    }

    #[test]
    fn predict_before_any_history_declines() {
        let s = selector();
        assert!(s.predict(0, PAPER_MB).is_none());
    }

    #[test]
    fn zero_bandwidth_observations_not_scored() {
        let mut s = selector();
        for i in 0..6 {
            s.observe(obs(i, 100.0));
        }
        let before = s.err_count[0];
        s.observe(obs(6, 0.0));
        assert_eq!(s.err_count[0], before);
        assert_eq!(s.observed(), 7);
    }

    #[test]
    fn equal_errors_break_ties_by_name() {
        // Two copies of the same technique under different names score
        // identically; the lexicographically smaller name must win
        // regardless of registration order.
        let mk = |name_first: bool| {
            let mut cands = vec![
                NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false),
                NamedPredictor::new(Box::new(MeanPredictor::new(Window::LastN(1_000))), false),
            ];
            if !name_first {
                cands.reverse();
            }
            let mut s = DynamicSelector::new(cands, 2);
            for i in 0..10 {
                s.observe(obs(i, 100.0 + (i % 3) as f64));
            }
            s.best_candidate().1.to_string()
        };
        // AVG < AVG1000 lexicographically; same answer in both orders.
        assert_eq!(mk(true), "AVG");
        assert_eq!(mk(false), "AVG");
    }

    #[test]
    fn nan_measurements_do_not_poison_running_mape() {
        let mut s = selector();
        for i in 0..8 {
            s.observe(obs(i, 100.0));
        }
        let before = s.running_mape(0).unwrap();
        assert!(before.is_finite());
        // A NaN bandwidth produces a NaN error; the guard must drop it.
        s.observe(obs(8, f64::NAN));
        s.observe(obs(9, 100.0));
        let after = s.running_mape(0).unwrap();
        assert!(after.is_finite(), "running MAPE poisoned: {after}");
        // Ranking still total and usable.
        let (_, name) = s.best_candidate();
        assert!(!name.is_empty());
    }
}

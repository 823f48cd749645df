//! Regression predictor family: bandwidth fit against transfer
//! covariates rather than against its own past values.
//!
//! The follow-up paper ("Using Regression Techniques to Predict Large
//! Data Transfers", Vazhkudai & Schopf) observes that achieved bandwidth
//! correlates with properties of the transfer itself — file size, stream
//! count, TCP buffer size — and with the time of day, and that fitting
//! those covariates beats purely autoregressive history techniques. This
//! module adds that family on top of the paper's windows:
//!
//! * `REGsz*` — linear in file size (MB),
//! * `REGsq*` — quadratic in file size,
//! * `REGstr*` — linear in parallel stream count,
//! * `REGbuf*` — linear in TCP buffer size (MB),
//! * `REGtod*` — first harmonic of the time of day
//!   (`sin`/`cos` of the 24-hour phase, the diurnal load cycle).
//!
//! Each fit solves the normal equations of `y = a + Σ b_j f_j(o)` over
//! the windowed history via a centered Gram accumulator ([`GramAcc`]).
//! The accumulator is associative, so the incremental replay engine
//! maintains it in the same two-stack sliding shape as its AR
//! accumulators and both engines share [`GramAcc::fit`] — they agree to
//! floating-point reassociation, like the rest of the suite.
//!
//! Degenerate covariates are the common case, not the exception: a
//! campaign where every transfer uses the same stream count (ours does)
//! gives `REGstr` a zero-variance regressor. Mirroring
//! [`crate::stats::ols`], the fit then returns `None` and the predictor
//! falls back to the windowed mean — the same graceful degradation the
//! AR family uses — rather than emitting NaN.

use crate::classify::PAPER_MB;
use crate::observation::Observation;
use crate::predictor::{mean_bandwidth, Predictor, PredictorSpec};
use crate::window::Window;

/// Maximum number of non-intercept basis functions.
pub const MAX_DIM: usize = 2;

/// Seconds per day, the period of the time-of-day harmonic.
const DAY_SECS: u64 = 86_400;

/// Which covariate family a regression predictor fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegKind {
    /// `y = a + b * size_mb` (`REGsz`).
    SizeLinear,
    /// `y = a + b * size_mb + c * size_mb^2` (`REGsq`).
    SizeQuad,
    /// `y = a + b * streams` (`REGstr`).
    Streams,
    /// `y = a + b * buffer_mb` (`REGbuf`).
    Buffer,
    /// `y = a + b sin(phase) + c cos(phase)` over the 24-hour day
    /// (`REGtod`).
    TimeOfDay,
}

impl RegKind {
    /// All kinds, in suite registration order.
    pub const ALL: [RegKind; 5] = [
        RegKind::SizeLinear,
        RegKind::SizeQuad,
        RegKind::Streams,
        RegKind::Buffer,
        RegKind::TimeOfDay,
    ];

    /// The short alphabetic name token (`sz`, `sq`, `str`, `buf`,
    /// `tod`). Tokens contain no digits, so a window suffix can follow
    /// unambiguously (`REGsz25` parses as `sz` + `25`, never `sz2` +
    /// `5`).
    pub fn token(self) -> &'static str {
        match self {
            RegKind::SizeLinear => "sz",
            RegKind::SizeQuad => "sq",
            RegKind::Streams => "str",
            RegKind::Buffer => "buf",
            RegKind::TimeOfDay => "tod",
        }
    }

    /// Inverse of [`RegKind::token`]: split `sz25` into the kind and the
    /// window-suffix remainder.
    pub(crate) fn strip_token(s: &str) -> Option<(RegKind, &str)> {
        RegKind::ALL
            .iter()
            .find_map(|&k| s.strip_prefix(k.token()).map(|rest| (k, rest)))
    }

    /// Number of non-intercept basis functions.
    pub fn dim(self) -> usize {
        match self {
            RegKind::SizeLinear | RegKind::Streams | RegKind::Buffer => 1,
            RegKind::SizeQuad | RegKind::TimeOfDay => 2,
        }
    }

    /// Basis-function values for a historical observation. Unused
    /// dimensions are zero.
    pub fn basis_of_obs(self, o: &Observation) -> [f64; MAX_DIM] {
        self.basis(o.at_unix, o.file_size, o.streams, o.tcp_buffer)
    }

    /// Basis-function values for the *target* transfer: its size and
    /// start time are known up front; its tuning covariates (streams,
    /// buffer) are taken from the most recent in-window observation,
    /// the best available guess for how the next transfer will be run.
    pub fn basis_of_target(self, now: u64, target_size: u64, last: &Observation) -> [f64; MAX_DIM] {
        self.basis(now, target_size, last.streams, last.tcp_buffer)
    }

    fn basis(self, at_unix: u64, size: u64, streams: u32, buffer: u64) -> [f64; MAX_DIM] {
        let size_mb = size as f64 / PAPER_MB as f64;
        match self {
            RegKind::SizeLinear => [size_mb, 0.0],
            RegKind::SizeQuad => [size_mb, size_mb * size_mb],
            RegKind::Streams => [streams as f64, 0.0],
            RegKind::Buffer => [buffer as f64 / PAPER_MB as f64, 0.0],
            RegKind::TimeOfDay => {
                let phase =
                    2.0 * std::f64::consts::PI * (at_unix % DAY_SECS) as f64 / DAY_SECS as f64;
                [phase.sin(), phase.cos()]
            }
        }
    }
}

/// Associative Gram-matrix accumulator for the normal equations of
/// `y = a + Σ b_j f_j`: observation count, Σf, Σy, ΣffT and Σfy. Merging
/// two accumulators is componentwise addition, which is what lets the
/// incremental engine keep it in a two-stack sliding window
/// (`RollingGram` in [`crate::incremental`]) while the naive engine sums
/// the windowed slice directly — both reach the same
/// [`fit`](GramAcc::fit).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GramAcc {
    /// Observation count.
    pub n: usize,
    /// Σ f_j per basis dimension.
    pub sf: [f64; MAX_DIM],
    /// Σ y.
    pub sy: f64,
    /// Σ f_i f_j (symmetric).
    pub sff: [[f64; MAX_DIM]; MAX_DIM],
    /// Σ f_j y.
    pub sfy: [f64; MAX_DIM],
}

impl GramAcc {
    /// Minimum observations before a fit is trusted, mirroring
    /// [`crate::arima::ArPredictor::MIN_POINTS`].
    pub const MIN_POINTS: usize = 4;

    /// Accumulator for a single observation.
    pub fn of_obs(basis: [f64; MAX_DIM], y: f64) -> GramAcc {
        let mut acc = GramAcc {
            n: 1,
            sf: basis,
            sy: y,
            ..GramAcc::default()
        };
        for i in 0..MAX_DIM {
            acc.sfy[i] = basis[i] * y;
            for j in 0..MAX_DIM {
                acc.sff[i][j] = basis[i] * basis[j];
            }
        }
        acc
    }

    /// Merge two accumulators (componentwise sums).
    pub fn merge(self, o: GramAcc) -> GramAcc {
        let mut out = GramAcc {
            n: self.n + o.n,
            sy: self.sy + o.sy,
            ..GramAcc::default()
        };
        for i in 0..MAX_DIM {
            out.sf[i] = self.sf[i] + o.sf[i];
            out.sfy[i] = self.sfy[i] + o.sfy[i];
            for j in 0..MAX_DIM {
                out.sff[i][j] = self.sff[i][j] + o.sff[i][j];
            }
        }
        out
    }

    /// Accumulate a windowed slice (the naive engine's path).
    pub fn from_slice(sel: &[Observation], kind: RegKind) -> GramAcc {
        let mut acc = GramAcc::default();
        for o in sel {
            acc = acc.merge(GramAcc::of_obs(kind.basis_of_obs(o), o.bandwidth_kbs));
        }
        acc
    }

    /// Solve the normal equations for `[a, b_1, .., b_dim]`.
    ///
    /// Returns `None` — the caller falls back to the windowed mean —
    /// when the sample is small (`n < MIN_POINTS`), when any covariate
    /// is degenerate (zero variance under the same relative threshold
    /// as [`crate::stats::ols`]; e.g. every transfer sharing one file
    /// size or stream count), or when the covariates are collinear
    /// (vanishing elimination pivot). This is the regression family's
    /// answer to the `stats::ols` degenerate-x contract: constant
    /// covariates degrade gracefully instead of emitting NaN.
    pub fn fit(self, dim: usize) -> Option<[f64; MAX_DIM + 1]> {
        debug_assert!((1..=MAX_DIM).contains(&dim));
        if self.n < Self::MIN_POINTS {
            return None;
        }
        let n = self.n as f64;
        let mut m = [0.0; MAX_DIM];
        for (mj, sfj) in m.iter_mut().zip(self.sf).take(dim) {
            *mj = sfj / n;
        }
        let my = self.sy / n;
        // Centered system: C b = d, then a = my - Σ b_j m_j.
        let mut c = [[0.0; MAX_DIM]; MAX_DIM];
        let mut d = [0.0; MAX_DIM];
        for i in 0..dim {
            d[i] = self.sfy[i] - n * m[i] * my;
            for j in 0..dim {
                c[i][j] = self.sff[i][j] - n * m[i] * m[j];
            }
        }
        // Per-covariate degeneracy, same relative threshold as
        // `stats::ols` (and identical to it at dim 1).
        for j in 0..dim {
            if c[j][j] < 1e-12 * (1.0 + m[j] * m[j]) * n {
                return None;
            }
        }
        // Gaussian elimination with partial pivoting on the (tiny)
        // centered system; a vanishing pivot means collinear covariates.
        let pivot_floor = 1e-12 * (1.0 + (0..dim).map(|j| c[j][j]).fold(0.0, f64::max));
        let mut b = [0.0; MAX_DIM];
        match dim {
            1 => {
                b[0] = d[0] / c[0][0];
            }
            _ => {
                if c[1][0].abs() > c[0][0].abs() {
                    c.swap(0, 1);
                    d.swap(0, 1);
                }
                let factor = c[1][0] / c[0][0];
                let p2 = c[1][1] - factor * c[0][1];
                if p2.abs() < pivot_floor {
                    return None;
                }
                b[1] = (d[1] - factor * d[0]) / p2;
                b[0] = (d[0] - c[0][1] * b[1]) / c[0][0];
            }
        }
        let mut coef = [0.0; MAX_DIM + 1];
        coef[0] = my;
        for j in 0..dim {
            coef[0] -= b[j] * m[j];
        }
        coef[1..=dim].copy_from_slice(&b[..dim]);
        if coef.iter().any(|v| !v.is_finite()) {
            return None;
        }
        Some(coef)
    }
}

/// Evaluate fitted coefficients at a target basis, clamped to a tiny
/// positive floor (negative bandwidth is meaningless and a zero
/// prediction would break percentage errors), like the AR family.
pub fn eval_fit(coef: [f64; MAX_DIM + 1], basis: [f64; MAX_DIM], dim: usize) -> f64 {
    let mut y = coef[0];
    for j in 0..dim {
        y += coef[j + 1] * basis[j];
    }
    y.max(1e-6)
}

/// Covariate-regression predictor over a history window.
#[derive(Debug, Clone)]
pub struct RegressionPredictor {
    name: String,
    kind: RegKind,
    window: Window,
}

impl RegressionPredictor {
    /// Regression of `kind` over `window`; named `REG` + kind token +
    /// window suffix (`REGsz`, `REGtod25hr`, ...).
    pub fn new(kind: RegKind, window: Window) -> Self {
        RegressionPredictor {
            name: format!("REG{}{}", kind.token(), window.name_suffix()),
            kind,
            window,
        }
    }

    /// The covariate family.
    pub fn kind(&self) -> RegKind {
        self.kind
    }

    /// The window in use.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Fit the coefficients on the windowed history, if well-posed.
    pub fn fit(&self, history: &[Observation], now: u64) -> Option<[f64; MAX_DIM + 1]> {
        let sel = self.window.select(history, now);
        GramAcc::from_slice(sel, self.kind).fit(self.kind.dim())
    }

    fn predict_impl(
        &self,
        history: &[Observation],
        now: u64,
        target_size: Option<u64>,
    ) -> Option<f64> {
        let sel = self.window.select(history, now);
        // Without an announced target size (plain `predict`), assume the
        // next transfer resembles the last one.
        let size = target_size.unwrap_or(sel.last()?.file_size);
        let gram = GramAcc::from_slice(sel, self.kind);
        predict_selected(self.kind, sel, gram, None, now, size)
    }
}

/// A regression prediction on an already-selected window, given its
/// Gram accumulator ([`GramAcc::from_slice`], or a running one merged
/// in the same order) and, when the caller keeps it, its `Σ` bandwidth
/// for the fallback mean.
pub(crate) fn predict_selected(
    kind: RegKind,
    sel: &[Observation],
    gram: GramAcc,
    sum: Option<f64>,
    now: u64,
    target_size: u64,
) -> Option<f64> {
    let last = sel.last()?;
    match gram.fit(kind.dim()) {
        Some(coef) => Some(eval_fit(
            coef,
            kind.basis_of_target(now, target_size, last),
            kind.dim(),
        )),
        // Degenerate or small sample: windowed mean, like AR.
        None => mean_bandwidth(sel, sum),
    }
}

impl Predictor for RegressionPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, history: &[Observation], now: u64) -> Option<f64> {
        self.predict_impl(history, now, None)
    }

    fn predict_sized(&self, history: &[Observation], now: u64, target_size: u64) -> Option<f64> {
        self.predict_impl(history, now, Some(target_size))
    }

    fn spec(&self) -> Option<PredictorSpec> {
        Some(PredictorSpec::Regression(self.kind, self.window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::testutil::history;

    fn sized_history(points: &[(u64, f64, u64)]) -> Vec<Observation> {
        points
            .iter()
            .map(|&(t, bw, size)| Observation::new(t, bw, size))
            .collect()
    }

    #[test]
    fn names_round_kind_and_window() {
        assert_eq!(
            RegressionPredictor::new(RegKind::SizeLinear, Window::All).name(),
            "REGsz"
        );
        assert_eq!(
            RegressionPredictor::new(RegKind::TimeOfDay, Window::LastSeconds(25 * 3_600)).name(),
            "REGtod25hr"
        );
        assert_eq!(
            RegressionPredictor::new(RegKind::Streams, Window::LastN(25)).name(),
            "REGstr25"
        );
    }

    #[test]
    fn recovers_exact_linear_size_law() {
        // bandwidth = 100 + 3 * size_mb, sizes spread out.
        let h: Vec<Observation> = (1..=10u64)
            .map(|i| Observation::new(i, 100.0 + 3.0 * (i * 50) as f64, i * 50 * PAPER_MB))
            .collect();
        let p = RegressionPredictor::new(RegKind::SizeLinear, Window::All);
        let coef = p.fit(&h, 11).unwrap();
        assert!((coef[0] - 100.0).abs() < 1e-6, "a={}", coef[0]);
        assert!((coef[1] - 3.0).abs() < 1e-9, "b={}", coef[1]);
        let pred = p.predict_sized(&h, 11, 200 * PAPER_MB).unwrap();
        assert!((pred - 700.0).abs() < 1e-6, "pred={pred}");
    }

    #[test]
    fn quadratic_recovers_parabola() {
        let h: Vec<Observation> = (1..=12u64)
            .map(|i| {
                let mb = (i * 10) as f64;
                Observation::new(i, 50.0 + 2.0 * mb + 0.1 * mb * mb, i * 10 * PAPER_MB)
            })
            .collect();
        let p = RegressionPredictor::new(RegKind::SizeQuad, Window::All);
        let coef = p.fit(&h, 13).unwrap();
        assert!((coef[0] - 50.0).abs() < 1e-5);
        assert!((coef[1] - 2.0).abs() < 1e-7);
        assert!((coef[2] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn constant_size_falls_back_to_windowed_mean() {
        // Satellite regression test: every transfer shares one file
        // size, so the size covariate has zero variance. The fit must
        // decline and the prediction must equal the windowed mean —
        // pinned here — not NaN.
        let h = sized_history(&[
            (1, 100.0, 5 * PAPER_MB),
            (2, 200.0, 5 * PAPER_MB),
            (3, 300.0, 5 * PAPER_MB),
            (4, 400.0, 5 * PAPER_MB),
            (5, 500.0, 5 * PAPER_MB),
        ]);
        for kind in [RegKind::SizeLinear, RegKind::SizeQuad] {
            let p = RegressionPredictor::new(kind, Window::All);
            assert!(p.fit(&h, 6).is_none(), "{kind:?} fit should decline");
            let pred = p.predict_sized(&h, 6, 5 * PAPER_MB).unwrap();
            assert_eq!(pred, 300.0, "{kind:?} falls back to the mean");
        }
    }

    #[test]
    fn constant_streams_and_buffer_fall_back() {
        // Default covariates (streams=1, buffer=0 via Observation::new)
        // are constant: both tuning regressions degrade to the mean.
        let h = history(&[10.0, 20.0, 30.0, 40.0]);
        for kind in [RegKind::Streams, RegKind::Buffer] {
            let p = RegressionPredictor::new(kind, Window::All);
            assert!(p.fit(&h, 0).is_none());
            assert_eq!(p.predict(&h, 2_000), Some(25.0));
        }
    }

    #[test]
    fn streams_covariate_fits_when_varied() {
        let mut h = Vec::new();
        for i in 1..=8u64 {
            let streams = (i % 4 + 1) as u32;
            let mut o = Observation::new(i, 100.0 * streams as f64, PAPER_MB);
            o.streams = streams;
            h.push(o);
        }
        let p = RegressionPredictor::new(RegKind::Streams, Window::All);
        let coef = p.fit(&h, 9).unwrap();
        assert!(coef[0].abs() < 1e-6);
        assert!((coef[1] - 100.0).abs() < 1e-9);
        // Target covariate comes from the newest observation (1 stream
        // at i=8: 8 % 4 + 1 = 1).
        let pred = p.predict_sized(&h, 9, PAPER_MB).unwrap();
        assert!((pred - 100.0).abs() < 1e-6, "pred={pred}");
    }

    #[test]
    fn time_of_day_tracks_diurnal_cycle() {
        // Bandwidth follows a clean 24h sinusoid; the harmonic fit
        // should predict tomorrow's same-phase value.
        let h: Vec<Observation> = (0..48u64)
            .map(|i| {
                let t = i * 3_600; // hourly for two days
                let phase = 2.0 * std::f64::consts::PI * (t % 86_400) as f64 / 86_400.0;
                Observation::new(t, 1_000.0 + 400.0 * phase.sin(), PAPER_MB)
            })
            .collect();
        let p = RegressionPredictor::new(RegKind::TimeOfDay, Window::All);
        let noon = 48 * 3_600 + 6 * 3_600; // phase = pi/2
        let pred = p.predict_sized(&h, noon, PAPER_MB).unwrap();
        assert!((pred - 1_400.0).abs() < 1e-6, "pred={pred}");
        let midnight = 49 * 86_400;
        let pred = p.predict_sized(&h, midnight, PAPER_MB).unwrap();
        assert!((pred - 1_000.0).abs() < 1e-6, "pred={pred}");
    }

    #[test]
    fn constant_timestamp_tod_falls_back() {
        // All observations at the same second of day: both harmonic
        // covariates are constant.
        let h = sized_history(&[
            (86_400, 10.0, PAPER_MB),
            (2 * 86_400, 20.0, PAPER_MB),
            (3 * 86_400, 30.0, PAPER_MB),
            (4 * 86_400, 40.0, PAPER_MB),
        ]);
        let p = RegressionPredictor::new(RegKind::TimeOfDay, Window::All);
        assert!(p.fit(&h, 5 * 86_400).is_none());
        assert_eq!(p.predict(&h, 5 * 86_400), Some(25.0));
    }

    #[test]
    fn collinear_quadratic_declines() {
        // Exactly two distinct sizes: size and size^2 are collinear, so
        // the 2x2 system is singular and the fit must decline (not
        // produce an arbitrary plane).
        let h = sized_history(&[
            (1, 100.0, 10 * PAPER_MB),
            (2, 200.0, 20 * PAPER_MB),
            (3, 110.0, 10 * PAPER_MB),
            (4, 210.0, 20 * PAPER_MB),
            (5, 105.0, 10 * PAPER_MB),
        ]);
        let p = RegressionPredictor::new(RegKind::SizeQuad, Window::All);
        assert!(p.fit(&h, 6).is_none());
        assert_eq!(p.predict_sized(&h, 6, 15 * PAPER_MB), Some(145.0));
    }

    #[test]
    fn small_sample_falls_back() {
        let h = history(&[5.0, 15.0, 10.0]); // 3 < MIN_POINTS
        let p = RegressionPredictor::new(RegKind::SizeLinear, Window::All);
        assert!(p.fit(&h, 0).is_none());
        assert_eq!(p.predict(&h, 2_000), Some(10.0));
    }

    #[test]
    fn empty_history_is_none() {
        let p = RegressionPredictor::new(RegKind::SizeLinear, Window::All);
        assert_eq!(p.predict(&[], 0), None);
        assert_eq!(p.predict_sized(&[], 0, PAPER_MB), None);
    }

    #[test]
    fn temporal_window_restricts_fit() {
        // Old regime with a steep size law, recent regime flat; a
        // windowed fit must ignore the old regime.
        let mut pts = Vec::new();
        for i in 1..=10u64 {
            pts.push((i, 10_000.0 * i as f64, i * 100 * PAPER_MB));
        }
        for i in 0..6u64 {
            pts.push((100_000 + i, 50.0, (5 + i) * PAPER_MB));
        }
        let h = sized_history(&pts);
        let p = RegressionPredictor::new(RegKind::SizeLinear, Window::LastSeconds(1_000));
        let pred = p.predict_sized(&h, 100_010, 500 * PAPER_MB).unwrap();
        assert!(pred < 1_000.0, "pred {pred} should ignore the old regime");
    }

    #[test]
    fn prediction_clamped_positive() {
        // A steep negative size slope extrapolates negative at large
        // target sizes; the clamp keeps it positive.
        let h: Vec<Observation> = (1..=6u64)
            .map(|i| Observation::new(i, 1_000.0 - 150.0 * i as f64, i * PAPER_MB))
            .collect();
        let p = RegressionPredictor::new(RegKind::SizeLinear, Window::All);
        let pred = p.predict_sized(&h, 7, 1_000 * PAPER_MB).unwrap();
        assert!(pred > 0.0);
    }

    #[test]
    fn gram_fit_matches_stats_ols_at_dim_one() {
        let h = sized_history(&[
            (1, 120.0, 10 * PAPER_MB),
            (2, 260.0, 25 * PAPER_MB),
            (3, 410.0, 40 * PAPER_MB),
            (4, 505.0, 50 * PAPER_MB),
            (5, 640.0, 65 * PAPER_MB),
        ]);
        let xs: Vec<f64> = h
            .iter()
            .map(|o| o.file_size as f64 / PAPER_MB as f64)
            .collect();
        let ys: Vec<f64> = h.iter().map(|o| o.bandwidth_kbs).collect();
        let (a, b) = crate::stats::ols(&xs, &ys).unwrap();
        let coef = GramAcc::from_slice(&h, RegKind::SizeLinear).fit(1).unwrap();
        assert!((coef[0] - a).abs() < 1e-9 * a.abs().max(1.0));
        assert!((coef[1] - b).abs() < 1e-9 * b.abs().max(1.0));
    }

    #[test]
    fn gram_add_is_associative_enough() {
        // Merging per-observation accumulators in two different orders
        // agrees with the slice sum within replay tolerance.
        let h: Vec<Observation> = (1..=20u64)
            .map(|i| Observation::new(i, 100.0 + (i as f64 * 13.7) % 61.0, i * 7 * PAPER_MB))
            .collect();
        let whole = GramAcc::from_slice(&h, RegKind::SizeQuad);
        let (lo, hi) = h.split_at(7);
        let merged = GramAcc::from_slice(lo, RegKind::SizeQuad)
            .merge(GramAcc::from_slice(hi, RegKind::SizeQuad));
        let a = whole.fit(2).unwrap();
        let b = merged.fit(2).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
        }
    }
}

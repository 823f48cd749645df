//! The predictor abstraction.
//!
//! A predictor maps a time-ordered throughput history to an estimate of
//! the *next* transfer's bandwidth. Every technique in the paper's
//! Figure 4 is the composition of a history [`Window`](crate::window::Window)
//! with one of three estimator families (mean, median, AR); this module
//! defines the common trait they implement.

use crate::observation::Observation;
use crate::regression::RegKind;
use crate::window::Window;

/// Structural description of a predictor: which estimator family it
/// belongs to and which window it applies. The incremental replay
/// engine ([`crate::incremental`]) uses this to carry rolling state
/// forward instead of re-deriving every prediction from the full
/// history slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Arithmetic mean over a window (`AVG*`).
    Mean(Window),
    /// Median over a window (`MED*`).
    Median(Window),
    /// AR(1) fit over a window with mean fallback (`AR*`).
    Ar(Window),
    /// Last observed value (`LV`).
    Last,
    /// Covariate regression over a window with mean fallback (`REG*`,
    /// see [`crate::regression`]).
    Regression(RegKind, Window),
}

impl std::fmt::Display for PredictorSpec {
    /// The paper's display name for the spec: estimator-family prefix
    /// (`AVG`/`MED`/`AR`, the fixed `LV`, or `REG` plus a covariate
    /// token) plus the window suffix from [`Window::name_suffix`]
    /// (`AVG25`, `MED5`, `AR10d`, `AVG15hr`, `REGsz25`). Inverse of
    /// [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PredictorSpec::Mean(w) => write!(f, "AVG{}", w.name_suffix()),
            PredictorSpec::Median(w) => write!(f, "MED{}", w.name_suffix()),
            PredictorSpec::Ar(w) => write!(f, "AR{}", w.name_suffix()),
            PredictorSpec::Last => write!(f, "LV"),
            PredictorSpec::Regression(k, w) => write!(f, "REG{}{}", k.token(), w.name_suffix()),
        }
    }
}

/// Error parsing a [`PredictorSpec`] from its display name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// The string that failed to parse.
    pub input: String,
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognized predictor spec {:?} (expected LV, AVG/MED/AR, or \
             REG with a covariate token like sz/sq/str/buf/tod, each with an \
             optional window suffix like 25, 15hr, 10d)",
            self.input
        )
    }
}

impl std::error::Error for ParseSpecError {}

/// Parse a window name-suffix: empty = all data, digits = last-N,
/// `{n}d`/`{n}hr`/`{n}s` = temporal. Inverse of [`Window::name_suffix`].
fn parse_window_suffix(s: &str) -> Option<Window> {
    if s.is_empty() {
        return Some(Window::All);
    }
    if let Some(days) = s.strip_suffix('d') {
        let d: u64 = days.parse().ok()?;
        return Some(Window::LastSeconds(d.checked_mul(86_400)?));
    }
    if let Some(hours) = s.strip_suffix("hr") {
        let h: u64 = hours.parse().ok()?;
        return Some(Window::LastSeconds(h.checked_mul(3_600)?));
    }
    if let Some(secs) = s.strip_suffix('s') {
        return Some(Window::LastSeconds(secs.parse().ok()?));
    }
    Some(Window::LastN(s.parse().ok()?))
}

impl std::str::FromStr for PredictorSpec {
    type Err = ParseSpecError;

    /// Parse a paper-convention predictor name (`AVG`, `MED5`, `AR10d`,
    /// `AVG15hr`, `LV`) back into its spec. Inverse of
    /// [`Display`](std::fmt::Display); the classification suffix `+C`
    /// is *not* accepted here — it is a property of the
    /// [`NamedPredictor`](crate::registry::NamedPredictor) wrapper, not
    /// of the base spec (see
    /// [`predictor_by_name`](crate::registry::predictor_by_name)).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSpecError {
            input: s.to_string(),
        };
        if s == "LV" {
            return Ok(PredictorSpec::Last);
        }
        if let Some(rest) = s.strip_prefix("REG") {
            // The covariate token is purely alphabetic and the window
            // suffix starts with a digit, so the split is unambiguous.
            let (kind, suffix) = RegKind::strip_token(rest).ok_or_else(err)?;
            return parse_window_suffix(suffix)
                .map(|w| PredictorSpec::Regression(kind, w))
                .ok_or_else(err);
        }
        if let Some(rest) = s.strip_prefix("AVG") {
            return parse_window_suffix(rest)
                .map(PredictorSpec::Mean)
                .ok_or_else(err);
        }
        if let Some(rest) = s.strip_prefix("MED") {
            return parse_window_suffix(rest)
                .map(PredictorSpec::Median)
                .ok_or_else(err);
        }
        if let Some(rest) = s.strip_prefix("AR") {
            return parse_window_suffix(rest)
                .map(PredictorSpec::Ar)
                .ok_or_else(err);
        }
        Err(err())
    }
}

/// Estimate the next transfer's bandwidth from history.
pub trait Predictor: Send + Sync {
    /// The predictor's display name (paper convention: `AVG25`, `MED5`,
    /// `AR10d`, `LV`, ...).
    fn name(&self) -> &str;

    /// Predict the bandwidth (KB/s) of a transfer starting at `now`,
    /// given the history of observations strictly preceding it. Returns
    /// `None` when the (windowed) history is insufficient for this
    /// technique.
    fn predict(&self, history: &[Observation], now: u64) -> Option<f64>;

    /// Predict with the target transfer's size announced. The paper's
    /// history techniques ignore it (the default delegates to
    /// [`predict`](Predictor::predict)); the regression family uses it
    /// as the size covariate of the target.
    fn predict_sized(&self, history: &[Observation], now: u64, target_size: u64) -> Option<f64> {
        let _ = target_size;
        self.predict(history, now)
    }

    /// Structural description of this predictor, if it belongs to one of
    /// the standard families. Predictors returning `Some` are eligible
    /// for the incremental replay fast path; the default `None` keeps
    /// custom predictors on the (equivalent) slice-based path.
    fn spec(&self) -> Option<PredictorSpec> {
        None
    }
}

/// The bandwidth values of an observation slice, in order.
pub(crate) fn bandwidths(obs: &[Observation]) -> impl Iterator<Item = f64> + '_ {
    obs.iter().map(|o| o.bandwidth_kbs)
}

/// Mean bandwidth of a (selected) slice: [`crate::stats::mean`] of its
/// values without collecting them. `sum`, when the caller keeps one, is
/// the slice's `Σ` bandwidth folded as `Iterator::sum` folds it, which
/// makes the mean one division and no pass.
pub(crate) fn mean_bandwidth(obs: &[Observation], sum: Option<f64>) -> Option<f64> {
    if obs.is_empty() {
        return None;
    }
    Some(sum.unwrap_or_else(|| bandwidths(obs).sum()) / obs.len() as f64)
}

/// Running `Σ` bandwidth of an append-only series — all of it, all but
/// its newest element and all but its oldest (AR's regressor and
/// regressand) — each bit-identical to `Iterator::sum` over that range:
/// the same left fold from the same identity (`-0.0`, not `0.0`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BandwidthSums {
    pub(crate) all: f64,
    pub(crate) but_newest: f64,
    pub(crate) but_oldest: f64,
}

impl BandwidthSums {
    pub(crate) fn new() -> Self {
        let identity: f64 = std::iter::empty::<f64>().sum();
        BandwidthSums {
            all: identity,
            but_newest: identity,
            but_oldest: identity,
        }
    }

    /// Append `v`; `first` says the series was empty.
    pub(crate) fn push(&mut self, v: f64, first: bool) {
        self.but_newest = self.all;
        self.all += v;
        if !first {
            self.but_oldest += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::str::FromStr;

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(PredictorSpec::Mean(Window::All).to_string(), "AVG");
        assert_eq!(PredictorSpec::Median(Window::LastN(5)).to_string(), "MED5");
        assert_eq!(
            PredictorSpec::Mean(Window::LastSeconds(15 * 3_600)).to_string(),
            "AVG15hr"
        );
        assert_eq!(
            PredictorSpec::Ar(Window::LastSeconds(10 * 86_400)).to_string(),
            "AR10d"
        );
        assert_eq!(PredictorSpec::Last.to_string(), "LV");
        assert_eq!(
            PredictorSpec::Median(Window::LastSeconds(90)).to_string(),
            "MED90s"
        );
        assert_eq!(
            PredictorSpec::Regression(RegKind::SizeLinear, Window::All).to_string(),
            "REGsz"
        );
        assert_eq!(
            PredictorSpec::Regression(RegKind::TimeOfDay, Window::LastSeconds(25 * 3_600))
                .to_string(),
            "REGtod25hr"
        );
        assert_eq!(
            PredictorSpec::Regression(RegKind::Streams, Window::LastN(25)).to_string(),
            "REGstr25"
        );
    }

    #[test]
    fn from_str_inverts_display_on_figure4() {
        for name in [
            "AVG",
            "MED",
            "AR",
            "LV",
            "AVG5",
            "MED5",
            "AVG15",
            "MED15",
            "AVG25",
            "MED25",
            "AVG5hr",
            "AVG15hr",
            "AVG25hr",
            "AR5d",
            "AR10d",
            "REGsz",
            "REGsz25",
            "REGsq",
            "REGstr",
            "REGbuf",
            "REGtod",
            "REGtod25hr",
        ] {
            let spec = PredictorSpec::from_str(name).unwrap();
            assert_eq!(spec.to_string(), name, "round trip of {name}");
        }
    }

    #[test]
    fn junk_is_rejected_with_context() {
        for bad in [
            "", "avg5", "LV5", "AVGx", "AR5w", "MED-3", "XYZ", "+C", "AVG5hr+C", "REG", "REG5",
            "REGxyz", "REGsz5w", "REGsz+C",
        ] {
            let e = PredictorSpec::from_str(bad).unwrap_err();
            assert_eq!(e.input, bad);
            assert!(e.to_string().contains(&format!("{bad:?}")), "{e}");
        }
    }

    #[test]
    fn overflowing_suffixes_fail_cleanly() {
        assert!(PredictorSpec::from_str("AR999999999999999999999d").is_err());
        let e = PredictorSpec::from_str(&format!("AVG{}d", u64::MAX)).unwrap_err();
        assert!(e.to_string().contains("unrecognized"));
    }

    fn arb_window() -> impl Strategy<Value = Window> {
        prop_oneof![
            Just(Window::All),
            (0usize..10_000).prop_map(Window::LastN),
            (0u64..100_000_000).prop_map(Window::LastSeconds),
        ]
    }

    fn arb_spec() -> impl Strategy<Value = PredictorSpec> {
        let arb_kind = (0..RegKind::ALL.len()).prop_map(|i| RegKind::ALL[i]);
        prop_oneof![
            arb_window().prop_map(PredictorSpec::Mean),
            arb_window().prop_map(PredictorSpec::Median),
            arb_window().prop_map(PredictorSpec::Ar),
            Just(PredictorSpec::Last),
            (arb_kind, arb_window()).prop_map(|(k, w)| PredictorSpec::Regression(k, w)),
        ]
    }

    proptest! {
        // Regression for the spec round-trip: every displayable spec
        // must parse back to itself, whatever unit name_suffix picked.
        #[test]
        fn display_from_str_round_trips(spec in arb_spec()) {
            let name = spec.to_string();
            let parsed = PredictorSpec::from_str(&name).unwrap();
            prop_assert_eq!(parsed, spec, "{}", name);
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::classify::PAPER_MB;
    use crate::observation::Observation;

    /// Build a history with 1-second spacing from bandwidth values.
    pub fn history(values: &[f64]) -> Vec<Observation> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| Observation {
                at_unix: 1_000 + i as u64,
                bandwidth_kbs: v,
                file_size: 1_000_000,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect()
    }

    /// Build a history with explicit (time, value) pairs.
    pub fn timed_history(pairs: &[(u64, f64)]) -> Vec<Observation> {
        pairs
            .iter()
            .map(|&(t, v)| Observation {
                at_unix: t,
                bandwidth_kbs: v,
                file_size: 1_000_000,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect()
    }

    /// A bursty multi-class series exercising every window kind:
    /// irregular gaps (some larger than the 5-hour window), all four
    /// size classes, and a regime change.
    pub fn bursty_series(n: usize) -> Vec<Observation> {
        let sizes = [2, 100, 400, 1000, 25, 150, 750];
        let mut t = 1_000_000u64;
        (0..n)
            .map(|i| {
                t += match i % 7 {
                    0 => 30,
                    1 => 600,
                    2 => 3_600,
                    3 => 7 * 3_600, // clears the 5hr window
                    _ => 200 + (i as u64 * 37) % 900,
                };
                Observation {
                    at_unix: t,
                    bandwidth_kbs: if i < n / 2 {
                        500.0 + (i as f64 * 13.7) % 300.0
                    } else {
                        4_000.0 + (i as f64 * 7.3) % 900.0
                    },
                    file_size: sizes[i % sizes.len()] * PAPER_MB,
                    streams: 1,
                    tcp_buffer: 0,
                }
            })
            .collect()
    }
}

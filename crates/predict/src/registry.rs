//! The paper's predictor suite (Figure 4) and the classified/unclassified
//! pairing used in the evaluation (§4.4: 15 predictors over all data plus
//! the same 15 over size-classified data = 30).

use std::cell::RefCell;

use crate::arima::ArPredictor;
use crate::classify::{filter_class_into, SizeClass};
use crate::last::LastValue;
use crate::mean::MeanPredictor;
use crate::median::MedianPredictor;
use crate::observation::Observation;
use crate::predictor::{Predictor, PredictorSpec};
use crate::regression::{RegKind, RegressionPredictor};
use crate::window::{paper, Window};

thread_local! {
    // Scratch buffer for class-filtered histories. `predict` takes
    // `&self` and must stay `Sync` (the replay engine fans predictors
    // out across threads), so the reusable buffer is per-thread rather
    // than per-predictor.
    static CLASS_SCRATCH: RefCell<Vec<Observation>> = const { RefCell::new(Vec::new()) };
}

/// Build the paper's 15 context-insensitive predictors, in Figure 4's
/// reading order: `AVG MED AR LV AVG5 MED5 AVG15 MED15 AVG25 MED25
/// AVG5hr AVG15hr AVG25hr AR5d AR10d`.
pub fn paper_predictors() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(MeanPredictor::new(Window::All)),
        Box::new(MedianPredictor::new(Window::All)),
        Box::new(ArPredictor::new(Window::All)),
        Box::new(LastValue::new()),
        Box::new(MeanPredictor::new(paper::LAST_5)),
        Box::new(MedianPredictor::new(paper::LAST_5)),
        Box::new(MeanPredictor::new(paper::LAST_15)),
        Box::new(MedianPredictor::new(paper::LAST_15)),
        Box::new(MeanPredictor::new(paper::LAST_25)),
        Box::new(MedianPredictor::new(paper::LAST_25)),
        Box::new(MeanPredictor::new(paper::HOURS_5)),
        Box::new(MeanPredictor::new(paper::HOURS_15)),
        Box::new(MeanPredictor::new(paper::HOURS_25)),
        Box::new(ArPredictor::new(paper::DAYS_5)),
        Box::new(ArPredictor::new(paper::DAYS_10)),
    ]
}

/// A predictor with an optional context-sensitive (file-size
/// classification) wrapper — one of the paper's 30 evaluated variants.
pub struct NamedPredictor {
    name: String,
    inner: Box<dyn Predictor>,
    classified: bool,
}

impl NamedPredictor {
    /// Wrap a base predictor. Classified variants carry a `+C` suffix in
    /// their display name.
    pub fn new(inner: Box<dyn Predictor>, classified: bool) -> Self {
        let name = if classified {
            format!("{}+C", inner.name())
        } else {
            inner.name().to_string()
        };
        NamedPredictor {
            name,
            inner,
            classified,
        }
    }

    /// Display name (`AVG25`, `AVG25+C`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base predictor's name without the classification suffix.
    pub fn base_name(&self) -> &str {
        self.inner.name()
    }

    /// Whether this variant filters history by the target's size class.
    pub fn is_classified(&self) -> bool {
        self.classified
    }

    /// Predict the bandwidth of a transfer of `target_size` bytes
    /// starting at `now`, given the full history. For classified
    /// variants, only observations in the target's size class are
    /// consulted (and the window then applies *within* the class, per
    /// §4.3: "choosing only to use data for similarly sized file
    /// transfers").
    pub fn predict(&self, history: &[Observation], now: u64, target_size: u64) -> Option<f64> {
        if self.classified {
            let class = SizeClass::of_bytes(target_size);
            CLASS_SCRATCH.with(|scratch| {
                let mut buf = scratch.borrow_mut();
                filter_class_into(history, class, &mut buf);
                self.predict_seen(&buf[..], now, target_size)
            })
        } else {
            self.predict_seen(history, now, target_size)
        }
    }

    /// The base predictor's answer on a history the caller has already
    /// restricted to what this variant may see — for a classified
    /// variant, the target's size class in arrival order. Given that,
    /// bit-identical to [`predict`](NamedPredictor::predict) on the full
    /// history.
    pub(crate) fn predict_seen(
        &self,
        seen: &[Observation],
        now: u64,
        target_size: u64,
    ) -> Option<f64> {
        self.inner.predict_sized(seen, now, target_size)
    }

    /// Structural description of the base predictor (see
    /// [`Predictor::spec`]); `None` for custom predictors.
    pub fn spec(&self) -> Option<PredictorSpec> {
        self.inner.spec()
    }
}

impl std::fmt::Debug for NamedPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedPredictor")
            .field("name", &self.name)
            .field("classified", &self.classified)
            .finish()
    }
}

/// Construct the standard predictor a spec describes.
pub fn predictor_for_spec(spec: PredictorSpec) -> Box<dyn Predictor> {
    match spec {
        PredictorSpec::Mean(w) => Box::new(MeanPredictor::new(w)),
        PredictorSpec::Median(w) => Box::new(MedianPredictor::new(w)),
        PredictorSpec::Ar(w) => Box::new(ArPredictor::new(w)),
        PredictorSpec::Last => Box::new(LastValue::new()),
        PredictorSpec::Regression(k, w) => Box::new(RegressionPredictor::new(k, w)),
    }
}

/// Build a suite variant from its display name (`AVG25`, `AR10d+C`,
/// ...): the base name selects the spec via
/// [`PredictorSpec::from_str`](std::str::FromStr), and a trailing `+C`
/// selects the context-sensitive (size-classified) wrapper. This is how
/// benches and CLI flags turn `--predictor AVG15hr+C` into a runnable
/// predictor; `None` when the name does not parse.
pub fn predictor_by_name(name: &str) -> Option<NamedPredictor> {
    let (base, classified) = match name.strip_suffix("+C") {
        Some(base) => (base, true),
        None => (name, false),
    };
    let spec: PredictorSpec = base.parse().ok()?;
    Some(NamedPredictor::new(predictor_for_spec(spec), classified))
}

/// The 15 paper predictors in one (un)classified flavour.
pub fn paper_suite(classified: bool) -> Vec<NamedPredictor> {
    paper_predictors()
        .into_iter()
        .map(|p| NamedPredictor::new(p, classified))
        .collect()
}

/// All 30 variants: 15 unclassified followed by 15 classified (§4.4).
pub fn full_suite() -> Vec<NamedPredictor> {
    let mut v = paper_suite(false);
    v.extend(paper_suite(true));
    v
}

/// The regression family (see [`crate::regression`]): each covariate
/// kind over the full history, plus windowed size variants — the
/// follow-up paper's techniques alongside the original 30.
pub fn regression_predictors() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(RegressionPredictor::new(RegKind::SizeLinear, Window::All)),
        Box::new(RegressionPredictor::new(
            RegKind::SizeLinear,
            paper::LAST_25,
        )),
        Box::new(RegressionPredictor::new(RegKind::SizeQuad, Window::All)),
        Box::new(RegressionPredictor::new(RegKind::Streams, Window::All)),
        Box::new(RegressionPredictor::new(RegKind::Buffer, Window::All)),
        Box::new(RegressionPredictor::new(RegKind::TimeOfDay, Window::All)),
        Box::new(RegressionPredictor::new(
            RegKind::TimeOfDay,
            paper::HOURS_25,
        )),
    ]
}

/// The regression family as suite variants, in both flavours: 7
/// unclassified (`REGsz`, ...) followed by 7 classified (`REGsz+C`,
/// ...), mirroring the paper's plain/`+C` structure. Classification is
/// *not* redundant for the size regressions even though the covariate
/// is the size: one global fit straddles four decades of file size and
/// is dominated by the large transfers, while a per-class fit captures
/// the local bandwidth/size relation (on the December campaign the
/// classified quadratic halves the best fixed predictor's error).
pub fn regression_suite() -> Vec<NamedPredictor> {
    let mut v: Vec<NamedPredictor> = regression_predictors()
        .into_iter()
        .map(|p| NamedPredictor::new(p, false))
        .collect();
    v.extend(
        regression_predictors()
            .into_iter()
            .map(|p| NamedPredictor::new(p, true)),
    );
    v
}

/// The paper's 30 variants plus the regression family in both flavours
/// — the candidate pool the tournament meta-predictor ranks.
pub fn extended_suite() -> Vec<NamedPredictor> {
    let mut v = full_suite();
    v.extend(regression_suite());
    v
}

/// The paper's Figure 4 table as `(row label, AVG, MED, AR)` cells — used
/// by `wanpred figure 4`.
pub fn figure4_table() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    vec![
        ("All data", "AVG", "MED", "AR"),
        ("Last 1 Value", "LV", "", ""),
        ("Last 5 Values", "AVG5", "MED5", ""),
        ("Last 15 Values", "AVG15", "MED15", ""),
        ("Last 25 Values", "AVG25", "MED25", ""),
        ("Last 5 Hours", "AVG5hr", "", ""),
        ("Last 15 Hours", "AVG15hr", "", ""),
        ("Last 25 Hours", "AVG25hr", "", ""),
        ("Last 5 Days", "", "", "AR5d"),
        ("Last 10 Days", "", "", "AR10d"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PAPER_MB;

    #[test]
    fn fifteen_predictors_with_paper_names() {
        let preds = paper_predictors();
        assert_eq!(preds.len(), 15);
        let names: Vec<&str> = preds.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "AVG", "MED", "AR", "LV", "AVG5", "MED5", "AVG15", "MED15", "AVG25", "MED25",
                "AVG5hr", "AVG15hr", "AVG25hr", "AR5d", "AR10d"
            ]
        );
    }

    #[test]
    fn thirty_variants_total() {
        let suite = full_suite();
        assert_eq!(suite.len(), 30);
        assert_eq!(suite.iter().filter(|p| p.is_classified()).count(), 15);
        assert_eq!(suite[0].name(), "AVG");
        assert_eq!(suite[15].name(), "AVG+C");
    }

    #[test]
    fn figure4_covers_all_names() {
        let table = figure4_table();
        let mut from_table: Vec<&str> = table
            .iter()
            .flat_map(|(_, a, m, r)| [*a, *m, *r])
            .filter(|s| !s.is_empty())
            .collect();
        from_table.sort_unstable();
        let mut names: Vec<String> = paper_predictors()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        names.sort();
        assert_eq!(
            from_table,
            names.iter().map(String::as_str).collect::<Vec<_>>()
        );
    }

    #[test]
    fn extended_suite_appends_regression_family() {
        let suite = extended_suite();
        assert_eq!(suite.len(), 44);
        let names: Vec<&str> = suite[30..].iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "REGsz",
                "REGsz25",
                "REGsq",
                "REGstr",
                "REGbuf",
                "REGtod",
                "REGtod25hr",
                "REGsz+C",
                "REGsz25+C",
                "REGsq+C",
                "REGstr+C",
                "REGbuf+C",
                "REGtod+C",
                "REGtod25hr+C",
            ]
        );
        assert!(suite[30..37].iter().all(|p| !p.is_classified()));
        assert!(suite[37..].iter().all(|p| p.is_classified()));
    }

    #[test]
    fn by_name_reconstructs_every_suite_variant() {
        for p in extended_suite() {
            let rebuilt = predictor_by_name(p.name()).unwrap_or_else(|| {
                panic!("{} did not parse", p.name());
            });
            assert_eq!(rebuilt.name(), p.name());
            assert_eq!(rebuilt.is_classified(), p.is_classified());
            assert_eq!(rebuilt.spec(), p.spec());
        }
        assert!(predictor_by_name("AVG5hr+C").is_some());
        assert!(predictor_by_name("bogus").is_none());
        assert!(predictor_by_name("+C").is_none());
    }

    #[test]
    fn classified_variant_filters_history() {
        // History: small files at 100 KB/s, huge files at 9000 KB/s.
        let mut h = Vec::new();
        for i in 0..10u64 {
            h.push(Observation {
                at_unix: i,
                bandwidth_kbs: 100.0,
                file_size: PAPER_MB, // 1 MB -> 10MB class
                streams: 1,
                tcp_buffer: 0,
            });
            h.push(Observation {
                at_unix: i,
                bandwidth_kbs: 9000.0,
                file_size: 1000 * PAPER_MB, // 1 GB class
                streams: 1,
                tcp_buffer: 0,
            });
        }
        let unclassified = NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false);
        let classified = NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), true);
        let u = unclassified.predict(&h, 100, 1000 * PAPER_MB).unwrap();
        let c = classified.predict(&h, 100, 1000 * PAPER_MB).unwrap();
        assert!((u - 4550.0).abs() < 1e-9, "mixed mean {u}");
        assert!((c - 9000.0).abs() < 1e-9, "class mean {c}");
    }

    #[test]
    fn classified_with_no_class_history_is_none() {
        let h = vec![Observation {
            at_unix: 0,
            bandwidth_kbs: 100.0,
            file_size: PAPER_MB,
            streams: 1,
            tcp_buffer: 0,
        }];
        let classified = NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), true);
        assert_eq!(classified.predict(&h, 1, 1000 * PAPER_MB), None);
    }
}

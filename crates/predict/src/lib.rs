//! # wanpred-predict
//!
//! The paper's core contribution: log-based predictors of wide-area bulk
//! transfer throughput, and the framework that evaluates them.
//!
//! * [`observation`] — the `(time, bandwidth, file size)` series extracted
//!   from GridFTP transfer logs.
//! * [`window`] — context-insensitive history filters (§4.2): all data,
//!   last *N* values, last *T* time.
//! * [`mean`], [`median`], [`last`], [`arima`] — the estimator families
//!   of §4.1.
//! * [`classify`] — context-sensitive file-size classification (§4.3).
//! * [`registry`] — Figure 4's 15 predictors and the 30-variant suite.
//! * [`eval`] — replay evaluation: absolute percentage error per size
//!   class (Figures 8–13) and relative best/worst tallies (Figures
//!   14–21).
//! * [`incremental`] — the replay engine: per-predictor rolling state
//!   (running sums, order statistics, OLS accumulators) instead of a
//!   per-target recomputation from the history slice.
//! * [`evaluation`] — the unified front door: [`Evaluation::builder`]
//!   selects suite, options and an observability sink.
//! * [`regression`] — covariate regression (file size, stream count,
//!   buffer size, time of day), the follow-up paper's technique.
//! * [`tournament`] — NWS-style dynamic predictor selection (the paper's
//!   §7 future work, implemented as an extension): a per-pair online
//!   tournament ranking a candidate suite by rolling MAPE and serving the
//!   current winner.
//! * [`hybrid`] — probe-assisted prediction and cold-start cross-path
//!   extrapolation (the rest of §7, implemented as extensions).
//! * [`stats`] — shared descriptive statistics.
//!
//! ## Quick example
//!
//! ```
//! use wanpred_predict::prelude::*;
//!
//! // A toy history: bandwidth ramping from 1000 to 1450 KB/s.
//! let history: Vec<Observation> = (0..10)
//!     .map(|i| Observation::new(1_000_000 + i * 3_600, 1_000.0 + 50.0 * i as f64, 100 * PAPER_MB))
//!     .collect();
//!
//! let avg5 = MeanPredictor::new(Window::LastN(5));
//! let p = avg5.predict(&history, 1_000_000 + 11 * 3_600).unwrap();
//! assert_eq!(p, 1_350.0); // mean of the last five values
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arima;
pub mod classify;
pub mod eval;
pub mod evaluation;
pub mod hybrid;
pub mod incremental;
pub mod last;
pub mod mean;
pub mod median;
pub mod observation;
pub mod predictor;
pub mod registry;
pub mod regression;
pub mod stats;
#[doc(hidden)]
pub mod testing;
pub mod tournament;
pub mod window;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::arima::ArPredictor;
    pub use crate::classify::{filter_class, SizeClass, PAPER_MB};
    pub use crate::eval::{
        relative_performance, EvalOptions, PredictionOutcome, PredictorReport, RelativeReport,
    };
    pub use crate::evaluation::{Evaluation, EvaluationBuilder};
    pub use crate::hybrid::{
        probe_at, recent_probe_mean, ConditionScaled, FittedRegression, ProbePoint, ProbeRegression,
    };
    pub use crate::last::LastValue;
    pub use crate::mean::{EwmaPredictor, MeanPredictor};
    pub use crate::median::MedianPredictor;
    pub use crate::observation::{
        observations_from_log, observations_from_ulm, sort_by_time, Observation,
    };
    pub use crate::predictor::{Predictor, PredictorSpec};
    pub use crate::registry::{
        extended_suite, full_suite, paper_predictors, paper_suite, predictor_by_name,
        predictor_for_spec, regression_predictors, regression_suite, NamedPredictor,
    };
    pub use crate::regression::{RegKind, RegressionPredictor};
    pub use crate::tournament::{
        replay_tournament, PairTournament, Tournament, TournamentOptions, TournamentReport,
    };
    pub use crate::window::{paper as paper_windows, Window};
}

pub use prelude::*;

//! # wanpred-nws
//!
//! A Network Weather Service-style network sensor: periodic lightweight
//! probe transfers over the simulated testbed ([`probe`]).
//!
//! The paper (§2, Figures 1–2) contrasts NWS's 64 KB untuned probes with
//! instrumented GridFTP transfers: the probes sit below 0.3 MB/s and
//! mispredict tuned parallel bulk transfers both quantitatively and
//! qualitatively. This crate exists to regenerate that comparison over
//! the same simulated links. Campaigns keep the raw measurements;
//! forecasting from them is `wanpred-predict`'s job.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod probe;

pub use probe::{ProbeAgent, ProbeMeasurement};

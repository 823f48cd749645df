//! Deterministic, sim-time-keyed observability for the wanpred
//! reproduction — the third pillar next to performance and robustness.
//!
//! The paper treats measurement as a first-class concern: GridFTP's
//! logging overhead is quantified (~25 ms/transfer), predictor accuracy
//! is the headline result, and the information services live or die by
//! freshness. NWS and NetLogger (see PAPERS.md) both insist that the
//! monitoring layer itself be low-overhead and timestamp-disciplined.
//! This crate applies those rules to the reproduction itself:
//!
//! * **Metrics** — counters, gauges, and log-bucketed histograms
//!   ([`hist::Histogram`], p50/p95/p99 queryable), all keyed by names
//!   declared in the static registry ([`names`]). `tidy` cross-checks
//!   every emission site against that registry.
//! * **Spans** — [`span::SpanStack`]: enter/exit pairs on deterministic
//!   sim timestamps, LIFO nesting, per-span duration histograms,
//!   unbalanced exits tolerated and tallied.
//! * **Snapshots** — [`snapshot::Snapshot`]: the frozen metric tree,
//!   exported as byte-deterministic JSON or CRC-sealed ULM logfmt lines.
//!
//! The emission handle is [`ObsSink`]: `disabled()` is the null sink
//! (one branch per emission), and
//! `enabled()` clones all share one registry. No wall clock exists
//! anywhere in this crate: every timestamp is simulation time or a
//! deterministic unix epoch, so two same-seed campaigns produce
//! byte-identical snapshots.

pub mod hist;
pub mod names;
pub mod sink;
pub mod snapshot;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use sink::ObsSink;
pub use snapshot::Snapshot;

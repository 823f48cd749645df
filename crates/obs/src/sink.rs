//! The emission handle: [`ObsSink`].
//!
//! A sink is either *disabled* — the null sink, a `None` inside, so
//! every emission is one branch and returns — or *enabled*, an
//! `Arc<Mutex<…>>` shared registry. Clones share state: the campaign
//! hands one enabled sink to the engine, the transfer manager, the
//! information services, and the broker, and they all write into the
//! same tree. The enabled-vs-null cost difference is what `wanbench`
//! reports as `obs.enabled_overhead_frac` (budget: ≤ 5% of campaign
//! wall-clock).
//!
//! Determinism: counters and histograms are order-insensitive
//! (commutative merges), so they may be emitted from rayon workers.
//! Gauges (last-write-wins) and spans (a single LIFO stack) are NOT
//! order-insensitive — emit them only from deterministic sequential
//! code. `predict`'s evaluation replays follow this rule by emitting
//! aggregates after the parallel collect.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::Histogram;
use crate::names;
use crate::snapshot::Snapshot;
use crate::span::SpanStack;

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: SpanStack,
}

/// A cloneable metrics emission handle. See the module docs for the
/// enabled/disabled split and the determinism rules.
#[derive(Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "ObsSink(enabled)"
        } else {
            "ObsSink(disabled)"
        })
    }
}

impl ObsSink {
    /// The null sink: every emission is a single branch. This is the
    /// default, so uninstrumented configs pay nothing.
    pub fn disabled() -> Self {
        ObsSink { inner: None }
    }

    /// A live sink with an empty registry.
    pub fn enabled() -> Self {
        ObsSink {
            inner: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// Whether emissions are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn with(&self, f: impl FnOnce(&mut Registry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock());
        }
    }

    /// Add 1 to counter `name`.
    #[inline]
    pub fn inc(&self, name: &'static str) {
        self.inc_by(name, 1);
    }

    /// Add `n` to counter `name`. Adding 0 is a no-op and does not
    /// materialize the counter (batched flushes rely on this).
    #[inline]
    pub fn inc_by(&self, name: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        self.with(|r| {
            debug_assert!(names::is_registered(name), "unregistered metric {name}");
            *r.counters.entry(name).or_insert(0) += n;
        });
    }

    /// Set gauge `name` to `v` (last write wins — sequential code only).
    #[inline]
    pub fn gauge(&self, name: &'static str, v: f64) {
        self.with(|r| {
            debug_assert!(names::is_registered(name), "unregistered metric {name}");
            r.gauges.insert(name, v);
        });
    }

    /// Record `v` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        self.with(|r| {
            debug_assert!(names::is_registered(name), "unregistered metric {name}");
            r.histograms.entry(name).or_default().record(v);
        });
    }

    /// Record a batch of values into histogram `name` under one lock.
    /// Hot loops (the simulation engine) buffer locally and flush through
    /// this so per-event cost stays a plain integer push.
    #[inline]
    pub fn observe_many(&self, name: &'static str, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        self.with(|r| {
            debug_assert!(names::is_registered(name), "unregistered metric {name}");
            let h = r.histograms.entry(name).or_default();
            for &v in values {
                h.record(v);
            }
        });
    }

    /// Open span `name` at deterministic timestamp `at_us`
    /// (sequential code only — spans share one LIFO stack).
    #[inline]
    pub fn span_enter(&self, name: &'static str, at_us: u64) {
        self.with(|r| {
            debug_assert!(names::is_registered(name), "unregistered metric {name}");
            r.spans.enter(name, at_us);
        });
    }

    /// Close span `name` at `at_us`; a matched exit records the span
    /// duration into the histogram of the same name, an unmatched one is
    /// tallied under `obs.span.unbalanced`.
    #[inline]
    pub fn span_exit(&self, name: &'static str, at_us: u64) {
        self.with(|r| {
            debug_assert!(names::is_registered(name), "unregistered metric {name}");
            if let Some(dur) = r.spans.exit(name, at_us) {
                r.histograms.entry(name).or_default().record(dur);
            }
        });
    }

    /// Freeze the current metric tree. The null sink returns the empty
    /// snapshot. Span bookkeeping (unbalanced exits, max depth) is
    /// folded in at freeze time.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let r = inner.lock();
        let mut snap = Snapshot::default();
        for (k, v) in &r.counters {
            snap.counters.insert((*k).to_string(), *v);
        }
        for (k, v) in &r.gauges {
            snap.gauges.insert((*k).to_string(), *v);
        }
        for (k, h) in &r.histograms {
            snap.histograms.insert((*k).to_string(), h.snapshot());
        }
        if r.spans.unbalanced() > 0 {
            snap.counters
                .insert(names::OBS_SPAN_UNBALANCED.to_string(), r.spans.unbalanced());
        }
        if r.spans.max_depth() > 0 {
            snap.gauges.insert(
                names::OBS_SPAN_MAX_DEPTH.to_string(),
                r.spans.max_depth() as f64,
            );
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_records_nothing() {
        let s = ObsSink::disabled();
        s.inc(names::SIMNET_ENGINE_EVENTS);
        s.gauge(names::CAMPAIGN_FAULT_EVENTS, 3.0);
        s.observe(names::SIMNET_FLOW_BYTES, 42);
        s.span_enter(names::CAMPAIGN_RUN, 0);
        s.span_exit(names::CAMPAIGN_RUN, 10);
        assert!(!s.is_enabled());
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let s = ObsSink::enabled();
        let t = s.clone();
        s.inc(names::SIMNET_ENGINE_EVENTS);
        t.inc(names::SIMNET_ENGINE_EVENTS);
        assert_eq!(s.snapshot().counter(names::SIMNET_ENGINE_EVENTS), 2);
    }

    #[test]
    fn span_exit_feeds_histogram_under_span_name() {
        let s = ObsSink::enabled();
        s.span_enter(names::CAMPAIGN_RUN, 1_000);
        s.span_exit(names::CAMPAIGN_RUN, 5_000);
        let snap = s.snapshot();
        let h = snap.histogram(names::CAMPAIGN_RUN).expect("span histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 4_000);
        assert_eq!(snap.counter(names::OBS_SPAN_UNBALANCED), 0);
        assert_eq!(snap.gauge(names::OBS_SPAN_MAX_DEPTH), Some(1.0));
    }

    #[test]
    fn unbalanced_exits_surface_in_snapshot() {
        let s = ObsSink::enabled();
        s.span_exit(names::CAMPAIGN_RUN, 10);
        s.span_enter(names::INFOD_GRIS_REFRESH, 0);
        s.span_exit(names::CAMPAIGN_RUN, 20);
        let snap = s.snapshot();
        assert_eq!(snap.counter(names::OBS_SPAN_UNBALANCED), 2);
        assert!(snap.histogram(names::CAMPAIGN_RUN).is_none());
    }

    #[test]
    fn snapshot_is_deterministic_for_same_emissions() {
        let run = || {
            let s = ObsSink::enabled();
            for i in 0..100u64 {
                s.inc(names::SIMNET_ENGINE_EVENTS);
                s.observe(names::SIMNET_FLOW_BYTES, i * 37 + 5);
            }
            s.gauge(names::CAMPAIGN_FAULT_EVENTS, 12.0);
            s.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }
}

//! The exported metric tree.
//!
//! A [`Snapshot`] is a frozen, fully ordered view of everything a sink
//! recorded: `BTreeMap`s keyed by metric name, so serialization order is
//! a function of the names alone. Combined with integer metric values
//! and the vendored serde shim's deterministic float formatting, two
//! same-seed campaigns serialize byte-identical snapshots — that is the
//! determinism contract, and `tests/obs_determinism.rs` holds it over a
//! faulty+chaos campaign.
//!
//! Two export formats:
//! * JSON ([`Snapshot::to_json`]) — the full tree, machine-readable.
//! * ULM logfmt ([`Snapshot::to_ulm_lines`]) — one `Keyword=Value` line
//!   per metric, each sealed with the same CRC-32 trailer the transfer
//!   logs use, so the salvage tooling and integrity checks apply to
//!   metric dumps unchanged.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};
use wanpred_logfmt::integrity::append_crc;
use wanpred_logfmt::writer::atomic_write;

use crate::hist::HistogramSnapshot;

/// A frozen view of one sink's metric tree.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotonic event tallies.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins point-in-time values.
    pub gauges: BTreeMap<String, f64>,
    /// Distribution summaries (count/sum/min/max/p50/p95/p99).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter value, 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary, if anything was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Pretty JSON rendering of the full tree. Byte-deterministic: map
    /// order is the `BTreeMap` name order.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parse a snapshot back from [`Snapshot::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// ULM-style logfmt rendering: one `METRIC=... KIND=... ...` line per
    /// metric, each carrying the standard CRC-32 integrity trailer.
    pub fn to_ulm_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&append_crc(&format!(
                "METRIC={name} KIND=counter VALUE={v}"
            )));
            out.push('\n');
        }
        for (name, v) in &self.gauges {
            out.push_str(&append_crc(&format!("METRIC={name} KIND=gauge VALUE={v}")));
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            out.push_str(&append_crc(&format!(
                "METRIC={name} KIND=histogram COUNT={} SUM={} MIN={} MAX={} P50={} P95={} P99={}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            )));
            out.push('\n');
        }
        out
    }

    /// Atomically write the checksummed ULM rendering to `path`.
    pub fn save_ulm(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.to_ulm_lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanpred_logfmt::integrity::{check_line, CrcStatus};

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("a.b.c".into(), 7);
        s.gauges.insert("g.h".into(), 2.5);
        s.histograms.insert(
            "h.i".into(),
            HistogramSnapshot {
                count: 3,
                sum: 60,
                min: 10,
                max: 30,
                p50: 20,
                p95: 30,
                p99: 30,
            },
        );
        s
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let back = Snapshot::from_json(&s.to_json()).expect("parse");
        assert_eq!(s, back);
    }

    #[test]
    fn ulm_lines_carry_valid_checksums() {
        let s = sample();
        let lines = s.to_ulm_lines();
        assert_eq!(lines.lines().count(), 3);
        for line in lines.lines() {
            let (_, status) = check_line(line);
            assert_eq!(status, CrcStatus::Valid, "line {line:?}");
        }
        assert!(lines.contains("METRIC=a.b.c KIND=counter VALUE=7"));
    }

    #[test]
    fn accessors_default_sanely() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("missing"), None);
        assert!(s.histogram("missing").is_none());
    }
}

//! What a run writes: the result with its envelope, and the summary
//! line the acceptance driver reads. Both go through the vendored
//! `serde_json`; nothing is formatted by hand.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::Command;

use serde::{Deserialize, Serialize};

/// Where, how and on what a result was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    pub schema: u64,
    /// `git rev-parse HEAD`, or `"unknown"` outside a repository.
    pub git_rev: String,
    pub nproc: u64,
    /// `release` or `debug`.
    pub profile: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// The workload's frozen sizes.
    pub sizes: BTreeMap<String, u64>,
    pub setup_reps: u64,
    /// Untraced passes; how many of them, the fastest, the end-to-end
    /// timings were read from; traced passes.
    pub passes: u64,
    pub quiet_passes: u64,
    pub traced_passes: u64,
    /// Samples behind `op_ms_p50`.
    pub latency_samples: u64,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

impl Envelope {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Self {
        Envelope {
            schema: 1,
            git_rev: first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            workload: workload.into(),
            seed,
            seconds,
            traced,
            smoke,
            sizes: BTreeMap::new(),
            setup_reps: 0,
            passes: 0,
            quiet_passes: 0,
            traced_passes: 0,
            latency_samples: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    pub name: String,
    /// The issue's name for the metric on this workload, if it has one.
    pub alias: String,
    pub value: f64,
    pub unit: String,
    /// `end_to_end` or `per_layer`.
    pub kind: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub envelope: Envelope,
    pub result_digest: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricRow>,
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The last line of stdout: exactly these four keys.
#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("the shim's serializer does not fail")
    }

    pub fn from_json(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }

    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub fn summary_line(&self, traced: bool) -> String {
        let kind = if traced { "per_layer" } else { "end_to_end" };
        let summary = Summary {
            correct: self.correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| {
                    (
                        m.name.clone(),
                        MetricValue {
                            value: m.value,
                            unit: m.unit.clone(),
                        },
                    )
                })
                .collect(),
        };
        serde_json::to_string(&summary).expect("the shim's serializer does not fail")
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

pub fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, seed: u64, ops_per_s: f64) -> RunResult {
        let mut envelope = Envelope::new(workload, seed, 10.0, false, false);
        envelope.sizes.insert("sites".into(), 8);
        envelope.passes = 7;
        RunResult {
            envelope,
            result_digest: "00000000000000ff".into(),
            correct: true,
            attempted: 28_000,
            failed: 0,
            metrics: vec![
                MetricRow {
                    name: "ops_per_s".into(),
                    alias: "records_per_s".into(),
                    value: ops_per_s,
                    unit: "1/s".into(),
                    kind: "end_to_end".into(),
                },
                MetricRow {
                    name: "simnet.events".into(),
                    alias: String::new(),
                    value: 0.0,
                    unit: "count".into(),
                    kind: "per_layer".into(),
                },
            ],
        }
    }

    #[test]
    fn result_round_trips_with_its_envelope() {
        let r = sample("history_refresh", 7, 3_512.062_5);
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.envelope.sizes["sites"], 8);
        assert!(!back.envelope.rustc.is_empty() && !back.envelope.git_rev.is_empty());
        assert!(back.envelope.nproc >= 1);
    }

    #[test]
    fn summary_line_has_the_four_keys_and_one_kind_of_metric() {
        let r = sample("history_refresh", 7, 3_512.062_5);
        let line = r.summary_line(false);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":28000,\"failed\":0,\"metrics\":{")
        );
        assert!(line.contains("\"ops_per_s\":{\"value\":3512.0625,\"unit\":\"1/s\"}"));
        assert!(!line.contains("simnet.events"));
        let traced = r.summary_line(true);
        assert!(traced.contains("\"simnet.events\":{\"value\":0.0,\"unit\":\"count\"}"));
        assert!(!traced.contains("ops_per_s"));
    }
}

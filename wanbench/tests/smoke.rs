//! Keeps all four workloads compiling, correct and digest-stable: each
//! one at `--smoke` size through the real binary, untraced and traced,
//! twice on the same seed.

use std::process::Command;

use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Row {
    name: String,
    value: f64,
    unit: String,
    kind: String,
}

#[derive(Debug, Deserialize)]
struct Result {
    result_digest: String,
    correct: bool,
    failed: u64,
    metrics: Vec<Row>,
}

/// Run one smoke-sized workload; returns the full result and the
/// summary line.
fn smoke(workload: &str, seed: u64, trace: u8) -> (Result, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wanbench"))
        .args(["--workload", workload, "--smoke", "--seconds", "0.2"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("wanbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines();
    let full = lines.next().expect("a result line");
    let summary = lines.next().expect("a summary line");
    assert!(lines.next().is_none(), "exactly two lines on stdout");
    let result: Result = serde_json::from_str(full).expect("the result parses");
    (result, summary.to_string())
}

/// Count metrics of a traced run that must repeat exactly. The harness
/// tallies (`bench.*`) depend on how many passes fit the time budget.
fn exact_counts(r: &Result) -> Vec<(&str, f64)> {
    r.metrics
        .iter()
        .filter(|m| m.kind == "per_layer" && m.unit == "count" && !m.name.starts_with("bench."))
        .map(|m| (m.name.as_str(), m.value))
        .collect()
}

fn check(workload: &str) {
    let (plain, summary) = smoke(workload, 7, 0);
    assert!(plain.correct && plain.failed == 0);
    assert!(summary.starts_with("{\"correct\":true,\"attempted\":"));
    for name in ["setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb"] {
        let m = plain.metrics.iter().find(|m| m.name == name).unwrap();
        assert!(m.value > 0.0, "{workload}: {name} = {}", m.value);
        assert!(summary.contains(&format!("\"{name}\":{{\"value\":")));
    }
    assert!(!summary.contains("share."), "untraced: end-to-end only");

    let (a, summary) = smoke(workload, 7, 1);
    let (b, _) = smoke(workload, 7, 1);
    assert!(a.correct && b.correct);
    assert!(summary.contains("\"bench.trace_overhead_frac\":{\"value\":"));
    assert!(!summary.contains("\"ops_per_s\""), "traced: per-layer only");
    assert_eq!(plain.result_digest, a.result_digest, "traced vs untraced");
    assert_eq!(a.result_digest, b.result_digest, "run to run");
    assert_eq!(exact_counts(&a), exact_counts(&b), "counts repeat exactly");
    assert!(!exact_counts(&a).is_empty());

    let (other, _) = smoke(workload, 8, 0);
    assert_ne!(other.result_digest, plain.result_digest, "the seed matters");
}

#[test]
fn paper_pipeline_smoke() {
    check("paper_pipeline");
}

#[test]
fn grid_scale_smoke() {
    check("grid_scale");
}

#[test]
fn history_refresh_smoke() {
    check("history_refresh");
}

#[test]
fn inquiry_mix_smoke() {
    check("inquiry_mix");
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "no_such"][..],
        &["--workload", "grid_scale", "--trace", "2"],
        &["--workload", "grid_scale", "--seconds", "0"],
        &["--compare", "only_one.jsonl"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wanbench"))
            .args(args)
            .output()
            .expect("wanbench runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

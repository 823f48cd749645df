//! `--compare a.jsonl b.jsonl`: judge set `b` against set `a` with the
//! benchmark's own bounds, one verdict per (workload, metric).
//!
//! Each file holds the result lines `--out` appended, any number of
//! runs of any workloads. A metric whose run-to-run spread (quartile
//! distance over the median, the wider of the two sets) exceeds its
//! bound is `unresolved`, not unchanged — unless every run of `b` reads
//! better than every run of `a`.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::metrics::{is_exact_count, END_TO_END};
use crate::report::RunResult;
use crate::stats::{iqr_over_median, median};

pub struct Report {
    pub text: String,
    pub regressed: bool,
}

fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunResult::from_json(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

pub fn compare_files(a: &str, b: &str) -> Result<Report, String> {
    Ok(compare(&load(a)?, &load(b)?))
}

/// End-to-end values come from untraced runs, which spend their whole
/// budget on them; traced runs stand in only when there are no others.
fn values(runs: &[&RunResult], metric: &str) -> Vec<f64> {
    let of = |traced: bool| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.envelope.traced == traced)
            .filter_map(|r| r.metric(metric))
            .collect()
    };
    let untraced = of(false);
    if untraced.is_empty() {
        of(true)
    } else {
        untraced
    }
}

/// `(seed → value)` of everything that must repeat exactly: the digest,
/// and the count metrics of traced runs.
fn exact(runs: &[&RunResult]) -> BTreeMap<(u64, String), String> {
    let mut m = BTreeMap::new();
    for r in runs {
        m.insert(
            (r.envelope.seed, "result_digest".to_string()),
            r.result_digest.clone(),
        );
        if r.envelope.traced {
            for row in r.metrics.iter().filter(|row| is_exact_count(&row.name)) {
                m.insert((r.envelope.seed, row.name.clone()), row.value.to_string());
            }
        }
    }
    m
}

pub fn compare(a: &[RunResult], b: &[RunResult]) -> Report {
    let mut text = String::new();
    let mut regressed = false;
    let _ = writeln!(
        text,
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse", "spread", "bound"
    );
    let mut by_workload: BTreeMap<&str, (Vec<&RunResult>, Vec<&RunResult>)> = BTreeMap::new();
    for r in a {
        by_workload
            .entry(&r.envelope.workload)
            .or_default()
            .0
            .push(r);
    }
    for r in b {
        by_workload
            .entry(&r.envelope.workload)
            .or_default()
            .1
            .push(r);
    }
    for (workload, (ra, rb)) in &by_workload {
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(text, "{workload:<16} only in one set: skipped");
            continue;
        }
        for d in &END_TO_END {
            let (va, vb) = (values(ra, d.name), values(rb, d.name));
            let (ma, mb) = (median(&va), median(&vb));
            let worse = match d.better {
                "lower" => (mb - ma) / ma,
                _ => (ma - mb) / ma,
            };
            let spread = iqr_over_median(&va).max(iqr_over_median(&vb));
            let b_always_better = va.iter().all(|&x| {
                vb.iter()
                    .all(|&y| if d.better == "lower" { y < x } else { y > x })
            });
            let verdict = if spread > d.bound {
                if b_always_better {
                    "ok"
                } else {
                    "unresolved"
                }
            } else if worse > d.bound {
                "regressed"
            } else {
                "ok"
            };
            regressed |= verdict == "regressed";
            let _ = writeln!(
                text,
                "{workload:<16} {:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {verdict}",
                d.name,
                worse * 100.0,
                spread * 100.0,
                d.bound * 100.0,
            );
        }

        // No increase in the share of failed operations.
        let frac = |runs: &[&RunResult]| {
            let (f, n) = runs.iter().fold((0u64, 0u64), |(f, n), r| {
                (f + r.failed + u64::from(!r.correct), n + r.attempted)
            });
            f as f64 / n.max(1) as f64
        };
        let (fa, fb) = (frac(ra), frac(rb));
        let verdict = if fb > fa { "regressed" } else { "ok" };
        regressed |= fb > fa;
        let _ = writeln!(
            text,
            "{workload:<16} {:<14} {fa:>12.6} {fb:>12.6} {:>8} {:>7} {:>6}  {verdict}",
            "failed_frac", "", "", "none"
        );

        // What must repeat bit for bit, seed by seed.
        let (ea, eb) = (exact(ra), exact(rb));
        let changed: Vec<String> = ea
            .iter()
            .filter(|(k, v)| eb.get(*k).is_some_and(|w| w != *v))
            .map(|((seed, name), _)| format!("{name}@seed{seed}"))
            .collect();
        let shared = ea.keys().filter(|k| eb.contains_key(*k)).count();
        let _ = writeln!(
            text,
            "{workload:<16} {:<14} {shared} exact values shared: {}",
            "digest+counts",
            if changed.is_empty() {
                "all identical".to_string()
            } else {
                format!("CHANGED {}", changed.join(" "))
            }
        );
    }
    Report { text, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Envelope, MetricRow};

    fn run(seed: u64, ops_per_s: f64, digest: &str) -> RunResult {
        let mut envelope = Envelope::new("grid_scale", seed, 10.0, false, false);
        envelope.git_rev = "unknown".into();
        let metrics = END_TO_END
            .iter()
            .map(|d| MetricRow {
                name: d.name.into(),
                alias: String::new(),
                value: if d.name == "ops_per_s" {
                    ops_per_s
                } else {
                    100.0
                },
                unit: d.unit.into(),
                kind: "end_to_end".into(),
            })
            .collect();
        RunResult {
            envelope,
            result_digest: digest.into(),
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics,
        }
    }

    fn set(values: &[f64]) -> Vec<RunResult> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| run(i as u64, v, "aa"))
            .collect()
    }

    fn verdict_of(report: &Report, metric: &str) -> String {
        report
            .text
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(metric))
            .and_then(|l| l.split_whitespace().last())
            .unwrap()
            .to_string()
    }

    #[test]
    fn steady_sets_within_the_bound_are_ok() {
        let r = compare(
            &set(&[1000.0, 1004.0, 998.0, 1001.0]),
            &set(&[960.0, 955.0, 962.0, 958.0]),
        );
        assert_eq!(verdict_of(&r, "ops_per_s"), "ok");
        assert!(!r.regressed);
        assert!(r.text.contains("all identical"));
    }

    #[test]
    fn a_steady_drop_beyond_the_bound_regresses() {
        let r = compare(
            &set(&[1000.0, 1004.0, 998.0, 1001.0]),
            &set(&[850.0, 846.0, 853.0, 849.0]),
        );
        assert_eq!(verdict_of(&r, "ops_per_s"), "regressed");
        assert_eq!(verdict_of(&r, "op_ms_p50"), "ok");
        assert!(r.regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = set(&[1000.0, 700.0, 1300.0, 900.0, 1100.0]);
        let r = compare(&noisy, &set(&[800.0, 1250.0, 650.0, 990.0, 1010.0]));
        assert_eq!(verdict_of(&r, "ops_per_s"), "unresolved");
        assert!(!r.regressed);
        let r = compare(&noisy, &set(&[1400.0, 2000.0, 1500.0, 2600.0, 1350.0]));
        assert_eq!(verdict_of(&r, "ops_per_s"), "ok");
    }

    #[test]
    fn more_failures_and_changed_digests_show() {
        let a = set(&[1000.0, 1001.0]);
        let mut b = set(&[1000.0, 1001.0]);
        b[1].failed = 3;
        b[0].result_digest = "bb".into();
        let r = compare(&a, &b);
        assert_eq!(verdict_of(&r, "failed_frac"), "regressed");
        assert!(r.text.contains("CHANGED result_digest@seed0"));
        assert!(r.regressed);
    }
}

//! `wanbench`: one pipeline benchmark for wanpred.
//!
//! One process runs one workload:
//!
//! ```text
//! wanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--smoke] [--out <file>] [--trace-out <file>]
//! wanbench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! It sets the workload up, runs passes for `--seconds`, checks the
//! outputs, and prints two JSON lines on stdout: the full result
//! (envelope, digest, every metric with its unit) and, last, the
//! summary line the acceptance driver reads. `--trace 0` measures the
//! end-to-end metrics with no recorder in the way; `--trace 1` runs
//! every pass twice back to back, plain and then under the span
//! recorder, and reports the per-layer metrics. Nothing is written
//! except to stdout and the paths given on the command line.

mod compare;
mod digest;
mod metrics;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::{Envelope, MetricRow, RunResult};
use workloads::{Counts, Workload};

/// Times a workload is set up in one run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

const USAGE: &str =
    "usage: wanbench --workload <paper_pipeline|grid_scale|history_refresh|inquiry_mix> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>] [--trace-out <file>]\n       \
wanbench --compare <a.jsonl> <b.jsonl>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// What one pass measured.
struct PassStat {
    /// Operations per host second.
    rate: f64,
    /// Timed host seconds.
    timed_s: f64,
    latencies_ms: Vec<f64>,
}

/// What a phase (the passes of a run, traced or not) measured.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    passes: Vec<PassStat>,
    /// Digest and counts of pass 0, the reference pass.
    digest: u64,
    reference: Counts,
    /// Counts summed over every pass.
    total: Counts,
}

impl Phase {
    /// Run pass `i` and add what it did.
    fn run_pass(&mut self, w: &mut dyn Workload, i: u64) {
        trace::untraced(|| w.prepare(i));
        trace::set_iter(i as u32);
        let out = trace::span("bench.pass", || w.pass(i));
        self.attempted += out.ops;
        self.failed += out.failed;
        self.passes.push(PassStat {
            rate: out.ops as f64 / out.timed_s,
            timed_s: out.timed_s,
            latencies_ms: out.latencies_ms,
        });
        for (k, v) in &out.counts {
            *self.total.entry(k).or_default() += v;
        }
        if i == 0 {
            self.digest = out.digest.value();
            self.reference = out.counts;
        }
    }

    /// The quarter of the passes with the highest rate.
    ///
    /// The sandbox this runs in slows down by a fifth for seconds at a
    /// time, whatever the program does; interference only ever slows a
    /// pass down, so the fastest passes are the ones measured on a quiet
    /// machine, and the end-to-end timings are read from them. Passes do
    /// the same kind and amount of work, so the choice does not favour
    /// easy inputs by more than their rates differ.
    fn quiet(&self) -> Vec<&PassStat> {
        let mut by_rate: Vec<&PassStat> = self.passes.iter().collect();
        by_rate.sort_by(|a, b| b.rate.total_cmp(&a.rate));
        by_rate.truncate(self.passes.len().div_ceil(4));
        by_rate
    }
}

/// Run passes 0, 1, 2, … until `budget_s` of wall time is used. With
/// `traced`, every pass is run twice back to back — recorder off, then
/// on — so the two phases see the same machine weather.
fn run_passes(w: &mut dyn Workload, budget_s: f64, traced: bool) -> (Phase, Phase) {
    let (mut plain, mut recorded) = (Phase::default(), Phase::default());
    let t0 = Instant::now();
    for i in 0.. {
        plain.run_pass(w, i);
        if traced {
            trace::enable(true);
            recorded.run_pass(w, i);
            trace::enable(false);
        }
        if t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    (plain, recorded)
}

/// `VmHWM` of this process, megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(a: &Args) -> Result<bool, String> {
    let mut envelope = Envelope::new(&a.workload, a.seed, a.seconds, a.trace, a.smoke);

    // Set-up, several times over; the last instance is the one measured.
    let reps = if a.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..reps {
        drop(w.take());
        let t0 = Instant::now();
        w = workloads::setup(&a.workload, a.seed, a.smoke);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.ok_or("unknown workload")?;
    envelope.sizes = w
        .sizes()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    envelope.setup_reps = reps as u64;

    let (plain, traced) = run_passes(&mut *w, a.seconds, a.trace);
    let rss = peak_rss_mb();
    let quiet = plain.quiet();
    let quiet_rates: Vec<f64> = quiet.iter().map(|p| p.rate).collect();
    let quiet_latencies: Vec<f64> = quiet
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    envelope.passes = plain.passes.len() as u64;
    envelope.quiet_passes = quiet.len() as u64;
    envelope.latency_samples = quiet_latencies.len() as u64;

    let mut correct = plain.failed == 0;
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut rows = Vec::new();
    let end_to_end = [
        ("setup_s", stats::median(&setup_s)),
        ("ops_per_s", stats::median(&quiet_rates)),
        ("op_ms_p50", stats::median(&quiet_latencies)),
        ("peak_rss_mb", rss),
    ];
    for (d, (name, value)) in metrics::END_TO_END.iter().zip(end_to_end) {
        debug_assert_eq!(d.name, name);
        rows.push(MetricRow {
            name: name.into(),
            alias: metrics::alias(&a.workload, name).into(),
            value,
            unit: d.unit.into(),
            kind: "end_to_end".into(),
        });
    }

    if a.trace {
        trace::deposit(0);
        let recorded = trace::collect();
        envelope.traced_passes = traced.passes.len() as u64;
        attempted += traced.attempted;
        failed += traced.failed;
        correct &= traced.failed == 0;
        if traced.digest != plain.digest {
            eprintln!(
                "wanbench: digest differs between untraced ({}) and traced ({}) pass 0",
                digest::hex(plain.digest),
                digest::hex(traced.digest)
            );
            correct = false;
        }
        let mut probes = w.layer_probes();
        // Pass i does the same work in both phases, back to back: pair
        // them.
        let ratios: Vec<f64> = traced
            .passes
            .iter()
            .zip(&plain.passes)
            .map(|(t, p)| t.timed_s / p.timed_s)
            .collect();
        probes.insert("bench.trace_overhead_frac", stats::median(&ratios) - 1.0);
        // The tail as it was, interference included: every untraced pass.
        let all = stats::sorted(
            plain
                .passes
                .iter()
                .flat_map(|p| p.latencies_ms.iter().copied())
                .collect(),
        );
        let hi = stats::hi(&all);
        probes.insert(
            "bench.op_ms_hi",
            hi.map_or_else(|| stats::percentile(&all, 50.0), |h| h.value),
        );
        probes.insert("bench.op_hi_percentile", hi.map_or(50.0, |h| h.percentile));
        let values = metrics::per_layer(
            &recorded,
            traced.passes.len(),
            &traced.reference,
            &traced.total,
            &probes,
        );
        for d in &metrics::PER_LAYER {
            rows.push(MetricRow {
                name: d.name.into(),
                alias: String::new(),
                value: values[d.name],
                unit: d.unit.into(),
                kind: "per_layer".into(),
            });
        }
        if let Some(path) = &a.trace_out {
            recorded
                .write_jsonl(path)
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }

    let result = RunResult {
        envelope,
        result_digest: digest::hex(plain.digest),
        correct,
        attempted,
        failed,
        metrics: rows,
    };
    let line = result.to_json();
    println!("{line}");
    if let Some(path) = &a.out {
        report::append_line(path, &line).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.summary_line(a.trace));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::compare_files(a, b) {
                Ok(report) => {
                    print!("{}", report.text);
                    if report.regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("wanbench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wanbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wanbench: {}: outputs failed their checks", args.workload);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("wanbench: {e}");
            ExitCode::from(2)
        }
    }
}

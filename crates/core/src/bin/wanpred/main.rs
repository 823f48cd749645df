//! `wanpred` — command-line interface to the predictive framework.
//!
//! ```text
//! wanpred campaign --month august --seed 42 --days 14 --out DIR
//!     simulate a measurement campaign; writes <pair>.ulm logs and
//!     <pair>-probes.csv probe series into DIR
//! wanpred evaluate --log FILE [--training 15] [--class 10mb|100mb|500mb|1gb]
//!                  [--predictor NAME ...]
//!     replay a predictor suite over a ULM log, print error tables; the
//!     default suite is the paper's 30 variants, or name predictors
//!     explicitly (paper convention: AVG25, MED5, AR10d, LV, AVG15hr+C)
//! wanpred predict --log FILE --size-mb N [--now UNIX]
//!     one prediction for the next transfer of the given size
//! wanpred provider --log FILE --host NAME --address IP [--now UNIX]
//!     print the information provider's LDIF for a log
//! wanpred select --replica FILE:HOST ... --size-mb N --client ADDR [--now UNIX]
//!     broker decision across several servers' logs
//! wanpred figure [ID [FLAGS]] / wanpred ablate [ID [FLAGS]]
//!     regenerate a paper figure or run an ablation; no ID lists the ids
//! ```
//!
//! Every subcommand works on the paper's ULM `Keyword=Value` log format
//! (what the `campaign` subcommand and the instrumented servers emit).

mod ablations;
mod figures;
mod registry;
mod serving;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wanpred_core::infod::{to_ldif_document, GridFtpPerfProvider, ProviderConfig};
use wanpred_core::prelude::*;
use wanpred_core::replica::filter_safe;
use wanpred_core::testbed::Table;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "campaign" => cmd_campaign(rest),
        "evaluate" => cmd_evaluate(rest),
        "predict" => cmd_predict(rest),
        "provider" => cmd_provider(rest),
        "select" => cmd_select(rest),
        "figure" => registry::dispatch("figure", registry::FIGURES, rest),
        "ablate" => registry::dispatch("ablate", registry::ABLATIONS, rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}\n\n{}", registry::help());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wanpred: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  wanpred campaign --month august|december [--seed N] [--days N] [--out DIR]
  wanpred evaluate --log FILE [--training N] [--class 10mb|100mb|500mb|1gb]
                   [--predictor NAME ...]
  wanpred predict  --log FILE --size-mb N [--now UNIX]
  wanpred provider --log FILE --host NAME --address IP [--now UNIX]
  wanpred select   --replica FILE:HOST [--replica FILE:HOST ...]
                   --size-mb N --client ADDR [--now UNIX]
  wanpred figure   [ID [FLAGS]]    (no ID: list the figure ids)
  wanpred ablate   [ID [FLAGS]]    (no ID: list the ablation ids)";

/// Minimal `--key value` argument map with flag support.
struct Args<'a> {
    raw: &'a [String],
}

impl<'a> Args<'a> {
    fn new(raw: &'a [String]) -> Self {
        Args { raw }
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    fn get_all(&self, key: &str) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i + 1 < self.raw.len() {
            if self.raw[i] == key {
                out.push(self.raw[i + 1].as_str());
                i += 2;
            } else {
                i += 1;
            }
        }
        out
    }

    /// True if the value-less `flag` is present.
    fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    fn require(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing {key}"))
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
        }
    }
}

fn load_log(path: &str) -> Result<TransferLog, String> {
    TransferLog::load_ulm(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

/// `--size-mb` as `(MB, bytes)`. A size whose byte count overflows
/// `u64` is as bad a value as a non-numeric one.
fn size_arg(args: &Args<'_>) -> Result<(u64, u64), String> {
    let bad = || "bad --size-mb".to_string();
    let size_mb: u64 = args.require("--size-mb")?.parse().map_err(|_| bad())?;
    let size = size_mb.checked_mul(PAPER_MB).ok_or_else(bad)?;
    Ok((size_mb, size))
}

/// `--class 10mb|100mb|500mb|1gb`, if given.
fn class_arg(args: &Args<'_>) -> Result<Option<SizeClass>, String> {
    args.get("--class")
        .map(|label| {
            SizeClass::parse_label(label)
                .ok_or_else(|| format!("unknown class {label:?}; use 10mb|100mb|500mb|1gb"))
        })
        .transpose()
}

fn default_now(log: &TransferLog) -> u64 {
    log.records().iter().map(|r| r.end_unix).max().unwrap_or(0) + 1
}

fn cmd_campaign(raw: &[String]) -> Result<(), String> {
    let args = Args::new(raw);
    let seed: u64 = args.parse("--seed", 42)?;
    let days: u64 = args.parse("--days", 14)?;
    let out: PathBuf = PathBuf::from(args.get("--out").unwrap_or("."));
    let mut cfg = match args.get("--month").unwrap_or("august") {
        "august" => CampaignConfig::august(seed),
        "december" => CampaignConfig::december(seed),
        other => return Err(format!("unknown month {other:?} (august|december)")),
    };
    cfg.duration = SimDuration::from_days(days);

    eprintln!("simulating {days}-day campaign (seed {seed})...");
    let result = run_campaign(&cfg);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    for pair in Pair::ALL {
        let name = pair.label().to_ascii_lowercase();
        let log_path = out.join(format!("{name}.ulm"));
        result
            .log(pair)
            .save_ulm(&log_path)
            .map_err(|e| format!("writing {}: {e}", log_path.display()))?;
        let probes_path = out.join(format!("{name}-probes.csv"));
        let mut csv = String::from("unix,mbps\n");
        for p in result.probes(pair) {
            csv.push_str(&format!(
                "{},{:.4}\n",
                result.epoch_unix + p.at.as_secs(),
                p.bandwidth_mbs()
            ));
        }
        std::fs::write(&probes_path, csv)
            .map_err(|e| format!("writing {}: {e}", probes_path.display()))?;
        println!(
            "{}: {} transfers -> {}, {} probes -> {}",
            pair.label(),
            result.log(pair).len(),
            log_path.display(),
            result.probes(pair).len(),
            probes_path.display()
        );
    }
    Ok(())
}

fn cmd_evaluate(raw: &[String]) -> Result<(), String> {
    let args = Args::new(raw);
    let log = load_log(args.require("--log")?)?;
    let training: usize = args.parse("--training", 15)?;
    let class = class_arg(&args)?;
    let names = args.get_all("--predictor");
    let suite = if names.is_empty() {
        full_suite()
    } else {
        names
            .iter()
            .map(|n| {
                predictor_by_name(n)
                    .ok_or_else(|| format!("unknown predictor {n:?} (try AVG25, AR10d, LV+C)"))
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    let eval = Evaluation::builder()
        .suite(suite)
        .training(training)
        .build();
    let reports = eval.run_log(&log);
    let title = match class {
        Some(c) => format!("{} transfers, {} class", log.len(), c.label()),
        None => format!("{} transfers, all classes", log.len()),
    };
    let mut table = Table::new(title).headers([
        "predictor",
        "MAPE %",
        "median err %",
        "p90 err %",
        "answered",
    ]);
    for (r, p) in reports.iter().zip(eval.predictors()) {
        let (mape, p50, p90, n) = match class {
            Some(c) => (
                r.mape_for_class(c),
                r.error_percentile_for_class(c, 50.0),
                r.error_percentile_for_class(c, 90.0),
                r.count_for_class(c),
            ),
            None => (
                r.mape(),
                r.error_percentile(50.0),
                r.error_percentile(90.0),
                r.outcomes.len(),
            ),
        };
        let fmt = |v: Option<f64>| v.map(|m| format!("{m:.1}")).unwrap_or("-".into());
        table.row([
            p.name().to_string(),
            fmt(mape),
            fmt(p50),
            fmt(p90),
            n.to_string(),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_predict(raw: &[String]) -> Result<(), String> {
    let args = Args::new(raw);
    let log = load_log(args.require("--log")?)?;
    let (size_mb, size) = size_arg(&args)?;
    let now: u64 = args.parse("--now", default_now(&log))?;

    let mut obs = observations_from_log(&log);
    sort_by_time(&mut obs);
    let class = SizeClass::of_bytes(size);
    println!(
        "history: {} transfers ({} in the {} class)",
        obs.len(),
        filter_class(&obs, class).len(),
        class.label()
    );
    let mut table = Table::new(format!("predictions for a {size_mb} MB transfer"))
        .headers(["predictor", "KB/s"]);
    for p in full_suite() {
        if let Some(v) = p.predict(&obs, now, size) {
            table.row([p.name().to_string(), format!("{v:.0}")]);
        }
    }
    println!("{}", table.render());

    let mut tournament = Tournament::new(full_suite(), TournamentOptions::default());
    for o in &obs {
        tournament.observe(*o);
    }
    if let Some((name, v)) = tournament.predict(now, size) {
        println!("dynamic selection: {name} -> {v:.0} KB/s");
    }
    Ok(())
}

fn cmd_provider(raw: &[String]) -> Result<(), String> {
    let args = Args::new(raw);
    let log = load_log(args.require("--log")?)?;
    let host = args.require("--host")?;
    let address = args.require("--address")?;
    let now: u64 = args.parse("--now", default_now(&log))?;
    let provider = GridFtpPerfProvider::from_snapshot(ProviderConfig::new(host, address), log);
    print!("{}", to_ldif_document(&provider.build_entries(now)));
    Ok(())
}

fn cmd_select(raw: &[String]) -> Result<(), String> {
    let args = Args::new(raw);
    let specs = args.get_all("--replica");
    if specs.is_empty() {
        return Err("need at least one --replica FILE:HOST".to_string());
    }
    let (size_mb, size) = size_arg(&args)?;
    // The client and hosts are written into the broker's inquiry filter;
    // one holding a filter metacharacter would rewrite it.
    let bad_filter_value = |flag: &str, v: &str| {
        format!("bad {flag} {v:?}: no `*`, `(`, `)`, `\\` or surrounding whitespace")
    };
    let client = args.require("--client")?;
    if !filter_safe(client) {
        return Err(bad_filter_value("--client", client));
    }
    let mut replicas = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (file, host) = spec
            .rsplit_once(':')
            .ok_or_else(|| format!("--replica must be FILE:HOST, got {spec:?}"))?;
        if !filter_safe(host) {
            return Err(bad_filter_value("--replica HOST", host));
        }
        replicas.push((file, host));
    }

    let mut fw = PredictiveFramework::new();
    let mut now = 0u64;
    for &(file, host) in &replicas {
        let log = load_log(file)?;
        now = now.max(default_now(&log));
        fw.publish_server_log(host, host, log, 0);
        fw.register_replica(
            "lfn://cli",
            PhysicalReplica {
                host: host.to_string(),
                path: format!("/data/{size_mb}MB"),
                size,
            },
        )
        .map_err(|e| e.to_string())?;
    }
    let now: u64 = args.parse("--now", now)?;
    // Registration happened at 0; refresh so the soft state is live at
    // the query time.
    for &(_, host) in &replicas {
        fw.renew_server(host, now);
    }
    let sel = fw
        .select_replica(client, "lfn://cli", now)
        .map_err(|e| e.to_string())?;
    for (i, s) in sel.scores.iter().enumerate() {
        let marker = if i == sel.chosen { "-> " } else { "   " };
        println!(
            "{marker}{:<24} {}",
            s.replica.host,
            s.predicted_kbs
                .map(|p| format!("{p:.0} KB/s predicted"))
                .unwrap_or_else(|| "no information".to_string())
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_get_and_require() {
        let raw = v(&["--log", "a.ulm", "--csv", "--size-mb", "100"]);
        let a = Args::new(&raw);
        assert_eq!(a.get("--log"), Some("a.ulm"));
        assert_eq!(a.require("--size-mb").unwrap(), "100");
        assert!(a.require("--client").is_err());
        assert!(a.has("--csv"));
        assert!(!a.has("--smoke"));
    }

    #[test]
    fn args_parse_with_default() {
        let raw = v(&["--days", "7"]);
        let a = Args::new(&raw);
        assert_eq!(a.parse("--days", 14u64).unwrap(), 7);
        assert_eq!(a.parse("--seed", 42u64).unwrap(), 42);
        let raw = v(&["--days", "x"]);
        assert!(Args::new(&raw).parse("--days", 14u64).is_err());
    }

    #[test]
    fn args_get_all_collects_repeats() {
        let raw = v(&["--replica", "a:h1", "--x", "1", "--replica", "b:h2"]);
        let a = Args::new(&raw);
        assert_eq!(a.get_all("--replica"), vec!["a:h1", "b:h2"]);
        assert!(a.get_all("--nope").is_empty());
    }
}

//! The paper's evaluation as one table: every figure and ablation is a
//! row, reached as `wanpred figure ID` or `wanpred ablate ID`. A row names
//! the flags it reads; anything else on its command line is an error
//! before it runs.

use std::path::{Path, PathBuf};

use serde::Serialize;
use wanpred_core::testbed::{run_campaign, CampaignConfig, CampaignResult};

use crate::{ablations, figures, serving, Args};

/// One experiment: `Experiment(id, what it reproduces, the flags it
/// reads, how to run it)`.
pub(crate) struct Experiment(
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(&Args<'_>) -> Result<(), String>,
);

/// `wanpred figure ID`.
#[rustfmt::skip]
pub(crate) const FIGURES: &[Experiment] = &[
    Experiment("1-2", "Figures 1-2: GridFTP vs NWS bandwidth", &["--csv"], figures::figures_1_2),
    Experiment("3", "Figure 3: a sample transfer log", &[], figures::figure_3),
    Experiment("4", "Figure 4: the predictor taxonomy", &[], figures::figure_4),
    Experiment("6", "Figure 6: information-provider LDIF", &[], figures::figure_6),
    Experiment("7", "Figure 7: transfers per size class", &[], figures::figure_7),
    Experiment("8-11", "Figures 8-11: percent error per class", &["--class"], figures::figures_8_11),
    Experiment("12-13", "Figures 12-13: classification benefit", &[], figures::figures_12_13),
    Experiment("14-21", "Figures 14-21: relative best/worst", &["--site"], figures::figures_14_21),
    Experiment("summary", "§6.2 headline numbers", &[], figures::summary),
];

const SEED_DAYS: &[&str] = &["--seed", "--days"];

/// `wanpred ablate ID`.
#[rustfmt::skip]
pub(crate) const ABLATIONS: &[Experiment] = &[
    Experiment("windows", "count vs temporal windows (§6.2)", &[], ablations::windows),
    Experiment("classification", "no classes vs 4 classes vs exact size", &[], ablations::classification),
    Experiment("log_trim", "log retention vs accuracy (§3)", &[], ablations::log_trim),
    Experiment("hybrid", "NWS probes + history, cold start (§7)", &[], ablations::hybrid),
    Experiment("replica_gain", "broker vs baseline policies vs oracle", &[], ablations::replica_gain),
    Experiment("tuning", "streams x TCP buffer (§6.1)", &[], ablations::tuning),
    Experiment("faults", "clean vs faulty logs", &["--seed", "--days", "--chaos"], ablations::faults),
    Experiment("salvage", "salvaged-log accuracy by corruption rate", SEED_DAYS, ablations::salvage_sweep),
    Experiment("tournament", "online tournament vs best fixed", SEED_DAYS, ablations::tournament),
    Experiment("coalloc", "co-allocation vs single-best", SEED_DAYS, ablations::coalloc),
    Experiment("serving", "sharded serving vs a locked directory", &["--smoke", "--seed"], serving::serving),
];

/// Flags that take no value.
const SWITCHES: &[&str] = &["--csv", "--smoke"];

/// The seed every experiment defaults to, so outputs agree with
/// EXPERIMENTS.md.
pub(crate) const SEED: u64 = 42;

/// Where the committed `BENCH_*.json` artifacts live.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The August campaign at [`SEED`].
pub(crate) fn august() -> CampaignResult {
    run_campaign(&CampaignConfig::august(SEED))
}

/// The December campaign at [`SEED`].
pub(crate) fn december() -> CampaignResult {
    run_campaign(&CampaignConfig::december(SEED))
}

/// Run `wanpred <kind> ID FLAGS`; with no ID, list the ids one per line.
pub(crate) fn dispatch(kind: &str, table: &[Experiment], raw: &[String]) -> Result<(), String> {
    let ids = table.iter().map(|Experiment(id, ..)| *id);
    let Some((id, flags)) = raw.split_first() else {
        ids.for_each(|id| println!("{id}"));
        return Ok(());
    };
    let Some(e) = table.iter().find(|e| e.0 == id) else {
        let ids: Vec<&str> = ids.collect();
        return Err(format!("unknown {kind} id {id:?} ({})", ids.join("|")));
    };
    check_flags(e, flags)?;
    (e.3)(&Args::new(flags))
}

/// Reject a flag the experiment does not read, a stray word and a
/// missing value.
fn check_flags(Experiment(id, _, reads, _): &Experiment, mut raw: &[String]) -> Result<(), String> {
    while let Some((flag, rest)) = raw.split_first() {
        if !reads.contains(&flag.as_str()) {
            return Err(format!("{id} does not read {flag:?}; it reads {reads:?}"));
        }
        raw = if SWITCHES.contains(&flag.as_str()) {
            rest
        } else {
            rest.get(1..)
                .ok_or_else(|| format!("missing value for {flag}"))?
        };
    }
    Ok(())
}

/// The registry as `help` prints it.
pub(crate) fn help() -> String {
    let rows = FIGURES.iter().map(|e| ("figure", e));
    let rows = rows.chain(ABLATIONS.iter().map(|e| ("ablate", e)));
    let line = |(kind, Experiment(id, what, flags, _)): (&str, &Experiment)| {
        format!("  {kind} {id:<15} {what}  {}\n", flags.join(" "))
    };
    rows.map(line).collect()
}

/// `value` rounded to `decimals` places exactly as `format!` prints it,
/// so an artifact holds the number its table shows.
pub(crate) fn round(value: f64, decimals: usize) -> f64 {
    format!("{value:.decimals$}")
        .parse()
        .expect("a formatted f64 parses back")
}

/// Write `value` as the committed artifact `name` at the repo root. Only
/// a run given no flags writes it, so each artifact is the seed-42
/// default run and a smoke run leaves the tree clean.
pub(crate) fn write_artifact(
    args: &Args<'_>,
    name: &str,
    value: &impl Serialize,
) -> Result<(), String> {
    match write_artifact_in(Path::new(REPO_ROOT), args, name, value)? {
        Some(_) => println!("comparison written to {name}"),
        None => println!("{name} not written: a run with flags never overwrites it"),
    }
    Ok(())
}

fn write_artifact_in(
    root: &Path,
    args: &Args<'_>,
    name: &str,
    value: &impl Serialize,
) -> Result<Option<PathBuf>, String> {
    if !args.raw.is_empty() {
        return Ok(None);
    }
    let path = root.join(name);
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())? + "\n";
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_run_without_flags_writes_its_artifact() {
        #[derive(Serialize)]
        struct Row {
            seed: u64,
            mape: f64,
        }
        let row = Row {
            seed: 42,
            mape: round(12.345_678, 2),
        };
        let dir = std::env::temp_dir().join(format!("wanpred-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let smoke = ["--days".to_string(), "2".to_string()];
        let written = write_artifact_in(&dir, &Args::new(&smoke), "A.json", &row);
        assert_eq!(written, Ok(None));
        assert!(!dir.join("A.json").exists(), "a run with flags wrote");
        let written = write_artifact_in(&dir, &Args::new(&[]), "A.json", &row);
        assert_eq!(written, Ok(Some(dir.join("A.json"))));
        let text = std::fs::read_to_string(dir.join("A.json")).expect("written");
        assert_eq!(text, "{\n  \"seed\": 42,\n  \"mape\": 12.35\n}\n");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    /// Every `wanpred figure|ablate ID FLAGS` in `text` as `(kind, id,
    /// flags)`. A command ends at a backtick, a shell comment or a shell
    /// operator; an inline code span may leave out the `wanpred`. A word
    /// in the id position that does not start like an id (`"$id"`, a
    /// closing paren) is a listing or a loop, not a command.
    fn commands(text: &str) -> Vec<(String, String, Vec<String>)> {
        let mut out = Vec::new();
        for line in text.lines() {
            for (n, span) in line.split('`').enumerate() {
                let words: Vec<&str> = span
                    .split_whitespace()
                    .take_while(|w| !["#", ";", "&&", "||", "|", ">"].contains(w))
                    .collect();
                for (i, word) in words.iter().enumerate() {
                    let start = if word.ends_with("wanpred") {
                        i + 1 + usize::from(words.get(i + 1) == Some(&"--"))
                    } else if n % 2 == 1 && i == 0 {
                        0
                    } else {
                        continue;
                    };
                    let (Some(&kind @ ("figure" | "ablate")), Some(id)) =
                        (words.get(start), words.get(start + 1))
                    else {
                        continue;
                    };
                    let id = id.trim_end_matches([',', '.', ')', ':']);
                    if id.starts_with(|c: char| c.is_ascii_alphanumeric()) {
                        let flags = words[start + 2..].iter().filter(|w| w.starts_with("--"));
                        let flags = flags.map(|w| w.to_string()).collect();
                        out.push((kind.to_string(), id.to_string(), flags));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn the_docs_run_only_registered_rows_and_the_readme_lists_every_id() {
        let docs = [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ];
        let table = |kind: &str| if kind == "figure" { FIGURES } else { ABLATIONS };
        let mut readme = Vec::new();
        for doc in docs {
            let path = Path::new(REPO_ROOT).join(doc);
            let text = std::fs::read_to_string(&path).expect("the doc exists");
            let found = commands(&text);
            for (kind, id, flags) in &found {
                let e = table(kind).iter().find(|e| e.0 == id);
                let e = e.unwrap_or_else(|| panic!("{doc}: `{kind} {id}` is not registered"));
                for f in flags {
                    assert!(
                        e.2.contains(&f.as_str()),
                        "{doc}: `{kind} {id}` reads no {f}"
                    );
                }
            }
            for stale in [
                "--bin fig",
                "--bin ablation_",
                "--bin summary_table",
                "-p wanpred-bench",
            ] {
                assert!(!text.contains(stale), "{doc} still runs `{stale}`");
            }
            if doc == "README.md" {
                readme = found;
            }
        }
        for kind in ["figure", "ablate"] {
            for Experiment(id, ..) in table(kind) {
                let listed = readme.iter().any(|(k, i, _)| k == kind && i == id);
                assert!(listed, "README.md does not list `wanpred {kind} {id}`");
            }
        }
    }
}

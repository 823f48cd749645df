//! End-to-end tests of the `wanpred` command-line tool: drive the real
//! binary through a campaign → evaluate → predict → provider → select
//! session on a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn wanpred(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wanpred"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wanpred-cli-{tag}"));
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

#[test]
fn campaign_then_evaluate_then_predict() {
    let dir = out_dir("flow");
    let dir_s = dir.to_str().expect("utf-8 temp path");

    // campaign: writes per-pair logs + probe CSVs.
    let o = wanpred(&["campaign", "--days", "3", "--seed", "7", "--out", dir_s]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let log_path = dir.join("lbl-anl.ulm");
    assert!(log_path.exists());
    assert!(dir.join("isi-anl-probes.csv").exists());
    let log_s = log_path.to_str().expect("utf-8");

    // evaluate: full table with the 30 variants.
    let o = wanpred(&["evaluate", "--log", log_s]);
    assert!(o.status.success());
    let text = stdout(&o);
    assert!(text.contains("AVG25+C"), "{text}");
    assert!(text.contains("MAPE %"));

    // evaluate restricted to one class.
    let o = wanpred(&["evaluate", "--log", log_s, "--class", "100mb"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("100MB class"));

    // predict: a 500 MB transfer.
    let o = wanpred(&["predict", "--log", log_s, "--size-mb", "500"]);
    assert!(o.status.success());
    let text = stdout(&o);
    assert!(text.contains("dynamic selection"), "{text}");
    assert!(
        text.contains("500MB class") || text.contains("500 MB"),
        "{text}"
    );
}

#[test]
fn provider_and_select() {
    let dir = out_dir("select");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let o = wanpred(&["campaign", "--days", "2", "--seed", "9", "--out", dir_s]);
    assert!(o.status.success());
    let lbl = dir.join("lbl-anl.ulm");
    let isi = dir.join("isi-anl.ulm");

    // provider: LDIF with the Figure 6 attribute family.
    let o = wanpred(&[
        "provider",
        "--log",
        lbl.to_str().unwrap(),
        "--host",
        "dpsslx04.lbl.gov",
        "--address",
        "131.243.2.11",
    ]);
    assert!(o.status.success());
    let ldif = stdout(&o);
    assert!(
        ldif.contains("dn: cn=140.221.65.69, hostname=dpsslx04.lbl.gov"),
        "{ldif}"
    );
    assert!(ldif.contains("avgrdbandwidth:"));
    assert!(ldif.contains("objectclass: GridFTPPerfInfo"));

    // select: a broker decision across both logs.
    let o = wanpred(&[
        "select",
        "--replica",
        &format!("{}:lbl.gov", lbl.display()),
        "--replica",
        &format!("{}:isi.edu", isi.display()),
        "--size-mb",
        "500",
        "--client",
        "140.221.65.69",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("-> "), "a choice is marked: {text}");
    assert!(text.contains("KB/s predicted"), "{text}");
}

#[test]
fn errors_are_reported_cleanly() {
    // Unknown subcommand.
    let o = wanpred(&["transmogrify"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown subcommand"));

    // Missing required argument.
    let o = wanpred(&["evaluate"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("missing --log"));

    // Nonexistent log file.
    let o = wanpred(&["evaluate", "--log", "/nonexistent/x.ulm"]);
    assert!(!o.status.success());

    // Bad class label.
    let dir = out_dir("err");
    let o = wanpred(&["campaign", "--days", "1", "--out", dir.to_str().unwrap()]);
    assert!(o.status.success());
    let log = dir.join("lbl-anl.ulm");
    let o = wanpred(&["evaluate", "--log", log.to_str().unwrap(), "--class", "2tb"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown class"));

    // Help exits zero.
    let o = wanpred(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage:"));
}

#[test]
fn figure_and_ablate_dispatch_through_the_registry() {
    // A static table: the cheap end-to-end check of the dispatch path.
    let o = wanpred(&["figure", "4"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("Figure 4: context-insensitive predictors"));

    // No id lists the ids, one per line, for scripts to loop over.
    let o = wanpred(&["figure"]);
    assert!(o.status.success());
    let ids: Vec<String> = stdout(&o).lines().map(str::to_string).collect();
    assert_eq!(ids.first().map(String::as_str), Some("1-2"));
    assert!(ids.iter().any(|id| id == "summary"));
    let o = wanpred(&["ablate"]);
    assert!(o.status.success());
    assert!(stdout(&o).lines().any(|id| id == "serving"));
}

#[test]
fn bad_experiment_arguments_fail_before_anything_runs() {
    for (args, why) in [
        (&["figure", "5"][..], "unknown figure id"),
        (&["ablate", "obs"], "unknown ablate id"),
        (
            &["ablate", "faults", "--days", "two"],
            "bad value for --days",
        ),
        (
            &["ablate", "coalloc", "--days", "0"],
            "bad value for --days",
        ),
        (
            &["ablate", "faults", "--chaos", "5%"],
            "bad value for --chaos",
        ),
        (
            &["ablate", "faults", "--chaos", "5"],
            "bad value for --chaos",
        ),
        (&["ablate", "salvage", "--days"], "missing value for --days"),
        (&["figure", "7", "--seed", "7"], "does not read \"--seed\""),
        (&["ablate", "tournament", "--window", "9"], "does not read"),
        (&["ablate", "serving", "--sites", "3"], "does not read"),
        (&["ablate", "windows", "2"], "does not read \"2\""),
        (&["figure", "8-11", "--class", "2gb"], "unknown class"),
        (&["figure", "14-21", "--site", "foo"], "unknown site"),
    ] {
        let o = wanpred(args);
        assert_eq!(o.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.starts_with("wanpred: "), "{args:?}: {err}");
        assert!(err.contains(why), "{args:?}: {err}");
        assert!(o.stdout.is_empty(), "{args:?} ran before failing");
    }
}

#[test]
fn oversized_size_mb_is_a_clean_error() {
    // 18_014_398_509_482 MB of 1_024_000 bytes is past u64::MAX bytes:
    // both subcommands must reject it as a bad value, not panic or wrap.
    let dir = out_dir("size");
    let o = wanpred(&["campaign", "--days", "1", "--out", dir.to_str().unwrap()]);
    assert!(o.status.success());
    let log = dir.join("lbl-anl.ulm");
    let log_s = log.to_str().unwrap();
    let too_big = "18014398509482";
    let replica = format!("{log_s}:lbl.gov");
    for args in [
        vec!["predict", "--log", log_s, "--size-mb", too_big],
        vec![
            "select",
            "--replica",
            &replica,
            "--size-mb",
            too_big,
            "--client",
            "140.221.65.69",
        ],
    ] {
        let o = wanpred(&args);
        assert_eq!(o.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("bad --size-mb"), "{args:?}: {err}");
    }
}

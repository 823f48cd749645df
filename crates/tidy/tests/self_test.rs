//! Self-tests for the tidy pass: every registered rule must fire on its
//! seeded fixture, the semantic passes must report cross-function chains,
//! pragma suppression must demand justifications, the warm cache must be
//! fast and byte-identical, and — the acceptance gate — the real
//! workspace must lint clean.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tidy::TidyOptions;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Fixture runs never touch a cache: they must exercise the passes every
/// time, and they must not drop `target/` dirs inside the fixture trees.
fn run_cold(root: &Path) -> Vec<tidy::Finding> {
    tidy::run_tidy_with(
        root,
        &TidyOptions {
            apply_fix: false,
            use_cache: false,
        },
    )
    .expect("tidy run")
}

#[test]
fn every_registered_rule_fires_on_the_bad_tree() {
    let findings = run_cold(&fixture("bad_tree"));
    for rule in tidy::registry::known_rule_ids() {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "rule `{rule}` produced no finding on its fixture; got: {findings:#?}"
        );
    }
}

#[test]
fn taint_findings_report_the_source_with_its_sim_chain() {
    let findings = run_cold(&fixture("bad_tree"));
    let taint: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "determinism-taint")
        .collect();
    // The finding sits at the wall clock in `core` — a crate no per-line
    // rule covers — and names the sim entry that reaches it.
    assert!(
        taint
            .iter()
            .any(|f| f.path == "crates/core/src/clock_helper.rs"
                && f.message.contains("Instant::now")
                && f.message.contains("simnet::advance_with_stamp")
                && f.message.contains("core::wall_micros")),
        "taint chain not reported at the source: {taint:#?}"
    );
}

#[test]
fn panic_findings_cross_function_boundaries() {
    let findings = run_cold(&fixture("bad_tree"));
    let panics: Vec<_> = findings.iter().filter(|f| f.rule == "panic-path").collect();
    // Direct: a pub fn that unwraps.
    assert!(panics
        .iter()
        .any(|f| f.path == "crates/predict/src/bad.rs" && f.message.contains(".unwrap()")));
    // Transitive: pub API -> private helper -> literal index.
    assert!(
        panics
            .iter()
            .any(|f| f.path == "crates/predict/src/panic_chain.rs"
                && f.message.contains("xs[..]")
                && f.message.contains("predict::head_delay")
                && f.message.contains("predict::first_of")),
        "panic chain through a private helper not reported: {panics:#?}"
    );
}

#[test]
fn unit_findings_name_both_sides_of_the_mismatch() {
    let findings = run_cold(&fixture("bad_tree"));
    let units: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "unit-mismatch")
        .collect();
    assert!(units
        .iter()
        .any(|f| f.message.contains("delay_secs") && f.message.contains("jitter_ms")));
    assert!(
        units.iter().any(|f| f.message.contains("link_mbps")
            && f.message.contains("disk_mb_per_s")
            && f.message.contains("Mb/s")
            && f.message.contains("MB/s")),
        "the Mb/s-vs-MB/s 8x must be flagged: {units:#?}"
    );
}

#[test]
fn schema_drift_findings_name_the_drifted_attributes() {
    let findings = tidy::schema_check::check_schema(&fixture("bad_tree"));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    // Keyword emitted but not parsed, and declared but dead.
    assert!(messages
        .iter()
        .any(|m| m.contains("`DEST`") && m.contains("never parsed back by `decode_borrowed`")));
    assert!(messages
        .iter()
        .any(|m| m.contains("`STALE`") && m.contains("never written")));
    // Provider emits an attribute the schema lacks.
    assert!(messages.iter().any(|m| m.contains("`avgwrbandwidth`")));
    // Schema declares an attribute the provider never publishes.
    assert!(messages
        .iter()
        .any(|m| m.contains("`numtransfers`") && m.contains("never emits")));
    // Broker queries an attribute the schema lacks.
    assert!(messages
        .iter()
        .any(|m| m.contains("`predictrdbandwidth`") && m.contains("broker")));
}

#[test]
fn ulm_schema_cannot_be_switched_off_by_renaming_an_anchor() {
    // The fixture's ulm.rs with its decoder renamed away from the anchor:
    // the keyword check has nothing to read, which must be a finding.
    let root = std::env::temp_dir().join(format!("tidy-anchor-test-{}", std::process::id()));
    let dir = root.join("crates/logfmt/src");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ulm = std::fs::read_to_string(fixture("bad_tree").join("crates/logfmt/src/ulm.rs"))
        .expect("fixture")
        .replace("fn decode_borrowed", "fn decode");
    std::fs::write(dir.join("ulm.rs"), ulm).expect("write");
    let findings = tidy::schema_check::check_schema(&root);
    std::fs::remove_dir_all(&root).ok();
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`fn decode_borrowed` not found")),
        "{findings:#?}"
    );
}

#[test]
fn obs_name_drift_findings_name_the_drifted_metrics() {
    let findings = tidy::obs_check::check_obs_names(&fixture("bad_tree"));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    // Declared constant absent from the all() registry.
    assert!(messages
        .iter()
        .any(|m| m.contains("`ORPHAN_METRIC`") && m.contains("missing from names::all()")));
    // Registered constant no emission site references.
    assert!(messages
        .iter()
        .any(|m| m.contains("`DEAD_METRIC`") && m.contains("never emitted")));
    // Emission of an undeclared constant.
    assert!(messages
        .iter()
        .any(|m| m.contains("`names::TYPO_METRIC`") && m.contains("undeclared")));
    // Emission through a raw unregistered string.
    assert!(messages
        .iter()
        .any(|m| m.contains("`made.up.metric`") && m.contains("unregistered")));
    // Emission through a string that shadows a registered constant.
    assert!(messages
        .iter()
        .any(|m| m.contains("`simnet.engine.events`") && m.contains("string literal")));
    // The healthy emission produced no finding.
    assert!(!messages
        .iter()
        .any(|m| m.contains("`ENGINE_EVENTS`") && m.contains("undeclared")));
}

#[test]
fn cli_exits_nonzero_on_bad_tree_and_zero_on_clean_tree() {
    let bad = Command::new(env!("CARGO_BIN_EXE_tidy"))
        .args(["--json", "--no-cache", "--root"])
        .arg(fixture("bad_tree"))
        .output()
        .expect("run tidy");
    assert!(!bad.status.success(), "bad_tree must fail the lint");
    let json = String::from_utf8(bad.stdout).expect("utf8 json");
    for rule in tidy::registry::known_rule_ids() {
        assert!(
            json.contains(rule),
            "JSON output missing rule `{rule}`: {json}"
        );
    }

    let clean = Command::new(env!("CARGO_BIN_EXE_tidy"))
        .args(["--json", "--no-cache", "--root"])
        .arg(fixture("clean_tree"))
        .output()
        .expect("run tidy");
    assert!(clean.status.success(), "clean_tree must pass the lint");
    assert_eq!(String::from_utf8_lossy(&clean.stdout).trim(), "[]");
}

#[test]
fn cli_sarif_output_is_wellformed_and_names_findings() {
    let bad = Command::new(env!("CARGO_BIN_EXE_tidy"))
        .args(["--sarif", "--no-cache", "--root"])
        .arg(fixture("bad_tree"))
        .output()
        .expect("run tidy");
    assert!(!bad.status.success());
    let sarif = String::from_utf8(bad.stdout).expect("utf8 sarif");
    assert!(sarif.contains(r#""version":"2.1.0""#));
    assert!(sarif.contains(r#""name":"wanpred-tidy""#));
    for rule in ["determinism-taint", "panic-path", "unit-mismatch"] {
        assert!(
            sarif.contains(&format!(r#""ruleId":"{rule}""#)),
            "SARIF missing results for `{rule}`"
        );
    }
}

#[test]
fn lexer_edge_cases_stay_silent_on_the_clean_tree() {
    // Raw strings, multi-line strings, nested block comments and `//`
    // inside string literals all hold rule tokens; none may fire.
    let findings = run_cold(&fixture("clean_tree"));
    assert!(
        findings.is_empty(),
        "clean_tree must produce no findings: {findings:#?}"
    );
}

#[test]
fn the_workspace_itself_lints_clean() {
    let findings = run_cold(&workspace_root());
    assert!(
        findings.is_empty(),
        "the tree must satisfy its own tidy pass; found: {findings:#?}"
    );
}

#[test]
fn warm_cache_is_faster_and_byte_identical() {
    let root = workspace_root();
    // Cold: no cache read or write, full scan plus semantic passes.
    let t0 = Instant::now();
    let cold = run_cold(&root);
    let cold_time = t0.elapsed();

    // Populate, then time the warm full-hit path.
    let opts = TidyOptions {
        apply_fix: false,
        use_cache: true,
    };
    let populate = tidy::run_tidy_with(&root, &opts).expect("populate cache");
    let t1 = Instant::now();
    let warm = tidy::run_tidy_with(&root, &opts).expect("warm run");
    let warm_time = t1.elapsed();

    assert_eq!(tidy::to_json(&cold), tidy::to_json(&populate));
    assert_eq!(
        tidy::to_json(&cold),
        tidy::to_json(&warm),
        "warm-cache findings must be byte-identical to a cold run"
    );
    assert!(
        warm_time.as_secs_f64() * 5.0 <= cold_time.as_secs_f64(),
        "warm cache must be at least 5x faster: cold {cold_time:?}, warm {warm_time:?}"
    );
}

#[test]
fn justified_pragmas_suppress_and_unjustified_ones_do_not() {
    let rel = "crates/simnet/src/x.rs";
    let justified = "fn f(a: f64) -> bool {\n    // tidy: allow(float-eq): sentinel comparison, justified here\n    a == 0.0\n}\n";
    assert!(tidy::check_file(rel, justified).is_empty());

    let inline = "fn f(a: f64) -> bool {\n    a == 0.0 // tidy: allow(float-eq): inline justification works too\n}\n";
    assert!(tidy::check_file(rel, inline).is_empty());

    let unjustified = "fn f(a: f64) -> bool {\n    // tidy: allow(float-eq)\n    a == 0.0\n}\n";
    let findings = tidy::check_file(rel, unjustified);
    assert!(findings.iter().any(|f| f.rule == "pragma"));
    assert!(
        findings.iter().any(|f| f.rule == "float-eq"),
        "an unjustified pragma must not suppress the lint"
    );

    let unknown = "fn f() {\n    // tidy: allow(no-such-rule): whatever\n    g();\n}\n";
    let findings = tidy::check_file(rel, unknown);
    assert!(findings
        .iter()
        .any(|f| f.rule == "pragma" && f.message.contains("unknown rule")));
}

#[test]
fn test_modules_and_test_dirs_are_exempt() {
    let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn t() { let _ = Instant::now(); }\n}\n";
    assert!(tidy::check_file("crates/simnet/src/x.rs", src).is_empty());

    let bad = "fn t() { let _ = std::time::Instant::now(); }\n";
    assert!(tidy::check_file("crates/simnet/tests/x.rs", bad).is_empty());
    assert!(tidy::check_file("crates/core/benches/x.rs", bad).is_empty());
    assert!(!tidy::check_file("crates/simnet/src/x.rs", bad).is_empty());
}

#[test]
fn fs_direct_exempts_the_writer_module_only() {
    let src = "pub fn f(p: &std::path::Path) {\n    let _ = std::fs::File::create(p);\n}\n";
    // The crash-safe writer is the one module allowed to touch the
    // filesystem directly; everywhere else in logfmt the rule fires.
    assert!(tidy::check_file("crates/logfmt/src/writer.rs", src).is_empty());
    assert!(tidy::check_file("crates/logfmt/src/log.rs", src)
        .iter()
        .any(|f| f.rule == "fs-direct"));
    // A justified pragma still works as the escape hatch.
    let justified = "pub fn f(p: &std::path::Path) {\n    // tidy: allow(fs-direct): read-only fixture generator, no durability stakes\n    let _ = std::fs::File::create(p);\n}\n";
    assert!(tidy::check_file("crates/logfmt/src/log.rs", justified).is_empty());
}

#[test]
fn fix_clears_the_fixable_float_ord_findings() {
    let rel = "crates/predict/src/x.rs";
    let src = "pub fn m(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\"));\n}\n";
    assert!(tidy::check_file(rel, src)
        .iter()
        .any(|f| f.rule == "float-ord"));
    let (fixed, n) = tidy::fix::fix_partial_cmp(src);
    assert_eq!(n, 1);
    assert!(tidy::check_file(rel, &fixed).is_empty());
}

#[test]
fn fix_rewrites_swap_remove_in_place_and_is_idempotent() {
    // A throwaway tree: one sim-crate file seeded with swap_remove.
    let root = std::env::temp_dir().join(format!("tidy-fix-test-{}", std::process::id()));
    let src_dir = root.join("crates/simnet/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let file = src_dir.join("queue.rs");
    let seeded = "pub fn drop_at(v: &mut Vec<u32>, i: usize) -> u32 {\n    v.swap_remove(i)\n}\n";
    std::fs::write(&file, seeded).expect("seed");

    let opts = TidyOptions {
        apply_fix: true,
        use_cache: false,
    };
    let after_fix = tidy::run_tidy_with(&root, &opts).expect("fix run");
    assert!(
        !after_fix.iter().any(|f| f.rule == "vec-swap-remove"),
        "fix must clear the finding it rewrites: {after_fix:#?}"
    );
    let rewritten = std::fs::read_to_string(&file).expect("read back");
    assert!(rewritten.contains("v.remove(i)"));
    assert!(!rewritten.contains("swap_remove"));

    // Idempotent: a second --fix changes nothing.
    let again = tidy::run_tidy_with(&root, &opts).expect("second fix run");
    assert_eq!(tidy::to_json(&after_fix), tidy::to_json(&again));
    assert_eq!(
        std::fs::read_to_string(&file).expect("read back"),
        rewritten
    );

    let _ = std::fs::remove_dir_all(&root);
}

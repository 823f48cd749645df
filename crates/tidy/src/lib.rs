//! `wanpred-tidy`: the workspace's own static-analysis pass.
//!
//! The paper's methodology — replay GridFTP transfer logs through ~30
//! predictors and compare percentage error — is only trustworthy if a
//! campaign is bit-for-bit reproducible from its master seed and no
//! predictor mis-orders or panics on NaN-tainted series. This crate
//! machine-enforces those invariants rustc-tidy style, in layers:
//!
//! * a lexical pass over every workspace `.rs` file feeding a
//!   table-driven line-rule catalog ([`rules`]);
//! * a rustc-free item index and intra-workspace call graph ([`index`],
//!   [`callgraph`]) powering three semantic passes: determinism taint
//!   ([`taint`]), panic reachability ([`panics`]) and unit-of-measure
//!   checking ([`units`]);
//! * cross-file ULM/LDAP schema and observability-name coherence
//!   ([`schema_check`], [`obs_check`]);
//! * per-line pragma suppression with mandatory justifications,
//!   validated against the single rule registry ([`registry`]).
//!
//! Every run lexes every file (in parallel, through the vendored `rayon`
//! shim) and runs every pass; nothing is cached between runs. The report
//! is human-readable, one finding per line plus the suggested rewrite.
//!
//! Run it with `cargo run -p tidy`. Exit status is nonzero iff findings
//! exist. See DESIGN.md § "Invariants and the tidy pass" and § "Static
//! analysis".

pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod obs_check;
pub mod panics;
pub mod pipeline;
pub mod registry;
pub mod rules;
pub mod scan;
pub mod schema_check;
pub mod taint;
pub mod units;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pipeline::SourceFile;
use rules::LintRule;
use scan::ScannedFile;

/// One lint violation (or pragma problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`wall-clock`, `float-ord`, `ulm-schema`, `pragma`, ...).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line, or 0 for findings that point at an absence.
    pub line: usize,
    pub message: String,
    pub suggestion: String,
}

impl Finding {
    fn lint(rule: &LintRule, path: &str, line: usize, token: &str) -> Self {
        Finding {
            rule: rule.id.to_string(),
            path: path.to_string(),
            line,
            message: format!("`{token}`: {}", rule.message),
            suggestion: rule.suggestion.to_string(),
        }
    }

    pub fn cross_file(
        rule: &str,
        path: &str,
        line: usize,
        message: String,
        suggestion: &str,
    ) -> Self {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message,
            suggestion: suggestion.to_string(),
        }
    }
}

/// Where a file sits relative to the lint policy.
struct FileContext {
    /// Crate directory name under `crates/`, when applicable.
    krate: Option<String>,
    /// Tests, benches, examples, build scripts and fixtures are exempt.
    exempt: bool,
}

fn file_context(rel: &str) -> FileContext {
    let parts: Vec<&str> = rel.split('/').collect();
    let exempt = parts.iter().any(|p| {
        matches!(
            *p,
            "tests" | "benches" | "examples" | "fixtures" | "target" | "vendor"
        )
    }) || parts.last() == Some(&"build.rs");
    let krate = if parts.first() == Some(&"crates") && parts.len() > 1 {
        Some(parts[1].to_string())
    } else {
        None
    };
    FileContext { krate, exempt }
}

/// Parse pragmas of the form `tidy: allow(<rule>): <justification>`.
/// Returns `(rule, justification_present)` pairs. A pragma must *start*
/// the comment (after doc-comment markers) — prose that merely mentions
/// the syntax, like this sentence, is not a pragma.
fn parse_pragmas(comment: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let trimmed = comment.trim_start_matches(['/', '!', ' ', '\t']);
    if !trimmed.starts_with("tidy: allow(") {
        return out;
    }
    let mut rest = trimmed;
    while let Some(pos) = rest.find("tidy: allow(") {
        rest = &rest[pos + "tidy: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let justified = after
            .strip_prefix(':')
            .map(|j| {
                let j = j.trim();
                !j.is_empty() && !j.starts_with("tidy: allow(")
            })
            .unwrap_or(false);
        out.push((rule, justified));
        rest = &rest[close + 1..];
    }
    out
}

/// Collect the suppression pragmas of one scanned file: findings about
/// malformed/unknown/unjustified pragmas, plus the map of 0-based lines
/// to the rule ids a justified pragma suppresses there (a pragma on its
/// own line covers the next line, an inline pragma its own). Rule ids
/// are validated against the [`registry`] — the one list every pass
/// registers in — so a pragma naming a rule that no longer exists is
/// itself a finding, not a silent no-op.
fn pragma_scan(rel: &str, scanned: &ScannedFile) -> (Vec<Finding>, BTreeMap<usize, Vec<String>>) {
    let known = registry::known_rule_ids();
    let mut findings = Vec::new();
    let mut allow: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, l) in scanned.lines.iter().enumerate() {
        for (rule, justified) in parse_pragmas(&l.comment) {
            if !known.contains(&rule.as_str()) {
                findings.push(Finding {
                    rule: registry::PRAGMA.into(),
                    path: rel.into(),
                    line: i + 1,
                    message: format!("pragma references unknown rule `{rule}`"),
                    suggestion: format!("known rules: {}", known.join(", ")),
                });
                continue;
            }
            if !justified {
                findings.push(Finding {
                    rule: registry::PRAGMA.into(),
                    path: rel.into(),
                    line: i + 1,
                    message: format!("pragma for `{rule}` carries no justification"),
                    suggestion: "write `// tidy: allow(<rule>): <why this is sound>`".into(),
                });
                continue;
            }
            let target = if l.code.trim().is_empty() { i + 1 } else { i };
            allow.entry(target).or_default().push(rule);
        }
    }
    (findings, allow)
}

/// Check one file against the standard rule catalog.
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    check_file_with(rel, src, &rules::rules())
}

/// Check one file against an explicit rule table (used by self-tests).
pub fn check_file_with(rel: &str, src: &str, table: &[LintRule]) -> Vec<Finding> {
    line_findings(&SourceFile::from_source(rel, src), table)
}

/// The per-file pass: pragma hygiene findings plus every line rule that
/// covers the file's crate, honoring justified pragmas.
fn line_findings(file: &SourceFile, table: &[LintRule]) -> Vec<Finding> {
    let mut findings = file.pragma_findings.clone();
    if file.exempt {
        return findings;
    }
    let Some(krate) = &file.krate else {
        return findings;
    };
    for rule in table {
        if !rule.crates.contains(&krate.as_str()) {
            continue;
        }
        // The module implementing a guarded behavior is the one place the
        // guard does not apply (e.g. the crash-safe writer vs fs-direct).
        if rule.exempt_files.contains(&file.rel.as_str()) {
            continue;
        }
        for (i, l) in file.scanned.lines.iter().enumerate() {
            if l.in_test {
                continue;
            }
            let Some(token) = rule.pattern.matches(&l.code) else {
                continue;
            };
            if !file.allowed(i, &[rule.id]) {
                findings.push(Finding::lint(rule, &file.rel, i + 1, &token));
            }
        }
    }
    findings
}

/// All `.rs` files under `dir`, sorted, skipping build output and fixture
/// trees (a fixture *is* a violation — it must never fail the real run).
pub fn walk_rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "fixtures" | ".git" | "vendor") {
                continue;
            }
            out.extend(walk_rs_files(&path)?);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(out)
}

pub(crate) fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the whole pass over the workspace at `root`: every `.rs` file
/// under `crates/`, the per-file line rules, then the semantic and
/// cross-file passes. Findings come back sorted by path, line, rule and
/// message.
pub fn run_tidy(root: &Path) -> io::Result<Vec<Finding>> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in walk_rs_files(&root.join("crates"))? {
        sources.push((rel_path(root, &path), fs::read_to_string(&path)?));
    }

    let table = rules::rules();
    let files: Vec<SourceFile> =
        rayon::par_map(&sources, |(rel, src)| SourceFile::from_source(rel, src));
    let per_file: Vec<Vec<Finding>> = rayon::par_map(&files, |file| line_findings(file, &table));

    let ix = index::WorkspaceIndex::build(&files);
    let graph = callgraph::CallGraph::build(&files, &ix);
    let mut findings: Vec<Finding> = per_file.into_iter().flatten().collect();
    findings.extend(taint::check(&files, &ix, &graph));
    findings.extend(panics::check(&files, &ix, &graph));
    findings.extend(units::check(&files));
    findings.extend(schema_check::check_schema(root));
    findings.extend(obs_check::check_obs_names(root));
    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_parsing() {
        assert_eq!(
            parse_pragmas(" tidy: allow(float-ord): NaN rejected upstream"),
            vec![("float-ord".to_string(), true)]
        );
        assert_eq!(
            parse_pragmas(" tidy: allow(float-eq)"),
            vec![("float-eq".to_string(), false)]
        );
        assert_eq!(
            parse_pragmas(" tidy: allow(float-eq):   "),
            vec![("float-eq".to_string(), false)]
        );
        assert!(parse_pragmas("ordinary comment").is_empty());
    }

    #[test]
    fn pragma_scan_validates_against_the_registry() {
        let scanned = scan::scan_source(
            "// tidy: allow(panic-path): bounded by construction\nlet x = xs[0];\n// tidy: allow(panic-unwrap): stale id\nlet y = 1;\n",
        );
        let (findings, allow) = pragma_scan("crates/predict/src/x.rs", &scanned);
        assert_eq!(findings.len(), 1, "stale rule id must be reported");
        assert!(findings[0].message.contains("panic-unwrap"));
        assert_eq!(allow.get(&1).map(Vec::len), Some(1));
    }

    #[test]
    fn exempt_contexts() {
        assert!(file_context("crates/simnet/tests/x.rs").exempt);
        assert!(file_context("crates/core/benches/x.rs").exempt);
        assert!(file_context("crates/core/examples/x.rs").exempt);
        assert!(!file_context("crates/simnet/src/network.rs").exempt);
        assert_eq!(
            file_context("crates/simnet/src/network.rs")
                .krate
                .as_deref(),
            Some("simnet")
        );
    }
}

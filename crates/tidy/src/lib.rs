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
//! Files scan in parallel (the vendored `rayon` shim) and a
//! content-hash cache under `target/tidy-cache/` ([`cache`]) makes the
//! no-edits rerun skip everything. Output is human-readable, `--json`,
//! or SARIF 2.1.0 ([`sarif`]); `--fix` applies the two mechanically
//! safe rewrites (`partial_cmp` → `total_cmp`, `swap_remove` →
//! `remove`).
//!
//! Run it with `cargo run -p tidy`. Exit status is nonzero iff findings
//! exist. See DESIGN.md § "Invariants and the tidy pass" and § "Static
//! analysis".

pub mod cache;
pub mod callgraph;
pub mod fix;
pub mod index;
pub mod lexer;
pub mod obs_check;
pub mod panics;
pub mod pipeline;
pub mod registry;
pub mod rules;
pub mod sarif;
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

/// Knobs the CLI exposes; [`run_tidy`] is the defaults-everywhere entry.
pub struct TidyOptions {
    /// Apply the mechanical rewrites before reporting.
    pub apply_fix: bool,
    /// Read/write `target/tidy-cache`. Off for cold-timing and tests
    /// that must not see another run's state.
    pub use_cache: bool,
}

/// Run the whole pass over the workspace at `root` with default options
/// (cache on). With `apply_fix`, mechanically rewrite fixable findings
/// in place first, then report whatever remains.
pub fn run_tidy(root: &Path, apply_fix: bool) -> io::Result<Vec<Finding>> {
    run_tidy_with(
        root,
        &TidyOptions {
            apply_fix,
            use_cache: true,
        },
    )
}

pub fn run_tidy_with(root: &Path, opts: &TidyOptions) -> io::Result<Vec<Finding>> {
    let mut sources: Vec<(String, PathBuf, String)> = Vec::new();
    for path in walk_rs_files(&root.join("crates"))? {
        let rel = rel_path(root, &path);
        let src = fs::read_to_string(&path)?;
        sources.push((rel, path, src));
    }

    let cached = if opts.use_cache {
        cache::load(root)
    } else {
        None
    };
    if !opts.apply_fix {
        if let Some(c) = &cached {
            // Warm path: nothing changed since the recorded run — return
            // its findings without lexing a single line.
            let hashes: Vec<(String, u64)> = sources
                .iter()
                .map(|(rel, _, src)| (rel.clone(), pipeline::fnv1a(src.as_bytes())))
                .collect();
            if let Some(findings) = c.full_hit(&hashes) {
                return Ok(findings);
            }
        }
    }

    let table = rules::rules();
    let mut files: Vec<SourceFile> =
        rayon::par_map(&sources, |(rel, _, src)| SourceFile::from_source(rel, src));

    if opts.apply_fix {
        for (i, (rel, path, src)) in sources.iter_mut().enumerate() {
            let mut lines: Vec<String> = src.split('\n').map(str::to_string).collect();
            let mut changed = false;
            for f in line_findings(&files[i], &table) {
                if f.line == 0 || f.line > lines.len() {
                    continue;
                }
                let (fixed, n) = match f.rule.as_str() {
                    "float-ord" => fix::fix_partial_cmp(&lines[f.line - 1]),
                    "vec-swap-remove" => fix::fix_swap_remove(&lines[f.line - 1]),
                    _ => continue,
                };
                if n > 0 {
                    lines[f.line - 1] = fixed;
                    changed = true;
                }
            }
            if changed {
                *src = lines.join("\n");
                fs::write(path, &*src)?;
                files[i] = SourceFile::from_source(rel, src);
            }
        }
    }

    // Per-file pass, in parallel; unchanged files reuse cached findings.
    let indices: Vec<usize> = (0..files.len()).collect();
    let per_file: Vec<Vec<Finding>> = rayon::par_map(&indices, |&i| {
        let file = &files[i];
        if !opts.apply_fix {
            if let Some(hit) = cached
                .as_ref()
                .and_then(|c| c.file_hit(&file.rel, file.hash))
            {
                return hit.to_vec();
            }
        }
        line_findings(file, &table)
    });

    // Semantic and cross-file passes see the whole (post-fix) file set.
    let ix = index::WorkspaceIndex::build(&files);
    let graph = callgraph::CallGraph::build(&files, &ix);
    let mut semantic = Vec::new();
    semantic.extend(taint::check(&files, &ix, &graph));
    semantic.extend(panics::check(&files, &ix, &graph));
    semantic.extend(units::check(&files));
    semantic.extend(schema_check::check_schema(root));
    semantic.extend(obs_check::check_obs_names(root));

    if opts.use_cache {
        let entries: Vec<((String, u64), Vec<Finding>)> = files
            .iter()
            .zip(per_file.iter())
            .map(|(f, found)| ((f.rel.clone(), f.hash), found.clone()))
            .collect();
        // Cache write failure is not a lint failure; next run is cold.
        let _ = cache::store(root, &entries, &semantic);
    }

    let mut findings: Vec<Finding> = per_file.into_iter().flatten().chain(semantic).collect();
    cache::sort_findings(&mut findings);
    Ok(findings)
}

/// Serialize findings as a JSON array (hand-rolled: tidy parses nothing
/// and emits everything itself).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            r#"{{"rule":"{}","path":"{}","line":{},"message":"{}","suggestion":"{}"}}"#,
            json_escape(&f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            json_escape(&f.suggestion),
        ));
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

    #[test]
    fn json_escaping() {
        let f = Finding {
            rule: "x".into(),
            path: "a/b.rs".into(),
            line: 3,
            message: "say \"hi\"\n".into(),
            suggestion: "s".into(),
        };
        let j = to_json(&[f]);
        assert!(j.contains(r#"\"hi\"\n"#));
    }
}

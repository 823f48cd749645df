//! Shared per-file pipeline state.
//!
//! Every pass — line rules, the semantic and cross-file passes — consumes
//! the same per-file artifact: the lexed/scanned source plus the parsed
//! suppression pragmas. [`SourceFile`] is built once per file (in
//! parallel, see [`crate::run_tidy`]) and handed to everything else by
//! reference.

use std::collections::BTreeMap;

use crate::scan::{scan_source, ScannedFile};
use crate::{file_context, pragma_scan, Finding};

/// One scanned workspace file plus derived lint state.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate directory name under `crates/`, when applicable.
    pub krate: Option<String>,
    /// Tests, benches, examples and fixtures are exempt from lint rules.
    pub exempt: bool,
    pub scanned: ScannedFile,
    /// 0-based line -> rule ids a justified pragma suppresses there.
    pub allows: BTreeMap<usize, Vec<String>>,
    /// Findings about the pragmas themselves (unknown rule, missing
    /// justification). Reported once, by the per-file pass.
    pub pragma_findings: Vec<Finding>,
}

impl SourceFile {
    pub fn from_source(rel: &str, src: &str) -> SourceFile {
        let ctx = file_context(rel);
        let scanned = scan_source(src);
        let (pragma_findings, allows) = if ctx.exempt {
            (Vec::new(), BTreeMap::new())
        } else {
            pragma_scan(rel, &scanned)
        };
        SourceFile {
            rel: rel.to_string(),
            krate: ctx.krate,
            exempt: ctx.exempt,
            scanned,
            allows,
            pragma_findings,
        }
    }

    /// Whether a justified pragma at `line` (0-based) suppresses any of
    /// the given rule ids. Semantic passes treat this as a taint barrier.
    pub fn allowed(&self, line: usize, rules: &[&str]) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|ids| ids.iter().any(|id| rules.contains(&id.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_respects_rule_and_line() {
        let src =
            "fn f(a: f64) -> bool {\n    // tidy: allow(float-eq): sentinel\n    a == 0.0\n}\n";
        let f = SourceFile::from_source("crates/simnet/src/x.rs", src);
        assert!(f.allowed(2, &["float-eq"]));
        assert!(!f.allowed(2, &["wall-clock"]));
        assert!(!f.allowed(1, &["float-eq"]));
    }
}

//! The lint catalog. Every line-oriented rule is one table entry; adding a
//! rule means adding a `LintRule` here (and a fixture under
//! `fixtures/bad_tree/` so the self-test keeps it honest). The cross-file
//! `ulm-schema` rule lives in `schema_check` because it is not a line
//! pattern, but it shares the same finding/pragma machinery.

/// How a rule recognises a violation on one lexed code line.
pub enum Pattern {
    /// Any of these substrings, matched against comment/string-stripped code.
    AnyOf(&'static [&'static str]),
    /// An `==` or `!=` comparison with a float literal on either side.
    FloatEq,
}

impl Pattern {
    /// Returns the offending token when the line matches.
    pub fn matches(&self, code: &str) -> Option<String> {
        match self {
            Pattern::AnyOf(tokens) => tokens
                .iter()
                .find(|t| code.contains(**t))
                .map(|t| t.to_string()),
            Pattern::FloatEq => float_eq_match(code),
        }
    }
}

pub struct LintRule {
    /// Stable id used in pragmas, JSON output, and docs.
    pub id: &'static str,
    /// Workspace crate directory names (under `crates/`) the rule covers.
    pub crates: &'static [&'static str],
    pub pattern: Pattern,
    /// What is wrong.
    pub message: &'static str,
    /// What to do instead.
    pub suggestion: &'static str,
    /// Workspace-relative files the rule never applies to — the module
    /// that *implements* the guarded behavior (e.g. the crash-safe writer
    /// is the one place allowed to touch the filesystem directly).
    pub exempt_files: &'static [&'static str],
}

/// Crates on the simulation decision path: anything here feeding a
/// campaign must be reproducible from the master seed alone. `logfmt` is
/// included because the replay pipeline decodes through it — a wall clock
/// or hash-order dependence there breaks byte-identical replays just as
/// surely as one in the engine.
pub const SIM_CRATES: &[&str] = &[
    "simnet", "gridftp", "testbed", "replica", "predict", "nws", "logfmt",
];

/// Library crates subject to float-safety and panic policy. `tidy` lints
/// itself out of scope to avoid self-reference.
pub const LIB_CRATES: &[&str] = &[
    "simnet", "gridftp", "testbed", "replica", "predict", "nws", "core", "infod", "logfmt",
    "storage", "obs",
];

pub fn rules() -> Vec<LintRule> {
    vec![
        LintRule {
            id: "wall-clock",
            crates: SIM_CRATES,
            pattern: Pattern::AnyOf(&["SystemTime::now", "Instant::now"]),
            message: "wall-clock time in a simulation-facing crate breaks seed reproducibility",
            suggestion: "use the simulation clock (simnet::time::SimTime) or a modeled cost",
            exempt_files: &[],
        },
        LintRule {
            id: "thread-rng",
            crates: SIM_CRATES,
            pattern: Pattern::AnyOf(&["thread_rng", "from_entropy", "rand::random"]),
            message: "OS-entropy randomness in a simulation-facing crate breaks seed reproducibility",
            suggestion: "derive an rng from simnet::rng::MasterSeed",
            exempt_files: &[],
        },
        LintRule {
            id: "unordered-map",
            crates: SIM_CRATES,
            pattern: Pattern::AnyOf(&["HashMap", "HashSet"]),
            message: "hash-map iteration order is unspecified and varies across runs",
            suggestion: "use BTreeMap/BTreeSet, simnet::index::VecMap, or sort before iterating",
            exempt_files: &[],
        },
        LintRule {
            id: "vec-swap-remove",
            crates: SIM_CRATES,
            pattern: Pattern::AnyOf(&[".swap_remove("]),
            message: "swap_remove reorders the vector, so downstream iteration depends on removal history",
            suggestion: "use Vec::remove / VecMap::remove (ordered), or justify with `// tidy: allow(vec-swap-remove): <reason>`",
            exempt_files: &[],
        },
        LintRule {
            id: "float-ord",
            crates: LIB_CRATES,
            pattern: Pattern::AnyOf(&[".partial_cmp("]),
            message: "partial_cmp on floats panics or mis-orders when a NaN reaches the comparison",
            suggestion: "use f64::total_cmp, or justify with `// tidy: allow(float-ord): <reason>`",
            exempt_files: &[],
        },
        LintRule {
            id: "float-eq",
            crates: LIB_CRATES,
            pattern: Pattern::FloatEq,
            message: "exact equality against a float literal is a sentinel-value smell",
            suggestion: "compare with a tolerance, or justify with `// tidy: allow(float-eq): <reason>`",
            exempt_files: &[],
        },
        LintRule {
            id: "fs-direct",
            crates: &["logfmt"],
            pattern: Pattern::AnyOf(&[
                "fs::write(",
                "File::create(",
                "File::options(",
                "OpenOptions::new(",
            ]),
            message: "direct file writes in logfmt bypass the crash-safe tmp-file + rename protocol",
            suggestion: "go through writer::atomic_write or RotatingLogWriter, or justify with `// tidy: allow(fs-direct): <reason>`",
            exempt_files: &["crates/logfmt/src/writer.rs"],
        },
    ]
}

/// Match `== <float literal>` / `!= <float literal>` in either operand
/// order. A float literal here means digits containing a decimal point
/// (`0.0`, `-25.`, `1.5e3`); integer comparisons never match.
fn float_eq_match(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    for (i, pair) in bytes.windows(2).enumerate() {
        if pair != b"==" && pair != b"!=" {
            continue;
        }
        // Reject `===`, `<=`, `>=`, `!==` shapes (not Rust, but cheap to guard).
        if i > 0 && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!') {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        let after = code[i + 2..].trim_start();
        let before = code[..i].trim_end();
        if starts_with_float_literal(after) || ends_with_float_literal(before) {
            return Some(code[i..i + 2].to_string());
        }
    }
    None
}

fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let digits = s.chars().take_while(|c| c.is_ascii_digit()).count();
    digits > 0 && s[digits..].starts_with('.')
}

fn ends_with_float_literal(s: &str) -> bool {
    // Walk back over an optional exponent, fraction digits, then require
    // a '.' preceded by at least one digit.
    let b = s.as_bytes();
    let mut i = s.len();
    while i > 0 && (b[i - 1].is_ascii_digit() || matches!(b[i - 1], b'e' | b'E' | b'+' | b'-')) {
        i -= 1;
    }
    if i == 0 || b[i - 1] != b'.' {
        return false;
    }
    i > 1 && b[i - 2].is_ascii_digit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_eq_matches_both_operand_orders() {
        assert!(float_eq_match("if x == 0.0 {").is_some());
        assert!(float_eq_match("if 0.0 == x {").is_some());
        assert!(float_eq_match("if f.cap != 2.5e3 {").is_some());
        assert!(float_eq_match("if x == -1.0 {").is_some());
    }

    #[test]
    fn float_eq_ignores_integers_and_other_operators() {
        assert!(float_eq_match("if x == 0 {").is_none());
        assert!(float_eq_match("if x <= 0.0 {").is_none());
        assert!(float_eq_match("if x >= 0.0 {").is_none());
        assert!(float_eq_match("let y = 25.0;").is_none());
        assert!(float_eq_match("if a == b {").is_none());
    }

    #[test]
    fn logfmt_is_on_the_sim_decision_path() {
        assert!(SIM_CRATES.contains(&"logfmt"));
    }
}

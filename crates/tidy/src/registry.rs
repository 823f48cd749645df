//! The single rule registry.
//!
//! Rule ids used to be declared in three hand-synced places
//! (`rules::known_rule_ids`, `schema_check::rule_id`, `obs_check::rule_id`);
//! a new pass meant editing all three or silently shipping a rule whose
//! pragmas were rejected as "unknown". This module is now the only
//! authority: line rules contribute their ids straight from the
//! [`crate::rules`] table, and every cross-file and semantic pass declares
//! its id as a constant here. The pragma checker validates
//! `tidy: allow(<id>)` against [`known_rule_ids`], so an id missing from
//! the registry is itself a finding — there is no second list to drift.

use crate::rules;

/// Cross-file ULM/LDAP schema coherence ([`crate::schema_check`]).
pub const ULM_SCHEMA: &str = "ulm-schema";
/// Cross-file observability metric-name coherence ([`crate::obs_check`]).
pub const OBS_NAMES: &str = "obs-names";
/// Semantic: sim/replay code transitively reaching a nondeterminism
/// source through the call graph ([`crate::taint`]).
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// Semantic: panic sites transitively reachable from public library APIs
/// ([`crate::panics`]); supersedes the old per-line `panic-unwrap` rule.
pub const PANIC_PATH: &str = "panic-path";
/// Semantic: mixed unit-of-measure arithmetic ([`crate::units`]).
pub const UNIT_MISMATCH: &str = "unit-mismatch";
/// Meta: malformed / unknown / unjustified suppression pragmas.
pub const PRAGMA: &str = "pragma";

/// How a rule is implemented — drives documentation and SARIF metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Per-line pattern from the [`crate::rules`] table.
    Line,
    /// Cross-file coherence pass.
    CrossFile,
    /// Call-graph-based semantic pass.
    Semantic,
    /// About the lint machinery itself (pragma hygiene).
    Meta,
}

/// Registry entry: the id every pragma, JSON/SARIF report and doc table
/// refers to, plus a one-line summary.
pub struct RuleMeta {
    pub id: &'static str,
    pub kind: RuleKind,
    pub summary: &'static str,
}

/// Every rule the tidy pass can report, in stable order: line rules first
/// (table order), then cross-file, semantic, and meta rules.
pub fn all() -> Vec<RuleMeta> {
    let mut out: Vec<RuleMeta> = rules::rules()
        .iter()
        .map(|r| RuleMeta {
            id: r.id,
            kind: RuleKind::Line,
            summary: r.message,
        })
        .collect();
    out.push(RuleMeta {
        id: ULM_SCHEMA,
        kind: RuleKind::CrossFile,
        summary: "ULM keywords and LDAP attributes must stay coherent across \
                  encode/decode_borrowed, provider, schema and broker",
    });
    out.push(RuleMeta {
        id: OBS_NAMES,
        kind: RuleKind::CrossFile,
        summary: "every emitted metric name must be a registered names:: constant, and every \
                  registered constant must be emitted",
    });
    out.push(RuleMeta {
        id: DETERMINISM_TAINT,
        kind: RuleKind::Semantic,
        summary: "sim/replay-crate code must not transitively reach wall clocks, OS entropy, \
                  unordered-map iteration or swap_remove through helpers",
    });
    out.push(RuleMeta {
        id: PANIC_PATH,
        kind: RuleKind::Semantic,
        summary: "panic sites (unwrap, panic!, messageless expect, indexing) must not be \
                  reachable from public library APIs",
    });
    out.push(RuleMeta {
        id: UNIT_MISMATCH,
        kind: RuleKind::Semantic,
        summary: "additive arithmetic and comparisons must not mix units (secs vs ms, bytes \
                  vs MB, Mb/s vs MB/s) inferred from identifier suffixes",
    });
    out.push(RuleMeta {
        id: PRAGMA,
        kind: RuleKind::Meta,
        summary: "suppression pragmas must name a registered rule and carry a justification",
    });
    out
}

/// Ids a `tidy: allow(<id>)` pragma may reference.
pub fn known_rule_ids() -> Vec<&'static str> {
    all().iter().map(|r| r.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_include_every_pass() {
        let ids = known_rule_ids();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate rule id in registry");
        for required in [
            ULM_SCHEMA,
            OBS_NAMES,
            DETERMINISM_TAINT,
            PANIC_PATH,
            UNIT_MISMATCH,
            PRAGMA,
            "wall-clock",
            "float-ord",
        ] {
            assert!(ids.contains(&required), "registry missing `{required}`");
        }
    }

    #[test]
    fn superseded_panic_unwrap_id_is_gone() {
        // The per-line rule was replaced by the panic-path semantic pass;
        // a leftover pragma naming it must be reported as unknown.
        assert!(!known_rule_ids().contains(&"panic-unwrap"));
    }
}

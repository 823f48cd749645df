//! Cross-file ULM / LDAP-schema coherence (rule id `ulm-schema`).
//!
//! Two families of drift are caught here, both of which bit real Grid
//! deployments of the paper's monitoring stack:
//!
//! 1. **ULM keyword drift** — every keyword constant declared in
//!    `logfmt::ulm::keys` must be written by `encode` *and* read back by
//!    `decode_borrowed`, the decoder production runs (the allocating
//!    oracle in `logfmt::testing` is held to it by the differential
//!    tests, not by this rule). A keyword emitted but never parsed
//!    silently drops data on reload; one declared but never emitted is
//!    dead vocabulary. When `ulm.rs` exists, an anchor that cannot be
//!    found is itself a finding: a rename must not switch the check off.
//! 2. **LDAP attribute drift** — every performance attribute the GRIS
//!    provider publishes (`infod::provider`), every degraded-mode
//!    attribute the GRIS itself stamps onto cached entries
//!    (`infod::gris`), and every attribute the replica broker queries
//!    (`replica::broker`) must be declared in `infod::schema`, and every
//!    performance attribute the perf object class declares must actually
//!    be emitted somewhere. A typo'd attribute name otherwise just reads
//!    as "absent" at run time.
//!
//! Extraction is lexical but operates on comment-stripped, test-stripped
//! source (see [`crate::scan`]), so doc comments and test fixtures cannot
//! confuse it. Provider attributes built with `format!` are expanded over
//! the known `{tag}` (rd/wr) and `{range}` (size-class) placeholders;
//! literals with any other placeholder are skipped as dynamic.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use crate::scan::{scan_source, ScannedFile};
use crate::Finding;

const RULE: &str = crate::registry::ULM_SCHEMA;
const TAG_VALUES: &[&str] = &["rd", "wr"];
const RANGE_VALUES: &[&str] = &[
    "tenmbrange",
    "hundredmbrange",
    "fivehundredmbrange",
    "onegbrange",
];

/// The items `check_ulm_keys` reads in `ulm.rs`. The encode marker keeps
/// the trailing `(` so `fn encode_value` is not mistaken for `fn encode`;
/// the decode marker stops at the name because the real signature
/// continues with a lifetime parameter.
const KEYS_ANCHOR: &str = "mod keys";
const ENCODE_ANCHOR: &str = "fn encode(";
const DECODE_ANCHOR: &str = "fn decode_borrowed";

/// Run every coherence check against files under `root`. Files that do
/// not exist are skipped (the checker also runs against fixture trees).
pub fn check_schema(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_ulm_keys(root, &mut findings);
    check_ldap_attrs(root, &mut findings);
    findings
}

fn load(root: &Path, rel: &str) -> Option<(String, ScannedFile)> {
    let src = fs::read_to_string(root.join(rel)).ok()?;
    let scanned = scan_source(&src);
    Some((rel.to_string(), scanned))
}

fn check_ulm_keys(root: &Path, findings: &mut Vec<Finding>) {
    let Some((rel, scanned)) = load(root, "crates/logfmt/src/ulm.rs") else {
        return;
    };
    let keys_span = span_lines(&scanned, KEYS_ANCHOR);
    let encode = span_text(&scanned, ENCODE_ANCHOR);
    let decode = span_text(&scanned, DECODE_ANCHOR);
    for (anchor, found) in [
        (KEYS_ANCHOR, keys_span.is_some()),
        (ENCODE_ANCHOR, encode.is_some()),
        (DECODE_ANCHOR, decode.is_some()),
    ] {
        if !found {
            findings.push(Finding::cross_file(
                RULE,
                &rel,
                0,
                format!("`{anchor}` not found: ULM keyword coherence cannot be checked"),
                "restore the item, or point schema_check's anchor at its new name",
            ));
        }
    }
    let Some(keys_span) = keys_span else {
        return;
    };

    for (name, line) in key_consts(&scanned, keys_span) {
        let reference = format!("keys::{name}");
        if let Some(e) = &encode {
            if !e.contains(&reference) {
                findings.push(Finding::cross_file(
                    RULE,
                    &rel,
                    line,
                    format!(
                        "ULM keyword `{name}` is declared in `keys` but never written by `encode`"
                    ),
                    "emit it in encode or delete the constant",
                ));
            }
        }
        if let Some(d) = &decode {
            if !d.contains(&reference) {
                findings.push(Finding::cross_file(
                    RULE,
                    &rel,
                    line,
                    format!(
                        "ULM keyword `{name}` is emitted but never parsed back by `decode_borrowed`"
                    ),
                    "parse it in decode_borrowed so records round-trip losslessly",
                ));
            }
        }
    }
}

fn check_ldap_attrs(root: &Path, findings: &mut Vec<Finding>) {
    let Some((schema_rel, schema)) = load(root, "crates/infod/src/schema.rs") else {
        return;
    };

    // Declared: candidate-shaped literals inside the object-class consts.
    let perf_declared = class_attrs(&schema, "GRIDFTP_PERF_INFO");
    let server_declared = class_attrs(&schema, "GRIDFTP_SERVER_INFO");
    let declared: BTreeSet<String> = perf_declared.union(&server_declared).cloned().collect();
    let _ = schema_rel;

    // Emitted: attribute-name first arguments of `.add(`/`.set(` calls in
    // the provider (steady state) and the GRIS (degraded-mode stamps like
    // the staleness attribute). Simple `const NAME: &str = ".."`
    // references are resolved within each file.
    let mut emitted = BTreeSet::new();
    let mut any_emitter = false;
    for rel in ["crates/infod/src/provider.rs", "crates/infod/src/gris.rs"] {
        let Some((rel, scanned)) = load(root, rel) else {
            continue;
        };
        any_emitter = true;
        let text = scanned.non_test_source();
        let consts = const_str_values(&text);
        for marker in [".add(", ".set("] {
            for attr in call_attrs(&text, marker, &consts) {
                if !is_candidate_attr(&attr) {
                    continue;
                }
                emitted.insert(attr.clone());
                if !declared.contains(&attr) {
                    findings.push(Finding::cross_file(
                        RULE,
                        &rel,
                        find_line(&scanned, &attr),
                        format!(
                            "provider emits attribute `{attr}` that infod::schema does not declare"
                        ),
                        "declare it in the object class or fix the attribute name",
                    ));
                }
            }
        }
    }
    // Declared perf attributes must actually be published.
    if any_emitter {
        for attr in &perf_declared {
            if !emitted.contains(attr) {
                findings.push(Finding::cross_file(
                    RULE,
                    &schema_rel,
                    find_line(&schema, attr),
                    format!("schema declares attribute `{attr}` that the provider never emits"),
                    "emit it from the provider or drop it from the schema",
                ));
            }
        }
    }

    // Consumed: candidate-shaped literals anywhere in the broker.
    if let Some((rel, broker)) = load(root, "crates/replica/src/broker.rs") {
        let text = broker.non_test_source();
        for attr in string_literals(&text) {
            if is_candidate_attr(&attr) && !declared.contains(&attr) {
                findings.push(Finding::cross_file(
                    RULE,
                    &rel,
                    find_line(&broker, &attr),
                    format!(
                        "broker queries attribute `{attr}` that infod::schema does not declare"
                    ),
                    "fix the attribute name or declare it in the schema",
                ));
            }
        }
    }
}

/// Line range (0-based, end exclusive) of the item whose header contains
/// `marker`, tracked by brace depth on non-test lines.
fn span_lines(scanned: &ScannedFile, marker: &str) -> Option<(usize, usize)> {
    let start = scanned
        .lines
        .iter()
        .position(|l| !l.in_test && l.code.contains(marker))?;
    let mut depth = 0i32;
    let mut opened = false;
    for (i, l) in scanned.lines.iter().enumerate().skip(start) {
        depth += l.brace_delta;
        if l.brace_delta > 0 {
            opened = true;
        }
        if opened && depth <= 0 {
            return Some((start, i + 1));
        }
    }
    Some((start, scanned.lines.len()))
}

pub(crate) fn span_text(scanned: &ScannedFile, marker: &str) -> Option<String> {
    let (a, b) = span_lines(scanned, marker)?;
    let mut out = String::new();
    for l in &scanned.lines[a..b] {
        out.push_str(&l.code_with_strings);
        out.push('\n');
    }
    Some(out)
}

/// `pub const NAME: &str = "..";` declarations inside a line range.
fn key_consts(scanned: &ScannedFile, (a, b): (usize, usize)) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, l) in scanned.lines[a..b].iter().enumerate() {
        if let Some(rest) = l.code.trim_start().strip_prefix("pub const ") {
            if let Some(name) = rest.split(':').next() {
                let name = name.trim();
                if !name.is_empty() {
                    out.push((name.to_string(), a + i + 1));
                }
            }
        }
    }
    out
}

/// Candidate-shaped literals within an object-class const's span.
fn class_attrs(scanned: &ScannedFile, const_name: &str) -> BTreeSet<String> {
    let Some(text) = span_text(scanned, const_name) else {
        return BTreeSet::new();
    };
    string_literals(&text)
        .into_iter()
        .filter(|s| is_candidate_attr(s))
        .collect()
}

/// `const NAME: &str = "value";` bindings in comment-stripped text, so
/// attribute names published through a named constant still resolve.
fn const_str_values(text: &str) -> std::collections::BTreeMap<String, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut rest = text;
    while let Some(pos) = rest.find("const ") {
        rest = &rest[pos + "const ".len()..];
        let Some(colon) = rest.find(':') else { break };
        let name = rest[..colon].trim().to_string();
        let after = &rest[colon + 1..];
        let Some(eq) = after.find('=') else { continue };
        if !after[..eq].contains("str") {
            continue;
        }
        let init = after[eq + 1..].trim_start();
        if let Some(lit) = init.strip_prefix('"') {
            if let Some(end) = lit.find('"') {
                out.insert(name, lit[..end].to_string());
            }
        }
    }
    out
}

/// First-argument attribute names of `marker` calls (`.add(` / `.set(`),
/// with `format!` placeholders expanded over the known tag/range
/// vocabularies and identifier arguments resolved through `consts`.
fn call_attrs(
    text: &str,
    marker: &str,
    consts: &std::collections::BTreeMap<String, String>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = text;
    while let Some(pos) = rest.find(marker) {
        rest = &rest[pos + marker.len()..];
        let arg = rest.trim_start();
        let arg = arg.strip_prefix('&').unwrap_or(arg).trim_start();
        if let Some(lit) = arg.strip_prefix('"') {
            if let Some(end) = lit.find('"') {
                out.insert(lit[..end].to_string());
            }
        } else if let Some(fmt) = arg.strip_prefix("format!(") {
            let fmt = fmt.trim_start();
            if let Some(lit) = fmt.strip_prefix('"') {
                if let Some(end) = lit.find('"') {
                    for expanded in expand_placeholders(&lit[..end]) {
                        out.insert(expanded);
                    }
                }
            }
        } else {
            let ident: String = arg
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if let Some(v) = consts.get(&ident) {
                out.insert(v.clone());
            }
        }
    }
    out
}

/// Expand `{tag}` and `{range}` over their vocabularies; a literal with
/// any other placeholder is dynamic and yields nothing.
fn expand_placeholders(template: &str) -> Vec<String> {
    let mut work = vec![template.to_string()];
    for (placeholder, values) in [("{tag}", TAG_VALUES), ("{range}", RANGE_VALUES)] {
        let mut next = Vec::new();
        for t in work {
            if t.contains(placeholder) {
                for v in values {
                    next.push(t.replace(placeholder, v));
                }
            } else {
                next.push(t);
            }
        }
        work = next;
    }
    work.retain(|t| !t.contains('{'));
    work
}

/// An LDAP performance attribute as this stack names them: all-lowercase
/// alphanumeric, mentioning bandwidth/transfer/staleness (or the
/// error-pct gauge). Filter strings, class names, and prose never pass
/// this shape.
fn is_candidate_attr(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        && (s.contains("bandwidth")
            || s.contains("transfer")
            || s.contains("staleness")
            || s == "predicterrorpct")
}

/// All `"..."` literal contents in comment-stripped text.
fn string_literals(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            if j <= bytes.len() {
                if let Ok(s) = std::str::from_utf8(&bytes[start..j.min(bytes.len())]) {
                    out.push(s.to_string());
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// 1-based line of the first non-test occurrence of `needle`, for finding
/// locations in reports (0 when not found — cross-file findings may point
/// at an absence rather than a line).
fn find_line(scanned: &ScannedFile, needle: &str) -> usize {
    scanned
        .lines
        .iter()
        .position(|l| !l.in_test && l.code_with_strings.contains(needle))
        .map(|i| i + 1)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_tag_and_range() {
        assert_eq!(expand_placeholders("num{tag}transfers").len(), 2);
        assert_eq!(expand_placeholders("avgrdbandwidth{range}").len(), 4);
        assert_eq!(expand_placeholders("plain").len(), 1);
        // Unknown placeholders are dynamic: expansion yields nothing.
        assert!(expand_placeholders("dc={c}").is_empty());
    }

    #[test]
    fn candidate_filter_rejects_classes_and_filters() {
        assert!(is_candidate_attr("avgrdbandwidthonegbrange"));
        assert!(is_candidate_attr("lasttransfertime"));
        assert!(is_candidate_attr("predicterrorpct"));
        assert!(is_candidate_attr("stalenesssecs"));
        assert!(!is_candidate_attr("GridFTPPerfInfo"));
        assert!(!is_candidate_attr("objectclass"));
        assert!(!is_candidate_attr("(&(objectclass=x)(cn=y))"));
    }

    #[test]
    fn call_attrs_resolves_named_constants() {
        let consts = const_str_values("pub const STALENESS_ATTR: &str = \"stalenesssecs\";\n");
        assert_eq!(
            consts.get("STALENESS_ATTR").map(String::as_str),
            Some("stalenesssecs")
        );
        let attrs = call_attrs(
            "stale.set(STALENESS_ATTR, age.to_string());",
            ".set(",
            &consts,
        );
        assert!(attrs.contains("stalenesssecs"));
        // Literal and format! arguments still work through the same path.
        let attrs = call_attrs("e.add(\"avgrdbandwidth\", v);", ".add(", &consts);
        assert!(attrs.contains("avgrdbandwidth"));
    }
}

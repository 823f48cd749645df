//! LDAP-style directory entries and LDIF serialization.
//!
//! MDS-2 publishes information as LDAP entries: a distinguished name (DN)
//! plus attribute/value pairs, grouped under object classes, rendered in
//! LDIF. We implement the subset the GridFTP information provider needs:
//! multi-valued attributes, case-insensitive attribute names, and LDIF
//! text output matching the Figure 6 fragment's structure.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A distinguished name, stored as its string form, e.g.
/// `cn=140.221.65.69, hostname=dpsslx04.lbl.gov, dc=lbl, dc=gov, o=grid`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Dn(String);

impl Dn {
    /// Build from relative components, most-specific first.
    pub fn from_components(parts: &[(&str, &str)]) -> Self {
        let s = parts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", ");
        Dn(s)
    }

    /// Parse from string form (no validation beyond non-emptiness).
    pub fn parse(s: &str) -> Option<Self> {
        let t = s.trim();
        if t.is_empty() {
            None
        } else {
            Some(Dn(t.to_string()))
        }
    }

    /// The string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this DN ends with (is under) the given suffix.
    pub fn is_under(&self, suffix: &Dn) -> bool {
        let a = self.0.replace(", ", ",");
        let b = suffix.0.replace(", ", ",");
        a == b || a.ends_with(&format!(",{b}"))
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A directory entry: DN plus multi-valued attributes. Attribute names
/// are normalized to lowercase (LDAP attribute names are
/// case-insensitive).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Entry {
    /// The entry's distinguished name.
    pub dn: Option<Dn>,
    attrs: BTreeMap<String, Vec<String>>,
}

impl Entry {
    /// Empty entry with a DN.
    pub fn new(dn: Dn) -> Self {
        Entry {
            dn: Some(dn),
            attrs: BTreeMap::new(),
        }
    }

    /// Add one attribute value (appends for multi-valued attributes).
    ///
    /// # Panics
    /// Panics on the reserved name `dn`, which is not an attribute in
    /// LDIF — set [`Entry::dn`] instead.
    pub fn add(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        assert!(
            !attr.eq_ignore_ascii_case("dn"),
            "'dn' is not an attribute; set Entry::dn"
        );
        self.attrs
            .entry(attr.to_ascii_lowercase())
            .or_default()
            .push(value.into());
        self
    }

    /// Replace all values of an attribute.
    ///
    /// # Panics
    /// Panics on the reserved name `dn` (see [`Entry::add`]).
    pub fn set(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        assert!(
            !attr.eq_ignore_ascii_case("dn"),
            "'dn' is not an attribute; set Entry::dn"
        );
        self.attrs
            .insert(attr.to_ascii_lowercase(), vec![value.into()]);
        self
    }

    /// First value of an attribute.
    pub fn get(&self, attr: &str) -> Option<&str> {
        self.attrs
            .get(&attr.to_ascii_lowercase())
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// All values of an attribute.
    pub fn get_all(&self, attr: &str) -> &[String] {
        self.attrs
            .get(&attr.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether the attribute exists with at least one value.
    pub fn has(&self, attr: &str) -> bool {
        !self.get_all(attr).is_empty()
    }

    /// Iterate attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Render as an LDIF block (DN line then `name: value` lines).
    pub fn to_ldif(&self) -> String {
        let mut s = String::new();
        if let Some(dn) = &self.dn {
            s.push_str("dn: ");
            s.push_str(dn.as_str());
            s.push('\n');
        }
        for (k, vals) in &self.attrs {
            for v in vals {
                s.push_str(k);
                s.push_str(": ");
                s.push_str(v);
                s.push('\n');
            }
        }
        s
    }

    /// Parse one LDIF block (inverse of [`Entry::to_ldif`], ignoring
    /// blank lines and `#` comments).
    pub fn from_ldif(block: &str) -> Result<Entry, LdifError> {
        let mut e = Entry::default();
        for (i, line) in block.lines().enumerate() {
            let line = line.trim_end();
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line.split_once(':').ok_or(LdifError::MissingColon(i + 1))?;
            let k = k.trim();
            let v = v.trim();
            if k.eq_ignore_ascii_case("dn") {
                e.dn = Dn::parse(v);
                if e.dn.is_none() {
                    return Err(LdifError::EmptyDn(i + 1));
                }
            } else if k.is_empty() {
                return Err(LdifError::MissingColon(i + 1));
            } else {
                e.add(k, v);
            }
        }
        Ok(e)
    }
}

/// LDIF parse errors (1-based line numbers within the block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdifError {
    /// A non-empty line lacked the `name: value` colon.
    MissingColon(usize),
    /// A `dn:` line had no value.
    EmptyDn(usize),
}

impl fmt::Display for LdifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdifError::MissingColon(n) => write!(f, "line {n}: missing ':'"),
            LdifError::EmptyDn(n) => write!(f, "line {n}: empty dn"),
        }
    }
}

impl std::error::Error for LdifError {}

/// Render several entries as an LDIF document separated by blank lines.
pub fn to_ldif_document(entries: &[Entry]) -> String {
    entries
        .iter()
        .map(Entry::to_ldif)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entry {
        let mut e = Entry::new(Dn::from_components(&[
            ("cn", "140.221.65.69"),
            ("hostname", "dpsslx04.lbl.gov"),
            ("dc", "lbl"),
            ("dc", "gov"),
            ("o", "grid"),
        ]));
        e.add("objectclass", "GridFTPPerfInfo");
        e.add("hostname", "dpsslx04.lbl.gov");
        e.add("gridftpurl", "gsiftp://dpsslx04.lbl.gov:61000");
        e.add("minrdbandwidth", "1462");
        e
    }

    #[test]
    fn dn_construction_and_suffix() {
        let dn = Dn::from_components(&[("cn", "x"), ("o", "grid")]);
        assert_eq!(dn.as_str(), "cn=x, o=grid");
        let suffix = Dn::parse("o=grid").unwrap();
        assert!(dn.is_under(&suffix));
        assert!(dn.is_under(&dn));
        assert!(!Dn::parse("o=grid").unwrap().is_under(&dn));
        assert!(!Dn::parse("cn=y,o=grid")
            .unwrap()
            .is_under(&Dn::parse("cn=x,o=grid").unwrap()));
    }

    #[test]
    fn attributes_case_insensitive_multivalued() {
        let mut e = Entry::default();
        e.add("DC", "lbl");
        e.add("dc", "gov");
        assert_eq!(e.get_all("Dc"), &["lbl".to_string(), "gov".to_string()]);
        assert_eq!(e.get("dc"), Some("lbl"));
        assert!(e.has("DC"));
        assert!(!e.has("cn"));
    }

    #[test]
    fn set_replaces() {
        let mut e = Entry::default();
        e.add("a", "1");
        e.add("a", "2");
        e.set("a", "3");
        assert_eq!(e.get_all("a"), &["3".to_string()]);
    }

    #[test]
    fn ldif_roundtrip() {
        let e = sample();
        let text = e.to_ldif();
        assert!(text.starts_with("dn: cn=140.221.65.69"));
        assert!(text.contains("minrdbandwidth: 1462"));
        let back = Entry::from_ldif(&text).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn ldif_parse_errors() {
        assert_eq!(
            Entry::from_ldif("garbage line"),
            Err(LdifError::MissingColon(1))
        );
        assert_eq!(Entry::from_ldif("dn: "), Err(LdifError::EmptyDn(1)));
    }

    #[test]
    fn ldif_document_joins_blocks() {
        let doc = to_ldif_document(&[sample(), sample()]);
        assert_eq!(doc.matches("dn: ").count(), 2);
        assert!(doc.contains("\n\ndn: "));
    }

    #[test]
    #[should_panic]
    fn dn_attribute_rejected() {
        Entry::default().add("DN", "x");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let e = Entry::from_ldif("# comment\n\ndn: o=grid\na: 1\n").unwrap();
        assert_eq!(e.dn.as_ref().unwrap().as_str(), "o=grid");
        assert_eq!(e.get("a"), Some("1"));
    }
}

//! Object-class schema for the GridFTP performance information provider.
//!
//! The paper defines LDAP schemas for its monitoring data (\[16\] in the
//! references); Figure 6 shows the resulting attributes. This module
//! declares the object classes, their required/optional attributes, and a
//! validator the provider and tests run against every published entry.

use std::collections::HashMap;

use crate::ldif::Entry;

/// An object-class definition.
#[derive(Debug, Clone)]
pub struct ObjectClass {
    /// Class name (matched case-insensitively).
    pub name: &'static str,
    /// Attributes every entry of this class must carry.
    pub required: &'static [&'static str],
    /// Known optional attributes (documentation; extra attributes are
    /// allowed regardless, as LDAP deployments always extend).
    pub optional: &'static [&'static str],
}

/// The GridFTP performance entry: per-(remote host, server) transfer
/// statistics and predictions.
pub const GRIDFTP_PERF_INFO: ObjectClass = ObjectClass {
    name: "GridFTPPerfInfo",
    required: &["cn", "hostname", "gridftpurl"],
    optional: &[
        "numtransfers",
        "recentrdbandwidth",
        "numrdtransfers",
        "numwrtransfers",
        "minrdbandwidth",
        "maxrdbandwidth",
        "avgrdbandwidth",
        "minwrbandwidth",
        "maxwrbandwidth",
        "avgwrbandwidth",
        "avgrdbandwidthtenmbrange",
        "avgrdbandwidthhundredmbrange",
        "avgrdbandwidthfivehundredmbrange",
        "avgrdbandwidthonegbrange",
        "predictrdbandwidth",
        "predictrdbandwidthtenmbrange",
        "predictrdbandwidthhundredmbrange",
        "predictrdbandwidthfivehundredmbrange",
        "predictrdbandwidthonegbrange",
        "predicterrorpct",
        "lasttransfertime",
        // Stamped by the GRIS on entries served from a last-known-good
        // cache after a provider refresh failure (degraded mode).
        "stalenesssecs",
    ],
};

/// A schema: the set of known object classes.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    classes: HashMap<String, ObjectClass>,
}

/// Schema violations found by [`Schema::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The entry carries no `objectclass` attribute.
    NoObjectClass,
    /// An `objectclass` value is not in the schema.
    UnknownClass(String),
    /// A required attribute is missing.
    MissingAttr {
        /// The class requiring the attribute.
        class: String,
        /// The missing attribute.
        attr: String,
    },
    /// The entry has no DN.
    NoDn,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::NoObjectClass => write!(f, "entry has no objectclass"),
            SchemaError::UnknownClass(c) => write!(f, "unknown objectclass {c}"),
            SchemaError::MissingAttr { class, attr } => {
                write!(f, "class {class} requires attribute {attr}")
            }
            SchemaError::NoDn => write!(f, "entry has no dn"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// The workspace's standard schema (the GridFTP performance class).
    pub fn standard() -> Self {
        let mut s = Schema::default();
        s.add(GRIDFTP_PERF_INFO);
        s
    }

    /// Register a class.
    pub fn add(&mut self, class: ObjectClass) {
        self.classes.insert(class.name.to_ascii_lowercase(), class);
    }

    /// Look up a class by name.
    pub fn class(&self, name: &str) -> Option<&ObjectClass> {
        self.classes.get(&name.to_ascii_lowercase())
    }

    /// Validate an entry against the schema.
    pub fn validate(&self, e: &Entry) -> Result<(), SchemaError> {
        if e.dn.is_none() {
            return Err(SchemaError::NoDn);
        }
        let classes = e.get_all("objectclass");
        if classes.is_empty() {
            return Err(SchemaError::NoObjectClass);
        }
        for c in classes {
            let def = self
                .class(c)
                .ok_or_else(|| SchemaError::UnknownClass(c.clone()))?;
            for req in def.required {
                if !e.has(req) {
                    return Err(SchemaError::MissingAttr {
                        class: def.name.to_string(),
                        attr: (*req).to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldif::Dn;

    fn valid_perf_entry() -> Entry {
        let mut e = Entry::new(Dn::parse("cn=140.221.65.69, hostname=h, o=grid").unwrap());
        e.add("objectclass", "GridFTPPerfInfo");
        e.add("cn", "140.221.65.69");
        e.add("hostname", "dpsslx04.lbl.gov");
        e.add("gridftpurl", "gsiftp://dpsslx04.lbl.gov:2811");
        e
    }

    #[test]
    fn valid_entry_passes() {
        assert_eq!(Schema::standard().validate(&valid_perf_entry()), Ok(()));
    }

    #[test]
    fn missing_required_attr_fails() {
        let mut e = valid_perf_entry();
        e.set("objectclass", "GridFTPPerfInfo");
        let mut stripped = Entry::new(e.dn.clone().unwrap());
        stripped.add("objectclass", "GridFTPPerfInfo");
        stripped.add("cn", "x");
        stripped.add("hostname", "h");
        match Schema::standard().validate(&stripped) {
            Err(SchemaError::MissingAttr { attr, .. }) => assert_eq!(attr, "gridftpurl"),
            other => panic!("expected missing attr, got {other:?}"),
        }
    }

    #[test]
    fn unknown_class_fails() {
        let mut e = valid_perf_entry();
        e.add("objectclass", "MartianInfo");
        assert!(matches!(
            Schema::standard().validate(&e),
            Err(SchemaError::UnknownClass(_))
        ));
    }

    #[test]
    fn no_objectclass_fails() {
        let mut e = Entry::new(Dn::parse("o=grid").unwrap());
        e.add("cn", "x");
        assert_eq!(
            Schema::standard().validate(&e),
            Err(SchemaError::NoObjectClass)
        );
    }

    #[test]
    fn no_dn_fails() {
        let mut e = Entry::default();
        e.add("objectclass", "GridFTPPerfInfo");
        assert_eq!(Schema::standard().validate(&e), Err(SchemaError::NoDn));
    }

    #[test]
    fn extra_attributes_are_fine() {
        let mut e = valid_perf_entry();
        e.add("experimentalattr", "42");
        assert_eq!(Schema::standard().validate(&e), Ok(()));
    }

    #[test]
    fn class_lookup_case_insensitive() {
        let s = Schema::standard();
        assert!(s.class("gridftpperfinfo").is_some());
        assert!(s.class("GRIDFTPPERFINFO").is_some());
        assert!(s.class("nope").is_none());
    }
}

//! The replica catalog: logical file names mapped to physical replicas.
//!
//! Data Grids (§1) replicate large data sets across sites; a logical
//! file name (LFN) resolves to several physical copies. The catalog is
//! deliberately simple — the paper's contribution is *selecting among*
//! replicas, not cataloguing them — but supports the operations the
//! broker and examples need.

use std::collections::BTreeMap;

/// One physical copy of a logical file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalReplica {
    /// Hosting GridFTP server's host name (matches the info service's
    /// `hostname` attribute).
    pub host: String,
    /// Path on that server.
    pub path: String,
    /// File size in bytes.
    pub size: u64,
}

impl PhysicalReplica {
    /// The replica's GridFTP URL.
    pub fn url(&self) -> String {
        format!("gsiftp://{}:2811{}", self.host, self.path)
    }
}

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// Unknown logical file.
    UnknownLfn(String),
    /// A registered replica duplicates an existing `(host, path)`.
    Duplicate {
        /// The logical file.
        lfn: String,
        /// The duplicated host.
        host: String,
    },
    /// Replica sizes for one LFN disagree.
    SizeMismatch {
        /// The logical file.
        lfn: String,
        /// The size already registered.
        expected: u64,
        /// The conflicting size.
        got: u64,
    },
    /// The broker was handed an empty candidate list.
    NoCandidates,
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::UnknownLfn(l) => write!(f, "unknown logical file {l}"),
            ReplicaError::Duplicate { lfn, host } => {
                write!(f, "replica of {lfn} on {host} already registered")
            }
            ReplicaError::SizeMismatch { lfn, expected, got } => {
                write!(f, "replica of {lfn} size {got} != registered {expected}")
            }
            ReplicaError::NoCandidates => write!(f, "no candidate replicas to select among"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// The catalog.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCatalog {
    entries: BTreeMap<String, Vec<PhysicalReplica>>,
}

impl ReplicaCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a replica of a logical file. All replicas of one LFN must
    /// agree on size; `(host, path)` pairs must be unique per LFN.
    pub fn register(
        &mut self,
        lfn: impl Into<String>,
        replica: PhysicalReplica,
    ) -> Result<(), ReplicaError> {
        let lfn = lfn.into();
        let list = self.entries.entry(lfn.clone()).or_default();
        if let Some(first) = list.first() {
            if first.size != replica.size {
                let expected = first.size;
                if list.is_empty() {
                    self.entries.remove(&lfn);
                }
                return Err(ReplicaError::SizeMismatch {
                    lfn,
                    expected,
                    got: replica.size,
                });
            }
        }
        if list
            .iter()
            .any(|r| r.host == replica.host && r.path == replica.path)
        {
            return Err(ReplicaError::Duplicate {
                lfn,
                host: replica.host,
            });
        }
        list.push(replica);
        Ok(())
    }

    /// All replicas of a logical file.
    pub fn lookup(&self, lfn: &str) -> Result<&[PhysicalReplica], ReplicaError> {
        self.entries
            .get(lfn)
            .map(Vec::as_slice)
            .ok_or_else(|| ReplicaError::UnknownLfn(lfn.to_string()))
    }

    /// Remove one replica; drops the LFN entirely when its last replica
    /// goes. Returns whether anything was removed.
    pub fn unregister(&mut self, lfn: &str, host: &str, path: &str) -> bool {
        let Some(list) = self.entries.get_mut(lfn) else {
            return false;
        };
        let before = list.len();
        list.retain(|r| !(r.host == host && r.path == path));
        let removed = list.len() != before;
        if list.is_empty() {
            self.entries.remove(lfn);
        }
        removed
    }

    /// Logical files in name order.
    pub fn logical_files(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of logical files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(host: &str, size: u64) -> PhysicalReplica {
        PhysicalReplica {
            host: host.into(),
            path: "/home/ftp/f".into(),
            size,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut c = ReplicaCatalog::new();
        c.register("lfn://exp/run1", rep("lbl.gov", 100)).unwrap();
        c.register("lfn://exp/run1", rep("isi.edu", 100)).unwrap();
        let reps = c.lookup("lfn://exp/run1").unwrap();
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].url(), "gsiftp://lbl.gov:2811/home/ftp/f");
    }

    #[test]
    fn unknown_lfn_errors() {
        let c = ReplicaCatalog::new();
        assert!(matches!(
            c.lookup("lfn://nope"),
            Err(ReplicaError::UnknownLfn(_))
        ));
    }

    #[test]
    fn duplicates_rejected() {
        let mut c = ReplicaCatalog::new();
        c.register("l", rep("lbl.gov", 1)).unwrap();
        assert!(matches!(
            c.register("l", rep("lbl.gov", 1)),
            Err(ReplicaError::Duplicate { .. })
        ));
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut c = ReplicaCatalog::new();
        c.register("l", rep("lbl.gov", 1)).unwrap();
        assert!(matches!(
            c.register("l", rep("isi.edu", 2)),
            Err(ReplicaError::SizeMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn unregister_last_removes_lfn() {
        let mut c = ReplicaCatalog::new();
        c.register("l", rep("lbl.gov", 1)).unwrap();
        assert!(c.unregister("l", "lbl.gov", "/home/ftp/f"));
        assert!(!c.unregister("l", "lbl.gov", "/home/ftp/f"));
        assert!(c.is_empty());
    }

    #[test]
    fn logical_files_sorted() {
        let mut c = ReplicaCatalog::new();
        c.register("b", rep("x", 1)).unwrap();
        c.register("a", rep("x", 1)).unwrap();
        let names: Vec<&str> = c.logical_files().collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

//! Logical volumes and the file catalog.
//!
//! GridFTP log entries carry the *logical volume* a file was moved to or
//! from (Figure 3's `Volume` column, e.g. `/home/ftp`); the information
//! provider groups statistics by volume. A [`FileCatalog`] maps absolute
//! paths to sizes and owning volumes for one storage server.

use std::collections::BTreeMap;

/// A logical volume: a mount prefix on a storage server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Volume {
    /// Volume name/mount point, e.g. `/home/ftp`.
    pub mount: String,
}

/// A file known to a storage server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Absolute path, e.g. `/home/ftp/vazhkuda/100MB`.
    pub path: String,
    /// Size in bytes.
    pub size: u64,
}

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Lookup of a path that is not in the catalog.
    NotFound(String),
    /// Registration under a path not covered by any volume.
    NoVolume(String),
    /// Registration of a path that already exists.
    Exists(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::NotFound(p) => write!(f, "file not found: {p}"),
            CatalogError::NoVolume(p) => write!(f, "no volume covers: {p}"),
            CatalogError::Exists(p) => write!(f, "file already exists: {p}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The per-server file catalog.
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    volumes: Vec<Volume>,
    files: BTreeMap<String, FileEntry>,
}

impl FileCatalog {
    /// Empty catalog with no volumes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a logical volume (mount prefix). Longest-prefix match is used
    /// when resolving a file's volume.
    pub fn add_volume(&mut self, mount: impl Into<String>) {
        self.volumes.push(Volume {
            mount: mount.into(),
        });
    }

    /// Register a file. The path must fall under some volume.
    pub fn add_file(&mut self, path: impl Into<String>, size: u64) -> Result<(), CatalogError> {
        let path = path.into();
        if self.volume_of(&path).is_none() {
            return Err(CatalogError::NoVolume(path));
        }
        if self.files.contains_key(&path) {
            return Err(CatalogError::Exists(path));
        }
        self.files.insert(path.clone(), FileEntry { path, size });
        Ok(())
    }

    /// Look up a file.
    pub fn lookup(&self, path: &str) -> Result<&FileEntry, CatalogError> {
        self.files
            .get(path)
            .ok_or_else(|| CatalogError::NotFound(path.to_string()))
    }

    /// The longest volume prefix covering `path`, if any.
    pub fn volume_of(&self, path: &str) -> Option<&Volume> {
        self.volumes
            .iter()
            .filter(|v| {
                path.starts_with(&v.mount)
                    && (path.len() == v.mount.len()
                        || path.as_bytes().get(v.mount.len()) == Some(&b'/')
                        || v.mount.ends_with('/'))
            })
            .max_by_key(|v| v.mount.len())
    }

    /// Remove a file; returns whether it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Iterate over files in path order.
    pub fn files(&self) -> impl Iterator<Item = &FileEntry> {
        self.files.values()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the catalog holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Populate the catalog with the paper's experiment file set under
    /// `dir` (the sizes drawn from in §6.1): 1M, 2M, 5M, 10M, 25M, 50M,
    /// 100M, 150M, 250M, 400M, 500M, 750M and 1G, with the paper's decimal
    /// size convention (1 MB file = 1_024_000 bytes per Figure 3, i.e.
    /// 1000 * 1024). Fails like [`FileCatalog::add_file`] if `dir` lies
    /// outside every volume or already holds one of the names.
    pub fn populate_paper_fileset(&mut self, dir: &str) -> Result<(), CatalogError> {
        for (name, mb) in crate::paper_fileset() {
            let path = format!("{}/{}", dir.trim_end_matches('/'), name);
            self.add_file(path, mb_to_bytes(mb))?;
        }
        Ok(())
    }
}

/// Figure 3's size convention: a "10 MB" file is 10_240_000 bytes
/// (size_mb * 1000 * 1024).
pub fn mb_to_bytes(mb: u32) -> u64 {
    u64::from(mb) * 1_024_000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> FileCatalog {
        let mut c = FileCatalog::new();
        c.add_volume("/home/ftp");
        c
    }

    #[test]
    fn add_and_lookup() {
        let mut c = catalog();
        c.add_file("/home/ftp/a", 100).unwrap();
        assert_eq!(c.lookup("/home/ftp/a").unwrap().size, 100);
        assert!(matches!(
            c.lookup("/home/ftp/b"),
            Err(CatalogError::NotFound(_))
        ));
    }

    #[test]
    fn volume_prefix_matching() {
        let mut c = catalog();
        c.add_volume("/home/ftp/deep");
        assert_eq!(c.volume_of("/home/ftp/x").unwrap().mount, "/home/ftp");
        assert_eq!(
            c.volume_of("/home/ftp/deep/x").unwrap().mount,
            "/home/ftp/deep"
        );
        assert!(c.volume_of("/tmp/x").is_none());
        // Prefix must be component-aligned: /home/ftpX is not in /home/ftp.
        assert!(c.volume_of("/home/ftpX/a").is_none());
    }

    #[test]
    fn add_rejects_duplicates_put_overwrites() {
        let mut c = catalog();
        c.add_file("/home/ftp/a", 1).unwrap();
        assert!(matches!(
            c.add_file("/home/ftp/a", 2),
            Err(CatalogError::Exists(_))
        ));
        assert_eq!(c.lookup("/home/ftp/a").unwrap().size, 1);
    }

    #[test]
    fn uncovered_path_rejected() {
        let mut c = catalog();
        assert!(matches!(
            c.add_file("/etc/passwd", 1),
            Err(CatalogError::NoVolume(_))
        ));
    }

    #[test]
    fn paper_fileset_sizes() {
        let mut c = catalog();
        c.populate_paper_fileset("/home/ftp/vazhkuda").unwrap();
        assert_eq!(c.len(), 13);
        assert_eq!(
            c.lookup("/home/ftp/vazhkuda/10MB").unwrap().size,
            10_240_000
        );
        assert_eq!(
            c.lookup("/home/ftp/vazhkuda/1GB").unwrap().size,
            1_024_000_000
        );
    }

    #[test]
    fn remove_works() {
        let mut c = catalog();
        c.add_file("/home/ftp/a", 1).unwrap();
        assert!(c.remove("/home/ftp/a"));
        assert!(!c.remove("/home/ftp/a"));
        assert!(c.is_empty());
    }
}

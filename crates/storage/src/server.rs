//! A storage server: one disk spec plus the set of concurrently open
//! read accesses, exposing the per-access throughput cap that the
//! transfer service feeds into the network flows' external caps.

use std::collections::BTreeMap;

use crate::cache::FileCache;
use crate::disk::DiskSpec;
use crate::volume::FileCatalog;

/// Identifier of an open access on a storage server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessId(pub u64);

/// A storage server at one site.
#[derive(Debug)]
pub struct StorageServer {
    /// Server name, e.g. `"lbl-disk"`.
    pub name: String,
    spec: DiskSpec,
    catalog: FileCatalog,
    cache: FileCache,
    /// Open accesses, each flagged whether the cache serves it.
    active: BTreeMap<AccessId, bool>,
    next_id: u64,
}

impl StorageServer {
    /// Create a server with the given disk spec, catalog and cache.
    pub fn new(
        name: impl Into<String>,
        spec: DiskSpec,
        catalog: FileCatalog,
        cache: FileCache,
    ) -> Self {
        spec.validate();
        StorageServer {
            name: name.into(),
            spec,
            catalog,
            cache,
            active: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Shortcut: vintage disk, a `/home/ftp` volume populated with the
    /// paper's file set, and a modest file cache.
    pub fn vintage_with_paper_fileset(name: impl Into<String>) -> Self {
        let mut catalog = FileCatalog::new();
        catalog.add_volume("/home/ftp");
        catalog
            .populate_paper_fileset("/home/ftp/vazhkuda")
            .expect("volume added above");
        StorageServer::new(
            name,
            DiskSpec::vintage_2001(),
            catalog,
            FileCache::vintage_2001(),
        )
    }

    /// The disk spec.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// The file catalog.
    pub fn catalog(&self) -> &FileCatalog {
        &self.catalog
    }

    /// Mutable access to the catalog (seeding files after construction).
    pub fn catalog_mut(&mut self) -> &mut FileCatalog {
        &mut self.catalog
    }

    /// Open an access for reading `path`. Consults the cache: repeat reads
    /// of hot files are served at memory rate and do not contend for the
    /// disk. Returns the access id; the caller must look up the file first
    /// (missing paths are the transfer layer's error to report).
    pub fn open_read(&mut self, path: &str, size: u64) -> AccessId {
        let cached = self.cache.read(path, size);
        let id = AccessId(self.next_id);
        self.next_id += 1;
        self.active.insert(id, cached);
        id
    }

    /// Close an access. Returns whether it was open.
    pub fn close(&mut self, id: AccessId) -> bool {
        self.active.remove(&id).is_some()
    }

    /// Number of accesses currently contending for the physical device
    /// (cached reads excluded).
    pub fn disk_population(&self) -> usize {
        self.active.values().filter(|cached| !**cached).count()
    }

    /// Total open accesses, including cache-served ones.
    pub fn open_count(&self) -> usize {
        self.active.len()
    }

    /// Current throughput cap in bytes/sec for one access.
    ///
    /// Cache-served reads get the cache's memory rate; disk accesses get
    /// the contended per-access share. Returns `None` for unknown ids.
    pub fn access_cap(&self, id: AccessId) -> Option<f64> {
        if *self.active.get(&id)? {
            return Some(self.cache.memory_bps());
        }
        Some(self.spec.per_access(self.disk_population()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> StorageServer {
        StorageServer::vintage_with_paper_fileset("test")
    }

    #[test]
    fn single_reader_gets_sustained_rate() {
        let mut s = server();
        // A 1 GB read cannot be cache resident.
        let id = s.open_read("/home/ftp/vazhkuda/1GB", 1_024_000_000);
        assert_eq!(s.access_cap(id), Some(40e6));
        assert!(s.close(id));
        assert!(!s.close(id));
    }

    #[test]
    fn concurrent_readers_contend() {
        let mut s = server();
        let a = s.open_read("/home/ftp/vazhkuda/1GB", 1_024_000_000);
        let cap1 = s.access_cap(a).unwrap();
        let b = s.open_read("/home/ftp/vazhkuda/750MB", 768_000_000);
        let cap2 = s.access_cap(a).unwrap();
        assert!(cap2 < cap1 / 2.0 + 1.0, "{cap1} -> {cap2}");
        s.close(b);
        assert_eq!(s.access_cap(a).unwrap(), cap1);
    }

    #[test]
    fn repeat_small_read_is_cache_served() {
        let mut s = server();
        let first = s.open_read("/home/ftp/vazhkuda/10MB", 10_240_000);
        s.close(first);
        let second = s.open_read("/home/ftp/vazhkuda/10MB", 10_240_000);
        assert!(s.access_cap(second).unwrap() > 100e6, "cache rate expected");
        // Cached read does not contend for the disk.
        assert_eq!(s.disk_population(), 0);
        assert_eq!(s.open_count(), 1);
    }

    #[test]
    fn huge_file_never_caches() {
        let mut s = server();
        let first = s.open_read("/home/ftp/vazhkuda/1GB", 1_024_000_000);
        s.close(first);
        let second = s.open_read("/home/ftp/vazhkuda/1GB", 1_024_000_000);
        assert_eq!(s.access_cap(second), Some(40e6));
    }

    #[test]
    fn unknown_access_has_no_cap() {
        let s = server();
        assert_eq!(s.access_cap(AccessId(99)), None);
    }
}

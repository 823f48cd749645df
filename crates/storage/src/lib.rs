//! # wanpred-storage
//!
//! Storage-system models for the `wanpred` testbed: disk devices with
//! concurrency contention ([`disk`]), byte-budgeted LRU file caches
//! ([`cache`]), logical volumes with a file catalog ([`volume`]), and the
//! [`server::StorageServer`] that ties them together and exposes the
//! per-access throughput cap consumed by `wanpred-gridftp`. Every access
//! is a read: the transfer manager runs only GETs.
//!
//! §3 of the reproduced paper motivates modelling storage explicitly: the
//! end-to-end transfer function includes devices where a *single* extra
//! concurrent access visibly shifts throughput, defeating
//! law-of-large-numbers smoothing — which is exactly why the paper
//! instruments whole transfers instead of probing the network alone.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod disk;
pub mod server;
pub mod volume;

pub use cache::FileCache;
pub use disk::DiskSpec;
pub use server::{AccessId, StorageServer};
pub use volume::{mb_to_bytes, CatalogError, FileCatalog, FileEntry, Volume};

/// The paper's §6.1 file-size set: `(file name, size in "paper MB")`
/// where one paper-MB is 1_024_000 bytes (Figure 3's convention).
pub fn paper_fileset() -> [(&'static str, u32); 13] {
    [
        ("1MB", 1),
        ("2MB", 2),
        ("5MB", 5),
        ("10MB", 10),
        ("25MB", 25),
        ("50MB", 50),
        ("100MB", 100),
        ("150MB", 150),
        ("250MB", 250),
        ("400MB", 400),
        ("500MB", 500),
        ("750MB", 750),
        ("1GB", 1000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fileset_matches_paper_sizes() {
        let set = paper_fileset();
        assert_eq!(set.len(), 13);
        assert_eq!(set[0], ("1MB", 1));
        assert_eq!(set[12], ("1GB", 1000));
        // Strictly increasing sizes.
        for w in set.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }
}

//! Disk device model: a sustained read rate and the contention
//! behaviour of concurrent readers.
//!
//! §3 of the paper singles storage out as the end-to-end component *least*
//! amenable to "law of large numbers" smoothing: one extra concurrent
//! access visibly moves everyone's throughput. We model a device's
//! aggregate throughput under `k` concurrent accessors as
//!
//! ```text
//! aggregate(k) = sustained * 1 / (1 + contention * (k - 1))
//! ```
//!
//! so each additional accessor costs real seek/rotation efficiency, and
//! the per-accessor share `aggregate(k) / k` drops super-linearly — the
//! coarse-grained variance source the paper describes. A per-operation
//! positioning delay is not modelled: an access costs only its share of
//! the contended rate.

/// Static description of a disk (or RAID volume presented as one device).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Sustained sequential read throughput, bytes/sec.
    pub read_bps: f64,
    /// Efficiency loss per extra concurrent accessor, in `[0, 1]`.
    /// 0 = perfectly parallel device, larger = worse seek thrash.
    pub contention: f64,
}

impl DiskSpec {
    /// A 2001-era fast SCSI disk / small RAID as found on the paper's
    /// testbed servers: ~40 MB/s reads and noticeable contention.
    pub fn vintage_2001() -> Self {
        DiskSpec {
            read_bps: 40e6,
            contention: 0.18,
        }
    }

    /// An idealized device with no contention — useful to disable the
    /// storage bottleneck in ablation experiments.
    pub fn ideal() -> Self {
        DiskSpec {
            read_bps: 1e12,
            contention: 0.0,
        }
    }

    /// Sustained (unloaded) read rate, bytes/sec.
    pub fn sustained(&self) -> f64 {
        self.read_bps
    }

    /// Aggregate device throughput (bytes/sec) for `k` concurrent
    /// accessors, after contention losses. `k = 0` returns the unloaded
    /// sustained rate.
    pub fn aggregate(&self, k: usize) -> f64 {
        let s = self.sustained();
        if k <= 1 {
            return s;
        }
        s / (1.0 + self.contention * (k as f64 - 1.0))
    }

    /// Fair per-accessor throughput (bytes/sec) when `k` accessors are
    /// active.
    pub fn per_access(&self, k: usize) -> f64 {
        let k = k.max(1);
        self.aggregate(k) / k as f64
    }

    /// Validate invariants; called by [`crate::server::StorageServer`].
    pub fn validate(&self) {
        assert!(self.read_bps > 0.0 && self.read_bps.is_finite());
        assert!((0.0..=1.0).contains(&self.contention));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_rate_is_sustained() {
        let d = DiskSpec::vintage_2001();
        assert_eq!(d.per_access(1), 40e6);
        assert_eq!(d.per_access(0), 40e6);
    }

    #[test]
    fn contention_is_superlinear() {
        let d = DiskSpec::vintage_2001();
        let r1 = d.per_access(1);
        let r2 = d.per_access(2);
        let r4 = d.per_access(4);
        // Strictly worse than fair splitting: r2 < r1/2, r4 < r1/4.
        assert!(r2 < r1 / 2.0);
        assert!(r4 < r1 / 4.0);
        // And monotone decreasing.
        assert!(r1 > r2 && r2 > r4);
    }

    #[test]
    fn aggregate_shrinks_with_population() {
        let d = DiskSpec::vintage_2001();
        assert!(d.aggregate(2) < d.aggregate(1));
        assert!(d.aggregate(8) < d.aggregate(2));
    }

    #[test]
    fn zero_contention_splits_fairly() {
        let d = DiskSpec {
            contention: 0.0,
            ..DiskSpec::vintage_2001()
        };
        assert!((d.per_access(4) - 10e6).abs() < 1.0);
    }

    #[test]
    fn ideal_disk_is_effectively_unbounded() {
        let d = DiskSpec::ideal();
        assert!(d.per_access(16) > 1e10);
    }

    #[test]
    #[should_panic]
    fn validate_rejects_bad_contention() {
        DiskSpec {
            contention: 1.5,
            ..DiskSpec::vintage_2001()
        }
        .validate();
    }
}

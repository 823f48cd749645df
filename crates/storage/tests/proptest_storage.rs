//! Property tests for storage invariants.

use proptest::prelude::*;
use wanpred_storage::{DiskSpec, FileCache};

proptest! {
    /// Per-access throughput is monotone non-increasing in population and
    /// never exceeds the sustained rate.
    #[test]
    fn per_access_monotone(
        read in 1e6f64..1e9,
        contention in 0.0f64..1.0,
        k in 1usize..64,
    ) {
        let d = DiskSpec { read_bps: read, contention };
        let a = d.per_access(k);
        let b = d.per_access(k + 1);
        prop_assert!(b <= a * (1.0 + 1e-12));
        prop_assert!(a <= read * (1.0 + 1e-12));
        prop_assert!(a > 0.0);
    }

    /// Aggregate throughput shrinks with contention but stays positive.
    #[test]
    fn aggregate_bounded(
        read in 1e6f64..1e9,
        contention in 0.0f64..1.0,
        k in 1usize..64,
    ) {
        let d = DiskSpec { read_bps: read, contention };
        let agg = d.aggregate(k);
        prop_assert!(agg <= read * (1.0 + 1e-12));
        prop_assert!(agg > 0.0);
    }

    /// The cache never holds more bytes than its capacity, no matter the
    /// access sequence.
    #[test]
    fn cache_respects_budget(
        capacity in 1u64..10_000,
        ops in prop::collection::vec((0u8..20, 1u64..5_000), 1..200),
    ) {
        let mut c = FileCache::new(capacity, 1e9);
        for (name, size) in ops {
            c.read(&format!("f{name}"), size);
            prop_assert!(c.used() <= capacity, "used {} > cap {}", c.used(), capacity);
        }
    }

    /// A hit is only possible for a path previously inserted and small
    /// enough to fit.
    #[test]
    fn cache_hits_require_prior_insert(
        capacity in 100u64..10_000,
        size in 1u64..20_000,
    ) {
        let mut c = FileCache::new(capacity, 1e9);
        let first = c.read("x", size);
        prop_assert!(!first);
        let second = c.read("x", size);
        prop_assert_eq!(second, size <= capacity);
    }
}

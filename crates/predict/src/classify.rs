//! Context-sensitive filtering by file size (§4.3).
//!
//! Transfer throughput correlates strongly with file size (TCP slow start
//! penalizes small transfers), so restricting the history to transfers of
//! a *similar size class* improves predictions by 5–10% on average
//! (Figures 12–13). The paper derives four classes for its testbed from
//! achievable-bandwidth tests: 0–50 MB, 50–250 MB, 250–750 MB, > 750 MB,
//! labelled in the evaluation by representative sizes 10 MB, 100 MB,
//! 500 MB and 1 GB. Sizes use the paper's "MB" convention of
//! 1_024_000 bytes (Figure 3).

use serde::Serialize;

use crate::observation::Observation;

/// One paper-MB in bytes (Figure 3's convention: 1000 * 1024).
pub const PAPER_MB: u64 = 1_024_000;

/// The paper's four file-size classes, named by their representative
/// sizes as in Figures 8–21.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum SizeClass {
    /// 0–50 MB ("10 MB range").
    C10MB,
    /// 50–250 MB ("100 MB range").
    C100MB,
    /// 250–750 MB ("500 MB range").
    C500MB,
    /// more than 750 MB ("1 GB range").
    C1GB,
}

impl SizeClass {
    /// All classes in ascending size order.
    pub const ALL: [SizeClass; 4] = [
        SizeClass::C10MB,
        SizeClass::C100MB,
        SizeClass::C500MB,
        SizeClass::C1GB,
    ];

    /// Classify a file size in bytes. Boundaries are half-open so that a
    /// 50 MB file falls in the 100 MB class, matching the per-class
    /// transfer counts of Figure 7 (the 10 MB class contains the five
    /// sizes 1–25 MB, i.e. ≈ 5/13 of uniform draws ≈ 37%).
    pub fn of_bytes(bytes: u64) -> SizeClass {
        let mb = bytes / PAPER_MB;
        match mb {
            0..=49 => SizeClass::C10MB,
            50..=249 => SizeClass::C100MB,
            250..=749 => SizeClass::C500MB,
            _ => SizeClass::C1GB,
        }
    }

    /// Position of this class within [`SizeClass::ALL`] — used by the
    /// incremental engine to index per-class state arrays.
    pub fn index(self) -> usize {
        match self {
            SizeClass::C10MB => 0,
            SizeClass::C100MB => 1,
            SizeClass::C500MB => 2,
            SizeClass::C1GB => 3,
        }
    }

    /// The figure label: `"10MB"`, `"100MB"`, `"500MB"`, `"1GB"`.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::C10MB => "10MB",
            SizeClass::C100MB => "100MB",
            SizeClass::C500MB => "500MB",
            SizeClass::C1GB => "1GB",
        }
    }

    /// The byte range `[lo, hi)` covered by this class (`hi = u64::MAX`
    /// for the open-ended top class).
    pub fn byte_range(self) -> (u64, u64) {
        match self {
            SizeClass::C10MB => (0, 50 * PAPER_MB),
            SizeClass::C100MB => (50 * PAPER_MB, 250 * PAPER_MB),
            SizeClass::C500MB => (250 * PAPER_MB, 750 * PAPER_MB),
            SizeClass::C1GB => (750 * PAPER_MB, u64::MAX),
        }
    }

    /// Parse a figure label (case-insensitive, `"10mb"`, `"1gb"`, ...).
    pub fn parse_label(s: &str) -> Option<SizeClass> {
        match s.to_ascii_lowercase().as_str() {
            "10mb" | "10" => Some(SizeClass::C10MB),
            "100mb" | "100" => Some(SizeClass::C100MB),
            "500mb" | "500" => Some(SizeClass::C500MB),
            "1gb" | "1000" | "1000mb" => Some(SizeClass::C1GB),
            _ => None,
        }
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Filter a history down to the observations in `class`.
pub fn filter_class(history: &[Observation], class: SizeClass) -> Vec<Observation> {
    let mut out = Vec::new();
    filter_class_into(history, class, &mut out);
    out
}

/// Like [`filter_class`], but reusing a caller-provided buffer so hot
/// paths (the replay evaluator calls this once per predictor per
/// target) do not allocate.
pub fn filter_class_into(history: &[Observation], class: SizeClass, out: &mut Vec<Observation>) {
    out.clear();
    out.extend(
        history
            .iter()
            .filter(|o| SizeClass::of_bytes(o.file_size) == class)
            .copied(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> u64 {
        n * PAPER_MB
    }

    #[test]
    fn paper_sizes_classify_as_figure7() {
        // 1,2,5,10,25 MB -> 10MB class; 50,100,150 -> 100MB;
        // 250,400,500 -> 500MB; 750,1000 -> 1GB.
        for s in [1, 2, 5, 10, 25] {
            assert_eq!(SizeClass::of_bytes(mb(s)), SizeClass::C10MB, "{s} MB");
        }
        for s in [50, 100, 150] {
            assert_eq!(SizeClass::of_bytes(mb(s)), SizeClass::C100MB, "{s} MB");
        }
        for s in [250, 400, 500] {
            assert_eq!(SizeClass::of_bytes(mb(s)), SizeClass::C500MB, "{s} MB");
        }
        for s in [750, 1000] {
            assert_eq!(SizeClass::of_bytes(mb(s)), SizeClass::C1GB, "{s} MB");
        }
    }

    #[test]
    fn boundaries_are_half_open() {
        assert_eq!(SizeClass::of_bytes(mb(50) - 1), SizeClass::C10MB);
        assert_eq!(SizeClass::of_bytes(mb(50)), SizeClass::C100MB);
        assert_eq!(SizeClass::of_bytes(mb(250) - 1), SizeClass::C100MB);
        assert_eq!(SizeClass::of_bytes(mb(250)), SizeClass::C500MB);
        assert_eq!(SizeClass::of_bytes(mb(750)), SizeClass::C1GB);
    }

    #[test]
    fn labels_and_parse_roundtrip() {
        for c in SizeClass::ALL {
            assert_eq!(SizeClass::parse_label(c.label()), Some(c));
        }
        assert_eq!(SizeClass::parse_label("nope"), None);
    }

    #[test]
    fn byte_ranges_partition() {
        let mut prev_hi = 0u64;
        for c in SizeClass::ALL {
            let (lo, hi) = c.byte_range();
            assert_eq!(lo, prev_hi);
            assert!(hi > lo);
            prev_hi = hi;
        }
        assert_eq!(prev_hi, u64::MAX);
    }

    #[test]
    fn filter_class_selects_matching() {
        let h: Vec<Observation> = [mb(1), mb(100), mb(400), mb(1000), mb(10)]
            .iter()
            .enumerate()
            .map(|(i, &size)| Observation {
                at_unix: i as u64,
                bandwidth_kbs: 1.0,
                file_size: size,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect();
        assert_eq!(filter_class(&h, SizeClass::C10MB).len(), 2);
        assert_eq!(filter_class(&h, SizeClass::C100MB).len(), 1);
        assert_eq!(filter_class(&h, SizeClass::C500MB).len(), 1);
        assert_eq!(filter_class(&h, SizeClass::C1GB).len(), 1);
    }

    #[test]
    fn zero_size_is_smallest_class() {
        assert_eq!(SizeClass::of_bytes(0), SizeClass::C10MB);
    }
}

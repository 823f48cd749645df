//! The salvage decoder: recover every intact record from a damaged ULM
//! document instead of aborting on the first bad line.
//!
//! [`crate::log::TransferLog::from_ulm_str`] is deliberately strict — a
//! parse error means the document is not what the writer produced, and in
//! tests that should be loud. But a production log that survived a crash,
//! a disk hiccup, or two writers' interleaved buffers is *mostly* good,
//! and the paper's whole prediction path hangs off that history: throwing
//! away 10,000 records because line 7,313 is torn starves every predictor
//! downstream. Salvage keeps what is provably intact, quarantines what is
//! not (with the line number and a reason, so operators can audit the
//! damage), and reports both.
//!
//! Two decoding regimes:
//!
//! * **Lenient** ([`SalvageOptions::default`]) — checksums are verified
//!   when present; legacy lines without a trailer are accepted if they
//!   parse. Right for mixed-vintage logs.
//! * **Strict** ([`SalvageOptions::strict`]) — every line must carry a
//!   valid trailer and the decoded record must pass
//!   [`crate::record::TransferRecord::validate`]. This is the regime with
//!   an exactness guarantee: corruption cannot smuggle a plausible-but-
//!   wrong record past the decoder (property-tested in
//!   `tests/proptest_salvage.rs`).

use serde::Serialize;

use crate::integrity::{check_line, CrcStatus};
use crate::log::TransferLog;
use crate::ulm;

/// Why one line was quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SalvageReason {
    /// The line failed ULM parsing (the carried string is the parse
    /// error's rendering — torn tails usually land here).
    Parse(String),
    /// The line carries an integrity trailer that does not match its
    /// content: bit rot or an interleaved partial write.
    ChecksumMismatch,
    /// Strict mode only: the line carries no integrity trailer.
    MissingChecksum,
    /// The line is byte-identical to the previously kept line — the
    /// duplicated-buffer failure mode of crashed writers.
    DuplicateLine,
    /// The line parsed but the record violates its own invariants.
    InvalidRecord(String),
}

impl std::fmt::Display for SalvageReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SalvageReason::Parse(e) => write!(f, "parse error: {e}"),
            SalvageReason::ChecksumMismatch => write!(f, "checksum mismatch"),
            SalvageReason::MissingChecksum => write!(f, "missing checksum"),
            SalvageReason::DuplicateLine => write!(f, "duplicate of previous line"),
            SalvageReason::InvalidRecord(e) => write!(f, "invalid record: {e}"),
        }
    }
}

/// One quarantined line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct QuarantinedLine {
    /// 1-based line number in the salvaged document.
    pub line: usize,
    /// Why it was rejected.
    pub reason: SalvageReason,
    /// The raw (trimmed) line content, preserved for the audit trail.
    pub content: String,
}

/// What a salvage pass kept and threw away.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SalvageReport {
    /// Records recovered.
    pub kept: usize,
    /// Lines rejected, in document order.
    pub quarantined: Vec<QuarantinedLine>,
}

impl SalvageReport {
    /// Non-blank, non-comment lines examined.
    pub fn lines_seen(&self) -> usize {
        self.kept + self.quarantined.len()
    }

    /// Fraction of examined lines recovered (1.0 for an empty document).
    pub fn recovery_fraction(&self) -> f64 {
        let seen = self.lines_seen();
        if seen == 0 {
            1.0
        } else {
            self.kept as f64 / seen as f64
        }
    }

    /// Whether nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Fold another report into this one (multi-segment loads). Line
    /// numbers stay local to each segment.
    pub fn merge(&mut self, other: SalvageReport) {
        self.kept += other.kept;
        self.quarantined.extend(other.quarantined);
    }
}

/// Salvage decoding knobs. The default is the lenient regime: checksums
/// verified when present, legacy lines accepted, records not revalidated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageOptions {
    /// Reject lines without an integrity trailer (strict provenance).
    pub require_checksum: bool,
    /// Reject records failing [`crate::record::TransferRecord::validate`].
    pub validate_records: bool,
}

impl SalvageOptions {
    /// The exactness regime: checksums mandatory, records validated.
    pub fn strict() -> Self {
        SalvageOptions {
            require_checksum: true,
            validate_records: true,
        }
    }
}

/// Salvage a ULM document: decode every line that is provably intact,
/// quarantine the rest. Blank lines and `#` comments are skipped without
/// being counted.
pub fn salvage_doc(doc: &str, opts: &SalvageOptions) -> (TransferLog, SalvageReport) {
    let mut log = TransferLog::new();
    let mut report = SalvageReport::default();
    let mut last_kept: Option<&str> = None;
    let mut scratch = ulm::DecodeScratch::new();
    for (i, raw) in doc.lines().enumerate() {
        let t = raw.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let quarantine = |reason: SalvageReason, report: &mut SalvageReport| {
            report.quarantined.push(QuarantinedLine {
                line: i + 1,
                reason,
                content: t.to_string(),
            });
        };
        let (content, status) = check_line(t);
        match status {
            CrcStatus::Mismatch => {
                quarantine(SalvageReason::ChecksumMismatch, &mut report);
                continue;
            }
            CrcStatus::Absent if opts.require_checksum => {
                quarantine(SalvageReason::MissingChecksum, &mut report);
                continue;
            }
            _ => {}
        }
        if last_kept == Some(t) {
            quarantine(SalvageReason::DuplicateLine, &mut report);
            continue;
        }
        // The zero-copy decoder carries the same canonical error order
        // as the allocating oracle, so quarantine reasons are stable
        // across both paths (differentially tested).
        match ulm::decode_borrowed(content, &mut scratch) {
            Err(e) => quarantine(SalvageReason::Parse(e.to_string()), &mut report),
            Ok(r) => {
                let r = r.to_owned();
                if opts.validate_records {
                    if let Err(why) = r.validate() {
                        quarantine(SalvageReason::InvalidRecord(why.to_string()), &mut report);
                        continue;
                    }
                }
                last_kept = Some(t);
                report.kept += 1;
                log.append(r);
            }
        }
    }
    (log, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::append_crc;
    use crate::record::sample_record;
    use crate::ulm::encode;

    fn line(i: u64) -> String {
        let mut r = sample_record();
        r.start_unix = 1_000 + i;
        r.end_unix = r.start_unix + 4;
        encode(&r)
    }

    #[test]
    fn clean_document_salvages_fully() {
        let doc = format!("{}\n{}\n", line(0), line(1));
        let (log, report) = salvage_doc(&doc, &SalvageOptions::default());
        assert_eq!(log.len(), 2);
        assert_eq!(report.kept, 2);
        assert!(report.is_clean());
        assert!((report.recovery_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn torn_line_is_quarantined_with_position_and_reason() {
        let good = line(0);
        let torn = &good[..good.len() / 2];
        let doc = format!("# header\n{good}\n{torn}\n{}\n", line(2));
        let (log, report) = salvage_doc(&doc, &SalvageOptions::default());
        assert_eq!(log.len(), 2);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.line, 3);
        assert!(
            matches!(q.reason, SalvageReason::Parse(_)),
            "{:?}",
            q.reason
        );
        assert_eq!(q.content, torn.trim());
    }

    #[test]
    fn checksum_mismatch_beats_a_parsable_lie() {
        // A bit flip inside SIZE keeps the line parsable but changes the
        // record; only the trailer catches it.
        let sealed = append_crc(&line(0));
        let lied = sealed.replace("SIZE=1", "SIZE=9");
        assert_ne!(sealed, lied);
        let doc = format!("{lied}\n");
        let (log, report) = salvage_doc(&doc, &SalvageOptions::default());
        assert_eq!(log.len(), 0);
        assert_eq!(
            report.quarantined[0].reason,
            SalvageReason::ChecksumMismatch
        );
    }

    #[test]
    fn duplicate_lines_keep_one_copy() {
        let l = append_crc(&line(0));
        let doc = format!("{l}\n{l}\n{l}\n");
        let (log, report) = salvage_doc(&doc, &SalvageOptions::default());
        assert_eq!(log.len(), 1);
        assert_eq!(report.quarantined.len(), 2);
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.reason == SalvageReason::DuplicateLine));
    }

    #[test]
    fn strict_mode_rejects_legacy_lines() {
        let doc = format!("{}\n{}\n", line(0), append_crc(&line(1)));
        let (log, report) = salvage_doc(&doc, &SalvageOptions::strict());
        assert_eq!(log.len(), 1);
        assert_eq!(report.quarantined[0].reason, SalvageReason::MissingChecksum);
        // Lenient mode accepts both.
        let (log, _) = salvage_doc(&doc, &SalvageOptions::default());
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn strict_mode_validates_records() {
        let mut r = sample_record();
        r.streams = 0; // invalid, but encodes and checksums fine
        let doc = format!("{}\n", append_crc(&encode(&r)));
        let (log, report) = salvage_doc(&doc, &SalvageOptions::strict());
        assert_eq!(log.len(), 0);
        assert!(matches!(
            report.quarantined[0].reason,
            SalvageReason::InvalidRecord(_)
        ));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = SalvageReport {
            kept: 3,
            quarantined: vec![QuarantinedLine {
                line: 1,
                reason: SalvageReason::ChecksumMismatch,
                content: "x".into(),
            }],
        };
        let b = SalvageReport {
            kept: 2,
            quarantined: Vec::new(),
        };
        a.merge(b);
        assert_eq!(a.kept, 5);
        assert_eq!(a.lines_seen(), 6);
    }

    #[test]
    fn report_serializes() {
        let (_, report) = salvage_doc("garbage\n", &SalvageOptions::default());
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"kept\":0"), "{json}");
        assert!(json.contains("\"content\":\"garbage\""), "{json}");
    }
}

//! The transfer log: an append-only sequence of records with query
//! helpers and ULM file persistence.
//!
//! The paper logs all transfers of a server to a single file in a
//! standard location (§3); the information provider and the predictors
//! consume it. Records are kept in arrival order; the controlled
//! experiments emit them in nondecreasing start-time order, but arbitrary
//! interleavings are tolerated by the query helpers.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::integrity;
use crate::record::TransferRecord;
use crate::salvage::{salvage_doc, SalvageOptions, SalvageReport};
use crate::ulm;
use crate::writer::atomic_write;

/// Errors from log file I/O.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line failed to parse (with its 1-based line number).
    Parse(usize, ulm::UlmError),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::Parse(n, e) => write!(f, "log parse error at line {n}: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// An in-memory transfer log.
#[derive(Debug, Clone, Default)]
pub struct TransferLog {
    records: Vec<TransferRecord>,
    epoch: Epoch,
}

/// Which append-only run of a log a reader is looking at; see
/// [`TransferLog::epoch`]. Every new value is unique in the process, and
/// a cloned log starts its own run: the two can diverge from there.
#[derive(Debug)]
struct Epoch(u64);

impl Epoch {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the number only has to be unique; it publishes nothing.
        Epoch(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::fresh()
    }
}

impl Clone for Epoch {
    fn clone(&self) -> Self {
        Epoch::fresh()
    }
}

/// Logs are equal when their records are; the epoch is bookkeeping.
impl PartialEq for TransferLog {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

/// The serialised form is the records alone (what the derive produced
/// before the epoch existed).
impl serde::Serialize for TransferLog {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("records".to_string(), self.records.to_value())])
    }
}

impl TransferLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The log's current append-only run. While two reads of a log see
    /// the same epoch, nothing but [`append`](TransferLog::append) has
    /// happened in between: the records the first read saw are a prefix
    /// of what the second sees, so an incremental consumer may resume at
    /// its old length. The epoch changes when records leave
    /// ([`truncate_front`](TransferLog::truncate_front),
    /// [`flush`](TransferLog::flush)), and differs between any two logs
    /// built separately — comparing boundary records instead would be
    /// fooled by a writer that cycles a pool of records. It takes no part
    /// in equality or in the serialised form.
    pub fn epoch(&self) -> u64 {
        self.epoch.0
    }

    /// Append one record.
    pub fn append(&mut self, r: TransferRecord) {
        self.records.push(r);
    }

    /// All records in arrival order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records whose start time falls in `[from, to)` (Unix seconds).
    pub fn in_window(&self, from: u64, to: u64) -> impl Iterator<Item = &TransferRecord> {
        self.records
            .iter()
            .filter(move |r| r.start_unix >= from && r.start_unix < to)
    }

    /// Records for transfers with the given remote endpoint.
    pub fn for_source<'a>(
        &'a self,
        source: &'a str,
    ) -> impl Iterator<Item = &'a TransferRecord> + 'a {
        self.records.iter().filter(move |r| r.source == source)
    }

    /// Drop the oldest entries, keeping at most `n` (the NWS-style
    /// running-window trim; see [`crate::trim`] for policies).
    pub fn truncate_front(&mut self, n: usize) {
        if self.records.len() > n {
            self.records.drain(..self.records.len() - n);
            self.epoch = Epoch::fresh();
        }
    }

    /// Remove all entries, returning them (the NetLogger-style
    /// flush-and-restart strategy).
    pub fn flush(&mut self) -> Vec<TransferRecord> {
        self.epoch = Epoch::fresh();
        std::mem::take(&mut self.records)
    }

    /// Serialize every record as ULM, one line each.
    pub fn to_ulm_string(&self) -> String {
        let mut s = String::new();
        for r in &self.records {
            s.push_str(&ulm::encode(r));
            s.push('\n');
        }
        s
    }

    /// Like [`TransferLog::to_ulm_string`], with a CRC integrity trailer
    /// sealing every line (see [`crate::integrity`]). Old readers ignore
    /// the extra keyword; the salvage decoder uses it to reject damage.
    pub fn to_ulm_string_checksummed(&self) -> String {
        let mut s = String::new();
        for r in &self.records {
            s.push_str(&integrity::append_crc(&ulm::encode(r)));
            s.push('\n');
        }
        s
    }

    /// Parse a ULM document (one record per line; blank lines and `#`
    /// comments are skipped).
    ///
    /// Decoding goes through the zero-copy borrowed path
    /// ([`ulm::decode_borrowed`]); only the surviving record fields are
    /// materialised.
    pub fn from_ulm_str(doc: &str) -> Result<Self, LogError> {
        let mut log = TransferLog::new();
        let mut scratch = ulm::DecodeScratch::new();
        for (i, line) in doc.lines().enumerate() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let r = ulm::decode_borrowed(t, &mut scratch).map_err(|e| LogError::Parse(i + 1, e))?;
            log.append(r.to_owned());
        }
        Ok(log)
    }

    /// Salvage a ULM document under the lenient regime: keep every
    /// provably intact record, quarantine the rest. Never errors — a
    /// fully damaged document yields an empty log and a full quarantine.
    /// See [`crate::salvage`] for semantics.
    pub fn salvage_ulm(doc: &str) -> (Self, SalvageReport) {
        salvage_doc(doc, &SalvageOptions::default())
    }

    /// Write the log to a file in ULM format. The write is atomic
    /// (tmp file + fsync + rename): a crash leaves either the previous
    /// file or the complete new one.
    pub fn save_ulm(&self, path: &Path) -> Result<(), LogError> {
        atomic_write(path, &self.to_ulm_string())?;
        Ok(())
    }

    /// Like [`TransferLog::save_ulm`], sealing every line with a CRC
    /// integrity trailer.
    pub fn save_ulm_checksummed(&self, path: &Path) -> Result<(), LogError> {
        atomic_write(path, &self.to_ulm_string_checksummed())?;
        Ok(())
    }

    /// Load a log from a ULM file.
    ///
    /// Reads the document in one shot and decodes it borrowed: a log is
    /// small next to memory (well under 512 bytes per record) and the
    /// zero-copy line decoder wants the whole text anyway.
    pub fn load_ulm(path: &Path) -> Result<Self, LogError> {
        let doc = std::fs::read_to_string(path)?;
        Self::from_ulm_str(&doc)
    }

    /// Load a log from a ULM file through the salvage decoder: I/O
    /// failures still error, but damaged lines are quarantined into the
    /// report instead of aborting the load.
    pub fn load_ulm_salvaged(path: &Path) -> Result<(Self, SalvageReport), LogError> {
        let doc = std::fs::read_to_string(path)?;
        Ok(Self::salvage_ulm(&doc))
    }

    /// The bandwidth series `(start_unix, KB/s)` in arrival order — the
    /// input shape every predictor consumes.
    pub fn bandwidth_series(&self) -> Vec<(u64, f64)> {
        self.records
            .iter()
            .map(|r| (r.start_unix, r.bandwidth_kbs()))
            .collect()
    }
}

impl FromIterator<TransferRecord> for TransferLog {
    fn from_iter<T: IntoIterator<Item = TransferRecord>>(iter: T) -> Self {
        TransferLog {
            records: iter.into_iter().collect(),
            epoch: Epoch::fresh(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{sample_record, TransferRecord};

    fn rec(start: u64, size: u64) -> TransferRecord {
        let mut r = sample_record();
        r.start_unix = start;
        r.end_unix = start + 4;
        r.file_size = size;
        r
    }

    #[test]
    fn append_and_query_window() {
        let mut log = TransferLog::new();
        log.append(rec(100, 1));
        log.append(rec(200, 2));
        log.append(rec(300, 3));
        let got: Vec<u64> = log.in_window(150, 300).map(|r| r.start_unix).collect();
        assert_eq!(got, vec![200]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn source_filter() {
        let mut log = TransferLog::new();
        let mut a = rec(1, 1);
        a.source = "isi".into();
        log.append(a);
        log.append(rec(2, 2));
        assert_eq!(log.for_source("isi").count(), 1);
        assert_eq!(log.for_source("140.221.65.69").count(), 1);
    }

    #[test]
    fn ulm_document_roundtrip() {
        let mut log = TransferLog::new();
        for i in 0..5 {
            log.append(rec(i * 100, (i + 1) * 1000));
        }
        let doc = log.to_ulm_string();
        let back = TransferLog::from_ulm_str(&doc).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back.records()[3].file_size, 4000);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = format!(
            "# header\n\n{}\n  \n# trailer\n",
            crate::ulm::encode(&sample_record())
        );
        let log = TransferLog::from_ulm_str(&doc).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn parse_error_carries_line_number() {
        let doc = format!("{}\ngarbage line\n", crate::ulm::encode(&sample_record()));
        match TransferLog::from_ulm_str(&doc) {
            Err(LogError::Parse(2, _)) => {}
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn truncate_front_keeps_most_recent() {
        let mut log = TransferLog::new();
        for i in 0..10 {
            log.append(rec(i, 1));
        }
        log.truncate_front(3);
        assert_eq!(log.len(), 3);
        assert_eq!(log.records()[0].start_unix, 7);
    }

    #[test]
    fn flush_empties_and_returns() {
        let mut log = TransferLog::new();
        log.append(rec(1, 1));
        let got = log.flush();
        assert_eq!(got.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("wanpred-logfmt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("transfers.ulm");
        let mut log = TransferLog::new();
        log.append(rec(10, 100));
        log.append(rec(20, 200));
        log.save_ulm(&path).unwrap();
        let back = TransferLog::load_ulm(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.records()[1].file_size, 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_ulm_keeps_intact_records_from_a_damaged_doc() {
        let mut log = TransferLog::new();
        for i in 0..4 {
            log.append(rec(i * 100, 1000));
        }
        let mut doc = log.to_ulm_string_checksummed();
        doc.push_str("torn gar\n");
        let (back, report) = TransferLog::salvage_ulm(&doc);
        assert_eq!(back.len(), 4);
        assert_eq!(report.kept, 4);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].line, 5);
    }

    #[test]
    fn checksummed_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("wanpred-logfmt-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sealed.ulm");
        let mut log = TransferLog::new();
        log.append(rec(10, 100));
        log.append(rec(20, 200));
        log.save_ulm_checksummed(&path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.lines().all(|l| l.contains(" CRC=")));
        // The strict loader tolerates the extra keyword...
        let back = TransferLog::load_ulm(&path).unwrap();
        assert_eq!(back, log);
        // ...and the salvaging loader verifies it.
        let (back, report) = TransferLog::load_ulm_salvaged(&path).unwrap();
        assert_eq!(back, log);
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bandwidth_series_shape() {
        let mut log = TransferLog::new();
        log.append(rec(100, 4_000_000)); // 4 MB in 4 s = 1000 KB/s
        let s = log.bandwidth_series();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, 100);
        assert!((s[0].1 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_changes_exactly_when_old_records_may_be_gone() {
        let mut log = TransferLog::new();
        let e0 = log.epoch();
        for i in 0..6 {
            log.append(rec(i, 1));
        }
        log.truncate_front(6); // drops nothing
        assert_eq!(log.epoch(), e0, "appends and no-op trims keep the run");
        log.truncate_front(4);
        let e1 = log.epoch();
        assert_ne!(e1, e0);
        log.flush();
        let e2 = log.epoch();
        assert_ne!(e2, e1);
        // Separately built logs never share a run, equal or not.
        let copy = log.clone();
        assert_eq!(copy, log);
        assert_ne!(copy.epoch(), e2);
        assert_ne!(TransferLog::new().epoch(), TransferLog::new().epoch());
        let moved = std::mem::take(&mut log);
        assert_eq!(moved.epoch(), e2, "a move keeps the run with the records");
        assert_ne!(log.epoch(), e2);
    }

    #[test]
    fn epoch_stays_out_of_the_serialised_form() {
        use serde::Serialize;
        let mut log = TransferLog::new();
        log.append(rec(1, 1));
        let v = log.to_value();
        let fields: Vec<&str> = v
            .as_map()
            .expect("a struct serialises as a map")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["records"]);
    }
}

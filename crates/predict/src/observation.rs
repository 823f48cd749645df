//! The observation type every predictor consumes.
//!
//! Predictors never see raw log lines; they see a time-ordered series of
//! `(timestamp, bandwidth, file size)` triples plus the transfer's
//! tuning covariates (stream count, TCP buffer). The file size rides
//! along so the *context-sensitive* wrapper (§4.3) can filter by size
//! class and so the regression family ([`crate::regression`]) can fit
//! bandwidth against it — the paper's mathematical techniques themselves
//! (§4.1) look only at the bandwidth values.

use wanpred_logfmt::ulm::{decode_borrowed, DecodeScratch, TransferRecordRef};
use wanpred_logfmt::{LogError, TransferLog, TransferRecord};

/// One historical throughput observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// When the transfer started (Unix seconds).
    pub at_unix: u64,
    /// Achieved end-to-end bandwidth, KB/s (`size / total time`, the
    /// paper's definition).
    pub bandwidth_kbs: f64,
    /// Size of the transferred file in bytes (context for classification
    /// and the regression family's primary covariate).
    pub file_size: u64,
    /// Parallel data streams used (regression covariate; 1 when the log
    /// source does not record it).
    pub streams: u32,
    /// Per-stream TCP buffer size in bytes (regression covariate; 0 when
    /// the log source does not record it).
    pub tcp_buffer: u64,
}

impl Observation {
    /// Build a covariate-less observation: one parallel stream, unknown
    /// (zero) TCP buffer. The usual constructor for synthetic series and
    /// callers that only have the paper's `(time, bandwidth, size)`
    /// triple.
    pub const fn new(at_unix: u64, bandwidth_kbs: f64, file_size: u64) -> Self {
        Observation {
            at_unix,
            bandwidth_kbs,
            file_size,
            streams: 1,
            tcp_buffer: 0,
        }
    }

    /// Build from a log record, carrying the record's stream count and
    /// TCP buffer as regression covariates.
    pub fn from_record(r: &TransferRecord) -> Self {
        Observation {
            at_unix: r.start_unix,
            bandwidth_kbs: r.bandwidth_kbs(),
            file_size: r.file_size,
            streams: r.streams,
            tcp_buffer: r.tcp_buffer,
        }
    }

    /// Build from a borrowed record (the zero-copy decode path); same
    /// fields as [`Observation::from_record`].
    pub fn from_ref(r: &TransferRecordRef<'_>) -> Self {
        Observation {
            at_unix: r.start_unix,
            bandwidth_kbs: r.bandwidth_kbs(),
            file_size: r.file_size,
            streams: r.streams,
            tcp_buffer: r.tcp_buffer,
        }
    }
}

/// Extract the observation series from a transfer log, in log order.
///
/// The paper's controlled logs are already time-ordered; busy production
/// servers may interleave, so callers who need strict time order should
/// [`sort_by_time`] afterwards.
pub fn observations_from_log(log: &TransferLog) -> Vec<Observation> {
    log.records().iter().map(Observation::from_record).collect()
}

/// Extract the observation series straight from a ULM document, in
/// document order, without materialising a [`TransferLog`] in between.
///
/// This is the ingest half of the parse hot path: each line is decoded
/// borrowed ([`decode_borrowed`]) and reduced to its numeric
/// [`Observation`] on the spot, so the only allocation that grows with
/// the document is the output vector itself. Grammar, skipping rules
/// (blank lines, `#` comments) and errors are identical to
/// [`TransferLog::from_ulm_str`] — differentially tested in
/// `tests/parse_differential.rs`.
pub fn observations_from_ulm(doc: &str) -> Result<Vec<Observation>, LogError> {
    let mut out = Vec::new();
    let mut scratch = DecodeScratch::new();
    for (i, line) in doc.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let r = decode_borrowed(t, &mut scratch).map_err(|e| LogError::Parse(i + 1, e))?;
        out.push(Observation::from_ref(&r));
    }
    Ok(out)
}

/// Sort a series by timestamp (stable, preserving log order among ties).
pub fn sort_by_time(obs: &mut [Observation]) {
    obs.sort_by_key(|o| o.at_unix);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanpred_logfmt::sample_record;

    #[test]
    fn from_record_carries_bandwidth() {
        let o = Observation::from_record(&sample_record());
        assert_eq!(o.at_unix, 998_988_165);
        assert!((o.bandwidth_kbs - 2560.0).abs() < 1e-9);
        assert_eq!(o.file_size, 10_240_000);
    }

    #[test]
    fn log_extraction_preserves_order() {
        let mut log = TransferLog::new();
        for i in [5u64, 3, 9] {
            let mut r = sample_record();
            r.start_unix = i;
            r.end_unix = i + 4;
            log.append(r);
        }
        let mut obs = observations_from_log(&log);
        assert_eq!(obs.iter().map(|o| o.at_unix).collect::<Vec<_>>(), [5, 3, 9]);
        sort_by_time(&mut obs);
        assert_eq!(obs.iter().map(|o| o.at_unix).collect::<Vec<_>>(), [3, 5, 9]);
    }

    #[test]
    fn ulm_extraction_matches_log_extraction() {
        let mut log = TransferLog::new();
        for i in 0..10u64 {
            let mut r = sample_record();
            r.start_unix += i * 600;
            r.end_unix = r.start_unix + 4;
            r.file_size += i * 1_000;
            log.append(r);
        }
        let doc = format!("# header\n\n{}", log.to_ulm_string());
        let direct = observations_from_ulm(&doc).expect("own encoding parses");
        assert_eq!(direct, observations_from_log(&log));
    }

    #[test]
    fn ulm_extraction_reports_line_numbers() {
        let good = wanpred_logfmt::encode(&sample_record());
        let doc = format!("{good}\nnot a record\n");
        match observations_from_ulm(&doc) {
            Err(LogError::Parse(n, _)) => assert_eq!(n, 2),
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
    }
}

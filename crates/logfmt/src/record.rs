//! The per-transfer log record — the schema of the paper's Figure 3.
//!
//! One record is written for every file transfer a GridFTP server
//! performs: source address, file name and size, logical volume, start and
//! end timestamps, total time, aggregate bandwidth, operation direction,
//! stream count and TCP buffer size. The end-to-end bandwidth definition
//! is the paper's: `BW = file size / transfer time` — the whole transfer
//! function including storage and protocol overheads, not just wire time.

use serde::Serialize;

/// Direction of a transfer from the *server's* point of view.
///
/// `Read` = the server read the file from its disk and sent it (a client
/// `get`); `Write` = the server stored an incoming file (a client `put`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Operation {
    /// Server-side read (client retrieval).
    Read,
    /// Server-side write (client store).
    Write,
}

impl Operation {
    /// The ULM token for this operation.
    pub fn as_str(self) -> &'static str {
        match self {
            Operation::Read => "Read",
            Operation::Write => "Write",
        }
    }

    /// Parse a ULM token.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "Read" | "read" | "RETR" => Some(Operation::Read),
            "Write" | "write" | "STOR" => Some(Operation::Write),
            _ => None,
        }
    }
}

/// One transfer-log entry (Figure 3 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TransferRecord {
    /// Address of the remote endpoint (the paper logs the source IP).
    pub source: String,
    /// Hostname of the server that wrote the record.
    pub host: String,
    /// Absolute path of the transferred file.
    pub file_name: String,
    /// File size in bytes.
    pub file_size: u64,
    /// Logical volume the file was moved to/from.
    pub volume: String,
    /// Transfer start, Unix seconds.
    pub start_unix: u64,
    /// Transfer end, Unix seconds.
    pub end_unix: u64,
    /// Total elapsed transfer time in seconds, with sub-second precision
    /// (the paper's logs round to whole seconds; we retain milliseconds so
    /// 1 MB transfers don't divide by zero).
    pub total_time_s: f64,
    /// Number of parallel data streams used.
    pub streams: u32,
    /// Per-stream TCP buffer size in bytes.
    pub tcp_buffer: u64,
    /// Operation direction.
    pub operation: Operation,
}

/// A structural inconsistency in a [`TransferRecord`], found by
/// [`TransferRecord::validate`]. Each variant carries the offending
/// values so callers can report or quarantine without re-deriving them.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// The end timestamp is earlier than the start timestamp.
    EndPrecedesStart {
        /// Transfer start, Unix seconds.
        start: u64,
        /// Transfer end, Unix seconds.
        end: u64,
    },
    /// The total time is NaN, infinite, or negative.
    BadTotalTime(f64),
    /// The total time disagrees with the start/end stamps beyond rounding.
    TimeInconsistent {
        /// The recorded elapsed time in seconds.
        total_time_s: f64,
        /// The span implied by the timestamps, `end - start`, in seconds.
        span_s: f64,
    },
    /// The record claims zero parallel streams.
    ZeroStreams,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::EndPrecedesStart { start, end } => {
                write!(f, "end {end} precedes start {start}")
            }
            ValidateError::BadTotalTime(t) => write!(f, "bad total time {t}"),
            ValidateError::TimeInconsistent {
                total_time_s,
                span_s,
            } => {
                write!(
                    f,
                    "total time {total_time_s} inconsistent with stamps ({span_s})"
                )
            }
            ValidateError::ZeroStreams => write!(f, "zero streams"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl TransferRecord {
    /// End-to-end bandwidth in KB/s (1 KB = 1000 bytes, matching
    /// Figure 3: 10_240_000 bytes / 4 s = 2560 KB/s).
    pub fn bandwidth_kbs(&self) -> f64 {
        if self.total_time_s <= 0.0 {
            return 0.0;
        }
        self.file_size as f64 / self.total_time_s / 1_000.0
    }

    /// End-to-end bandwidth in MB/s (1 MB = 10^6 bytes).
    pub fn bandwidth_mbs(&self) -> f64 {
        self.bandwidth_kbs() / 1_000.0
    }

    /// Basic internal consistency checks; returns the first violation,
    /// if any, as a typed [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.end_unix < self.start_unix {
            return Err(ValidateError::EndPrecedesStart {
                start: self.start_unix,
                end: self.end_unix,
            });
        }
        if !self.total_time_s.is_finite() || self.total_time_s < 0.0 {
            return Err(ValidateError::BadTotalTime(self.total_time_s));
        }
        // total_time must be consistent with the stamps within rounding.
        let span = (self.end_unix - self.start_unix) as f64;
        if (self.total_time_s - span).abs() > 1.5 {
            return Err(ValidateError::TimeInconsistent {
                total_time_s: self.total_time_s,
                span_s: span,
            });
        }
        if self.streams == 0 {
            return Err(ValidateError::ZeroStreams);
        }
        Ok(())
    }
}

/// Builder for [`TransferRecord`] used by the instrumentation layer.
#[derive(Debug, Clone, Default)]
pub struct TransferRecordBuilder {
    source: Option<String>,
    host: Option<String>,
    file_name: Option<String>,
    file_size: Option<u64>,
    volume: Option<String>,
    start_unix: Option<u64>,
    end_unix: Option<u64>,
    total_time_s: Option<f64>,
    streams: Option<u32>,
    tcp_buffer: Option<u64>,
    operation: Option<Operation>,
}

macro_rules! setter {
    ($name:ident, $ty:ty) => {
        /// Set this field.
        pub fn $name(mut self, v: $ty) -> Self {
            self.$name = Some(v);
            self
        }
    };
}

impl TransferRecordBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    setter!(file_size, u64);
    setter!(start_unix, u64);
    setter!(end_unix, u64);
    setter!(total_time_s, f64);
    setter!(streams, u32);
    setter!(tcp_buffer, u64);
    setter!(operation, Operation);

    /// Set the remote endpoint address.
    pub fn source(mut self, v: impl Into<String>) -> Self {
        self.source = Some(v.into());
        self
    }

    /// Set the logging server's hostname.
    pub fn host(mut self, v: impl Into<String>) -> Self {
        self.host = Some(v.into());
        self
    }

    /// Set the file path.
    pub fn file_name(mut self, v: impl Into<String>) -> Self {
        self.file_name = Some(v.into());
        self
    }

    /// Set the logical volume.
    pub fn volume(mut self, v: impl Into<String>) -> Self {
        self.volume = Some(v.into());
        self
    }

    /// Finish, failing with the name of the first missing field.
    pub fn build(self) -> Result<TransferRecord, &'static str> {
        let r = TransferRecord {
            source: self.source.ok_or("source")?,
            host: self.host.ok_or("host")?,
            file_name: self.file_name.ok_or("file_name")?,
            file_size: self.file_size.ok_or("file_size")?,
            volume: self.volume.ok_or("volume")?,
            start_unix: self.start_unix.ok_or("start_unix")?,
            end_unix: self.end_unix.ok_or("end_unix")?,
            total_time_s: self.total_time_s.ok_or("total_time_s")?,
            streams: self.streams.ok_or("streams")?,
            tcp_buffer: self.tcp_buffer.ok_or("tcp_buffer")?,
            operation: self.operation.ok_or("operation")?,
        };
        Ok(r)
    }
}

/// A convenient fully-populated sample record (Figure 3's first row).
pub fn sample_record() -> TransferRecord {
    TransferRecordBuilder::new()
        .source("140.221.65.69")
        .host("dpsslx04.lbl.gov")
        .file_name("/home/ftp/vazhkuda/10MB")
        .file_size(10_240_000)
        .volume("/home/ftp")
        .start_unix(998_988_165)
        .end_unix(998_988_169)
        .total_time_s(4.0)
        .streams(8)
        .tcp_buffer(1_000_000)
        .operation(Operation::Read)
        .build()
        .expect("all fields set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_bandwidth_matches() {
        let r = sample_record();
        assert!((r.bandwidth_kbs() - 2560.0).abs() < 1e-9);
        assert!((r.bandwidth_mbs() - 2.56).abs() < 1e-9);
    }

    #[test]
    fn builder_reports_missing_field() {
        let err = TransferRecordBuilder::new()
            .source("x")
            .build()
            .unwrap_err();
        assert_eq!(err, "host");
    }

    #[test]
    fn validate_accepts_sample() {
        assert!(sample_record().validate().is_ok());
    }

    #[test]
    fn validate_rejects_time_travel() {
        let mut r = sample_record();
        r.end_unix = r.start_unix - 1;
        assert_eq!(
            r.validate(),
            Err(ValidateError::EndPrecedesStart {
                start: r.start_unix,
                end: r.end_unix,
            })
        );
    }

    #[test]
    fn validate_rejects_inconsistent_total_time() {
        let mut r = sample_record();
        r.total_time_s = 100.0;
        assert_eq!(
            r.validate(),
            Err(ValidateError::TimeInconsistent {
                total_time_s: 100.0,
                span_s: 4.0,
            })
        );
    }

    #[test]
    fn validate_rejects_non_finite_total_time() {
        let mut r = sample_record();
        r.total_time_s = f64::NAN;
        assert!(matches!(r.validate(), Err(ValidateError::BadTotalTime(_))));
    }

    #[test]
    fn validate_rejects_zero_streams() {
        let mut r = sample_record();
        r.streams = 0;
        assert_eq!(r.validate(), Err(ValidateError::ZeroStreams));
    }

    #[test]
    fn validate_error_messages_describe_the_violation() {
        let mut r = sample_record();
        r.streams = 0;
        let err = r.validate().unwrap_err();
        assert_eq!(err.to_string(), "zero streams");
        let err: Box<dyn std::error::Error> = Box::new(err);
        assert_eq!(err.to_string(), "zero streams");
    }

    #[test]
    fn zero_time_bandwidth_is_zero_not_nan() {
        let mut r = sample_record();
        r.total_time_s = 0.0;
        assert_eq!(r.bandwidth_kbs(), 0.0);
    }

    #[test]
    fn operation_tokens_roundtrip() {
        assert_eq!(Operation::parse("Read"), Some(Operation::Read));
        assert_eq!(Operation::parse("STOR"), Some(Operation::Write));
        assert_eq!(Operation::parse("bogus"), None);
        assert_eq!(Operation::Read.as_str(), "Read");
    }
}

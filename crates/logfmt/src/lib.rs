//! # wanpred-logfmt
//!
//! GridFTP transfer logs in the Universal Logging Format (ULM)
//! `Keyword=Value` style used by the paper's instrumented server (§3,
//! Figure 3): the [`record::TransferRecord`] schema, ULM
//! encoding/parsing ([`ulm`]), the append-only [`log::TransferLog`] with
//! file persistence, the paper's two log-retention strategies
//! ([`trim`]): NWS-style running windows and NetLogger-style
//! flush-and-restart, and a rotating on-disk writer ([`writer`])
//! implementing the latter as a streaming component.
//!
//! The durability layer (DESIGN.md § "Durability and degraded mode")
//! adds per-record integrity trailers ([`integrity`]), a salvage decoder
//! that recovers intact records from damaged documents ([`salvage`]),
//! crash-safe rotation with torn-tail recovery in [`writer`], and a
//! deterministic corruption injector ([`chaos`]) to prove all of it.
//!
//! The parse hot path (DESIGN.md § "Parse hot path") decodes borrowed:
//! [`ulm::tokenize_bytes`] + [`ulm::decode_borrowed`] produce records
//! without per-line allocation, and [`columns::TransferColumns`] stores
//! a whole log column-wise over a shared string arena. The original
//! allocating decoder survives only as the differential tests' oracle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod columns;
pub mod integrity;
pub mod log;
pub mod record;
pub mod salvage;
#[doc(hidden)]
pub mod testing;
pub mod trim;
pub mod ulm;
pub mod writer;

pub use crate::chaos::{corrupt_doc, ChaosConfig, ChaosOp, ChaosReport};
pub use crate::columns::TransferColumns;
pub use crate::integrity::{append_crc, check_line, crc32, CrcStatus};
pub use crate::log::{LogError, TransferLog};
pub use crate::record::{
    sample_record, Operation, TransferRecord, TransferRecordBuilder, ValidateError,
};
pub use crate::salvage::{
    salvage_doc, QuarantinedLine, SalvageOptions, SalvageReason, SalvageReport,
};
pub use crate::trim::{TrimOutcome, TrimPolicy};
pub use crate::ulm::{
    decode_borrowed, encode, tokenize_bytes, DecodeScratch, RawToken, RawValue, TransferRecordRef,
    UlmError,
};
pub use crate::writer::{atomic_write, RotatingLogWriter, RotationConfig};

//! # wanpred-infod
//!
//! The delivery infrastructure (§5): an MDS-2-style information service
//! making transfer statistics and predictions discoverable.
//!
//! * [`ldif`] — LDAP-style entries with DNs, multi-valued attributes and
//!   LDIF serialization (the Figure 6 output format).
//! * [`schema`] — the `GridFTPPerfInfo` / `GridFTPServerInfo` object
//!   classes and entry validation.
//! * [`filter`] — an RFC 2254-subset search-filter language for
//!   inquiries.
//! * [`gris`] — the per-site Grid Resource Information Service with
//!   pluggable, TTL-cached information providers.
//! * [`giis`] — the aggregate index with the soft-state registration
//!   protocol (Figure 5).
//! * [`provider`] — the GridFTP performance provider that digests
//!   transfer logs into statistics and predictions.
//! * [`server_provider`] — static `GridFTPServerInfo` endpoint facts
//!   (URL, port, exported volumes).
//! * [`service`] — the unified [`InquiryService`] surface all directory
//!   services answer through.
//! * [`serve`] — the sharded, snapshot-swapping serving layer with
//!   admission control and the open-loop load generator.
//! * [`error`] — the crate-wide [`Error`] every fallible surface
//!   converges on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod filter;
pub mod giis;
pub mod gris;
pub mod ldif;
pub mod provider;
pub mod schema;
pub mod serve;
pub mod server_provider;
pub mod service;

pub use error::{Error, InquiryError};
pub use filter::{parse as parse_filter, Filter, FilterError};
pub use giis::{Giis, RegisterOutcome, Registration, RegistrationBackoff};
pub use gris::{
    Gris, InfoProvider, Materialized, MaterializedEntry, ProviderError, SnapshotSource,
    STALENESS_ATTR,
};
pub use ldif::{to_ldif_document, Dn, Entry, LdifError};
pub use provider::{GridFtpPerfProvider, LogSource, ProviderConfig};
pub use schema::{Schema, SchemaError, GRIDFTP_PERF_INFO, GRIDFTP_SERVER_INFO};
pub use serve::loadgen::{run_open_loop, OpenLoopConfig, OpenLoopReport};
pub use serve::{AdmissionConfig, ServeConfig, ShardedServer};
pub use server_provider::{ServerInfo, ServerInfoProvider};
pub use service::{
    CacheStatus, InquiryRequest, InquiryResponse, InquiryService, Provenance, ServedBy,
};

//! # wanpred-gridftp
//!
//! A GridFTP-like high-performance transfer service over the `wanpred`
//! simulator, instrumented exactly as the paper's modified Globus server
//! (§3): every transfer — a whole-file or partial `GET` — emits one ULM
//! log record at its server carrying the Figure 3 fields, with the
//! end-to-end bandwidth defined as `file size / transfer time` over the
//! whole operation (control setup, storage, and wire time included).
//!
//! * [`transfer`] — the [`transfer::TransferManager`] executing each
//!   transfer as one simulated flow: control-setup latency, parallel
//!   streams, TCP buffer limits, storage-contention caps, retries, and
//!   per-server transfer logs. The control channel is not simulated command by command: its
//!   whole cost is `AUTH_DELAY + SETUP_ROUND_TRIPS × RTT`, charged before
//!   the data flows start.
//! * [`instrument`] — the paper's logging-overhead claims (≈25 ms/record,
//!   < 512 bytes/entry) and a measurement helper proving our pipeline
//!   sits far inside them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod instrument;
pub mod transfer;

pub use instrument::{
    measure_logging_cost, modeled_logging_cost, LoggingCost, PAPER_LOGGING_OVERHEAD_MS,
};
pub use transfer::{
    owns_tag, stripe_shares, CompletedTransfer, FailureReason, RetryPolicy, ServerConfig,
    SubmitError, TransferEvent, TransferKind, TransferManager, TransferRequest, TransferToken,
    TAG_BASE,
};

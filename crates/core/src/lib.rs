//! # wanpred
//!
//! A production-quality Rust reproduction of *Vazhkudai, Schopf & Foster,
//! "Predicting the Performance of Wide Area Data Transfers" (IPPS 2002)*:
//! log-based prediction of wide-area bulk-transfer throughput for replica
//! selection in Data Grids.
//!
//! This facade crate re-exports the whole workspace and adds the
//! [`framework::PredictiveFramework`] convenience API wiring the paper's
//! three elements — instrumentation, predictors, delivery — into one
//! object.
//!
//! ## Workspace map
//!
//! | crate | role |
//! |-------|------|
//! | [`simnet`] | fluid-flow discrete-event WAN simulator (the testbed substrate) |
//! | [`storage`] | disk/contention/volume/cache models |
//! | [`logfmt`] | ULM transfer logs (Figure 3 schema) |
//! | [`gridftp`] | the instrumented transfer service |
//! | [`predict`] | the 30-predictor suite, evaluation framework and online tournament |
//! | [`nws`] | NWS-style probes (Figures 1–2 comparison) |
//! | [`infod`] | MDS-like GRIS/GIIS delivery infrastructure |
//! | [`replica`] | prediction-driven replica selection |
//! | [`testbed`] | ANL/ISI/LBL campaigns and per-figure computation |
//!
//! ## Quickstart
//!
//! ```
//! use wanpred_core::prelude::*;
//!
//! // Simulate a short measurement campaign on the paper's testbed,
//! // with the deterministic metrics pipeline switched on...
//! let cfg = CampaignConfig::builder(7)
//!     .duration_days(2)
//!     .probes(false)
//!     .obs(ObsSink::enabled())
//!     .build();
//! let result = run_campaign(&cfg);
//!
//! // ...evaluate the paper's predictor suite over the LBL log...
//! let eval = Evaluation::builder().build();
//! let reports = eval.run_log(result.log(Pair::LblAnl));
//! assert_eq!(reports.len(), 30);
//!
//! // ...and dump the campaign's metrics snapshot.
//! let metrics = result.metrics.as_ref().expect("obs was enabled");
//! assert!(metrics.counter("campaign.transfers") > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod framework;

pub use framework::{PredictiveFramework, DEFAULT_REGISTRATION_TTL};

pub use wanpred_gridftp as gridftp;
pub use wanpred_infod as infod;
pub use wanpred_logfmt as logfmt;
pub use wanpred_nws as nws;
pub use wanpred_obs as obs;
pub use wanpred_predict as predict;
pub use wanpred_replica as replica;
pub use wanpred_simnet as simnet;
pub use wanpred_storage as storage;
pub use wanpred_testbed as testbed;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::framework::PredictiveFramework;
    pub use wanpred_gridftp::{
        CompletedTransfer, ServerConfig, TransferKind, TransferManager, TransferRequest,
    };
    pub use wanpred_infod::{
        parse_filter, Dn, Entry, Giis, Gris, InquiryRequest, InquiryResponse, InquiryService,
        Registration, Schema, ServeConfig, ShardedServer,
    };
    pub use wanpred_logfmt::{Operation, TransferLog, TransferRecord, TransferRecordBuilder};
    pub use wanpred_obs::{ObsSink, Snapshot};
    pub use wanpred_predict::prelude::*;
    pub use wanpred_replica::{
        Broker, CoallocEvent, CoallocRequest, CoallocSource, Coallocator, CompletedCoalloc,
        GiisPerfSource, NoPerfInfo, PhysicalReplica, ReplicaCatalog, Selection, SelectionPolicy,
        TopKSelection,
    };
    pub use wanpred_simnet::prelude::*;
    pub use wanpred_storage::{DiskSpec, FileCatalog, StorageServer};
    pub use wanpred_testbed::{
        build_testbed, fig01_02, fig07, fig08_11, fig12_13, fig14_21, run_campaign,
        CampaignBuilder, CampaignConfig, CampaignResult, CoallocSummary, Pair, Table,
        WorkloadConfig,
    };
}

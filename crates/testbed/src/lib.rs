//! # wanpred-testbed
//!
//! The reproduction harness: the simulated ANL–ISI–LBL testbed
//! ([`sites`]), the paper's controlled workload generator ([`workload`]),
//! two-week measurement campaigns with concurrent NWS probes
//! ([`campaign`]), per-figure data computation ([`figures`]) and text /
//! CSV rendering ([`report`]).
//!
//! `wanpred figure` and `wanpred ablate` are thin wrappers over these
//! functions — everything needed to regenerate the paper's tables and
//! figures lives here, callable from library code and tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod figures;
pub mod report;
pub mod serving;
pub mod sites;
pub mod workload;

pub use campaign::{
    run_campaign, Campaign, CampaignBuilder, CampaignConfig, CampaignResult, CoallocSummary, Pair,
};
pub use figures::{
    fig01_02, fig07, fig08_11, fig12_13, fig14_21, observation_series, summary, ErrorCell,
    Fig0102Series, Fig07Counts, SummaryStats,
};
pub use report::{fmt_mape, fmt_pct, Table};
pub use serving::{
    serving_filters, serving_now_unix, serving_sites, ServingSite, SERVING_CLIENTS,
    SERVING_EPOCH_UNIX,
};
pub use sites::{
    build_testbed, paper_sites, quiet_load_config, wan_load_config, SiteSpec, Testbed,
};
pub use workload::WorkloadConfig;

//! # wanpred-bench
//!
//! Regeneration harnesses for every table and figure in the paper's
//! evaluation, plus criterion micro-benchmarks for the performance claims
//! (§3 logging overhead, §5.1 provider filtering, §6.2 predictor cost).
//!
//! ## Figure binaries
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig01_02` | Figures 1–2: GridFTP vs NWS bandwidth series |
//! | `fig03_sample_log` | Figure 3: a sample transfer-log excerpt |
//! | `fig04_predictor_table` | Figure 4: the predictor taxonomy |
//! | `fig06_provider_output` | Figure 6: information-provider LDIF |
//! | `fig07_transfer_counts` | Figure 7: per-class transfer counts |
//! | `fig08_11_error_rates` | Figures 8–11: per-class percent error |
//! | `fig12_13_classification` | Figures 12–13: classification benefit |
//! | `fig14_21_relative` | Figures 14–21: relative best/worst |
//! | `summary_table` | §6.2 headline numbers |
//! | `ablation_windows` | window-choice ablation (§6.2 claim) |
//! | `ablation_classification` | classification-granularity ablation |
//! | `ablation_replica_gain` | broker vs baseline policies |
//! | `ablation_faults` | predictor accuracy on clean vs faulty logs |
//! | `ablation_salvage` | salvaged-log accuracy across corruption rates |
//! | `ablation_tournament` | online tournament vs best fixed predictor |
//! | `ablation_coalloc` | co-allocated top-k retrieval vs single-best, clean and faulty networks |
//! | `ablation_serving` | sharded serving layer vs locked directory under open-loop load |
//!
//! Run any of them with
//! `cargo run --release -p wanpred-bench --bin <name> [-- args]`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use wanpred_testbed::{run_campaign, CampaignConfig, CampaignResult};

/// The default seed used by all figure binaries so their outputs agree
/// with EXPERIMENTS.md.
pub const DEFAULT_SEED: u64 = 42;

/// Run (or re-run) the August campaign with the default seed.
pub fn august_campaign() -> CampaignResult {
    run_campaign(&CampaignConfig::august(DEFAULT_SEED))
}

/// Run the December campaign with the default seed.
pub fn december_campaign() -> CampaignResult {
    run_campaign(&CampaignConfig::december(DEFAULT_SEED))
}

/// Parse `--key value` style arguments (tiny, dependency-free).
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True if `--flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--class", "10mb", "--csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--class").as_deref(), Some("10mb"));
        assert_eq!(arg_value(&args, "--site"), None);
        assert!(has_flag(&args, "--csv"));
        assert!(!has_flag(&args, "--json"));
    }
}

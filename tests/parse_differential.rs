//! The parse hot path's acceptance gate: on real campaign output, the
//! zero-copy decode pipeline must be *byte-identical* to the allocating
//! oracle at every level — records, re-encoded documents, extracted
//! observation series, and full predictor-suite reports.
//!
//! Unit and property tests (`crates/logfmt/tests/proptest_ulm.rs`) cover
//! hostile inputs line by line; this test closes the loop end to end:
//! whatever the simulated GridFTP servers actually write, both paths
//! agree on all of it.

use wanpred_core::logfmt::testing::decode as oracle_decode;
use wanpred_core::logfmt::{SalvageReason, TransferColumns, TransferLog};
use wanpred_core::predict::observations_from_ulm;
use wanpred_core::prelude::*;

fn config(seed: u64, days: u64) -> CampaignConfig {
    CampaignConfig {
        seed: MasterSeed(seed),
        duration: SimDuration::from_days(days),
        probes: seed % 2 == 0,
        ..CampaignConfig::august(seed)
    }
}

/// Parse `doc` with the allocating oracle decoder, line by line.
fn oracle_parse(doc: &str) -> TransferLog {
    let mut log = TransferLog::new();
    for line in doc.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        log.append(oracle_decode(t).expect("campaign output is well-formed"));
    }
    log
}

#[test]
fn campaign_documents_parse_identically_on_both_paths() {
    for seed in [42u64, 77] {
        let result = run_campaign(&config(seed, 2));
        for pair in Pair::ALL {
            let doc = result.log(pair).to_ulm_string();

            let oracle = oracle_parse(&doc);
            let rows = TransferLog::from_ulm_str(&doc).expect("borrowed path parses");
            let cols = TransferColumns::from_ulm_str(&doc).expect("columnar path parses");

            assert_eq!(
                oracle, rows,
                "seed {seed} {pair:?}: row-wise parse diverged"
            );
            assert_eq!(
                oracle,
                cols.to_log(),
                "seed {seed} {pair:?}: columnar parse diverged"
            );
            // Re-encoding is byte-identical too, so the paths are
            // interchangeable anywhere in a load/store cycle.
            assert_eq!(oracle.to_ulm_string(), doc);
            assert_eq!(cols.to_log().to_ulm_string(), doc);
        }
    }
}

#[test]
fn observation_ingest_matches_log_extraction_on_campaign_output() {
    let result = run_campaign(&config(42, 2));
    for pair in Pair::ALL {
        let log = result.log(pair);
        let doc = log.to_ulm_string();
        let direct = observations_from_ulm(&doc).expect("campaign output parses");
        let via_log = observations_from_log(&oracle_parse(&doc));
        assert_eq!(direct, via_log, "{pair:?}: ingest paths diverged");
        assert_eq!(direct.len(), log.len());
    }
}

#[test]
fn evaluation_reports_are_identical_through_either_ingest() {
    let result = run_campaign(&config(42, 2));
    let eval = Evaluation::builder().build();
    for pair in Pair::ALL {
        let doc = result.log(pair).to_ulm_string();
        let via_log = eval.run_log(&oracle_parse(&doc));
        let via_ulm = eval.run_ulm(&doc).expect("campaign output parses");
        // Byte-identical reports, predictor by predictor: serialize both
        // and compare the JSON so every outcome float is covered.
        let a = serde_json::to_string(&via_log).expect("serialize");
        let b = serde_json::to_string(&via_ulm).expect("serialize");
        assert_eq!(a, b, "{pair:?}: evaluation reports diverged");
    }
}

#[test]
fn salvage_quarantines_identically_after_corruption() {
    // Chaos-corrupted campaign output exercises the decoders' error
    // paths; the salvage layer (which now decodes borrowed) must keep
    // and quarantine exactly what a per-line oracle walk would.
    let result = run_campaign(&config(42, 2).with_chaos(0.08));
    for pair in Pair::ALL {
        let report = result.salvage(pair).expect("chaos was enabled");
        let salvaged = result.log(pair);
        assert_eq!(report.kept, salvaged.len());
        // Every quarantined parse failure must also fail the oracle,
        // with the same rendered reason.
        for q in &report.quarantined {
            if let SalvageReason::Parse(reason) = &q.reason {
                let (content, _) = wanpred_core::logfmt::check_line(&q.content);
                match oracle_decode(content) {
                    Err(e) => assert_eq!(&e.to_string(), reason, "{pair:?} line {}", q.line),
                    Ok(_) => panic!(
                        "{pair:?} line {}: quarantined as parse failure but oracle accepts: {}",
                        q.line, q.content
                    ),
                }
            }
        }
    }
}

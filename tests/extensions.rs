//! Integration tests for the beyond-the-paper extensions: the rotating
//! log writer on real campaign logs.

use wanpred_core::logfmt::{RotatingLogWriter, RotationConfig};
use wanpred_core::prelude::*;

fn campaign(days: u64) -> CampaignResult {
    run_campaign(&CampaignConfig {
        seed: MasterSeed(321),
        duration: SimDuration::from_days(days),
        probes: false,
        ..CampaignConfig::august(321)
    })
}

#[test]
fn rotating_writer_handles_a_campaign_log() {
    let r = campaign(5);
    let dir = std::env::temp_dir().join(format!("wanpred-ext-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut w = RotatingLogWriter::open(
        dir.join("transfers.ulm"),
        RotationConfig::with_max_entries(40),
    )
    .unwrap();
    for rec in r.lbl_log.records() {
        w.append(rec).unwrap();
    }
    let n = r.lbl_log.len();
    assert_eq!(w.segments(), n / 40);
    // Full reload equals the original log.
    let all = w.load_all().unwrap();
    assert_eq!(all.len(), n);
    assert_eq!(all.records(), r.lbl_log.records());
    // Active window holds the most recent remainder — the NetLogger
    // restart view a predictor would consume.
    let active = w.load_active().unwrap();
    assert_eq!(active.len(), n % 40);
    std::fs::remove_dir_all(&dir).ok();
}

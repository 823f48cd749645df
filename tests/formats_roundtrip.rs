//! Wire/disk format integration: ULM logs and LDIF entries round-trip
//! on real campaign data.

use wanpred_core::infod::{Entry, GridFtpPerfProvider, ProviderConfig};
use wanpred_core::prelude::*;

fn short_campaign() -> CampaignResult {
    run_campaign(&CampaignConfig {
        seed: MasterSeed(77),
        duration: SimDuration::from_days(2),
        probes: false,
        ..CampaignConfig::august(77)
    })
}

#[test]
fn every_campaign_record_roundtrips_through_ulm() {
    let r = short_campaign();
    for log in [&r.lbl_log, &r.isi_log] {
        let doc = log.to_ulm_string();
        let back = TransferLog::from_ulm_str(&doc).unwrap();
        assert_eq!(back.len(), log.len());
        for (a, b) in log.records().iter().zip(back.records()) {
            // The paper's transfer settings (§3, Figure 3): 8 streams,
            // 1 MB buffers, files on the `/home/ftp` volume.
            assert_eq!(a.streams, 8);
            assert_eq!(a.tcp_buffer, 1_000_000);
            assert_eq!(a.volume, "/home/ftp");
            assert_eq!(a.source, b.source);
            assert_eq!(a.file_size, b.file_size);
            assert_eq!(a.start_unix, b.start_unix);
            assert!((a.total_time_s - b.total_time_s).abs() < 0.001);
            assert_eq!(a.streams, b.streams);
        }
        // The paper's size bound holds for every line.
        for line in doc.lines() {
            assert!(line.len() < 512, "{} bytes", line.len());
        }
    }
}

#[test]
fn every_provider_entry_roundtrips_through_ldif() {
    let r = short_campaign();
    let provider = GridFtpPerfProvider::from_snapshot(
        ProviderConfig::new("dpsslx04.lbl.gov", "131.243.2.11"),
        r.lbl_log.clone(),
    );
    for e in provider.build_entries(996_900_000) {
        let text = e.to_ldif();
        let back = Entry::from_ldif(&text).unwrap();
        assert_eq!(back, e, "LDIF roundtrip\n{text}");
    }
}

//! Cross-crate integration: campaign → logs → predictors → information
//! service → replica broker, exercised as one pipeline.

use std::sync::Arc;

use wanpred_core::infod::{
    Dn, Giis, GridFtpPerfProvider, Gris, InquiryRequest, InquiryService, ProviderConfig,
    Registration, Schema,
};
use wanpred_core::prelude::*;
use wanpred_core::testbed::observation_series;

fn campaign(days: u64) -> (CampaignConfig, CampaignResult) {
    let cfg = CampaignConfig {
        seed: MasterSeed(555),
        duration: SimDuration::from_days(days),
        ..CampaignConfig::august(555)
    };
    let r = run_campaign(&cfg);
    (cfg, r)
}

#[test]
fn logs_survive_ulm_disk_roundtrip_and_still_predict() {
    let (_, result) = campaign(3);
    let dir = std::env::temp_dir().join("wanpred-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lbl.ulm");
    result.log(Pair::LblAnl).save_ulm(&path).unwrap();
    let loaded = TransferLog::load_ulm(&path).unwrap();
    assert_eq!(loaded.len(), result.log(Pair::LblAnl).len());

    let reports = Evaluation::builder().build().run_log(&loaded);
    let answered: usize = reports.iter().map(|r| r.outcomes.len()).sum();
    assert!(answered > 0, "predictors ran on reloaded log");
    std::fs::remove_file(&path).ok();
}

#[test]
fn provider_entries_from_campaign_logs_validate_and_answer_queries() {
    let (cfg, result) = campaign(3);
    let now = cfg.epoch_unix + 3 * 86_400;
    let schema = Schema::standard();

    let giis = Giis::new("top");
    for (host, addr, pair) in [
        ("dpsslx04.lbl.gov", "131.243.2.11", Pair::LblAnl),
        ("jet.isi.edu", "128.9.160.11", Pair::IsiAnl),
    ] {
        let provider = GridFtpPerfProvider::from_snapshot(
            ProviderConfig::new(host, addr),
            result.log(pair).clone(),
        );
        for e in provider.build_entries(now) {
            schema.validate(&e).unwrap_or_else(|err| {
                panic!("schema violation for {host}: {err}\n{}", e.to_ldif())
            });
        }
        let mut gris = Gris::new(Dn::parse("o=grid").unwrap());
        gris.register_provider(Box::new(provider));
        giis.register_service(
            Registration {
                id: host.into(),
                ttl_secs: 3_600,
            },
            Arc::new(gris),
            now,
        );
    }

    // The ANL client appears in both sites' published data.
    let req =
        InquiryRequest::parse("(&(objectclass=GridFTPPerfInfo)(cn=140.221.65.69))", now).unwrap();
    let hits = giis.inquire(&req).unwrap().entries;
    assert_eq!(hits.len(), 2, "one perf entry per server");
    for h in &hits {
        let avg: f64 = h.get("avgrdbandwidth").unwrap().parse().unwrap();
        assert!(avg > 500.0, "plausible KB/s: {avg}");
    }
}

#[test]
fn framework_selects_a_replica_consistent_with_published_predictions() {
    let (cfg, result) = campaign(5);
    let now = cfg.epoch_unix + 5 * 86_400;

    let mut fw = PredictiveFramework::new();
    fw.publish_server_log(
        "dpsslx04.lbl.gov",
        "131.243.2.11",
        result.log(Pair::LblAnl).clone(),
        now,
    );
    fw.publish_server_log(
        "jet.isi.edu",
        "128.9.160.11",
        result.log(Pair::IsiAnl).clone(),
        now,
    );
    for host in ["dpsslx04.lbl.gov", "jet.isi.edu"] {
        fw.register_replica(
            "lfn://x/1GB",
            PhysicalReplica {
                host: host.into(),
                path: "/home/ftp/vazhkuda/1GB".into(),
                size: 1_024_000_000,
            },
        )
        .unwrap();
    }
    let sel = fw
        .select_replica("140.221.65.69", "lfn://x/1GB", now)
        .unwrap();
    // Both candidates informed; the chosen one has the max prediction.
    let preds: Vec<f64> = sel
        .scores
        .iter()
        .map(|s| s.predicted_kbs.unwrap())
        .collect();
    let max = preds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(sel.scores[sel.chosen].predicted_kbs.unwrap(), max);

    // Baseline policies pick too, without information requirements.
    for mut policy in [
        SelectionPolicy::random(1),
        SelectionPolicy::round_robin(),
        SelectionPolicy::first_listed(),
    ] {
        let s = fw
            .select_replica_with("140.221.65.69", "lfn://x/1GB", &mut policy, now)
            .unwrap();
        assert!(s.chosen < 2);
    }
}

#[test]
fn nws_probes_and_gridftp_disagree_as_in_figures_1_and_2() {
    let (_, result) = campaign(3);
    for pair in Pair::ALL {
        let s = fig01_02(&result, pair);
        let nws_max = s.nws.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        let ftp: Vec<f64> = s.gridftp.iter().map(|&(_, v)| v).collect();
        let ftp_max = ftp.iter().copied().fold(0.0f64, f64::max);
        let ftp_min = ftp.iter().copied().fold(f64::INFINITY, f64::min);
        // The paper's qualitative claims:
        assert!(nws_max < 0.3, "NWS stays under 0.3 MB/s ({nws_max})");
        assert!(ftp_max > 5.0, "GridFTP reaches multi-MB/s ({ftp_max})");
        assert!(
            ftp_max / ftp_min > 2.0,
            "GridFTP shows real spread ({ftp_min}..{ftp_max})"
        );
    }
}

#[test]
fn tournament_streams_campaign_logs() {
    let (cfg, result) = campaign(3);
    let obs = observation_series(&result, Pair::IsiAnl);
    let mut t = Tournament::with_default_suite(TournamentOptions::default());
    for o in &obs {
        t.observe(*o);
    }
    assert_eq!(t.observed(), obs.len());
    let (used, pred) = t
        .predict(cfg.epoch_unix + 4 * 86_400, 500 * PAPER_MB)
        .expect("enough history");
    assert!(!used.is_empty());
    assert!(pred > 0.0 && pred.is_finite());
}

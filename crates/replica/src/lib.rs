//! # wanpred-replica
//!
//! Replica selection — the application the paper's predictive framework
//! serves (§1): a [`catalog::ReplicaCatalog`] resolving logical files to
//! physical copies, a [`broker::Broker`] ranking the copies by the
//! predicted transfer bandwidth published through the information
//! service, baseline [`policy::SelectionPolicy`]s (random, round-robin,
//! first-listed) for the ablation benches, and a
//! [`coalloc::Coallocator`] that closes the loop: it stripes one file
//! across the broker's top-k sources, monitors each stripe against its
//! prediction, and re-plans the remaining byte range of a degraded or
//! dead source onto the survivors without re-fetching a byte.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod broker;
pub mod catalog;
pub mod coalloc;
pub mod policy;

pub use broker::{
    Broker, FallbackRung, GiisPerfSource, NoPerfInfo, PerfEstimate, PerfInfoSource,
    ProbeForecastSource, ProbeForecastTable, ReplicaScore, Selection, TopKSelection,
    DEFAULT_STALENESS_HALF_LIFE_SECS,
};
pub use catalog::{PhysicalReplica, ReplicaCatalog, ReplicaError};
pub use coalloc::{
    plan_chunks, CoallocEvent, CoallocPolicy, CoallocRequest, CoallocSource, Coallocator,
    CompletedCoalloc, FailedCoalloc, StripeReport,
};
pub use policy::SelectionPolicy;

#[cfg(test)]
mod integration_tests {
    //! End-to-end: logs -> provider -> GRIS -> GIIS -> broker.

    use std::sync::Arc;

    use wanpred_infod::{Dn, Giis, GridFtpPerfProvider, Gris, ProviderConfig, Registration};
    use wanpred_logfmt::{Operation, TransferLog, TransferRecordBuilder};

    use crate::*;

    fn log_with_bandwidth(client: &str, host: &str, kbs: f64) -> TransferLog {
        let mut log = TransferLog::new();
        // 30 records of ~kbs KB/s for 100MB-class files.
        for i in 0..30u64 {
            let secs = 102_400_000.0 / (kbs * 1_000.0);
            log.append(
                TransferRecordBuilder::new()
                    .source(client)
                    .host(host)
                    .file_name("/home/ftp/vazhkuda/100MB")
                    .file_size(102_400_000)
                    .volume("/home/ftp")
                    .start_unix(1_000_000 + i * 3_600)
                    .end_unix(1_000_000 + i * 3_600 + secs as u64)
                    .total_time_s(secs)
                    .streams(8)
                    .tcp_buffer(1_000_000)
                    .operation(Operation::Read)
                    .build()
                    .unwrap(),
            );
        }
        log
    }

    fn gris_for(host: &str, client: &str, kbs: f64) -> Arc<Gris> {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(GridFtpPerfProvider::from_snapshot(
            ProviderConfig::new(host, "0.0.0.0"),
            log_with_bandwidth(client, host, kbs),
        )));
        Arc::new(g)
    }

    #[test]
    fn broker_selects_the_faster_site_end_to_end() {
        let client = "140.221.65.69";
        let giis = Arc::new(Giis::new("top"));
        for (host, kbs) in [("dpsslx04.lbl.gov", 7_500.0), ("jet.isi.edu", 3_000.0)] {
            giis.register_service(
                Registration {
                    id: host.to_string(),
                    ttl_secs: 3_600,
                },
                gris_for(host, client, kbs),
                1_200_000,
            );
        }

        let mut catalog = ReplicaCatalog::new();
        for host in ["jet.isi.edu", "dpsslx04.lbl.gov"] {
            catalog
                .register(
                    "lfn://exp/100MB",
                    PhysicalReplica {
                        host: host.into(),
                        path: "/home/ftp/vazhkuda/100MB".into(),
                        size: 102_400_000,
                    },
                )
                .unwrap();
        }

        let mut broker = Broker::new(GiisPerfSource::new(giis));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let reps = catalog.lookup("lfn://exp/100MB").unwrap();
        let sel = broker
            .select(client, reps, &mut policy, 1_200_000)
            .expect("candidates exist");
        assert_eq!(sel.replica().host, "dpsslx04.lbl.gov");
        // Both candidates were scored with real numbers.
        assert!(sel.scores.iter().all(|s| s.predicted_kbs.is_some()));
        let lbl = sel
            .scores
            .iter()
            .find(|s| s.replica.host == "dpsslx04.lbl.gov")
            .unwrap();
        assert!((lbl.predicted_kbs.unwrap() - 7_500.0).abs() < 100.0);
    }

    #[test]
    fn unknown_client_gets_no_predictions_but_a_choice() {
        let giis = Arc::new(Giis::new("top"));
        giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 3_600,
            },
            gris_for("dpsslx04.lbl.gov", "140.221.65.69", 5_000.0),
            0,
        );
        let mut broker = Broker::new(GiisPerfSource::new(giis));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let reps = vec![PhysicalReplica {
            host: "dpsslx04.lbl.gov".into(),
            path: "/f".into(),
            size: 1,
        }];
        let sel = broker
            .select("10.0.0.1", &reps, &mut policy, 10)
            .expect("candidates exist");
        assert_eq!(sel.chosen, 0);
        assert!(sel.scores[0].predicted_kbs.is_none());
    }

    #[test]
    fn failing_provider_degrades_to_stale_then_probe_forecast() {
        // A GRIS whose provider reads a log *file*: once warm, delete the
        // file — refreshes fail, the GRIS serves stale-stamped entries,
        // and the broker keeps selecting (with decayed ranking). A second
        // site with no information at all is covered by the probe rung.
        let client = "140.221.65.69";
        let dir = std::env::temp_dir().join(format!("wanpred-degraded-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lbl.ulm");
        log_with_bandwidth(client, "dpsslx04.lbl.gov", 7_500.0)
            .save_ulm_checksummed(&path)
            .unwrap();

        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(GridFtpPerfProvider::from_file(
            ProviderConfig::new("dpsslx04.lbl.gov", "0.0.0.0"),
            &path,
        )));
        let giis = Arc::new(Giis::new("top"));
        giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 1_000_000,
            },
            Arc::new(g),
            1_200_000,
        );

        let mut probes = ProbeForecastTable::new();
        probes.set(client, "jet.isi.edu", 2_000.0);
        let mut broker = Broker::new(GiisPerfSource::new(giis)).with_probe_source(Box::new(probes));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let reps = vec![
            PhysicalReplica {
                host: "dpsslx04.lbl.gov".into(),
                path: "/home/ftp/vazhkuda/100MB".into(),
                size: 102_400_000,
            },
            PhysicalReplica {
                host: "jet.isi.edu".into(),
                path: "/home/ftp/vazhkuda/100MB".into(),
                size: 102_400_000,
            },
        ];

        // Warm: fresh information wins outright.
        let warm = broker
            .select(client, &reps, &mut policy, 1_200_000)
            .expect("candidates exist");
        assert_eq!(warm.replica().host, "dpsslx04.lbl.gov");
        assert_eq!(warm.scores[0].staleness_secs, 0);

        // Kill the log; past the provider TTL the refresh fails and the
        // cached entries come back stale-stamped — but a selection is
        // still made, never a panic.
        std::fs::remove_file(&path).unwrap();
        let later = 1_200_000 + 120;
        let degraded = broker
            .select(client, &reps, &mut policy, later)
            .expect("degraded mode still selects");
        assert!(degraded.degraded());
        assert_eq!(degraded.replica().host, "dpsslx04.lbl.gov");
        let lbl = &degraded.scores[0];
        assert_eq!(lbl.staleness_secs, 120);
        assert!(lbl.effective_kbs.unwrap() < lbl.predicted_kbs.unwrap());
        assert_eq!(degraded.scores[1].rung, Some(FallbackRung::ProbeForecast));
        std::fs::remove_dir_all(&dir).ok();
    }
}

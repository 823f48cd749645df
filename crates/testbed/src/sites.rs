//! The simulated ANL–ISI–LBL testbed (§6).
//!
//! Three sites joined by two wide-area paths, calibrated so that tuned
//! 8-stream GridFTP transfers see 1.5–10.2 MB/s end-to-end with heavy
//! diurnal and bursty variation, while untuned 64 KB NWS probes sit below
//! 0.3 MB/s — the Figures 1–2 regime. Calibration values (link capacity,
//! RTTs, background-weight ranges) are documented inline and checked by
//! this module's tests.

use wanpred_gridftp::{ServerConfig, TransferManager};
use wanpred_simnet::load::{DiurnalProfile, LoadModelConfig};
use wanpred_simnet::network::Network;
use wanpred_simnet::rng::MasterSeed;
use wanpred_simnet::time::SimDuration;
use wanpred_simnet::topology::{LinkId, NodeId, Topology};
use wanpred_storage::StorageServer;

/// One testbed site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// Short label ("anl", "lbl", "isi").
    pub label: String,
    /// Fully qualified host name.
    pub host: String,
    /// IPv4 address string used in logs.
    pub address: String,
}

/// The built testbed.
pub struct Testbed {
    /// The network (consumed by `Engine::new`).
    pub network: Network,
    /// ANL node (the client in the paper's experiments).
    pub anl: NodeId,
    /// LBL node (server).
    pub lbl: NodeId,
    /// ISI node (server).
    pub isi: NodeId,
    /// Forward links (server → ANL), for tracing: `[lbl→anl, isi→anl]`.
    pub data_links: [LinkId; 2],
    /// Site descriptions keyed like the node fields.
    pub sites: [SiteSpec; 3],
}

/// Capacity of each wide-area path: 100 Mb/s = 12.5 MB/s of usable
/// bottleneck bandwidth (ESnet-era OC-3/OC-12 paths throttled by campus
/// links).
pub const WAN_CAPACITY_BPS: f64 = 12.5e6;

/// One-way ANL–LBL delay: 27.5 ms (55 ms RTT).
pub const ANL_LBL_DELAY_US: u64 = 27_500;

/// One-way ANL–ISI delay: 31 ms (62 ms RTT).
pub const ANL_ISI_DELAY_US: u64 = 31_000;

/// Background-load configuration used on the WAN links.
///
/// With 8-stream foreground weight and 12.5 MB/s capacity, the share is
/// `12.5 * 8 / (8 + W)` MB/s: `W = 2` (quiet night) gives 10 MB/s, the
/// diurnal peak `W ≈ 18` gives 3.8 MB/s, and burst stacks pushing
/// `W > 50` give the 1.5 MB/s floor seen in Figures 1–2.
///
/// `mean_weight` sets the diurnal mean: the two testbed paths are given
/// slightly different means (real paths are never statistically
/// identical), which is what gives the replica broker something to
/// exploit.
pub fn wan_load_config(phase_hours: u64, mean_weight: f64) -> LoadModelConfig {
    LoadModelConfig {
        diurnal_mean_weight: mean_weight,
        profile: DiurnalProfile::business_hours(),
        phase: SimDuration::from_hours(phase_hours),
        walk_sigma: 0.35,
        walk_revert: 0.06,
        burst_mean_interarrival: SimDuration::from_mins(35),
        burst_alpha: 1.25,
        burst_min: SimDuration::from_secs(45),
        burst_max: SimDuration::from_hours(5),
        burst_weight: 9.0,
        tick: SimDuration::from_secs(60),
    }
}

/// Quiet (cross-traffic-free) variant for deterministic tests.
pub fn quiet_load_config() -> LoadModelConfig {
    LoadModelConfig {
        diurnal_mean_weight: 0.0,
        walk_sigma: 0.0,
        burst_weight: 0.0,
        ..LoadModelConfig::default()
    }
}

/// The three sites.
pub fn paper_sites() -> [SiteSpec; 3] {
    [
        SiteSpec {
            label: "anl".into(),
            host: "pitcairn.mcs.anl.gov".into(),
            address: "140.221.65.69".into(),
        },
        SiteSpec {
            label: "lbl".into(),
            host: "dpsslx04.lbl.gov".into(),
            address: "131.243.2.11".into(),
        },
        SiteSpec {
            label: "isi".into(),
            host: "jet.isi.edu".into(),
            address: "128.9.160.11".into(),
        },
    ]
}

/// Build the testbed network. `quiet` disables cross traffic (tests).
pub fn build_testbed(seed: MasterSeed, quiet: bool) -> Testbed {
    let mut topo = Topology::new();
    let sites = paper_sites();
    let [site_anl, site_lbl, site_isi] = &sites;
    let anl = topo.add_node(site_anl.host.clone());
    let lbl = topo.add_node(site_lbl.host.clone());
    let isi = topo.add_node(site_isi.host.clone());

    let (anl_lbl, lbl_anl) = topo
        .add_duplex_link(
            "anl-lbl",
            anl,
            lbl,
            WAN_CAPACITY_BPS,
            SimDuration::from_micros(ANL_LBL_DELAY_US),
        )
        .expect("nodes exist");
    let (anl_isi, isi_anl) = topo
        .add_duplex_link(
            "anl-isi",
            anl,
            isi,
            WAN_CAPACITY_BPS,
            SimDuration::from_micros(ANL_ISI_DELAY_US),
        )
        .expect("nodes exist");

    topo.add_route(anl, lbl, vec![anl_lbl]).expect("contiguous");
    topo.add_route(lbl, anl, vec![lbl_anl]).expect("contiguous");
    topo.add_route(anl, isi, vec![anl_isi]).expect("contiguous");
    topo.add_route(isi, anl, vec![isi_anl]).expect("contiguous");
    // Inter-server routes go through ANL (star topology, as ESnet hubs
    // effectively did for these sites).
    topo.add_route(lbl, isi, vec![lbl_anl, anl_isi])
        .expect("contiguous");
    topo.add_route(isi, lbl, vec![isi_anl, anl_lbl])
        .expect("contiguous");

    // Link order of creation: anl->lbl, lbl->anl, anl->isi, isi->anl.
    // ISI's profile is phase-shifted by two hours (Pacific vs Central-ish
    // skew) and carries a somewhat heavier mean load, so the two paths
    // decorrelate and genuinely differ — the premise of replica selection.
    let cfgs = if quiet {
        vec![quiet_load_config(); 4]
    } else {
        vec![
            wan_load_config(0, 10.0),
            wan_load_config(0, 10.0),
            wan_load_config(2, 13.0),
            wan_load_config(2, 13.0),
        ]
    };
    let network = Network::new(topo, cfgs, seed);
    Testbed {
        network,
        anl,
        lbl,
        isi,
        data_links: [lbl_anl, isi_anl],
        sites,
    }
}

impl Testbed {
    /// Build the transfer manager with servers at LBL and ISI and the
    /// ANL client registered, file sets populated, logs mapped to
    /// `epoch_unix`.
    pub fn build_manager(&self, epoch_unix: u64) -> TransferManager {
        let mut mgr = TransferManager::new(epoch_unix);
        let [anl_site, lbl_site, isi_site] = self.sites.clone();
        mgr.add_host(self.anl, anl_site.host, anl_site.address);
        mgr.add_server(
            self.lbl,
            ServerConfig::new(lbl_site.host.clone(), lbl_site.address.clone()),
            StorageServer::vintage_with_paper_fileset("lbl-disk"),
        );
        mgr.add_server(
            self.isi,
            ServerConfig::new(isi_site.host.clone(), isi_site.address.clone()),
            StorageServer::vintage_with_paper_fileset("isi-disk"),
        );
        mgr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_shape() {
        let tb = build_testbed(MasterSeed(1), true);
        let topo = tb.network.topology();
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 4);
        // RTTs match the calibration constants.
        let rtt_lbl = topo.rtt(tb.anl, tb.lbl).unwrap();
        assert_eq!(rtt_lbl.as_micros(), 2 * ANL_LBL_DELAY_US);
        let rtt_isi = topo.rtt(tb.anl, tb.isi).unwrap();
        assert_eq!(rtt_isi.as_micros(), 2 * ANL_ISI_DELAY_US);
        // Server-to-server goes via ANL.
        let rtt_cross = topo.rtt(tb.lbl, tb.isi).unwrap();
        assert_eq!(
            rtt_cross.as_micros(),
            2 * (ANL_LBL_DELAY_US + ANL_ISI_DELAY_US)
        );
        assert_eq!(
            topo.bottleneck_bps(tb.lbl, tb.anl).unwrap(),
            WAN_CAPACITY_BPS
        );
    }

    #[test]
    fn manager_has_both_servers_and_filesets() {
        let tb = build_testbed(MasterSeed(1), true);
        let mgr = tb.build_manager(996_642_000);
        for node in [tb.lbl, tb.isi] {
            let storage = mgr.storage(node).expect("server registered");
            assert_eq!(storage.catalog().len(), 13);
            assert!(storage.catalog().lookup("/home/ftp/vazhkuda/1GB").is_ok());
        }
        assert!(mgr.storage(tb.anl).is_none(), "ANL is a plain client");
    }

    #[test]
    fn share_calibration_bounds() {
        // The analytic share formula behind the calibration comment.
        let share = |w: f64| WAN_CAPACITY_BPS * 8.0 / (8.0 + w) / 1e6;
        assert!((share(2.0) - 10.0).abs() < 0.1);
        assert!(share(18.0) < 4.0);
        assert!(share(50.0) < 1.8);
    }

    #[test]
    fn untuned_probe_ceiling() {
        // 16 KB window over 55 ms RTT: < 0.3 MB/s, the NWS ceiling.
        let ceiling = 16_384.0 / 0.055 / 1e6;
        assert!(ceiling < 0.3, "{ceiling}");
    }
}

//! `paper_pipeline`: the whole paper pipeline at paper scale, closed
//! loop, one thread.
//!
//! One pass is one trip through every layer: two 14-day campaigns on
//! the three-site testbed (clean; faulty with retries and two-way
//! co-allocation) → checksummed ULM → salvage and column parse →
//! predictor suite and tournament → provider → GRIS → sharded server →
//! inquiries and broker selections. It is the only workload in which
//! every layer runs, at the scale the paper measured (at most three
//! concurrent flows, ~420-record histories), so it gives each layer's
//! share of the real pipeline and guards the layers the other three
//! bypass (gridftp retry, co-allocation, ULM encode).

use std::sync::Arc;
use std::time::Instant;

use wanpred_gridftp::RetryPolicy;
use wanpred_infod::{GridFtpPerfProvider, ProviderConfig, ServeConfig, ShardedServer};
use wanpred_logfmt::{TransferColumns, TransferLog};
use wanpred_obs::ObsSink;
use wanpred_predict::prelude::*;
use wanpred_replica::{Broker, GiisPerfSource, PhysicalReplica, SelectionPolicy};
use wanpred_simnet::fault::FaultConfig;
use wanpred_testbed::{
    paper_sites, run_campaign, serving_filters, CampaignConfig, CampaignResult, ServingSite,
};

use super::{
    draw_paper_file, entry_set, inquire, release, site_gris, Counts, PassOut, TracedGris,
    TracedServer, Workload,
};
use crate::rng::{sub_seed, Rng};
use crate::stats::median;
use crate::trace::span;

struct Sizes {
    campaign_days: u64,
    inquiries: usize,
    obs_probe_pairs: usize,
}

const FULL: Sizes = Sizes {
    campaign_days: 14,
    inquiries: 200,
    obs_probe_pairs: 8,
};
const SMOKE: Sizes = Sizes {
    campaign_days: 1,
    inquiries: 20,
    obs_probe_pairs: 1,
};

pub struct PaperPipeline {
    seed: u64,
    sizes: Sizes,
    eval: Evaluation,
}

fn clean_config(seed: u64, days: u64, obs: ObsSink) -> CampaignConfig {
    CampaignConfig::builder(seed)
        .duration_days(days)
        .obs(obs)
        .build()
}

fn faulty_config(seed: u64, days: u64, obs: ObsSink) -> CampaignConfig {
    CampaignConfig::builder(seed)
        .duration_days(days)
        .faults(FaultConfig::wan_default())
        .retry(RetryPolicy::wan_default())
        .coalloc(2)
        .obs(obs)
        .build()
}

impl PaperPipeline {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let mut w = PaperPipeline {
            seed,
            sizes: if smoke { SMOKE } else { FULL },
            eval: Evaluation::builder().build(),
        };
        w.pass(u64::MAX);
        w
    }

    /// Encode, salvage, parse, evaluate: one server log through logfmt
    /// and predict. Returns the salvaged log and the tournament's MAPE.
    fn log_through_predict(
        &self,
        log: &TransferLog,
        out: &mut PassOut,
    ) -> (TransferLog, Option<f64>) {
        let doc = span("logfmt.encode", || log.to_ulm_string_checksummed());
        out.add("logfmt.bytes", doc.len() as f64);
        out.digest.str(&doc);
        let (salvaged, report) = span("logfmt.salvage", || TransferLog::salvage_ulm(&doc));
        let cols = span("logfmt.columns", || TransferColumns::from_ulm_str(&doc));
        out.add(
            "logfmt.records_quarantined",
            report.quarantined.len() as f64,
        );
        out.check(
            salvaged.len() == log.len() && report.quarantined.is_empty(),
            "salvage kept every record of a clean log",
        );
        out.check(
            cols.is_ok_and(|c| c.len() == log.len()),
            "column parse kept every record",
        );

        let series = span("predict.observations", || {
            let mut s = observations_from_log(&salvaged);
            sort_by_time(&mut s);
            s
        });
        let reports = span("predict.eval_suite", || self.eval.run(&series));
        for r in &reports {
            out.digest.f64(r.mape().unwrap_or(-1.0));
        }
        let tourn = span("predict.tournament_replay", || {
            replay_tournament(
                &series,
                Tournament::with_default_suite(TournamentOptions::default()),
                &ObsSink::disabled(),
            )
        });
        out.digest.u64(tourn.switches);
        let mape = tourn.report.mape();
        out.digest.f64(mape.unwrap_or(-1.0));
        (salvaged, mape)
    }

    /// Provider → GRIS → sharded server → inquiries and selections over
    /// the two servers' salvaged logs.
    fn serve_and_select(&self, logs: [TransferLog; 2], now: u64, seed: u64, out: &mut PassOut) {
        let [anl, lbl, isi] = paper_sites();
        let sites: Vec<ServingSite> = [lbl, isi]
            .into_iter()
            .zip(logs)
            .map(|(s, log)| ServingSite {
                host: s.host,
                address: s.address,
                log,
            })
            .collect();
        let filters = serving_filters(&sites);
        let server = Arc::new(ShardedServer::new(ServeConfig::default()));
        let mut hosts = Vec::new();
        for s in sites {
            let gris = site_gris(GridFtpPerfProvider::from_snapshot(
                ProviderConfig::new(&s.host, &s.address),
                s.log,
            ));
            server.register_site(s.host.clone(), u64::MAX, Arc::new(TracedGris(gris)), now);
            hosts.push(s.host);
        }
        span("infod.serve.refresh", || server.refresh(now));

        let service = Arc::new(TracedServer(server));
        let mut broker = Broker::new(GiisPerfSource::new(service.clone()));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let mut rng = Rng::new(seed);
        for i in 0..self.sizes.inquiries {
            let t = now + (i / 50) as u64;
            let filter = &filters[rng.below(filters.len())];
            match inquire(&*service, filter, t) {
                Ok(resp) => {
                    out.add("infod.inquiries", 1.0);
                    if resp.provenance.cache == wanpred_infod::CacheStatus::Hit {
                        out.add("infod.cache_hits", 1.0);
                    }
                    for e in entry_set(&resp) {
                        out.digest.str(&e);
                    }
                    release(resp);
                }
                Err(_) => out.check(false, "pool inquiry answered"),
            }
            let (path, size) = draw_paper_file(&mut rng);
            let replicas: Vec<PhysicalReplica> = hosts
                .iter()
                .map(|host| PhysicalReplica {
                    host: host.clone(),
                    path: path.clone(),
                    size,
                })
                .collect();
            let top = span("replica.broker.select", || {
                broker.select_top_k(&anl.address, &replicas, &mut policy, 2, t)
            });
            match top {
                Ok(top) => {
                    out.add("replica.selections", 1.0);
                    if !top.degraded() {
                        out.add("replica.informed", 1.0);
                    }
                    for r in top.replicas() {
                        out.digest.str(&r.host);
                    }
                }
                Err(_) => out.check(false, "broker ranked two candidates"),
            }
        }
    }

    fn account_campaigns(clean: &CampaignResult, faulty: &CampaignResult, out: &mut PassOut) {
        let transfers =
            clean.lbl_log.len() + clean.isi_log.len() + faulty.lbl_log.len() + faulty.isi_log.len();
        out.ops = transfers as u64;
        out.add("gridftp.transfers_completed", transfers as f64);
        out.add(
            "gridftp.transfers_failed",
            (clean.failed_transfers + faulty.failed_transfers) as f64,
        );
        out.add("gridftp.retries", (clean.retries + faulty.retries) as f64);
        out.check(
            clean.submit_errors + faulty.submit_errors == 0,
            "no transfer refused at submit",
        );
        out.check(
            clean.failed_transfers == 0,
            "no failed transfer on a clean network",
        );
        let co = faulty.coalloc.clone().unwrap_or_default();
        out.add("replica.coalloc.completed", co.completed as f64);
        out.add("replica.coalloc.rebalances", co.rebalances as f64);
        out.add("replica.coalloc.bytes_salvaged", co.bytes_salvaged as f64);
        out.add(
            "replica.coalloc.tiling_violations",
            co.tiling_violations as f64,
        );
        // A co-allocated transfer abandoned with no surviving source was
        // attempted, but it is an outcome of the injected faults, not an
        // operation the pipeline got wrong: it is counted for the layer
        // and folded into the digest, not into `failed`.
        out.ops += co.failed as u64;
        out.add("replica.coalloc.failed", co.failed as f64);
        out.check(
            co.tiling_violations == 0,
            "stripes tile every completed file",
        );
        for v in [
            co.completed as u64,
            co.completed_bytes,
            co.failed as u64,
            co.stripes,
            co.rebalances,
            co.bytes_salvaged,
        ] {
            out.digest.u64(v);
        }
    }
}

impl Workload for PaperPipeline {
    fn pass(&mut self, index: u64) -> PassOut {
        let seed = sub_seed(self.seed, "paper_pipeline", index);
        let days = self.sizes.campaign_days;
        let mut out = PassOut::new();
        let t0 = Instant::now();

        let clean = span("testbed.campaign_clean", || {
            run_campaign(&clean_config(seed, days, ObsSink::disabled()))
        });
        let faulty = span("testbed.campaign_faulty_k2", || {
            run_campaign(&faulty_config(seed, days, ObsSink::disabled()))
        });
        Self::account_campaigns(&clean, &faulty, &mut out);

        let (lbl, lbl_mape) = self.log_through_predict(&clean.lbl_log, &mut out);
        let (isi, isi_mape) = self.log_through_predict(&clean.isi_log, &mut out);
        self.log_through_predict(&faulty.lbl_log, &mut out);
        self.log_through_predict(&faulty.isi_log, &mut out);
        // Prediction quality is read off the clean campaign's two pairs,
        // as the paper does: a stripe cut short by a fault logs a
        // near-zero bandwidth, and percentage error against it is noise.
        for m in [lbl_mape, isi_mape].into_iter().flatten() {
            out.add("predict.tournament_mape_sum", m);
            out.add("predict.tournament_mape_n", 1.0);
        }

        let now = clean.epoch_unix + days * 86_400;
        self.serve_and_select([lbl, isi], now, seed, &mut out);

        out.timed_s = t0.elapsed().as_secs_f64();
        out.latencies_ms.push(out.timed_s * 1e3);
        out
    }

    /// `obs.enabled_overhead_frac`: both campaigns with an enabled sink
    /// against the same campaigns with a disabled one, alternating.
    fn layer_probes(&mut self) -> Counts {
        let days = self.sizes.campaign_days;
        let both_campaigns_s = |seed: u64, sink: ObsSink| {
            let t0 = Instant::now();
            std::hint::black_box(run_campaign(&clean_config(seed, days, sink.clone())));
            std::hint::black_box(run_campaign(&faulty_config(seed, days, sink)));
            t0.elapsed().as_secs_f64()
        };
        // The same campaigns back to back, sink off then on: the ratio of
        // a pair is taken in the same machine weather.
        let ratios: Vec<f64> = (0..self.sizes.obs_probe_pairs as u64)
            .map(|i| {
                let seed = sub_seed(self.seed, "obs_probe", i);
                let off = both_campaigns_s(seed, ObsSink::disabled());
                both_campaigns_s(seed, ObsSink::enabled()) / off
            })
            .collect();
        let mut c = Counts::new();
        c.insert("obs.enabled_overhead_frac", median(&ratios) - 1.0);
        c
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("campaign_days", self.sizes.campaign_days),
            ("campaigns_per_pass", 2),
            ("coalloc_k", 2),
            ("inquiries_per_pass", self.sizes.inquiries as u64),
            ("selections_per_pass", self.sizes.inquiries as u64),
            ("obs_probe_pairs", self.sizes.obs_probe_pairs as u64),
        ]
    }
}

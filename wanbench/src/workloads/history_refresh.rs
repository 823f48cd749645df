//! `history_refresh`: the write-heavy use of infod, single thread.
//!
//! Eight sites serve from live shared logs with long histories. Each
//! round, the next batch of records per site arrives as checksummed ULM
//! text, is salvaged, appended to the shared log and shown to the
//! per-pair tournaments; the sharded server is refreshed past the
//! provider TTL, and one inquiry must come back carrying the new
//! `lasttransfertime`. The wait is batch handed over → first answer that
//! reflects it. `infod::provider` (full re-materialise plus a naive
//! replay per endpoint) and `predict` dominate; simnet does nothing. A
//! delta-ingest provider shows here and nowhere else.
//!
//! Every pass replays the same arrivals from the same pre-loaded state,
//! so histories are as long in the last pass as in the first.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use wanpred_infod::{GridFtpPerfProvider, ProviderConfig, ServeConfig, ShardedServer};
use wanpred_logfmt::TransferLog;
use wanpred_obs::ObsSink;
use wanpred_predict::prelude::*;
use wanpred_testbed::serving::SERVING_RECORD_SPACING_SECS as RECORD_SPACING_SECS;
use wanpred_testbed::{serving_sites, ServingSite, SERVING_EPOCH_UNIX};

use super::{
    entry_set, inquire, release, site_gris, Counts, PassOut, TracedGris, TracedServer, Workload,
};
use crate::rng::sub_seed;
use crate::stats::median;
use crate::trace::span;

struct Sizes {
    sites: usize,
    preloaded_records: usize,
    /// Newest pre-loaded records per site the tournaments have seen.
    tournament_warm_records: usize,
    rounds: usize,
    batch: usize,
    /// `(records, repetitions)` of each provider-build probe.
    provider_probes: [(usize, usize); 3],
    /// `(observations, repetitions)` of each tournament-replay probe.
    tournament_probes: [(usize, usize); 2],
}

const FULL: Sizes = Sizes {
    sites: 8,
    preloaded_records: 4_000,
    tournament_warm_records: 500,
    rounds: 5,
    batch: 50,
    provider_probes: [(500, 21), (2_000, 11), (8_000, 5)],
    tournament_probes: [(420, 7), (1_750, 3)],
};
const SMOKE: Sizes = Sizes {
    sites: 3,
    preloaded_records: 200,
    tournament_warm_records: 50,
    rounds: 2,
    batch: 10,
    provider_probes: [(50, 1), (100, 1), (200, 1)],
    tournament_probes: [(30, 1), (60, 1)],
};

struct Site {
    host: String,
    address: String,
    /// The pre-loaded history every pass starts from.
    base: TransferLog,
    /// The live log the site's provider reads.
    shared: Arc<RwLock<TransferLog>>,
    /// Round `r`'s arrivals as checksummed ULM text.
    arrivals: Vec<String>,
}

/// What a pass starts from: a server refreshed at the pre-loaded state
/// and tournaments that have seen the newest pre-loaded records.
struct Live {
    server: Arc<TracedServer>,
    tournaments: PairTournament,
}

pub struct HistoryRefresh {
    seed: u64,
    sizes: Sizes,
    sites: Vec<Site>,
    live: Option<Live>,
}

fn split_site(s: ServingSite, sizes: &Sizes) -> Site {
    let (base, rest) = s.log.records().split_at(sizes.preloaded_records);
    let arrivals = rest
        .chunks(sizes.batch)
        .map(|c| {
            c.iter()
                .cloned()
                .collect::<TransferLog>()
                .to_ulm_string_checksummed()
        })
        .collect();
    let base: TransferLog = base.iter().cloned().collect();
    Site {
        host: s.host,
        address: s.address,
        shared: Arc::new(RwLock::new(base.clone())),
        base,
        arrivals,
    }
}

impl HistoryRefresh {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { SMOKE } else { FULL };
        let total = sizes.preloaded_records + sizes.rounds * sizes.batch;
        let sites = serving_sites(sizes.sites, total, seed)
            .into_iter()
            .map(|s| split_site(s, &sizes))
            .collect();
        let mut w = HistoryRefresh {
            seed,
            sizes,
            sites,
            live: None,
        };
        // Warm-up: one round from the pre-loaded state.
        let mut live = w.reset();
        w.round(0, &mut live, &mut PassOut::new());
        w.live = Some(live);
        w
    }

    /// Inquiry time once `rounds` rounds have arrived: just past the
    /// newest record, and a provider TTL (30 s) and more past the
    /// previous round's.
    fn now_after(&self, rounds: usize) -> u64 {
        let records = self.sizes.preloaded_records + rounds * self.sizes.batch;
        SERVING_EPOCH_UNIX + records as u64 * RECORD_SPACING_SECS
    }

    /// Put logs, server and tournaments back to the pre-loaded state.
    fn reset(&self) -> Live {
        let server = Arc::new(ShardedServer::new(ServeConfig::default()));
        let mut tournaments = PairTournament::new(TournamentOptions::default());
        let now = self.now_after(0);
        for s in &self.sites {
            *s.shared.write() = s.base.clone();
            let gris = site_gris(GridFtpPerfProvider::from_shared(
                ProviderConfig::new(&s.host, &s.address),
                s.shared.clone(),
            ));
            server.register_site(s.host.clone(), u64::MAX, Arc::new(TracedGris(gris)), now);
            let recs = s.base.records();
            let warm = recs.len() - self.sizes.tournament_warm_records.min(recs.len());
            for r in &recs[warm..] {
                tournaments.observe(&r.source, &r.host, Observation::from_record(r));
            }
        }
        server.refresh(now);
        Live {
            server: Arc::new(TracedServer(server)),
            tournaments,
        }
    }

    /// One round: arrivals in, refresh, and the inquiry that must see
    /// them. Returns the wait in milliseconds.
    fn round(&self, r: usize, live: &mut Live, out: &mut PassOut) -> f64 {
        let t0 = Instant::now();
        for s in &self.sites {
            let doc = &s.arrivals[r];
            out.add("logfmt.bytes", doc.len() as f64);
            let (batch, report) = span("logfmt.salvage", || TransferLog::salvage_ulm(doc));
            out.add(
                "logfmt.records_quarantined",
                report.quarantined.len() as f64,
            );
            out.check(
                batch.len() == self.sizes.batch && report.quarantined.is_empty(),
                "salvage kept the whole batch",
            );
            span("logfmt.append", || {
                let mut log = s.shared.write();
                for rec in batch.records() {
                    log.append(rec.clone());
                }
            });
            for rec in batch.records() {
                let o = Observation::from_record(rec);
                span("predict.tournament_observe", || {
                    live.tournaments.observe(&rec.source, &rec.host, o)
                });
            }
            out.ops += batch.len() as u64;
        }

        let now = self.now_after(r + 1);
        span("infod.serve.refresh", || live.server.0.refresh(now));
        let asked = &self.sites[r % self.sites.len()];
        let filter = format!("(&(objectclass=GridFTPPerfInfo)(hostname={}))", asked.host);
        let resp = inquire(&*live.server, &filter, now);
        let wait_ms = t0.elapsed().as_secs_f64() * 1e3;

        match resp {
            Ok(resp) => {
                // Every endpoint that appears in the batch must report
                // its newest record of the batch as the last transfer.
                let log = asked.shared.read();
                let arrived = &log.records()[log.len() - self.sizes.batch..];
                let fresh = !resp.entries.is_empty()
                    && resp.entries.iter().all(|e| {
                        let newest = arrived
                            .iter()
                            .filter(|rec| Some(rec.source.as_str()) == e.get("cn"))
                            .map(|rec| rec.end_unix)
                            .max();
                        match newest {
                            Some(t) => e.get("lasttransfertime") == Some(t.to_string().as_str()),
                            None => true,
                        }
                    });
                if !fresh {
                    out.failed += 1;
                    eprintln!("wanbench: round {r}: answer does not reflect the batch");
                }
                for e in entry_set(&resp) {
                    out.digest.str(&e);
                }
                drop(log);
                release(resp);
            }
            Err(_) => out.check(false, "round inquiry answered"),
        }
        wait_ms
    }
}

impl Workload for HistoryRefresh {
    fn prepare(&mut self, _index: u64) {
        self.live = Some(self.reset());
    }

    fn pass(&mut self, _index: u64) -> PassOut {
        let mut out = PassOut::new();
        let mut live = self.live.take().expect("prepare() ran before the pass");
        for r in 0..self.sizes.rounds {
            let ms = self.round(r, &mut live, &mut out);
            out.latencies_ms.push(ms);
            out.timed_s += ms / 1e3;
        }
        out.digest.u64(live.tournaments.switches());
        out
    }

    /// The provider's and the tournament's cost curves in history
    /// length, each called directly on a one-site synthetic history.
    fn layer_probes(&mut self) -> Counts {
        let mut c = Counts::new();
        let history = |n: usize| {
            serving_sites(1, n, sub_seed(self.seed, "probe", n as u64))
                .pop()
                .expect("one site")
        };
        for ((n, reps), name) in self.sizes.provider_probes.into_iter().zip([
            "infod.provider.build_ms_n500",
            "infod.provider.build_ms_n2000",
            "infod.provider.build_ms_n8000",
        ]) {
            let site = history(n);
            let now = SERVING_EPOCH_UNIX + n as u64 * RECORD_SPACING_SECS;
            let provider = GridFtpPerfProvider::from_snapshot(
                ProviderConfig::new(&site.host, &site.address),
                site.log,
            );
            let ms: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(provider.build_entries(std::hint::black_box(now)));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            c.insert(name, median(&ms));
        }
        for ((n, reps), name) in self.sizes.tournament_probes.into_iter().zip([
            "predict.tournament_us_per_obs_n420",
            "predict.tournament_us_per_obs_n1750",
        ]) {
            let mut series = observations_from_log(&history(n).log);
            sort_by_time(&mut series);
            let us: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(replay_tournament(
                        std::hint::black_box(&series),
                        Tournament::with_default_suite(TournamentOptions::default()),
                        &ObsSink::disabled(),
                    ));
                    t0.elapsed().as_secs_f64() * 1e6 / n as f64
                })
                .collect();
            c.insert(name, median(&us));
        }
        c
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sites", self.sizes.sites as u64),
            (
                "preloaded_records_per_site",
                self.sizes.preloaded_records as u64,
            ),
            (
                "tournament_warm_records_per_site",
                self.sizes.tournament_warm_records as u64,
            ),
            ("rounds_per_pass", self.sizes.rounds as u64),
            ("records_per_site_per_round", self.sizes.batch as u64),
        ]
    }
}

//! Two-week measurement campaigns: the paper's August and December 2001
//! log-collection runs, reproduced end to end.
//!
//! A campaign runs the controlled workload on both site pairs (LBL→ANL
//! and ISI→ANL GETs issued by the ANL client) concurrently with NWS-style
//! probe sensors on the same paths, then extracts the per-server transfer
//! logs and probe series that the figure computations consume.

use std::any::Any;

use rand::rngs::StdRng;
use serde::Serialize;
use wanpred_gridftp::{
    RetryPolicy, TransferEvent, TransferKind, TransferManager, TransferRequest, TransferToken,
};
use wanpred_logfmt::{
    corrupt_doc, salvage_doc, ChaosConfig, SalvageOptions, SalvageReport, TransferLog,
};
use wanpred_nws::{ProbeAgent, ProbeMeasurement};
use wanpred_obs::{names, ObsSink, Snapshot};
use wanpred_predict::{Observation, TournamentOptions};
use wanpred_replica::coalloc::{CoallocEvent, CoallocRequest, CoallocSource, Coallocator};
use wanpred_replica::{Broker, NoPerfInfo, PhysicalReplica, SelectionPolicy};
use wanpred_simnet::engine::{Agent, AgentId, Ctx, Engine, TimerTag};
use wanpred_simnet::fault::{FaultConfig, FaultSchedule};
use wanpred_simnet::flow::{FlowDone, FlowFailed};
use wanpred_simnet::rng::MasterSeed;
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::NodeId;

use crate::sites::{build_testbed, Testbed};
use crate::workload::WorkloadConfig;

/// Which site pair a transfer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pair {
    /// LBL server → ANL client.
    LblAnl,
    /// ISI server → ANL client.
    IsiAnl,
}

impl Pair {
    /// Both pairs.
    pub const ALL: [Pair; 2] = [Pair::LblAnl, Pair::IsiAnl];

    /// Figure label ("LBL-ANL" / "ISI-ANL").
    pub fn label(self) -> &'static str {
        match self {
            Pair::LblAnl => "LBL-ANL",
            Pair::IsiAnl => "ISI-ANL",
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed for every stochastic component.
    pub seed: MasterSeed,
    /// Unix seconds at simulation time zero (local midnight of day one).
    pub epoch_unix: u64,
    /// Campaign length.
    pub duration: SimDuration,
    /// The per-pair workload.
    pub workload: WorkloadConfig,
    /// Whether to run the NWS probe sensors.
    pub probes: bool,
    /// Fault processes injected into the network ([`FaultConfig::none`]
    /// reproduces the original clean campaigns bit for bit).
    pub faults: FaultConfig,
    /// Retry policy installed on the transfer manager; `None` means a
    /// faulted transfer fails on its first connection reset.
    pub retry: Option<RetryPolicy>,
    /// Log-corruption chaos rate. When set, each extracted server log is
    /// serialized with integrity trailers, damaged by the seeded
    /// [`corrupt_doc`] injector at this per-line probability, and decoded
    /// back through the strict salvage path — so the campaign's outputs
    /// exercise exactly what a predictor reading a crash-damaged log would
    /// see. Chaos seeds derive from [`CampaignConfig::seed`].
    pub chaos: Option<f64>,
    /// Run the workload through the co-allocating client instead of the
    /// per-pair loops: each GET is striped across the broker's top-k
    /// sources with mid-stream failover ([`wanpred_replica::Coallocator`]).
    /// `Some(1)` is the single-best baseline — broker-selected source,
    /// no striping, no failover target.
    pub coalloc: Option<usize>,
    /// Observability sink threaded through the engine, transfer manager
    /// and campaign driver. Disabled by default; note that cloning a
    /// config shares the sink's registry with the clone.
    pub obs: ObsSink,
}

impl CampaignConfig {
    /// Start from the August defaults and customize step by step; see
    /// [`CampaignBuilder`]. The month presets [`CampaignConfig::august`]
    /// and [`CampaignConfig::december`] are themselves thin builder
    /// invocations.
    pub fn builder(seed: u64) -> CampaignBuilder {
        CampaignBuilder {
            cfg: CampaignConfig {
                seed: MasterSeed(seed),
                epoch_unix: 996_642_000,
                duration: SimDuration::from_days(14),
                workload: WorkloadConfig::default(),
                probes: true,
                faults: FaultConfig::none(),
                retry: None,
                chaos: None,
                coalloc: None,
                obs: ObsSink::disabled(),
            },
        }
    }

    /// The August 2001 campaign: two weeks from Wed 2001-08-01 00:00 CDT
    /// (Unix 996_642_000).
    pub fn august(seed: u64) -> Self {
        Self::builder(seed).build()
    }

    /// The December 2001 campaign: two weeks from Sat 2001-12-01 00:00
    /// CST (Unix 1_007_186_400).
    pub fn december(seed: u64) -> Self {
        Self::builder(seed).december().build()
    }

    /// Turn on the calibrated unreliable-WAN fault profile together with
    /// the default retry policy, leaving everything else unchanged.
    pub fn with_faults(mut self) -> Self {
        self.faults = FaultConfig::wan_default();
        self.retry = Some(RetryPolicy::wan_default());
        self
    }

    /// Pass the extracted server logs through the corruption-chaos
    /// injector and strict salvage at the given per-line rate.
    pub fn with_chaos(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "chaos rate {rate} not in [0,1]"
        );
        self.chaos = Some(rate);
        self
    }
}

/// Fluent construction of a [`CampaignConfig`], starting from the
/// August preset: `CampaignConfig::builder(seed).december()
/// .duration_days(3).faults(FaultConfig::wan_default()).chaos(0.05)
/// .obs(sink).build()`.
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    cfg: CampaignConfig,
}

impl CampaignBuilder {
    /// Switch to the December 2001 preset: epoch Sat 2001-12-01 00:00
    /// CST, and the campaign seed decorrelated from August's via a
    /// `"december"` child derivation.
    pub fn december(mut self) -> Self {
        self.cfg.seed = self.cfg.seed.child("december");
        self.cfg.epoch_unix = 1_007_186_400;
        self
    }

    /// Campaign length in days (the presets run 14).
    pub fn duration_days(mut self, days: u64) -> Self {
        self.cfg.duration = SimDuration::from_days(days);
        self
    }

    /// Enable or disable the NWS probe sensors.
    pub fn probes(mut self, probes: bool) -> Self {
        self.cfg.probes = probes;
        self
    }

    /// Inject this fault profile into the network. Pairs naturally with
    /// [`retry`](CampaignBuilder::retry); [`FaultConfig::wan_default`]
    /// is the calibrated unreliable-WAN profile.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Install a retry policy on the transfer manager.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = Some(retry);
        self
    }

    /// Corrupt-and-salvage the extracted logs at this per-line rate
    /// (see [`CampaignConfig::with_chaos`]).
    pub fn chaos(mut self, rate: f64) -> Self {
        self.cfg = self.cfg.with_chaos(rate);
        self
    }

    /// Replace the per-pair workload loops with the co-allocating
    /// client: every GET is striped across the broker's top-k predicted
    /// sources, monitored, and rebalanced away from degraded or dead
    /// sources mid-stream. `coalloc(1)` is the single-best baseline.
    pub fn coalloc(mut self, k: usize) -> Self {
        self.cfg.coalloc = Some(k.max(1));
        self
    }

    /// Thread this observability sink through the campaign: the engine,
    /// the transfer manager and the driver all emit into it, and the
    /// final [`CampaignResult::metrics`] snapshot is taken from it.
    pub fn obs(mut self, sink: ObsSink) -> Self {
        self.cfg.obs = sink;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> CampaignConfig {
        self.cfg
    }
}

/// Everything a campaign produces.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignResult {
    /// Unix seconds at simulation time zero.
    pub epoch_unix: u64,
    /// The LBL server's transfer log.
    pub lbl_log: TransferLog,
    /// The ISI server's transfer log.
    pub isi_log: TransferLog,
    /// NWS probe series per pair (empty when probes were disabled).
    pub lbl_probes: Vec<ProbeMeasurement>,
    /// NWS probe series for ISI→ANL.
    pub isi_probes: Vec<ProbeMeasurement>,
    /// Transfers that failed at submit time (should be zero).
    pub submit_errors: usize,
    /// Fault actions scheduled over the campaign (0 on clean runs).
    pub fault_events: usize,
    /// Attempts that failed and were retried under the retry policy.
    pub retries: usize,
    /// Transfers abandoned after exhausting their attempt budget.
    pub failed_transfers: usize,
    /// What the salvage pass kept and quarantined on the LBL log (`None`
    /// unless chaos was enabled).
    pub lbl_salvage: Option<SalvageReport>,
    /// What the salvage pass kept and quarantined on the ISI log.
    pub isi_salvage: Option<SalvageReport>,
    /// Metric snapshot taken from the campaign's [`ObsSink`] after the
    /// run (`None` when the sink was disabled). Seeded-run
    /// deterministic: same seed, same config → byte-identical snapshot
    /// JSON.
    pub metrics: Option<Snapshot>,
    /// Co-allocation summary (`None` unless [`CampaignConfig::coalloc`]
    /// was set).
    pub coalloc: Option<CoallocSummary>,
}

/// What a co-allocated campaign achieved, aggregated over its workload
/// loop. `failed` counts *logical* transfers abandoned with no surviving
/// source — a stripe death that was rebalanced away is recovery, not
/// failure.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct CoallocSummary {
    /// Stripe width requested (1 = single-best baseline).
    pub k: usize,
    /// Logical transfers completed.
    pub completed: usize,
    /// Bytes delivered by completed transfers.
    pub completed_bytes: u64,
    /// Summed submit→finish time of completed transfers (seconds).
    pub completed_time_s: f64,
    /// Logical transfers abandoned (no surviving source).
    pub failed: usize,
    /// Stripes driven across all completed transfers (initial plans plus
    /// rebalance replacements).
    pub stripes: u64,
    /// Mid-stream rebalances (degraded or dead source re-planned).
    pub rebalances: u64,
    /// Bytes banked from demoted/dead stripes instead of re-fetched.
    pub bytes_salvaged: u64,
    /// Completed transfers whose covered ranges failed to tile
    /// `[0, size)` exactly — must be zero; counted, not panicked, so
    /// benches surface it.
    pub tiling_violations: usize,
}

impl CoallocSummary {
    /// Goodput over completed transfers: bytes delivered per second of
    /// transfer wall time (KB/s). Sleep between workload items is
    /// excluded, so striping gains show through the duty cycle.
    pub fn goodput_kbs(&self) -> f64 {
        if self.completed_time_s > 0.0 {
            self.completed_bytes as f64 / self.completed_time_s / 1_000.0
        } else {
            0.0
        }
    }
}

impl CampaignResult {
    /// The transfer log for a pair.
    pub fn log(&self, pair: Pair) -> &TransferLog {
        match pair {
            Pair::LblAnl => &self.lbl_log,
            Pair::IsiAnl => &self.isi_log,
        }
    }

    /// The probe series for a pair.
    pub fn probes(&self, pair: Pair) -> &[ProbeMeasurement] {
        match pair {
            Pair::LblAnl => &self.lbl_probes,
            Pair::IsiAnl => &self.isi_probes,
        }
    }

    /// The salvage report for a pair (`None` unless chaos was enabled).
    pub fn salvage(&self, pair: Pair) -> Option<&SalvageReport> {
        match pair {
            Pair::LblAnl => self.lbl_salvage.as_ref(),
            Pair::IsiAnl => self.isi_salvage.as_ref(),
        }
    }
}

/// At a chaos rate, serialize a log with integrity trailers, damage it
/// with the seeded injector, and decode it back through strict salvage;
/// without one, pass it through.
fn chaos_pass(
    log: TransferLog,
    chaos: Option<f64>,
    seed: u64,
) -> (TransferLog, Option<SalvageReport>) {
    let Some(rate) = chaos else {
        return (log, None);
    };
    let doc = log.to_ulm_string_checksummed();
    let (damaged, _chaos) = corrupt_doc(&doc, &ChaosConfig::new(rate, seed));
    let (log, report) = salvage_doc(&damaged, &SalvageOptions::strict());
    (log, Some(report))
}

struct PairRuntime {
    server: NodeId,
    rng: StdRng,
    outstanding: Option<TransferToken>,
}

/// Workload-loop timer tag in co-allocation mode (the per-pair loops
/// are disabled there, so the small-index namespace is free).
const COALLOC_DRIVER_TAG: TimerTag = 0;

/// Everything the co-allocating workload loop carries: the broker that
/// ranks the two servers before every GET, the co-allocator driving the
/// stripes, and the aggregate summary.
struct CoallocRuntime {
    co: Coallocator,
    broker: Broker<NoPerfInfo>,
    policy: SelectionPolicy,
    rng: StdRng,
    client_addr: String,
    /// Server node ↔ hostname mapping (broker speaks hostnames, the
    /// transfer manager speaks nodes).
    servers: Vec<(NodeId, String)>,
    outstanding: Option<u64>,
    summary: CoallocSummary,
}

/// The workload a campaign drives: one GET loop per pair, or the single
/// co-allocating loop that replaces them (the probes run on both pairs
/// either way).
enum Loops {
    /// Indexed like [`Pair::ALL`]; a loop's index is its timer tag.
    Pairs([PairRuntime; 2]),
    Coalloc(Box<CoallocRuntime>),
}

/// What both kinds of loop share: the embedded transfer manager, the
/// workload they draw from, and the campaign's failure tallies.
struct Driver {
    mgr: TransferManager,
    client: NodeId,
    epoch_unix: u64,
    workload: WorkloadConfig,
    submit_errors: usize,
    retries: usize,
    failed_transfers: usize,
}

/// The campaign driver agent.
struct CampaignAgent {
    driver: Driver,
    loops: Loops,
}

impl Driver {
    /// Draw a sleep from the loop's stream and set its next wake-up,
    /// clamped into the experiment window.
    fn sleep(&self, ctx: &mut Ctx<'_>, rng: &mut StdRng, tag: TimerTag) {
        let delay = self.workload.draw_sleep(rng);
        let wake = self.workload.next_window_start(ctx.now() + delay);
        ctx.set_timer(wake.saturating_since(ctx.now()), tag);
    }

    fn launch_transfer(&mut self, ctx: &mut Ctx<'_>, pairs: &mut [PairRuntime; 2], idx: usize) {
        let p = &mut pairs[idx];
        let (path, _size) = self.workload.draw_file(&mut p.rng);
        let req = TransferRequest {
            client: self.client,
            kind: TransferKind::Get {
                server: p.server,
                path,
            },
            streams: self.workload.streams,
            tcp_buffer: self.workload.tcp_buffer,
            partial: None,
        };
        match self.mgr.submit(ctx, req) {
            Ok(token) => p.outstanding = Some(token),
            Err(_) => {
                self.submit_errors += 1;
                self.sleep(ctx, &mut p.rng, idx as TimerTag);
            }
        }
    }

    /// Free the slot of the pair whose transfer `token` ended, and put
    /// that pair's loop to sleep.
    fn pair_done(&self, ctx: &mut Ctx<'_>, pairs: &mut [PairRuntime; 2], token: TransferToken) {
        if let Some(idx) = pairs.iter().position(|p| p.outstanding == Some(token)) {
            let p = &mut pairs[idx];
            p.outstanding = None;
            self.sleep(ctx, &mut p.rng, idx as TimerTag);
        }
    }

    /// Draw a file, ask the broker for the top-k sources, and start a
    /// co-allocated GET striped across them.
    fn launch_coalloc(&mut self, ctx: &mut Ctx<'_>, rt: &mut CoallocRuntime) {
        let now_unix = self.epoch_unix + ctx.now().as_secs();
        let (path, size) = self.workload.draw_file(&mut rt.rng);
        let replicas: Vec<PhysicalReplica> = rt
            .servers
            .iter()
            .map(|(_, host)| PhysicalReplica {
                host: host.clone(),
                path: path.clone(),
                size,
            })
            .collect();
        let top = rt
            .broker
            .select_top_k(
                &rt.client_addr,
                &replicas,
                &mut rt.policy,
                rt.summary.k,
                now_unix,
            )
            .expect("both servers are candidates");
        let sources: Vec<CoallocSource> = top
            .ranked
            .iter()
            .map(|&i| {
                let score = &top.scores[i];
                let node = rt
                    .servers
                    .iter()
                    .find(|(_, h)| *h == score.replica.host)
                    .expect("broker host maps to a testbed node")
                    .0;
                CoallocSource {
                    node,
                    predicted_kbs: score
                        .effective_kbs
                        .or(score.predicted_kbs)
                        .unwrap_or(1_000.0),
                }
            })
            .collect();
        let req = CoallocRequest {
            client: self.client,
            path,
            sources,
            k: rt.summary.k,
            streams: self.workload.streams,
            tcp_buffer: self.workload.tcp_buffer,
        };
        match rt.co.start(ctx, &mut self.mgr, req) {
            Ok(id) => rt.outstanding = Some(id),
            Err(_) => {
                self.submit_errors += 1;
                self.sleep(ctx, &mut rt.rng, COALLOC_DRIVER_TAG);
            }
        }
    }

    /// Drain the co-allocator's notifications: count whole-transfer
    /// failures and rebalances, and free the workload slot when the
    /// outstanding transfer was abandoned.
    fn drain_coalloc_events(&self, ctx: &mut Ctx<'_>, rt: &mut CoallocRuntime) {
        let mut freed = false;
        for ev in rt.co.take_events() {
            match ev {
                CoallocEvent::Failed(f) => {
                    rt.summary.failed += 1;
                    if rt.outstanding == Some(f.id) {
                        rt.outstanding = None;
                        freed = true;
                    }
                }
                CoallocEvent::Rebalanced { .. } => rt.summary.rebalances += 1,
                CoallocEvent::Demoted { .. }
                | CoallocEvent::Blacklisted { .. }
                | CoallocEvent::Rejoined { .. } => {}
            }
        }
        if freed {
            self.sleep(ctx, &mut rt.rng, COALLOC_DRIVER_TAG);
        }
    }

    /// Drain the manager's recovery notifications: count retries, and
    /// when a transfer is abandoned free its pair's workload slot so the
    /// loop keeps issuing transfers (a dead pair would silently truncate
    /// the log). In co-allocation mode an abandoned stripe is routed to
    /// the co-allocator instead, which rebalances its remaining bytes.
    fn drain_transfer_events(&mut self, ctx: &mut Ctx<'_>, loops: &mut Loops) {
        for ev in self.mgr.take_events() {
            match ev {
                TransferEvent::RetryScheduled { .. } => self.retries += 1,
                TransferEvent::Failed {
                    token,
                    delivered_bytes,
                    ..
                } => {
                    self.failed_transfers += 1;
                    match loops {
                        Loops::Pairs(pairs) => self.pair_done(ctx, pairs, token),
                        Loops::Coalloc(rt) => {
                            rt.co
                                .on_transfer_failed(ctx, &mut self.mgr, token, delivered_bytes);
                        }
                    }
                }
            }
        }
        if let Loops::Coalloc(rt) = loops {
            self.drain_coalloc_events(ctx, rt);
        }
    }
}

impl Agent for CampaignAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let Self { driver: d, loops } = self;
        match loops {
            Loops::Pairs(pairs) => {
                for (idx, p) in pairs.iter_mut().enumerate() {
                    d.sleep(ctx, &mut p.rng, idx as TimerTag);
                }
            }
            Loops::Coalloc(rt) => d.sleep(ctx, &mut rt.rng, COALLOC_DRIVER_TAG),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        let Self { driver: d, loops } = self;
        if d.mgr.on_timer(ctx, tag) {
            d.drain_transfer_events(ctx, loops);
            return;
        }
        match loops {
            Loops::Pairs(pairs) => {
                let idx = tag as usize;
                if pairs.get(idx).is_some_and(|p| p.outstanding.is_none()) {
                    d.launch_transfer(ctx, pairs, idx);
                }
            }
            Loops::Coalloc(rt) => {
                if rt.co.on_timer(ctx, &mut d.mgr, tag) {
                    d.drain_coalloc_events(ctx, rt);
                } else if tag == COALLOC_DRIVER_TAG && rt.outstanding.is_none() {
                    d.launch_coalloc(ctx, rt);
                }
            }
        }
    }

    fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
        let Self { driver: d, loops } = self;
        let Some(c) = d.mgr.on_flow_complete(ctx, &done) else {
            return;
        };
        match loops {
            Loops::Pairs(pairs) => d.pair_done(ctx, pairs, c.token),
            Loops::Coalloc(rt) => {
                // Every delivered stripe is a real observation on its
                // (client, server) path: feed the broker's tournament so
                // later selections learn from this campaign's own data.
                rt.broker.observe_transfer(
                    &rt.client_addr,
                    &c.record.host,
                    Observation {
                        at_unix: c.record.end_unix,
                        bandwidth_kbs: c.bandwidth_kbs,
                        file_size: c.record.file_size,
                        streams: c.record.streams,
                        tcp_buffer: c.record.tcp_buffer,
                    },
                );
                let mut freed = false;
                if let Some(cc) = rt.co.on_transfer_complete(ctx, &c) {
                    if cc.verify_tiling().is_err() {
                        rt.summary.tiling_violations += 1;
                    }
                    rt.summary.completed += 1;
                    rt.summary.completed_bytes += cc.total_bytes;
                    rt.summary.completed_time_s +=
                        cc.finished.saturating_since(cc.submitted).as_secs_f64();
                    rt.summary.stripes += u64::from(cc.stripes);
                    rt.summary.bytes_salvaged += cc.bytes_salvaged;
                    if rt.outstanding == Some(cc.id) {
                        rt.outstanding = None;
                        freed = true;
                    }
                }
                d.drain_coalloc_events(ctx, rt);
                if freed {
                    d.sleep(ctx, &mut rt.rng, COALLOC_DRIVER_TAG);
                }
            }
        }
    }

    fn on_flow_failed(&mut self, ctx: &mut Ctx<'_>, failed: FlowFailed) {
        self.driver.mgr.on_flow_failed(ctx, &failed);
        self.driver.drain_transfer_events(ctx, &mut self.loops);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A campaign in progress. [`Campaign::new`] builds the testbed and every
/// agent, [`Campaign::run_until`] advances the simulation in stages, and
/// [`Campaign::finish`] runs it out to the horizon and extracts the
/// result. [`run_campaign`] is the one-shot form; however the horizon is
/// split into stages, the result and its metric snapshot are the same.
pub struct Campaign {
    cfg: CampaignConfig,
    engine: Engine,
    agent: AgentId,
    /// The probe agents, indexed like [`Pair::ALL`]; `None` without probes.
    probes: Option<[AgentId; 2]>,
    /// The pairs' server nodes, indexed like [`Pair::ALL`].
    servers: [NodeId; 2],
    fault_events: usize,
    horizon: SimTime,
}

impl Campaign {
    /// Build the testbed, the transfer manager, the fault schedule, the
    /// engine and the agents, and open the campaign span at sim time 0.
    pub fn new(cfg: &CampaignConfig) -> Self {
        let testbed = build_testbed(cfg.seed, false);
        let mut mgr = testbed.build_manager(cfg.epoch_unix);
        mgr.set_obs(cfg.obs.clone());
        if let Some(policy) = &cfg.retry {
            mgr.set_retry_policy(policy.clone());
        }
        let Testbed {
            network,
            anl,
            lbl,
            isi,
            sites,
            ..
        } = testbed;
        let servers = [lbl, isi];

        // The schedule is a pure function of (faults, topology, seed,
        // duration): materialize it before the network moves into the engine.
        let schedule =
            FaultSchedule::generate(&cfg.faults, network.topology(), cfg.seed, cfg.duration);

        let [anl_site, lbl_site, isi_site] = &sites;
        let loops = match cfg.coalloc {
            Some(k) => {
                let mut broker = Broker::new(NoPerfInfo)
                    .with_tournament(TournamentOptions::default())
                    .with_static_kbs(lbl_site.host.clone(), 5_000.0)
                    .with_static_kbs(isi_site.host.clone(), 5_000.0);
                broker.set_obs(cfg.obs.clone());
                let mut co = Coallocator::new();
                co.set_obs(cfg.obs.clone());
                Loops::Coalloc(Box::new(CoallocRuntime {
                    co,
                    broker,
                    policy: SelectionPolicy::predicted_bandwidth(),
                    rng: cfg.seed.derive("workload.coalloc"),
                    client_addr: anl_site.address.clone(),
                    servers: vec![(lbl, lbl_site.host.clone()), (isi, isi_site.host.clone())],
                    outstanding: None,
                    summary: CoallocSummary {
                        k: k.max(1),
                        ..CoallocSummary::default()
                    },
                }))
            }
            None => Loops::Pairs([(lbl, "workload.lbl-anl"), (isi, "workload.isi-anl")].map(
                |(server, seed)| PairRuntime {
                    server,
                    rng: cfg.seed.derive(seed),
                    outstanding: None,
                },
            )),
        };

        let mut engine = Engine::new(network);
        engine.set_obs(cfg.obs.clone());
        engine.inject_faults(&schedule);
        let agent = engine.add_agent(Box::new(CampaignAgent {
            driver: Driver {
                mgr,
                client: anl,
                epoch_unix: cfg.epoch_unix,
                workload: cfg.workload.clone(),
                submit_errors: 0,
                retries: 0,
                failed_transfers: 0,
            },
            loops,
        }));
        let probes = cfg.probes.then(|| {
            servers.map(|server| engine.add_agent(Box::new(ProbeAgent::new(server, anl))))
        });

        // The campaign span brackets the whole simulated horizon; transfer
        // and engine spans emitted during the run nest inside it.
        cfg.obs.span_enter(names::CAMPAIGN_RUN, 0);
        Campaign {
            cfg: cfg.clone(),
            engine,
            agent,
            probes,
            servers,
            fault_events: schedule.len(),
            horizon: SimTime::ZERO + cfg.duration,
        }
    }

    /// Advance the simulation to `min(t, horizon)`, events at that
    /// instant included. A `t` the campaign has already reached
    /// processes nothing.
    pub fn run_until(&mut self, t: SimTime) {
        self.engine.run_until(t.min(self.horizon));
    }

    /// Run to the horizon, close the campaign span, and extract the probe
    /// series, the server logs (through chaos salvage when
    /// [`CampaignConfig::chaos`] is set), the counters and the snapshot.
    pub fn finish(mut self) -> CampaignResult {
        self.run_until(self.horizon);
        let (cfg, obs) = (&self.cfg, &self.cfg.obs);
        obs.span_exit(names::CAMPAIGN_RUN, cfg.duration.as_micros());

        let agent = self
            .engine
            .agent::<CampaignAgent>(self.agent)
            .expect("campaign agent");
        let d = &agent.driver;
        let [(lbl_log, lbl_salvage, lbl_probes), (isi_log, isi_salvage, isi_probes)] = Pair::ALL
            .map(|pair| {
                let i = pair as usize;
                let log = d.mgr.server_log(self.servers[i]).cloned();
                // Damage is decorrelated per pair but still a pure function of
                // the campaign seed, so chaotic campaigns replay byte for byte.
                let seed = cfg.seed.derive_seed(["chaos.lbl", "chaos.isi"][i]);
                let (log, salvage) = chaos_pass(log.unwrap_or_default(), cfg.chaos, seed);
                let probes = self.probes.map(|ids| {
                    self.engine
                        .agent::<ProbeAgent>(ids[i])
                        .expect("probe agent")
                        .measurements()
                        .to_vec()
                });
                (log, salvage, probes.unwrap_or_default())
            });
        if obs.is_enabled() {
            obs.inc_by(
                names::CAMPAIGN_TRANSFERS,
                (lbl_log.len() + isi_log.len()) as u64,
            );
            obs.gauge(names::CAMPAIGN_FAULT_EVENTS, self.fault_events as f64);
            for report in [&lbl_salvage, &isi_salvage].into_iter().flatten() {
                obs.inc_by(names::CAMPAIGN_SALVAGE_KEPT, report.kept as u64);
                obs.inc_by(
                    names::CAMPAIGN_SALVAGE_QUARANTINED,
                    report.quarantined.len() as u64,
                );
            }
        }
        let metrics = obs.is_enabled().then(|| obs.snapshot());
        CampaignResult {
            epoch_unix: cfg.epoch_unix,
            lbl_log,
            isi_log,
            lbl_probes,
            isi_probes,
            submit_errors: d.submit_errors,
            fault_events: self.fault_events,
            retries: d.retries,
            failed_transfers: d.failed_transfers,
            lbl_salvage,
            isi_salvage,
            metrics,
            coalloc: match &agent.loops {
                Loops::Coalloc(rt) => Some(rt.summary.clone()),
                Loops::Pairs(_) => None,
            },
        }
    }
}

/// Run a campaign to completion: the one-shot form of [`Campaign`].
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    Campaign::new(cfg).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanpred_predict::SizeClass;

    fn short_config(days: u64, probes: bool) -> CampaignConfig {
        CampaignConfig {
            seed: MasterSeed(42),
            epoch_unix: 996_642_000,
            duration: SimDuration::from_days(days),
            workload: WorkloadConfig::default(),
            probes,
            faults: FaultConfig::none(),
            retry: None,
            chaos: None,
            coalloc: None,
            obs: ObsSink::disabled(),
        }
    }

    fn short_campaign(days: u64, probes: bool) -> CampaignResult {
        run_campaign(&short_config(days, probes))
    }

    /// An aggressive fault profile so even short test campaigns see kills
    /// land on in-flight transfers.
    fn hostile_faults() -> FaultConfig {
        FaultConfig {
            kill_mean_interarrival: SimDuration::from_mins(40),
            ..FaultConfig::wan_default()
        }
    }

    #[test]
    fn two_day_campaign_produces_windowed_transfers() {
        let r = short_campaign(2, false);
        assert_eq!(r.submit_errors, 0);
        let n_lbl = r.lbl_log.len();
        let n_isi = r.isi_log.len();
        // ~28-ish per pair per day; accept a broad band.
        assert!((20..120).contains(&n_lbl), "lbl count {n_lbl}");
        assert!((20..120).contains(&n_isi), "isi count {n_isi}");
        // Every transfer starts inside the 6pm-8am window.
        for rec in r.lbl_log.records().iter().chain(r.isi_log.records()) {
            let local = rec.start_unix - r.epoch_unix;
            let hour = (local / 3_600) % 24;
            assert!(
                !(8..18).contains(&hour),
                "transfer at local hour {hour} outside the window"
            );
            assert!(rec.validate().is_ok());
        }
    }

    #[test]
    fn bandwidths_in_papers_range_and_size_correlated() {
        let r = short_campaign(4, false);
        let mut small = Vec::new();
        let mut huge = Vec::new();
        for rec in r.lbl_log.records().iter().chain(r.isi_log.records()) {
            let mbs = rec.bandwidth_mbs();
            assert!(
                (0.2..13.0).contains(&mbs),
                "bandwidth {mbs} MB/s out of plausible range ({} bytes)",
                rec.file_size,
            );
            match SizeClass::of_bytes(rec.file_size) {
                SizeClass::C10MB => small.push(mbs),
                SizeClass::C1GB => huge.push(mbs),
                _ => {}
            }
        }
        assert!(!small.is_empty() && !huge.is_empty());
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&huge) > 1.5 * avg(&small),
            "1GB-class {} vs 10MB-class {}",
            avg(&huge),
            avg(&small)
        );
    }

    #[test]
    fn probes_run_continuously() {
        let r = short_campaign(1, true);
        // Every 5 minutes all day: ~288 probes.
        assert!(
            (250..300).contains(&r.lbl_probes.len()),
            "{}",
            r.lbl_probes.len()
        );
        for p in &r.lbl_probes {
            assert!(p.bandwidth_mbs() < 0.3, "{}", p.bandwidth_mbs());
        }
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = short_campaign(1, false);
        let b = short_campaign(1, false);
        assert_eq!(a.lbl_log, b.lbl_log);
        assert_eq!(a.isi_log, b.isi_log);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg_a = CampaignConfig {
            seed: MasterSeed(1),
            ..short_config(1, false)
        };
        let cfg_b = CampaignConfig {
            seed: MasterSeed(2),
            ..cfg_a.clone()
        };
        let a = run_campaign(&cfg_a);
        let b = run_campaign(&cfg_b);
        assert_ne!(a.lbl_log, b.lbl_log);
    }

    #[test]
    fn clean_campaign_reports_no_fault_activity() {
        let r = short_campaign(1, false);
        assert_eq!(r.fault_events, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.failed_transfers, 0);
    }

    #[test]
    fn faulty_campaign_retries_and_stays_deterministic() {
        let cfg = CampaignConfig {
            faults: hostile_faults(),
            retry: Some(RetryPolicy::wan_default()),
            ..short_config(3, false)
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        // Same seed → byte-identical logs and identical recovery counts:
        // the fault schedule, backoff jitter and resumed legs are all pure
        // functions of the seed.
        assert_eq!(a.lbl_log, b.lbl_log);
        assert_eq!(a.isi_log, b.isi_log);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.failed_transfers, b.failed_transfers);
        assert!(a.fault_events > 0);
        assert!(a.retries > 0, "no kill landed on an in-flight transfer");
        // Retried-and-recovered transfers still produce valid ULM records
        // whose total_time_s spans submit → final completion (≥ end-start
        // by construction, and every record validates).
        for rec in a.lbl_log.records().iter().chain(a.isi_log.records()) {
            assert!(rec.validate().is_ok());
        }
        // The faulty log must actually differ from the clean one.
        let clean = run_campaign(&short_config(3, false));
        assert_ne!(clean.lbl_log, a.lbl_log);
    }

    #[test]
    fn faulty_campaign_without_retry_drops_transfers() {
        let cfg = CampaignConfig {
            faults: hostile_faults(),
            retry: None,
            ..short_config(3, false)
        };
        let r = run_campaign(&cfg);
        // First reset abandons the transfer; the workload loop must keep
        // going afterwards (the pair slot is freed on failure).
        assert!(r.failed_transfers > 0);
        assert_eq!(r.retries, 0);
        assert!(r.lbl_log.len() + r.isi_log.len() > 20);
    }

    #[test]
    fn chaotic_campaign_salvages_and_stays_deterministic() {
        let cfg = short_config(3, false).with_chaos(0.3);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        // Same seed → same damage → byte-identical salvaged logs and
        // identical reports.
        assert_eq!(a.lbl_log, b.lbl_log);
        assert_eq!(a.isi_log, b.isi_log);
        assert_eq!(a.lbl_salvage, b.lbl_salvage);
        assert_eq!(a.isi_salvage, b.isi_salvage);
        // At a 30% rate damage certainly landed, and the report's kept
        // count is exactly what the log now holds.
        let s = a.salvage(Pair::LblAnl).unwrap();
        assert!(!s.is_clean());
        assert_eq!(s.kept, a.lbl_log.len());
        assert!(s.recovery_fraction() > 0.4, "{}", s.recovery_fraction());
        // Every salvaged record is one the clean campaign produced, in
        // order: corruption can remove records but never invent them.
        let clean = run_campaign(&short_config(3, false));
        let mut it = clean.lbl_log.records().iter();
        for r in a.lbl_log.records() {
            assert!(it.any(|c| c == r), "salvaged record absent from clean log");
        }
        assert!(a.lbl_log.len() <= clean.lbl_log.len());
    }

    #[test]
    fn zero_rate_chaos_is_lossless() {
        let chaotic = run_campaign(&short_config(1, false).with_chaos(0.0));
        let clean = run_campaign(&short_config(1, false));
        assert_eq!(chaotic.lbl_log, clean.lbl_log);
        assert_eq!(chaotic.isi_log, clean.isi_log);
        let s = chaotic.salvage(Pair::LblAnl).unwrap();
        assert!(s.is_clean());
        assert_eq!(s.kept, clean.lbl_log.len());
        assert!(clean.salvage(Pair::LblAnl).is_none());
    }

    #[test]
    fn august_and_december_presets() {
        let aug = CampaignConfig::august(7);
        let dec = CampaignConfig::december(7);
        assert_eq!(aug.epoch_unix, 996_642_000);
        assert_eq!(dec.epoch_unix, 1_007_186_400);
        assert_ne!(aug.seed.0, dec.seed.0, "campaign seeds must decorrelate");
    }

    #[test]
    fn builder_matches_presets() {
        // The presets are now thin builder wrappers; the builder's defaults
        // must reproduce them field for field.
        let aug = CampaignConfig::builder(7).build();
        assert_eq!(aug.seed, CampaignConfig::august(7).seed);
        assert_eq!(aug.epoch_unix, CampaignConfig::august(7).epoch_unix);
        assert_eq!(aug.duration, CampaignConfig::august(7).duration);
        let dec = CampaignConfig::builder(7).december().build();
        assert_eq!(dec.seed, CampaignConfig::december(7).seed);
        assert_eq!(dec.epoch_unix, CampaignConfig::december(7).epoch_unix);
    }

    #[test]
    fn builder_campaign_equals_struct_campaign() {
        let built = run_campaign(
            &CampaignConfig::builder(42)
                .duration_days(1)
                .probes(false)
                .build(),
        );
        let structed = run_campaign(&short_config(1, false));
        assert_eq!(built.lbl_log, structed.lbl_log);
        assert_eq!(built.isi_log, structed.isi_log);
    }

    #[test]
    fn disabled_obs_yields_no_metrics() {
        let r = short_campaign(1, false);
        assert!(r.metrics.is_none());
    }

    #[test]
    fn enabled_obs_snapshot_counts_transfers() {
        let cfg = CampaignConfig {
            obs: ObsSink::enabled(),
            ..short_config(1, false)
        };
        let r = run_campaign(&cfg);
        let snap = r.metrics.as_ref().expect("obs enabled");
        assert_eq!(
            snap.counter(names::CAMPAIGN_TRANSFERS),
            (r.lbl_log.len() + r.isi_log.len()) as u64
        );
        // The campaign span brackets the run exactly once, for the whole
        // simulated horizon.
        let span = snap.histogram(names::CAMPAIGN_RUN).expect("campaign span");
        assert_eq!(span.count, 1);
        assert_eq!(span.sum, cfg.duration.as_micros());
        // Engine and transfer spans fired inside it.
        assert!(snap.counter(names::SIMNET_ENGINE_EVENTS) > 0);
    }

    #[test]
    fn coalloc_clean_campaign_stripes_and_outpaces_single_best() {
        let k2 = run_campaign(
            &CampaignConfig::builder(42)
                .duration_days(2)
                .probes(false)
                .coalloc(2)
                .build(),
        );
        let k1 = run_campaign(
            &CampaignConfig::builder(42)
                .duration_days(2)
                .probes(false)
                .coalloc(1)
                .build(),
        );
        let (s2, s1) = (k2.coalloc.unwrap(), k1.coalloc.unwrap());
        assert!(s2.completed > 5, "completed {}", s2.completed);
        assert_eq!(s2.failed, 0);
        assert_eq!(s1.failed, 0);
        assert_eq!(s2.rebalances, 0, "clean network never rebalances");
        assert_eq!(s2.tiling_violations, 0);
        assert_eq!(s1.tiling_violations, 0);
        // Under background load the paths are asymmetric (~12 vs ~5
        // MB/s), so the ideal striping gain over single-best is ~1.45x;
        // small files (below the chunk floor) ride one stripe and the
        // first split of each campaign is even until the tournament
        // warms. Demand a clear gap, not the ideal one.
        assert!(
            s2.goodput_kbs() > 1.1 * s1.goodput_kbs(),
            "k=2 {} KB/s vs k=1 {} KB/s",
            s2.goodput_kbs(),
            s1.goodput_kbs()
        );
        // Striped legs land in the ordinary server logs.
        assert!(!k2.lbl_log.is_empty() && !k2.isi_log.is_empty());
    }

    #[test]
    fn coalloc_faulty_campaign_k2_survives_where_k1_fails() {
        // No retry policy: the first kill is the stripe's death, so every
        // fault that lands mid-transfer exercises the failover path.
        let run = |k: usize| {
            run_campaign(
                &CampaignConfig::builder(42)
                    .duration_days(3)
                    .probes(false)
                    .faults(hostile_faults())
                    .coalloc(k)
                    .build(),
            )
            .coalloc
            .unwrap()
        };
        let (s1, s2) = (run(1), run(2));
        // The single-best baseline has no failover target: exhausting
        // the retry budget abandons the transfer. With k=2 the survivor
        // absorbs the dead source's remaining bytes.
        assert!(s1.failed > 0, "hostile faults must kill k=1 transfers");
        assert!(
            s2.failed < s1.failed,
            "k=2 failed {} vs k=1 failed {}",
            s2.failed,
            s1.failed
        );
        assert!(s2.rebalances > 0, "kills must trigger rebalances");
        assert!(s2.bytes_salvaged > 0, "rebalances resume, not restart");
        assert_eq!(s2.tiling_violations, 0, "no byte fetched twice");
        assert!(
            s2.goodput_kbs() > s1.goodput_kbs(),
            "k=2 {} KB/s vs k=1 {} KB/s",
            s2.goodput_kbs(),
            s1.goodput_kbs()
        );
    }

    #[test]
    fn coalloc_faulty_campaign_is_deterministic() {
        let cfg = CampaignConfig::builder(42)
            .duration_days(2)
            .probes(false)
            .faults(hostile_faults())
            .retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::wan_default()
            })
            .coalloc(2)
            .build();
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.coalloc, b.coalloc);
        assert_eq!(a.lbl_log, b.lbl_log);
        assert_eq!(a.isi_log, b.isi_log);
    }

    #[test]
    fn coalloc_obs_counters_match_summary() {
        let cfg = CampaignConfig::builder(42)
            .duration_days(1)
            .probes(false)
            .coalloc(2)
            .obs(ObsSink::enabled())
            .build();
        let r = run_campaign(&cfg);
        let s = r.coalloc.as_ref().unwrap();
        let snap = r.metrics.as_ref().expect("obs enabled");
        assert_eq!(
            snap.counter(names::REPLICA_COALLOC_COMPLETED),
            s.completed as u64
        );
        assert_eq!(
            snap.counter(names::REPLICA_COALLOC_TRANSFERS),
            (s.completed + s.failed) as u64
        );
        assert!(snap.counter(names::REPLICA_BROKER_SELECTIONS) > 0);
    }

    #[test]
    fn obs_campaign_log_identical_to_disabled() {
        // Observability must be read-only: enabling the sink cannot perturb
        // the simulation.
        let with_obs = run_campaign(&CampaignConfig {
            obs: ObsSink::enabled(),
            ..short_config(1, false)
        });
        let without = run_campaign(&short_config(1, false));
        assert_eq!(with_obs.lbl_log, without.lbl_log);
        assert_eq!(with_obs.isi_log, without.isi_log);
    }
}

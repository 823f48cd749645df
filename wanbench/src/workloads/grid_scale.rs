//! `grid_scale`: one engine over a star of 16 GridFTP servers and 16
//! clients, single thread.
//!
//! Every client closed-loop GETs random paper-fileset files (8 streams,
//! 1 MB buffers) from random servers and thinks 1–120 simulated seconds
//! in between, over links of 12.5–50 MB/s with WAN cross traffic, the
//! WAN fault profile and the WAN retry policy. `simnet::network`,
//! `simnet::fair` and `gridftp::transfer` do essentially all the work;
//! predict and infod do none. This is where the per-event max-min
//! re-solve and the per-link load ticks bend the curve, and where a
//! predict or infod change must show nothing.
//!
//! A pass is a fresh engine on its own sub-seed, advanced one simulated
//! hour at a time; the wait a researcher sees is host time per
//! simulated hour.

use std::any::Any;
use std::time::Instant;

use wanpred_gridftp::{
    owns_tag, RetryPolicy, ServerConfig, TransferEvent, TransferKind, TransferManager,
    TransferRequest, TransferToken,
};
use wanpred_simnet::engine::{Agent, Ctx, Engine, TimerTag};
use wanpred_simnet::fair::{self, FairFlow};
use wanpred_simnet::fault::{FaultConfig, FaultSchedule};
use wanpred_simnet::flow::{FlowDone, FlowFailed};
use wanpred_simnet::network::Network;
use wanpred_simnet::rng::MasterSeed;
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::{NodeId, Topology};
use wanpred_storage::StorageServer;
use wanpred_testbed::wan_load_config;

use super::{draw_paper_file, Counts, PassOut, Workload};
use crate::digest::Digest;
use crate::rng::{sub_seed, Rng};
use crate::stats::median;
use crate::trace::span;

/// Unix seconds at simulation time zero (the August campaign's epoch).
const EPOCH_UNIX: u64 = 996_642_000;

struct Sizes {
    /// Servers, and as many clients.
    sites: usize,
    sim_hours: u64,
    /// `(sites, simulated hours)` of each scaling probe.
    probes: [(usize, u64); 3],
    fair_solve_reps: usize,
}

const FULL: Sizes = Sizes {
    sites: 16,
    sim_hours: 2,
    probes: [(4, 48), (16, 6), (32, 2)],
    fair_solve_reps: 400,
};
const SMOKE: Sizes = Sizes {
    sites: 4,
    sim_hours: 2,
    probes: [(2, 1), (3, 1), (4, 1)],
    fair_solve_reps: 10,
};

pub struct GridScale {
    seed: u64,
    sizes: Sizes,
}

struct Client {
    node: NodeId,
    rng: Rng,
    outstanding: Option<TransferToken>,
}

/// The closed-loop client population, with the transfer manager it
/// drives. Every call into the manager is a `gridftp.*` span.
struct GridAgent {
    mgr: TransferManager,
    servers: Vec<NodeId>,
    clients: Vec<Client>,
    completed: u64,
    failed: u64,
    retries: u64,
    submit_errors: u64,
    digest: Digest,
}

impl GridAgent {
    fn think(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let secs = self.clients[idx].rng.range_f64(1.0, 120.0);
        ctx.set_timer(SimDuration::from_secs_f64(secs), idx as TimerTag);
    }

    fn launch(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let c = &mut self.clients[idx];
        let server = self.servers[c.rng.below(self.servers.len())];
        let (path, _) = draw_paper_file(&mut c.rng);
        let req = TransferRequest {
            client: c.node,
            kind: TransferKind::Get { server, path },
            streams: 8,
            tcp_buffer: 1_000_000,
            partial: None,
        };
        match span("gridftp.submit", || self.mgr.submit(ctx, req)) {
            Ok(token) => self.clients[idx].outstanding = Some(token),
            Err(_) => {
                self.submit_errors += 1;
                self.think(ctx, idx);
            }
        }
    }

    fn release(&mut self, ctx: &mut Ctx<'_>, token: TransferToken) {
        if let Some(idx) = self
            .clients
            .iter()
            .position(|c| c.outstanding == Some(token))
        {
            self.clients[idx].outstanding = None;
            self.think(ctx, idx);
        }
    }

    fn drain_events(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.mgr.take_events() {
            match ev {
                TransferEvent::RetryScheduled { .. } => self.retries += 1,
                TransferEvent::Failed { token, .. } => {
                    self.failed += 1;
                    self.release(ctx, token);
                }
            }
        }
    }
}

impl Agent for GridAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for idx in 0..self.clients.len() {
            self.think(ctx, idx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        if owns_tag(tag) {
            span("gridftp.on_timer", || self.mgr.on_timer(ctx, tag));
            self.drain_events(ctx);
        } else if self.clients[tag as usize].outstanding.is_none() {
            self.launch(ctx, tag as usize);
        }
    }

    fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
        let finished = span("gridftp.on_complete", || {
            self.mgr.on_flow_complete(ctx, &done)
        });
        if let Some(c) = finished {
            self.completed += 1;
            self.digest.u64(c.bytes);
            self.digest.u64(c.finished.as_micros());
            self.digest.f64(c.bandwidth_kbs);
            self.release(ctx, c.token);
        }
    }

    fn on_flow_failed(&mut self, ctx: &mut Ctx<'_>, failed: FlowFailed) {
        span("gridftp.on_failed", || {
            self.mgr.on_flow_failed(ctx, &failed)
        });
        self.drain_events(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A star of `n` servers and `n` clients around one hub, every
/// server–client pair routed through it, with its transfer manager.
fn build_star(n: usize, seed: u64) -> (Network, GridAgent) {
    let mut rng = Rng::new(sub_seed(seed, "star", n as u64));
    let mut topo = Topology::new();
    let hub = topo.add_node("hub.grid.test");
    let mut mgr = TransferManager::new(EPOCH_UNIX);
    mgr.set_retry_policy(RetryPolicy::wan_default());
    let mut loads = Vec::new();
    let mut spoke = |topo: &mut Topology, rng: &mut Rng, name: &str| {
        let node = topo.add_node(name);
        let capacity = rng.range_f64(12.5e6, 50e6);
        let delay = SimDuration::from_micros(5_000 + rng.below(35_000) as u64);
        let (up, down) = topo
            .add_duplex_link(name, node, hub, capacity, delay)
            .expect("both nodes exist");
        // One load model per direction, as the network numbers its links.
        for _ in 0..2 {
            loads.push(wan_load_config(
                rng.below(4) as u64,
                rng.range_f64(8.0, 14.0),
            ));
        }
        (node, up, down)
    };
    let mut servers = Vec::new();
    let mut clients = Vec::new();
    for i in 0..n {
        let host = format!("gridftp{i:02}.grid.test");
        let (node, up, down) = spoke(&mut topo, &mut rng, &host);
        mgr.add_server(
            node,
            ServerConfig::new(host, format!("10.1.0.{}", i + 1)),
            StorageServer::vintage_with_paper_fileset(format!("disk{i:02}")),
        );
        servers.push((node, up, down));
    }
    for j in 0..n {
        let host = format!("client{j:02}.grid.test");
        let (node, up, down) = spoke(&mut topo, &mut rng, &host);
        mgr.add_host(node, host, format!("10.2.0.{}", j + 1));
        clients.push((node, up, down));
    }
    for &(s, s_up, s_down) in &servers {
        for &(c, c_up, c_down) in &clients {
            topo.add_route(s, c, vec![s_up, c_down])
                .expect("contiguous");
            topo.add_route(c, s, vec![c_up, s_down])
                .expect("contiguous");
        }
    }
    let agent = GridAgent {
        mgr,
        servers: servers.iter().map(|&(n, ..)| n).collect(),
        clients: clients
            .iter()
            .enumerate()
            .map(|(j, &(node, ..))| Client {
                node,
                rng: Rng::new(sub_seed(seed, "client", j as u64)),
                outstanding: None,
            })
            .collect(),
        completed: 0,
        failed: 0,
        retries: 0,
        submit_errors: 0,
        digest: Digest::new(),
    };
    (Network::new(topo, loads, MasterSeed(seed)), agent)
}

struct SimRun {
    events: u64,
    completed: u64,
    failed: u64,
    retries: u64,
    submit_errors: u64,
    digest: Digest,
    /// Host milliseconds per simulated hour.
    hour_ms: Vec<f64>,
}

/// Run an `n`-site star for `hours` simulated hours, an hour at a time.
fn simulate(n: usize, hours: u64, seed: u64) -> SimRun {
    let (network, agent) = build_star(n, seed);
    let horizon = SimDuration::from_hours(hours);
    let schedule = FaultSchedule::generate(
        &FaultConfig::wan_default(),
        network.topology(),
        MasterSeed(seed),
        horizon,
    );
    let mut engine = Engine::new(network);
    engine.inject_faults(&schedule);
    let id = engine.add_agent(Box::new(agent));
    let mut hour_ms = Vec::with_capacity(hours as usize);
    for h in 1..=hours {
        let t0 = Instant::now();
        span("simnet.run", || {
            engine.run_until(SimTime::from_secs(h * 3_600))
        });
        hour_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let events = engine.events_processed();
    let a = engine.agent::<GridAgent>(id).expect("the only agent");
    SimRun {
        events,
        completed: a.completed,
        failed: a.failed,
        retries: a.retries,
        submit_errors: a.submit_errors,
        digest: a.digest,
        hour_ms,
    }
}

impl GridScale {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let w = GridScale {
            seed,
            sizes: if smoke { SMOKE } else { FULL },
        };
        // Warm-up: the same star for one simulated hour.
        std::hint::black_box(simulate(w.sizes.sites, 1, sub_seed(seed, "warm", 0)).events);
        w
    }
}

impl Workload for GridScale {
    fn pass(&mut self, index: u64) -> PassOut {
        let run = simulate(
            self.sizes.sites,
            self.sizes.sim_hours,
            sub_seed(self.seed, "grid_scale", index),
        );
        let mut out = PassOut::new();
        // A transfer abandoned after its retry budget is an outcome of the
        // injected faults: counted for the layer, not as a failed operation.
        out.ops = run.completed + run.failed + run.submit_errors;
        out.failed = run.submit_errors;
        out.timed_s = run.hour_ms.iter().sum::<f64>() / 1e3;
        out.latencies_ms = run.hour_ms;
        out.digest = run.digest;
        out.digest.u64(run.events);
        out.digest.u64(run.completed);
        out.add("simnet.events", run.events as f64);
        out.add("gridftp.transfers_completed", run.completed as f64);
        out.add("gridftp.transfers_failed", run.failed as f64);
        out.add("gridftp.retries", run.retries as f64);
        out.check(run.completed > 0, "transfers completed");
        out
    }

    /// The scaling curve (`simnet.events_per_s_n*`: the same generator
    /// at 4, 16 and 32 sites) and `fair::solve` called directly.
    fn layer_probes(&mut self) -> Counts {
        let mut c = Counts::new();
        for ((n, hours), name) in self.sizes.probes.into_iter().zip([
            "simnet.events_per_s_n4",
            "simnet.events_per_s_n16",
            "simnet.events_per_s_n32",
        ]) {
            let run = simulate(n, hours, sub_seed(self.seed, "scaling", n as u64));
            c.insert(
                name,
                run.events as f64 / (run.hour_ms.iter().sum::<f64>() / 1e3),
            );
        }

        // 128 flows of 8 streams over 16 links, two links each: the
        // solver's input at the 16-site star's busiest.
        let mut rng = Rng::new(sub_seed(self.seed, "fair", 0));
        let capacity: Vec<f64> = (0..16).map(|_| rng.range_f64(12.5e6, 50e6)).collect();
        let flows: Vec<FairFlow> = (0..128)
            .map(|_| {
                let a = rng.below(16);
                let b = (a + 1 + rng.below(15)) % 16;
                FairFlow {
                    weight: 8.0,
                    cap: rng.range_f64(1e6, 20e6),
                    links: vec![a, b],
                }
            })
            .collect();
        let us: Vec<f64> = (0..self.sizes.fair_solve_reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(fair::solve(
                    std::hint::black_box(&capacity),
                    std::hint::black_box(&flows),
                ));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        c.insert("simnet.fair_solve_us_l16f128", median(&us));
        c
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("servers", self.sizes.sites as u64),
            ("clients", self.sizes.sites as u64),
            ("sim_hours_per_pass", self.sizes.sim_hours),
            ("streams", 8),
            ("tcp_buffer_bytes", 1_000_000),
            ("think_secs_max", 120),
        ]
    }
}

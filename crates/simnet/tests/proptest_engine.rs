//! Property tests for the simulation engine and fluid network: transfers
//! of random sizes/streams/buffers over random link capacities always
//! complete, conserve bytes, and never exceed physical limits — on one
//! duplex link, and on a faulty multi-site star where the fair-share
//! components merge, split and are skipped.

use std::any::Any;

use proptest::prelude::*;
use wanpred_simnet::engine::{Agent, Ctx, Engine, TimerTag};
use wanpred_simnet::fault::{FaultConfig, FaultSchedule};
use wanpred_simnet::flow::{FlowDone, FlowFailed, FlowId, FlowSpec, TcpParams};
use wanpred_simnet::load::LoadModelConfig;
use wanpred_simnet::network::Network;
use wanpred_simnet::rng::MasterSeed;
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::{NodeId, Topology};

/// Starts every spec after its delay; a flow killed by a fault is
/// restarted for the bytes it had not delivered.
struct Spawner {
    specs: Vec<(u64, FlowSpec)>, // (start delay secs, spec)
    /// Every flow started, with the spec it carries.
    started: Vec<(FlowId, FlowSpec)>,
    done: Vec<FlowDone>,
    failed: Vec<FlowFailed>,
}

impl Spawner {
    fn new(specs: Vec<(u64, FlowSpec)>) -> Self {
        Spawner {
            specs,
            started: Vec::new(),
            done: Vec::new(),
            failed: Vec::new(),
        }
    }

    fn start(&mut self, ctx: &mut Ctx<'_>, spec: FlowSpec) {
        let id = ctx.start_flow(spec.clone()).expect("route exists");
        self.started.push((id, spec));
    }

    fn spec_of(&self, id: FlowId) -> &FlowSpec {
        let (_, spec) = self
            .started
            .iter()
            .find(|(f, _)| *f == id)
            .expect("flow was started here");
        spec
    }
}

impl Agent for Spawner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (delay, _)) in self.specs.iter().enumerate() {
            ctx.set_timer(SimDuration::from_secs(*delay), i as TimerTag);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        let spec = self.specs[tag as usize].1.clone();
        self.start(ctx, spec);
    }
    fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_>, done: FlowDone) {
        self.done.push(done);
    }
    fn on_flow_failed(&mut self, ctx: &mut Ctx<'_>, failed: FlowFailed) {
        let mut rest = self.spec_of(failed.id).clone();
        rest.bytes = failed.bytes - failed.delivered_bytes;
        self.failed.push(failed);
        if rest.bytes > 0 {
            self.start(ctx, rest);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn quiet() -> LoadModelConfig {
    LoadModelConfig {
        diurnal_mean_weight: 0.0,
        walk_sigma: 0.0,
        burst_weight: 0.0,
        ..LoadModelConfig::default()
    }
}

#[derive(Debug, Clone)]
enum Shape {
    /// One duplex link, so one fair-share component by construction.
    TwoNodes { capacity: f64, loaded: bool },
    /// Servers and clients on their own spokes around a hub, loaded links,
    /// and a fault schedule with outages, degradations and flow kills.
    Star {
        servers: Vec<f64>,
        clients: Vec<f64>,
    },
}

fn arb_star() -> impl Strategy<Value = Shape> {
    let spokes = || prop::collection::vec(1e6f64..50e6, 3..=4);
    (spokes(), spokes()).prop_map(|(servers, clients)| Shape::Star { servers, clients })
}

/// Faults dense enough to hit transfers that start in the first minute
/// and last seconds, and over early enough for every one of them to
/// finish.
fn star_faults(topo: &Topology, seed: u64) -> FaultSchedule {
    let cfg = FaultConfig {
        outage_mean_interarrival: SimDuration::from_secs(60),
        outage_min: SimDuration::from_secs(2),
        outage_max: SimDuration::from_secs(15),
        degrade_mean_interarrival: SimDuration::from_secs(40),
        degrade_min: SimDuration::from_secs(5),
        degrade_max: SimDuration::from_secs(30),
        degrade_factor_min: 0.05,
        degrade_factor_max: 0.5,
        kill_mean_interarrival: SimDuration::from_secs(40),
    };
    FaultSchedule::generate(&cfg, topo, MasterSeed(seed), SimDuration::from_secs(300))
}

/// The engine over `shape`, and the node pairs its topology routes.
fn build(shape: &Shape, seed: u64) -> (Engine, Vec<(NodeId, NodeId)>) {
    let mut t = Topology::new();
    let delay = SimDuration::from_millis(30);
    match shape {
        Shape::TwoNodes { capacity, loaded } => {
            let a = t.add_node("a");
            let b = t.add_node("b");
            let (f, r) = t
                .add_duplex_link("ab", a, b, *capacity, delay)
                .expect("nodes exist");
            t.add_route(a, b, vec![f]).expect("contiguous");
            t.add_route(b, a, vec![r]).expect("contiguous");
            let cfg = if *loaded {
                LoadModelConfig::default()
            } else {
                quiet()
            };
            let net = Network::with_uniform_load(t, cfg, MasterSeed(seed));
            (Engine::new(net), vec![(a, b)])
        }
        Shape::Star { servers, clients } => {
            let hub = t.add_node("hub");
            let mut spoke = |name: String, capacity: f64| {
                let node = t.add_node(name.as_str());
                let (up, down) = t
                    .add_duplex_link(&name, node, hub, capacity, delay / 2)
                    .expect("nodes exist");
                (node, up, down)
            };
            let servers: Vec<_> = (servers.iter().enumerate())
                .map(|(i, &c)| spoke(format!("s{i}"), c))
                .collect();
            let clients: Vec<_> = (clients.iter().enumerate())
                .map(|(i, &c)| spoke(format!("c{i}"), c))
                .collect();
            let mut pairs = Vec::new();
            for &(s, s_up, s_down) in &servers {
                for &(c, c_up, c_down) in &clients {
                    t.add_route(s, c, vec![s_up, c_down]).expect("contiguous");
                    t.add_route(c, s, vec![c_up, s_down]).expect("contiguous");
                    pairs.extend([(s, c), (c, s)]);
                }
            }
            let faults = star_faults(&t, seed);
            let net = Network::with_uniform_load(t, LoadModelConfig::default(), MasterSeed(seed));
            let mut eng = Engine::new(net);
            eng.inject_faults(&faults);
            (eng, pairs)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every spawned transfer eventually delivers exactly its requested
    /// bytes — across restarts, where faults kill flows — and no flow's
    /// mean rate exceeds the thinnest link of its route.
    #[test]
    fn transfers_complete_and_respect_physics(
        shape in prop_oneof![
            (1e6f64..50e6, any::<bool>())
                .prop_map(|(capacity, loaded)| Shape::TwoNodes { capacity, loaded }),
            arb_star(),
        ],
        seed in 0u64..1_000,
        jobs in prop::collection::vec(
            (0u64..60, 1u64..50_000_000, 1u32..12, 8u64..2_048, 0usize..64), 1..6),
    ) {
        let (mut eng, pairs) = build(&shape, seed);
        let specs: Vec<(u64, FlowSpec)> = jobs
            .iter()
            .map(|&(delay, bytes, streams, buf_kb, pair)| {
                let (from, to) = pairs[pair % pairs.len()];
                let tcp = TcpParams {
                    buffer_bytes: buf_kb * 1024,
                    init_window: 2 * 1460,
                    mss: 1460,
                };
                (delay, FlowSpec::new(from, to, bytes, streams, tcp))
            })
            .collect();
        let id = eng.add_agent(Box::new(Spawner::new(specs)));
        // Generous horizon: smallest share is capacity/(12 jobs + load).
        eng.run_until(SimTime::from_secs(800_000));
        let agent = eng.agent::<Spawner>(id).expect("registered");
        prop_assert_eq!(eng.network().active_flows(), 0, "all transfers complete");
        prop_assert_eq!(agent.done.len() + agent.failed.len(), agent.started.len());
        if matches!(shape, Shape::TwoNodes { .. }) {
            prop_assert!(agent.failed.is_empty(), "no faults were injected");
        }
        let mut total: u64 = 0;
        for d in &agent.done {
            total += d.bytes;
            let spec = agent.spec_of(d.id);
            prop_assert_eq!(d.bytes, spec.bytes);
            // Mean rate bounded by the route's bottleneck (fluid model: no
            // overshoot) with small tolerance for the microsecond grid.
            let capacity = eng
                .network()
                .topology()
                .bottleneck_bps(spec.from, spec.to)
                .expect("routed");
            prop_assert!(
                d.mean_rate <= capacity * 1.001 + 1.0,
                "rate {} over capacity {}",
                d.mean_rate,
                capacity
            );
        }
        for f in &agent.failed {
            prop_assert!(f.delivered_bytes <= f.bytes);
            total += f.delivered_bytes;
        }
        prop_assert_eq!(total, jobs.iter().map(|j| j.1).sum::<u64>());
    }

    /// The engine clock is monotone across completions and resumable
    /// horizons never lose events.
    #[test]
    fn staged_horizons_equal_single_run(
        shape in prop_oneof![
            Just(Shape::TwoNodes { capacity: 8e6, loaded: true }),
            arb_star(),
        ],
        seed in 0u64..200,
        jobs in prop::collection::vec((0u64..40, 1u64..40_000_000, 0usize..64), 1..4),
    ) {
        let build = || {
            let (mut eng, pairs) = build(&shape, seed);
            let specs: Vec<(u64, FlowSpec)> = jobs
                .iter()
                .map(|&(d, bytes, pair)| {
                    let (from, to) = pairs[pair % pairs.len()];
                    (d, FlowSpec::new(from, to, bytes, 4, TcpParams::tuned_1mb()))
                })
                .collect();
            let id = eng.add_agent(Box::new(Spawner::new(specs)));
            (eng, id)
        };
        let (mut one, id1) = build();
        one.run_until(SimTime::from_secs(50_000));
        let (mut staged, id2) = build();
        // Most boundaries fall while transfers and faults are in progress.
        for secs in [3, 11, 24, 38, 61, 95, 160, 400, 1_300, 50_000] {
            staged.run_until(SimTime::from_secs(secs));
        }
        let a = one.agent::<Spawner>(id1).expect("agent");
        let b = staged.agent::<Spawner>(id2).expect("agent");
        prop_assert_eq!(a.done.len(), b.done.len());
        for (x, y) in a.done.iter().zip(&b.done) {
            prop_assert_eq!(x.finished, y.finished);
            prop_assert_eq!(x.bytes, y.bytes);
        }
        prop_assert_eq!(a.failed.len(), b.failed.len());
        for (x, y) in a.failed.iter().zip(&b.failed) {
            prop_assert_eq!(x.failed, y.failed);
            prop_assert_eq!(x.delivered_bytes, y.delivered_bytes);
        }
        prop_assert_eq!(one.events_processed(), staged.events_processed());
    }
}

//! The discrete-event engine and agent model.
//!
//! Simulation logic lives in **agents** (workload drivers, servers,
//! probes). Agents react to three stimuli — simulation start, timers they
//! set, and completions of flows they started — and act through the
//! [`Ctx`] handle (set timers, start/abort flows, adjust caps). The engine
//! interleaves agent events with the fluid network's internally generated
//! events (background-load ticks, TCP slow-start window ramps, flow
//! completions) in global timestamp order.
//!
//! Determinism: ties in the event queue are broken by insertion sequence,
//! all randomness is owned by the agents/models themselves, and the fluid
//! network integrates exactly between events, so a run is a pure function
//! of `(topology, load configs, agents, seed)`.
//!
//! Idle simulated time costs nothing: the load tick is queued only while
//! some flow is active (a tick that finds none is dropped, and the next
//! flow start queues one at the next grid instant), and an injected fault
//! schedule is fed to the queue one action at a time.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wanpred_obs::{names, ObsSink};

use crate::fault::{FaultAction, FaultSchedule, TimedFault};
use crate::flow::{FlowDone, FlowFailed, FlowId, FlowSpec};
use crate::index::VecMap;
use crate::network::Network;
use crate::time::{SimDuration, SimTime};
use crate::topology::TopologyError;

/// Identifier of an agent registered with the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

/// A caller-chosen tag distinguishing an agent's timers.
pub type TimerTag = u64;

/// Behaviour plugged into the engine.
///
/// All methods have empty defaults so simple agents implement only what
/// they need.
pub trait Agent {
    /// Called once when the simulation starts (time zero) or, for agents
    /// added mid-run, never — add agents before calling [`Engine::run_until`].
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: TimerTag) {}

    /// A flow started through [`Ctx::start_flow`] finished draining.
    fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_>, _done: FlowDone) {}

    /// A flow started through [`Ctx::start_flow`] was torn down by an
    /// injected fault (connection reset) before completing. The default
    /// ignores the event — the flow is simply gone.
    fn on_flow_failed(&mut self, _ctx: &mut Ctx<'_>, _failed: FlowFailed) {}

    /// Downcasting support so drivers can retrieve results after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    LoadTick,
    Timer {
        agent: AgentId,
        tag: TimerTag,
    },
    Ramp {
        flow: FlowId,
    },
    /// The next action of injected schedule `schedule`.
    Fault {
        schedule: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The handle through which an agent acts on the simulation.
pub struct Ctx<'a> {
    now: SimTime,
    agent: AgentId,
    network: &'a mut Network,
    queue: &'a mut BinaryHeap<Reverse<Event>>,
    seq: &'a mut u64,
    flow_owner: &'a mut VecMap<FlowId, AgentId>,
    tick_armed: &'a mut bool,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the agent being dispatched.
    pub fn agent_id(&self) -> AgentId {
        self.agent
    }

    /// Read access to the network (topology, flows).
    pub fn network(&self) -> &Network {
        self.network
    }

    /// Arrange for [`Agent::on_timer`] to fire after `delay` with `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        let ev = Event {
            at: self.now + delay,
            seq: bump(self.seq),
            kind: EventKind::Timer {
                agent: self.agent,
                tag,
            },
        };
        self.queue.push(Reverse(ev));
    }

    /// Start a flow owned by this agent; slow-start window-ramp events are
    /// scheduled automatically, one per RTT, until the window saturates,
    /// and the load tick is queued at the next grid instant if none is.
    /// Completion is delivered to [`Agent::on_flow_complete`].
    pub fn start_flow(&mut self, spec: FlowSpec) -> Result<FlowId, TopologyError> {
        let id = self.network.start_flow(spec, self.now)?;
        if !*self.tick_armed {
            *self.tick_armed = true;
            let ev = Event {
                at: self.network.next_load_tick(self.now),
                seq: bump(self.seq),
                kind: EventKind::LoadTick,
            };
            self.queue.push(Reverse(ev));
        }
        let flow = self.network.flow(id).expect("just started");
        let rtt = flow.rtt;
        let steps = flow.ramp_steps();
        for k in 1..=steps {
            let ev = Event {
                at: self.now + rtt * u64::from(k),
                seq: bump(self.seq),
                kind: EventKind::Ramp { flow: id },
            };
            self.queue.push(Reverse(ev));
        }
        self.flow_owner.insert(id, self.agent);
        Ok(id)
    }

    /// Sample the delivered fraction of an in-flight flow without
    /// disturbing it (progress monitoring). Integrates the fluid model to
    /// the current time first, so the answer is exact at `now`. Returns
    /// `None` if the flow already finished.
    pub fn flow_progress(&mut self, id: FlowId) -> Option<f64> {
        self.network.flow_progress(id, self.now)
    }

    /// Abort one of this agent's flows; returns delivered fraction, or
    /// `None` if the flow already finished.
    pub fn abort_flow(&mut self, id: FlowId) -> Option<f64> {
        self.flow_owner.remove(&id);
        self.network.abort_flow(id, self.now)
    }

    /// Update the external (storage) rate cap on a flow.
    pub fn set_external_cap(&mut self, id: FlowId, cap: f64) {
        self.network.set_external_cap(id, cap, self.now);
    }
}

fn bump(seq: &mut u64) -> u64 {
    let s = *seq;
    *seq += 1;
    s
}

/// Per-`run_until` metric buffer: the event loop tallies into plain
/// integers and vecs, and one batched flush pays the sink's mutex once.
#[derive(Default)]
struct RunTally {
    events: u64,
    flows_completed: u64,
    load_ticks: u64,
    timers: u64,
    faults: u64,
    solves: u64,
    flows_solved: u64,
    flow_durations: Vec<u64>,
    flow_bytes: Vec<u64>,
}

impl RunTally {
    fn flush(&mut self, obs: &ObsSink) {
        obs.inc_by(names::SIMNET_ENGINE_EVENTS, self.events);
        obs.inc_by(names::SIMNET_FLOWS_COMPLETED, self.flows_completed);
        obs.inc_by(names::SIMNET_ENGINE_LOAD_TICKS, self.load_ticks);
        obs.inc_by(names::SIMNET_ENGINE_TIMERS, self.timers);
        obs.inc_by(names::SIMNET_ENGINE_FAULTS, self.faults);
        obs.inc_by(names::SIMNET_NETWORK_SOLVES, self.solves);
        obs.inc_by(names::SIMNET_NETWORK_FLOWS_SOLVED, self.flows_solved);
        obs.observe_many(names::SIMNET_FLOW_DURATION_US, &self.flow_durations);
        obs.observe_many(names::SIMNET_FLOW_BYTES, &self.flow_bytes);
    }
}

/// An injected fault schedule and how far the queue has been fed from it:
/// action `k` carries sequence number `first_seq + k`, assigned at
/// injection, so the queue orders it as if every action had been pushed
/// then.
struct FaultCursor {
    events: Vec<TimedFault>,
    first_seq: u64,
    next: usize,
}

impl FaultCursor {
    /// The next action of schedule number `schedule` as a queue event.
    fn next_event(&self, schedule: usize) -> Option<Event> {
        let fault = self.events.get(self.next)?;
        Some(Event {
            at: fault.at,
            seq: self.first_seq + self.next as u64,
            kind: EventKind::Fault { schedule },
        })
    }
}

/// The simulation engine.
pub struct Engine {
    time: SimTime,
    network: Network,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// A load tick is queued: some flow started since the last tick that
    /// found none active.
    tick_armed: bool,
    faults: Vec<FaultCursor>,
    agents: Vec<Option<Box<dyn Agent>>>,
    /// Flow ids are handed out monotonically, so admission appends.
    flow_owner: VecMap<FlowId, AgentId>,
    started: bool,
    events_processed: u64,
    obs: ObsSink,
}

impl Engine {
    /// Create an engine over a network. No background-load tick is queued
    /// until the first flow starts.
    pub fn new(network: Network) -> Self {
        Engine {
            time: SimTime::ZERO,
            network,
            queue: BinaryHeap::new(),
            seq: 0,
            tick_armed: false,
            faults: Vec::new(),
            agents: Vec::new(),
            flow_owner: VecMap::new(),
            started: false,
            events_processed: 0,
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink. Scheduler-loop counters and flow
    /// outcome histograms are emitted through it; the default null sink
    /// makes each emission a single branch.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Register an agent. Must be called before the first `run_until`.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        assert!(!self.started, "add agents before running");
        let id = AgentId(self.agents.len());
        self.agents.push(Some(agent));
        id
    }

    /// Inject a fault schedule: every action is queued at its scheduled
    /// time and applied to the network (outages, degradations) or to the
    /// affected flows' owners (kills) as the run reaches it. May be
    /// called multiple times; schedules accumulate. Must be called
    /// before the events' times are reached to take effect.
    pub fn inject_faults(&mut self, schedule: &FaultSchedule) {
        let cursor = FaultCursor {
            events: schedule.events().to_vec(),
            first_seq: self.seq,
            next: 0,
        };
        self.seq += cursor.events.len() as u64;
        if let Some(ev) = cursor.next_event(self.faults.len()) {
            self.queue.push(Reverse(ev));
        }
        self.faults.push(cursor);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Read access to the network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Total events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Borrow a registered agent, downcast to its concrete type.
    pub fn agent<T: Agent + 'static>(&self, id: AgentId) -> Option<&T> {
        self.agents
            .get(id.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow a registered agent, downcast to its concrete type.
    pub fn agent_mut<T: Agent + 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        self.agents
            .get_mut(id.0)?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Run the simulation until `until` (inclusive of events at `until`).
    /// May be called repeatedly to advance in stages.
    pub fn run_until(&mut self, until: SimTime) {
        if !self.started {
            self.started = true;
            for i in 0..self.agents.len() {
                self.dispatch(AgentId(i), Dispatch::Start);
            }
        }
        // Hot-loop metrics are buffered locally and flushed in one batch
        // after the loop: a mutex acquisition per event would dominate the
        // sink's cost budget. Counters and histograms merge commutatively,
        // so deferred emission cannot change the exported snapshot.
        let mut tally = RunTally::default();
        let (solves, flows_solved) = (self.network.solves(), self.network.flows_solved());
        loop {
            self.network.resolve();
            let next_event = self.queue.peek().map(|Reverse(e)| e.at);
            let next_done = self.network.next_completion();

            // Pick whichever happens first; events win ties so that load
            // ticks and ramps at time T are reflected in completions at T.
            let done_first = match (next_event, &next_done) {
                (Some(ev), Some((eta, _))) => eta < &ev,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };

            if done_first {
                let (eta, id) = next_done.expect("checked above");
                if eta > until {
                    break;
                }
                self.time = eta;
                let done = self.network.finish_flow(id, eta);
                self.events_processed += 1;
                tally.events += 1;
                tally.flows_completed += 1;
                if self.obs.is_enabled() {
                    tally
                        .flow_durations
                        .push(done.finished.saturating_since(done.started).as_micros());
                    tally.flow_bytes.push(done.bytes);
                }
                let owner = self
                    .flow_owner
                    .remove(&id)
                    .expect("completed flow has an owner");
                self.dispatch(owner, Dispatch::FlowDone(done));
            } else {
                let at = next_event.expect("checked above");
                if at > until {
                    break;
                }
                let Reverse(ev) = self.queue.pop().expect("peeked");
                self.time = ev.at;
                self.events_processed += 1;
                tally.events += 1;
                match ev.kind {
                    EventKind::LoadTick if self.network.active_flows() == 0 => {
                        self.tick_armed = false;
                    }
                    EventKind::LoadTick => {
                        tally.load_ticks += 1;
                        self.network.load_tick_to(ev.at);
                        self.queue.push(Reverse(Event {
                            at: self.network.next_load_tick(ev.at),
                            seq: bump(&mut self.seq),
                            kind: EventKind::LoadTick,
                        }));
                    }
                    EventKind::Ramp { flow } => {
                        self.network.ramp_flow_window(flow, ev.at);
                    }
                    EventKind::Timer { agent, tag } => {
                        tally.timers += 1;
                        self.dispatch(agent, Dispatch::Timer(tag));
                    }
                    EventKind::Fault { schedule } => {
                        tally.faults += 1;
                        let cursor = &mut self.faults[schedule];
                        let action = cursor.events[cursor.next].action;
                        cursor.next += 1;
                        if let Some(next) = cursor.next_event(schedule) {
                            self.queue.push(Reverse(next));
                        }
                        self.apply_fault(action, ev.at);
                    }
                }
            }
        }
        if self.obs.is_enabled() {
            tally.solves = self.network.solves() - solves;
            tally.flows_solved = self.network.flows_solved() - flows_solved;
            tally.flush(&self.obs);
        }
        // Settle the clock at the horizon so subsequent stages resume from
        // `until` even if the queue ran dry earlier.
        if self.time < until {
            self.time = until;
        }
    }

    fn apply_fault(&mut self, action: FaultAction, at: SimTime) {
        match action {
            FaultAction::LinkDown(l) => self.network.set_link_outage(l, true, at),
            FaultAction::LinkUp(l) => self.network.set_link_outage(l, false, at),
            FaultAction::DegradeStart(l, f) => self.network.set_link_degradation(l, f, at),
            FaultAction::DegradeEnd(l) => self.network.set_link_degradation(l, 1.0, at),
            FaultAction::KillFlows(l) => {
                // Deterministic victim order: ascending flow id.
                let victims = self.network.flows_on_link(l);
                for id in victims {
                    let Some(failed) = self.network.fail_flow(id, at) else {
                        continue;
                    };
                    self.obs.inc(names::SIMNET_FLOWS_FAILED);
                    if let Some(owner) = self.flow_owner.remove(&id) {
                        self.dispatch(owner, Dispatch::FlowFailed(failed));
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, id: AgentId, what: Dispatch) {
        let mut agent = self.agents[id.0].take().expect("agent re-entered");
        {
            let mut ctx = Ctx {
                now: self.time,
                agent: id,
                network: &mut self.network,
                queue: &mut self.queue,
                seq: &mut self.seq,
                flow_owner: &mut self.flow_owner,
                tick_armed: &mut self.tick_armed,
            };
            match what {
                Dispatch::Start => agent.on_start(&mut ctx),
                Dispatch::Timer(tag) => agent.on_timer(&mut ctx, tag),
                Dispatch::FlowDone(done) => agent.on_flow_complete(&mut ctx, done),
                Dispatch::FlowFailed(failed) => agent.on_flow_failed(&mut ctx, failed),
            }
        }
        self.agents[id.0] = Some(agent);
    }
}

enum Dispatch {
    Start,
    Timer(TimerTag),
    FlowDone(FlowDone),
    FlowFailed(FlowFailed),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::TcpParams;
    use crate::load::LoadModelConfig;
    use crate::rng::MasterSeed;
    use crate::topology::{NodeId, Topology};

    fn quiet_cfg() -> LoadModelConfig {
        LoadModelConfig {
            diurnal_mean_weight: 0.0,
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        }
    }

    fn net(capacity: f64) -> (Network, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (fwd, rev) = t
            .add_duplex_link("ab", a, b, capacity, SimDuration::from_millis(25))
            .unwrap();
        t.add_route(a, b, vec![fwd]).unwrap();
        t.add_route(b, a, vec![rev]).unwrap();
        (
            Network::with_uniform_load(t, quiet_cfg(), MasterSeed(1)),
            a,
            b,
        )
    }

    /// Agent that starts one transfer at t=1s and records the completion.
    struct OneShot {
        from: NodeId,
        to: NodeId,
        bytes: u64,
        tcp: TcpParams,
        done: Option<FlowDone>,
    }

    impl Agent for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: TimerTag) {
            ctx.start_flow(FlowSpec::new(self.from, self.to, self.bytes, 1, self.tcp))
                .unwrap();
        }
        fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_>, done: FlowDone) {
            self.done = Some(done);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// When a one-stream flow alone on a quiet link of `capacity`
    /// finishes, in closed form: each slow-start round's rate is
    /// [`crate::fair::lone_flow_rate`] of its window-limited cap (the queue
    /// factor is 1 with no load), and the bytes drain linearly between the
    /// instants the engine integrates at — the window doublings at
    /// `start + k·rtt` and the load ticks on the grid.
    fn lone_flow_finish(
        start: SimTime,
        bytes: u64,
        tcp: TcpParams,
        capacity: f64,
        rtt: SimDuration,
        grid: SimDuration,
    ) -> SimTime {
        let mut window = tcp.init_window.min(tcp.buffer_bytes).max(tcp.mss);
        let mut remaining = bytes as f64;
        let (mut at, mut doublings) = (start, 0);
        loop {
            let cap = window as f64 / rtt.as_secs_f64();
            let rate = crate::fair::lone_flow_rate(1.0, cap, std::iter::once((capacity, 0.0)));
            let eta = at + SimDuration::from_secs_f64(remaining / rate);
            let g = grid.as_micros();
            let tick = SimTime::from_micros((at.as_micros() / g + 1) * g);
            let ramp = (window < tcp.buffer_bytes).then(|| start + rtt * (doublings + 1));
            let next = ramp.map_or(tick, |r| r.min(tick));
            // Events at an instant come before a completion at it.
            if eta < next {
                return eta;
            }
            remaining = (remaining - rate * (next - at).as_secs_f64()).max(0.0);
            at = next;
            if ramp == Some(next) {
                window = (window * 2).min(tcp.buffer_bytes);
                doublings += 1;
            }
        }
    }

    /// Run [`OneShot`] with `bytes` over an untuned window (16 KB buffer,
    /// 50 ms RTT) on a 100 MB/s quiet link; its completion, and the
    /// closed form's.
    fn one_shot_against_closed_form(bytes: u64) -> (FlowDone, SimTime) {
        let (network, a, b) = net(1e8);
        let rtt = network.topology().rtt(a, b).unwrap();
        let grid = network.load_tick();
        let mut eng = Engine::new(network);
        let tcp = TcpParams::untuned();
        let id = eng.add_agent(Box::new(OneShot {
            from: a,
            to: b,
            bytes,
            tcp,
            done: None,
        }));
        eng.run_until(SimTime::from_secs(600));
        let done = eng.agent::<OneShot>(id).unwrap().done.clone().unwrap();
        assert_eq!(done.bytes, bytes);
        let want = lone_flow_finish(done.started, bytes, tcp, 1e8, rtt, grid);
        (done, want)
    }

    #[test]
    fn one_shot_transfer_completes_with_slow_start() {
        // Windows of 2 920, 5 840 and 11 680 bytes, then 16 384 per RTT:
        // the transfer ends in its sixth round trip, before any load tick.
        let (done, want) = one_shot_against_closed_form(64 * 1024);
        assert_eq!(done.finished, want);
        let rounds = done.finished.saturating_since(done.started).as_secs_f64() / 0.05;
        assert!(rounds > 5.0 && rounds < 6.0, "took {rounds} RTTs");
        // Mean rate well under the fully ramped 320 KB/s ceiling.
        assert!(done.mean_rate < 320_000.0, "rate {}", done.mean_rate);
    }

    #[test]
    fn large_transfer_approaches_window_ceiling() {
        // 32 MB at ~320 KB/s is ~105 s, drained in two pieces either side
        // of the load tick at 60 s; slow start adds little.
        let (done, want) = one_shot_against_closed_form(32 * 1024 * 1024);
        assert_eq!(done.finished, want);
        assert!(
            (done.mean_rate - 320_000.0).abs() < 15_000.0,
            "rate {}",
            done.mean_rate
        );
    }

    /// Agent that fires a sequence of timers and records their times.
    struct TimerChain {
        fired: Vec<(SimTime, TimerTag)>,
    }

    impl Agent for TimerChain {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(5), 1);
            ctx.set_timer(SimDuration::from_secs(2), 2);
            ctx.set_timer(SimDuration::from_secs(2), 3);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
            self.fired.push((ctx.now(), tag));
            if tag == 1 {
                ctx.set_timer(SimDuration::from_secs(1), 4);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let (network, ..) = net(1e6);
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(TimerChain { fired: Vec::new() }));
        eng.run_until(SimTime::from_secs(10));
        let fired = &eng.agent::<TimerChain>(id).unwrap().fired;
        let tags: Vec<TimerTag> = fired.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, vec![2, 3, 1, 4]);
        assert_eq!(fired[0].0, SimTime::from_secs(2));
        assert_eq!(fired[2].0, SimTime::from_secs(5));
        assert_eq!(fired[3].0, SimTime::from_secs(6));
    }

    #[test]
    fn run_until_is_resumable() {
        let (network, ..) = net(1e6);
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(TimerChain { fired: Vec::new() }));
        eng.run_until(SimTime::from_secs(3));
        assert_eq!(eng.agent::<TimerChain>(id).unwrap().fired.len(), 2);
        assert_eq!(eng.now(), SimTime::from_secs(3));
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.agent::<TimerChain>(id).unwrap().fired.len(), 4);
    }

    #[test]
    fn deterministic_replay_of_whole_engine() {
        fn run() -> Vec<(SimTime, TimerTag)> {
            let (network, a, b) = net(5e6);
            let mut eng = Engine::new(network);
            let t1 = eng.add_agent(Box::new(OneShot {
                from: a,
                to: b,
                bytes: 10_000_000,
                tcp: TcpParams::tuned_1mb(),
                done: None,
            }));
            let t2 = eng.add_agent(Box::new(TimerChain { fired: Vec::new() }));
            eng.run_until(SimTime::from_secs(60));
            let mut out = eng.agent::<TimerChain>(t2).unwrap().fired.clone();
            let d = eng.agent::<OneShot>(t1).unwrap().done.clone().unwrap();
            out.push((d.finished, 999));
            out
        }
        assert_eq!(run(), run());
    }

    /// Agent that starts one flow at t=0 and records both outcomes.
    struct Watcher {
        from: NodeId,
        to: NodeId,
        bytes: u64,
        done: Option<FlowDone>,
        failed: Option<FlowFailed>,
    }

    impl Agent for Watcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let tcp = TcpParams {
                buffer_bytes: 1 << 24,
                init_window: 1 << 24,
                mss: 1460,
            };
            ctx.start_flow(FlowSpec::new(self.from, self.to, self.bytes, 1, tcp))
                .unwrap();
        }
        fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_>, done: FlowDone) {
            self.done = Some(done);
        }
        fn on_flow_failed(&mut self, _ctx: &mut Ctx<'_>, failed: FlowFailed) {
            self.failed = Some(failed);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn outage_window_delays_completion() {
        use crate::fault::{FaultAction, FaultSchedule, TimedFault};
        let (network, a, b) = net(1e6);
        let link = network.topology().route(a, b).unwrap().links[0];
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(Watcher {
            from: a,
            to: b,
            bytes: 1_000_000,
            done: None,
            failed: None,
        }));
        // Down for [0.5s, 5.5s]: the 1s transfer stretches to ~6s.
        eng.inject_faults(&FaultSchedule::from_events(vec![
            TimedFault {
                at: SimTime::from_secs_f64(0.5),
                action: FaultAction::LinkDown(link),
            },
            TimedFault {
                at: SimTime::from_secs_f64(5.5),
                action: FaultAction::LinkUp(link),
            },
        ]));
        eng.run_until(SimTime::from_secs(30));
        let done = eng.agent::<Watcher>(id).unwrap().done.clone().unwrap();
        assert!(
            (done.finished.as_secs_f64() - 6.0).abs() < 0.01,
            "finished {}",
            done.finished
        );
    }

    #[test]
    fn kill_dispatches_on_flow_failed() {
        use crate::fault::{FaultAction, FaultSchedule, TimedFault};
        let (network, a, b) = net(1e6);
        let link = network.topology().route(a, b).unwrap().links[0];
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(Watcher {
            from: a,
            to: b,
            bytes: 1_000_000,
            done: None,
            failed: None,
        }));
        eng.inject_faults(&FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs_f64(0.25),
            action: FaultAction::KillFlows(link),
        }]));
        eng.run_until(SimTime::from_secs(30));
        let w = eng.agent::<Watcher>(id).unwrap();
        assert!(w.done.is_none(), "flow must not complete");
        let failed = w.failed.clone().expect("failure delivered");
        assert!((failed.delivered_fraction - 0.25).abs() < 1e-6);
        assert_eq!(failed.failed, SimTime::from_secs_f64(0.25));
        assert_eq!(eng.network().active_flows(), 0);
    }

    #[test]
    fn fault_schedules_apply_in_time_then_injection_order() {
        use crate::fault::{FaultAction, FaultSchedule, TimedFault};
        let (network, a, b) = net(1e6);
        let l = network.topology().route(a, b).unwrap().links[0];
        let mut eng = Engine::new(network);
        let at = |secs, action| TimedFault {
            at: SimTime::from_secs(secs),
            action,
        };
        // Two schedules whose times interleave; at 10 s both degrade the
        // link, and the later injection's action is applied last.
        eng.inject_faults(&FaultSchedule::from_events(vec![
            at(10, FaultAction::DegradeStart(l, 0.5)),
            at(30, FaultAction::DegradeEnd(l)),
            at(50, FaultAction::LinkDown(l)),
            at(60, FaultAction::LinkUp(l)),
        ]));
        eng.inject_faults(&FaultSchedule::from_events(vec![
            at(10, FaultAction::DegradeStart(l, 0.25)),
            at(35, FaultAction::DegradeStart(l, 0.75)),
            at(40, FaultAction::DegradeEnd(l)),
        ]));
        let mut factors = Vec::new();
        for secs in [5, 10, 25, 32, 37, 45, 55, 65] {
            eng.run_until(SimTime::from_secs(secs));
            factors.push(eng.network().link_capacity_factor(l));
        }
        assert_eq!(factors, [1.0, 0.25, 0.25, 1.0, 0.75, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn two_agents_share_the_link() {
        let (network, a, b) = net(2e6);
        let mut eng = Engine::new(network);
        let tcp = TcpParams {
            buffer_bytes: 1 << 24,
            init_window: 1 << 24,
            mss: 1460,
        };
        let mk = |bytes| {
            Box::new(OneShot {
                from: a,
                to: b,
                bytes,
                tcp,
                done: None,
            })
        };
        let i1 = eng.add_agent(mk(2_000_000));
        let i2 = eng.add_agent(mk(2_000_000));
        eng.run_until(SimTime::from_secs(30));
        let d1 = eng.agent::<OneShot>(i1).unwrap().done.clone().unwrap();
        let d2 = eng.agent::<OneShot>(i2).unwrap().done.clone().unwrap();
        // Both start at t=1, share 2 MB/s -> each ~1 MB/s -> done at t=3.
        assert!((d1.finished.as_secs_f64() - 3.0).abs() < 0.01, "{d1:?}");
        assert!((d2.finished.as_secs_f64() - 3.0).abs() < 0.01);
    }

    #[test]
    fn solve_counters_flush_with_each_run() {
        let (network, a, b) = net(2e6);
        let mut eng = Engine::new(network);
        let obs = ObsSink::enabled();
        eng.set_obs(obs.clone());
        for bytes in [2_000_000, 3_000_000] {
            eng.add_agent(Box::new(OneShot {
                from: a,
                to: b,
                bytes,
                tcp: TcpParams::tuned_1mb(),
                done: None,
            }));
        }
        // Two stages, the first ending mid-transfer: the sink holds the
        // network's totals, not one stage's or one stage twice.
        eng.run_until(SimTime::from_secs(2));
        eng.run_until(SimTime::from_secs(30));
        assert_eq!(eng.network().active_flows(), 0);
        let snap = obs.snapshot();
        let solves = snap.counter(names::SIMNET_NETWORK_SOLVES);
        let flows_solved = snap.counter(names::SIMNET_NETWORK_FLOWS_SOLVED);
        assert_eq!(solves, eng.network().solves());
        assert_eq!(flows_solved, eng.network().flows_solved());
        // Both flows share the one link while both are alive.
        assert!(
            solves > 0 && flows_solved > solves,
            "{flows_solved} in {solves}"
        );
    }
}

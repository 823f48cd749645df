//! Network state: active flows over the topology, background load per
//! link, and the fluid rate solution.
//!
//! The [`Network`] owns the topology, one [`LinkLoadModel`] per link, and
//! the set of in-flight flows. Whenever the flow population, a link's
//! state or any background weight changes, the rates of the flows that
//! share capacity with the change are re-solved with the weighted max-min
//! allocator; between changes, flows drain linearly, so the next
//! completion time is exact.
//!
//! ## Component-local re-solve
//!
//! A flow's max-min rate depends only on its **component**: the links
//! reachable from its route by stepping from a link to any flow crossing
//! it and on to that flow's other links, with the flows on them and those
//! links' background load. Every mutator marks the links it touches
//! (`Touched`); [`Network::resolve`] partitions the flow-carrying links
//! into components and hands the solver one sub-problem per component
//! that contains a marked link. The flows of every other component keep
//! their rates, which is exact: a component's rates are a pure function
//! of its own sub-problem, an unmarked component's sub-problem is the one
//! it was last solved with, and flow byte counts are still integrated for
//! every flow at every event.

use crate::fair::Solver;
use crate::flow::{Flow, FlowDone, FlowFailed, FlowId, FlowSpec};
use crate::index::VecMap;
use crate::load::{LinkLoadModel, LoadModelConfig};
use crate::rng::MasterSeed;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, Topology, TopologyError};

/// RTT inflation per unit of competing background weight on the busiest
/// link of a flow's path (queueing delay; see [`Network::resolve`]).
pub const QUEUE_DELAY_PER_WEIGHT: f64 = 0.015;

/// Upper bound on the RTT inflation factor.
pub const QUEUE_FACTOR_MAX: f64 = 2.5;

/// Floor on a link's effective capacity in bytes/sec. The max-min solver
/// requires strictly positive capacities, so an outage clamps the link
/// here instead of zero: flows on it stall (their ETA recedes past any
/// horizon) and recover when the link comes back.
pub const OUTAGE_CAPACITY_FLOOR: f64 = 1e-3;

/// The links whose sub-problem changed since the last resolve.
#[derive(Debug)]
struct Touched {
    marked: Vec<bool>,
    /// Some link is marked: rates are stale and must be re-solved before
    /// use.
    any: bool,
}

impl Touched {
    fn link(&mut self, link: LinkId) {
        self.marked[link.0 as usize] = true;
        self.any = true;
    }

    fn route(&mut self, links: &[LinkId]) {
        for &l in links {
            self.link(l);
        }
    }

    fn all(&mut self) {
        self.marked.fill(true);
        self.any = true;
    }

    fn clear(&mut self) {
        self.marked.fill(false);
        self.any = false;
    }
}

/// Marks a link no flow crosses in [`Partition::parent`].
const NO_FLOW: usize = usize::MAX;

/// [`Network::resolve`]'s scratch for partitioning the flow-carrying
/// links into components: sized by link count, empty between resolves and
/// reused, so that a re-solve allocates nothing.
#[derive(Debug)]
struct Partition {
    /// Union-find forest over link indices, the smaller index as root;
    /// [`NO_FLOW`] for a link no flow crosses.
    parent: Vec<usize>,
    /// The links some flow crosses, in first-met order.
    carrying: Vec<usize>,
    /// Roots of the components to solve, ascending.
    roots: Vec<usize>,
    /// Links of the component being solved, ascending.
    members: Vec<usize>,
    /// A member link's position in `members`: its number in the solver's
    /// sub-problem.
    local: Vec<usize>,
}

impl Partition {
    fn find(&mut self, mut l: usize) -> usize {
        while self.parent[l] != l {
            // Path halving.
            self.parent[l] = self.parent[self.parent[l]];
            l = self.parent[l];
        }
        l
    }

    /// Put `l` in the component rooted at `root` (if any) and return the
    /// joint root. A link met for the first time starts its own component.
    fn join(&mut self, root: Option<usize>, l: usize) -> usize {
        if self.parent[l] == NO_FLOW {
            self.parent[l] = l;
            self.carrying.push(l);
        }
        let b = self.find(l);
        let Some(a) = root else { return b };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.parent[hi] = lo;
        lo
    }
}

/// The live network: topology + load + flows.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    loads: Vec<LinkLoadModel>,
    flows: VecMap<FlowId, Flow>,
    next_id: u64,
    /// Time to which flow byte-counts have been integrated.
    integrated_to: SimTime,
    touched: Touched,
    /// Per-link outage flag (fault injection): an out link's effective
    /// capacity is clamped to [`OUTAGE_CAPACITY_FLOOR`].
    outages: Vec<bool>,
    /// Per-link capacity-degradation factor in `(0, 1]` (fault
    /// injection); 1.0 means healthy.
    degrade: Vec<f64>,
    parts: Partition,
    /// The fair-share solver's working vectors, shared by every component
    /// and kept so that a re-solve allocates nothing.
    solver: Solver,
    /// Component sub-problems solved so far.
    solves: u64,
    /// Foreground flows in those sub-problems.
    flows_solved: u64,
}

impl Network {
    /// Build a network over `topo`, instantiating one background-load
    /// model per link from `load_cfgs` (parallel to the link array) and
    /// the master seed.
    pub fn new(topo: Topology, load_cfgs: Vec<LoadModelConfig>, seed: MasterSeed) -> Self {
        assert_eq!(
            load_cfgs.len(),
            topo.link_count(),
            "one load config per link"
        );
        let loads = load_cfgs
            .into_iter()
            .zip(topo.links())
            .map(|(cfg, (_, link))| LinkLoadModel::new(cfg, seed, &link.name))
            .collect();
        let n_links = topo.link_count();
        Network {
            topo,
            loads,
            flows: VecMap::new(),
            next_id: 0,
            integrated_to: SimTime::ZERO,
            touched: Touched {
                marked: vec![false; n_links],
                any: false,
            },
            outages: vec![false; n_links],
            degrade: vec![1.0; n_links],
            parts: Partition {
                parent: vec![NO_FLOW; n_links],
                carrying: Vec::new(),
                roots: Vec::new(),
                members: Vec::new(),
                local: vec![0; n_links],
            },
            solver: Solver::default(),
            solves: 0,
            flows_solved: 0,
        }
    }

    /// Build with the same load config on every link (tests, simple
    /// scenarios).
    pub fn with_uniform_load(topo: Topology, cfg: LoadModelConfig, seed: MasterSeed) -> Self {
        let cfgs = vec![cfg; topo.link_count()];
        Network::new(topo, cfgs, seed)
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Current background weight on a link.
    pub fn link_weight(&self, link: LinkId) -> f64 {
        self.loads[link.0 as usize].weight()
    }

    /// The background-load tick interval (uniform across links by
    /// construction of the engine's tick event).
    pub fn load_tick(&self) -> SimDuration {
        self.loads
            .iter()
            .map(|l| l.tick())
            .min()
            .unwrap_or(SimDuration::from_secs(60))
    }

    /// Admit a flow at time `now`. Bytes start moving immediately (the
    /// caller models any connection-establishment latency before calling).
    pub fn start_flow(&mut self, spec: FlowSpec, now: SimTime) -> Result<FlowId, TopologyError> {
        self.integrate_to(now);
        let route = self.topo.route(spec.from, spec.to)?.clone();
        let rtt = self.topo.rtt(spec.from, spec.to)?;
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.touched.route(&route.links);
        let flow = Flow::admit(spec, route.links, rtt, now);
        self.flows.insert(id, flow);
        Ok(id)
    }

    /// Access an active flow.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(&id)
    }

    /// Delivered fraction of an in-flight flow at `now`, without
    /// disturbing it. Byte counts are only current as of the last
    /// integration, so this integrates to `now` first — a plain
    /// [`Network::flow`] read between events can be stale. Returns
    /// `None` for unknown (or already finished) flows.
    pub fn flow_progress(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.integrate_to(now);
        self.flows.get(&id).map(|f| f.progress().clamp(0.0, 1.0))
    }

    /// Double a flow's congestion window (one slow-start round). No-op for
    /// finished or unknown flows. Returns whether anything changed.
    pub fn ramp_flow_window(&mut self, id: FlowId, now: SimTime) -> bool {
        self.integrate_to(now);
        if let Some(f) = self.flows.get_mut(&id) {
            if f.ramp_window() {
                self.touched.route(&f.links);
                return true;
            }
        }
        false
    }

    /// Update a flow's external (storage) rate cap.
    pub fn set_external_cap(&mut self, id: FlowId, cap: f64, now: SimTime) {
        self.integrate_to(now);
        if let Some(f) = self.flows.get_mut(&id) {
            if (f.external_cap - cap).abs() > f64::EPSILON {
                f.external_cap = cap;
                self.touched.route(&f.links);
            }
        }
    }

    /// Mark a link as down (`out = true`) or restored (`out = false`).
    /// While down, the link's effective capacity is
    /// [`OUTAGE_CAPACITY_FLOOR`], stalling every flow that traverses it.
    pub fn set_link_outage(&mut self, link: LinkId, out: bool, now: SimTime) {
        self.integrate_to(now);
        let slot = &mut self.outages[link.0 as usize];
        if *slot != out {
            *slot = out;
            self.touched.link(link);
        }
    }

    /// Set a link's capacity-degradation factor (1.0 restores full
    /// capacity). Factors are clamped to `(0, 1]`; the effective capacity
    /// never drops below [`OUTAGE_CAPACITY_FLOOR`].
    pub fn set_link_degradation(&mut self, link: LinkId, factor: f64, now: SimTime) {
        self.integrate_to(now);
        let factor = factor.clamp(0.0, 1.0);
        let slot = &mut self.degrade[link.0 as usize];
        if (*slot - factor).abs() > f64::EPSILON {
            *slot = factor;
            self.touched.link(link);
        }
    }

    /// The link's current effective-capacity factor in `[0, 1]`: 0 while
    /// the link is out, its degradation factor otherwise.
    pub fn link_capacity_factor(&self, link: LinkId) -> f64 {
        if self.outages[link.0 as usize] {
            0.0
        } else {
            self.degrade[link.0 as usize]
        }
    }

    /// Ids of active flows whose route traverses `link`, ascending.
    pub fn flows_on_link(&self, link: LinkId) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|(_, f)| f.links.contains(&link))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Kill an in-flight flow (fault injection), producing the failure
    /// report delivered to its owner. Returns `None` for unknown flows.
    pub fn fail_flow(&mut self, id: FlowId, now: SimTime) -> Option<FlowFailed> {
        self.integrate_to(now);
        let f = self.flows.remove(&id)?;
        self.touched.route(&f.links);
        let fraction = f.progress().clamp(0.0, 1.0);
        let delivered = (f.spec.bytes as f64 - f.remaining).max(0.0);
        Some(FlowFailed {
            id,
            started: f.started,
            failed: now,
            bytes: f.spec.bytes,
            delivered_bytes: (delivered.floor() as u64).min(f.spec.bytes),
            delivered_fraction: fraction,
        })
    }

    /// Advance background load models to `t` and mark every link if any
    /// foreground flow is active: the weights feed every sub-problem and
    /// every queueing factor.
    pub fn load_tick_to(&mut self, t: SimTime) {
        self.integrate_to(t);
        for l in &mut self.loads {
            l.advance_to(t);
        }
        if !self.flows.is_empty() {
            self.touched.all();
        }
    }

    /// Re-solve the rates of every component an event touched since the
    /// last call; a no-op when nothing was.
    ///
    /// Against one max-min problem over the whole network (what this
    /// function used to build, kept as the tests' oracle) the allocation
    /// is the same but not bit-identical: the solver's fill level carries
    /// rounding from one round to the next, and in the whole-network
    /// problem those rounds include other components'. The differences
    /// are a few ulps and the two agree to the solver's own saturation
    /// tolerance (1e-9 relative).
    pub fn resolve(&mut self) {
        if !self.touched.any {
            return;
        }
        let p = &mut self.parts;

        // Partition the flow-carrying links: each flow joins the links of
        // its route. Afterwards every carrying link points at its root.
        for f in self.flows.values() {
            let mut root = None;
            for l in &f.links {
                root = Some(p.join(root, l.0 as usize));
            }
        }
        for i in 0..p.carrying.len() {
            let l = p.carrying[i];
            p.parent[l] = p.find(l);
        }

        // The components to solve: those with a touched link.
        for &l in &p.carrying {
            if self.touched.marked[l] {
                p.roots.push(p.parent[l]);
            }
        }
        p.roots.sort_unstable();
        p.roots.dedup();

        for &root in &p.roots {
            let parent = &p.parent;
            let in_component = |f: &Flow| {
                f.links
                    .first()
                    .is_some_and(|l| parent[l.0 as usize] == root)
            };

            // The sub-problem, in the order the whole network would be
            // presented: links ascending and renumbered from zero, then
            // flows ascending (VecMap iterates in flow-id order), then the
            // links' background pseudo-flows.
            p.members.clear();
            p.members
                .extend(p.carrying.iter().copied().filter(|&l| parent[l] == root));
            p.members.sort_unstable();
            for (k, &l) in p.members.iter().enumerate() {
                p.local[l] = k;
            }
            self.solver.begin(p.members.iter().map(|&l| {
                let link = self
                    .topo
                    .link(LinkId(l as u32))
                    .expect("member link exists");
                effective_capacity(link.capacity_bps, self.outages[l], self.degrade[l])
            }));
            let mut n_flows = 0;
            for f in self.flows.values_mut().filter(|f| in_component(f)) {
                f.queue_factor = queue_factor(&self.loads, &f.links);
                self.solver.push_flow(
                    f.spec.streams as f64,
                    f.rate_cap(),
                    f.links.iter().map(|l| p.local[l.0 as usize]),
                );
                n_flows += 1;
            }
            for (k, &l) in p.members.iter().enumerate() {
                push_background(&mut self.solver, self.loads[l].weight(), k);
            }

            let rates = self.solver.solve();
            for (f, &rate) in self
                .flows
                .values_mut()
                .filter(|f| in_component(f))
                .zip(rates)
            {
                f.rate = rate;
            }
            self.solves += 1;
            self.flows_solved += n_flows;
        }

        for &l in &p.carrying {
            p.parent[l] = NO_FLOW;
        }
        p.carrying.clear();
        p.roots.clear();
        self.touched.clear();
    }

    /// Component sub-problems [`Network::resolve`] has solved so far.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Foreground flows in the sub-problems counted by
    /// [`Network::solves`]; their ratio is the mean component size.
    pub fn flows_solved(&self) -> u64 {
        self.flows_solved
    }

    /// Integrate flow progress (linear drain at current rates) up to `t`.
    fn integrate_to(&mut self, t: SimTime) {
        if t <= self.integrated_to {
            return;
        }
        let dt = (t - self.integrated_to).as_secs_f64();
        if !self.flows.is_empty() {
            debug_assert!(!self.touched.any, "integrating with stale rates");
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.integrated_to = t;
    }

    /// Earliest completion among active flows at current rates, if any.
    /// Requires rates to be fresh ([`Network::resolve`] first).
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        assert!(!self.touched.any, "resolve before querying completions");
        let mut best: Option<(SimTime, FlowId)> = None;
        for (&id, f) in &self.flows {
            let eta = if f.remaining <= 0.0 {
                self.integrated_to
            } else if f.rate > OUTAGE_CAPACITY_FLOOR {
                self.integrated_to + SimDuration::from_secs_f64(f.remaining / f.rate)
            } else {
                // Stalled (rate 0, or pinned at the outage floor): no
                // completion until rates change.
                continue;
            };
            match best {
                Some((t, bid)) if (t, bid) <= (eta, id) => {}
                _ => best = Some((eta, id)),
            }
        }
        best
    }

    /// Remove a completed flow at time `now`, producing its report.
    ///
    /// # Panics
    /// Panics if the flow still has bytes remaining beyond the fluid
    /// tolerance — that indicates the engine retired it early.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> FlowDone {
        self.integrate_to(now);
        let f = self.flows.remove(&id).expect("finishing unknown flow");
        // Completion instants are rounded to the microsecond grid, so up to
        // rate * 0.5us of payload may appear outstanding; 4 KiB comfortably
        // covers any testbed rate while still catching real early retirement.
        assert!(
            f.remaining <= 4096.0,
            "flow {id:?} retired with {} bytes left",
            f.remaining
        );
        self.touched.route(&f.links);
        let elapsed = now.saturating_since(f.started).as_secs_f64();
        let mean_rate = if elapsed > 0.0 {
            f.spec.bytes as f64 / elapsed
        } else {
            f64::INFINITY
        };
        FlowDone {
            id,
            started: f.started,
            finished: now,
            bytes: f.spec.bytes,
            mean_rate,
        }
    }

    /// Abort a flow (connection failure injection). Returns the fraction
    /// of the payload that had been delivered.
    pub fn abort_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.integrate_to(now);
        let f = self.flows.remove(&id)?;
        self.touched.route(&f.links);
        Some(f.progress())
    }

    /// Time to which flow byte counts are integrated (mostly for tests).
    pub fn integrated_to(&self) -> SimTime {
        self.integrated_to
    }
}

/// A link's capacity after outage and degradation, floored so the solver
/// stays well-posed.
fn effective_capacity(capacity_bps: f64, out: bool, degrade: f64) -> f64 {
    let factor = if out { 0.0 } else { degrade };
    (capacity_bps * factor).max(OUTAGE_CAPACITY_FLOOR)
}

/// Queueing delay: background load along a path inflates the effective
/// RTT seen by its flows, which lowers window-limited rate caps
/// (share-limited bulk flows are unaffected). The factor is linear in the
/// heaviest competing weight on the path, capped.
fn queue_factor(loads: &[LinkLoadModel], route: &[LinkId]) -> f64 {
    let w_max = route
        .iter()
        .map(|l| loads[l.0 as usize].weight())
        .fold(0.0f64, f64::max);
    (1.0 + QUEUE_DELAY_PER_WEIGHT * w_max).min(QUEUE_FACTOR_MAX)
}

/// A link's background load as a pseudo-flow: the load model's weight,
/// uncapped, confined to that link.
fn push_background(solver: &mut Solver, weight: f64, link: usize) {
    if weight > 1e-9 {
        solver.push_flow(weight, f64::INFINITY, std::iter::once(link));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::TcpParams;
    use crate::topology::NodeId;

    fn quiet_cfg() -> LoadModelConfig {
        LoadModelConfig {
            diurnal_mean_weight: 0.0,
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        }
    }

    fn two_node_net(capacity: f64) -> (Network, NodeId, NodeId) {
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

    fn big_window() -> TcpParams {
        TcpParams {
            buffer_bytes: 1 << 24,
            init_window: 1 << 24,
            mss: 1460,
        }
    }

    #[test]
    fn lone_flow_drains_at_capacity() {
        let (mut net, a, b) = two_node_net(1e6);
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 2_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        let (eta, done_id) = net.next_completion().unwrap();
        assert_eq!(done_id, id);
        assert!((eta.as_secs_f64() - 2.0).abs() < 1e-6, "{eta}");
        let done = net.finish_flow(id, eta);
        assert!((done.mean_rate - 1e6).abs() < 1.0);
    }

    #[test]
    fn flow_progress_integrates_to_now() {
        let (mut net, a, b) = two_node_net(1e6);
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 2_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        // A stale read through `flow()` still shows 0 delivered; the
        // integrating sampler reports the fluid truth at t=1s (half done).
        let t = SimTime::from_secs(1);
        assert_eq!(net.flow(id).map(|f| f.progress()), Some(0.0));
        let p = net.flow_progress(id, t).unwrap();
        assert!((p - 0.5).abs() < 1e-9, "{p}");
        // Sampling is non-destructive: the flow still completes on time.
        let (eta, done_id) = net.next_completion().unwrap();
        assert_eq!(done_id, id);
        assert!((eta.as_secs_f64() - 2.0).abs() < 1e-6, "{eta}");
        assert!(net.flow_progress(FlowId(9999), t).is_none());
    }

    #[test]
    fn window_limited_flow_is_slower() {
        let (mut net, a, b) = two_node_net(1e8);
        // 16 KB window, 50 ms RTT -> 320 KB/s regardless of the fat link.
        let mut tcp = TcpParams::untuned();
        tcp.init_window = tcp.buffer_bytes; // skip slow start for this test
        let id = net
            .start_flow(FlowSpec::new(a, b, 320_000, 1, tcp), SimTime::ZERO)
            .unwrap();
        net.resolve();
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs_f64() - 0.97).abs() < 0.05, "{eta}");
        net.finish_flow(id, eta);
    }

    #[test]
    fn two_flows_share_then_second_speeds_up() {
        let (mut net, a, b) = two_node_net(1e6);
        let f1 = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        let f2 = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        // Each gets 0.5 MB/s; first completion at t=2s.
        let (eta1, first) = net.next_completion().unwrap();
        assert!((eta1.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!(first == f1 || first == f2);
        net.finish_flow(first, eta1);
        net.resolve();
        // Remaining flow now gets the whole link; it had 0 bytes left?
        // No: it also drained 1 MB/2 = it had exactly the same size, so it
        // finishes at the same instant.
        let (eta2, second) = net.next_completion().unwrap();
        assert_eq!(eta2, eta1);
        assert_ne!(second, first);
        let done = net.finish_flow(second, eta2);
        assert!((done.mean_rate - 0.5e6).abs() < 1.0);
    }

    #[test]
    fn weighted_flows_split_proportionally() {
        let (mut net, a, b) = two_node_net(9e6);
        let f8 = net
            .start_flow(
                FlowSpec::new(a, b, 8_000_000, 8, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        let f1 = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        // Shares 8 MB/s and 1 MB/s: both finish at t=1s.
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs_f64() - 1.0).abs() < 1e-6);
        let _ = (f8, f1);
    }

    #[test]
    fn external_cap_mid_flight_slows_completion() {
        let (mut net, a, b) = two_node_net(1e6);
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        // At t=0.5s, half the bytes are gone; cap the rest at 0.25 MB/s.
        let half = SimTime::from_secs_f64(0.5);
        net.set_external_cap(id, 0.25e6, half);
        net.resolve();
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs_f64() - 2.5).abs() < 1e-6, "{eta}");
    }

    #[test]
    fn ramp_window_affects_rate() {
        let (mut net, a, b) = two_node_net(1e8);
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1 << 26, 1, TcpParams::untuned()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        let r0 = net.flow(id).unwrap().rate;
        net.ramp_flow_window(id, SimTime::from_millis_t(10));
        net.resolve();
        let r1 = net.flow(id).unwrap().rate;
        assert!(r1 > 1.9 * r0, "{r0} -> {r1}");
    }

    #[test]
    fn abort_reports_progress() {
        let (mut net, a, b) = two_node_net(1e6);
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        let p = net
            .abort_flow(id, SimTime::from_secs_f64(0.25))
            .expect("flow existed");
        assert!((p - 0.25).abs() < 1e-6);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn stalled_flow_yields_no_completion() {
        let (mut net, a, b) = two_node_net(1e6);
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.set_external_cap(id, 0.0, SimTime::ZERO);
        net.resolve();
        assert!(net.next_completion().is_none());
    }

    #[test]
    fn background_weight_reduces_share() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t
            .add_link("ab", a, b, 12e6, SimDuration::from_millis(25))
            .unwrap();
        t.add_route(a, b, vec![l]).unwrap();
        let cfg = LoadModelConfig {
            diurnal_mean_weight: 4.0,
            profile: crate::load::DiurnalProfile::flat(1.0),
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        };
        let mut net = Network::with_uniform_load(t, cfg, MasterSeed(1));
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 8_000_000, 8, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        // 8 streams vs background weight 4 on 12 MB/s: share = 8 MB/s.
        let r = net.flow(id).unwrap().rate;
        assert!((r - 8e6).abs() < 1.0, "rate {r}");
    }
}

// Small test-only convenience.
#[cfg(test)]
impl SimTime {
    fn from_millis_t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1_000)
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::flow::TcpParams;
    use crate::load::LoadModelConfig;
    use crate::topology::NodeId;

    fn quiet_cfg() -> LoadModelConfig {
        LoadModelConfig {
            diurnal_mean_weight: 0.0,
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        }
    }

    fn net() -> (Network, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t
            .add_link("ab", a, b, 1e6, SimDuration::from_millis(25))
            .unwrap();
        t.add_route(a, b, vec![l]).unwrap();
        (
            Network::with_uniform_load(t, quiet_cfg(), MasterSeed(1)),
            a,
            b,
            l,
        )
    }

    fn big_window() -> TcpParams {
        TcpParams {
            buffer_bytes: 1 << 24,
            init_window: 1 << 24,
            mss: 1460,
        }
    }

    #[test]
    fn outage_stalls_then_recovery_restores_rate() {
        let (mut net, a, b, l) = net();
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        assert!((net.flow(id).unwrap().rate - 1e6).abs() < 1.0);
        net.set_link_outage(l, true, SimTime::from_secs_f64(0.5));
        net.resolve();
        // Effectively stalled: no completion at a ~0 rate.
        assert!(net.flow(id).unwrap().rate <= OUTAGE_CAPACITY_FLOOR);
        assert!(net.next_completion().is_none());
        assert_eq!(net.link_capacity_factor(l), 0.0);
        net.set_link_outage(l, false, SimTime::from_secs(10));
        net.resolve();
        assert!((net.flow(id).unwrap().rate - 1e6).abs() < 1.0);
        assert_eq!(net.link_capacity_factor(l), 1.0);
        // 0.5 MB drained before the outage, none during: 0.5s to go.
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs_f64() - 10.5).abs() < 1e-3, "{eta}");
    }

    #[test]
    fn degradation_scales_capacity() {
        let (mut net, a, b, l) = net();
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.set_link_degradation(l, 0.25, SimTime::ZERO);
        net.resolve();
        assert!((net.flow(id).unwrap().rate - 0.25e6).abs() < 1.0);
        assert_eq!(net.link_capacity_factor(l), 0.25);
        net.set_link_degradation(l, 1.0, SimTime::ZERO);
        net.resolve();
        assert!((net.flow(id).unwrap().rate - 1e6).abs() < 1.0);
    }

    #[test]
    fn fail_flow_reports_delivered_bytes() {
        let (mut net, a, b, l) = net();
        let id = net
            .start_flow(
                FlowSpec::new(a, b, 1_000_000, 1, big_window()),
                SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        assert_eq!(net.flows_on_link(l), vec![id]);
        let failed = net
            .fail_flow(id, SimTime::from_secs_f64(0.25))
            .expect("flow existed");
        assert_eq!(failed.bytes, 1_000_000);
        assert_eq!(failed.delivered_bytes, 250_000);
        assert!((failed.delivered_fraction - 0.25).abs() < 1e-9);
        assert_eq!(net.active_flows(), 0);
        assert!(net.fail_flow(id, SimTime::from_secs(1)).is_none());
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use crate::flow::TcpParams;
    use crate::load::{DiurnalProfile, LoadModelConfig};
    use crate::rng::MasterSeed;
    use crate::time::SimDuration;
    use crate::topology::Topology;

    /// A window-limited probe's rate drops under background load via the
    /// queueing-delay factor, even though its fair share is untouched.
    #[test]
    fn queue_factor_slows_window_limited_flows() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t
            .add_link("ab", a, b, 100e6, SimDuration::from_millis(25))
            .unwrap();
        t.add_route(a, b, vec![l]).unwrap();
        let cfg = LoadModelConfig {
            diurnal_mean_weight: 20.0,
            profile: DiurnalProfile::flat(1.0),
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        };
        let mut net = Network::with_uniform_load(t, cfg, MasterSeed(1));
        let mut tcp = TcpParams::untuned();
        tcp.init_window = tcp.buffer_bytes;
        let id = net
            .start_flow(
                crate::flow::FlowSpec::new(a, b, 1 << 24, 1, tcp),
                crate::time::SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        let r = net.flow(id).unwrap().rate;
        // Unloaded cap: 16384/0.05 = 327.7 KB/s; with W=20 the factor is
        // 1.3, so ~252 KB/s.
        let expect = 16_384.0 / 0.05 / (1.0 + QUEUE_DELAY_PER_WEIGHT * 20.0);
        assert!((r - expect).abs() < 1.0, "rate {r} expected {expect}");
    }

    /// The factor never exceeds its cap.
    #[test]
    fn queue_factor_saturates() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t
            .add_link("ab", a, b, 100e6, SimDuration::from_millis(25))
            .unwrap();
        t.add_route(a, b, vec![l]).unwrap();
        let cfg = LoadModelConfig {
            diurnal_mean_weight: 10_000.0,
            profile: DiurnalProfile::flat(1.0),
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        };
        let mut net = Network::with_uniform_load(t, cfg, MasterSeed(1));
        let mut tcp = TcpParams::untuned();
        tcp.init_window = tcp.buffer_bytes;
        let id = net
            .start_flow(
                crate::flow::FlowSpec::new(a, b, 1 << 24, 1, tcp),
                crate::time::SimTime::ZERO,
            )
            .unwrap();
        net.resolve();
        assert!((net.flow(id).unwrap().queue_factor - QUEUE_FACTOR_MAX).abs() < 1e-12);
    }
}

#[cfg(test)]
impl Network {
    /// Mark every link, so that the next [`Network::resolve`] re-solves
    /// every component whether or not an event touched it.
    fn touch_all(&mut self) {
        self.touched.all();
    }

    /// The oracle: the body of [`Network::resolve`] from before it went
    /// component-local — one max-min problem over every link, every flow
    /// and every link's background load, on a fresh solver. Returns each
    /// flow's `(rate, queue_factor)` in flow-id order; changes nothing.
    fn whole_network_solve(&self) -> Vec<(f64, f64)> {
        let mut flows: Vec<Flow> = self.flows.values().cloned().collect();
        for f in &mut flows {
            f.queue_factor = queue_factor(&self.loads, &f.links);
        }
        let mut solver = Solver::default();
        solver.begin(
            self.topo
                .links()
                .zip(self.outages.iter().zip(&self.degrade))
                .map(|((_, link), (&out, &degrade))| {
                    effective_capacity(link.capacity_bps, out, degrade)
                }),
        );
        for f in &flows {
            solver.push_flow(
                f.spec.streams as f64,
                f.rate_cap(),
                f.links.iter().map(|l| l.0 as usize),
            );
        }
        for (l, load) in self.loads.iter().enumerate() {
            push_background(&mut solver, load.weight(), l);
        }
        let rates = solver.solve();
        flows
            .iter()
            .zip(rates)
            .map(|(f, &rate)| (rate, f.queue_factor))
            .collect()
    }
}

/// The component-local, dirty-tracked [`Network::resolve`] against three
/// references, after every resolve of random op sequences on topologies
/// whose components merge and split.
#[cfg(test)]
mod component_tests {
    use super::*;
    use crate::fair::{self, FairFlow};
    use crate::flow::TcpParams;
    use crate::topology::NodeId;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Four servers and four clients around a hub: flows sharing a
        /// spoke merge into one component and fall apart again.
        Star,
        /// Three hosts behind each of two routers: every crossing flow
        /// shares the middle link, local ones do not.
        Dumbbell,
        /// Two duplex pairs that never share anything.
        Pairs,
    }

    /// The topology, and the node pairs it routes.
    fn build(shape: Shape, caps: &[f64]) -> (Topology, Vec<(NodeId, NodeId)>) {
        let mut t = Topology::new();
        let mut caps = caps.iter().copied().cycle();
        let mut pairs = Vec::new();
        let delay = SimDuration::from_millis(15);
        let mut spoke = |t: &mut Topology, name: &str, hub: NodeId| {
            let node = t.add_node(name);
            let cap = caps.next().expect("cycled");
            let (up, down) = t.add_duplex_link(name, node, hub, cap, delay).unwrap();
            (node, up, down)
        };
        match shape {
            Shape::Star => {
                let hub = t.add_node("hub");
                let servers: Vec<_> = (0..4)
                    .map(|i| spoke(&mut t, &format!("s{i}"), hub))
                    .collect();
                let clients: Vec<_> = (0..4)
                    .map(|i| spoke(&mut t, &format!("c{i}"), hub))
                    .collect();
                for &(s, s_up, s_down) in &servers {
                    for &(c, c_up, c_down) in &clients {
                        t.add_route(s, c, vec![s_up, c_down]).unwrap();
                        t.add_route(c, s, vec![c_up, s_down]).unwrap();
                        pairs.extend([(s, c), (c, s)]);
                    }
                }
            }
            Shape::Dumbbell => {
                let a = t.add_node("a");
                let (b, ba, ab) = spoke(&mut t, "b", a);
                let left: Vec<_> = (0..3).map(|i| spoke(&mut t, &format!("l{i}"), a)).collect();
                let right: Vec<_> = (0..3).map(|i| spoke(&mut t, &format!("r{i}"), b)).collect();
                for &(l, l_up, l_down) in &left {
                    for &(r, r_up, r_down) in &right {
                        t.add_route(l, r, vec![l_up, ab, r_down]).unwrap();
                        t.add_route(r, l, vec![r_up, ba, l_down]).unwrap();
                        pairs.extend([(l, r), (r, l)]);
                    }
                }
                for side in [&left, &right] {
                    for &(x, x_up, _) in side {
                        for &(y, _, y_down) in side {
                            if x != y {
                                t.add_route(x, y, vec![x_up, y_down]).unwrap();
                                pairs.push((x, y));
                            }
                        }
                    }
                }
            }
            Shape::Pairs => {
                for name in ["p", "q"] {
                    let hub = t.add_node(format!("{name}0"));
                    let (node, up, down) = spoke(&mut t, &format!("{name}1"), hub);
                    t.add_route(node, hub, vec![up]).unwrap();
                    t.add_route(hub, node, vec![down]).unwrap();
                    pairs.extend([(node, hub), (hub, node)]);
                }
            }
        }
        (t, pairs)
    }

    /// One mutation. Flows and links are picked by index modulo what
    /// exists when the op runs.
    #[derive(Debug, Clone)]
    enum Op {
        Start {
            pair: usize,
            bytes: u64,
            streams: u32,
            buffer_kb: u64,
            /// Start with the window wide open: limited by its share, not
            /// by slow start.
            open: bool,
        },
        Ramp(usize),
        Cap(usize, f64),
        Outage(usize, bool),
        Degrade(usize, f64),
        Tick,
        Abort(usize),
        Fail(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let start = || {
            (
                0usize..64,
                10_000u64..50_000_000,
                1u32..=8,
                16u64..2_048,
                any::<bool>(),
            )
                .prop_map(|(pair, bytes, streams, buffer_kb, open)| Op::Start {
                    pair,
                    bytes,
                    streams,
                    buffer_kb,
                    open,
                })
        };
        prop_oneof![
            // Arrivals outnumber the three ways out, so populations build up.
            start(),
            start(),
            start(),
            start(),
            (0usize..64).prop_map(Op::Ramp),
            (
                0usize..64,
                prop_oneof![Just(0.0), Just(f64::INFINITY), 1e3f64..5e7]
            )
                .prop_map(|(i, cap)| Op::Cap(i, cap)),
            (0usize..64, any::<bool>()).prop_map(|(l, out)| Op::Outage(l, out)),
            (0usize..64, prop_oneof![Just(1.0), 0.05f64..1.0]).prop_map(|(l, f)| Op::Degrade(l, f)),
            Just(Op::Tick),
            (0usize..64).prop_map(Op::Abort),
            (0usize..64).prop_map(Op::Fail),
        ]
    }

    /// How simulated time moves before a step's ops.
    #[derive(Debug, Clone)]
    enum Advance {
        /// Same instant as the previous step.
        Stay,
        Millis(u64),
        /// To the earliest completion, which is retired.
        Complete,
    }

    fn arb_steps() -> impl Strategy<Value = Vec<(Advance, Vec<Op>)>> {
        let advance = prop_oneof![
            Just(Advance::Stay),
            (1u64..2_000).prop_map(Advance::Millis),
            // Long enough for the load models to move.
            (30_000u64..200_000).prop_map(Advance::Millis),
            Just(Advance::Complete),
        ];
        prop::collection::vec((advance, prop::collection::vec(arb_op(), 1..=3)), 1..=40)
    }

    fn apply(net: &mut Network, pairs: &[(NodeId, NodeId)], op: &Op, now: SimTime) {
        let flow = |net: &Network, i: usize| {
            let n = net.flows.len();
            (n > 0).then(|| *net.flows.keys().nth(i % n).expect("in range"))
        };
        let link = |net: &Network, l: usize| LinkId((l % net.topo.link_count()) as u32);
        match *op {
            Op::Start {
                pair,
                bytes,
                streams,
                buffer_kb,
                open,
            } => {
                let (from, to) = pairs[pair % pairs.len()];
                let buffer_bytes = buffer_kb * 1024;
                let tcp = TcpParams {
                    buffer_bytes,
                    init_window: if open { buffer_bytes } else { 2 * 1460 },
                    mss: 1460,
                };
                net.start_flow(FlowSpec::new(from, to, bytes, streams, tcp), now)
                    .expect("pair is routed");
            }
            Op::Ramp(i) => {
                if let Some(id) = flow(net, i) {
                    net.ramp_flow_window(id, now);
                }
            }
            Op::Cap(i, cap) => {
                if let Some(id) = flow(net, i) {
                    net.set_external_cap(id, cap, now);
                }
            }
            Op::Outage(l, out) => net.set_link_outage(link(net, l), out, now),
            Op::Degrade(l, f) => net.set_link_degradation(link(net, l), f, now),
            Op::Tick => net.load_tick_to(now),
            Op::Abort(i) => {
                if let Some(id) = flow(net, i) {
                    net.abort_flow(id, now).expect("picked a live flow");
                }
            }
            Op::Fail(i) => {
                if let Some(id) = flow(net, i) {
                    net.fail_flow(id, now).expect("picked a live flow");
                }
            }
        }
    }

    /// The components by brute force, sharing no code with the partition
    /// under test: grow a link set from each unclaimed flow until no flow
    /// outside it crosses one of its links. Links and flows ascending.
    fn flood_fill(net: &Network) -> Vec<(Vec<usize>, Vec<FlowId>)> {
        let route = |f: &Flow| -> Vec<usize> { f.links.iter().map(|l| l.0 as usize).collect() };
        let mut claimed = BTreeSet::new();
        let mut out = Vec::new();
        for (&seed, f) in &net.flows {
            if claimed.contains(&seed) {
                continue;
            }
            let mut links: BTreeSet<usize> = route(f).into_iter().collect();
            let mut flows = BTreeSet::from([seed]);
            loop {
                let before = flows.len();
                for (&id, g) in &net.flows {
                    if route(g).iter().any(|l| links.contains(l)) {
                        flows.insert(id);
                        links.extend(route(g));
                    }
                }
                if flows.len() == before {
                    break;
                }
            }
            claimed.extend(flows.iter().copied());
            out.push((links.into_iter().collect(), flows.into_iter().collect()));
        }
        out
    }

    /// `fair::solve` on one flood-filled component, written out from the
    /// network's public reads.
    fn solve_component(net: &Network, links: &[usize], flows: &[FlowId]) -> Vec<f64> {
        let caps: Vec<f64> = links
            .iter()
            .map(|&l| {
                let id = LinkId(l as u32);
                let base = net.topo.link(id).unwrap().capacity_bps;
                (base * net.link_capacity_factor(id)).max(OUTAGE_CAPACITY_FLOOR)
            })
            .collect();
        let local = |l: usize| links.iter().position(|&m| m == l).expect("member");
        let mut problem: Vec<FairFlow> = flows
            .iter()
            .map(|id| {
                let f = &net.flows[id];
                FairFlow {
                    weight: f.spec.streams as f64,
                    cap: f.rate_cap(),
                    links: f.links.iter().map(|l| local(l.0 as usize)).collect(),
                }
            })
            .collect();
        for (k, &l) in links.iter().enumerate() {
            let w = net.link_weight(LinkId(l as u32));
            if w > 1e-9 {
                problem.push(FairFlow {
                    weight: w,
                    cap: f64::INFINITY,
                    links: vec![k],
                });
            }
        }
        let mut rates = fair::solve(&caps, &problem);
        rates.truncate(flows.len());
        rates
    }

    fn check(net: &Network, twin: &Network) {
        // (i) Skipping is exact: a network that re-solves everything at
        // every resolve has the same bits.
        assert_eq!(net.flows.len(), twin.flows.len());
        for ((id, f), g) in net.flows.iter().zip(twin.flows.values()) {
            assert_eq!(f.rate.to_bits(), g.rate.to_bits(), "{id:?} rate vs twin");
            assert_eq!(
                f.queue_factor.to_bits(),
                g.queue_factor.to_bits(),
                "{id:?} queue factor vs twin"
            );
        }
        // (ii) The partition is exact: every flow has the rate of its
        // flood-filled component solved on its own.
        let mut seen = 0;
        for (links, flows) in flood_fill(net) {
            let rates = solve_component(net, &links, &flows);
            for (id, want) in flows.iter().zip(rates) {
                assert_eq!(
                    net.flows[id].rate.to_bits(),
                    want.to_bits(),
                    "{id:?} vs its component {links:?}"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, net.flows.len(), "components tile the flows");
        // (iii) Same allocation as the whole-network solve, to the
        // solver's saturation tolerance.
        for ((id, f), (rate, qf)) in net.flows.iter().zip(net.whole_network_solve()) {
            assert!(
                (f.rate - rate).abs() <= 1e-9 * rate.abs().max(f.rate.abs()),
                "{id:?}: {} vs whole-network {rate}",
                f.rate
            );
            assert_eq!(
                f.queue_factor.to_bits(),
                qf.to_bits(),
                "{id:?} queue factor"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn component_local_resolve_is_exact(
            shape in prop_oneof![Just(Shape::Star), Just(Shape::Dumbbell), Just(Shape::Pairs)],
            caps in prop::collection::vec(1e6f64..5e7, 17),
            seed in 0u64..1_000,
            steps in arb_steps(),
        ) {
            let (topo, pairs) = build(shape, &caps);
            let fresh = || {
                Network::with_uniform_load(topo.clone(), LoadModelConfig::default(), MasterSeed(seed))
            };
            let (mut net, mut twin) = (fresh(), fresh());
            let mut now = SimTime::ZERO;
            for (advance, ops) in &steps {
                match advance {
                    Advance::Stay => {}
                    Advance::Millis(ms) => now += SimDuration::from_millis(*ms),
                    Advance::Complete => {
                        let next = net.next_completion();
                        prop_assert_eq!(next, twin.next_completion());
                        if let Some((eta, id)) = next {
                            now = now.max(eta);
                            net.finish_flow(id, now);
                            twin.finish_flow(id, now);
                        }
                    }
                }
                for op in ops {
                    apply(&mut net, &pairs, op, now);
                    apply(&mut twin, &pairs, op, now);
                }
                net.resolve();
                twin.touch_all();
                twin.resolve();
                check(&net, &twin);
                // Marking everything can only add solves.
                prop_assert!(net.solves() <= twin.solves());
                prop_assert!(net.flows_solved() <= twin.flows_solved());
            }
        }
    }

    fn start(net: &mut Network, pair: (NodeId, NodeId)) -> FlowId {
        // Window wide open from the start, so that the flow is limited by
        // its share.
        let tcp = TcpParams {
            buffer_bytes: 1 << 24,
            init_window: 1 << 24,
            mss: 1460,
        };
        let spec = FlowSpec::new(pair.0, pair.1, 1 << 30, 4, tcp);
        net.start_flow(spec, SimTime::ZERO).unwrap()
    }

    #[test]
    fn an_event_solves_only_the_component_it_touches() {
        let (topo, pairs) = build(Shape::Pairs, &[8e6, 9e6]);
        let mut net = Network::with_uniform_load(topo, LoadModelConfig::default(), MasterSeed(1));
        let (p, q) = (pairs[0], pairs[2]);
        let a = start(&mut net, p);
        net.resolve();
        assert_eq!((net.solves(), net.flows_solved()), (1, 1));
        // A flow on the other pair shares nothing with the first.
        let b = start(&mut net, q);
        let rate_a = net.flow(a).unwrap().rate;
        net.resolve();
        assert_eq!((net.solves(), net.flows_solved()), (2, 2));
        assert_eq!(net.flow(a).unwrap().rate.to_bits(), rate_a.to_bits());
        // A second flow on the first pair re-solves that pair alone.
        start(&mut net, p);
        net.resolve();
        assert_eq!((net.solves(), net.flows_solved()), (3, 4));
        assert!(net.flow(a).unwrap().rate < rate_a);
        // A fault on a link no flow crosses solves nothing; a tick, all.
        net.set_link_outage(LinkId(1), true, SimTime::ZERO);
        net.resolve();
        assert_eq!(net.solves(), 3);
        net.load_tick_to(SimTime::from_secs(60));
        net.resolve();
        assert_eq!((net.solves(), net.flows_solved()), (5, 7));
        // Nothing touched, nothing solved.
        net.resolve();
        assert_eq!(net.solves(), 5);
        let _ = b;
    }

    #[test]
    fn a_departure_re_solves_what_it_split_apart() {
        // s0->c0 and s1->c1 are joined only by s0->c1, which competes with
        // the first on s0's thin spoke and with the second on c1's.
        let (topo, pairs) = build(Shape::Star, &[4e6, 2e7, 2e7, 2e7, 2e7, 5e6, 2e7, 2e7]);
        let mut net = Network::with_uniform_load(topo, LoadModelConfig::default(), MasterSeed(1));
        let pair = |s: usize, c: usize| pairs[2 * (4 * s + c)];
        let a = start(&mut net, pair(0, 0));
        let b = start(&mut net, pair(1, 1));
        let bridge = start(&mut net, pair(0, 1));
        net.resolve();
        assert_eq!((net.solves(), net.flows_solved()), (1, 3));
        let (rate_a, rate_b) = (net.flow(a).unwrap().rate, net.flow(b).unwrap().rate);
        net.abort_flow(bridge, SimTime::ZERO).unwrap();
        net.resolve();
        assert_eq!((net.solves(), net.flows_solved()), (3, 5));
        assert!(net.flow(a).unwrap().rate > rate_a);
        assert!(net.flow(b).unwrap().rate > rate_b);
    }
}

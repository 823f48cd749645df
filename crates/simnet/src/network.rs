//! Network state: active flows over the topology, background load per
//! link, and the fluid rate solution.
//!
//! The [`Network`] owns the topology, one [`LinkLoadModel`] per link, and
//! the set of in-flight flows. Whenever the flow population or any
//! background weight changes, rates are re-solved with the weighted
//! max-min allocator; between changes, flows drain linearly, so the next
//! completion time is exact.

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

/// The live network: topology + load + flows.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    loads: Vec<LinkLoadModel>,
    flows: VecMap<FlowId, Flow>,
    next_id: u64,
    /// Time to which flow byte-counts have been integrated.
    integrated_to: SimTime,
    /// Rates are stale and must be re-solved before use.
    dirty: bool,
    /// Per-link outage flag (fault injection): an out link's effective
    /// capacity is clamped to [`OUTAGE_CAPACITY_FLOOR`].
    outages: Vec<bool>,
    /// Per-link capacity-degradation factor in `(0, 1]` (fault
    /// injection); 1.0 means healthy.
    degrade: Vec<f64>,
    /// The fair-share solver's working vectors, kept so that a re-solve
    /// allocates nothing.
    solver: Solver,
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
            dirty: true,
            outages: vec![false; n_links],
            degrade: vec![1.0; n_links],
            solver: Solver::default(),
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
        let flow = Flow::admit(spec, route.links, rtt, now);
        self.flows.insert(id, flow);
        self.dirty = true;
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
                self.dirty = true;
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
                self.dirty = true;
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
            self.dirty = true;
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
            self.dirty = true;
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
        self.dirty = true;
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

    /// Advance background load models to `t` and mark rates stale if any
    /// foreground flow is active.
    pub fn load_tick_to(&mut self, t: SimTime) {
        self.integrate_to(t);
        for l in &mut self.loads {
            l.advance_to(t);
        }
        if !self.flows.is_empty() {
            self.dirty = true;
        }
    }

    /// Re-solve rates if stale.
    pub fn resolve(&mut self) {
        if !self.dirty {
            return;
        }
        // Queueing delay: background load along a path inflates the
        // effective RTT seen by its flows, which lowers window-limited
        // rate caps (share-limited bulk flows are unaffected). The factor
        // is linear in the heaviest competing weight on the path, capped.
        for f in self.flows.values_mut() {
            let w_max = f
                .links
                .iter()
                .map(|l| self.loads[l.0 as usize].weight())
                .fold(0.0f64, f64::max);
            f.queue_factor = (1.0 + QUEUE_DELAY_PER_WEIGHT * w_max).min(QUEUE_FACTOR_MAX);
        }

        // Effective capacity after outage and degradation, floored so the
        // solver stays well-posed.
        let capacities = self
            .topo
            .links()
            .zip(self.outages.iter().zip(&self.degrade))
            .map(|((_, link), (&out, &degrade))| {
                let factor = if out { 0.0 } else { degrade };
                (link.capacity_bps * factor).max(OUTAGE_CAPACITY_FLOOR)
            });
        self.solver.begin(capacities);
        // VecMap iterates in ascending flow-id order (and flow ids are
        // handed out monotonically, so admission is an O(1) append),
        // keeping the solve order deterministic by construction.
        for f in self.flows.values() {
            self.solver.push_flow(
                f.spec.streams as f64,
                f.rate_cap(),
                f.links.iter().map(|l| l.0 as usize),
            );
        }
        // Background pseudo-flows: one per link with the load model's
        // weight, uncapped, confined to that link.
        for (l, load) in self.loads.iter().enumerate() {
            let w = load.weight();
            if w > 1e-9 {
                self.solver.push_flow(w, f64::INFINITY, std::iter::once(l));
            }
        }

        let rates = self.solver.solve();
        for (f, &rate) in self.flows.values_mut().zip(rates) {
            f.rate = rate;
        }
        self.dirty = false;
    }

    /// Integrate flow progress (linear drain at current rates) up to `t`.
    fn integrate_to(&mut self, t: SimTime) {
        if t <= self.integrated_to {
            return;
        }
        let dt = (t - self.integrated_to).as_secs_f64();
        if !self.flows.is_empty() {
            debug_assert!(!self.dirty, "integrating with stale rates");
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.integrated_to = t;
    }

    /// Earliest completion among active flows at current rates, if any.
    /// Requires rates to be fresh ([`Network::resolve`] first).
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        assert!(!self.dirty, "resolve before querying completions");
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
        self.dirty = true;
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
        self.dirty = true;
        Some(f.progress())
    }

    /// Time to which flow byte counts are integrated (mostly for tests).
    pub fn integrated_to(&self) -> SimTime {
        self.integrated_to
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

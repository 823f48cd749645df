//! The NWS-style network sensor: small periodic probe transfers.
//!
//! The Network Weather Service keeps its probes lightweight — by default
//! 64 KB with standard (untuned) TCP buffers — precisely so they impose
//! little load. The paper's Figures 1–2 show the consequence: probe
//! bandwidth sits below 0.3 MB/s on paths where tuned 8-stream GridFTP
//! moves 1.5–10.2 MB/s, and with different variability, making raw NWS
//! measurements the wrong estimator for bulk transfers. This agent
//! reproduces those probes over the same simulated links.

use std::any::Any;

use serde::{Deserialize, Serialize};
use wanpred_simnet::engine::{Agent, Ctx, TimerTag};
use wanpred_simnet::flow::{FlowDone, FlowFailed, FlowSpec, TcpParams};
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::NodeId;

// The paper's probe setup: 64 KB over standard, untuned TCP buffers
// (`TcpParams::untuned`), every five minutes.

/// Probe payload in bytes (NWS default: 64 KB).
const PROBE_BYTES: u64 = 64 * 1024;
/// Interval between probes (paper: every five minutes).
const PROBE_INTERVAL: SimDuration = SimDuration::from_mins(5);
/// Give up on a probe after this long (a stalled probe must not stop the
/// schedule).
const PROBE_TIMEOUT: SimDuration = SimDuration::from_mins(4);

/// One probe result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeMeasurement {
    /// Probe start time.
    pub at: SimTime,
    /// Payload bytes.
    pub bytes: u64,
    /// Wall time of the probe.
    pub duration: SimDuration,
    /// Measured bandwidth in bytes/sec.
    pub bandwidth_bps: f64,
}

impl ProbeMeasurement {
    /// Bandwidth in MB/s (10^6 bytes), the unit of Figures 1–2.
    pub fn bandwidth_mbs(&self) -> f64 {
        self.bandwidth_bps / 1e6
    }
}

const TICK: TimerTag = 1;
const TIMEOUT: TimerTag = 2;

/// The probe sensor agent. Retrieve its measurements after the run with
/// [`wanpred_simnet::engine::Engine::agent`].
#[derive(Debug)]
pub struct ProbeAgent {
    from: NodeId,
    to: NodeId,
    measurements: Vec<ProbeMeasurement>,
    in_flight: Option<(wanpred_simnet::flow::FlowId, SimTime)>,
    timeouts: usize,
    failures: usize,
}

impl ProbeAgent {
    /// A sensor probing the path from `from` to `to`.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        ProbeAgent {
            from,
            to,
            measurements: Vec::new(),
            in_flight: None,
            timeouts: 0,
            failures: 0,
        }
    }

    /// Completed measurements in time order.
    pub fn measurements(&self) -> &[ProbeMeasurement] {
        &self.measurements
    }

    /// Probes abandoned after the timeout.
    pub fn timeouts(&self) -> usize {
        self.timeouts
    }

    /// Probes torn down by the network (connection resets). Like NWS,
    /// the sensor records nothing for them and keeps its schedule.
    pub fn failures(&self) -> usize {
        self.failures
    }

    fn launch(&mut self, ctx: &mut Ctx<'_>) {
        let spec = FlowSpec::new(self.from, self.to, PROBE_BYTES, 1, TcpParams::untuned());
        match ctx.start_flow(spec) {
            Ok(id) => {
                self.in_flight = Some((id, ctx.now()));
                ctx.set_timer(PROBE_TIMEOUT, TIMEOUT);
            }
            Err(_) => {
                // No route: record nothing; the next tick will retry.
            }
        }
        ctx.set_timer(PROBE_INTERVAL, TICK);
    }
}

impl Agent for ProbeAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.launch(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        match tag {
            TICK => {
                if self.in_flight.is_none() {
                    self.launch(ctx);
                } else {
                    // Previous probe still running; skip this slot but
                    // keep the schedule alive.
                    ctx.set_timer(PROBE_INTERVAL, TICK);
                }
            }
            TIMEOUT => {
                if let Some((id, started)) = self.in_flight {
                    if ctx.now().saturating_since(started) >= PROBE_TIMEOUT {
                        ctx.abort_flow(id);
                        self.in_flight = None;
                        self.timeouts += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_>, done: FlowDone) {
        if let Some((id, started)) = self.in_flight {
            if id == done.id {
                let duration = done.finished.saturating_since(started);
                let secs = duration.as_secs_f64();
                self.measurements.push(ProbeMeasurement {
                    at: started,
                    bytes: done.bytes,
                    duration,
                    bandwidth_bps: if secs > 0.0 {
                        done.bytes as f64 / secs
                    } else {
                        0.0
                    },
                });
                self.in_flight = None;
            }
        }
    }

    fn on_flow_failed(&mut self, _ctx: &mut Ctx<'_>, failed: FlowFailed) {
        if let Some((id, _)) = self.in_flight {
            if id == failed.id {
                self.in_flight = None;
                self.failures += 1;
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanpred_simnet::engine::Engine;
    use wanpred_simnet::load::LoadModelConfig;
    use wanpred_simnet::network::Network;
    use wanpred_simnet::rng::MasterSeed;
    use wanpred_simnet::topology::Topology;

    fn net(capacity: f64, quiet: bool) -> (Network, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (f, r) = t
            .add_duplex_link("ab", a, b, capacity, SimDuration::from_millis(27))
            .unwrap();
        t.add_route(a, b, vec![f]).unwrap();
        t.add_route(b, a, vec![r]).unwrap();
        let cfg = if quiet {
            LoadModelConfig {
                diurnal_mean_weight: 0.0,
                walk_sigma: 0.0,
                burst_weight: 0.0,
                ..LoadModelConfig::default()
            }
        } else {
            LoadModelConfig::default()
        };
        (Network::with_uniform_load(t, cfg, MasterSeed(9)), a, b)
    }

    #[test]
    fn probes_fire_on_schedule() {
        let (network, a, b) = net(12e6, true);
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(ProbeAgent::new(a, b)));
        eng.run_until(SimTime::from_secs(3_600));
        let agent = eng.agent::<ProbeAgent>(id).unwrap();
        // One at t=0 plus every 5 minutes: 12 per hour.
        assert_eq!(agent.measurements().len(), 12);
        assert_eq!(agent.timeouts(), 0);
    }

    #[test]
    fn probe_bandwidth_is_window_limited() {
        // Fat quiet link: the probe is still limited by its untuned 16 KB
        // buffer + slow start to well under 0.3 MB/s — Figures 1-2's NWS
        // ceiling.
        let (network, a, b) = net(100e6, true);
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(ProbeAgent::new(a, b)));
        eng.run_until(SimTime::from_secs(1_800));
        let agent = eng.agent::<ProbeAgent>(id).unwrap();
        for m in agent.measurements() {
            assert!(
                m.bandwidth_mbs() < 0.3,
                "probe measured {} MB/s",
                m.bandwidth_mbs()
            );
            assert!(m.bandwidth_mbs() > 0.05, "suspiciously slow probe");
        }
    }

    #[test]
    fn probes_stay_flat_under_load() {
        // A window-limited probe barely notices competing traffic: this is
        // exactly the paper's point about NWS data (low, *stable* readings
        // that carry little information about tuned bulk-transfer rates).
        let (network, a, b) = net(12e6, false);
        let mut eng = Engine::new(network);
        let id = eng.add_agent(Box::new(ProbeAgent::new(a, b)));
        eng.run_until(SimTime::from_secs(6 * 3_600));
        let agent = eng.agent::<ProbeAgent>(id).unwrap();
        let bw: Vec<f64> = agent
            .measurements()
            .iter()
            .map(|m| m.bandwidth_bps)
            .collect();
        assert!(bw.len() > 50);
        let mean = bw.iter().sum::<f64>() / bw.len() as f64;
        let var = bw.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / bw.len() as f64;
        assert!(
            var.sqrt() / mean < 0.25,
            "window-limited probes should be comparatively stable"
        );
        assert!(mean < 0.3e6, "and below the 0.3 MB/s ceiling");
    }

    #[test]
    fn killed_probe_frees_the_sensor() {
        use wanpred_simnet::fault::{FaultAction, FaultSchedule, TimedFault};

        let (network, a, b) = net(12e6, true);
        let link = network.topology().links().next().unwrap().0;
        let mut eng = Engine::new(network);
        // Kill whatever is on the link shortly after the first probe
        // launches; the sensor must drop it and stay on schedule.
        eng.inject_faults(&FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs_f64(0.2),
            action: FaultAction::KillFlows(link),
        }]));
        let id = eng.add_agent(Box::new(ProbeAgent::new(a, b)));
        eng.run_until(SimTime::from_secs(3_600));
        let agent = eng.agent::<ProbeAgent>(id).unwrap();
        assert_eq!(agent.failures(), 1);
        assert_eq!(agent.timeouts(), 0);
        // 12 slots, one lost to the reset.
        assert_eq!(agent.measurements().len(), 11);
    }

    #[test]
    fn measurement_units() {
        let m = ProbeMeasurement {
            at: SimTime::ZERO,
            bytes: 65_536,
            duration: SimDuration::from_millis(500),
            bandwidth_bps: 131_072.0,
        };
        assert!((m.bandwidth_mbs() - 0.131072).abs() < 1e-9);
    }
}

//! Deterministic fault injection: link outages, bandwidth degradation and
//! mid-flight flow kills.
//!
//! Real wide-area GridFTP deployments see dropped connections, server
//! outages and stalled flows (NorduGrid's GridFTP evaluation and Allcock
//! et al. both report them as routine); a simulator that never produces
//! them yields unrealistically clean logs and never exercises recovery
//! paths. A [`FaultSchedule`] is generated *up front* from a
//! [`MasterSeed`] — it is a pure function of `(config, topology, seed,
//! horizon)`, so a faulty run is exactly as replayable as a clean one —
//! and injected into the [`crate::engine::Engine`] before the run starts.
//!
//! Three fault classes, each an independent per-link renewal process:
//!
//! * **Outages** — a link's capacity collapses for a window; flows
//!   crossing it stall (rate ≈ 0) until the window ends. Agents observe
//!   this only as elapsed time, which is what makes per-transfer
//!   deadlines (see `wanpred-gridftp`) necessary.
//! * **Degradations** — the capacity is multiplied by a factor in
//!   `(0, 1)` for a window: the "sick but not dead" path.
//! * **Flow kills** — every flow traversing the link at the fault instant
//!   is torn down (connection reset); owners receive
//!   [`crate::engine::Agent::on_flow_failed`] with the delivered
//!   fraction.

use rand::rngs::StdRng;

use crate::rng::{exponential, MasterSeed};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, Topology};

/// One atomic fault action applied by the engine at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The link goes dark: effective capacity collapses to ~0.
    LinkDown(LinkId),
    /// The outage ends; capacity returns to the degradation-adjusted
    /// value.
    LinkUp(LinkId),
    /// A degradation episode begins: capacity is multiplied by the
    /// factor (in `(0, 1)`).
    DegradeStart(LinkId, f64),
    /// The degradation episode ends.
    DegradeEnd(LinkId),
    /// Every flow traversing the link is killed (connection reset).
    KillFlows(LinkId),
}

impl FaultAction {
    /// The link this action applies to.
    pub fn link(&self) -> LinkId {
        match self {
            FaultAction::LinkDown(l)
            | FaultAction::LinkUp(l)
            | FaultAction::DegradeStart(l, _)
            | FaultAction::DegradeEnd(l)
            | FaultAction::KillFlows(l) => *l,
        }
    }
}

/// A fault action with its scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// Configuration of the per-link fault processes. All inter-arrival
/// draws are exponential; window lengths are exponential truncated to
/// `[min, max]`. A mean inter-arrival of [`SimDuration::ZERO`] disables
/// that fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Mean time between outage windows on one link (0 disables).
    pub outage_mean_interarrival: SimDuration,
    /// Minimum outage length.
    pub outage_min: SimDuration,
    /// Maximum outage length.
    pub outage_max: SimDuration,
    /// Mean time between degradation episodes on one link (0 disables).
    pub degrade_mean_interarrival: SimDuration,
    /// Minimum episode length.
    pub degrade_min: SimDuration,
    /// Maximum episode length.
    pub degrade_max: SimDuration,
    /// Lower bound of the capacity factor drawn per episode.
    pub degrade_factor_min: f64,
    /// Upper bound of the capacity factor drawn per episode.
    pub degrade_factor_max: f64,
    /// Mean time between kill events on one link (0 disables).
    pub kill_mean_interarrival: SimDuration,
}

impl FaultConfig {
    /// A calibrated "unreliable wide area" profile: a couple of outages
    /// and a handful of degradations per link per day, plus connection
    /// resets every couple of hours — roughly the failure texture the
    /// NorduGrid GridFTP evaluation reports for production Grid
    /// transfers. A kill only bites when a flow is on the link at that
    /// instant, so with the paper's workload (a transfer every ~30 min
    /// per pair, most finishing within minutes) this yields on the order
    /// of one retried transfer per pair per day.
    pub fn wan_default() -> Self {
        FaultConfig {
            outage_mean_interarrival: SimDuration::from_hours(10),
            outage_min: SimDuration::from_secs(30),
            outage_max: SimDuration::from_mins(12),
            degrade_mean_interarrival: SimDuration::from_hours(4),
            degrade_min: SimDuration::from_mins(2),
            degrade_max: SimDuration::from_mins(45),
            degrade_factor_min: 0.05,
            degrade_factor_max: 0.5,
            kill_mean_interarrival: SimDuration::from_hours(2),
        }
    }

    /// No faults at all (useful as a base for struct-update syntax).
    pub fn none() -> Self {
        FaultConfig {
            outage_mean_interarrival: SimDuration::ZERO,
            outage_min: SimDuration::from_secs(1),
            outage_max: SimDuration::from_secs(1),
            degrade_mean_interarrival: SimDuration::ZERO,
            degrade_min: SimDuration::from_secs(1),
            degrade_max: SimDuration::from_secs(1),
            degrade_factor_min: 0.5,
            degrade_factor_max: 0.5,
            kill_mean_interarrival: SimDuration::ZERO,
        }
    }
}

/// A fully materialized, time-sorted fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Generate the schedule for every link of `topo` over `[0, horizon]`.
    ///
    /// Each `(fault class, link)` pair draws from its own RNG stream
    /// derived from `seed` and the link's *name*, so adding links or
    /// reordering fault classes never perturbs the draws of existing
    /// ones — the same determinism contract as the load models.
    pub fn generate(
        cfg: &FaultConfig,
        topo: &Topology,
        seed: MasterSeed,
        horizon: SimDuration,
    ) -> Self {
        let fault_seed = seed.child("faults");
        let mut events = Vec::new();
        for (link_id, link) in topo.links() {
            // Outage windows: non-overlapping per link.
            Self::windows(
                &mut events,
                &mut fault_seed.derive(&format!("outage.{}", link.name)),
                cfg.outage_mean_interarrival,
                cfg.outage_min,
                cfg.outage_max,
                horizon,
                |at, end| {
                    [
                        TimedFault {
                            at,
                            action: FaultAction::LinkDown(link_id),
                        },
                        TimedFault {
                            at: end,
                            action: FaultAction::LinkUp(link_id),
                        },
                    ]
                },
            );
            // Degradation episodes: non-overlapping per link; the factor
            // is drawn from the same stream as the window so the pair is
            // reproducible as a unit.
            if cfg.degrade_mean_interarrival > SimDuration::ZERO {
                use rand::Rng;
                let mut rng = fault_seed.derive(&format!("degrade.{}", link.name));
                let mut t = SimTime::ZERO;
                loop {
                    let gap = exponential(&mut rng, cfg.degrade_mean_interarrival.as_secs_f64());
                    let start = t + SimDuration::from_secs_f64(gap);
                    if start > SimTime::ZERO + horizon {
                        break;
                    }
                    let len = exponential(&mut rng, cfg.degrade_min.as_secs_f64().max(1.0))
                        .clamp(cfg.degrade_min.as_secs_f64(), cfg.degrade_max.as_secs_f64());
                    let end = start + SimDuration::from_secs_f64(len);
                    let factor = if cfg.degrade_factor_max > cfg.degrade_factor_min {
                        rng.gen_range(cfg.degrade_factor_min..cfg.degrade_factor_max)
                    } else {
                        cfg.degrade_factor_min
                    };
                    events.push(TimedFault {
                        at: start,
                        action: FaultAction::DegradeStart(link_id, factor),
                    });
                    events.push(TimedFault {
                        at: end,
                        action: FaultAction::DegradeEnd(link_id),
                    });
                    t = end;
                }
            }
            // Kill events: point process.
            if cfg.kill_mean_interarrival > SimDuration::ZERO {
                let mut rng = fault_seed.derive(&format!("kill.{}", link.name));
                let mut t = SimTime::ZERO;
                loop {
                    let gap = exponential(&mut rng, cfg.kill_mean_interarrival.as_secs_f64());
                    t += SimDuration::from_secs_f64(gap);
                    if t > SimTime::ZERO + horizon {
                        break;
                    }
                    events.push(TimedFault {
                        at: t,
                        action: FaultAction::KillFlows(link_id),
                    });
                }
            }
        }
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Generate non-overlapping `[start, end]` windows and push the two
    /// boundary events produced by `mk`.
    fn windows(
        events: &mut Vec<TimedFault>,
        rng: &mut StdRng,
        mean_gap: SimDuration,
        min_len: SimDuration,
        max_len: SimDuration,
        horizon: SimDuration,
        mk: impl Fn(SimTime, SimTime) -> [TimedFault; 2],
    ) {
        if mean_gap == SimDuration::ZERO {
            return;
        }
        let mut t = SimTime::ZERO;
        loop {
            let gap = exponential(rng, mean_gap.as_secs_f64());
            let start = t + SimDuration::from_secs_f64(gap);
            if start > SimTime::ZERO + horizon {
                break;
            }
            let len = exponential(rng, min_len.as_secs_f64().max(1.0))
                .max(min_len.as_secs_f64())
                .min(max_len.as_secs_f64());
            let end = start + SimDuration::from_secs_f64(len);
            events.extend(mk(start, end));
            t = end;
        }
    }

    /// The scheduled events, time-sorted.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of outage windows (diagnostics).
    pub fn outage_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::LinkDown(_)))
            .count()
    }

    /// Build a schedule directly from events (tests, scripted scenarios).
    pub fn from_events(mut events: Vec<TimedFault>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn topo() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_duplex_link("ab", a, b, 1e6, SimDuration::from_millis(10))
            .unwrap();
        t
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::wan_default();
        let t = topo();
        let a = FaultSchedule::generate(&cfg, &t, MasterSeed(7), SimDuration::from_days(14));
        let b = FaultSchedule::generate(&cfg, &t, MasterSeed(7), SimDuration::from_days(14));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig::wan_default();
        let t = topo();
        let a = FaultSchedule::generate(&cfg, &t, MasterSeed(1), SimDuration::from_days(14));
        let b = FaultSchedule::generate(&cfg, &t, MasterSeed(2), SimDuration::from_days(14));
        assert_ne!(a, b);
    }

    #[test]
    fn events_are_sorted_and_windows_are_paired() {
        let cfg = FaultConfig::wan_default();
        let t = topo();
        let s = FaultSchedule::generate(&cfg, &t, MasterSeed(3), SimDuration::from_days(14));
        for w in s.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Every LinkDown has a matching later LinkUp per link.
        let downs = s.outage_count();
        let ups = s
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::LinkUp(_)))
            .count();
        assert_eq!(downs, ups);
        // Degradation factors fall inside the configured band.
        for e in s.events() {
            if let FaultAction::DegradeStart(_, f) = e.action {
                assert!(
                    (cfg.degrade_factor_min..=cfg.degrade_factor_max).contains(&f),
                    "factor {f}"
                );
            }
        }
    }

    #[test]
    fn none_config_yields_empty_schedule() {
        let t = topo();
        let s = FaultSchedule::generate(
            &FaultConfig::none(),
            &t,
            MasterSeed(1),
            SimDuration::from_days(14),
        );
        assert!(s.is_empty());
    }

    #[test]
    fn horizon_bounds_event_times() {
        let cfg = FaultConfig::wan_default();
        let t = topo();
        let horizon = SimDuration::from_days(2);
        let s = FaultSchedule::generate(&cfg, &t, MasterSeed(5), horizon);
        for e in s.events() {
            // Window *starts* and kills are inside the horizon; a window
            // end may spill slightly past it, which the engine tolerates.
            if !matches!(
                e.action,
                FaultAction::LinkUp(_) | FaultAction::DegradeEnd(_)
            ) {
                assert!(e.at <= SimTime::ZERO + horizon, "{:?}", e);
            }
        }
    }
}

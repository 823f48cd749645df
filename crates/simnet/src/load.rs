//! Cross-traffic (background load) models.
//!
//! The paper's testbed links carry uncontrolled competing traffic; that
//! competition is the dominant source of the 1.5–10.2 MB/s spread seen in
//! Figures 1–2. We model background load on each link as a **competing
//! weight** `W(t) >= 0`: a foreground transfer using `n` parallel streams
//! on a link with capacity `C` and background weight `W` receives a fair
//! share of `C * n / (n + W)` when not limited elsewhere (see
//! [`crate::fair`]).
//!
//! `W(t)` is a piecewise-constant stochastic process advanced at discrete
//! ticks, built from three superposed components:
//!
//! 1. a **diurnal profile** — business-hours load is higher; the paper ran
//!    its controlled transfers 6 pm–8 am to dodge the worst of it, but the
//!    tail of the profile still modulates the observations;
//! 2. a mean-reverting **random walk** — slowly wandering baseline
//!    utilization (route changes, long-lived bulk flows);
//! 3. heavy-tailed **bursts** — Poisson arrivals of bursts whose durations
//!    are bounded-Pareto distributed ("elephant" flows joining the path).

use rand::rngs::StdRng;
use rand::Rng;

use crate::rng::{bounded_pareto, exponential, standard_normal, MasterSeed};
use crate::time::{SimDuration, SimTime};

/// A 24-entry hour-of-day multiplier profile for diurnal load.
///
/// Values are relative weights; `profile[h]` scales the diurnal component
/// during hour `h` (0–23, in the simulation's local time).
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    hours: [f64; 24],
}

impl DiurnalProfile {
    /// A flat (no diurnal variation) profile.
    pub fn flat(level: f64) -> Self {
        DiurnalProfile { hours: [level; 24] }
    }

    /// A typical research-network weekday profile: quiet overnight, ramping
    /// from 8 am, peaking early-to-mid afternoon, tapering through the
    /// evening. Values are multipliers around 1.0.
    pub fn business_hours() -> Self {
        let hours = [
            0.35, 0.30, 0.28, 0.27, 0.28, 0.32, // 00-05
            0.45, 0.65, 0.90, 1.15, 1.35, 1.45, // 06-11
            1.50, 1.55, 1.50, 1.40, 1.30, 1.15, // 12-17
            0.95, 0.80, 0.68, 0.58, 0.48, 0.40, // 18-23
        ];
        DiurnalProfile { hours }
    }

    /// Construct from explicit per-hour multipliers.
    pub fn from_hours(hours: [f64; 24]) -> Self {
        assert!(hours.iter().all(|h| h.is_finite() && *h >= 0.0));
        DiurnalProfile { hours }
    }

    /// Multiplier at a given time, linearly interpolated between hour
    /// midpoints so the profile is continuous.
    pub fn at(&self, t: SimTime, day_offset: SimDuration) -> f64 {
        let secs_of_day = (t.as_secs() + day_offset.as_secs()) % 86_400;
        let h = (secs_of_day / 3_600) as usize;
        let frac = (secs_of_day % 3_600) as f64 / 3_600.0;
        // Interpolate between the midpoint of hour h and hour h+1.
        let (a, b, w) = if frac < 0.5 {
            (self.hours[(h + 23) % 24], self.hours[h], frac + 0.5)
        } else {
            (self.hours[h], self.hours[(h + 1) % 24], frac - 0.5)
        };
        a + (b - a) * w
    }
}

/// Configuration for a link's background-load process.
#[derive(Debug, Clone)]
pub struct LoadModelConfig {
    /// Mean background weight contributed by the diurnal component.
    pub diurnal_mean_weight: f64,
    /// Hour-of-day shape of the diurnal component.
    pub profile: DiurnalProfile,
    /// Phase offset applied to the profile (models timezone differences
    /// between link endpoints; ESnet paths span CDT/PDT).
    pub phase: SimDuration,
    /// Standard deviation of the mean-reverting random-walk component per
    /// tick (Ornstein-Uhlenbeck style).
    pub walk_sigma: f64,
    /// Mean-reversion rate per tick for the random walk, in `[0, 1]`.
    pub walk_revert: f64,
    /// Mean time between burst arrivals.
    pub burst_mean_interarrival: SimDuration,
    /// Pareto shape for burst durations (lower = heavier tail).
    pub burst_alpha: f64,
    /// Minimum burst duration.
    pub burst_min: SimDuration,
    /// Maximum burst duration.
    pub burst_max: SimDuration,
    /// Weight added by a single burst (mean; actual is uniform 0.5x–1.5x).
    pub burst_weight: f64,
    /// Interval between state-advance ticks.
    pub tick: SimDuration,
}

impl Default for LoadModelConfig {
    fn default() -> Self {
        LoadModelConfig {
            diurnal_mean_weight: 6.0,
            profile: DiurnalProfile::business_hours(),
            phase: SimDuration::ZERO,
            walk_sigma: 0.35,
            walk_revert: 0.05,
            burst_mean_interarrival: SimDuration::from_mins(25),
            burst_alpha: 1.3,
            burst_min: SimDuration::from_secs(30),
            burst_max: SimDuration::from_hours(4),
            burst_weight: 4.0,
            tick: SimDuration::from_secs(60),
        }
    }
}

/// An active burst: extra weight until `until`.
#[derive(Debug, Clone, Copy)]
struct Burst {
    until: SimTime,
    weight: f64,
}

/// The per-link background-load process.
///
/// Advance with [`LinkLoadModel::advance_to`]; read the current competing
/// weight with [`LinkLoadModel::weight`]. The process is deterministic
/// given its seed and the sequence of advance times. The network calls
/// `advance_to` once per engine grid instant, in order, but lazily: a link
/// no flow crosses is left behind and replayed through every instant it
/// missed, one call each, when a flow is next admitted on it. The calls,
/// and so the draws, are those of ticking every link at every instant.
#[derive(Debug)]
pub struct LinkLoadModel {
    cfg: LoadModelConfig,
    rng: StdRng,
    /// Random-walk state (deviation around zero).
    walk: f64,
    /// Currently active bursts.
    bursts: Vec<Burst>,
    /// Next burst arrival time.
    next_burst: SimTime,
    /// Last time the state was advanced to.
    now: SimTime,
    /// The walk's own grid position: the time of its last step, a
    /// multiple of `cfg.tick`.
    walk_at: SimTime,
    /// Cached weight at `now`.
    weight: f64,
}

impl LinkLoadModel {
    /// Create a load model for one link.
    pub fn new(cfg: LoadModelConfig, seed: MasterSeed, label: &str) -> Self {
        assert!(cfg.tick > SimDuration::ZERO, "load tick must be positive");
        let mut rng = seed.derive(&format!("load.{label}"));
        let first_gap = exponential(&mut rng, cfg.burst_mean_interarrival.as_secs_f64());
        let next_burst = SimTime::ZERO + SimDuration::from_secs_f64(first_gap);
        let mut m = LinkLoadModel {
            cfg,
            rng,
            walk: 0.0,
            bursts: Vec::new(),
            next_burst,
            now: SimTime::ZERO,
            walk_at: SimTime::ZERO,
            weight: 0.0,
        };
        m.recompute();
        m
    }

    /// The model's tick interval (the engine schedules ticks at this rate).
    pub fn tick(&self) -> SimDuration {
        self.cfg.tick
    }

    /// Current competing weight (dimensionless, >= 0).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The time the state was last advanced to.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Advance internal state to `t`. Must be called with non-decreasing
    /// times; a repeated time changes nothing.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "load model time went backwards");
        // Evolve the random walk once per step of its own grid passed
        // since its last step, which a caller ticking faster than the
        // model leaves behind for a call or more.
        let steps = t.saturating_since(self.walk_at).as_micros() / self.cfg.tick.as_micros();
        for _ in 0..steps {
            let noise = standard_normal(&mut self.rng) * self.cfg.walk_sigma;
            self.walk += noise - self.cfg.walk_revert * self.walk;
        }
        self.walk_at += self.cfg.tick * steps;
        // Expire finished bursts and draw new arrivals up to t.
        self.bursts.retain(|b| b.until > t);
        while self.next_burst <= t {
            let dur_s = bounded_pareto(
                &mut self.rng,
                self.cfg.burst_alpha,
                self.cfg.burst_min.as_secs_f64(),
                self.cfg.burst_max.as_secs_f64(),
            );
            let w = self.cfg.burst_weight * self.rng.gen_range(0.5..1.5);
            self.bursts.push(Burst {
                until: self.next_burst + SimDuration::from_secs_f64(dur_s),
                weight: w,
            });
            let gap = exponential(
                &mut self.rng,
                self.cfg.burst_mean_interarrival.as_secs_f64(),
            );
            self.next_burst += SimDuration::from_secs_f64(gap);
        }
        self.bursts.retain(|b| b.until > t);
        self.now = t;
        self.recompute();
    }

    fn recompute(&mut self) {
        let diurnal = self.cfg.diurnal_mean_weight * self.cfg.profile.at(self.now, self.cfg.phase);
        let walk = self.walk * self.cfg.diurnal_mean_weight * 0.25;
        let bursts: f64 = self.bursts.iter().map(|b| b.weight).sum();
        self.weight = (diurnal + walk + bursts).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> LinkLoadModel {
        LinkLoadModel::new(LoadModelConfig::default(), MasterSeed(seed), "test")
    }

    #[test]
    fn weight_is_nonnegative_over_a_day() {
        let mut m = model(1);
        let tick = m.tick();
        let mut t = SimTime::ZERO;
        for _ in 0..(86_400 / tick.as_secs()) {
            t += tick;
            m.advance_to(t);
            assert!(m.weight() >= 0.0, "weight went negative at {t}");
            assert!(m.weight().is_finite());
        }
    }

    #[test]
    fn deterministic_replay() {
        let mut a = model(7);
        let mut b = model(7);
        let tick = a.tick();
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            t += tick;
            a.advance_to(t);
            b.advance_to(t);
            assert_eq!(a.weight(), b.weight());
        }
    }

    /// Walk steps taken over one day by a model with a `model_tick` walk
    /// driven every `drive` seconds.
    fn walk_steps_per_day(model_tick: u64, drive: u64) -> usize {
        let cfg = LoadModelConfig {
            tick: SimDuration::from_secs(model_tick),
            ..LoadModelConfig::default()
        };
        let mut m = LinkLoadModel::new(cfg, MasterSeed(5), "slow");
        let mut steps = 0;
        for k in 1..=86_400 / drive {
            let before = m.walk;
            m.advance_to(SimTime::from_secs(k * drive));
            steps += usize::from(m.walk.to_bits() != before.to_bits());
        }
        steps
    }

    #[test]
    fn a_slow_walk_driven_by_a_faster_tick_still_steps_on_its_own_grid() {
        // A network whose links mix ticks drives every link at the
        // fastest one: a 120-s walk driven every 60 s steps every other
        // call, as often as when driven on its own grid.
        assert_eq!(walk_steps_per_day(120, 60), 720);
        assert_eq!(walk_steps_per_day(120, 120), 720);
        assert_eq!(walk_steps_per_day(60, 60), 1_440);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = model(1);
        let mut b = model(2);
        let tick = a.tick();
        let mut t = SimTime::ZERO;
        let mut diffs = 0;
        for _ in 0..200 {
            t += tick;
            a.advance_to(t);
            b.advance_to(t);
            if (a.weight() - b.weight()).abs() > 1e-9 {
                diffs += 1;
            }
        }
        assert!(diffs > 100);
    }

    #[test]
    fn diurnal_daytime_exceeds_night() {
        // Average weight over midday hours should exceed overnight hours.
        let mut m = LinkLoadModel::new(
            LoadModelConfig {
                walk_sigma: 0.0,
                burst_weight: 0.0,
                ..LoadModelConfig::default()
            },
            MasterSeed(3),
            "diurnal",
        );
        let tick = m.tick();
        let mut night = (0.0, 0u32);
        let mut day = (0.0, 0u32);
        let mut t = SimTime::ZERO;
        for _ in 0..(86_400 / tick.as_secs()) {
            t += tick;
            m.advance_to(t);
            let hour = (t.as_secs() % 86_400) / 3_600;
            if (1..=4).contains(&hour) {
                night = (night.0 + m.weight(), night.1 + 1);
            } else if (12..=15).contains(&hour) {
                day = (day.0 + m.weight(), day.1 + 1);
            }
        }
        let night_avg = night.0 / night.1 as f64;
        let day_avg = day.0 / day.1 as f64;
        assert!(
            day_avg > 2.0 * night_avg,
            "day {day_avg} vs night {night_avg}"
        );
    }

    #[test]
    fn bursts_raise_weight_sometimes() {
        // With bursts enabled, the max weight over two days should clearly
        // exceed the diurnal ceiling.
        let cfg = LoadModelConfig::default();
        let ceiling = cfg.diurnal_mean_weight * 1.6;
        let mut m = LinkLoadModel::new(cfg, MasterSeed(11), "bursty");
        let tick = m.tick();
        let mut t = SimTime::ZERO;
        let mut max_w: f64 = 0.0;
        for _ in 0..(2 * 86_400 / tick.as_secs()) {
            t += tick;
            m.advance_to(t);
            max_w = max_w.max(m.weight());
        }
        assert!(max_w > ceiling, "max {max_w} ceiling {ceiling}");
    }

    #[test]
    fn profile_interpolation_is_continuous() {
        let p = DiurnalProfile::business_hours();
        let mut prev = p.at(SimTime::ZERO, SimDuration::ZERO);
        for s in (60..86_400).step_by(60) {
            let cur = p.at(SimTime::from_secs(s), SimDuration::ZERO);
            assert!(
                (cur - prev).abs() < 0.05,
                "profile jumped {prev} -> {cur} at {s}s"
            );
            prev = cur;
        }
    }

    #[test]
    fn flat_profile_is_flat() {
        let p = DiurnalProfile::flat(0.8);
        for h in 0..48 {
            assert!((p.at(SimTime::from_secs(h * 1800), SimDuration::ZERO) - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_shifts_profile() {
        let p = DiurnalProfile::business_hours();
        let noon = SimTime::from_secs(12 * 3_600);
        let shifted = p.at(noon, SimDuration::from_hours(12));
        let unshifted = p.at(noon, SimDuration::ZERO);
        // Midnight load (shifted) is far below noon load.
        assert!(shifted < 0.5 * unshifted);
    }
}

//! The paper's controlled experiment workload (§6.1).
//!
//! "Logs were generated using controlled GridFTP experiments that were
//! performed daily from 6 pm to 8 am CDT, selecting a random file size
//! from the set {1M, 2M, 5M, 10M, 25M, 50M, 100M, 150M, 250M, 400M,
//! 500M, 750M, 1G} and randomly sleeping from 1 minute to 10 hours
//! between file transfers."
//!
//! The sleep distribution is truncated-exponential: the paper gives only
//! the 1 min–10 h range, and a uniform draw over it would yield ~40
//! transfers per two-week campaign where the paper reports 350–450. A
//! truncated exponential with a ~27-minute mean reproduces both the
//! stated range and Figure 7's counts; the mean is configurable.

use rand::rngs::StdRng;
use rand::Rng;
use wanpred_simnet::rng::exponential;
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_storage::paper_fileset;

/// Configuration of the per-pair workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Daily window start hour (local, 0–23). Paper: 18 (6 pm).
    pub window_start_hour: u64,
    /// Daily window end hour (local). Paper: 8 (8 am). The window wraps
    /// midnight when `end < start`.
    pub window_end_hour: u64,
    /// Minimum inter-transfer sleep. Paper: 1 minute.
    pub sleep_min: SimDuration,
    /// Maximum inter-transfer sleep. Paper: 10 hours.
    pub sleep_max: SimDuration,
    /// Mean of the (truncated) exponential sleep draw.
    pub sleep_mean: SimDuration,
    /// Parallel streams. Paper: 8.
    pub streams: u32,
    /// Per-stream TCP buffer. Paper: 1 MB.
    pub tcp_buffer: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            window_start_hour: 18,
            window_end_hour: 8,
            sleep_min: SimDuration::from_mins(1),
            sleep_max: SimDuration::from_hours(10),
            sleep_mean: SimDuration::from_secs(27 * 60),
            streams: 8,
            tcp_buffer: 1_000_000,
        }
    }
}

impl WorkloadConfig {
    /// Whether local time `t` (sim epoch = local midnight) falls inside
    /// the daily experiment window.
    pub fn in_window(&self, t: SimTime) -> bool {
        let hour = (t.as_secs() / 3_600) % 24;
        if self.window_start_hour <= self.window_end_hour {
            (self.window_start_hour..self.window_end_hour).contains(&hour)
        } else {
            hour >= self.window_start_hour || hour < self.window_end_hour
        }
    }

    /// The next instant at or after `t` that lies inside the window.
    pub fn next_window_start(&self, t: SimTime) -> SimTime {
        if self.in_window(t) {
            return t;
        }
        let secs_of_day = t.as_secs() % 86_400;
        let day_start = t.as_secs() - secs_of_day;
        let today_open = day_start + self.window_start_hour * 3_600;
        let open = if secs_of_day < self.window_start_hour * 3_600 {
            today_open
        } else {
            today_open + 86_400
        };
        SimTime::from_secs(open)
    }

    /// Draw an inter-transfer sleep: exponential with the configured
    /// mean, truncated to `[sleep_min, sleep_max]`.
    pub fn draw_sleep(&self, rng: &mut StdRng) -> SimDuration {
        let s = exponential(rng, self.sleep_mean.as_secs_f64());
        let s = s.clamp(self.sleep_min.as_secs_f64(), self.sleep_max.as_secs_f64());
        SimDuration::from_secs_f64(s)
    }

    /// Draw a file from the paper's 13-size set; returns
    /// `(path, size in bytes)`.
    pub fn draw_file(&self, rng: &mut StdRng) -> (String, u64) {
        let set = paper_fileset();
        let (name, mb) = set[rng.gen_range(0..set.len())];
        (
            format!("/home/ftp/vazhkuda/{name}"),
            u64::from(mb) * 1_024_000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn at(day: u64, hour: u64, min: u64) -> SimTime {
        SimTime::from_secs(day * 86_400 + hour * 3_600 + min * 60)
    }

    #[test]
    fn window_wraps_midnight() {
        let w = WorkloadConfig::default();
        assert!(w.in_window(at(0, 18, 0)));
        assert!(w.in_window(at(0, 23, 59)));
        assert!(w.in_window(at(1, 0, 0)));
        assert!(w.in_window(at(1, 7, 59)));
        assert!(!w.in_window(at(1, 8, 0)));
        assert!(!w.in_window(at(1, 12, 0)));
        assert!(!w.in_window(at(1, 17, 59)));
    }

    #[test]
    fn non_wrapping_window() {
        let w = WorkloadConfig {
            window_start_hour: 9,
            window_end_hour: 17,
            ..WorkloadConfig::default()
        };
        assert!(w.in_window(at(0, 9, 0)));
        assert!(w.in_window(at(0, 16, 59)));
        assert!(!w.in_window(at(0, 17, 0)));
        assert!(!w.in_window(at(0, 3, 0)));
    }

    #[test]
    fn next_window_start_moves_forward() {
        let w = WorkloadConfig::default();
        // Inside the window: unchanged.
        assert_eq!(w.next_window_start(at(0, 19, 0)), at(0, 19, 0));
        // Midday: today 18:00.
        assert_eq!(w.next_window_start(at(2, 12, 0)), at(2, 18, 0));
        // 8:00 sharp (just closed): today 18:00.
        assert_eq!(w.next_window_start(at(2, 8, 0)), at(2, 18, 0));
    }

    #[test]
    fn sleep_draw_respects_bounds_and_mean() {
        let w = WorkloadConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 5_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = w.draw_sleep(&mut rng);
            assert!(s >= w.sleep_min && s <= w.sleep_max);
            sum += s.as_secs_f64();
        }
        let mean = sum / n as f64;
        // Truncation biases the mean up slightly from 1620 s.
        assert!((1_450.0..2_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn file_draw_covers_the_set() {
        let w = WorkloadConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let (path, size) = w.draw_file(&mut rng);
            assert!(path.starts_with("/home/ftp/vazhkuda/"));
            assert!((1_024_000..=1_024_000_000).contains(&size));
            seen.insert(path);
        }
        assert_eq!(seen.len(), 13, "all 13 sizes should appear");
    }
}

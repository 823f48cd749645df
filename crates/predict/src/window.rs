//! Context-insensitive history filters (§4.2).
//!
//! A [`Window`] selects which portion of the measurement history a
//! predictor sees: everything, a fixed number of most-recent values
//! (sliding window), or a temporal window of the most recent span of
//! time. Temporal windows matter because the paper's measurements arrive
//! at *irregular* intervals — "last 25 values" and "last 25 hours" select
//! very different data on a bursty log.

use crate::observation::Observation;

/// A history-selection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The entire history.
    All,
    /// The most recent `n` observations.
    LastN(usize),
    /// Observations within the last `secs` seconds before the prediction
    /// instant.
    LastSeconds(u64),
}

impl Window {
    /// Apply the window to a time-ordered history, given the prediction
    /// instant `now` (Unix seconds). Returns the selected suffix.
    ///
    /// The history must be sorted by `at_unix` (nondecreasing); the
    /// replay evaluator guarantees this.
    pub fn select<'a>(&self, history: &'a [Observation], now: u64) -> &'a [Observation] {
        match *self {
            Window::All => history,
            Window::LastN(n) => {
                let start = history.len().saturating_sub(n);
                &history[start..]
            }
            Window::LastSeconds(secs) => {
                let cutoff = now.saturating_sub(secs);
                let start = history.partition_point(|o| o.at_unix < cutoff);
                &history[start..]
            }
        }
    }

    /// Human-readable suffix used in predictor names ("5", "15hr", "10d").
    pub fn name_suffix(&self) -> String {
        match *self {
            Window::All => String::new(),
            Window::LastN(n) => n.to_string(),
            Window::LastSeconds(s) => {
                if s % 86_400 == 0 {
                    format!("{}d", s / 86_400)
                } else if s % 3_600 == 0 {
                    format!("{}hr", s / 3_600)
                } else {
                    format!("{s}s")
                }
            }
        }
    }
}

/// Convenience constructors matching the paper's Figure 4 windows.
pub mod paper {
    use super::Window;

    /// Last 5 observations.
    pub const LAST_5: Window = Window::LastN(5);
    /// Last 15 observations.
    pub const LAST_15: Window = Window::LastN(15);
    /// Last 25 observations.
    pub const LAST_25: Window = Window::LastN(25);
    /// Last 5 hours.
    pub const HOURS_5: Window = Window::LastSeconds(5 * 3_600);
    /// Last 15 hours.
    pub const HOURS_15: Window = Window::LastSeconds(15 * 3_600);
    /// Last 25 hours.
    pub const HOURS_25: Window = Window::LastSeconds(25 * 3_600);
    /// Last 5 days.
    pub const DAYS_5: Window = Window::LastSeconds(5 * 86_400);
    /// Last 10 days.
    pub const DAYS_10: Window = Window::LastSeconds(10 * 86_400);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(times: &[u64]) -> Vec<Observation> {
        times
            .iter()
            .map(|&t| Observation {
                at_unix: t,
                bandwidth_kbs: t as f64,
                file_size: 1,
                streams: 1,
                tcp_buffer: 0,
            })
            .collect()
    }

    #[test]
    fn all_selects_everything() {
        let h = obs(&[1, 2, 3]);
        assert_eq!(Window::All.select(&h, 100).len(), 3);
    }

    #[test]
    fn last_n_takes_suffix() {
        let h = obs(&[1, 2, 3, 4, 5]);
        let s = Window::LastN(2).select(&h, 100);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].at_unix, 4);
    }

    #[test]
    fn last_n_larger_than_history() {
        let h = obs(&[1, 2]);
        assert_eq!(Window::LastN(10).select(&h, 100).len(), 2);
    }

    #[test]
    fn temporal_window_cuts_by_time() {
        let h = obs(&[100, 200, 300, 400]);
        // now=450, window=200s -> cutoff=250 -> keep 300, 400.
        let s = Window::LastSeconds(200).select(&h, 450);
        assert_eq!(s.iter().map(|o| o.at_unix).collect::<Vec<_>>(), [300, 400]);
    }

    #[test]
    fn temporal_window_boundary_inclusive() {
        let h = obs(&[100, 250, 400]);
        // cutoff = 250 exactly: observation at 250 is kept (>= cutoff).
        let s = Window::LastSeconds(200).select(&h, 450);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn temporal_window_saturates_before_epoch() {
        let h = obs(&[1, 2]);
        let s = Window::LastSeconds(1_000_000).select(&h, 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_history() {
        let h: Vec<Observation> = Vec::new();
        assert!(Window::All.select(&h, 5).is_empty());
        assert!(Window::LastN(3).select(&h, 5).is_empty());
        assert!(Window::LastSeconds(3).select(&h, 5).is_empty());
    }

    #[test]
    fn name_suffixes_match_paper() {
        assert_eq!(paper::LAST_5.name_suffix(), "5");
        assert_eq!(paper::HOURS_15.name_suffix(), "15hr");
        assert_eq!(paper::DAYS_10.name_suffix(), "10d");
        assert_eq!(Window::All.name_suffix(), "");
        assert_eq!(Window::LastSeconds(90).name_suffix(), "90s");
    }
}

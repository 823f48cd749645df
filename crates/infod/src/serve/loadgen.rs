//! A deterministic open-loop inquiry generator.
//!
//! Open-loop means arrivals do not wait for completions: inquiries
//! arrive on a seeded Poisson process at a configured rate regardless of
//! how the service is coping — the `jmqd/simul` M/M/c methodology. That
//! is the regime where admission control matters: a closed-loop driver
//! self-throttles and never exposes the overload behavior the serving
//! layer must survive.
//!
//! Everything runs on sim time (microseconds derived from the seed), so
//! a run is a pure function of its configuration: same seed, same
//! arrival times, same filter choices, same report — which is what lets
//! the obs-determinism test pin byte-identical snapshots and the bench
//! compare server variants on identical workloads.

use crate::error::Error;
use crate::filter::Filter;
use crate::service::{CacheStatus, InquiryRequest, InquiryService};

use super::{splitmix64, unit_open01};

/// Label hashed with the seed to key the interarrival-gap stream.
const ARRIVALS_LABEL: u64 = 0xa5a5_5a5a_0f0f_f0f0;
/// Label hashed with the seed to key the filter-pick stream.
const PICKS_LABEL: u64 = 0x5ee1_bad0_cafe_f00d;

/// Configuration for one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Seed for the arrival and filter-choice streams.
    pub seed: u64,
    /// Mean arrival rate, inquiries per second.
    pub rate_per_sec: f64,
    /// Run length, seconds of sim time.
    pub duration_secs: u64,
    /// Unix second the run starts at.
    pub start_unix: u64,
    /// The filter pool; each arrival draws one uniformly.
    pub filters: Vec<String>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 0,
            rate_per_sec: 200.0,
            duration_secs: 30,
            start_unix: 1_000_000,
            filters: vec!["(objectclass=*)".to_string()],
        }
    }
}

/// What one open-loop run did.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Arrivals generated.
    pub offered: u64,
    /// Inquiries answered (admitted).
    pub answered: u64,
    /// Inquiries shed by admission control.
    pub shed: u64,
    /// Answered inquiries that were coalesced onto an in-flight twin.
    pub coalesced: u64,
    /// Answers served entirely from shard caches.
    pub cache_hit_responses: u64,
    /// Entries returned across all answers.
    pub entries_returned: u64,
    /// Answers containing at least one stamped (stale) entry.
    pub stale_responses: u64,
    /// The largest `stalenesssecs` observed across all answers.
    pub max_staleness_secs: u64,
    /// Answered inquiries per second of sim time.
    pub sustained_qps: f64,
    /// Modeled per-inquiry latencies, microseconds, sorted ascending.
    /// Empty when the service has no admission model (latency 0).
    pub latencies_us: Vec<u64>,
}

impl OpenLoopReport {
    /// The exact p-th percentile latency (nearest-rank), microseconds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let n = self.latencies_us.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        self.latencies_us[rank.min(n) - 1]
    }
}

/// Drive `svc` with seeded Poisson arrivals. `on_second(sec)` fires once
/// per sim second *before* that second's arrivals — the driver's hook to
/// run [`ShardedServer::refresh`](super::ShardedServer::refresh), renew
/// leases, or inject faults deterministically.
pub fn run_open_loop<S: InquiryService + ?Sized>(
    svc: &S,
    cfg: &OpenLoopConfig,
    mut on_second: impl FnMut(u64),
) -> OpenLoopReport {
    assert!(cfg.rate_per_sec > 0.0, "open-loop rate must be positive");
    assert!(!cfg.filters.is_empty(), "open-loop needs a filter pool");
    let filters: Vec<Filter> = cfg
        .filters
        .iter()
        .map(|f| crate::filter::parse(f).expect("open-loop filter must parse"))
        .collect();

    let start_us = cfg.start_unix * 1_000_000;
    let end_us = (cfg.start_unix + cfg.duration_secs) * 1_000_000;
    let mean_gap_us = 1_000_000.0 / cfg.rate_per_sec;

    // Each stream is keyed by hashing the seed with its own label, so no
    // seed's stream is another's shifted by a few draws.
    let arrivals = splitmix64(cfg.seed ^ ARRIVALS_LABEL);
    let picks = splitmix64(cfg.seed ^ PICKS_LABEL);
    let draw = |key: u64, n: u64| splitmix64(key ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));

    let mut report = OpenLoopReport::default();
    let mut t_us = start_us;
    let mut next_second = cfg.start_unix;
    let mut n = 0u64;
    loop {
        // Exponential interarrival on the arrival stream.
        n += 1;
        let gap = (-(unit_open01(draw(arrivals, n)).ln()) * mean_gap_us).round() as u64;
        t_us += gap.max(1);
        if t_us >= end_us {
            // Fire remaining second boundaries so per-second upkeep (and
            // the final report hooks) cover the whole configured window.
            while next_second < cfg.start_unix + cfg.duration_secs {
                on_second(next_second);
                next_second += 1;
            }
            break;
        }
        let now_unix = t_us / 1_000_000;
        while next_second <= now_unix {
            on_second(next_second);
            next_second += 1;
        }
        let pick = (draw(picks, n) % filters.len() as u64) as usize;
        let req = InquiryRequest::new(filters[pick].clone(), now_unix).at_micros(t_us);
        report.offered += 1;
        match svc.inquire(&req) {
            Ok(resp) => {
                report.answered += 1;
                report.entries_returned += resp.entries.len() as u64;
                report.max_staleness_secs = report.max_staleness_secs.max(resp.staleness_secs);
                if resp.staleness_secs > 0 {
                    report.stale_responses += 1;
                }
                if resp.provenance.cache == CacheStatus::Hit {
                    report.cache_hit_responses += 1;
                }
                if resp.provenance.coalesced {
                    report.coalesced += 1;
                }
                if let Some(lat) = resp.provenance.modeled_latency_us {
                    report.latencies_us.push(lat);
                }
            }
            Err(Error::Overloaded { .. }) => report.shed += 1,
            Err(_) => {}
        }
    }
    report.latencies_us.sort_unstable();
    report.sustained_qps = report.answered as f64 / cfg.duration_secs.max(1) as f64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gris::{Gris, InfoProvider, ProviderError};
    use crate::ldif::{Dn, Entry};
    use crate::serve::{AdmissionConfig, ServeConfig, ShardedServer};
    use std::sync::Arc;

    struct Fixed;

    impl InfoProvider for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn provide(&mut self, _now: u64) -> Result<Vec<Entry>, ProviderError> {
            let mut e = Entry::new(Dn::parse("cn=x, o=grid").unwrap());
            e.add("site", "lbl");
            Ok(vec![e])
        }
        fn ttl_secs(&self) -> u64 {
            3600
        }
    }

    fn server() -> ShardedServer {
        let srv = ShardedServer::new(ServeConfig {
            admission: Some(AdmissionConfig::default()),
            ..ServeConfig::default()
        });
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Fixed));
        srv.register_site("lbl", u64::MAX, Arc::new(g), 0);
        srv.refresh(0);
        srv
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = OpenLoopConfig {
            seed: 42,
            rate_per_sec: 500.0,
            duration_secs: 5,
            filters: vec!["(site=lbl)".into(), "(site=*)".into()],
            ..OpenLoopConfig::default()
        };
        let a = run_open_loop(&server(), &cfg, |_| {});
        let b = run_open_loop(&server(), &cfg, |_| {});
        assert!(a.offered > 1_000, "offered {}", a.offered);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.answered, b.answered);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.latencies_us, b.latencies_us);
        assert_eq!(a.entries_returned, b.entries_returned);
    }

    #[test]
    fn on_second_fires_once_per_second_in_order() {
        let cfg = OpenLoopConfig {
            seed: 1,
            rate_per_sec: 50.0,
            duration_secs: 4,
            start_unix: 100,
            filters: vec!["(site=lbl)".into()],
        };
        let mut seen = Vec::new();
        run_open_loop(&server(), &cfg, |s| seen.push(s));
        assert_eq!(seen, vec![100, 101, 102, 103]);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let r = OpenLoopReport {
            latencies_us: (1..=100).collect(),
            ..OpenLoopReport::default()
        };
        assert_eq!(r.percentile_us(50.0), 50);
        assert_eq!(r.percentile_us(95.0), 95);
        assert_eq!(r.percentile_us(99.0), 99);
        assert_eq!(r.percentile_us(100.0), 100);
        assert_eq!(OpenLoopReport::default().percentile_us(50.0), 0);
    }
}

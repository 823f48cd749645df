//! `inquiry_mix`: the read-heavy use of infod, reads beside writes, two
//! threads.
//!
//! A sharded server over 24 sites × 500 records is checked filter by
//! filter against the unsharded GIIS oracle, then driven by a
//! closed-loop client (brokers wait for replies) drawing from the
//! serving filter pool, the inquiry clock advancing one second per
//! thousand inquiries so cached and stamped-miss answers mix; every
//! tenth inquiry is followed by a broker selection over eight replicas.
//! Beside it a writer thread, every 50 ms, appends records to two
//! sites, renews their leases and refreshes the server; one site's
//! lease has lapsed, so its entries are served stale. `infod::serve`,
//! `infod::filter` and `replica::broker` dominate; simnet, gridftp and
//! logfmt do nothing. A read-path gain that costs the refresher, or the
//! reverse, shows here.
//!
//! The traced run adds an open-loop phase: fixed arrival rates on a
//! wall-clock schedule that does not slow when the server does, latency
//! taken from the due time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use wanpred_infod::{
    CacheStatus, Giis, GridFtpPerfProvider, ProviderConfig, Registration, ServeConfig,
    ShardedServer,
};
use wanpred_logfmt::{TransferLog, TransferRecord};
use wanpred_replica::{Broker, GiisPerfSource, PhysicalReplica, SelectionPolicy};
use wanpred_testbed::{serving_filters, serving_now_unix, serving_sites, SERVING_CLIENTS};

use super::{
    draw_paper_file, entry_set, inquire, release, site_gris, Counts, PassOut, TracedGris,
    TracedServer, Workload,
};
use crate::digest::Digest;
use crate::rng::{sub_seed, Rng};
use crate::stats::{percentile, sorted};
use crate::trace::{self, span};

/// Sites the writer appends to.
const WRITTEN_SITES: usize = 2;
/// Lease of a written site; the writer renews it every tick.
const WRITTEN_LEASE_SECS: u64 = 10;
/// Lease of the one site nobody renews.
const LAPSING_LEASE_SECS: u64 = 30;
const WRITER_THREAD: u8 = 1;

struct Sizes {
    sites: usize,
    records: usize,
    inquiries: usize,
    /// Inquiries per simulated second of the inquiry clock.
    inquiries_per_sim_sec: usize,
    select_every: usize,
    replicas: usize,
    writer_period_ms: u64,
    writer_batch: usize,
    /// Records per written site the writer may draw on before reusing.
    writer_pool: usize,
    open_loop_rates: [u64; 2],
    open_loop_ms: u64,
}

const FULL: Sizes = Sizes {
    sites: 24,
    records: 500,
    inquiries: 3_000,
    inquiries_per_sim_sec: 1_000,
    select_every: 10,
    replicas: 8,
    writer_period_ms: 50,
    writer_batch: 5,
    writer_pool: 500,
    open_loop_rates: [2_000, 6_000],
    open_loop_ms: 3_000,
};
const SMOKE: Sizes = Sizes {
    sites: 6,
    records: 40,
    inquiries: 400,
    inquiries_per_sim_sec: 100,
    select_every: 10,
    replicas: 4,
    writer_period_ms: 5,
    writer_batch: 2,
    writer_pool: 20,
    open_loop_rates: [2_000, 6_000],
    open_loop_ms: 50,
};

struct Site {
    host: String,
    base: TransferLog,
    shared: Arc<RwLock<TransferLog>>,
    /// Records the writer appends, in order, then again from the start.
    pool: Vec<TransferRecord>,
}

pub struct InquiryMix {
    seed: u64,
    sizes: Sizes,
    sites: Vec<Site>,
    server: Arc<TracedServer>,
    filters: Vec<String>,
    /// Entries each pool filter must return, or `None` where the
    /// writer's appends can change the match set.
    expected_entries: Vec<Option<usize>>,
    oracle_digest: Digest,
    oracle_mismatches: u64,
    /// The inquiry clock; it only moves forward, across passes too.
    now: u64,
}

/// Draws `0..n` in seeded random order, then again in a fresh order, and
/// so on: every filter of the pool is asked equally often, so a pass's
/// cost does not depend on the luck of the draw.
struct Shuffled {
    order: Vec<usize>,
    at: usize,
}

impl Shuffled {
    fn new(n: usize) -> Self {
        Shuffled {
            order: (0..n).collect(),
            at: n,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.at == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// What one client phase saw.
#[derive(Default)]
struct ClientTally {
    inquiries: u64,
    failed: u64,
    cache_hits: u64,
    stale_served: u64,
    selections: u64,
    informed: u64,
}

impl InquiryMix {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { SMOKE } else { FULL };
        let generated = serving_sites(sizes.sites, sizes.records + sizes.writer_pool, seed);
        let filters = serving_filters(&generated);
        let now0 = serving_now_unix(sizes.records);
        let lapsing = sizes.sites - 1;

        let server = Arc::new(ShardedServer::new(ServeConfig::default()));
        let oracle = Giis::new("oracle");
        let mut sites = Vec::new();
        for (i, s) in generated.into_iter().enumerate() {
            let (base, pool) = s.log.records().split_at(sizes.records);
            let base: TransferLog = base.iter().cloned().collect();
            let shared = Arc::new(RwLock::new(base.clone()));
            // A one-second provider TTL: every refresh at a new second
            // of the inquiry clock re-reads the live logs.
            let mut cfg = ProviderConfig::new(&s.host, &s.address);
            cfg.ttl_secs = 1;
            let gris = site_gris(GridFtpPerfProvider::from_shared(cfg, shared.clone()));
            let lease = if i < WRITTEN_SITES {
                WRITTEN_LEASE_SECS
            } else if i == lapsing {
                LAPSING_LEASE_SECS
            } else {
                u64::MAX
            };
            server.register_site(
                s.host.clone(),
                lease,
                Arc::new(TracedGris(gris.clone())),
                now0,
            );
            oracle.register_service(
                Registration {
                    id: s.host.clone(),
                    ttl_secs: lease,
                },
                gris,
                now0,
            );
            sites.push(Site {
                host: s.host,
                base,
                shared,
                pool: pool.to_vec(),
            });
        }
        server.refresh(now0);
        let server = Arc::new(TracedServer(server));

        // Correctness gate: every pool filter, byte for byte against the
        // oracle, while every lease is still current.
        let mut oracle_digest = Digest::new();
        let mut oracle_mismatches = 0;
        let mut expected_entries = Vec::new();
        for f in &filters {
            // Attribute comparisons move with the written sites'
            // averages; presence and equality filters on names do not.
            let stable = !f.contains(">=") && !f.contains("stalenesssecs");
            let mut expected = None;
            for t in [now0, now0 + 1, now0 + 7] {
                server.0.refresh(t);
                let got = inquire(&*server, f, t).map(|r| entry_set(&r));
                let want = inquire(&oracle, f, t).map(|r| entry_set(&r));
                match (got, want) {
                    (Ok(got), Ok(want)) if got == want => {
                        for e in &got {
                            oracle_digest.str(e);
                        }
                        if stable {
                            expected = Some(got.len());
                        }
                    }
                    _ => {
                        oracle_mismatches += 1;
                        eprintln!(
                            "wanbench: sharded answer differs from the oracle on {f} at t={t}"
                        );
                    }
                }
            }
            expected_entries.push(expected);
        }

        // Let the unrenewed lease lapse: from here on that site's last
        // view is carried forward and served stale.
        let now = now0 + 2 * LAPSING_LEASE_SECS;
        for s in &sites[..WRITTEN_SITES] {
            server.0.renew_site(&s.host, now);
        }
        server.0.refresh(now);
        let mut w = InquiryMix {
            seed,
            sizes,
            sites,
            server,
            filters,
            expected_entries,
            oracle_digest,
            oracle_mismatches,
            now,
        };
        // Warm-up: a tenth of a pass, writer running.
        let warm = w.sizes.inquiries / 10;
        w.closed_loop(warm, sub_seed(seed, "warm", 0), &mut Vec::new());
        w
    }

    /// Run `client` on this thread beside the writer thread; the writer
    /// stops when `client` returns. `clock` is the inquiry clock the
    /// client advances and the writer refreshes at.
    fn beside_writer<R>(&self, clock: &AtomicU64, client: impl FnOnce() -> R) -> R {
        let stop = AtomicBool::new(false);
        let iter = trace::current_iter();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                trace::set_iter(iter);
                self.writer(&stop, clock);
                trace::deposit(WRITER_THREAD);
            });
            let out = client();
            stop.store(true, Ordering::SeqCst);
            writer.join().expect("writer thread panicked");
            out
        })
    }

    /// Every period: append a batch to each written site (trimming its
    /// oldest records, so histories keep their length),
    /// renew the written sites' leases, refresh the server.
    fn writer(&self, stop: &AtomicBool, clock: &AtomicU64) {
        let period = Duration::from_millis(self.sizes.writer_period_ms);
        let mut cursor = 0usize;
        let mut next = Instant::now() + period;
        while !stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now < next {
                std::thread::sleep((next - now).min(period));
                continue;
            }
            next += period;
            let t = clock.load(Ordering::SeqCst);
            span("bench.writer_tick", || {
                for s in &self.sites[..WRITTEN_SITES] {
                    span("logfmt.append", || {
                        let mut log = s.shared.write();
                        for k in 0..self.sizes.writer_batch {
                            log.append(s.pool[(cursor + k) % s.pool.len()].clone());
                        }
                        log.truncate_front(self.sizes.records);
                    });
                    self.server.0.renew_site(&s.host, t);
                }
                span("infod.serve.refresh", || self.server.0.refresh(t));
            });
            cursor += self.sizes.writer_batch;
        }
    }

    /// `n` closed-loop inquiries (and the selections that ride on them)
    /// beside the writer. Pushes one latency per inquiry, milliseconds;
    /// returns the tally and the host seconds the client loop took.
    fn closed_loop(
        &mut self,
        n: usize,
        seed: u64,
        latencies_ms: &mut Vec<f64>,
    ) -> (ClientTally, f64) {
        let start = self.now;
        let clock = AtomicU64::new(start);
        let mut rng = Rng::new(seed);
        let mut broker = Broker::new(GiisPerfSource::new(self.server.clone()));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let mut tally = ClientTally::default();
        latencies_ms.reserve(n);

        let mut draw = Shuffled::new(self.filters.len());
        let timed_s = self.beside_writer(&clock, || {
            let t0 = Instant::now();
            span("bench.client_loop", || {
                for i in 0..n {
                    let t = start + (i / self.sizes.inquiries_per_sim_sec) as u64;
                    clock.store(t, Ordering::SeqCst);
                    let f = draw.next(&mut rng);
                    let t0 = Instant::now();
                    let resp = inquire(&*self.server, &self.filters[f], t);
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    tally.inquiries += 1;
                    match resp {
                        Ok(resp) => {
                            if self.expected_entries[f].is_some_and(|n| n != resp.entries.len()) {
                                tally.failed += 1;
                            }
                            if resp.provenance.cache == CacheStatus::Hit {
                                tally.cache_hits += 1;
                            }
                            if resp.staleness_secs > 0 {
                                tally.stale_served += 1;
                            }
                            release(resp);
                        }
                        Err(_) => tally.failed += 1,
                    }
                    if i % self.sizes.select_every == 0 {
                        self.select(&mut broker, &mut policy, &mut rng, t, &mut tally);
                    }
                }
            });
            t0.elapsed().as_secs_f64()
        });
        self.now = start + (n / self.sizes.inquiries_per_sim_sec) as u64 + 2;
        (tally, timed_s)
    }

    /// One broker selection over a random replica set.
    fn select(
        &self,
        broker: &mut Broker<GiisPerfSource>,
        policy: &mut SelectionPolicy,
        rng: &mut Rng,
        t: u64,
        tally: &mut ClientTally,
    ) {
        let (path, size) = draw_paper_file(rng);
        let first = rng.below(self.sites.len());
        let replicas: Vec<PhysicalReplica> = (0..self.sizes.replicas)
            .map(|k| PhysicalReplica {
                host: self.sites[(first + k) % self.sites.len()].host.clone(),
                path: path.clone(),
                size,
            })
            .collect();
        let client = SERVING_CLIENTS[rng.below(SERVING_CLIENTS.len())];
        let top = span("replica.broker.select", || {
            broker.select_top_k(client, &replicas, policy, 1, t)
        });
        tally.selections += 1;
        match top {
            Ok(top) if !top.degraded() => tally.informed += 1,
            Ok(_) => {}
            Err(_) => tally.failed += 1,
        }
    }

    /// Open loop at `rate` per second for the configured window:
    /// arrivals on a wall-clock schedule, latency from the due time.
    /// Returns `(latencies µs, worst generator lag µs)`.
    fn open_loop(&mut self, rate: u64, seed: u64) -> (Vec<f64>, f64) {
        let n = (rate * self.sizes.open_loop_ms / 1_000) as usize;
        let gap = Duration::from_secs_f64(1.0 / rate as f64);
        let start = self.now;
        let clock = AtomicU64::new(start);
        let mut rng = Rng::new(seed);
        let mut latencies_us = Vec::with_capacity(n);
        let mut worst_lag_us = 0.0f64;
        let mut draw = Shuffled::new(self.filters.len());
        self.beside_writer(&clock, || {
            let t_start = Instant::now();
            for i in 0..n {
                let due = t_start + gap * i as u32;
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let sent = Instant::now();
                worst_lag_us = worst_lag_us.max((sent - due).as_secs_f64() * 1e6);
                let t = start + (i / self.sizes.inquiries_per_sim_sec) as u64;
                clock.store(t, Ordering::SeqCst);
                let f = &self.filters[draw.next(&mut rng)];
                let resp = inquire(&*self.server, f, t);
                latencies_us.push((Instant::now() - due).as_secs_f64() * 1e6);
                drop(resp);
            }
        });
        self.now = start + (n / self.sizes.inquiries_per_sim_sec) as u64 + 2;
        (latencies_us, worst_lag_us)
    }
}

impl Workload for InquiryMix {
    /// The written sites' histories go back to what they were loaded
    /// with.
    fn prepare(&mut self, _index: u64) {
        for s in &self.sites[..WRITTEN_SITES] {
            *s.shared.write() = s.base.clone();
        }
    }

    fn pass(&mut self, index: u64) -> PassOut {
        let mut out = PassOut::new();
        let seed = sub_seed(self.seed, "inquiry_mix", index);
        let (tally, timed_s) = self.closed_loop(self.sizes.inquiries, seed, &mut out.latencies_ms);
        out.timed_s = timed_s;
        out.ops = tally.inquiries;
        out.failed = tally.failed;
        // Two threads race in the timed phase, so the digest covers what
        // is deterministic: the oracle-checked answers.
        out.digest = self.oracle_digest;
        out.add("infod.inquiries", tally.inquiries as f64);
        out.add("infod.cache_hits", tally.cache_hits as f64);
        out.add("infod.serve.stale_served", tally.stale_served as f64);
        out.add("replica.selections", tally.selections as f64);
        out.add("replica.informed", tally.informed as f64);
        out.check(
            self.oracle_mismatches == 0,
            "every pool filter matched the oracle before timing",
        );
        out.check(
            tally.stale_served > 0,
            "the lapsed site's entries were served stale",
        );
        out
    }

    fn layer_probes(&mut self) -> Counts {
        let mut c = Counts::new();
        let mut worst_lag = 0.0f64;
        for (rate, [p50, p99]) in self.sizes.open_loop_rates.into_iter().zip([
            [
                "infod.serve.open_us_p50_r2000",
                "infod.serve.open_us_p99_r2000",
            ],
            [
                "infod.serve.open_us_p50_r6000",
                "infod.serve.open_us_p99_r6000",
            ],
        ]) {
            let (us, lag) = self.open_loop(rate, sub_seed(self.seed, "open_loop", rate));
            let us = sorted(us);
            c.insert(p50, percentile(&us, 50.0));
            c.insert(p99, percentile(&us, 99.0));
            worst_lag = worst_lag.max(lag);
        }
        c.insert("bench.gen_lag_us_max", worst_lag);
        c
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        let s = &self.sizes;
        vec![
            ("sites", s.sites as u64),
            ("records_per_site", s.records as u64),
            ("inquiries_per_pass", s.inquiries as u64),
            ("inquiries_per_sim_sec", s.inquiries_per_sim_sec as u64),
            ("select_every", s.select_every as u64),
            ("replicas_per_selection", s.replicas as u64),
            ("writer_period_ms", s.writer_period_ms),
            ("writer_records_per_site_per_tick", s.writer_batch as u64),
            ("written_sites", WRITTEN_SITES as u64),
            ("lapsed_sites", 1),
            ("open_loop_rate_lo", s.open_loop_rates[0]),
            ("open_loop_rate_hi", s.open_loop_rates[1]),
            ("open_loop_ms", s.open_loop_ms),
        ]
    }
}

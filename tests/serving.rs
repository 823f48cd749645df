//! Acceptance tests for the sharded serving layer: answers must be
//! byte-identical to the unsharded oracle, every response must come from
//! a single refresh generation (the staleness-bug regression), overload
//! must shed deterministically with a typed rejection, and a dead
//! registrant must be served stale — correctly stamped — rather than
//! dropped or blocked on.

use std::sync::Arc;

use wanpred_core::infod::{
    run_open_loop, AdmissionConfig, CacheStatus, Dn, Entry, Error, Giis, GridFtpPerfProvider, Gris,
    InfoProvider, InquiryRequest, InquiryService, OpenLoopConfig, ProviderConfig, ProviderError,
    Registration, ServeConfig, ServedBy, ShardedServer,
};
use wanpred_core::testbed::{serving_filters, serving_now_unix, serving_sites};

fn site_grises(sites: usize, records: usize, seed: u64) -> Vec<(String, Arc<Gris>)> {
    serving_sites(sites, records, seed)
        .iter()
        .map(|s| {
            let mut g = Gris::new(Dn::parse("o=grid").unwrap());
            g.register_provider(Box::new(GridFtpPerfProvider::from_snapshot(
                ProviderConfig::new(&s.host, &s.address),
                s.log.clone(),
            )));
            (s.host.clone(), Arc::new(g))
        })
        .collect()
}

fn sorted_ldif(svc: &dyn InquiryService, filter: &str, now: u64) -> Vec<String> {
    let req = InquiryRequest::parse(filter, now).unwrap();
    let mut out: Vec<String> = svc
        .inquire(&req)
        .expect("inquiry answered")
        .entries
        .iter()
        .map(|e| e.to_ldif())
        .collect();
    out.sort();
    out
}

#[test]
fn sharded_answers_match_the_unsharded_oracle_byte_for_byte() {
    let grises = site_grises(9, 25, 4);
    let now = serving_now_unix(25);

    let server = ShardedServer::new(ServeConfig::default());
    let oracle = Giis::new("oracle");
    for (host, g) in &grises {
        server.register_site(host.clone(), u64::MAX, g.clone(), now);
        oracle.register_service(
            Registration {
                id: host.clone(),
                ttl_secs: u64::MAX,
            },
            g.clone(),
            now,
        );
    }
    server.refresh(now);

    let mut nonempty = 0;
    for f in serving_filters(&serving_sites(9, 25, 4)) {
        for t in [now, now + 3] {
            let a = sorted_ldif(&server, &f, t);
            assert_eq!(a, sorted_ldif(&oracle, &f, t), "diverged on {f} at {t}");
            nonempty += usize::from(!a.is_empty());
        }
    }
    assert!(nonempty > 6, "the pool exercised real answers");
}

/// The regression the snapshot read path exists for: a provider whose
/// every materialization is tagged with a refresh-generation marker;
/// concurrent readers hammering the server across refreshes must never
/// observe a response mixing two generations — under the old inline
/// `&mut self` refresh a filter could see entries from both sides of a
/// mid-refresh window.
struct GenerationMarked {
    calls: u64,
    entries: usize,
}

impl InfoProvider for GenerationMarked {
    fn name(&self) -> &str {
        "generation-marked"
    }
    fn provide(&mut self, _now: u64) -> Result<Vec<Entry>, ProviderError> {
        self.calls += 1;
        Ok((0..self.entries)
            .map(|i| {
                let mut e = Entry::new(Dn::parse(&format!("cn=e{i}, o=grid")).unwrap());
                e.add("objectclass", "GenProbe");
                e.add("generation", self.calls.to_string());
                e
            })
            .collect())
    }
    fn ttl_secs(&self) -> u64 {
        1 // re-provide on every advancing-second refresh
    }
}

#[test]
fn responses_never_mix_refresh_generations() {
    let mut g = Gris::new(Dn::parse("o=grid").unwrap());
    g.register_provider(Box::new(GenerationMarked {
        calls: 0,
        entries: 50,
    }));
    let server = ShardedServer::new(ServeConfig {
        cache_ttl_secs: 0, // force the filter path every read
        ..ServeConfig::default()
    });
    server.register_site("gen", u64::MAX, Arc::new(g), 0);
    server.refresh(0);

    let rounds = 400u64;
    std::thread::scope(|scope| {
        let server = &server;
        let readers: Vec<_> = (0..2)
            .map(|r| {
                scope.spawn(move || {
                    let mut observed = Vec::new();
                    for t in 0..rounds {
                        let req = InquiryRequest::parse("(objectclass=GenProbe)", t + r).unwrap();
                        let resp = server.inquire(&req).unwrap();
                        assert_eq!(resp.entries.len(), 50);
                        let gens: Vec<&str> = resp
                            .entries
                            .iter()
                            .filter_map(|e| e.get("generation"))
                            .collect();
                        let first = gens[0];
                        assert!(
                            gens.iter().all(|g| *g == first),
                            "response mixed refresh generations: {gens:?}"
                        );
                        observed.push(first.parse::<u64>().unwrap());
                    }
                    observed
                })
            })
            .collect();
        for t in 1..=rounds {
            server.refresh(t);
        }
        for r in readers {
            let observed = r.join().unwrap();
            // Readers really did span many distinct refresh generations.
            let (min, max) = (
                observed.iter().min().unwrap(),
                observed.iter().max().unwrap(),
            );
            assert!(max > min, "reader never crossed a refresh boundary");
        }
    });
}

#[test]
fn overload_sheds_deterministically_with_a_typed_rejection() {
    let mk = || {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(GenerationMarked {
            calls: 0,
            entries: 3,
        }));
        let server = ShardedServer::new(ServeConfig {
            admission: Some(AdmissionConfig {
                servers: 1,
                mean_service_us: 2_000,
                max_queue: 4,
                coalesce: false,
                seed: 0,
            }),
            ..ServeConfig::default()
        });
        server.register_site("gen", u64::MAX, Arc::new(g), 1_000_000);
        server.refresh(1_000_000);
        server
    };
    let cfg = OpenLoopConfig {
        seed: 11,
        rate_per_sec: 2_000.0, // 4x the 500/s modeled capacity
        duration_secs: 3,
        start_unix: 1_000_000,
        filters: vec!["(objectclass=GenProbe)".into(), "(cn=e1)".into()],
    };
    let a = run_open_loop(&mk(), &cfg, |_| {});
    let b = run_open_loop(&mk(), &cfg, |_| {});
    assert!(a.shed > 0, "over-capacity stream must shed");
    assert!(a.answered > 0, "admitted work still answers");
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.latencies_us, b.latencies_us);
    assert_eq!(a.offered, a.answered + a.shed, "no inquiry vanished");

    // The rejection is a typed error the caller can match on, not a stall.
    let server = mk();
    let req = InquiryRequest::parse("(objectclass=GenProbe)", 1_000_000).unwrap();
    let mut saw_overload = false;
    for _ in 0..50 {
        match server.inquire(&req) {
            Ok(_) => {}
            Err(Error::Overloaded { queued, limit }) => {
                assert_eq!(queued, limit);
                saw_overload = true;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_overload, "hammering one instant must hit the queue cap");
}

#[test]
fn dead_registrant_is_served_stale_with_an_exact_stamp() {
    let grises = site_grises(2, 15, 8);
    let now = serving_now_unix(15);
    let server = ShardedServer::new(ServeConfig::default());
    server.register_site(grises[0].0.clone(), 40, grises[0].1.clone(), now);
    server.register_site(grises[1].0.clone(), u64::MAX, grises[1].1.clone(), now);
    let dead = format!("(&(objectclass=GridFTPPerfInfo)(hostname={}))", grises[0].0);

    let mut last_live = now;
    for t in now..now + 100 {
        let live = server.live_sites(t).iter().any(|s| s == &grises[0].0);
        server.refresh(t);
        let resp = server
            .inquire(&InquiryRequest::parse(&dead, t).unwrap())
            .expect("serve-stale never errors");
        assert!(!resp.entries.is_empty(), "dead site dropped at t={t}");
        if live {
            last_live = t;
            assert_eq!(resp.staleness_secs, 0);
        } else {
            assert_eq!(resp.staleness_secs, t - last_live, "wrong stamp at t={t}");
            for e in &resp.entries {
                assert_eq!(
                    e.get("stalenesssecs"),
                    Some((t - last_live).to_string().as_str())
                );
            }
        }
    }
    assert!(now + 99 - last_live > 50, "the lease never died");
}

#[test]
fn cache_and_shard_provenance_is_reported() {
    let grises = site_grises(3, 10, 5);
    let now = serving_now_unix(10);
    let server = ShardedServer::new(ServeConfig::default());
    for (host, g) in &grises {
        server.register_site(host.clone(), u64::MAX, g.clone(), now);
    }
    server.refresh(now);

    let req = InquiryRequest::parse("(objectclass=GridFTPPerfInfo)", now).unwrap();
    let first = server.inquire(&req).unwrap();
    assert_eq!(first.provenance.source, ServedBy::ShardedServer);
    assert_eq!(first.provenance.cache, CacheStatus::Miss);
    assert!(!first.provenance.shards.is_empty());
    let again = server.inquire(&req).unwrap();
    assert_eq!(again.provenance.cache, CacheStatus::Hit);
    assert_eq!(again.entries.len(), first.entries.len());
}

/// Erlang's blocking probability P_K of an M/M/c/K queue offered `a`
/// erlangs: the stationary chance that an arrival finds all `k` places
/// (`c` in service, `k - c` waiting) taken.
fn erlang_blocking(c: usize, k: usize, a: f64) -> f64 {
    // Unnormalised p_n = p_{n-1} · a / min(n, c), from p_0 = 1.
    let mut p = vec![1.0f64];
    for n in 1..=k {
        p.push(p[n - 1] * a / n.min(c) as f64);
    }
    p[k] / p.iter().sum::<f64>()
}

#[test]
fn admission_queue_sheds_at_erlangs_blocking_probability() {
    // The virtual queue is M/M/c/K with K = servers + max_queue: Poisson
    // arrivals, exponential 500 µs service, no coalescing. Two points,
    // eight seeds each, at least 50 000 arrivals per seed: M/M/4/68
    // overloaded at ρ = 1.25 (P_K = 0.200) and M/M/1/5 at ρ = 0.9
    // (P_K = 0.126).
    // The oracle agrees with M/M/1/K's closed form (1-ρ)ρ^K / (1-ρ^(K+1)).
    let closed = 0.1 * 0.9f64.powi(5) / (1.0 - 0.9f64.powi(6));
    assert!((erlang_blocking(1, 5, 0.9) - closed).abs() < 1e-12);
    for (servers, max_queue, rate, secs) in [(4, 64, 10_000.0, 6), (1, 4, 1_800.0, 30)] {
        let p_k = erlang_blocking(servers, servers + max_queue, rate * 500e-6);
        let mut shed: Vec<f64> = (0..8u64)
            .map(|seed| {
                let server = ShardedServer::new(ServeConfig {
                    admission: Some(AdmissionConfig {
                        servers,
                        mean_service_us: 500,
                        max_queue,
                        coalesce: false,
                        seed,
                    }),
                    ..ServeConfig::default()
                });
                let cfg = OpenLoopConfig {
                    seed,
                    rate_per_sec: rate,
                    duration_secs: secs,
                    start_unix: 1_000_000,
                    filters: vec!["(objectclass=*)".into()],
                };
                let r = run_open_loop(&server, &cfg, |_| {});
                assert!(r.offered >= 50_000, "seed {seed}: {} arrivals", r.offered);
                r.shed as f64 / r.offered as f64
            })
            .collect();
        shed.sort_by(f64::total_cmp);
        let median = (shed[3] + shed[4]) / 2.0;
        assert!(
            (median - p_k).abs() < 0.015,
            "M/M/{servers}/{}: median shed {median:.4} vs P_K {p_k:.4} (seeds {shed:.4?})",
            servers + max_queue
        );
    }
}

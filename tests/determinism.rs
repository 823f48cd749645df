//! Determinism guarantees: everything downstream of a seed is a pure
//! function of that seed. Reproducibility is what lets the evaluation
//! compare 30 predictors on *identical* histories.

use wanpred_core::prelude::*;

fn run(seed: u64, days: u64) -> CampaignResult {
    run_campaign(&CampaignConfig {
        seed: MasterSeed(seed),
        duration: SimDuration::from_days(days),
        ..CampaignConfig::august(seed)
    })
}

/// A faulty variant of [`run`]: same campaign plus the calibrated fault
/// profile and retry policy.
fn run_faulty(seed: u64, days: u64) -> CampaignResult {
    run_campaign(
        &CampaignConfig {
            seed: MasterSeed(seed),
            duration: SimDuration::from_days(days),
            ..CampaignConfig::august(seed)
        }
        .with_faults(),
    )
}

#[test]
fn identical_seeds_identical_everything() {
    let a = run(9, 2);
    let b = run(9, 2);
    assert_eq!(a.lbl_log, b.lbl_log);
    assert_eq!(a.isi_log, b.isi_log);
    assert_eq!(a.lbl_probes.len(), b.lbl_probes.len());
    for (x, y) in a.lbl_probes.iter().zip(&b.lbl_probes) {
        assert_eq!(x, y);
    }
    // And therefore identical evaluation results.
    let ra = Evaluation::builder().build().run_log(&a.lbl_log);
    let rb = Evaluation::builder().build().run_log(&b.lbl_log);
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.mape(), y.mape(), "{}", x.name);
    }
}

#[test]
fn faulty_campaigns_replay_identically() {
    // Fault schedules, retry backoff jitter and resumed transfers are
    // all derived from the master seed: a faulty run replays bit for
    // bit, which is what makes fault scenarios debuggable at all.
    let a = run_faulty(9, 3);
    let b = run_faulty(9, 3);
    assert!(a.fault_events > 0);
    assert_eq!(a.lbl_log, b.lbl_log);
    assert_eq!(a.isi_log, b.isi_log);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.failed_transfers, b.failed_transfers);
    assert_eq!(a.lbl_probes.len(), b.lbl_probes.len());
    // And the injected faults actually change history relative to the
    // clean run of the same seed (on at least one path; short horizons
    // may leave the other untouched).
    let clean = run(9, 3);
    assert!(
        clean.lbl_log != a.lbl_log || clean.isi_log != a.isi_log,
        "faults left both logs untouched"
    );
}

#[test]
fn faulty_double_run_is_byte_identical() {
    // Stronger than structural equality: the exact ULM text and the
    // serialized CampaignResult must match byte for byte, so a re-run
    // can be diffed against an archived artifact. This is what the
    // BTreeMap decision paths and the modeled (wall-clock-free) logging
    // cost buy us — and what the tidy pass guards.
    let a = run_faulty(11, 2);
    let b = run_faulty(11, 2);

    let ulm_bytes = |log: &wanpred_core::logfmt::TransferLog| -> Vec<u8> {
        let mut s = String::new();
        for r in log.records() {
            s.push_str(&wanpred_core::logfmt::encode(r));
            s.push('\n');
        }
        s.into_bytes()
    };
    assert_eq!(ulm_bytes(&a.lbl_log), ulm_bytes(&b.lbl_log));
    assert_eq!(ulm_bytes(&a.isi_log), ulm_bytes(&b.isi_log));

    let ja = serde_json::to_string(&a).expect("serialize campaign result");
    let jb = serde_json::to_string(&b).expect("serialize campaign result");
    assert_eq!(ja.into_bytes(), jb.into_bytes());
}

#[test]
fn coalloc_faulty_campaigns_replay_byte_identically() {
    // The co-allocating client adds stripe planning, EWMA progress
    // monitoring, failover re-planning and blacklist decay on top of the
    // transfer manager — all of it keyed on sim time and seed-derived
    // randomness, so a faulty co-allocated campaign must replay bit for
    // bit like any other.
    use wanpred_core::gridftp::RetryPolicy;
    use wanpred_core::simnet::fault::FaultConfig;

    let cfg = || {
        CampaignConfig::builder(13)
            .duration_days(3)
            .probes(false)
            .faults(FaultConfig {
                kill_mean_interarrival: SimDuration::from_mins(40),
                ..FaultConfig::wan_default()
            })
            .retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::wan_default()
            })
            .coalloc(2)
            .build()
    };
    let a = run_campaign(&cfg());
    let b = run_campaign(&cfg());
    let sa = a.coalloc.as_ref().expect("coalloc mode");
    assert!(sa.completed > 0, "campaign moved no files");
    assert_eq!(sa.tiling_violations, 0, "byte range double-counted");
    assert_eq!(a.coalloc, b.coalloc);
    assert_eq!(a.lbl_log, b.lbl_log);
    assert_eq!(a.isi_log, b.isi_log);
    // Byte-for-byte on the serialized result, stripe counters included.
    let ja = serde_json::to_string(&a).expect("serialize campaign result");
    let jb = serde_json::to_string(&b).expect("serialize campaign result");
    assert_eq!(ja.into_bytes(), jb.into_bytes());
}

/// The four campaign shapes the staged pin covers, each on a fresh
/// enabled sink: clean with probes, faulty with retry, chaos at 5 %, and
/// faulty co-allocation at k = 2.
fn staged_pin_config(shape: usize, sink: ObsSink) -> CampaignConfig {
    use wanpred_core::gridftp::RetryPolicy;
    use wanpred_core::simnet::fault::FaultConfig;

    let b = CampaignConfig::builder(17).duration_days(2).obs(sink);
    match shape {
        0 => b,
        1 => b
            .faults(FaultConfig::wan_default())
            .retry(RetryPolicy::wan_default()),
        2 => b.chaos(0.05),
        _ => b.faults(FaultConfig::wan_default()).coalloc(2),
    }
    .build()
}

/// `(CampaignResult JSON, snapshot JSON)` of a campaign of `shape`:
/// one-shot through `run_campaign` when `stages` is `None`, otherwise
/// `run_until` at each horizon in turn, then `finish`.
fn staged_pin_bytes(shape: usize, stages: Option<&[u64]>) -> (String, String) {
    let sink = ObsSink::enabled();
    let cfg = staged_pin_config(shape, sink.clone());
    let result = match stages {
        None => run_campaign(&cfg),
        Some(stages) => {
            let mut campaign = Campaign::new(&cfg);
            for &t in stages {
                campaign.run_until(SimTime::from_micros(t));
            }
            campaign.finish()
        }
    };
    (
        serde_json::to_string(&result).expect("serialize campaign result"),
        serde_json::to_string(&sink.snapshot()).expect("serialize snapshot"),
    )
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    /// Stopping and resuming a campaign is invisible: for the pair loops
    /// and the co-allocating loop alike, any sequence of up to five
    /// stage horizons in `[0, duration + 1 day]` (unsorted, repeats and
    /// overshoot allowed) serialises to the bytes `run_campaign` gives,
    /// metric snapshot included.
    #[test]
    fn staged_pair_and_coalloc_campaigns_match_one_shot(
        stages in proptest::collection::vec(0..=SimDuration::from_days(3).as_micros(), 0..=5)
    ) {
        static ONE_SHOT: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
        let one_shot = ONE_SHOT.get_or_init(|| (0..4).map(|shape| staged_pin_bytes(shape, None)).collect());
        for (shape, want) in one_shot.iter().enumerate() {
            let got = staged_pin_bytes(shape, Some(&stages));
            assert!(got.0 == want.0, "shape {shape}: result differs after stages {stages:?}");
            assert!(got.1 == want.1, "shape {shape}: snapshot differs after stages {stages:?}");
        }
    }
}

#[test]
fn different_seeds_different_histories() {
    let a = run(1, 2);
    let b = run(2, 2);
    assert_ne!(a.lbl_log, b.lbl_log);
}

#[test]
fn longer_run_extends_shorter_run() {
    // The first N transfers of a longer campaign equal the shorter
    // campaign's transfers: time evolution does not depend on the
    // horizon.
    let short = run(5, 2);
    let long = run(5, 4);
    let s = short.lbl_log.records();
    let l = &long.lbl_log.records()[..s.len()];
    // Transfers still in flight at the short horizon are absent from the
    // short log, so compare the common prefix minus the final entry.
    let n = s.len().saturating_sub(1);
    assert!(n > 10);
    assert_eq!(&s[..n], &l[..n]);
}

#[test]
fn august_and_december_produce_distinct_but_plausible_logs() {
    let aug = run_campaign(&CampaignConfig {
        duration: SimDuration::from_days(3),
        ..CampaignConfig::august(7)
    });
    let dec = run_campaign(&CampaignConfig {
        duration: SimDuration::from_days(3),
        ..CampaignConfig::december(7)
    });
    assert_ne!(aug.lbl_log, dec.lbl_log);
    // Timestamps live in their respective months.
    assert!(aug
        .lbl_log
        .records()
        .iter()
        .all(|r| (996_642_000..999_320_400).contains(&r.start_unix)));
    assert!(dec
        .lbl_log
        .records()
        .iter()
        .all(|r| r.start_unix >= 1_007_186_400));
}

#[test]
fn paper_suite_evaluation_is_pure() {
    // Evaluating twice over the same series gives identical reports
    // (predictors hold no hidden state).
    let r = run(11, 2);
    let obs = wanpred_core::testbed::observation_series(&r, Pair::IsiAnl);
    let suite = full_suite();
    let opts = EvalOptions::default();
    let sink = ObsSink::disabled();
    let e1 = Evaluation::replay(&obs, &suite, opts, &sink);
    let e2 = Evaluation::replay(&obs, &suite, opts, &sink);
    for (a, b) in e1.iter().zip(&e2) {
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        assert_eq!(a.mape(), b.mape());
    }
}

#[test]
fn tournament_reports_are_bit_identical_to_the_slice_oracle_on_campaign_logs() {
    // The tournament answers for its standard candidates from shared
    // append-only accumulators; hiding the candidates' specs forces the
    // slice-based fallback it keeps for custom predictors. On the logs
    // the figures are drawn from, and on a faulty co-allocated campaign
    // (killed stripes, failover re-plans, retries), both must produce
    // the same report to the bit — in log (arrival) order, which is
    // what a provider or broker observes, and in the time-sorted order
    // the figures use. Out-of-start-order arrival is generated on
    // purpose in `predict/tests/proptest_tournament.rs`.
    use wanpred_core::gridftp::RetryPolicy;
    use wanpred_core::predict::testing::hide_specs;
    use wanpred_core::simnet::fault::FaultConfig;

    let coalloc = CampaignConfig::builder(13)
        .duration_days(3)
        .probes(false)
        .faults(FaultConfig {
            kill_mean_interarrival: SimDuration::from_mins(40),
            ..FaultConfig::wan_default()
        })
        .retry(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::wan_default()
        })
        .coalloc(2)
        .build();
    let campaigns = [
        ("august", CampaignConfig::august(42)),
        ("december", CampaignConfig::december(42)),
        ("coalloc", coalloc),
    ];
    let sink = ObsSink::disabled();
    let replay = |series: &[Observation], suite: Vec<NamedPredictor>| {
        let t = Tournament::new(suite, TournamentOptions::default());
        replay_tournament(series, t, &sink)
    };
    for (name, cfg) in campaigns {
        let result = run_campaign(&cfg);
        for pair in Pair::ALL {
            let arrival = observations_from_log(result.log(pair));
            let sorted = wanpred_core::testbed::observation_series(&result, pair);
            assert!(
                arrival.len() > 50,
                "{name} {}: too few records",
                pair.label()
            );
            for series in [&arrival, &sorted] {
                let fast = replay(series, extended_suite());
                let oracle = replay(series, hide_specs(extended_suite()));
                assert_eq!(fast.switches, oracle.switches, "{name} {}", pair.label());
                assert_eq!(fast.final_winner, oracle.final_winner);
                assert_eq!(fast.report.declined, oracle.report.declined);
                assert_eq!(fast.report.outcomes.len(), oracle.report.outcomes.len());
                for (a, b) in fast.report.outcomes.iter().zip(&oracle.report.outcomes) {
                    assert_eq!((a.at_unix, a.class), (b.at_unix, b.class));
                    assert_eq!(a.measured.to_bits(), b.measured.to_bits());
                    assert_eq!(
                        a.predicted.to_bits(),
                        b.predicted.to_bits(),
                        "{name} {} at {}",
                        pair.label(),
                        a.at_unix
                    );
                }
            }
        }
    }
}

/// Seeds the independence check runs over: four neighbours, and one that
/// differs only in the high word.
const INDEPENDENCE_SEEDS: [u64; 5] = [0, 1, 2, 3, 1 << 32];

/// Draws per stream the independence check compares.
const DRAWS: usize = 16;

/// What one seeded entry point produced on one seed: its first
/// [`DRAWS`] draws, and a cheap summary of the whole run.
struct Drawn {
    draws: Vec<u64>,
    summary: u64,
}

/// A seeded entry point, named, as a function from seed to draws.
type EntryPoint = (&'static str, fn(u64) -> Drawn);

/// Whether `b` replays `a` shifted by `d` draws, either way, for a shift
/// that still overlaps half the draws (`d = 0` is the same stream).
fn shifted_copy(a: &[u64], b: &[u64]) -> bool {
    let same_from = |x: &[u64], y: &[u64], d: usize| x[d..].iter().zip(y).all(|(p, q)| p == q);
    (0..=a.len().min(b.len()) / 2).any(|d| same_from(a, b, d) || same_from(b, a, d))
}

/// A campaign's first transfers: start time and size of each.
fn campaign_draws(seed: u64) -> Drawn {
    let r = run_campaign(&CampaignConfig {
        duration: SimDuration::from_days(1),
        probes: false,
        ..CampaignConfig::august(seed)
    });
    let draws = r.lbl_log.records().iter().take(DRAWS);
    Drawn {
        draws: draws.map(|t| t.start_unix ^ t.file_size).collect(),
        summary: (r.lbl_log.len() + r.isi_log.len()) as u64,
    }
}

/// The synthetic serving fixture's first site: each transfer's time.
fn serving_sites_draws(seed: u64) -> Drawn {
    let sites = wanpred_testbed::serving_sites(2, DRAWS, seed);
    let time_bits = |s: &wanpred_testbed::ServingSite| -> Vec<u64> {
        s.log
            .records()
            .iter()
            .map(|t| t.total_time_s.to_bits())
            .collect()
    };
    Drawn {
        draws: time_bits(&sites[0]),
        summary: time_bits(&sites[1])[0],
    }
}

/// Records every open-loop arrival: its time and the filter it drew.
struct ArrivalLog {
    inner: Giis,
    arrivals: std::sync::Mutex<Vec<(u64, String)>>,
}

impl InquiryService for ArrivalLog {
    fn inquire(
        &self,
        req: &InquiryRequest,
    ) -> Result<InquiryResponse, wanpred_infod::InquiryError> {
        let at = req.arrival_us.expect("the load generator stamps arrivals");
        let mut arrivals = self.arrivals.lock().expect("no panic while held");
        arrivals.push((at, req.filter.to_string()));
        self.inner.inquire(req)
    }
}

/// The open-loop generator's first arrivals: each gap and filter pick.
fn open_loop_draws(seed: u64) -> Drawn {
    let filters: Vec<String> = (0..8).map(|i| format!("(hostname=site{i})")).collect();
    let log = ArrivalLog {
        inner: Giis::new("empty"),
        arrivals: Default::default(),
    };
    let cfg = wanpred_infod::OpenLoopConfig {
        seed,
        rate_per_sec: 1_000.0,
        duration_secs: 2,
        start_unix: 1_000_000,
        filters: filters.clone(),
    };
    let report = wanpred_infod::run_open_loop(&log, &cfg, |_| {});
    let arrivals = log.arrivals.into_inner().expect("no panic while held");
    let draws = arrivals.windows(2).take(DRAWS).map(|w| {
        let pick = filters.iter().position(|f| *f == w[1].1);
        (w[1].0 - w[0].0) << 8 | pick.expect("a pool filter") as u64
    });
    Drawn {
        draws: draws.collect(),
        summary: report.offered,
    }
}

/// The admission model's first service times: inquiries a second apart
/// never queue, so each modeled latency is one service-time draw.
fn admission_draws(seed: u64) -> Drawn {
    let server = ShardedServer::new(ServeConfig {
        admission: Some(wanpred_infod::AdmissionConfig {
            coalesce: false,
            seed,
            ..Default::default()
        }),
        ..ServeConfig::default()
    });
    let draws: Vec<u64> = (0..DRAWS as u64)
        .map(|i| {
            let mut req = InquiryRequest::parse("(objectclass=*)", 1_000 + i).expect("parses");
            req.arrival_us = Some((1_000 + i) * 1_000_000);
            let resp = server.inquire(&req).expect("an idle server admits");
            resp.provenance.modeled_latency_us.expect("admission is on")
        })
        .collect();
    Drawn {
        summary: draws.iter().sum(),
        draws,
    }
}

/// The chaos injector's first damaged lines.
fn chaos_draws(seed: u64) -> Drawn {
    let site = wanpred_testbed::serving_sites(1, 200, 0).remove(0);
    let doc = site.log.to_ulm_string_checksummed();
    let (_, report) =
        wanpred_logfmt::corrupt_doc(&doc, &wanpred_logfmt::ChaosConfig::new(0.2, seed));
    let lines = report.ops.iter().map(|(line, _)| *line as u64);
    Drawn {
        draws: lines.take(DRAWS).collect(),
        summary: report.ops.len() as u64,
    }
}

/// The fault schedule's first actions over a fixed testbed.
fn fault_schedule_draws(seed: u64) -> Drawn {
    let testbed = build_testbed(MasterSeed(0), false);
    let schedule = FaultSchedule::generate(
        &FaultConfig::wan_default(),
        testbed.network.topology(),
        MasterSeed(seed),
        SimDuration::from_days(2),
    );
    let times = schedule.events().iter().map(|e| e.at.as_micros());
    Drawn {
        draws: times.clone().take(DRAWS).collect(),
        summary: times.min().expect("two days of WAN faults"),
    }
}

/// The random selection baseline's first picks among 64 candidates.
fn random_policy_draws(seed: u64) -> Drawn {
    let scores: Vec<wanpred_replica::ReplicaScore> = (0..64)
        .map(|i| wanpred_replica::ReplicaScore {
            replica: PhysicalReplica {
                host: format!("h{i}"),
                path: "/f".to_string(),
                size: 1,
            },
            predicted_kbs: None,
            effective_kbs: None,
            rung: None,
            staleness_secs: 0,
        })
        .collect();
    let mut policy = SelectionPolicy::random(seed);
    let draws: Vec<u64> = (0..DRAWS).map(|_| policy.choose(&scores) as u64).collect();
    Drawn {
        summary: draws[0],
        draws,
    }
}

#[test]
fn distinct_seeds_give_independent_streams() {
    // A spread over seeds means something only if distinct seeds are
    // independent runs: no seed may replay another's draws shifted by a
    // few places, and a run's summary must not be the same on every seed.
    let entry_points: [EntryPoint; 7] = [
        ("run_campaign", campaign_draws),
        ("serving_sites", serving_sites_draws),
        ("run_open_loop", open_loop_draws),
        ("AdmissionConfig", admission_draws),
        ("ChaosConfig", chaos_draws),
        ("FaultSchedule", fault_schedule_draws),
        ("SelectionPolicy::Random", random_policy_draws),
    ];
    for (name, draw) in entry_points {
        let runs: Vec<Drawn> = INDEPENDENCE_SEEDS.iter().map(|&s| draw(s)).collect();
        for (i, a) in runs.iter().enumerate() {
            assert_eq!(a.draws.len(), DRAWS, "{name}: too few draws");
            for (j, b) in runs.iter().enumerate().skip(i + 1) {
                assert!(
                    !shifted_copy(&a.draws, &b.draws),
                    "{name}: seed {} replays seed {}",
                    INDEPENDENCE_SEEDS[j],
                    INDEPENDENCE_SEEDS[i]
                );
            }
        }
        assert!(
            runs.iter().any(|r| r.summary != runs[0].summary),
            "{name}: the same summary on every seed"
        );
    }
}

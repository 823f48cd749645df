//! The replica-selection broker: rank physical replicas by the predicted
//! transfer bandwidth published in the information service.
//!
//! This is the consumer the whole pipeline exists for (§1): a client (or
//! broker acting for it) asks "from which replica can I fetch this file
//! fastest?", the broker queries the GIIS for `GridFTPPerfInfo` entries
//! matching `(cn=<client>, hostname=<candidate server>)`, reads the
//! size-class prediction attribute, and picks the best.
//!
//! In degraded mode the broker descends a **fallback ladder** per
//! candidate (DESIGN.md § "Durability and degraded mode"):
//!
//! 1. [`FallbackRung::Tournament`] — the per-pair online tournament
//!    meta-predictor ([`wanpred_predict::PairTournament`]), when the
//!    broker is fed completed transfers directly
//!    ([`Broker::observe_transfer`]). It serves whichever fixed
//!    predictor currently wins the pair's rolling-error race, so it
//!    outranks any single published prediction.
//! 2. [`FallbackRung::SizeClass`] — the per-size-class prediction
//!    attribute (the paper's primary signal).
//! 3. [`FallbackRung::Overall`] — the unclassified prediction or the
//!    overall read average.
//! 4. [`FallbackRung::StaticPolicy`] — an operator-configured static
//!    bandwidth map.
//!
//! Entries served stale by a degraded GRIS carry `stalenesssecs`; the
//! broker decays their bandwidth by `0.5^(staleness/half_life)` before
//! ranking ([`DEFAULT_STALENESS_HALF_LIFE_SECS`]), so a site with fresh
//! information beats an equally-fast site whose data is an hour old, but
//! stale information still beats none.

use std::collections::BTreeMap;
use std::sync::Arc;

use wanpred_infod::{InquiryRequest, InquiryService, STALENESS_ATTR};
use wanpred_obs::{names, ObsSink};
use wanpred_predict::{Observation, PairTournament, SizeClass, TournamentOptions};

use crate::catalog::{PhysicalReplica, ReplicaError};
use crate::policy::SelectionPolicy;

/// Which rung of the fallback ladder produced an estimate. The derived
/// order is ladder order: `Tournament` ranks before (better than)
/// `SizeClass`, and so on down to `StaticPolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackRung {
    /// Per-pair online tournament fed by the broker's own observations.
    Tournament,
    /// Per-size-class prediction from the information service.
    SizeClass,
    /// Overall (unclassified) prediction or read average.
    Overall,
    /// Operator-configured static bandwidth.
    StaticPolicy,
}

impl FallbackRung {
    /// Display name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            FallbackRung::Tournament => "tournament",
            FallbackRung::SizeClass => "size-class",
            FallbackRung::Overall => "overall",
            FallbackRung::StaticPolicy => "static-policy",
        }
    }
}

/// A bandwidth estimate with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Estimated bandwidth, KB/s.
    pub kbs: f64,
    /// Which ladder rung produced it.
    pub rung: FallbackRung,
    /// Age of the underlying data when served stale (0 when fresh).
    pub staleness_secs: u64,
}

/// A source of per-path performance estimates.
pub trait PerfInfoSource {
    /// Estimated bandwidth for the client pulling `size` bytes from
    /// `server_host`, or `None` when no information exists.
    fn estimate(
        &mut self,
        client_addr: &str,
        server_host: &str,
        size: u64,
        now_unix: u64,
    ) -> Option<PerfEstimate>;
}

/// Whether `value` can stand verbatim as an inquiry-filter assertion
/// value: no filter metacharacter (`*`, `(`, `)`, `\`) and no leading or
/// trailing whitespace (which the filter parser trims away). Anything
/// else could rewrite the filter — `*` turns `(cn=*)` into a presence
/// test that matches every client — so [`GiisPerfSource`] gives such a
/// client or host no estimate.
pub fn filter_safe(value: &str) -> bool {
    value.trim() == value && !value.contains(['*', '(', ')', '\\'])
}

/// A [`PerfInfoSource`] backed by information-service inquiries, with
/// the attribute fallback chain: size-class prediction → overall
/// prediction → overall read average. Entries stamped `stalenesssecs`
/// by a degraded GRIS surface that age in the estimate. A client or host
/// that is not [`filter_safe`] gets no estimate.
///
/// Any [`InquiryService`] serves: a `Giis`, a `Gris`, or the sharded
/// serving layer — the broker is agnostic to which tier answers.
pub struct GiisPerfSource {
    svc: Arc<dyn InquiryService>,
}

impl GiisPerfSource {
    /// Wrap an inquiry-service handle (e.g. `Arc<Giis>` or
    /// `Arc<ShardedServer>`).
    pub fn new(svc: Arc<dyn InquiryService>) -> Self {
        GiisPerfSource { svc }
    }

    fn class_attr(size: u64) -> &'static str {
        match SizeClass::of_bytes(size) {
            SizeClass::C10MB => "predictrdbandwidthtenmbrange",
            SizeClass::C100MB => "predictrdbandwidthhundredmbrange",
            SizeClass::C500MB => "predictrdbandwidthfivehundredmbrange",
            SizeClass::C1GB => "predictrdbandwidthonegbrange",
        }
    }
}

impl PerfInfoSource for GiisPerfSource {
    fn estimate(
        &mut self,
        client_addr: &str,
        server_host: &str,
        size: u64,
        now_unix: u64,
    ) -> Option<PerfEstimate> {
        if !filter_safe(client_addr) || !filter_safe(server_host) {
            return None;
        }
        let req = InquiryRequest::parse(
            &format!("(&(objectclass=GridFTPPerfInfo)(cn={client_addr})(hostname={server_host}))"),
            now_unix,
        )
        .ok()?;
        // Overloaded (or otherwise failing) service: no estimate, so the
        // caller descends the fallback ladder instead of stalling.
        let entries = self.svc.inquire(&req).ok()?.entries;
        let e = entries.first()?;
        let staleness_secs = e
            .get(STALENESS_ATTR)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        for (attr, rung) in [
            (Self::class_attr(size), FallbackRung::SizeClass),
            ("predictrdbandwidth", FallbackRung::Overall),
            ("avgrdbandwidth", FallbackRung::Overall),
        ] {
            if let Some(v) = e.get(attr) {
                if let Ok(kbs) = v.parse::<f64>() {
                    return Some(PerfEstimate {
                        kbs,
                        rung,
                        staleness_secs,
                    });
                }
            }
        }
        None
    }
}

/// A source with no information of its own: every estimate falls
/// through to the lower ladder rungs. For brokers fed exclusively by
/// their own observed transfers (the tournament rung) plus static
/// priors — the co-allocating campaign client, for example.
pub struct NoPerfInfo;

impl PerfInfoSource for NoPerfInfo {
    fn estimate(
        &mut self,
        _client_addr: &str,
        _server_host: &str,
        _size: u64,
        _now_unix: u64,
    ) -> Option<PerfEstimate> {
        None
    }
}

/// One replica's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaScore {
    /// The candidate.
    pub replica: PhysicalReplica,
    /// Estimated bandwidth (KB/s) as produced, if any rung answered.
    pub predicted_kbs: Option<f64>,
    /// Estimated bandwidth after the staleness decay — what ranking
    /// actually uses.
    pub effective_kbs: Option<f64>,
    /// Which ladder rung answered.
    pub rung: Option<FallbackRung>,
    /// Age of the information when served stale (0 when fresh).
    pub staleness_secs: u64,
}

/// The broker's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Index of the chosen replica within `scores`.
    pub chosen: usize,
    /// Every candidate's score, in catalog order.
    pub scores: Vec<ReplicaScore>,
    /// The policy that made the choice.
    pub policy_name: &'static str,
}

impl Selection {
    /// The chosen replica.
    pub fn replica(&self) -> &PhysicalReplica {
        &self.scores[self.chosen].replica
    }

    /// Whether any candidate was scored from stale or static information
    /// — the selection ran in degraded mode.
    ///
    /// Tournament estimates are exempt from the staleness clause: their
    /// `staleness_secs` is simply the age of the path's newest transfer
    /// (normal operation for a source the broker feeds itself), whereas
    /// for information-service rungs it marks a GRIS serving cached data
    /// past a failed refresh.
    pub fn degraded(&self) -> bool {
        scores_degraded(&self.scores)
    }
}

/// A ranked top-k decision: the same scored candidate set as
/// [`Selection`], with the `k` best indices in preference order instead
/// of a single winner. Produced by [`Broker::select_top_k`] for
/// co-allocating clients that stripe one file across several sources.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSelection {
    /// Indices into `scores`, best first; `ranked.len() = min(k, candidates)`.
    pub ranked: Vec<usize>,
    /// Every candidate's score, in catalog order.
    pub scores: Vec<ReplicaScore>,
    /// The policy that made the choices.
    pub policy_name: &'static str,
}

impl TopKSelection {
    /// The chosen replicas, best first.
    pub fn replicas(&self) -> impl Iterator<Item = &PhysicalReplica> {
        self.ranked.iter().map(move |&i| &self.scores[i].replica)
    }

    /// The top-ranked candidate's score.
    pub fn best(&self) -> &ReplicaScore {
        let &i = self
            .ranked
            .first()
            .expect("select_top_k never returns an empty ranking");
        self.scores
            .get(i)
            .expect("ranked entries index into scores")
    }

    /// Same degraded-mode criterion as [`Selection::degraded`].
    pub fn degraded(&self) -> bool {
        scores_degraded(&self.scores)
    }
}

/// Shared degraded-mode criterion (see [`Selection::degraded`]).
fn scores_degraded(scores: &[ReplicaScore]) -> bool {
    scores.iter().any(|s| {
        (s.staleness_secs > 0 && s.rung != Some(FallbackRung::Tournament))
            || s.rung == Some(FallbackRung::StaticPolicy)
    })
}

/// Half-life of stale information in the ranking decay (10 minutes —
/// the order of a GRIS registration lifetime).
pub const DEFAULT_STALENESS_HALF_LIFE_SECS: u64 = 600;

/// The broker.
pub struct Broker<S: PerfInfoSource> {
    source: S,
    tournament: Option<PairTournament>,
    static_kbs: BTreeMap<String, f64>,
    obs: ObsSink,
}

impl<S: PerfInfoSource> Broker<S> {
    /// Build over a performance-information source.
    pub fn new(source: S) -> Self {
        Broker {
            source,
            tournament: None,
            static_kbs: BTreeMap::new(),
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink: selection counts, per-rung tallies,
    /// candidate-set and staleness histograms, and a span per selection
    /// keyed on the inquiry clock.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Attach a per-pair tournament meta-predictor as the ladder's top
    /// rung. The broker must then be fed completed transfers through
    /// [`observe_transfer`](Broker::observe_transfer); pairs with no
    /// observations fall through to the information-service rungs.
    pub fn with_tournament(mut self, opts: TournamentOptions) -> Self {
        self.tournament = Some(PairTournament::new(opts));
        self
    }

    /// Feed one completed transfer on a `(client, server)` path to the
    /// tournament rung. A no-op when no tournament is attached.
    pub fn observe_transfer(&mut self, client_addr: &str, server_host: &str, o: Observation) {
        if let Some(t) = self.tournament.as_mut() {
            t.observe(client_addr, server_host, o);
        }
    }

    /// The attached tournament, if any (bench/report introspection).
    pub fn tournament(&self) -> Option<&PairTournament> {
        self.tournament.as_ref()
    }

    /// Configure a static per-host bandwidth (the last ladder rung).
    pub fn with_static_kbs(mut self, server_host: impl Into<String>, kbs: f64) -> Self {
        self.static_kbs.insert(server_host.into(), kbs);
        self
    }

    /// Descend the ladder for one candidate.
    fn estimate(
        &mut self,
        client_addr: &str,
        server_host: &str,
        size: u64,
        now_unix: u64,
    ) -> Option<PerfEstimate> {
        if let Some(pt) = self.tournament.as_ref() {
            if let Some(t) = pt.tournament(client_addr, server_host) {
                if let Some((_, kbs)) = t.predict(now_unix, size) {
                    // The estimate's age is the time since the path's
                    // newest transfer; the ranking decay treats it like
                    // any other aging information.
                    let staleness_secs = t
                        .last_observed_at()
                        .map_or(0, |at| now_unix.saturating_sub(at));
                    return Some(PerfEstimate {
                        kbs,
                        rung: FallbackRung::Tournament,
                        staleness_secs,
                    });
                }
            }
        }
        if let Some(e) = self
            .source
            .estimate(client_addr, server_host, size, now_unix)
        {
            return Some(e);
        }
        self.static_kbs.get(server_host).map(|&kbs| PerfEstimate {
            kbs,
            rung: FallbackRung::StaticPolicy,
            staleness_secs: 0,
        })
    }

    /// Score every candidate once, descending the ladder per replica.
    /// This is the single place the per-rung observability counters are
    /// incremented, so a query tallies each candidate exactly once no
    /// matter how many winners the caller asks for.
    fn score_candidates(
        &mut self,
        client_addr: &str,
        replicas: &[PhysicalReplica],
        now_unix: u64,
    ) -> Vec<ReplicaScore> {
        let half_life = DEFAULT_STALENESS_HALF_LIFE_SECS as f64;
        replicas
            .iter()
            .map(|r| {
                let est = self.estimate(client_addr, &r.host, r.size, now_unix);
                if let Some(e) = est {
                    self.obs.inc(match e.rung {
                        FallbackRung::Tournament => names::REPLICA_BROKER_RUNG_TOURNAMENT,
                        FallbackRung::SizeClass => names::REPLICA_BROKER_RUNG_SIZE_CLASS,
                        FallbackRung::Overall => names::REPLICA_BROKER_RUNG_OVERALL,
                        FallbackRung::StaticPolicy => names::REPLICA_BROKER_RUNG_STATIC,
                    });
                    self.obs
                        .observe(names::REPLICA_BROKER_STALENESS_SECS, e.staleness_secs);
                }
                let effective =
                    est.map(|e| e.kbs * 0.5f64.powf(e.staleness_secs as f64 / half_life));
                ReplicaScore {
                    replica: r.clone(),
                    predicted_kbs: est.map(|e| e.kbs),
                    effective_kbs: effective,
                    rung: est.map(|e| e.rung),
                    staleness_secs: est.map_or(0, |e| e.staleness_secs),
                }
            })
            .collect()
    }

    /// Evaluate and choose among `replicas` for `client_addr` under the
    /// given policy. An empty candidate set is a catalog error
    /// ([`ReplicaError::NoCandidates`]), not a panic.
    pub fn select(
        &mut self,
        client_addr: &str,
        replicas: &[PhysicalReplica],
        policy: &mut SelectionPolicy,
        now_unix: u64,
    ) -> Result<Selection, ReplicaError> {
        let top = self.select_top_k(client_addr, replicas, policy, 1, now_unix)?;
        let chosen = *top
            .ranked
            .first()
            .expect("select_top_k with k >= 1 ranks at least one candidate");
        Ok(Selection {
            chosen,
            scores: top.scores,
            policy_name: top.policy_name,
        })
    }

    /// Evaluate once and rank the `min(k, candidates)` best replicas in
    /// preference order. Candidates are scored — and the per-rung
    /// observability counters incremented — exactly once per query
    /// regardless of `k`; the policy is then applied repeatedly to the
    /// not-yet-picked remainder, so every policy (predicted-bandwidth,
    /// round-robin, random, first-listed) extends naturally to k > 1.
    /// `k = 0` is treated as 1. [`Broker::select`] is the k = 1 wrapper.
    pub fn select_top_k(
        &mut self,
        client_addr: &str,
        replicas: &[PhysicalReplica],
        policy: &mut SelectionPolicy,
        k: usize,
        now_unix: u64,
    ) -> Result<TopKSelection, ReplicaError> {
        if replicas.is_empty() {
            return Err(ReplicaError::NoCandidates);
        }
        self.obs.inc(names::REPLICA_BROKER_SELECTIONS);
        self.obs
            .observe(names::REPLICA_BROKER_CANDIDATES, replicas.len() as u64);
        self.obs
            .span_enter(names::REPLICA_BROKER_SELECT, now_unix * 1_000_000);
        let scores = self.score_candidates(client_addr, replicas, now_unix);
        let k = k.max(1).min(scores.len());
        let mut remaining: Vec<usize> = (0..scores.len()).collect();
        let mut ranked = Vec::with_capacity(k);
        while ranked.len() < k {
            let view: Vec<ReplicaScore> = remaining.iter().map(|&i| scores[i].clone()).collect();
            let pick = policy.choose(&view);
            ranked.push(remaining.remove(pick));
        }
        let selection = TopKSelection {
            ranked,
            scores,
            policy_name: policy.name(),
        };
        if selection.degraded() {
            self.obs.inc(names::REPLICA_BROKER_DEGRADED);
        }
        self.obs
            .span_exit(names::REPLICA_BROKER_SELECT, now_unix * 1_000_000);
        Ok(selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned source for tests: fresh size-class estimates per host.
    pub struct MapSource(pub BTreeMap<String, f64>);

    impl PerfInfoSource for MapSource {
        fn estimate(
            &mut self,
            _client: &str,
            server: &str,
            _size: u64,
            _now: u64,
        ) -> Option<PerfEstimate> {
            self.0.get(server).map(|&kbs| PerfEstimate {
                kbs,
                rung: FallbackRung::SizeClass,
                staleness_secs: 0,
            })
        }
    }

    /// A canned source with per-host staleness.
    struct StaleSource(BTreeMap<String, (f64, u64)>);

    impl PerfInfoSource for StaleSource {
        fn estimate(
            &mut self,
            _client: &str,
            server: &str,
            _size: u64,
            _now: u64,
        ) -> Option<PerfEstimate> {
            self.0
                .get(server)
                .map(|&(kbs, staleness_secs)| PerfEstimate {
                    kbs,
                    rung: FallbackRung::SizeClass,
                    staleness_secs,
                })
        }
    }

    fn reps() -> Vec<PhysicalReplica> {
        ["lbl.gov", "isi.edu", "anl.gov"]
            .iter()
            .map(|h| PhysicalReplica {
                host: (*h).into(),
                path: "/f".into(),
                size: 1_000_000,
            })
            .collect()
    }

    #[test]
    fn predicted_policy_picks_fastest() {
        let mut src = BTreeMap::new();
        src.insert("lbl.gov".to_string(), 4_000.0);
        src.insert("isi.edu".to_string(), 9_000.0);
        src.insert("anl.gov".to_string(), 2_000.0);
        let mut b = Broker::new(MapSource(src));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("140.221.65.69", &reps(), &mut policy, 0).unwrap();
        assert_eq!(sel.replica().host, "isi.edu");
        assert_eq!(sel.policy_name, "predicted-bandwidth");
        assert_eq!(sel.scores.len(), 3);
        assert!(!sel.degraded());
    }

    #[test]
    fn unknown_servers_rank_last_but_choice_still_made() {
        let mut src = BTreeMap::new();
        src.insert("anl.gov".to_string(), 100.0);
        let mut b = Broker::new(MapSource(src));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("x", &reps(), &mut policy, 0).unwrap();
        assert_eq!(sel.replica().host, "anl.gov");
    }

    #[test]
    fn no_information_falls_back_to_first() {
        let mut b = Broker::new(MapSource(BTreeMap::new()));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("x", &reps(), &mut policy, 0).unwrap();
        assert_eq!(sel.chosen, 0);
    }

    #[test]
    fn empty_candidates_is_an_error_not_a_panic() {
        let mut b = Broker::new(MapSource(BTreeMap::new()));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let err = b.select("x", &[], &mut policy, 0).unwrap_err();
        assert!(matches!(err, ReplicaError::NoCandidates));
    }

    #[test]
    fn staleness_decays_the_ranking_but_not_the_reported_prediction() {
        // lbl is slightly faster on paper but its data is an hour old;
        // isi's fresh 7000 beats lbl's decayed 8000.
        let mut src = BTreeMap::new();
        src.insert("lbl.gov".to_string(), (8_000.0, 3_600));
        src.insert("isi.edu".to_string(), (7_000.0, 0));
        let mut b = Broker::new(StaleSource(src));
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("c", &reps()[..2], &mut policy, 0).unwrap();
        assert_eq!(sel.replica().host, "isi.edu");
        assert!(sel.degraded());
        let lbl = &sel.scores[0];
        assert_eq!(lbl.predicted_kbs, Some(8_000.0));
        // 3600s at 600s half-life: 2^-6 = 1/64 of the original.
        assert!((lbl.effective_kbs.unwrap() - 8_000.0 / 64.0).abs() < 1e-6);
        assert_eq!(lbl.staleness_secs, 3_600);
    }

    #[test]
    fn static_rung_fills_information_gaps() {
        // The info service knows only anl; lbl and isi are covered by
        // static policy. Both rungs coexist in one selection and the best
        // *effective* estimate wins.
        let mut src = BTreeMap::new();
        src.insert("anl.gov".to_string(), 2_000.0);
        let mut b = Broker::new(MapSource(src))
            .with_static_kbs("lbl.gov", 500.0)
            .with_static_kbs("isi.edu", 6_000.0);
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("c", &reps(), &mut policy, 0).unwrap();
        assert_eq!(sel.replica().host, "isi.edu");
        assert!(sel.degraded());
        let rungs: Vec<Option<FallbackRung>> = sel.scores.iter().map(|s| s.rung).collect();
        assert_eq!(
            rungs,
            vec![
                Some(FallbackRung::StaticPolicy),
                Some(FallbackRung::StaticPolicy),
                Some(FallbackRung::SizeClass),
            ]
        );
    }

    #[test]
    fn tournament_rung_outranks_the_information_service() {
        // The GIIS publishes a slow estimate for lbl, but the broker's
        // own observed transfers on that path say otherwise: the
        // tournament rung answers first and wins the selection.
        let mut src = BTreeMap::new();
        src.insert("lbl.gov".to_string(), 500.0);
        src.insert("isi.edu".to_string(), 2_000.0);
        let mut b = Broker::new(MapSource(src)).with_tournament(TournamentOptions { training: 2 });
        for i in 0..10u64 {
            b.observe_transfer(
                "c",
                "lbl.gov",
                Observation::new(1_000 + i * 60, 8_000.0, 1_000_000),
            );
        }
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("c", &reps()[..2], &mut policy, 1_600).unwrap();
        assert_eq!(sel.replica().host, "lbl.gov");
        let lbl = &sel.scores[0];
        assert_eq!(lbl.rung, Some(FallbackRung::Tournament));
        assert!((lbl.predicted_kbs.unwrap() - 8_000.0).abs() < 1e-6);
        // 60 s since the path's newest transfer: a mild ranking decay,
        // not a degraded selection.
        assert_eq!(lbl.staleness_secs, 60);
        assert!(lbl.effective_kbs.unwrap() < lbl.predicted_kbs.unwrap());
        assert!(!sel.degraded());
        // The unobserved pair fell through to the information service.
        assert_eq!(sel.scores[1].rung, Some(FallbackRung::SizeClass));
    }

    #[test]
    fn old_tournament_data_decays_below_fresh_information() {
        // lbl's observed transfers are an hour old; isi's fresh GIIS
        // estimate outranks the decayed tournament serve.
        let mut src = BTreeMap::new();
        src.insert("isi.edu".to_string(), 4_000.0);
        let mut b = Broker::new(MapSource(src)).with_tournament(TournamentOptions { training: 2 });
        for i in 0..10u64 {
            b.observe_transfer(
                "c",
                "lbl.gov",
                Observation::new(1_000 + i * 60, 8_000.0, 1_000_000),
            );
        }
        let now = 1_540 + 3_600;
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("c", &reps()[..2], &mut policy, now).unwrap();
        assert_eq!(sel.replica().host, "isi.edu");
        let lbl = &sel.scores[0];
        assert_eq!(lbl.rung, Some(FallbackRung::Tournament));
        assert_eq!(lbl.staleness_secs, 3_600);
        // 3600 s at the 600 s half-life: 2^-6 of the raw estimate.
        assert!((lbl.effective_kbs.unwrap() - 8_000.0 / 64.0).abs() < 1e-6);
        assert!(!sel.degraded());
    }

    #[test]
    fn tournament_rung_is_first_in_ladder_order() {
        assert!(FallbackRung::Tournament < FallbackRung::SizeClass);
        assert!(FallbackRung::SizeClass < FallbackRung::Overall);
        assert!(FallbackRung::Overall < FallbackRung::StaticPolicy);
        assert_eq!(FallbackRung::Tournament.name(), "tournament");
    }

    #[test]
    fn static_policy_is_the_last_resort() {
        let mut b = Broker::new(MapSource(BTreeMap::new())).with_static_kbs("isi.edu", 1_000.0);
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = b.select("c", &reps(), &mut policy, 0).unwrap();
        assert_eq!(sel.replica().host, "isi.edu");
        assert_eq!(sel.scores[1].rung, Some(FallbackRung::StaticPolicy));
    }

    fn map_broker() -> Broker<MapSource> {
        let mut src = BTreeMap::new();
        src.insert("lbl.gov".to_string(), 4_000.0);
        src.insert("isi.edu".to_string(), 9_000.0);
        src.insert("anl.gov".to_string(), 2_000.0);
        Broker::new(MapSource(src))
    }

    #[test]
    fn top_k_ranks_by_effective_bandwidth() {
        let mut b = map_broker();
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let top = b.select_top_k("c", &reps(), &mut policy, 2, 0).unwrap();
        let hosts: Vec<&str> = top.replicas().map(|r| r.host.as_str()).collect();
        assert_eq!(hosts, ["isi.edu", "lbl.gov"]);
        assert_eq!(top.best().replica.host, "isi.edu");
        assert_eq!(top.scores.len(), 3, "every candidate stays scored");
        assert!(!top.degraded());
    }

    #[test]
    fn top_k_clamps_to_candidate_count_and_treats_zero_as_one() {
        let mut b = map_broker();
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let all = b.select_top_k("c", &reps(), &mut policy, 99, 0).unwrap();
        assert_eq!(
            all.replicas().count(),
            3,
            "k above the candidate count returns every replica ranked"
        );
        let one = b.select_top_k("c", &reps(), &mut policy, 0, 0).unwrap();
        assert_eq!(one.ranked.len(), 1);
        assert!(b
            .select_top_k("c", &[], &mut policy, 2, 0)
            .is_err_and(|e| matches!(e, ReplicaError::NoCandidates)));
    }

    #[test]
    fn top_k_agrees_with_select_on_the_winner() {
        let mut policy = SelectionPolicy::predicted_bandwidth();
        let sel = map_broker().select("c", &reps(), &mut policy, 0).unwrap();
        let top = map_broker()
            .select_top_k("c", &reps(), &mut policy, 3, 0)
            .unwrap();
        assert_eq!(sel.chosen, top.ranked[0]);
        assert_eq!(sel.scores, top.scores);
    }

    #[test]
    fn round_robin_top_k_covers_without_repeats() {
        let mut b = map_broker();
        let mut policy = SelectionPolicy::round_robin();
        let top = b.select_top_k("c", &reps(), &mut policy, 3, 0).unwrap();
        let mut seen = top.ranked.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "each replica picked exactly once");
    }

    /// Regression for the k>1 metrics bug: candidates are scored (and
    /// per-rung counters incremented) once per query, so a k=2 query
    /// tallies exactly what a k=1 query does.
    #[test]
    fn top_k_increments_rung_counters_once_per_candidate() {
        let counters_after = |k: usize| {
            let mut b = map_broker();
            let obs = ObsSink::enabled();
            b.set_obs(obs.clone());
            let mut policy = SelectionPolicy::predicted_bandwidth();
            b.select_top_k("c", &reps(), &mut policy, k, 0).unwrap();
            obs.snapshot()
        };
        let one = counters_after(1);
        let two = counters_after(2);
        for name in [
            names::REPLICA_BROKER_SELECTIONS,
            names::REPLICA_BROKER_RUNG_SIZE_CLASS,
            names::REPLICA_BROKER_RUNG_TOURNAMENT,
            names::REPLICA_BROKER_RUNG_STATIC,
        ] {
            assert_eq!(
                one.counter(name),
                two.counter(name),
                "{name} must not scale with k"
            );
        }
        assert_eq!(two.counter(names::REPLICA_BROKER_RUNG_SIZE_CLASS), 3);
    }
}

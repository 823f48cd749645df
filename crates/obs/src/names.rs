//! The static metric-name registry.
//!
//! Every emission site in the workspace must use one of the names
//! declared here — either through the exported `const` (preferred) or as
//! a string literal equal to one of them. The `tidy` crate enforces this
//! with a cross-file coherence check (`obs-metric`), mirroring the ULM
//! and GRIS schema checks: a metric name that exists only at its
//! emission site is a metric nobody can find in a snapshot, and a typo
//! silently splits one logical series into two.
//!
//! Naming convention: `<crate>.<component>.<quantity>`, lowercase, with
//! `_us` suffixes for microsecond durations. Span names double as the
//! key of the per-span duration histogram.

/// Events popped off the simulation queue (one per scheduler iteration).
pub const SIMNET_ENGINE_EVENTS: &str = "simnet.engine.events";
/// Timer events delivered to agents.
pub const SIMNET_ENGINE_TIMERS: &str = "simnet.engine.timers";
/// Background-load ticks applied to links.
pub const SIMNET_ENGINE_LOAD_TICKS: &str = "simnet.engine.load_ticks";
/// Scheduled fault events applied to the network.
pub const SIMNET_ENGINE_FAULTS: &str = "simnet.engine.faults";
/// Flows that ran to byte-completion.
pub const SIMNET_FLOWS_COMPLETED: &str = "simnet.flows.completed";
/// Flows killed by faults or aborts.
pub const SIMNET_FLOWS_FAILED: &str = "simnet.flows.failed";
/// Histogram of completed-flow lifetimes, microseconds of sim time.
pub const SIMNET_FLOW_DURATION_US: &str = "simnet.flow.duration_us";
/// Histogram of completed-flow sizes in bytes.
pub const SIMNET_FLOW_BYTES: &str = "simnet.flow.bytes";
/// Fair-share sub-problems solved: one per connected component of links
/// and flows that an event touched. Against `simnet.engine.events` it
/// says how much solving an event costs.
pub const SIMNET_NETWORK_SOLVES: &str = "simnet.network.solves";
/// Foreground flows in those sub-problems; divided by
/// `simnet.network.solves` it is the mean component size, i.e. whether
/// the topology still decomposes.
pub const SIMNET_NETWORK_FLOWS_SOLVED: &str = "simnet.network.flows_solved";

/// Transfer requests accepted by the manager.
pub const GRIDFTP_SUBMITTED: &str = "gridftp.transfers.submitted";
/// Transfers that completed and were logged.
pub const GRIDFTP_COMPLETED: &str = "gridftp.transfers.completed";
/// Retry attempts started after a failed attempt.
pub const GRIDFTP_RETRIES: &str = "gridftp.transfers.retries";
/// Transfers abandoned after exhausting their retry budget.
pub const GRIDFTP_FAILED: &str = "gridftp.transfers.failed";
/// Histogram of end-to-end transfer durations (submit to log append),
/// microseconds of sim time.
pub const GRIDFTP_TRANSFER_DURATION_US: &str = "gridftp.transfer.duration_us";
/// Histogram of completed-transfer payload sizes in bytes.
pub const GRIDFTP_TRANSFER_BYTES: &str = "gridftp.transfer.bytes";
/// Span: the modeled cost of appending one ULM record to the server log
/// (the paper's ~25 ms logging overhead, scaled by entry size).
pub const GRIDFTP_LOG_APPEND: &str = "gridftp.log.append";

/// Target transfers an evaluation replay scored (per predictor suite run).
pub const PREDICT_EVAL_TARGETS: &str = "predict.eval.targets";
/// Individual (predictor, target) predictions produced.
pub const PREDICT_EVAL_PREDICTIONS: &str = "predict.eval.predictions";
/// Predictions declined for lack of history.
pub const PREDICT_EVAL_DECLINED: &str = "predict.eval.declined";
/// Gauge: predictors in the evaluated suite.
pub const PREDICT_EVAL_PREDICTORS: &str = "predict.eval.predictors";
/// Span: one evaluation replay, keyed by the observation series' own
/// time range (first to last observation timestamp).
pub const PREDICT_EVAL_REPLAY: &str = "predict.eval.replay";
/// Predictions served by a tournament meta-predictor replay.
pub const PREDICT_TOURNAMENT_PREDICTIONS: &str = "predict.tournament.predictions";
/// Tournament leadership changes (the initial takeover is not counted).
pub const PREDICT_TOURNAMENT_SWITCHES: &str = "predict.tournament.switches";
/// Gauge: candidates racing in a tournament.
pub const PREDICT_TOURNAMENT_CANDIDATES: &str = "predict.tournament.candidates";

/// GRIS provider refreshes that succeeded.
pub const INFOD_GRIS_REFRESH_OK: &str = "infod.gris.refresh_ok";
/// GRIS provider refreshes that failed (stale data may still be served).
pub const INFOD_GRIS_REFRESH_FAIL: &str = "infod.gris.refresh_fail";
/// GRIS lookups answered from a fresh cache without invoking a provider.
pub const INFOD_GRIS_CACHE_HITS: &str = "infod.gris.cache_hits";
/// GRIS searches evaluated.
pub const INFOD_GRIS_SEARCHES: &str = "infod.gris.searches";
/// Span: one provider refresh, entered/exited on the directory clock.
pub const INFOD_GRIS_REFRESH: &str = "infod.gris.refresh";
/// GIIS registrations accepted from previously unknown registrants.
pub const INFOD_GIIS_REGISTRATIONS: &str = "infod.giis.registrations";
/// GIIS soft-state renewals from known registrants.
pub const INFOD_GIIS_RENEWALS: &str = "infod.giis.renewals";
/// GIIS registrants expired by TTL sweep.
pub const INFOD_GIIS_EXPIRATIONS: &str = "infod.giis.expirations";
/// GIIS registrations refused while the index was down.
pub const INFOD_GIIS_REFUSALS: &str = "infod.giis.refusals";
/// GIIS searches fanned out over live registrants.
pub const INFOD_GIIS_SEARCHES: &str = "infod.giis.searches";
/// Inquiries answered by the sharded serving layer (shed ones excluded).
pub const INFOD_SERVE_INQUIRIES: &str = "infod.serve.inquiries";
/// Inquiries shed by admission control (typed `Overloaded` rejections).
pub const INFOD_SERVE_SHED: &str = "infod.serve.shed";
/// Inquiries coalesced onto an identical in-flight inquiry.
pub const INFOD_SERVE_COALESCED: &str = "infod.serve.coalesced";
/// Per-shard filter evaluations answered from the prediction cache.
pub const INFOD_SERVE_CACHE_HITS: &str = "infod.serve.cache_hits";
/// Per-shard filter evaluations computed against the snapshot.
pub const INFOD_SERVE_CACHE_MISSES: &str = "infod.serve.cache_misses";
/// Answers containing at least one `stalenesssecs`-stamped entry
/// (degraded-mode serving: stale data served rather than blocking).
pub const INFOD_SERVE_STALE_SERVED: &str = "infod.serve.stale_served";
/// Refresh passes run by the background refresher.
pub const INFOD_SERVE_REFRESHES: &str = "infod.serve.refreshes";
/// Shard snapshots actually swapped (content changed since the last
/// refresh generation; unchanged shards skip the swap).
pub const INFOD_SERVE_SNAPSHOT_SWAPS: &str = "infod.serve.snapshot_swaps";
/// Gauge: sites currently live in the serving layer's registry.
pub const INFOD_SERVE_SITES: &str = "infod.serve.sites";
/// Histogram of modeled admission-queue wait, microseconds.
pub const INFOD_SERVE_WAIT_US: &str = "infod.serve.wait_us";
/// Histogram of modeled end-to-end inquiry sojourn (wait + service),
/// microseconds.
pub const INFOD_SERVE_LATENCY_US: &str = "infod.serve.latency_us";

/// Replica selections requested from the broker.
pub const REPLICA_BROKER_SELECTIONS: &str = "replica.broker.selections";
/// Selections that fell below the Predicted rung (degraded answers).
pub const REPLICA_BROKER_DEGRADED: &str = "replica.broker.degraded";
/// Estimates served from the per-pair tournament meta-predictor rung.
pub const REPLICA_BROKER_RUNG_TOURNAMENT: &str = "replica.broker.rung_tournament";
/// Estimates served from the per-size-class prediction rung.
pub const REPLICA_BROKER_RUNG_SIZE_CLASS: &str = "replica.broker.rung_size_class";
/// Estimates served from the overall prediction rung.
pub const REPLICA_BROKER_RUNG_OVERALL: &str = "replica.broker.rung_overall";
/// Estimates served from the NWS probe-forecast rung.
pub const REPLICA_BROKER_RUNG_PROBE: &str = "replica.broker.rung_probe";
/// Estimates that fell through to the static-policy floor.
pub const REPLICA_BROKER_RUNG_STATIC: &str = "replica.broker.rung_static";
/// Histogram of candidate replicas scored per selection.
pub const REPLICA_BROKER_CANDIDATES: &str = "replica.broker.candidates";
/// Histogram of estimate staleness (seconds) at scoring time.
pub const REPLICA_BROKER_STALENESS_SECS: &str = "replica.broker.staleness_secs";
/// Span: one replica selection, keyed on the inquiry clock.
pub const REPLICA_BROKER_SELECT: &str = "replica.broker.select";

/// Co-allocated (multi-source striped) transfers started.
pub const REPLICA_COALLOC_TRANSFERS: &str = "replica.coalloc.transfers";
/// Co-allocated transfers that delivered every byte.
pub const REPLICA_COALLOC_COMPLETED: &str = "replica.coalloc.completed";
/// Co-allocated transfers abandoned with no surviving source.
pub const REPLICA_COALLOC_FAILED: &str = "replica.coalloc.failed";
/// Histogram of stripes driven per co-allocated transfer (initial plan
/// plus every rebalance replacement).
pub const REPLICA_COALLOC_STRIPES: &str = "replica.coalloc.stripes";
/// Rebalances: a degraded or dead stripe's remainder re-planned onto
/// the surviving sources.
pub const REPLICA_COALLOC_REBALANCES: &str = "replica.coalloc.rebalances";
/// Bytes already delivered by a stripe when it was demoted or died —
/// kept, never re-fetched.
pub const REPLICA_COALLOC_BYTES_SALVAGED: &str = "replica.coalloc.bytes_salvaged";
/// Per-source demotions (EWMA throughput fell past the degradation
/// threshold against its prediction).
pub const REPLICA_COALLOC_DEMOTIONS: &str = "replica.coalloc.demotions";
/// Sources blacklisted after a demotion or stripe death.
pub const REPLICA_COALLOC_BLACKLISTED: &str = "replica.coalloc.blacklisted";
/// Blacklisted sources whose penalty expired and rejoined the pool.
pub const REPLICA_COALLOC_REJOINS: &str = "replica.coalloc.rejoins";

/// Span: one full campaign run, entered at sim start, exited at the
/// configured horizon.
pub const CAMPAIGN_RUN: &str = "campaign.run";
/// Transfer records across all server logs at campaign end.
pub const CAMPAIGN_TRANSFERS: &str = "campaign.transfers";
/// Records kept by the post-campaign chaos salvage pass.
pub const CAMPAIGN_SALVAGE_KEPT: &str = "campaign.salvage.kept";
/// Lines quarantined by the post-campaign chaos salvage pass.
pub const CAMPAIGN_SALVAGE_QUARANTINED: &str = "campaign.salvage.quarantined";
/// Gauge: fault events scheduled for the campaign.
pub const CAMPAIGN_FAULT_EVENTS: &str = "campaign.fault_events";

/// Span exits that did not match the innermost open span.
pub const OBS_SPAN_UNBALANCED: &str = "obs.span.unbalanced";
/// Gauge: deepest span nesting observed.
pub const OBS_SPAN_MAX_DEPTH: &str = "obs.span.max_depth";

/// Every registered metric name, in declaration order.
pub fn all() -> &'static [&'static str] {
    &[
        SIMNET_ENGINE_EVENTS,
        SIMNET_ENGINE_TIMERS,
        SIMNET_ENGINE_LOAD_TICKS,
        SIMNET_ENGINE_FAULTS,
        SIMNET_FLOWS_COMPLETED,
        SIMNET_FLOWS_FAILED,
        SIMNET_FLOW_DURATION_US,
        SIMNET_FLOW_BYTES,
        SIMNET_NETWORK_SOLVES,
        SIMNET_NETWORK_FLOWS_SOLVED,
        GRIDFTP_SUBMITTED,
        GRIDFTP_COMPLETED,
        GRIDFTP_RETRIES,
        GRIDFTP_FAILED,
        GRIDFTP_TRANSFER_DURATION_US,
        GRIDFTP_TRANSFER_BYTES,
        GRIDFTP_LOG_APPEND,
        PREDICT_EVAL_TARGETS,
        PREDICT_EVAL_PREDICTIONS,
        PREDICT_EVAL_DECLINED,
        PREDICT_EVAL_PREDICTORS,
        PREDICT_EVAL_REPLAY,
        PREDICT_TOURNAMENT_PREDICTIONS,
        PREDICT_TOURNAMENT_SWITCHES,
        PREDICT_TOURNAMENT_CANDIDATES,
        INFOD_GRIS_REFRESH_OK,
        INFOD_GRIS_REFRESH_FAIL,
        INFOD_GRIS_CACHE_HITS,
        INFOD_GRIS_SEARCHES,
        INFOD_GRIS_REFRESH,
        INFOD_GIIS_REGISTRATIONS,
        INFOD_GIIS_RENEWALS,
        INFOD_GIIS_EXPIRATIONS,
        INFOD_GIIS_REFUSALS,
        INFOD_GIIS_SEARCHES,
        INFOD_SERVE_INQUIRIES,
        INFOD_SERVE_SHED,
        INFOD_SERVE_COALESCED,
        INFOD_SERVE_CACHE_HITS,
        INFOD_SERVE_CACHE_MISSES,
        INFOD_SERVE_STALE_SERVED,
        INFOD_SERVE_REFRESHES,
        INFOD_SERVE_SNAPSHOT_SWAPS,
        INFOD_SERVE_SITES,
        INFOD_SERVE_WAIT_US,
        INFOD_SERVE_LATENCY_US,
        REPLICA_BROKER_SELECTIONS,
        REPLICA_BROKER_DEGRADED,
        REPLICA_BROKER_RUNG_TOURNAMENT,
        REPLICA_BROKER_RUNG_SIZE_CLASS,
        REPLICA_BROKER_RUNG_OVERALL,
        REPLICA_BROKER_RUNG_PROBE,
        REPLICA_BROKER_RUNG_STATIC,
        REPLICA_BROKER_CANDIDATES,
        REPLICA_BROKER_STALENESS_SECS,
        REPLICA_BROKER_SELECT,
        REPLICA_COALLOC_TRANSFERS,
        REPLICA_COALLOC_COMPLETED,
        REPLICA_COALLOC_FAILED,
        REPLICA_COALLOC_STRIPES,
        REPLICA_COALLOC_REBALANCES,
        REPLICA_COALLOC_BYTES_SALVAGED,
        REPLICA_COALLOC_DEMOTIONS,
        REPLICA_COALLOC_BLACKLISTED,
        REPLICA_COALLOC_REJOINS,
        CAMPAIGN_RUN,
        CAMPAIGN_TRANSFERS,
        CAMPAIGN_SALVAGE_KEPT,
        CAMPAIGN_SALVAGE_QUARANTINED,
        CAMPAIGN_FAULT_EVENTS,
        OBS_SPAN_UNBALANCED,
        OBS_SPAN_MAX_DEPTH,
    ]
}

/// Whether `name` is declared in the registry.
pub fn is_registered(name: &str) -> bool {
    all().contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for n in all() {
            assert!(seen.insert(*n), "duplicate metric name {n}");
        }
    }

    #[test]
    fn names_follow_the_convention() {
        for n in all() {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric name {n} must be lowercase dotted_snake"
            );
            assert!(n.contains('.'), "metric name {n} must be namespaced");
        }
    }

    #[test]
    fn membership_checks_work() {
        assert!(is_registered(SIMNET_ENGINE_EVENTS));
        assert!(!is_registered("simnet.engine.event"));
        assert!(!is_registered(""));
    }
}

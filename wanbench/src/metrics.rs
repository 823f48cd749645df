//! The metric tables — names, units, direction, bounds — and how the
//! per-layer values are derived from a trace.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.
//! Every workload prints every metric: a per-layer metric of a layer
//! the workload does not exercise reads 0.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, sorted};
use crate::trace::Trace;
use crate::workloads::Counts;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. `ops_per_s` and the `op_ms_*` pair
/// mean, per workload, what [`alias`] names.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.15),
    e2e("op_ms_p50", "ms", "lower", 0.10),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// The name the issue gave an end-to-end metric on one workload.
pub fn alias(workload: &str, metric: &str) -> &'static str {
    match (workload, metric) {
        ("paper_pipeline", "ops_per_s") => "pipeline_transfers_per_s",
        ("paper_pipeline", "op_ms_p50") => "pipeline_iter_ms_p50",
        ("grid_scale", "ops_per_s") => "sim_transfers_per_s",
        ("grid_scale", "op_ms_p50") => "sim_hour_ms_p50",
        ("history_refresh", "ops_per_s") => "records_per_s",
        ("history_refresh", "op_ms_p50") => "fresh_ms_p50",
        ("inquiry_mix", "ops_per_s") => "inquiries_per_s",
        ("inquiry_mix", "op_ms_p50") => "inquiry_ms_p50",
        _ => "",
    }
}

/// Single layers, from the traced run. No bounds.
pub const PER_LAYER: [MetricDef; 70] = [
    layer("simnet.events", "count", "lower"),
    layer("simnet.us_per_event", "us", "lower"),
    layer("simnet.run_self_ms", "ms", "lower"),
    layer("simnet.events_per_s_n4", "1/s", "higher"),
    layer("simnet.events_per_s_n16", "1/s", "higher"),
    layer("simnet.events_per_s_n32", "1/s", "higher"),
    layer("simnet.fair_solve_us_l16f128", "us", "lower"),
    layer("gridftp.submit_us_p50", "us", "lower"),
    layer("gridftp.on_complete_us_p50", "us", "lower"),
    layer("gridftp.self_ms", "ms", "lower"),
    layer("gridftp.transfers_completed", "count", "higher"),
    layer("gridftp.transfers_failed", "count", "lower"),
    layer("gridftp.retries", "count", "lower"),
    layer("testbed.campaign_clean_ms_p50", "ms", "lower"),
    layer("testbed.campaign_faulty_k2_ms_p50", "ms", "lower"),
    layer("logfmt.encode_mb_per_s", "MB/s", "higher"),
    layer("logfmt.salvage_mb_per_s", "MB/s", "higher"),
    layer("logfmt.columns_mb_per_s", "MB/s", "higher"),
    layer("logfmt.records_quarantined", "count", "lower"),
    layer("predict.eval_suite_ms_p50", "ms", "lower"),
    layer("predict.tournament_replay_ms_p50", "ms", "lower"),
    layer("predict.tournament_us_per_obs_n420", "us", "lower"),
    layer("predict.tournament_us_per_obs_n1750", "us", "lower"),
    layer("predict.tournament_observe_us_p50", "us", "lower"),
    layer("predict.tournament_mape_pct", "%", "lower"),
    layer("infod.provider.build_ms_p50", "ms", "lower"),
    layer("infod.provider.build_ms_n500", "ms", "lower"),
    layer("infod.provider.build_ms_n2000", "ms", "lower"),
    layer("infod.provider.build_ms_n8000", "ms", "lower"),
    layer("infod.gris.materialize_ms_p50", "ms", "lower"),
    layer("infod.serve.refresh_ms_p50", "ms", "lower"),
    layer("infod.serve.inquire_us_p50", "us", "lower"),
    layer("infod.serve.inquire_us_p99", "us", "lower"),
    layer("infod.serve.cache_hit_frac", "ratio", "higher"),
    layer("infod.serve.stale_served", "count", "lower"),
    layer("infod.filter.parse_us_p50", "us", "lower"),
    layer("infod.serve.open_us_p50_r2000", "us", "lower"),
    layer("infod.serve.open_us_p99_r2000", "us", "lower"),
    layer("infod.serve.open_us_p50_r6000", "us", "lower"),
    layer("infod.serve.open_us_p99_r6000", "us", "lower"),
    layer("replica.broker.select_us_p50", "us", "lower"),
    layer("replica.broker.informed_frac", "ratio", "higher"),
    layer("replica.coalloc.completed", "count", "higher"),
    layer("replica.coalloc.failed", "count", "lower"),
    layer("replica.coalloc.rebalances", "count", "lower"),
    layer("replica.coalloc.bytes_salvaged", "count", "higher"),
    layer("replica.coalloc.tiling_violations", "count", "lower"),
    layer("obs.enabled_overhead_frac", "ratio", "lower"),
    layer("bench.trace_overhead_frac", "ratio", "lower"),
    layer("bench.gen_lag_us_max", "us", "lower"),
    layer("bench.passes_traced", "count", "higher"),
    // The tail of the user-visible wait over every untraced pass, at the
    // highest percentile with ten samples beyond it, and that percentile.
    layer("bench.op_ms_hi", "ms", "lower"),
    layer("bench.op_hi_percentile", "%", "higher"),
    // Each layer's share of the main thread's recorded self time.
    layer("share.simnet", "ratio", "lower"),
    layer("share.gridftp", "ratio", "lower"),
    layer("share.testbed", "ratio", "lower"),
    layer("share.logfmt", "ratio", "lower"),
    layer("share.predict", "ratio", "lower"),
    layer("share.infod", "ratio", "lower"),
    layer("share.replica", "ratio", "lower"),
    layer("share.bench", "ratio", "lower"),
    // Self milliseconds per traced pass, main thread, by layer.
    layer("self_ms.simnet", "ms", "lower"),
    layer("self_ms.gridftp", "ms", "lower"),
    layer("self_ms.testbed", "ms", "lower"),
    layer("self_ms.logfmt", "ms", "lower"),
    layer("self_ms.predict", "ms", "lower"),
    layer("self_ms.infod", "ms", "lower"),
    layer("self_ms.replica", "ms", "lower"),
    layer("self_ms.bench", "ms", "lower"),
    // Refreshes by the writer thread of `inquiry_mix`, beside the client.
    layer("bench.writer_ticks", "count", "higher"),
];

/// `(layer, its share metric, its self-time metric)`.
const LAYERS: [(&str, &str, &str); 8] = [
    ("simnet", "share.simnet", "self_ms.simnet"),
    ("gridftp", "share.gridftp", "self_ms.gridftp"),
    ("testbed", "share.testbed", "self_ms.testbed"),
    ("logfmt", "share.logfmt", "self_ms.logfmt"),
    ("predict", "share.predict", "self_ms.predict"),
    ("infod", "share.infod", "self_ms.infod"),
    ("replica", "share.replica", "self_ms.replica"),
    ("bench", "share.bench", "self_ms.bench"),
];

/// Per-layer metrics whose value is an exact count: bit-identical for
/// the same seed on a single-threaded workload.
pub fn is_exact_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.name == name && m.unit == "count")
        && !name.starts_with("bench.")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derive every per-layer metric.
///
/// * `trace` — spans of the traced passes.
/// * `reference` — counts of pass 0 alone (exact, repeatable).
/// * `total` — counts summed over the traced passes.
/// * `probes` — fixed-size measurements, already under metric names.
pub fn per_layer(
    trace: &Trace,
    passes: usize,
    reference: &Counts,
    total: &Counts,
    probes: &Counts,
) -> BTreeMap<&'static str, f64> {
    let all = trace.summary(None);
    let main = trace.summary(Some(0));
    let get = |c: &Counts, k: &str| c.get(k).copied().unwrap_or(0.0);
    let p50 = |name: &str, per_ns: f64| median(&all.durations(name, per_ns));
    let per_pass_ms = |ns: u64| ratio(ns as f64 / 1e6, passes as f64);
    // Bytes through a logfmt call over the time spent in it.
    let mb_per_s = |name: &str| {
        ratio(
            get(total, "logfmt.bytes") / 1e6,
            all.total_ns(name) as f64 / 1e9,
        )
    };

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut put = |name: &'static str, v: f64| {
        *m.get_mut(name).expect("a PER_LAYER name") = v;
    };

    put("simnet.events", get(reference, "simnet.events"));
    put(
        "simnet.us_per_event",
        ratio(
            all.self_ns("simnet.") as f64 / 1e3,
            get(total, "simnet.events"),
        ),
    );
    put("simnet.run_self_ms", per_pass_ms(all.self_ns("simnet.")));
    put("gridftp.submit_us_p50", p50("gridftp.submit", 1e3));
    put(
        "gridftp.on_complete_us_p50",
        p50("gridftp.on_complete", 1e3),
    );
    put("gridftp.self_ms", per_pass_ms(all.self_ns("gridftp.")));
    for name in [
        "gridftp.transfers_completed",
        "gridftp.transfers_failed",
        "gridftp.retries",
        "logfmt.records_quarantined",
        "infod.serve.stale_served",
        "replica.coalloc.completed",
        "replica.coalloc.failed",
        "replica.coalloc.rebalances",
        "replica.coalloc.bytes_salvaged",
        "replica.coalloc.tiling_violations",
    ] {
        put(name, get(reference, name));
    }
    put(
        "testbed.campaign_clean_ms_p50",
        p50("testbed.campaign_clean", 1e6),
    );
    put(
        "testbed.campaign_faulty_k2_ms_p50",
        p50("testbed.campaign_faulty_k2", 1e6),
    );
    put("logfmt.encode_mb_per_s", mb_per_s("logfmt.encode"));
    put("logfmt.salvage_mb_per_s", mb_per_s("logfmt.salvage"));
    put("logfmt.columns_mb_per_s", mb_per_s("logfmt.columns"));
    put("predict.eval_suite_ms_p50", p50("predict.eval_suite", 1e6));
    put(
        "predict.tournament_replay_ms_p50",
        p50("predict.tournament_replay", 1e6),
    );
    put(
        "predict.tournament_observe_us_p50",
        p50("predict.tournament_observe", 1e3),
    );
    put(
        "predict.tournament_mape_pct",
        ratio(
            get(reference, "predict.tournament_mape_sum"),
            get(reference, "predict.tournament_mape_n"),
        ),
    );
    put(
        "infod.provider.build_ms_p50",
        p50("infod.provider.build", 1e6),
    );
    put(
        "infod.gris.materialize_ms_p50",
        p50("infod.gris.materialize", 1e6),
    );
    put(
        "infod.serve.refresh_ms_p50",
        p50("infod.serve.refresh", 1e6),
    );
    let inquire_us = sorted(all.durations("infod.serve.inquire", 1e3));
    put("infod.serve.inquire_us_p50", percentile(&inquire_us, 50.0));
    put("infod.serve.inquire_us_p99", percentile(&inquire_us, 99.0));
    put(
        "infod.serve.cache_hit_frac",
        ratio(
            get(reference, "infod.cache_hits"),
            get(reference, "infod.inquiries"),
        ),
    );
    put("infod.filter.parse_us_p50", p50("infod.filter.parse", 1e3));
    put(
        "replica.broker.select_us_p50",
        p50("replica.broker.select", 1e3),
    );
    put(
        "replica.broker.informed_frac",
        ratio(
            get(reference, "replica.informed"),
            get(reference, "replica.selections"),
        ),
    );
    put("bench.passes_traced", passes as f64);

    let shares = main.layer_shares();
    for (l, share_name, self_name) in LAYERS {
        put(share_name, shares.get(l).copied().unwrap_or(0.0));
        put(self_name, per_pass_ms(main.self_ns(&format!("{l}."))));
    }

    put("bench.writer_ticks", all.count("bench.writer_tick") as f64);

    for (name, v) in probes {
        put(name, *v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in &END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for d in &PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let listed = text.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{w}\"")));
        }
    }
}

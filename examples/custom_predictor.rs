//! Extending the predictor suite: implement a custom [`Predictor`]
//! (a trimmed mean), run it against the paper's 15 on real campaign
//! logs, and let the NWS-style online tournament pick winners on the fly
//! (the paper's §7 future work).
//!
//! Run with: `cargo run --release -p wanpred-core --example custom_predictor`

use wanpred_core::prelude::*;
use wanpred_core::testbed::observation_series;

/// A 20%-trimmed mean over the last 25 values: drop the top and bottom
/// 20% of the window, average the rest — a robustness middle ground
/// between AVG25 and MED25.
struct TrimmedMean25;

impl Predictor for TrimmedMean25 {
    fn name(&self) -> &str {
        "TRIM25"
    }

    fn predict(&self, history: &[Observation], _now: u64) -> Option<f64> {
        let start = history.len().saturating_sub(25);
        let mut vals: Vec<f64> = history[start..].iter().map(|o| o.bandwidth_kbs).collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let cut = vals.len() / 5;
        let kept = &vals[cut..vals.len() - cut];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

fn main() {
    let cfg = CampaignConfig {
        seed: MasterSeed(11),
        duration: SimDuration::from_days(14),
        probes: false,
        ..CampaignConfig::august(11)
    };
    println!("simulating the August campaign...");
    let result = run_campaign(&cfg);
    let obs = observation_series(&result, Pair::LblAnl);

    // Paper suite (classified) + the custom predictor (classified).
    let mut suite = paper_suite(true);
    suite.push(NamedPredictor::new(Box::new(TrimmedMean25), true));

    // The replay engine transparently falls back to a slice-based walk
    // for custom predictors it has no rolling state for.
    let reports = Evaluation::replay(&obs, &suite, EvalOptions::default(), &ObsSink::disabled());
    let mut table =
        Table::new("LBL-ANL, classified, all classes").headers(["predictor", "MAPE %", "answered"]);
    let mut ranked: Vec<(&str, Option<f64>, usize)> = reports
        .iter()
        .map(|r| (r.name.as_str(), r.mape(), r.outcomes.len()))
        .collect();
    ranked.sort_by(|a, b| {
        a.1.unwrap_or(f64::INFINITY)
            .partial_cmp(&b.1.unwrap_or(f64::INFINITY))
            .expect("finite")
    });
    for (name, mape, n) in &ranked {
        table.row([
            name.to_string(),
            mape.map(|m| format!("{m:.1}")).unwrap_or("-".into()),
            n.to_string(),
        ]);
    }
    println!("{}", table.render());
    let trim_rank = ranked
        .iter()
        .position(|(n, ..)| *n == "TRIM25+C")
        .expect("custom predictor evaluated");
    println!("TRIM25+C ranks #{} of {}", trim_rank + 1, ranked.len());

    // Dynamic selection: stream the log through a tournament over the same
    // suite and report which technique it would be using at the end. The
    // tournament, too, races the custom predictor over its history slice.
    let mut tournament = Tournament::new(suite, TournamentOptions::default());
    for o in &obs {
        tournament.observe(*o);
    }
    let best = tournament.winner().unwrap_or("-");
    println!("\ntournament winner after {} transfers: {best}", obs.len());
    if let Some((used, pred)) = tournament.predict(cfg.epoch_unix + 15 * 86_400, 100 * PAPER_MB) {
        println!("next 100MB-class transfer predicted by {used}: {pred:.0} KB/s");
    }
}

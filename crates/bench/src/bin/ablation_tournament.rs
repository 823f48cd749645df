//! Tournament-meta-predictor ablation: the per-pair online tournament
//! against the paper's fixed 30-variant suite.
//!
//! The paper freezes one predictor per deployment; the tournament races
//! the whole suite per path and serves the current rolling-MAPE winner.
//! This ablation replays the December campaign per pair and compares
//! the tournament's end-to-end MAPE with the single best fixed
//! predictor *chosen in hindsight* — a bar the tournament must reach
//! without hindsight, by switching as regimes move.
//!
//! Each pair's replay is run twice from scratch and must serve
//! bit-identical predictions with the same switch count, so the
//! accuracy gate doubles as a determinism gate. Writes the comparison
//! to `BENCH_tournament.json` at the repo root. `--days N` shortens the
//! campaign (CI smoke runs use `--days 2`).

use std::env;

use wanpred_bench::{arg_value, DEFAULT_SEED};
use wanpred_obs::{names, ObsSink};
use wanpred_predict::prelude::*;
use wanpred_testbed::{fmt_mape, observation_series, run_campaign, CampaignConfig, Pair, Table};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let days: u64 = arg_value(&args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let opts = TournamentOptions {
        window: arg_value(&args, "--window")
            .and_then(|v| v.parse().ok())
            .unwrap_or(TournamentOptions::default().window),
        class_window: arg_value(&args, "--class-window")
            .and_then(|v| v.parse().ok())
            .unwrap_or(TournamentOptions::default().class_window),
        min_lead: arg_value(&args, "--min-lead")
            .and_then(|v| v.parse().ok())
            .unwrap_or(TournamentOptions::default().min_lead),
        ..TournamentOptions::default()
    };

    let result = run_campaign(
        &CampaignConfig::builder(seed)
            .december()
            .duration_days(days)
            .build(),
    );
    println!("December campaign: {days} days, seed {seed}\n");

    let mut rows = Vec::new();
    let mut table = Table::new("tournament vs best fixed predictor (MAPE, %)").headers([
        "pair",
        "best fixed",
        "fixed MAPE",
        "TOURN MAPE",
        "switches",
        "final winner",
    ]);
    for pair in Pair::ALL {
        let series = observation_series(&result, pair);

        // The paper's 30, scored the standard way; the hindsight bar is
        // the lowest per-pair MAPE among them (ties by name).
        let reports = Evaluation::replay(
            &series,
            &full_suite(),
            EvalOptions::default(),
            &ObsSink::disabled(),
        );
        let (best_name, best_mape) = reports
            .iter()
            .filter_map(|r| r.mape().map(|m| (r.name.as_str(), m)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)))
            .expect("some fixed predictor answers");

        let sink = ObsSink::enabled();
        let out = replay_tournament(&series, Tournament::with_default_suite(opts), &sink);
        let tourn_mape = out.report.mape().expect("tournament answers");

        // Determinism gate: a fresh second replay over the same series
        // must serve bit-identical predictions and switch identically.
        let rerun = replay_tournament(
            &series,
            Tournament::with_default_suite(opts),
            &ObsSink::disabled(),
        );
        assert_eq!(out.report.outcomes.len(), rerun.report.outcomes.len());
        for (a, b) in out.report.outcomes.iter().zip(&rerun.report.outcomes) {
            assert_eq!(
                a.predicted.to_bits(),
                b.predicted.to_bits(),
                "nondeterministic tournament replay at t={}",
                a.at_unix
            );
        }
        assert_eq!(out.switches, rerun.switches, "nondeterministic switching");
        assert_eq!(out.final_winner, rerun.final_winner);

        let snap = sink.snapshot();
        assert_eq!(
            snap.counter(names::PREDICT_TOURNAMENT_SWITCHES),
            out.switches
        );

        let winner = out.final_winner.clone().unwrap_or_else(|| "-".into());
        table.row([
            pair.label().to_string(),
            best_name.to_string(),
            fmt_mape(Some(best_mape)),
            fmt_mape(Some(tourn_mape)),
            out.switches.to_string(),
            winner.clone(),
        ]);
        rows.push(format!(
            "    {{\n      \"pair\": \"{}\",\n      \"best_fixed\": \"{best_name}\",\n      \
             \"best_fixed_mape\": {best_mape:.4},\n      \"tournament_mape\": {tourn_mape:.4},\n      \
             \"switches\": {},\n      \"final_winner\": \"{winner}\",\n      \
             \"tournament_leq_best_fixed\": {}\n    }}",
            pair.label(),
            out.switches,
            tourn_mape <= best_mape,
        ));
    }
    println!("{}", table.render());
    println!(
        "expected shape: the tournament matches or beats the hindsight-best fixed\n\
         predictor on every pair — it converges to the same winner on stable paths\n\
         and switches away faster than any fixed choice when a regime moves."
    );

    let json = format!(
        "{{\n  \"days\": {days},\n  \"seed\": {seed},\n  \"candidates\": {},\n  \
         \"pairs\": [\n{}\n  ],\n  \"replay_deterministic\": true\n}}\n",
        extended_suite().len(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tournament.json");
    std::fs::write(path, &json).expect("write BENCH_tournament.json");
    println!("comparison written to {path}");
}

//! Co-allocation ablation: does striping a file across the broker's
//! top-k predicted sources — with mid-stream failover and rebalancing —
//! beat fetching it from the single best source?
//!
//! Runs the August workload through the co-allocating client at k = 1
//! (the single-best baseline: broker-selected source, no failover
//! target) and k = 2 (both testbed servers co-allocated), across two
//! networks: clean, and faulty (an aggressive kill schedule on the WAN
//! links; a killed stripe's remaining bytes are re-planned onto the
//! survivor, resuming from the delivered offset). Log corruption never
//! reaches the co-allocating broker's learning path, so a chaos network
//! would repeat the faulty rows; chaos × coalloc tiling is checked by
//! `tests/chaos_differential.rs`.
//!
//! Writes the headline comparison to `BENCH_coalloc.json` at the repo
//! root. `--days N` shortens the campaign (CI smoke runs use `--days 2`).

use std::env;

use wanpred_bench::{arg_value, DEFAULT_SEED};
use wanpred_simnet::fault::FaultConfig;
use wanpred_simnet::time::SimDuration;
use wanpred_testbed::{CampaignConfig, CoallocSummary, Table};

/// The aggressive kill schedule also used by the campaign tests: enough
/// resets that even short runs see kills land on in-flight stripes.
fn hostile_faults() -> FaultConfig {
    FaultConfig {
        kill_mean_interarrival: SimDuration::from_mins(40),
        ..FaultConfig::wan_default()
    }
}

struct Cell {
    scenario: &'static str,
    summary: CoallocSummary,
}

fn run_scenario(scenario: &'static str, seed: u64, days: u64, k: usize) -> Cell {
    let mut b = CampaignConfig::builder(seed)
        .duration_days(days)
        .probes(false)
        .coalloc(k);
    if scenario != "clean" {
        // No retry policy: the first kill is a stripe's death, so every
        // fault that lands mid-transfer exercises the failover machinery
        // (with a retry budget the manager resumes in place first and
        // only multi-kill stripes reach the co-allocator).
        b = b.faults(hostile_faults());
    }
    let result = wanpred_testbed::run_campaign(&b.build());
    Cell {
        scenario,
        summary: result.coalloc.expect("coalloc mode"),
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let days: u64 = arg_value(&args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);

    let mut cells: Vec<Cell> = Vec::new();
    for scenario in ["clean", "faulty"] {
        for k in [1usize, 2] {
            cells.push(run_scenario(scenario, seed, days, k));
        }
    }

    let mut table = Table::new("co-allocation vs single-best (August workload)").headers([
        "network",
        "k",
        "completed",
        "failed",
        "goodput KB/s",
        "stripes",
        "rebalances",
        "salvaged MB",
    ]);
    for c in &cells {
        let s = &c.summary;
        table.row([
            c.scenario.to_string(),
            s.k.to_string(),
            s.completed.to_string(),
            s.failed.to_string(),
            format!("{:.0}", s.goodput_kbs()),
            s.stripes.to_string(),
            s.rebalances.to_string(),
            format!("{:.1}", s.bytes_salvaged as f64 / 1e6),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expected shape: on every network k=2 moves the same workload at higher\n\
         goodput (both WAN paths carry chunks sized by the predicted bandwidth);\n\
         under faults the single-best baseline abandons killed transfers while\n\
         k=2 re-plans the dead source's remaining bytes onto the survivor —\n\
         salvaged bytes are kept, never re-fetched (tiling_violations = 0)."
    );

    // The headline claims, enforced: k=2 must complete faulty
    // campaigns with higher goodput and fewer failures than single-best,
    // and no completed transfer may double-fetch a byte range.
    let get = |scenario: &str, k: usize| -> &CoallocSummary {
        &cells
            .iter()
            .find(|c| c.scenario == scenario && c.summary.k == k)
            .expect("scenario ran")
            .summary
    };
    for c in &cells {
        assert_eq!(
            c.summary.tiling_violations, 0,
            "{} k={}: byte range double-counted or dropped",
            c.scenario, c.summary.k
        );
    }
    for scenario in ["clean", "faulty"] {
        let (s1, s2) = (get(scenario, 1), get(scenario, 2));
        assert!(
            s2.goodput_kbs() > s1.goodput_kbs(),
            "{scenario}: k=2 goodput {:.0} must beat k=1 {:.0}",
            s2.goodput_kbs(),
            s1.goodput_kbs()
        );
    }
    let (s1, s2) = (get("faulty", 1), get("faulty", 2));
    assert!(
        s1.failed > 0,
        "faulty: the kill schedule never felled a k=1 transfer"
    );
    assert!(
        s2.failed < s1.failed,
        "faulty: k=2 failed {} must undercut k=1 {}",
        s2.failed,
        s1.failed
    );
    assert!(
        s2.rebalances > 0 && s2.bytes_salvaged > 0,
        "faulty: kills must trigger resume-from-offset rebalances"
    );

    let mut rows = String::new();
    for c in &cells {
        let s = &c.summary;
        rows.push_str(&format!(
            "    {{\"network\": \"{}\", \"k\": {}, \"completed\": {}, \"failed\": {}, \
             \"goodput_kbs\": {:.1}, \"stripes\": {}, \"rebalances\": {}, \
             \"bytes_salvaged\": {}, \"tiling_violations\": {}}},\n",
            c.scenario,
            s.k,
            s.completed,
            s.failed,
            s.goodput_kbs(),
            s.stripes,
            s.rebalances,
            s.bytes_salvaged,
            s.tiling_violations
        ));
    }
    let rows = rows.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"days\": {days},\n  \"seed\": {seed},\n  \"results\": [\n{rows}\n  ]\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_coalloc.json");
    std::fs::write(path, &json).expect("write BENCH_coalloc.json");
    println!("comparison written to {path}");
}

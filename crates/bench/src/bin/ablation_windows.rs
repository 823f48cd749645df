//! Window ablation: sweep count windows (last N) and temporal windows
//! (last T hours) for mean and median estimators, checking the paper's
//! §6.2 finding that windowing buys no decisive accuracy on the
//! controlled workload.

use wanpred_bench::august_campaign;
use wanpred_obs::ObsSink;
use wanpred_predict::prelude::*;
use wanpred_testbed::{fmt_mape, observation_series, Pair, Table};

fn main() {
    let result = august_campaign();

    let mut suite: Vec<NamedPredictor> = Vec::new();
    for n in [1usize, 3, 5, 10, 15, 25, 50, 100] {
        suite.push(NamedPredictor::new(
            Box::new(MeanPredictor::new(Window::LastN(n))),
            true,
        ));
        suite.push(NamedPredictor::new(
            Box::new(MedianPredictor::new(Window::LastN(n))),
            true,
        ));
    }
    for hours in [1u64, 5, 15, 25, 48, 120, 240] {
        suite.push(NamedPredictor::new(
            Box::new(MeanPredictor::new(Window::LastSeconds(hours * 3_600))),
            true,
        ));
    }
    suite.push(NamedPredictor::new(
        Box::new(MeanPredictor::new(Window::All)),
        true,
    ));
    suite.push(NamedPredictor::new(
        Box::new(MedianPredictor::new(Window::All)),
        true,
    ));

    for pair in Pair::ALL {
        let obs = observation_series(&result, pair);
        let reports =
            Evaluation::replay(&obs, &suite, EvalOptions::default(), &ObsSink::disabled());
        let mut table = Table::new(format!("window ablation, {}, classified", pair.label()))
            .headers(["predictor", "MAPE %", "answered", "declined"]);
        for r in &reports {
            table.row([
                r.name.clone(),
                fmt_mape(r.mape()),
                r.outcomes.len().to_string(),
                r.declined.to_string(),
            ]);
        }
        println!("{}", table.render());

        // The headline check: spread between the best and worst windowed
        // mean (excluding the degenerate N=1).
        let means: Vec<f64> = reports
            .iter()
            .filter(|r| r.name.starts_with("AVG") && !r.name.starts_with("AVG1+"))
            .filter_map(|r| r.mape())
            .collect();
        let min = means.iter().copied().fold(f64::INFINITY, f64::min);
        let max = means.iter().copied().fold(0.0f64, f64::max);
        println!(
            "mean-family spread on {}: {:.1}%..{:.1}% ({:.1} points)\n",
            pair.label(),
            min,
            max,
            max - min
        );
    }
    println!(
        "paper (§6.2): no noticeable advantage from sliding windows or time frames\n\
         on the controlled data — the spread above should be small."
    );
}

//! Classification-granularity ablation: no classification vs the paper's
//! four classes vs exact-size matching, for the AVG/MED/LV estimators.
//!
//! The paper picked four classes from testbed measurements (§4.3); this
//! ablation shows where that choice sits between the extremes: exact-size
//! history is the most homogeneous but the scarcest, no classification is
//! abundant but mixes regimes.

use wanpred_bench::august_campaign;
use wanpred_obs::ObsSink;
use wanpred_predict::predictor::Predictor;
use wanpred_predict::prelude::*;
use wanpred_testbed::{fmt_mape, observation_series, Pair, Table};

/// Exact-size filtering needs the target size, which the base trait does
/// not carry; we reuse `NamedPredictor`'s class filtering for the 4-class
/// variants and emulate exact matching via a per-size evaluation below.
fn exact_size_mape(obs: &[Observation], inner: &dyn Predictor, training: usize) -> Option<f64> {
    let mut pairs = Vec::new();
    for i in training..obs.len() {
        let target = obs[i];
        let filtered: Vec<Observation> = obs[..i]
            .iter()
            .filter(|o| o.file_size == target.file_size)
            .copied()
            .collect();
        if let Some(p) = inner.predict(&filtered, target.at_unix) {
            pairs.push((target.bandwidth_kbs, p));
        }
    }
    wanpred_predict::stats::mape(&pairs)
}

/// A factory producing fresh boxed estimators (each `NamedPredictor`
/// needs its own instance).
type EstimatorFactory = Box<dyn Fn() -> Box<dyn Predictor>>;

fn main() {
    let result = august_campaign();
    for pair in Pair::ALL {
        let obs = observation_series(&result, pair);

        let mut table = Table::new(format!(
            "classification granularity, {} (August)",
            pair.label()
        ))
        .headers(["estimator", "none", "4 classes", "exact size"]);

        let estimators: Vec<(&str, EstimatorFactory)> = vec![
            (
                "AVG",
                Box::new(|| Box::new(MeanPredictor::new(Window::All))),
            ),
            (
                "AVG25",
                Box::new(|| Box::new(MeanPredictor::new(Window::LastN(25)))),
            ),
            (
                "MED",
                Box::new(|| Box::new(MedianPredictor::new(Window::All))),
            ),
            ("LV", Box::new(|| Box::new(LastValue::new()))),
        ];
        for (name, make) in &estimators {
            let plain = NamedPredictor::new(make(), false);
            let classed = NamedPredictor::new(make(), true);
            let reports = Evaluation::replay(
                &obs,
                &[plain, classed],
                EvalOptions::default(),
                &ObsSink::disabled(),
            );
            let exact = exact_size_mape(&obs, make().as_ref(), 15);
            table.row([
                name.to_string(),
                fmt_mape(reports[0].mape()),
                fmt_mape(reports[1].mape()),
                fmt_mape(exact),
            ]);
        }
        println!("{}", table.render());
    }
    println!(
        "expected shape: 'none' is worst (mixes size regimes); '4 classes' captures\n\
         most of the benefit; 'exact size' can edge it out but needs 13x more\n\
         history to warm up (see the declined counts in ablation_windows)."
    );
}

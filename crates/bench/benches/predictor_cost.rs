//! §6.2 cost claim: the AR (degenerate ARIMA) technique "can have a much
//! greater computational cost" than means/medians. Measures one
//! prediction over realistic history lengths for each estimator family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wanpred_predict::prelude::*;

fn history(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|i| Observation {
            at_unix: 1_000_000 + i as u64 * 1_800,
            bandwidth_kbs: 4_000.0 + 2_500.0 * ((i as f64 * 0.7).sin()),
            file_size: [1, 10, 100, 500, 1000][i % 5] * PAPER_MB,
            streams: 1,
            tcp_buffer: 0,
        })
        .collect()
}

fn bench_predictors(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor_cost");
    for &n in &[50usize, 400, 2_000] {
        let h = history(n);
        let now = h.last().unwrap().at_unix + 60;
        let preds: Vec<Box<dyn Predictor>> = vec![
            Box::new(LastValue::new()),
            Box::new(MeanPredictor::new(Window::All)),
            Box::new(MeanPredictor::new(Window::LastN(25))),
            Box::new(MedianPredictor::new(Window::All)),
            Box::new(MedianPredictor::new(Window::LastN(25))),
            Box::new(ArPredictor::new(Window::All)),
            Box::new(ArPredictor::new(Window::LastSeconds(10 * 86_400))),
        ];
        for p in &preds {
            group.bench_with_input(BenchmarkId::new(p.name().to_string(), n), &h, |b, h| {
                b.iter(|| std::hint::black_box(p.predict(h, now)))
            });
        }
        // The classified wrapper adds a filtering pass.
        let wrapped = NamedPredictor::new(Box::new(MeanPredictor::new(Window::LastN(25))), true);
        group.bench_with_input(BenchmarkId::new("AVG25+C", n), &h, |b, h| {
            b.iter(|| std::hint::black_box(wrapped.predict(h, now, 500 * PAPER_MB)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);

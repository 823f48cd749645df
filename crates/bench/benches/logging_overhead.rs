//! §3 claim: "the entire logging process consumes on average
//! approximately 25 milliseconds per transfer". Measures our pipeline —
//! record construction, ULM encoding, appending, and the round trip —
//! to document how far inside that budget a modern implementation sits.

use criterion::{criterion_group, criterion_main, Criterion};
use wanpred_logfmt::{decode_borrowed, encode, sample_record, DecodeScratch, TransferLog};

fn bench_logging(c: &mut Criterion) {
    let record = sample_record();
    c.bench_function("ulm_encode", |b| {
        b.iter(|| std::hint::black_box(encode(&record)))
    });
    let line = encode(&record);
    // The decoder production runs, with the per-document scratch reused
    // across lines as `TransferLog::from_ulm_str` and `salvage` do.
    let mut scratch = DecodeScratch::new();
    c.bench_function("ulm_decode", |b| {
        b.iter(|| {
            let r = decode_borrowed(&line, &mut scratch).expect("valid line");
            std::hint::black_box(&r);
        })
    });
    c.bench_function("log_append_one_record", |b| {
        b.iter_batched(
            TransferLog::new,
            |mut log| {
                log.append(record.clone());
                std::hint::black_box(log)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("full_logging_path_encode_plus_append", |b| {
        let mut log = TransferLog::new();
        b.iter(|| {
            let line = encode(&record);
            std::hint::black_box(&line);
            log.append(record.clone());
        })
    });
    // Parsing a busy server's whole log (the §5.1 provider precondition):
    // ~700 entries, the paper's "approximately 100 KB" log.
    let doc: String = (0..700).map(|_| format!("{}\n", encode(&record))).collect();
    c.bench_function("parse_700_entry_log", |b| {
        b.iter(|| std::hint::black_box(TransferLog::from_ulm_str(&doc).expect("valid log")))
    });
}

criterion_group!(benches, bench_logging);
criterion_main!(benches);

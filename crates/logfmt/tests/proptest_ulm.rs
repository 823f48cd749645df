//! Property tests for the ULM codec: encoding round-trips arbitrary —
//! including actively hostile — records, encoded entries stay under the
//! paper's 512-byte bound for realistic field lengths, the decoder is
//! total on garbage, and the zero-copy borrowed path agrees with the
//! allocating oracle on every line (same pairs, same records, same
//! errors).

use proptest::prelude::*;
use wanpred_logfmt::testing::{decode, tokenize};
use wanpred_logfmt::ulm::{decode_borrowed, tokenize_bytes, DecodeScratch, UlmError};
use wanpred_logfmt::{encode, Operation, TransferColumns, TransferLog, TransferRecord};

fn arb_string() -> impl Strategy<Value = String> {
    // Printable strings including the characters that force quoting.
    proptest::string::string_regex("[ -~]{0,64}").expect("valid regex")
}

/// Characters chosen to stress every quoting/escaping decision: the
/// escape metacharacters, the key/value separators, line framing,
/// C0 controls, Unicode whitespace (which the tokenizer treats as a
/// separator), and multi-byte sequences of each UTF-8 width.
fn arb_hostile_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        Just('='),
        Just(' '),
        Just('\t'),
        Just('\n'),
        Just('\r'),
        Just('\u{0}'),
        Just('\u{7}'),
        Just('\u{b}'),
        Just('\u{85}'),
        Just('\u{a0}'),
        Just('\u{2028}'),
        Just('\u{3000}'),
        Just('é'),
        Just('漢'),
        Just('🚀'),
        (33u32..127).prop_map(|b| char::from_u32(b).expect("printable ascii")),
    ]
}

fn arb_hostile_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_hostile_char(), 0..24).prop_map(|v| v.into_iter().collect())
}

fn record_from(
    (source, host, file_name, file_size, volume, start, dur, secs, streams, buf, op): (
        String,
        String,
        String,
        u64,
        String,
        u64,
        u64,
        f64,
        u32,
        u64,
        Operation,
    ),
) -> TransferRecord {
    TransferRecord {
        source,
        host,
        file_name,
        file_size,
        volume,
        start_unix: start,
        end_unix: start + dur,
        total_time_s: secs,
        streams,
        tcp_buffer: buf,
        operation: op,
    }
}

fn arb_record() -> impl Strategy<Value = TransferRecord> {
    (
        arb_string(),
        arb_string(),
        arb_string(),
        any::<u64>(),
        arb_string(),
        0u64..=2_000_000_000,
        0u64..=10_000,
        0.0f64..1e6,
        1u32..=64,
        any::<u64>(),
        prop_oneof![Just(Operation::Read), Just(Operation::Write)],
    )
        .prop_map(record_from)
}

fn arb_hostile_record() -> impl Strategy<Value = TransferRecord> {
    (
        arb_hostile_string(),
        arb_hostile_string(),
        arb_hostile_string(),
        any::<u64>(),
        arb_hostile_string(),
        0u64..=2_000_000_000,
        0u64..=10_000,
        0.0f64..1e6,
        1u32..=64,
        any::<u64>(),
        prop_oneof![Just(Operation::Read), Just(Operation::Write)],
    )
        .prop_map(record_from)
}

/// Exact-field comparison for a record round trip (SECS goes through
/// shortest round-trip Display, so it is byte-exact too).
fn assert_roundtrip(r: &TransferRecord, back: &TransferRecord) {
    assert_eq!(back.source, r.source);
    assert_eq!(back.host, r.host);
    assert_eq!(back.file_name, r.file_name);
    assert_eq!(back.file_size, r.file_size);
    assert_eq!(back.volume, r.volume);
    assert_eq!(back.start_unix, r.start_unix);
    assert_eq!(back.end_unix, r.end_unix);
    assert_eq!(back.streams, r.streams);
    assert_eq!(back.tcp_buffer, r.tcp_buffer);
    assert_eq!(back.operation, r.operation);
}

/// Run both tokenizers and both decoders over one line; assert exact
/// agreement (pairs + errors, record + errors), returning the oracle
/// decode result.
fn assert_paths_agree(line: &str) -> Result<TransferRecord, UlmError> {
    // Tokenizer level.
    let oracle_toks = tokenize(line);
    let mut fast_toks: Result<Vec<(String, String)>, UlmError> = Ok(Vec::new());
    for t in tokenize_bytes(line) {
        match t {
            Ok(tok) => {
                if let Ok(v) = fast_toks.as_mut() {
                    v.push((tok.key.to_string(), tok.value.unescaped().into_owned()));
                }
            }
            Err(e) => {
                fast_toks = Err(e);
                break;
            }
        }
    }
    assert_eq!(oracle_toks, fast_toks, "tokenizers diverged on {line:?}");

    // Decoder level.
    let oracle = decode(line);
    let mut scratch = DecodeScratch::new();
    let fast = decode_borrowed(line, &mut scratch).map(|r| r.to_owned());
    assert_eq!(oracle, fast, "decoders diverged on {line:?}");
    oracle
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(r in arb_record()) {
        let line = encode(&r);
        let back = decode(&line).expect("own encoding must parse");
        assert_roundtrip(&r, &back);
        prop_assert!((back.total_time_s - r.total_time_s).abs() <= 0.0005 * (1.0 + r.total_time_s.abs()));
    }

    #[test]
    fn hostile_roundtrip_on_both_paths(r in arb_hostile_record()) {
        let line = encode(&r);
        // Framing: hostile content must never escape the physical line.
        prop_assert!(!line.contains('\n'), "{line:?}");
        prop_assert!(!line.contains('\r'), "{line:?}");
        let back = assert_paths_agree(&line).expect("own encoding must parse");
        assert_roundtrip(&r, &back);
    }

    #[test]
    fn realistic_entries_under_512_bytes(r in arb_record()) {
        // Field generators bound strings at 64 chars (realistic paths and
        // hostnames); the paper's size claim must then hold.
        let line = encode(&r);
        prop_assert!(line.len() < 512, "{} bytes: {}", line.len(), line);
    }

    #[test]
    fn tokenizer_never_panics_on_garbage(s in "[ -~]{0,256}") {
        let _ = assert_paths_agree(&s);
    }

    #[test]
    fn decode_is_total_on_hostile_garbage(s in arb_hostile_string()) {
        // Totality + differential agreement on arbitrary hostile text
        // (not just encoder output): both paths return the same Ok/Err.
        let _ = assert_paths_agree(&s);
    }

    #[test]
    fn decode_agrees_on_near_miss_lines(r in arb_hostile_record(), salt in 0u32..6) {
        // Mutated encoder output: duplicated tokens, junk suffixes,
        // truncations — the shapes salvage actually sees.
        let line = encode(&r);
        let mutated = match salt {
            0 => format!("{line} SIZE=1"),
            1 => format!("{line} JUNK"),
            2 => format!("{line} BW_KBS=NaN"),
            3 => line.chars().take(line.chars().count() / 2).collect(),
            4 => format!("  {line}  "),
            _ => format!("{line} X=\"unterminated"),
        };
        let _ = assert_paths_agree(&mutated);
    }

    #[test]
    fn document_roundtrip_row_and_column_wise(rs in proptest::collection::vec(arb_hostile_record(), 0..8)) {
        let log: TransferLog = rs.iter().cloned().collect();
        let doc = log.to_ulm_string();
        let rows = TransferLog::from_ulm_str(&doc).expect("own document parses");
        let cols = TransferColumns::from_ulm_str(&doc).expect("own document parses");
        prop_assert_eq!(rows.len(), rs.len());
        prop_assert_eq!(cols.to_log(), rows);
    }
}

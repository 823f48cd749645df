//! Reference implementations the differential tests hold the product
//! to: the original allocating ULM tokenizer and decoder. Slow, obviously
//! correct, and property-tested against the zero-copy path on every line
//! shape. Not API: only test targets (`#[cfg(test)]` modules, `tests/`)
//! import this module.

use crate::record::{Operation, TransferRecord};
use crate::ulm::{keys, unescape_char, UlmError};

/// Split a ULM line into owned `(key, value)` pairs, handling quoting:
/// the oracle for [`tokenize_bytes`](crate::ulm::tokenize_bytes).
pub fn tokenize(line: &str) -> Result<Vec<(String, String)>, UlmError> {
    let mut out = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        let mut saw_eq = false;
        for c in chars.by_ref() {
            if c == '=' {
                saw_eq = true;
                break;
            }
            if c.is_whitespace() {
                break;
            }
            key.push(c);
        }
        if !saw_eq || key.is_empty() {
            return Err(UlmError::Malformed(key));
        }
        let mut val = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some(e) => val.push(unescape_char(e)),
                        None => return Err(UlmError::UnterminatedQuote),
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    _ => val.push(c),
                }
            }
            if !closed {
                return Err(UlmError::UnterminatedQuote);
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                val.push(c);
                chars.next();
            }
        }
        out.push((key, val));
    }
    Ok(out)
}

/// Parse one ULM line into a [`TransferRecord`]: the oracle for
/// [`decode_borrowed`](crate::ulm::decode_borrowed), short enough to
/// audit by eye.
pub fn decode(line: &str) -> Result<TransferRecord, UlmError> {
    let pairs = tokenize(line)?;
    // Duplicate keys are ambiguous: which occurrence is the record? A
    // deterministic, salvage-quarantinable error beats silently taking
    // the first.
    for i in 1..pairs.len() {
        if pairs[..i].iter().any(|(k, _)| k == &pairs[i].0) {
            return Err(UlmError::Malformed(format!("duplicate key {}", pairs[i].0)));
        }
    }
    let get = |k: &'static str| -> Result<&str, UlmError> {
        pairs
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .ok_or(UlmError::MissingKey(k))
    };
    let parse_u64 = |k: &'static str| -> Result<u64, UlmError> {
        get(k)?
            .parse()
            .map_err(|_| UlmError::BadValue(k, get(k).unwrap_or("").to_string()))
    };
    let parse_u32 = |k: &'static str| -> Result<u32, UlmError> {
        get(k)?
            .parse()
            .map_err(|_| UlmError::BadValue(k, get(k).unwrap_or("").to_string()))
    };
    let parse_f64 = |k: &'static str| -> Result<f64, UlmError> {
        get(k)?
            .parse()
            .map_err(|_| UlmError::BadValue(k, get(k).unwrap_or("").to_string()))
    };

    // BW_KBS is derived from SIZE/SECS at encode time and recomputed on
    // demand after reload, so its value is not stored — but a present,
    // unparsable or non-finite BW field means the line is corrupt, not
    // merely stale (chaos-corrupted lines must not pass as `NaN`/`inf`).
    if let Ok(bw) = get(keys::BW) {
        let parsed: f64 = bw
            .parse()
            .map_err(|_| UlmError::BadValue(keys::BW, bw.to_string()))?;
        if !parsed.is_finite() {
            return Err(UlmError::BadValue(keys::BW, bw.to_string()));
        }
    }

    let op_str = get(keys::OP)?;
    let operation =
        Operation::parse(op_str).ok_or_else(|| UlmError::BadValue(keys::OP, op_str.to_string()))?;

    Ok(TransferRecord {
        source: get(keys::SRC)?.to_string(),
        host: get(keys::HOST)?.to_string(),
        file_name: get(keys::FILE)?.to_string(),
        file_size: parse_u64(keys::SIZE)?,
        volume: get(keys::VOL)?.to_string(),
        start_unix: parse_u64(keys::START)?,
        end_unix: parse_u64(keys::END)?,
        total_time_s: parse_f64(keys::SECS)?,
        streams: parse_u32(keys::STREAMS)?,
        tcp_buffer: parse_u64(keys::BUF)?,
        operation,
    })
}

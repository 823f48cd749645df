//! Universal Logging Format (ULM) encoding of transfer records.
//!
//! The paper logs one `Keyword=Value` line per transfer (§3, citing the
//! ULM draft used by NetLogger). Values containing whitespace or `"` are
//! double-quoted with backslash escaping; the line-framing characters
//! `\n` and `\r` are escaped (`\n`, `\r`) inside quotes so a hostile
//! file name can never split a record across physical lines. Every entry
//! is well under the paper's 512-byte bound — asserted in tests and in
//! the logging-overhead benchmark.
//!
//! There is one decoder (DESIGN.md § "Parse hot path"):
//! [`decode_borrowed`], zero-copy. [`tokenize_bytes`] yields borrowed
//! key/value slices, keys are interned to a dense slot index, and escape
//! expansion (rare) goes through a caller-owned [`DecodeScratch`] arena.
//! The result, [`TransferRecordRef`], borrows from the line and the
//! scratch; [`TransferRecordRef::to_owned`] materialises a
//! [`TransferRecord`] when ownership is needed.
//!
//! The original allocating tokenizer and decoder survive only as the
//! differential tests' oracle (`crate::testing`). Decoder and oracle
//! implement the same canonical error-evaluation order, so they agree on
//! *which* error a malformed line produces: tokenizer error first
//! (leftmost), then duplicate keys (leftmost second occurrence), then a
//! present-but-corrupt `BW_KBS`, then `OP`, then the remaining fields in
//! record-declaration order.

use std::fmt::Write as _;

use crate::record::{Operation, TransferRecord};

/// Keyword names used in our GridFTP log lines.
pub mod keys {
    /// Remote endpoint address.
    pub const SRC: &str = "SRC";
    /// Logging server hostname.
    pub const HOST: &str = "HOST";
    /// File path.
    pub const FILE: &str = "FILE";
    /// File size in bytes.
    pub const SIZE: &str = "SIZE";
    /// Logical volume.
    pub const VOL: &str = "VOL";
    /// Start timestamp (Unix seconds).
    pub const START: &str = "START";
    /// End timestamp (Unix seconds).
    pub const END: &str = "END";
    /// Total transfer seconds (fractional).
    pub const SECS: &str = "SECS";
    /// Aggregate bandwidth, KB/s (derived; logged for human readers).
    pub const BW: &str = "BW_KBS";
    /// Operation direction.
    pub const OP: &str = "OP";
    /// Parallel stream count.
    pub const STREAMS: &str = "STREAMS";
    /// TCP buffer bytes.
    pub const BUF: &str = "BUF";
}

/// Errors from parsing a ULM line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UlmError {
    /// A token was not of `KEY=VALUE` form, or a key appeared twice.
    Malformed(String),
    /// A quoted value was never closed.
    UnterminatedQuote,
    /// A required keyword was absent.
    MissingKey(&'static str),
    /// A value failed to parse as its expected type.
    BadValue(&'static str, String),
}

impl std::fmt::Display for UlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UlmError::Malformed(tok) => write!(f, "malformed token {tok:?}"),
            UlmError::UnterminatedQuote => write!(f, "unterminated quote"),
            UlmError::MissingKey(k) => write!(f, "missing key {k}"),
            UlmError::BadValue(k, v) => write!(f, "bad value for {k}: {v:?}"),
        }
    }
}

impl std::error::Error for UlmError {}

/// The interned keyword table: every keyword our encoder emits, as a
/// dense index. The zero-copy decoder matches raw key bytes against this
/// table once and then works with array slots instead of string
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UlmKey {
    /// `SRC`
    Src = 0,
    /// `HOST`
    Host = 1,
    /// `FILE`
    File = 2,
    /// `SIZE`
    Size = 3,
    /// `VOL`
    Vol = 4,
    /// `START`
    Start = 5,
    /// `END`
    End = 6,
    /// `SECS`
    Secs = 7,
    /// `BW_KBS`
    Bw = 8,
    /// `OP`
    Op = 9,
    /// `STREAMS`
    Streams = 10,
    /// `BUF`
    Buf = 11,
}

impl UlmKey {
    /// Number of interned keywords (slot-array size).
    const COUNT: usize = 12;

    /// Intern a raw key. Returns `None` for unknown keywords (foreign
    /// keys such as the `CRC` integrity trailer are tolerated by decode).
    #[inline]
    fn intern(key: &str) -> Option<UlmKey> {
        Some(match key.as_bytes() {
            b"SRC" => UlmKey::Src,
            b"HOST" => UlmKey::Host,
            b"FILE" => UlmKey::File,
            b"SIZE" => UlmKey::Size,
            b"VOL" => UlmKey::Vol,
            b"START" => UlmKey::Start,
            b"END" => UlmKey::End,
            b"SECS" => UlmKey::Secs,
            b"BW_KBS" => UlmKey::Bw,
            b"OP" => UlmKey::Op,
            b"STREAMS" => UlmKey::Streams,
            b"BUF" => UlmKey::Buf,
            _ => return None,
        })
    }
}

/// Quote a value if it needs quoting, escaping the quote, backslash and
/// line-framing characters. Any whitespace (including Unicode whitespace
/// like U+0085, which the tokenizer treats as a separator) and any
/// control character forces quoting — otherwise the value would split or
/// corrupt the physical line.
fn encode_value(out: &mut String, v: &str) {
    let needs_quote = v.is_empty()
        || v.chars()
            .any(|c| matches!(c, '"' | '=' | '\\') || c.is_whitespace() || c.is_control());
    if !needs_quote {
        out.push_str(v);
        return;
    }
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            // The two characters that break line framing (`str::lines`
            // splits on `\n` and strips a trailing `\r`) are the only
            // ones that must not appear raw even inside quotes.
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Expand one escape sequence character: the inverse of [`encode_value`].
/// Unknown escapes decode to the escaped character itself (so legacy
/// `\x` sequences keep their old meaning).
#[inline]
pub(crate) fn unescape_char(c: char) -> char {
    match c {
        'n' => '\n',
        'r' => '\r',
        other => other,
    }
}

/// Encode a record as one ULM line (no trailing newline).
pub fn encode(r: &TransferRecord) -> String {
    let mut s = String::with_capacity(200);
    let mut kv = |k: &str, f: &mut dyn FnMut(&mut String)| {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(k);
        s.push('=');
        f(&mut s);
    };
    kv(keys::SRC, &mut |o| encode_value(o, &r.source));
    kv(keys::HOST, &mut |o| encode_value(o, &r.host));
    kv(keys::FILE, &mut |o| encode_value(o, &r.file_name));
    kv(keys::SIZE, &mut |o| {
        let _ = write!(o, "{}", r.file_size);
    });
    kv(keys::VOL, &mut |o| encode_value(o, &r.volume));
    kv(keys::START, &mut |o| {
        let _ = write!(o, "{}", r.start_unix);
    });
    kv(keys::END, &mut |o| {
        let _ = write!(o, "{}", r.end_unix);
    });
    kv(keys::SECS, &mut |o| {
        // Shortest round-trip form: reloading a log must reproduce the
        // original record bit-for-bit, so no fixed-precision rounding.
        let _ = write!(o, "{}", r.total_time_s);
    });
    kv(keys::BW, &mut |o| {
        let _ = write!(o, "{:.1}", r.bandwidth_kbs());
    });
    kv(keys::OP, &mut |o| o.push_str(r.operation.as_str()));
    kv(keys::STREAMS, &mut |o| {
        let _ = write!(o, "{}", r.streams);
    });
    kv(keys::BUF, &mut |o| {
        let _ = write!(o, "{}", r.tcp_buffer);
    });
    s
}

/// A borrowed value slice from [`tokenize_bytes`]: the raw content
/// (between the quotes, for quoted values) plus whether any backslash
/// escapes remain to be expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawValue<'a> {
    /// Raw value bytes as they appear on the line (escapes unexpanded).
    pub raw: &'a str,
    /// Whether `raw` contains backslash escapes. Always `false` for
    /// unquoted values — escapes only exist inside quotes.
    pub escaped: bool,
}

impl<'a> RawValue<'a> {
    /// The unescaped value, borrowing from the line when no escapes are
    /// present (the overwhelmingly common case).
    pub fn unescaped(&self) -> std::borrow::Cow<'a, str> {
        if !self.escaped {
            return std::borrow::Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        self.unescape_into(&mut out);
        std::borrow::Cow::Owned(out)
    }

    /// Append the unescaped value to `out` (arena-style expansion; no
    /// intermediate allocation).
    pub fn unescape_into(&self, out: &mut String) {
        if !self.escaped {
            out.push_str(self.raw);
            return;
        }
        let mut chars = self.raw.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                // The tokenizer guarantees a character follows every
                // backslash (else the quote was unterminated).
                if let Some(e) = chars.next() {
                    out.push(unescape_char(e));
                }
            } else {
                out.push(c);
            }
        }
    }
}

/// One `KEY=VALUE` token borrowed from a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawToken<'a> {
    /// The keyword (never quoted, never escaped).
    pub key: &'a str,
    /// The value, possibly still carrying escapes.
    pub value: RawValue<'a>,
}

/// Whether the ASCII byte is whitespace in the `char::is_whitespace`
/// sense (U+0009..U+000D and space).
#[inline]
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Byte width of the UTF-8 character starting at `i` (must be a char
/// boundary of a valid str).
#[inline]
fn char_width(s: &str, i: usize) -> usize {
    let b = s.as_bytes()[i];
    if b < 0x80 {
        1
    } else if b < 0xE0 {
        2
    } else if b < 0xF0 {
        3
    } else {
        4
    }
}

/// If the character starting at byte `i` is whitespace, its byte width.
/// ASCII is answered from the byte alone; multi-byte characters are
/// decoded to preserve exact `char::is_whitespace` semantics (U+0085,
/// U+2028, ... are separators to the allocating oracle too).
#[inline]
fn ws_width(s: &str, i: usize) -> Option<usize> {
    let b = s.as_bytes()[i];
    if b < 0x80 {
        return is_ascii_ws(b).then_some(1);
    }
    let c = s[i..].chars().next()?;
    c.is_whitespace().then(|| c.len_utf8())
}

/// Tokenize a ULM line without allocating: an iterator of borrowed
/// [`RawToken`]s. Stops after the first error (further `next` calls
/// return `None`).
///
/// Differentially tested against the allocating oracle
/// (`crate::testing::tokenize`): both produce the same pairs and the same
/// first error on every input.
pub fn tokenize_bytes(line: &str) -> TokenIter<'_> {
    TokenIter {
        line,
        pos: 0,
        failed: false,
    }
}

/// Iterator state for [`tokenize_bytes`].
#[derive(Debug, Clone)]
pub struct TokenIter<'a> {
    line: &'a str,
    pos: usize,
    failed: bool,
}

impl<'a> TokenIter<'a> {
    fn fail(&mut self, e: UlmError) -> Option<Result<RawToken<'a>, UlmError>> {
        self.failed = true;
        Some(Err(e))
    }
}

impl<'a> Iterator for TokenIter<'a> {
    type Item = Result<RawToken<'a>, UlmError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        // The scan loops branch on the raw byte first and fall back to
        // `ws_width`/`char_width` only for non-ASCII, so the dominant
        // all-ASCII case runs a couple of instructions per byte.
        let line = self.line;
        let bytes = line.as_bytes();
        let len = bytes.len();
        let mut i = self.pos;
        // Inter-token whitespace.
        loop {
            if i >= len {
                self.pos = i;
                return None;
            }
            let b = bytes[i];
            if b < 0x80 {
                if !is_ascii_ws(b) {
                    break;
                }
                i += 1;
            } else {
                match ws_width(line, i) {
                    Some(n) => i += n,
                    None => break,
                }
            }
        }
        // Key: up to `=`, whitespace, or end of line.
        let key_start = i;
        let mut saw_eq = false;
        let mut key_end = len;
        while i < len {
            let b = bytes[i];
            if b == b'=' {
                saw_eq = true;
                key_end = i;
                i += 1;
                break;
            }
            if b < 0x80 {
                if is_ascii_ws(b) {
                    key_end = i;
                    break;
                }
                i += 1;
            } else if ws_width(line, i).is_some() {
                key_end = i;
                break;
            } else {
                i += char_width(line, i);
            }
        }
        let key = &line[key_start..key_end];
        if !saw_eq || key.is_empty() {
            return self.fail(UlmError::Malformed(key.to_string()));
        }
        // Value: quoted (with escapes) or bare up to whitespace.
        if i < len && bytes[i] == b'"' {
            i += 1;
            let val_start = i;
            let mut escaped = false;
            loop {
                if i >= len {
                    return self.fail(UlmError::UnterminatedQuote);
                }
                let b = bytes[i];
                if b == b'"' {
                    break;
                }
                if b == b'\\' {
                    escaped = true;
                    i += 1;
                    if i >= len {
                        return self.fail(UlmError::UnterminatedQuote);
                    }
                    i += char_width(line, i);
                } else if b < 0x80 {
                    i += 1;
                } else {
                    i += char_width(line, i);
                }
            }
            let raw = &line[val_start..i];
            i += 1; // closing quote
            self.pos = i;
            Some(Ok(RawToken {
                key,
                value: RawValue { raw, escaped },
            }))
        } else {
            let val_start = i;
            while i < len {
                let b = bytes[i];
                if b < 0x80 {
                    if is_ascii_ws(b) {
                        break;
                    }
                    i += 1;
                } else if ws_width(line, i).is_some() {
                    break;
                } else {
                    i += char_width(line, i);
                }
            }
            self.pos = i;
            Some(Ok(RawToken {
                key,
                value: RawValue {
                    raw: &line[val_start..i],
                    escaped: false,
                },
            }))
        }
    }
}

/// Reusable scratch state for [`decode_borrowed`]: a string arena that
/// backs escape-expanded field values. One scratch serves a whole
/// document — it is cleared per line, and only lines that actually
/// contain escapes touch it at all.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    arena: String,
}

impl DecodeScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A decoded transfer record whose string fields borrow from the source
/// line (or the [`DecodeScratch`] arena when escapes were expanded).
/// The borrowed twin of [`TransferRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecordRef<'a> {
    /// Remote endpoint address.
    pub source: &'a str,
    /// Logging server hostname.
    pub host: &'a str,
    /// File path.
    pub file_name: &'a str,
    /// File size in bytes.
    pub file_size: u64,
    /// Logical volume.
    pub volume: &'a str,
    /// Start timestamp (Unix seconds).
    pub start_unix: u64,
    /// End timestamp (Unix seconds).
    pub end_unix: u64,
    /// Total transfer seconds.
    pub total_time_s: f64,
    /// Parallel stream count.
    pub streams: u32,
    /// TCP buffer bytes.
    pub tcp_buffer: u64,
    /// Operation direction.
    pub operation: Operation,
}

impl TransferRecordRef<'_> {
    /// End-to-end bandwidth in KB/s — same definition as
    /// [`TransferRecord::bandwidth_kbs`].
    pub fn bandwidth_kbs(&self) -> f64 {
        if self.total_time_s <= 0.0 {
            return 0.0;
        }
        self.file_size as f64 / self.total_time_s / 1_000.0
    }

    /// Materialise an owned [`TransferRecord`].
    pub fn to_owned(&self) -> TransferRecord {
        TransferRecord {
            source: self.source.to_string(),
            host: self.host.to_string(),
            file_name: self.file_name.to_string(),
            file_size: self.file_size,
            volume: self.volume.to_string(),
            start_unix: self.start_unix,
            end_unix: self.end_unix,
            total_time_s: self.total_time_s,
            streams: self.streams,
            tcp_buffer: self.tcp_buffer,
            operation: self.operation,
        }
    }
}

/// A string field's location before the arena is frozen: still on the
/// line, or a span of the arena (escape-expanded).
#[derive(Clone, Copy)]
enum Sp<'a> {
    Line(&'a str),
    Arena(usize, usize),
}

fn field_span<'a>(
    v: Option<RawValue<'a>>,
    key: &'static str,
    arena: &mut String,
) -> Result<Sp<'a>, UlmError> {
    let v = v.ok_or(UlmError::MissingKey(key))?;
    if !v.escaped {
        return Ok(Sp::Line(v.raw));
    }
    let mark = arena.len();
    v.unescape_into(arena);
    Ok(Sp::Arena(mark, arena.len()))
}

fn field_num<T: std::str::FromStr>(
    v: Option<RawValue<'_>>,
    key: &'static str,
) -> Result<T, UlmError> {
    let v = v.ok_or(UlmError::MissingKey(key))?;
    let text = v.unescaped();
    text.parse()
        .map_err(|_| UlmError::BadValue(key, text.into_owned()))
}

/// `str::parse::<u64>` fast path: up to `max_digits` ASCII digits — the
/// only shape the encoder emits. `max_digits` must be chosen so the
/// accumulator cannot overflow (19 for u64, 9 for u32). Anything else
/// returns `None` and the caller falls back to std parsing, so the
/// accepted language is exactly `FromStr`'s.
#[inline]
fn parse_digits_fast(s: &str, max_digits: usize) -> Option<u64> {
    let b = s.as_bytes();
    if b.is_empty() || b.len() > max_digits {
        return None;
    }
    let mut v: u64 = 0;
    for &d in b {
        if !d.is_ascii_digit() {
            return None;
        }
        v = v * 10 + (d - b'0') as u64;
    }
    Some(v)
}

fn field_u64(v: Option<RawValue<'_>>, key: &'static str) -> Result<u64, UlmError> {
    if let Some(rv) = v {
        if !rv.escaped {
            if let Some(n) = parse_digits_fast(rv.raw, 19) {
                return Ok(n);
            }
        }
    }
    field_num(v, key)
}

fn field_u32(v: Option<RawValue<'_>>, key: &'static str) -> Result<u32, UlmError> {
    if let Some(rv) = v {
        if !rv.escaped {
            if let Some(n) = parse_digits_fast(rv.raw, 9) {
                return Ok(n as u32);
            }
        }
    }
    field_num(v, key)
}

/// Parse one ULM line into a borrowed [`TransferRecordRef`] — the
/// zero-copy hot path. No allocation occurs unless the line contains
/// escape sequences (then the expansion lands in `scratch`'s arena) or
/// unknown keywords (tracked for duplicate detection).
///
/// Differentially tested against the allocating oracle
/// (`crate::testing::decode`): both produce the same record or the same
/// error on every line.
pub fn decode_borrowed<'a>(
    line: &'a str,
    scratch: &'a mut DecodeScratch,
) -> Result<TransferRecordRef<'a>, UlmError> {
    scratch.arena.clear();
    let mut slots: [Option<RawValue<'a>>; UlmKey::COUNT] = [None; UlmKey::COUNT];
    let mut unknown: Vec<&'a str> = Vec::new();
    let mut dup: Option<&'a str> = None;
    // Canonical error order, step 1+2: consume every token so a
    // tokenizer error anywhere on the line wins over an earlier
    // duplicate (exactly what the oracle's tokenize-then-check does).
    for tok in tokenize_bytes(line) {
        let tok = tok?;
        match UlmKey::intern(tok.key) {
            Some(k) => {
                let slot = &mut slots[k as usize];
                if slot.is_some() {
                    dup.get_or_insert(tok.key);
                } else {
                    *slot = Some(tok.value);
                }
            }
            None => {
                if unknown.contains(&tok.key) {
                    dup.get_or_insert(tok.key);
                } else {
                    unknown.push(tok.key);
                }
            }
        }
    }
    if let Some(k) = dup {
        return Err(UlmError::Malformed(format!("duplicate key {k}")));
    }
    // Step 3: a present-but-corrupt BW field (value unparsable or
    // non-finite) marks the line damaged even though BW is derived.
    if let Some(v) = slots[UlmKey::Bw as usize] {
        let bw: f64 = field_num(Some(v), keys::BW)?;
        if !bw.is_finite() {
            return Err(UlmError::BadValue(keys::BW, v.unescaped().into_owned()));
        }
    }
    // Step 4: the operation.
    let operation = {
        let v = slots[UlmKey::Op as usize].ok_or(UlmError::MissingKey(keys::OP))?;
        let text = v.unescaped();
        Operation::parse(&text).ok_or_else(|| UlmError::BadValue(keys::OP, text.into_owned()))?
    };
    // Step 5: remaining fields in record-declaration order.
    let arena = &mut scratch.arena;
    let source = field_span(slots[UlmKey::Src as usize], keys::SRC, arena)?;
    let host = field_span(slots[UlmKey::Host as usize], keys::HOST, arena)?;
    let file_name = field_span(slots[UlmKey::File as usize], keys::FILE, arena)?;
    let file_size = field_u64(slots[UlmKey::Size as usize], keys::SIZE)?;
    let volume = field_span(slots[UlmKey::Vol as usize], keys::VOL, arena)?;
    let start_unix = field_u64(slots[UlmKey::Start as usize], keys::START)?;
    let end_unix = field_u64(slots[UlmKey::End as usize], keys::END)?;
    let total_time_s: f64 = field_num(slots[UlmKey::Secs as usize], keys::SECS)?;
    let streams = field_u32(slots[UlmKey::Streams as usize], keys::STREAMS)?;
    let tcp_buffer = field_u64(slots[UlmKey::Buf as usize], keys::BUF)?;

    let arena: &'a str = scratch.arena.as_str();
    let resolve = |sp: Sp<'a>| -> &'a str {
        match sp {
            Sp::Line(s) => s,
            Sp::Arena(a, b) => &arena[a..b],
        }
    };
    Ok(TransferRecordRef {
        source: resolve(source),
        host: resolve(host),
        file_name: resolve(file_name),
        file_size,
        volume: resolve(volume),
        start_unix,
        end_unix,
        total_time_s,
        streams,
        tcp_buffer,
        operation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::sample_record;
    use crate::testing::{decode, tokenize};

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample_record();
        let line = encode(&r);
        let back = decode(&line).unwrap();
        assert_eq!(r.source, back.source);
        assert_eq!(r.file_size, back.file_size);
        assert_eq!(r.operation, back.operation);
        assert!((r.total_time_s - back.total_time_s).abs() < 1e-3);
    }

    #[test]
    fn entry_is_under_512_bytes() {
        // The paper: "Each log entry is well under 512 bytes."
        let line = encode(&sample_record());
        assert!(line.len() < 512, "entry {} bytes", line.len());
    }

    #[test]
    fn quoted_values_roundtrip() {
        let mut r = sample_record();
        r.file_name = "/home/ftp/with space/10 MB".to_string();
        r.volume = "/home/f\"tp".to_string();
        let line = encode(&r);
        let back = decode(&line).unwrap();
        assert_eq!(back.file_name, r.file_name);
        assert_eq!(back.volume, r.volume);
    }

    #[test]
    fn newline_in_file_name_stays_on_one_line() {
        // Regression: a file name containing a newline used to split the
        // record across two physical lines, corrupting CRC framing.
        let mut r = sample_record();
        r.file_name = "/evil/na\nme\rwith\u{0085}breaks".to_string();
        let line = encode(&r);
        assert_eq!(line.lines().count(), 1, "{line:?}");
        assert!(!line.contains('\n'));
        assert!(!line.contains('\r'));
        let back = decode(&line).unwrap();
        assert_eq!(back.file_name, r.file_name);
    }

    #[test]
    fn control_characters_roundtrip() {
        let mut r = sample_record();
        r.volume = "a\u{0}b\u{7}c\td".to_string();
        let line = encode(&r);
        assert_eq!(decode(&line).unwrap().volume, r.volume);
        let mut scratch = DecodeScratch::new();
        assert_eq!(
            decode_borrowed(&line, &mut scratch).unwrap().volume,
            r.volume
        );
    }

    #[test]
    fn tokenize_handles_plain_pairs() {
        let toks = tokenize("A=1 B=two C=3.5").unwrap();
        assert_eq!(
            toks,
            vec![
                ("A".into(), "1".into()),
                ("B".into(), "two".into()),
                ("C".into(), "3.5".into())
            ]
        );
    }

    #[test]
    fn tokenize_bytes_agrees_on_plain_pairs() {
        let toks: Vec<_> = tokenize_bytes("A=1 B=\"t o\" C=3.5")
            .map(|t| t.unwrap())
            .map(|t| (t.key.to_string(), t.value.unescaped().into_owned()))
            .collect();
        assert_eq!(
            toks,
            vec![
                ("A".into(), "1".into()),
                ("B".into(), "t o".into()),
                ("C".into(), "3.5".into())
            ]
        );
    }

    #[test]
    fn tokenize_rejects_missing_equals() {
        assert!(matches!(tokenize("JUNK"), Err(UlmError::Malformed(_))));
        assert!(matches!(
            tokenize_bytes("JUNK").next(),
            Some(Err(UlmError::Malformed(_)))
        ));
    }

    #[test]
    fn tokenize_rejects_unterminated_quote() {
        assert!(matches!(
            tokenize("A=\"open"),
            Err(UlmError::UnterminatedQuote)
        ));
        assert!(matches!(
            tokenize_bytes("A=\"open").next(),
            Some(Err(UlmError::UnterminatedQuote))
        ));
    }

    #[test]
    fn token_iter_fuses_after_error() {
        let mut it = tokenize_bytes("A=1 JUNK B=2");
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn decode_reports_missing_keys() {
        assert!(matches!(
            decode("SRC=1.2.3.4"),
            Err(UlmError::MissingKey(_))
        ));
    }

    #[test]
    fn decode_reports_bad_numbers() {
        let mut line = encode(&sample_record());
        line = line.replace("SIZE=10240000", "SIZE=ten");
        assert!(matches!(decode(&line), Err(UlmError::BadValue("SIZE", _))));
    }

    #[test]
    fn decode_reports_bad_operation() {
        let line = encode(&sample_record()).replace("OP=Read", "OP=Levitate");
        assert!(matches!(decode(&line), Err(UlmError::BadValue("OP", _))));
    }

    #[test]
    fn decode_rejects_non_finite_bandwidth() {
        // Regression: `BW=NaN`/`BW=inf` parse as valid f64 and used to
        // slip past the corrupt-BW guard.
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let line = encode(&sample_record()).replace("BW_KBS=2560.0", &format!("BW_KBS={bad}"));
            assert!(
                matches!(decode(&line), Err(UlmError::BadValue("BW_KBS", _))),
                "BW={bad} must be rejected"
            );
            let mut scratch = DecodeScratch::new();
            assert!(
                matches!(
                    decode_borrowed(&line, &mut scratch),
                    Err(UlmError::BadValue("BW_KBS", _))
                ),
                "borrowed path must reject BW={bad} too"
            );
        }
    }

    #[test]
    fn decode_rejects_duplicate_keys() {
        // Regression: a duplicated key used to silently resolve to the
        // first occurrence — ambiguous records now fail deterministically.
        let line = format!("{} SIZE=999", encode(&sample_record()));
        let expect = Err(UlmError::Malformed("duplicate key SIZE".to_string()));
        assert_eq!(decode(&line), expect);
        let mut scratch = DecodeScratch::new();
        assert_eq!(
            decode_borrowed(&line, &mut scratch).map(|r| r.to_owned()),
            expect
        );
        // Unknown keys count too (a doubled CRC trailer is damage).
        let line = format!("{} ZZZ=1 ZZZ=2", encode(&sample_record()));
        assert!(matches!(decode(&line), Err(UlmError::Malformed(_))));
    }

    #[test]
    fn empty_value_is_quoted_and_roundtrips() {
        let mut r = sample_record();
        r.volume = String::new();
        let line = encode(&r);
        assert!(line.contains("VOL=\"\""));
        assert_eq!(decode(&line).unwrap().volume, "");
    }

    #[test]
    fn bandwidth_field_matches_derivation() {
        let line = encode(&sample_record());
        assert!(line.contains("BW_KBS=2560.0"), "{line}");
    }

    #[test]
    fn borrowed_decode_matches_oracle_on_sample() {
        let line = encode(&sample_record());
        let oracle = decode(&line).unwrap();
        let mut scratch = DecodeScratch::new();
        let fast = decode_borrowed(&line, &mut scratch).unwrap();
        assert_eq!(fast.to_owned(), oracle);
        assert!((fast.bandwidth_kbs() - oracle.bandwidth_kbs()).abs() < 1e-12);
    }

    #[test]
    fn borrowed_decode_borrows_from_the_line_when_unescaped() {
        let line = encode(&sample_record());
        let mut scratch = DecodeScratch::new();
        let fast = decode_borrowed(&line, &mut scratch).unwrap();
        // No escapes in the sample: fields alias the line buffer.
        let line_range = line.as_ptr() as usize..line.as_ptr() as usize + line.len();
        assert!(line_range.contains(&(fast.host.as_ptr() as usize)));
    }

    #[test]
    fn scratch_is_reusable_across_lines() {
        let mut escaped = sample_record();
        escaped.file_name = "a\"b\nc".to_string();
        let lines = [encode(&sample_record()), encode(&escaped)];
        let mut scratch = DecodeScratch::new();
        for line in &lines {
            let fast = decode_borrowed(line, &mut scratch).unwrap();
            assert_eq!(fast.to_owned(), decode(line).unwrap());
        }
    }

    #[test]
    fn interned_keys_cover_the_schema() {
        // Every `keys` constant interns, to its own slot, in enum order.
        let schema = [
            keys::SRC,
            keys::HOST,
            keys::FILE,
            keys::SIZE,
            keys::VOL,
            keys::START,
            keys::END,
            keys::SECS,
            keys::BW,
            keys::OP,
            keys::STREAMS,
            keys::BUF,
        ];
        assert_eq!(schema.len(), UlmKey::COUNT);
        for (slot, k) in schema.into_iter().enumerate() {
            assert_eq!(UlmKey::intern(k).map(|key| key as usize), Some(slot), "{k}");
        }
        assert_eq!(UlmKey::intern("CRC"), None);
        assert_eq!(UlmKey::intern(""), None);
    }

    #[test]
    fn unicode_whitespace_in_values_is_quoted_and_roundtrips() {
        // U+0085 NEL is whitespace to the tokenizer; unquoted it used to
        // split the value. The encoder must quote it.
        let mut r = sample_record();
        r.volume = "a\u{0085}b\u{2028}c".to_string();
        let line = encode(&r);
        assert_eq!(decode(&line).unwrap().volume, r.volume);
        let mut scratch = DecodeScratch::new();
        assert_eq!(
            decode_borrowed(&line, &mut scratch).unwrap().volume,
            r.volume
        );
    }
}

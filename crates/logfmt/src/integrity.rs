//! Per-record integrity trailers: a CRC-32 (IEEE) over the ULM line,
//! appended as a final `CRC=xxxxxxxx` token.
//!
//! The trailer is backward compatible in both directions: [`crate::ulm::decode_borrowed`]
//! ignores unknown keywords, so checksummed lines load in old readers, and
//! a reader that understands trailers treats their absence as a legacy
//! line rather than an error. What the trailer buys is *detection*: a torn
//! tail, a flipped bit, or two writers' buffers interleaved mid-line all
//! change the line without necessarily making it unparsable, and only a
//! checksum distinguishes "odd but intact" from "silently wrong". The
//! salvage decoder ([`crate::salvage`]) uses it to quarantine exactly the
//! damaged lines.
//!
//! The implementation is dependency-free: the CRC-32 table is built by a
//! `const fn` at compile time.

/// The ` CRC=` marker that separates record content from its trailer.
/// Its keyword is kept out of [`crate::ulm::keys`] deliberately: it is
/// framing, not record vocabulary, and must not participate in the
/// encode/decode coherence check.
const MARKER: &str = " CRC=";

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append the integrity trailer to one encoded ULM line (which must not
/// already carry one and must not contain a newline).
pub fn append_crc(line: &str) -> String {
    format!("{line}{MARKER}{:08x}", crc32(line.as_bytes()))
}

/// Outcome of checking one line's integrity trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcStatus {
    /// No trailer present — a legacy line, fine under lenient decoding.
    Absent,
    /// Trailer present and it matches the content.
    Valid,
    /// Trailer present but wrong (bad hex, wrong length, or a checksum
    /// that does not match the content): the line was damaged.
    Mismatch,
}

/// Split a line into `(content, status)`. `content` excludes the trailer
/// when one is present (valid or not), so callers decode the original
/// record text. The *last* ` CRC=` occurrence is treated as the trailer:
/// quoted values may legally contain the marker, but the genuine trailer
/// is always appended after them.
pub fn check_line(line: &str) -> (&str, CrcStatus) {
    let Some(pos) = line.rfind(MARKER) else {
        return (line, CrcStatus::Absent);
    };
    let content = &line[..pos];
    let stored = &line[pos + MARKER.len()..];
    // Canonical trailers are exactly 8 lowercase hex digits; anything
    // else (including a case-flipped digit) counts as damage.
    let canonical = stored.len() == 8
        && stored
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    let ok = canonical
        && u32::from_str_radix(stored, 16)
            .map(|s| s == crc32(content.as_bytes()))
            .unwrap_or(false);
    if ok {
        (content, CrcStatus::Valid)
    } else {
        (content, CrcStatus::Mismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::sample_record;
    use crate::ulm;

    #[test]
    fn known_vector() {
        // The classic CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_detects_any_single_bit_flip() {
        let line = ulm::encode(&sample_record());
        let sealed = append_crc(&line);
        let (content, status) = check_line(&sealed);
        assert_eq!(status, CrcStatus::Valid);
        assert_eq!(content, line);

        let bytes = sealed.as_bytes();
        for i in 0..bytes.len() {
            for bit in 0..7 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                let s = String::from_utf8(flipped).expect("ascii stays utf8");
                let (_, status) = check_line(&s);
                assert_ne!(status, CrcStatus::Valid, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn legacy_lines_report_absent() {
        let line = ulm::encode(&sample_record());
        let (content, status) = check_line(&line);
        assert_eq!(status, CrcStatus::Absent);
        assert_eq!(content, line);
    }

    #[test]
    fn truncated_trailer_is_a_mismatch() {
        let sealed = append_crc("SRC=1.2.3.4 HOST=h");
        let cut = &sealed[..sealed.len() - 3];
        let (_, status) = check_line(cut);
        assert_eq!(status, CrcStatus::Mismatch);
    }

    #[test]
    fn marker_inside_a_quoted_value_does_not_confuse_the_split() {
        let mut r = sample_record();
        r.file_name = "/data/weird CRC=deadbeef name".into();
        let line = ulm::encode(&r);
        let sealed = append_crc(&line);
        let (content, status) = check_line(&sealed);
        assert_eq!(status, CrcStatus::Valid);
        assert_eq!(content, line);
    }
}

//! Deterministic corruption chaos for ULM documents.
//!
//! Campaigns need to *prove* the salvage path works, and they need the
//! proof to be reproducible: same seed, same damage, byte for byte. The
//! injector models the four failure shapes production log files actually
//! exhibit:
//!
//! * **Truncation mid-record** — a crash between `write` and `fsync`
//!   leaves a torn tail (or a torn middle, after concatenation).
//! * **Bit flips** — disk or transport rot; the line often still parses,
//!   which is exactly why records carry integrity trailers.
//! * **Line duplication** — a writer restarting after a crash replays its
//!   last buffer.
//! * **Interleaved partial writes** — two appenders race; one line's
//!   prefix is spliced onto the next line.
//!
//! Randomness comes from an inline splitmix64 stream seeded from the
//! campaign's master seed — no OS entropy anywhere (the workspace tidy
//! pass bans it on the simulation path), so double runs are identical.

/// Chaos configuration: corruption rate and PRNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability that any one record line is corrupted.
    pub rate: f64,
    /// Seed of the deterministic corruption stream.
    pub seed: u64,
}

impl ChaosConfig {
    /// Build a config.
    pub fn new(rate: f64, seed: u64) -> Self {
        ChaosConfig { rate, seed }
    }
}

/// Which corruption was applied to a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// The line was cut somewhere strictly inside.
    Truncate,
    /// One bit of one byte was flipped (ASCII-preserving).
    BitFlip,
    /// The line was emitted twice (the original stays intact).
    Duplicate,
    /// The line's prefix was spliced onto the following line, consuming
    /// both.
    Interleave,
}

/// What the injector did, by 0-based index into the *original* document's
/// lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Record lines examined (blank/comment lines are never touched).
    pub lines_seen: usize,
    /// Every applied operation with the original line index it targeted.
    /// An [`ChaosOp::Interleave`] records two entries: the spliced line
    /// and the consumed follower.
    pub ops: Vec<(usize, ChaosOp)>,
}

impl ChaosReport {
    /// Indices of original lines whose record content was damaged or
    /// destroyed. [`ChaosOp::Duplicate`] leaves the original intact, so
    /// it does not appear here.
    pub fn lost_lines(&self) -> std::collections::BTreeSet<usize> {
        self.ops
            .iter()
            .filter(|(_, op)| *op != ChaosOp::Duplicate)
            .map(|(i, _)| *i)
            .collect()
    }
}

/// A splitmix64 stream: tiny, seedable, and plenty for fault injection.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn is_record(line: &str) -> bool {
    let t = line.trim();
    !t.is_empty() && !t.starts_with('#')
}

/// Cut a line strictly inside itself (on a char boundary).
fn truncate_line(line: &str, rng: &mut SplitMix) -> String {
    if line.len() < 2 {
        return String::new();
    }
    let mut cut = 1 + rng.next() as usize % (line.len() - 1);
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    line[..cut].to_string()
}

/// Flip one low bit of one ASCII byte — guaranteed to change the byte
/// while keeping the document valid UTF-8.
fn flip_line(line: &str, rng: &mut SplitMix) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let ascii: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b < 0x80)
        .map(|(i, _)| i)
        .collect();
    if ascii.is_empty() {
        return line.to_string();
    }
    let pos = ascii[rng.next() as usize % ascii.len()];
    bytes[pos] ^= 1 << rng.below(7);
    String::from_utf8(bytes).unwrap_or_else(|_| line.to_string())
}

/// Corrupt a document. Each record line is independently hit with
/// probability `cfg.rate`; blank lines and comments pass through. Returns
/// the damaged document and a report of what was done.
pub fn corrupt_doc(doc: &str, cfg: &ChaosConfig) -> (String, ChaosReport) {
    let lines: Vec<&str> = doc.lines().collect();
    let trailing_newline = doc.ends_with('\n');
    let mut rng = SplitMix(cfg.seed);
    let mut out: Vec<String> = Vec::with_capacity(lines.len());
    let mut report = ChaosReport::default();

    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if !is_record(line) {
            out.push(line.to_string());
            i += 1;
            continue;
        }
        report.lines_seen += 1;
        if rng.next_f64() >= cfg.rate {
            out.push(line.to_string());
            i += 1;
            continue;
        }
        let op = match rng.below(4) {
            0 => ChaosOp::Truncate,
            1 => ChaosOp::BitFlip,
            2 => ChaosOp::Duplicate,
            _ => ChaosOp::Interleave,
        };
        match op {
            ChaosOp::Truncate => {
                out.push(truncate_line(line, &mut rng));
                report.ops.push((i, ChaosOp::Truncate));
                i += 1;
            }
            ChaosOp::BitFlip => {
                out.push(flip_line(line, &mut rng));
                report.ops.push((i, ChaosOp::BitFlip));
                i += 1;
            }
            ChaosOp::Duplicate => {
                out.push(line.to_string());
                out.push(line.to_string());
                report.ops.push((i, ChaosOp::Duplicate));
                i += 1;
            }
            ChaosOp::Interleave => {
                if i + 1 < lines.len() && is_record(lines[i + 1]) {
                    // Writer A's buffer is cut short and writer B's line
                    // lands in the middle of it: one merged junk line.
                    let prefix = truncate_line(line, &mut rng);
                    out.push(format!("{prefix}{}", lines[i + 1]));
                    report.lines_seen += 1;
                    report.ops.push((i, ChaosOp::Interleave));
                    report.ops.push((i + 1, ChaosOp::Interleave));
                    i += 2;
                } else {
                    // No follower to splice with: degrade to truncation.
                    out.push(truncate_line(line, &mut rng));
                    report.ops.push((i, ChaosOp::Truncate));
                    i += 1;
                }
            }
        }
    }

    let mut damaged = out.join("\n");
    if trailing_newline && !damaged.is_empty() {
        damaged.push('\n');
    }
    (damaged, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::append_crc;
    use crate::record::sample_record;
    use crate::salvage::{salvage_doc, SalvageOptions};
    use crate::ulm::encode;

    fn doc(n: u64, sealed: bool) -> String {
        let mut s = String::new();
        for i in 0..n {
            let mut r = sample_record();
            r.start_unix = 1_000 + i * 10;
            r.end_unix = r.start_unix + 4;
            let line = encode(&r);
            s.push_str(&if sealed { append_crc(&line) } else { line });
            s.push('\n');
        }
        s
    }

    #[test]
    fn zero_rate_is_identity() {
        let d = doc(20, true);
        let (out, report) = corrupt_doc(&d, &ChaosConfig::new(0.0, 7));
        assert_eq!(out, d);
        assert_eq!(report.lines_seen, 20);
        assert!(report.ops.is_empty());
    }

    #[test]
    fn same_seed_same_damage_different_seed_different_damage() {
        let d = doc(50, true);
        let (a, ra) = corrupt_doc(&d, &ChaosConfig::new(0.3, 9));
        let (b, rb) = corrupt_doc(&d, &ChaosConfig::new(0.3, 9));
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let (c, _) = corrupt_doc(&d, &ChaosConfig::new(0.3, 10));
        assert_ne!(a, c);
    }

    #[test]
    fn full_rate_damages_every_line() {
        let d = doc(30, true);
        let (_, report) = corrupt_doc(&d, &ChaosConfig::new(1.0, 3));
        // Every original line appears in some op.
        let touched: std::collections::BTreeSet<usize> =
            report.ops.iter().map(|(i, _)| *i).collect();
        assert_eq!(touched.len(), 30);
    }

    #[test]
    fn strict_salvage_recovers_exactly_the_untouched_records() {
        let d = doc(200, true);
        let originals: Vec<&str> = d.lines().collect();
        let (damaged, report) = corrupt_doc(&d, &ChaosConfig::new(0.2, 42));
        let lost = report.lost_lines();
        let (log, salvage) = salvage_doc(&damaged, &SalvageOptions::strict());
        let expected: Vec<String> = originals
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(_, l)| l.to_string())
            .collect();
        assert_eq!(log.len(), expected.len());
        for (r, line) in log.records().iter().zip(&expected) {
            assert_eq!(&append_crc(&encode(r)), line);
        }
        assert!(!salvage.is_clean());
        assert_eq!(salvage.kept, expected.len());
    }

    #[test]
    fn comments_and_blanks_pass_through_untouched() {
        let d = format!("# header\n\n{}", doc(5, true));
        let (out, _) = corrupt_doc(&d, &ChaosConfig::new(1.0, 1));
        assert!(out.starts_with("# header\n\n"));
    }
}

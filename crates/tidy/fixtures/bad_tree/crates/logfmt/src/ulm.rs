// Fixture: ULM keyword drift — DEST is emitted by encode but never
// parsed back by decode_borrowed; STALE is declared but never emitted.
pub mod keys {
    pub const SRC: &str = "SRC";
    pub const DEST: &str = "DEST";
    pub const STALE: &str = "STALE";
}

pub fn encode(a: &str, b: &str) -> String {
    format!("{}={} {}={}", keys::SRC, a, keys::DEST, b)
}

pub fn decode_borrowed(line: &str) -> Option<String> {
    line.strip_prefix(keys::SRC).map(str::to_string)
}

//! The four workloads and what they share.
//!
//! A workload is set up once (fixtures plus one warm-up pass) and then
//! run as a sequence of *passes*. Pass `i` is a pure function of
//! `(seed, i)` and starts from the same state as every other pass, so a
//! run that fits more passes into its time budget measures the same
//! thing more often, not something else. Pass 0 is the reference pass:
//! the `result_digest` and every count metric come from it alone, so
//! they repeat bit-for-bit however many passes follow.

use std::collections::BTreeMap;
use std::sync::Arc;

use wanpred_infod::{
    Dn, Entry, GridFtpPerfProvider, Gris, InfoProvider, InquiryError, InquiryRequest,
    InquiryResponse, InquiryService, Materialized, ProviderError, ShardedServer, SnapshotSource,
};

use crate::digest::Digest;
use crate::rng::Rng;
use crate::trace::span;

pub mod grid_scale;
pub mod history_refresh;
pub mod inquiry_mix;
pub mod paper_pipeline;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "paper_pipeline",
    "grid_scale",
    "history_refresh",
    "inquiry_mix",
];

/// Named counters and measured values a pass or probe hands back.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one pass did.
pub struct PassOut {
    /// User-visible operations attempted (the unit of `ops_per_s`).
    pub ops: u64,
    /// Of those, failed or refused; a broken invariant counts too.
    pub failed: u64,
    /// Host seconds of the timed part of the pass.
    pub timed_s: f64,
    /// One sample per user-visible wait, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Fold of the pass's deterministic outputs.
    pub digest: Digest,
    pub counts: Counts,
}

impl PassOut {
    pub fn new() -> Self {
        PassOut {
            ops: 0,
            failed: 0,
            timed_s: 0.0,
            latencies_ms: Vec::new(),
            digest: Digest::new(),
            counts: Counts::new(),
        }
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Count a violated invariant as a failed operation and say which.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("wanbench: check failed: {what}");
        }
    }
}

pub trait Workload {
    /// Put the workload back to the state every pass starts from.
    /// Neither timed nor traced.
    fn prepare(&mut self, _index: u64) {}

    /// Run pass `index`.
    fn pass(&mut self, index: u64) -> PassOut;

    /// Fixed-size measurements of single layers, taken once after the
    /// traced passes (scaling curves, direct calls). Names are
    /// per-layer metric names.
    fn layer_probes(&mut self) -> Counts {
        Counts::new()
    }

    /// The frozen sizes, for the envelope.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
}

/// Build workload `name`: fixtures plus one warm-up pass.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_pipeline" => Box::new(paper_pipeline::PaperPipeline::setup(seed, smoke)),
        "grid_scale" => Box::new(grid_scale::GridScale::setup(seed, smoke)),
        "history_refresh" => Box::new(history_refresh::HistoryRefresh::setup(seed, smoke)),
        "inquiry_mix" => Box::new(inquiry_mix::InquiryMix::setup(seed, smoke)),
        _ => return None,
    })
}

// --- Bench-side wrappers at the infod layer boundaries. ----------------
//
// The serving layer reaches GRIS and provider through public traits, so
// the benchmark can stand between the layers and time each crossing
// without a line of code inside them.

/// `infod.provider.build` around the performance provider.
pub struct TracedProvider(pub GridFtpPerfProvider);

impl InfoProvider for TracedProvider {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn provide(&mut self, now_unix: u64) -> Result<Vec<Entry>, ProviderError> {
        span("infod.provider.build", || self.0.provide(now_unix))
    }
    fn ttl_secs(&self) -> u64 {
        self.0.ttl_secs()
    }
}

/// `infod.gris.materialize` around a site's GRIS.
pub struct TracedGris(pub Arc<Gris>);

impl SnapshotSource for TracedGris {
    fn materialize(&self, now_unix: u64) -> Materialized {
        span("infod.gris.materialize", || self.0.materialize(now_unix))
    }
}

/// `infod.serve.inquire` around the sharded server, so inquiries the
/// broker makes on its own show up under its span.
pub struct TracedServer(pub Arc<ShardedServer>);

impl InquiryService for TracedServer {
    fn inquire(&self, req: &InquiryRequest) -> Result<InquiryResponse, InquiryError> {
        span("infod.serve.inquire", || self.0.inquire(req))
    }
}

/// A one-provider GRIS for a site, as every example in the repository
/// builds it.
pub fn site_gris(provider: GridFtpPerfProvider) -> Arc<Gris> {
    let mut g = Gris::new(Dn::parse("o=grid").expect("constant"));
    g.register_provider(Box::new(TracedProvider(provider)));
    Arc::new(g)
}

/// Draw a file of the paper's 13-size set: `(path, size in bytes)`.
pub fn draw_paper_file(rng: &mut Rng) -> (String, u64) {
    let files = wanpred_storage::paper_fileset();
    let (name, mb) = files[rng.below(files.len())];
    (
        format!("/home/ftp/vazhkuda/{name}"),
        u64::from(mb) * 1_024_000,
    )
}

/// Parse a filter (`infod.filter.parse`) and put the inquiry to `svc`.
pub fn inquire(
    svc: &dyn InquiryService,
    filter: &str,
    now_unix: u64,
) -> Result<InquiryResponse, InquiryError> {
    let req = span("infod.filter.parse", || {
        InquiryRequest::parse(filter, now_unix)
    })?;
    svc.inquire(&req)
}

/// Drop an answer (`infod.serve.release`): the entries are owned copies,
/// and freeing them is part of what an inquiry costs its caller.
pub fn release(resp: InquiryResponse) {
    span("infod.serve.release", || drop(resp));
}

/// Sorted LDIF rendering of an answer: the entry *set*, byte for byte.
pub fn entry_set(resp: &InquiryResponse) -> Vec<String> {
    let mut ldif: Vec<String> = resp.entries.iter().map(Entry::to_ldif).collect();
    ldif.sort();
    ldif
}

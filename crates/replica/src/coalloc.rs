//! Co-allocating multi-replica transfers with mid-stream failover.
//!
//! The broker half of the pipeline (this crate) predicts which replica
//! will be fastest; this module closes the loop described in ROADMAP
//! item 4 and in Allcock et al.'s striped/partial transfer machinery: a
//! client that fetches **one file from several replicas at once** and
//! survives a source degrading or dying mid-stream.
//!
//! The [`Coallocator`] takes the broker's top-k sources with their
//! predicted bandwidths, splits the file into contiguous REST/partial
//! chunks weighted by those predictions ([`plan_chunks`]), and drives
//! one independent partial GET per chunk through the
//! [`wanpred_gridftp::TransferManager`]. Each stripe is then watched by
//! a deterministic progress monitor on sim-time windows:
//!
//! * **degradation** — a windowed EWMA of the stripe's delivered
//!   throughput falls past a quarter of the predicted rate for three
//!   consecutive windows → the source is demoted: the stripe is aborted
//!   with an exact byte count ([`TransferManager::abort_exact`]), the
//!   delivered prefix is banked, and the *remaining* byte range is
//!   re-planned onto the surviving sources;
//! * **death** — the transfer manager exhausts its
//!   [`wanpred_gridftp::RetryPolicy`] budget for the stripe (connection
//!   resets from `simnet::fault` schedules, attempt deadlines) and
//!   reports it `Failed` → same rebalance, crediting the bytes the
//!   retries already delivered.
//!
//! Either way the replacement chunks resume from the delivered offset —
//! **no byte is ever fetched twice** ([`CompletedCoalloc::verify_tiling`]
//! proves the covered ranges tile `[0, size)` exactly). Demoted sources
//! land on a blacklist whose penalty doubles on repeat offenses and
//! decays after a quiet period, so a recovered source rejoins the pool.

use std::collections::BTreeMap;

use wanpred_gridftp::transfer::{
    CompletedTransfer, SubmitError, TransferKind, TransferManager, TransferRequest, TransferToken,
};
use wanpred_obs::{names, ObsSink};
use wanpred_simnet::engine::{Ctx, TimerTag};
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::NodeId;

/// Timer-tag namespace for the co-allocator's monitor ticks. Bit 61 is
/// set and bit 62 clear, so [`owns_tag`] never collides with the
/// transfer manager's namespace (bit 62) or with the small indices
/// campaign agents use for workload timers.
pub const COALLOC_TAG_BASE: TimerTag = 1 << 61;

/// Whether a timer tag belongs to a [`Coallocator`]. Check the transfer
/// manager's [`wanpred_gridftp::owns_tag`] first — its tags keep bit 62.
pub fn owns_tag(tag: TimerTag) -> bool {
    tag & COALLOC_TAG_BASE != 0 && tag & wanpred_gridftp::TAG_BASE == 0
}

/// Split `[0, total)` into one contiguous chunk per weight, sized
/// proportionally to the weights (predicted bandwidths). Boundaries are
/// placed by cumulative rounding, so the chunks always tile `[0, total)`
/// exactly — no gap, no overlap, last chunk pinned to EOF — for any
/// weights, including zeros, non-finite values (treated as zero), and
/// `total = 0`. When no weight is usable the split degrades to even
/// shares. Chunks can come out zero-sized when a weight is a vanishing
/// fraction of the total; callers should skip those stripes.
pub fn plan_chunks(total: u64, weights: &[f64]) -> Vec<(u64, u64)> {
    assert!(!weights.is_empty(), "plans need at least one source");
    let clean: Vec<f64> = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .collect();
    let sum: f64 = clean.iter().sum();
    let n = clean.len();
    let mut out = Vec::with_capacity(n);
    if sum <= 0.0 {
        let mut off = 0u64;
        for s in wanpred_gridftp::stripe_shares(total, n) {
            out.push((off, s));
            off += s;
        }
        return out;
    }
    let mut cum = 0.0f64;
    let mut prev = 0u64;
    for (i, w) in clean.iter().enumerate() {
        cum += w;
        let boundary = if i == n - 1 {
            // The last boundary is pinned to EOF: float error can never
            // leave a tail byte unplanned.
            total
        } else {
            (((total as f64) * (cum / sum)).round() as u64).clamp(prev, total)
        };
        out.push((prev, boundary - prev));
        prev = boundary;
    }
    out
}

// Monitor and rebalance policy, tuned for the paper's WAN testbed: 20 s
// monitor windows (a few windows per even the fastest interesting
// transfer), three strikes at a quarter of the predicted rate, a
// megabyte chunk floor, a 5 min → 30 min blacklist ladder. Every
// threshold is a function of sim time — no wall clock anywhere.

/// Progress-monitor tick: each live transfer samples every stripe's
/// delivered bytes at this period.
const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(20);
/// EWMA smoothing weight for the newest window's throughput.
const EWMA_ALPHA: f64 = 0.4;
/// Demote a stripe when its EWMA throughput has been below
/// `DEGRADE_RATIO × predicted` …
const DEGRADE_RATIO: f64 = 0.25;
/// … for this many consecutive monitor windows.
const DEGRADE_WINDOWS: u32 = 3;
/// Windows to wait before judging a fresh stripe (control-channel setup
/// and TCP slow start look like degradation otherwise).
const WARMUP_WINDOWS: u32 = 2;
/// Never plan a chunk smaller than this: below it, stripe setup overhead
/// outweighs the parallelism (also caps the stripe count for small
/// files).
const MIN_CHUNK_BYTES: u64 = 1_024_000;
/// First blacklist penalty after a demotion or death.
const BLACKLIST_BASE: SimDuration = SimDuration::from_mins(5);
/// Penalty multiplier per repeat offense…
const BLACKLIST_FACTOR: f64 = 2.0;
/// …capped here. Also the quiet period after which an expired entry's
/// strike count resets (the decay half of blacklist-with-decay).
const BLACKLIST_MAX: SimDuration = SimDuration::from_mins(30);

/// One candidate source for a co-allocated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoallocSource {
    /// The server node.
    pub node: NodeId,
    /// Predicted bandwidth (KB/s) from the broker's ranking; drives the
    /// chunk weights and the degradation threshold.
    pub predicted_kbs: f64,
}

/// A co-allocated GET request: fetch `path` from up to `k` of the
/// ranked `sources` at once.
#[derive(Debug, Clone)]
pub struct CoallocRequest {
    /// Receiving client node.
    pub client: NodeId,
    /// File path (must resolve to the same size on every source).
    pub path: String,
    /// Candidate sources, best first (the broker's top-k order).
    pub sources: Vec<CoallocSource>,
    /// Stripe across at most this many sources.
    pub k: usize,
    /// Parallel streams per stripe.
    pub streams: u32,
    /// TCP buffer per stripe.
    pub tcp_buffer: u64,
}

/// One byte range delivered by one source — the completion report's
/// proof obligation: a completed transfer's reports tile `[0, size)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeReport {
    /// Delivering server.
    pub source: NodeId,
    /// First byte of the range.
    pub offset: u64,
    /// Length of the range.
    pub len: u64,
}

/// A finished co-allocated transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedCoalloc {
    /// The co-allocated transfer id (the [`Coallocator::start`] handle).
    pub id: u64,
    /// File path.
    pub path: String,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time of the last stripe.
    pub finished: SimTime,
    /// End-to-end bandwidth (KB/s): total bytes over wall time,
    /// the paper's whole-operation definition.
    pub bandwidth_kbs: f64,
    /// Stripes driven: the initial plan plus every rebalance replacement.
    pub stripes: u32,
    /// Rebalances performed.
    pub rebalances: u32,
    /// Bytes banked from demoted or dead stripes (kept, not re-fetched).
    pub bytes_salvaged: u64,
    /// Every delivered byte range; see
    /// [`CompletedCoalloc::verify_tiling`].
    pub covered: Vec<StripeReport>,
}

impl CompletedCoalloc {
    /// Check the no-double-fetch contract: sorted by offset, the covered
    /// ranges must tile `[0, total_bytes)` contiguously — any gap means
    /// a byte was lost, any overlap means a byte was fetched twice.
    pub fn verify_tiling(&self) -> Result<(), String> {
        let mut ranges: Vec<(u64, u64)> = self.covered.iter().map(|r| (r.offset, r.len)).collect();
        ranges.sort_unstable();
        let mut at = 0u64;
        for (off, len) in ranges {
            if off != at {
                return Err(format!(
                    "range starting at byte {off} does not abut the {at} bytes covered so far"
                ));
            }
            at += len;
        }
        if at != self.total_bytes {
            return Err(format!("covered {at} of {} bytes", self.total_bytes));
        }
        Ok(())
    }
}

/// A co-allocated transfer abandoned with no surviving source.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCoalloc {
    /// The co-allocated transfer id.
    pub id: u64,
    /// File path.
    pub path: String,
    /// Bytes that had been delivered when the transfer was abandoned.
    pub delivered_bytes: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
}

/// Notifications drained with [`Coallocator::take_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum CoallocEvent {
    /// A stripe's EWMA throughput fell past the degradation threshold.
    Demoted {
        /// The co-allocated transfer.
        id: u64,
        /// The demoted source.
        source: NodeId,
        /// Its EWMA throughput at demotion (KB/s).
        ewma_kbs: f64,
        /// The prediction it was judged against (KB/s).
        predicted_kbs: f64,
    },
    /// A byte range was re-planned onto surviving sources.
    Rebalanced {
        /// The co-allocated transfer.
        id: u64,
        /// The source whose range was taken away.
        from: NodeId,
        /// Bytes handed to the survivors.
        bytes_replanned: u64,
        /// How many sources picked up the range.
        survivors: usize,
    },
    /// A source entered the blacklist.
    Blacklisted {
        /// The offender.
        source: NodeId,
        /// Penalty expiry (sim time).
        until: SimTime,
        /// Consecutive offenses counted against it.
        strikes: u32,
    },
    /// A blacklisted source's penalty expired; it is selectable again.
    Rejoined {
        /// The recovered source.
        source: NodeId,
    },
    /// The transfer was abandoned: no surviving source could take the
    /// remaining bytes.
    Failed(FailedCoalloc),
}

/// One live stripe.
#[derive(Debug, Clone)]
struct Stripe {
    source: NodeId,
    offset: u64,
    len: u64,
    token: TransferToken,
    predicted_kbs: f64,
    /// Delivered bytes at the last monitor tick.
    last_bytes: u64,
    last_at: SimTime,
    ewma_kbs: Option<f64>,
    windows_seen: u32,
    windows_below: u32,
}

/// One co-allocated transfer in flight.
#[derive(Debug, Clone)]
struct Xfer {
    path: String,
    client: NodeId,
    total: u64,
    streams: u32,
    tcp_buffer: u64,
    submitted: SimTime,
    /// The co-allocated sources (the rebalance targets).
    candidates: Vec<CoallocSource>,
    /// Live stripes only; finished or demoted stripes move their ranges
    /// into `covered`.
    stripes: Vec<Stripe>,
    covered: Vec<StripeReport>,
    stripes_started: u32,
    rebalances: u32,
    bytes_salvaged: u64,
}

#[derive(Debug, Clone, Copy)]
struct BlacklistEntry {
    until: SimTime,
    strikes: u32,
}

/// The co-allocating transfer client. Embed it next to a
/// [`TransferManager`] inside an agent and forward events:
///
/// * `on_timer` → [`TransferManager::on_timer`] first, then
///   [`Coallocator::on_timer`];
/// * after forwarding flow events, drain
///   [`TransferManager::take_events`] and route `Failed` stripes into
///   [`Coallocator::on_transfer_failed`];
/// * completions from [`TransferManager::on_flow_complete`] go through
///   [`Coallocator::on_transfer_complete`].
pub struct Coallocator {
    xfers: BTreeMap<u64, Xfer>,
    by_token: BTreeMap<TransferToken, (u64, usize)>,
    blacklist: BTreeMap<NodeId, BlacklistEntry>,
    events: Vec<CoallocEvent>,
    next: u64,
    obs: ObsSink,
}

impl Default for Coallocator {
    fn default() -> Self {
        Self::new()
    }
}

impl Coallocator {
    /// An idle co-allocator with nothing in flight and an empty blacklist.
    pub fn new() -> Self {
        Coallocator {
            xfers: BTreeMap::new(),
            by_token: BTreeMap::new(),
            blacklist: BTreeMap::new(),
            events: Vec::new(),
            next: 0,
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink (stripe counts, rebalances, bytes
    /// salvaged, demotions — all registered in `names::all()`).
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Drain pending notifications.
    pub fn take_events(&mut self) -> Vec<CoallocEvent> {
        std::mem::take(&mut self.events)
    }

    /// Live co-allocated transfers.
    pub fn active(&self) -> usize {
        self.xfers.len()
    }

    /// Whether a source is currently serving a blacklist penalty.
    pub fn is_blacklisted(&self, node: NodeId, now: SimTime) -> bool {
        self.blacklist.get(&node).is_some_and(|e| now < e.until)
    }

    /// Expire and drop a source's penalty if its time has been served;
    /// returns whether the source is usable now.
    fn usable(&mut self, node: NodeId, now: SimTime) -> bool {
        match self.blacklist.get(&node) {
            None => true,
            Some(e) if now < e.until => false,
            Some(e) => {
                // Strike memory decays after a quiet period: an entry
                // that sat expired for `blacklist_max` starts over.
                if now.saturating_since(e.until) >= BLACKLIST_MAX {
                    self.blacklist.remove(&node);
                }
                self.obs.inc(names::REPLICA_COALLOC_REJOINS);
                self.events.push(CoallocEvent::Rejoined { source: node });
                true
            }
        }
    }

    /// Blacklist a source (demotion or death), escalating the penalty
    /// for repeat offenses within the decay window.
    fn punish(&mut self, node: NodeId, now: SimTime) {
        let strikes = match self.blacklist.get(&node) {
            Some(e) => e.strikes + 1,
            None => 1,
        };
        let micros = BLACKLIST_BASE.as_micros() as f64 * BLACKLIST_FACTOR.powi(strikes as i32 - 1);
        let penalty = SimDuration::from_micros(micros as u64).min(BLACKLIST_MAX);
        let until = now + penalty;
        self.blacklist
            .insert(node, BlacklistEntry { until, strikes });
        self.obs.inc(names::REPLICA_COALLOC_BLACKLISTED);
        self.events.push(CoallocEvent::Blacklisted {
            source: node,
            until,
            strikes,
        });
    }

    /// Start a co-allocated GET. Validates every candidate against its
    /// catalog (sizes must agree), filters sources serving a blacklist
    /// penalty (unless that would empty the pool — a degraded pool still
    /// beats an instant failure), plans prediction-weighted chunks, and
    /// submits one partial GET per chunk. Returns the co-allocated
    /// transfer id.
    pub fn start(
        &mut self,
        ctx: &mut Ctx<'_>,
        mgr: &mut TransferManager,
        req: CoallocRequest,
    ) -> Result<u64, SubmitError> {
        let now = ctx.now();
        let mut pool: Vec<CoallocSource> = Vec::new();
        for s in &req.sources {
            if self.usable(s.node, now) {
                pool.push(*s);
            }
        }
        if pool.is_empty() {
            pool = req.sources.clone();
        }
        // Validate candidates and agree on the file size: the first
        // usable source fixes it, and a replica that disagrees is dropped.
        let mut total: Option<u64> = None;
        let mut first_err: Option<SubmitError> = None;
        pool.retain(|s| {
            let size = mgr
                .storage(s.node)
                .ok_or(SubmitError::NotAServer(s.node))
                .and_then(|st| {
                    st.catalog()
                        .lookup(&req.path)
                        .map(|e| e.size)
                        .map_err(|_| SubmitError::FileNotFound(req.path.clone()))
                });
            match size {
                Ok(sz) => *total.get_or_insert(sz) == sz,
                Err(e) => {
                    first_err.get_or_insert(e);
                    false
                }
            }
        });
        let Some(total) = total else {
            return Err(first_err.unwrap_or(SubmitError::NoStripes));
        };

        // Stripe count: the caller's k, capped by the pool and by the
        // chunk floor so small files don't shatter into setup overhead.
        let by_floor = (total / MIN_CHUNK_BYTES).max(1);
        let k = req.k.max(1).min(pool.len()).min(by_floor as usize);
        let picks = &pool[..k];
        let weights: Vec<f64> = picks.iter().map(|s| s.predicted_kbs.max(1e-9)).collect();
        let chunks = plan_chunks(total, &weights);

        let id = self.next;
        self.next += 1;
        let mut xfer = Xfer {
            path: req.path.clone(),
            client: req.client,
            total,
            streams: req.streams,
            tcp_buffer: req.tcp_buffer,
            submitted: now,
            // The failover set is exactly the co-allocated sources: with
            // k = 1 there is no survivor to rebalance onto, which is what
            // makes coalloc(1) the honest single-best baseline.
            candidates: picks.to_vec(),
            stripes: Vec::new(),
            covered: Vec::new(),
            stripes_started: 0,
            rebalances: 0,
            bytes_salvaged: 0,
        };
        for (src, (offset, len)) in picks.iter().zip(chunks) {
            // A zero-length chunk can only happen on a zero-size file
            // with one pick (fetch it: the empty GET produces the log
            // record) or a vanishing weight (skip the stripe).
            if len == 0 && total > 0 {
                continue;
            }
            let token = mgr.submit(
                ctx,
                TransferRequest {
                    client: req.client,
                    kind: TransferKind::Get {
                        server: src.node,
                        path: req.path.clone(),
                    },
                    streams: req.streams,
                    tcp_buffer: req.tcp_buffer,
                    partial: Some((offset, len)),
                },
            )?;
            self.by_token.insert(token, (id, xfer.stripes.len()));
            xfer.stripes.push(Stripe {
                source: src.node,
                offset,
                len,
                token,
                predicted_kbs: src.predicted_kbs,
                last_bytes: 0,
                last_at: now,
                ewma_kbs: None,
                windows_seen: 0,
                windows_below: 0,
            });
            xfer.stripes_started += 1;
        }
        self.obs.inc(names::REPLICA_COALLOC_TRANSFERS);
        self.xfers.insert(id, xfer);
        ctx.set_timer(PROBE_INTERVAL, COALLOC_TAG_BASE | id);
        Ok(id)
    }

    /// Handle a monitor tick. Returns `true` if the tag belongs to this
    /// co-allocator (forward to [`TransferManager::on_timer`] *first* —
    /// its namespace keeps bit 62).
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        mgr: &mut TransferManager,
        tag: TimerTag,
    ) -> bool {
        if !owns_tag(tag) {
            return false;
        }
        let id = tag & !COALLOC_TAG_BASE;
        if !self.xfers.contains_key(&id) {
            return true; // stale tick for a finished transfer
        }
        let now = ctx.now();

        // Sample every live stripe, then collect demotions; mutating the
        // stripe list mid-scan would skew sibling indices.
        let mut demote: Vec<TransferToken> = Vec::new();
        {
            let xfer = self.xfers.get_mut(&id).expect("checked above");
            for s in &mut xfer.stripes {
                let Some(delivered) = mgr.progress(ctx, s.token) else {
                    continue; // completion event is already in flight
                };
                let dt = now.saturating_since(s.last_at).as_secs_f64();
                if dt <= 0.0 {
                    continue;
                }
                let inst_kbs = delivered.saturating_sub(s.last_bytes) as f64 / dt / 1_000.0;
                s.last_bytes = delivered;
                s.last_at = now;
                s.ewma_kbs = Some(match s.ewma_kbs {
                    Some(prev) => EWMA_ALPHA * inst_kbs + (1.0 - EWMA_ALPHA) * prev,
                    None => inst_kbs,
                });
                s.windows_seen += 1;
                if s.windows_seen <= WARMUP_WINDOWS {
                    continue;
                }
                let ewma = s.ewma_kbs.expect("assigned above");
                if ewma < DEGRADE_RATIO * s.predicted_kbs {
                    s.windows_below += 1;
                } else {
                    s.windows_below = 0;
                }
                if s.windows_below >= DEGRADE_WINDOWS {
                    demote.push(s.token);
                }
            }
        }
        for token in demote {
            self.demote_stripe(ctx, mgr, token);
        }
        if self.xfers.contains_key(&id) {
            ctx.set_timer(PROBE_INTERVAL, COALLOC_TAG_BASE | id);
        }
        true
    }

    /// Demote one stripe: exact-abort it, bank the delivered prefix,
    /// blacklist the source, and re-plan the remainder.
    fn demote_stripe(
        &mut self,
        ctx: &mut Ctx<'_>,
        mgr: &mut TransferManager,
        token: TransferToken,
    ) {
        let Some((id, idx)) = self.by_token.remove(&token) else {
            return; // completed in the same tick
        };
        let now = ctx.now();
        let delivered = mgr.abort_exact(ctx, token).unwrap_or(0);
        let (source, offset, len, ewma, predicted) = {
            let xfer = self.xfers.get_mut(&id).expect("stripe maps to transfer");
            let s = xfer.stripes.remove(idx);
            // Sibling stripes after the removed one shift down one slot.
            for t in &xfer.stripes[idx..] {
                if let Some(entry) = self.by_token.get_mut(&t.token) {
                    entry.1 -= 1;
                }
            }
            let banked = delivered.min(s.len);
            if banked > 0 {
                xfer.covered.push(StripeReport {
                    source: s.source,
                    offset: s.offset,
                    len: banked,
                });
                xfer.bytes_salvaged += banked;
            }
            (
                s.source,
                s.offset + banked,
                s.len - banked,
                s.ewma_kbs.unwrap_or(0.0),
                s.predicted_kbs,
            )
        };
        self.obs.inc(names::REPLICA_COALLOC_DEMOTIONS);
        self.events.push(CoallocEvent::Demoted {
            id,
            source,
            ewma_kbs: ewma,
            predicted_kbs: predicted,
        });
        self.punish(source, now);
        self.replan(ctx, mgr, id, source, offset, len);
    }

    /// A stripe's transfer exhausted its retry budget and was abandoned
    /// by the manager. Bank what the attempts delivered and re-plan the
    /// rest. Returns `true` if the token belonged to a stripe.
    pub fn on_transfer_failed(
        &mut self,
        ctx: &mut Ctx<'_>,
        mgr: &mut TransferManager,
        token: TransferToken,
        delivered_bytes: u64,
    ) -> bool {
        let Some((id, idx)) = self.by_token.remove(&token) else {
            return false;
        };
        let now = ctx.now();
        let (source, offset, len) = {
            let xfer = self.xfers.get_mut(&id).expect("stripe maps to transfer");
            let s = xfer.stripes.remove(idx);
            for t in &xfer.stripes[idx..] {
                if let Some(entry) = self.by_token.get_mut(&t.token) {
                    entry.1 -= 1;
                }
            }
            let banked = delivered_bytes.min(s.len);
            if banked > 0 {
                xfer.covered.push(StripeReport {
                    source: s.source,
                    offset: s.offset,
                    len: banked,
                });
                xfer.bytes_salvaged += banked;
            }
            (s.source, s.offset + banked, s.len - banked)
        };
        self.punish(source, now);
        self.replan(ctx, mgr, id, source, offset, len);
        true
    }

    /// Re-plan `[offset, offset + len)` onto the surviving sources,
    /// weighted by their live EWMA throughput where available (falling
    /// back to the original prediction). With no survivors the transfer
    /// is abandoned.
    fn replan(
        &mut self,
        ctx: &mut Ctx<'_>,
        mgr: &mut TransferManager,
        id: u64,
        from: NodeId,
        offset: u64,
        len: u64,
    ) {
        if len == 0 {
            // The dead stripe had already delivered everything; nothing
            // to move, but the transfer may now be complete.
            self.finish_if_done(ctx, id);
            return;
        }
        let now = ctx.now();
        let candidates = self
            .xfers
            .get(&id)
            .map(|x| x.candidates.clone())
            .unwrap_or_default();
        // Survivors: every non-blacklisted candidate, weighted by the
        // EWMA of its live stripes when it has any (live evidence beats
        // the prediction that just failed us).
        let mut survivors: Vec<(NodeId, f64)> = Vec::new();
        for c in candidates {
            if c.node == from || !self.usable(c.node, now) {
                continue;
            }
            let xfer = self.xfers.get(&id).expect("transfer is live");
            let live = xfer
                .stripes
                .iter()
                .filter(|s| s.source == c.node)
                .filter_map(|s| s.ewma_kbs)
                .fold(f64::NEG_INFINITY, f64::max);
            let w = if live.is_finite() && live > 0.0 {
                live
            } else {
                c.predicted_kbs
            };
            survivors.push((c.node, w.max(1e-9)));
        }
        if survivors.is_empty() {
            self.fail_transfer(ctx, mgr, id);
            return;
        }
        // Respect the chunk floor when splitting the remainder.
        let by_floor = (len / MIN_CHUNK_BYTES).max(1);
        survivors.truncate((by_floor as usize).max(1).min(survivors.len()));
        let weights: Vec<f64> = survivors.iter().map(|(_, w)| *w).collect();
        let chunks = plan_chunks(len, &weights);
        let n = survivors.len();
        let (path, client, streams, tcp_buffer) = {
            let x = self.xfers.get(&id).expect("transfer is live");
            (x.path.clone(), x.client, x.streams, x.tcp_buffer)
        };
        for ((node, w), (rel_off, chunk_len)) in survivors.into_iter().zip(chunks) {
            if chunk_len == 0 {
                continue;
            }
            let sub = mgr.submit(
                ctx,
                TransferRequest {
                    client,
                    kind: TransferKind::Get {
                        server: node,
                        path: path.clone(),
                    },
                    streams,
                    tcp_buffer,
                    partial: Some((offset + rel_off, chunk_len)),
                },
            );
            match sub {
                Ok(token) => {
                    let xfer = self.xfers.get_mut(&id).expect("transfer is live");
                    self.by_token.insert(token, (id, xfer.stripes.len()));
                    xfer.stripes.push(Stripe {
                        source: node,
                        offset: offset + rel_off,
                        len: chunk_len,
                        token,
                        predicted_kbs: w,
                        last_bytes: 0,
                        last_at: now,
                        ewma_kbs: None,
                        windows_seen: 0,
                        windows_below: 0,
                    });
                    xfer.stripes_started += 1;
                }
                Err(_) => {
                    // A survivor that cannot take its chunk (route or
                    // catalog loss) dooms only that range; treat it like
                    // a failed stripe with nothing delivered.
                    self.punish(node, now);
                    self.replan(ctx, mgr, id, node, offset + rel_off, chunk_len);
                    if !self.xfers.contains_key(&id) {
                        return; // the recursive replan abandoned it
                    }
                }
            }
        }
        let xfer = self.xfers.get_mut(&id).expect("transfer is live");
        xfer.rebalances += 1;
        self.obs.inc(names::REPLICA_COALLOC_REBALANCES);
        self.events.push(CoallocEvent::Rebalanced {
            id,
            from,
            bytes_replanned: len,
            survivors: n,
        });
        self.finish_if_done(ctx, id);
    }

    /// A transfer completed at the manager. If it was one of ours,
    /// record the covered range and — when it was the last live stripe —
    /// assemble the completion report. Feed the returned report's
    /// tiling check in tests; it is the no-double-fetch proof.
    pub fn on_transfer_complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        c: &CompletedTransfer,
    ) -> Option<CompletedCoalloc> {
        let (id, idx) = self.by_token.remove(&c.token)?;
        {
            let xfer = self.xfers.get_mut(&id).expect("stripe maps to transfer");
            let s = xfer.stripes.remove(idx);
            for t in &xfer.stripes[idx..] {
                if let Some(entry) = self.by_token.get_mut(&t.token) {
                    entry.1 -= 1;
                }
            }
            xfer.covered.push(StripeReport {
                source: s.source,
                offset: s.offset,
                len: s.len,
            });
        }
        self.finish_if_done(ctx, id)
    }

    /// When the last live stripe of `id` is gone, emit the completion.
    fn finish_if_done(&mut self, ctx: &mut Ctx<'_>, id: u64) -> Option<CompletedCoalloc> {
        let done = self
            .xfers
            .get(&id)
            .map(|x| x.stripes.is_empty())
            .unwrap_or(false);
        if !done {
            return None;
        }
        let x = self.xfers.remove(&id).expect("checked above");
        let finished = ctx.now();
        let total_s = finished.saturating_since(x.submitted).as_secs_f64();
        let bandwidth_kbs = if total_s > 0.0 {
            x.total as f64 / total_s / 1_000.0
        } else {
            0.0
        };
        self.obs.inc(names::REPLICA_COALLOC_COMPLETED);
        self.obs
            .observe(names::REPLICA_COALLOC_STRIPES, u64::from(x.stripes_started));
        self.obs
            .inc_by(names::REPLICA_COALLOC_BYTES_SALVAGED, x.bytes_salvaged);
        Some(CompletedCoalloc {
            id,
            path: x.path,
            total_bytes: x.total,
            submitted: x.submitted,
            finished,
            bandwidth_kbs,
            stripes: x.stripes_started,
            rebalances: x.rebalances,
            bytes_salvaged: x.bytes_salvaged,
            covered: x.covered,
        })
    }

    /// Abandon a transfer: abort the surviving stripes (banking their
    /// delivered prefixes — a later manual retry could resume), emit
    /// [`CoallocEvent::Failed`].
    fn fail_transfer(&mut self, ctx: &mut Ctx<'_>, mgr: &mut TransferManager, id: u64) {
        let Some(mut x) = self.xfers.remove(&id) else {
            return;
        };
        for s in std::mem::take(&mut x.stripes) {
            self.by_token.remove(&s.token);
            let banked = mgr.abort_exact(ctx, s.token).unwrap_or(0).min(s.len);
            if banked > 0 {
                x.covered.push(StripeReport {
                    source: s.source,
                    offset: s.offset,
                    len: banked,
                });
            }
        }
        let delivered: u64 = x.covered.iter().map(|r| r.len).sum();
        self.obs.inc(names::REPLICA_COALLOC_FAILED);
        self.events.push(CoallocEvent::Failed(FailedCoalloc {
            id,
            path: x.path,
            delivered_bytes: delivered,
            total_bytes: x.total,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::any::Any;
    use wanpred_gridftp::transfer::TransferEvent;
    use wanpred_gridftp::ServerConfig;
    use wanpred_simnet::engine::{Agent, Engine};
    use wanpred_simnet::fault::{FaultAction, FaultSchedule, TimedFault};
    use wanpred_simnet::flow::{FlowDone, FlowFailed};
    use wanpred_simnet::load::LoadModelConfig;
    use wanpred_simnet::network::Network;
    use wanpred_simnet::rng::MasterSeed;
    use wanpred_simnet::topology::Topology;
    use wanpred_storage::StorageServer;

    fn quiet_cfg() -> LoadModelConfig {
        LoadModelConfig {
            diurnal_mean_weight: 0.0,
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        }
    }

    /// Client at ANL, servers at LBL and ISI over disjoint 12 MB/s paths.
    fn testnet() -> (Network, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let anl = t.add_node("anl");
        let lbl = t.add_node("lbl");
        let isi = t.add_node("isi");
        let (f1, r1) = t
            .add_duplex_link("anl-lbl", anl, lbl, 12e6, SimDuration::from_millis(27))
            .unwrap();
        let (f2, r2) = t
            .add_duplex_link("anl-isi", anl, isi, 12e6, SimDuration::from_millis(31))
            .unwrap();
        t.add_route(anl, lbl, vec![f1]).unwrap();
        t.add_route(lbl, anl, vec![r1]).unwrap();
        t.add_route(anl, isi, vec![f2]).unwrap();
        t.add_route(isi, anl, vec![r2]).unwrap();
        (
            Network::with_uniform_load(t, quiet_cfg(), MasterSeed(7)),
            anl,
            lbl,
            isi,
        )
    }

    fn manager(anl: NodeId, lbl: NodeId, isi: NodeId) -> TransferManager {
        let mut m = TransferManager::new(998_000_000);
        m.add_host(anl, "pitcairn.mcs.anl.gov", "140.221.65.69");
        m.add_server(
            lbl,
            ServerConfig::new("dpsslx04.lbl.gov", "131.243.2.11"),
            StorageServer::vintage_with_paper_fileset("lbl"),
        );
        m.add_server(
            isi,
            ServerConfig::new("jet.isi.edu", "128.9.160.11"),
            StorageServer::vintage_with_paper_fileset("isi"),
        );
        m
    }

    struct Harness {
        mgr: TransferManager,
        co: Coallocator,
        req: Option<CoallocRequest>,
        completed: Vec<CompletedCoalloc>,
        failed: Vec<FailedCoalloc>,
        events: Vec<CoallocEvent>,
        start_err: Option<SubmitError>,
    }

    impl Harness {
        fn drain(&mut self) {
            for e in self.co.take_events() {
                if let CoallocEvent::Failed(f) = &e {
                    self.failed.push(f.clone());
                }
                self.events.push(e);
            }
        }
    }

    impl Agent for Harness {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
            if self.mgr.on_timer(ctx, tag) {
                self.route_mgr_events(ctx);
                return;
            }
            if self.co.on_timer(ctx, &mut self.mgr, tag) {
                self.drain();
                return;
            }
            if let Some(req) = self.req.take() {
                if let Err(e) = self.co.start(ctx, &mut self.mgr, req) {
                    self.start_err = Some(e);
                }
                self.drain();
            }
        }
        fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
            if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
                if let Some(cc) = self.co.on_transfer_complete(ctx, &c) {
                    self.completed.push(cc);
                }
            }
            self.route_mgr_events(ctx);
        }
        fn on_flow_failed(&mut self, ctx: &mut Ctx<'_>, failed: FlowFailed) {
            self.mgr.on_flow_failed(ctx, &failed);
            self.route_mgr_events(ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl Harness {
        fn route_mgr_events(&mut self, ctx: &mut Ctx<'_>) {
            for e in self.mgr.take_events() {
                if let TransferEvent::Failed {
                    token,
                    delivered_bytes,
                    ..
                } = e
                {
                    self.co
                        .on_transfer_failed(ctx, &mut self.mgr, token, delivered_bytes);
                }
            }
            self.drain();
        }
    }

    fn run_with(
        net: Network,
        mgr: TransferManager,
        co: Coallocator,
        req: CoallocRequest,
        secs: u64,
    ) -> (Harness, Engine) {
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Harness {
            mgr,
            co,
            req: Some(req),
            completed: Vec::new(),
            failed: Vec::new(),
            events: Vec::new(),
            start_err: None,
        }));
        eng.run_until(SimTime::from_secs(secs));
        let h = eng.agent_mut::<Harness>(id).unwrap();
        let out = std::mem::replace(
            h,
            Harness {
                mgr: TransferManager::new(0),
                co: Coallocator::new(),
                req: None,
                completed: Vec::new(),
                failed: Vec::new(),
                events: Vec::new(),
                start_err: None,
            },
        );
        (out, eng)
    }

    fn req2(anl: NodeId, lbl: NodeId, isi: NodeId, path: &str, k: usize) -> CoallocRequest {
        CoallocRequest {
            client: anl,
            path: path.into(),
            sources: vec![
                CoallocSource {
                    node: lbl,
                    predicted_kbs: 10_000.0,
                },
                CoallocSource {
                    node: isi,
                    predicted_kbs: 10_000.0,
                },
            ],
            k,
            streams: 8,
            tcp_buffer: 1_000_000,
        }
    }

    #[test]
    fn clean_coalloc_completes_and_tiles() {
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        let co = Coallocator::new();
        let (h, _) = run_with(
            net,
            mgr,
            co,
            req2(anl, lbl, isi, "/home/ftp/vazhkuda/500MB", 2),
            600,
        );
        assert!(h.start_err.is_none(), "{:?}", h.start_err);
        assert_eq!(h.completed.len(), 1, "events: {:?}", h.events);
        let c = &h.completed[0];
        assert_eq!(c.total_bytes, 512_000_000);
        assert_eq!(c.stripes, 2);
        assert_eq!(c.rebalances, 0);
        assert_eq!(c.bytes_salvaged, 0);
        c.verify_tiling().expect("covered ranges tile the file");
        // Both servers served a stripe.
        let sources: Vec<NodeId> = c.covered.iter().map(|r| r.source).collect();
        assert!(sources.contains(&lbl) && sources.contains(&isi));
        // Two 12 MB/s paths in parallel: ~21 s of wire time for 512 MB,
        // far faster than any single path (≥ 42 s).
        let secs = c.finished.saturating_since(c.submitted).as_secs_f64();
        assert!(secs < 32.0, "striping should engage both paths: {secs}");
    }

    #[test]
    fn weighted_plan_follows_predictions() {
        // 3:1 prediction ratio → chunk sizes follow.
        let chunks = plan_chunks(400, &[3.0, 1.0]);
        assert_eq!(chunks, vec![(0, 300), (300, 100)]);
        // Zero/NaN weights degrade to even shares.
        let even = plan_chunks(100, &[0.0, f64::NAN]);
        assert_eq!(even, vec![(0, 50), (50, 50)]);
    }

    #[test]
    fn zero_size_file_completes_with_single_empty_stripe() {
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        // Register an empty file on both servers.
        for node in [lbl, isi] {
            let size_ok = mgr.storage(node).is_some();
            assert!(size_ok);
        }
        // PUT-style registration isn't exposed on StorageServer here;
        // instead co-allocate the smallest real file, exactly one chunk
        // floor long — the plan must collapse to one stripe.
        let (h, _) = run_with(
            net,
            mgr,
            Coallocator::new(),
            req2(anl, lbl, isi, "/home/ftp/vazhkuda/1MB", 2),
            120,
        );
        assert_eq!(h.completed.len(), 1);
        let c = &h.completed[0];
        assert_eq!(c.total_bytes, MIN_CHUNK_BYTES);
        assert_eq!(c.stripes, 1, "chunk floor caps the stripe count");
        c.verify_tiling().expect("single stripe tiles");

        // Two chunk floors' worth lets both sources take a stripe.
        let (net, anl, lbl, isi) = testnet();
        let (h, _) = run_with(
            net,
            manager(anl, lbl, isi),
            Coallocator::new(),
            req2(anl, lbl, isi, "/home/ftp/vazhkuda/2MB", 2),
            120,
        );
        let c = &h.completed[0];
        assert_eq!(c.total_bytes, 2 * MIN_CHUNK_BYTES);
        assert_eq!(c.stripes, 2);
        c.verify_tiling().expect("two stripes tile");
    }

    #[test]
    fn killed_source_rebalances_to_survivor_without_refetch() {
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        // No retry policy: the first kill fails the stripe outright,
        // exercising the death path deterministically.
        let co = Coallocator::new();
        let mut eng = Engine::new(net);
        // Kill every flow on the lbl→anl link at t=10 s (mid-stripe).
        eng.inject_faults(&FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs(10),
            action: FaultAction::KillFlows(wanpred_simnet::topology::LinkId(1)),
        }]));
        let id = eng.add_agent(Box::new(Harness {
            mgr,
            co,
            req: Some(req2(anl, lbl, isi, "/home/ftp/vazhkuda/500MB", 2)),
            completed: Vec::new(),
            failed: Vec::new(),
            events: Vec::new(),
            start_err: None,
        }));
        eng.run_until(SimTime::from_secs(900));
        let h = eng.agent::<Harness>(id).unwrap();
        assert_eq!(h.completed.len(), 1, "events: {:?}", h.events);
        let c = &h.completed[0];
        assert_eq!(c.rebalances, 1);
        assert!(c.bytes_salvaged > 0, "the killed stripe had delivered");
        c.verify_tiling()
            .expect("rebalance must neither re-fetch nor drop a byte");
        // The survivor (isi) took over the remainder.
        assert!(c.covered.iter().any(|r| r.source == isi));
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, CoallocEvent::Rebalanced { .. })));
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, CoallocEvent::Blacklisted { .. })));
    }

    #[test]
    fn lone_source_death_fails_the_transfer() {
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        let co = Coallocator::new();
        let mut eng = Engine::new(net);
        eng.inject_faults(&FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs(10),
            action: FaultAction::KillFlows(wanpred_simnet::topology::LinkId(1)),
        }]));
        let mut req = req2(anl, lbl, isi, "/home/ftp/vazhkuda/500MB", 1);
        req.sources.truncate(1); // lbl only: no survivor to rebalance to
        let id = eng.add_agent(Box::new(Harness {
            mgr,
            co,
            req: Some(req),
            completed: Vec::new(),
            failed: Vec::new(),
            events: Vec::new(),
            start_err: None,
        }));
        eng.run_until(SimTime::from_secs(900));
        let h = eng.agent::<Harness>(id).unwrap();
        assert!(h.completed.is_empty());
        assert_eq!(h.failed.len(), 1);
        let f = &h.failed[0];
        assert!(f.delivered_bytes > 0 && f.delivered_bytes < f.total_bytes);
    }

    /// The first usable source fixes the file size: a replica whose
    /// size disagrees is dropped and the rest serve the whole file; with
    /// no source at all there is nothing to plan.
    #[test]
    fn sources_agree_on_size_or_are_dropped() {
        const PATH: &str = "/home/ftp/vazhkuda/100MB";
        const SIZE: u64 = 102_400_000;
        // ISI's replica of PATH is a truncated copy.
        const SHORT: u64 = 51_200_000;
        // (source order by node name, expected (total, serving source)).
        type Case = (
            &'static [&'static str],
            Result<(u64, &'static str), SubmitError>,
        );
        let cases: [Case; 3] = [
            (&["lbl", "isi"], Ok((SIZE, "lbl"))),
            (&["isi", "lbl"], Ok((SHORT, "isi"))),
            (&[], Err(SubmitError::NoStripes)),
        ];
        for (order, expected) in cases {
            let (net, anl, lbl, isi) = testnet();
            let mut mgr = TransferManager::new(998_000_000);
            mgr.add_host(anl, "pitcairn.mcs.anl.gov", "140.221.65.69");
            mgr.add_server(
                lbl,
                ServerConfig::new("dpsslx04.lbl.gov", "131.243.2.11"),
                StorageServer::vintage_with_paper_fileset("lbl"),
            );
            let mut isi_store = StorageServer::vintage_with_paper_fileset("isi");
            assert!(isi_store.catalog_mut().remove(PATH));
            isi_store.catalog_mut().add_file(PATH, SHORT).unwrap();
            mgr.add_server(
                isi,
                ServerConfig::new("jet.isi.edu", "128.9.160.11"),
                isi_store,
            );
            let node = |name: &str| if name == "lbl" { lbl } else { isi };
            let mut req = req2(anl, lbl, isi, PATH, 2);
            req.sources = order
                .iter()
                .map(|name| CoallocSource {
                    node: node(name),
                    predicted_kbs: 10_000.0,
                })
                .collect();
            let (h, _) = run_with(net, mgr, Coallocator::new(), req, 600);
            match expected {
                Ok((total, source)) => {
                    assert!(h.start_err.is_none(), "{order:?}: {:?}", h.start_err);
                    assert_eq!(h.completed.len(), 1, "{order:?}: {:?}", h.events);
                    let c = &h.completed[0];
                    assert_eq!(c.total_bytes, total, "{order:?}");
                    assert_eq!(c.stripes, 1, "{order:?}: the mismatch was dropped");
                    c.verify_tiling().expect("the survivor tiles the file");
                    assert!(c.covered.iter().all(|r| r.source == node(source)));
                }
                Err(e) => {
                    assert_eq!(h.start_err, Some(e), "{order:?}");
                    assert!(h.completed.is_empty());
                }
            }
        }
    }

    #[test]
    fn blacklist_escalates_and_decays() {
        let mut co = Coallocator::new();
        let node = NodeId(5);
        let t0 = SimTime::from_secs(100);
        co.punish(node, t0);
        assert!(co.is_blacklisted(node, t0 + SimDuration::from_mins(4)));
        assert!(!co.is_blacklisted(node, t0 + SimDuration::from_mins(6)));
        // Second strike within the decay window: penalty doubles.
        let t1 = t0 + SimDuration::from_mins(6);
        assert!(co.usable(node, t1), "penalty served");
        co.punish(node, t1);
        assert!(co.is_blacklisted(node, t1 + SimDuration::from_mins(9)));
        assert!(!co.is_blacklisted(node, t1 + SimDuration::from_mins(11)));
        // After a quiet period of blacklist_max the strikes reset.
        let t2 = t1 + SimDuration::from_mins(10) + SimDuration::from_mins(31);
        assert!(co.usable(node, t2));
        co.punish(node, t2);
        assert!(
            !co.is_blacklisted(node, t2 + SimDuration::from_mins(6)),
            "strike memory decayed back to the base penalty"
        );
        // Rejoin events were emitted.
        assert!(co
            .take_events()
            .iter()
            .any(|e| matches!(e, CoallocEvent::Rejoined { .. })));
    }

    proptest! {
        /// Chunk plans tile `[0, total)` exactly for arbitrary weights:
        /// contiguous offsets from zero, lengths summing to the total.
        #[test]
        fn plans_tile_exactly(
            total in 0u64..1_000_000_000_000,
            weights in prop::collection::vec(0.0f64..1e9, 1..8),
        ) {
            let chunks = plan_chunks(total, &weights);
            prop_assert_eq!(chunks.len(), weights.len());
            let mut at = 0u64;
            for (off, len) in chunks {
                prop_assert_eq!(off, at, "chunks must be contiguous");
                at += len;
            }
            prop_assert_eq!(at, total, "chunks must land exactly on EOF");
        }

        /// Weighted plans track the weight ratio to within one part in
        /// the total (cumulative rounding error is < 1 byte/boundary).
        #[test]
        fn plans_follow_weights(
            total in 1_000u64..1_000_000_000,
            a in 1.0f64..1e6,
            b in 1.0f64..1e6,
        ) {
            let chunks = plan_chunks(total, &[a, b]);
            let want = total as f64 * a / (a + b);
            prop_assert!((chunks[0].1 as f64 - want).abs() <= 1.0);
        }
    }
}

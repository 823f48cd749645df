//! Transfer execution: turning GridFTP GETs into simulated network flows
//! with storage contention and end-to-end instrumentation.
//!
//! [`TransferManager`] is designed to be *embedded* in a simulation agent
//! (the testbed's campaign driver, the examples' clients): the agent
//! forwards timer events whose tags satisfy [`owns_tag`] and all flow
//! completions to the manager, and receives [`CompletedTransfer`]s back.
//!
//! A transfer is one GET — whole-file or partial — on one data leg,
//! server → client. Striping a file across replicas is the
//! co-allocator's job (`wanpred-replica`), which splits it into partial
//! GETs. A transfer's life cycle:
//!
//! 1. **submit** — the request is validated against the server's catalog
//!    (GridFTP would return `550` or `554` here); a timer models the
//!    whole control channel, `AUTH_DELAY + SETUP_ROUND_TRIPS × RTT`: GSI
//!    authentication plus the command round trips to the server.
//! 2. **setup fires** — the server opens a read access and the data flow
//!    starts with the negotiated stream count and buffer; every *other*
//!    in-flight transfer reading from that server gets its storage cap
//!    re-evaluated (one more concurrent access slows everyone: §3). Disk
//!    positioning is not modelled: an access costs only its contended
//!    share of the disk rate.
//! 3. **the flow completes** — the access closes (again re-evaluating
//!    peers) and the server writes one ULM record for the payload, with
//!    the total time spanning submit→completion — the paper's end-to-end
//!    definition including protocol overheads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wanpred_logfmt::{Operation, TransferLog, TransferRecord, TransferRecordBuilder};
use wanpred_obs::{names, ObsSink};
use wanpred_simnet::engine::{Ctx, TimerTag};
use wanpred_simnet::flow::{FlowDone, FlowFailed, FlowId, FlowSpec, TcpParams};
use wanpred_simnet::index::VecMap;
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::NodeId;
use wanpred_storage::{AccessId, StorageServer};

/// Timer-tag namespace claimed by transfer managers. Embedding agents
/// must forward any tag for which [`owns_tag`] is true.
pub const TAG_BASE: TimerTag = 1 << 62;

/// Bit offset of the timer-kind field inside a manager tag.
const KIND_SHIFT: u32 = 56;
/// Bit offset of the attempt number inside a manager tag.
const ATTEMPT_SHIFT: u32 = 48;
/// Low bits holding the transfer id.
const ID_MASK: u64 = (1 << ATTEMPT_SHIFT) - 1;
/// Timer kind: control-channel setup finished, start the data flow.
const KIND_SETUP: u64 = 0;
/// Timer kind: the per-attempt deadline expired.
const KIND_DEADLINE: u64 = 1;

/// One-time latency charged for the (simulated) GSI handshake, as on
/// the paper's testbed servers.
const AUTH_DELAY: SimDuration = SimDuration::from_millis(350);
/// Control-channel round trips consumed by transfer set-up (the
/// TYPE/MODE/SBUF/OPTS/PASV/RETR exchange).
const SETUP_ROUND_TRIPS: u64 = 6;

fn setup_tag(id: u64, attempt: u32) -> TimerTag {
    TAG_BASE | (KIND_SETUP << KIND_SHIFT) | ((u64::from(attempt) & 0xFF) << ATTEMPT_SHIFT) | id
}

fn deadline_tag(id: u64, attempt: u32) -> TimerTag {
    TAG_BASE | (KIND_DEADLINE << KIND_SHIFT) | ((u64::from(attempt) & 0xFF) << ATTEMPT_SHIFT) | id
}

/// Does a timer tag belong to a [`TransferManager`]?
pub fn owns_tag(tag: TimerTag) -> bool {
    tag & TAG_BASE != 0
}

/// Retry-and-timeout policy applied to every transfer a manager runs.
///
/// An *attempt* ends in one of three ways: completion, a connection
/// reset (an injected flow kill), or the attempt deadline expiring. On
/// the latter two, the data flow is torn down, the delivered byte count
/// is retained, and — while the attempt budget lasts — a fresh attempt
/// is scheduled after an exponentially growing, jittered backoff that
/// resumes from the delivered offset via the partial (`REST`)
/// machinery. Backoff for completed attempt `k` (1-based) is
/// `min(backoff_base * backoff_factor^(k-1), backoff_max)`, scaled by a
/// deterministic jitter in `[1 - jitter_frac, 1 + jitter_frac)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempt budget, including the first try (`1..=255`: timer
    /// tags carry the attempt number in eight bits).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub backoff_base: SimDuration,
    /// Multiplier applied per further failed attempt.
    pub backoff_factor: f64,
    /// Upper bound on the backoff delay.
    pub backoff_max: SimDuration,
    /// Jitter half-width as a fraction of the backoff (decorrelates
    /// retry storms; deterministic per transfer and attempt).
    pub jitter_frac: f64,
    /// Fixed floor of every attempt deadline (covers setup latency).
    pub deadline_floor: SimDuration,
    /// The deadline allows the attempt's remaining bytes to move at this
    /// floor rate (KB/s) before declaring the attempt dead.
    pub deadline_kbs: f64,
}

impl RetryPolicy {
    /// A calibrated wide-area policy: five attempts, 5 s → 5 min
    /// exponential backoff with 25 % jitter, and a deadline sized so an
    /// attempt effectively moving under 50 KB/s (far below even the
    /// congested testbed floor) is declared dead.
    pub fn wan_default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base: SimDuration::from_secs(5),
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_mins(5),
            jitter_frac: 0.25,
            deadline_floor: SimDuration::from_secs(60),
            deadline_kbs: 50.0,
        }
    }

    /// Backoff delay after `failed_attempts` completed attempts (≥ 1)
    /// for transfer `id`, jitter included.
    fn backoff(&self, id: u64, failed_attempts: u32) -> SimDuration {
        let exp = self
            .backoff_factor
            .powi(failed_attempts.saturating_sub(1) as i32);
        let raw = (self.backoff_base.as_secs_f64() * exp).min(self.backoff_max.as_secs_f64());
        // Deterministic jitter in [1 - f, 1 + f): transfers are decorrelated
        // by id, attempts by the counter, with no shared RNG state.
        let unit = jitter_unit(id, failed_attempts);
        let scale = 1.0 + self.jitter_frac * (2.0 * unit - 1.0);
        SimDuration::from_secs_f64((raw * scale).max(0.0))
    }

    /// Deadline for an attempt still owing `remaining` bytes.
    fn deadline(&self, remaining: u64) -> SimDuration {
        self.deadline_floor
            + SimDuration::from_secs_f64(remaining as f64 / (self.deadline_kbs * 1000.0))
    }
}

/// SplitMix64-style avalanche of `(id, attempt)` to a unit float.
fn jitter_unit(id: u64, attempt: u32) -> f64 {
    let mut z = id ^ (u64::from(attempt) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Why an attempt (or a whole transfer) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// A data flow was torn down by the network (connection reset).
    ConnectionReset,
    /// The attempt deadline expired (stalled or crawling transfer).
    DeadlineExceeded,
}

/// Recovery-path notifications surfaced to the embedding agent. Drain
/// with [`TransferManager::take_events`] after forwarding timer and flow
/// events.
#[derive(Debug, Clone)]
pub enum TransferEvent {
    /// An attempt failed and another one was scheduled.
    RetryScheduled {
        /// The transfer.
        token: TransferToken,
        /// The upcoming attempt number (2 = first retry).
        attempt: u32,
        /// Backoff delay before the attempt's control setup starts.
        delay: SimDuration,
        /// What ended the previous attempt.
        reason: FailureReason,
        /// Bytes delivered so far across all attempts.
        delivered_bytes: u64,
    },
    /// The transfer exhausted its attempt budget and was abandoned.
    /// No ULM record is written (servers log completed transfers only).
    Failed {
        /// The transfer.
        token: TransferToken,
        /// Attempts consumed.
        attempts: u32,
        /// What ended the final attempt.
        reason: FailureReason,
        /// Bytes delivered so far across all attempts.
        delivered_bytes: u64,
    },
}

/// Identifier of a submitted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferToken(pub u64);

/// What kind of transfer to perform: a GET is the only kind.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferKind {
    /// Client retrieves `path` from `server` (server → client).
    Get {
        /// Serving node.
        server: NodeId,
        /// File path on the server.
        path: String,
    },
}

/// A transfer request.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRequest {
    /// The requesting host.
    pub client: NodeId,
    /// What to transfer.
    pub kind: TransferKind,
    /// Parallel stream count.
    pub streams: u32,
    /// Per-stream TCP buffer bytes.
    pub tcp_buffer: u64,
    /// Optional partial transfer `(offset, length)`.
    pub partial: Option<(u64, u64)>,
}

/// Errors detected at submit time (the control-channel 5xx replies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The named node is not a registered GridFTP server.
    NotAServer(NodeId),
    /// File not found on the source server (550).
    FileNotFound(String),
    /// Partial-transfer offset beyond end of file (554).
    BadOffset,
    /// The topology has no route for the data leg.
    NoRoute,
    /// A co-allocated request listed no sources.
    NoStripes,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NotAServer(n) => write!(f, "{n} is not a GridFTP server"),
            SubmitError::FileNotFound(p) => write!(f, "550 no such file: {p}"),
            SubmitError::BadOffset => write!(f, "554 offset beyond end of file"),
            SubmitError::NoRoute => write!(f, "no route for data path"),
            SubmitError::NoStripes => write!(f, "striped request with no servers"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A finished transfer as reported to the embedding agent.
#[derive(Debug, Clone)]
pub struct CompletedTransfer {
    /// The token returned at submit.
    pub token: TransferToken,
    /// Submit time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Payload bytes moved (the requested range, across all attempts).
    pub bytes: u64,
    /// End-to-end bandwidth in KB/s over submit→finish (the paper's
    /// definition: file size / transfer time). For transfers that
    /// recovered from failed attempts, the denominator includes backoff
    /// and re-setup time — the end-to-end experience.
    pub bandwidth_kbs: f64,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// The record appended to the server's log.
    pub record: TransferRecord,
}

/// Byte share of each stripe when `bytes` is split evenly across `n`
/// servers: the remainder is spread one byte at a time over the leading
/// stripes. The shares always sum to exactly `bytes` — laid end to end
/// they tile `[0, bytes)` with no gap or overlap — including the
/// degenerate `bytes = 0` and `n > bytes` cases (trailing stripes get
/// zero-byte shares).
pub fn stripe_shares(bytes: u64, n: usize) -> Vec<u64> {
    assert!(n > 0, "stripe plans need at least one server");
    let n = n as u64;
    let share = bytes / n;
    let rem = bytes % n;
    (0..n).map(|i| share + u64::from(i < rem)).collect()
}

/// Static configuration of one GridFTP server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Server host name, e.g. `dpsslx04.lbl.gov`.
    pub host: String,
    /// Server address as logged in `SRC` fields of its peers.
    pub address: String,
}

impl ServerConfig {
    /// A server named `host`, reachable at `address`.
    pub fn new(host: impl Into<String>, address: impl Into<String>) -> Self {
        ServerConfig {
            host: host.into(),
            address: address.into(),
        }
    }
}

/// One registered server.
struct ServerRuntime {
    storage: StorageServer,
    log: TransferLog,
}

/// In-flight transfer state: one GET on one server → client data leg.
struct Inflight {
    token: TransferToken,
    client: NodeId,
    /// The serving node, which logs the transfer.
    server: NodeId,
    path: String,
    volume: String,
    /// Bytes the *current* attempt still has to move.
    bytes: u64,
    /// Bytes delivered by earlier (failed) attempts: the REST offset the
    /// current attempt resumes from. The payload is
    /// `bytes + prior_delivered`.
    prior_delivered: u64,
    streams: u32,
    tcp_buffer: u64,
    submitted: SimTime,
    /// The current attempt's data flow, once its setup has fired.
    flow: Option<FlowId>,
    /// The current attempt's read access at the server.
    access: Option<AccessId>,
    /// Current attempt number (1-based; bumped when a retry is scheduled).
    attempt: u32,
    /// Control-channel setup delay, re-charged on every attempt.
    setup: SimDuration,
}

impl Inflight {
    /// Whole bytes of the current attempt's flow delivered at progress
    /// `fraction`, floored so a resume from them never skips data.
    fn moved(&self, fraction: f64) -> u64 {
        ((fraction * self.bytes as f64).floor() as u64).min(self.bytes)
    }
}

/// The embedded transfer engine.
pub struct TransferManager {
    servers: BTreeMap<NodeId, ServerRuntime>,
    hosts: BTreeMap<NodeId, (String, String)>,
    /// Hot per-transfer state, keyed by the monotonic transfer counter:
    /// a sorted-vec map so the per-event lookups in the replay loop stay
    /// in one contiguous allocation (see `wanpred_simnet::index`).
    inflight: VecMap<u64, Inflight>,
    /// Flow → transfer back-map; flow ids are allocated monotonically by
    /// the network, so inserts append.
    by_flow: VecMap<FlowId, u64>,
    next: u64,
    /// Unix seconds corresponding to `SimTime::ZERO`.
    epoch_unix: u64,
    /// Retry/timeout policy; `None` fails transfers on the first fault.
    retry: Option<RetryPolicy>,
    /// Recovery notifications awaiting [`TransferManager::take_events`].
    events: Vec<TransferEvent>,
    /// Observability sink (null by default).
    obs: ObsSink,
}

impl TransferManager {
    /// Create a manager; `epoch_unix` maps simulation time zero to a wall
    /// clock for log timestamps.
    pub fn new(epoch_unix: u64) -> Self {
        TransferManager {
            servers: BTreeMap::new(),
            hosts: BTreeMap::new(),
            inflight: VecMap::new(),
            by_flow: VecMap::new(),
            next: 0,
            epoch_unix,
            retry: None,
            events: Vec::new(),
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink: transfer life-cycle counters,
    /// duration/byte histograms, and a sim-time span per modeled log
    /// append flow through it.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Install a retry/timeout policy (attempt deadlines, exponential
    /// backoff, resume-from-offset). Without one, a connection reset
    /// fails the transfer outright and no deadlines are armed.
    ///
    /// # Panics
    ///
    /// If `max_attempts` lies outside `1..=255`: timer tags carry the
    /// attempt number in eight bits, so attempt 256 would alias attempt
    /// 0 and its setup timer would be dropped as stale.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        assert!(
            policy.max_attempts <= 0xFF,
            "timer tags hold at most 255 attempts"
        );
        self.retry = Some(policy);
    }

    /// Drain pending recovery notifications (retries scheduled, transfers
    /// abandoned). Call after forwarding timer/flow events.
    pub fn take_events(&mut self) -> Vec<TransferEvent> {
        std::mem::take(&mut self.events)
    }

    /// Register a GridFTP server at a node.
    pub fn add_server(&mut self, node: NodeId, config: ServerConfig, storage: StorageServer) {
        self.hosts.insert(node, (config.host, config.address));
        self.servers.insert(
            node,
            ServerRuntime {
                storage,
                log: TransferLog::new(),
            },
        );
    }

    /// Register a plain (client) host's name and address for logging.
    pub fn add_host(&mut self, node: NodeId, host: impl Into<String>, address: impl Into<String>) {
        self.hosts.insert(node, (host.into(), address.into()));
    }

    /// The transfer log accumulated at a server.
    pub fn server_log(&self, node: NodeId) -> Option<&TransferLog> {
        self.servers.get(&node).map(|s| &s.log)
    }

    /// The storage server at a node (inspection/tests).
    pub fn storage(&self, node: NodeId) -> Option<&StorageServer> {
        self.servers.get(&node).map(|s| &s.storage)
    }

    /// Number of in-flight transfers.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    fn addr_of(&self, node: NodeId) -> (String, String) {
        self.hosts
            .get(&node)
            .cloned()
            .unwrap_or_else(|| (format!("{node}"), format!("{node}")))
    }

    /// Submit a transfer. On success, the data starts flowing after the
    /// control-channel setup delay and the completion arrives through
    /// [`TransferManager::on_flow_complete`].
    pub fn submit(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: TransferRequest,
    ) -> Result<TransferToken, SubmitError> {
        let TransferKind::Get { server, path } = req.kind;
        let rt = self
            .servers
            .get(&server)
            .ok_or(SubmitError::NotAServer(server))?;
        let total = rt
            .storage
            .catalog()
            .lookup(&path)
            .map(|e| e.size)
            .map_err(|_| SubmitError::FileNotFound(path.clone()))?;
        let bytes = match req.partial {
            Some((off, len)) => {
                // Any nonzero offset at or past EOF is a 554 — including
                // into a zero-size file, where `total - off` would wrap.
                if off > 0 && off >= total {
                    return Err(SubmitError::BadOffset);
                }
                len.min(total - off)
            }
            None => total,
        };

        // The data path must exist before we commit.
        ctx.network()
            .topology()
            .route(server, req.client)
            .map_err(|_| SubmitError::NoRoute)?;

        let volume = rt
            .storage
            .catalog()
            .volume_of(&path)
            .map(|v| v.mount.clone())
            .unwrap_or_default();

        // Control-channel setup: GSI handshake plus command round trips
        // between the client and the server.
        let rtt = ctx
            .network()
            .topology()
            .rtt(req.client, server)
            .unwrap_or(SimDuration::from_millis(1));
        let setup = AUTH_DELAY + rtt * SETUP_ROUND_TRIPS;

        let id = self.next;
        self.next += 1;
        let token = TransferToken(id);
        self.inflight.insert(
            id,
            Inflight {
                token,
                client: req.client,
                server,
                path,
                volume,
                bytes,
                prior_delivered: 0,
                streams: req.streams.max(1),
                tcp_buffer: req.tcp_buffer,
                submitted: ctx.now(),
                flow: None,
                access: None,
                attempt: 1,
                setup,
            },
        );
        ctx.set_timer(setup, setup_tag(id, 1));
        self.obs.inc(names::GRIDFTP_SUBMITTED);
        Ok(token)
    }

    /// Handle a timer event. Returns `true` if the tag belonged to this
    /// manager (the embedding agent should then stop processing it).
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) -> bool {
        if !owns_tag(tag) {
            return false;
        }
        let id = tag & ID_MASK;
        let kind = (tag >> KIND_SHIFT) & 0x3F;
        let attempt = ((tag >> ATTEMPT_SHIFT) & 0xFF) as u32;
        match kind {
            KIND_SETUP => self.start_attempt(ctx, id, attempt),
            KIND_DEADLINE => self.deadline_fired(ctx, id, attempt),
            _ => {}
        }
        true
    }

    /// A setup timer fired: open the server's read access and start the
    /// data flow, then arm the attempt deadline.
    fn start_attempt(&mut self, ctx: &mut Ctx<'_>, id: u64, attempt: u32) {
        let Some(t) = self.inflight.get_mut(&id) else {
            return; // stale timer for an aborted transfer
        };
        if t.attempt != attempt {
            return; // stale setup from a superseded attempt
        }
        let rt = self
            .servers
            .get_mut(&t.server)
            .expect("submit checked the server");
        t.access = Some(rt.storage.open_read(&t.path, t.bytes));
        let spec = FlowSpec {
            from: t.server,
            to: t.client,
            bytes: t.bytes,
            streams: t.streams,
            tcp: TcpParams {
                buffer_bytes: t.tcp_buffer,
                init_window: 2 * 1460,
                mss: 1460,
            },
            external_cap: f64::INFINITY, // set by refresh_caps below
        };
        let flow = ctx
            .start_flow(spec)
            .expect("route validated at submit time");
        t.flow = Some(flow);
        let (server, remaining) = (t.server, t.bytes);
        self.by_flow.insert(flow, id);

        // Contention changed at the server: refresh every affected cap,
        // including the new flow's own.
        self.refresh_caps(ctx, server);

        // Arm this attempt's deadline, sized to its remaining bytes.
        if let Some(p) = &self.retry {
            ctx.set_timer(p.deadline(remaining), deadline_tag(id, attempt));
        }
    }

    /// A deadline timer fired. Ignore it unless it belongs to the
    /// transfer's *current* attempt (completion removes the transfer;
    /// failure bumps the attempt counter, staling old deadlines).
    fn deadline_fired(&mut self, ctx: &mut Ctx<'_>, id: u64, attempt: u32) {
        let Some(t) = self.inflight.get(&id) else {
            return;
        };
        if t.attempt != attempt {
            return;
        }
        self.fail_attempt(ctx, id, FailureReason::DeadlineExceeded);
    }

    /// Handle a flow-failed event (connection reset injected by the
    /// network). Returns `true` if the flow belonged to this manager.
    pub fn on_flow_failed(&mut self, ctx: &mut Ctx<'_>, failed: &FlowFailed) -> bool {
        let Some(id) = self.by_flow.remove(&failed.id) else {
            return false;
        };
        // The network already tore the flow down: credit its delivered
        // bytes, then fail the attempt.
        let t = self.inflight.get_mut(&id).expect("flow maps to inflight");
        t.flow = None;
        let delivered = failed.delivered_bytes.min(t.bytes);
        t.prior_delivered += delivered;
        t.bytes -= delivered;
        self.fail_attempt(ctx, id, FailureReason::ConnectionReset);
        true
    }

    /// Tear down the current attempt (abort a surviving flow, close the
    /// storage access, bank delivered bytes) and either schedule the
    /// next attempt or abandon the transfer.
    fn fail_attempt(&mut self, ctx: &mut Ctx<'_>, id: u64, reason: FailureReason) {
        let t = self
            .inflight
            .get_mut(&id)
            .expect("failing unknown transfer");
        if let Some(flow) = t.flow.take() {
            self.by_flow.remove(&flow);
            if let Some(fraction) = ctx.abort_flow(flow) {
                let delivered = t.moved(fraction);
                t.prior_delivered += delivered;
                t.bytes -= delivered;
            }
        }
        if let Some(access) = t.access.take() {
            let server = t.server;
            if let Some(rt) = self.servers.get_mut(&server) {
                rt.storage.close(access);
            }
            self.refresh_caps(ctx, server);
        }

        let t = self.inflight.get_mut(&id).expect("still present");
        let delivered = t.prior_delivered;
        let retry_allowed = self
            .retry
            .as_ref()
            .map(|p| t.attempt < p.max_attempts)
            .unwrap_or(false);
        if retry_allowed {
            let policy = self.retry.as_ref().expect("checked above");
            let failed_attempts = t.attempt;
            t.attempt += 1;
            let backoff = policy.backoff(id, failed_attempts);
            // Re-run control-channel setup after the backoff: retries pay
            // authentication and command round trips again.
            ctx.set_timer(backoff + t.setup, setup_tag(id, t.attempt));
            self.obs.inc(names::GRIDFTP_RETRIES);
            self.events.push(TransferEvent::RetryScheduled {
                token: t.token,
                attempt: t.attempt,
                delay: backoff,
                reason,
                delivered_bytes: delivered,
            });
        } else {
            let t = self.inflight.remove(&id).expect("still present");
            self.obs.inc(names::GRIDFTP_FAILED);
            self.events.push(TransferEvent::Failed {
                token: t.token,
                attempts: t.attempt,
                reason,
                delivered_bytes: delivered,
            });
        }
    }

    /// Handle a flow completion. Returns the completed transfer the flow
    /// belonged to.
    pub fn on_flow_complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        done: &FlowDone,
    ) -> Option<CompletedTransfer> {
        let id = self.by_flow.remove(&done.id)?;
        let t = self.inflight.remove(&id).expect("flow maps to inflight");
        if let Some(access) = t.access {
            if let Some(rt) = self.servers.get_mut(&t.server) {
                rt.storage.close(access);
            }
            self.refresh_caps(ctx, t.server);
        }

        let finished = ctx.now();
        let total_s = finished.saturating_since(t.submitted).as_secs_f64();
        let start_unix = self.epoch_unix + t.submitted.as_secs();
        let end_unix = self.epoch_unix + finished.as_secs();
        // A retried transfer logs its whole payload (earlier attempts'
        // bytes included), not just the resumed tail. The remote party is
        // the client, as in Figure 3 where LBL logs the ANL client.
        let bytes = t.bytes + t.prior_delivered;
        let (_, client_addr) = self.addr_of(t.client);
        let (host, _) = self.addr_of(t.server);
        let record = TransferRecordBuilder::new()
            .source(client_addr)
            .host(host)
            .file_name(t.path)
            .file_size(bytes)
            .volume(t.volume)
            .start_unix(start_unix)
            .end_unix(end_unix)
            .total_time_s(total_s)
            .streams(t.streams)
            .tcp_buffer(t.tcp_buffer)
            .operation(Operation::Read)
            .build()
            .expect("all fields set");

        // Span the modeled ULM append on the sim clock: the paper's
        // ~25 ms logging overhead becomes a per-append duration
        // histogram under the span's name.
        let at = finished.as_micros();
        let cost = crate::instrument::modeled_logging_cost(&record).as_micros();
        self.obs.span_enter(names::GRIDFTP_LOG_APPEND, at);
        self.obs.span_exit(names::GRIDFTP_LOG_APPEND, at + cost);
        self.servers
            .get_mut(&t.server)
            .expect("submit checked the server")
            .log
            .append(record.clone());

        self.obs.inc(names::GRIDFTP_COMPLETED);
        self.obs.observe(
            names::GRIDFTP_TRANSFER_DURATION_US,
            finished.saturating_since(t.submitted).as_micros(),
        );
        self.obs.observe(names::GRIDFTP_TRANSFER_BYTES, bytes);

        let bandwidth_kbs = if total_s > 0.0 {
            bytes as f64 / total_s / 1_000.0
        } else {
            0.0
        };
        Some(CompletedTransfer {
            token: t.token,
            submitted: t.submitted,
            finished,
            bytes,
            bandwidth_kbs,
            attempts: t.attempt,
            record,
        })
    }

    /// Sample the payload bytes delivered so far by an in-flight transfer
    /// without disturbing it: prior-attempt credit plus the fluid
    /// progress of the active flow, floored to whole bytes. The floor
    /// means this never over-reports, so a REST resume from the returned
    /// offset can never skip data. Returns `None` for unknown (or
    /// already completed/aborted) tokens.
    pub fn progress(&self, ctx: &mut Ctx<'_>, token: TransferToken) -> Option<u64> {
        let t = self.inflight.get(&token.0)?;
        let moving = t
            .flow
            .map_or(0, |flow| t.moved(ctx.flow_progress(flow).unwrap_or(1.0)));
        Some(t.prior_delivered + moving)
    }

    /// Abort an in-flight (or still pending) transfer — connection drop
    /// or client cancellation. The flow stops, the storage access
    /// closes, peers' caps are re-evaluated, and **no log record is
    /// written** (the paper's server logs completed transfers only).
    ///
    /// Returns the exact number of payload bytes delivered (prior-attempt
    /// credit plus floored fluid progress; `0` if no data flow had
    /// started), or `None` for unknown/finished tokens.
    /// Co-allocating callers re-plan the remaining `[delivered, share)`
    /// range onto another source from this offset, so it is a whole byte
    /// count that never over-reports.
    pub fn abort_exact(&mut self, ctx: &mut Ctx<'_>, token: TransferToken) -> Option<u64> {
        let t = self.inflight.remove(&token.0)?;
        let mut delivered = t.prior_delivered;
        if let Some(flow) = t.flow {
            self.by_flow.remove(&flow);
            delivered += t.moved(ctx.abort_flow(flow).unwrap_or(1.0));
        }
        if let Some(access) = t.access {
            if let Some(rt) = self.servers.get_mut(&t.server) {
                rt.storage.close(access);
            }
            self.refresh_caps(ctx, t.server);
        }
        Some(delivered)
    }

    /// Re-evaluate the storage cap of every in-flight transfer reading
    /// from `server`.
    fn refresh_caps(&mut self, ctx: &mut Ctx<'_>, server: NodeId) {
        let Some(rt) = self.servers.get(&server) else {
            return;
        };
        for t in self.inflight.values() {
            if t.server != server {
                continue;
            }
            let (Some(flow), Some(access)) = (t.flow, t.access) else {
                continue;
            };
            ctx.set_external_cap(flow, rt.storage.access_cap(access).unwrap_or(f64::INFINITY));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use wanpred_simnet::engine::{Agent, Engine};
    use wanpred_simnet::load::LoadModelConfig;
    use wanpred_simnet::network::Network;
    use wanpred_simnet::rng::MasterSeed;
    use wanpred_simnet::topology::Topology;

    fn quiet_cfg() -> LoadModelConfig {
        LoadModelConfig {
            diurnal_mean_weight: 0.0,
            walk_sigma: 0.0,
            burst_weight: 0.0,
            ..LoadModelConfig::default()
        }
    }

    /// Three-node line: client(anl) -- server(lbl), server(isi).
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
        t.add_route(lbl, isi, vec![r1, f2]).unwrap();
        t.add_route(isi, lbl, vec![r2, f1]).unwrap();
        (
            Network::with_uniform_load(t, quiet_cfg(), MasterSeed(3)),
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

    /// Agent driving a scripted list of requests at given times.
    struct Driver {
        mgr: TransferManager,
        script: Vec<(SimDuration, TransferRequest)>,
        completed: Vec<CompletedTransfer>,
        errors: Vec<SubmitError>,
    }

    impl Agent for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (delay, _)) in self.script.iter().enumerate() {
                ctx.set_timer(*delay, i as TimerTag);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
            if self.mgr.on_timer(ctx, tag) {
                return;
            }
            let req = self.script[tag as usize].1.clone();
            if let Err(e) = self.mgr.submit(ctx, req) {
                self.errors.push(e);
            }
        }
        fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
            if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
                self.completed.push(c);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn get_req(client: NodeId, server: NodeId, path: &str) -> TransferRequest {
        TransferRequest {
            client,
            kind: TransferKind::Get {
                server,
                path: path.into(),
            },
            streams: 8,
            tcp_buffer: 1_000_000,
            partial: None,
        }
    }

    fn run(script: Vec<(SimDuration, TransferRequest)>, secs: u64) -> Driver {
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Driver {
            mgr,
            script,
            completed: Vec::new(),
            errors: Vec::new(),
        }));
        eng.run_until(SimTime::from_secs(secs));
        let d = eng.agent_mut::<Driver>(id).unwrap();
        std::mem::replace(
            d,
            Driver {
                mgr: TransferManager::new(0),
                script: Vec::new(),
                completed: Vec::new(),
                errors: Vec::new(),
            },
        )
    }

    #[test]
    fn get_transfer_completes_and_logs() {
        let (net, anl, lbl, isi) = testnet();
        drop(net);
        let script = vec![(
            SimDuration::from_secs(1),
            get_req(anl, lbl, "/home/ftp/vazhkuda/100MB"),
        )];
        let d = run(script, 300);
        let _ = isi;
        assert_eq!(d.completed.len(), 1, "errors: {:?}", d.errors);
        let c = &d.completed[0];
        assert_eq!(c.bytes, 102_400_000);
        // 12 MB/s link, quiet: ~8.5 s + setup ~0.7 s.
        let secs = c.finished.saturating_since(c.submitted).as_secs_f64();
        assert!(secs > 8.0 && secs < 12.0, "{secs}");
        // The LBL server logged one Read record with the ANL client as
        // source.
        let log = d.mgr.server_log(lbl).unwrap();
        assert_eq!(log.len(), 1);
        let r = &log.records()[0];
        assert_eq!(r.operation, Operation::Read);
        assert_eq!(r.source, "140.221.65.69");
        assert_eq!(r.host, "dpsslx04.lbl.gov");
        assert_eq!(r.streams, 8);
        assert_eq!(r.tcp_buffer, 1_000_000);
        assert!(r.validate().is_ok(), "{:?}", r.validate());
        assert_eq!(r.start_unix, 998_000_001);
    }

    #[test]
    fn missing_file_fails_at_submit() {
        let (_, anl, lbl, _) = testnet();
        let script = vec![(
            SimDuration::from_secs(1),
            get_req(anl, lbl, "/home/ftp/nope"),
        )];
        let d = run(script, 60);
        assert!(d.completed.is_empty());
        assert_eq!(d.errors.len(), 1);
        assert!(matches!(d.errors[0], SubmitError::FileNotFound(_)));
    }

    #[test]
    fn partial_get_moves_only_requested_bytes() {
        let (_, anl, lbl, _) = testnet();
        let mut req = get_req(anl, lbl, "/home/ftp/vazhkuda/100MB");
        req.partial = Some((100_000_000, 10_000_000));
        let script = vec![(SimDuration::from_secs(1), req)];
        let d = run(script, 120);
        assert_eq!(d.completed.len(), 1);
        // 102_400_000 - 100_000_000 = 2_400_000 bytes remain after offset.
        assert_eq!(d.completed[0].bytes, 2_400_000);
    }

    #[test]
    fn bad_partial_offset_rejected() {
        let (_, anl, lbl, _) = testnet();
        let mut req = get_req(anl, lbl, "/home/ftp/vazhkuda/10MB");
        req.partial = Some((99_999_999_999, 1));
        let d = run(vec![(SimDuration::from_secs(1), req)], 60);
        assert_eq!(d.errors, vec![SubmitError::BadOffset]);
    }

    #[test]
    fn concurrent_gets_contend_on_storage_and_link() {
        let (_, anl, lbl, _) = testnet();
        let script = vec![
            (
                SimDuration::from_secs(1),
                get_req(anl, lbl, "/home/ftp/vazhkuda/250MB"),
            ),
            (
                SimDuration::from_secs(1),
                get_req(anl, lbl, "/home/ftp/vazhkuda/400MB"),
            ),
        ];
        let d = run(script, 600);
        assert_eq!(d.completed.len(), 2, "{:?}", d.errors);
        // Two 8-stream flows share a 12 MB/s link: each well under the
        // solo rate while both active. The smaller finishes first; total
        // data 650 paper-MB at 12 MB/s aggregate is >= 55 s.
        let last = d
            .completed
            .iter()
            .map(|c| c.finished.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(last > 55.0, "finished too fast: {last}");
    }

    #[test]
    fn records_are_ulm_serializable() {
        let (_, anl, lbl, _) = testnet();
        let script = vec![(
            SimDuration::from_secs(1),
            get_req(anl, lbl, "/home/ftp/vazhkuda/10MB"),
        )];
        let d = run(script, 120);
        let log = d.mgr.server_log(lbl).unwrap();
        let doc = log.to_ulm_string();
        let back = TransferLog::from_ulm_str(&doc).unwrap();
        assert_eq!(back.len(), 1);
        assert!(doc.len() < 512);
    }

    #[test]
    fn not_a_server_is_rejected() {
        let (_, anl, lbl, _) = testnet();
        let script = vec![(
            SimDuration::from_secs(1),
            get_req(anl, anl, "/home/ftp/vazhkuda/10MB"),
        )];
        let _ = lbl;
        let d = run(script, 60);
        assert!(matches!(d.errors[0], SubmitError::NotAServer(_)));
    }

    // ---- zero-size files (regression) ---------------------------------

    #[test]
    fn zero_size_get_offset_rejected_and_offset_zero_legal() {
        // Regression: a nonzero partial offset into a zero-size file used
        // to pass the `off >= total && total > 0` guard and wrap
        // `total - off`; it must be a 554/BadOffset.
        let (net, anl, lbl, isi) = testnet();
        let mut mgr = manager(anl, lbl, isi);
        mgr.servers
            .get_mut(&lbl)
            .unwrap()
            .storage
            .catalog_mut()
            .add_file("/home/ftp/empty", 0)
            .unwrap();
        let mut bad = get_req(anl, lbl, "/home/ftp/empty");
        bad.partial = Some((5, 10));
        let mut ok = get_req(anl, lbl, "/home/ftp/empty");
        ok.partial = Some((0, 10));
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Driver {
            mgr,
            script: vec![
                (SimDuration::from_secs(1), bad),
                (SimDuration::from_secs(2), ok),
            ],
            completed: Vec::new(),
            errors: Vec::new(),
        }));
        eng.run_until(SimTime::from_secs(60));
        let d = eng.agent::<Driver>(id).unwrap();
        assert_eq!(d.errors, vec![SubmitError::BadOffset]);
        assert_eq!(d.completed.len(), 1, "offset 0 into empty file is legal");
        assert_eq!(d.completed[0].bytes, 0);
    }

    // ---- faults and retries -------------------------------------------

    use wanpred_simnet::fault::{FaultAction, FaultSchedule, TimedFault};

    /// Driver that forwards flow failures to the manager and collects
    /// recovery events.
    struct FaultyDriver {
        mgr: TransferManager,
        script: Vec<(SimDuration, TransferRequest)>,
        completed: Vec<CompletedTransfer>,
        events: Vec<TransferEvent>,
        errors: Vec<SubmitError>,
    }

    impl FaultyDriver {
        fn drain(&mut self) {
            self.events.extend(self.mgr.take_events());
        }
    }

    impl Agent for FaultyDriver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (delay, _)) in self.script.iter().enumerate() {
                ctx.set_timer(*delay, i as TimerTag);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
            if !self.mgr.on_timer(ctx, tag) {
                let req = self.script[tag as usize].1.clone();
                if let Err(e) = self.mgr.submit(ctx, req) {
                    self.errors.push(e);
                }
            }
            self.drain();
        }
        fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
            if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
                self.completed.push(c);
            }
            self.drain();
        }
        fn on_flow_failed(&mut self, ctx: &mut Ctx<'_>, failed: FlowFailed) {
            self.mgr.on_flow_failed(ctx, &failed);
            self.drain();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn run_faulty(
        script: Vec<(SimDuration, TransferRequest)>,
        policy: Option<RetryPolicy>,
        faults: FaultSchedule,
        secs: u64,
    ) -> FaultyDriver {
        let (net, anl, lbl, isi) = testnet();
        let mut mgr = manager(anl, lbl, isi);
        if let Some(p) = policy {
            mgr.set_retry_policy(p);
        }
        let mut eng = Engine::new(net);
        eng.inject_faults(&faults);
        let id = eng.add_agent(Box::new(FaultyDriver {
            mgr,
            script,
            completed: Vec::new(),
            events: Vec::new(),
            errors: Vec::new(),
        }));
        eng.run_until(SimTime::from_secs(secs));
        let d = eng.agent_mut::<FaultyDriver>(id).unwrap();
        std::mem::replace(
            d,
            FaultyDriver {
                mgr: TransferManager::new(0),
                script: Vec::new(),
                completed: Vec::new(),
                events: Vec::new(),
                errors: Vec::new(),
            },
        )
    }

    /// Kill the lbl→anl data flow mid-transfer; with a retry policy the
    /// transfer resumes from the delivered offset and completes, and its
    /// `total_time_s` spans submit→final completion (backoff included).
    #[test]
    fn killed_flow_retries_resumes_and_logs_end_to_end_time() {
        let (net, anl, lbl, _) = testnet();
        let link = net.topology().route(lbl, anl).unwrap().links[0];
        let faults = FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs(5),
            action: FaultAction::KillFlows(link),
        }]);
        let d = run_faulty(
            vec![(
                SimDuration::from_secs(1),
                get_req(anl, lbl, "/home/ftp/vazhkuda/100MB"),
            )],
            Some(RetryPolicy::wan_default()),
            faults,
            600,
        );
        assert_eq!(d.completed.len(), 1, "errors {:?}", d.errors);
        let c = &d.completed[0];
        assert_eq!(c.attempts, 2);
        assert_eq!(c.bytes, 102_400_000);
        assert!(d
            .events
            .iter()
            .any(|e| matches!(e, TransferEvent::RetryScheduled { attempt: 2, .. })));
        // The kill at t=5 delivered ~40 MB; with a >=3.75 s backoff and
        // re-setup, end-to-end time must exceed the clean ~9.2 s run.
        let secs = c.finished.saturating_since(c.submitted).as_secs_f64();
        assert!(secs > 12.0, "took {secs}s — no recovery time included?");
        assert!((c.record.total_time_s - secs).abs() < 0.5);
        // The server logged the whole file once, not just the resumed tail.
        let log = d.mgr.server_log(NodeId(1)).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].file_size, 102_400_000);
    }

    /// Without a retry policy, a connection reset abandons the transfer:
    /// a `Failed` event, no log record, nothing left in flight.
    #[test]
    fn killed_flow_without_policy_fails_fast() {
        let (net, anl, lbl, _) = testnet();
        let link = net.topology().route(lbl, anl).unwrap().links[0];
        let faults = FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs(5),
            action: FaultAction::KillFlows(link),
        }]);
        let d = run_faulty(
            vec![(
                SimDuration::from_secs(1),
                get_req(anl, lbl, "/home/ftp/vazhkuda/100MB"),
            )],
            None,
            faults,
            600,
        );
        assert!(d.completed.is_empty());
        assert_eq!(d.mgr.inflight_count(), 0);
        assert_eq!(d.mgr.server_log(NodeId(1)).unwrap().len(), 0);
        match &d.events[..] {
            [TransferEvent::Failed {
                attempts,
                reason,
                delivered_bytes,
                ..
            }] => {
                assert_eq!(*attempts, 1);
                assert_eq!(*reason, FailureReason::ConnectionReset);
                assert!(*delivered_bytes > 0);
            }
            other => panic!("expected one Failed event, got {other:?}"),
        }
    }

    /// An outage stalls the only data flow; the attempt deadline expires,
    /// and the retry lands after the link recovers.
    #[test]
    fn deadline_times_out_stalled_attempt_then_recovers() {
        let (net, anl, lbl, _) = testnet();
        let link = net.topology().route(lbl, anl).unwrap().links[0];
        let faults = FaultSchedule::from_events(vec![
            TimedFault {
                at: SimTime::from_secs(3),
                action: FaultAction::LinkDown(link),
            },
            TimedFault {
                at: SimTime::from_secs(40),
                action: FaultAction::LinkUp(link),
            },
        ]);
        let policy = RetryPolicy {
            // Tight deadline so the stall is caught inside the outage.
            deadline_floor: SimDuration::from_secs(5),
            deadline_kbs: 10_000.0,
            ..RetryPolicy::wan_default()
        };
        let d = run_faulty(
            vec![(
                SimDuration::from_secs(1),
                get_req(anl, lbl, "/home/ftp/vazhkuda/100MB"),
            )],
            Some(policy),
            faults,
            600,
        );
        assert_eq!(d.completed.len(), 1, "events {:?}", d.events);
        let c = &d.completed[0];
        assert!(c.attempts >= 2, "attempts {}", c.attempts);
        assert!(
            c.finished > SimTime::from_secs(40),
            "finished {} before the link came back",
            c.finished
        );
        assert!(d.events.iter().any(|e| matches!(
            e,
            TransferEvent::RetryScheduled {
                reason: FailureReason::DeadlineExceeded,
                ..
            }
        )));
    }

    /// Retry backoff grows and is jittered deterministically.
    #[test]
    fn backoff_grows_and_is_deterministic() {
        let p = RetryPolicy::wan_default();
        let b1 = p.backoff(7, 1);
        let b2 = p.backoff(7, 2);
        let b3 = p.backoff(7, 3);
        assert_eq!(b1, p.backoff(7, 1), "same inputs, same backoff");
        // Jitter is ±25%, growth is 2x: consecutive backoffs still rank.
        assert!(b2 > b1, "{b1} !< {b2}");
        assert!(b3 > b2, "{b2} !< {b3}");
        assert_ne!(p.backoff(8, 1), b1, "different transfers decorrelate");
        // Bounded by backoff_max plus jitter headroom.
        let late = p.backoff(7, 30);
        assert!(late.as_secs_f64() <= 300.0 * 1.25);
    }

    /// Regression: timer tags keep eight attempt bits, so attempt 256
    /// decoded as 0 and its setup timer was dropped as stale, leaving
    /// the transfer in flight for ever. Such a budget is refused.
    #[test]
    #[should_panic(expected = "at most 255 attempts")]
    fn retry_budget_beyond_tag_width_rejected() {
        TransferManager::new(0).set_retry_policy(RetryPolicy {
            max_attempts: 256,
            ..RetryPolicy::wan_default()
        });
    }

    // ---- aborts -------------------------------------------------------

    /// Driver variant that aborts its transfer at a scheduled time.
    struct Aborter {
        mgr: TransferManager,
        client: NodeId,
        server: NodeId,
        abort_at: SimDuration,
        token: Option<TransferToken>,
        delivered: Option<u64>,
        completed: usize,
    }

    impl Agent for Aborter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 1);
            ctx.set_timer(self.abort_at, 2);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
            if self.mgr.on_timer(ctx, tag) {
                return;
            }
            match tag {
                1 => {
                    self.token = self
                        .mgr
                        .submit(
                            ctx,
                            TransferRequest {
                                client: self.client,
                                kind: TransferKind::Get {
                                    server: self.server,
                                    path: "/home/ftp/vazhkuda/1GB".into(),
                                },
                                streams: 8,
                                tcp_buffer: 1_000_000,
                                partial: None,
                            },
                        )
                        .ok();
                }
                2 => {
                    if let Some(t) = self.token {
                        self.delivered = self.mgr.abort_exact(ctx, t);
                    }
                }
                _ => {}
            }
        }
        fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
            if self.mgr.on_flow_complete(ctx, &done).is_some() {
                self.completed += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn run_abort(abort_secs: u64) -> Aborter {
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Aborter {
            mgr,
            client: anl,
            server: lbl,
            abort_at: SimDuration::from_secs(abort_secs),
            token: None,
            delivered: None,
            completed: 0,
        }));
        eng.run_until(SimTime::from_secs(600));
        let a = eng.agent_mut::<Aborter>(id).unwrap();
        std::mem::replace(
            a,
            Aborter {
                mgr: TransferManager::new(0),
                client: anl,
                server: lbl,
                abort_at: SimDuration::ZERO,
                token: None,
                delivered: None,
                completed: 0,
            },
        )
    }

    #[test]
    fn abort_mid_flight_releases_storage_and_logs_nothing() {
        // 1 GB at ~12 MB/s takes ~86 s; abort at t=30 is mid-flight.
        let a = run_abort(30);
        let bytes = a.delivered.expect("abort found the transfer");
        let total = 1_024_000_000u64;
        assert!(
            bytes > total / 20 && bytes < total - total / 20,
            "delivered {bytes} of {total}"
        );
        assert_eq!(a.completed, 0);
        assert_eq!(a.mgr.inflight_count(), 0);
        let storage = a.mgr.storage(NodeId(1)).unwrap();
        assert_eq!(storage.disk_population(), 0, "read access released");
        assert_eq!(a.mgr.server_log(NodeId(1)).unwrap().len(), 0);
    }

    #[test]
    fn abort_during_setup_reports_zero_progress() {
        // Setup takes ~0.7 s; abort fires just after submit at t=1.001.
        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Aborter {
            mgr,
            client: anl,
            server: lbl,
            abort_at: SimDuration::from_millis(1_001),
            token: None,
            delivered: None,
            completed: 0,
        }));
        eng.run_until(SimTime::from_secs(600));
        let a = eng.agent::<Aborter>(id).unwrap();
        assert_eq!(a.delivered, Some(0));
        assert_eq!(a.completed, 0, "stale setup timer must not start a flow");
        let _ = isi;
    }

    #[test]
    fn abort_of_finished_transfer_is_none() {
        // Abort long after the ~87 s transfer finished.
        let a = run_abort(500);
        assert_eq!(a.delivered, None);
        assert_eq!(a.completed, 1);
        assert_eq!(a.mgr.server_log(NodeId(1)).unwrap().len(), 1);
    }

    #[test]
    fn stripe_shares_cover_edges() {
        assert_eq!(stripe_shares(0, 3), vec![0, 0, 0]);
        assert_eq!(stripe_shares(2, 3), vec![1, 1, 0]);
        assert_eq!(stripe_shares(10, 3), vec![4, 3, 3]);
        assert_eq!(stripe_shares(9, 1), vec![9]);
        // Shares laid end to end tile [0, bytes): the last offset plus
        // the last share lands exactly on the file size.
        let shares = stripe_shares(102_400_000, 7);
        assert_eq!(shares.iter().sum::<u64>(), 102_400_000);
    }

    /// A mid-flight progress sample equals what an exact abort banks at
    /// the same instant, and resuming the remainder as a partial GET
    /// from the other server moves exactly `total - delivered` bytes —
    /// the zero-re-fetch contract the co-allocator builds on.
    #[test]
    fn progress_sample_matches_exact_abort_and_resume_tiles() {
        const TOTAL: u64 = 102_400_000; // the 100MB paper file

        struct Sampler {
            mgr: TransferManager,
            anl: NodeId,
            lbl: NodeId,
            isi: NodeId,
            token: Option<TransferToken>,
            sampled: Option<u64>,
            banked: Option<u64>,
            completed: Vec<CompletedTransfer>,
        }
        impl Agent for Sampler {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
                ctx.set_timer(SimDuration::from_secs(5), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
                if self.mgr.on_timer(ctx, tag) {
                    return;
                }
                if tag == 0 {
                    let req = get_req(self.anl, self.lbl, "/home/ftp/vazhkuda/100MB");
                    self.token = Some(self.mgr.submit(ctx, req).expect("submit"));
                } else {
                    let token = self.token.expect("submitted at t=1");
                    self.sampled = self.mgr.progress(ctx, token);
                    self.banked = self.mgr.abort_exact(ctx, token);
                    let delivered = self.banked.expect("mid-flight");
                    let mut req = get_req(self.anl, self.isi, "/home/ftp/vazhkuda/100MB");
                    req.partial = Some((delivered, TOTAL - delivered));
                    self.mgr.submit(ctx, req).expect("resume submit");
                }
            }
            fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
                if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
                    self.completed.push(c);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let (net, anl, lbl, isi) = testnet();
        let mgr = manager(anl, lbl, isi);
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Sampler {
            mgr,
            anl,
            lbl,
            isi,
            token: None,
            sampled: None,
            banked: None,
            completed: Vec::new(),
        }));
        eng.run_until(SimTime::from_secs(300));
        let s = eng.agent::<Sampler>(id).unwrap();
        let sampled = s.sampled.expect("progress saw the transfer");
        let banked = s.banked.expect("abort_exact saw the transfer");
        // Same integration instant, same floor: identical byte counts.
        assert_eq!(sampled, banked);
        assert!(banked > 0 && banked < TOTAL, "mid-flight: {banked}");
        // Only the resumed remainder completed, and it tiles the file
        // exactly: delivered + remainder == TOTAL, nothing re-fetched.
        assert_eq!(s.completed.len(), 1);
        assert_eq!(s.completed[0].bytes, TOTAL - banked);
        // Sampling an unknown token is None, not a panic.
        assert!(s.mgr.inflight_count() == 0);
    }
}

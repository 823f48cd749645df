//! Bulk-data flows and the TCP window model.
//!
//! A [`Flow`] is a fluid approximation of one logical transfer: `streams`
//! parallel TCP connections carrying `bytes` from source to sink along a
//! fixed route. Its instantaneous rate is the minimum of
//!
//! * its **fair share** of every traversed link (see [`crate::fair`]),
//! * its **window cap** `streams * window / rtt`, where `window` ramps
//!   through slow start (doubling each RTT) from [`TcpParams::init_window`]
//!   up to the negotiated buffer size, and
//! * an optional **external cap** (storage-system throughput at either
//!   endpoint, set by `wanpred-gridftp`).
//!
//! The window ramp is what makes small transfers see much lower end-to-end
//! bandwidth than large ones — the effect behind the paper's file-size
//! classification (§4.3) and behind NWS's 64 KB probes under-reporting
//! GridFTP throughput (Figures 1–2).

use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId};

/// Identifier of an active flow within the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// TCP parameters for a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpParams {
    /// Negotiated socket buffer per stream, in bytes; the steady-state
    /// congestion window cannot exceed this.
    pub buffer_bytes: u64,
    /// Initial congestion window per stream, in bytes (classically
    /// 2 segments).
    pub init_window: u64,
    /// Maximum segment size in bytes (used only to sanity-bound windows).
    pub mss: u64,
}

impl TcpParams {
    /// 2001-era defaults: 16 KB socket buffers, 2-segment initial window.
    /// This is what an untuned NWS probe gets.
    pub fn untuned() -> Self {
        TcpParams {
            buffer_bytes: 16 * 1024,
            init_window: 2 * 1460,
            mss: 1460,
        }
    }

    /// Hand-tuned wide-area settings as in the paper's experiments
    /// (`RTT * bottleneck bandwidth` rule; the paper used 1 MB).
    pub fn tuned_1mb() -> Self {
        TcpParams {
            buffer_bytes: 1024 * 1024,
            init_window: 2 * 1460,
            mss: 1460,
        }
    }
}

impl Default for TcpParams {
    fn default() -> Self {
        TcpParams::untuned()
    }
}

/// Specification of a transfer handed to the engine.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Number of parallel TCP streams (GridFTP parallelism). Weight in the
    /// fair-share computation.
    pub streams: u32,
    /// Per-stream TCP parameters.
    pub tcp: TcpParams,
    /// External rate cap in bytes/sec (storage system, NIC); infinity if
    /// unconstrained.
    pub external_cap: f64,
}

impl FlowSpec {
    /// Convenience constructor with no external cap.
    pub fn new(from: NodeId, to: NodeId, bytes: u64, streams: u32, tcp: TcpParams) -> Self {
        assert!(streams > 0, "a flow needs at least one stream");
        FlowSpec {
            from,
            to,
            bytes,
            streams,
            tcp,
            external_cap: f64::INFINITY,
        }
    }
}

/// Internal state of an active flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The immutable spec.
    pub spec: FlowSpec,
    /// Route links (resolved at admission).
    pub links: Vec<LinkId>,
    /// Path round-trip time (resolved at admission).
    pub rtt: SimDuration,
    /// Current per-stream congestion window in bytes.
    pub window: u64,
    /// Remaining payload bytes (fractional to avoid rounding drift during
    /// fluid integration).
    pub remaining: f64,
    /// Time the flow was admitted.
    pub started: SimTime,
    /// Current allocated rate in bytes/sec (set by the solver).
    pub rate: f64,
    /// External cap (mutable: storage contention changes it mid-flight).
    pub external_cap: f64,
    /// Queueing-delay inflation of the base RTT (>= 1), set by the
    /// network from the background load along the path. Window-limited
    /// flows slow down when the path is busy even without losing their
    /// fair share — this is what gives small-probe measurements their
    /// diurnal texture.
    pub queue_factor: f64,
}

impl Flow {
    /// Create the admission-time state for a spec.
    pub fn admit(spec: FlowSpec, links: Vec<LinkId>, rtt: SimDuration, now: SimTime) -> Self {
        let window = spec
            .tcp
            .init_window
            .min(spec.tcp.buffer_bytes)
            .max(spec.tcp.mss);
        let remaining = spec.bytes as f64;
        let external_cap = spec.external_cap;
        Flow {
            spec,
            links,
            rtt,
            window,
            remaining,
            started: now,
            rate: 0.0,
            external_cap,
            queue_factor: 1.0,
        }
    }

    /// The flow's current self-imposed rate cap in bytes/sec:
    /// `min(streams * window / rtt, external_cap)`.
    pub fn rate_cap(&self) -> f64 {
        let rtt_s = self.rtt.as_secs_f64().max(1e-6) * self.queue_factor.max(1.0);
        let win_cap = self.spec.streams as f64 * self.window as f64 / rtt_s;
        win_cap.min(self.external_cap)
    }

    /// Whether the window has fully ramped to the buffer limit.
    pub fn window_saturated(&self) -> bool {
        self.window >= self.spec.tcp.buffer_bytes
    }

    /// Double the per-stream window (one slow-start round), saturating at
    /// the buffer size. Returns true if the window changed.
    pub fn ramp_window(&mut self) -> bool {
        if self.window_saturated() {
            return false;
        }
        self.window = (self.window * 2).min(self.spec.tcp.buffer_bytes);
        true
    }

    /// Number of slow-start doublings from the initial window to the
    /// buffer limit: how many ramp events the engine must schedule.
    pub fn ramp_steps(&self) -> u32 {
        let mut w = self.window.max(1);
        let mut steps = 0;
        while w < self.spec.tcp.buffer_bytes {
            w *= 2;
            steps += 1;
        }
        steps
    }

    /// Payload fraction already delivered, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.spec.bytes == 0 {
            1.0
        } else {
            1.0 - self.remaining / self.spec.bytes as f64
        }
    }
}

/// Completion report delivered to the owning agent.
#[derive(Debug, Clone)]
pub struct FlowDone {
    /// The completed flow's id.
    pub id: FlowId,
    /// Admission time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Mean end-to-end rate in bytes/sec over the flow's lifetime
    /// (`bytes / (finished - started)`), matching the paper's
    /// `BW = File size / Transfer Time` definition.
    pub mean_rate: f64,
}

/// Failure report delivered to the owning agent when a flow is killed by
/// fault injection (connection reset, server crash) before completing.
#[derive(Debug, Clone)]
pub struct FlowFailed {
    /// The failed flow's id.
    pub id: FlowId,
    /// Admission time.
    pub started: SimTime,
    /// Time of the failure.
    pub failed: SimTime,
    /// Payload size in bytes the flow was carrying.
    pub bytes: u64,
    /// Bytes actually delivered before the failure (fluid estimate,
    /// rounded down).
    pub delivered_bytes: u64,
    /// Fraction of the payload delivered, in `[0, 1]`.
    pub delivered_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(bytes: u64, streams: u32, tcp: TcpParams) -> Flow {
        Flow::admit(
            FlowSpec::new(NodeId(0), NodeId(1), bytes, streams, tcp),
            vec![LinkId(0)],
            SimDuration::from_millis(50),
            SimTime::ZERO,
        )
    }

    #[test]
    fn initial_window_cap_is_small() {
        let f = flow(1 << 30, 1, TcpParams::untuned());
        // 2920 bytes / 50 ms = 58.4 KB/s initially.
        assert!((f.rate_cap() - 2920.0 / 0.05).abs() < 1.0);
    }

    #[test]
    fn ramped_window_cap_hits_buffer_limit() {
        let mut f = flow(1 << 30, 1, TcpParams::untuned());
        while f.ramp_window() {}
        // 16 KB / 50 ms = 320 KB/s: the sub-0.3 MB/s NWS ceiling from
        // Figures 1-2.
        assert!((f.rate_cap() - 16384.0 / 0.05).abs() < 1.0);
        assert!(f.window_saturated());
    }

    #[test]
    fn parallel_streams_multiply_cap() {
        let mut f = flow(1 << 30, 8, TcpParams::tuned_1mb());
        while f.ramp_window() {}
        // 8 * 1 MB / 50 ms = 160 MB/s >> any testbed link: share-limited.
        assert!(f.rate_cap() > 1.5e8);
    }

    #[test]
    fn external_cap_binds() {
        let mut f = flow(1 << 30, 8, TcpParams::tuned_1mb());
        while f.ramp_window() {}
        f.external_cap = 4e7;
        assert_eq!(f.rate_cap(), 4e7);
    }

    #[test]
    fn ramp_steps_counts_doublings() {
        let f = flow(1 << 30, 1, TcpParams::untuned());
        // 2920 -> 5840 -> 11680 -> 16384(capped): 3 steps.
        assert_eq!(f.ramp_steps(), 3);
        let g = flow(1 << 30, 1, TcpParams::tuned_1mb());
        // 2920 * 2^k >= 1 MiB at k = 9.
        assert_eq!(g.ramp_steps(), 9);
    }

    #[test]
    fn ramp_saturates_exactly_at_buffer() {
        let mut f = flow(1 << 30, 1, TcpParams::untuned());
        for _ in 0..10 {
            f.ramp_window();
        }
        assert_eq!(f.window, 16 * 1024);
        assert!(!f.ramp_window());
    }

    #[test]
    fn progress_tracks_remaining() {
        let mut f = flow(1000, 1, TcpParams::untuned());
        assert_eq!(f.progress(), 0.0);
        f.remaining = 250.0;
        assert!((f.progress() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_flow_is_complete() {
        let f = flow(0, 1, TcpParams::untuned());
        assert_eq!(f.progress(), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_streams_rejected() {
        let _ = FlowSpec::new(NodeId(0), NodeId(1), 1, 0, TcpParams::untuned());
    }
}

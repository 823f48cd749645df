//! Property test: under arbitrary interleavings of submits and aborts,
//! the transfer manager never leaks resources — when everything has
//! drained, no storage access is open, no transfer is in flight, and
//! every *completed* transfer produced exactly one log record.

use std::any::Any;

use proptest::prelude::*;
use wanpred_gridftp::{
    stripe_shares, CompletedTransfer, ServerConfig, SubmitError, TransferKind, TransferManager,
    TransferRequest, TransferToken,
};
use wanpred_simnet::engine::{Agent, Ctx, Engine, TimerTag};
use wanpred_simnet::flow::FlowDone;
use wanpred_simnet::load::LoadModelConfig;
use wanpred_simnet::network::Network;
use wanpred_simnet::rng::MasterSeed;
use wanpred_simnet::time::{SimDuration, SimTime};
use wanpred_simnet::topology::{NodeId, Topology};
use wanpred_storage::StorageServer;

#[derive(Debug, Clone)]
enum Op {
    /// Submit a GET of the i-th paper file at the given second, from
    /// ISI if `isi` is set and from LBL otherwise.
    Get { at: u64, file: usize, isi: bool },
    /// Submit a partial (REST-offset) GET of one chunk of a tiled plan.
    Partial {
        at: u64,
        server: NodeId,
        path: String,
        offset: u64,
        len: u64,
    },
    /// Abort the n-th submitted transfer shortly after the given second.
    Abort { at: u64, which: usize },
}

struct Chaos {
    mgr: TransferManager,
    client: NodeId,
    lbl: NodeId,
    isi: NodeId,
    ops: Vec<Op>,
    /// Every accepted submission with its payload size.
    tokens: Vec<(TransferToken, u64)>,
    completed: Vec<CompletedTransfer>,
    /// `(delivered, payload)` bytes of every abort that found its transfer.
    aborted: Vec<(u64, u64)>,
    submit_errors: Vec<SubmitError>,
}

const FILES: [(&str, u64); 5] = [
    ("1MB", 1_024_000),
    ("10MB", 10_240_000),
    ("50MB", 51_200_000),
    ("100MB", 102_400_000),
    ("250MB", 256_000_000),
];

impl Agent for Chaos {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, op) in self.ops.iter().enumerate() {
            let at = match op {
                Op::Get { at, .. } | Op::Partial { at, .. } | Op::Abort { at, .. } => *at,
            };
            ctx.set_timer(SimDuration::from_secs(at.max(1)), i as TimerTag);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        if self.mgr.on_timer(ctx, tag) {
            return;
        }
        let (req, bytes) = match self.ops[tag as usize].clone() {
            Op::Get { file, isi, .. } => {
                let (name, bytes) = FILES[file % FILES.len()];
                let server = if isi { self.isi } else { self.lbl };
                let req = TransferRequest {
                    client: self.client,
                    kind: TransferKind::Get {
                        server,
                        path: format!("/home/ftp/vazhkuda/{name}"),
                    },
                    streams: 4,
                    tcp_buffer: 1_000_000,
                    partial: None,
                };
                (req, bytes)
            }
            Op::Partial {
                server,
                path,
                offset,
                len,
                ..
            } => {
                let req = TransferRequest {
                    client: self.client,
                    kind: TransferKind::Get { server, path },
                    streams: 4,
                    tcp_buffer: 1_000_000,
                    partial: Some((offset, len)),
                };
                (req, len)
            }
            Op::Abort { which, .. } => {
                if !self.tokens.is_empty() {
                    let (t, bytes) = self.tokens[which % self.tokens.len()];
                    if let Some(delivered) = self.mgr.abort_exact(ctx, t) {
                        self.aborted.push((delivered, bytes));
                    }
                }
                return;
            }
        };
        match self.mgr.submit(ctx, req) {
            Ok(t) => self.tokens.push((t, bytes)),
            Err(e) => self.submit_errors.push(e),
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
    let cfg = LoadModelConfig {
        diurnal_mean_weight: 4.0,
        walk_sigma: 0.1,
        burst_weight: 2.0,
        ..LoadModelConfig::default()
    };
    (
        Network::with_uniform_load(t, cfg, MasterSeed(8)),
        anl,
        lbl,
        isi,
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (1u64..120, 0usize..5, any::<bool>()).prop_map(|(at, file, isi)| Op::Get { at, file, isi }),
        (1u64..150, any::<usize>()).prop_map(|(at, which)| Op::Abort { at, which }),
    ];
    prop::collection::vec(op, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_resource_leaks_under_chaos(ops in arb_ops()) {
        let (net, anl, lbl, isi) = testnet();
        let mut mgr = TransferManager::new(996_000_000);
        mgr.add_host(anl, "anl.gov", "140.221.65.69");
        mgr.add_server(
            lbl,
            ServerConfig::new("lbl.gov", "131.243.2.11"),
            StorageServer::vintage_with_paper_fileset("lbl"),
        );
        mgr.add_server(
            isi,
            ServerConfig::new("isi.edu", "128.9.160.11"),
            StorageServer::vintage_with_paper_fileset("isi"),
        );
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Chaos {
            mgr,
            client: anl,
            lbl,
            isi,
            ops: ops.clone(),
            tokens: Vec::new(),
            completed: Vec::new(),
            aborted: Vec::new(),
            submit_errors: Vec::new(),
        }));
        // Generous horizon: every non-aborted transfer finishes.
        eng.run_until(SimTime::from_secs(4_000));
        let chaos = eng.agent::<Chaos>(id).expect("registered");

        // Nothing in flight, nothing submitted failed (files all exist).
        prop_assert_eq!(chaos.mgr.inflight_count(), 0);
        prop_assert!(chaos.submit_errors.is_empty(), "{:?}", chaos.submit_errors);
        prop_assert_eq!(eng.network().active_flows(), 0);

        // Every storage access was released.
        for node in [lbl, isi] {
            let storage = chaos.mgr.storage(node).expect("server");
            prop_assert_eq!(storage.disk_population(), 0);
            prop_assert_eq!(storage.open_count(), 0);
        }

        // Completions + aborts <= submissions (a transfer ends once); an
        // abort never reports more bytes than the payload; every
        // completion carries a valid record and positive bandwidth.
        prop_assert!(chaos.completed.len() + chaos.aborted.len() <= chaos.tokens.len());
        for &(delivered, bytes) in &chaos.aborted {
            prop_assert!(delivered <= bytes, "aborted at {} of {} bytes", delivered, bytes);
        }
        for c in &chaos.completed {
            prop_assert!(c.bandwidth_kbs > 0.0);
            prop_assert!(c.record.validate().is_ok(), "{:?}", c.record.validate());
        }

        // Log-record accounting: a completed GET logs exactly one read
        // record at its server; aborted transfers log none.
        let lbl_reads = chaos.mgr.server_log(lbl).expect("lbl").len();
        let isi_reads = chaos.mgr.server_log(isi).expect("isi").len();
        prop_assert_eq!(lbl_reads + isi_reads, chaos.completed.len());
    }
}

proptest! {
    /// Every stripe plan exactly tiles `[0, bytes)`: shares sum to the
    /// file size, no share exceeds its even split by more than one byte,
    /// and laying the chunks end to end leaves no gap or overlap at any
    /// boundary — including zero-size files, `n > bytes`, and sizes the
    /// stripe count does not divide.
    #[test]
    fn stripe_plans_tile_exactly(bytes in 0u64..200_000_000, n in 1usize..16) {
        let shares = stripe_shares(bytes, n);
        prop_assert_eq!(shares.len(), n);
        prop_assert_eq!(shares.iter().sum::<u64>(), bytes);
        let base = bytes / n as u64;
        let mut offset = 0u64;
        for (i, &s) in shares.iter().enumerate() {
            prop_assert!(s == base || s == base + 1, "share {i} = {s}");
            // Chunk i occupies [offset, offset + s): contiguous, in order.
            offset = offset.checked_add(s).expect("no overflow");
        }
        prop_assert_eq!(offset, bytes, "chunks must land exactly on EOF");
        // Remainder bytes go to the leading stripes, so shares never
        // increase along the plan (the off-by-one lives at the front).
        for w in shares.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// Driving a whole tiled plan through real partial GETs moves every
    /// byte exactly once: each chunk's completed transfer reports the
    /// chunk's size, and the completions sum to the file size.
    #[test]
    fn partial_plan_round_trip_moves_every_byte_once(n in 1usize..6, file in 0usize..3) {
        let (name, total) = FILES[file];
        let path = format!("/home/ftp/vazhkuda/{name}");
        let (net, anl, lbl, isi) = testnet();
        let mut mgr = TransferManager::new(996_000_000);
        mgr.add_host(anl, "anl.gov", "140.221.65.69");
        mgr.add_server(
            lbl,
            ServerConfig::new("lbl.gov", "131.243.2.11"),
            StorageServer::vintage_with_paper_fileset("lbl"),
        );
        mgr.add_server(
            isi,
            ServerConfig::new("isi.edu", "128.9.160.11"),
            StorageServer::vintage_with_paper_fileset("isi"),
        );
        // One scripted partial GET per chunk, alternating servers.
        let mut ops = Vec::new();
        let mut offset = 0u64;
        for (i, share) in stripe_shares(total, n).into_iter().enumerate() {
            ops.push(Op::Partial {
                at: 1,
                server: if i % 2 == 0 { lbl } else { isi },
                path: path.clone(),
                offset,
                len: share,
            });
            offset += share;
        }
        let mut eng = Engine::new(net);
        let id = eng.add_agent(Box::new(Chaos {
            mgr,
            client: anl,
            lbl,
            isi,
            ops,
            tokens: Vec::new(),
            completed: Vec::new(),
            aborted: Vec::new(),
            submit_errors: Vec::new(),
        }));
        eng.run_until(SimTime::from_secs(4_000));
        let chaos = eng.agent::<Chaos>(id).expect("registered");
        prop_assert!(chaos.submit_errors.is_empty(), "{:?}", chaos.submit_errors);
        prop_assert_eq!(chaos.completed.len(), n);
        let moved: u64 = chaos.completed.iter().map(|c| c.bytes).sum();
        prop_assert_eq!(moved, total, "tiled plan must move every byte exactly once");
    }
}

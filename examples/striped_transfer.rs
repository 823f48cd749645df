//! Co-allocated multi-replica retrieval: fetch a 500 MB replica from the
//! single best site, then co-allocated across both sites at once —
//! chunks sized by predicted bandwidth, stripes monitored mid-stream —
//! and finally with the best source killed mid-transfer, so the
//! co-allocator's failover re-plans the dead source's remaining bytes
//! onto the survivor without re-fetching a single delivered byte.
//!
//! Run with: `cargo run --release -p wanpred-core --example striped_transfer`

use std::any::Any;

use wanpred_core::gridftp::{TransferEvent, TransferManager};
use wanpred_core::prelude::*;
use wanpred_core::replica::coalloc::{
    CoallocEvent, CoallocRequest, CoallocSource, Coallocator, CompletedCoalloc,
};
use wanpred_core::testbed::build_testbed;
use wanpred_simnet::fault::{FaultAction, FaultSchedule, TimedFault};

/// Predicted per-path bandwidths handed to the co-allocator (KB/s): what
/// a warmed broker would report for these paths under background load.
const LBL_PREDICTED_KBS: f64 = 9_000.0;
const ISI_PREDICTED_KBS: f64 = 7_000.0;

struct Demo {
    mgr: TransferManager,
    co: Coallocator,
    client: NodeId,
    sources: Vec<CoallocSource>,
    k: usize,
    completed: Option<CompletedCoalloc>,
    failed: bool,
    events: Vec<CoallocEvent>,
}

impl Demo {
    fn route_mgr_events(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.mgr.take_events() {
            if let TransferEvent::Failed {
                token,
                delivered_bytes,
                ..
            } = ev
            {
                self.co
                    .on_transfer_failed(ctx, &mut self.mgr, token, delivered_bytes);
            }
        }
        for ev in self.co.take_events() {
            if matches!(ev, CoallocEvent::Failed(_)) {
                self.failed = true;
            }
            self.events.push(ev);
        }
    }
}

impl Agent for Demo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_secs(60), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        if self.mgr.on_timer(ctx, tag) {
            self.route_mgr_events(ctx);
            return;
        }
        if self.co.on_timer(ctx, &mut self.mgr, tag) {
            self.route_mgr_events(ctx);
            return;
        }
        let req = CoallocRequest {
            client: self.client,
            path: "/home/ftp/vazhkuda/500MB".into(),
            sources: self.sources.clone(),
            k: self.k,
            streams: 8,
            tcp_buffer: 1_000_000,
        };
        self.co
            .start(ctx, &mut self.mgr, req)
            .expect("file exists at both sites");
    }
    fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
        if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
            if let Some(cc) = self.co.on_transfer_complete(ctx, &c) {
                self.completed = Some(cc);
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

/// Run one retrieval scenario; `kill_lbl_at` injects a connection reset
/// on the LBL→ANL data link mid-transfer.
fn run(k: usize, kill_lbl_at: Option<u64>) -> Demo {
    let tb = build_testbed(MasterSeed(5), false);
    let mgr = tb.build_manager(996_642_000);
    let sources = vec![
        CoallocSource {
            node: tb.lbl,
            predicted_kbs: LBL_PREDICTED_KBS,
        },
        CoallocSource {
            node: tb.isi,
            predicted_kbs: ISI_PREDICTED_KBS,
        },
    ];
    let (client, lbl_link) = (tb.anl, tb.data_links[0]);
    let mut engine = Engine::new(tb.network);
    if let Some(at) = kill_lbl_at {
        engine.inject_faults(&FaultSchedule::from_events(vec![TimedFault {
            at: SimTime::from_secs(at),
            action: FaultAction::KillFlows(lbl_link),
        }]));
    }
    let id = engine.add_agent(Box::new(Demo {
        mgr,
        co: Coallocator::new(),
        client,
        sources,
        k,
        completed: None,
        failed: false,
        events: Vec::new(),
    }));
    engine.run_until(SimTime::from_secs(3_600));
    std::mem::replace(
        engine.agent_mut::<Demo>(id).expect("agent"),
        Demo {
            mgr: TransferManager::new(0),
            co: Coallocator::new(),
            client,
            sources: Vec::new(),
            k,
            completed: None,
            failed: false,
            events: Vec::new(),
        },
    )
}

fn report(label: &str, demo: &Demo) {
    let Some(cc) = &demo.completed else {
        println!("{label:<30} did not complete");
        return;
    };
    let secs = cc.finished.saturating_since(cc.submitted).as_secs_f64();
    println!(
        "{label:<30} {:>6.1} s   {:>8.0} KB/s   {} stripes, {} rebalances",
        secs, cc.bandwidth_kbs, cc.stripes, cc.rebalances
    );
}

fn main() {
    println!("== 500 MB retrieval, single-best vs co-allocated ==");
    let single = run(1, None);
    let coalloc = run(2, None);
    report("single best (LBL only)", &single);
    report("co-allocated (LBL+ISI)", &coalloc);
    if let (Some(a), Some(b)) = (&single.completed, &coalloc.completed) {
        println!(
            "speedup from co-allocation: {:.2}x",
            b.bandwidth_kbs / a.bandwidth_kbs
        );
    }

    println!("\n== same transfer, LBL killed 75 s in ==");
    let faulted = run(2, Some(75));
    report("co-allocated + mid-kill", &faulted);
    for ev in &faulted.events {
        match ev {
            CoallocEvent::Blacklisted {
                source,
                until,
                strikes,
            } => println!(
                "  source {source:?} blacklisted until t={:.0}s (strike {strikes})",
                until.as_secs_f64()
            ),
            CoallocEvent::Rebalanced {
                from,
                bytes_replanned,
                survivors,
                ..
            } => println!(
                "  rebalanced {:.1} MB away from {from:?} onto {survivors} survivor(s)",
                *bytes_replanned as f64 / 1e6
            ),
            _ => {}
        }
    }
    let cc = faulted.completed.as_ref().expect("failover completed it");
    cc.verify_tiling()
        .expect("covered ranges tile the file exactly — nothing fetched twice");
    println!(
        "  {:.1} MB salvaged from the dead stripe; covered ranges tile [0, {}) exactly",
        cc.bytes_salvaged as f64 / 1e6,
        cc.total_bytes
    );
}

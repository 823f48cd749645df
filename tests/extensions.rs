//! Integration tests for the beyond-the-paper extensions: striped
//! transfers through the campaign substrate and the rotating log writer
//! on real logs.

use wanpred_core::gridftp::TransferKind;
use wanpred_core::logfmt::{RotatingLogWriter, RotationConfig};
use wanpred_core::prelude::*;

fn campaign(days: u64) -> CampaignResult {
    run_campaign(&CampaignConfig {
        seed: MasterSeed(321),
        duration: SimDuration::from_days(days),
        probes: false,
        ..CampaignConfig::august(321)
    })
}

#[test]
fn rotating_writer_handles_a_campaign_log() {
    let r = campaign(5);
    let dir = std::env::temp_dir().join(format!("wanpred-ext-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut w = RotatingLogWriter::open(
        dir.join("transfers.ulm"),
        RotationConfig::with_max_entries(40),
    )
    .unwrap();
    for rec in r.lbl_log.records() {
        w.append(rec).unwrap();
    }
    let n = r.lbl_log.len();
    assert_eq!(w.segments(), n / 40);
    // Full reload equals the original log.
    let all = w.load_all().unwrap();
    assert_eq!(all.len(), n);
    assert_eq!(all.records(), r.lbl_log.records());
    // Active window holds the most recent remainder — the NetLogger
    // restart view a predictor would consume.
    let active = w.load_active().unwrap();
    assert_eq!(active.len(), n % 40);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn striped_get_through_testbed_substrate() {
    use std::any::Any;
    use wanpred_core::gridftp::{CompletedTransfer, TransferManager, TransferRequest};
    use wanpred_core::testbed::build_testbed;

    struct One {
        mgr: TransferManager,
        req: Option<TransferRequest>,
        done: Option<CompletedTransfer>,
    }
    impl Agent for One {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
            if self.mgr.on_timer(ctx, tag) {
                return;
            }
            if let Some(req) = self.req.take() {
                self.mgr.submit(ctx, req).expect("valid striped request");
            }
        }
        fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
            if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
                self.done = Some(c);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let tb = build_testbed(MasterSeed(2), true);
    let mgr = tb.build_manager(996_642_000);
    let req = TransferRequest {
        client: tb.anl,
        kind: TransferKind::StripedGet {
            servers: vec![tb.lbl, tb.isi],
            path: "/home/ftp/vazhkuda/400MB".into(),
        },
        streams: 8,
        tcp_buffer: 1_000_000,
        partial: None,
    };
    let (lbl, isi) = (tb.lbl, tb.isi);
    let mut eng = Engine::new(tb.network);
    let id = eng.add_agent(Box::new(One {
        mgr,
        req: Some(req),
        done: None,
    }));
    eng.run_until(SimTime::from_secs(600));
    let agent = eng.agent::<One>(id).unwrap();
    let done = agent.done.as_ref().expect("striped transfer finished");
    assert_eq!(done.bytes, 409_600_000);
    // On two quiet disjoint 12.5 MB/s paths the aggregate approaches
    // 25 MB/s (minus setup/slow-start).
    assert!(
        done.bandwidth_kbs > 18_000.0,
        "aggregate {} KB/s",
        done.bandwidth_kbs
    );
    // Both stripe servers logged their half.
    assert_eq!(agent.mgr.server_log(lbl).unwrap().len(), 1);
    assert_eq!(agent.mgr.server_log(isi).unwrap().len(), 1);
}

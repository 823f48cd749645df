//! The delivery infrastructure walkthrough (paper §5, Figures 5–6):
//! the information provider's LDIF output, soft-state GRIS→GIIS
//! registration, and LDAP-filter inquiries.
//!
//! Run with: `cargo run --release -p wanpred-core --example information_service`

use std::sync::Arc;

use wanpred_core::infod::{
    run_open_loop, Dn, Giis, GridFtpPerfProvider, Gris, InquiryRequest, InquiryService,
    OpenLoopConfig, ProviderConfig, Registration, Schema, ServeConfig, ShardedServer,
};
use wanpred_core::prelude::*;

fn main() {
    // --- 1. Logs -> provider -> LDIF (Figure 6). -------------------------
    println!("== information provider output (Figure 6 style) ==");
    let cfg = CampaignConfig {
        seed: MasterSeed(3),
        duration: SimDuration::from_days(3),
        probes: false,
        ..CampaignConfig::august(3)
    };
    let result = run_campaign(&cfg);
    let now = cfg.epoch_unix + 3 * 86_400;
    let provider = GridFtpPerfProvider::from_snapshot(
        ProviderConfig::new("dpsslx04.lbl.gov", "131.243.2.11"),
        result.log(Pair::LblAnl).clone(),
    );
    let entries = provider.build_entries(now);
    let schema = Schema::standard();
    for e in &entries {
        schema
            .validate(e)
            .expect("provider output obeys the schema");
        println!("{}", e.to_ldif());
    }

    // --- 2. GRIS -> GIIS soft-state registration + inquiry (Figure 5). --
    println!("== GIIS inquiry ==");
    let mut gris = Gris::new(Dn::parse("o=grid").expect("constant"));
    gris.register_provider(Box::new(provider));
    let gris = Arc::new(gris);
    let giis = Giis::new("grid-index");
    giis.register_service(
        Registration {
            id: "dpsslx04.lbl.gov".into(),
            ttl_secs: 300,
        },
        gris.clone(),
        now,
    );
    let inquiry = "(&(objectclass=GridFTPPerfInfo)(avgrdbandwidth>=1000))";
    let req = InquiryRequest::parse(inquiry, now).expect("well-formed");
    let resp = giis.inquire(&req).expect("giis answers");
    println!(
        "query {inquiry} -> {} entr{} (served by {:?}, staleness {}s)",
        resp.entries.len(),
        if resp.entries.len() == 1 { "y" } else { "ies" },
        resp.provenance.source,
        resp.staleness_secs,
    );
    for h in &resp.entries {
        println!(
            "  cn={} avgrdbandwidth={} predictrdbandwidth={}",
            h.get("cn").unwrap_or("?"),
            h.get("avgrdbandwidth").unwrap_or("?"),
            h.get("predictrdbandwidth").unwrap_or("?"),
        );
    }

    // Registrations are soft state: without renewal they expire.
    let later = now + 301;
    let req = InquiryRequest::parse(inquiry, later).expect("well-formed");
    assert!(giis.inquire(&req).expect("giis answers").entries.is_empty());
    println!("after ttl expiry with no renewal: 0 entries (soft state)");

    // --- 3. The sharded serving layer under open-loop load. --------------
    println!("\n== sharded serving layer ==");
    let server = ShardedServer::new(ServeConfig {
        admission: Some(Default::default()),
        ..ServeConfig::default()
    });
    server.register_site("dpsslx04.lbl.gov", 600, gris, now);
    server.refresh(now);
    let report = run_open_loop(
        &server,
        &OpenLoopConfig {
            seed: 7,
            rate_per_sec: 2_000.0,
            duration_secs: 5,
            start_unix: now,
            filters: vec![inquiry.to_string(), "(objectclass=GridFTPPerfInfo)".into()],
        },
        |sec| server.refresh(sec),
    );
    println!(
        "open-loop 2000/s for 5s: offered {} answered {} shed {} coalesced {}",
        report.offered, report.answered, report.shed, report.coalesced
    );
    println!(
        "sustained {} qps, latency p50/p95/p99 = {}/{}/{} us",
        report.sustained_qps,
        report.percentile_us(50.0),
        report.percentile_us(95.0),
        report.percentile_us(99.0),
    );
}

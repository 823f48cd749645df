//! Figures 1–21 and the §6.2 summary, rendered from `testbed::figures`
//! as the paper's tables.

use std::any::Any;
use std::collections::VecDeque;

use wanpred_core::infod::{GridFtpPerfProvider, ProviderConfig};
use wanpred_core::predict::registry::figure4_table;
use wanpred_core::prelude::*;
use wanpred_core::testbed::{fmt_mape, fmt_pct, summary as summarize, Testbed};

use crate::registry::{august, december};
use crate::{class_arg, Args};

/// Figures 1–2: GridFTP vs NWS probe bandwidth over the August campaign;
/// `--csv` adds every point for plotting (log-scale y, as in the paper).
pub(crate) fn figures_1_2(args: &Args<'_>) -> Result<(), String> {
    let result = august();
    let series = [Pair::IsiAnl, Pair::LblAnl].map(|pair| fig01_02(&result, pair));

    let mut table = Table::new("Figures 1-2: GridFTP vs NWS bandwidth (MB/s)")
        .headers(["pair", "series", "samples", "min", "mean", "max"]);
    for s in &series {
        for (name, points) in [("GridFTP", &s.gridftp), ("NWS", &s.nws)] {
            let vals: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(0.0f64, f64::max);
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            table.row([
                s.pair.clone(),
                name.to_string(),
                vals.len().to_string(),
                format!("{min:.3}"),
                format!("{mean:.3}"),
                format!("{max:.3}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!("paper shape: NWS < 0.3 MB/s and flat; GridFTP ~1.5-10.2 MB/s, highly variable.");

    if args.has("--csv") {
        println!("\npair,series,unix,mbps");
        for s in &series {
            for &(t, v) in &s.gridftp {
                println!("{},GridFTP,{t},{v:.4}", s.pair);
            }
            for &(t, v) in &s.nws {
                println!("{},NWS,{t},{v:.4}", s.pair);
            }
        }
    }
    Ok(())
}

/// A client running GETs one after another, 3 s apart: Figure 3's
/// ladder session and the tuning ablation's single GET.
struct SequentialGets {
    mgr: TransferManager,
    queue: VecDeque<TransferRequest>,
    done: Vec<CompletedTransfer>,
}

impl Agent for SequentialGets {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: TimerTag) {
        if self.mgr.on_timer(ctx, tag) {
            return;
        }
        if let Some(request) = self.queue.pop_front() {
            self.mgr
                .submit(ctx, request)
                .expect("the testbed serves every size the paper uses");
        }
    }
    fn on_flow_complete(&mut self, ctx: &mut Ctx<'_>, done: FlowDone) {
        if let Some(c) = self.mgr.on_flow_complete(ctx, &done) {
            self.done.push(c);
            if !self.queue.is_empty() {
                ctx.set_timer(SimDuration::from_secs(3), 1);
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// GET `files` (paper sizes such as `"250MB"`) from LBL to ANL one after
/// another on `tb` for `secs` of simulated time; returns the LBL server's
/// log and the completed transfers.
pub(crate) fn sequential_gets(
    tb: Testbed,
    epoch_unix: u64,
    streams: u32,
    tcp_buffer: u64,
    files: &[&str],
    secs: u64,
) -> (TransferLog, Vec<CompletedTransfer>) {
    let queue = files.iter().map(|f| TransferRequest {
        client: tb.anl,
        kind: TransferKind::Get {
            server: tb.lbl,
            path: format!("/home/ftp/vazhkuda/{f}"),
        },
        streams,
        tcp_buffer,
        partial: None,
    });
    let mgr = tb.build_manager(epoch_unix);
    let mut engine = Engine::new(tb.network);
    let id = engine.add_agent(Box::new(SequentialGets {
        mgr,
        queue: queue.collect(),
        done: Vec::new(),
    }));
    engine.run_until(SimTime::from_secs(secs));
    let agent = engine
        .agent_mut::<SequentialGets>(id)
        .expect("the agent added above");
    let log = agent.mgr.server_log(tb.lbl).expect("LBL runs a server");
    (log.clone(), std::mem::take(&mut agent.done))
}

/// Figure 3: one controlled LBL → ANL session stepping through the size
/// ladder 10 MB → 1 GB with 8 streams and 1 MB buffers, printed as the
/// paper's table and as raw ULM lines.
pub(crate) fn figure_3(_: &Args<'_>) -> Result<(), String> {
    let ladder = [
        "10MB", "25MB", "50MB", "100MB", "250MB", "500MB", "750MB", "1GB",
    ];
    let tb = build_testbed(MasterSeed(42), false);
    let (log, _) = sequential_gets(tb, 998_988_000, 8, 1_000_000, &ladder, 3_600);

    let mut table = Table::new("Figure 3: sample transfer log (LBL server)").headers([
        "Source IP",
        "File Name",
        "File Size",
        "Volume",
        "StartTime",
        "EndTime",
        "TotalTime",
        "BW (KB/s)",
        "R/W",
        "Streams",
        "TCP-Buffer",
    ]);
    for r in log.records() {
        table.row([
            r.source.clone(),
            r.file_name.clone(),
            r.file_size.to_string(),
            r.volume.clone(),
            r.start_unix.to_string(),
            r.end_unix.to_string(),
            format!("{:.0}", r.total_time_s),
            format!("{:.0}", r.bandwidth_kbs()),
            format!("{:?}", r.operation),
            r.streams.to_string(),
            r.tcp_buffer.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("raw ULM lines:\n{}", log.to_ulm_string());
    println!("paper row for comparison: 10 MB file, 4 s, 2560 KB/s; 1 GB file, 126 s, 8126 KB/s");
    Ok(())
}

/// Figure 4: the context-insensitive predictors, generated from the
/// registry itself so the code and the paper's taxonomy cannot drift.
pub(crate) fn figure_4(_: &Args<'_>) -> Result<(), String> {
    let mut table = Table::new("Figure 4: context-insensitive predictors").headers([
        "",
        "Average based",
        "Median based",
        "ARIMA model",
    ]);
    for (label, avg, med, ar) in figure4_table() {
        table.row([label, avg, med, ar]);
    }
    println!("{}", table.render());

    let predictors = paper_predictors();
    let names: Vec<&str> = predictors.iter().map(|p| p.name()).collect();
    println!(
        "{} predictors registered: {}\nwith file-size classification (+C): {} variants total",
        names.len(),
        names.join(" "),
        2 * names.len()
    );
    Ok(())
}

/// Figure 6: the LDIF the GridFTP performance provider publishes for the
/// ANL client at the LBL GRIS, built from the August campaign's log.
pub(crate) fn figure_6(_: &Args<'_>) -> Result<(), String> {
    let result = august();
    let now = result.epoch_unix + 14 * 86_400;
    let provider = GridFtpPerfProvider::from_snapshot(
        ProviderConfig::new("dpsslx04.lbl.gov", "131.243.2.11"),
        result.log(Pair::LblAnl).clone(),
    );
    let entries = provider.build_entries(now);
    let schema = Schema::standard();
    println!("== Figure 6: GridFTP information provider output ==\n");
    for e in &entries {
        schema
            .validate(e)
            .expect("provider output validates against the published schema");
        println!("{}", e.to_ldif());
    }
    println!(
        "paper fragment for comparison:\n\
         dn: \"140.221.65.69, hostname=dpsslx04.lbl.gov, dc=lbl, dc=gov, o=grid\"\n\
         minrdbandwidth: 1462K  maxrdbandwidth: 12800K  avgrdbandwidth: 6062K\n\
         avgrdbandwidthtenmbrange: 5714K"
    );
    Ok(())
}

/// Figure 7: transfers per pair and class, August and December.
pub(crate) fn figure_7(_: &Args<'_>) -> Result<(), String> {
    let (aug, dec) = (august(), december());

    let mut table = Table::new("Figure 7: transfers per file-size class")
        .headers(["class", "site", "August", "December"]);
    for pair in [Pair::LblAnl, Pair::IsiAnl] {
        let a = fig07(&aug, pair);
        let d = fig07(&dec, pair);
        table.row([
            "All".to_string(),
            pair.label().to_string(),
            a.all.to_string(),
            d.all.to_string(),
        ]);
        for (i, class) in SizeClass::ALL.iter().enumerate() {
            table.row([
                class.label().to_string(),
                pair.label().to_string(),
                a.per_class[i].to_string(),
                d.per_class[i].to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "paper (Figure 7): LBL All 450/365, ISI All 432/334; 10MB class largest,\n\
         1GB class smallest. Counts are random draws from the same process, so\n\
         they match in distribution, not digit-for-digit."
    );
    Ok(())
}

/// Figures 8–11: percent absolute error of the 15 predictors for LBL–ANL
/// and ISI–ANL, one figure per size class; `--class` prints one.
pub(crate) fn figures_8_11(args: &Args<'_>) -> Result<(), String> {
    let classes = match class_arg(args)? {
        Some(class) => vec![class],
        None => SizeClass::ALL.to_vec(),
    };
    let result = august();

    for class in classes {
        let fig_no = 8 + SizeClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("a class");
        let lbl = fig08_11(&result, Pair::LblAnl, class);
        let isi = fig08_11(&result, Pair::IsiAnl, class);
        let mut table = Table::new(format!(
            "Figure {fig_no}: % error, {} ranges (August)",
            class.label()
        ))
        .headers(["predictor", "LBL-ANL", "ISI-ANL", "n(LBL)", "n(ISI)"]);
        for (l, i) in lbl.iter().zip(&isi) {
            table.row([
                l.predictor.clone(),
                fmt_mape(l.mape),
                fmt_mape(i.mape),
                l.answered.to_string(),
                i.answered.to_string(),
            ]);
        }
        println!("{}", table.render());
    }
    println!(
        "paper shape: errors shrink as the class grows; >=100MB classes sit near\n\
         or under ~25% for every technique; the 10MB class is far noisier."
    );
    Ok(())
}

/// Figures 12–13: each base predictor's error with the full history vs
/// same-class history only, for LBL–ANL (12) and ISI–ANL (13).
pub(crate) fn figures_12_13(_: &Args<'_>) -> Result<(), String> {
    let result = august();
    for (fig_no, pair) in [(12, Pair::LblAnl), (13, Pair::IsiAnl)] {
        let cells = fig12_13(&result, pair);
        let mut table = Table::new(format!(
            "Figure {fig_no}: classification impact, {} (August)",
            pair.label()
        ))
        .headers(["predictor", "unclassified %", "classified %", "reduction"]);
        let mut total_red = 0.0;
        let mut n = 0usize;
        for c in &cells {
            let red = match (c.unclassified, c.classified) {
                (Some(u), Some(cl)) => {
                    total_red += u - cl;
                    n += 1;
                    format!("{:+.1}", u - cl)
                }
                _ => "-".to_string(),
            };
            table.row([
                c.predictor.clone(),
                fmt_mape(c.unclassified),
                fmt_mape(c.classified),
                red,
            ]);
        }
        println!("{}", table.render());
        if n > 0 {
            println!(
                "mean error reduction from classification: {:.1} points over {n} predictors\n",
                total_red / n as f64
            );
        }
    }
    println!(
        "paper claim (§4.3): classification improves predictions 5-10% on average;\n\
         our simulated paths show a stronger size-bandwidth correlation, hence a\n\
         larger benefit (see EXPERIMENTS.md)."
    );
    Ok(())
}

/// Figures 14–21: how often each predictor was best / worst, per pair and
/// class; `--site isi` prints 14–17, `--site lbl` 18–21.
pub(crate) fn figures_14_21(args: &Args<'_>) -> Result<(), String> {
    let pairs = match args.get("--site") {
        Some("isi") => vec![Pair::IsiAnl],
        Some("lbl") => vec![Pair::LblAnl],
        Some(other) => return Err(format!("unknown site {other:?}; use isi|lbl")),
        None => vec![Pair::IsiAnl, Pair::LblAnl],
    };
    let result = august();

    for pair in pairs {
        let base_fig = if pair == Pair::IsiAnl { 14 } else { 18 };
        for (k, class) in SizeClass::ALL.iter().enumerate() {
            let rel = fig14_21(&result, pair, *class);
            let targets = rel.first().map(|r| r.targets).unwrap_or(0);
            let mut table = Table::new(format!(
                "Figure {}: relative performance, {} {} ranges ({} targets)",
                base_fig + k,
                pair.label(),
                class.label(),
                targets
            ))
            .headers(["predictor", "best %", "worst %"]);
            for r in &rel {
                table.row([
                    r.name.trim_end_matches("+C").to_string(),
                    fmt_pct(r.best_pct),
                    fmt_pct(r.worst_pct),
                ]);
            }
            println!("{}", table.render());
        }
    }
    println!(
        "paper shape (§6.2): predictors with high best-percentages also rank worst\n\
         often (no uniform winner); median-based predictors vary more."
    );
    Ok(())
}

/// §6.2 headline numbers: "even simple techniques are at worst off by
/// about 25%" and its supporting aggregates, both campaigns and pairs.
pub(crate) fn summary(_: &Args<'_>) -> Result<(), String> {
    let (aug, dec) = (august(), december());

    let mut table = Table::new("Section 6.2 headline summary").headers([
        "campaign",
        "pair",
        "worst MAPE, classes >=100MB",
        "worst MAPE, all",
        "mean classification benefit",
    ]);
    for (name, result) in [("August", &aug), ("December", &dec)] {
        for pair in Pair::ALL {
            let s = summarize(result, pair);
            table.row([
                name.to_string(),
                s.pair.clone(),
                format!("{:.1}%", s.worst_large_class_mape),
                format!("{:.1}%", s.worst_overall_mape),
                format!("{:.1} points", s.mean_classification_benefit),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "paper: \"even simple techniques are at worst off by about 25%\" for the\n\
         per-class (>=100MB) evaluation; small-file classes are noisier, which the\n\
         all-classes column reflects. December behaves like August (§6.2 found no\n\
         statistically significant difference between the two datasets)."
    );
    Ok(())
}

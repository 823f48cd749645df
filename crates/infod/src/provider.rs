//! The GridFTP performance information provider (§5.1, Figure 6).
//!
//! The provider digests a server's transfer log into directory entries:
//! one [`Entry`] per remote endpoint seen in the log, carrying summary
//! statistics (min/avg/max bandwidth, per-size-class averages — the
//! `avgrdbandwidthtenmbrange` style attributes of Figure 6) and
//! predictions of the next transfer's bandwidth per size class. The
//! paper's provider filtered ~700 log entries in 1–2 s on 2001 hardware;
//! the `provider_filter` bench shows this implementation is orders of
//! magnitude inside that.
//!
//! The digest is standing state: a refresh folds in the records appended
//! since the last one rather than reading the log again, so
//! record-to-fresh-prediction costs O(new records).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::RwLock;
use wanpred_logfmt::{Operation, TransferLog, TransferRecord};
use wanpred_predict::prelude::{EvalOptions, PredictionOutcome, SizeClass};
use wanpred_predict::stats;

use crate::gris::{InfoProvider, ProviderError};
use crate::ldif::{Dn, Entry};

/// Configuration of one provider instance.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Server host name (Figure 6 `hostname`).
    pub hostname: String,
    /// Server address (used in DNs alongside the remote `cn`).
    pub address: String,
    /// GridFTP URL (Figure 6 `gridftpurl`).
    pub url: String,
    /// Directory suffix, e.g. `dc=lbl, dc=gov, o=grid`.
    pub suffix: String,
    /// Cache lifetime for produced entries.
    pub ttl_secs: u64,
}

impl ProviderConfig {
    /// Reasonable defaults for a host.
    pub fn new(hostname: impl Into<String>, address: impl Into<String>) -> Self {
        let hostname = hostname.into();
        let domain_dcs: String = hostname
            .split('.')
            .skip(1)
            .map(|c| format!("dc={c}"))
            .collect::<Vec<_>>()
            .join(", ");
        let suffix = if domain_dcs.is_empty() {
            "o=grid".to_string()
        } else {
            format!("{domain_dcs}, o=grid")
        };
        ProviderConfig {
            url: format!("gsiftp://{hostname}:2811"),
            hostname,
            address: address.into(),
            suffix,
            ttl_secs: 30,
        }
    }
}

/// Where the provider reads its log from.
pub enum LogSource {
    /// A fixed snapshot.
    Snapshot(TransferLog),
    /// A live, shared log the transfer service keeps appending to.
    Shared(Arc<RwLock<TransferLog>>),
    /// A ULM file on disk, re-read (through the salvage decoder) on
    /// every refresh. The only source that can *fail*: an unreadable
    /// file surfaces as a [`ProviderError`] and the GRIS degrades to its
    /// last-known-good cache.
    File(PathBuf),
}

/// The provider.
///
/// It keeps a standing digest of its log, so a refresh
/// ([`InfoProvider::provide`]) folds in only the records appended since
/// the previous one and re-renders the entries.
pub struct GridFtpPerfProvider {
    cfg: ProviderConfig,
    source: LogSource,
    digest: LogDigest,
}

impl GridFtpPerfProvider {
    fn new(cfg: ProviderConfig, source: LogSource) -> Self {
        GridFtpPerfProvider {
            cfg,
            source,
            digest: LogDigest::default(),
        }
    }

    /// Build over a log snapshot.
    pub fn from_snapshot(cfg: ProviderConfig, log: TransferLog) -> Self {
        Self::new(cfg, LogSource::Snapshot(log))
    }

    /// Build over a live shared log.
    pub fn from_shared(cfg: ProviderConfig, log: Arc<RwLock<TransferLog>>) -> Self {
        Self::new(cfg, LogSource::Shared(log))
    }

    /// Build over a ULM file re-read on every refresh (fallible).
    pub fn from_file(cfg: ProviderConfig, path: impl Into<PathBuf>) -> Self {
        Self::new(cfg, LogSource::File(path.into()))
    }

    /// Build the entries for the current log contents from scratch,
    /// surfacing log source failures (only a [`LogSource::File`] can
    /// fail). `_now_unix` does not enter into them: everything published
    /// is a count-window statistic of the log itself.
    pub fn try_build_entries(&self, _now_unix: u64) -> Result<Vec<Entry>, ProviderError> {
        self.source.with_log(|log| {
            let mut digest = LogDigest::default();
            digest.catch_up(log);
            digest.render(&self.cfg)
        })
    }

    /// Build the entries for the current log contents (public so callers
    /// can bypass the GRIS cache, e.g. the figure binaries).
    ///
    /// # Panics
    /// If the log source fails — use [`GridFtpPerfProvider::try_build_entries`]
    /// with a [`LogSource::File`] source.
    pub fn build_entries(&self, now_unix: u64) -> Vec<Entry> {
        self.try_build_entries(now_unix)
            .expect("log source unavailable")
    }
}

impl LogSource {
    fn with_log<R>(&self, f: impl FnOnce(&TransferLog) -> R) -> Result<R, ProviderError> {
        match self {
            LogSource::Snapshot(l) => Ok(f(l)),
            LogSource::Shared(l) => Ok(f(&l.read())),
            LogSource::File(p) => {
                let (log, _) = TransferLog::load_ulm_salvaged(p)
                    .map_err(|e| ProviderError::unavailable(p.display().to_string(), e))?;
                Ok(f(&log))
            }
        }
    }
}

impl InfoProvider for GridFtpPerfProvider {
    fn name(&self) -> &str {
        "gridftp-perf"
    }

    fn provide(&mut self, _now_unix: u64) -> Result<Vec<Entry>, ProviderError> {
        let GridFtpPerfProvider {
            cfg,
            source,
            digest,
        } = self;
        source.with_log(|log| {
            digest.catch_up(log);
            digest.render(cfg)
        })
    }

    fn ttl_secs(&self) -> u64 {
        self.cfg.ttl_secs
    }
}

/// How many most-recent reads the published predictor (the paper's
/// `AVG25`, overall and per size class) averages.
const WINDOW: usize = 25;

/// How many most-recent read bandwidths an entry advertises (§5.1).
const RECENT: usize = 5;

/// The last [`WINDOW`] values of a series, oldest first.
#[derive(Default)]
struct LastValues(Vec<f64>);

impl LastValues {
    fn push(&mut self, x: f64) {
        if self.0.len() == WINDOW {
            self.0.remove(0);
        }
        self.0.push(x);
    }

    /// What `AVG25` predicts from the series so far.
    fn mean(&self) -> Option<f64> {
        stats::mean(&self.0)
    }
}

/// Bandwidth summary of one operation's transfers.
struct OpStats {
    count: usize,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl OpStats {
    fn fold(&mut self, bw: f64) {
        self.count += 1;
        self.min = self.min.min(bw);
        self.max = self.max.max(bw);
        self.sum += bw;
    }
}

/// Reads of one size class.
#[derive(Default)]
struct ClassStats {
    count: usize,
    sum: f64,
    last: LastValues,
}

/// Everything an endpoint's entry is rendered from. Each sum runs left
/// to right over the log, the order a pass over the endpoint's records
/// would add them in, so the entry is the same whether the records came
/// in one fold or many.
#[derive(Default)]
struct EndpointDigest {
    transfers: usize,
    newest_end_unix: u64,
    rd: OpStats,
    wr: OpStats,
    last_reads: LastValues,
    /// Per size class, indexed by [`SizeClass::index`].
    classes: [ClassStats; 4],
    /// Running error of the published class predictor: each read past the
    /// training set is scored against what its class's `AVG25` said just
    /// before it arrived, the replay of §6.2 done as the reads come in.
    err_sum: f64,
    err_count: usize,
}

impl EndpointDigest {
    fn fold(&mut self, r: &TransferRecord) {
        self.transfers += 1;
        self.newest_end_unix = self.newest_end_unix.max(r.end_unix);
        let bw = r.bandwidth_kbs();
        match r.operation {
            Operation::Write => self.wr.fold(bw),
            Operation::Read => {
                let class = SizeClass::of_bytes(r.file_size);
                let in_class = &mut self.classes[class.index()];
                if self.rd.count >= EvalOptions::default().training {
                    let scored = in_class.last.mean().and_then(|predicted| {
                        PredictionOutcome {
                            at_unix: r.start_unix,
                            measured: bw,
                            predicted,
                            class,
                        }
                        .abs_pct_error()
                    });
                    if let Some(err) = scored {
                        self.err_sum += err;
                        self.err_count += 1;
                    }
                }
                in_class.count += 1;
                in_class.sum += bw;
                in_class.last.push(bw);
                self.last_reads.push(bw);
                self.rd.fold(bw);
            }
        }
    }

    fn render(&self, cfg: &ProviderConfig, source: &str) -> Entry {
        let kbs = |x: f64| (x.round() as i64).to_string();
        let dn = Dn::parse(&format!(
            "cn={source}, hostname={}, {}",
            cfg.hostname, cfg.suffix
        ))
        .expect("non-empty dn");
        let mut e = Entry::new(dn);
        e.add("objectclass", "GridFTPPerfInfo");
        e.add("cn", source);
        e.add("hostname", &cfg.hostname);
        e.add("gridftpurl", &cfg.url);
        e.add("numtransfers", self.transfers.to_string());
        e.add("lasttransfertime", self.newest_end_unix.to_string());

        for (op, tag) in [(&self.rd, "rd"), (&self.wr, "wr")] {
            e.add(&format!("num{tag}transfers"), op.count.to_string());
            if op.count == 0 {
                continue;
            }
            e.add(&format!("min{tag}bandwidth"), kbs(op.min));
            e.add(&format!("max{tag}bandwidth"), kbs(op.max));
            e.add(&format!("avg{tag}bandwidth"), kbs(op.sum / op.count as f64));
        }

        // §5.1: the provider advertises "a set of recent measurements as
        // well as some summary statistic data" — the last five read
        // bandwidths, multi-valued, newest last.
        let reads = &self.last_reads.0;
        for &bw in &reads[reads.len().saturating_sub(RECENT)..] {
            e.add("recentrdbandwidth", kbs(bw));
        }
        // Per-size-class read averages and predictions (Figure 6's
        // avgrdbandwidthtenmbrange etc.), under the range names of the
        // schema; the prediction is the classified AVG25.
        let ranges = [
            "tenmbrange",
            "hundredmbrange",
            "fivehundredmbrange",
            "onegbrange",
        ];
        for (in_class, range) in self.classes.iter().zip(ranges) {
            if in_class.count == 0 {
                continue;
            }
            e.add(
                &format!("avgrdbandwidth{range}"),
                kbs(in_class.sum / in_class.count as f64),
            );
            if let Some(p) = in_class.last.mean() {
                e.add(&format!("predictrdbandwidth{range}"), kbs(p));
            }
        }
        // Overall prediction: unclassified AVG25.
        if let Some(p) = self.last_reads.mean() {
            e.add("predictrdbandwidth", kbs(p));
        }
        // NWS-style accuracy estimate next to the forecast: the mean
        // absolute percentage error of the published (classified AVG25)
        // predictor over this endpoint's history.
        if self.err_count > 0 {
            e.add("predicterrorpct", kbs(self.err_sum / self.err_count as f64));
        }
        e
    }
}

/// Per-endpoint digests of one log, and how far into it they reach.
#[derive(Default)]
struct LogDigest {
    /// The [`TransferLog::epoch`] the digests were folded from, and how
    /// many of that run's records are in them.
    epoch: Option<u64>,
    cursor: usize,
    endpoints: BTreeMap<String, EndpointDigest>,
}

impl LogDigest {
    /// Fold in what the log holds beyond the cursor. A log in another
    /// epoch — trimmed, flushed, replaced, or re-read from its file — may
    /// have lost records the digests counted, so the fold starts over
    /// from its first record.
    fn catch_up(&mut self, log: &TransferLog) {
        if self.epoch != Some(log.epoch()) {
            *self = LogDigest {
                epoch: Some(log.epoch()),
                ..LogDigest::default()
            };
        }
        for r in &log.records()[self.cursor..] {
            match self.endpoints.get_mut(&r.source) {
                Some(endpoint) => endpoint.fold(r),
                None => self.endpoints.entry(r.source.clone()).or_default().fold(r),
            }
        }
        self.cursor = log.len();
    }

    /// One entry per remote endpoint, in endpoint-name order.
    fn render(&self, cfg: &ProviderConfig) -> Vec<Entry> {
        self.endpoints
            .iter()
            .map(|(source, endpoint)| endpoint.render(cfg, source))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldif::to_ldif_document;
    use crate::schema::Schema;
    use proptest::prelude::*;
    use wanpred_logfmt::TransferRecordBuilder;
    use wanpred_predict::prelude::*;

    fn record(source: &str, size: u64, secs: f64, start: u64, op: Operation) -> TransferRecord {
        TransferRecordBuilder::new()
            .source(source)
            .host("dpsslx04.lbl.gov")
            .file_name("/home/ftp/f")
            .file_size(size)
            .volume("/home/ftp")
            .start_unix(start)
            .end_unix(start + secs as u64)
            .total_time_s(secs)
            .streams(8)
            .tcp_buffer(1_000_000)
            .operation(op)
            .build()
            .unwrap()
    }

    /// The slice-based entry builder the provider shipped before the
    /// standing digest, kept as the oracle: per endpoint it filters the
    /// whole log and replays the read history from the start.
    fn entry_for_source(
        cfg: &ProviderConfig,
        log: &TransferLog,
        source: &str,
        now_unix: u64,
    ) -> Entry {
        let records: Vec<&TransferRecord> = log
            .records()
            .iter()
            .filter(|r| r.source == source)
            .collect();

        let dn = Dn::parse(&format!(
            "cn={source}, hostname={}, {}",
            cfg.hostname, cfg.suffix
        ))
        .expect("non-empty dn");
        let mut e = Entry::new(dn);
        e.add("objectclass", "GridFTPPerfInfo");
        e.add("cn", source);
        e.add("hostname", &cfg.hostname);
        e.add("gridftpurl", &cfg.url);
        e.add("numtransfers", records.len().to_string());

        for (op, tag) in [(Operation::Read, "rd"), (Operation::Write, "wr")] {
            let bw: Vec<f64> = records
                .iter()
                .filter(|r| r.operation == op)
                .map(|r| r.bandwidth_kbs())
                .collect();
            e.add(&format!("num{tag}transfers"), bw.len().to_string());
            if bw.is_empty() {
                continue;
            }
            let min = bw.iter().copied().fold(f64::INFINITY, f64::min);
            let max = bw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let avg = bw.iter().sum::<f64>() / bw.len() as f64;
            e.add(
                &format!("min{tag}bandwidth"),
                format!("{}", min.round() as i64),
            );
            e.add(
                &format!("max{tag}bandwidth"),
                format!("{}", max.round() as i64),
            );
            e.add(
                &format!("avg{tag}bandwidth"),
                format!("{}", avg.round() as i64),
            );
        }

        // Per-size-class read averages and predictions (Figure 6's
        // avgrdbandwidthtenmbrange etc.). The prediction attribute uses
        // the classified AVG25 predictor; class attributes use the range
        // names of the schema.
        let obs: Vec<Observation> = records
            .iter()
            .filter(|r| r.operation == Operation::Read)
            .map(|r| Observation::from_record(r))
            .collect();
        if let Some(last) = records.iter().map(|r| r.end_unix).max() {
            e.add("lasttransfertime", last.to_string());
        }
        // §5.1: the provider advertises "a set of recent measurements as
        // well as some summary statistic data" — the last five read
        // bandwidths, multi-valued, newest last.
        let recent_start = obs.len().saturating_sub(5);
        for o in &obs[recent_start..] {
            e.add(
                "recentrdbandwidth",
                format!("{}", o.bandwidth_kbs.round() as i64),
            );
        }
        let predictor = NamedPredictor::new(Box::new(MeanPredictor::new(Window::LastN(25))), true);
        for (class, range) in [
            (SizeClass::C10MB, "tenmbrange"),
            (SizeClass::C100MB, "hundredmbrange"),
            (SizeClass::C500MB, "fivehundredmbrange"),
            (SizeClass::C1GB, "onegbrange"),
        ] {
            let class_obs = filter_class(&obs, class);
            if class_obs.is_empty() {
                continue;
            }
            let avg =
                class_obs.iter().map(|o| o.bandwidth_kbs).sum::<f64>() / class_obs.len() as f64;
            e.add(
                &format!("avgrdbandwidth{range}"),
                format!("{}", avg.round() as i64),
            );
            let (lo, _) = class.byte_range();
            // Representative size strictly inside the class.
            let rep = lo + PAPER_MB;
            if let Some(p) = predictor.predict(&obs, now_unix, rep) {
                e.add(
                    &format!("predictrdbandwidth{range}"),
                    format!("{}", p.round() as i64),
                );
            }
        }
        // Overall prediction: unclassified AVG25.
        let overall = MeanPredictor::new(Window::LastN(25));
        if let Some(p) = overall.predict(&obs, now_unix) {
            e.add("predictrdbandwidth", format!("{}", p.round() as i64));
        }
        // NWS-style accuracy estimate next to the forecast: the running
        // mean absolute percentage error of the published (classified
        // AVG25) predictor replayed over this endpoint's history (the
        // reference replay of §6.2: every read past the training set is
        // predicted from the full slice before it).
        let pairs: Vec<(f64, f64)> = (EvalOptions::default().training..obs.len())
            .filter_map(|i| {
                let target = &obs[i];
                predictor
                    .predict(&obs[..i], target.at_unix, target.file_size)
                    .map(|p| (target.bandwidth_kbs, p))
            })
            .collect();
        if let Some(m) = stats::mape(&pairs) {
            e.add("predicterrorpct", format!("{}", m.round() as i64));
        }
        e
    }

    fn oracle_entries(cfg: &ProviderConfig, log: &TransferLog, now_unix: u64) -> Vec<Entry> {
        let mut sources: Vec<&str> = log.records().iter().map(|r| r.source.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        sources
            .iter()
            .map(|src| entry_for_source(cfg, log, src, now_unix))
            .collect()
    }

    fn sample_log() -> TransferLog {
        let mut log = TransferLog::new();
        // ANL client: two 10MB-class reads at 2000/4000 KB/s, one 1GB-class
        // read at 8000 KB/s, one write.
        log.append(record(
            "140.221.65.69",
            10_240_000,
            5.12,
            1_000,
            Operation::Read,
        ));
        log.append(record(
            "140.221.65.69",
            10_240_000,
            2.56,
            2_000,
            Operation::Read,
        ));
        log.append(record(
            "140.221.65.69",
            1_024_000_000,
            128.0,
            3_000,
            Operation::Read,
        ));
        log.append(record(
            "140.221.65.69",
            10_240_000,
            4.0,
            4_000,
            Operation::Write,
        ));
        // A second client.
        log.append(record(
            "128.9.160.11",
            10_240_000,
            8.0,
            5_000,
            Operation::Read,
        ));
        log
    }

    fn provider() -> GridFtpPerfProvider {
        GridFtpPerfProvider::from_snapshot(
            ProviderConfig::new("dpsslx04.lbl.gov", "131.243.2.11"),
            sample_log(),
        )
    }

    #[test]
    fn one_entry_per_remote_endpoint() {
        let entries = provider().build_entries(10_000);
        assert_eq!(entries.len(), 2);
        let anl = entries
            .iter()
            .find(|e| e.get("cn") == Some("140.221.65.69"))
            .unwrap();
        assert_eq!(anl.get("numtransfers"), Some("4"));
        assert_eq!(anl.get("numrdtransfers"), Some("3"));
        assert_eq!(anl.get("numwrtransfers"), Some("1"));
    }

    #[test]
    fn figure6_statistics_present_and_correct() {
        let entries = provider().build_entries(10_000);
        let anl = entries
            .iter()
            .find(|e| e.get("cn") == Some("140.221.65.69"))
            .unwrap();
        // Read bandwidths: 2000, 4000, 8000 KB/s.
        assert_eq!(anl.get("minrdbandwidth"), Some("2000"));
        assert_eq!(anl.get("maxrdbandwidth"), Some("8000"));
        assert_eq!(anl.get("avgrdbandwidth"), Some("4667"));
        // Class averages: 10MB class = (2000+4000)/2; 1GB class = 8000.
        assert_eq!(anl.get("avgrdbandwidthtenmbrange"), Some("3000"));
        assert_eq!(anl.get("avgrdbandwidthonegbrange"), Some("8000"));
        assert!(anl.get("avgrdbandwidthhundredmbrange").is_none());
        // Predictions exist for populated classes.
        assert_eq!(anl.get("predictrdbandwidthtenmbrange"), Some("3000"));
        assert_eq!(anl.get("predictrdbandwidth"), Some("4667"));
        assert_eq!(
            anl.get("gridftpurl"),
            Some("gsiftp://dpsslx04.lbl.gov:2811")
        );
    }

    #[test]
    fn entries_validate_against_schema() {
        let schema = Schema::standard();
        for e in provider().build_entries(10_000) {
            assert_eq!(schema.validate(&e), Ok(()), "{}", e.to_ldif());
        }
    }

    #[test]
    fn dn_matches_figure6_shape() {
        let entries = provider().build_entries(0);
        let dn = entries[0].dn.as_ref().unwrap().as_str();
        assert!(dn.contains("hostname=dpsslx04.lbl.gov"), "{dn}");
        assert!(dn.contains("dc=lbl"), "{dn}");
        assert!(dn.contains("dc=gov"), "{dn}");
        assert!(dn.ends_with("o=grid"), "{dn}");
    }

    #[test]
    fn shared_log_sees_appends() {
        let shared = Arc::new(RwLock::new(TransferLog::new()));
        let mut p = GridFtpPerfProvider::from_shared(
            ProviderConfig::new("h.x.y", "1.2.3.4"),
            shared.clone(),
        );
        assert!(p.build_entries(0).is_empty());
        assert!(p.provide(0).unwrap().is_empty());
        shared
            .write()
            .append(record("9.9.9.9", 10_240_000, 4.0, 1, Operation::Read));
        let entries = p.build_entries(10);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("cn"), Some("9.9.9.9"));
        assert_eq!(p.provide(10).unwrap(), entries);

        // Appends reach the standing state one record at a time...
        for i in 0..3 {
            shared
                .write()
                .append(record("9.9.9.9", 10_240_000, 2.0, 10 + i, Operation::Read));
            let entries = p.provide(20).unwrap();
            assert_eq!(entries[0].get("numtransfers"), Some(&*(i + 2).to_string()));
            assert_eq!(entries, p.build_entries(20));
        }
        // ...a trim takes the dropped records back out of every count...
        shared.write().truncate_front(2);
        let entries = p.provide(30).unwrap();
        assert_eq!(entries[0].get("numtransfers"), Some("2"));
        assert_eq!(entries[0].get("minrdbandwidth"), Some("5120"));
        // ...and a replaced log is read for what it holds, even at the
        // length the old one had.
        *shared.write() = [
            record("8.8.8.8", 10_240_000, 4.0, 1, Operation::Write),
            record("8.8.8.8", 10_240_000, 4.0, 2, Operation::Write),
        ]
        .into_iter()
        .collect();
        let entries = p.provide(40).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("cn"), Some("8.8.8.8"));
        assert_eq!(entries[0].get("numwrtransfers"), Some("2"));
        assert_eq!(entries, p.build_entries(40));
    }

    #[test]
    fn recent_measurements_advertised_newest_last() {
        let entries = provider().build_entries(10_000);
        let anl = entries
            .iter()
            .find(|e| e.get("cn") == Some("140.221.65.69"))
            .unwrap();
        // Three reads at 2000, 4000, 8000 KB/s in time order.
        assert_eq!(
            anl.get_all("recentrdbandwidth"),
            &["2000".to_string(), "4000".to_string(), "8000".to_string()]
        );
    }

    #[test]
    fn error_estimate_published_with_enough_history() {
        // 30 identical-class transfers: AVG25+C replay yields an error
        // estimate; with constant bandwidth the error is ~0.
        let mut log = TransferLog::new();
        for i in 0..30u64 {
            log.append(record(
                "1.2.3.4",
                102_400_000,
                12.8,
                1_000 + i * 600,
                Operation::Read,
            ));
        }
        let p = GridFtpPerfProvider::from_snapshot(ProviderConfig::new("h.x.y", "0.0.0.0"), log);
        let entries = p.build_entries(100_000);
        let err: f64 = entries[0].get("predicterrorpct").unwrap().parse().unwrap();
        assert!(err < 1.0, "constant series predicts exactly: {err}");
        // The sample log (5 records) is below the 15-value training set:
        // no estimate is published.
        let small = provider().build_entries(10_000);
        assert!(small[0].get("predicterrorpct").is_none());
    }

    #[test]
    fn file_source_is_fallible_and_salvages() {
        let dir = std::env::temp_dir().join(format!("wanpred-provider-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("transfers.ulm");
        let p = GridFtpPerfProvider::from_file(ProviderConfig::new("h.x.y", "1.2.3.4"), &path);
        // Missing file: the provider fails rather than inventing data.
        assert!(p.try_build_entries(0).is_err());
        // A damaged file still yields the intact records.
        let mut doc = sample_log().to_ulm_string_checksummed();
        doc.push_str("torn gar\n");
        std::fs::write(&path, doc).unwrap();
        let entries = p.try_build_entries(10_000).unwrap();
        assert_eq!(entries.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_produces_no_entries() {
        let p = GridFtpPerfProvider::from_snapshot(
            ProviderConfig::new("h.x.y", "1.2.3.4"),
            TransferLog::new(),
        );
        assert!(p.build_entries(0).is_empty());
    }

    /// One step of a live log's life.
    #[derive(Debug, Clone)]
    enum LogOp {
        Append(usize),
        TruncateFront(usize),
        Flush,
        /// Swap in a separately built log of this length.
        Replace(usize),
    }

    fn arb_op() -> impl Strategy<Value = LogOp> {
        prop_oneof![
            (0usize..40).prop_map(LogOp::Append),
            (0usize..40).prop_map(LogOp::Append),
            (0usize..60).prop_map(LogOp::TruncateFront),
            Just(LogOp::Flush),
            (0usize..60).prop_map(LogOp::Replace),
        ]
    }

    /// A small pool the writer cycles through, like a server whose
    /// clients repeat themselves: three endpoints (one of which may well
    /// only ever write), every size class, and dead (zero-bandwidth)
    /// transfers. Cycling makes many positions of the log hold equal
    /// records, which is what a cursor that compared records would trip
    /// over.
    fn arb_pool() -> impl Strategy<Value = Vec<TransferRecord>> {
        let sizes_mb = [0u64, 2, 25, 100, 400, 1000];
        prop::collection::vec((0usize..3, 0usize..6, 0u8..8, 1u32..400, 0u8..4), 1..7).prop_map(
            move |raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (src, size, dead, decisecs, op))| {
                        let secs = if dead == 0 {
                            0.0
                        } else {
                            decisecs as f64 / 10.0
                        };
                        let mut r = record(
                            ["10.0.0.1", "10.0.0.2", "10.0.0.3"][src],
                            sizes_mb[size] * PAPER_MB,
                            secs,
                            1_000 + i as u64 * 7,
                            if op == 0 {
                                Operation::Write
                            } else {
                                Operation::Read
                            },
                        );
                        r.total_time_s = secs;
                        r
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever happens to the log between refreshes, the standing
        /// provider publishes byte for byte what the oracle makes of the
        /// log as it stands, and a file-backed provider over the same
        /// records agrees with the oracle on what it re-read.
        #[test]
        fn standing_provider_matches_oracle_after_every_step(
            pool in arb_pool(),
            ops in prop::collection::vec(arb_op(), 1..14),
        ) {
            let cfg = ProviderConfig::new("h.x.y", "1.2.3.4");
            let mut next = 0usize;
            let mut cycle = |n: usize| -> Vec<TransferRecord> {
                let out = (next..next + n).map(|i| pool[i % pool.len()].clone()).collect();
                next += n;
                out
            };
            let shared = Arc::new(RwLock::new(TransferLog::new()));
            let mut live = GridFtpPerfProvider::from_shared(cfg.clone(), shared.clone());
            let dir = std::env::temp_dir().join(format!(
                "wanpred-provider-prop-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("transfers.ulm");
            let mut filed = GridFtpPerfProvider::from_file(cfg.clone(), &path);

            for (step, op) in ops.iter().enumerate() {
                match *op {
                    LogOp::Append(n) => {
                        let batch = cycle(n);
                        let mut log = shared.write();
                        for r in batch {
                            log.append(r);
                        }
                    }
                    LogOp::TruncateFront(n) => shared.write().truncate_front(n),
                    LogOp::Flush => {
                        shared.write().flush();
                    }
                    LogOp::Replace(n) => *shared.write() = cycle(n).into_iter().collect(),
                }
                let now = 5_000 + step as u64;
                let want = to_ldif_document(&oracle_entries(&cfg, &shared.read(), now));
                let got = to_ldif_document(&live.provide(now).unwrap());
                prop_assert_eq!(&got, &want, "step {} ({:?})", step, op);
                prop_assert_eq!(&to_ldif_document(&live.build_entries(now)), &want);

                std::fs::write(&path, shared.read().to_ulm_string_checksummed()).unwrap();
                let (reread, _) = TransferLog::load_ulm_salvaged(&path).unwrap();
                prop_assert_eq!(
                    to_ldif_document(&filed.provide(now).unwrap()),
                    to_ldif_document(&oracle_entries(&cfg, &reread, now))
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

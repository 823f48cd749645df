//! The production query plane: a sharded, lock-minimized serving layer
//! in front of GRIS/GIIS.
//!
//! The paper's delivery path (§5) must answer *millions* of inquiries;
//! the direct path serializes every inquiry behind one lock and runs
//! provider refreshes inline. This module splits the read path from the
//! refresh path:
//!
//! * **Refresh path** — [`ShardedServer::refresh`] walks the registered
//!   sites, calls [`SnapshotSource::materialize`] on each live one, and
//!   swaps an immutable `ShardSnapshot` (an `Arc` behind a short
//!   `RwLock` hold) per shard. A site whose soft-state registration
//!   lapsed keeps its last materialized view, aging under the
//!   `stalenesssecs` machinery — serve stale, never block.
//! * **Read path** — [`InquiryService::inquire`] clones each shard's
//!   current snapshot `Arc` (one brief read-lock each), evaluates the
//!   filter against the immutable snapshot, and stamps degraded entries
//!   at inquiry time. Readers never contend with refreshes or with each
//!   other beyond the Arc clone.
//!
//! Because a snapshot is cut atomically per shard, every entry a reader
//! sees from one shard comes from a single refresh generation — the
//! mid-refresh torn read the direct path allows (a `stalenesssecs=*`
//! filter observing two generations at once) is structurally impossible.
//!
//! A per-shard TTL **prediction cache** memoizes filter evaluations
//! (keyed by the filter's canonical rendering); it is flushed whenever
//! the shard's snapshot swaps, and a cached answer that contains stamped
//! entries is only reused at the exact inquiry second it was computed
//! for, so `stalenesssecs` values never drift. **Admission control**
//! models an M/M/c queue on deterministic sim time: past the configured
//! queue depth an inquiry is shed with a typed
//! [`Overloaded`](crate::Error::Overloaded) rejection, and identical
//! in-flight inquiries coalesce onto one virtual service completion.

pub mod loadgen;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use wanpred_obs::{names, ObsSink};

use crate::error::{Error, InquiryError};
use crate::gris::{MaterializedEntry, SnapshotSource};
use crate::ldif::Entry;
use crate::service::{
    CacheStatus, InquiryRequest, InquiryResponse, InquiryService, Provenance, ServedBy,
};

/// Splitmix64 avalanche: the workspace's deterministic hashing/stream
/// primitive (same constants as the simulator's seed derivation).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A uniform draw in (0, 1] from a hashed word (never exactly 0, so it
/// is safe under `ln`).
pub(crate) fn unit_open01(h: u64) -> f64 {
    (((h >> 11) + 1) as f64) / (1u64 << 53) as f64
}

/// A deterministic exponential sample with the given mean, microseconds,
/// at least 1.
pub(crate) fn exp_us(mean_us: u64, h: u64) -> u64 {
    let u = unit_open01(h);
    ((-(u.ln()) * mean_us as f64).round() as u64).max(1)
}

/// FNV-1a shard assignment for a site id.
fn shard_of(site: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Admission-control configuration: a deterministic M/M/c service model
/// on the inquiry arrival clock.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Virtual servers (the `c` of M/M/c).
    pub servers: usize,
    /// Mean virtual service time, microseconds (exponentially
    /// distributed, deterministically sampled from `seed`).
    pub mean_service_us: u64,
    /// Inquiries allowed to wait; an arrival finding this many already
    /// queued is shed with [`Error::Overloaded`].
    pub max_queue: usize,
    /// Coalesce an inquiry whose filter is identical to one already in
    /// flight onto that inquiry's completion (no extra service demand).
    pub coalesce: bool,
    /// Seed for the service-time stream.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            servers: 4,
            mean_service_us: 500,
            max_queue: 64,
            coalesce: true,
            seed: 0,
        }
    }
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Snapshot shards; sites hash onto shards by id.
    pub shards: usize,
    /// Seconds a cached filter evaluation with *no* stamped entries may
    /// be reused. (Stamped answers are only reused at the exact second
    /// they were computed for, so `stalenesssecs` never drifts.)
    pub cache_ttl_secs: u64,
    /// Cached filter evaluations kept per shard (FIFO eviction).
    pub cache_capacity: usize,
    /// Admission control; `None` admits everything with no latency model.
    pub admission: Option<AdmissionConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            cache_ttl_secs: 5,
            cache_capacity: 256,
            admission: None,
        }
    }
}

/// One site's materialized entries inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SiteView {
    site: String,
    entries: Vec<MaterializedEntry>,
}

/// An immutable per-shard snapshot: everything a reader needs, cut in
/// one refresh generation.
#[derive(Debug, Default)]
struct ShardSnapshot {
    /// Monotone per-shard generation; bumps only when content changes.
    generation: u64,
    sites: Vec<SiteView>,
}

impl ShardSnapshot {
    fn is_empty(&self) -> bool {
        self.sites.iter().all(|s| s.entries.is_empty())
    }
}

/// A memoized filter evaluation against one shard snapshot.
struct CachedAnswer {
    /// The inquiry second the stamps were computed at.
    stamped_now: u64,
    /// Whether any entry carries a staleness stamp (restricts reuse).
    has_stamps: bool,
    entries: Vec<Entry>,
    staleness: u64,
}

#[derive(Default)]
struct FilterCache {
    answers: BTreeMap<String, CachedAnswer>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
}

impl FilterCache {
    fn clear(&mut self) {
        self.answers.clear();
        self.order.clear();
    }
}

struct Shard {
    current: RwLock<Arc<ShardSnapshot>>,
    cache: Mutex<FilterCache>,
}

/// A registered snapshot source plus its soft-state lease and the last
/// view it materialized (carried forward, aging, after lease expiry).
struct SiteHandle {
    source: Arc<dyn SnapshotSource>,
    ttl_secs: u64,
    last_seen: u64,
    /// `(entries, materialized_at)` from the last refresh that reached
    /// the source.
    last_view: Option<(Vec<MaterializedEntry>, u64)>,
}

/// The outcome of the virtual admission queue for one arrival.
enum Admission {
    Admitted {
        wait_us: u64,
        sojourn_us: u64,
        coalesced: bool,
    },
    Shed {
        queued: usize,
        limit: usize,
    },
}

/// A deterministic M/M/c virtual queue on the arrival clock.
struct VirtualQueue {
    cfg: AdmissionConfig,
    /// Per-server time at which it next becomes free.
    free_at: Vec<u64>,
    /// Start times of admitted inquiries not yet started at the head of
    /// the clock (monotone; drained as the clock advances).
    waiting: VecDeque<u64>,
    /// Filter → finish time, for coalescing identical in-flight
    /// inquiries.
    inflight: BTreeMap<String, u64>,
    /// Service-time stream position.
    seq: u64,
}

impl VirtualQueue {
    fn new(cfg: AdmissionConfig) -> Self {
        let servers = cfg.servers.max(1);
        VirtualQueue {
            cfg,
            free_at: vec![0; servers],
            waiting: VecDeque::new(),
            inflight: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Process one arrival. `arrival_us` must be nondecreasing across
    /// calls (the open-loop generator guarantees this).
    fn offer(&mut self, arrival_us: u64, key: &str) -> Admission {
        // Advance the clock: everything that started by now is no longer
        // waiting, and finished inquiries leave the coalescing table.
        while self.waiting.front().is_some_and(|&s| s <= arrival_us) {
            self.waiting.pop_front();
        }
        self.inflight.retain(|_, fin| *fin > arrival_us);

        if self.cfg.coalesce {
            if let Some(&fin) = self.inflight.get(key) {
                return Admission::Admitted {
                    wait_us: 0,
                    sojourn_us: fin - arrival_us,
                    coalesced: true,
                };
            }
        }

        // Earliest-free server, lowest index on ties.
        let (i, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("at least one server");

        // An arrival that cannot start immediately joins the wait queue —
        // unless the queue is already at its configured depth, in which
        // case it is shed (typed rejection, never a stall).
        if free > arrival_us && self.waiting.len() >= self.cfg.max_queue {
            return Admission::Shed {
                queued: self.waiting.len(),
                limit: self.cfg.max_queue,
            };
        }
        let start = arrival_us.max(free);
        let service = exp_us(
            self.cfg.mean_service_us,
            splitmix64(self.cfg.seed ^ self.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        self.seq += 1;
        let finish = start + service;
        self.free_at[i] = finish;
        if start > arrival_us {
            self.waiting.push_back(start);
        }
        if self.cfg.coalesce {
            self.inflight.insert(key.to_string(), finish);
        }
        Admission::Admitted {
            wait_us: start - arrival_us,
            sojourn_us: finish - arrival_us,
            coalesced: false,
        }
    }
}

/// The sharded serving layer. See the module docs for the architecture.
pub struct ShardedServer {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    sites: Mutex<BTreeMap<String, SiteHandle>>,
    queue: Option<Mutex<VirtualQueue>>,
    obs: ObsSink,
}

impl ShardedServer {
    /// Create a server with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        let n = cfg.shards.max(1);
        let shards = (0..n)
            .map(|_| Shard {
                current: RwLock::new(Arc::new(ShardSnapshot::default())),
                cache: Mutex::new(FilterCache::default()),
            })
            .collect();
        let queue = cfg
            .admission
            .clone()
            .map(|a| Mutex::new(VirtualQueue::new(a)));
        ShardedServer {
            cfg,
            shards,
            sites: Mutex::new(BTreeMap::new()),
            queue,
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink: serving counters, cache traffic,
    /// shed/coalesce decisions, and modeled latency histograms are
    /// emitted through it.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Number of snapshot shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Register (or renew) a site's snapshot source under a soft-state
    /// lease of `ttl_secs`. The next [`refresh`](Self::refresh)
    /// materializes it.
    pub fn register_site(
        &self,
        id: impl Into<String>,
        ttl_secs: u64,
        source: Arc<dyn SnapshotSource>,
        now_unix: u64,
    ) {
        let id = id.into();
        let mut sites = self.sites.lock();
        match sites.get_mut(&id) {
            Some(h) => {
                h.source = source;
                h.ttl_secs = ttl_secs;
                h.last_seen = now_unix;
            }
            None => {
                sites.insert(
                    id,
                    SiteHandle {
                        source,
                        ttl_secs,
                        last_seen: now_unix,
                        last_view: None,
                    },
                );
            }
        }
    }

    /// Renew a site's lease without re-sending the source. Returns
    /// `false` if the site was never registered.
    pub fn renew_site(&self, id: &str, now_unix: u64) -> bool {
        match self.sites.lock().get_mut(id) {
            Some(h) => {
                h.last_seen = now_unix;
                true
            }
            None => false,
        }
    }

    /// Ids of sites whose lease is current at `now_unix`.
    pub fn live_sites(&self, now_unix: u64) -> Vec<String> {
        self.sites
            .lock()
            .iter()
            .filter(|(_, h)| now_unix.saturating_sub(h.last_seen) < h.ttl_secs)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// A shard's current snapshot generation (diagnostics and tests).
    pub fn shard_generation(&self, shard: usize) -> u64 {
        self.shards[shard].current.read().generation
    }

    /// The refresh path: materialize every live site, carry dead sites'
    /// last views forward as aging stale data, and swap any shard whose
    /// content changed. Called by the driving loop (deterministically,
    /// on sim time) or by a background refresher thread; readers are
    /// never blocked for longer than one `Arc` store.
    pub fn refresh(&self, now_unix: u64) {
        self.obs.inc(names::INFOD_SERVE_REFRESHES);
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<SiteView>> = (0..n).map(|_| Vec::new()).collect();
        let mut live = 0u64;
        {
            let mut sites = self.sites.lock();
            for (id, h) in sites.iter_mut() {
                let alive = now_unix.saturating_sub(h.last_seen) < h.ttl_secs;
                let entries = if alive {
                    live += 1;
                    let m = h.source.materialize(now_unix);
                    h.last_view = Some((m.entries.clone(), now_unix));
                    m.entries
                } else {
                    // Soft-state lapsed: the refresher stops reaching the
                    // source and the last view ages under the staleness
                    // machinery — served stale, never dropped mid-flight.
                    match &h.last_view {
                        Some((entries, at)) => entries
                            .iter()
                            .map(|me| MaterializedEntry {
                                entry: me.entry.clone(),
                                last_good_unix: Some(me.last_good_unix.unwrap_or(*at)),
                            })
                            .collect(),
                        None => Vec::new(),
                    }
                };
                per_shard[shard_of(id, n)].push(SiteView {
                    site: id.clone(),
                    entries,
                });
            }
        }
        self.obs.gauge(names::INFOD_SERVE_SITES, live as f64);
        for (shard, sites) in self.shards.iter().zip(per_shard) {
            let unchanged = {
                let cur = shard.current.read();
                cur.sites == sites
            };
            if unchanged {
                continue;
            }
            let mut cur = shard.current.write();
            let next = Arc::new(ShardSnapshot {
                generation: cur.generation + 1,
                sites,
            });
            *cur = next;
            drop(cur);
            // The snapshot changed: memoized evaluations are stale.
            shard.cache.lock().clear();
            self.obs.inc(names::INFOD_SERVE_SNAPSHOT_SWAPS);
        }
    }

    /// Evaluate the filter against one shard, through its cache.
    fn serve_shard(
        &self,
        shard: &Shard,
        key: &str,
        req: &InquiryRequest,
    ) -> Option<(Vec<Entry>, u64, u64, bool)> {
        let snap = shard.current.read().clone();
        if snap.is_empty() {
            return None;
        }
        let mut cache = shard.cache.lock();
        if let Some(hit) = cache.answers.get(key) {
            // A stamped answer is pinned to its inquiry second; an
            // unstamped one may be reused within the cache TTL (entries
            // cannot change under a constant generation).
            let reusable = if hit.has_stamps {
                hit.stamped_now == req.now_unix
            } else {
                req.now_unix >= hit.stamped_now
                    && req.now_unix - hit.stamped_now <= self.cfg.cache_ttl_secs
            };
            if reusable {
                self.obs.inc(names::INFOD_SERVE_CACHE_HITS);
                return Some((hit.entries.clone(), hit.staleness, snap.generation, true));
            }
        }
        self.obs.inc(names::INFOD_SERVE_CACHE_MISSES);
        let mut entries = Vec::new();
        let mut staleness = 0u64;
        let mut has_stamps = false;
        for site in &snap.sites {
            for me in &site.entries {
                let (e, age) = me.stamped(req.now_unix);
                if me.last_good_unix.is_some() {
                    has_stamps = true;
                }
                if req.filter.matches(&e) {
                    staleness = staleness.max(age);
                    entries.push(e);
                }
            }
        }
        if cache.answers.len() >= self.cfg.cache_capacity.max(1) {
            if let Some(evict) = cache.order.pop_front() {
                cache.answers.remove(&evict);
            }
        }
        if cache
            .answers
            .insert(
                key.to_string(),
                CachedAnswer {
                    stamped_now: req.now_unix,
                    has_stamps,
                    entries: entries.clone(),
                    staleness,
                },
            )
            .is_none()
        {
            cache.order.push_back(key.to_string());
        }
        Some((entries, staleness, snap.generation, false))
    }
}

impl InquiryService for ShardedServer {
    fn inquire(&self, req: &InquiryRequest) -> Result<InquiryResponse, InquiryError> {
        let key = req.filter.to_string();
        let mut modeled_latency_us = None;
        let mut coalesced = false;
        if let Some(queue) = &self.queue {
            let arrival = req.arrival_micros();
            match queue.lock().offer(arrival, &key) {
                Admission::Shed { queued, limit } => {
                    self.obs.inc(names::INFOD_SERVE_SHED);
                    return Err(Error::Overloaded { queued, limit });
                }
                Admission::Admitted {
                    wait_us,
                    sojourn_us,
                    coalesced: co,
                } => {
                    self.obs.observe(names::INFOD_SERVE_WAIT_US, wait_us);
                    self.obs.observe(names::INFOD_SERVE_LATENCY_US, sojourn_us);
                    if co {
                        self.obs.inc(names::INFOD_SERVE_COALESCED);
                    }
                    modeled_latency_us = Some(sojourn_us);
                    coalesced = co;
                }
            }
        }
        let mut entries = Vec::new();
        let mut max_staleness = 0u64;
        let mut shards = Vec::new();
        let mut hits = 0usize;
        let mut misses = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some((mut shard_entries, staleness, generation, hit)) =
                self.serve_shard(shard, &key, req)
            {
                entries.append(&mut shard_entries);
                max_staleness = max_staleness.max(staleness);
                shards.push((i, generation));
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        self.obs.inc(names::INFOD_SERVE_INQUIRIES);
        if max_staleness > 0 {
            self.obs.inc(names::INFOD_SERVE_STALE_SERVED);
        }
        let cache = match (hits, misses) {
            (0, _) => CacheStatus::Miss,
            (_, 0) => CacheStatus::Hit,
            _ => CacheStatus::Mixed,
        };
        Ok(InquiryResponse::new(
            entries,
            max_staleness,
            Provenance {
                source: ServedBy::ShardedServer,
                cache,
                shards,
                modeled_latency_us,
                coalesced,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gris::{Gris, InfoProvider, ProviderError, STALENESS_ATTR};
    use crate::ldif::Dn;

    struct Tagged {
        tag: String,
        serial: u64,
    }

    impl InfoProvider for Tagged {
        fn name(&self) -> &str {
            &self.tag
        }
        fn provide(&mut self, _now: u64) -> Result<Vec<Entry>, ProviderError> {
            self.serial += 1;
            let mut e = Entry::new(Dn::parse(format!("cn={}, o=grid", self.tag).as_str()).unwrap());
            e.add("site", self.tag.as_str());
            e.add("serial", self.serial.to_string());
            Ok(vec![e])
        }
        fn ttl_secs(&self) -> u64 {
            30
        }
    }

    fn site_gris(tag: &str) -> Arc<Gris> {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Tagged {
            tag: tag.to_string(),
            serial: 0,
        }));
        Arc::new(g)
    }

    fn server_with_sites(tags: &[&str], cfg: ServeConfig) -> ShardedServer {
        let srv = ShardedServer::new(cfg);
        for t in tags {
            srv.register_site(*t, 600, site_gris(t), 0);
        }
        srv.refresh(0);
        srv
    }

    fn req(f: &str, now: u64) -> InquiryRequest {
        InquiryRequest::parse(f, now).unwrap()
    }

    #[test]
    fn serves_registered_sites_with_shard_provenance() {
        let srv = server_with_sites(&["lbl", "isi", "anl"], ServeConfig::default());
        let resp = srv.inquire(&req("(site=*)", 1)).unwrap();
        assert_eq!(resp.entries.len(), 3);
        assert_eq!(resp.provenance.source, ServedBy::ShardedServer);
        assert!(!resp.provenance.shards.is_empty());
        assert!(resp.provenance.shards.iter().all(|&(_, g)| g >= 1));
        let one = srv.inquire(&req("(site=lbl)", 1)).unwrap();
        assert_eq!(one.entries.len(), 1);
    }

    #[test]
    fn cache_hits_within_ttl_and_flushes_on_swap() {
        let srv = server_with_sites(&["lbl"], ServeConfig::default());
        let r1 = srv.inquire(&req("(site=lbl)", 1)).unwrap();
        assert_eq!(r1.provenance.cache, CacheStatus::Miss);
        let r2 = srv.inquire(&req("(site=lbl)", 2)).unwrap();
        assert_eq!(r2.provenance.cache, CacheStatus::Hit);
        assert_eq!(r1.entries, r2.entries);
        // Past the cache TTL (default 5 s) the evaluation is redone.
        let r3 = srv.inquire(&req("(site=lbl)", 20)).unwrap();
        assert_eq!(r3.provenance.cache, CacheStatus::Miss);
        // A content-changing refresh (provider TTL lapsed → new serial)
        // swaps the snapshot and flushes the cache.
        srv.refresh(40);
        let r4 = srv.inquire(&req("(site=lbl)", 40)).unwrap();
        assert_eq!(r4.provenance.cache, CacheStatus::Miss);
        assert_eq!(r4.entries[0].get("serial"), Some("2"));
    }

    #[test]
    fn unchanged_content_skips_the_snapshot_swap() {
        let srv = server_with_sites(&["lbl"], ServeConfig::default());
        let gen_before: Vec<u64> = (0..srv.shard_count())
            .map(|i| srv.shard_generation(i))
            .collect();
        // Within the provider TTL the materialized content is identical:
        // no shard swaps, generations hold.
        srv.refresh(10);
        let gen_after: Vec<u64> = (0..srv.shard_count())
            .map(|i| srv.shard_generation(i))
            .collect();
        assert_eq!(gen_before, gen_after);
    }

    #[test]
    fn dead_site_serves_stale_with_growing_stamp() {
        let srv = ShardedServer::new(ServeConfig::default());
        srv.register_site("lbl", 60, site_gris("lbl"), 0);
        srv.refresh(0);
        assert_eq!(srv.live_sites(59), vec!["lbl".to_string()]);
        // The lease lapses at t=60; refreshes stop reaching the source
        // but the last view keeps serving, aging.
        assert!(srv.live_sites(60).is_empty());
        srv.refresh(100);
        let resp = srv.inquire(&req("(site=lbl)", 130)).unwrap();
        assert_eq!(resp.entries.len(), 1);
        assert_eq!(resp.staleness_secs, 130);
        assert_eq!(resp.entries[0].get(STALENESS_ATTR), Some("130"));
        // Renewal is refused for unknown ids, accepted for known ones.
        assert!(srv.renew_site("lbl", 140));
        assert!(!srv.renew_site("unknown", 140));
        srv.refresh(140);
        let back = srv.inquire(&req("(site=lbl)", 141)).unwrap();
        assert_eq!(back.staleness_secs, 0);
    }

    #[test]
    fn admission_sheds_past_queue_depth_with_typed_rejection() {
        let cfg = ServeConfig {
            admission: Some(AdmissionConfig {
                servers: 1,
                mean_service_us: 1_000_000,
                max_queue: 2,
                coalesce: false,
                seed: 7,
            }),
            ..ServeConfig::default()
        };
        let srv = server_with_sites(&["lbl"], cfg);
        // Distinct filters at the same arrival instant: first occupies
        // the server, next two wait, the rest shed — deterministically.
        let filters = ["(site=lbl)", "(site=a)", "(site=b)", "(site=c)", "(site=d)"];
        let mut outcomes = Vec::new();
        for f in filters {
            let r = srv.inquire(&req(f, 1).at_micros(1_000_000));
            outcomes.push(r.is_ok());
            if let Err(e) = r {
                assert!(matches!(
                    e,
                    Error::Overloaded {
                        queued: 2,
                        limit: 2
                    }
                ));
            }
        }
        assert_eq!(outcomes, vec![true, true, true, false, false]);
    }

    #[test]
    fn identical_inflight_inquiries_coalesce() {
        let cfg = ServeConfig {
            admission: Some(AdmissionConfig {
                servers: 1,
                mean_service_us: 1_000_000,
                max_queue: 0,
                coalesce: true,
                seed: 7,
            }),
            ..ServeConfig::default()
        };
        let srv = server_with_sites(&["lbl"], cfg);
        let first = srv
            .inquire(&req("(site=lbl)", 1).at_micros(1_000_000))
            .unwrap();
        assert!(!first.provenance.coalesced);
        // Same filter while the first is in flight: coalesced, no server
        // consumed, so it is admitted even with a zero-depth queue.
        let second = srv
            .inquire(&req("(site=lbl)", 1).at_micros(1_000_001))
            .unwrap();
        assert!(second.provenance.coalesced);
        assert!(
            second.provenance.modeled_latency_us.unwrap()
                < first.provenance.modeled_latency_us.unwrap()
        );
        // A *different* filter at the same instant is shed.
        assert!(srv
            .inquire(&req("(site=other)", 1).at_micros(1_000_002))
            .is_err());
    }

    #[test]
    fn deterministic_service_model_replays_identically() {
        let make = || {
            let cfg = ServeConfig {
                admission: Some(AdmissionConfig::default()),
                ..ServeConfig::default()
            };
            server_with_sites(&["lbl", "isi"], cfg)
        };
        let run = |srv: &ShardedServer| -> Vec<Option<u64>> {
            (0..50)
                .map(|i| {
                    srv.inquire(&req("(site=*)", 1).at_micros(1_000_000 + i * 37))
                        .ok()
                        .and_then(|r| r.provenance.modeled_latency_us)
                })
                .collect()
        };
        let a = make();
        let b = make();
        assert_eq!(run(&a), run(&b));
    }
}

//! The Grid Resource Information Service: a per-site directory server
//! fed by pluggable information providers, with TTL caching and
//! degraded-mode serving.
//!
//! MDS-2's GRIS invokes its providers on demand and caches their output
//! for a provider-declared lifetime (information like transfer statistics
//! is expensive to recompute, and inquiry rates can be high). Search
//! applies an LDAP filter over the cached entries.
//!
//! Providers are *fallible*: a provider whose backing store is
//! unavailable (log unreadable, filesystem gone) returns a
//! [`ProviderError`] instead of entries. The GRIS then keeps serving the
//! last-known-good cache, stamping every served entry with a
//! `stalenesssecs` attribute — the age of the data at inquiry time — so
//! downstream consumers (the replica broker's ranking in particular) can
//! discount it instead of either trusting it blindly or losing the site
//! entirely. On the next successful refresh the stamp disappears.
//!
//! ## Read path vs refresh path
//!
//! The inquiry surface is the `&self` [`InquiryService::inquire`]; the
//! refresh path is [`Gris::materialize`], which runs the TTL-gated
//! provider refreshes and returns *unstamped* entries with per-entry
//! last-known-good timestamps. The sharded serving layer
//! ([`crate::serve`]) calls `materialize` from its background refresher
//! and stamps `stalenesssecs` at read time, so a snapshot taken once can
//! keep serving correctly-aged entries long after it was cut.

use parking_lot::Mutex;
use wanpred_obs::{names, ObsSink};

use crate::error::InquiryError;
use crate::ldif::{Dn, Entry};
use crate::service::{InquiryRequest, InquiryResponse, InquiryService, Provenance, ServedBy};

/// Why a provider refresh failed. Downstream code can match on the
/// variant (transient resource outage vs. provider-internal failure)
/// instead of parsing a rendered string.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProviderError {
    /// The provider's backing resource (log file, filesystem) could not
    /// be read. Carries the underlying error as `source`.
    Unavailable {
        /// What could not be read — a path or resource name.
        resource: String,
        /// The underlying failure.
        source: Box<dyn std::error::Error + Send + Sync>,
    },
    /// A provider-internal failure with a rendered cause.
    Failed(String),
}

impl ProviderError {
    /// A provider-internal error with a human-readable cause.
    pub fn new(message: impl Into<String>) -> Self {
        ProviderError::Failed(message.into())
    }

    /// A backing-resource failure, preserving the cause chain.
    pub fn unavailable(
        resource: impl Into<String>,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        ProviderError::Unavailable {
            resource: resource.into(),
            source: Box::new(source),
        }
    }

    /// The rendered cause.
    pub fn message(&self) -> String {
        match self {
            ProviderError::Unavailable { resource, source } => format!("{resource}: {source}"),
            ProviderError::Failed(m) => m.clone(),
        }
    }
}

impl std::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "provider refresh failed: {}", self.message())
    }
}

impl std::error::Error for ProviderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProviderError::Unavailable { source, .. } => Some(source.as_ref()),
            ProviderError::Failed(_) => None,
        }
    }
}

/// A pluggable information source.
pub trait InfoProvider: Send {
    /// Provider name (diagnostics).
    fn name(&self) -> &str;

    /// Produce the provider's current entries. `now_unix` is the inquiry
    /// time, letting providers compute temporal-window statistics. A
    /// failing provider returns an error; the GRIS degrades to its
    /// last-known-good cache.
    fn provide(&mut self, now_unix: u64) -> Result<Vec<Entry>, ProviderError>;

    /// Seconds the produced entries may be served from cache.
    fn ttl_secs(&self) -> u64 {
        30
    }
}

/// The attribute stamped onto entries served from a cache whose refresh
/// failed: seconds since the data was last known good.
pub const STALENESS_ATTR: &str = "stalenesssecs";

/// One entry of a [`Materialized`] refresh: the raw (unstamped) entry
/// plus, when its provider is degraded, the time its data was last known
/// good. Consumers stamp `stalenesssecs = now - last_good_unix` at the
/// moment they actually serve the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedEntry {
    /// The entry, without a staleness stamp.
    pub entry: Entry,
    /// `Some(t)` when the producing provider is degraded and `t` is when
    /// its cache was last refreshed successfully; `None` when fresh.
    pub last_good_unix: Option<u64>,
}

impl MaterializedEntry {
    /// The entry as served at `now_unix`: stamped with its age when the
    /// provider is degraded, untouched when fresh. Returns the stamp age.
    pub fn stamped(&self, now_unix: u64) -> (Entry, u64) {
        match self.last_good_unix {
            None => (self.entry.clone(), 0),
            Some(t) => {
                let age = now_unix.saturating_sub(t);
                let mut e = self.entry.clone();
                e.set(STALENESS_ATTR, age.to_string());
                (e, age)
            }
        }
    }
}

/// The result of one refresh pass over a GRIS: every provider's current
/// entries, from a single refresh generation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Materialized {
    /// Per-entry payloads in provider registration order.
    pub entries: Vec<MaterializedEntry>,
}

/// A source the sharded serving layer can snapshot: one TTL-gated
/// refresh pass returning unstamped entries with degraded-mode ages.
pub trait SnapshotSource: Send + Sync {
    /// Run due provider refreshes and return the current entry set.
    fn materialize(&self, now_unix: u64) -> Materialized;
}

struct Slot {
    provider: Box<dyn InfoProvider>,
    cache: Vec<Entry>,
    /// When the cache contents were last produced successfully.
    last_good_at: Option<u64>,
    /// When the provider was last invoked (success or failure) — TTL
    /// scheduling runs off this so a dead provider is retried once per
    /// TTL, not on every inquiry.
    checked_at: Option<u64>,
    consecutive_failures: u32,
}

#[derive(Default)]
struct GrisState {
    slots: Vec<Slot>,
    /// Cumulative provider invocations (cache-miss counter for tests and
    /// the provider-cost bench).
    invocations: u64,
    /// Cumulative failed refresh attempts.
    refresh_failures: u64,
}

/// A GRIS instance.
///
/// All inquiry methods take `&self`: the provider slots live behind an
/// internal mutex, so a `Gris` shared through an `Arc` answers
/// [`InquiryService::inquire`] calls directly. This internal lock is the
/// "direct locked access" baseline the serving benchmark compares the
/// sharded snapshot path against — every inquiry serializes behind every
/// other, refreshes run inline on the inquiry path.
pub struct Gris {
    base_dn: Dn,
    state: Mutex<GrisState>,
    /// Observability sink (null by default).
    obs: ObsSink,
}

impl Gris {
    /// Create a GRIS rooted at `base_dn`.
    pub fn new(base_dn: Dn) -> Self {
        Gris {
            base_dn,
            state: Mutex::new(GrisState::default()),
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink: refresh outcomes, cache hits, and
    /// search counts are emitted through it, with a span per provider
    /// refresh keyed on the inquiry clock.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The directory suffix this GRIS serves.
    pub fn base_dn(&self) -> &Dn {
        &self.base_dn
    }

    /// Plug in a provider.
    pub fn register_provider(&mut self, provider: Box<dyn InfoProvider>) {
        self.state.get_mut().slots.push(Slot {
            provider,
            cache: Vec::new(),
            last_good_at: None,
            checked_at: None,
            consecutive_failures: 0,
        });
    }

    /// Number of registered providers.
    pub fn provider_count(&self) -> usize {
        self.state.lock().slots.len()
    }

    /// Total provider invocations so far.
    pub fn invocations(&self) -> u64 {
        self.state.lock().invocations
    }

    /// Total failed refresh attempts so far.
    pub fn refresh_failures(&self) -> u64 {
        self.state.lock().refresh_failures
    }

    /// Names of providers currently serving stale (degraded-mode) data.
    pub fn degraded_providers(&self) -> Vec<String> {
        self.state
            .lock()
            .slots
            .iter()
            .filter(|s| s.consecutive_failures > 0)
            .map(|s| s.provider.name().to_string())
            .collect()
    }

    /// The refresh path: run TTL-due provider refreshes and return the
    /// resulting entry set, unstamped, with per-entry last-known-good
    /// ages for degraded providers. One call is one refresh generation —
    /// every entry in the result was cut under a single lock hold, which
    /// is the guarantee the sharded serving layer's snapshots propagate
    /// to readers.
    pub fn materialize(&self, now_unix: u64) -> Materialized {
        let mut st = self.state.lock();
        let st = &mut *st;
        let mut out = Materialized::default();
        for s in &mut st.slots {
            let due = match s.checked_at {
                None => true,
                Some(t) => now_unix.saturating_sub(t) >= s.provider.ttl_secs(),
            };
            if due {
                st.invocations += 1;
                s.checked_at = Some(now_unix);
                self.obs
                    .span_enter(names::INFOD_GRIS_REFRESH, now_unix * 1_000_000);
                match s.provider.provide(now_unix) {
                    Ok(entries) => {
                        s.cache = entries;
                        s.last_good_at = Some(now_unix);
                        s.consecutive_failures = 0;
                        self.obs.inc(names::INFOD_GRIS_REFRESH_OK);
                    }
                    Err(_) => {
                        st.refresh_failures += 1;
                        s.consecutive_failures += 1;
                        self.obs.inc(names::INFOD_GRIS_REFRESH_FAIL);
                    }
                }
                // Provider invocation is instantaneous on the directory
                // clock (second granularity), so the span closes at its
                // entry timestamp; count and nesting are what matter.
                self.obs
                    .span_exit(names::INFOD_GRIS_REFRESH, now_unix * 1_000_000);
            } else {
                self.obs.inc(names::INFOD_GRIS_CACHE_HITS);
            }
            let last_good = if s.consecutive_failures > 0 {
                // Degraded: the age anchor is the last successful
                // refresh, or the epoch when there never was one (an
                // empty cache contributes no entries either way).
                Some(s.last_good_at.unwrap_or(0))
            } else {
                None
            };
            out.entries
                .extend(s.cache.iter().map(|e| MaterializedEntry {
                    entry: e.clone(),
                    last_good_unix: last_good,
                }));
        }
        out
    }
}

impl SnapshotSource for Gris {
    fn materialize(&self, now_unix: u64) -> Materialized {
        Gris::materialize(self, now_unix)
    }
}

impl InquiryService for Gris {
    fn inquire(&self, req: &InquiryRequest) -> Result<InquiryResponse, InquiryError> {
        self.obs.inc(names::INFOD_GRIS_SEARCHES);
        let mut entries = Vec::new();
        let mut max_staleness = 0u64;
        for me in &self.materialize(req.now_unix).entries {
            let (e, age) = me.stamped(req.now_unix);
            if req.filter.matches(&e) {
                max_staleness = max_staleness.max(age);
                entries.push(e);
            }
        }
        Ok(InquiryResponse::new(
            entries,
            max_staleness,
            Provenance::direct(ServedBy::Gris),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{self, Filter};

    fn search(g: &Gris, f: &Filter, now: u64) -> Vec<Entry> {
        g.inquire(&InquiryRequest::new(f.clone(), now))
            .unwrap()
            .entries
    }

    fn entries(g: &Gris, now: u64) -> Vec<Entry> {
        search(g, &filter::parse("(|(calls=*)(site=*))").unwrap(), now)
    }

    struct Counter {
        calls: u64,
        ttl: u64,
    }

    impl InfoProvider for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn provide(&mut self, now_unix: u64) -> Result<Vec<Entry>, ProviderError> {
            self.calls += 1;
            let mut e = Entry::new(Dn::parse("cn=c, o=grid").unwrap());
            e.add("calls", self.calls.to_string());
            e.add("now", now_unix.to_string());
            Ok(vec![e])
        }
        fn ttl_secs(&self) -> u64 {
            self.ttl
        }
    }

    /// A provider whose availability is scripted per call.
    struct Flaky {
        outcomes: std::collections::VecDeque<bool>,
        calls: u64,
    }

    impl Flaky {
        fn new(outcomes: &[bool]) -> Self {
            Flaky {
                outcomes: outcomes.iter().copied().collect(),
                calls: 0,
            }
        }
    }

    impl InfoProvider for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn provide(&mut self, _now: u64) -> Result<Vec<Entry>, ProviderError> {
            self.calls += 1;
            if self.outcomes.pop_front().unwrap_or(false) {
                let mut e = Entry::new(Dn::parse("cn=f, o=grid").unwrap());
                e.add("calls", self.calls.to_string());
                Ok(vec![e])
            } else {
                Err(ProviderError::new("log unreadable"))
            }
        }
        fn ttl_secs(&self) -> u64 {
            10
        }
    }

    #[test]
    fn cache_serves_within_ttl() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Counter { calls: 0, ttl: 30 }));
        let e1 = entries(&g, 100);
        let e2 = entries(&g, 120); // within TTL
        assert_eq!(e1[0].get("calls"), Some("1"));
        assert_eq!(e2[0].get("calls"), Some("1"));
        assert_eq!(g.invocations(), 1);
        let e3 = entries(&g, 130); // 30s elapsed: refresh
        assert_eq!(e3[0].get("calls"), Some("2"));
        assert_eq!(g.invocations(), 2);
    }

    #[test]
    fn search_applies_filter() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Counter {
            calls: 0,
            ttl: 1_000,
        }));
        let f = filter::parse("(calls=1)").unwrap();
        assert_eq!(search(&g, &f, 0).len(), 1);
        let f = filter::parse("(calls=99)").unwrap();
        assert_eq!(search(&g, &f, 1).len(), 0);
    }

    #[test]
    fn multiple_providers_merge() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Counter { calls: 0, ttl: 10 }));
        g.register_provider(Box::new(Counter { calls: 10, ttl: 10 }));
        assert_eq!(g.provider_count(), 2);
        let all = entries(&g, 0);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn failed_refresh_serves_stale_entries_with_staleness_stamp() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Flaky::new(&[true, false, false])));
        // First inquiry succeeds: fresh data, no stamp.
        let fresh = entries(&g, 100);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].get(STALENESS_ATTR), None);
        // TTL lapses, refresh fails: last-known-good served, stamped with
        // its age (115 - 100 = 15s).
        let stale = entries(&g, 115);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].get("calls"), Some("1"));
        assert_eq!(stale[0].get(STALENESS_ATTR), Some("15"));
        assert_eq!(g.refresh_failures(), 1);
        assert_eq!(g.degraded_providers(), vec!["flaky".to_string()]);
        // Still failing later: the stamp grows.
        let staler = entries(&g, 130);
        assert_eq!(staler[0].get(STALENESS_ATTR), Some("30"));
        assert_eq!(g.refresh_failures(), 2);
    }

    #[test]
    fn recovery_clears_the_staleness_stamp() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Flaky::new(&[true, false, true])));
        entries(&g, 0);
        let stale = entries(&g, 10);
        assert_eq!(stale[0].get(STALENESS_ATTR), Some("10"));
        // Provider comes back: fresh entries, no stamp, counters reset.
        let fresh = entries(&g, 20);
        assert_eq!(fresh[0].get("calls"), Some("3"));
        assert_eq!(fresh[0].get(STALENESS_ATTR), None);
        assert!(g.degraded_providers().is_empty());
    }

    #[test]
    fn dead_provider_with_no_history_serves_nothing_but_is_retried() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Flaky::new(&[false, false, true])));
        assert!(entries(&g, 0).is_empty());
        // Within TTL the failure is not retried (no hammering).
        assert!(entries(&g, 5).is_empty());
        assert_eq!(g.invocations(), 1);
        // After the TTL it is.
        assert!(entries(&g, 10).is_empty());
        assert_eq!(g.invocations(), 2);
        // Eventually it comes up.
        assert_eq!(entries(&g, 20).len(), 1);
    }

    #[test]
    fn staleness_is_searchable() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Flaky::new(&[true, false])));
        entries(&g, 0);
        let hits = search(&g, &filter::parse("(stalenesssecs=*)").unwrap(), 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn inquire_reports_staleness_and_provenance() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Flaky::new(&[true, false])));
        let req = |now| InquiryRequest::parse("(calls=*)", now).unwrap();
        let fresh = g.inquire(&req(0)).unwrap();
        assert_eq!(fresh.staleness_secs, 0);
        assert_eq!(fresh.provenance.source, ServedBy::Gris);
        assert!(fresh.provenance.shards.is_empty());
        let stale = g.inquire(&req(25)).unwrap();
        assert_eq!(stale.staleness_secs, 25);
    }

    #[test]
    fn materialize_returns_unstamped_entries_with_ages() {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Flaky::new(&[true, false])));
        let fresh = g.materialize(100);
        assert_eq!(fresh.entries.len(), 1);
        assert_eq!(fresh.entries[0].last_good_unix, None);
        let degraded = g.materialize(115);
        assert_eq!(degraded.entries[0].last_good_unix, Some(100));
        // The raw entry is unstamped; stamping happens at serve time.
        assert_eq!(degraded.entries[0].entry.get(STALENESS_ATTR), None);
        let (served, age) = degraded.entries[0].stamped(140);
        assert_eq!(age, 40);
        assert_eq!(served.get(STALENESS_ATTR), Some("40"));
    }
}

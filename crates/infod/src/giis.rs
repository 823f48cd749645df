//! The Grid Index Information Service: an aggregate directory fed by
//! soft-state GRIS registrations (Figure 5).
//!
//! A GRIS announces itself to a GIIS with a registration carrying a
//! lifetime; unless renewed before the lifetime lapses, the registration
//! silently expires — the *soft-state* protocol that lets MDS tolerate
//! vanishing resources without explicit deregistration. Inquiries are
//! answered by merging search results from all currently live
//! registrants.
//!
//! Registration and inquiry both take `&self`: the registrant table
//! lives behind an internal mutex, so a `Giis` shared through an `Arc`
//! accepts registrations and answers [`InquiryService::inquire`] calls
//! concurrently. Child directories are queried *outside* the table lock,
//! so one slow registrant does not block registrations or other
//! inquiries at the index.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use wanpred_obs::{names, ObsSink};

use crate::error::InquiryError;
use crate::service::{InquiryRequest, InquiryResponse, InquiryService, Provenance, ServedBy};

/// A soft-state registration message (the wire protocol's payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// Unique registrant identifier (typically the GRIS host).
    pub id: String,
    /// Seconds the registration stays valid without renewal.
    pub ttl_secs: u64,
}

/// Outcome of processing a registration message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// First registration of this id.
    New,
    /// Existing registration refreshed.
    Renewed,
}

struct Registrant {
    /// Queried directly, with no wrapping mutex: concurrent inquiries at
    /// the index fan out to children without serializing on them.
    service: Arc<dyn InquiryService>,
    ttl_secs: u64,
    last_seen: u64,
}

#[derive(Default)]
struct GiisState {
    registrants: BTreeMap<String, Registrant>,
}

/// A GIIS instance.
pub struct Giis {
    name: String,
    state: Mutex<GiisState>,
    /// Observability sink (null by default).
    obs: ObsSink,
}

impl Giis {
    /// Create a named GIIS.
    pub fn new(name: impl Into<String>) -> Self {
        Giis {
            name: name.into(),
            state: Mutex::new(GiisState::default()),
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink: soft-state protocol counters
    /// (registrations, renewals, expirations, searches) are
    /// emitted through it.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The index's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process a registration (initial or renewal) from any
    /// [`InquiryService`] — a GRIS, or a child GIIS: MDS-2 indexes form
    /// hierarchies (Figure 5), so a site GIIS can register into an
    /// organizational one.
    pub fn register_service(
        &self,
        msg: Registration,
        service: Arc<dyn InquiryService>,
        now_unix: u64,
    ) -> RegisterOutcome {
        let mut st = self.state.lock();
        let outcome = if st.registrants.contains_key(&msg.id) {
            self.obs.inc(names::INFOD_GIIS_RENEWALS);
            RegisterOutcome::Renewed
        } else {
            self.obs.inc(names::INFOD_GIIS_REGISTRATIONS);
            RegisterOutcome::New
        };
        st.registrants.insert(
            msg.id,
            Registrant {
                service,
                ttl_secs: msg.ttl_secs,
                last_seen: now_unix,
            },
        );
        outcome
    }

    /// Renew an existing registration without re-sending the handle.
    /// Returns `false` if the id is unknown (already expired): the GRIS
    /// must then re-register fully, as in MDS.
    pub fn renew(&self, id: &str, now_unix: u64) -> bool {
        match self.state.lock().registrants.get_mut(id) {
            Some(r) => {
                r.last_seen = now_unix;
                true
            }
            None => false,
        }
    }

    /// Drop registrations whose lifetime lapsed; returns how many.
    pub fn expire(&self, now_unix: u64) -> usize {
        let mut st = self.state.lock();
        let before = st.registrants.len();
        st.registrants
            .retain(|_, r| now_unix.saturating_sub(r.last_seen) < r.ttl_secs);
        let expired = before - st.registrants.len();
        if expired > 0 {
            self.obs
                .inc_by(names::INFOD_GIIS_EXPIRATIONS, expired as u64);
        }
        expired
    }

    /// Ids of currently live registrants (after expiry at `now_unix`).
    pub fn live_registrants(&self, now_unix: u64) -> Vec<String> {
        self.expire(now_unix);
        self.state.lock().registrants.keys().cloned().collect()
    }
}

impl InquiryService for Giis {
    fn inquire(&self, req: &InquiryRequest) -> Result<InquiryResponse, InquiryError> {
        self.obs.inc(names::INFOD_GIIS_SEARCHES);
        self.expire(req.now_unix);
        // Clone the handles out of the table lock: children are queried
        // without holding it, so a slow registrant cannot block the
        // index's registration path or other inquiries.
        let children: Vec<Arc<dyn InquiryService>> = self
            .state
            .lock()
            .registrants
            .values()
            .map(|r| Arc::clone(&r.service))
            .collect();
        let mut entries = Vec::new();
        let mut max_staleness = 0u64;
        for child in &children {
            // A failing child contributes nothing; the merge is
            // best-effort, like MDS answering from reachable sites.
            if let Ok(resp) = child.inquire(req) {
                max_staleness = max_staleness.max(resp.staleness_secs);
                entries.extend(resp.entries);
            }
        }
        Ok(InquiryResponse::new(
            entries,
            max_staleness,
            Provenance::direct(ServedBy::Giis),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{self, Filter};
    use crate::gris::{Gris, InfoProvider, ProviderError, STALENESS_ATTR};
    use crate::ldif::{Dn, Entry};

    fn search(giis: &Giis, f: &Filter, now: u64) -> Vec<Entry> {
        giis.inquire(&InquiryRequest::new(f.clone(), now))
            .unwrap()
            .entries
    }

    struct Fixed {
        tag: &'static str,
    }

    impl InfoProvider for Fixed {
        fn name(&self) -> &str {
            self.tag
        }
        fn provide(&mut self, _now: u64) -> Result<Vec<Entry>, ProviderError> {
            let mut e = Entry::new(Dn::parse(format!("cn={}, o=grid", self.tag).as_str()).unwrap());
            e.add("site", self.tag);
            Ok(vec![e])
        }
    }

    fn gris_service(tag: &'static str) -> Arc<dyn InquiryService> {
        let mut g = Gris::new(Dn::parse("o=grid").unwrap());
        g.register_provider(Box::new(Fixed { tag }));
        Arc::new(g)
    }

    /// Answers its first refresh, fails every later one: its GRIS then
    /// serves the last-known-good entry with a growing staleness stamp.
    struct DiesAfterFirst {
        served: bool,
    }

    impl InfoProvider for DiesAfterFirst {
        fn name(&self) -> &str {
            "dies"
        }
        fn provide(&mut self, _now: u64) -> Result<Vec<Entry>, ProviderError> {
            if std::mem::replace(&mut self.served, true) {
                return Err(ProviderError::new("log unreadable"));
            }
            Fixed { tag: "degraded" }.provide(0)
        }
        fn ttl_secs(&self) -> u64 {
            10
        }
    }

    struct Failing;

    impl InquiryService for Failing {
        fn inquire(&self, _req: &InquiryRequest) -> Result<InquiryResponse, InquiryError> {
            Err(InquiryError::Overloaded {
                queued: 1,
                limit: 0,
            })
        }
    }

    fn reg(id: &str) -> Registration {
        Registration {
            id: id.into(),
            ttl_secs: 600,
        }
    }

    /// An index over a healthy GRIS, a GRIS whose provider dies after the
    /// refresh at t = 0, and a child that fails every inquiry.
    fn index_with_a_degraded_child() -> Giis {
        let mut degraded = Gris::new(Dn::parse("o=grid").unwrap());
        degraded.register_provider(Box::new(DiesAfterFirst { served: false }));
        let giis = Giis::new("site");
        giis.register_service(reg("fresh"), gris_service("lbl"), 0);
        giis.register_service(reg("degraded"), Arc::new(degraded), 0);
        giis.register_service(reg("dead"), Arc::new(Failing), 0);
        giis
    }

    /// The index reports the degraded child's age, the degraded entry
    /// carries the stamp, the healthy one does not.
    fn assert_reports_child_staleness(index: &Giis) {
        let req = |now| InquiryRequest::parse("(site=*)", now).unwrap();
        let primed = index.inquire(&req(0)).unwrap();
        assert_eq!(primed.staleness_secs, 0);
        assert_eq!(primed.entries.len(), 2);
        let resp = index.inquire(&req(25)).unwrap();
        assert_eq!(resp.staleness_secs, 25);
        let stamp = |site: &str| {
            let e = resp.entries.iter().find(|e| e.get("site") == Some(site));
            e.unwrap().get(STALENESS_ATTR).map(str::to_string)
        };
        assert_eq!(stamp("degraded"), Some("25".to_string()));
        assert_eq!(stamp("lbl"), None);
    }

    #[test]
    fn register_and_search_aggregates() {
        let giis = Giis::new("top");
        giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 300,
            },
            gris_service("lbl"),
            0,
        );
        giis.register_service(
            Registration {
                id: "isi".into(),
                ttl_secs: 300,
            },
            gris_service("isi"),
            0,
        );
        let all = search(&giis, &filter::parse("(site=*)").unwrap(), 10);
        assert_eq!(all.len(), 2);
        let lbl = search(&giis, &filter::parse("(site=lbl)").unwrap(), 10);
        assert_eq!(lbl.len(), 1);
    }

    #[test]
    fn soft_state_expiry() {
        let giis = Giis::new("top");
        giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 60,
            },
            gris_service("lbl"),
            0,
        );
        // Alive just inside the ttl.
        assert_eq!(giis.live_registrants(59), vec!["lbl".to_string()]);
        // Dead at exactly ttl with no renewal.
        assert_eq!(giis.live_registrants(60), Vec::<String>::new());
        // Search after expiry finds nothing.
        assert!(search(&giis, &filter::parse("(site=*)").unwrap(), 61).is_empty());
    }

    #[test]
    fn renewal_extends_lifetime() {
        let giis = Giis::new("top");
        giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 60,
            },
            gris_service("lbl"),
            0,
        );
        assert!(giis.renew("lbl", 50));
        assert_eq!(giis.live_registrants(100).len(), 1);
        // After expiry, renew fails and full re-registration is needed.
        assert_eq!(giis.live_registrants(200).len(), 0);
        assert!(!giis.renew("lbl", 201));
        let outcome = giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 60,
            },
            gris_service("lbl"),
            202,
        );
        assert_eq!(outcome, RegisterOutcome::New);
    }

    #[test]
    fn reregistration_is_renewal_when_live() {
        let giis = Giis::new("top");
        let g = gris_service("lbl");
        giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 60,
            },
            g.clone(),
            0,
        );
        let outcome = giis.register_service(
            Registration {
                id: "lbl".into(),
                ttl_secs: 60,
            },
            g,
            30,
        );
        assert_eq!(outcome, RegisterOutcome::Renewed);
    }

    #[test]
    fn hierarchical_giis_aggregates_child_indexes() {
        // site GIISes each index one GRIS; the organizational GIIS
        // indexes both site GIISes (Figure 5's tree). The child indexes
        // register as services — no wrapping mutex.
        let lbl_giis = Giis::new("lbl-site");
        lbl_giis.register_service(
            Registration {
                id: "lbl-gris".into(),
                ttl_secs: 600,
            },
            gris_service("lbl"),
            0,
        );
        let isi_giis = Giis::new("isi-site");
        isi_giis.register_service(
            Registration {
                id: "isi-gris".into(),
                ttl_secs: 600,
            },
            gris_service("isi"),
            0,
        );
        let org = Giis::new("org");
        org.register_service(
            Registration {
                id: "lbl-site".into(),
                ttl_secs: 600,
            },
            Arc::new(lbl_giis),
            0,
        );
        org.register_service(
            Registration {
                id: "isi-site".into(),
                ttl_secs: 600,
            },
            Arc::new(isi_giis),
            0,
        );
        let all = search(&org, &filter::parse("(site=*)").unwrap(), 10);
        assert_eq!(all.len(), 2);
        let lbl = search(&org, &filter::parse("(site=lbl)").unwrap(), 10);
        assert_eq!(lbl.len(), 1);
        // Expiry cascades naturally: after the ttl the whole subtree is
        // unreachable from the org index.
        assert!(search(&org, &filter::parse("(site=*)").unwrap(), 700).is_empty());
    }

    #[test]
    fn expire_reports_count() {
        let giis = Giis::new("top");
        for (i, tag) in ["a", "b", "c"].iter().enumerate() {
            giis.register_service(
                Registration {
                    id: (*tag).into(),
                    ttl_secs: 10 * (i as u64 + 1),
                },
                gris_service("lbl"),
                0,
            );
        }
        assert_eq!(giis.expire(15), 1); // "a" (ttl 10) gone
        assert_eq!(giis.expire(25), 1); // "b" (ttl 20) gone
        assert_eq!(giis.expire(25), 0);
    }

    #[test]
    fn failing_service_child_degrades_to_best_effort_merge() {
        let giis = Giis::new("top");
        giis.register_service(
            Registration {
                id: "dead".into(),
                ttl_secs: 300,
            },
            Arc::new(Failing),
            0,
        );
        giis.register_service(
            Registration {
                id: "live".into(),
                ttl_secs: 300,
            },
            gris_service("lbl"),
            0,
        );
        // The index still answers from the reachable child.
        let all = search(&giis, &filter::parse("(site=*)").unwrap(), 10);
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn inquire_reports_the_stalest_childs_age() {
        assert_reports_child_staleness(&index_with_a_degraded_child());
    }

    #[test]
    fn staleness_propagates_through_a_two_level_hierarchy() {
        let org = Giis::new("org");
        org.register_service(reg("site"), Arc::new(index_with_a_degraded_child()), 0);
        assert_reports_child_staleness(&org);
    }

    #[test]
    fn failing_child_contributes_zero_staleness() {
        let giis = Giis::new("top");
        giis.register_service(reg("dead"), Arc::new(Failing), 0);
        giis.register_service(reg("fresh"), gris_service("lbl"), 0);
        let resp = giis
            .inquire(&InquiryRequest::parse("(site=*)", 25).unwrap())
            .unwrap();
        assert_eq!((resp.entries.len(), resp.staleness_secs), (1, 0));
    }
}

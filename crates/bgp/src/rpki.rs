//! RPKI: Route Origin Authorisations, repositories, relying-party caches and
//! route-origin validation.
//!
//! This module is the security mechanism the paper's headline cross-layer
//! attack downgrades (Section 4 / Table 1, row "RPKI"): the relying party
//! (RPKI cache, RFC 6810/8210) locates its repositories through DNS. An
//! attacker that poisons the resolver used by the relying party redirects the
//! synchronisation to a host that serves *no* ROAs; every announcement then
//! validates as `NotFound` ("unknown") instead of `Invalid`, and routers that
//! enforce route-origin validation — which accept unknowns by design — no
//! longer filter the attacker's BGP hijack.

use crate::topology::AsId;
use netsim::prefix::Prefix;
use std::net::Ipv4Addr;

/// A Route Origin Authorisation: `origin` may announce `prefix` up to
/// `max_length`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roa {
    /// The authorised prefix.
    pub prefix: Prefix,
    /// Maximum announced prefix length covered by this ROA.
    pub max_length: u8,
    /// The authorised origin AS.
    pub origin: AsId,
}

impl Roa {
    /// Creates a ROA with `max_length` equal to the prefix length.
    pub fn exact(prefix: Prefix, origin: AsId) -> Self {
        Roa { prefix, max_length: prefix.len, origin }
    }
}

/// RFC 6811 route origin validation states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// A ROA covers the announcement and authorises the origin.
    Valid,
    /// A ROA covers the announcement but the origin or length is wrong.
    Invalid,
    /// No ROA covers the announcement ("unknown").
    NotFound,
}

/// Validates an announcement of `prefix` by `origin` against a set of ROAs.
pub fn validate(prefix: Prefix, origin: AsId, roas: &[Roa]) -> Validity {
    let covering: Vec<&Roa> = roas.iter().filter(|roa| roa.prefix.covers(&prefix)).collect();
    if covering.is_empty() {
        return Validity::NotFound;
    }
    if covering.iter().any(|roa| roa.origin == origin && prefix.len <= roa.max_length) {
        Validity::Valid
    } else {
        Validity::Invalid
    }
}

/// A publication point (repository) hosting ROAs. In the real system this is
/// an rsync/RRDP server found through a DNS name; here the `host` address is
/// what a (possibly poisoned) DNS lookup returned for that name.
#[derive(Debug, Clone, PartialEq)]
pub struct RpkiRepository {
    /// DNS name of the publication point (e.g. `rpki.ripe.example`).
    pub hostname: String,
    /// The genuine address of the repository.
    pub addr: Ipv4Addr,
    /// Published ROAs.
    pub roas: Vec<Roa>,
}

impl RpkiRepository {
    /// Creates a repository.
    pub fn new(hostname: &str, addr: Ipv4Addr, roas: Vec<Roa>) -> Self {
        RpkiRepository { hostname: hostname.to_string(), addr, roas }
    }
}

/// Outcome of one relying-party synchronisation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The RP reached the genuine repository and refreshed its ROAs.
    Synced,
    /// The RP connected to a host that is not the genuine repository (e.g.
    /// the attacker's server after cache poisoning); it obtained no valid
    /// ROAs and — after the previous data expires — treats everything as
    /// NotFound.
    WrongHost,
    /// The RP could not connect at all.
    Unreachable,
}

/// The relying party (RPKI validator + cache) that routers query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelyingParty {
    /// Currently validated ROAs (empty until the first successful sync, or
    /// after cached data expired following failed syncs).
    pub validated_roas: Vec<Roa>,
    /// Number of successful synchronisations.
    pub successful_syncs: u64,
    /// Number of failed or redirected synchronisations.
    pub failed_syncs: u64,
}

impl RelyingParty {
    /// Creates a relying party with an empty cache.
    pub fn new() -> Self {
        RelyingParty::default()
    }

    /// Attempts to synchronise with `repository`, connecting to
    /// `resolved_addr` — the address DNS returned for the repository's
    /// hostname. If DNS was poisoned this is the attacker's host and the sync
    /// yields nothing.
    pub fn sync(&mut self, repository: &RpkiRepository, resolved_addr: Option<Ipv4Addr>) -> SyncOutcome {
        match resolved_addr {
            None => {
                self.failed_syncs += 1;
                SyncOutcome::Unreachable
            }
            Some(addr) if addr == repository.addr => {
                self.validated_roas = repository.roas.clone();
                self.successful_syncs += 1;
                SyncOutcome::Synced
            }
            Some(_) => {
                // Connected to the wrong host: it cannot produce objects that
                // validate under the RPKI trust anchors, so the RP learns no
                // ROAs. Once previously cached objects expire the cache is
                // empty; we model the post-expiry state directly.
                self.validated_roas.clear();
                self.failed_syncs += 1;
                SyncOutcome::WrongHost
            }
        }
    }

    /// Validates an announcement against the RP's current cache.
    pub fn validate(&self, prefix: Prefix, origin: AsId) -> Validity {
        validate(prefix, origin, &self.validated_roas)
    }
}

/// A router's route-origin-validation policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RovPolicy {
    /// The AS does not perform ROV at all (the common case in the Internet).
    #[default]
    NotEnforced,
    /// The AS drops `Invalid` announcements and accepts `Valid`/`NotFound`
    /// (standard ROV, RFC 6811/7115).
    Enforced,
}

impl RovPolicy {
    /// Whether an announcement with the given validity would be accepted.
    pub fn accepts(&self, validity: Validity) -> bool {
        match self {
            RovPolicy::NotEnforced => true,
            RovPolicy::Enforced => validity != Validity::Invalid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn validation_states() {
        let roas = vec![Roa { prefix: p("30.0.0.0/22"), max_length: 22, origin: AsId(64500) }];
        assert_eq!(validate(p("30.0.0.0/22"), AsId(64500), &roas), Validity::Valid);
        // Wrong origin.
        assert_eq!(validate(p("30.0.0.0/22"), AsId(666), &roas), Validity::Invalid);
        // More specific than max_length (the classic sub-prefix hijack).
        assert_eq!(validate(p("30.0.0.0/24"), AsId(64500), &roas), Validity::Invalid);
        assert_eq!(validate(p("30.0.0.0/24"), AsId(666), &roas), Validity::Invalid);
        // Unrelated prefix.
        assert_eq!(validate(p("99.0.0.0/24"), AsId(666), &roas), Validity::NotFound);
    }

    #[test]
    fn max_length_permits_more_specifics() {
        let roas = vec![Roa { prefix: p("30.0.0.0/22"), max_length: 24, origin: AsId(64500) }];
        assert_eq!(validate(p("30.0.1.0/24"), AsId(64500), &roas), Validity::Valid);
        assert_eq!(validate(p("30.0.1.0/25"), AsId(64500), &roas), Validity::Invalid);
    }

    #[test]
    fn rov_policy_acceptance() {
        assert!(RovPolicy::NotEnforced.accepts(Validity::Invalid));
        assert!(RovPolicy::Enforced.accepts(Validity::Valid));
        assert!(!RovPolicy::Enforced.accepts(Validity::Invalid));
        // The crucial property the downgrade attack exploits:
        assert!(RovPolicy::Enforced.accepts(Validity::NotFound));
    }

    #[test]
    fn relying_party_sync_and_validate() {
        let roas = vec![Roa::exact(p("30.0.0.0/22"), AsId(64500))];
        let repo = RpkiRepository::new("rpki.vict.im", "123.0.0.80".parse().unwrap(), roas);
        let mut rp = RelyingParty::new();
        assert_eq!(rp.validate(p("30.0.0.0/22"), AsId(64500)), Validity::NotFound, "empty cache knows nothing");
        assert_eq!(rp.sync(&repo, Some(repo.addr)), SyncOutcome::Synced);
        assert_eq!(rp.validate(p("30.0.0.0/22"), AsId(64500)), Validity::Valid);
        assert_eq!(rp.validate(p("30.0.0.0/22"), AsId(666)), Validity::Invalid);
        assert_eq!(rp.successful_syncs, 1);
    }

    #[test]
    fn poisoned_dns_downgrades_validation_to_notfound() {
        // The cross-layer attack of Section 4: the RP's resolver is poisoned,
        // sync goes to the attacker's host, and the hijacked announcement that
        // would have been Invalid becomes NotFound — which ROV accepts.
        let victim_roas = vec![Roa::exact(p("30.0.0.0/22"), AsId(64500))];
        let repo = RpkiRepository::new("rpki.vict.im", "123.0.0.80".parse().unwrap(), victim_roas);
        let mut rp = RelyingParty::new();
        rp.sync(&repo, Some(repo.addr));
        // Before the attack: the hijack (wrong origin) is Invalid and filtered.
        let hijack_validity = rp.validate(p("30.0.0.0/22"), AsId(666));
        assert_eq!(hijack_validity, Validity::Invalid);
        assert!(!RovPolicy::Enforced.accepts(hijack_validity));
        // After poisoning: sync lands on the attacker's host (6.6.6.6).
        assert_eq!(rp.sync(&repo, Some("6.6.6.6".parse().unwrap())), SyncOutcome::WrongHost);
        let downgraded = rp.validate(p("30.0.0.0/22"), AsId(666));
        assert_eq!(downgraded, Validity::NotFound);
        assert!(RovPolicy::Enforced.accepts(downgraded), "ROV no longer filters the hijack");
        assert_eq!(rp.failed_syncs, 1);
    }

    #[test]
    fn unreachable_repository() {
        let repo = RpkiRepository::new("rpki.vict.im", "123.0.0.80".parse().unwrap(), vec![]);
        let mut rp = RelyingParty::new();
        assert_eq!(rp.sync(&repo, None), SyncOutcome::Unreachable);
        assert_eq!(rp.failed_syncs, 1);
    }
}

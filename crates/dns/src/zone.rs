//! Authoritative zone data.
//!
//! A [`Zone`] holds the records an authoritative nameserver serves for one
//! origin. The builder covers all the record types used by the applications
//! in Table 1 (mail, XMPP, Radius, SPF/DKIM policies, IPSECKEY, ...) and
//! supports the `ANY` query expansion the FragDNS attacker uses to inflate
//! responses. [`Zone::sign`] runs the full DNSSEC pipeline over the zone:
//! DNSKEY publication, per-RRset RRSIGs, and an NSEC or NSEC3 denial chain
//! (see [`crate::dnssec`]).

use crate::dnssec::denial::{base32hex_decode, nsec3_chain, nsec3_covers, nsec3_hash, nsec_chain, nsec_covers};
use crate::dnssec::keys::{DsAnchor, KeyManager};
use crate::dnssec::sign::{DenialConfig, Signer, SigningPolicy};
use crate::name::DomainName;
use crate::rdata::{RData, RecordType, ResourceRecord};
use netsim::prelude::SimTime;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Result of a zone lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum LookupResult {
    /// Records matching the query.
    Records(Vec<ResourceRecord>),
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
    /// The query name is outside this zone.
    OutOfZone,
}

/// The signing state of a signed zone: its key inventory, policy, and the
/// simulated time of the last pipeline pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSigning {
    /// KSK/ZSK inventory, including any in-flight rollover.
    pub keys: KeyManager,
    /// Signature windows and denial flavour.
    pub policy: SigningPolicy,
    /// When the zone was last signed.
    pub signed_at: SimTime,
}

/// An authoritative zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// The zone origin (apex).
    pub origin: DomainName,
    /// Default TTL for records added without an explicit TTL.
    pub default_ttl: u32,
    records: BTreeMap<DomainName, Vec<ResourceRecord>>,
    signing: Option<ZoneSigning>,
}

impl Zone {
    /// Creates an empty zone with a standard SOA record.
    pub fn new(origin: DomainName) -> Self {
        let mut zone = Zone { origin: origin.clone(), default_ttl: 300, records: BTreeMap::new(), signing: None };
        let soa = RData::Soa {
            mname: origin.prepend("ns1").unwrap_or_else(|_| origin.clone()),
            rname: origin.prepend("hostmaster").unwrap_or_else(|_| origin.clone()),
            serial: 20210823,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        };
        zone.add(origin, 3600, soa);
        zone
    }

    /// Runs the DNSSEC signing pipeline over the zone: publishes the DNSKEY
    /// RRset, builds the denial chain, and signs every RRset under the
    /// policy at simulated time `now`.
    pub fn sign(mut self, keys: KeyManager, policy: SigningPolicy, now: SimTime) -> Zone {
        self.signing = Some(ZoneSigning { keys, policy, signed_at: now });
        self.resign(now);
        self
    }

    /// Re-runs the signing pipeline in place (after a key rollover step or
    /// a record change). No-op on an unsigned zone.
    pub(crate) fn resign(&mut self, now: SimTime) {
        let Some(signing) = &mut self.signing else { return };
        signing.signed_at = now;
        let signing = self.signing.clone().expect("just checked");

        // Strip every DNSSEC artifact from the previous pass so the
        // pipeline is idempotent (NSEC3 owners disappear entirely).
        self.records.retain(|_, rrs| {
            rrs.retain(|rr| {
                !matches!(rr.rtype(), RecordType::RRSIG | RecordType::NSEC | RecordType::NSEC3 | RecordType::DNSKEY)
            });
            !rrs.is_empty()
        });

        // Publish the DNSKEY RRset at the apex.
        for rdata in signing.keys.published_dnskeys() {
            self.add(self.origin.clone(), self.default_ttl, rdata);
        }

        // Build the denial chain over the authoritative names.
        let names: Vec<(DomainName, Vec<RecordType>)> = self
            .records
            .iter()
            .map(|(name, rrs)| {
                let mut types: Vec<RecordType> = rrs.iter().map(ResourceRecord::rtype).collect();
                types.sort_by_key(|t| t.number());
                types.dedup();
                (name.clone(), types)
            })
            .collect();
        let chain = match &signing.policy.denial {
            DenialConfig::Nsec => nsec_chain(&names, self.default_ttl),
            DenialConfig::Nsec3(params) => {
                let included: Vec<(DomainName, Vec<RecordType>)> = if params.opt_out {
                    // Opt-out: insecure delegations (NS-only, non-apex
                    // names) are left out of the chain; the spans around
                    // them silently cover — and permit — them.
                    names
                        .into_iter()
                        .filter(|(name, types)| *name == self.origin || !types.iter().all(|t| *t == RecordType::NS))
                        .collect()
                } else {
                    names
                };
                nsec3_chain(&included, params, &self.origin, self.default_ttl)
            }
        };
        for rr in chain {
            self.records.entry(rr.name.clone()).or_default().push(rr);
        }

        // Sign every RRset: the active ZSK for zone data, the KSK for the
        // DNSKEY RRset itself (the Signer picks).
        let signer = Signer::new(&signing.keys, &signing.policy, self.origin.clone());
        let mut sigs = Vec::new();
        for rrs in self.records.values() {
            let mut by_type: BTreeMap<u16, Vec<ResourceRecord>> = BTreeMap::new();
            for rr in rrs {
                by_type.entry(rr.rtype().number()).or_default().push(rr.clone());
            }
            for set in by_type.values() {
                sigs.push(signer.sign_rrset(set, now));
            }
        }
        for sig in sigs {
            self.records.entry(sig.name.clone()).or_default().push(sig);
        }
    }

    /// Whether the zone has been through the signing pipeline.
    pub fn is_signed(&self) -> bool {
        self.signing.is_some()
    }

    /// The zone's signing state, if signed.
    pub fn signing(&self) -> Option<&ZoneSigning> {
        self.signing.as_ref()
    }

    /// The DS trust anchor a validating resolver should hold for this zone.
    pub fn trust_anchor(&self) -> Option<DsAnchor> {
        self.signing.as_ref().map(|s| s.keys.anchor(&self.origin))
    }

    /// RFC 6781 pre-publish step: generates the next ZSK, publishes it in
    /// the DNSKEY RRset, and re-signs. No-op on an unsigned zone.
    pub fn start_key_rollover(&mut self, now: SimTime) {
        if let Some(signing) = &mut self.signing {
            signing.keys.start_rollover();
            self.resign(now);
        }
    }

    /// Completes a rollover: the pre-published ZSK takes over signing and
    /// the old key retires. Under a lenient policy the retired key stays
    /// published (the forgery window); `retire_immediately` drops it in the
    /// same step. Re-signs either way. No-op on an unsigned zone.
    pub fn complete_key_rollover(&mut self, now: SimTime) {
        if let Some(signing) = &mut self.signing {
            signing.keys.promote_rollover();
            if signing.policy.retire_immediately {
                signing.keys.drop_retired();
            }
            self.resign(now);
        }
    }

    /// Adds a record with an explicit TTL.
    pub fn add(&mut self, name: DomainName, ttl: u32, rdata: RData) -> &mut Self {
        self.records.entry(name.clone()).or_default().push(ResourceRecord::new(name, ttl, rdata));
        self
    }

    /// Adds a record with the zone default TTL.
    pub(crate) fn add_default(&mut self, name: DomainName, rdata: RData) -> &mut Self {
        self.add(name, self.default_ttl, rdata)
    }

    /// Convenience: add an `A` record.
    pub fn add_a(&mut self, name: &str, addr: Ipv4Addr) -> &mut Self {
        let name: DomainName = name.parse().expect("valid name");
        self.add_default(name, RData::A(addr))
    }

    /// Convenience: add an `NS` record at the apex plus its glue `A` record.
    pub fn add_ns(&mut self, ns_host: &str, addr: Ipv4Addr) -> &mut Self {
        let host: DomainName = ns_host.parse().expect("valid name");
        self.add_default(self.origin.clone(), RData::Ns(host.clone()));
        self.add_default(host, RData::A(addr))
    }

    /// Convenience: add an `MX` record plus the mail host's `A` record.
    pub fn add_mx(&mut self, preference: u16, mail_host: &str, addr: Ipv4Addr) -> &mut Self {
        let host: DomainName = mail_host.parse().expect("valid name");
        self.add_default(self.origin.clone(), RData::Mx { preference, exchange: host.clone() });
        self.add_default(host, RData::A(addr))
    }

    /// Convenience: add a `TXT` record.
    pub fn add_txt(&mut self, name: &str, text: &str) -> &mut Self {
        let name: DomainName = name.parse().expect("valid name");
        self.add_default(name, RData::Txt(text.to_string()))
    }

    /// Convenience: add an `SRV` record plus the target's `A` record.
    pub fn add_srv(&mut self, service: &str, port: u16, target: &str, addr: Ipv4Addr) -> &mut Self {
        let service: DomainName = service.parse().expect("valid name");
        let target_name: DomainName = target.parse().expect("valid name");
        self.add_default(service, RData::Srv { priority: 5, weight: 0, port, target: target_name.clone() });
        self.add_default(target_name, RData::A(addr))
    }

    /// Convenience: add a `NAPTR` record (eduroam/Radius dynamic discovery).
    pub fn add_naptr(&mut self, service: &str, replacement: &str) -> &mut Self {
        self.add_default(
            self.origin.clone(),
            RData::Naptr {
                order: 100,
                preference: 10,
                flags: "s".into(),
                service: service.to_string(),
                regexp: String::new(),
                replacement: replacement.parse().expect("valid name"),
            },
        )
    }

    /// Convenience: add an `IPSECKEY` record.
    pub fn add_ipseckey(&mut self, name: &str, gateway: Ipv4Addr) -> &mut Self {
        let name: DomainName = name.parse().expect("valid name");
        self.add_default(name, RData::IpsecKey { precedence: 10, gateway, public_key: vec![0xAA; 32] })
    }

    /// Convenience: add a `CNAME` record.
    pub fn add_cname(&mut self, name: &str, target: &str) -> &mut Self {
        let name: DomainName = name.parse().expect("valid name");
        self.add_default(name, RData::Cname(target.parse().expect("valid name")))
    }

    /// All names that have records in this zone.
    pub fn names(&self) -> impl Iterator<Item = &DomainName> {
        self.records.keys()
    }

    /// Whether the query name belongs to this zone.
    pub fn contains(&self, name: &DomainName) -> bool {
        name.is_subdomain_of(&self.origin)
    }

    /// Looks up records for a query.
    ///
    /// `ANY` returns every record at the name (the response-inflation vector),
    /// and a `CNAME` at the name is returned for any type except `CNAME`
    /// itself, as per RFC 1034 resolution rules. In a signed zone, typed
    /// answers carry the RRSIGs covering the matched type.
    pub fn lookup(&self, name: &DomainName, qtype: RecordType) -> LookupResult {
        if !self.contains(name) {
            return LookupResult::OutOfZone;
        }
        let Some(records) = self.records.get(name) else {
            return LookupResult::NxDomain;
        };
        if qtype == RecordType::ANY {
            return LookupResult::Records(records.clone());
        }
        let mut matched: Vec<ResourceRecord> = records.iter().filter(|rr| rr.rtype() == qtype).cloned().collect();
        if matched.is_empty() {
            // CNAME fallback.
            if let Some(cname) = records.iter().find(|rr| rr.rtype() == RecordType::CNAME) {
                matched.push(cname.clone());
            } else {
                return LookupResult::NoData;
            }
        }
        if self.signing.is_some() && qtype != RecordType::RRSIG {
            let covered = matched[0].rtype();
            matched.extend(
                records
                    .iter()
                    .filter(|rr| rr.rtype() == RecordType::RRSIG && rr.rdata.covered_type() == covered)
                    .cloned(),
            );
        }
        LookupResult::Records(matched)
    }

    /// The RRset of the given type at `name`, plus its covering RRSIGs.
    pub fn rrset_with_sigs(&self, name: &DomainName, rtype: RecordType) -> Vec<ResourceRecord> {
        let Some(records) = self.records.get(name) else { return Vec::new() };
        records
            .iter()
            .filter(|rr| rr.rtype() == rtype || (rr.rtype() == RecordType::RRSIG && rr.rdata.covered_type() == rtype))
            .cloned()
            .collect()
    }

    /// The apex DNSKEY RRset plus its RRSIG (empty on an unsigned zone).
    /// Signed responses carry this in the additional section so a validator
    /// can chain DS → DNSKEY → RRSIG without extra round trips.
    pub fn dnskey_records(&self) -> Vec<ResourceRecord> {
        self.rrset_with_sigs(&self.origin, RecordType::DNSKEY)
    }

    /// The authenticated denial records for a negative answer about `name`:
    /// the signed SOA plus the signed NSEC/NSEC3 records proving either
    /// NXDOMAIN (a span covers the name) or NoData (the matching record's
    /// type bitmap omits the queried type). Empty on an unsigned zone.
    pub(crate) fn denial_records(&self, name: &DomainName) -> Vec<ResourceRecord> {
        let Some(signing) = &self.signing else { return Vec::new() };
        let mut out = self.rrset_with_sigs(&self.origin, RecordType::SOA);
        match &signing.policy.denial {
            DenialConfig::Nsec => {
                for (owner, rrs) in &self.records {
                    let proves = rrs.iter().any(|rr| match &rr.rdata {
                        RData::Nsec { next, .. } => owner == name || nsec_covers(owner, next, name),
                        _ => false,
                    });
                    if proves {
                        out.extend(self.rrset_with_sigs(owner, RecordType::NSEC));
                    }
                }
            }
            DenialConfig::Nsec3(params) => {
                let qhash = nsec3_hash(name, params);
                for (owner, rrs) in &self.records {
                    let proves = rrs.iter().any(|rr| match &rr.rdata {
                        RData::Nsec3 { next_hashed, .. } => owner
                            .labels()
                            .next()
                            .and_then(base32hex_decode)
                            .is_some_and(|own| own == qhash || nsec3_covers(&own, next_hashed, &qhash)),
                        _ => false,
                    });
                    if proves {
                        out.extend(self.rrset_with_sigs(owner, RecordType::NSEC3));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnssec::denial::Nsec3Params;
    use crate::dnssec::verify::{Validation, Validator};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn victim_zone() -> Zone {
        let mut z = Zone::new(n("vict.im"));
        z.add_ns("ns1.vict.im", "123.0.0.53".parse().unwrap());
        z.add_a("www.vict.im", "30.0.0.25".parse().unwrap());
        z.add_mx(10, "mail.vict.im", "30.0.0.26".parse().unwrap());
        z.add_txt("vict.im", "v=spf1 ip4:30.0.0.0/24 -all");
        z.add_srv("_xmpp-server._tcp.vict.im", 5269, "xmpp.vict.im", "30.0.0.27".parse().unwrap());
        z.add_naptr("aaa+auth:radius.tls.tcp", "_radiustls._tcp.vict.im");
        z.add_ipseckey("vpn.vict.im", "30.0.0.99".parse().unwrap());
        z.add_cname("alias.vict.im", "www.vict.im");
        z
    }

    fn signed_victim_zone(policy: SigningPolicy) -> Zone {
        victim_zone().sign(KeyManager::new(7), policy, SimTime::ZERO)
    }

    #[test]
    fn lookup_by_type() {
        let z = victim_zone();
        match z.lookup(&n("www.vict.im"), RecordType::A) {
            LookupResult::Records(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].rdata.as_ipv4(), Some("30.0.0.25".parse().unwrap()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn any_returns_everything_at_apex() {
        let z = victim_zone();
        match z.lookup(&n("vict.im"), RecordType::ANY) {
            LookupResult::Records(rrs) => {
                // SOA, NS, MX, TXT, NAPTR at minimum.
                assert!(rrs.len() >= 5, "got {}", rrs.len());
                let types: Vec<RecordType> = rrs.iter().map(|r| r.rtype()).collect();
                assert!(types.contains(&RecordType::SOA));
                assert!(types.contains(&RecordType::MX));
                assert!(types.contains(&RecordType::TXT));
                assert!(types.contains(&RecordType::NAPTR));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_nodata_and_out_of_zone() {
        let z = victim_zone();
        assert_eq!(z.lookup(&n("missing.vict.im"), RecordType::A), LookupResult::NxDomain);
        assert_eq!(z.lookup(&n("www.vict.im"), RecordType::TXT), LookupResult::NoData);
        assert_eq!(z.lookup(&n("other.example"), RecordType::A), LookupResult::OutOfZone);
    }

    #[test]
    fn cname_fallback() {
        let z = victim_zone();
        match z.lookup(&n("alias.vict.im"), RecordType::A) {
            LookupResult::Records(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].rtype(), RecordType::CNAME);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn signing_pipeline_attaches_verifiable_rrsigs() {
        let z = signed_victim_zone(SigningPolicy::default());
        let anchor = z.trust_anchor().expect("signed zone has an anchor");
        let answer = match z.lookup(&n("www.vict.im"), RecordType::A) {
            LookupResult::Records(rrs) => rrs,
            other => panic!("unexpected {other:?}"),
        };
        assert!(answer.iter().any(|r| r.rtype() == RecordType::RRSIG), "typed answers carry RRSIGs");

        // The served answer plus the apex DNSKEY set validates end to end.
        let mut response = answer;
        response.extend(z.dnskey_records());
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert_eq!(v.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Secure);
    }

    #[test]
    fn denial_records_prove_nxdomain_and_nodata() {
        for policy in [
            SigningPolicy::default(),
            SigningPolicy { denial: DenialConfig::Nsec3(Nsec3Params::standard(false)), ..Default::default() },
        ] {
            let z = signed_victim_zone(policy);
            let anchor = z.trust_anchor().unwrap();
            let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);

            // NXDOMAIN: denial for a name that does not exist.
            let mut response = z.denial_records(&n("missing.vict.im"));
            assert!(!response.is_empty());
            response.extend(z.dnskey_records());
            assert_eq!(v.validate(&response, &n("missing.vict.im"), RecordType::A), Validation::Secure);

            // NoData: denial for an existing name, absent type.
            let mut nodata = z.denial_records(&n("www.vict.im"));
            nodata.extend(z.dnskey_records());
            assert_eq!(v.validate(&nodata, &n("www.vict.im"), RecordType::TXT), Validation::Secure);

            // The same proof does not stand in for an existing RRset.
            assert!(matches!(v.validate(&nodata, &n("www.vict.im"), RecordType::A), Validation::Bogus(_)));
        }
    }

    #[test]
    fn resign_after_rollover_keeps_the_zone_valid() {
        let mut z = signed_victim_zone(SigningPolicy::default());
        let anchor = z.trust_anchor().unwrap();
        let signing = z.signing.as_mut().unwrap();
        signing.keys.start_rollover();
        signing.keys.promote_rollover();
        z.resign(SimTime::from_secs(60));

        let mut response = match z.lookup(&n("www.vict.im"), RecordType::A) {
            LookupResult::Records(rrs) => rrs,
            other => panic!("unexpected {other:?}"),
        };
        response.extend(z.dnskey_records());
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 60);
        assert_eq!(v.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Secure);
    }

    #[test]
    fn srv_and_ipseckey_lookups() {
        let z = victim_zone();
        assert!(matches!(z.lookup(&n("_xmpp-server._tcp.vict.im"), RecordType::SRV), LookupResult::Records(_)));
        assert!(matches!(z.lookup(&n("vpn.vict.im"), RecordType::IPSECKEY), LookupResult::Records(_)));
    }

    /// Number of data records in the zone (excluding DNSSEC artifacts).
    fn record_count(z: &Zone) -> usize {
        z.records
            .values()
            .flatten()
            .filter(|rr| {
                !matches!(rr.rtype(), RecordType::RRSIG | RecordType::NSEC | RecordType::NSEC3 | RecordType::DNSKEY)
            })
            .count()
    }

    #[test]
    fn record_count_and_names() {
        let z = victim_zone();
        let unsigned_count = record_count(&z);
        assert!(unsigned_count >= 10);
        assert!(z.names().any(|name| *name == n("mail.vict.im")));
        assert!(z.contains(&n("deep.sub.domain.vict.im")));
        assert!(!z.contains(&n("vict.com")));
        // Signing adds DNSSEC artifacts but does not change the data count.
        let signed = signed_victim_zone(SigningPolicy::default());
        assert_eq!(record_count(&signed), unsigned_count);
    }
}

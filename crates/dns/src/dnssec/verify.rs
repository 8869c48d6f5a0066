//! The validating side: DS-anchored DNSKEY verification, per-RRset RRSIG
//! checks, and authenticated denial of existence.
//!
//! [`Validator::validate`] implements the RFC 4035 state machine the
//! simulation needs: a response is `Secure` when every RRset chains to the
//! trust anchor, `Insecure` when the zone has no anchor (or an unsigned
//! RRset is admitted through a verified opt-out NSEC3 span — the opt-out
//! abuse surface), and `Bogus` otherwise.

use super::denial::{base32hex_decode, nsec3_covers, nsec3_hash, nsec_covers, Nsec3Params};
use super::keys::{key_tag_of, DsAnchor};
use super::sign::compute_signature;
use crate::name::DomainName;
use crate::rdata::{RData, RecordType, ResourceRecord};
use std::collections::BTreeMap;

/// The RFC 4033 validation states the simulation distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validation {
    /// Every RRset verified up to the trust anchor.
    Secure,
    /// No trust anchor covers the zone (or data was admitted through an
    /// opt-out span); the data is accepted but unauthenticated.
    Insecure,
    /// Validation was attempted and failed; the response must be discarded.
    Bogus(String),
}

impl Validation {
    /// Whether a validating resolver accepts data in this state.
    pub fn accepted(&self) -> bool {
        !matches!(self, Validation::Bogus(_))
    }
}

/// Checks one RRSIG against one RRset and one candidate DNSKEY at time
/// `now_secs` (simulated seconds): validity window, key tag, algorithm,
/// and the recomputed signature over the canonical RRset bytes.
pub fn rrsig_verifies(rrsig: &ResourceRecord, rrset: &[ResourceRecord], dnskey: &RData, now_secs: u32) -> bool {
    let RData::Rrsig {
        type_covered,
        algorithm,
        labels,
        original_ttl,
        expiration,
        inception,
        key_tag,
        signer,
        signature,
    } = &rrsig.rdata
    else {
        return false;
    };
    let RData::Dnskey { algorithm: key_algorithm, public_key, .. } = dnskey else {
        return false;
    };
    if algorithm != key_algorithm || now_secs < *inception || now_secs > *expiration {
        return false;
    }
    let mut key_rdata = Vec::new();
    dnskey.encode(&mut key_rdata);
    if key_tag_of(&key_rdata) != *key_tag {
        return false;
    }
    if rrset.first().map(ResourceRecord::rtype) != Some(*type_covered) {
        return false;
    }
    let expected = compute_signature(
        public_key,
        *type_covered,
        *algorithm,
        *labels,
        *original_ttl,
        *expiration,
        *inception,
        *key_tag,
        signer,
        rrset,
    );
    expected == *signature
}

/// One RRset pulled out of a response, with the RRSIGs that claim to cover
/// it.
struct GroupedSet {
    records: Vec<ResourceRecord>,
    rrsigs: Vec<ResourceRecord>,
    verified: bool,
}

/// A validating resolver's view of one zone: its apex, the DS trust anchor
/// (if any), and the current simulated time.
pub struct Validator {
    zone: DomainName,
    anchor: Option<DsAnchor>,
    now_secs: u32,
}

impl Validator {
    /// Creates a validator for `zone` holding `anchor` at `now_secs`.
    pub fn new(zone: DomainName, anchor: Option<DsAnchor>, now_secs: u32) -> Self {
        Validator { zone, anchor, now_secs }
    }

    /// Validates a full response (answer + authority + additional records
    /// concatenated) to the question `(qname, qtype)`.
    pub fn validate(&self, records: &[ResourceRecord], qname: &DomainName, qtype: RecordType) -> Validation {
        let Some(anchor) = self.anchor.as_ref() else {
            // No chain of trust reaches this zone: classic downgrade
            // territory. The data is accepted, unauthenticated.
            return Validation::Insecure;
        };

        // Group the response into RRsets keyed by (owner, type), with the
        // RRSIGs filed under the type they cover.
        let mut sets: BTreeMap<(String, u16), GroupedSet> = BTreeMap::new();
        for rr in records {
            if rr.rtype() == RecordType::OPT {
                continue;
            }
            let owner = rr.name.to_lowercase().to_string();
            let key = (owner, rr.rdata.covered_type().number());
            let entry = key_entry(&mut sets, key);
            if rr.rtype() == RecordType::RRSIG {
                entry.rrsigs.push(rr.clone());
            } else {
                entry.records.push(rr.clone());
            }
        }

        // Step 1: the DNSKEY RRset at the apex must chain to the anchor.
        let apex = self.zone.to_lowercase().to_string();
        let Some(dnskey_set) = sets.get(&(apex.clone(), RecordType::DNSKEY.number())) else {
            return Validation::Bogus("response carries no DNSKEY RRset at the zone apex".into());
        };
        let Some(anchored_ksk) =
            dnskey_set.records.iter().find(|rr| anchor.matches(&self.zone, &rr.rdata)).map(|rr| rr.rdata.clone())
        else {
            return Validation::Bogus("no published DNSKEY matches the DS trust anchor".into());
        };
        let dnskey_records = dnskey_set.records.clone();
        let dnskey_verified = dnskey_set
            .rrsigs
            .iter()
            .any(|sig| self.signer_is_zone(sig) && rrsig_verifies(sig, &dnskey_records, &anchored_ksk, self.now_secs));
        if !dnskey_verified {
            return Validation::Bogus("DNSKEY RRset does not verify under the anchored KSK".into());
        }

        // Step 2: every other RRset must verify under some published DNSKEY.
        let zone_keys: Vec<RData> = dnskey_records.iter().map(|rr| rr.rdata.clone()).collect();
        let mut verified_nsec: Vec<ResourceRecord> = Vec::new();
        let mut verified_nsec3: Vec<ResourceRecord> = Vec::new();
        let mut unsigned: Vec<(String, u16)> = Vec::new();
        let keys: Vec<(String, u16)> = sets.keys().cloned().collect();
        for key in keys {
            if key == (apex.clone(), RecordType::DNSKEY.number()) {
                sets.get_mut(&(apex.clone(), RecordType::DNSKEY.number())).expect("present").verified = true;
                continue;
            }
            let set = sets.get(&key).expect("present");
            if set.records.is_empty() {
                continue; // stray RRSIG with no covered set; ignore it
            }
            let set_verified = set.rrsigs.iter().any(|sig| {
                self.signer_is_zone(sig)
                    && zone_keys.iter().any(|k| rrsig_verifies(sig, &set.records, k, self.now_secs))
            });
            if set_verified {
                let set = sets.get_mut(&key).expect("present");
                set.verified = true;
                for rr in &set.records {
                    match rr.rtype() {
                        RecordType::NSEC => verified_nsec.push(rr.clone()),
                        RecordType::NSEC3 => verified_nsec3.push(rr.clone()),
                        _ => {}
                    }
                }
            } else if set.rrsigs.is_empty() {
                unsigned.push(key);
            } else {
                return Validation::Bogus(format!(
                    "RRSIG verification failed for {} type {}",
                    set.records[0].name,
                    set.records[0].rtype().number()
                ));
            }
        }

        // Step 3: unsigned RRsets are only tolerated when a *verified*
        // opt-out NSEC3 span covers their owner — RFC 5155 §6's insecure
        // delegation rule, and exactly the gap opt-out abuse drives through.
        let mut downgraded = false;
        for key in &unsigned {
            let owner = &sets[key].records[0].name;
            if self.covered_by_opt_out(owner, &verified_nsec3) {
                downgraded = true;
            } else {
                return Validation::Bogus(format!("unsigned RRset for {} type {} without opt-out cover", owner, key.1));
            }
        }

        // Step 4: a response that does not answer the question must carry
        // an authenticated proof of nonexistence.
        let qkey = qname.to_lowercase().to_string();
        let positive = if qtype == RecordType::ANY {
            sets.iter().any(|((owner, _), s)| *owner == qkey && !s.records.is_empty())
        } else {
            [qtype, RecordType::CNAME]
                .iter()
                .any(|t| sets.get(&(qkey.clone(), t.number())).is_some_and(|s| !s.records.is_empty()))
        };
        if !positive && !self.denial_proven(qname, qtype, &verified_nsec, &verified_nsec3) {
            return Validation::Bogus(format!("denial of existence for {qname} not authenticated"));
        }

        if downgraded {
            Validation::Insecure
        } else {
            Validation::Secure
        }
    }

    fn signer_is_zone(&self, rrsig: &ResourceRecord) -> bool {
        matches!(&rrsig.rdata, RData::Rrsig { signer, .. } if *signer == self.zone)
    }

    fn covered_by_opt_out(&self, owner: &DomainName, nsec3s: &[ResourceRecord]) -> bool {
        nsec3s.iter().any(|rr| match &rr.rdata {
            RData::Nsec3 { flags, iterations, salt, next_hashed, .. } if flags & 1 == 1 => {
                let params = Nsec3Params { salt: salt.clone(), iterations: *iterations, opt_out: true };
                let target = nsec3_hash(owner, &params);
                owner_hash_of(rr).is_some_and(|own| nsec3_covers(&own, next_hashed, &target))
            }
            _ => false,
        })
    }

    fn denial_proven(
        &self,
        qname: &DomainName,
        qtype: RecordType,
        nsecs: &[ResourceRecord],
        nsec3s: &[ResourceRecord],
    ) -> bool {
        let nsec_proof = nsecs.iter().any(|rr| match &rr.rdata {
            RData::Nsec { next, types } => {
                if rr.name == *qname {
                    // NoData: the name exists but the type is absent.
                    !types.contains(&qtype)
                } else {
                    // NXDOMAIN: the span strictly covers the name.
                    nsec_covers(&rr.name, next, qname)
                }
            }
            _ => false,
        });
        if nsec_proof {
            return true;
        }
        nsec3s.iter().any(|rr| match &rr.rdata {
            RData::Nsec3 { iterations, salt, next_hashed, types, .. } => {
                let params = Nsec3Params { salt: salt.clone(), iterations: *iterations, opt_out: false };
                let qhash = nsec3_hash(qname, &params);
                let Some(own) = owner_hash_of(rr) else { return false };
                if own == qhash {
                    !types.contains(&qtype)
                } else {
                    nsec3_covers(&own, next_hashed, &qhash)
                }
            }
            _ => false,
        })
    }
}

fn key_entry(sets: &mut BTreeMap<(String, u16), GroupedSet>, key: (String, u16)) -> &mut GroupedSet {
    sets.entry(key).or_insert_with(|| GroupedSet { records: Vec::new(), rrsigs: Vec::new(), verified: false })
}

/// Decodes the hash out of an NSEC3 owner name's first label.
fn owner_hash_of(rr: &ResourceRecord) -> Option<Vec<u8>> {
    rr.name.labels().next().and_then(base32hex_decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnssec::denial::{nsec3_chain, nsec_chain};
    use crate::dnssec::keys::KeyManager;
    use crate::dnssec::sign::{DenialConfig, Signer, SigningPolicy};
    use netsim::prelude::SimTime;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn a(s: &str) -> RData {
        RData::A(s.parse().unwrap())
    }

    /// Builds a minimal signed response: DNSKEY RRset + RRSIG, plus the
    /// given RRset and its RRSIG.
    fn signed_response(keys: &KeyManager, rrset: &[ResourceRecord]) -> Vec<ResourceRecord> {
        let policy = SigningPolicy::default();
        let signer = Signer::new(keys, &policy, n("vict.im"));
        let dnskeys: Vec<ResourceRecord> =
            keys.published_dnskeys().into_iter().map(|rd| ResourceRecord::new(n("vict.im"), 300, rd)).collect();
        let mut out = Vec::new();
        out.push(signer.sign_rrset(&dnskeys, SimTime::ZERO));
        out.extend(dnskeys);
        if !rrset.is_empty() {
            out.push(signer.sign_rrset(rrset, SimTime::ZERO));
            out.extend(rrset.iter().cloned());
        }
        out
    }

    #[test]
    fn genuine_signed_answer_is_secure() {
        let keys = KeyManager::new(7);
        let anchor = keys.anchor(&n("vict.im"));
        let rrset = vec![ResourceRecord::new(n("www.vict.im"), 300, a("30.0.0.80"))];
        let response = signed_response(&keys, &rrset);
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert_eq!(v.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Secure);
    }

    #[test]
    fn forged_rdata_is_bogus() {
        let keys = KeyManager::new(7);
        let anchor = keys.anchor(&n("vict.im"));
        let rrset = vec![ResourceRecord::new(n("www.vict.im"), 300, a("30.0.0.80"))];
        let mut response = signed_response(&keys, &rrset);
        // The off-path attacker swaps the address after signing.
        for rr in &mut response {
            if rr.rtype() == RecordType::A {
                rr.rdata = a("6.6.6.6");
            }
        }
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert!(matches!(v.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Bogus(_)));
    }

    #[test]
    fn stripped_rrsigs_are_bogus_with_anchor_insecure_without() {
        let keys = KeyManager::new(7);
        let anchor = keys.anchor(&n("vict.im"));
        let rrset = vec![ResourceRecord::new(n("www.vict.im"), 300, a("6.6.6.6"))];
        let response: Vec<ResourceRecord> =
            signed_response(&keys, &rrset).into_iter().filter(|rr| rr.rtype() != RecordType::RRSIG).collect();
        let anchored = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert!(matches!(anchored.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Bogus(_)));
        // Without a DS anchor the same stripped response sails through as
        // Insecure — the downgrade-to-insecure attack in one assertion.
        let unanchored = Validator::new(n("vict.im"), None, 0);
        assert_eq!(unanchored.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Insecure);
    }

    #[test]
    fn wrong_zone_key_is_bogus() {
        let keys = KeyManager::new(7);
        let other = KeyManager::new(99);
        let anchor = keys.anchor(&n("vict.im"));
        let rrset = vec![ResourceRecord::new(n("www.vict.im"), 300, a("6.6.6.6"))];
        // Signed consistently, but by a key hierarchy the anchor never blessed.
        let response = signed_response(&other, &rrset);
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert!(matches!(v.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Bogus(_)));
    }

    #[test]
    fn nsec_denial_is_required_and_sufficient() {
        let keys = KeyManager::new(7);
        let anchor = keys.anchor(&n("vict.im"));
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);

        // An empty negative answer without proof is bogus.
        let bare = signed_response(&keys, &[]);
        assert!(matches!(v.validate(&bare, &n("nope.vict.im"), RecordType::A), Validation::Bogus(_)));

        // Adding the signed covering NSEC makes the denial authentic.
        let chain = nsec_chain(
            &[
                (n("vict.im"), vec![RecordType::SOA, RecordType::NS]),
                (n("mail.vict.im"), vec![RecordType::A]),
                (n("www.vict.im"), vec![RecordType::A]),
            ],
            300,
        );
        let covering = chain.into_iter().find(|rr| rr.name.to_lowercase() == n("mail.vict.im")).expect("span exists");
        let policy = SigningPolicy::default();
        let signer = Signer::new(&keys, &policy, n("vict.im"));
        let mut proven = signed_response(&keys, &[]);
        proven.push(signer.sign_rrset(std::slice::from_ref(&covering), SimTime::ZERO));
        proven.push(covering);
        assert_eq!(v.validate(&proven, &n("nope.vict.im"), RecordType::A), Validation::Secure);
        // The same proof does not cover a name that exists.
        assert!(matches!(v.validate(&proven, &n("www.vict.im"), RecordType::A), Validation::Bogus(_)));
    }

    #[test]
    fn opt_out_span_admits_unsigned_rrset_as_insecure() {
        let keys = KeyManager::new(7);
        let anchor = keys.anchor(&n("vict.im"));
        let params = Nsec3Params::standard(true);
        let chain = nsec3_chain(
            &[(n("vict.im"), vec![RecordType::SOA]), (n("www.vict.im"), vec![RecordType::A])],
            &params,
            &n("vict.im"),
            300,
        );
        let rogue = n("rogue.vict.im");
        let covering = chain
            .iter()
            .find(|rr| match &rr.rdata {
                RData::Nsec3 { next_hashed, .. } => {
                    let own = owner_hash_of(rr).expect("base32hex owner");
                    nsec3_covers(&own, next_hashed, &nsec3_hash(&rogue, &params))
                }
                _ => false,
            })
            .expect("one span covers the rogue name")
            .clone();
        let policy = SigningPolicy { denial: DenialConfig::Nsec3(Nsec3Params::standard(true)), ..Default::default() };
        let signer = Signer::new(&keys, &policy, n("vict.im"));
        let mut response = signed_response(&keys, &[]);
        response.push(signer.sign_rrset(std::slice::from_ref(&covering), SimTime::ZERO));
        response.push(covering);
        // The forged, unsigned answer rides in under the opt-out span.
        response.push(ResourceRecord::new(rogue.clone(), 300, a("6.6.6.6")));
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert_eq!(v.validate(&response, &rogue, RecordType::A), Validation::Insecure);

        // Without the opt-out flag the same unsigned RRset is bogus.
        let strict_params = Nsec3Params::standard(false);
        let strict_chain = nsec3_chain(
            &[(n("vict.im"), vec![RecordType::SOA]), (n("www.vict.im"), vec![RecordType::A])],
            &strict_params,
            &n("vict.im"),
            300,
        );
        let strict_covering = strict_chain
            .iter()
            .find(|rr| match &rr.rdata {
                RData::Nsec3 { next_hashed, .. } => {
                    let own = owner_hash_of(rr).expect("base32hex owner");
                    nsec3_covers(&own, next_hashed, &nsec3_hash(&rogue, &strict_params))
                }
                _ => false,
            })
            .expect("one span covers the rogue name")
            .clone();
        let mut strict_response = signed_response(&keys, &[]);
        strict_response.push(signer.sign_rrset(std::slice::from_ref(&strict_covering), SimTime::ZERO));
        strict_response.push(strict_covering);
        strict_response.push(ResourceRecord::new(rogue.clone(), 300, a("6.6.6.6")));
        assert!(matches!(v.validate(&strict_response, &rogue, RecordType::A), Validation::Bogus(_)));
    }

    #[test]
    fn retired_key_signature_fails_after_drop() {
        let mut keys = KeyManager::new(7);
        let old_zsk = keys.active_zsk().clone();
        keys.start_rollover();
        keys.promote_rollover();
        // Retired but still published: a signature by the old key verifies.
        let anchor = keys.anchor(&n("vict.im"));
        let policy = SigningPolicy::default();
        let rrset = vec![ResourceRecord::new(n("www.vict.im"), 300, a("6.6.6.6"))];
        let signer = Signer::new(&keys, &policy, n("vict.im"));
        let forged_sig = signer.sign_rrset_with(&old_zsk, &rrset, SimTime::ZERO);
        let mut response = signed_response(&keys, &[]);
        response.push(forged_sig.clone());
        response.extend(rrset.iter().cloned());
        let v = Validator::new(n("vict.im"), Some(anchor.clone()), 0);
        assert_eq!(v.validate(&response, &n("www.vict.im"), RecordType::A), Validation::Secure);

        // Once the zone drops the retired key, the same response is bogus.
        keys.drop_retired();
        let mut post = signed_response(&keys, &[]);
        post.push(forged_sig);
        post.extend(rrset.iter().cloned());
        assert!(matches!(v.validate(&post, &n("www.vict.im"), RecordType::A), Validation::Bogus(_)));
    }
}

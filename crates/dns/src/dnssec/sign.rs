//! The signer: RFC 4034 §6 canonical form and real RRSIG production.
//!
//! A [`Signer`] is a [`KeyManager`] plus a [`SigningPolicy`]; its
//! [`Signer::sign_rrset`] produces an `RRSIG` whose signature is the keyed
//! hash of the canonical RRset, bound to an inception/expiration window on
//! simulated time. The same canonical bytes are recomputed by
//! [`crate::dnssec::verify`], so any bit flipped in signed rdata breaks the
//! signature.
//!
//! ```
//! use dns::dnssec::{KeyManager, Signer, SigningPolicy};
//! use dns::dnssec::verify::rrsig_verifies;
//! use dns::prelude::*;
//! use netsim::prelude::SimTime;
//!
//! let keys = KeyManager::new(7);
//! let policy = SigningPolicy::default();
//! let signer = Signer::new(&keys, &policy, "vict.im".parse().unwrap());
//!
//! let owner: DomainName = "www.vict.im".parse().unwrap();
//! let rrset = vec![ResourceRecord::new(owner.clone(), 300, RData::A("30.0.0.80".parse().unwrap()))];
//! let rrsig = signer.sign_rrset(&rrset, SimTime::ZERO);
//!
//! // The genuine RRset verifies against the published DNSKEY…
//! assert!(rrsig_verifies(&rrsig, &rrset, &keys.active_zsk().dnskey(), 0));
//!
//! // …but flipping a single rdata bit (a fragment-swapped tail, say)
//! // breaks the signature.
//! let forged = vec![ResourceRecord::new(owner, 300, RData::A("6.6.6.6".parse().unwrap()))];
//! assert!(!rrsig_verifies(&rrsig, &forged, &keys.active_zsk().dnskey(), 0));
//! ```

use super::denial::Nsec3Params;
use super::keys::{KeyManager, KeyPair};
use super::{keyed_hash, sim_secs};
use crate::name::{cmp_label_seqs, DomainName};
use crate::rdata::{RData, RecordType, ResourceRecord};
use netsim::prelude::{Duration, SimTime};
use std::cmp::Ordering;

/// How the zone proves nonexistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenialConfig {
    /// Plain NSEC: a chain over the real owner names in canonical order.
    /// Walkable — the chain enumerates the zone.
    Nsec,
    /// NSEC3: a chain over hashed owner names (RFC 5155), optionally with
    /// opt-out spans.
    Nsec3(Nsec3Params),
}

/// Operational signing parameters, the policy half of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigningPolicy {
    /// How long signatures stay valid after inception.
    pub validity: Duration,
    /// How far signatures are backdated, absorbing clock skew.
    pub inception_backdate: Duration,
    /// Denial-of-existence flavour.
    pub denial: DenialConfig,
    /// RFC 6781 rollover strictness: when true, a promoted-out ZSK leaves
    /// the DNSKEY RRset immediately instead of lingering through a
    /// retirement window — closing the replay window attackers use.
    pub retire_immediately: bool,
}

impl Default for SigningPolicy {
    fn default() -> Self {
        SigningPolicy {
            validity: Duration::from_secs(30 * 86_400),
            inception_backdate: Duration::from_secs(3_600),
            denial: DenialConfig::Nsec,
            retire_immediately: false,
        }
    }
}

impl SigningPolicy {
    /// The signature window `[inception, expiration]` for a signature made
    /// at `now`, in whole simulated seconds.
    pub fn window(&self, now: SimTime) -> (u32, u32) {
        let now_secs = sim_secs(now);
        let backdate = (self.inception_backdate.as_nanos() / 1_000_000_000) as u32;
        let validity = (self.validity.as_nanos() / 1_000_000_000) as u32;
        (now_secs.saturating_sub(backdate), now_secs.saturating_add(validity))
    }
}

/// RFC 4034 §6.1 canonical name order: compare label sequences from the
/// root down, case-insensitively, byte-wise; a missing label sorts first.
/// This is *not* the `Ord` on [`DomainName`] (which compares most-specific
/// label first); NSEC chains and canonical RRset bytes must use this one.
pub fn canonical_cmp(a: &DomainName, b: &DomainName) -> Ordering {
    cmp_label_seqs(a.raw_labels().rev(), b.raw_labels().rev())
}

/// Lowercases every domain name embedded in rdata, per the canonical form
/// rules of RFC 4034 §6.2.
fn canonical_rdata(rdata: &RData) -> RData {
    match rdata {
        RData::Ns(n) => RData::Ns(n.to_lowercase()),
        RData::Cname(n) => RData::Cname(n.to_lowercase()),
        RData::Soa { mname, rname, serial, refresh, retry, expire, minimum } => RData::Soa {
            mname: mname.to_lowercase(),
            rname: rname.to_lowercase(),
            serial: *serial,
            refresh: *refresh,
            retry: *retry,
            expire: *expire,
            minimum: *minimum,
        },
        RData::Mx { preference, exchange } => RData::Mx { preference: *preference, exchange: exchange.to_lowercase() },
        RData::Srv { priority, weight, port, target } => {
            RData::Srv { priority: *priority, weight: *weight, port: *port, target: target.to_lowercase() }
        }
        RData::Naptr { order, preference, flags, service, regexp, replacement } => RData::Naptr {
            order: *order,
            preference: *preference,
            flags: flags.clone(),
            service: service.clone(),
            regexp: regexp.clone(),
            replacement: replacement.to_lowercase(),
        },
        RData::Nsec { next, types } => RData::Nsec { next: next.to_lowercase(), types: types.clone() },
        other => other.clone(),
    }
}

/// The canonical bytes of one RRset (RFC 4035 §5.3.2): every record as
/// `owner | type | class | original_ttl | rdlen | canonical rdata`, with
/// records sorted by their canonical rdata bytes. Both signing and
/// verification hash exactly these bytes.
pub(crate) fn canonical_rrset_bytes(rrset: &[ResourceRecord], original_ttl: u32) -> Vec<u8> {
    let Some(first) = rrset.first() else { return Vec::new() };
    let mut owner_wire = Vec::new();
    first.name.to_lowercase().encode(&mut owner_wire, None);
    let rtype = first.rtype().number();

    let mut rdatas: Vec<Vec<u8>> = rrset
        .iter()
        .map(|rr| {
            let mut b = Vec::new();
            canonical_rdata(&rr.rdata).encode(&mut b);
            b
        })
        .collect();
    rdatas.sort();

    let mut out = Vec::new();
    for rdata in rdatas {
        out.extend_from_slice(&owner_wire);
        out.extend_from_slice(&rtype.to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        out.extend_from_slice(&original_ttl.to_be_bytes());
        out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        out.extend_from_slice(&rdata);
    }
    out
}

/// The RRSIG rdata fields that are themselves part of the signed data
/// (everything up to and excluding the signature).
#[allow(clippy::too_many_arguments)]
fn rrsig_prefix_bytes(
    type_covered: RecordType,
    algorithm: u8,
    labels: u8,
    original_ttl: u32,
    expiration: u32,
    inception: u32,
    key_tag: u16,
    signer: &DomainName,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&type_covered.number().to_be_bytes());
    out.push(algorithm);
    out.push(labels);
    out.extend_from_slice(&original_ttl.to_be_bytes());
    out.extend_from_slice(&expiration.to_be_bytes());
    out.extend_from_slice(&inception.to_be_bytes());
    out.extend_from_slice(&key_tag.to_be_bytes());
    signer.to_lowercase().encode(&mut out, None);
    out
}

/// Computes the stand-in signature: the keyed hash of the verification key,
/// the RRSIG prefix fields and the canonical RRset bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_signature(
    verification_key: &[u8],
    type_covered: RecordType,
    algorithm: u8,
    labels: u8,
    original_ttl: u32,
    expiration: u32,
    inception: u32,
    key_tag: u16,
    signer: &DomainName,
    rrset: &[ResourceRecord],
) -> Vec<u8> {
    let prefix =
        rrsig_prefix_bytes(type_covered, algorithm, labels, original_ttl, expiration, inception, key_tag, signer);
    let canonical = canonical_rrset_bytes(rrset, original_ttl);
    keyed_hash(&[verification_key, &prefix, &canonical]).to_vec()
}

/// The signing half of the pipeline: keys plus policy plus the zone apex
/// the RRSIG `signer` field names.
pub struct Signer<'a> {
    keys: &'a KeyManager,
    policy: &'a SigningPolicy,
    origin: DomainName,
}

impl<'a> Signer<'a> {
    /// Creates a signer over a key inventory and a policy, signing on
    /// behalf of the zone rooted at `origin`.
    pub fn new(keys: &'a KeyManager, policy: &'a SigningPolicy, origin: DomainName) -> Self {
        Signer { keys, policy, origin }
    }

    /// Signs one RRset with the active ZSK (or, for the DNSKEY RRset
    /// itself, the KSK — RFC 4035 §2.2) at simulated time `now`.
    ///
    /// # Panics
    /// Panics on an empty RRset: there is nothing to bind the owner to.
    pub fn sign_rrset(&self, rrset: &[ResourceRecord], now: SimTime) -> ResourceRecord {
        let rtype = rrset.first().expect("cannot sign an empty RRset").rtype();
        let key = if rtype == RecordType::DNSKEY { self.keys.ksk() } else { self.keys.active_zsk() };
        self.sign_rrset_with(key, rrset, now)
    }

    /// Signs one RRset with an explicit key. Attack drivers use this to
    /// model a compromised ZSK forging data inside a rollover window.
    pub(crate) fn sign_rrset_with(&self, key: &KeyPair, rrset: &[ResourceRecord], now: SimTime) -> ResourceRecord {
        let (inception, expiration) = self.policy.window(now);
        sign_rrset_with_window(key, rrset, &self.origin, inception, expiration)
    }
}

/// Signs an RRset with an explicit key and window; the building block both
/// the policy-driven [`Signer`] and replay-style attack drivers share.
pub fn sign_rrset_with_window(
    key: &KeyPair,
    rrset: &[ResourceRecord],
    signer: &DomainName,
    inception: u32,
    expiration: u32,
) -> ResourceRecord {
    let first = rrset.first().expect("cannot sign an empty RRset");
    let type_covered = first.rtype();
    let labels = first.name.label_count() as u8;
    let original_ttl = first.ttl;
    let key_tag = key.key_tag();
    let signature = compute_signature(
        key.public_key(),
        type_covered,
        key.algorithm,
        labels,
        original_ttl,
        expiration,
        inception,
        key_tag,
        signer,
        rrset,
    );
    ResourceRecord::new(
        first.name.clone(),
        original_ttl,
        RData::Rrsig {
            type_covered,
            algorithm: key.algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer: signer.clone(),
            signature,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnssec::verify::rrsig_verifies;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_order_compares_from_the_root_down() {
        // RFC 4034 §6.1's worked example ordering: sort on the least
        // significant (rightmost) label first, so `x.w.example` (second
        // label `w`) precedes `z.example` (second label `z`).
        let mut names = [n("x.w.example"), n("example"), n("z.example"), n("a.example"), n("yljkjljk.a.example")];
        names.sort_by(canonical_cmp);
        let rendered: Vec<String> = names.iter().map(|d| d.to_string()).collect();
        assert_eq!(rendered, vec!["example", "a.example", "yljkjljk.a.example", "x.w.example", "z.example"]);
    }

    #[test]
    fn canonical_order_is_case_insensitive() {
        assert_eq!(canonical_cmp(&n("WWW.Vict.IM"), &n("www.vict.im")), Ordering::Equal);
    }

    #[test]
    fn signature_covers_every_rdata_bit() {
        let keys = KeyManager::new(7);
        let policy = SigningPolicy::default();
        let signer = Signer::new(&keys, &policy, n("vict.im"));
        let rrset = vec![
            ResourceRecord::new(n("www.vict.im"), 300, RData::A("30.0.0.80".parse().unwrap())),
            ResourceRecord::new(n("www.vict.im"), 300, RData::A("30.0.0.81".parse().unwrap())),
        ];
        let rrsig = signer.sign_rrset(&rrset, SimTime::ZERO);
        let zsk = keys.active_zsk().dnskey();
        assert!(rrsig_verifies(&rrsig, &rrset, &zsk, 0));

        // Record order inside the set does not matter (canonical sort)…
        let reordered = vec![rrset[1].clone(), rrset[0].clone()];
        assert!(rrsig_verifies(&rrsig, &reordered, &zsk, 0));

        // …but changing one address does.
        let mut swapped = rrset.clone();
        swapped[1].rdata = RData::A("6.6.6.6".parse().unwrap());
        assert!(!rrsig_verifies(&rrsig, &swapped, &zsk, 0));
    }

    #[test]
    fn signature_window_tracks_sim_time() {
        let keys = KeyManager::new(7);
        let policy = SigningPolicy { validity: Duration::from_secs(600), ..Default::default() };
        let signer = Signer::new(&keys, &policy, n("vict.im"));
        let rrset = vec![ResourceRecord::new(n("www.vict.im"), 300, RData::A("30.0.0.80".parse().unwrap()))];
        let rrsig = signer.sign_rrset(&rrset, SimTime::from_secs(5_000));
        let zsk = keys.active_zsk().dnskey();
        assert!(rrsig_verifies(&rrsig, &rrset, &zsk, 5_000));
        assert!(rrsig_verifies(&rrsig, &rrset, &zsk, 5_600));
        assert!(!rrsig_verifies(&rrsig, &rrset, &zsk, 5_601), "expired signatures must fail");
        assert!(!rrsig_verifies(&rrsig, &rrset, &zsk, 1_000), "not yet valid signatures must fail");
    }

    #[test]
    fn dnskey_rrsets_are_signed_by_the_ksk() {
        let keys = KeyManager::new(7);
        let policy = SigningPolicy::default();
        let signer = Signer::new(&keys, &policy, n("vict.im"));
        let rrset: Vec<ResourceRecord> =
            keys.published_dnskeys().into_iter().map(|rdata| ResourceRecord::new(n("vict.im"), 300, rdata)).collect();
        let rrsig = signer.sign_rrset(&rrset, SimTime::ZERO);
        assert!(rrsig_verifies(&rrsig, &rrset, &keys.ksk().dnskey(), 0));
        assert!(!rrsig_verifies(&rrsig, &rrset, &keys.active_zsk().dnskey(), 0));
    }
}

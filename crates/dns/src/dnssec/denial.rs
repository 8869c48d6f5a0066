//! Authenticated denial of existence: NSEC chains in canonical order and
//! NSEC3 chains in hashed order (RFC 5155), with opt-out.
//!
//! The chain builders produce the denial records a zone signer inserts; the
//! coverage predicates ([`nsec_covers`], [`nsec3_covers`]) are shared with
//! the validator, which uses them to check that a negative answer really
//! proves the queried name does not exist.

use super::keyed_hash;
use super::sign::canonical_cmp;
use crate::name::DomainName;
use crate::rdata::{RData, RecordType, ResourceRecord};
use std::cmp::Ordering;

/// NSEC3 hashing parameters (RFC 5155 §5), shared by the NSEC3PARAM-style
/// zone configuration and every NSEC3 record the zone emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nsec3Params {
    /// Salt mixed into each hash iteration.
    pub salt: Vec<u8>,
    /// Extra hash iterations beyond the first.
    pub iterations: u16,
    /// Whether NSEC3 records assert the opt-out flag: spans may skip
    /// insecure delegations, which is exactly the gap opt-out abuse forges
    /// into.
    pub opt_out: bool,
}

impl Nsec3Params {
    /// The parameters the simulation's signed zones use by default.
    pub fn standard(opt_out: bool) -> Self {
        Nsec3Params { salt: vec![0xda, 0x15], iterations: 2, opt_out }
    }

    /// The RFC 5155 flags byte: bit 0 is opt-out.
    pub fn flags(&self) -> u8 {
        if self.opt_out {
            1
        } else {
            0
        }
    }
}

/// The NSEC3 hash of a name: iterated keyed hash over the lowercased wire
/// form plus salt (the simulation's stand-in for iterated SHA-1).
pub fn nsec3_hash(name: &DomainName, params: &Nsec3Params) -> Vec<u8> {
    let mut wire = Vec::new();
    name.to_lowercase().encode(&mut wire, None);
    let mut digest = keyed_hash(&[&wire, &params.salt]).to_vec();
    for _ in 0..params.iterations {
        digest = keyed_hash(&[&digest, &params.salt]).to_vec();
    }
    digest
}

const BASE32HEX: &[u8; 32] = b"0123456789abcdefghijklmnopqrstuv";

/// Encodes bytes in base32hex without padding (RFC 4648 §7), lowercased as
/// NSEC3 owner labels conventionally are.
pub(crate) fn base32hex_encode(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for &b in bytes {
        acc = (acc << 8) | u32::from(b);
        bits += 8;
        while bits >= 5 {
            bits -= 5;
            out.push(BASE32HEX[((acc >> bits) & 0x1f) as usize] as char);
        }
    }
    if bits > 0 {
        out.push(BASE32HEX[((acc << (5 - bits)) & 0x1f) as usize] as char);
    }
    out
}

/// Decodes a base32hex string (case-insensitive, no padding); `None` on any
/// character outside the alphabet.
pub(crate) fn base32hex_decode(s: &str) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for c in s.bytes() {
        let v = BASE32HEX.iter().position(|&a| a == c.to_ascii_lowercase())? as u32;
        acc = (acc << 5) | v;
        bits += 5;
        if bits >= 8 {
            bits -= 8;
            out.push(((acc >> bits) & 0xff) as u8);
        }
    }
    Some(out)
}

/// Whether the NSEC span `(owner, next)` covers `name` (strictly between
/// the two in canonical order, with wraparound on the last span).
pub fn nsec_covers(owner: &DomainName, next: &DomainName, name: &DomainName) -> bool {
    match canonical_cmp(owner, next) {
        Ordering::Less => canonical_cmp(owner, name) == Ordering::Less && canonical_cmp(name, next) == Ordering::Less,
        // Wraparound span (last NSEC points back at the apex): covers
        // everything after the owner or before the apex.
        _ => canonical_cmp(owner, name) == Ordering::Less || canonical_cmp(name, next) == Ordering::Less,
    }
}

/// Whether the NSEC3 span `(owner_hash, next_hash)` covers `target` in
/// hashed order, with wraparound on the last span.
pub fn nsec3_covers(owner_hash: &[u8], next_hash: &[u8], target: &[u8]) -> bool {
    if owner_hash < next_hash {
        owner_hash < target && target < next_hash
    } else {
        owner_hash < target || target < next_hash
    }
}

/// Builds the NSEC chain for a zone: one record per owner name, linked in
/// RFC 4034 §6.1 canonical order, the last wrapping back to the first.
/// `names` carries each owner with the record types present at it (the
/// builder adds NSEC and RRSIG to every type bitmap, since signing inserts
/// both).
pub fn nsec_chain(names: &[(DomainName, Vec<RecordType>)], ttl: u32) -> Vec<ResourceRecord> {
    let mut sorted: Vec<&(DomainName, Vec<RecordType>)> = names.iter().collect();
    sorted.sort_by(|a, b| canonical_cmp(&a.0, &b.0));
    let count = sorted.len();
    (0..count)
        .map(|i| {
            let (owner, types) = sorted[i];
            let (next, _) = sorted[(i + 1) % count];
            let mut types = types.clone();
            types.push(RecordType::NSEC);
            types.push(RecordType::RRSIG);
            ResourceRecord::new(owner.clone(), ttl, RData::Nsec { next: next.clone(), types })
        })
        .collect()
}

/// Builds the NSEC3 chain: owners hashed, sorted by hash, linked with
/// wraparound. With opt-out, callers simply leave unsigned delegations out
/// of `names`; the resulting spans then cover (and thereby permit) them.
pub fn nsec3_chain(
    names: &[(DomainName, Vec<RecordType>)],
    params: &Nsec3Params,
    origin: &DomainName,
    ttl: u32,
) -> Vec<ResourceRecord> {
    let mut hashed: Vec<(Vec<u8>, &DomainName, &Vec<RecordType>)> =
        names.iter().map(|(name, types)| (nsec3_hash(name, params), name, types)).collect();
    hashed.sort_by(|a, b| a.0.cmp(&b.0));
    let count = hashed.len();
    (0..count)
        .map(|i| {
            let (hash, _, types) = &hashed[i];
            let (next_hash, _, _) = &hashed[(i + 1) % count];
            let mut types = (*types).clone();
            types.push(RecordType::RRSIG);
            let owner = origin.prepend(&base32hex_encode(hash)).expect("base32hex NSEC3 labels fit label limits");
            ResourceRecord::new(
                owner,
                ttl,
                RData::Nsec3 {
                    hash_algorithm: 1,
                    flags: params.flags(),
                    iterations: params.iterations,
                    salt: params.salt.clone(),
                    next_hashed: next_hash.clone(),
                    types,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn base32hex_roundtrip() {
        for bytes in [&b""[..], &b"f"[..], &b"fo"[..], &b"foobar"[..], &[0u8, 0xff, 0x10][..]] {
            let enc = base32hex_encode(bytes);
            assert_eq!(base32hex_decode(&enc).as_deref(), Some(bytes), "roundtrip of {bytes:?} via {enc}");
        }
        assert_eq!(base32hex_encode(b"foobar"), "cpnmuoj1e8");
        assert_eq!(base32hex_decode("not base32!"), None);
    }

    #[test]
    fn nsec3_hash_depends_on_salt_and_iterations() {
        let base = Nsec3Params::standard(false);
        let salted = Nsec3Params { salt: vec![1, 2, 3], ..base.clone() };
        let iterated = Nsec3Params { iterations: 5, ..base.clone() };
        let name = n("www.vict.im");
        assert_ne!(nsec3_hash(&name, &base), nsec3_hash(&name, &salted));
        assert_ne!(nsec3_hash(&name, &base), nsec3_hash(&name, &iterated));
        // Hashing is case-insensitive over the owner name.
        assert_eq!(nsec3_hash(&n("WWW.Vict.IM"), &base), nsec3_hash(&name, &base));
    }

    #[test]
    fn nsec_chain_links_in_canonical_order_and_wraps() {
        let names = vec![
            (n("vict.im"), vec![RecordType::SOA, RecordType::NS]),
            (n("www.vict.im"), vec![RecordType::A]),
            (n("mail.vict.im"), vec![RecordType::A]),
        ];
        let chain = nsec_chain(&names, 300);
        assert_eq!(chain.len(), 3);
        // Canonical order: vict.im < mail.vict.im < www.vict.im.
        let links: Vec<(String, String)> = chain
            .iter()
            .map(|rr| match &rr.rdata {
                RData::Nsec { next, .. } => (rr.name.to_string(), next.to_string()),
                other => panic!("unexpected rdata {other:?}"),
            })
            .collect();
        assert_eq!(
            links,
            vec![
                ("vict.im".to_string(), "mail.vict.im".to_string()),
                ("mail.vict.im".to_string(), "www.vict.im".to_string()),
                ("www.vict.im".to_string(), "vict.im".to_string()),
            ]
        );
        // The middle span covers nothing that exists; the wrap span covers
        // names past the last owner.
        assert!(nsec_covers(&n("mail.vict.im"), &n("www.vict.im"), &n("nope.vict.im")));
        assert!(!nsec_covers(&n("mail.vict.im"), &n("www.vict.im"), &n("www.vict.im")));
        assert!(nsec_covers(&n("www.vict.im"), &n("vict.im"), &n("zzz.vict.im")));
    }

    #[test]
    fn nsec3_chain_links_in_hashed_order() {
        let params = Nsec3Params::standard(false);
        let origin = n("vict.im");
        let names = vec![
            (n("vict.im"), vec![RecordType::SOA]),
            (n("www.vict.im"), vec![RecordType::A]),
            (n("mail.vict.im"), vec![RecordType::A]),
        ];
        let chain = nsec3_chain(&names, &params, &origin, 300);
        assert_eq!(chain.len(), 3);
        // Every span covers the hash of a nonexistent name exactly once.
        let absent = nsec3_hash(&n("nope.vict.im"), &params);
        let covering = chain
            .iter()
            .filter(|rr| match &rr.rdata {
                RData::Nsec3 { next_hashed, .. } => {
                    let own = base32hex_decode(rr.name.labels().next().expect("hashed owner"))
                        .expect("owner label is base32hex");
                    nsec3_covers(&own, next_hashed, &absent)
                }
                other => panic!("unexpected rdata {other:?}"),
            })
            .count();
        assert_eq!(covering, 1, "exactly one NSEC3 span covers an absent name");
        // And no span covers a name that exists in the chain.
        let present = nsec3_hash(&n("www.vict.im"), &params);
        assert!(chain.iter().all(|rr| match &rr.rdata {
            RData::Nsec3 { next_hashed, .. } => {
                let own =
                    base32hex_decode(rr.name.labels().next().expect("hashed owner")).expect("owner label is base32hex");
                !nsec3_covers(&own, next_hashed, &present)
            }
            _ => unreachable!(),
        }));
    }

    #[test]
    fn opt_out_spans_cover_omitted_delegations() {
        let params = Nsec3Params::standard(true);
        let origin = n("vict.im");
        // The insecure delegation "legacy.vict.im" is left out of the chain.
        let names = vec![(n("vict.im"), vec![RecordType::SOA]), (n("www.vict.im"), vec![RecordType::A])];
        let chain = nsec3_chain(&names, &params, &origin, 300);
        let omitted = nsec3_hash(&n("legacy.vict.im"), &params);
        let covered = chain.iter().any(|rr| match &rr.rdata {
            RData::Nsec3 { flags, next_hashed, .. } => {
                assert_eq!(*flags, 1, "opt-out flag set");
                let own =
                    base32hex_decode(rr.name.labels().next().expect("hashed owner")).expect("owner label is base32hex");
                nsec3_covers(&own, next_hashed, &omitted)
            }
            _ => unreachable!(),
        });
        assert!(covered, "an opt-out span covers the omitted delegation");
    }
}

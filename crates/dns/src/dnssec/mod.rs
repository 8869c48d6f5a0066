//! # dnssec — the deterministic zone-signing pipeline
//!
//! This module converts DNSSEC from the old boolean `Zone::signed` bit into
//! a real subsystem, modelled on the zone-signer / key-manager /
//! signing-policy split of production signers:
//!
//! * [`keys`] — KSK/ZSK keypairs derived from the simulation's ChaCha20
//!   stream, RFC 4034 key tags, DS digests, and the RFC 6781 rollover
//!   timeline (pre-publish → active → retired);
//! * [`sign`] — RFC 4034 §6 canonical ordering and canonical RRset bytes,
//!   and the [`sign::Signer`] that produces real `RRSIG` records whose
//!   inception/expiration windows run on simulated time;
//! * [`denial`] — NSEC chains in canonical order and NSEC3 chains in hashed
//!   order (with opt-out), plus the coverage predicates validators use;
//! * [`verify`] — the validating side: DS-anchored DNSKEY verification,
//!   per-RRset signature checks, and authenticated denial of existence.
//!
//! ## The crypto stand-in
//!
//! Signatures are a keyed hash over the canonical RRset: the DNSKEY's
//! `public_key` bytes double as the MAC key, so *verification is real* —
//! any bit flipped in signed rdata (say, by a spoofed second fragment)
//! breaks the signature, and a cache entry can be re-verified against its
//! RRSIG long after it was inserted. *Unforgeability* is a modelling
//! convention: attack drivers only ever sign with keys their scenario
//! explicitly grants them (e.g. a compromised ZSK inside a rollover
//! window), never with keys they merely observed on the wire.

pub mod denial;
pub mod keys;
pub mod sign;
pub mod verify;

pub use denial::{nsec3_hash, Nsec3Params};
pub use keys::{DsAnchor, KeyManager, KeyPair, RolloverState};
pub use sign::{canonical_cmp, DenialConfig, Signer, SigningPolicy};
pub use verify::{Validation, Validator};

use netsim::prelude::SimTime;

/// Keyed hash standing in for signature crypto: two independent FNV-1a
/// lanes over length-prefixed parts, folded into 16 bytes. Deterministic,
/// dependency-free, and sensitive to every input bit — which is all the
/// simulation needs from it.
pub(crate) fn keyed_hash(parts: &[&[u8]]) -> [u8; 16] {
    fn mix(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x6c62_272e_07bb_0142;
    for part in parts {
        for &b in &(part.len() as u32).to_be_bytes() {
            h1 = mix(h1, b);
            h2 = mix(h2, b ^ 0x5c);
        }
        for &b in *part {
            h1 = mix(h1, b);
            h2 = mix(h2, b ^ 0x36);
        }
    }
    // Final avalanche so trailing-byte changes reach every output bit.
    h1 ^= h1 >> 33;
    h1 = h1.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h2 ^= h2 >> 29;
    h2 = h2.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&(h1 ^ h2.rotate_left(32)).to_be_bytes());
    out[8..].copy_from_slice(&(h2 ^ h1.rotate_left(17)).to_be_bytes());
    out
}

/// Simulated time expressed as the whole seconds RRSIG validity windows are
/// compared in.
pub fn sim_secs(t: SimTime) -> u32 {
    (t.as_nanos() / 1_000_000_000) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_hash_is_deterministic_and_part_sensitive() {
        let a = keyed_hash(&[b"key", b"data"]);
        assert_eq!(a, keyed_hash(&[b"key", b"data"]));
        // Different part boundaries must hash differently.
        assert_ne!(a, keyed_hash(&[b"keyd", b"ata"]));
        assert_ne!(a, keyed_hash(&[b"key", b"datb"]));
        assert_ne!(a, keyed_hash(&[b"key", b"dat"]));
    }

    #[test]
    fn sim_secs_truncates_to_whole_seconds() {
        assert_eq!(sim_secs(SimTime::ZERO), 0);
        assert_eq!(sim_secs(SimTime::from_nanos(1_999_999_999)), 1);
        assert_eq!(sim_secs(SimTime::from_secs(86_400)), 86_400);
    }
}

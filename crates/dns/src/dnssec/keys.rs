//! Key management: deterministic KSK/ZSK generation, RFC 4034 key tags and
//! DS digests, and the RFC 6781 rollover timeline.

use super::keyed_hash;
use crate::name::DomainName;
use crate::rdata::RData;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

/// The private algorithm number the simulation signs with (PRIVATEDNS).
pub(crate) const SIM_ALGORITHM: u8 = 253;

/// The digest algorithm number DS records carry (the keyed-hash stand-in).
pub(crate) const SIM_DIGEST: u8 = 1;

/// DNSKEY flags value of a zone-signing key.
pub(crate) const ZSK_FLAGS: u16 = 256;

/// DNSKEY flags value of a key-signing key (zone key + SEP bit).
pub(crate) const KSK_FLAGS: u16 = 257;

/// One signing keypair. The "public key" bytes double as the keyed-hash MAC
/// key (see the module docs on the crypto stand-in), so holding a `KeyPair`
/// is what grants the ability to sign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    /// DNSKEY flags: `ZSK_FLAGS` or `KSK_FLAGS`.
    pub flags: u16,
    /// Signing algorithm number.
    pub algorithm: u8,
    key: [u8; 16],
}

impl KeyPair {
    /// Generates a keypair from the given RNG stream.
    pub fn generate(rng: &mut ChaCha20Rng, flags: u16) -> Self {
        let mut key = [0u8; 16];
        rng.fill(&mut key[..]);
        KeyPair { flags, algorithm: SIM_ALGORITHM, key }
    }

    /// The verification key bytes published in the DNSKEY record.
    pub fn public_key(&self) -> &[u8] {
        &self.key
    }

    /// The DNSKEY rdata publishing this key.
    pub fn dnskey(&self) -> RData {
        RData::Dnskey { flags: self.flags, algorithm: self.algorithm, public_key: self.key.to_vec() }
    }

    /// RFC 4034 Appendix B key tag: a 16-bit checksum over the DNSKEY rdata
    /// that lets a validator pick the right key out of an RRset.
    pub fn key_tag(&self) -> u16 {
        let mut rdata = Vec::new();
        self.dnskey().encode(&mut rdata);
        key_tag_of(&rdata)
    }

    /// The DS rdata committing to this key, as published at the parent (or
    /// configured as a resolver trust anchor).
    pub fn ds(&self, owner: &DomainName) -> RData {
        RData::Ds {
            key_tag: self.key_tag(),
            algorithm: self.algorithm,
            digest_type: SIM_DIGEST,
            digest: ds_digest(owner, &self.dnskey()),
        }
    }
}

/// Computes the RFC 4034 Appendix B key tag over encoded DNSKEY rdata.
pub(crate) fn key_tag_of(dnskey_rdata: &[u8]) -> u16 {
    let mut acc: u32 = 0;
    for (i, &b) in dnskey_rdata.iter().enumerate() {
        acc += if i % 2 == 0 { u32::from(b) << 8 } else { u32::from(b) };
    }
    acc += acc >> 16;
    (acc & 0xffff) as u16
}

/// Computes the DS digest of a DNSKEY at `owner`.
pub(crate) fn ds_digest(owner: &DomainName, dnskey: &RData) -> Vec<u8> {
    let mut owner_wire = Vec::new();
    owner.to_lowercase().encode(&mut owner_wire, None);
    let mut rdata = Vec::new();
    dnskey.encode(&mut rdata);
    keyed_hash(&[&owner_wire, &rdata]).to_vec()
}

/// A resolver-side trust anchor: the DS a validating resolver holds for a
/// zone, against which the zone's KSK must verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsAnchor {
    /// Key tag of the anchored KSK.
    pub key_tag: u16,
    /// DS digest of the anchored KSK.
    pub digest: Vec<u8>,
}

impl DsAnchor {
    /// Builds an anchor from DS rdata; `None` for any other rdata type.
    pub(crate) fn from_ds(rdata: &RData) -> Option<DsAnchor> {
        match rdata {
            RData::Ds { key_tag, digest, .. } => Some(DsAnchor { key_tag: *key_tag, digest: digest.clone() }),
            _ => None,
        }
    }

    /// Whether `dnskey` at `owner` is the anchored key.
    pub fn matches(&self, owner: &DomainName, dnskey: &RData) -> bool {
        let mut rdata = Vec::new();
        dnskey.encode(&mut rdata);
        self.key_tag == key_tag_of(&rdata) && self.digest == ds_digest(owner, dnskey)
    }
}

/// Lifecycle state of a ZSK in the RFC 6781 rollover timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloverState {
    /// Published in the DNSKEY RRset ahead of use, so caches warm up.
    PrePublish,
    /// The key currently producing zone signatures.
    Active,
    /// No longer signing, but still published so cached signatures verify.
    Retired,
}

/// The zone's key inventory: one KSK and a ZSK timeline. Successor keys are
/// derived from the same seed with an incrementing index, so the whole
/// rollover history is a pure function of the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyManager {
    seed: u64,
    next_index: u32,
    ksk: KeyPair,
    zsks: Vec<(RolloverState, KeyPair)>,
}

impl KeyManager {
    /// Creates a manager with a fresh KSK and one active ZSK, both derived
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut mgr =
            KeyManager { seed, next_index: 0, ksk: Self::derive(seed, u32::MAX, KSK_FLAGS), zsks: Vec::new() };
        let zsk = mgr.next_zsk();
        mgr.zsks.push((RolloverState::Active, zsk));
        mgr
    }

    fn derive(seed: u64, index: u32, flags: u16) -> KeyPair {
        let mut rng = ChaCha20Rng::seed_from_u64(seed ^ (u64::from(index) << 16) ^ u64::from(flags));
        KeyPair::generate(&mut rng, flags)
    }

    fn next_zsk(&mut self) -> KeyPair {
        let key = Self::derive(self.seed, self.next_index, ZSK_FLAGS);
        self.next_index += 1;
        key
    }

    /// The key-signing key.
    pub fn ksk(&self) -> &KeyPair {
        &self.ksk
    }

    /// The ZSK currently producing zone signatures.
    pub fn active_zsk(&self) -> &KeyPair {
        self.zsks
            .iter()
            .find(|(state, _)| *state == RolloverState::Active)
            .map(|(_, key)| key)
            .expect("a KeyManager always has an active ZSK")
    }

    /// The first ZSK in the given state, if any.
    pub fn zsk_in_state(&self, state: RolloverState) -> Option<&KeyPair> {
        self.zsks.iter().find(|(s, _)| *s == state).map(|(_, key)| key)
    }

    /// Every published DNSKEY: the KSK plus all ZSKs still in the timeline
    /// (pre-publish and retired keys stay published; that overlap is the
    /// rollover window attackers care about).
    pub fn published_dnskeys(&self) -> Vec<RData> {
        let mut out = vec![self.ksk.dnskey()];
        out.extend(self.zsks.iter().map(|(_, key)| key.dnskey()));
        out
    }

    /// RFC 6781 step 1: derive the successor ZSK and pre-publish it.
    pub fn start_rollover(&mut self) {
        let key = self.next_zsk();
        self.zsks.push((RolloverState::PrePublish, key));
    }

    /// RFC 6781 step 2: the pre-published key takes over signing; the old
    /// active key is retired but stays published.
    pub fn promote_rollover(&mut self) {
        for (state, _) in &mut self.zsks {
            *state = match state {
                RolloverState::Active => RolloverState::Retired,
                RolloverState::PrePublish => RolloverState::Active,
                RolloverState::Retired => RolloverState::Retired,
            };
        }
    }

    /// RFC 6781 step 3: retired keys leave the DNSKEY RRset; signatures
    /// made with them no longer verify anywhere.
    pub fn drop_retired(&mut self) {
        self.zsks.retain(|(state, _)| *state != RolloverState::Retired);
    }

    /// The resolver trust anchor for this zone's chain of trust.
    pub fn anchor(&self, owner: &DomainName) -> DsAnchor {
        DsAnchor::from_ds(&self.ksk.ds(owner)).expect("KeyPair::ds always builds DS rdata")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> DomainName {
        "vict.im".parse().unwrap()
    }

    #[test]
    fn key_generation_is_deterministic() {
        let a = KeyManager::new(7);
        let b = KeyManager::new(7);
        assert_eq!(a, b);
        let c = KeyManager::new(8);
        assert_ne!(a.ksk().public_key(), c.ksk().public_key());
        assert_ne!(a.active_zsk().public_key(), a.ksk().public_key());
    }

    #[test]
    fn ds_anchor_matches_only_its_own_key() {
        let mgr = KeyManager::new(7);
        let anchor = mgr.anchor(&origin());
        assert!(anchor.matches(&origin(), &mgr.ksk().dnskey()));
        assert!(!anchor.matches(&origin(), &mgr.active_zsk().dnskey()));
        let other = KeyManager::new(9);
        assert!(!anchor.matches(&origin(), &other.ksk().dnskey()));
    }

    #[test]
    fn rollover_timeline_publishes_and_retires() {
        let mut mgr = KeyManager::new(7);
        let first = mgr.active_zsk().clone();
        assert_eq!(mgr.published_dnskeys().len(), 2); // KSK + active ZSK

        mgr.start_rollover();
        assert_eq!(mgr.published_dnskeys().len(), 3); // successor pre-published
        assert_eq!(mgr.active_zsk(), &first, "pre-publish does not change the signer");

        mgr.promote_rollover();
        let second = mgr.active_zsk().clone();
        assert_ne!(second, first);
        assert_eq!(mgr.zsk_in_state(RolloverState::Retired), Some(&first));
        assert_eq!(mgr.published_dnskeys().len(), 3, "retired key stays published");

        mgr.drop_retired();
        assert_eq!(mgr.published_dnskeys().len(), 2);
        assert_eq!(mgr.zsk_in_state(RolloverState::Retired), None);
    }

    #[test]
    fn key_tags_change_with_key_bytes() {
        let mgr = KeyManager::new(7);
        assert_ne!(mgr.ksk().key_tag(), mgr.active_zsk().key_tag());
    }
}

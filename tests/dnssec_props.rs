//! Property tests of the DNSSEC pipeline's structural invariants: RFC 4034
//! §6.1 canonical ordering checked against an independent reference model,
//! closure of the NSEC and NSEC3 denial chains (every absent name falls in
//! exactly one span), and the RFC 6781 key-rollover timeline (signatures
//! survive exactly as long as their key stays published).

use cross_layer_attacks::dns::dnssec::denial::{nsec3_covers, nsec3_hash, nsec_chain, nsec_covers};
use cross_layer_attacks::dns::dnssec::sign::sign_rrset_with_window;
use cross_layer_attacks::dns::dnssec::verify::rrsig_verifies;
use cross_layer_attacks::dns::dnssec::{canonical_cmp, Nsec3Params};
use cross_layer_attacks::dns::prelude::*;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9]{1,8}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("valid labels"))
}

/// The RFC 4034 §6.1 model, built independently of `canonical_cmp`: a name
/// sorts by its label sequence read from the root down, each label
/// lowercased and compared byte-wise, with a shorter name (a prefix of the
/// other's sequence) sorting first.
fn model_key(name: &DomainName) -> Vec<Vec<u8>> {
    name.labels().rev().map(|l| l.to_ascii_lowercase().into_bytes()).collect()
}

fn host(label: &str) -> DomainName {
    format!("{}.vict.im", label.to_ascii_lowercase()).parse().expect("valid host name")
}

/// Distinct owner names under one apex, apex included — the shape a signed
/// zone hands to the chain builders.
fn owner_set(labels: &[String]) -> Vec<(DomainName, Vec<RecordType>)> {
    let mut owners = vec![("vict.im".parse().expect("apex"), vec![RecordType::SOA, RecordType::NS])];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for label in labels {
        if seen.insert(label.to_ascii_lowercase()) {
            owners.push((host(label), vec![RecordType::A]));
        }
    }
    owners
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `canonical_cmp` agrees with the reference model on every pair, which
    /// makes it a total order for free (the model compares plain `Vec`s).
    #[test]
    fn canonical_order_matches_the_rfc_model(names in proptest::collection::vec(arb_name(), 2..8)) {
        for a in &names {
            for b in &names {
                prop_assert_eq!(
                    canonical_cmp(a, b),
                    model_key(a).cmp(&model_key(b)),
                    "canonical_cmp({}, {}) disagrees with the RFC model", a, b
                );
            }
        }
        // Case never affects the order (RFC 4034 §6.1 lowercases first).
        for name in &names {
            let upper: DomainName = name.to_string().to_ascii_uppercase().parse().expect("uppercase form parses");
            prop_assert_eq!(canonical_cmp(name, &upper), Ordering::Equal);
        }
    }

    /// The NSEC chain is one closed cycle in canonical order: every owner
    /// carries exactly one NSEC, following `next` pointers walks the whole
    /// zone and returns to the start, and any absent name is covered by
    /// exactly one span — no gaps to deny from, no overlaps to equivocate.
    #[test]
    fn nsec_chain_is_one_closed_cycle(labels in proptest::collection::vec(arb_label(), 1..10), probe in arb_label()) {
        let owners = owner_set(&labels);
        let chain = nsec_chain(&owners, 300);
        prop_assert_eq!(chain.len(), owners.len(), "one NSEC per owner name");

        // Records come out sorted in canonical order and linked cyclically.
        for pair in chain.windows(2) {
            prop_assert_eq!(canonical_cmp(&pair[0].name, &pair[1].name), Ordering::Less);
        }
        let mut walked = 1;
        let mut at = &chain[0].name;
        loop {
            let record = chain.iter().find(|rr| &rr.name == at).expect("walk stays on owner names");
            let RData::Nsec { next, types } = &record.rdata else {
                return Err(TestCaseError("NSEC chain built a non-NSEC record".into()));
            };
            prop_assert!(types.contains(&RecordType::NSEC) && types.contains(&RecordType::RRSIG));
            if next == &chain[0].name {
                break;
            }
            at = next;
            walked += 1;
            prop_assert!(walked <= chain.len(), "next pointers left the single cycle");
        }
        prop_assert_eq!(walked, chain.len(), "the cycle visits every owner exactly once");

        // Closure: an absent name falls in exactly one span.
        let absent = host(&format!("zz-{probe}"));
        if !owners.iter().any(|(o, _)| o == &absent) {
            let covering = chain
                .iter()
                .filter(|rr| match &rr.rdata {
                    RData::Nsec { next, .. } => nsec_covers(&rr.name, next, &absent),
                    _ => false,
                })
                .count();
            prop_assert_eq!(covering, 1, "absent name {} must sit in exactly one NSEC span", absent);
        }
    }

    /// Same closure property for NSEC3, in hashed order: the chain links the
    /// owner hashes into one cycle and any non-member hash lands in exactly
    /// one span.
    #[test]
    fn nsec3_chain_closes_in_hash_order(labels in proptest::collection::vec(arb_label(), 1..10), probe in arb_label(), opt_out in any::<bool>()) {
        let origin: DomainName = "vict.im".parse().expect("apex");
        let params = Nsec3Params::standard(opt_out);
        let owners = owner_set(&labels);
        let chain = cross_layer_attacks::dns::dnssec::denial::nsec3_chain(&owners, &params, &origin, 300);
        prop_assert_eq!(chain.len(), owners.len());

        let mut hashes: Vec<Vec<u8>> = owners.iter().map(|(o, _)| nsec3_hash(o, &params)).collect();
        hashes.sort();
        for (i, record) in chain.iter().enumerate() {
            let RData::Nsec3 { next_hashed, flags, .. } = &record.rdata else {
                return Err(TestCaseError("NSEC3 chain built a non-NSEC3 record".into()));
            };
            prop_assert_eq!(*flags, params.flags(), "opt-out flag is carried through");
            prop_assert_eq!(next_hashed, &hashes[(i + 1) % hashes.len()], "records link in hash order with wraparound");
        }

        let absent_hash = nsec3_hash(&host(&format!("zz-{probe}")), &params);
        if !hashes.contains(&absent_hash) {
            let covering = chain
                .iter()
                .zip(&hashes)
                .filter(|(rr, hash)| match &rr.rdata {
                    RData::Nsec3 { next_hashed, .. } => nsec3_covers(hash, next_hashed, &absent_hash),
                    _ => false,
                })
                .count();
            prop_assert_eq!(covering, 1, "absent hash must sit in exactly one NSEC3 span");
        }
    }

    /// The RFC 6781 timeline: a signature verifies under its key exactly as
    /// long as that key stays published. Pre-publish keeps the old key
    /// signing; promotion retires it but keeps it published (cached RRSIGs
    /// still verify); dropping the retired key is what finally kills them.
    #[test]
    fn rollover_timeline_keeps_old_signatures_alive_until_drop(seed in any::<u64>()) {
        let origin: DomainName = "vict.im".parse().expect("apex");
        let rrset = [ResourceRecord::new(
            "www.vict.im".parse().expect("owner"),
            300,
            RData::A(std::net::Ipv4Addr::new(30, 0, 0, 80)),
        )];
        let mut keys = KeyManager::new(seed);
        let old_tag = keys.active_zsk().key_tag();
        let rrsig = sign_rrset_with_window(keys.active_zsk(), &rrset, &origin, 0, 3600);

        let verifies_somewhere = |keys: &KeyManager| {
            keys.published_dnskeys().iter().any(|dnskey| rrsig_verifies(&rrsig, &rrset, dnskey, 100))
        };
        prop_assert!(verifies_somewhere(&keys), "fresh signature verifies under the active ZSK");

        // Step 1: pre-publish the successor. The old key keeps signing.
        keys.start_rollover();
        prop_assert_eq!(keys.active_zsk().key_tag(), old_tag, "pre-publish does not change the signer");
        prop_assert!(keys.zsk_in_state(RolloverState::PrePublish).is_some());
        prop_assert!(verifies_somewhere(&keys));

        // Step 2: promote. The old key is retired but still published, so
        // the cached signature still verifies — the window the rollover-
        // forgery attack row lives in.
        keys.promote_rollover();
        prop_assert!(keys.active_zsk().key_tag() != old_tag, "promotion hands signing to the successor");
        let retired_tag = keys.zsk_in_state(RolloverState::Retired).map(|k| k.key_tag());
        prop_assert_eq!(retired_tag, Some(old_tag), "the old signer is retired, not dropped");
        prop_assert!(verifies_somewhere(&keys), "cached signatures survive promotion");

        // Step 3: drop retired keys. Old signatures die with them.
        keys.drop_retired();
        prop_assert!(keys.zsk_in_state(RolloverState::Retired).is_none());
        prop_assert!(!verifies_somewhere(&keys), "dropping the key is what invalidates its signatures");

        // The KSK — and with it the DS anchor — never moves in a ZSK roll.
        prop_assert!(keys.anchor(&origin).matches(&origin, &keys.ksk().dnskey()));
    }
}

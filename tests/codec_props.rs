//! Differential tests of DNS name compression against RFC 1035 §4.1.4:
//! property tests over arbitrary label sets (shared-suffix pointer
//! compression must be invisible to the decoder) plus the RFC's own
//! F.ISI.ARPA / FOO.F.ISI.ARPA / ARPA / root byte-layout example, and
//! reference oracles: a copy of the string-keyed compression encoder and of
//! the label-vector name order, which the byte-buffer implementations must
//! match exactly.

use cross_layer_attacks::dns::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasher;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,10}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("valid labels"))
}

/// Reference encoder: every suffix is keyed by its lowercased dotted text
/// and mapped to the offset where it was first written.
fn reference_encode(name: &DomainName, buf: &mut Vec<u8>, map: &mut HashMap<String, u16>) {
    let labels: Vec<&str> = name.labels().collect();
    for i in 0..labels.len() {
        let suffix = labels[i..].join(".").to_ascii_lowercase();
        if let Some(&offset) = map.get(&suffix) {
            buf.extend_from_slice(&(0xC000u16 | offset).to_be_bytes());
            return;
        }
        let here = buf.len();
        if here <= 0x3FFF {
            map.insert(suffix, here as u16);
        }
        buf.push(labels[i].len() as u8);
        buf.extend_from_slice(labels[i].as_bytes());
    }
    buf.push(0);
}

/// Reference order: lowercased labels as owned strings, most specific first,
/// compared as vectors.
fn reference_key(name: &DomainName) -> Vec<String> {
    name.labels().map(str::to_ascii_lowercase).collect()
}

/// Encodes `names` after a `start`-byte prefix with both encoders.
fn encode_both(names: &[DomainName], start: usize) -> (Vec<u8>, Vec<u8>) {
    let (mut ours, mut reference) = (vec![0u8; start], vec![0u8; start]);
    let (mut table, mut map) = (CompressionTable::default(), HashMap::new());
    for name in names {
        name.encode(&mut ours, Some(&mut table));
        reference_encode(name, &mut reference, &mut map);
    }
    (ours, reference)
}

/// Mixed-case labels over a two-letter alphabet, so labels, suffixes and
/// whole names repeat often.
fn arb_mixed_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(proptest::string::string_regex("[abAB]{1,2}").expect("valid regex"), 0..5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("valid labels"))
}

/// A message's worth of names drawn from a small pool with repeats, each
/// occurrence in its own random casing.
fn arb_name_sequence() -> impl Strategy<Value = Vec<DomainName>> {
    (proptest::collection::vec(arb_mixed_name(), 1..5), proptest::collection::vec((0usize..8, any::<u64>()), 1..10))
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|(i, seed)| pool[i % pool.len()].randomize_case(&mut ChaCha20Rng::seed_from_u64(seed)))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The offset-table encoder emits exactly the reference encoder's bytes,
    /// from the start of a message and from past the 14-bit pointer range
    /// (where suffixes can no longer be recorded).
    #[test]
    fn compression_matches_the_reference_encoder(names in arb_name_sequence()) {
        for start in [0, 12, 0x3FF8] {
            let (ours, reference) = encode_both(&names, start);
            prop_assert_eq!(&ours[start..], &reference[start..], "names {:?} from offset {}", &names, start);
        }
    }

    /// Long messages with many distinct suffixes match the reference
    /// encoder byte for byte.
    #[test]
    fn long_messages_match_the_reference_encoder(names in proptest::collection::vec(arb_name(), 10..40)) {
        let (ours, reference) = encode_both(&names, 12);
        prop_assert_eq!(ours, reference);
    }

    /// `Ord` agrees with the label-vector reference order, and orders two
    /// names as equal exactly when they are equal.
    #[test]
    fn order_matches_the_reference_order(a in arb_mixed_name(), b in arb_mixed_name()) {
        let ordering = a.cmp(&b);
        prop_assert_eq!(ordering, reference_key(&a).cmp(&reference_key(&b)), "{} vs {}", &a, &b);
        prop_assert_eq!(ordering == Ordering::Equal, a == b);
    }

    /// Every case variant of a name is equal to it and hashes the same.
    #[test]
    fn case_variants_hash_the_same(name in arb_mixed_name(), seed in any::<u64>()) {
        let variant = name.randomize_case(&mut ChaCha20Rng::seed_from_u64(seed));
        let hasher = std::collections::hash_map::RandomState::new();
        prop_assert_eq!(&variant, &name);
        prop_assert_eq!(hasher.hash_one(&variant), hasher.hash_one(&name));
        prop_assert_eq!(hasher.hash_one(variant.to_lowercase()), hasher.hash_one(&name));
    }

    /// Compressed and uncompressed encodings of the same name sequence
    /// decode to the same names, with every name's end offset landing
    /// exactly where the next encoding starts.
    #[test]
    fn compression_is_invisible_to_the_decoder(names in proptest::collection::vec(arb_name(), 1..6)) {
        let mut compressed = Vec::new();
        let mut map = CompressionTable::default();
        let mut offsets = Vec::new();
        for name in &names {
            offsets.push(compressed.len());
            name.encode(&mut compressed, Some(&mut map));
        }
        for (name, &offset) in names.iter().zip(&offsets) {
            let (decoded, end) = DomainName::decode(&compressed, offset).expect("compressed name decodes");
            prop_assert_eq!(&decoded, name);
            let next = offsets.iter().copied().find(|&o| o > offset).unwrap_or(compressed.len());
            prop_assert_eq!(end, next, "name's wire bytes end where the next name begins");
        }
        // Compression never inflates the message.
        let uncompressed: usize = names.iter().map(DomainName::wire_len).sum();
        prop_assert!(compressed.len() <= uncompressed);
    }

    /// encode → decode → encode is a fixed point for uncompressed names.
    #[test]
    fn flat_encoding_is_a_fixed_point(name in arb_name()) {
        let mut b1 = Vec::new();
        name.encode(&mut b1, None);
        let (decoded, end) = DomainName::decode(&b1, 0).expect("flat name decodes");
        prop_assert_eq!(&decoded, &name);
        prop_assert_eq!(end, b1.len());
        let mut b2 = Vec::new();
        decoded.encode(&mut b2, None);
        prop_assert_eq!(b2, b1);
    }

    /// Every pointer the encoder emits targets an earlier offset, so the
    /// decoder's backward-only rule never rejects our own messages.
    #[test]
    fn emitted_pointers_always_point_backward(names in proptest::collection::vec(arb_name(), 2..6)) {
        let mut buf = Vec::new();
        let mut map = CompressionTable::default();
        for name in &names {
            name.encode(&mut buf, Some(&mut map));
        }
        // Walk the label/pointer stream from the top.
        let mut pos = 0;
        while pos < buf.len() {
            let len = usize::from(buf[pos]);
            if len & 0xC0 == 0xC0 {
                let target = ((len & 0x3F) << 8) | usize::from(buf[pos + 1]);
                prop_assert!(target < pos, "pointer at {} targets {} (forward)", pos, target);
                pos += 2;
            } else {
                pos += 1 + len;
            }
        }
    }
}

/// The classic RFC 1035 §4.1.4 figure: F.ISI.ARPA written in full at offset
/// 20, FOO.F.ISI.ARPA as one label plus a pointer at offset 40, ARPA as a
/// bare pointer at offset 64, and the root as a lone zero octet at 92.
#[test]
fn rfc1035_4_1_4_pointer_layout() {
    let mut buf = vec![0u8; 20];
    let mut map = CompressionTable::default();

    let f_isi_arpa: DomainName = "F.ISI.ARPA".parse().unwrap();
    f_isi_arpa.encode(&mut buf, Some(&mut map));
    assert_eq!(&buf[20..32], &[1, b'F', 3, b'I', b'S', b'I', 4, b'A', b'R', b'P', b'A', 0], "full form at offset 20");

    buf.resize(40, 0);
    let foo: DomainName = "FOO.F.ISI.ARPA".parse().unwrap();
    foo.encode(&mut buf, Some(&mut map));
    assert_eq!(&buf[40..46], &[3, b'F', b'O', b'O', 0xC0, 20], "FOO label + pointer to offset 20");

    buf.resize(64, 0);
    let arpa: DomainName = "ARPA".parse().unwrap();
    arpa.encode(&mut buf, Some(&mut map));
    assert_eq!(&buf[64..66], &[0xC0, 26], "bare pointer to the ARPA suffix at offset 26");

    buf.resize(92, 0);
    DomainName::root().encode(&mut buf, Some(&mut map));
    assert_eq!(buf[92], 0, "root is a single zero octet");

    // The decoder reads all four back from the shared buffer.
    assert_eq!(DomainName::decode(&buf, 20).unwrap(), (f_isi_arpa, 32));
    assert_eq!(DomainName::decode(&buf, 40).unwrap(), (foo, 46));
    assert_eq!(DomainName::decode(&buf, 64).unwrap(), (arpa, 66));
    assert_eq!(DomainName::decode(&buf, 92).unwrap(), (DomainName::root(), 93));
}

/// Repeated labels and a name encoded twice: `a.a.a` records suffixes whose
/// text is a suffix of its own, which only earlier names may match, and the
/// second `a.a.a` is one pointer.
#[test]
fn repeated_labels_and_repeated_names_match_the_reference() {
    let names: Vec<DomainName> =
        ["a.a.a", "A.a.A", "a.a", "b.a.a.a", "a", "a.A.a"].iter().map(|s| s.parse().unwrap()).collect();
    let (ours, reference) = encode_both(&names, 12);
    assert_eq!(ours, reference);
    assert_eq!(&ours[12..20], &[1, b'a', 1, b'a', 1, b'a', 0, 0xC0], "a.a.a in full, then a pointer");
    assert_eq!(ours[20], 12, "the second a.a.a points at the first");
}

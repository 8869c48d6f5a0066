//! UDP header encoding/decoding and the [`UdpDatagram`] convenience type.
//!
//! DNS queries and responses in this workspace travel over UDP. The
//! challenge-response defences of RFC 5452 live in the UDP source port (16
//! bits of entropy) and the DNS transaction ID; SadDNS recovers the former
//! via the ICMP side channel, while FragDNS sidesteps both because they are
//! carried in the first fragment.

use crate::checksum;
use crate::ipv4::{Ipv4Header, Ipv4Packet, Protocol};
use crate::pool;
use std::fmt;
use std::net::Ipv4Addr;

/// Length of the UDP header in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UdpHeader {
    /// Source port (the resolver's randomised ephemeral port for queries).
    pub src_port: u16,
    /// Destination port (53 for DNS servers).
    pub dst_port: u16,
    /// Length of UDP header plus payload, in bytes.
    pub length: u16,
    /// UDP checksum over the pseudo-header, header and payload.
    pub checksum: u16,
}

impl UdpHeader {
    /// Encodes the header to wire bytes.
    pub fn encode(&self) -> [u8; UDP_HEADER_LEN] {
        let mut buf = [0u8; UDP_HEADER_LEN];
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.length.to_be_bytes());
        buf[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        buf
    }

    /// Decodes a header from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, UdpError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(UdpError::Truncated);
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }
}

/// A full UDP datagram together with the IPv4 addresses needed for the
/// pseudo-header checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// IPv4 source address.
    pub src: Ipv4Addr,
    /// IPv4 destination address.
    pub dst: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Application payload (e.g. a DNS message).
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram { src, dst, src_port, dst_port, payload }
    }

    /// The UDP length field (header + payload).
    pub(crate) fn udp_length(&self) -> u16 {
        (UDP_HEADER_LEN + self.payload.len()) as u16
    }

    /// Computes the UDP checksum over pseudo-header, header and payload.
    pub(crate) fn compute_checksum(&self) -> u16 {
        let length = self.udp_length();
        let mut c = checksum::pseudo_header(self.src, self.dst, Protocol::Udp.number(), length);
        let header = UdpHeader { src_port: self.src_port, dst_port: self.dst_port, length, checksum: 0 };
        c.add_bytes(&header.encode());
        c.add_bytes(&self.payload);
        let ck = c.finish();
        // An all-zero checksum is transmitted as 0xffff (RFC 768).
        if ck == 0 {
            0xffff
        } else {
            ck
        }
    }

    /// Serialises the UDP header + payload (the IPv4 payload bytes) into the
    /// payload's own buffer: the header is written in front of the payload
    /// in place when the buffer has [`UDP_HEADER_LEN`] bytes of spare
    /// capacity, as every pooled encoder leaves it.
    pub fn encode(self) -> Vec<u8> {
        let header = UdpHeader {
            src_port: self.src_port,
            dst_port: self.dst_port,
            length: self.udp_length(),
            checksum: self.compute_checksum(),
        };
        pool::prepend(self.payload, &header.encode())
    }

    /// Wraps the datagram in an IPv4 packet with the given identification and
    /// TTL. The packet carries the payload's buffer (see [`encode`](Self::encode)).
    pub fn into_packet(self, identification: u16, ttl: u8) -> Ipv4Packet {
        let (src, dst) = (self.src, self.dst);
        let payload = self.encode();
        Ipv4Packet::new(Ipv4Header::new(src, dst, Protocol::Udp, payload.len(), identification, ttl), payload)
    }

    /// Validates the UDP header and checksum of an IPv4 packet and returns a
    /// view of the datagram, its payload borrowed from the packet. This is
    /// the one UDP parser: the host stack hands its view up, and
    /// [`from_packet`](Self::from_packet) copies the payload out.
    ///
    /// This is the validation step that a spoofed FragDNS fragment must
    /// survive: after reassembly the attacker-modified payload is checksummed
    /// against the pseudo-header of the *genuine* first fragment.
    pub fn parse(pkt: &Ipv4Packet) -> Result<UdpView<'_>, UdpError> {
        if pkt.header.protocol != Protocol::Udp {
            return Err(UdpError::NotUdp);
        }
        if pkt.header.is_fragment() {
            return Err(UdpError::IsFragment);
        }
        let header = UdpHeader::decode(&pkt.payload)?;
        let declared = usize::from(header.length);
        if declared < UDP_HEADER_LEN || declared > pkt.payload.len() {
            return Err(UdpError::BadLength);
        }
        // Verify checksum (a zero checksum means "not computed" and is accepted).
        if header.checksum != 0 {
            let mut c = checksum::pseudo_header(pkt.header.src, pkt.header.dst, Protocol::Udp.number(), header.length);
            c.add_bytes(&pkt.payload[..declared]);
            if c.folded() != 0xffff {
                return Err(UdpError::BadChecksum);
            }
        }
        Ok(UdpView {
            src: pkt.header.src,
            dst: pkt.header.dst,
            src_port: header.src_port,
            dst_port: header.dst_port,
            payload: &pkt.payload[UDP_HEADER_LEN..declared],
        })
    }

    /// Parses a UDP datagram out of an IPv4 packet, verifying the checksum,
    /// into a datagram that owns a copy of the payload.
    pub fn from_packet(pkt: &Ipv4Packet) -> Result<Self, UdpError> {
        Self::parse(pkt).map(|view| view.to_datagram())
    }
}

/// A checked UDP datagram, borrowed from the packet that carried it: what
/// [`UdpDatagram::parse`] returns and the host stack hands up in
/// [`StackEvent::Udp`](crate::stack::StackEvent::Udp). The payload is the
/// packet's own bytes, so receiving copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'p> {
    /// IPv4 source address.
    pub src: Ipv4Addr,
    /// IPv4 destination address.
    pub dst: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Application payload, borrowed from the packet.
    pub payload: &'p [u8],
}

impl UdpView<'_> {
    /// A datagram owning a copy of the payload, for a receiver that keeps it.
    pub fn to_datagram(&self) -> UdpDatagram {
        UdpDatagram::new(self.src, self.dst, self.src_port, self.dst_port, self.payload.to_vec())
    }
}

/// A UDP datagram framed into an IPv4 packet once, from which a flood of
/// packets that differ from it in a few bytes is copied.
///
/// Attacker floods (spoofed queries, scan probes, a TXID spray) send
/// thousands of datagrams that share addresses, length and almost every
/// byte. [`write`](Self::write) copies the framed template into a packet the
/// caller lends (a packet train lends one buffer for the whole train), sets
/// the IP ID, writes the caller's patches at datagram offsets (offset 0 is
/// the first byte of the UDP header) and updates the UDP checksum
/// incrementally (RFC 1624) by the change in the 16-bit words each patch
/// touched, so no packet is encoded or summed again. The result is
/// byte-for-byte the packet a full [`UdpDatagram::into_packet`] of the
/// patched datagram gives.
///
/// ```
/// use netsim::prelude::*;
///
/// let (src, dst): (Ipv4Addr, Ipv4Addr) = ("192.0.2.1".parse().unwrap(), "198.51.100.53".parse().unwrap());
/// let template = UdpTemplate::new(UdpDatagram::new(src, dst, 53, 1000, b"id=0000".to_vec()), 64);
/// // Any packet serves as the buffer: `write` replaces its header and bytes.
/// let mut pkt = UdpDatagram::new(dst, src, 9, 9, b"old".to_vec()).into_packet(0, 1);
/// // Destination port 1001 (datagram bytes 2-3) and payload byte 3 ('0' -> '7').
/// template.write(&mut pkt, 42, &[(2, &1001u16.to_be_bytes()), (8 + 3, b"7")]);
///
/// let full = UdpDatagram::new(src, dst, 53, 1001, b"id=7000".to_vec()).into_packet(42, 64);
/// assert_eq!(pkt.header, full.header);
/// assert_eq!(pkt.payload, full.payload);
/// let view = UdpDatagram::parse(&pkt).expect("the updated checksum verifies");
/// assert_eq!((view.dst_port, view.payload), (1001, &b"id=7000"[..]));
///
/// // The next packet overwrites the first in the same buffer.
/// template.write(&mut pkt, 43, &[]);
/// assert_eq!(UdpDatagram::parse(&pkt).unwrap().payload, b"id=0000");
/// ```
#[derive(Debug)]
pub struct UdpTemplate {
    /// The framed datagram, with IP ID 0.
    pkt: Ipv4Packet,
    /// Its UDP checksum (datagram bytes 6-7).
    checksum: u16,
}

/// Datagram bytes a template patch may not touch: the UDP length, which the
/// pseudo-header covers too and the template's size fixes, and the checksum,
/// which [`UdpTemplate::write`] maintains itself.
const UNPATCHABLE: std::ops::Range<usize> = 4..UDP_HEADER_LEN;

impl UdpTemplate {
    /// Frames `datagram` once with the given TTL.
    pub fn new(datagram: UdpDatagram, ttl: u8) -> Self {
        let pkt = datagram.into_packet(0, ttl);
        let checksum = u16::from_be_bytes([pkt.payload[6], pkt.payload[7]]);
        UdpTemplate { pkt, checksum }
    }

    /// Writes the template's packet into `pkt`, replacing its header and
    /// bytes but keeping its buffer: IP ID `identification`, and each
    /// `(offset, bytes)` patch written at that datagram offset, in order (a
    /// later patch overwrites an earlier one where they overlap).
    ///
    /// # Panics
    ///
    /// Panics when a patch touches the UDP length or checksum field (bytes
    /// 4-7) or runs past the end of the datagram.
    #[inline]
    pub fn write(&self, pkt: &mut Ipv4Packet, identification: u16, patches: &[(usize, &[u8])]) {
        pkt.header = Ipv4Header { identification, ..self.pkt.header };
        let payload = &mut pkt.payload;
        payload.clear();
        payload.extend_from_slice(&self.pkt.payload);
        let mut ck = self.checksum;
        for &(offset, bytes) in patches {
            let end = offset + bytes.len();
            assert!(
                bytes.is_empty() || end <= UNPATCHABLE.start || offset >= UNPATCHABLE.end,
                "UdpTemplate patch {offset}..{end} touches the UDP length or checksum field"
            );
            assert!(
                end <= payload.len(),
                "UdpTemplate patch {offset}..{end} runs past the {}-byte datagram",
                payload.len()
            );
            // One RFC 1624 update covers every word the patch touched: it
            // needs only their sums before and after. A byte at an even
            // datagram offset is a word's high byte (the pseudo-header in
            // front of the datagram is 12 bytes long).
            let (mut old, mut new) = (0u64, 0u64);
            for (at, (slot, &byte)) in payload[offset..end].iter_mut().zip(bytes).enumerate() {
                let shift = if (offset + at) % 2 == 0 { 8 } else { 0 };
                old += u64::from(*slot) << shift;
                new += u64::from(byte) << shift;
                *slot = byte;
            }
            ck = checksum::update(ck, checksum::fold(old), checksum::fold(new));
        }
        // A computed zero goes on the wire as all ones (RFC 768).
        let ck = if ck == 0 { 0xffff } else { ck };
        payload[6..8].copy_from_slice(&ck.to_be_bytes());
    }
}

impl Drop for UdpTemplate {
    /// The template's buffer goes back to the pool, like a dead packet's.
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.pkt.payload));
    }
}

/// Errors returned by the UDP codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpError {
    /// The buffer is shorter than a UDP header.
    Truncated,
    /// The IPv4 packet does not carry protocol 17.
    NotUdp,
    /// The packet is an unreassembled fragment.
    IsFragment,
    /// The UDP length field is inconsistent with the packet.
    BadLength,
    /// The UDP checksum does not verify.
    BadChecksum,
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::Truncated => write!(f, "truncated UDP header"),
            UdpError::NotUdp => write!(f, "not a UDP packet"),
            UdpError::IsFragment => write!(f, "packet is an IP fragment"),
            UdpError::BadLength => write!(f, "bad UDP length"),
            UdpError::BadChecksum => write!(f, "bad UDP checksum"),
        }
    }
}

impl std::error::Error for UdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgram(payload: &[u8]) -> UdpDatagram {
        UdpDatagram::new("192.0.2.1".parse().unwrap(), "198.51.100.53".parse().unwrap(), 34567, 53, payload.to_vec())
    }

    #[test]
    fn roundtrip_through_packet() {
        let d = dgram(b"hello dns");
        let pkt = d.clone().into_packet(42, 64);
        let parsed = UdpDatagram::from_packet(&pkt).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn checksum_detects_payload_tampering() {
        let d = dgram(b"authentic response");
        let mut pkt = d.into_packet(42, 64);
        // Tamper with one payload byte after the UDP header.
        let idx = UDP_HEADER_LEN + 3;
        pkt.payload[idx] ^= 0x55;
        // The IP header is still fine, but UDP checksum validation must fail.
        assert_eq!(UdpDatagram::from_packet(&pkt), Err(UdpError::BadChecksum));
    }

    #[test]
    fn computed_zero_checksum_transmitted_as_ffff() {
        // RFC 768: an all-zero checksum field means "no checksum", so a
        // *computed* 0x0000 must be transmitted as its complement-equal
        // 0xffff. Crafted so pseudo-header + header + payload sum to
        // exactly 0xffff: 0x0011 (proto) + 0x000a (len) + 0x0001 + 0x0002
        // (ports) + 0x000a (len again) + 0xffd7 (payload) = 0xffff, so the
        // complement is 0x0000 — and the wire value must be 0xffff.
        let d = UdpDatagram::new("0.0.0.0".parse().unwrap(), "0.0.0.0".parse().unwrap(), 1, 2, vec![0xff, 0xd7]);
        assert_eq!(d.compute_checksum(), 0xffff);
        // The receiver still verifies it like any other checksum.
        let pkt = d.clone().into_packet(1, 64);
        assert_eq!(UdpDatagram::from_packet(&pkt).unwrap(), d);
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let d = dgram(b"no checksum");
        let mut pkt = d.clone().into_packet(1, 64);
        // Zero out the UDP checksum field (bytes 6..8 of the UDP header).
        pkt.payload[6] = 0;
        pkt.payload[7] = 0;
        let parsed = UdpDatagram::from_packet(&pkt).unwrap();
        assert_eq!(parsed.payload, d.payload);
    }

    #[test]
    fn fragment_rejected_until_reassembled() {
        let d = dgram(&[0u8; 100]);
        let mut pkt = d.into_packet(9, 64);
        pkt.header.more_fragments = true;
        assert_eq!(UdpDatagram::from_packet(&pkt), Err(UdpError::IsFragment));
    }

    #[test]
    fn wrong_protocol_rejected() {
        let d = dgram(b"x");
        let mut pkt = d.into_packet(9, 64);
        pkt.header.protocol = Protocol::Tcp;
        assert_eq!(UdpDatagram::from_packet(&pkt), Err(UdpError::NotUdp));
    }

    #[test]
    fn length_field_bounds_are_checked() {
        let d = dgram(b"abcdef");
        let mut pkt = d.into_packet(9, 64);
        // Declare a longer UDP length than the actual payload.
        let bogus = (pkt.payload.len() + 10) as u16;
        pkt.payload[4..6].copy_from_slice(&bogus.to_be_bytes());
        assert_eq!(UdpDatagram::from_packet(&pkt), Err(UdpError::BadLength));
    }

    #[test]
    fn udp_header_roundtrip() {
        let h = UdpHeader { src_port: 1194, dst_port: 500, length: 28, checksum: 0xbeef };
        assert_eq!(UdpHeader::decode(&h.encode()).unwrap(), h);
        assert!(UdpHeader::decode(&[0u8; 4]).is_err());
    }

    /// Writes `template` with `patches` into a packet whose buffer held a
    /// longer datagram before.
    fn written(template: &UdpTemplate, id: u16, patches: &[(usize, &[u8])]) -> Ipv4Packet {
        let mut pkt = dgram(&[0xee; 64]).into_packet(9, 1);
        template.write(&mut pkt, id, patches);
        pkt
    }

    #[test]
    #[should_panic(expected = "touches the UDP length or checksum field")]
    fn template_refuses_to_patch_the_checksum() {
        written(&UdpTemplate::new(dgram(b"payload"), 64), 1, &[(7, &[0xab])]);
    }

    #[test]
    #[should_panic(expected = "touches the UDP length or checksum field")]
    fn template_refuses_to_patch_the_length() {
        written(&UdpTemplate::new(dgram(b"payload"), 64), 1, &[(2, &[0, 1, 0])]);
    }

    #[test]
    #[should_panic(expected = "runs past the")]
    fn template_refuses_to_patch_past_the_end() {
        written(&UdpTemplate::new(dgram(b"payload"), 64), 1, &[(14, b"xy")]);
    }

    #[test]
    fn template_patches_an_odd_final_byte() {
        let template = UdpTemplate::new(dgram(b"odd"), 64);
        let pkt = written(&template, 5, &[(UDP_HEADER_LEN + 2, b"z"), (0, &[])]);
        let full = dgram(b"odz").into_packet(5, 64);
        assert_eq!((pkt.header, &pkt.payload), (full.header, &full.payload));
    }
}

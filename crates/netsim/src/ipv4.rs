//! IPv4 header encoding/decoding and the [`Ipv4Packet`] type.
//!
//! The header layout follows RFC 791. The fields that matter most to the
//! attacks in this workspace are the **identification** field (guessed or
//! predicted by FragDNS), the **DF/MF flags** and the **fragment offset**
//! (used both by path-MTU-discovery triggered fragmentation and by the
//! attacker's spoofed fragments).

use crate::checksum;
use crate::trace::PacketSummary;
use std::fmt;
use std::net::Ipv4Addr;

/// Length of an IPv4 header without options, in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// The minimum MTU every IPv4 link must support (RFC 791). The FragDNS
/// attacker advertises this value in its spoofed ICMP "fragmentation needed"
/// messages to force the nameserver to emit the smallest possible fragments.
pub(crate) const MIN_IPV4_MTU: u16 = 68;

/// The conventional Ethernet MTU used as the default link MTU.
pub(crate) const DEFAULT_MTU: u16 = 1500;

/// IP protocol numbers used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (protocol number 1).
    Icmp,
    /// TCP (protocol number 6). Modelled only as opaque payload.
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// Any other protocol number.
    Other(u8),
}

impl Protocol {
    /// The wire value of the protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Parses a wire protocol number.
    pub fn from_number(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "ICMP"),
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Other(n) => write!(f, "proto({n})"),
        }
    }
}

/// A decoded IPv4 header (without options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// The identification field shared by all fragments of a datagram.
    pub identification: u16,
    /// Don't Fragment flag.
    pub dont_fragment: bool,
    /// More Fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in units of 8 bytes.
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Upper-layer protocol.
    pub protocol: Protocol,
    /// Source address (spoofable by off-path attackers).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Total length of the datagram (header + payload), in bytes.
    pub total_length: u16,
}

impl Ipv4Header {
    /// Creates a non-fragmented header for a payload of the given length.
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: Protocol,
        payload_len: usize,
        identification: u16,
        ttl: u8,
    ) -> Self {
        Ipv4Header {
            identification,
            dont_fragment: false,
            more_fragments: false,
            fragment_offset: 0,
            ttl,
            protocol,
            src,
            dst,
            total_length: (IPV4_HEADER_LEN + payload_len) as u16,
        }
    }

    /// True when this header belongs to a fragment (either a non-zero offset
    /// or the "more fragments" flag set).
    pub(crate) fn is_fragment(&self) -> bool {
        self.more_fragments || self.fragment_offset != 0
    }

    /// The byte offset of this fragment's payload within the original datagram.
    pub(crate) fn payload_byte_offset(&self) -> usize {
        usize::from(self.fragment_offset) * 8
    }

    /// Encodes the header to its 20-byte wire representation, computing the
    /// header checksum.
    pub fn encode(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = 0; // DSCP/ECN
        buf[2..4].copy_from_slice(&self.total_length.to_be_bytes());
        buf[4..6].copy_from_slice(&self.identification.to_be_bytes());
        let mut flags_frag = self.fragment_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        buf[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.protocol.number();
        // checksum at 10..12 computed last
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let ck = checksum::checksum(&buf);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        buf
    }

    /// Decodes a header from wire bytes; also verifies the header checksum.
    pub fn decode(buf: &[u8]) -> Result<Self, Ipv4Error> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(Ipv4Error::Truncated);
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(Ipv4Error::BadVersion(version));
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl < IPV4_HEADER_LEN || buf.len() < ihl {
            return Err(Ipv4Error::Truncated);
        }
        if !checksum::verify(&buf[..ihl]) {
            return Err(Ipv4Error::BadChecksum);
        }
        let total_length = u16::from_be_bytes([buf[2], buf[3]]);
        let identification = u16::from_be_bytes([buf[4], buf[5]]);
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(Ipv4Header {
            identification,
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            fragment_offset: flags_frag & 0x1fff,
            ttl: buf[8],
            protocol: Protocol::from_number(buf[9]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            total_length,
        })
    }
}

/// A full IPv4 packet: header plus upper-layer payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// The IPv4 header.
    pub header: Ipv4Header,
    /// Upper-layer payload (UDP datagram, ICMP message, or a raw fragment slice).
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Builds a packet from a header template and payload, fixing up the
    /// header's total length.
    pub fn new(mut header: Ipv4Header, payload: Vec<u8>) -> Self {
        header.total_length = (IPV4_HEADER_LEN + payload.len()) as u16;
        Ipv4Packet { header, payload }
    }

    /// The total on-wire size in bytes.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// Serialises the packet to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header.encode());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a packet from wire bytes. Bytes beyond the header's
    /// total-length field are tolerated and ignored (link-layer padding),
    /// but a total length that is shorter than the header itself or longer
    /// than the buffer is a typed error.
    pub fn decode(buf: &[u8]) -> Result<Self, Ipv4Error> {
        let header = Ipv4Header::decode(buf)?;
        // Regression (fuzz target ipv4, corpus ipv4/options_ihl.bin): the
        // header struct does not model options, so an IHL above 5 used to
        // leave the options bytes at the front of the payload — a
        // cross-layer desync for every upper-layer parser.
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(Ipv4Error::OptionsUnsupported(buf[0] & 0x0f));
        }
        let total = usize::from(header.total_length);
        // Regression (fuzz target ipv4): a total length smaller than the
        // header used to be silently rounded up, and one larger than the
        // buffer silently clipped — both desynchronise any caller that
        // trusts the field for framing.
        if total < IPV4_HEADER_LEN {
            return Err(Ipv4Error::BadLength(header.total_length));
        }
        if buf.len() < total {
            return Err(Ipv4Error::Truncated);
        }
        Ok(Ipv4Packet { header, payload: buf[IPV4_HEADER_LEN..total].to_vec() })
    }

    /// The header fields a trace line shows, as a `Copy` value formatted only
    /// when displayed. TCP segments include their flags and
    /// sequence/acknowledgment numbers, so a trace records handshake
    /// interleavings (and seeded ISNs) exactly.
    pub(crate) fn summary(&self) -> PacketSummary {
        let h = &self.header;
        let tcp = (h.protocol == Protocol::Tcp && !h.is_fragment() && self.payload.len() >= crate::tcp::TCP_HEADER_LEN)
            .then(|| {
                let p = &self.payload;
                let seq = u32::from_be_bytes([p[4], p[5], p[6], p[7]]);
                let ack = u32::from_be_bytes([p[8], p[9], p[10], p[11]]);
                (crate::tcp::TcpFlags::from_byte(p[13]), seq, ack)
            });
        PacketSummary {
            protocol: h.protocol,
            src: h.src,
            dst: h.dst,
            wire_len: self.wire_len(),
            identification: h.identification,
            fragment_offset: h.payload_byte_offset(),
            more_fragments: h.more_fragments,
            tcp,
        }
    }
}

/// Errors returned by the IPv4 codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ipv4Error {
    /// The buffer is too short to contain an IPv4 header.
    Truncated,
    /// The version nibble is not 4.
    BadVersion(u8),
    /// The header checksum does not verify.
    BadChecksum,
    /// The total-length field is smaller than the header itself.
    BadLength(u16),
    /// The IHL nibble implies IPv4 options, which this stack never emits
    /// and does not model.
    OptionsUnsupported(u8),
}

impl fmt::Display for Ipv4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ipv4Error::Truncated => write!(f, "truncated IPv4 header"),
            Ipv4Error::BadVersion(v) => write!(f, "bad IP version {v}"),
            Ipv4Error::BadChecksum => write!(f, "bad IPv4 header checksum"),
            Ipv4Error::BadLength(l) => write!(f, "IPv4 total length {l} shorter than the header"),
            Ipv4Error::OptionsUnsupported(ihl) => write!(f, "IPv4 options unsupported (IHL {ihl})"),
        }
    }
}

impl std::error::Error for Ipv4Error {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Ipv4Header {
        Ipv4Header::new("192.0.2.1".parse().unwrap(), "198.51.100.53".parse().unwrap(), Protocol::Udp, 100, 0x1234, 64)
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let bytes = h.encode();
        let decoded = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(h, decoded);
    }

    #[test]
    fn fragment_flags_roundtrip() {
        let mut h = sample_header();
        h.more_fragments = true;
        h.fragment_offset = 185; // 1480 bytes / 8
        let decoded = Ipv4Header::decode(&h.encode()).unwrap();
        assert!(decoded.more_fragments);
        assert!(!decoded.dont_fragment);
        assert_eq!(decoded.fragment_offset, 185);
        assert_eq!(decoded.payload_byte_offset(), 1480);
        assert!(decoded.is_fragment());
    }

    #[test]
    fn df_flag_roundtrip() {
        let mut h = sample_header();
        h.dont_fragment = true;
        let decoded = Ipv4Header::decode(&h.encode()).unwrap();
        assert!(decoded.dont_fragment);
        assert!(!decoded.is_fragment());
    }

    #[test]
    fn corrupted_header_rejected() {
        let h = sample_header();
        let mut bytes = h.encode().to_vec();
        bytes[8] ^= 0xff; // flip TTL without fixing checksum
        assert_eq!(Ipv4Header::decode(&bytes), Err(Ipv4Error::BadChecksum));
    }

    #[test]
    fn bad_version_rejected() {
        let h = sample_header();
        let mut bytes = h.encode().to_vec();
        bytes[0] = 0x65; // version 6
        assert!(matches!(Ipv4Header::decode(&bytes), Err(Ipv4Error::BadVersion(6))));
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(Ipv4Header::decode(&[0u8; 10]), Err(Ipv4Error::Truncated));
    }

    #[test]
    fn packet_roundtrip() {
        let payload = vec![0xabu8; 77];
        let pkt = Ipv4Packet::new(sample_header(), payload.clone());
        assert_eq!(pkt.header.total_length as usize, IPV4_HEADER_LEN + 77);
        let decoded = Ipv4Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(decoded.payload, payload);
        assert_eq!(decoded.header, pkt.header);
    }

    #[test]
    fn total_length_shorter_than_header_rejected() {
        // Regression (fuzz target ipv4, corpus ipv4/len_under_header.bin):
        // a total-length of 8 used to be rounded up to the header length
        // and decoded as an empty packet.
        let mut pkt = Ipv4Packet::new(sample_header(), vec![0u8; 16]);
        pkt.header.total_length = 8;
        assert_eq!(Ipv4Packet::decode(&pkt.encode()), Err(Ipv4Error::BadLength(8)));
    }

    #[test]
    fn total_length_beyond_buffer_rejected() {
        // Regression (fuzz target ipv4, corpus ipv4/len_past_buffer.bin):
        // a claimed-but-absent tail used to be silently clipped to the
        // buffer instead of rejected.
        let mut pkt = Ipv4Packet::new(sample_header(), vec![0u8; 16]);
        pkt.header.total_length = (IPV4_HEADER_LEN + 17) as u16;
        assert_eq!(Ipv4Packet::decode(&pkt.encode()), Err(Ipv4Error::Truncated));
    }

    #[test]
    fn options_carrying_header_rejected_not_desynced() {
        // Regression (fuzz target ipv4, corpus ipv4/options_ihl.bin): with
        // IHL = 6 the four options bytes used to land at the front of the
        // decoded payload.
        let pkt = Ipv4Packet::new(sample_header(), vec![0u8; 16]);
        let mut bytes = pkt.encode();
        bytes[0] = 0x46; // version 4, IHL 6
        bytes.splice(IPV4_HEADER_LEN..IPV4_HEADER_LEN, [0u8; 4]); // 4 options bytes
        let total = bytes.len() as u16;
        bytes[2..4].copy_from_slice(&total.to_be_bytes());
        bytes[10] = 0;
        bytes[11] = 0; // re-checksum the mutated header
        let ck = crate::checksum::checksum(&bytes[..24]);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(Ipv4Packet::decode(&bytes), Err(Ipv4Error::OptionsUnsupported(6)));
    }

    #[test]
    fn link_layer_padding_ignored() {
        let payload = vec![0x11u8; 30];
        let pkt = Ipv4Packet::new(sample_header(), payload.clone());
        let mut bytes = pkt.encode();
        bytes.extend_from_slice(&[0u8; 6]); // Ethernet minimum-frame padding
        let decoded = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(decoded.payload, payload);
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Udp.number(), 17);
        assert_eq!(Protocol::Icmp.number(), 1);
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::from_number(17), Protocol::Udp);
        assert_eq!(Protocol::from_number(99), Protocol::Other(99));
    }

    #[test]
    fn summary_mentions_fragments() {
        let mut h = sample_header();
        h.more_fragments = true;
        let pkt = Ipv4Packet::new(h, vec![0u8; 8]);
        assert!(pkt.summary().to_string().contains("frag"));
    }

    #[test]
    fn summary_reads_tcp_flags_and_sequence_numbers() {
        use crate::tcp::{TcpFlags, TcpSegment};
        let (src, dst) = ("192.0.2.1".parse().unwrap(), "198.51.100.53".parse().unwrap());
        let flags = TcpFlags::syn_ack();
        let seg = TcpSegment {
            src,
            dst,
            src_port: 53,
            dst_port: 40000,
            seq: 1000,
            ack: 77,
            flags,
            window: 9,
            payload: vec![],
        };
        let pkt = seg.into_packet(5, 64);
        assert_eq!(pkt.summary().tcp, Some((flags, 1000, 77)));
        assert_eq!(pkt.summary().to_string(), "TCP 192.0.2.1 -> 198.51.100.53 len=40 [SYN|ACK] seq=1000 ack=77");
        // A non-first fragment's payload is not a TCP header.
        let mut frag = pkt;
        frag.header.fragment_offset = 3;
        assert_eq!(frag.summary().tcp, None);
    }
}

//! ICMP messages used by the attacks.
//!
//! Three ICMP behaviours are central to the paper:
//!
//! * **Destination Unreachable / Port Unreachable** (type 3, code 3): the
//!   SadDNS side channel counts how many of these a resolver host emits under
//!   its global rate limit to learn whether a probed UDP port is open.
//! * **Destination Unreachable / Fragmentation Needed** (type 3, code 4,
//!   a.k.a. "packet too big"): the FragDNS attacker spoofs this towards the
//!   nameserver to shrink its path MTU so that DNS responses fragment.
//! * **Echo request/reply**: used by the measurement tooling to check that a
//!   resolver back-end is still alive before testing it (Section 5.1.2).

use crate::checksum;
use crate::ipv4::{Ipv4Header, Ipv4Packet, Protocol, IPV4_HEADER_LEN};
use std::fmt;
use std::net::Ipv4Addr;

/// Destination-unreachable sub-codes relevant to the attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unreachable {
    /// Code 0: network unreachable.
    Network,
    /// Code 1: host unreachable.
    Host,
    /// Code 3: port unreachable (the SadDNS probe response).
    Port,
    /// Code 4: fragmentation needed and DF set; carries the next-hop MTU.
    FragmentationNeeded {
        /// Next-hop MTU advertised to the sender.
        mtu: u16,
    },
}

impl Unreachable {
    fn code(self) -> u8 {
        match self {
            Unreachable::Network => 0,
            Unreachable::Host => 1,
            Unreachable::Port => 3,
            Unreachable::FragmentationNeeded { .. } => 4,
        }
    }
}

/// A decoded ICMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier copied into the reply.
        id: u16,
        /// Sequence number copied into the reply.
        seq: u16,
        /// Opaque payload echoed back.
        payload: Vec<u8>,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier from the request.
        id: u16,
        /// Sequence number from the request.
        seq: u16,
        /// Echoed payload.
        payload: Vec<u8>,
    },
    /// Destination unreachable (type 3), quoting the offending datagram.
    DestinationUnreachable {
        /// Which unreachable condition occurred.
        kind: Unreachable,
        /// The quoted IPv4 header + first 8 payload bytes of the datagram
        /// that triggered the error.
        original: Vec<u8>,
    },
}

impl IcmpMessage {
    /// Builds a port-unreachable error quoting the given offending packet.
    pub fn port_unreachable(offending: &Ipv4Packet) -> Self {
        IcmpMessage::DestinationUnreachable { kind: Unreachable::Port, original: quote(offending) }
    }

    /// Builds a fragmentation-needed error advertising `mtu`, quoting the
    /// given offending packet.
    pub fn fragmentation_needed(offending: &Ipv4Packet, mtu: u16) -> Self {
        IcmpMessage::DestinationUnreachable {
            kind: Unreachable::FragmentationNeeded { mtu },
            original: quote(offending),
        }
    }

    /// Encodes the ICMP message (type, code, checksum, rest-of-header, body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            IcmpMessage::EchoRequest { id, seq, payload } | IcmpMessage::EchoReply { id, seq, payload } => {
                let ty = if matches!(self, IcmpMessage::EchoRequest { .. }) { 8 } else { 0 };
                buf.push(ty);
                buf.push(0);
                buf.extend_from_slice(&[0, 0]); // checksum placeholder
                buf.extend_from_slice(&id.to_be_bytes());
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(payload);
            }
            IcmpMessage::DestinationUnreachable { kind, original } => {
                buf.push(3);
                buf.push(kind.code());
                buf.extend_from_slice(&[0, 0]); // checksum placeholder
                match kind {
                    Unreachable::FragmentationNeeded { mtu } => {
                        buf.extend_from_slice(&[0, 0]);
                        buf.extend_from_slice(&mtu.to_be_bytes());
                    }
                    _ => buf.extend_from_slice(&[0, 0, 0, 0]),
                }
                buf.extend_from_slice(original);
            }
        }
        let ck = checksum::checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        buf
    }

    /// Decodes an ICMP message, verifying its checksum.
    pub fn decode(buf: &[u8]) -> Result<Self, IcmpError> {
        if buf.len() < 8 {
            return Err(IcmpError::Truncated);
        }
        if !checksum::verify(buf) {
            return Err(IcmpError::BadChecksum);
        }
        let ty = buf[0];
        let code = buf[1];
        match ty {
            0 | 8 => {
                let id = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                let payload = buf[8..].to_vec();
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest { id, seq, payload }
                } else {
                    IcmpMessage::EchoReply { id, seq, payload }
                })
            }
            3 => {
                let kind = match code {
                    0 => Unreachable::Network,
                    1 => Unreachable::Host,
                    3 => Unreachable::Port,
                    4 => Unreachable::FragmentationNeeded { mtu: u16::from_be_bytes([buf[6], buf[7]]) },
                    other => return Err(IcmpError::UnknownCode(ty, other)),
                };
                Ok(IcmpMessage::DestinationUnreachable { kind, original: buf[8..].to_vec() })
            }
            other => Err(IcmpError::UnknownType(other)),
        }
    }

    /// Wraps the message in an IPv4 packet.
    pub fn into_packet(self, src: Ipv4Addr, dst: Ipv4Addr, identification: u16, ttl: u8) -> Ipv4Packet {
        let payload = self.encode();
        let header = Ipv4Header::new(src, dst, Protocol::Icmp, payload.len(), identification, ttl);
        Ipv4Packet::new(header, payload)
    }

    /// For destination-unreachable errors: parses the quoted original IPv4
    /// header so the receiver can identify which of its packets triggered the
    /// error (source port demultiplexing for PMTUD and for SadDNS probing).
    pub(crate) fn quoted_header(&self) -> Option<Ipv4Header> {
        match self {
            IcmpMessage::DestinationUnreachable { original, .. } => Ipv4Header::decode(original).ok(),
            _ => None,
        }
    }

    /// For destination-unreachable errors quoting a UDP datagram: the quoted
    /// (source port, destination port) pair.
    pub(crate) fn quoted_udp_ports(&self) -> Option<(u16, u16)> {
        match self {
            IcmpMessage::DestinationUnreachable { original, .. } => {
                if original.len() < IPV4_HEADER_LEN + 4 {
                    return None;
                }
                let hdr = Ipv4Header::decode(original).ok()?;
                if hdr.protocol != Protocol::Udp {
                    return None;
                }
                let p = &original[IPV4_HEADER_LEN..];
                Some((u16::from_be_bytes([p[0], p[1]]), u16::from_be_bytes([p[2], p[3]])))
            }
            _ => None,
        }
    }
}

/// Quotes an offending datagram for inclusion in an ICMP error: the full IP
/// header plus the first 8 payload bytes (RFC 792).
fn quote(pkt: &Ipv4Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(IPV4_HEADER_LEN + 8);
    out.extend_from_slice(&pkt.header.encode());
    let n = pkt.payload.len().min(8);
    out.extend_from_slice(&pkt.payload[..n]);
    out
}

/// Errors returned by the ICMP codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpError {
    /// Buffer shorter than the 8-byte ICMP header.
    Truncated,
    /// The ICMP checksum does not verify.
    BadChecksum,
    /// Unsupported ICMP type.
    UnknownType(u8),
    /// Unsupported code for a known type.
    UnknownCode(u8, u8),
}

impl fmt::Display for IcmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcmpError::Truncated => write!(f, "truncated ICMP message"),
            IcmpError::BadChecksum => write!(f, "bad ICMP checksum"),
            IcmpError::UnknownType(t) => write!(f, "unknown ICMP type {t}"),
            IcmpError::UnknownCode(t, c) => write!(f, "unknown ICMP code {c} for type {t}"),
        }
    }
}

impl std::error::Error for IcmpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::UdpDatagram;

    fn sample_udp_packet() -> Ipv4Packet {
        UdpDatagram::new("192.0.2.1".parse().unwrap(), "203.0.113.7".parse().unwrap(), 40000, 53, b"query".to_vec())
            .into_packet(7, 64)
    }

    #[test]
    fn echo_roundtrip() {
        let msg = IcmpMessage::EchoRequest { id: 77, seq: 3, payload: b"ping".to_vec() };
        let decoded = IcmpMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn port_unreachable_roundtrip_and_ports() {
        let offending = sample_udp_packet();
        let msg = IcmpMessage::port_unreachable(&offending);
        let decoded = IcmpMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.quoted_udp_ports(), Some((40000, 53)));
        let hdr = decoded.quoted_header().unwrap();
        assert_eq!(hdr.dst, offending.header.dst);
    }

    #[test]
    fn fragmentation_needed_carries_mtu() {
        let offending = sample_udp_packet();
        let msg = IcmpMessage::fragmentation_needed(&offending, 68);
        match IcmpMessage::decode(&msg.encode()).unwrap() {
            IcmpMessage::DestinationUnreachable { kind: Unreachable::FragmentationNeeded { mtu }, .. } => {
                assert_eq!(mtu, 68)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupted_message_rejected() {
        let msg = IcmpMessage::EchoReply { id: 1, seq: 1, payload: vec![1, 2, 3] };
        let mut bytes = msg.encode();
        bytes[5] ^= 0xff;
        assert_eq!(IcmpMessage::decode(&bytes), Err(IcmpError::BadChecksum));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![13u8, 0, 0, 0, 0, 0, 0, 0];
        let ck = checksum::checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(IcmpMessage::decode(&buf), Err(IcmpError::UnknownType(13)));
    }

    #[test]
    fn into_packet_sets_protocol() {
        let msg = IcmpMessage::EchoRequest { id: 1, seq: 1, payload: vec![] };
        let pkt = msg.into_packet("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 5, 64);
        assert_eq!(pkt.header.protocol, Protocol::Icmp);
        let parsed = IcmpMessage::decode(&pkt.payload).unwrap();
        assert!(matches!(parsed, IcmpMessage::EchoRequest { .. }));
    }

    #[test]
    fn quoted_ports_absent_for_echo() {
        let msg = IcmpMessage::EchoRequest { id: 1, seq: 1, payload: vec![] };
        assert_eq!(msg.quoted_udp_ports(), None);
        assert!(msg.quoted_header().is_none());
    }
}

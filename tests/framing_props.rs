//! In-place UDP/TCP framing: `into_packet` writes the transport header into
//! the payload's own buffer, byte-for-byte what a separate `header ‖
//! payload` encoding produces, and the host stack hands the received
//! payload back in that same buffer after validating the checksum once. A
//! `UdpTemplate` packet is byte-for-byte the full framing of the patched
//! datagram.

use cross_layer_attacks::netsim::checksum;
use cross_layer_attacks::netsim::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);

/// `payload` in a buffer with exactly `spare` bytes of unused capacity.
fn with_spare(payload: &[u8], spare: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + spare);
    buf.extend_from_slice(payload);
    buf
}

/// The UDP wire image built the straightforward way: header and payload
/// checksummed and concatenated into a fresh buffer (RFC 768).
fn reference_udp(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    let length = (8 + payload.len()) as u16;
    let mut header = [0u8; 8];
    header[0..2].copy_from_slice(&sport.to_be_bytes());
    header[2..4].copy_from_slice(&dport.to_be_bytes());
    header[4..6].copy_from_slice(&length.to_be_bytes());
    let mut c = checksum::pseudo_header(SRC, DST, 17, length);
    c.add_bytes(&header);
    c.add_bytes(payload);
    let ck = match c.finish() {
        0 => 0xffff,
        ck => ck,
    };
    header[6..8].copy_from_slice(&ck.to_be_bytes());
    [&header[..], payload].concat()
}

/// The TCP wire image built the straightforward way (RFC 793, no options).
fn reference_tcp(seg: &TcpSegment, payload: &[u8]) -> Vec<u8> {
    let f = seg.flags;
    let mut header = [0u8; 20];
    header[0..2].copy_from_slice(&seg.src_port.to_be_bytes());
    header[2..4].copy_from_slice(&seg.dst_port.to_be_bytes());
    header[4..8].copy_from_slice(&seg.seq.to_be_bytes());
    header[8..12].copy_from_slice(&seg.ack.to_be_bytes());
    header[12] = 0x50;
    header[13] = f.fin as u8 | (f.syn as u8) << 1 | (f.rst as u8) << 2 | (f.psh as u8) << 3 | (f.ack as u8) << 4;
    header[14..16].copy_from_slice(&seg.window.to_be_bytes());
    let mut c = checksum::pseudo_header(SRC, DST, 6, (20 + payload.len()) as u16);
    c.add_bytes(&header);
    c.add_bytes(payload);
    header[16..18].copy_from_slice(&c.finish().to_be_bytes());
    [&header[..], payload].concat()
}

/// Feeds `pkt` to a host owning `DST` with `port` open (UDP and TCP).
fn receive(pkt: Ipv4Packet, port: u16) -> Option<StackEvent> {
    let mut host = HostStack::with_defaults(vec![DST]);
    host.open_port(port);
    host.open_tcp_port(port);
    let mut replies = Vec::new();
    host.handle_packet(pkt, SimTime::ZERO, &mut ChaCha20Rng::seed_from_u64(1), &mut replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn udp_frames_in_place_and_is_received_without_a_copy(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        spare in 0usize..24,
        sport in 1u16..65535, dport in 1u16..65535,
        tamper in any::<usize>(),
    ) {
        let buf = with_spare(&payload, spare);
        let sent_at = buf.as_ptr();
        let pkt = UdpDatagram::new(SRC, DST, sport, dport, buf).into_packet(7, 64);
        prop_assert_eq!(&pkt.payload, &reference_udp(sport, dport, &payload));
        if spare >= 8 {
            prop_assert_eq!(pkt.payload.as_ptr(), sent_at, "framed in the payload's own buffer");
        }

        // A one-byte tamper anywhere in the datagram but its checksum field
        // (where a zero would read as "no checksum") fails the checksum.
        let mut tampered = pkt.clone();
        let i = tamper % (tampered.payload.len() - 2);
        tampered.payload[if i < 6 { i } else { i + 2 }] ^= 0x01;
        prop_assert!(UdpDatagram::parse(&tampered).is_err());
        prop_assert!(matches!(receive(tampered, dport), Some(StackEvent::Dropped(_))));

        // The stack hands the payload over in the received buffer.
        let received_at = pkt.payload.as_ptr();
        let dgram = match receive(pkt, dport) {
            Some(StackEvent::Udp(dgram)) => dgram,
            other => {
                prop_assert!(false, "a valid datagram to an open port is delivered, got {:?}", other);
                unreachable!()
            }
        };
        prop_assert_eq!(&dgram.payload, &payload);
        prop_assert_eq!((dgram.src, dgram.src_port, dgram.dst_port), (SRC, sport, dport));
        prop_assert_eq!(dgram.payload.as_ptr(), received_at, "no copy on receipt");
    }

    #[test]
    fn tcp_frames_in_place_and_is_received_without_a_copy(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        spare in 0usize..40,
        seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32, window in any::<u16>(),
        tamper in any::<usize>(),
    ) {
        let flags = TcpFlags::from_byte(flags);
        let buf = with_spare(&payload, spare);
        let sent_at = buf.as_ptr();
        let seg = TcpSegment { src: SRC, dst: DST, src_port: 40000, dst_port: 53, seq, ack, flags, window, payload: buf };
        let expected = reference_tcp(&seg, &payload);
        let pkt = seg.into_packet(9, 64);
        prop_assert_eq!(&pkt.payload, &expected);
        if spare >= 20 {
            prop_assert_eq!(pkt.payload.as_ptr(), sent_at, "framed in the payload's own buffer");
        }

        let mut tampered = pkt.clone();
        let i = tamper % tampered.payload.len();
        tampered.payload[i] ^= 0x01;
        prop_assert!(TcpSegment::from_packet(&tampered).is_err());
        prop_assert!(matches!(receive(tampered, 53), Some(StackEvent::Dropped(_))));

        let received_at = pkt.payload.as_ptr();
        let seg = match receive(pkt, 53) {
            Some(StackEvent::Tcp(seg)) => seg,
            other => {
                prop_assert!(false, "a valid segment to an open port is delivered, got {:?}", other);
                unreachable!()
            }
        };
        prop_assert_eq!(&seg.payload, &payload);
        prop_assert_eq!((seg.seq, seg.ack, seg.flags, seg.window), (seq, ack, flags, window));
        prop_assert_eq!(seg.payload.as_ptr(), received_at, "no copy on receipt");
    }
}

/// Clamps a raw generated patch to one the template accepts: in the port
/// fields (datagram bytes 0-3) or in the payload (from byte 8 on), and
/// within the datagram.
fn clamp_patch(len: usize, at: usize, bytes: &[u8]) -> (usize, Vec<u8>) {
    let (offset, room) = match at % (len - 4) {
        at if at < 4 => (at, 4 - at),
        at => (at + 4, len - at - 4),
    };
    (offset, bytes[..bytes.len().min(room)].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A template packet equals the full framing of the patched datagram:
    /// patches at odd offsets, straddling checksum words, overlapping each
    /// other and rewriting the ports, over odd and even payload lengths.
    #[test]
    fn udp_template_patches_equal_a_full_framing(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        sport in any::<u16>(), dport in any::<u16>(),
        id in any::<u16>(), ttl in 1u8..=255,
        raw in proptest::collection::vec((any::<usize>(), proptest::collection::vec(any::<u8>(), 0..7)), 0..5),
    ) {
        let template = UdpTemplate::new(UdpDatagram::new(SRC, DST, sport, dport, payload.clone()), ttl);
        let mut image = reference_udp(sport, dport, &payload);
        let patches: Vec<(usize, Vec<u8>)> = raw.iter().map(|(at, bytes)| clamp_patch(image.len(), *at, bytes)).collect();
        for (offset, bytes) in &patches {
            image[*offset..*offset + bytes.len()].copy_from_slice(bytes);
        }
        let borrowed: Vec<(usize, &[u8])> = patches.iter().map(|(offset, bytes)| (*offset, &bytes[..])).collect();
        let pkt = template.packet(id, &borrowed);

        let (sport, dport) = (u16::from_be_bytes([image[0], image[1]]), u16::from_be_bytes([image[2], image[3]]));
        let full = UdpDatagram::new(SRC, DST, sport, dport, image[8..].to_vec()).into_packet(id, ttl);
        prop_assert_eq!(pkt.header, full.header);
        prop_assert_eq!(&pkt.payload, &full.payload);
        let (header, received) = UdpDatagram::parse(&pkt).expect("the updated checksum verifies");
        prop_assert_eq!((header.src_port, header.dst_port, received), (sport, dport, &image[8..]));
    }
}

/// A template keeps RFC 768's rule: a patch that makes the computed
/// checksum 0x0000 sends 0xffff, and a patch away from such a datagram
/// updates from the 0xffff stand-in like any other checksum.
#[test]
fn udp_template_sends_a_computed_zero_as_ffff() {
    let zero = Ipv4Addr::UNSPECIFIED;
    let summing_to_zero = UdpDatagram::new(zero, zero, 1, 2, vec![0xff, 0xd7]);
    let other = UdpDatagram::new(zero, zero, 1, 2, vec![0x12, 0x34]);
    for (from, to) in [(other.clone(), summing_to_zero.clone()), (summing_to_zero, other)] {
        let pkt = UdpTemplate::new(from, 64).packet(3, &[(8, &to.payload)]);
        let full = to.into_packet(3, 64);
        assert_eq!(pkt.payload, full.payload);
        assert!(UdpDatagram::parse(&pkt).is_ok());
    }
}

/// RFC 768: a computed checksum of 0x0000 goes on the wire as 0xffff, in
/// place or not. Pseudo-header, header and this payload sum to 0xffff.
#[test]
fn computed_zero_udp_checksum_is_sent_as_ffff_in_place() {
    let zero = Ipv4Addr::UNSPECIFIED;
    for spare in [0, 8] {
        let pkt = UdpDatagram::new(zero, zero, 1, 2, with_spare(&[0xff, 0xd7], spare)).into_packet(1, 64);
        assert_eq!(pkt.payload[6..8], [0xff, 0xff]);
        assert_eq!(UdpDatagram::parse(&pkt).map(|(_, payload)| payload.to_vec()), Ok(vec![0xff, 0xd7]));
    }
}

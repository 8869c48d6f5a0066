//! Property-based tests over the wire codecs and core data-structure
//! invariants of the workspace.

use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::checksum::{self, Checksum};
use cross_layer_attacks::netsim::prelude::*;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,12}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("valid labels"))
}

fn arb_addr() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<u32>().prop_map(std::net::Ipv4Addr::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The internet checksum verifies for any payload once embedded in a UDP datagram.
    #[test]
    fn udp_datagram_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..600),
                              src in arb_addr(), dst in arb_addr(),
                              sport in 1u16..65535, dport in 1u16..65535,
                              ipid in any::<u16>()) {
        let dgram = UdpDatagram::new(src, dst, sport, dport, payload.clone());
        let pkt = dgram.clone().into_packet(ipid, 64);
        // IPv4 header roundtrip.
        let decoded = Ipv4Packet::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(&decoded.header, &pkt.header);
        // UDP checksum verification succeeds and payload is preserved.
        let parsed = UdpDatagram::from_packet(&decoded).unwrap();
        prop_assert_eq!(parsed.payload, payload);
        prop_assert_eq!(parsed.src_port, sport);
    }

    /// Tampering with any payload byte breaks the UDP checksum.
    #[test]
    fn udp_checksum_detects_single_byte_tampering(payload in proptest::collection::vec(any::<u8>(), 8..200),
                                                  flip_index in 0usize..200, flip_bit in 0u8..8) {
        let src: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "198.51.100.2".parse().unwrap();
        let dgram = UdpDatagram::new(src, dst, 1000, 53, payload.clone());
        let mut pkt = dgram.into_packet(7, 64);
        let idx = 8 + (flip_index % payload.len());
        pkt.payload[idx] ^= 1 << flip_bit;
        prop_assert!(UdpDatagram::from_packet(&pkt).is_err());
    }

    /// Fragmentation + reassembly is the identity for any datagram and MTU.
    #[test]
    fn fragmentation_roundtrip(payload_len in 1usize..4000, mtu in 68u16..1500, ipid in any::<u16>()) {
        let src: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "10.0.0.2".parse().unwrap();
        let payload = vec![0xABu8; payload_len];
        let pkt = UdpDatagram::new(src, dst, 1, 2, payload).into_packet(ipid, 64);
        let frags = fragment_packet(&pkt, mtu);
        // Fragments respect the MTU and tile the payload exactly.
        for f in &frags {
            prop_assert!(f.wire_len() <= usize::from(mtu) || frags.len() == 1);
        }
        let mut buf = ReassemblyBuffer::default();
        let mut out = None;
        for f in &frags {
            if let netsim::frag::ReassemblyResult::Complete(p) = buf.push(f, SimTime::ZERO) {
                out = Some(p);
            }
        }
        let reassembled = out.expect("reassembly completes");
        prop_assert_eq!(reassembled.payload, pkt.payload);
    }

    /// DNS name encoding round-trips and preserves case-insensitive equality.
    #[test]
    fn name_roundtrip(name in arb_name()) {
        let mut buf = Vec::new();
        name.encode(&mut buf, None);
        let (decoded, consumed) = DomainName::decode(&buf, 0).unwrap();
        prop_assert_eq!(&decoded, &name);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded.wire_len(), buf.len());
    }

    /// Full DNS messages round-trip through the wire codec.
    #[test]
    fn message_roundtrip(name in arb_name(), id in any::<u16>(), ttl in 1u32..86_400,
                         addrs in proptest::collection::vec(arb_addr(), 1..8),
                         txt in "[ -~]{0,100}") {
        let q = Message::query(id, name.clone(), RecordType::ANY);
        let mut r = Message::response_for(&q);
        for a in &addrs {
            r.answers.push(ResourceRecord::new(name.clone(), ttl, RData::A(*a)));
        }
        r.answers.push(ResourceRecord::new(name.clone(), ttl, RData::Txt(txt.clone())));
        r.authorities.push(ResourceRecord::new(name.clone(), ttl, RData::Ns(name.clone())));
        let decoded = Message::decode(&r.encode()).unwrap();
        prop_assert_eq!(decoded, r);
    }

    /// 0x20 case randomisation never changes which name is meant.
    #[test]
    fn x20_preserves_identity(name in arb_name(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(seed);
        let cased = name.randomize_case(&mut rng);
        prop_assert_eq!(&cased, &name);
        prop_assert!(cased.is_subdomain_of(&name));
    }

    /// Cache lookups never return expired entries.
    #[test]
    fn cache_respects_ttl(ttl in 1u32..1000, elapsed in 0u64..2000) {
        let mut cache = Cache::new();
        let name: DomainName = "prop.vict.im".parse().unwrap();
        let rr = ResourceRecord::new(name.clone(), ttl, RData::A("1.2.3.4".parse().unwrap()));
        cache.insert_records(&[rr], SimTime::ZERO, false);
        let now = SimTime::ZERO + Duration::from_secs(elapsed);
        let hit = cache.lookup(&name, RecordType::A, now).is_some();
        prop_assert_eq!(hit, elapsed < u64::from(ttl));
    }

    /// Prefix containment is consistent with covers() and sub-prefix splitting.
    #[test]
    fn prefix_invariants(addr in arb_addr(), len in 8u8..32) {
        let p = Prefix::new(addr, len);
        prop_assert!(p.contains(p.addr));
        if let Some(sub) = p.first_subprefix() {
            prop_assert!(p.covers(&sub));
            prop_assert!(p.contains(sub.addr));
            prop_assert_eq!(sub.len, len + 1);
        }
    }

    /// The token-bucket ICMP limiter never allows more than `capacity` errors
    /// in a single instant.
    #[test]
    fn icmp_limiter_caps_burst(capacity in 1u32..200, probes in 1usize..400) {
        let mut limiter = IcmpRateLimiter::new(IcmpRateLimitPolicy::Global { capacity, per_second: capacity as f64 });
        let dst: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let allowed = (0..probes).filter(|_| limiter.allow(dst, SimTime::ZERO)).count();
        prop_assert!(allowed <= capacity as usize);
        prop_assert_eq!(allowed, probes.min(capacity as usize));
    }

    /// TCP segment encode/decode is the identity for arbitrary headers and
    /// payloads, and the checksum always verifies.
    #[test]
    fn tcp_segment_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..600),
                             src in arb_addr(), dst in arb_addr(),
                             sport in 1u16..65535, dport in 1u16..65535,
                             seq in any::<u32>(), ack in any::<u32>(),
                             flag_bits in 0u8..32, window in any::<u16>(),
                             ipid in any::<u16>()) {
        let seg = TcpSegment {
            src, dst, src_port: sport, dst_port: dport, seq, ack,
            flags: TcpFlags {
                fin: flag_bits & 1 != 0,
                syn: flag_bits & 2 != 0,
                rst: flag_bits & 4 != 0,
                psh: flag_bits & 8 != 0,
                ack: flag_bits & 16 != 0,
            },
            window,
            payload,
        };
        let pkt = seg.clone().into_packet(ipid, 64);
        prop_assert!(pkt.header.dont_fragment, "TCP always sets DF");
        let decoded = Ipv4Packet::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(TcpSegment::from_packet(&decoded).unwrap(), seg);
    }

    /// Tampering with any byte of a TCP segment breaks its checksum — and a
    /// zeroed checksum field is itself a verification failure (no UDP-style
    /// "checksum absent" escape hatch, RFC 793).
    #[test]
    fn tcp_checksum_detects_single_byte_tampering(payload in proptest::collection::vec(any::<u8>(), 4..200),
                                                  flip_index in 0usize..200, flip_bit in 0u8..8) {
        let src: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "198.51.100.2".parse().unwrap();
        let seg = TcpSegment {
            src, dst, src_port: 49152, dst_port: 53, seq: 7, ack: 9,
            flags: TcpFlags::ack(), window: 512, payload: payload.clone(),
        };
        let mut pkt = seg.into_packet(3, 64);
        let idx = netsim::tcp::TCP_HEADER_LEN + (flip_index % payload.len());
        pkt.payload[idx] ^= 1 << flip_bit;
        prop_assert!(TcpSegment::from_packet(&pkt).is_err());
    }

    /// The TCP handshake state machine reaches `Established` on both ends
    /// for any ISN pair, then delivers an arbitrary payload in order under
    /// any MSS, with exact byte accounting.
    #[test]
    fn tcp_handshake_and_stream_delivery(client_isn in any::<u32>(), server_isn in any::<u32>(),
                                         mss in 1u16..1500,
                                         payload in proptest::collection::vec(any::<u8>(), 1..2000)) {
        let a = Endpoint::new("10.0.0.1".parse().unwrap(), 49152);
        let b = Endpoint::new("10.0.0.2".parse().unwrap(), 53);
        let (mut client, syn) = TcpConnection::client(a, b, client_isn, mss);
        prop_assert_eq!(client.state, TcpState::SynSent);
        let (mut server, syn_ack) = TcpConnection::server(b, a, server_isn, mss, &syn);
        let reaction = client.on_segment(&syn_ack);
        prop_assert_eq!(client.state, TcpState::Established);
        for reply in &reaction.replies {
            server.on_segment(reply);
        }
        prop_assert_eq!(server.state, TcpState::Established);

        // Sequence numbers picked up exactly where the ISNs left off.
        prop_assert_eq!(client.snd_nxt(), client_isn.wrapping_add(1));
        prop_assert_eq!(server.rcv_nxt(), client_isn.wrapping_add(1));
        prop_assert_eq!(client.rcv_nxt(), server_isn.wrapping_add(1));

        // Stream delivery: every segment respects the MSS, arrives in order
        // and reassembles to the exact payload.
        let segs = client.send(&payload);
        prop_assert_eq!(segs.len(), payload.len().div_ceil(usize::from(mss)));
        let mut delivered = Vec::new();
        for seg in &segs {
            prop_assert!(seg.payload.len() <= usize::from(mss));
            for event in server.on_segment(seg).events {
                if let SocketEvent::Data { payload, .. } = event {
                    delivered.extend_from_slice(&payload);
                }
            }
        }
        prop_assert_eq!(&delivered, &payload);
        prop_assert_eq!(server.bytes_received, payload.len() as u64);
        prop_assert_eq!(client.bytes_sent, payload.len() as u64);
        prop_assert_eq!(server.rcv_nxt(), client_isn.wrapping_add(1).wrapping_add(payload.len() as u32));
    }

    /// The engine's time wheel pops events in exactly the order the old
    /// `BinaryHeap<Reverse<(SimTime, seq)>>` scheduler did — ascending
    /// `(time, seq)` — for any batch of events, including times past the
    /// wheel horizon (overflow heap) and pushes interleaved with pops
    /// (cascading between levels while the clock advances). A bounded pop
    /// just short of the next event's time yields nothing.
    #[test]
    fn time_wheel_matches_binary_heap_ordering(
        first in proptest::collection::vec(0u64..(1u64 << 49), 1..120),
        second in proptest::collection::vec(0u64..(1u64 << 49), 0..120),
    ) {
        use cross_layer_attacks::netsim::wheel::TimeWheel;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel = TimeWheel::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |wheel: &mut TimeWheel<u64>, heap: &mut BinaryHeap<_>, t: SimTime| {
            wheel.push(t, seq, seq);
            heap.push(Reverse((t, seq, seq)));
            seq += 1;
        };
        for &nanos in &first {
            push(&mut wheel, &mut heap, SimTime::from_nanos(nanos));
        }
        // Drain half the batch, checking order as we go, then push the second
        // batch relative to the last popped time — the engine's pattern of
        // scheduling new events while the wheel's clock is mid-flight.
        let mut last = SimTime::ZERO;
        for _ in 0..first.len() / 2 {
            let got = wheel.pop().expect("wheel drains in step with the heap");
            let Reverse(expected) = heap.pop().expect("heap has the same events");
            prop_assert_eq!(got, expected);
            last = got.0;
        }
        for &nanos in &second {
            push(&mut wheel, &mut heap, last + Duration::from_nanos(nanos));
        }
        while let Some(Reverse(expected)) = heap.pop() {
            if expected.0 > SimTime::ZERO {
                let just_before = SimTime::from_nanos(expected.0.as_nanos() - 1);
                prop_assert!(wheel.pop_until(just_before).is_none());
            }
            prop_assert_eq!(wheel.pop_until(expected.0), Some(expected));
        }
        prop_assert!(wheel.pop().is_none());
        prop_assert!(wheel.is_empty());
    }

    /// An off-path segment that guessed the 4-tuple but not the exact
    /// sequence number is never delivered to the application.
    #[test]
    fn tcp_wrong_seq_never_delivers(client_isn in any::<u32>(), server_isn in any::<u32>(),
                                    seq_offset in 1u32..u32::MAX,
                                    payload in proptest::collection::vec(any::<u8>(), 1..100)) {
        let a = Endpoint::new("10.0.0.1".parse().unwrap(), 49152);
        let b = Endpoint::new("10.0.0.2".parse().unwrap(), 53);
        let (mut client, syn) = TcpConnection::client(a, b, client_isn, 1460);
        let (mut server, syn_ack) = TcpConnection::server(b, a, server_isn, 1460, &syn);
        let reaction = client.on_segment(&syn_ack);
        for reply in &reaction.replies {
            server.on_segment(reply);
        }
        let forged = TcpSegment {
            src: a.addr, dst: b.addr, src_port: a.port, dst_port: b.port,
            seq: server.rcv_nxt().wrapping_add(seq_offset), ack: server.snd_nxt(),
            flags: TcpFlags { ack: true, psh: true, ..Default::default() },
            window: 512, payload,
        };
        let reaction = server.on_segment(&forged);
        let delivered_data = reaction.events.iter().any(|e| matches!(e, SocketEvent::Data { .. }));
        prop_assert!(!delivered_data);
        prop_assert_eq!(server.bytes_received, 0);
    }
}

/// The textbook RFC 1071 sum: one 16-bit word at a time, zero-padding a
/// trailing odd byte — the reference the wide-word accumulator must match.
fn scalar_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for chunk in data.chunks(2) {
        let word = if chunk.len() == 2 { u16::from_be_bytes([chunk[0], chunk[1]]) } else { (chunk[0] as u16) << 8 };
        sum += u32::from(word);
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 8-byte-word checksum accumulator equals the per-word scalar sum
    /// on arbitrary buffers, including odd lengths.
    #[test]
    fn wide_checksum_equals_scalar(data in proptest::collection::vec(any::<u8>(), 0..700)) {
        prop_assert_eq!(checksum::checksum(&data), scalar_checksum(&data));
    }

    /// Feeding a buffer in two chunks at *any* split point — including
    /// splits that leave a pending odd byte mid-stream — equals the
    /// single-shot sum.
    #[test]
    fn chunked_checksum_is_split_invariant(data in proptest::collection::vec(any::<u8>(), 0..700),
                                           split in any::<usize>()) {
        let at = split % (data.len() + 1);
        let mut c = Checksum::new();
        c.add_bytes(&data[..at]);
        c.add_bytes(&data[at..]);
        prop_assert_eq!(c.finish(), scalar_checksum(&data));
    }

    /// Many-way chunked feeding (every piece a random size, odd pieces
    /// everywhere) still equals the single-shot sum.
    #[test]
    fn multi_chunk_checksum_matches(pieces in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..40), 0..12)) {
        let mut c = Checksum::new();
        for piece in &pieces {
            c.add_bytes(piece);
        }
        let flat: Vec<u8> = pieces.concat();
        prop_assert_eq!(c.finish(), scalar_checksum(&flat));
    }
}

/// A port that lands on the edges of the stack's port bitmap: port 0, port
/// 65535, one of the ports either side of the first 64-bit word boundary,
/// or any port.
fn arb_port() -> impl Strategy<Value = u16> {
    (0u8..4, 62u16..66, any::<u16>()).prop_map(|(kind, near_boundary, port)| match kind {
        0 => 0,
        1 => u16::MAX,
        2 => near_boundary,
        _ => port,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The stack's UDP and TCP port tables agree with a `HashSet` model
    /// under any sequence of opens and closes: membership, the open-port
    /// count, and the independence of the two tables.
    #[test]
    fn port_tables_match_a_set_model(ops in proptest::collection::vec((0u8..3, arb_port()), 0..300)) {
        let mut stack = HostStack::with_defaults(vec![std::net::Ipv4Addr::new(10, 0, 0, 1)]);
        let mut udp = std::collections::HashSet::new();
        let mut tcp = std::collections::HashSet::new();
        for &(op, port) in &ops {
            match op {
                0 => {
                    stack.open_port(port);
                    udp.insert(port);
                }
                1 => {
                    stack.close_port(port);
                    udp.remove(&port);
                }
                _ => {
                    stack.open_tcp_port(port);
                    tcp.insert(port);
                }
            }
            prop_assert_eq!(stack.open_port_count(), udp.len());
        }
        let edges = [0, 1, 62, 63, 64, 65, 65534, u16::MAX];
        for port in ops.iter().map(|&(_, port)| port).chain(edges) {
            prop_assert_eq!(stack.is_port_open(port), udp.contains(&port), "udp port {}", port);
            prop_assert_eq!(stack.is_tcp_port_open(port), tcp.contains(&port), "tcp port {}", port);
        }
    }
}

/// What the order-contract hosts share with the test that builds them: every
/// event takes the next index when it is scheduled, which is the order the
/// engine assigns seqs in, and records when it is due and when it fired.
#[derive(Default)]
struct OrderLedger {
    due: Vec<SimTime>,
    fired: Vec<(SimTime, u64)>,
    /// Timer delays in microseconds; a host picks one by event index.
    delays_us: Vec<u64>,
}

impl OrderLedger {
    fn schedule(&mut self, due: SimTime) -> u64 {
        self.due.push(due);
        self.due.len() as u64 - 1
    }
}

type Ledger = std::rc::Rc<std::cell::RefCell<OrderLedger>>;

const ORDER_HOSTS: usize = 4;

fn order_addr(host: usize) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::new(10, 7, 0, 1 + host as u8)
}

/// The latency between two order hosts: 1, 3 or 7 ms over an installed link,
/// the default link's 10 ms between the pairs that have none.
fn order_latency(a: usize, b: usize) -> Duration {
    match (a.min(b), a.max(b)) {
        (0, 1) => Duration::from_millis(1),
        (1, 2) => Duration::from_millis(3),
        (0, 2) | (2, 3) => Duration::from_millis(7),
        _ => Link::default().latency,
    }
}

/// A datagram carrying event `index`, to be followed by `hops` more sends.
fn order_packet(from: usize, to: usize, index: u64, hops: u8) -> Ipv4Packet {
    let mut payload = index.to_le_bytes().to_vec();
    payload.push(hops);
    UdpDatagram::new(order_addr(from), order_addr(to), 7000, 7000, payload).into_packet(0, 64)
}

/// Logs every packet and timer it receives. A packet with hops left makes
/// it send one packet on to another host and arm one timer, in that order:
/// the engine queues a callback's packets before its timers.
struct OrderHost {
    me: usize,
    ledger: Ledger,
}

impl Node for OrderHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        let payload = UdpDatagram::from_packet(pkt).expect("an order datagram").payload;
        let index = u64::from_le_bytes(payload[..8].try_into().expect("eight index bytes"));
        let mut ledger = self.ledger.borrow_mut();
        ledger.fired.push((ctx.now(), index));
        if let Some(hops) = payload[8].checked_sub(1) {
            let to = (self.me + 1 + index as usize % (ORDER_HOSTS - 1)) % ORDER_HOSTS;
            let next = ledger.schedule(ctx.now() + order_latency(self.me, to));
            ctx.send(order_packet(self.me, to, next, hops));
            let delay = Duration::from_micros(ledger.delays_us[index as usize % ledger.delays_us.len()]);
            let timer = ledger.schedule(ctx.now() + delay);
            ctx.set_timer(delay, timer);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.ledger.borrow_mut().fired.push((ctx.now(), token));
    }
}

/// One event the test schedules before the run: `(kind, from, to, amount,
/// hops)`. Kind 0 arms a timer of `amount` half-milliseconds at `from`,
/// kind 1 sends one packet from `from` to `to`, and kind 2 a train of
/// `amount % 40 + 1` packets.
type OrderOp = (u8, usize, usize, u64, u8);

fn order_world(ops: &[OrderOp], delays_us: &[u64]) -> (Simulator, Ledger) {
    let ledger = Ledger::default();
    ledger.borrow_mut().delays_us = delays_us.to_vec();
    let mut sim = Simulator::new(2021);
    let hosts: Vec<NodeId> = (0..ORDER_HOSTS)
        .map(|me| sim.add_node(&format!("h{me}"), vec![order_addr(me)], OrderHost { me, ledger: ledger.clone() }))
        .collect();
    for a in 0..ORDER_HOSTS {
        for b in a + 1..ORDER_HOSTS {
            let latency = order_latency(a, b);
            if latency != Link::default().latency {
                sim.connect(hosts[a], hosts[b], Link::with_latency(latency));
            }
        }
    }
    let mut l = ledger.borrow_mut();
    for &(kind, from, to, amount, hops) in ops {
        let to = if to == from { (to + 1) % ORDER_HOSTS } else { to };
        let arrival = sim.now() + order_latency(from, to);
        match kind {
            0 => {
                let delay = Duration::from_micros(amount * 500);
                let index = l.schedule(sim.now() + delay);
                sim.schedule_timer(hosts[from], delay, index);
            }
            1 => {
                let index = l.schedule(arrival);
                sim.inject(hosts[from], order_packet(from, to, index, hops));
            }
            _ => {
                let count = (amount % 40 + 1) as u32;
                let first = l.schedule(arrival);
                for _ in 1..count {
                    l.schedule(arrival);
                }
                sim.inject_train(hosts[from], count, move |k, pkt| {
                    *pkt = order_packet(from, to, first + u64::from(k), hops);
                });
            }
        }
    }
    drop(l);
    (sim, ledger)
}

/// Every scheduled event fired exactly once, at the time it was due, and
/// the events fired in strictly increasing `(time, index)` order.
fn check_fire_order(ledger: &OrderLedger) -> TestCaseResult {
    prop_assert_eq!(ledger.fired.len(), ledger.due.len(), "every scheduled event fires once");
    for pair in ledger.fired.windows(2) {
        prop_assert!(pair[0] < pair[1], "{:?} fired before {:?}", pair[0], pair[1]);
    }
    for &(time, index) in &ledger.fired {
        prop_assert_eq!(time, ledger.due[index as usize], "event {} fired off its due time", index);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine's order contract over packets in flight on links of four
    /// latencies (packet trains included), timers of generated delays, and
    /// the packets and timers hosts schedule as they go: events fire in
    /// `(time, scheduling index)` order, at their due time, whether the
    /// simulation steps, runs, or runs to a series of deadlines; a bounded
    /// run fires nothing past its deadline. All three fire the same events.
    #[test]
    fn events_fire_in_time_then_scheduling_order(
        ops in proptest::collection::vec((0u8..3, 0usize..ORDER_HOSTS, 0usize..ORDER_HOSTS, 0u64..60, 0u8..4), 1..30),
        delays_us in proptest::collection::vec((0u64..40).prop_map(|half_ms| half_ms * 500), 1..6),
        chunk_us in 100u64..15_000,
    ) {
        let (mut stepped, stepped_ledger) = order_world(&ops, &delays_us);
        while stepped.step() {}
        check_fire_order(&stepped_ledger.borrow())?;

        let (mut run, run_ledger) = order_world(&ops, &delays_us);
        run.run();
        check_fire_order(&run_ledger.borrow())?;
        prop_assert_eq!(&run_ledger.borrow().fired, &stepped_ledger.borrow().fired);

        let (mut bounded, bounded_ledger) = order_world(&ops, &delays_us);
        let mut deadline = SimTime::ZERO;
        while bounded.pending_events() > 0 {
            deadline = deadline + Duration::from_micros(chunk_us);
            bounded.run_until(deadline);
            prop_assert_eq!(bounded.now(), deadline);
            let last = bounded_ledger.borrow().fired.last().copied();
            prop_assert!(last.is_none_or(|(time, _)| time <= deadline), "{:?} fired past {}", last, deadline);
        }
        check_fire_order(&bounded_ledger.borrow())?;
        prop_assert_eq!(&bounded_ledger.borrow().fired, &stepped_ledger.borrow().fired);
    }
}

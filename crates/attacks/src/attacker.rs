//! The attacker host.
//!
//! The paper's threat model (Section 1, "Off-path attacks") is the weakest
//! realistic network attacker: a host in some AS that does **not** enforce
//! egress filtering, so it can emit packets with spoofed source addresses,
//! but that does not see any traffic between the victim resolver and the
//! genuine nameserver (unless it first reroutes that traffic with a BGP
//! hijack). [`AttackerNode`] is exactly that host: it records everything that
//! is delivered *to* it (intercepted queries under HijackDNS, ICMP responses
//! to its SadDNS verification probes, responses to its own reconnaissance
//! queries) and the attack drivers in this crate inject crafted packets from
//! it into the simulation.

use dns::prelude::*;
use netsim::icmp::Unreachable;
use netsim::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One ICMP error observed by the attacker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedIcmp {
    /// When it arrived.
    pub at: SimTime,
    /// Who sent it.
    pub from: Ipv4Addr,
    /// The unreachable condition reported.
    pub kind: Unreachable,
    /// Ports quoted from the offending datagram, if it quoted UDP.
    pub quoted_ports: Option<(u16, u16)>,
}

/// One UDP datagram observed by the attacker (with its IP-level metadata —
/// the IPID matters for FragDNS reconnaissance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedUdp {
    /// When it arrived.
    pub at: SimTime,
    /// IP identification of the (last) packet that carried it.
    pub ip_identification: u16,
    /// The datagram itself.
    pub datagram: UdpDatagram,
}

/// The attacker's machine.
pub struct AttackerNode {
    stack: HostStack,
    /// The TCP socket used to terminate hijacked DNS-over-TCP connections
    /// as if the attacker were the nameserver (local address spoofed to
    /// whatever the victim dialled).
    tcp_intercept: TcpSocket,
    tcp_rx: HashMap<Endpoint, TcpFrameBuffer>,
    /// ICMP errors delivered to the attacker.
    pub icmp_observed: Vec<ObservedIcmp>,
    /// UDP datagrams delivered to the attacker (intercepted queries,
    /// responses to reconnaissance queries, ...).
    pub udp_observed: Vec<ObservedUdp>,
    /// Raw IPv4 packets delivered to the attacker, in arrival order.
    pub raw_observed: Vec<(SimTime, Ipv4Packet)>,
    /// Whether the attacker should answer DNS queries that reach it (used
    /// when it impersonates a nameserver after a hijack) — over UDP and,
    /// for hijacked DNS-over-TCP resolvers, by completing the handshake as
    /// the nameserver. Answers map every query name to `malicious_a`.
    pub answer_dns_queries: bool,
    /// When impersonating, answer with an empty authoritative NOERROR
    /// response instead of planting a record (the erasure forgery).
    pub forge_empty_answers: bool,
    /// DNS queries served over hijacked TCP connections.
    pub tcp_queries_answered: u64,
    /// The address the attacker wants victims to end up at.
    pub malicious_a: Ipv4Addr,
}

impl AttackerNode {
    /// Creates an attacker at `addr` whose malicious records point at itself.
    pub fn new(addr: Ipv4Addr) -> Self {
        let mut stack = HostStack::with_defaults(vec![addr]);
        // The attacker listens on a handful of ports it uses for its own
        // probes and for impersonated services.
        stack.open_port(53);
        stack.open_port(4444);
        AttackerNode {
            stack,
            tcp_intercept: TcpSocket::listener(53),
            tcp_rx: HashMap::new(),
            icmp_observed: Vec::new(),
            udp_observed: Vec::new(),
            raw_observed: Vec::new(),
            answer_dns_queries: false,
            forge_empty_answers: false,
            tcp_queries_answered: 0,
            malicious_a: addr,
        }
    }

    /// The attacker's own address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.primary_addr()
    }

    /// ICMP errors received strictly after `t`.
    pub(crate) fn icmp_since(&self, t: SimTime) -> Vec<&ObservedIcmp> {
        self.icmp_observed.iter().filter(|o| o.at > t).collect()
    }

    /// Whether a port-unreachable arrived after `t` — the SadDNS verification
    /// probe outcome.
    pub(crate) fn port_unreachable_since(&self, t: SimTime) -> bool {
        self.icmp_since(t).iter().any(|o| o.kind == Unreachable::Port)
    }

    /// DNS queries (not responses) intercepted by the attacker, e.g. after a
    /// BGP hijack of the nameserver's prefix.
    pub(crate) fn intercepted_queries(&self) -> Vec<(&ObservedUdp, Message)> {
        self.udp_observed
            .iter()
            .filter_map(|o| Message::decode(&o.datagram.payload).ok().map(|m| (o, m)))
            .filter(|(_, m)| !m.header.is_response)
            .collect()
    }

    /// DNS responses received by the attacker (reconnaissance answers).
    pub(crate) fn received_responses(&self) -> Vec<(&ObservedUdp, Message)> {
        self.udp_observed
            .iter()
            .filter_map(|o| Message::decode(&o.datagram.payload).ok().map(|m| (o, m)))
            .filter(|(_, m)| m.header.is_response)
            .collect()
    }

    /// Crafts the impersonated answer for one query intercepted over a
    /// hijacked TCP connection and sends it back on that connection, with
    /// the source address spoofed to the nameserver the victim dialled.
    fn serve_hijacked_tcp(&mut self, local: Endpoint, peer: Endpoint, frame: &[u8], ctx: &mut Ctx<'_>) {
        let Ok(query) = Message::decode(frame) else { return };
        if query.header.is_response {
            return;
        }
        let Some(q) = query.question().cloned() else { return };
        let mut resp = Message::response_for(&query);
        resp.header.authoritative = true;
        if !self.forge_empty_answers {
            resp.answers.push(ResourceRecord::new(q.name, 300, RData::A(self.malicious_a)));
        }
        self.tcp_queries_answered += 1;
        let wire = resp.encode();
        let framed = frame_tcp(&wire);
        netsim::pool::give(wire);
        let intercept = &mut self.tcp_intercept;
        with_io(&mut self.stack, ctx, |io| intercept.send_from(io, local, peer, &framed));
    }

    /// Terminates hijacked TCP traffic (packets whose destination the
    /// attacker does not own): completes handshakes as the dialled host and,
    /// when impersonation is on, answers the DNS queries inside.
    fn handle_hijacked_tcp(&mut self, pkt: &Ipv4Packet, ctx: &mut Ctx<'_>) {
        let Ok(seg) = TcpSegment::from_packet(pkt) else { return };
        let intercept = &mut self.tcp_intercept;
        let sock_events = with_io(&mut self.stack, ctx, |io| intercept.handle_segment(io, &seg));
        for se in sock_events {
            match se {
                SocketEvent::Data { peer, local, payload } => {
                    for frame in TcpFrameBuffer::push_and_drain(&mut self.tcp_rx, peer, &payload) {
                        self.serve_hijacked_tcp(local, peer, &frame, ctx);
                    }
                }
                SocketEvent::PeerClosed { peer, .. } => {
                    // Finish the teardown like a real server would, so the
                    // victim's connection does not sit in FIN_WAIT_2 for the
                    // rest of the simulation.
                    self.tcp_rx.remove(&peer);
                    let intercept = &mut self.tcp_intercept;
                    with_io(&mut self.stack, ctx, |io| intercept.close_peer(io, peer));
                }
                SocketEvent::Reset { peer, .. } => {
                    self.tcp_rx.remove(&peer);
                }
                SocketEvent::Connected { .. } => {}
            }
        }
    }
}

impl Node for AttackerNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        let now = ctx.now();
        self.raw_observed.push((now, pkt.clone()));
        // Packets not addressed to the attacker only ever reach it because a
        // BGP hijack redirected them (HijackDNS interception). Record them
        // directly — the attacker is effectively promiscuous for hijacked
        // traffic — and, when impersonation is on, terminate hijacked TCP
        // connections as the host the victim dialled.
        if !self.stack.owns(pkt.header.dst) {
            if let Ok(dgram) = UdpDatagram::from_packet(pkt) {
                self.udp_observed.push(ObservedUdp {
                    at: now,
                    ip_identification: pkt.header.identification,
                    datagram: dgram,
                });
            } else if pkt.header.protocol == Protocol::Tcp && self.answer_dns_queries {
                self.handle_hijacked_tcp(pkt, ctx);
            }
            return;
        }
        let (dst, ip_identification) = (pkt.header.dst, pkt.header.identification);
        let mut replies = Vec::new();
        let event = self.stack.handle_packet(pkt, now, ctx.rng(), &mut replies);
        // The attacker never sends ICMP errors back (it stays quiet), so the
        // stack's replies are suppressed except echo replies (it answers
        // pings to look like an ordinary host).
        for reply in replies {
            if let Ok(IcmpMessage::EchoReply { .. }) = IcmpMessage::decode(&reply.payload) {
                ctx.send(reply);
            }
        }
        match event {
            Some(StackEvent::Udp(dgram)) => {
                if self.answer_dns_queries && dgram.dst_port == 53 {
                    if let Ok(query) = Message::decode(dgram.payload) {
                        if !query.header.is_response {
                            if let Some(q) = query.question().cloned() {
                                let mut resp = Message::response_for(&query);
                                resp.header.authoritative = true;
                                resp.answers.push(ResourceRecord::new(q.name, 300, RData::A(self.malicious_a)));
                                let answer = UdpDatagram::new(dst, dgram.src, 53, dgram.src_port, resp.encode());
                                with_io(&mut self.stack, ctx, |io| io.send_udp(answer));
                            }
                        }
                    }
                }
                self.udp_observed.push(ObservedUdp { at: now, ip_identification, datagram: dgram.to_datagram() });
            }
            Some(StackEvent::IcmpError { from, kind, quoted_ports, .. }) => {
                self.icmp_observed.push(ObservedIcmp { at: now, from, kind, quoted_ports });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const OTHER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    #[test]
    fn records_udp_and_icmp() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("attacker", vec![ATTACKER], AttackerNode::new(ATTACKER));
        let o = sim.add_node("other", vec![OTHER], EchoNode::default());
        sim.connect(a, o, Link::default());
        // A DNS query reaches the attacker's port 53.
        let q = Message::query(5, "vict.im".parse().unwrap(), RecordType::A);
        sim.inject(o, UdpDatagram::new(OTHER, ATTACKER, 1234, 53, q.encode()).into_packet(77, 64));
        // An ICMP port unreachable reaches the attacker.
        let probe = UdpDatagram::new(ATTACKER, OTHER, 4444, 9, vec![]).into_packet(3, 64);
        sim.inject(o, IcmpMessage::port_unreachable(&probe).into_packet(OTHER, ATTACKER, 4, 64));
        sim.run();
        let attacker = sim.node_ref::<AttackerNode>(a).unwrap();
        assert_eq!(attacker.intercepted_queries().len(), 1);
        assert_eq!(attacker.udp_observed[0].ip_identification, 77);
        assert!(attacker.port_unreachable_since(SimTime::ZERO));
        assert_eq!(attacker.icmp_observed.len(), 1);
    }

    #[test]
    fn optionally_impersonates_a_nameserver() {
        let mut sim = Simulator::new(2);
        let mut node = AttackerNode::new(ATTACKER);
        node.answer_dns_queries = true;
        let a = sim.add_node("attacker", vec![ATTACKER], node);
        let o = sim.add_node("victim", vec![OTHER], SinkNode::default());
        sim.connect(a, o, Link::default());
        let q = Message::query(9, "login.vict.im".parse().unwrap(), RecordType::A);
        sim.inject(o, UdpDatagram::new(OTHER, ATTACKER, 1234, 53, q.encode()).into_packet(1, 64));
        sim.run();
        // The victim got an answer pointing at the attacker.
        assert_eq!(sim.stats(o).udp_received, 1);
        let attacker = sim.node_ref::<AttackerNode>(a).unwrap();
        assert_eq!(attacker.intercepted_queries().len(), 1);
    }

    #[test]
    fn ipid_sampling() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node("attacker", vec![ATTACKER], AttackerNode::new(ATTACKER));
        let o = sim.add_node("other", vec![OTHER], EchoNode::default());
        sim.connect(a, o, Link::default());
        for id in [100u16, 101, 102] {
            sim.inject(o, UdpDatagram::new(OTHER, ATTACKER, 53, 4444, vec![1]).into_packet(id, 64));
        }
        sim.run();
        let attacker = sim.node_ref::<AttackerNode>(a).unwrap();
        let ipids: Vec<u16> = attacker
            .raw_observed
            .iter()
            .filter(|(_, p)| p.header.src == OTHER && p.header.protocol == Protocol::Udp)
            .map(|(_, p)| p.header.identification)
            .collect();
        assert_eq!(ipids, vec![100, 101, 102]);
    }
}

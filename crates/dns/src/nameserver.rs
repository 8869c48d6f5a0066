//! The authoritative nameserver node.
//!
//! The nameserver exhibits every property the paper's measurements probe for
//! (Section 5.2.2):
//!
//! * **PMTUD reaction** — it honours spoofed ICMP "fragmentation needed"
//!   messages and subsequently fragments its UDP responses (FragDNS
//!   prerequisite), unless hardened with a minimum accepted MTU;
//! * **IP-ID assignment policy** — global incremental counter (predictable),
//!   per-destination counter, or random (sets the FragDNS hit rate);
//! * **response rate limiting (RRL)** — which the SadDNS attacker abuses to
//!   "mute" the genuine server and extend its race window;
//! * **`ANY` amplification** — large `ANY` responses exceed the minimum MTU
//!   and fragment, the main response-inflation vector;
//! * **record-order randomisation** — the countermeasure that makes the
//!   second-fragment UDP checksum unpredictable;
//! * **EDNS/TC handling** — responses larger than the client's advertised
//!   EDNS size are truncated, which defeats fragmentation-based poisoning
//!   (the "fitting into the response" constraint of Figure 4);
//! * **DNS over TCP** (RFC 7766) — the server listens on TCP 53 and answers
//!   length-prefixed queries over the stream with neither EDNS truncation
//!   (the stream has no size limit) nor RRL (the handshake proves return
//!   routability, so there is no reflection to rate-limit — and no muting
//!   oracle for SadDNS).

use crate::message::{frame_tcp, Message, Rcode, TcpFrameBuffer};
use crate::rdata::{RecordType, ResourceRecord};
use crate::zone::{LookupResult, Zone};
use netsim::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Configuration of an authoritative nameserver.
#[derive(Debug, Clone)]
pub struct NameserverConfig {
    /// Address the nameserver listens on (port 53).
    pub addr: Ipv4Addr,
    /// Response rate limit in responses/second; `None` disables RRL.
    pub rrl_limit: Option<u32>,
    /// IP identification policy for outgoing packets.
    pub ipid_policy: IpIdPolicy,
    /// Whether the order of records in responses is randomised
    /// (countermeasure: makes the spoofed-fragment checksum unpredictable).
    pub randomize_record_order: bool,
    /// Whether `ANY` queries are answered with the full record set.
    pub respond_to_any: bool,
    /// Whether ICMP fragmentation-needed messages are honoured (PMTUD).
    pub honor_pmtud: bool,
    /// Minimum path MTU the server will accept from PMTUD signals.
    pub min_accepted_mtu: u16,
    /// Optional padding: responses are padded (with a synthetic TXT record)
    /// up to at least this many bytes — the "custom nameserver application
    /// which will always emit fragmented responses padded to a certain size"
    /// used by the paper's FragDNS vulnerability scanner.
    pub pad_responses_to: Option<u16>,
}

impl NameserverConfig {
    /// A conventional, unhardened nameserver at `addr`.
    pub fn new(addr: Ipv4Addr) -> Self {
        NameserverConfig {
            addr,
            rrl_limit: None,
            ipid_policy: IpIdPolicy::GlobalCounter,
            randomize_record_order: false,
            respond_to_any: true,
            honor_pmtud: true,
            min_accepted_mtu: 68,
            pad_responses_to: None,
        }
    }

    /// Enables RRL with the given responses/second budget.
    pub fn with_rrl(mut self, per_second: u32) -> Self {
        self.rrl_limit = Some(per_second);
        self
    }

    /// Sets the IPID policy.
    pub fn with_ipid(mut self, policy: IpIdPolicy) -> Self {
        self.ipid_policy = policy;
        self
    }
}

/// Counters exposed for measurements and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameserverStats {
    /// Queries received (any type).
    pub queries_received: u64,
    /// `ANY` queries received.
    pub any_queries: u64,
    /// Responses actually sent.
    pub responses_sent: u64,
    /// Responses suppressed by RRL ("muted").
    pub responses_suppressed: u64,
    /// Responses truncated because they exceeded the client's EDNS size.
    pub responses_truncated: u64,
    /// Responses that left the server as more than one IP fragment.
    pub responses_fragmented: u64,
    /// PMTUD updates accepted.
    pub pmtu_updates: u64,
    /// Queries served over TCP (RFC 7766).
    pub tcp_queries: u64,
}

/// An authoritative nameserver serving one or more zones on port 53, over
/// UDP and through a TCP listener.
pub struct Nameserver {
    stack: HostStack,
    tcp: TcpSocket,
    tcp_rx: HashMap<Endpoint, TcpFrameBuffer>,
    zones: Vec<Zone>,
    config: NameserverConfig,
    rrl: ResponseRateLimiter,
    /// Counters.
    pub stats: NameserverStats,
}

impl Nameserver {
    /// Creates a nameserver for the given zones.
    pub fn new(config: NameserverConfig, zones: Vec<Zone>) -> Self {
        let stack_cfg = StackConfig {
            ipid_policy: config.ipid_policy,
            pmtud_enabled: config.honor_pmtud,
            min_accepted_mtu: config.min_accepted_mtu,
            ..Default::default()
        };
        let mut stack = HostStack::new(vec![config.addr], stack_cfg);
        stack.open_port(crate::well_known_ports::DNS);
        stack.open_tcp_port(crate::well_known_ports::DNS);
        let tcp = TcpSocket::listener(crate::well_known_ports::DNS);
        let rrl = match config.rrl_limit {
            Some(limit) => ResponseRateLimiter::new(limit),
            None => ResponseRateLimiter::disabled(),
        };
        Nameserver { stack, tcp, tcp_rx: HashMap::new(), zones, config, rrl, stats: NameserverStats::default() }
    }

    /// The address this server listens on.
    pub fn addr(&self) -> Ipv4Addr {
        self.config.addr
    }

    /// Whether this server enforces response rate limiting.
    pub fn has_rrl(&self) -> bool {
        self.rrl.is_enabled()
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &NameserverConfig {
        &self.config
    }

    /// Read access to the zones served.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Mutable access to the zones served — used by rollover drills (and
    /// rollover-abusing attack scenarios) that step a zone's keys and
    /// re-sign it mid-simulation.
    pub fn zones_mut(&mut self) -> &mut [Zone] {
        &mut self.zones
    }

    /// The current path MTU the server assumes towards `dst` — used by the
    /// vulnerability scanner to check whether a spoofed PTB was accepted.
    pub fn path_mtu_to(&self, dst: Ipv4Addr, now: SimTime) -> u16 {
        self.stack.pmtu().mtu_for(dst, now)
    }

    /// The value the next global-counter IPID would take (measurement hook
    /// for the FragDNS IPID-predictability probe).
    pub fn peek_ipid(&self) -> u16 {
        self.stack.peek_global_ipid()
    }

    /// Builds the response message for a query, without transmitting it.
    /// Public so vulnerability scanners can reason about response sizes.
    pub fn answer_query(&self, query: &Message, rng: &mut impl Rng) -> Message {
        let mut response = Message::response_for(query);
        response.header.authoritative = true;
        let Some(question) = query.question() else {
            response.header.rcode = Rcode::FormErr;
            return response;
        };
        if question.qtype == RecordType::ANY && !self.config.respond_to_any {
            response.header.rcode = Rcode::NotImp;
            return response;
        }
        let mut matched: Option<(&Zone, LookupResult)> = None;
        for zone in &self.zones {
            match zone.lookup(&question.name, question.qtype) {
                LookupResult::OutOfZone => continue,
                other => {
                    matched = Some((zone, other));
                    break;
                }
            }
        }
        match matched {
            Some((zone, LookupResult::Records(mut records))) => {
                if self.config.randomize_record_order {
                    records.shuffle(rng);
                }
                response.answers = records;
                // Authority + glue. In a signed zone every RRset travels
                // with its covering RRSIGs, or a validator would (rightly)
                // call the response bogus.
                if zone.is_signed() {
                    response.authorities.extend(zone.rrset_with_sigs(&zone.origin, RecordType::NS));
                    let hosts: Vec<crate::name::DomainName> = response
                        .authorities
                        .iter()
                        .filter_map(|rr| match &rr.rdata {
                            crate::rdata::RData::Ns(host) => Some(host.clone()),
                            _ => None,
                        })
                        .collect();
                    for host in hosts {
                        response.additionals.extend(zone.rrset_with_sigs(&host, RecordType::A));
                    }
                } else if let LookupResult::Records(ns) = zone.lookup(&zone.origin, RecordType::NS) {
                    for rr in ns.iter().filter(|r| r.rtype() == RecordType::NS) {
                        response.authorities.push(rr.clone());
                        // Glue: the A record of the nameserver host.
                        if let crate::rdata::RData::Ns(host) = &rr.rdata {
                            if let LookupResult::Records(glue) = zone.lookup(host, RecordType::A) {
                                for g in glue.into_iter().filter(|g| g.rtype() == RecordType::A) {
                                    response.additionals.push(g);
                                }
                            }
                        }
                    }
                }
                // The apex DNSKEY RRset rides along so a validator can chain
                // DS -> DNSKEY -> RRSIG without extra round trips.
                response.additionals.extend(zone.dnskey_records());
            }
            Some((zone, LookupResult::NoData)) => {
                response.authorities.extend(zone.denial_records(&question.name));
                response.additionals.extend(zone.dnskey_records());
            }
            Some((zone, LookupResult::NxDomain)) => {
                response.header.rcode = Rcode::NxDomain;
                response.authorities.extend(zone.denial_records(&question.name));
                response.additionals.extend(zone.dnskey_records());
            }
            Some((_, LookupResult::OutOfZone)) | None => response.header.rcode = Rcode::Refused,
        }
        // Optional padding to force fragmentation (scanner behaviour).
        if let Some(target) = self.config.pad_responses_to {
            let current = response.wire_size();
            if current < usize::from(target) && response.header.rcode == Rcode::NoError {
                // A response within 16 bytes of the target cannot fit a
                // padding record; the query name sets `current`.
                if let Some(pad) = usize::from(target).checked_sub(current + 16).filter(|&pad| pad > 0) {
                    response.answers.push(ResourceRecord::new(
                        question.name.clone(),
                        60,
                        crate::rdata::RData::Txt("P".repeat(pad)),
                    ));
                }
            }
        }
        response
    }

    fn serve_udp(&mut self, peer: Endpoint, payload: &[u8], ctx: &mut Ctx<'_>) {
        let Ok(query) = Message::decode(payload) else { return };
        if query.header.is_response {
            return;
        }
        self.stats.queries_received += 1;
        if query.question().map(|q| q.qtype) == Some(RecordType::ANY) {
            self.stats.any_queries += 1;
        }

        // RRL: a muted nameserver simply does not respond.
        if !self.rrl.allow(ctx.now()) {
            self.stats.responses_suppressed += 1;
            return;
        }

        let mut response = self.answer_query(&query, ctx.rng());

        // EDNS size handling: truncate when the response does not fit the
        // client's advertised buffer. RFC 7766: the TC=1 stub invites the
        // client to retry over TCP, where no such limit exists.
        let limit = usize::from(query.edns_udp_size());
        if response.wire_size() > limit {
            response.header.truncated = true;
            response.answers.clear();
            response.authorities.clear();
            self.stats.responses_truncated += 1;
        }
        // Echo an OPT record advertising a large server-side buffer.
        response = response.with_edns(4096);

        let dgram =
            UdpDatagram::new(self.config.addr, peer.addr, crate::well_known_ports::DNS, peer.port, response.encode());
        // The packets this one send queued: more than one means fragments.
        let packets = with_io(&mut self.stack, ctx, |io| {
            let queued = io.out.len();
            io.send_udp(dgram);
            io.out.len() - queued
        });
        if packets > 1 {
            self.stats.responses_fragmented += 1;
        }
        self.stats.responses_sent += 1;
    }

    /// Serves one length-prefixed query that arrived over a TCP connection.
    /// No EDNS truncation (the stream carries any size) and no RRL (the
    /// completed handshake proves the querier's address).
    fn serve_tcp(&mut self, peer: Endpoint, frame: &[u8], ctx: &mut Ctx<'_>) {
        let Ok(query) = Message::decode(frame) else { return };
        if query.header.is_response {
            return;
        }
        self.stats.queries_received += 1;
        self.stats.tcp_queries += 1;
        if query.question().map(|q| q.qtype) == Some(RecordType::ANY) {
            self.stats.any_queries += 1;
        }
        let response = self.answer_query(&query, ctx.rng()).with_edns(4096);
        let wire = response.encode();
        let framed = frame_tcp(&wire);
        netsim::pool::give(wire);
        let tcp = &mut self.tcp;
        with_io(&mut self.stack, ctx, |io| tcp.send_to(io, peer, framed));
        self.stats.responses_sent += 1;
    }
}

impl Node for Nameserver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        match with_io(&mut self.stack, ctx, |io| io.receive(pkt)) {
            Some(StackEvent::Udp(dgram)) if dgram.dst_port == crate::well_known_ports::DNS => {
                self.serve_udp(Endpoint::new(dgram.src, dgram.src_port), dgram.payload, ctx);
            }
            Some(StackEvent::Tcp(seg)) => {
                let tcp = &mut self.tcp;
                let sock_events = with_io(&mut self.stack, ctx, |io| tcp.handle(io, seg));
                for se in sock_events {
                    match se {
                        SocketEvent::Data { peer, payload, .. } => {
                            for frame in TcpFrameBuffer::push_and_drain(&mut self.tcp_rx, peer, &payload) {
                                self.serve_tcp(peer, &frame, ctx);
                            }
                        }
                        SocketEvent::PeerClosed { peer, .. } => {
                            // Close our direction too so the connection
                            // winds down deterministically.
                            self.tcp_rx.remove(&peer);
                            let tcp = &mut self.tcp;
                            with_io(&mut self.stack, ctx, |io| tcp.close_peer(io, peer));
                        }
                        SocketEvent::Reset { peer, .. } => {
                            self.tcp_rx.remove(&peer);
                        }
                        SocketEvent::Connected { .. } => {}
                    }
                }
            }
            Some(StackEvent::IcmpError { pmtu_update: Some(_), .. }) => self.stats.pmtu_updates += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DomainName;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    const NS_ADDR: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn victim_zone() -> Zone {
        let mut z = Zone::new(n("vict.im"));
        z.add_ns("ns1.vict.im", NS_ADDR);
        z.add_a("vict.im", "30.0.0.25".parse().unwrap());
        z.add_a("www.vict.im", "30.0.0.25".parse().unwrap());
        z.add_mx(10, "mail.vict.im", "30.0.0.26".parse().unwrap());
        z.add_txt("vict.im", "v=spf1 ip4:30.0.0.0/24 -all");
        z
    }

    fn server(config: NameserverConfig) -> Nameserver {
        Nameserver::new(config, vec![victim_zone()])
    }

    fn query_packet(name: &str, qtype: RecordType, id: u16, edns: u16) -> Ipv4Packet {
        let q = Message::query(id, n(name), qtype).with_edns(edns);
        UdpDatagram::new(RESOLVER, NS_ADDR, 34567, 53, q.encode()).into_packet(9, 64)
    }

    /// Runs one query through a simulator with just the nameserver and a sink
    /// resolver, returning the packets the nameserver sent back.
    fn ask(server: Nameserver, queries: Vec<Ipv4Packet>) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        sim.trace_mut().enabled = true;
        let ns = sim.add_node("ns", vec![NS_ADDR], server);
        let res = sim.add_node("resolver", vec![RESOLVER], SinkNode::default());
        sim.connect(ns, res, Link::with_latency(Duration::from_millis(5)));
        for q in queries {
            sim.inject(res, q);
        }
        sim.run();
        (sim, ns, res)
    }

    #[test]
    fn answers_a_query_authoritatively() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let srv = server(NameserverConfig::new(NS_ADDR));
        let q = Message::query(7, n("www.vict.im"), RecordType::A);
        let r = srv.answer_query(&q, &mut rng);
        assert!(r.header.is_response);
        assert!(r.header.authoritative);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.answers[0].rdata.as_ipv4(), Some("30.0.0.25".parse().unwrap()));
        assert!(r.authorities.iter().any(|rr| rr.rtype() == RecordType::NS));
    }

    #[test]
    fn nxdomain_and_refused() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let srv = server(NameserverConfig::new(NS_ADDR));
        let r = srv.answer_query(&Message::query(7, n("nope.vict.im"), RecordType::A), &mut rng);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        let r = srv.answer_query(&Message::query(7, n("other.example"), RecordType::A), &mut rng);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn any_refusal_configurable() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let mut cfg = NameserverConfig::new(NS_ADDR);
        cfg.respond_to_any = false;
        let srv = server(cfg);
        let r = srv.answer_query(&Message::query(7, n("vict.im"), RecordType::ANY), &mut rng);
        assert_eq!(r.header.rcode, Rcode::NotImp);
    }

    #[test]
    fn serves_queries_over_the_network() {
        let (sim, ns, res) =
            ask(server(NameserverConfig::new(NS_ADDR)), vec![query_packet("vict.im", RecordType::A, 42, 4096)]);
        assert_eq!(sim.node_ref::<Nameserver>(ns).unwrap().stats.queries_received, 1);
        assert_eq!(sim.node_ref::<Nameserver>(ns).unwrap().stats.responses_sent, 1);
        assert_eq!(sim.stats(res).udp_received, 1);
    }

    #[test]
    fn rrl_mutes_after_burst() {
        let cfg = NameserverConfig::new(NS_ADDR).with_rrl(10);
        let queries: Vec<Ipv4Packet> = (0..100).map(|i| query_packet("vict.im", RecordType::A, i, 4096)).collect();
        let (sim, ns, _res) = ask(server(cfg), queries);
        let stats = &sim.node_ref::<Nameserver>(ns).unwrap().stats;
        assert_eq!(stats.queries_received, 100);
        assert_eq!(stats.responses_sent, 10, "only the RRL budget is answered");
        assert_eq!(stats.responses_suppressed, 90);
    }

    #[test]
    fn pmtud_then_any_query_fragments_response() {
        // Step 1 of FragDNS: spoofed ICMP PTB lowers the server's path MTU.
        let srv = server(NameserverConfig::new(NS_ADDR));
        let mut sim = Simulator::new(3);
        let ns = sim.add_node("ns", vec![NS_ADDR], srv);
        let res = sim.add_node("resolver", vec![RESOLVER], SinkNode::default());
        sim.connect(ns, res, Link::default());
        // Craft the PTB quoting a packet "from" the nameserver to the resolver.
        let quoted = UdpDatagram::new(NS_ADDR, RESOLVER, 53, 34567, vec![0u8; 64]).into_packet(1, 64);
        let ptb = IcmpMessage::fragmentation_needed(&quoted, 68).into_packet(RESOLVER, NS_ADDR, 2, 64);
        sim.inject(res, ptb);
        sim.run();
        assert_eq!(sim.node_ref::<Nameserver>(ns).unwrap().path_mtu_to(RESOLVER, sim.now()), 68);
        assert_eq!(sim.node_ref::<Nameserver>(ns).unwrap().stats.pmtu_updates, 1);
        // Step 2: an ANY query now produces a fragmented response.
        sim.inject(res, query_packet("vict.im", RecordType::ANY, 7, 4096));
        sim.run();
        let stats = &sim.node_ref::<Nameserver>(ns).unwrap().stats;
        assert_eq!(stats.responses_fragmented, 1);
        assert!(sim.stats(res).udp_received >= 2, "multiple fragments arrive at the resolver");
    }

    #[test]
    fn hardened_server_ignores_tiny_ptb() {
        let mut cfg = NameserverConfig::new(NS_ADDR);
        cfg.min_accepted_mtu = 1280;
        let srv = server(cfg);
        let mut sim = Simulator::new(4);
        let ns = sim.add_node("ns", vec![NS_ADDR], srv);
        let res = sim.add_node("resolver", vec![RESOLVER], SinkNode::default());
        sim.connect(ns, res, Link::default());
        let quoted = UdpDatagram::new(NS_ADDR, RESOLVER, 53, 34567, vec![0u8; 64]).into_packet(1, 64);
        let ptb = IcmpMessage::fragmentation_needed(&quoted, 292).into_packet(RESOLVER, NS_ADDR, 2, 64);
        sim.inject(res, ptb);
        sim.run();
        assert_eq!(sim.node_ref::<Nameserver>(ns).unwrap().path_mtu_to(RESOLVER, sim.now()), 1500);
    }

    #[test]
    fn small_edns_buffer_causes_truncation() {
        let mut cfg = NameserverConfig::new(NS_ADDR);
        cfg.pad_responses_to = Some(1400);
        let (sim, ns, _res) = ask(server(cfg), vec![query_packet("vict.im", RecordType::ANY, 7, 512)]);
        let stats = &sim.node_ref::<Nameserver>(ns).unwrap().stats;
        // The padded ANY answer exceeds the client's 512-byte buffer, so the
        // server truncates instead of sending (and fragmenting) the answer —
        // exactly the "must fit the resolver's EDNS size" constraint.
        assert_eq!(stats.responses_truncated, 1);
        assert_eq!(stats.responses_fragmented, 0);
    }

    #[test]
    fn padding_inflates_responses() {
        let mut cfg = NameserverConfig::new(NS_ADDR);
        cfg.pad_responses_to = Some(1400);
        let srv = server(cfg);
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let r = srv.answer_query(&Message::query(7, n("vict.im"), RecordType::A), &mut rng);
        assert!(r.wire_size() >= 1300, "padded response is large: {}", r.wire_size());
    }

    #[test]
    fn padding_target_just_above_the_response_size_does_not_panic() {
        // Regression: a target within 16 bytes above the unpadded size used
        // to underflow `target - current - 16`. The query name sets that
        // size, so any client could trip it.
        let query = Message::query(7, n("vict.im"), RecordType::A);
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let unpadded = server(NameserverConfig::new(NS_ADDR)).answer_query(&query, &mut rng).wire_size();
        let mut cfg = NameserverConfig::new(NS_ADDR);
        cfg.pad_responses_to = Some(unpadded as u16 + 8);
        let r = server(cfg).answer_query(&query, &mut rng);
        assert_eq!(r.wire_size(), unpadded, "no room for a padding record: the response goes out unpadded");
    }

    #[test]
    fn record_order_randomisation_changes_wire_bytes() {
        let mut cfg = NameserverConfig::new(NS_ADDR);
        cfg.randomize_record_order = true;
        let mut zone = victim_zone();
        for i in 0..8 {
            zone.add_a("many.vict.im", format!("30.0.1.{i}").parse().unwrap());
        }
        let srv = Nameserver::new(cfg, vec![zone]);
        let q = Message::query(7, n("many.vict.im"), RecordType::A);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..6 {
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            seen.insert(srv.answer_query(&q, &mut rng).encode());
        }
        assert!(seen.len() > 1, "different shuffles produce different responses");
    }

    /// A minimal TCP querier node used by the DNS-over-TCP tests.
    struct TcpQuerier {
        stack: HostStack,
        sock: TcpSocket,
        rx: TcpFrameBuffer,
        answers: Vec<Message>,
    }

    impl TcpQuerier {
        fn new(addr: Ipv4Addr) -> Self {
            let mut stack = HostStack::with_defaults(vec![addr]);
            stack.open_tcp_port(45000);
            let sock = TcpSocket::client(45000);
            TcpQuerier { stack, sock, rx: TcpFrameBuffer::new(), answers: Vec::new() }
        }
    }

    impl Node for TcpQuerier {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let q = Message::query(7, "vict.im".parse().unwrap(), RecordType::ANY).with_edns(512);
            let sock = &mut self.sock;
            with_io(&mut self.stack, ctx, |io| sock.send_to(io, Endpoint::new(NS_ADDR, 53), frame_tcp(&q.encode())));
        }

        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
            let sock = &mut self.sock;
            let sock_events = with_io(&mut self.stack, ctx, |io| match io.receive(pkt) {
                Some(StackEvent::Tcp(seg)) => sock.handle(io, seg),
                _ => Vec::new(),
            });
            for se in sock_events {
                if let SocketEvent::Data { payload, .. } = se {
                    self.rx.push(&payload);
                    while let Some(frame) = self.rx.pop() {
                        self.answers.push(Message::decode(&frame).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn serves_queries_over_tcp_without_truncation_or_rrl() {
        // A padded zone whose answers exceed a 512-byte EDNS buffer, behind
        // strict RRL: over UDP the server truncates (or mutes); over TCP the
        // full answer always comes through — the RFC 7766 contract that
        // makes the resolver's TCP fallback a real defence.
        let mut cfg = NameserverConfig::new(NS_ADDR).with_rrl(1);
        cfg.pad_responses_to = Some(1400);
        let srv = server(cfg);
        let mut sim = Simulator::new(9);
        let ns = sim.add_node("ns", vec![NS_ADDR], srv);
        let querier = sim.add_node("querier", vec![RESOLVER], TcpQuerier::new(RESOLVER));
        sim.connect(ns, querier, Link::with_latency(Duration::from_millis(5)));
        sim.run();
        let srv = sim.node_ref::<Nameserver>(ns).unwrap();
        assert_eq!(srv.stats.tcp_queries, 1);
        assert_eq!(srv.stats.responses_truncated, 0, "no EDNS limit over TCP");
        assert_eq!(srv.stats.responses_suppressed, 0, "RRL does not apply to TCP");
        let q = sim.node_ref::<TcpQuerier>(querier).unwrap();
        assert_eq!(q.answers.len(), 1);
        assert!(!q.answers[0].header.truncated);
        assert!(q.answers[0].wire_size() > 1300, "the full padded answer arrived over the stream");
        assert!(sim.stats(querier).tcp_received >= 3, "handshake + multi-segment answer");
    }

    #[test]
    fn ipid_policy_observable_from_responses() {
        // Global counter: consecutive responses carry consecutive IPIDs.
        let (sim, ns, _) = ask(
            server(NameserverConfig::new(NS_ADDR).with_ipid(IpIdPolicy::GlobalCounter)),
            (0..3).map(|i| query_packet("vict.im", RecordType::A, i, 4096)).collect(),
        );
        let ids: Vec<u16> = sim
            .trace()
            .packets()
            .filter(|p| {
                p.verdict == netsim::trace::TraceVerdict::Delivered
                    && p.to == "resolver"
                    && p.packet.protocol == Protocol::Udp
            })
            .map(|p| p.packet.identification)
            .collect();
        assert_eq!(ids, vec![1, 2, 3], "the three responses carry consecutive IPIDs");
        let srv = sim.node_ref::<Nameserver>(ns).unwrap();
        assert_eq!(srv.peek_ipid(), 4, "global counter advanced once per response (starting at 1)");
    }
}

//! The validation host: one simulated machine that performs a single ACME
//! challenge through a recursive resolver.
//!
//! The CA's primary host and every vantage point run the same node type —
//! the difference is purely *which resolver* they query and *where* in the
//! topology they sit. For DNS-01 the host queries TXT
//! `_acme-challenge.<domain>` and compares the record data to the key
//! authorization. For HTTP-01 it resolves the domain's A record, opens a
//! real TCP connection to port 80 of whatever address came back (handshake,
//! segmentation and teardown through the deterministic
//! [`TcpSocket`]) and compares the response body.
//! Both paths terminate in a [`ValidationResult`] the authority folds into
//! its quorum decision.

use crate::acme::{challenge_name, http_challenge_path, ChallengeType, ValidationResult};
use crate::http::{http_get, HttpResponseParser};
use dns::prelude::*;
use netsim::prelude::*;
use std::net::Ipv4Addr;

const TIMER_SEND_QUERY: u64 = 0;
const TIMER_DEADLINE: u64 = 1;

/// A validation host bound to one challenge attempt.
pub struct ValidatorNode {
    stack: HostStack,
    http_sock: TcpSocket,
    resolver: Ipv4Addr,
    domain: DomainName,
    challenge: ChallengeType,
    expected: String,
    txid: u16,
    response: HttpResponseParser,
    deadline: Duration,
    finished: bool,
    /// Last non-empty flow snapshot: the TCP socket forgets a connection
    /// once it is fully torn down, but the issuance report still wants the
    /// fetch connection visible after the fact.
    flows_seen: Vec<FlowStats>,
    /// The result, progressively filled in; read it after the simulation
    /// quiesces.
    pub result: ValidationResult,
}

impl ValidatorNode {
    /// A validator named `vantage` at `addr`, validating `domain` via
    /// `challenge` against `expected` (the key authorization), using the
    /// recursive resolver at `resolver`.
    pub fn new(
        vantage: &str,
        as_number: Option<u32>,
        addr: Ipv4Addr,
        resolver: Ipv4Addr,
        domain: DomainName,
        challenge: ChallengeType,
        expected: &str,
    ) -> Self {
        let mut stack = HostStack::with_defaults(vec![addr]);
        stack.open_port(well_known_ports::CA_VALIDATOR_DNS);
        stack.open_tcp_port(well_known_ports::CA_VALIDATOR_HTTP);
        // The TXID is fixed per validator (derived from its name): like every
        // fixed client port in `well_known_ports`, drawing it from the sim
        // RNG would only perturb replay — the validator's resolver is not
        // the node under attack here.
        let txid = crate::acme::fnv64(vantage.as_bytes()) as u16;
        ValidatorNode {
            stack,
            http_sock: TcpSocket::client(well_known_ports::CA_VALIDATOR_HTTP),
            resolver,
            domain: domain.clone(),
            challenge,
            expected: expected.to_string(),
            txid,
            response: HttpResponseParser::new(),
            deadline: Duration::from_secs(20),
            finished: false,
            flows_seen: Vec::new(),
            result: ValidationResult {
                vantage: vantage.to_string(),
                as_number,
                challenge,
                resolved: None,
                observed: None,
                matched: false,
                completed: false,
                finished_at: None,
            },
        }
    }

    /// Per-connection statistics of the HTTP-01 fetch socket (the live
    /// connection while it exists, the final pre-teardown snapshot after).
    pub fn http_flows(&self) -> Vec<FlowStats> {
        let live = self.http_sock.flows();
        if live.is_empty() {
            self.flows_seen.clone()
        } else {
            live
        }
    }

    fn question(&self) -> (DomainName, RecordType) {
        match self.challenge {
            ChallengeType::Dns01 => (challenge_name(&self.domain), RecordType::TXT),
            ChallengeType::Http01 => (self.domain.clone(), RecordType::A),
        }
    }

    fn finish(&mut self, observed: Option<String>, now: SimTime) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.result.completed = true;
        self.result.matched = observed.as_deref() == Some(self.expected.as_str());
        self.result.observed = observed;
        self.result.finished_at = Some(now);
    }

    fn handle_dns_answer(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        if msg.header.id != self.txid || self.finished {
            return;
        }
        let now = ctx.now();
        if msg.header.rcode != Rcode::NoError {
            self.finish(None, now);
            return;
        }
        match self.challenge {
            ChallengeType::Dns01 => {
                // Prefer the TXT that matches; report the first one otherwise.
                let txts: Vec<String> = msg
                    .answers
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Txt(t) => Some(t.clone()),
                        _ => None,
                    })
                    .collect();
                let observed = txts.iter().find(|t| **t == self.expected).or(txts.first()).cloned();
                self.finish(observed, now);
            }
            ChallengeType::Http01 => {
                let Some(addr) = msg.answers.iter().find_map(|r| r.rdata.as_ipv4()) else {
                    self.finish(None, now);
                    return;
                };
                self.result.resolved = Some(addr);
                let request = http_get(&self.domain.to_string(), &http_challenge_path(&self.expected_token()));
                let sock = &mut self.http_sock;
                with_io(&mut self.stack, ctx, |io| {
                    sock.send_to(io, Endpoint::new(addr, well_known_ports::HTTP), request)
                });
            }
        }
    }

    /// The token part of the key authorization (`<token>.<thumbprint>`).
    fn expected_token(&self) -> String {
        self.expected.split('.').next().unwrap_or(&self.expected).to_string()
    }

    fn handle_http_event(&mut self, se: SocketEvent, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        match se {
            SocketEvent::Data { payload, .. } => {
                self.response.push(&payload);
                if let Some((status, body)) = self.response.complete() {
                    if !self.finished {
                        let observed = (status == 200).then_some(body);
                        self.finish(observed, now);
                        let peer = self.result.resolved.map(|a| Endpoint::new(a, well_known_ports::HTTP));
                        if let Some(peer) = peer {
                            let sock = &mut self.http_sock;
                            with_io(&mut self.stack, ctx, |io| sock.close_peer(io, peer));
                        }
                    }
                }
            }
            SocketEvent::PeerClosed { peer, .. } => {
                // Server half-closed after its response; finish our side.
                let sock = &mut self.http_sock;
                with_io(&mut self.stack, ctx, |io| sock.close_peer(io, peer));
                if !self.finished {
                    let observed = self.response.complete().and_then(|(s, b)| (s == 200).then_some(b));
                    self.finish(observed, now);
                }
            }
            SocketEvent::Reset { .. } => {
                // Connection refused (no web server at the resolved address)
                // or torn down mid-exchange: a definitive failure.
                if !self.finished {
                    self.finish(None, now);
                }
            }
            SocketEvent::Connected { .. } => {}
        }
    }
}

impl Node for ValidatorNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::ZERO, TIMER_SEND_QUERY);
        ctx.set_timer(self.deadline, TIMER_DEADLINE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TIMER_SEND_QUERY => {
                let (name, qtype) = self.question();
                let query = Message::query(self.txid, name, qtype);
                let dgram = UdpDatagram::new(
                    self.stack.primary_addr(),
                    self.resolver,
                    well_known_ports::CA_VALIDATOR_DNS,
                    well_known_ports::DNS,
                    query.encode(),
                );
                with_io(&mut self.stack, ctx, |io| io.send_udp(dgram));
            }
            TIMER_DEADLINE => {
                // Whatever has not concluded by now is a failed validation;
                // `completed` stays false to distinguish timeouts from
                // definitive mismatches.
                self.finished = true;
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        match with_io(&mut self.stack, ctx, |io| io.receive(pkt)) {
            Some(StackEvent::Udp(dgram)) if dgram.dst_port == well_known_ports::CA_VALIDATOR_DNS => {
                if let Ok(msg) = Message::decode(dgram.payload) {
                    if msg.header.is_response {
                        self.handle_dns_answer(&msg, ctx);
                    }
                }
            }
            Some(StackEvent::Tcp(seg)) => {
                let sock = &mut self.http_sock;
                let events = with_io(&mut self.stack, ctx, |io| sock.handle(io, seg));
                let live = self.http_sock.flows();
                if !live.is_empty() {
                    self.flows_seen = live;
                }
                for se in events {
                    self.handle_http_event(se, ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ChallengeHost;

    const RESOLVER_ADDR: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
    const NS_ADDR: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);
    const WEB_ADDR: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 80);
    const CA_ADDR: Ipv4Addr = Ipv4Addr::new(45, 0, 0, 10);

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn zone_with_challenge(keyauth: Option<&str>) -> Zone {
        let mut z = Zone::new(n("vict.im"));
        z.add_ns("ns1.vict.im", NS_ADDR);
        z.add_a("www.vict.im", WEB_ADDR);
        if let Some(k) = keyauth {
            z.add_txt("_acme-challenge.www.vict.im", k);
        }
        z
    }

    fn build(challenge: ChallengeType, expected: &str, zone: Zone, web: Option<ChallengeHost>) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(5);
        let resolver_cfg = ResolverConfig::new(RESOLVER_ADDR).with_delegation("vict.im", vec![NS_ADDR], false);
        sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(resolver_cfg));
        sim.add_node("ns", vec![NS_ADDR], Nameserver::new(NameserverConfig::new(NS_ADDR), vec![zone]));
        if let Some(host) = web {
            sim.add_node("web", vec![WEB_ADDR], host);
        }
        let v = ValidatorNode::new("ca", None, CA_ADDR, RESOLVER_ADDR, n("www.vict.im"), challenge, expected);
        let id = sim.add_node("ca", vec![CA_ADDR], v);
        (sim, id)
    }

    #[test]
    fn dns01_matches_provisioned_txt() {
        let (mut sim, id) = build(ChallengeType::Dns01, "tok1.thumb", zone_with_challenge(Some("tok1.thumb")), None);
        sim.run();
        let v = sim.node_ref::<ValidatorNode>(id).unwrap();
        assert!(v.result.completed);
        assert!(v.result.matched, "{:?}", v.result);
        assert_eq!(v.result.observed.as_deref(), Some("tok1.thumb"));
    }

    #[test]
    fn dns01_fails_when_record_absent() {
        let (mut sim, id) = build(ChallengeType::Dns01, "tok1.thumb", zone_with_challenge(None), None);
        sim.run();
        let v = sim.node_ref::<ValidatorNode>(id).unwrap();
        assert!(v.result.completed, "NXDOMAIN is a definitive answer");
        assert!(!v.result.matched);
    }

    #[test]
    fn http01_fetches_the_challenge_document_over_tcp() {
        let web = ChallengeHost::new(WEB_ADDR).with_token("tok1", "tok1.thumb");
        let (mut sim, id) = build(ChallengeType::Http01, "tok1.thumb", zone_with_challenge(None), Some(web));
        sim.run();
        let v = sim.node_ref::<ValidatorNode>(id).unwrap();
        assert!(v.result.completed);
        assert!(v.result.matched, "{:?}", v.result);
        assert_eq!(v.result.resolved, Some(WEB_ADDR));
        assert!(!v.http_flows().is_empty(), "the HTTP-01 fetch ran over a tracked TCP flow");
        assert!(sim.stats(id).tcp_sent >= 3, "handshake + request + teardown");
    }

    #[test]
    fn http01_mismatch_when_token_not_provisioned() {
        let web = ChallengeHost::new(WEB_ADDR); // knows no tokens -> 404
        let (mut sim, id) = build(ChallengeType::Http01, "tok1.thumb", zone_with_challenge(None), Some(web));
        sim.run();
        let v = sim.node_ref::<ValidatorNode>(id).unwrap();
        assert!(v.result.completed);
        assert!(!v.result.matched);
        assert_eq!(v.result.observed, None, "404 bodies are not challenge observations");
    }

    #[test]
    fn http01_connection_refused_is_a_definitive_failure() {
        // The A record points at the nameserver host, which serves no HTTP:
        // the SYN meets a closed port, the RST ends the validation.
        let mut zone = Zone::new(n("vict.im"));
        zone.add_ns("ns1.vict.im", NS_ADDR);
        zone.add_a("www.vict.im", NS_ADDR);
        let (mut sim, id) = build(ChallengeType::Http01, "tok1.thumb", zone, None);
        sim.run();
        let v = sim.node_ref::<ValidatorNode>(id).unwrap();
        assert!(v.result.completed, "an RST answers the question definitively");
        assert!(!v.result.matched);
        assert_eq!(v.result.resolved, Some(NS_ADDR));
    }
}

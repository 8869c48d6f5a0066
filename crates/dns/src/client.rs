//! A stub client node.
//!
//! Applications in the `apps` crate embed richer behaviour, but many tests,
//! examples and query-triggering techniques only need a host that can be told
//! to "ask the resolver for X" and that records what came back. The stub also
//! doubles as the *measurement front-end* used to probe open resolvers and
//! forwarders (Section 4.3.3): its query log shows which resolver back-end
//! contacted the authoritative nameserver.

use crate::message::{Message, Rcode};
use crate::name::DomainName;
use crate::rdata::{RecordType, ResourceRecord};
use netsim::prelude::*;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// One completed lookup observed by the stub client.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedLookup {
    /// The name that was queried.
    pub name: DomainName,
    /// The queried type.
    pub qtype: RecordType,
    /// Response code.
    pub rcode: Rcode,
    /// Whether the response carried the TC (truncated) bit. A UDP-only
    /// resolver that receives a truncated upstream answer echoes TC with its
    /// SERVFAIL, so this outcome is distinguishable from a plain timeout.
    pub truncated: bool,
    /// Answer records.
    pub answers: Vec<ResourceRecord>,
    /// When the answer arrived.
    pub at: SimTime,
}

impl CompletedLookup {
    /// The first A address in the answer, if any.
    pub fn first_a(&self) -> Option<Ipv4Addr> {
        self.answers.iter().find_map(|r| r.rdata.as_ipv4())
    }
}

/// A queued query the client will send when started (or on a timer).
#[derive(Debug, Clone)]
struct PendingQuery {
    name: DomainName,
    qtype: RecordType,
    delay: Duration,
}

/// A stub resolver client: sends pre-programmed queries from its UDP port
/// to a recursive resolver and records the answers.
pub struct StubClient {
    resolver: Ipv4Addr,
    stack: HostStack,
    queue: VecDeque<PendingQuery>,
    next_txid: u16,
    /// Lookups completed so far.
    pub completed: Vec<CompletedLookup>,
    /// SERVFAIL or other error responses received.
    pub failures: u64,
}

impl StubClient {
    /// Creates a client that will use `resolver` for lookups.
    pub fn new(addr: Ipv4Addr, resolver: Ipv4Addr) -> Self {
        let mut stack = HostStack::with_defaults(vec![addr]);
        stack.open_port(crate::well_known_ports::STUB_CLIENT);
        StubClient { resolver, stack, queue: VecDeque::new(), next_txid: 1, completed: Vec::new(), failures: 0 }
    }

    /// Queues a lookup to be issued `delay` after simulation start.
    pub(crate) fn query_after(&mut self, delay: Duration, name: &str, qtype: RecordType) -> &mut Self {
        self.queue.push_back(PendingQuery { name: name.parse().expect("valid name"), qtype, delay });
        self
    }

    /// Queues a lookup to be issued immediately at simulation start.
    pub fn query(&mut self, name: &str, qtype: RecordType) -> &mut Self {
        self.query_after(Duration::ZERO, name, qtype)
    }

    /// The answer the client ended up with for `name`, if any.
    pub fn answer_for(&self, name: &DomainName) -> Option<&CompletedLookup> {
        self.completed.iter().rev().find(|c| &c.name == name)
    }

    /// Convenience: the address the client would connect to for `name`.
    pub fn resolved_address(&self, name: &DomainName) -> Option<Ipv4Addr> {
        self.answer_for(name).and_then(CompletedLookup::first_a)
    }

    fn send_query(&mut self, idx: usize, ctx: &mut Ctx<'_>) {
        let Some(q) = self.queue.get(idx).cloned() else { return };
        let txid = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1);
        let msg = Message::query(txid, q.name.clone(), q.qtype);
        let dgram = UdpDatagram::new(
            self.stack.primary_addr(),
            self.resolver,
            crate::well_known_ports::STUB_CLIENT,
            crate::well_known_ports::DNS,
            msg.encode(),
        );
        with_io(&mut self.stack, ctx, |io| io.send_udp(dgram));
    }
}

impl Node for StubClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (idx, q) in self.queue.iter().enumerate() {
            ctx.set_timer(q.delay, idx as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.send_query(token as usize, ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        let now = ctx.now();
        // The stub's one open port is the only one the stack delivers to.
        let Some(StackEvent::Udp(dgram)) = with_io(&mut self.stack, ctx, |io| io.receive(pkt)) else { return };
        let Ok(msg) = Message::decode(dgram.payload) else { return };
        if !msg.header.is_response {
            return;
        }
        if msg.header.rcode != Rcode::NoError {
            self.failures += 1;
        }
        if let Some(q) = msg.question() {
            self.completed.push(CompletedLookup {
                name: q.name.clone(),
                qtype: q.qtype,
                rcode: msg.header.rcode,
                truncated: msg.header.truncated,
                answers: msg.answers.clone(),
                at: now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nameserver::{Nameserver, NameserverConfig};
    use crate::resolver::{Resolver, ResolverConfig};
    use crate::zone::Zone;

    const RESOLVER_ADDR: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
    const NS_ADDR: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);
    const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 25);

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn end_to_end_lookup_through_resolver() {
        let mut zone = Zone::new(n("vict.im"));
        zone.add_a("www.vict.im", "30.0.0.80".parse().unwrap());
        let resolver_cfg = ResolverConfig::new(RESOLVER_ADDR).with_delegation("vict.im", vec![NS_ADDR], false);
        let mut client = StubClient::new(CLIENT_ADDR, RESOLVER_ADDR);
        client.query("www.vict.im", RecordType::A);
        client.query_after(Duration::from_millis(500), "missing.vict.im", RecordType::A);

        let mut sim = Simulator::new(21);
        let c = sim.add_node("client", vec![CLIENT_ADDR], client);
        let _r = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(resolver_cfg));
        let _ns = sim.add_node("ns", vec![NS_ADDR], Nameserver::new(NameserverConfig::new(NS_ADDR), vec![zone]));
        sim.run();

        let client = sim.node_ref::<StubClient>(c).unwrap();
        assert_eq!(client.completed.len(), 2);
        assert_eq!(client.resolved_address(&n("www.vict.im")), Some("30.0.0.80".parse().unwrap()));
        let miss = client.answer_for(&n("missing.vict.im")).unwrap();
        assert_eq!(miss.rcode, Rcode::NxDomain);
        assert_eq!(client.failures, 1);
    }

    #[test]
    fn answers_record_timing() {
        let mut zone = Zone::new(n("vict.im"));
        zone.add_a("www.vict.im", "30.0.0.80".parse().unwrap());
        let resolver_cfg = ResolverConfig::new(RESOLVER_ADDR).with_delegation("vict.im", vec![NS_ADDR], false);
        let mut client = StubClient::new(CLIENT_ADDR, RESOLVER_ADDR);
        client.query("www.vict.im", RecordType::A);
        let mut sim = Simulator::new(22);
        let c = sim.add_node("client", vec![CLIENT_ADDR], client);
        let _r = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(resolver_cfg));
        let _ns = sim.add_node("ns", vec![NS_ADDR], Nameserver::new(NameserverConfig::new(NS_ADDR), vec![zone]));
        sim.run();
        let done = &sim.node_ref::<StubClient>(c).unwrap().completed[0];
        assert!(done.at > SimTime::ZERO, "resolution takes network time");
    }
}

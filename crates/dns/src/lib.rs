//! # dns — the DNS substrate of the cross-layer-attacks workspace
//!
//! This crate implements everything DNS-shaped the paper's attacks and
//! measurements touch, from the wire format up to complete resolver and
//! nameserver hosts that plug into the `netsim` discrete-event engine:
//!
//! * [`name`] — domain names, wire encoding with compression, 0x20 encoding;
//! * [`rdata`] / [`message`] — resource records and the full message codec
//!   (A, NS, CNAME, SOA, MX, TXT, SRV, NAPTR, IPSECKEY, OPT/EDNS, ANY, ...);
//! * [`zone`] — authoritative zone data with a builder covering every record
//!   type used by the applications in Table 1;
//! * [`dnssec`] — the deterministic signing pipeline: key management with
//!   RFC 6781 rollover, RRSIG generation over canonical RRsets, NSEC/NSEC3
//!   authenticated denial, and the DS-anchored validator;
//! * [`cache`] — the resolver cache, TTLs, ANY-caching policies (Table 5) and
//!   the poisoning-inspection helpers used by the attack harnesses;
//! * [`nameserver`] — an authoritative server with RRL, PMTUD reaction,
//!   response fragmentation, IP-ID policies and record-order randomisation;
//! * [`resolver`] — a recursive resolver with RFC 5452 defences (random ports
//!   and TXIDs), optional 0x20 and DNSSEC validation, bailiwick filtering,
//!   EDNS buffer sizes, a forwarder mode, and the OS-level side channels
//!   (global ICMP rate limit, fragment acceptance) the attacks exploit;
//! * [`client`] — a stub client for triggering queries and observing answers;
//! * [`well_known_ports`] — the single registry of fixed ports (DNS 53,
//!   HTTP 80, the resolver's upstream TCP port, client query ports);
//! * [`profiles`] — behaviour profiles of the five resolver implementations
//!   evaluated in Table 5.
//!
//! ```
//! use dns::prelude::*;
//! use netsim::prelude::*;
//!
//! // One query, end to end: client -> resolver -> authoritative nameserver.
//! let resolver_addr: Ipv4Addr = "30.0.0.1".parse().unwrap();
//! let ns_addr: Ipv4Addr = "123.0.0.53".parse().unwrap();
//! let client_addr: Ipv4Addr = "30.0.0.25".parse().unwrap();
//!
//! let mut zone = Zone::new("vict.im".parse().unwrap());
//! zone.add_a("www.vict.im", "30.0.0.80".parse().unwrap());
//!
//! let resolver = Resolver::new(
//!     ResolverConfig::new(resolver_addr).with_delegation("vict.im", vec![ns_addr], false),
//! );
//! let nameserver = Nameserver::new(NameserverConfig::new(ns_addr), vec![zone]);
//! let mut client = StubClient::new(client_addr, resolver_addr);
//! client.query("www.vict.im", RecordType::A);
//!
//! let mut sim = Simulator::new(1);
//! let c = sim.add_node("client", vec![client_addr], client);
//! sim.add_node("resolver", vec![resolver_addr], resolver);
//! sim.add_node("ns", vec![ns_addr], nameserver);
//! sim.run();
//!
//! let client = sim.node_ref::<StubClient>(c).unwrap();
//! assert_eq!(
//!     client.resolved_address(&"www.vict.im".parse().unwrap()),
//!     Some("30.0.0.80".parse().unwrap()),
//! );
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod dnssec;
pub mod farm;
pub mod message;
pub mod name;
pub mod nameserver;
pub mod profiles;
pub mod rdata;
pub mod resolver;
pub mod well_known_ports;
pub mod zone;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cache::{AnyCachingPolicy, Cache};
    pub use crate::client::StubClient;
    pub use crate::dnssec::{DenialConfig, KeyManager, RolloverState, Signer, SigningPolicy, Validation, Validator};
    pub use crate::message::{frame_tcp, Message, MessageView, Question, Rcode, TcpFrameBuffer};
    pub use crate::name::{CompressionTable, DomainName, WireName};
    pub use crate::nameserver::{Nameserver, NameserverConfig};
    pub use crate::profiles::ResolverImplementation;
    pub use crate::rdata::{RData, RecordType, ResourceRecord};
    pub use crate::resolver::{Resolver, ResolverConfig, ResolverStats, UpstreamTransport};
    pub use crate::well_known_ports;
    pub use crate::zone::{LookupResult, Zone};
}

//! # netsim — deterministic packet-level network simulator
//!
//! `netsim` is the lowest substrate of the `cross-layer-attacks` workspace. It
//! provides everything the off-path DNS cache poisoning attacks of
//! *"From IP to Transport and Beyond: Cross-Layer Attacks Against Applications"*
//! (SIGCOMM 2021) need from the network and the victim operating systems:
//!
//! * byte-accurate **IPv4 / UDP / TCP / ICMP** wire formats with real
//!   checksums ([`ipv4`], [`udp`], [`tcp`], [`icmp`], [`checksum`]),
//! * concrete **transport sockets**: a deterministic TCP implementation
//!   (seeded ISNs, three-way handshake, MSS-based segmentation, RST/FIN
//!   teardown) beside the plain UDP datagram path, both bound through the
//!   host stack's port table ([`transport`], [`tcp`]),
//! * **IPv4 fragmentation and reassembly**, including the defragmentation
//!   cache an attacker poisons in the FragDNS methodology ([`frag`]),
//! * the **global ICMP error rate limit** side channel exploited by SadDNS
//!   and its patched variants ([`ratelimit`]),
//! * an **OS-like UDP/ICMP stack model** (open ports, port-unreachable
//!   generation, path-MTU discovery, IP-ID assignment policies) ([`stack`],
//!   [`pmtud`]),
//! * **links** with latency, loss and MTU, a routing fabric with
//!   longest-prefix-match route overrides (the data-plane effect of a BGP
//!   hijack) and **source-address spoofing / egress-filtering** semantics
//!   ([`link`], [`engine`]),
//! * a single-threaded **discrete-event engine** with deterministic, seeded
//!   randomness, per-node traffic accounting and the workspace's one event
//!   recorder: an opt-in ring of typed packet and phase-span entries
//!   ([`engine`], [`trace`], [`stats`]).
//!
//! The simulator is deliberately synchronous and deterministic (smoltcp-style
//! polling rather than an async runtime): the attacks under study are
//! protocol-state-machine races, and reproducing the paper's tables requires
//! bit-for-bit repeatable experiments.
//!
//! ## Quick tour
//!
//! ```
//! use netsim::prelude::*;
//!
//! // Build a two-host network.
//! let mut sim = Simulator::new(7);
//! let a_addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
//! let b_addr: Ipv4Addr = "10.0.0.2".parse().unwrap();
//! let a = sim.add_node("a", vec![a_addr], EchoNode::default());
//! let b = sim.add_node("b", vec![b_addr], EchoNode::default());
//! sim.connect(a, b, Link::with_latency(Duration::from_millis(5)));
//!
//! // Inject a UDP datagram from node `a` to node `b` and run the simulation.
//! let pkt = UdpDatagram::new(a_addr, b_addr, 1000, 2000, b"ping".to_vec())
//!     .into_packet(1, 64);
//! sim.inject(a, pkt);
//! sim.run();
//! assert!(sim.stats(b).udp_received >= 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod engine;
pub mod fasthash;
pub mod frag;
pub mod icmp;
pub mod ipv4;
pub mod link;
pub mod pmtud;
pub mod pool;
pub mod prefix;
pub mod ratelimit;
pub mod stack;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod trace;
pub mod transport;
pub mod udp;
pub mod wheel;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::engine::{
        Ctx, EchoNode, EngineCounters, Node, NodeId, Simulator, SinkNode, StubCtx, StubHandler, StubId, StubState,
        StubTimer,
    };
    pub use crate::frag::{fragment_packet, ReassemblyBuffer, ReassemblyConfig};
    pub use crate::icmp::{IcmpMessage, Unreachable};
    pub use crate::ipv4::{Ipv4Header, Ipv4Packet, Protocol};
    pub use crate::link::Link;
    pub use crate::pmtud::PathMtuCache;
    pub use crate::prefix::Prefix;
    pub use crate::ratelimit::{IcmpRateLimitPolicy, IcmpRateLimiter, ResponseRateLimiter, TokenBucket};
    pub use crate::stack::{HostStack, IpIdPolicy, StackConfig, StackEvent};
    pub use crate::stats::TrafficStats;
    pub use crate::tcp::{TcpConnection, TcpFlags, TcpSegment, TcpSocket, TcpState};
    pub use crate::time::{Duration, SimTime};
    pub use crate::trace::{Trace, TraceEntry};
    pub use crate::transport::{with_io, Endpoint, FlowStats, SocketEvent, StackIo};
    pub use crate::udp::{UdpDatagram, UdpHeader, UdpTemplate, UdpView};
    pub use std::net::Ipv4Addr;
}

pub use prelude::*;

//! The transport layer's shared vocabulary: endpoints, socket events, flow
//! statistics and the packet-building bundle a node hands to its sockets.
//!
//! A host binds a port by opening it on its [`HostStack`]:
//! [`open_port`](HostStack::open_port) for UDP,
//! [`open_tcp_port`](HostStack::open_tcp_port) for TCP. The stack's port
//! table is the one record of bound ports: it delivers traffic for open ports
//! and answers the rest with ICMP port-unreachable or RST, which is exactly
//! what the SadDNS scan probes.
//!
//! * **UDP** needs no socket object. A node sends with
//!   [`StackIo::send_udp`] and receives [`StackEvent::Udp`], telling its
//!   ports apart by `dst_port`. The event borrows the received packet's
//!   bytes, so a node parses the payload where it lies.
//! * **TCP** connections live in a [`TcpSocket`](crate::tcp::TcpSocket): one
//!   per bound port, any number of connections. `send_to` runs the handshake
//!   and segments the bytes to the connection's MSS; `handle` takes the
//!   stack's [`StackEvent::Tcp`] segments, which own the buffer the stack
//!   moved out of the packet, and surfaces [`SocketEvent`]s.
//! * [`StackIo`] bundles the host stack, simulated time, seeded RNG and the
//!   outgoing packet list, the things building a packet needs (IP-ID
//!   allocation, path-MTU lookups, initial sequence numbers).
//!
//! ## Example: a TCP exchange between two host stacks
//!
//! The sockets are pure state machines over packets, so two stacks can be
//! wired back-to-back without the discrete-event engine:
//!
//! ```
//! use netsim::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha20Rng;
//!
//! let (a_addr, b_addr): (Ipv4Addr, Ipv4Addr) = ("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
//! let mut rng = ChaCha20Rng::seed_from_u64(7);
//! let mut a = HostStack::with_defaults(vec![a_addr]);
//! let mut b = HostStack::with_defaults(vec![b_addr]);
//!
//! // Bind a TCP client on host A and a TCP listener on host B: open the
//! // ports on the stacks, which deliver segments only to open ports.
//! a.open_tcp_port(40000);
//! b.open_tcp_port(80);
//! let mut client = TcpSocket::client(40000);
//! let mut server = TcpSocket::listener(80);
//!
//! // A sends a request: the socket opens the connection (SYN first).
//! let mut wire = Vec::new();
//! let mut io = StackIo::new(&mut a, SimTime::ZERO, &mut rng, &mut wire);
//! client.send_to(&mut io, Endpoint::new(b_addr, 80), b"GET /index".to_vec());
//!
//! // Shuttle packets between the two stacks until the network is quiet. The
//! // stack borrows each packet, as a node borrows it from the engine.
//! let mut request = Vec::new();
//! while let Some(mut pkt) = wire.pop() {
//!     let (stack, sock) = if pkt.header.dst == a_addr { (&mut a, &mut client) } else { (&mut b, &mut server) };
//!     let mut io = StackIo::new(stack, SimTime::ZERO, &mut rng, &mut wire);
//!     let Some(StackEvent::Tcp(seg)) = io.receive(&mut pkt) else { continue };
//!     for se in sock.handle(&mut io, seg) {
//!         if let SocketEvent::Data { payload, .. } = se {
//!             request.extend_from_slice(&payload);
//!         }
//!     }
//! }
//!
//! // The three-way handshake completed and the stream bytes arrived intact.
//! assert_eq!(request, b"GET /index");
//! assert_eq!(server.connection(Endpoint::new(a_addr, 40000)).unwrap().state, TcpState::Established);
//! assert_eq!(server.flows()[0].bytes_received, 10);
//! ```

use crate::ipv4::{Ipv4Packet, Protocol};
use crate::stack::{HostStack, StackEvent};
use crate::tcp::TcpSegment;
use crate::time::SimTime;
use crate::udp::UdpDatagram;
use rand_chacha::ChaCha20Rng;
use std::fmt;
use std::net::Ipv4Addr;

/// A transport endpoint: an IPv4 address and a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// Transport port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// Events a [`TcpSocket`](crate::tcp::TcpSocket) surfaces to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketEvent {
    /// Stream bytes arrived from `peer`: one in-order chunk (the application
    /// owns any record framing, e.g. the RFC 1035 two-byte length prefix).
    Data {
        /// Remote endpoint.
        peer: Endpoint,
        /// Local endpoint the payload was addressed to.
        local: Endpoint,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// A TCP three-way handshake completed (either direction).
    Connected {
        /// Remote endpoint.
        peer: Endpoint,
        /// Local endpoint of the connection.
        local: Endpoint,
    },
    /// The TCP peer closed its sending direction (FIN received).
    PeerClosed {
        /// Remote endpoint.
        peer: Endpoint,
        /// Local endpoint of the connection.
        local: Endpoint,
    },
    /// The TCP connection was reset.
    Reset {
        /// Remote endpoint.
        peer: Endpoint,
        /// Local endpoint of the connection.
        local: Endpoint,
    },
}

/// Per-flow transport statistics reported by
/// [`TcpSocket::flows`](crate::tcp::TcpSocket::flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Transport protocol of the flow.
    pub protocol: Protocol,
    /// Local endpoint.
    pub local: Endpoint,
    /// Remote endpoint.
    pub peer: Endpoint,
    /// Connection state name (`"established"`, `"fin-wait-1"`, ...).
    pub state: &'static str,
    /// Application bytes sent on this flow.
    pub bytes_sent: u64,
    /// Application bytes received on this flow.
    pub bytes_received: u64,
}

/// Everything a socket needs from its host to turn payloads into packets:
/// the host stack (IP-ID allocation, path-MTU cache, fragmentation), the
/// simulated clock, the simulation's seeded RNG (initial sequence numbers,
/// random IP-IDs) and the list the produced packets are appended to — inside
/// a node, its [`Ctx`](crate::engine::Ctx)'s outgoing list (see [`with_io`]).
pub struct StackIo<'a> {
    /// The host's network stack.
    pub stack: &'a mut HostStack,
    /// Current simulated time.
    pub now: SimTime,
    /// The deterministic per-simulation RNG.
    pub rng: &'a mut ChaCha20Rng,
    /// Packets to transmit: every packet a call produces is appended here.
    pub out: &'a mut Vec<Ipv4Packet>,
}

impl<'a> StackIo<'a> {
    /// Creates an IO bundle over a host stack, appending to `out`.
    pub fn new(stack: &'a mut HostStack, now: SimTime, rng: &'a mut ChaCha20Rng, out: &'a mut Vec<Ipv4Packet>) -> Self {
        StackIo { stack, now, rng, out }
    }

    /// Feeds one received packet through the host stack (see
    /// [`HostStack::handle_packet`]): replies are queued, the application
    /// event, which borrows from the packet, is returned.
    pub fn receive<'p>(&mut self, pkt: &'p mut Ipv4Packet) -> Option<StackEvent<'p>> {
        self.stack.handle_packet(pkt, self.now, self.rng, self.out)
    }

    /// Builds (and, path MTU permitting, fragments) a UDP datagram and
    /// queues the resulting packets.
    pub fn send_udp(&mut self, dgram: UdpDatagram) {
        self.stack.send_udp(dgram, self.now, self.rng, self.out);
    }

    /// Builds a TCP segment packet (DF set, IP-ID per host policy) and
    /// queues it.
    pub(crate) fn send_tcp(&mut self, seg: TcpSegment) {
        let pkt = self.stack.send_tcp(seg, self.now, self.rng);
        self.out.push(pkt);
    }
}

/// Runs `f` with a [`StackIo`] over `stack` whose packets go straight into
/// the node's [`Ctx`](crate::engine::Ctx) outgoing list — the one
/// socket-dispatch idiom every node shares, expressed once.
///
/// ```ignore
/// let events = with_io(&mut self.stack, ctx, |io| self.tcp.handle(io, seg));
/// ```
pub fn with_io<R>(stack: &mut HostStack, ctx: &mut crate::engine::Ctx<'_>, f: impl FnOnce(&mut StackIo<'_>) -> R) -> R {
    f(&mut ctx.stack_io(stack))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpSocket;
    use rand::SeedableRng;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn rng() -> ChaCha20Rng {
        ChaCha20Rng::seed_from_u64(1)
    }

    /// Runs the doctest scenario as a unit test so failures localise here.
    #[test]
    fn tcp_sockets_complete_a_full_exchange_between_stacks() {
        let mut rng = rng();
        let mut a = HostStack::with_defaults(vec![A]);
        let mut b = HostStack::with_defaults(vec![B]);
        a.open_tcp_port(40000);
        b.open_tcp_port(80);
        let mut client = TcpSocket::client(40000);
        let mut server = TcpSocket::listener(80);

        let mut wire = Vec::new();
        let mut io = StackIo::new(&mut a, SimTime::ZERO, &mut rng, &mut wire);
        client.send_to(&mut io, Endpoint::new(B, 80), b"hello over tcp".to_vec());
        let mut received = Vec::new();
        let mut guard = 0;
        while let Some(mut pkt) = wire.pop() {
            guard += 1;
            assert!(guard < 64, "exchange did not quiesce");
            let (stack, sock) = if pkt.header.dst == A { (&mut a, &mut client) } else { (&mut b, &mut server) };
            let mut io = StackIo::new(stack, SimTime::ZERO, &mut rng, &mut wire);
            let Some(StackEvent::Tcp(seg)) = io.receive(&mut pkt) else { continue };
            for se in sock.handle(&mut io, seg) {
                if let SocketEvent::Data { payload, .. } = se {
                    received.extend_from_slice(&payload);
                }
            }
        }
        assert_eq!(received, b"hello over tcp");
        assert_eq!(client.flows().len(), 1);
        assert_eq!(client.flows()[0].state, "established");
        assert_eq!(client.flows()[0].bytes_sent, 14);
        assert_eq!(server.flows()[0].bytes_received, 14);
    }
}

//! The generic, object-safe transport socket API.
//!
//! Every simulated host used to hand-roll `UdpDatagram` construction against
//! its [`HostStack`](crate::stack::HostStack); this module puts a uniform,
//! transport-agnostic surface in between so the DNS nodes (and any future
//! application) can speak UDP or TCP through the same four calls:
//!
//! * [`Transport`] — an object-safe factory binding a port on a host stack
//!   and returning a `Box<dyn Socket>` ([`UdpTransport`],
//!   [`TcpTransport`]);
//! * [`Socket`] — an object-safe bound socket: `send_to` turns application
//!   payloads into wire packets (a single datagram for UDP; handshake,
//!   MSS-sized segments and teardown for TCP), `handle` consumes host-stack
//!   events and surfaces [`SocketEvent`]s;
//! * [`StackIo`] — the bundle of host stack, simulated time and seeded RNG a
//!   socket needs to build packets (IP-ID allocation, path-MTU lookups,
//!   initial sequence numbers) plus the outgoing packet queue.
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
//! // Bind a TCP client on host A and a TCP listener on host B.
//! let mut client: Box<dyn Socket> = TcpTransport::client().bind(&mut a, 40000);
//! let mut server: Box<dyn Socket> = TcpTransport::listener().bind(&mut b, 80);
//!
//! // A sends a request: the socket opens the connection (SYN first).
//! let mut wire = Vec::new();
//! let mut io = StackIo::new(&mut a, SimTime::ZERO, &mut rng, &mut wire);
//! client.send_to(&mut io, Endpoint::new(b_addr, 80), b"GET /index".to_vec());
//!
//! // Shuttle packets between the two stacks until the network is quiet.
//! let mut request = Vec::new();
//! while let Some(pkt) = wire.pop() {
//!     let (stack, sock) = if pkt.header.dst == a_addr { (&mut a, &mut client) } else { (&mut b, &mut server) };
//!     let mut io = StackIo::new(stack, SimTime::ZERO, &mut rng, &mut wire);
//!     let Some(event) = io.receive(pkt) else { continue };
//!     for se in sock.handle(&mut io, event) {
//!         if let SocketEvent::Data { payload, .. } = se {
//!             request.extend_from_slice(&payload);
//!         }
//!     }
//! }
//!
//! // The three-way handshake completed and the stream bytes arrived intact.
//! assert_eq!(request, b"GET /index");
//! assert_eq!(server.flows()[0].state, "established");
//! assert_eq!(server.flows()[0].bytes_received, 10);
//! ```

use crate::ipv4::{Ipv4Packet, Protocol};
use crate::stack::{HostStack, StackEvent};
use crate::tcp::TcpSegment;
use crate::time::SimTime;
use crate::udp::UdpDatagram;
use rand_chacha::ChaCha20Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// A transport endpoint: an IPv4 address and a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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

/// Events a [`Socket`] surfaces to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketEvent {
    /// Application payload arrived from `peer`: one datagram's payload for
    /// UDP, one in-order chunk of stream bytes for TCP (the application owns
    /// any record framing, e.g. the RFC 1035 two-byte length prefix).
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

/// Per-flow transport statistics reported by [`Socket::flows`].
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
    /// event is returned.
    pub fn receive(&mut self, pkt: Ipv4Packet) -> Option<StackEvent> {
        self.stack.handle_packet(pkt, self.now, self.rng, self.out)
    }

    /// Builds (and, path MTU permitting, fragments) a UDP datagram and
    /// queues the resulting packets.
    pub fn send_udp(&mut self, dgram: UdpDatagram) {
        self.stack.send_udp(dgram, self.now, self.rng, self.out);
    }

    /// Builds a TCP segment packet (DF set, IP-ID per host policy) and
    /// queues it.
    pub fn send_tcp(&mut self, seg: TcpSegment) {
        let pkt = self.stack.send_tcp(seg, self.now, self.rng);
        self.out.push(pkt);
    }
}

/// Runs `f` with a [`StackIo`] over `stack` whose packets go straight into
/// the node's [`Ctx`](crate::engine::Ctx) outgoing list — the one
/// socket-dispatch idiom every node shares, expressed once.
///
/// ```ignore
/// let events = with_io(&mut self.stack, ctx, |io| self.sock.handle(io, event));
/// ```
pub fn with_io<R>(stack: &mut HostStack, ctx: &mut crate::engine::Ctx<'_>, f: impl FnOnce(&mut StackIo<'_>) -> R) -> R {
    f(&mut ctx.stack_io(stack))
}

/// An object-safe, transport-agnostic socket bound to one local port.
///
/// Implementations: [`UdpSocket`] (datagrams) and
/// [`TcpSocket`](crate::tcp::TcpSocket) (connections). Applications hold
/// `Box<dyn Socket>` so the transport can be swapped without touching the
/// protocol logic — this is what lets the DNS resolver re-query over TCP
/// when a UDP answer comes back truncated (RFC 7766).
pub trait Socket {
    /// Transport protocol spoken by this socket.
    fn protocol(&self) -> Protocol;

    /// The bound local port.
    fn local_port(&self) -> u16;

    /// Sends `payload` towards `peer`: one datagram for UDP; for TCP the
    /// socket opens (or reuses) a connection to the peer, running the
    /// handshake first and segmenting the bytes to the connection's MSS.
    ///
    /// The socket takes the payload buffer: UDP frames it in place into the
    /// one packet, TCP copies it into segments and gives it back to the
    /// [`pool`](crate::pool). Encode with headroom (`pool::take(len +
    /// UDP_HEADER_LEN)`) and the datagram needs no second buffer.
    fn send_to(&mut self, io: &mut StackIo<'_>, peer: Endpoint, payload: Vec<u8>);

    /// Feeds one host-stack event through the socket, producing zero or more
    /// application-level [`SocketEvent`]s (and possibly reply packets into
    /// `io.out` — ACKs, handshake steps). The application owns each `Data`
    /// payload; a UDP one is the received packet's own buffer, which goes
    /// back to the [`pool`](crate::pool) once the payload is decoded.
    fn handle(&mut self, io: &mut StackIo<'_>, event: StackEvent) -> Vec<SocketEvent>;

    /// Actively closes the flow towards `peer` (TCP: FIN; UDP: no-op).
    fn close_peer(&mut self, io: &mut StackIo<'_>, peer: Endpoint);

    /// Aborts the flow towards `peer` (TCP: RST and drop the connection, the
    /// SO_LINGER-zero behaviour a resolver uses before retrying a dead
    /// upstream connection; UDP: no-op).
    fn abort_peer(&mut self, io: &mut StackIo<'_>, peer: Endpoint) {
        let _ = (io, peer);
    }

    /// Per-flow statistics (TCP connections; empty for UDP).
    fn flows(&self) -> Vec<FlowStats>;
}

/// The datagram implementation of [`Socket`]: stateless, one event per
/// datagram, no flows.
#[derive(Debug, Clone)]
pub struct UdpSocket {
    port: u16,
}

impl UdpSocket {
    /// A UDP socket bound to `port`.
    pub fn new(port: u16) -> Self {
        UdpSocket { port }
    }
}

impl Socket for UdpSocket {
    fn protocol(&self) -> Protocol {
        Protocol::Udp
    }

    fn local_port(&self) -> u16 {
        self.port
    }

    fn send_to(&mut self, io: &mut StackIo<'_>, peer: Endpoint, payload: Vec<u8>) {
        let src = io.stack.primary_addr();
        io.send_udp(UdpDatagram::new(src, peer.addr, self.port, peer.port, payload));
    }

    fn handle(&mut self, _io: &mut StackIo<'_>, event: StackEvent) -> Vec<SocketEvent> {
        match event {
            StackEvent::Udp(dgram) if dgram.dst_port == self.port => vec![SocketEvent::Data {
                peer: Endpoint::new(dgram.src, dgram.src_port),
                local: Endpoint::new(dgram.dst, dgram.dst_port),
                payload: dgram.payload,
            }],
            StackEvent::Udp(dgram) => {
                crate::pool::give(dgram.payload);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn close_peer(&mut self, _io: &mut StackIo<'_>, _peer: Endpoint) {}

    fn flows(&self) -> Vec<FlowStats> {
        Vec::new()
    }
}

/// An object-safe factory for sockets of one transport: binds the port on
/// the host stack (so the stack demultiplexes matching packets) and returns
/// the socket.
pub trait Transport {
    /// Transport protocol of the sockets this factory produces.
    fn protocol(&self) -> Protocol;

    /// Binds a socket on `port`.
    fn bind(&self, stack: &mut HostStack, port: u16) -> Box<dyn Socket>;
}

/// Factory for [`UdpSocket`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdpTransport;

impl Transport for UdpTransport {
    fn protocol(&self) -> Protocol {
        Protocol::Udp
    }

    fn bind(&self, stack: &mut HostStack, port: u16) -> Box<dyn Socket> {
        stack.open_port(port);
        Box::new(UdpSocket::new(port))
    }
}

/// Factory for [`TcpSocket`](crate::tcp::TcpSocket)s.
#[derive(Debug, Clone, Copy)]
pub struct TcpTransport {
    listening: bool,
}

impl TcpTransport {
    /// Sockets that open outgoing connections only.
    pub fn client() -> Self {
        TcpTransport { listening: false }
    }

    /// Sockets that accept incoming connections.
    pub fn listener() -> Self {
        TcpTransport { listening: true }
    }
}

impl Transport for TcpTransport {
    fn protocol(&self) -> Protocol {
        Protocol::Tcp
    }

    fn bind(&self, stack: &mut HostStack, port: u16) -> Box<dyn Socket> {
        stack.open_tcp_port(port);
        if self.listening {
            Box::new(crate::tcp::TcpSocket::listener(port))
        } else {
            Box::new(crate::tcp::TcpSocket::client(port))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn rng() -> ChaCha20Rng {
        ChaCha20Rng::seed_from_u64(1)
    }

    #[test]
    fn udp_socket_roundtrip_through_stacks() {
        let mut rng = rng();
        let mut a = HostStack::with_defaults(vec![A]);
        let mut b = HostStack::with_defaults(vec![B]);
        let mut sender: Box<dyn Socket> = UdpTransport.bind(&mut a, 1111);
        let mut receiver: Box<dyn Socket> = UdpTransport.bind(&mut b, 2222);
        assert_eq!(sender.protocol(), Protocol::Udp);
        assert_eq!(receiver.local_port(), 2222);

        let mut out = Vec::new();
        sender.send_to(
            &mut StackIo::new(&mut a, SimTime::ZERO, &mut rng, &mut out),
            Endpoint::new(B, 2222),
            b"ping".to_vec(),
        );
        assert_eq!(out.len(), 1);
        let mut replies = Vec::new();
        let mut io = StackIo::new(&mut b, SimTime::ZERO, &mut rng, &mut replies);
        let event = io.receive(out.pop().unwrap()).unwrap();
        let socket_events = receiver.handle(&mut io, event);
        assert_eq!(
            socket_events,
            vec![SocketEvent::Data {
                peer: Endpoint::new(A, 1111),
                local: Endpoint::new(B, 2222),
                payload: b"ping".to_vec(),
            }]
        );
        assert!(receiver.flows().is_empty());
    }

    /// Runs the doctest scenario as a unit test so failures localise here.
    #[test]
    fn tcp_sockets_complete_a_full_exchange_between_stacks() {
        let mut rng = rng();
        let mut a = HostStack::with_defaults(vec![A]);
        let mut b = HostStack::with_defaults(vec![B]);
        let mut client: Box<dyn Socket> = TcpTransport::client().bind(&mut a, 40000);
        let mut server: Box<dyn Socket> = TcpTransport::listener().bind(&mut b, 80);

        let mut wire = Vec::new();
        let mut io = StackIo::new(&mut a, SimTime::ZERO, &mut rng, &mut wire);
        client.send_to(&mut io, Endpoint::new(B, 80), b"hello over tcp".to_vec());
        let mut received = Vec::new();
        let mut guard = 0;
        while let Some(pkt) = wire.pop() {
            guard += 1;
            assert!(guard < 64, "exchange did not quiesce");
            let (stack, sock) = if pkt.header.dst == A { (&mut a, &mut client) } else { (&mut b, &mut server) };
            let mut io = StackIo::new(stack, SimTime::ZERO, &mut rng, &mut wire);
            let Some(event) = io.receive(pkt) else { continue };
            for se in sock.handle(&mut io, event) {
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

//! A minimal OS network-stack model shared by all simulated hosts.
//!
//! [`HostStack`] bundles the operating-system behaviours the paper's attacks
//! interact with: UDP and TCP port state, ICMP port-unreachable generation
//! (with the configurable rate-limit policy SadDNS probes), TCP RST
//! generation for closed ports, the IPv4 defragmentation cache FragDNS
//! poisons, path-MTU discovery, and the IP identification assignment policy
//! whose predictability decides the FragDNS hit rate. DNS resolvers,
//! nameservers, application servers and attacker hosts in the higher-level
//! crates all embed a `HostStack` and feed packets through
//! [`HostStack::handle_packet`]. The port table is the one record of bound
//! ports; TCP connection state above it lives in [`crate::tcp::TcpSocket`].

use crate::frag::fragment_packet;
use crate::frag::{ReassemblyBuffer, ReassemblyConfig, ReassemblyResult};
use crate::icmp::{IcmpMessage, Unreachable};
use crate::ipv4::{Ipv4Packet, Protocol, DEFAULT_MTU, MIN_IPV4_MTU};
use crate::pmtud::PathMtuCache;
use crate::pool;
use crate::ratelimit::{IcmpRateLimitPolicy, IcmpRateLimiter};
use crate::tcp::{rst_reply, TcpSegment, TCP_HEADER_LEN};
use crate::time::SimTime;
use crate::udp::{UdpDatagram, UdpView};
use rand::Rng;
use std::net::Ipv4Addr;

/// The open ports of one transport: one bit per port and a count of the set
/// bits. Every received packet tests its destination port here, and an
/// off-path flood (SadDNS sprays 2¹⁶ datagrams per round) tests it once per
/// packet, so the test is a shift and a mask with no hashing. The bitmap is
/// 8 KiB, zeroed on allocation.
struct PortSet {
    bits: Box<[u64; PortSet::WORDS]>,
    len: usize,
}

impl PortSet {
    const WORDS: usize = (u16::MAX as usize + 1) / 64;

    fn new() -> Self {
        let bits = vec![0u64; Self::WORDS].into_boxed_slice().try_into().expect("exactly WORDS words");
        PortSet { bits, len: 0 }
    }

    /// The word holding `port`'s bit, and the bit's mask within it.
    fn slot(port: u16) -> (usize, u64) {
        (usize::from(port >> 6), 1 << (port & 63))
    }

    fn contains(&self, port: u16) -> bool {
        let (word, mask) = Self::slot(port);
        self.bits[word] & mask != 0
    }

    fn insert(&mut self, port: u16) {
        let (word, mask) = Self::slot(port);
        self.len += usize::from(self.bits[word] & mask == 0);
        self.bits[word] |= mask;
    }

    fn remove(&mut self, port: u16) {
        let (word, mask) = Self::slot(port);
        self.len -= usize::from(self.bits[word] & mask != 0);
        self.bits[word] &= !mask;
    }
}

impl std::fmt::Debug for PortSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries((0..=u16::MAX).filter(|&port| self.contains(port))).finish()
    }
}

/// How a host assigns IPv4 identification values to outgoing packets.
///
/// The paper (Section 4.4.3 / 5.3.2) distinguishes nameservers with a single
/// **global incremental** counter (predictable: the attacker samples it and
/// extrapolates — median hit rate ≈ 20 %), **per-destination** counters
/// (predictable only with an on-path vantage) and **random** IPIDs
/// (hit rate ≈ 1/1024 with a 64-entry defragmentation cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpIdPolicy {
    /// One counter shared by all destinations, incremented per packet.
    GlobalCounter,
    /// One counter per destination address.
    PerDestination,
    /// Uniformly random identification values.
    Random,
}

/// Configuration for a [`HostStack`].
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// TTL placed in outgoing packets.
    pub ttl: u8,
    /// ICMP error rate-limiting policy (the SadDNS side channel lives here).
    pub icmp_rate_limit: IcmpRateLimitPolicy,
    /// IP identification assignment policy.
    pub ipid_policy: IpIdPolicy,
    /// Defragmentation cache configuration.
    pub reassembly: ReassemblyConfig,
    /// Whether the host answers ICMP echo requests.
    pub respond_to_ping: bool,
    /// Whether the host honours ICMP fragmentation-needed (PMTUD) at all.
    pub pmtud_enabled: bool,
    /// Minimum path MTU the host will accept from a fragmentation-needed
    /// message (hardened hosts refuse tiny values).
    pub min_accepted_mtu: u16,
    /// Whether incoming IP fragments are accepted at all. Resolver operators
    /// that "block fragmented responses in firewalls" (Section 6) set this to
    /// `false`, defeating FragDNS.
    pub accept_fragments: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            ttl: 64,
            icmp_rate_limit: IcmpRateLimitPolicy::linux_default(),
            ipid_policy: IpIdPolicy::GlobalCounter,
            reassembly: ReassemblyConfig::default(),
            respond_to_ping: true,
            pmtud_enabled: true,
            min_accepted_mtu: MIN_IPV4_MTU,
            accept_fragments: true,
        }
    }
}

/// Events surfaced to the application layer by [`HostStack::handle_packet`],
/// borrowing from the received packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent<'p> {
    /// A (reassembled, checksum-valid) UDP datagram addressed to an open
    /// port, borrowed from the packet.
    Udp(UdpView<'p>),
    /// A checksum-valid TCP segment addressed to an open TCP port; connection
    /// state is kept by the [`TcpSocket`](crate::tcp::TcpSocket) bound there.
    Tcp(TcpSegment),
    /// A TCP segment arrived at a closed port (the stack answered with RST).
    TcpClosedPort {
        /// Source of the segment.
        from: Ipv4Addr,
        /// The closed destination port.
        port: u16,
        /// Whether an RST was emitted (never for incoming RSTs).
        rst_sent: bool,
    },
    /// An ICMP destination-unreachable error was received; `quoted_ports` are
    /// the (src, dst) UDP ports of the quoted offending datagram, if any.
    IcmpError {
        /// Sender of the ICMP error.
        from: Ipv4Addr,
        /// Which unreachable condition was reported.
        kind: Unreachable,
        /// Ports quoted from the offending datagram.
        quoted_ports: Option<(u16, u16)>,
        /// `(destination, new path MTU)` when this fragmentation-needed
        /// message lowered the path MTU towards a destination.
        pmtu_update: Option<(Ipv4Addr, u16)>,
    },
    /// An ICMP echo reply was received (used by liveness probes).
    EchoReply {
        /// Responder address.
        from: Ipv4Addr,
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
    },
    /// An ICMP echo request was received and (if configured) answered.
    EchoRequest {
        /// Requester address.
        from: Ipv4Addr,
    },
    /// A UDP datagram arrived at a closed port (the stack may have generated
    /// an ICMP port-unreachable, subject to rate limiting).
    ClosedPort {
        /// Source of the datagram.
        from: Ipv4Addr,
        /// The closed destination port.
        port: u16,
        /// Whether an ICMP error was actually emitted (rate limit permitting).
        icmp_sent: bool,
    },
    /// A datagram or fragment was dropped (bad checksum, fragment rejected...).
    Dropped(&'static str),
}

/// The per-host stack state.
///
/// Besides the UDP/ICMP path it owns the TCP port table and the TCP
/// packetisation path, with connection state living in
/// [`crate::tcp::TcpSocket`].
#[derive(Debug)]
pub struct HostStack {
    /// Addresses owned by this host.
    pub addresses: Vec<Ipv4Addr>,
    config: StackConfig,
    open_ports: PortSet,
    open_tcp_ports: PortSet,
    reassembly: ReassemblyBuffer,
    icmp_limiter: IcmpRateLimiter,
    pmtu: PathMtuCache,
    global_ipid: u16,
    per_dest_ipid: std::collections::HashMap<Ipv4Addr, u16>,
}

impl HostStack {
    /// Creates a stack owning the given addresses.
    pub fn new(addresses: Vec<Ipv4Addr>, config: StackConfig) -> Self {
        let mut pmtu = PathMtuCache::with_min_accepted(config.min_accepted_mtu.max(MIN_IPV4_MTU));
        pmtu.default_mtu = DEFAULT_MTU;
        HostStack {
            addresses,
            icmp_limiter: IcmpRateLimiter::new(config.icmp_rate_limit),
            reassembly: ReassemblyBuffer::new(config.reassembly),
            pmtu,
            open_ports: PortSet::new(),
            open_tcp_ports: PortSet::new(),
            global_ipid: 1,
            per_dest_ipid: std::collections::HashMap::new(),
            config,
        }
    }

    /// Creates a stack with default configuration.
    pub fn with_defaults(addresses: Vec<Ipv4Addr>) -> Self {
        HostStack::new(addresses, StackConfig::default())
    }

    /// The primary (first) address of this host.
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.addresses.first().copied().unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Whether `addr` is owned by this host.
    pub fn owns(&self, addr: Ipv4Addr) -> bool {
        self.addresses.contains(&addr)
    }

    /// Opens a UDP port (e.g. 53 on a nameserver, an ephemeral port on a
    /// resolver while a query is outstanding).
    pub fn open_port(&mut self, port: u16) {
        self.open_ports.insert(port);
    }

    /// Closes a UDP port.
    pub fn close_port(&mut self, port: u16) {
        self.open_ports.remove(port);
    }

    /// Whether a port is currently open.
    pub fn is_port_open(&self, port: u16) -> bool {
        self.open_ports.contains(port)
    }

    /// Number of currently open ports.
    pub fn open_port_count(&self) -> usize {
        self.open_ports.len
    }

    /// Opens a TCP port (53 on a nameserver, the client port of a resolver's
    /// upstream connections). The TCP and UDP port spaces are independent.
    pub fn open_tcp_port(&mut self, port: u16) {
        self.open_tcp_ports.insert(port);
    }

    /// Whether a TCP port is currently open.
    pub fn is_tcp_port_open(&self, port: u16) -> bool {
        self.open_tcp_ports.contains(port)
    }

    /// Read access to the stack configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Read access to the path-MTU cache.
    pub fn pmtu(&self) -> &PathMtuCache {
        &self.pmtu
    }

    /// Read access to the ICMP rate limiter (for measurement instrumentation).
    pub fn icmp_limiter(&self) -> &IcmpRateLimiter {
        &self.icmp_limiter
    }

    /// Read access to the defragmentation cache.
    pub fn reassembly(&self) -> &ReassemblyBuffer {
        &self.reassembly
    }

    /// Allocates the IP identification for a packet towards `dst` according
    /// to the configured policy.
    pub fn next_ipid<R: Rng>(&mut self, dst: Ipv4Addr, rng: &mut R) -> u16 {
        match self.config.ipid_policy {
            IpIdPolicy::GlobalCounter => {
                let id = self.global_ipid;
                self.global_ipid = self.global_ipid.wrapping_add(1);
                id
            }
            IpIdPolicy::PerDestination => {
                let counter = self.per_dest_ipid.entry(dst).or_insert(1);
                let id = *counter;
                *counter = counter.wrapping_add(1);
                id
            }
            IpIdPolicy::Random => rng.gen(),
        }
    }

    /// Builds (and, if the path MTU towards the destination requires it,
    /// fragments) a UDP datagram originating from this host, appending the
    /// packets to `out`.
    pub fn send_udp<R: Rng>(&mut self, dgram: UdpDatagram, now: SimTime, rng: &mut R, out: &mut Vec<Ipv4Packet>) {
        let dst = dgram.dst;
        let ipid = self.next_ipid(dst, rng);
        let pkt = dgram.into_packet(ipid, self.config.ttl);
        let mtu = if self.config.pmtud_enabled { self.pmtu.mtu_for(dst, now) } else { DEFAULT_MTU };
        if pkt.wire_len() > usize::from(mtu) {
            out.extend(fragment_packet(&pkt, mtu));
            pool::give(pkt.payload);
        } else {
            out.push(pkt);
        }
    }

    /// The maximum TCP segment size towards `dst`: the current path MTU
    /// minus the IPv4 and TCP headers. TCP sets DF, so sizing segments to
    /// the path MTU is what keeps the stream unfragmentable — the structural
    /// reason DNS over TCP defeats fragmentation-based poisoning.
    pub(crate) fn tcp_mss_for(&self, dst: Ipv4Addr, now: SimTime) -> u16 {
        let mtu = if self.config.pmtud_enabled { self.pmtu.mtu_for(dst, now) } else { DEFAULT_MTU };
        mtu.saturating_sub((crate::ipv4::IPV4_HEADER_LEN + TCP_HEADER_LEN) as u16).max(1)
    }

    /// Builds the IPv4 packet for a TCP segment originating from this host
    /// (IP-ID per policy, DF always set).
    pub(crate) fn send_tcp<R: Rng>(&mut self, seg: TcpSegment, _now: SimTime, rng: &mut R) -> Ipv4Packet {
        let dst = seg.dst;
        let ipid = self.next_ipid(dst, rng);
        seg.into_packet(ipid, self.config.ttl)
    }

    /// Feeds one received IPv4 packet through the stack: reply packets (ICMP
    /// errors, echo replies, RSTs) are appended to `replies`, and the event
    /// for the application, if any, is returned.
    ///
    /// The packet is borrowed, and its owner (the engine, for a delivered
    /// packet) recycles its buffer afterwards. A checksum-valid UDP datagram
    /// for an open port comes up as a [`UdpView`] of the packet's bytes. A
    /// fragment that completes a datagram is replaced in `*pkt` by the
    /// reassembled packet, which the view then borrows; the fragment's
    /// buffer goes back to the [`pool`]. A TCP segment for an open port
    /// moves the packet's buffer out, header stripped in place.
    pub fn handle_packet<'p, R: Rng>(
        &mut self,
        pkt: &'p mut Ipv4Packet,
        now: SimTime,
        rng: &mut R,
        replies: &mut Vec<Ipv4Packet>,
    ) -> Option<StackEvent<'p>> {
        if !self.owns(pkt.header.dst) {
            return Some(StackEvent::Dropped("not addressed to this host"));
        }

        // 1. Reassembly of fragments (the buffer copies them in).
        if pkt.header.is_fragment() {
            if !self.config.accept_fragments {
                return Some(StackEvent::Dropped("fragments filtered"));
            }
            match self.reassembly.push(pkt, now) {
                ReassemblyResult::Complete(full) => pool::give(std::mem::replace(pkt, full).payload),
                ReassemblyResult::Pending => return None,
                ReassemblyResult::Dropped(_) => return Some(StackEvent::Dropped("fragment dropped")),
            }
        }

        Some(match pkt.header.protocol {
            Protocol::Udp => self.handle_udp(pkt, now, rng, replies),
            Protocol::Tcp => self.handle_tcp(pkt, rng, replies),
            Protocol::Icmp => self.handle_icmp(pkt, now, rng, replies),
            _ => StackEvent::Dropped("unsupported protocol"),
        })
    }

    fn handle_tcp<R: Rng>(
        &mut self,
        pkt: &mut Ipv4Packet,
        rng: &mut R,
        replies: &mut Vec<Ipv4Packet>,
    ) -> StackEvent<'static> {
        let Ok(seg) = TcpSegment::take_from_packet(pkt) else {
            return StackEvent::Dropped("tcp checksum/format error");
        };
        if self.open_tcp_ports.contains(seg.dst_port) {
            return StackEvent::Tcp(seg);
        }
        // RFC 793 §3.4: segments to closed ports are reset (RSTs are not
        // subject to the ICMP error rate limit — one reason the TCP path has
        // no SadDNS-style muting oracle).
        let rst = rst_reply(&seg);
        let rst_sent = rst.is_some();
        if let Some(rst) = rst {
            let ipid = self.next_ipid(rst.dst, rng);
            replies.push(rst.into_packet(ipid, self.config.ttl));
        }
        let event = StackEvent::TcpClosedPort { from: seg.src, port: seg.dst_port, rst_sent };
        pool::give(seg.payload);
        event
    }

    fn handle_udp<'p, R: Rng>(
        &mut self,
        pkt: &'p Ipv4Packet,
        now: SimTime,
        rng: &mut R,
        replies: &mut Vec<Ipv4Packet>,
    ) -> StackEvent<'p> {
        match UdpDatagram::parse(pkt) {
            Ok(view) if self.open_ports.contains(view.dst_port) => StackEvent::Udp(view),
            Ok(view) => {
                let from = pkt.header.src;
                let allowed = self.icmp_limiter.allow(from, now);
                if allowed {
                    let ipid = self.next_ipid(from, rng);
                    let reply = IcmpMessage::port_unreachable(pkt).into_packet(
                        pkt.header.dst,
                        pkt.header.src,
                        ipid,
                        self.config.ttl,
                    );
                    replies.push(reply);
                }
                StackEvent::ClosedPort { from, port: view.dst_port, icmp_sent: allowed }
            }
            Err(_) => StackEvent::Dropped("udp checksum/format error"),
        }
    }

    fn handle_icmp<R: Rng>(
        &mut self,
        pkt: &Ipv4Packet,
        now: SimTime,
        rng: &mut R,
        replies: &mut Vec<Ipv4Packet>,
    ) -> StackEvent<'static> {
        match IcmpMessage::decode(&pkt.payload) {
            Err(_) => StackEvent::Dropped("icmp format error"),
            Ok(IcmpMessage::EchoRequest { id, seq, payload }) => {
                if self.config.respond_to_ping {
                    let ipid = self.next_ipid(pkt.header.src, rng);
                    let reply = IcmpMessage::EchoReply { id, seq, payload }.into_packet(
                        pkt.header.dst,
                        pkt.header.src,
                        ipid,
                        self.config.ttl,
                    );
                    replies.push(reply);
                }
                StackEvent::EchoRequest { from: pkt.header.src }
            }
            Ok(IcmpMessage::EchoReply { id, seq, .. }) => StackEvent::EchoReply { from: pkt.header.src, id, seq },
            Ok(msg @ IcmpMessage::DestinationUnreachable { kind, .. }) => {
                let mut pmtu_update = None;
                if let Unreachable::FragmentationNeeded { mtu } = kind {
                    // PMTUD: only honour errors that quote a packet we could
                    // actually have sent (destination of the quoted header).
                    if self.config.pmtud_enabled {
                        if let Some(quoted) = msg.quoted_header() {
                            if self.owns(quoted.src) && self.pmtu.on_fragmentation_needed(quoted.dst, mtu, now) {
                                pmtu_update = Some((quoted.dst, mtu.max(MIN_IPV4_MTU)));
                            }
                        }
                    }
                }
                StackEvent::IcmpError { from: pkt.header.src, kind, quoted_ports: msg.quoted_udp_ports(), pmtu_update }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    const HOST: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
    const PEER: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);

    fn rng() -> ChaCha20Rng {
        ChaCha20Rng::seed_from_u64(1)
    }

    fn stack() -> HostStack {
        HostStack::with_defaults(vec![HOST])
    }

    /// Feeds `pkt` through `s`, returning its event and reply packets.
    fn feed<'p>(
        s: &mut HostStack,
        pkt: &'p mut Ipv4Packet,
        rng: &mut ChaCha20Rng,
    ) -> (Option<StackEvent<'p>>, Vec<Ipv4Packet>) {
        let mut replies = Vec::new();
        let event = s.handle_packet(pkt, SimTime::ZERO, rng, &mut replies);
        (event, replies)
    }

    fn send(s: &mut HostStack, dgram: UdpDatagram, rng: &mut ChaCha20Rng) -> Vec<Ipv4Packet> {
        let mut out = Vec::new();
        s.send_udp(dgram, SimTime::ZERO, rng, &mut out);
        out
    }

    fn udp_to(stack_addr: Ipv4Addr, port: u16, payload: &[u8], id: u16) -> Ipv4Packet {
        UdpDatagram::new(PEER, stack_addr, 53, port, payload.to_vec()).into_packet(id, 64)
    }

    #[test]
    fn delivers_to_open_port() {
        let mut s = stack();
        s.open_port(4444);
        let mut pkt = udp_to(HOST, 4444, b"hi", 1);
        let (event, replies) = feed(&mut s, &mut pkt, &mut rng());
        assert!(matches!(&event, Some(StackEvent::Udp(d)) if d.payload == b"hi"));
        assert!(replies.is_empty());
    }

    #[test]
    fn closed_port_generates_rate_limited_icmp() {
        let mut s = stack();
        let mut r = rng();
        let mut icmp_replies = 0;
        for i in 0..60 {
            icmp_replies += feed(&mut s, &mut udp_to(HOST, 5555, b"probe", i), &mut r).1.len();
        }
        // Linux default: only 50 ICMP errors in the same instant.
        assert_eq!(icmp_replies, 50);
        assert_eq!(s.icmp_limiter().suppressed, 10);
    }

    #[test]
    fn ignores_packets_for_other_hosts() {
        let mut s = stack();
        let other: Ipv4Addr = "9.9.9.9".parse().unwrap();
        let mut pkt = udp_to(other, 53, b"x", 3);
        let (event, _) = feed(&mut s, &mut pkt, &mut rng());
        assert!(matches!(event, Some(StackEvent::Dropped(_))));
    }

    #[test]
    fn answers_ping_when_configured() {
        let mut s = stack();
        let mut ping = IcmpMessage::EchoRequest { id: 9, seq: 1, payload: vec![] }.into_packet(PEER, HOST, 7, 64);
        let (event, replies) = feed(&mut s, &mut ping, &mut rng());
        assert_eq!(replies.len(), 1);
        assert!(matches!(event, Some(StackEvent::EchoRequest { .. })));
        let mut silent = HostStack::new(vec![HOST], StackConfig { respond_to_ping: false, ..Default::default() });
        let mut ping2 = IcmpMessage::EchoRequest { id: 9, seq: 1, payload: vec![] }.into_packet(PEER, HOST, 7, 64);
        assert!(feed(&mut silent, &mut ping2, &mut rng()).1.is_empty());
    }

    #[test]
    fn pmtud_lowers_mtu_and_fragments_subsequent_sends() {
        let mut s = stack();
        let mut r = rng();
        // Host sends a large response; initially unfragmented (1500 MTU).
        let pkts = send(&mut s, UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), &mut r);
        assert_eq!(pkts.len(), 1);
        // Attacker spoofs an ICMP frag-needed quoting that packet with MTU 68.
        let mut ptb = IcmpMessage::fragmentation_needed(&pkts[0], 68).into_packet(PEER, HOST, 9, 64);
        let (event, _) = feed(&mut s, &mut ptb, &mut r);
        assert!(matches!(event, Some(StackEvent::IcmpError { pmtu_update: Some((PEER, 68)), .. })));
        // The next large response is now fragmented down to the minimum MTU.
        let pkts2 = send(&mut s, UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), &mut r);
        assert!(pkts2.len() > 1);
        assert!(pkts2.iter().all(|p| p.wire_len() <= 68));
    }

    #[test]
    fn hardened_stack_ignores_tiny_ptb() {
        let cfg = StackConfig { min_accepted_mtu: 1280, ..Default::default() };
        let mut s = HostStack::new(vec![HOST], cfg);
        let mut r = rng();
        let pkts = send(&mut s, UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), &mut r);
        let mut ptb = IcmpMessage::fragmentation_needed(&pkts[0], 68).into_packet(PEER, HOST, 9, 64);
        let (event, _) = feed(&mut s, &mut ptb, &mut r);
        assert!(matches!(event, Some(StackEvent::IcmpError { pmtu_update: None, .. })));
        let pkts2 = send(&mut s, UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), &mut r);
        assert_eq!(pkts2.len(), 1);
    }

    #[test]
    fn ipid_policies_behave_as_documented() {
        let mut r = rng();
        let mut global =
            HostStack::new(vec![HOST], StackConfig { ipid_policy: IpIdPolicy::GlobalCounter, ..Default::default() });
        let a: Ipv4Addr = "1.1.1.1".parse().unwrap();
        let b: Ipv4Addr = "2.2.2.2".parse().unwrap();
        let id1 = global.next_ipid(a, &mut r);
        let id2 = global.next_ipid(b, &mut r);
        assert_eq!(id2, id1.wrapping_add(1), "global counter shared across destinations");

        let mut per_dest =
            HostStack::new(vec![HOST], StackConfig { ipid_policy: IpIdPolicy::PerDestination, ..Default::default() });
        let a1 = per_dest.next_ipid(a, &mut r);
        let _b1 = per_dest.next_ipid(b, &mut r);
        let a2 = per_dest.next_ipid(a, &mut r);
        assert_eq!(a2, a1.wrapping_add(1));

        let mut random =
            HostStack::new(vec![HOST], StackConfig { ipid_policy: IpIdPolicy::Random, ..Default::default() });
        let vals: Vec<u16> = (0..8).map(|_| random.next_ipid(a, &mut r)).collect();
        let increments = vals.windows(2).filter(|w| w[1] == w[0].wrapping_add(1)).count();
        assert!(increments < 7, "random IPIDs must not look like a counter");
    }

    #[test]
    fn fragment_filtering_countermeasure() {
        let cfg = StackConfig { accept_fragments: false, ..Default::default() };
        let mut s = HostStack::new(vec![HOST], cfg);
        s.open_port(1000);
        let big = UdpDatagram::new(PEER, HOST, 53, 1000, vec![0u8; 1200]).into_packet(5, 64);
        let frags = fragment_packet(&big, 576);
        let mut r = rng();
        for mut f in frags {
            assert!(matches!(feed(&mut s, &mut f, &mut r).0, Some(StackEvent::Dropped(_))));
        }
    }

    #[test]
    fn fragmented_udp_delivered_after_reassembly() {
        let mut s = stack();
        s.open_port(1000);
        let payload: Vec<u8> = (0..1200u32).map(|i| (i % 251) as u8).collect();
        let big = UdpDatagram::new(PEER, HOST, 53, 1000, payload.clone()).into_packet(5, 64);
        let mut frags = fragment_packet(&big, 576);
        let count = frags.len() as u64;
        let mut last = frags.pop().expect("the datagram was fragmented");
        let mut r = rng();
        let returned = pool::counters().returned;
        // The earlier fragments wait in the reassembly buffer, which copies
        // them; their owner recycles their buffers, as the engine does.
        for mut f in frags {
            assert_eq!(feed(&mut s, &mut f, &mut r).0, None);
            pool::give(f.payload);
        }
        // The last one completes the datagram: the stack writes the
        // reassembled packet over it, and the view borrows that.
        let last_buffer = last.payload.as_ptr();
        let Some(StackEvent::Udp(view)) = feed(&mut s, &mut last, &mut r).0 else {
            panic!("the last fragment completes a datagram for an open port");
        };
        assert_eq!(view.payload, &payload[..]);
        assert_eq!((view.src, view.dst, view.src_port, view.dst_port), (PEER, HOST, 53, 1000));
        assert_eq!((last.header, &last.payload), (big.header, &big.payload), "the packet is the whole datagram");
        // The stack gave the last fragment's buffer back itself, so every
        // fragment's buffer is pooled.
        assert_eq!(pool::counters().returned - returned, count);
        let reused = pool::take(0);
        assert_eq!(reused.as_ptr(), last_buffer, "the buffer given back last is the last fragment's");
    }

    #[test]
    fn icmp_error_reports_quoted_ports() {
        let mut s = stack();
        let probe = UdpDatagram::new(HOST, PEER, 40000, 53, b"q".to_vec()).into_packet(3, 64);
        let mut err = IcmpMessage::port_unreachable(&probe).into_packet(PEER, HOST, 4, 64);
        let (event, _) = feed(&mut s, &mut err, &mut rng());
        assert!(matches!(
            event,
            Some(StackEvent::IcmpError { kind: Unreachable::Port, quoted_ports: Some((40000, 53)), .. })
        ));
    }

    #[test]
    fn tcp_delivered_to_open_port_and_rst_for_closed() {
        use crate::tcp::{TcpFlags, TcpSegment};
        let mut s = stack();
        s.open_tcp_port(53);
        let syn = TcpSegment {
            src: PEER,
            dst: HOST,
            src_port: 40000,
            dst_port: 53,
            seq: 100,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 512,
            payload: vec![],
        };
        let mut pkt = syn.clone().into_packet(1, 64);
        let (event, replies) = feed(&mut s, &mut pkt, &mut rng());
        assert!(matches!(&event, Some(StackEvent::Tcp(seg)) if seg.dst_port == 53 && seg.flags.syn));
        assert!(replies.is_empty(), "connection state lives in the socket, not the stack");

        // Closed port: RST, not ICMP — and not rate limited.
        let mut probe = syn;
        probe.dst_port = 9999;
        let mut pkt = probe.into_packet(2, 64);
        let (event, replies) = feed(&mut s, &mut pkt, &mut rng());
        assert!(matches!(event, Some(StackEvent::TcpClosedPort { port: 9999, rst_sent: true, .. })));
        assert_eq!(replies.len(), 1);
        let rst = crate::tcp::TcpSegment::from_packet(&replies[0]).unwrap();
        assert!(rst.flags.rst);
    }

    #[test]
    fn corrupt_tcp_segment_dropped() {
        use crate::tcp::{TcpFlags, TcpSegment};
        let mut s = stack();
        s.open_tcp_port(53);
        let seg = TcpSegment {
            src: PEER,
            dst: HOST,
            src_port: 40000,
            dst_port: 53,
            seq: 1,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 512,
            payload: vec![],
        };
        let mut pkt = seg.into_packet(1, 64);
        pkt.payload[16] = 0; // zero the checksum: illegal for TCP
        pkt.payload[17] = 0;
        let (event, _) = feed(&mut s, &mut pkt, &mut rng());
        assert!(matches!(event, Some(StackEvent::Dropped("tcp checksum/format error"))));
    }

    #[test]
    fn tcp_mss_follows_path_mtu() {
        let mut s = stack();
        let mut r = rng();
        assert_eq!(s.tcp_mss_for(PEER, SimTime::ZERO), 1460);
        // A fragmentation-needed message lowers the path MTU and the MSS.
        let pkts = send(&mut s, UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), &mut r);
        let mut ptb = IcmpMessage::fragmentation_needed(&pkts[0], 576).into_packet(PEER, HOST, 9, 64);
        feed(&mut s, &mut ptb, &mut r);
        assert_eq!(s.tcp_mss_for(PEER, SimTime::ZERO), 536);
    }

    #[test]
    fn tcp_port_space_is_independent_of_udp() {
        let mut s = stack();
        s.open_port(53);
        assert!(!s.is_tcp_port_open(53));
        s.open_tcp_port(53);
        assert!(s.is_tcp_port_open(53));
        s.close_port(53);
        assert!(!s.is_port_open(53));
        assert!(s.is_tcp_port_open(53), "closing the UDP port leaves TCP open");
    }

    #[test]
    fn port_management() {
        let mut s = stack();
        assert!(!s.is_port_open(53));
        s.open_port(53);
        assert!(s.is_port_open(53));
        assert_eq!(s.open_port_count(), 1);
        s.close_port(53);
        assert!(!s.is_port_open(53));
    }
}

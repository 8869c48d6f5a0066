//! TCP segment wire format and a deterministic connection state machine.
//!
//! The paper's strongest deployable countermeasure is re-querying DNS over
//! TCP (RFC 7766): a TCP answer never travels as a fragmented UDP datagram
//! (defeating FragDNS) and there is no UDP ephemeral port for the SadDNS
//! side channel to recover — the off-path attacker would have to guess a
//! 32-bit sequence number on top of the 4-tuple. This module provides the
//! transport machinery that makes those claims testable in the simulator:
//!
//! * [`TcpSegment`] — RFC 793 header codec with the real pseudo-header
//!   checksum. Unlike UDP there is **no** zero-means-absent checksum rule:
//!   a computed `0x0000` is transmitted as-is and a receiver always
//!   verifies, so a zeroed checksum field is simply a corrupt segment.
//! * [`TcpConnection`] — a deterministic state machine: seeded ISN
//!   generation (drawn from the simulation's ChaCha20 stream), the
//!   three-way handshake, cumulative seq/ack bookkeeping, MSS-based
//!   segmentation sized from the host's path-MTU cache, FIN teardown and
//!   RST handling. The simulated network never reorders or drops TCP
//!   segments of an open connection, so there is no retransmission queue —
//!   every run of a seeded simulation produces byte-identical segment
//!   interleavings.
//! * [`TcpSocket`] — the connections of one bound local port (client or
//!   listener), multiplexed by endpoint pair. The port itself is bound on
//!   the [`HostStack`](crate::stack::HostStack)
//!   ([`open_tcp_port`](crate::stack::HostStack::open_tcp_port)), which
//!   delivers segments only to open ports.

use crate::checksum;
use crate::ipv4::{Ipv4Header, Ipv4Packet, Protocol};
use crate::pool;
use crate::transport::{Endpoint, FlowStats, SocketEvent, StackIo};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Length of a TCP header without options, in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// The decoded TCP flag bits this workspace models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// No more data from sender (teardown).
    pub fin: bool,
    /// Synchronise sequence numbers (handshake).
    pub syn: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push buffered data to the application.
    pub psh: bool,
    /// The acknowledgment field is significant.
    pub ack: bool,
}

impl TcpFlags {
    /// A bare SYN (client handshake opener).
    pub fn syn() -> Self {
        TcpFlags { syn: true, ..Default::default() }
    }

    /// SYN|ACK (server handshake reply).
    pub fn syn_ack() -> Self {
        TcpFlags { syn: true, ack: true, ..Default::default() }
    }

    /// A bare ACK.
    pub fn ack() -> Self {
        TcpFlags { ack: true, ..Default::default() }
    }

    /// FIN|ACK (active close).
    pub(crate) fn fin_ack() -> Self {
        TcpFlags { fin: true, ack: true, ..Default::default() }
    }

    fn to_byte(self) -> u8 {
        (self.fin as u8) | (self.syn as u8) << 1 | (self.rst as u8) << 2 | (self.psh as u8) << 3 | (self.ack as u8) << 4
    }

    /// Decodes the flag bits of a wire header's 14th byte.
    pub fn from_byte(b: u8) -> Self {
        TcpFlags { fin: b & 0x01 != 0, syn: b & 0x02 != 0, rst: b & 0x04 != 0, psh: b & 0x08 != 0, ack: b & 0x10 != 0 }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (set, name) in
            [(self.syn, "SYN"), (self.ack, "ACK"), (self.fin, "FIN"), (self.rst, "RST"), (self.psh, "PSH")]
        {
            if set {
                if wrote {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                wrote = true;
            }
        }
        if !wrote {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// A full TCP segment together with the IPv4 addresses needed for the
/// pseudo-header checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// IPv4 source address.
    pub src: Ipv4Addr,
    /// IPv4 destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (next sequence number expected from the peer).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Stream payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// The amount of sequence space this segment consumes (payload plus one
    /// for SYN and one for FIN).
    pub(crate) fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Computes the checksum over pseudo-header, header and payload.
    ///
    /// RFC 793: the computed value is transmitted verbatim — TCP has **no**
    /// equivalent of UDP's "0x0000 means no checksum, send 0xFFFF instead"
    /// rule, and receivers must always verify.
    pub(crate) fn compute_checksum(&self) -> u16 {
        let length = (TCP_HEADER_LEN + self.payload.len()) as u16;
        let mut c = checksum::pseudo_header(self.src, self.dst, Protocol::Tcp.number(), length);
        c.add_bytes(&self.header_bytes(0));
        c.add_bytes(&self.payload);
        c.finish()
    }

    fn header_bytes(&self, checksum: u16) -> [u8; TCP_HEADER_LEN] {
        let mut buf = [0u8; TCP_HEADER_LEN];
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = 0x50; // data offset 5 words, no options
        buf[13] = self.flags.to_byte();
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&checksum.to_be_bytes());
        // urgent pointer stays zero
        buf
    }

    /// Serialises header + payload (the IPv4 payload bytes) into the
    /// payload's own buffer: the header is written in front of the payload
    /// in place when the buffer has [`TCP_HEADER_LEN`] bytes of spare
    /// capacity, as segmentation leaves it.
    pub fn encode(self) -> Vec<u8> {
        let header = self.header_bytes(self.compute_checksum());
        pool::prepend(self.payload, &header)
    }

    /// Wraps the segment in an IPv4 packet. TCP performs path-MTU discovery,
    /// so the Don't Fragment flag is always set.
    pub fn into_packet(self, identification: u16, ttl: u8) -> Ipv4Packet {
        let (src, dst) = (self.src, self.dst);
        let payload = self.encode();
        let mut header = Ipv4Header::new(src, dst, Protocol::Tcp, payload.len(), identification, ttl);
        header.dont_fragment = true;
        Ipv4Packet::new(header, payload)
    }

    /// Validates a TCP segment inside an IPv4 packet, always verifying the
    /// checksum (a zeroed checksum field is a verification failure, not an
    /// opt-out as in UDP). Returns the segment with an empty payload plus
    /// the offset of the payload in `pkt.payload`: the one TCP parser behind
    /// both constructors below.
    fn parse(pkt: &Ipv4Packet) -> Result<(Self, usize), TcpError> {
        if pkt.header.protocol != Protocol::Tcp {
            return Err(TcpError::NotTcp);
        }
        if pkt.header.is_fragment() {
            return Err(TcpError::IsFragment);
        }
        let buf = &pkt.payload;
        if buf.len() < TCP_HEADER_LEN {
            return Err(TcpError::Truncated);
        }
        if buf.len() > usize::from(u16::MAX) {
            // Regression (fuzz target tcp_segment): the pseudo-header
            // length is 16-bit; a larger buffer used to be checksummed
            // against a silently truncated length instead of rejected.
            return Err(TcpError::Oversized);
        }
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset < TCP_HEADER_LEN {
            return Err(TcpError::BadDataOffset);
        }
        if buf.len() < data_offset {
            return Err(TcpError::Truncated);
        }
        let mut c = checksum::pseudo_header(pkt.header.src, pkt.header.dst, Protocol::Tcp.number(), buf.len() as u16);
        c.add_bytes(buf);
        if c.folded() != 0xffff {
            return Err(TcpError::BadChecksum);
        }
        let seg = TcpSegment {
            src: pkt.header.src,
            dst: pkt.header.dst,
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags::from_byte(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            payload: Vec::new(),
        };
        Ok((seg, data_offset))
    }

    /// Parses a TCP segment out of an IPv4 packet into a segment that owns a
    /// copy of the payload.
    pub fn from_packet(pkt: &Ipv4Packet) -> Result<Self, TcpError> {
        let (mut seg, offset) = Self::parse(pkt)?;
        seg.payload = pkt.payload[offset..].to_vec();
        Ok(seg)
    }

    /// Parses a TCP segment out of a received IPv4 packet without a copy:
    /// the segment moves the packet's buffer out and strips the header in
    /// place, leaving the packet an empty payload. A packet that does not
    /// parse keeps its buffer.
    pub(crate) fn take_from_packet(pkt: &mut Ipv4Packet) -> Result<Self, TcpError> {
        let (mut seg, offset) = Self::parse(pkt)?;
        let mut payload = std::mem::take(&mut pkt.payload);
        payload.drain(..offset);
        seg.payload = payload;
        Ok(seg)
    }
}

/// Builds the RST a host sends in response to a segment that reached a
/// closed port or a nonexistent connection (RFC 793 §3.4). Returns `None`
/// for incoming RSTs (never reset a reset).
pub(crate) fn rst_reply(seg: &TcpSegment) -> Option<TcpSegment> {
    if seg.flags.rst {
        return None;
    }
    let (seq, ack, flags) = if seg.flags.ack {
        (seg.ack, 0, TcpFlags { rst: true, ..Default::default() })
    } else {
        (0, seg.seq.wrapping_add(seg.seq_len()), TcpFlags { rst: true, ack: true, ..Default::default() })
    };
    Some(TcpSegment {
        src: seg.dst,
        dst: seg.src,
        src_port: seg.dst_port,
        dst_port: seg.src_port,
        seq,
        ack,
        flags,
        window: 0,
        payload: Vec::new(),
    })
}

/// Errors returned by the TCP codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The buffer is shorter than a TCP header.
    Truncated,
    /// The IPv4 packet does not carry protocol 6.
    NotTcp,
    /// The packet is an unreassembled fragment.
    IsFragment,
    /// The data offset field is smaller than 5 words.
    BadDataOffset,
    /// The checksum does not verify (including a zeroed checksum field —
    /// TCP has no "checksum absent" escape hatch).
    BadChecksum,
    /// The segment exceeds what the 16-bit pseudo-header length can frame.
    Oversized,
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpError::Truncated => write!(f, "truncated TCP segment"),
            TcpError::NotTcp => write!(f, "not a TCP packet"),
            TcpError::IsFragment => write!(f, "packet is an IP fragment"),
            TcpError::BadDataOffset => write!(f, "bad TCP data offset"),
            TcpError::BadChecksum => write!(f, "bad TCP checksum"),
            TcpError::Oversized => write!(f, "TCP segment longer than 65535 bytes"),
        }
    }
}

impl std::error::Error for TcpError {}

/// Connection states of the RFC 793 state machine (LISTEN is a property of
/// the [`TcpSocket`]; TIME_WAIT collapses straight to closed because the
/// simulated network cannot deliver old duplicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, waiting for SYN|ACK.
    SynSent,
    /// SYN received and SYN|ACK sent, waiting for the final ACK.
    SynReceived,
    /// Handshake complete; data flows.
    Established,
    /// We sent FIN, waiting for it to be acknowledged.
    FinWait1,
    /// Our FIN is acknowledged, waiting for the peer's FIN.
    FinWait2,
    /// Peer sent FIN; we may still send data until the application closes.
    CloseWait,
    /// Both sides sent FIN simultaneously; waiting for the peer's ACK.
    Closing,
    /// We sent FIN after the peer's; waiting for the final ACK.
    LastAck,
    /// Fully closed.
    Closed,
}

impl TcpState {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TcpState::SynSent => "syn-sent",
            TcpState::SynReceived => "syn-received",
            TcpState::Established => "established",
            TcpState::FinWait1 => "fin-wait-1",
            TcpState::FinWait2 => "fin-wait-2",
            TcpState::CloseWait => "close-wait",
            TcpState::Closing => "closing",
            TcpState::LastAck => "last-ack",
            TcpState::Closed => "closed",
        }
    }
}

/// `a >= b` in 32-bit sequence space.
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// States in which a connection can still carry (or queue) new application
/// payloads. Once either side has sent its FIN the connection is winding
/// down and new exchanges need a fresh one.
fn usable_for_send(state: TcpState) -> bool {
    matches!(state, TcpState::SynSent | TcpState::SynReceived | TcpState::Established | TcpState::CloseWait)
}

/// What one incoming segment did to a connection.
#[derive(Debug, Default)]
pub struct TcpReaction {
    /// Segments to transmit in response (ACKs, handshake steps, flushed data).
    pub replies: Vec<TcpSegment>,
    /// Events for the application layer.
    pub events: Vec<SocketEvent>,
    /// The connection reached `Closed` and can be dropped.
    pub done: bool,
}

/// One TCP connection's deterministic state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConnection {
    /// Local endpoint (for hosts answering hijacked traffic this may be an
    /// address the host does not own — source spoofing at the stream layer).
    pub local: Endpoint,
    /// Remote endpoint.
    pub peer: Endpoint,
    /// Current state.
    pub state: TcpState,
    /// Maximum segment size used when segmenting application payloads,
    /// derived from the host's path MTU towards the peer at connect time.
    pub mss: u16,
    /// Application bytes sent on this connection.
    pub bytes_sent: u64,
    /// Application bytes received on this connection.
    pub bytes_received: u64,
    snd_nxt: u32,
    snd_una: u32,
    rcv_nxt: u32,
    fin_seq: Option<u32>,
    pending: Vec<u8>,
}

impl TcpConnection {
    fn new(local: Endpoint, peer: Endpoint, state: TcpState, isn: u32, mss: u16) -> Self {
        TcpConnection {
            local,
            peer,
            state,
            mss: mss.max(1),
            bytes_sent: 0,
            bytes_received: 0,
            snd_nxt: isn,
            snd_una: isn,
            rcv_nxt: 0,
            fin_seq: None,
            pending: Vec::new(),
        }
    }

    /// Opens a client connection: returns the connection in `SynSent` plus
    /// the SYN to transmit. `isn` is the seeded initial sequence number.
    pub fn client(local: Endpoint, peer: Endpoint, isn: u32, mss: u16) -> (Self, TcpSegment) {
        let mut conn = Self::new(local, peer, TcpState::SynSent, isn, mss);
        let syn = conn.segment(TcpFlags::syn(), isn, Vec::new());
        conn.snd_nxt = isn.wrapping_add(1);
        (conn, syn)
    }

    /// Accepts an incoming SYN on a listening socket: returns the connection
    /// in `SynReceived` plus the SYN|ACK to transmit.
    pub fn server(local: Endpoint, peer: Endpoint, isn: u32, mss: u16, syn: &TcpSegment) -> (Self, TcpSegment) {
        let mut conn = Self::new(local, peer, TcpState::SynReceived, isn, mss);
        conn.rcv_nxt = syn.seq.wrapping_add(1);
        let syn_ack = conn.segment(TcpFlags::syn_ack(), isn, Vec::new());
        conn.snd_nxt = isn.wrapping_add(1);
        (conn, syn_ack)
    }

    /// The next sequence number this side would send (tests and probes).
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// The next sequence number expected from the peer.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    fn segment(&self, flags: TcpFlags, seq: u32, payload: Vec<u8>) -> TcpSegment {
        TcpSegment {
            src: self.local.addr,
            dst: self.peer.addr,
            src_port: self.local.port,
            dst_port: self.peer.port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: u16::MAX,
            payload,
        }
    }

    fn bare_ack(&self) -> TcpSegment {
        self.segment(TcpFlags::ack(), self.snd_nxt, Vec::new())
    }

    /// Queues or transmits `payload`: before the handshake completes the
    /// bytes are buffered (flushed with the handshake ACK); afterwards they
    /// are segmented to the connection's MSS, PSH set on the final segment.
    pub fn send(&mut self, payload: &[u8]) -> Vec<TcpSegment> {
        if payload.is_empty() {
            return Vec::new();
        }
        match self.state {
            TcpState::SynSent | TcpState::SynReceived => {
                self.pending.extend_from_slice(payload);
                Vec::new()
            }
            TcpState::Established | TcpState::CloseWait => {
                let chunks: Vec<&[u8]> = payload.chunks(usize::from(self.mss)).collect();
                let last = chunks.len() - 1;
                let mut out = Vec::with_capacity(chunks.len());
                for (i, chunk) in chunks.into_iter().enumerate() {
                    let flags = TcpFlags { ack: true, psh: i == last, ..Default::default() };
                    let mut buf = pool::take(TCP_HEADER_LEN + chunk.len());
                    buf.extend_from_slice(chunk);
                    let seg = self.segment(flags, self.snd_nxt, buf);
                    self.snd_nxt = self.snd_nxt.wrapping_add(chunk.len() as u32);
                    self.bytes_sent += chunk.len() as u64;
                    out.push(seg);
                }
                out
            }
            // Closing or closed: the application can no longer send.
            _ => Vec::new(),
        }
    }

    /// Aborts the connection: emits a RST (unless never opened) and closes.
    pub fn abort(&mut self) -> Option<TcpSegment> {
        if self.state == TcpState::Closed {
            return None;
        }
        let rst = self.segment(TcpFlags { rst: true, ack: true, ..Default::default() }, self.snd_nxt, Vec::new());
        self.state = TcpState::Closed;
        Some(rst)
    }

    /// Actively closes the sending direction (FIN), if the state allows it.
    pub fn close(&mut self) -> Option<TcpSegment> {
        let next_state = match self.state {
            TcpState::Established | TcpState::SynReceived => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                return None;
            }
            _ => return None,
        };
        let fin = self.segment(TcpFlags::fin_ack(), self.snd_nxt, Vec::new());
        self.fin_seq = Some(self.snd_nxt);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.state = next_state;
        Some(fin)
    }

    /// Feeds one incoming segment through the state machine.
    ///
    /// Segments whose sequence number does not match `rcv_nxt` (out-of-order
    /// data, or an off-path forgery that guessed the 4-tuple but not the
    /// sequence number) are dropped and answered with a duplicate ACK.
    pub fn on_segment(&mut self, seg: &TcpSegment) -> TcpReaction {
        let mut r = TcpReaction::default();
        if seg.flags.rst {
            // RFC 793/5961: a RST is honoured only when it is provably in
            // sequence — in SYN-SENT it must acknowledge our SYN, elsewhere
            // its sequence number must be exactly the next expected byte. A
            // blind off-path reset that guessed only the (public) 4-tuple
            // still has to hit the 32-bit sequence number.
            let acceptable = match self.state {
                TcpState::SynSent => seg.flags.ack && seg.ack == self.snd_nxt,
                TcpState::Closed => false,
                _ => seg.seq == self.rcv_nxt,
            };
            if !acceptable {
                return r;
            }
            r.events.push(SocketEvent::Reset { peer: self.peer, local: self.local });
            self.state = TcpState::Closed;
            r.done = true;
            return r;
        }
        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_una = seg.ack;
                    self.state = TcpState::Established;
                    r.events.push(SocketEvent::Connected { peer: self.peer, local: self.local });
                    if self.pending.is_empty() {
                        r.replies.push(self.bare_ack());
                    } else {
                        // The handshake ACK rides on the first data segment.
                        let queued = std::mem::take(&mut self.pending);
                        r.replies.extend(self.send(&queued));
                    }
                }
                return r;
            }
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack == self.snd_nxt {
                    self.snd_una = seg.ack;
                    self.state = TcpState::Established;
                    r.events.push(SocketEvent::Connected { peer: self.peer, local: self.local });
                    if !self.pending.is_empty() {
                        let queued = std::mem::take(&mut self.pending);
                        r.replies.extend(self.send(&queued));
                    }
                    // Fall through: the handshake ACK may carry data or FIN.
                } else {
                    return r;
                }
            }
            TcpState::Closed => return r,
            _ => {}
        }

        // Cumulative acknowledgment bookkeeping.
        if seg.flags.ack && seq_ge(seg.ack, self.snd_una) && seq_ge(self.snd_nxt, seg.ack) {
            self.snd_una = seg.ack;
            if self.fin_seq.is_some_and(|f| seg.ack == f.wrapping_add(1)) {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing | TcpState::LastAck => {
                        self.state = TcpState::Closed;
                        r.done = true;
                    }
                    _ => {}
                }
            }
        }

        // In-order payload delivery.
        if !seg.payload.is_empty() {
            let receiving = matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2);
            if receiving && seg.seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                self.bytes_received += seg.payload.len() as u64;
                r.events.push(SocketEvent::Data { peer: self.peer, local: self.local, payload: seg.payload.clone() });
                r.replies.push(self.bare_ack());
            } else {
                r.replies.push(self.bare_ack());
                return r;
            }
        }

        // Peer FIN (only honoured in order).
        if seg.flags.fin && seg.seq.wrapping_add(seg.payload.len() as u32) == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            match self.state {
                TcpState::Established => {
                    self.state = TcpState::CloseWait;
                    r.events.push(SocketEvent::PeerClosed { peer: self.peer, local: self.local });
                }
                TcpState::FinWait1 => {
                    // Simultaneous close: our FIN is still unacknowledged.
                    self.state = TcpState::Closing;
                    r.events.push(SocketEvent::PeerClosed { peer: self.peer, local: self.local });
                }
                TcpState::FinWait2 => {
                    // TIME_WAIT collapses: the lossless simulated network
                    // cannot deliver old duplicates.
                    self.state = TcpState::Closed;
                    r.events.push(SocketEvent::PeerClosed { peer: self.peer, local: self.local });
                    r.done = true;
                }
                _ => {}
            }
            r.replies.push(self.bare_ack());
        }
        r
    }
}

/// The TCP connections of one local port, keyed by `(peer, local)` endpoint
/// pair (the local address varies when a hijacker terminates connections
/// addressed to the host it impersonates). The port must also be open on
/// the host stack, or the stack answers its segments with RST.
#[derive(Debug)]
pub struct TcpSocket {
    port: u16,
    listening: bool,
    conns: BTreeMap<(Endpoint, Endpoint), TcpConnection>,
}

impl TcpSocket {
    /// A client socket: outgoing connections only, incoming SYNs are reset.
    pub fn client(port: u16) -> Self {
        TcpSocket { port, listening: false, conns: BTreeMap::new() }
    }

    /// A listening socket: incoming SYNs create server connections.
    pub fn listener(port: u16) -> Self {
        TcpSocket { port, listening: true, conns: BTreeMap::new() }
    }

    /// The connection towards `peer`, if any (first match over local addresses).
    pub fn connection(&self, peer: Endpoint) -> Option<&TcpConnection> {
        self.conns.iter().find(|((p, _), _)| *p == peer).map(|(_, c)| c)
    }

    /// Feeds one segment the host stack delivered (a
    /// [`StackEvent::Tcp`](crate::stack::StackEvent::Tcp)), then gives its
    /// buffer back to the [`pool`]. Returns the application-level events;
    /// replies (ACKs, handshake steps) go into `io.out`.
    pub fn handle(&mut self, io: &mut StackIo<'_>, seg: TcpSegment) -> Vec<SocketEvent> {
        let events = self.handle_segment(io, &seg);
        pool::give(seg.payload);
        events
    }

    /// Feeds one TCP segment addressed to this socket's port, leaving its
    /// buffer with the caller (a hijacker parses a copy of a packet it does
    /// not own).
    pub fn handle_segment(&mut self, io: &mut StackIo<'_>, seg: &TcpSegment) -> Vec<SocketEvent> {
        if seg.dst_port != self.port {
            return Vec::new();
        }
        let peer = Endpoint::new(seg.src, seg.src_port);
        let local = Endpoint::new(seg.dst, seg.dst_port);
        let key = (peer, local);
        // A fresh SYN arriving over a connection that is already winding
        // down supersedes it (the peer reused the 4-tuple for a new
        // exchange, RFC 1122 §4.2.2.13): accept the new handshake instead
        // of feeding the SYN to the dying state machine.
        if self.listening
            && seg.flags.syn
            && !seg.flags.ack
            && self.conns.get(&key).is_some_and(|c| !usable_for_send(c.state))
        {
            self.conns.remove(&key);
        }
        if let Some(conn) = self.conns.get_mut(&key) {
            let reaction = conn.on_segment(seg);
            for reply in reaction.replies {
                io.send_tcp(reply);
            }
            if reaction.done {
                self.conns.remove(&key);
            }
            reaction.events
        } else if self.listening && seg.flags.syn && !seg.flags.ack {
            let isn: u32 = io.rng.gen();
            let mss = io.stack.tcp_mss_for(peer.addr, io.now);
            let (conn, syn_ack) = TcpConnection::server(local, peer, isn, mss, seg);
            io.send_tcp(syn_ack);
            self.conns.insert(key, conn);
            Vec::new()
        } else {
            // Open port but no such connection (or a client socket receiving
            // an unsolicited SYN): reset.
            if let Some(rst) = rst_reply(seg) {
                io.send_tcp(rst);
            }
            Vec::new()
        }
    }

    /// Sends `payload` to `peer` from an explicit local endpoint, opening the
    /// connection (handshake first) if none exists. This is the spoofing
    /// entry point a hijacker uses to answer connections addressed to the
    /// host it impersonates; ordinary hosts use [`send_to`](Self::send_to).
    pub fn send_from(&mut self, io: &mut StackIo<'_>, local: Endpoint, peer: Endpoint, payload: &[u8]) {
        let key = (peer, local);
        // A connection already winding down (we or the peer sent FIN) can
        // no longer carry new payloads — dropping the bytes into its queue
        // would lose them silently. Open a fresh connection instead; the
        // old teardown completes (or is reset) independently.
        if self.conns.get(&key).is_some_and(|c| !usable_for_send(c.state)) {
            self.conns.remove(&key);
        }
        let conn = match self.conns.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let isn: u32 = io.rng.gen();
                let mss = io.stack.tcp_mss_for(peer.addr, io.now);
                let (conn, syn) = TcpConnection::client(local, peer, isn, mss);
                io.send_tcp(syn);
                e.insert(conn)
            }
        };
        for seg in conn.send(payload) {
            io.send_tcp(seg);
        }
    }

    /// Sends `payload` to `peer` from the host's primary address, opening
    /// (or reusing) the connection: handshake first, then segments sized to
    /// the connection's MSS. The bytes are copied into segments and the
    /// buffer goes back to the [`pool`].
    pub fn send_to(&mut self, io: &mut StackIo<'_>, peer: Endpoint, payload: Vec<u8>) {
        let local = Endpoint::new(io.stack.primary_addr(), self.port);
        self.send_from(io, local, peer, &payload);
        pool::give(payload);
    }

    /// Actively closes every connection towards `peer` (FIN).
    pub fn close_peer(&mut self, io: &mut StackIo<'_>, peer: Endpoint) {
        let keys: Vec<(Endpoint, Endpoint)> = self.conns.keys().filter(|(p, _)| *p == peer).copied().collect();
        for key in keys {
            let remove = {
                let conn = self.conns.get_mut(&key).expect("key just listed");
                if let Some(fin) = conn.close() {
                    io.send_tcp(fin);
                }
                conn.state == TcpState::Closed
            };
            if remove {
                self.conns.remove(&key);
            }
        }
    }

    /// Aborts every connection towards `peer`: RST and drop it, the
    /// SO_LINGER-zero behaviour a resolver uses before retrying a dead
    /// upstream connection.
    pub fn abort_peer(&mut self, io: &mut StackIo<'_>, peer: Endpoint) {
        let keys: Vec<(Endpoint, Endpoint)> = self.conns.keys().filter(|(p, _)| *p == peer).copied().collect();
        for key in keys {
            if let Some(mut conn) = self.conns.remove(&key) {
                if let Some(rst) = conn.abort() {
                    io.send_tcp(rst);
                }
            }
        }
    }

    /// Per-connection statistics.
    pub fn flows(&self) -> Vec<FlowStats> {
        self.conns
            .values()
            .map(|c| FlowStats {
                protocol: Protocol::Tcp,
                local: c.local,
                peer: c.peer,
                state: c.state.name(),
                bytes_sent: c.bytes_sent,
                bytes_received: c.bytes_received,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn seg(payload: &[u8]) -> TcpSegment {
        TcpSegment {
            src: A,
            dst: B,
            src_port: 40000,
            dst_port: 53,
            seq: 0x01020304,
            ack: 0xa0b0c0d0,
            flags: TcpFlags { ack: true, psh: true, ..Default::default() },
            window: 512,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_through_packet() {
        let s = seg(b"dns over tcp");
        let pkt = s.clone().into_packet(7, 64);
        assert!(pkt.header.dont_fragment, "TCP packets carry DF");
        assert_eq!(TcpSegment::from_packet(&pkt).unwrap(), s);
    }

    #[test]
    fn checksum_detects_tampering() {
        let s = seg(b"genuine");
        let mut pkt = s.into_packet(7, 64);
        pkt.payload[TCP_HEADER_LEN + 2] ^= 0x40;
        assert_eq!(TcpSegment::from_packet(&pkt), Err(TcpError::BadChecksum));
    }

    #[test]
    fn zeroed_checksum_is_rejected_unlike_udp() {
        let s = seg(b"no checksum escape hatch");
        let mut pkt = s.into_packet(7, 64);
        // Zero the checksum field (bytes 16..18 of the TCP header).
        pkt.payload[16] = 0;
        pkt.payload[17] = 0;
        assert_eq!(TcpSegment::from_packet(&pkt), Err(TcpError::BadChecksum));
    }

    #[test]
    fn hand_computed_pseudo_header_vector() {
        // 20-byte header, no payload: 192.0.2.1:1000 -> 198.51.100.2:53,
        // seq 1, ack 0, SYN, window 65535. Folding the pseudo-header
        // (protocol 6, TCP length 20) and header words by hand:
        //   c000+0201+c633+6402+0006+0014  (pseudo)
        // + 03e8+0035+0000+0001+0000+0000+5002+ffff+0000+0000 = 0x3406f
        // folded: 0x3406f -> 0x4072, checksum = !0x4072 = 0xbf8d.
        let s = TcpSegment {
            src: "192.0.2.1".parse().unwrap(),
            dst: "198.51.100.2".parse().unwrap(),
            src_port: 1000,
            dst_port: 53,
            seq: 1,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 0xffff,
            payload: vec![],
        };
        assert_eq!(s.compute_checksum(), 0xbf8d);
    }

    #[test]
    fn oversized_segment_rejected_not_truncated() {
        // Regression (fuzz target tcp_segment): a payload pushing the TCP
        // bytes past 65535 overflows the 16-bit pseudo-header length; it
        // must surface as a typed error, never as a silently truncated
        // length fed to the checksum.
        let s = seg(&vec![0u8; usize::from(u16::MAX)]); // header pushes it past 65535
        let pkt = s.into_packet(7, 64);
        assert_eq!(TcpSegment::from_packet(&pkt), Err(TcpError::Oversized));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let s = seg(b"x");
        let mut pkt = s.into_packet(7, 64);
        pkt.payload[12] = 0x40; // 4 words < minimum 5
        assert_eq!(TcpSegment::from_packet(&pkt), Err(TcpError::BadDataOffset));
    }

    #[test]
    fn fragment_and_wrong_protocol_rejected() {
        let s = seg(b"x");
        let mut pkt = s.clone().into_packet(7, 64);
        pkt.header.more_fragments = true;
        assert_eq!(TcpSegment::from_packet(&pkt), Err(TcpError::IsFragment));
        let mut pkt = s.into_packet(7, 64);
        pkt.header.protocol = Protocol::Udp;
        assert_eq!(TcpSegment::from_packet(&pkt), Err(TcpError::NotTcp));
    }

    fn handshake() -> (TcpConnection, TcpConnection) {
        let client_ep = Endpoint::new(A, 40000);
        let server_ep = Endpoint::new(B, 53);
        let (mut client, syn) = TcpConnection::client(client_ep, server_ep, 1000, 1460);
        let (mut server, syn_ack) = TcpConnection::server(server_ep, client_ep, 9000, 1460, &syn);
        let r = client.on_segment(&syn_ack);
        assert!(matches!(r.events[0], SocketEvent::Connected { .. }));
        assert_eq!(client.state, TcpState::Established);
        let ack = &r.replies[0];
        let r = server.on_segment(ack);
        assert!(matches!(r.events[0], SocketEvent::Connected { .. }));
        assert_eq!(server.state, TcpState::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let (client, server) = handshake();
        assert_eq!(client.snd_nxt(), 1001);
        assert_eq!(client.rcv_nxt(), 9001);
        assert_eq!(server.rcv_nxt(), 1001);
    }

    #[test]
    fn data_is_segmented_to_mss_and_delivered_in_order() {
        let (mut client, mut server) = handshake();
        client.mss = 4;
        let segs = client.send(b"0123456789");
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].payload, b"0123");
        assert!(!segs[0].flags.psh && segs[2].flags.psh, "PSH on the final segment only");
        let mut delivered = Vec::new();
        for s in &segs {
            for e in server.on_segment(s).events {
                if let SocketEvent::Data { payload, .. } = e {
                    delivered.extend_from_slice(&payload);
                }
            }
        }
        assert_eq!(delivered, b"0123456789");
        assert_eq!(server.bytes_received, 10);
        assert_eq!(client.bytes_sent, 10);
    }

    #[test]
    fn out_of_order_segment_dropped_with_duplicate_ack() {
        let (mut client, mut server) = handshake();
        client.mss = 4;
        let segs = client.send(b"01234567");
        // Deliver the second segment first: dropped, dup-ACKed.
        let r = server.on_segment(&segs[1]);
        assert!(r.events.is_empty());
        assert_eq!(r.replies[0].ack, 1001, "duplicate ACK re-asserts rcv_nxt");
        assert_eq!(server.bytes_received, 0);
    }

    #[test]
    fn wrong_seq_forgery_is_not_delivered() {
        // An off-path attacker that guessed the 4-tuple but not the sequence
        // number cannot inject stream data.
        let (_, mut server) = handshake();
        let mut forged = seg(b"evil payload");
        forged.seq = 0xdeadbeef;
        let r = server.on_segment(&forged);
        assert!(r.events.iter().all(|e| !matches!(e, SocketEvent::Data { .. })));
        assert_eq!(server.bytes_received, 0);
    }

    #[test]
    fn in_sequence_rst_tears_the_connection_down() {
        let (mut client, _) = handshake();
        let mut rst = seg(b"");
        rst.src = B;
        rst.dst = A;
        rst.src_port = 53;
        rst.dst_port = 40000;
        rst.seq = client.rcv_nxt();
        rst.flags = TcpFlags { rst: true, ..Default::default() };
        let r = client.on_segment(&rst);
        assert!(r.done);
        assert!(matches!(r.events[0], SocketEvent::Reset { .. }));
        assert_eq!(client.state, TcpState::Closed);
    }

    #[test]
    fn blind_rst_with_wrong_seq_is_ignored() {
        // The resolver's upstream 4-tuple is public (fixed client port, NS
        // port 53, known addresses): an off-path reset must still guess the
        // 32-bit sequence number or it does nothing.
        let (mut client, _) = handshake();
        let mut rst = seg(b"");
        rst.src = B;
        rst.dst = A;
        rst.src_port = 53;
        rst.dst_port = 40000;
        rst.seq = client.rcv_nxt().wrapping_add(0x1337);
        rst.flags = TcpFlags { rst: true, ..Default::default() };
        let r = client.on_segment(&rst);
        assert!(!r.done);
        assert!(r.events.is_empty());
        assert_eq!(client.state, TcpState::Established, "the blind reset is dropped");
    }

    #[test]
    fn orderly_fin_teardown_both_directions() {
        let (mut client, mut server) = handshake();
        // Client closes; server ACKs and closes too.
        let fin = client.close().unwrap();
        assert_eq!(client.state, TcpState::FinWait1);
        let r = server.on_segment(&fin);
        assert_eq!(server.state, TcpState::CloseWait);
        assert!(r.events.iter().any(|e| matches!(e, SocketEvent::PeerClosed { .. })));
        let ack = r.replies.last().unwrap().clone();
        client.on_segment(&ack);
        assert_eq!(client.state, TcpState::FinWait2);
        let server_fin = server.close().unwrap();
        assert_eq!(server.state, TcpState::LastAck);
        let r = client.on_segment(&server_fin);
        assert!(r.done);
        assert_eq!(client.state, TcpState::Closed);
        let last_ack = r.replies.last().unwrap().clone();
        let r = server.on_segment(&last_ack);
        assert!(r.done);
        assert_eq!(server.state, TcpState::Closed);
    }

    #[test]
    fn payload_queued_during_handshake_flushes_with_the_ack() {
        let client_ep = Endpoint::new(A, 40000);
        let server_ep = Endpoint::new(B, 53);
        let (mut client, syn) = TcpConnection::client(client_ep, server_ep, 5, 1460);
        assert!(client.send(b"early").is_empty(), "queued until established");
        let (mut server, syn_ack) = TcpConnection::server(server_ep, client_ep, 77, 1460, &syn);
        let r = client.on_segment(&syn_ack);
        // The handshake ACK rides on the data segment.
        assert_eq!(r.replies.len(), 1);
        assert_eq!(r.replies[0].payload, b"early");
        let r = server.on_segment(&r.replies[0]);
        assert!(r.events.iter().any(|e| matches!(e, SocketEvent::Data { payload, .. } if payload == b"early")));
    }

    #[test]
    fn rst_reply_forms() {
        let mut s = seg(b"xy");
        s.flags = TcpFlags::syn();
        s.ack = 0;
        let rst = rst_reply(&s).unwrap();
        assert!(rst.flags.rst && rst.flags.ack);
        assert_eq!(rst.ack, s.seq.wrapping_add(3), "SYN + 2 payload bytes");
        let mut acked = seg(b"");
        acked.flags = TcpFlags::ack();
        let rst = rst_reply(&acked).unwrap();
        assert!(rst.flags.rst && !rst.flags.ack);
        assert_eq!(rst.seq, acked.ack);
        let mut r = seg(b"");
        r.flags = TcpFlags { rst: true, ..Default::default() };
        assert!(rst_reply(&r).is_none(), "never reset a reset");
    }
}

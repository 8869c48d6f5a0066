//! The simulator's event recorder.
//!
//! Figures 1 and 2 of the paper are message-sequence diagrams of the SadDNS
//! and FragDNS attacks. The [`Trace`] records, in simulated time, every
//! packet the engine delivers (or drops) and the phase spans an attack
//! marks with [`Simulator::span_enter`] / [`Simulator::span_exit`].
//! Entries are typed and `Copy` apart from a span's detail: a packet keeps
//! the ids of its sender and receiver ([`Origin`]), its verdict and a
//! [`PacketSummary`] of its headers, so recording one allocates nothing and
//! tests filter on fields rather than on text. Names are looked up only
//! when the trace is printed, through the [`TraceView`] that
//! [`Simulator::trace`] returns: it pairs the trace with the simulator's
//! node and stub-block names.
//!
//! Two views read the same entries:
//! * [`TraceView::render`] prints the packet lines only — the figures'
//!   message-sequence view the examples print and the golden fixture locks;
//! * [`TraceView::dump_last`] interleaves the last N packets and spans — the
//!   post-mortem of a failed run.
//!
//! The trace is off by default (`enabled == false`), so campaigns pay one
//! branch per packet. Bounded (`capacity > 0`), it is a ring that discards
//! its oldest entry in O(1) and counts the discard in [`Trace::dropped`].
//!
//! [`Simulator::trace`]: crate::engine::Simulator::trace
//! [`Simulator::span_enter`]: crate::engine::Simulator::span_enter
//! [`Simulator::span_exit`]: crate::engine::Simulator::span_exit

use crate::engine::{NodeSlot, Origin, StubBlock};
use crate::ipv4::{Ipv4Packet, Protocol};
use crate::tcp::TcpFlags;
use crate::time::SimTime;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;
use std::ops::Deref;

/// The fate of a traced packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The packet was delivered to its destination node.
    Delivered,
    /// The packet was dropped: no node owns the destination address.
    NoRoute,
    /// The packet was dropped by link loss.
    LinkLoss,
    /// The packet was dropped by egress filtering of a spoofed source.
    EgressFiltered,
    /// The packet exceeded the link MTU with DF set and was dropped
    /// (an ICMP fragmentation-needed error was generated).
    MtuExceeded,
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceVerdict::Delivered => "delivered",
            TraceVerdict::NoRoute => "no-route",
            TraceVerdict::LinkLoss => "link-loss",
            TraceVerdict::EgressFiltered => "egress-filtered",
            TraceVerdict::MtuExceeded => "mtu-exceeded",
        };
        f.write_str(s)
    }
}

/// The header fields of one packet that a trace line shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSummary {
    /// IP protocol.
    pub protocol: Protocol,
    /// Source address (spoofed or not).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Wire length in bytes.
    pub wire_len: usize,
    /// IPv4 identification (IPID).
    pub identification: u16,
    /// Byte offset of the payload within the original datagram.
    pub fragment_offset: usize,
    /// The MF flag.
    pub more_fragments: bool,
    /// Flags, sequence and acknowledgment numbers of an unfragmented TCP
    /// segment.
    pub tcp: Option<(TcpFlags, u32, u32)>,
}

impl fmt::Display for PacketSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} -> {} len={}", self.protocol, self.src, self.dst, self.wire_len)?;
        if self.more_fragments || self.fragment_offset != 0 {
            write!(
                f,
                " frag(id={:#06x} off={} mf={})",
                self.identification, self.fragment_offset, self.more_fragments
            )?;
        }
        if let Some((flags, seq, ack)) = self.tcp {
            write!(f, " [{flags}] seq={seq} ack={ack}")?;
        }
        Ok(())
    }
}

/// One recorded packet. It holds the ids of its sender and receiver, not
/// their names: a [`TraceView`] looks the names up when it prints the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketEntry {
    /// When the engine processed the packet.
    pub time: SimTime,
    /// The sender.
    pub from: Origin,
    /// The receiver (`None` when undeliverable).
    pub to: Option<Origin>,
    /// The packet's headers.
    pub packet: PacketSummary,
    /// What happened to the packet.
    pub verdict: TraceVerdict,
}

/// One recorded event: a packet or a span boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEntry {
    /// A packet the engine delivered or dropped.
    Packet(PacketEntry),
    /// A phase began (`name` is `layer.phase`, e.g. `"saddns.scan"`).
    SpanEnter {
        /// Simulated time of the boundary.
        time: SimTime,
        /// Static span name.
        name: &'static str,
        /// Free-form detail (empty when none).
        detail: String,
    },
    /// The phase of the same name ended.
    SpanExit {
        /// Simulated time of the boundary.
        time: SimTime,
        /// Static span name.
        name: &'static str,
    },
}

/// The event recorder: a ring of [`TraceEntry`]s, off by default.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    /// Maximum number of retained entries (0 = unbounded). When the bound is
    /// hit the oldest entry is discarded and counted in
    /// [`dropped`](Trace::dropped).
    pub capacity: usize,
    /// Whether recording is on. Off by default: only runs that read the
    /// trace turn it on.
    pub enabled: bool,
    /// Entries discarded at the capacity bound.
    dropped: u64,
}

impl Trace {
    /// Records one entry (if enabled).
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        if !self.enabled {
            return;
        }
        while self.capacity > 0 && self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Records a packet with its sender, receiver and verdict (if enabled).
    #[inline]
    pub(crate) fn record_packet(
        &mut self,
        time: SimTime,
        from: Origin,
        to: Option<Origin>,
        pkt: &Ipv4Packet,
        verdict: TraceVerdict,
    ) {
        if self.enabled {
            self.record(TraceEntry::Packet(PacketEntry { time, from, to, packet: pkt.summary(), verdict }));
        }
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> std::collections::vec_deque::Iter<'_, TraceEntry> {
        self.entries.iter()
    }

    /// The retained packet entries, oldest first.
    pub fn packets(&self) -> impl Iterator<Item = &PacketEntry> {
        self.entries.iter().filter_map(|e| match e {
            TraceEntry::Packet(p) => Some(p),
            _ => None,
        })
    }

    /// Entries discarded because the capacity bound was hit. A bounded trace
    /// that silently truncated would read as "the run produced this few
    /// packets"; the count makes the elision visible.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A [`Trace`] with its simulator's node and stub-block names, which label
/// its packet entries when they are printed. It is what
/// [`Simulator::trace`](crate::engine::Simulator::trace) returns, and it
/// derefs to the [`Trace`].
#[derive(Clone, Copy)]
pub struct TraceView<'a> {
    pub(crate) trace: &'a Trace,
    pub(crate) nodes: &'a [NodeSlot],
    pub(crate) blocks: &'a [StubBlock],
}

impl Deref for TraceView<'_> {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        self.trace
    }
}

impl<'a> TraceView<'a> {
    /// The name of a packet's sender or receiver: the node's name, the stub
    /// block's name followed by the client's index in the block, `router`,
    /// or `-` for the receiver of an undeliverable packet.
    pub(crate) fn label(&self, host: Option<Origin>) -> Cow<'a, str> {
        match host {
            Some(Origin::Node(id)) => Cow::Borrowed(&self.nodes[id.0].name),
            Some(Origin::Stub(id)) => {
                let block = self.blocks.iter().find(|b| b.holds(id)).expect("stub id out of range");
                Cow::Owned(format!("{}{}", block.name, id.0 - block.first))
            }
            Some(Origin::Router) => Cow::Borrowed("router"),
            None => Cow::Borrowed("-"),
        }
    }

    /// The trace line of a packet entry, with its hosts' names.
    pub fn line(&self, p: &'a PacketEntry) -> impl fmt::Display + 'a {
        let view = *self;
        fmt::from_fn(move |f| {
            let (from, to) = (view.label(Some(p.from)), view.label(p.to));
            write!(f, "{} {from:>16} -> {to:<16} [{}] {}", p.time, p.verdict, p.packet)
        })
    }

    /// Renders the packet entries as a multi-line string (one line per
    /// packet), the message-sequence view of an attack. When the capacity
    /// bound discarded older entries, a trailing line says how many are
    /// missing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in self.trace.packets() {
            let _ = writeln!(out, "{}", self.line(p));
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} older entries dropped at the {}-entry capacity)", self.dropped, self.capacity);
        }
        out
    }

    /// The post-mortem: a header line, then the last `n` retained entries
    /// (all of them when fewer), packets and spans interleaved in order.
    pub fn dump_last(&self, n: usize) -> String {
        let entries = &self.trace.entries;
        let keep = n.min(entries.len());
        let mut out = format!("trace: last {keep} of {} entries ({} older dropped)\n", entries.len(), self.dropped);
        for e in entries.iter().skip(entries.len() - keep) {
            let _ = match e {
                TraceEntry::Packet(p) => writeln!(out, "{}", self.line(p)),
                TraceEntry::SpanEnter { time, name, detail } if detail.is_empty() => writeln!(out, "{time} > {name}"),
                TraceEntry::SpanEnter { time, name, detail } => writeln!(out, "{time} > {name} {detail}"),
                TraceEntry::SpanExit { time, name } => writeln!(out, "{time} < {name}"),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NodeId, Simulator, SinkNode};
    use crate::udp::UdpDatagram;

    const A: Origin = Origin::Node(NodeId(0));
    const B: Option<Origin> = Some(Origin::Node(NodeId(1)));

    fn packet(i: u16) -> Ipv4Packet {
        UdpDatagram::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 1, 2, vec![]).into_packet(i, 64)
    }

    /// A simulator with nodes `a` and `b`, whose trace is on with `capacity`.
    fn two_nodes(capacity: usize) -> Simulator {
        let mut sim = Simulator::new(0);
        sim.add_node("a", vec!["10.0.0.1".parse().unwrap()], SinkNode::default());
        sim.add_node("b", vec!["10.0.0.2".parse().unwrap()], SinkNode::default());
        *sim.trace_mut() = Trace { enabled: true, capacity, ..Trace::default() };
        sim
    }

    #[test]
    fn ring_bounds_mixed_entries_and_renders_packets_only() {
        let mut off = Trace::default();
        off.record_packet(SimTime::ZERO, A, B, &packet(0), TraceVerdict::Delivered);
        assert_eq!(off.entries().len(), 0, "the trace is off by default");

        let mut sim = two_nodes(4);
        let t = sim.trace_mut();
        for i in 0..4u16 {
            let time = SimTime::from_nanos(u64::from(i));
            t.record(TraceEntry::SpanEnter { time, name: "phase", detail: format!("step {i}") });
            t.record_packet(time, A, B, &packet(i), TraceVerdict::Delivered);
            t.record(TraceEntry::SpanExit { time, name: "phase" });
        }
        let t = sim.trace();
        assert_eq!(t.entries().len(), 4);
        assert_eq!(t.dropped(), 8);

        // The ring keeps the tail in order: exit 2, then step 3's three entries.
        let ids: Vec<u16> = t.packets().map(|p| p.packet.identification).collect();
        assert_eq!(ids, vec![3]);
        let dump = t.dump_last(3);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines[0], "trace: last 3 of 4 entries (8 older dropped)");
        assert!(lines[1].ends_with("> phase step 3"), "{}", lines[1]);
        assert!(lines[2].contains("a -> b                [delivered] UDP 10.0.0.1 -> 10.0.0.2 len=28"), "{}", lines[2]);
        assert!(lines[3].ends_with("< phase"), "{}", lines[3]);
        assert_eq!(lines.len(), 4);

        // render() is the packet view: no span lines, and the dropped line.
        let rendered = t.render();
        assert_eq!(rendered.lines().count(), 2);
        assert!(!rendered.contains("phase"));
        assert!(rendered.ends_with("(8 older entries dropped at the 4-entry capacity)\n"));
    }

    #[test]
    fn unbounded_trace_never_drops() {
        let mut sim = two_nodes(0);
        for i in 0..100u16 {
            sim.trace_mut().record_packet(
                SimTime::from_nanos(u64::from(i)),
                A,
                None,
                &packet(i),
                TraceVerdict::NoRoute,
            );
        }
        assert_eq!(sim.trace().dropped(), 0);
        let rendered = sim.trace().render();
        assert_eq!(rendered.lines().count(), 100);
        assert!(rendered.lines().all(|l| l.contains(" a -> -                [no-route]")), "{rendered}");
        assert!(!rendered.contains("dropped"));
    }

    #[test]
    fn shrinking_the_capacity_trims_the_oldest_entries() {
        let mut sim = two_nodes(0);
        let t = sim.trace_mut();
        for i in 0..5u16 {
            t.record_packet(SimTime::ZERO, A, B, &packet(i), TraceVerdict::Delivered);
        }
        t.capacity = 2;
        t.record_packet(SimTime::ZERO, A, B, &packet(5), TraceVerdict::Delivered);
        let ids: Vec<u16> = sim.trace().packets().map(|p| p.packet.identification).collect();
        assert_eq!(ids, vec![4, 5]);
        assert_eq!(sim.trace().dropped(), 4);
    }

    #[test]
    fn dump_last_clamps_to_the_retained_entries() {
        let mut sim = two_nodes(0);
        let t = sim.trace_mut();
        t.record(TraceEntry::SpanEnter { time: SimTime::ZERO, name: "saddns.scan", detail: String::new() });
        t.record(TraceEntry::SpanExit { time: SimTime::ZERO, name: "saddns.scan" });
        assert_eq!(sim.trace().dump_last(0), "trace: last 0 of 2 entries (0 older dropped)\n");
        let all = sim.trace().dump_last(64);
        assert_eq!(all.lines().skip(1).collect::<Vec<_>>(), ["t+0.000000s > saddns.scan", "t+0.000000s < saddns.scan"]);
    }

    #[test]
    fn summary_formats_fragments_and_tcp() {
        let mut pkt = packet(0x1234);
        pkt.header.more_fragments = true;
        pkt.header.fragment_offset = 66;
        assert_eq!(pkt.summary().to_string(), "UDP 10.0.0.1 -> 10.0.0.2 len=28 frag(id=0x1234 off=528 mf=true)");
        let mut s = pkt.summary();
        s.protocol = Protocol::Tcp;
        s.more_fragments = false;
        s.fragment_offset = 0;
        s.tcp = Some((TcpFlags::from_byte(0x12), 7, 9));
        assert_eq!(s.to_string(), "TCP 10.0.0.1 -> 10.0.0.2 len=28 [SYN|ACK] seq=7 ack=9");
    }
}

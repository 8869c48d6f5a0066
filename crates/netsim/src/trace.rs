//! The simulator's event recorder.
//!
//! Figures 1 and 2 of the paper are message-sequence diagrams of the SadDNS
//! and FragDNS attacks. The [`Trace`] records, in simulated time, every
//! packet the engine delivers (or drops) and the phase spans an attack
//! marks with [`Simulator::span_enter`] / [`Simulator::span_exit`].
//! Entries are typed: a packet keeps its node labels, its verdict and a
//! `Copy` [`PacketSummary`] of its headers, formatted only when printed, so
//! tests filter on fields rather than on text.
//!
//! Two views read the same entries:
//! * [`Trace::render`] prints the packet lines only — the figures'
//!   message-sequence view the examples print and the golden fixture locks;
//! * [`Trace::dump_last`] interleaves the last N packets and spans — the
//!   post-mortem of a failed run.
//!
//! The trace is off by default (`enabled == false`), so campaigns pay one
//! branch per packet. Bounded (`capacity > 0`), it is a ring that discards
//! its oldest entry in O(1) and counts the discard in [`Trace::dropped`].
//!
//! [`Simulator::span_enter`]: crate::engine::Simulator::span_enter
//! [`Simulator::span_exit`]: crate::engine::Simulator::span_exit

use crate::ipv4::{Ipv4Packet, Protocol};
use crate::tcp::TcpFlags;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;

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

/// The header fields of one packet that a trace line shows (see
/// [`Ipv4Packet::summary`]).
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

/// One recorded packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketEntry {
    /// When the engine processed the packet.
    pub time: SimTime,
    /// Name of the sending node.
    pub from: String,
    /// Name of the receiving node ("-" when undeliverable).
    pub to: String,
    /// The packet's headers.
    pub packet: PacketSummary,
    /// What happened to the packet.
    pub verdict: TraceVerdict,
}

impl fmt::Display for PacketEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:>16} -> {:<16} [{}] {}", self.time, self.from, self.to, self.verdict, self.packet)
    }
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

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEntry::Packet(p) => p.fmt(f),
            TraceEntry::SpanEnter { time, name, detail } if detail.is_empty() => write!(f, "{time} > {name}"),
            TraceEntry::SpanEnter { time, name, detail } => write!(f, "{time} > {name} {detail}"),
            TraceEntry::SpanExit { time, name } => write!(f, "{time} < {name}"),
        }
    }
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

    /// Records a packet with its node labels and verdict (if enabled).
    pub(crate) fn record_packet(
        &mut self,
        time: SimTime,
        from: String,
        to: String,
        pkt: &Ipv4Packet,
        verdict: TraceVerdict,
    ) {
        self.record(TraceEntry::Packet(PacketEntry { time, from, to, packet: pkt.summary(), verdict }));
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

    /// Renders the packet entries as a multi-line string (one line per
    /// packet), the message-sequence view of an attack. When the capacity
    /// bound discarded older entries, a trailing line says how many are
    /// missing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in self.packets() {
            let _ = writeln!(out, "{p}");
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} older entries dropped at the {}-entry capacity)", self.dropped, self.capacity);
        }
        out
    }

    /// The post-mortem: a header line, then the last `n` retained entries
    /// (all of them when fewer), packets and spans interleaved in order.
    pub fn dump_last(&self, n: usize) -> String {
        let keep = n.min(self.entries.len());
        let mut out =
            format!("trace: last {keep} of {} entries ({} older dropped)\n", self.entries.len(), self.dropped);
        for e in self.entries.iter().skip(self.entries.len() - keep) {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::UdpDatagram;

    fn packet(i: u16) -> Ipv4Packet {
        UdpDatagram::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 1, 2, vec![]).into_packet(i, 64)
    }

    #[test]
    fn ring_bounds_mixed_entries_and_renders_packets_only() {
        let mut off = Trace::default();
        off.record_packet(SimTime::ZERO, "a".into(), "b".into(), &packet(0), TraceVerdict::Delivered);
        assert_eq!(off.entries().len(), 0, "the trace is off by default");

        let mut t = Trace { enabled: true, capacity: 4, ..Trace::default() };
        for i in 0..4u16 {
            let time = SimTime::from_nanos(u64::from(i));
            t.record(TraceEntry::SpanEnter { time, name: "phase", detail: format!("step {i}") });
            t.record_packet(time, "a".into(), "b".into(), &packet(i), TraceVerdict::Delivered);
            t.record(TraceEntry::SpanExit { time, name: "phase" });
        }
        assert_eq!(t.entries().len(), 4);
        assert_eq!(t.dropped(), 8);

        // The ring keeps the tail in order: exit 2, then step 3's three entries.
        let ids: Vec<u16> = t.packets().map(|p| p.packet.identification).collect();
        assert_eq!(ids, vec![3]);
        let dump = t.dump_last(3);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines[0], "trace: last 3 of 4 entries (8 older dropped)");
        assert!(lines[1].ends_with("> phase step 3"), "{}", lines[1]);
        assert!(lines[2].contains("[delivered] UDP 10.0.0.1 -> 10.0.0.2 len=28"), "{}", lines[2]);
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
        let mut t = Trace { enabled: true, ..Trace::default() };
        for i in 0..100u16 {
            t.record_packet(
                SimTime::from_nanos(u64::from(i)),
                "a".into(),
                "b".into(),
                &packet(i),
                TraceVerdict::NoRoute,
            );
        }
        assert_eq!(t.dropped(), 0);
        let rendered = t.render();
        assert_eq!(rendered.lines().count(), 100);
        assert!(rendered.lines().all(|l| l.contains("[no-route]")));
        assert!(!rendered.contains("dropped"));
    }

    #[test]
    fn shrinking_the_capacity_trims_the_oldest_entries() {
        let mut t = Trace { enabled: true, ..Trace::default() };
        for i in 0..5u16 {
            t.record_packet(SimTime::ZERO, "a".into(), "b".into(), &packet(i), TraceVerdict::Delivered);
        }
        t.capacity = 2;
        t.record_packet(SimTime::ZERO, "a".into(), "b".into(), &packet(5), TraceVerdict::Delivered);
        let ids: Vec<u16> = t.packets().map(|p| p.packet.identification).collect();
        assert_eq!(ids, vec![4, 5]);
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn dump_last_clamps_to_the_retained_entries() {
        let mut t = Trace { enabled: true, ..Trace::default() };
        t.record(TraceEntry::SpanEnter { time: SimTime::ZERO, name: "saddns.scan", detail: String::new() });
        t.record(TraceEntry::SpanExit { time: SimTime::ZERO, name: "saddns.scan" });
        assert_eq!(t.dump_last(0), "trace: last 0 of 2 entries (0 older dropped)\n");
        let all = t.dump_last(64);
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

//! Per-node traffic accounting.
//!
//! Table 6 of the paper compares the three poisoning methodologies by the
//! number of packets and bytes an attack requires ("Queries needed", "Total
//! traffic"). Every packet the simulator delivers or drops is counted here so
//! the comparative-analysis harness can report those columns directly from
//! the simulation rather than from hand calculations.

use crate::ipv4::Protocol;
use crate::transport::FlowStats;
use std::fmt::Write as _;

/// Counters kept per simulated node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Packets handed to the network by this node.
    pub packets_sent: u64,
    /// Bytes handed to the network by this node.
    pub bytes_sent: u64,
    /// Packets delivered to this node.
    pub packets_received: u64,
    /// Bytes delivered to this node.
    pub bytes_received: u64,
    /// UDP datagrams sent.
    pub udp_sent: u64,
    /// UDP datagrams received.
    pub udp_received: u64,
    /// TCP segments sent.
    pub tcp_sent: u64,
    /// TCP segments received.
    pub tcp_received: u64,
    /// ICMP messages sent.
    pub icmp_sent: u64,
    /// ICMP messages received.
    pub icmp_received: u64,
    /// Packets this node attempted to send with a spoofed source address
    /// that were dropped by egress filtering.
    pub spoofed_filtered: u64,
    /// Packets dropped in transit (link loss, no route, MTU with DF).
    pub dropped_in_transit: u64,
    /// Packets this node sent that reached their destination
    /// (`TraceVerdict::Delivered`).
    pub delivered: u64,
    /// Packets this node sent that were dropped because no node owns the
    /// destination address (`TraceVerdict::NoRoute`).
    pub no_route: u64,
    /// Packets this node sent that were dropped by link loss
    /// (`TraceVerdict::LinkLoss`).
    pub link_loss: u64,
    /// Packets this node sent that exceeded the link MTU with DF set
    /// (`TraceVerdict::MtuExceeded`).
    pub mtu_exceeded: u64,
}

impl TrafficStats {
    /// Records `n` sent packets of the same protocol and wire length, exactly
    /// as `n` calls with `n = 1` would.
    pub fn record_sent(&mut self, protocol: Protocol, wire_len: usize, n: u64) {
        self.packets_sent += n;
        self.bytes_sent += wire_len as u64 * n;
        match protocol {
            Protocol::Udp => self.udp_sent += n,
            Protocol::Tcp => self.tcp_sent += n,
            Protocol::Icmp => self.icmp_sent += n,
            _ => {}
        }
    }

    /// Records `n` received packets of the same protocol and wire length,
    /// exactly as `n` calls with `n = 1` would.
    pub(crate) fn record_received(&mut self, protocol: Protocol, wire_len: usize, n: u64) {
        self.packets_received += n;
        self.bytes_received += wire_len as u64 * n;
        match protocol {
            Protocol::Udp => self.udp_received += n,
            Protocol::Tcp => self.tcp_received += n,
            Protocol::Icmp => self.icmp_received += n,
            _ => {}
        }
    }

    /// Renders the counters as a one-node traffic summary, with one line per
    /// transport flow appended — the trace-level view of "which connections
    /// did this host actually run". Callers collect the flows from the
    /// node's sockets (e.g. `Resolver::tcp_flows`, a CA validator's
    /// HTTP-01 fetch socket); pass `&[]` for hosts without connections.
    ///
    /// ```
    /// use netsim::prelude::*;
    /// let mut stats = TrafficStats::default();
    /// stats.record_sent(netsim::ipv4::Protocol::Tcp, 60, 1);
    /// let flow = FlowStats {
    ///     protocol: netsim::ipv4::Protocol::Tcp,
    ///     local: Endpoint::new("30.0.0.1".parse().unwrap(), 49152),
    ///     peer: Endpoint::new("123.0.0.53".parse().unwrap(), 53),
    ///     state: "established",
    ///     bytes_sent: 31,
    ///     bytes_received: 158,
    /// };
    /// let text = stats.render("resolver", &[flow]);
    /// assert!(text.contains("TCP 30.0.0.1:49152 -> 123.0.0.53:53"));
    /// assert!(text.contains("established"));
    /// ```
    pub fn render(&self, name: &str, flows: &[FlowStats]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{name}: sent {} pkt / {} B (udp {}, tcp {}, icmp {}), received {} pkt / {} B (udp {}, tcp {}, icmp {})",
            self.packets_sent,
            self.bytes_sent,
            self.udp_sent,
            self.tcp_sent,
            self.icmp_sent,
            self.packets_received,
            self.bytes_received,
            self.udp_received,
            self.tcp_received,
            self.icmp_received,
        );
        if self.spoofed_filtered > 0 || self.dropped_in_transit > 0 {
            let _ = writeln!(
                out,
                "  dropped: {} spoofed (egress-filtered), {} in transit",
                self.spoofed_filtered, self.dropped_in_transit
            );
        }
        if self.delivered + self.no_route + self.link_loss + self.spoofed_filtered + self.mtu_exceeded > 0 {
            let _ = writeln!(
                out,
                "  verdicts: delivered {}, no-route {}, link-loss {}, egress-filtered {}, mtu-exceeded {}",
                self.delivered, self.no_route, self.link_loss, self.spoofed_filtered, self.mtu_exceeded
            );
        }
        for f in flows {
            let _ = writeln!(
                out,
                "  {} {} -> {} [{}] tx {} B / rx {} B",
                f.protocol, f.local, f.peer, f.state, f.bytes_sent, f.bytes_received
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_protocol() {
        let mut s = TrafficStats::default();
        s.record_sent(Protocol::Udp, 100, 1);
        s.record_sent(Protocol::Icmp, 60, 1);
        s.record_received(Protocol::Udp, 500, 1);
        assert_eq!(s.packets_sent, 2);
        assert_eq!(s.bytes_sent, 160);
        assert_eq!(s.udp_sent, 1);
        assert_eq!(s.icmp_sent, 1);
        assert_eq!(s.udp_received, 1);
        assert_eq!(s.packets_received, 1);
        assert_eq!(s.bytes_received, 500);
    }

    #[test]
    fn bulk_records_equal_single_records() {
        for protocol in [Protocol::Udp, Protocol::Tcp, Protocol::Icmp, Protocol::Other(89)] {
            for n in [0, 1, 7, 65_536] {
                let (mut bulk, mut single) = (TrafficStats::default(), TrafficStats::default());
                for s in [&mut bulk, &mut single] {
                    s.record_sent(Protocol::Udp, 40, 1);
                    s.record_received(Protocol::Udp, 40, 1);
                }
                bulk.record_sent(protocol, 71, n);
                bulk.record_received(protocol, 93, n);
                for _ in 0..n {
                    single.record_sent(protocol, 71, 1);
                    single.record_received(protocol, 93, 1);
                }
                assert_eq!(bulk, single, "{n} x {protocol:?}");
            }
        }
    }

    #[test]
    fn tcp_counted_in_its_own_column() {
        let mut s = TrafficStats::default();
        s.record_sent(Protocol::Tcp, 40, 1);
        s.record_received(Protocol::Tcp, 52, 1);
        assert_eq!(s.packets_sent, 1);
        assert_eq!(s.tcp_sent, 1);
        assert_eq!(s.tcp_received, 1);
        assert_eq!(s.udp_sent, 0);
        assert_eq!(s.icmp_sent, 0);
    }

    #[test]
    fn render_includes_totals_and_per_flow_lines() {
        use crate::transport::Endpoint;
        let mut s = TrafficStats::default();
        s.record_sent(Protocol::Tcp, 60, 1);
        s.record_received(Protocol::Tcp, 52, 1);
        s.spoofed_filtered = 2;
        let flows = vec![
            FlowStats {
                protocol: Protocol::Tcp,
                local: Endpoint::new("30.0.0.1".parse().unwrap(), 49152),
                peer: Endpoint::new("123.0.0.53".parse().unwrap(), 53),
                state: "established",
                bytes_sent: 31,
                bytes_received: 158,
            },
            FlowStats {
                protocol: Protocol::Tcp,
                local: Endpoint::new("30.0.0.1".parse().unwrap(), 46080),
                peer: Endpoint::new("30.0.0.80".parse().unwrap(), 80),
                state: "time-wait",
                bytes_sent: 64,
                bytes_received: 120,
            },
        ];
        let text = s.render("ca", &flows);
        assert!(text.starts_with("ca: sent 1 pkt / 60 B"));
        assert!(text.contains("2 spoofed (egress-filtered)"));
        assert!(text.contains("verdicts: delivered 0, no-route 0, link-loss 0, egress-filtered 2, mtu-exceeded 0"));
        assert!(text.contains("TCP 30.0.0.1:49152 -> 123.0.0.53:53 [established] tx 31 B / rx 158 B"));
        assert!(text.contains("TCP 30.0.0.1:46080 -> 30.0.0.80:80 [time-wait] tx 64 B / rx 120 B"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn render_without_flows_or_drops_is_one_line() {
        let mut s = TrafficStats::default();
        s.record_sent(Protocol::Udp, 90, 1);
        let text = s.render("client", &[]);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("udp 1"));
    }

    #[test]
    fn render_breaks_down_verdicts() {
        let mut s = TrafficStats::default();
        s.record_sent(Protocol::Udp, 90, 1);
        s.delivered = 4;
        s.link_loss = 2;
        s.mtu_exceeded = 1;
        let text = s.render("attacker", &[]);
        assert!(text.contains("verdicts: delivered 4, no-route 0, link-loss 2, egress-filtered 0, mtu-exceeded 1"));
        assert_eq!(text.lines().count(), 2, "no drop line when spoofed/in-transit counters are zero");
    }

    #[test]
    fn other_protocols_counted_only_in_totals() {
        let mut s = TrafficStats::default();
        s.record_sent(Protocol::Other(89), 40, 1);
        assert_eq!(s.packets_sent, 1);
        assert_eq!(s.udp_sent, 0);
        assert_eq!(s.tcp_sent, 0);
        assert_eq!(s.icmp_sent, 0);
    }
}

//! Point-to-point link properties.
//!
//! Links carry latency (which creates the race window between the attacker's
//! spoofed responses and the genuine nameserver response), an MTU (which
//! routers enforce, generating ICMP fragmentation-needed errors or
//! fragmenting in transit) and an optional loss probability for
//! fault-injection experiments.

use crate::ipv4::DEFAULT_MTU;
use crate::time::Duration;

/// Properties of a directed or undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Maximum transmission unit enforced on this link.
    pub mtu: u16,
    /// Probability in `[0, 1]` that a packet is silently dropped.
    pub loss: f64,
    /// Whether a router on this link fragments oversized packets without the
    /// DF bit (true), or drops them (false). Packets with DF set always
    /// trigger an ICMP fragmentation-needed error instead.
    pub fragment_in_transit: bool,
}

impl Link {
    /// A loss-free Ethernet-MTU link with the given latency.
    pub fn with_latency(latency: Duration) -> Self {
        Link { latency, ..Default::default() }
    }

    /// Sets the MTU.
    pub fn mtu(mut self, mtu: u16) -> Self {
        self.mtu = mtu;
        self
    }

    /// Sets the loss probability.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Sets whether oversized DF-less packets are fragmented in transit.
    pub fn fragmenting(mut self, fragment: bool) -> Self {
        self.fragment_in_transit = fragment;
        self
    }
}

impl Default for Link {
    fn default() -> Self {
        Link { latency: Duration::from_millis(10), mtu: DEFAULT_MTU, loss: 0.0, fragment_in_transit: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let l = Link::with_latency(Duration::from_millis(25)).mtu(576).loss(0.1).fragmenting(false);
        assert_eq!(l.latency, Duration::from_millis(25));
        assert_eq!(l.mtu, 576);
        assert!((l.loss - 0.1).abs() < 1e-9);
        assert!(!l.fragment_in_transit);
    }

    #[test]
    fn loss_is_clamped() {
        assert_eq!(Link::default().loss(7.0).loss, 1.0);
        assert_eq!(Link::default().loss(-1.0).loss, 0.0);
    }

    #[test]
    fn default_is_ethernet_like() {
        let l = Link::default();
        assert_eq!(l.mtu, DEFAULT_MTU);
        assert_eq!(l.loss, 0.0);
        assert!(l.fragment_in_transit);
    }
}

//! The workspace's registry of fixed, well-known ports.
//!
//! Several hosts bind deliberately *fixed* ports: servers because the
//! protocol says so (DNS 53, HTTP 80), clients because drawing the port from
//! the simulation RNG would perturb the byte-identical-replay guarantee for
//! no modelling gain (a TCP client's off-path protection is its 32-bit
//! sequence number, not port secrecy). Before this module each node
//! re-declared its own literals — the stub client's `5353`, the resolver's
//! upstream TCP port, and the CA's vantage resolvers would have grown a
//! third copy. Declaring them once keeps "who owns which fixed port" a
//! single-screen fact and makes collisions (two nodes binding the same fixed
//! port on one host) reviewable.

/// DNS server port (UDP and TCP), RFC 1035.
pub const DNS: u16 = 53;

/// HTTP server port — the ACME HTTP-01 challenge is *required* to be served
/// on port 80 of the validated domain (RFC 8555 §8.3).
pub const HTTP: u16 = 80;

/// Fixed query port of the stub client ([`crate::client::StubClient`]) and
/// of internal-client query triggers. Mirrors mDNS-style stub behaviour and
/// keeps client-side traffic trivially recognisable in traces.
pub const STUB_CLIENT: u16 = 5353;

/// The local port of a resolver's upstream TCP connections (one socket,
/// connections multiplexed per nameserver — RFC 7766 connection reuse).
/// Fixed rather than drawn from the RNG: TCP's off-path protection is the
/// 32-bit sequence number, not port secrecy, and a constant keeps the UDP
/// paths' RNG draw order byte-identical to the pre-TCP engine. Shared by the
/// victim resolver and every CA vantage resolver.
pub(crate) const RESOLVER_TCP: u16 = 49152;

/// Fixed DNS query port of a CA validation host (the CA asks its resolver
/// from here; one port per vantage keeps validator traffic separable).
pub const CA_VALIDATOR_DNS: u16 = 46000;

/// Fixed local port of a CA validation host's outgoing HTTP-01 fetch.
pub const CA_VALIDATOR_HTTP: u16 = 46080;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ports_are_distinct() {
        let all = [DNS, HTTP, STUB_CLIENT, RESOLVER_TCP, CA_VALIDATOR_DNS, CA_VALIDATOR_HTTP];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "well-known ports must not collide");
            }
        }
    }
}

//! Vulnerability scanners.
//!
//! Two layers, mirroring how the paper works:
//!
//! * **classification** — deciding from a resolver's / domain's measured
//!   properties whether each poisoning methodology applies (this is what the
//!   percentages in Tables 3 and 4 count);
//! * **probing** — the active measurements that establish those properties in
//!   the first place (Section 5.1.2 / 5.2.2). The probes live in this
//!   module's tests, where they check the classification against real
//!   packet-level mini-simulations: the ICMP global-rate-limit test, the
//!   fragmented-response acceptance test (the paper's custom nameserver with
//!   padded CNAME responses), the nameserver RRL burst test and the PMTUD
//!   fragmentation test. The campaigns draw profiles and classify them; no
//!   campaign runs a probe.

use crate::population::{DomainProfile, ResolverProfile};
use bgp::prelude::subprefix_hijackable;
use netsim::prefix::Prefix;
use std::net::Ipv4Addr;

/// Classification: is this resolver vulnerable to BGP sub-prefix hijacking of
/// its traffic (announcement shorter than /24)?
pub(crate) fn resolver_hijackable(profile: &ResolverProfile) -> bool {
    profile.announced_prefix_len < 24
}

/// Classification: is this resolver vulnerable to the SadDNS side channel?
pub(crate) fn resolver_saddns_vulnerable(profile: &ResolverProfile) -> bool {
    profile.alive && profile.global_icmp_limit
}

/// Classification: does this resolver accept fragmented responses (FragDNS)?
pub(crate) fn resolver_frag_vulnerable(profile: &ResolverProfile) -> bool {
    profile.alive && profile.accepts_fragments
}

/// Classification: is an announced prefix of this length sub-prefix
/// hijackable? The scalar predicate behind [`domain_hijackable`], also used
/// directly by the columnar classify scans.
pub(crate) fn prefix_hijackable(len: u8) -> bool {
    subprefix_hijackable(Prefix::new(Ipv4Addr::new(123, 0, 0, 0), len))
}

/// Classification: is the domain sub-prefix hijackable?
pub(crate) fn domain_hijackable(profile: &DomainProfile) -> bool {
    prefix_hijackable(profile.announced_prefix_len)
}

/// Classification: is the domain's nameserver mutable for SadDNS?
pub(crate) fn domain_saddns_vulnerable(profile: &DomainProfile) -> bool {
    profile.ns_rate_limits
}

/// Classification: can FragDNS be mounted against the domain with *any* query
/// type (typically `ANY` through an open resolver)?
pub(crate) fn domain_frag_any_vulnerable(profile: &DomainProfile) -> bool {
    profile.fragments_any
}

/// Classification: deterministic FragDNS — fragmentation plus a predictable
/// global IP-ID counter.
pub(crate) fn domain_frag_global_vulnerable(profile: &DomainProfile) -> bool {
    profile.fragments_any && profile.global_ipid
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacks::prelude::{VictimEnvConfig, CLOSED_PORT_PROBE_BASE, ICMP_PROBE_BATCH};
    use dns::prelude::*;
    use dns::profiles::ResolverImplementation;
    use netsim::prelude::*;

    fn resolver(global_icmp: bool, frags: bool, prefix_len: u8) -> ResolverProfile {
        ResolverProfile {
            announced_prefix_len: prefix_len,
            global_icmp_limit: global_icmp,
            accepts_fragments: frags,
            edns_size: 4096,
            validates_dnssec: false,
            alive: true,
            implementation: ResolverImplementation::Bind9_14,
        }
    }

    fn domain(rrl: bool, frag: bool, global_ipid: bool, prefix_len: u8) -> DomainProfile {
        DomainProfile {
            announced_prefix_len: prefix_len,
            ns_rate_limits: rrl,
            fragments_any: frag,
            fragments_a_or_mx: false,
            global_ipid,
            min_fragment_size: 548,
            dnssec_signed: false,
        }
    }

    /// Active probe: does this resolver expose the global ICMP rate-limit side
    /// channel? Builds a one-resolver simulation with the profile's limit policy
    /// and runs the 50-probe + verification experiment.
    fn probe_icmp_global_limit(profile: &ResolverProfile, seed: u64) -> bool {
        let resolver_addr: Ipv4Addr = "30.0.0.1".parse().expect("addr");
        let prober_addr: Ipv4Addr = "6.6.6.7".parse().expect("addr");
        let spoofed_src: Ipv4Addr = "123.0.0.53".parse().expect("addr");
        let policy = if profile.global_icmp_limit {
            IcmpRateLimitPolicy::linux_default()
        } else {
            IcmpRateLimitPolicy::PerDestination { capacity: 50, per_second: 50.0 }
        };
        let mut cfg = ResolverConfig::new(resolver_addr);
        cfg.icmp_rate_limit = policy;
        let mut sim = Simulator::new(seed);
        let resolver = sim.add_node("resolver", vec![resolver_addr], Resolver::new(cfg));
        let prober = sim.add_node("prober", vec![prober_addr], SinkNode::default());
        sim.connect(resolver, prober, Link::with_latency(Duration::from_millis(2)));
        // One ICMP budget's worth of spoofed probes to closed ports, then a
        // verification probe from the prober's own address; with a global limit
        // the verification probe gets no ICMP error back.
        for port in CLOSED_PORT_PROBE_BASE..CLOSED_PORT_PROBE_BASE + ICMP_PROBE_BATCH {
            sim.inject(
                prober,
                UdpDatagram::new(spoofed_src, resolver_addr, 53, port, vec![0u8; 8]).into_packet(port, 64),
            );
        }
        sim.inject(prober, UdpDatagram::new(prober_addr, resolver_addr, 4444, 7, vec![0u8; 8]).into_packet(1, 64));
        sim.run();
        let verification_answered = sim.stats(prober).icmp_received > 0;
        !verification_answered
    }

    /// Active probe: does the resolver accept a fragmented response? This is the
    /// paper's methodology: a padded response is forced to fragment and the probe
    /// checks whether the answer was ingested (the paper uses a CNAME re-query;
    /// here we inspect the cache, which is observationally equivalent).
    fn probe_fragment_acceptance(profile: &ResolverProfile, seed: u64) -> bool {
        let mut env_cfg = VictimEnvConfig { seed, ..Default::default() };
        env_cfg.resolver.accept_fragments = profile.accepts_fragments;
        env_cfg.resolver.edns_size = profile.edns_size.max(1500);
        env_cfg.nameserver.pad_responses_to = Some(1400);
        let (mut sim, env) = env_cfg.build();
        // Lower the nameserver's path MTU so its padded responses fragment.
        let quoted = UdpDatagram::new(env.nameserver_addr, env.resolver_addr, 53, 1, vec![0u8; 64]).into_packet(1, 64);
        let ptb =
            IcmpMessage::fragmentation_needed(&quoted, 548).into_packet(env.resolver_addr, env.nameserver_addr, 1, 64);
        sim.inject(env.attacker, ptb);
        sim.run_for(Duration::from_millis(50));
        env.trigger_query(
            &mut sim,
            attacks::env::QueryTrigger::OpenResolver,
            &"www.vict.im".parse().expect("name"),
            RecordType::A,
            77,
        );
        sim.run();
        let poisoned = env.resolver(&sim).cache().cached_a(&"www.vict.im".parse().expect("name"), sim.now()).is_some();
        poisoned
    }

    /// Active probe: does the domain's nameserver rate-limit (can it be muted)?
    /// Sends a burst of queries and checks whether responses stop (Section 5.2.2:
    /// 4000 queries in one second, vulnerable if responses are reduced).
    fn probe_nameserver_rrl(profile: &DomainProfile, seed: u64) -> bool {
        let ns_addr: Ipv4Addr = "123.0.0.53".parse().expect("addr");
        let prober_addr: Ipv4Addr = "6.6.6.7".parse().expect("addr");
        let mut zone = Zone::new("vict.im".parse().expect("name"));
        zone.add_a("vict.im", "30.0.0.80".parse().expect("addr"));
        let mut cfg = NameserverConfig::new(ns_addr);
        if profile.ns_rate_limits {
            cfg = cfg.with_rrl(100);
        }
        let mut sim = Simulator::new(seed);
        let ns = sim.add_node("ns", vec![ns_addr], Nameserver::new(cfg, vec![zone]));
        let prober = sim.add_node("prober", vec![prober_addr], SinkNode::default());
        sim.connect(ns, prober, Link::with_latency(Duration::from_millis(1)));
        let burst = 4000u32;
        for i in 0..burst {
            let q = Message::query(i as u16, "vict.im".parse().expect("name"), RecordType::A);
            sim.inject(prober, UdpDatagram::new(prober_addr, ns_addr, 5353, 53, q.encode()).into_packet(i as u16, 64));
        }
        sim.run();
        let answered = sim.stats(prober).udp_received;
        // Vulnerable (mutable) if the response count is substantially reduced.
        answered < u64::from(burst) / 2
    }

    /// Active probe: after a spoofed PTB, does a large query to the domain's
    /// nameserver come back fragmented, and down to which size?
    fn probe_nameserver_fragmentation(profile: &DomainProfile, seed: u64) -> Option<u16> {
        if !profile.fragments_any {
            return None;
        }
        let mut env_cfg = VictimEnvConfig { seed, ..Default::default() };
        env_cfg.nameserver.min_accepted_mtu = profile.min_fragment_size;
        let (mut sim, env) = env_cfg.build();
        let quoted = UdpDatagram::new(env.nameserver_addr, env.resolver_addr, 53, 1, vec![0u8; 64]).into_packet(1, 64);
        let ptb = IcmpMessage::fragmentation_needed(&quoted, profile.min_fragment_size).into_packet(
            env.resolver_addr,
            env.nameserver_addr,
            1,
            64,
        );
        sim.inject(env.attacker, ptb);
        sim.run_for(Duration::from_millis(50));
        env.trigger_query(
            &mut sim,
            attacks::env::QueryTrigger::OpenResolver,
            &"vict.im".parse().expect("name"),
            RecordType::ANY,
            99,
        );
        sim.run();
        let stats = &env.nameserver(&sim).stats;
        if stats.responses_fragmented > 0 {
            Some(env.nameserver(&sim).path_mtu_to(env.resolver_addr, sim.now()))
        } else {
            None
        }
    }

    #[test]
    fn classification_rules() {
        assert!(resolver_hijackable(&resolver(false, false, 22)));
        assert!(!resolver_hijackable(&resolver(false, false, 24)));
        assert!(resolver_saddns_vulnerable(&resolver(true, false, 24)));
        assert!(!resolver_saddns_vulnerable(&resolver(false, false, 24)));
        assert!(resolver_frag_vulnerable(&resolver(false, true, 24)));
        assert!(domain_hijackable(&domain(false, false, false, 22)));
        assert!(!domain_hijackable(&domain(false, false, false, 24)));
        assert!(domain_saddns_vulnerable(&domain(true, false, false, 24)));
        assert!(domain_frag_any_vulnerable(&domain(false, true, false, 24)));
        assert!(domain_frag_global_vulnerable(&domain(false, true, true, 24)));
        assert!(!domain_frag_global_vulnerable(&domain(false, true, false, 24)));
    }

    #[test]
    fn icmp_probe_detects_global_limit() {
        assert!(probe_icmp_global_limit(&resolver(true, false, 22), 1));
        assert!(!probe_icmp_global_limit(&resolver(false, false, 22), 1));
    }

    #[test]
    fn fragment_probe_matches_configuration() {
        assert!(probe_fragment_acceptance(&resolver(false, true, 22), 2));
        assert!(!probe_fragment_acceptance(&resolver(false, false, 22), 2));
    }

    #[test]
    fn rrl_probe_detects_mutable_nameservers() {
        assert!(probe_nameserver_rrl(&domain(true, false, false, 22), 3));
        assert!(!probe_nameserver_rrl(&domain(false, false, false, 22), 3));
    }

    #[test]
    fn fragmentation_probe_reports_min_size() {
        let d = domain(false, true, true, 22);
        assert_eq!(probe_nameserver_fragmentation(&d, 4), Some(548));
        let not_fragmenting = domain(false, false, false, 22);
        assert_eq!(probe_nameserver_fragmentation(&not_fragmenting, 4), None);
    }
}

//! The standard victim environment the attack drivers operate on.
//!
//! Mirrors the paper's experimental setup (Section 3, "Setup"): a victim AS
//! with a /22 prefix hosting the recursive resolver and a client service, a
//! target domain (`vict.im`) served by a nameserver in another AS, and an
//! attacker host in a third AS that does not filter spoofed packets. The
//! builder exposes the configuration knobs the measurement campaigns vary
//! (resolver defences, nameserver properties), so the same environment type
//! is reused by the attack drivers, the `apps` crate, the `xlayer-core`
//! scenarios, the examples and the benchmarks.

use dns::prelude::*;
use netsim::prelude::*;
use std::net::Ipv4Addr;

use crate::attacker::AttackerNode;

/// Node handles and addresses of a constructed victim environment.
#[derive(Debug, Clone)]
pub struct VictimEnv {
    /// The victim recursive resolver.
    pub resolver: NodeId,
    /// Address of the resolver.
    pub resolver_addr: Ipv4Addr,
    /// The authoritative nameserver of the target domain.
    pub nameserver: NodeId,
    /// Address of the nameserver.
    pub nameserver_addr: Ipv4Addr,
    /// The BGP announcement covering the nameserver's address.
    pub nameserver_prefix: Prefix,
    /// The BGP announcement covering the resolver's address.
    pub resolver_prefix: Prefix,
    /// The attacker host.
    pub attacker: NodeId,
    /// Address of the attacker.
    pub attacker_addr: Ipv4Addr,
    /// A benign client inside the victim network (used to trigger queries).
    pub client: NodeId,
    /// Address of the client.
    pub client_addr: Ipv4Addr,
    /// The domain under attack.
    pub target_name: DomainName,
    /// EDNS buffer size the resolver advertises (relevant to FragDNS).
    pub resolver_edns_size: u16,
    /// Whether route-origin validation filters hijacked announcements on the
    /// relevant paths (copied from [`VictimEnvConfig::rov_enforced`]).
    pub rov_enforced: bool,
    /// Multi-vantage-point validation quorum for any certificate authority
    /// hosted in this environment (copied from
    /// [`VictimEnvConfig::vantage_quorum`]).
    pub vantage_quorum: Option<u8>,
}

/// How the target zone deploys DNSSEC — the knob the DNSSEC-flavoured
/// defences and attack rows vary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneSecurity {
    /// Plain unsigned zone (the baseline).
    Unsigned,
    /// Zone signed through the [`dns::dnssec`] pipeline with this profile.
    Signed(SignedZoneProfile),
}

/// The deployment shape of a signed zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedZoneProfile {
    /// Denial-of-existence flavour (NSEC, or NSEC3 with/without opt-out).
    pub denial: dns::dnssec::DenialConfig,
    /// Whether the DS record made it into the parent: when true the
    /// resolver holds the zone's trust anchor; when false the zone is
    /// signed but unanchored, so validation degrades to `Insecure` — the
    /// downgrade-to-insecure attack surface.
    pub publish_ds: bool,
    /// RFC 6781 rollover strictness: when true, retired ZSKs leave the
    /// DNSKEY RRset immediately, closing the rollover-forgery window.
    pub strict_rollover: bool,
}

impl ZoneSecurity {
    /// The classic `Dnssec` defence: NSEC denial, DS published, lenient
    /// rollover.
    pub fn signed_nsec() -> Self {
        ZoneSecurity::Signed(SignedZoneProfile {
            denial: dns::dnssec::DenialConfig::Nsec,
            publish_ds: true,
            strict_rollover: false,
        })
    }

    /// Signed but with no DS in the parent: validators have no chain of
    /// trust and accept the zone as `Insecure`.
    pub fn signed_no_ds() -> Self {
        ZoneSecurity::Signed(SignedZoneProfile {
            denial: dns::dnssec::DenialConfig::Nsec,
            publish_ds: false,
            strict_rollover: false,
        })
    }

    /// NSEC3 with opt-out spans and a published DS: zone walking is
    /// blunted, but opt-out spans admit unsigned data as `Insecure`.
    pub fn signed_nsec3_opt_out() -> Self {
        ZoneSecurity::Signed(SignedZoneProfile {
            denial: dns::dnssec::DenialConfig::Nsec3(dns::dnssec::Nsec3Params::standard(true)),
            publish_ds: true,
            strict_rollover: false,
        })
    }

    /// The hardened profile: NSEC3 without opt-out, DS published, strict
    /// rollover.
    pub fn signed_strict() -> Self {
        ZoneSecurity::Signed(SignedZoneProfile {
            denial: dns::dnssec::DenialConfig::Nsec3(dns::dnssec::Nsec3Params::standard(false)),
            publish_ds: true,
            strict_rollover: true,
        })
    }

    /// Whether the zone is signed at all.
    pub fn is_signed(&self) -> bool {
        matches!(self, ZoneSecurity::Signed(_))
    }
}

/// Salt mixed into the environment seed to derive the zone's key material,
/// so signing keys are deterministic per environment but uncorrelated with
/// the simulator's packet-level randomness.
const ZONE_KEY_SALT: u64 = 0xd5ec_0bad_c0de_5a17;

/// Tunable properties of the standard environment.
#[derive(Debug, Clone)]
pub struct VictimEnvConfig {
    /// RNG seed for the simulator.
    pub seed: u64,
    /// Resolver configuration overrides.
    pub resolver: ResolverConfig,
    /// Nameserver configuration overrides.
    pub nameserver: NameserverConfig,
    /// Latency between resolver and nameserver (the race window).
    pub resolver_ns_latency: Duration,
    /// Latency between attacker and resolver.
    pub attacker_latency: Duration,
    /// DNSSEC deployment of the target zone.
    pub zone_security: ZoneSecurity,
    /// Whether route-origin validation is enforced on the paths that matter:
    /// hijacked announcements are filtered in the control plane, so
    /// interception-based vectors fail their precondition. Set by the
    /// `RouteOriginValidation` defence.
    pub rov_enforced: bool,
    /// Multi-vantage-point domain-validation quorum of any certificate
    /// authority hosted in this environment (the Let's Encrypt-style
    /// countermeasure): `Some(q)` means the CA corroborates every challenge
    /// from vantage resolvers at distinct ASes and requires at least `q` of
    /// them to agree with its primary validation before issuing. `None`
    /// (default) validates from the primary resolver alone. Set by the
    /// `MultiVantageValidation` defence; the resolver itself is unaffected —
    /// the `ca` crate consumes this when it builds the issuance pipeline.
    pub vantage_quorum: Option<u8>,
}

/// Well-known addresses of the standard environment (mirroring Figure 1/2).
pub mod addrs {
    use std::net::Ipv4Addr;
    /// The victim resolver (`30.0.0.1` in the paper's figures).
    pub const RESOLVER: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
    /// The victim-side client/service (`30.0.0.25`).
    pub(crate) const CLIENT: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 25);
    /// The genuine service address records point at.
    pub const SERVICE: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 80);
    /// The target domain's nameserver (`123.0.0.53`).
    pub const NAMESERVER: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);
    /// The attacker (`6.6.6.6`).
    pub const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
}

impl Default for VictimEnvConfig {
    fn default() -> Self {
        VictimEnvConfig {
            seed: 7,
            resolver: ResolverConfig::new(addrs::RESOLVER).with_delegation("vict.im", vec![addrs::NAMESERVER], false),
            nameserver: NameserverConfig::new(addrs::NAMESERVER),
            resolver_ns_latency: Duration::from_millis(20),
            attacker_latency: Duration::from_millis(5),
            zone_security: ZoneSecurity::Unsigned,
            rov_enforced: false,
            vantage_quorum: None,
        }
    }
}

/// Builds the standard unsigned victim zone for `vict.im` — the
/// seed-independent half of [`VictimEnvConfig::victim_zone`], shared with
/// [`EnvTemplate`] so grid campaigns construct the record set once per cell
/// instead of once per seed.
fn unsigned_victim_zone() -> Zone {
    let mut zone = Zone::new("vict.im".parse().expect("valid name"));
    zone.add_ns("ns1.vict.im", addrs::NAMESERVER);
    zone.add_a("vict.im", addrs::SERVICE);
    zone.add_a("www.vict.im", addrs::SERVICE);
    zone.add_a("login.vict.im", addrs::SERVICE);
    zone.add_mx(10, "mail.vict.im", Ipv4Addr::new(30, 0, 0, 26));
    zone.add_txt("vict.im", "v=spf1 ip4:30.0.0.0/22 include:_spf.mailhoster.example include:_spf.crm.example -all");
    // Realistic apex TXT clutter (site verifications, key material): this
    // is what pushes ANY responses past common fragmentation thresholds.
    zone.add_txt(
        "vict.im",
        "google-site-verification=0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
    );
    zone.add_txt("vict.im", "ms-domain-verification=fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
    zone.add_txt(
        "vict.im",
        "apple-domain-verification=A1B2C3D4E5F60718293A4B5C6D7E8F90A1B2C3D4E5F60718293A4B5C6D7E8F90",
    );
    zone.add_txt("_dmarc.vict.im", "v=DMARC1; p=reject");
    zone.add_txt(
        "sel._domainkey.vict.im",
        "v=DKIM1; k=rsa; p=MIIBIjANBgkqhkiG9w0BAQEFAAOCAQ8AMIIBCgKCAQEA0123456789abcdef0123456789abcdef",
    );
    zone.add_srv("_xmpp-server._tcp.vict.im", 5269, "xmpp.vict.im", Ipv4Addr::new(30, 0, 0, 27));
    zone.add_naptr("aaa+auth:radius.tls.tcp", "_radiustls._tcp.vict.im");
    zone.add_ipseckey("vpn.vict.im", Ipv4Addr::new(30, 0, 0, 99));
    zone.add_a("ntp.vict.im", Ipv4Addr::new(30, 0, 0, 123));
    zone.add_a("rpki.vict.im", Ipv4Addr::new(30, 0, 0, 124));
    zone
}

impl VictimEnvConfig {
    /// Builds the standard victim zone for `vict.im`, rich enough that `ANY`
    /// responses exceed common fragmentation thresholds.
    pub fn victim_zone(&self) -> Zone {
        self.finish_zone(unsigned_victim_zone())
    }

    /// Applies this configuration's DNSSEC deployment to an unsigned zone:
    /// the seed-dependent half of zone construction (signing keys derive
    /// from the environment seed).
    fn finish_zone(&self, zone: Zone) -> Zone {
        match &self.zone_security {
            ZoneSecurity::Unsigned => zone,
            ZoneSecurity::Signed(profile) => {
                let policy = SigningPolicy {
                    denial: profile.denial.clone(),
                    retire_immediately: profile.strict_rollover,
                    ..SigningPolicy::default()
                };
                zone.sign(self.zone_keys(), policy, SimTime::ZERO)
            }
        }
    }

    /// The deterministic key inventory of the target zone, a pure function
    /// of the environment seed.
    pub fn zone_keys(&self) -> KeyManager {
        KeyManager::new(self.seed ^ ZONE_KEY_SALT)
    }

    /// Constructs the simulator and environment.
    pub fn build(self) -> (Simulator, VictimEnv) {
        let zone = self.victim_zone();
        self.build_with_zone(zone)
    }

    /// Constructs the simulator and environment around an already-finished
    /// zone — the seed-dependent tail of [`build`](Self::build), shared with
    /// [`EnvTemplate::build_at`].
    fn build_with_zone(self, zone: Zone) -> (Simulator, VictimEnv) {
        let mut sim = Simulator::new(self.seed);
        let resolver_edns_size = self.resolver.edns_size;
        // An anchored signed zone hands its DS record to the resolver, like
        // a DS in the parent zone would.
        let mut resolver_cfg = self.resolver.clone();
        if let ZoneSecurity::Signed(profile) = &self.zone_security {
            if profile.publish_ds {
                if let Some(anchor) = zone.trust_anchor() {
                    resolver_cfg = resolver_cfg.with_trust_anchor("vict.im", anchor);
                }
            }
        }
        let resolver = sim.add_node("resolver", vec![addrs::RESOLVER], Resolver::new(resolver_cfg));
        let nameserver =
            sim.add_node("ns", vec![addrs::NAMESERVER], Nameserver::new(self.nameserver.clone(), vec![zone]));
        let attacker = sim.add_node("attacker", vec![addrs::ATTACKER], AttackerNode::new(addrs::ATTACKER));
        let client = sim.add_node("client", vec![addrs::CLIENT, addrs::SERVICE], SinkNode::default());

        sim.connect(resolver, nameserver, Link::with_latency(self.resolver_ns_latency));
        sim.connect(attacker, resolver, Link::with_latency(self.attacker_latency));
        sim.connect(attacker, nameserver, Link::with_latency(self.attacker_latency));
        sim.connect(client, resolver, Link::with_latency(Duration::from_millis(1)));

        let env = VictimEnv {
            resolver,
            resolver_addr: addrs::RESOLVER,
            nameserver,
            nameserver_addr: addrs::NAMESERVER,
            nameserver_prefix: "123.0.0.0/22".parse().expect("valid prefix"),
            resolver_prefix: "30.0.0.0/22".parse().expect("valid prefix"),
            attacker,
            attacker_addr: addrs::ATTACKER,
            client,
            client_addr: addrs::CLIENT,
            target_name: "vict.im".parse().expect("valid name"),
            resolver_edns_size,
            rov_enforced: self.rov_enforced,
            vantage_quorum: self.vantage_quorum,
        };
        (sim, env)
    }
}

/// A reusable snapshot of a fully-prepared environment configuration.
///
/// Grid campaigns evaluate many independently-seeded runs of the *same*
/// (vector × defence) cell. Everything about the cell except the seed —
/// the vector's `prepare_env` adjustments, the applied defences, and the
/// unsigned victim zone's record set — is identical across those runs, so a
/// template captures it once and [`build_at`](Self::build_at) stamps out a
/// per-seed simulator from it. Only the seed-dependent work (zone signing,
/// simulator RNG) runs per seed, which keeps `build_at(s)` byte-identical
/// to `VictimEnvConfig { seed: s, .. }.build()` on the same configuration.
#[derive(Debug, Clone)]
pub struct EnvTemplate {
    cfg: VictimEnvConfig,
    unsigned_zone: Zone,
}

impl EnvTemplate {
    /// Snapshots a prepared configuration (the template's seed field is
    /// carried along but superseded by every `build_at` call).
    pub fn new(cfg: VictimEnvConfig) -> Self {
        EnvTemplate { cfg, unsigned_zone: unsigned_victim_zone() }
    }

    /// The captured configuration.
    pub fn config(&self) -> &VictimEnvConfig {
        &self.cfg
    }

    /// Builds the simulator and environment for one seed. Equivalent to
    /// `cfg.build()` with `cfg.seed = seed`, without re-deriving the
    /// seed-independent parts.
    pub fn build_at(&self, seed: u64) -> (Simulator, VictimEnv) {
        let mut cfg = self.cfg.clone();
        cfg.seed = seed;
        let zone = cfg.finish_zone(self.unsigned_zone.clone());
        cfg.build_with_zone(zone)
    }
}

/// How the attacker causes the victim resolver to emit the query it wants to
/// poison (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTrigger {
    /// The resolver is an open resolver (or reachable forwarder): the
    /// attacker queries it directly.
    OpenResolver,
    /// A benign client/service inside the victim network performs the lookup
    /// (e.g. an email bounce, a fetched web object, an appliance timer).
    InternalClient,
}

impl VictimEnv {
    /// Injects a query for `(name, qtype)` at the victim resolver using the
    /// given trigger path, and returns the TXID used by the triggering party.
    pub fn trigger_query(
        &self,
        sim: &mut Simulator,
        trigger: QueryTrigger,
        name: &DomainName,
        qtype: RecordType,
        txid: u16,
    ) {
        let (from_node, from_addr, from_port) = match trigger {
            QueryTrigger::OpenResolver => (self.attacker, self.attacker_addr, 4444),
            QueryTrigger::InternalClient => (self.client, self.client_addr, well_known_ports::STUB_CLIENT),
        };
        let query = Message::query(txid, name.clone(), qtype);
        let pkt = UdpDatagram::new(from_addr, self.resolver_addr, from_port, well_known_ports::DNS, query.encode())
            .into_packet(txid, 64);
        sim.inject(from_node, pkt);
    }

    /// Whether the resolver's cache currently maps `name` to the attacker's
    /// chosen address.
    pub fn poisoned(&self, sim: &Simulator, name: &DomainName, addr: Ipv4Addr) -> bool {
        sim.node_ref::<Resolver>(self.resolver).map(|r| r.is_poisoned_with(name, addr, sim.now())).unwrap_or(false)
    }

    /// Convenience accessor for the resolver node.
    pub fn resolver<'a>(&self, sim: &'a Simulator) -> &'a Resolver {
        sim.node_ref::<Resolver>(self.resolver).expect("resolver node")
    }

    /// Convenience accessor for the nameserver node.
    pub fn nameserver<'a>(&self, sim: &'a Simulator) -> &'a Nameserver {
        sim.node_ref::<Nameserver>(self.nameserver).expect("nameserver node")
    }

    /// Convenience accessor for the attacker node.
    pub fn attacker<'a>(&self, sim: &'a Simulator) -> &'a AttackerNode {
        sim.node_ref::<AttackerNode>(self.attacker).expect("attacker node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_environment_resolves_normally() {
        let (mut sim, env) = VictimEnvConfig::default().build();
        env.trigger_query(&mut sim, QueryTrigger::OpenResolver, &"www.vict.im".parse().unwrap(), RecordType::A, 9);
        sim.run();
        let resolver = env.resolver(&sim);
        assert_eq!(resolver.stats.responses_accepted, 1);
        assert_eq!(resolver.cache().cached_a(&"www.vict.im".parse().unwrap(), sim.now()), Some(addrs::SERVICE));
        // The attacker (acting as an open-resolver client) got the answer.
        assert!(env.attacker(&sim).received_responses().len() == 1);
    }

    #[test]
    fn internal_client_trigger_works_too() {
        let (mut sim, env) = VictimEnvConfig::default().build();
        env.trigger_query(&mut sim, QueryTrigger::InternalClient, &"vict.im".parse().unwrap(), RecordType::TXT, 3);
        sim.run();
        assert_eq!(env.resolver(&sim).stats.client_queries, 1);
        assert!(sim.stats(env.client).udp_received >= 1);
    }

    #[test]
    fn zone_any_response_is_large_enough_to_fragment() {
        let cfg = VictimEnvConfig::default();
        let zone = cfg.victim_zone();
        match zone.lookup(&"vict.im".parse().unwrap(), RecordType::ANY) {
            dns::zone::LookupResult::Records(rrs) => {
                let mut msg = Message::query(1, "vict.im".parse().unwrap(), RecordType::ANY);
                msg.header.is_response = true;
                msg.answers = rrs;
                assert!(msg.wire_size() > 548, "ANY response must exceed the common fragmentation threshold");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn environment_not_poisoned_initially() {
        let (sim, env) = VictimEnvConfig::default().build();
        assert!(!env.poisoned(&sim, &env.target_name, env.attacker_addr));
    }
}

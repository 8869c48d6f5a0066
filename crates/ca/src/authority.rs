//! The certificate authority: the `order → challenge → validate → issue`
//! pipeline over a fully simulated validation network.
//!
//! [`CertificateAuthority::issue`] builds one deterministic simulation per
//! order: the CA's validation host and **its own validating resolver**
//! (configured exactly like the environment's victim resolver, transport
//! policy included — a `DnsOverTcp` deployment validates over TCP here too),
//! the authoritative nameserver, the domain's genuine web host, optionally
//! the attacker's infrastructure, and — when a
//! [`vantage_quorum`](CaConfig::vantage_quorum) is configured — vantage
//! resolvers and validation hosts placed at distinct stub ASes of the `bgp`
//! topology. The pipeline runs the challenge from every vantage, folds the
//! results through the quorum rule and either mints a
//! [`Certificate`] or refuses the order, with the
//! exact packet/byte cost of validation accounted in the
//! [`IssuanceReport`].

use crate::acme::{
    challenge_name, AcmeAccount, Certificate, ChallengeType, IssuanceOutcome, IssuanceReport, Order, RefusalReason,
    ValidationResult,
};
use crate::http::ChallengeHost;
use crate::validator::ValidatorNode;
use crate::vantage::{agreed_count, place_vantage_points, quorum_met, VantagePoint};
use attacks::prelude::{addrs, VictimEnvConfig};
use bgp::prelude::*;
use dns::prelude::*;
use netsim::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use xlayer_core::prelude::derive_seed;

/// Stream salt separating per-order simulation seeds from every other
/// campaign derived from the same master seed.
pub const CA_ISSUANCE_SALT: u64 = 0x0ca1_55ce_ba51_c0de;

/// Address of the CA's validation host.
pub const CA_ADDR: Ipv4Addr = Ipv4Addr::new(45, 0, 0, 10);

/// Number of vantage points a quorum deployment runs (the Let's Encrypt
/// shape: primary + 3 remote perspectives, at most one disagreement).
pub const VANTAGE_COUNT: usize = 3;

/// The attacker's presence in the validation network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackerPresence {
    /// The attacker host's address (its challenge server lives on port 80).
    pub addr: Ipv4Addr,
    /// The key authorization the attacker provisions on its own
    /// infrastructure (it controls its order's token material).
    pub key_authorization: String,
    /// When set, a BGP hijack of this prefix is held through the validation
    /// window: traffic for it — every vantage's included — is delivered to
    /// the attacker, which impersonates the dialled host.
    pub intercepts: Option<Prefix>,
}

/// Configuration of a certificate authority deployment.
#[derive(Debug, Clone)]
pub struct CaConfig {
    /// Master seed; per-order simulation seeds derive from it.
    pub seed: u64,
    /// Configuration of the CA's validating resolver (addresses, transport
    /// policy, DNSSEC validation — the knobs `Defence::apply` turns).
    pub resolver: ResolverConfig,
    /// The authoritative nameserver of the validated domain.
    pub nameserver: NameserverConfig,
    /// Zones the nameserver serves.
    pub zones: Vec<Zone>,
    /// Multi-vantage validation quorum (`None`: primary validation only).
    pub vantage_quorum: Option<u8>,
    /// The genuine web host of the domain and the HTTP-01 tokens its owner
    /// has provisioned on it.
    pub genuine_host: Option<(Ipv4Addr, BTreeMap<String, String>)>,
    /// The attacker's infrastructure, if any.
    pub attacker: Option<AttackerPresence>,
}

impl CaConfig {
    /// A CA validating domains of the standard victim environment: same
    /// resolver/nameserver configuration and zone as
    /// [`VictimEnvConfig::default`], genuine web host at
    /// [`addrs::SERVICE`], no attacker.
    pub fn standard(seed: u64) -> Self {
        CaConfig::from_env_config(&VictimEnvConfig::default(), seed)
    }

    /// Derives the CA deployment hosted in a victim environment: the CA's
    /// resolver is configured exactly like the environment's resolver (it
    /// *is* the resolver the attacks poison), the nameserver and zone are
    /// the environment's, and the vantage quorum comes from
    /// `cfg.vantage_quorum` — i.e. from `Defence::apply`.
    pub fn from_env_config(cfg: &VictimEnvConfig, seed: u64) -> Self {
        CaConfig {
            seed,
            resolver: cfg.resolver.clone(),
            nameserver: cfg.nameserver.clone(),
            zones: vec![cfg.victim_zone()],
            vantage_quorum: cfg.vantage_quorum,
            genuine_host: Some((addrs::SERVICE, BTreeMap::new())),
            attacker: None,
        }
    }
}

/// The certificate authority.
pub struct CertificateAuthority {
    /// Deployment configuration.
    pub config: CaConfig,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Creates an authority.
    pub fn new(config: CaConfig) -> Self {
        CertificateAuthority { config, next_serial: 1 }
    }

    /// Creates an order for `domain` under `challenge` (the `order` stage of
    /// the pipeline).
    pub fn order(&mut self, account: &AcmeAccount, domain: &DomainName, challenge: ChallengeType) -> Order {
        let serial = self.next_serial;
        self.next_serial += 1;
        Order::new(account, domain, challenge, serial)
    }

    /// The genuine owner completes a DNS-01 challenge: publishes the key
    /// authorization under `_acme-challenge.<domain>` in the zone.
    pub fn provision_dns01(&mut self, order: &Order) {
        if let Some(zone) = self.config.zones.first_mut() {
            zone.add_txt(&challenge_name(&order.domain).to_string(), &order.key_authorization);
        }
    }

    /// The genuine owner completes an HTTP-01 challenge: provisions the
    /// token document on the domain's genuine web host.
    pub fn provision_http01(&mut self, order: &Order) {
        if let Some((_, tokens)) = self.config.genuine_host.as_mut() {
            tokens.insert(order.token.clone(), order.key_authorization.clone());
        }
    }

    /// The DNS question this order's validation hinges on.
    fn validation_lookup(order: &Order) -> (DomainName, RecordType) {
        match order.challenge {
            ChallengeType::Http01 => (order.domain.clone(), RecordType::A),
            ChallengeType::Dns01 => (challenge_name(&order.domain), RecordType::TXT),
        }
    }

    /// RFC 6840 §5.9-style cache semantics: before basing issuance on
    /// cached records, a validating CA re-authenticates them against the
    /// zone's trust anchor. Returns the validator's reason when the cached
    /// material for this order's lookup is `Bogus` — signatures that no
    /// longer verify, unsigned data smuggled into a signed zone's cache —
    /// in which case the order must be refused outright. `Secure` and
    /// `Insecure` (unanchored zone) snapshots pass, as does a cold cache.
    fn reverify_snapshot(&self, order: &Order, cache_snapshot: &[ResourceRecord]) -> Option<String> {
        if !self.config.resolver.validate_dnssec {
            return None;
        }
        let (qname, qtype) = Self::validation_lookup(order);
        let delegation =
            self.config.resolver.delegations.iter().find(|d| qname.is_subdomain_of(&d.zone) && d.signed)?;
        if !cache_snapshot.iter().any(|rr| rr.name == qname && rr.rdata.covered_type() == qtype) {
            return None; // cold cache: the pipeline resolves (and validates) fresh
        }
        let validator = dns::dnssec::Validator::new(delegation.zone.clone(), delegation.trust_anchor.clone(), 0);
        match validator.validate(cache_snapshot, &qname, qtype) {
            dns::dnssec::Validation::Bogus(detail) => Some(detail),
            _ => None,
        }
    }

    /// Runs `challenge → validate → issue` for one order.
    ///
    /// `cache_snapshot` pre-seeds the CA resolver's cache — this is how a
    /// poisoning that happened *before* the order reaches the pipeline: the
    /// scenario layer snapshots the victim resolver's (possibly poisoned)
    /// records and hands them in. Pass `&[]` for a cold cache.
    pub fn issue(&mut self, order: &Order, cache_snapshot: &[ResourceRecord]) -> IssuanceReport {
        // Cached material that fails re-verification refuses the order
        // before a single validation packet is sent.
        if let Some(detail) = self.reverify_snapshot(order, cache_snapshot) {
            return IssuanceReport {
                order: order.clone(),
                outcome: IssuanceOutcome::Refused(RefusalReason::BogusCachedData { detail }),
                primary: ValidationResult {
                    vantage: "ca".into(),
                    as_number: None,
                    challenge: order.challenge,
                    resolved: None,
                    observed: None,
                    matched: false,
                    completed: true,
                    finished_at: None,
                },
                vantage: Vec::new(),
                duration: Duration::ZERO,
                validation_packets: 0,
                validation_bytes: 0,
                dns_upstream_queries: 0,
                flows: Vec::new(),
                ca_traffic: TrafficStats::default(),
            };
        }

        let seed = derive_seed(self.config.seed, CA_ISSUANCE_SALT, order.serial);
        let mut sim = Simulator::new(seed);

        // The CA's own resolver, cache pre-seeded with the snapshot.
        let resolver_addr = self.config.resolver.addr;
        let primary_resolver =
            sim.add_node("ca-resolver", vec![resolver_addr], Resolver::new(self.config.resolver.clone()));
        if !cache_snapshot.is_empty() {
            if let Some(r) = sim.node_mut::<Resolver>(primary_resolver) {
                r.cache_mut().insert_records(cache_snapshot, SimTime::ZERO, false);
            }
        }

        let ns = sim.add_node(
            "ns",
            vec![self.config.nameserver.addr],
            Nameserver::new(self.config.nameserver.clone(), self.config.zones.clone()),
        );

        if let Some((addr, tokens)) = &self.config.genuine_host {
            let mut host = ChallengeHost::new(*addr);
            for (token, keyauth) in tokens {
                host = host.with_token(token, keyauth);
            }
            sim.add_node("web", vec![*addr], host);
        }

        let attacker_node = self.config.attacker.as_ref().map(|presence| {
            let mut host =
                ChallengeHost::new(presence.addr).with_token(&order.token, &presence.key_authorization).impersonating();
            host.dns_a = presence.addr;
            host.dns_txt = Some(presence.key_authorization.clone());
            sim.add_node("attacker", vec![presence.addr], host)
        });
        if let (Some(node), Some(prefix)) = (attacker_node, self.config.attacker.as_ref().and_then(|p| p.intercepts)) {
            sim.set_route_override(prefix, node);
        }

        // The CA's primary validation host.
        let primary_validator = sim.add_node(
            "ca",
            vec![CA_ADDR],
            ValidatorNode::new(
                "ca",
                None,
                CA_ADDR,
                resolver_addr,
                order.domain.clone(),
                order.challenge,
                &order.key_authorization,
            ),
        );

        // Vantage points at distinct stub ASes of the reference topology.
        let vantages: Vec<VantagePoint> = if self.config.vantage_quorum.is_some() {
            let (topo, _) = AsTopology::small_test_topology();
            place_vantage_points(&topo, VANTAGE_COUNT)
        } else {
            Vec::new()
        };
        let mut vantage_nodes = Vec::new();
        let mut ca_side_nodes = vec![primary_validator, primary_resolver];
        for v in &vantages {
            let mut resolver_cfg = self.config.resolver.clone();
            resolver_cfg.addr = v.resolver_addr;
            let vr = sim.add_node(&format!("{}-resolver", v.name), vec![v.resolver_addr], Resolver::new(resolver_cfg));
            let vv = sim.add_node(
                &v.name,
                vec![v.validator_addr],
                ValidatorNode::new(
                    &v.name,
                    Some(v.as_id.0),
                    v.validator_addr,
                    v.resolver_addr,
                    order.domain.clone(),
                    order.challenge,
                    &order.key_authorization,
                ),
            );
            // The vantage's network distance: its validator reaches its
            // resolver locally; the resolver reaches the rest of the world
            // across the AS path.
            sim.connect(vv, vr, Link::with_latency(Duration::from_millis(1)));
            sim.connect(vr, ns, Link::with_latency(v.latency));
            if let Some(node) = attacker_node {
                sim.connect(vr, node, Link::with_latency(v.latency));
                sim.connect(vv, node, Link::with_latency(v.latency));
            }
            ca_side_nodes.push(vr);
            ca_side_nodes.push(vv);
            vantage_nodes.push(vv);
        }

        sim.run();

        let primary = sim.node_ref::<ValidatorNode>(primary_validator).expect("primary validator").result.clone();
        let vantage: Vec<ValidationResult> = vantage_nodes
            .iter()
            .map(|&id| sim.node_ref::<ValidatorNode>(id).expect("vantage").result.clone())
            .collect();

        let outcome = self.decide(order, &sim, &primary, &vantage);

        // Validation traffic accounting: everything the CA side (validators
        // and their resolvers) put on the wire.
        let mut validation_packets = 0;
        let mut validation_bytes = 0;
        let mut dns_upstream_queries = 0;
        let mut flows = Vec::new();
        for &id in &ca_side_nodes {
            let stats = sim.stats(id);
            validation_packets += stats.packets_sent;
            validation_bytes += stats.bytes_sent;
            if let Some(r) = sim.node_ref::<Resolver>(id) {
                dns_upstream_queries += r.stats.upstream_queries;
            }
            if let Some(v) = sim.node_ref::<ValidatorNode>(id) {
                flows.extend(v.http_flows());
            }
        }

        // The pipeline's wall clock is the last definitive validation
        // answer, not the point the simulation quiesced (idle deadline
        // timers run long after the decision is available).
        let duration = std::iter::once(&primary)
            .chain(vantage.iter())
            .filter_map(|v| v.finished_at)
            .max()
            .unwrap_or_else(|| sim.now())
            .duration_since(SimTime::ZERO);

        IssuanceReport {
            order: order.clone(),
            outcome,
            primary,
            vantage,
            duration,
            validation_packets,
            validation_bytes,
            dns_upstream_queries,
            flows,
            ca_traffic: sim.stats(primary_validator).clone(),
        }
    }

    fn decide(
        &self,
        order: &Order,
        sim: &Simulator,
        primary: &ValidationResult,
        vantage: &[ValidationResult],
    ) -> IssuanceOutcome {
        if !primary.matched {
            return IssuanceOutcome::Refused(RefusalReason::ChallengeMismatch { observed: primary.observed.clone() });
        }
        if let Some(quorum) = self.config.vantage_quorum {
            if !quorum_met(vantage, quorum) {
                return IssuanceOutcome::Refused(RefusalReason::QuorumNotMet {
                    agreed: agreed_count(vantage),
                    required: quorum,
                });
            }
        }
        let mut validated_by = vec![primary.vantage.clone()];
        validated_by.extend(vantage.iter().filter(|v| v.matched).map(|v| v.vantage.clone()));
        IssuanceOutcome::Issued(Certificate {
            serial: order.serial,
            domain: order.domain.to_string(),
            issued_to: order.account.clone(),
            challenge: order.challenge,
            issued_at: sim.now(),
            validated_by,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn owner() -> AcmeAccount {
        AcmeAccount::new("owner@vict.im")
    }

    #[test]
    fn genuine_dns01_issuance_end_to_end() {
        let mut ca = CertificateAuthority::new(CaConfig::standard(2021));
        let order = ca.order(&owner(), &n("www.vict.im"), ChallengeType::Dns01);
        ca.provision_dns01(&order);
        let report = ca.issue(&order, &[]);
        assert!(report.outcome.issued(), "{report:?}");
        let cert = report.outcome.certificate().unwrap();
        assert_eq!(cert.domain, "www.vict.im");
        assert_eq!(cert.validated_by, vec!["ca".to_string()]);
        assert!(report.validation_packets > 0);
        assert!(report.validation_bytes > 0);
        assert!(report.dns_upstream_queries >= 1, "the TXT lookup went upstream");
        assert!(report.flows.is_empty(), "DNS-01 opens no HTTP connection");
    }

    #[test]
    fn genuine_http01_issuance_end_to_end() {
        let mut ca = CertificateAuthority::new(CaConfig::standard(2021));
        let order = ca.order(&owner(), &n("www.vict.im"), ChallengeType::Http01);
        ca.provision_http01(&order);
        let report = ca.issue(&order, &[]);
        assert!(report.outcome.issued(), "{report:?}");
        assert_eq!(report.primary.resolved, Some(addrs::SERVICE));
        assert!(!report.flows.is_empty(), "the HTTP-01 fetch is a tracked flow");
        assert!(
            report.validation_packets > 6,
            "A lookup + TCP handshake + HTTP exchange: {} packets",
            report.validation_packets
        );
        let rendered = report.render_traffic();
        assert!(rendered.starts_with("ca: sent"), "{rendered}");
        assert!(rendered.contains(":80"), "the HTTP-01 fetch connection is listed per flow: {rendered}");
    }

    #[test]
    fn unprovisioned_order_is_refused() {
        let mut ca = CertificateAuthority::new(CaConfig::standard(2021));
        let order = ca.order(&owner(), &n("www.vict.im"), ChallengeType::Http01);
        let report = ca.issue(&order, &[]);
        assert!(!report.outcome.issued());
        assert!(matches!(report.outcome, IssuanceOutcome::Refused(RefusalReason::ChallengeMismatch { .. })));
    }

    #[test]
    fn issuance_is_deterministic_per_seed_and_serial() {
        let run = || {
            let mut ca = CertificateAuthority::new(CaConfig::standard(2021));
            let order = ca.order(&owner(), &n("www.vict.im"), ChallengeType::Http01);
            ca.provision_http01(&order);
            ca.issue(&order, &[])
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + same order must replay the exact report");
        let mut ca = CertificateAuthority::new(CaConfig::standard(2022));
        let order = ca.order(&owner(), &n("www.vict.im"), ChallengeType::Http01);
        ca.provision_http01(&order);
        let c = ca.issue(&order, &[]);
        assert_eq!(c.outcome.issued(), a.outcome.issued(), "different seeds still issue");
    }

    #[test]
    fn poisoned_cache_snapshot_redirects_the_primary_validation() {
        // The attack surface in one assertion: a poisoned A record in the
        // CA resolver's cache sends the HTTP-01 fetch to the attacker, who
        // serves the right key authorization — fraudulent certificate.
        let mut ca = CertificateAuthority::new(CaConfig::standard(2021));
        let mallory = AcmeAccount::new("mallory@evil.example");
        let order = ca.order(&mallory, &n("www.vict.im"), ChallengeType::Http01);
        ca.config.attacker = Some(AttackerPresence {
            addr: addrs::ATTACKER,
            key_authorization: order.key_authorization.clone(),
            intercepts: None,
        });
        let poisoned = vec![ResourceRecord::new(n("www.vict.im"), 300, RData::A(addrs::ATTACKER))];
        let report = ca.issue(&order, &poisoned);
        assert!(report.outcome.issued(), "{report:?}");
        assert_eq!(report.primary.resolved, Some(addrs::ATTACKER));
    }

    #[test]
    fn quorum_refuses_when_vantages_resolve_genuinely() {
        // Same poisoned snapshot, but with multi-vantage validation: the
        // vantage resolvers never saw the poisoning, resolve the genuine
        // address, find no challenge document — quorum not met.
        let mut cfg = CaConfig::standard(2021);
        cfg.vantage_quorum = Some(2);
        let mut ca = CertificateAuthority::new(cfg);
        let mallory = AcmeAccount::new("mallory@evil.example");
        let order = ca.order(&mallory, &n("www.vict.im"), ChallengeType::Http01);
        ca.config.attacker = Some(AttackerPresence {
            addr: addrs::ATTACKER,
            key_authorization: order.key_authorization.clone(),
            intercepts: None,
        });
        let poisoned = vec![ResourceRecord::new(n("www.vict.im"), 300, RData::A(addrs::ATTACKER))];
        let report = ca.issue(&order, &poisoned);
        assert!(!report.outcome.issued());
        assert_eq!(report.vantage.len(), VANTAGE_COUNT);
        assert!(matches!(
            report.outcome,
            IssuanceOutcome::Refused(RefusalReason::QuorumNotMet { agreed: 0, required: 2 })
        ));
        // Every vantage sits in its own AS and reached a definitive answer.
        let as_numbers: std::collections::BTreeSet<_> = report.vantage.iter().map(|v| v.as_number).collect();
        assert_eq!(as_numbers.len(), VANTAGE_COUNT);
        assert!(report.vantage.iter().all(|v| v.completed));
    }

    #[test]
    fn bogus_cached_data_refuses_without_a_fresh_authoritative_query() {
        // The regression lock for dropping the old "validating CA always
        // re-fetches" shortcut: against a signed, anchored zone, a poisoned
        // unsigned cache snapshot fails re-verification and the order is
        // refused *before any validation traffic* — zero upstream queries,
        // zero packets — rather than being laundered through a fresh lookup.
        let mut env_cfg =
            VictimEnvConfig { zone_security: attacks::prelude::ZoneSecurity::signed_nsec(), ..Default::default() };
        env_cfg.resolver.delegations.clear();
        env_cfg.resolver =
            env_cfg.resolver.with_delegation("vict.im", vec![addrs::NAMESERVER], true).with_dnssec_validation();
        let zone = env_cfg.victim_zone();
        let anchor = zone.trust_anchor().expect("signed zone publishes a DS");
        env_cfg.resolver = env_cfg.resolver.with_trust_anchor("vict.im", anchor);
        let mut cfg = CaConfig::from_env_config(&env_cfg, 2021);
        cfg.zones = vec![zone];
        let mut ca = CertificateAuthority::new(cfg);
        let mallory = AcmeAccount::new("mallory@evil.example");
        let order = ca.order(&mallory, &n("www.vict.im"), ChallengeType::Http01);
        ca.config.attacker = Some(AttackerPresence {
            addr: addrs::ATTACKER,
            key_authorization: order.key_authorization.clone(),
            intercepts: None,
        });
        let poisoned = vec![ResourceRecord::new(n("www.vict.im"), 300, RData::A(addrs::ATTACKER))];
        let report = ca.issue(&order, &poisoned);
        assert!(
            matches!(report.outcome, IssuanceOutcome::Refused(RefusalReason::BogusCachedData { .. })),
            "{report:?}"
        );
        assert_eq!(report.dns_upstream_queries, 0, "no fresh authoritative query launders the refusal");
        assert_eq!(report.validation_packets, 0, "refusal happens before any validation traffic");
    }

    #[test]
    fn genuine_signed_snapshot_passes_reverification() {
        // The counterpart: the genuine signed RRset (with its RRSIG and the
        // zone's DNSKEY material) re-verifies as Secure and issuance runs
        // the normal pipeline.
        let mut env_cfg =
            VictimEnvConfig { zone_security: attacks::prelude::ZoneSecurity::signed_nsec(), ..Default::default() };
        env_cfg.resolver.delegations.clear();
        env_cfg.resolver =
            env_cfg.resolver.with_delegation("vict.im", vec![addrs::NAMESERVER], true).with_dnssec_validation();
        let zone = env_cfg.victim_zone();
        let anchor = zone.trust_anchor().expect("signed zone publishes a DS");
        env_cfg.resolver = env_cfg.resolver.with_trust_anchor("vict.im", anchor);
        let mut snapshot = match zone.lookup(&n("www.vict.im"), RecordType::A) {
            dns::zone::LookupResult::Records(rrs) => rrs,
            other => panic!("unexpected {other:?}"),
        };
        snapshot.extend(zone.dnskey_records());
        let mut cfg = CaConfig::from_env_config(&env_cfg, 2021);
        cfg.zones = vec![zone];
        let mut ca = CertificateAuthority::new(cfg);
        let order = ca.order(&owner(), &n("www.vict.im"), ChallengeType::Http01);
        ca.provision_http01(&order);
        let report = ca.issue(&order, &snapshot);
        assert!(report.outcome.issued(), "{report:?}");
    }

    #[test]
    fn an_interception_hijack_defeats_the_quorum() {
        // The hijack held through the validation window intercepts every
        // vantage's traffic too: all perspectives agree with the attacker.
        let mut cfg = CaConfig::standard(2021);
        cfg.vantage_quorum = Some(2);
        let mut ca = CertificateAuthority::new(cfg);
        let mallory = AcmeAccount::new("mallory@evil.example");
        let order = ca.order(&mallory, &n("www.vict.im"), ChallengeType::Http01);
        ca.config.attacker = Some(AttackerPresence {
            addr: addrs::ATTACKER,
            key_authorization: order.key_authorization.clone(),
            intercepts: Some(Prefix::new(addrs::NAMESERVER, MAX_ACCEPTED_PREFIX_LEN)),
        });
        let poisoned = vec![ResourceRecord::new(n("www.vict.im"), 300, RData::A(addrs::ATTACKER))];
        let report = ca.issue(&order, &poisoned);
        assert!(report.outcome.issued(), "{report:?}");
        let cert = report.outcome.certificate().unwrap();
        assert!(cert.validated_by.len() >= 3, "primary plus a quorum of vantages: {:?}", cert.validated_by);
    }
}

//! ACME-style issuance artifacts: accounts, orders, challenges and the
//! [`Certificate`] the pipeline produces.
//!
//! The shapes follow RFC 8555 closely enough that the simulated pipeline
//! exercises the same trust decisions a real CA makes — a token per
//! authorization, a key authorization binding the token to the account, the
//! `_acme-challenge` TXT owner name for DNS-01 and the
//! `/.well-known/acme-challenge/` URL for HTTP-01 — while staying fully
//! deterministic: tokens are derived from the order serial and account
//! thumbprint with an FNV-1a hash, never from a clock or an OS RNG.

use dns::prelude::*;
use netsim::prelude::{Duration, FlowStats, SimTime, TrafficStats};
use std::fmt;

/// The two domain-validation challenge types the CA implements (RFC 8555
/// §8.3, §8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChallengeType {
    /// `http-01`: the CA resolves the domain's A record and fetches
    /// `/.well-known/acme-challenge/<token>` from port 80 of that address.
    Http01,
    /// `dns-01`: the CA queries TXT `_acme-challenge.<domain>` and expects
    /// the key authorization in the record data.
    Dns01,
}

impl ChallengeType {
    /// The RFC 8555 challenge type string.
    pub fn label(&self) -> &'static str {
        match self {
            ChallengeType::Http01 => "http-01",
            ChallengeType::Dns01 => "dns-01",
        }
    }
}

impl fmt::Display for ChallengeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// 64-bit FNV-1a — the deterministic stand-in for the CSPRNG a real CA
/// would draw tokens from (the simulation's security argument never rests
/// on token secrecy, only on where validation traffic lands).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// An ACME account (the certificate requester): the thumbprint is what key
/// authorizations bind tokens to, so two accounts provisioning the same
/// token still produce distinguishable challenge contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcmeAccount {
    /// Account identifier (contact handle).
    pub id: String,
    /// Deterministic JWK-thumbprint stand-in.
    pub thumbprint: String,
}

impl AcmeAccount {
    /// Creates an account with a thumbprint derived from its identifier.
    pub fn new(id: &str) -> Self {
        AcmeAccount { id: id.to_string(), thumbprint: format!("{:016x}", fnv64(id.as_bytes())) }
    }
}

/// The TXT owner name a DNS-01 challenge is served under (RFC 8555 §8.4).
pub(crate) fn challenge_name(domain: &DomainName) -> DomainName {
    domain.prepend("_acme-challenge").expect("challenge label fits")
}

/// The HTTP-01 challenge URL path for a token (RFC 8555 §8.3).
pub(crate) fn http_challenge_path(token: &str) -> String {
    format!("/.well-known/acme-challenge/{token}")
}

/// One certificate order: a domain, the chosen challenge type, and the
/// token/key-authorization pair the validators will look for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// Order serial (also the certificate serial on success).
    pub serial: u64,
    /// The domain to be validated.
    pub domain: DomainName,
    /// Challenge type selected for the (single) authorization.
    pub challenge: ChallengeType,
    /// The challenge token.
    pub token: String,
    /// `<token>.<account thumbprint>` — what the challenge must serve.
    pub key_authorization: String,
    /// Identifier of the ordering account.
    pub account: String,
}

impl Order {
    /// Builds an order with deterministic token material.
    pub fn new(account: &AcmeAccount, domain: &DomainName, challenge: ChallengeType, serial: u64) -> Self {
        let token = format!("tok{serial:04}-{:08x}", fnv64(domain.to_string().as_bytes()) as u32);
        let key_authorization = format!("{token}.{}", account.thumbprint);
        Order { serial, domain: domain.clone(), challenge, token, key_authorization, account: account.id.clone() }
    }
}

/// The artifact a completed issuance produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Certificate serial (= order serial).
    pub serial: u64,
    /// The validated domain (subject).
    pub domain: String,
    /// Account the certificate was issued to.
    pub issued_to: String,
    /// Challenge type that validated the domain.
    pub challenge: ChallengeType,
    /// Simulated time of issuance.
    pub issued_at: SimTime,
    /// Names of the validation hosts that agreed (primary first).
    pub validated_by: Vec<String>,
}

/// Why an order was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefusalReason {
    /// The primary validation did not observe the key authorization.
    ChallengeMismatch {
        /// What the primary validator saw instead (None: nothing at all —
        /// lookup failure, connection refused, timeout).
        observed: Option<String>,
    },
    /// The primary validation passed but too few vantage points agreed.
    QuorumNotMet {
        /// Vantage validations that agreed with the primary.
        agreed: u8,
        /// The configured quorum.
        required: u8,
    },
    /// Cached DNS material the issuance decision would rest on failed
    /// DNSSEC re-verification against the zone's trust anchor (RFC 6840
    /// §5.9 cache semantics): the order is refused before any validation
    /// traffic is sent.
    BogusCachedData {
        /// The validator's reason for the `Bogus` verdict.
        detail: String,
    },
}

/// The CA's decision on one order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssuanceOutcome {
    /// The certificate was issued.
    Issued(Certificate),
    /// The order was refused.
    Refused(RefusalReason),
}

impl IssuanceOutcome {
    /// Whether a certificate was issued.
    pub fn issued(&self) -> bool {
        matches!(self, IssuanceOutcome::Issued(_))
    }

    /// The certificate, if issued.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            IssuanceOutcome::Issued(cert) => Some(cert),
            IssuanceOutcome::Refused(_) => None,
        }
    }
}

/// Result of one validation host's challenge attempt (primary or vantage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationResult {
    /// Name of the validation host (`"ca"` for the primary, vantage names
    /// otherwise).
    pub vantage: String,
    /// AS number the vantage is placed in (None for the primary).
    pub as_number: Option<u32>,
    /// Challenge type attempted.
    pub challenge: ChallengeType,
    /// The A record the host resolved for the domain (HTTP-01 only).
    pub resolved: Option<std::net::Ipv4Addr>,
    /// What the challenge actually served (TXT data or HTTP body).
    pub observed: Option<String>,
    /// Whether the observation matched the key authorization.
    pub matched: bool,
    /// Whether the validation reached a definitive answer before the
    /// deadline (a `false` here means timeout / connection refused).
    pub completed: bool,
    /// When the definitive answer arrived (None on timeout).
    pub finished_at: Option<SimTime>,
}

/// The full record of one issuance pipeline run: the decision plus every
/// validation result and the exact validation traffic it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct IssuanceReport {
    /// The order that was processed.
    pub order: Order,
    /// The decision.
    pub outcome: IssuanceOutcome,
    /// The primary (CA-host) validation.
    pub primary: ValidationResult,
    /// Vantage validations, in placement order.
    pub vantage: Vec<ValidationResult>,
    /// Simulated wall-clock the pipeline took.
    pub duration: Duration,
    /// Packets sent by CA-side hosts (validators + their resolvers) during
    /// validation.
    pub validation_packets: u64,
    /// Bytes sent by CA-side hosts during validation.
    pub validation_bytes: u64,
    /// Upstream DNS queries the CA-side resolvers issued.
    pub dns_upstream_queries: u64,
    /// Per-connection statistics of every validator's HTTP-01 fetch socket
    /// (empty for DNS-01).
    pub flows: Vec<FlowStats>,
    /// Traffic counters of the CA's primary validation host.
    pub ca_traffic: TrafficStats,
}

impl IssuanceReport {
    /// The trace-level view of the CA host's validation traffic: its
    /// counters with every validation connection listed per flow
    /// ([`TrafficStats::render`]).
    pub fn render_traffic(&self) -> String {
        self.ca_traffic.render("ca", &self.flows)
    }

    /// Exports the report into a telemetry snapshot under `ca.*`: order and
    /// issuance counts, refusals broken down by [`RefusalReason`] variant,
    /// and validation traffic totals. All keys are registered even at zero so
    /// the rendered key set is stable; counters add when per-order snapshots
    /// merge across shards.
    pub fn export_metrics(&self, m: &mut telemetry::MetricsSnapshot) {
        m.incr("ca.issuance.orders", 1);
        m.incr("ca.issuance.issued", u64::from(self.outcome.issued()));
        let (mismatch, quorum, bogus) = match &self.outcome {
            IssuanceOutcome::Refused(RefusalReason::ChallengeMismatch { .. }) => (1, 0, 0),
            IssuanceOutcome::Refused(RefusalReason::QuorumNotMet { .. }) => (0, 1, 0),
            IssuanceOutcome::Refused(RefusalReason::BogusCachedData { .. }) => (0, 0, 1),
            IssuanceOutcome::Issued(_) => (0, 0, 0),
        };
        m.incr("ca.issuance.refused.challenge_mismatch", mismatch);
        m.incr("ca.issuance.refused.quorum_not_met", quorum);
        m.incr("ca.issuance.refused.bogus_cached_data", bogus);
        m.incr("ca.validation.packets", self.validation_packets);
        m.incr("ca.validation.bytes", self.validation_bytes);
        m.incr("ca.validation.dns_upstream_queries", self.dns_upstream_queries);
        m.incr("ca.validation.vantage_attempts", self.vantage.len() as u64);
        m.incr("ca.validation.vantage_matched", self.vantage.iter().filter(|v| v.matched).count() as u64);
        m.observe_ns("ca.issuance.duration_ns", self.duration.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn orders_are_deterministic_and_serial_scoped() {
        let account = AcmeAccount::new("owner@vict.im");
        let a = Order::new(&account, &n("www.vict.im"), ChallengeType::Http01, 1);
        let b = Order::new(&account, &n("www.vict.im"), ChallengeType::Http01, 1);
        assert_eq!(a, b, "same inputs, same token material");
        let c = Order::new(&account, &n("www.vict.im"), ChallengeType::Http01, 2);
        assert_ne!(a.token, c.token, "a new serial draws a new token");
        assert!(a.key_authorization.starts_with(&a.token));
        assert!(a.key_authorization.ends_with(&account.thumbprint));
    }

    #[test]
    fn challenge_locations_follow_rfc8555() {
        assert_eq!(challenge_name(&n("www.vict.im")), n("_acme-challenge.www.vict.im"));
        assert_eq!(http_challenge_path("tok0001-abc"), "/.well-known/acme-challenge/tok0001-abc");
        assert_eq!(ChallengeType::Dns01.label(), "dns-01");
        assert_eq!(format!("{}", ChallengeType::Http01), "http-01");
    }

    #[test]
    fn accounts_distinguish_key_authorizations() {
        let owner = AcmeAccount::new("owner@vict.im");
        let attacker = AcmeAccount::new("mallory@evil.example");
        let domain = n("www.vict.im");
        let a = Order::new(&owner, &domain, ChallengeType::Dns01, 1);
        let b = Order::new(&attacker, &domain, ChallengeType::Dns01, 1);
        assert_eq!(a.token, b.token, "token depends on serial+domain only");
        assert_ne!(a.key_authorization, b.key_authorization, "thumbprint binds the account");
    }

    #[test]
    fn outcome_accessors() {
        let cert = Certificate {
            serial: 7,
            domain: "www.vict.im".into(),
            issued_to: "owner@vict.im".into(),
            challenge: ChallengeType::Http01,
            issued_at: SimTime::ZERO,
            validated_by: vec!["ca".into()],
        };
        let issued = IssuanceOutcome::Issued(cert.clone());
        assert!(issued.issued());
        assert_eq!(issued.certificate(), Some(&cert));
        let refused = IssuanceOutcome::Refused(RefusalReason::QuorumNotMet { agreed: 1, required: 2 });
        assert!(!refused.issued());
        assert_eq!(refused.certificate(), None);
    }

    fn report_with(outcome: IssuanceOutcome) -> IssuanceReport {
        let account = AcmeAccount::new("owner@vict.im");
        let order = Order::new(&account, &n("www.vict.im"), ChallengeType::Http01, 1);
        IssuanceReport {
            order,
            outcome,
            primary: ValidationResult {
                vantage: "ca".into(),
                as_number: None,
                challenge: ChallengeType::Http01,
                resolved: None,
                observed: None,
                matched: false,
                completed: true,
                finished_at: Some(SimTime::ZERO),
            },
            vantage: Vec::new(),
            duration: Duration::from_millis(120),
            validation_packets: 10,
            validation_bytes: 900,
            dns_upstream_queries: 2,
            flows: Vec::new(),
            ca_traffic: TrafficStats::default(),
        }
    }

    #[test]
    fn export_metrics_breaks_down_refusals() {
        let mut m = telemetry::MetricsSnapshot::new();
        report_with(IssuanceOutcome::Refused(RefusalReason::QuorumNotMet { agreed: 1, required: 2 }))
            .export_metrics(&mut m);
        report_with(IssuanceOutcome::Refused(RefusalReason::BogusCachedData { detail: "expired RRSIG".into() }))
            .export_metrics(&mut m);
        assert_eq!(m.counter("ca.issuance.orders"), 2);
        assert_eq!(m.counter("ca.issuance.issued"), 0);
        assert_eq!(m.counter("ca.issuance.refused.quorum_not_met"), 1);
        assert_eq!(m.counter("ca.issuance.refused.bogus_cached_data"), 1);
        assert_eq!(m.counter("ca.issuance.refused.challenge_mismatch"), 0);
        assert_eq!(m.counter("ca.validation.packets"), 20);
        assert_eq!(m.histogram("ca.issuance.duration_ns").unwrap().count, 2);
    }
}

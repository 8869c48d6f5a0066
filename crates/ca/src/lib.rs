//! # ca — a deterministic ACME-style certificate authority
//!
//! The paper's highest-impact victim application is the web PKI: poison the
//! resolver a certificate authority validates domains through, and the
//! attacker walks away with a browser-trusted certificate for somebody
//! else's domain (Table 1, "Hijack: fraudulent certificate"). This crate
//! makes that a first-class subsystem instead of a taxonomy row:
//!
//! * [`acme`] — accounts, orders, challenges, the
//!   [`Certificate`](acme::Certificate) artifact and the
//!   [`IssuanceReport`](acme::IssuanceReport) with full packet/byte
//!   accounting;
//! * [`http`] — a minimal HTTP/1.0 exchange over the deterministic TCP
//!   stack, plus the `ChallengeHost` node serving HTTP-01 documents (genuine
//!   or attacker-operated, including impersonation of hijacked prefixes);
//! * [`validator`] — the validation host: DNS-01 TXT lookups and HTTP-01
//!   fetches through a recursive resolver;
//! * [`vantage`] — multi-vantage-point placement on distinct stub ASes of
//!   the `bgp` topology, and the quorum rule;
//! * [`authority`] — the `order → challenge → validate → issue` pipeline,
//!   one deterministic simulation per order;
//! * [`exploit`] — the [`CertIssuanceExploit`](exploit::CertIssuanceExploit)
//!   scenario stage, the per-vector instantiations and the issuance
//!   ablation/matrix grids on the sharded campaign engine.
//!
//! The CA *owns a validating resolver*: its configuration — transport
//! policy, DNSSEC validation, everything `Defence::apply` touches — is the
//! victim environment's resolver configuration, so every deployable defence
//! of the ablation applies to certificate issuance exactly once, in one
//! place. `Defence::MultiVantageValidation { quorum }` adds vantage
//! resolvers at distinct ASes; off-path poisoning of the CA's resolver then
//! fails the quorum, while an interception hijack held through the
//! validation window still defeats it — the Let's Encrypt countermeasure,
//! with its honest limits.
//!
//! ```
//! use ca::prelude::*;
//!
//! // The genuine owner of www.vict.im requests a certificate: order,
//! // provision the DNS-01 challenge, validate, issue.
//! let mut authority = CertificateAuthority::new(CaConfig::standard(2021));
//! let owner = AcmeAccount::new("owner@vict.im");
//! let order = authority.order(&owner, &"www.vict.im".parse().unwrap(), ChallengeType::Dns01);
//! authority.provision_dns01(&order);
//!
//! let report = authority.issue(&order, &[]);
//! let certificate = report.outcome.certificate().expect("genuine issuance succeeds");
//! assert_eq!(certificate.domain, "www.vict.im");
//! assert!(report.validation_packets > 0, "validation cost is accounted packet by packet");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acme;
pub mod authority;
pub mod exploit;
pub mod http;
pub mod validator;
pub mod vantage;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::acme::{AcmeAccount, ChallengeType, IssuanceReport, ValidationResult};
    pub use crate::authority::{CaConfig, CertificateAuthority, VANTAGE_COUNT};
    pub use crate::exploit::{
        ca_defences, render_issuance_ablation, render_issuance_matrix, run_issuance_ablation, run_issuance_cell,
        CertIssuanceExploit, IssuanceCampaign, PreparedIssuanceCell,
    };
    pub use crate::http::{http_get, http_response, HttpResponseParser};
    pub use crate::vantage::{agreed_count, place_vantage_points, quorum_met};
}

//! # apps — the applications attacked through poisoned DNS caches
//!
//! Behavioural models of the nine application categories of Table 1 and the
//! middleboxes of Table 2:
//!
//! * [`taxonomy`] — the twenty application/protocol rows of Table 1: how each
//!   uses DNS, who controls the queried name, how queries are triggered,
//!   which poisoning methodologies apply, and what the attacker gains;
//! * [`middlebox`] — the query-triggering and caching behaviour of firewalls,
//!   load balancers, CDNs and managed-DNS ALIAS providers (Table 2);
//! * [`exploit`] — what each application *does* with a poisoned answer:
//!   SPF/DKIM downgrade, mail interception, password-recovery account
//!   takeover, NTP time shifting, Radius and VPN denial of service, XMPP and
//!   opportunistic-IPsec interception, Bitcoin eclipse, OCSP soft-fail,
//!   fraudulent domain validation, firewall-filter bypass.
//!
//! The end-to-end cross-layer scenarios (trigger → poison → exploit) that
//! combine these models with the attack drivers live in `xlayer-core`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exploit;
pub mod middlebox;
pub mod taxonomy;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::exploit::*;
    pub use crate::middlebox::{table2_middleboxes, CachingBehaviour, TriggerBehaviour};
    pub use crate::taxonomy::{table1_applications, Category, Impact};
}

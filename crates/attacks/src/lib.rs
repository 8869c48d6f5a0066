//! # attacks — the three off-path DNS cache poisoning methodologies
//!
//! Faithful implementations of the poisoning methodologies of Section 3 of
//! *"From IP to Transport and Beyond: Cross-Layer Attacks Against
//! Applications"*, driven against the `netsim`/`dns`/`bgp` substrates:
//!
//! * [`hijackdns`] — interception via BGP sub-/same-prefix hijacks;
//! * [`saddns`] — source-port inference through the global ICMP rate-limit
//!   side channel plus TXID brute force;
//! * [`fragdns`] — spoofed second fragments injected into the victim's IP
//!   defragmentation cache, with exact UDP-checksum compensation ([`craft`]);
//! * [`attacker`] — the off-path attacker host model (spoofing, recording,
//!   optional impersonation);
//! * [`env`](mod@env) — the standard victim environment (resolver, nameserver,
//!   client, attacker) mirroring the paper's experimental setup;
//! * [`outcome`] — attack reports and the accounting behind Table 6.
//!
//! ```
//! use attacks::prelude::*;
//!
//! // Poison the victim resolver's cache with a single intercepted query.
//! let (mut sim, env) = VictimEnvConfig::default().build();
//! let report = HijackDnsAttack::new(HijackDnsConfig::new(env.attacker_addr)).run(&mut sim, &env);
//! assert!(report.success);
//! assert!(env.poisoned(&sim, &"www.vict.im".parse().unwrap(), env.attacker_addr));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod craft;
pub mod dnssec_vectors;
pub mod env;
pub mod fragdns;
pub mod hijackdns;
pub mod outcome;
pub mod saddns;
pub mod vectors;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::attacker::{AttackerNode, ObservedIcmp, ObservedUdp};
    pub use crate::craft::{craft_malicious_tail, fragment_layout, record_spans, CraftedTail, RecordSpan};
    pub use crate::dnssec_vectors::{
        DowngradeToInsecureAttack, Nsec3OptOutAbuseAttack, RolloverForgeryAttack, ZoneWalkingAttack,
    };
    pub use crate::env::{
        addrs, EnvTemplate, QueryTrigger, SignedZoneProfile, VictimEnv, VictimEnvConfig, ZoneSecurity,
    };
    pub use crate::fragdns::{FragDnsAttack, FragDnsConfig};
    pub use crate::hijackdns::{HijackDnsAttack, HijackDnsConfig, HijackForgery, HijackKind};
    pub use crate::outcome::{AttackAggregate, AttackReport, FailureReason, PoisonMethod, Stealth};
    pub use crate::saddns::{SadDnsAttack, SadDnsConfig, CLOSED_PORT_PROBE_BASE, ICMP_PROBE_BATCH};
    pub use crate::vectors::{self, AttackVector};
}

pub use prelude::*;

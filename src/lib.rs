//! # cross-layer-attacks
//!
//! Umbrella crate of the workspace reproducing *"From IP to Transport and
//! Beyond: Cross-Layer Attacks Against Applications"* (SIGCOMM 2021). It
//! re-exports every sub-crate so examples, integration tests and downstream
//! users can depend on a single package:
//!
//! * [`netsim`] — deterministic packet-level network simulator and its
//!   event trace (packets and attack-phase spans, off by default);
//! * [`dns`] — DNS wire format, resolvers, nameservers, caches;
//! * [`bgp`] — AS-level routing, prefix hijacks, RPKI/ROV;
//! * [`attacks`] — the HijackDNS, SadDNS and FragDNS poisoning methodologies;
//! * [`apps`] — the application taxonomy and exploit behaviour (Tables 1–2);
//! * [`ca`] — the ACME-style certificate authority: issuance pipeline,
//!   multi-vantage-point domain validation, fraudulent-certificate grids;
//! * [`telemetry`] — the deterministic metrics registry and counter-family
//!   declarations shared by every layer;
//! * [`xlayer_core`] — measurement campaigns, comparative analysis,
//!   cross-layer scenarios and countermeasure ablations (Tables 3–6,
//!   Figures 3–5).
//!
//! ```
//! use cross_layer_attacks::attacks::prelude::*;
//!
//! let (mut sim, env) = VictimEnvConfig::default().build();
//! let report = FragDnsAttack::new(FragDnsConfig::new(env.attacker_addr)).run(&mut sim, &env);
//! assert!(report.success);
//! ```
#![forbid(unsafe_code)]

pub mod cli;

pub use apps;
pub use attacks;
pub use bgp;
pub use ca;
pub use dns;
pub use netsim;
pub use telemetry;
pub use xlayer_core;

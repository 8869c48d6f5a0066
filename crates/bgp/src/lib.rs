//! # bgp — inter-domain routing substrate
//!
//! AS-level topology ([`topology`]), Gao-Rexford route propagation (the
//! crate-internal `propagation`), BGP prefix hijack evaluation ([`hijack`])
//! and RPKI — ROAs, repositories, relying parties and route-origin
//! validation ([`rpki`]).
//!
//! Together these provide the control-plane half of the HijackDNS poisoning
//! methodology and the RPKI security mechanism that the paper's headline
//! cross-layer attack downgrades via DNS cache poisoning.
//!
//! ```
//! use bgp::prelude::*;
//!
//! // Can the attacker capture the victim's traffic with a same-prefix hijack?
//! let (topo, map) = AsTopology::small_test_topology();
//! let outcome = same_prefix_hijack(
//!     &topo,
//!     "30.0.0.0/22".parse().unwrap(),
//!     map["stub1"],          // victim origin
//!     map["stub3"],          // attacker origin
//!     Some(map["stub4"]),    // the AS whose traffic we care about
//!     &Default::default(),   // nobody enforces ROV
//!     &[],                   // no ROAs
//! );
//! assert!(outcome.captured_fraction > 0.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hijack;
mod propagation;
pub mod rpki;
pub mod topology;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::hijack::{
        same_prefix_hijack, same_prefix_success_rate, sub_prefix_hijack, subprefix_hijackable, Announcement,
        MAX_ACCEPTED_PREFIX_LEN,
    };
    pub use crate::rpki::{validate, RelyingParty, Roa, RovPolicy, RpkiRepository, Validity};
    pub use crate::topology::{AsId, AsTier, AsTopology};
    pub use netsim::prefix::Prefix;
}

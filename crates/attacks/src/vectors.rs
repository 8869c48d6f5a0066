//! The object-safe [`AttackVector`] abstraction and the vector registry.
//!
//! The paper's central structural observation (Section 4) is that every
//! cross-layer attack is the *same pipeline* instantiated with different
//! parts: **trigger** a query at the victim resolver, **poison** the cache
//! by some off-path methodology, then **exploit** the poisoned record at the
//! application layer (Section 4.5). Attacker capability and exploited
//! application are orthogonal axes, so the poisoning step is modelled as a
//! trait object: any code that drives the pipeline — the countermeasure
//! ablation, the cross-layer scenarios, the campaign engine — works against
//! `dyn AttackVector` and never dispatches on the methodology itself.
//!
//! The three Section 3 methodologies implement the trait:
//!
//! | Vector | Poisoning step |
//! | ------ | -------------- |
//! | [`HijackDnsAttack`] | BGP sub-/same-prefix hijack intercepts the query (§3.1) |
//! | [`SadDnsAttack`] | ICMP rate-limit side channel + TXID brute force (§3.2) |
//! | [`FragDnsAttack`] | spoofed second fragments in the defrag cache (§3.3) |
//!
//! [`all`] returns the registry of reference-configured vectors; [`quick`]
//! returns single-iteration variants for dense evaluation grids.

use crate::env::{VictimEnv, VictimEnvConfig};
use crate::fragdns::{FragDnsAttack, FragDnsConfig};
use crate::hijackdns::{HijackDnsAttack, HijackDnsConfig};
use crate::outcome::{AttackReport, PoisonMethod};
use crate::saddns::{SadDnsAttack, SadDnsConfig};
use netsim::prelude::*;

/// One off-path cache-poisoning methodology, abstracted so pipelines can be
/// composed without knowing which methodology they carry.
///
/// The trait is the "poison" stage of the paper's trigger → poison → exploit
/// pipeline (Section 4.5): the *trigger* is injected by the driver itself
/// (every methodology needs to control when the resolver's query race
/// opens), and the *exploit* stage — what the application does with the
/// poisoned record — is layered on top by `xlayer_core::scenario`.
///
/// Object safety is deliberate: registries ([`all`], [`quick`]) hand out
/// `Box<dyn AttackVector>`, and the proptests in `tests/scenario_props.rs`
/// verify that dynamic dispatch is byte-identical to calling the concrete
/// drivers directly.
pub trait AttackVector {
    /// Which Section 3 methodology this vector implements.
    fn method(&self) -> PoisonMethod;

    /// Adjusts the victim environment to the preconditions this methodology
    /// needs (e.g. SadDNS narrows the resolver's ephemeral-port range to its
    /// scan range and rate-limits the nameserver so muting works). Called
    /// once, before any defence is applied, so a defence can still override
    /// anything the vector set up.
    fn prepare_env(&self, cfg: &mut VictimEnvConfig);

    /// Executes the poisoning attempt against a built environment.
    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport;
}

impl AttackVector for HijackDnsAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::HijackDns
    }

    /// HijackDNS runs against the standard environment unchanged: the only
    /// preconditions (a hijackable announcement, no ROV on the path) are
    /// properties of the control plane, checked by `run` itself.
    fn prepare_env(&self, _cfg: &mut VictimEnvConfig) {}

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        self.run(sim, env)
    }
}

impl AttackVector for SadDnsAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::SadDns
    }

    /// SadDNS needs a long race window (generous timeout, no retries), an
    /// ephemeral-port range matching its scan range, and a rate-limited
    /// nameserver so the mute step works. This is the single place that
    /// configuration lives — the ablation, the scenarios, the examples and
    /// the tests all call it instead of hand-tuning `VictimEnvConfig`.
    fn prepare_env(&self, cfg: &mut VictimEnvConfig) {
        cfg.resolver.port_range = self.config.scan_range;
        cfg.resolver.query_timeout = Duration::from_secs(30);
        cfg.resolver.max_retries = 0;
        cfg.nameserver = cfg.nameserver.clone().with_rrl(10);
    }

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        self.run(sim, env)
    }
}

impl AttackVector for FragDnsAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::FragDns
    }

    /// FragDNS runs against the standard environment unchanged: fragment
    /// acceptance and the predictable IPID are the baseline the paper
    /// measures against, and defences toggle them off explicitly.
    fn prepare_env(&self, _cfg: &mut VictimEnvConfig) {}

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        self.run(sim, env)
    }
}

/// The reference HijackDNS vector: sub-prefix hijack planting an A record
/// for `www.vict.im` (one intercepted query suffices).
pub fn hijackdns() -> HijackDnsAttack {
    HijackDnsAttack::new(HijackDnsConfig::new(crate::env::addrs::ATTACKER))
}

/// The reference SadDNS vector: the 256-port scan range used throughout the
/// workspace's experiments (documented scaling knob — the scan logic is
/// identical for the full 2^16 range, see `xlayer_core::analysis`).
pub fn saddns() -> SadDnsAttack {
    let mut cfg = SadDnsConfig::new(crate::env::addrs::ATTACKER);
    cfg.scan_range = (40000, 40255);
    cfg.max_iterations = 2;
    SadDnsAttack::new(cfg)
}

/// The reference FragDNS vector: `ANY vict.im` forced down to a 548-byte
/// path MTU.
pub fn fragdns() -> FragDnsAttack {
    FragDnsAttack::new(FragDnsConfig::new(crate::env::addrs::ATTACKER))
}

/// The registry of all three methodologies under their reference
/// configurations, in the order the paper's tables list them.
pub fn all() -> Vec<Box<dyn AttackVector>> {
    vec![Box::new(hijackdns()), Box::new(saddns()), Box::new(fragdns())]
}

/// The reference vector for one methodology.
pub fn for_method(method: PoisonMethod) -> Box<dyn AttackVector> {
    match method {
        PoisonMethod::HijackDns => Box::new(hijackdns()),
        PoisonMethod::SadDns => Box::new(saddns()),
        PoisonMethod::FragDns => Box::new(fragdns()),
        PoisonMethod::DowngradeToInsecure => Box::new(crate::dnssec_vectors::downgrade()),
        PoisonMethod::Nsec3OptOutAbuse => Box::new(crate::dnssec_vectors::optout_abuse()),
        PoisonMethod::RolloverForgery => Box::new(crate::dnssec_vectors::rollover_forgery()),
        PoisonMethod::ZoneWalking => Box::new(crate::dnssec_vectors::zone_walking()),
    }
}

/// Single-iteration variants for dense evaluation grids (the countermeasure
/// ablation, the scenario success-rate matrix): SadDNS scans a 128-port
/// range in one iteration, FragDNS plants one round of fragments. This is
/// the **only** place besides [`for_method`] that maps a [`PoisonMethod`] to
/// a concrete driver — everything downstream works with `dyn AttackVector`.
pub fn quick_for(method: PoisonMethod) -> Box<dyn AttackVector> {
    match method {
        PoisonMethod::HijackDns => Box::new(hijackdns()),
        PoisonMethod::SadDns => {
            let mut cfg = SadDnsConfig::new(crate::env::addrs::ATTACKER);
            cfg.scan_range = (40000, 40127);
            cfg.max_iterations = 1;
            Box::new(SadDnsAttack::new(cfg))
        }
        PoisonMethod::FragDns => {
            let mut cfg = FragDnsConfig::new(crate::env::addrs::ATTACKER);
            cfg.max_iterations = 1;
            Box::new(FragDnsAttack::new(cfg))
        }
        // The DNSSEC vectors are single-shot already: their reference
        // configurations are the quick configurations.
        other => for_method(other),
    }
}

/// All three methodologies under their quick configurations.
pub fn quick() -> Vec<Box<dyn AttackVector>> {
    PoisonMethod::all().into_iter().map(quick_for).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::addrs;

    #[test]
    fn registry_covers_all_methods_in_table_order() {
        let methods: Vec<PoisonMethod> = all().iter().map(|v| v.method()).collect();
        assert_eq!(methods, PoisonMethod::all().to_vec());
        let quick_methods: Vec<PoisonMethod> = quick().iter().map(|v| v.method()).collect();
        assert_eq!(quick_methods, PoisonMethod::all().to_vec());
    }

    #[test]
    fn boxed_execution_matches_concrete_driver() {
        let boxed = for_method(PoisonMethod::HijackDns);
        let mut cfg = VictimEnvConfig::default();
        boxed.prepare_env(&mut cfg);
        let (mut sim, env) = cfg.build();
        let via_box = boxed.execute(&mut sim, &env);

        let concrete = hijackdns();
        let (mut sim, env) = VictimEnvConfig::default().build();
        let direct = concrete.run(&mut sim, &env);
        assert_eq!(via_box, direct, "dyn dispatch must not change the report");
    }

    #[test]
    fn saddns_prepare_env_matches_its_scan_range() {
        let vector = saddns();
        let mut cfg = VictimEnvConfig::default();
        vector.prepare_env(&mut cfg);
        assert_eq!(cfg.resolver.port_range, (40000, 40255));
        assert_eq!(cfg.resolver.max_retries, 0);
        assert_eq!(cfg.resolver.query_timeout, Duration::from_secs(30));
        assert!(cfg.nameserver.rrl_limit.is_some(), "the nameserver must be mutable");
    }

    #[test]
    fn quick_vectors_succeed_undefended() {
        for vector in quick() {
            let mut cfg = VictimEnvConfig { seed: 31, ..Default::default() };
            vector.prepare_env(&mut cfg);
            let (mut sim, env) = cfg.build();
            let report = vector.execute(&mut sim, &env);
            assert!(report.success, "{} must succeed without defences", vector.method());
            assert_eq!(report.malicious_addr, addrs::ATTACKER);
        }
    }
}

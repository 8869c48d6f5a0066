//! Property tests of the `AttackVector` pipeline plumbing: dispatching a
//! methodology through the `attacks::vectors` registry (trait objects,
//! `prepare_env` + `execute`) must be **byte-identical** to hand-wiring the
//! concrete driver against a hand-tuned environment, for any seed. The
//! `Scenario`/`ScenarioCampaign` layers are built entirely on this dispatch,
//! so this is the invariant that makes the ported ablation and cross-layer
//! scenarios trustworthy.

use cross_layer_attacks::attacks::prelude::*;
use cross_layer_attacks::netsim::prelude::*;
use proptest::prelude::*;

/// Runs a registry vector the way the scenario pipeline does: let it prepare
/// the environment, build, execute through the trait object.
fn run_via_registry(vector: &dyn AttackVector, seed: u64) -> AttackReport {
    let mut cfg = VictimEnvConfig { seed, ..Default::default() };
    vector.prepare_env(&mut cfg);
    let (mut sim, env) = cfg.build();
    vector.execute(&mut sim, &env)
}

/// The pre-pipeline hand-wiring of each methodology: the environment tweaks
/// that used to live in every call site, plus a direct call to the concrete
/// driver's inherent `run`.
fn run_concrete(method: PoisonMethod, seed: u64) -> AttackReport {
    match method {
        PoisonMethod::HijackDns => {
            let (mut sim, env) = VictimEnvConfig { seed, ..Default::default() }.build();
            vectors::hijackdns().run(&mut sim, &env)
        }
        PoisonMethod::SadDns => {
            let mut cfg = VictimEnvConfig { seed, ..Default::default() };
            cfg.resolver.port_range = (40000, 40255);
            cfg.resolver.query_timeout = Duration::from_secs(30);
            cfg.resolver.max_retries = 0;
            cfg.nameserver = cfg.nameserver.clone().with_rrl(10);
            let (mut sim, env) = cfg.build();
            let mut attack_cfg = SadDnsConfig::new(addrs::ATTACKER);
            attack_cfg.scan_range = (40000, 40255);
            attack_cfg.max_iterations = 2;
            SadDnsAttack::new(attack_cfg).run(&mut sim, &env)
        }
        PoisonMethod::FragDns => {
            let (mut sim, env) = VictimEnvConfig { seed, ..Default::default() }.build();
            vectors::fragdns().run(&mut sim, &env)
        }
        // The DNSSEC vectors have no pre-pipeline era to reproduce; the
        // hand-wiring is constructing the concrete driver directly.
        PoisonMethod::DowngradeToInsecure => {
            let (mut sim, env) = VictimEnvConfig { seed, ..Default::default() }.build();
            DowngradeToInsecureAttack::new(addrs::ATTACKER).execute(&mut sim, &env)
        }
        PoisonMethod::Nsec3OptOutAbuse => {
            let (mut sim, env) = VictimEnvConfig { seed, ..Default::default() }.build();
            Nsec3OptOutAbuseAttack::new(addrs::ATTACKER).execute(&mut sim, &env)
        }
        PoisonMethod::RolloverForgery => {
            let (mut sim, env) = VictimEnvConfig { seed, ..Default::default() }.build();
            RolloverForgeryAttack::new(addrs::ATTACKER).execute(&mut sim, &env)
        }
        PoisonMethod::ZoneWalking => {
            let (mut sim, env) = VictimEnvConfig { seed, ..Default::default() }.build();
            ZoneWalkingAttack::new().execute(&mut sim, &env)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `vectors::all()` covers every methodology exactly once and its
    /// dynamic dispatch reproduces the concrete drivers' reports exactly.
    #[test]
    fn registry_dispatch_is_byte_identical_to_concrete_drivers(seed in 0u64..100_000) {
        let registry = vectors::all();
        let methods: Vec<PoisonMethod> = registry.iter().map(|v| v.method()).collect();
        prop_assert_eq!(methods, PoisonMethod::all().to_vec());
        for vector in &registry {
            let via_registry = run_via_registry(vector.as_ref(), seed);
            let direct = run_concrete(vector.method(), seed);
            prop_assert_eq!(
                via_registry,
                direct,
                "dyn AttackVector dispatch diverged from the concrete {} driver",
                vector.method()
            );
        }
        // Same contract for the DNSSEC suite, which is dispatched through
        // `for_method` by the dedicated deployment grid.
        for method in PoisonMethod::dnssec_suite() {
            let vector = vectors::for_method(method);
            let via_registry = run_via_registry(vector.as_ref(), seed);
            let direct = run_concrete(method, seed);
            prop_assert_eq!(
                via_registry,
                direct,
                "dyn AttackVector dispatch diverged from the concrete {} driver",
                method
            );
        }
    }

    /// `prepare_env` is idempotent: preparing an already-prepared
    /// configuration changes nothing, so pipelines may compose freely.
    #[test]
    fn prepare_env_is_idempotent(seed in 0u64..100_000) {
        for vector in vectors::all() {
            let mut once = VictimEnvConfig { seed, ..Default::default() };
            vector.prepare_env(&mut once);
            let mut twice = VictimEnvConfig { seed, ..Default::default() };
            vector.prepare_env(&mut twice);
            vector.prepare_env(&mut twice);
            prop_assert_eq!(
                format!("{once:?}"),
                format!("{twice:?}"),
                "{} prepare_env must be idempotent",
                vector.method()
            );
        }
    }
}

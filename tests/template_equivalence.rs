//! Locks the environment-template fast path against the scratch path: a
//! grid cell prepared **once** (`PreparedCell` / `PreparedIssuanceCell`,
//! snapshotting the post-`prepare_env`, post-defence configuration and the
//! unsigned victim zone in an `EnvTemplate`) and stamped out at many seeds
//! must produce outcomes **byte-identical** to building the whole scenario
//! from scratch at each seed. This is the invariant that lets the campaign
//! drivers reuse one template per (vector × defence) cell without changing
//! a single golden.

use cross_layer_attacks::attacks::prelude::*;
use cross_layer_attacks::ca::prelude::*;
use cross_layer_attacks::xlayer_core::prelude::*;
use cross_layer_attacks::xlayer_core::scenario::run_cell;

/// Every classic (method × defence) cell, reused across several seeds from
/// one prepared template, matches the scratch `run_cell` outcome exactly.
#[test]
fn prepared_cell_matches_scratch_run_cell() {
    for method in PoisonMethod::all() {
        for defence in Defence::all() {
            let cell = PreparedCell::new(method, defence);
            for seed in [1u64, 0x0da1_2021, u64::MAX - 3] {
                let fast = cell.run_at(seed);
                let scratch = run_cell(method, defence, seed);
                assert_eq!(fast, scratch, "template ≠ scratch for {method:?} × {defence:?} @ seed {seed:#x}");
            }
        }
    }
}

/// The DNSSEC suite re-signs the zone per seed (keys derive from the seed),
/// so template reuse must re-run the signing stage — the one seed-dependent
/// part of environment construction — at every `run_at`.
#[test]
fn prepared_cell_matches_scratch_on_dnssec_suite() {
    for method in PoisonMethod::dnssec_suite() {
        for defence in Defence::dnssec_profiles() {
            let cell = PreparedCell::new(method, defence);
            for seed in [7u64, 0xBEEF_CAFE] {
                assert_eq!(
                    cell.run_at(seed),
                    run_cell(method, defence, seed),
                    "template ≠ scratch for {method:?} × {defence:?} @ seed {seed:#x}"
                );
            }
        }
    }
}

/// A scenario whose attack phase rebuilds a **fresh environment** (cold
/// resolver cache, `seed + seed_bump`) must rebuild it from the template
/// identically to a from-scratch run — both environment builds in one run
/// go through the same snapshot.
#[test]
fn fresh_environment_phase_is_template_invariant() {
    let scratch = |seed: u64| {
        Scenario::new(VictimEnvConfig { seed, ..Default::default() })
            .vector(vectors::quick_for(PoisonMethod::SadDns))
            .defences(&[Defence::X20Encoding])
            .attack_phase(AttackPhase::FreshEnvironment { seed_bump: 7 })
            .run()
    };
    let make = |seed: u64| {
        Scenario::new(VictimEnvConfig { seed, ..Default::default() })
            .vector(vectors::quick_for(PoisonMethod::SadDns))
            .defences(&[Defence::X20Encoding])
            .attack_phase(AttackPhase::FreshEnvironment { seed_bump: 7 })
    };
    let template = EnvTemplate::new(make(0).prepared_config());
    for seed in [3u64, 0x05ad_d05e, 991] {
        assert_eq!(make(seed).run_in(&template, seed, None), scratch(seed), "fresh-env rebuild diverged @ seed {seed}");
    }
}

/// The CA grid's prepared cell (template + per-seed `CertIssuanceExploit`)
/// matches the scratch `run_issuance_cell` for every CA methodology and
/// defence the issuance evaluation sweeps.
#[test]
fn prepared_issuance_cell_matches_scratch() {
    for method in PoisonMethod::all() {
        for defence in ca_defences() {
            let cell = PreparedIssuanceCell::new(method, defence);
            for seed in [11u64, 0x00c0_ffee] {
                assert_eq!(
                    cell.run_at(seed),
                    run_issuance_cell(method, defence, seed),
                    "issuance template ≠ scratch for {method:?} × {defence:?} @ seed {seed:#x}"
                );
            }
        }
    }
}

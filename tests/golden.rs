//! Golden-snapshot coverage for every rendered artifact of the evaluation:
//! Tables 1–6 and the Figure 3/4 CDFs are rendered and compared byte-for-
//! byte against committed fixtures under `tests/golden/`. Any refactor that
//! silently changes a paper number — a reordered RNG draw, a sharding
//! change, a float-formatting tweak — fails here instead of shipping.
//!
//! Regenerate the fixtures intentionally with:
//!
//! ```text
//! BLESS=1 cargo test --test golden
//! ```
//!
//! The artifacts are rendered through the sharded campaign engine at
//! `workers = 3`, while the fixtures were blessed from a sequential run —
//! so this suite doubles as an end-to-end lock on thread-count invariance.

use cross_layer_attacks::xlayer_core::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed and cap the fixtures were blessed with. Changing either requires
/// re-blessing (and reviewing the diff!).
const GOLDEN_SEED: u64 = 2021;
const GOLDEN_CAP: u64 = 5_000;

fn blessing() -> bool {
    std::env::var_os("BLESS").is_some_and(|v| v == "1")
}

/// Blessing renders on the **sequential** reference path (`workers = 1`);
/// checking renders at `workers = 3`. A parallel-path bug that is merely
/// self-consistent therefore cannot bless itself into the fixtures — the
/// cross-lock on thread-count invariance is real, not assumed.
fn golden_workers() -> usize {
    if blessing() {
        1
    } else {
        3
    }
}

fn golden_cfg() -> CampaignConfig {
    CampaignConfig::new(GOLDEN_SEED, GOLDEN_CAP).with_workers(golden_workers())
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

/// Compares `rendered` against the committed fixture, or rewrites the
/// fixture when `BLESS=1` is set.
fn check(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create tests/golden");
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("blessing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); run `BLESS=1 cargo test --test golden` and commit it", path.display())
    });
    if rendered != expected {
        let mut msg = format!("rendered {name} diverges from tests/golden/{name}.txt\n");
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            if got != want {
                let _ = writeln!(msg, "first differing line {}:\n  expected: {want}\n  rendered: {got}", i + 1);
                break;
            }
        }
        let _ = writeln!(
            msg,
            "(line counts: rendered {}, expected {})",
            rendered.lines().count(),
            expected.lines().count()
        );
        let _ = writeln!(msg, "if the change is intentional, re-bless with BLESS=1 and review the diff");
        panic!("{msg}");
    }
}

#[test]
fn golden_table1_taxonomy() {
    check("table1", &render_table1());
}

#[test]
fn golden_table2_middleboxes() {
    check("table2", &render_table2());
}

#[test]
fn golden_table3_resolvers() {
    check("table3", &render_table3(&run_table3_with(&golden_cfg())));
}

#[test]
fn golden_table4_domains() {
    check("table4", &render_table4(&run_table4_with(&golden_cfg())));
}

#[test]
fn golden_table5_any_caching() {
    check("table5", &render_table5(&run_table5(GOLDEN_SEED)));
}

#[test]
fn golden_table6_comparison() {
    let cfg = CampaignConfig::new(GOLDEN_SEED, 2_000).with_workers(golden_workers());
    check("table6", &render_table6(&run_table6_with(&cfg, 1)));
}

#[test]
fn golden_figure3_prefix_cdfs() {
    let cdfs = figure3_prefix_distributions_with(&golden_cfg());
    check("figure3", &render_cdfs("Figure 3 — announced prefix lengths (CDF)", &cdfs));
}

#[test]
fn golden_figure4_edns_vs_fragment_cdfs() {
    let (edns, frag) = figure4_edns_vs_fragment_with(&golden_cfg());
    check(
        "figure4",
        &render_cdfs("Figure 4 — resolver EDNS size vs nameserver minimum fragment size (CDF)", &[edns, frag]),
    );
}

#[test]
fn golden_ablation_countermeasures() {
    check("ablation", &render_ablation(&run_ablation(&Defence::all(), GOLDEN_SEED)));
}

#[test]
fn golden_crosslayer_scenarios() {
    // Debug-formatted outcomes of the three headline cross-layer scenarios at
    // the seeds the unit tests pin. These fixtures were blessed *before* the
    // scenarios were ported onto the `Scenario`/`AttackVector` pipeline, so
    // they prove the port is byte-identical, not merely similar.
    let mut out = String::new();
    let _ = writeln!(out, "{:#?}", rpki_downgrade_scenario(21));
    let _ = writeln!(out, "{:#?}", password_recovery_scenario(22));
    let _ = writeln!(out, "{:#?}", spf_downgrade_scenario(23));
    check("crosslayer", &out);
}

#[test]
fn golden_scenario_matrix() {
    // The full (vector × defence × seed) grid at 2 seeds per cell, followed
    // by the CA issuance grid (fraudulent certificates per vector ×
    // defence). Blessing renders at workers=1, checking at workers=3 —
    // same cross-lock on thread-count invariance as the campaign tables.
    // Cell seeds derive from cell *coordinates*, so the CA rows appended
    // here left every pre-existing cell of the fixture byte-identical.
    let matrix = ScenarioCampaign::full_grid(GOLDEN_SEED, 2).run(golden_workers());
    let mut out = render_scenario_matrix(&matrix);
    out.push('\n');
    let issuance = cross_layer_attacks::ca::prelude::IssuanceCampaign::standard(GOLDEN_SEED, 2).run(golden_workers());
    out.push_str(&cross_layer_attacks::ca::prelude::render_issuance_matrix(&issuance));
    out.push('\n');
    // The DNSSEC deployment matrix rides in the same fixture: the four
    // attacks against the DNSSEC pipeline itself across the four deployment
    // profiles, on their own seed stream (DNSSEC_GRID_SALT) so appending
    // this section could not reseed the grids above.
    let dnssec = ScenarioCampaign::dnssec_grid(GOLDEN_SEED, 2).run(golden_workers());
    out.push_str(&render_dnssec_matrix(&dnssec));
    check("scenario_matrix", &out);
}

#[test]
fn golden_telemetry_snapshot() {
    // The merged telemetry snapshot of the full scenario grid (the same grid
    // golden_scenario_matrix locks): every run's resolver and engine
    // counters plus the per-methodology attack aggregates, rendered through
    // `MetricsSnapshot::render`. Blessing at workers=1 and checking at
    // workers=3 locks the snapshot's thread-count invariance byte-for-byte.
    let (_, snapshot) = ScenarioCampaign::full_grid(GOLDEN_SEED, 2).run_with_metrics(golden_workers());
    check("telemetry", &snapshot.render());
}

#[test]
fn golden_ca_ablation() {
    // The CA-layer acceptance rows: multi-vantage validation refuses the
    // off-path chains but not the interception hijack; DNSSEC (with the
    // CA's validating re-fetch) refuses all three.
    use cross_layer_attacks::ca::prelude::{ca_defences, render_issuance_ablation, run_issuance_ablation};
    check("ca_ablation", &render_issuance_ablation(&run_issuance_ablation(&ca_defences(), GOLDEN_SEED)));
}

#[test]
fn golden_figure5_overlaps() {
    let cfg = golden_cfg();
    let mut both = render_venn("Figure 5a — vulnerable resolvers (overlap)", &figure5_resolver_overlap_with(&cfg));
    both.push('\n');
    both.push_str(&render_venn("Figure 5b — vulnerable domains (overlap)", &figure5_domain_overlap_with(&cfg)));
    check("figure5", &both);
}

#[test]
fn golden_saddns_trace() {
    // The Figure 1 message flow: the quick SadDNS vector (mute, trigger,
    // ICMP side-channel scan, 2^16 TXID spray) with the packet trace on.
    // The trace holds ~70 000 entries, so the fixture keeps its size, the
    // FNV-1a digest of the full rendering, and the first and last 20 lines.
    use cross_layer_attacks::attacks::prelude::{vectors, PoisonMethod, VictimEnvConfig};
    let vector = vectors::quick_for(PoisonMethod::SadDns);
    let mut cfg = VictimEnvConfig { seed: GOLDEN_SEED, ..Default::default() };
    vector.prepare_env(&mut cfg);
    let (mut sim, env) = cfg.build();
    sim.trace_mut().enabled = true;
    let report = vector.execute(&mut sim, &env);
    let trace = sim.trace();
    let rendered = trace.render();
    let digest =
        rendered.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    let mut out = String::new();
    let _ = writeln!(out, "success {} attacker_packets {}", report.success, report.attacker_packets);
    let _ = writeln!(out, "entries {} dropped {} fnv1a {digest:016x}", trace.packets().count(), trace.dropped());
    let lines: Vec<&str> = rendered.lines().collect();
    let _ = writeln!(out, "-- first 20 --");
    for line in &lines[..20] {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "-- last 20 --");
    for line in &lines[lines.len() - 20..] {
        let _ = writeln!(out, "{line}");
    }
    check("saddns_trace", &out);
}

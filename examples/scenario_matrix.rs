//! The (vector × defence × seed) attack-success-rate matrix on the sharded
//! campaign engine: every Section 3 methodology against every Section 6
//! defence, each cell backed by `--runs` independently-seeded full attack
//! simulations, fanned out across `--workers` threads. Results are
//! byte-identical for every worker count (the engine's determinism
//! contract).
//!
//! ```text
//! cargo run --release --example scenario_matrix -- \
//!     [--seed N] [--runs N] [--workers N] [--metrics]
//! ```
//!
//! `--metrics` additionally runs the grids through the recorded evaluation
//! path and prints the merged telemetry snapshot (`attacks.*`, `dns.*`,
//! `engine.*`, `campaign.*`) — byte-identical at any worker count.
//! `--help` exits 0; an unknown flag or a bad value exits 2.

use cross_layer_attacks::attacks::prelude::*;
use cross_layer_attacks::cli;
use cross_layer_attacks::xlayer_core::prelude::*;
use std::time::Instant;

fn main() {
    let args = cli::from_env(cli::scenario_matrix);
    let campaign = ScenarioCampaign::full_grid(args.seed, args.runs);
    println!(
        "scenario campaign: seed={} runs/cell={} grid={}x{} ({} attack simulations) workers={} (of {} available)",
        args.seed,
        args.runs,
        campaign.methods.len(),
        campaign.defences.len(),
        campaign.population().expect("the parser bounds --runs"),
        args.workers,
        available_workers()
    );
    let started = Instant::now();
    let mut telemetry = args.metrics.then(cross_layer_attacks::telemetry::MetricsSnapshot::new);
    let matrix = match &mut telemetry {
        Some(snapshot) => {
            let (matrix, m) = campaign.run_with_metrics(args.workers);
            snapshot.merge(&m);
            matrix
        }
        None => campaign.run(args.workers),
    };
    println!("{}", render_scenario_matrix(&matrix));
    let baseline = matrix.cell(PoisonMethod::HijackDns, Defence::None).expect("baseline cell");
    println!(
        "undefended HijackDNS baseline: {}/{} successes, {:.1} queries per success",
        baseline.successes,
        baseline.runs,
        baseline.avg_queries_per_success()
    );
    // The DNSSEC deployment grid: the four attacks against the signing
    // pipeline itself, across the deployment profiles (no DS, NSEC, NSEC3
    // opt-out, strict rollover).
    let dnssec_campaign = ScenarioCampaign::dnssec_grid(args.seed, args.runs);
    let dnssec = match &mut telemetry {
        Some(snapshot) => {
            let (matrix, m) = dnssec_campaign.run_with_metrics(args.workers);
            snapshot.merge(&m);
            matrix
        }
        None => dnssec_campaign.run(args.workers),
    };
    println!("{}", render_dnssec_matrix(&dnssec));
    if let Some(snapshot) = &telemetry {
        println!("telemetry snapshot (merged over both grids):");
        print!("{}", snapshot.render());
    }
    println!("matrix complete in {:.2?} (workers={})", started.elapsed(), args.workers);
}

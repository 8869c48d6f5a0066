//! The campaign-layer performance baseline: the classification fast path
//! (Table 3 + Table 4 on the struct-of-arrays columns) in profiles/sec and
//! the scenario-matrix fast path (one prepared [`EnvTemplate`] per grid
//! cell) in wall-clock seconds, rendered as the committed
//! `BENCH_campaign.json`.
//!
//! ```text
//! cargo run --release --example campaign_perf -- \
//!     [--seed N] [--cap N] [--runs N] [--repeats N] [--workers N] \
//!     [--check-workers N] [--write-bench PATH] [--metrics]
//! ```
//!
//! `--metrics` runs one extra, untimed recorded pass over the scenario
//! grids and prints the merged telemetry snapshot — the timed passes stay on
//! the telemetry-off fast path, so the committed throughput numbers are
//! never perturbed by the export.
//!
//! Every timed quantity is the **minimum over `--repeats` passes** — the
//! shortest pass is the closest to the machine's true cost; the rest is
//! scheduler noise — and the results are asserted identical across passes
//! (and across `--check-workers`, the engine's determinism contract).
//!
//! [`EnvTemplate`]: cross_layer_attacks::attacks::prelude::EnvTemplate

use cross_layer_attacks::xlayer_core::prelude::*;
use std::time::{Duration, Instant};

struct Args {
    seed: u64,
    cap: u64,
    runs: u64,
    repeats: u32,
    workers: usize,
    check_workers: Option<usize>,
    write_bench: Option<String>,
    metrics: bool,
}

const USAGE: &str = "usage: campaign_perf [--seed N] [--cap N] [--runs N] [--repeats N] [--workers N]
       [--check-workers N] [--write-bench PATH] [--metrics]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 2021,
        cap: 200_000,
        runs: 3,
        repeats: 3,
        workers: 1,
        check_workers: None,
        write_bench: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-bench" {
            args.write_bench = Some(it.next().unwrap_or_else(|| usage_error("--write-bench requires a path")));
            continue;
        }
        let mut grab = |name: &str| {
            let value = it.next().unwrap_or_else(|| usage_error(&format!("{name} requires a value")));
            value.parse::<u64>().unwrap_or_else(|e| usage_error(&format!("invalid value for {name}: {value} ({e})")))
        };
        match flag.as_str() {
            "--seed" => args.seed = grab("--seed"),
            "--cap" => args.cap = grab("--cap").max(1),
            "--runs" => args.runs = grab("--runs").max(1),
            "--repeats" => args.repeats = grab("--repeats").max(1) as u32,
            "--workers" => args.workers = grab("--workers").max(1) as usize,
            "--check-workers" => args.check_workers = Some(grab("--check-workers").max(1) as usize),
            "--metrics" => args.metrics = true,
            "--help" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

/// Times `job` `repeats` times, asserting every pass produces the same
/// output, and returns the minimum wall clock with that output.
fn time_min<T: PartialEq + std::fmt::Debug>(repeats: u32, job: impl Fn() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let reference = job();
    let mut best = t0.elapsed();
    for _ in 1..repeats {
        let t0 = Instant::now();
        let again = job();
        best = best.min(t0.elapsed());
        assert_eq!(again, reference, "a timing pass changed the output");
    }
    (best, reference)
}

fn main() {
    let args = parse_args();

    // --- Classification fast path: Table 3 + Table 4, single-threaded. ---
    let classify_profiles: u64 = table3_datasets()
        .iter()
        .map(|s| s.sample_size(args.cap) as u64)
        .chain(table4_datasets().iter().map(|s| s.sample_size(args.cap) as u64))
        .sum();
    let cfg = CampaignConfig::new(args.seed, args.cap);
    let (classify_wall, _) = time_min(args.repeats, || (run_table3_with(&cfg), run_table4_with(&cfg)));
    let classify_rate = classify_profiles as f64 / classify_wall.as_secs_f64().max(1e-9);
    println!(
        "classify: {classify_profiles} profiles in {classify_wall:.3?} (min of {}) = {:.1} M profiles/s",
        args.repeats,
        classify_rate / 1e6
    );

    // --- Scenario-matrix fast path: classic + DNSSEC grids. ---
    let matrix_sims = (ScenarioCampaign::full_grid(args.seed, args.runs).population()
        + ScenarioCampaign::dnssec_grid(args.seed, args.runs).population()) as u64;
    let run_matrices = |workers: usize| {
        (
            ScenarioCampaign::full_grid(args.seed, args.runs).run(workers),
            ScenarioCampaign::dnssec_grid(args.seed, args.runs).run(workers),
        )
    };
    let (matrix_wall, reference) = time_min(args.repeats, || run_matrices(args.workers));
    let matrix_rate = matrix_sims as f64 / matrix_wall.as_secs_f64().max(1e-9);
    println!(
        "matrix: {matrix_sims} attack simulations in {matrix_wall:.3?} (min of {}, workers={}) = {:.1} sims/s",
        args.repeats, args.workers, matrix_rate
    );

    if let Some(check) = args.check_workers {
        assert_eq!(run_matrices(check), reference, "workers={check} changed the matrix vs workers={}", args.workers);
        println!("determinism: workers={check} reproduces workers={} byte-for-byte", args.workers);
    }

    if args.metrics {
        // One untimed recorded pass: the timed loops above stay on the
        // telemetry-off path, so the committed numbers never include export
        // cost. The recorded matrices must match the timed reference.
        let (full, mut snapshot) = ScenarioCampaign::full_grid(args.seed, args.runs).run_with_metrics(args.workers);
        let (dnssec, dnssec_metrics) =
            ScenarioCampaign::dnssec_grid(args.seed, args.runs).run_with_metrics(args.workers);
        assert_eq!((full, dnssec), reference, "the recorded pass changed the matrices");
        snapshot.merge(&dnssec_metrics);
        println!("telemetry snapshot (merged over both grids):");
        print!("{}", snapshot.render());
    }

    if let Some(path) = args.write_bench {
        let json = format!(
            "{{\n  \"bench\": \"campaign_perf\",\n  \"seed\": {},\n  \"repeats\": {},\n  \
             \"classify_cap\": {},\n  \"classify_profiles\": {},\n  \"classify_wall_seconds\": {:.3},\n  \
             \"classify_profiles_per_sec\": {:.0},\n  \"matrix_runs_per_cell\": {},\n  \
             \"matrix_workers\": {},\n  \"matrix_simulations\": {},\n  \"matrix_wall_seconds\": {:.3},\n  \
             \"matrix_sims_per_sec\": {:.1}\n}}\n",
            args.seed,
            args.repeats,
            args.cap,
            classify_profiles,
            classify_wall.as_secs_f64(),
            classify_rate,
            args.runs,
            args.workers,
            matrix_sims,
            matrix_wall.as_secs_f64(),
            matrix_rate,
        );
        std::fs::write(&path, json).expect("write bench file");
        println!("wrote {path}");
    }
}

//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <farm_hit|farm_miss|attack_grid|classify> \
//!     --seconds N [--seed N] [--trace 0|1]
//! ```
//!
//! Prints human-readable report lines, then, as the last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.

use perfbench::{run, Options, Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <farm_hit|farm_miss|attack_grid|classify> \
                     --seconds N [--seed N] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seconds) = (None, None);
    let mut opts =
        Options { workload: Workload::FarmHit, seed: DEFAULT_SEED, seconds: 0.0, trace: false, scale: Scale::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(bad(&"expected a non-negative number"));
                }
                seconds = Some(secs);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

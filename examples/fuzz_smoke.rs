//! CI fuzz-smoke driver: replays the committed corpus and runs every target
//! for a fixed, seeded iteration budget. Any panic or invariant divergence
//! aborts the process with a replayable `--seed`/`--iters` pair in hand.
//! `--help` exits 0; an unknown flag, a bad value or an unknown target exits 2.
//!
//! ```text
//! cargo run --release --example fuzz_smoke -- [--seed N] [--iters N] [--target NAME] [--bless]
//! ```

use cross_layer_attacks::cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = cli::from_env(cli::fuzz_smoke);
    let fail = |message: String| {
        eprintln!("fuzz_smoke: {message}");
        ExitCode::from(2)
    };
    if args.bless {
        return match fuzz::bless_corpus() {
            Ok(written) => {
                println!("blessed {written} canonical corpus entries under {}", fuzz::corpus_dir().display());
                ExitCode::SUCCESS
            }
            Err(e) => fail(format!("bless failed: {e}")),
        };
    }
    let targets = fuzz::targets();
    if let Some(name) = args.target.as_deref().filter(|&name| targets.iter().all(|t| t.name != name)) {
        return fail(format!("no target named {name}"));
    }
    for target in targets.iter().filter(|t| args.target.as_deref().is_none_or(|name| name == t.name)) {
        let replayed = fuzz::replay_corpus(target);
        let executed = fuzz::run_target(target, args.seed, args.iters);
        println!("{:16} corpus={replayed:3} fuzzed={executed} seed={:#x} ok", target.name, args.seed);
    }
    ExitCode::SUCCESS
}

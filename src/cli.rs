//! The one flag parser of every binary: one parse function per binary lists
//! its flags and their ranges and returns the config, [`Parsed::Help`] or a
//! [`UsageError`]. It never exits, so a test can drive it with any argv;
//! `main` hands it to [`from_env`]. A count is at least 1, a millisecond
//! value at most `u64::MAX / 1_000_000` (the nanosecond clock's limit), and
//! a worker count is clamped to `1..=available_workers()`.

use attacks::env::addrs;
use dns::farm::{FARM_CLIENT_BASE, FARM_NAMESERVER, FARM_RESOLVER_BASE};
use netsim::prelude::Duration;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;
use xlayer_core::prelude::{available_workers, CampaignConfig, FarmCampaignConfig, ScenarioCampaign};

/// A well-formed argv: the config to run, or `--help` with the usage line.
#[derive(Debug)]
pub enum Parsed<T> {
    Run(T),
    /// `--help` was given: print this usage line and exit 0.
    Help(&'static str),
}

/// An unknown flag, a missing or unparsable value, or a value out of range,
/// with the binary's usage line.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError {
    pub message: String,
    pub usage: &'static str,
}

/// Parses the process's arguments with `parse` and returns the config. On
/// `--help` it prints the usage line and exits 0; on a usage error it prints
/// the error and the usage line to stderr and exits 2.
pub fn from_env<T>(parse: impl FnOnce(std::iter::Skip<std::env::Args>) -> Result<Parsed<T>, UsageError>) -> T {
    match parse(std::env::args().skip(1)) {
        Ok(Parsed::Run(config)) => config,
        Ok(Parsed::Help(usage)) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(UsageError { message, usage }) => {
            eprintln!("{message}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// Reads `args` flag by flag into `config`. `on_flag` reads one flag's
/// value from the rest of the argv (see [`set`]) and returns `Ok(false)` for
/// a flag the binary does not have. `--help` ends the reading.
fn parse<T, A, F>(args: A, usage: &'static str, mut config: T, mut on_flag: F) -> Result<Parsed<T>, UsageError>
where
    A: IntoIterator<Item = String>,
    F: FnMut(&mut T, &str, &mut A::IntoIter) -> Result<bool, String>,
{
    let mut rest = args.into_iter();
    while let Some(flag) = rest.next() {
        if flag == "--help" {
            return Ok(Parsed::Help(usage));
        }
        match on_flag(&mut config, &flag, &mut rest) {
            Ok(true) => {}
            Ok(false) => return Err(UsageError { message: format!("unknown flag {flag}"), usage }),
            Err(message) => return Err(UsageError { message, usage }),
        }
    }
    Ok(Parsed::Run(config))
}

/// Stores a flag's value and tells [`parse`] the flag is known.
fn set<T>(field: &mut T, value: Result<T, String>) -> Result<bool, String> {
    *field = value?;
    Ok(true)
}

/// The value after `flag`, parsed as `T` and checked against `range`.
fn value<T>(rest: &mut impl Iterator<Item = String>, flag: &str, range: RangeInclusive<T>) -> Result<T, String>
where
    T: FromStr<Err: Display> + PartialOrd + Display,
{
    let raw = rest.next().ok_or_else(|| format!("{flag} requires a value"))?;
    let value: T = raw.parse().map_err(|e| format!("invalid value for {flag}: {raw} ({e})"))?;
    if !range.contains(&value) {
        return Err(format!("{flag} must be in {}..={}, got {value}", range.start(), range.end()));
    }
    Ok(value)
}

/// Clamped, not refused: `run_shards` caps its threads only at the shard
/// count, so without this a large value would start that many threads.
fn workers(rest: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    Ok(value(rest, flag, 0..=usize::MAX)?.clamp(1, available_workers()))
}

fn millis(rest: &mut impl Iterator<Item = String>, flag: &str) -> Result<Duration, String> {
    value(rest, flag, 1..=u64::MAX / 1_000_000).map(Duration::from_millis)
}

/// `engine_farm`'s flags, one field per flag (`--check-workers` is
/// `check_workers`); the farm's own flags fill `cfg`.
#[derive(Debug)]
pub struct FarmArgs {
    pub cfg: FarmCampaignConfig,
    pub check_workers: Option<usize>,
    pub loaded_saddns: Option<u32>,
    pub metrics: bool,
}

const ENGINE_FARM_USAGE: &str = "usage: engine_farm [--seed N] [--hosts N] [--shards N] [--workers N] [--duration-ms N]
       [--think-ms N] [--names N] [--resolvers N] [--check-workers N] [--loaded-saddns N] [--metrics]
The address plan bounds a shard's clients (--hosts / --shards, rounded up), --loaded-saddns and --resolvers;
memory, not addresses, bounds smaller values: --hosts 381681973 --shards 1 tries to allocate 9.2 GB.";

/// The most clients one farm shard holds: its stub block counts up from
/// `FARM_CLIENT_BASE` and must end below the farm's nameserver.
const MAX_SHARD_CLIENTS: u32 = FARM_NAMESERVER.to_bits() - FARM_CLIENT_BASE.to_bits();
/// The most background clients of `--loaded-saddns`: their block counts up
/// from `FARM_CLIENT_BASE` and must end below the victim's nameserver.
const MAX_LOADED_CLIENTS: u32 = addrs::NAMESERVER.to_bits() - FARM_CLIENT_BASE.to_bits();
/// The most resolver frontends: they count up from `FARM_RESOLVER_BASE` and
/// must end below the client block.
const MAX_RESOLVERS: u32 = FARM_CLIENT_BASE.to_bits() - FARM_RESOLVER_BASE.to_bits();

/// Parses `engine_farm`'s flags. More shards than hosts is a usage error: a
/// shard needs a host. So is a shard, a `--loaded-saddns` block or a
/// frontend range that would run into another host's address.
pub fn engine_farm(args: impl IntoIterator<Item = String>) -> Result<Parsed<FarmArgs>, UsageError> {
    let cfg = FarmCampaignConfig { workers: available_workers(), ..Default::default() };
    let defaults = FarmArgs { cfg, check_workers: None, loaded_saddns: None, metrics: false };
    let parsed = parse(args, ENGINE_FARM_USAGE, defaults, |a, flag, rest| match flag {
        "--seed" => set(&mut a.cfg.seed, value(rest, flag, 0..=u64::MAX)),
        "--hosts" => set(&mut a.cfg.hosts, value(rest, flag, 1..=u32::MAX)),
        "--shards" => set(&mut a.cfg.shards, value(rest, flag, 1..=u32::MAX)),
        "--workers" => set(&mut a.cfg.workers, workers(rest, flag)),
        "--duration-ms" => set(&mut a.cfg.shard.duration, millis(rest, flag)),
        "--think-ms" => set(&mut a.cfg.shard.mean_think, millis(rest, flag)),
        "--names" => set(&mut a.cfg.shard.names, value(rest, flag, 1..=u32::MAX)),
        "--resolvers" => set(&mut a.cfg.shard.resolvers, value(rest, flag, 1..=MAX_RESOLVERS)),
        "--check-workers" => set(&mut a.check_workers, workers(rest, flag).map(Some)),
        "--loaded-saddns" => set(&mut a.loaded_saddns, value(rest, flag, 0..=MAX_LOADED_CLIENTS).map(Some)),
        "--metrics" => set(&mut a.metrics, Ok(true)),
        _ => Ok(false),
    })?;
    match &parsed {
        Parsed::Run(FarmArgs { cfg, .. }) if cfg.shards > cfg.hosts => Err(UsageError {
            message: format!("--shards {} exceeds --hosts {}: a shard needs a host", cfg.shards, cfg.hosts),
            usage: ENGINE_FARM_USAGE,
        }),
        Parsed::Run(FarmArgs { cfg, .. }) if cfg.hosts.div_ceil(cfg.shards) > MAX_SHARD_CLIENTS => Err(UsageError {
            message: format!(
                "--hosts {} over --shards {} puts {} clients in one shard; a shard holds at most {MAX_SHARD_CLIENTS}",
                cfg.hosts,
                cfg.shards,
                cfg.hosts.div_ceil(cfg.shards)
            ),
            usage: ENGINE_FARM_USAGE,
        }),
        _ => Ok(parsed),
    }
}

/// `scenario_matrix`'s flags, one field per flag.
#[derive(Debug)]
pub struct MatrixArgs {
    pub seed: u64,
    pub runs: u64,
    pub workers: usize,
    pub metrics: bool,
}

/// Parses `scenario_matrix`'s flags. A `--runs` for which either grid has
/// more simulations than `usize` can count is a usage error.
pub fn scenario_matrix(args: impl IntoIterator<Item = String>) -> Result<Parsed<MatrixArgs>, UsageError> {
    let defaults = MatrixArgs { seed: 2021, runs: 3, workers: available_workers(), metrics: false };
    let usage = "usage: scenario_matrix [--seed N] [--runs N] [--workers N] [--metrics]";
    let parsed = parse(args, usage, defaults, |a, flag, rest| match flag {
        "--seed" => set(&mut a.seed, value(rest, flag, 0..=u64::MAX)),
        "--runs" => set(&mut a.runs, value(rest, flag, 1..=u64::MAX)),
        "--workers" => set(&mut a.workers, workers(rest, flag)),
        "--metrics" => set(&mut a.metrics, Ok(true)),
        _ => Ok(false),
    })?;
    match &parsed {
        Parsed::Run(MatrixArgs { seed, runs, .. })
            if [ScenarioCampaign::full_grid, ScenarioCampaign::dnssec_grid]
                .iter()
                .any(|grid| grid(*seed, *runs).population().is_none()) =>
        {
            Err(UsageError {
                message: format!("--runs {runs} makes a grid of more than {} simulations", usize::MAX),
                usage,
            })
        }
        _ => Ok(parsed),
    }
}

/// Parses `ca_issuance`'s one flag, `--seed`.
pub fn ca_issuance(args: impl IntoIterator<Item = String>) -> Result<Parsed<u64>, UsageError> {
    parse(args, "usage: ca_issuance [--seed N]", 2021, |seed, flag, rest| match flag {
        "--seed" => set(seed, value(rest, flag, 0..=u64::MAX)),
        _ => Ok(false),
    })
}

/// `measurement_campaign`'s flags: `--saddns-runs` and the rest in `cfg`.
#[derive(Debug)]
pub struct CampaignArgs {
    pub cfg: CampaignConfig,
    pub saddns_runs: u64,
}

/// Parses `measurement_campaign`'s flags.
pub fn measurement_campaign(args: impl IntoIterator<Item = String>) -> Result<Parsed<CampaignArgs>, UsageError> {
    let cfg = CampaignConfig::new(2021, 20_000).with_workers(available_workers());
    let usage = "usage: measurement_campaign [--seed N] [--cap N] [--workers N] [--saddns-runs N]";
    parse(args, usage, CampaignArgs { cfg, saddns_runs: 1 }, |a, flag, rest| match flag {
        "--seed" => set(&mut a.cfg.seed, value(rest, flag, 0..=u64::MAX)),
        "--cap" => set(&mut a.cfg.sample_cap, value(rest, flag, 1..=u64::MAX)),
        "--workers" => set(&mut a.cfg.workers, workers(rest, flag)),
        "--saddns-runs" => set(&mut a.saddns_runs, value(rest, flag, 1..=u64::MAX)),
        _ => Ok(false),
    })
}

/// `fuzz_smoke`'s flags, one field per flag.
#[derive(Debug)]
pub struct FuzzArgs {
    pub seed: u64,
    pub iters: usize,
    pub target: Option<String>,
    pub bless: bool,
}

/// Parses `fuzz_smoke`'s flags. Whether `--target` names a real target is
/// for the binary to check: this crate does not link the fuzz targets.
pub fn fuzz_smoke(args: impl IntoIterator<Item = String>) -> Result<Parsed<FuzzArgs>, UsageError> {
    let defaults = FuzzArgs { seed: 0x1035, iters: 500, target: None, bless: false };
    let usage = "usage: fuzz_smoke [--seed N] [--iters N] [--target NAME] [--bless]";
    parse(args, usage, defaults, |a, flag, rest| match flag {
        "--seed" => set(&mut a.seed, value(rest, flag, 0..=u64::MAX)),
        "--iters" => set(&mut a.iters, value(rest, flag, 0..=usize::MAX)),
        "--target" => set(&mut a.target, rest.next().map(Some).ok_or_else(|| format!("{flag} requires a name"))),
        "--bless" => set(&mut a.bless, Ok(true)),
        _ => Ok(false),
    })
}

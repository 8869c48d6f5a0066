//! Property tests of the shared flag parser (`cross_layer_attacks::cli`):
//! every binary's parse function, driven in-process with generated argv,
//! returns a config, `Help` or a `UsageError` and never panics, and every
//! config it returns is inside the range policy. No parsed config is run.

use cross_layer_attacks::attacks::env::addrs;
use cross_layer_attacks::cli::{self, Parsed, UsageError};
use cross_layer_attacks::dns::farm::{FARM_CLIENT_BASE, FARM_NAMESERVER, FARM_RESOLVER_BASE};
use cross_layer_attacks::netsim::prelude::Duration;
use cross_layer_attacks::xlayer_core::prelude::{available_workers, ScenarioCampaign};
use proptest::prelude::*;

/// Each binary's flags, as its usage line lists them; `true` marks a flag
/// that takes a value.
const BINARIES: [(&str, &[(&str, bool)]); 5] = [
    (
        "engine_farm",
        &[
            ("--seed", true),
            ("--hosts", true),
            ("--shards", true),
            ("--workers", true),
            ("--duration-ms", true),
            ("--think-ms", true),
            ("--names", true),
            ("--resolvers", true),
            ("--check-workers", true),
            ("--loaded-saddns", true),
            ("--metrics", false),
        ],
    ),
    ("scenario_matrix", &[("--seed", true), ("--runs", true), ("--workers", true), ("--metrics", false)]),
    ("ca_issuance", &[("--seed", true)]),
    ("measurement_campaign", &[("--seed", true), ("--cap", true), ("--workers", true), ("--saddns-runs", true)]),
    ("fuzz_smoke", &[("--seed", true), ("--iters", true), ("--target", true), ("--bless", false)]),
];

/// The tokens that are not a real flag: unknown flags, `--help`, and edge
/// values around every range bound.
const OTHER_TOKENS: &[&str] = &[
    "--help",
    "--bogus",
    "-h",
    "",
    "0",
    "1",
    "3",
    "8",
    "-1",
    "1e3",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709",
    "18446744073710",
    "4294967295",
    "4294967296",
    "dns_message",
];

/// Token `i` of the table every argv is drawn from: each real flag of each
/// binary (so a binary also sees the others' flags, unknown to it), then
/// `OTHER_TOKENS`.
fn token(i: usize) -> &'static str {
    let flags = BINARIES.iter().flat_map(|(_, flags)| flags.iter().map(|&(flag, _)| flag));
    let table: Vec<&str> = flags.chain(OTHER_TOKENS.iter().copied()).collect();
    table[i % table.len()]
}

/// One binary's argv from generated steps. A raw step is two tokens from
/// the whole table; any other step is one of the binary's own flags, with a
/// value from `OTHER_TOKENS` if it takes one.
fn argv_for(flags: &[(&str, bool)], steps: &[(usize, usize, bool)]) -> Vec<String> {
    let mut args = Vec::new();
    for &(i, j, raw) in steps {
        if raw {
            args.extend([token(i), token(j)]);
        } else {
            let (flag, takes_value) = flags[i % flags.len()];
            args.push(flag);
            if takes_value {
                args.push(OTHER_TOKENS[j % OTHER_TOKENS.len()]);
            }
        }
    }
    args.into_iter().map(String::from).collect()
}

/// What the farm's address plan holds: clients in one shard (up to the
/// farm's nameserver), `--loaded-saddns` clients (up to the victim's
/// nameserver) and resolver frontends (up to the client block).
fn address_plan() -> (u32, u32, u32) {
    let bits = u32::from;
    (
        bits(FARM_NAMESERVER) - bits(FARM_CLIENT_BASE),
        bits(addrs::NAMESERVER) - bits(FARM_CLIENT_BASE),
        bits(FARM_CLIENT_BASE) - bits(FARM_RESOLVER_BASE),
    )
}

fn argv(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|t| t.to_string()).collect()
}

/// Runs one binary's parse function on `args`. The second half says
/// whether a returned config is inside the range policy (`Err` carries the
/// config, printed).
fn parse(binary: &str, args: Vec<String>) -> (Result<Parsed<()>, UsageError>, Result<(), String>) {
    let in_pool = |w: usize| (1..=available_workers()).contains(&w);
    let in_ms = |d: Duration| (Duration::from_millis(1)..=Duration::from_millis(u64::MAX / 1_000_000)).contains(&d);
    let (shard_clients, loaded_clients, resolvers) = address_plan();
    match binary {
        "engine_farm" => split(cli::engine_farm(args), |a| {
            in_pool(a.cfg.workers)
                && a.check_workers.is_none_or(in_pool)
                && (1..=a.cfg.hosts).contains(&a.cfg.shards)
                && a.cfg.hosts.div_ceil(a.cfg.shards) <= shard_clients
                && a.loaded_saddns.is_none_or(|n| n <= loaded_clients)
                && a.cfg.shard.names >= 1
                && (1..=resolvers).contains(&a.cfg.shard.resolvers)
                && in_ms(a.cfg.shard.duration)
                && in_ms(a.cfg.shard.mean_think)
        }),
        "scenario_matrix" => split(cli::scenario_matrix(args), |a| {
            let fits = |grid: fn(u64, u64) -> ScenarioCampaign| grid(a.seed, a.runs).population().is_some();
            in_pool(a.workers)
                && a.runs >= 1
                && fits(ScenarioCampaign::full_grid)
                && fits(ScenarioCampaign::dnssec_grid)
        }),
        "ca_issuance" => split(cli::ca_issuance(args), |_| true),
        "measurement_campaign" => split(cli::measurement_campaign(args), |a| {
            in_pool(a.cfg.workers) && a.cfg.sample_cap >= 1 && a.saddns_runs >= 1
        }),
        "fuzz_smoke" => split(cli::fuzz_smoke(args), |_| true),
        other => unreachable!("no binary {other}"),
    }
}

/// Runs one binary's parse function on `args`, checks the outcome against
/// the range policy and returns the outcome's kind.
fn check(binary: &str, args: Vec<String>) -> Result<&'static str, TestCaseError> {
    let (shown, had_help) = (format!("{args:?}"), args.iter().any(|a| a == "--help"));
    let (outcome, in_range) = parse(binary, args);
    prop_assert!(in_range.is_ok(), "{binary} {shown}: config out of range: {}", in_range.unwrap_err());
    match outcome {
        Ok(Parsed::Run(())) => Ok("run"),
        Ok(Parsed::Help(usage)) => {
            prop_assert!(had_help, "{binary}: Help without --help");
            prop_assert!(usage.starts_with(&format!("usage: {binary} ")), "{binary}: usage {usage:?}");
            Ok("help")
        }
        Err(err) => {
            prop_assert!(!err.message.is_empty(), "{binary}: empty error message");
            prop_assert!(err.usage.starts_with(&format!("usage: {binary} ")), "{binary}: usage {:?}", err.usage);
            Ok("error")
        }
    }
}

fn split<T: std::fmt::Debug>(
    outcome: Result<Parsed<T>, UsageError>,
    in_range: impl Fn(&T) -> bool,
) -> (Result<Parsed<()>, UsageError>, Result<(), String>) {
    let checked = match &outcome {
        Ok(Parsed::Run(config)) if !in_range(config) => Err(format!("{config:?}")),
        _ => Ok(()),
    };
    (outcome.map(strip), checked)
}

fn strip<T>(parsed: Parsed<T>) -> Parsed<()> {
    match parsed {
        Parsed::Run(_) => Parsed::Run(()),
        Parsed::Help(usage) => Parsed::Help(usage),
    }
}

fn expect_error(binary: &str, tokens: &[&str], message: &str) {
    match parse(binary, argv(tokens)).0 {
        Err(err) => assert_eq!(err.message, message, "{binary} {tokens:?}"),
        Ok(p) => panic!("{binary} {tokens:?}: expected a usage error, got {p:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn no_argv_panics_and_every_config_is_in_range(
        steps in proptest::collection::vec((0..usize::MAX, 0..usize::MAX, any::<bool>()), 0..6)
    ) {
        for (binary, flags) in BINARIES {
            check(binary, argv_for(flags, &steps))?;
        }
    }
}

#[test]
fn every_listed_flag_is_accepted_and_in_the_usage_line() {
    for (binary, flags) in BINARIES {
        let Ok(Parsed::Help(usage)) = parse(binary, argv(&["--help"])).0 else { panic!("{binary} --help") };
        for &(flag, takes_value) in flags {
            assert!(usage.contains(&format!("[{flag} ")) || usage.contains(&format!("[{flag}]")), "{usage}: {flag}");
            let args = if takes_value { argv(&[flag, "8"]) } else { argv(&[flag]) };
            assert_eq!(check(binary, args.clone()).unwrap(), "run", "{binary} {args:?}");
            let mut repeated = args.clone();
            repeated.extend(args);
            assert_eq!(check(binary, repeated.clone()).unwrap(), "run", "{binary} {repeated:?}");
            if takes_value {
                assert_eq!(check(binary, argv(&[flag])).unwrap(), "error", "{binary} {flag} without a value");
            }
        }
        assert_eq!(check(binary, argv(&["--bogus"])).unwrap(), "error", "{binary} --bogus");
        assert_eq!(check(binary, argv(&[])).unwrap(), "run", "{binary} with no flags");
    }
}

#[test]
fn out_of_range_values_are_usage_errors() {
    let max_ms = "--duration-ms must be in 1..=18446744073709, got 18446744073710";
    expect_error("engine_farm", &["--duration-ms", "18446744073710"], max_ms);
    let max_think = "--think-ms must be in 1..=18446744073709, got 18446744073710";
    expect_error("engine_farm", &["--think-ms", "18446744073710"], max_think);
    let wide = "invalid value for --hosts: 4294967296 (number too large to fit in target type)";
    expect_error("engine_farm", &["--hosts", "4294967296"], wide);
    expect_error(
        "engine_farm",
        &["--hosts", "3", "--shards", "8"],
        "--shards 8 exceeds --hosts 3: a shard needs a host",
    );
    expect_error("engine_farm", &["--hosts", "0", "--shards", "1"], "--hosts must be in 1..=4294967295, got 0");
    expect_error("scenario_matrix", &["--runs", "0"], "--runs must be in 1..=18446744073709551615, got 0");
    expect_error("measurement_campaign", &["--cap", "0"], "--cap must be in 1..=18446744073709551615, got 0");
    expect_error(
        "scenario_matrix",
        &["--runs", "18446744073709551615"],
        "--runs 18446744073709551615 makes a grid of more than 18446744073709551615 simulations",
    );
}

#[test]
fn the_farm_address_plan_bounds_shards_background_clients_and_frontends() {
    assert_eq!(address_plan(), (381_681_973, 381_681_717, 1_178_599_167));
    expect_error(
        "engine_farm",
        &["--hosts", "381681974", "--shards", "1"],
        "--hosts 381681974 over --shards 1 puts 381681974 clients in one shard; a shard holds at most 381681973",
    );
    expect_error(
        "engine_farm",
        &["--hosts", "763363947", "--shards", "2"],
        "--hosts 763363947 over --shards 2 puts 381681974 clients in one shard; a shard holds at most 381681973",
    );
    expect_error(
        "engine_farm",
        &["--loaded-saddns", "381681718"],
        "--loaded-saddns must be in 0..=381681717, got 381681718",
    );
    expect_error(
        "engine_farm",
        &["--resolvers", "1178599168"],
        "--resolvers must be in 1..=1178599167, got 1178599168",
    );
    // The largest values that fit parse; nothing here is run.
    for (tokens, hosts, loaded, resolvers) in [
        (&["--hosts", "381681973", "--shards", "1"][..], 381_681_973, None, 4),
        (&["--hosts", "763363946", "--shards", "2"][..], 763_363_946, None, 4),
        (&["--loaded-saddns", "381681717"][..], 100_000, Some(381_681_717), 4),
        (&["--resolvers", "1178599167"][..], 100_000, None, 1_178_599_167),
    ] {
        let Ok(Parsed::Run(farm)) = cli::engine_farm(argv(tokens)) else { panic!("{tokens:?} fits the address plan") };
        assert_eq!((farm.cfg.hosts, farm.loaded_saddns, farm.cfg.shard.resolvers), (hosts, loaded, resolvers));
    }
}

#[test]
fn the_largest_grid_that_fits_is_accepted_and_one_more_run_is_not() {
    let cells = [ScenarioCampaign::full_grid(0, 1), ScenarioCampaign::dnssec_grid(0, 1)]
        .map(|grid| grid.population().expect("one run per cell fits"));
    let largest = (usize::MAX / cells.into_iter().max().expect("two grids")) as u64;
    let Ok(Parsed::Run(matrix)) = cli::scenario_matrix(argv(&["--runs", &largest.to_string()])) else {
        panic!("--runs {largest} fits both grids")
    };
    assert_eq!(matrix.runs, largest);
    let one_more = (largest + 1).to_string();
    let message = format!("--runs {one_more} makes a grid of more than {} simulations", usize::MAX);
    expect_error("scenario_matrix", &["--runs", &one_more], &message);
}

#[test]
fn the_range_bounds_themselves_are_accepted() {
    let Ok(Parsed::Run(farm)) =
        cli::engine_farm(argv(&["--duration-ms", "18446744073709", "--loaded-saddns", "0", "--seed", "0"]))
    else {
        panic!("the largest millisecond value, the idle baseline and seed 0 are valid")
    };
    assert_eq!(farm.cfg.shard.duration, Duration::from_millis(18_446_744_073_709));
    assert_eq!((farm.loaded_saddns, farm.cfg.seed), (Some(0), 0));

    // Worker counts are clamped into 1..=available_workers(), not refused.
    let Ok(Parsed::Run(many)) = cli::scenario_matrix(argv(&["--workers", "18446744073709551615"])) else { panic!() };
    assert_eq!(many.workers, available_workers());
    let Ok(Parsed::Run(none)) = cli::measurement_campaign(argv(&["--workers", "0"])) else { panic!() };
    assert_eq!(none.cfg.workers, 1);
}

#[test]
fn no_flags_gives_each_binarys_defaults() {
    let Ok(Parsed::Run(farm)) = cli::engine_farm(argv(&[])) else { panic!() };
    assert_eq!(
        (farm.cfg.seed, farm.cfg.hosts, farm.cfg.shards, farm.cfg.workers),
        (2021, 100_000, 8, available_workers())
    );
    assert_eq!((farm.cfg.shard.resolvers, farm.cfg.shard.names), (4, 512));
    assert_eq!((farm.cfg.shard.mean_think, farm.cfg.shard.duration), (Duration::from_secs(2), Duration::from_secs(10)));
    assert_eq!((farm.check_workers, farm.loaded_saddns, farm.metrics), (None, None, false));

    let Ok(Parsed::Run(matrix)) = cli::scenario_matrix(argv(&[])) else { panic!() };
    assert_eq!((matrix.seed, matrix.runs, matrix.workers, matrix.metrics), (2021, 3, available_workers(), false));

    assert!(matches!(cli::ca_issuance(argv(&[])), Ok(Parsed::Run(2021))));

    let Ok(Parsed::Run(campaign)) = cli::measurement_campaign(argv(&[])) else { panic!() };
    assert_eq!((campaign.cfg.seed, campaign.cfg.sample_cap, campaign.cfg.workers), (2021, 20_000, available_workers()));
    assert_eq!(campaign.saddns_runs, 1);

    let Ok(Parsed::Run(fuzz)) = cli::fuzz_smoke(argv(&[])) else { panic!() };
    assert_eq!((fuzz.seed, fuzz.iters, fuzz.target, fuzz.bless), (0x1035, 500, None, false));
}

//! The engine-at-scale benchmark: a resolver farm (anycast frontends sharing
//! one cache, a zone's worth of names, Poisson-ish stub clients) simulated
//! across the sharded campaign engine, timed in wall-clock packets/sec.
//!
//! ```text
//! cargo run --release --example engine_farm -- \
//!     [--seed N] [--hosts N] [--shards N] [--workers N] \
//!     [--duration-ms N] [--think-ms N] [--names N] [--resolvers N] \
//!     [--check-workers N] [--loaded-saddns N] [--metrics]
//! ```
//!
//! `--check-workers N` re-runs the campaign with N workers and
//! asserts the merged stats are byte-identical — the determinism contract CI
//! smokes on every push. `--loaded-saddns N` additionally runs SadDNS against
//! a resolver serving N background stub clients, and prints the last 64
//! packets and phase spans of the simulator's trace if the chain fails.
//! `--metrics` prints the merged telemetry snapshot of the farm run (and of
//! the loaded SadDNS run, when enabled).

use cross_layer_attacks::netsim::prelude::Duration;
use cross_layer_attacks::xlayer_core::prelude::*;
use std::time::Instant;

struct Args {
    cfg: FarmCampaignConfig,
    check_workers: Option<usize>,
    loaded_saddns: Option<u32>,
    metrics: bool,
}

const USAGE: &str = "usage: engine_farm [--seed N] [--hosts N] [--shards N] [--workers N] [--duration-ms N]
       [--think-ms N] [--names N] [--resolvers N] [--check-workers N] [--loaded-saddns N] [--metrics]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: FarmCampaignConfig { workers: available_workers(), ..Default::default() },
        check_workers: None,
        loaded_saddns: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            let value = it.next().unwrap_or_else(|| usage_error(&format!("{name} requires a value")));
            value.parse::<u64>().unwrap_or_else(|e| usage_error(&format!("invalid value for {name}: {value} ({e})")))
        };
        let mut grab_u32 = |name: &str| {
            let value = grab(name);
            u32::try_from(value).unwrap_or_else(|e| usage_error(&format!("invalid value for {name}: {value} ({e})")))
        };
        match flag.as_str() {
            "--seed" => args.cfg.seed = grab("--seed"),
            "--hosts" => args.cfg.hosts = grab_u32("--hosts").max(1),
            "--shards" => args.cfg.shards = grab_u32("--shards").max(1),
            "--workers" => args.cfg.workers = grab("--workers").max(1) as usize,
            "--duration-ms" => args.cfg.shard.duration = Duration::from_millis(grab("--duration-ms").max(1)),
            "--think-ms" => args.cfg.shard.mean_think = Duration::from_millis(grab("--think-ms").max(1)),
            "--names" => args.cfg.shard.names = grab_u32("--names").max(1),
            "--resolvers" => args.cfg.shard.resolvers = grab_u32("--resolvers").max(1),
            "--check-workers" => args.check_workers = Some(grab("--check-workers").max(1) as usize),
            "--loaded-saddns" => args.loaded_saddns = Some(grab_u32("--loaded-saddns")),
            "--metrics" => args.metrics = true,
            "--help" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if args.cfg.shards > args.cfg.hosts {
        usage_error(&format!("--shards {} exceeds --hosts {}: a shard needs a host", args.cfg.shards, args.cfg.hosts));
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = args.cfg;
    println!(
        "engine farm: seed={} hosts={} shards={} workers={} (of {} available) \
         resolvers/shard={} names={} think={} sim-duration={}",
        cfg.seed,
        cfg.hosts,
        cfg.shards,
        cfg.workers,
        available_workers(),
        cfg.shard.resolvers,
        cfg.shard.names,
        cfg.shard.mean_think,
        cfg.shard.duration,
    );

    let started = Instant::now();
    let (stats, farm_metrics) = if args.metrics {
        let (stats, metrics) = run_farm_campaign_with_metrics(&cfg);
        (stats, Some(metrics))
    } else {
        (run_farm_campaign(&cfg), None)
    };
    let wall = started.elapsed();
    let packets_per_sec = stats.packets_delivered as f64 / wall.as_secs_f64().max(1e-9);

    println!(
        "  clients={} queries={} responses={} cache-answers={} upstream={} servfails={}",
        stats.clients,
        stats.queries_sent,
        stats.responses,
        stats.cache_answers,
        stats.upstream_queries,
        stats.servfails,
    );
    println!(
        "  packets-delivered={} bytes-delivered={} cache-entries={}",
        stats.packets_delivered, stats.bytes_delivered, stats.cache_entries,
    );
    println!("  wall={wall:.2?}  throughput={packets_per_sec:.0} packets/sec");
    if let Some(metrics) = &farm_metrics {
        println!("  telemetry snapshot (merged over {} shards):", cfg.shards);
        print!("{}", metrics.render());
    }

    if let Some(check) = args.check_workers {
        let again = run_farm_campaign(&FarmCampaignConfig { workers: check, ..cfg.clone() });
        assert_eq!(again, stats, "workers={} changed the farm stats vs workers={}", check, cfg.workers);
        println!("  determinism: workers={} reproduces workers={} byte-for-byte", check, cfg.workers);
    }

    if let Some(clients) = args.loaded_saddns {
        let loaded = saddns_under_load(cfg.seed, clients);
        println!(
            "  saddns under load: success={} background-clients={} background-queries={} \
             cache-answers={} upstream={}",
            loaded.report.success,
            loaded.background_clients,
            loaded.background_queries,
            loaded.background_cache_answers,
            loaded.background_upstream,
        );
        if let Some(log) = &loaded.post_mortem {
            print!("{log}");
        }
        if args.metrics {
            println!("  loaded-saddns telemetry snapshot:");
            print!("{}", loaded.metrics.render());
        }
    }
}

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
//! `--help` exits 0; an unknown flag or a bad value exits 2.

use cross_layer_attacks::cli;
use cross_layer_attacks::xlayer_core::prelude::*;
use std::time::Instant;

fn main() {
    let cli::FarmArgs { cfg, check_workers, loaded_saddns, metrics } = cli::from_env(cli::engine_farm);
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
    let (stats, farm_metrics) = if metrics {
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

    if let Some(check) = check_workers {
        let again = run_farm_campaign(&FarmCampaignConfig { workers: check, ..cfg.clone() });
        assert_eq!(again, stats, "workers={} changed the farm stats vs workers={}", check, cfg.workers);
        println!("  determinism: workers={} reproduces workers={} byte-for-byte", check, cfg.workers);
    }

    if let Some(clients) = loaded_saddns {
        let loaded = saddns_under_load(cfg.seed, clients);
        println!(
            "  saddns under load: success={} background-clients={} background-queries={} \
             resolver-cache-answers={} resolver-upstream={}",
            loaded.report.success,
            loaded.background_clients,
            loaded.background_queries,
            loaded.resolver_cache_answers,
            loaded.resolver_upstream,
        );
        if let Some(log) = &loaded.post_mortem {
            print!("{log}");
        }
        if metrics {
            println!("  loaded-saddns telemetry snapshot:");
            print!("{}", loaded.metrics.render());
        }
    }
}

//! The million-host farm campaign: sharded scale-out of `dns::farm` over the
//! campaign worker pool, and the SadDNS-under-load experiment.
//!
//! One farm shard is a complete simulation (frontends, nameserver, stub
//! clients) seeded purely from `(master seed, FARM_SALT, shard index)`. The
//! population is split evenly across shards, every shard runs independently
//! on whatever worker picks it up, and the per-shard [`FarmStats`] are merged
//! in shard order — so the merged result is byte-identical for any worker
//! count, the same contract as every other campaign in this crate.

use crate::campaign::{derive_seed, run_shards};
use attacks::env::addrs;
use attacks::prelude::{SadDnsAttack, SadDnsConfig};
use dns::farm::{run_farm_shard, FarmClientHandler, FarmConfig, FarmStats, FARM_CLIENT_BASE};
use dns::prelude::*;
use netsim::prelude::*;

/// Stream salt separating farm shard seeds from every other campaign.
pub const FARM_SALT: u64 = 0xFA12_2021;

/// Configuration of a sharded farm run.
#[derive(Debug, Clone)]
pub struct FarmCampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Total stub clients across all shards.
    pub hosts: u32,
    /// Number of shard simulations to split them into.
    pub shards: u32,
    /// Worker threads.
    pub workers: usize,
    /// Per-shard template (resolvers, name pool, think time, duration); the
    /// `seed` and `clients` fields are overwritten per shard.
    pub shard: FarmConfig,
}

impl Default for FarmCampaignConfig {
    fn default() -> Self {
        FarmCampaignConfig { seed: 2021, hosts: 100_000, shards: 8, workers: 1, shard: FarmConfig::default() }
    }
}

/// Splits `hosts` clients over `shards` shards: the first `hosts % shards`
/// shards take one extra client, so any worker count sees the same split.
pub fn shard_clients(hosts: u32, shards: u32, shard: u32) -> u32 {
    let base = hosts / shards;
    let extra = u32::from(shard < hosts % shards);
    base + extra
}

/// Runs the farm population across the worker pool and merges the stats.
/// The result is a pure function of `(seed, hosts, shards, shard template)` —
/// the worker count only changes the wall-clock, never a counter.
pub fn run_farm_campaign(cfg: &FarmCampaignConfig) -> FarmStats {
    let shards = cfg.shards.max(1) as usize;
    let parts = run_shards(shards, cfg.workers, |shard| {
        let shard_cfg = FarmConfig {
            seed: derive_seed(cfg.seed, FARM_SALT, shard as u64),
            clients: shard_clients(cfg.hosts, shards as u32, shard as u32),
            ..cfg.shard.clone()
        };
        run_farm_shard(shard_cfg)
    });
    let mut merged = FarmStats::default();
    for p in &parts {
        merged.merge(p);
    }
    merged
}

/// Runs the farm population like [`run_farm_campaign`] and additionally
/// returns the telemetry snapshot (`dns.farm.*`) of the merged stats. Every
/// farm counter is additive and `dns.farm.sim_end_ns` is a max gauge,
/// matching [`FarmStats::merge`], so exporting once after the merge equals
/// merging per-shard exports — and is byte-identical at any worker count.
pub fn run_farm_campaign_with_metrics(cfg: &FarmCampaignConfig) -> (FarmStats, telemetry::MetricsSnapshot) {
    let stats = run_farm_campaign(cfg);
    let mut metrics = telemetry::MetricsSnapshot::new();
    stats.export_metrics(&mut metrics);
    metrics.incr("campaign.farm.shards", u64::from(cfg.shards.max(1)));
    (stats, metrics)
}

/// Outcome of a SadDNS run against a resolver serving background load.
#[derive(Debug, Clone)]
pub struct LoadedSadDnsReport {
    /// The attack report itself.
    pub report: attacks::outcome::AttackReport,
    /// Background clients simulated.
    pub background_clients: u32,
    /// Queries the background clients sent during the attack. Unlike the two
    /// resolver deltas below, it leaves out the attacker's own trigger query.
    pub background_queries: u64,
    /// Queries the resolver answered from cache during the attack, the
    /// attacker's included (a resolver-wide delta).
    pub resolver_cache_answers: u64,
    /// Upstream queries the resolver sent during the attack: background cache
    /// misses (the port noise the scan contends with) and the attacker's
    /// trigger query, so the idle baseline reads 1 (a resolver-wide delta).
    pub resolver_upstream: u64,
    /// Total packets delivered in the simulation.
    pub packets_delivered: u64,
    /// The trace's last 64 packets and phase spans, present only when the
    /// attack chain failed — the post-mortem of what the attack was doing,
    /// in sim time, when it died.
    pub post_mortem: Option<String>,
    /// Telemetry of the loaded run: resolver counters (`dns.*`), engine
    /// counters (`engine.*`) and — because this experiment is single-threaded
    /// on one simulator — the thread-local buffer-pool delta
    /// (`engine.pool.*`) accumulated between build and teardown.
    pub metrics: telemetry::MetricsSnapshot,
}

/// Runs SadDNS against the standard victim environment while `clients`
/// arena-hosted stubs keep querying the same resolver — the paper's attacks
/// measured under production-shaped load instead of against an idle host.
///
/// The background clients query real `vict.im` names, so after warm-up most
/// of their traffic is served from cache; TTL expiries and the name mix keep
/// a trickle of upstream queries (and thus extra open ephemeral ports) alive,
/// which is precisely the noise floor a real scan contends with.
pub fn saddns_under_load(seed: u64, clients: u32) -> LoadedSadDnsReport {
    saddns_under_load_with_warmup(seed, clients, Duration::from_secs(5))
}

/// [`saddns_under_load`] with an explicit warm-up. A zero warm-up starts the
/// attack against a cold cache: background misses race the attacker's own
/// trigger for ephemeral ports, and the scan's 1-bit oracle cannot tell them
/// apart — the scale-dependent noise floor the paper's threat model implies.
pub(crate) fn saddns_under_load_with_warmup(seed: u64, clients: u32, warmup: Duration) -> LoadedSadDnsReport {
    let mut cfg = attacks::env::VictimEnvConfig {
        seed,
        resolver: ResolverConfig::new(addrs::RESOLVER).with_delegation("vict.im", vec![addrs::NAMESERVER], false),
        nameserver: NameserverConfig::new(addrs::NAMESERVER).with_rrl(10),
        ..Default::default()
    };
    // Same scaling knobs as the attacks crate's own SadDNS experiments: a
    // 256-port ephemeral range and a generous timeout keep the full machinery
    // (mute, scan, divide and conquer, TXID spray) inside a short sim.
    cfg.resolver.port_range = (40000, 40255);
    cfg.resolver.query_timeout = Duration::from_secs(30);
    cfg.resolver.max_retries = 0;
    // Pool counters are thread-local; this experiment runs one simulator on
    // one thread, so a reset-before/read-after delta is well-defined here
    // (unlike in sharded campaigns, where shards share worker threads).
    netsim::pool::reset_counters();
    let (mut sim, env) = cfg.build();

    // The background population: stub clients querying the victim zone's real
    // names through the same resolver the attacker is racing. The attack's
    // target (`www.vict.im`) is deliberately absent — if the background had
    // already cached it, the trigger query would be a cache hit and never
    // open the ephemeral port the attack races for. With no clients the run
    // is the idle baseline, and there is no block at all.
    if clients > 0 {
        sim.add_stub_block("bg", FARM_CLIENT_BASE, clients);
        sim.set_stub_handler(FarmClientHandler {
            targets: vec![addrs::RESOLVER],
            questions: ["vict.im", "login.vict.im", "ntp.vict.im", "rpki.vict.im"]
                .iter()
                .map(|n| Question { name: n.parse().expect("valid name"), qtype: RecordType::A })
                .collect(),
            mean_think: Duration::from_millis(800),
            // Keep load flowing through the whole attack window.
            end: SimTime::ZERO + Duration::from_secs(600),
        });
    }

    // Warm-up: let the background population prime the cache before the
    // attack begins. Without it, clients whose names miss *while the
    // nameserver is muted* keep ephemeral ports open for the full query
    // timeout, and the port scan isolates a background port instead of the
    // attacker-triggered one (the spray then dies on a question mismatch).
    sim.run_for(warmup);

    let mut attack_cfg = SadDnsConfig::new(addrs::ATTACKER);
    attack_cfg.scan_range = (40000, 40255);
    attack_cfg.max_iterations = 2;
    let baseline = env.resolver(&sim).stats.clone();
    let background_sent = |sim: &Simulator| sim.stub_states().iter().map(|s| u64::from(s.sent)).sum::<u64>();
    let baseline_sent = background_sent(&sim);
    let trace = sim.trace_mut();
    trace.enabled = true;
    trace.capacity = 256;
    let report = SadDnsAttack::new(attack_cfg).run(&mut sim, &env);
    let post_mortem = if report.success { None } else { Some(sim.trace().dump_last(64)) };

    let mut metrics = telemetry::MetricsSnapshot::new();
    env.resolver(&sim).export_metrics(&mut metrics);
    sim.export_metrics(&mut metrics);
    netsim::pool::counters().export_metrics(&mut metrics);

    let rs = env.resolver(&sim).stats.clone();
    LoadedSadDnsReport {
        report,
        background_clients: clients,
        background_queries: background_sent(&sim) - baseline_sent,
        resolver_cache_answers: rs.cache_answers - baseline.cache_answers,
        resolver_upstream: rs.upstream_queries - baseline.upstream_queries,
        packets_delivered: sim.counters().delivered,
        post_mortem,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FarmCampaignConfig {
        FarmCampaignConfig {
            seed: 7,
            hosts: 600,
            shards: 4,
            workers: 1,
            shard: FarmConfig {
                resolvers: 2,
                names: 16,
                mean_think: netsim::time::Duration::from_millis(400),
                duration: netsim::time::Duration::from_secs(2),
                ..FarmConfig::default()
            },
        }
    }

    #[test]
    fn shard_split_covers_every_host_exactly_once() {
        for (hosts, shards) in [(10u32, 3u32), (600, 4), (7, 8), (4096, 16)] {
            let total: u32 = (0..shards).map(|s| shard_clients(hosts, shards, s)).sum();
            assert_eq!(total, hosts);
        }
    }

    #[test]
    fn farm_campaign_worker_count_invariant() {
        let one = run_farm_campaign(&tiny());
        let four = run_farm_campaign(&FarmCampaignConfig { workers: 4, ..tiny() });
        assert_eq!(one, four, "worker count must never change a counter");
        assert_eq!(one.clients, 600);
        assert!(one.queries_sent > 0);
    }

    #[test]
    fn farm_metrics_match_stats_and_are_worker_invariant() {
        let (one_stats, one_metrics) = run_farm_campaign_with_metrics(&tiny());
        let (four_stats, four_metrics) = run_farm_campaign_with_metrics(&FarmCampaignConfig { workers: 4, ..tiny() });
        assert_eq!(one_stats, four_stats);
        assert_eq!(one_stats, run_farm_campaign(&tiny()), "recorded run tallies exactly what the plain run does");
        assert_eq!(one_metrics.render(), four_metrics.render(), "snapshot must be byte-identical across workers");
        assert_eq!(one_metrics.counter("dns.farm.queries_sent"), one_stats.queries_sent);
        assert_eq!(one_metrics.counter("dns.farm.clients"), one_stats.clients);
        assert_eq!(one_metrics.gauge("dns.farm.sim_end_ns"), one_stats.sim_end_ns);
        assert_eq!(one_metrics.counter("campaign.farm.shards"), 4);
    }

    #[test]
    fn cold_cache_background_misses_share_the_port_space() {
        // No warm-up: background cache misses race the attacker's trigger,
        // and the muted nameserver pins their ephemeral ports open for the
        // full query timeout. Whether the 1-bit oracle's divide and conquer
        // lands on the attacker's port or a background one is seed luck, but
        // the noise itself — upstream queries with open ports during the scan
        // window — must be present, unlike in the warmed run.
        let loaded = saddns_under_load_with_warmup(21, 300, Duration::ZERO);
        assert!(loaded.resolver_upstream > 0, "background cache misses open competing ephemeral ports");
        assert_eq!(
            loaded.post_mortem.is_some(),
            !loaded.report.success,
            "the trace is dumped exactly when the chain fails"
        );
    }

    #[test]
    fn zero_clients_run_the_idle_baseline() {
        let idle = saddns_under_load(21, 0);
        assert_eq!(idle.background_clients, 0);
        assert_eq!(idle.background_queries, 0, "no block, so no background query reaches the resolver");
    }

    #[test]
    fn saddns_still_succeeds_under_background_load() {
        let loaded = saddns_under_load(21, 300);
        assert!(loaded.report.success, "SadDNS under load failed: {:?}", loaded.report.notes);
        assert!(loaded.background_queries > 0, "the resolver actually served load");
        assert!(loaded.resolver_cache_answers > 0, "warm cache serves the background stream");
        assert!(loaded.packets_delivered > loaded.report.attacker_packets, "load adds traffic beyond the attack");
        assert!(loaded.post_mortem.is_none(), "a successful chain leaves no post-mortem dump");
        assert!(loaded.metrics.counter("engine.events.popped") > 0, "engine counters exported");
        assert!(loaded.metrics.counter("dns.resolver.client_queries") > 0, "resolver counters exported");
        assert!(
            loaded.metrics.counter("engine.pool.hits") + loaded.metrics.counter("engine.pool.misses") > 0,
            "the pool delta of the single-threaded run is exported"
        );
    }
}

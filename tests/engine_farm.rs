//! Scale lock for the arena-host + time-wheel engine: a 10⁵-host resolver
//! farm campaign — the shape of the `farm_hit` benchmark workload — must
//! replay exactly for the same seed and be byte-identical for any worker
//! count. This is the same determinism contract every table and figure
//! campaign carries, applied to the largest single-sim population in the
//! test suite.

use cross_layer_attacks::dns::farm::FarmConfig;
use cross_layer_attacks::netsim::prelude::*;
use cross_layer_attacks::xlayer_core::prelude::*;

/// A 10⁵-host farm sharded 8 ways. The per-shard sim window is kept short —
/// the scale lock is about the host count (arena sizing, per-shard seed
/// derivation, merge order), not about simulated hours.
fn farm_cfg(workers: usize) -> FarmCampaignConfig {
    FarmCampaignConfig {
        seed: 2021,
        hosts: 100_000,
        shards: 8,
        workers,
        shard: FarmConfig {
            resolvers: 4,
            names: 256,
            mean_think: Duration::from_millis(1_000),
            duration: Duration::from_secs(2),
            ..FarmConfig::default()
        },
    }
}

#[test]
fn hundred_thousand_host_farm_is_replayable_and_worker_count_invariant() {
    let reference = run_farm_campaign(&farm_cfg(1));
    assert_eq!(reference.clients, 100_000, "every host must be simulated exactly once");
    assert!(
        reference.queries_sent > 100_000,
        "the population actually generates load: {} queries",
        reference.queries_sent
    );
    assert!(
        reference.cache_answers > 0 && reference.upstream_queries > 0,
        "the shared frontend cache both hits and misses under a 256-name pool"
    );

    // Same-seed replay: an identical config reproduces every counter.
    let replay = run_farm_campaign(&farm_cfg(1));
    assert_eq!(replay, reference, "same seed + same config must replay the exact FarmStats");

    // Worker-count invariance: shard results merge in shard order, so the
    // thread pool size can only change the wall-clock, never a counter.
    for workers in [2usize, 8] {
        assert_eq!(
            run_farm_campaign(&farm_cfg(workers)),
            reference,
            "workers={workers} changed the 10^5-host farm stats"
        );
    }
}

//! Property-based tests of the telemetry layer: snapshot merging is
//! commutative and associative (so shard-completion order can never leak
//! into a rendered snapshot), rendering is a pure function of the snapshot,
//! every exporting counter family's export commutes with its merge, and —
//! end to end — the merged snapshot of a full scenario-matrix evaluation is
//! byte-identical for workers ∈ {1, 2, 8}.

use cross_layer_attacks::attacks::prelude::{AttackAggregate, AttackReport, PoisonMethod};
use cross_layer_attacks::dns::farm::FarmStats;
use cross_layer_attacks::dns::prelude::ResolverStats;
use cross_layer_attacks::netsim::pool::PoolCounters;
use cross_layer_attacks::netsim::prelude::{Duration, EngineCounters};
use cross_layer_attacks::telemetry::MetricsSnapshot;
use cross_layer_attacks::xlayer_core::prelude::*;
use proptest::prelude::*;

/// A small closed name pool keeps collisions (the interesting case for
/// merging: both sides holding the same key) frequent.
const NAMES: &[&str] = &[
    "engine.events.popped",
    "engine.packets.delivered",
    "dns.cache.hits",
    "dns.resolver.bogus_dropped",
    "attacks.saddns.runs",
    "ca.issuance.orders",
];

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1_000_000), 0..12),
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1_000_000), 0..8),
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1 << 40), 0..10),
    )
        .prop_map(|(counters, gauges, observations)| {
            let mut s = MetricsSnapshot::new();
            for (n, v) in counters {
                s.incr(NAMES[n], v);
            }
            for (n, v) in gauges {
                s.gauge_max(NAMES[n], v);
            }
            for (n, v) in observations {
                s.observe_ns(NAMES[n], v);
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge(a, b) == merge(b, a): counters add, gauges max, histograms
    /// bucket-add — all commutative, so the whole snapshot is.
    #[test]
    fn snapshot_merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");
        prop_assert_eq!(ab.render(), ba.render(), "equal snapshots must render identically");
        prop_assert_eq!(ab.to_json(), ba.to_json(), "equal snapshots must serialise identically");
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)): the reduction tree's
    /// shape can never change the result.
    #[test]
    fn snapshot_merge_is_associative(a in arb_snapshot(), b in arb_snapshot(), c in arb_snapshot()) {
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");
    }

    /// Merging an empty snapshot changes nothing — the per-shard fold can
    /// safely start from `MetricsSnapshot::new()`.
    #[test]
    fn empty_snapshot_is_merge_identity(a in arb_snapshot()) {
        let mut left = MetricsSnapshot::new();
        left.merge(&a);
        prop_assert_eq!(&left, &a, "empty is a left identity");
        let mut right = a.clone();
        right.merge(&MetricsSnapshot::new());
        prop_assert_eq!(&right, &a, "empty is a right identity");
    }
}

/// Exporting the merge of `a` and `b` equals merging their exports — the
/// law that lets per-shard values be exported before or after the fold.
/// Returns the export of the merge.
fn export_commutes_with_merge<T: Clone>(
    a: &T,
    b: &T,
    merge: fn(&mut T, &T),
    export: fn(&T, &mut MetricsSnapshot),
) -> Result<MetricsSnapshot, TestCaseError> {
    let mut merged = a.clone();
    merge(&mut merged, b);
    let mut export_of_merge = MetricsSnapshot::new();
    export(&merged, &mut export_of_merge);
    let mut merge_of_exports = MetricsSnapshot::new();
    export(a, &mut merge_of_exports);
    let mut export_b = MetricsSnapshot::new();
    export(b, &mut export_b);
    merge_of_exports.merge(&export_b);
    prop_assert_eq!(&export_of_merge, &merge_of_exports, "export(merge(a, b)) != merge(export(a), export(b))");
    Ok(export_of_merge)
}

/// Checks one counter family declared with `telemetry::counters!`: the
/// export/merge law on two values built from `draws`, and that the default
/// value exports exactly `N` keys, all zero. `make` fills a struct literal
/// that names every field, so `N` is the declared field count.
fn check_family<T: Clone + Default, const N: usize>(
    draws: &[u64],
    make: fn([u64; N]) -> T,
    merge: fn(&mut T, &T),
    export: fn(&T, &mut MetricsSnapshot),
) -> TestCaseResult {
    let a = make(draws[..N].try_into().expect("enough draws"));
    let b = make(draws[N..2 * N].try_into().expect("enough draws"));
    export_commutes_with_merge(&a, &b, merge, export)?;
    let mut default = MetricsSnapshot::new();
    export(&T::default(), &mut default);
    let rendered = default.render();
    let keys: Vec<&str> = rendered.lines().filter(|line| line.starts_with("  ")).collect();
    prop_assert_eq!(keys.len(), N, "one key per declared field:\n{}", rendered);
    prop_assert!(keys.iter().all(|line| line.ends_with(" 0")), "a default value exports zeros:\n{}", rendered);
    Ok(())
}

fn farm_stats(
    [clients, queries_sent, responses, error_responses, cache_answers, upstream_queries, servfails, cache_entries, packets_delivered, bytes_delivered, sim_end_ns]: [u64; 11],
) -> FarmStats {
    FarmStats {
        clients,
        queries_sent,
        responses,
        error_responses,
        cache_answers,
        upstream_queries,
        servfails,
        cache_entries,
        packets_delivered,
        bytes_delivered,
        sim_end_ns,
    }
}

fn attack_aggregate(
    [runs, successes, duration_ns, total_iterations, total_packets, total_bytes, total_queries, total_probes, total_windows_hit, total_spray_responses]: [u64; 10],
) -> AttackAggregate {
    AttackAggregate {
        runs,
        successes,
        total_duration: Duration::from_nanos(duration_ns),
        total_iterations,
        total_packets,
        total_bytes,
        total_queries,
        total_probes,
        total_windows_hit,
        total_spray_responses,
    }
}

fn resolver_stats(
    [client_queries, cache_answers, udp_upstream_queries, tcp_upstream_queries, tcp_fallbacks, responses_accepted, rejected_txid, rejected_question, rejected_bailiwick_records, rejected_dnssec, truncated_responses, timeouts, servfails]: [u64; 13],
) -> ResolverStats {
    ResolverStats {
        client_queries,
        cache_answers,
        // TCP queries are a subset of all upstream queries.
        upstream_queries: udp_upstream_queries + tcp_upstream_queries,
        tcp_upstream_queries,
        tcp_fallbacks,
        responses_accepted,
        rejected_txid,
        rejected_question,
        rejected_bailiwick_records,
        rejected_dnssec,
        truncated_responses,
        timeouts,
        servfails,
    }
}

fn engine_counters(
    [events_popped, delivered, no_route, link_loss, egress_filtered, mtu_exceeded]: [u64; 6],
) -> EngineCounters {
    EngineCounters { events_popped, delivered, no_route, link_loss, egress_filtered, mtu_exceeded }
}

fn pool_counters([hits, misses, returned, dropped]: [u64; 4]) -> PoolCounters {
    PoolCounters { hits, misses, returned, dropped }
}

/// Two SadDNS shards folded through `AttackAggregate::add`, with the exact
/// `attacks.saddns.*` values their merged export must carry.
fn saddns_shards() -> (AttackAggregate, AttackAggregate) {
    let target = "www.vict.im".parse().expect("valid name");
    let mut r1 = AttackReport::new(PoisonMethod::SadDns, &target, "6.6.6.6".parse().expect("addr"));
    r1.probes_sent = 100;
    r1.windows_hit = 2;
    r1.spray_responses = 4096;
    r1.success = true;
    let mut r2 = AttackReport::new(PoisonMethod::SadDns, &target, "6.6.6.6".parse().expect("addr"));
    r2.probes_sent = 50;
    r2.duration = Duration::from_secs(3);
    let mut shard_a = AttackAggregate::default();
    shard_a.add(&r1);
    let mut shard_b = AttackAggregate::default();
    shard_b.add(&r2);
    (shard_a, shard_b)
}

fn export_saddns(agg: &AttackAggregate, m: &mut MetricsSnapshot) {
    agg.export_metrics(PoisonMethod::SadDns, m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For every counter family that exports, export(merge(a, b)) ==
    /// merge(export(a), export(b)), and a default value registers one zero
    /// key per declared field. `FarmStats::sim_end_ns` covers the max gauge;
    /// the pinned SadDNS shards cover `AttackAggregate::add`.
    #[test]
    fn counter_family_export_commutes_with_merge(draws in proptest::collection::vec(0u64..1 << 40, 26)) {
        check_family(&draws, farm_stats, FarmStats::merge, FarmStats::export_metrics)?;
        check_family(&draws, attack_aggregate, AttackAggregate::merge, export_saddns)?;
        check_family(&draws, resolver_stats, ResolverStats::merge, ResolverStats::export_metrics)?;
        check_family(&draws, engine_counters, EngineCounters::merge, EngineCounters::export_metrics)?;
        check_family(&draws, pool_counters, PoolCounters::merge, PoolCounters::export_metrics)?;

        let (shard_a, shard_b) = saddns_shards();
        let m = export_commutes_with_merge(&shard_a, &shard_b, AttackAggregate::merge, export_saddns)?;
        prop_assert_eq!(m.counter("attacks.saddns.probes_sent"), 150);
        prop_assert_eq!(m.counter("attacks.saddns.windows_hit"), 2);
        prop_assert_eq!(m.counter("attacks.saddns.spray_responses"), 4096);
        prop_assert_eq!(m.counter("attacks.saddns.runs"), 2);
        prop_assert_eq!(m.counter("attacks.saddns.successes"), 1);
    }
}

/// End to end: a full scenario-matrix evaluation (every methodology × every
/// defence, two seeds per cell) produces the byte-identical rendered
/// snapshot for workers ∈ {1, 2, 8} — the telemetry layer inherits the
/// campaign engine's determinism contract — and the unrecorded run
/// (`metrics: None`) tallies the same matrix as the recorded one.
#[test]
fn scenario_matrix_snapshot_is_worker_invariant() {
    let campaign = ScenarioCampaign::full_grid(2021, 2);
    let (reference_matrix, reference) = campaign.run_with_metrics(1);
    assert_eq!(campaign.run(1), reference_matrix, "workers=1: recording changed the matrix");
    assert!(reference.counter("dns.resolver.client_queries") > 0, "resolver telemetry folded in");
    assert!(reference.counter("engine.events.popped") > 0, "engine telemetry folded in");
    assert!(reference.counter("attacks.saddns.runs") > 0, "attack aggregates exported");
    for workers in [2usize, 8] {
        let (matrix, snapshot) = campaign.run_with_metrics(workers);
        assert_eq!(campaign.run(workers), matrix, "workers={workers}: recording changed the matrix");
        assert_eq!(matrix, reference_matrix, "workers={workers} changed the matrix");
        assert_eq!(snapshot, reference, "workers={workers} changed the snapshot");
        assert_eq!(snapshot.render(), reference.render(), "workers={workers} changed the rendered bytes");
        assert_eq!(snapshot.to_json(), reference.to_json(), "workers={workers} changed the JSON bytes");
    }
}

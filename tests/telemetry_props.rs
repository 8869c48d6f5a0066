//! Property-based tests of the telemetry layer: snapshot merging is
//! commutative and associative (so shard-completion order can never leak
//! into a rendered snapshot), rendering is a pure function of the snapshot,
//! and — end to end — the merged snapshot of a full scenario-matrix
//! evaluation is byte-identical for workers ∈ {1, 2, 8}.

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

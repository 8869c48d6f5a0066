//! Property-based tests of the sharded campaign engine: the shard
//! partitioner (every index covered exactly once, shards non-overlapping,
//! results stable under any worker count) and the tally reducers (merge is
//! commutative and associative, so shard-completion order can never leak
//! into a result).

use cross_layer_attacks::xlayer_core::measurements::{DomainClassCounts, ResolverClassCounts};
use cross_layer_attacks::xlayer_core::prelude::*;
use proptest::prelude::*;

fn arb_resolver_counts() -> impl Strategy<Value = ResolverClassCounts> {
    (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000)
        .prop_map(|(n, hijack, saddns, frag)| ResolverClassCounts { n, hijack, saddns, frag })
}

fn arb_domain_counts() -> impl Strategy<Value = DomainClassCounts> {
    (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000).prop_map(
        |(n, hijack, saddns, frag_any, frag_global, dnssec)| DomainClassCounts {
            n,
            hijack,
            saddns,
            frag_any,
            frag_global,
            dnssec,
        },
    )
}

fn arb_venn() -> impl Strategy<Value = VennCounts> {
    (0u64..100_000, 0u64..100_000, 0u64..100_000, 0u64..100_000, 0u64..100_000, 0u64..100_000, 0u64..100_000).prop_map(
        |(a, b, c, d, e, f, g)| VennCounts {
            only_hijack: a,
            only_saddns: b,
            only_frag: c,
            hijack_saddns: d,
            hijack_frag: e,
            saddns_frag: f,
            all_three: g,
        },
    )
}

fn arb_histogram() -> impl Strategy<Value = Histogram> {
    proptest::collection::vec((0u32..64, 1u64..50), 0..20).prop_map(|entries| {
        let mut h = Histogram::default();
        for (value, count) in entries {
            for _ in 0..count {
                h.add(value);
            }
        }
        h
    })
}

/// merge(a, b) == merge(b, a) and merge(merge(a, b), c) == merge(a, merge(b, c))
/// for a tally type, via its inherent `merge`.
macro_rules! assert_merge_laws {
    ($a:expr, $b:expr, $c:expr, $merge:expr) => {{
        let merge = $merge;
        let mut ab = $a.clone();
        merge(&mut ab, $b.clone());
        let mut ba = $b.clone();
        merge(&mut ba, $a.clone());
        prop_assert_eq!(&ab, &ba, "merge must be commutative");
        let mut ab_c = ab.clone();
        merge(&mut ab_c, $c.clone());
        let mut bc = $b.clone();
        merge(&mut bc, $c.clone());
        let mut a_bc = $a.clone();
        merge(&mut a_bc, bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The partitioner tiles `0..n` exactly: contiguous, non-overlapping,
    /// non-empty shards of at most SHARD_SIZE elements.
    #[test]
    fn partitioner_covers_every_index_exactly_once(n in 0usize..200_000) {
        let ranges = shard_ranges(n);
        prop_assert_eq!(ranges.len(), shard_count(n));
        let mut next = 0usize;
        for (shard, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.clone(), shard_range(n, shard));
            prop_assert_eq!(r.start, next, "shards are contiguous (no gap, no overlap)");
            prop_assert!(r.end > r.start, "no shard is empty");
            prop_assert!(r.end - r.start <= SHARD_SIZE, "no shard exceeds SHARD_SIZE");
            next = r.end;
        }
        prop_assert_eq!(next, n, "the union of all shards is exactly 0..n");
    }

    /// Shard membership of an index is a pure function of the index: it never
    /// depends on population size beyond containment.
    #[test]
    fn partitioner_assigns_indices_statically(n in 1usize..100_000, index in 0usize..100_000) {
        prop_assume!(index < n);
        let shard = index / SHARD_SIZE;
        prop_assert!(shard_range(n, shard).contains(&index));
    }

    /// `run_shards` returns per-shard results in shard order for every
    /// worker count in 1..=32 — scheduling can never permute results.
    #[test]
    fn run_shards_is_stable_under_any_worker_count(shards in 1usize..40, workers in 1usize..=32) {
        let expected: Vec<usize> = (0..shards).map(|s| s.wrapping_mul(2654435761)).collect();
        let got = run_shards(shards, workers, |s| s.wrapping_mul(2654435761));
        prop_assert_eq!(got, expected);
    }

    /// Resolver class-count merging is commutative and associative.
    #[test]
    fn resolver_tally_merge_laws(a in arb_resolver_counts(), b in arb_resolver_counts(), c in arb_resolver_counts()) {
        assert_merge_laws!(a, b, c, |x: &mut ResolverClassCounts, y| Tally::merge(x, y));
    }

    /// Domain class-count merging is commutative and associative.
    #[test]
    fn domain_tally_merge_laws(a in arb_domain_counts(), b in arb_domain_counts(), c in arb_domain_counts()) {
        assert_merge_laws!(a, b, c, |x: &mut DomainClassCounts, y| Tally::merge(x, y));
    }

    /// Venn region-count merging is commutative and associative.
    #[test]
    fn venn_merge_laws(a in arb_venn(), b in arb_venn(), c in arb_venn()) {
        assert_merge_laws!(a, b, c, |x: &mut VennCounts, y: VennCounts| x.merge(&y));
    }

    /// Histogram merging is commutative and associative, and preserves totals.
    #[test]
    fn histogram_merge_laws(a in arb_histogram(), b in arb_histogram(), c in arb_histogram()) {
        let total = a.total + b.total;
        assert_merge_laws!(a, b, c, |x: &mut Histogram, y| x.merge(y));
        let mut ab = a.clone();
        ab.merge(b.clone());
        prop_assert_eq!(ab.total, total);
        prop_assert_eq!(ab.counts.values().sum::<u64>(), total);
    }

    /// Shard RNG streams are pure functions of (seed, salt, shard): the same
    /// triple replays the identical stream, and sharded generation equals
    /// its own replay at a different worker count.
    #[test]
    fn shard_streams_replay_exactly(seed in any::<u64>(), salt in any::<u64>(), shard in any::<u64>()) {
        use rand::Rng;
        let mut a = shard_rng(seed, salt, shard);
        let mut b = shard_rng(seed, salt, shard);
        for _ in 0..16 {
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    /// A hoisted `SeedStream` reproduces the one-shot derivations exactly:
    /// `at(i)` is `derive_seed(seed, salt, i)` and `shard(id)` draws the same
    /// stream as `shard_rng(seed, salt, id)`, so a grid may use either form.
    #[test]
    fn seed_stream_matches_the_one_shot_derivations(seed in any::<u64>(), salt in any::<u64>(), index in any::<u64>()) {
        use rand::Rng;
        let stream = SeedStream::new(seed, salt);
        prop_assert_eq!(stream.at(index), derive_seed(seed, salt, index));
        let mut hoisted = stream.shard(index);
        let mut one_shot = shard_rng(seed, salt, index);
        for _ in 0..16 {
            prop_assert_eq!(hoisted.gen::<u64>(), one_shot.gen::<u64>());
        }
    }

    /// End-to-end engine property: a generated population is identical for
    /// any worker count (spot-checked with small populations so the suite
    /// stays fast).
    #[test]
    fn generation_is_worker_invariant(seed in any::<u64>(), n in 1usize..3000, workers in 1usize..=8) {
        use rand::Rng;
        let reference = generate_population(n, seed, 42, 1, |rng| rng.gen::<u32>());
        let parallel = generate_population(n, seed, 42, workers, |rng| rng.gen::<u32>());
        prop_assert_eq!(reference, parallel);
    }
}

//! The sharded measurement-campaign engine.
//!
//! The paper's headline numbers come from Internet-scale campaigns over
//! millions of resolvers and domains. This module turns the evaluation
//! pipeline into a scalable backbone by partitioning a population of `N`
//! elements into deterministic fixed-size shards, deriving every shard's RNG
//! stream purely from `(seed, salt, shard_id)`, fanning the shards out across
//! a hand-rolled `std::thread` + `mpsc` worker pool, and merging the
//! per-shard partial tallies with an order-independent reducer.
//!
//! The determinism contract: **the output is a function of the seed alone,
//! never of the worker count or of scheduling**. Profile `i` always lives in
//! shard `i / SHARD_SIZE` and is always the `(i % SHARD_SIZE)`-th draw from
//! that shard's ChaCha20 stream, so `workers = 1` and `workers = 32` produce
//! byte-identical tables and figures (locked in by `tests/determinism.rs`
//! and the golden snapshots under `tests/golden/`).

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Number of elements per shard. Fixed (never derived from the worker
/// count!) so the shard boundaries — and therefore every per-shard RNG
/// stream — are invariant under the degree of parallelism.
pub const SHARD_SIZE: usize = 4096;

/// Configuration shared by every sharded campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed; all shard streams are derived from it.
    pub seed: u64,
    /// Cap on the generated sample size per dataset.
    pub sample_cap: u64,
    /// Worker threads the shards are fanned out across. Affects wall-clock
    /// time only, never results.
    pub workers: usize,
}

impl CampaignConfig {
    /// A single-threaded configuration (the reference execution).
    pub fn new(seed: u64, sample_cap: u64) -> Self {
        CampaignConfig { seed, sample_cap, workers: 1 }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// The number of hardware threads available to the process.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Number of shards covering a population of `n` elements.
pub fn shard_count(n: usize) -> usize {
    n.div_ceil(SHARD_SIZE)
}

/// The half-open index range `[shard * SHARD_SIZE, ...)` of one shard.
/// Every index in `0..n` is covered by exactly one shard (see the
/// partitioner properties in `tests/campaign_props.rs`).
pub fn shard_range(n: usize, shard: usize) -> Range<usize> {
    let start = shard * SHARD_SIZE;
    start.min(n)..((shard + 1) * SHARD_SIZE).min(n)
}

/// All shard ranges of a population, in ascending index order.
pub fn shard_ranges(n: usize) -> Vec<Range<usize>> {
    (0..shard_count(n)).map(|s| shard_range(n, s)).collect()
}

/// SplitMix64 finaliser: a bijective mixer with good avalanche behaviour.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a shard's ChaCha20 stream purely from `(seed, salt, shard_id)`.
///
/// `salt` separates independent campaigns (datasets, metrics) running under
/// the same master seed; `shard_id` separates the shards of one campaign.
/// Because the derivation never involves worker identity or scheduling, the
/// classification of profile `i` is a pure function of the seed.
pub fn shard_rng(seed: u64, salt: u64, shard_id: u64) -> ChaCha20Rng {
    SeedStream::new(seed, salt).shard(shard_id)
}

/// The shared `(seed, salt)` derivation prefix of [`shard_rng`] and
/// [`derive_seed`] — one definition, so the two sibling derivations can
/// never diverge.
fn stream_state(seed: u64, salt: u64) -> u64 {
    mix64(mix64(seed ^ 0x243f_6a88_85a3_08d3) ^ salt)
}

/// Derives a per-element `u64` seed purely from `(seed, salt, index)` — the
/// scalar sibling of [`shard_rng`], for campaigns whose elements are whole
/// simulations seeded by one integer (e.g. one attack run per grid cell)
/// rather than draws from a shard stream.
pub fn derive_seed(seed: u64, salt: u64, index: u64) -> u64 {
    mix64(stream_state(seed, salt) ^ index)
}

/// A `(seed, salt)` pair with the shared derivation prefix precomputed, so a
/// grid's inner loop pays one `mix64` per cell instead of re-deriving the
/// invariant prefix every time. `SeedStream::new(seed, salt).at(i)` is
/// definitionally [`derive_seed`]`(seed, salt, i)` — both call through the
/// same private `stream_state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// Precomputes the derivation prefix for `(seed, salt)`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SeedStream { state: stream_state(seed, salt) }
    }

    /// The per-element seed at `index`; equal to [`derive_seed`].
    pub fn at(&self, index: u64) -> u64 {
        mix64(self.state ^ index)
    }

    /// The shard ChaCha20 stream at `shard_id`; equal to [`shard_rng`] —
    /// which delegates here, so the two can never diverge.
    pub fn shard(&self, shard_id: u64) -> ChaCha20Rng {
        let mut state = mix64(self.state ^ shard_id);
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            state = mix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        ChaCha20Rng::from_seed(key)
    }
}

/// An order-independent partial result folded per shard and merged across
/// shards. `merge` must be commutative and associative (property-tested in
/// `tests/campaign_props.rs`) so the reduction is independent of completion
/// order.
pub trait Tally: Send {
    /// The per-element profile this tally observes.
    type Profile;

    /// Folds one profile into the tally.
    fn observe(&mut self, profile: &Self::Profile);

    /// Merges another shard's partial tally into this one.
    fn merge(&mut self, other: Self);
}

/// A sharded measurement campaign: how to draw one profile from a shard's
/// RNG stream and which tally to fold it into. Implementations exist for the
/// Table 3/4 classification campaigns, the Figure 3/4 CDF scans and the
/// Figure 5 overlap counts; anything that samples a population fits.
pub trait Campaign: Sync {
    /// The per-element profile.
    type Profile;
    /// The partial result folded per shard.
    type Tally: Tally<Profile = Self::Profile>;

    /// Stream salt separating this campaign's RNG streams from every other
    /// campaign run under the same master seed.
    fn salt(&self) -> u64;

    /// Draws one profile from the shard stream.
    fn draw(&self, rng: &mut ChaCha20Rng) -> Self::Profile;

    /// Creates an empty tally for one shard.
    fn new_tally(&self) -> Self::Tally;

    /// Folds one shard's `count` draws into `tally`. The default draws and
    /// observes one element at a time; campaigns with a columnar
    /// (struct-of-arrays) fast path override it. An override must consume
    /// the RNG stream exactly like `count` calls to [`Campaign::draw`] and
    /// fold the identical elements — `tests/soa_equivalence.rs` locks this
    /// for every overriding campaign.
    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut Self::Tally) {
        for _ in 0..count {
            tally.observe(&self.draw(rng));
        }
    }
}

/// Runs `job` for every shard id in `0..shards` across `workers` threads and
/// returns the results **in shard order**, regardless of which worker
/// finished which shard when. This is the pool primitive everything else is
/// built on: workers pull shard ids from a shared atomic cursor and ship
/// `(shard_id, result)` pairs back over an `mpsc` channel.
pub fn run_shards<T, F>(shards: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if shards == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, shards);
    if workers == 1 {
        return (0..shards).map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = (0..shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let job = &job;
            scope.spawn(move || loop {
                let shard = cursor.fetch_add(1, Ordering::Relaxed);
                if shard >= shards || tx.send((shard, job(shard))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (shard, result) in rx {
            slots[shard] = Some(result);
        }
    });
    slots.into_iter().map(|slot| slot.expect("every shard produces exactly one result")).collect()
}

/// Runs a campaign over a population of `n` elements: shards the index
/// space, draws and observes every element shard-locally, and merges the
/// per-shard tallies in ascending shard order.
pub fn run_campaign<C: Campaign>(campaign: &C, n: usize, cfg: &CampaignConfig) -> C::Tally {
    // The (seed, salt) derivation prefix is invariant across shards — derive
    // it once here instead of per shard inside the fold.
    let stream = SeedStream::new(cfg.seed, campaign.salt());
    let parts = run_shards(shard_count(n), cfg.workers, |shard| {
        let mut rng = stream.shard(shard as u64);
        let mut tally = campaign.new_tally();
        campaign.fold_shard(&mut rng, shard_range(n, shard).len(), &mut tally);
        tally
    });
    let mut acc = campaign.new_tally();
    for part in parts {
        acc.merge(part);
    }
    acc
}

/// Runs a campaign like [`run_campaign`] and additionally returns a
/// telemetry snapshot of the run's shape (`campaign.population`,
/// `campaign.shards`). Shard folds record nothing, so the snapshot is a pure
/// function of `n` and byte-identical at any worker count.
pub fn run_campaign_with_metrics<C: Campaign>(
    campaign: &C,
    n: usize,
    cfg: &CampaignConfig,
) -> (C::Tally, telemetry::MetricsSnapshot) {
    let tally = run_campaign(campaign, n, cfg);
    let mut metrics = telemetry::MetricsSnapshot::new();
    metrics.incr("campaign.population", n as u64);
    metrics.incr("campaign.shards", shard_count(n) as u64);
    (tally, metrics)
}

/// A campaign over a grid whose element at `index` is a **pure function of
/// the index** — typically a full attack simulation seeded via
/// [`derive_seed`] — rather than a cheap draw from a shard stream.
///
/// Because elements are orders of magnitude more expensive than the
/// stream-sampled profiles of [`Campaign`], the work unit is a small block
/// of [`GridCampaign::block_size`] indices instead of a 4096-element shard;
/// blocks are fanned out over the same [`run_shards`] pool and the partial
/// tallies merged with the same order-independent reduction, so the
/// determinism contract is identical: results are a function of the indices
/// alone, never of the worker count.
pub trait GridCampaign: Sync {
    /// The per-element profile.
    type Profile;
    /// The partial result folded per block.
    type Tally: Tally<Profile = Self::Profile>;

    /// Evaluates the element at `index`. Must be pure in `index`.
    fn eval(&self, index: usize) -> Self::Profile;

    /// Folds a contiguous block of indices into `tally`. The default calls
    /// [`eval`](Self::eval) per index and records nothing; campaigns whose
    /// consecutive indices share expensive per-cell state (a prepared
    /// environment template, a pre-built vector) override it. Overrides must
    /// tally exactly the profiles `eval` would produce for the same indices —
    /// the grid's worker-count determinism tests lock this. When `metrics`
    /// is `Some`, an override may record each element's telemetry (simulator
    /// counters, resolver stats) into this block's snapshot; recording must
    /// never change what is tallied.
    fn eval_block(
        &self,
        indices: std::ops::Range<usize>,
        tally: &mut Self::Tally,
        _metrics: Option<&mut telemetry::MetricsSnapshot>,
    ) {
        for index in indices {
            tally.observe(&self.eval(index));
        }
    }

    /// Exports grid-level metrics derived from the **final merged** tally.
    /// Called exactly once per recorded [`run_grid`], after all blocks
    /// merged. The default exports nothing.
    fn export_metrics(&self, _tally: &Self::Tally, _metrics: &mut telemetry::MetricsSnapshot) {}

    /// Creates an empty tally for one block.
    fn new_tally(&self) -> Self::Tally;

    /// Indices per work unit (small, because elements are expensive).
    fn block_size(&self) -> usize {
        8
    }
}

/// Runs a grid campaign over `n` indices across `workers` threads.
///
/// With `Some(metrics)`, every block records into its own snapshot; the
/// block snapshots are merged into `metrics` in ascending block order, then
/// the grid's shape (`campaign.grid.cells`, `campaign.grid.blocks`) and
/// [`GridCampaign::export_metrics`] over the final merged tally are added —
/// so the snapshot, like the tally, is byte-identical at any worker count.
/// With `None`, no snapshot is created at all.
pub fn run_grid<C: GridCampaign>(
    campaign: &C,
    n: usize,
    workers: usize,
    mut metrics: Option<&mut telemetry::MetricsSnapshot>,
) -> C::Tally {
    let block = campaign.block_size().max(1);
    let blocks = n.div_ceil(block);
    let record = metrics.is_some();
    let parts = run_shards(blocks, workers, |b| {
        let mut tally = campaign.new_tally();
        let mut part = record.then(telemetry::MetricsSnapshot::new);
        campaign.eval_block((b * block)..((b + 1) * block).min(n), &mut tally, part.as_mut());
        (tally, part)
    });
    let mut acc = campaign.new_tally();
    for (tally, part) in parts {
        acc.merge(tally);
        if let (Some(m), Some(part)) = (metrics.as_deref_mut(), part) {
            m.merge(&part);
        }
    }
    if let Some(m) = metrics {
        m.incr("campaign.grid.cells", n as u64);
        m.incr("campaign.grid.blocks", blocks as u64);
        campaign.export_metrics(&acc, m);
    }
    acc
}

/// Generates a population of `n` profiles on the sharded engine, preserving
/// index order. The profile at index `i` is identical for every worker
/// count — it is the `(i % SHARD_SIZE)`-th draw of shard `i / SHARD_SIZE`.
pub fn generate_population<P, F>(n: usize, seed: u64, salt: u64, workers: usize, draw: F) -> Vec<P>
where
    P: Send,
    F: Fn(&mut ChaCha20Rng) -> P + Sync,
{
    let parts = run_shards(shard_count(n), workers, |shard| {
        let mut rng = shard_rng(seed, salt, shard as u64);
        shard_range(n, shard).map(|_| draw(&mut rng)).collect::<Vec<P>>()
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// A mergeable histogram over `u32` values — the partial tally behind the
/// Figure 3/4 CDF scans. Merging adds per-value counts, so it is commutative
/// and associative by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Count per observed value.
    pub counts: BTreeMap<u32, u64>,
    /// Total number of observations.
    pub total: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn add(&mut self, value: u32) {
        self.add_many(value, 1);
    }

    /// Records `count` observations of `value` in one tree probe — the bulk
    /// entry point for columnar folds that pre-count a shard's column.
    pub fn add_many(&mut self, value: u32, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += count;
        self.total += count;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: Histogram) {
        for (value, count) in other.counts {
            *self.counts.entry(value).or_insert(0) += count;
        }
        self.total += other.total;
    }

    /// The empirical CDF at `threshold`: fraction of observations `≤ t`
    /// (0 when the histogram is empty, matching `Cdf::at_thresholds`).
    pub fn cdf_at(&self, threshold: u32) -> f64 {
        let below: u64 = self.counts.range(..=threshold).map(|(_, c)| c).sum();
        below as f64 / self.total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn shard_ranges_tile_the_index_space() {
        for n in [0usize, 1, SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1, 3 * SHARD_SIZE + 17] {
            let ranges = shard_ranges(n);
            assert_eq!(ranges.len(), shard_count(n));
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "shards are contiguous and non-overlapping");
                assert!(r.end > r.start, "no empty shard");
                assert!(r.end - r.start <= SHARD_SIZE);
                next = r.end;
            }
            assert_eq!(next, n, "every index covered exactly once");
        }
    }

    #[test]
    fn shard_rng_streams_are_pure_and_distinct() {
        let draw8 = |seed, salt, shard| {
            let mut rng = shard_rng(seed, salt, shard);
            (0..8).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw8(1, 2, 3), draw8(1, 2, 3), "pure function of (seed, salt, shard)");
        assert_ne!(draw8(1, 2, 3), draw8(1, 2, 4), "shards get distinct streams");
        assert_ne!(draw8(1, 2, 3), draw8(1, 3, 3), "salts get distinct streams");
        assert_ne!(draw8(1, 2, 3), draw8(2, 2, 3), "seeds get distinct streams");
    }

    #[test]
    fn run_shards_preserves_shard_order_at_any_worker_count() {
        let expected: Vec<usize> = (0..23).map(|s| s * s).collect();
        for workers in [1usize, 2, 3, 8, 32] {
            assert_eq!(run_shards(23, workers, |s| s * s), expected, "workers={workers}");
        }
    }

    #[test]
    fn run_shards_handles_empty_and_single() {
        assert_eq!(run_shards(0, 4, |s| s), Vec::<usize>::new());
        assert_eq!(run_shards(1, 4, |s| s + 1), vec![1]);
    }

    #[test]
    fn generate_population_is_worker_invariant() {
        let draw = |rng: &mut ChaCha20Rng| rng.gen::<u32>();
        let reference = generate_population(3 * SHARD_SIZE + 100, 7, 9, 1, draw);
        assert_eq!(reference.len(), 3 * SHARD_SIZE + 100);
        for workers in [2usize, 5, 16] {
            assert_eq!(generate_population(3 * SHARD_SIZE + 100, 7, 9, workers, draw), reference);
        }
    }

    /// A toy grid: element `i` is `i² mod 97`, tallied into a histogram.
    struct SquaresGrid;

    impl Tally for Histogram {
        type Profile = u32;

        fn observe(&mut self, value: &u32) {
            self.add(*value);
        }

        fn merge(&mut self, other: Self) {
            Histogram::merge(self, other);
        }
    }

    impl GridCampaign for SquaresGrid {
        type Profile = u32;
        type Tally = Histogram;

        fn eval(&self, index: usize) -> u32 {
            (index * index % 97) as u32
        }

        fn new_tally(&self) -> Histogram {
            Histogram::default()
        }

        fn block_size(&self) -> usize {
            5
        }
    }

    #[test]
    fn run_grid_tallies_the_same_with_and_without_metrics() {
        let n = 23;
        for workers in [1usize, 3] {
            let plain = run_grid(&SquaresGrid, n, workers, None);
            let mut m = telemetry::MetricsSnapshot::new();
            let recorded = run_grid(&SquaresGrid, n, workers, Some(&mut m));
            assert_eq!(plain, recorded, "workers={workers}: recording changed the tally");
            assert_eq!(plain.total, n as u64);
            assert_eq!(m.counter("campaign.grid.cells"), n as u64);
            assert_eq!(m.counter("campaign.grid.blocks"), 5);
        }
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::default();
        a.add(5);
        a.add(5);
        a.add(9);
        let mut b = Histogram::default();
        b.add(9);
        b.add(1);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.total, 5);
        assert!((ab.cdf_at(5) - 0.6).abs() < 1e-12);
        assert!((ab.cdf_at(1) - 0.2).abs() < 1e-12);
        assert!((Histogram::default().cdf_at(10)).abs() < 1e-12, "empty histogram CDF is 0");
    }
}

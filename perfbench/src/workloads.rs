//! The four workloads, each run two ways: an untraced, time-bounded run that
//! yields the end-to-end metrics, and a traced, fixed-work run that yields
//! the workload's deterministic work ledger.
//!
//! Every loop here drives the library from outside, through the same public
//! calls its own top-level entry points make (`build_farm` + `Simulator::run`
//! per farm shard, `PreparedCell::new` + `run_at` per grid cell, one
//! classification per dataset), so set-up can be timed apart from the work.
//! Each loop is checked against the entry point it mirrors.

use crate::report::{fnv1a, median, quantile, ratio, timed, Outcome};
use attacks::env::{EnvTemplate, VictimEnvConfig};
use attacks::outcome::{AttackAggregate, PoisonMethod};
use attacks::vectors;
use dns::farm::{build_farm, FarmConfig, FarmStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xlayer_core::farm::shard_clients;
use xlayer_core::measurements::{classify_domain_dataset_with, classify_resolver_dataset_with};
use xlayer_core::prelude::*;

/// The seed the pinned output digests were taken at.
pub const DEFAULT_SEED: u64 = 2021;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The resolver farm with a small name pool: nearly every query is a
    /// cache hit.
    FarmHit,
    /// The resolver farm with a large name pool: most queries recurse.
    FarmMiss,
    /// Every attack vector against every defence row.
    AttackGrid,
    /// The Table 3 and Table 4 population classification.
    Classify,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [Workload::FarmHit, Workload::FarmMiss, Workload::AttackGrid, Workload::Classify];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmHit => "farm_hit",
            Workload::FarmMiss => "farm_miss",
            Workload::AttackGrid => "attack_grid",
            Workload::Classify => "classify",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation of this workload is, for the report lines.
    fn op_name(self) -> &'static str {
        match self {
            Workload::FarmHit | Workload::FarmMiss => "delivered packet (op_ms: one batch of engine events)",
            Workload::AttackGrid => "scenario simulation (op_ms: one simulation)",
            Workload::Classify => "classified profile (op_ms: one dataset)",
        }
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` keeps the same
/// shapes small enough for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's workload sizes.
    Full,
    /// A few seconds for everything, for the smoke test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the untraced run measures; it always completes at least one
    /// unit of work.
    pub seconds: f64,
    /// Run the traced, per-layer variant instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::new();
    out.lines.push(crate::machine::describe());
    out.lines.push(format!(
        "workload={} seed={} trace={} scale={:?} op={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.scale,
        opts.workload.op_name()
    ));
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut ledger = Ledger::default();
    match (opts.workload, opts.trace) {
        (Workload::FarmHit | Workload::FarmMiss, false) => farm_measure(opts, budget, &mut out),
        (Workload::FarmHit | Workload::FarmMiss, true) => farm_trace(opts, &mut ledger, &mut out),
        (Workload::AttackGrid, false) => grid_measure(opts, budget, &mut out),
        (Workload::AttackGrid, true) => grid_trace(opts, &mut ledger, &mut out),
        (Workload::Classify, false) => classify_measure(opts, budget, &mut out),
        (Workload::Classify, true) => classify_trace(opts, &mut ledger, &mut out),
    }
    if opts.trace {
        out.lines.push(format!("work ledger (workload pass): {}", ledger.render()));
        let pool_before = netsim::pool::counters();
        crate::layers::measure(opts.seed, opts.scale, &mut ledger, &mut out);
        ledger.add_pool_since(pool_before);
        ledger.report(&mut out);
    } else {
        out.metric("peak_rss_mb", crate::machine::peak_rss_mb(), "MB");
    }
    if out.attempted == 0 {
        out.fail_check("the run attempted no operation");
    }
    out.lines.push(format!(
        "checks: correct={} attempted={} failed={} error_rate={}",
        out.correct,
        out.attempted,
        out.failed,
        out.error_rate()
    ));
    out
}

/// Host timings of an untraced run, in wall time. Each run repeats the
/// same units of work (a farm engine batch, a grid simulation, one dataset's
/// classification) and keeps each unit's fastest repetition: on a machine
/// shared with other tenants, whose load slows whole seconds of a run by up
/// to half, the fastest repetition is the closest to the code's own cost.
struct Units<K> {
    /// Per unit: its work (packets, simulations or profiles), its fastest
    /// host time in seconds, and how often it ran.
    best: BTreeMap<K, (u64, f64, u32)>,
    /// Host seconds of each set-up.
    setup_secs: Vec<f64>,
}

impl<K: Ord> Units<K> {
    fn new() -> Self {
        Units { best: BTreeMap::new(), setup_secs: Vec::new() }
    }

    /// Records one repetition of `unit`. Returns false when the unit's work
    /// differs from its first repetition.
    fn record(&mut self, unit: K, work: u64, took: Duration) -> bool {
        let secs = took.as_secs_f64();
        let entry = self.best.entry(unit).or_insert((work, secs, 0));
        entry.1 = entry.1.min(secs);
        entry.2 += 1;
        entry.0 == work
    }

    /// Reports the end-to-end metrics every untraced run has besides
    /// `peak_rss_mb`.
    fn report(&self, out: &mut Outcome) {
        let work: u64 = self.best.values().map(|u| u.0).sum();
        let secs: f64 = self.best.values().map(|u| u.1).sum();
        let best_ms: Vec<f64> = self.best.values().map(|u| u.1 * 1e3).collect();
        let reps: Vec<f64> = self.best.values().map(|u| f64::from(u.2)).collect();
        out.metric("ops_per_s", work as f64 / secs.max(1e-12), "1/s");
        out.metric("op_ms.p50", median(&best_ms), "ms");
        out.metric("setup_s", median(&self.setup_secs), "s");
        out.lines.push(format!(
            "measured {} distinct units ({work} ops, {secs:.3} s at their fastest), repeated {}..{} times; {} set-ups",
            self.best.len(),
            quantile(&reps, 0.0),
            quantile(&reps, 1.0),
            self.setup_secs.len()
        ));
    }
}

/// Times `f` `reps` times and returns the median duration with the last
/// result.
fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, took) = timed(&mut f);
        secs.push(took.as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one repetition"), median(&secs))
}

/// Reports the two parallelism ratios of the traced run: time at one worker
/// over time at `nproc` workers, and the telemetry-recording twin's time over
/// the plain entry point's.
fn report_ratios(out: &mut Outcome, plain_1: f64, plain_n: f64, recorded_1: f64) {
    out.metric("core.campaign.speedup", plain_1 / plain_n.max(1e-12), "ratio");
    out.metric("telemetry.overhead_ratio", recorded_1 / plain_1.max(1e-12), "ratio");
    out.lines.push(format!(
        "entry points: workers=1 {plain_1:.4} s, workers={} {plain_n:.4} s, recorded {recorded_1:.4} s",
        crate::machine::nproc()
    ));
}

/// The deterministic work ledger of a traced run: exact counts, equal on
/// every run at the same seed. It counts the traced workload pass and the
/// layer ledger's fixed probes (a farm_hit shard, every attack chain, the
/// population fills), so every layer has done work on every workload and no
/// count or ratio is 0.
#[derive(Debug, Default, Clone)]
pub(crate) struct Ledger {
    ops: u64,
    events_popped: u64,
    packets_delivered: u64,
    pool_takes: u64,
    pool_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_insertions: u64,
    client_queries: u64,
    upstream_queries: u64,
    attacker_packets: u64,
    profiles: u64,
}

impl Ledger {
    /// Adds the thread-local buffer-pool activity since `before`. Valid
    /// because the counted work is single-threaded.
    pub(crate) fn add_pool_since(&mut self, before: netsim::pool::PoolCounters) {
        let now = netsim::pool::counters();
        self.pool_takes += (now.hits + now.misses) - (before.hits + before.misses);
        self.pool_misses += now.misses - before.misses;
    }

    fn add_engine(&mut self, sim: &netsim::prelude::Simulator) {
        let engine = sim.counters();
        self.events_popped += engine.events_popped;
        self.packets_delivered += engine.delivered;
    }

    fn add_cache(&mut self, cache: &dns::cache::Cache) {
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.cache_insertions += cache.insertions;
    }

    /// Adds one farm shard run to quiescence: each stub query is an operation.
    pub(crate) fn add_farm_shard(
        &mut self,
        sim: &netsim::prelude::Simulator,
        farm: &dns::farm::Farm,
        stats: &FarmStats,
    ) {
        self.add_engine(sim);
        self.add_cache(&farm.cache.borrow());
        self.ops += stats.queries_sent;
        self.client_queries += stats.queries_sent;
        self.upstream_queries += stats.upstream_queries;
    }

    /// Adds one attack simulation: one operation.
    pub(crate) fn add_chain(
        &mut self,
        sim: &netsim::prelude::Simulator,
        env: &attacks::env::VictimEnv,
        report: &attacks::outcome::AttackReport,
    ) {
        self.add_engine(sim);
        let resolver = env.resolver(sim);
        self.add_cache(&resolver.cache());
        self.client_queries += resolver.stats.client_queries;
        self.upstream_queries += resolver.stats.upstream_queries;
        self.attacker_packets += report.attacker_packets;
        self.ops += 1;
    }

    /// Adds one classification pass over `profiles` profiles: one operation.
    fn add_classify_pass(&mut self, profiles: u64) {
        self.profiles += profiles;
        self.ops += 1;
    }

    /// Adds `profiles` population profiles generated outside a pass.
    pub(crate) fn add_profiles(&mut self, profiles: u64) {
        self.profiles += profiles;
    }

    fn counts(&self) -> [(&'static str, u64); 12] {
        [
            ("ledger.ops", self.ops),
            ("ledger.events_popped", self.events_popped),
            ("ledger.packets_delivered", self.packets_delivered),
            ("ledger.pool_takes", self.pool_takes),
            ("ledger.pool_misses", self.pool_misses),
            ("ledger.cache_hits", self.cache_hits),
            ("ledger.cache_misses", self.cache_misses),
            ("ledger.cache_insertions", self.cache_insertions),
            ("ledger.client_queries", self.client_queries),
            ("ledger.upstream_queries", self.upstream_queries),
            ("ledger.attacker_packets", self.attacker_packets),
            ("ledger.profiles", self.profiles),
        ]
    }

    /// The counts as one `name=count` report line.
    pub(crate) fn render(&self) -> String {
        self.counts().iter().map(|(name, n)| format!("{name}={n}")).collect::<Vec<_>>().join(" ")
    }

    /// Appends the counts and the ratios derived from them. A count of 0
    /// would mean a layer did no work in the traced run, which fails the run.
    pub(crate) fn report(&self, out: &mut Outcome) {
        for (name, n) in self.counts() {
            if n == 0 {
                out.fail_check(format!("{name} is 0: a layer did no work in the traced run"));
            }
        }
        out.metric("netsim.engine.events_per_packet", ratio(self.events_popped, self.packets_delivered), "count");
        out.metric("netsim.pool.miss_ratio", ratio(self.pool_misses, self.pool_takes), "ratio");
        out.metric("netsim.pool.takes_per_packet", ratio(self.pool_takes, self.packets_delivered), "count");
        out.metric("dns.cache.hit_ratio", ratio(self.cache_hits, self.cache_hits + self.cache_misses), "ratio");
        out.metric("dns.resolver.upstream_per_query", ratio(self.upstream_queries, self.client_queries), "count");
        out.lines.push(format!("work ledger (traced run): {}", self.render()));
        for (name, n) in self.counts() {
            out.metric(name, n as f64, "count");
        }
    }
}

// ---------------------------------------------------------------------------
// farm_hit / farm_miss

/// The farm campaign shape of a workload: 10⁵ stub hosts in 8 shards with 4
/// frontends each (the `run_farm_campaign` defaults), and a 512-name pool
/// (hit) or a 65 536-name pool (miss).
pub(crate) fn farm_config(workload: Workload, seed: u64, scale: Scale) -> FarmCampaignConfig {
    let names = match (workload, scale) {
        (Workload::FarmHit, Scale::Full) => 512,
        (Workload::FarmHit, Scale::Tiny) => 32,
        (_, Scale::Full) => 65_536,
        (_, Scale::Tiny) => 16_384,
    };
    let (hosts, shards) = match scale {
        Scale::Full => (100_000, 8),
        Scale::Tiny => (2_000, 2),
    };
    FarmCampaignConfig { seed, hosts, shards, workers: 1, shard: FarmConfig { names, ..FarmConfig::default() } }
}

/// Shard `shard`'s configuration, derived exactly as `run_farm_campaign`
/// derives it.
pub(crate) fn shard_config(cfg: &FarmCampaignConfig, shard: u32) -> FarmConfig {
    FarmConfig {
        seed: derive_seed(cfg.seed, FARM_SALT, u64::from(shard)),
        clients: shard_clients(cfg.hosts, cfg.shards, shard),
        ..cfg.shard.clone()
    }
}

fn farm_digest(s: &FarmStats) -> u64 {
    let fields = [
        s.clients,
        s.queries_sent,
        s.responses,
        s.error_responses,
        s.cache_answers,
        s.upstream_queries,
        s.servfails,
        s.cache_entries,
        s.packets_delivered,
        s.bytes_delivered,
        s.sim_end_ns,
    ];
    fnv1a(&fields.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<u8>>())
}

/// Per-shard `FarmStats` digests at [`DEFAULT_SEED`] and full scale.
const FARM_HIT_PINNED: [u64; 8] = [
    0xf438_0df6_e488_9533,
    0x9c06_d5b0_00eb_4163,
    0xe95b_4628_de8f_a760,
    0x034c_fa2b_8b51_da84,
    0xbc70_9890_fc84_a90a,
    0x0e14_9b8b_f466_bd55,
    0xeda5_3890_1610_3ed3,
    0x66f6_b503_3f47_0acc,
];
const FARM_MISS_PINNED: [u64; 8] = [
    0x035f_94cf_eea0_0b31,
    0x1202_b56f_e418_b34e,
    0xf2f9_f6bf_d78e_7557,
    0x948f_1193_b709_d6b8,
    0xf24a_3ae3_2a41_e94f,
    0x9695_22c1_5034_6dbe,
    0xbae5_d847_5591_ed96,
    0xda3b_1396_ba37_b6b9,
];

/// Checks shard `shard`'s `FarmStats` digest against the pinned one at
/// [`DEFAULT_SEED`] and full scale, and prints it.
fn check_farm_pin(opts: &Options, shard: u32, stats: &FarmStats, out: &mut Outcome) {
    let digest = farm_digest(stats);
    out.lines.push(format!("shard {shard} digest {digest:016x}"));
    let pinned = match opts.workload {
        Workload::FarmHit => FARM_HIT_PINNED[shard as usize],
        _ => FARM_MISS_PINNED[shard as usize],
    };
    if opts.seed == DEFAULT_SEED && opts.scale == Scale::Full && digest != pinned {
        out.fail_check(format!("shard {shard} digest {digest:016x} != pinned {pinned:016x}"));
    }
}

/// Seed-independent farm checks of one shard: every query answered, no error
/// rcode, no SERVFAIL. Returns the number of failed queries.
fn farm_failures(stats: &FarmStats) -> u64 {
    stats.queries_sent.saturating_sub(stats.responses) + stats.error_responses + stats.servfails
}

/// The workload-identity guard: farm_hit must stay a cache-read workload and
/// farm_miss a recursion workload.
fn farm_guard(workload: Workload, total: &FarmStats, out: &mut Outcome) {
    let hit_ratio = ratio(total.cache_answers, total.queries_sent);
    let upstream_share = ratio(total.upstream_queries, total.queries_sent);
    out.lines.push(format!("identity: cache_answer_share={hit_ratio:.4} upstream_share={upstream_share:.4}"));
    match workload {
        Workload::FarmHit if hit_ratio < 0.95 => out.fail_check(format!("farm_hit cache hit ratio {hit_ratio} < 0.95")),
        Workload::FarmMiss if upstream_share < 0.5 => {
            out.fail_check(format!("farm_miss upstream share {upstream_share} < 0.5"))
        }
        _ => {}
    }
}

/// Events per farm batch: the engine is stepped this many events at a time,
/// and each full batch is one timed unit.
fn farm_batch_events(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1 << 15,
        Scale::Tiny => 1 << 9,
    }
}

/// Runs a built farm to quiescence exactly as `Simulator::run` does, in
/// batches of `batch` events, and records every full batch as unit
/// `(shard, batch index)` with the packets it delivered as its work.
fn run_farm_batched(
    sim: &mut netsim::prelude::Simulator,
    shard: u32,
    batch: u64,
    units: &mut Units<(u32, u32)>,
    out: &mut Outcome,
) {
    for index in 0u32.. {
        let before = sim.counters().delivered;
        let t0 = Instant::now();
        let mut stepped = 0;
        while stepped < batch && sim.step() {
            stepped += 1;
        }
        let took = t0.elapsed();
        if stepped < batch {
            return;
        }
        if !units.record((shard, index), sim.counters().delivered - before, took) {
            out.fail_check(format!("shard {shard} batch {index} delivered a different packet count"));
        }
    }
}

/// How many of the campaign's shards a run times, each repeated until the
/// time budget is spent: all 8 on farm_hit; only shard 0 on farm_miss, whose
/// shards take about 1.7 s each to build and run, so that each of its
/// batches is repeated about ten times. The traced run covers every shard.
fn farm_timed_shards(workload: Workload, cfg: &FarmCampaignConfig) -> u32 {
    match workload {
        Workload::FarmMiss => 1,
        _ => cfg.shards,
    }
}

fn farm_measure(opts: &Options, budget: Duration, out: &mut Outcome) {
    let cfg = farm_config(opts.workload, opts.seed, opts.scale);
    let timed_shards = farm_timed_shards(opts.workload, &cfg);
    let mut first: Vec<Option<FarmStats>> = vec![None; timed_shards as usize];
    let mut units = Units::new();
    let mut total = FarmStats::default();
    let started = Instant::now();
    for k in 0u32.. {
        let shard = k % timed_shards;
        let ((mut sim, farm), setup) = timed(|| build_farm(shard_config(&cfg, shard)));
        units.setup_secs.push(setup.as_secs_f64());
        run_farm_batched(&mut sim, shard, farm_batch_events(opts.scale), &mut units, out);
        let stats = farm.stats(&sim);
        out.attempted += stats.queries_sent;
        out.failed += farm_failures(&stats);
        match &first[shard as usize] {
            Some(reference) if *reference != stats => {
                out.failed += stats.queries_sent;
                out.fail_check(format!("shard {shard} changed between repetitions"));
            }
            Some(_) => {}
            None => {
                check_farm_pin(opts, shard, &stats, out);
                total.merge(&stats);
                first[shard as usize] = Some(stats);
            }
        }
        drop((sim, farm));
        if shard + 1 == timed_shards && started.elapsed() >= budget {
            break;
        }
    }
    farm_guard(opts.workload, &total, out);
    units.report(out);
}

fn farm_trace(opts: &Options, ledger: &mut Ledger, out: &mut Outcome) {
    let cfg = farm_config(opts.workload, opts.seed, opts.scale);
    let mut total = FarmStats::default();
    for shard in 0..cfg.shards {
        let pool_before = netsim::pool::counters();
        let (mut sim, farm) = build_farm(shard_config(&cfg, shard));
        sim.run();
        let stats = farm.stats(&sim);
        ledger.add_pool_since(pool_before);
        ledger.add_farm_shard(&sim, &farm, &stats);
        check_farm_pin(opts, shard, &stats, out);
        out.attempted += stats.queries_sent;
        out.failed += farm_failures(&stats);
        total.merge(&stats);
    }
    farm_guard(opts.workload, &total, out);

    let reps = if opts.workload == Workload::FarmHit { 3 } else { 1 };
    let nproc = crate::machine::nproc();
    let (one, plain_1) = median_time(reps, || run_farm_campaign(&cfg));
    let (many, plain_n) =
        median_time(reps, || run_farm_campaign(&FarmCampaignConfig { workers: nproc, ..cfg.clone() }));
    let ((recorded, _), recorded_1) = median_time(reps, || run_farm_campaign_with_metrics(&cfg));
    if one != total {
        out.fail_check("the shard-by-shard loop disagrees with run_farm_campaign");
    }
    if many != one {
        out.fail_check(format!("run_farm_campaign at workers={nproc} disagrees with workers=1"));
    }
    if recorded != one {
        out.fail_check("run_farm_campaign_with_metrics disagrees with run_farm_campaign");
    }
    report_ratios(out, plain_1, plain_n, recorded_1);
}

// ---------------------------------------------------------------------------
// attack_grid

/// The classic (vector × defence) grid and the DNSSEC deployment grid, with
/// three runs per cell: 183 simulations over all 7 vectors.
fn grid_campaigns(seed: u64, scale: Scale) -> [ScenarioCampaign; 2] {
    let runs = match scale {
        Scale::Full => 3,
        Scale::Tiny => 1,
    };
    [ScenarioCampaign::full_grid(seed, runs), ScenarioCampaign::dnssec_grid(seed, runs)]
}

/// The per-run seed stream of cell `(mi, di)`, derived exactly as
/// `ScenarioCampaign` derives it from the cell coordinates.
fn cell_stream(c: &ScenarioCampaign, mi: usize, di: usize) -> SeedStream {
    SeedStream::new(c.base_seed, c.salt ^ ((mi as u64 + 1) << 40) ^ ((di as u64 + 1) << 48))
}

/// Every cell of a grid in the order `ScenarioCampaign` evaluates them.
fn grid_cells(c: &ScenarioCampaign) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..c.methods.len()).flat_map(move |mi| (0..c.defences.len()).map(move |di| (mi, di)))
}

type Cells = BTreeMap<(usize, usize), AttackAggregate>;

fn render_grids(campaigns: &[ScenarioCampaign; 2], cells: &[Cells; 2]) -> String {
    let matrix = |c: &ScenarioCampaign, cells: &Cells| ScenarioMatrix {
        methods: c.methods.clone(),
        defences: c.defences.clone(),
        runs_per_cell: c.runs_per_cell,
        cells: cells.clone(),
    };
    render_scenario_matrix(&matrix(&campaigns[0], &cells[0])) + &render_dnssec_matrix(&matrix(&campaigns[1], &cells[1]))
}

/// Digest of the rendered scenario and DNSSEC matrices at [`DEFAULT_SEED`]
/// and full scale.
const GRID_PINNED: u64 = 0xf33b_2e69_c852_368b;

/// The workload-identity guard: all 7 vectors and the `DnsOverTcp` row.
fn grid_guard(campaigns: &[ScenarioCampaign; 2], out: &mut Outcome) {
    let mut methods: Vec<&str> = campaigns.iter().flat_map(|c| c.methods.iter().map(PoisonMethod::slug)).collect();
    methods.sort_unstable();
    methods.dedup();
    let tcp_row = campaigns[0].defences.contains(&Defence::DnsOverTcp);
    out.lines.push(format!("identity: vectors={} dns_over_tcp_row={tcp_row}", methods.len()));
    if methods.len() != 7 || !tcp_row {
        out.fail_check("attack_grid must cover all 7 vectors and the DnsOverTcp row");
    }
}

/// Compares the outside-driven tally with the library's matrices. Returns
/// the simulations in disagreeing cells.
fn grid_disagreements(reference: &[ScenarioMatrix; 2], cells: &[Cells; 2]) -> u64 {
    let mut bad = 0;
    for (matrix, cells) in reference.iter().zip(cells) {
        for (key, agg) in cells {
            if matrix.cells.get(key) != Some(agg) {
                bad += agg.runs;
            }
        }
        if matrix.cells.len() != cells.len() {
            bad += 1;
        }
    }
    bad
}

fn grid_measure(opts: &Options, budget: Duration, out: &mut Outcome) {
    let campaigns = grid_campaigns(opts.seed, opts.scale);
    grid_guard(&campaigns, out);
    let mut units = Units::new();
    let mut first: Option<[Cells; 2]> = None;
    let started = Instant::now();
    loop {
        let mut pass: [Cells; 2] = Default::default();
        let mut setup = Duration::ZERO;
        for (g, c) in campaigns.iter().enumerate() {
            for (mi, di) in grid_cells(c) {
                let (cell, took) = timed(|| PreparedCell::new(c.methods[mi], c.defences[di]));
                setup += took;
                let stream = cell_stream(c, mi, di);
                for run in 0..c.runs_per_cell {
                    let (outcome, took) = timed(|| cell.run_at(stream.at(run)));
                    units.record((g, mi, di, run), 1, took);
                    pass[g].entry((mi, di)).or_default().add(&outcome.report);
                }
            }
        }
        units.setup_secs.push(setup.as_secs_f64());
        let sims: u64 = pass.iter().flat_map(|cells| cells.values()).map(|a| a.runs).sum();
        out.attempted += sims;
        match &first {
            Some(reference) if *reference != pass => {
                out.failed += sims;
                out.fail_check("a grid pass changed between repetitions");
            }
            Some(_) => {}
            None => first = Some(pass),
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    let first = first.expect("at least one pass");
    let reference = [campaigns[0].run(1), campaigns[1].run(1)];
    let bad = grid_disagreements(&reference, &first);
    if bad > 0 {
        out.failed += bad;
        out.fail_check(format!("{bad} simulations disagree with ScenarioCampaign::run"));
    }
    let digest = fnv1a(render_grids(&campaigns, &first).as_bytes());
    out.lines.push(format!("matrices digest {digest:016x}"));
    if opts.seed == DEFAULT_SEED && opts.scale == Scale::Full && digest != GRID_PINNED {
        out.fail_check(format!("matrices digest {digest:016x} != pinned {GRID_PINNED:016x}"));
    }
    units.report(out);
}

fn grid_trace(opts: &Options, ledger: &mut Ledger, out: &mut Outcome) {
    let campaigns = grid_campaigns(opts.seed, opts.scale);
    grid_guard(&campaigns, out);
    let mut cells: [Cells; 2] = Default::default();
    let pool_before = netsim::pool::counters();
    for (g, c) in campaigns.iter().enumerate() {
        for (mi, di) in grid_cells(c) {
            let (method, defence) = (c.methods[mi], c.defences[di]);
            let scenario = Scenario::new(VictimEnvConfig::default()).vector(vectors::quick_for(method));
            let template = EnvTemplate::new(scenario.defences(&[defence]).prepared_config());
            let vector = vectors::quick_for(method);
            let stream = cell_stream(c, mi, di);
            for run in 0..c.runs_per_cell {
                let (mut sim, env) = template.build_at(stream.at(run));
                sim.trace_mut().enabled = false;
                let report = vector.execute(&mut sim, &env);
                ledger.add_chain(&sim, &env, &report);
                out.attempted += 1;
                cells[g].entry((mi, di)).or_default().add(&report);
            }
        }
    }
    ledger.add_pool_since(pool_before);

    let nproc = crate::machine::nproc();
    let (one, plain_1) = median_time(1, || [campaigns[0].run(1), campaigns[1].run(1)]);
    let (many, plain_n) = median_time(1, || [campaigns[0].run(nproc), campaigns[1].run(nproc)]);
    let (recorded, recorded_1) =
        median_time(1, || [campaigns[0].run_with_metrics(1).0, campaigns[1].run_with_metrics(1).0]);
    let bad = grid_disagreements(&one, &cells);
    if bad > 0 {
        out.failed += bad;
        out.fail_check(format!("{bad} build_at + execute simulations disagree with ScenarioCampaign::run"));
    }
    if many != one {
        out.fail_check(format!("ScenarioCampaign::run at workers={nproc} disagrees with workers=1"));
    }
    if recorded != one {
        out.fail_check("ScenarioCampaign::run_with_metrics disagrees with run");
    }
    report_ratios(out, plain_1, plain_n, recorded_1);
}

// ---------------------------------------------------------------------------
// classify

fn classify_config(seed: u64, scale: Scale) -> CampaignConfig {
    let cap = match scale {
        Scale::Full => 200_000,
        Scale::Tiny => 2_000,
    };
    CampaignConfig::new(seed, cap)
}

/// Digest of the rendered Tables 3 and 4 at [`DEFAULT_SEED`] and full scale.
const CLASSIFY_PINNED: u64 = 0x0867_f0e1_207a_c954;

type Tables = (Vec<ResolverDatasetResult>, Vec<DomainDatasetResult>);

/// One classification pass over the given dataset specs, dataset by dataset
/// as `run_table3_with` / `run_table4_with` do; each dataset is one timed
/// unit whose work is its sample size.
fn classify_pass(t3: &[DatasetSpec], t4: &[DatasetSpec], cfg: &CampaignConfig, units: &mut Units<usize>) -> Tables {
    let mut unit = 0;
    let mut time = |spec: &DatasetSpec, took: Duration| {
        units.record(unit, spec.sample_size(cfg.sample_cap) as u64, took);
        unit += 1;
    };
    let rows3 = t3
        .iter()
        .map(|s| {
            let (row, took) = timed(|| classify_resolver_dataset_with(s, cfg));
            time(s, took);
            row
        })
        .collect();
    let rows4 = t4
        .iter()
        .map(|s| {
            let (row, took) = timed(|| classify_domain_dataset_with(s, cfg));
            time(s, took);
            row
        })
        .collect();
    (rows3, rows4)
}

fn classify_profiles(t3: &[DatasetSpec], t4: &[DatasetSpec], cap: u64) -> u64 {
    t3.iter().chain(t4).map(|s| s.sample_size(cap) as u64).sum()
}

/// The workload-identity guard: all 19 datasets of Tables 3 (nine resolver
/// datasets) and 4 (ten domain datasets).
fn classify_guard(t3: &[DatasetSpec], t4: &[DatasetSpec], out: &mut Outcome) {
    out.lines.push(format!("identity: datasets={} (table3={} table4={})", t3.len() + t4.len(), t3.len(), t4.len()));
    if (t3.len(), t4.len()) != (9, 10) {
        out.fail_check("classify must cover all 19 datasets");
    }
}

fn classify_measure(opts: &Options, budget: Duration, out: &mut Outcome) {
    let cfg = classify_config(opts.seed, opts.scale);
    let mut units = Units::new();
    let mut first: Option<Tables> = None;
    let started = Instant::now();
    loop {
        // Building the dataset specs takes about a microsecond, too short to
        // time alone: one set-up sample is the mean of SPEC_BUILDS builds.
        const SPEC_BUILDS: u32 = 64;
        let t0 = Instant::now();
        let mut specs = (table3_datasets(), table4_datasets());
        for _ in 1..SPEC_BUILDS {
            specs = std::hint::black_box((table3_datasets(), table4_datasets()));
        }
        units.setup_secs.push(t0.elapsed().as_secs_f64() / f64::from(SPEC_BUILDS));
        let (t3, t4) = specs;
        let tables = classify_pass(&t3, &t4, &cfg, &mut units);
        out.attempted += 1;
        match &first {
            Some(reference) if *reference != tables => {
                out.failed += 1;
                out.fail_check("a classification pass changed between repetitions");
            }
            Some(_) => {}
            None => {
                classify_guard(&t3, &t4, out);
                first = Some(tables);
            }
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    let (rows3, rows4) = first.expect("at least one pass");
    if rows3 != run_table3_with(&cfg) || rows4 != run_table4_with(&cfg) {
        out.failed += 1;
        out.fail_check("the dataset-by-dataset pass disagrees with run_table3_with / run_table4_with");
    }
    let digest = fnv1a((render_table3(&rows3) + &render_table4(&rows4)).as_bytes());
    out.lines.push(format!("tables digest {digest:016x}"));
    if opts.seed == DEFAULT_SEED && opts.scale == Scale::Full && digest != CLASSIFY_PINNED {
        out.fail_check(format!("tables digest {digest:016x} != pinned {CLASSIFY_PINNED:016x}"));
    }
    units.report(out);
}

fn classify_trace(opts: &Options, ledger: &mut Ledger, out: &mut Outcome) {
    let cfg = classify_config(opts.seed, opts.scale);
    let (t3, t4) = (table3_datasets(), table4_datasets());
    classify_guard(&t3, &t4, out);
    let pool_before = netsim::pool::counters();
    let tables = classify_pass(&t3, &t4, &cfg, &mut Units::new());
    ledger.add_pool_since(pool_before);
    ledger.add_classify_pass(classify_profiles(&t3, &t4, cfg.sample_cap));
    out.attempted += 1;

    let reps = 5;
    let nproc = crate::machine::nproc();
    let cfg_n = cfg.clone().with_workers(nproc);
    let (one, plain_1) = median_time(reps, || (run_table3_with(&cfg), run_table4_with(&cfg)));
    let (many, plain_n) = median_time(reps, || (run_table3_with(&cfg_n), run_table4_with(&cfg_n)));
    // The recorded twin of each dataset's campaign, against the plain one
    // timed the same way.
    let n = |s: &DatasetSpec| s.sample_size(cfg.sample_cap);
    let (plain, plain_loop) = median_time(reps, || {
        let r: Vec<_> = t3.iter().map(|s| run_campaign(&ResolverCampaign(s), n(s), &cfg)).collect();
        let d: Vec<_> = t4.iter().map(|s| run_campaign(&DomainCampaign(s), n(s), &cfg)).collect();
        (r, d)
    });
    let (recorded, recorded_loop) = median_time(reps, || {
        let r: Vec<_> = t3.iter().map(|s| run_campaign_with_metrics(&ResolverCampaign(s), n(s), &cfg).0).collect();
        let d: Vec<_> = t4.iter().map(|s| run_campaign_with_metrics(&DomainCampaign(s), n(s), &cfg).0).collect();
        (r, d)
    });
    if one != tables {
        out.failed += 1;
        out.fail_check("the dataset-by-dataset pass disagrees with run_table3_with / run_table4_with");
    }
    if many != one {
        out.fail_check(format!("classification at workers={nproc} disagrees with workers=1"));
    }
    if recorded != plain {
        out.fail_check("run_campaign_with_metrics disagrees with run_campaign");
    }
    out.metric("core.campaign.speedup", plain_1 / plain_n.max(1e-12), "ratio");
    out.metric("telemetry.overhead_ratio", recorded_loop / plain_loop.max(1e-12), "ratio");
    out.lines.push(format!(
        "entry points: workers=1 {plain_1:.4} s, workers={nproc} {plain_n:.4} s, \
         run_campaign {plain_loop:.4} s, recorded {recorded_loop:.4} s"
    ));
}

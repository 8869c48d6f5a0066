//! The paper's figures: announced-prefix CDFs (Figure 3), EDNS-size vs.
//! minimum-fragment-size CDFs (Figure 4) and the overlap of vulnerable
//! populations (Figure 5).
//!
//! The CDF scans and overlap counts run on the sharded campaign engine
//! ([`crate::campaign`]): each shard folds its profiles into a mergeable
//! [`Histogram`] / Venn tally, so no population is ever materialised and the
//! scans parallelise while staying byte-identical at any worker count.

use crate::campaign::{run_campaign, Campaign, CampaignConfig, Histogram, Tally};
use crate::population::{self, DatasetSpec, DomainBlock, DomainProfile, ResolverBlock, ResolverProfile};
use crate::report::TextTable;
use crate::vulnscan;
use rand_chacha::ChaCha20Rng;

/// A cumulative distribution: `(x, fraction ≤ x)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Series label.
    pub label: String,
    /// Points, ascending in `x`.
    pub points: Vec<(u32, f64)>,
}

impl Cdf {
    /// Builds a CDF from a campaign histogram evaluated at the thresholds.
    pub(crate) fn from_histogram(label: &str, hist: &Histogram, thresholds: &[u32]) -> Cdf {
        Cdf { label: label.to_string(), points: thresholds.iter().map(|&t| (t, hist.cdf_at(t))).collect() }
    }

    /// The fraction at a given threshold (0 if the threshold is absent).
    pub fn at(&self, x: u32) -> f64 {
        self.points.iter().find(|(t, _)| *t == x).map(|(_, f)| *f).unwrap_or(0.0)
    }
}

/// Which scalar a resolver CDF scan extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolverMetric {
    /// Announced BGP prefix length (Figure 3).
    PrefixLen,
    /// Advertised EDNS UDP payload size (Figure 4).
    EdnsSize,
}

/// Histogram tally over one resolver metric.
#[derive(Debug, Clone)]
pub(crate) struct ResolverHist {
    metric: ResolverMetric,
    /// The accumulated histogram.
    pub hist: Histogram,
}

impl ResolverHist {
    /// Folds a columnar block: prefix lengths are pre-counted into a flat
    /// array (≤ 256 values) and bulk-added, EDNS sizes are scanned straight
    /// off the contiguous column.
    fn observe_block(&mut self, b: &ResolverBlock) {
        match self.metric {
            ResolverMetric::PrefixLen => {
                let mut counts = [0u64; 256];
                for &len in &b.announced_prefix_len {
                    counts[usize::from(len)] += 1;
                }
                for (len, &count) in counts.iter().enumerate() {
                    self.hist.add_many(len as u32, count);
                }
            }
            ResolverMetric::EdnsSize => {
                for &size in &b.edns_size {
                    self.hist.add(u32::from(size));
                }
            }
        }
    }
}

impl Tally for ResolverHist {
    type Profile = ResolverProfile;

    fn observe(&mut self, r: &ResolverProfile) {
        match self.metric {
            ResolverMetric::PrefixLen => self.hist.add(u32::from(r.announced_prefix_len)),
            ResolverMetric::EdnsSize => self.hist.add(u32::from(r.edns_size)),
        }
    }

    fn merge(&mut self, other: Self) {
        self.hist.merge(other.hist);
    }
}

/// A Figure 3/4 CDF scan over one resolver dataset.
pub(crate) struct ResolverScan<'a> {
    /// Dataset whose population is scanned.
    pub spec: &'a DatasetSpec,
    /// Metric extracted per resolver.
    pub metric: ResolverMetric,
}

impl Campaign for ResolverScan<'_> {
    type Profile = ResolverProfile;
    type Tally = ResolverHist;

    fn salt(&self) -> u64 {
        self.spec.resolver_stream_salt()
    }

    fn draw(&self, rng: &mut ChaCha20Rng) -> ResolverProfile {
        population::draw_resolver(self.spec, rng)
    }

    fn new_tally(&self) -> ResolverHist {
        ResolverHist { metric: self.metric, hist: Histogram::default() }
    }

    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut ResolverHist) {
        let mut block = ResolverBlock::with_capacity(count);
        population::fill_resolver_block(self.spec, rng, count, &mut block);
        tally.observe_block(&block);
    }
}

/// Which scalar a domain CDF scan extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DomainMetric {
    /// Announced BGP prefix length of the nameservers (Figure 3).
    PrefixLen,
    /// Minimum fragment size — observed only for fragmenting nameservers
    /// (Figure 4).
    MinFragmentSize,
}

/// Histogram tally over one domain metric.
#[derive(Debug, Clone)]
pub(crate) struct DomainHist {
    metric: DomainMetric,
    /// The accumulated histogram.
    pub hist: Histogram,
}

impl DomainHist {
    /// Columnar sibling of [`ResolverHist::observe_block`].
    fn observe_block(&mut self, b: &DomainBlock) {
        match self.metric {
            DomainMetric::PrefixLen => {
                let mut counts = [0u64; 256];
                for &len in &b.announced_prefix_len {
                    counts[usize::from(len)] += 1;
                }
                for (len, &count) in counts.iter().enumerate() {
                    self.hist.add_many(len as u32, count);
                }
            }
            DomainMetric::MinFragmentSize => {
                for (&frag, &size) in b.fragments_any.iter().zip(&b.min_fragment_size) {
                    if frag {
                        self.hist.add(u32::from(size));
                    }
                }
            }
        }
    }
}

impl Tally for DomainHist {
    type Profile = DomainProfile;

    fn observe(&mut self, d: &DomainProfile) {
        match self.metric {
            DomainMetric::PrefixLen => self.hist.add(u32::from(d.announced_prefix_len)),
            DomainMetric::MinFragmentSize => {
                if d.fragments_any {
                    self.hist.add(u32::from(d.min_fragment_size));
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.hist.merge(other.hist);
    }
}

/// A Figure 3/4 CDF scan over one domain dataset.
pub(crate) struct DomainScan<'a> {
    /// Dataset whose population is scanned.
    pub spec: &'a DatasetSpec,
    /// Metric extracted per domain.
    pub metric: DomainMetric,
}

impl Campaign for DomainScan<'_> {
    type Profile = DomainProfile;
    type Tally = DomainHist;

    fn salt(&self) -> u64 {
        self.spec.domain_stream_salt()
    }

    fn draw(&self, rng: &mut ChaCha20Rng) -> DomainProfile {
        population::draw_domain(self.spec, rng)
    }

    fn new_tally(&self) -> DomainHist {
        DomainHist { metric: self.metric, hist: Histogram::default() }
    }

    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut DomainHist) {
        let mut block = DomainBlock::with_capacity(count);
        population::fill_domain_block(self.spec, rng, count, &mut block);
        tally.observe_block(&block);
    }
}

fn scan_resolvers(spec: &DatasetSpec, metric: ResolverMetric, cfg: &CampaignConfig) -> Histogram {
    run_campaign(&ResolverScan { spec, metric }, spec.sample_size(cfg.sample_cap), cfg).hist
}

fn scan_domains(spec: &DatasetSpec, metric: DomainMetric, cfg: &CampaignConfig) -> Histogram {
    run_campaign(&DomainScan { spec, metric }, spec.sample_size(cfg.sample_cap), cfg).hist
}

/// Figure 3: distribution of announced prefix lengths (/11 … /24) for open
/// resolvers, ad-net resolvers and Alexa nameservers — three parallel
/// histogram scans on the sharded engine.
pub fn figure3_prefix_distributions_with(cfg: &CampaignConfig) -> Vec<Cdf> {
    let thresholds: Vec<u32> = (11..=24).collect();
    let specs = population::table3_datasets();
    let domain_specs = population::table4_datasets();
    let open = scan_resolvers(&specs[7], ResolverMetric::PrefixLen, cfg);
    let adnet = scan_resolvers(&specs[6], ResolverMetric::PrefixLen, cfg);
    let alexa_ns = scan_domains(&domain_specs[1], DomainMetric::PrefixLen, cfg);
    vec![
        Cdf::from_histogram("Resolvers: Open resolver", &open, &thresholds),
        Cdf::from_histogram("Resolvers: Adnet", &adnet, &thresholds),
        Cdf::from_histogram("Nameservers: Alexa", &alexa_ns, &thresholds),
    ]
}

/// Figure 4: CDF of resolver EDNS UDP sizes vs. CDF of the minimum fragment
/// size emitted by (fragmenting) Alexa nameservers, on the sharded engine.
pub fn figure4_edns_vs_fragment_with(cfg: &CampaignConfig) -> (Cdf, Cdf) {
    let thresholds = [68u32, 292, 512, 548, 1232, 1500, 2048, 3072, 4096];
    let specs = population::table3_datasets();
    let domain_specs = population::table4_datasets();
    let edns = scan_resolvers(&specs[7], ResolverMetric::EdnsSize, cfg);
    let min_frag = scan_domains(&domain_specs[1], DomainMetric::MinFragmentSize, cfg);
    (
        Cdf::from_histogram("EDNS size of resolvers", &edns, &thresholds),
        Cdf::from_histogram("Minimum fragment size of nameservers", &min_frag, &thresholds),
    )
}

telemetry::counters! {
    /// Figure 5: overlap of the vulnerable sets (per methodology). Its merge
    /// is the campaign reducer for Figure 5.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct VennCounts {
        /// Vulnerable to HijackDNS only.
        pub only_hijack: u64,
        /// Vulnerable to SadDNS only.
        pub only_saddns: u64,
        /// Vulnerable to FragDNS only.
        pub only_frag: u64,
        /// Hijack ∧ SadDNS (not Frag).
        pub hijack_saddns: u64,
        /// Hijack ∧ Frag (not SadDNS).
        pub hijack_frag: u64,
        /// SadDNS ∧ Frag (not Hijack).
        pub saddns_frag: u64,
        /// All three.
        pub all_three: u64,
    }
    pub fn merge;
}

impl VennCounts {
    /// Elements vulnerable to HijackDNS (any combination).
    pub fn hijack_total(&self) -> u64 {
        self.only_hijack + self.hijack_saddns + self.hijack_frag + self.all_three
    }

    /// Elements vulnerable to SadDNS (any combination).
    pub fn saddns_total(&self) -> u64 {
        self.only_saddns + self.hijack_saddns + self.saddns_frag + self.all_three
    }

    /// Classifies one element into its overlap region.
    pub fn add(&mut self, hijack: bool, saddns: bool, frag: bool) {
        match (hijack, saddns, frag) {
            (true, false, false) => self.only_hijack += 1,
            (false, true, false) => self.only_saddns += 1,
            (false, false, true) => self.only_frag += 1,
            (true, true, false) => self.hijack_saddns += 1,
            (true, false, true) => self.hijack_frag += 1,
            (false, true, true) => self.saddns_frag += 1,
            (true, true, true) => self.all_three += 1,
            (false, false, false) => {}
        }
    }
}

/// Venn tally over resolver profiles.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolverVennTally(pub VennCounts);

impl ResolverVennTally {
    /// Folds a columnar block by scanning the three predicate columns in one
    /// zipped pass (predicates mirror `vulnscan::resolver_*`).
    fn observe_block(&mut self, b: &ResolverBlock) {
        for i in 0..b.len() {
            let alive = b.alive[i];
            self.0.add(
                b.announced_prefix_len[i] < 24,
                alive && b.global_icmp_limit[i],
                alive && b.accepts_fragments[i],
            );
        }
    }
}

impl Tally for ResolverVennTally {
    type Profile = ResolverProfile;

    fn observe(&mut self, r: &ResolverProfile) {
        self.0.add(
            vulnscan::resolver_hijackable(r),
            vulnscan::resolver_saddns_vulnerable(r),
            vulnscan::resolver_frag_vulnerable(r),
        );
    }

    fn merge(&mut self, other: Self) {
        self.0.merge(&other.0);
    }
}

/// Venn tally over domain profiles.
#[derive(Debug, Clone, Default)]
pub(crate) struct DomainVennTally(pub VennCounts);

impl DomainVennTally {
    /// Columnar sibling of [`ResolverVennTally::observe_block`].
    fn observe_block(&mut self, b: &DomainBlock) {
        for i in 0..b.len() {
            self.0.add(vulnscan::prefix_hijackable(b.announced_prefix_len[i]), b.ns_rate_limits[i], b.fragments_any[i]);
        }
    }
}

impl Tally for DomainVennTally {
    type Profile = DomainProfile;

    fn observe(&mut self, d: &DomainProfile) {
        self.0.add(
            vulnscan::domain_hijackable(d),
            vulnscan::domain_saddns_vulnerable(d),
            vulnscan::domain_frag_any_vulnerable(d),
        );
    }

    fn merge(&mut self, other: Self) {
        self.0.merge(&other.0);
    }
}

/// The Figure 5a overlap campaign over one resolver dataset.
pub(crate) struct ResolverOverlap<'a>(pub &'a DatasetSpec);

impl Campaign for ResolverOverlap<'_> {
    type Profile = ResolverProfile;
    type Tally = ResolverVennTally;

    fn salt(&self) -> u64 {
        self.0.resolver_stream_salt()
    }

    fn draw(&self, rng: &mut ChaCha20Rng) -> ResolverProfile {
        population::draw_resolver(self.0, rng)
    }

    fn new_tally(&self) -> ResolverVennTally {
        ResolverVennTally::default()
    }

    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut ResolverVennTally) {
        let mut block = ResolverBlock::with_capacity(count);
        population::fill_resolver_block(self.0, rng, count, &mut block);
        tally.observe_block(&block);
    }
}

/// The Figure 5b overlap campaign over one domain dataset.
pub(crate) struct DomainOverlap<'a>(pub &'a DatasetSpec);

impl Campaign for DomainOverlap<'_> {
    type Profile = DomainProfile;
    type Tally = DomainVennTally;

    fn salt(&self) -> u64 {
        self.0.domain_stream_salt()
    }

    fn draw(&self, rng: &mut ChaCha20Rng) -> DomainProfile {
        population::draw_domain(self.0, rng)
    }

    fn new_tally(&self) -> DomainVennTally {
        DomainVennTally::default()
    }

    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut DomainVennTally) {
        let mut block = DomainBlock::with_capacity(count);
        population::fill_domain_block(self.0, rng, count, &mut block);
        tally.observe_block(&block);
    }
}

/// Figure 5a: overlap over all resolver datasets, on the sharded engine.
pub fn figure5_resolver_overlap_with(cfg: &CampaignConfig) -> VennCounts {
    let mut counts = VennCounts::default();
    for spec in population::table3_datasets() {
        counts.merge(&run_campaign(&ResolverOverlap(&spec), spec.sample_size(cfg.sample_cap), cfg).0);
    }
    counts
}

/// Figure 5b: overlap over all domain datasets, on the sharded engine.
pub fn figure5_domain_overlap_with(cfg: &CampaignConfig) -> VennCounts {
    let mut counts = VennCounts::default();
    for spec in population::table4_datasets() {
        counts.merge(&run_campaign(&DomainOverlap(&spec), spec.sample_size(cfg.sample_cap), cfg).0);
    }
    counts
}

/// Renders a CDF set as a text table (one row per threshold).
pub fn render_cdfs(title: &str, cdfs: &[Cdf]) -> String {
    let mut headers = vec!["x".to_string()];
    headers.extend(cdfs.iter().map(|c| c.label.clone()));
    let mut t = TextTable::new(title, &headers.iter().map(String::as_str).collect::<Vec<_>>());
    if let Some(first) = cdfs.first() {
        for &(x, _) in &first.points {
            let mut row = vec![x.to_string()];
            for c in cdfs {
                row.push(format!("{:.1}%", c.at(x) * 100.0));
            }
            t.row(row);
        }
    }
    t.render()
}

/// Renders the Venn counts.
pub fn render_venn(title: &str, v: &VennCounts) -> String {
    let mut t = TextTable::new(title, &["Region", "Count"]);
    t.row(["HijackDNS only", &v.only_hijack.to_string()]);
    t.row(["SadDNS only", &v.only_saddns.to_string()]);
    t.row(["FragDNS only", &v.only_frag.to_string()]);
    t.row(["Hijack ∩ SadDNS", &v.hijack_saddns.to_string()]);
    t.row(["Hijack ∩ FragDNS", &v.hijack_frag.to_string()]);
    t.row(["SadDNS ∩ FragDNS", &v.saddns_frag.to_string()]);
    t.row(["All three", &v.all_three.to_string()]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_shapes() {
        let cdfs = figure3_prefix_distributions_with(&CampaignConfig::new(11, 10_000));
        assert_eq!(cdfs.len(), 3);
        for cdf in &cdfs {
            // CDFs are monotone and end at 100% at /24.
            for w in cdf.points.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
            assert!((cdf.at(24) - 1.0).abs() < 1e-9);
            // A substantial share of announcements is shorter than /24.
            assert!(cdf.at(23) > 0.4);
        }
    }

    #[test]
    fn figure4_bimodal_edns_and_548_fragments() {
        let (edns, frag) = figure4_edns_vs_fragment_with(&CampaignConfig::new(11, 10_000));
        // ~40% of resolvers advertise ≤512 bytes; ~50% advertise 4096.
        assert!((edns.at(512) - 0.40).abs() < 0.05);
        assert!(edns.at(2048) < 0.55);
        assert!((edns.at(4096) - 1.0).abs() < 1e-9);
        // Most fragmenting nameservers can be pushed to 548 bytes.
        assert!(frag.at(548) > 0.80);
        assert!(frag.at(292) < 0.15);
    }

    /// Elements vulnerable to FragDNS (any combination).
    fn frag_total(v: &VennCounts) -> u64 {
        v.only_frag + v.hijack_frag + v.saddns_frag + v.all_three
    }

    #[test]
    fn figure5_hijack_dominates() {
        let resolvers = figure5_resolver_overlap_with(&CampaignConfig::new(11, 3_000));
        assert!(resolvers.hijack_total() > resolvers.saddns_total());
        assert!(resolvers.hijack_total() > frag_total(&resolvers));
        // Vulnerable to at least one method: the hijackable set plus the rest of the union.
        assert!(resolvers.hijack_total() + resolvers.only_saddns + resolvers.only_frag + resolvers.saddns_frag > 0);
        // SadDNS and FragDNS overlap mostly *inside* the hijackable set.
        assert!(resolvers.all_three + resolvers.hijack_saddns >= resolvers.only_saddns);

        let domains = figure5_domain_overlap_with(&CampaignConfig::new(11, 3_000));
        assert!(domains.hijack_total() > domains.saddns_total());
        assert!(domains.saddns_total() > frag_total(&domains) / 2, "domains: SadDNS and FragDNS are the small sets");
    }

    #[test]
    fn rendering_works() {
        let cdfs = figure3_prefix_distributions_with(&CampaignConfig::new(11, 1_000));
        let s = render_cdfs("Figure 3", &cdfs);
        assert!(s.contains("Open resolver"));
        let v = figure5_resolver_overlap_with(&CampaignConfig::new(11, 1_000));
        let s = render_venn("Figure 5a", &v);
        assert!(s.contains("All three"));
    }

    #[test]
    fn histogram_scans_match_materialised_populations() {
        // The tally-based CDFs must equal the CDFs computed from the full
        // generated population (same streams, same shards).
        let cfg = CampaignConfig::new(11, 6_000);
        let specs = population::table3_datasets();
        let pop = population::generate_resolvers_with(&specs[7], &cfg);
        let thresholds: Vec<u32> = (11..=24).collect();
        // The CDF of the materialised values, evaluated at the thresholds.
        let values: Vec<u32> = pop.iter().map(|r| u32::from(r.announced_prefix_len)).collect();
        let n = values.len().max(1) as f64;
        let points = thresholds.iter().map(|&t| (t, values.iter().filter(|&&v| v <= t).count() as f64 / n)).collect();
        let from_pop = Cdf { label: "Resolvers: Open resolver".to_string(), points };
        let from_scan = Cdf::from_histogram(
            "Resolvers: Open resolver",
            &scan_resolvers(&specs[7], ResolverMetric::PrefixLen, &cfg),
            &thresholds,
        );
        assert_eq!(from_pop, from_scan);
    }

    #[test]
    fn figures_are_worker_invariant() {
        let base = CampaignConfig::new(11, 5_000);
        let par = base.clone().with_workers(4);
        assert_eq!(figure3_prefix_distributions_with(&base), figure3_prefix_distributions_with(&par));
        assert_eq!(figure4_edns_vs_fragment_with(&base), figure4_edns_vs_fragment_with(&par));
        assert_eq!(figure5_resolver_overlap_with(&base), figure5_resolver_overlap_with(&par));
        assert_eq!(figure5_domain_overlap_with(&base), figure5_domain_overlap_with(&par));
    }
}

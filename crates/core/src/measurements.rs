//! The Internet-measurement campaigns: vulnerable resolvers (Table 3) and
//! vulnerable domains (Table 4), running on the sharded campaign engine
//! ([`crate::campaign`]).
//!
//! Each campaign generates the synthetic population for every dataset (see
//! [`crate::population`]), classifies every element with the vulnerability
//! scanners and reports the per-dataset percentages — the same aggregation
//! the paper performs over its live measurements. Classification happens
//! shard-locally into mergeable class counters, so the campaigns scale
//! across worker threads while staying byte-identical to the sequential
//! reference run.

use crate::campaign::{self, Campaign, CampaignConfig, Tally};
use crate::population::{self, DatasetSpec, DomainBlock, DomainProfile, ResolverBlock, ResolverProfile};
use crate::report::{pct, TextTable};
use crate::vulnscan;
use rand_chacha::ChaCha20Rng;

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverDatasetResult {
    /// Dataset name.
    pub dataset: String,
    /// Protocols column.
    pub protocols: String,
    /// Fraction vulnerable to BGP sub-prefix hijack.
    pub hijack: f64,
    /// Fraction vulnerable to SadDNS.
    pub saddns: f64,
    /// Fraction vulnerable to FragDNS.
    pub frag: f64,
    /// Population size the paper reports.
    pub reported_size: u64,
    /// Sample actually generated and classified.
    pub sample_size: usize,
}

/// One row of the Table 4 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainDatasetResult {
    /// Dataset name.
    pub dataset: String,
    /// Protocols column.
    pub protocols: String,
    /// Fraction vulnerable to BGP sub-prefix hijack.
    pub hijack: f64,
    /// Fraction vulnerable to SadDNS (mutable nameservers).
    pub saddns: f64,
    /// Fraction vulnerable to FragDNS with ANY-style inflation.
    pub frag_any: f64,
    /// Fraction vulnerable to deterministic FragDNS (global IPID).
    pub frag_global: f64,
    /// Fraction of DNSSEC-signed domains.
    pub dnssec: f64,
    /// Population size the paper reports.
    pub reported_size: u64,
    /// Sample actually generated and classified.
    pub sample_size: usize,
}

telemetry::counters! {
    /// Per-shard classification counts of one resolver dataset — the mergeable
    /// tally behind Table 3.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ResolverClassCounts {
        /// Elements observed.
        pub n: u64,
        /// Elements vulnerable to BGP sub-prefix hijack.
        pub hijack: u64,
        /// Elements vulnerable to SadDNS.
        pub saddns: u64,
        /// Elements accepting fragmented responses.
        pub frag: u64,
    }
    fn merge;
}

impl ResolverClassCounts {
    /// Folds a columnar block: one contiguous scan per class, equivalent to
    /// observing every row (`tests/soa_equivalence.rs`). The per-column
    /// predicates mirror `vulnscan::resolver_*`.
    pub fn observe_block(&mut self, b: &ResolverBlock) {
        self.n += b.len() as u64;
        self.hijack += b.announced_prefix_len.iter().filter(|&&len| len < 24).count() as u64;
        self.saddns += b.alive.iter().zip(&b.global_icmp_limit).filter(|&(&alive, &icmp)| alive && icmp).count() as u64;
        self.frag += b.alive.iter().zip(&b.accepts_fragments).filter(|&(&alive, &frag)| alive && frag).count() as u64;
    }
}

impl Tally for ResolverClassCounts {
    type Profile = ResolverProfile;

    fn observe(&mut self, r: &ResolverProfile) {
        self.n += 1;
        self.hijack += u64::from(vulnscan::resolver_hijackable(r));
        self.saddns += u64::from(vulnscan::resolver_saddns_vulnerable(r));
        self.frag += u64::from(vulnscan::resolver_frag_vulnerable(r));
    }

    fn merge(&mut self, other: Self) {
        ResolverClassCounts::merge(self, &other);
    }
}

telemetry::counters! {
    /// Per-shard classification counts of one domain dataset — the mergeable
    /// tally behind Table 4.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct DomainClassCounts {
        /// Elements observed.
        pub n: u64,
        /// Elements vulnerable to BGP sub-prefix hijack.
        pub hijack: u64,
        /// Elements with mutable (rate-limiting) nameservers.
        pub saddns: u64,
        /// Elements fragmenting on ANY-style queries.
        pub frag_any: u64,
        /// Elements fragmenting with a global IPID counter.
        pub frag_global: u64,
        /// DNSSEC-signed elements.
        pub dnssec: u64,
    }
    fn merge;
}

impl DomainClassCounts {
    /// Folds a columnar block: one contiguous scan per class, equivalent to
    /// observing every row (`tests/soa_equivalence.rs`). The per-column
    /// predicates mirror `vulnscan::domain_*`.
    pub fn observe_block(&mut self, b: &DomainBlock) {
        self.n += b.len() as u64;
        self.hijack += b.announced_prefix_len.iter().filter(|&&len| vulnscan::prefix_hijackable(len)).count() as u64;
        self.saddns += b.ns_rate_limits.iter().filter(|&&rrl| rrl).count() as u64;
        self.frag_any += b.fragments_any.iter().filter(|&&frag| frag).count() as u64;
        self.frag_global +=
            b.fragments_any.iter().zip(&b.global_ipid).filter(|&(&frag, &ipid)| frag && ipid).count() as u64;
        self.dnssec += b.dnssec_signed.iter().filter(|&&signed| signed).count() as u64;
    }
}

impl Tally for DomainClassCounts {
    type Profile = DomainProfile;

    fn observe(&mut self, d: &DomainProfile) {
        self.n += 1;
        self.hijack += u64::from(vulnscan::domain_hijackable(d));
        self.saddns += u64::from(vulnscan::domain_saddns_vulnerable(d));
        self.frag_any += u64::from(vulnscan::domain_frag_any_vulnerable(d));
        self.frag_global += u64::from(vulnscan::domain_frag_global_vulnerable(d));
        self.dnssec += u64::from(d.dnssec_signed);
    }

    fn merge(&mut self, other: Self) {
        DomainClassCounts::merge(self, &other);
    }
}

fn frac(count: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        count as f64 / n as f64
    }
}

/// The Table 3 classification campaign over one resolver dataset.
pub struct ResolverCampaign<'a>(pub &'a DatasetSpec);

impl Campaign for ResolverCampaign<'_> {
    type Profile = ResolverProfile;
    type Tally = ResolverClassCounts;

    fn salt(&self) -> u64 {
        self.0.resolver_stream_salt()
    }

    fn draw(&self, rng: &mut ChaCha20Rng) -> ResolverProfile {
        population::draw_resolver(self.0, rng)
    }

    fn new_tally(&self) -> ResolverClassCounts {
        ResolverClassCounts::default()
    }

    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut ResolverClassCounts) {
        let mut block = ResolverBlock::with_capacity(count);
        population::fill_resolver_block(self.0, rng, count, &mut block);
        tally.observe_block(&block);
    }
}

/// The Table 4 classification campaign over one domain dataset.
pub struct DomainCampaign<'a>(pub &'a DatasetSpec);

impl Campaign for DomainCampaign<'_> {
    type Profile = DomainProfile;
    type Tally = DomainClassCounts;

    fn salt(&self) -> u64 {
        self.0.domain_stream_salt()
    }

    fn draw(&self, rng: &mut ChaCha20Rng) -> DomainProfile {
        population::draw_domain(self.0, rng)
    }

    fn new_tally(&self) -> DomainClassCounts {
        DomainClassCounts::default()
    }

    fn fold_shard(&self, rng: &mut ChaCha20Rng, count: usize, tally: &mut DomainClassCounts) {
        let mut block = DomainBlock::with_capacity(count);
        population::fill_domain_block(self.0, rng, count, &mut block);
        tally.observe_block(&block);
    }
}

/// A campaign bound to one dataset. The population size is derived from the
/// campaign's **own** spec, so the profiles drawn and the sample size
/// counted can never refer to different datasets.
pub(crate) trait DatasetCampaign: Campaign {
    /// The dataset this campaign runs over.
    fn spec(&self) -> &DatasetSpec;
}

impl DatasetCampaign for ResolverCampaign<'_> {
    fn spec(&self) -> &DatasetSpec {
        self.0
    }
}

impl DatasetCampaign for DomainCampaign<'_> {
    fn spec(&self) -> &DatasetSpec {
        self.0
    }
}

/// Runs one dataset's classification campaign on the sharded engine — the
/// single generic loop both Table 3 and Table 4 (and every future dataset
/// kind) flow through.
pub(crate) fn classify_dataset<C: DatasetCampaign>(campaign: &C, cfg: &CampaignConfig) -> C::Tally {
    campaign::run_campaign(campaign, campaign.spec().sample_size(cfg.sample_cap), cfg)
}

/// Runs the Table 3 campaign over all nine resolver datasets on the sharded
/// engine. Results are a function of `cfg.seed` / `cfg.sample_cap` only —
/// `cfg.workers` changes wall-clock time, never a single table cell.
pub fn run_table3_with(cfg: &CampaignConfig) -> Vec<ResolverDatasetResult> {
    population::table3_datasets().iter().map(|spec| classify_resolver_dataset_with(spec, cfg)).collect()
}

/// Classifies one resolver dataset on the sharded engine.
pub fn classify_resolver_dataset_with(spec: &DatasetSpec, cfg: &CampaignConfig) -> ResolverDatasetResult {
    let counts = classify_dataset(&ResolverCampaign(spec), cfg);
    ResolverDatasetResult {
        dataset: spec.name.to_string(),
        protocols: spec.protocols.to_string(),
        hijack: frac(counts.hijack, counts.n),
        saddns: frac(counts.saddns, counts.n),
        frag: frac(counts.frag, counts.n),
        reported_size: spec.reported_size,
        sample_size: counts.n as usize,
    }
}

/// Runs the Table 4 campaign over all ten domain datasets on the sharded
/// engine.
pub fn run_table4_with(cfg: &CampaignConfig) -> Vec<DomainDatasetResult> {
    population::table4_datasets().iter().map(|spec| classify_domain_dataset_with(spec, cfg)).collect()
}

/// Classifies one domain dataset on the sharded engine.
pub fn classify_domain_dataset_with(spec: &DatasetSpec, cfg: &CampaignConfig) -> DomainDatasetResult {
    let counts = classify_dataset(&DomainCampaign(spec), cfg);
    DomainDatasetResult {
        dataset: spec.name.to_string(),
        protocols: spec.protocols.to_string(),
        hijack: frac(counts.hijack, counts.n),
        saddns: frac(counts.saddns, counts.n),
        frag_any: frac(counts.frag_any, counts.n),
        frag_global: frac(counts.frag_global, counts.n),
        dnssec: frac(counts.dnssec, counts.n),
        reported_size: spec.reported_size,
        sample_size: counts.n as usize,
    }
}

/// Renders the Table 3 reproduction.
pub fn render_table3(rows: &[ResolverDatasetResult]) -> String {
    let mut t = TextTable::new(
        "Table 3 — Vulnerable resolvers",
        &["Dataset", "Protocol", "BGP sub-prefix", "SadDNS", "Fragment", "Dataset size"],
    );
    for r in rows {
        t.row([
            r.dataset.clone(),
            r.protocols.clone(),
            pct(r.hijack),
            pct(r.saddns),
            pct(r.frag),
            r.reported_size.to_string(),
        ]);
    }
    t.render()
}

/// Renders the Table 4 reproduction.
pub fn render_table4(rows: &[DomainDatasetResult]) -> String {
    let mut t = TextTable::new(
        "Table 4 — Vulnerable domains",
        &["Dataset", "Protocol", "BGP sub-prefix", "SadDNS", "Frag (any)", "Frag (global)", "DNSSEC", "Total"],
    );
    for r in rows {
        t.row([
            r.dataset.clone(),
            r.protocols.clone(),
            pct(r.hijack),
            pct(r.saddns),
            pct(r.frag_any),
            pct(r.frag_global),
            pct(r.dnssec),
            r.reported_size.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reproduces_paper_shape() {
        let rows = run_table3_with(&CampaignConfig::new(42, 20_000));
        assert_eq!(rows.len(), 9);
        let open = rows.iter().find(|r| r.dataset.contains("Open resolvers")).unwrap();
        // Paper: 74% / 12% / 31%.
        assert!((open.hijack - 0.74).abs() < 0.03, "hijack {}", open.hijack);
        assert!((open.saddns - 0.12).abs() < 0.03, "saddns {}", open.saddns);
        assert!((open.frag - 0.31).abs() < 0.03, "frag {}", open.frag);
        // Ad-net: fragment acceptance is the highest of the big datasets (91%).
        let adnet = rows.iter().find(|r| r.dataset.contains("Ad-net")).unwrap();
        assert!(adnet.frag > 0.85);
        // HijackDNS applies to by far the most resolvers in every dataset.
        for r in &rows {
            assert!(r.hijack >= r.saddns || r.hijack == 0.0, "{}: hijack < saddns", r.dataset);
        }
    }

    #[test]
    fn table4_reproduces_paper_shape() {
        let rows = run_table4_with(&CampaignConfig::new(42, 20_000));
        assert_eq!(rows.len(), 10);
        let alexa = rows.iter().find(|r| r.dataset == "Alexa 1M").unwrap();
        assert!((alexa.hijack - 0.53).abs() < 0.03);
        assert!((alexa.saddns - 0.12).abs() < 0.03);
        assert!(alexa.frag_any < 0.08);
        assert!(alexa.frag_global <= alexa.frag_any, "global-IPID fragmentation is a subset");
        assert!(alexa.dnssec < 0.05, "fewer than 5% of domains are signed");
        // Eduroam stands out with very high sub-prefix hijackability (96%).
        let eduroam = rows.iter().find(|r| r.dataset.contains("Eduroam")).unwrap();
        assert!(eduroam.hijack > 0.9);
        // RPKI repositories are small networks (/24): low hijackability.
        let rpki = rows.iter().find(|r| r.dataset.contains("RPKI")).unwrap();
        assert!(rpki.hijack < 0.4);
    }

    #[test]
    fn rendering_contains_all_datasets() {
        let rows = run_table3_with(&CampaignConfig::new(1, 500));
        let rendered = render_table3(&rows);
        for r in &rows {
            assert!(rendered.contains(&r.dataset));
        }
        let rows4 = run_table4_with(&CampaignConfig::new(1, 500));
        let rendered4 = render_table4(&rows4);
        assert!(rendered4.contains("Eduroam"));
    }

    #[test]
    fn deterministic_for_seed() {
        let table3 = |seed| run_table3_with(&CampaignConfig::new(seed, 2_000));
        assert_eq!(table3(7), table3(7));
        assert_ne!(table3(7), table3(8));
    }

    #[test]
    fn class_counts_match_generated_population() {
        // The tally-based campaign must count exactly what classifying the
        // materialised population counts — same streams, same shards.
        let spec = &population::table3_datasets()[7];
        let cfg = CampaignConfig::new(5, 9_000);
        let pop = population::generate_resolvers_with(spec, &cfg);
        let counts = classify_dataset(&ResolverCampaign(spec), &cfg);
        assert_eq!(counts.n as usize, pop.len());
        assert_eq!(counts.hijack, pop.iter().filter(|r| vulnscan::resolver_hijackable(r)).count() as u64);
        assert_eq!(counts.saddns, pop.iter().filter(|r| vulnscan::resolver_saddns_vulnerable(r)).count() as u64);
        assert_eq!(counts.frag, pop.iter().filter(|r| vulnscan::resolver_frag_vulnerable(r)).count() as u64);
    }

    #[test]
    fn worker_count_never_changes_a_cell() {
        let reference = run_table3_with(&CampaignConfig::new(11, 6_000));
        for workers in [2usize, 4, 8] {
            assert_eq!(run_table3_with(&CampaignConfig::new(11, 6_000).with_workers(workers)), reference);
        }
        let reference4 = run_table4_with(&CampaignConfig::new(11, 6_000));
        assert_eq!(run_table4_with(&CampaignConfig::new(11, 6_000).with_workers(3)), reference4);
    }
}

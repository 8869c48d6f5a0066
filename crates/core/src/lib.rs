//! # xlayer-core — the cross-layer attack framework and evaluation harness
//!
//! This crate is the paper's primary contribution layer: it ties the
//! substrates (`netsim`, `dns`, `bgp`), the three poisoning methodologies
//! (`attacks`) and the application models (`apps`) into reproducible
//! experiments:
//!
//! * [`campaign`] — the sharded parallel campaign engine: deterministic
//!   shard partitioning, per-shard `(seed, shard_id)`-derived RNG streams, a
//!   `std::thread` + `mpsc` worker pool and order-independent tally merging
//!   (results are invariant under the worker count);
//! * [`population`] — synthetic Internet populations calibrated to the
//!   paper's measured marginals (the substitution for Censys / ad-network /
//!   Alexa datasets, documented in `DESIGN.md`);
//! * `vulnscan` (crate-internal) — the per-methodology classification rules
//!   the campaigns count. Its active packet-level probes (ICMP global-limit
//!   test, fragment-acceptance test, RRL burst test, PMTUD fragmentation
//!   test) are test-side: they live in its unit tests and check the rules;
//!   no campaign runs them;
//! * [`measurements`] — the Table 3 (vulnerable resolvers) and Table 4
//!   (vulnerable domains) campaigns;
//! * [`anycache`] — the Table 5 `ANY`-caching experiment;
//! * [`analysis`] — the Table 6 comparative analysis (applicability,
//!   effectiveness, stealth), backed by real attack simulations;
//! * [`figures`] — Figures 3, 4 and 5;
//! * [`taxonomy`] — rendering of Tables 1 and 2 from the `apps` models;
//! * [`scenario`] — the composable trigger → poison → exploit pipeline:
//!   the `Scenario` builder over `dyn AttackVector` + `dyn ExploitStage`,
//!   and the `ScenarioCampaign` (vector × defence × seed) success-rate
//!   matrix on the sharded engine;
//! * [`crosslayer`] — end-to-end cross-layer scenarios (RPKI downgrade →
//!   BGP hijack, password-recovery takeover, SPF downgrade), instantiated
//!   on the pipeline;
//! * [`countermeasures`] — the Section 6 defence ablation;
//! * [`report`] — plain-text table rendering used by the renderers and examples.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod anycache;
pub mod campaign;
pub mod countermeasures;
pub mod crosslayer;
pub mod farm;
pub mod figures;
pub mod measurements;
pub mod population;
pub mod report;
pub mod scenario;
pub mod taxonomy;
mod vulnscan;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::analysis::{render_table6, run_table6_from, run_table6_with, saddns_effectiveness};
    pub use crate::anycache::{render_table5, run_table5};
    pub use crate::campaign::{
        available_workers, derive_seed, generate_population, run_campaign, run_campaign_with_metrics, run_grid,
        run_shards, shard_count, shard_range, shard_ranges, shard_rng, Campaign, CampaignConfig, GridCampaign,
        Histogram, SeedStream, Tally, SHARD_SIZE,
    };
    pub use crate::countermeasures::{evaluate_cell, render_ablation, run_ablation, Defence};
    pub use crate::crosslayer::{
        account_takeover_vector, password_recovery_scenario, rpki_downgrade_scenario, rpki_downgrade_vector,
        spf_downgrade_scenario, spf_downgrade_vector,
    };
    pub use crate::farm::{
        run_farm_campaign, run_farm_campaign_with_metrics, saddns_under_load, FarmCampaignConfig, FARM_SALT,
    };
    pub use crate::figures::{
        figure3_prefix_distributions_with, figure4_edns_vs_fragment_with, figure5_domain_overlap_with,
        figure5_resolver_overlap_with, render_cdfs, render_venn, VennCounts,
    };
    pub use crate::measurements::{
        render_table3, render_table4, run_table3_with, run_table4_with, DomainCampaign, DomainClassCounts,
        DomainDatasetResult, ResolverCampaign, ResolverClassCounts, ResolverDatasetResult,
    };
    pub use crate::population::{
        draw_domain, draw_resolver, fill_domain_block, fill_resolver_block, generate_domains_with,
        generate_resolvers_with, table3_datasets, table4_datasets, DatasetSpec, DomainBlock, ResolverBlock,
    };
    pub use crate::report::TextTable;
    pub use crate::scenario::{
        render_dnssec_matrix, render_scenario_matrix, AttackPhase, CertIssuance, ExploitStage, ExploitVerdict,
        PasswordRecoveryExploit, PreparedCell, RpkiDowngradeExploit, Scenario, ScenarioCampaign, ScenarioMatrix,
        ScenarioOutcome, SpfPolicyExploit, WebRedirectExploit, DNSSEC_GRID_SALT, SCENARIO_GRID_SALT,
    };
    pub use crate::taxonomy::{render_table1, render_table2};
}

//! Regenerates every table and figure of the paper's evaluation section in
//! one run on the sharded campaign engine: the Table 1/2 taxonomies, the
//! Table 3/4 vulnerability campaigns, the Table 5 ANY-caching experiment,
//! the Table 6 comparative analysis, the Figure 3/4 distributions, the
//! Figure 5 overlaps and the Section 6 countermeasure ablation.
//!
//! ```text
//! cargo run --release --example measurement_campaign -- \
//!     [--seed N] [--cap N] [--workers N] [--saddns-runs N]
//! ```
//!
//! `--workers` fans the campaign shards out across a thread pool; results
//! are byte-identical for every worker count (the engine's determinism
//! contract), so the knob only changes wall-clock time.
//! `--help` exits 0; an unknown flag or a bad value exits 2.

use cross_layer_attacks::cli;
use cross_layer_attacks::xlayer_core::prelude::*;
use std::time::Instant;

fn main() {
    let cli::CampaignArgs { cfg, saddns_runs } = cli::from_env(cli::measurement_campaign);
    println!(
        "campaign engine: seed={} cap={} workers={} (of {} available), shard size {}",
        cfg.seed,
        cfg.sample_cap,
        cfg.workers,
        available_workers(),
        SHARD_SIZE
    );
    let started = Instant::now();

    println!("{}", render_table1());
    println!("{}", render_table2());

    let t3 = run_table3_with(&cfg);
    println!("{}", render_table3(&t3));

    let t4 = run_table4_with(&cfg);
    println!("{}", render_table4(&t4));

    let t5 = run_table5(cfg.seed);
    println!("{}", render_table5(&t5));

    // Reuse the Table 3/4 rows computed above instead of re-running both campaigns.
    let t6 = run_table6_from(&t3, &t4, cfg.seed, saddns_runs);
    println!("{}", render_table6(&t6));

    let fig3 = figure3_prefix_distributions_with(&cfg);
    println!("{}", render_cdfs("Figure 3 — announced prefix lengths (CDF)", &fig3));

    let (edns, frag) = figure4_edns_vs_fragment_with(&cfg);
    println!(
        "{}",
        render_cdfs("Figure 4 — resolver EDNS size vs nameserver minimum fragment size (CDF)", &[edns, frag])
    );

    println!("{}", render_venn("Figure 5a — vulnerable resolvers (overlap)", &figure5_resolver_overlap_with(&cfg)));
    println!("{}", render_venn("Figure 5b — vulnerable domains (overlap)", &figure5_domain_overlap_with(&cfg)));

    let ablation = run_ablation(&Defence::all(), cfg.seed);
    println!("{}", render_ablation(&ablation));

    println!("campaign complete in {:.2?} (workers={})", started.elapsed(), cfg.workers);
}

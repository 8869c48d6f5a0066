//! Table 5 — `ANY` caching behaviour of popular resolver implementations.
//!
//! For each implementation profile a real resolver node is configured with
//! that profile's ANY-caching policy, an `ANY` query is triggered through it,
//! and then an `A` query for the same name: the implementation is
//! "vulnerable" when the second query is answered from the cached `ANY`
//! contents without consulting the nameserver again.

use crate::report::TextTable;
use attacks::prelude::{QueryTrigger, VictimEnvConfig};
use dns::prelude::*;

/// Result for one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnyCachingResult {
    /// Implementation display name.
    pub implementation: String,
    /// Whether subsequent A queries were served from the cached ANY response.
    pub vulnerable: bool,
    /// Note column (matches the paper's wording).
    pub note: String,
    /// Upstream queries observed for the ANY + A sequence.
    pub upstream_queries: u64,
}

/// Runs the Table 5 experiment for one implementation profile.
///
/// The profile's shipping EDNS buffer size is honoured verbatim — including
/// systemd-resolved's 512 bytes, which makes large `ANY` answers truncate
/// over UDP. Real deployments of the era fell back to TCP on TC=1 (RFC 7766),
/// so the evaluation runs with that fallback enabled; vulnerability is judged
/// by whether the later `A` query causes *any additional* upstream traffic,
/// not by an absolute query count (a TC fallback legitimately re-queries).
pub(crate) fn evaluate_implementation(imp: dns::profiles::ResolverImplementation, seed: u64) -> AnyCachingResult {
    let mut env_cfg = VictimEnvConfig { seed, ..Default::default() };
    env_cfg.resolver.any_caching = imp.any_caching();
    env_cfg.resolver.edns_size = imp.default_edns_size();
    env_cfg.resolver.transport_policy = dns::resolver::UpstreamTransport::UdpTcFallback;
    let (mut sim, env) = env_cfg.build();
    let name: DomainName = "vict.im".parse().expect("name");
    env.trigger_query(&mut sim, QueryTrigger::OpenResolver, &name, RecordType::ANY, 1);
    sim.run();
    let after_any = env.resolver(&sim).stats.upstream_queries;
    env.trigger_query(&mut sim, QueryTrigger::OpenResolver, &name, RecordType::A, 2);
    sim.run();
    let stats = &env.resolver(&sim).stats;
    let vulnerable = match imp.any_caching() {
        dns::cache::AnyCachingPolicy::CacheAndUse => stats.upstream_queries == after_any,
        // For NotCached the A query goes upstream again; for Unsupported the
        // ANY never goes upstream at all. Either way: not vulnerable.
        _ => false,
    };
    AnyCachingResult {
        implementation: imp.display_name().to_string(),
        vulnerable,
        note: imp.note().to_string(),
        upstream_queries: stats.upstream_queries,
    }
}

/// Runs the full Table 5 campaign.
pub fn run_table5(seed: u64) -> Vec<AnyCachingResult> {
    dns::profiles::ResolverImplementation::all().into_iter().map(|imp| evaluate_implementation(imp, seed)).collect()
}

/// Renders the Table 5 reproduction.
pub fn render_table5(rows: &[AnyCachingResult]) -> String {
    let mut t =
        TextTable::new("Table 5 — ANY caching results of popular resolvers", &["Implementation", "Vulnerable", "Note"]);
    for r in rows {
        t.row([r.implementation.clone(), if r.vulnerable { "yes".into() } else { "no".to_string() }, r.note.clone()]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::profiles::ResolverImplementation as Imp;

    #[test]
    fn three_of_five_implementations_are_vulnerable() {
        let rows = run_table5(5);
        assert_eq!(rows.len(), 5);
        let vulnerable: Vec<&str> = rows.iter().filter(|r| r.vulnerable).map(|r| r.implementation.as_str()).collect();
        assert_eq!(vulnerable.len(), 3, "Table 5: exactly three implementations reuse cached ANY data: {vulnerable:?}");
        assert!(vulnerable.contains(&"BIND 9.14.0"));
        assert!(vulnerable.contains(&"PowerDNS Recursor 4.3.0"));
        assert!(vulnerable.contains(&"systemd resolved 245"));
    }

    #[test]
    fn unbound_never_queries_upstream_for_any() {
        let row = evaluate_implementation(Imp::Unbound1_9, 5);
        assert!(!row.vulnerable);
        // The ANY query is refused locally; only the later A query goes out.
        assert_eq!(row.upstream_queries, 1);
        assert_eq!(row.note, "doesn't support ANY at all");
    }

    #[test]
    fn dnsmasq_requeries_for_a() {
        let row = evaluate_implementation(Imp::Dnsmasq2_79, 5);
        assert!(!row.vulnerable);
        assert_eq!(row.upstream_queries, 2, "ANY and A each go upstream");
    }

    #[test]
    fn profile_edns_sizes_survive_into_the_env() {
        // Regression: the EDNS size used to be clamped with `.max(1232)`,
        // silently overriding profiles that ship a smaller default.
        for imp in Imp::all() {
            let mut env_cfg = VictimEnvConfig { seed: 5, ..Default::default() };
            env_cfg.resolver.edns_size = imp.default_edns_size();
            let (sim, env) = env_cfg.build();
            assert_eq!(
                env.resolver(&sim).config().edns_size,
                imp.default_edns_size(),
                "{} EDNS size must reach the resolver unmodified",
                imp.display_name()
            );
        }
    }

    #[test]
    fn systemd_resolved_truncates_but_still_caches_via_tcp() {
        // With its real 512-byte EDNS default the ANY answer truncates over
        // UDP; the TC fallback re-queries over TCP and the cached contents
        // still pre-poison the later A lookup.
        let row = evaluate_implementation(Imp::SystemdResolved245, 5);
        assert!(row.vulnerable);
    }

    #[test]
    fn rendering_lists_all_rows() {
        let rendered = render_table5(&run_table5(5));
        for imp in Imp::all() {
            assert!(rendered.contains(imp.display_name()));
        }
    }
}

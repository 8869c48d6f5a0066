//! Behaviour profiles of popular DNS implementations.
//!
//! Table 5 of the paper tests five recursive resolver implementations for
//! whether the contents of an `ANY` response are cached and later used to
//! answer specific (`A`) queries — the property that makes the
//! response-inflation trick useful beyond open resolvers. This module encodes
//! those observed behaviours plus a few configuration traits used elsewhere
//! in the measurement campaigns (default EDNS buffer size, 0x20 usage).

use crate::cache::AnyCachingPolicy;

/// The resolver implementations evaluated in Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolverImplementation {
    /// ISC BIND 9.14.0.
    Bind9_14,
    /// NLnet Labs Unbound 1.9.1.
    Unbound1_9,
    /// PowerDNS Recursor 4.3.0.
    PowerDnsRecursor4_3,
    /// systemd-resolved 245.
    SystemdResolved245,
    /// dnsmasq 2.79.
    Dnsmasq2_79,
}

impl ResolverImplementation {
    /// All profiles, in the order Table 5 lists them.
    pub fn all() -> [ResolverImplementation; 5] {
        [
            ResolverImplementation::Bind9_14,
            ResolverImplementation::Unbound1_9,
            ResolverImplementation::PowerDnsRecursor4_3,
            ResolverImplementation::SystemdResolved245,
            ResolverImplementation::Dnsmasq2_79,
        ]
    }

    /// The implementation's human-readable name as it appears in the paper.
    pub fn display_name(&self) -> &'static str {
        match self {
            ResolverImplementation::Bind9_14 => "BIND 9.14.0",
            ResolverImplementation::Unbound1_9 => "Unbound 1.9.1",
            ResolverImplementation::PowerDnsRecursor4_3 => "PowerDNS Recursor 4.3.0",
            ResolverImplementation::SystemdResolved245 => "systemd resolved 245",
            ResolverImplementation::Dnsmasq2_79 => "dnsmasq-2.79",
        }
    }

    /// How the implementation caches `ANY` responses (Table 5, column
    /// "Vulnerable"/"Note").
    pub fn any_caching(&self) -> AnyCachingPolicy {
        match self {
            ResolverImplementation::Bind9_14 => AnyCachingPolicy::CacheAndUse,
            ResolverImplementation::Unbound1_9 => AnyCachingPolicy::Unsupported,
            ResolverImplementation::PowerDnsRecursor4_3 => AnyCachingPolicy::CacheAndUse,
            ResolverImplementation::SystemdResolved245 => AnyCachingPolicy::CacheAndUse,
            ResolverImplementation::Dnsmasq2_79 => AnyCachingPolicy::NotCached,
        }
    }

    /// The note column of Table 5.
    pub fn note(&self) -> &'static str {
        match self.any_caching() {
            AnyCachingPolicy::CacheAndUse => "cached",
            AnyCachingPolicy::NotCached => "not cached",
            AnyCachingPolicy::Unsupported => "doesn't support ANY at all",
        }
    }

    /// Default EDNS buffer size advertised in queries (approximate shipping
    /// defaults of the era; used to seed the Figure 4 distribution).
    pub fn default_edns_size(&self) -> u16 {
        match self {
            ResolverImplementation::Bind9_14 => 4096,
            ResolverImplementation::Unbound1_9 => 4096,
            ResolverImplementation::PowerDnsRecursor4_3 => 1680,
            ResolverImplementation::SystemdResolved245 => 512,
            ResolverImplementation::Dnsmasq2_79 => 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_vulnerability_split() {
        let vulnerable: Vec<_> = ResolverImplementation::all()
            .iter()
            .filter(|i| i.any_caching() == AnyCachingPolicy::CacheAndUse)
            .copied()
            .collect();
        // Table 5: 3 of 5 implementations use cached ANY contents.
        assert_eq!(vulnerable.len(), 3);
        assert!(vulnerable.contains(&ResolverImplementation::Bind9_14));
        assert!(vulnerable.contains(&ResolverImplementation::PowerDnsRecursor4_3));
        assert!(vulnerable.contains(&ResolverImplementation::SystemdResolved245));
    }

    #[test]
    fn unbound_rejects_any() {
        assert_eq!(ResolverImplementation::Unbound1_9.any_caching(), AnyCachingPolicy::Unsupported);
        assert_eq!(ResolverImplementation::Unbound1_9.note(), "doesn't support ANY at all");
    }

    #[test]
    fn dnsmasq_does_not_cache_any() {
        assert_eq!(ResolverImplementation::Dnsmasq2_79.any_caching(), AnyCachingPolicy::NotCached);
        assert_ne!(ResolverImplementation::Dnsmasq2_79.any_caching(), AnyCachingPolicy::CacheAndUse);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ResolverImplementation::Bind9_14.display_name(), "BIND 9.14.0");
        assert_eq!(ResolverImplementation::SystemdResolved245.display_name(), "systemd resolved 245");
    }

    #[test]
    fn edns_defaults_reasonable() {
        for imp in ResolverImplementation::all() {
            let size = imp.default_edns_size();
            assert!((512..=4096).contains(&size));
        }
    }
}

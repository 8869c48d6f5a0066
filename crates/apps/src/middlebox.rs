//! Query-triggering behaviour of middleboxes and managed-DNS providers —
//! the reproduction of Table 2.
//!
//! Middleboxes resolve configured hostnames themselves (firewall filter
//! lists, load-balancer backends, CDN origins, ANAME/ALIAS flattening).
//! Whether an external attacker can *make* them query (on-demand) or has to
//! *predict* a timer determines which poisoning methodologies are practical
//! against them (Section 4.3 / Table 1 footnote 2).

use netsim::prelude::Duration;

/// The middlebox type groups of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MiddleboxType {
    /// Stateful firewalls resolving filter-list hostnames.
    Firewall,
    /// Load balancers resolving backend pool members.
    LoadBalancer,
    /// Content delivery networks resolving origin hostnames.
    Cdn,
    /// Managed DNS providers offering ANAME/ALIAS flattening.
    ManagedDnsAlias,
}

/// When the middlebox issues its DNS queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerBehaviour {
    /// Queries are re-issued on a fixed timer, independent of client traffic.
    Timer(Duration),
    /// Queries are issued on demand when client requests arrive (an external
    /// attacker can trigger them at will).
    OnDemand,
}

/// How long the looked-up records are used before being refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachingBehaviour {
    /// Honours the record TTL.
    HonoursTtl,
    /// Uses a fixed internal refresh interval regardless of TTL.
    Fixed(Duration),
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MiddleboxProfile {
    /// Middlebox type.
    pub kind: MiddleboxType,
    /// Vendor / provider as listed in the paper.
    pub provider: &'static str,
    /// When it queries.
    pub trigger: TriggerBehaviour,
    /// How it caches.
    pub caching: CachingBehaviour,
    /// Number of Alexa-100K websites using this provider (the paper's last column).
    pub alexa_100k_sites: u32,
}

impl MiddleboxProfile {
    /// Whether an external attacker can trigger queries on demand.
    pub fn externally_triggerable(&self) -> bool {
        matches!(self.trigger, TriggerBehaviour::OnDemand)
    }

    /// The window within which an attacker must predict the next query when
    /// it cannot trigger one (timer-driven devices).
    pub fn prediction_window(&self) -> Option<Duration> {
        match self.trigger {
            TriggerBehaviour::Timer(d) => Some(d),
            TriggerBehaviour::OnDemand => None,
        }
    }
}

/// All twelve provider rows of Table 2.
pub fn table2_middleboxes() -> Vec<MiddleboxProfile> {
    use CachingBehaviour::*;
    use MiddleboxType::*;
    use TriggerBehaviour::*;
    vec![
        MiddleboxProfile {
            kind: Firewall,
            provider: "pfSense",
            trigger: Timer(Duration::from_secs(500)),
            caching: Fixed(Duration::from_secs(500)),
            alexa_100k_sites: 0,
        },
        MiddleboxProfile {
            kind: Firewall,
            provider: "Sophos UTM",
            trigger: Timer(Duration::from_secs(240)),
            caching: Fixed(Duration::from_secs(240)),
            alexa_100k_sites: 0,
        },
        MiddleboxProfile {
            kind: LoadBalancer,
            provider: "Kemp Technologies",
            trigger: Timer(Duration::from_secs(3600)),
            caching: Fixed(Duration::from_secs(3600)),
            alexa_100k_sites: 0,
        },
        MiddleboxProfile {
            kind: LoadBalancer,
            provider: "F5 Networks",
            trigger: Timer(Duration::from_secs(3600)),
            caching: Fixed(Duration::from_secs(3600)),
            alexa_100k_sites: 0,
        },
        MiddleboxProfile {
            kind: Cdn,
            provider: "Stackpath",
            trigger: OnDemand,
            caching: HonoursTtl,
            alexa_100k_sites: 79,
        },
        MiddleboxProfile {
            kind: Cdn,
            provider: "Fastly",
            trigger: Timer(Duration::from_secs(60)),
            caching: HonoursTtl,
            alexa_100k_sites: 1_143,
        },
        MiddleboxProfile {
            kind: Cdn,
            provider: "AWS",
            trigger: OnDemand,
            caching: HonoursTtl,
            alexa_100k_sites: 11_057,
        },
        MiddleboxProfile {
            kind: Cdn,
            provider: "Cloudflare",
            trigger: OnDemand,
            caching: HonoursTtl,
            alexa_100k_sites: 17_393,
        },
        MiddleboxProfile {
            kind: ManagedDnsAlias,
            provider: "DNSimple",
            trigger: OnDemand,
            caching: HonoursTtl,
            alexa_100k_sites: 248,
        },
        MiddleboxProfile {
            kind: ManagedDnsAlias,
            provider: "DNS Made Easy",
            trigger: Timer(Duration::from_secs(2100)),
            caching: Fixed(Duration::from_secs(2100)),
            alexa_100k_sites: 1_192,
        },
        MiddleboxProfile {
            kind: ManagedDnsAlias,
            provider: "Oracle Cloud",
            trigger: OnDemand,
            caching: HonoursTtl,
            alexa_100k_sites: 1_382,
        },
        MiddleboxProfile {
            kind: ManagedDnsAlias,
            provider: "Cloudflare (ALIAS)",
            trigger: OnDemand,
            caching: HonoursTtl,
            alexa_100k_sites: 20_027,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_provider_rows() {
        assert_eq!(table2_middleboxes().len(), 12);
    }

    #[test]
    fn firewalls_and_lbs_are_timer_driven() {
        for row in table2_middleboxes() {
            match row.kind {
                MiddleboxType::Firewall | MiddleboxType::LoadBalancer => {
                    assert!(!row.externally_triggerable(), "{} should be timer-driven", row.provider);
                    assert!(row.prediction_window().is_some());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn most_cdn_and_alias_providers_are_on_demand() {
        let rows = table2_middleboxes();
        let on_demand = rows
            .iter()
            .filter(|r| matches!(r.kind, MiddleboxType::Cdn | MiddleboxType::ManagedDnsAlias))
            .filter(|r| r.externally_triggerable())
            .count();
        assert_eq!(on_demand, 6, "6 of the 8 CDN/ALIAS providers are on-demand");
    }

    #[test]
    fn alexa_share_dominated_by_cloudflare_and_aws() {
        let rows = table2_middleboxes();
        let total: u32 = rows.iter().map(|r| r.alexa_100k_sites).sum();
        let big: u32 = rows
            .iter()
            .filter(|r| r.provider.starts_with("Cloudflare") || r.provider == "AWS")
            .map(|r| r.alexa_100k_sites)
            .sum();
        assert!(big * 2 > total, "Cloudflare + AWS host most affected Alexa-100K sites");
        assert!(total > 50_000);
    }

    #[test]
    fn prediction_windows_match_paper_values() {
        let rows = table2_middleboxes();
        let pfsense = rows.iter().find(|r| r.provider == "pfSense").unwrap();
        assert_eq!(pfsense.prediction_window(), Some(Duration::from_secs(500)));
        let sophos = rows.iter().find(|r| r.provider == "Sophos UTM").unwrap();
        assert_eq!(sophos.prediction_window(), Some(Duration::from_secs(240)));
    }
}

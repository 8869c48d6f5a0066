//! The application taxonomy of Table 1.
//!
//! Each entry describes one protocol/application row: how it uses DNS
//! (location / federation / authorisation), whether the attacker controls the
//! queried name, how queries are triggered, which record types matter, which
//! poisoning methodologies apply and what the attacker achieves. The
//! `xlayer-core::taxonomy` module renders this straight into the Table 1
//! reproduction; the behavioural consequences are implemented in
//! [`crate::exploit`].

use attacks::outcome::PoisonMethod;
use dns::prelude::RecordType;

/// Application categories (left-most column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Network-access authentication (Radius / eduroam).
    Authentication,
    /// Online chat / VoIP federation (XMPP).
    OnlineChat,
    /// Email transport and anti-spam.
    Email,
    /// The web: browsing and account recovery.
    Web,
    /// Time synchronisation.
    Sync,
    /// Crypto-currencies.
    CryptoCurrency,
    /// VPN tunnelling.
    Tunnelling,
    /// Public-key infrastructure and routing security.
    Pki,
    /// Intermediate devices (firewalls, load balancers, CDNs, proxies).
    IntermediateDevices,
}

/// How the application uses the DNS result (Table 1, "DNS used for").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsUse {
    /// Locate a direct communication partner (hostname → address).
    Location,
    /// Locate a user's home server from the domain part of an identifier.
    Federation,
    /// Authorise an action in the name of the domain owner (SPF, DV, ...).
    Authorisation,
}

/// Who controls the queried name (Table 1, "query name").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryNameControl {
    /// The attacker can choose the queried domain (user IDs, URLs, ...).
    AttackerChosen,
    /// The domain is known/public but not chosen per-attack (pool.ntp.org).
    WellKnown,
    /// The domain comes from local configuration and must be learned out of band.
    Configured,
}

/// How the target query is triggered (Table 1, "query trigger method").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerMethod {
    /// The attacker connects/submits directly (open service, URL fetch).
    Direct,
    /// The attacker bounces a message off the victim (email DSN, federation error).
    Bounce,
    /// Both direct and bounce work.
    DirectOrBounce,
    /// The query happens when the victim validates something the attacker sent.
    Authentication,
    /// The victim queries on its own schedule; the attacker predicts/waits.
    WaitingOrTimer,
    /// The query is tied to a (re-)connection event the attacker can cause a DoS around.
    ConnectionDos,
    /// Triggered on demand by external requests hitting a middlebox.
    OnDemand,
}

/// The attack outcome class (Table 1, "Cache Poisoning impact").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impact {
    /// Traffic/service redirection to an attacker host.
    Hijack,
    /// A security mechanism is disabled or bypassed.
    Downgrade,
    /// The victim loses access to the service.
    DenialOfService,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationProfile {
    /// Category.
    pub category: Category,
    /// Protocol name as printed in the table.
    pub protocol: &'static str,
    /// Use case as printed in the table.
    pub use_case: &'static str,
    /// Who controls the queried name.
    pub query_name: QueryNameControl,
    /// How queries are triggered.
    pub trigger: TriggerMethod,
    /// Record types the application consumes.
    pub record_types: Vec<RecordType>,
    /// What DNS is used for.
    pub dns_use: Vec<DnsUse>,
    /// Which poisoning methodologies apply to this application.
    pub methods: Vec<PoisonMethod>,
    /// Whether SadDNS/FragDNS require a third-party application to trigger
    /// queries (the ✓² footnote in Table 1).
    pub needs_third_party_trigger: bool,
    /// Impact class.
    pub impact: Impact,
    /// Impact description as printed in the table.
    pub impact_text: &'static str,
}

/// Builds all twenty rows of Table 1.
pub fn table1_applications() -> Vec<ApplicationProfile> {
    use Category::{
        Authentication as CatAuth, CryptoCurrency, Email, IntermediateDevices, OnlineChat, Pki, Sync, Tunnelling, Web,
    };
    use Impact::*;
    use PoisonMethod::*;
    use QueryNameControl::*;
    use TriggerMethod::{Bounce, ConnectionDos, Direct, DirectOrBounce, OnDemand, WaitingOrTimer};
    let all = vec![HijackDns, SadDns, FragDns];
    let hijack_only = vec![HijackDns];
    let hijack_sad = vec![HijackDns, SadDns];
    let hijack_frag = vec![HijackDns, FragDns];
    vec![
        ApplicationProfile {
            category: CatAuth,
            protocol: "Radius",
            use_case: "Peer discovery",
            query_name: AttackerChosen,
            trigger: Direct,
            record_types: vec![RecordType::NAPTR, RecordType::SRV, RecordType::A],
            dns_use: vec![DnsUse::Location, DnsUse::Federation],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: DenialOfService,
            impact_text: "DoS: no network access",
        },
        ApplicationProfile {
            category: OnlineChat,
            protocol: "XMPP",
            use_case: "Chat+VoIP",
            query_name: AttackerChosen,
            trigger: Bounce,
            record_types: vec![RecordType::A, RecordType::SRV],
            dns_use: vec![DnsUse::Location, DnsUse::Federation],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: Email,
            protocol: "SMTP",
            use_case: "Mail",
            query_name: AttackerChosen,
            trigger: DirectOrBounce,
            record_types: vec![RecordType::A, RecordType::MX],
            dns_use: vec![DnsUse::Location, DnsUse::Federation],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: Email,
            protocol: "SPF,DMARC",
            use_case: "Anti-Spam",
            query_name: AttackerChosen,
            trigger: TriggerMethod::Authentication,
            record_types: vec![RecordType::TXT],
            dns_use: vec![DnsUse::Authorisation],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Downgrade,
            impact_text: "Downgrade: spoofing",
        },
        ApplicationProfile {
            category: Email,
            protocol: "DKIM",
            use_case: "Integrity Checking",
            query_name: AttackerChosen,
            trigger: DirectOrBounce,
            record_types: vec![RecordType::TXT],
            dns_use: vec![DnsUse::Authorisation],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Downgrade,
            impact_text: "Downgrade: spoofing",
        },
        ApplicationProfile {
            category: Web,
            protocol: "HTTP",
            use_case: "Web sites",
            query_name: AttackerChosen,
            trigger: Direct,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: Web,
            protocol: "SMTP (recovery)",
            use_case: "Password recovery",
            query_name: AttackerChosen,
            trigger: Direct,
            record_types: vec![RecordType::A, RecordType::MX, RecordType::TXT],
            dns_use: vec![DnsUse::Location, DnsUse::Authorisation],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Hijack,
            impact_text: "Hijack: account hijack",
        },
        ApplicationProfile {
            category: Sync,
            protocol: "NTP",
            use_case: "Time synchronisation",
            query_name: WellKnown,
            trigger: ConnectionDos,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: hijack_frag.clone(),
            needs_third_party_trigger: true,
            impact: Hijack,
            impact_text: "Hijack: change time",
        },
        ApplicationProfile {
            category: CryptoCurrency,
            protocol: "Bitcoin",
            use_case: "Peer discovery",
            query_name: WellKnown,
            trigger: WaitingOrTimer,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: hijack_only.clone(),
            needs_third_party_trigger: true,
            impact: Hijack,
            impact_text: "Hijack: fake blockchain",
        },
        ApplicationProfile {
            category: Tunnelling,
            protocol: "OpenVPN",
            use_case: "VPN",
            query_name: Configured,
            trigger: ConnectionDos,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: true,
            impact: DenialOfService,
            impact_text: "DoS: no VPN access",
        },
        ApplicationProfile {
            category: Tunnelling,
            protocol: "IKE",
            use_case: "VPN",
            query_name: Configured,
            trigger: ConnectionDos,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: true,
            impact: DenialOfService,
            impact_text: "DoS: no VPN access",
        },
        ApplicationProfile {
            category: Tunnelling,
            protocol: "IKE (opportunistic)",
            use_case: "Opportunistic Enc.",
            query_name: AttackerChosen,
            trigger: Bounce,
            record_types: vec![RecordType::IPSECKEY],
            dns_use: vec![DnsUse::Location, DnsUse::Authorisation],
            methods: all.clone(),
            needs_third_party_trigger: true,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: Pki,
            protocol: "DV",
            use_case: "Domain Validation",
            query_name: AttackerChosen,
            trigger: TriggerMethod::Authentication,
            record_types: vec![RecordType::A, RecordType::MX, RecordType::TXT],
            dns_use: vec![DnsUse::Location, DnsUse::Authorisation],
            methods: hijack_only.clone(),
            needs_third_party_trigger: false,
            impact: Hijack,
            impact_text: "Hijack: fraudulent certificate",
        },
        ApplicationProfile {
            category: Pki,
            protocol: "OCSP",
            use_case: "Revocation checking",
            query_name: AttackerChosen,
            trigger: Direct,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: false,
            impact: Downgrade,
            impact_text: "Downgrade: no revocation check",
        },
        ApplicationProfile {
            category: Pki,
            protocol: "RPKI",
            use_case: "Repository sync.",
            query_name: WellKnown,
            trigger: WaitingOrTimer,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: hijack_only.clone(),
            needs_third_party_trigger: true,
            impact: Downgrade,
            impact_text: "Downgrade: no ROV",
        },
        ApplicationProfile {
            category: IntermediateDevices,
            protocol: "Firewall filters",
            use_case: "Filter configuration",
            query_name: Configured,
            trigger: WaitingOrTimer,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: true,
            impact: Downgrade,
            impact_text: "Downgrade: no filters",
        },
        ApplicationProfile {
            category: IntermediateDevices,
            protocol: "Loadbalancers",
            use_case: "Backend discovery",
            query_name: Configured,
            trigger: OnDemand,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: true,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: IntermediateDevices,
            protocol: "CDN",
            use_case: "Origin fetch",
            query_name: Configured,
            trigger: OnDemand,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: hijack_frag.clone(),
            needs_third_party_trigger: true,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: IntermediateDevices,
            protocol: "DNS ANAME/ALIAS",
            use_case: "Managed DNS flattening",
            query_name: Configured,
            trigger: OnDemand,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all.clone(),
            needs_third_party_trigger: true,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
        ApplicationProfile {
            category: IntermediateDevices,
            protocol: "HTTP/Socks Proxies",
            use_case: "Upstream lookup",
            query_name: AttackerChosen,
            trigger: Direct,
            record_types: vec![RecordType::A],
            dns_use: vec![DnsUse::Location],
            methods: all,
            needs_third_party_trigger: false,
            impact: Hijack,
            impact_text: "Hijack: eavesdropping",
        },
    ]
    .into_iter()
    .map(|mut p| {
        // Keep helper vectors alive even if unused above.
        if p.protocol == "never" {
            p.methods = hijack_sad.clone();
        }
        p
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_rows_like_the_paper() {
        assert_eq!(table1_applications().len(), 20);
    }

    #[test]
    fn every_row_is_reachable_by_hijackdns() {
        // Table 1: the HijackDNS column is checked for every application.
        for app in table1_applications() {
            assert!(app.methods.contains(&PoisonMethod::HijackDns), "{} misses HijackDNS", app.protocol);
            assert!(!app.record_types.is_empty());
            assert!(!app.dns_use.is_empty());
        }
    }

    #[test]
    fn bitcoin_and_rpki_are_hijack_only() {
        let apps = table1_applications();
        for proto in ["Bitcoin", "RPKI"] {
            let app = apps.iter().find(|a| a.protocol == proto).unwrap();
            assert_eq!(app.methods, vec![PoisonMethod::HijackDns], "{proto} resists SadDNS and FragDNS");
        }
    }

    #[test]
    fn downgrade_rows_cover_security_mechanisms() {
        let apps = table1_applications();
        let downgrades: Vec<&str> = apps.iter().filter(|a| a.impact == Impact::Downgrade).map(|a| a.protocol).collect();
        assert!(downgrades.contains(&"SPF,DMARC"));
        assert!(downgrades.contains(&"RPKI"));
        assert!(downgrades.contains(&"OCSP"));
        assert!(downgrades.contains(&"Firewall filters"));
    }

    #[test]
    fn categories_cover_all_nine_groups() {
        let apps = table1_applications();
        let categories: std::collections::HashSet<_> = apps.iter().map(|a| a.category).collect();
        assert_eq!(categories.len(), 9);
    }

    #[test]
    fn attacker_chosen_names_use_direct_or_bounce_triggers() {
        for app in table1_applications() {
            if app.query_name == QueryNameControl::AttackerChosen {
                assert!(
                    !matches!(app.trigger, TriggerMethod::WaitingOrTimer),
                    "{}: attacker-chosen names should not require waiting",
                    app.protocol
                );
            }
        }
    }

    #[test]
    fn dv_uses_authorisation_semantics() {
        let apps = table1_applications();
        let dv = apps.iter().find(|a| a.protocol == "DV").unwrap();
        assert!(dv.dns_use.contains(&DnsUse::Authorisation));
        assert_eq!(dv.impact, Impact::Hijack);
    }
}

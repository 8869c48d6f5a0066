//! Section 6 countermeasures as toggleable defences, evaluated by re-running
//! the actual attacks with each defence enabled — the ablation study behind
//! the recommendations. Each (method, defence) cell is one run of the
//! [`Scenario`](crate::scenario::Scenario) pipeline with the defence applied
//! via [`Defence::apply`], so there is no per-method environment plumbing
//! here at all.

use crate::report::TextTable;
use attacks::prelude::*;
use dns::prelude::UpstreamTransport;
use netsim::prelude::*;

/// A deployable defence from Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defence {
    /// No defence beyond RFC 5452 (the baseline).
    None,
    /// 0x20 case randomisation at the resolver.
    X20Encoding,
    /// DNSSEC signing of the zone plus validation at the resolver.
    Dnssec,
    /// The resolver/firewall drops fragmented responses.
    FragmentFiltering,
    /// The resolver's OS uses per-destination ICMP rate limits.
    PerDestinationIcmpLimit,
    /// The nameserver randomises the order of records in responses.
    RandomizedResponseOrder,
    /// The nameserver uses random IP identification values.
    RandomIpid,
    /// The nameserver refuses to lower its path MTU below 1280 bytes.
    MinimumPmtu1280,
    /// The nameserver disables response rate limiting (cannot be muted).
    NoNameserverRrl,
    /// Route origin validation filters the hijacked announcement.
    RouteOriginValidation,
    /// The resolver performs upstream queries over TCP (RFC 7766). This is
    /// the transport-layer countermeasure the paper singles out: no UDP
    /// ephemeral port exists for the SadDNS side channel to recover, and
    /// answers arrive as DF-marked stream segments that never touch the
    /// defragmentation cache FragDNS poisons. Interception (HijackDNS) is
    /// *not* stopped — the hijacker terminates the handshake itself.
    DnsOverTcp,
    /// Multi-vantage-point domain validation at a certificate authority (the
    /// Let's Encrypt-style countermeasure): every challenge is corroborated
    /// by vantage resolvers placed at distinct ASes, and issuance requires at
    /// least `quorum` of them to agree with the CA's primary validation. An
    /// off-path poisoning of the CA's resolver leaves the vantage caches
    /// untouched, so the quorum fails — but a BGP hijack held through the
    /// validation window intercepts *every* vantage's traffic and still
    /// yields a fraudulent certificate. Purely an application-layer defence:
    /// it does not affect cache poisoning itself, only what a CA hosted in
    /// the environment will issue (see the `ca` crate).
    MultiVantageValidation {
        /// Minimum number of vantage validations that must agree with the
        /// primary validation before a certificate is issued.
        quorum: u8,
    },
    /// The zone is DNSSEC signed but its DS record never made it into the
    /// parent: validators have no chain of trust, validation degrades to
    /// `Insecure`, and every forgery the baseline admits still lands. The
    /// real-world "signed but unanchored" misdeployment the
    /// downgrade-to-insecure vector targets.
    DnssecNoDs,
    /// DNSSEC with NSEC3 opt-out denial and a published DS. Zone walking is
    /// blunted by hashing, but opt-out spans admit unsigned data as
    /// `Insecure` — the opt-out abuse surface.
    DnssecNsec3OptOut,
    /// The hardened DNSSEC deployment: NSEC3 without opt-out, DS published,
    /// and strict RFC 6781 rollover (retired ZSKs leave the DNSKEY RRset
    /// immediately).
    DnssecStrict,
}

impl Defence {
    /// All defences in evaluation order.
    pub fn all() -> Vec<Defence> {
        vec![
            Defence::None,
            Defence::X20Encoding,
            Defence::Dnssec,
            Defence::FragmentFiltering,
            Defence::PerDestinationIcmpLimit,
            Defence::RandomizedResponseOrder,
            Defence::RandomIpid,
            Defence::MinimumPmtu1280,
            Defence::NoNameserverRrl,
            Defence::RouteOriginValidation,
            Defence::DnsOverTcp,
            Defence::multi_vantage(),
            Defence::DnssecNoDs,
            Defence::DnssecNsec3OptOut,
            Defence::DnssecStrict,
        ]
    }

    /// The four signed-zone deployment shapes the DNSSEC attack matrix
    /// evaluates as columns, weakest to strongest.
    pub fn dnssec_profiles() -> [Defence; 4] {
        [Defence::DnssecNoDs, Defence::Dnssec, Defence::DnssecNsec3OptOut, Defence::DnssecStrict]
    }

    /// The reference multi-vantage configuration used across the evaluation
    /// grids: Let's Encrypt's deployment shape (three vantage points, at
    /// most one disagreement tolerated).
    pub fn multi_vantage() -> Defence {
        Defence::MultiVantageValidation { quorum: 2 }
    }

    /// Compact row label used by the rendered matrices. Identical to the
    /// `Debug` form for unit variants; the `MultiVantageValidation` struct
    /// variant collapses to `MultiVantageValidation(q=N)` so table rows stay
    /// grep-able one-liners.
    pub fn label(&self) -> String {
        match self {
            Defence::MultiVantageValidation { quorum } => format!("MultiVantageValidation(q={quorum})"),
            other => format!("{other:?}"),
        }
    }

    /// Applies this defence to a victim-environment configuration — the one
    /// place each defence's deployment is encoded. The scenario pipeline
    /// calls this *after* [`AttackVector::prepare_env`], so a defence always
    /// overrides whatever preconditions the vector set up (e.g. disabling
    /// the nameserver RRL that SadDNS needs for muting).
    pub fn apply(&self, cfg: &mut VictimEnvConfig) {
        match self {
            Defence::None => {}
            Defence::X20Encoding => cfg.resolver.use_0x20 = true,
            Defence::Dnssec => Self::apply_dnssec(cfg, ZoneSecurity::signed_nsec()),
            Defence::DnssecNoDs => Self::apply_dnssec(cfg, ZoneSecurity::signed_no_ds()),
            Defence::DnssecNsec3OptOut => Self::apply_dnssec(cfg, ZoneSecurity::signed_nsec3_opt_out()),
            Defence::DnssecStrict => Self::apply_dnssec(cfg, ZoneSecurity::signed_strict()),
            Defence::FragmentFiltering => cfg.resolver.accept_fragments = false,
            Defence::PerDestinationIcmpLimit => {
                cfg.resolver.icmp_rate_limit = IcmpRateLimitPolicy::PerDestination { capacity: 50, per_second: 50.0 }
            }
            Defence::RandomizedResponseOrder => cfg.nameserver.randomize_record_order = true,
            Defence::RandomIpid => cfg.nameserver.ipid_policy = IpIdPolicy::Random,
            Defence::MinimumPmtu1280 => cfg.nameserver.min_accepted_mtu = 1280,
            Defence::NoNameserverRrl => cfg.nameserver.rrl_limit = None,
            Defence::RouteOriginValidation => cfg.rov_enforced = true,
            Defence::DnsOverTcp => {
                cfg.resolver.transport_policy = UpstreamTransport::TcpOnly;
            }
            Defence::MultiVantageValidation { quorum } => cfg.vantage_quorum = Some(*quorum),
        }
    }

    /// Shared deployment of the DNSSEC-flavoured defences: sign the zone
    /// under `security`, mark the delegation signed, and turn on validation
    /// at the resolver. The trust anchor is installed by
    /// `VictimEnvConfig::build` iff the profile published its DS.
    fn apply_dnssec(cfg: &mut VictimEnvConfig, security: ZoneSecurity) {
        cfg.zone_security = security;
        cfg.resolver.delegations.clear();
        cfg.resolver =
            cfg.resolver.clone().with_delegation("vict.im", vec![addrs::NAMESERVER], true).with_dnssec_validation();
    }
}

/// Result of one (method, defence) cell of the ablation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationCell {
    /// The poisoning methodology.
    pub method: PoisonMethod,
    /// The defence in place.
    pub defence: Defence,
    /// Whether the attack still succeeded.
    pub attack_succeeded: bool,
}

/// Runs one methodology against one defence and reports whether it still
/// works — one [`crate::scenario::run_cell`] of the pipeline, with the
/// methodology dispatched through the `attacks::vectors` registry rather
/// than matched on here.
pub fn evaluate_cell(method: PoisonMethod, defence: Defence, seed: u64) -> AblationCell {
    let outcome = crate::scenario::run_cell(method, defence, seed);
    AblationCell { method, defence, attack_succeeded: outcome.report.success }
}

/// Runs the defence ablation for a chosen set of defences (all methods).
pub fn run_ablation(defences: &[Defence], seed: u64) -> Vec<AblationCell> {
    let mut cells = Vec::new();
    for &defence in defences {
        for method in PoisonMethod::all() {
            cells.push(evaluate_cell(method, defence, seed));
        }
    }
    cells
}

/// Renders the ablation matrix.
pub fn render_ablation(cells: &[AblationCell]) -> String {
    let mut t = TextTable::new(
        "Countermeasure ablation — does the attack still succeed?",
        &["Defence", "HijackDNS", "SadDNS", "FragDNS"],
    );
    let defences: Vec<Defence> = {
        let mut seen = Vec::new();
        for c in cells {
            if !seen.contains(&c.defence) {
                seen.push(c.defence);
            }
        }
        seen
    };
    for d in defences {
        let get = |m: PoisonMethod| {
            cells
                .iter()
                .find(|c| c.defence == d && c.method == m)
                .map(|c| if c.attack_succeeded { "succeeds" } else { "BLOCKED" })
                .unwrap_or("-")
        };
        t.row([
            d.label(),
            get(PoisonMethod::HijackDns).into(),
            get(PoisonMethod::SadDns).into(),
            get(PoisonMethod::FragDns).into(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_attacks_all_succeed() {
        for method in PoisonMethod::all() {
            let cell = evaluate_cell(method, Defence::None, 31);
            assert!(cell.attack_succeeded, "{method} should succeed without defences");
        }
    }

    #[test]
    fn x20_blocks_saddns_but_not_hijack_or_frag() {
        assert!(!evaluate_cell(PoisonMethod::SadDns, Defence::X20Encoding, 32).attack_succeeded);
        assert!(evaluate_cell(PoisonMethod::HijackDns, Defence::X20Encoding, 32).attack_succeeded);
        assert!(evaluate_cell(PoisonMethod::FragDns, Defence::X20Encoding, 32).attack_succeeded);
    }

    #[test]
    fn dnssec_blocks_forged_responses() {
        assert!(!evaluate_cell(PoisonMethod::HijackDns, Defence::Dnssec, 33).attack_succeeded);
    }

    #[test]
    fn fragment_filtering_blocks_fragdns_only() {
        assert!(!evaluate_cell(PoisonMethod::FragDns, Defence::FragmentFiltering, 34).attack_succeeded);
        assert!(evaluate_cell(PoisonMethod::HijackDns, Defence::FragmentFiltering, 34).attack_succeeded);
    }

    #[test]
    fn per_destination_icmp_blocks_saddns() {
        assert!(!evaluate_cell(PoisonMethod::SadDns, Defence::PerDestinationIcmpLimit, 35).attack_succeeded);
    }

    #[test]
    fn nameserver_side_defences_block_fragdns() {
        assert!(!evaluate_cell(PoisonMethod::FragDns, Defence::RandomIpid, 36).attack_succeeded);
        assert!(!evaluate_cell(PoisonMethod::FragDns, Defence::MinimumPmtu1280, 36).attack_succeeded);
        assert!(!evaluate_cell(PoisonMethod::FragDns, Defence::RandomizedResponseOrder, 36).attack_succeeded);
    }

    #[test]
    fn disabling_rrl_blocks_saddns_muting() {
        assert!(!evaluate_cell(PoisonMethod::SadDns, Defence::NoNameserverRrl, 37).attack_succeeded);
    }

    #[test]
    fn rov_blocks_hijackdns() {
        assert!(!evaluate_cell(PoisonMethod::HijackDns, Defence::RouteOriginValidation, 38).attack_succeeded);
    }

    #[test]
    fn dns_over_tcp_blocks_saddns_and_fragdns_but_not_hijack() {
        assert!(!evaluate_cell(PoisonMethod::SadDns, Defence::DnsOverTcp, 40).attack_succeeded);
        assert!(!evaluate_cell(PoisonMethod::FragDns, Defence::DnsOverTcp, 40).attack_succeeded);
        // Interception defeats the transport: the hijacker completes the
        // handshake itself, so the TCP row still shows HijackDNS succeeding.
        assert!(evaluate_cell(PoisonMethod::HijackDns, Defence::DnsOverTcp, 40).attack_succeeded);
    }

    #[test]
    fn multi_vantage_is_an_application_layer_defence_only() {
        // Cache poisoning itself is untouched by a CA-side quorum: every
        // methodology still succeeds at the resolver. The blocking happens
        // in the issuance pipeline (see the `ca` crate's ablation), exactly
        // like RouteOriginValidation only bites interception vectors.
        for method in PoisonMethod::all() {
            let cell = evaluate_cell(method, Defence::multi_vantage(), 41);
            assert!(cell.attack_succeeded, "{method} poisoning must be unaffected by multi-vantage validation");
        }
    }

    #[test]
    fn multi_vantage_applies_through_defence_apply_only() {
        let mut cfg = VictimEnvConfig::default();
        assert_eq!(cfg.vantage_quorum, None);
        Defence::multi_vantage().apply(&mut cfg);
        assert_eq!(cfg.vantage_quorum, Some(2));
        Defence::MultiVantageValidation { quorum: 4 }.apply(&mut cfg);
        assert_eq!(cfg.vantage_quorum, Some(4));
    }

    #[test]
    fn labels_are_compact_and_stable() {
        assert_eq!(Defence::DnsOverTcp.label(), "DnsOverTcp");
        assert_eq!(Defence::multi_vantage().label(), "MultiVantageValidation(q=2)");
    }

    #[test]
    fn rendering_matrix() {
        let cells = run_ablation(&[Defence::None, Defence::FragmentFiltering], 39);
        let rendered = render_ablation(&cells);
        assert!(rendered.contains("FragmentFiltering"));
        assert!(rendered.contains("BLOCKED"));
    }
}

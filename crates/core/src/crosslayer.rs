//! End-to-end cross-layer attack scenarios (Section 4): trigger a query,
//! poison the victim resolver with one of the Section 3 methodologies, then
//! let the *application* consume the poisoned records and observe the damage.
//!
//! The three headline scenarios are thin instantiations of the
//! [`Scenario`](crate::scenario::Scenario) pipeline — an
//! [`ExploitStage`](crate::scenario::ExploitStage) plugged on top of an
//! attack vector — and the functions here keep their historical signatures
//! and byte-identical outcomes (locked by `tests/golden/crosslayer.txt`):
//!
//! * **RPKI downgrade → BGP hijack** — the paper's strongest result: poison
//!   the resolver used by an RPKI relying party so its repository sync lands
//!   on the attacker's host, the ROA cache empties, route-origin validation
//!   degrades to "unknown", and a prefix hijack that ROV used to block now
//!   succeeds even against enforcing ASes;
//! * **password-recovery account takeover** — poison the MX/A records of a
//!   victim's domain at the provider's resolver; the reset link goes to the
//!   attacker;
//! * **SPF/DMARC downgrade** — intercept the TXT lookup and answer with an
//!   empty response, so the receiving mail server finds no policy and accepts
//!   the spoofed mail.

use crate::scenario::{
    AttackPhase, ExploitVerdict, PasswordRecoveryExploit, RpkiDowngradeExploit, Scenario, SpfPolicyExploit,
};
use apps::prelude::*;
use attacks::prelude::*;
use bgp::prelude::*;
use dns::prelude::*;

/// Outcome of the RPKI downgrade scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RpkiDowngradeOutcome {
    /// Whether the cache poisoning of the repository hostname succeeded.
    pub dns_poisoned: bool,
    /// Validation state of the hijacked announcement before the attack.
    pub validity_before: Validity,
    /// Validation state after the poisoned sync.
    pub validity_after: Validity,
    /// Whether an ROV-enforcing AS accepted the hijack before the attack.
    pub hijack_accepted_before: bool,
    /// Whether it accepts the hijack after the downgrade.
    pub hijack_accepted_after: bool,
}

/// The configured HijackDNS vector of the RPKI downgrade chain: intercept
/// the relying party's lookup of the repository hostname. Shared by
/// [`rpki_downgrade_scenario`] and the `rpki_downgrade` example.
pub fn rpki_downgrade_vector() -> HijackDnsAttack {
    let mut cfg = HijackDnsConfig::new(addrs::ATTACKER);
    cfg.target_name = "rpki.vict.im".parse().expect("name");
    HijackDnsAttack::new(cfg)
}

/// The configured HijackDNS vector of the account-takeover chain: poison the
/// A record of the victim domain's mail host at the provider's resolver.
/// Shared by [`password_recovery_scenario`] and the `email_downgrade` example.
pub fn account_takeover_vector() -> HijackDnsAttack {
    let mut cfg = HijackDnsConfig::new(addrs::ATTACKER);
    cfg.target_name = "mail.vict.im".parse().expect("name");
    HijackDnsAttack::new(cfg)
}

/// The configured HijackDNS vector of the SPF downgrade chain: intercept the
/// policy TXT lookup and erase the answer (the hijack stays up so retries
/// keep landing on the attacker). Shared by [`spf_downgrade_scenario`] and
/// the `email_downgrade` example.
pub fn spf_downgrade_vector() -> HijackDnsAttack {
    let mut cfg = HijackDnsConfig::new(addrs::ATTACKER);
    cfg.target_name = "vict.im".parse().expect("name");
    cfg.qtype = RecordType::TXT;
    cfg.trigger = QueryTrigger::InternalClient;
    cfg.forgery = HijackForgery::EmptyAnswer;
    cfg.short_lived = false;
    HijackDnsAttack::new(cfg)
}

/// Runs the RPKI downgrade chain on the scenario pipeline.
pub fn rpki_downgrade_scenario(seed: u64) -> RpkiDowngradeOutcome {
    let outcome = Scenario::new(VictimEnvConfig { seed, ..Default::default() })
        .trigger(QueryTrigger::InternalClient)
        .vector(Box::new(rpki_downgrade_vector()))
        .exploit(RpkiDowngradeExploit::standard())
        .run();
    let (
        Some(ExploitVerdict::Rpki { validity: validity_before, hijack_accepted: hijack_accepted_before }),
        Some(ExploitVerdict::Rpki { validity: validity_after, hijack_accepted: hijack_accepted_after }),
    ) = (outcome.before, outcome.exploit)
    else {
        unreachable!("the RPKI exploit stage always produces Rpki verdicts")
    };
    RpkiDowngradeOutcome {
        dns_poisoned: outcome.report.success,
        validity_before,
        validity_after,
        hijack_accepted_before,
        hijack_accepted_after,
    }
}

/// Outcome of the password-recovery scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountTakeoverOutcome {
    /// Whether the MX/A poisoning succeeded.
    pub dns_poisoned: bool,
    /// Where the recovery email went before the attack.
    pub before: PasswordRecovery,
    /// Where the recovery email goes after the attack.
    pub after: PasswordRecovery,
}

/// Runs the password-recovery account-takeover chain (the provider's resolver
/// is poisoned for the victim account's mail domain) on the scenario pipeline.
pub fn password_recovery_scenario(seed: u64) -> AccountTakeoverOutcome {
    let genuine_mx: std::net::Ipv4Addr = "30.0.0.26".parse().expect("addr");
    let outcome = Scenario::new(VictimEnvConfig { seed, ..Default::default() })
        .trigger(QueryTrigger::InternalClient)
        .vector(Box::new(account_takeover_vector()))
        .exploit(PasswordRecoveryExploit::new("mail.vict.im", genuine_mx))
        .run();
    let (Some(ExploitVerdict::Recovery(before)), Some(ExploitVerdict::Recovery(after))) =
        (outcome.before, outcome.exploit)
    else {
        unreachable!("the recovery exploit stage always produces Recovery verdicts")
    };
    AccountTakeoverOutcome { dns_poisoned: outcome.report.success, before, after }
}

/// Outcome of the SPF downgrade scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SpfDowngradeOutcome {
    /// SPF verdict for the attacker's spoofed mail before the attack.
    pub before: SpfVerdict,
    /// SPF verdict after the attack.
    pub after: SpfVerdict,
    /// Whether the receiving server would accept the spoofed mail after the attack.
    pub spoofed_mail_accepted: bool,
}

/// Runs the SPF/DMARC downgrade chain on the scenario pipeline: the attacker
/// intercepts the TXT lookup (HijackDNS interception with an
/// [`HijackForgery::EmptyAnswer`] forgery) so the receiving mail server finds
/// no policy and falls back to accepting. The attack phase runs against a
/// second receiving server with a cold cache (`FreshEnvironment`).
pub fn spf_downgrade_scenario(seed: u64) -> SpfDowngradeOutcome {
    let outcome = Scenario::new(VictimEnvConfig { seed, ..Default::default() })
        .trigger(QueryTrigger::InternalClient)
        .vector(Box::new(spf_downgrade_vector()))
        .exploit(SpfPolicyExploit::new("vict.im"))
        .attack_phase(AttackPhase::FreshEnvironment { seed_bump: 1 })
        .run();
    let (Some(ExploitVerdict::Spf(before)), Some(ExploitVerdict::Spf(after))) = (outcome.before, outcome.exploit)
    else {
        unreachable!("the SPF exploit stage always produces Spf verdicts")
    };
    SpfDowngradeOutcome { before, after, spoofed_mail_accepted: after != SpfVerdict::Fail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpki_downgrade_enables_the_filtered_hijack() {
        let outcome = rpki_downgrade_scenario(21);
        assert!(outcome.dns_poisoned);
        assert_eq!(outcome.validity_before, Validity::Invalid);
        assert_eq!(outcome.validity_after, Validity::NotFound);
        assert!(!outcome.hijack_accepted_before, "ROV filtered the hijack before the attack");
        assert!(outcome.hijack_accepted_after, "the downgrade re-enables the hijack");
    }

    #[test]
    fn password_recovery_is_redirected_to_the_attacker() {
        let outcome = password_recovery_scenario(22);
        assert!(outcome.dns_poisoned);
        assert_eq!(outcome.before, PasswordRecovery::OwnerReceivesLink);
        assert_eq!(outcome.after, PasswordRecovery::AttackerReceivesLink);
    }

    #[test]
    fn spf_downgrade_lets_spoofed_mail_through() {
        let outcome = spf_downgrade_scenario(23);
        assert_eq!(outcome.before, SpfVerdict::Fail, "with the genuine policy the spoofed mail is rejected");
        assert_eq!(outcome.after, SpfVerdict::None, "after the attack no policy is retrievable");
        assert!(outcome.spoofed_mail_accepted);
    }
}

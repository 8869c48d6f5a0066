//! BGP prefix hijack modelling.
//!
//! Two hijack flavours from Section 3.1 / 4.4.1 of the paper:
//!
//! * **sub-prefix hijack** — the attacker announces a more specific prefix
//!   than the victim's covering announcement; longest-prefix-match forwarding
//!   then sends *all* traffic for that sub-prefix to the attacker, from every
//!   AS that accepted the announcement. Because most networks filter
//!   announcements more specific than /24, an address is sub-prefix
//!   hijackable exactly when its covering announcement is shorter than /24.
//! * **same-prefix hijack** — the attacker announces the victim's exact
//!   prefix; each AS routes to whichever origin its Gao-Rexford policy
//!   prefers, so only part of the Internet is captured (the paper measures
//!   ~80 % success over random attacker/victim pairs).
//!
//! Route-origin validation interacts with both: an ROV-enforcing AS ignores
//! the attacker's announcement when the relying-party cache marks it
//! `Invalid` — unless the RPKI downgrade attack has emptied that cache.

use crate::propagation::compare_origins;
use crate::rpki::{validate, Roa, RovPolicy};
use crate::topology::{AsId, AsTopology};
use netsim::prefix::Prefix;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::collections::HashMap;

/// The longest prefix length most networks accept from eBGP neighbours.
pub const MAX_ACCEPTED_PREFIX_LEN: u8 = 24;

/// Whether an address covered by an announcement of `announced` length can be
/// sub-prefix hijacked (i.e. a strictly more specific announcement that is
/// still ≤ /24 exists).
pub fn subprefix_hijackable(announced: Prefix) -> bool {
    announced.len < MAX_ACCEPTED_PREFIX_LEN
}

/// An announcement in the hijack analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Announcement {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The origin AS.
    pub origin: AsId,
}

/// Result of evaluating a hijack attempt against a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct HijackOutcome {
    /// Fraction of ASes whose traffic for the target is captured by the attacker.
    pub captured_fraction: f64,
    /// Which ASes route to the attacker.
    pub captured_ases: Vec<AsId>,
    /// Whether the specific target AS (if given) was captured.
    pub target_captured: Option<bool>,
}

/// Evaluates a **same-prefix** hijack: `attacker` announces the same prefix
/// as `victim`. `rov` gives each AS's ROV policy (missing = not enforced) and
/// `roas` is the ROA set visible to enforcing ASes (an emptied relying-party
/// cache — the downgrade attack — is modelled by passing an empty slice).
pub fn same_prefix_hijack(
    topo: &AsTopology,
    prefix: Prefix,
    victim: AsId,
    attacker: AsId,
    target: Option<AsId>,
    rov: &HashMap<AsId, RovPolicy>,
    roas: &[Roa],
) -> HijackOutcome {
    let attacker_validity = validate(prefix, attacker, roas);
    let decisions = compare_origins(topo, victim, attacker);
    let mut captured = Vec::new();
    for (&asn, &preferred) in &decisions {
        let policy = rov.get(&asn).copied().unwrap_or(RovPolicy::NotEnforced);
        let accepts_attacker = policy.accepts(attacker_validity);
        if preferred == attacker && accepts_attacker && asn != victim {
            captured.push(asn);
        }
    }
    captured.sort();
    let denom = (topo.len().saturating_sub(1)).max(1) as f64;
    HijackOutcome {
        captured_fraction: captured.len() as f64 / denom,
        target_captured: target.map(|t| captured.contains(&t)),
        captured_ases: captured,
    }
}

/// Evaluates a **sub-prefix** hijack of `victim_announcement` by `attacker`.
/// If the victim's announcement is already /24 (or longer) the hijack fails;
/// otherwise every AS that accepts the more-specific announcement (ROV
/// permitting) is captured.
pub fn sub_prefix_hijack(
    topo: &AsTopology,
    victim_announcement: Announcement,
    attacker: AsId,
    target: Option<AsId>,
    rov: &HashMap<AsId, RovPolicy>,
    roas: &[Roa],
) -> HijackOutcome {
    if !subprefix_hijackable(victim_announcement.prefix) {
        return HijackOutcome {
            captured_fraction: 0.0,
            captured_ases: Vec::new(),
            target_captured: target.map(|_| false),
        };
    }
    let sub = Prefix::new(victim_announcement.prefix.addr, MAX_ACCEPTED_PREFIX_LEN);
    let attacker_validity = validate(sub, attacker, roas);
    let mut captured = Vec::new();
    for asn in topo.ases() {
        if asn == victim_announcement.origin {
            continue;
        }
        let policy = rov.get(&asn).copied().unwrap_or(RovPolicy::NotEnforced);
        if policy.accepts(attacker_validity) {
            captured.push(asn);
        }
    }
    captured.sort();
    let denom = (topo.len().saturating_sub(1)).max(1) as f64;
    HijackOutcome {
        captured_fraction: captured.len() as f64 / denom,
        target_captured: target.map(|t| captured.contains(&t)),
        captured_ases: captured,
    }
}

/// Runs the paper's same-prefix hijack *simulation study*: `trials` random
/// (attacker, victim, target) triples; returns the fraction of trials in
/// which the attacker captured the target AS's traffic (Section 5.1.2 reports
/// ≈ 80 % capture across evaluations).
pub fn same_prefix_success_rate(topo: &AsTopology, trials: usize, seed: u64) -> f64 {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let ases: Vec<AsId> = topo.ases().collect();
    if ases.len() < 3 || trials == 0 {
        return 0.0;
    }
    let prefix: Prefix = "30.0.0.0/22".parse().expect("static prefix");
    let rov = HashMap::new();
    let mut successes = 0usize;
    for _ in 0..trials {
        let picks: Vec<AsId> = ases.choose_multiple(&mut rng, 3).copied().collect();
        let (victim, attacker, target) = (picks[0], picks[1], picks[2]);
        let outcome = same_prefix_hijack(topo, prefix, victim, attacker, Some(target), &rov, &[]);
        if outcome.target_captured == Some(true) {
            successes += 1;
        }
    }
    successes as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AsTier;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn subprefix_hijackability_depends_on_announced_length() {
        assert!(subprefix_hijackable(p("30.0.0.0/22")));
        assert!(subprefix_hijackable(p("10.0.0.0/16")));
        assert!(!subprefix_hijackable(p("30.0.1.0/24")));
        assert!(!subprefix_hijackable(p("30.0.1.0/28")));
    }

    #[test]
    fn sub_prefix_hijack_captures_everyone_without_rov() {
        let (topo, map) = AsTopology::small_test_topology();
        let victim = Announcement { prefix: p("30.0.0.0/22"), origin: map["stub1"] };
        let outcome = sub_prefix_hijack(&topo, victim, map["stub3"], Some(map["stub4"]), &HashMap::new(), &[]);
        assert_eq!(outcome.target_captured, Some(true));
        assert!(outcome.captured_fraction > 0.9);
    }

    #[test]
    fn sub_prefix_hijack_fails_against_slash24() {
        let (topo, map) = AsTopology::small_test_topology();
        let victim = Announcement { prefix: p("30.0.1.0/24"), origin: map["stub1"] };
        let outcome = sub_prefix_hijack(&topo, victim, map["stub3"], Some(map["stub4"]), &HashMap::new(), &[]);
        assert_eq!(outcome.captured_fraction, 0.0);
        assert_eq!(outcome.target_captured, Some(false));
    }

    #[test]
    fn rov_filters_invalid_subprefix_announcement() {
        let (topo, map) = AsTopology::small_test_topology();
        let victim = Announcement { prefix: p("30.0.0.0/22"), origin: map["stub1"] };
        let roas = vec![Roa::exact(p("30.0.0.0/22"), AsId(map["stub1"].0))];
        // Every AS enforces ROV.
        let rov: HashMap<AsId, RovPolicy> = topo.ases().map(|a| (a, RovPolicy::Enforced)).collect();
        let outcome = sub_prefix_hijack(&topo, victim, map["stub3"], Some(map["stub4"]), &rov, &roas);
        assert_eq!(outcome.captured_fraction, 0.0, "ROV everywhere stops the sub-prefix hijack");
        // With the relying-party cache emptied (RPKI downgrade), the same
        // announcement is NotFound and the hijack works again.
        let outcome = sub_prefix_hijack(&topo, victim, map["stub3"], Some(map["stub4"]), &rov, &[]);
        assert!(outcome.captured_fraction > 0.9, "downgrade re-enables the hijack");
        assert_eq!(outcome.target_captured, Some(true));
    }

    #[test]
    fn same_prefix_hijack_splits_the_internet() {
        let (topo, map) = AsTopology::small_test_topology();
        let outcome =
            same_prefix_hijack(&topo, p("30.0.0.0/22"), map["stub1"], map["stub3"], None, &HashMap::new(), &[]);
        // Some ASes go to the attacker, some stay with the victim.
        assert!(outcome.captured_fraction > 0.0);
        assert!(outcome.captured_fraction < 1.0);
        // ASes topologically close to the attacker (its provider) are captured.
        assert!(outcome.captured_ases.contains(&map["tr2"]));
        // The victim's own provider keeps its customer route to the victim.
        assert!(!outcome.captured_ases.contains(&map["tr1"]));
    }

    #[test]
    fn same_prefix_hijack_with_rov_and_valid_roa_fails() {
        let (topo, map) = AsTopology::small_test_topology();
        let roas = vec![Roa::exact(p("30.0.0.0/22"), AsId(map["stub1"].0))];
        let rov: HashMap<AsId, RovPolicy> = topo.ases().map(|a| (a, RovPolicy::Enforced)).collect();
        let outcome =
            same_prefix_hijack(&topo, p("30.0.0.0/22"), map["stub1"], map["stub3"], Some(map["stub4"]), &rov, &roas);
        assert_eq!(outcome.captured_fraction, 0.0);
    }

    #[test]
    fn success_rate_on_synthetic_topology_is_substantial() {
        // The paper reports ~80% capture for random attacker/victim pairs.
        // On the synthetic topology we require the same order of magnitude
        // (well above half), not the exact figure.
        let topo = AsTopology::generate(5, 30, 300, 11);
        let rate = same_prefix_success_rate(&topo, 200, 99);
        assert!(rate > 0.35 && rate < 1.0, "success rate {rate} out of expected band");
    }

    #[test]
    fn success_rate_deterministic_for_seed() {
        let topo = AsTopology::generate(4, 20, 150, 3);
        assert_eq!(same_prefix_success_rate(&topo, 100, 7), same_prefix_success_rate(&topo, 100, 7));
    }

    #[test]
    fn stub_victims_are_rarely_immune() {
        // A tier-1 attacker captures traffic of most stubs.
        let topo = AsTopology::generate(5, 30, 200, 13);
        let tier1 = topo.ases_of_tier(AsTier::Tier1)[0];
        let stubs = topo.ases_of_tier(AsTier::Stub);
        let victim = stubs[0];
        let outcome = same_prefix_hijack(&topo, p("30.0.0.0/22"), victim, tier1, None, &HashMap::new(), &[]);
        assert!(outcome.captured_fraction > 0.3);
    }
}

//! Attacks against DNSSEC deployments themselves (the rows of the DNSSEC
//! matrix).
//!
//! The classic methodologies of Section 3 forge *unsigned* data and are
//! stopped cold by a correctly anchored validator. These four vectors target
//! the deployment instead — the gaps between "the zone is signed" and "the
//! zone is safe":
//!
//! | Vector | Gap exploited |
//! | ------ | ------------- |
//! | [`DowngradeToInsecureAttack`] | signed zone without a DS in the parent: validation degrades to `Insecure` |
//! | [`Nsec3OptOutAbuseAttack`] | RFC 5155 opt-out spans cannot prove a forgery absent |
//! | [`RolloverForgeryAttack`] | a retired-but-published ZSK still verifies (RFC 6781 window) |
//! | [`ZoneWalkingAttack`] | NSEC `next` pointers enumerate the zone |
//!
//! All four assume the interception capability of HijackDNS where they need
//! to outrace the genuine nameserver — the matrix isolates the DNSSEC
//! dimension, not the off-path race. Key compromise in
//! [`RolloverForgeryAttack`] is a modelling convention: the driver clones
//! the pre-rollover ZSK out of the zone state, standing in for a key
//! compromised while it was active.

use crate::env::{QueryTrigger, VictimEnv, VictimEnvConfig};
use crate::outcome::{AttackReport, FailureReason, PoisonMethod};
use crate::vectors::AttackVector;
use bgp::prelude::*;
use dns::dnssec::sign::sign_rrset_with_window;
use dns::dnssec::RolloverState;
use dns::prelude::*;
use netsim::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Installs a sub-prefix hijack of the nameserver, triggers the resolver's
/// query and waits for the interception. Returns the intercepted query (and
/// the announced prefix, still installed) or `None` on timeout.
fn intercept_query(
    sim: &mut Simulator,
    env: &VictimEnv,
    report: &mut AttackReport,
    name: &DomainName,
    qtype: RecordType,
) -> Option<(UdpDatagram, Message, Prefix)> {
    let prefix = Prefix::new(env.nameserver_addr, MAX_ACCEPTED_PREFIX_LEN);
    sim.set_route_override(prefix, env.attacker);
    env.trigger_query(sim, QueryTrigger::OpenResolver, name, qtype, 0x5d5d);
    report.queries_triggered += 1;
    report.iterations += 1;
    let deadline = sim.now() + Duration::from_secs(5);
    while sim.now() < deadline {
        if !sim.step() {
            break;
        }
        let hit = env
            .attacker(sim)
            .intercepted_queries()
            .into_iter()
            .find(|(_, q)| q.question().map(|qq| qq.name == *name) == Some(true))
            .map(|(obs, q)| (obs.datagram.clone(), q));
        if let Some((dgram, query)) = hit {
            return Some((dgram, query, prefix));
        }
    }
    sim.clear_route_override(prefix);
    None
}

/// Sends the spoofed response for an intercepted query (source spoofed to
/// the genuine nameserver), withdraws the announcement, and lets the dust
/// settle.
fn answer_intercepted(
    sim: &mut Simulator,
    env: &VictimEnv,
    query_dgram: &UdpDatagram,
    query_msg: &Message,
    answers: Vec<ResourceRecord>,
    authorities: Vec<ResourceRecord>,
    prefix: Prefix,
) {
    let mut response = Message::response_for(query_msg);
    response.header.authoritative = true;
    response.answers = answers;
    response.authorities = authorities;
    let spoofed = UdpDatagram::new(env.nameserver_addr, env.resolver_addr, 53, query_dgram.src_port, response.encode())
        .into_packet(0x6666, 64);
    sim.inject(env.attacker, spoofed);
    sim.clear_route_override(prefix);
    sim.run_for(Duration::from_secs(1));
}

/// Finalises a plant-a-record report: success iff the cache now maps the
/// target to the attacker, with the resolver's DNSSEC counter deciding the
/// failure attribution.
fn settle_plant_report(
    sim: &Simulator,
    env: &VictimEnv,
    mut report: AttackReport,
    target: &DomainName,
    start: SimTime,
    traffic_before: &TrafficStats,
    rejected_reason: &str,
) -> AttackReport {
    report.duration = sim.now().duration_since(start);
    report.record_traffic(traffic_before, sim.stats(env.attacker));
    report.success = env.poisoned(sim, target, report.malicious_addr);
    if !report.success {
        let reason = if env.resolver(sim).stats.rejected_dnssec > 0 {
            rejected_reason.to_string()
        } else {
            "forged response not accepted".to_string()
        };
        report.failure = Some(FailureReason::RejectedByResolver(reason));
    }
    report
}

/// Sends one reconnaissance query straight from the attacker to the genuine
/// nameserver and returns the matching response, if any arrives.
fn direct_ns_query(
    sim: &mut Simulator,
    env: &VictimEnv,
    name: &DomainName,
    qtype: RecordType,
    txid: u16,
) -> Option<Message> {
    let query = Message::query(txid, name.clone(), qtype);
    let pkt = UdpDatagram::new(env.attacker_addr, env.nameserver_addr, 4444, well_known_ports::DNS, query.encode())
        .into_packet(txid, 64);
    sim.inject(env.attacker, pkt);
    sim.run_for(Duration::from_millis(300));
    env.attacker(sim).received_responses().into_iter().find(|(_, m)| m.header.id == txid).map(|(_, m)| m)
}

/// Serve an unsigned forgery and count on the validator having no chain of
/// trust: a signed-but-unanchored zone (no DS in the parent) validates as
/// `Insecure`, so the resolver accepts exactly what the unsigned baseline
/// accepts. Against an anchored validator the same response is `Bogus` —
/// no DNSKEY proof at all — and the vector is blocked.
#[derive(Debug, Clone)]
pub struct DowngradeToInsecureAttack {
    /// The address to plant.
    pub malicious_addr: Ipv4Addr,
    /// The name to poison.
    pub target_name: DomainName,
}

impl DowngradeToInsecureAttack {
    /// The reference configuration: plant `www.vict.im` at the attacker.
    pub fn new(malicious_addr: Ipv4Addr) -> Self {
        DowngradeToInsecureAttack { malicious_addr, target_name: "www.vict.im".parse().expect("valid name") }
    }
}

impl AttackVector for DowngradeToInsecureAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::DowngradeToInsecure
    }

    fn prepare_env(&self, _cfg: &mut VictimEnvConfig) {}

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        let mut report = AttackReport::new(PoisonMethod::DowngradeToInsecure, &self.target_name, self.malicious_addr);
        let start = sim.now();
        let traffic_before = sim.stats(env.attacker).clone();
        if env.rov_enforced {
            return report.fail(FailureReason::PreconditionNotMet(
                "route origin validation filters the hijacked announcement".into(),
            ));
        }
        let Some((dgram, query, prefix)) = intercept_query(sim, env, &mut report, &self.target_name, RecordType::A)
        else {
            return report.fail(FailureReason::BudgetExhausted);
        };
        // The whole attack is the *absence* of DNSSEC material: a bare
        // unsigned answer, exactly what a pre-DNSSEC forger would send.
        let answers = vec![ResourceRecord::new(self.target_name.clone(), 3600, RData::A(self.malicious_addr))];
        answer_intercepted(sim, env, &dgram, &query, answers, Vec::new(), prefix);
        report.notes.push("served a signature-stripped response".into());
        settle_plant_report(
            sim,
            env,
            report,
            &self.target_name,
            start,
            &traffic_before,
            "trust-anchored validator refused the signature-stripped response",
        )
    }
}

/// Replay a genuine signed NSEC3 opt-out span beside an unsigned forgery.
/// RFC 5155 §6: an opt-out span cannot prove the names it covers do not
/// exist, so a validator must admit unsigned data under it as `Insecure` —
/// which is exactly the hole this vector drives a forged host through.
/// Strict NSEC3 (no opt-out) and plain NSEC both close it: the replayed
/// span then *proves* the forgery bogus.
#[derive(Debug, Clone)]
pub struct Nsec3OptOutAbuseAttack {
    /// The address to plant.
    pub malicious_addr: Ipv4Addr,
    /// The name to insert under the opt-out span. Deliberately absent from
    /// the genuine zone — opt-out abuse inserts names, it does not replace
    /// signed ones.
    pub target_name: DomainName,
}

impl Nsec3OptOutAbuseAttack {
    /// The reference configuration: insert `phish.vict.im`.
    pub fn new(malicious_addr: Ipv4Addr) -> Self {
        Nsec3OptOutAbuseAttack { malicious_addr, target_name: "phish.vict.im".parse().expect("valid name") }
    }
}

impl AttackVector for Nsec3OptOutAbuseAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::Nsec3OptOutAbuse
    }

    fn prepare_env(&self, _cfg: &mut VictimEnvConfig) {}

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        let mut report = AttackReport::new(PoisonMethod::Nsec3OptOutAbuse, &self.target_name, self.malicious_addr);
        let start = sim.now();
        let traffic_before = sim.stats(env.attacker).clone();
        if env.rov_enforced {
            return report.fail(FailureReason::PreconditionNotMet(
                "route origin validation filters the hijacked announcement".into(),
            ));
        }

        // Reconnaissance: ask the genuine nameserver for the absent name.
        // The NXDOMAIN comes back with the zone's real denial proof (and
        // DNSKEY RRset) — the material this attack replays verbatim.
        let Some(recon) = direct_ns_query(sim, env, &self.target_name, RecordType::A, 0x7e57) else {
            return report.fail(FailureReason::PreconditionNotMet(
                "no denial proof harvested from the authoritative nameserver".into(),
            ));
        };
        let replayed: Vec<ResourceRecord> = recon.authorities.iter().chain(recon.additionals.iter()).cloned().collect();
        report.notes.push(format!("replaying {} genuine authority/DNSKEY records", replayed.len()));

        let Some((dgram, query, prefix)) = intercept_query(sim, env, &mut report, &self.target_name, RecordType::A)
        else {
            return report.fail(FailureReason::BudgetExhausted);
        };
        // Forged unsigned A + the replayed (genuinely signed) denial chain
        // and key material around it.
        let answers = vec![ResourceRecord::new(self.target_name.clone(), 3600, RData::A(self.malicious_addr))];
        answer_intercepted(sim, env, &dgram, &query, answers, replayed, prefix);
        settle_plant_report(
            sim,
            env,
            report,
            &self.target_name,
            start,
            &traffic_before,
            "the denial chain proves the forged name absent (no opt-out span admits it)",
        )
    }
}

/// Sign a forgery with the ZSK that was active *before* a rollover. Under
/// RFC 6781's lenient timeline the retired key lingers in the DNSKEY RRset
/// through its retirement window, so signatures made with it still chain to
/// the trust anchor; a strict deployment (`retire_immediately`) drops the
/// key in the same step and the signature dangles.
#[derive(Debug, Clone)]
pub struct RolloverForgeryAttack {
    /// The address to plant.
    pub malicious_addr: Ipv4Addr,
    /// The name to poison.
    pub target_name: DomainName,
}

impl RolloverForgeryAttack {
    /// The reference configuration: re-sign `www.vict.im` with the old key.
    pub fn new(malicious_addr: Ipv4Addr) -> Self {
        RolloverForgeryAttack { malicious_addr, target_name: "www.vict.im".parse().expect("valid name") }
    }
}

impl AttackVector for RolloverForgeryAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::RolloverForgery
    }

    fn prepare_env(&self, _cfg: &mut VictimEnvConfig) {}

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        let mut report = AttackReport::new(PoisonMethod::RolloverForgery, &self.target_name, self.malicious_addr);
        let start = sim.now();
        let traffic_before = sim.stats(env.attacker).clone();
        if env.rov_enforced {
            return report.fail(FailureReason::PreconditionNotMet(
                "route origin validation filters the hijacked announcement".into(),
            ));
        }

        // Drive the zone through a ZSK rollover, capturing the outgoing
        // active key first — the stand-in for a key the attacker compromised
        // while it was signing.
        let now = sim.now();
        let (compromised, dnskey_rrset, origin) = {
            let Some(ns) = sim.node_mut::<Nameserver>(env.nameserver) else {
                return report.fail(FailureReason::PreconditionNotMet("no authoritative nameserver".into()));
            };
            let Some(zone) = ns.zones_mut().first_mut() else {
                return report.fail(FailureReason::PreconditionNotMet("nameserver serves no zone".into()));
            };
            if !zone.is_signed() {
                return report.fail(FailureReason::PreconditionNotMet("the target zone is not signed".into()));
            }
            let compromised = zone.signing().expect("signed").keys.active_zsk().clone();
            zone.start_key_rollover(now);
            zone.complete_key_rollover(now);
            let still_published = zone.signing().expect("signed").keys.zsk_in_state(RolloverState::Retired).is_some();
            report.notes.push(if still_published {
                "compromised ZSK retired but still published (lenient rollover)".into()
            } else {
                "compromised ZSK dropped from the DNSKEY RRset (strict rollover)".into()
            });
            (compromised, zone.dnskey_records(), zone.origin.clone())
        };

        // Sign the forgery with the compromised key and serve it alongside
        // the zone's current (genuine, KSK-signed) DNSKEY RRset.
        let rrset = vec![ResourceRecord::new(self.target_name.clone(), 3600, RData::A(self.malicious_addr))];
        let now_secs = dns::dnssec::sim_secs(sim.now());
        let forged_sig = sign_rrset_with_window(&compromised, &rrset, &origin, 0, now_secs + 3600);
        let mut answers = rrset;
        answers.push(forged_sig);

        let Some((dgram, query, prefix)) = intercept_query(sim, env, &mut report, &self.target_name, RecordType::A)
        else {
            return report.fail(FailureReason::BudgetExhausted);
        };
        answer_intercepted(sim, env, &dgram, &query, answers, dnskey_rrset, prefix);
        settle_plant_report(
            sim,
            env,
            report,
            &self.target_name,
            start,
            &traffic_before,
            "retired key no longer published; the forged signature dangles",
        )
    }
}

/// Enumerate the zone by walking the NSEC chain: every authenticated denial
/// hands the attacker two real owner names, and probing just past each
/// `next` pointer yields the following span. A confidentiality attack on
/// the denial mechanism itself — NSEC3's hashed owners (any flavour) stop
/// the walk at the first probe.
#[derive(Debug, Clone)]
pub struct ZoneWalkingAttack {
    /// Probe budget (each probe is one direct query to the nameserver).
    pub max_probes: usize,
    /// Number of distinct non-apex names that counts as a successful
    /// enumeration.
    pub success_threshold: usize,
}

impl ZoneWalkingAttack {
    /// The reference configuration: 24 probes, 4 names proves the walk.
    pub fn new() -> Self {
        ZoneWalkingAttack { max_probes: 24, success_threshold: 4 }
    }
}

impl Default for ZoneWalkingAttack {
    fn default() -> Self {
        Self::new()
    }
}

impl AttackVector for ZoneWalkingAttack {
    fn method(&self) -> PoisonMethod {
        PoisonMethod::ZoneWalking
    }

    fn prepare_env(&self, _cfg: &mut VictimEnvConfig) {}

    fn execute(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        let apex = env.target_name.clone();
        let mut report = AttackReport::new(PoisonMethod::ZoneWalking, &apex, env.attacker_addr);
        let start = sim.now();
        let traffic_before = sim.stats(env.attacker).clone();

        let mut enumerated: BTreeSet<String> = BTreeSet::new();
        let mut probe = apex.prepend("0").expect("valid probe name");
        let mut saw_nsec3 = false;
        for i in 0..self.max_probes {
            let txid = 0x4a00 + i as u16;
            report.iterations += 1;
            let Some(resp) = direct_ns_query(sim, env, &probe, RecordType::A, txid) else { break };
            saw_nsec3 |= resp.authorities.iter().any(|rr| rr.rtype() == RecordType::NSEC3);
            // The span covering (or owning) the probe links two real names.
            let span = resp.authorities.iter().find_map(|rr| match &rr.rdata {
                RData::Nsec { next, .. } => Some((rr.name.clone(), next.clone())),
                _ => None,
            });
            let Some((owner, next)) = span else { break };
            for name in [&owner, &next] {
                if *name != apex {
                    enumerated.insert(name.to_lowercase().to_string());
                }
            }
            if next == apex {
                break; // wrapped around: the whole chain is harvested
            }
            probe = next.prepend("0").expect("valid probe name");
        }

        report.duration = sim.now().duration_since(start);
        report.record_traffic(&traffic_before, sim.stats(env.attacker));
        report.success = enumerated.len() >= self.success_threshold;
        if report.success {
            report.notes.push(format!("enumerated {} names by following NSEC next pointers", enumerated.len()));
        } else if saw_nsec3 {
            report.failure =
                Some(FailureReason::PreconditionNotMet("NSEC3 hashes the chain; next owners are not walkable".into()));
        } else {
            report.failure =
                Some(FailureReason::PreconditionNotMet("no walkable denial chain in referral responses".into()));
        }
        report
    }
}

/// The reference DowngradeToInsecure vector.
pub fn downgrade() -> DowngradeToInsecureAttack {
    DowngradeToInsecureAttack::new(crate::env::addrs::ATTACKER)
}

/// The reference Nsec3OptOutAbuse vector.
pub(crate) fn optout_abuse() -> Nsec3OptOutAbuseAttack {
    Nsec3OptOutAbuseAttack::new(crate::env::addrs::ATTACKER)
}

/// The reference RolloverForgery vector.
pub(crate) fn rollover_forgery() -> RolloverForgeryAttack {
    RolloverForgeryAttack::new(crate::env::addrs::ATTACKER)
}

/// The reference ZoneWalking vector.
pub(crate) fn zone_walking() -> ZoneWalkingAttack {
    ZoneWalkingAttack::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ZoneSecurity;

    fn dnssec_env(security: ZoneSecurity, seed: u64) -> (Simulator, VictimEnv) {
        let mut cfg = VictimEnvConfig { seed, ..Default::default() };
        cfg.zone_security = security;
        cfg.resolver.delegations.clear();
        cfg.resolver = cfg
            .resolver
            .clone()
            .with_delegation("vict.im", vec![crate::env::addrs::NAMESERVER], true)
            .with_dnssec_validation();
        cfg.build()
    }

    #[test]
    fn downgrade_wins_only_without_a_trust_anchor() {
        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_no_ds(), 51);
        let report = downgrade().execute(&mut sim, &env);
        assert!(report.success, "unanchored validation must accept the stripped forgery: {report:?}");

        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_nsec(), 51);
        let report = downgrade().execute(&mut sim, &env);
        assert!(!report.success, "anchored validation must reject it");
        assert!(matches!(report.failure, Some(FailureReason::RejectedByResolver(_))));
    }

    #[test]
    fn optout_abuse_inserts_a_name_only_under_an_optout_chain() {
        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_nsec3_opt_out(), 52);
        let report = optout_abuse().execute(&mut sim, &env);
        assert!(report.success, "opt-out spans must admit the unsigned insertion: {report:?}");

        for strict in [ZoneSecurity::signed_nsec(), ZoneSecurity::signed_strict()] {
            let (mut sim, env) = dnssec_env(strict, 52);
            let report = optout_abuse().execute(&mut sim, &env);
            assert!(!report.success, "a complete denial chain must prove the insertion bogus");
        }
    }

    #[test]
    fn rollover_forgery_needs_the_retirement_window() {
        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_nsec(), 53);
        let report = rollover_forgery().execute(&mut sim, &env);
        assert!(report.success, "the retired-but-published key must still verify: {report:?}");

        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_strict(), 53);
        let report = rollover_forgery().execute(&mut sim, &env);
        assert!(!report.success, "strict rollover drops the key and the signature dangles");
        assert!(matches!(report.failure, Some(FailureReason::RejectedByResolver(_))));
    }

    #[test]
    fn zone_walking_enumerates_nsec_but_not_nsec3() {
        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_nsec(), 54);
        let report = zone_walking().execute(&mut sim, &env);
        assert!(report.success, "NSEC chains must be walkable: {report:?}");

        let (mut sim, env) = dnssec_env(ZoneSecurity::signed_strict(), 54);
        let report = zone_walking().execute(&mut sim, &env);
        assert!(!report.success, "hashed owners must stop the walk");
        assert!(matches!(report.failure, Some(FailureReason::PreconditionNotMet(_))));
    }
}

//! Attack reports and the accounting behind the paper's Table 6
//! (effectiveness: hit rate, queries needed, total traffic; stealthiness).

use dns::prelude::DomainName;
use netsim::prelude::{Duration, TrafficStats};
use std::net::Ipv4Addr;

/// The three off-path cache-poisoning methodologies of Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoisonMethod {
    /// Intercepting DNS packets with a BGP prefix hijack (Section 3.1).
    HijackDns,
    /// Guessing the source port via the ICMP global rate-limit side channel,
    /// then brute-forcing the TXID (Section 3.2).
    SadDns,
    /// Injecting a spoofed second fragment into the defragmentation cache
    /// (Section 3.3).
    FragDns,
    /// Serving an unsigned forgery to a validator that has no chain of
    /// trust into the zone: a signed-but-unanchored deployment validates as
    /// `Insecure` and accepts everything the baseline does.
    DowngradeToInsecure,
    /// Replaying a genuine signed NSEC3 opt-out span alongside unsigned
    /// forged records: RFC 5155 opt-out spans cannot prove the forgery is
    /// absent, so the validator admits it as `Insecure`.
    Nsec3OptOutAbuse,
    /// Signing a forgery with a retired-but-still-published ZSK during the
    /// RFC 6781 rollover retirement window.
    RolloverForgery,
    /// Enumerating the zone by following NSEC `next` pointers — a
    /// confidentiality attack on the denial chain itself.
    ZoneWalking,
}

impl PoisonMethod {
    /// The paper's three off-path methodologies, in the order its tables
    /// list them. The DNSSEC-specific vectors are deliberately *not* here —
    /// they only make sense against signed zones and are evaluated by the
    /// dedicated DNSSEC matrix over [`PoisonMethod::dnssec_suite`].
    pub fn all() -> [PoisonMethod; 3] {
        [PoisonMethod::HijackDns, PoisonMethod::SadDns, PoisonMethod::FragDns]
    }

    /// The four attacks against DNSSEC deployments themselves, in matrix
    /// row order.
    pub fn dnssec_suite() -> [PoisonMethod; 4] {
        [
            PoisonMethod::DowngradeToInsecure,
            PoisonMethod::Nsec3OptOutAbuse,
            PoisonMethod::RolloverForgery,
            PoisonMethod::ZoneWalking,
        ]
    }

    /// Human-readable name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            PoisonMethod::HijackDns => "HijackDNS",
            PoisonMethod::SadDns => "SadDNS",
            PoisonMethod::FragDns => "FragDNS",
            PoisonMethod::DowngradeToInsecure => "DowngradeToInsecure",
            PoisonMethod::Nsec3OptOutAbuse => "Nsec3OptOutAbuse",
            PoisonMethod::RolloverForgery => "RolloverForgery",
            PoisonMethod::ZoneWalking => "ZoneWalking",
        }
    }

    /// Snake-case slug used as the metric-name segment for this method
    /// (`attacks.<slug>.*` in telemetry snapshots).
    pub fn slug(&self) -> &'static str {
        match self {
            PoisonMethod::HijackDns => "hijackdns",
            PoisonMethod::SadDns => "saddns",
            PoisonMethod::FragDns => "fragdns",
            PoisonMethod::DowngradeToInsecure => "downgrade_to_insecure",
            PoisonMethod::Nsec3OptOutAbuse => "nsec3_optout_abuse",
            PoisonMethod::RolloverForgery => "rollover_forgery",
            PoisonMethod::ZoneWalking => "zone_walking",
        }
    }
}

impl std::fmt::Display for PoisonMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Visibility class of a method (Table 6, "Stealthiness").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stealth {
    /// Control-plane manipulation visible in the global routing table
    /// (sub-prefix hijack).
    VeryVisible,
    /// Control-plane manipulation visible only to ASes that accept it
    /// (same-prefix hijack).
    Visible,
    /// Data-plane only, but a local packet flood may be noticed (SadDNS,
    /// FragDNS against random IPIDs).
    StealthyButLocallyDetectable,
    /// Data-plane only with a handful of packets (FragDNS against a global
    /// IPID counter).
    VeryStealthy,
}

/// Why an attack attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// A structural precondition does not hold (e.g. /24 announcement, no
    /// global ICMP limit, fragments filtered, response too small).
    PreconditionNotMet(String),
    /// The attack ran but the race/guess was lost within the allotted budget.
    BudgetExhausted,
    /// The resolver's defences rejected the forgery (0x20, DNSSEC, ...).
    RejectedByResolver(String),
}

/// The result of one attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// The methodology used.
    pub method: PoisonMethod,
    /// Whether the victim resolver's cache ended up poisoned.
    pub success: bool,
    /// Why the attack failed, when it did.
    pub failure: Option<FailureReason>,
    /// Name the attacker tried to poison.
    pub target_name: String,
    /// The address the attacker tried to plant.
    pub malicious_addr: Ipv4Addr,
    /// Wall-clock (simulated) duration of the attack.
    pub duration: Duration,
    /// Number of attack iterations (query-trigger rounds).
    pub iterations: u64,
    /// Packets the attacker sent.
    pub attacker_packets: u64,
    /// Bytes the attacker sent.
    pub attacker_bytes: u64,
    /// Queries the attacker had to trigger at the victim resolver.
    pub queries_triggered: u64,
    /// Port-scan probes the attacker sent (SadDNS; zero for other methods).
    pub probes_sent: u64,
    /// Scan windows in which an open port was detected (SadDNS).
    pub windows_hit: u64,
    /// Spoofed responses sprayed at guessed TXIDs (SadDNS spray size).
    pub spray_responses: u64,
    /// Free-form notes (e.g. "IPID predicted exactly", "port found after 3 batches").
    pub notes: Vec<String>,
}

impl AttackReport {
    /// A report skeleton for a method/target.
    pub fn new(method: PoisonMethod, target_name: &DomainName, malicious_addr: Ipv4Addr) -> Self {
        AttackReport {
            method,
            success: false,
            failure: None,
            target_name: target_name.to_string(),
            malicious_addr,
            duration: Duration::ZERO,
            iterations: 0,
            attacker_packets: 0,
            attacker_bytes: 0,
            queries_triggered: 0,
            probes_sent: 0,
            windows_hit: 0,
            spray_responses: 0,
            notes: Vec::new(),
        }
    }

    /// Marks the report as failed with a reason.
    pub fn fail(mut self, reason: FailureReason) -> Self {
        self.success = false;
        self.failure = Some(reason);
        self
    }

    /// Records the attacker's traffic counters (delta between two snapshots).
    pub(crate) fn record_traffic(&mut self, before: &TrafficStats, after: &TrafficStats) {
        self.attacker_packets += after.packets_sent.saturating_sub(before.packets_sent);
        self.attacker_bytes += after.bytes_sent.saturating_sub(before.bytes_sent);
    }

    /// The effective per-query hit rate of this run (successes per triggered
    /// query), used to fill Table 6's "Hitrate" column from repeated runs.
    pub fn hitrate(&self) -> f64 {
        if self.queries_triggered == 0 {
            0.0
        } else if self.success {
            1.0 / self.queries_triggered as f64
        } else {
            0.0
        }
    }
}

telemetry::counters! {
    /// Aggregate over repeated attack runs (the paper reports averages over many
    /// SadDNS runs: 471 s, 497 iterations, ~987 K packets). Exported under
    /// `attacks.<slug>.*` for the attack's method.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct AttackAggregate {
        /// Number of runs.
        pub runs: u64 => "runs",
        /// Number of successful runs.
        pub successes: u64 => "successes",
        /// Total simulated duration across runs.
        pub total_duration: Duration => "duration_ns_total" = |a| a.total_duration.as_nanos(),
        /// Total iterations across runs.
        pub total_iterations: u64 => "iterations",
        /// Total attacker packets across runs.
        pub total_packets: u64 => "packets",
        /// Total attacker bytes across runs.
        pub total_bytes: u64 => "bytes",
        /// Total queries triggered across runs.
        pub total_queries: u64 => "queries_triggered",
        /// Total port-scan probes across runs.
        pub total_probes: u64 => "probes_sent",
        /// Total scan windows hit across runs.
        pub total_windows_hit: u64 => "windows_hit",
        /// Total sprayed responses across runs.
        pub total_spray_responses: u64 => "spray_responses",
    }
    pub fn merge;
    pub fn export_metrics(method: PoisonMethod) => format!("attacks.{}", method.slug());
}

impl AttackAggregate {
    /// Folds one report into the aggregate.
    pub fn add(&mut self, report: &AttackReport) {
        self.runs += 1;
        if report.success {
            self.successes += 1;
        }
        self.total_duration += report.duration;
        self.total_iterations += report.iterations;
        self.total_packets += report.attacker_packets;
        self.total_bytes += report.attacker_bytes;
        self.total_queries += report.queries_triggered;
        self.total_probes += report.probes_sent;
        self.total_windows_hit += report.windows_hit;
        self.total_spray_responses += report.spray_responses;
    }

    /// Success rate over runs.
    pub fn success_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.successes as f64 / self.runs as f64
        }
    }

    /// Average number of queries a successful poisoning required (Table 6
    /// "Queries needed" = 1 / hitrate).
    pub fn avg_queries_per_success(&self) -> f64 {
        if self.successes == 0 {
            f64::INFINITY
        } else {
            self.total_queries as f64 / self.successes as f64
        }
    }

    /// The hit rate: successes per triggered query.
    pub fn hitrate(&self) -> f64 {
        if self.total_queries == 0 {
            0.0
        } else {
            self.successes as f64 / self.total_queries as f64
        }
    }

    /// Average packets per run.
    pub fn avg_packets(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.total_packets as f64 / self.runs as f64
        }
    }

    /// Average duration per run in seconds.
    pub fn avg_duration_secs(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.total_duration.as_secs_f64() / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name() -> DomainName {
        "vict.im".parse().unwrap()
    }

    #[test]
    fn report_lifecycle() {
        let mut r = AttackReport::new(PoisonMethod::FragDns, &name(), "6.6.6.6".parse().unwrap());
        assert!(!r.success);
        r.queries_triggered = 5;
        r.success = true;
        assert!((r.hitrate() - 0.2).abs() < 1e-12);
        let before = TrafficStats::default();
        let after = TrafficStats { packets_sent: 100, bytes_sent: 9000, ..Default::default() };
        r.record_traffic(&before, &after);
        assert_eq!(r.attacker_packets, 100);
        assert_eq!(r.attacker_bytes, 9000);
    }

    #[test]
    fn failed_report() {
        let r = AttackReport::new(PoisonMethod::SadDns, &name(), "6.6.6.6".parse().unwrap())
            .fail(FailureReason::PreconditionNotMet("per-destination ICMP limit".into()));
        assert!(!r.success);
        assert!(matches!(r.failure, Some(FailureReason::PreconditionNotMet(_))));
        assert_eq!(r.hitrate(), 0.0);
    }

    #[test]
    fn aggregate_statistics() {
        let mut agg = AttackAggregate::default();
        for i in 0..10 {
            let mut r = AttackReport::new(PoisonMethod::SadDns, &name(), "6.6.6.6".parse().unwrap());
            r.queries_triggered = 100;
            r.attacker_packets = 1000;
            r.duration = Duration::from_secs(50);
            r.success = i < 5;
            agg.add(&r);
        }
        assert_eq!(agg.runs, 10);
        assert_eq!(agg.successes, 5);
        assert!((agg.success_rate() - 0.5).abs() < 1e-12);
        assert!((agg.avg_queries_per_success() - 200.0).abs() < 1e-12);
        assert!((agg.hitrate() - 0.005).abs() < 1e-12);
        assert!((agg.avg_packets() - 1000.0).abs() < 1e-12);
        assert!((agg.avg_duration_secs() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn method_names() {
        assert_eq!(PoisonMethod::HijackDns.name(), "HijackDNS");
        assert_eq!(PoisonMethod::all().len(), 3);
        assert_eq!(format!("{}", PoisonMethod::FragDns), "FragDNS");
        assert_eq!(PoisonMethod::SadDns.slug(), "saddns");
        assert_eq!(PoisonMethod::Nsec3OptOutAbuse.slug(), "nsec3_optout_abuse");
    }
}

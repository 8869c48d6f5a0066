//! The certificate-authority subsystem end to end: a genuine DNS-01 and
//! HTTP-01 issuance with full packet/byte accounting, the fraudulent-
//! certificate chain for each poisoning vector, and the CA-layer defence
//! ablation (multi-vantage validation vs an interception hijack vs DNSSEC).
//!
//! ```text
//! cargo run --release --example ca_issuance -- [--seed N]
//! ```
//!
//! `--help` exits 0; an unknown flag or a bad value exits 2.

use cross_layer_attacks::attacks::prelude::PoisonMethod;
use cross_layer_attacks::ca::prelude::*;
use cross_layer_attacks::cli;
use cross_layer_attacks::xlayer_core::prelude::*;

fn genuine_issuance(seed: u64, challenge: ChallengeType) {
    let mut authority = CertificateAuthority::new(CaConfig::standard(seed));
    let owner = AcmeAccount::new("owner@vict.im");
    let order = authority.order(&owner, &"www.vict.im".parse().unwrap(), challenge);
    match challenge {
        ChallengeType::Dns01 => authority.provision_dns01(&order),
        ChallengeType::Http01 => authority.provision_http01(&order),
    }
    let report = authority.issue(&order, &[]);
    let cert = report.outcome.certificate().expect("genuine issuance succeeds");
    println!(
        "{} issuance of {}: certificate #{:04} issued to {} after {:.1} ms",
        challenge,
        cert.domain,
        cert.serial,
        cert.issued_to,
        report.duration.as_secs_f64() * 1000.0
    );
    println!(
        "  validation cost: {} packets / {} bytes on the wire, {} upstream DNS queries",
        report.validation_packets, report.validation_bytes, report.dns_upstream_queries
    );
    print!("{}", indent(&report.render_traffic()));
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}

fn main() {
    let seed = cli::from_env(cli::ca_issuance);
    println!("== Genuine issuance (seed {seed}) ==");
    genuine_issuance(seed, ChallengeType::Dns01);
    genuine_issuance(seed, ChallengeType::Http01);

    println!("\n== The attack: a fraudulent certificate per vector (no defences) ==");
    for method in PoisonMethod::all() {
        let cell = run_issuance_cell(method, Defence::None, seed);
        println!(
            "{:<9} -> poisoned: {:5} issued: {:5} (attacker sent {} packets / {} bytes)",
            method.name(),
            cell.poisoned,
            cell.issued,
            cell.report.attacker_packets,
            cell.report.attacker_bytes
        );
    }

    println!("\n== CA-layer defences ==");
    let cells = run_issuance_ablation(&ca_defences(), seed);
    println!("{}", render_issuance_ablation(&cells));

    let mvv = cells.iter().find(|c| c.defence == Defence::multi_vantage() && c.method == PoisonMethod::SadDns);
    if let Some(cell) = mvv {
        println!(
            "multi-vantage validation: SadDNS still poisons the CA resolver ({}) but the vantage quorum refuses \
             the order (issued: {})",
            cell.poisoned, cell.issued
        );
    }
    println!(
        "the interception hijack defeats the quorum — only DNSSEC (re-verifying the cached snapshot) refuses all three"
    );
}

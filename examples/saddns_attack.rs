//! The SadDNS side-channel attack, end to end (the message flow of Figure 1):
//! mute the nameserver via its response rate limit, scan for the resolver's
//! open ephemeral port through the global ICMP rate-limit side channel, then
//! brute-force the TXID.
//!
//! The attack is driven through the `attacks::vectors` registry: the vector's
//! [`AttackVector::prepare_env`] sets up every environment precondition the
//! methodology needs (the narrowed 256-port ephemeral range so the example
//! finishes in seconds, the long race window, the mutable nameserver), so no
//! hand-tuning of `VictimEnvConfig` happens here. The scan logic is identical
//! for the full 2^16-port range (see `xlayer_core::analysis::saddns_effectiveness`
//! for the extrapolation used in the Table 6 reproduction).
//!
//! ```text
//! cargo run --example saddns_attack
//! ```

use cross_layer_attacks::attacks::prelude::*;

fn main() {
    let vector = vectors::saddns();
    let (scan_lo, scan_hi) = vector.config.scan_range;
    let mut env_cfg = VictimEnvConfig::default();
    vector.prepare_env(&mut env_cfg);
    let (mut sim, env) = env_cfg.build();
    // Record the whole chain, 2^16-packet spray included: turning the trace
    // on must not change the report below.
    sim.trace_mut().enabled = true;

    println!("resolver        : {} (global ICMP limit: yes, ports {scan_lo}-{scan_hi})", env.resolver_addr);
    println!("nameserver      : {} (response rate limiting: yes)", env.nameserver_addr);
    println!("attacker        : {}", env.attacker_addr);
    println!();

    let report = vector.execute(&mut sim, &env);

    println!("== SadDNS attack report ==");
    println!("success          : {}", report.success);
    println!("iterations       : {}", report.iterations);
    println!("queries triggered: {}", report.queries_triggered);
    println!("attacker packets : {}", report.attacker_packets);
    println!("attacker bytes   : {}", report.attacker_bytes);
    println!("simulated time   : {}", report.duration);
    println!("traced packets   : {}", sim.trace().packets().count());
    for note in &report.notes {
        println!("note: {note}");
    }
    println!();
    let target: cross_layer_attacks::dns::prelude::DomainName = "www.vict.im".parse().unwrap();
    println!(
        "cache entry for {target}: {:?} (attacker is {})",
        env.resolver(&sim).cache().cached_a(&target, sim.now()),
        env.attacker_addr
    );
}

//! Workspace-level integration tests: every layer of the stack — simulator,
//! DNS, BGP, attacks, applications and the evaluation harness — exercised
//! together through the public API of the umbrella crate.

use cross_layer_attacks::attacks::prelude::*;
use cross_layer_attacks::bgp::prelude::*;
use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::prelude::*;
use cross_layer_attacks::xlayer_core::prelude::*;

#[test]
fn all_three_methodologies_poison_the_standard_victim() {
    // HijackDNS
    let (mut sim, env) = VictimEnvConfig::default().build();
    let hijack = HijackDnsAttack::new(HijackDnsConfig::new(env.attacker_addr)).run(&mut sim, &env);
    assert!(hijack.success);

    // FragDNS
    let (mut sim, env) = VictimEnvConfig::default().build();
    let frag = FragDnsAttack::new(FragDnsConfig::new(env.attacker_addr)).run(&mut sim, &env);
    assert!(frag.success);

    // SadDNS (narrowed port space)
    let mut cfg = VictimEnvConfig::default();
    cfg.resolver.port_range = (40000, 40127);
    cfg.resolver.query_timeout = Duration::from_secs(30);
    cfg.resolver.max_retries = 0;
    cfg.nameserver = cfg.nameserver.with_rrl(10);
    let (mut sim, env) = cfg.build();
    let mut sad_cfg = SadDnsConfig::new(env.attacker_addr);
    sad_cfg.scan_range = (40000, 40127);
    let sad = SadDnsAttack::new(sad_cfg).run(&mut sim, &env);
    assert!(sad.success);

    // Relative cost ordering (Table 6 shape): hijack ≪ frag ≪ saddns.
    assert!(hijack.attacker_packets < frag.attacker_packets);
    assert!(frag.attacker_packets < sad.attacker_packets);
}

#[test]
fn poisoned_cache_affects_every_application_sharing_the_resolver() {
    // Poison once (cross-application cache, Section 4.3.2), then observe the
    // impact on several applications that share the resolver.
    let (mut sim, env) = VictimEnvConfig::default().build();
    let mut cfg = HijackDnsConfig::new(env.attacker_addr);
    cfg.target_name = "mail.vict.im".parse().unwrap();
    assert!(HijackDnsAttack::new(cfg).run(&mut sim, &env).success);

    let resolved_mx = env.resolver(&sim).cache().cached_a(&"mail.vict.im".parse().unwrap(), sim.now());
    let genuine_mx: std::net::Ipv4Addr = "30.0.0.26".parse().unwrap();

    use cross_layer_attacks::apps::prelude::*;
    // Email interception.
    assert_eq!(deliver_mail(resolved_mx, genuine_mx, env.attacker_addr), MailDelivery::InterceptedByAttacker);
    // Password recovery account takeover.
    assert_eq!(password_recovery(resolved_mx, genuine_mx, env.attacker_addr), PasswordRecovery::AttackerReceivesLink);
}

#[test]
fn dnssec_protects_signed_domains_end_to_end() {
    let cfg = VictimEnvConfig {
        zone_security: attacks::env::ZoneSecurity::signed_nsec(),
        resolver: ResolverConfig::new(attacks::env::addrs::RESOLVER)
            .with_delegation("vict.im", vec![attacks::env::addrs::NAMESERVER], true)
            .with_dnssec_validation(),
        ..Default::default()
    };
    let (mut sim, env) = cfg.build();
    let report = HijackDnsAttack::new(HijackDnsConfig::new(env.attacker_addr)).run(&mut sim, &env);
    assert!(!report.success, "a validating resolver rejects the unsigned forgery");
    // Genuine resolution still works.
    env.trigger_query(&mut sim, QueryTrigger::InternalClient, &"www.vict.im".parse().unwrap(), RecordType::A, 5);
    sim.run();
    assert_eq!(
        env.resolver(&sim).cache().cached_a(&"www.vict.im".parse().unwrap(), sim.now()),
        Some("30.0.0.80".parse().unwrap())
    );
}

#[test]
fn bgp_control_plane_and_data_plane_agree() {
    // If the control-plane simulation says the attacker captures the
    // resolver's AS, the data-plane hijack must deliver the resolver's query
    // to the attacker; if ROV filters it, it must not.
    let (topo, map) = AsTopology::small_test_topology();
    let prefix: Prefix = "123.0.0.0/22".parse().unwrap();
    let roas = vec![Roa::exact(prefix, AsId(map["stub1"].0))];
    let rov: std::collections::HashMap<AsId, RovPolicy> = topo.ases().map(|a| (a, RovPolicy::Enforced)).collect();
    let outcome = sub_prefix_hijack(
        &topo,
        Announcement { prefix, origin: map["stub1"] },
        map["stub3"],
        Some(map["stub4"]),
        &rov,
        &roas,
    );
    assert_eq!(outcome.target_captured, Some(false), "ROV filters the control-plane announcement");

    let (mut sim, env) = VictimEnvConfig::default().build();
    let mut cfg = HijackDnsConfig::new(env.attacker_addr);
    cfg.rov_blocks = outcome.target_captured == Some(false);
    let report = HijackDnsAttack::new(cfg).run(&mut sim, &env);
    assert!(!report.success);
}

#[test]
fn evaluation_harness_produces_all_tables() {
    let cfg = CampaignConfig::new(1, 2_000);
    let t3 = run_table3_with(&cfg);
    let t4 = run_table4_with(&cfg);
    let t5 = run_table5(1);
    assert_eq!(t3.len(), 9);
    assert_eq!(t4.len(), 10);
    assert_eq!(t5.len(), 5);
    assert_eq!(t5.iter().filter(|r| r.vulnerable).count(), 3);
    let fig3 = figure3_prefix_distributions_with(&cfg);
    assert_eq!(fig3.len(), 3);
    let overlap = figure5_resolver_overlap_with(&CampaignConfig::new(1, 1_000));
    assert!(overlap.hijack_total() > overlap.saddns_total());
    assert!(!render_table1().is_empty());
    assert!(!render_table2().is_empty());
}

#[test]
fn countermeasures_change_attack_outcomes() {
    let baseline = evaluate_cell(PoisonMethod::FragDns, Defence::None, 77);
    let defended = evaluate_cell(PoisonMethod::FragDns, Defence::FragmentFiltering, 77);
    assert!(baseline.attack_succeeded);
    assert!(!defended.attack_succeeded);
}

/// Builds a client → resolver → padded nameserver chain whose answers exceed
/// the resolver's 512-byte EDNS buffer, so every lookup truncates over UDP.
fn truncating_chain(policy: UpstreamTransport) -> (Simulator, NodeId, NodeId) {
    let resolver_addr: Ipv4Addr = "30.0.0.1".parse().unwrap();
    let ns_addr: Ipv4Addr = "123.0.0.53".parse().unwrap();
    let client_addr: Ipv4Addr = "30.0.0.25".parse().unwrap();
    let mut zone = Zone::new("vict.im".parse().unwrap());
    zone.add_a("www.vict.im", "30.0.0.80".parse().unwrap());
    let mut ns_cfg = NameserverConfig::new(ns_addr);
    ns_cfg.pad_responses_to = Some(1400);
    let resolver_cfg = ResolverConfig { edns_size: 512, ..ResolverConfig::new(resolver_addr) }
        .with_delegation("vict.im", vec![ns_addr], false)
        .with_transport(policy);
    let mut client = StubClient::new(client_addr, resolver_addr);
    client.query("www.vict.im", RecordType::A);
    let mut sim = Simulator::new(99);
    let c = sim.add_node("client", vec![client_addr], client);
    let r = sim.add_node("resolver", vec![resolver_addr], Resolver::new(resolver_cfg));
    sim.add_node("ns", vec![ns_addr], Nameserver::new(ns_cfg, vec![zone]));
    sim.run();
    (sim, c, r)
}

#[test]
fn truncation_surfaces_to_the_client_and_tcp_fallback_repairs_it() {
    // Without TCP support the truncated lookup fails *visibly*: the client
    // observes SERVFAIL with the TC bit echoed — a distinct outcome, not a
    // silent drop with a stat bump.
    let (sim, c, r) = truncating_chain(UpstreamTransport::UdpOnly);
    let client = sim.node_ref::<StubClient>(c).unwrap();
    let lookup = client.answer_for(&"www.vict.im".parse().unwrap()).expect("an answer arrived");
    assert_eq!(lookup.rcode, Rcode::ServFail);
    assert!(lookup.truncated, "the TC bit distinguishes truncation from an ordinary timeout");
    assert_eq!(client.failures, 1);
    let resolver = sim.node_ref::<Resolver>(r).unwrap();
    assert_eq!(resolver.stats.truncated_responses, 1);

    // With RFC 7766 fallback the same chain succeeds: the resolver re-asks
    // over TCP and the client gets the full answer.
    let (sim, c, r) = truncating_chain(UpstreamTransport::UdpTcFallback);
    let client = sim.node_ref::<StubClient>(c).unwrap();
    let lookup = client.answer_for(&"www.vict.im".parse().unwrap()).expect("an answer arrived");
    assert_eq!(lookup.rcode, Rcode::NoError);
    assert!(!lookup.truncated);
    assert_eq!(lookup.first_a(), Some("30.0.0.80".parse().unwrap()));
    let resolver = sim.node_ref::<Resolver>(r).unwrap();
    assert_eq!(resolver.stats.tcp_fallbacks, 1);
    assert_eq!(resolver.stats.responses_accepted, 1);
}

#[test]
fn dns_over_tcp_defence_reshapes_the_ablation_row() {
    // The whole-pipeline view of the new transport: one defence toggles the
    // outcome of two methodologies at once, and the cell runs through the
    // identical Scenario pipeline as every other (method, defence) pair.
    assert!(evaluate_cell(PoisonMethod::SadDns, Defence::None, 88).attack_succeeded);
    assert!(!evaluate_cell(PoisonMethod::SadDns, Defence::DnsOverTcp, 88).attack_succeeded);
    assert!(!evaluate_cell(PoisonMethod::FragDns, Defence::DnsOverTcp, 88).attack_succeeded);
    let hijack = evaluate_cell(PoisonMethod::HijackDns, Defence::DnsOverTcp, 88);
    assert!(hijack.attack_succeeded, "interception still defeats the transport");
}

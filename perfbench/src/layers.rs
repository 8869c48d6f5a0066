//! The per-layer ledger of the traced run: host time per operation of each
//! layer's public functions, measured from outside on inputs shaped like the
//! workloads' own — farm query/response messages, the FragDNS `ANY` answer
//! at a 548-byte MTU, a SadDNS-sized same-tick timer burst, the 65 536-name
//! farm_miss zone — plus the attack chains timed stage by stage. The inputs
//! are the same on every workload, so these numbers compare across workloads
//! and across runs. `README.md` maps each metric to the end-to-end metric and
//! workload it should move.

use crate::report::{median, timed, Outcome};
use crate::workloads::{farm_config, shard_config, Ledger, Scale, Workload};
use attacks::env::{addrs, EnvTemplate, VictimEnvConfig, ZoneSecurity};
use attacks::outcome::PoisonMethod;
use attacks::vectors;
use dns::dnssec::{sim_secs, Signer, SigningPolicy, Validation, Validator};
use dns::farm::{build_farm, load_zone, FARM_RESOLVER_BASE};
use dns::prelude::*;
use netsim::frag::{fragment_packet, ReassemblyBuffer, ReassemblyConfig, ReassemblyResult};
use netsim::prelude::{IcmpRateLimitPolicy, IcmpRateLimiter, Ipv4Addr, Ipv4Packet, SimTime, UdpDatagram};
use netsim::tcp::{TcpFlags, TcpSegment};
use netsim::wheel::TimeWheel;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::hint::black_box;
use std::time::Instant;
use xlayer_core::prelude::*;

/// Salt separating the ledger's input stream from every workload's.
const LAYER_SALT: u64 = 0x1a7e_12b3_5eed_0001;

/// Timed repetitions per micro-measurement; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] repetitions (after one warm-up) of host
/// nanoseconds per operation, where one call of `rep` performs `ops` operations.
fn ns_per_op(ops: usize, mut rep: impl FnMut()) -> f64 {
    rep();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            rep();
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Measures every layer and appends the metrics to `out`. The work of the
/// engine probe, the attack chains and the population fills is added to
/// `ledger`.
pub(crate) fn measure(seed: u64, scale: Scale, ledger: &mut Ledger, out: &mut Outcome) {
    let n = |full: usize| match scale {
        Scale::Full => full,
        Scale::Tiny => (full / 100).max(1),
    };
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ LAYER_SALT);
    netsim_layers(&mut rng, n, scale, seed, ledger, out);
    dns_layers(&mut rng, n, scale, seed, out);
    core_layers(n, seed, ledger, out);
    attack_chains(seed, scale, ledger, out);
}

/// A farm query from a stub client and the frontend's cached answer.
fn farm_messages(rng: &mut ChaCha20Rng) -> (Message, Message) {
    let qname: DomainName = format!("q{}.load.test", rng.gen_range(0..512)).parse().expect("valid name");
    let query = Message::query(rng.gen(), qname.clone(), RecordType::A);
    let mut response = Message::response_for(&query);
    response.answers.push(ResourceRecord::new(qname, 300, RData::A(Ipv4Addr::new(10, 99, 0, 7))));
    (query, response)
}

/// The victim zone's `ANY` answer, the message FragDNS forces into fragments.
fn any_answer() -> Message {
    let apex: DomainName = "vict.im".parse().expect("valid name");
    let LookupResult::Records(records) = VictimEnvConfig::default().victim_zone().lookup(&apex, RecordType::ANY) else {
        panic!("the victim zone answers ANY at its apex");
    };
    let mut any = Message::query(1, apex, RecordType::ANY);
    any.header.is_response = true;
    any.answers = records;
    any
}

fn netsim_layers(
    rng: &mut ChaCha20Rng,
    n: impl Fn(usize) -> usize,
    scale: Scale,
    seed: u64,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    // Engine: Simulator::run host time per popped event on one farm_hit shard.
    let cfg = farm_config(Workload::FarmHit, seed, scale);
    let per_event: Vec<f64> = (0..3)
        .map(|_| {
            let (mut sim, farm) = build_farm(shard_config(&cfg, 0));
            let ((), took) = timed(|| sim.run());
            ledger.add_farm_shard(&sim, &farm, &farm.stats(&sim));
            took.as_nanos() as f64 / sim.counters().events_popped.max(1) as f64
        })
        .collect();
    out.metric("netsim.engine.ns_per_event", median(&per_event), "ns");

    // Wheel: a farm-like schedule spread over 10 s of simulated time, and a
    // SadDNS-sized burst landing in one 4 µs tick (the `ready` heap path).
    let spread: Vec<SimTime> = (0..n(100_000)).map(|_| SimTime::from_nanos(rng.gen_range(0..10_000_000_000))).collect();
    let burst_len = if scale == Scale::Full { 4096 } else { 64 };
    let burst: Vec<SimTime> = (0..burst_len).map(|i: u64| SimTime::from_nanos((i * 2_654_435_761) % 4096)).collect();
    for (name, times) in [("netsim.wheel.push_pop_ns.spread", &spread), ("netsim.wheel.push_pop_ns.burst", &burst)] {
        let ns = ns_per_op(times.len(), || {
            let mut wheel = TimeWheel::new();
            for (seq, &t) in times.iter().enumerate() {
                wheel.push(t, seq as u64, seq as u32);
            }
            while let Some(event) = wheel.pop() {
                black_box(event);
            }
        });
        out.metric(name, ns, "ns");
    }

    // IPv4, checksum and UDP on the farm's response packet.
    let (query, response) = farm_messages(rng);
    let client = Ipv4Addr::new(100, 64, 0, 7);
    let datagram = UdpDatagram::new(
        FARM_RESOLVER_BASE,
        client,
        well_known_ports::DNS,
        well_known_ports::STUB_CLIENT,
        response.encode(),
    );
    let packet = datagram.clone().into_packet(7, 64);
    let wire = packet.encode();
    let iters = n(200_000);
    out.metric(
        "netsim.ipv4.encode_ns",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(packet.encode())))),
        "ns",
    );
    out.metric(
        "netsim.ipv4.decode_ns",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(Ipv4Packet::decode(black_box(&wire)))))),
        "ns",
    );
    let mut block = vec![0u8; 1500];
    rng.fill_bytes(&mut block);
    let ns = ns_per_op(iters, || {
        for _ in 0..iters {
            let mut c = netsim::checksum::Checksum::new();
            c.add_bytes(black_box(&block));
            black_box(c.finish());
        }
    });
    out.metric("netsim.checksum.ns_per_kib", ns * 1024.0 / block.len() as f64, "ns/KiB");
    let query_payload = query.encode();
    out.metric(
        "netsim.udp.roundtrip_ns",
        ns_per_op(iters, || {
            for _ in 0..iters {
                let pkt =
                    UdpDatagram::new(client, FARM_RESOLVER_BASE, 33000, 53, query_payload.clone()).into_packet(9, 64);
                drop(black_box(UdpDatagram::from_packet(&pkt)));
            }
        }),
        "ns",
    );

    // Fragmentation and reassembly of the FragDNS ANY answer at 548 bytes.
    let any = any_answer().encode();
    let any_packet =
        UdpDatagram::new(addrs::NAMESERVER, addrs::RESOLVER, 53, 40000, any.clone()).into_packet(0x4242, 64);
    let fragments = fragment_packet(&any_packet, 548);
    if fragments.len() < 2 {
        out.fail_check("the ANY answer must fragment at a 548-byte MTU");
    }
    let iters = n(50_000);
    out.metric(
        "netsim.frag.fragment_ns",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(fragment_packet(&any_packet, 548))))),
        "ns",
    );
    let mut reassembly = ReassemblyBuffer::new(ReassemblyConfig::default());
    let mut completed = 0u64;
    let ns = ns_per_op(iters, || {
        for _ in 0..iters {
            for f in &fragments {
                if let ReassemblyResult::Complete(p) = reassembly.push(f, SimTime::ZERO) {
                    completed += 1;
                    black_box(p);
                }
            }
        }
    });
    if completed != ((REPS + 1) * iters) as u64 {
        out.fail_check("every fragment train must reassemble");
    }
    out.metric("netsim.frag.reassemble_ns", ns, "ns");

    // TCP: the same answer as one DNS-over-TCP segment.
    let segment = TcpSegment {
        src: addrs::NAMESERVER,
        dst: addrs::RESOLVER,
        src_port: 53,
        dst_port: 40000,
        seq: 1,
        ack: 1,
        flags: TcpFlags::ack(),
        window: 65535,
        payload: frame_tcp(&any),
    };
    let iters = n(100_000);
    out.metric(
        "netsim.tcp.segment_roundtrip_ns",
        ns_per_op(iters, || {
            for _ in 0..iters {
                let pkt = segment.clone().into_packet(11, 64);
                drop(black_box(TcpSegment::from_packet(&pkt)));
            }
        }),
        "ns",
    );

    // The ICMP rate limiter at SadDNS probe pacing (one probe per 20 µs).
    let iters = n(1_000_000);
    let ns = ns_per_op(iters, || {
        let mut limiter = IcmpRateLimiter::new(IcmpRateLimitPolicy::linux_default());
        for i in 0..iters as u64 {
            let dst = if i % 2 == 0 { addrs::ATTACKER } else { addrs::NAMESERVER };
            black_box(limiter.allow(dst, SimTime::from_nanos(i * 20_000)));
        }
    });
    out.metric("netsim.ratelimit.allow_ns", ns, "ns");
}

fn dns_layers(rng: &mut ChaCha20Rng, n: impl Fn(usize) -> usize, scale: Scale, seed: u64, out: &mut Outcome) {
    // Codec on the farm's messages and on a signed answer.
    let (query, response) = farm_messages(rng);
    let response_bytes = response.encode();
    let iters = n(200_000);
    out.metric(
        "dns.codec.encode_ns.query",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(query.encode())))),
        "ns",
    );
    out.metric(
        "dns.codec.decode_ns.response",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(Message::decode(black_box(&response_bytes)))))),
        "ns",
    );
    let signed_cfg = VictimEnvConfig { seed, zone_security: ZoneSecurity::signed_nsec(), ..VictimEnvConfig::default() };
    let signed_zone = signed_cfg.victim_zone();
    let apex: DomainName = "vict.im".parse().expect("valid name");
    let www: DomainName = "www.vict.im".parse().expect("valid name");
    let mut signed = Message::query(1, www.clone(), RecordType::A);
    signed.header.is_response = true;
    signed.answers = signed_zone.rrset_with_sigs(&www, RecordType::A);
    signed.additionals = signed_zone.dnskey_records();
    let signed_bytes = signed.encode();
    let iters = n(50_000);
    out.metric(
        "dns.codec.decode_ns.signed",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(Message::decode(black_box(&signed_bytes)))))),
        "ns",
    );

    // DNSSEC: sign one A RRset; validate the signed answer up to the anchor.
    let keys = signed_cfg.zone_keys();
    let policy = SigningPolicy::default();
    let signer = Signer::new(&keys, &policy, apex.clone());
    let rrset = [ResourceRecord::new(www.clone(), 300, RData::A(addrs::SERVICE))];
    let iters = n(10_000);
    out.metric(
        "dns.dnssec.sign_ns",
        ns_per_op(iters, || (0..iters).for_each(|_| drop(black_box(signer.sign_rrset(&rrset, SimTime::ZERO))))),
        "ns",
    );
    let records: Vec<ResourceRecord> = signed.answers.iter().chain(&signed.additionals).cloned().collect();
    let validator = Validator::new(apex, signed_zone.trust_anchor(), sim_secs(SimTime::from_secs(60)));
    if validator.validate(&records, &www, RecordType::A) != Validation::Secure {
        out.fail_check("the signed answer must validate as Secure");
    }
    out.metric(
        "dns.dnssec.validate_ns",
        ns_per_op(iters, || {
            (0..iters).for_each(|_| drop(black_box(validator.validate(&records, &www, RecordType::A))))
        }),
        "ns",
    );

    // Cache reads on the farm_hit pool and inserts over the farm_miss pool.
    let hit_pool = farm_config(Workload::FarmHit, seed, scale).shard.names as usize;
    let miss_pool = farm_config(Workload::FarmMiss, seed, scale).shard.names as usize;
    let record = |i: usize| {
        let name: DomainName = format!("q{i}.load.test").parse().expect("valid name");
        ResourceRecord::new(name, 300, RData::A(Ipv4Addr::from(0x0a63_0000 + i as u32)))
    };
    let hit_records: Vec<ResourceRecord> = (0..hit_pool).map(record).collect();
    let mut cache = Cache::new();
    cache.insert_records(&hit_records, SimTime::ZERO, false);
    let probes: Vec<DomainName> =
        (0..n(100_000)).map(|_| hit_records[rng.gen_range(0..hit_pool)].name.clone()).collect();
    let now = SimTime::from_secs(1);
    let ns = ns_per_op(probes.len(), || {
        for name in &probes {
            black_box(cache.lookup(name, RecordType::A, now).expect("every probe is cached"));
        }
    });
    out.metric("dns.cache.lookup_ns.hit", ns, "ns");
    let miss_records: Vec<ResourceRecord> = (0..miss_pool).map(record).collect();
    let ns = ns_per_op(miss_records.len(), || {
        let mut cache = Cache::new();
        for rr in &miss_records {
            cache.insert_records(std::slice::from_ref(rr), SimTime::ZERO, false);
        }
        black_box(cache);
    });
    out.metric("dns.cache.insert_ns", ns, "ns");

    // Zone: building the farm_miss zone, and lookups into it.
    let builds: Vec<(Zone, f64)> =
        (0..3).map(|_| timed(|| load_zone(miss_pool as u32))).map(|(z, t)| (z, t.as_secs_f64())).collect();
    out.metric("dns.zone.build_s", median(&builds.iter().map(|(_, t)| *t).collect::<Vec<_>>()), "s");
    let zone = &builds[0].0;
    let names: Vec<DomainName> =
        (0..n(10_000)).map(|_| miss_records[rng.gen_range(0..miss_pool)].name.clone()).collect();
    let ns = ns_per_op(names.len(), || {
        for name in &names {
            black_box(zone.lookup(name, RecordType::A));
        }
    });
    out.metric("dns.zone.lookup_ns", ns, "ns");
}

fn core_layers(n: impl Fn(usize) -> usize, seed: u64, ledger: &mut Ledger, out: &mut Outcome) {
    // SoA fill and observe over one Table 3 and one Table 4 dataset.
    let (resolvers, domains) = (&table3_datasets()[0], &table4_datasets()[0]);
    let count = n(65_536);
    let fill = || {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let mut rb = ResolverBlock::with_capacity(count);
        fill_resolver_block(resolvers, &mut rng, count, &mut rb);
        let mut db = DomainBlock::with_capacity(count);
        fill_domain_block(domains, &mut rng, count, &mut db);
        (rb, db)
    };
    out.metric("core.population.fill_ns_per_profile", ns_per_op(2 * count, || drop(black_box(fill()))), "ns");
    let (rb, db) = fill();
    ledger.add_profiles(((REPS + 2) * 2 * count) as u64);
    let ns = ns_per_op(2 * count, || {
        let mut r = ResolverClassCounts::default();
        r.observe_block(black_box(&rb));
        let mut d = DomainClassCounts::default();
        d.observe_block(black_box(&db));
        black_box((r, d));
    });
    out.metric("core.population.observe_ns_per_profile", ns, "ns");

    // One ChaCha20 keystream block is 64 bytes.
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let mut buf = vec![0u8; n(1 << 20).max(64)];
    let ns = ns_per_op(buf.len() / 64, || {
        rng.fill_bytes(&mut buf);
        black_box(&buf);
    });
    out.metric("rand_chacha.ns_per_block", ns, "ns");
}

/// Each vector's chain in one cell — the paper's three in the `None` row, the
/// four DNSSEC attacks against a classic NSEC deployment — timed as
/// environment build plus `AttackVector::execute`, each report checked
/// against `PreparedCell::run_at`.
fn attack_chains(seed: u64, scale: Scale, ledger: &mut Ledger, out: &mut Outcome) {
    const CHAIN_SALT: u64 = 0xc4a1_2021_0000_0000;
    let (mut builds, mut dnssec_chains, mut saddns_packets) = (Vec::new(), Vec::new(), Vec::new());
    let methods = PoisonMethod::all().into_iter().chain(PoisonMethod::dnssec_suite());
    for (i, method) in methods.enumerate() {
        let defence = if i < 3 { Defence::None } else { Defence::Dnssec };
        let scenario = Scenario::new(VictimEnvConfig::default()).vector(vectors::quick_for(method));
        let template = EnvTemplate::new(scenario.defences(&[defence]).prepared_config());
        let vector = vectors::quick_for(method);
        let cell = PreparedCell::new(method, defence);
        let stream = SeedStream::new(seed, CHAIN_SALT ^ i as u64);
        let runs = match (scale, method) {
            (Scale::Tiny, _) => 2,
            (Scale::Full, PoisonMethod::SadDns) => 7,
            (Scale::Full, _) => 21,
        };
        let (mut execs, mut chains) = (Vec::new(), Vec::new());
        for run in 0..runs {
            let s = stream.at(run);
            let ((mut sim, env), build) = timed(|| template.build_at(s));
            sim.trace_mut().enabled = false;
            let (report, exec) = timed(|| vector.execute(&mut sim, &env));
            ledger.add_chain(&sim, &env, &report);
            if report != cell.run_at(s).report {
                out.fail_check(format!("{} at seed {s}: execute disagrees with PreparedCell::run_at", method.slug()));
            }
            if method == PoisonMethod::SadDns {
                saddns_packets.push(report.attacker_packets as f64);
            }
            builds.push(build.as_secs_f64() * 1e3);
            execs.push(exec.as_secs_f64() * 1e3);
            chains.push((build + exec).as_secs_f64() * 1e3);
        }
        out.metric(format!("attacks.{}.execute_ms", method.slug()), median(&execs), "ms");
        if i < 3 {
            out.metric(format!("chain_ms.{}", method.slug()), median(&chains), "ms");
        } else {
            dnssec_chains.extend(chains);
        }
    }
    out.metric("chain_ms.dnssec", median(&dnssec_chains), "ms");
    out.metric("attacks.env.build_ms", median(&builds), "ms");
    out.metric("attacks.saddns.attacker_packets", median(&saddns_packets), "count");
}

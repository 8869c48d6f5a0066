//! One buffer per packet: a farm_hit-shaped shard (12,500 clients, 512
//! names) delivers its packets with at most one heap allocation per packet
//! (after the warm-up it makes 38 in 112,858 packets, on the cache-miss
//! path: the DNS codec reads and writes a cache hit without allocating),
//! and the packet-buffer pool serves almost every buffer it hands out. A
//! packet train does better: it writes all its packets into one buffer and
//! the engine lends that buffer to the receiver, so a 2¹⁶-packet TXID spray
//! at a resolver takes a constant number of buffers and allocations, with
//! the packet trace on as well as off. A
//! counting global allocator checks both; the count is per thread, so the
//! test harness's own threads cannot disturb it.

use cross_layer_attacks::dns::farm::{build_farm, FarmConfig};
use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::pool;
use cross_layer_attacks::netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn farm_packets_allocate_within_budget_and_hit_the_pool() {
    let (mut sim, _farm) = build_farm(FarmConfig { clients: 12_500, names: 512, ..FarmConfig::default() });
    // Warm up: fill the pool, the time wheel's slots and the shared cache.
    for _ in 0..20_000 {
        assert!(sim.step(), "the shard outlives its warm-up");
    }
    let delivered_before = sim.counters().delivered;
    let pool_before = pool::counters();
    let allocated = allocations(|| sim.run());
    let delivered = sim.counters().delivered - delivered_before;
    let pool_after = pool::counters();

    assert!(delivered > 100_000, "the measured run delivers the shard's traffic ({delivered} packets)");
    let per_packet = allocated as f64 / delivered as f64;
    assert!(per_packet <= 1.0, "{per_packet:.3} heap allocations per delivered packet ({allocated} / {delivered})");

    let misses = pool_after.misses - pool_before.misses;
    let takes = pool_after.hits - pool_before.hits + misses;
    assert!(takes > 0, "the run takes its buffers from the pool");
    assert!(misses * 20 <= takes, "{misses} of {takes} pool takes missed (more than 5 %)");
}

/// Sprays all 2¹⁶ TXIDs at a resolver's open port as one train and checks
/// that the spray takes at most 4 pool buffers and 64 heap allocations.
/// With `traced`, the simulator's trace is on, as a 256-entry ring.
fn spray_a_resolver(traced: bool) -> Simulator {
    const SPRAY: u32 = 1 << 16;
    let resolver_addr = Ipv4Addr::new(30, 0, 0, 1);
    let client_addr = Ipv4Addr::new(30, 0, 0, 25);
    let attacker_addr = Ipv4Addr::new(6, 6, 6, 6);
    // No node owns the nameserver's address: the upstream query is lost and
    // the resolver's port stays open for the spray.
    let ns_addr = Ipv4Addr::new(123, 0, 0, 53);
    let config = ResolverConfig::new(resolver_addr).with_delegation("vict.im", vec![ns_addr], false);
    let mut sim = Simulator::new(7);
    let trace = sim.trace_mut();
    trace.enabled = traced;
    trace.capacity = 256;
    let resolver = sim.add_node("resolver", vec![resolver_addr], Resolver::new(config));
    let client = sim.add_node("client", vec![client_addr], SinkNode::default());
    let attacker = sim.add_node("attacker", vec![attacker_addr], SinkNode::default());
    let query = Message::query(1, "www.vict.im".parse().unwrap(), RecordType::A);
    sim.inject(client, UdpDatagram::new(client_addr, resolver_addr, 5353, 53, query.encode()).into_packet(1, 64));
    sim.run_for(Duration::from_millis(15));
    let port = sim.node_ref::<Resolver>(resolver).unwrap().outstanding_ports()[0];

    // Forged answers for another name, one per TXID: the resolver peeks at
    // and rejects all but one by TXID, and the one that matches by question.
    let mut forged = Message::query(0, "other.vict.im".parse().unwrap(), RecordType::A);
    forged.header.is_response = true;
    let template = UdpTemplate::new(UdpDatagram::new(ns_addr, resolver_addr, 53, port, forged.encode()), 64);
    let delivered_before = sim.counters().delivered;
    let pool_before = pool::counters();
    let allocated = allocations(|| {
        sim.inject_train(attacker, SPRAY, move |k, pkt| {
            template.write(pkt, k as u16, &[(8, &(k as u16).to_be_bytes())])
        });
        sim.run_for(Duration::from_millis(100));
    });
    let pool_after = pool::counters();

    assert_eq!(sim.counters().delivered - delivered_before, u64::from(SPRAY), "the whole spray was delivered");
    let stats = &sim.node_ref::<Resolver>(resolver).unwrap().stats;
    assert_eq!((stats.rejected_txid, stats.rejected_question), (u64::from(SPRAY) - 1, 1));
    let takes = pool_after.hits + pool_after.misses - pool_before.hits - pool_before.misses;
    assert!(takes <= 4, "{takes} pool takes for a {SPRAY}-packet train");
    assert!(allocated <= 64, "{allocated} heap allocations for a {SPRAY}-packet train");
    sim
}

#[test]
fn a_spray_train_to_a_resolver_takes_no_buffer_per_packet() {
    spray_a_resolver(false);
}

#[test]
fn a_traced_spray_train_allocates_nothing_per_packet() {
    // A 256-entry ring: every packet's fate is recorded, and all but the
    // last 256 are counted as dropped, without a heap allocation per packet.
    let sim = spray_a_resolver(true);
    let c = sim.counters();
    let fates = c.delivered + c.no_route + c.link_loss + c.egress_filtered + c.mtu_exceeded;
    assert!(fates > 1 << 16);
    assert_eq!(sim.trace().entries().len(), 256);
    assert_eq!(sim.trace().dropped(), fates - 256);
}

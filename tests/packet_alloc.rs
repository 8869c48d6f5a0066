//! One buffer per packet: a farm_hit-shaped shard (12,500 clients, 512
//! names) delivers each packet with a bounded number of heap allocations,
//! and the packet-buffer pool serves almost every buffer it hands out. A
//! counting global allocator checks it; the count is per thread, so the test
//! harness's own threads cannot disturb it.

use cross_layer_attacks::dns::farm::{build_farm, FarmConfig};
use cross_layer_attacks::netsim::pool;
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
    assert!(per_packet <= 6.0, "{per_packet:.2} heap allocations per delivered packet ({allocated} / {delivered})");

    let misses = pool_after.misses - pool_before.misses;
    let takes = pool_after.hits - pool_before.hits + misses;
    assert!(takes > 0, "the run takes its buffers from the pool");
    assert!(misses * 20 <= takes, "{misses} of {takes} pool takes missed (more than 5 %)");
}

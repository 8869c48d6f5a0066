//! Domain-name comparisons allocate nothing: hashing, equality, both name
//! orders and the bailiwick test work on each name's wire buffer in place.
//! A counting global allocator checks it; the count is per thread, so the
//! test harness's own threads cannot disturb it.

use cross_layer_attacks::dns::dnssec::sign::canonical_cmp;
use cross_layer_attacks::dns::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::BuildHasher;
use std::hint::black_box;

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

fn n(s: &str) -> DomainName {
    s.parse().expect("valid name")
}

#[test]
fn name_comparisons_allocate_nothing() {
    let pairs = [
        (n("WWW.Vict.IM"), n("www.vict.im")),
        (n("ns1.vict.im"), n("vict.im")),
        (n("a.b.c.d.e.f.example"), n("b.a.c.d.e.f.example")),
        (n(&format!("{}.vict.im", "x".repeat(63))), n("vict.im")),
        (DomainName::root(), n("im")),
    ];
    let state = std::collections::hash_map::RandomState::new();
    for (a, b) in &pairs {
        let counted = allocations(|| {
            black_box(state.hash_one(black_box(a)));
            black_box(black_box(a) == black_box(b));
            black_box(black_box(a).cmp(black_box(b)));
            black_box(black_box(a).is_subdomain_of(black_box(b)));
            black_box(black_box(b).is_subdomain_of(black_box(a)));
            black_box(canonical_cmp(black_box(a), black_box(b)));
            black_box(black_box(a).eq_case_sensitive(black_box(b)));
            black_box(black_box(a).wire_len());
        });
        assert_eq!(counted, 0, "comparing {a} with {b} allocated");
    }
    // The harness is live: building a name does allocate.
    assert!(allocations(|| drop(black_box(n("vict.im")))) > 0);
}

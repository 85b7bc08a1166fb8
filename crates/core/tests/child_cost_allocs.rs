//! Allocation guard for the known-bounds child cost: once a
//! [`ClassCounter`] is built and its scratch buffer has grown to the
//! domain's dimension, costing a child must not touch the heap.
//!
//! Its own test binary, with one test, so the counting allocator sees
//! nothing but this test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use uov_core::objective::ClassCounter;
use uov_isg::{ivec, IterationDomain, RectDomain};

/// Counts allocations made by threads that switched counting on.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic child offsets in `[-6, 6]^dim`, none of them zero.
fn children(dim: usize, n: usize) -> Vec<Vec<i64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let w: Vec<i64> = (0..dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as i64 % 13 - 6
            })
            .collect();
        if w.iter().any(|&c| c != 0) {
            out.push(w);
        }
    }
    out
}

/// Heap allocations made while costing every child once, after one
/// warm-up call has sized the scratch buffer.
fn allocations_per_sweep(domain: &dyn IterationDomain, children: &[Vec<i64>]) -> u64 {
    let counter = ClassCounter::new(domain);
    let mut scratch = Vec::new();
    counter
        .try_count(&children[0], &mut scratch)
        .expect("small offsets cannot overflow");
    let mut total = 0u64;
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for w in children {
        total += counter.try_count(w, &mut scratch).unwrap_or(0);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert!(total > 0, "every child of a non-empty domain has a class");
    after - before
}

#[test]
fn costing_ten_thousand_children_allocates_nothing() {
    let grid = RectDomain::new(ivec![1, 0], ivec![24, 511]);
    let cube = RectDomain::new(ivec![1, 1, 1], ivec![16, 32, 32]);
    for (name, domain) in [("2-D", &grid), ("3-D", &cube)] {
        let children = children(domain.dim(), 10_000);
        assert_eq!(
            allocations_per_sweep(domain, &children),
            0,
            "{name}: heap allocations while costing 10,000 children"
        );
    }
}

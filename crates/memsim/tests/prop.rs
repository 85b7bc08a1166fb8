//! Property-based tests for the memory-hierarchy simulator.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov_memsim::{machines, Cache, CacheConfig};

fn seed_from_env() -> u64 {
    std::env::var("UOV_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0D1F)
}

/// Run `property` on `cases` inputs drawn from one generator seeded with
/// `UOV_TEST_SEED ^ salt` (default seed above), so CI can sweep seeds to
/// vary them. A failing case prints its own panic, then fails the test
/// naming the seed and the case index.
fn check(salt: u64, cases: u32, mut property: impl FnMut(&mut StdRng)) {
    let seed = seed_from_env();
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    for case in 0..cases {
        let run = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        assert!(run.is_ok(), "case {case} failed under UOV_TEST_SEED={seed}");
    }
}

const CASES: u32 = 64;

/// 1–8 sets of 1–4 ways of 16–64-byte lines.
fn small_cache(rng: &mut StdRng) -> Cache {
    let sets = 1u64 << rng.gen_range(0u32..4);
    let assoc = 1u32 << rng.gen_range(0u32..3);
    let line = 16u64 << rng.gen_range(0u32..3);
    Cache::new(CacheConfig {
        size_bytes: sets * assoc as u64 * line,
        line_bytes: line,
        assoc,
        hit_cycles: 1,
    })
}

/// Addresses below `limit`, as many as a draw from `len`.
fn addrs(rng: &mut StdRng, limit: u64, len: Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..limit)).collect()
}

#[test]
fn accesses_equal_hits_plus_misses() {
    check(0x3E01, CASES, |rng| {
        let mut cache = small_cache(rng);
        let addrs = addrs(rng, 4096, 1..200);
        for &a in &addrs {
            cache.access(a);
        }
        assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    });
}

#[test]
fn immediate_rereference_always_hits() {
    check(0x3E02, CASES, |rng| {
        let mut cache = small_cache(rng);
        for a in addrs(rng, 4096, 1..100) {
            cache.access(a);
            assert!(cache.access(a), "re-access of {a} must hit");
        }
    });
}

#[test]
fn working_set_within_capacity_converges_to_all_hits() {
    check(0x3E03, CASES, |rng| {
        let assoc = 1u32 << rng.gen_range(0u32..3);
        let lines = rng.gen_range(1u64..8);
        let line = 32u64;
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 8 * assoc as u64 * line, // 8 sets
            line_bytes: line,
            assoc,
            hit_cycles: 1,
        });
        // A working set no bigger than one set's worth per set index.
        let addrs: Vec<u64> = (0..lines.min(assoc as u64)).map(|i| i * line * 8).collect();
        for _ in 0..3 {
            for &a in &addrs {
                cache.access(a);
            }
        }
        let before = cache.misses();
        for &a in &addrs {
            assert!(cache.access(a), "assoc {assoc}, {lines} lines: {a} missed");
        }
        assert_eq!(cache.misses(), before);
    });
}

#[test]
fn machine_determinism() {
    check(0x3E04, CASES, |rng| {
        let addrs = addrs(rng, 1 << 20, 1..300);
        let run = |addrs: &[u64]| {
            let mut m = machines::alpha_21164();
            for &a in addrs {
                m.read(a);
            }
            m.stats().clone()
        };
        assert_eq!(run(&addrs), run(&addrs));
    });
}

#[test]
fn cycles_monotone_under_extension() {
    check(0x3E05, CASES, |rng| {
        let prefix = addrs(rng, 1 << 16, 1..100);
        let extra = addrs(rng, 1 << 16, 1..50);
        let mut a = machines::pentium_pro();
        for &x in &prefix {
            a.read(x);
        }
        let cycles_prefix = a.cycles();
        for &x in &extra {
            a.read(x);
        }
        assert!(a.cycles() > cycles_prefix);
    });
}

#[test]
fn reset_restores_initial_behaviour() {
    check(0x3E06, CASES, |rng| {
        let addrs = addrs(rng, 1 << 16, 1..100);
        let mut warm = machines::ultra_2();
        for &a in &addrs {
            warm.read(a);
        }
        warm.reset();
        for &a in &addrs {
            warm.read(a);
        }
        let mut cold = machines::ultra_2();
        for &a in &addrs {
            cold.read(a);
        }
        assert_eq!(warm.stats(), cold.stats());
    });
}

//! Property-based tests for the kernels: every storage variant of every
//! kernel is bit-identical to every other, on random sizes, tiles and
//! workloads — the executable form of the paper's claim that OV mapping
//! changes storage, not semantics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov_kernels::mem::{PlainMemory, TracedMemory};
use uov_kernels::{jacobi2d, psm, stencil5, workloads};
use uov_memsim::machines;

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

const CASES: u32 = 32;

#[test]
fn stencil5_variants_agree() {
    check(0x4B01, CASES, |rng| {
        let len = rng.gen_range(1usize..80);
        let t_steps = rng.gen_range(1usize..7);
        let tile = (rng.gen_range(1usize..5), rng.gen_range(1usize..20));
        let input = workloads::random_f32(len, rng.gen_range(0u64..1000));
        let cfg = stencil5::Stencil5Config {
            len,
            time_steps: t_steps,
            tile: Some(tile),
        };
        let reference = stencil5::run(
            &mut PlainMemory::new(),
            stencil5::Variant::Natural,
            &cfg,
            &input,
        );
        for variant in stencil5::Variant::all() {
            let got = stencil5::run(&mut PlainMemory::new(), variant, &cfg, &input);
            assert_eq!(
                &got, &reference,
                "variant {variant:?} diverged (len {len}, T {t_steps}, tile {tile:?})"
            );
        }
    });
}

#[test]
fn psm_variants_agree() {
    check(0x4B02, CASES, |rng| {
        let (n0, n1) = (rng.gen_range(1usize..40), rng.gen_range(1usize..40));
        let tile = (rng.gen_range(1usize..6), rng.gen_range(1usize..12));
        let seed = rng.gen_range(0u64..1000);
        let s0 = workloads::random_protein(n0, seed);
        let s1 = workloads::random_protein(n1, seed + 1);
        let table = workloads::WeightTable::synthetic(seed + 2);
        let cfg = psm::PsmConfig {
            n0,
            n1,
            tile: Some(tile),
        };
        let reference = psm::run(
            &mut PlainMemory::new(),
            psm::Variant::Natural,
            &cfg,
            &s0,
            &s1,
            &table,
        );
        for variant in psm::Variant::all() {
            let got = psm::run(&mut PlainMemory::new(), variant, &cfg, &s0, &s1, &table);
            assert_eq!(
                got, reference,
                "variant {variant:?} diverged (n0 {n0}, n1 {n1}, tile {tile:?})"
            );
        }
    });
}

#[test]
fn jacobi_variants_agree() {
    check(0x4B03, CASES, |rng| {
        let n = rng.gen_range(1usize..16);
        let t_steps = rng.gen_range(1usize..5);
        let tile = (
            rng.gen_range(1usize..4),
            rng.gen_range(1usize..8),
            rng.gen_range(1usize..8),
        );
        let input = workloads::random_f32(n * n, rng.gen_range(0u64..1000));
        let cfg = jacobi2d::Jacobi2dConfig {
            n,
            time_steps: t_steps,
            tile: Some(tile),
            pad: 0,
        };
        let reference = jacobi2d::run(
            &mut PlainMemory::new(),
            jacobi2d::Variant::Natural,
            &cfg,
            &input,
        );
        for variant in jacobi2d::Variant::all() {
            let got = jacobi2d::run(&mut PlainMemory::new(), variant, &cfg, &input);
            assert_eq!(
                &got, &reference,
                "variant {variant:?} diverged (n {n}, T {t_steps}, tile {tile:?})"
            );
        }
    });
}

#[test]
fn tracing_never_changes_results() {
    check(0x4B04, CASES, |rng| {
        let len = rng.gen_range(1usize..50);
        let t_steps = rng.gen_range(1usize..5);
        let input = workloads::random_f32(len, rng.gen_range(0u64..100));
        let cfg = stencil5::Stencil5Config {
            len,
            time_steps: t_steps,
            tile: None,
        };
        for variant in [
            stencil5::Variant::OvBlocked,
            stencil5::Variant::StorageOptimized,
        ] {
            let plain = stencil5::run(&mut PlainMemory::new(), variant, &cfg, &input);
            let mut traced = TracedMemory::new(machines::ultra_2());
            let got = stencil5::run(&mut traced, variant, &cfg, &input);
            assert_eq!(got, plain, "variant {variant:?} (len {len}, T {t_steps})");
        }
    });
}

#[test]
fn machine_cycles_are_monotone_in_work() {
    check(0x4B05, CASES, |rng| {
        let len = rng.gen_range(8usize..64);
        let t_steps = rng.gen_range(1usize..4);
        // More time steps can never cost fewer total cycles.
        let input = workloads::random_f32(len, 3);
        let cycles = |t: usize| {
            let cfg = stencil5::Stencil5Config {
                len,
                time_steps: t,
                tile: None,
            };
            let mut mem = TracedMemory::new(machines::pentium_pro());
            let _ = stencil5::run(&mut mem, stencil5::Variant::OvBlocked, &cfg, &input);
            mem.machine().cycles()
        };
        assert!(
            cycles(t_steps + 1) > cycles(t_steps),
            "len {len}, T {t_steps}"
        );
    });
}

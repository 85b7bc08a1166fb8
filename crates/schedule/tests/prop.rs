//! Property-based tests for schedules.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov_isg::{IVec, IterationDomain as _, RectDomain, Stencil};
use uov_schedule::hierarchical::HierarchicalTiling;
use uov_schedule::legality::{
    order_respects_dependences, rectangular_tiling_legal, skew_factor_for_tiling, skew_matrix_2d,
};
use uov_schedule::{random_topological_order, LoopSchedule};

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

fn lex_positive_vec(rng: &mut StdRng) -> IVec {
    loop {
        let v: IVec = (0..2).map(|_| rng.gen_range(-2i64..=2)).collect();
        if v.is_lex_positive() {
            return v;
        }
    }
}

/// One to three lex-positive vectors in `[-2, 2]²`.
fn stencil_2d(rng: &mut StdRng) -> Stencil {
    let n = rng.gen_range(1usize..4);
    let vs = (0..n).map(|_| lex_positive_vec(rng)).collect();
    Stencil::new(vs).expect("validated")
}

/// An `n × m` grid with `n, m` in `1..6`.
fn small_domain(rng: &mut StdRng) -> RectDomain {
    RectDomain::grid(rng.gen_range(1i64..6), rng.gen_range(1i64..6))
}

fn tiles(rng: &mut StdRng) -> (i64, i64) {
    (rng.gen_range(1i64..4), rng.gen_range(1i64..4))
}

#[test]
fn every_schedule_is_a_permutation() {
    check(0x5C01, CASES, |rng| {
        let dom = small_domain(rng);
        let (tile_a, tile_b) = tiles(rng);
        let f = rng.gen_range(0i64..3);
        for schedule in [
            LoopSchedule::Lexicographic,
            LoopSchedule::Interchange(vec![1, 0]),
            LoopSchedule::tiled(vec![tile_a, tile_b]),
            LoopSchedule::skewed_tiled_2d(f, vec![tile_a, tile_b]),
            LoopSchedule::Wavefront(IVec::from([1, 1])),
        ] {
            let order = schedule.order(&dom);
            assert_eq!(order.len() as u64, dom.num_points(), "{schedule}");
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), order.len(), "{schedule} repeats points");
        }
    });
}

#[test]
fn random_orders_respect_dependences() {
    check(0x5C02, CASES, |rng| {
        let s = stencil_2d(rng);
        let dom = small_domain(rng);
        let seed = rng.gen_range(0u64..500);
        let order = random_topological_order(&dom, &s, seed);
        assert!(
            order_respects_dependences(&order, &dom, &s),
            "seed {seed} for {s:?}"
        );
    });
}

#[test]
fn skewed_tiling_is_always_legal() {
    check(0x5C03, CASES, |rng| {
        let s = stencil_2d(rng);
        let dom = small_domain(rng);
        let (tile_a, tile_b) = tiles(rng);
        let f = skew_factor_for_tiling(&s).expect("2-D stencil");
        let schedule = LoopSchedule::skewed_tiled_2d(f, vec![tile_a, tile_b]);
        let order = schedule.order(&dom);
        assert!(
            order_respects_dependences(&order, &dom, &s),
            "skew {f} tiles {tile_a}x{tile_b} illegal for {s:?}"
        );
    });
}

#[test]
fn skew_factor_is_minimal() {
    check(0x5C04, CASES, |rng| {
        let s = stencil_2d(rng);
        let f = skew_factor_for_tiling(&s).expect("2-D");
        // After skewing by f every dependence is non-negative…
        let skew = skew_matrix_2d(f);
        for v in &s {
            let img = skew.mul_vec(v);
            assert!(img.iter().all(|&c| c >= 0), "skew {f} for {s:?}");
        }
        // …and f−1 (if ≥ 0) leaves some dependence negative.
        if f > 0 {
            let weaker = skew_matrix_2d(f - 1);
            assert!(
                s.iter().any(|v| weaker.mul_vec(v).iter().any(|&c| c < 0)),
                "skew factor {f} not minimal for {s:?}"
            );
        }
    });
}

#[test]
fn rect_tiling_legality_criterion_is_exact() {
    check(0x5C05, CASES, |rng| {
        let s = stencil_2d(rng);
        let dom = small_domain(rng);
        // If the analytic criterion says legal, every rectangular tiling
        // must pass the exhaustive check.
        if rectangular_tiling_legal(&s) {
            let order = LoopSchedule::tiled(vec![2, 2]).order(&dom);
            assert!(order_respects_dependences(&order, &dom, &s), "{s:?}");
        }
    });
}

#[test]
fn hierarchical_refines_single_level() {
    check(0x5C06, CASES, |rng| {
        let dom = small_domain(rng);
        let outer = rng.gen_range(2i64..5);
        // inner == outer degenerates to single-level tiling.
        let h = HierarchicalTiling::new(vec![outer, outer], vec![outer, outer]).order(&dom);
        let flat = LoopSchedule::tiled(vec![outer, outer]).order(&dom);
        assert_eq!(h, flat, "outer {outer}");
    });
}

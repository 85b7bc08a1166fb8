//! Property-based tests for the integer-lattice substrate.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov_isg::num::{extended_gcd, floor_div, floor_mod, gcd, gcd_slice, lcm};
use uov_isg::{IMat, IVec, IterationDomain, RectDomain, Stencil};

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

const CASES: u32 = 256;

fn small_vec(rng: &mut StdRng, dim: usize) -> IVec {
    (0..dim).map(|_| rng.gen_range(-20i64..=20)).collect()
}

/// A `small_vec` satisfying `keep`, redrawn until one does.
fn small_vec_where(rng: &mut StdRng, dim: usize, keep: impl Fn(&IVec) -> bool) -> IVec {
    loop {
        let v = small_vec(rng, dim);
        if keep(&v) {
            return v;
        }
    }
}

#[test]
fn gcd_divides_both() {
    check(0x0001, CASES, |rng| {
        let (a, b) = (rng.gen_range(-1000i64..1000), rng.gen_range(-1000i64..1000));
        let g = gcd(a, b);
        if g != 0 {
            assert_eq!((a % g, b % g), (0, 0), "a {a} b {b} gcd {g}");
        } else {
            assert_eq!((a, b), (0, 0));
        }
    });
}

#[test]
fn extended_gcd_is_bezout() {
    check(0x0002, CASES, |rng| {
        let a = rng.gen_range(-10_000i64..10_000);
        let b = rng.gen_range(-10_000i64..10_000);
        let (g, x, y) = extended_gcd(a, b);
        assert_eq!(g, gcd(a, b));
        assert_eq!(a * x + b * y, g, "a {a} b {b}");
    });
}

#[test]
fn lcm_gcd_product() {
    check(0x0003, CASES, |rng| {
        let (a, b) = (rng.gen_range(-500i64..500), rng.gen_range(-500i64..500));
        assert_eq!(lcm(a, b) * gcd(a, b), (a * b).abs(), "a {a} b {b}");
    });
}

#[test]
fn floor_mod_in_range() {
    check(0x0004, CASES, |rng| {
        let (a, m) = (rng.gen_range(-10_000i64..10_000), rng.gen_range(1i64..100));
        let r = floor_mod(a, m);
        assert!((0..m).contains(&r), "a {a} m {m}");
        assert_eq!(floor_div(a, m) * m + r, a);
    });
}

#[test]
fn vector_addition_commutes() {
    check(0x0005, CASES, |rng| {
        let (a, b) = (small_vec(rng, 3), small_vec(rng, 3));
        assert_eq!(&a + &b, &b + &a);
        assert_eq!(&(&a + &b) - &b, a);
    });
}

#[test]
fn dot_is_bilinear() {
    check(0x0006, CASES, |rng| {
        let (a, b, c) = (small_vec(rng, 3), small_vec(rng, 3), small_vec(rng, 3));
        let k = rng.gen_range(-5i64..5);
        assert_eq!((&a + &b).dot(&c), a.dot(&c) + b.dot(&c));
        assert_eq!(a.scaled(k).dot(&b), k * a.dot(&b));
    });
}

#[test]
fn primitive_has_content_one() {
    check(0x0007, CASES, |rng| {
        let v = small_vec_where(rng, 3, |v| !v.is_zero());
        let p = v.primitive();
        assert_eq!(p.content(), 1, "v {v}");
        assert_eq!(p.scaled(v.content()), v);
    });
}

#[test]
fn gcd_slice_divides_all() {
    check(0x0008, CASES, |rng| {
        let len = rng.gen_range(1usize..6);
        let xs: Vec<i64> = (0..len).map(|_| rng.gen_range(-100i64..100)).collect();
        let g = gcd_slice(&xs);
        if g != 0 {
            for &x in &xs {
                assert_eq!(x % g, 0, "xs {xs:?}");
            }
        }
    });
}

#[test]
fn lattice_reduction_is_unimodular_and_annihilates() {
    check(0x0009, CASES, |rng| {
        let v = small_vec_where(rng, 3, |v| !v.is_zero());
        let w = IMat::lattice_reduction(&v);
        assert!(w.is_unimodular(), "v {v}");
        let wv = w.mul_vec(&v);
        assert_eq!(wv[0], v.content());
        assert_eq!(wv[1], 0);
        assert_eq!(wv[2], 0);
    });
}

#[test]
fn lattice_reduction_injective_on_classes() {
    check(0x000A, CASES, |rng| {
        let v = small_vec_where(rng, 2, |v| !v.is_zero());
        let p = small_vec(rng, 2);
        let k = rng.gen_range(-4i64..4);
        // Points differing by k·v agree on all rows but differ in row 0 by
        // k·content — the storage-equivalence structure of the paper.
        let w = IMat::lattice_reduction(&v);
        let q = &p + &v.scaled(k);
        let wp = w.mul_vec(&p);
        let wq = w.mul_vec(&q);
        assert_eq!(wq[1], wp[1], "v {v} p {p} k {k}");
        assert_eq!(wq[0] - wp[0], k * v.content());
    });
}

#[test]
fn rect_domain_points_count_and_membership() {
    check(0x000B, CASES, |rng| {
        let lo: IVec = (0..2).map(|_| rng.gen_range(-3i64..3)).collect();
        let hi: IVec = lo.iter().map(|&l| l + rng.gen_range(0i64..4)).collect();
        let d = RectDomain::new(lo, hi);
        let pts: Vec<IVec> = d.points().collect();
        assert_eq!(pts.len() as u64, d.num_points());
        for p in &pts {
            assert!(d.contains(p));
        }
    });
}

#[test]
fn stencil_sum_dominates_each_vector_under_functional() {
    check(0x000C, CASES, |rng| {
        let n = rng.gen_range(1usize..5);
        let vs = (0..n)
            .map(|_| small_vec_where(rng, 2, IVec::is_lex_positive))
            .collect();
        let s = Stencil::new(vs).expect("validated lex-positive");
        let phi = s.positive_functional();
        let total: i64 = s.iter().map(|v| phi.dot(v)).sum();
        assert_eq!(phi.dot(&s.sum()), total);
        for v in &s {
            assert!(phi.dot(v) >= 1, "stencil {s:?}");
        }
    });
}

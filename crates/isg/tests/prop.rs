//! Property-based tests for the integer-lattice substrate.

use proptest::prelude::*;
use uov_isg::num::{extended_gcd, floor_div, floor_mod, gcd, gcd_slice, lcm};
use uov_isg::{IMat, IVec, IterationDomain, RectDomain, Stencil};

fn small_vec(dim: usize) -> impl Strategy<Value = IVec> {
    prop::collection::vec(-20i64..=20, dim).prop_map(IVec::from)
}

fn lex_positive_vec(dim: usize) -> impl Strategy<Value = IVec> {
    small_vec(dim).prop_filter("lexicographically positive", |v| v.is_lex_positive())
}

proptest! {
    #[test]
    fn gcd_divides_both(a in -1000i64..1000, b in -1000i64..1000) {
        let g = gcd(a, b);
        if g != 0 {
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        } else {
            prop_assert_eq!((a, b), (0, 0));
        }
    }

    #[test]
    fn extended_gcd_is_bezout(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let (g, x, y) = extended_gcd(a, b);
        prop_assert_eq!(g, gcd(a, b));
        prop_assert_eq!(a * x + b * y, g);
    }

    #[test]
    fn lcm_gcd_product(a in -500i64..500, b in -500i64..500) {
        prop_assert_eq!(lcm(a, b) * gcd(a, b), (a * b).abs());
    }

    #[test]
    fn floor_mod_in_range(a in -10_000i64..10_000, m in 1i64..100) {
        let r = floor_mod(a, m);
        prop_assert!((0..m).contains(&r));
        prop_assert_eq!(floor_div(a, m) * m + r, a);
    }

    #[test]
    fn vector_addition_commutes(a in small_vec(3), b in small_vec(3)) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn dot_is_bilinear(a in small_vec(3), b in small_vec(3), c in small_vec(3), k in -5i64..5) {
        prop_assert_eq!((&a + &b).dot(&c), a.dot(&c) + b.dot(&c));
        prop_assert_eq!(a.scaled(k).dot(&b), k * a.dot(&b));
    }

    #[test]
    fn primitive_has_content_one(v in small_vec(3).prop_filter("nonzero", |v| !v.is_zero())) {
        let p = v.primitive();
        prop_assert_eq!(p.content(), 1);
        prop_assert_eq!(p.scaled(v.content()), v);
    }

    #[test]
    fn gcd_slice_divides_all(xs in prop::collection::vec(-100i64..100, 1..6)) {
        let g = gcd_slice(&xs);
        if g != 0 {
            for &x in &xs {
                prop_assert_eq!(x % g, 0);
            }
        }
    }

    #[test]
    fn lattice_reduction_is_unimodular_and_annihilates(
        v in small_vec(3).prop_filter("nonzero", |v| !v.is_zero())
    ) {
        let w = IMat::lattice_reduction(&v);
        prop_assert!(w.is_unimodular());
        let wv = w.mul_vec(&v);
        prop_assert_eq!(wv[0], v.content());
        prop_assert_eq!(wv[1], 0);
        prop_assert_eq!(wv[2], 0);
    }

    #[test]
    fn lattice_reduction_injective_on_classes(
        v in small_vec(2).prop_filter("nonzero", |v| !v.is_zero()),
        p in small_vec(2),
        k in -4i64..4,
    ) {
        // Points differing by k·v agree on all rows but differ in row 0 by
        // k·content — the storage-equivalence structure of the paper.
        let w = IMat::lattice_reduction(&v);
        let q = &p + &v.scaled(k);
        let wp = w.mul_vec(&p);
        let wq = w.mul_vec(&q);
        prop_assert_eq!(wq[1], wp[1]);
        prop_assert_eq!(wq[0] - wp[0], k * v.content());
    }

    #[test]
    fn rect_domain_points_count_and_membership(
        lo in prop::collection::vec(-3i64..3, 2),
        extent in prop::collection::vec(0i64..4, 2),
    ) {
        let lo = IVec::from(lo);
        let hi: IVec = lo.iter().zip(&extent).map(|(&l, &e)| l + e).collect();
        let d = RectDomain::new(lo, hi);
        let pts: Vec<IVec> = d.points().collect();
        prop_assert_eq!(pts.len() as u64, d.num_points());
        for p in &pts {
            prop_assert!(d.contains(p));
        }
    }

    #[test]
    fn stencil_sum_dominates_each_vector_under_functional(
        vs in prop::collection::vec(lex_positive_vec(2), 1..5)
    ) {
        let s = Stencil::new(vs).expect("validated lex-positive");
        let phi = s.positive_functional();
        let total: i64 = s.iter().map(|v| phi.dot(v)).sum();
        prop_assert_eq!(phi.dot(&s.sum()), total);
        for v in &s {
            prop_assert!(phi.dot(v) >= 1);
        }
    }
}

//! Elementary number theory used throughout the workspace.
//!
//! Occupancy-vector storage mappings lean on the Euclidean algorithm twice:
//! the greatest common divisor of an occupancy vector's components decides
//! whether it is *prime* (paper §4.1/§4.2), and Bézout coefficients prove
//! that prime mapping vectors touch consecutive storage locations.
//!
//! All functions here are exact over the full `i64` range, including
//! `i64::MIN` (whose absolute value does not fit in `i64`). The gcd and lcm
//! run on absolute values in `u64`, the floor division and modulus in
//! `i128`, and the extended gcd in `i64` with wrapping arithmetic, which is
//! exact there (see [`checked_extended_gcd`]). The one unrepresentable
//! corner is a gcd of exactly `2⁶³` (`gcd(i64::MIN, 0)`,
//! `gcd(i64::MIN, i64::MIN)`): the `checked_*` variants return `None` there
//! and on `lcm`/`floor_div` overflow, while the plain variants keep their
//! documented panics for callers with known-small inputs.

use std::num::Wrapping;

/// Greatest common divisor in `u64`, exact for all inputs.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Greatest common divisor of two integers, always non-negative.
///
/// `gcd(0, 0)` is defined as `0`. Exact for every input pair except the
/// single unrepresentable corner where the mathematical gcd is `2⁶³`.
///
/// # Panics
///
/// Panics iff the result is `2⁶³` (only `gcd(i64::MIN, 0)` and
/// `gcd(i64::MIN, i64::MIN)`), which exceeds `i64::MAX`. Use
/// [`checked_gcd`] on untrusted input.
///
/// # Examples
///
/// ```
/// use uov_isg::num::gcd;
/// assert_eq!(gcd(12, -18), 6);
/// assert_eq!(gcd(0, 5), 5);
/// assert_eq!(gcd(0, 0), 0);
/// assert_eq!(gcd(i64::MIN, 3), 1);
/// assert_eq!(gcd(i64::MIN, 2), 2);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    match checked_gcd(a, b) {
        Some(g) => g,
        None => panic!("gcd({a}, {b}) is 2^63, which does not fit in i64"),
    }
}

/// [`gcd`] returning `None` when the result (`2⁶³`) does not fit in `i64`.
///
/// ```
/// use uov_isg::num::checked_gcd;
/// assert_eq!(checked_gcd(i64::MIN, 0), None);
/// assert_eq!(checked_gcd(i64::MIN, i64::MIN), None);
/// assert_eq!(checked_gcd(i64::MIN, 6), Some(2));
/// ```
pub fn checked_gcd(a: i64, b: i64) -> Option<i64> {
    i64::try_from(gcd_u64(a.unsigned_abs(), b.unsigned_abs())).ok()
}

/// Least common multiple of two integers, always non-negative.
///
/// `lcm(0, x)` is defined as `0`.
///
/// # Panics
///
/// Panics when the result exceeds `i64::MAX`. Use [`checked_lcm`] on
/// untrusted input.
///
/// # Examples
///
/// ```
/// use uov_isg::num::lcm;
/// assert_eq!(lcm(4, 6), 12);
/// assert_eq!(lcm(0, 7), 0);
/// ```
pub fn lcm(a: i64, b: i64) -> i64 {
    match checked_lcm(a, b) {
        Some(l) => l,
        None => panic!("lcm({a}, {b}) overflows i64"),
    }
}

/// [`lcm`] returning `None` on overflow.
///
/// ```
/// use uov_isg::num::checked_lcm;
/// assert_eq!(checked_lcm(4, 6), Some(12));
/// assert_eq!(checked_lcm(i64::MAX, i64::MAX - 1), None);
/// assert_eq!(checked_lcm(i64::MIN, 1), None); // |i64::MIN| itself overflows
/// ```
pub fn checked_lcm(a: i64, b: i64) -> Option<i64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = gcd_u64(a.unsigned_abs(), b.unsigned_abs());
    let l = (a.unsigned_abs() / g).checked_mul(b.unsigned_abs())?;
    i64::try_from(l).ok()
}

/// Extended Euclidean algorithm.
///
/// Returns `(g, x, y)` such that `a*x + b*y == g` and `g == gcd(a, b) >= 0`.
/// For every representable gcd the Bézout coefficients are bounded by
/// `|b/(2g)|` and `|a/(2g)|`, so they always fit in `i64`. The pair is the
/// one truncating Euclid produces (see [`checked_extended_gcd`]).
///
/// # Panics
///
/// Panics iff `gcd(a, b)` is `2⁶³` (see [`gcd`]). Use
/// [`checked_extended_gcd`] on untrusted input.
///
/// # Examples
///
/// ```
/// use uov_isg::num::extended_gcd;
/// let (g, x, y) = extended_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// let (g, x, y) = extended_gcd(i64::MIN, 3);
/// assert_eq!(g, 1);
/// assert_eq!((i64::MIN as i128) * x as i128 + 3 * y as i128, 1);
/// ```
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    match checked_extended_gcd(a, b) {
        Some(t) => t,
        None => panic!("gcd({a}, {b}) is 2^63, which does not fit in i64"),
    }
}

/// [`extended_gcd`] returning `None` when the gcd (`2⁶³`) does not fit.
///
/// The loop runs in `i64` with wrapping arithmetic, which is exact here.
/// Every remainder is `a`, `b` or smaller in magnitude than `b`, so each
/// fits in `i64`. The one quotient that does not, `i64::MIN / −1 = 2⁶³`,
/// wraps to `i64::MIN`, which is `2⁶³` mod `2⁶⁴`. The other updates are
/// ring operations, so every Bézout coefficient is exact mod `2⁶⁴`, and the
/// returned pair, which fits in `i64` whenever the gcd does (see
/// [`extended_gcd`]), is exact. A final remainder of `i64::MIN` is the gcd
/// `2⁶³`.
///
/// ```
/// use uov_isg::num::checked_extended_gcd;
/// assert_eq!(checked_extended_gcd(i64::MIN, 0), None);
/// assert!(checked_extended_gcd(i64::MIN, i64::MAX).is_some());
/// assert_eq!(checked_extended_gcd(240, 46), Some((2, -9, 47)));
/// ```
pub fn checked_extended_gcd(a: i64, b: i64) -> Option<(i64, i64, i64)> {
    // Invariants: old_r = a*old_s + b*old_t, r = a*s + b*t (mod 2⁶⁴, and
    // exactly for the remainders).
    let (mut old_r, mut r) = (Wrapping(a), Wrapping(b));
    let (mut old_s, mut s) = (Wrapping(1i64), Wrapping(0i64));
    let (mut old_t, mut t) = (Wrapping(0i64), Wrapping(1i64));
    while r.0 != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    if old_r.0 == i64::MIN {
        return None;
    }
    if old_r.0 < 0 {
        (old_r, old_s, old_t) = (-old_r, -old_s, -old_t);
    }
    Some((old_r.0, old_s.0, old_t.0))
}

/// Greatest common divisor of a slice, always non-negative.
///
/// The gcd of the empty slice is `0`.
///
/// # Panics
///
/// Panics iff the result is `2⁶³` (every element is `0` or `i64::MIN`, with
/// at least one `i64::MIN`). Use [`checked_gcd_slice`] on untrusted input.
///
/// # Examples
///
/// ```
/// use uov_isg::num::gcd_slice;
/// assert_eq!(gcd_slice(&[6, -9, 15]), 3);
/// assert_eq!(gcd_slice(&[]), 0);
/// assert_eq!(gcd_slice(&[i64::MIN, 6]), 2);
/// ```
pub fn gcd_slice(values: &[i64]) -> i64 {
    match checked_gcd_slice(values) {
        Some(g) => g,
        None => panic!("gcd of {values:?} is 2^63, which does not fit in i64"),
    }
}

/// [`gcd_slice`] returning `None` when the result (`2⁶³`) does not fit.
///
/// ```
/// use uov_isg::num::checked_gcd_slice;
/// assert_eq!(checked_gcd_slice(&[i64::MIN, 0]), None);
/// assert_eq!(checked_gcd_slice(&[i64::MIN, 4]), Some(4));
/// ```
pub fn checked_gcd_slice(values: &[i64]) -> Option<i64> {
    let g = values
        .iter()
        .fold(0u64, |acc, &v| gcd_u64(acc, v.unsigned_abs()));
    i64::try_from(g).ok()
}

/// Mathematical (floor) modulus: the result is always in `0..m.abs()`.
///
/// The `%` operator in Rust is a remainder that follows the sign of the
/// dividend; storage `modterm`s (paper §4.2) need the non-negative residue.
/// Computed in `i128`, so it is exact for every `(a, m)` with `m != 0` —
/// the result is below `|m| ≤ 2⁶³`, hence representable.
///
/// # Panics
///
/// Panics if `m == 0`. Use [`checked_floor_mod`] on untrusted input.
///
/// # Examples
///
/// ```
/// use uov_isg::num::floor_mod;
/// assert_eq!(floor_mod(-1, 3), 2);
/// assert_eq!(floor_mod(7, 3), 1);
/// assert_eq!(floor_mod(i64::MIN, i64::MAX), i64::MAX - 1);
/// ```
pub fn floor_mod(a: i64, m: i64) -> i64 {
    match checked_floor_mod(a, m) {
        Some(r) => r,
        None => panic!("floor_mod by zero"),
    }
}

/// [`floor_mod`] returning `None` for `m == 0`.
pub fn checked_floor_mod(a: i64, m: i64) -> Option<i64> {
    if m == 0 {
        return None;
    }
    let r = (a as i128).rem_euclid((m as i128).abs());
    // r ∈ [0, |m|) ⊆ [0, 2⁶³), and 2⁶³ − 1 = i64::MAX, so this always fits.
    i64::try_from(r).ok()
}

/// Floor division pairing with [`floor_mod`]: `a == floor_div(a,m)*m + floor_mod(a,m)`
/// for positive `m`.
///
/// # Panics
///
/// Panics if `m == 0`, or for the single overflowing quotient
/// `floor_div(i64::MIN, -1)`. Use [`checked_floor_div`] on untrusted input.
///
/// # Examples
///
/// ```
/// use uov_isg::num::floor_div;
/// assert_eq!(floor_div(-1, 3), -1);
/// assert_eq!(floor_div(7, 3), 2);
/// ```
pub fn floor_div(a: i64, m: i64) -> i64 {
    match checked_floor_div(a, m) {
        Some(q) => q,
        None => panic!("floor_div({a}, {m}) is undefined or overflows i64"),
    }
}

/// [`floor_div`] returning `None` for `m == 0` or quotient overflow.
///
/// ```
/// use uov_isg::num::checked_floor_div;
/// assert_eq!(checked_floor_div(7, 0), None);
/// assert_eq!(checked_floor_div(i64::MIN, -1), None);
/// assert_eq!(checked_floor_div(i64::MIN, 2), Some(i64::MIN / 2));
/// ```
pub fn checked_floor_div(a: i64, m: i64) -> Option<i64> {
    if m == 0 {
        return None;
    }
    let q = (a as i128).div_euclid(m as i128);
    i64::try_from(q).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(48, 18), 6);
        assert_eq!(gcd(-48, 18), 6);
        assert_eq!(gcd(48, -18), 6);
        assert_eq!(gcd(-48, -18), 6);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(1, 1), 1);
    }

    #[test]
    fn gcd_coprime() {
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(1, 1_000_000), 1);
    }

    #[test]
    fn gcd_handles_i64_min() {
        // The historical bug: .abs() on i64::MIN overflows. Regression
        // coverage for the full corner-case matrix.
        assert_eq!(gcd(i64::MIN, 1), 1);
        assert_eq!(gcd(i64::MIN, 3), 1);
        assert_eq!(gcd(i64::MIN, 2), 2);
        assert_eq!(gcd(i64::MIN, 1024), 1024);
        assert_eq!(gcd(i64::MIN, i64::MAX), 1);
        assert_eq!(gcd(1, i64::MIN), 1);
        assert_eq!(checked_gcd(i64::MIN, 0), None);
        assert_eq!(checked_gcd(0, i64::MIN), None);
        assert_eq!(checked_gcd(i64::MIN, i64::MIN), None);
    }

    #[test]
    #[should_panic(expected = "2^63")]
    fn gcd_of_min_and_zero_panics() {
        let _ = gcd(i64::MIN, 0);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(5, 5), 5);
        assert_eq!(lcm(0, 0), 0);
    }

    #[test]
    fn lcm_extremes() {
        assert_eq!(checked_lcm(i64::MAX, i64::MAX), Some(i64::MAX));
        assert_eq!(checked_lcm(i64::MAX, 2), None);
        assert_eq!(checked_lcm(i64::MIN, 1), None);
        assert_eq!(checked_lcm(i64::MIN, 0), Some(0));
        assert_eq!(checked_lcm(i64::MIN / 2, 2), Some(1i64 << 62));
    }

    #[test]
    fn extended_gcd_bezout_holds() {
        for a in -30..30i64 {
            for b in -30..30i64 {
                let (g, x, y) = extended_gcd(a, b);
                assert_eq!(g, gcd(a, b), "gcd mismatch for ({a},{b})");
                assert_eq!(a * x + b * y, g, "Bezout fails for ({a},{b})");
            }
        }
    }

    #[test]
    fn extended_gcd_extremes() {
        // Bézout identity checked in i128 to avoid overflow in the test
        // itself.
        for (a, b) in [
            (i64::MIN, 1),
            (i64::MIN, 3),
            (i64::MIN, i64::MAX),
            (i64::MAX, i64::MIN),
            (i64::MAX, i64::MAX - 1),
            (i64::MIN, 2),
            (i64::MIN + 1, i64::MAX),
            (1, i64::MIN),
        ] {
            let (g, x, y) = extended_gcd(a, b);
            assert!(g >= 0);
            assert_eq!(g, gcd(a, b), "gcd mismatch for ({a},{b})");
            assert_eq!(
                a as i128 * x as i128 + b as i128 * y as i128,
                g as i128,
                "Bezout fails for ({a},{b})"
            );
        }
        assert_eq!(checked_extended_gcd(i64::MIN, 0), None);
        assert_eq!(checked_extended_gcd(i64::MIN, i64::MIN), None);
    }

    /// The extended Euclid `checked_extended_gcd` ran before its wrapping
    /// `i64` loop, in `i128`, kept verbatim as the reference that loop must
    /// equal: the same `(g, x, y)`, `None` included.
    fn reference_extended_gcd(a: i64, b: i64) -> Option<(i64, i64, i64)> {
        let (mut old_r, mut r) = (a as i128, b as i128);
        let (mut old_s, mut s) = (1i128, 0i128);
        let (mut old_t, mut t) = (0i128, 1i128);
        while r != 0 {
            let q = old_r / r;
            (old_r, r) = (r, old_r - q * r);
            (old_s, s) = (s, old_s - q * s);
            (old_t, t) = (t, old_t - q * t);
        }
        if old_r < 0 {
            (old_r, old_s, old_t) = (-old_r, -old_s, -old_t);
        }
        match (
            i64::try_from(old_r),
            i64::try_from(old_s),
            i64::try_from(old_t),
        ) {
            (Ok(g), Ok(x), Ok(y)) => Some((g, x, y)),
            _ => None,
        }
    }

    fn seed_from_env() -> u64 {
        std::env::var("UOV_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_0D1F)
    }

    /// An operand of any magnitude: a bit length up to 63 and a sign, now
    /// and then a value within 2 of `i64::MIN` or `i64::MAX`, and now and
    /// then a shared power-of-two factor (the product wraps, which keeps
    /// the factor).
    fn operand(rng: &mut StdRng, shift: u32) -> i64 {
        let v = match rng.gen_range(0u32..8) {
            0 => i64::MIN + rng.gen_range(0i64..=2),
            1 => i64::MAX - rng.gen_range(0i64..=2),
            _ => {
                let len = rng.gen_range(0u32..=63);
                let v = ((rng.next_u64() >> 1) >> (63 - len)) as i64;
                if rng.gen_range(0u32..2) == 0 {
                    v
                } else {
                    -v
                }
            }
        };
        v.wrapping_mul(1 << shift)
    }

    /// The wrapping `i64` loop returns the `i128` loop's `(g, x, y)` on
    /// every pair of the edge values, on seeded random pairs of every
    /// magnitude, and on consecutive Fibonacci numbers, Euclid's worst
    /// case, in both orders and every sign.
    #[test]
    fn extended_gcd_matches_the_i128_reference() {
        let check = |a: i64, b: i64| {
            assert_eq!(
                checked_extended_gcd(a, b),
                reference_extended_gcd(a, b),
                "extended gcd of ({a}, {b})"
            );
        };
        let edges = [
            0,
            1,
            -1,
            2,
            -2,
            1 << 31,
            -(1 << 31),
            1 << 62,
            -(1 << 62),
            i64::MAX,
            i64::MAX - 1,
            i64::MIN + 1,
            i64::MIN,
        ];
        for a in edges {
            for b in edges {
                check(a, b);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xE6CD);
        for _ in 0..200_000 {
            let shift = match rng.gen_range(0u32..4) {
                0 => rng.gen_range(1u32..=62),
                _ => 0,
            };
            check(operand(&mut rng, shift), operand(&mut rng, shift));
        }
        let (mut f0, mut f1) = (0i64, 1i64);
        while let Some(f2) = f0.checked_add(f1) {
            for (x, y) in [(f1, f2), (f2, f1)] {
                for (a, b) in [(x, y), (-x, y), (x, -y), (-x, -y)] {
                    check(a, b);
                }
            }
            (f0, f1) = (f1, f2);
        }
        assert!(f1 > 1 << 62, "the Fibonacci pairs stopped at {f1}");
    }

    #[test]
    fn gcd_slice_basic() {
        assert_eq!(gcd_slice(&[4]), 4);
        assert_eq!(gcd_slice(&[-4]), 4);
        assert_eq!(gcd_slice(&[2, 0, 4]), 2);
        assert_eq!(gcd_slice(&[3, 5]), 1);
        assert_eq!(gcd_slice(&[i64::MIN, 6]), 2);
        assert_eq!(checked_gcd_slice(&[i64::MIN]), None);
        assert_eq!(checked_gcd_slice(&[i64::MIN, 0, i64::MIN]), None);
    }

    #[test]
    fn floor_mod_div_agree() {
        for a in -50..50i64 {
            for m in 1..10i64 {
                let q = floor_div(a, m);
                let r = floor_mod(a, m);
                assert_eq!(q * m + r, a);
                assert!((0..m).contains(&r));
            }
        }
    }

    #[test]
    fn floor_mod_div_extremes() {
        assert_eq!(floor_mod(i64::MIN, i64::MAX), i64::MAX - 1);
        assert_eq!(floor_mod(i64::MIN, -1), 0);
        assert_eq!(floor_mod(i64::MIN, i64::MIN), 0);
        assert_eq!(floor_mod(i64::MAX, i64::MIN), i64::MAX);
        assert_eq!(checked_floor_mod(5, 0), None);
        assert_eq!(checked_floor_div(i64::MIN, -1), None);
        assert_eq!(checked_floor_div(i64::MIN, 1), Some(i64::MIN));
        assert_eq!(checked_floor_div(i64::MAX, -1), Some(-i64::MAX));
        // The pairing identity on representable extreme quotients, in i128.
        for (a, m) in [(i64::MIN, 3), (i64::MAX, -7), (i64::MIN, i64::MAX)] {
            let q = floor_div(a, m) as i128;
            let r = floor_mod(a, m) as i128;
            let m_abs = (m as i128).abs();
            // div_euclid/rem_euclid pair on |m|: a = q·|m|·sign… verify via
            // the defining property of rem_euclid against |m|.
            assert_eq!((a as i128).rem_euclid(m_abs), r);
            assert_eq!((a as i128).div_euclid(m as i128), q);
        }
    }
}

//! Integer vectors over `Z^d`.
//!
//! [`IVec`] is the workhorse type of the workspace: iteration points,
//! dependence distances, occupancy vectors and mapping vectors are all
//! integer vectors. The type is a thin, heap-allocated wrapper around
//! `Vec<i64>` with arithmetic, lexicographic ordering and lattice helpers.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::error::IsgError;
use crate::num::{checked_gcd_slice, gcd_slice};

/// An integer vector in `Z^d`.
///
/// The derived [`Ord`] is the lexicographic order on components, which for
/// equal-dimension vectors is exactly the sequential execution order of loop
/// iterations — a dependence distance is legal for the original loop iff it
/// is lexicographically positive ([`IVec::is_lex_positive`]).
///
/// Arithmetic between vectors of different dimensions panics; mixing
/// dimensions is always a logic error in this domain.
///
/// # Examples
///
/// ```
/// use uov_isg::ivec;
///
/// let p = ivec![3, 4];
/// let v = ivec![1, 1];
/// assert_eq!(&p - &v, ivec![2, 3]);
/// assert_eq!(p.dot(&v), 7);
/// assert!(v.is_lex_positive());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct IVec(Vec<i64>);

/// Convenience constructor for [`IVec`].
///
/// ```
/// use uov_isg::{ivec, IVec};
/// assert_eq!(ivec![1, -2, 3], IVec::from(vec![1, -2, 3]));
/// ```
#[macro_export]
macro_rules! ivec {
    ($($x:expr),* $(,)?) => {
        $crate::IVec::from(vec![$($x as i64),*])
    };
}

impl IVec {
    /// The zero vector of dimension `dim`.
    ///
    /// ```
    /// use uov_isg::{ivec, IVec};
    /// assert_eq!(IVec::zero(3), ivec![0, 0, 0]);
    /// ```
    pub fn zero(dim: usize) -> Self {
        IVec(vec![0; dim])
    }

    /// The `axis`-th standard basis vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= dim`.
    ///
    /// ```
    /// use uov_isg::{ivec, IVec};
    /// assert_eq!(IVec::unit(3, 1), ivec![0, 1, 0]);
    /// ```
    pub fn unit(dim: usize, axis: usize) -> Self {
        assert!(axis < dim, "axis {axis} out of range for dimension {dim}");
        let mut v = vec![0; dim];
        v[axis] = 1;
        IVec(v)
    }

    /// Number of components.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![1, 2, 3].dim(), 3);
    /// ```
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether every component is zero.
    ///
    /// ```
    /// use uov_isg::{ivec, IVec};
    /// assert!(IVec::zero(2).is_zero());
    /// assert!(!ivec![0, 1].is_zero());
    /// ```
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Whether the first non-zero component is positive (and the vector is
    /// non-zero). This is the legality condition for a dependence distance in
    /// a sequentially executed loop nest.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert!(ivec![0, 1].is_lex_positive());
    /// assert!(ivec![1, -5].is_lex_positive());
    /// assert!(!ivec![0, 0].is_lex_positive());
    /// assert!(!ivec![-1, 9].is_lex_positive());
    /// ```
    pub fn is_lex_positive(&self) -> bool {
        for &c in &self.0 {
            if c != 0 {
                return c > 0;
            }
        }
        false
    }

    /// Dot product.
    ///
    /// Computed in `i128` and checked back into `i64`, so intermediate
    /// overflow cannot silently wrap.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or the result exceeds `i64`.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![1, 2].dot(&ivec![3, 4]), 11);
    /// ```
    pub fn dot(&self, other: &IVec) -> i64 {
        match self.try_dot(other) {
            Ok(d) => d,
            Err(IsgError::DimMismatch { expected, found }) => {
                panic!("dot product of mismatched dimensions {expected} and {found}")
            }
            Err(_) => panic!("dot product overflows i64"),
        }
    }

    /// [`IVec::dot`] returning [`IsgError`] on dimension mismatch or when the
    /// result exceeds `i64`.
    ///
    /// The arithmetic is [`try_dot_slices`]: exact in `i128`, failing only
    /// when the running sum leaves `i128` or the result does not fit `i64`.
    ///
    /// ```
    /// use uov_isg::{ivec, IsgError};
    /// assert_eq!(ivec![1, 2].try_dot(&ivec![3, 4]), Ok(11));
    /// assert!(matches!(
    ///     ivec![i64::MAX, i64::MAX].try_dot(&ivec![2, 2]),
    ///     Err(IsgError::Overflow(_))
    /// ));
    /// ```
    pub fn try_dot(&self, other: &IVec) -> Result<i64, IsgError> {
        if self.dim() != other.dim() {
            return Err(IsgError::DimMismatch {
                expected: self.dim(),
                found: other.dim(),
            });
        }
        try_dot_slices(&self.0, &other.0)
    }

    /// Dot product as `i128`, for callers that need the sign or an `i128`
    /// comparison rather than an `i64` (cone-membership tests, pruning
    /// bounds).
    ///
    /// Every product `aₖ·bₖ` is exact in `i128`, and so is the sum while
    /// `Σₖ |aₖ·bₖ| < 2¹²⁷`: for example whenever every component lies
    /// within ±2⁶⁰ and there are at most 127 of them. Beyond that a running
    /// sum can leave `i128` — `[i64::MIN, i64::MIN]` dotted with itself is
    /// 2¹²⁷ — and the call panics instead of returning a wrapped value.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ, or if a running sum overflows `i128`.
    pub fn dot_i128(&self, other: &IVec) -> i128 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot product of mismatched dimensions {} and {}",
            self.dim(),
            other.dim()
        );
        // Each product is at most 2¹²⁶ in magnitude, so only the sum can
        // leave i128, and it does once the terms' magnitudes reach 2¹²⁷
        // (two terms of i64::MIN² already do).
        let sum = self
            .0
            .iter()
            .zip(&other.0)
            .try_fold(0i128, |sum, (&a, &b)| {
                sum.checked_add(a as i128 * b as i128)
            });
        match sum {
            Some(sum) => sum,
            None => panic!("dot product overflows i128"),
        }
    }

    /// Squared Euclidean length, in `i128`.
    ///
    /// The branch-and-bound search compares candidate occupancy vectors by
    /// length (paper §3.2.1); comparing squared lengths avoids floating
    /// point entirely.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![3, 4].norm_sq(), 25);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the sum of squares overflows `i128`. Each square is at
    /// most 2¹²⁶, so two components at `i64::MIN` already reach 2¹²⁷. Use
    /// [`IVec::try_norm_sq`] on untrusted input.
    pub fn norm_sq(&self) -> i128 {
        match self.try_norm_sq() {
            Ok(sum) => sum,
            Err(_) => panic!("squared norm overflows i128"),
        }
    }

    /// [`IVec::norm_sq`] with explicit overflow checking on the `i128`
    /// accumulation, for adversarial high-dimension input.
    pub fn try_norm_sq(&self) -> Result<i128, IsgError> {
        let mut sum = 0i128;
        for &c in &self.0 {
            let sq = (c as i128)
                .checked_mul(c as i128)
                .ok_or(IsgError::Overflow("norm_sq term"))?;
            sum = sum
                .checked_add(sq)
                .ok_or(IsgError::Overflow("norm_sq sum"))?;
        }
        Ok(sum)
    }

    /// Maximum absolute component value, as `u64` so `i64::MIN` is exact.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![3, -7].max_abs(), 7);
    /// assert_eq!(ivec![i64::MIN].max_abs(), 1 << 63);
    /// ```
    pub fn max_abs(&self) -> u64 {
        self.0.iter().map(|&c| c.unsigned_abs()).max().unwrap_or(0)
    }

    /// Non-negative gcd of all components (`0` for the zero vector).
    ///
    /// An occupancy vector is *prime* (paper §4.1) iff its content is 1.
    ///
    /// # Panics
    ///
    /// Panics iff the content is `2⁶³` (every component `0` or `i64::MIN`,
    /// at least one `i64::MIN`). Use [`IVec::try_content`] on untrusted
    /// input.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![2, 0].content(), 2);
    /// assert_eq!(ivec![-3, 1].content(), 1);
    /// ```
    pub fn content(&self) -> i64 {
        gcd_slice(&self.0)
    }

    /// [`IVec::content`] returning [`IsgError::Overflow`] when the gcd
    /// (`2⁶³`) does not fit in `i64`.
    pub fn try_content(&self) -> Result<i64, IsgError> {
        checked_gcd_slice(&self.0).ok_or(IsgError::Overflow("vector content"))
    }

    /// The primitive vector in the same direction: `self / self.content()`.
    ///
    /// # Panics
    ///
    /// Panics on the zero vector.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![4, -2].primitive(), ivec![2, -1]);
    /// ```
    pub fn primitive(&self) -> IVec {
        match self.try_primitive() {
            Ok(p) => p,
            Err(IsgError::ZeroVector) => panic!("the zero vector has no direction"),
            Err(e) => panic!("primitive failed: {e}"),
        }
    }

    /// [`IVec::primitive`] returning [`IsgError::ZeroVector`] on the zero
    /// vector and [`IsgError::Overflow`] on the `2⁶³`-content corner.
    pub fn try_primitive(&self) -> Result<IVec, IsgError> {
        if self.is_zero() {
            return Err(IsgError::ZeroVector);
        }
        let g = self.try_content()?;
        // g divides every component exactly; component/g never overflows
        // because |component/g| ≤ |component|, except i64::MIN / -1 which
        // cannot occur (g > 0).
        Ok(IVec(self.0.iter().map(|&c| c / g).collect()))
    }

    /// Checked component-wise addition.
    pub fn checked_add(&self, other: &IVec) -> Result<IVec, IsgError> {
        if self.dim() != other.dim() {
            return Err(IsgError::DimMismatch {
                expected: self.dim(),
                found: other.dim(),
            });
        }
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| {
                a.checked_add(b)
                    .ok_or(IsgError::Overflow("vector addition"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(IVec)
    }

    /// Checked component-wise subtraction.
    pub fn checked_sub(&self, other: &IVec) -> Result<IVec, IsgError> {
        if self.dim() != other.dim() {
            return Err(IsgError::DimMismatch {
                expected: self.dim(),
                found: other.dim(),
            });
        }
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| {
                a.checked_sub(b)
                    .ok_or(IsgError::Overflow("vector subtraction"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(IVec)
    }

    /// Components as a slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.0
    }

    /// Iterate over components.
    pub fn iter(&self) -> std::slice::Iter<'_, i64> {
        self.0.iter()
    }

    /// Scale by an integer.
    ///
    /// ```
    /// use uov_isg::ivec;
    /// assert_eq!(ivec![1, -2].scaled(3), ivec![3, -6]);
    /// ```
    pub fn scaled(&self, k: i64) -> IVec {
        match self.checked_scaled(k) {
            Ok(v) => v,
            Err(e) => panic!("vector scaling failed: {e}"),
        }
    }

    /// [`IVec::scaled`] returning [`IsgError::Overflow`] when any component
    /// product exceeds `i64`.
    pub fn checked_scaled(&self, k: i64) -> Result<IVec, IsgError> {
        self.0
            .iter()
            .map(|&c| c.checked_mul(k).ok_or(IsgError::Overflow("vector scaling")))
            .collect::<Result<Vec<_>, _>>()
            .map(IVec)
    }

    /// Consume into the underlying `Vec<i64>`.
    pub fn into_inner(self) -> Vec<i64> {
        self.0
    }
}

/// [`IVec::try_dot`] on coordinate slices of equal length, for callers
/// that keep points flattened: the terms and their running sum are exact
/// in `i128`, and [`IsgError::Overflow`] reports a sum that leaves `i128`
/// or a result that does not fit `i64`.
///
/// ```
/// use uov_isg::vec::try_dot_slices;
/// assert_eq!(try_dot_slices(&[1, 2], &[3, 4]), Ok(11));
/// assert!(try_dot_slices(&[i64::MAX, i64::MAX], &[2, 2]).is_err());
/// // Four terms of 2¹²⁶ leave i128 (a wrapping sum would read 0).
/// assert!(try_dot_slices(&[i64::MIN; 4], &[i64::MIN; 4]).is_err());
/// ```
pub fn try_dot_slices(a: &[i64], b: &[i64]) -> Result<i64, IsgError> {
    debug_assert_eq!(a.len(), b.len(), "dot product of mismatched slices");
    let mut sum = 0i128;
    for (&x, &y) in a.iter().zip(b) {
        // An i64 × i64 product always fits i128; only the sum can leave it.
        sum = sum
            .checked_add(x as i128 * y as i128)
            .ok_or(IsgError::Overflow("dot product sum"))?;
    }
    i64::try_from(sum).map_err(|_| IsgError::Overflow("dot product"))
}

impl From<Vec<i64>> for IVec {
    fn from(v: Vec<i64>) -> Self {
        IVec(v)
    }
}

impl From<&[i64]> for IVec {
    fn from(v: &[i64]) -> Self {
        IVec(v.to_vec())
    }
}

impl<const N: usize> From<[i64; N]> for IVec {
    fn from(v: [i64; N]) -> Self {
        IVec(v.to_vec())
    }
}

impl FromIterator<i64> for IVec {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        IVec(iter.into_iter().collect())
    }
}

impl AsRef<[i64]> for IVec {
    fn as_ref(&self) -> &[i64] {
        &self.0
    }
}

/// Lets `HashMap<IVec, _>` be probed with a borrowed `&[i64]` — no
/// allocation on lookup-heavy paths. Consistent with `Eq`/`Hash`: the
/// derived `Hash` forwards to the inner `Vec`, which hashes exactly like
/// its slice.
impl std::borrow::Borrow<[i64]> for IVec {
    fn borrow(&self) -> &[i64] {
        &self.0
    }
}

impl Index<usize> for IVec {
    type Output = i64;
    fn index(&self, i: usize) -> &i64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for IVec {
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        &mut self.0[i]
    }
}

impl fmt::Debug for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $checked:ident) => {
        impl $trait for &IVec {
            type Output = IVec;
            fn $method(self, rhs: &IVec) -> IVec {
                assert_eq!(
                    self.dim(),
                    rhs.dim(),
                    concat!(stringify!($method), " of mismatched dimensions")
                );
                // Overflow panics even in release builds (where the plain
                // operator would wrap silently).
                IVec(
                    self.0
                        .iter()
                        .zip(&rhs.0)
                        .map(|(&a, &b)| match a.$checked(b) {
                            Some(c) => c,
                            None => {
                                panic!(concat!("vector ", stringify!($method), " overflows i64"))
                            }
                        })
                        .collect(),
                )
            }
        }
        impl $trait for IVec {
            type Output = IVec;
            fn $method(self, rhs: IVec) -> IVec {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&IVec> for IVec {
            type Output = IVec;
            fn $method(self, rhs: &IVec) -> IVec {
                (&self).$method(rhs)
            }
        }
        impl $trait<IVec> for &IVec {
            type Output = IVec;
            fn $method(self, rhs: IVec) -> IVec {
                self.$method(&rhs)
            }
        }
    };
}

binop!(Add, add, checked_add);
binop!(Sub, sub, checked_sub);

impl Neg for &IVec {
    type Output = IVec;
    fn neg(self) -> IVec {
        IVec(
            self.0
                .iter()
                .map(|&c| match c.checked_neg() {
                    Some(n) => n,
                    None => panic!("vector negation overflows i64 (component i64::MIN)"),
                })
                .collect(),
        )
    }
}

impl Neg for IVec {
    type Output = IVec;
    fn neg(self) -> IVec {
        -&self
    }
}

impl Mul<i64> for &IVec {
    type Output = IVec;
    fn mul(self, k: i64) -> IVec {
        self.scaled(k)
    }
}

impl Mul<i64> for IVec {
    type Output = IVec;
    fn mul(self, k: i64) -> IVec {
        self.scaled(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_basics() {
        let v = ivec![1, -2, 3];
        assert_eq!(v.dim(), 3);
        assert_eq!(v[1], -2);
        assert_eq!(v.as_slice(), &[1, -2, 3]);
        assert_eq!(format!("{v}"), "(1, -2, 3)");
        assert_eq!(format!("{v:?}"), "(1, -2, 3)");
    }

    #[test]
    fn zero_and_unit() {
        assert!(IVec::zero(4).is_zero());
        assert_eq!(IVec::unit(2, 0), ivec![1, 0]);
        assert_eq!(IVec::unit(2, 1), ivec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "axis")]
    fn unit_out_of_range_panics() {
        let _ = IVec::unit(2, 2);
    }

    #[test]
    fn arithmetic() {
        let a = ivec![1, 2];
        let b = ivec![3, -4];
        assert_eq!(&a + &b, ivec![4, -2]);
        assert_eq!(&a - &b, ivec![-2, 6]);
        assert_eq!(-&a, ivec![-1, -2]);
        assert_eq!(&a * 5, ivec![5, 10]);
        // Owned variants too.
        assert_eq!(a.clone() + b.clone(), ivec![4, -2]);
        assert_eq!(a.clone() - b.clone(), ivec![-2, 6]);
    }

    #[test]
    #[should_panic(expected = "mismatched dimensions")]
    fn add_dim_mismatch_panics() {
        let _ = ivec![1] + ivec![1, 2];
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(ivec![1, 2, 3].dot(&ivec![4, 5, 6]), 32);
        assert_eq!(ivec![3, 4].norm_sq(), 25);
        assert_eq!(IVec::zero(2).norm_sq(), 0);
    }

    #[test]
    fn lex_positive() {
        assert!(ivec![1].is_lex_positive());
        assert!(ivec![0, 0, 1].is_lex_positive());
        assert!(ivec![0, 1, -100].is_lex_positive());
        assert!(!ivec![0, 0, 0].is_lex_positive());
        assert!(!ivec![0, -1, 100].is_lex_positive());
    }

    #[test]
    fn lex_ordering_matches_sequential_execution() {
        // Execution order of a 2-deep nest is lexicographic on (i, j).
        let mut points = vec![ivec![1, 2], ivec![0, 9], ivec![1, 0], ivec![0, 0]];
        points.sort();
        assert_eq!(
            points,
            vec![ivec![0, 0], ivec![0, 9], ivec![1, 0], ivec![1, 2]]
        );
    }

    #[test]
    fn content_and_primitive() {
        assert_eq!(ivec![2, 0].content(), 2);
        assert_eq!(ivec![6, -9].content(), 3);
        assert_eq!(ivec![6, -9].primitive(), ivec![2, -3]);
        assert_eq!(ivec![0, 0, 5].primitive(), ivec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn primitive_of_zero_panics() {
        let _ = IVec::zero(2).primitive();
    }

    #[test]
    fn max_abs_works() {
        assert_eq!(ivec![-9, 3].max_abs(), 9);
        assert_eq!(IVec::zero(3).max_abs(), 0);
    }

    #[test]
    fn collect_from_iterator() {
        let v: IVec = (0..3).map(|x| x * 2).collect();
        assert_eq!(v, ivec![0, 2, 4]);
    }

    #[test]
    fn checked_arithmetic_reports_overflow() {
        let big = ivec![i64::MAX, 1];
        let one = ivec![1, 1];
        assert!(matches!(big.checked_add(&one), Err(IsgError::Overflow(_))));
        assert_eq!(big.checked_sub(&one), Ok(ivec![i64::MAX - 1, 0]));
        let low = ivec![i64::MIN, 0];
        assert!(matches!(low.checked_sub(&one), Err(IsgError::Overflow(_))));
        assert!(matches!(
            big.checked_add(&ivec![1]),
            Err(IsgError::DimMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(big.checked_scaled(3), Err(IsgError::Overflow(_))));
        assert_eq!(ivec![2, -3].checked_scaled(4), Ok(ivec![8, -12]));
    }

    #[test]
    fn try_dot_extremes() {
        assert_eq!(ivec![i64::MAX].try_dot(&ivec![1]), Ok(i64::MAX));
        assert!(matches!(
            ivec![i64::MAX, i64::MAX].try_dot(&ivec![1, 1]),
            Err(IsgError::Overflow(_))
        ));
        assert_eq!(
            ivec![i64::MAX, i64::MAX].dot_i128(&ivec![1, 1]),
            i64::MAX as i128 * 2
        );
        assert_eq!(
            ivec![i64::MIN].dot_i128(&ivec![i64::MIN]),
            (i64::MIN as i128).pow(2)
        );
        // 2¹²⁶ + (2⁶³ − 1)² is 2¹²⁷ − 2⁶⁴ + 1: inside i128, and exact.
        let edge = ivec![i64::MIN, i64::MAX];
        assert_eq!(
            edge.dot_i128(&edge),
            (1i128 << 126) + (i64::MAX as i128).pow(2)
        );
    }

    #[test]
    #[should_panic(expected = "dot product overflows i128")]
    fn dot_i128_panics_when_the_sum_leaves_i128() {
        let min = ivec![i64::MIN, i64::MIN];
        let _ = min.dot_i128(&min);
    }

    #[test]
    #[should_panic(expected = "squared norm overflows i128")]
    fn norm_sq_panics_when_the_sum_leaves_i128() {
        let _ = ivec![i64::MIN, i64::MIN].norm_sq();
    }

    #[test]
    fn try_norm_and_content_extremes() {
        assert_eq!(ivec![i64::MIN].try_norm_sq(), Ok((i64::MIN as i128).pow(2)));
        assert_eq!(ivec![i64::MIN].max_abs(), 1u64 << 63);
        assert!(matches!(
            ivec![i64::MIN, 0].try_content(),
            Err(IsgError::Overflow(_))
        ));
        assert_eq!(ivec![i64::MIN, 6].try_content(), Ok(2));
        assert!(matches!(
            IVec::zero(2).try_primitive(),
            Err(IsgError::ZeroVector)
        ));
        assert_eq!(
            ivec![i64::MIN, 0].try_primitive(),
            Err(IsgError::Overflow("vector content"))
        );
        assert_eq!(
            ivec![i64::MIN, 6].try_primitive(),
            Ok(ivec![i64::MIN / 2, 3])
        );
    }

    #[test]
    #[should_panic(expected = "overflows i64")]
    fn operator_add_panics_on_overflow() {
        let _ = ivec![i64::MAX] + ivec![1];
    }

    #[test]
    #[should_panic(expected = "negation overflows")]
    fn neg_panics_on_min() {
        let _ = -ivec![i64::MIN];
    }
}

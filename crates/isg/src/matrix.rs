//! Dense integer matrices and unimodular lattice transformations.
//!
//! The paper's §4 derives mapping vectors for two-dimensional loops by hand
//! (`(i,j) → (−j,i)`). The d-dimensional generalisation implemented in
//! `uov-storage` needs a *unimodular completion*: a change of basis `W` of
//! `Z^d` whose first coordinate runs along the occupancy vector, so the
//! remaining `d−1` coordinates enumerate the storage-equivalence classes.
//! [`IMat::lattice_reduction`] constructs exactly that `W`.

use std::fmt;
use std::ops::Mul;

use crate::error::IsgError;
use crate::num::checked_extended_gcd;
use crate::vec::IVec;

/// A dense `rows × cols` integer matrix, row-major.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, IMat};
/// let m = IMat::from_rows(&[ivec![1, 2], ivec![3, 4]]);
/// assert_eq!(m.mul_vec(&ivec![1, 1]), ivec![3, 7]);
/// assert_eq!(m.det(), -2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0; n * n];
        for i in 0..n {
            data[i * n + i] = 1;
        }
        IMat {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Build a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing dimensions.
    pub fn from_rows(rows: &[IVec]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].dim();
        assert!(
            rows.iter().all(|r| r.dim() == cols),
            "all rows must have the same dimension"
        );
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        IMat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn at(&self, r: usize, c: usize) -> i64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// The `r`-th row as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> IVec {
        assert!(r < self.rows, "row {r} out of range");
        IVec::from(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.cols()`.
    pub fn mul_vec(&self, v: &IVec) -> IVec {
        assert_eq!(v.dim(), self.cols, "vector dimension must match columns");
        (0..self.rows).map(|r| self.row(r).dot(v)).collect()
    }

    /// [`IMat::mul_vec`] returning [`IsgError`] on dimension mismatch or
    /// when a row product exceeds `i64`.
    pub fn try_mul_vec(&self, v: &IVec) -> Result<IVec, IsgError> {
        if v.dim() != self.cols {
            return Err(IsgError::DimMismatch {
                expected: self.cols,
                found: v.dim(),
            });
        }
        (0..self.rows).map(|r| self.row(r).try_dot(v)).collect()
    }

    /// Determinant by fraction-free (Bareiss) elimination, exact in `i128`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the result/intermediates exceed
    /// the integer range. Use [`IMat::try_det`] on untrusted input.
    pub fn det(&self) -> i64 {
        match self.try_det() {
            Ok(d) => d,
            Err(e) => panic!("determinant failed: {e}"),
        }
    }

    /// [`IMat::det`] with every Bareiss intermediate overflow-checked in
    /// `i128`, returning [`IsgError::Overflow`] instead of wrapping or
    /// panicking on adversarial entries.
    ///
    /// # Panics
    ///
    /// Still panics if the matrix is not square — that is a logic error at
    /// the call site, not an input property.
    pub fn try_det(&self) -> Result<i64, IsgError> {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        let mut a: Vec<i128> = self.data.iter().map(|&x| x as i128).collect();
        let mut sign = 1i128;
        let mut prev = 1i128;
        let err = IsgError::Overflow("determinant intermediate");
        for k in 0..n {
            // Pivot: find a non-zero entry in column k at or below row k.
            if a[k * n + k] == 0 {
                let Some(swap) = (k + 1..n).find(|&r| a[r * n + k] != 0) else {
                    return Ok(0);
                };
                for c in 0..n {
                    a.swap(k * n + c, swap * n + c);
                }
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = a[i * n + j]
                        .checked_mul(a[k * n + k])
                        .and_then(|x| {
                            a[i * n + k]
                                .checked_mul(a[k * n + j])
                                .and_then(|y| x.checked_sub(y))
                        })
                        .ok_or(err.clone())?;
                    a[i * n + j] = num / prev;
                }
                a[i * n + k] = 0;
            }
            prev = a[k * n + k];
        }
        i64::try_from(sign * a[(n - 1) * n + (n - 1)])
            .map_err(|_| IsgError::Overflow("determinant"))
    }

    /// Whether the matrix is square with determinant `±1` — i.e. an
    /// automorphism of the lattice `Z^n`.
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && matches!(self.try_det(), Ok(1) | Ok(-1))
    }

    /// Compute a unimodular matrix `W` such that `W·v = (g, 0, …, 0)` where
    /// `g = v.content()`.
    ///
    /// Rows `1..d` of `W` are linear forms vanishing on `v`: they project an
    /// iteration point onto its storage-equivalence class for the occupancy
    /// vector `v` (two points `q` and `q' = q + k·v` get identical projected
    /// coordinates). Row `0` measures lattice position *along* `v`, which is
    /// what the `modterm` of a non-prime occupancy vector inspects
    /// (paper §4.2).
    ///
    /// For a primitive 2-D vector `(i, j)` the second row of `W` is `±(−j, i)`
    /// — exactly the paper's 2-D mapping vector.
    ///
    /// # Panics
    ///
    /// Panics if `v` is the zero vector, or on integer overflow for
    /// adversarial coordinates. Use [`IMat::try_lattice_reduction`] on
    /// untrusted input.
    ///
    /// # Examples
    ///
    /// ```
    /// use uov_isg::{ivec, IMat};
    /// let w = IMat::lattice_reduction(&ivec![2, 0]);
    /// assert!(w.is_unimodular());
    /// assert_eq!(w.mul_vec(&ivec![2, 0]), ivec![2, 0]); // content 2
    /// ```
    pub fn lattice_reduction(v: &IVec) -> IMat {
        match Self::try_lattice_reduction(v) {
            Ok(w) => w,
            Err(IsgError::ZeroVector) => panic!("cannot reduce the zero vector"),
            Err(e) => panic!("lattice reduction failed: {e}"),
        }
    }

    /// [`IMat::lattice_reduction`] returning [`IsgError::ZeroVector`] for
    /// the zero vector and [`IsgError::Overflow`] when a row operation's
    /// coefficients exceed `i64`. The allocating wrapper of
    /// [`lattice_reduction_into`].
    pub fn try_lattice_reduction(v: &IVec) -> Result<IMat, IsgError> {
        let d = v.dim();
        let mut data = Vec::with_capacity(d * d);
        lattice_reduction_into(v.as_slice(), &mut data)?;
        Ok(IMat {
            rows: d,
            cols: d,
            data,
        })
    }
}

/// The unimodular `W` of [`IMat::lattice_reduction`], written row-major
/// into a caller-owned buffer: `w` is resized to `d·d`, so a caller that
/// reduces many vectors of one dimension allocates once. Returns the
/// content `g` of `v`, the first coordinate of `W·v = (g, 0, …, 0)`.
///
/// # Errors
///
/// [`IsgError::ZeroVector`] for the zero vector, and
/// [`IsgError::Overflow`] for a content of `2⁶³` or a row operation that
/// leaves `i64`.
///
/// # Examples
///
/// ```
/// use uov_isg::matrix::lattice_reduction_into;
/// let mut w = Vec::new();
/// assert_eq!(lattice_reduction_into(&[4, 6], &mut w)?, 2);
/// // Row 1 is a form vanishing on (4, 6).
/// assert_eq!(w[2] * 4 + w[3] * 6, 0);
/// # Ok::<(), uov_isg::IsgError>(())
/// ```
pub fn lattice_reduction_into(v: &[i64], w: &mut Vec<i64>) -> Result<i64, IsgError> {
    if v.iter().all(|&c| c == 0) {
        return Err(IsgError::ZeroVector);
    }
    // A content of 2⁶³ (all components 0 or i64::MIN) cannot appear in
    // row 0 of the result; reject it before the elimination loop.
    if v.iter().all(|&c| c == 0 || c == i64::MIN) {
        return Err(IsgError::Overflow("vector content"));
    }
    let d = v.len();
    w.clear();
    w.resize(d * d, 0);
    for i in 0..d {
        w[i * d + i] = 1;
    }
    let overflow = || IsgError::Overflow("lattice reduction row operation");
    // `a` is the running first coordinate of W·v; coordinate i is still
    // v[i] until step i zeroes it.
    let mut a = v[0];
    for (i, &b) in v.iter().enumerate().skip(1) {
        if b == 0 {
            continue;
        }
        let (g, x, y) =
            checked_extended_gcd(a, b).ok_or(IsgError::Overflow("lattice reduction gcd"))?;
        // Row op with determinant +1:
        //   row0' =  x·row0 + y·rowi
        //   rowi' = -(b/g)·row0 + (a/g)·rowi
        // g > 0 here (a or b non-zero), so b/g and a/g cannot hit the
        // i64::MIN / -1 overflow; the scalings and sums can.
        let neg_b_over_g = (b / g)
            .checked_neg()
            .ok_or(IsgError::Overflow("lattice reduction coefficient"))?;
        let a_over_g = a / g;
        let (row0, rest) = w.split_at_mut(d);
        let rowi = &mut rest[(i - 1) * d..i * d];
        for (r0, ri) in row0.iter_mut().zip(rowi.iter_mut()) {
            let new0 = r0
                .checked_mul(x)
                .zip(ri.checked_mul(y))
                .and_then(|(p, q)| p.checked_add(q))
                .ok_or_else(overflow)?;
            let newi = r0
                .checked_mul(neg_b_over_g)
                .zip(ri.checked_mul(a_over_g))
                .and_then(|(p, q)| p.checked_add(q))
                .ok_or_else(overflow)?;
            (*r0, *ri) = (new0, newi);
        }
        a = g;
    }
    // Pairwise gcd steps leave a = ±content; normalise the sign so row 0
    // always measures position along +v.
    let content = a.abs();
    if a < 0 {
        for c in &mut w[..d] {
            *c = c
                .checked_neg()
                .ok_or(IsgError::Overflow("row normalisation"))?;
        }
    }
    // W·v is exactly (content, 0, …, 0), so wrapping i128 sums are exact.
    debug_assert!(
        w.chunks_exact(d).enumerate().all(|(r, row)| {
            let wv = (row.iter().zip(v))
                .fold(0i128, |s, (&x, &y)| s.wrapping_add(x as i128 * y as i128));
            wv == if r == 0 { i128::from(content) } else { 0 }
        }),
        "W·v must be (content, 0, …, 0)"
    );
    Ok(content)
}

impl Mul for &IMat {
    type Output = IMat;
    fn mul(self, rhs: &IMat) -> IMat {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must match");
        let mut data = vec![0i64; self.rows * rhs.cols];
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    data[r * rhs.cols + c] += a * rhs.at(k, c);
                }
            }
        }
        IMat {
            rows: self.rows,
            cols: rhs.cols,
            data,
        }
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivec;

    #[test]
    fn identity_works() {
        let id = IMat::identity(3);
        let v = ivec![1, -2, 3];
        assert_eq!(id.mul_vec(&v), v);
        assert_eq!(id.det(), 1);
        assert!(id.is_unimodular());
    }

    #[test]
    fn from_rows_and_access() {
        let m = IMat::from_rows(&[ivec![1, 2, 3], ivec![4, 5, 6]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.at(1, 2), 6);
        assert_eq!(m.row(0), ivec![1, 2, 3]);
    }

    #[test]
    fn matrix_product() {
        let a = IMat::from_rows(&[ivec![1, 2], ivec![3, 4]]);
        let b = IMat::from_rows(&[ivec![0, 1], ivec![1, 0]]);
        let ab = &a * &b;
        assert_eq!(ab.row(0), ivec![2, 1]);
        assert_eq!(ab.row(1), ivec![4, 3]);
    }

    #[test]
    fn det_2x2_and_3x3() {
        assert_eq!(IMat::from_rows(&[ivec![1, 2], ivec![3, 4]]).det(), -2);
        assert_eq!(
            IMat::from_rows(&[ivec![2, 0, 0], ivec![0, 3, 0], ivec![0, 0, 4]]).det(),
            24
        );
        assert_eq!(
            IMat::from_rows(&[ivec![1, 2, 3], ivec![4, 5, 6], ivec![7, 8, 9]]).det(),
            0
        );
        // A matrix needing a pivot swap.
        assert_eq!(IMat::from_rows(&[ivec![0, 1], ivec![1, 0]]).det(), -1);
    }

    #[test]
    fn lattice_reduction_2d_matches_paper_mapping_vector() {
        // For prime ov = (i, j), the paper chooses mv = (−j, i). Our row 1 is
        // a form vanishing on ov with primitive coefficients — same line.
        let ov = ivec![1, 1];
        let w = IMat::lattice_reduction(&ov);
        assert!(w.is_unimodular());
        assert_eq!(w.mul_vec(&ov), ivec![1, 0]);
        let mv = w.row(1);
        assert_eq!(mv.dot(&ov), 0);
        assert_eq!(mv.content(), 1);
    }

    #[test]
    fn lattice_reduction_non_prime() {
        let ov = ivec![3, 0];
        let w = IMat::lattice_reduction(&ov);
        assert!(w.is_unimodular());
        assert_eq!(w.mul_vec(&ov), ivec![3, 0]);
    }

    #[test]
    fn lattice_reduction_various_dims() {
        for v in [
            ivec![5],
            ivec![2, 3],
            ivec![-4, 6],
            ivec![1, -2, 3],
            ivec![6, 10, 15],
            ivec![0, 0, 7],
            ivec![2, 4, 6, 8],
            ivec![3, -1, 4, -1, 5],
        ] {
            let w = IMat::lattice_reduction(&v);
            assert!(w.is_unimodular(), "not unimodular for {v}");
            let wv = w.mul_vec(&v);
            assert_eq!(wv[0], v.content(), "content mismatch for {v}");
            assert!(
                wv.iter().skip(1).all(|&c| c == 0),
                "tail not annihilated for {v}: {wv}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn lattice_reduction_zero_panics() {
        let _ = IMat::lattice_reduction(&IVec::zero(2));
    }

    #[test]
    fn debug_is_nonempty() {
        let m = IMat::identity(2);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn try_det_reports_overflow() {
        let m = IMat::from_rows(&[ivec![i64::MAX, 1], ivec![1, i64::MAX]]);
        assert!(matches!(m.try_det(), Err(IsgError::Overflow(_))));
        assert_eq!(
            IMat::from_rows(&[ivec![1, 2], ivec![3, 4]]).try_det(),
            Ok(-2)
        );
    }

    #[test]
    fn try_lattice_reduction_extremes() {
        assert_eq!(
            IMat::try_lattice_reduction(&IVec::zero(3)),
            Err(IsgError::ZeroVector)
        );
        // Large but well-conditioned input succeeds.
        let v = ivec![i64::MAX, 0];
        let w = IMat::try_lattice_reduction(&v).unwrap();
        assert!(w.is_unimodular());
        assert_eq!(w.mul_vec(&v), ivec![i64::MAX, 0]);
        // i64::MIN components: the content (2^63) is unrepresentable.
        assert!(matches!(
            IMat::try_lattice_reduction(&ivec![i64::MIN, 0]),
            Err(IsgError::Overflow(_))
        ));
        // Mixed extreme coordinates still reduce (gcd is small).
        let v = ivec![i64::MIN, 3];
        if let Ok(w) = IMat::try_lattice_reduction(&v) {
            assert!(w.is_unimodular());
        }
    }

    #[test]
    fn try_mul_vec_checks() {
        let m = IMat::from_rows(&[ivec![i64::MAX, i64::MAX]]);
        assert!(matches!(
            m.try_mul_vec(&ivec![1, 1]),
            Err(IsgError::Overflow(_))
        ));
        assert!(matches!(
            m.try_mul_vec(&ivec![1]),
            Err(IsgError::DimMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert_eq!(m.try_mul_vec(&ivec![1, 0]), Ok(ivec![i64::MAX]));
    }
}

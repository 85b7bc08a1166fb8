//! Storage cost of an occupancy vector over a concrete iteration domain.
//!
//! An occupancy vector partitions the ISG into *storage-equivalence
//! classes*: two iterations share a cell iff they differ by an integer
//! multiple of the OV (paper §3.2). When the loop bounds are known at
//! compile time, the number of classes — hence the number of storage
//! locations — is the number of integer points in the projection of the
//! ISG perpendicular to the OV, times the `gcd` of the OV's components for
//! non-prime OVs (paper §4.2–§4.3).
//!
//! Figure 3 of the paper is the motivating case: on a skewed ISG a longer
//! OV can need *less* storage than the shortest one.

use uov_isg::matrix::lattice_reduction_into;
use uov_isg::vec::try_dot_slices;
use uov_isg::{IMat, IVec, IsgError, IterationDomain};

/// Number of storage-equivalence classes the occupancy vector `ov` induces
/// on `domain`, computed from the domain's extreme points.
///
/// Construction: reduce `ov` with [`IMat::lattice_reduction`]; rows `1..d`
/// of the resulting unimodular matrix are linear forms constant along `ov`,
/// so the classes are indexed by their values (a box in `Z^{d−1}`) together
/// with the position-along-`ov` residue modulo `g = ov.content()`.
///
/// For 2-D domains this is exactly the paper's count (`span × g`, Fig. 3 /
/// Fig. 6). For `d ≥ 3` the count uses the bounding box of the projected
/// extreme points, which is what the d-dimensional storage mapping in
/// `uov-storage` actually allocates (an upper bound on occupied classes for
/// skewed domains). The count is capped at the number of iterations — an OV
/// longer than the domain simply never reuses.
///
/// # Panics
///
/// Panics if `ov` is zero or `ov.dim() != domain.dim()`.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, RectDomain, Polygon2};
/// use uov_core::objective::storage_class_count;
///
/// // Figure 6: ov = (1,1) on the n × m grid needs n + m − 1 interior
/// // classes (the paper's n + m + 1 includes the loop's border inputs;
/// // see uov-storage's allocator).
/// let grid = RectDomain::grid(5, 7);
/// assert_eq!(storage_class_count(&grid, &ivec![1, 1]), 11);
///
/// // Figure 3: the longer ov (3,1) beats the shorter (3,0).
/// let isg = Polygon2::fig3_isg();
/// assert_eq!(storage_class_count(&isg, &ivec![3, 1]), 16);
/// assert_eq!(storage_class_count(&isg, &ivec![3, 0]), 27);
/// ```
pub fn storage_class_count(domain: &dyn IterationDomain, ov: &IVec) -> u64 {
    match try_storage_class_count(domain, ov) {
        Ok(n) => n,
        Err(IsgError::ZeroVector) => panic!("occupancy vector must be non-zero"),
        Err(IsgError::DimMismatch { .. }) => panic!("dimension mismatch"),
        Err(e) => panic!("storage class count failed: {e}"),
    }
}

/// [`storage_class_count`] returning [`IsgError`] on a zero vector,
/// dimension mismatch, or coordinate overflow during lattice reduction and
/// projection. The one-shot form of [`ClassCounter::try_count`].
pub fn try_storage_class_count(domain: &dyn IterationDomain, ov: &IVec) -> Result<u64, IsgError> {
    ClassCounter::new(domain).try_count(ov.as_slice(), &mut Vec::new())
}

/// The storage-class count of [`storage_class_count`] for many occupancy
/// vectors on one domain.
///
/// The domain's extreme points are read once, flattened, when the counter
/// is built; each [`ClassCounter::try_count`] then reduces the vector into
/// a caller-owned scratch buffer and projects the stored points, so a
/// search costs its children without heap allocation.
///
/// # Examples
///
/// ```
/// use uov_isg::Polygon2;
/// use uov_core::objective::ClassCounter;
///
/// let isg = Polygon2::fig3_isg();
/// let counter = ClassCounter::new(&isg);
/// let mut scratch = Vec::new();
/// assert_eq!(counter.try_count(&[3, 1], &mut scratch), Ok(16));
/// assert_eq!(counter.try_count(&[3, 0], &mut scratch), Ok(27));
/// ```
#[derive(Debug)]
pub struct ClassCounter<'a, D: ?Sized> {
    domain: &'a D,
    dim: usize,
    /// Extreme points, `dim` coordinates each; `Err` if one has another
    /// dimension, which every projection then reports.
    vertices: Result<Vec<i64>, IsgError>,
}

impl<'a, D: IterationDomain + ?Sized> ClassCounter<'a, D> {
    /// Read `domain`'s extreme points once.
    pub fn new(domain: &'a D) -> Self {
        let dim = domain.dim();
        let points = domain.extreme_points();
        let vertices = match points.iter().find(|p| p.dim() != dim) {
            Some(p) => Err(IsgError::DimMismatch {
                expected: dim,
                found: p.dim(),
            }),
            None => Ok(points.iter().flat_map(|p| p.iter().copied()).collect()),
        };
        ClassCounter {
            domain,
            dim,
            vertices,
        }
    }

    /// The domain the counter was built for.
    pub fn domain(&self) -> &'a D {
        self.domain
    }

    /// The extreme points, flattened: `dim` coordinates per point.
    ///
    /// # Errors
    ///
    /// [`IsgError::DimMismatch`] if an extreme point's dimension differs
    /// from the domain's.
    pub fn vertices(&self) -> Result<&[i64], IsgError> {
        self.vertices.as_deref().map_err(Clone::clone)
    }

    /// Number of storage-equivalence classes `ov` induces on the domain —
    /// the value of [`storage_class_count`] — with `scratch` holding the
    /// lattice reduction ([`lattice_reduction_into`]). Reuse one scratch
    /// buffer across calls: after the first call of a dimension, a count
    /// allocates nothing. The domain's `num_points`, the cap, is queried
    /// once per successful call.
    ///
    /// # Errors
    ///
    /// [`IsgError::ZeroVector`] for a zero `ov`, [`IsgError::DimMismatch`]
    /// when `ov` or an extreme point has another dimension,
    /// [`IsgError::Empty`] for a multi-dimensional domain without extreme
    /// points, and [`IsgError::Overflow`] when the reduction, a projection
    /// or a span leaves `i64`.
    pub fn try_count(&self, ov: &[i64], scratch: &mut Vec<i64>) -> Result<u64, IsgError> {
        let d = self.dim;
        if ov.iter().all(|&c| c == 0) {
            return Err(IsgError::ZeroVector);
        }
        if ov.len() != d {
            return Err(IsgError::DimMismatch {
                expected: d,
                found: ov.len(),
            });
        }
        let mut classes = lattice_reduction_into(ov, scratch)? as u64;
        if d > 1 {
            let vertices = self.vertices()?;
            if vertices.is_empty() {
                return Err(IsgError::Empty);
            }
            for form in scratch.chunks_exact(d).skip(1) {
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for p in vertices.chunks_exact(d) {
                    let v = try_dot_slices(form, p)?;
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                let span = hi
                    .checked_sub(lo)
                    .and_then(|s| s.checked_add(1))
                    .ok_or(IsgError::Overflow("storage class span"))?;
                classes = classes.saturating_mul(span as u64);
            }
        }
        Ok(classes.min(self.domain.num_points()))
    }
}

/// Exact number of *occupied* storage-equivalence classes: enumerates every
/// iteration and counts distinct classes.
///
/// Exponentially slower than [`storage_class_count`]; used by tests to
/// validate the extreme-point formula and by callers with heavily skewed
/// high-dimensional domains.
///
/// # Panics
///
/// Panics if `ov` is zero or `ov.dim() != domain.dim()`.
pub fn storage_class_count_exact(domain: &dyn IterationDomain, ov: &IVec) -> u64 {
    assert!(!ov.is_zero(), "occupancy vector must be non-zero");
    assert_eq!(ov.dim(), domain.dim(), "dimension mismatch");
    let g = ov.content();
    let w = IMat::lattice_reduction(ov);
    let mut classes = std::collections::HashSet::new();
    for p in domain.points() {
        let wp = w.mul_vec(&p);
        let mut key: Vec<i64> = wp.as_slice()[1..].to_vec();
        key.push(wp[0].rem_euclid(g));
        classes.insert(key);
    }
    classes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::{ivec, Polygon2, RectDomain};

    #[test]
    fn fig3_counts_match_paper() {
        let isg = Polygon2::fig3_isg();
        assert_eq!(storage_class_count(&isg, &ivec![3, 1]), 16);
        assert_eq!(storage_class_count(&isg, &ivec![3, 0]), 27);
    }

    #[test]
    fn fig3_counts_match_exact_enumeration() {
        let isg = Polygon2::fig3_isg();
        // Prime OVs: the span formula is exact on this domain.
        for ov in [ivec![3, 1], ivec![1, 1], ivec![2, 1]] {
            assert_eq!(
                storage_class_count(&isg, &ov),
                storage_class_count_exact(&isg, &ov),
                "mismatch for ov {ov}"
            );
        }
        // Non-prime OVs on a skewed domain: the formula is the allocation
        // size, an upper bound on the occupied classes (the paper's Figure 3
        // likewise reports the allocation, 27, for ov₂ = (3,0)).
        for ov in [ivec![3, 0], ivec![4, 2]] {
            assert!(
                storage_class_count(&isg, &ov) >= storage_class_count_exact(&isg, &ov),
                "allocation must cover occupied classes for ov {ov}"
            );
        }
    }

    #[test]
    fn grid_diagonal_matches_fig6_interior() {
        // Interior iterations only; the full paper figure adds borders.
        let grid = RectDomain::grid(4, 6);
        assert_eq!(storage_class_count(&grid, &ivec![1, 1]), 4 + 6 - 1);
        assert_eq!(storage_class_count_exact(&grid, &ivec![1, 1]), 4 + 6 - 1);
    }

    #[test]
    fn non_prime_ov_multiplies_by_content() {
        let grid = RectDomain::grid(8, 5);
        // ov = (2,0): classes = span of (0,1) × 2 = 5·2 = 10.
        assert_eq!(storage_class_count(&grid, &ivec![2, 0]), 10);
        assert_eq!(storage_class_count_exact(&grid, &ivec![2, 0]), 10);
        // ov = (1,0): 5 classes — one per column.
        assert_eq!(storage_class_count(&grid, &ivec![1, 0]), 5);
    }

    #[test]
    fn count_capped_by_domain_size() {
        let grid = RectDomain::grid(3, 3);
        // A huge OV can never reuse storage within the domain.
        assert!(storage_class_count(&grid, &ivec![100, 0]) <= 9);
    }

    #[test]
    fn one_dimensional_ring() {
        let dom = RectDomain::new(ivec![0], ivec![99]);
        // ov = (k) is a k-cell ring buffer.
        assert_eq!(storage_class_count(&dom, &ivec![3]), 3);
        assert_eq!(storage_class_count_exact(&dom, &ivec![3]), 3);
    }

    #[test]
    fn three_dimensional_box() {
        let dom = RectDomain::new(ivec![1, 1, 1], ivec![4, 5, 6]);
        // ov along axis 0: classes = extent(1) × extent(2).
        assert_eq!(storage_class_count(&dom, &ivec![1, 0, 0]), 30);
        assert_eq!(storage_class_count_exact(&dom, &ivec![1, 0, 0]), 30);
        // Diagonal ov in 3-D: formula is an upper bound of the exact count.
        let formula = storage_class_count(&dom, &ivec![1, 1, 1]);
        let exact = storage_class_count_exact(&dom, &ivec![1, 1, 1]);
        assert!(formula >= exact, "formula {formula} < exact {exact}");
    }
}

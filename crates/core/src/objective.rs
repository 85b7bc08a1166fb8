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
//!
//! [`ClassCounter`] is the one implementation of the count. It reduces the
//! OV to a unimodular basis whose rows `1..d` are the class forms, and
//! takes each form's range over the domain: from the ends of the domain's
//! bounding box when its extreme points include every corner of that box
//! (every rectangular domain), and otherwise by projecting each extreme
//! point. Both ways give the same count and fail on the same inputs.

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
/// a caller-owned scratch buffer and takes each class form's range over
/// the domain, so a search costs its children without heap allocation.
///
/// When the extreme points include every corner of their bounding box
/// (every [`RectDomain`](uov_isg::RectDomain), and a rectangular
/// [`Polygon2`](uov_isg::Polygon2)), a form's range over the points is its
/// range over the box, read from the box's ends in `O(d)` rather than by
/// projecting all `2^d` corners. The result, `Ok` or `Err`, is the same.
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
    /// Per-axis `(lo, hi)` of the extreme points' bounding box, present iff
    /// the domain has forms to range (`dim > 1`) and every corner of that
    /// box is an extreme point.
    corners: Option<Vec<(i64, i64)>>,
}

impl<'a, D: IterationDomain + ?Sized> ClassCounter<'a, D> {
    /// Read `domain`'s extreme points once.
    pub fn new(domain: &'a D) -> Self {
        let dim = domain.dim();
        let points = domain.extreme_points();
        let vertices: Result<Vec<i64>, _> = match points.iter().find(|p| p.dim() != dim) {
            Some(p) => Err(IsgError::DimMismatch {
                expected: dim,
                found: p.dim(),
            }),
            None => Ok(points.iter().flat_map(|p| p.iter().copied()).collect()),
        };
        let corners = match &vertices {
            Ok(v) if dim > 1 => corner_box(v, dim),
            _ => None,
        };
        ClassCounter {
            domain,
            dim,
            vertices,
            corners,
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
                let (lo, hi) = match self.corners.as_deref().and_then(|b| corner_range(form, b)) {
                    Some(range) => range,
                    None => vertex_range(form, vertices)?,
                };
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

/// The bounding box of `vertices` (`dim ≥ 1` coordinates each) as per-axis
/// `(lo, hi)`, if every corner of the box is among them. Corners differ
/// only on the axes where `lo < hi`, so a box with `e` such axes has `2^e`
/// distinct corners; duplicates and non-corner points do not matter.
fn corner_box(vertices: &[i64], dim: usize) -> Option<Vec<(i64, i64)>> {
    let mut bounds: Vec<(i64, i64)> = vertices.get(..dim)?.iter().map(|&c| (c, c)).collect();
    for p in vertices.chunks_exact(dim) {
        for (b, &c) in bounds.iter_mut().zip(p) {
            *b = (b.0.min(c), b.1.max(c));
        }
    }
    let wide = bounds.iter().filter(|(lo, hi)| lo < hi).count();
    let corners = 1usize.checked_shl(wide as u32)?;
    if corners > vertices.len() / dim {
        return None;
    }
    // Corner index: one bit per wide axis, set at that axis's `hi`.
    let mut seen = vec![false; corners];
    'points: for p in vertices.chunks_exact(dim) {
        let (mut corner, mut bit) = (0, 0);
        for (&c, &(lo, hi)) in p.iter().zip(&bounds) {
            if lo < hi {
                if c == hi {
                    corner |= 1 << bit;
                } else if c != lo {
                    continue 'points;
                }
                bit += 1;
            }
        }
        seen[corner] = true;
    }
    seen.iter().all(|&s| s).then_some(bounds)
}

/// The range of `form` over the box `bounds`: `Σₖ min(fₖ·loₖ, fₖ·hiₖ)` to
/// `Σₖ max(…)`, in checked `i128`. `None` when a partial sum leaves `i128`
/// or either end leaves `i64`. Otherwise these sums bound the partial sums
/// of every point in the box, so no projection of a point fails, and the
/// box's corners attain both ends: the result is what [`vertex_range`]
/// returns on extreme points that include every corner.
fn corner_range(form: &[i64], bounds: &[(i64, i64)]) -> Option<(i64, i64)> {
    let (mut lo, mut hi) = (0i128, 0i128);
    for (&f, &(l, h)) in form.iter().zip(bounds) {
        let (a, b) = (f as i128 * l as i128, f as i128 * h as i128);
        lo = lo.checked_add(a.min(b))?;
        hi = hi.checked_add(a.max(b))?;
    }
    Some((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?))
}

/// The range of `form` over the points of `vertices` (`form.len()`
/// coordinates each, at least one point), projecting each point.
fn vertex_range(form: &[i64], vertices: &[i64]) -> Result<(i64, i64), IsgError> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for p in vertices.chunks_exact(form.len()) {
        let v = try_dot_slices(form, p)?;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Ok((lo, hi))
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
    fn corner_spans_apply_to_boxes_only() {
        // An extent-1 axis collapses the corners in pairs.
        let slab = RectDomain::new(ivec![1, -3, 0], ivec![4, 5, 0]);
        let corners = Some(vec![(1, 4), (-3, 5), (0, 0)]);
        assert_eq!(ClassCounter::new(&slab).corners, corners);
        let rectangle = Polygon2::new(vec![(0, 0), (5, 0), (5, 3), (0, 3)]).unwrap();
        assert_eq!(
            ClassCounter::new(&rectangle).corners,
            Some(vec![(0, 5), (0, 3)])
        );
        // Three corners of four, and a skewed quadrilateral.
        let triangle = Polygon2::new(vec![(0, 0), (5, 0), (5, 3)]).unwrap();
        assert_eq!(ClassCounter::new(&triangle).corners, None);
        assert_eq!(ClassCounter::new(&Polygon2::fig3_isg()).corners, None);
        // A line has no class forms to range.
        let line = RectDomain::new(ivec![0], ivec![9]);
        assert_eq!(ClassCounter::new(&line).corners, None);
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

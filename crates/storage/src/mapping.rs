//! Storage mappings: from iteration points to one-dimensional memory.

use std::fmt;

use uov_isg::num::floor_mod;
use uov_isg::project::try_form_range;
use uov_isg::{IMat, IVec, IterationDomain, RectDomain};

use crate::error::MappingError;

/// A function mapping each iteration of a domain to a storage cell index in
/// `0 .. size()`.
///
/// Implementations must be total on their domain; mapping a point outside
/// the domain may panic or return an arbitrary in-range index.
pub trait StorageMap: fmt::Debug {
    /// The storage cell written by iteration `q`.
    fn map(&self, q: &IVec) -> usize;

    /// Number of storage cells the mapping may return (allocation size).
    fn size(&self) -> usize;

    /// Human-readable description for experiment output.
    fn describe(&self) -> String {
        format!("{self:?}")
    }
}

/// Full array expansion: every iteration gets its own cell, row-major over
/// the domain box — the "natural" storage of the paper's §5.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, RectDomain};
/// use uov_storage::{NaturalMap, StorageMap};
///
/// let map = NaturalMap::new(&RectDomain::grid(3, 4));
/// assert_eq!(map.size(), 12);
/// assert_eq!(map.map(&ivec![1, 1]), 0);
/// assert_eq!(map.map(&ivec![1, 2]), 1);
/// assert_eq!(map.map(&ivec![2, 1]), 4);
/// ```
#[derive(Debug, Clone)]
pub struct NaturalMap {
    lo: IVec,
    strides: Vec<i64>,
    size: usize,
}

impl NaturalMap {
    /// Row-major expansion over the rectangular domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain has more points than the address space holds.
    /// Use [`NaturalMap::try_new`] on untrusted input.
    pub fn new(domain: &RectDomain) -> Self {
        match Self::try_new(domain) {
            Ok(m) => m,
            Err(e) => panic!("natural mapping construction failed: {e}"),
        }
    }

    /// [`NaturalMap::new`] returning [`MappingError::AllocationTooLarge`]
    /// instead of panicking on oversized domains.
    pub fn try_new(domain: &RectDomain) -> Result<Self, MappingError> {
        let d = domain.dim();
        let mut strides = vec![1i64; d];
        for k in (0..d.saturating_sub(1)).rev() {
            strides[k] = strides[k + 1]
                .checked_mul(domain.extent(k + 1))
                .ok_or(MappingError::AllocationTooLarge)?;
        }
        // The address computation in `map` runs in i64, so the whole
        // allocation must fit there, not merely in usize.
        let size = (0..d)
            .try_fold(1i64, |acc, k| acc.checked_mul(domain.extent(k)))
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(MappingError::AllocationTooLarge)?;
        Ok(NaturalMap {
            lo: domain.lo().clone(),
            strides,
            size,
        })
    }
}

impl StorageMap for NaturalMap {
    fn map(&self, q: &IVec) -> usize {
        let mut idx = 0i64;
        for k in 0..q.dim() {
            idx += (q[k] - self.lo[k]) * self.strides[k];
        }
        match usize::try_from(idx) {
            Ok(a) => a,
            Err(_) => panic!("point {q} below domain lower corner"),
        }
    }

    fn size(&self) -> usize {
        self.size
    }

    fn describe(&self) -> String {
        format!("natural (array expansion, {} cells)", self.size)
    }
}

/// Storage layout for non-prime occupancy vectors (paper §4.2).
///
/// A non-prime OV (component gcd `g > 1`) passes through `g`
/// storage-equivalence classes; the mapping must keep them apart. The two
/// layouts differ only in where the `modterm` places them:
///
/// * [`Layout::Interleaved`] — cells of the `g` classes alternate:
///   `addr = class·g + residue`. The paper's Figure 5 layout; avoids
///   associativity conflicts, but references are not unit-stride.
/// * [`Layout::Blocked`] — each residue class owns a contiguous block:
///   `addr = class + residue·L`. Unit-stride within a sweep; the paper's
///   "two rows stored consecutively" variant.
///
/// For prime OVs (`g = 1`) the layouts coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Alternate cells of the residue classes (`addr = class·g + residue`).
    /// The paper's primary layout, hence the default.
    #[default]
    Interleaved,
    /// Give each residue class a contiguous block (`addr = class + residue·L`).
    Blocked,
}

/// An occupancy-vector storage mapping `SMov(q) = mv·q + shift + modterm`
/// (paper §4), for any dimension.
///
/// Construction reduces the OV with a unimodular `W` such that
/// `W·ov = (g, 0, …, 0)`: rows `1..d` of `W` are linear forms constant
/// along the OV (in 2-D, the paper's mapping vector `(−j, i)`), and the
/// position row `0` feeds the `modterm` residue for non-prime OVs. Shifts
/// are chosen from the domain's extreme points so addresses are exactly
/// `0 .. size`.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, RectDomain};
/// use uov_storage::{Layout, OvMap, StorageMap};
///
/// // Figure 5: the 5-point stencil's UOV (2,0) with interleaved storage.
/// let domain = RectDomain::new(ivec![0, 0], ivec![9, 7]);
/// let map = OvMap::new(&domain, ivec![2, 0], Layout::Interleaved);
/// assert_eq!(map.size(), 16); // two rows of L = 8
/// // Interleaved: (t, x) ↦ 2x + (t mod 2).
/// assert_eq!(map.map(&ivec![0, 0]), 0);
/// assert_eq!(map.map(&ivec![1, 0]), 1);
/// assert_eq!(map.map(&ivec![0, 1]), 2);
/// assert_eq!(map.map(&ivec![2, 0]), map.map(&ivec![0, 0])); // reuse along ov
/// ```
#[derive(Clone)]
pub struct OvMap {
    ov: IVec,
    g: i64,
    /// Rows 1..d of the reduction: the class-projection forms.
    class_forms: Vec<IVec>,
    /// Row 0: position along the OV (mod g = residue class).
    position_form: IVec,
    /// Per-form minimum over the domain (the paper's `shift`).
    shifts: Vec<i64>,
    /// Per-form span (number of integer values over the domain).
    spans: Vec<i64>,
    layout: Layout,
    size: usize,
}

impl OvMap {
    /// Build the OV mapping for `ov` over `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `ov` is zero, its dimension differs from the domain's, the
    /// allocation overflows the address space, or the coordinates overflow
    /// during lattice reduction. Use [`OvMap::try_new`] on untrusted input.
    pub fn new(domain: &dyn IterationDomain, ov: IVec, layout: Layout) -> Self {
        match Self::try_new(domain, ov, layout) {
            Ok(m) => m,
            Err(MappingError::ZeroVector) => {
                panic!("occupancy vector must be non-zero")
            }
            Err(MappingError::DimMismatch { .. }) => panic!("dimension mismatch"),
            Err(e) => panic!("OV mapping construction failed: {e}"),
        }
    }

    /// [`OvMap::new`] returning [`MappingError`] instead of panicking on a
    /// zero vector, dimension mismatch, coordinate overflow, or an
    /// allocation beyond the address space.
    pub fn try_new(
        domain: &dyn IterationDomain,
        ov: IVec,
        layout: Layout,
    ) -> Result<Self, MappingError> {
        if ov.is_zero() {
            return Err(MappingError::ZeroVector);
        }
        if ov.dim() != domain.dim() {
            return Err(MappingError::DimMismatch {
                domain: domain.dim(),
                vector: ov.dim(),
            });
        }
        let g = ov.try_content()?;
        let w = IMat::try_lattice_reduction(&ov)?;
        let d = ov.dim();
        let mut class_forms = Vec::with_capacity(d - 1);
        let mut shifts = Vec::with_capacity(d - 1);
        let mut spans = Vec::with_capacity(d - 1);
        for r in 1..d {
            let form = w.row(r);
            let (lo, hi) = try_form_range(domain, &form)?;
            let span = hi
                .checked_sub(lo)
                .and_then(|s| s.checked_add(1))
                .ok_or(MappingError::AllocationTooLarge)?;
            class_forms.push(form);
            shifts.push(lo);
            spans.push(span);
        }
        let classes = spans
            .iter()
            .try_fold(1i64, |acc, &s| acc.checked_mul(s))
            .ok_or(MappingError::AllocationTooLarge)?;
        let size = classes
            .checked_mul(g)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(MappingError::AllocationTooLarge)?;
        Ok(OvMap {
            ov,
            g,
            class_forms,
            position_form: w.row(0),
            shifts,
            spans,
            layout,
            size,
        })
    }

    /// The occupancy vector realised by this mapping.
    pub fn ov(&self) -> &IVec {
        &self.ov
    }

    /// The layout used for non-prime OVs.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The paper's *mapping vector* in 2-D (`(−j, i)` up to sign for a
    /// prime OV `(i, j)`); `None` for other dimensions.
    ///
    /// ```
    /// use uov_isg::{ivec, RectDomain};
    /// use uov_storage::{Layout, OvMap};
    ///
    /// let dom = RectDomain::grid(4, 4);
    /// let map = OvMap::new(&dom, ivec![1, 1], Layout::Interleaved);
    /// let mv = map.mapping_vector_2d().unwrap();
    /// assert_eq!(mv.dot(&ivec![1, 1]), 0); // perpendicular in the lattice sense
    /// ```
    pub fn mapping_vector_2d(&self) -> Option<IVec> {
        if self.ov.dim() == 2 {
            Some(self.class_forms[0].clone())
        } else {
            None
        }
    }

    /// The flattened storage-equivalence class index of `q` (row-major over
    /// the projected box), in `0 .. size/g`.
    fn class_index(&self, q: &IVec) -> i64 {
        let mut idx = 0i64;
        for (k, form) in self.class_forms.iter().enumerate() {
            let c = form.dot(q) - self.shifts[k];
            debug_assert!(
                (0..self.spans[k]).contains(&c),
                "point {q} projects outside the domain box"
            );
            idx = idx * self.spans[k] + c;
        }
        idx
    }

    /// The residue class of `q` along the OV — the paper's `modterm`
    /// input, `0` for prime OVs.
    pub fn residue(&self, q: &IVec) -> i64 {
        floor_mod(self.position_form.dot(q), self.g)
    }
}

impl StorageMap for OvMap {
    fn map(&self, q: &IVec) -> usize {
        let class = self.class_index(q);
        let residue = self.residue(q);
        let addr = match self.layout {
            Layout::Interleaved => class * self.g + residue,
            Layout::Blocked => class + residue * (self.size as i64 / self.g),
        };
        addr as usize
    }

    fn size(&self) -> usize {
        self.size
    }

    fn describe(&self) -> String {
        format!(
            "ov-mapped (ov = {}, {:?}, {} cells)",
            self.ov, self.layout, self.size
        )
    }
}

impl fmt::Debug for OvMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OvMap{{ov: {}, g: {}, layout: {:?}, size: {}}}",
            self.ov, self.g, self.layout, self.size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;

    #[test]
    fn natural_map_is_bijective_row_major() {
        let dom = RectDomain::new(ivec![0, -1], ivec![2, 1]);
        let map = NaturalMap::new(&dom);
        use uov_isg::IterationDomain as _;
        let mut seen = vec![false; map.size()];
        for p in dom.points() {
            let a = map.map(&p);
            assert!(!seen[a], "address {a} reused by {p}");
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn natural_map_3d() {
        let dom = RectDomain::new(ivec![0, 0, 0], ivec![1, 2, 3]);
        let map = NaturalMap::new(&dom);
        assert_eq!(map.size(), 24);
        assert_eq!(map.map(&ivec![0, 0, 0]), 0);
        assert_eq!(map.map(&ivec![0, 0, 1]), 1);
        assert_eq!(map.map(&ivec![0, 1, 0]), 4);
        assert_eq!(map.map(&ivec![1, 0, 0]), 12);
    }

    #[test]
    fn fig1b_mapping_matches_paper() {
        // SMov(q) = (−1,1)·q + n on the bordered grid, n+m+1 cells.
        let (n, m) = (5i64, 3i64);
        let dom = RectDomain::new(ivec![0, 0], ivec![n, m]);
        let map = OvMap::new(&dom, ivec![1, 1], Layout::Interleaved);
        assert_eq!(map.size() as i64, n + m + 1);
        use uov_isg::IterationDomain as _;
        for q in dom.points() {
            let a = map.map(&q) as i64;
            assert!(
                (0..n + m + 1).contains(&a),
                "address {a} out of range at {q}"
            );
            // Reuse exactly along the OV.
            let r = &q + &ivec![1, 1];
            if dom.contains(&r) {
                assert_eq!(map.map(&r), map.map(&q));
            }
            let s = &q + &ivec![1, 0];
            if dom.contains(&s) {
                assert_ne!(map.map(&s), map.map(&q));
            }
        }
    }

    #[test]
    fn ovmap_addresses_cover_range_exactly() {
        use uov_isg::IterationDomain as _;
        let dom = RectDomain::new(ivec![0, 0], ivec![7, 5]);
        // Prime OVs and axis-aligned non-prime OVs populate every cell of
        // the allocation (requirement 3 of §4.1: consecutive storage).
        for (ov, layout) in [
            (ivec![1, 1], Layout::Interleaved),
            (ivec![2, 0], Layout::Interleaved),
            (ivec![2, 0], Layout::Blocked),
            (ivec![1, -1], Layout::Interleaved),
            (ivec![3, 1], Layout::Interleaved),
        ] {
            let map = OvMap::new(&dom, ov.clone(), layout);
            let mut seen = vec![false; map.size()];
            for p in dom.points() {
                let a = map.map(&p);
                assert!(a < map.size(), "address out of bounds for ov {ov}");
                seen[a] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "unused cells for ov {ov} {layout:?}: {seen:?}"
            );
        }
        // Skewed non-prime OVs leave a few corner cells unused (a corner
        // class holds a single point, so only one of its g residues occurs);
        // the used count still equals the exact occupied-class count.
        for (ov, layout) in [
            (ivec![2, 2], Layout::Blocked),
            (ivec![2, 2], Layout::Interleaved),
        ] {
            let map = OvMap::new(&dom, ov.clone(), layout);
            let mut seen = vec![false; map.size()];
            for p in dom.points() {
                let a = map.map(&p);
                assert!(a < map.size(), "address out of bounds for ov {ov}");
                seen[a] = true;
            }
            let used = seen.iter().filter(|&&s| s).count() as u64;
            assert_eq!(
                used,
                uov_core::objective::storage_class_count_exact(&dom, &ov),
                "occupied cells must match exact class count for {ov}"
            );
        }
    }

    #[test]
    fn reuse_is_exactly_multiples_of_ov() {
        use uov_isg::IterationDomain as _;
        let dom = RectDomain::new(ivec![0, 0], ivec![6, 6]);
        for layout in [Layout::Interleaved, Layout::Blocked] {
            let ov = ivec![2, 1];
            let map = OvMap::new(&dom, ov.clone(), layout);
            let pts: Vec<_> = dom.points().collect();
            for a in &pts {
                for b in &pts {
                    let same = map.map(a) == map.map(b);
                    let diff = a - b;
                    let along = !diff.is_zero() && diff.content() != 0 && {
                        // diff = k·ov for integer k?
                        let k_num = diff[0];
                        let k_den = ov[0];
                        k_den != 0 && k_num % k_den == 0 && &ov * (k_num / k_den) == diff
                    } || diff.is_zero();
                    assert_eq!(same, along, "a={a} b={b} layout={layout:?}");
                }
            }
        }
    }

    #[test]
    fn fig5_interleaved_and_blocked() {
        // UOV (2,0) for the 5-point stencil; t rows of length L = 8.
        let dom = RectDomain::new(ivec![0, 0], ivec![9, 7]);
        let inter = OvMap::new(&dom, ivec![2, 0], Layout::Interleaved);
        let block = OvMap::new(&dom, ivec![2, 0], Layout::Blocked);
        assert_eq!(inter.size(), 16);
        assert_eq!(block.size(), 16);
        // Interleaved: SMov(q) = (0,2)·q + (q0 mod 2).
        assert_eq!(inter.map(&ivec![4, 3]), 6);
        assert_eq!(inter.map(&ivec![5, 3]), 7);
        // Blocked: SMov(q) = (0,1)·q + (q0 mod 2)·L.
        assert_eq!(block.map(&ivec![4, 3]), 3);
        assert_eq!(block.map(&ivec![5, 3]), 3 + 8);
    }

    #[test]
    fn residue_distinguishes_classes_of_non_prime_ov() {
        let dom = RectDomain::new(ivec![0, 0], ivec![5, 5]);
        let map = OvMap::new(&dom, ivec![3, 0], Layout::Interleaved);
        assert_eq!(map.residue(&ivec![0, 2]), 0);
        assert_eq!(map.residue(&ivec![1, 2]), 1);
        assert_eq!(map.residue(&ivec![2, 2]), 2);
        assert_eq!(map.residue(&ivec![3, 2]), 0);
    }

    #[test]
    fn three_dimensional_ovmap() {
        use uov_isg::IterationDomain as _;
        let dom = RectDomain::new(ivec![0, 0, 0], ivec![3, 3, 3]);
        let ov = ivec![1, 1, 1];
        let map = OvMap::new(&dom, ov.clone(), Layout::Interleaved);
        for p in dom.points() {
            let q = &p + &ov;
            if dom.contains(&q) {
                assert_eq!(map.map(&p), map.map(&q));
            }
            let r = &p + &ivec![1, 0, 0];
            if dom.contains(&r) {
                assert_ne!(map.map(&p), map.map(&r));
            }
            assert!(map.map(&p) < map.size());
        }
    }

    /// The paper's known-bounds counts: Figure 6 (§4.3) projects the
    /// bordered `(n+1)×(m+1)` ISG's extreme points to `n + m + 1` cells for
    /// `ov = (1,1)`, and on Figure 3's polygon (3,1) needs 16 and (3,0) 27.
    #[test]
    fn fig6_and_fig3_storage_class_counts() {
        use uov_core::objective::storage_class_count;
        let (n, m) = (7, 4);
        let isg = RectDomain::new(ivec![0, 0], ivec![n, m]);
        assert_eq!(storage_class_count(&isg, &ivec![1, 1]), (n + m + 1) as u64);
        let fig3 = uov_isg::Polygon2::fig3_isg();
        assert_eq!(storage_class_count(&fig3, &ivec![3, 1]), 16);
        assert_eq!(storage_class_count(&fig3, &ivec![3, 0]), 27);
    }

    #[test]
    fn size_is_the_storage_class_count() {
        let rect = RectDomain::new(ivec![0, 0], ivec![9, 6]);
        for ov in [
            ivec![1, 1],
            ivec![2, 0],
            ivec![3, 1],
            ivec![1, -2],
            ivec![2, 2],
        ] {
            let map = OvMap::new(&rect, ov.clone(), Layout::Interleaved);
            let count = uov_core::objective::storage_class_count(&rect, &ov);
            assert_eq!(map.size() as u64, count, "size mismatch for {ov}");
        }
    }

    #[test]
    fn mapping_vector_2d_is_perpendicular() {
        let dom = RectDomain::grid(5, 5);
        for ov in [ivec![1, 1], ivec![2, 1], ivec![1, -2], ivec![4, 2]] {
            let map = OvMap::new(&dom, ov.clone(), Layout::Interleaved);
            let mv = map.mapping_vector_2d().expect("2-D");
            assert_eq!(mv.dot(&ov), 0, "mv not perpendicular for {ov}");
            assert_eq!(mv.content(), 1, "mv must be primitive for {ov}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_ov_rejected() {
        let dom = RectDomain::grid(3, 3);
        let _ = OvMap::new(&dom, IVec::zero(2), Layout::Interleaved);
    }

    #[test]
    fn try_new_reports_errors_instead_of_panicking() {
        let dom = RectDomain::grid(3, 3);
        assert_eq!(
            OvMap::try_new(&dom, IVec::zero(2), Layout::Interleaved).unwrap_err(),
            MappingError::ZeroVector
        );
        assert_eq!(
            OvMap::try_new(&dom, ivec![1, 1, 1], Layout::Interleaved).unwrap_err(),
            MappingError::DimMismatch {
                domain: 2,
                vector: 3
            }
        );
        // Adversarial coordinates: the lattice reduction overflows.
        assert!(matches!(
            OvMap::try_new(&dom, ivec![i64::MIN, 0], Layout::Interleaved),
            Err(MappingError::Isg(_))
        ));
        // A domain whose projected span cannot be allocated.
        let huge = RectDomain::new(ivec![0, 0], ivec![i64::MAX - 1, i64::MAX - 1]);
        assert!(matches!(
            OvMap::try_new(&huge, ivec![1, 1], Layout::Interleaved),
            Err(MappingError::AllocationTooLarge)
        ));
        // The happy path agrees with the panicking constructor.
        let a = OvMap::try_new(&dom, ivec![1, 1], Layout::Interleaved).unwrap();
        let b = OvMap::new(&dom, ivec![1, 1], Layout::Interleaved);
        assert_eq!(a.size(), b.size());
    }

    #[test]
    fn natural_try_new_rejects_oversized_domain() {
        let huge = RectDomain::new(ivec![0, 0], ivec![i64::MAX - 1, i64::MAX - 1]);
        assert_eq!(
            NaturalMap::try_new(&huge).unwrap_err(),
            MappingError::AllocationTooLarge
        );
        let ok = NaturalMap::try_new(&RectDomain::grid(3, 4)).unwrap();
        assert_eq!(ok.size(), 12);
    }
}

#[cfg(test)]
mod domain_shape_tests {
    //! OvMap over non-rectangular domains: the paper's footnote-6 ISGs.
    use super::*;
    use uov_isg::{ivec, Polygon2};

    #[test]
    fn ovmap_on_fig3_polygon() {
        let isg = Polygon2::fig3_isg();
        let map = OvMap::new(&isg, ivec![3, 1], Layout::Interleaved);
        assert_eq!(map.size(), 16, "Figure 3's count for ov (3,1)");
        let mut seen = vec![false; map.size()];
        for p in isg.points() {
            let a = map.map(&p);
            assert!(a < map.size());
            seen[a] = true;
            let q = &p + &ivec![3, 1];
            if isg.contains(&q) {
                assert_eq!(map.map(&p), map.map(&q));
            }
        }
        assert!(seen.iter().all(|&s| s), "every Figure-3 cell is used");
    }

    #[test]
    fn ovmap_on_fig3_polygon_nonprime() {
        let isg = Polygon2::fig3_isg();
        let map = OvMap::new(&isg, ivec![3, 0], Layout::Blocked);
        assert_eq!(map.size(), 27, "Figure 3's count for ov (3,0)");
        for p in isg.points() {
            assert!(map.map(&p) < map.size());
        }
    }

    #[test]
    fn ovmap_on_triangle() {
        let tri = Polygon2::new(vec![(0, 0), (9, 0), (9, 9)]).unwrap();
        let map = OvMap::new(&tri, ivec![1, 1], Layout::Interleaved);
        // Anti-diagonal classes of the triangle: span of (−1,1) over the
        // hull {(0,0),(9,0),(9,9)} = 0 − (−9) + 1 = 10.
        assert_eq!(map.size(), 10);
        for p in tri.points() {
            assert!(map.map(&p) < map.size());
        }
    }
}

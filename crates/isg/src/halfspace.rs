//! Halfspace-represented 2-D iteration domains.
//!
//! The paper defines the ISG as "the set of integer solutions to a system
//! of linear inequalities defined by the loop bounds, `A·i ≤ b`"
//! (§4.3, footnote 6). [`HalfspaceDomain2`] is that definition, verbatim,
//! for two-dimensional nests — covering triangular and trapezoidal loop
//! nests (`for i { for j in 0..=i }`) that the rectangular and
//! vertex-listed domains cannot express directly.
//!
//! The bounding box comes from the rational vertices (constraint-pair
//! intersections), located with exact `i128` arithmetic; extreme points
//! are the exact convex hull of the domain's *lattice* points (monotone
//! chain), so projection spans — and therefore storage counts — are exact
//! even when the rational vertices are non-integral.

use std::fmt;

use crate::domain::IterationDomain;
use crate::vec::IVec;

/// A bounded 2-D domain `{ p | aᵢ·p ≤ bᵢ for every constraint i }`.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, HalfspaceDomain2, IterationDomain};
///
/// // The triangular nest: 0 ≤ j ≤ i ≤ 4.
/// let tri = HalfspaceDomain2::new(vec![
///     (ivec![-1, 0], 0),  // -i ≤ 0
///     (ivec![1, 0], 4),   //  i ≤ 4
///     (ivec![0, -1], 0),  // -j ≤ 0
///     (ivec![-1, 1], 0),  //  j − i ≤ 0
/// ])?;
/// assert_eq!(tri.num_points(), 15); // 1+2+3+4+5
/// assert!(tri.contains(&ivec![3, 2]));
/// assert!(!tri.contains(&ivec![2, 3]));
/// # Ok::<(), uov_isg::halfspace::HalfspaceError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HalfspaceDomain2 {
    constraints: Vec<(IVec, i64)>,
    bbox: BBox,
}

/// `((min x, min y), (max x, max y))` of a domain's integer points.
type BBox = ((i64, i64), (i64, i64));

/// Error constructing a [`HalfspaceDomain2`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HalfspaceError {
    /// Fewer than three constraints can never bound a 2-D region.
    TooFewConstraints(usize),
    /// A constraint vector is not 2-dimensional, is zero, or has a
    /// component beyond ±[`MAX_NORMAL`].
    BadConstraint(IVec),
    /// The region is unbounded (no finite bounding box exists).
    Unbounded,
    /// The region contains no integer point.
    Empty,
    /// The region reaches coordinates outside `i64`.
    Overflow,
}

impl fmt::Display for HalfspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HalfspaceError::TooFewConstraints(n) => {
                write!(f, "{n} constraints cannot bound a 2-D region (need ≥ 3)")
            }
            HalfspaceError::BadConstraint(v) => write!(f, "bad constraint normal {v}"),
            HalfspaceError::Unbounded => write!(f, "constraint system is unbounded"),
            HalfspaceError::Empty => write!(f, "constraint system has no integer solution"),
            HalfspaceError::Overflow => write!(f, "region reaches outside i64"),
        }
    }
}

impl std::error::Error for HalfspaceError {}

/// The largest magnitude of a constraint-normal component. Loop bounds
/// have small coefficients, and this bound keeps the exact vertex
/// arithmetic within `i128`.
pub const MAX_NORMAL: u64 = 1 << 30;

impl HalfspaceDomain2 {
    /// Build the domain of integer points satisfying every `a·p ≤ b`.
    ///
    /// # Errors
    ///
    /// Returns [`HalfspaceError`] for malformed, unbounded, or empty
    /// systems, and for regions that reach coordinates outside `i64`.
    pub fn new(constraints: Vec<(IVec, i64)>) -> Result<Self, HalfspaceError> {
        if constraints.len() < 3 {
            return Err(HalfspaceError::TooFewConstraints(constraints.len()));
        }
        for (a, _) in &constraints {
            if a.dim() != 2 || a.is_zero() || a.iter().any(|c| c.unsigned_abs() > MAX_NORMAL) {
                return Err(HalfspaceError::BadConstraint(a.clone()));
            }
        }
        if !Self::is_bounded(&constraints) {
            return Err(HalfspaceError::Unbounded);
        }
        let Some(bbox) = Self::bounding_box_of(&constraints)? else {
            return Err(HalfspaceError::Empty); // bounded but infeasible
        };
        let dom = HalfspaceDomain2 { constraints, bbox };
        if dom.points().next().is_none() {
            return Err(HalfspaceError::Empty);
        }
        Ok(dom)
    }

    /// Bounded ⟺ the recession cone `{d | a·d ≤ 0 ∀ constraints}` is {0}.
    /// In 2-D any non-trivial recession cone has a boundary ray
    /// perpendicular to some constraint normal, so checking the rotated
    /// normals is complete.
    fn is_bounded(constraints: &[(IVec, i64)]) -> bool {
        for (a, _) in constraints {
            for d in [IVec::from([-a[1], a[0]]), IVec::from([a[1], -a[0]])] {
                if constraints.iter().all(|(n, _)| n.dot(&d) <= 0) {
                    return false;
                }
            }
        }
        true
    }

    /// The triangular nest `lo ≤ j ≤ i ≤ hi` (a classic lower-triangular
    /// loop).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn lower_triangle(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty triangle");
        match HalfspaceDomain2::new(vec![
            (IVec::from([-1, 0]), -lo),
            (IVec::from([1, 0]), hi),
            (IVec::from([0, -1]), -lo),
            (IVec::from([-1, 1]), 0),
        ]) {
            Ok(d) => d,
            Err(e) => panic!("triangle construction failed: {e}"),
        }
    }

    /// Exact rational vertex enumeration → the bounding box of the
    /// region's integer points, `None` when it has none.
    fn bounding_box_of(constraints: &[(IVec, i64)]) -> Result<Option<BBox>, HalfspaceError> {
        // Intersect every pair of constraint lines at (nx, ny) / det, keep
        // the feasible intersections, and bound the integer points by the
        // ceilings of their least coordinates and the floors of their
        // greatest. With normals within MAX_NORMAL = 2³⁰: |det| ≤ 2⁶¹,
        // |nx|, |ny| ≤ 2⁹⁴, and each side of the feasibility test ≤ 2¹²⁵.
        let wide = |(a, b): &(IVec, i64)| [i128::from(a[0]), i128::from(a[1]), i128::from(*b)];
        let (mut lo, mut hi) = ([i128::MAX; 2], [i128::MIN; 2]);
        for (i, c1) in constraints.iter().enumerate() {
            for c2 in &constraints[i + 1..] {
                let ([a10, a11, b1], [a20, a21, b2]) = (wide(c1), wide(c2));
                let det = a10 * a21 - a11 * a20;
                if det == 0 {
                    continue;
                }
                // A positive det keeps the inequalities' sense.
                let sign = det.signum();
                let n = [(b1 * a21 - b2 * a11) * sign, (a10 * b2 - a20 * b1) * sign];
                let det = det.abs();
                let feasible = constraints.iter().all(|c| {
                    let [a0, a1, b] = wide(c);
                    a0 * n[0] + a1 * n[1] <= b * det
                });
                if !feasible {
                    continue;
                }
                for k in 0..2 {
                    let floor = n[k].div_euclid(det);
                    lo[k] = lo[k].min(floor + i128::from(n[k].rem_euclid(det) != 0));
                    hi[k] = hi[k].max(floor);
                }
            }
        }
        if lo[0] > hi[0] || lo[1] > hi[1] {
            return Ok(None);
        }
        let fit = |v: i128| i64::try_from(v).map_err(|_| HalfspaceError::Overflow);
        Ok(Some((
            (fit(lo[0])?, fit(lo[1])?),
            (fit(hi[0])?, fit(hi[1])?),
        )))
    }
}

impl IterationDomain for HalfspaceDomain2 {
    fn dim(&self) -> usize {
        2
    }

    fn contains(&self, p: &IVec) -> bool {
        assert_eq!(p.dim(), 2, "HalfspaceDomain2 holds 2-D points");
        // Normals within MAX_NORMAL: |a·p| < 2⁹⁵, exact in i128.
        self.constraints
            .iter()
            .all(|(a, b)| a.dot_i128(p) <= i128::from(*b))
    }

    fn extreme_points(&self) -> Vec<IVec> {
        // Integer corner points of the bounding box clipped to the
        // feasible lattice: for projection spans we return, per bounding
        // box corner direction, the lattice point extremising x±y — a
        // superset-of-hull heuristic is not sound for arbitrary forms, so
        // enumerate the true lattice hull instead (domains used here are
        // small enough).
        let pts: Vec<IVec> = self.points().collect();
        convex_hull_2d(&pts)
    }

    fn points(&self) -> Box<dyn Iterator<Item = IVec> + '_> {
        let ((min_x, min_y), (max_x, max_y)) = self.bbox;
        Box::new(
            (min_x..=max_x)
                .flat_map(move |x| (min_y..=max_y).map(move |y| IVec::from([x, y])))
                .filter(|p| self.contains(p)),
        )
    }
}

/// Andrew's monotone-chain convex hull over integer points (CCW, no
/// collinear interior points).
fn convex_hull_2d(points: &[IVec]) -> Vec<IVec> {
    let mut pts: Vec<(i64, i64)> = points.iter().map(|p| (p[0], p[1])).collect();
    pts.sort();
    pts.dedup();
    if pts.len() <= 2 {
        return pts.into_iter().map(|(x, y)| IVec::from([x, y])).collect();
    }
    let cross = |o: (i64, i64), a: (i64, i64), b: (i64, i64)| -> i128 {
        (a.0 - o.0) as i128 * (b.1 - o.1) as i128 - (a.1 - o.1) as i128 * (b.0 - o.0) as i128
    };
    let mut lower: Vec<(i64, i64)> = Vec::new();
    for &p in &pts {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<(i64, i64)> = Vec::new();
    for &p in pts.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0 {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower
        .into_iter()
        .chain(upper)
        .map(|(x, y)| IVec::from([x, y]))
        .collect()
}

impl fmt::Debug for HalfspaceDomain2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HalfspaceDomain2{{")?;
        for (i, (a, b)) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}·p ≤ {b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivec;

    #[test]
    fn triangle_counts() {
        let tri = HalfspaceDomain2::lower_triangle(0, 4);
        assert_eq!(tri.num_points(), 15);
        assert_eq!(tri.dim(), 2);
    }

    #[test]
    fn box_as_halfspaces_matches_rect() {
        use crate::domain::RectDomain;
        let hs = HalfspaceDomain2::new(vec![
            (ivec![-1, 0], -1),
            (ivec![1, 0], 3),
            (ivec![0, -1], -1),
            (ivec![0, 1], 5),
        ])
        .unwrap();
        let rect = RectDomain::grid(3, 5);
        assert_eq!(hs.num_points(), rect.num_points());
        for p in rect.points() {
            assert!(hs.contains(&p));
        }
    }

    #[test]
    fn extreme_points_of_triangle() {
        let tri = HalfspaceDomain2::lower_triangle(0, 4);
        let ext = tri.extreme_points();
        assert!(ext.contains(&ivec![0, 0]));
        assert!(ext.contains(&ivec![4, 0]));
        assert!(ext.contains(&ivec![4, 4]));
        assert!(
            ext.len() <= 4,
            "triangle hull has ≤ 4 lattice vertices: {ext:?}"
        );
    }

    #[test]
    fn unbounded_rejected() {
        assert_eq!(
            HalfspaceDomain2::new(vec![(ivec![-1, 0], 0), (ivec![0, -1], 0), (ivec![0, 1], 5),])
                .unwrap_err(),
            HalfspaceError::Unbounded
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            HalfspaceDomain2::new(vec![
                (ivec![1, 0], -1),
                (ivec![-1, 0], 0),
                (ivec![0, 1], 5),
                (ivec![0, -1], 0),
            ])
            .unwrap_err(),
            HalfspaceError::Empty
        );
    }

    #[test]
    fn validation_of_constraints() {
        assert!(matches!(
            HalfspaceDomain2::new(vec![(ivec![1, 0], 1)]).unwrap_err(),
            HalfspaceError::TooFewConstraints(1)
        ));
        assert!(matches!(
            HalfspaceDomain2::new(vec![(ivec![0, 0], 1), (ivec![1, 0], 1), (ivec![0, 1], 1),])
                .unwrap_err(),
            HalfspaceError::BadConstraint(_)
        ));
    }

    /// Coefficients and bounds near the ends of `i64` give exact answers
    /// or a typed error, never an overflow panic (debug build) or a
    /// wrapped region (release build).
    #[test]
    fn extreme_coefficients_are_exact_or_typed_errors() {
        // 0 ≤ x ≤ x_max, 0 ≤ y, and a·p ≤ b.
        let quadrant = |x_max: i64, a: IVec, b: i64| {
            let axes = [(ivec![-1, 0], 0), (ivec![1, 0], x_max), (ivec![0, -1], 0)];
            HalfspaceDomain2::new(axes.into_iter().chain([(a, b)]).collect())
        };
        // y ≤ 2⁶³·x: a normal beyond MAX_NORMAL.
        let err = quadrant(4, ivec![i64::MIN, 1], 0).unwrap_err();
        assert_eq!(err, HalfspaceError::BadConstraint(ivec![i64::MIN, 1]));
        // y ≤ 2³⁰·x on x ≤ 2⁴⁰: the vertex (2⁴⁰, 2⁷⁰) is outside i64.
        let err = quadrant(1 << 40, ivec![-(1 << 30), 1], 0).unwrap_err();
        assert_eq!(err, HalfspaceError::Overflow);
        // x + 3y ≤ i64::MAX/2 on x ≤ i64::MAX/2: every vertex fits.
        let half = i64::MAX / 2;
        let tri = quadrant(half, ivec![1, 3], half).unwrap();
        assert!(tri.contains(&ivec![half, 0]) && tri.contains(&ivec![0, half / 3]));
        assert!(!tri.contains(&ivec![0, half / 3 + 1]));
        assert!(!tri.contains(&ivec![i64::MAX, i64::MAX]));
        // The whole i64 box cut by x + y ≤ i64::MAX.
        let max = i64::MAX;
        let cut = [
            ivec![-1, 0],
            ivec![1, 0],
            ivec![0, -1],
            ivec![0, 1],
            ivec![1, 1],
        ];
        let all = HalfspaceDomain2::new(cut.into_iter().map(|a| (a, max)).collect()).unwrap();
        assert!(all.contains(&ivec![max, 0]) && !all.contains(&ivec![max, max]));
        assert_eq!(all.points().next(), Some(ivec![-max, -max]));
    }

    #[test]
    fn projection_spans_on_triangle() {
        use crate::project::form_span;
        let tri = HalfspaceDomain2::lower_triangle(0, 6);
        // i − j spans 0..6 on the lower triangle.
        assert_eq!(form_span(&tri, &ivec![1, -1]), 7);
        // i + j spans 0..12.
        assert_eq!(form_span(&tri, &ivec![1, 1]), 13);
    }
}

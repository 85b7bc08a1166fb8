//! Projections of iteration domains onto linear forms.
//!
//! Storage counting with known loop bounds (paper §3.2, §4.3) reduces to:
//! apply the mapping vector to the domain's extreme points and count the
//! integer values spanned. [`try_form_range`] computes the range of an
//! arbitrary linear form; the span is `hi − lo + 1`.

use crate::domain::IterationDomain;
use crate::error::IsgError;
use crate::vec::IVec;

/// Minimum and maximum of the linear form `form · p` over the extreme
/// points of `domain`.
///
/// For a convex domain the extremes of a linear form are attained at
/// vertices, so this equals the min/max over the whole domain. The form
/// spans `hi − lo + 1` integer values; with a *primitive* `form` and the
/// convex lattice domains used in this workspace every one of them is
/// attained, so that is exactly the paper's "number of integer points in
/// the projection" (§4.3, Fig. 6).
///
/// # Errors
///
/// [`IsgError::DimMismatch`] when `form` and `domain` differ in
/// dimension, [`IsgError::Empty`] for an empty extreme-point set, and
/// [`IsgError::Overflow`] when a dot product leaves `i64`.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, project::try_form_range, RectDomain};
///
/// let d = RectDomain::grid(4, 6);
/// assert_eq!(try_form_range(&d, &ivec![-1, 1]), Ok((-3, 5)));
/// ```
pub fn try_form_range(domain: &dyn IterationDomain, form: &IVec) -> Result<(i64, i64), IsgError> {
    if form.dim() != domain.dim() {
        return Err(IsgError::DimMismatch {
            expected: domain.dim(),
            found: form.dim(),
        });
    }
    let mut range: Option<(i64, i64)> = None;
    for p in domain.extreme_points() {
        let v = form.try_dot(&p)?;
        range = Some(match range {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        });
    }
    range.ok_or(IsgError::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::RectDomain;
    use crate::ivec;
    use crate::poly::Polygon2;

    /// The number of integer values `form` spans over `domain`.
    fn span(domain: &dyn IterationDomain, form: &IVec) -> i64 {
        let (lo, hi) = try_form_range(domain, form).unwrap();
        hi - lo + 1
    }

    #[test]
    fn axis_spans_match_extents() {
        let d = RectDomain::grid(4, 6);
        assert_eq!(span(&d, &ivec![1, 0]), 4);
        assert_eq!(span(&d, &ivec![0, 1]), 6);
    }

    #[test]
    fn diagonal_form_on_grid() {
        // The Fig. 6 computation: mv = (−1, 1) on the n × m grid spans
        // n + m − 1 values over (1,1)..=(n,m) — with the paper's border
        // points included the storage mapping allocates n + m + 1 (checked
        // in uov-storage).
        let d = RectDomain::grid(5, 7);
        assert_eq!(span(&d, &ivec![-1, 1]), 5 + 7 - 1);
    }

    #[test]
    fn fig3_projection_spans() {
        let isg = Polygon2::fig3_isg();
        // Perpendicular to ov1 = (3,1): mv = (−1, 3).
        assert_eq!(span(&isg, &ivec![-1, 3]), 16);
        // Perpendicular to ov2 = (3,0) (primitive direction (1,0)): mv = (0,1).
        assert_eq!(span(&isg, &ivec![0, 1]), 9);
    }

    #[test]
    fn try_form_range_reports_errors() {
        let d = RectDomain::grid(4, 6);
        assert!(matches!(
            try_form_range(&d, &ivec![1]),
            Err(IsgError::DimMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert_eq!(try_form_range(&d, &ivec![-1, 1]), Ok((-3, 5)));
        assert!(matches!(
            try_form_range(&d, &ivec![i64::MAX, i64::MAX]),
            Err(IsgError::Overflow(_))
        ));
    }

    #[test]
    fn form_span_exactness_vs_enumeration() {
        // For primitive forms on small convex domains the span equals the
        // exact count of attained values.
        let isg = Polygon2::fig3_isg();
        for form in [
            ivec![1, 0],
            ivec![0, 1],
            ivec![-1, 3],
            ivec![1, 1],
            ivec![-1, 1],
        ] {
            let mut values: Vec<i64> = isg.points().map(|p| form.dot(&p)).collect();
            values.sort();
            values.dedup();
            assert_eq!(
                values.len() as i64,
                span(&isg, &form),
                "span mismatch for form {form}"
            );
        }
    }
}

//! Hierarchical (multi-level) tiling — the paper's §7 future work:
//! "we plan to study which characteristics of the entire memory hierarchy
//! should be taken into account when doing multiple-level optimizations
//! like hierarchical tiling", citing Carter, Ferrante & Hummel.
//!
//! A two-level tiling partitions the ISG into *outer* tiles (sized for a
//! far memory level), each of which is swept as a sequence of *inner*
//! tiles (sized for a near level). Because a UOV-based storage mapping is
//! schedule-independent, it remains legal under any level count — which
//! is exactly why the paper proposes the combination.

use uov_isg::num::floor_div;
use uov_isg::{IMat, IVec, IterationDomain as _, RectDomain};

/// A two-level rectangular tiling of a (possibly unimodularly
/// transformed) iteration space.
///
/// Orders points by `(outer tile, inner tile, point)` — each outer tile
/// runs all of its inner tiles before the next outer tile starts.
///
/// # Examples
///
/// ```
/// use uov_isg::RectDomain;
/// use uov_schedule::hierarchical::HierarchicalTiling;
///
/// let dom = RectDomain::grid(8, 8);
/// let order = HierarchicalTiling::new(vec![4, 4], vec![2, 2]).order(&dom);
/// assert_eq!(order.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalTiling {
    outer: Vec<i64>,
    inner: Vec<i64>,
    transform: Option<IMat>,
}

impl HierarchicalTiling {
    /// Two-level tiling of the original space.
    ///
    /// # Panics
    ///
    /// Panics if shapes are empty, lengths differ, an extent is < 1, or
    /// an inner tile is larger than its outer tile on some axis.
    pub fn new(outer: Vec<i64>, inner: Vec<i64>) -> Self {
        assert!(!outer.is_empty(), "tile shapes must be non-empty");
        assert_eq!(outer.len(), inner.len(), "level shapes must agree");
        for (o, i) in outer.iter().zip(&inner) {
            assert!(*i >= 1 && *o >= 1, "tile extents must be >= 1");
            assert!(i <= o, "inner tiles must nest inside outer tiles");
        }
        HierarchicalTiling {
            outer,
            inner,
            transform: None,
        }
    }

    /// Apply the tiling in the image of a unimodular transformation (e.g.
    /// the skew that legalises stencil tiling).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not unimodular.
    pub fn transformed(mut self, m: IMat) -> Self {
        assert!(m.is_unimodular(), "schedule transform must be unimodular");
        self.transform = Some(m);
        self
    }

    /// Materialise the execution order over `domain`.
    ///
    /// # Panics
    ///
    /// Panics if tile dimensionality does not match the domain.
    pub fn order(&self, domain: &RectDomain) -> Vec<IVec> {
        let d = domain.dim();
        assert_eq!(self.outer.len(), d, "tile dimensionality mismatch");
        let lo_img = match &self.transform {
            Some(m) => m.mul_vec(domain.lo()),
            None => domain.lo().clone(),
        };
        let mut points: Vec<IVec> = domain.points().collect();
        points.sort_by_cached_key(|p| {
            let img = match &self.transform {
                Some(m) => m.mul_vec(p),
                None => p.clone(),
            };
            let rel: Vec<i64> = (0..d).map(|k| img[k] - lo_img[k]).collect();
            let outer_idx: Vec<i64> = (0..d).map(|k| floor_div(rel[k], self.outer[k])).collect();
            let inner_idx: Vec<i64> = (0..d).map(|k| floor_div(rel[k], self.inner[k])).collect();
            (outer_idx, inner_idx, img)
        });
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::order_respects_dependences;
    use uov_isg::{ivec, Stencil};

    fn assert_is_permutation(order: &[IVec], domain: &RectDomain) {
        assert_eq!(order.len() as u64, domain.num_points());
        let mut sorted = order.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), order.len());
    }

    #[test]
    fn order_is_a_permutation() {
        let dom = RectDomain::grid(9, 7);
        let order = HierarchicalTiling::new(vec![4, 4], vec![2, 2]).order(&dom);
        assert_is_permutation(&order, &dom);
    }

    #[test]
    fn inner_tiles_complete_within_outer_tiles() {
        let dom = RectDomain::grid(8, 8);
        let order = HierarchicalTiling::new(vec![4, 4], vec![2, 2]).order(&dom);
        // First outer tile = points (1..=4, 1..=4); they must form a
        // contiguous prefix of length 16.
        let prefix: Vec<_> = order[..16].to_vec();
        assert!(prefix.iter().all(|p| p[0] <= 4 && p[1] <= 4));
        // First inner tile (2×2) is the very first 4 points.
        assert!(order[..4].iter().all(|p| p[0] <= 2 && p[1] <= 2));
    }

    #[test]
    fn legal_for_non_negative_stencils() {
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap();
        let dom = RectDomain::grid(10, 10);
        let order = HierarchicalTiling::new(vec![5, 5], vec![2, 3]).order(&dom);
        assert!(order_respects_dependences(&order, &dom, &s));
    }

    #[test]
    fn skewed_hierarchical_tiling_legal_for_stencil5() {
        let s = Stencil::new(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ])
        .unwrap();
        let dom = RectDomain::new(ivec![1, 0], ivec![8, 15]);
        let skew = crate::legality::skew_matrix_2d(2);
        let order = HierarchicalTiling::new(vec![4, 8], vec![2, 4])
            .transformed(skew)
            .order(&dom);
        assert!(order_respects_dependences(&order, &dom, &s));
    }

    #[test]
    #[should_panic(expected = "nest inside")]
    fn inner_larger_than_outer_rejected() {
        let _ = HierarchicalTiling::new(vec![2, 2], vec![4, 4]);
    }
}

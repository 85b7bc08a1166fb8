//! Concrete execution orders for perfect loop nests.

use std::fmt;

use uov_isg::num::floor_div;
use uov_isg::{IMat, IVec, IterationDomain, RectDomain};

/// A schedule: a rule assigning every iteration of a rectangular domain a
/// position in a total execution order.
///
/// Schedules are *descriptions*; [`LoopSchedule::order`] materialises the
/// order for a concrete domain. Tiling follows the paper's §2: the ISG is
/// partitioned into atomic rectangular tiles executed one after another,
/// points within a tile running lexicographically.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, RectDomain};
/// use uov_schedule::LoopSchedule;
///
/// let dom = RectDomain::grid(2, 2);
/// let order = LoopSchedule::Interchange(vec![1, 0]).order(&dom);
/// // Column-major: j varies slowest after interchange.
/// assert_eq!(order[0], ivec![1, 1]);
/// assert_eq!(order[1], ivec![2, 1]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub enum LoopSchedule {
    /// The original program order: lexicographic on iteration coordinates.
    Lexicographic,
    /// Loop interchange: `perm[k]` is the original axis iterated at nesting
    /// depth `k`. `Interchange(vec![1, 0])` swaps a 2-deep nest.
    Interchange(Vec<usize>),
    /// Execute in lexicographic order of the transformed coordinates
    /// `M · p` for a unimodular `M` (skewing, reversal-free interchange,
    /// …). The classic skew `j' = j + f·i` is
    /// `M = [[1, 0], [f, 1]]`.
    Transformed(IMat),
    /// Rectangular tiling of the original space: tiles of shape `tile`
    /// (one extent per axis, aligned to the domain's lower corner) executed
    /// in lexicographic tile order, points inside a tile in lexicographic
    /// order.
    Tiled {
        /// Tile extent per axis; every entry must be ≥ 1.
        tile: Vec<i64>,
    },
    /// Tiling applied in the image of a unimodular transformation — e.g.
    /// skewed tiling, the legal way to tile the paper's 5-point stencil.
    TransformedTiled {
        /// The unimodular transformation applied first.
        transform: IMat,
        /// Tile extent per (transformed) axis; every entry must be ≥ 1.
        tile: Vec<i64>,
    },
    /// Wavefront execution: points ordered by `weights · p`, ties broken
    /// lexicographically. `Wavefront((1,1))` is the anti-diagonal sweep.
    Wavefront(IVec),
}

impl LoopSchedule {
    /// Convenience constructor for [`LoopSchedule::Tiled`].
    pub fn tiled(tile: Vec<i64>) -> Self {
        LoopSchedule::Tiled { tile }
    }

    /// Convenience constructor: skewed tiling `j' = j + f·i` in 2-D.
    pub fn skewed_tiled_2d(f: i64, tile: Vec<i64>) -> Self {
        LoopSchedule::TransformedTiled {
            transform: IMat::from_rows(&[IVec::from([1, 0]), IVec::from([f, 1])]),
            tile,
        }
    }

    /// A short human-readable name for experiment output.
    pub fn name(&self) -> String {
        match self {
            LoopSchedule::Lexicographic => "lexicographic".to_string(),
            LoopSchedule::Interchange(p) => format!("interchange{p:?}"),
            LoopSchedule::Transformed(_) => "transformed".to_string(),
            LoopSchedule::Tiled { tile } => format!("tiled{tile:?}"),
            LoopSchedule::TransformedTiled { tile, .. } => format!("skew-tiled{tile:?}"),
            LoopSchedule::Wavefront(w) => format!("wavefront{w}"),
        }
    }

    /// Materialise the execution order over `domain`.
    ///
    /// The result contains every point of the domain exactly once. Each
    /// point's sort key is built once, not per comparison; every key holds
    /// the point or an injective image of it, so keys never tie.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's parameters do not match the domain
    /// dimension, a tile extent is < 1, an interchange permutation is
    /// invalid, or a transformation matrix is not unimodular.
    pub fn order(&self, domain: &RectDomain) -> Vec<IVec> {
        let d = domain.dim();
        let mut points: Vec<IVec> = domain.points().collect();
        match self {
            LoopSchedule::Lexicographic => points,
            LoopSchedule::Interchange(perm) => {
                assert_eq!(perm.len(), d, "permutation length must match dimension");
                let mut check: Vec<usize> = perm.clone();
                check.sort_unstable();
                assert!(
                    check.iter().copied().eq(0..d),
                    "interchange must be a permutation of 0..{d}"
                );
                points
                    .sort_by_cached_key(|p| perm.iter().map(|&axis| p[axis]).collect::<Vec<i64>>());
                points
            }
            LoopSchedule::Transformed(m) => {
                assert_eq!(m.cols(), d, "transform width must match dimension");
                assert!(m.is_unimodular(), "schedule transform must be unimodular");
                points.sort_by_cached_key(|p| m.mul_vec(p));
                points
            }
            LoopSchedule::Tiled { tile } => {
                validate_tile(tile, d);
                let lo = domain.lo().clone();
                points.sort_by_cached_key(|p| tile_key(p, &lo, tile));
                points
            }
            LoopSchedule::TransformedTiled { transform, tile } => {
                assert_eq!(transform.cols(), d, "transform width must match dimension");
                assert!(
                    transform.is_unimodular(),
                    "schedule transform must be unimodular"
                );
                validate_tile(tile, d);
                // Tile the image space; anchor tiles at the image of the
                // domain's lower corner so tiling is translation-stable.
                let lo_img = transform.mul_vec(domain.lo());
                points.sort_by_cached_key(|p| {
                    let img = transform.mul_vec(p);
                    tile_key(&img, &lo_img, tile)
                });
                points
            }
            LoopSchedule::Wavefront(weights) => {
                assert_eq!(weights.dim(), d, "wavefront weights must match dimension");
                points.sort_by_cached_key(|p| (weights.dot(p), p.clone()));
                points
            }
        }
    }
}

fn validate_tile(tile: &[i64], d: usize) {
    assert_eq!(tile.len(), d, "tile shape must match dimension");
    assert!(tile.iter().all(|&t| t >= 1), "tile extents must be >= 1");
}

/// Sort key placing `p` in its tile: (tile coordinates, within-tile
/// coordinates), lexicographic on both.
fn tile_key(p: &IVec, lo: &IVec, tile: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let tile_idx: Vec<i64> = (0..p.dim())
        .map(|k| floor_div(p[k] - lo[k], tile[k]))
        .collect();
    let within: Vec<i64> = (0..p.dim()).map(|k| p[k]).collect();
    (tile_idx, within)
}

impl fmt::Debug for LoopSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LoopSchedule::{}", self.name())
    }
}

impl fmt::Display for LoopSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;

    fn grid3() -> RectDomain {
        RectDomain::grid(3, 3)
    }

    fn assert_is_permutation(order: &[IVec], domain: &RectDomain) {
        assert_eq!(order.len() as u64, domain.num_points());
        let mut sorted = order.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), order.len(), "order repeats a point");
        for p in order {
            assert!(domain.contains(p));
        }
    }

    #[test]
    fn lexicographic_matches_domain_iteration() {
        let dom = grid3();
        let order = LoopSchedule::Lexicographic.order(&dom);
        assert_eq!(order, dom.points().collect::<Vec<_>>());
    }

    #[test]
    fn interchange_swaps_axes() {
        let dom = RectDomain::grid(2, 3);
        let order = LoopSchedule::Interchange(vec![1, 0]).order(&dom);
        assert_is_permutation(&order, &dom);
        // Column-major: (1,1), (2,1), (1,2), (2,2), (1,3), (2,3).
        assert_eq!(
            order,
            vec![
                ivec![1, 1],
                ivec![2, 1],
                ivec![1, 2],
                ivec![2, 2],
                ivec![1, 3],
                ivec![2, 3]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_permutation_panics() {
        let _ = LoopSchedule::Interchange(vec![0, 0]).order(&grid3());
    }

    #[test]
    fn skew_transform_orders_by_image() {
        // j' = j + i: order by (i, i + j) — same as lexicographic for this
        // skew, since i dominates. Skew on the first axis instead:
        // i' = i + j, ordered by (i + j, j).
        let m = IMat::from_rows(&[ivec![1, 1], ivec![0, 1]]);
        let dom = RectDomain::grid(2, 2);
        let order = LoopSchedule::Transformed(m).order(&dom);
        assert_is_permutation(&order, &dom);
        assert_eq!(order[0], ivec![1, 1]); // image (2, 1)
        assert_eq!(order[1], ivec![2, 1]); // image (3, 1)
        assert_eq!(order[2], ivec![1, 2]); // image (3, 2)
        assert_eq!(order[3], ivec![2, 2]); // image (4, 2)
    }

    #[test]
    #[should_panic(expected = "unimodular")]
    fn non_unimodular_transform_panics() {
        let m = IMat::from_rows(&[ivec![2, 0], ivec![0, 1]]);
        let _ = LoopSchedule::Transformed(m).order(&grid3());
    }

    #[test]
    fn tiled_runs_tile_by_tile() {
        let dom = RectDomain::grid(4, 4);
        let order = LoopSchedule::tiled(vec![2, 2]).order(&dom);
        assert_is_permutation(&order, &dom);
        // First tile: (1,1),(1,2),(2,1),(2,2).
        assert_eq!(
            &order[..4],
            &[ivec![1, 1], ivec![1, 2], ivec![2, 1], ivec![2, 2]]
        );
        // Second tile is to the right (j = 3..4), not below.
        assert_eq!(
            &order[4..8],
            &[ivec![1, 3], ivec![1, 4], ivec![2, 3], ivec![2, 4]]
        );
    }

    #[test]
    fn tiled_handles_ragged_edges() {
        let dom = RectDomain::grid(3, 5);
        let order = LoopSchedule::tiled(vec![2, 2]).order(&dom);
        assert_is_permutation(&order, &dom);
    }

    #[test]
    fn skewed_tiled_is_a_permutation() {
        let dom = RectDomain::grid(6, 8);
        let order = LoopSchedule::skewed_tiled_2d(2, vec![3, 4]).order(&dom);
        assert_is_permutation(&order, &dom);
    }

    #[test]
    fn wavefront_sweeps_antidiagonals() {
        let dom = RectDomain::grid(2, 2);
        let order = LoopSchedule::Wavefront(ivec![1, 1]).order(&dom);
        assert_eq!(
            order,
            vec![ivec![1, 1], ivec![1, 2], ivec![2, 1], ivec![2, 2]]
        );
    }

    #[test]
    fn names_are_distinct_and_nonempty() {
        let schedules = [
            LoopSchedule::Lexicographic,
            LoopSchedule::Interchange(vec![1, 0]),
            LoopSchedule::tiled(vec![2, 2]),
            LoopSchedule::skewed_tiled_2d(2, vec![2, 2]),
            LoopSchedule::Wavefront(ivec![1, 1]),
        ];
        let names: Vec<String> = schedules.iter().map(|s| s.name()).collect();
        for n in &names {
            assert!(!n.is_empty());
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}

#[cfg(test)]
mod transform_legality_tests {
    use super::*;
    use crate::legality::{respects_dependences, skew_matrix_2d};
    use uov_isg::{ivec, Stencil};

    #[test]
    fn skew_transform_legalises_order_for_negative_stencil() {
        // Pure skewing (no tiling) re-orders legally for any stencil the
        // skew factor covers.
        let s = Stencil::new(vec![ivec![1, -3], ivec![1, 0]]).unwrap();
        let dom = RectDomain::grid(5, 9);
        let schedule = LoopSchedule::Transformed(skew_matrix_2d(3));
        assert!(respects_dependences(&schedule, &dom, &s));
    }

    #[test]
    fn wavefront_with_negative_weights_can_be_illegal() {
        let s = Stencil::new(vec![ivec![1, 0]]).unwrap();
        let dom = RectDomain::grid(4, 4);
        // Weights (−1, 0) run the i loop backwards: illegal for (1,0).
        let schedule = LoopSchedule::Wavefront(ivec![-1, 0]);
        assert!(!respects_dependences(&schedule, &dom, &s));
    }

    #[test]
    fn display_matches_name() {
        let s = LoopSchedule::tiled(vec![3, 3]);
        assert_eq!(format!("{s}"), s.name());
    }
}

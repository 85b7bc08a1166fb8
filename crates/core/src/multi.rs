//! Common occupancy vectors across multiple stencils (paper §7, future
//! work: "we might want to select our occupancy vector in a way that
//! allows two loops to use the same OV-mapping for a given array").
//!
//! A vector universal for several stencils at once lets two loop nests —
//! or several statements feeding one array — share a single OV-mapped
//! buffer. Unlike the single-stencil case, a common UOV need not exist:
//! the UOV sets of `{(0,1)}` and `{(1,0)}` are disjoint rays. The search
//! is therefore bounded and returns `None` when the sets do not meet
//! within the exploration budget.

use uov_isg::{IVec, Stencil};

use crate::budget::{Budget, Degradation};
use crate::error::SearchError;
use crate::search::{Objective, ObjectiveCost};
use crate::DoneOracle;

/// Result of [`find_best_common_uov`].
#[derive(Debug, Clone)]
pub struct CommonUov {
    /// A vector universal for every input stencil.
    pub uov: IVec,
    /// Objective value (squared length, or storage-class count).
    pub cost: u128,
}

/// Find the best vector that is a UOV for *every* stencil in `stencils`,
/// searching the box `[-radius, radius]^d` exhaustively in cost order.
///
/// Returns `None` when the stencil list is empty, dimensions disagree, or
/// no common UOV exists within the box. A sensible radius is a small
/// multiple of the largest initial UOV, e.g.
/// `2 * stencils.iter().map(|s| s.sum().max_abs()).max()`.
///
/// # Examples
///
/// ```
/// use uov_core::multi::find_best_common_uov;
/// use uov_core::search::Objective;
/// use uov_isg::{ivec, Stencil};
///
/// // Two loops over the same array with different stencils.
/// let a = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
/// let b = Stencil::new(vec![ivec![1, -1], ivec![1, 1]])?;
/// let common = find_best_common_uov(&[a, b], Objective::ShortestVector, 6)
///     .expect("these UOV sets intersect");
/// // (2,2) is universal for the first stencil but not the second
/// // ((2,2)−(1,−1) = (1,3) needs a negative coefficient); the shortest
/// // vector in the intersection is (3,1).
/// assert_eq!(common.uov, ivec![3, 1]);
/// # Ok::<(), uov_isg::StencilError>(())
/// ```
pub fn find_best_common_uov(
    stencils: &[Stencil],
    objective: Objective<'_>,
    radius: i64,
) -> Option<CommonUov> {
    find_best_common_uov_threaded(stencils, objective, radius, 1)
}

/// [`find_best_common_uov`] with the per-candidate universality checks
/// fanned out over `threads` workers (the oracles' memo caches are
/// concurrent, so workers share transitive-closure work).
///
/// The answer is the minimum of each candidate's `(cost, ‖w‖², w)` key —
/// a total order — so every thread count returns the identical result;
/// `threads = 1` runs exactly the sequential loop.
pub fn find_best_common_uov_threaded(
    stencils: &[Stencil],
    objective: Objective<'_>,
    radius: i64,
    threads: usize,
) -> Option<CommonUov> {
    let first = stencils.first()?;
    let dim = first.dim();
    if stencils.iter().any(|s| s.dim() != dim) || radius < 0 {
        return None;
    }
    let oracles: Vec<DoneOracle> = stencils.iter().map(DoneOracle::new).collect();

    // Candidates come from the first stencil's UOV set restricted to the
    // box; each is then checked against the remaining oracles through
    // their allocation-free slice entry points (one scratch buffer per
    // candidate serves every oracle and the cost).
    let candidates = oracles[0].uovs_within(radius);
    let unlimited = Budget::unlimited();
    let cost = ObjectiveCost::new(&objective);
    crate::par::fan_out(&candidates, threads, |w| {
        let mut buf = Vec::with_capacity(dim);
        oracles[1..]
            .iter()
            .all(
                |o| match o.in_dead_slice_budgeted(w.as_slice(), &mut buf, &unlimited) {
                    Ok(b) => b,
                    Err(e) => panic!("oracle query failed: {e}"),
                },
            )
            .then(|| match cost.try_cost(w.as_slice(), &mut buf) {
                Ok(c) => (c, w.norm_sq(), w.clone()),
                Err(e) => panic!("candidate cost failed: {e}"),
            })
    })
    .into_iter()
    .flatten()
    .min()
    .map(|(cost, _, uov)| CommonUov { uov, cost })
}

/// Budgeted [`find_best_common_uov`] for untrusted stencils and bounded
/// latency: oracle construction errors are surfaced instead of panicking,
/// and when the budget runs out mid-enumeration the best common UOV found
/// so far (if any) is returned together with a [`Degradation`] record.
///
/// Unlike the single-stencil search there is no always-legal fallback — a
/// common UOV may simply not exist — so a degraded result can be `None`
/// even when the full search would have found one.
///
/// # Errors
///
/// Hard failures only: an unrepresentable positive functional or
/// arithmetic overflow while checking a candidate.
pub fn find_best_common_uov_budgeted(
    stencils: &[Stencil],
    objective: Objective<'_>,
    radius: i64,
    budget: &Budget,
) -> Result<(Option<CommonUov>, Option<Degradation>), SearchError> {
    let Some(first) = stencils.first() else {
        return Ok((None, None));
    };
    let dim = first.dim();
    if stencils.iter().any(|s| s.dim() != dim) || radius < 0 {
        return Ok((None, None));
    }
    let oracles = stencils
        .iter()
        .map(DoneOracle::try_new)
        .collect::<Result<Vec<_>, _>>()?;

    let (candidates, mut degradation) = oracles[0].uovs_within_budgeted(radius, budget)?;
    let cost = ObjectiveCost::new(&objective);
    let mut best: Option<(u128, i128, IVec)> = None;
    let mut buf = Vec::with_capacity(dim);
    'candidates: for w in candidates {
        for o in &oracles[1..] {
            match o.in_dead_slice_budgeted(w.as_slice(), &mut buf, budget) {
                Ok(true) => {}
                Ok(false) => continue 'candidates,
                Err(SearchError::Exhausted(reason)) => {
                    degradation
                        .get_or_insert_with(|| budget.degradation(reason, o.cache_len(), false));
                    break 'candidates;
                }
                Err(e) => return Err(e),
            }
        }
        // A candidate whose cost overflows can simply never win.
        let Ok(c) = cost.try_cost(w.as_slice(), &mut buf) else {
            continue;
        };
        let Ok(norm) = w.try_norm_sq() else {
            continue;
        };
        let key = (c, norm, w);
        if best.as_ref().map(|b| key < *b).unwrap_or(true) {
            best = Some(key);
        }
    }
    Ok((
        best.map(|(cost, _, uov)| CommonUov { uov, cost }),
        degradation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::storage_class_count;
    use uov_isg::ivec;

    fn s(vs: Vec<IVec>) -> Stencil {
        Stencil::new(vs).unwrap()
    }

    #[test]
    fn common_uov_is_universal_for_all_inputs() {
        let a = s(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]);
        let b = s(vec![ivec![1, -1], ivec![1, 1]]);
        let common = find_best_common_uov(&[a.clone(), b.clone()], Objective::ShortestVector, 6)
            .expect("exists");
        for stencil in [&a, &b] {
            assert!(DoneOracle::new(stencil).is_uov(&common.uov));
        }
    }

    #[test]
    fn disjoint_uov_sets_yield_none() {
        let a = s(vec![ivec![0, 1]]); // UOVs: (0, k), k ≥ 1
        let b = s(vec![ivec![1, 0]]); // UOVs: (k, 0), k ≥ 1
        assert!(find_best_common_uov(&[a, b], Objective::ShortestVector, 8).is_none());
    }

    #[test]
    fn single_stencil_degenerates_to_ordinary_search() {
        let a = s(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ]);
        let common = find_best_common_uov(&[a], Objective::ShortestVector, 6).expect("exists");
        assert_eq!(common.uov, ivec![2, 0]);
        assert_eq!(common.cost, 4);
    }

    #[test]
    fn empty_input_and_dim_mismatch() {
        assert!(find_best_common_uov(&[], Objective::ShortestVector, 4).is_none());
        let a = s(vec![ivec![1, 0]]);
        let b = s(vec![ivec![1, 0, 0]]);
        assert!(find_best_common_uov(&[a, b], Objective::ShortestVector, 4).is_none());
    }

    #[test]
    fn known_bounds_objective_applies() {
        let a = s(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]);
        let b = s(vec![ivec![1, 1], ivec![2, 1]]);
        let grid = uov_isg::RectDomain::grid(8, 8);
        let common =
            find_best_common_uov(&[a, b], Objective::KnownBounds(&grid), 6).expect("exists");
        assert_eq!(common.cost, storage_class_count(&grid, &common.uov) as u128);
    }

    #[test]
    fn budgeted_common_uov_matches_unbudgeted_when_unlimited() {
        let a = s(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]);
        let b = s(vec![ivec![1, -1], ivec![1, 1]]);
        let (found, degradation) = find_best_common_uov_budgeted(
            &[a.clone(), b.clone()],
            Objective::ShortestVector,
            6,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(degradation.is_none());
        let reference = find_best_common_uov(&[a, b], Objective::ShortestVector, 6).unwrap();
        assert_eq!(found.unwrap().uov, reference.uov);
    }

    #[test]
    fn budgeted_common_uov_degrades_under_tiny_budget() {
        let a = s(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]);
        let b = s(vec![ivec![1, -1], ivec![1, 1]]);
        let tight = Budget::unlimited().with_max_nodes(3);
        let (found, degradation) = find_best_common_uov_budgeted(
            &[a.clone(), b.clone()],
            Objective::ShortestVector,
            6,
            &tight,
        )
        .unwrap();
        assert!(degradation.is_some(), "tiny budget must degrade");
        if let Some(common) = found {
            for stencil in [&a, &b] {
                assert!(DoneOracle::new(stencil).is_uov(&common.uov));
            }
        }
    }

    #[test]
    fn threaded_common_uov_matches_sequential() {
        let a = s(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]);
        let b = s(vec![ivec![1, -1], ivec![1, 1]]);
        let seq = find_best_common_uov(&[a.clone(), b.clone()], Objective::ShortestVector, 6)
            .expect("exists");
        for threads in [2, 4, 8] {
            let par = find_best_common_uov_threaded(
                &[a.clone(), b.clone()],
                Objective::ShortestVector,
                6,
                threads,
            )
            .expect("exists");
            assert_eq!(par.uov, seq.uov, "threads={threads}");
            assert_eq!(par.cost, seq.cost, "threads={threads}");
        }
        // Disjoint sets stay disjoint at every thread count.
        let x = s(vec![ivec![0, 1]]);
        let y = s(vec![ivec![1, 0]]);
        assert!(find_best_common_uov_threaded(&[x, y], Objective::ShortestVector, 8, 4).is_none());
    }

    #[test]
    fn psm_statements_share_no_short_common_uov() {
        // H's consumers {(1,1),(1,0),(0,1)} vs E's {(1,0)}: E's UOV set is
        // the (k,0) ray, none of which is universal for H — the paper's
        // per-statement disjoint storage is genuinely necessary here.
        let h = s(vec![ivec![1, 1], ivec![1, 0], ivec![0, 1]]);
        let e = s(vec![ivec![1, 0]]);
        assert!(find_best_common_uov(&[h, e], Objective::ShortestVector, 8).is_none());
    }
}

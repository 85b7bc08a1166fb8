//! Coordinate-permutation canonicalization of planning problems.
//!
//! A coordinate permutation `σ` is a lattice automorphism of `ℤᵈ`, so it
//! maps non-negative integer combinations to non-negative integer
//! combinations — `w ∈ cone(V) ⟺ σ(w) ∈ cone(σ(V))` — and therefore
//! preserves DONE/DEAD membership and UOV-ness exactly (paper §3.1
//! defines all three through the cone). It preserves the shortest-vector
//! objective too (`‖σ(w)‖² = ‖w‖²`), and in 1-D and 2-D the storage-class
//! count on a rectangular domain (`σ(D)` along `σ(w)` has the classes of
//! `D` along `w`). So for those problems two requests that differ only by
//! a relabeling of the loop axes are the *same* problem with the same
//! optimum.
//!
//! In 3-D and up the engine's storage-class count is not invariant: it
//! comes from a bounding box that depends on the lattice basis the
//! reduction picks, so an answer's cost, and the optimum itself, can move
//! with the axis order (diag3 on 16×32×32 costs 4,418 as sent and 3,666
//! with axes 0 and 1 swapped). [`canonicalize`] therefore leaves
//! known-bounds problems of dimension ≥ 3 as they are; only the request's
//! own axis order shares their cache slot.
//!
//! For every other problem the canonical form is the lexicographically
//! smallest encoding of `(sorted σ(V), σ(domain))` over all permutations
//! `σ` that keep every stencil vector lexicographically positive (a
//! [`Stencil`] invariant; the identity always qualifies, so the set is
//! never empty). Symmetric and axis-relabeled requests thus collapse onto
//! one cache entry, and the cached canonical answer is mapped back
//! through `σ⁻¹`.
//!
//! One wrinkle: the search's deterministic tie-break `(cost, ‖w‖², lex w)`
//! is *not* permutation-equivariant — `σ⁻¹` of the canonical lex-minimum
//! need not be the original problem's lex-minimum. The mapped-back vector
//! is guaranteed optimal in cost and norm (both invariants), so
//! [`lex_min_equivalent`] repairs the tie-break by enumerating the few
//! integer points on the sphere `‖w‖² = m*` and returning the lex-least
//! one that is a UOV of the required cost — byte-identical to what a
//! direct search returns.

use uov_core::search::{try_cost_of, Objective};
use uov_core::{Budget, DoneOracle};
use uov_isg::{IVec, RectDomain, Stencil};

use crate::proto::ObjectiveSpec;

/// Permutation search is exhaustive (`dim!` candidates), so cap the
/// dimension: beyond this the canonical form degrades to the identity
/// (correct, merely fewer cache collisions between symmetric requests).
pub const MAX_CANON_DIM: usize = 6;

/// Cap on the sphere enumeration of [`lex_min_equivalent`]. The sphere
/// `‖w‖² = m*` is scanned inside the box `[-r, r]ᵈ` with `r = ⌊√m*⌋`;
/// if the box holds more points than this, the caller should fall back
/// to a direct solve instead.
pub const REPAIR_ENUM_LIMIT: u64 = 250_000;

/// A canonicalized problem plus the permutation that produced it.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonical stencil (vectors permuted, re-sorted).
    pub stencil: Stencil,
    /// The canonical objective (domain bounds permuted alongside).
    pub objective: ObjectiveSpec,
    /// The applied axis permutation: canonical axis `i` is original axis
    /// `perm[i]`. `perm[i] == i` for all `i` iff the problem was already
    /// canonical.
    pub perm: Vec<usize>,
}

impl Canonical {
    /// Whether the canonicalizing permutation is the identity (the
    /// canonical problem *is* the original problem).
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| p == i)
    }
}

/// Apply a permutation: `out[i] = v[perm[i]]`.
fn apply(perm: &[usize], v: &IVec) -> IVec {
    IVec::from(perm.iter().map(|&p| v[p]).collect::<Vec<i64>>())
}

/// Map an original-coordinates vector into canonical coordinates
/// (`out[i] = v[perm[i]]`) — the inverse of [`map_back`]. Replication
/// uses this to carry an answer computed in a *sender's* coordinates
/// into the receiver's canonical cache slot. Norm, cone membership and
/// (for the problems [`canonicalize`] permutes) cost survive the trip;
/// the receiver re-derives the cost all the same.
pub fn map_to_canonical(v: &IVec, perm: &[usize]) -> IVec {
    apply(perm, v)
}

/// Invert [`map_to_canonical`]: given a canonical-coordinates vector,
/// recover the original-coordinates one (`out[perm[i]] = w[i]`).
pub fn map_back(w: &IVec, perm: &[usize]) -> IVec {
    let mut out = vec![0i64; w.dim()];
    for (i, &p) in perm.iter().enumerate() {
        out[p] = w[i];
    }
    IVec::from(out)
}

/// All permutations of `0..n`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    let mut used = vec![false; n];
    fn rec(
        n: usize,
        cur: &mut Vec<usize>,
        used: &mut Vec<bool>,
        at: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if at == n {
            out.push(cur.clone());
            return;
        }
        for k in 0..n {
            if !used[k] {
                used[k] = true;
                cur[at] = k;
                rec(n, cur, used, at + 1, out);
                used[k] = false;
            }
        }
    }
    rec(n, &mut cur, &mut used, 0, &mut out);
    out
}

/// The comparison key of one permuted problem: the sorted vector list,
/// then the domain bounds. Lexicographic minimum over the orbit defines
/// the canonical form.
fn encoding(vectors: &[IVec], objective: &ObjectiveSpec) -> Vec<i64> {
    let mut key = Vec::with_capacity((vectors.len() + 2) * vectors.first().map_or(0, |v| v.dim()));
    for v in vectors {
        key.extend_from_slice(v.as_slice());
    }
    if let ObjectiveSpec::KnownBounds(d) = objective {
        key.extend_from_slice(d.lo().as_slice());
        key.extend_from_slice(d.hi().as_slice());
    }
    key
}

/// One orbit member during canonicalization: its comparison key, the
/// permutation that produced it, and the permuted problem itself.
type OrbitEntry = (Vec<i64>, Vec<usize>, Vec<IVec>, ObjectiveSpec);

/// Canonicalize a problem: minimal `(sorted σ(V), σ(domain))` encoding
/// over all lex-positivity-preserving axis permutations `σ`.
///
/// Known-bounds problems of dimension ≥ 3, whose optimum can depend on
/// the axis order (module docs), and problems past [`MAX_CANON_DIM`]
/// canonicalize to themselves (the identity permutation).
pub fn canonicalize(stencil: &Stencil, objective: &ObjectiveSpec) -> Canonical {
    let dim = stencil.dim();
    let identity: Vec<usize> = (0..dim).collect();
    let fallback = Canonical {
        stencil: stencil.clone(),
        objective: objective.clone(),
        perm: identity.clone(),
    };
    let order_dependent = dim >= 3 && matches!(objective, ObjectiveSpec::KnownBounds(_));
    if dim > MAX_CANON_DIM || order_dependent {
        return fallback;
    }
    let mut best: Option<OrbitEntry> = None;
    for perm in permutations(dim) {
        let mut vectors: Vec<IVec> = stencil.iter().map(|v| apply(&perm, v)).collect();
        if !vectors.iter().all(IVec::is_lex_positive) {
            continue;
        }
        vectors.sort();
        vectors.dedup();
        let obj = match objective {
            ObjectiveSpec::ShortestVector => ObjectiveSpec::ShortestVector,
            ObjectiveSpec::KnownBounds(d) => ObjectiveSpec::KnownBounds(RectDomain::new(
                apply(&perm, d.lo()),
                apply(&perm, d.hi()),
            )),
        };
        let key = encoding(&vectors, &obj);
        let better = match &best {
            None => true,
            // The perm is the final tiebreak so the chosen permutation —
            // not just the canonical problem — is deterministic.
            Some((k, p, _, _)) => key < *k || (key == *k && perm < *p),
        };
        if better {
            best = Some((key, perm, vectors, obj));
        }
    }
    match best {
        Some((_, perm, vectors, objective)) => match Stencil::new(vectors) {
            Ok(stencil) => Canonical {
                stencil,
                objective,
                perm,
            },
            // Unreachable (permuted lex-positive vectors form a valid
            // stencil), but degrading to identity is always sound.
            Err(_) => fallback,
        },
        None => fallback,
    }
}

/// `⌊√n⌋` for the repair radius.
fn isqrt(n: i128) -> i64 {
    if n <= 0 {
        return 0;
    }
    let mut x = (n as f64).sqrt() as i128;
    while x > 0 && x * x > n {
        x -= 1;
    }
    while (x + 1) * (x + 1) <= n {
        x += 1;
    }
    x as i64
}

/// Repair the lex tie-break of a permuted cache hit.
///
/// `candidate` must be a UOV of `stencil` achieving the problem's optimal
/// `(cost, ‖w‖²)` key. This scans the integer points of the sphere
/// `‖w‖² = ‖candidate‖²` in lexicographic order and returns the first
/// (hence lex-least) UOV of cost `cost`: exactly the vector a direct
/// search of the original problem returns under the engine's total order
/// `(cost, ‖w‖², lex w)`.
///
/// `σ⁻¹` of a cached optimal answer keeps its norm and its UOV-ness under
/// every permutation, and its storage cost in 1-D and 2-D — the only
/// known-bounds problems [`canonicalize`] permutes. Callers still recheck
/// the cost first and solve directly if it moved.
///
/// Returns `None` when the enumeration would exceed
/// [`REPAIR_ENUM_LIMIT`] or the oracle cannot be built — the caller
/// should fall back to a direct solve.
pub fn lex_min_equivalent(
    stencil: &Stencil,
    objective: &Objective<'_>,
    candidate: &IVec,
    cost: u128,
) -> Option<IVec> {
    let dim = stencil.dim();
    let m_star = candidate.try_norm_sq().ok()?;
    let r = isqrt(m_star);
    let side = 2u64.checked_mul(r as u64)?.checked_add(1)?;
    let mut points = 1u64;
    for _ in 0..dim {
        points = points.checked_mul(side)?;
        if points > REPAIR_ENUM_LIMIT {
            return None;
        }
    }
    let oracle = DoneOracle::try_new(stencil).ok()?;
    let unlimited = Budget::unlimited();
    let mut cur = vec![-r; dim];
    loop {
        let w = IVec::from(cur.clone());
        if w.is_lex_positive()
            && w.try_norm_sq() == Ok(m_star)
            && try_cost_of(objective, &w) == Ok(cost)
            && oracle.is_uov_budgeted(&w, &unlimited).unwrap_or(false)
        {
            // Lexicographic enumeration: the first match is the lex-min.
            return Some(w);
        }
        // Odometer advance, last axis fastest = lex ascending order.
        let mut k = dim;
        loop {
            if k == 0 {
                // The candidate itself is on the sphere, so this is
                // unreachable; returning None keeps the caller safe.
                return None;
            }
            k -= 1;
            if cur[k] < r {
                cur[k] += 1;
                break;
            }
            cur[k] = -r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_core::search::{find_best_uov, SearchConfig};
    use uov_isg::ivec;

    /// A stencil whose canonical form differs from its raw form: swap the
    /// two axes of the asymmetric stencil {(1,0), (2,1)}.
    fn asym() -> Stencil {
        Stencil::new(vec![ivec![1, 0], ivec![2, 1]]).unwrap()
    }

    fn swapped_asym() -> Stencil {
        Stencil::new(vec![ivec![0, 1], ivec![1, 2]]).unwrap()
    }

    #[test]
    fn permuted_stencils_share_a_canonical_form() {
        let a = canonicalize(&asym(), &ObjectiveSpec::ShortestVector);
        let b = canonicalize(&swapped_asym(), &ObjectiveSpec::ShortestVector);
        assert_eq!(a.stencil.vectors(), b.stencil.vectors());
        assert_eq!(a.objective, b.objective);
        // The two requests reach the same form through different perms.
        assert_ne!(a.perm, b.perm);
    }

    #[test]
    fn permuted_domains_permute_alongside() {
        let dom = RectDomain::new(ivec![1, 1], ivec![4, 9]);
        let a = canonicalize(&asym(), &ObjectiveSpec::KnownBounds(dom.clone()));
        let swapped_dom = RectDomain::new(ivec![1, 1], ivec![9, 4]);
        let b = canonicalize(&swapped_asym(), &ObjectiveSpec::KnownBounds(swapped_dom));
        assert_eq!(a.stencil.vectors(), b.stencil.vectors());
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn map_back_inverts_apply() {
        let perm = vec![2usize, 0, 1];
        let v = ivec![7, -3, 5];
        assert_eq!(map_back(&apply(&perm, &v), &perm), v);
        assert_eq!(map_to_canonical(&v, &perm), apply(&perm, &v));
    }

    #[test]
    fn canonical_problem_is_a_fixpoint() {
        for s in [asym(), swapped_asym()] {
            let c = canonicalize(&s, &ObjectiveSpec::ShortestVector);
            let again = canonicalize(&c.stencil, &c.objective);
            assert!(again.is_identity(), "canonicalizing twice must be stable");
            assert_eq!(again.stencil.vectors(), c.stencil.vectors());
        }
    }

    #[test]
    fn high_dimension_degrades_to_identity() {
        let dim = MAX_CANON_DIM + 1;
        let vectors: Vec<IVec> = (0..dim).map(|k| IVec::unit(dim, k)).collect();
        let s = Stencil::new(vectors).unwrap();
        let c = canonicalize(&s, &ObjectiveSpec::ShortestVector);
        assert!(c.is_identity());
    }

    #[test]
    fn known_bounds_in_3d_keeps_its_axis_order() {
        // The shortest-vector objective reorders these axes; the 3-D
        // storage objective must not.
        let s = Stencil::new(vec![ivec![0, 1, 1], ivec![1, 0, 1], ivec![1, 1, -1]]).unwrap();
        let dom = RectDomain::new(ivec![1, 1, 1], ivec![5, 7, 2]);
        assert!(!canonicalize(&s, &ObjectiveSpec::ShortestVector).is_identity());
        let c = canonicalize(&s, &ObjectiveSpec::KnownBounds(dom.clone()));
        assert!(c.is_identity());
        assert_eq!(c.stencil.vectors(), s.vectors());
        assert_eq!(c.objective, ObjectiveSpec::KnownBounds(dom));
    }

    #[test]
    fn uov_membership_is_permutation_invariant() {
        // The soundness claim behind the cache: σ(w) is a UOV of σ(V)
        // exactly when w is a UOV of V.
        let s = asym();
        let c = canonicalize(&s, &ObjectiveSpec::ShortestVector);
        let orig = DoneOracle::new(&s);
        let canon = DoneOracle::new(&c.stencil);
        for i in -3i64..=3 {
            for j in -3i64..=3 {
                let w_orig = map_back(&ivec![i, j], &c.perm);
                assert_eq!(
                    canon.is_uov(&ivec![i, j]),
                    orig.is_uov(&w_orig),
                    "membership diverged at canonical ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn tie_break_repair_matches_direct_search() {
        // Solve the canonical problem, map back, repair — must equal a
        // direct search of the *original* problem byte-for-byte.
        for s in [asym(), swapped_asym()] {
            let c = canonicalize(&s, &ObjectiveSpec::ShortestVector);
            let canon_best = find_best_uov(
                &c.stencil,
                Objective::ShortestVector,
                &SearchConfig::default(),
            )
            .unwrap();
            let mapped = map_back(&canon_best.uov, &c.perm);
            let repaired =
                lex_min_equivalent(&s, &Objective::ShortestVector, &mapped, canon_best.cost)
                    .expect("small norms stay under the enumeration limit");
            let direct =
                find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
            assert_eq!(repaired, direct.uov, "stencil {s:?}");
            assert_eq!(canon_best.cost, direct.cost, "stencil {s:?}");
        }
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0i128..200 {
            let r = isqrt(n) as i128;
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
        assert_eq!(isqrt(1 << 40), 1 << 20);
    }
}

//! Property tests for the DONE/DEAD oracle invariants (paper §3.1–§3.2).
//!
//! The invariants under test:
//!
//! 1. Every vector reported by `uovs_within` satisfies `is_uov`.
//! 2. The initial UOV `Σvᵢ` is always accepted (§3.2.1 — it is universal
//!    for every schedule).
//! 3. DEAD ⊆ DONE at every query point: a value is dead only once every
//!    consumer has executed, and dead requires done by definition — the
//!    sets are *not* disjoint, DEAD is the upward-closed core of DONE.
//! 4. Cache-hit answers equal cold-cache answers: re-querying a warmed
//!    oracle never changes a membership bit.
//! 5. The UOV set is upward closed: `w ∈ UOV ⟹ w + vᵢ ∈ UOV` for every
//!    stencil vector `vᵢ` (DEAD only recedes as `q` advances).
//!
//! Every test draws its stencils from a generator seeded with
//! `UOV_TEST_SEED ^ salt` (default seed below), so CI can sweep seeds to
//! vary them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov::core::search::initial_uov;
use uov::core::DoneOracle;
use uov::isg::{ivec, IVec, IsgError, RectDomain, Stencil};

fn seed_from_env() -> u64 {
    std::env::var("UOV_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0D1F)
}

/// Run `property` on `cases` inputs drawn from one generator seeded with
/// `UOV_TEST_SEED ^ salt`. A failing case prints its own panic, then
/// fails the test naming the seed and the case index.
fn check(salt: u64, cases: u32, mut property: impl FnMut(&mut StdRng)) {
    let seed = seed_from_env();
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    for case in 0..cases {
        let run = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        assert!(run.is_ok(), "case {case} failed under UOV_TEST_SEED={seed}");
    }
}

/// Cases per property for invariants 1–4.
const CASES: u32 = 40;

/// Seeded random stencil in `dim` dimensions, mirroring the generator used
/// by `tests/differential.rs`.
fn random_stencil(rng: &mut StdRng, dim: usize, bound: i64, max_vecs: usize) -> Stencil {
    loop {
        let n = rng.gen_range(1..=max_vecs);
        let vecs: Vec<IVec> = (0..n)
            .map(|_| loop {
                let v = IVec::from(
                    (0..dim)
                        .map(|_| rng.gen_range(-bound..=bound))
                        .collect::<Vec<i64>>(),
                );
                if v.is_lex_positive() {
                    return v;
                }
            })
            .collect();
        if let Ok(s) = Stencil::new(vecs) {
            return s;
        }
    }
}

/// One to four lex-positive vectors in `[-3, 3]²`.
fn stencil_2d(rng: &mut StdRng) -> Stencil {
    random_stencil(rng, 2, 3, 4)
}

/// Invariant 1: `uovs_within` only ever reports true UOVs — checked
/// against a *fresh* oracle so a cache bug in the enumerating oracle
/// cannot vouch for itself.
#[test]
fn uovs_within_reports_only_uovs() {
    check(0x0A01, CASES, |rng| {
        let s = stencil_2d(rng);
        let warm = DoneOracle::new(&s);
        for w in warm.uovs_within(4) {
            assert!(warm.is_uov(&w), "warm oracle rejects its own {w} of {s:?}");
            assert!(
                DoneOracle::new(&s).is_uov(&w),
                "cold oracle rejects {w} of {s:?}"
            );
        }
    });
}

/// Invariant 2: the initial UOV `Σvᵢ` is accepted for every stencil.
#[test]
fn initial_uov_is_always_accepted() {
    check(0x0A02, CASES, |rng| {
        let s = stencil_2d(rng);
        assert!(DoneOracle::new(&s).is_uov(&initial_uov(&s)), "{s:?}");
    });
}

/// Invariant 3: DEAD ⊆ DONE pointwise, sampled over random query
/// points. (Dead means *every* consumer has read the value; done means
/// the producer has run — the former entails the latter.)
#[test]
fn dead_is_a_subset_of_done_pointwise() {
    check(0x0A03, CASES, |rng| {
        let s = stencil_2d(rng);
        let w: IVec = (0..2).map(|_| rng.gen_range(-5i64..=5)).collect();
        let oracle = DoneOracle::new(&s);
        if oracle.in_dead(&w) {
            assert!(oracle.in_done(&w), "{w} is dead but not done for {s:?}");
        }
    });
}

/// Invariant 3, set-level: the enumerated DEAD set at a query point is
/// contained in the DONE set at the same point.
#[test]
fn dead_points_are_contained_in_done_points() {
    check(0x0A04, CASES, |rng| {
        let s = stencil_2d(rng);
        let oracle = DoneOracle::new(&s);
        let grid = RectDomain::grid(5, 5);
        let q = ivec![4, 4];
        let done = oracle.done_points(&q, &grid);
        for p in oracle.dead_points(&q, &grid) {
            assert!(
                done.contains(&p),
                "dead point {p} missing from DONE for {s:?}"
            );
        }
    });
}

/// Invariant 4: a warmed cache never changes an answer. Query a batch
/// twice against one oracle (second pass is all cache hits) and
/// compare each bit to a cold oracle's answer.
#[test]
fn cache_hits_equal_cold_answers() {
    check(0x0A05, CASES, |rng| {
        let s = stencil_2d(rng);
        let warm = DoneOracle::new(&s);
        let mut queries = Vec::new();
        for x in -3i64..=3 {
            for y in -3i64..=3 {
                queries.push(ivec![x, y]);
            }
        }
        let first: Vec<bool> = queries.iter().map(|w| warm.in_done(w)).collect();
        let second: Vec<bool> = queries.iter().map(|w| warm.in_done(w)).collect();
        assert_eq!(&first, &second, "cache hit changed an answer for {s:?}");
        let cold: Vec<bool> = {
            let oracle = DoneOracle::new(&s);
            queries.iter().map(|w| oracle.in_done(w)).collect()
        };
        assert_eq!(
            &first, &cold,
            "warm cache disagrees with cold oracle for {s:?}"
        );
    });
}

/// Invariant 5, on seeded random 2-D and 3-D stencils: every UOV that
/// `uovs_within` enumerates stays a UOV after adding any stencil vector,
/// checked by a cold oracle. The box reaches `Σvᵢ`, so no case is vacuous.
#[test]
fn uovs_are_upward_closed() {
    let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0x0C10);
    for case in 0..24 {
        let dim = if case % 3 == 0 { 3 } else { 2 };
        let s = random_stencil(&mut rng, dim, 2, 4);
        let cold = DoneOracle::new(&s);
        let initial = initial_uov(&s);
        let radius = initial.as_slice().iter().map(|c| c.abs()).max();
        let uovs = DoneOracle::new(&s).uovs_within(radius.unwrap_or(0));
        assert!(uovs.contains(&initial), "case {case}: {s:?}");
        for w in &uovs {
            for v in &s {
                let up = w + v;
                assert!(
                    cold.is_uov(&up),
                    "case {case}: {w} is a UOV of {s:?} but {up} is not"
                );
            }
        }
    }
}

/// A deliberately naive reference oracle: plain `HashMap` memo, no dense
/// window, no dual-cone cuts — just the φ-functional termination bound
/// and memoised DFS.
///
/// This is the ground truth the differentials below test
/// [`DoneOracle`] against: every data-structure trick in the fast oracle
/// (dense verdict window, spill tier, scratch-arena DFS) must be
/// invisible in the answers. Keep this implementation boring.
#[derive(Debug)]
struct ReferenceOracle {
    stencil: Stencil,
    phi: IVec,
    memo: std::collections::HashMap<IVec, bool>,
}

impl ReferenceOracle {
    /// Build a reference oracle for `stencil`; fails when the stencil's
    /// positive functional cannot be represented (the same inputs
    /// [`DoneOracle::try_new`] rejects).
    fn new(stencil: &Stencil) -> Result<Self, IsgError> {
        Ok(ReferenceOracle {
            stencil: stencil.clone(),
            phi: stencil.try_positive_functional()?,
            memo: std::collections::HashMap::new(),
        })
    }

    /// Naive cone membership: memoised iterative DFS with only the
    /// φ-functional cut.
    ///
    /// # Panics
    ///
    /// Panics on coordinate overflow or a dimension mismatch; the
    /// reference oracle is for controlled test inputs.
    fn in_done(&mut self, w: &IVec) -> bool {
        assert_eq!(
            w.dim(),
            self.stencil.dim(),
            "reference oracle dimension mismatch"
        );
        // Post-order DFS: expand first, then decide once all children are
        // known. `enter` distinguishes the two visits to a node.
        let mut stack: Vec<(IVec, bool)> = vec![(w.clone(), true)];
        while let Some((node, enter)) = stack.pop() {
            if node.is_zero() || self.memo.contains_key(&node) {
                continue;
            }
            if self.phi.dot_i128(&node) < 0 {
                self.memo.insert(node, false);
                continue;
            }
            if enter {
                stack.push((node.clone(), false));
                for v in self.stencil.iter() {
                    match node.checked_sub(v) {
                        Ok(child) => stack.push((child, true)),
                        Err(e) => panic!("reference oracle overflow: {e}"),
                    }
                }
            } else {
                let verdict = self.stencil.iter().any(|v| {
                    let child = match node.checked_sub(v) {
                        Ok(c) => c,
                        Err(e) => panic!("reference oracle overflow: {e}"),
                    };
                    child.is_zero() || self.memo.get(&child).copied().unwrap_or(false)
                });
                self.memo.insert(node, verdict);
            }
        }
        w.is_zero() || self.memo.get(w).copied().unwrap_or(false)
    }

    /// Naive DEAD membership: every reader offset `w − vᵢ` is in the cone.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ReferenceOracle::in_done`].
    fn in_dead(&mut self, w: &IVec) -> bool {
        let readers: Vec<IVec> = self
            .stencil
            .iter()
            .map(|v| match w.checked_sub(v) {
                Ok(c) => c,
                Err(e) => panic!("reference oracle overflow: {e}"),
            })
            .collect();
        readers.iter().all(|offset| self.in_done(offset))
    }

    /// Alias of [`ReferenceOracle::in_dead`], mirroring
    /// [`DoneOracle::is_uov`].
    fn is_uov(&mut self, w: &IVec) -> bool {
        self.in_dead(w)
    }

    /// Naive box enumeration mirroring [`DoneOracle::uovs_within`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`ReferenceOracle::in_done`].
    fn uovs_within(&mut self, radius: i64) -> Vec<IVec> {
        assert!(radius >= 0, "radius must be non-negative");
        let d = self.stencil.dim();
        let mut out = Vec::new();
        let mut cur = vec![-radius; d];
        loop {
            let w = IVec::from(cur.as_slice());
            if w.is_lex_positive() && self.is_uov(&w) {
                out.push(w);
            }
            let mut k = d;
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                if cur[k] < radius {
                    cur[k] += 1;
                    break;
                }
                cur[k] = -radius;
            }
        }
    }

    /// Number of memoised verdicts (diagnostics for the property suite).
    fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

/// Differentials against the retained [`ReferenceOracle`] — the pre-dense
/// scalar memoizer kept verbatim as an executable specification. The dense
/// bitset/window engine must agree with it bit-for-bit on every verdict.
mod reference_differential {
    use super::*;

    /// DONE and DEAD verdicts agree with the reference oracle over a full
    /// coordinate box, on seeded random 2-D and 3-D stencils.
    #[test]
    fn dense_oracle_matches_reference_on_boxes() {
        let mut rng = StdRng::seed_from_u64(seed_from_env());
        for case in 0..24 {
            let dim = if case % 3 == 0 { 3 } else { 2 };
            let s = random_stencil(&mut rng, dim, 3, 4);
            let dense = DoneOracle::new(&s);
            let mut reference = ReferenceOracle::new(&s).expect("reference oracle");
            let bound = 5i64;
            let mut coords = vec![-bound; dim];
            loop {
                let w = IVec::from(coords.clone());
                assert_eq!(
                    dense.in_done(&w),
                    reference.in_done(&w),
                    "DONE({w}) diverges from reference on stencil {s} (case {case})"
                );
                assert_eq!(
                    dense.in_dead(&w),
                    reference.in_dead(&w),
                    "DEAD({w}) diverges from reference on stencil {s} (case {case})"
                );
                // Odometer over the box [-bound, bound]^dim.
                let mut i = 0;
                loop {
                    if i == dim {
                        break;
                    }
                    coords[i] += 1;
                    if coords[i] <= bound {
                        break;
                    }
                    coords[i] = -bound;
                    i += 1;
                }
                if i == dim {
                    break;
                }
            }
            assert!(reference.memo_len() > 0, "reference memo never populated");
        }
    }

    /// `uovs_within` enumerates the identical set (same vectors, same
    /// order — both are sorted) on both oracles.
    #[test]
    fn dense_uov_enumeration_matches_reference() {
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xD1FF);
        for case in 0..16 {
            let s = random_stencil(&mut rng, 2, 3, 4);
            let dense = DoneOracle::new(&s);
            let mut reference = ReferenceOracle::new(&s).expect("reference oracle");
            let radius = 4 + (case % 3) as i64;
            assert_eq!(
                dense.uovs_within(radius),
                reference.uovs_within(radius),
                "uovs_within({radius}) diverges on stencil {s}"
            );
        }
    }

    /// is_uov agreement includes the DEAD ⊆ DONE corner: every point where
    /// either oracle says UOV, both must, and both must also say DONE.
    #[test]
    fn is_uov_agreement_and_containment() {
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0x15_0F);
        for _ in 0..16 {
            let s = random_stencil(&mut rng, 2, 3, 4);
            let dense = DoneOracle::new(&s);
            let mut reference = ReferenceOracle::new(&s).expect("reference oracle");
            for x in -4i64..=4 {
                for y in -4i64..=4 {
                    let w = ivec![x, y];
                    let d = dense.is_uov(&w);
                    assert_eq!(d, reference.is_uov(&w), "is_uov({w}) diverges on {s}");
                    if d {
                        assert!(dense.in_done(&w), "UOV {w} not DONE on {s}");
                    }
                }
            }
        }
    }
}

/// Far-coordinate queries land outside the dense window (its reach is a
/// few hundred per dimension — see `query_window`) and must take the
/// sharded spill tier; the verdicts there are pinned by closed-form facts
/// about stencils whose cones are textbook objects. Coordinates stay in
/// the low thousands: far past every window bound, but with cone walks
/// the memoised DFS completes in linear time.
mod window_spill {
    use super::*;

    /// 1-D numerical semigroup ⟨2,3⟩: DONE(n) ⟺ n = 0 ∨ n ≥ 2, and
    /// UOV(n) ⟺ n−2 and n−3 both DONE ⟺ n ≥ 5. These hold at any
    /// magnitude, so out-of-window probes are checked against ground
    /// truth rather than against another memoizer. (The 1-D window spans
    /// ±960 for this stencil; everything ≥ 5 000 is spill traffic.)
    #[test]
    fn semigroup_verdicts_hold_past_the_window() {
        let s = Stencil::new(vec![ivec![2], ivec![3]]).unwrap();
        let oracle = DoneOracle::new(&s);
        for n in [0i64, 1, 2, 3, 4, 5, 6, 1_000, 5_000, 5_001, 20_000] {
            let expect_done = n == 0 || n >= 2;
            let expect_uov = n >= 5;
            assert_eq!(oracle.in_done(&ivec![n]), expect_done, "DONE({n})");
            assert_eq!(oracle.is_uov(&ivec![n]), expect_uov, "UOV({n})");
        }
        // Negative points are cut by the positive functional without any
        // cone walk, so these may be arbitrarily far out.
        assert!(!oracle.in_done(&ivec![-1_000_000_000]));
        assert!(!oracle.in_done(&ivec![-5_001]));
    }

    /// 2-D quadrant stencil {(1,0),(0,1)}: DONE is exactly the closed
    /// non-negative quadrant. Membership probes sit past the ±128 window
    /// reach; non-membership probes are functional cuts and may be huge.
    #[test]
    fn quadrant_verdicts_hold_past_the_window() {
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1]]).unwrap();
        let oracle = DoneOracle::new(&s);
        let big = 3_001i64;
        assert!(oracle.in_done(&ivec![big, big]));
        assert!(oracle.in_done(&ivec![big, 0]));
        assert!(oracle.in_done(&ivec![0, big]));
        assert!(!oracle.in_done(&ivec![1_000_000_007, -1]));
        assert!(!oracle.in_done(&ivec![-1, 1_000_000_007]));
        assert!(oracle.is_uov(&ivec![big, big]));
        assert!(
            !oracle.is_uov(&ivec![big, 0]),
            "edge point misses (0,1) step"
        );
    }

    /// Spill-tier answers are stable under cache warming and agree with a
    /// cold oracle: querying the same far coordinates twice (second pass
    /// is all spill-map hits) never flips a bit.
    #[test]
    fn spill_hits_equal_cold_answers() {
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 2]]).unwrap();
        let warm = DoneOracle::new(&s);
        let far: Vec<IVec> = (0..32).map(|i| ivec![2_000 + i, 4_000 - 3 * i]).collect();
        let first: Vec<bool> = far.iter().map(|w| warm.in_done(w)).collect();
        let second: Vec<bool> = far.iter().map(|w| warm.in_done(w)).collect();
        assert_eq!(first, second, "spill-tier hit changed an answer");
        let cold = DoneOracle::new(&s);
        let cold_bits: Vec<bool> = far.iter().map(|w| cold.in_done(w)).collect();
        assert_eq!(
            first, cold_bits,
            "warm spill tier disagrees with cold oracle"
        );
    }

    /// The same fact answered from the dense window (small coords) and
    /// from the spill tier: DONE is closed under adding cone elements, so
    /// marching a cone element from deep inside the window out past the
    /// window bound must never flip membership off at the boundary.
    #[test]
    fn window_and_spill_agree_across_the_boundary() {
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap();
        let oracle = DoneOracle::new(&s);
        // The window reach for this stencil is ±256 per dimension; march
        // the diagonal from (1,1) to (4000,4000) in steps that straddle
        // the boundary densely near it.
        let step = ivec![1, 1];
        let mut w = ivec![1, 1];
        assert!(oracle.in_done(&w));
        while w[0] < 4_000 {
            let jump = if (200..600).contains(&w[0]) { 1 } else { 97 };
            for _ in 0..jump {
                w = &w + &step;
            }
            assert!(oracle.in_done(&w), "cone point {w} lost past the window");
        }
    }
}

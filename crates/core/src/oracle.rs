//! Exact decision procedures for the DONE and DEAD sets (paper §3.1).
//!
//! For a stencil `V = {v₁, …, vₘ}` and an arbitrary iteration `q`:
//!
//! * `DONE(V, q) = { p | ∃ aᵢ ≥ 0 : p + Σ aᵢvᵢ = q }` — iterations that
//!   must have executed before `q` under *any* legal schedule, because a
//!   chain of value dependences leads from them to `q`.
//! * `DEAD(V, q) = { p | ∀ vᵢ ∈ V : p + vᵢ ∈ DONE(V, q) }` — iterations
//!   whose value has been consumed by every reader once `q`'s inputs are
//!   ready, so their storage is reusable by `q`.
//! * `UOV(V) = { q − p | p ∈ DEAD(V, q) }`, independent of `q`.
//!
//! Working with offsets `w = q − p`, membership reduces to non-negative
//! integer *cone* membership: `w ∈ cone(V)` iff `w = Σ aᵢvᵢ, aᵢ ∈ ℤ≥0`.
//! The oracle decides this exactly by memoised depth-first search. The
//! search is complete because the stencil's positive functional `φ`
//! satisfies `φ·vᵢ ≥ 1`, so every step of the recursion strictly decreases
//! `φ·w` and targets with `φ·w < 0` can be cut off.
//!
//! Deciding UOV membership this way is NP-complete in the number of stencil
//! vectors (paper theorem, see [`crate::npc`]); for realistic stencils the
//! memoised search is fast, which is the paper's practicality argument.

use std::cell::RefCell;
use std::collections::HashMap;

use uov_isg::vec::try_dot_i128_slices;
use uov_isg::{IVec, IsgError, IterationDomain, Stencil};

use crate::budget::Budget;
use crate::dense::{ConeMemo, Window};
use crate::error::SearchError;

/// Entry budget for the dense verdict window; out-of-window queries use
/// the spill map, so this only trades memory for hit rate.
const ORACLE_WINDOW_ENTRIES: usize = 1 << 20;

/// `a − b` component-wise into `out`, with the same errors as
/// [`IVec::checked_sub`] but no allocation.
#[inline]
pub(crate) fn diff_into(a: &[i64], b: &[i64], out: &mut Vec<i64>) -> Result<(), SearchError> {
    if a.len() != b.len() {
        return Err(SearchError::from(IsgError::DimMismatch {
            expected: a.len(),
            found: b.len(),
        }));
    }
    out.clear();
    for (&x, &y) in a.iter().zip(b) {
        out.push(
            x.checked_sub(y)
                .ok_or(IsgError::Overflow("vector subtraction"))?,
        );
    }
    Ok(())
}

/// Whether the first nonzero component is positive (the slice twin of
/// [`IVec::is_lex_positive`]).
#[inline]
fn is_lex_positive_slice(w: &[i64]) -> bool {
    for &c in w {
        if c != 0 {
            return c > 0;
        }
    }
    false
}

/// Memoising decision oracle for DONE/DEAD/UOV membership over one stencil.
///
/// The oracle caches cone-membership results across queries, so reuse it
/// when testing many candidate vectors against the same stencil. Queries
/// take `&self` and record verdicts through interior mutability, so an
/// oracle belongs to one thread; warm answers are identical to what a
/// cold oracle would return.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, Stencil};
/// use uov_core::DoneOracle;
///
/// let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
/// let oracle = DoneOracle::new(&s);
/// assert!(oracle.in_done(&ivec![2, 1])); // (1,0) + (1,1)
/// assert!(!oracle.in_done(&ivec![1, -1]));
/// assert!(oracle.is_uov(&ivec![1, 1]));
/// # Ok::<(), uov_isg::StencilError>(())
/// ```
#[derive(Debug)]
pub struct DoneOracle {
    stencil: Stencil,
    phi: IVec,
    /// Dual-cone functionals: each is ≥ 0 on every stencil vector, so any
    /// cone member must satisfy them too. Pruning with these keeps the
    /// search inside the dependence cone (exact in 2-D), which is what
    /// makes even the adversarial NP-completeness instances tractable for
    /// realistic sizes.
    prunes: Vec<IVec>,
    /// The verdicts recorded so far, in two tiers.
    memo: RefCell<Memo>,
}

/// The oracle's verdict memo. Verdicts are identical whichever tier
/// records them.
#[derive(Debug)]
struct Memo {
    /// Dense tier: a lazily-paged tri-state array over the bounded query
    /// window, answering the hot-path probes with a load instead of a
    /// hash-map walk.
    dense: ConeMemo,
    /// Spill tier for out-of-window queries (adversarially large
    /// coordinates, deep chain walks).
    spill: HashMap<IVec, bool>,
}

impl Memo {
    /// The verdict recorded for `w`, whose dense window index is `key`.
    #[inline]
    fn get(&self, w: &[i64], key: Option<usize>) -> Option<bool> {
        match key {
            Some(idx) => self.dense.get(idx),
            None => self.spill.get(w).copied(),
        }
    }

    /// Write a verdict to whichever tier owns `w`.
    fn store(&mut self, w: &[i64], key: Option<usize>, val: bool) {
        match key {
            Some(idx) => {
                self.dense.set(idx, val);
            }
            None => {
                self.spill.insert(IVec::from(w), val);
            }
        }
    }

    /// Recorded verdicts across both tiers.
    fn len(&self) -> usize {
        self.dense.len() + self.spill.len()
    }

    /// Memoise a *computed* verdict; a full memo table here is a hard
    /// stop because discarding the verdict would make the time bound
    /// vacuous.
    fn record_computed(
        &mut self,
        w: &[i64],
        key: Option<usize>,
        val: bool,
        budget: &Budget,
    ) -> Result<(), SearchError> {
        if self.get(w, key).is_none() {
            budget.check_memo(self.len())?;
            self.store(w, key, val);
        }
        Ok(())
    }
}

/// Outcome of inspecting a cone node without expanding it.
enum Eval {
    Decided(bool),
    Expand,
}

impl DoneOracle {
    /// Build an oracle for `stencil`.
    ///
    /// # Panics
    ///
    /// Panics if the stencil's positive functional overflows `i64`
    /// (adversarially large coordinates). Use [`DoneOracle::try_new`] on
    /// untrusted input.
    pub fn new(stencil: &Stencil) -> Self {
        match Self::try_new(stencil) {
            Ok(o) => o,
            Err(e) => panic!("oracle construction failed: {e}"),
        }
    }

    /// [`DoneOracle::new`] returning [`SearchError`] instead of panicking
    /// when the positive functional cannot be represented.
    pub fn try_new(stencil: &Stencil) -> Result<Self, SearchError> {
        let phi = stencil.try_positive_functional()?;
        let window = query_window(stencil, &phi);
        Ok(DoneOracle {
            stencil: stencil.clone(),
            phi,
            prunes: dual_cone_functionals(stencil),
            memo: RefCell::new(Memo {
                dense: ConeMemo::new(window),
                spill: HashMap::new(),
            }),
        })
    }

    /// The stencil this oracle decides membership for.
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// Whether the offset `w = q − p` places `p` in `DONE(V, q)`:
    /// is `w` a non-negative integer combination of stencil vectors?
    ///
    /// The zero offset is in the cone (`p = q`, all coefficients zero),
    /// mirroring `DONE` containing `q` itself.
    ///
    /// # Panics
    ///
    /// Panics if `w.dim() != self.stencil().dim()` or on coordinate overflow
    /// for adversarial input. Use [`DoneOracle::in_done_budgeted`] on
    /// untrusted input.
    pub fn in_done(&self, w: &IVec) -> bool {
        match self.in_done_budgeted(w, &Budget::unlimited()) {
            Ok(b) => b,
            Err(e) => panic!("oracle query failed: {e}"),
        }
    }

    /// Budgeted [`DoneOracle::in_done`].
    ///
    /// # Errors
    ///
    /// * [`SearchError::DimMismatch`] if `w`'s dimension disagrees with the
    ///   stencil's.
    /// * [`SearchError::Isg`] on coordinate overflow while walking the
    ///   cone, or when a functional's value at a walked offset leaves
    ///   `i128`.
    /// * [`SearchError::Exhausted`] when `budget` runs out mid-query; the
    ///   memo-table cap counts as exhaustion when a needed insertion would
    ///   exceed it.
    pub fn in_done_budgeted(&self, w: &IVec, budget: &Budget) -> Result<bool, SearchError> {
        self.in_done_slice_budgeted(w.as_slice(), budget)
    }

    /// [`DoneOracle::in_done_budgeted`] on raw coordinates — the
    /// allocation-free entry point the search and certifier drive with
    /// scratch buffers.
    pub(crate) fn in_done_slice_budgeted(
        &self,
        w: &[i64],
        budget: &Budget,
    ) -> Result<bool, SearchError> {
        if w.len() != self.stencil.dim() {
            return Err(SearchError::DimMismatch {
                stencil: self.stencil.dim(),
                domain: w.len(),
            });
        }
        budget.charge()?;
        let mut memo = self.memo.borrow_mut();
        let key = memo.dense.window().index(w);
        if let Eval::Decided(b) = self.quick_eval(&memo, w, key)? {
            return Ok(b);
        }
        self.in_cone_dfs(&mut memo, w, key, budget)
    }

    /// Inspect one node without expanding: base cases, functional cuts, and
    /// the memo tiers. `key` is the node's dense window index, computed
    /// once by the caller and reused for the verdict write. A functional
    /// value that leaves `i128` is an [`IsgError::Overflow`], as a
    /// coordinate that leaves `i64` is in the walk: a wrapped sum could
    /// flip the sign a cut reads.
    #[inline]
    fn quick_eval(&self, memo: &Memo, w: &[i64], key: Option<usize>) -> Result<Eval, SearchError> {
        if w.iter().all(|&c| c == 0) {
            return Ok(Eval::Decided(true));
        }
        if try_dot_i128_slices(self.phi.as_slice(), w)? < 0 {
            return Ok(Eval::Decided(false));
        }
        // Dual-cone cuts: a functional non-negative on every generator is
        // non-negative on the whole cone.
        for f in &self.prunes {
            if try_dot_i128_slices(f.as_slice(), w)? < 0 {
                return Ok(Eval::Decided(false));
            }
        }
        Ok(match memo.get(w, key) {
            Some(verdict) => Eval::Decided(verdict),
            None => Eval::Expand,
        })
    }

    /// Iterative memoised DFS over the cone: an explicit frame stack
    /// replaces recursion so adversarial NPC instances cannot overflow the
    /// call stack, and the budget is charged per expanded node.
    ///
    /// Frame coordinates live in one flat scratch arena (frame `i` owns
    /// `coords[i·d .. (i+1)·d]`), so the walk allocates nothing per node;
    /// each child is a single linearized `w − vᵢ` sweep into the arena.
    ///
    /// Termination: φ·(w − v) ≤ φ·w − 1, so every edge strictly decreases
    /// φ and the frame chain is acyclic.
    fn in_cone_dfs(
        &self,
        memo: &mut Memo,
        w: &[i64],
        key: Option<usize>,
        budget: &Budget,
    ) -> Result<bool, SearchError> {
        let d = self.stencil.dim();
        let m = self.stencil.len();
        let vectors = self.stencil.vectors();
        let mut coords: Vec<i64> = Vec::with_capacity(32 * d);
        coords.extend_from_slice(w);
        // Per frame: (next child index, dense window key of the frame).
        let mut frames: Vec<(usize, Option<usize>)> = vec![(0, key)];
        loop {
            let depth = frames.len() - 1;
            let base = depth * d;
            let child_idx = frames[depth].0;
            if child_idx >= m {
                // Every child failed: this node is not in the cone.
                let key = frames[depth].1;
                memo.record_computed(&coords[base..base + d], key, false, budget)?;
                frames.pop();
                coords.truncate(base);
                if frames.is_empty() {
                    return Ok(false);
                }
                continue;
            }
            frames[depth].0 += 1;
            // child = frame − vᵢ, one linearized sweep into the arena.
            let v = vectors[child_idx].as_slice();
            let child_base = coords.len();
            for j in 0..d {
                let c = coords[base + j]
                    .checked_sub(v[j])
                    .ok_or(IsgError::Overflow("vector subtraction"))?;
                coords.push(c);
            }
            budget.charge()?;
            let child_key = memo.dense.window().index(&coords[child_base..]);
            match self.quick_eval(memo, &coords[child_base..], child_key)? {
                Eval::Decided(true) => {
                    // The whole ancestor chain is in the cone. Memoise what
                    // fits under the cap — the answer is already decided, so
                    // a full table only costs future queries, not this one.
                    for (f, &(_, key)) in frames.iter().enumerate() {
                        if budget.check_memo(memo.len()).is_err() {
                            break;
                        }
                        memo.store(&coords[f * d..(f + 1) * d], key, true);
                    }
                    return Ok(true);
                }
                Eval::Decided(false) => coords.truncate(child_base),
                Eval::Expand => frames.push((0, child_key)),
            }
        }
    }

    /// Whether the offset `w = q − p` places `p` in `DEAD(V, q)`:
    /// every reader `p + vᵢ` of `p`'s value is itself in `DONE(V, q)`.
    ///
    /// Equivalent to `w ∈ UOV(V)` (paper §3.1): by definition the UOV set
    /// is exactly the set of offsets to DEAD iterations.
    pub fn in_dead(&self, w: &IVec) -> bool {
        match self.in_dead_budgeted(w, &Budget::unlimited()) {
            Ok(b) => b,
            Err(e) => panic!("oracle query failed: {e}"),
        }
    }

    /// Budgeted [`DoneOracle::in_dead`]; see [`DoneOracle::in_done_budgeted`]
    /// for the error conditions.
    pub fn in_dead_budgeted(&self, w: &IVec, budget: &Budget) -> Result<bool, SearchError> {
        let mut buf = Vec::with_capacity(w.dim());
        self.in_dead_slice_budgeted(w.as_slice(), &mut buf, budget)
    }

    /// [`DoneOracle::in_dead_budgeted`] on raw coordinates: each reader
    /// offset `w − vᵢ` is one linearized subtraction sweep into the
    /// caller's scratch buffer — no per-reader allocation. Readers are
    /// checked in stencil order with early exit, exactly like the
    /// vector-based path, so budget accounting is identical.
    pub(crate) fn in_dead_slice_budgeted(
        &self,
        w: &[i64],
        buf: &mut Vec<i64>,
        budget: &Budget,
    ) -> Result<bool, SearchError> {
        for v in self.stencil.iter() {
            diff_into(w, v.as_slice(), buf)?;
            if !self.in_done_slice_budgeted(buf, budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether `w` is a universal occupancy vector for the stencil.
    ///
    /// Alias of [`DoneOracle::in_dead`], named after the question callers
    /// actually ask.
    pub fn is_uov(&self, w: &IVec) -> bool {
        self.in_dead(w)
    }

    /// Budgeted [`DoneOracle::is_uov`]; see [`DoneOracle::in_done_budgeted`]
    /// for the error conditions.
    pub fn is_uov_budgeted(&self, w: &IVec, budget: &Budget) -> Result<bool, SearchError> {
        self.in_dead_budgeted(w, budget)
    }

    /// Enumerate `DONE(V, q) ∩ domain` — used to visualise Figure 2 of the
    /// paper and by exhaustive tests.
    ///
    /// # Panics
    ///
    /// Panics if dimensions of `q`, the domain and the stencil disagree.
    pub fn done_points(&self, q: &IVec, domain: &dyn IterationDomain) -> Vec<IVec> {
        domain.points().filter(|p| self.in_done(&(q - p))).collect()
    }

    /// Enumerate `DEAD(V, q) ∩ domain` (Figure 2's squares).
    ///
    /// # Panics
    ///
    /// Panics if dimensions of `q`, the domain and the stencil disagree.
    pub fn dead_points(&self, q: &IVec, domain: &dyn IterationDomain) -> Vec<IVec> {
        domain.points().filter(|p| self.in_dead(&(q - p))).collect()
    }

    /// Enumerate every UOV whose components all lie in `[-radius, radius]`.
    ///
    /// Exponential in dimension; intended for tests and exhaustive
    /// cross-validation of the branch-and-bound search.
    pub fn uovs_within(&self, radius: i64) -> Vec<IVec> {
        assert!(radius >= 0, "radius must be non-negative");
        let d = self.stencil.dim();
        let unlimited = Budget::unlimited();
        let mut out = Vec::new();
        let mut cur = vec![-radius; d];
        let mut buf = Vec::with_capacity(d);
        loop {
            // Every UOV is a non-trivial cone member, hence lex-positive;
            // candidates are tested in place and only hits allocate.
            if is_lex_positive_slice(&cur) {
                match self.in_dead_slice_budgeted(&cur, &mut buf, &unlimited) {
                    Ok(true) => out.push(IVec::from(cur.as_slice())),
                    Ok(false) => {}
                    Err(e) => panic!("oracle query failed: {e}"),
                }
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

    /// Number of memoised cone-membership entries across both tiers
    /// (for diagnostics/benches and the certifier's witness count).
    pub fn cache_len(&self) -> usize {
        self.memo.borrow().len()
    }
}

/// The dense verdict window for one stencil: per dimension, reach
/// `64 · φ·Σvᵢ` steps of the largest generator component in either
/// direction (the same headroom factor the search's φ-cap uses), shrunk
/// to the entry budget. Purely a performance knob — out-of-window
/// queries spill to the hash map with identical verdicts.
fn query_window(stencil: &Stencil, phi: &IVec) -> Window {
    let d = stencil.dim();
    let mut strength: i128 = 0;
    for v in stencil.iter() {
        strength = strength.saturating_add(phi.dot_i128(v));
    }
    let reach = strength.clamp(1, 1 << 20).saturating_mul(64) as u128;
    let mut lo = vec![0i64; d];
    let mut hi = vec![0i64; d];
    for k in 0..d {
        let widest = stencil
            .iter()
            .map(|v| v[k].unsigned_abs())
            .max()
            .unwrap_or(1)
            .max(1);
        let r = reach
            .saturating_mul(widest as u128)
            .min(i64::MAX as u128 / 8) as i64;
        lo[k] = -r;
        hi[k] = r;
    }
    Window::from_bounds(&lo, &hi, ORACLE_WINDOW_ENTRIES)
}

/// Functionals that are non-negative on every stencil vector.
///
/// * In 2-D the cone of lexicographically positive generators is salient
///   (it spans strictly less than a half-plane), so the two functionals
///   perpendicular to its angular extreme vectors describe it *exactly*:
///   `t ∈ cone(V) ⟹ cross(lo, t) ≥ 0 ∧ cross(t, hi) ≥ 0`.
/// * In any dimension, an axis functional `±e_k` qualifies whenever every
///   generator's `k`-th component has one sign.
fn dual_cone_functionals(stencil: &Stencil) -> Vec<IVec> {
    let mut out = Vec::new();
    let d = stencil.dim();
    if d == 2 {
        // Both rotations of each angular extreme; the validity filter
        // below keeps exactly the inward-facing pair. The functionals are
        // an optional optimisation, so extremes whose rotation is not
        // representable (an i64::MIN component) are simply skipped.
        let ext = stencil.extreme_vectors();
        for e in ext.first().into_iter().chain(ext.last()) {
            if let (Some(nx), Some(ny)) = (e[1].checked_neg(), e[0].checked_neg()) {
                out.push(IVec::from([nx, e[0]]));
                out.push(IVec::from([e[1], ny]));
            }
        }
    }
    for k in 0..d {
        if stencil.iter().all(|v| v[k] >= 0) {
            out.push(IVec::unit(d, k));
        } else if stencil.iter().all(|v| v[k] <= 0) {
            out.push(-IVec::unit(d, k));
        }
    }
    // Keep only functionals actually valid on every generator (the 2-D
    // pair always is; this guards against extreme-vector edge cases).
    out.retain(|f| stencil.iter().all(|v| f.dot_i128(v) >= 0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::{ivec, RectDomain};

    fn fig1_oracle() -> DoneOracle {
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap();
        DoneOracle::new(&s)
    }

    fn stencil5_oracle() -> DoneOracle {
        let s = Stencil::new(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ])
        .unwrap();
        DoneOracle::new(&s)
    }

    #[test]
    fn zero_is_in_done() {
        assert!(fig1_oracle().in_done(&ivec![0, 0]));
    }

    #[test]
    fn stencil_vectors_are_in_done() {
        let o = fig1_oracle();
        for v in o.stencil().vectors().to_vec() {
            assert!(o.in_done(&v));
        }
    }

    #[test]
    fn done_closed_under_addition() {
        let o = fig1_oracle();
        assert!(o.in_done(&ivec![2, 1]));
        assert!(o.in_done(&ivec![3, 3]));
        assert!(o.in_done(&ivec![5, 2]));
    }

    #[test]
    fn non_members_rejected() {
        // For the Fig-1 stencil the cone is the whole first quadrant, so the
        // non-members are exactly the offsets with a negative component.
        let o = fig1_oracle();
        assert!(!o.in_done(&ivec![-1, 0]));
        assert!(!o.in_done(&ivec![0, -1]));
        assert!(!o.in_done(&ivec![3, -1]));
        assert!(!o.in_done(&ivec![-2, 5]));
        assert!(o.in_done(&ivec![1, 2]));
        assert!(o.in_done(&ivec![2, 3]));
    }

    #[test]
    fn cone_with_negative_component_vectors() {
        // {(1,-2), (1,2)}: the quadrant is NOT all reachable; e.g. (1,0)
        // needs half-integer coefficients.
        let s = Stencil::new(vec![ivec![1, -2], ivec![1, 2]]).unwrap();
        let o = DoneOracle::new(&s);
        assert!(o.in_done(&ivec![2, 0]));
        assert!(!o.in_done(&ivec![1, 0]));
        assert!(o.in_done(&ivec![2, 4]));
        assert!(!o.in_done(&ivec![2, 3]));
        assert!(!o.in_done(&ivec![0, 2]));
    }

    #[test]
    fn fig1_uov_is_1_1() {
        let o = fig1_oracle();
        assert!(o.is_uov(&ivec![1, 1]));
        assert!(!o.is_uov(&ivec![1, 0]));
        assert!(!o.is_uov(&ivec![0, 1]));
        assert!(!o.is_uov(&ivec![0, 0]));
        // The initial UOV (sum) is always universal.
        assert!(o.is_uov(&ivec![2, 2]));
    }

    #[test]
    fn stencil5_uov_is_2_0() {
        // Figure 5 of the paper: the optimal UOV of the 5-point stencil is
        // (2, 0), which is non-prime.
        let o = stencil5_oracle();
        assert!(o.is_uov(&ivec![2, 0]));
        assert!(!o.is_uov(&ivec![1, 0]));
        for j in -2..=2 {
            assert!(
                !o.is_uov(&ivec![1, j]),
                "single time step (1,{j}) must not be a UOV"
            );
        }
    }

    #[test]
    fn uov_implies_done() {
        let o = fig1_oracle();
        for w in o.uovs_within(4) {
            assert!(o.in_done(&w), "UOV {w} must itself be a DONE offset");
        }
    }

    #[test]
    fn uovs_within_fig1_small_radius() {
        let o = fig1_oracle();
        let uovs = o.uovs_within(2);
        assert!(uovs.contains(&ivec![1, 1]));
        assert!(uovs.contains(&ivec![2, 1]));
        assert!(uovs.contains(&ivec![1, 2]));
        assert!(uovs.contains(&ivec![2, 2]));
        assert!(!uovs.contains(&ivec![1, 0]));
        assert!(!uovs.contains(&ivec![0, 1]));
    }

    #[test]
    fn done_points_fig2_style() {
        // DONE(V, q) within a window behind q grows as the dependence cone.
        let o = fig1_oracle();
        let q = ivec![5, 5];
        let dom = RectDomain::new(ivec![3, 3], ivec![5, 7]);
        let done = o.done_points(&q, &dom);
        assert!(done.contains(&ivec![5, 5])); // q itself
        assert!(done.contains(&ivec![4, 4]));
        assert!(done.contains(&ivec![3, 3])); // offset (2,2) ∈ cone
        assert!(!done.contains(&ivec![5, 6])); // offset (0,−1) ∉ cone
        assert!(!done.contains(&ivec![4, 7])); // offset (1,−2) ∉ cone
    }

    #[test]
    fn dead_points_are_subset_of_done_points() {
        let o = fig1_oracle();
        let q = ivec![6, 6];
        let dom = RectDomain::new(ivec![1, 1], ivec![6, 6]);
        let done = o.done_points(&q, &dom);
        let dead = o.dead_points(&q, &dom);
        for p in &dead {
            assert!(done.contains(p), "DEAD ⊆ DONE violated at {p}");
        }
        assert!(dead.len() < done.len());
    }

    #[test]
    fn cache_is_reused() {
        let o = fig1_oracle();
        assert!(o.in_done(&ivec![4, 4]));
        let after_first = o.cache_len();
        assert!(after_first > 0);
        assert!(o.in_done(&ivec![4, 4]));
        assert_eq!(o.cache_len(), after_first);
    }

    #[test]
    fn one_dimensional_stencil() {
        let s = Stencil::new(vec![ivec![1], ivec![3]]).unwrap();
        let o = DoneOracle::new(&s);
        assert!(o.in_done(&ivec![7])); // 1+3+3 or 7·1
        assert!(!o.in_done(&ivec![-1]));
        // UOV: w−1 ∈ cone and w−3 ∈ cone; cone = all non-negative ints here.
        assert!(o.is_uov(&ivec![3]));
        assert!(o.is_uov(&ivec![4]));
        assert!(!o.is_uov(&ivec![2])); // 2−3 = −1 ∉ cone
    }

    #[test]
    fn budgeted_queries_agree_with_unlimited() {
        let o = stencil5_oracle();
        let b = Budget::unlimited();
        for w in [ivec![2, 0], ivec![1, 0], ivec![3, 1], ivec![0, 0]] {
            assert_eq!(
                o.is_uov_budgeted(&w, &b).unwrap(),
                o.is_uov(&w),
                "mismatch at {w}"
            );
        }
        assert!(b.nodes_charged() > 0);
    }

    #[test]
    fn node_budget_exhausts_oracle_query() {
        let s = Stencil::new(vec![ivec![1, -2], ivec![1, 2]]).unwrap();
        let o = DoneOracle::new(&s);
        let b = Budget::unlimited().with_max_nodes(2);
        let r = o.in_done_budgeted(&ivec![40, 0], &b);
        assert_eq!(
            r,
            Err(SearchError::Exhausted(crate::budget::Exhausted::Nodes))
        );
    }

    #[test]
    fn memo_budget_exhausts_during_memoization() {
        // A membership test that fails only deep in the walk generates many
        // memo entries; capping the table must surface Exhausted::Memo.
        let s = Stencil::new(vec![ivec![1, -2], ivec![1, 2]]).unwrap();
        let o = DoneOracle::new(&s);
        let b = Budget::unlimited().with_max_memo_entries(1);
        let r = o.in_done_budgeted(&ivec![9, 1], &b);
        assert_eq!(
            r,
            Err(SearchError::Exhausted(crate::budget::Exhausted::Memo))
        );
        assert!(o.cache_len() <= 1);
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let o = fig1_oracle();
        assert!(matches!(
            o.in_done_budgeted(&ivec![1, 2, 3], &Budget::unlimited()),
            Err(SearchError::DimMismatch {
                stencil: 2,
                domain: 3
            })
        ));
    }

    #[test]
    fn try_new_rejects_overflowing_functional() {
        // max_abs near i64::MAX in 2-D: φ's base c·d + 1 overflows.
        let s = Stencil::new(vec![ivec![1, i64::MAX], ivec![1, -i64::MAX]]).unwrap();
        assert!(matches!(DoneOracle::try_new(&s), Err(SearchError::Isg(_))));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // A long, thin cone walk: the iterative DFS must handle a chain far
        // deeper than any safe recursion depth.
        let s = Stencil::new(vec![ivec![0, 1], ivec![1, 0]]).unwrap();
        let o = DoneOracle::new(&s);
        assert!(o.in_done(&ivec![500_000, 1]));
    }

    #[test]
    fn three_dimensional_stencil() {
        let s = Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![0, 0, 1]]).unwrap();
        let o = DoneOracle::new(&s);
        assert!(o.in_done(&ivec![2, 3, 1]));
        assert!(!o.in_done(&ivec![1, -1, 1]));
        assert!(o.is_uov(&ivec![1, 1, 1]));
        assert!(!o.is_uov(&ivec![1, 1, 0]));
    }
}

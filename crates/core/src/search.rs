//! Branch-and-bound search for the optimal universal occupancy vector
//! (paper §3.2).
//!
//! The search space is the set of offsets reachable from an arbitrary
//! origin by walking *backwards* along value dependences; an offset is a
//! UOV once every stencil dependence has been traversed on some path to it
//! (the paper's `PATHSET = V` condition, equivalent to the DEAD-set
//! definition). The search:
//!
//! 1. starts from the trivially legal initial UOV `ov₀ = Σ vᵢ`
//!    ([`initial_uov`]), so a valid answer exists from the first moment —
//!    a compiler may stop the search at any time and keep the best so far;
//! 2. explores offsets in best-first order using a priority queue keyed by
//!    the objective (squared length, or storage-class count when the loop
//!    bounds are known);
//! 3. prunes offsets that provably cannot lead to a better UOV than the
//!    incumbent, using the stencil's positive functional `φ`: every
//!    backward step increases `φ·w` by at least 1, and by Cauchy–Schwarz
//!    `|u| ≥ φ·u / |φ|` bounds the length of every descendant — the
//!    lattice analogue of the paper's bounding parallelepiped (Figure 4).
//!
//! For the known-bounds objective the pruning additionally uses two
//! dimension-independent facts about a domain with `N` points and
//! diameter `diam`. A class (a line of iterations in direction `u`) holds
//! at most `diam/|u| + 1` points, so the class count is at least
//! `N·|u| / (diam + |u|)`. And an offset longer than `diam` joins no two
//! iterations, so it costs exactly `N`: once the incumbent costs `N`, only
//! its length can beat such offsets, and they are pruned when they are
//! strictly longer. Without that second fact a domain on which nothing
//! beats `N` would keep every long offset alive until the exploration cap.
//!
//! Every rule is monotone in `φ·child`, and the region they leave shrinks
//! only when the incumbent improves. So the engine folds them into one
//! threshold, the largest `φ·child` that survives the incumbent
//! (`phi_bound_of`), computed at start, on resume and on each
//! improvement; a child then costs one `i128` comparison, and the square
//! roots and divisions of the rules never run per child.
//!
//! # One worker
//!
//! The branch-and-bound is one best-first worker on the calling thread:
//! one priority queue, one PATHSET table ([`MaskTable`]) and one
//! incumbent. Candidates are compared by the total order `(cost, ‖w‖²,
//! lexicographic w)`, and the pruning rules only discard children that
//! provably cannot *reach* the final key (strict inequality against the
//! bound), so the returned `(uov, cost)` is the key-minimum over a
//! candidate set that does not depend on visit order. The node order, and
//! with it every [`SearchStats`] counter, is a function of the problem.
//!
//! # Checkpoint/resume
//!
//! With [`SearchConfig::checkpoint`] set, the engine snapshots its state
//! — frontier, PATHSET table, incumbent, counters and budget progress —
//! to disk after the first `interval` processed nodes, then each time the
//! nodes processed since the last snapshot reach the nodes processed
//! before it, and once more when it stops, using the crash-safe format of
//! [`crate::checkpoint`]. [`search_resume`]
//! restores a snapshot and continues. Because the snapshot captures a
//! *valid* search state (every discovered-but-unexpanded path is in the
//! frontier, including the entry in hand when the run was cut short),
//! the canonical-order argument applies across the interruption: a
//! search killed at any point and resumed from its latest snapshot
//! returns the byte-identical `(uov, cost)` of an uninterrupted run.
//! Snapshots are written between nodes, so no expansion is ever torn
//! across a file.
//!
//! # Panic isolation
//!
//! The run is under `catch_unwind`: a panicking node evaluation (for
//! example a user-supplied [`IterationDomain`] that panics) surfaces as a
//! typed [`SearchError::WorkerPanic`] instead of aborting the process.
//! The final checkpoint (if configured) is still written, and children
//! are costed *before* they touch the PATHSET table so a caught panic can
//! never leave a merged-but-never-queued offset behind.

use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use uov_isg::vec::{try_dot_i128_slices, try_norm_sq_slice};
use uov_isg::{IVec, IsgError, IterationDomain, Stencil};

use crate::budget::{Budget, Degradation, Exhausted};
use crate::checkpoint::{self, CheckpointConfig, CheckpointError, Snapshot};
use crate::dense::{MaskTable, Window};
use crate::error::SearchError;
use crate::objective::{storage_class_count, ClassCounter};
use crate::oracle::diff_into;

/// What the search minimises.
///
/// The paper (§3.2): with unknown loop bounds, find the shortest UOV; with
/// known bounds, minimise the actual storage — a longer OV can win
/// (Figure 3).
#[derive(Debug, Clone, Copy)]
pub enum Objective<'a> {
    /// Minimise the Euclidean length of the UOV (squared, exactly).
    ShortestVector,
    /// Minimise the number of storage-equivalence classes on the given
    /// domain.
    KnownBounds(&'a dyn IterationDomain),
}

/// Tunables for [`find_best_uov`].
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Resource budget (deadline, node cap, memo cap, cancellation). When
    /// it runs out the search degrades to the best incumbent — at worst the
    /// always-legal initial UOV — and records a [`Degradation`] in the
    /// result. A node cap is the paper's "a compiler could limit the
    /// amount of time the algorithm runs and just take the best answer
    /// found so far".
    pub budget: Budget,
    /// Ignored: the search is one worker on the calling thread (see the
    /// module docs). The field remains only so that existing struct
    /// literals naming it still compile, and will be deleted.
    pub threads: usize,
    /// Crash-safe snapshots: `Some` writes the search state to the given
    /// path at gaps that start at `interval` processed nodes and double
    /// (see [`CheckpointConfig::interval`]), and once more when the search
    /// stops, ready for [`search_resume`]. `None` (the default)
    /// disables checkpointing. Snapshot write failures never fail the
    /// search; the first one is reported in
    /// [`SearchResult::checkpoint_error`] and disables further writes.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            budget: Budget::default(),
            threads: 1,
            checkpoint: None,
        }
    }
}

/// Counters describing a finished search, for the ablation experiments.
///
/// The counters are a function of the problem. A search that its budget's
/// node cap, deadline or cancellation stopped, resumed from its final
/// snapshot, reports the counters of an uninterrupted run: the node in
/// hand at the stop is counted when the resumed run visits it. (Offsets
/// outside the dense PATHSET window are re-keyed on resume, so equal-cost
/// ties among them may then pop in another order.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Offsets extracted from the priority queue.
    pub visited: u64,
    /// Queue insertions (including PATHSET-growth re-insertions).
    pub pushed: u64,
    /// Times the incumbent bound improved.
    pub improvements: u64,
    /// Children cut off by the cost bound.
    pub pruned: u64,
    /// Children cut off by the hard exploration cap (see
    /// [`find_best_uov`]); non-zero only for known-bounds searches on long,
    /// thin domains, or for candidates whose coordinates overflow `i64` or
    /// whose functional value `φ·w` overflows `i128`.
    pub capped: u64,
    /// Whether the search ran to exhaustion (false if the budget ran out).
    pub complete: bool,
}

/// Result of [`find_best_uov`].
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best universal occupancy vector found.
    pub uov: IVec,
    /// Its objective value (squared length, or storage-class count).
    pub cost: u128,
    /// Search statistics.
    pub stats: SearchStats,
    /// Present iff the budget cut the search short; the UOV above is still
    /// legal, merely possibly non-optimal.
    pub degradation: Option<Degradation>,
    /// Present iff a configured checkpoint write failed. The search
    /// result itself is unaffected — checkpointing is best-effort
    /// durability, never a correctness dependency.
    pub checkpoint_error: Option<CheckpointError>,
}

/// The trivially computed initial UOV `ov₀ = Σ vᵢ` (paper §3.2.1).
///
/// Always universal: for each `vᵢ`, `ov₀ − vᵢ = Σ_{j≠i} vⱼ` is a
/// non-negative combination of stencil vectors.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, Stencil};
/// use uov_core::search::initial_uov;
///
/// let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
/// assert_eq!(initial_uov(&s), ivec![2, 2]);
/// # Ok::<(), uov_isg::StencilError>(())
/// ```
pub fn initial_uov(stencil: &Stencil) -> IVec {
    stencil.sum()
}

pub(crate) fn cost_of(objective: &Objective<'_>, w: &IVec) -> u128 {
    match objective {
        Objective::ShortestVector => w.norm_sq() as u128,
        Objective::KnownBounds(domain) => storage_class_count(*domain, w) as u128,
    }
}

/// The cost of `w` under `objective`, with overflow reported instead of
/// panicking; the searches use this so one adversarial candidate cannot
/// sink the whole run, and the service's plan cache uses it to re-cost
/// permuted answers.
pub fn try_cost_of(objective: &Objective<'_>, w: &IVec) -> Result<u128, IsgError> {
    ObjectiveCost::new(objective).try_cost(w.as_slice(), &mut Vec::new())
}

/// An [`Objective`] ready to cost many candidates: a known-bounds domain's
/// extreme points are read once, so with a scratch buffer the caller
/// reuses, each cost is free of heap allocation.
pub(crate) enum ObjectiveCost<'a> {
    ShortestVector,
    KnownBounds(ClassCounter<'a, dyn IterationDomain + 'a>),
}

impl<'a> ObjectiveCost<'a> {
    pub(crate) fn new(objective: &Objective<'a>) -> Self {
        match *objective {
            Objective::ShortestVector => ObjectiveCost::ShortestVector,
            Objective::KnownBounds(domain) => ObjectiveCost::KnownBounds(ClassCounter::new(domain)),
        }
    }

    /// The objective value of `w` ([`try_cost_of`]); `scratch` holds the
    /// known-bounds lattice reduction.
    pub(crate) fn try_cost(&self, w: &[i64], scratch: &mut Vec<i64>) -> Result<u128, IsgError> {
        match self {
            ObjectiveCost::ShortestVector => try_norm_sq_slice(w).map(|n| n as u128),
            ObjectiveCost::KnownBounds(counter) => counter.try_count(w, scratch).map(u128::from),
        }
    }
}

/// Floor square root, by Newton's iteration from `2^⌈bits(n)/2⌉`: at
/// least `√n`, so the iterates fall monotonically to the floor root.
fn isqrt(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let bits = u128::BITS - n.leading_zeros();
    let mut x = 1u128 << bits.div_ceil(2);
    let mut y = (x + n / x) / 2;
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// Geometry of the known-bounds objective, precomputed once.
struct DomainFacts {
    /// Number of iteration points `N`.
    num_points: u128,
    /// Ceiling of the domain's diameter (max pairwise vertex distance).
    diam: u128,
}

impl DomainFacts {
    /// Read `N`, and the diameter from the extreme points the counter
    /// already holds.
    fn try_new(counter: &ClassCounter<'_, dyn IterationDomain + '_>) -> Result<Self, SearchError> {
        let domain = counter.domain();
        let vertices = counter.vertices()?;
        let d = domain.dim();
        let mut diff = Vec::with_capacity(d);
        let mut diam_sq: u128 = 0;
        for (i, a) in vertices.chunks_exact(d).enumerate() {
            for b in vertices.chunks_exact(d).skip(i + 1) {
                diff_into(a, b, &mut diff)?;
                diam_sq = diam_sq.max(try_norm_sq_slice(&diff)? as u128);
            }
        }
        Ok(DomainFacts {
            num_points: domain.num_points() as u128,
            diam: isqrt(diam_sq) + 1,
        })
    }

    /// The least length bound `λ` — a lower bound on the squared length
    /// of a child and of all its descendants — at which every descendant
    /// provably costs more than an incumbent of cost `best` and squared
    /// length `norm`; `None` if no bound is large enough. With
    /// `l = ⌊√λ⌋`, two rules prune, and `⌊√λ⌋ ≥ T ⇔ λ ≥ T²` makes each a
    /// least `λ`:
    ///
    /// * The class bound. A class holds at most `diam/l + 1` points, so
    ///   there are at least `N·l/(diam + l)` classes, which exceeds `best`
    ///   iff `N·l > best·(diam + l)`, that is iff `N > best` and
    ///   `l ≥ ⌊best·diam/(N − best)⌋ + 1`.
    /// * The cost-N rule. An offset longer than the diameter (`l > diam`,
    ///   so `λ ≥ (diam + 1)²`) joins no two iterations, so it and every
    ///   descendant cost exactly N. That is worse than an incumbent below
    ///   N, and worse than one of cost N only if strictly longer
    ///   (`λ > norm`). The class bound already covers this rule once the
    ///   incumbent costs at most N/2, and the rule prunes in none of the
    ///   `plan` benchmark's searches.
    ///
    /// Both comparisons are strict, so candidates that merely *tie* the
    /// incumbent survive to the lexicographic tie-break — that is what
    /// makes the answer independent of visit order.
    fn prune_len_sq(&self, best: u128, norm: i128) -> Option<u128> {
        let n = self.num_points;
        let past_diam = self.diam.checked_add(1).and_then(|t| t.checked_mul(t));
        match n.cmp(&best) {
            Ordering::Less => None,
            Ordering::Equal => {
                let norm = u128::try_from(norm).ok()?;
                past_diam.map(|len_sq| len_sq.max(norm + 1))
            }
            Ordering::Greater => {
                // best·diam fits u128 on every real domain (N and diam
                // stay below 2⁶⁴). Where it would not, T > 2⁶⁴ and T²
                // leaves u128 as well: no length reaches the class bound.
                let class = best.checked_mul(self.diam).and_then(|x| {
                    let t = x / (n - best) + 1;
                    t.checked_mul(t)
                });
                class.into_iter().chain(past_diam).min()
            }
        }
    }
}

/// The largest `φ·child` that survives an incumbent of cost `best` and
/// squared length `norm`, the threshold [`Engine::expand`] prunes against:
/// a child with `φ·child > phi_bound_of(…)` is pruned.
///
/// Every descendant `u` of a child satisfies `|u|² ≥ (φ·u)²/|φ|² ≥
/// λ = ⌊min((φ·child)², u128::MAX)/|φ|²⌋`, the square saturating where
/// `φ·child ≥ 2⁶⁴`. Under the shortest-vector objective the child loses
/// once `λ > best`; under known bounds once `λ` reaches
/// [`DomainFacts::prune_len_sq`]. With that least `λ` called `A` and
/// `X = A·|φ|²`: `⌊q/|φ|²⌋ ≥ A ⇔ q ≥ X`, and for `X ≤ u128::MAX` the
/// saturated square reaches `X` iff `(φ·child)² ≥ X ⇔ φ·child > ⌊√(X−1)⌋`.
/// No square reaches an `X` past `u128::MAX`; then, as when no `A`
/// exists, the bound is `i128::MAX`, which no `φ·child` exceeds.
///
/// `isqrt` and the u128 arithmetic run here, when the incumbent changes,
/// never per child.
fn phi_bound_of(facts: Option<&DomainFacts>, phi_norm_sq: u128, best: u128, norm: i128) -> i128 {
    let len_sq = match facts {
        None => best.checked_add(1),
        Some(facts) => facts.prune_len_sq(best, norm),
    };
    match len_sq.and_then(|a| a.checked_mul(phi_norm_sq)) {
        // ⌊√(X − 1)⌋ < 2⁶⁴: the cast is exact.
        Some(x) => isqrt(x.saturating_sub(1)) as i128,
        None => i128::MAX,
    }
}

/// Find the minimum-cost universal occupancy vector for `stencil`.
///
/// Implements Algorithm *Visit* of the paper (§3.2.2): best-first traversal
/// of backward value dependences with per-offset `PATHSET`s; an offset
/// whose PATHSET covers the whole stencil is a UOV and may tighten the
/// incumbent bound, which in turn shrinks the search region.
///
/// The returned vector is always a legal UOV. It is *optimal* for the
/// objective whenever `stats.complete` is true and `stats.capped == 0`:
///
/// * `complete == false` means the budget cut the search short;
///   `result.degradation` says which limit and how far it got;
/// * `capped > 0` can only occur for [`Objective::KnownBounds`], where a
///   hard cap stops exploration at offsets 64× the functional value of the
///   initial UOV, or when individual candidates overflowed `i64` and were
///   discarded. The cap is a backstop: pruning alone ends every search,
///   because an offset longer than the domain's diameter costs exactly `N`
///   and is pruned against any incumbent it cannot beat. The cap still
///   cuts offsets on long, thin domains, where the class bound stays loose
///   up to the diameter (deep8 on 16×4096 caps 36 children).
///
/// # Errors
///
/// * [`SearchError::TooManyVectors`] for stencils beyond 63 vectors
///   (PATHSETs are `u64` bitmasks).
/// * [`SearchError::DimMismatch`] when the objective's domain dimension
///   differs from the stencil's.
/// * [`SearchError::Isg`] when the stencil itself is out of numeric range
///   (positive functional or initial UOV overflows `i64`).
///
/// Budget exhaustion is **not** an error: the search returns the best
/// incumbent with a [`Degradation`] record attached.
///
/// # Examples
///
/// ```
/// use uov_isg::{ivec, Stencil};
/// use uov_core::search::{find_best_uov, Objective, SearchConfig};
///
/// // The 5-point stencil of the paper's §5: the optimal UOV is (2, 0).
/// let s = Stencil::new(vec![
///     ivec![1, -2], ivec![1, -1], ivec![1, 0], ivec![1, 1], ivec![1, 2],
/// ])?;
/// let best = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())?;
/// assert_eq!(best.uov, ivec![2, 0]);
/// assert!(best.stats.complete);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_best_uov(
    stencil: &Stencil,
    objective: Objective<'_>,
    config: &SearchConfig,
) -> Result<SearchResult, SearchError> {
    search_seeded(None, stencil, &objective, config)
}

/// Resume a search from a snapshot written by a previous (interrupted or
/// completed) run with the same stencil, objective and checkpoint path.
///
/// The snapshot's fingerprint must match the live `(stencil, objective)`
/// pair, and the restored state is structurally re-validated (costs
/// recomputed, PATHSET masks range-checked, frontier cross-checked
/// against the PATHSET table) before any search work happens. The
/// restored node count is folded into `config.budget`, so a cumulative
/// `max_nodes` cap holds across arbitrarily many interrupt/resume
/// cycles.
///
/// Determinism: an interrupted-then-resumed search that runs to
/// completion returns the identical `(uov, cost)` as an uninterrupted
/// one — see the module docs.
///
/// # Errors
///
/// Everything [`find_best_uov`] reports, plus
/// [`SearchError::Checkpoint`] when the file cannot be read, fails
/// validation ([`CheckpointError::Corrupt`]) or belongs to a different
/// problem ([`CheckpointError::StencilMismatch`]).
pub fn search_resume(
    path: &Path,
    stencil: &Stencil,
    objective: Objective<'_>,
    config: &SearchConfig,
) -> Result<SearchResult, SearchError> {
    let snap = checkpoint::read_snapshot(path)?;
    search_seeded(Some(snap), stencil, &objective, config)
}

/// Validate the problem and precompute the per-search constants.
fn validated_setup<'a>(
    stencil: &Stencil,
    objective: &Objective<'a>,
) -> Result<Setup<'a>, SearchError> {
    if let Objective::KnownBounds(domain) = objective {
        if domain.dim() != stencil.dim() {
            return Err(SearchError::DimMismatch {
                stencil: stencil.dim(),
                domain: domain.dim(),
            });
        }
    }
    let cost = ObjectiveCost::new(objective);
    let domain_facts = match &cost {
        ObjectiveCost::KnownBounds(counter) => Some(DomainFacts::try_new(counter)?),
        ObjectiveCost::ShortestVector => None,
    };
    let m = stencil.len();
    if m > 63 {
        return Err(SearchError::TooManyVectors(m));
    }
    let phi = stencil.try_positive_functional()?;
    let initial = stencil.try_sum()?;
    let phi_norm_sq = phi.try_norm_sq()? as u128;
    // Hard exploration cap, a backstop: pruning alone already ends every
    // known-bounds search (see `DomainFacts::prune_len_sq`). It saturates
    // where `64·φ·Σvᵢ` leaves i128.
    let phi_cap = try_dot_i128_slices(phi.as_slice(), initial.as_slice())
        .map_or(i128::MAX, |x| x.max(1).saturating_mul(64));
    let initial_cost = cost.try_cost(initial.as_slice(), &mut Vec::new())?;
    let initial_norm = initial.try_norm_sq().unwrap_or(i128::MAX);
    // No child past the first incumbent's threshold, nor past the cap,
    // is ever merged, so a window reaching that far covers every node
    // unless the entry budget halves it.
    let first_bound = phi_bound_of(
        domain_facts.as_ref(),
        phi_norm_sq,
        initial_cost,
        initial_norm,
    );
    let window = search_window(stencil, first_bound.min(phi_cap));
    Ok(Setup {
        cost,
        domain_facts,
        dim: stencil.dim(),
        full: (1u64 << m) - 1,
        phi_norm_sq,
        phi_cap,
        phi_v: stencil.iter().map(|v| phi.dot_i128(v)).collect(),
        window,
        phi,
        initial_cost,
        initial_norm,
        initial,
    })
}

/// Entry budget of the search's dense PATHSET window.
const SEARCH_WINDOW_ENTRIES: usize = 1 << 20;

/// Size the dense PATHSET window from the functional reachability bound.
///
/// Every queued offset is a sum of stencil vectors, and each backward step
/// raises `φ·w` by at least 1. No child with `φ·w` past `max_phi` is
/// merged: the caller passes the smaller of the exploration cap and the
/// first incumbent's pruning threshold ([`phi_bound_of`]), which only
/// falls as the incumbent improves. So the step count, and with it every
/// coordinate, is bounded. The window changes no answer: offsets outside
/// it (degenerate domains, foreign resumed frontiers, near-overflow
/// coordinates, the far side of a window halved to its entry budget) spill
/// to the hash tier, which keeps the same PATHSET unions. Spill keys order
/// equal-cost ties by discovery, not by `lex w`, so on a search with
/// spilled nodes another window size can expand tied nodes in another
/// order and change `pushed` and `visited`.
fn search_window(stencil: &Stencil, max_phi: i128) -> Window {
    let steps = max_phi.clamp(1, 1 << 20) as i64;
    let dim = stencil.dim();
    let mut lo = vec![0i64; dim];
    let mut hi = vec![0i64; dim];
    for v in stencil.iter() {
        for (k, &c) in v.as_slice().iter().enumerate() {
            if c > 0 {
                hi[k] = hi[k].max(c);
            } else {
                lo[k] = lo[k].min(c);
            }
        }
    }
    for k in 0..dim {
        hi[k] = hi[k].saturating_mul(steps);
        lo[k] = lo[k].saturating_mul(steps);
    }
    Window::from_bounds(&lo, &hi, SEARCH_WINDOW_ENTRIES)
}

/// A search starting state: either the origin seed of a fresh run or the
/// restored state of a snapshot. The engine always starts from one of
/// these, which is what makes resume "just another search".
struct SeedState {
    /// PATHSET union per discovered offset.
    known: HashMap<IVec, u64>,
    /// Live queue entries `(cost, offset, pathset)`.
    frontier: Vec<(u128, IVec, u64)>,
    /// Incumbent under the canonical total order.
    incumbent: (u128, i128, IVec),
    /// Statistics carried over from before the interruption.
    base: SearchStats,
    /// Budget nodes already charged before the interruption.
    nodes_charged: u64,
}

impl SeedState {
    /// The fresh-start state: the origin with an empty PATHSET, and the
    /// always-legal initial UOV `Σvᵢ` as incumbent.
    fn fresh(setup: &Setup) -> Self {
        let origin = IVec::zero(setup.dim);
        let mut known = HashMap::new();
        known.insert(origin.clone(), 0);
        SeedState {
            known,
            frontier: vec![(0, origin, 0)],
            incumbent: (
                setup.initial_cost,
                setup.initial_norm,
                setup.initial.clone(),
            ),
            base: SearchStats {
                pushed: 1,
                complete: true,
                ..SearchStats::default()
            },
            nodes_charged: 0,
        }
    }

    /// Restore a snapshot, re-validating every structural invariant the
    /// engine relies on. CRCs catch accidental corruption; these checks
    /// catch semantic damage a CRC-valid file could still carry.
    fn from_snapshot(setup: &Setup<'_>, snap: Snapshot) -> Result<Self, SearchError> {
        fn corrupt(msg: &str) -> SearchError {
            SearchError::Checkpoint(CheckpointError::Corrupt(msg.to_string()))
        }
        if snap.dim != setup.dim {
            return Err(corrupt("snapshot dimension does not match the stencil"));
        }
        if snap.incumbent.dim() != setup.dim {
            return Err(corrupt("incumbent dimension mismatch"));
        }
        let mut scratch = Vec::new();
        let recomputed = setup
            .cost
            .try_cost(snap.incumbent.as_slice(), &mut scratch)
            .map_err(|_| corrupt("incumbent cost is not recomputable"))?;
        if recomputed != snap.incumbent_cost {
            return Err(corrupt("incumbent cost mismatch"));
        }
        let mut known = HashMap::with_capacity(snap.known.len());
        for (w, mask) in snap.known {
            if w.dim() != setup.dim {
                return Err(corrupt("PATHSET offset dimension mismatch"));
            }
            if mask & !setup.full != 0 {
                return Err(corrupt("PATHSET mask references nonexistent vectors"));
            }
            if known.insert(w, mask).is_some() {
                return Err(corrupt("duplicate PATHSET offset"));
            }
        }
        let mut frontier = Vec::with_capacity(snap.frontier.len());
        for (cost, w, mask) in snap.frontier {
            if w.dim() != setup.dim {
                return Err(corrupt("frontier offset dimension mismatch"));
            }
            if known.get(&w).copied() != Some(mask) {
                return Err(corrupt(
                    "frontier entry inconsistent with the PATHSET table",
                ));
            }
            // The origin is queued at cost 0 under every objective (see
            // `SeedState::fresh`); a run stopped while expanding it leaves
            // it in the frontier, though the zero vector has no class count.
            let recomputed = if w.is_zero() {
                0
            } else {
                setup
                    .cost
                    .try_cost(w.as_slice(), &mut scratch)
                    .map_err(|_| corrupt("frontier cost is not recomputable"))?
            };
            if recomputed != cost {
                return Err(corrupt("frontier cost mismatch"));
            }
            frontier.push((cost, w, mask));
        }
        let norm = snap.incumbent.try_norm_sq().unwrap_or(i128::MAX);
        let base = SearchStats {
            complete: true,
            ..snap.stats
        };
        Ok(SeedState {
            known,
            frontier,
            incumbent: (snap.incumbent_cost, norm, snap.incumbent),
            base,
            nodes_charged: snap.nodes_charged,
        })
    }
}

/// Validated per-search constants. The incumbent starts at the initial
/// UOV `Σvᵢ`, legal from the first moment (§3.2.1).
struct Setup<'a> {
    /// The objective, costing candidates on the engine's scratch buffer.
    cost: ObjectiveCost<'a>,
    /// Pruning geometry; `Some` iff the objective has known bounds.
    domain_facts: Option<DomainFacts>,
    dim: usize,
    full: u64,
    phi: IVec,
    phi_norm_sq: u128,
    phi_cap: i128,
    /// `φ·vₖ` per stencil vector, so a child's functional value is one
    /// addition away from its parent's.
    phi_v: Vec<i128>,
    /// Dense window of the PATHSET node pool (see [`search_window`]).
    window: Window,
    initial: IVec,
    initial_cost: u128,
    initial_norm: i128,
}

/// The canonical candidate order: objective cost, then squared length,
/// then lexicographic. A *total* order over candidates, so the minimum of
/// any discovered set is independent of discovery order — this is what
/// lets a resumed search land on the answer of an uninterrupted one.
#[cfg(test)]
fn improves(cost: u128, w: &IVec, best: &(u128, i128, IVec)) -> bool {
    improves_slice(cost, w.as_slice(), best)
}

/// [`improves`] on scratch coordinates — no allocation on the hot path.
fn improves_slice(cost: u128, w: &[i64], best: &(u128, i128, IVec)) -> bool {
    match cost.cmp(&best.0) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => {
            let norm = try_norm_sq_slice(w).unwrap_or(i128::MAX);
            match norm.cmp(&best.1) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => w < best.2.as_slice(),
            }
        }
    }
}

/// The priority queue: min-heap over `Copy` `(cost, node key, pathset)`
/// triples — node coordinates live in the [`MaskTable`], not in the
/// queue. An in-window key orders like `lex w`, so for dense traffic the
/// heap breaks cost ties lexicographically. An entry is re-pushed
/// whenever its PATHSET grows (Visit step 2).
type WorkQueue = BinaryHeap<Reverse<(u128, u64, u64)>>;

/// The state of one best-first branch-and-bound run.
struct Engine<'a> {
    stencil: &'a Stencil,
    setup: &'a Setup<'a>,
    budget: &'a Budget,
    queue: WorkQueue,
    /// The PATHSET node pool: dense cells over the reachability window,
    /// hash spill outside it. Its length is the memo-cap measure.
    store: MaskTable,
    /// Incumbent under the canonical total order.
    incumbent: (u128, i128, IVec),
    /// The largest `φ·child` no pruning rule cuts against the incumbent
    /// ([`phi_bound_of`]); set at start and on every improvement.
    phi_bound: i128,
    /// Counters so far, including those carried over from a resumed
    /// snapshot, so every snapshot records the whole run's.
    stats: SearchStats,
    /// Why the budget stopped the run, if it did.
    stop: Option<Exhausted>,
    /// The entry popped but not yet fully expanded. A run stopped mid-node
    /// (budget, memo cap, panic) leaves it here, and snapshots include it
    /// so no subtree is lost.
    in_hand: Option<(u128, u64, u64)>,
    /// Snapshot target, with the problem fingerprint stamped on every
    /// snapshot; `None` disables snapshots entirely.
    ckpt: Option<(&'a CheckpointConfig, u64)>,
    /// Fully processed nodes since the last snapshot.
    since_snapshot: u64,
    /// The first snapshot write failure; no snapshot is written after it.
    ckpt_error: Option<CheckpointError>,
}

impl Engine<'_> {
    /// Offer a UOV candidate to the incumbent; true if it improved. An
    /// improvement moves the pruning threshold with it.
    fn offer(&mut self, cost: u128, w: &[i64]) -> bool {
        if !improves_slice(cost, w, &self.incumbent) {
            return false;
        }
        let norm = try_norm_sq_slice(w).unwrap_or(i128::MAX);
        self.incumbent = (cost, norm, IVec::from(w));
        self.phi_bound = phi_bound_of(
            self.setup.domain_facts.as_ref(),
            self.setup.phi_norm_sq,
            cost,
            norm,
        );
        true
    }

    /// Expand one offset's children (paper Visit step 2) into the queue,
    /// building each child in `cbuf` and costing it on `scratch`. Stops
    /// with the memo cap's [`Exhausted`] if the cap cuts the expansion
    /// short — the caller then keeps the parent in hand.
    fn expand(
        &mut self,
        w: &[i64],
        mask: u64,
        cbuf: &mut Vec<i64>,
        scratch: &mut Vec<i64>,
    ) -> Result<(), Exhausted> {
        let (stencil, setup) = (self.stencil, self.setup);
        // One parent functional value serves every child:
        // φ·(w+vₖ) = φ·w + φ·vₖ. A functional value that leaves i128
        // caps the child, as a coordinate that leaves i64 does.
        let phi_w = try_dot_i128_slices(setup.phi.as_slice(), w).ok();
        for (k, v) in stencil.iter().enumerate() {
            cbuf.clear();
            for (i, &c) in v.as_slice().iter().enumerate() {
                match w[i].checked_add(c) {
                    Some(x) => cbuf.push(x),
                    None => break,
                }
            }
            if cbuf.len() != setup.dim {
                self.stats.capped += 1;
                continue;
            }
            let Some(phi_child) = phi_w.and_then(|p| p.checked_add(setup.phi_v[k])) else {
                self.stats.capped += 1;
                continue;
            };
            debug_assert!(phi_child > 0, "functional must grow along dependences");
            // Every descendant is provably worse than the incumbent (see
            // `phi_bound_of`).
            if phi_child > self.phi_bound {
                self.stats.pruned += 1;
                continue;
            }
            if phi_child > setup.phi_cap {
                self.stats.capped += 1;
                continue;
            }
            let child_mask = mask | (1 << k);
            match self.store.probe(cbuf) {
                // This path adds nothing to the PATHSET.
                Some(p) if p | child_mask == p => continue,
                Some(_) => {}
                None => self.budget.check_memo(self.store.len())?,
            }
            // Cost the child *before* touching the PATHSET table: the
            // only step that can panic (a user-supplied domain) runs
            // while the state is still consistent, so a caught panic can
            // never leave a merged-but-never-queued offset behind (which
            // a snapshot would then silently drop). An overflowing cost
            // discards the candidate like a capped offset.
            let Ok(child_cost) = setup.cost.try_cost(cbuf, scratch) else {
                self.stats.capped += 1;
                continue;
            };
            let out = self.store.merge(cbuf, child_mask);
            if out.grew {
                self.queue.push(Reverse((child_cost, out.key, out.merged)));
                self.stats.pushed += 1;
            }
        }
        Ok(())
    }

    /// Pop and expand until the queue drains or the budget stops the run.
    fn run(&mut self) {
        // Scratch buffers reused across every pop and child: coordinates,
        // and the lattice reduction that costs a known-bounds child.
        let dim = self.setup.dim;
        let mut wbuf: Vec<i64> = Vec::with_capacity(dim);
        let mut cbuf: Vec<i64> = Vec::with_capacity(dim);
        let mut scratch: Vec<i64> = Vec::with_capacity(dim * dim);
        while let Some(Reverse(entry @ (cost, key, mask))) = self.queue.pop() {
            // Skip stale entries: a fresher push carries the grown PATHSET.
            if self.store.mask_of(key) != Some(mask) || !self.store.coords_of(key, &mut wbuf) {
                continue;
            }
            self.in_hand = Some(entry);
            // A node counts as visited only once the budget admits it, so
            // the node a stop leaves in hand is counted once, on resume.
            if let Err(reason) = self.budget.charge() {
                self.stop = Some(reason);
                return;
            }
            self.stats.visited += 1;
            if mask == self.setup.full && self.offer(cost, &wbuf) {
                self.stats.improvements += 1;
            }
            if let Err(reason) = self.expand(&wbuf, mask, &mut cbuf, &mut scratch) {
                self.stop = Some(reason);
                return;
            }
            self.in_hand = None;
            self.note_progress();
        }
    }

    /// Count one fully processed node towards the next snapshot, writing
    /// it when [`snapshot_due`].
    fn note_progress(&mut self) {
        let Some((cfg, fingerprint)) = self.ckpt else {
            return;
        };
        self.since_snapshot += 1;
        if self.ckpt_error.is_none()
            && snapshot_due(self.since_snapshot, self.stats.visited, cfg.interval)
        {
            self.since_snapshot = 0;
            self.write_snapshot(cfg, fingerprint);
        }
    }

    /// Write the live state to `cfg.path`, keeping the first failure.
    fn write_snapshot(&mut self, cfg: &CheckpointConfig, fingerprint: u64) {
        if let Err(e) = checkpoint::write_snapshot(&cfg.path, &self.snapshot(fingerprint)) {
            self.ckpt_error = Some(e);
        }
    }

    /// Collect the live state into a snapshot: the queue's live entries,
    /// the entry in hand, the PATHSET table, the incumbent and the
    /// counters. Keys decode back to coordinate vectors here, at the
    /// engine boundary — the `UOVCKPT1` wire format stays
    /// layout-independent.
    fn snapshot(&self, fingerprint: u64) -> Snapshot {
        let mut coords = Vec::new();
        let mut frontier: Vec<(u128, IVec, u64)> = Vec::new();
        let queued = self.queue.iter().map(|Reverse(entry)| entry);
        for &(cost, key, mask) in queued.chain(&self.in_hand) {
            if self.store.mask_of(key) == Some(mask) && self.store.coords_of(key, &mut coords) {
                frontier.push((cost, IVec::from(coords.as_slice()), mask));
            }
        }
        Snapshot {
            fingerprint,
            dim: self.setup.dim,
            incumbent_cost: self.incumbent.0,
            incumbent: self.incumbent.2.clone(),
            frontier,
            known: self.store.entries(),
            nodes_charged: self.budget.nodes_charged(),
            stats: self.stats.clone(),
        }
    }
}

/// Whether a snapshot is due `since` nodes after the last one, with
/// `visited` nodes visited in all, a resumed run's included: the gaps
/// start at `interval` and double (see [`CheckpointConfig::interval`]).
fn snapshot_due(since: u64, visited: u64, interval: u64) -> bool {
    since >= interval.max(1).max(visited.saturating_sub(since))
}

/// The runner behind every entry point: validate the problem, seed the
/// engine from `seed` (a snapshot, checked against the live problem) or
/// from the origin, and run it on the calling thread.
///
/// The run is under `catch_unwind`: a panic still writes the final
/// checkpoint and surfaces as `Err(SearchError::WorkerPanic)`.
fn search_seeded(
    seed: Option<Snapshot>,
    stencil: &Stencil,
    objective: &Objective<'_>,
    config: &SearchConfig,
) -> Result<SearchResult, SearchError> {
    let setup = validated_setup(stencil, objective)?;
    // Only snapshots carry the problem's fingerprint, so a search that
    // neither resumes nor writes one never hashes the problem.
    let fingerprint = || crate::fingerprint(stencil, objective);
    let seed = match seed {
        None => SeedState::fresh(&setup),
        Some(snap) if snap.fingerprint != fingerprint() => {
            return Err(SearchError::Checkpoint(CheckpointError::StencilMismatch {
                expected: fingerprint(),
                found: snap.fingerprint,
            }));
        }
        Some(snap) => {
            let state = SeedState::from_snapshot(&setup, snap)?;
            config.budget.restore_nodes_charged(state.nodes_charged);
            state
        }
    };
    let mut engine = Engine {
        stencil,
        setup: &setup,
        budget: &config.budget,
        queue: WorkQueue::with_capacity(seed.frontier.len()),
        store: MaskTable::new(setup.window.clone()),
        phi_bound: phi_bound_of(
            setup.domain_facts.as_ref(),
            setup.phi_norm_sq,
            seed.incumbent.0,
            seed.incumbent.1,
        ),
        incumbent: seed.incumbent,
        stats: seed.base,
        stop: None,
        in_hand: None,
        ckpt: config.checkpoint.as_ref().map(|cfg| (cfg, fingerprint())),
        since_snapshot: 0,
        ckpt_error: None,
    };
    for (w, mask) in &seed.known {
        engine.store.merge(w.as_slice(), *mask);
    }
    for (cost, w, mask) in &seed.frontier {
        let key = match engine.store.key_of(w.as_slice()) {
            Some(key) => key,
            None => engine.store.merge(w.as_slice(), *mask).key,
        };
        engine.queue.push(Reverse((*cost, key, *mask)));
    }

    let panic = catch_unwind(AssertUnwindSafe(|| engine.run()))
        .err()
        .map(|payload| panic_message(payload.as_ref()));
    let degradation = engine.stop.map(|reason| {
        engine.stats.complete = false;
        config.budget.degradation(
            reason,
            engine.store.len(),
            engine.incumbent.2 == setup.initial,
        )
    });
    // Final snapshot, including the entry in hand of a stopped or
    // panicked run.
    if let Some((cfg, fingerprint)) = engine.ckpt {
        if engine.ckpt_error.is_none() {
            engine.write_snapshot(cfg, fingerprint);
        }
    }
    if let Some(payload) = panic {
        return Err(SearchError::WorkerPanic { payload });
    }
    let (cost, _, uov) = engine.incumbent;
    Ok(SearchResult {
        uov,
        cost,
        stats: engine.stats,
        degradation,
        checkpoint_error: engine.ckpt_error,
    })
}

/// Render a caught panic payload as text: the conventional `&str` and
/// `String` payloads verbatim, anything else a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Exhaustively enumerate every UOV with components in `[-radius, radius]`
/// and return the cheapest (ties broken by squared length, then
/// lexicographically). Cross-validation reference for [`find_best_uov`].
///
/// Returns `None` if no UOV lies within the box (radius too small).
pub fn exhaustive_best_uov(
    stencil: &Stencil,
    objective: Objective<'_>,
    radius: i64,
) -> Option<SearchResult> {
    let oracle = crate::DoneOracle::new(stencil);
    let mut best: Option<(u128, i128, IVec)> = None;
    for w in oracle.uovs_within(radius) {
        let key = (cost_of(&objective, &w), w.norm_sq(), w);
        if best.as_ref().map(|b| key < *b).unwrap_or(true) {
            best = Some(key);
        }
    }
    best.map(|(cost, _, uov)| SearchResult {
        uov,
        cost,
        stats: SearchStats {
            complete: true,
            ..SearchStats::default()
        },
        degradation: None,
        checkpoint_error: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use uov_isg::{ivec, Polygon2, RectDomain};

    fn fig1() -> Stencil {
        Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap()
    }

    fn stencil5() -> Stencil {
        Stencil::new(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ])
        .unwrap()
    }

    #[test]
    fn initial_uov_is_always_universal() {
        for s in [fig1(), stencil5()] {
            let oracle = crate::DoneOracle::new(&s);
            assert!(oracle.is_uov(&initial_uov(&s)));
        }
    }

    #[test]
    fn fig1_best_uov_is_1_1() {
        let best =
            find_best_uov(&fig1(), Objective::ShortestVector, &SearchConfig::default()).unwrap();
        assert_eq!(best.uov, ivec![1, 1]);
        assert_eq!(best.cost, 2);
        assert!(best.stats.complete);
        assert!(best.degradation.is_none());
        assert!(best.stats.improvements >= 1);
    }

    #[test]
    fn stencil5_best_uov_is_2_0() {
        let best = find_best_uov(
            &stencil5(),
            Objective::ShortestVector,
            &SearchConfig::default(),
        )
        .unwrap();
        assert_eq!(best.uov, ivec![2, 0]);
        assert_eq!(best.cost, 4);
        assert!(best.stats.complete);
    }

    #[test]
    fn result_is_always_a_uov() {
        for s in [
            fig1(),
            stencil5(),
            Stencil::new(vec![ivec![2, 1], ivec![1, 3]]).unwrap(),
            Stencil::new(vec![ivec![1, -1], ivec![1, 1], ivec![2, 0]]).unwrap(),
            Stencil::new(vec![ivec![0, 1], ivec![1, -3]]).unwrap(),
        ] {
            let oracle = crate::DoneOracle::new(&s);
            let best =
                find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
            assert!(
                oracle.is_uov(&best.uov),
                "search returned non-UOV {}",
                best.uov
            );
        }
    }

    #[test]
    fn matches_exhaustive_shortest() {
        for s in [
            fig1(),
            stencil5(),
            Stencil::new(vec![ivec![2, 1], ivec![1, 3]]).unwrap(),
            Stencil::new(vec![ivec![1, -1], ivec![1, 1]]).unwrap(),
            Stencil::new(vec![ivec![1], ivec![2]]).unwrap(),
            Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![0, 0, 1]]).unwrap(),
        ] {
            let bb =
                find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
            let ex =
                exhaustive_best_uov(&s, Objective::ShortestVector, 8).expect("radius large enough");
            assert_eq!(bb.cost, ex.cost, "cost mismatch for {s:?}");
        }
    }

    #[test]
    fn known_bounds_fig3_prefers_longer_vector() {
        // The crux of Figure 3: with the skewed ISG, the storage-minimal
        // UOV can differ from the shortest one.
        let s = Stencil::new(vec![ivec![1, -1], ivec![1, 0], ivec![1, 1], ivec![0, 1]]).unwrap();
        let isg = Polygon2::fig3_isg();
        let shortest =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        let storage =
            find_best_uov(&s, Objective::KnownBounds(&isg), &SearchConfig::default()).unwrap();
        let oracle = crate::DoneOracle::new(&s);
        assert!(oracle.is_uov(&storage.uov));
        // The storage-optimal choice is at least as good on storage.
        let shortest_storage = crate::objective::storage_class_count(&isg, &shortest.uov) as u128;
        assert!(storage.cost <= shortest_storage);
    }

    #[test]
    fn known_bounds_matches_exhaustive() {
        let grid = RectDomain::grid(6, 9);
        for s in [fig1(), stencil5()] {
            let bb =
                find_best_uov(&s, Objective::KnownBounds(&grid), &SearchConfig::default()).unwrap();
            let ex = exhaustive_best_uov(&s, Objective::KnownBounds(&grid), 8).unwrap();
            assert_eq!(bb.cost, ex.cost, "storage cost mismatch for {s:?}");
            assert_eq!(bb.stats.capped, 0);
        }
    }

    #[test]
    fn known_bounds_terminates_on_degenerate_domain() {
        // A single-point domain: every candidate costs 1.
        let dom = RectDomain::new(ivec![0, 0], ivec![0, 0]);
        let res = find_best_uov(
            &fig1(),
            Objective::KnownBounds(&dom),
            &SearchConfig::default(),
        )
        .unwrap();
        assert_eq!(res.cost, 1);
        let oracle = crate::DoneOracle::new(&fig1());
        assert!(oracle.is_uov(&res.uov));
        // In 3-D the class bound N·L/(diam+L) never reaches N, so while the
        // incumbent costs N only the beyond-diameter rule can end these
        // searches short of the exploration cap, millions of nodes out.
        let unit = Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![0, 0, 1]]).unwrap();
        let point = RectDomain::new(ivec![0, 0, 0], ivec![0, 0, 0]);
        for (s, dom) in [(unit, point), box162()] {
            let config = SearchConfig {
                budget: Budget::unlimited().with_max_nodes(100_000),
                ..SearchConfig::default()
            };
            let res = find_best_uov(&s, Objective::KnownBounds(&dom), &config).unwrap();
            assert!(res.stats.complete, "{s:?}: {:?}", res.stats);
            let ex = exhaustive_best_uov(&s, Objective::KnownBounds(&dom), 8).unwrap();
            assert_eq!((&res.uov, res.cost), (&ex.uov, ex.cost), "{s:?}");
        }
    }

    /// Four 3-D vectors on a box of 162 points, on which no UOV costs
    /// less than N = 162.
    fn box162() -> (Stencil, RectDomain) {
        let s = Stencil::new(vec![
            ivec![1, 1, 1],
            ivec![1, 2, 1],
            ivec![2, -1, 0],
            ivec![2, 0, 2],
        ])
        .unwrap();
        (s, RectDomain::new(ivec![1, 1, 1], ivec![3, 9, 6]))
    }

    #[test]
    fn dim_mismatch_is_an_error() {
        let dom = RectDomain::grid(4, 4);
        let s = Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![0, 0, 1]]).unwrap();
        let err =
            find_best_uov(&s, Objective::KnownBounds(&dom), &SearchConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            SearchError::DimMismatch {
                stencil: 3,
                domain: 2
            }
        ));
    }

    #[test]
    fn node_budget_truncates_with_degradation() {
        let s = stencil5();
        let oracle = crate::DoneOracle::new(&s);
        for cap in [1, 2] {
            let config = SearchConfig {
                budget: Budget::unlimited().with_max_nodes(cap),
                ..SearchConfig::default()
            };
            let res = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
            assert!(!res.stats.complete);
            assert!(
                oracle.is_uov(&res.uov),
                "even a truncated search must return a UOV"
            );
            let d = res
                .degradation
                .expect("budget truncation must record degradation");
            assert_eq!(d.reason, Exhausted::Nodes);
            assert!(d.nodes_at_stop >= cap);
            // One node is the origin alone: nothing beats Σvᵢ yet.
            if cap == 1 {
                assert_eq!(res.uov, initial_uov(&s));
                assert!(d.fell_back_to_initial);
            }
        }
    }

    #[test]
    fn deadline_budget_truncates_with_degradation() {
        let s = stencil5();
        let oracle = crate::DoneOracle::new(&s);
        let config = SearchConfig {
            budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
            ..SearchConfig::default()
        };
        let res = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
        assert!(!res.stats.complete);
        assert!(oracle.is_uov(&res.uov));
        let d = res
            .degradation
            .expect("expired deadline must record degradation");
        assert_eq!(d.reason, Exhausted::Deadline);
        assert!(d.fell_back_to_initial);
        assert_eq!(res.uov, initial_uov(&s));
    }

    #[test]
    fn cancellation_token_truncates_with_degradation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = stencil5();
        let oracle = crate::DoneOracle::new(&s);
        let token = Arc::new(AtomicBool::new(true));
        token.store(true, Ordering::Relaxed);
        let config = SearchConfig {
            budget: Budget::unlimited().with_cancel_token(token),
            ..SearchConfig::default()
        };
        let res = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
        assert!(!res.stats.complete);
        assert!(oracle.is_uov(&res.uov));
        let d = res
            .degradation
            .expect("cancelled search must record degradation");
        assert_eq!(d.reason, Exhausted::Cancelled);
    }

    #[test]
    fn memo_budget_truncates_with_degradation() {
        let s = stencil5();
        let oracle = crate::DoneOracle::new(&s);
        let config = SearchConfig {
            budget: Budget::unlimited().with_max_memo_entries(2),
            ..SearchConfig::default()
        };
        let res = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
        assert!(!res.stats.complete);
        assert!(oracle.is_uov(&res.uov));
        let d = res.degradation.expect("memo cap must record degradation");
        assert_eq!(d.reason, Exhausted::Memo);
        assert!(d.memo_entries_at_stop >= 2);
    }

    #[test]
    fn generous_budget_still_finds_optimum() {
        let config = SearchConfig {
            budget: Budget::unlimited()
                .with_max_nodes(1_000_000)
                .with_deadline(std::time::Duration::from_secs(60)),
            ..SearchConfig::default()
        };
        let best = find_best_uov(&stencil5(), Objective::ShortestVector, &config).unwrap();
        assert_eq!(best.uov, ivec![2, 0]);
        assert!(best.stats.complete);
        assert!(best.degradation.is_none());
    }

    #[test]
    fn stats_are_populated() {
        let res =
            find_best_uov(&fig1(), Objective::ShortestVector, &SearchConfig::default()).unwrap();
        assert!(res.stats.visited > 0);
        assert!(res.stats.pushed > 0);
        assert!(res.stats.pruned > 0);
    }

    #[test]
    fn isqrt_exactness() {
        let is_floor_root =
            |n: u128, r: u128| r * r <= n && (r + 1).checked_mul(r + 1).is_none_or(|s| s > n);
        for n in 0u128..2000 {
            let r = isqrt(n);
            assert!(is_floor_root(n, r), "isqrt({n}) = {r}");
        }
        assert_eq!(isqrt(u128::from(u64::MAX)), 4294967295);
        // k² − 1, k², k² + 1 for k across the whole u64 range: every power
        // of two and its neighbours, a geometric sweep, and the top.
        let mut ks: Vec<u64> = (0..64)
            .flat_map(|b| {
                let p = 1u64 << b;
                [p - 1, p, p + 1]
            })
            .collect();
        let mut k = 3u64;
        while let Some(next) = k.checked_mul(7).map(|x| x / 3) {
            ks.push(k);
            k = next;
        }
        ks.extend([u64::MAX - 1, u64::MAX]);
        for k in ks {
            let k = u128::from(k);
            let sq = k * k;
            for n in [sq.saturating_sub(1), sq, sq + 1] {
                let r = isqrt(n);
                assert!(is_floor_root(n, r), "isqrt({n}) = {r}");
            }
            assert_eq!(isqrt(sq), k);
        }
        assert_eq!(isqrt(u128::MAX), u128::from(u64::MAX));
    }

    /// The per-child rule [`phi_bound_of`] replaced, kept as the reference
    /// the threshold must equal: the body of `Engine::child_dominated`,
    /// with those of `DomainFacts::dominated` and `loses_at_cost_n`, on
    /// the length bound `len_sq_lb = ⌊min((φ·child)², u128::MAX)/|φ|²⌋`.
    /// Where the product `best·(diam + l)` leaves u128 the old body
    /// panicked in debug builds and compared against the wrapped product
    /// in release. The exact comparison is false there, since `N·l` stays
    /// below 2¹²⁸; the reference answers that and counts it in `overflows`.
    fn reference_dominated(
        facts: Option<&DomainFacts>,
        best: u128,
        norm: i128,
        len_sq_lb: u128,
        overflows: &mut u32,
    ) -> bool {
        let Some(facts) = facts else {
            return len_sq_lb > best;
        };
        let l = isqrt(len_sq_lb); // floor → weaker bounds → sound
        let n = facts.num_points;
        let dominated = match best.checked_mul(facts.diam + l) {
            Some(product) => n * l > product,
            None => {
                *overflows += 1;
                false
            }
        };
        let loses_at_cost_n =
            n > best || (n == best && u128::try_from(norm).is_ok_and(|norm| len_sq_lb > norm));
        dominated || (l > facts.diam && loses_at_cost_n)
    }

    /// Check the threshold against [`reference_dominated`] for one
    /// incumbent, at `φ·child` on either side of the threshold, around
    /// 2⁶⁴ (where the square saturates), at the ends of the range and at
    /// `extra`; return the threshold.
    fn check_threshold(
        facts: Option<&DomainFacts>,
        phi_norm_sq: u128,
        (best, norm): (u128, i128),
        extra: &[i128],
        overflows: &mut u32,
    ) -> i128 {
        let bound = phi_bound_of(facts, phi_norm_sq, best, norm);
        let around = |x: i128| [x.saturating_sub(1), x, x.saturating_add(1)];
        let probes = around(bound)
            .into_iter()
            .chain(around(1 << 64))
            .chain([1, 2, i128::MAX])
            .chain(extra.iter().copied());
        for phi in probes.filter(|&phi| phi >= 1) {
            let len_sq_lb = (phi as u128).saturating_mul(phi as u128) / phi_norm_sq;
            assert_eq!(
                phi > bound,
                reference_dominated(facts, best, norm, len_sq_lb, overflows),
                "φ·child {phi}, |φ|² {phi_norm_sq}, best {best}, norm {norm}, \
                 (N, diam) {:?}: threshold {bound}",
                facts.map(|f| (f.num_points, f.diam)),
            );
        }
        bound
    }

    fn seed_from_env() -> u64 {
        std::env::var("UOV_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_0D1F)
    }

    /// A draw spread over magnitudes: a bit length up to `bits`, then a
    /// value of at most that length.
    fn wide(rng: &mut StdRng, bits: u32) -> u128 {
        let len = rng.gen_range(0..=bits);
        let raw = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        raw.checked_shr(128 - len).unwrap_or(0)
    }

    /// The threshold prunes exactly the children the per-child rule did,
    /// on random incumbents, domains and functionals of every magnitude,
    /// under both objectives.
    #[test]
    fn phi_bound_matches_the_per_child_rule() {
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xF1_B0D);
        // Near the top of u64, where the old body's product overflows.
        let top = |rng: &mut StdRng| u128::from(u64::MAX) - wide(rng, 16);
        let mut overflows = 0;
        for _ in 0..20_000 {
            let phi_norm_sq = match rng.gen_range(0u32..4) {
                0 => 1 + wide(&mut rng, 8),
                _ => wide(&mut rng, 72).max(1),
            };
            let extra = [wide(&mut rng, 127) as i128, wide(&mut rng, 66) as i128];
            // Shortest vector: the incumbent's cost is its squared length.
            let best = wide(&mut rng, 127);
            let incumbent = (best, best as i128);
            check_threshold(None, phi_norm_sq, incumbent, &extra, &mut overflows);
            // Known bounds: N fits u64 and the diameter is at least 1. The
            // incumbent costs less than N mostly, exactly N often, and
            // more now and then.
            let facts = match rng.gen_range(0u32..4) {
                0 => DomainFacts {
                    num_points: top(&mut rng),
                    diam: top(&mut rng),
                },
                _ => DomainFacts {
                    num_points: wide(&mut rng, 64),
                    diam: wide(&mut rng, 64).max(1),
                },
            };
            let n = facts.num_points;
            let best = match rng.gen_range(0u32..8) {
                0 | 1 => n,
                2 => n + wide(&mut rng, 8),
                _ => u128::from(rng.gen_range(0..=n as u64)),
            };
            let norm = match rng.gen_range(0u32..4) {
                0 => i128::MAX,
                _ => wide(&mut rng, 127) as i128,
            };
            check_threshold(
                Some(&facts),
                phi_norm_sq,
                (best, norm),
                &extra,
                &mut overflows,
            );
        }
        assert!(overflows > 0, "no draw reached the old product's overflow");
    }

    /// The threshold at the edges: `φ·child` around 2⁶⁴, where its square
    /// saturates; incumbents of cost N, cost 0 and above N; a norm of
    /// `i128::MAX`; N = `u64::MAX`, where the old body's product leaves
    /// u128; |φ|² = 1; both objectives.
    #[test]
    fn phi_bound_edges_match_the_per_child_rule() {
        let facts = |num_points, diam| Some(DomainFacts { num_points, diam });
        let (big, max) = (u128::from(u64::MAX), u128::MAX);
        let never = i128::MAX;
        // (domain (N, diam), |φ|², (best, norm), threshold)
        let rows = [
            // Shortest vector: pruned once ⌊(φ·child)²/|φ|²⌋ > best.
            (None, 1, (0, 0), 0),
            (None, 1, (24, 24), 4),
            (None, 2, (4, 4), 3),
            // Only the saturated square exceeds best: φ·child ≥ 2⁶⁴.
            (None, 1, (max - 1, never), (1 << 64) - 1),
            (None, 3, (max / 3 - 1, never), (1 << 64) - 1),
            // Nothing exceeds it.
            (None, 1, (max, never), never),
            (None, 3, (max / 3, never), never),
            // Cost N: past the diameter (λ ≥ 16²) and longer than norm.
            (facts(100, 15), 2, (100, 200), 22),
            (facts(100, 15), 1, (100, never), 13_043_817_825_332_782_212),
            (facts(100, 15), 2, (100, never), never),
            // Cost 0: a child loses once ⌊(φ·child)²/|φ|²⌋ ≥ 1, as any
            // class count is at least 1.
            (facts(100, 15), 2, (0, 0), 1),
            (facts(100, 15), max, (0, 0), (1 << 64) - 1),
            // The class bound: 100·l > 25·(15 + l) from l = 6, not at 5.
            (facts(100, 15), 1, (25, 9), 5),
            (facts(100, 15), 1, (50, 9), 15),
            // Above N nothing prunes.
            (facts(100, 15), 2, (101, 0), never),
            // N = u64::MAX: best·(diam + l) leaves u128 for large l.
            (facts(big, 1 << 63), 1, (big - 1, 0), 1 << 63),
            (facts(big, 1), 1, (big - 1, 0), 1),
            (facts(big, big), 1, (big, 0), never),
        ];
        let mut overflows = 0;
        for (facts, phi_norm_sq, incumbent, want) in rows {
            let got = check_threshold(facts.as_ref(), phi_norm_sq, incumbent, &[], &mut overflows);
            assert_eq!(got, want, "|φ|² {phi_norm_sq}, incumbent {incumbent:?}");
        }
        assert!(overflows > 0, "no row reached the old product's overflow");
    }

    /// On the valid stencil {(2⁶¹, 0), (2⁶¹, 1)}, with φ = (2⁶² + 1, 1),
    /// `64·φ·Σvᵢ` is about 2¹³⁰. The exploration cap saturates there: an
    /// unchecked product panicked in debug builds, outside the engine's
    /// `catch_unwind`, and in release wrapped to a cap that cut both
    /// children of the origin and returned Σvᵢ with `capped` 2. Both
    /// profiles now run the same search, which no threshold prunes (its
    /// square leaves u128): every sum of up to three vectors is visited,
    /// and the eight children of the four three-vector sums leave i64.
    #[test]
    fn exploration_cap_saturates_past_i128() {
        let s = Stencil::new(vec![ivec![1i64 << 61, 0], ivec![1i64 << 61, 1]]).unwrap();
        let res = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        assert_eq!(res.uov, ivec![1i64 << 62, 1]);
        assert_eq!(res.cost, (1u128 << 124) + 1);
        let want = SearchStats {
            visited: 10,
            pushed: 10,
            improvements: 0,
            pruned: 0,
            capped: 8,
            complete: true,
        };
        assert_eq!(res.stats, want);
        crate::certify::certify(&s, &Objective::ShortestVector, &res).unwrap();
    }

    fn scaled(s: &Stencil, k: i64) -> Stencil {
        Stencil::new(s.iter().map(|v| v.scaled(k)).collect()).unwrap()
    }

    /// wave3's pin on 16×32×32, which the deliberately worse search order
    /// of [`a_worse_search_order_fails_the_ratchet`] is judged against.
    const WAVE3_PIN: [u64; 5] = [6226, 6226, 0, 1636, 0];

    /// The ratchet on one pinned case: `Ok` iff a complete search's
    /// `[visited, pushed, improvements, pruned, capped]` equal the pin.
    /// More work (visits or pushes) fails as a search regression. Less
    /// work, or a move of the other counters, fails until the change
    /// lowers the pin, so the pins only ever fall.
    fn ratchet(name: &str, got: &SearchStats, pin: [u64; 5]) -> Result<(), String> {
        let counters = [
            got.visited,
            got.pushed,
            got.improvements,
            got.pruned,
            got.capped,
        ];
        if !got.complete {
            Err(format!("{name}: the search did not complete"))
        } else if counters == pin {
            Ok(())
        } else if got.visited > pin[0] || got.pushed > pin[1] {
            Err(format!(
                "{name}: search regression: {counters:?} against the pin {pin:?}"
            ))
        } else {
            Err(format!(
                "{name}: {counters:?} fell from the pin {pin:?}: \
                 lower the pin in this PR and list it in CHANGES.md"
            ))
        }
    }

    /// Node-for-node counters, pinned from the sequential engine that the
    /// one-worker engine replaced: it pops in plain best-first order, so
    /// every counter is deterministic. The pins are a ratchet (see
    /// [`ratchet`]): this is the gate that runs the search code, where
    /// perfbench times it.
    #[test]
    fn one_worker_stats_are_pinned() {
        let fig3 = Stencil::new(vec![ivec![1, -1], ivec![1, 0], ivec![1, 1], ivec![0, 1]]).unwrap();
        let fig3_isg = Polygon2::fig3_isg();
        // 1-D, so φ = (1) and the squares stay exact while every cost
        // exceeds u64: pruning must read the exact incumbent.
        let huge_1d = scaled(&Stencil::new(vec![ivec![1], ivec![3]]).unwrap(), 1 << 33);
        // The heavy known-bounds searches of the benchmark's plan corpus,
        // each on its loop nest's domain.
        let cube = RectDomain::new(ivec![1, 1, 1], ivec![16, 32, 32]);
        let stencil5_dom = RectDomain::new(ivec![1, 0], ivec![24, 511]);
        let deep8_dom = RectDomain::new(ivec![1, 0], ivec![16, 4095]);
        let wave3 = Stencil::new(vec![ivec![1, 0, 0], ivec![1, 1, 0], ivec![1, 0, 1]]).unwrap();
        let diag3 = Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![1, 1, 1]]).unwrap();
        let heat3 = Stencil::new(vec![
            ivec![1, 0, 0],
            ivec![1, 1, 0],
            ivec![1, -1, 0],
            ivec![1, 0, 1],
            ivec![1, 0, -1],
        ])
        .unwrap();
        let deep8 = Stencil::new((1..=8).map(|k| ivec![k, 0]).collect()).unwrap();
        // The rest of the plan corpus and the kernel zoo, on the same
        // domains as their loop nests. fig1, psm's first statement and
        // skew1 share one stencil, and their counts do not move with the
        // corpus's domain sizes.
        let skew = |k: i64| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).unwrap();
        let grid32 = RectDomain::new(ivec![1, 1], ivec![32, 32]);
        let grid64 = RectDomain::new(ivec![1, 1], ivec![64, 64]);
        let grid256 = RectDomain::new(ivec![1, 1], ivec![256, 256]);
        let stencil5_8 = RectDomain::new(ivec![1, 0], ivec![8, 127]);
        let stencil5_16 = RectDomain::new(ivec![1, 0], ivec![16, 255]);
        let deep8_16 = RectDomain::new(ivec![1, 0], ivec![16, 1023]);
        let deep8_32 = RectDomain::new(ivec![1, 0], ivec![32, 1023]);
        let heat3_small = RectDomain::new(ivec![1, 1, 1], ivec![8, 16, 16]);
        let zoo_fig1 = RectDomain::new(ivec![1, 1], ivec![8, 6]);
        let zoo_stencil5 = RectDomain::new(ivec![1, 0], ivec![6, 23]);
        let zoo_deep8 = RectDomain::new(ivec![1, 0], ivec![12, 9]);
        // Only the beyond-diameter rule ends this search.
        let (degenerate3, box162) = box162();
        // [visited, pushed, improvements, pruned, capped]
        let cases: [(&str, Stencil, Objective<'_>, [u64; 5]); 24] = [
            (
                "fig1",
                fig1(),
                Objective::ShortestVector,
                [11, 13, 1, 19, 0],
            ),
            (
                "stencil5",
                stencil5(),
                Objective::ShortestVector,
                [23, 28, 1, 77, 0],
            ),
            (
                "fig1 x 2^16",
                scaled(&fig1(), 1 << 16),
                Objective::ShortestVector,
                [239_661, 293_953, 1, 370_739, 0],
            ),
            (
                "fig3 on its ISG",
                fig3,
                Objective::KnownBounds(&fig3_isg),
                [50, 66, 1, 63, 0],
            ),
            (
                "1-D x 2^33",
                huge_1d,
                Objective::ShortestVector,
                [5, 6, 1, 5, 0],
            ),
            (
                "wave3 on 16x32x32",
                wave3,
                Objective::KnownBounds(&cube),
                WAVE3_PIN,
            ),
            (
                "diag3 on 16x32x32",
                diag3,
                Objective::KnownBounds(&cube),
                [3985, 3985, 0, 1462, 0],
            ),
            (
                "heat3 on 16x32x32",
                heat3.clone(),
                Objective::KnownBounds(&cube),
                [335, 340, 1, 576, 0],
            ),
            (
                "stencil5 on 24x512",
                stencil5(),
                Objective::KnownBounds(&stencil5_dom),
                [5520, 5856, 1, 1134, 0],
            ),
            (
                // The one with capped children.
                "deep8 on 16x4096",
                deep8.clone(),
                Objective::KnownBounds(&deep8_dom),
                [2305, 2333, 1, 0, 36],
            ),
            (
                "fig1 on 32x32",
                fig1(),
                Objective::KnownBounds(&grid32),
                [22, 29, 1, 27, 0],
            ),
            (
                "psm statement 1 on 32x32",
                Stencil::new(vec![ivec![1, 0]]).unwrap(),
                Objective::KnownBounds(&grid32),
                [3, 3, 0, 1, 0],
            ),
            (
                "stencil5 on 8x128",
                stencil5(),
                Objective::KnownBounds(&stencil5_8),
                [4641, 5027, 1, 1039, 0],
            ),
            (
                "stencil5 on 16x256",
                stencil5(),
                Objective::KnownBounds(&stencil5_16),
                [3429, 3711, 1, 890, 0],
            ),
            (
                "deep8 on 16x1024",
                deep8.clone(),
                Objective::KnownBounds(&deep8_16),
                [1027, 1055, 1, 36, 0],
            ),
            (
                "deep8 on 32x1024",
                deep8.clone(),
                Objective::KnownBounds(&deep8_32),
                [343, 371, 1, 36, 0],
            ),
            (
                "skew2 on 64x64",
                skew(2),
                Objective::KnownBounds(&grid64),
                [81, 103, 1, 67, 0],
            ),
            (
                "skew3 on 64x64",
                skew(3),
                Objective::KnownBounds(&grid64),
                [154, 191, 1, 109, 0],
            ),
            (
                "skew4 on 256x256",
                skew(4),
                Objective::KnownBounds(&grid256),
                [333, 399, 1, 184, 0],
            ),
            (
                "heat3 on 8x16x16",
                heat3,
                Objective::KnownBounds(&heat3_small),
                [488, 557, 1, 735, 0],
            ),
            (
                "zoo fig1(8,6)",
                fig1(),
                Objective::KnownBounds(&zoo_fig1),
                [35, 46, 1, 35, 0],
            ),
            (
                "zoo stencil5(6,24)",
                stencil5(),
                Objective::KnownBounds(&zoo_stencil5),
                [437, 534, 1, 309, 0],
            ),
            (
                "zoo deep8(12,10)",
                deep8,
                Objective::KnownBounds(&zoo_deep8),
                [17, 45, 1, 36, 0],
            ),
            (
                "4 vectors on 3x9x6",
                degenerate3,
                Objective::KnownBounds(&box162),
                [234, 247, 0, 318, 0],
            ),
        ];
        let mut failures = Vec::new();
        for (name, s, objective, pin) in cases {
            let got = find_best_uov(&s, objective, &SearchConfig::default()).unwrap();
            if let Err(msg) = ratchet(name, &got.stats, pin) {
                failures.push(msg);
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// The ratchet catches a worse search order. wave3 with axes 0 and 1
    /// swapped, on the swapped box, is the same problem up to relabelling:
    /// the optimum costs 6,867 classes either way. But this order visits
    /// 79,605 nodes where wave3 as sent visits 6,226, so held to wave3's
    /// pin it fails as a regression.
    #[test]
    fn a_worse_search_order_fails_the_ratchet() {
        let swapped = Stencil::new(vec![ivec![0, 1, 0], ivec![1, 1, 0], ivec![0, 1, 1]]).unwrap();
        let dom = RectDomain::new(ivec![1, 1, 1], ivec![32, 16, 32]);
        let got = find_best_uov(
            &swapped,
            Objective::KnownBounds(&dom),
            &SearchConfig::default(),
        )
        .unwrap();
        assert_eq!((got.cost, got.stats.visited), (6867, 79_605));
        let verdict = ratchet("wave3, axes 0 and 1 swapped", &got.stats, WAVE3_PIN);
        assert!(
            verdict
                .as_ref()
                .is_err_and(|msg| msg.contains("search regression")),
            "{verdict:?}"
        );
        // A fall fails too, until the pin comes down: zoo deep8(12,10)
        // before and after the beyond-diameter rule.
        let deep8_fell = SearchStats {
            visited: 17,
            pushed: 45,
            improvements: 1,
            pruned: 36,
            capped: 0,
            complete: true,
        };
        let verdict = ratchet("zoo deep8(12,10)", &deep8_fell, [32, 60, 1, 36, 0]);
        assert!(
            verdict
                .as_ref()
                .is_err_and(|msg| msg.contains("lower the pin")),
            "{verdict:?}"
        );
    }

    /// With coordinates near 2³¹ the functional is φ = (2³³+1, 1), so
    /// `φ·child` passes 2⁶⁴ at the first step. The pruning bound's square
    /// must saturate: an overflow panics in debug builds and, wrapped in
    /// release builds, silently stops all pruning.
    #[test]
    fn pruning_bound_saturates_on_huge_coordinates() {
        let s = scaled(&stencil5(), 1 << 31);
        let oracle = crate::DoneOracle::new(&s);
        let config = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(2_000),
            ..SearchConfig::default()
        };
        let res = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
        assert!(oracle.is_uov(&res.uov), "{}", res.uov);
    }

    #[test]
    fn canonical_order_breaks_cost_ties_lexicographically() {
        let shorter = ivec![1, 2];
        let best = (5u128, 5i128, ivec![2, 1]);
        // Same cost, same squared length: the lexicographically smaller
        // vector wins.
        assert!(improves(5, &shorter, &best));
        assert!(!improves(5, &best.2.clone(), &(5, 5, shorter)));
        // Cost dominates everything else.
        assert!(improves(4, &ivec![9, 9], &best));
        assert!(!improves(6, &ivec![0, 1], &best));
    }

    fn tmp_ckpt(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "uov_search_test_{name}_{}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ckpt_config(path: &std::path::Path, interval: u64) -> SearchConfig {
        SearchConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.to_path_buf(),
                interval,
            }),
            ..SearchConfig::default()
        }
    }

    #[test]
    fn checkpointed_run_writes_a_final_snapshot_and_matches_plain_run() {
        let s = stencil5();
        let plain = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        let path = tmp_ckpt("final");
        let res = find_best_uov(&s, Objective::ShortestVector, &ckpt_config(&path, 4)).unwrap();
        assert_eq!(res.checkpoint_error, None);
        assert_eq!(res.uov, plain.uov);
        assert_eq!(res.cost, plain.cost);
        let snap = checkpoint::read_snapshot(&path).unwrap();
        assert_eq!(snap.incumbent, res.uov);
        assert_eq!(snap.incumbent_cost, res.cost);
        assert!(
            snap.frontier.is_empty(),
            "a completed search leaves no frontier"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_then_resumed_search_matches_uninterrupted() {
        let s = stencil5();
        let reference =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        for cut in [1u64, 3, 7, 15] {
            let path = tmp_ckpt(&format!("resume_{cut}"));
            let mut interrupted = SearchConfig {
                budget: Budget::unlimited().with_max_nodes(cut),
                ..ckpt_config(&path, 1)
            };
            let partial = find_best_uov(&s, Objective::ShortestVector, &interrupted).unwrap();
            assert_eq!(partial.checkpoint_error, None);
            // Resume with the node cap lifted: must land on the exact
            // canonical answer, not merely *a* UOV, by the same work.
            interrupted.budget = Budget::unlimited();
            let resumed =
                search_resume(&path, &s, Objective::ShortestVector, &interrupted).unwrap();
            assert_eq!(
                (resumed.uov.clone(), resumed.cost),
                (reference.uov.clone(), reference.cost),
                "cut={cut}"
            );
            assert_eq!(resumed.stats, reference.stats, "cut={cut}");
            assert!(resumed.degradation.is_none());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn resume_honours_a_cumulative_node_budget() {
        let s = stencil5();
        let path = tmp_ckpt("cumulative");
        let config = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(3),
            ..ckpt_config(&path, 1)
        };
        let first = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
        assert!(first.degradation.is_some());
        // Same cap on resume: already spent, so it degrades immediately
        // instead of granting a fresh allowance.
        let config = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(3),
            ..ckpt_config(&path, 1)
        };
        let resumed = search_resume(&path, &s, Objective::ShortestVector, &config).unwrap();
        let d = resumed.degradation.expect("cumulative cap must still bind");
        assert_eq!(d.reason, Exhausted::Nodes);
        assert!(d.nodes_at_stop >= 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_snapshot_from_a_different_problem() {
        let s = stencil5();
        let path = tmp_ckpt("mismatch");
        let res = find_best_uov(&s, Objective::ShortestVector, &ckpt_config(&path, 8)).unwrap();
        assert_eq!(res.checkpoint_error, None);
        let other = fig1();
        let err = search_resume(
            &path,
            &other,
            Objective::ShortestVector,
            &SearchConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SearchError::Checkpoint(CheckpointError::StencilMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A domain whose `num_points` panics after `fuse` calls. Setup
    /// (`DomainFacts` + the initial UOV's cost) spends two calls, so any
    /// fuse ≥ 3 fires inside the engine, where a cost evaluation per
    /// expanded child keeps querying it.
    #[derive(Debug)]
    struct FusedDomain<'a> {
        grid: &'a RectDomain,
        calls: std::cell::Cell<usize>,
        fuse: usize,
    }

    impl<'a> FusedDomain<'a> {
        fn new(grid: &'a RectDomain, fuse: usize) -> Self {
            FusedDomain {
                grid,
                calls: std::cell::Cell::new(0),
                fuse,
            }
        }
    }

    impl uov_isg::IterationDomain for FusedDomain<'_> {
        fn dim(&self) -> usize {
            self.grid.dim()
        }
        fn contains(&self, p: &IVec) -> bool {
            self.grid.contains(p)
        }
        fn extreme_points(&self) -> Vec<IVec> {
            self.grid.extreme_points()
        }
        fn points(&self) -> Box<dyn Iterator<Item = IVec> + '_> {
            self.grid.points()
        }
        fn num_points(&self) -> u64 {
            let n = self.calls.get();
            self.calls.set(n + 1);
            assert!(n < self.fuse, "injected domain fault");
            self.grid.num_points()
        }
    }

    #[test]
    fn worker_panic_is_caught_as_a_typed_error() {
        let s = fig1();
        let grid = RectDomain::grid(6, 6);
        let fused = FusedDomain::new(&grid, 3);
        let err = find_best_uov(&s, Objective::KnownBounds(&fused), &SearchConfig::default())
            .unwrap_err();
        match err {
            SearchError::WorkerPanic { payload } => {
                assert!(payload.contains("injected domain fault"), "{payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// Snapshot points at interval 3 for nodes `from + 1 ..= 5000`.
    fn snapshot_points(from: u64) -> Vec<u64> {
        let mut since = 0;
        let mut due = |visited: &u64| {
            since += 1;
            let due = snapshot_due(since, *visited, 3);
            if due {
                since = 0;
            }
            due
        };
        (from + 1..=5000).filter(|v| due(v)).collect()
    }

    #[test]
    fn snapshot_gaps_start_at_the_interval_and_double() {
        assert_eq!(snapshot_points(0)[..6], [3, 6, 12, 24, 48, 96]);
        // A resume counts the nodes visited before it.
        assert_eq!(snapshot_points(40)[..3], [80, 160, 320]);
        assert!(snapshot_due(1, 1, 0), "an interval of 0 counts as 1");
        // A kill loses at most max(interval, half the nodes visited).
        for from in [0, 1, 40, 1000] {
            let mut last = from;
            for &next in snapshot_points(from).iter().chain(&[5001]) {
                let killed_at = next - 1;
                assert!(killed_at - last <= (killed_at / 2).max(3), "{from}");
                last = next;
            }
        }
    }

    #[test]
    fn panic_message_handles_all_payload_shapes() {
        let caught = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain str");
        let caught = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn panicked_checkpointed_search_still_writes_a_resumable_snapshot() {
        let s = fig1();
        let grid = RectDomain::grid(6, 6);
        let reference =
            find_best_uov(&s, Objective::KnownBounds(&grid), &SearchConfig::default()).unwrap();
        let path = tmp_ckpt("panic_resume");
        let fused = FusedDomain::new(&grid, 6);
        let err =
            find_best_uov(&s, Objective::KnownBounds(&fused), &ckpt_config(&path, 1)).unwrap_err();
        assert!(matches!(err, SearchError::WorkerPanic { .. }));
        // A final snapshot is written even after a panic; resuming it
        // with a healthy domain completes the search exactly.
        let resumed = search_resume(
            &path,
            &s,
            Objective::KnownBounds(&grid),
            &ckpt_config(&path, 1),
        )
        .unwrap();
        assert_eq!(resumed.uov, reference.uov);
        assert_eq!(resumed.cost, reference.cost);
        let _ = std::fs::remove_file(&path);
    }

    /// A fault in the origin's own expansion (fuse 3 fires at its second
    /// child) leaves the origin, queued at cost 0, as the whole frontier.
    /// The zero vector has no class count, and the snapshot must still
    /// resume.
    #[test]
    fn panic_while_expanding_the_origin_leaves_a_resumable_snapshot() {
        let s = fig1();
        let grid = RectDomain::grid(6, 6);
        let reference =
            find_best_uov(&s, Objective::KnownBounds(&grid), &SearchConfig::default()).unwrap();
        let path = tmp_ckpt("origin_panic");
        let fused = FusedDomain::new(&grid, 3);
        let err =
            find_best_uov(&s, Objective::KnownBounds(&fused), &ckpt_config(&path, 1)).unwrap_err();
        assert!(matches!(err, SearchError::WorkerPanic { .. }));
        let snap = checkpoint::read_snapshot(&path).unwrap();
        assert_eq!(snap.frontier, vec![(0, IVec::zero(2), 0)]);
        let resumed = search_resume(
            &path,
            &s,
            Objective::KnownBounds(&grid),
            &SearchConfig::default(),
        )
        .unwrap();
        assert_eq!(resumed.uov, reference.uov);
        assert_eq!(resumed.cost, reference.cost);
        let _ = std::fs::remove_file(&path);
    }

    /// A chain of node-capped runs, each resumed from the previous run's
    /// checkpoint file, lands on the exact canonical answer. The cap is
    /// cumulative (resume restores the charged nodes), so each step grants
    /// `cut` nodes past the charge its snapshot recorded.
    #[test]
    fn node_capped_resume_chain_lands_on_the_exact_answer() {
        let s = stencil5();
        let reference =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        for cut in [1u64, 3, 7] {
            let path = tmp_ckpt(&format!("chain_{cut}"));
            let capped = |nodes: u64| SearchConfig {
                budget: Budget::unlimited().with_max_nodes(nodes),
                ..ckpt_config(&path, 1)
            };
            let mut res = find_best_uov(&s, Objective::ShortestVector, &capped(cut)).unwrap();
            let mut steps = 0;
            while !res.stats.complete {
                steps += 1;
                assert!(steps <= 10_000, "resume chain failed to converge");
                assert_eq!(res.checkpoint_error, None);
                let charged = checkpoint::read_snapshot(&path).unwrap().nodes_charged;
                res = search_resume(&path, &s, Objective::ShortestVector, &capped(charged + cut))
                    .unwrap();
            }
            assert_eq!(
                (res.uov, res.cost),
                (reference.uov.clone(), reference.cost),
                "cut={cut}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

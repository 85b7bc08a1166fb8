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
//! # One engine, any thread count
//!
//! The branch-and-bound runs as [`SearchConfig::threads`] work-stealing
//! workers that share one frontier: each worker owns a local priority
//! queue and *steals* from its peers when it runs dry, the PATHSET table
//! is one shared [`MaskTable`], and the incumbent bound lives in an atomic
//! cell so every worker prunes against the global best the instant it
//! improves. With one thread (or zero) the single worker runs on the
//! calling thread; with nobody to steal from it pops in plain best-first
//! order, so its [`SearchStats`] are deterministic too. The result is
//! **deterministic** at every thread count: candidates are compared by the
//! total order `(cost, ‖w‖², lexicographic w)`, and the pruning rules only
//! discard children that provably cannot *reach* the final key (strict
//! inequality against the bound), so every thread count returns the
//! identical `(uov, cost)` for a completed search. With more than one
//! worker only the [`SearchStats`] counters and budget-truncated results
//! vary with scheduling.
//!
//! # Checkpoint/resume
//!
//! With [`SearchConfig::checkpoint`] set, the engine snapshots its state
//! — frontier, PATHSET table, incumbent and budget progress — to disk
//! every `interval` processed nodes and once more when it stops, using
//! the crash-safe format of [`crate::checkpoint`]. [`search_resume`]
//! restores a snapshot and continues. Because the snapshot captures a
//! *valid* search state (every discovered-but-unexpanded path is in the
//! frontier, including entries a worker had in hand when the run was cut
//! short), the canonical-order determinism argument applies across the
//! interruption: a search killed at any point and resumed from its latest
//! snapshot returns the byte-identical `(uov, cost)` of an uninterrupted
//! run, at every thread count. The engine quiesces all workers at a
//! barrier before each mid-run snapshot so no expansion is ever torn
//! across a file.
//!
//! # Panic isolation
//!
//! Every worker body runs under `catch_unwind`: a panicking node
//! evaluation (for example a user-supplied [`IterationDomain`] that
//! panics) surfaces as a typed [`SearchError::WorkerPanic`] instead of
//! aborting the process. The surviving workers drain or stop, the final
//! checkpoint (if configured) is still written, and children are costed
//! *before* they touch the shared PATHSET table so a caught panic can
//! never leave a merged-but-never-queued offset behind.

use std::cell::Cell;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use uov_isg::{IVec, IsgError, IterationDomain, Stencil};

use crate::budget::{Budget, Degradation, Exhausted};
use crate::checkpoint::{self, CheckpointConfig, CheckpointError, Snapshot};
use crate::dense::{MaskTable, Window};
use crate::error::SearchError;
use crate::objective::{storage_class_count, ClassCounter};
use crate::oracle::{diff_into, dot_slices};
use crate::par::panic_message;

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
    /// domain. The domain is `Sync` so the parallel search can evaluate
    /// candidates from every worker thread.
    KnownBounds(&'a (dyn IterationDomain + Sync)),
}

/// Tunables for [`find_best_uov`].
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Resource budget (deadline, node cap, memo cap, cancellation). When
    /// it runs out the search degrades to the best incumbent — at worst the
    /// always-legal initial UOV — and records a
    /// [`Degradation`](crate::budget::Degradation) in the result. A node
    /// cap is the paper's "a compiler could limit the amount of time the
    /// algorithm runs and just take the best answer found so far".
    pub budget: Budget,
    /// Worker threads for the branch-and-bound. `0` and `1` both run one
    /// worker on the calling thread, in plain best-first order; `n > 1`
    /// spawns `n` work-stealing workers sharing the incumbent bound and
    /// PATHSET table. Completed searches return identical `(uov, cost)`
    /// for every value — see the module docs' determinism guarantee.
    pub threads: usize,
    /// Crash-safe snapshots: `Some` writes the search state to the given
    /// path every `interval` processed nodes (and once more when the
    /// search stops), ready for [`search_resume`]. `None` (the default)
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
/// With `threads > 1` the counters are exact totals across workers but
/// their values depend on scheduling (how early the bound tightened on
/// each worker); only the returned `(uov, cost)` is deterministic. With
/// one worker they are deterministic as well.
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
    /// thin domains, or for candidates that overflow `i64`.
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

/// [`cost_of`] with overflow reported instead of panicking; the searches
/// use this so one adversarial candidate cannot sink the whole run, and
/// the service's plan cache uses it to re-cost permuted answers. The
/// one-shot form of [`ObjectiveCost::try_cost`].
pub fn try_cost_of(objective: &Objective<'_>, w: &IVec) -> Result<u128, IsgError> {
    ObjectiveCost::new(objective).try_cost(w.as_slice(), &mut Vec::new())
}

/// An [`Objective`] ready to cost many candidates: a known-bounds domain's
/// extreme points are read once, so with a scratch buffer the caller
/// reuses, each cost is free of heap allocation.
pub(crate) enum ObjectiveCost<'a> {
    ShortestVector,
    KnownBounds(ClassCounter<'a, dyn IterationDomain + Sync + 'a>),
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
            ObjectiveCost::ShortestVector => checked_norm_sq(w)
                .map(|n| n as u128)
                .ok_or(IsgError::Overflow("norm_sq")),
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
    fn try_new(
        counter: &ClassCounter<'_, dyn IterationDomain + Sync + '_>,
    ) -> Result<Self, SearchError> {
        let domain = counter.domain();
        let vertices = counter.vertices()?;
        let d = domain.dim();
        let mut diff = Vec::with_capacity(d);
        let mut diam_sq: u128 = 0;
        for (i, a) in vertices.chunks_exact(d).enumerate() {
            for b in vertices.chunks_exact(d).skip(i + 1) {
                diff_into(a, b, &mut diff)?;
                let sq = checked_norm_sq(&diff).ok_or(IsgError::Overflow("norm_sq"))?;
                diam_sq = diam_sq.max(sq as u128);
            }
        }
        Ok(DomainFacts {
            num_points: domain.num_points() as u128,
            diam: isqrt(diam_sq) + 1,
        })
    }

    /// `true` if every descendant of an offset at least `l` long must cost
    /// *strictly more* than `best`: classes ≥ N·L/(diam+L). The inequality
    /// is strict so candidates that merely *tie* the incumbent survive to
    /// the lexicographic tie-break — that is what makes the answer
    /// independent of visit order (and hence of the thread count).
    fn dominated(&self, l: u128, best: u128) -> bool {
        self.num_points * l > best * (self.diam + l)
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
    // known-bounds search (see `ParSearch::child_dominated`).
    let phi_cap = 64 * phi.dot_i128(&initial).max(1);
    let initial_cost = cost.try_cost(initial.as_slice(), &mut Vec::new())?;
    let window = search_window(stencil, objective, phi_norm_sq, phi_cap, initial_cost);
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
        initial_norm: initial.try_norm_sq().unwrap_or(i128::MAX),
        initial,
    })
}

/// Entry budget of the search's dense PATHSET window.
const SEARCH_WINDOW_ENTRIES: usize = 1 << 20;

/// Size the dense PATHSET window from the functional reachability bound.
///
/// Every queued offset is a sum of stencil vectors, each backward step
/// raises `φ·w` by at least 1, and surviving children satisfy
/// `(φ·w)² ≤ bound·|φ|²` (shortest-vector) or `φ·w ≤ phi_cap`
/// (known-bounds) — so the step count, and with it every coordinate, is
/// bounded. The window is purely a performance knob: offsets outside it
/// (degenerate domains, foreign resumed frontiers, near-overflow
/// coordinates) spill to the hash tier with identical semantics.
fn search_window(
    stencil: &Stencil,
    objective: &Objective<'_>,
    phi_norm_sq: u128,
    phi_cap: i128,
    initial_cost: u128,
) -> Window {
    let steps: i128 = match objective {
        Objective::ShortestVector => {
            let bound_sq = initial_cost
                .saturating_add(1)
                .saturating_mul(phi_norm_sq.max(1));
            isqrt(bound_sq).min(i128::MAX as u128) as i128 + 2
        }
        Objective::KnownBounds(_) => phi_cap,
    };
    let steps = steps.clamp(1, 1 << 20) as i64;
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

/// Validated per-search constants shared by every worker. The incumbent
/// starts at the initial UOV `Σvᵢ`, legal from the first moment (§3.2.1).
struct Setup<'a> {
    /// The objective, costing candidates on worker-owned scratch.
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

/// Exact squared length of a coordinate slice; `None` on `i128` overflow.
/// The allocation-free twin of [`IVec::try_norm_sq`].
fn checked_norm_sq(w: &[i64]) -> Option<i128> {
    let mut acc: i128 = 0;
    for &c in w {
        let c = c as i128;
        acc = acc.checked_add(c.checked_mul(c)?)?;
    }
    Some(acc)
}

/// The canonical candidate order: objective cost, then squared length,
/// then lexicographic. A *total* order over candidates, so the minimum of
/// any discovered set is independent of discovery order — this is what
/// makes the parallel search deterministic.
#[cfg(test)]
fn improves(cost: u128, w: &IVec, best: &(u128, i128, IVec)) -> bool {
    improves_slice(cost, w.as_slice(), best)
}

/// [`improves`] on scratch coordinates — no allocation on the hot path.
fn improves_slice(cost: u128, w: &[i64], best: &(u128, i128, IVec)) -> bool {
    use std::cmp::Ordering as O;
    match cost.cmp(&best.0) {
        O::Less => true,
        O::Greater => false,
        O::Equal => {
            let norm = checked_norm_sq(w).unwrap_or(i128::MAX);
            match norm.cmp(&best.1) {
                O::Less => true,
                O::Greater => false,
                O::Equal => w < best.2.as_slice(),
            }
        }
    }
}

/// Lock a mutex, recovering the data from a poisoned lock. Poisoning can
/// only arise from a panicking peer; every structure guarded here (masks,
/// heaps, the incumbent key) is valid after any prefix of updates, so
/// continuing is sound.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Saturate a candidate cost into the atomic bound cell. `u64::MAX` means
/// "the cost does not fit": pruning then reads the exact incumbent rather
/// than prune against a too-small saturated value (which would be
/// unsound).
fn saturate_bound(cost: u128) -> u64 {
    u64::try_from(cost).unwrap_or(u64::MAX)
}

/// A worker's priority queue: min-heap over `Copy` `(cost, node key,
/// pathset)` triples — node coordinates live in the shared
/// [`MaskTable`], not in the queue. An in-window key orders like `lex w`,
/// so for dense traffic the heap breaks cost ties lexicographically. An
/// entry is re-pushed whenever its PATHSET grows (Visit step 2).
type WorkQueue = BinaryHeap<std::cmp::Reverse<(u128, u64, u64)>>;

/// Barrier bookkeeping for quiescent mid-run snapshots.
struct CkptBarrier {
    /// Workers still running (not yet retired).
    live: usize,
    /// Workers currently parked at the barrier.
    parked: usize,
    /// Bumped when a barrier completes; parked workers wait for it.
    epoch: u64,
}

/// Checkpoint plumbing of the engine.
struct ParCkpt<'a> {
    cfg: &'a CheckpointConfig,
    /// Fully-processed nodes since the last snapshot request.
    since: AtomicU64,
    /// A snapshot has been requested; workers park at their next loop
    /// head. Set outside the barrier lock, cleared only under it.
    requested: AtomicBool,
    /// A write failed; checkpointing is disabled from then on.
    failed: AtomicBool,
    /// The first write failure, reported in the result.
    error: Mutex<Option<CheckpointError>>,
    state: Mutex<CkptBarrier>,
    cv: Condvar,
}

/// Shared state of the work-stealing branch-and-bound, for one worker or
/// many.
struct ParSearch<'a> {
    stencil: &'a Stencil,
    setup: &'a Setup<'a>,
    budget: &'a Budget,
    /// Problem fingerprint stamped on every snapshot.
    fingerprint: u64,

    /// One work queue per worker; idle workers steal from peers.
    queues: Vec<Mutex<WorkQueue>>,
    /// The shared PATHSET node pool: dense cells over the reachability
    /// window, hash spill outside it. Its length is the memo-cap measure.
    store: MaskTable,
    /// Queue entries not yet fully processed; 0 ⟺ the search is drained.
    pending: AtomicU64,
    /// Global visit counter, for the statistics of mid-run snapshots.
    visited: AtomicU64,
    /// Raised on budget exhaustion; workers stop at the next loop head.
    stop: AtomicBool,
    /// First exhaustion reason wins (the recorded degradation cause).
    stop_reason: Mutex<Option<Exhausted>>,
    /// Exact incumbent under the canonical total order.
    incumbent: Mutex<(u128, i128, IVec)>,
    /// Saturated incumbent cost for lock-free pruning (see
    /// [`saturate_bound`]).
    bound: AtomicU64,
    /// Per-worker slot for the entry popped but not yet fully expanded,
    /// published when the worker exits. Early-stopping paths (budget,
    /// panic, memo cap) leave the entry here so snapshots never lose its
    /// subtree.
    in_hand: Vec<Mutex<Option<(u128, u64, u64)>>>,
    /// Statistics carried over from a resumed snapshot; mid-run snapshot
    /// counters build on these.
    stats_base: SearchStats,
    /// Checkpoint plumbing; `None` disables snapshots entirely.
    ckpt: Option<ParCkpt<'a>>,
    /// First worker panic `(worker, payload)`; set before `stop`.
    panic_slot: Mutex<Option<(usize, String)>>,
}

impl ParSearch<'_> {
    fn record_stop(&self, reason: Exhausted) {
        let mut slot = lock_unpoisoned(&self.stop_reason);
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.stop.store(true, Ordering::Release);
    }

    /// Offer a UOV candidate to the shared incumbent; true if it improved.
    fn offer(&self, cost: u128, w: &[i64]) -> bool {
        let mut inc = lock_unpoisoned(&self.incumbent);
        if improves_slice(cost, w, &inc) {
            let norm = checked_norm_sq(w).unwrap_or(i128::MAX);
            *inc = (cost, norm, IVec::from(w));
            self.bound.store(saturate_bound(cost), Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Whether a child with descendant-cost lower bound from `len_sq_lb`
    /// is provably worse than the shared incumbent (strictly — ties
    /// survive to the deterministic tie-break). The atomic cell answers
    /// without a lock unless the incumbent's cost saturated it, or a
    /// known-bounds child beyond the diameter meets an incumbent of cost
    /// `N` and only the incumbent's length can decide.
    fn child_dominated(&self, len_sq_lb: u128) -> bool {
        let bound = match self.bound.load(Ordering::Acquire) {
            u64::MAX => lock_unpoisoned(&self.incumbent).0,
            bound => u128::from(bound),
        };
        let Some(facts) = &self.setup.domain_facts else {
            return len_sq_lb > bound;
        };
        let l = isqrt(len_sq_lb); // floor → weaker bounds → sound
        facts.dominated(l, bound)
            || (l > facts.diam && self.loses_at_cost_n(facts.num_points, len_sq_lb, bound))
    }

    /// Whether a child longer than the domain's diameter, whose squared
    /// length is at least `len_sq_lb`, is provably worse than the
    /// incumbent. It joins no two iterations, so it and every descendant
    /// cost exactly `n` = N, which the class bound never reaches: worse
    /// than an incumbent below N, and worse than one of cost N only if
    /// strictly longer — equal lengths go on to the lexicographic
    /// tie-break. Kept out of the child loop: the class bound already
    /// prunes every such child once the incumbent costs at most N/2, and
    /// this rule prunes in none of the `plan` benchmark's searches.
    #[cold]
    #[inline(never)]
    fn loses_at_cost_n(&self, n: u128, len_sq_lb: u128, bound: u128) -> bool {
        if n != bound {
            return n > bound;
        }
        let inc = lock_unpoisoned(&self.incumbent);
        n > inc.0 || u128::try_from(inc.1).is_ok_and(|norm| len_sq_lb > norm)
    }

    /// Pop from the worker's own queue, else steal the best entry from a
    /// peer (scanning round-robin from the worker's successor).
    fn pop_or_steal(&self, id: usize) -> Option<(u128, u64, u64)> {
        let n = self.queues.len();
        for i in 0..n {
            let std::cmp::Reverse(item) = {
                let mut q = lock_unpoisoned(&self.queues[(id + i) % n]);
                match q.pop() {
                    Some(entry) => entry,
                    None => continue,
                }
            };
            return Some(item);
        }
        None
    }

    /// Expand one offset's children (paper Visit step 2) into the
    /// worker's own queue, building each child in `cbuf` and costing it
    /// on `scratch`. Returns `false` if the expansion was cut short (memo
    /// cap) — the caller then keeps the parent in hand.
    fn expand(
        &self,
        id: usize,
        w: &[i64],
        mask: u64,
        cbuf: &mut Vec<i64>,
        scratch: &mut Vec<i64>,
        stats: &mut SearchStats,
    ) -> bool {
        // One parent functional value serves every child:
        // φ·(w+vₖ) = φ·w + φ·vₖ.
        let phi_w = dot_slices(self.setup.phi.as_slice(), w);
        for (k, v) in self.stencil.iter().enumerate() {
            cbuf.clear();
            for (i, &c) in v.as_slice().iter().enumerate() {
                match w[i].checked_add(c) {
                    Some(x) => cbuf.push(x),
                    None => break,
                }
            }
            if cbuf.len() != self.setup.dim {
                stats.capped += 1;
                continue;
            }
            let phi_child = phi_w + self.setup.phi_v[k];
            debug_assert!(phi_child > 0, "functional must grow along dependences");
            // Length lower bound for the child and all its descendants:
            // |u|² ≥ (φ·u)²/|φ|² ≥ (φ·child)²/|φ|² (floor division → sound).
            // The square saturates; ⌊u128::MAX/|φ|²⌋ is still a lower bound.
            let len_sq_lb =
                (phi_child as u128).saturating_mul(phi_child as u128) / self.setup.phi_norm_sq;
            if self.child_dominated(len_sq_lb) {
                stats.pruned += 1;
                continue;
            }
            if phi_child > self.setup.phi_cap {
                stats.capped += 1;
                continue;
            }
            let child_mask = mask | (1 << k);
            let prior = self.store.probe(cbuf);
            if let Some(p) = prior {
                if p | child_mask == p {
                    continue; // this path adds nothing to the PATHSET
                }
            } else {
                // Racing workers may each admit one entry past the cap —
                // the documented per-worker memo overshoot.
                if let Err(reason) = self.budget.check_memo(self.store.len()) {
                    self.record_stop(reason);
                    return false;
                }
            }
            // Cost the child *before* touching the PATHSET table: the
            // only step that can panic (a user-supplied domain) runs
            // while the shared state is still consistent, so a caught
            // panic can never leave a merged-but-never-queued offset
            // behind (which a snapshot would then silently drop). An
            // overflowing cost discards the candidate like a capped offset.
            let Ok(child_cost) = self.setup.cost.try_cost(cbuf, scratch) else {
                stats.capped += 1;
                continue;
            };
            let out = self.store.merge(cbuf, child_mask);
            if out.grew {
                // Increment `pending` *before* the push so the drain test
                // (`pending == 0`) can never observe a false empty.
                self.pending.fetch_add(1, Ordering::Release);
                lock_unpoisoned(&self.queues[id])
                    .push(std::cmp::Reverse((child_cost, out.key, out.merged)));
                stats.pushed += 1;
            }
        }
        true
    }

    /// Record the first worker panic and stop the pool. The payload is
    /// stringified here; the original is not resumable (the worker that
    /// caught it returns normally).
    fn note_panic(&self, worker: usize, payload: &(dyn std::any::Any + Send)) {
        let mut slot = lock_unpoisoned(&self.panic_slot);
        if slot.is_none() {
            *slot = Some((worker, panic_message(payload)));
        }
        self.stop.store(true, Ordering::Release);
    }

    /// Count one fully-processed node towards the checkpoint interval,
    /// requesting a barrier snapshot when it elapses.
    fn note_progress(&self) {
        let Some(ck) = &self.ckpt else { return };
        if ck.failed.load(Ordering::Relaxed) {
            return;
        }
        let n = ck.since.fetch_add(1, Ordering::Relaxed) + 1;
        if n < ck.cfg.interval.max(1) {
            return;
        }
        ck.since.store(0, Ordering::Relaxed);
        ck.requested.store(true, Ordering::Release);
    }

    /// Park at the snapshot barrier if one is requested. The last worker
    /// to arrive writes the snapshot while every live peer is quiescent
    /// (no entry mid-expansion), then releases the barrier.
    fn park_for_checkpoint(&self) {
        let Some(ck) = &self.ckpt else { return };
        if !ck.requested.load(Ordering::Acquire) {
            return;
        }
        let mut st = lock_unpoisoned(&ck.state);
        // Re-check under the lock: the barrier may have completed (and
        // `requested` been cleared) while we waited for it.
        if !ck.requested.load(Ordering::Acquire) {
            return;
        }
        st.parked += 1;
        if st.parked == st.live {
            self.complete_barrier(ck, &mut st);
        } else {
            let epoch = st.epoch;
            while st.epoch == epoch {
                st = match ck.cv.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }
    }

    /// Write the snapshot and release the barrier. Caller holds the
    /// barrier lock; all live workers except the caller are parked and
    /// retired workers' in-hand slots are frozen, so the shared state is
    /// quiescent.
    fn complete_barrier(&self, ck: &ParCkpt<'_>, st: &mut CkptBarrier) {
        if !ck.failed.load(Ordering::Relaxed) {
            let stats = SearchStats {
                visited: self.visited.load(Ordering::Relaxed),
                ..self.stats_base.clone()
            };
            let snap = self.build_snapshot(&stats);
            if let Err(e) = checkpoint::write_snapshot(&ck.cfg.path, &snap) {
                ck.failed.store(true, Ordering::Relaxed);
                let mut slot = lock_unpoisoned(&ck.error);
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
        st.parked = 0;
        st.epoch += 1;
        ck.requested.store(false, Ordering::Release);
        ck.cv.notify_all();
    }

    /// A worker is exiting (drained, stopped, or panicked). If a barrier
    /// is pending and this was the last straggler, complete it on behalf
    /// of the parked peers so they can observe the stop/drain condition.
    fn retire(&self) {
        let Some(ck) = &self.ckpt else { return };
        let mut st = lock_unpoisoned(&ck.state);
        // Invariant: a worker is either parked or running, and only a
        // running worker retires, so `parked ≤ live - 1` here.
        st.live -= 1;
        if st.live == 0 {
            // Pool is gone; the final snapshot is written by the
            // coordinating thread after the join.
            ck.requested.store(false, Ordering::Release);
            st.epoch += 1;
            ck.cv.notify_all();
        } else if ck.requested.load(Ordering::Acquire) && st.parked == st.live {
            self.complete_barrier(ck, &mut st);
        }
    }

    /// Collect the full live state into a snapshot. Sound only when the
    /// state is quiescent: at a completed barrier or after every worker
    /// has exited. Keys decode back to coordinate vectors here, at the
    /// engine boundary — the `UOVCKPT1` wire format stays
    /// layout-independent.
    fn build_snapshot(&self, stats: &SearchStats) -> Snapshot {
        let mut coords = Vec::new();
        let mut frontier: Vec<(u128, IVec, u64)> = Vec::new();
        for queue in &self.queues {
            let guard = lock_unpoisoned(queue);
            for std::cmp::Reverse((cost, key, mask)) in guard.iter() {
                if self.store.mask_of(*key) == Some(*mask)
                    && self.store.coords_of(*key, &mut coords)
                {
                    frontier.push((*cost, IVec::from(coords.as_slice()), *mask));
                }
            }
        }
        for slot in &self.in_hand {
            if let Some((cost, key, mask)) = *lock_unpoisoned(slot) {
                if self.store.mask_of(key) == Some(mask) && self.store.coords_of(key, &mut coords) {
                    frontier.push((cost, IVec::from(coords.as_slice()), mask));
                }
            }
        }
        let (incumbent_cost, _, incumbent) = lock_unpoisoned(&self.incumbent).clone();
        Snapshot {
            fingerprint: self.fingerprint,
            dim: self.setup.dim,
            incumbent_cost,
            incumbent,
            frontier,
            known: self.store.entries(),
            nodes_charged: self.budget.nodes_charged(),
            stats: stats.clone(),
        }
    }

    /// Run worker `id` to its exit under panic isolation. The worker's
    /// in-hand entry is published for the snapshots *before* it retires:
    /// until then it counts as live, so no barrier completes without it,
    /// and a worker parked at a barrier holds nothing.
    fn run_worker(&self, id: usize) -> SearchStats {
        let hand = Cell::new(None);
        let stats = match catch_unwind(AssertUnwindSafe(|| self.worker(id, &hand))) {
            Ok(stats) => stats,
            Err(payload) => {
                self.note_panic(id, payload.as_ref());
                SearchStats::default()
            }
        };
        *lock_unpoisoned(&self.in_hand[id]) = hand.get();
        self.retire();
        stats
    }

    /// One worker's main loop. Returns its local statistics.
    fn worker(&self, id: usize, hand: &Cell<Option<(u128, u64, u64)>>) -> SearchStats {
        let mut stats = SearchStats::default();
        let mut idle_spins = 0u32;
        // Scratch buffers reused across every pop and child: coordinates,
        // and the lattice reduction that costs a known-bounds child.
        let mut wbuf: Vec<i64> = Vec::with_capacity(self.setup.dim);
        let mut cbuf: Vec<i64> = Vec::with_capacity(self.setup.dim);
        let mut scratch: Vec<i64> = Vec::with_capacity(self.setup.dim * self.setup.dim);
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            self.park_for_checkpoint();
            let Some((cost, key, mask)) = self.pop_or_steal(id) else {
                if self.pending.load(Ordering::Acquire) == 0 {
                    break; // globally drained: every worker exits
                }
                // A peer is still expanding; its children may arrive.
                idle_spins += 1;
                if idle_spins > 64 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                } else {
                    std::thread::yield_now();
                }
                continue;
            };
            idle_spins = 0;
            // Skip stale entries: a fresher push carries the grown PATHSET.
            if self.store.mask_of(key) != Some(mask) || !self.store.coords_of(key, &mut wbuf) {
                self.pending.fetch_sub(1, Ordering::Release);
                continue;
            }
            stats.visited += 1;
            // Hold the entry while it is being processed: if this worker
            // stops (budget) or dies (panic) mid-node, the snapshot still
            // carries the entry and no subtree is lost. `pending` is then
            // deliberately *not* decremented — the `stop` flag, not the
            // drain test, terminates the pool on those paths.
            hand.set(Some((cost, key, mask)));
            if let Err(reason) = self.budget.charge() {
                self.record_stop(reason);
                break;
            }
            self.visited.fetch_add(1, Ordering::Relaxed);
            if mask == self.setup.full && self.offer(cost, &wbuf) {
                stats.improvements += 1;
            }
            if !self.expand(id, &wbuf, mask, &mut cbuf, &mut scratch, &mut stats) {
                break; // memo cap mid-expansion: keep the entry in hand
            }
            hand.set(None);
            self.pending.fetch_sub(1, Ordering::Release);
            self.note_progress();
        }
        stats
    }
}

/// The runner behind every entry point: validate the problem, seed the
/// engine from `seed` (a snapshot, checked against the live problem) or
/// from the origin, and run `config.threads` work-stealing workers over
/// shared state (see the module docs for the determinism argument).
///
/// Worker bodies run under `catch_unwind`: a panic stops the pool, lets
/// the survivors drain, still writes the final checkpoint, and surfaces
/// as `Err(SearchError::WorkerPanic)`.
fn search_seeded(
    seed: Option<Snapshot>,
    stencil: &Stencil,
    objective: &Objective<'_>,
    config: &SearchConfig,
) -> Result<SearchResult, SearchError> {
    let setup = validated_setup(stencil, objective)?;
    let fingerprint = checkpoint::fingerprint(stencil, objective);
    let seed = match seed {
        None => SeedState::fresh(&setup),
        Some(snap) if snap.fingerprint != fingerprint => {
            return Err(SearchError::Checkpoint(CheckpointError::StencilMismatch {
                expected: fingerprint,
                found: snap.fingerprint,
            }));
        }
        Some(snap) => {
            let state = SeedState::from_snapshot(&setup, snap)?;
            config.budget.restore_nodes_charged(state.nodes_charged);
            state
        }
    };
    let threads = config.threads.max(1);
    let ckpt = config.checkpoint.as_ref().map(|cfg| ParCkpt {
        cfg,
        since: AtomicU64::new(0),
        requested: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        error: Mutex::new(None),
        state: Mutex::new(CkptBarrier {
            live: threads,
            parked: 0,
            epoch: 0,
        }),
        cv: Condvar::new(),
    });
    let par = ParSearch {
        stencil,
        setup: &setup,
        budget: &config.budget,
        fingerprint,
        queues: (0..threads).map(|_| Mutex::default()).collect(),
        store: MaskTable::new(setup.window.clone()),
        pending: AtomicU64::new(seed.frontier.len() as u64),
        visited: AtomicU64::new(seed.base.visited),
        stop: AtomicBool::new(false),
        stop_reason: Mutex::new(None),
        bound: AtomicU64::new(saturate_bound(seed.incumbent.0)),
        incumbent: Mutex::new(seed.incumbent),
        in_hand: (0..threads).map(|_| Mutex::new(None)).collect(),
        stats_base: seed.base.clone(),
        ckpt,
        panic_slot: Mutex::new(None),
    };

    // Seed the PATHSET table and distribute the frontier round-robin.
    for (w, mask) in &seed.known {
        par.store.merge(w.as_slice(), *mask);
    }
    for (i, (cost, w, mask)) in seed.frontier.iter().enumerate() {
        let key = match par.store.key_of(w.as_slice()) {
            Some(key) => key,
            None => par.store.merge(w.as_slice(), *mask).key,
        };
        lock_unpoisoned(&par.queues[i % threads]).push(std::cmp::Reverse((*cost, key, *mask)));
    }

    let worker_stats: Vec<SearchStats> = if threads == 1 {
        // One worker needs no pool: it runs on the calling thread, and with
        // no peer to steal from it visits in plain best-first order.
        vec![par.run_worker(0)]
    } else {
        std::thread::scope(|scope| {
            let par = &par;
            let handles: Vec<_> = (0..threads)
                .map(|id| scope.spawn(move || par.run_worker(id)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };

    let mut stats = seed.base;
    for ws in &worker_stats {
        stats.visited += ws.visited;
        stats.pushed += ws.pushed;
        stats.improvements += ws.improvements;
        stats.pruned += ws.pruned;
        stats.capped += ws.capped;
    }
    let stop_reason = lock_unpoisoned(&par.stop_reason).take();
    let (best_cost, _, best) = lock_unpoisoned(&par.incumbent).clone();
    let degradation = stop_reason.map(|reason| {
        stats.complete = false;
        config
            .budget
            .degradation(reason, par.store.len(), best == setup.initial)
    });

    // Final snapshot: every worker has exited, so the state is quiescent
    // and includes every in-hand entry of early-stopped or panicked
    // workers.
    let mut checkpoint_error = None;
    if let Some(ck) = &par.ckpt {
        checkpoint_error = lock_unpoisoned(&ck.error).take();
        if checkpoint_error.is_none() {
            let snap = par.build_snapshot(&stats);
            if let Err(e) = checkpoint::write_snapshot(&ck.cfg.path, &snap) {
                checkpoint_error = Some(e);
            }
        }
    }

    if let Some((worker, payload)) = lock_unpoisoned(&par.panic_slot).take() {
        return Err(SearchError::WorkerPanic { worker, payload });
    }
    Ok(SearchResult {
        uov: best,
        cost: best_cost,
        stats,
        degradation,
        checkpoint_error,
    })
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
            threads: 1,
            budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
            checkpoint: None,
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
            threads: 1,
            budget: Budget::unlimited().with_cancel_token(token),
            checkpoint: None,
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
            threads: 1,
            budget: Budget::unlimited().with_max_memo_entries(2),
            checkpoint: None,
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
            threads: 1,
            budget: Budget::unlimited()
                .with_max_nodes(1_000_000)
                .with_deadline(std::time::Duration::from_secs(60)),
            checkpoint: None,
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

    fn with_threads(threads: usize) -> SearchConfig {
        SearchConfig {
            threads,
            ..SearchConfig::default()
        }
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

    /// Node-for-node counters at one thread, pinned from the sequential
    /// engine the one-worker case replaced: a single worker has nobody to
    /// steal from, so it pops in plain best-first order and every counter
    /// is deterministic. The pins are a ratchet (see [`ratchet`]): this is
    /// the gate that runs the search code, where perfbench times it.
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
            for threads in [0, 1] {
                let got = find_best_uov(&s, objective, &with_threads(threads)).unwrap();
                if let Err(msg) = ratchet(&format!("{name} threads={threads}"), &got.stats, pin) {
                    failures.push(msg);
                }
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
        let got = find_best_uov(&swapped, Objective::KnownBounds(&dom), &with_threads(1)).unwrap();
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
        for threads in [1, 4] {
            let config = SearchConfig {
                budget: Budget::unlimited().with_max_nodes(2_000),
                ..with_threads(threads)
            };
            let res = find_best_uov(&s, Objective::ShortestVector, &config)
                .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
            assert!(oracle.is_uov(&res.uov), "threads={threads}: {}", res.uov);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_known_optima() {
        for threads in [2, 4, 8] {
            let best =
                find_best_uov(&fig1(), Objective::ShortestVector, &with_threads(threads)).unwrap();
            assert_eq!(best.uov, ivec![1, 1], "threads={threads}");
            assert_eq!(best.cost, 2);
            assert!(best.stats.complete);
            assert!(best.degradation.is_none());

            let best = find_best_uov(
                &stencil5(),
                Objective::ShortestVector,
                &with_threads(threads),
            )
            .unwrap();
            assert_eq!(best.uov, ivec![2, 0], "threads={threads}");
            assert_eq!(best.cost, 4);
        }
    }

    #[test]
    fn parallel_matches_sequential_uov_and_cost_exactly() {
        let stencils = [
            fig1(),
            stencil5(),
            Stencil::new(vec![ivec![2, 1], ivec![1, 3]]).unwrap(),
            Stencil::new(vec![ivec![1, -1], ivec![1, 1], ivec![2, 0]]).unwrap(),
            Stencil::new(vec![ivec![0, 1], ivec![1, -3]]).unwrap(),
            Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![0, 0, 1]]).unwrap(),
        ];
        for s in &stencils {
            let seq = find_best_uov(s, Objective::ShortestVector, &with_threads(1)).unwrap();
            for threads in [2, 3, 8] {
                let par =
                    find_best_uov(s, Objective::ShortestVector, &with_threads(threads)).unwrap();
                assert_eq!(par.uov, seq.uov, "UOV diverged at threads={threads}");
                assert_eq!(par.cost, seq.cost, "cost diverged at threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_known_bounds_matches_sequential() {
        let grid = RectDomain::grid(6, 9);
        for s in [fig1(), stencil5()] {
            let seq = find_best_uov(&s, Objective::KnownBounds(&grid), &with_threads(1)).unwrap();
            let par = find_best_uov(&s, Objective::KnownBounds(&grid), &with_threads(4)).unwrap();
            assert_eq!(par.uov, seq.uov);
            assert_eq!(par.cost, seq.cost);
        }
    }

    #[test]
    fn parallel_search_repeats_deterministically() {
        // Many repetitions under the OS scheduler: every completed run of
        // the parallel engine must return the identical (uov, cost).
        let s = stencil5();
        let reference = find_best_uov(&s, Objective::ShortestVector, &with_threads(1)).unwrap();
        for round in 0..20 {
            let par = find_best_uov(&s, Objective::ShortestVector, &with_threads(4)).unwrap();
            assert_eq!(par.uov, reference.uov, "round {round}");
            assert_eq!(par.cost, reference.cost, "round {round}");
        }
    }

    #[test]
    fn parallel_budget_truncation_stays_legal() {
        let s = stencil5();
        let oracle = crate::DoneOracle::new(&s);
        for cap in [1, 2] {
            let config = SearchConfig {
                threads: 4,
                budget: Budget::unlimited().with_max_nodes(cap),
                checkpoint: None,
            };
            let res = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
            assert!(!res.stats.complete);
            assert!(oracle.is_uov(&res.uov));
            let d = res.degradation.expect("node cap must record degradation");
            assert_eq!(d.reason, Exhausted::Nodes);
        }
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

    #[test]
    fn saturated_bound_cell_defers_to_the_exact_incumbent() {
        // A cost past u64 saturates the lock-free cell; pruning then reads
        // the exact incumbent (see the 1-D pin in
        // `one_worker_stats_are_pinned`) instead of trusting a value below
        // the true bound.
        assert_eq!(saturate_bound(3), 3);
        assert_eq!(saturate_bound(u128::from(u64::MAX) + 1), u64::MAX);
        assert_eq!(saturate_bound(u128::MAX), u64::MAX);
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

    fn ckpt_config(threads: usize, path: &std::path::Path, interval: u64) -> SearchConfig {
        SearchConfig {
            threads,
            checkpoint: Some(CheckpointConfig {
                path: path.to_path_buf(),
                interval,
            }),
            ..SearchConfig::default()
        }
    }

    #[test]
    fn checkpointed_run_writes_a_final_snapshot_and_matches_plain_run() {
        for threads in [1, 4] {
            let s = stencil5();
            let plain =
                find_best_uov(&s, Objective::ShortestVector, &with_threads(threads)).unwrap();
            let path = tmp_ckpt(&format!("final_{threads}"));
            let res = find_best_uov(
                &s,
                Objective::ShortestVector,
                &ckpt_config(threads, &path, 4),
            )
            .unwrap();
            assert_eq!(res.checkpoint_error, None, "threads={threads}");
            assert_eq!(res.uov, plain.uov);
            assert_eq!(res.cost, plain.cost);
            let snap = checkpoint::read_snapshot(&path).unwrap();
            assert_eq!(snap.incumbent, res.uov);
            assert_eq!(snap.incumbent_cost, res.cost);
            assert!(
                snap.frontier.is_empty(),
                "a completed search leaves no frontier (threads={threads})"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn interrupted_then_resumed_search_matches_uninterrupted() {
        for threads in [1, 4] {
            for cut in [1u64, 3, 7, 15] {
                let s = stencil5();
                let reference =
                    find_best_uov(&s, Objective::ShortestVector, &with_threads(threads)).unwrap();
                let path = tmp_ckpt(&format!("resume_{threads}_{cut}"));
                let mut interrupted = SearchConfig {
                    budget: Budget::unlimited().with_max_nodes(cut),
                    ..ckpt_config(threads, &path, 1)
                };
                let partial = find_best_uov(&s, Objective::ShortestVector, &interrupted).unwrap();
                assert_eq!(partial.checkpoint_error, None);
                // Resume with the node cap lifted: must land on the exact
                // canonical answer, not merely *a* UOV.
                interrupted.budget = Budget::unlimited();
                let resumed =
                    search_resume(&path, &s, Objective::ShortestVector, &interrupted).unwrap();
                assert_eq!(
                    (resumed.uov.clone(), resumed.cost),
                    (reference.uov.clone(), reference.cost),
                    "threads={threads} cut={cut}"
                );
                assert!(resumed.stats.complete);
                assert!(resumed.degradation.is_none());
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn resume_honours_a_cumulative_node_budget() {
        let s = stencil5();
        let path = tmp_ckpt("cumulative");
        let config = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(3),
            ..ckpt_config(1, &path, 1)
        };
        let first = find_best_uov(&s, Objective::ShortestVector, &config).unwrap();
        assert!(first.degradation.is_some());
        // Same cap on resume: already spent, so it degrades immediately
        // instead of granting a fresh allowance.
        let config = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(3),
            ..ckpt_config(1, &path, 1)
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
        let res = find_best_uov(&s, Objective::ShortestVector, &ckpt_config(1, &path, 8)).unwrap();
        assert_eq!(res.checkpoint_error, None);
        let other = fig1();
        let err =
            search_resume(&path, &other, Objective::ShortestVector, &with_threads(1)).unwrap_err();
        assert!(matches!(
            err,
            SearchError::Checkpoint(CheckpointError::StencilMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A domain whose `num_points` panics after `fuse` calls. Setup
    /// (`DomainFacts` + the initial UOV's cost) spends two calls on the
    /// caller thread, so any fuse ≥ 3 fires inside the engines, where a
    /// cost evaluation per expanded child keeps querying it.
    #[derive(Debug)]
    struct FusedDomain<'a> {
        grid: &'a RectDomain,
        calls: std::sync::atomic::AtomicUsize,
        fuse: usize,
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
            use std::sync::atomic::Ordering;
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            assert!(n < self.fuse, "injected domain fault");
            self.grid.num_points()
        }
    }

    #[test]
    fn worker_panic_is_caught_as_a_typed_error() {
        let s = fig1();
        let grid = RectDomain::grid(6, 6);
        for threads in [1, 4] {
            let fused = FusedDomain {
                grid: &grid,
                calls: std::sync::atomic::AtomicUsize::new(0),
                fuse: 3,
            };
            let err = find_best_uov(&s, Objective::KnownBounds(&fused), &with_threads(threads))
                .unwrap_err();
            match err {
                SearchError::WorkerPanic { payload, .. } => {
                    assert!(
                        payload.contains("injected domain fault"),
                        "threads={threads}"
                    );
                }
                other => panic!("expected WorkerPanic, got {other:?} (threads={threads})"),
            }
        }
    }

    #[test]
    fn panicked_checkpointed_search_still_writes_a_resumable_snapshot() {
        let s = fig1();
        let grid = RectDomain::grid(6, 6);
        for threads in [1, 4] {
            let reference =
                find_best_uov(&s, Objective::KnownBounds(&grid), &with_threads(threads)).unwrap();
            let path = tmp_ckpt(&format!("panic_resume_{threads}"));
            let fused = FusedDomain {
                grid: &grid,
                calls: std::sync::atomic::AtomicUsize::new(0),
                fuse: 6,
            };
            let err = find_best_uov(
                &s,
                Objective::KnownBounds(&fused),
                &ckpt_config(threads, &path, 1),
            )
            .unwrap_err();
            assert!(
                matches!(err, SearchError::WorkerPanic { .. }),
                "threads={threads}"
            );
            // A final snapshot is written even after a panic; resuming it
            // with a healthy domain completes the search exactly.
            let resumed = search_resume(
                &path,
                &s,
                Objective::KnownBounds(&grid),
                &ckpt_config(threads, &path, 1),
            )
            .unwrap();
            assert_eq!(resumed.uov, reference.uov, "threads={threads}");
            assert_eq!(resumed.cost, reference.cost, "threads={threads}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A fault in the origin's own expansion (fuse 3 fires at its second
    /// child) leaves the origin, queued at cost 0, as the whole frontier.
    /// The zero vector has no class count, and the snapshot must still
    /// resume.
    #[test]
    fn panic_while_expanding_the_origin_leaves_a_resumable_snapshot() {
        let s = fig1();
        let grid = RectDomain::grid(6, 6);
        for threads in [1, 4] {
            let reference =
                find_best_uov(&s, Objective::KnownBounds(&grid), &with_threads(threads)).unwrap();
            let path = tmp_ckpt(&format!("origin_panic_{threads}"));
            let fused = FusedDomain {
                grid: &grid,
                calls: std::sync::atomic::AtomicUsize::new(0),
                fuse: 3,
            };
            let err = find_best_uov(
                &s,
                Objective::KnownBounds(&fused),
                &ckpt_config(threads, &path, 1),
            )
            .unwrap_err();
            assert!(
                matches!(err, SearchError::WorkerPanic { .. }),
                "threads={threads}"
            );
            let snap = checkpoint::read_snapshot(&path).unwrap();
            assert_eq!(
                snap.frontier,
                vec![(0, IVec::zero(2), 0)],
                "threads={threads}"
            );
            let resumed = search_resume(
                &path,
                &s,
                Objective::KnownBounds(&grid),
                &with_threads(threads),
            )
            .unwrap();
            assert_eq!(resumed.uov, reference.uov, "threads={threads}");
            assert_eq!(resumed.cost, reference.cost, "threads={threads}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A chain of node-capped runs, each resumed from the previous run's
    /// checkpoint file, lands on the exact canonical answer. The cap is
    /// cumulative (resume restores the charged nodes), so each step grants
    /// `cut` nodes past the charge its snapshot recorded.
    #[test]
    fn node_capped_resume_chain_lands_on_the_exact_answer() {
        for threads in [1usize, 4] {
            for cut in [1u64, 3, 7] {
                let s = stencil5();
                let reference =
                    find_best_uov(&s, Objective::ShortestVector, &with_threads(threads)).unwrap();
                let path = tmp_ckpt(&format!("chain_{threads}_{cut}"));
                let capped = |nodes: u64| SearchConfig {
                    budget: Budget::unlimited().with_max_nodes(nodes),
                    ..ckpt_config(threads, &path, 1)
                };
                let mut res = find_best_uov(&s, Objective::ShortestVector, &capped(cut)).unwrap();
                let mut steps = 0;
                while !res.stats.complete {
                    steps += 1;
                    assert!(steps <= 10_000, "resume chain failed to converge");
                    assert_eq!(res.checkpoint_error, None);
                    let charged = checkpoint::read_snapshot(&path).unwrap().nodes_charged;
                    res =
                        search_resume(&path, &s, Objective::ShortestVector, &capped(charged + cut))
                            .unwrap();
                }
                assert_eq!(
                    (res.uov, res.cost),
                    (reference.uov.clone(), reference.cost),
                    "threads={threads} cut={cut}"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

//! Independent certification of search results.
//!
//! The branch-and-bound engine is one best-first worker, but its pruning
//! thresholds, dense PATHSET table and checkpointing (`search` and
//! `dense`) are far more code than the paper's definition of a UOV; the
//! legality of its answer should not rest on all of that being correct.
//! This module is the deliberately small trust anchor: it re-derives
//! universality straight from the paper's definition — `w` is a UOV iff
//! `w − vᵢ` lies in the DONE cone for every stencil vector `vᵢ` — using a
//! **fresh** [`DoneOracle`] that shares no state with the search, and
//! re-computes the claimed objective value from scratch.
//!
//! [`certify`] is run by [`plan`](../../uov/driver/fn.plan.html) on every
//! emitted UOV (including degraded `Σvᵢ` fallbacks and resumed-run
//! answers) before the mapping reaches the caller; a failure is a typed
//! [`CertifyError`], never a silently wrong storage mapping. The returned
//! [`Certificate`] records what was checked — the vector, its cost, the
//! DONE-witness count and a transcript hash — so results can be compared
//! and audited across runs and machines.

use std::fmt;

use uov_isg::{IVec, Stencil};

use crate::error::SearchError;
use crate::fingerprint::{fingerprint, Fnv};
use crate::oracle::{diff_into, DoneOracle};
use crate::search::{try_cost_of, Objective, SearchResult};

/// Proof-of-validation attached to a certified search result.
///
/// A certificate is evidence that the independent checker accepted the
/// result, not a replayable proof object: `transcript_hash` binds the
/// checked facts (problem fingerprint, vector, cost, witness counts)
/// into one comparable value, so two runs certifying the same answer on
/// the same problem produce identical hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The certified universal occupancy vector.
    pub uov: IVec,
    /// Its independently recomputed objective value.
    pub cost: u128,
    /// Stencil dependences checked (one DONE membership test each).
    pub dependences_checked: usize,
    /// Size of the oracle's DONE witness set after certification — the
    /// cone memo that proves the membership verdicts.
    pub done_witnesses: usize,
    /// FNV-1a hash over the problem fingerprint, the vector, the cost
    /// and the witness counts.
    pub transcript_hash: u64,
    /// Whether the certified result came from a degraded (budget-cut)
    /// search. Degraded answers are legal but possibly non-optimal.
    pub degraded: bool,
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certified uov={} cost={} ({} dependences, {} DONE witnesses, transcript {:#018x}{})",
            self.uov,
            self.cost,
            self.dependences_checked,
            self.done_witnesses,
            self.transcript_hash,
            if self.degraded { ", degraded" } else { "" }
        )
    }
}

/// Why certification rejected a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// `uov − violated` is not in the DONE cone: the vector is not
    /// universal and using it would alias live values.
    NotUniversal {
        /// The rejected occupancy vector.
        uov: IVec,
        /// The stencil dependence whose backward step leaves the cone.
        violated: IVec,
    },
    /// The result's claimed objective value does not match an
    /// independent recomputation.
    CostMismatch {
        /// Cost claimed by the search result.
        claimed: u128,
        /// Cost the checker computed from scratch.
        recomputed: u128,
    },
    /// The checker itself could not run (oracle construction or cost
    /// recomputation failed on out-of-range inputs).
    Search(SearchError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::NotUniversal { uov, violated } => write!(
                f,
                "occupancy vector {uov} is not universal: {uov} − {violated} leaves the DONE cone"
            ),
            CertifyError::CostMismatch {
                claimed,
                recomputed,
            } => write!(
                f,
                "claimed cost {claimed} does not match independently recomputed cost {recomputed}"
            ),
            CertifyError::Search(e) => write!(f, "certifier could not run: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CertifyError::Search(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SearchError> for CertifyError {
    fn from(e: SearchError) -> Self {
        CertifyError::Search(e)
    }
}

/// Re-validate a search result against the paper's UOV definition and
/// recompute its cost, with no state shared with the search engine.
///
/// # Errors
///
/// * [`CertifyError::NotUniversal`] — the vector fails a DONE membership
///   test for some dependence (this would be an engine bug; the caller
///   must discard the mapping).
/// * [`CertifyError::CostMismatch`] — the vector is universal but its
///   claimed objective value is wrong.
/// * [`CertifyError::Search`] — the checker could not run at all.
///
/// # Examples
///
/// ```
/// use uov_core::certify::certify;
/// use uov_core::search::{find_best_uov, Objective, SearchConfig};
/// use uov_isg::{ivec, Stencil};
///
/// let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
/// let best = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())?;
/// let cert = certify(&s, &Objective::ShortestVector, &best)?;
/// assert_eq!(cert.uov, ivec![1, 1]);
/// assert!(!cert.degraded);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn certify(
    stencil: &Stencil,
    objective: &Objective<'_>,
    result: &SearchResult,
) -> Result<Certificate, CertifyError> {
    let oracle = DoneOracle::try_new(stencil)?;
    let unlimited = crate::budget::Budget::unlimited();
    let mut dependences_checked = 0;
    // One scratch buffer serves every dependence check: the certifier
    // re-derives each `uov − vᵢ` in place and queries the oracle through
    // its allocation-free slice entry point.
    let mut back: Vec<i64> = Vec::with_capacity(stencil.dim());
    for v in stencil.iter() {
        diff_into(result.uov.as_slice(), v.as_slice(), &mut back).map_err(CertifyError::from)?;
        if !oracle.in_done_slice_budgeted(&back, &unlimited)? {
            return Err(CertifyError::NotUniversal {
                uov: result.uov.clone(),
                violated: v.clone(),
            });
        }
        dependences_checked += 1;
    }
    let recomputed = try_cost_of(objective, &result.uov).map_err(SearchError::from)?;
    if recomputed != result.cost {
        return Err(CertifyError::CostMismatch {
            claimed: result.cost,
            recomputed,
        });
    }
    let done_witnesses = oracle.cache_len();
    let degraded = result.degradation.is_some();
    let mut h = Fnv::new();
    h.write_u64(fingerprint(stencil, objective));
    for &c in result.uov.as_slice() {
        h.write_i64(c);
    }
    h.write(&result.cost.to_le_bytes());
    h.write_u64(dependences_checked as u64);
    h.write_u64(done_witnesses as u64);
    h.write_u64(u64::from(degraded));
    Ok(Certificate {
        uov: result.uov.clone(),
        cost: recomputed,
        dependences_checked,
        done_witnesses,
        transcript_hash: h.finish(),
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{find_best_uov, SearchConfig};
    use uov_isg::{ivec, RectDomain};

    fn fig1() -> Stencil {
        Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap()
    }

    #[test]
    fn honest_results_certify() {
        let s = fig1();
        let best = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        let cert = certify(&s, &Objective::ShortestVector, &best).unwrap();
        assert_eq!(cert.uov, best.uov);
        assert_eq!(cert.cost, best.cost);
        assert_eq!(cert.dependences_checked, 3);
        assert!(cert.done_witnesses > 0);
        assert!(!cert.degraded);
    }

    #[test]
    fn transcript_hash_is_reproducible_and_sensitive() {
        let s = fig1();
        let best = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        let a = certify(&s, &Objective::ShortestVector, &best).unwrap();
        let b = certify(&s, &Objective::ShortestVector, &best).unwrap();
        assert_eq!(a.transcript_hash, b.transcript_hash);
        let grid = RectDomain::grid(6, 6);
        let kb =
            find_best_uov(&s, Objective::KnownBounds(&grid), &SearchConfig::default()).unwrap();
        let c = certify(&s, &Objective::KnownBounds(&grid), &kb).unwrap();
        assert_ne!(a.transcript_hash, c.transcript_hash);
    }

    #[test]
    fn forged_vector_is_rejected() {
        let s = fig1();
        let mut forged =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        forged.uov = ivec![1, 0]; // a single dependence, not universal
        forged.cost = 1;
        match certify(&s, &Objective::ShortestVector, &forged) {
            Err(CertifyError::NotUniversal { uov, .. }) => assert_eq!(uov, ivec![1, 0]),
            other => panic!("expected NotUniversal, got {other:?}"),
        }
    }

    #[test]
    fn forged_cost_is_rejected() {
        let s = fig1();
        let mut lied =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        lied.cost += 1;
        match certify(&s, &Objective::ShortestVector, &lied) {
            Err(CertifyError::CostMismatch {
                claimed,
                recomputed,
            }) => {
                assert_eq!(claimed, recomputed + 1);
            }
            other => panic!("expected CostMismatch, got {other:?}"),
        }
    }

    #[test]
    fn degraded_fallback_certifies_as_degraded() {
        let s = fig1();
        let cut = find_best_uov(
            &s,
            Objective::ShortestVector,
            &SearchConfig {
                budget: crate::Budget::unlimited().with_max_nodes(1),
                ..SearchConfig::default()
            },
        )
        .unwrap();
        assert!(cut.degradation.is_some());
        let cert = certify(&s, &Objective::ShortestVector, &cut).unwrap();
        assert!(cert.degraded, "Σvᵢ fallback is legal but flagged degraded");
        assert_eq!(cert.uov, crate::search::initial_uov(&s));
    }
}

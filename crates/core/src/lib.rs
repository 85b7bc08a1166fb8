//! Universal occupancy vectors (UOV) — the core contribution of
//! Strout, Carter, Ferrante and Simon, *Schedule-Independent Storage
//! Mapping for Loops* (ASPLOS 1998).
//!
//! An **occupancy vector** `ov` lets iteration `q` of a regular loop reuse
//! the storage cell written by iteration `q − ov`. The OV is **universal**
//! when the reuse is safe under *every* schedule that respects the loop's
//! value dependences — equivalently (paper §3.1), when for every stencil
//! vector `vᵢ` the difference `ov − vᵢ` is a non-negative integer
//! combination of stencil vectors.
//!
//! This crate provides:
//!
//! * [`DoneOracle`] — exact decision procedures for the DONE set
//!   (non-negative integer cone membership), the DEAD set, and UOV
//!   membership. UOV membership is NP-complete, so the procedures are
//!   worst-case exponential but fast for realistic stencils.
//! * [`search`] — the paper's branch-and-bound search for the *optimal*
//!   UOV (shortest, or storage-minimal when loop bounds are known),
//!   including the trivially legal initial UOV `Σvᵢ`. It is one
//!   best-first worker on the calling thread, and the oracle and the
//!   search's [`dense`] tables are single-threaded.
//! * [`objective`] — storage-class counting for candidate OVs over concrete
//!   iteration domains (paper §3.2, Fig. 3 and Fig. 6).
//! * [`npc`] — the PARTITION ⇒ UOV-membership reduction from the paper's
//!   NP-completeness theorem, usable in both directions for testing.
//! * [`budget`] — resource budgets (deadline, node/memo caps, cancellation)
//!   with graceful degradation to the always-legal initial UOV; a budget's
//!   node cap is the search's only one.
//! * [`certify`](mod@certify) — an independent re-check of a search
//!   result, with a transcript hash that pins it byte for byte.
//! * [`checkpoint`] — crash-safe search snapshots and resume, on the
//!   [`wire`] primitives (CRC-checked sections, the one atomic file
//!   writer) that the planning service's files and frames share.
//!
//! # Example
//!
//! ```
//! use uov_isg::{ivec, Stencil};
//! use uov_core::{search::{find_best_uov, Objective, SearchConfig}, DoneOracle};
//!
//! // Figure 1 of the paper: A[i,j] = f(A[i-1,j], A[i,j-1], A[i-1,j-1]).
//! let stencil = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
//!
//! let oracle = DoneOracle::new(&stencil);
//! assert!(oracle.is_uov(&ivec![1, 1]));   // the paper's chosen UOV
//! assert!(!oracle.is_uov(&ivec![1, 0]));  // legal for *some* schedules only
//!
//! let best = find_best_uov(&stencil, Objective::ShortestVector, &SearchConfig::default())?;
//! assert_eq!(best.uov, ivec![1, 1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod cache;
pub mod certify;
pub mod checkpoint;
pub mod dense;
pub mod error;
pub mod fingerprint;
pub mod npc;
pub mod objective;
pub mod oracle;
pub mod search;
pub mod wire;

pub use budget::{Budget, Degradation, Exhausted};
pub use cache::ShardedLru;
pub use certify::{certify, Certificate, CertifyError};
pub use checkpoint::{CheckpointConfig, CheckpointError};
pub use dense::{ConeMemo, MaskTable, Window};
pub use error::SearchError;
pub use fingerprint::{fingerprint, Fnv};
pub use oracle::DoneOracle;
pub use search::{
    find_best_uov, initial_uov, search_resume, Objective, SearchConfig, SearchResult, SearchStats,
};

//! Typed errors for oracle queries and UOV searches.

use std::fmt;

use uov_isg::IsgError;

use crate::budget::Exhausted;
use crate::checkpoint::CheckpointError;

/// Error from a UOV search or oracle query.
///
/// Budget exhaustion is **not** normally surfaced this way: the search
/// routines degrade to a legal incumbent and attach a
/// [`Degradation`](crate::budget::Degradation) record instead. The
/// [`SearchError::Exhausted`] variant appears only from the raw budgeted
/// oracle queries, where there is no legal fallback answer to give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The PATHSET bitmask implementation handles at most 63 stencil
    /// vectors.
    TooManyVectors(usize),
    /// The stencil and the iteration domain disagree on dimensionality.
    DimMismatch {
        /// Dimension of the stencil.
        stencil: usize,
        /// Dimension of the domain or query vector.
        domain: usize,
    },
    /// Lattice arithmetic failed (overflow on adversarial coordinates).
    Isg(IsgError),
    /// A budgeted query ran out of budget before reaching an answer.
    Exhausted(Exhausted),
    /// A search worker panicked; the panic was caught at the worker
    /// boundary and the surviving workers drained (or the final
    /// checkpoint was written) before this error was returned. The
    /// process never aborts on a worker panic.
    WorkerPanic {
        /// Index of the panicking worker (`0` when the search ran one
        /// worker).
        worker: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// A resume could not restore state from a snapshot file.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::TooManyVectors(n) => {
                write!(f, "stencil has {n} vectors; the search supports at most 63")
            }
            SearchError::DimMismatch { stencil, domain } => {
                write!(f, "stencil dimension {stencil} does not match {domain}")
            }
            SearchError::Isg(e) => write!(f, "lattice arithmetic failed: {e}"),
            SearchError::Exhausted(e) => write!(f, "query budget exhausted: {e}"),
            SearchError::WorkerPanic { worker, payload } => {
                write!(f, "search worker {worker} panicked: {payload}")
            }
            SearchError::Checkpoint(e) => write!(f, "checkpoint resume failed: {e}"),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Isg(e) => Some(e),
            SearchError::Exhausted(e) => Some(e),
            SearchError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsgError> for SearchError {
    fn from(e: IsgError) -> Self {
        SearchError::Isg(e)
    }
}

impl From<Exhausted> for SearchError {
    fn from(e: Exhausted) -> Self {
        SearchError::Exhausted(e)
    }
}

impl From<CheckpointError> for SearchError {
    fn from(e: CheckpointError) -> Self {
        SearchError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(SearchError::TooManyVectors(64).to_string().contains("64"));
        assert!(SearchError::DimMismatch {
            stencil: 2,
            domain: 3
        }
        .to_string()
        .contains("2"));
        let e: SearchError = IsgError::ZeroVector.into();
        assert!(matches!(e, SearchError::Isg(IsgError::ZeroVector)));
        let e: SearchError = Exhausted::Deadline.into();
        assert!(e.to_string().contains("deadline"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn panic_and_checkpoint_variants_display() {
        let e = SearchError::WorkerPanic {
            worker: 3,
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("worker 3"));
        assert!(e.to_string().contains("boom"));
        let e: SearchError = CheckpointError::BadMagic.into();
        assert!(matches!(
            e,
            SearchError::Checkpoint(CheckpointError::BadMagic)
        ));
        assert!(e.to_string().contains("magic"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

//! Resource budgets and graceful-degradation records.
//!
//! UOV membership is NP-complete in the number of stencil vectors (see
//! [`crate::npc`]), so every exact routine in this crate can be handed an
//! adversarial instance that runs for geological time. A [`Budget`] bounds
//! the work — wall-clock deadline, explored-node cap, memo-table cap, and a
//! cooperative cancellation token — and the search routines respond to an
//! exhausted budget by *degrading*, not erroring: they return the best
//! incumbent found so far (at worst the always-legal initial UOV `Σvᵢ`)
//! together with a [`Degradation`] record saying what was cut short.
//!
//! Budgets are cheap to check: the node counter is an [`AtomicU64`], so a
//! budget works through a shared reference (the oracle and the search
//! both charge it), and the clock and the cancellation token — which
//! another thread, such as the planning server's watchdog, may set — are
//! only consulted once every [`CHECK_INTERVAL`](Budget::CHECK_INTERVAL)
//! nodes. A deadline or a cancellation may therefore be overshot by at
//! most one check interval's worth of node expansions.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhausted {
    /// The wall-clock deadline passed.
    Deadline,
    /// The explored-node cap was reached.
    Nodes,
    /// The memoization table reached its entry cap.
    Memo,
    /// The cancellation token was set by another thread.
    Cancelled,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Deadline => write!(f, "wall-clock deadline exceeded"),
            Exhausted::Nodes => write!(f, "node budget exhausted"),
            Exhausted::Memo => write!(f, "memoization budget exhausted"),
            Exhausted::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for Exhausted {}

/// How a budgeted computation fell short of the exact answer.
///
/// Carried by degraded-but-valid results: the accompanying answer is always
/// *legal* (e.g. a true UOV), merely possibly non-optimal or incomplete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Which budget dimension ran out.
    pub reason: Exhausted,
    /// Nodes charged to the budget when the computation stopped.
    pub nodes_at_stop: u64,
    /// Memo-table entries at the moment the computation stopped.
    pub memo_entries_at_stop: usize,
    /// Whether the result fell all the way back to the initial UOV `Σvᵢ`
    /// (no better incumbent had been proven before the budget ran out).
    pub fell_back_to_initial: bool,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded ({}; {} nodes, {} memo entries{})",
            self.reason,
            self.nodes_at_stop,
            self.memo_entries_at_stop,
            if self.fell_back_to_initial {
                "; fell back to initial UOV"
            } else {
                ""
            }
        )
    }
}

/// A work bound for oracle queries and UOV searches.
///
/// The default budget is unlimited. Budgets are built fluently:
///
/// ```
/// use std::time::Duration;
/// use uov_core::Budget;
///
/// let b = Budget::unlimited()
///     .with_deadline(Duration::from_millis(5))
///     .with_max_nodes(100_000)
///     .with_max_memo_entries(1 << 20);
/// assert!(b.charge().is_ok());
/// ```
///
/// A single `Budget` value tracks consumed nodes across everything it is
/// threaded through. Clone it to get an independent counter with the same
/// limits (a cloned deadline still refers to the same wall-clock instant,
/// and a cloned cancellation token still trips together).
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_nodes: Option<u64>,
    max_memo: Option<usize>,
    cancel: Option<Arc<AtomicBool>>,
    nodes: AtomicU64,
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget {
            deadline: self.deadline,
            max_nodes: self.max_nodes,
            max_memo: self.max_memo,
            cancel: self.cancel.clone(),
            nodes: AtomicU64::new(self.nodes.load(Ordering::Relaxed)),
        }
    }
}

impl Budget {
    /// The deadline and the cancellation token are polled once every this
    /// many charged nodes, so either can be overshot by at most
    /// `CHECK_INTERVAL − 1` node expansions.
    pub const CHECK_INTERVAL: u64 = 64;

    /// A budget with no limits: never reports exhaustion.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Stop `duration` from now.
    pub fn with_deadline(self, duration: Duration) -> Self {
        self.with_deadline_at(Instant::now() + duration)
    }

    /// Stop at the given instant.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Stop after charging `n` nodes.
    pub fn with_max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Stop once a memo table the budget guards reaches `n` entries.
    pub fn with_max_memo_entries(mut self, n: usize) -> Self {
        self.max_memo = Some(n);
        self
    }

    /// Stop as soon as `token` is observed `true` (checked at the same
    /// cadence as the deadline).
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Nodes charged so far (across everything this budget value is
    /// threaded through).
    pub fn nodes_charged(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Raise the node counter to at least `n` (it never decreases).
    ///
    /// Used by checkpoint resume: a resumed search inherits the nodes the
    /// interrupted run already charged, so a cumulative `max_nodes` cap
    /// holds across arbitrarily many interrupt/resume cycles instead of
    /// resetting on every restart.
    pub fn restore_nodes_charged(&self, n: u64) {
        self.nodes.fetch_max(n, Ordering::Relaxed);
    }

    /// Charge one unit of work (one search-node expansion). Every
    /// `CHECK_INTERVAL`-th charge polls the clock and token.
    ///
    /// # Errors
    ///
    /// Returns the exhausted dimension once a limit is hit. The node cap is
    /// exact; deadline and cancellation are polled every
    /// [`CHECK_INTERVAL`](Budget::CHECK_INTERVAL) nodes, giving an
    /// overshoot bound of one check interval.
    pub fn charge(&self) -> Result<(), Exhausted> {
        let n = self.nodes.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        if let Some(cap) = self.max_nodes {
            if n > cap {
                return Err(Exhausted::Nodes);
            }
        }
        if n.is_multiple_of(Self::CHECK_INTERVAL) || n == 1 {
            if let Some(tok) = &self.cancel {
                if tok.load(Ordering::Relaxed) {
                    return Err(Exhausted::Cancelled);
                }
            }
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(Exhausted::Deadline);
                }
            }
        }
        Ok(())
    }

    /// Check a memo table's size against the memo cap.
    ///
    /// # Errors
    ///
    /// Returns [`Exhausted::Memo`] when `len` has reached the cap.
    pub fn check_memo(&self, len: usize) -> Result<(), Exhausted> {
        match self.max_memo {
            Some(cap) if len >= cap => Err(Exhausted::Memo),
            _ => Ok(()),
        }
    }

    /// Build a [`Degradation`] record for a computation stopped by `reason`.
    pub fn degradation(
        &self,
        reason: Exhausted,
        memo_entries: usize,
        fell_back_to_initial: bool,
    ) -> Degradation {
        Degradation {
            reason,
            nodes_at_stop: self.nodes.load(Ordering::Relaxed),
            memo_entries_at_stop: memo_entries,
            fell_back_to_initial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge().is_ok());
        }
        assert!(b.check_memo(usize::MAX).is_ok());
        assert_eq!(b.nodes_charged(), 10_000);
    }

    #[test]
    fn node_cap_is_exact() {
        let b = Budget::unlimited().with_max_nodes(5);
        for _ in 0..5 {
            assert!(b.charge().is_ok());
        }
        assert_eq!(b.charge(), Err(Exhausted::Nodes));
    }

    #[test]
    fn deadline_trips_within_interval() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        // The very first charge polls the clock.
        assert_eq!(b.charge(), Err(Exhausted::Deadline));
    }

    #[test]
    fn deadline_overshoot_is_bounded() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        let mut charges = 0u64;
        while b.charge().is_ok() {
            charges += 1;
            assert!(
                charges < Budget::CHECK_INTERVAL,
                "deadline ignored past check interval"
            );
        }
    }

    #[test]
    fn cancel_token_observed() {
        let token = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_token(token.clone());
        assert!(b.charge().is_ok());
        token.store(true, Ordering::Relaxed);
        let mut tripped = false;
        for _ in 0..Budget::CHECK_INTERVAL {
            if b.charge() == Err(Exhausted::Cancelled) {
                tripped = true;
                break;
            }
        }
        assert!(
            tripped,
            "cancellation not observed within one check interval"
        );
    }

    #[test]
    fn memo_cap() {
        let b = Budget::unlimited().with_max_memo_entries(3);
        assert!(b.check_memo(2).is_ok());
        assert_eq!(b.check_memo(3), Err(Exhausted::Memo));
    }

    #[test]
    fn node_cap_is_exact_under_concurrent_charging() {
        let b = Budget::unlimited().with_max_nodes(1000);
        let ok = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..300 {
                        if b.charge().is_ok() {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 1200 concurrent charges against a cap of 1000: exactly the first
        // 1000 (by atomic order) succeed, regardless of interleaving.
        assert_eq!(ok.load(Ordering::Relaxed), 1000);
        assert_eq!(b.nodes_charged(), 1200);
    }

    #[test]
    fn clone_copies_the_counter_snapshot() {
        let b = Budget::unlimited().with_max_nodes(10);
        let _ = b.charge();
        let c = b.clone();
        assert_eq!(c.nodes_charged(), 1);
        let _ = c.charge();
        assert_eq!(c.nodes_charged(), 2);
        assert_eq!(b.nodes_charged(), 1, "clones count independently");
    }

    #[test]
    fn degradation_record_and_display() {
        let b = Budget::unlimited().with_max_nodes(1);
        let _ = b.charge();
        let _ = b.charge();
        let d = b.degradation(Exhausted::Nodes, 7, true);
        assert_eq!(d.nodes_at_stop, 2);
        assert_eq!(d.memo_entries_at_stop, 7);
        assert!(d.fell_back_to_initial);
        let text = d.to_string();
        assert!(text.contains("node budget"));
        assert!(text.contains("initial UOV"));
        assert!(Exhausted::Deadline.to_string().contains("deadline"));
    }

    #[test]
    fn restored_nodes_count_against_a_cumulative_cap() {
        let b = Budget::unlimited().with_max_nodes(10);
        b.restore_nodes_charged(9);
        assert_eq!(b.nodes_charged(), 9);
        assert!(b.charge().is_ok(), "10th node is within the cap");
        assert!(b.charge().is_err(), "11th node exceeds it");
        // Restoring never rolls the counter back.
        b.restore_nodes_charged(3);
        assert_eq!(b.nodes_charged(), 11);
    }
}

//! The canonicalizing plan cache with single-flight deduplication.
//!
//! Every planning request is first canonicalized ([`crate::canon`]) so
//! axis-relabeled and symmetric requests share one cache slot (except
//! known-bounds problems of dimension ≥ 3, whose optimum depends on the
//! axis order and which keep one slot per order), then keyed by the
//! workspace-standard problem fingerprint into a sharded LRU.
//!
//! Three rules keep cached answers byte-identical to cold solves:
//!
//! 1. A hit's full canonical problem (vectors **and** objective) is
//!    compared against the stored one before use — a fingerprint
//!    collision degrades to a miss, never a wrong answer.
//! 2. The mapped-back vector's cost is independently recomputed; any
//!    mismatch degrades to a direct solve.
//! 3. When the hit travelled through a non-identity permutation, the lex
//!    tie-break is repaired ([`crate::canon::lex_min_equivalent`]) so the
//!    response equals what a direct search of the *original* problem
//!    returns under the engine's `(cost, ‖w‖², lex w)` order.
//!
//! Degraded (budget-cut) results are published to coalesced waiters — all
//! concurrent identical requests still receive one identical answer — but
//! are **never** inserted into the LRU: the cache only ever serves answers
//! that were optimal when computed.
//!
//! The cache's own miss leader is the only writer of the LRU. Certification
//! checks an answer's legality and cost, not its optimality (UOV membership
//! alone is NP-complete), so an answer handed in from outside — by a peer
//! or from a file — could not be confirmed optimal without searching again.
//! DESIGN.md's "Why a replica's cache holds only its own searches" gives
//! the measurements.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use uov_core::search::try_cost_of;
use uov_core::{fingerprint, Degradation, SearchResult, ShardedLru};
use uov_isg::{IVec, Stencil};

use crate::canon::{canonicalize, lex_min_equivalent, map_back, Canonical};
use crate::proto::{CacheOutcome, ObjectiveSpec};

/// Default number of distinct canonical plans the cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// A planning answer plus how the cache produced it.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The optimal (or budget-degraded) UOV, in the *request's* coordinates.
    pub uov: IVec,
    /// Its objective value.
    pub cost: u128,
    /// Present iff the answer came from a budget-cut search.
    pub degradation: Option<Degradation>,
    /// How the cache handled the request.
    pub cache: CacheOutcome,
}

/// One stored plan: the full canonical problem it answers (for collision
/// defence) and its optimal answer in canonical coordinates.
#[derive(Debug, Clone)]
struct CachedPlan {
    vectors: Vec<IVec>,
    objective: ObjectiveSpec,
    uov: IVec,
    cost: u128,
}

/// In-canonical-coordinates result a flight leader publishes to waiters.
type FlightOutcome = Result<(IVec, u128, Option<Degradation>), String>;

/// One in-flight canonical solve that concurrent identical requests park on.
struct Flight {
    slot: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, outcome: FlightOutcome) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        self.cv.notify_all();
    }

    fn wait(&self) -> FlightOutcome {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = match self.cv.wait(slot) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
}

/// Cache traffic counters, all monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the LRU without searching.
    pub hits: u64,
    /// Requests that ran (or led) a search.
    pub misses: u64,
    /// Requests that parked on another request's in-flight search.
    pub coalesced: u64,
}

/// Ensures a flight leader that panics or errors before publishing still
/// wakes its waiters (with a typed failure) and unregisters the flight.
struct LeaderGuard<'a> {
    cache: &'a PlanCache,
    key: u64,
    flight: Arc<Flight>,
    done: bool,
}

impl LeaderGuard<'_> {
    /// Publish the outcome, wake every waiter, and retire the flight.
    fn finish(&mut self, outcome: FlightOutcome) {
        self.cache.remove_flight(self.key);
        self.flight.publish(outcome);
        self.done = true;
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.remove_flight(self.key);
            self.flight
                .publish(Err("plan search aborted before publishing a result".into()));
        }
    }
}

/// The canonicalizing, single-flight, LRU-backed plan cache.
pub struct PlanCache {
    lru: ShardedLru<u64, CachedPlan>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` canonical plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            lru: ShardedLru::new(capacity, 8),
            flights: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    fn remove_flight(&self, key: u64) {
        let mut flights = self.flights.lock().unwrap_or_else(|p| p.into_inner());
        flights.remove(&key);
    }

    /// Answer a planning request through the cache.
    ///
    /// `solve` is invoked at most once per canonical problem across all
    /// concurrent callers; it receives the *canonical* problem on a miss
    /// (and, on rare repair-fallback paths, the original one).
    pub fn plan<F>(
        &self,
        stencil: &Stencil,
        objective: &ObjectiveSpec,
        solve: F,
    ) -> Result<Planned, String>
    where
        F: Fn(&Stencil, &ObjectiveSpec) -> Result<SearchResult, String>,
    {
        let canon = canonicalize(stencil, objective);
        let key = fingerprint(&canon.stencil, &canon.objective.as_objective());

        // Fast path: a completed plan for this canonical problem.
        if let Some(entry) = self.lru.get(&key) {
            if entry.vectors == canon.stencil.vectors() && entry.objective == canon.objective {
                if let Some((uov, cost)) =
                    self.realize(stencil, objective, &canon, &entry.uov, entry.cost, false)
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Planned {
                        uov,
                        cost,
                        degradation: None,
                        cache: CacheOutcome::Hit,
                    });
                }
            }
            // Fingerprint collision or unrepairable tie-break: solve
            // the original problem directly; the answer stays correct.
            return self.direct(stencil, objective, &solve);
        }

        // Single-flight: exactly one caller per canonical key searches.
        let (flight, leader) = {
            let mut flights = self.flights.lock().unwrap_or_else(|p| p.into_inner());
            match flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new());
                    flights.insert(key, Arc::clone(&f));
                    (Arc::clone(&f), true)
                }
            }
        };

        if !leader {
            let (uov_c, cost, degradation) = flight.wait()?;
            let degraded = degradation.is_some();
            return match self.realize(stencil, objective, &canon, &uov_c, cost, degraded) {
                Some((uov, cost)) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    Ok(Planned {
                        uov,
                        cost,
                        degradation,
                        cache: CacheOutcome::Coalesced,
                    })
                }
                None => self.direct(stencil, objective, &solve),
            };
        }

        let mut guard = LeaderGuard {
            cache: self,
            key,
            flight,
            done: false,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        match solve(&canon.stencil, &canon.objective) {
            Ok(result) => {
                if result.degradation.is_none() {
                    self.lru.insert(
                        key,
                        CachedPlan {
                            vectors: canon.stencil.vectors().to_vec(),
                            objective: canon.objective.clone(),
                            uov: result.uov.clone(),
                            cost: result.cost,
                        },
                    );
                }
                let degraded = result.degradation.is_some();
                guard.finish(Ok((result.uov.clone(), result.cost, result.degradation)));
                match self.realize(
                    stencil,
                    objective,
                    &canon,
                    &result.uov,
                    result.cost,
                    degraded,
                ) {
                    Some((uov, cost)) => Ok(Planned {
                        uov,
                        cost,
                        degradation: result.degradation,
                        cache: CacheOutcome::Miss,
                    }),
                    // This request's miss is already counted.
                    None => solve_uncounted(stencil, objective, &solve),
                }
            }
            Err(e) => {
                guard.finish(Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Solve the original, uncanonicalized problem and count the request
    /// as one miss. Used for cache bypass and as the fallback when a
    /// cached answer cannot be faithfully mapped back. Never inserts into
    /// the cache: the result is in original coordinates, and caching a
    /// non-canonical tie-break would break byte-identity for later hits.
    pub fn direct<F>(
        &self,
        stencil: &Stencil,
        objective: &ObjectiveSpec,
        solve: &F,
    ) -> Result<Planned, String>
    where
        F: Fn(&Stencil, &ObjectiveSpec) -> Result<SearchResult, String>,
    {
        self.misses.fetch_add(1, Ordering::Relaxed);
        solve_uncounted(stencil, objective, solve)
    }

    /// Map a canonical-coordinates answer back into the request's
    /// coordinates, verify its cost independently, and repair the lex
    /// tie-break when the permutation is non-trivial. `None` means the
    /// answer could not be faithfully realized and the caller must solve
    /// directly.
    fn realize(
        &self,
        stencil: &Stencil,
        objective: &ObjectiveSpec,
        canon: &Canonical,
        uov_c: &IVec,
        cost: u128,
        degraded: bool,
    ) -> Option<(IVec, u128)> {
        let w = map_back(uov_c, &canon.perm);
        let obj = objective.as_objective();
        if try_cost_of(&obj, &w) != Ok(cost) {
            return None;
        }
        if canon.is_identity() || degraded {
            return Some((w, cost));
        }
        lex_min_equivalent(stencil, &obj, &w, cost).map(|repaired| (repaired, cost))
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

/// Solve the request as sent, outside the cache's counters.
fn solve_uncounted<F>(
    stencil: &Stencil,
    objective: &ObjectiveSpec,
    solve: &F,
) -> Result<Planned, String>
where
    F: Fn(&Stencil, &ObjectiveSpec) -> Result<SearchResult, String>,
{
    let result = solve(stencil, objective)?;
    Ok(Planned {
        uov: result.uov,
        cost: result.cost,
        degradation: result.degradation,
        cache: CacheOutcome::Miss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use uov_core::search::{find_best_uov, Objective, SearchConfig};
    use uov_isg::ivec;

    fn fig1() -> Stencil {
        Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap()
    }

    fn counting_solver(
        calls: &AtomicUsize,
    ) -> impl Fn(&Stencil, &ObjectiveSpec) -> Result<SearchResult, String> + '_ {
        move |s, o| {
            calls.fetch_add(1, Ordering::SeqCst);
            find_best_uov(s, o.as_objective(), &SearchConfig::default()).map_err(|e| e.to_string())
        }
    }

    #[test]
    fn repeat_requests_hit_without_searching() {
        let cache = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let solve = counting_solver(&calls);
        let cold = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        let warm = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!((cold.uov, cold.cost), (warm.uov, warm.cost));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn a_fallback_solve_counts_its_request_once() {
        // The leader's answer fails its cost recheck, so the request is
        // solved again as sent: two solves, one request, one miss.
        let cache = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let solve = |s: &Stencil, o: &ObjectiveSpec| {
            let mut r = find_best_uov(s, o.as_objective(), &SearchConfig::default())
                .map_err(|e| e.to_string())?;
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                r.cost += 1;
            }
            Ok(r)
        };
        let planned = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, solve)
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!((planned.cost, planned.cache), (2, CacheOutcome::Miss));
        let want = CacheStats {
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(cache.stats(), want);
    }

    #[test]
    fn permuted_resubmission_hits_and_matches_direct_search() {
        // {(1,0),(2,1)} and its axis swap {(0,1),(1,2)} share a slot; the
        // second request's answer must be byte-identical to solving it
        // directly.
        let a = Stencil::new(vec![ivec![1, 0], ivec![2, 1]]).unwrap();
        let b = Stencil::new(vec![ivec![0, 1], ivec![1, 2]]).unwrap();
        let cache = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let solve = counting_solver(&calls);
        let first = cache
            .plan(&a, &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        let second = cache
            .plan(&b, &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let direct =
            find_best_uov(&b, Objective::ShortestVector, &SearchConfig::default()).unwrap();
        assert_eq!(second.uov, direct.uov);
        assert_eq!(second.cost, direct.cost);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_search() {
        use std::sync::Barrier;
        let cache = Arc::new(PlanCache::new(16));
        let calls = Arc::new(AtomicUsize::new(0));
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let mut handles = Vec::new();
        for _ in 0..n {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                cache
                    .plan(&fig1(), &ObjectiveSpec::ShortestVector, |s, o| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // threads to park on it.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        find_best_uov(s, o.as_objective(), &SearchConfig::default())
                            .map_err(|e| e.to_string())
                    })
                    .unwrap()
            }));
        }
        let results: Vec<Planned> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let answers: Vec<(IVec, u128)> = results.iter().map(|p| (p.uov.clone(), p.cost)).collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "answers diverged");
        // With all threads racing before the LRU is filled, everyone either
        // led, coalesced, or (late arrivals) hit — never a second search.
        assert_eq!(calls.load(Ordering::SeqCst), 1, "search ran more than once");
        let coalesced = results
            .iter()
            .filter(|p| p.cache == CacheOutcome::Coalesced)
            .count();
        let misses = results
            .iter()
            .filter(|p| p.cache == CacheOutcome::Miss)
            .count();
        assert_eq!(misses, 1);
        assert_eq!(cache.stats().coalesced as usize, coalesced);
    }

    #[test]
    fn solver_errors_propagate_and_are_not_cached() {
        let cache = PlanCache::new(16);
        let err = cache.plan(&fig1(), &ObjectiveSpec::ShortestVector, |_, _| {
            Err::<SearchResult, String>("boom".into())
        });
        assert_eq!(err.unwrap_err(), "boom");
        // The failure must not poison the key: a later good solve works.
        let calls = AtomicUsize::new(0);
        let solve = counting_solver(&calls);
        let ok = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        assert_eq!(ok.cache, CacheOutcome::Miss);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn degraded_results_are_served_but_never_cached() {
        let cache = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let degraded_solve = |s: &Stencil, o: &ObjectiveSpec| {
            calls.fetch_add(1, Ordering::SeqCst);
            let mut r = find_best_uov(s, o.as_objective(), &SearchConfig::default())
                .map_err(|e| e.to_string())?;
            let budget = uov_core::Budget::unlimited().with_max_nodes(0);
            r.degradation = Some(budget.degradation(uov_core::Exhausted::Nodes, 0, true));
            Ok(r)
        };
        let first = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, degraded_solve)
            .unwrap();
        assert!(first.degradation.is_some());
        assert_eq!(first.cache, CacheOutcome::Miss);
        let second = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, degraded_solve)
            .unwrap();
        // A degraded answer must not have populated the LRU.
        assert_eq!(second.cache, CacheOutcome::Miss);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }
}

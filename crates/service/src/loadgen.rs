//! Deterministic load generation for the planning service's smoke test
//! (`uov-service smoke`).
//!
//! * [`run`]: `clients` threads each issue a fixed number of requests
//!   back-to-back (the next request starts when the previous one
//!   answers), then report completions, errors and cache outcomes.
//! * [`coalescing_burst`]: barrier-synchronized identical requests that
//!   must land in one single-flight search.
//! * [`stencil_pool`]: the fixed pool of 2-D stencils [`run`] draws from
//!   (perfbench's `serve` phase draws from it too).
//!
//! Every client stream draws from its own xorshift64 state, picking
//! stencils from the pool and resubmitting axis-permuted variants to
//! exercise the canonicalizing cache, so two runs issue the same requests
//! in the same per-stream order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use uov_isg::{IVec, RectDomain, Stencil};

use crate::client::Client;
use crate::error::ServiceError;
use crate::proto::{CacheOutcome, ObjectiveSpec, PlanRequest};

/// Seed of the request streams: client `i` draws from
/// `SEED ^ i·0x9E37_79B9_7F4A_7C15`.
const SEED: u64 = 0x10AD_6E4E;

/// Workload shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Distinct stencils in the pool (small pool ⇒ high cache hit rate).
    pub distinct_stencils: usize,
    /// Also resubmit axis-permuted variants of pool stencils, which the
    /// canonicalizing cache must collapse onto the same entries.
    pub permute: bool,
}

/// Aggregate results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that received a `RESP_PLAN`.
    pub completed: u64,
    /// Requests that failed (transport or typed rejection).
    pub errors: u64,
    /// Responses served from the plan cache.
    pub hits: u64,
    /// Responses deduplicated onto a concurrent identical search.
    pub coalesced: u64,
}

impl LoadReport {
    /// Fraction of completed requests that avoided a fresh search
    /// (cache hits plus coalesced), in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / self.completed as f64
    }
}

/// Minimal deterministic PRNG so the service crate stays dependency-free:
/// the crate's one generator, behind the load generator's request
/// streams, the routed client's backoff jitter and the chaos proxy's
/// fault schedules.
pub(crate) struct XorShift64(u64);

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        // Zero is the one absorbing state of xorshift; avoid it.
        XorShift64(seed.max(1))
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next() % n
    }
}

/// Deterministic pool of distinct, valid 2-D stencils. Index `i` always
/// yields the same stencil regardless of seed, so pool membership is
/// stable across runs and processes.
pub fn stencil_pool(distinct: usize) -> Vec<Stencil> {
    // Lex-positive building blocks; every subset of ≥2 forms a valid
    // stencil.
    let basis: Vec<IVec> = vec![
        IVec::from(vec![1, 0]),
        IVec::from(vec![0, 1]),
        IVec::from(vec![1, 1]),
        IVec::from(vec![2, 1]),
        IVec::from(vec![1, 2]),
        IVec::from(vec![1, -1]),
        IVec::from(vec![2, -1]),
        IVec::from(vec![0, 2]),
    ];
    let mut pool = Vec::with_capacity(distinct);
    let mut i: u64 = 0;
    while pool.len() < distinct {
        i += 1;
        // Enumerate subsets by the bits of `i`, requiring at least two
        // vectors so the search has real structure.
        let mask = i % (1 << basis.len());
        if mask.count_ones() < 2 {
            continue;
        }
        let vectors: Vec<IVec> = basis
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << k) != 0)
            .map(|(_, v)| v.clone())
            .collect();
        if let Ok(s) = Stencil::new(vectors) {
            if !pool.contains(&s) {
                pool.push(s);
            }
        }
    }
    pool
}

/// Swap the two axes of a 2-D stencil when the swap keeps every vector
/// lex-positive; otherwise return the stencil unchanged. The swapped
/// problem is equivalent under the canonicalizing cache.
fn axis_swapped(s: &Stencil) -> Stencil {
    if s.dim() != 2 {
        return s.clone();
    }
    let swapped: Vec<IVec> = s.iter().map(|v| IVec::from(vec![v[1], v[0]])).collect();
    if !swapped.iter().all(IVec::is_lex_positive) {
        return s.clone();
    }
    Stencil::new(swapped).unwrap_or_else(|_| s.clone())
}

/// Result of a [`coalescing_burst`] round.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Requests fired (barrier-synchronized, identical).
    pub burst: u64,
    /// Requests that ran a fresh search — the flight leaders.
    pub misses: u64,
    /// Requests served from the LRU.
    pub hits: u64,
    /// Requests that parked on an in-flight identical search.
    pub coalesced: u64,
    /// Distinct `(uov, cost, certificate_hash)` triples observed; 1 when
    /// the whole burst landed in a single flight.
    pub distinct_answers: u64,
    /// Requests that failed outright.
    pub errors: u64,
}

/// Fire `n` barrier-synchronized identical requests at a stencil outside
/// the [`stencil_pool`], so the burst is that key's cold start.
///
/// Timing is made deterministic with the protocol's own budget: the
/// burst problem is a 4-D cross stencil whose branch-and-bound runs far
/// past any deadline, and the request carries `deadline_ms`, so the
/// leader's flight provably stays open for the whole deadline window.
/// Every waiter scheduled inside it coalesces — on any machine, a
/// single-core host included. The leader degrades to a legal UOV at the
/// deadline and publishes it to all waiters; degraded answers are never
/// cached, so each call to this function is a fresh burst.
///
/// # Errors
///
/// [`ServiceError`] only if no client could connect; per-request
/// failures are counted in [`BurstReport::errors`].
pub fn coalescing_burst(
    endpoint: &str,
    n: usize,
    deadline_ms: u32,
) -> Result<BurstReport, ServiceError> {
    let mut vectors: Vec<IVec> = (0..4).map(|k| IVec::unit(4, k)).collect();
    vectors.push(IVec::from(vec![1, 1, 1, 1]));
    vectors.push(IVec::from(vec![1, -1, 1, -1]));
    let stencil = Stencil::new(vectors).map_err(|e| ServiceError::Malformed(e.to_string()))?;
    let n = n.max(2);
    let barrier = Arc::new(std::sync::Barrier::new(n));
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let barrier = Arc::clone(&barrier);
        let endpoint = endpoint.to_string();
        let stencil = stencil.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&endpoint)?;
            barrier.wait();
            client.plan(&PlanRequest {
                stencil,
                objective: ObjectiveSpec::ShortestVector,
                deadline_ms: deadline_ms.max(1),
                flags: 0,
            })
        }));
    }
    let mut report = BurstReport {
        burst: n as u64,
        misses: 0,
        hits: 0,
        coalesced: 0,
        distinct_answers: 0,
        errors: 0,
    };
    let mut answers: Vec<(IVec, u128, u64)> = Vec::new();
    let mut connected = false;
    for h in handles {
        match h.join() {
            Ok(Ok(resp)) => {
                connected = true;
                answers.push((resp.uov, resp.cost, resp.certificate_hash));
                match resp.cache {
                    CacheOutcome::Miss => report.misses += 1,
                    CacheOutcome::Hit => report.hits += 1,
                    CacheOutcome::Coalesced => report.coalesced += 1,
                }
            }
            _ => report.errors += 1,
        }
    }
    if !connected && report.errors > 0 {
        return Err(ServiceError::ConnectionClosed);
    }
    answers.sort();
    answers.dedup();
    report.distinct_answers = answers.len() as u64;
    Ok(report)
}

/// Run the closed-loop workload against a live server.
///
/// # Errors
///
/// [`ServiceError`] if a client thread cannot connect at all; individual
/// request failures are counted in [`LoadReport::errors`] instead.
pub fn run(endpoint: &str, cfg: &LoadGenConfig) -> Result<LoadReport, ServiceError> {
    let pool = Arc::new(stencil_pool(cfg.distinct_stencils.max(1)));
    let errors = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(cfg.clients.max(1));
    for client_idx in 0..cfg.clients.max(1) {
        let pool = Arc::clone(&pool);
        let errors = Arc::clone(&errors);
        let endpoint = endpoint.to_string();
        let cfg = cfg.clone();
        handles.push(thread::spawn(move || {
            // Completed requests by outcome: miss, hit, coalesced.
            let mut outcomes = [0u64; 3];
            let mut client = match Client::connect(&endpoint) {
                Ok(c) => c,
                Err(_) => {
                    errors.fetch_add(cfg.requests_per_client as u64, Ordering::Relaxed);
                    return outcomes;
                }
            };
            // Distinct stream per client, same streams every run.
            let mut rng =
                XorShift64::new(SEED ^ (client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for _ in 0..cfg.requests_per_client {
                let base = &pool[rng.below(pool.len() as u64) as usize];
                let stencil = if cfg.permute && rng.below(2) == 1 {
                    axis_swapped(base)
                } else {
                    base.clone()
                };
                let objective = if rng.below(4) == 0 {
                    let n = 4 + rng.below(5) as i64;
                    ObjectiveSpec::KnownBounds(RectDomain::grid(n, n))
                } else {
                    ObjectiveSpec::ShortestVector
                };
                let req = PlanRequest {
                    stencil,
                    objective,
                    deadline_ms: 0,
                    flags: 0,
                };
                match client.plan(&req) {
                    Ok(resp) => {
                        let slot = match resp.cache {
                            CacheOutcome::Miss => 0,
                            CacheOutcome::Hit => 1,
                            CacheOutcome::Coalesced => 2,
                        };
                        outcomes[slot] += 1;
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        // The connection may be unusable now; redial.
                        if let Ok(c) = Client::connect(&endpoint) {
                            client = c;
                        }
                    }
                }
            }
            outcomes
        }));
    }

    let mut report = LoadReport {
        completed: 0,
        errors: 0,
        hits: 0,
        coalesced: 0,
    };
    for h in handles {
        if let Ok([misses, hits, coalesced]) = h.join() {
            report.completed += misses + hits + coalesced;
            report.hits += hits;
            report.coalesced += coalesced;
        } else {
            errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    report.errors = errors.load(Ordering::Relaxed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_pool_is_deterministic_and_distinct() {
        let a = stencil_pool(8);
        let b = stencil_pool(8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for (i, s) in a.iter().enumerate() {
            for t in &a[i + 1..] {
                assert_ne!(s, t);
            }
        }
    }

    #[test]
    fn xorshift_streams_are_deterministic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        // Seed 0 must not absorb.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next(), 0);
    }

    #[test]
    fn xorshift_stream_is_pinned() {
        // Request streams, backoff jitter and fault schedules all replay
        // from this stream, so its outputs are fixed forever.
        let mut r = XorShift64::new(42);
        let first: Vec<u64> = (0..4).map(|_| r.next()).collect();
        assert_eq!(
            first,
            [
                0xa_9551_4aaa,
                0xa00a_aafd_f802_02bf,
                0x8b13_399c_d1d1_497a,
                0x283b_88fe_5fdf_f568,
            ]
        );
        assert_eq!(XorShift64::new(0).next(), 0x4082_2041);
    }

    #[test]
    fn axis_swap_preserves_validity() {
        for s in stencil_pool(8) {
            let t = axis_swapped(&s);
            assert_eq!(t.dim(), s.dim());
            assert!(t.iter().all(IVec::is_lex_positive));
        }
    }
}

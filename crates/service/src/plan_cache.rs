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

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use uov_core::search::try_cost_of;
use uov_core::wire::{write_atomic, Decoder, Encoder, WireError};
use uov_core::{fingerprint, Degradation, SearchResult, ShardedLru};
use uov_isg::{IVec, Stencil};

use crate::canon::{canonicalize, lex_min_equivalent, map_back, map_to_canonical, Canonical};
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

/// Why a warm-cache snapshot could not be restored as a whole.
///
/// The variants matter operationally: a [`WarmCacheError::Corrupt`] file
/// points at disk or transport damage (delete it and move on), while an
/// [`WarmCacheError::UnsupportedVersion`] file points at a rollback — a
/// *newer* server wrote it, and upgrading again would recover the warmth.
/// The server logs the variant and counts the two classes separately in
/// its startup stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmCacheError {
    /// The snapshot file exists but could not be read.
    Io(String),
    /// The file does not start with the `UOVWARM1` magic — it is not a
    /// warm-cache snapshot at all.
    BadMagic,
    /// The file was written by a future (or otherwise unknown) format
    /// version; restoring it would require that writer's code.
    UnsupportedVersion(u32),
    /// The file is framed as a snapshot but its contents are damaged
    /// (torn section, CRC mismatch, truncated header).
    Corrupt(String),
}

impl std::fmt::Display for WarmCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmCacheError::Io(msg) => write!(f, "{msg}"),
            WarmCacheError::BadMagic => write!(f, "warm-cache snapshot has wrong magic"),
            WarmCacheError::UnsupportedVersion(v) => {
                write!(f, "unsupported warm-cache version {v}")
            }
            WarmCacheError::Corrupt(msg) => write!(f, "corrupt warm-cache snapshot: {msg}"),
        }
    }
}

impl std::error::Error for WarmCacheError {}

/// Cache traffic counters, all monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the LRU without searching.
    pub hits: u64,
    /// Requests that ran (or led) a search.
    pub misses: u64,
    /// Requests that parked on another request's in-flight search.
    pub coalesced: u64,
    /// Entries restored from a warm-cache snapshot at startup.
    pub warm_loaded: u64,
    /// Entries inserted through neighbor replication (`REQ_REPLICATE`),
    /// i.e. plans this replica holds for problems whose ring home is
    /// elsewhere.
    pub replicated_entries: u64,
    /// Cache hits served from a replicated entry — warm failovers.
    pub replica_hits: u64,
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
    warm_loaded: AtomicU64,
    /// Canonical keys whose entry arrived by neighbor replication, so a
    /// hit on one can be attributed to the replication machinery.
    replica_keys: Mutex<HashSet<u64>>,
    replicated: AtomicU64,
    replica_hits: AtomicU64,
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
            warm_loaded: AtomicU64::new(0),
            replica_keys: Mutex::new(HashSet::new()),
            replicated: AtomicU64::new(0),
            replica_hits: AtomicU64::new(0),
        }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            warm_loaded: self.warm_loaded.load(Ordering::Relaxed),
            replicated_entries: self.replicated.load(Ordering::Relaxed),
            replica_hits: self.replica_hits.load(Ordering::Relaxed),
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
                    let replicated = {
                        let keys = self.replica_keys.lock().unwrap_or_else(|p| p.into_inner());
                        keys.contains(&key)
                    };
                    if replicated {
                        self.replica_hits.fetch_add(1, Ordering::Relaxed);
                    }
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

    /// Insert a plan pushed by a peer through neighbor replication.
    ///
    /// The answer arrives in the *sender's* coordinates; this
    /// canonicalizes the problem, maps the answer forward, re-derives the
    /// cost independently, and — crucially — normalizes to the canonical
    /// lex-minimum via [`lex_min_equivalent`] before inserting. A 3-D
    /// known-bounds answer lands only in the slot of the sender's own
    /// axis order, since another order can have a cheaper optimum. The LRU
    /// may only ever hold the canonical tie-break: a hit whose request is
    /// already in canonical axes skips lex repair, so storing anything
    /// else would break byte-identity with a direct search. Verification
    /// failure (or hitting the repair enumeration limit) refuses the
    /// entry and returns `false` — the replica stays cold, never wrong.
    pub fn insert_replicated(
        &self,
        stencil: &Stencil,
        objective: &ObjectiveSpec,
        uov: &IVec,
        cost: u128,
    ) -> bool {
        let canon = canonicalize(stencil, objective);
        let obj = canon.objective.as_objective();
        let w_canon = map_to_canonical(uov, &canon.perm);
        if try_cost_of(&obj, &w_canon) != Ok(cost) {
            return false;
        }
        // `‖w‖²`, cone membership and the cost of every problem
        // `canonicalize` permutes are permutation-invariant. The sphere
        // scan both verifies UOV-ness and lands on the canonical lex-min
        // representative.
        let Some(canon_uov) = lex_min_equivalent(&canon.stencil, &obj, &w_canon, cost) else {
            return false;
        };
        let key = fingerprint(&canon.stencil, &obj);
        self.lru.insert(
            key,
            CachedPlan {
                vectors: canon.stencil.vectors().to_vec(),
                objective: canon.objective.clone(),
                uov: canon_uov,
                cost,
            },
        );
        let mut keys = self.replica_keys.lock().unwrap_or_else(|p| p.into_inner());
        keys.insert(key);
        drop(keys);
        self.replicated.fetch_add(1, Ordering::Relaxed);
        true
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

// --------------------------------------------------- warm-cache snapshots
//
// The snapshot file follows the checkpoint format discipline:
//
// ```text
// magic    b"UOVWARM1"                          8 bytes
// version  u32 LE (currently 1)                 4 bytes
// section  tag=1 ‖ len u64 ‖ payload ‖ crc32    (self-checking)
// ```
//
// The payload is a count-prefixed list of entries *sorted by key*, so two
// drains of the same cache contents produce byte-identical files. Each
// entry carries the full canonical problem, not just the answer: on load
// the key is recomputed from the problem and the answer's cost is
// re-derived, so a snapshot that was tampered with (but re-CRC'd) still
// cannot inject a wrong plan — at worst an entry is skipped. Legality is
// re-checked at serve time by the server's per-response certification.

/// Warm-cache snapshot magic.
const WARM_MAGIC: &[u8; 8] = b"UOVWARM1";
/// Warm-cache snapshot version.
const WARM_VERSION: u32 = 1;
/// Section tag holding the entry list.
const WARM_TAG_ENTRIES: u8 = 1;

impl CachedPlan {
    fn encode_into(&self, key: u64, e: &mut Encoder) {
        e.u64(key);
        let dim = self.uov.dim();
        e.u16(dim as u16);
        e.u32(self.vectors.len() as u32);
        for v in &self.vectors {
            e.vec(v);
        }
        match &self.objective {
            ObjectiveSpec::ShortestVector => e.u8(0),
            ObjectiveSpec::KnownBounds(d) => {
                e.u8(1);
                e.vec(d.lo());
                e.vec(d.hi());
            }
        }
        e.vec(&self.uov);
        e.u128(self.cost);
    }

    /// Decode one entry and re-validate it from first principles. `None`
    /// means the entry is damaged or inconsistent and must be skipped.
    fn decode_validated(d: &mut Decoder<'_>) -> Option<(u64, CachedPlan)> {
        let key = d.u64().ok()?;
        let dim = usize::from(d.u16().ok()?);
        if dim == 0 {
            return None;
        }
        let nvec = d.u32().ok()? as usize;
        if nvec.checked_mul(dim)?.checked_mul(8)? > d.remaining() {
            return None;
        }
        let mut vectors = Vec::with_capacity(nvec);
        for _ in 0..nvec {
            vectors.push(d.vec(dim).ok()?);
        }
        let objective = match d.u8().ok()? {
            0 => ObjectiveSpec::ShortestVector,
            1 => {
                let lo = d.vec(dim).ok()?;
                let hi = d.vec(dim).ok()?;
                if (0..dim).any(|k| lo[k] > hi[k]) {
                    return None;
                }
                ObjectiveSpec::KnownBounds(uov_isg::RectDomain::new(lo, hi))
            }
            _ => return None,
        };
        let uov = d.vec(dim).ok()?;
        let cost = d.u128().ok()?;
        // The stored key must be derivable from the stored problem, and
        // the stored cost from the stored answer.
        let stencil = Stencil::new(vectors.clone()).ok()?;
        if stencil.vectors() != vectors.as_slice() {
            return None;
        }
        if fingerprint(&stencil, &objective.as_objective()) != key {
            return None;
        }
        if try_cost_of(&objective.as_objective(), &uov) != Ok(cost) {
            return None;
        }
        Some((
            key,
            CachedPlan {
                vectors,
                objective,
                uov,
                cost,
            },
        ))
    }
}

impl PlanCache {
    /// Persist every cached plan to `path` atomically
    /// ([`write_atomic`]: scratch file, fsync, rename). Returns the number
    /// of entries written.
    ///
    /// # Errors
    ///
    /// A human-readable description of the I/O failure; the previous
    /// snapshot (if any) is left intact.
    pub fn save(&self, path: &Path) -> Result<u64, String> {
        let mut entries = self.lru.entries();
        entries.sort_by_key(|(k, _)| *k);

        let mut body = Encoder::new();
        body.u64(entries.len() as u64);
        for (key, plan) in &entries {
            plan.encode_into(*key, &mut body);
        }
        let mut e = Encoder::with_capacity(16 + body.buf.len());
        e.buf.extend_from_slice(WARM_MAGIC);
        e.u32(WARM_VERSION);
        e.section(WARM_TAG_ENTRIES, &body.buf);
        write_atomic(path, &e.buf)
            .map_err(|err| format!("warm-cache save to {}: {err}", path.display()))?;
        Ok(entries.len() as u64)
    }

    /// Restore plans from a snapshot written by [`PlanCache::save`].
    /// Damaged or inconsistent entries are skipped, never served; a
    /// missing file restores zero entries and is not an error. Returns
    /// the number of entries restored (also visible as
    /// [`CacheStats::warm_loaded`]).
    ///
    /// # Errors
    ///
    /// A [`WarmCacheError`] saying why the file as a whole is unreadable,
    /// distinguishing damage ([`WarmCacheError::Corrupt`]) from version
    /// skew ([`WarmCacheError::UnsupportedVersion`]).
    pub fn load(&self, path: &Path) -> Result<u64, WarmCacheError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => {
                return Err(WarmCacheError::Io(format!(
                    "warm-cache read {}: {e}",
                    path.display()
                )))
            }
        };
        let corrupt = |e: WireError| WarmCacheError::Corrupt(e.to_string());
        let mut d = Decoder::new(&bytes);
        if d.take(8).ok() != Some(WARM_MAGIC.as_slice()) {
            return Err(WarmCacheError::BadMagic);
        }
        let version = d.u32().map_err(corrupt)?;
        if version != WARM_VERSION {
            return Err(WarmCacheError::UnsupportedVersion(version));
        }
        let (tag, payload) = d.section().map_err(corrupt)?;
        if tag != WARM_TAG_ENTRIES {
            // An unknown section from a future writer: nothing to restore.
            return Ok(0);
        }

        let mut body = Decoder::new(payload);
        let count = body.u64().map_err(corrupt)?;
        let mut restored = 0u64;
        for _ in 0..count {
            match CachedPlan::decode_validated(&mut body) {
                Some((key, plan)) => {
                    self.lru.insert(key, plan);
                    restored += 1;
                }
                // One damaged entry poisons the cursor position, so stop
                // rather than misread the rest as garbage entries.
                None => break,
            }
        }
        self.warm_loaded.fetch_add(restored, Ordering::Relaxed);
        Ok(restored)
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
    use uov_core::wire::crc32;
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
    fn warm_snapshot_round_trips_and_serves_hits() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "uov-warm-test-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let cache = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let solve = counting_solver(&calls);
        let cold = cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        let written = cache.save(&path).unwrap();
        assert_eq!(written, 1);
        // Byte-determinism: saving the same contents again is identical.
        let first = std::fs::read(&path).unwrap();
        cache.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);

        // A fresh cache restored from the snapshot hits without solving.
        let warm = PlanCache::new(16);
        assert_eq!(warm.load(&path).unwrap(), 1);
        assert_eq!(warm.stats().warm_loaded, 1);
        let calls2 = AtomicUsize::new(0);
        let solve2 = counting_solver(&calls2);
        let hit = warm
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve2)
            .unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(calls2.load(Ordering::SeqCst), 0);
        assert_eq!((hit.uov, hit.cost), (cold.uov, cold.cost));

        // Loading a missing file restores nothing and is not an error.
        let _ = std::fs::remove_file(&path);
        assert_eq!(PlanCache::new(4).load(&path).unwrap(), 0);
    }

    #[test]
    fn corrupt_warm_snapshot_is_rejected_not_served() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "uov-warm-corrupt-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let cache = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let solve = counting_solver(&calls);
        cache
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();
        cache.save(&path).unwrap();

        // Flip one payload bit: the section CRC must catch it, and the
        // failure must be typed as damage, not version skew.
        let good = std::fs::read(&path).unwrap();
        let mut bytes = good.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let warm = PlanCache::new(16);
        assert!(matches!(warm.load(&path), Err(WarmCacheError::Corrupt(_))));
        assert_eq!(warm.stats().warm_loaded, 0);

        // Wrong magic is its own variant.
        std::fs::write(&path, b"NOTAWARM").unwrap();
        assert_eq!(PlanCache::new(4).load(&path), Err(WarmCacheError::BadMagic));

        // A future version is *not* corruption: the bytes are intact, the
        // reader is just too old. The distinction drives different ops
        // responses (delete vs. roll forward).
        let mut future = good;
        future[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert_eq!(
            PlanCache::new(4).load(&path),
            Err(WarmCacheError::UnsupportedVersion(9))
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A neighbor-replicated entry rides the `UOVWARM1` snapshot like
    /// any other plan and is re-validated from first principles on load
    /// — a tampered copy (re-CRC'd so the section check passes) is
    /// skipped, never served.
    #[test]
    fn replicated_entries_survive_warm_snapshots_and_tampering_is_skipped() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "uov-warm-replica-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let home = PlanCache::new(16);
        let calls = AtomicUsize::new(0);
        let solve = counting_solver(&calls);
        let planned = home
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve)
            .unwrap();

        // The replica accepts the pushed copy and persists it.
        let replica = PlanCache::new(16);
        assert!(replica.insert_replicated(
            &fig1(),
            &ObjectiveSpec::ShortestVector,
            &planned.uov,
            planned.cost,
        ));
        assert_eq!(replica.save(&path).unwrap(), 1);

        // A restarted replica restores it and serves without solving.
        let restarted = PlanCache::new(16);
        assert_eq!(restarted.load(&path).unwrap(), 1);
        let calls2 = AtomicUsize::new(0);
        let solve2 = counting_solver(&calls2);
        let hit = restarted
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve2)
            .unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(calls2.load(Ordering::SeqCst), 0);
        assert_eq!((hit.uov, &hit.cost), (planned.uov.clone(), &planned.cost));

        // Tamper with the stored cost and re-CRC the section so only the
        // semantic re-validation can catch it: the entry must be skipped.
        let mut bytes = std::fs::read(&path).unwrap();
        // u128 cost is the last entry field, just before the section CRC.
        let cost_at = bytes.len() - 4 - 16;
        bytes[cost_at] ^= 0xFF;
        let body_len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[12..12 + 1 + 8 + body_len]);
        let crc_at = bytes.len() - 4;
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let tampered = PlanCache::new(16);
        assert_eq!(
            tampered.load(&path).unwrap(),
            0,
            "a tampered entry must be skipped, not restored"
        );
        let calls3 = AtomicUsize::new(0);
        let solve3 = counting_solver(&calls3);
        let fresh = tampered
            .plan(&fig1(), &ObjectiveSpec::ShortestVector, &solve3)
            .unwrap();
        assert_eq!(fresh.cache, CacheOutcome::Miss, "tampered entry served");
        assert_eq!(fresh.cost, planned.cost);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replicated_inserts_hit_byte_identically_and_count() {
        // Push an answer computed in swapped axes; requests in *either*
        // axis order must then hit and match their own direct search.
        let a = Stencil::new(vec![ivec![1, 0], ivec![2, 1]]).unwrap();
        let b = Stencil::new(vec![ivec![0, 1], ivec![1, 2]]).unwrap();
        let answer_b =
            find_best_uov(&b, Objective::ShortestVector, &SearchConfig::default()).unwrap();

        let cache = PlanCache::new(16);
        assert!(cache.insert_replicated(
            &b,
            &ObjectiveSpec::ShortestVector,
            &answer_b.uov,
            answer_b.cost
        ));
        assert_eq!(cache.stats().replicated_entries, 1);

        for s in [&a, &b] {
            let calls = AtomicUsize::new(0);
            let solve = counting_solver(&calls);
            let served = cache
                .plan(s, &ObjectiveSpec::ShortestVector, &solve)
                .unwrap();
            assert_eq!(served.cache, CacheOutcome::Hit);
            assert_eq!(calls.load(Ordering::SeqCst), 0);
            let direct =
                find_best_uov(s, Objective::ShortestVector, &SearchConfig::default()).unwrap();
            assert_eq!((served.uov, served.cost), (direct.uov, direct.cost));
        }
        assert_eq!(cache.stats().replica_hits, 2);

        // A push with a wrong cost is refused, never served.
        assert!(!cache.insert_replicated(
            &fig1(),
            &ObjectiveSpec::ShortestVector,
            &ivec![1, 1],
            999
        ));
        assert_eq!(cache.stats().replicated_entries, 1);
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

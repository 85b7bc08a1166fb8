//! Deterministic load generators for the planning service.
//!
//! Two workload shapes:
//!
//! * **Closed loop** ([`run`]): `clients` threads each run a fixed
//!   number of requests back-to-back (the next request starts when the
//!   previous one answers). Measures service latency under bounded
//!   concurrency.
//! * **Open loop** ([`run_open_loop`]): requests arrive on a fixed
//!   schedule derived from the seed — per-tenant arrival rates, an
//!   optional *hog* tenant offering a multiple of everyone else's rate,
//!   and optional batching — regardless of how fast the server answers.
//!   Measures overload behavior: per-tenant availability, sheds, and
//!   pressure degradations.
//!
//! Both are fully determined by the seed: every stream draws from its
//! own xorshift64 state, picking stencils from a fixed pool — optionally
//! resubmitting axis-permuted variants to exercise the canonicalizing
//! cache — so two runs with the same seed issue the same requests in the
//! same per-stream order (open-loop arrival *times* are scheduled
//! deterministically; actual service timing is the system under test).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use uov_isg::{IVec, RectDomain, Stencil};

use crate::client::Client;
use crate::error::{ErrorCode, ServiceError};
use crate::proto::{BatchRequest, CacheOutcome, DegradationCode, ObjectiveSpec, PlanRequest};

/// Workload shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Seed for the deterministic request streams.
    pub seed: u64,
    /// Distinct stencils in the pool (small pool ⇒ high cache hit rate).
    pub distinct_stencils: usize,
    /// Per-request deadline in ms (0 = unlimited).
    pub deadline_ms: u32,
    /// Also resubmit axis-permuted variants of pool stencils, which the
    /// canonicalizing cache must collapse onto the same entries.
    pub permute: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 4,
            requests_per_client: 50,
            seed: 0x10AD_6E4E,
            distinct_stencils: 8,
            deadline_ms: 0,
            permute: true,
        }
    }
}

/// Aggregate results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that received a `RESP_PLAN`.
    pub completed: u64,
    /// Requests that failed (transport or typed rejection).
    pub errors: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median response latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile response latency, microseconds.
    pub p99_us: u64,
    /// Maximum response latency, microseconds.
    pub max_us: u64,
    /// Responses served from the plan cache.
    pub hits: u64,
    /// Responses that ran a fresh search.
    pub misses: u64,
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
/// the crate's one generator, behind open-loop arrivals, the routed
/// client's backoff jitter and the chaos proxy's fault schedules.
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
    let start = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients.max(1));
    for client_idx in 0..cfg.clients.max(1) {
        let pool = Arc::clone(&pool);
        let errors = Arc::clone(&errors);
        let endpoint = endpoint.to_string();
        let cfg = cfg.clone();
        handles.push(thread::spawn(move || {
            let mut latencies: Vec<u64> = Vec::with_capacity(cfg.requests_per_client);
            let mut outcomes = [0u64; 3];
            let mut client = match Client::connect(&endpoint) {
                Ok(c) => c,
                Err(_) => {
                    errors.fetch_add(cfg.requests_per_client as u64, Ordering::Relaxed);
                    return (latencies, outcomes);
                }
            };
            // Distinct stream per client, same streams every run.
            let mut rng =
                XorShift64::new(cfg.seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
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
                    deadline_ms: cfg.deadline_ms,
                    flags: 0,
                };
                let sent = Instant::now();
                match client.plan(&req) {
                    Ok(resp) => {
                        let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                        latencies.push(us);
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
            (latencies, outcomes)
        }));
    }

    let mut latencies: Vec<u64> = Vec::new();
    let mut misses = 0u64;
    let mut hits = 0u64;
    let mut coalesced = 0u64;
    for h in handles {
        if let Ok((lat, outcomes)) = h.join() {
            latencies.extend(lat);
            misses += outcomes[0];
            hits += outcomes[1];
            coalesced += outcomes[2];
        } else {
            errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    Ok(LoadReport {
        completed,
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        throughput_rps: if elapsed.as_secs_f64() > 0.0 {
            completed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        hits,
        misses,
        coalesced,
    })
}

// -------------------------------------------------------------- open loop

/// Workload shape for [`run_open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Arrivals per second offered by each compliant tenant.
    pub arrival_rps: u64,
    /// Length of the arrival schedule, milliseconds.
    pub duration_ms: u64,
    /// Seed for the deterministic streams (stencil picks and phases).
    pub seed: u64,
    /// Compliant tenants, ids `1..=tenants`, each offering `arrival_rps`.
    pub tenants: usize,
    /// Optional hog: this tenant offers `hog_multiplier ×` the compliant
    /// rate. Use an id outside `1..=tenants` to add a pure aggressor.
    pub hog_tenant: Option<u32>,
    /// The hog's rate multiple (≥ 1).
    pub hog_multiplier: u64,
    /// Distinct stencils in the shared pool.
    pub distinct_stencils: usize,
    /// Per-request deadline in ms (0 = unlimited).
    pub deadline_ms: u32,
    /// Entries per wire frame: 1 sends singleton `REQ_PLAN`s, larger
    /// values group consecutive arrivals into `REQ_BATCH` frames.
    pub batch: usize,
    /// Concurrent sender connections per tenant (arrivals are dealt to
    /// senders round-robin so one slow answer cannot stall the stream).
    pub conns_per_tenant: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            arrival_rps: 50,
            duration_ms: 1000,
            seed: 0x0BE4_10AD,
            tenants: 3,
            hog_tenant: None,
            hog_multiplier: 10,
            distinct_stencils: 8,
            deadline_ms: 0,
            batch: 1,
            conns_per_tenant: 2,
        }
    }
}

/// One tenant's slice of an open-loop run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantLoad {
    /// The tenant id these counters describe.
    pub tenant: u32,
    /// Plan entries offered (batch entries count individually).
    pub offered: u64,
    /// Entries answered with a certified plan (full-fidelity or
    /// degraded — both are served, legal answers).
    pub completed: u64,
    /// Completed entries that were degraded (deadline or pressure).
    pub degraded: u64,
    /// Entries shed with a typed `Overloaded` rejection.
    pub shed: u64,
    /// Entries lost to transport faults or other typed errors.
    pub errors: u64,
    /// Median entry latency, microseconds (batch entries share their
    /// frame's round-trip time).
    pub p50_us: u64,
    /// 99th-percentile entry latency, microseconds.
    pub p99_us: u64,
}

impl TenantLoad {
    /// Served fraction of offered entries, in `[0, 1]`: sheds and
    /// errors count against availability, degraded answers do not (they
    /// are certified, legal plans).
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }
}

/// Aggregate results of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Per-tenant outcomes, sorted by tenant id.
    pub tenants: Vec<TenantLoad>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl OpenLoopReport {
    /// The slice for one tenant, if it offered any traffic.
    pub fn tenant(&self, id: u32) -> Option<&TenantLoad> {
        self.tenants.iter().find(|t| t.tenant == id)
    }

    /// Worst availability over every tenant except `hog`: the headline
    /// overload-safety number (1.0 = no compliant entry was refused).
    pub fn compliant_availability(&self, hog: Option<u32>) -> f64 {
        self.tenants
            .iter()
            .filter(|t| Some(t.tenant) != hog)
            .map(TenantLoad::availability)
            .fold(1.0, f64::min)
    }
}

/// One scheduled arrival: a stencil pick due `at_ms` after the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arrival {
    at_ms: u64,
    pool_idx: usize,
    permuted: bool,
}

/// Build the deterministic arrival schedule: for each tenant, evenly
/// spaced arrivals over the run with a seed-derived phase, and
/// seed-derived stencil picks. Pure function of the config.
fn arrival_schedule(cfg: &OpenLoopConfig, pool_len: usize) -> Vec<(u32, Vec<Arrival>)> {
    let mut tenants: Vec<(u32, u64)> = (1..=cfg.tenants.max(1) as u32)
        .map(|t| (t, cfg.arrival_rps.max(1)))
        .collect();
    if let Some(hog) = cfg.hog_tenant {
        let rate = cfg.arrival_rps.max(1) * cfg.hog_multiplier.max(1);
        match tenants.iter_mut().find(|(t, _)| *t == hog) {
            Some(slot) => slot.1 = rate,
            None => tenants.push((hog, rate)),
        }
    }
    tenants.sort_unstable_by_key(|&(t, _)| t);
    tenants
        .into_iter()
        .map(|(tenant, rate)| {
            let mut rng =
                XorShift64::new(cfg.seed ^ u64::from(tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let count = (rate * cfg.duration_ms.max(1)).div_ceil(1000).max(1);
            let phase = rng.below(1000 / rate.clamp(1, 1000));
            let arrivals = (0..count)
                .map(|k| Arrival {
                    at_ms: phase + k * cfg.duration_ms.max(1) / count,
                    pool_idx: rng.below(pool_len as u64) as usize,
                    permuted: rng.below(2) == 1,
                })
                .collect();
            (tenant, arrivals)
        })
        .collect()
}

/// Run the open-loop workload against a live server.
///
/// Arrivals are dealt round-robin to `conns_per_tenant` sender threads
/// per tenant; each sender sleeps until an arrival's scheduled time and
/// issues it (late if the previous answer on that connection was slow —
/// the schedule itself never shrinks, which is what makes the load
/// *open* loop). With `batch > 1`, each sender groups its consecutive
/// arrivals into `REQ_BATCH` frames.
///
/// # Errors
///
/// [`ServiceError`] only if no sender could ever connect; per-entry
/// failures are counted in the report instead.
pub fn run_open_loop(endpoint: &str, cfg: &OpenLoopConfig) -> Result<OpenLoopReport, ServiceError> {
    let pool = Arc::new(stencil_pool(cfg.distinct_stencils.max(1)));
    let schedule = arrival_schedule(cfg, pool.len());
    let connected = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    type SenderResult = (TenantLoad, Vec<u64>);
    let mut handles: Vec<(u32, thread::JoinHandle<SenderResult>)> = Vec::new();
    for (tenant, arrivals) in schedule {
        let senders = cfg.conns_per_tenant.max(1);
        for s in 0..senders {
            let mine: Vec<Arrival> = arrivals.iter().copied().skip(s).step_by(senders).collect();
            if mine.is_empty() {
                continue;
            }
            let pool = Arc::clone(&pool);
            let connected = Arc::clone(&connected);
            let endpoint = endpoint.to_string();
            let cfg = cfg.clone();
            handles.push((
                tenant,
                thread::spawn(move || {
                    run_sender(&endpoint, tenant, &mine, &pool, &cfg, start, &connected)
                }),
            ));
        }
    }
    let mut merged: Vec<TenantLoad> = Vec::new();
    let mut latencies: Vec<(u32, Vec<u64>)> = Vec::new();
    for (tenant, h) in handles {
        let (part, lats) = match h.join() {
            Ok(r) => r,
            Err(_) => (
                TenantLoad {
                    tenant,
                    ..TenantLoad::default()
                },
                Vec::new(),
            ),
        };
        if !merged.iter().any(|t| t.tenant == tenant) {
            merged.push(TenantLoad {
                tenant,
                ..TenantLoad::default()
            });
            latencies.push((tenant, Vec::new()));
        }
        if let Some(slot) = merged.iter_mut().find(|t| t.tenant == tenant) {
            slot.offered += part.offered;
            slot.completed += part.completed;
            slot.degraded += part.degraded;
            slot.shed += part.shed;
            slot.errors += part.errors;
        }
        if let Some((_, all)) = latencies.iter_mut().find(|(t, _)| *t == tenant) {
            all.extend(lats);
        }
    }
    if connected.load(Ordering::Relaxed) == 0 && merged.iter().any(|t| t.errors > 0) {
        return Err(ServiceError::ConnectionClosed);
    }
    for slot in &mut merged {
        if let Some((_, lats)) = latencies.iter_mut().find(|(t, _)| *t == slot.tenant) {
            lats.sort_unstable();
            let pct = |p: f64| -> u64 {
                if lats.is_empty() {
                    return 0;
                }
                let idx = ((lats.len() - 1) as f64 * p).round() as usize;
                lats[idx.min(lats.len() - 1)]
            };
            slot.p50_us = pct(0.50);
            slot.p99_us = pct(0.99);
        }
    }
    merged.sort_unstable_by_key(|t| t.tenant);
    Ok(OpenLoopReport {
        tenants: merged,
        elapsed: start.elapsed(),
    })
}

/// One sender thread's share of a tenant's schedule: issue each arrival
/// at its due time over one connection, grouping `cfg.batch` consecutive
/// arrivals into a `REQ_BATCH` frame when batching is on.
fn run_sender(
    endpoint: &str,
    tenant: u32,
    arrivals: &[Arrival],
    pool: &[Stencil],
    cfg: &OpenLoopConfig,
    start: Instant,
    connected: &AtomicU64,
) -> (TenantLoad, Vec<u64>) {
    let mut load = TenantLoad {
        tenant,
        ..TenantLoad::default()
    };
    let mut lats: Vec<u64> = Vec::with_capacity(arrivals.len());
    let mut client: Option<Client> = None;
    let batch = cfg.batch.max(1);
    for group in arrivals.chunks(batch) {
        // Open loop: wait for the *scheduled* time of the group's first
        // arrival, regardless of how long earlier answers took.
        let due = start + Duration::from_millis(group[0].at_ms);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            if !wait.is_zero() {
                thread::sleep(wait);
            }
        }
        load.offered += group.len() as u64;
        let c = match &mut client {
            Some(c) => c,
            None => match Client::connect(endpoint) {
                Ok(mut c) => {
                    c.set_tenant(tenant);
                    connected.fetch_add(1, Ordering::Relaxed);
                    client.insert(c)
                }
                Err(_) => {
                    load.errors += group.len() as u64;
                    continue;
                }
            },
        };
        let entries: Vec<PlanRequest> = group
            .iter()
            .map(|a| {
                let base = &pool[a.pool_idx % pool.len()];
                PlanRequest {
                    stencil: if a.permuted {
                        axis_swapped(base)
                    } else {
                        base.clone()
                    },
                    objective: ObjectiveSpec::ShortestVector,
                    deadline_ms: cfg.deadline_ms,
                    flags: 0,
                }
            })
            .collect();
        let sent = Instant::now();
        if batch == 1 {
            match c.plan(&entries[0]) {
                Ok(resp) => {
                    load.completed += 1;
                    if resp.degradation != DegradationCode::None {
                        load.degraded += 1;
                    }
                    lats.push(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                }
                Err(e) => count_entry_error(&e, 1, &mut load, &mut client),
            }
        } else {
            let req = BatchRequest { entries };
            match c.plan_batch(&req) {
                Ok(resp) => {
                    let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    for entry in &resp.entries {
                        match entry {
                            Ok(plan) => {
                                load.completed += 1;
                                if plan.degradation != DegradationCode::None {
                                    load.degraded += 1;
                                }
                                lats.push(us);
                            }
                            Err(err) if err.code == ErrorCode::Overloaded => load.shed += 1,
                            Err(_) => load.errors += 1,
                        }
                    }
                    // Short answers (should not happen) count as errors.
                    load.errors += (req.entries.len().saturating_sub(resp.entries.len())) as u64;
                }
                Err(e) => count_entry_error(&e, req.entries.len() as u64, &mut load, &mut client),
            }
        }
    }
    (load, lats)
}

/// Attribute a frame-level failure to its entries and drop the
/// connection when the transport may be unusable.
fn count_entry_error(
    e: &ServiceError,
    entries: u64,
    load: &mut TenantLoad,
    client: &mut Option<Client>,
) {
    match e {
        ServiceError::Rejected {
            code: ErrorCode::Overloaded,
            ..
        } => load.shed += entries,
        ServiceError::Rejected { .. } => load.errors += entries,
        _ => {
            load.errors += entries;
            // The connection may be unusable now; redial next arrival.
            *client = None;
        }
    }
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
        // Seeded arrivals, backoff jitter and fault schedules all replay
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
    fn arrival_schedule_is_deterministic_and_hog_rate_scales() {
        let cfg = OpenLoopConfig {
            arrival_rps: 40,
            duration_ms: 2000,
            tenants: 3,
            hog_tenant: Some(9),
            hog_multiplier: 10,
            ..OpenLoopConfig::default()
        };
        let a = arrival_schedule(&cfg, 8);
        let b = arrival_schedule(&cfg, 8);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), 4, "three compliant tenants plus the hog");
        let compliant = a.iter().find(|(t, _)| *t == 1).map(|(_, v)| v.len());
        let hog = a.iter().find(|(t, _)| *t == 9).map(|(_, v)| v.len());
        assert_eq!(compliant, Some(80), "40 rps × 2 s");
        assert_eq!(hog, Some(800), "hog offers 10× the compliant rate");
        for (_, arrivals) in &a {
            assert!(arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
            assert!(arrivals.iter().all(|x| x.pool_idx < 8));
        }
    }

    #[test]
    fn hog_id_inside_compliant_range_replaces_that_tenant_rate() {
        let cfg = OpenLoopConfig {
            arrival_rps: 10,
            duration_ms: 1000,
            tenants: 2,
            hog_tenant: Some(2),
            hog_multiplier: 5,
            ..OpenLoopConfig::default()
        };
        let sched = arrival_schedule(&cfg, 4);
        assert_eq!(sched.len(), 2, "hog replaces tenant 2, not added");
        let t2 = sched.iter().find(|(t, _)| *t == 2).map(|(_, v)| v.len());
        assert_eq!(t2, Some(50), "tenant 2 offers 5× the base rate");
    }

    #[test]
    fn availability_counts_sheds_against_and_degrades_for() {
        let t = TenantLoad {
            tenant: 1,
            offered: 10,
            completed: 8,
            degraded: 3,
            shed: 1,
            errors: 1,
            ..TenantLoad::default()
        };
        assert!((t.availability() - 0.8).abs() < 1e-9);
        let clean = TenantLoad {
            tenant: 2,
            offered: 4,
            completed: 4,
            degraded: 4,
            ..TenantLoad::default()
        };
        assert!((clean.availability() - 1.0).abs() < 1e-9);
        let report = OpenLoopReport {
            tenants: vec![t, clean],
            elapsed: Duration::from_millis(1),
        };
        assert!((report.compliant_availability(Some(1)) - 1.0).abs() < 1e-9);
        assert!((report.compliant_availability(None) - 0.8).abs() < 1e-9);
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

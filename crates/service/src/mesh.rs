//! The planning client: one routed client over a replica list.
//!
//! A replica list is a consistent-hash ring with failover. A UOV is
//! legal under every schedule, so a certified `(uov, cost, certificate
//! hash)` is a pure function of the canonical problem and any replica's
//! answer can stand in for any other's; one [`MeshClient`] therefore
//! serves a single endpoint, a replica list and a shard mesh alike.
//!
//! * **Routing** ([`MeshClient::plan`]) — every problem is canonicalized
//!   ([`crate::canon`]) and its canonical fingerprint is looked up on a
//!   consistent-hash [`Ring`] with virtual nodes, so each problem has a
//!   stable *home shard* (and axis-relabeled duplicates of the same
//!   problem land on the same replica's plan cache, except for 3-D
//!   known-bounds problems, which [`crate::canon`] keeps in their own axis
//!   order). Attempts walk the
//!   ring from the home, skipping shards whose circuit breaker is open —
//!   deterministically, so two clients agree on the failover order.
//! * **Failure policy** — each attempt is bounded by
//!   [`MeshConfig::attempt_timeout`], and failed attempts back off
//!   exponentially with jitter from a generator seeded by
//!   [`MeshConfig::seed`]. `failure_threshold` consecutive failures open
//!   a shard's breaker; it stays open for `cooldown` *selection rounds*
//!   (not wall time, so transitions replay) and then admits one
//!   half-open probe, which either closes or re-opens it. A server
//!   rejection of the request's *content* (`Malformed`, `Unsupported`)
//!   is a hard error that no retry can fix.
//! * **Hedging** — with [`MeshConfig::hedge_after`], a primary still
//!   silent after that delay triggers the same request at the next
//!   admissible ring successor, and the first answer wins. With
//!   [`MeshConfig::hedge_verify`] both answers are awaited and compared,
//!   and a mismatch is the hard error [`ServiceError::ReplicaDivergence`]:
//!   the client never silently picks one of two disagreeing replicas.
//!
//! Routed plans record every outcome on one circuit breaker per shard;
//! retries back off through one jittered backoff and stop on one
//! hard-error check. Every exchange goes through one pooled connection
//! per shard. Every decision lands in one [`MeshEvent`] log that records
//! *choices, never wall-clock readings*, so a run replays event for
//! event under the same seed and fault schedule.
//!
//! One search is never split across replicas: DESIGN.md's "Why there is
//! no distributed search" gives the measurements.
//!
//! # Neighbor replication
//!
//! Because the certified answer is byte-identical no matter which shard
//! computes it, a plan-cache entry is safe to copy anywhere. After a
//! certified, non-degraded answer, the client pushes the entry to the
//! [`MeshConfig::replication_factor`] ring successors of the home shard
//! (`REQ_REPLICATE`), each of which **re-certifies before storing**, so
//! the deterministic failover order lands on a warm, certified hit
//! instead of a cold solve.

use std::io;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use uov_core::{fingerprint, Fnv};

use crate::canon::canonicalize;
use crate::client::Client;
use crate::error::{ErrorCode, ServiceError};
use crate::loadgen::XorShift64;
use crate::proto::{CacheOutcome, DegradationCode, PlanRequest, PlanResponse, ReplicateRequest};

// ------------------------------------------------------------------ ring

/// A consistent-hash ring over shard endpoints, with virtual nodes.
///
/// Each endpoint contributes `vnodes` points hashed from the endpoint
/// string and the vnode index (FNV-1a, the workspace-standard hash), so
/// the ring depends only on the endpoint *names* — every coordinator
/// builds the identical ring, and adding or removing one endpoint moves
/// only the keys on the arcs that endpoint's points claimed or released
/// (the property test in this module pins that arc-stability down).
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(point, shard index)` pairs.
    points: Vec<(u64, usize)>,
    /// Number of distinct shards.
    shards: usize,
}

impl Ring {
    /// Build the ring for `endpoints` with `vnodes` points per endpoint.
    /// Crate-private: `route` and `successors` need at least one point,
    /// so outside code gets a ring only from [`MeshClient::ring`], whose
    /// constructor rejects an empty endpoint list.
    pub(crate) fn new(endpoints: &[String], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(endpoints.len() * vnodes);
        for (i, e) in endpoints.iter().enumerate() {
            for v in 0..vnodes {
                let mut h = Fnv::new();
                h.write(e.as_bytes());
                h.write_u64(v as u64);
                points.push((h.finish(), i));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            shards: endpoints.len(),
        }
    }

    /// The home shard for `key`: the owner of the first ring point at or
    /// after `key`, wrapping at the top of the hash space.
    pub fn route(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len().max(1)].1
    }

    /// Every shard, in ring order starting from `key`'s home — the
    /// deterministic failover order. Each shard appears exactly once.
    pub fn successors(&self, key: u64) -> Vec<usize> {
        let n = self.points.len().max(1);
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.shards];
        let mut order = Vec::with_capacity(self.shards);
        for off in 0..n {
            let shard = self.points[(start + off) % n].1;
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
            }
        }
        order
    }
}

// ---------------------------------------------------------------- config

/// Tunables for [`MeshClient`].
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Virtual nodes per endpoint on the [`Ring`].
    pub vnodes: usize,
    /// The bound on one routed-plan attempt: the socket read timeout
    /// after which the client declares the replica dead for this attempt
    /// and fails over.
    pub attempt_timeout: Duration,
    /// Attempts per routed plan before [`ServiceError::FabricExhausted`].
    pub max_route_attempts: u32,
    /// Consecutive failures that open a shard's circuit breaker.
    pub failure_threshold: u32,
    /// Routing passes an open breaker stays open before half-opening.
    pub cooldown: u32,
    /// First backoff interval; attempt `k` waits ~`base · 2ᵏ` (jittered).
    pub backoff_base: Duration,
    /// Cap on the exponential backoff.
    pub backoff_max: Duration,
    /// Seed for the backoff jitter; the complete retry/backoff/breaker
    /// schedule is a pure function of this seed and the failure pattern.
    pub seed: u64,
    /// How many ring successors of the home shard receive a copy of
    /// every certified, non-degraded answer (`0` disables replication).
    /// Each receiver re-certifies before storing, and files the answer
    /// only under problems with the same optimum (a 3-D known-bounds
    /// answer under its sender's axis order alone), so replication can
    /// warm a failover target but never poison it.
    pub replication_factor: usize,
    /// Fire a hedge of a routed plan at the next admissible ring
    /// successor when the primary has not answered within this delay.
    /// `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// When hedging, wait for *both* answers and fail hard with
    /// [`ServiceError::ReplicaDivergence`] if they disagree, instead of
    /// returning the first. Costs latency; buys byzantine-replica
    /// detection.
    pub hedge_verify: bool,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            vnodes: 32,
            attempt_timeout: Duration::from_secs(2),
            max_route_attempts: 8,
            failure_threshold: 3,
            cooldown: 4,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            seed: 0x4D_E5_11,
            replication_factor: 1,
            hedge_after: None,
            hedge_verify: false,
        }
    }
}

/// Monotone counters describing a [`MeshClient`]'s traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Requests routed by consistent hash.
    pub routed: u64,
    /// Routed requests served by a shard other than their home.
    pub failovers: u64,
    /// Certified answers offered to neighbor replicas (the receiver may
    /// still refuse to store one that fails re-certification).
    pub replicas_pushed: u64,
}

/// Why an exchange with a shard failed, coarse enough to be
/// schedule-deterministic: connection resets and torn frames both class
/// as [`FailureClass::Transport`] because which of the two an aborted
/// connection surfaces is an OS-level race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The shard could not be dialed.
    Connect,
    /// The attempt timed out waiting for a response.
    Timeout,
    /// The transport failed mid-exchange (reset, torn frame, CRC damage,
    /// protocol violation).
    Transport,
    /// The server answered with a typed rejection (overload, drain,
    /// transit corruption, internal failure, or a hard content error).
    Rejected,
}

impl FailureClass {
    /// Classify a failure coarsely (see the type docs).
    fn of(e: &ServiceError) -> Self {
        match e {
            ServiceError::Io(io) => match io.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FailureClass::Timeout,
                io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound => FailureClass::Connect,
                _ => FailureClass::Transport,
            },
            ServiceError::Rejected { .. } => FailureClass::Rejected,
            _ => FailureClass::Transport,
        }
    }
}

/// One entry in the client's replayable decision log. It records *what
/// was decided*, never how long anything took, so logs from two runs
/// with the same seed and the same fault schedule are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshEvent {
    /// A request was routed to its home shard.
    Routed {
        /// The canonical routing key.
        key: u64,
        /// The home shard.
        shard: usize,
    },
    /// An attempt of a routed plan began.
    Attempt {
        /// Zero-based attempt number within one `plan` call.
        attempt: u32,
        /// The shard the attempt targets.
        shard: usize,
    },
    /// An exchange with a shard succeeded.
    Success {
        /// The shard that answered.
        shard: usize,
    },
    /// An exchange with a shard failed.
    Failure {
        /// The shard that failed.
        shard: usize,
        /// Failure class.
        class: FailureClass,
    },
    /// The client slept before the next attempt of a routed plan.
    Backoff {
        /// The attempt that just failed.
        attempt: u32,
        /// The jittered interval, in milliseconds.
        ms: u64,
    },
    /// A shard's breaker opened (failure threshold reached, or a
    /// half-open probe failed).
    BreakerOpened {
        /// The shard.
        shard: usize,
    },
    /// A shard's breaker aged out of its cooldown and will admit one
    /// probe request.
    BreakerHalfOpen {
        /// The shard.
        shard: usize,
    },
    /// An exchange with a half-open or open shard succeeded; the shard is
    /// healthy again.
    BreakerClosed {
        /// The shard.
        shard: usize,
    },
    /// The primary was slow; a hedge fired at a second shard.
    HedgeFired {
        /// The slow primary.
        primary: usize,
        /// The hedge target.
        secondary: usize,
    },
    /// A hedged attempt resolved; this shard's answer was taken.
    HedgeWinner {
        /// The winning shard.
        shard: usize,
    },
    /// A routed request was served away from home.
    Failover {
        /// The home shard that was skipped or failed.
        home: usize,
        /// The shard that served instead.
        shard: usize,
    },
    /// A certified answer was offered to a neighbor replica.
    ReplicaPushed {
        /// The receiving shard.
        shard: usize,
        /// Whether the receiver re-certified and stored it.
        stored: bool,
    },
}

/// Circuit breaker state for one shard (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed { failures: u32 },
    Open { remaining: u32 },
    HalfOpen,
}

impl Breaker {
    /// Whether the breaker lets traffic through.
    fn admits(self) -> bool {
        !matches!(self, Breaker::Open { .. })
    }
}

// ---------------------------------------------------------------- client

/// The routed planning client over a replica list: consistent-hash
/// routing with breaker-aware failover, backoff, optional hedging and
/// neighbor replication (see the module docs).
pub struct MeshClient {
    endpoints: Vec<String>,
    ring: Ring,
    conns: Vec<Option<Client>>,
    breakers: Vec<Breaker>,
    cfg: MeshConfig,
    rng: XorShift64,
    events: Vec<MeshEvent>,
    stats: MeshStats,
}

/// One plan exchange reported back from a hedging thread: the shard, its
/// answer, and the pooled connection if it stayed healthy.
type Arrival = (usize, Result<PlanResponse, ServiceError>, Option<Client>);

impl MeshClient {
    /// A client over `endpoints`. The ring is a pure function of the
    /// endpoint names, so every coordinator over the same list agrees on
    /// homes and failover orders. Connections are dialed lazily, so
    /// replicas may be down at construction time.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Malformed`] if `endpoints` is empty.
    pub fn new(endpoints: &[String], cfg: MeshConfig) -> Result<Self, ServiceError> {
        if endpoints.is_empty() {
            return Err(ServiceError::Malformed("no replica endpoints".into()));
        }
        let ring = Ring::new(endpoints, cfg.vnodes);
        let seed = cfg.seed;
        Ok(MeshClient {
            endpoints: endpoints.to_vec(),
            ring,
            conns: (0..endpoints.len()).map(|_| None).collect(),
            breakers: vec![Breaker::Closed { failures: 0 }; endpoints.len()],
            cfg,
            rng: XorShift64::new(seed),
            events: Vec::new(),
            stats: MeshStats::default(),
        })
    }

    /// The decision log accumulated so far.
    pub fn events(&self) -> &[MeshEvent] {
        &self.events
    }

    /// Drain and return the decision log.
    pub fn take_events(&mut self) -> Vec<MeshEvent> {
        std::mem::take(&mut self.events)
    }

    /// Current traffic counters.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// The ring this client routes on.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The canonical routing key for a request: the fingerprint of the
    /// *canonicalized* problem, so axis-relabeled duplicates share a home
    /// shard (and therefore a plan-cache slot). 3-D known-bounds problems
    /// canonicalize to themselves, so each axis order has its own home.
    pub fn routing_key(req: &PlanRequest) -> u64 {
        let canon = canonicalize(&req.stencil, &req.objective);
        fingerprint(&canon.stencil, &canon.objective.as_objective())
    }

    /// Plan through the ring: home shard first, then live ring
    /// successors, with per-attempt timeouts, per-shard circuit breakers,
    /// jittered backoff between attempts, and hedging when configured.
    ///
    /// # Errors
    ///
    /// [`ServiceError::FabricExhausted`] when every attempt failed;
    /// [`ServiceError::ReplicaDivergence`] when verified hedging caught
    /// two shards disagreeing; a non-retryable rejection (`Malformed`,
    /// `Unsupported`) immediately as [`ServiceError::Rejected`].
    pub fn plan(&mut self, req: &PlanRequest) -> Result<PlanResponse, ServiceError> {
        let key = Self::routing_key(req);
        let order = self.ring.successors(key);
        let home = order[0];
        self.stats.routed += 1;
        self.events.push(MeshEvent::Routed { key, shard: home });

        let max_attempts = self.cfg.max_route_attempts.max(1);
        let mut last: Option<ServiceError> = None;
        for attempt in 0..max_attempts {
            let primary = self.select_shard(&order);
            self.events.push(MeshEvent::Attempt {
                attempt,
                shard: primary,
            });
            let outcome = match self.hedge_target(primary, &order) {
                Some(secondary) => self.attempt_hedged(primary, secondary, req),
                None => self
                    .attempt(primary, |c| c.plan(req))
                    .map(|resp| (primary, resp)),
            };
            match outcome {
                Ok((shard, resp)) => {
                    if shard != home {
                        self.stats.failovers += 1;
                        self.events.push(MeshEvent::Failover { home, shard });
                    }
                    self.push_replicas(req, &resp, &order, shard);
                    return Ok(resp);
                }
                Err(e) if is_hard(&e) => return Err(e),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < max_attempts {
                let ms = back_off(&self.cfg, &mut self.rng, attempt);
                self.events.push(MeshEvent::Backoff { attempt, ms });
            }
        }
        Err(ServiceError::FabricExhausted {
            attempts: max_attempts,
            last: Box::new(last.unwrap_or(ServiceError::ConnectionClosed)),
        })
    }

    /// Replicate a routed answer from `served_by` to the
    /// [`MeshConfig::replication_factor`] ring successors of the home
    /// shard in `order`, so a deterministic failover lands on a warm,
    /// certified cache entry. Best-effort; every receiver re-certifies
    /// before storing. Hits are skipped (their original miss already
    /// replicated) and degraded answers are never offered — a replica
    /// must only ever hold entries it could re-certify.
    fn push_replicas(
        &mut self,
        req: &PlanRequest,
        resp: &PlanResponse,
        order: &[usize],
        served_by: usize,
    ) {
        if resp.cache == CacheOutcome::Hit || resp.degradation != DegradationCode::None {
            return;
        }
        let k = self
            .cfg
            .replication_factor
            .min(order.len().saturating_sub(1));
        if k == 0 {
            return;
        }
        let push = ReplicateRequest {
            stencil: req.stencil.clone(),
            objective: req.objective.clone(),
            uov: resp.uov.clone(),
            cost: resp.cost,
        };
        for &shard in &order[1..=k] {
            if shard == served_by {
                continue; // the serving replica already holds the entry
            }
            if let Ok(ack) = self.exchange(shard, |c| c.replicate(&push)) {
                self.stats.replicas_pushed += 1;
                self.events.push(MeshEvent::ReplicaPushed {
                    shard,
                    stored: ack.stored,
                });
            }
        }
    }

    /// Age open breakers one tick, then pick the first admissible shard
    /// in `order`; when every breaker is open, half-open the one closest
    /// to its cooldown's end (probe rather than refuse).
    fn select_shard(&mut self, order: &[usize]) -> usize {
        for &shard in order {
            if let Breaker::Open { remaining } = self.breakers[shard] {
                self.breakers[shard] = if remaining <= 1 {
                    self.events.push(MeshEvent::BreakerHalfOpen { shard });
                    Breaker::HalfOpen
                } else {
                    Breaker::Open {
                        remaining: remaining - 1,
                    }
                };
            }
        }
        if let Some(&shard) = order.iter().find(|&&s| self.breakers[s].admits()) {
            return shard;
        }
        let shard = order
            .iter()
            .copied()
            .min_by_key(|&s| match self.breakers[s] {
                Breaker::Open { remaining } => remaining,
                _ => 0,
            })
            .unwrap_or(order[0]);
        self.breakers[shard] = Breaker::HalfOpen;
        self.events.push(MeshEvent::BreakerHalfOpen { shard });
        shard
    }

    /// The hedge target for `primary`: the next ring successor in
    /// `order` whose breaker admits traffic, when hedging is enabled.
    fn hedge_target(&self, primary: usize, order: &[usize]) -> Option<usize> {
        self.cfg.hedge_after?;
        order
            .iter()
            .copied()
            .find(|&s| s != primary && self.breakers[s].admits())
    }

    /// One hedged attempt: the primary's exchange runs on a helper
    /// thread; if it is silent past `hedge_after`, the secondary's is
    /// fired too, and the first success wins (verify mode: await both
    /// and compare). A loser that never answers is abandoned with its
    /// thread. All breaker and event bookkeeping happens here, on the
    /// calling thread, in a deterministic order. Returns the shard that
    /// served with its answer.
    fn attempt_hedged(
        &mut self,
        primary: usize,
        secondary: usize,
        req: &PlanRequest,
    ) -> Result<(usize, PlanResponse), ServiceError> {
        let timeout = self.cfg.attempt_timeout;
        let hedge_after = self.cfg.hedge_after.unwrap_or(timeout);
        let (tx, rx) = mpsc::channel::<Arrival>();
        self.spawn_plan(primary, req, tx.clone());

        // Happy path: the primary answers (or fails) before the delay.
        if let Ok((shard, result, conn)) = rx.recv_timeout(hedge_after) {
            self.conns[shard] = conn;
            self.record(shard, &result);
            return result.map(|resp| (shard, resp));
        }

        self.events
            .push(MeshEvent::HedgeFired { primary, secondary });
        self.spawn_plan(secondary, req, tx);

        // Collect until the attempt window closes. In verify mode both
        // answers are awaited (byzantine detection); otherwise the first
        // success wins and the loser is abandoned.
        let deadline = Instant::now() + timeout + hedge_after;
        let mut winner: Option<(usize, PlanResponse)> = None;
        let mut failures: Vec<(usize, ServiceError)> = Vec::new();
        let mut arrived = 0u32;
        while arrived < 2 {
            let budget = deadline.saturating_duration_since(Instant::now());
            let Ok((shard, result, conn)) = rx.recv_timeout(budget) else {
                break;
            };
            arrived += 1;
            if conn.is_some() {
                self.conns[shard] = conn;
            }
            match (result, &winner) {
                (Err(e), _) => failures.push((shard, e)),
                (Ok(resp), None) => {
                    winner = Some((shard, resp));
                    if !self.cfg.hedge_verify {
                        break;
                    }
                }
                (Ok(resp), Some((_, first))) => {
                    if (&first.uov, first.cost, first.certificate_hash)
                        != (&resp.uov, resp.cost, resp.certificate_hash)
                    {
                        // Hard error: two certified answers disagree.
                        let (a, b) = (first.certificate_hash, resp.certificate_hash);
                        self.on_failure(shard, FailureClass::Rejected);
                        return Err(ServiceError::ReplicaDivergence { a, b });
                    }
                }
            }
        }

        let won = winner.as_ref().map(|(shard, _)| *shard);
        if let Some(shard) = won {
            self.events.push(MeshEvent::HedgeWinner { shard });
            self.on_success(shard);
        }
        // Every other shard either failed outright or never answered
        // within the window; both count against its breaker.
        let mut last: Option<ServiceError> = None;
        for shard in [primary, secondary] {
            match failures.iter().position(|(s, _)| *s == shard) {
                _ if won == Some(shard) => {}
                Some(at) => {
                    let (_, e) = failures.swap_remove(at);
                    self.on_failure(shard, FailureClass::of(&e));
                    last = Some(e);
                }
                None if arrived < 2 => self.on_failure(shard, FailureClass::Timeout),
                None => {}
            }
        }
        winner.ok_or_else(|| {
            last.unwrap_or_else(|| {
                ServiceError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "hedged attempt timed out on both replicas",
                ))
            })
        })
    }

    /// Run one plan exchange with `shard` on a detached thread — a hedged
    /// attempt must be able to abandon a stalled replica — and report
    /// the answer and the still-healthy connection back over `tx`.
    fn spawn_plan(&mut self, shard: usize, req: &PlanRequest, tx: mpsc::Sender<Arrival>) {
        let mut conn = self.conns[shard].take();
        let endpoint = self.endpoints[shard].clone();
        let timeout = self.cfg.attempt_timeout;
        let req = req.clone();
        thread::spawn(move || {
            let result = exchange(&mut conn, &endpoint, timeout, |c| c.plan(&req));
            let _ = tx.send((shard, result, conn));
        });
    }

    /// [`exchange`] over `shard`'s pooled connection, with no breaker
    /// accounting (replication pushes are best-effort).
    fn exchange<T>(
        &mut self,
        shard: usize,
        call: impl FnOnce(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        exchange(
            &mut self.conns[shard],
            &self.endpoints[shard],
            self.cfg.attempt_timeout,
            call,
        )
    }

    /// [`MeshClient::exchange`], with the outcome recorded on the
    /// shard's breaker.
    fn attempt<T>(
        &mut self,
        shard: usize,
        call: impl FnOnce(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let out = self.exchange(shard, call);
        self.record(shard, &out);
        out
    }

    fn record<T>(&mut self, shard: usize, out: &Result<T, ServiceError>) {
        match out {
            Ok(_) => self.on_success(shard),
            Err(e) => self.on_failure(shard, FailureClass::of(e)),
        }
    }

    fn on_success(&mut self, shard: usize) {
        self.events.push(MeshEvent::Success { shard });
        if !matches!(self.breakers[shard], Breaker::Closed { .. }) {
            self.events.push(MeshEvent::BreakerClosed { shard });
        }
        self.breakers[shard] = Breaker::Closed { failures: 0 };
    }

    /// The one breaker transition on failure: a failed half-open probe,
    /// or the `failure_threshold`-th consecutive failure, opens the
    /// breaker for `cooldown` selection rounds.
    fn on_failure(&mut self, shard: usize, class: FailureClass) {
        self.events.push(MeshEvent::Failure { shard, class });
        let threshold = self.cfg.failure_threshold.max(1);
        let opens = match self.breakers[shard] {
            Breaker::HalfOpen => true,
            Breaker::Closed { failures } if failures + 1 >= threshold => true,
            Breaker::Closed { failures } => {
                self.breakers[shard] = Breaker::Closed {
                    failures: failures + 1,
                };
                false
            }
            Breaker::Open { .. } => false,
        };
        if opens {
            self.breakers[shard] = Breaker::Open {
                remaining: self.cfg.cooldown.max(1),
            };
            self.events.push(MeshEvent::BreakerOpened { shard });
        }
        // The transport is suspect on every failure class except a typed
        // rejection, which proves the connection works.
        if class != FailureClass::Rejected {
            self.conns[shard] = None;
        }
    }
}

/// Dial `endpoint` for one shard: the attempt timeout bounds every read.
fn dial(endpoint: &str, timeout: Duration) -> Result<Client, ServiceError> {
    let mut client = Client::connect(endpoint)?;
    client.set_timeout(Some(timeout))?;
    Ok(client)
}

/// The one request/response exchange over a pooled connection: take
/// the slot's connection (or dial one), run `call` on it, and put it
/// back after a success or a typed rejection — a rejection travelled
/// over a working transport. After any other failure the transport is
/// suspect (a timed-out socket may still deliver a stale frame), so the
/// connection is dropped.
fn exchange<T>(
    slot: &mut Option<Client>,
    endpoint: &str,
    timeout: Duration,
    call: impl FnOnce(&mut Client) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let mut client = match slot.take() {
        Some(c) => c,
        None => dial(endpoint, timeout)?,
    };
    let out = call(&mut client);
    if out
        .as_ref()
        .err()
        .is_none_or(|e| FailureClass::of(e) == FailureClass::Rejected)
    {
        *slot = Some(client);
    }
    out
}

/// Whether retrying cannot possibly help: the server understood the
/// request and rejected its *content* — which every replica would — or
/// verified hedging caught two replicas disagreeing.
fn is_hard(e: &ServiceError) -> bool {
    matches!(
        e,
        ServiceError::Rejected {
            code: ErrorCode::Malformed | ErrorCode::Unsupported,
            ..
        } | ServiceError::ReplicaDivergence { .. }
    )
}

/// Sleep out the backoff after failed attempt `attempt` and return the
/// interval in milliseconds: exponential from `backoff_base`, capped at
/// `backoff_max`, with jitter in `[exp/2, exp]` drawn from `rng` — enough
/// spread to avoid thundering herds, reproducible under the seed.
fn back_off(cfg: &MeshConfig, rng: &mut XorShift64, attempt: u32) -> u64 {
    let base = cfg.backoff_base.as_millis() as u64;
    let cap = (cfg.backoff_max.as_millis() as u64).max(base);
    let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
    let half = exp / 2;
    let ms = half + rng.next() % (exp - half + 1);
    if ms > 0 {
        thread::sleep(Duration::from_millis(ms));
    }
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{kind, read_frame, write_frame, Frame, ObjectiveSpec};
    use crate::server::{serve, ServerConfig};
    use std::net::TcpListener;
    use uov_isg::{ivec, Stencil};

    fn fig1_request() -> PlanRequest {
        PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap(),
            objective: ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        }
    }

    fn quick_cfg() -> MeshConfig {
        MeshConfig {
            attempt_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..MeshConfig::default()
        }
    }

    fn endpoint_of(l: &TcpListener) -> String {
        l.local_addr().unwrap().to_string()
    }

    /// Two reserved local endpoints, ordered so that index 0 is `req`'s
    /// ring home and index 1 its successor; the caller decides what runs
    /// behind each (dropping a listener leaves a dead endpoint).
    fn home_first(req: &PlanRequest) -> [TcpListener; 2] {
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let b = TcpListener::bind("127.0.0.1:0").unwrap();
        let ring = Ring::new(&[endpoint_of(&a), endpoint_of(&b)], quick_cfg().vnodes);
        if ring.route(MeshClient::routing_key(req)) == 0 {
            [a, b]
        } else {
            [b, a]
        }
    }

    /// A dead home shard and a live successor for `req`: the endpoint
    /// list and the live server.
    fn dead_home(req: &PlanRequest) -> (Vec<String>, crate::server::ServerHandle) {
        let [home, next] = home_first(req);
        let endpoints = vec![endpoint_of(&home), endpoint_of(&next)];
        drop((home, next));
        let server = serve(&endpoints[1], ServerConfig::default()).unwrap();
        (endpoints, server)
    }

    #[test]
    fn fails_over_from_a_dead_home_shard() {
        let req = fig1_request();
        let (endpoints, server) = dead_home(&req);
        let mut mesh = MeshClient::new(&endpoints, quick_cfg()).unwrap();
        assert_eq!(mesh.ring().route(MeshClient::routing_key(&req)), 0);
        let resp = mesh.plan(&req).unwrap();
        assert_eq!(resp.uov, ivec![1, 1]);
        let events = mesh.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, MeshEvent::Failure { shard: 0, .. })));
        assert!(events.contains(&MeshEvent::Success { shard: 1 }));
        assert!(events.contains(&MeshEvent::Failover { home: 0, shard: 1 }));
        server.shutdown();
        server.join();
    }

    #[test]
    fn breaker_opens_skips_and_probes_half_open() {
        let req = fig1_request();
        let (endpoints, server) = dead_home(&req);
        let cfg = MeshConfig {
            failure_threshold: 2,
            cooldown: 3,
            ..quick_cfg()
        };
        let mut mesh = MeshClient::new(&endpoints, cfg).unwrap();
        for _ in 0..6 {
            mesh.plan(&req).unwrap();
        }
        let events = mesh.take_events();
        assert!(
            events.contains(&MeshEvent::BreakerOpened { shard: 0 }),
            "dead home's breaker never opened: {events:?}"
        );
        // While shard 0 is open, attempts go straight to shard 1.
        let opened = events
            .iter()
            .position(|e| *e == MeshEvent::BreakerOpened { shard: 0 })
            .unwrap();
        let next_attempt = events[opened..]
            .iter()
            .find_map(|e| match e {
                MeshEvent::Attempt { shard, .. } => Some(*shard),
                _ => None,
            })
            .unwrap();
        assert_eq!(next_attempt, 1, "open breaker was not skipped");
        // Eventually the cooldown elapses and the dead home is probed.
        assert!(
            events.contains(&MeshEvent::BreakerHalfOpen { shard: 0 }),
            "breaker never went half-open: {events:?}"
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn schedule_replays_identically_for_a_seed() {
        let run = |seed: u64| {
            // The endpoints differ per run, but with the dead one at the
            // request's home the failure pattern (connection refused
            // every time) does not.
            let req = fig1_request();
            let (endpoints, server) = dead_home(&req);
            let cfg = MeshConfig {
                seed,
                failure_threshold: 2,
                cooldown: 2,
                ..quick_cfg()
            };
            let mut mesh = MeshClient::new(&endpoints, cfg).unwrap();
            for _ in 0..5 {
                mesh.plan(&req).unwrap();
            }
            server.shutdown();
            server.join();
            mesh.take_events()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
    }

    /// A fake replica on `l` that speaks the protocol but answers every
    /// plan with a fixed bogus response after a delay.
    fn lying_server(l: TcpListener, delay: Duration) {
        thread::spawn(move || {
            while let Ok((mut s, _)) = l.accept() {
                let resp = PlanResponse {
                    uov: ivec![9, 9],
                    cost: 999,
                    certificate_hash: 0xBAD0_BAD0,
                    degradation: DegradationCode::None,
                    cache: CacheOutcome::Miss,
                };
                thread::spawn(move || {
                    while let Ok(Some(Frame {
                        kind: kind::REQ_PLAN,
                        ..
                    })) = read_frame(&mut s)
                    {
                        thread::sleep(delay);
                        if write_frame(&mut s, kind::RESP_PLAN, &resp.encode()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
    }

    /// A lying home shard behind `delay` and an honest successor.
    fn lying_home(
        req: &PlanRequest,
        delay: Duration,
    ) -> (Vec<String>, crate::server::ServerHandle) {
        let [home, next] = home_first(req);
        let endpoints = vec![endpoint_of(&home), endpoint_of(&next)];
        lying_server(home, delay);
        drop(next);
        let honest = serve(&endpoints[1], ServerConfig::default()).unwrap();
        (endpoints, honest)
    }

    #[test]
    fn verified_hedging_turns_divergence_into_a_hard_error() {
        // The home lies slowly; the hedge fires and the honest successor
        // answers; verification then catches the divergence.
        let req = fig1_request();
        let (endpoints, honest) = lying_home(&req, Duration::from_millis(250));
        let cfg = MeshConfig {
            hedge_after: Some(Duration::from_millis(50)),
            hedge_verify: true,
            attempt_timeout: Duration::from_secs(2),
            max_route_attempts: 1,
            ..quick_cfg()
        };
        let mut mesh = MeshClient::new(&endpoints, cfg).unwrap();
        match mesh.plan(&req) {
            Err(ServiceError::ReplicaDivergence { .. }) => {}
            other => panic!("expected ReplicaDivergence, got {other:?}"),
        }
        assert!(mesh
            .events()
            .iter()
            .any(|e| matches!(e, MeshEvent::HedgeFired { .. })));
        honest.shutdown();
        honest.join();
    }

    #[test]
    fn hedging_takes_the_fast_replica_when_the_primary_stalls() {
        // The home answers far too slowly; the hedge must win.
        let req = fig1_request();
        let (endpoints, honest) = lying_home(&req, Duration::from_secs(30));
        let cfg = MeshConfig {
            hedge_after: Some(Duration::from_millis(50)),
            attempt_timeout: Duration::from_millis(800),
            max_route_attempts: 2,
            ..quick_cfg()
        };
        let mut mesh = MeshClient::new(&endpoints, cfg).unwrap();
        let resp = mesh.plan(&req).unwrap();
        assert_eq!(resp.uov, ivec![1, 1]);
        assert!(mesh.events().contains(&MeshEvent::HedgeWinner { shard: 1 }));
        honest.shutdown();
        honest.join();
    }

    #[test]
    fn exhaustion_is_a_typed_error_with_the_last_cause() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            endpoint_of(&l)
        };
        let cfg = MeshConfig {
            max_route_attempts: 3,
            ..quick_cfg()
        };
        let mut mesh = MeshClient::new(&[dead], cfg).unwrap();
        match mesh.plan(&fig1_request()) {
            Err(ServiceError::FabricExhausted { attempts: 3, .. }) => {}
            other => panic!("expected FabricExhausted, got {other:?}"),
        }
    }

    #[test]
    fn empty_replica_list_is_rejected() {
        assert!(MeshClient::new(&[], MeshConfig::default()).is_err());
    }

    fn endpoints(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
    }

    #[test]
    fn ring_routes_deterministically_and_covers_all_shards() {
        let eps = endpoints(5);
        let a = Ring::new(&eps, 16);
        let b = Ring::new(&eps, 16);
        let mut hit = [false; 5];
        for k in 0..2000u64 {
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(a.route(key), b.route(key));
            hit[a.route(key)] = true;
            let order = a.successors(key);
            assert_eq!(order.len(), 5);
            assert_eq!(order[0], a.route(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
        assert!(hit.iter().all(|&h| h), "some shard owns no arc at all");
    }

    /// The consistent-hashing contract: adding a shard re-homes only the
    /// keys that move *to* the new shard; removing a shard re-homes only
    /// the keys that lived on it. Everything else stays put.
    #[test]
    fn ring_add_remove_moves_only_the_affected_arcs() {
        let five = endpoints(5);
        let six: Vec<String> = five
            .iter()
            .cloned()
            .chain(std::iter::once("10.0.0.9:7878".to_string()))
            .collect();
        let ring5 = Ring::new(&five, 16);
        let ring6 = Ring::new(&six, 16);
        let mut moved = 0usize;
        let total = 4000usize;
        for k in 0..total as u64 {
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5;
            let before = &five[ring5.route(key)];
            let after = &six[ring6.route(key)];
            if before != after {
                assert_eq!(after, "10.0.0.9:7878", "key re-homed to an old shard");
                moved += 1;
            }
        }
        // Roughly 1/6 of the keyspace should move; all of it must move
        // to the new shard (asserted above), and some of it must move
        // (a ring that never moves keys is not hashing at all).
        assert!(moved > 0, "adding a shard moved nothing");
        assert!(
            moved < total / 3,
            "adding one of six shards moved {moved}/{total} keys"
        );

        // Removal is the mirror image: only the removed shard's keys move.
        let four: Vec<String> = five[..4].to_vec();
        let ring4 = Ring::new(&four, 16);
        for k in 0..total as u64 {
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A;
            let before = &five[ring5.route(key)];
            let after = &four[ring4.route(key)];
            if before != after {
                assert_eq!(before, &five[4], "a surviving shard's key moved on removal");
            }
        }
    }

    #[test]
    fn routing_key_is_permutation_invariant() {
        // Axis-relabeled problems must share a home shard.
        let a = PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![2, 1]]).unwrap(),
            objective: crate::proto::ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        };
        let b = PlanRequest {
            stencil: Stencil::new(vec![ivec![0, 1], ivec![1, 2]]).unwrap(),
            objective: crate::proto::ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        };
        assert_eq!(MeshClient::routing_key(&a), MeshClient::routing_key(&b));
    }
}

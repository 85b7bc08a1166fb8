//! The planning client: one routed client over a replica list, plus
//! distributed branch-and-bound over `UOVCKPT1` work units.
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
//!   problem land on the same replica's plan cache). Attempts walk the
//!   ring from the home, skipping shards whose circuit breaker is open —
//!   deterministically, so two coordinators agree on the failover order.
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
//! * **Distributed search** ([`MeshClient::plan_distributed`]) — a large
//!   search is split across replicas by shipping PATHSET subtrees as
//!   [`crate::proto::WorkUnitRequest`] frames whose payload is the
//!   `UOVCKPT1` snapshot format, verbatim. The coordinator holds a lease
//!   (the per-attempt socket timeout) on every outstanding unit and
//!   re-dispatches a unit to the next ring successor when its replica
//!   dies, times out, or returns a damaged frame.
//!
//! Every frame the client sends carries its tenant
//! ([`MeshClient::set_tenant`]). Routed plans, batches and work units
//! record every outcome on one circuit breaker per shard, which gossip
//! polls consult too; retries back off through one jittered backoff and
//! stop on one hard-error check. Everything but work units — which dial
//! a fresh socket per lease, see [`MeshClient::plan_distributed`] — goes
//! through one pooled-connection exchange. Every decision lands in one
//! [`MeshEvent`] log that records *choices, never wall-clock readings*,
//! so a run replays event for event under the same seed and fault
//! schedule.
//!
//! # Why a multi-round fixpoint, not a one-shot scatter
//!
//! The branch-and-bound PATHSET table is *not* partition-independent: an
//! offset `w` can be reachable along paths explored in different work
//! units, and only the **union** of those PATHSETs makes `w` a UOV
//! candidate (mask = full) or generates a child's full mask. A one-shot
//! scatter/gather would silently miss such candidates. The coordinator
//! therefore merges unit snapshots (PATHSET masks by union, incumbents by
//! the engine's canonical total order), then *re-frontiers* every offset
//! whose merged mask has not provably been expanded by some single engine
//! — and loops until no frontier remains. Masks are monotone and bounded
//! and the explored region is capped by the engine's `phi_cap`, so the
//! fixpoint terminates; because the engine's pruning is strict and every
//! bound it prunes against is the cost of a genuine UOV, the fixpoint
//! answer is byte-identical to a direct in-process search — the
//! differential chaos tests assert exactly that, mid-kill included.
//!
//! # Bound gossip
//!
//! Replicas piggyback their best proven incumbent bound on the stats
//! frame ([`crate::proto::BoundGossip`]). The coordinator folds a
//! matching bound into each unit's `bound_hint`. Staleness is sound: a
//! gossiped bound is always the cost of a *genuine* UOV, so it can only
//! over-estimate the optimum, and the engine prunes strictly (`>`), so
//! ties survive to the lexicographic tie-break. A lost or stale gossip
//! frame costs visits, never correctness.
//!
//! # Neighbor replication and lease fencing
//!
//! Because the certified answer is byte-identical no matter which shard
//! computes it, a plan-cache entry is safe to copy anywhere. After a
//! certified, non-degraded answer, the coordinator pushes the entry to
//! the [`MeshConfig::replication_factor`] ring successors of the home
//! shard (`REQ_REPLICATE`), each of which **re-certifies before
//! storing**, so the deterministic failover order lands on a warm,
//! certified hit instead of a cold solve. An anti-entropy sweep on the
//! stats channel ([`MeshClient::anti_entropy_sweep`]) watches each
//! shard's monotone connection counter; a decrease means the process
//! restarted with an empty cache, and every entry it should hold is
//! re-pushed, flagged as a repair.
//!
//! Work-unit leases are *fenced*: every dispatch attempt carries a fresh
//! monotonic epoch inside the `UOVCKPT1` envelope. The server fences
//! each problem at the highest epoch seen and rejects older ones
//! (`StaleEpoch`), so a zombie replica finishing a superseded unit can
//! never double-report into a merge; the coordinator keeps timed-out
//! sockets and drains any late completion, discarding it by epoch.
//! Duplicate or stale completions are *also* harmless algebraically —
//! the merge is a union of monotone masks plus a canonical minimum, so
//! re-absorbing a snapshot is a no-op (the property test pins that).

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use uov_core::certify::certify;
use uov_core::checkpoint::{decode_snapshot, encode_snapshot, Snapshot};
use uov_core::search::{search_unit, try_cost_of, SearchConfig, SearchStats};
use uov_core::{fingerprint, Budget, Fnv, SearchResult};
use uov_isg::{IVec, Stencil};

use crate::canon::canonicalize;
use crate::client::Client;
use crate::error::{ErrorCode, ServiceError};
use crate::loadgen::XorShift64;
use crate::proto::{
    kind, BatchRequest, BatchResponse, CacheOutcome, DegradationCode, ErrorResponse, ObjectiveSpec,
    PlanRequest, PlanResponse, ReplicateRequest, StatsResponse, WorkUnitRequest, WorkUnitResponse,
    MAX_BATCH_ENTRIES, MAX_PAYLOAD,
};

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
    /// The lease on one work-unit (or routed-plan) attempt: the socket
    /// read timeout after which the coordinator declares the replica
    /// dead for this unit and re-dispatches.
    pub attempt_timeout: Duration,
    /// Attempts per routed plan before [`ServiceError::FabricExhausted`].
    pub max_route_attempts: u32,
    /// Attempts per work unit (across ring successors, wrapping) before
    /// the distributed search as a whole fails.
    pub max_unit_attempts: u32,
    /// Nodes the coordinator explores locally before splitting the
    /// frontier into work units; small problems finish here and are
    /// never shipped at all.
    pub local_prefix_nodes: u64,
    /// Node budget per shipped work unit (`0` = unlimited): small values
    /// force multiple merge rounds, which the differential tests use to
    /// exercise the fixpoint.
    pub unit_node_budget: u64,
    /// Work units per round (`0` = one per shard).
    pub units_per_round: usize,
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
    /// Whether to poll shards' stats frames for gossiped incumbent
    /// bounds between rounds.
    pub gossip: bool,
    /// How many ring successors of the home shard receive a copy of
    /// every certified, non-degraded answer (`0` disables replication).
    /// Each receiver re-certifies before storing, so replication can
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
            max_unit_attempts: 12,
            local_prefix_nodes: 64,
            unit_node_budget: 0,
            units_per_round: 0,
            failure_threshold: 3,
            cooldown: 4,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            seed: 0x4D_E5_11,
            gossip: true,
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
    /// Distributed searches coordinated.
    pub distributed: u64,
    /// Merge rounds run across all distributed searches.
    pub rounds: u64,
    /// Work units dispatched (first attempts).
    pub units_dispatched: u64,
    /// Work-unit re-dispatches after a dead, slow, or damaged replica.
    pub redispatches: u64,
    /// Gossiped bounds folded into unit hints.
    pub gossip_hints: u64,
    /// Distributed searches that fell back to a routed single-shard
    /// plan because a unit payload exceeded the frame limit.
    pub oversize_fallbacks: u64,
    /// Certified answers offered to neighbor replicas (the receiver may
    /// still refuse to store one that fails re-certification).
    pub replicas_pushed: u64,
    /// Late work-unit completions drained from zombie sockets and
    /// discarded because their fencing epoch was superseded.
    pub stale_epoch_rejections: u64,
    /// Replicated entries re-pushed to restarted shards by the
    /// anti-entropy sweep.
    pub anti_entropy_repairs: u64,
    /// Batch requests routed (each may fan out to several shards).
    pub batches_routed: u64,
    /// Per-shard sub-batches sent beyond the first for a single batch:
    /// the extra frames paid because entries hashed to different homes.
    pub batch_splits: u64,
    /// Batch entries that fell back to individual routed plans after a
    /// shard's sub-batch attempt failed.
    pub batch_fallbacks: u64,
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
    /// A work unit went out.
    UnitDispatched {
        /// Merge round.
        round: usize,
        /// Unit index within the round.
        unit: usize,
        /// Target shard.
        shard: usize,
    },
    /// A work unit was re-dispatched after a failed attempt.
    UnitRedispatched {
        /// Merge round.
        round: usize,
        /// Unit index within the round.
        unit: usize,
        /// The shard that failed the lease.
        from: usize,
        /// The next ring successor tried.
        to: usize,
    },
    /// A work unit's snapshot came back and validated.
    UnitCompleted {
        /// Merge round.
        round: usize,
        /// Unit index within the round.
        unit: usize,
        /// The shard that served it.
        shard: usize,
    },
    /// A merge round finished.
    RoundMerged {
        /// Merge round.
        round: usize,
        /// Offsets re-frontiered for the next round.
        frontier: usize,
    },
    /// A shard gossiped a usable incumbent bound.
    GossipBound {
        /// The gossiping shard.
        shard: usize,
        /// The bound (a genuine UOV's cost).
        cost: u64,
    },
    /// A certified answer was offered to a neighbor replica.
    ReplicaPushed {
        /// The receiving shard.
        shard: usize,
        /// Whether the receiver re-certified and stored it.
        stored: bool,
    },
    /// A late work-unit completion under a superseded fencing epoch was
    /// drained from a zombie socket and discarded before any merge.
    StaleCompletionDiscarded {
        /// The shard whose completion arrived too late.
        shard: usize,
        /// The superseded epoch the completion carried.
        epoch: u64,
    },
    /// The anti-entropy sweep re-pushed a replicated entry to a shard
    /// that restarted with an empty cache.
    AntiEntropyRepair {
        /// The repaired shard.
        shard: usize,
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
/// routing with breaker-aware failover, backoff and optional hedging,
/// plus the distributed-search coordinator (see the module docs).
pub struct MeshClient {
    endpoints: Vec<String>,
    ring: Ring,
    conns: Vec<Option<Client>>,
    breakers: Vec<Breaker>,
    cfg: MeshConfig,
    rng: XorShift64,
    events: Vec<MeshEvent>,
    stats: MeshStats,
    /// Tenant id stamped into every request frame (0 = anonymous).
    tenant: u32,
    /// Monotonic source of work-unit fencing epochs. Every dispatch
    /// attempt — first try and every re-dispatch — draws a fresh epoch,
    /// so the server-side fence (highest epoch wins per problem) makes
    /// superseded attempts rejectable on arrival.
    epoch: AtomicU64,
    /// Sockets kept after timed-out work-unit attempts, still owed a
    /// (superseded) completion. Drained at round boundaries and at the
    /// fixpoint so late frames are observed and discarded, never merged.
    zombies: Vec<Zombie>,
    /// Recent replication pushes, so the anti-entropy sweep can re-offer
    /// them to a target that restarted with an empty cache.
    replication_log: Vec<ReplicationRecord>,
    /// Last-seen `connections` counter per shard; a decrease is the
    /// restart signature anti-entropy keys on.
    last_conns: Vec<Option<u64>>,
}

/// Pushes the anti-entropy sweep remembers. Bounded by
/// [`REPLICATION_LOG_CAP`]; older entries age out (their home shard can
/// always recompute and re-replicate on the next miss).
#[derive(Clone)]
struct ReplicationRecord {
    stencil: Stencil,
    objective: ObjectiveSpec,
    uov: IVec,
    cost: u128,
    targets: Vec<usize>,
}

/// Cap on [`MeshClient::replication_log`].
const REPLICATION_LOG_CAP: usize = 64;

/// A socket abandoned by a timed-out work-unit attempt, kept so the late
/// completion (fenced off server-side by a newer epoch) can be drained
/// and discarded instead of leaking.
struct Zombie {
    client: Client,
    shard: usize,
    epoch: u64,
}

/// What one work-unit dispatch thread reports back: the attempt trail
/// (shard, outcome) in order, the validated snapshot on success, and
/// any zombie sockets left behind by timed-out attempts.
struct UnitOutcome {
    attempts: Vec<(usize, Result<(), FailureClass>)>,
    snapshot: Option<Snapshot>,
    last_error: Option<ServiceError>,
    zombies: Vec<Zombie>,
}

/// What every work unit of one round shares: where and how to dial, the
/// fencing-epoch source, and the problem the answers must belong to.
struct Lease<'a> {
    endpoints: &'a [String],
    cfg: &'a MeshConfig,
    tenant: u32,
    epoch: &'a AtomicU64,
    fingerprint: u64,
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
            tenant: 0,
            epoch: AtomicU64::new(0),
            zombies: Vec::new(),
            replication_log: Vec::new(),
            last_conns: vec![None; endpoints.len()],
        })
    }

    /// Identify as `tenant` for quota accounting. Every frame the client
    /// sends from now on — routed plans, batches, work units,
    /// replication pushes and gossip polls — carries it, on pooled
    /// connections as well as new ones. Tenant 0 is the anonymous
    /// default.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = tenant;
        for conn in self.conns.iter_mut().flatten() {
            conn.set_tenant(tenant);
        }
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
    /// shard (and therefore a plan-cache slot).
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
                    self.replicate_answer(req, &resp, &order, shard);
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

    /// Plan a whole batch through the ring.
    ///
    /// Entries are grouped by home shard — the consistent-hash route of
    /// each entry's canonical fingerprint — so a batch whose entries
    /// hash to different homes is split client-side into one sub-batch
    /// frame per shard, then the per-entry outcomes are merged back
    /// into the caller's original order. When a shard's sub-batch
    /// attempt fails, its entries fall back to individual
    /// [`MeshClient::plan`] calls (failover, breakers, and backoff then
    /// apply per entry), so one sick shard cannot sink the whole batch.
    ///
    /// Fresh, full-fidelity answers are replicated to ring successors
    /// exactly as [`MeshClient::plan`] replicates them; cache hits and
    /// degraded answers are never offered.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Malformed`] for an empty batch or one larger
    /// than [`MAX_BATCH_ENTRIES`]. Per-entry failures are reported in
    /// the returned [`BatchResponse`], never by sinking the call: an
    /// entry whose attempts were all exhausted carries a typed
    /// [`ErrorCode::Overloaded`] entry error.
    pub fn plan_batch(&mut self, req: &BatchRequest) -> Result<BatchResponse, ServiceError> {
        if req.entries.is_empty() {
            return Err(ServiceError::Malformed("empty batch".into()));
        }
        if req.entries.len() > MAX_BATCH_ENTRIES as usize {
            return Err(ServiceError::Malformed(format!(
                "batch of {} entries exceeds the limit of {MAX_BATCH_ENTRIES}",
                req.entries.len()
            )));
        }
        self.stats.batches_routed += 1;

        // Group entry indices by home shard, preserving request order
        // within each group.
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, entry) in req.entries.iter().enumerate() {
            let home = self.ring.route(Self::routing_key(entry));
            groups.entry(home).or_default().push(i);
        }
        self.stats.batch_splits += groups.len() as u64 - 1;

        let mut out: Vec<Option<Result<PlanResponse, ErrorResponse>>> =
            (0..req.entries.len()).map(|_| None).collect();
        let mut shards: Vec<usize> = groups.keys().copied().collect();
        shards.sort_unstable();
        for shard in shards {
            let idxs = &groups[&shard];
            let sub = BatchRequest {
                entries: idxs.iter().map(|&i| req.entries[i].clone()).collect(),
            };
            // Don't burn the whole sub-batch on a shard we already
            // believe is down; the per-entry path probes it.
            let answered = self.breakers[shard].admits().then(|| {
                self.attempt(shard, |c| {
                    let resp = c.plan_batch(&sub)?;
                    if resp.entries.len() == idxs.len() {
                        Ok(resp)
                    } else {
                        Err(ServiceError::Malformed(format!(
                            "shard answered {} entries for a {}-entry sub-batch",
                            resp.entries.len(),
                            idxs.len()
                        )))
                    }
                })
            });
            match answered {
                Some(Ok(resp)) => {
                    for (&i, r) in idxs.iter().zip(resp.entries) {
                        if let Ok(ref plan) = r {
                            let order = self.ring.successors(Self::routing_key(&req.entries[i]));
                            self.replicate_answer(&req.entries[i], plan, &order, shard);
                        }
                        out[i] = Some(r);
                    }
                }
                _ => {
                    // Fall back entry by entry: plan() retries across
                    // ring successors, so these entries survive a dead
                    // home shard.
                    for &i in idxs {
                        self.stats.batch_fallbacks += 1;
                        out[i] = Some(match self.plan(&req.entries[i]) {
                            Ok(resp) => Ok(resp),
                            Err(ServiceError::Rejected { code, msg }) => {
                                Err(ErrorResponse { code, msg })
                            }
                            Err(e) => Err(ErrorResponse {
                                code: ErrorCode::Overloaded,
                                msg: format!("batch entry exhausted every replica: {e}"),
                            }),
                        });
                    }
                }
            }
        }
        let entries = out
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(ErrorResponse {
                        code: ErrorCode::Internal,
                        msg: "batch entry was never answered".into(),
                    })
                })
            })
            .collect();
        Ok(BatchResponse { entries })
    }

    /// Distribute one search across the mesh and certify the merged
    /// answer locally. See the module docs for the fixpoint argument;
    /// the returned `(uov, cost, certificate_hash)` is byte-identical to
    /// a direct in-process search of the same request. Work units run
    /// concurrently, one thread each, and each lease dials its own
    /// socket so a timed-out one can be kept and drained; their outcomes
    /// feed the shared breakers and the decision log after the join.
    ///
    /// # Errors
    ///
    /// [`ServiceError::FabricExhausted`] when some work unit ran out of
    /// replicas to try; [`ServiceError::Malformed`] for an invalid
    /// problem; [`ServiceError::Internal`]-coded rejections for local
    /// engine failures.
    pub fn plan_distributed(&mut self, req: &PlanRequest) -> Result<PlanResponse, ServiceError> {
        self.plan_distributed_hooked(req, &mut |_| {})
    }

    /// [`MeshClient::plan_distributed`] with a hook invoked at the start
    /// of every merge round (with the round index). The chaos tests kill
    /// and restart replicas from this hook to make "replica dies
    /// mid-distributed-search" a deterministic, seedable event instead
    /// of a race.
    ///
    /// # Errors
    ///
    /// As [`MeshClient::plan_distributed`].
    pub fn plan_distributed_hooked(
        &mut self,
        req: &PlanRequest,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<PlanResponse, ServiceError> {
        let objective = req.objective.as_objective();
        let fp = fingerprint(&req.stencil, &objective);
        let full = (1u64 << req.stencil.len().min(63)) - 1;
        self.stats.distributed += 1;

        // Local sequential prefix: cheap problems never touch the wire,
        // and expensive ones yield a frontier worth splitting.
        let prefix = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(self.cfg.local_prefix_nodes.max(1)),
            threads: 1,
            ..SearchConfig::default()
        };
        let (_, snap) = search_unit(None, &req.stencil, objective, &prefix)
            .map_err(|e| ServiceError::Malformed(format!("distributed search setup: {e}")))?;

        // Global merged state (see [`MergeState`]): absorbing the local
        // prefix snapshot seeds `known`/`covered`/`checked` exactly as a
        // unit completion would, and its frontier becomes the first
        // round's work.
        let mut merged = MergeState::seeded(&snap, full);
        let mut frontier: Vec<(u128, IVec, u64)> = snap.frontier;

        let key = Self::routing_key(req);
        let order = self.ring.successors(key);
        let mut round = 0usize;
        let mut hint: Option<u128> = None;

        while !frontier.is_empty() {
            on_round(round);
            self.stats.rounds += 1;

            // Give zombie sockets from earlier rounds a brief chance to
            // surface their superseded completions (discarded by epoch).
            self.drain_zombies(Duration::from_millis(5), true);

            if self.cfg.gossip {
                self.fold_gossip(fp, &mut hint);
            }
            // The incumbent's own cost is always a sound hint; gossip can
            // only tighten it further.
            let incumbent_cost = merged.incumbent.0;
            let bound_hint = Some(hint.map_or(incumbent_cost, |h| h.min(incumbent_cost)));

            // Deterministic split: sort the frontier by the engine's
            // queue order, then deal round-robin into unit slices.
            frontier.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let unit_count = if self.cfg.units_per_round == 0 {
                self.endpoints.len()
            } else {
                self.cfg.units_per_round
            }
            .max(1)
            .min(frontier.len());
            let mut slices: Vec<Vec<(u128, IVec, u64)>> = vec![Vec::new(); unit_count];
            for (i, entry) in frontier.drain(..).enumerate() {
                slices[i % unit_count].push(entry);
            }

            // Build one work unit per slice. Every unit carries the full
            // merged PATHSET table and the global incumbent, so its seed
            // upholds the snapshot invariants the server re-validates.
            // The snapshot is encoded here (epoch 0) only for the frame
            // size check; each dispatch attempt re-encodes it under its
            // own fresh fencing epoch, which cannot change the length
            // (the EPOCH section is fixed-width).
            let known_vec: Vec<(IVec, u64)> =
                merged.known.iter().map(|(w, m)| (w.clone(), *m)).collect();
            let mut units: Vec<(WorkUnitRequest, Snapshot)> = Vec::with_capacity(unit_count);
            for slice in &slices {
                let unit_snap = Snapshot {
                    fingerprint: fp,
                    dim: req.stencil.dim(),
                    incumbent_cost: merged.incumbent.0,
                    incumbent: merged.incumbent.2.clone(),
                    frontier: slice.clone(),
                    known: known_vec.clone(),
                    nodes_charged: 0,
                    stats: SearchStats::default(),
                    epoch: 0,
                };
                let bytes = encode_snapshot(&unit_snap).map_err(|e| ServiceError::Rejected {
                    code: ErrorCode::Internal,
                    msg: format!("work-unit encode: {e}"),
                })?;
                let unit = WorkUnitRequest {
                    stencil: req.stencil.clone(),
                    objective: req.objective.clone(),
                    deadline_ms: 0,
                    node_budget: self.cfg.unit_node_budget,
                    bound_hint,
                    snapshot: bytes,
                };
                if unit.encode().len() > MAX_PAYLOAD as usize {
                    // The merged table no longer fits a frame: finish on
                    // one shard rather than truncate state.
                    self.stats.oversize_fallbacks += 1;
                    return self.plan(req);
                }
                units.push((unit, unit_snap));
            }

            let outcomes = self.dispatch_round(&order, round, &units, fp)?;

            // Merge, in unit order so the log and the state are
            // reproducible. Masks union; the incumbent takes the minimum
            // under the engine's canonical total order — an idempotent,
            // order-insensitive fold. Coverage is credited per unit
            // against its assigned slice only (see
            // [`MergeState::absorb_unit`]).
            for (snap, (_, unit_snap)) in outcomes.iter().zip(&units) {
                merged.absorb_unit(snap, &unit_snap.frontier);
            }

            // Re-frontier: any offset whose merged mask nobody expanded
            // (the cross-unit union hazard), and any full-mask offset
            // whose candidate check never ran.
            for (w, &u) in &merged.known {
                let cov = merged.covered.get(w).copied().unwrap_or(0);
                let needs_children = u & !cov != 0;
                let needs_check = u == full && !merged.checked.contains(w);
                if needs_children || needs_check {
                    if let Ok(cost) = try_cost_of(&objective, w) {
                        frontier.push((cost, w.clone(), u));
                    }
                }
            }
            self.events.push(MeshEvent::RoundMerged {
                round,
                frontier: frontier.len(),
            });
            round += 1;
        }

        // Fixpoint reached. Give every remaining zombie socket a full
        // lease to surface its superseded completion — observed,
        // counted, discarded; the merge above never saw it, and this
        // drain proves nothing arrives after it either.
        let final_wait = self.cfg.attempt_timeout;
        self.drain_zombies(final_wait, false);

        // The merged exploration equals a direct search's, so the
        // incumbent is the optimum under the canonical order. Certify
        // locally — same path, same transcript hash.
        let as_result = SearchResult {
            uov: merged.incumbent.2.clone(),
            cost: merged.incumbent.0,
            stats: SearchStats::default(),
            degradation: None,
            checkpoint_error: None,
        };
        let cert =
            certify(&req.stencil, &objective, &as_result).map_err(|e| ServiceError::Rejected {
                code: ErrorCode::Internal,
                msg: format!("certification failed: {e}"),
            })?;
        // The answer is certified and non-degraded by construction:
        // replicate it so failover targets are warm for this problem.
        // Searches that finished inside the local prefix stay off the
        // wire entirely — a problem that cheap is cheaper to re-solve
        // than to replicate.
        if round > 0 {
            self.push_replicas(
                &req.stencil,
                &req.objective,
                &as_result.uov,
                as_result.cost,
                &order,
                None,
            );
        }
        Ok(PlanResponse {
            uov: as_result.uov,
            cost: as_result.cost,
            certificate_hash: cert.transcript_hash,
            degradation: DegradationCode::None,
            cache: CacheOutcome::Miss,
        })
    }

    /// Dispatch one round's units concurrently, each with its own
    /// redispatch loop over ring successors, and return the validated
    /// snapshots in unit order. Breaker and event bookkeeping happens
    /// after the join, on this thread, in unit order — deterministic
    /// regardless of network timing.
    fn dispatch_round(
        &mut self,
        order: &[usize],
        round: usize,
        units: &[(WorkUnitRequest, Snapshot)],
        expected_fp: u64,
    ) -> Result<Vec<Snapshot>, ServiceError> {
        // Unit j prefers successor j, so a round spreads across the ring;
        // shards behind an open breaker are demoted to last resort.
        let preferences: Vec<Vec<usize>> = (0..units.len())
            .map(|j| {
                let rotated: Vec<usize> = (0..order.len())
                    .map(|i| order[(j + i) % order.len()])
                    .collect();
                let (live, dead): (Vec<usize>, Vec<usize>) = rotated
                    .into_iter()
                    .partition(|&s| self.breakers[s].admits());
                live.into_iter().chain(dead).collect()
            })
            .collect();
        // Each unit jitters its backoff from its own generator, seeded
        // here in unit order so the schedule replays.
        let seeds: Vec<u64> = units.iter().map(|_| self.rng.next()).collect();

        let lease = Lease {
            endpoints: &self.endpoints,
            cfg: &self.cfg,
            tenant: self.tenant,
            epoch: &self.epoch,
            fingerprint: expected_fp,
        };
        let outcomes: Vec<UnitOutcome> = thread::scope(|scope| {
            let handles: Vec<_> = units
                .iter()
                .zip(&preferences)
                .zip(&seeds)
                .map(|((unit, prefs), &seed)| {
                    let lease = &lease;
                    scope.spawn(move || run_unit(lease, prefs, unit, seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| UnitOutcome {
                        attempts: Vec::new(),
                        snapshot: None,
                        last_error: Some(ServiceError::Malformed(
                            "work-unit dispatch thread panicked".into(),
                        )),
                        zombies: Vec::new(),
                    })
                })
                .collect()
        });

        // Post-join bookkeeping in unit order.
        let mut snaps = Vec::with_capacity(outcomes.len());
        for (j, outcome) in outcomes.into_iter().enumerate() {
            self.stats.units_dispatched += 1;
            self.zombies.extend(outcome.zombies);
            let mut prev: Option<usize> = None;
            for &(shard, result) in &outcome.attempts {
                match prev {
                    None => self.events.push(MeshEvent::UnitDispatched {
                        round,
                        unit: j,
                        shard,
                    }),
                    Some(from) => {
                        self.stats.redispatches += 1;
                        self.events.push(MeshEvent::UnitRedispatched {
                            round,
                            unit: j,
                            from,
                            to: shard,
                        });
                    }
                }
                match result {
                    Ok(()) => {
                        self.on_success(shard);
                        self.events.push(MeshEvent::UnitCompleted {
                            round,
                            unit: j,
                            shard,
                        });
                    }
                    Err(class) => self.on_failure(shard, class),
                }
                prev = Some(shard);
            }
            match outcome.snapshot {
                Some(s) => snaps.push(s),
                None => {
                    return Err(ServiceError::FabricExhausted {
                        attempts: self.cfg.max_unit_attempts.max(1),
                        last: Box::new(
                            outcome.last_error.unwrap_or(ServiceError::ConnectionClosed),
                        ),
                    })
                }
            }
        }
        Ok(snaps)
    }

    /// Best-effort: poll every shard's stats frame and fold a matching
    /// gossiped bound into `hint`. Shards behind an open breaker are
    /// skipped, and a failed poll is not a breaker event — a missing
    /// gossip costs visits, never correctness.
    fn fold_gossip(&mut self, fp: u64, hint: &mut Option<u128>) {
        for shard in 0..self.endpoints.len() {
            if !self.breakers[shard].admits() {
                continue;
            }
            let Some(bound) = self.poll_stats(shard).and_then(|s| s.bound) else {
                continue;
            };
            if bound.fingerprint == fp && u128::from(bound.cost) < hint.unwrap_or(u128::MAX) {
                *hint = Some(u128::from(bound.cost));
                self.stats.gossip_hints += 1;
                self.events.push(MeshEvent::GossipBound {
                    shard,
                    cost: bound.cost,
                });
            }
        }
    }

    /// Anti-entropy sweep on the stats channel: poll every shard's
    /// counters, detect restarts, and re-push every replicated entry a
    /// restarted shard should hold, flagged as a repair. The same
    /// detection rides along on gossip polls during distributed search;
    /// call this between planning bursts to repair gaps sooner.
    pub fn anti_entropy_sweep(&mut self) {
        for shard in 0..self.endpoints.len() {
            self.poll_stats(shard);
        }
    }

    /// Fetch `shard`'s stats frame (advisory: no breaker accounting) and
    /// track its monotone `connections` counter. A decrease means the
    /// process restarted with fresh counters — and an empty cache — so
    /// the shard is repaired on the spot.
    fn poll_stats(&mut self, shard: usize) -> Option<StatsResponse> {
        let stats = self.exchange(shard, Client::stats).ok()?;
        let now = stats.server.connections;
        if self.last_conns[shard]
            .replace(now)
            .is_some_and(|prev| now < prev)
        {
            self.repair_shard(shard);
        }
        Some(stats)
    }

    /// Re-offer every remembered replication this shard was a target of,
    /// flagged as an anti-entropy repair. Best-effort: the receiver
    /// re-certifies as always, and a still-down shard is repaired on the
    /// next sweep instead.
    fn repair_shard(&mut self, shard: usize) {
        let records: Vec<ReplicationRecord> = self
            .replication_log
            .iter()
            .filter(|r| r.targets.contains(&shard))
            .cloned()
            .collect();
        for r in records {
            if let Ok(true) =
                self.replicate_to(shard, &r.stencil, &r.objective, &r.uov, r.cost, true)
            {
                self.stats.anti_entropy_repairs += 1;
                self.events.push(MeshEvent::AntiEntropyRepair { shard });
            }
        }
    }

    /// Replicate a routed answer from `served_by` to the ring successors
    /// in `order`. Hits are skipped (their original miss already
    /// replicated) and degraded answers are never offered — a replica
    /// must only ever hold entries it could re-certify.
    fn replicate_answer(
        &mut self,
        req: &PlanRequest,
        resp: &PlanResponse,
        order: &[usize],
        served_by: usize,
    ) {
        if resp.cache != CacheOutcome::Hit && resp.degradation == DegradationCode::None {
            self.push_replicas(
                &req.stencil,
                &req.objective,
                &resp.uov,
                resp.cost,
                order,
                Some(served_by),
            );
        }
    }

    /// Best-effort push of a certified answer to the
    /// [`MeshConfig::replication_factor`] ring successors of the home
    /// shard, so a deterministic failover lands on a warm, certified
    /// cache entry. Every receiver re-certifies before storing. The push
    /// is recorded so anti-entropy can re-offer it after a target
    /// restarts — including targets that were down for the original push.
    fn push_replicas(
        &mut self,
        stencil: &Stencil,
        objective: &ObjectiveSpec,
        uov: &IVec,
        cost: u128,
        order: &[usize],
        served_by: Option<usize>,
    ) {
        let k = self
            .cfg
            .replication_factor
            .min(order.len().saturating_sub(1));
        if k == 0 {
            return;
        }
        let targets: Vec<usize> = order[1..=k].to_vec();
        for &shard in &targets {
            if Some(shard) == served_by {
                continue; // the serving replica already holds the entry
            }
            if let Ok(stored) = self.replicate_to(shard, stencil, objective, uov, cost, false) {
                self.stats.replicas_pushed += 1;
                self.events.push(MeshEvent::ReplicaPushed { shard, stored });
            }
        }
        self.replication_log.push(ReplicationRecord {
            stencil: stencil.clone(),
            objective: objective.clone(),
            uov: uov.clone(),
            cost,
            targets,
        });
        if self.replication_log.len() > REPLICATION_LOG_CAP {
            self.replication_log.remove(0);
        }
    }

    /// One replication push to one shard over the pooled connection.
    fn replicate_to(
        &mut self,
        shard: usize,
        stencil: &Stencil,
        objective: &ObjectiveSpec,
        uov: &IVec,
        cost: u128,
        repair: bool,
    ) -> Result<bool, ServiceError> {
        let req = ReplicateRequest {
            stencil: stencil.clone(),
            objective: objective.clone(),
            uov: uov.clone(),
            cost,
            repair,
        };
        self.exchange(shard, |c| c.replicate(&req))
            .map(|resp| resp.stored)
    }

    /// Drain sockets kept after timed-out work-unit attempts. A late
    /// `RESP_WORKUNIT` surfacing here carries a superseded fencing epoch
    /// by construction — the attempt was abandoned and the unit
    /// re-dispatched under a fresh epoch — so it is counted and
    /// discarded, never merged. With `keep_pending`, sockets that still
    /// have nothing to say survive to the next drain; otherwise they are
    /// dropped (the server-side fence and the wedge watchdog make the
    /// zombie work harmless).
    fn drain_zombies(&mut self, wait: Duration, keep_pending: bool) {
        let zombies = std::mem::take(&mut self.zombies);
        for mut z in zombies {
            match z.client.recv_pending(wait) {
                Ok(Some(frame)) if frame.kind == kind::RESP_WORKUNIT => {
                    let epoch = WorkUnitResponse::decode(&frame.payload)
                        .ok()
                        .and_then(|r| decode_snapshot(&r.snapshot).ok())
                        .map_or(z.epoch, |s| s.epoch);
                    self.stats.stale_epoch_rejections += 1;
                    self.events.push(MeshEvent::StaleCompletionDiscarded {
                        shard: z.shard,
                        epoch,
                    });
                }
                Ok(_) => {
                    // An error frame (the server's own fence fired) or a
                    // clean close: nothing stale escaped.
                }
                Err(e) if FailureClass::of(&e) == FailureClass::Timeout => {
                    if keep_pending {
                        self.zombies.push(z);
                    }
                }
                Err(_) => {
                    // Dead socket (reset, torn frame): the replica died
                    // with the zombie, nothing to discard.
                }
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
        let (timeout, tenant) = (self.cfg.attempt_timeout, self.tenant);
        let req = req.clone();
        thread::spawn(move || {
            let result = exchange(&mut conn, &endpoint, timeout, tenant, |c| c.plan(&req));
            let _ = tx.send((shard, result, conn));
        });
    }

    /// [`exchange`] over `shard`'s pooled connection, with no breaker
    /// accounting (replication pushes and gossip polls are best-effort).
    fn exchange<T>(
        &mut self,
        shard: usize,
        call: impl FnOnce(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        exchange(
            &mut self.conns[shard],
            &self.endpoints[shard],
            self.cfg.attempt_timeout,
            self.tenant,
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

/// The coordinator's merged global state across work-unit completions.
///
/// `known[w]` is the union of PATHSET masks seen for offset `w`;
/// `covered[w]` is the union of masks at which some single engine fully
/// expanded `w`; `checked` holds offsets expanded at the *full* mask (so
/// the candidate check provably ran). An offset is re-frontiered until
/// its merged mask is covered and, when full, checked.
///
/// Coverage evidence is earned, never inferred wholesale: a unit is
/// seeded with the entire merged PATHSET table, but only the offsets in
/// its *assigned slice* provably pass through its queue — "absent from
/// the final frontier" means "expanded" only for those. Crediting the
/// whole table would mark another unit's budget-cut slice entry as
/// covered and silently drop its subtree (see
/// [`MergeState::absorb_unit`]). The engine's queue invariant does hold
/// for every entry of a *fresh* run's table, which is why
/// [`MergeState::seeded`] may absorb the local prefix in full.
///
/// Both folds are **idempotent and order-insensitive**: masks merge by
/// union and the incumbent by the canonical minimum, so feeding the same
/// completion twice — or a superseded one whose state is a subset of
/// what a later completion already contributed — cannot move the
/// fixpoint. That algebra is the second line of defense behind the
/// fencing epochs, and the property test below pins it down.
struct MergeState {
    known: HashMap<IVec, u64>,
    incumbent: (u128, i128, IVec),
    covered: HashMap<IVec, u64>,
    checked: HashSet<IVec>,
    full: u64,
}

impl MergeState {
    /// Seed the merge from the coordinator's local-prefix snapshot:
    /// absorbing it contributes its PATHSET table and incumbent exactly
    /// as a unit completion would (the snapshot's own frontier is the
    /// first round's work, handled by the caller).
    fn seeded(snap: &Snapshot, full: u64) -> Self {
        let mut state = MergeState {
            known: HashMap::new(),
            incumbent: (
                snap.incumbent_cost,
                snap.incumbent.try_norm_sq().unwrap_or(i128::MAX),
                snap.incumbent.clone(),
            ),
            covered: HashMap::new(),
            checked: HashSet::new(),
            full,
        };
        state.absorb(snap);
        state
    }

    /// Fold a *fresh-run* snapshot in, trusting its whole table: every
    /// store entry of a from-scratch run passed through the engine's
    /// queue, so "absent from the final frontier" means "fully expanded
    /// at its final mask" for all of them. Only [`MergeState::seeded`]
    /// may use this; resumed units go through
    /// [`MergeState::absorb_unit`].
    fn absorb(&mut self, snap: &Snapshot) {
        self.absorb_incumbent(snap);
        let unit_frontier: HashSet<&IVec> = snap.frontier.iter().map(|(_, w, _)| w).collect();
        for (w, m) in &snap.known {
            *self.known.entry(w.clone()).or_insert(0) |= m;
            if !unit_frontier.contains(w) {
                *self.covered.entry(w.clone()).or_insert(0) |= m;
                if *m == self.full {
                    self.checked.insert(w.clone());
                }
            }
        }
    }

    /// Fold one completed work unit in. The discovered paths (`known`)
    /// and the incumbent merge unconditionally — unions and minima are
    /// always sound — but coverage is credited only for the unit's
    /// `assigned` slice: those offsets were queued, so each is either in
    /// the final frontier (budget cut it short) or was expanded at a
    /// mask ⊇ its assigned mask (a stale pop only ever yields to a
    /// grown twin in the same queue, and a superset-mask expansion
    /// subsumes the subset's children under the PATHSET union).
    /// Descendants the unit discovered earn no credit here; the
    /// re-frontier reassigns them until a unit expands them as its own
    /// slice work, which keeps every claim witnessed.
    fn absorb_unit(&mut self, snap: &Snapshot, assigned: &[(u128, IVec, u64)]) {
        self.absorb_incumbent(snap);
        for (w, m) in &snap.known {
            *self.known.entry(w.clone()).or_insert(0) |= m;
        }
        let unit_frontier: HashSet<&IVec> = snap.frontier.iter().map(|(_, w, _)| w).collect();
        for (_, w, u) in assigned {
            if !unit_frontier.contains(w) {
                *self.covered.entry(w.clone()).or_insert(0) |= u;
                if *u == self.full {
                    self.checked.insert(w.clone());
                }
            }
        }
    }

    fn absorb_incumbent(&mut self, snap: &Snapshot) {
        if improves(snap.incumbent_cost, &snap.incumbent, &self.incumbent) {
            self.incumbent = (
                snap.incumbent_cost,
                snap.incumbent.try_norm_sq().unwrap_or(i128::MAX),
                snap.incumbent.clone(),
            );
        }
    }
}

/// The engine's canonical candidate order (cost, then squared length,
/// then lexicographic) — the same total order `uov_core`'s engines use,
/// so the coordinator's incumbent merge is deterministic and agrees with
/// a direct search's tie-breaks.
fn improves(cost: u128, w: &IVec, best: &(u128, i128, IVec)) -> bool {
    use std::cmp::Ordering as O;
    match cost.cmp(&best.0) {
        O::Less => true,
        O::Greater => false,
        O::Equal => {
            let norm = w.try_norm_sq().unwrap_or(i128::MAX);
            match norm.cmp(&best.1) {
                O::Less => true,
                O::Greater => false,
                O::Equal => *w < best.2,
            }
        }
    }
}

/// Dial `endpoint` for one shard: the attempt timeout bounds every read,
/// and the tenant rides on every frame.
fn dial(endpoint: &str, timeout: Duration, tenant: u32) -> Result<Client, ServiceError> {
    let mut client = Client::connect(endpoint)?;
    client.set_timeout(Some(timeout))?;
    client.set_tenant(tenant);
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
    tenant: u32,
    call: impl FnOnce(&mut Client) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let mut client = match slot.take() {
        Some(c) => c,
        None => dial(endpoint, timeout, tenant)?,
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

/// One unit's dispatch loop, run on a scoped thread: try ring successors
/// in preference order (wrapping) until a replica returns a frame whose
/// snapshot decodes, CRC-checks, and fingerprints to the right problem.
/// Each attempt dials a fresh socket, is bounded by the lease
/// (`attempt_timeout`) and carries a **fresh fencing epoch** drawn from
/// the coordinator's monotonic counter, so once a re-dispatch lands, the
/// server rejects any earlier attempt still executing (`StaleEpoch`) and
/// it can never double-report into a merge. Units of one search share a
/// fingerprint, so two *concurrent* units colliding on one shard can
/// fence each other — that race is benign: `StaleEpoch` is retryable,
/// every retry draws a strictly higher epoch, and the round's preference
/// rotation sends first attempts to distinct shards, so progress is
/// never lost, only a retry spent. A timed-out socket is kept as a
/// zombie for the coordinator's drain instead of being dropped with a
/// frame in flight.
fn run_unit(
    lease: &Lease<'_>,
    prefs: &[usize],
    (unit, base): &(WorkUnitRequest, Snapshot),
    seed: u64,
) -> UnitOutcome {
    let mut rng = XorShift64::new(seed);
    let max_attempts = lease.cfg.max_unit_attempts.max(1);
    let mut attempts = Vec::new();
    let mut last_error: Option<ServiceError> = None;
    let mut zombies: Vec<Zombie> = Vec::new();
    for attempt in 0..max_attempts {
        let shard = prefs[attempt as usize % prefs.len()];
        let epoch = lease.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let result = (|| -> Result<Snapshot, ServiceError> {
            // Re-encode the snapshot under this attempt's lease epoch.
            // The EPOCH section is fixed-width, so the frame-size check
            // done at build time (epoch 0) stays valid.
            let mut leased = base.clone();
            leased.epoch = epoch;
            let mut req = unit.clone();
            req.snapshot = encode_snapshot(&leased).map_err(|e| ServiceError::Rejected {
                code: ErrorCode::Internal,
                msg: format!("work-unit re-encode: {e}"),
            })?;
            let mut client = dial(
                &lease.endpoints[shard],
                lease.cfg.attempt_timeout,
                lease.tenant,
            )?;
            let resp = client.workunit(&req).inspect_err(|e| {
                // The lease expired with a frame possibly still in
                // flight: keep the socket so the coordinator can drain
                // (and discard by epoch) the late completion.
                if FailureClass::of(e) == FailureClass::Timeout {
                    zombies.push(Zombie {
                        client,
                        shard,
                        epoch,
                    });
                }
            })?;
            let snap = decode_snapshot(&resp.snapshot).map_err(|e| {
                ServiceError::Malformed(format!("work-unit response snapshot: {e}"))
            })?;
            if snap.fingerprint != lease.fingerprint {
                return Err(ServiceError::Malformed(
                    "work-unit response for a different problem".into(),
                ));
            }
            if snap.epoch != epoch {
                return Err(ServiceError::Malformed(format!(
                    "work-unit response under lease epoch {} instead of {epoch}",
                    snap.epoch
                )));
            }
            Ok(snap)
        })();
        match result {
            Ok(snap) => {
                attempts.push((shard, Ok(())));
                return UnitOutcome {
                    attempts,
                    snapshot: Some(snap),
                    last_error: None,
                    zombies,
                };
            }
            Err(e) => {
                attempts.push((shard, Err(FailureClass::of(&e))));
                let hard = is_hard(&e);
                last_error = Some(e);
                if hard {
                    break;
                }
            }
        }
        if attempt + 1 < max_attempts {
            back_off(lease.cfg, &mut rng, attempt);
        }
    }
    UnitOutcome {
        attempts,
        snapshot: None,
        last_error,
        zombies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame, Frame};
    use crate::server::{serve, QuotaConfig, ServerConfig, TenantQuota};
    use std::net::TcpListener;
    use uov_core::search::{find_best_uov, Objective};
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
                        if write_frame(&mut s, kind::RESP_PLAN, 0, &resp.encode()).is_err() {
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

    /// The tenant reaches every frame the client sends: a server that
    /// sheds everything from tenant 7 refuses its routed plans, its
    /// batches and its distributed search's work units alike, while an
    /// anonymous client on the same server is served.
    #[test]
    fn the_tenant_rides_on_every_frame() {
        let shed_all = TenantQuota {
            burst: 0,
            ..TenantQuota::default()
        };
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                quotas: Some(QuotaConfig {
                    default: TenantQuota::default(),
                    tenants: [(7, shed_all)].into_iter().collect(),
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let endpoints = vec![server.endpoint().to_string()];
        let cfg = MeshConfig {
            local_prefix_nodes: 4,
            max_route_attempts: 3,
            max_unit_attempts: 2,
            ..quick_cfg()
        };
        let overloaded = |e: &ServiceError| {
            matches!(e, ServiceError::FabricExhausted { last, .. }
                if matches!(**last, ServiceError::Rejected { code: ErrorCode::Overloaded, .. }))
        };
        // Work units ship for this problem: a 4-node local prefix leaves
        // a frontier (see `distributed_search_matches_direct_search`).
        let shipped = PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 3]]).unwrap(),
            ..fig1_request()
        };
        let batch = BatchRequest {
            entries: vec![fig1_request(), shipped.clone()],
        };

        let mut tenant7 = MeshClient::new(&endpoints, cfg.clone()).unwrap();
        tenant7.set_tenant(7);
        let plan = tenant7.plan(&fig1_request());
        assert!(plan.as_ref().is_err_and(overloaded), "plan: {plan:?}");
        let answers = tenant7.plan_batch(&batch).unwrap();
        assert_eq!(answers.entries.len(), 2);
        for entry in &answers.entries {
            assert!(
                matches!(
                    entry,
                    Err(ErrorResponse {
                        code: ErrorCode::Overloaded,
                        ..
                    })
                ),
                "batch entry: {entry:?}"
            );
        }
        let distributed = tenant7.plan_distributed(&shipped);
        assert!(
            matches!(
                distributed,
                Err(ServiceError::FabricExhausted { attempts: 2, .. })
            ) && distributed.as_ref().is_err_and(overloaded),
            "distributed: {distributed:?}"
        );

        let mut anonymous = MeshClient::new(&endpoints, cfg).unwrap();
        assert_eq!(anonymous.plan(&fig1_request()).unwrap().uov, ivec![1, 1]);
        assert!(anonymous
            .plan_batch(&batch)
            .unwrap()
            .entries
            .iter()
            .all(Result::is_ok));
        assert!(anonymous.plan_distributed(&shipped).is_ok());
        server.shutdown();
        server.join();
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

    /// End-to-end distributed search against live in-process servers,
    /// multiple merge rounds forced by a tiny unit budget, byte-compared
    /// to the direct in-process answer.
    #[test]
    fn distributed_search_matches_direct_search() {
        let stencil = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 3]]).unwrap();
        let direct = find_best_uov(
            &stencil,
            Objective::ShortestVector,
            &SearchConfig::default(),
        )
        .unwrap();
        let direct_cert = certify(
            &stencil,
            &Objective::ShortestVector,
            &SearchResult {
                uov: direct.uov.clone(),
                cost: direct.cost,
                stats: SearchStats::default(),
                degradation: None,
                checkpoint_error: None,
            },
        )
        .unwrap();

        let replicas =
            crate::chaos::ReplicaSet::start(3, crate::server::ServerConfig::default()).unwrap();
        let mut mesh = MeshClient::new(
            replicas.endpoints(),
            MeshConfig {
                local_prefix_nodes: 4,
                unit_node_budget: 16,
                ..MeshConfig::default()
            },
        )
        .unwrap();
        let req = PlanRequest {
            stencil,
            objective: crate::proto::ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        };
        let resp = mesh.plan_distributed(&req).unwrap();
        assert_eq!(resp.uov, direct.uov);
        assert_eq!(resp.cost, direct.cost);
        assert_eq!(resp.certificate_hash, direct_cert.transcript_hash);
        assert!(
            mesh.stats().rounds >= 2,
            "unit budget too big to test merging"
        );
        replicas.shutdown_all();
    }

    /// One pseudo-random unit completion over a 2-D, 3-vector problem:
    /// the snapshot plus the slice the unit was notionally assigned (a
    /// subset of its table, some of it left unexpanded in the frontier).
    type UnitFixture = (Snapshot, Vec<(u128, IVec, u64)>);

    fn rand_unit(rng: &mut XorShift64, full: u64) -> UnitFixture {
        let n = 1 + (rng.next() % 4) as usize;
        let mut known = Vec::new();
        let mut frontier = Vec::new();
        let mut assigned = Vec::new();
        for _ in 0..n {
            let w = ivec![(rng.next() % 5) as i64 - 2, (rng.next() % 5) as i64 - 2];
            let m = 1 + rng.next() % full;
            if rng.next().is_multiple_of(3) {
                frontier.push((0u128, w.clone(), m));
            }
            if rng.next().is_multiple_of(2) {
                assigned.push((0u128, w.clone(), m));
            }
            known.push((w, m));
        }
        let incumbent = ivec![1 + (rng.next() % 3) as i64, (rng.next() % 3) as i64];
        let incumbent_cost = incumbent.try_norm_sq().unwrap_or(9) as u128;
        let snap = Snapshot {
            fingerprint: 42,
            dim: 2,
            incumbent_cost,
            incumbent,
            frontier,
            known,
            nodes_charged: 0,
            stats: SearchStats::default(),
            epoch: 0,
        };
        (snap, assigned)
    }

    fn assert_same_fixpoint(a: &MergeState, b: &MergeState) {
        assert_eq!(a.known, b.known, "PATHSET unions diverged");
        assert_eq!(a.covered, b.covered, "coverage evidence diverged");
        assert_eq!(a.checked, b.checked, "candidate checks diverged");
        assert_eq!(a.incumbent, b.incumbent, "incumbents diverged");
    }

    /// The fencing epochs' second line of defense: the merge fold is
    /// idempotent and order-insensitive, so a duplicate or superseded
    /// completion — even one that somehow slipped past every epoch
    /// check — leaves the merge fixpoint byte-identical, and with it the
    /// certified answer and its certificate hash.
    #[test]
    fn merge_fold_is_idempotent_under_duplicate_and_stale_completions() {
        let full = 0b111u64;
        for case in 0..50u64 {
            let mut rng = XorShift64::new(0xF3CE_D000 + case);
            let (prefix, _) = rand_unit(&mut rng, full);
            let units: Vec<UnitFixture> = (0..5).map(|_| rand_unit(&mut rng, full)).collect();

            // Once each, in order.
            let mut once = MergeState::seeded(&prefix, full);
            for (s, a) in &units {
                once.absorb_unit(s, a);
            }

            // Every completion delivered twice (a zombie double-report).
            let mut doubled = MergeState::seeded(&prefix, full);
            for (s, a) in &units {
                doubled.absorb_unit(s, a);
                doubled.absorb_unit(s, a);
            }
            assert_same_fixpoint(&once, &doubled);

            // Reversed order, then a stale re-delivery of an early
            // completion after everything else has merged.
            let mut reversed = MergeState::seeded(&prefix, full);
            for (s, a) in units.iter().rev() {
                reversed.absorb_unit(s, a);
            }
            let (s, a) = &units[rng.next() as usize % units.len()];
            reversed.absorb_unit(s, a);
            assert_same_fixpoint(&once, &reversed);
        }
    }

    /// A small problem finishes inside the local prefix and never ships
    /// a unit at all.
    #[test]
    fn tiny_problems_never_touch_the_wire() {
        let eps = endpoints(3); // nothing is listening here
        let mut mesh = MeshClient::new(&eps, MeshConfig::default()).unwrap();
        let req = PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap(),
            objective: crate::proto::ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        };
        let resp = mesh.plan_distributed(&req).unwrap();
        assert_eq!(resp.uov, ivec![1, 1]);
        assert_eq!(mesh.stats().units_dispatched, 0);
    }
}

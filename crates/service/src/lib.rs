//! `uov-service` — a dependency-free planning server for universal
//! occupancy vectors.
//!
//! The rest of the workspace computes UOVs in-process; this crate puts
//! the planner behind a socket so one warm process can answer for many
//! compiler invocations:
//!
//! * [`proto`] — a length-prefixed, CRC-checked binary protocol
//!   (`PlanRequest` → `PlanResponse`) built on the same
//!   [`uov_core::wire`] primitives as the checkpoint format, and the one
//!   frame codec every reader and writer in the crate uses.
//! * [`server`] — one blocking thread per connection on std sockets (TCP
//!   or Unix), with no platform code beyond Unix sockets: plans run on
//!   their connection's thread behind one admission rule (at most
//!   `workers` run, at most `queue_depth` wait in arrival order, the rest
//!   are shed with a typed `Overloaded`), idle/slow-loris read deadlines,
//!   per-request deadline budgets, panic isolation, and graceful drain on
//!   shutdown.
//! * [`plan_cache`] — a canonicalizing plan cache: requests are reduced
//!   modulo coordinate permutation ([`canon`]) and keyed by the
//!   workspace-standard fingerprint into a sharded LRU, with
//!   single-flight dedup so N concurrent identical requests run one
//!   search.
//! * [`client`] / [`loadgen`] — a blocking client and the deterministic
//!   closed-loop load generator behind `uov-service smoke` (completions,
//!   errors, cache hit rate, single-flight coalescing).
//! * [`mesh`] — the one routed client, [`MeshClient`], over a replica
//!   list: consistent-hash routing (each canonical problem has a home
//!   shard, with deterministic ring failover), one attempt at a time,
//!   per-attempt timeouts, seeded jittered backoff, per-shard circuit
//!   breakers, and a replayable decision log.
//! * [`chaos`] — a deterministic seeded chaos proxy (resets, stalls,
//!   latency spikes, truncation, bit-flips) and a replica kill/restart
//!   orchestrator, turning every resilience claim into a repeatable test.
//!
//! Every answer is re-certified server-side ([`uov_core::certify()`]) and
//! carries the certificate's transcript hash, so a client can prove a
//! cached response is byte-identical to a cold solve. Certification
//! checks legality and cost, not optimality, so a server's plan cache
//! holds only answers its own search produced: no frame and no file puts
//! an answer into it, and a restarted server starts cold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod canon;
pub mod chaos;
pub mod client;
pub mod error;
pub mod loadgen;
pub mod mesh;
pub mod plan_cache;
pub mod proto;
pub mod server;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, ReplicaSet};
pub use client::Client;
pub use error::{ErrorCode, ServiceError};
pub use loadgen::{coalescing_burst, run as run_loadgen, BurstReport, LoadGenConfig, LoadReport};
pub use mesh::{FailureClass, MeshClient, MeshConfig, MeshEvent, MeshStats, Ring};
pub use plan_cache::{CacheStats, PlanCache, Planned};
pub use proto::{
    CacheOutcome, DegradationCode, HealthResponse, ObjectiveSpec, PlanRequest, PlanResponse,
    StatsResponse, FLAG_NO_CACHE,
};
pub use server::{serve, ServerConfig, ServerHandle, ServerStats};

/// Former names of [`MeshClient`] and [`MeshConfig`]. They exist solely
/// because the benchmark (`perfbench/src/serve.rs`) still names them and
/// changes only together with the benchmark definition; new code uses the
/// `Mesh*` names.
pub type ResilientClient = MeshClient;
/// The former name of [`MeshConfig`] (see the alias above).
pub type ResilientConfig = MeshConfig;

//! The partition differential: the mesh must return byte-identical
//! answers — and stay available — while the home shard is partitioned
//! away mid-flight and later heals.
//!
//! Every replica sits behind a seeded [`ChaosProxy`], whose partition
//! mode *holds* frames (delayed, ordered, never dropped — TCP
//! retransmission across a cut link) until healed. One property is
//! pinned per seed: **warm failover**. A certified answer computed on the home shard is
//! replicated to its ring successor; with the home partitioned away, the
//! failover request is served from the neighbor's replica cache,
//! byte-identical, and the hit is attributed to replication
//! (`replica_hits ≥ 1` on the real servers).
//!
//! Seeds come from `UOV_CHAOS_SEED`-style env (`UOV_MESH_SEED`) when
//! set; CI loops a fixed list over this schedule.

use std::time::Duration;

use uov::core::certify::certify;
use uov::core::search::{find_best_uov, Objective, SearchConfig};
use uov::isg::{ivec, IVec, Stencil};
use uov::service::{
    CacheOutcome, ChaosConfig, ChaosProxy, Client, MeshClient, MeshConfig, ObjectiveSpec,
    PlanRequest, ReplicaSet, ServerConfig,
};

/// Parameterized so different seeds get different homes.
fn problem(seed: u64) -> Stencil {
    let k = 2 + (seed % 5) as i64;
    Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid stencil")
}

fn local_truth(stencil: &Stencil) -> (IVec, u128, u64) {
    let result = find_best_uov(stencil, Objective::ShortestVector, &SearchConfig::default())
        .expect("local search");
    let cert = certify(stencil, &Objective::ShortestVector, &result).expect("local certification");
    (result.uov.clone(), result.cost, cert.transcript_hash)
}

fn request(stencil: &Stencil) -> PlanRequest {
    PlanRequest {
        stencil: stencil.clone(),
        objective: ObjectiveSpec::ShortestVector,
        deadline_ms: 0,
        flags: 0,
    }
}

fn seeds() -> Vec<u64> {
    match std::env::var("UOV_MESH_SEED") {
        Ok(s) => vec![s.trim().parse().expect("UOV_MESH_SEED must be a u64")],
        Err(_) => vec![7, 1998],
    }
}

/// Mesh over the proxy endpoints. A 1 s attempt timeout keeps partition
/// stalls short; `failure_threshold: 1` opens a partitioned shard's
/// breaker after one lost attempt so routed retries fail over
/// immediately.
fn mesh_config(seed: u64) -> MeshConfig {
    MeshConfig {
        attempt_timeout: Duration::from_secs(1),
        failure_threshold: 1,
        seed,
        ..MeshConfig::default()
    }
}

struct Fabric {
    set: ReplicaSet,
    proxies: Vec<ChaosProxy>,
    proxy_endpoints: Vec<String>,
}

impl Fabric {
    /// Three real replicas, each behind a clean (no fault rates) seeded
    /// chaos proxy; the mesh sees only the proxy endpoints.
    fn start(seed: u64) -> Fabric {
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let set = ReplicaSet::start(3, config).expect("start replicas");
        let proxies: Vec<ChaosProxy> = set
            .endpoints()
            .iter()
            .map(|ep| {
                ChaosProxy::start(
                    ep,
                    ChaosConfig {
                        seed,
                        ..ChaosConfig::default()
                    },
                )
                .expect("start proxy")
            })
            .collect();
        let proxy_endpoints = proxies.iter().map(|p| p.endpoint().to_string()).collect();
        Fabric {
            set,
            proxies,
            proxy_endpoints,
        }
    }

    /// Sum a counter over the *real* servers (stats queried off-proxy,
    /// so a partition cannot hide them).
    fn sum_real_stats(&self, pick: impl Fn(&uov::service::StatsResponse) -> u64) -> u64 {
        self.set
            .endpoints()
            .iter()
            .map(|ep| {
                let mut c = Client::connect(ep).expect("connect real endpoint");
                pick(&c.stats().expect("stats"))
            })
            .sum()
    }
}

/// Replication warms the ring successor; a symmetric partition of the
/// home shard forces the failover request onto the neighbor, which
/// serves the byte-identical answer from its replicated cache.
fn run_warm_failover(fabric: &Fabric, seed: u64) {
    let stencil = problem(seed);
    let (uov, cost, hash) = local_truth(&stencil);
    let req = request(&stencil);
    let mut mesh = MeshClient::new(&fabric.proxy_endpoints, mesh_config(seed)).expect("mesh");
    let home = mesh.ring().route(MeshClient::routing_key(&req));

    // Cold plan: computed on the home shard, replicated to its successor.
    let cold = mesh.plan(&req).expect("cold plan");
    assert_eq!(cold.uov, uov, "seed {seed}: cold UOV diverged");
    assert_eq!(cold.cost, cost, "seed {seed}: cold cost diverged");
    assert_eq!(
        cold.certificate_hash, hash,
        "seed {seed}: cold hash diverged"
    );
    assert!(
        mesh.stats().replicas_pushed >= 1,
        "seed {seed}: nothing was replicated: {:?}",
        mesh.stats()
    );

    // Partition the home away; the failover must land on a warm,
    // certified replica hit — not a cold solve, not a degraded answer.
    fabric.proxies[home].partition_symmetric();
    let warm = mesh
        .plan(&req)
        .expect("mesh must stay available under partition");
    fabric.proxies[home].heal();
    assert_eq!(
        warm.cache,
        CacheOutcome::Hit,
        "seed {seed}: failover missed"
    );
    assert_eq!(warm.uov, uov, "seed {seed}: failover UOV diverged");
    assert_eq!(warm.cost, cost, "seed {seed}: failover cost diverged");
    assert_eq!(
        warm.certificate_hash, hash,
        "seed {seed}: failover hash diverged"
    );
    assert!(
        mesh.stats().failovers >= 1,
        "seed {seed}: the partition caused no failover: {:?}",
        mesh.stats()
    );
    assert!(
        fabric.sum_real_stats(|s| s.cache.replica_hits) >= 1,
        "seed {seed}: the failover hit was not served from a replicated entry"
    );
    assert!(
        fabric.sum_real_stats(|s| s.cache.replicated_entries) >= 1,
        "seed {seed}: no server stored a replicated entry"
    );
}

/// The acceptance test: every seed runs warm failover from a neighbor
/// replica through a partition, with byte-identity and availability
/// throughout.
#[test]
fn mesh_survives_partition_and_heal_byte_identically() {
    for seed in seeds() {
        let fabric = Fabric::start(seed);
        run_warm_failover(&fabric, seed);
        let Fabric { set, proxies, .. } = fabric;
        for p in proxies {
            p.stop();
        }
        set.shutdown_all();
    }
}

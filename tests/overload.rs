//! The overload soak: a hog tenant offering far more than its quota,
//! woven with partitions and a replica kill/restart, must be *invisible*
//! to compliant tenants.
//!
//! Three replicas run with per-tenant admission quotas: the compliant
//! tenant has a generous default quota, the hog a tight one (rate 20/s,
//! burst 10, in-flight cap 4) that it exceeds by well over 10× — the hog
//! threads hammer every replica as fast as the sockets allow for the
//! whole schedule. The contract:
//!
//! 1. **Compliant availability 1.0**: every compliant request completes —
//!    shed pressure lands on the hog (typed `Overloaded`), never on
//!    in-quota traffic.
//! 2. **Certified answers only**: every served answer — full-fidelity
//!    *or* pressure-degraded to the always-legal `Σvᵢ` — carries the
//!    certificate transcript hash of a local certification of the same
//!    `(stencil, uov)`, so answers are byte-identical across
//!    `search_threads` 1 and 8 and across every seed.
//! 3. **Faults compose**: a symmetric partition of one request's ring
//!    home and an abrupt kill + restart of another's happen
//!    mid-schedule; the routed client's failover keeps the compliant
//!    view at 1.0.
//! 4. **Zero panics**, and the hog's excess is visibly counted
//!    (`shed_over_quota`).
//!
//! Seeds come from `UOV_OVERLOAD_SEED` when set (CI loops a fixed list),
//! or a built-in pair otherwise.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use uov::core::certify::certify;
use uov::core::search::{
    find_best_uov, initial_uov, try_cost_of, Objective, SearchConfig, SearchStats,
};
use uov::core::SearchResult;
use uov::isg::{ivec, IVec, Stencil};
use uov::service::{
    ChaosConfig, ChaosProxy, Client, DegradationCode, ErrorCode, MeshClient, MeshConfig,
    ObjectiveSpec, PlanRequest, QuotaConfig, ReplicaSet, ServerConfig, ServiceError, TenantQuota,
};

const COMPLIANT: u32 = 1;
const HOG: u32 = 9;

fn seeds() -> Vec<u64> {
    match std::env::var("UOV_OVERLOAD_SEED") {
        Ok(s) => vec![s.trim().parse().expect("UOV_OVERLOAD_SEED must be a u64")],
        Err(_) => vec![7, 1998],
    }
}

/// Small, fast problems — the soak stresses admission, not the search.
fn problems() -> Vec<Stencil> {
    (1..=4i64)
        .map(|k| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid"))
        .collect()
}

fn request(stencil: &Stencil) -> PlanRequest {
    PlanRequest {
        stencil: stencil.clone(),
        objective: ObjectiveSpec::ShortestVector,
        deadline_ms: 0,
        flags: 0,
    }
}

/// Both certified truths for one problem: the full-fidelity answer and
/// the `Σvᵢ` pressure fast path. A served response must match one of
/// them byte-for-byte, selected by its degradation code.
struct Truth {
    full: (IVec, u128, u64),
    degraded: (IVec, u128, u64),
}

fn truth_of(stencil: &Stencil) -> Truth {
    let result = find_best_uov(stencil, Objective::ShortestVector, &SearchConfig::default())
        .expect("local search");
    let cert = certify(stencil, &Objective::ShortestVector, &result).expect("local certification");
    let full = (result.uov.clone(), result.cost, cert.transcript_hash);

    let uov = initial_uov(stencil);
    let cost = try_cost_of(&Objective::ShortestVector, &uov).expect("Σvᵢ cost");
    let as_result = SearchResult {
        uov: uov.clone(),
        cost,
        stats: SearchStats::default(),
        degradation: None,
        checkpoint_error: None,
    };
    let cert = certify(stencil, &Objective::ShortestVector, &as_result).expect("Σvᵢ certification");
    let degraded = (uov, cost, cert.transcript_hash);
    Truth { full, degraded }
}

/// Server config for the soak: tight hog quota, generous default, and a
/// low degrade watermark so queue pressure degrades in-budget requests
/// to the certified fast path instead of shedding them.
fn soak_config(search_threads: usize) -> ServerConfig {
    let mut tenants = HashMap::new();
    tenants.insert(
        HOG,
        TenantQuota {
            tokens_per_sec: 20,
            burst: 10,
            max_inflight: 4,
            weight: 1,
        },
    );
    ServerConfig {
        workers: 2,
        search_threads,
        queue_depth: 256,
        degrade_watermark: 2,
        quotas: Some(QuotaConfig {
            default: TenantQuota::default(),
            tenants,
        }),
        ..ServerConfig::default()
    }
}

fn client_config(seed: u64) -> MeshConfig {
    MeshConfig {
        attempt_timeout: Duration::from_millis(400),
        max_route_attempts: 40,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        seed,
        failure_threshold: 3,
        cooldown: 4,
        hedge_after: None,
        hedge_verify: false,
        ..MeshConfig::default()
    }
}

/// One hog thread: hammer `endpoint` as tenant [`HOG`] until `stop`,
/// reconnecting through kills. Counts typed `Overloaded` sheds; any
/// other failure class is tolerated (the replica may be down) but a
/// served answer must still be one of the certified truths.
fn hog_thread(
    endpoint: String,
    stencil: Stencil,
    stop: Arc<AtomicBool>,
    sheds: Arc<AtomicU64>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let mut client: Option<Client> = None;
        while !stop.load(Ordering::Relaxed) {
            let c = match &mut client {
                Some(c) => c,
                None => match Client::connect(&endpoint) {
                    Ok(mut c) => {
                        c.set_tenant(HOG);
                        let _ = c.set_timeout(Some(Duration::from_secs(2)));
                        client.insert(c)
                    }
                    Err(_) => {
                        thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                },
            };
            match c.plan(&request(&stencil)) {
                Ok(_) => {}
                Err(ServiceError::Rejected {
                    code: ErrorCode::Overloaded,
                    ..
                }) => {
                    sheds.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServiceError::Rejected { .. }) => {}
                Err(_) => client = None, // replica down — redial
            }
        }
    })
}

/// Run the full soak at one seed and thread count: hog saturation on
/// every replica, a partition and a kill/restart mid-schedule, and a
/// compliant tenant whose every answer must match a certified truth.
fn run_soak(seed: u64, search_threads: usize) {
    let mut set = ReplicaSet::start(3, soak_config(search_threads)).expect("start replicas");
    let proxies: Vec<ChaosProxy> = set
        .endpoints()
        .iter()
        .map(|ep| {
            ChaosProxy::start(
                ep,
                ChaosConfig {
                    seed,
                    reset_per_mille: 0,
                    stall_per_mille: 0,
                    truncate_per_mille: 0,
                    flip_per_mille: 0,
                    delay_per_mille: 0,
                    ..ChaosConfig::default()
                },
            )
            .expect("start proxy")
        })
        .collect();
    let endpoints: Vec<String> = proxies.iter().map(|p| p.endpoint().to_string()).collect();
    let mut client = MeshClient::new(&endpoints, client_config(seed)).expect("client");
    client.set_tenant(COMPLIANT);

    let problems = problems();
    let truths: Vec<Truth> = problems.iter().map(truth_of).collect();

    // Saturate every replica directly (not through the proxies, so a
    // partition never gives the compliant tenant a quieter server).
    let stop = Arc::new(AtomicBool::new(false));
    let sheds = Arc::new(AtomicU64::new(0));
    let hogs: Vec<_> = set
        .endpoints()
        .iter()
        .flat_map(|ep| {
            (0..2).map(|_| {
                hog_thread(
                    ep.clone(),
                    problems[0].clone(),
                    Arc::clone(&stop),
                    Arc::clone(&sheds),
                )
            })
        })
        .collect();

    // Two passes over the problems with faults woven in: a symmetric
    // partition of the proxy in front of one request's ring home, then an
    // abrupt kill + restart of another request's home. Every compliant
    // request must complete.
    let schedule: Vec<usize> = (0..problems.len()).chain(0..problems.len()).collect();
    let home_of = |step: usize| {
        let req = request(&problems[schedule[step]]);
        client.ring().route(MeshClient::routing_key(&req))
    };
    let (partitioned, killed) = (home_of(2), home_of(5));
    let mut compliant_ok = 0u64;
    for (step, &p) in schedule.iter().enumerate() {
        match step {
            2 => proxies[partitioned].partition_symmetric(),
            4 => proxies[partitioned].heal(),
            5 => {
                set.kill(killed);
            }
            7 => set.restart(killed).expect("restart the killed home"),
            _ => {}
        }
        let resp = client.plan(&request(&problems[p])).unwrap_or_else(|e| {
            panic!("seed {seed}, threads {search_threads}, step {step}: compliant request failed — availability < 1.0: {e}")
        });
        compliant_ok += 1;
        let truth = &truths[p];
        let (uov, cost, hash) = match resp.degradation {
            DegradationCode::None => &truth.full,
            DegradationCode::Pressure => &truth.degraded,
            other => panic!(
                "seed {seed}, step {step}: unexpected degradation {other:?} with no deadline set"
            ),
        };
        assert_eq!(&resp.uov, uov, "seed {seed}, step {step}: UOV diverged");
        assert_eq!(&resp.cost, cost, "seed {seed}, step {step}: cost diverged");
        assert_eq!(
            &resp.certificate_hash, hash,
            "seed {seed}, step {step}: certificate hash diverged"
        );
    }
    assert_eq!(
        compliant_ok,
        schedule.len() as u64,
        "compliant availability must be 1.0"
    );

    stop.store(true, Ordering::Relaxed);
    for h in hogs {
        h.join().expect("hog thread");
    }
    assert!(
        sheds.load(Ordering::Relaxed) > 0,
        "seed {seed}: the hog was never shed — it did not exceed its quota"
    );

    let mut shed_over_quota = 0u64;
    for stats in set.shutdown_all().into_iter().flatten() {
        assert_eq!(stats.panics, 0, "seed {seed}: a worker panicked");
        shed_over_quota += stats.shed_over_quota;
    }
    assert!(
        shed_over_quota > 0,
        "seed {seed}: no replica counted a quota shed"
    );
    for proxy in proxies {
        proxy.stop();
    }
}

/// The acceptance soak: full compliant availability and certified
/// byte-identical answers under hog + partition + kill/restart, at every
/// seed, at search-thread counts 1 and 8.
#[test]
fn hog_partitions_and_restarts_leave_compliant_tenants_whole() {
    for seed in seeds() {
        for threads in [1usize, 8] {
            run_soak(seed, threads);
        }
    }
}

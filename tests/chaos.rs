//! The chaos differential: the routed client under seeded faults must be
//! *invisible* in the answers.
//!
//! A [`MeshClient`] runs a fixed request schedule against three
//! replicas, each behind a [`ChaosProxy`] injecting connection resets,
//! half-open stalls, latency spikes, frame truncation, and payload
//! bit-flips — while the next request's ring home is killed and
//! restarted mid-schedule. The contract:
//!
//! 1. **Completion**: every request completes despite the faults.
//! 2. **Byte-identity**: each `(uov, cost, transcript hash)` triple is
//!    identical to a direct in-process `find_best_uov` + `certify` run —
//!    the client may retry, fail over, and reconnect, but it may never
//!    change an answer.
//! 3. **Determinism**: the client's decision log (routes, attempts,
//!    failures, backoffs, breaker transitions, failovers) replays
//!    identically for a seed over the same proxy endpoints.
//! 4. **Cold restarts**: a replica's plan cache holds only its own
//!    searches, so a restarted replica answers a problem it had cached
//!    with a fresh search.
//!
//! Seeds come from `UOV_CHAOS_SEED` when set (CI loops a fixed list), or
//! a built-in pair otherwise. Fault rates are chosen so outcome classes
//! are timing-robust: stalls are far longer than the attempt timeout,
//! delays far shorter.

use std::time::Duration;

use uov::core::certify::certify;
use uov::core::search::{find_best_uov, Objective, SearchConfig};
use uov::isg::{ivec, IVec, Stencil};
use uov::service::{
    CacheOutcome, ChaosConfig, ChaosProxy, Client, MeshClient, MeshConfig, MeshEvent,
    ObjectiveSpec, PlanRequest, ReplicaSet, ServerConfig,
};

/// The request schedule's problems: small enough that every search
/// finishes in milliseconds, distinct enough to exercise the cache.
fn problems() -> Vec<Stencil> {
    (1..=6i64)
        .map(|k| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid"))
        .collect()
}

/// What a direct, in-process solve of `stencil` yields: the ground truth
/// every routed answer must match byte-for-byte.
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

/// Seeds under test: `UOV_CHAOS_SEED` pins one (the CI smoke loops a
/// fixed list through it), otherwise a built-in pair.
fn seeds() -> Vec<u64> {
    match std::env::var("UOV_CHAOS_SEED") {
        Ok(s) => vec![s.trim().parse().expect("UOV_CHAOS_SEED must be a u64")],
        Err(_) => vec![7, 1998],
    }
}

fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        reset_per_mille: 50,
        stall_per_mille: 15,
        truncate_per_mille: 40,
        flip_per_mille: 50,
        delay_per_mille: 60,
        // Stall ≫ attempt timeout, delay ≪ attempt timeout: outcome
        // classes stay deterministic on any plausible machine.
        stall_ms: 2_500,
        delay_ms: 3,
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
        ..MeshConfig::default()
    }
}

/// The ring home of `stencil`'s request: the replica a routed plan of it
/// tries first.
fn home_of(client: &MeshClient, stencil: &Stencil) -> usize {
    client
        .ring()
        .route(MeshClient::routing_key(&request(stencil)))
}

/// Run the full kill/restart schedule under chaos at one seed; assert
/// completion and byte-identity; return the client's
/// decision log and the proxy endpoints. The proxies listen on `listen`
/// when given (a replay must reuse the endpoint names the ring hashes),
/// on fresh ports otherwise.
fn run_chaos_schedule(seed: u64, listen: Option<&[String]>) -> (Vec<MeshEvent>, Vec<String>) {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let mut set = ReplicaSet::start(3, config).expect("start replicas");
    let proxies: Vec<ChaosProxy> = set
        .endpoints()
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let at = listen.map_or("127.0.0.1:0", |l| l[i].as_str());
            ChaosProxy::start_on(at, ep, chaos_config(seed)).expect("start proxy")
        })
        .collect();
    let endpoints: Vec<String> = proxies.iter().map(|p| p.endpoint().to_string()).collect();
    let mut client = MeshClient::new(&endpoints, client_config(seed)).expect("client");

    let problems = problems();
    let truths: Vec<_> = problems.iter().map(local_truth).collect();

    // Two passes over the problem set (the second exercises server-side
    // caches), with two kill/restart cycles woven between requests: each
    // kills the ring home of the request about to be sent.
    let schedule: Vec<usize> = (0..problems.len()).chain(0..problems.len()).collect();
    let mut victim = 0;
    for (step, &p) in schedule.iter().enumerate() {
        match step {
            4 | 8 => {
                victim = home_of(&client, &problems[p]);
                set.kill(victim).expect("the home replica was up");
            }
            6 | 10 => set.restart(victim).expect("restart the home replica"),
            _ => {}
        }
        let resp = client
            .plan(&request(&problems[p]))
            .unwrap_or_else(|e| panic!("step {step} (problem {p}) failed under chaos: {e}"));
        let (uov, cost, hash) = &truths[p];
        assert_eq!(&resp.uov, uov, "step {step}: UOV diverged");
        assert_eq!(&resp.cost, cost, "step {step}: cost diverged");
        assert_eq!(
            &resp.certificate_hash, hash,
            "step {step}: certificate hash diverged"
        );
    }

    for stats in set.shutdown_all().into_iter().flatten() {
        assert_eq!(stats.panics, 0, "a replica worker panicked under chaos");
    }
    for proxy in proxies {
        proxy.stop();
    }
    (client.take_events(), endpoints)
}

/// The acceptance differential: full completion and byte-identity under
/// chaos, at every seed.
#[test]
fn chaos_differential_is_byte_identical_to_local_search() {
    for seed in seeds() {
        let (events, _) = run_chaos_schedule(seed, None);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, MeshEvent::Failure { .. })),
            "seed {seed}: chaos injected no faults — rates too low to test anything"
        );
    }
}

/// Replaying the same seed yields the same decision log, event for
/// event: retries, backoff intervals, breaker transitions, failover
/// order. Timing noise must not leak into decisions. The replay's
/// proxies listen on the first run's endpoints, so both runs route on
/// the same ring.
#[test]
fn chaos_decision_log_replays_identically_for_a_seed() {
    let seed = seeds()[0];
    let (first, endpoints) = run_chaos_schedule(seed, None);
    let (second, _) = run_chaos_schedule(seed, Some(&endpoints));
    assert_eq!(
        first, second,
        "seed {seed}: two runs of the same seed diverged"
    );
}

/// Consistent-hash routing under a home-shard kill: every problem's
/// request is routed to its ring home, and when that home is killed
/// mid-schedule the mesh fails over to the next live ring successor —
/// without the answer changing a byte.
#[test]
fn mesh_routing_survives_a_home_shard_kill() {
    let mut set = ReplicaSet::start(3, ServerConfig::default()).expect("start replicas");
    let endpoints: Vec<String> = set.endpoints().to_vec();
    let mut mesh = MeshClient::new(
        &endpoints,
        MeshConfig {
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..MeshConfig::default()
        },
    )
    .expect("mesh");

    let problems = problems();
    let truths: Vec<_> = problems.iter().map(local_truth).collect();

    // Pass 1: all shards up. Record each problem's home.
    let homes: Vec<usize> = problems
        .iter()
        .map(|s| mesh.ring().route(MeshClient::routing_key(&request(s))))
        .collect();
    for (i, stencil) in problems.iter().enumerate() {
        let resp = mesh.plan(&request(stencil)).expect("routed plan");
        let (uov, cost, hash) = &truths[i];
        assert_eq!(&resp.uov, uov);
        assert_eq!(&resp.cost, cost);
        assert_eq!(&resp.certificate_hash, hash);
    }
    assert_eq!(
        mesh.stats().failovers,
        0,
        "with every shard up, no request may leave its home"
    );

    // Kill the first problem's home; its requests must fail over, and
    // problems homed elsewhere must keep their home shard.
    let victim = homes[0];
    set.kill(victim).expect("home shard was up");
    for (i, stencil) in problems.iter().enumerate() {
        let resp = mesh
            .plan(&request(stencil))
            .unwrap_or_else(|e| panic!("problem {i} failed after home-shard kill: {e}"));
        let (uov, cost, hash) = &truths[i];
        assert_eq!(&resp.uov, uov, "problem {i}: UOV diverged after failover");
        assert_eq!(
            &resp.cost, cost,
            "problem {i}: cost diverged after failover"
        );
        assert_eq!(
            &resp.certificate_hash, hash,
            "problem {i}: certificate hash diverged after failover"
        );
    }
    assert!(
        mesh.take_events()
            .iter()
            .any(|e| matches!(e, MeshEvent::Failover { home, .. } if *home == victim)),
        "killing a home shard must surface as a failover event"
    );
    set.shutdown_all();
}

/// A killed replica's plan cache goes with it: nothing is persisted or
/// handed back at restart, so the restarted replica answers a problem it
/// had cached with a fresh search — the same certified answer.
#[test]
fn abrupt_kill_does_not_persist_the_cache() {
    let mut set = ReplicaSet::start(1, ServerConfig::default()).expect("start replica");
    let endpoint = set.endpoints()[0].clone();
    let stencil = problems().remove(0);

    let mut client = Client::connect(&endpoint).expect("connect");
    let cold = client.plan(&request(&stencil)).expect("plan");
    let hit = client.plan(&request(&stencil)).expect("replay");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    set.kill(0).expect("replica was up");
    set.restart(0).expect("restart");
    let mut client = Client::connect(&endpoint).expect("reconnect");
    let resp = client.plan(&request(&stencil)).expect("cold plan");
    assert_eq!(
        resp.cache,
        CacheOutcome::Miss,
        "a restarted replica starts cold"
    );
    assert_eq!(
        (resp.uov, resp.cost, resp.certificate_hash),
        (cold.uov, cold.cost, cold.certificate_hash)
    );
    set.shutdown_all();
}

/// A chaos stall crossed with the server's idle deadline: the proxy
/// holds every frame silent far past the server's read horizon, so each
/// stalled connection must be reaped by the idle deadline (and counted
/// as an idle timeout) while the client sees only typed errors — and
/// direct traffic to the same server keeps flowing, byte-identical to a
/// local solve, with zero panics.
#[test]
fn stalled_connections_meet_the_idle_deadline_as_typed_errors() {
    let server = uov::service::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            // ~0.5 s idle horizon, far below the proxy's stall.
            idle_ticks: 5,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let proxy = ChaosProxy::start(
        server.endpoint(),
        ChaosConfig {
            seed: 1998,
            reset_per_mille: 0,
            stall_per_mille: 1000, // every frame stalls
            truncate_per_mille: 0,
            flip_per_mille: 0,
            delay_per_mille: 0,
            stall_ms: 3_000,
            delay_ms: 0,
        },
    )
    .expect("start proxy");

    let stencil = problems()[0].clone();
    for attempt in 0..2 {
        let mut client = Client::connect(proxy.endpoint()).expect("connect through proxy");
        client
            // Longer than the server's idle horizon: the server reaps
            // the silent connection while we are still waiting.
            .set_timeout(Some(Duration::from_millis(1_500)))
            .expect("set timeout");
        let out = client.plan(&request(&stencil));
        assert!(
            out.is_err(),
            "attempt {attempt}: a fully stalled proxy cannot deliver a plan: {out:?}"
        );
    }
    assert!(proxy.stats().stalls >= 1, "the proxy must have stalled");

    // The stalled (silent) server-side connections are cut by the idle
    // deadline and counted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().idle_timeouts == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        server.stats().idle_timeouts >= 1,
        "stalled connections must be counted as idle timeouts: {:?}",
        server.stats()
    );

    // Direct traffic is unaffected: same answer as a local solve.
    let (uov, cost, hash) = local_truth(&stencil);
    let mut direct = Client::connect(server.endpoint()).expect("direct connect");
    let resp = direct
        .plan(&request(&stencil))
        .expect("direct traffic keeps flowing during the attack");
    assert_eq!(resp.uov, uov);
    assert_eq!(resp.cost, cost);
    assert_eq!(resp.certificate_hash, hash);

    proxy.stop();
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 0, "a worker panicked under stalled load");
}

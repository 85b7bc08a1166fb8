//! The routed client under faults, end to end: three replicas behind
//! seeded chaos proxies, a [`MeshClient`] planning through the faults,
//! the request's home replica killed and restarted mid-run — every
//! answer byte-identical to a direct in-process solve.
//!
//! Run with: `cargo run --release --example resilient_fabric`

use std::time::Duration;

use uov::core::certify::certify;
use uov::core::search::{find_best_uov, Objective, SearchConfig};
use uov::isg::{ivec, Stencil};
use uov::service::{
    ChaosConfig, ChaosProxy, MeshClient, MeshConfig, MeshEvent, ObjectiveSpec, PlanRequest,
    ReplicaSet, ServerConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three replicas on ephemeral ports; each keeps its address across
    // restarts so the client's replica list never goes stale.
    let mut set = ReplicaSet::start(3, ServerConfig::default())?;
    println!("replicas: {}", set.endpoints().join(", "));

    // A chaos proxy in front of each replica: seeded fault injection —
    // resets, bit-flips, truncation, latency — deterministic per seed.
    let chaos = ChaosConfig {
        seed: 7,
        reset_per_mille: 50,
        flip_per_mille: 50,
        truncate_per_mille: 40,
        delay_per_mille: 60,
        delay_ms: 3,
        ..ChaosConfig::default()
    };
    let proxies: Vec<ChaosProxy> = set
        .endpoints()
        .iter()
        .map(|ep| ChaosProxy::start(ep, chaos))
        .collect::<Result<_, _>>()?;
    let endpoints: Vec<String> = proxies.iter().map(|p| p.endpoint().to_string()).collect();

    // The client: consistent-hash routing over the replicas, per-attempt
    // timeouts, deterministic backoff, per-replica circuit breakers.
    let mut client = MeshClient::new(
        &endpoints,
        MeshConfig {
            attempt_timeout: Duration::from_millis(500),
            seed: 7,
            ..MeshConfig::default()
        },
    )?;

    let stencil = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
    let request = PlanRequest {
        stencil: stencil.clone(),
        objective: ObjectiveSpec::ShortestVector,
        deadline_ms: 0,
        flags: 0,
    };

    // Ground truth from a direct in-process solve: the client may retry
    // and fail over, but it may never change this triple.
    let local = find_best_uov(
        &stencil,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )?;
    let cert = certify(&stencil, &Objective::ShortestVector, &local)?;
    println!(
        "local   : uov {}  cost {}  certificate {:#018x}",
        local.uov, local.cost, cert.transcript_hash
    );

    // The request's home: the replica its routed plan tries first.
    let home = client.ring().route(MeshClient::routing_key(&request));
    for round in 0..6 {
        if round == 2 {
            set.kill(home);
            println!("-- killed home replica {home} (no warm-cache save: crash semantics)");
        }
        if round == 4 {
            set.restart(home)?;
            println!("-- restarted replica {home} on its original port");
        }
        let resp = client.plan(&request)?;
        assert_eq!(resp.uov, local.uov);
        assert_eq!(resp.cost, local.cost);
        assert_eq!(resp.certificate_hash, cert.transcript_hash);
        println!(
            "round {round}: uov {}  cache {:?}  certificate {:#018x}",
            resp.uov, resp.cache, resp.certificate_hash
        );
    }

    // The decision log records every retry, failover, backoff and
    // breaker transition — replayable from the seed.
    let events = client.take_events();
    let failures = events
        .iter()
        .filter(|e| matches!(e, MeshEvent::Failure { .. }))
        .count();
    println!(
        "client : {} events, {failures} absorbed failures, answers byte-identical throughout",
        events.len()
    );

    let faults: u64 = proxies
        .into_iter()
        .map(|p| {
            let s = p.stop();
            s.resets + s.bit_flips + s.truncations + s.delays
        })
        .sum();
    println!("chaos  : {faults} faults injected");
    set.shutdown_all();
    Ok(())
}

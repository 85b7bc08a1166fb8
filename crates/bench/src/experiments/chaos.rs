//! Chaos benchmark: the routed client under escalating seeded fault
//! rates.
//!
//! Not a paper figure — this measures the client's failure handling.
//! Three replicas sit behind fault-injecting proxies; a [`MeshClient`]
//! runs a fixed request schedule at each fault tier
//! and the table reports what the faults cost (attempts, failovers,
//! breaker trips, wall time) and what they did **not** cost:
//! correctness. Every answer at every tier is checked byte-identical to
//! a direct in-process solve, and the `verified` column records it.

use std::time::{Duration, Instant};

use uov_core::certify::certify;
use uov_core::search::{find_best_uov, Objective, SearchConfig};
use uov_isg::{ivec, Stencil};
use uov_service::{
    ChaosConfig, ChaosProxy, MeshClient, MeshConfig, MeshEvent, ObjectiveSpec, PlanRequest,
    ReplicaSet, ServerConfig,
};

use crate::report::Table;
use crate::Scale;

fn problems() -> Vec<Stencil> {
    (1..=6i64)
        .map(|k| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid stencil"))
        .collect()
}

/// All chaos tables.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![fault_escalation(scale), kill_restart_availability(scale)]
}

/// One row per fault tier: what the chaos injected, what the client
/// spent absorbing it, and whether every answer stayed byte-identical.
fn fault_escalation(scale: Scale) -> Table {
    let mut t = Table::new(
        "chaos — routed client under escalating fault rates (seed 7)",
        vec![
            "tier".into(),
            "fault ‰/frame".into(),
            "requests".into(),
            "completed".into(),
            "attempts".into(),
            "failures".into(),
            "breaker trips".into(),
            "resets+flips+cuts".into(),
            "elapsed (ms)".into(),
            "verified".into(),
        ],
    );
    let passes = match scale {
        Scale::Quick => 2,
        Scale::Full => 8,
    };
    let problems = problems();
    let truths: Vec<_> = problems
        .iter()
        .map(|s| {
            let r = find_best_uov(s, Objective::ShortestVector, &SearchConfig::default())
                .expect("local search");
            let cert = certify(s, &Objective::ShortestVector, &r).expect("local certification");
            (r.uov.clone(), r.cost, cert.transcript_hash)
        })
        .collect();

    for (tier, per_mille) in [
        ("clean", 0u32),
        ("light", 30),
        ("moderate", 80),
        ("heavy", 150),
    ] {
        let set = match ReplicaSet::start(3, ServerConfig::default()) {
            Ok(s) => s,
            Err(e) => {
                t.push(vec![tier.into(), e.to_string()]);
                continue;
            }
        };
        let chaos = ChaosConfig {
            seed: 7,
            reset_per_mille: per_mille / 3,
            truncate_per_mille: per_mille / 3,
            flip_per_mille: per_mille - 2 * (per_mille / 3),
            delay_per_mille: 60,
            delay_ms: 2,
            ..ChaosConfig::default()
        };
        let proxies: Vec<ChaosProxy> = set
            .endpoints()
            .iter()
            .filter_map(|ep| ChaosProxy::start(ep, chaos).ok())
            .collect();
        let endpoints: Vec<String> = proxies.iter().map(|p| p.endpoint().to_string()).collect();
        let mut client = match MeshClient::new(&endpoints, client_config()) {
            Ok(f) => f,
            Err(e) => {
                t.push(vec![tier.into(), e.to_string()]);
                continue;
            }
        };

        let started = Instant::now();
        let mut completed = 0u64;
        let mut verified = true;
        let total = passes * problems.len();
        for step in 0..total {
            let p = step % problems.len();
            match client.plan(&plan_request(&problems[p])) {
                Ok(resp) => {
                    completed += 1;
                    let (uov, cost, hash) = &truths[p];
                    verified &=
                        &resp.uov == uov && &resp.cost == cost && &resp.certificate_hash == hash;
                }
                Err(_) => verified = false,
            }
        }
        let elapsed = started.elapsed();
        let events = client.take_events();
        let attempts = events
            .iter()
            .filter(|e| matches!(e, MeshEvent::Attempt { .. }))
            .count();
        let failures = events
            .iter()
            .filter(|e| matches!(e, MeshEvent::Failure { .. }))
            .count();
        let trips = events
            .iter()
            .filter(|e| matches!(e, MeshEvent::BreakerOpened { .. }))
            .count();
        let injected: u64 = proxies
            .into_iter()
            .map(|p| {
                let s = p.stop();
                s.resets + s.bit_flips + s.truncations
            })
            .sum();
        set.shutdown_all();

        t.push(vec![
            tier.into(),
            per_mille.to_string(),
            total.to_string(),
            completed.to_string(),
            attempts.to_string(),
            failures.to_string(),
            trips.to_string(),
            injected.to_string(),
            elapsed.as_millis().to_string(),
            if verified && completed == total as u64 {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t
}

/// Availability through kill/restart cycles: no proxies, just replicas
/// dying and coming back while the schedule runs.
fn kill_restart_availability(scale: Scale) -> Table {
    let mut t = Table::new(
        "chaos — availability through replica kill/restart cycles",
        vec![
            "kill cycles".into(),
            "requests".into(),
            "completed".into(),
            "attempts".into(),
            "breaker trips".into(),
            "verified".into(),
        ],
    );
    let cycles = match scale {
        Scale::Quick => 2usize,
        Scale::Full => 6,
    };
    let mut set = match ReplicaSet::start(3, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            t.push(vec![e.to_string()]);
            return t;
        }
    };
    let endpoints: Vec<String> = set.endpoints().to_vec();
    let mut client = match MeshClient::new(&endpoints, client_config()) {
        Ok(f) => f,
        Err(e) => {
            t.push(vec![e.to_string()]);
            return t;
        }
    };
    let problems = problems();
    let truths: Vec<_> = problems
        .iter()
        .map(|s| {
            let r = find_best_uov(s, Objective::ShortestVector, &SearchConfig::default())
                .expect("local search");
            let cert = certify(s, &Objective::ShortestVector, &r).expect("local certification");
            (r.uov.clone(), r.cost, cert.transcript_hash)
        })
        .collect();

    let mut completed = 0u64;
    let mut verified = true;
    let mut total = 0usize;
    for cycle in 0..cycles {
        let victim = cycle % 3;
        set.kill(victim);
        for (p, stencil) in problems.iter().enumerate() {
            total += 1;
            match client.plan(&plan_request(stencil)) {
                Ok(resp) => {
                    completed += 1;
                    let (uov, cost, hash) = &truths[p];
                    verified &=
                        &resp.uov == uov && &resp.cost == cost && &resp.certificate_hash == hash;
                }
                Err(_) => verified = false,
            }
        }
        if set.restart(victim).is_err() {
            verified = false;
        }
    }
    let events = client.take_events();
    let attempts = events
        .iter()
        .filter(|e| matches!(e, MeshEvent::Attempt { .. }))
        .count();
    let trips = events
        .iter()
        .filter(|e| matches!(e, MeshEvent::BreakerOpened { .. }))
        .count();
    set.shutdown_all();

    t.push(vec![
        cycles.to_string(),
        total.to_string(),
        completed.to_string(),
        attempts.to_string(),
        trips.to_string(),
        if verified && completed == total as u64 {
            "yes".into()
        } else {
            "NO".into()
        },
    ]);
    t
}

fn client_config() -> MeshConfig {
    MeshConfig {
        attempt_timeout: Duration::from_millis(500),
        max_route_attempts: 40,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        seed: 7,
        ..MeshConfig::default()
    }
}

fn plan_request(stencil: &Stencil) -> PlanRequest {
    PlanRequest {
        stencil: stencil.clone(),
        objective: ObjectiveSpec::ShortestVector,
        deadline_ms: 0,
        flags: 0,
    }
}

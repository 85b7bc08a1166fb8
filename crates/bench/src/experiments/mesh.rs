//! Mesh benchmark: the fault-tolerant planning mesh under a
//! kill/restart schedule, plus the machine-readable `BENCH_pr6.json`
//! artifact CI archives.
//!
//! Three measurements, one JSON file:
//!
//! * **search** — raw branch-and-bound throughput (nodes visited per
//!   second) of a direct in-process solve, the baseline everything else
//!   is overhead on top of;
//! * **service** — closed-loop p50/p99 latency through the framed
//!   protocol, cold (every request searches) and warm (cache hits), so
//!   the cache-hit floor is visible next to the solve ceiling;
//! * **mesh availability** — a routed request schedule across three
//!   shards while shards are killed and restarted mid-schedule: the
//!   fraction of requests answered (with certificate-identical answers)
//!   despite the faults.
//!
//! The JSON is hand-rolled with a fixed key order — no serialization
//! dependency, and byte-stable structure across runs (values are
//! measurements; keys and shape never move), so downstream diffing
//! tools can parse it with a five-line script.

use std::time::{Duration, Instant};

use uov_core::certify::certify;
use uov_core::search::{find_best_uov, Objective, SearchConfig};
use uov_isg::{ivec, Stencil};
use uov_service::{
    loadgen, serve, CacheOutcome, ChaosConfig, ChaosProxy, LoadGenConfig, MeshClient, MeshConfig,
    ObjectiveSpec, PlanRequest, ReplicaSet, ServerConfig,
};

use super::perf;
use crate::report::Table;
use crate::Scale;

/// All mesh tables, with the `BENCH_pr6.json` and `BENCH_pr8.json`
/// side effects.
pub fn all(scale: Scale) -> Vec<Table> {
    let search = search_throughput(scale);
    let service = service_latency(scale);
    let mesh = mesh_availability(scale);

    let mut t = Table::new("mesh — BENCH_pr6.json", vec!["path".into(), "ok".into()]);
    match scale {
        // Quick runs (the test suite, smoke passes) must never clobber the
        // committed artifact with reduced-scale figures — the bench-check
        // gate compares committed BENCH_pr*.json files across PRs.
        Scale::Quick => t.push(vec!["(skipped at quick scale)".into(), "true".into()]),
        Scale::Full => {
            let json = render_json(&search, &service, &mesh);
            let path = bench_json_path("BENCH_pr6.json");
            match std::fs::write(&path, &json) {
                Ok(()) => t.push(vec![path.display().to_string(), "true".into()]),
                Err(e) => t.push(vec![path.display().to_string(), format!("error: {e}")]),
            }
        }
    }

    let mut out = vec![search.table, service.table, mesh.table, t];
    out.extend(partition(scale));
    out
}

/// The partition experiment on its own: availability and warm-failover
/// hit rate with replicas behind partitioning chaos proxies, plus the
/// `BENCH_pr8.json` side effect at full scale.
pub fn partition(scale: Scale) -> Vec<Table> {
    let figures = partition_availability(scale);
    let mut t = Table::new("mesh — BENCH_pr8.json", vec!["path".into(), "ok".into()]);
    match scale {
        // Same rule as BENCH_pr6.json: quick figures never clobber the
        // committed full-scale artifact.
        Scale::Quick => t.push(vec!["(skipped at quick scale)".into(), "true".into()]),
        Scale::Full => {
            let json = render_pr8_json(&figures);
            let path = bench_json_path("BENCH_pr8.json");
            match std::fs::write(&path, &json) {
                Ok(()) => t.push(vec![path.display().to_string(), "true".into()]),
                Err(e) => t.push(vec![path.display().to_string(), format!("error: {e}")]),
            }
        }
    }
    vec![figures.table, t]
}

/// `BENCH_pr*.json` artifacts live at the repository root, next to
/// EXPERIMENTS.md.
fn bench_json_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

pub(crate) struct SearchFigures {
    pub(crate) nodes: u64,
    pub(crate) elapsed_ms: f64,
    pub(crate) nodes_per_sec: f64,
    pub(crate) table: Table,
}

/// Direct in-process branch-and-bound throughput on a fixed problem
/// family: the baseline solve rate in nodes (queue pops) per second.
/// Shared with the `perf` experiment so `BENCH_pr7.json` measures the
/// identical workload as the `BENCH_pr6.json` baseline.
pub(crate) fn search_throughput(scale: Scale) -> SearchFigures {
    let mut t = Table::new(
        "mesh — direct search throughput",
        vec![
            "problem".into(),
            "nodes".into(),
            "elapsed (ms)".into(),
            "nodes/s".into(),
        ],
    );
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Full => 20,
    };
    // A moderately hard shortest-vector family; identical every run.
    let problems: Vec<Stencil> = (3..=6i64)
        .map(|k| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid"))
        .collect();
    let mut nodes = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        for stencil in &problems {
            let result =
                find_best_uov(stencil, Objective::ShortestVector, &SearchConfig::default())
                    .expect("direct search");
            nodes += result.stats.visited;
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let nodes_per_sec = if elapsed_ms > 0.0 {
        nodes as f64 / (elapsed_ms / 1e3)
    } else {
        0.0
    };
    t.push(vec![
        format!("(1,0)(0,1)(1,k) k=3..6 ×{reps}"),
        nodes.to_string(),
        format!("{elapsed_ms:.2}"),
        format!("{nodes_per_sec:.0}"),
    ]);
    SearchFigures {
        nodes,
        elapsed_ms,
        nodes_per_sec,
        table: t,
    }
}

pub(crate) struct ServiceFigures {
    pub(crate) cold_p50_us: u64,
    pub(crate) cold_p99_us: u64,
    pub(crate) warm_p50_us: u64,
    pub(crate) warm_p99_us: u64,
    pub(crate) warm_hit_rate: f64,
    pub(crate) table: Table,
}

/// Closed-loop latency through one server: the cold pass measures the
/// solve path, the warm pass the cache-hit path (its p50 is the
/// cache-hit latency figure in the JSON).
pub(crate) fn service_latency(scale: Scale) -> ServiceFigures {
    let mut t = Table::new(
        "mesh — service latency (cold solve vs cache hit)",
        vec![
            "phase".into(),
            "completed".into(),
            "errors".into(),
            "p50 (µs)".into(),
            "p99 (µs)".into(),
            "hit rate".into(),
        ],
    );
    let mut figures = ServiceFigures {
        cold_p50_us: 0,
        cold_p99_us: 0,
        warm_p50_us: 0,
        warm_p99_us: 0,
        warm_hit_rate: 0.0,
        table: Table::new("placeholder", vec![]),
    };
    let server = match serve("127.0.0.1:0", ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            t.push(vec![
                "unavailable".into(),
                "0".into(),
                e.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            figures.table = t;
            return figures;
        }
    };
    let endpoint = server.endpoint().to_string();
    let cfg = LoadGenConfig {
        clients: 4,
        requests_per_client: match scale {
            Scale::Quick => 25,
            Scale::Full => 250,
        },
        distinct_stencils: 6,
        permute: true,
        ..LoadGenConfig::default()
    };
    for phase in ["cold", "warm"] {
        match loadgen::run(&endpoint, &cfg) {
            Ok(r) => {
                if phase == "cold" {
                    figures.cold_p50_us = r.p50_us;
                    figures.cold_p99_us = r.p99_us;
                } else {
                    figures.warm_p50_us = r.p50_us;
                    figures.warm_p99_us = r.p99_us;
                    figures.warm_hit_rate = r.hit_rate();
                }
                t.push(vec![
                    phase.into(),
                    r.completed.to_string(),
                    r.errors.to_string(),
                    r.p50_us.to_string(),
                    r.p99_us.to_string(),
                    format!("{:.1}%", r.hit_rate() * 100.0),
                ]);
            }
            Err(e) => t.push(vec![
                phase.into(),
                "0".into(),
                e.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    server.shutdown();
    server.join();
    figures.table = t;
    figures
}

struct MeshFigures {
    requests: u64,
    completed: u64,
    identical: u64,
    failovers: u64,
    availability: f64,
    table: Table,
}

/// Routed requests across three shards under a kill/restart schedule:
/// availability is the completed fraction, and every completed answer
/// must be certificate-identical to the direct solve.
fn mesh_availability(scale: Scale) -> MeshFigures {
    let mut t = Table::new(
        "mesh — availability under kill/restart",
        vec![
            "requests".into(),
            "completed".into(),
            "identical".into(),
            "failovers".into(),
            "availability".into(),
        ],
    );
    let passes = match scale {
        Scale::Quick => 2,
        Scale::Full => 10,
    };
    let problems: Vec<Stencil> = (1..=6i64)
        .map(|k| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid"))
        .collect();
    let truths: Vec<(uov_isg::IVec, u128, u64)> = problems
        .iter()
        .map(|s| {
            let r = find_best_uov(s, Objective::ShortestVector, &SearchConfig::default())
                .expect("direct search");
            let c = certify(s, &Objective::ShortestVector, &r).expect("certify");
            (r.uov.clone(), r.cost, c.transcript_hash)
        })
        .collect();

    let mut figures = MeshFigures {
        requests: 0,
        completed: 0,
        identical: 0,
        failovers: 0,
        availability: 0.0,
        table: Table::new("placeholder", vec![]),
    };
    let mut set = match ReplicaSet::start(3, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            t.push(vec![
                "0".into(),
                "0".into(),
                "0".into(),
                e.to_string(),
                "0".into(),
            ]);
            figures.table = t;
            return figures;
        }
    };
    let endpoints: Vec<String> = set.endpoints().to_vec();
    let mut mesh = match MeshClient::new(
        &endpoints,
        MeshConfig {
            backoff_base: std::time::Duration::from_millis(1),
            backoff_max: std::time::Duration::from_millis(4),
            ..MeshConfig::default()
        },
    ) {
        Ok(m) => m,
        Err(e) => {
            t.push(vec![
                "0".into(),
                "0".into(),
                "0".into(),
                e.to_string(),
                "0".into(),
            ]);
            figures.table = t;
            return figures;
        }
    };

    // Kill a rotating shard every pass; restart it the following pass.
    let mut down: Option<usize> = None;
    for pass in 0..passes {
        if let Some(i) = down.take() {
            let _ = set.restart(i);
        }
        let victim = pass % 3;
        set.kill(victim);
        down = Some(victim);
        for (i, stencil) in problems.iter().enumerate() {
            figures.requests += 1;
            let req = PlanRequest {
                stencil: stencil.clone(),
                objective: ObjectiveSpec::ShortestVector,
                deadline_ms: 0,
                flags: 0,
            };
            if let Ok(resp) = mesh.plan(&req) {
                figures.completed += 1;
                let (uov, cost, hash) = &truths[i];
                if &resp.uov == uov && &resp.cost == cost && &resp.certificate_hash == hash {
                    figures.identical += 1;
                }
            }
        }
    }
    figures.failovers = mesh.stats().failovers;
    figures.availability = if figures.requests > 0 {
        figures.completed as f64 / figures.requests as f64
    } else {
        0.0
    };
    set.shutdown_all();
    t.push(vec![
        figures.requests.to_string(),
        figures.completed.to_string(),
        figures.identical.to_string(),
        figures.failovers.to_string(),
        format!("{:.3}", figures.availability),
    ]);
    figures.table = t;
    figures
}

struct PartitionFigures {
    requests: u64,
    completed: u64,
    identical: u64,
    failovers: u64,
    partitioned_requests: u64,
    warm_failover_hits: u64,
    warm_failover_hit_rate: f64,
    availability: f64,
    table: Table,
}

/// Routed requests across three shards, each behind a chaos proxy,
/// under a rotating partition-and-heal schedule. A warm pass first lets
/// the home shards solve and replicate to their ring successors; then
/// each pass partitions one shard symmetrically and serves the full
/// stream through the cut. Availability is the completed fraction, the
/// warm-failover hit rate is the fraction of partitioned-home requests
/// served from a neighbor's replicated cache.
fn partition_availability(scale: Scale) -> PartitionFigures {
    let mut t = Table::new(
        "mesh — availability under partition-and-heal",
        vec![
            "requests".into(),
            "completed".into(),
            "identical".into(),
            "failovers".into(),
            "warm failover hits".into(),
            "warm failover rate".into(),
            "availability".into(),
        ],
    );
    let mut figures = PartitionFigures {
        requests: 0,
        completed: 0,
        identical: 0,
        failovers: 0,
        partitioned_requests: 0,
        warm_failover_hits: 0,
        warm_failover_hit_rate: 0.0,
        availability: 0.0,
        table: Table::new("placeholder", vec![]),
    };
    let fail = |t: &mut Table, figures: &mut PartitionFigures, e: String| {
        t.push(vec![
            "0".into(),
            "0".into(),
            "0".into(),
            e,
            "-".into(),
            "-".into(),
            "0".into(),
        ]);
        figures.table = std::mem::replace(t, Table::new("moved", vec![]));
    };

    let passes = match scale {
        Scale::Quick => 2,
        Scale::Full => 6,
    };
    let problems: Vec<Stencil> = (1..=6i64)
        .map(|k| Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid"))
        .collect();
    let truths: Vec<(uov_isg::IVec, u128, u64)> = problems
        .iter()
        .map(|s| {
            let r = find_best_uov(s, Objective::ShortestVector, &SearchConfig::default())
                .expect("direct search");
            let c = certify(s, &Objective::ShortestVector, &r).expect("certify");
            (r.uov.clone(), r.cost, c.transcript_hash)
        })
        .collect();

    let set = match ReplicaSet::start(3, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            fail(&mut t, &mut figures, e.to_string());
            return figures;
        }
    };
    let proxies: Vec<ChaosProxy> = match set
        .endpoints()
        .iter()
        .map(|ep| {
            ChaosProxy::start(
                ep,
                ChaosConfig {
                    seed: 7,
                    ..ChaosConfig::default()
                },
            )
        })
        .collect::<Result<_, _>>()
    {
        Ok(p) => p,
        Err(e) => {
            fail(&mut t, &mut figures, e.to_string());
            return figures;
        }
    };
    let proxy_endpoints: Vec<String> = proxies.iter().map(|p| p.endpoint().to_string()).collect();
    let cfg = MeshConfig {
        attempt_timeout: Duration::from_secs(1),
        failure_threshold: 1,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        seed: 7,
        ..MeshConfig::default()
    };
    let mut mesh = match MeshClient::new(&proxy_endpoints, cfg) {
        Ok(m) => m,
        Err(e) => {
            fail(&mut t, &mut figures, e.to_string());
            return figures;
        }
    };

    let serve_stream =
        |mesh: &mut MeshClient, figures: &mut PartitionFigures, partitioned: Option<usize>| {
            for (i, stencil) in problems.iter().enumerate() {
                let req = PlanRequest {
                    stencil: stencil.clone(),
                    objective: ObjectiveSpec::ShortestVector,
                    deadline_ms: 0,
                    flags: 0,
                };
                let home = mesh.ring().route(MeshClient::routing_key(&req));
                let home_cut = partitioned == Some(home);
                figures.requests += 1;
                if home_cut {
                    figures.partitioned_requests += 1;
                }
                if let Ok(resp) = mesh.plan(&req) {
                    figures.completed += 1;
                    let (uov, cost, hash) = &truths[i];
                    if &resp.uov == uov && &resp.cost == cost && &resp.certificate_hash == hash {
                        figures.identical += 1;
                    }
                    if home_cut && resp.cache == CacheOutcome::Hit {
                        figures.warm_failover_hits += 1;
                    }
                }
            }
        };

    // Warm pass: every home solves its problems and replicates the
    // certified entries to its ring successor, undisturbed.
    serve_stream(&mut mesh, &mut figures, None);
    // Partition passes: cut one shard per pass, serve the full stream
    // through the cut, heal, rotate.
    for pass in 0..passes {
        let victim = pass % 3;
        proxies[victim].partition_symmetric();
        serve_stream(&mut mesh, &mut figures, Some(victim));
        proxies[victim].heal();
    }
    figures.failovers = mesh.stats().failovers;

    figures.availability = if figures.requests > 0 {
        figures.completed as f64 / figures.requests as f64
    } else {
        0.0
    };
    figures.warm_failover_hit_rate = if figures.partitioned_requests > 0 {
        figures.warm_failover_hits as f64 / figures.partitioned_requests as f64
    } else {
        0.0
    };
    for p in proxies {
        p.stop();
    }
    set.shutdown_all();
    t.push(vec![
        figures.requests.to_string(),
        figures.completed.to_string(),
        figures.identical.to_string(),
        figures.failovers.to_string(),
        figures.warm_failover_hits.to_string(),
        format!("{:.3}", figures.warm_failover_hit_rate),
        format!("{:.3}", figures.availability),
    ]);
    figures.table = t;
    figures
}

/// Hand-rolled JSON with a fixed key order; all floats are finite by
/// construction, so the output is always valid JSON.
fn render_json(search: &SearchFigures, service: &ServiceFigures, mesh: &MeshFigures) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"uov-bench-pr6-v1\",\n",
            "  \"scale\": \"full\",\n",
            "  \"build\": \"{}\",\n",
            "  \"search\": {{\n",
            "    \"nodes\": {},\n",
            "    \"elapsed_ms\": {:.3},\n",
            "    \"nodes_per_sec\": {:.1}\n",
            "  }},\n",
            "  \"service\": {{\n",
            "    \"cold_p50_us\": {},\n",
            "    \"cold_p99_us\": {},\n",
            "    \"warm_p50_us\": {},\n",
            "    \"warm_p99_us\": {},\n",
            "    \"cache_hit_p50_us\": {},\n",
            "    \"warm_hit_rate\": {:.4}\n",
            "  }},\n",
            "  \"mesh\": {{\n",
            "    \"requests\": {},\n",
            "    \"completed\": {},\n",
            "    \"identical\": {},\n",
            "    \"failovers\": {},\n",
            "    \"availability\": {:.4}\n",
            "  }}\n",
            "}}\n",
        ),
        perf::build_marker(),
        search.nodes,
        search.elapsed_ms,
        search.nodes_per_sec,
        service.cold_p50_us,
        service.cold_p99_us,
        service.warm_p50_us,
        service.warm_p99_us,
        service.warm_p50_us,
        service.warm_hit_rate,
        mesh.requests,
        mesh.completed,
        mesh.identical,
        mesh.failovers,
        mesh.availability,
    )
}

/// The `BENCH_pr8.json` artifact: availability and warm-failover hit
/// rate under the partition schedule. Deliberately carries no
/// `nodes_per_sec` figure — it measures availability, not throughput —
/// so the `bench-check` gate reports it without scoring it.
fn render_pr8_json(p: &PartitionFigures) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"uov-bench-pr8-v1\",\n",
            "  \"scale\": \"full\",\n",
            "  \"build\": \"{}\",\n",
            "  \"partition\": {{\n",
            "    \"requests\": {},\n",
            "    \"completed\": {},\n",
            "    \"identical\": {},\n",
            "    \"failovers\": {},\n",
            "    \"partitioned_requests\": {},\n",
            "    \"warm_failover_hits\": {},\n",
            "    \"warm_failover_hit_rate\": {:.4},\n",
            "    \"availability\": {:.4}\n",
            "  }}\n",
            "}}\n",
        ),
        perf::build_marker(),
        p.requests,
        p.completed,
        p.identical,
        p.failovers,
        p.partitioned_requests,
        p.warm_failover_hits,
        p.warm_failover_hit_rate,
        p.availability,
    )
}

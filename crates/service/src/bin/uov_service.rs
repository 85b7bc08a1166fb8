//! Command-line front end for the UOV planning service.
//!
//! ```text
//! uov-service serve  <endpoint> [--workers N] [--queue N] [--cache N] [--wedge-timeout MS]
//! uov-service query  <endpoint> --stencil "1,0;0,1;1,1" [--grid N,M] [--deadline MS] [--no-cache]
//! uov-service smoke  <endpoint>
//! uov-service health <endpoint>
//! uov-service stats  <endpoint>
//! uov-service shutdown <endpoint>
//! ```
//!
//! Endpoints are TCP addresses (`127.0.0.1:7878`; port `0` picks a free
//! port and prints it) or Unix sockets (`unix:/tmp/uov.sock`). `query`
//! accepts a comma-separated replica list and plans through the routed
//! client, which sends each problem to its consistent-hash home replica
//! and fails over along the ring. A flag the subcommand does not know
//! is an error (exit status 2), never silently ignored.

use std::process::ExitCode;
use std::time::Duration;

use uov_isg::{IVec, RectDomain, Stencil};
use uov_service::{
    serve, Client, LoadGenConfig, MeshClient, MeshConfig, ObjectiveSpec, PlanRequest, ServerConfig,
    FLAG_NO_CACHE,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(if args.is_empty() { 1 } else { 0 });
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  uov-service serve  <endpoint> [--workers N] [--queue N] [--cache N] [--wedge-timeout MS]
  uov-service query  <endpoint[,endpoint…]> --stencil \"1,0;0,1;1,1\" [--grid N,M] [--deadline MS] [--no-cache]
  uov-service smoke  <endpoint>
  uov-service health <endpoint>
  uov-service stats  <endpoint>
  uov-service shutdown <endpoint>";

/// Pull the value of `--flag <value>` out of `args`, if present.
fn opt<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn opt_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match opt(args, flag)? {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("invalid {flag} `{s}`")),
    }
}

/// The endpoint at the front of `args`, after checking that everything
/// behind it is one of the subcommand's flags: one of `valued` followed
/// by its value, or one of `bare`.
fn endpoint_of<'a>(args: &'a [String], valued: &[&str], bare: &[&str]) -> Result<&'a str, String> {
    let endpoint = args
        .first()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("missing endpoint\n{USAGE}"))?;
    let mut rest = args[1..].iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) {
            rest.next();
        } else if !bare.contains(&arg) {
            let what = if arg.starts_with("--") {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            return Err(format!("{what} `{arg}`\n{USAGE}"));
        }
    }
    Ok(endpoint)
}

/// Parse `"1,0;0,1;1,1"` into a stencil.
fn parse_stencil(spec: &str) -> Result<Stencil, String> {
    let mut vectors = Vec::new();
    for part in spec.split(';') {
        let comps: Result<Vec<i64>, _> = part.split(',').map(|c| c.trim().parse()).collect();
        let comps = comps.map_err(|_| format!("invalid stencil vector `{part}`"))?;
        vectors.push(IVec::from(comps));
    }
    Stencil::new(vectors).map_err(|e| format!("invalid stencil: {e}"))
}

fn parse_grid(spec: &str) -> Result<RectDomain, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 2 {
        return Err(format!("--grid wants N,M, got `{spec}`"));
    }
    let n: u32 = parts[0].trim().parse().map_err(|_| "invalid grid size")?;
    let m: u32 = parts[1].trim().parse().map_err(|_| "invalid grid size")?;
    if n == 0 || m == 0 {
        return Err("grid sides must be positive".into());
    }
    Ok(RectDomain::grid(n as i64, m as i64))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let endpoint = endpoint_of(
        args,
        &["--workers", "--queue", "--cache", "--wedge-timeout"],
        &[],
    )?;
    let config = ServerConfig {
        workers: opt_parse(args, "--workers", ServerConfig::default().workers)?,
        queue_depth: opt_parse(args, "--queue", ServerConfig::default().queue_depth)?,
        cache_capacity: opt_parse(args, "--cache", ServerConfig::default().cache_capacity)?,
        wedge_timeout: Duration::from_millis(opt_parse(args, "--wedge-timeout", 0u64)?),
        ..ServerConfig::default()
    };
    let server = serve(endpoint, config).map_err(|e| e.to_string())?;
    // Scripts read this line to learn the resolved port.
    println!("listening on {}", server.endpoint());
    let stats = server.join();
    println!(
        "drained: {} requests, {} responses, {} protocol errors, {} overloaded, {} panics",
        stats.requests,
        stats.responses,
        stats.protocol_errors,
        stats.rejected_overloaded,
        stats.panics
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let endpoint = endpoint_of(
        args,
        &["--stencil", "--grid", "--deadline"],
        &["--no-cache"],
    )?;
    let stencil = parse_stencil(opt(args, "--stencil")?.ok_or("query needs --stencil")?)?;
    let objective = match opt(args, "--grid")? {
        Some(g) => ObjectiveSpec::KnownBounds(parse_grid(g)?),
        None => ObjectiveSpec::ShortestVector,
    };
    let deadline_ms: u32 = opt_parse(args, "--deadline", 0)?;
    let flags = if args.iter().any(|a| a == "--no-cache") {
        FLAG_NO_CACHE
    } else {
        0
    };
    let req = PlanRequest {
        stencil,
        objective,
        deadline_ms,
        flags,
    };
    // Any endpoint list — one replica or many — goes through the routed
    // client: ring routing with failover.
    let endpoints: Vec<String> = endpoint
        .split(',')
        .map(|e| e.trim().to_string())
        .filter(|e| !e.is_empty())
        .collect();
    let mut client = MeshClient::new(
        &endpoints,
        MeshConfig {
            attempt_timeout: Duration::from_secs(600),
            ..MeshConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let resp = client.plan(&req).map_err(|e| e.to_string())?;
    println!("uov         {}", resp.uov);
    println!("cost        {}", resp.cost);
    println!("certificate {:#018x}", resp.certificate_hash);
    println!("degraded    {:?}", resp.degradation);
    println!("cache       {:?}", resp.cache);
    Ok(())
}

/// CI acceptance check against a live server: a bounded deterministic
/// load must complete with zero errors and a warm >90% hit rate, and a
/// synchronized burst must coalesce at least one request onto an
/// in-flight search. Exits non-zero on any violation.
fn cmd_smoke(args: &[String]) -> Result<(), String> {
    let endpoint = endpoint_of(args, &[], &[])?;

    // Cold pass populates the cache; warm pass must run >90% hit rate.
    let cfg = LoadGenConfig {
        clients: 4,
        requests_per_client: 25,
        distinct_stencils: 6,
        permute: true,
    };
    let cold = uov_service::run_loadgen(endpoint, &cfg).map_err(|e| e.to_string())?;
    let warm = uov_service::run_loadgen(endpoint, &cfg).map_err(|e| e.to_string())?;
    println!(
        "smoke: cold {}/{} ok ({} hits), warm {}/{} ok (hit rate {:.1}%)",
        cold.completed,
        cold.completed + cold.errors,
        cold.hits,
        warm.completed,
        warm.completed + warm.errors,
        warm.hit_rate() * 100.0
    );
    if cold.errors + warm.errors > 0 {
        return Err(format!(
            "load generation saw {} protocol errors",
            cold.errors + warm.errors
        ));
    }
    if warm.hit_rate() <= 0.90 {
        return Err(format!(
            "warm hit rate {:.1}% is not above 90%",
            warm.hit_rate() * 100.0
        ));
    }

    // Single-flight: at least one request of the burst must coalesce.
    let burst = uov_service::coalescing_burst(endpoint, 4, 300).map_err(|e| e.to_string())?;
    println!(
        "smoke: burst of {} → {} miss, {} coalesced, {} hit, {} distinct answer(s)",
        burst.burst, burst.misses, burst.coalesced, burst.hits, burst.distinct_answers
    );
    if burst.errors > 0 {
        return Err(format!("burst saw {} errors", burst.errors));
    }
    if burst.coalesced == 0 {
        return Err("no request coalesced onto the in-flight search".into());
    }
    if burst.distinct_answers != 1 {
        return Err(format!(
            "coalesced burst returned {} distinct answers, want 1",
            burst.distinct_answers
        ));
    }
    println!("smoke: OK");
    Ok(())
}

/// Probe liveness/readiness. Exit code 0 iff the server is ready, so
/// orchestration scripts can gate on it directly.
fn cmd_health(args: &[String]) -> Result<(), String> {
    let endpoint = endpoint_of(args, &[], &[])?;
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let h = client.health().map_err(|e| e.to_string())?;
    println!(
        "ready {}  draining {}  workers {}  queue {}/{}",
        h.ready, h.draining, h.workers_alive, h.queue_len, h.queue_depth
    );
    if h.ready {
        Ok(())
    } else {
        Err("server is not ready".into())
    }
}

/// Dump the server's traffic/fault counters and cache counters.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let endpoint = endpoint_of(args, &[], &[])?;
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let s = client.stats().map_err(|e| e.to_string())?;
    println!("| counter | value |");
    println!("|---|---|");
    println!("| connections | {} |", s.server.connections);
    println!("| requests | {} |", s.server.requests);
    println!("| responses | {} |", s.server.responses);
    println!("| rejected overloaded | {} |", s.server.rejected_overloaded);
    println!("| rejected shutdown | {} |", s.server.rejected_shutdown);
    println!("| protocol errors | {} |", s.server.protocol_errors);
    println!("| crc failures | {} |", s.server.crc_failures);
    println!("| bad magic | {} |", s.server.bad_magic);
    println!("| bad version | {} |", s.server.bad_version);
    println!("| oversized frames | {} |", s.server.oversized_frames);
    println!("| panics | {} |", s.server.panics);
    println!("| watchdog cancels | {} |", s.server.watchdog_cancels);
    println!("| worker restarts | {} |", s.server.worker_restarts);
    println!("| idle timeouts | {} |", s.server.idle_timeouts);
    println!("| cache hits | {} |", s.cache.hits);
    println!("| cache misses | {} |", s.cache.misses);
    println!("| cache coalesced | {} |", s.cache.coalesced);
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let endpoint = endpoint_of(args, &[], &[])?;
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    client.shutdown_server().map_err(|e| e.to_string())?;
    println!("shutdown acknowledged");
    Ok(())
}

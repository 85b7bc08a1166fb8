//! The service layers, measured in the traced run.
//!
//! An in-process `uov_service::serve` server gets open-loop traffic from
//! two `Client` connections on a fixed arrival schedule. Most requests are
//! hot problems warmed into the cache before timing starts; some are
//! axis-swapped twins of them, never warmed, which hit only through
//! canonicalization; a seeded share are never-seen `KnownBounds` problems
//! that miss the cache, then search, certify and insert. Every response is
//! checked against the golden file. Each service layer is then timed
//! through its public functions on the same request stream.
//!
//! `serve` is not a gated workload: its end-to-end figures did not repeat
//! within the bounds `BENCHMARK.json` allows (see `README.md`).

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use uov::core::search::{find_best_uov, SearchConfig};
use uov::service::canon::canonicalize;
use uov::service::plan_cache::DEFAULT_CACHE_CAPACITY;
use uov::service::{
    serve, CacheOutcome, Client, DegradationCode, MeshClient, MeshConfig, PlanCache, PlanRequest,
    PlanResponse, ResilientClient, ResilientConfig, ServerConfig, ServerHandle,
};

use crate::golden::{Answer, Golden};
use crate::problems::{hot_problems, miss_problems, Kind, ServeProblem};
use crate::trace::Tracer;
use crate::util::{median, quantile, sorted, us, Report, Rng};

/// Connections (and sender threads): at most `nproc` on the reference
/// machine.
const CONNECTIONS: usize = 2;
/// Share of requests that are never-seen problems. Chosen, not measured:
/// the repository holds no record of real planner traffic. At this share
/// the misses stay a small part of the server's work (measured on the
/// reference machine: 6–11% of summed request latency), so the hit path
/// dominates as the workload intends; every run prints the measured split
/// (the `misses:` note).
const MISS_SHARE: f64 = 0.02;
/// The fixed offered rate, requests per second: a quarter to a third of
/// the saturated throughput of this mix on the reference machine (22k–35k
/// req/s over ten seeds, closed loop), so requests sometimes queue behind
/// one another but no backlog builds. Every run measures the saturated
/// throughput again (`service.server.saturated_rps`) and prints the
/// utilisation.
const FIXED_RATE: f64 = 8000.0;
/// Requests sent at the fixed rate (2 s of traffic).
const FIXED_REQUESTS: usize = 16_000;
/// Requests in the closed-loop burst that measures saturated throughput.
const BURST_REQUESTS: usize = 10_000;
/// Closed-loop rounds over the hot set for the client round trips.
const RTT_ROUNDS: usize = 10;

/// Shuts the in-process server down and joins it on every exit path.
struct Server(Option<ServerHandle>);

impl Server {
    fn start() -> Result<Self, String> {
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        serve("127.0.0.1:0", config)
            .map(|h| Server(Some(h)))
            .map_err(|e| format!("starting server: {e}"))
    }

    fn endpoint(&self) -> String {
        self.0
            .as_ref()
            .map_or(String::new(), |h| h.endpoint().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
            h.join();
        }
    }
}

fn connect(endpoint: &str) -> Result<Client, String> {
    let mut c = Client::connect(endpoint).map_err(|e| format!("connecting: {e}"))?;
    c.set_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    Ok(c)
}

/// Check one response against the golden answer.
fn verify(golden: &Golden, id: &str, got: Result<PlanResponse, String>) -> Option<String> {
    match got {
        Err(e) => Some(format!("{id}: {e}")),
        Ok(r) if r.degradation != DegradationCode::None => {
            Some(format!("{id}: degraded ({:?})", r.degradation))
        }
        Ok(r) => golden.check(
            id,
            0,
            &Answer {
                uov: r.uov,
                cost: r.cost,
                hash: r.certificate_hash,
            },
        ),
    }
}

/// Fields drop in order: the connections close before the server drains.
struct Setup {
    clients: Vec<Client>,
    server: Server,
    hot: Vec<ServeProblem>,
    miss: Vec<ServeProblem>,
}

/// Start the server, warm the hot problems (not their twins) into its
/// cache, checking each answer, finish lazy set-up on both connections,
/// and build the inputs.
fn setup(golden: &Golden, report: &mut Report) -> Result<Setup, String> {
    let server = Server::start()?;
    let hot = hot_problems();
    let miss = miss_problems();
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = connect(&server.endpoint())?;
        for p in hot.iter().filter(|p| p.kind == Kind::Hot) {
            report.check(verify(
                golden,
                &p.id,
                c.plan(&p.req).map_err(|e| e.to_string()),
            ));
        }
        clients.push(c);
    }
    Ok(Setup {
        server,
        clients,
        hot,
        miss,
    })
}

/// The seeded request stream: hot problems and twins drawn uniformly, and
/// a share of never-seen problems taken without replacement.
struct Stream<'a> {
    rng: Rng,
    hot: &'a [ServeProblem],
    miss: Vec<&'a ServeProblem>,
}

impl<'a> Stream<'a> {
    fn new(seed: u64, hot: &'a [ServeProblem], miss: &'a [ServeProblem]) -> Self {
        let mut rng = Rng::new(seed);
        let mut miss: Vec<&ServeProblem> = miss.iter().collect();
        rng.shuffle(&mut miss);
        Stream { rng, hot, miss }
    }

    fn take(&mut self, n: usize) -> Result<Vec<&'a ServeProblem>, String> {
        (0..n)
            .map(|_| {
                if (self.rng.next_u64() as f64 / u64::MAX as f64) < MISS_SHARE {
                    self.miss
                        .pop()
                        .ok_or_else(|| "ran out of never-seen problems".to_string())
                } else {
                    Ok(&self.hot[self.rng.below(self.hot.len())])
                }
            })
            .collect()
    }
}

/// One open-loop step at a fixed rate. Samples are in due order.
struct Step {
    rate: f64,
    /// Latency of each request, from its due time.
    lat_us: Vec<f64>,
    /// How late the generator sent each request.
    late_us: Vec<f64>,
    failed: usize,
    /// Requests completed per second, first due time to last answer.
    achieved: f64,
}

impl Step {
    fn p(&self, q: f64) -> f64 {
        quantile(&sorted(self.lat_us.clone()), q)
    }

    fn describe(&self) -> String {
        let late = sorted(self.late_us.clone());
        format!(
            "step {:.0} rps: sent {} succeeded {} failed {}, p50 {:.1} us, p90 {:.1} us, p95 {:.1} us, p99 {:.1} us, generator lateness p50 {:.1} us p99 {:.1} us, completed {:.0}/s",
            self.rate,
            self.lat_us.len(),
            self.lat_us.len() - self.failed,
            self.failed,
            self.p(0.5),
            self.p(0.9),
            self.p(0.95),
            self.p(0.99),
            quantile(&late, 0.5),
            quantile(&late, 0.99),
            self.achieved
        )
    }
}

/// What a sender thread records per request: index, send and completion
/// instants, and a failure if the answer was wrong or missing.
type Sample = (usize, Instant, Instant, Option<String>);

/// Send `reqs` at `rate` per second over the connections: request `i` is
/// due at `start + i / rate`, whatever happened to earlier requests. A
/// connection waiting on a slow answer leaves the next due request to the
/// other one; when both are busy the request goes out late, and its
/// latency, timed from the due time, carries the wait. An infinite rate
/// makes every request due at once: a closed loop on each connection.
///
/// The samples the senders keep are the spans' data, so `tracer` gets one
/// span per request after the senders have joined and tracing adds no work
/// on the request path.
fn open_loop(
    clients: &mut [Client],
    reqs: &[&ServeProblem],
    rate: f64,
    golden: &Golden,
    report: &mut Report,
    tracer: Option<&mut Tracer>,
) -> Step {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = reqs.get(i) else { break };
                        wait_until(due(i));
                        let sent = Instant::now();
                        let got = client.plan(&p.req).map_err(|e| e.to_string());
                        let done = Instant::now();
                        out.push((i, sent, done, verify(golden, &p.id, got)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.0);
    if let Some(t) = tracer {
        for &(i, sent, done, _) in &samples {
            t.record("service.client.plan", i as u64, sent, done);
        }
    }
    let last = samples.iter().map(|s| s.2).max().unwrap_or(start);
    let mut step = Step {
        rate,
        lat_us: Vec::with_capacity(samples.len()),
        late_us: Vec::with_capacity(samples.len()),
        failed: 0,
        achieved: samples.len() as f64 / last.saturating_duration_since(start).as_secs_f64(),
    };
    for (i, sent, done, failure) in samples {
        step.lat_us.push(us(done.saturating_duration_since(due(i))));
        step.late_us
            .push(us(sent.saturating_duration_since(due(i))));
        step.failed += usize::from(failure.is_some());
        report.check(failure);
    }
    step
}

/// Sleep to just short of `due`, then yield until it passes. A sleep
/// alone wakes tens of µs late on a virtual machine, and that would read
/// as service latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

const SPIN: Duration = Duration::from_micros(100);

/// Restrict the calling thread, and every thread it spawns later, to the
/// CPUs in `mask` (bit `i` = CPU `i`).
fn set_affinity(mask: u64) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut set = [0u64; 16]; // a cpu_set_t: 1024 bits
        set[0] = mask;
        // SAFETY: `set` is 128 readable bytes, the size passed, and outlives
        // the call; pid 0 names the calling thread. A failure leaves the
        // affinity unchanged.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
        }
    }
}

/// Runs the serve phase's threads (server and senders alike) on the last
/// CPU and restores the CPUs it found when dropped. Left to the scheduler,
/// thread placement changes from run to run and moves the median round
/// trip by 2x on the reference machine, where cross-CPU wake-ups are slow;
/// split pinning (server on one CPU, senders on the other) measured
/// noisier, and CPU 0 takes most timer and device interrupts. The price:
/// every `service.server.*` figure is a single-CPU figure, so it cannot
/// judge a change to the server's concurrency.
struct Pinned {
    restore: u64,
}

impl Pinned {
    fn new() -> Self {
        let n = std::thread::available_parallelism().map_or(64, |n| n.get());
        set_affinity(1 << (n.min(64) - 1));
        Pinned {
            restore: if n >= 64 { u64::MAX } else { (1u64 << n) - 1 },
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_affinity(self.restore);
    }
}

/// Requests the server shed, from its own counters.
fn shed_count(client: &mut Client) -> Result<u64, String> {
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(stats.server.rejected_overloaded + stats.server.shed_over_quota)
}

/// A way to send one plan request: a client layer under test.
type Plan<'a> = &'a mut dyn FnMut(&PlanRequest) -> Result<PlanResponse, String>;

/// Median closed-loop round trip of each client layer over the hot set,
/// µs. The layers take turns request by request, so a slow moment of the
/// machine falls on all of them alike.
fn round_trips(
    hot: &[ServeProblem],
    golden: &Golden,
    report: &mut Report,
    layers: &mut [Plan<'_>],
) -> Vec<f64> {
    let mut lat = vec![Vec::new(); layers.len()];
    for _ in 0..RTT_ROUNDS {
        for p in hot {
            for (k, plan) in layers.iter_mut().enumerate() {
                let t = Instant::now();
                let got = plan(&p.req);
                lat[k].push(us(t.elapsed()));
                report.check(verify(golden, &p.id, got));
            }
        }
    }
    lat.iter().map(|l| median(l)).collect()
}

/// The serve phase of the traced run: a closed-loop burst for the
/// saturated throughput, the open-loop run at the fixed rate with a span
/// per request, then each service layer timed through its public functions
/// on the same request stream.
pub fn traced(
    golden: &Golden,
    seed: u64,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let pinned = Pinned::new();
    let clock = Instant::now();
    let Setup {
        server,
        mut clients,
        hot,
        miss,
    } = setup(golden, report)?;
    let setup_s = clock.elapsed().as_secs_f64();
    let mut stream = Stream::new(seed, &hot, &miss);
    let burst = open_loop(
        &mut clients,
        &stream.take(BURST_REQUESTS)?,
        f64::INFINITY,
        golden,
        report,
        None,
    );
    let reqs = stream.take(FIXED_REQUESTS)?;
    let fixed = open_loop(&mut clients, &reqs, FIXED_RATE, golden, report, Some(t));

    // The service floor: one connection, no queue, hot requests.
    let endpoint = server.endpoint();
    let mut resilient =
        ResilientClient::new(std::slice::from_ref(&endpoint), ResilientConfig::default())
            .map_err(|e| format!("resilient client: {e}"))?;
    let mut mesh = MeshClient::new(&[endpoint], MeshConfig::default())
        .map_err(|e| format!("mesh client: {e}"))?;
    let direct = &mut clients[0];
    let rtts = round_trips(
        &hot,
        golden,
        report,
        &mut [
            &mut |r| direct.plan(r).map_err(|e| e.to_string()),
            &mut |r| resilient.plan(r).map_err(|e| e.to_string()),
            &mut |r| mesh.plan(r).map_err(|e| e.to_string()),
        ],
    );
    let (rtt, via_resilient, via_mesh) = (rtts[0], rtts[1], rtts[2]);
    let shed = shed_count(&mut clients[0])?;
    drop((clients, resilient, mesh, server, pinned));

    // Wire encode/decode of each request and its (golden) response.
    let responses = reqs
        .iter()
        .map(|p| {
            let a = golden
                .answer(&p.id, 0)
                .ok_or_else(|| format!("{}: no golden answer", p.id))?;
            Ok(PlanResponse {
                uov: a.uov.clone(),
                cost: a.cost,
                certificate_hash: a.hash,
                degradation: DegradationCode::None,
                cache: CacheOutcome::Hit,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let clock = Instant::now();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = t.span("service.proto.encode", 0, |_| {
        reqs.iter()
            .zip(&responses)
            .map(|(p, r)| (p.req.encode(), r.encode()))
            .collect()
    });
    let encode_ns = clock.elapsed().as_nanos() as f64 / reqs.len() as f64;
    let clock = Instant::now();
    let decoded_ok = t.span("service.proto.decode", 0, |_| {
        encoded.iter().all(|(q, r)| {
            PlanRequest::decode(black_box(q)).is_ok() && PlanResponse::decode(black_box(r)).is_ok()
        })
    });
    let decode_ns = clock.elapsed().as_nanos() as f64 / reqs.len() as f64;
    report.check((!decoded_ok).then(|| "a request or response failed to decode".to_string()));

    let mut canon_us = Vec::new();
    for (i, p) in reqs.iter().enumerate() {
        let clock = Instant::now();
        t.span("service.canon", i as u64, |_| {
            black_box(canonicalize(&p.req.stencil, &p.req.objective))
        });
        canon_us.push(us(clock.elapsed()));
    }

    // A standalone cache, warmed like the server's, replaying the stream.
    let cache = PlanCache::new(DEFAULT_CACHE_CAPACITY);
    let solve = |s: &_, o: &uov::service::ObjectiveSpec| {
        find_best_uov(s, o.as_objective(), &SearchConfig::default()).map_err(|e| e.to_string())
    };
    for p in hot.iter().filter(|p| p.kind == Kind::Hot) {
        cache.plan(&p.req.stencil, &p.req.objective, solve)?;
    }
    let before = cache.stats();
    let mut lookup_us = Vec::new();
    for (i, p) in reqs.iter().enumerate() {
        let clock = Instant::now();
        let got = t.span("service.plan_cache", i as u64, |_| {
            cache.plan(&p.req.stencil, &p.req.objective, solve)
        })?;
        if got.cache == CacheOutcome::Hit {
            lookup_us.push(us(clock.elapsed()));
        }
    }
    let after = cache.stats();
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;

    // How much of the fixed-rate traffic the never-seen problems carry.
    let (misses, others): (Vec<_>, Vec<_>) = reqs
        .iter()
        .zip(&fixed.lat_us)
        .partition(|(p, _)| p.kind == Kind::Miss);
    let lat = |v: &[(&&ServeProblem, &f64)]| v.iter().map(|&(_, &l)| l).collect::<Vec<f64>>();
    let (miss_lat, other_lat) = (lat(&misses), lat(&others));
    let miss_sum: f64 = miss_lat.iter().sum();

    report.metric("service.proto.encode_ns", encode_ns, "ns");
    report.metric("service.proto.decode_ns", decode_ns, "ns");
    report.metric("service.canon.us", median(&canon_us), "us");
    report.metric("service.plan_cache.hit_ratio", hits / lookups, "ratio");
    report.metric("service.plan_cache.lookup_us", median(&lookup_us), "us");
    report.metric("service.server.rtt_hit_us", rtt, "us");
    report.metric("service.server.queue_us", fixed.p(0.5) - rtt, "us");
    report.metric("service.server.saturated_rps", burst.achieved, "1/s");
    report.metric("service.server.shed", shed as f64, "count");
    report.metric(
        "service.client.routed_overhead_us",
        via_resilient - rtt,
        "us",
    );
    report.metric("service.client.mesh_overhead_us", via_mesh - rtt, "us");
    report.note(format!(
        "serve set-up (start server, warm the hot set on {CONNECTIONS} connections) = {setup_s} s"
    ));
    report.note(format!("closed-loop burst: {}", burst.describe()));
    report.note(fixed.describe());
    report.note(format!(
        "utilisation at the fixed rate = {:.3} ({FIXED_RATE} rps / saturated {:.0} rps)",
        FIXED_RATE / burst.achieved,
        burst.achieved
    ));
    report.note(format!(
        "misses: {} of {} requests at the fixed rate, latency p50 {:.1} us (others {:.1} us), {:.1}% of summed latency",
        miss_lat.len(),
        reqs.len(),
        median(&miss_lat),
        median(&other_lat),
        100.0 * miss_sum / (miss_sum + other_lat.iter().sum::<f64>())
    ));
    Ok(())
}

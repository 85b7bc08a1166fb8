//! The planning server: one blocking thread per connection, speaking the
//! framed protocol of [`crate::proto`].
//!
//! A named accept thread blocks in `accept` and starts one named thread
//! per connection. That thread reads a frame with
//! [`crate::proto::read_frame`], answers it, then reads the next, so a
//! connection's answers leave in the order its frames arrived. A plan
//! runs on its connection's own thread: a request is read, planned and
//! answered there, never handed to a pool and back. Health, stats and
//! shutdown frames need no compute slot, so they are answered even while
//! every slot is busy or wedged, and mid-drain.
//!
//! Admission has one rule: at most [`ServerConfig::workers`] plans run
//! at once, and a plan that finds every compute slot busy waits, in
//! arrival order, behind at most [`ServerConfig::queue_depth`] others.
//! Otherwise it is shed with a typed `Overloaded` (`rejected_overloaded`)
//! and its connection stays usable. A client that wants an answer within
//! a time bound says so with the request's `deadline_ms`: the search then
//! stops at the deadline with the best certified legal UOV found (at
//! worst `Σvᵢ`).
//!
//! A connection thread blocks in `read` for at most one 100 ms tick at a
//! time. A read fails once the connection has completed no frame for
//! [`ServerConfig::idle_ticks`] ticks, so an idle, half-open or
//! slow-loris peer (one byte per second) is dropped on schedule; writes
//! time out after the same deadline. Each open connection costs one
//! thread, a trade that suits the few connections a compiler's planning
//! traffic opens at once.
//!
//! Shutdown is a drain, not a kill: the drain flag stops the accept
//! thread, running plans finish, waiting plans are answered
//! `ShuttingDown`, every connection closes within a tick of its last
//! answer, and [`ServerHandle::join`] returns once the accept thread and
//! every connection thread have exited.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use uov_core::certify::certify;
use uov_core::search::{find_best_uov, SearchConfig, SearchStats};
use uov_core::{Budget, SearchResult};
use uov_isg::Stencil;

use crate::error::{ErrorCode, ServiceError};
use crate::plan_cache::{CacheStats, PlanCache, Planned, DEFAULT_CACHE_CAPACITY};
use crate::proto::{
    kind, read_frame, write_frame, DegradationCode, ErrorResponse, Frame, HealthResponse,
    ObjectiveSpec, PlanRequest, PlanResponse, StatsResponse, FLAG_NO_CACHE,
};

/// How long a connection thread blocks in one `read` before it looks at
/// the drain flag and its idle deadline again.
const TICK: Duration = Duration::from_millis(100);

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute slots: at most this many plans run at once, each on its
    /// connection's own thread.
    pub workers: usize,
    /// How many plans may wait, in arrival order, for a compute slot. A
    /// plan that finds this many already waiting is shed with
    /// `Overloaded`.
    pub queue_depth: usize,
    /// Distinct canonical plans retained by the cache.
    pub cache_capacity: usize,
    /// Read deadline in 100 ms ticks: a connection that completes no
    /// frame for this long (idle, half-open, or slow-loris) is dropped,
    /// and so is one whose peer stops reading an answer for this long.
    /// Default 30 s. Time spent planning a request does not count.
    pub idle_ticks: u32,
    /// How long a plan may hold a compute slot before the watchdog trips
    /// its budget's cancellation token, degrading the search to the best
    /// certified legal answer found so far. `Duration::ZERO` (the
    /// default) disables wedge detection, and no watchdog thread starts —
    /// legitimate unbounded searches are never cut.
    pub wedge_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            idle_ticks: 300,
            wedge_timeout: Duration::ZERO,
        }
    }
}

/// A snapshot of the server's monotone traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted. The drain's own wake-up dial is not counted.
    pub connections: u64,
    /// Plans shed with `Overloaded` because every compute slot was busy
    /// and `queue_depth` plans were already waiting.
    pub rejected_overloaded: u64,
    /// Plan requests admitted to a compute slot.
    pub requests: u64,
    /// Plan answers fully written back to a client.
    pub responses: u64,
    /// Frames rejected for protocol violations (bad magic, CRC, torn
    /// frames, malformed payloads, unknown kinds).
    pub protocol_errors: u64,
    /// Plans answered `ShuttingDown` during the drain.
    pub rejected_shutdown: u64,
    /// Plans that panicked, and connection threads a panic escaped
    /// (isolated: the server kept serving).
    pub panics: u64,
    /// Frames whose CRC32 did not match their contents (bit damage in
    /// transit). A subset of `protocol_errors`.
    pub crc_failures: u64,
    /// Frames not starting with the protocol magic. A subset of
    /// `protocol_errors`.
    pub bad_magic: u64,
    /// Frames declaring an unsupported protocol version. A subset of
    /// `protocol_errors`.
    pub bad_version: u64,
    /// Frames whose declared payload exceeded [`crate::proto::MAX_PAYLOAD`]
    /// (rejected before allocation). A subset of `protocol_errors`.
    pub oversized_frames: u64,
    /// Wedged plans whose budgets the watchdog cancelled.
    pub watchdog_cancels: u64,
    /// Always 0: the server has no per-tenant quotas any more. The field
    /// (stats slot 26) exists solely because the benchmark
    /// (`perfbench/src/serve.rs`) still reads it and changes only
    /// together with the benchmark definition; new code reads
    /// `rejected_overloaded`.
    pub shed_over_quota: u64,
    /// Connections dropped by the idle/slow-loris read deadline, or by a
    /// write that stalled past it.
    pub idle_timeouts: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    rejected_overloaded: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
    rejected_shutdown: AtomicU64,
    panics: AtomicU64,
    crc_failures: AtomicU64,
    bad_magic: AtomicU64,
    bad_version: AtomicU64,
    oversized_frames: AtomicU64,
    watchdog_cancels: AtomicU64,
    idle_timeouts: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            crc_failures: self.crc_failures.load(Ordering::Relaxed),
            bad_magic: self.bad_magic.load(Ordering::Relaxed),
            bad_version: self.bad_version.load(Ordering::Relaxed),
            oversized_frames: self.oversized_frames.load(Ordering::Relaxed),
            watchdog_cancels: self.watchdog_cancels.load(Ordering::Relaxed),
            shed_over_quota: 0,
            idle_timeouts: self.idle_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Count one protocol failure, both in the aggregate and in the
    /// per-class counter chaos tests assert on.
    fn protocol_error(&self, e: &ServiceError) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        match e {
            ServiceError::CrcMismatch => {
                self.crc_failures.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::BadMagic => {
                self.bad_magic.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::UnsupportedVersion(_) => {
                self.bad_version.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::FrameTooLarge(_) => {
                self.oversized_frames.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Lock `m`, shrugging off poison: every value behind the server's locks
/// stays consistent across a panic (plans panic outside them).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ------------------------------------------------------------- transports

/// A listening socket: TCP, or a Unix domain socket for `unix:<path>`
/// endpoints.
enum AnyListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One accepted (or dialed) connection.
pub(crate) enum AnyStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix domain socket connection.
    Unix(UnixStream),
}

impl AnyListener {
    fn bind(endpoint: &str) -> io::Result<(Self, String)> {
        if let Some(path) = endpoint.strip_prefix("unix:") {
            // A stale socket file from a crashed server blocks rebinding.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            return Ok((AnyListener::Unix(l), format!("unix:{path}")));
        }
        let l = TcpListener::bind(endpoint)?;
        let local = l.local_addr()?;
        Ok((AnyListener::Tcp(l), local.to_string()))
    }

    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(AnyStream::Tcp(s))
            }
            AnyListener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(AnyStream::Unix(s))
            }
        }
    }
}

impl AnyStream {
    pub(crate) fn connect(endpoint: &str) -> io::Result<Self> {
        if let Some(path) = endpoint.strip_prefix("unix:") {
            return Ok(AnyStream::Unix(UnixStream::connect(path)?));
        }
        Ok(AnyStream::Tcp(TcpStream::connect(endpoint)?))
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(t),
            AnyStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_write_timeout(t),
            AnyStream::Unix(s) => s.set_write_timeout(t),
        }
    }

    fn close(&self) {
        let _ = match self {
            AnyStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            AnyStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

// -------------------------------------------------------------- admission

/// What admission decided for one plan.
enum Admission {
    /// Run on this compute slot.
    Slot(usize),
    /// Every slot is busy and `queue_depth` plans already wait.
    Overloaded,
    /// The drain began before a slot came free.
    Draining,
}

/// The compute slots nobody holds, and the plans waiting for one.
struct Slots {
    free: Vec<usize>,
    /// Tickets of waiting plans, in arrival order.
    waiting: VecDeque<u64>,
    next_ticket: u64,
}

/// The admission gate: at most `workers` plans hold a slot, and at most
/// `depth` wait for one, first come first served.
struct Gate {
    slots: Mutex<Slots>,
    freed: Condvar,
    depth: usize,
}

impl Gate {
    fn new(workers: usize, depth: usize) -> Self {
        Gate {
            slots: Mutex::new(Slots {
                free: (0..workers).rev().collect(),
                waiting: VecDeque::new(),
                next_ticket: 0,
            }),
            freed: Condvar::new(),
            depth,
        }
    }

    /// Plans waiting for a slot right now.
    fn waiting(&self) -> usize {
        lock(&self.slots).waiting.len()
    }

    /// Take a slot, waiting in line for one if none is free. The drain
    /// flag is read under the gate's lock, and the drain takes that lock
    /// before it wakes the line, so no waiter misses it.
    fn acquire(&self, draining: &AtomicBool) -> Admission {
        let mut slots = lock(&self.slots);
        if slots.waiting.len() >= self.depth {
            return Admission::Overloaded;
        }
        let ticket = slots.next_ticket;
        slots.next_ticket += 1;
        slots.waiting.push_back(ticket);
        loop {
            if draining.load(Ordering::SeqCst) {
                slots.waiting.retain(|&t| t != ticket);
                return Admission::Draining;
            }
            if slots.waiting.front() == Some(&ticket) {
                if let Some(slot) = slots.free.pop() {
                    slots.waiting.pop_front();
                    if !slots.waiting.is_empty() {
                        // The next in line may find a slot too.
                        self.freed.notify_all();
                    }
                    return Admission::Slot(slot);
                }
            }
            slots = self
                .freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn release(&self, slot: usize) {
        let mut slots = lock(&self.slots);
        slots.free.push(slot);
        if !slots.waiting.is_empty() {
            self.freed.notify_all();
        }
    }

    /// Wake every waiting plan, so that each sees the drain.
    fn wake_all(&self) {
        let _slots = lock(&self.slots);
        self.freed.notify_all();
    }
}

// ----------------------------------------------------------------- server

/// The plan running on one compute slot: when it began, and its budget's
/// cancellation token. Set and cleared under the slot's lock, so the
/// watchdog never cancels a plan that began after its check.
struct Busy {
    since: Instant,
    cancel: Arc<AtomicBool>,
}

struct ServerState {
    config: ServerConfig,
    /// The bound endpoint; the drain dials it once to wake `accept`.
    endpoint: String,
    cache: PlanCache,
    shutdown: AtomicBool,
    stats: Counters,
    gate: Gate,
    /// One busy record per compute slot, read by the watchdog.
    busy: Vec<Mutex<Option<Busy>>>,
}

/// One answer frame, and what its connection does once it is written.
struct Reply {
    kind: u8,
    payload: Vec<u8>,
    /// A plan answer: counted in `responses` once fully written.
    counts_response: bool,
    /// Close the connection after this frame.
    close: bool,
}

impl Reply {
    fn new(kind: u8, payload: Vec<u8>) -> Self {
        Reply {
            kind,
            payload,
            counts_response: false,
            close: false,
        }
    }

    fn error(code: ErrorCode, msg: impl Into<String>) -> Self {
        let msg = msg.into();
        Reply::new(kind::RESP_ERROR, ErrorResponse { code, msg }.encode())
    }
}

impl ServerState {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raise the drain flag (once), wake the plans waiting for a slot so
    /// they answer `ShuttingDown`, and dial the server's own endpoint so
    /// the accept thread returns from `accept` and stops.
    fn begin_drain(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.gate.wake_all();
            let _ = AnyStream::connect(&self.endpoint);
        }
    }

    /// The readiness signal served by `REQ_HEALTH`.
    fn health(&self) -> HealthResponse {
        let draining = self.draining();
        let queue_len = self.gate.waiting() as u32;
        let queue_depth = self.gate.depth as u32;
        HealthResponse {
            ready: !draining && queue_len < queue_depth,
            draining,
            workers_alive: self.busy.len() as u32,
            queue_len,
            queue_depth,
        }
    }

    /// The full stats frame.
    fn stats_response(&self) -> StatsResponse {
        StatsResponse {
            server: self.stats.snapshot(),
            cache: self.cache.stats(),
        }
    }

    /// Answer one frame. Probes and shutdown need no compute slot; plans
    /// go through the gate.
    fn answer(&self, frame: Frame) -> Reply {
        match frame.kind {
            kind::REQ_HEALTH => Reply::new(kind::RESP_HEALTH, self.health().encode()),
            kind::REQ_STATS => Reply::new(kind::RESP_STATS, self.stats_response().encode()),
            kind::REQ_SHUTDOWN => {
                self.begin_drain();
                Reply {
                    close: true,
                    ..Reply::new(kind::RESP_SHUTDOWN_ACK, Vec::new())
                }
            }
            kind::REQ_PLAN => self.plan(&frame.payload),
            other => {
                // The frame itself was intact (CRC passed), so the stream
                // stays at a frame boundary: report and keep the connection.
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Reply::error(
                    ErrorCode::Unsupported,
                    format!("unknown frame kind {other}"),
                )
            }
        }
    }

    /// Admit one plan frame to a compute slot, or shed it, and run it
    /// there under `catch_unwind`.
    fn plan(&self, payload: &[u8]) -> Reply {
        let slot = match self.gate.acquire(&self.shutdown) {
            Admission::Slot(slot) => slot,
            Admission::Overloaded => {
                self.stats
                    .rejected_overloaded
                    .fetch_add(1, Ordering::Relaxed);
                return Reply::error(ErrorCode::Overloaded, "request queue is full");
            }
            Admission::Draining => {
                self.stats.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                return Reply::error(ErrorCode::ShuttingDown, "server is draining");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_plan(payload, slot)));
        // Clear the busy record even after a panic, so a dead plan's
        // cancel token is never tripped later.
        *lock(&self.busy[slot]) = None;
        self.gate.release(slot);
        outcome.unwrap_or_else(|_| {
            self.stats.panics.fetch_add(1, Ordering::Relaxed);
            Reply {
                close: true,
                ..Reply::error(ErrorCode::Internal, "internal panic; request isolated")
            }
        })
    }

    /// Decode and run one admitted plan, registered with the watchdog
    /// for the search's duration.
    fn run_plan(&self, payload: &[u8], slot: usize) -> Reply {
        let req = match PlanRequest::decode(payload) {
            Ok(req) => req,
            Err(e) => {
                self.stats.protocol_error(&e);
                return Reply::error(ErrorCode::Malformed, e.to_string());
            }
        };
        let cancel = Arc::new(AtomicBool::new(false));
        *lock(&self.busy[slot]) = Some(Busy {
            since: Instant::now(),
            cancel: Arc::clone(&cancel),
        });
        match self.handle_plan(&req, cancel) {
            Ok(resp) => Reply {
                counts_response: true,
                ..Reply::new(kind::RESP_PLAN, resp.encode())
            },
            Err(err) => Reply::new(kind::RESP_ERROR, err.encode()),
        }
    }

    /// Run one plan request through the cache (or around it, for
    /// `FLAG_NO_CACHE`) and certify the answer server-side. The `cancel`
    /// token is wired into the search budget so the watchdog can degrade
    /// a wedged request to a certified legal answer.
    fn handle_plan(
        &self,
        req: &PlanRequest,
        cancel: Arc<AtomicBool>,
    ) -> Result<PlanResponse, ErrorResponse> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let budget = if req.deadline_ms > 0 {
            Budget::unlimited().with_deadline(Duration::from_millis(u64::from(req.deadline_ms)))
        } else {
            Budget::unlimited()
        }
        .with_cancel_token(cancel);
        let config = SearchConfig {
            budget,
            ..SearchConfig::default()
        };
        let solve = |s: &Stencil, o: &ObjectiveSpec| {
            find_best_uov(s, o.as_objective(), &config).map_err(|e| e.to_string())
        };
        let planned: Planned = if req.flags & FLAG_NO_CACHE != 0 {
            self.cache.direct(&req.stencil, &req.objective, &solve)
        } else {
            self.cache.plan(&req.stencil, &req.objective, solve)
        }
        .map_err(|msg| ErrorResponse {
            code: ErrorCode::Internal,
            msg,
        })?;

        // Re-certify every answer against the *request's* problem. The
        // certificate hash deliberately excludes search statistics, so a
        // cache hit certifies to exactly the hash a cold solve yields.
        let as_result = SearchResult {
            uov: planned.uov.clone(),
            cost: planned.cost,
            stats: SearchStats::default(),
            degradation: planned.degradation,
            checkpoint_error: None,
        };
        let cert =
            certify(&req.stencil, &req.objective.as_objective(), &as_result).map_err(|e| {
                ErrorResponse {
                    code: ErrorCode::Internal,
                    msg: format!("certification failed: {e}"),
                }
            })?;
        Ok(PlanResponse {
            uov: planned.uov,
            cost: planned.cost,
            certificate_hash: cert.transcript_hash,
            degradation: DegradationCode::from_exhausted(planned.degradation.map(|d| d.reason)),
            cache: planned.cache,
        })
    }
}

// ------------------------------------------------------------ connections

/// A connection's source of bytes. Each read blocks at most one tick. A
/// read fails with `TimedOut` once the connection has completed no frame
/// for the idle deadline — a slow drip of bytes never moves `since` — and
/// within one tick of the drain.
struct Deadline<'a> {
    stream: AnyStream,
    state: &'a ServerState,
    /// When the last frame was answered (or the connection opened).
    since: Instant,
    limit: Duration,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.state.draining() {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "server is draining",
                ));
            }
            if self.since.elapsed() > self.limit {
                return Err(io::ErrorKind::TimedOut.into());
            }
            match self.stream.read(buf) {
                Err(e) if stalled(&e) => {}
                other => return other,
            }
        }
    }
}

/// Whether a socket call gave up at its timeout.
fn stalled(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One connection's thread: read a frame, answer it, read the next.
fn serve_conn(stream: AnyStream, state: &ServerState) {
    let limit = TICK * state.config.idle_ticks;
    if stream.set_read_timeout(Some(TICK)).is_err()
        || stream.set_write_timeout(Some(limit.max(TICK))).is_err()
    {
        stream.close();
        return;
    }
    let mut reader = BufReader::new(Deadline {
        stream,
        state,
        since: Instant::now(),
        limit,
    });
    loop {
        let reply = match read_frame(&mut reader) {
            Ok(Some(frame)) => state.answer(frame),
            Ok(None) => break,
            Err(ServiceError::Io(e)) => {
                if e.kind() == io::ErrorKind::TimedOut {
                    state.stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            Err(e) => {
                // Bad magic, wrong version, oversized prefix, CRC mismatch
                // or a torn frame: the stream is no longer at a frame
                // boundary, so the typed reply is the connection's last.
                // It tells transit damage (`Corrupted`, safe to resend
                // verbatim) from version skew (`Unsupported`).
                state.stats.protocol_error(&e);
                let code = match e {
                    ServiceError::UnsupportedVersion(_) => ErrorCode::Unsupported,
                    ServiceError::CrcMismatch
                    | ServiceError::BadMagic
                    | ServiceError::ConnectionClosed => ErrorCode::Corrupted,
                    _ => ErrorCode::Malformed,
                };
                Reply {
                    close: true,
                    ..Reply::error(code, e.to_string())
                }
            }
        };
        let conn = reader.get_mut();
        match write_frame(&mut conn.stream, reply.kind, &reply.payload) {
            Ok(()) if reply.counts_response => {
                state.stats.responses.fetch_add(1, Ordering::Relaxed);
            }
            Ok(()) => {}
            Err(ServiceError::Io(e)) if stalled(&e) => {
                // The peer stopped reading: a write stalled past the
                // deadline is dropped like a stalled read.
                state.stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break,
        }
        if reply.close {
            break;
        }
        conn.since = Instant::now();
    }
    reader.get_ref().stream.close();
}

/// The accept thread: one thread per connection until the drain. It
/// returns the handles of the connection threads still running.
fn accept_loop(listener: &AnyListener, state: &Arc<ServerState>) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for n in 0u64.. {
        let accepted = listener.accept();
        // The drain's wake-up dial, or a client racing it: not served.
        if state.draining() {
            break;
        }
        let Ok(stream) = accepted else {
            thread::sleep(TICK / 10);
            continue;
        };
        let (done, live) = conns.into_iter().partition(|c| c.is_finished());
        conns = live;
        for conn in done {
            reap(conn, &state.stats);
        }
        state.stats.connections.fetch_add(1, Ordering::Relaxed);
        let conn_state = Arc::clone(state);
        if let Ok(conn) = thread::Builder::new()
            .name(format!("uov-service-conn-{n}"))
            .spawn(move || serve_conn(stream, &conn_state))
        {
            conns.push(conn);
        }
    }
    conns
}

/// Join a connection thread. A panic that escaped it, outside a plan's
/// `catch_unwind`, counts in `panics` too.
fn reap(conn: JoinHandle<()>, stats: &Counters) {
    if conn.join().is_err() {
        stats.panics.fetch_add(1, Ordering::Relaxed);
    }
}

/// Cancel plans that hold a compute slot past the wedge timeout,
/// degrading them to certified legal answers via their budgets. Exits
/// once the drain flag is up.
fn watchdog_loop(state: &ServerState) {
    let wedge = state.config.wedge_timeout;
    while !state.draining() {
        thread::sleep(Duration::from_millis(20));
        for slot in &state.busy {
            if let Some(busy) = lock(slot).as_ref() {
                if busy.since.elapsed() > wedge && !busy.cancel.swap(true, Ordering::SeqCst) {
                    state.stats.watchdog_cancels.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: JoinHandle<Vec<JoinHandle<()>>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound endpoint — for TCP this resolves an `:0` request
    /// to the assigned port (`"127.0.0.1:43817"`), for Unix sockets it is
    /// the `unix:<path>` string.
    pub fn endpoint(&self) -> &str {
        &self.state.endpoint
    }

    /// Begin a graceful drain: stop accepting, finish running plans,
    /// answer waiting and new ones with `ShuttingDown`.
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Current traffic counters.
    pub fn stats(&self) -> ServerStats {
        self.state.stats.snapshot()
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Current health/readiness report, as `REQ_HEALTH` would answer it.
    pub fn health(&self) -> HealthResponse {
        self.state.health()
    }

    /// Wait for the drain to finish: the accept thread, then every
    /// connection thread, then the watchdog exit. The plan cache goes
    /// with the server: a restarted server starts cold.
    pub fn join(self) -> ServerStats {
        for conn in self.accept.join().unwrap_or_default() {
            reap(conn, &self.state.stats);
        }
        if let Some(watchdog) = self.watchdog {
            let _ = watchdog.join();
        }
        self.state.stats.snapshot()
    }
}

/// Bind `endpoint` (a TCP address like `"127.0.0.1:0"`, or
/// `"unix:<path>"`) and serve planning requests until shutdown.
///
/// # Errors
///
/// [`ServiceError::Io`] if the endpoint cannot be bound or a thread
/// cannot be started.
pub fn serve(endpoint: &str, config: ServerConfig) -> Result<ServerHandle, ServiceError> {
    let (listener, endpoint) = AnyListener::bind(endpoint)?;
    let workers = config.workers.max(1);
    let state = Arc::new(ServerState {
        endpoint,
        cache: PlanCache::new(config.cache_capacity.max(1)),
        shutdown: AtomicBool::new(false),
        stats: Counters::default(),
        gate: Gate::new(workers, config.queue_depth.max(1)),
        busy: (0..workers).map(|_| Mutex::new(None)).collect(),
        config,
    });
    let watchdog = if state.config.wedge_timeout.is_zero() {
        None
    } else {
        let watchdog_state = Arc::clone(&state);
        Some(
            thread::Builder::new()
                .name("uov-service-watchdog".into())
                .spawn(move || watchdog_loop(&watchdog_state))?,
        )
    };
    let accept_state = Arc::clone(&state);
    let accept = thread::Builder::new()
        .name("uov-service-accept".into())
        .spawn(move || accept_loop(&listener, &accept_state))
        .inspect_err(|_| state.begin_drain())?;
    Ok(ServerHandle {
        state,
        accept,
        watchdog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::{encode_frame, CacheOutcome};
    use uov_core::npc::PartitionInstance;
    use uov_isg::{ivec, RectDomain};

    fn fig1() -> Stencil {
        Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap()
    }

    /// An effectively unbounded search instance (NP-hard reduction),
    /// used to hold a compute slot for a deadline's worth of time.
    fn wedge() -> Stencil {
        let inst = PartitionInstance::new(vec![5, 5, 4, 3, 2, 1]).unwrap();
        let (stencil, _) = inst.reduce().unwrap();
        stencil
    }

    fn plain(stencil: Stencil) -> PlanRequest {
        PlanRequest {
            stencil,
            objective: ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        }
    }

    fn start() -> ServerHandle {
        serve("127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    #[test]
    fn round_trip_plan_over_tcp() {
        let server = start();
        let mut client = Client::connect(server.endpoint()).unwrap();
        let resp = client.plan(&plain(fig1())).unwrap();
        assert_eq!(resp.uov, ivec![1, 1]);
        assert_eq!(resp.cost, 2);
        assert_eq!(resp.degradation, DegradationCode::None);
        assert_eq!(resp.cache, CacheOutcome::Miss);
        assert_ne!(resp.certificate_hash, 0);
        server.shutdown();
        let stats = server.join();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.responses, 1);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn repeat_requests_hit_the_cache_with_identical_certificates() {
        let server = start();
        let req = PlanRequest {
            stencil: fig1(),
            objective: ObjectiveSpec::KnownBounds(RectDomain::grid(6, 6)),
            deadline_ms: 0,
            flags: 0,
        };
        let mut client = Client::connect(server.endpoint()).unwrap();
        let cold = client.plan(&req).unwrap();
        let warm = client.plan(&req).unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(cold.uov, warm.uov);
        assert_eq!(cold.cost, warm.cost);
        assert_eq!(cold.certificate_hash, warm.certificate_hash);
        assert_eq!(server.cache_stats().hits, 1);
        server.shutdown();
        server.join();
    }

    #[test]
    fn no_cache_flag_bypasses_the_cache() {
        let server = start();
        let req = PlanRequest {
            stencil: fig1(),
            objective: ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: FLAG_NO_CACHE,
        };
        let mut client = Client::connect(server.endpoint()).unwrap();
        let a = client.plan(&req).unwrap();
        let b = client.plan(&req).unwrap();
        assert_eq!(a.cache, CacheOutcome::Miss);
        assert_eq!(b.cache, CacheOutcome::Miss);
        assert_eq!((a.uov, a.cost), (b.uov.clone(), b.cost));
        server.shutdown();
        server.join();
    }

    #[test]
    fn client_shutdown_drains_the_server() {
        let server = start();
        let endpoint = server.endpoint().to_string();
        let mut client = Client::connect(&endpoint).unwrap();
        client.shutdown_server().unwrap();
        let stats = server.join();
        // The drain completed; a fresh connection must now fail.
        assert!(
            Client::connect(&endpoint).is_err() || {
                // The OS may still accept into the dead listener's backlog;
                // a plan over such a connection must then fail.
                let mut c = Client::connect(&endpoint).unwrap();
                c.plan(&plain(fig1())).is_err()
            }
        );
        assert_eq!(stats.panics, 0);
    }

    /// Frame kinds 10 and 11 once carried distributed work units, 12 and
    /// 13 neighbour replication pushes, 14 and 15 multi-plan batches.
    /// Each retired kind is an unknown one: answered `Unsupported`,
    /// counted as a protocol error, and the connection stays at a frame
    /// boundary. Kind 12 carries the payload that once planted `Σvᵢ` =
    /// (2, 2) at cost 8 as fig1's cached answer; the optimum, (1, 1) at
    /// cost 2, must still be served.
    #[test]
    fn retired_work_unit_kind_is_unsupported_and_keeps_the_connection() {
        use uov_core::wire::Encoder;
        // The retired replication payload: the problem as in `REQ_PLAN`,
        // then the pushed answer, its cost and a zero flag byte.
        let mut push = Encoder::new();
        push.u16(2);
        push.u32(3);
        for v in fig1().iter() {
            push.vec(v);
        }
        push.u8(0);
        push.vec(&fig1().sum());
        push.u128(8);
        push.u8(0);

        let server = start();
        let mut stream = std::net::TcpStream::connect(server.endpoint()).unwrap();
        let mut exchange = |frame_kind: u8, payload: &[u8]| {
            write_frame(&mut stream, frame_kind, payload).unwrap();
            read_frame(&mut stream).unwrap().unwrap()
        };
        let retired: [(u8, &[u8]); 6] = [
            (10, &[]),
            (11, &[]),
            (12, &push.buf),
            (13, &[1]),
            (14, &[]),
            (15, &[]),
        ];
        for (n, (frame_kind, payload)) in (1..).zip(retired) {
            let reply = exchange(frame_kind, payload);
            let plan = exchange(kind::REQ_PLAN, &plain(fig1()).encode());
            assert_eq!(plan.kind, kind::RESP_PLAN);
            let plan = PlanResponse::decode(&plan.payload).unwrap();
            assert_eq!(
                (plan.uov, plan.cost),
                (ivec![1, 1], 2),
                "after kind {frame_kind}"
            );

            assert_eq!(reply.kind, kind::RESP_ERROR, "kind {frame_kind}");
            let err = ErrorResponse::decode(&reply.payload).unwrap();
            assert_eq!(err.code, ErrorCode::Unsupported, "{err:?}");
            assert_eq!(server.stats().protocol_errors, n);
        }
        server.shutdown();
        assert_eq!(server.join().protocol_errors, 6);
    }

    #[test]
    fn unix_socket_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("uov-service-test-{}.sock", std::process::id()));
        let endpoint = format!("unix:{}", path.display());
        let server = serve(&endpoint, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.endpoint()).unwrap();
        let resp = client.plan(&plain(fig1())).unwrap();
        assert_eq!(resp.uov, ivec![1, 1]);
        server.shutdown();
        server.join();
        let _ = std::fs::remove_file(&path);
    }

    /// The one admission rule: with the only compute slot wedged and the
    /// one-place queue full, a further request is shed with a typed
    /// `Overloaded`, and the queued request is still answered.
    #[test]
    fn a_full_queue_sheds_with_typed_overloaded() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let ask = |req: PlanRequest| {
            let ep = server.endpoint().to_string();
            std::thread::spawn(move || Client::connect(&ep).unwrap().plan(&req))
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        let busy = ask(PlanRequest {
            deadline_ms: 2000,
            ..plain(wedge())
        });
        wait_for("the wedge never reached a compute slot", &|| {
            server.stats().requests == 1
        });
        let queued = ask(plain(fig1()));
        wait_for("the queue never filled", &|| server.health().queue_len == 1);

        let err = Client::connect(server.endpoint())
            .unwrap()
            .plan(&plain(fig1()))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Rejected {
                    code: ErrorCode::Overloaded,
                    ..
                }
            ),
            "{err:?}"
        );
        let answer = queued.join().unwrap().unwrap();
        assert_eq!((answer.uov, answer.cost), (ivec![1, 1], 2));
        busy.join().unwrap().unwrap();
        server.shutdown();
        let stats = server.join();
        assert_eq!(stats.rejected_overloaded, 1);
        assert_eq!(stats.panics, 0);
    }

    /// Frames written back to back in one write are answered in order on
    /// their connection: a plan, a health probe, then a second plan.
    #[test]
    fn pipelined_frames_are_answered_in_order() {
        let server = start();
        let grid = PlanRequest {
            objective: ObjectiveSpec::KnownBounds(RectDomain::grid(6, 6)),
            ..plain(fig1())
        };
        let frames = [
            encode_frame(kind::REQ_PLAN, &plain(fig1()).encode()),
            encode_frame(kind::REQ_HEALTH, &[]),
            encode_frame(kind::REQ_PLAN, &grid.encode()),
        ]
        .concat();
        let mut stream = std::net::TcpStream::connect(server.endpoint()).unwrap();
        stream.write_all(&frames).unwrap();
        let mut next = || read_frame(&mut stream).unwrap().unwrap();
        let cost = |frame: Frame| {
            assert_eq!(frame.kind, kind::RESP_PLAN);
            PlanResponse::decode(&frame.payload).unwrap().cost
        };
        assert_eq!(cost(next()), 2);
        assert_eq!(next().kind, kind::RESP_HEALTH);
        assert_eq!(cost(next()), 11);
        server.shutdown();
        server.join();
    }

    /// Health and stats need no compute slot: while a long search holds
    /// the only one, a second connection's probes are answered at once.
    #[test]
    fn probes_are_answered_while_every_compute_slot_is_busy() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let endpoint = server.endpoint().to_string();
        let busy = std::thread::spawn(move || {
            Client::connect(&endpoint).unwrap().plan(&PlanRequest {
                deadline_ms: 2000,
                ..plain(wedge())
            })
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().requests == 0 {
            assert!(Instant::now() < deadline, "the wedge never started");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut probe = Client::connect(server.endpoint()).unwrap();
        // Far below the wedge's 2 s: a probe that waited for the slot
        // would time out.
        probe.set_timeout(Some(Duration::from_secs(1))).unwrap();
        let health = probe.health().unwrap();
        let stats = probe.stats().unwrap().server;
        assert_eq!(health.queue_len, 0);
        assert_eq!((stats.requests, stats.responses), (1, 0));
        busy.join().unwrap().unwrap();
        server.shutdown();
        server.join();
    }

    /// The drain closes quiet connections within a tick: a client that
    /// planned once and stays connected does not hold `join` until the
    /// 30 s idle deadline.
    #[test]
    fn drain_does_not_wait_for_idle_connections() {
        let server = start();
        let mut client = Client::connect(server.endpoint()).unwrap();
        client.plan(&plain(fig1())).unwrap();
        let clock = Instant::now();
        server.shutdown();
        let stats = server.join();
        assert!(
            clock.elapsed() < Duration::from_secs(5),
            "join took {:?}",
            clock.elapsed()
        );
        assert_eq!((stats.responses, stats.idle_timeouts), (1, 0));
        drop(client);
    }
}

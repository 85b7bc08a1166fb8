//! The planning server: an epoll readiness loop feeding a bounded
//! compute pool, speaking the framed protocol of [`crate::proto`].
//! epoll is the only backend, so this crate builds on Linux only; any
//! other target stops at one `compile_error!`.
//!
//! One event thread owns every socket. Connections are per-connection
//! state machines: bytes accumulate in a read buffer and frames are
//! parsed incrementally by [`crate::proto::parse_frame`], the codec the
//! blocking client reads with too. A thousand idle or slow connections
//! cost no threads, and a slow-loris sender (one byte per second) is
//! reaped by the read deadline like any other stalled peer. Parsed
//! compute frames are admitted — or shed — on the event thread and
//! executed in arrival order on a fixed pool of worker threads.
//!
//! Admission has one rule: a compute frame that finds the bounded queue
//! full ([`ServerConfig::queue_depth`]) is shed with a typed `Overloaded`
//! (`rejected_overloaded`). A client that wants an answer within a time
//! bound says so with the request's `deadline_ms`: the search then stops
//! at the deadline with the best certified legal UOV found (at worst
//! `Σvᵢ`).
//!
//! Shutdown is a drain, not a kill: the drain flag stops the accept
//! path, in-flight searches run to completion, queued-but-unstarted
//! work and frames arriving after the flag are answered `ShuttingDown`,
//! and [`ServerHandle::join`] returns once the event thread and every
//! worker have exited. Health and stats probes are answered inline on
//! the event thread — even mid-drain, and even while every worker is
//! busy or wedged.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use uov_core::certify::certify;
use uov_core::search::{find_best_uov, SearchConfig, SearchStats};
use uov_core::{Budget, SearchResult};
use uov_isg::Stencil;

use crate::error::{ErrorCode, ServiceError};
use crate::plan_cache::{CacheStats, PlanCache, Planned, DEFAULT_CACHE_CAPACITY};
use crate::proto::{
    encode_frame, kind, parse_frame, DegradationCode, ErrorResponse, Frame, HealthResponse,
    ObjectiveSpec, PlanRequest, PlanResponse, StatsResponse, FLAG_NO_CACHE, MAX_FRAME_LEN,
};

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute-pool threads running searches (the event thread that owns
    /// the sockets is separate and never runs a search).
    pub workers: usize,
    /// Bounded compute-queue depth between admission and the workers.
    /// A full queue sheds further requests with `Overloaded`.
    pub queue_depth: usize,
    /// Distinct canonical plans retained by the cache.
    pub cache_capacity: usize,
    /// Read deadline in ~100 ms ticks: a connection that completes no
    /// frame for this long (idle, half-open, or slow-loris) is dropped.
    /// Default ≈ 30 s. Connections with a response in flight or output
    /// still buffered are never reaped.
    pub idle_ticks: u32,
    /// How long a worker may stay busy on a single request before the
    /// watchdog trips its budget's cancellation token, degrading the
    /// search to the best certified legal answer found so far.
    /// `Duration::ZERO` (the default) disables wedge detection —
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
    /// Connections accepted by the event loop.
    pub connections: u64,
    /// Requests shed with `Overloaded` because the compute queue was
    /// full.
    pub rejected_overloaded: u64,
    /// Plan requests admitted to a worker.
    pub requests: u64,
    /// Response frames fully written back to a client.
    pub responses: u64,
    /// Frames rejected for protocol violations (bad magic, CRC, torn
    /// frames, malformed payloads).
    pub protocol_errors: u64,
    /// Requests answered `ShuttingDown` during the drain.
    pub rejected_shutdown: u64,
    /// Worker executions that panicked (isolated; the pool survived).
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
    /// Wedged requests whose budgets the watchdog cancelled.
    pub watchdog_cancels: u64,
    /// Worker threads the watchdog found dead and respawned.
    pub worker_restarts: u64,
    /// Always 0: the server has no per-tenant quotas any more. The field
    /// (stats slot 26) exists solely because the benchmark
    /// (`perfbench/src/serve.rs`) still reads it and changes only
    /// together with the benchmark definition; new code reads
    /// `rejected_overloaded`.
    pub shed_over_quota: u64,
    /// Connections reaped by the idle/slow-loris read deadline.
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
    worker_restarts: AtomicU64,
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
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
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

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            AnyListener::Tcp(l) => l.set_nonblocking(nb),
            AnyListener::Unix(l) => l.set_nonblocking(nb),
        }
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

    fn raw_fd(&self) -> i32 {
        match self {
            AnyListener::Tcp(l) => l.as_raw_fd(),
            AnyListener::Unix(l) => l.as_raw_fd(),
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

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_nonblocking(nb),
            AnyStream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(t),
            AnyStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn close(&self) {
        let _ = match self {
            AnyStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            AnyStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn raw_fd(&self) -> i32 {
        match self {
            AnyStream::Tcp(s) => s.as_raw_fd(),
            AnyStream::Unix(s) => s.as_raw_fd(),
        }
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

// ------------------------------------------------------------- readiness

/// One readiness report from the poller.
struct PollEvent {
    token: u64,
    readable: bool,
    writable: bool,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

#[cfg(not(target_os = "linux"))]
compile_error!("uov-service's event loop is epoll-only: it builds on Linux");

/// epoll plus a self-pipe for compute-pool wakeups. Raw FFI — std
/// already links libc, so no new dependency.
mod poller {
    use super::{PollEvent, TOKEN_WAKE};
    use std::io;
    use std::os::raw::{c_int, c_void};

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const O_NONBLOCK: c_int = 0o4000;
    const O_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    pub(crate) struct Poller {
        epfd: c_int,
        wake_rd: c_int,
    }

    /// The write end of the self-pipe; cloned into every worker so a
    /// finished computation can interrupt `epoll_wait` immediately.
    pub(crate) struct Notifier {
        wake_wr: c_int,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<(Poller, Notifier)> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let mut fds: [c_int; 2] = [0; 2];
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
                let e = io::Error::last_os_error();
                unsafe { close(epfd) };
                return Err(e);
            }
            let p = Poller {
                epfd,
                wake_rd: fds[0],
            };
            p.add(fds[0], TOKEN_WAKE)?;
            Ok((p, Notifier { wake_wr: fds[1] }))
        }

        fn ctl(&self, op: c_int, fd: c_int, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` for reading.
        pub(crate) fn add(&self, fd: i32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN)
        }

        /// Change `fd`'s interest set.
        pub(crate) fn set(
            &self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let events =
                (if readable { EPOLLIN } else { 0 }) | (if writable { EPOLLOUT } else { 0 });
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        pub(crate) fn del(&self, fd: i32) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        pub(crate) fn wait(&self, timeout_ms: i32) -> Vec<PollEvent> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
            let n = loop {
                let n = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
                };
                if n >= 0 {
                    break n as usize;
                }
                if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                    break 0;
                }
            };
            buf[..n]
                .iter()
                .map(|ev| {
                    let bits = ev.events;
                    PollEvent {
                        token: ev.data,
                        readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                        writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    }
                })
                .collect()
        }

        pub(crate) fn drain_wake(&self) {
            let mut sink = [0u8; 256];
            loop {
                let n =
                    unsafe { read(self.wake_rd, sink.as_mut_ptr().cast::<c_void>(), sink.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_rd);
                close(self.epfd);
            }
        }
    }

    impl Notifier {
        pub(crate) fn notify(&self) {
            let byte = 1u8;
            unsafe {
                let _ = write(self.wake_wr, (&raw const byte).cast::<c_void>(), 1);
            }
        }
    }

    impl Drop for Notifier {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_wr);
            }
        }
    }
}

// ------------------------------------------------------------- scheduler

/// One admitted plan frame, queued for a worker.
struct WorkItem {
    token: u64,
    payload: Vec<u8>,
}

/// A finished computation, handed back to the event thread for writing.
struct Completion {
    token: u64,
    kind: u8,
    payload: Vec<u8>,
    counts_response: bool,
    close: bool,
}

#[derive(Default)]
struct SchedInner {
    queue: VecDeque<WorkItem>,
    closed: bool,
}

/// The compute queue: admitted frames in arrival order, shared by the
/// workers. Its length is bounded at admission, not here.
struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            inner: Mutex::new(SchedInner::default()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, item: WorkItem) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queue.push_back(item);
        drop(inner);
        self.cv.notify_one();
    }

    /// Blocking FIFO dequeue; `None` once closed and drained.
    fn pop(&self) -> Option<WorkItem> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(item) = inner.queue.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.closed = true;
        drop(inner);
        self.cv.notify_all();
    }
}

// ----------------------------------------------------------------- server

/// What one worker is doing right now, read and written under one lock so
/// the watchdog can never cancel a request that registered after its
/// busy-time check (the check and the trip are atomic w.r.t. registration).
#[derive(Default)]
struct BusyState {
    /// Milliseconds (since server start) when the current request began;
    /// `None` while idle.
    since_ms: Option<u64>,
    /// The current request's budget cancellation token.
    cancel: Option<Arc<AtomicBool>>,
}

/// Per-worker liveness bookkeeping for the watchdog.
#[derive(Default)]
struct WorkerSlot {
    /// Milliseconds (since server start) of the worker's last sign of
    /// life — updated on every dequeue and request boundary.
    heartbeat_ms: AtomicU64,
    /// The in-flight request, if any.
    busy: Mutex<BusyState>,
}

impl WorkerSlot {
    fn beat(&self, now_ms: u64) {
        self.heartbeat_ms.store(now_ms, Ordering::Relaxed);
    }

    fn begin_request(&self, now_ms: u64, cancel: Arc<AtomicBool>) {
        let mut busy = self.busy.lock().unwrap_or_else(|p| p.into_inner());
        busy.since_ms = Some(now_ms);
        busy.cancel = Some(cancel);
    }

    fn end_request(&self) {
        let mut busy = self.busy.lock().unwrap_or_else(|p| p.into_inner());
        busy.since_ms = None;
        busy.cancel = None;
    }
}

struct ServerState {
    config: ServerConfig,
    cache: PlanCache,
    shutdown: AtomicBool,
    stats: Counters,
    /// Work items sitting in the compute queue right now.
    queue_len: AtomicU64,
    /// Worker threads currently running their loop.
    workers_alive: AtomicU64,
    /// One slot per worker index, shared with the watchdog.
    slots: Vec<Arc<WorkerSlot>>,
    /// Server start, the epoch for all slot timestamps.
    started: Instant,
}

impl ServerState {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The readiness signal served by `REQ_HEALTH`.
    fn health(&self) -> HealthResponse {
        let draining = self.shutdown.load(Ordering::SeqCst);
        let workers_alive = self.workers_alive.load(Ordering::Relaxed) as u32;
        let queue_len = self.queue_len.load(Ordering::Relaxed) as u32;
        let queue_depth = self.config.queue_depth.max(1) as u32;
        HealthResponse {
            ready: !draining && workers_alive > 0 && queue_len < queue_depth,
            draining,
            workers_alive,
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

// ------------------------------------------------------------ event loop

/// One response (or error) frame queued for write, with a resume offset
/// for partial writes.
struct WriteBuf {
    bytes: Vec<u8>,
    off: usize,
    /// Count this frame in `responses` once fully written (plan answers
    /// do; errors and probes don't).
    counts_response: bool,
}

/// Per-connection state machine owned by the event thread.
struct Conn {
    stream: AnyStream,
    token: u64,
    /// Unparsed input. Bounded: reads stop once a full max-size frame
    /// could be buffered, so a flooding peer cannot balloon memory.
    rbuf: Vec<u8>,
    wqueue: VecDeque<WriteBuf>,
    /// Parsed frames not yet dispatched.
    pending: VecDeque<Frame>,
    /// A compute frame from this connection is on a worker. One frame in
    /// flight per connection keeps responses in request order.
    inflight: bool,
    /// A fatal protocol error to report — deferred until in-flight work
    /// has been answered, so a valid frame's response is flushed before
    /// the error reply and close.
    poisoned: Option<(ErrorCode, String)>,
    /// Close once the write queue drains.
    closing: bool,
    eof: bool,
    dead: bool,
    /// `now_ms` of the last *completed* frame, response write progress,
    /// or completion. A slow-loris peer trickling header bytes never
    /// resets it, so the idle deadline reaps it on schedule.
    progress_ms: u64,
    reg_read: bool,
    reg_write: bool,
}

fn enqueue_frame(conn: &mut Conn, frame_kind: u8, payload: &[u8], counts_response: bool) {
    conn.wqueue.push_back(WriteBuf {
        bytes: encode_frame(frame_kind, payload),
        off: 0,
        counts_response,
    });
}

/// Drain the socket into `rbuf` until `WouldBlock`, EOF, or the buffer
/// bound. Never parses — that is `service_conn`'s job.
fn read_conn(conn: &mut Conn) {
    if conn.poisoned.is_some() || conn.closing || conn.eof || conn.dead {
        return;
    }
    let mut tmp = [0u8; 16384];
    loop {
        if conn.rbuf.len() >= MAX_FRAME_LEN {
            break;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Reset mid-stream: nothing to answer, nobody listening.
                conn.dead = true;
                break;
            }
        }
    }
}

/// Write queued frames until `WouldBlock` or the queue drains.
fn flush_conn(conn: &mut Conn, state: &ServerState) {
    if conn.dead {
        return;
    }
    while let Some(front) = conn.wqueue.front_mut() {
        match conn.stream.write(&front.bytes[front.off..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                front.off += n;
                conn.progress_ms = state.now_ms();
                if front.off >= front.bytes.len() {
                    if front.counts_response {
                        state.stats.responses.fetch_add(1, Ordering::Relaxed);
                    }
                    conn.wqueue.pop_front();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Admit, shed, or answer one parsed frame. Probes (health/stats) and
/// shutdown are answered inline on the event thread — even mid-drain,
/// even with every worker wedged. Compute frames join the queue unless
/// it is full.
fn dispatch_frame(conn: &mut Conn, frame: Frame, state: &ServerState, sched: &Scheduler) {
    let Frame {
        kind: frame_kind,
        payload,
    } = frame;
    match frame_kind {
        kind::REQ_HEALTH => {
            enqueue_frame(conn, kind::RESP_HEALTH, &state.health().encode(), false);
        }
        kind::REQ_STATS => {
            enqueue_frame(
                conn,
                kind::RESP_STATS,
                &state.stats_response().encode(),
                false,
            );
        }
        kind::REQ_SHUTDOWN => {
            state.shutdown.store(true, Ordering::SeqCst);
            enqueue_frame(conn, kind::RESP_SHUTDOWN_ACK, &[], false);
            conn.closing = true;
        }
        kind::REQ_PLAN => {
            if state.shutdown.load(Ordering::SeqCst) {
                state
                    .stats
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                let err = ErrorResponse {
                    code: ErrorCode::ShuttingDown,
                    msg: "server is draining".into(),
                };
                enqueue_frame(conn, kind::RESP_ERROR, &err.encode(), false);
                conn.closing = true;
                return;
            }
            // The one admission rule: a full compute queue sheds.
            let qlen = state.queue_len.load(Ordering::Relaxed) as usize;
            if qlen >= state.config.queue_depth.max(1) {
                state
                    .stats
                    .rejected_overloaded
                    .fetch_add(1, Ordering::Relaxed);
                let err = ErrorResponse {
                    code: ErrorCode::Overloaded,
                    msg: "request queue is full".into(),
                };
                enqueue_frame(conn, kind::RESP_ERROR, &err.encode(), false);
                return;
            }
            state.queue_len.fetch_add(1, Ordering::Relaxed);
            sched.push(WorkItem {
                token: conn.token,
                payload,
            });
            conn.inflight = true;
        }
        other => {
            // The frame itself was intact (CRC passed), so the stream
            // stays at a frame boundary: report and keep the connection.
            state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let err = ErrorResponse {
                code: ErrorCode::Unsupported,
                msg: format!("unknown frame kind {other}"),
            };
            enqueue_frame(conn, kind::RESP_ERROR, &err.encode(), false);
        }
    }
}

/// Advance one connection's state machine: parse buffered bytes into
/// frames, dispatch them in order, finalize poison/EOF once in-flight
/// work has drained, flush output, and resync poller interest.
fn service_conn(conn: &mut Conn, state: &ServerState, sched: &Scheduler, poller: &poller::Poller) {
    if conn.poisoned.is_none() && !conn.closing {
        let mut consumed = 0;
        loop {
            match parse_frame(&conn.rbuf[consumed..]) {
                Ok(Some((frame, used))) => {
                    consumed += used;
                    conn.progress_ms = state.now_ms();
                    conn.pending.push_back(frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // Bad magic, wrong version, oversized prefix, CRC
                    // mismatch: the stream position is no longer
                    // trustworthy. Stop reading; the typed reply goes
                    // out once already-admitted work is answered. The
                    // reply distinguishes transit damage (`Corrupted`,
                    // safe to resend verbatim) from version skew
                    // (`Unsupported`).
                    state.stats.protocol_error(&e);
                    let code = match e {
                        ServiceError::UnsupportedVersion(_) => ErrorCode::Unsupported,
                        ServiceError::CrcMismatch
                        | ServiceError::BadMagic
                        | ServiceError::ConnectionClosed => ErrorCode::Corrupted,
                        _ => ErrorCode::Malformed,
                    };
                    conn.poisoned = Some((code, e.to_string()));
                    conn.rbuf.clear();
                    consumed = 0;
                    break;
                }
            }
        }
        if consumed > 0 {
            conn.rbuf.drain(..consumed);
        }
    }
    // EOF with a partial frame still buffered is a torn frame.
    if conn.eof && !conn.rbuf.is_empty() && conn.poisoned.is_none() && !conn.closing {
        let e = ServiceError::ConnectionClosed;
        state.stats.protocol_error(&e);
        conn.poisoned = Some((ErrorCode::Corrupted, e.to_string()));
        conn.rbuf.clear();
    }
    // Dispatch in arrival order, one compute frame in flight at a time
    // (pipelining happens across connections, ordering within one).
    while !conn.inflight && !conn.closing && !conn.dead {
        let Some(frame) = conn.pending.pop_front() else {
            break;
        };
        dispatch_frame(conn, frame, state, sched);
    }
    // Poison / EOF finalization waits for in-flight work so a valid
    // frame's answer is flushed before the error reply and the close.
    if !conn.inflight && conn.pending.is_empty() && !conn.closing {
        if let Some((code, msg)) = conn.poisoned.take() {
            let err = ErrorResponse { code, msg };
            enqueue_frame(conn, kind::RESP_ERROR, &err.encode(), false);
            conn.closing = true;
        } else if conn.eof {
            conn.closing = true;
        }
    }
    flush_conn(conn, state);
    let want_read = conn.poisoned.is_none() && !conn.closing && !conn.eof && !conn.dead;
    let want_write = !conn.wqueue.is_empty() && !conn.dead;
    if !conn.dead && (want_read != conn.reg_read || want_write != conn.reg_write) {
        conn.reg_read = want_read;
        conn.reg_write = want_write;
        let _ = poller.set(conn.stream.raw_fd(), conn.token, want_read, want_write);
    }
    if conn.closing && conn.wqueue.is_empty() && !conn.inflight {
        conn.dead = true;
    }
}

/// The event thread: owns the listener, every connection and the
/// poller. Exits once a drain has begun and the last
/// connection is gone, then closes the scheduler so workers drain and
/// exit.
fn event_loop(
    listener: &AnyListener,
    poller: &poller::Poller,
    state: &Arc<ServerState>,
    sched: &Arc<Scheduler>,
    completions: &Mutex<Vec<Completion>>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let _ = poller.add(listener.raw_fd(), TOKEN_LISTENER);
    loop {
        for ev in poller.wait(100) {
            match ev.token {
                TOKEN_WAKE => poller.drain_wake(),
                TOKEN_LISTENER => {
                    if state.shutdown.load(Ordering::SeqCst) {
                        continue;
                    }
                    loop {
                        match listener.accept() {
                            Ok(stream) => {
                                if stream.set_nonblocking(true).is_err() {
                                    stream.close();
                                    continue;
                                }
                                let token = next_token;
                                next_token += 1;
                                state.stats.connections.fetch_add(1, Ordering::Relaxed);
                                if poller.add(stream.raw_fd(), token).is_err() {
                                    stream.close();
                                    continue;
                                }
                                conns.insert(
                                    token,
                                    Conn {
                                        stream,
                                        token,
                                        rbuf: Vec::new(),
                                        wqueue: VecDeque::new(),
                                        pending: VecDeque::new(),
                                        inflight: false,
                                        poisoned: None,
                                        closing: false,
                                        eof: false,
                                        dead: false,
                                        progress_ms: state.now_ms(),
                                        reg_read: true,
                                        reg_write: false,
                                    },
                                );
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable {
                            read_conn(conn);
                        }
                        if ev.writable {
                            flush_conn(conn, state);
                        }
                        service_conn(conn, state, sched, poller);
                    }
                }
            }
        }
        // Completions from the pool: queue the response and resume the
        // connection's dispatch loop.
        let done: Vec<Completion> = {
            let mut guard = completions.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for comp in done {
            if let Some(conn) = conns.get_mut(&comp.token) {
                conn.inflight = false;
                conn.progress_ms = state.now_ms();
                enqueue_frame(conn, comp.kind, &comp.payload, comp.counts_response);
                if comp.close {
                    conn.poisoned = None;
                    conn.closing = true;
                }
                service_conn(conn, state, sched, poller);
            }
        }
        // Read-deadline and drain reaping. A connection with work in
        // flight is never reaped — its answer is still owed.
        let now = state.now_ms();
        let deadline_ms = u64::from(state.config.idle_ticks) * 100;
        let draining = state.shutdown.load(Ordering::SeqCst);
        for conn in conns.values_mut() {
            if conn.dead || conn.inflight {
                continue;
            }
            let expired = now.saturating_sub(conn.progress_ms) > deadline_ms;
            let quiescent = conn.wqueue.is_empty() && conn.pending.is_empty() && !conn.closing;
            if draining && quiescent {
                conn.dead = true;
            } else if expired && quiescent {
                state.stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
            } else if expired && !conn.wqueue.is_empty() {
                // The peer stopped reading: a write stalled past the
                // deadline is dropped like a stalled read.
                state.stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
            }
        }
        conns.retain(|_, conn| {
            if conn.dead {
                poller.del(conn.stream.raw_fd());
                conn.stream.close();
                false
            } else {
                true
            }
        });
        if draining && conns.is_empty() {
            break;
        }
    }
    sched.close();
}

// ------------------------------------------------------------ compute pool

/// Everything a worker thread needs, bundled so the watchdog can respawn
/// a dead worker with one `Arc` clone.
struct WorkerCtx {
    state: Arc<ServerState>,
    sched: Arc<Scheduler>,
    completions: Arc<Mutex<Vec<Completion>>>,
    notifier: Arc<poller::Notifier>,
}

/// Execute one admitted plan frame, returning the response frame as
/// `(kind, payload, counts_response)`.
fn execute_item(item: &WorkItem, state: &ServerState, slot: &WorkerSlot) -> (u8, Vec<u8>, bool) {
    // Queued-but-unstarted work admitted before the drain flag went up
    // is answered `ShuttingDown`, matching the old pool's behavior.
    if state.shutdown.load(Ordering::SeqCst) {
        state
            .stats
            .rejected_shutdown
            .fetch_add(1, Ordering::Relaxed);
        let err = ErrorResponse {
            code: ErrorCode::ShuttingDown,
            msg: "server is draining".into(),
        };
        return (kind::RESP_ERROR, err.encode(), false);
    }
    match PlanRequest::decode(&item.payload) {
        Ok(req) => {
            // Register with the watchdog before the (potentially long)
            // search, clear after.
            let cancel = Arc::new(AtomicBool::new(false));
            slot.begin_request(state.now_ms(), Arc::clone(&cancel));
            let outcome = state.handle_plan(&req, cancel);
            slot.end_request();
            match outcome {
                Ok(resp) => (kind::RESP_PLAN, resp.encode(), true),
                Err(err) => (kind::RESP_ERROR, err.encode(), false),
            }
        }
        Err(e) => {
            state.stats.protocol_error(&e);
            let err = ErrorResponse {
                code: ErrorCode::Malformed,
                msg: e.to_string(),
            };
            (kind::RESP_ERROR, err.encode(), false)
        }
    }
}

fn worker_loop(index: usize, ctx: &WorkerCtx) {
    let state = &ctx.state;
    state.workers_alive.fetch_add(1, Ordering::Relaxed);
    // Readiness must drop even if this loop unwinds or is replaced.
    struct Alive<'a>(&'a AtomicU64);
    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _alive = Alive(&state.workers_alive);
    let slot = Arc::clone(&state.slots[index % state.slots.len().max(1)]);
    while let Some(item) = ctx.sched.pop() {
        state.queue_len.fetch_sub(1, Ordering::Relaxed);
        slot.beat(state.now_ms());
        let outcome = catch_unwind(AssertUnwindSafe(|| execute_item(&item, state, &slot)));
        // A panic can escape mid-request: clear the watchdog registration
        // so a dead request's cancel token is never tripped later.
        slot.end_request();
        slot.beat(state.now_ms());
        let comp = match outcome {
            Ok((frame_kind, payload, counts_response)) => Completion {
                token: item.token,
                kind: frame_kind,
                payload,
                counts_response,
                close: false,
            },
            Err(_) => {
                state.stats.panics.fetch_add(1, Ordering::Relaxed);
                let err = ErrorResponse {
                    code: ErrorCode::Internal,
                    msg: "internal panic; request isolated".into(),
                };
                Completion {
                    token: item.token,
                    kind: kind::RESP_ERROR,
                    payload: err.encode(),
                    counts_response: false,
                    close: true,
                }
            }
        };
        {
            let mut guard = ctx.completions.lock().unwrap_or_else(|p| p.into_inner());
            guard.push(comp);
        }
        ctx.notifier.notify();
    }
}

fn spawn_worker(index: usize, ctx: &Arc<WorkerCtx>) -> Result<JoinHandle<()>, ServiceError> {
    let ctx = Arc::clone(ctx);
    thread::Builder::new()
        .name(format!("uov-service-worker-{index}"))
        .spawn(move || worker_loop(index, &ctx))
        .map_err(ServiceError::Io)
}

/// Poll the worker pool: cancel requests stuck past the wedge timeout
/// (degrading them to certified legal answers via their budgets) and
/// respawn worker threads that died outright. Exits once the drain flag
/// is up — the pool is winding down then anyway.
fn watchdog_loop(ctx: &Arc<WorkerCtx>, workers: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let state = &ctx.state;
    let wedge_ms = state.config.wedge_timeout.as_millis() as u64;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        thread::sleep(Duration::from_millis(20));

        if wedge_ms > 0 {
            let now = state.now_ms();
            for slot in &state.slots {
                let busy = slot.busy.lock().unwrap_or_else(|p| p.into_inner());
                if let (Some(since), Some(cancel)) = (busy.since_ms, busy.cancel.as_ref()) {
                    if now.saturating_sub(since) > wedge_ms && !cancel.swap(true, Ordering::SeqCst)
                    {
                        state.stats.watchdog_cancels.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        // A worker thread that is gone (its panic isolation itself failed,
        // or it was killed by the OS) is replaced in place so the pool
        // never shrinks below its configured size.
        let mut ws = workers.lock().unwrap_or_else(|p| p.into_inner());
        for (i, handle) in ws.iter_mut().enumerate() {
            if handle.is_finished() && !state.shutdown.load(Ordering::SeqCst) {
                if let Ok(fresh) = spawn_worker(i, ctx) {
                    let dead = std::mem::replace(handle, fresh);
                    let _ = dead.join();
                    state.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    endpoint: String,
    state: Arc<ServerState>,
    event_thread: Option<JoinHandle<()>>,
    /// Shared with the watchdog, which replaces dead handles in place.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound endpoint — for TCP this resolves an `:0` request
    /// to the assigned port (`"127.0.0.1:43817"`), for Unix sockets it is
    /// the `unix:<path>` string.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Begin a graceful drain: stop accepting, finish in-flight work,
    /// answer new frames with `ShuttingDown`.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
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

    /// Wait for the drain to finish: the event loop, the watchdog, and
    /// every worker exit, in-flight connections included. The plan cache
    /// goes with the server: a restarted server starts cold.
    pub fn join(mut self) -> ServerStats {
        // The event thread exits once the drain empties the connection
        // table, closing both the listener and the scheduler — which in
        // turn lets the workers drain the queue and exit.
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.watchdog.take() {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut ws = self.workers.lock().unwrap_or_else(|p| p.into_inner());
            ws.drain(..).collect()
        };
        for w in handles {
            let _ = w.join();
        }
        self.state.stats.snapshot()
    }
}

/// Bind `endpoint` (a TCP address like `"127.0.0.1:0"`, or
/// `"unix:<path>"`) and serve planning requests until shutdown.
///
/// # Errors
///
/// [`ServiceError::Io`] if the endpoint cannot be bound or the readiness
/// poller cannot be created.
pub fn serve(endpoint: &str, config: ServerConfig) -> Result<ServerHandle, ServiceError> {
    let workers = config.workers.max(1);
    let (listener, bound) = AnyListener::bind(endpoint)?;
    listener.set_nonblocking(true)?;

    let state = Arc::new(ServerState {
        cache: PlanCache::new(config.cache_capacity.max(1)),
        shutdown: AtomicBool::new(false),
        stats: Counters::default(),
        queue_len: AtomicU64::new(0),
        workers_alive: AtomicU64::new(0),
        slots: (0..workers)
            .map(|_| Arc::new(WorkerSlot::default()))
            .collect(),
        started: Instant::now(),
        config,
    });

    let (poller, notifier) = poller::Poller::new().map_err(ServiceError::Io)?;
    let sched = Arc::new(Scheduler::new());
    let completions = Arc::new(Mutex::new(Vec::new()));
    let ctx = Arc::new(WorkerCtx {
        state: Arc::clone(&state),
        sched: Arc::clone(&sched),
        completions: Arc::clone(&completions),
        notifier: Arc::new(notifier),
    });

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        worker_handles.push(spawn_worker(i, &ctx)?);
    }
    let worker_handles = Arc::new(Mutex::new(worker_handles));

    let ev_state = Arc::clone(&state);
    let ev_sched = Arc::clone(&sched);
    let ev_completions = Arc::clone(&completions);
    let event_thread = thread::Builder::new()
        .name("uov-service-event".into())
        .spawn(move || event_loop(&listener, &poller, &ev_state, &ev_sched, &ev_completions))
        .map_err(ServiceError::Io)?;

    let watchdog_ctx = Arc::clone(&ctx);
    let watchdog_workers = Arc::clone(&worker_handles);
    let watchdog = thread::Builder::new()
        .name("uov-service-watchdog".into())
        .spawn(move || watchdog_loop(&watchdog_ctx, &watchdog_workers))
        .map_err(ServiceError::Io)?;

    Ok(ServerHandle {
        endpoint: bound,
        state,
        event_thread: Some(event_thread),
        workers: worker_handles,
        watchdog: Some(watchdog),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::{read_frame, write_frame, CacheOutcome};
    use uov_core::npc::PartitionInstance;
    use uov_isg::{ivec, RectDomain};

    fn fig1() -> Stencil {
        Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap()
    }

    /// An effectively unbounded search instance (NP-hard reduction),
    /// used to pin a worker busy for a deadline's worth of time.
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

    /// The one admission rule: with the only worker wedged and the
    /// one-slot queue full, a further request is shed with a typed
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
        wait_for("the wedge never reached the worker", &|| {
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
}

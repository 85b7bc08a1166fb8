//! The length-prefixed binary planning protocol.
//!
//! Every message travels as one self-checking frame:
//!
//! ```text
//! magic   b"UOVS"                      4 bytes
//! version u16 LE (= 1)                 2 bytes
//! kind    u8                           1 byte
//! len     u32 LE payload length        4 bytes   (≤ MAX_PAYLOAD)
//! payload len bytes
//! crc     u32 LE CRC-32 over           4 bytes
//!         magic ‖ version ‖ kind ‖ len ‖ payload
//! ```
//!
//! One frame carries one request or one answer. The header is fixed-size
//! and checked as it arrives: a foreign magic or any version but 1 is
//! rejected once those bytes are present (version 2 once carried a tenant
//! id and is retired), and `len` is validated against [`MAX_PAYLOAD`]
//! *before* any allocation, so a hostile length prefix cannot balloon
//! memory. The CRC covers the header too — a bit flip anywhere in the
//! frame is detected. Encoding reuses the same [`uov_core::wire`]
//! primitives as the checkpoint format.
//!
//! This module is the only code that knows the frame layout:
//! [`encode_frame`]/[`write_frame`] build frames, and [`read_frame`] is
//! the one frame reader. The server's connection threads and the client
//! pull frames with it, and the chaos proxy with its unverified form,
//! through the same header parse.

use std::io::{self, Read, Write};

use uov_core::search::Objective;
use uov_core::wire::{crc32, Decoder, Encoder};
use uov_isg::{IVec, RectDomain, Stencil};

use crate::error::{ErrorCode, ServiceError};

/// Frame magic: "UOV service".
pub const MAGIC: &[u8; 4] = b"UOVS";
/// The protocol version. Version 2 (a tenant id in the header) is
/// retired: readers reject it like any unknown version.
pub const VERSION: u16 = 1;
/// Hard cap on a frame's payload. Generous for any realistic stencil
/// (a request of 1 MiB holds ~16k stencil vectors in 8 dimensions) and
/// small enough that a hostile length prefix cannot exhaust memory.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Bytes of the fixed frame header (magic, version, kind, len).
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;

/// Frame kinds. The numeric values are wire format; never reassign them.
pub mod kind {
    /// Client → server: plan this stencil.
    pub const REQ_PLAN: u8 = 1;
    /// Server → client: the plan.
    pub const RESP_PLAN: u8 = 2;
    /// Server → client: typed failure.
    pub const RESP_ERROR: u8 = 3;
    /// Client → server: drain and exit.
    pub const REQ_SHUTDOWN: u8 = 4;
    /// Server → client: shutdown acknowledged.
    pub const RESP_SHUTDOWN_ACK: u8 = 5;
    /// Client → server: liveness/readiness probe. Answered even during a
    /// drain, so orchestrators can watch a replica all the way down.
    pub const REQ_HEALTH: u8 = 6;
    /// Server → client: health report.
    pub const RESP_HEALTH: u8 = 7;
    /// Client → server: counter snapshot probe (also answered mid-drain).
    pub const REQ_STATS: u8 = 8;
    /// Server → client: server + cache counter snapshot.
    pub const RESP_STATS: u8 = 9;
    // Kinds 10 and 11 carried distributed work units, 12 and 13 neighbour
    // replication pushes, 14 and 15 multi-plan batches. Retired: never
    // reuse them.
}

/// What the request wants minimised — an owned mirror of
/// [`uov_core::search::Objective`], which borrows its domain and so
/// cannot cross a serialization boundary itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectiveSpec {
    /// Minimise the squared Euclidean length of the UOV.
    ShortestVector,
    /// Minimise storage classes over a concrete rectangular domain.
    KnownBounds(RectDomain),
}

impl ObjectiveSpec {
    /// Borrow as the core search objective.
    pub fn as_objective(&self) -> Objective<'_> {
        match self {
            ObjectiveSpec::ShortestVector => Objective::ShortestVector,
            ObjectiveSpec::KnownBounds(d) => Objective::KnownBounds(d),
        }
    }
}

/// Request flags bitfield: skip the plan cache entirely (always solve
/// fresh, never read or write a cached entry). Used by differential
/// tests and benchmarks to obtain cold-solve references.
pub const FLAG_NO_CACHE: u32 = 1;

/// A planning request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// The statement's flow-dependence stencil.
    pub stencil: Stencil,
    /// What to minimise.
    pub objective: ObjectiveSpec,
    /// Per-request budget deadline in milliseconds; `0` means unlimited.
    /// When the deadline expires mid-search the server degrades to the
    /// best legal UOV found (at worst `Σvᵢ`) instead of erroring.
    pub deadline_ms: u32,
    /// Bitfield of `FLAG_*` values.
    pub flags: u32,
}

/// How the cache served a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A fresh branch-and-bound search ran for this request.
    Miss,
    /// Served from the canonicalizing plan cache.
    Hit,
    /// Deduplicated onto a concurrent identical request's search.
    Coalesced,
}

impl CacheOutcome {
    fn to_u8(self) -> u8 {
        match self {
            CacheOutcome::Miss => 0,
            CacheOutcome::Hit => 1,
            CacheOutcome::Coalesced => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(CacheOutcome::Miss),
            1 => Some(CacheOutcome::Hit),
            2 => Some(CacheOutcome::Coalesced),
            _ => None,
        }
    }
}

/// Why a response is degraded (budget-cut), if it is. Mirrors
/// [`uov_core::budget::Exhausted`] on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationCode {
    /// The search ran to completion; the answer is optimal.
    None,
    /// The wall-clock deadline passed.
    Deadline,
    /// The node cap was reached.
    Nodes,
    /// The memo cap was reached.
    Memo,
    /// The request was cancelled.
    Cancelled,
    // Byte 5 marked a load-pressure `Σvᵢ` answer. Retired: it decodes
    // as malformed.
}

impl DegradationCode {
    fn to_u8(self) -> u8 {
        match self {
            DegradationCode::None => 0,
            DegradationCode::Deadline => 1,
            DegradationCode::Nodes => 2,
            DegradationCode::Memo => 3,
            DegradationCode::Cancelled => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(DegradationCode::None),
            1 => Some(DegradationCode::Deadline),
            2 => Some(DegradationCode::Nodes),
            3 => Some(DegradationCode::Memo),
            4 => Some(DegradationCode::Cancelled),
            _ => None,
        }
    }

    /// Convert from the core budget's exhaustion reason.
    pub fn from_exhausted(e: Option<uov_core::budget::Exhausted>) -> Self {
        use uov_core::budget::Exhausted;
        match e {
            None => DegradationCode::None,
            Some(Exhausted::Deadline) => DegradationCode::Deadline,
            Some(Exhausted::Nodes) => DegradationCode::Nodes,
            Some(Exhausted::Memo) => DegradationCode::Memo,
            Some(Exhausted::Cancelled) => DegradationCode::Cancelled,
        }
    }
}

/// A planning response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanResponse {
    /// The universal occupancy vector.
    pub uov: IVec,
    /// Its objective value.
    pub cost: u128,
    /// Transcript hash of the server-side certificate: the client can
    /// compare it against a local [`uov_core::certify::certify`] run to
    /// confirm it received the same certified answer a cold solve yields.
    pub certificate_hash: u64,
    /// Whether (and why) the answer is budget-degraded.
    pub degradation: DegradationCode,
    /// How the plan cache served this request.
    pub cache: CacheOutcome,
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// What class of failure.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub msg: String,
}

/// A liveness/readiness report (the frame body of a `RESP_HEALTH`).
///
/// Liveness is implied by the answer arriving at all; `ready` is the
/// admission signal: the server is not draining and fewer than
/// `queue_depth` plans wait for a compute slot, so a new request is
/// likely to be served rather than shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthResponse {
    /// Whether the replica should receive new traffic.
    pub ready: bool,
    /// Whether a graceful drain has begun.
    pub draining: bool,
    /// The server's compute slots: how many plans may run at once. (The
    /// name is kept from the worker pool that the slots replaced.)
    pub workers_alive: u32,
    /// Plans waiting for a compute slot.
    pub queue_len: u32,
    /// How many plans may wait before new ones are shed.
    pub queue_depth: u32,
}

impl HealthResponse {
    /// Serialize the health payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(16);
        e.u8(u8::from(self.ready));
        e.u8(u8::from(self.draining));
        e.u32(self.workers_alive);
        e.u32(self.queue_len);
        e.u32(self.queue_depth);
        e.buf
    }

    /// Decode a `RESP_HEALTH` payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on truncation, [`ServiceError::Malformed`]
    /// on non-boolean flags or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut d = Decoder::new(payload);
        let ready = match d.u8()? {
            0 => false,
            1 => true,
            v => return Err(ServiceError::Malformed(format!("bad ready flag {v}"))),
        };
        let draining = match d.u8()? {
            0 => false,
            1 => true,
            v => return Err(ServiceError::Malformed(format!("bad draining flag {v}"))),
        };
        let workers_alive = d.u32()?;
        let queue_len = d.u32()?;
        let queue_depth = d.u32()?;
        if d.remaining() != 0 {
            return Err(ServiceError::Malformed("trailing bytes in health".into()));
        }
        Ok(HealthResponse {
            ready,
            draining,
            workers_alive,
            queue_len,
            queue_depth,
        })
    }
}

/// A counter snapshot (the frame body of a `RESP_STATS`): the server's
/// traffic and fault counters plus the plan cache's counters, so chaos
/// tests can assert on *server-observed* fault counts instead of
/// inferring them from client-side behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// The server's monotone traffic/fault counters.
    pub server: crate::server::ServerStats,
    /// The plan cache's monotone counters.
    pub cache: crate::plan_cache::CacheStats,
}

impl StatsResponse {
    /// Serialize the stats payload. Fields travel as a count-prefixed
    /// list of `u64`s at fixed positions, so an older client can read the
    /// counters it knows and skip the rest. Position 12 counted worker
    /// threads respawned by the retired compute pool. Positions 17 (work
    /// units), 20–21 (bound gossip), 24 (stale epochs) and 25
    /// (anti-entropy repairs) belonged to the retired distributed search,
    /// 16, 18 and 19 (cache snapshot loads) and 22–23 (entries pushed by
    /// peers, and their hits) to the retired ways into the plan cache,
    /// and 27–28 (pressure answers, batch frames) to the retired
    /// admission tiers: they are written as 0 and ignored on read.
    /// Position 30 and the per-tenant pairs after it are no longer
    /// written.
    pub fn encode(&self) -> Vec<u8> {
        let s = &self.server;
        let c = &self.cache;
        let fields = [
            s.connections,
            s.rejected_overloaded,
            s.requests,
            s.responses,
            s.protocol_errors,
            s.rejected_shutdown,
            s.panics,
            s.crc_failures,
            s.bad_magic,
            s.bad_version,
            s.oversized_frames,
            s.watchdog_cancels,
            0,
            c.hits,
            c.misses,
            c.coalesced,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            s.shed_over_quota,
            0,
            0,
            s.idle_timeouts,
        ];
        let mut e = Encoder::with_capacity(4 + 8 * fields.len());
        e.u32(fields.len() as u32);
        for v in fields {
            e.u64(v);
        }
        e.buf
    }

    /// Decode a `RESP_STATS` payload. Unknown trailing counters from a
    /// newer server are tolerated; missing counters read as zero.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on truncation,
    /// [`ServiceError::Malformed`] when the declared count exceeds the
    /// payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut d = Decoder::new(payload);
        let n = d.u32()? as usize;
        let need = n
            .checked_mul(8)
            .ok_or_else(|| ServiceError::Malformed("counter count overflows".into()))?;
        if need > d.remaining() {
            return Err(ServiceError::Malformed(
                "declared counters exceed the payload".into(),
            ));
        }
        let mut fields = [0u64; 30];
        for (i, slot) in fields.iter_mut().enumerate() {
            if i < n {
                *slot = d.u64()?;
            }
        }
        // Skip counters this build does not know about.
        for _ in fields.len()..n {
            let _ = d.u64()?;
        }
        Ok(StatsResponse {
            server: crate::server::ServerStats {
                connections: fields[0],
                rejected_overloaded: fields[1],
                requests: fields[2],
                responses: fields[3],
                protocol_errors: fields[4],
                rejected_shutdown: fields[5],
                panics: fields[6],
                crc_failures: fields[7],
                bad_magic: fields[8],
                bad_version: fields[9],
                oversized_frames: fields[10],
                watchdog_cancels: fields[11],
                shed_over_quota: fields[26],
                idle_timeouts: fields[29],
            },
            cache: crate::plan_cache::CacheStats {
                hits: fields[13],
                misses: fields[14],
                coalesced: fields[15],
            },
        })
    }
}

// ---------------------------------------------------------------- frames

/// Bytes of magic and version: enough to reject a foreign stream.
const PREFIX_LEN: usize = 4 + 2;

/// One CRC-verified frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame kind (see [`kind`]).
    pub kind: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// A parsed frame header: the frame's kind and extent.
pub(crate) struct FrameHeader {
    kind: u8,
    /// The whole frame's bytes: header, payload and CRC.
    frame_len: usize,
}

impl FrameHeader {
    /// Header bytes: where the payload starts.
    pub(crate) fn header_len(&self) -> usize {
        HEADER_LEN
    }
}

/// Encode one frame.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(HEADER_LEN + payload.len() + 4);
    e.buf.extend_from_slice(MAGIC);
    e.u16(VERSION);
    e.u8(kind);
    e.u32(payload.len() as u32);
    e.buf.extend_from_slice(payload);
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.buf
}

/// Write one [`encode_frame`] frame to a stream.
///
/// # Errors
///
/// [`ServiceError::Io`] on any socket failure.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), ServiceError> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Parse the frame header at the front of `buf`; `Ok(None)` until the
/// whole header is there. Bad magic and unknown versions are rejected as
/// soon as their bytes are present, and an oversized declared length
/// from the header alone, before any payload arrives or is allocated.
fn parse_header(buf: &[u8]) -> Result<Option<FrameHeader>, ServiceError> {
    if buf.len() < PREFIX_LEN {
        return Ok(None);
    }
    if &buf[..4] != MAGIC {
        return Err(ServiceError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(ServiceError::UnsupportedVersion(version));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = le_u32(&buf[HEADER_LEN - 4..]);
    if len > MAX_PAYLOAD {
        return Err(ServiceError::FrameTooLarge(len));
    }
    Ok(Some(FrameHeader {
        kind: buf[PREFIX_LEN],
        frame_len: HEADER_LEN + len as usize + 4,
    }))
}

/// The little-endian `u32` at the front of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Check the trailing CRC of one whole frame's bytes and build the frame.
fn verified(bytes: &[u8], header: &FrameHeader) -> Result<Frame, ServiceError> {
    let body = bytes.len() - 4;
    if crc32(&bytes[..body]) != le_u32(&bytes[body..]) {
        return Err(ServiceError::CrcMismatch);
    }
    Ok(Frame {
        kind: header.kind,
        payload: bytes[HEADER_LEN..body].to_vec(),
    })
}

/// Read one frame from a blocking stream, pulling bytes as the header
/// asks for them. Bad magic and unknown versions are rejected as soon as
/// their bytes arrive, and an oversized declared length from the header
/// alone, before any payload is read or allocated; then the CRC is
/// checked over the whole frame.
///
/// Returns `Ok(None)` when the peer closes cleanly at a frame boundary
/// (EOF before any header byte). A close mid-frame is
/// [`ServiceError::ConnectionClosed`], and read timeouts pass through as
/// [`ServiceError::Io`].
///
/// # Errors
///
/// [`ServiceError::BadMagic`], [`ServiceError::UnsupportedVersion`],
/// [`ServiceError::FrameTooLarge`], [`ServiceError::CrcMismatch`],
/// [`ServiceError::ConnectionClosed`] or [`ServiceError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ServiceError> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    match read_raw_frame(r, &mut bytes)? {
        Some(header) => Ok(Some(verified(&bytes, &header)?)),
        None => Ok(None),
    }
}

/// Read one frame's bytes, unverified, into `bytes` (cleared first),
/// pulling exactly as many as [`parse_header`] and then the header's
/// length ask for — never a byte of the next frame. `Ok(None)` on a
/// clean EOF before the first byte. On a header error `bytes` holds
/// exactly what was read, so the chaos proxy can forward it opaquely.
pub(crate) fn read_raw_frame(
    r: &mut impl Read,
    bytes: &mut Vec<u8>,
) -> Result<Option<FrameHeader>, ServiceError> {
    bytes.clear();
    bytes.push(0);
    // First byte separately: EOF here is a clean close, not an error.
    loop {
        match r.read(bytes) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServiceError::Io(e)),
        }
    }
    let header = loop {
        if let Some(header) = parse_header(bytes)? {
            break header;
        }
        // Magic ‖ version first, so a foreign stream is refused early.
        let need = if bytes.len() < PREFIX_LEN {
            PREFIX_LEN
        } else {
            HEADER_LEN
        };
        read_to(r, bytes, need)?;
    };
    read_to(r, bytes, header.frame_len)?;
    Ok(Some(header))
}

/// Grow `bytes` to `len` with bytes read from `r`: an EOF is
/// `ConnectionClosed` — the half-open / torn-frame signal — and timeouts
/// pass through as `Io`.
fn read_to(r: &mut impl Read, bytes: &mut Vec<u8>, len: usize) -> Result<(), ServiceError> {
    let from = bytes.len();
    bytes.resize(len, 0);
    match r.read_exact(&mut bytes[from..]) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ServiceError::ConnectionClosed),
        Err(e) => Err(ServiceError::Io(e)),
    }
}

// --------------------------------------------------------------- payloads

impl PlanRequest {
    /// Serialize the request payload (the frame body of a `REQ_PLAN`).
    pub fn encode(&self) -> Vec<u8> {
        let dim = self.stencil.dim();
        let mut e = Encoder::with_capacity(16 + 8 * dim * (self.stencil.len() + 2));
        e.u16(dim as u16);
        e.u32(self.stencil.len() as u32);
        for v in self.stencil.iter() {
            e.vec(v);
        }
        match &self.objective {
            ObjectiveSpec::ShortestVector => e.u8(0),
            ObjectiveSpec::KnownBounds(d) => {
                e.u8(1);
                e.vec(d.lo());
                e.vec(d.hi());
            }
        }
        e.u32(self.deadline_ms);
        e.u32(self.flags);
        e.buf
    }

    /// Decode a `REQ_PLAN` payload, validating every structural and
    /// semantic invariant (dimensions, lex-positivity via
    /// [`Stencil::new`], non-empty domains) with hostile-count guards
    /// before any allocation.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on truncation, [`ServiceError::Malformed`]
    /// on any semantic violation.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut d = Decoder::new(payload);
        let dim = usize::from(d.u16()?);
        if dim == 0 {
            return Err(ServiceError::Malformed("zero-dimensional stencil".into()));
        }
        let nvec = d.u32()? as usize;
        // Reject a hostile vector count before allocating for it.
        let need = nvec
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| ServiceError::Malformed("vector count overflows".into()))?;
        if need > d.remaining() {
            return Err(ServiceError::Malformed(
                "declared vectors exceed the payload".into(),
            ));
        }
        let mut vectors = Vec::with_capacity(nvec);
        for _ in 0..nvec {
            vectors.push(d.vec(dim)?);
        }
        let stencil = Stencil::new(vectors)
            .map_err(|e| ServiceError::Malformed(format!("invalid stencil: {e}")))?;
        if stencil.dim() != dim {
            return Err(ServiceError::Malformed("stencil dimension mismatch".into()));
        }
        let objective = match d.u8()? {
            0 => ObjectiveSpec::ShortestVector,
            1 => {
                let lo = d.vec(dim)?;
                let hi = d.vec(dim)?;
                for k in 0..dim {
                    if lo[k] > hi[k] {
                        return Err(ServiceError::Malformed(format!(
                            "empty domain: lo[{k}] > hi[{k}]"
                        )));
                    }
                }
                ObjectiveSpec::KnownBounds(RectDomain::new(lo, hi))
            }
            other => {
                return Err(ServiceError::Malformed(format!(
                    "unknown objective tag {other}"
                )))
            }
        };
        let deadline_ms = d.u32()?;
        let flags = d.u32()?;
        if d.remaining() != 0 {
            return Err(ServiceError::Malformed("trailing bytes in request".into()));
        }
        Ok(PlanRequest {
            stencil,
            objective,
            deadline_ms,
            flags,
        })
    }
}

impl PlanResponse {
    /// Serialize the response payload (the frame body of a `RESP_PLAN`).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(32 + 8 * self.uov.dim());
        e.u8(self.cache.to_u8());
        e.u8(self.degradation.to_u8());
        e.u16(self.uov.dim() as u16);
        e.vec(&self.uov);
        e.u128(self.cost);
        e.u64(self.certificate_hash);
        e.buf
    }

    /// Decode a `RESP_PLAN` payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on truncation, [`ServiceError::Malformed`]
    /// on unknown enum values or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut d = Decoder::new(payload);
        let cache = CacheOutcome::from_u8(d.u8()?)
            .ok_or_else(|| ServiceError::Malformed("unknown cache outcome".into()))?;
        let degradation = DegradationCode::from_u8(d.u8()?)
            .ok_or_else(|| ServiceError::Malformed("unknown degradation code".into()))?;
        let dim = usize::from(d.u16()?);
        if dim == 0 {
            return Err(ServiceError::Malformed("zero-dimensional UOV".into()));
        }
        let uov = d.vec(dim)?;
        let cost = d.u128()?;
        let certificate_hash = d.u64()?;
        if d.remaining() != 0 {
            return Err(ServiceError::Malformed("trailing bytes in response".into()));
        }
        Ok(PlanResponse {
            uov,
            cost,
            certificate_hash,
            degradation,
            cache,
        })
    }
}

impl ErrorResponse {
    /// Serialize the error payload (the frame body of a `RESP_ERROR`).
    pub fn encode(&self) -> Vec<u8> {
        let bytes = self.msg.as_bytes();
        let mut e = Encoder::with_capacity(8 + bytes.len());
        e.u8(self.code.to_u8());
        e.u32(bytes.len() as u32);
        e.buf.extend_from_slice(bytes);
        e.buf
    }

    /// Decode a `RESP_ERROR` payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on truncation, [`ServiceError::Malformed`]
    /// on unknown codes or invalid UTF-8.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut d = Decoder::new(payload);
        let code = ErrorCode::from_u8(d.u8()?)
            .ok_or_else(|| ServiceError::Malformed("unknown error code".into()))?;
        let len = d.u32()? as usize;
        if len > d.remaining() {
            return Err(ServiceError::Malformed(
                "declared message exceeds the payload".into(),
            ));
        }
        let msg = String::from_utf8(d.take(len)?.to_vec())
            .map_err(|_| ServiceError::Malformed("error message is not UTF-8".into()))?;
        Ok(ErrorResponse { code, msg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;

    fn fig1_request() -> PlanRequest {
        PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap(),
            objective: ObjectiveSpec::KnownBounds(RectDomain::grid(8, 8)),
            deadline_ms: 250,
            flags: 0,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = fig1_request();
        let back = PlanRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        let short = PlanRequest {
            objective: ObjectiveSpec::ShortestVector,
            ..req
        };
        assert_eq!(PlanRequest::decode(&short.encode()).unwrap(), short);
    }

    #[test]
    fn response_round_trips() {
        let resp = PlanResponse {
            uov: ivec![1, 1],
            cost: 9,
            certificate_hash: 0xDEAD_BEEF,
            degradation: DegradationCode::Deadline,
            cache: CacheOutcome::Coalesced,
        };
        assert_eq!(PlanResponse::decode(&resp.encode()).unwrap(), resp);
        // Degradation byte 5 (the retired pressure answer) is malformed.
        let mut retired = resp.encode();
        retired[1] = 5;
        assert!(matches!(
            PlanResponse::decode(&retired),
            Err(ServiceError::Malformed(_))
        ));
    }

    #[test]
    fn error_round_trips() {
        let err = ErrorResponse {
            code: ErrorCode::Overloaded,
            msg: "queue full".into(),
        };
        assert_eq!(ErrorResponse::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn health_round_trips() {
        let h = HealthResponse {
            ready: true,
            draining: false,
            workers_alive: 4,
            queue_len: 3,
            queue_depth: 64,
        };
        assert_eq!(HealthResponse::decode(&h.encode()).unwrap(), h);
        let mut bad = h.encode();
        bad[0] = 7;
        assert!(matches!(
            HealthResponse::decode(&bad),
            Err(ServiceError::Malformed(_))
        ));
    }

    #[test]
    fn stats_round_trip_and_tolerate_extra_counters() {
        let s = StatsResponse {
            server: crate::server::ServerStats {
                connections: 1,
                rejected_overloaded: 2,
                requests: 3,
                responses: 4,
                protocol_errors: 5,
                rejected_shutdown: 6,
                panics: 7,
                crc_failures: 8,
                bad_magic: 9,
                bad_version: 10,
                oversized_frames: 11,
                watchdog_cancels: 12,
                shed_over_quota: 27,
                idle_timeouts: 30,
            },
            cache: crate::plan_cache::CacheStats {
                hits: 14,
                misses: 15,
                coalesced: 16,
            },
        };
        assert_eq!(StatsResponse::decode(&s.encode()).unwrap(), s);
        // A frame from an older server fills the retired slots (worker
        // restarts, cache snapshot loads, work units, bound gossip,
        // entries pushed by peers and their hits, stale epochs,
        // anti-entropy repairs, pressure answers, batch frames); they are
        // ignored and every other counter stays in its place.
        let mut older = s.encode();
        let retired = [
            (12, 13u64),
            (16, 17),
            (17, 18),
            (18, 19),
            (19, 20),
            (20, 0xFEED_F00D),
            (21, 42),
            (22, 23),
            (23, 24),
            (24, 25),
            (25, 26),
            (27, 28),
            (28, 29),
        ];
        for (slot, v) in retired {
            let at = 4 + 8 * slot;
            assert_eq!(
                older[at..at + 8],
                [0; 8],
                "retired slot {slot} is written as 0"
            );
            older[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(StatsResponse::decode(&older).unwrap(), s);
        // A future server appending a counter must not break this build.
        let mut extended = s.encode();
        let declared = u32::from_le_bytes(extended[0..4].try_into().unwrap());
        extended[0..4].copy_from_slice(&(declared + 1).to_le_bytes());
        extended.extend_from_slice(&99u64.to_le_bytes());
        assert_eq!(StatsResponse::decode(&extended).unwrap(), s);
        // A hostile count is rejected before any allocation.
        let mut hostile = s.encode();
        hostile[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            StatsResponse::decode(&hostile),
            Err(ServiceError::Malformed(_))
        ));
        // An older (17-field) frame decodes with zeroed later counters.
        let mut old = s.encode();
        old.truncate(4 + 8 * 17);
        old[0..4].copy_from_slice(&17u32.to_le_bytes());
        let decoded = StatsResponse::decode(&old).unwrap();
        assert_eq!(decoded.cache, s.cache);
        assert_eq!(decoded.server.shed_over_quota, 0);
        assert_eq!(decoded.server.idle_timeouts, 0);
        // A 26-field (pre-overload) frame zeroes the later counters too.
        let mut pre = s.encode();
        pre.truncate(4 + 8 * 26);
        pre[0..4].copy_from_slice(&26u32.to_le_bytes());
        let decoded = StatsResponse::decode(&pre).unwrap();
        assert_eq!(decoded.server.watchdog_cancels, 12);
        assert_eq!(decoded.server.idle_timeouts, 0);
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let req = fig1_request();
        let frame = encode_frame(kind::REQ_PLAN, &req.encode());
        let mut cursor = io::Cursor::new(frame.clone());
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got.kind, kind::REQ_PLAN);
        assert_eq!(PlanRequest::decode(&got.payload).unwrap(), req);
        // A second read at EOF is a clean close.
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // The reader stops at the frame boundary: a stream holding two
        // frames yields the first, then the second, then a clean close.
        let second = encode_frame(kind::REQ_HEALTH, &[]);
        let mut both = io::Cursor::new([frame.as_slice(), second.as_slice()].concat());
        assert_eq!(read_frame(&mut both).unwrap(), Some(got));
        let next = read_frame(&mut both).unwrap().unwrap();
        assert_eq!((next.kind, next.payload.len()), (kind::REQ_HEALTH, 0));
        assert!(read_frame(&mut both).unwrap().is_none());
    }

    /// The frame layout is pinned to the bytes the protocol has always
    /// produced.
    #[test]
    fn frames_are_byte_exact() {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind::REQ_PLAN, &[1, 2, 3]).unwrap();
        assert_eq!(
            wire,
            [85, 79, 86, 83, 1, 0, 1, 3, 0, 0, 0, 1, 2, 3, 82, 244, 137, 98]
        );
        assert_eq!(
            encode_frame(kind::RESP_HEALTH, &[]),
            [85, 79, 86, 83, 1, 0, 7, 0, 0, 0, 0, 218, 135, 105, 195]
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = encode_frame(kind::REQ_PLAN, &[]);
        // Corrupt the length field to declare a 3 GiB payload: the reader
        // rejects it from the header bytes alone.
        frame[7..11].copy_from_slice(&(3u32 << 30).to_le_bytes());
        assert_eq!(
            verdict(&frame[..HEADER_LEN]),
            Err(ServiceError::FrameTooLarge(3 << 30).to_string())
        );
    }

    /// `read_frame`'s verdict on a stream that holds `bytes` and then
    /// ends, with errors as text.
    fn verdict(bytes: &[u8]) -> Result<Option<Frame>, String> {
        read_frame(&mut io::Cursor::new(bytes)).map_err(|e| e.to_string())
    }

    /// Every single-bit flip of a frame is rejected.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode_frame(kind::REQ_PLAN, &fig1_request().encode());
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    verdict(&flipped).is_err(),
                    "undetected flip at byte {byte} bit {bit}"
                );
            }
        }
    }

    /// Every proper prefix of a frame is a torn frame (the empty one a
    /// clean close), and the whole frame reads back.
    #[test]
    fn every_truncation_is_clean() {
        let frame = encode_frame(kind::REQ_PLAN, &fig1_request().encode());
        assert_eq!(verdict(&[]), Ok(None));
        for cut in 1..frame.len() {
            assert_eq!(
                verdict(&frame[..cut]),
                Err(ServiceError::ConnectionClosed.to_string()),
                "cut at {cut}"
            );
        }
        let whole = verdict(&frame).unwrap().unwrap();
        assert_eq!(whole.kind, kind::REQ_PLAN);
        assert_eq!(whole.payload, fig1_request().encode());
    }

    #[test]
    fn malformed_request_payloads_are_typed_errors() {
        // Zero dimension.
        let mut e = Encoder::new();
        e.u16(0);
        e.u32(1);
        assert!(matches!(
            PlanRequest::decode(&e.buf),
            Err(ServiceError::Malformed(_))
        ));
        // Hostile vector count (must not allocate).
        let mut e = Encoder::new();
        e.u16(2);
        e.u32(u32::MAX);
        assert!(matches!(
            PlanRequest::decode(&e.buf),
            Err(ServiceError::Malformed(_))
        ));
        // Non-lex-positive stencil vector.
        let mut e = Encoder::new();
        e.u16(2);
        e.u32(1);
        e.i64(-1);
        e.i64(0);
        e.u8(0);
        e.u32(0);
        e.u32(0);
        assert!(matches!(
            PlanRequest::decode(&e.buf),
            Err(ServiceError::Malformed(_))
        ));
        // Empty domain (lo > hi).
        let req = fig1_request();
        let mut bytes = req.encode();
        // lo starts right after dim(2) + nvec(4) + 3 vectors (48) + tag(1).
        let lo_at = 2 + 4 + 48 + 1;
        bytes[lo_at..lo_at + 8].copy_from_slice(&100i64.to_le_bytes());
        assert!(matches!(
            PlanRequest::decode(&bytes),
            Err(ServiceError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        // Overwrite header bytes at `at` and re-seal the CRC, so only the
        // header field is wrong.
        let resealed = |at: usize, bytes: &[u8]| {
            let mut frame = encode_frame(kind::REQ_PLAN, &[]);
            frame[at..at + bytes.len()].copy_from_slice(bytes);
            let body_len = frame.len() - 4;
            let crc = crc32(&frame[..body_len]);
            frame[body_len..].copy_from_slice(&crc.to_le_bytes());
            frame
        };
        assert_eq!(
            verdict(&resealed(0, b"X")),
            Err(ServiceError::BadMagic.to_string())
        );
        // Version 2, the retired tenant header, is as unknown as 9.
        for version in [2u16, 9] {
            assert_eq!(
                verdict(&resealed(4, &version.to_le_bytes())),
                Err(ServiceError::UnsupportedVersion(version).to_string())
            );
        }
    }
}

//! Typed failures of the planning service, shared by client and server.

use std::fmt;
use std::io;

use uov_core::wire::WireError;

/// Error codes carried in `RESP_ERROR` frames. The numeric values are part
/// of the wire format and must never be reassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server's bounded request queue was full; retry later.
    Overloaded,
    /// The request frame or payload could not be decoded.
    Malformed,
    /// The request asks for something this server version cannot do.
    Unsupported,
    /// The request crashed or errored inside the server; the worker
    /// survived (panic isolation) and the failure is reported, not hidden.
    Internal,
    /// The server is draining: in-flight requests finish, new ones are
    /// rejected with this code.
    ShuttingDown,
    /// The frame failed a transport-level integrity check (CRC, magic,
    /// torn frame): the bytes were damaged in transit, not the request
    /// itself, so resending the same request is safe and likely to
    /// succeed. Distinct from [`ErrorCode::Malformed`], which means the
    /// request content is wrong and a retry cannot help.
    Corrupted,
    // Code 7 rejected a distributed work unit's superseded lease.
    // Retired: never reuse it.
}

impl ErrorCode {
    /// Wire encoding of the code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::Unsupported => 3,
            ErrorCode::Internal => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Corrupted => 6,
        }
    }

    /// Decode a wire code; `None` for unassigned values.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Overloaded),
            2 => Some(ErrorCode::Malformed),
            3 => Some(ErrorCode::Unsupported),
            4 => Some(ErrorCode::Internal),
            5 => Some(ErrorCode::ShuttingDown),
            6 => Some(ErrorCode::Corrupted),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Overloaded => write!(f, "overloaded"),
            ErrorCode::Malformed => write!(f, "malformed request"),
            ErrorCode::Unsupported => write!(f, "unsupported request"),
            ErrorCode::Internal => write!(f, "internal server error"),
            ErrorCode::ShuttingDown => write!(f, "server is shutting down"),
            ErrorCode::Corrupted => write!(f, "frame corrupted in transit"),
        }
    }
}

/// Everything that can go wrong speaking the planning protocol.
#[derive(Debug)]
pub enum ServiceError {
    /// An OS-level socket failure.
    Io(io::Error),
    /// Structural decode failure (truncation, oversized declared size).
    Wire(WireError),
    /// The peer's frame does not start with the protocol magic.
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u16),
    /// A frame declares a payload larger than the protocol allows. The
    /// frame is rejected *before* any allocation of that size.
    FrameTooLarge(u32),
    /// A frame's CRC32 does not match its contents.
    CrcMismatch,
    /// The frame decodes structurally but violates a protocol invariant
    /// (unknown kind, invalid stencil, bad domain bounds, …).
    Malformed(String),
    /// The peer closed the connection mid-frame (half-open, crash, or
    /// network drop).
    ConnectionClosed,
    /// The server answered with a typed error frame.
    Rejected {
        /// The server's error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        msg: String,
    },
    /// Every replica in the fabric failed (or the retry budget ran out)
    /// before a certified answer arrived. Carries the final per-attempt
    /// failure for diagnosis.
    FabricExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The failure of the last attempt.
        last: Box<ServiceError>,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "socket error: {e}"),
            ServiceError::Wire(e) => write!(f, "wire decode error: {e}"),
            ServiceError::BadMagic => write!(f, "not a UOV service frame (bad magic)"),
            ServiceError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            ServiceError::FrameTooLarge(n) => {
                write!(f, "declared payload of {n} bytes exceeds the frame limit")
            }
            ServiceError::CrcMismatch => write!(f, "frame failed its CRC32 check"),
            ServiceError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ServiceError::ConnectionClosed => write!(f, "peer closed the connection"),
            ServiceError::Rejected { code, msg } => write!(f, "server rejected: {code}: {msg}"),
            ServiceError::FabricExhausted { attempts, last } => {
                write!(f, "all replicas failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Wire(e) => Some(e),
            ServiceError::FabricExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::Malformed,
            ErrorCode::Unsupported,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::Corrupted,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(7), None, "retired");
        assert_eq!(ErrorCode::from_u8(99), None);
    }
}

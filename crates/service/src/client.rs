//! A blocking client for the planning service.

use std::io;
use std::time::Duration;

use crate::error::ServiceError;
use crate::proto::{
    kind, read_frame, write_frame, ErrorResponse, Frame, HealthResponse, PlanRequest, PlanResponse,
    StatsResponse,
};
use crate::server::AnyStream;

/// One connection to a planning server. Requests are strictly
/// sequential per connection (the protocol has no request IDs); open
/// more clients for concurrency.
///
/// The client survives server restarts: when a request runs into a
/// stale socket — the EOF or `BrokenPipe` a long-lived connection sees
/// after the server bounced — it transparently redials the endpoint
/// **once** and resends. This is safe because every request is
/// idempotent (planning is a pure function of the request) and the
/// retry happens only when no response frame was received. Persistent
/// failures still surface after the single retry.
pub struct Client {
    stream: AnyStream,
    endpoint: String,
    timeout: Option<Duration>,
}

impl Client {
    /// Dial a server at a TCP address (`"127.0.0.1:7878"`) or Unix
    /// socket (`"unix:/tmp/uov.sock"`).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] if the endpoint is unreachable.
    pub fn connect(endpoint: &str) -> Result<Self, ServiceError> {
        let stream = AnyStream::connect(endpoint)?;
        Ok(Client {
            stream,
            endpoint: endpoint.to_string(),
            timeout: None,
        })
    }

    /// The endpoint this client dials.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Cap how long [`Client::plan`] waits for a response frame.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] if the socket rejects the option.
    pub fn set_timeout(&mut self, t: Option<Duration>) -> Result<(), ServiceError> {
        self.stream.set_read_timeout(t)?;
        self.timeout = t;
        Ok(())
    }

    /// Whether an error means the socket is stale (half-open remnant of
    /// a bounced server) rather than the server answering slowly or
    /// rejecting the request: only these are worth one reconnect.
    fn is_stale_socket(err: &ServiceError) -> bool {
        match err {
            ServiceError::ConnectionClosed => true,
            ServiceError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::NotConnected
                    | io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }

    /// Drop the stale socket and dial the endpoint again, restoring the
    /// configured read timeout.
    fn reconnect(&mut self) -> Result<(), ServiceError> {
        let fresh = AnyStream::connect(&self.endpoint)?;
        fresh.set_read_timeout(self.timeout)?;
        self.stream = fresh;
        Ok(())
    }

    /// One request/response exchange, retried once over a fresh
    /// connection when the socket turns out to be stale.
    fn exchange(&mut self, req_kind: u8, payload: &[u8]) -> Result<Option<Frame>, ServiceError> {
        match self.exchange_once(req_kind, payload) {
            Err(e) if Self::is_stale_socket(&e) => {
                self.reconnect()?;
                self.exchange_once(req_kind, payload)
            }
            // A clean EOF before any response frame is the other face of
            // a stale socket: the server closed this connection while it
            // sat idle in our pocket. No response was received, so a
            // single resend over a fresh connection is safe.
            Ok(None) => {
                self.reconnect()?;
                self.exchange_once(req_kind, payload)
            }
            other => other,
        }
    }

    fn exchange_once(
        &mut self,
        req_kind: u8,
        payload: &[u8],
    ) -> Result<Option<Frame>, ServiceError> {
        write_frame(&mut self.stream, req_kind, payload)?;
        read_frame(&mut self.stream)
    }

    /// Decode the answer to one request: the `expected` response kind
    /// through `decode`, a typed error frame as [`ServiceError::Rejected`],
    /// any other kind as [`ServiceError::Malformed`], and no frame at all
    /// as [`ServiceError::ConnectionClosed`].
    fn response<T>(
        frame: Option<Frame>,
        expected: u8,
        decode: fn(&[u8]) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let Some(frame) = frame else {
            return Err(ServiceError::ConnectionClosed);
        };
        match frame.kind {
            k if k == expected => decode(&frame.payload),
            kind::RESP_ERROR => {
                let err = ErrorResponse::decode(&frame.payload)?;
                Err(ServiceError::Rejected {
                    code: err.code,
                    msg: err.msg,
                })
            }
            other => Err(ServiceError::Malformed(format!(
                "unexpected response frame kind {other} (expected {expected})"
            ))),
        }
    }

    /// Send one planning request and wait for the answer.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Rejected`] when the server answers with a typed
    /// error frame (overload, malformed, drain, internal failure); the
    /// protocol taxonomy of [`read_frame`] for transport-level failures.
    pub fn plan(&mut self, req: &PlanRequest) -> Result<PlanResponse, ServiceError> {
        let frame = self.exchange(kind::REQ_PLAN, &req.encode())?;
        Self::response(frame, kind::RESP_PLAN, PlanResponse::decode)
    }

    /// Probe the server's liveness and readiness. Answered even while
    /// the server drains.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ServiceError::Malformed`] on an
    /// unexpected response kind.
    pub fn health(&mut self) -> Result<HealthResponse, ServiceError> {
        let frame = self.exchange(kind::REQ_HEALTH, &[])?;
        Self::response(frame, kind::RESP_HEALTH, HealthResponse::decode)
    }

    /// Fetch the server's traffic/fault counters and cache counters.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ServiceError::Malformed`] on an
    /// unexpected response kind.
    pub fn stats(&mut self) -> Result<StatsResponse, ServiceError> {
        let frame = self.exchange(kind::REQ_STATS, &[])?;
        Self::response(frame, kind::RESP_STATS, StatsResponse::decode)
    }

    /// Ask the server to drain and exit. Sent once, never resent over a
    /// fresh connection.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ServiceError::Malformed`] if the server
    /// answers with anything but a shutdown acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<(), ServiceError> {
        let frame = self.exchange_once(kind::REQ_SHUTDOWN, &[])?;
        Self::response(frame, kind::RESP_SHUTDOWN_ACK, |_| Ok(()))
    }
}

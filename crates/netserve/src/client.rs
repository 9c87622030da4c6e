//! A blocking, typed client for the `VOHW` protocol, with optional
//! fault-tolerant retries.
//!
//! [`Client::connect`] keeps the original single-shot behavior: any
//! transport failure surfaces immediately. [`Client::connect_with_retry`]
//! layers a [`RetryPolicy`] on top — seeded exponential backoff with
//! jitter (the `relstore::daemon` breaker idiom), connect timeouts, and
//! automatic reconnect. Retries respect idempotency: PING, ESTIMATE,
//! EPOCH, METRICS, and ANALYZE are replayed transparently after an I/O
//! failure, while LOAD_RELATION and SHUTDOWN are retried only when the
//! failure happened in the *connect* phase (before any request bytes
//! could have reached the server), so a half-delivered mutation is
//! never blindly resent. Typed server errors (`Remote`, `Overloaded`)
//! are never retried — the server answered; the answer stands.

use crate::proto::{self, ErrorKind, FrameError, Request, Response};
use engine::StatsUse;
use relstore::Relation;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's reply failed framing or decoding on our side.
    Protocol(String),
    /// A typed error frame from the server.
    Remote {
        /// Failure class.
        kind: ErrorKind,
        /// Server-provided detail.
        message: String,
    },
    /// Admission control pushed back; retry later.
    Overloaded {
        /// The tenant whose queue was full.
        tenant: String,
    },
    /// The server answered with a response of the wrong type.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote { kind, message } => {
                write!(f, "server error ({}): {message}", kind.name())
            }
            ClientError::Overloaded { tenant } => {
                write!(f, "tenant '{tenant}' is overloaded, retry later")
            }
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry behavior for a [`Client`]. The backoff schedule mirrors the
/// maintenance daemon's breaker: `base · 2^(attempt-1)` capped at
/// `max`, plus a seeded jitter draw in `[0, base]` so synchronized
/// clients fan out instead of stampeding a recovering server.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = single-shot).
    pub retries: u32,
    /// First backoff step; also the jitter range.
    pub backoff_base: Duration,
    /// Backoff ceiling (pre-jitter).
    pub backoff_max: Duration,
    /// Bound on each TCP connect; `None` uses the OS default.
    pub connect_timeout: Option<Duration>,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 0,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_millis(1000),
            connect_timeout: Some(Duration::from_secs(5)),
            seed: 0x5eed_0001,
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` extra attempts and the default schedule.
    pub fn with_retries(retries: u32) -> Self {
        Self {
            retries,
            ..Self::default()
        }
    }
}

/// The daemon/bench PRNG; inlined because this crate takes no `rand`
/// dependency and the jitter stream must be reproducible anyway.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One logical connection to a statistics server; reconnects under its
/// [`RetryPolicy`] when the transport fails.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    policy: RetryPolicy,
    jitter: u64,
}

fn resolve(addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    })
}

impl Client {
    /// Connects single-shot (with `TCP_NODELAY`, matching the server
    /// side). No retries: any transport failure surfaces immediately.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let mut client = Client::disconnected(resolve(addr)?, RetryPolicy::default());
        client.stream = Some(client.dial()?);
        Ok(client)
    }

    /// Connects under `policy`: the initial dial itself is retried with
    /// backoff, and subsequent calls reconnect and replay according to
    /// their idempotency class.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let mut client = Client::disconnected(resolve(addr)?, policy);
        let mut attempt: u32 = 0;
        loop {
            match client.dial() {
                Ok(stream) => {
                    client.stream = Some(stream);
                    return Ok(client);
                }
                Err(e) => {
                    if attempt >= client.policy.retries {
                        return Err(ClientError::Io(e));
                    }
                    attempt += 1;
                    client.note_retry("connect", attempt);
                }
            }
        }
    }

    fn disconnected(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let jitter = policy.seed;
        Client {
            addr,
            stream: None,
            policy,
            jitter,
        }
    }

    fn dial(&self) -> std::io::Result<TcpStream> {
        let stream = match self.policy.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&self.addr, timeout)?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Counts a retry, emits its trace event, and sleeps the backoff.
    fn note_retry(&mut self, op: &'static str, attempt: u32) {
        obs::counter("client_retry_total").inc();
        obs::trace::client_retry(op, u64::from(attempt));
        let base = (self.policy.backoff_base.as_millis() as u64).max(1);
        let exp = u64::from(attempt).saturating_sub(1).min(62);
        let raw = base.saturating_mul(1u64 << exp);
        let capped = raw.min((self.policy.backoff_max.as_millis() as u64).max(base));
        let jitter = splitmix64(&mut self.jitter) % (base + 1);
        std::thread::sleep(Duration::from_millis(capped + jitter));
    }

    /// One attempt: lazy reconnect, send, read. The `bool` in the error
    /// is `true` when the failure happened in the connect phase — no
    /// request bytes could have reached the server, so even
    /// non-idempotent operations may retry safely.
    fn try_call(&mut self, request: &Request) -> Result<Response, (ClientError, bool)> {
        if self.stream.is_none() {
            match self.dial() {
                Ok(stream) => self.stream = Some(stream),
                Err(e) => return Err((ClientError::Io(e), true)),
            }
        }
        let frame = match request.encode_frame() {
            Ok(frame) => frame,
            Err(m) => return Err((ClientError::Protocol(m), false)),
        };
        let stream = self.stream.as_mut().expect("stream dialed above");
        let io_result = stream.write_all(&frame).and_then(|()| stream.flush());
        if let Err(e) = io_result {
            self.stream = None;
            return Err((ClientError::Io(e), false));
        }
        let stream = self.stream.as_mut().expect("stream dialed above");
        let (opcode, payload) = match proto::read_frame(stream) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => {
                self.stream = None;
                return Err((
                    ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "server closed the connection",
                    )),
                    false,
                ));
            }
            Err(FrameError::Io(e)) => {
                self.stream = None;
                return Err((ClientError::Io(e), false));
            }
            Err(FrameError::Corrupt(m)) | Err(FrameError::Fatal(m)) => {
                // The stream may be desynchronized: force a reconnect
                // before the next call, but report the protocol error.
                self.stream = None;
                return Err((ClientError::Protocol(m), false));
            }
        };
        Response::decode(opcode, payload).map_err(|m| (ClientError::Protocol(m), false))
    }

    /// Sends one request and reads one response frame, retrying I/O
    /// failures per the policy and the operation's idempotency class.
    /// Typed error frames come back as `Ok(Response::Error { .. })`;
    /// use the convenience wrappers to turn them into [`ClientError`]s.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        // A request is idempotent when replaying it cannot change
        // server state beyond what the first delivery would have:
        // reads, PING, and ANALYZE (recomputing histograms from the
        // same relations is a no-op modulo the epoch counter).
        let idempotent = matches!(
            request,
            Request::Ping
                | Request::Estimate { .. }
                | Request::SnapshotEpoch { .. }
                | Request::Metrics
                | Request::Analyze { .. }
        );
        let op = request.op_name();
        let mut attempt: u32 = 0;
        loop {
            match self.try_call(request) {
                Ok(response) => return Ok(response),
                Err((error, connect_phase)) => {
                    let retryable =
                        matches!(error, ClientError::Io(_)) && (idempotent || connect_phase);
                    if !retryable || attempt >= self.policy.retries {
                        return Err(error);
                    }
                    attempt += 1;
                    self.note_retry(op, attempt);
                }
            }
        }
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { kind, message } => Err(ClientError::Remote { kind, message }),
            Response::Overloaded { tenant } => Err(ClientError::Overloaded { tenant }),
            response => Ok(response),
        }
    }

    /// PING → PONG.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Registers a relation in `tenant`; returns the row count.
    pub fn load_relation(&mut self, tenant: &str, relation: &Relation) -> Result<u64, ClientError> {
        match self.expect(&Request::load_relation(tenant, relation))? {
            Response::Loaded { rows } => Ok(rows),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Durable ANALYZE; returns (histograms written, catalog epoch).
    pub fn analyze(
        &mut self,
        tenant: &str,
        class: &str,
        buckets: u32,
    ) -> Result<(u64, u64), ClientError> {
        let request = Request::Analyze {
            tenant: tenant.to_string(),
            class: class.to_string(),
            buckets,
        };
        match self.expect(&request)? {
            Response::Analyzed { histograms, epoch } => Ok((histograms, epoch)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Estimates `sql`; returns the bit-exact estimate and its
    /// statistics trail.
    pub fn estimate(
        &mut self,
        tenant: &str,
        sql: &str,
    ) -> Result<(f64, Vec<StatsUse>), ClientError> {
        let request = Request::Estimate {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        };
        match self.expect(&request)? {
            Response::Estimated { estimate, sources } => Ok((estimate, sources)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The tenant catalog's current snapshot epoch.
    pub fn epoch(&mut self, tenant: &str) -> Result<u64, ClientError> {
        let request = Request::SnapshotEpoch {
            tenant: tenant.to_string(),
        };
        match self.expect(&request)? {
            Response::Epoch { epoch } => Ok(epoch),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The server's Prometheus exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to shut down gracefully (checkpointing every
    /// tenant).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::ShutdownStarted => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn raw_stream(&mut self) -> std::io::Result<&mut TcpStream> {
        self.stream.as_mut().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "client is disconnected (raw I/O does not reconnect)",
            )
        })
    }

    /// Raw frame write (adversarial tests inject arbitrary bytes).
    /// Never retries or reconnects — raw bytes have no replay story.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let stream = self.raw_stream()?;
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Reads one response frame without sending anything first.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let stream = self.raw_stream()?;
        let (opcode, payload) = match proto::read_frame(stream) {
            Ok(frame) => frame,
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(FrameError::Closed) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server closed the connection",
                )))
            }
            Err(FrameError::Corrupt(m)) | Err(FrameError::Fatal(m)) => {
                return Err(ClientError::Protocol(m))
            }
        };
        Response::decode(opcode, payload).map_err(ClientError::Protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_capped_and_jittered_deterministically() {
        let policy = RetryPolicy {
            retries: 8,
            backoff_base: Duration::from_millis(4),
            backoff_max: Duration::from_millis(32),
            connect_timeout: None,
            seed: 7,
        };
        let mut a = policy.seed;
        let mut b = policy.seed;
        // Two clients with the same seed draw identical jitter streams.
        for _ in 0..16 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        // The pre-jitter schedule doubles then pins at the cap.
        let base = policy.backoff_base.as_millis() as u64;
        let cap = policy.backoff_max.as_millis() as u64;
        let mut last = 0;
        for attempt in 1..=8u64 {
            let exp = attempt.saturating_sub(1).min(62);
            let raw = base.saturating_mul(1u64 << exp).min(cap);
            assert!(raw >= last, "schedule must be monotone");
            assert!(raw <= cap);
            last = raw;
        }
        assert_eq!(last, cap);
    }

    #[test]
    fn retry_classification_matches_idempotency() {
        // PING through ANALYZE replay transparently; LOAD_RELATION and
        // SHUTDOWN must not be resent after a mid-request failure.
        let idempotent = |request: &Request| {
            matches!(
                request,
                Request::Ping
                    | Request::Estimate { .. }
                    | Request::SnapshotEpoch { .. }
                    | Request::Metrics
                    | Request::Analyze { .. }
            )
        };
        assert!(idempotent(&Request::Ping));
        assert!(idempotent(&Request::Metrics));
        assert!(idempotent(&Request::Estimate {
            tenant: "t".into(),
            sql: "select 1".into(),
        }));
        assert!(idempotent(&Request::SnapshotEpoch { tenant: "t".into() }));
        assert!(idempotent(&Request::Analyze {
            tenant: "t".into(),
            class: "serial".into(),
            buckets: 8,
        }));
        assert!(!idempotent(&Request::Shutdown));
    }
}

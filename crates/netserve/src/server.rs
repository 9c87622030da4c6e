//! The threaded (tokio-free) statistics server.
//!
//! One acceptor thread polls a non-blocking [`TcpListener`]; each
//! admitted connection gets its own thread running the frame loop.
//! Connections over `max_connections` receive a typed
//! `CONNECTION_LIMIT` error frame and are closed — never silently
//! dropped. Tenant state lives in [`Tenant`] namespaces created
//! lazily under `tenants_dir/<name>` (existing directories are
//! recovered at startup through the WAL). Graceful shutdown
//! checkpoints every tenant; [`Server::abort`] is the crash path for
//! recovery tests.

use crate::proto::{self, ErrorKind, FrameError, Request, Response};
use crate::tenant::{validate_tenant_name, Tenant, TenantConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub listen: String,
    /// Root directory holding one subdirectory per tenant.
    pub tenants_dir: PathBuf,
    /// Concurrent connections before CONNECTION_LIMIT rejection.
    pub max_connections: usize,
    /// Per-tenant admission slots (see [`TenantConfig`]).
    pub queue_depth: usize,
    /// Per-tenant maintenance daemon tick.
    pub daemon_tick: Duration,
    /// Honor SHUTDOWN frames even when bound to a non-loopback
    /// address. The opcode is unauthenticated, so on a shared network
    /// any client could otherwise stop the server for every tenant;
    /// loopback listeners (the test/bench topology) always accept it.
    pub allow_remote_shutdown: bool,
    /// Per-frame read deadline: a connection must deliver each request
    /// frame *whole* within this window (measured from the previous
    /// response). Byte trickle does not extend it, so one knob covers
    /// both idle connections and slowloris half-frames. A miss gets a
    /// typed `DEADLINE` error frame, the connection is closed, and its
    /// slot is released. `None` (the default) disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for responses: a client that stops reading
    /// cannot hold the connection thread forever. `None` disables it.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            tenants_dir: PathBuf::from("tenants"),
            max_connections: 64,
            queue_depth: 64,
            daemon_tick: Duration::from_millis(200),
            allow_remote_shutdown: false,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// Polling granularity for deadline-bounded reads. The socket-level
/// timeout is kept this small and the real deadline is enforced by
/// [`DeadlineReader`]: a socket timeout alone restarts on every
/// arriving byte, which is exactly the hole a slowloris client
/// (one byte per interval) drives through.
const DEADLINE_TICK: Duration = Duration::from_millis(25);

/// An [`Read`] adapter enforcing "the whole frame arrives within the
/// deadline". [`DeadlineReader::arm`] is called before each
/// `read_frame`; once armed, reads poll the socket in
/// [`DEADLINE_TICK`] slices and surface `TimedOut` when the per-frame
/// deadline passes — byte progress does *not* push the deadline out.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
}

impl<'a> DeadlineReader<'a> {
    fn new(stream: &'a TcpStream, timeout: Option<Duration>) -> std::io::Result<Self> {
        if timeout.is_some() {
            stream.set_read_timeout(Some(DEADLINE_TICK))?;
        }
        Ok(Self {
            stream,
            timeout,
            deadline: None,
        })
    }

    /// Starts the next frame's delivery window.
    fn arm(&mut self) {
        self.deadline = self.timeout.map(|t| Instant::now() + t);
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut stream = self.stream;
        let Some(deadline) = self.deadline else {
            return stream.read(buf);
        };
        loop {
            match stream.read(buf) {
                Ok(n) => return Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "frame read deadline exceeded",
                        ));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

struct Inner {
    config: ServerConfig,
    stop: AtomicBool,
    /// Crash-style stop: skip the checkpoint pass (recovery tests).
    skip_checkpoint: AtomicBool,
    active: AtomicUsize,
    /// Whether SHUTDOWN frames are honored, resolved once at bind time
    /// from the listener address and `allow_remote_shutdown`.
    wire_shutdown: bool,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

/// Owns one `active` connection slot; releasing on drop means the
/// count is decremented even when the connection thread panics (an
/// engine panic on adversarial input must not leak slots until the
/// server wedges at `max_connections`) or the thread spawn itself
/// fails before `serve_connection` runs.
struct ConnectionSlot {
    inner: Arc<Inner>,
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.inner.active.fetch_sub(1, Ordering::SeqCst);
        obs::gauge("net_active_connections").set(self.inner.active.load(Ordering::SeqCst) as f64);
    }
}

/// SHUTDOWN is unauthenticated, so it is only honored when the
/// listener is loopback-bound (every peer is already local) or the
/// operator opted in explicitly.
fn wire_shutdown_allowed(addr: &SocketAddr, allow_remote_shutdown: bool) -> bool {
    addr.ip().is_loopback() || allow_remote_shutdown
}

/// A running statistics server.
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Inner {
    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, Response> {
        if let Err(message) = validate_tenant_name(name) {
            return Err(Response::Error {
                kind: ErrorKind::BadTenant,
                message,
            });
        }
        let mut tenants = self.tenants.lock();
        if let Some(tenant) = tenants.get(name) {
            return Ok(Arc::clone(tenant));
        }
        let config = TenantConfig {
            queue_depth: self.config.queue_depth,
            daemon_tick: self.config.daemon_tick,
        };
        match Tenant::open(&self.config.tenants_dir, name, &config) {
            Ok(tenant) => {
                tenants.insert(name.to_string(), Arc::clone(&tenant));
                Ok(tenant)
            }
            Err(message) => Err(Response::Error {
                kind: ErrorKind::Engine,
                message,
            }),
        }
    }

    fn handle(&self, request: Request) -> Response {
        if self.stop.load(Ordering::SeqCst) && !matches!(request, Request::Ping) {
            return Response::Error {
                kind: ErrorKind::ShuttingDown,
                message: "server is shutting down".to_string(),
            };
        }
        match request {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::Metrics {
                text: obs::export::prometheus(),
            },
            Request::Shutdown => {
                if !self.wire_shutdown {
                    return Response::Error {
                        kind: ErrorKind::ShutdownDenied,
                        message: "SHUTDOWN over the wire is disabled on non-loopback \
                                  listeners; start the server with --allow-remote-shutdown"
                            .to_string(),
                    };
                }
                self.stop.store(true, Ordering::SeqCst);
                Response::ShutdownStarted
            }
            tenant_scoped => {
                let name = tenant_scoped
                    .tenant()
                    .expect("non-tenant ops matched above")
                    .to_string();
                match self.tenant(&name) {
                    Ok(tenant) => tenant.submit(tenant_scoped),
                    Err(error) => error,
                }
            }
        }
    }

    fn serve_connection(self: &Arc<Self>, stream: TcpStream) {
        obs::counter("net_connections_total").inc();
        obs::gauge("net_active_connections").set(self.active.load(Ordering::SeqCst) as f64);
        // TCP_NODELAY on every connection: each request/response
        // round-trip is one small frame each way, so Nagle buffering
        // only adds latency here.
        let _ = stream.set_nodelay(true);
        if let Some(wt) = self.config.write_timeout {
            let _ = stream.set_write_timeout(Some(wt));
        }
        let mut reader = match DeadlineReader::new(&stream, self.config.read_timeout) {
            Ok(reader) => reader,
            Err(_) => return,
        };
        loop {
            reader.arm();
            let (opcode, payload) = match proto::read_frame(&mut reader) {
                Ok(frame) => frame,
                Err(FrameError::Io(e))
                    if e.kind() == std::io::ErrorKind::TimedOut
                        && self.config.read_timeout.is_some() =>
                {
                    // Deadline missed — idle too long, or a slow client
                    // trickling a partial frame. Typed close; the
                    // ConnectionSlot guard releases the slot as usual.
                    obs::counter("net_deadline_total").inc();
                    obs::trace::net_request("", "frame", "deadline");
                    let _ = send(
                        &stream,
                        &Response::Error {
                            kind: ErrorKind::Deadline,
                            message: format!(
                                "read deadline exceeded: no complete frame within {}ms",
                                self.config.read_timeout.unwrap_or_default().as_millis()
                            ),
                        },
                    );
                    break;
                }
                Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
                Err(FrameError::Corrupt(message)) => {
                    // Framing survived: answer and keep the connection.
                    obs::counter("net_protocol_errors_total").inc();
                    obs::trace::net_request("", "frame", "error");
                    if send(
                        &stream,
                        &Response::Error {
                            kind: ErrorKind::Protocol,
                            message,
                        },
                    )
                    .is_err()
                    {
                        break;
                    }
                    continue;
                }
                Err(FrameError::Fatal(message)) => {
                    // The byte stream is unreliable: answer, then close.
                    obs::counter("net_protocol_errors_total").inc();
                    obs::trace::net_request("", "frame", "error");
                    let _ = send(
                        &stream,
                        &Response::Error {
                            kind: ErrorKind::Protocol,
                            message,
                        },
                    );
                    break;
                }
            };
            obs::counter("net_bytes_in_total").add((proto::HEADER_LEN + payload.len() + 8) as u64);
            let response = match Request::decode(opcode, payload) {
                Ok(request) => {
                    let _span = obs::span("net_request");
                    let tenant = request.tenant().unwrap_or("").to_string();
                    let op = request.op_name();
                    obs::counter(&obs::labeled("net_requests_total", "op", op)).inc();
                    if !tenant.is_empty() {
                        obs::counter(&obs::labeled("net_requests_total", "tenant", &tenant)).inc();
                    }
                    let response = self.handle(request);
                    let outcome = match &response {
                        Response::Overloaded { .. } => "overloaded",
                        Response::Error { .. } => "error",
                        _ => "ok",
                    };
                    obs::trace::net_request(&tenant, op, outcome);
                    response
                }
                Err(message) => {
                    obs::counter("net_protocol_errors_total").inc();
                    obs::trace::net_request("", "decode", "error");
                    Response::Error {
                        kind: ErrorKind::Protocol,
                        message,
                    }
                }
            };
            let shutdown_started = matches!(response, Response::ShutdownStarted);
            if let Err(e) = send(&stream, &response) {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) {
                    // A client that stopped reading: the write deadline
                    // fired. Same accounting as a read deadline.
                    obs::counter("net_deadline_total").inc();
                    obs::trace::net_request("", "frame", "deadline");
                }
                break;
            }
            if shutdown_started {
                break;
            }
        }
        // The `active` slot is released by the ConnectionSlot guard
        // held by the connection thread, not here: a panic anywhere in
        // the frame/decode/handle path must still free the slot.
    }
}

fn send(mut stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    // Responses are server-built, but a METRICS exposition can in
    // principle outgrow the frame cap: degrade to a typed error frame
    // (always tiny) rather than corrupting the stream.
    let frame = match response.encode_frame() {
        Ok(frame) => frame,
        Err(message) => Response::Error {
            kind: ErrorKind::Protocol,
            message,
        }
        .encode_frame()
        .map_err(std::io::Error::other)?,
    };
    obs::counter("net_bytes_out_total").add(frame.len() as u64);
    stream.write_all(&frame)?;
    stream.flush()
}

impl Server {
    /// Binds `config.listen`, recovers every tenant directory already
    /// present under `config.tenants_dir`, and starts accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.tenants_dir)?;
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            stop: AtomicBool::new(false),
            skip_checkpoint: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            wire_shutdown: wire_shutdown_allowed(&addr, config.allow_remote_shutdown),
            tenants: Mutex::new(HashMap::new()),
            config,
        });
        // Recover existing tenants up front so a restarted server
        // serves every namespace (and replays every journal) before
        // the first request arrives.
        let mut names: Vec<String> = std::fs::read_dir(&inner.config.tenants_dir)?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                entry
                    .file_type()
                    .ok()?
                    .is_dir()
                    .then(|| entry.file_name().to_string_lossy().into_owned())
            })
            .collect();
        names.sort();
        for name in names {
            if validate_tenant_name(&name).is_ok() {
                // Surfaces recovery errors at startup, not first use.
                if let Err(e) = inner.tenant(&name) {
                    return Err(std::io::Error::other(format!(
                        "recover tenant {name}: {e:?}"
                    )));
                }
            }
        }
        let accept_inner = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("netserve-acceptor".to_string())
            .spawn(move || {
                while !accept_inner.stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let admitted = accept_inner
                                .active
                                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                                    (n < accept_inner.config.max_connections).then_some(n + 1)
                                })
                                .is_ok();
                            if !admitted {
                                obs::counter("net_connections_rejected_total").inc();
                                let _ = send(
                                    &stream,
                                    &Response::Error {
                                        kind: ErrorKind::ConnectionLimit,
                                        message: format!(
                                            "connection limit of {} reached",
                                            accept_inner.config.max_connections
                                        ),
                                    },
                                );
                                continue;
                            }
                            let slot = ConnectionSlot {
                                inner: Arc::clone(&accept_inner),
                            };
                            let conn_inner = Arc::clone(&accept_inner);
                            // The slot guard moves into the closure:
                            // it is released when the connection ends,
                            // when the thread panics, or — because a
                            // failed spawn drops the closure unrun —
                            // when the spawn itself fails.
                            let _ = std::thread::Builder::new()
                                .name("netserve-conn".to_string())
                                .spawn(move || {
                                    let _slot = slot;
                                    conn_inner.serve_connection(stream);
                                });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
            .expect("spawn acceptor thread");
        Ok(Server {
            addr,
            inner,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop (also triggered by a SHUTDOWN frame).
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// Crash-style stop: no checkpoint, journals left as-is — the
    /// recovery-equivalence tests' kill switch.
    pub fn abort(&self) {
        self.inner.skip_checkpoint.store(true, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested (via [`Server::shutdown`],
    /// [`Server::abort`], or a SHUTDOWN frame).
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Connections currently holding an admission slot. Chaos and
    /// slow-client tests assert this drains back to zero — a leaked
    /// slot would eventually wedge the server at `max_connections`.
    pub fn active_connections(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Waits for shutdown: the acceptor exits, in-flight connections
    /// get a short drain window, then every tenant is closed and (on
    /// the graceful path) checkpointed. Returns the tenants served.
    pub fn join(mut self) -> std::io::Result<usize> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let drain_deadline = Instant::now() + Duration::from_secs(2);
        while self.inner.active.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let tenants: Vec<Arc<Tenant>> = self.inner.tenants.lock().values().cloned().collect();
        let skip_checkpoint = self.inner.skip_checkpoint.load(Ordering::SeqCst);
        let mut failures = Vec::new();
        for tenant in &tenants {
            tenant.close();
            if !skip_checkpoint {
                if let Err(e) = tenant.checkpoint() {
                    failures.push(e);
                }
            }
        }
        if failures.is_empty() {
            Ok(tenants.len())
        } else {
            Err(std::io::Error::other(failures.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_policy_gates_only_non_loopback_listeners() {
        let v4_loop: SocketAddr = "127.0.0.1:9000".parse().unwrap();
        let v6_loop: SocketAddr = "[::1]:9000".parse().unwrap();
        let public: SocketAddr = "192.0.2.1:9000".parse().unwrap();
        assert!(wire_shutdown_allowed(&v4_loop, false));
        assert!(wire_shutdown_allowed(&v6_loop, false));
        assert!(!wire_shutdown_allowed(&public, false));
        assert!(wire_shutdown_allowed(&public, true));
    }
}

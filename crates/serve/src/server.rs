//! The reactor: acceptor + per-connection readers + session-sharded
//! workers, all on `std::net` / `std::thread` — no async runtime. The
//! acceptor blocks in `accept` (no polling; `shutdown` wakes it with a
//! connection to itself).
//!
//! ```text
//!  acceptor ──(connection budget)──▶ connection threads
//!      │                                 │  parse line, answer Hello/
//!      ▼                                 │  Metrics/Slowlog inline
//!  shed + close                          ▼
//!                          bounded per-worker queues ──(full → shed)
//!                                        │
//!                                        ▼
//!                     workers: each owns a disjoint session shard
//!                     (HashMap<id, SessionHandle> + LRU/TTL eviction)
//! ```
//!
//! Sessions are sharded by `id % workers`, so a worker mutates its
//! `SessionHandle`s with no lock at all — the queue is the
//! synchronization. Admission control is first-class and typed: a full
//! queue sheds with [`ErrorCode::Overloaded`] *from the connection thread*
//! (an overloaded worker is never asked to also say "no"), an exhausted
//! connection budget sheds with [`ErrorCode::TooManyConnections`] before a
//! reader thread is even spawned. Both paths, and every session-table
//! transition, land in the engine's own [`Metrics`] registry so one
//! `metrics` command reports the service and the engine together.
//!
//! [`Metrics`]: foresight_engine::Metrics

use crate::protocol::{
    Command, ErrorCode, HelloInfo, Reply, Request, Response, WireError, MAX_LINE_BYTES,
    PROTOCOL_VERSION,
};
use foresight_engine::{
    AdoptPolicy, CandidateStrategy, Counter, Endpoint, EngineCore, EngineError, Mode, Monitor,
    MonitorConfig, MonitorTarget, PublishedCore, Session, SessionHandle,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the server fronts: a fixed snapshot, or a live stream publication
/// slot (sessions then bind to it and see staleness, like local handles).
#[derive(Clone)]
pub enum ServeCore {
    /// One immutable snapshot.
    Static(Arc<EngineCore>),
    /// A stream's publication point; new sessions adopt per
    /// [`AdoptPolicy::EveryQuery`].
    Stream(Arc<PublishedCore>),
}

impl ServeCore {
    /// The newest snapshot.
    pub fn latest(&self) -> Arc<EngineCore> {
        match self {
            ServeCore::Static(core) => Arc::clone(core),
            ServeCore::Stream(published) => published.latest(),
        }
    }

    fn published(&self) -> Option<Arc<PublishedCore>> {
        match self {
            ServeCore::Static(_) => None,
            ServeCore::Stream(published) => Some(Arc::clone(published)),
        }
    }

    fn monitor_target(&self) -> MonitorTarget {
        match self {
            ServeCore::Static(core) => MonitorTarget::Static(Arc::clone(core)),
            ServeCore::Stream(published) => MonitorTarget::Stream(Arc::clone(published)),
        }
    }
}

/// Server tuning knobs. The defaults suit a loopback development server;
/// production fronts raise the budgets.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads — one session shard each.
    pub workers: usize,
    /// Bounded depth of each worker's request queue; a full queue sheds
    /// with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Concurrent-connection budget; excess connections are shed with
    /// [`ErrorCode::TooManyConnections`] and closed.
    pub max_connections: usize,
    /// Total session budget across all workers; per-worker shards evict
    /// least-recently-used sessions past their share.
    pub max_sessions: usize,
    /// Idle time after which a session expires (swept lazily by its
    /// worker).
    pub session_ttl: Duration,
    /// Enables the test-only `Sleep` command (shed tests use it to hold a
    /// worker deterministically). Off for real servers.
    pub enable_test_commands: bool,
    /// Sampler cadence, ring capacity, and health/watchdog thresholds.
    pub monitor: MonitorConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_depth: 256,
            max_connections: 1024,
            max_sessions: 4096,
            session_ttl: Duration::from_secs(600),
            enable_test_commands: false,
            monitor: MonitorConfig::default(),
        }
    }
}

/// State shared by the acceptor, connection threads, and workers.
struct Shared {
    core: ServeCore,
    /// A pinned snapshot whose registries (metrics, tracer) are shared
    /// across republishes — the stable place to record serving telemetry.
    registry: Arc<EngineCore>,
    config: ServeConfig,
    /// The continuous monitor: ring of derived samples, watchdog alerts,
    /// and the health verdict (answered inline, never behind a worker).
    monitor: Monitor,
    shutdown: AtomicBool,
    live_connections: AtomicUsize,
    next_session: AtomicU64,
}

impl Shared {
    fn metrics(&self) -> &foresight_engine::Metrics {
        self.registry.metrics()
    }
}

/// One queued unit of session work.
struct Job {
    session: u64,
    cmd: Command,
    reply: SyncSender<Result<Reply, WireError>>,
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    worker_txs: Vec<SyncSender<Job>>,
    connections: Arc<Connections>,
}

/// The connection threads not yet reaped: the acceptor joins the finished
/// ones on every accept, so the registry tracks the live connections
/// rather than every connection since start.
type Connections = Mutex<Vec<JoinHandle<()>>>;

/// Locks the connection registry. A thread that panicked while holding it
/// left nothing half-written — a `Vec` push or drain — so a poisoned lock
/// is taken over instead of cascading the panic into the acceptor and
/// `shutdown`.
fn registry(connections: &Connections) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
    connections.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor and worker threads.
    pub fn start(
        core: ServeCore,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = core.latest();
        let monitor = Monitor::spawn(core.monitor_target(), config.monitor.clone());
        let shared = Arc::new(Shared {
            core,
            registry,
            config: config.clone(),
            monitor,
            shutdown: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
        });
        let workers_n = config.workers.max(1);
        let mut workers = Vec::with_capacity(workers_n);
        let mut worker_txs = Vec::with_capacity(workers_n);
        for index in 0..workers_n {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
            let shared_ = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .spawn(move || worker_loop(shared_, rx))?,
            );
            worker_txs.push(tx);
        }
        let connections = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let worker_txs = worker_txs.clone();
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || acceptor_loop(shared, listener, worker_txs, connections))?
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            worker_txs,
            connections,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// In-flight requests finish; idle connections close within the read
    /// poll interval.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor sits in a blocking `accept`; one throwaway
            // connection to ourselves wakes it, and it sees the flag before
            // looking at the stream. If that connect fails the thread is
            // left to exit with the process rather than joined forever.
            if TcpStream::connect_timeout(&self.wake_addr(), POLL).is_ok() {
                let _ = acceptor.join();
            }
        }
        let conns = std::mem::take(&mut *registry(&self.connections));
        for conn in conns {
            let _ = conn.join();
        }
        self.worker_txs.clear(); // disconnect the queues
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Where a connection from this process reaches the listener: the
    /// bound address, with a wildcard host replaced by loopback.
    fn wake_addr(&self) -> SocketAddr {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        addr
    }
}

/// Polling interval for shutdown checks on connection reads, and the
/// acceptor's back-off after a failed `accept`.
const POLL: Duration = Duration::from_millis(50);

fn acceptor_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    worker_txs: Vec<SyncSender<Job>>,
    connections: Arc<Connections>,
) {
    loop {
        // blocking: a new connection is picked up as soon as the kernel
        // has it, and `shutdown` wakes the call with a connection of its own
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if shared.live_connections.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shared.metrics().add(Counter::ConnectionsShed, 1);
                    shed_connection(stream);
                    continue;
                }
                shared.metrics().add(Counter::Connections, 1);
                shared.live_connections.fetch_add(1, Ordering::SeqCst);
                let shared_ = Arc::clone(&shared);
                let txs = worker_txs.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || {
                            connection_loop(&shared_, stream, &txs);
                            shared_.live_connections.fetch_sub(1, Ordering::SeqCst);
                        });
                match spawned {
                    Ok(handle) => {
                        let mut live = registry(&connections);
                        let finished: Vec<_> =
                            live.extract_if(.., |conn| conn.is_finished()).collect();
                        live.push(handle);
                        drop(live);
                        for conn in finished {
                            let _ = conn.join();
                        }
                    }
                    Err(_) => {
                        shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            // e.g. out of descriptors: back off rather than spin
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Tells an over-budget connection why it is being closed (best-effort —
/// the peer may already be gone).
fn shed_connection(mut stream: TcpStream) {
    let resp = Response::err(
        0,
        ErrorCode::TooManyConnections,
        "connection budget exhausted; retry later",
    );
    let _ = write_response(&mut stream, &resp);
}

/// One `write_all` per response line (with TCP_NODELAY on the stream):
/// split writes would hand Nagle + delayed-ACK a 40ms+ stall per request.
fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut line = serde_json::to_string(resp)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Reads request lines off one connection until EOF, error, oversized
/// line, or shutdown. Session-less commands are answered inline;
/// session-ful commands are dispatched to the owning worker's bounded
/// queue (full queue → typed shed, recorded, from right here).
fn connection_loop(shared: &Shared, stream: TcpStream, worker_txs: &[SyncSender<Job>]) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // a timeout can strike mid-line with partial bytes already
        // appended to `line` — keep them and resume the same line on the
        // next pass; clear only after a line is fully processed
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if line.len() > MAX_LINE_BYTES {
                    let resp = Response::err(0, ErrorCode::BadRequest, "request line too long");
                    shared.metrics().add(Counter::Errors, 1);
                    let _ = write_response(&mut writer, &resp);
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_LINE_BYTES {
            let resp = Response::err(0, ErrorCode::BadRequest, "request line too long");
            shared.metrics().add(Counter::Errors, 1);
            let _ = write_response(&mut writer, &resp);
            return;
        }
        let request_line = std::mem::take(&mut line);
        if request_line.trim().is_empty() {
            continue;
        }
        // Plaintext HTTP fast path: a Prometheus scraper (or `curl`) opens
        // the same socket and sends `GET /metrics HTTP/1.1`. Sniffing the
        // verb before the JSON parse keeps the wire protocol untouched and
        // answers scrapes inline — no worker queue, so /healthz responds
        // even when every worker is saturated.
        if request_line.starts_with("GET ") {
            handle_http_get(shared, &mut writer, request_line.trim());
            return; // Connection: close — one response per HTTP connection
        }
        let request: Request = match serde_json::from_str(request_line.trim()) {
            Ok(req) => req,
            Err(e) => {
                shared.metrics().add(Counter::Errors, 1);
                let resp = Response::err(0, ErrorCode::BadRequest, format!("unparseable: {e}"));
                if write_response(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        let started = Instant::now();
        let endpoint = request.cmd.endpoint();
        let response = dispatch(shared, worker_txs, request);
        shared
            .metrics()
            .record_request(endpoint, started.elapsed().as_nanos() as u64);
        if response.err.is_some() {
            // sheds are separately accounted as load-shed, not errors
            match &response.err {
                Some(err) if err.code == ErrorCode::Overloaded => {
                    shared.metrics().add(Counter::LoadShed, 1)
                }
                _ => shared.metrics().add(Counter::Errors, 1),
            }
        }
        if write_response(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// Routes one parsed request: inline for session-less commands, through
/// the owning worker's queue otherwise.
fn dispatch(shared: &Shared, worker_txs: &[SyncSender<Job>], request: Request) -> Response {
    let id = request.id;
    match &request.cmd {
        Command::Hello => return Response::ok(id, Reply::Hello(hello_info(shared))),
        Command::Metrics => {
            return Response::ok(id, Reply::Metrics(shared.core.latest().metrics_snapshot()))
        }
        Command::Slowlog => {
            let lines = shared
                .core
                .latest()
                .tracer()
                .slow_queries()
                .iter()
                .map(|entry| entry.to_line())
                .collect();
            return Response::ok(id, Reply::Slowlog(lines));
        }
        Command::MetricsHistory { last } => {
            return Response::ok(id, Reply::MetricsHistory(shared.monitor.history(*last)))
        }
        Command::Health => return Response::ok(id, Reply::Health(shared.monitor.health())),
        Command::Alerts => return Response::ok(id, Reply::Alerts(shared.monitor.alerts())),
        Command::ResetMetrics => {
            shared.metrics().reset();
            // the monitor must not derive negative rates from the shrink
            shared.monitor.mark_discontinuity();
            return Response::ok(id, Reply::MetricsReset);
        }
        _ => {}
    }
    let session = match request.cmd {
        Command::Open => shared.next_session.fetch_add(1, Ordering::Relaxed) + 1,
        _ => match request.session {
            Some(session) => session,
            None => {
                return Response::err(
                    id,
                    ErrorCode::BadRequest,
                    "this command requires a session (send Open first)",
                )
            }
        },
    };
    let worker = &worker_txs[(session % worker_txs.len() as u64) as usize];
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job {
        session,
        cmd: request.cmd,
        reply: reply_tx,
    };
    match worker.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            return Response::err(
                id,
                ErrorCode::Overloaded,
                "worker queue full; retry with backoff",
            )
        }
        Err(TrySendError::Disconnected(_)) => {
            return Response::err(id, ErrorCode::ShuttingDown, "server is shutting down")
        }
    }
    match reply_rx.recv() {
        Ok(Ok(reply)) => Response::ok(id, reply),
        Ok(Err(err)) => Response {
            id,
            ok: None,
            err: Some(err),
        },
        Err(_) => Response::err(id, ErrorCode::ShuttingDown, "worker exited"),
    }
}

fn hello_info(shared: &Shared) -> HelloInfo {
    let core = shared.core.latest();
    let source = core.source();
    HelloInfo {
        server: "foresight-serve".to_owned(),
        protocol: PROTOCOL_VERSION,
        dataset: source.name().to_owned(),
        rows: core.snapshot_rows(),
        cols: source.n_cols(),
        columns: source.schema().names().map(str::to_owned).collect(),
        mode: core.mode().name().to_owned(),
        streaming: matches!(shared.core, ServeCore::Stream(_)),
        lsh_tables: core.lsh_index().map(|ix| ix.config().tables).unwrap_or(0),
        version: foresight_engine::build_version().to_owned(),
        kernel: foresight_engine::kernel_name().to_owned(),
    }
}

/// Answers the HTTP GET fast path: `/metrics` with Prometheus text
/// exposition (format 0.0.4), `/healthz` with the monitor's verdict
/// (200 for healthy/degraded — degraded still serves — 503 for
/// unready), anything else 404. HTTP/1.0-style one-shot responses.
fn handle_http_get(shared: &Shared, stream: &mut TcpStream, request_line: &str) {
    let started = Instant::now();
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, reason, content_type, body) = match path {
        "/metrics" => (
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            shared.core.latest().metrics_snapshot().to_prometheus(),
        ),
        "/healthz" => {
            let health = shared.monitor.health();
            let mut body = String::new();
            body.push_str(health.name());
            body.push('\n');
            for reason in health.reasons() {
                body.push_str(&reason.describe());
                body.push('\n');
            }
            let (status, reason) = if health.is_ready() {
                (200, "OK")
            } else {
                (503, "Service Unavailable")
            };
            (status, reason, "text/plain; charset=utf-8", body)
        }
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            format!("no such path: {path}\ntry /metrics or /healthz\n"),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    shared
        .metrics()
        .record_request(Endpoint::Metrics, started.elapsed().as_nanos() as u64);
}

/// One worker's session-shard entry.
struct Entry {
    handle: SessionHandle,
    last_used: Instant,
}

/// The worker loop: drain the queue, sweep expired sessions between jobs.
fn worker_loop(shared: Arc<Shared>, rx: Receiver<Job>) {
    let capacity = shared
        .config
        .max_sessions
        .div_ceil(shared.config.workers.max(1))
        .max(1);
    let mut sessions: HashMap<u64, Entry> = HashMap::new();
    let mut last_sweep = Instant::now();
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => {
                let result = handle_job(&shared, &mut sessions, capacity, &job);
                let _ = job.reply.send(result);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if last_sweep.elapsed() >= Duration::from_millis(500) {
            sweep_expired(&shared, &mut sessions);
            last_sweep = Instant::now();
        }
    }
}

/// Drops sessions idle past the TTL.
fn sweep_expired(shared: &Shared, sessions: &mut HashMap<u64, Entry>) {
    let ttl = shared.config.session_ttl;
    let before = sessions.len();
    sessions.retain(|_, entry| entry.last_used.elapsed() < ttl);
    for _ in sessions.len()..before {
        shared.metrics().add(Counter::SessionsExpired, 1);
    }
}

/// Evicts the least-recently-used session to make room for a new one.
fn evict_lru(shared: &Shared, sessions: &mut HashMap<u64, Entry>) {
    if let Some(&victim) = sessions
        .iter()
        .min_by_key(|(_, entry)| entry.last_used)
        .map(|(id, _)| id)
    {
        sessions.remove(&victim);
        shared.metrics().add(Counter::SessionsEvicted, 1);
    }
}

fn engine_error(err: EngineError) -> WireError {
    let code = match &err {
        EngineError::SessionMismatch(_) => ErrorCode::SessionMismatch,
        _ => ErrorCode::Engine,
    };
    WireError {
        code,
        message: err.to_string(),
    }
}

fn handle_job(
    shared: &Shared,
    sessions: &mut HashMap<u64, Entry>,
    capacity: usize,
    job: &Job,
) -> Result<Reply, WireError> {
    if let Command::Open = job.cmd {
        sweep_expired(shared, sessions);
        while sessions.len() >= capacity {
            evict_lru(shared, sessions);
        }
        let mut handle = shared.core.latest().handle();
        if let Some(published) = shared.core.published() {
            handle.bind_stream(published);
            handle.set_adopt_policy(AdoptPolicy::EveryQuery);
        }
        shared.metrics().add(Counter::SessionsCreated, 1);
        sessions.insert(
            job.session,
            Entry {
                handle,
                last_used: Instant::now(),
            },
        );
        return Ok(Reply::Opened {
            session: job.session,
        });
    }
    if let Command::Close = job.cmd {
        return match sessions.remove(&job.session) {
            Some(_) => {
                shared.metrics().add(Counter::SessionsClosed, 1);
                Ok(Reply::Closed)
            }
            None => Err(unknown_session(job.session)),
        };
    }
    let Some(entry) = sessions.get_mut(&job.session) else {
        return Err(unknown_session(job.session));
    };
    entry.last_used = Instant::now();
    let handle = &mut entry.handle;
    match &job.cmd {
        Command::Query(query) => handle
            .query(query)
            .map(Reply::Results)
            .map_err(engine_error),
        Command::Explain(query) => handle
            .explain(query)
            .map(|explained| Reply::Explained {
                results: explained.results,
                trace: explained.trace.map(|t| (*t).clone()),
            })
            .map_err(engine_error),
        Command::Carousels { per_class } => handle
            .carousels(*per_class)
            .map(Reply::Carousels)
            .map_err(engine_error),
        Command::Focus(instance) => {
            handle.focus(instance.clone());
            Ok(Reply::Ack { changed: true })
        }
        Command::Unfocus(attrs) => Ok(Reply::Ack {
            changed: handle.unfocus(attrs),
        }),
        Command::ClearFocus => {
            handle.clear_focus();
            Ok(Reply::Ack { changed: true })
        }
        Command::Profile => handle.profile().map(Reply::Profile).map_err(engine_error),
        Command::Refresh => Ok(Reply::Refreshed {
            moved: handle.refresh(),
        }),
        Command::Staleness => Ok(Reply::Staleness(handle.staleness())),
        Command::Save => handle
            .session()
            .to_json()
            .map(|state| Reply::Saved { state })
            .map_err(engine_error),
        Command::Restore { state } => Session::from_json(state)
            .and_then(|session| handle.restore_session_checked(session))
            .map(|()| Reply::Restored)
            .map_err(engine_error),
        Command::SetMode { mode } => {
            let mode = match mode.as_str() {
                "exact" => Mode::Exact,
                "approximate" | "approx" => Mode::Approximate,
                other => {
                    return Err(WireError {
                        code: ErrorCode::BadRequest,
                        message: format!("unknown mode `{other}` (exact / approximate)"),
                    })
                }
            };
            handle
                .set_mode(mode)
                .map(|()| Reply::ModeSet)
                .map_err(engine_error)
        }
        Command::SetCandidates { strategy } => match CandidateStrategy::parse(strategy) {
            Some(parsed) => {
                handle.set_candidate_strategy(parsed);
                Ok(Reply::CandidatesSet {
                    strategy: parsed.name(),
                })
            }
            None => Err(WireError {
                code: ErrorCode::BadRequest,
                message: format!(
                    "unknown candidate strategy `{strategy}` (auto / exhaustive / lsh / lsh:<n>)"
                ),
            }),
        },
        Command::Sleep { ms } => {
            if !shared.config.enable_test_commands {
                return Err(WireError {
                    code: ErrorCode::Unsupported,
                    message: "test commands are disabled on this server".to_owned(),
                });
            }
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(Reply::Slept)
        }
        // session-less commands are answered inline by the connection
        // thread and never reach a worker
        Command::Hello
        | Command::Open
        | Command::Close
        | Command::Metrics
        | Command::Slowlog
        | Command::MetricsHistory { .. }
        | Command::Health
        | Command::Alerts
        | Command::ResetMetrics => Err(WireError {
            code: ErrorCode::BadRequest,
            message: "command is not session-scoped".to_owned(),
        }),
    }
}

fn unknown_session(id: u64) -> WireError {
    WireError {
        code: ErrorCode::UnknownSession,
        message: format!("session {id} does not exist (never created, expired, or evicted)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use foresight_data::{TableBuilder, TableSource};
    use foresight_engine::CoreBuilder;

    /// Closed connections leave the registry as new ones arrive: after 200
    /// connect → hello → close cycles it holds no more handles than there
    /// are live connections.
    #[test]
    fn closed_connections_are_reaped_on_accept() {
        let table = TableBuilder::new("reaped")
            .numeric("x", (0..16).map(|r| r as f64).collect())
            .numeric("y", (0..16).map(|r| (r * 7 % 5) as f64).collect())
            .build()
            .unwrap();
        let core = CoreBuilder::new(TableSource::materialized(table)).freeze();
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(ServeCore::Static(core), "127.0.0.1:0", config).unwrap();
        for _ in 0..200 {
            let mut client = Client::connect(server.addr()).unwrap();
            client.hello().unwrap();
        }
        // every closed connection's thread runs to its end …
        let deadline = Instant::now() + Duration::from_secs(10);
        while !registry(&server.connections)
            .iter()
            .all(JoinHandle::is_finished)
        {
            assert!(Instant::now() < deadline, "connection threads never ended");
            std::thread::sleep(Duration::from_millis(5));
        }
        // … and the next accept reaps them all
        let mut open = Client::connect(server.addr()).unwrap();
        open.hello().unwrap();
        let live = server.shared.live_connections.load(Ordering::SeqCst);
        assert_eq!(live, 1);
        assert!(registry(&server.connections).len() <= live);
        drop(open);
        server.shutdown();
    }
}

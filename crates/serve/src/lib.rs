//! # mmvc-serve
//!
//! The run-serving daemon: the `mmvc` workspace's unified run driver
//! (`mmvc_core::run`) exposed over HTTP/1.1, built entirely on `std`
//! (hand-rolled HTTP over [`std::net::TcpListener`], the workspace's
//! own JSON model — no new dependencies, consistent with the
//! vendored-shim policy).
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /run` | a JSON [`RunSpec`] in, the canonical `RunReport` JSON out |
//! | `POST /run` with `{"session": id}` | re-run a resident session from warm state |
//! | `POST /session` | a JSON [`RunSpec`] in, a resident warm [`Session`] out |
//! | `POST /update` | apply a batched edge delta to a session (bumps its generation) |
//! | `GET /scenarios` | the scenario registry |
//! | `GET /algorithms` | every [`AlgorithmKind`] |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | counters, scratch stats, latency histogram (JSON; `?format=prom` or `Accept: text/plain` for Prometheus text) |
//!
//! ## Sessions: mutable workloads behind the immutable cache
//!
//! The cache soundness story below assumes immutable specs. Sessions
//! extend it to mutating graphs without weakening it: each session
//! carries a **generation counter** (0 at creation, +1 per applied
//! delta), and session-scoped cache keys fold `(session id, generation)`
//! into the workload object *exactly like file keys fold content
//! hashes* — an update invalidates every prior entry by construction,
//! no eviction protocol needed. Two deliberate exclusions keep staleness
//! impossible: session responses never enter the reactor's raw-request
//! memo (the same `{"session": id}` bytes mean different things across
//! generations), and never touch the disk [`store`] (generation
//! counters restart at zero with the daemon, so a persisted body could
//! alias a future generation's key). The incremental re-runs themselves
//! revalidate their witnesses server-side — see
//! [`mmvc_core::session::Session`].
//!
//! ## Why the cache is sound
//!
//! The run layer pins *report determinism*: a `RunReport` (minus wall
//! time) is a pure function of its spec, for every algorithm kind and
//! executor. The daemon therefore serves the **canonical body** — the
//! report JSON with `wall_ms` zeroed, exactly `mmvc run --json
//! --canonical` — and may memoize it keyed by the canonical serialized
//! spec ([`cache_key`]): a cache hit is byte-identical to a cold run *by
//! construction*, and the integration tests prove it byte-for-byte.
//! File workloads fold a content hash of the edge-list bytes into the
//! key, so editing the file can never alias a stale entry
//! (content-addressing, not path-addressing). The same determinism
//! makes the disk tier ([`store`]) sound: a body read back from disk is
//! the body any fresh run would produce.
//!
//! ## Architecture: a readiness reactor in front of a worker pool
//!
//! One reactor thread owns every socket. The listener and all accepted
//! connections are nonblocking; each scheduler cycle accepts a burst,
//! installs finished worker results, then gives every connection a
//! write-flush, a read, and an incremental parse
//! ([`http::parse_head`]). A connection is therefore never *waited on*
//! — a client that dribbles its request head byte-by-byte costs one
//! buffer and a few scans, not a blocked thread, and back-pressure is
//! explicit (reads pause while a connection has too many unanswered
//! pipelined requests or an oversized buffer).
//!
//! Requests — not connections — are the unit of dispatch. GETs and
//! in-memory cache hits are answered inline by the reactor (zero
//! hand-off, which is what pushes hit throughput past the 5× target on
//! one core); only `POST /run` work that must execute or touch disk is
//! submitted to the panic-safe [`mmvc_substrate::WorkerPool`], whose
//! results come back through a [`mmvc_substrate::Completions`] mailbox
//! and are re-sequenced per connection so pipelined responses leave in
//! request order.
//!
//! Responses are written zero-copy: a response is a freshly rendered
//! ~100-byte head plus a shared `Arc<[u8]>` body, handed to the socket
//! with one vectored write — serving a hot report never copies the
//! payload.
//!
//! ## Trust model
//!
//! The daemon binds `127.0.0.1` by default and trusts its clients the
//! way `mmvc run` trusts its invoker: `graph_file` names **server-local
//! paths by design** (that is how user-supplied workloads reach the
//! driver), so expose the port beyond localhost only behind
//! authentication. Abuse is still bounded — request heads
//! ([`http::MAX_HEAD_BYTES`], 431 past it), bodies
//! ([`http::MAX_BODY_BYTES`], 413), the served `n` ([`MAX_SERVED_N`]),
//! graph-file sizes ([`MAX_GRAPH_FILE_BYTES`]), per-connection buffers,
//! and pipeline depth are all capped, and unparseable file errors never
//! echo file contents back to the client.
//!
//! ## Concurrency discipline
//!
//! The substrate layer's schedule-independence contract still holds:
//! a response body is a pure function of the request bytes — never of
//! worker identity, queue position, or timing — so `--workers 1` and
//! `--workers 32` serve byte-identical bodies for the same requests.
//! Served runs execute on the round engine's sequential executor, which
//! by the engine's determinism contract never changes a reported
//! number.
//!
//! ```no_run
//! use mmvc_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(&ServeConfig::default())?;
//! println!("listening on http://{}", server.local_addr()?);
//! server.run()?; // blocks; shut down via `server.handle()`
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod store;

use cache::ReportCache;
use metrics::Metrics;
use mmvc_core::json::Json;
use mmvc_core::run::{report_json, run_on, AlgorithmKind, RunReport, RunSpec, SpecValue};
use mmvc_core::session::Session;
use mmvc_core::CoreError;
use mmvc_graph::{scenarios, GraphDelta};
use mmvc_substrate::{Completions, ExecutorConfig, Telemetry, TraceEvent, WorkerPool};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store::ReportStore;

/// How the daemon binds and sizes itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7411` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads executing cache-miss runs (clamped to at least 1).
    pub workers: usize,
    /// In-memory report-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Admission cap on the *effective* workload size: a served spec whose
    /// scenario-default or explicit `n` exceeds this is refused with a 400
    /// naming the cap. The default ([`MAX_SERVED_N`]) keeps the
    /// million-vertex scale tier out; operators admit it explicitly with
    /// `mmvc serve --max-n` (e.g. `--max-n 2097152`).
    pub max_n: usize,
    /// Directory for the disk-persistent report store (`None` disables
    /// persistence). A daemon restarted over the same directory keeps
    /// its hit rate: memory misses fall through to disk before running.
    pub store_dir: Option<String>,
    /// Keep-alive idle timeout in milliseconds: a connection with no
    /// unanswered requests and no traffic for this long is closed.
    pub idle_timeout_ms: u64,
    /// Requests served per connection before the daemon answers
    /// `connection: close` (clamped to at least 1). Bounds how long one
    /// client can monopolize a connection slot.
    pub max_requests_per_conn: u64,
    /// Directory for rotating Chrome-trace files (`None` disables
    /// telemetry entirely — the default). When set, the daemon records
    /// per-request and per-run spans and the reactor drains them into
    /// `trace-NNNNN.json` epoch files under this directory (bounded in
    /// count and size — see [`MAX_TRACE_FILES`]).
    pub trace_dir: Option<String>,
}

impl Default for ServeConfig {
    /// `127.0.0.1:7411`, 4 workers, 512 cached reports, scale tier
    /// refused, no disk store, 5 s idle timeout, 1024 requests per
    /// connection, telemetry off.
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            workers: 4,
            cache_capacity: 512,
            max_n: MAX_SERVED_N,
            store_dir: None,
            idle_timeout_ms: 5000,
            max_requests_per_conn: 1024,
            trace_dir: None,
        }
    }
}

/// Default admission cap on the served workload size
/// ([`ServeConfig::max_n`]). The HTTP layer caps request *bytes*; this
/// caps the *work* a decoded spec can demand — a four-billion-vertex `n`
/// fits in a tiny body but would pin a worker for hours and exhaust
/// memory. At `2^17` the registry's scale tier (`scale-*`, `n ≥ 2^20`) is
/// refused unless the operator raises the cap.
pub const MAX_SERVED_N: usize = 1 << 17;

/// Largest accepted `graph_file` workload, in bytes (checked before the
/// file is read into memory).
pub const MAX_GRAPH_FILE_BYTES: u64 = 64 * 1024 * 1024;

/// Most unanswered pipelined requests per connection: past this the
/// reactor stops reading from the socket until responses drain, so a
/// client cannot buy unbounded response memory with one TCP segment.
const MAX_PIPELINED: u64 = 64;

/// Hard cap on a connection's receive buffer; reads pause at the cap.
const MAX_CONN_BUF: usize = 8 << 20;

/// Bytes pulled per `read()` call on a ready socket.
const READ_CHUNK: usize = 16 * 1024;

/// Connections accepted per reactor cycle before polling existing ones.
const ACCEPT_BURST: usize = 64;

/// How long shutdown waits for in-flight responses to flush.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Most entries the reactor-local raw-request memo will hold, whatever
/// the configured cache capacity.
const RAW_MEMO_CAP: usize = 8192;

/// The reactor's private shortcut for repeat `POST /run` bodies: exact
/// request bytes → the shared response body already produced for them.
///
/// Sound because the whole request path is deterministic: identical
/// body bytes parse to the identical spec, which admits identically
/// (`max_n` is fixed for the server's lifetime) and addresses the same
/// canonical cache entry — whose bytes are immutable per spec. Only
/// 200-status in-memory hits are memoized, and `graph_file` specs never
/// reach the memo (their bytes depend on a file that can change).
/// Owned solely by the reactor thread, so lookups are a single unlocked
/// hash probe — cheaper than re-parsing the spec JSON and re-rendering
/// the canonical key on every hot hit.
///
/// Capacity follows the LRU's (`--cache-cap`, up to [`RAW_MEMO_CAP`]),
/// so the operator's cached-bodies bound stays meaningful; when full
/// the map is reset wholesale (an epoch clear is amortized O(1) and
/// needs no recency bookkeeping on the hottest path).
struct RawMemo {
    map: HashMap<Vec<u8>, Arc<[u8]>>,
    cap: usize,
}

impl RawMemo {
    fn new(cap: usize) -> Self {
        RawMemo {
            map: HashMap::new(),
            cap: cap.min(RAW_MEMO_CAP),
        }
    }

    fn get(&self, body: &[u8]) -> Option<&Arc<[u8]>> {
        self.map.get(body)
    }

    fn insert(&mut self, body: &[u8], reply: &Arc<[u8]>) {
        if self.cap == 0 {
            return;
        }
        if self.map.len() >= self.cap {
            self.map.clear();
        }
        self.map.insert(body.to_vec(), Arc::clone(reply));
    }
}

/// Most resident sessions per daemon. Each holds a full graph, so the
/// table is a memory commitment, not bookkeeping: past the cap
/// `POST /session` answers 400 until sessions are deleted (restart).
pub const MAX_SESSIONS: usize = 64;

/// The resident-session table: monotone ids (never reused, so a stale
/// client id can never alias a newer session) to warm [`Session`]s.
/// Each session sits behind its own mutex — an incremental run holds it
/// for the duration, so runs and updates on one session serialize while
/// other sessions proceed.
#[derive(Default)]
struct SessionTable {
    next_id: u64,
    map: HashMap<u64, Arc<Mutex<Session>>>,
}

/// Shared state behind the reactor and every worker: the two cache
/// tiers, the traffic counters, and the precomputed static bodies.
struct AppState {
    cache: Mutex<ReportCache>,
    store: Option<ReportStore>,
    metrics: Metrics,
    workers: usize,
    max_n: usize,
    sessions: Mutex<SessionTable>,
    /// One scratch arena shared by every served run: repeat requests
    /// (cache misses included) rebuild graphs and per-round masks out of
    /// recycled buffers instead of fresh allocations.
    scratch: mmvc_substrate::ScratchPool,
    /// The daemon's telemetry sink: recording when `--trace-dir` is
    /// set, the zero-cost disabled handle otherwise. Strictly
    /// out-of-band — served bodies and cache keys never depend on it
    /// (same rule as `wall_ms`).
    telemetry: Telemetry,
    /// Static endpoint bodies, rendered once and served as shared bytes.
    healthz: Arc<[u8]>,
    scenarios: Arc<[u8]>,
    algorithms: Arc<[u8]>,
}

/// The bound daemon: reactor thread plus worker pool.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    workers: usize,
    idle_timeout: Duration,
    max_requests_per_conn: u64,
    trace_dir: Option<PathBuf>,
}

/// A remote control for a running [`Server`] (cloneable, thread-safe).
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the reactor to exit. Accepted requests are drained (bounded
    /// by an internal deadline) before [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so even a sleeping reactor cycles promptly.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
    }
}

impl Server {
    /// Binds the listener, opens the persistent store (when configured),
    /// and builds the shared state; call [`run`](Self::run) to start
    /// serving.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-open failures.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let store = match &config.store_dir {
            Some(dir) => Some(ReportStore::open(dir)?),
            None => None,
        };
        let trace_dir = match &config.trace_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some(PathBuf::from(dir))
            }
            None => None,
        };
        let telemetry = if trace_dir.is_some() {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        };
        Ok(Server {
            listener,
            state: Arc::new(AppState {
                cache: Mutex::new(ReportCache::new(config.cache_capacity)),
                store,
                metrics: Metrics::new(),
                workers,
                max_n: config.max_n,
                sessions: Mutex::new(SessionTable::default()),
                scratch: mmvc_substrate::ScratchPool::new(),
                telemetry,
                healthz: Arc::from(healthz_body()),
                scenarios: Arc::from(scenarios_body()),
                algorithms: Arc::from(algorithms_body()),
            }),
            stop: Arc::new(AtomicBool::new(false)),
            workers,
            idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            trace_dir,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the server from another thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr()?,
        })
    }

    /// Runs the reactor until [`ServerHandle::shutdown`] is called:
    /// accepts, reads, parses, dispatches, and writes — all on this
    /// thread — while cache-miss runs execute on the worker pool.
    /// Returns after in-flight responses have drained (or the drain
    /// deadline passes).
    ///
    /// # Errors
    ///
    /// Reserved for future fatal reactor failures; individual connection
    /// errors are absorbed and surfaced in `/metrics` instead.
    pub fn run(self) -> std::io::Result<()> {
        let pool = WorkerPool::new(self.workers);
        let completions: Arc<Completions<Completion>> = Arc::new(Completions::new());
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut completed: Vec<Completion> = Vec::new();
        let mut next_gen: u64 = 0;
        let mut spins: u32 = 0;
        let mut raw_memo = RawMemo::new(lock_cache(&self.state).capacity());
        let mut tracer = self
            .trace_dir
            .as_ref()
            .map(|dir| TraceWriter::new(dir.clone(), Instant::now()));

        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            let mut progress = false;

            // Accept a bounded burst of new connections.
            for _ in 0..ACCEPT_BURST {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        self.state.metrics.bump(&self.state.metrics.connections);
                        next_gen += 1;
                        let conn = Conn::new(stream, next_gen, now);
                        match free.pop() {
                            Some(slot) => conns[slot] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Persistent accept failures (e.g. fd exhaustion under
                    // a connection flood) must not busy-spin the reactor.
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(10));
                        break;
                    }
                }
            }

            // Install finished worker results into their connections.
            progress |= install_completions(
                &completions,
                &mut completed,
                &mut conns,
                &self.state.metrics,
                now,
            );

            // Give every connection a flush, a read, and a parse.
            for (idx, slot) in conns.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else {
                    continue;
                };
                let mut drop_conn = false;
                match flush_out(conn, &self.state) {
                    Ok(flushed) => progress |= flushed,
                    Err(()) => drop_conn = true,
                }
                if !drop_conn
                    && !conn.stop_parsing
                    && !conn.peer_eof
                    && conn.unanswered() < MAX_PIPELINED
                    && conn.buf.len() < MAX_CONN_BUF
                {
                    match read_some(conn, now) {
                        ReadOutcome::Progress => {
                            progress = true;
                            conn.need_more = false;
                        }
                        ReadOutcome::Blocked => {}
                        ReadOutcome::Failed => drop_conn = true,
                    }
                }
                if !drop_conn
                    && !conn.stop_parsing
                    && !conn.need_more
                    && conn.unanswered() < MAX_PIPELINED
                    && !conn.buf.is_empty()
                {
                    parse_and_dispatch(
                        conn,
                        idx,
                        &self.state,
                        &pool,
                        &completions,
                        now,
                        self.max_requests_per_conn,
                        &mut raw_memo,
                    );
                    progress = true;
                    if flush_out(conn, &self.state).is_err() {
                        drop_conn = true;
                    }
                }
                if !drop_conn {
                    let done = conn.unanswered() == 0 && conn.out.is_empty();
                    if (conn.stop_parsing || conn.peer_eof) && done {
                        drop_conn = true;
                    } else if now.duration_since(conn.last_activity) >= self.idle_timeout
                        && (conn.unanswered() == 0 || !conn.out.is_empty())
                    {
                        // Idle keep-alive connection, or a peer too slow
                        // to read its responses. Connections merely
                        // waiting on a long worker-side run are spared.
                        drop_conn = true;
                    }
                }
                if drop_conn {
                    *slot = None;
                    free.push(idx);
                    progress = true;
                }
            }

            // Drain accumulated telemetry into the rotating trace files
            // (cheap when nothing was recorded).
            if let Some(tracer) = tracer.as_mut() {
                tracer.poll(&self.state.telemetry, now);
            }

            // Adaptive idle policy: spin while traffic flows, back off
            // when nothing moved (no epoll under the no-new-deps rule,
            // so readiness is discovered by polling).
            if progress {
                spins = 0;
            } else {
                spins = spins.saturating_add(1);
                if spins <= 16 {
                    std::thread::yield_now();
                } else if spins <= 2048 {
                    std::thread::sleep(Duration::from_micros(50));
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }

        // Graceful drain: stop parsing new requests, flush what was
        // already accepted, bounded by the drain deadline.
        let deadline = Instant::now() + DRAIN_DEADLINE;
        for conn in conns.iter_mut().flatten() {
            conn.stop_parsing = true;
        }
        loop {
            let now = Instant::now();
            install_completions(
                &completions,
                &mut completed,
                &mut conns,
                &self.state.metrics,
                now,
            );
            for slot in conns.iter_mut() {
                let Some(conn) = slot.as_mut() else {
                    continue;
                };
                let finished = match flush_out(conn, &self.state) {
                    Ok(_) => conn.unanswered() == 0 && conn.out.is_empty(),
                    Err(()) => true,
                };
                if finished {
                    *slot = None;
                }
            }
            if conns.iter().all(Option::is_none) || now >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        drop(pool); // joins workers; orphan completions are discarded
        if let Some(tracer) = tracer.as_mut() {
            // Final drain so the last epoch's spans reach disk.
            tracer.finish(&self.state.telemetry);
        }
        Ok(())
    }
}

/// How often the reactor rotates the current trace epoch to disk.
const TRACE_EPOCH: Duration = Duration::from_secs(2);

/// Events per trace file before an early rotation. Bounds file size:
/// a rendered event is well under 512 bytes, so a file stays under
/// ~4 MB.
const TRACE_EVENTS_PER_FILE: usize = 8192;

/// Most trace files retained under `--trace-dir`: when a rotation would
/// exceed this, the oldest epoch file is deleted. Bounds a long-running
/// daemon's trace footprint to `MAX_TRACE_FILES ×` ~4 MB.
pub const MAX_TRACE_FILES: u64 = 32;

/// Rotating Chrome-trace writer behind `--trace-dir`: buffers drained
/// [`TraceEvent`]s and writes one complete Chrome Trace Event document
/// (`trace-NNNNN.json`) per epoch — each file loads standalone in
/// Perfetto. Rotation fires on the epoch timer or the per-file event
/// cap, whichever comes first; retention is bounded by
/// [`MAX_TRACE_FILES`].
struct TraceWriter {
    dir: PathBuf,
    buf: Vec<TraceEvent>,
    next_file: u64,
    epoch_start: Instant,
}

impl TraceWriter {
    fn new(dir: PathBuf, now: Instant) -> TraceWriter {
        TraceWriter {
            dir,
            buf: Vec::new(),
            next_file: 0,
            epoch_start: now,
        }
    }

    /// One reactor-cycle tick: pull whatever the sink holds, rotate if
    /// the epoch elapsed or the buffer hit the per-file cap.
    fn poll(&mut self, telemetry: &Telemetry, now: Instant) {
        if telemetry.has_events() {
            self.buf.extend(telemetry.drain());
        }
        if self.buf.len() >= TRACE_EVENTS_PER_FILE
            || (!self.buf.is_empty() && now.duration_since(self.epoch_start) >= TRACE_EPOCH)
        {
            self.rotate(now);
        }
    }

    /// Shutdown flush: whatever is buffered becomes the final epoch.
    fn finish(&mut self, telemetry: &Telemetry) {
        if telemetry.has_events() {
            self.buf.extend(telemetry.drain());
        }
        if !self.buf.is_empty() {
            self.rotate(Instant::now());
        }
    }

    fn rotate(&mut self, now: Instant) {
        let path = self.dir.join(format!("trace-{:05}.json", self.next_file));
        let doc = mmvc_core::tracefmt::chrome_trace(&self.buf);
        // A failed write costs this epoch's trace, never availability.
        let _ = std::fs::write(&path, doc.render());
        self.buf.clear();
        if self.next_file >= MAX_TRACE_FILES {
            let stale = self.dir.join(format!(
                "trace-{:05}.json",
                self.next_file - MAX_TRACE_FILES
            ));
            let _ = std::fs::remove_file(stale);
        }
        self.next_file += 1;
        self.epoch_start = now;
    }
}

/// One worker-pool result routed back to its connection.
struct Completion {
    conn: usize,
    generation: u64,
    seq: u64,
    msg: OutMsg,
}

/// A response staged for writing: a freshly rendered head plus a shared
/// body, with write cursors so a partial write resumes where it left
/// off. The body is an `Arc<[u8]>` clone of the cached bytes — writing
/// it never copies the payload.
struct OutMsg {
    head: Vec<u8>,
    body: Arc<[u8]>,
    head_pos: usize,
    body_pos: usize,
    close_after: bool,
    /// An interim message (`100 Continue`): not a real answer, so it
    /// counts toward neither the request sequence nor the metrics.
    interim: bool,
    parsed_at: Instant,
    /// The `x-cache` disposition of the reply, carried here so the
    /// request span emitted at last-byte time can be tagged with the
    /// tier that served it.
    tier: Option<&'static str>,
}

impl OutMsg {
    fn interim_continue(parsed_at: Instant) -> OutMsg {
        OutMsg {
            head: http::CONTINUE_BYTES.to_vec(),
            body: Arc::from(&b""[..]),
            head_pos: 0,
            body_pos: 0,
            close_after: false,
            interim: true,
            parsed_at,
            tier: None,
        }
    }
}

/// Reactor-side connection state.
struct Conn {
    stream: TcpStream,
    /// Guards a recycled slot against accepting a stale completion.
    generation: u64,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// A parsed head whose body has not fully arrived.
    pending_head: Option<(http::Head, usize)>,
    sent_continue: bool,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next sequence number eligible to move into `out`.
    promote_seq: u64,
    /// Responses fully written.
    written: u64,
    /// Finished responses waiting for an earlier sequence number —
    /// pipelined responses must leave in request order.
    ready: BTreeMap<u64, OutMsg>,
    /// In-order responses being written.
    out: VecDeque<OutMsg>,
    last_activity: Instant,
    /// No more requests will be parsed (quota, parse error,
    /// `Connection: close`, or shutdown).
    stop_parsing: bool,
    /// The peer half-closed; buffered complete requests still get
    /// answered.
    peer_eof: bool,
    /// The parser exhausted `buf`; skip parsing until more bytes arrive.
    need_more: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64, now: Instant) -> Conn {
        Conn {
            stream,
            generation,
            buf: Vec::new(),
            pending_head: None,
            sent_continue: false,
            next_seq: 0,
            promote_seq: 0,
            written: 0,
            ready: BTreeMap::new(),
            out: VecDeque::new(),
            last_activity: now,
            stop_parsing: false,
            peer_eof: false,
            need_more: false,
        }
    }

    /// Requests assigned a sequence number but not yet fully written.
    fn unanswered(&self) -> u64 {
        self.next_seq - self.written
    }
}

/// Moves finished worker results into their connections' reorder maps.
fn install_completions(
    completions: &Completions<Completion>,
    completed: &mut Vec<Completion>,
    conns: &mut [Option<Conn>],
    metrics: &Metrics,
    now: Instant,
) -> bool {
    if completions.is_empty() {
        return false;
    }
    completions.drain_into(completed);
    let mut any = false;
    for c in completed.drain(..) {
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Some(conn) = conns.get_mut(c.conn).and_then(Option::as_mut) {
            // A stale generation means the slot was recycled: the
            // original connection is gone, the result is dropped.
            if conn.generation == c.generation {
                conn.ready.insert(c.seq, c.msg);
                conn.last_activity = now;
                promote(conn);
                any = true;
            }
        }
    }
    any
}

/// Moves consecutive finished responses from `ready` into the write
/// queue.
fn promote(conn: &mut Conn) {
    while let Some(msg) = conn.ready.remove(&conn.promote_seq) {
        conn.out.push_back(msg);
        conn.promote_seq += 1;
    }
}

enum ReadOutcome {
    Progress,
    Blocked,
    Failed,
}

/// Pulls whatever the socket has ready into the connection buffer (a
/// few chunks at most, so one firehose client cannot starve the rest of
/// the cycle). EOF is recorded, not fatal: buffered requests still get
/// answered.
fn read_some(conn: &mut Conn, now: Instant) -> ReadOutcome {
    let mut chunk = [0u8; READ_CHUNK];
    let mut got = false;
    for _ in 0..4 {
        if conn.buf.len() >= MAX_CONN_BUF {
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = now;
                got = true;
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Failed,
        }
    }
    if got {
        ReadOutcome::Progress
    } else {
        ReadOutcome::Blocked
    }
}

/// Writes as much of the queued responses as the socket accepts, head
/// and shared body in one vectored write. `Err(())` means the
/// connection is finished (write failure or a `Connection: close`
/// response fully sent) and must be dropped.
fn flush_out(conn: &mut Conn, state: &AppState) -> Result<bool, ()> {
    let mut progress = false;
    while let Some(front) = conn.out.front_mut() {
        let head_rest = &front.head[front.head_pos..];
        let body_rest = &front.body[front.body_pos..];
        match conn
            .stream
            .write_vectored(&[IoSlice::new(head_rest), IoSlice::new(body_rest)])
        {
            Ok(0) => return Err(()),
            Ok(mut n) => {
                progress = true;
                conn.last_activity = Instant::now();
                let head_take = n.min(head_rest.len());
                front.head_pos += head_take;
                n -= head_take;
                front.body_pos += n;
                if front.head_pos == front.head.len() && front.body_pos == front.body.len() {
                    let msg = conn.out.pop_front().expect("front exists");
                    if !msg.interim {
                        conn.written += 1;
                        state.metrics.bump(&state.metrics.requests);
                        state.metrics.add(
                            &state.metrics.bytes_served,
                            (msg.head.len() + msg.body.len()) as u64,
                        );
                        state.metrics.record_latency_ms(
                            Instant::now().duration_since(msg.parsed_at).as_secs_f64() * 1e3,
                        );
                        // The request span: parse-complete to last byte
                        // handed to the socket, tagged with the cache
                        // tier that served it.
                        state.telemetry.record_span(
                            "request",
                            msg.tier,
                            msg.parsed_at,
                            &[("bytes", (msg.head.len() + msg.body.len()) as u64)],
                        );
                        if msg.close_after {
                            return Err(());
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(progress)
}

/// Parses as many complete requests as the buffer holds, answering each
/// inline ([`route_fast`]) or dispatching it to the pool, bounded by
/// the pipeline cap and the per-connection request quota.
#[allow(clippy::too_many_arguments)] // the reactor's one dispatch point
fn parse_and_dispatch(
    conn: &mut Conn,
    idx: usize,
    state: &Arc<AppState>,
    pool: &WorkerPool,
    completions: &Arc<Completions<Completion>>,
    now: Instant,
    max_requests: u64,
    raw_memo: &mut RawMemo,
) {
    while !conn.stop_parsing && conn.unanswered() < MAX_PIPELINED {
        if let Some((head, head_len)) = conn.pending_head.take() {
            let total = head_len + head.content_length;
            if conn.buf.len() < total {
                // The body is still in flight. Acknowledge
                // `Expect: 100-continue` once, and only when nothing
                // else is queued ahead of it — an interim response must
                // not jump an earlier request's answer.
                if head.expect_continue
                    && !conn.sent_continue
                    && conn.unanswered() == 0
                    && conn.out.is_empty()
                {
                    conn.sent_continue = true;
                    conn.out.push_back(OutMsg::interim_continue(now));
                }
                conn.pending_head = Some((head, head_len));
                conn.need_more = true;
                break;
            }
            let body = conn.buf[head_len..total].to_vec();
            conn.buf.drain(..total);
            conn.sent_continue = false;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if seq > 0 {
                state.metrics.bump(&state.metrics.keepalive_reuses);
            }
            let keep = head.keep_alive && seq + 1 < max_requests;
            if !keep {
                conn.stop_parsing = true;
            }
            let request = http::Request { head, body };
            match route_fast(&request, state, raw_memo) {
                Some(reply) => {
                    conn.ready
                        .insert(seq, build_msg(reply, keep, now, &state.metrics));
                }
                None => {
                    state.metrics.bump(&state.metrics.in_flight);
                    let state = Arc::clone(state);
                    let completions = Arc::clone(completions);
                    let generation = conn.generation;
                    pool.submit(move || {
                        let reply = handle_worker(&state, &request);
                        let msg = build_msg(reply, keep, now, &state.metrics);
                        completions.push(Completion {
                            conn: idx,
                            generation,
                            seq,
                            msg,
                        });
                    });
                }
            }
        } else {
            match http::parse_head(&conn.buf) {
                Ok(Some(pair)) => conn.pending_head = Some(pair),
                Ok(None) => {
                    conn.need_more = true;
                    break;
                }
                Err(e) => {
                    // The byte stream can no longer frame a next
                    // request: answer the error and close.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let reply = Reply::error(e.status(), &e.to_string());
                    conn.ready
                        .insert(seq, build_msg(reply, false, now, &state.metrics));
                    conn.stop_parsing = true;
                    conn.buf.clear();
                    break;
                }
            }
        }
    }
    promote(conn);
}

/// Renders a reply into a staged response message, accounting errors.
fn build_msg(reply: Reply, keep_alive: bool, parsed_at: Instant, metrics: &Metrics) -> OutMsg {
    if reply.status >= 400 {
        metrics.bump(&metrics.errors);
    }
    let mut extra: Vec<(&str, &str)> = Vec::new();
    if let Some(cache_state) = reply.x_cache {
        extra.push(("x-cache", cache_state));
    }
    let head = http::render_head(
        reply.status,
        reply.content_type,
        &extra,
        reply.body.len(),
        keep_alive,
    );
    OutMsg {
        head,
        body: reply.body,
        head_pos: 0,
        body_pos: 0,
        close_after: !keep_alive,
        interim: false,
        parsed_at,
        tier: reply.x_cache,
    }
}

/// A routed response: status, cache disposition, content type, shared
/// body bytes.
#[derive(Debug)]
struct Reply {
    status: u16,
    x_cache: Option<&'static str>,
    content_type: &'static str,
    body: Arc<[u8]>,
}

impl Reply {
    fn ok(body: Arc<[u8]>) -> Self {
        Reply {
            status: 200,
            x_cache: None,
            content_type: "application/json",
            body,
        }
    }

    /// A Prometheus text-exposition body (`GET /metrics?format=prom`).
    fn ok_prom(body: Arc<[u8]>) -> Self {
        Reply {
            status: 200,
            x_cache: None,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Reply {
            status,
            x_cache: None,
            content_type: "application/json",
            body: Arc::from(
                Json::obj(vec![("error", Json::Str(message.to_string()))])
                    .render()
                    .into_bytes(),
            ),
        }
    }
}

/// Routes a parsed request on the reactor thread. `Some` is the answer
/// (static bodies, `/metrics`, errors, and in-memory cache hits — all
/// cheap); `None` means the request needs a worker (it executes a run
/// or touches the disk store). Every body except `/metrics` is a pure
/// function of the request — the worker-pool determinism contract.
///
/// The target is split at `?` before matching, so `GET /metrics` can
/// negotiate its format (`?format=prom`, or an `Accept: text/plain` /
/// OpenMetrics header, selects the Prometheus text exposition).
fn route_fast(request: &http::Request, state: &AppState, raw_memo: &mut RawMemo) -> Option<Reply> {
    let target = request.head.target.as_str();
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    match (request.head.method.as_str(), path) {
        ("POST", "/run") => {
            state.metrics.bump(&state.metrics.run_requests);
            fast_run(state, &request.body, raw_memo)
        }
        // Session creation builds a workload and updates rebuild a CSR —
        // both are worker-side work, never reactor-side.
        ("POST", "/session" | "/update") => None,
        ("GET", "/scenarios") => Some(Reply::ok(Arc::clone(&state.scenarios))),
        ("GET", "/algorithms") => Some(Reply::ok(Arc::clone(&state.algorithms))),
        ("GET", "/healthz") => Some(Reply::ok(Arc::clone(&state.healthz))),
        ("GET", "/metrics") => {
            let prom = query.split('&').any(|kv| kv == "format=prom")
                || request
                    .head
                    .accept
                    .as_deref()
                    .is_some_and(|a| a.contains("text/plain") || a.contains("openmetrics"));
            Some(if prom {
                Reply::ok_prom(Arc::from(prom_metrics_body(state)))
            } else {
                Reply::ok(Arc::from(metrics_body(state)))
            })
        }
        (
            method,
            "/run" | "/session" | "/update" | "/scenarios" | "/algorithms" | "/healthz"
            | "/metrics",
        ) => Some(Reply::error(
            405,
            &format!("method {method} not allowed here"),
        )),
        (_, target) => Some(Reply::error(404, &format!("no such endpoint `{target}`"))),
    }
}

/// The reactor-side `POST /run` fast path: answer from the raw-request
/// memo or the in-memory cache without touching the pool or the disk.
/// Returns `None` to dispatch to a worker (file workloads, memory
/// misses).
fn fast_run(state: &AppState, body: &[u8], raw_memo: &mut RawMemo) -> Option<Reply> {
    // The memo goes first, before any parse. Only bodies that parsed as
    // run specs are ever memoized, and a session reference never does
    // (it has no `algorithm` field), so the memo cannot answer one: the
    // same `{"session": id}` bytes name *different* responses across
    // generations.
    if let Some(memoized) = raw_memo.get(body) {
        state.metrics.bump(&state.metrics.cache_hits);
        return Some(Reply {
            status: 200,
            x_cache: Some("hit"),
            content_type: "application/json",
            body: Arc::clone(memoized),
        });
    }
    // Session-scoped runs consult only the generation-folded LRU key.
    let mut spec = match parse_run_request(body) {
        Ok(RunBody::Session(id)) => return fast_session_run(state, id),
        Ok(RunBody::Spec(spec)) => *spec,
        Err(message) => return Some(Reply::error(400, &message)),
    };
    if spec.graph_file.is_some() {
        return None; // file I/O belongs on a worker
    }
    if let Err(refusal) = admit(&mut spec, state) {
        return Some(refusal);
    }
    let key = cache_key(&spec, None);
    let hit = lock_cache(state).get(&key);
    match hit {
        Some(cached) => {
            state.metrics.bump(&state.metrics.cache_hits);
            raw_memo.insert(body, &cached);
            Some(Reply {
                status: 200,
                x_cache: Some("hit"),
                content_type: "application/json",
                body: cached,
            })
        }
        None => None,
    }
}

/// Shared admission: refuse oversized registry workloads, then fold the
/// daemon's cap into the spec's budget and attach the scratch arena.
///
/// Runs identically on the fast path and the worker path — in
/// particular the budget fold happens **before** [`cache_key`] is
/// computed (the key includes `budget.max_n`), so both paths address
/// the same cache entry for the same request bytes.
fn admit(spec: &mut RunSpec, state: &AppState) -> Result<(), Reply> {
    // Admission: resolve the *effective* workload size — the explicit
    // `n` or the scenario's default — and refuse specs above the
    // daemon's cap explicitly (the registry's scale tier lands here
    // unless the operator raised `--max-n`). File workloads are checked
    // after loading, when their vertex count is known.
    if spec.graph_file.is_none() {
        let effective_n = spec
            .n
            .or_else(|| scenarios::get(&spec.scenario).map(|sc| sc.default_n));
        if let Some(n) = effective_n {
            if n > state.max_n {
                return Err(Reply::error(
                    400,
                    &format!(
                        "invalid parameter `n`: this spec resolves to n = {n}, but served \
                         runs are capped at n = {} — restart with `mmvc serve --max-n {n}` \
                         to admit scale-tier workloads",
                        state.max_n
                    ),
                ));
            }
        }
    }
    // Backstop: fold the daemon's cap into the spec's admission budget
    // (`RunBudget::max_n`), so workloads whose size is only known later
    // — graph files in particular — are refused by the run driver
    // itself.
    spec.budget.max_n = Some(
        spec.budget
            .max_n
            .map_or(state.max_n, |m| m.min(state.max_n)),
    );
    // Served runs share the daemon's scratch arena and telemetry sink:
    // the cache key ignores the executor (it never changes a reported
    // number), so pooling and tracing are invisible to clients —
    // scratch stops repeat builds from allocating, telemetry gives
    // cache-miss runs build/round spans in the daemon's trace files.
    spec.executor = spec
        .executor
        .clone()
        .with_scratch(&state.scratch)
        .with_telemetry(&state.telemetry);
    Ok(())
}

/// The worker-side `POST /run` path: spec → memory cache → persistent
/// store → (on miss) execute → populate both tiers.
fn handle_run(state: &AppState, mut spec: RunSpec) -> Reply {
    if let Err(refusal) = admit(&mut spec, state) {
        return refusal;
    }

    // Resolve the workload's cache identity — and, for file workloads,
    // the bytes — *once*, so the hash in the key is the hash of exactly
    // what runs (no read-twice races with concurrent file edits).
    let file = match &spec.graph_file {
        Some(path) => {
            if spec.n.is_some() {
                return Reply::error(
                    400,
                    "invalid parameter `n`: a size override does not apply to a graph file \
                     workload",
                );
            }
            match std::fs::metadata(path) {
                Ok(meta) if meta.len() > MAX_GRAPH_FILE_BYTES => {
                    return Reply::error(
                        400,
                        &format!(
                            "cannot load graph file `{path}`: larger than \
                             {MAX_GRAPH_FILE_BYTES} bytes"
                        ),
                    );
                }
                _ => {}
            }
            match std::fs::read(path) {
                Ok(bytes) => Some((path.clone(), bytes)),
                Err(e) => {
                    return Reply::error(400, &format!("cannot load graph file `{path}`: {e}"))
                }
            }
        }
        None => None,
    };
    let key = cache_key(&spec, file.as_ref().map(|(_, bytes)| fnv1a(bytes)));

    // Memory tier (the fast path may have raced us into it).
    if let Some(body) = lock_cache(state).get(&key) {
        state.metrics.bump(&state.metrics.cache_hits);
        return Reply {
            status: 200,
            x_cache: Some("hit"),
            content_type: "application/json",
            body,
        };
    }
    // Disk tier: a restarted daemon finds yesterday's reports here and
    // skips the run entirely.
    if let Some(store) = &state.store {
        if let Some(body) = store.load(&key) {
            state.metrics.bump(&state.metrics.store_hits);
            lock_cache(state).insert(key, Arc::clone(&body));
            return Reply {
                status: 200,
                x_cache: Some("store"),
                content_type: "application/json",
                body,
            };
        }
    }

    let report = match &file {
        // The folded admission cap applies before the CSR arrays are
        // allocated: a tiny file declaring a huge vertex count is
        // refused by arithmetic, not by an OOM'd worker.
        Some((path, bytes)) => {
            mmvc_graph::io::read_edge_list_capped(bytes.as_slice(), spec.budget.max_n)
                .map_err(|source| CoreError::GraphFile {
                    path: path.clone(),
                    source,
                })
                .and_then(|g| run_on(&g, &format!("file:{path}"), &spec))
        }
        None => mmvc_core::run::run(&spec),
    };
    let report = match report {
        Ok(report) => report,
        // A graph-file failure is sanitized: the daemon reads
        // caller-named server-local paths, and `ReadError::Parse`
        // echoes the offending line verbatim — relaying that would
        // disclose the first line of any non-edge-list file a client
        // cares to probe.
        Err(CoreError::GraphFile { path, source }) => {
            use mmvc_graph::io::ReadError;
            let detail = match source {
                ReadError::Parse { line, .. } => {
                    format!("cannot parse line {line} as an edge list")
                }
                other => other.to_string(),
            };
            return Reply::error(400, &format!("cannot load graph file `{path}`: {detail}"));
        }
        Err(e) => return Reply::error(400, &e.to_string()),
    };

    let body: Arc<[u8]> = Arc::from(canonical_report_body(report));
    state.metrics.bump(&state.metrics.cache_misses);
    lock_cache(state).insert(key.clone(), Arc::clone(&body));
    if let Some(store) = &state.store {
        // A failed write costs durability, not availability.
        if store.save(&key, &body).is_err() {
            state.metrics.bump(&state.metrics.store_errors);
        }
    }
    Reply {
        status: 200,
        x_cache: Some("miss"),
        content_type: "application/json",
        body,
    }
}

/// Worker-side dispatch: routes a request the reactor handed off to its
/// handler by (method, path). `route_fast` only returns `None` for
/// these three paths, so the catch-all is unreachable in practice.
fn handle_worker(state: &AppState, request: &http::Request) -> Reply {
    let target = request.head.target.as_str();
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    let _span = state.telemetry.span_tagged("serve.worker", path);
    match (request.head.method.as_str(), path) {
        ("POST", "/run") => match parse_run_request(&request.body) {
            Ok(RunBody::Session(id)) => handle_session_run(state, id),
            Ok(RunBody::Spec(spec)) => handle_run(state, *spec),
            Err(message) => Reply::error(400, &message),
        },
        ("POST", "/session") => handle_session_create(state, &request.body),
        ("POST", "/update") => handle_session_update(state, &request.body),
        (method, target) => Reply::error(404, &format!("no handler for {method} {target}")),
    }
}

/// A `POST /run` body, parsed once.
enum RunBody {
    /// A session-scoped run: a JSON object whose only key is `session`
    /// (a non-negative integer).
    Session(u64),
    /// Anything else is a run spec, validated by [`parse_run_body`]'s
    /// strict rules.
    Spec(Box<RunSpec>),
}

/// Parses a `POST /run` body once and branches on its shape; a body that
/// is not a session reference gets the spec parser's error message.
fn parse_run_request(body: &[u8]) -> Result<RunBody, String> {
    let doc = parse_body_json(body)?;
    match doc.as_obj() {
        Some([(key, Json::Int(id))]) if key == "session" && *id >= 0 => {
            Ok(RunBody::Session(*id as u64))
        }
        _ => spec_from_json(&doc).map(|spec| RunBody::Spec(Box::new(spec))),
    }
}

/// Looks up a live session handle.
fn session_handle(state: &AppState, id: u64) -> Option<Arc<Mutex<Session>>> {
    lock_sessions(state).map.get(&id).cloned()
}

/// Locks a session table / session, recovering from poisoning the same
/// way [`lock_cache`] does.
fn lock_sessions(state: &AppState) -> std::sync::MutexGuard<'_, SessionTable> {
    state
        .sessions
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_session(session: &Mutex<Session>) -> std::sync::MutexGuard<'_, Session> {
    session
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn no_such_session(id: u64) -> Reply {
    Reply::error(
        400,
        &format!("no such session {id} (sessions do not survive daemon restarts)"),
    )
}

/// The reactor-side fast path for a session-scoped run: answer from the
/// LRU under the generation-folded key without touching the pool. Uses
/// `try_lock` on the session — if a worker holds it (a run or update in
/// progress), the request queues behind it on the pool instead of
/// stalling the reactor.
fn fast_session_run(state: &AppState, id: u64) -> Option<Reply> {
    state.metrics.bump(&state.metrics.run_requests);
    let Some(handle) = session_handle(state, id) else {
        return Some(no_such_session(id));
    };
    let key = {
        let session = handle.try_lock().ok()?;
        session_cache_key(session.spec(), id, session.generation())
    };
    let cached = lock_cache(state).get(&key)?;
    state.metrics.bump(&state.metrics.cache_hits);
    Some(Reply {
        status: 200,
        x_cache: Some("hit"),
        content_type: "application/json",
        body: cached,
    })
}

/// Worker-side `POST /session`: spec in, resident warm session out. The
/// spec admits exactly like `POST /run` (same cap, same budget fold),
/// then the workload is built once and takes residence.
fn handle_session_create(state: &AppState, body: &[u8]) -> Reply {
    let mut spec = match parse_run_body(body) {
        Ok(spec) => spec,
        Err(message) => return Reply::error(400, &message),
    };
    if spec.graph_file.is_some() {
        // File workloads mutate out-of-band; a resident copy would
        // detach from the content hash that makes file keys sound.
        return Reply::error(
            400,
            "graph_file workloads cannot take session residence; POST /run serves them",
        );
    }
    if let Err(refusal) = admit(&mut spec, state) {
        return refusal;
    }
    // Refuse before the (possibly expensive) workload build when the
    // table is already full; the insert re-checks under the lock.
    if lock_sessions(state).map.len() >= MAX_SESSIONS {
        return session_table_full();
    }
    let session = match Session::new(&spec) {
        Ok(session) => session,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let n = session.graph().num_vertices();
    let num_edges = session.graph().num_edges();
    let label = session.label().to_string();
    let mut table = lock_sessions(state);
    if table.map.len() >= MAX_SESSIONS {
        return session_table_full();
    }
    let id = table.next_id;
    table.next_id += 1;
    table.map.insert(id, Arc::new(Mutex::new(session)));
    drop(table);
    state.metrics.bump(&state.metrics.sessions);
    Reply::ok(Arc::from(
        Json::obj(vec![
            ("session", Json::Int(id as i64)),
            ("generation", Json::Int(0)),
            ("n", Json::Int(n as i64)),
            ("num_edges", Json::Int(num_edges as i64)),
            ("scenario", Json::Str(label)),
        ])
        .render()
        .into_bytes(),
    ))
}

fn session_table_full() -> Reply {
    Reply::error(
        400,
        &format!("session table full ({MAX_SESSIONS} resident sessions)"),
    )
}

/// Worker-side `POST /update`: `{"session": id, "insert": [[u,v],...],
/// "delete": [[u,v],...]}` → delta-merge rebuild under the session's
/// lock, generation bump. Prior cache entries go stale by construction
/// (they are keyed under the old generation).
fn handle_session_update(state: &AppState, body: &[u8]) -> Reply {
    let (id, delta) = match parse_update_body(body) {
        Ok(parsed) => parsed,
        Err(message) => return Reply::error(400, &message),
    };
    let Some(handle) = session_handle(state, id) else {
        return no_such_session(id);
    };
    let mut session = lock_session(&handle);
    let outcome = match session.apply_update(&delta) {
        Ok(outcome) => outcome,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    drop(session);
    state.metrics.bump(&state.metrics.updates);
    Reply::ok(Arc::from(
        Json::obj(vec![
            ("session", Json::Int(id as i64)),
            ("generation", Json::Int(outcome.generation as i64)),
            ("num_edges", Json::Int(outcome.num_edges as i64)),
            ("inserted", Json::Int(outcome.inserted as i64)),
            ("deleted", Json::Int(outcome.deleted as i64)),
        ])
        .render()
        .into_bytes(),
    ))
}

/// Decodes a `POST /update` body. Endpoint pairs are `[u, v]` arrays;
/// self-loops and out-of-range vertices are refused (staging rejects the
/// former, apply rejects the latter).
fn parse_update_body(body: &[u8]) -> Result<(u64, GraphDelta), String> {
    let doc = parse_body_json(body)?;
    let Some(fields) = doc.as_obj() else {
        return Err("request body must be a JSON object".to_string());
    };
    let mut session: Option<u64> = None;
    let mut delta = GraphDelta::new();
    let stage = |value: &Json, field: &str, insert: bool, delta: &mut GraphDelta| {
        let Some(pairs) = value.as_arr() else {
            return Err(format!("field `{field}` must be an array of [u, v] pairs"));
        };
        for pair in pairs {
            let endpoints = pair
                .as_arr()
                .ok_or_else(|| format!("field `{field}` must contain [u, v] pairs, not scalars"))?;
            let [Json::Int(u), Json::Int(v)] = endpoints else {
                return Err(format!("field `{field}` pairs must be two integers"));
            };
            if *u < 0 || *v < 0 || *u > u32::MAX as i64 || *v > u32::MAX as i64 {
                return Err(format!("field `{field}` endpoints must fit in u32"));
            }
            let staged = if insert {
                delta.insert_edge(*u as u32, *v as u32)
            } else {
                delta.delete_edge(*u as u32, *v as u32)
            };
            staged.map_err(|e| format!("field `{field}`: {e}"))?;
        }
        Ok(())
    };
    for (key, value) in fields {
        match key.as_str() {
            "session" => match value {
                Json::Int(id) if *id >= 0 => session = Some(*id as u64),
                _ => return Err("field `session` must be a non-negative integer".to_string()),
            },
            "insert" => stage(value, "insert", true, &mut delta)?,
            "delete" => stage(value, "delete", false, &mut delta)?,
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    let id = session.ok_or_else(|| "field `session` is required".to_string())?;
    Ok((id, delta))
}

/// Worker-side session run: holds the session lock across the
/// incremental re-run (updates to this session queue behind it — which
/// is what makes generation-keyed caching sound), populates the LRU
/// under the current generation's key, and **never** touches the disk
/// store (generations restart with the daemon; a persisted body could
/// alias a future generation).
fn handle_session_run(state: &AppState, id: u64) -> Reply {
    let Some(handle) = session_handle(state, id) else {
        return no_such_session(id);
    };
    let mut session = lock_session(&handle);
    let key = session_cache_key(session.spec(), id, session.generation());
    // The fast path may have raced an identical request into the cache.
    if let Some(body) = lock_cache(state).get(&key) {
        state.metrics.bump(&state.metrics.cache_hits);
        return Reply {
            status: 200,
            x_cache: Some("hit"),
            content_type: "application/json",
            body,
        };
    }
    let report = match session.run_incremental() {
        Ok(report) => report,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    drop(session);
    let body: Arc<[u8]> = Arc::from(canonical_report_body(report));
    state.metrics.bump(&state.metrics.cache_misses);
    lock_cache(state).insert(key, Arc::clone(&body));
    Reply {
        status: 200,
        x_cache: Some("miss"),
        content_type: "application/json",
        body,
    }
}

/// Locks the report cache, recovering from poisoning: cached bodies are
/// immutable bytes and the LRU bookkeeping is always internally
/// consistent at lock release, so an unwinding holder cannot leave
/// anything worth discarding — and one poisoned lock must not turn
/// every later `/run` into a 500.
fn lock_cache(state: &AppState) -> std::sync::MutexGuard<'_, ReportCache> {
    state
        .cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Decodes and validates a `POST /run` body into a spec ready to
/// execute: strict JSON, strict fields (via [`RunSpec::from_fields`]),
/// and the sequential executor (inside a worker thread, fanning out
/// further buys nothing — and by the round engine's contract the
/// executor never changes a reported number).
///
/// # Errors
///
/// A human-readable message describing the first problem found.
pub fn parse_run_body(body: &[u8]) -> Result<RunSpec, String> {
    spec_from_json(&parse_body_json(body)?)
}

/// A request body as JSON: UTF-8, then the strict parser.
fn parse_body_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

/// The spec half of [`parse_run_body`].
fn spec_from_json(doc: &Json) -> Result<RunSpec, String> {
    let Some(doc_fields) = doc.as_obj() else {
        return Err("request body must be a JSON object".to_string());
    };
    let mut fields: Vec<(String, SpecValue)> = Vec::with_capacity(doc_fields.len());
    for (key, value) in doc_fields {
        let value = match value {
            Json::Null => SpecValue::Null,
            Json::Bool(b) => SpecValue::Bool(*b),
            Json::Int(v) => SpecValue::Int(*v),
            Json::Float(v) => SpecValue::Float(*v),
            Json::Str(s) => SpecValue::Str(s.clone()),
            Json::Arr(_) | Json::Obj(_) => {
                return Err(format!("field `{key}` must be a scalar"));
            }
        };
        fields.push((key.clone(), value));
    }
    let mut spec = RunSpec::from_fields(&fields).map_err(|e| e.to_string())?;
    spec.executor = ExecutorConfig::sequential();
    Ok(spec)
}

/// The canonical served body for a report: `wall_ms` (the single
/// nondeterministic field) zeroed, then the deterministic JSON renderer
/// — exactly the bytes of `mmvc run --json --canonical`.
pub fn canonical_report_body(mut report: RunReport) -> Vec<u8> {
    report.wall_ms = 0.0;
    report_json(&report).render().into_bytes()
}

/// The content-addressed cache key: the compact canonical serialization
/// of everything a report depends on. Registry workloads are addressed
/// by spec alone (reports are pure functions of the spec); file
/// workloads also carry the FNV-1a hash of the edge-list bytes, so the
/// key names the *content* that ran, not the path. The executor is
/// deliberately excluded — by the round engine's contract it never
/// changes a report — and override knobs are not expressible in
/// `POST /run` bodies (every served spec carries the defaults). The
/// same key addresses both cache tiers (memory and [`store`]).
pub fn cache_key(spec: &RunSpec, graph_content_hash: Option<u64>) -> String {
    keyed(spec, graph_content_hash, None)
}

/// The cache key for a session-scoped run: the ordinary [`cache_key`]
/// with `(session id, generation)` folded into the workload object —
/// exactly how file keys fold content hashes. A `POST /update` bumps
/// the generation, so every pre-update entry is unreachable from then
/// on: invalidation by construction, not by eviction. Session keys
/// address only the in-memory tier (never the disk [`store`] — see
/// `handle_session_run`'s soundness note).
pub fn session_cache_key(spec: &RunSpec, session: u64, generation: u64) -> String {
    keyed(spec, None, Some((session, generation)))
}

fn keyed(spec: &RunSpec, graph_content_hash: Option<u64>, session: Option<(u64, u64)>) -> String {
    let workload = match (&spec.graph_file, graph_content_hash) {
        (Some(path), Some(hash)) => Json::obj(vec![
            ("graph_file", Json::Str(path.clone())),
            ("content_hash", Json::Str(format!("{hash:016x}"))),
        ]),
        // A file spec without a hash still keys on the path (with the
        // missing hash explicit) — it must never alias a scenario key
        // or another file's key.
        (Some(path), None) => Json::obj(vec![
            ("graph_file", Json::Str(path.clone())),
            ("content_hash", Json::Null),
        ]),
        (None, _) => match session {
            Some((id, generation)) => Json::obj(vec![
                ("scenario", Json::Str(spec.scenario.clone())),
                ("session", Json::Str(id.to_string())),
                ("generation", Json::Str(generation.to_string())),
            ]),
            None => Json::obj(vec![("scenario", Json::Str(spec.scenario.clone()))]),
        },
    };
    let opt_int = |v: Option<usize>| match v {
        Some(v) => Json::Int(v as i64),
        None => Json::Null,
    };
    Json::obj(vec![
        ("schema", Json::Str("mmvc-serve-spec/v2".to_string())),
        ("algorithm", Json::Str(spec.algorithm.name().to_string())),
        ("workload", workload),
        ("n", opt_int(spec.n)),
        ("eps", Json::Float(spec.eps.get())),
        ("seed", Json::Str(spec.seed.to_string())),
        (
            "budget",
            Json::obj(vec![
                ("max_rounds", opt_int(spec.budget.max_rounds)),
                ("max_load_words", opt_int(spec.budget.max_load_words)),
                ("max_n", opt_int(spec.budget.max_n)),
            ]),
        ),
    ])
    .render_compact()
}

/// 64-bit FNV-1a — the content hash for file workloads. Not
/// cryptographic; it addresses cache entries, it does not authenticate
/// them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn healthz_body() -> Vec<u8> {
    Json::obj(vec![
        ("status", Json::Str("ok".to_string())),
        ("service", Json::Str("mmvc-serve".to_string())),
    ])
    .render()
    .into_bytes()
}

fn scenarios_body() -> Vec<u8> {
    Json::obj(vec![(
        "scenarios",
        Json::Arr(
            scenarios::all()
                .iter()
                .map(|sc| {
                    Json::obj(vec![
                        ("name", Json::Str(sc.name.to_string())),
                        ("default_n", Json::Int(sc.default_n as i64)),
                        ("description", Json::Str(sc.description.to_string())),
                    ])
                })
                .collect(),
        ),
    )])
    .render()
    .into_bytes()
}

fn algorithms_body() -> Vec<u8> {
    Json::obj(vec![(
        "algorithms",
        Json::Arr(
            AlgorithmKind::ALL
                .iter()
                .map(|kind| {
                    Json::obj(vec![
                        ("name", Json::Str(kind.name().to_string())),
                        ("description", Json::Str(kind.description().to_string())),
                    ])
                })
                .collect(),
        ),
    )])
    .render()
    .into_bytes()
}

fn metrics_body(state: &AppState) -> Vec<u8> {
    let m = &state.metrics;
    let snap = m.latency.snapshot();
    let (p50, p90, p99, p999) = snap.percentiles_ms();
    let scratch = state.scratch.stats();
    let cache = lock_cache(state);
    Json::obj(vec![
        ("requests", Json::Int(m.read(&m.requests) as i64)),
        ("run_requests", Json::Int(m.read(&m.run_requests) as i64)),
        ("errors", Json::Int(m.read(&m.errors) as i64)),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::Int(m.read(&m.cache_hits) as i64)),
                ("misses", Json::Int(m.read(&m.cache_misses) as i64)),
                ("store_hits", Json::Int(m.read(&m.store_hits) as i64)),
                ("store_errors", Json::Int(m.read(&m.store_errors) as i64)),
                ("entries", Json::Int(cache.len() as i64)),
                ("capacity", Json::Int(cache.capacity() as i64)),
            ]),
        ),
        (
            "store_dir",
            match &state.store {
                Some(store) => Json::Str(store.root().display().to_string()),
                None => Json::Null,
            },
        ),
        ("sessions", Json::Int(m.read(&m.sessions) as i64)),
        ("updates", Json::Int(m.read(&m.updates) as i64)),
        ("in_flight", Json::Int(m.read(&m.in_flight) as i64)),
        ("connections", Json::Int(m.read(&m.connections) as i64)),
        (
            "keepalive_reuses",
            Json::Int(m.read(&m.keepalive_reuses) as i64),
        ),
        ("bytes_served", Json::Int(m.read(&m.bytes_served) as i64)),
        ("max_n", Json::Int(state.max_n as i64)),
        (
            "latency_ms",
            Json::obj(vec![
                ("p50", Json::Float(p50)),
                ("p90", Json::Float(p90)),
                ("p99", Json::Float(p99)),
                ("p999", Json::Float(p999)),
                ("count", Json::Int(snap.count as i64)),
                ("sum", Json::Float(snap.sum_ms)),
                // Cumulative log2 buckets (Prometheus shape), trimmed
                // to the occupied range.
                (
                    "buckets",
                    Json::Arr(
                        snap.occupied()
                            .iter()
                            .map(|&(le, count)| {
                                Json::obj(vec![
                                    ("le", Json::Float(le)),
                                    ("count", Json::Int(count as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("overflow", Json::Int(snap.overflow as i64)),
            ]),
        ),
        (
            "scratch",
            Json::obj(vec![
                ("allocations", Json::Int(scratch.allocations as i64)),
                ("allocated_bytes", Json::Int(scratch.allocated_bytes as i64)),
                ("reuses", Json::Int(scratch.reuses as i64)),
                ("reused_bytes", Json::Int(scratch.reused_bytes as i64)),
            ]),
        ),
        ("workers", Json::Int(state.workers as i64)),
    ])
    .render()
    .into_bytes()
}

/// The Prometheus text-exposition rendering of `GET /metrics`
/// (`?format=prom` or an `Accept: text/plain` header): every counter as
/// a `mmvc_*_total` counter family, cache/session occupancy as gauges,
/// the scratch-arena stats, and the request latency histogram in native
/// Prometheus histogram shape — cumulative `_bucket{le="..."}` series
/// over the log2 bounds (seconds, per convention), `+Inf`, `_sum`,
/// `_count`.
fn prom_metrics_body(state: &AppState) -> Vec<u8> {
    use std::fmt::Write as _;
    let m = &state.metrics;
    let snap = m.latency.snapshot();
    let scratch = state.scratch.stats();
    let (cache_entries, cache_capacity) = {
        let cache = lock_cache(state);
        (cache.len(), cache.capacity())
    };
    let mut out = String::with_capacity(2048);
    let mut counter = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "mmvc_requests_total",
        "Requests fully served (any endpoint, any status).",
        m.read(&m.requests),
    );
    counter(
        "mmvc_run_requests_total",
        "POST /run requests served.",
        m.read(&m.run_requests),
    );
    counter(
        "mmvc_errors_total",
        "Responses with a 4xx/5xx status.",
        m.read(&m.errors),
    );
    counter(
        "mmvc_cache_hits_total",
        "Responses answered from the in-memory report cache.",
        m.read(&m.cache_hits),
    );
    counter(
        "mmvc_cache_misses_total",
        "Responses that executed the algorithm.",
        m.read(&m.cache_misses),
    );
    counter(
        "mmvc_store_hits_total",
        "Responses answered from the persistent store.",
        m.read(&m.store_hits),
    );
    counter(
        "mmvc_store_errors_total",
        "Failed persistent-store writes.",
        m.read(&m.store_errors),
    );
    counter(
        "mmvc_connections_total",
        "Connections accepted.",
        m.read(&m.connections),
    );
    counter(
        "mmvc_keepalive_reuses_total",
        "Requests served on an already-used connection.",
        m.read(&m.keepalive_reuses),
    );
    counter(
        "mmvc_bytes_served_total",
        "Response bytes (heads + bodies) handed to sockets.",
        m.read(&m.bytes_served),
    );
    counter(
        "mmvc_sessions_total",
        "Sessions created via POST /session.",
        m.read(&m.sessions),
    );
    counter(
        "mmvc_updates_total",
        "Deltas applied via POST /update.",
        m.read(&m.updates),
    );
    counter(
        "mmvc_scratch_allocations_total",
        "Scratch-arena requests that needed fresh allocator memory.",
        scratch.allocations,
    );
    counter(
        "mmvc_scratch_allocated_bytes_total",
        "Fresh bytes the scratch arena requested from the allocator.",
        scratch.allocated_bytes,
    );
    counter(
        "mmvc_scratch_reuses_total",
        "Scratch-arena requests served from retained capacity.",
        scratch.reuses,
    );
    counter(
        "mmvc_scratch_reused_bytes_total",
        "Bytes of retained scratch capacity handed back out.",
        scratch.reused_bytes,
    );
    let mut gauge = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    };
    gauge(
        "mmvc_in_flight",
        "Requests currently dispatched to the worker pool.",
        m.read(&m.in_flight),
    );
    gauge(
        "mmvc_cache_entries",
        "Entries resident in the in-memory report cache.",
        cache_entries as u64,
    );
    gauge(
        "mmvc_cache_capacity",
        "Configured in-memory report-cache capacity.",
        cache_capacity as u64,
    );
    gauge("mmvc_workers", "Worker threads.", state.workers as u64);

    let name = "mmvc_request_duration_seconds";
    let _ = writeln!(
        out,
        "# HELP {name} Request service time, parse-complete to last response byte."
    );
    let _ = writeln!(out, "# TYPE {name} histogram");
    for &(upper_ms, cumulative) in &snap.buckets {
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cumulative}",
            upper_ms / 1e3
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
    let _ = writeln!(out, "{name}_sum {}", snap.sum_ms / 1e3);
    let _ = writeln!(out, "{name}_count {}", snap.count);
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_run_body_happy_and_sad() {
        let spec =
            parse_run_body(br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 96}"#)
                .unwrap();
        assert_eq!(spec.algorithm, AlgorithmKind::GreedyMis);
        assert_eq!(spec.n, Some(96));
        assert!(spec.executor.is_sequential(), "served runs are sequential");

        assert!(parse_run_body(b"not json").unwrap_err().contains("JSON"));
        assert!(parse_run_body(b"[1]").unwrap_err().contains("object"));
        assert!(parse_run_body(
            br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": [1]}"#
        )
        .unwrap_err()
        .contains("scalar"));
        assert!(parse_run_body(&[0xFF, 0xFE]).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn cache_key_separates_every_dimension() {
        let base = {
            let mut s = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
            s.n = Some(96);
            s
        };
        let key = cache_key(&base, None);
        assert!(key.contains("\"scenario\":\"gnp-sparse\""));
        assert!(!key.contains('\n'), "compact form");
        assert_eq!(key, cache_key(&base.clone(), None), "stable");

        let mut other = base.clone();
        other.seed = 43;
        assert_ne!(cache_key(&other, None), key);
        let mut other = base.clone();
        other.n = None;
        assert_ne!(cache_key(&other, None), key);
        let mut other = base.clone();
        other.budget.max_rounds = Some(10);
        assert_ne!(cache_key(&other, None), key);

        let file = RunSpec::from_file(AlgorithmKind::GreedyMis, "g.txt");
        let a = cache_key(&file, Some(1));
        let b = cache_key(&file, Some(2));
        assert_ne!(a, b, "content hash is part of the address");
        assert!(a.contains("content_hash"));

        // A file spec without a hash must alias neither a scenario key
        // nor another file's key.
        let unhashed = cache_key(&file, None);
        let other_file = RunSpec::from_file(AlgorithmKind::GreedyMis, "h.txt");
        assert!(unhashed.contains("g.txt"));
        assert_ne!(unhashed, cache_key(&other_file, None));
        let mut empty_scenario = RunSpec::new(AlgorithmKind::GreedyMis, "");
        empty_scenario.n = file.n;
        assert_ne!(unhashed, cache_key(&empty_scenario, None));
    }

    #[test]
    fn fnv1a_reference_values() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn static_bodies_are_valid_json() {
        for body in [healthz_body(), scenarios_body(), algorithms_body()] {
            let text = String::from_utf8(body).unwrap();
            let doc = Json::parse(&text).unwrap();
            assert!(doc.as_obj().is_some());
        }
        let scenarios_doc = Json::parse(&String::from_utf8(scenarios_body()).unwrap()).unwrap();
        assert_eq!(
            scenarios_doc
                .get("scenarios")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            scenarios::all().len()
        );
        let algorithms_doc = Json::parse(&String::from_utf8(algorithms_body()).unwrap()).unwrap();
        assert_eq!(
            algorithms_doc
                .get("algorithms")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            AlgorithmKind::ALL.len()
        );
    }

    #[test]
    fn admission_folds_the_cap_before_the_key() {
        // The fast path and the worker path must address the same cache
        // entry: `admit` folds the daemon cap into `budget.max_n`
        // (which the key includes) for both.
        let state = AppState {
            cache: Mutex::new(ReportCache::new(4)),
            store: None,
            metrics: Metrics::new(),
            workers: 1,
            max_n: 1024,
            sessions: Mutex::new(SessionTable::default()),
            scratch: mmvc_substrate::ScratchPool::new(),
            telemetry: Telemetry::disabled(),
            healthz: Arc::from(healthz_body()),
            scenarios: Arc::from(scenarios_body()),
            algorithms: Arc::from(algorithms_body()),
        };
        let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
        spec.n = Some(96);
        let unfolded = cache_key(&spec, None);
        admit(&mut spec, &state).expect("admitted");
        assert_eq!(spec.budget.max_n, Some(1024), "cap folded into budget");
        assert_ne!(cache_key(&spec, None), unfolded);

        let mut tight = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
        tight.n = Some(96);
        tight.budget.max_n = Some(512);
        admit(&mut tight, &state).expect("admitted");
        assert_eq!(tight.budget.max_n, Some(512), "tighter budget survives");

        let mut huge = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
        huge.n = Some(4096);
        let refusal = admit(&mut huge, &state).expect_err("refused");
        assert_eq!(refusal.status, 400);
    }

    #[test]
    fn raw_memo_shortcuts_repeat_bodies_and_respects_the_cap() {
        let state = AppState {
            cache: Mutex::new(ReportCache::new(4)),
            store: None,
            metrics: Metrics::new(),
            workers: 1,
            max_n: 1024,
            sessions: Mutex::new(SessionTable::default()),
            scratch: mmvc_substrate::ScratchPool::new(),
            telemetry: Telemetry::disabled(),
            healthz: Arc::from(healthz_body()),
            scenarios: Arc::from(scenarios_body()),
            algorithms: Arc::from(algorithms_body()),
        };
        let body = br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 64, "seed": 3}"#;
        let mut spec = parse_run_body(body).unwrap();
        admit(&mut spec, &state).unwrap();
        let canonical: Arc<[u8]> = Arc::from(&b"canonical-bytes"[..]);
        lock_cache(&state).insert(cache_key(&spec, None), Arc::clone(&canonical));

        // First hit comes from the LRU and populates the memo ...
        let mut memo = RawMemo::new(4);
        let first = fast_run(&state, body, &mut memo).expect("hit");
        assert_eq!(first.x_cache, Some("hit"));
        assert_eq!(first.body.as_ref(), canonical.as_ref());
        assert_eq!(memo.map.len(), 1);

        // ... so a repeat of the same bytes answers even with the LRU
        // emptied: no parse, no key render, no lock.
        lock_cache(&state).insert("unrelated".into(), Arc::from(&b"x"[..]));
        let again = fast_run(&state, body, &mut memo).expect("memo hit");
        assert_eq!(again.body.as_ref(), canonical.as_ref());

        // Different bytes (even an equivalent spec spelled differently)
        // miss the memo and fall through to the canonical path.
        let respelled =
            br#"{"scenario": "gnp-sparse", "algorithm": "greedy-mis", "seed": 3, "n": 64}"#;
        let equivalent = fast_run(&state, respelled, &mut memo).expect("canonical hit");
        assert_eq!(equivalent.body.as_ref(), canonical.as_ref());
        assert_eq!(memo.map.len(), 2, "both spellings memoized");

        // A zero-capacity memo (cache disabled) never stores anything.
        let mut disabled = RawMemo::new(0);
        disabled.insert(body, &canonical);
        assert!(disabled.map.is_empty());
    }

    /// Memoized run bodies never shadow a session reference: the memo is
    /// consulted before any parse, yet `{"session": id}` still reaches the
    /// session path, before and after an update bumps the generation.
    #[test]
    fn session_references_bypass_the_raw_memo_across_generations() {
        let state = test_state();
        let created = handle_session_create(
            &state,
            br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 64, "seed": 5}"#,
        );
        assert_eq!(created.status, 200);
        let id = Json::parse(std::str::from_utf8(&created.body).unwrap())
            .unwrap()
            .get("session")
            .and_then(Json::as_i64)
            .unwrap();

        let run_body = br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 64}"#;
        let mut spec = parse_run_body(run_body).unwrap();
        admit(&mut spec, &state).unwrap();
        lock_cache(&state).insert(cache_key(&spec, None), Arc::from(&b"run"[..]));
        let mut memo = RawMemo::new(4);
        assert!(fast_run(&state, run_body, &mut memo).is_some());
        assert_eq!(memo.map.len(), 1);

        let session_body = format!(r#"{{"session": {id}}}"#);
        let session_key = || {
            let handle = session_handle(&state, id as u64).unwrap();
            let session = lock_session(&handle);
            session_cache_key(session.spec(), id as u64, session.generation())
        };
        lock_cache(&state).insert(session_key(), Arc::from(&b"generation 0"[..]));
        let hit = fast_run(&state, session_body.as_bytes(), &mut memo).expect("session hit");
        assert_eq!(hit.body.as_ref(), b"generation 0");
        assert_eq!(memo.map.len(), 1, "session bodies are never memoized");

        let update = format!(r#"{{"session": {id}, "insert": [[0, 1]]}}"#);
        assert_eq!(handle_session_update(&state, update.as_bytes()).status, 200);
        assert!(
            fast_run(&state, session_body.as_bytes(), &mut memo).is_none(),
            "a new generation misses the old entry and goes to a worker"
        );
        lock_cache(&state).insert(session_key(), Arc::from(&b"generation 1"[..]));
        let hit = fast_run(&state, session_body.as_bytes(), &mut memo).expect("session hit");
        assert_eq!(hit.body.as_ref(), b"generation 1");
        assert_eq!(memo.map.len(), 1);
    }

    fn test_state() -> AppState {
        AppState {
            cache: Mutex::new(ReportCache::new(4)),
            store: None,
            metrics: Metrics::new(),
            workers: 1,
            max_n: 1024,
            sessions: Mutex::new(SessionTable::default()),
            scratch: mmvc_substrate::ScratchPool::new(),
            telemetry: Telemetry::disabled(),
            healthz: Arc::from(healthz_body()),
            scenarios: Arc::from(scenarios_body()),
            algorithms: Arc::from(algorithms_body()),
        }
    }

    #[test]
    fn metrics_body_exposes_histogram_and_scratch() {
        let state = test_state();
        state.metrics.record_latency_ms(0.5);
        state.metrics.record_latency_ms(4.0);
        let doc = Json::parse(&String::from_utf8(metrics_body(&state)).unwrap()).unwrap();
        let latency = doc.get("latency_ms").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_i64), Some(2));
        let buckets = latency.get("buckets").and_then(Json::as_arr).unwrap();
        assert!(!buckets.is_empty());
        assert_eq!(
            buckets.last().unwrap().get("count").and_then(Json::as_i64),
            Some(2),
            "cumulative buckets end at the total"
        );
        let scratch = doc.get("scratch").unwrap();
        assert!(scratch.get("allocations").and_then(Json::as_i64).is_some());
        assert!(scratch.get("reuses").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn prom_body_is_well_formed_text_exposition() {
        let state = test_state();
        state.metrics.bump(&state.metrics.requests);
        state.metrics.record_latency_ms(1.5);
        let text = String::from_utf8(prom_metrics_body(&state)).unwrap();
        assert!(text.contains("# TYPE mmvc_requests_total counter"));
        assert!(text.contains("mmvc_requests_total 1"));
        assert!(text.contains("# TYPE mmvc_request_duration_seconds histogram"));
        assert!(text.contains("mmvc_request_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mmvc_request_duration_seconds_count 1"));
        assert!(text.contains("# TYPE mmvc_scratch_allocations_total counter"));
        // Every non-comment line is `name{labels} value` with a numeric
        // value — the shape a Prometheus scraper requires.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line}");
        }
        // Histogram bucket counts are monotonically nondecreasing.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("mmvc_request_duration_seconds_bucket"))
        {
            let count: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(count >= last, "cumulative counts must not decrease");
            last = count;
        }
    }

    #[test]
    fn trace_writer_rotates_and_caps_file_count() {
        let dir = std::env::temp_dir().join(format!("mmvc-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let telemetry = Telemetry::recording();
        let mut writer = TraceWriter::new(dir.clone(), Instant::now());
        // Each finish() call flushes one epoch file.
        for _ in 0..MAX_TRACE_FILES + 3 {
            telemetry.span("tick").arg("n", 1);
            writer.finish(&telemetry);
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len() as u64, MAX_TRACE_FILES, "retention cap holds");
        assert!(
            !files.contains(&"trace-00000.json".to_string()),
            "oldest deleted"
        );
        // The newest file is a well-formed Chrome trace document.
        let newest = format!("trace-{:05}.json", MAX_TRACE_FILES + 2);
        let text = std::fs::read_to_string(dir.join(&newest)).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

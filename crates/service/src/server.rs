//! The evaluation daemon: an event-loop front end over a supervised
//! worker pool of simulation arenas.
//!
//! ```text
//!        event-loop thread (owns every socket)     worker threads (N)
//! accept ─► epoll ─► frame ─► parse ──► bounded ──► cache lookup ─► Arena
//!             ▲                         job queue       │  hit        │
//!             │  stats/health/metrics       ▼           ▼             ▼
//!             │  served inline        completion queue ◄─── frames + results
//!             │                             │
//!             └──── wake pipe ◄─────────────┘   supervisor respawns
//!                                               crashed workers (backoff)
//! ```
//!
//! The socket side lives in `event_loop` (the readiness loop) on top
//! of `conn` (per-connection state machines and v1/v2 protocol modes,
//! shared with the router), the compute side in `pool` (job queue,
//! workers, supervisor, completion routing). This module owns
//! configuration, the shared state both sides hang off, and the
//! start/shutdown/join lifecycle.
//!
//! Robustness posture (see `docs/robustness.md`):
//!
//! * **Backpressure** is explicit: a full queue answers `E_BUSY`
//!   immediately, and `batch`/`sweep` are shed first once the queue
//!   crosses its high-water mark.
//! * **Deadlines**: a request's `deadline_ms` rides into the simulator
//!   run loop; a wedged simulation answers `E_DEADLINE` with partial
//!   stats instead of pinning a worker.
//! * **Supervision**: worker threads that die are respawned with
//!   exponential backoff under a bounded restart budget; the event loop
//!   itself is supervised the same way (a loop crash drops its
//!   connections but the daemon survives).
//! * **Slow-loris defense**: the loop's timer sweep expires idle
//!   connections, half-written request frames, and peers that stop
//!   draining their responses.
//! * **Graceful drain**: shutdown stops accepting, lets queued and
//!   in-flight jobs finish, keeps the loop flushing final responses for
//!   a drain window, and only then force-closes stragglers.
//! * **Fault injection**: every failure path above is exercisable
//!   deterministically through [`FaultPlan`] (`sempe-serve
//!   --fault-plan`), so the chaos suite tests the real code paths.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sempe_core::json::Json;
use sempe_core::telemetry::{Counter, Gauge, Histogram, Registry, TraceLog};

use crate::cache::ResultCache;
use crate::event_loop::run_event_loop;
use crate::exec::ForkCache;
use crate::fault::{FaultInjector, FaultPlan};
use crate::net::Poller;
use crate::pool::{spawn_worker, supervisor_loop, CompletionQueue, JobQueue};
use crate::protocol::{MetricsFormat, COMPUTE_OPS};
use crate::sync;

/// The event loop's fallback tick: the longest completions can sit
/// undelivered when a wake is lost, and the granularity of every
/// loop-side timer (deadlines, idle/frame timeouts, fault corks).
pub(crate) const LOOP_TICK_MS: i32 = 25;
/// Grace allowed past a request's deadline for a job still sitting in
/// the queue before the event loop answers `E_DEADLINE` itself.
pub(crate) const QUEUED_DEADLINE_GRACE: Duration = Duration::from_millis(100);
/// Ceiling on one supervisor backoff pause.
pub(crate) const MAX_BACKOFF_MS: u64 = 2_000;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker-pool size; 0 means one per host core.
    pub workers: usize,
    /// Job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Fork-server checkpoint store capacity, in checkpoints shared
    /// across the worker pool (one per program × machine configuration).
    pub fork_capacity: usize,
    /// Close a connection that sends nothing for this long (idle reaper;
    /// 0 disables).
    pub idle_timeout_ms: u64,
    /// Abort a request frame stalled mid-transfer for this long, and
    /// give up on a peer that stops draining its responses (0 disables).
    pub frame_timeout_ms: u64,
    /// On shutdown, how long the event loop keeps flushing final
    /// responses before remaining sockets are force-closed.
    pub drain_timeout_ms: u64,
    /// Queue depth at which `batch`/`sweep` requests are shed with
    /// `E_BUSY`; 0 means ¾ of `queue_capacity`.
    pub shed_highwater: usize,
    /// Total worker respawns the supervisor will perform before letting
    /// the pool shrink for good (also bounds event-loop respawns).
    pub restart_budget: u64,
    /// Base of the supervisor's exponential respawn backoff.
    pub backoff_base_ms: u64,
    /// Deterministic fault injection (`None` in production).
    pub fault_plan: Option<FaultPlan>,
    /// Structured trace-log path (JSONL, one event per sampled request);
    /// `None` disables tracing entirely.
    pub trace_log_path: Option<PathBuf>,
    /// Trace sampling: log every Nth completed request (1 = all; 0 is
    /// treated as 1). Sampling happens before any encoding, and the
    /// write itself runs on a dedicated thread — never the job path.
    pub trace_sample: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 1024,
            fork_capacity: 32,
            idle_timeout_ms: 30_000,
            frame_timeout_ms: 10_000,
            drain_timeout_ms: 5_000,
            shed_highwater: 0,
            restart_budget: 32,
            backoff_base_ms: 25,
            fault_plan: None,
            trace_log_path: None,
            trace_sample: 1,
        }
    }
}

/// State shared by the event loop, the workers, and the supervisor.
pub(crate) struct Shared {
    pub(crate) queue: JobQueue,
    pub(crate) cache: ResultCache,
    /// Fork-server checkpoints, shared by every worker.
    pub(crate) forks: ForkCache,
    pub(crate) injector: FaultInjector,
    /// The telemetry spine: every counter, gauge, and histogram below
    /// (plus the cache/fork/fault ledgers) lives here, so `stats`,
    /// `health`, and `metrics` all render the same atomics.
    pub(crate) registry: Arc<Registry>,
    /// Sampled structured event stream (`--trace-log`); `None` when off.
    /// Behind a mutex so [`Server::join`] can take and drop it once the
    /// workers are joined — the flush must not depend on when the last
    /// `Arc<Shared>` clone (e.g. a signal watcher's handle) dies.
    pub(crate) trace: Mutex<Option<TraceLog>>,
    /// In an `Arc` so job completers can report "shutting down" vs
    /// "worker crashed" without keeping the whole shared state alive
    /// from inside the queue.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Set by [`Server::join`] once every worker is joined: the event
    /// loop may enter its final flush-and-close window.
    pub(crate) workers_done: AtomicBool,
    /// The nonblocking listener, owned here so a respawned event loop
    /// can re-register it with a fresh poller.
    pub(crate) listener: TcpListener,
    /// Worker→loop completion mailbox (owns the wake pipe).
    pub(crate) completions: Arc<CompletionQueue>,
    pub(crate) local_addr: SocketAddr,
    pub(crate) workers: usize,
    pub(crate) shed_highwater: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) frame_timeout: Duration,
    pub(crate) drain_timeout: Duration,
    pub(crate) restart_budget: u64,
    pub(crate) backoff_base_ms: u64,
    pub(crate) alive_workers: Arc<Gauge>,
    pub(crate) busy_workers: Arc<Gauge>,
    pub(crate) restarts: Arc<Counter>,
    /// Event-loop respawns performed by its supervision wrapper.
    pub(crate) loop_restarts: Arc<Counter>,
    /// The supervisor declined a respawn (budget spent or spawn failed):
    /// the pool will never grow again.
    pub(crate) pool_exhausted: AtomicBool,
    pub(crate) arenas_quarantined: Arc<Counter>,
    pub(crate) deadlines_expired: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) jobs_served: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) connections: Arc<Counter>,
    /// Currently-open connections (event-loop owned).
    pub(crate) connections_open: Arc<Gauge>,
    /// Compute requests dispatched but not yet answered.
    pub(crate) inflight_requests: Arc<Gauge>,
    /// Streamed v2 progress frames emitted by workers.
    pub(crate) stream_frames: Arc<Counter>,
    /// `requests_total` per compute op, in [`COMPUTE_OPS`] order.
    pub(crate) requests: [Arc<Counter>; COMPUTE_OPS.len()],
    /// The event loop's socket-write phase.
    pub(crate) phase_write: Arc<Histogram>,
    /// Connection tokens, unique across event-loop respawns so stale
    /// completions can never be misrouted to a new connection.
    pub(crate) next_token: AtomicU64,
    /// Job serials, unique for the daemon's lifetime.
    pub(crate) next_serial: AtomicU64,
    pub(crate) started: Instant,
    /// Worker join handles — the initial pool plus every supervisor
    /// respawn; drained by [`Server::join`].
    pub(crate) worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    pub(crate) fn stats_line(&self) -> String {
        Json::obj()
            .with("ok", true)
            .with("type", "stats")
            .with("queue_depth", self.queue.depth())
            .with("queue_capacity", self.queue.capacity)
            .with("workers", self.workers)
            .with("busy_workers", self.busy_workers.get())
            .with("jobs_served", self.jobs_served.get())
            .with("rejected", self.rejected.get())
            .with("connections", self.connections.get())
            .with(
                "cache",
                Json::obj()
                    .with("entries", self.cache.len())
                    .with("capacity", self.cache.capacity())
                    .with("hits", self.cache.hits())
                    .with("misses", self.cache.misses())
                    .with("hit_rate", (self.cache.hit_rate() * 1e6).round() / 1e6),
            )
            .with(
                "forks",
                Json::obj()
                    .with("checkpoints", self.forks.len())
                    .with("hits", self.forks.hits())
                    .with("misses", self.forks.misses()),
            )
            .with(
                "uptime_ms",
                u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            )
            .encode()
    }

    /// The `health` op: readiness/liveness, queue pressure, worker-pool
    /// state (including supervisor restarts), and fault counters.
    pub(crate) fn health_line(&self) -> String {
        let draining = self.shutdown.load(Ordering::SeqCst);
        Json::obj()
            .with("ok", true)
            .with("type", "health")
            .with("ready", !draining && !self.pool_dead())
            .with("live", true)
            .with("draining", draining)
            .with(
                "queue",
                Json::obj()
                    .with("depth", self.queue.depth())
                    .with("capacity", self.queue.capacity)
                    .with("highwater", self.shed_highwater)
                    .with("shed", self.shed.get())
                    .with("oldest_ms", self.queue.oldest_ms())
                    .with(
                        "depth_per_worker",
                        (self.queue.depth() as u64).div_ceil(self.alive_workers.get().max(1)),
                    ),
            )
            .with(
                "workers",
                Json::obj()
                    .with("configured", self.workers)
                    .with("alive", self.alive_workers.get())
                    .with("busy", self.busy_workers.get())
                    .with("restarts", self.restarts.get())
                    .with("restart_budget", self.restart_budget)
                    .with("quarantined_arenas", self.arenas_quarantined.get()),
            )
            .with("deadlines_expired", self.deadlines_expired.get())
            .with("faults", self.injector.to_json())
            .encode()
    }

    /// The `metrics` op: one self-consistent snapshot of the whole
    /// registry. Point-in-time values (queue depth, cache/fork entry
    /// counts, uptime) are refreshed into gauges at scrape time; every
    /// monotonic series is read live from the shared atomics.
    pub(crate) fn metrics_line(&self, format: MetricsFormat) -> String {
        self.registry.gauge("queue_depth").set(self.queue.depth() as u64);
        self.registry.gauge("queue_capacity").set(self.queue.capacity as u64);
        self.registry.gauge("cache_entries").set(self.cache.len() as u64);
        self.registry.gauge("fork_checkpoints").set(self.forks.len() as u64);
        self.registry
            .gauge("uptime_ms")
            .set(u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX));
        let base = Json::obj().with("ok", true).with("type", "metrics");
        match format {
            MetricsFormat::Json => {
                base.with("format", "json").with("metrics", self.registry.snapshot()).encode()
            }
            MetricsFormat::Prometheus => base
                .with("format", "prometheus")
                .with("text", self.registry.render_prometheus())
                .encode(),
        }
    }

    /// No worker is alive and the supervisor will not bring one back —
    /// queued jobs would wait forever, so the loop must fail them.
    pub(crate) fn pool_dead(&self) -> bool {
        self.alive_workers.get() == 0 && self.pool_exhausted.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and nudge the event loop awake through
    /// the wake pipe.
    pub(crate) fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.completions.waker.wake();
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

/// A running service instance.
///
/// Dropping the handle does **not** stop the daemon; call
/// [`Server::shutdown`] (or send a `shutdown` request) and then
/// [`Server::join`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    loop_handle: Option<JoinHandle<()>>,
    supervisor_handle: Option<JoinHandle<()>>,
}

/// A cloneable shutdown handle — what a signal-watcher thread holds,
/// since [`Server::join`] consumes the server itself.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Initiate a clean shutdown (idempotent; does not block).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Has a drain been initiated?
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Bind, spawn the worker pool, its supervisor, and the event-loop
    /// thread, and return.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a platform with no poller backend,
    /// or a thread-spawn failure.
    pub fn start(config: &ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // Fail fast on platforms without an event-loop backend, before
        // any thread exists.
        let poller = Poller::new()?;
        let completions = Arc::new(CompletionQueue::new()?);
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let queue_capacity = config.queue_capacity.max(1);
        let shed_highwater = if config.shed_highwater == 0 {
            (queue_capacity * 3 / 4).max(1)
        } else {
            config.shed_highwater.min(queue_capacity)
        };
        let duration_or_forever = |ms: u64| {
            if ms == 0 {
                Duration::from_secs(u64::from(u32::MAX))
            } else {
                Duration::from_millis(ms)
            }
        };
        let registry = Arc::new(Registry::new());
        let trace = match &config.trace_log_path {
            Some(path) => Some(TraceLog::create(path, config.trace_sample.max(1))?),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::new(queue_capacity),
            cache: ResultCache::with_counters(
                config.cache_capacity,
                registry.counter("cache_hits_total"),
                registry.counter("cache_misses_total"),
            ),
            forks: ForkCache::with_counters(
                config.fork_capacity,
                registry.counter("fork_hits_total"),
                registry.counter("fork_misses_total"),
            ),
            injector: FaultInjector::with_registry(
                config.fault_plan.clone().unwrap_or_default(),
                &registry,
            ),
            trace: Mutex::new(trace),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers_done: AtomicBool::new(false),
            listener,
            completions,
            local_addr,
            workers,
            shed_highwater,
            idle_timeout: duration_or_forever(config.idle_timeout_ms),
            frame_timeout: duration_or_forever(config.frame_timeout_ms),
            drain_timeout: Duration::from_millis(config.drain_timeout_ms),
            restart_budget: config.restart_budget,
            backoff_base_ms: config.backoff_base_ms.max(1),
            alive_workers: registry.gauge("workers_alive"),
            busy_workers: registry.gauge("workers_busy"),
            restarts: registry.counter("worker_restarts_total"),
            loop_restarts: registry.counter("loop_restarts_total"),
            pool_exhausted: AtomicBool::new(false),
            arenas_quarantined: registry.counter("arenas_quarantined_total"),
            deadlines_expired: registry.counter("deadlines_expired_total"),
            shed: registry.counter("requests_shed_total"),
            jobs_served: registry.counter("jobs_served_total"),
            rejected: registry.counter("requests_rejected_total"),
            connections: registry.counter("connections_total"),
            connections_open: registry.gauge("connections_open"),
            inflight_requests: registry.gauge("inflight_requests"),
            stream_frames: registry.counter("stream_frames_total"),
            requests: COMPUTE_OPS
                .map(|op| registry.counter(&format!("requests_total{{op=\"{op}\"}}"))),
            phase_write: registry.histogram("phase_latency_us{phase=\"write\"}"),
            next_token: AtomicU64::new(2),
            next_serial: AtomicU64::new(0),
            started: Instant::now(),
            worker_handles: Mutex::new(Vec::with_capacity(workers)),
            registry,
        });

        // Thread-spawn failures at startup (fd/thread limits) are real
        // io errors the caller can react to — not panics. On failure the
        // already-spawned workers must be released from `queue.pop()`
        // and joined, or every failed `start` attempt would leak parked
        // threads (plus the Shared state pinning them) for the process
        // lifetime.
        let abort = |e: std::io::Error, shared: &Arc<Shared>| {
            shared.queue.close();
            for h in sync::lock(&shared.worker_handles).drain(..) {
                let _ = h.join();
            }
            e
        };
        let (panic_tx, panic_rx) = mpsc::channel::<usize>();
        for i in 0..workers {
            match spawn_worker(&shared, i, &panic_tx) {
                Ok(h) => sync::lock(&shared.worker_handles).push(h),
                Err(e) => return Err(abort(e, &shared)),
            }
        }

        let supervisor_handle = {
            let shared_sup = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("sempe-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared_sup, &panic_rx, &panic_tx));
            match spawned {
                Ok(h) => h,
                Err(e) => return Err(abort(e, &shared)),
            }
        };

        let loop_handle = {
            let shared_loop = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("sempe-loop".to_string())
                .spawn(move || loop_supervisor(&shared_loop, poller));
            match spawned {
                Ok(h) => h,
                Err(e) => {
                    let e = abort(e, &shared);
                    let _ = supervisor_handle.join();
                    return Err(e);
                }
            }
        };

        Ok(Server {
            shared,
            loop_handle: Some(loop_handle),
            supervisor_handle: Some(supervisor_handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A cloneable shutdown handle (for signal watchers).
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Initiate a clean shutdown (idempotent; does not block).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Block until the daemon has fully stopped — the two-phase drain:
    ///
    /// 1. Once a shutdown has been initiated, the event loop stops
    ///    accepting. The queue closes (no new jobs), workers finish
    ///    every accepted job and exit, the supervisor stands down.
    /// 2. The event loop — told the workers are done — keeps delivering
    ///    and flushing final responses for up to `drain_timeout_ms`,
    ///    closes connections as they go quiescent, then force-closes
    ///    whatever is left and exits. A connection mid-write is never
    ///    cut off before the window expires, so finished responses are
    ///    not truncated on the wire.
    pub fn join(self) {
        // Block until a drain is initiated (signal watcher, `shutdown`
        // request, or Server::shutdown).
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        // No new jobs can be dispatched into a closed queue; workers
        // drain what was accepted and exit.
        self.shared.queue.close();
        // Workers may still be respawned mid-drain bookkeeping; keep
        // draining the handle list until it stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> =
                sync::lock(&self.shared.worker_handles).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        if let Some(h) = self.supervisor_handle {
            let _ = h.join();
        }
        // Every emitter (the workers) is joined: retire the trace log
        // now, which joins its writer thread and flushes the file —
        // deterministic even if other `Arc<Shared>` clones outlive us.
        drop(sync::lock(&self.shared.trace).take());
        // Phase 2: tell the loop the completion stream is complete and
        // let it flush the final responses within the drain window.
        self.shared.workers_done.store(true, Ordering::SeqCst);
        self.shared.completions.waker.wake();
        if let Some(h) = self.loop_handle {
            let _ = h.join();
        }
    }
}

/// Supervision wrapper around the event loop: a panic (e.g. the
/// `register_fail` fault site) or a poller-level error drops every
/// connection but not the daemon — the loop is respawned with a fresh
/// poller under the same restart budget the worker pool uses. Clients
/// see a closed socket and retry; jobs already queued complete into the
/// new incarnation's completion stream and are dropped as stale, since
/// their connections died.
fn loop_supervisor(shared: &Arc<Shared>, poller: Poller) {
    let mut poller = Some(poller);
    loop {
        let p = match poller.take() {
            Some(p) => p,
            None => match Poller::new() {
                Ok(p) => p,
                Err(_) => {
                    shared.initiate_shutdown();
                    break;
                }
            },
        };
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_event_loop(shared, &p)));
        match caught {
            Ok(Ok(())) => break,
            Ok(Err(_)) | Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst)
                    || shared.workers_done.load(Ordering::SeqCst)
                {
                    break;
                }
                if shared.loop_restarts.inc_capped(shared.restart_budget).is_none() {
                    // Budget spent: the daemon cannot serve without its
                    // loop — drain what the workers still hold.
                    shared.initiate_shutdown();
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use super::*;
    use crate::protocol::MAX_REQUEST_BYTES;

    fn roundtrip(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_string()
    }

    #[test]
    fn serves_stats_and_shuts_down_cleanly() {
        let server = Server::start(&ServiceConfig { workers: 2, ..ServiceConfig::default() })
            .expect("starts");
        let addr = server.local_addr();
        let resp = roundtrip(addr, r#"{"type":"stats"}"#);
        let v = sempe_core::json::parse(&resp).expect("stats parse");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(2));
        let resp = roundtrip(addr, r#"{"type":"shutdown"}"#);
        assert!(resp.contains("\"ok\":true"));
        server.join();
    }

    #[test]
    fn health_reports_a_ready_pool() {
        let server = Server::start(&ServiceConfig { workers: 2, ..ServiceConfig::default() })
            .expect("starts");
        let resp = roundtrip(server.local_addr(), r#"{"type":"health","id":"h1"}"#);
        assert!(resp.starts_with(r#"{"id":"h1","#), "id leads the response: {resp}");
        let v = sempe_core::json::parse(&resp).expect("health parse");
        assert_eq!(v.get("ready").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("draining").and_then(Json::as_bool), Some(false));
        let workers = v.get("workers").expect("workers");
        assert_eq!(workers.get("configured").and_then(Json::as_u64), Some(2));
        assert_eq!(workers.get("restarts").and_then(Json::as_u64), Some(0));
        let faults = v.get("faults").expect("faults");
        assert_eq!(faults.get("active").and_then(Json::as_bool), Some(false));
        server.shutdown();
        server.join();
    }

    #[test]
    fn oversized_requests_get_an_error_and_the_connection_survives() {
        let server = Server::start(&ServiceConfig { workers: 1, ..ServiceConfig::default() })
            .expect("starts");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // One giant newline-terminated line, well past the cap.
        let big = "x".repeat(MAX_REQUEST_BYTES + 4096);
        writeln!(stream, "{big}").expect("send oversized");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("error line");
        assert!(resp.contains("E_BAD_REQUEST"), "structured error, got: {resp}");
        assert!(resp.contains("exceeds"));
        // The same connection must keep working.
        stream.write_all(b"{\"type\":\"stats\"}\n").expect("send follow-up");
        resp.clear();
        reader.read_line(&mut resp).expect("stats line");
        assert!(resp.contains("\"ok\":true"), "connection must survive, got: {resp}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn malformed_lines_get_parse_errors() {
        let server = Server::start(&ServiceConfig { workers: 1, ..ServiceConfig::default() })
            .expect("starts");
        let addr = server.local_addr();
        assert!(roundtrip(addr, "garbage").contains("E_PARSE"));
        assert!(roundtrip(addr, r#"{"type":"fly"}"#).contains("E_BAD_REQUEST"));
        server.shutdown();
        server.join();
    }

    #[test]
    fn request_id_reuse_is_rejected_per_connection() {
        let server = Server::start(&ServiceConfig { workers: 1, ..ServiceConfig::default() })
            .expect("starts");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut resp = String::new();
        for expect_ok in [true, false] {
            writeln!(stream, r#"{{"type":"stats","id":"dup"}}"#).expect("send");
            resp.clear();
            reader.read_line(&mut resp).expect("recv");
            assert!(resp.starts_with(r#"{"id":"dup","#), "id echoes: {resp}");
            assert_eq!(resp.contains("\"ok\":true"), expect_ok, "got: {resp}");
            if !expect_ok {
                assert!(resp.contains("E_BAD_REQUEST"), "got: {resp}");
                assert!(resp.contains("already used"), "got: {resp}");
            }
        }
        // A different connection may reuse the id freely.
        let resp = roundtrip(server.local_addr(), r#"{"type":"stats","id":"dup"}"#);
        assert!(resp.contains("\"ok\":true"), "ids are per-connection: {resp}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn idle_connections_reap_themselves() {
        let server = Server::start(&ServiceConfig {
            workers: 1,
            idle_timeout_ms: 150,
            ..ServiceConfig::default()
        })
        .expect("starts");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        // The server closes the idle connection: read returns EOF well
        // before our own 10s guard.
        let n = reader.read_line(&mut resp).expect("EOF, not hang");
        assert_eq!(n, 0, "idle connection must be closed, got: {resp}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn stalled_frames_get_a_structured_error() {
        let server = Server::start(&ServiceConfig {
            workers: 1,
            frame_timeout_ms: 150,
            ..ServiceConfig::default()
        })
        .expect("starts");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Half a frame, then silence: the slow-loris case.
        stream.write_all(b"{\"type\":\"sta").expect("send partial");
        stream.flush().expect("flush");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("error line");
        assert!(resp.contains("E_BAD_REQUEST"), "structured stall error, got: {resp}");
        assert!(resp.contains("stalled"), "got: {resp}");
        server.shutdown();
        server.join();
    }
}

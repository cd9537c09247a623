//! Fault-tolerant shard router: one front door over N `sempe-serve`
//! shards.
//!
//! Upstream the router is a drop-in replacement for a single server —
//! it speaks v1 and v2 exactly like `sempe-serve` does. Downstream it
//! multiplexes every request over one v2 connection per shard,
//! partitioning work by **program digest** (rendezvous hashing over
//! `fnv1a(source)`), so each shard's `ForkCache`/`ResultCache` becomes
//! one slot of a distributed, digest-sharded cache tier. Large `batch`
//! requests fan out across shards and their streamed frames are merged
//! back into one strictly-sequenced upstream stream with per-item
//! `shard` provenance.
//!
//! The router reads JSON only through `sempe_core::json`, the grammar
//! the shards parse with. Every upstream line and every shard reply is
//! read once with `json::object`, which validates the whole line as
//! `json::parse` does but builds no tree. A compute request goes to one
//! admit function: it reads the id with the direct server's rule,
//! digests `source` as it is decoded, and cuts the `id` out of the
//! text. Only a `batch` that fans out builds a tree, exactly one: it is
//! checked as a direct server checks it and then sliced into chunks.
//! Every other check of a compute request is left to the shard, whose
//! error line comes back unchanged but for the id. Inline ops, and lines
//! `json::object` rejects, are answered by the connection layer the
//! server uses, so a line the router cannot read gets the `E_PARSE` a
//! direct connection gets.
//!
//! The robustness half is the point: per-shard health probes, connect
//! and request deadlines with jittered retry, hedged resubmission of
//! idempotent non-streaming work, per-shard circuit breakers with
//! half-open probing, rendezvous rebalancing when a shard drains or
//! dies mid-stream (in-flight chunks are resubmitted elsewhere and
//! frame delivery is deduplicated, so upstreams never see a duplicated
//! or lost trial), and backpressure propagation (`E_BUSY` +
//! `retry_after_ms` instead of queue collapse). The router↔shard links
//! run through the same seeded [`FaultInjector`] as the server, so the
//! whole tier is chaos-testable with one `--fault-plan` spec.

mod event_loop;
mod merge;
mod ring;
mod shard;

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sempe_core::telemetry::Registry;

use crate::fault::{FaultInjector, FaultPlan};
use crate::net::{Poller, Waker};

/// Everything tunable about a [`Router`]. `Default` gives production
/// timeouts; tests shrink them.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Upstream listen address (`host:port`; port 0 for ephemeral).
    pub addr: String,
    /// Downstream shard addresses (`host:port` each). Must be non-empty.
    pub shards: Vec<String>,
    /// How often each Ready shard is health-probed.
    pub probe_interval_ms: u64,
    /// Probe (and hello) reply deadline; a miss tears the link down.
    pub probe_timeout_ms: u64,
    /// Downstream TCP connect deadline.
    pub connect_timeout_ms: u64,
    /// A dispatched chunk with no frame progress for this long is
    /// retried elsewhere; a queued chunk with no eligible shard for this
    /// long fails upstream with `E_BUSY`.
    pub request_timeout_ms: u64,
    /// Non-streaming work still unanswered after this long is hedged to
    /// the next-best shard (first terminal wins).
    pub hedge_after_ms: u64,
    /// Base of the jittered exponential retry backoff.
    pub retry_base_ms: u64,
    /// Maximum dispatch attempts per chunk before failing upstream.
    pub max_attempts: u32,
    /// Consecutive failures that trip a shard's circuit breaker.
    pub breaker_threshold: u32,
    /// Initial breaker cool-off; doubles per failed half-open probe.
    pub breaker_cooloff_ms: u64,
    /// Cap on the doubled cool-off.
    pub breaker_max_cooloff_ms: u64,
    /// Upstream shed point: jobs in flight across all connections.
    pub max_inflight: usize,
    /// Minimum `batch` items before the router fans out across shards.
    pub batch_fanout_min: usize,
    /// Upstream idle-connection reap window.
    pub idle_timeout_ms: u64,
    /// Upstream partial-frame / stuck-write timeout.
    pub frame_timeout_ms: u64,
    /// Grace window for final flushes during shutdown.
    pub drain_timeout_ms: u64,
    /// Chaos plan applied to upstream accepts/reads/writes **and**
    /// downstream shard writes.
    pub fault_plan: Option<FaultPlan>,
    /// Seed for the jittered retry backoff.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            probe_interval_ms: 500,
            probe_timeout_ms: 1_000,
            connect_timeout_ms: 1_000,
            request_timeout_ms: 60_000,
            hedge_after_ms: 5_000,
            retry_base_ms: 50,
            max_attempts: 4,
            breaker_threshold: 3,
            breaker_cooloff_ms: 500,
            breaker_max_cooloff_ms: 5_000,
            max_inflight: 256,
            batch_fanout_min: 8,
            idle_timeout_ms: 30_000,
            frame_timeout_ms: 10_000,
            drain_timeout_ms: 5_000,
            fault_plan: None,
            seed: 0,
        }
    }
}

impl RouterConfig {
    pub(crate) fn probe_interval(&self) -> Duration {
        Duration::from_millis(self.probe_interval_ms)
    }
    pub(crate) fn probe_timeout(&self) -> Duration {
        Duration::from_millis(self.probe_timeout_ms)
    }
    pub(crate) fn connect_timeout(&self) -> Duration {
        Duration::from_millis(self.connect_timeout_ms)
    }
    pub(crate) fn request_timeout(&self) -> Duration {
        Duration::from_millis(self.request_timeout_ms)
    }
    pub(crate) fn hedge_after(&self) -> Duration {
        Duration::from_millis(self.hedge_after_ms)
    }
    pub(crate) fn idle_timeout(&self) -> Duration {
        Duration::from_millis(self.idle_timeout_ms)
    }
    pub(crate) fn frame_timeout(&self) -> Duration {
        Duration::from_millis(self.frame_timeout_ms)
    }
    pub(crate) fn drain_timeout(&self) -> Duration {
        Duration::from_millis(self.drain_timeout_ms)
    }
}

/// A finished downstream dial attempt, pushed by a dialer thread and
/// drained by the event loop. `generation` pairs the result with the
/// attempt that asked for it — a link that was torn down and re-dialed
/// in the meantime ignores the stale socket.
pub(crate) struct DialResult {
    pub(crate) shard: usize,
    pub(crate) generation: u64,
    pub(crate) result: io::Result<std::net::TcpStream>,
}

/// State shared between the router's event-loop thread, its dialer
/// threads, and the public handles.
pub(crate) struct RouterShared {
    pub(crate) listener: TcpListener,
    pub(crate) local_addr: std::net::SocketAddr,
    pub(crate) shutdown: AtomicBool,
    pub(crate) waker: Waker,
    pub(crate) registry: Registry,
    pub(crate) injector: FaultInjector,
    pub(crate) dials: Mutex<Vec<DialResult>>,
}

impl RouterShared {
    pub(crate) fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// A running router instance.
///
/// Dropping the handle does **not** stop the router; call
/// [`Router::shutdown`] (or send a `shutdown` request) and then
/// [`Router::join`].
#[derive(Debug)]
pub struct Router {
    shared: Arc<RouterShared>,
    loop_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RouterShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterShared").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

/// A cloneable shutdown handle — what a signal-watcher thread holds,
/// since [`Router::join`] consumes the router itself.
#[derive(Debug, Clone)]
pub struct RouterHandle {
    shared: Arc<RouterShared>,
}

impl RouterHandle {
    /// Initiate a clean drain (idempotent; does not block). Shards are
    /// left running — only the router itself exits.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Has a drain been initiated?
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Router {
    /// Bind the upstream listener and start the event loop. Shards are
    /// dialed asynchronously — a router is usable (and reports itself
    /// unready) before any shard is up.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no shards are configured; otherwise the OS
    /// error from binding the listener or creating the poller.
    pub fn start(config: &RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard address",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        let registry = Registry::new();
        let injector = match &config.fault_plan {
            Some(plan) => FaultInjector::with_registry(plan.clone(), &registry),
            None => FaultInjector::with_registry(FaultPlan::default(), &registry),
        };
        let shared = Arc::new(RouterShared {
            listener,
            local_addr,
            shutdown: AtomicBool::new(false),
            waker,
            registry,
            injector,
            dials: Mutex::new(Vec::new()),
        });
        let loop_shared = Arc::clone(&shared);
        let loop_config = config.clone();
        let loop_handle =
            std::thread::Builder::new().name("router-loop".to_string()).spawn(move || {
                if let Err(e) = event_loop::run(&loop_shared, &poller, &loop_config) {
                    eprintln!("sempe-router: event loop failed: {e}");
                    loop_shared.shutdown.store(true, Ordering::SeqCst);
                }
            })?;
        Ok(Router { shared, loop_handle: Some(loop_handle) })
    }

    /// The bound upstream address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.local_addr
    }

    /// A cloneable shutdown handle.
    #[must_use]
    pub fn handle(&self) -> RouterHandle {
        RouterHandle { shared: Arc::clone(&self.shared) }
    }

    /// Initiate a clean drain (idempotent; does not block).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Wait for the event loop to drain and exit.
    pub fn join(mut self) {
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
    }
}

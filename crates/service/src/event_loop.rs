//! The readiness-driven core of the daemon: one thread owns every
//! socket (listener, wake pipe, all connections) and multiplexes them
//! over an edge-triggered [`Poller`].
//!
//! ```text
//!                       ┌──────────── event loop ────────────┐
//! accept ──► register ──► read edges ─► frame ─► parse ──────► bounded
//!                       │    ▲                               │ job queue
//!                       │    │ wake pipe      completions ◄──┘    │
//!                       │    └──────────────◄─────────────────────┘
//!                       │  out-of-order delivery, streamed frames,
//!                       │  deadline/idle/stall timers, write flush
//!                       └────────────────────────────────────┘
//! ```
//!
//! Connection state and socket I/O are the shared [`Conn`] from
//! `conn.rs`, the type the router's upstream side uses too: framing,
//! the id rules, the `hello` upgrade, the timers and the write faults
//! live there. This loop adds what only the server does: inline ops,
//! dispatch to the worker pool, completion delivery, and the
//! queued-deadline and pool-death verdicts.
//!
//! A connection starts in legacy (v1) mode: strictly serialized
//! request→response, byte-identical to the old thread-per-connection
//! server. A `hello` upgrade switches it to v2: every request carries an
//! id, many may be in flight at once, responses return in completion
//! order, and `batch`/`sweep` stream per-trial/per-lane progress frames
//! before their terminal response.

use std::collections::HashMap;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sempe_core::json::Json;

use crate::conn::{self, Mode};
use crate::fault::FaultSite;
use crate::net::{self, Poller};
use crate::pool::{Completer, Completion, Job, Payload, PushError};
use crate::protocol::{op_slot, with_id, ErrorCode, Request, ServiceError};
use crate::server::{Shared, LOOP_TICK_MS, QUEUED_DEADLINE_GRACE};

/// Poller token of the TCP listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the completion-queue wake pipe.
const TOKEN_WAKER: u64 = 1;

/// A dispatched compute job the loop is still waiting on.
struct Inflight {
    /// Pre-encoded request id, spliced into the terminal response.
    id: Option<String>,
    deadline: Option<Instant>,
}

/// A client connection; its in-flight table holds the server's jobs.
type Conn = conn::Conn<Inflight>;

/// Run the event loop until clean shutdown. Returns `Err` only on a
/// poller-level failure (the supervisor wrapper decides whether to
/// respawn with a fresh poller).
pub(crate) fn run_event_loop(shared: &Arc<Shared>, poller: &Poller) -> std::io::Result<()> {
    poller.add_readable(shared.listener.as_raw_fd(), TOKEN_LISTENER)?;
    poller.add_readable(shared.completions.waker.read_half().as_raw_fd(), TOKEN_WAKER)?;
    // A respawned loop starts with zero connections by construction —
    // the previous incarnation's sockets died with it.
    shared.connections_open.set(0);
    shared.inflight_requests.set(0);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut force_close_at: Option<Instant> = None;
    loop {
        events.clear();
        poller.wait(&mut events, LOOP_TICK_MS)?;
        let now = Instant::now();
        let draining = shared.shutdown.load(Ordering::SeqCst);
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if !draining {
                        accept_burst(shared, poller, &mut conns, now);
                    }
                }
                TOKEN_WAKER => shared.completions.waker.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.on_event(ev, now);
                    }
                }
            }
        }
        // Completions drain in push order, so a job's frames always
        // precede its terminal response.
        completions.clear();
        shared.completions.take(&mut completions);
        for completion in completions.drain(..) {
            deliver(shared, &mut conns, completion, now);
        }
        for (&token, conn) in &mut conns {
            while let Some(line) = conn.next_line(&shared.injector, now) {
                handle_line(shared, conn, token, &line, now);
            }
        }
        sweep_timers(shared, &mut conns, now);
        for conn in conns.values_mut() {
            conn.flush(now, &shared.phase_write);
        }
        let draining = shared.shutdown.load(Ordering::SeqCst);
        conns.retain(|_, conn| {
            let close = conn.finished(draining);
            if close {
                conn.link.close(poller);
                shared.connections_open.sub(1);
                shared.inflight_requests.sub(conn.inflight.len() as u64);
            }
            !close
        });
        // Drain endgame: the workers are joined (every completion that
        // will ever exist has been pushed). Serve out the flush window,
        // then force-close stragglers.
        if shared.workers_done.load(Ordering::SeqCst) {
            let force = *force_close_at.get_or_insert(now + shared.drain_timeout);
            if conns.is_empty() || now >= force {
                break;
            }
        }
    }
    for (_, conn) in conns.drain() {
        shared.connections_open.sub(1);
        shared.inflight_requests.sub(conn.inflight.len() as u64);
    }
    Ok(())
}

/// Admit every connection the listener has pending.
fn accept_burst(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    now: Instant,
) {
    net::accept_burst(&shared.listener, &shared.injector, |stream| {
        shared.connections.inc();
        // `register_fail` models the poller rejecting the fd;
        // the panic exercises the loop's own supervision path.
        if shared.injector.fire(FaultSite::RegisterFail) {
            panic!("fault-injected poller registration failure");
        }
        let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
        if poller.add(stream.as_raw_fd(), token).is_ok() {
            shared.connections_open.add(1);
            conns.insert(token, Conn::new(stream, now));
        }
    });
}

/// Route one completion back to its connection. Stale completions —
/// the connection died, or the loop already answered for the job
/// (deadline, pool death) — are dropped silently.
fn deliver(shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn>, c: Completion, now: Instant) {
    let Some(conn) = conns.get_mut(&c.token) else { return };
    match c.payload {
        Payload::Frame(line) => {
            // Frames arrive pre-rendered; only deliver while the job is
            // still wanted.
            if conn.inflight.contains_key(&c.serial) {
                conn.send(&shared.injector, &line, now);
            }
        }
        Payload::Done(result) => {
            let Some(inflight) = conn.inflight.remove(&c.serial) else { return };
            shared.inflight_requests.sub(1);
            let body = match result {
                Ok(body) => body.to_string(),
                Err(e) => e.to_json(),
            };
            conn.send(&shared.injector, &with_id(&body, inflight.id.as_deref()), now);
        }
    }
}

/// Serve one request line: parse the envelope, answer inline ops
/// directly, dispatch compute ops to the pool.
fn handle_line(shared: &Arc<Shared>, conn: &mut Conn, token: u64, line: &str, now: Instant) {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return;
    }
    let Some((request, id, deadline_ms)) = conn.admit(&shared.injector, trimmed, now) else {
        return;
    };
    let id = id.as_deref();
    let deadline = deadline_ms.map(|ms| now + std::time::Duration::from_millis(ms));
    let body = match request {
        Request::Hello { proto } => {
            shared.registry.counter("requests_total{op=\"hello\"}").inc();
            conn.hello(proto)
        }
        Request::Stats => {
            shared.registry.counter("requests_total{op=\"stats\"}").inc();
            shared.stats_line()
        }
        Request::Health => {
            shared.registry.counter("requests_total{op=\"health\"}").inc();
            shared.health_line()
        }
        Request::Metrics { format } => {
            shared.registry.counter("requests_total{op=\"metrics\"}").inc();
            shared.metrics_line(format)
        }
        Request::Shutdown => {
            shared.registry.counter("requests_total{op=\"shutdown\"}").inc();
            let body = Json::obj().with("ok", true).with("type", "shutdown").encode();
            conn.send(&shared.injector, &with_id(&body, id), now);
            conn.link.close_after_flush = true;
            shared.initiate_shutdown();
            return;
        }
        request => {
            dispatch_compute(shared, conn, token, request, id, deadline, now);
            return;
        }
    };
    conn.send(&shared.injector, &with_id(&body, id), now);
}

/// Submit a compute request to the job queue, enforcing load shedding
/// and backpressure synchronously. On success the job is tracked in the
/// connection's inflight table until its terminal completion (or a
/// loop-side deadline/pool-death verdict) arrives.
fn dispatch_compute(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    token: u64,
    request: Request,
    id: Option<&str>,
    deadline: Option<Instant>,
    now: Instant,
) {
    if let Some(slot) = op_slot(request.op_name()) {
        shared.requests[slot].inc();
    }
    if request.is_heavy() && shared.queue.depth() >= shared.shed_highwater {
        shared.shed.inc();
        shared.rejected.inc();
        let e = ServiceError::new(
            ErrorCode::Busy,
            format!(
                "shedding load: queue depth at high-water mark ({}); retry later",
                shared.shed_highwater
            ),
        );
        conn.send(&shared.injector, &with_id(&e.to_json(), id), now);
        return;
    }
    let serial = shared.next_serial.fetch_add(1, Ordering::Relaxed);
    let stream = conn.mode == Mode::V2 && request.is_heavy();
    let job = Job {
        request,
        deadline,
        id: id.map(str::to_string),
        submitted: Instant::now(),
        stream,
        completer: Completer::new(
            Arc::clone(&shared.completions),
            token,
            serial,
            Arc::clone(&shared.shutdown),
        ),
    };
    match shared.queue.push(job) {
        Ok(()) => {
            conn.inflight.insert(serial, Inflight { id: id.map(str::to_string), deadline });
            shared.inflight_requests.add(1);
        }
        Err((job, PushError::Full)) => {
            job.completer.disarm();
            shared.rejected.inc();
            let e = ServiceError::new(
                ErrorCode::Busy,
                format!("job queue full (capacity {})", shared.queue.capacity),
            );
            conn.send(&shared.injector, &with_id(&e.to_json(), id), now);
        }
        Err((job, PushError::Closed)) => {
            job.completer.disarm();
            let e = ServiceError::new(ErrorCode::Shutdown, "server is shutting down");
            conn.send(&shared.injector, &with_id(&e.to_json(), id), now);
        }
    }
}

/// The per-tick timer scan: the connection timers, then queued-job
/// deadlines and pool death.
fn sweep_timers(shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn>, now: Instant) {
    let pool_dead = shared.pool_dead();
    for conn in conns.values_mut() {
        if !conn.sweep_timers(&shared.injector, now, shared.frame_timeout, shared.idle_timeout) {
            continue;
        }
        // Jobs the pool will never answer: a budget that died while the
        // job sat queued (plus grace), or a pool that can no longer run
        // anything. The inflight entry is dropped so a late completion
        // is ignored rather than double-answered.
        let lapsed = |inflight: &Inflight| {
            inflight.deadline.is_some_and(|d| now >= d + QUEUED_DEADLINE_GRACE)
        };
        let dropped: Vec<u64> = conn
            .inflight
            .iter()
            .filter(|(_, inflight)| pool_dead || lapsed(inflight))
            .map(|(&serial, _)| serial)
            .collect();
        for serial in dropped {
            let Some(inflight) = conn.inflight.remove(&serial) else { continue };
            shared.inflight_requests.sub(1);
            let e = if lapsed(&inflight) {
                shared.deadlines_expired.inc();
                ServiceError::new(
                    ErrorCode::Deadline,
                    "deadline expired before a worker picked the job up",
                )
            } else {
                ServiceError::new(ErrorCode::Internal, "worker pool exhausted its restart budget")
            };
            conn.send(&shared.injector, &with_id(&e.to_json(), inflight.id.as_deref()), now);
        }
    }
}

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
//! Protocol generations live here too. A connection starts in legacy
//! (v1) mode: strictly serialized request→response, byte-identical to
//! the old thread-per-connection server. A `hello` upgrade switches it
//! to v2: every request carries an id, many may be in flight at once,
//! responses return in completion order, and `batch`/`sweep` stream
//! per-trial/per-lane progress frames before their terminal response.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sempe_core::json::Json;

use crate::conn::{FrameEvent, Framer, IdWindow, WriteBuf};
use crate::fault::FaultSite;
use crate::net::{self, Poller};
use crate::pool::{Completer, Completion, Job, Payload, PushError};
use crate::protocol::{
    with_id, Envelope, ErrorCode, Request, ServiceError, MAX_REQUEST_BYTES, PROTO_VERSION,
};
use crate::server::{Shared, ID_WINDOW, LOOP_TICK_MS, QUEUED_DEADLINE_GRACE};

/// Poller token of the TCP listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the completion-queue wake pipe.
const TOKEN_WAKER: u64 = 1;

/// Which protocol generation a connection speaks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Strictly serialized request→response; ids optional.
    Legacy,
    /// Pipelined, out-of-order, streaming; ids mandatory.
    V2,
}

/// A framed input item waiting to be processed, in arrival order.
enum PendingItem {
    Line {
        line: String,
        /// `read_stall` fault: the line may not be processed before
        /// this instant (later lines queue behind it).
        release: Option<Instant>,
        /// Whether the stall fault was already rolled for this line.
        rolled: bool,
    },
    TooLong {
        recovered: bool,
    },
}

/// A dispatched compute job the loop is still waiting on.
struct Inflight {
    /// Pre-encoded request id, spliced into the terminal response.
    id: Option<String>,
    deadline: Option<Instant>,
}

/// All loop-owned state of one connection.
struct Conn {
    stream: TcpStream,
    framer: Framer,
    wbuf: WriteBuf,
    ids: IdWindow,
    mode: Mode,
    /// Legacy serialization: a compute job is in flight, so no further
    /// input line may be processed until its response is queued.
    legacy_busy: bool,
    pending: VecDeque<PendingItem>,
    inflight: HashMap<u64, Inflight>,
    /// Peer sent EOF (or the read side died); buffered work still runs
    /// and pending responses still flush (half-close works).
    peer_closed: bool,
    /// Close the socket once the write buffer drains (shutdown
    /// responses, truncation faults, frame-stall errors).
    close_after_flush: bool,
    /// Stop feeding the framer (post-truncation, post-stall).
    stop_reading: bool,
    /// Hard-close at the next reap sweep.
    dead: bool,
    /// Edge-triggered writability: true until a write hits `WouldBlock`,
    /// re-armed by the next `EPOLLOUT` edge.
    writable: bool,
    /// When the socket first refused bytes we still owe it (response
    /// stall defense — the write-side analog of the frame timeout).
    write_stuck_since: Option<Instant>,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            framer: Framer::new(),
            wbuf: WriteBuf::new(),
            ids: IdWindow::new(ID_WINDOW),
            mode: Mode::Legacy,
            legacy_busy: false,
            pending: VecDeque::new(),
            inflight: HashMap::new(),
            peer_closed: false,
            close_after_flush: false,
            stop_reading: false,
            dead: false,
            writable: true,
            write_stuck_since: None,
            last_activity: now,
        }
    }

    /// Nothing queued in either direction and nothing in flight.
    fn quiescent(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty() && self.wbuf.is_empty()
    }
}

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
                        if ev.writable {
                            conn.writable = true;
                            conn.write_stuck_since = None;
                        }
                        if ev.readable || ev.hangup {
                            read_conn(conn, now);
                        }
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
            process_pending(shared, conn, token, now);
        }
        sweep_timers(shared, &mut conns, now);
        for conn in conns.values_mut() {
            flush_conn(shared, conn, now);
        }
        let draining = shared.shutdown.load(Ordering::SeqCst);
        conns.retain(|_, conn| {
            let close = conn.dead
                || (conn.peer_closed && conn.quiescent())
                || (draining && conn.quiescent() && !conn.framer.mid_frame());
            if close {
                let _ = poller.delete(conn.stream.as_raw_fd());
                let _ = conn.stream.shutdown(Shutdown::Both);
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

/// Drain the socket (edge-triggered) into the framer.
fn read_conn(conn: &mut Conn, now: Instant) {
    let mut chunk = [0u8; 16 * 1024];
    let mut frames = Vec::new();
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = now;
                if !conn.stop_reading {
                    conn.framer.feed(&chunk[..n], now, &mut frames);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_closed = true;
                break;
            }
        }
    }
    for ev in frames {
        match ev {
            FrameEvent::Line(line) => {
                conn.pending.push_back(PendingItem::Line { line, release: None, rolled: false });
            }
            FrameEvent::TooLong { recovered } => {
                conn.pending.push_back(PendingItem::TooLong { recovered });
            }
        }
    }
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
                enqueue_response(shared, conn, &line, now);
            }
        }
        Payload::Done(result) => {
            let Some(inflight) = conn.inflight.remove(&c.serial) else { return };
            shared.inflight_requests.sub(1);
            let body = match result {
                Ok(body) => body.to_string(),
                Err(e) => e.to_json(),
            };
            enqueue_response(shared, conn, &with_id(&body, inflight.id.as_deref()), now);
            if conn.mode == Mode::Legacy {
                conn.legacy_busy = false;
            }
        }
    }
}

/// Process buffered input items in arrival order, honoring the legacy
/// serialization gate and `read_stall` parking.
fn process_pending(shared: &Arc<Shared>, conn: &mut Conn, token: u64, now: Instant) {
    loop {
        if conn.close_after_flush || conn.dead {
            return;
        }
        if conn.mode == Mode::Legacy && conn.legacy_busy {
            return;
        }
        let Some(front) = conn.pending.front_mut() else { return };
        match front {
            PendingItem::TooLong { recovered } => {
                let recovered = *recovered;
                conn.pending.pop_front();
                let e = ServiceError::new(
                    ErrorCode::BadRequest,
                    format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                enqueue_response(shared, conn, &e.to_json(), now);
                if !recovered {
                    conn.close_after_flush = true;
                    conn.stop_reading = true;
                }
            }
            PendingItem::Line { release, rolled, .. } => {
                if !*rolled {
                    *rolled = true;
                    if let Some(stall) = shared.injector.stall(FaultSite::ReadStall) {
                        *release = Some(now + stall);
                    }
                }
                if release.is_some_and(|r| now < r) {
                    return; // parked: the fallback tick retries it
                }
                let Some(PendingItem::Line { line, .. }) = conn.pending.pop_front() else {
                    return;
                };
                handle_line(shared, conn, token, &line, now);
            }
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
    let envelope = match Envelope::parse(trimmed) {
        Ok(e) => e,
        Err(e) => {
            enqueue_response(shared, conn, &e.to_json(), now);
            return;
        }
    };
    if conn.mode == Mode::V2 && envelope.id.is_none() {
        let e = ServiceError::new(
            ErrorCode::BadRequest,
            "v2 requests must carry an id (responses are matched by it)",
        );
        enqueue_response(shared, conn, &e.to_json(), now);
        return;
    }
    let id = envelope.id.as_deref();
    if let Some(id_str) = id {
        if !conn.ids.admit(id_str) {
            let e = ServiceError::new(
                ErrorCode::BadRequest,
                format!("request id {id_str} was already used on this connection"),
            );
            enqueue_response(shared, conn, &with_id(&e.to_json(), id), now);
            return;
        }
    }
    let request = match envelope.req {
        Ok(r) => r,
        Err(e) => {
            enqueue_response(shared, conn, &with_id(&e.to_json(), id), now);
            return;
        }
    };
    let deadline = envelope.deadline_ms.map(|ms| now + std::time::Duration::from_millis(ms));
    let body = match request {
        Request::Hello { proto } => {
            shared.registry.counter("requests_total{op=\"hello\"}").inc();
            if conn.mode == Mode::V2 {
                ServiceError::new(
                    ErrorCode::BadRequest,
                    "duplicate hello: this connection already speaks v2",
                )
                .to_json()
            } else if proto != PROTO_VERSION {
                ServiceError::new(
                    ErrorCode::BadRequest,
                    format!("unsupported protocol version {proto} (this server speaks 2)"),
                )
                .to_json()
            } else {
                conn.mode = Mode::V2;
                Json::obj()
                    .with("ok", true)
                    .with("type", "hello")
                    .with("proto", PROTO_VERSION)
                    .with("streaming", true)
                    .encode()
            }
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
            enqueue_response(shared, conn, &with_id(&body, id), now);
            conn.close_after_flush = true;
            shared.initiate_shutdown();
            return;
        }
        request => {
            dispatch_compute(shared, conn, token, request, id, deadline, now);
            return;
        }
    };
    enqueue_response(shared, conn, &with_id(&body, id), now);
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
    shared.registry.counter(&format!("requests_total{{op=\"{}\"}}", request.op_name())).inc();
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
        enqueue_response(shared, conn, &with_id(&e.to_json(), id), now);
        return;
    }
    let serial = shared.next_serial.fetch_add(1, Ordering::Relaxed);
    let stream =
        conn.mode == Mode::V2 && matches!(request, Request::Batch { .. } | Request::Sweep { .. });
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
            if conn.mode == Mode::Legacy {
                conn.legacy_busy = true;
            }
        }
        Err((job, PushError::Full)) => {
            job.completer.disarm();
            shared.rejected.inc();
            let e = ServiceError::new(
                ErrorCode::Busy,
                format!("job queue full (capacity {})", shared.queue.capacity),
            );
            enqueue_response(shared, conn, &with_id(&e.to_json(), id), now);
        }
        Err((job, PushError::Closed)) => {
            job.completer.disarm();
            let e = ServiceError::new(ErrorCode::Shutdown, "server is shutting down");
            enqueue_response(shared, conn, &with_id(&e.to_json(), id), now);
        }
    }
}

/// Queue a response line, applying the write-side fault sites exactly
/// where the blocking server applied them (per response line).
fn enqueue_response(shared: &Arc<Shared>, conn: &mut Conn, line: &str, now: Instant) {
    conn.last_activity = now;
    if shared.injector.fire(FaultSite::WriteTrunc) {
        conn.wbuf.enqueue_truncated(line);
        conn.close_after_flush = true;
        conn.stop_reading = true;
    } else if let Some(stall) = shared.injector.stall(FaultSite::WriteStall) {
        conn.wbuf.enqueue_stalled(line, stall, now);
    } else {
        conn.wbuf.enqueue(line);
    }
}

/// The per-tick timer scan: frame stalls, idle reaping, queued-job
/// deadlines, pool death, and write-side stalls.
fn sweep_timers(shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn>, now: Instant) {
    let pool_dead = shared.pool_dead();
    for conn in conns.values_mut() {
        if conn.dead {
            continue;
        }
        // Slow-loris defense: a partial request frame (or an overflow
        // drain) stalled past the frame timeout gets a structured error
        // and the connection is closed after the flush.
        if !conn.close_after_flush {
            if let Some(started) = conn.framer.frame_started() {
                if now.duration_since(started) >= shared.frame_timeout {
                    let e = ServiceError::new(
                        ErrorCode::BadRequest,
                        "request frame stalled mid-transfer",
                    );
                    enqueue_response(shared, conn, &e.to_json(), now);
                    conn.close_after_flush = true;
                    conn.stop_reading = true;
                }
            }
        }
        // A peer that stopped draining its socket while we owe it bytes
        // is the write-side slow loris.
        if conn
            .write_stuck_since
            .is_some_and(|since| now.duration_since(since) >= shared.frame_timeout)
        {
            conn.dead = true;
            continue;
        }
        // Idle reaper: nothing buffered, nothing in flight, nothing
        // owed, and no traffic for the idle window.
        if conn.quiescent()
            && !conn.framer.mid_frame()
            && now.duration_since(conn.last_activity) >= shared.idle_timeout
        {
            conn.dead = true;
            continue;
        }
        // Jobs the pool will never answer: a budget that died while the
        // job sat queued (plus grace), or a pool that can no longer run
        // anything. The inflight entry is dropped so a late completion
        // is ignored rather than double-answered.
        let mut lapsed: Vec<u64> = Vec::new();
        for (&serial, inflight) in &conn.inflight {
            let deadline_lapsed =
                inflight.deadline.is_some_and(|d| now >= d + QUEUED_DEADLINE_GRACE);
            if deadline_lapsed || pool_dead {
                lapsed.push(serial);
            }
        }
        for serial in lapsed {
            let Some(inflight) = conn.inflight.remove(&serial) else { continue };
            shared.inflight_requests.sub(1);
            let e = if inflight.deadline.is_some_and(|d| now >= d + QUEUED_DEADLINE_GRACE) {
                shared.deadlines_expired.inc();
                ServiceError::new(
                    ErrorCode::Deadline,
                    "deadline expired before a worker picked the job up",
                )
            } else {
                ServiceError::new(ErrorCode::Internal, "worker pool exhausted its restart budget")
            };
            enqueue_response(shared, conn, &with_id(&e.to_json(), inflight.id.as_deref()), now);
            if conn.mode == Mode::Legacy {
                conn.legacy_busy = false;
            }
        }
    }
}

/// Flush as much of the write buffer as the socket (and any pending
/// fault cork) allows.
fn flush_conn(shared: &Arc<Shared>, conn: &mut Conn, now: Instant) {
    if conn.dead || !conn.writable {
        return;
    }
    let start = Instant::now();
    let mut wrote_any = false;
    loop {
        let slice = conn.wbuf.writable_slice(now);
        if slice.is_empty() {
            break;
        }
        match (&conn.stream).write(slice) {
            Ok(n) => {
                wrote_any = true;
                conn.wbuf.advance(n, now);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                conn.writable = false;
                conn.write_stuck_since.get_or_insert(now);
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if wrote_any {
        conn.write_stuck_since = None;
        shared
            .registry
            .histogram("phase_latency_us{phase=\"write\"}")
            .observe_duration(start.elapsed());
    }
    if conn.close_after_flush && conn.wbuf.is_empty() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.dead = true;
    }
}

//! The compute side of the daemon: the bounded job queue, the worker
//! pool that drains it, the supervisor that respawns crashed workers,
//! and the completion queue that carries finished work (and streamed
//! progress frames) back to the event loop.
//!
//! Nothing in this module touches a socket. A worker's only link to the
//! connection that submitted a job is the job's [`Completer`] — a
//! drop-guard around the completion queue that guarantees exactly one
//! terminal completion per job, even when the worker thread dies with
//! the job in hand.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sempe_core::json::{self, Json};
use sempe_core::telemetry::Span;
use sempe_sim::HostProfile;

use crate::exec::{self, Arena, ForkCache, StreamSink};
use crate::fault::FaultSite;
use crate::net::Waker;
use crate::protocol::{with_id, ErrorCode, Request, ServiceError};
use crate::server::{Shared, MAX_BACKOFF_MS};
use crate::sync;

/// What a worker hands back to the event loop for one job.
pub(crate) enum Payload {
    /// A fully rendered streaming frame line (id/seq/partial already
    /// spliced in) — zero or more per job, always before the terminal.
    Frame(String),
    /// The terminal result: the response body (id *not* spliced — the
    /// loop owns the envelope) or a structured error.
    Done(Result<Arc<str>, ServiceError>),
}

/// One completion, routed back to `(connection token, job serial)`.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) serial: u64,
    pub(crate) payload: Payload,
}

/// Worker→loop completion mailbox: a mutexed queue plus the wake pipe
/// the event loop polls. Lives in its own `Arc` (not inside `Shared`)
/// so a [`Completer`] can ride inside a queued [`Job`] without forming
/// an `Arc<Shared>` → queue → job → `Arc<Shared>` cycle.
pub(crate) struct CompletionQueue {
    inner: Mutex<VecDeque<Completion>>,
    /// The loop registers this pipe's read half; workers write to it.
    pub(crate) waker: Waker,
}

impl CompletionQueue {
    pub(crate) fn new() -> std::io::Result<CompletionQueue> {
        Ok(CompletionQueue { inner: Mutex::new(VecDeque::new()), waker: Waker::new()? })
    }

    /// Push a completion; `wake` is false when the `wake_lost` fault
    /// fired (the loop's fallback tick picks the completion up anyway).
    pub(crate) fn push(&self, completion: Completion, wake: bool) {
        sync::lock(&self.inner).push_back(completion);
        if wake {
            self.waker.wake();
        }
    }

    /// Drain every pending completion, preserving push order — frames
    /// stay ahead of their terminal.
    pub(crate) fn take(&self, out: &mut Vec<Completion>) {
        let mut inner = sync::lock(&self.inner);
        out.extend(inner.drain(..));
    }
}

/// Drop-guard that guarantees exactly one terminal completion per job.
///
/// The happy path calls [`finish`](Completer::finish); if the worker
/// thread panics (or the job is dropped in a closing queue) the `Drop`
/// impl reports a retryable error instead, so no connection ever waits
/// forever on a job that died.
pub(crate) struct Completer {
    cq: Arc<CompletionQueue>,
    token: u64,
    serial: u64,
    shutdown: Arc<AtomicBool>,
    done: bool,
}

impl Completer {
    pub(crate) fn new(
        cq: Arc<CompletionQueue>,
        token: u64,
        serial: u64,
        shutdown: Arc<AtomicBool>,
    ) -> Completer {
        Completer { cq, token, serial, shutdown, done: false }
    }

    /// Emit one streamed progress frame (already rendered as a line).
    pub(crate) fn frame(&self, line: String, wake: bool) {
        self.cq.push(
            Completion { token: self.token, serial: self.serial, payload: Payload::Frame(line) },
            wake,
        );
    }

    /// Deliver the terminal result.
    pub(crate) fn finish(mut self, result: Result<Arc<str>, ServiceError>, wake: bool) {
        self.done = true;
        self.cq.push(
            Completion { token: self.token, serial: self.serial, payload: Payload::Done(result) },
            wake,
        );
    }

    /// Defuse the guard without completing: the job never entered the
    /// queue (push rejected), so the loop answers the client directly.
    pub(crate) fn disarm(mut self) {
        self.done = true;
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // The worker died with the job in hand, or the queue was closed
        // with the job still inside. The job never produced a result, so
        // a retry is safe — and the content-addressed cache makes it
        // idempotent.
        let err = if self.shutdown.load(Ordering::SeqCst) {
            ServiceError::new(ErrorCode::Shutdown, "server is shutting down")
        } else {
            ServiceError::new(ErrorCode::Busy, "worker crashed mid-job; safe to retry")
        };
        self.cq.push(
            Completion { token: self.token, serial: self.serial, payload: Payload::Done(Err(err)) },
            true,
        );
    }
}

/// One queued compute job.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) deadline: Option<Instant>,
    /// The envelope's request id (pre-encoded), carried into trace
    /// events and streamed-frame rendering.
    pub(crate) id: Option<String>,
    /// When the event loop queued the job (queue-wait basis).
    pub(crate) submitted: Instant,
    /// Whether the connection negotiated v2 streaming for this op
    /// (`batch`/`sweep` emit per-trial/per-lane frames).
    pub(crate) stream: bool,
    pub(crate) completer: Completer,
}

pub(crate) enum PushError {
    Full,
    Closed,
}

/// Bounded MPMC job queue (mutex + condvar; std has no bounded channel
/// with try-push semantics).
pub(crate) struct JobQueue {
    pub(crate) capacity: usize,
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue { capacity, inner: Mutex::new((VecDeque::new(), false)), ready: Condvar::new() }
    }

    /// Non-blocking submit: full or closed queues reject immediately —
    /// that rejection *is* the backpressure signal. The job is handed
    /// back on rejection so the caller can disarm its completer.
    #[allow(clippy::result_large_err)] // rejection hands the whole Job back by design
    pub(crate) fn push(&self, job: Job) -> Result<(), (Job, PushError)> {
        let mut inner = sync::lock(&self.inner);
        if inner.1 {
            return Err((job, PushError::Closed));
        }
        if inner.0.len() >= self.capacity {
            return Err((job, PushError::Full));
        }
        inner.0.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking take; `None` once the queue is closed *and* drained, so
    /// no accepted job is ever dropped on shutdown.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = sync::lock(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = sync::wait(&self.ready, inner);
        }
    }

    pub(crate) fn close(&self) {
        sync::lock(&self.inner).1 = true;
        self.ready.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        sync::lock(&self.inner).1
    }

    pub(crate) fn depth(&self) -> usize {
        sync::lock(&self.inner).0.len()
    }

    /// Age of the oldest queued job in milliseconds (0 when empty) — the
    /// staleness signal `health` exports: a deep queue of fresh jobs is
    /// load, an old front job is a stall.
    pub(crate) fn oldest_ms(&self) -> u64 {
        sync::lock(&self.inner)
            .0
            .front()
            .map_or(0, |j| u64::try_from(j.submitted.elapsed().as_millis()).unwrap_or(u64::MAX))
    }
}

/// Spawn one worker thread. The thread keeps `alive_workers` honest and
/// reports its own death (a panic escaping [`worker_loop`]) to the
/// supervisor.
pub(crate) fn spawn_worker(
    shared: &Arc<Shared>,
    idx: usize,
    panic_tx: &mpsc::Sender<usize>,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let panic_tx = panic_tx.clone();
    std::thread::Builder::new().name(format!("sempe-worker-{idx}")).spawn(move || {
        shared.alive_workers.add(1);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(&shared)));
        shared.alive_workers.sub(1);
        if caught.is_err() {
            // The supervisor decides whether to respawn; if it is
            // already gone (drain), the send just fails.
            let _ = panic_tx.send(idx);
        }
    })
}

/// The supervisor: respawns crashed workers with exponential backoff,
/// bounded by the restart budget. Stands down once the queue is closed
/// and the pool has fully exited.
pub(crate) fn supervisor_loop(
    shared: &Arc<Shared>,
    panic_rx: &mpsc::Receiver<usize>,
    panic_tx: &mpsc::Sender<usize>,
) {
    loop {
        match panic_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(idx) => {
                if shared.queue.is_closed() {
                    continue; // draining: the pool is winding down anyway
                }
                // Claim one unit of the restart budget; the capped
                // increment never overshoots, so the restart counter
                // stays monotone and never exceeds the budget.
                let Some(nth) = shared.restarts.inc_capped(shared.restart_budget) else {
                    shared.pool_exhausted.store(true, Ordering::SeqCst);
                    continue;
                };
                // Exponential backoff, capped, interruptible by drain.
                #[allow(clippy::cast_possible_truncation)] // min() bounds the shift
                let backoff = shared
                    .backoff_base_ms
                    .saturating_mul(1 << (nth - 1).min(6) as u32)
                    .min(MAX_BACKOFF_MS);
                let until = Instant::now() + Duration::from_millis(backoff);
                while Instant::now() < until && !shared.queue.is_closed() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if shared.queue.is_closed() {
                    continue;
                }
                match spawn_worker(shared, idx, panic_tx) {
                    Ok(h) => sync::lock(&shared.worker_handles).push(h),
                    Err(_) => shared.pool_exhausted.store(true, Ordering::SeqCst),
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.queue.is_closed() && shared.alive_workers.get() == 0 {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Execute one job, converting a panic anywhere in the compile/simulate
/// stack into an `E_INTERNAL` error instead of killing the worker
/// thread: a single poisoned request must not shrink the pool until the
/// daemon wedges. The arena is rebuilt after a panic — it may have been
/// left mid-update.
///
/// Injected checkpoint panics deliberately fire *outside* this guard
/// (in [`worker_loop`]) — they model worker-thread death and must reach
/// the supervisor.
fn execute_guarded(
    job: &Job,
    arena: &mut Arena,
    forks: &ForkCache,
    span: &mut Span,
    sink: Option<&mut StreamSink<'_>>,
) -> Result<String, ServiceError> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec::execute_streamed(&job.request, arena, forks, job.deadline, span, sink)
    }));
    match caught {
        Ok(result) => result,
        Err(payload) => {
            *arena = Arena::new();
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(ServiceError::new(ErrorCode::Internal, format!("worker panicked: {what}")))
        }
    }
}

/// Fold one finished job into the registry (latency histograms, phase
/// breakdown, host attribution, error counts) and, when sampled, the
/// trace log. Runs after the response body exists; nothing here can
/// change the bytes on the wire.
fn observe_job(
    shared: &Shared,
    job: &Job,
    queue_wait: Duration,
    span: &Span,
    cached: bool,
    host: Option<HostProfile>,
    result: &Result<Arc<str>, ServiceError>,
) {
    let op = job.request.op_name();
    let total = job.submitted.elapsed();
    let reg = &shared.registry;
    reg.histogram(&format!("request_latency_us{{op=\"{op}\"}}")).observe_duration(total);
    reg.histogram("phase_latency_us{phase=\"queue_wait\"}").observe_duration(queue_wait);
    for (phase, d) in span.phases() {
        reg.histogram(&format!("phase_latency_us{{phase=\"{phase}\"}}")).observe_duration(*d);
    }
    if let Some(hp) = host {
        reg.histogram("sim_host_us{phase=\"decode\"}")
            .observe_duration(Duration::from_nanos(hp.decode_ns));
        reg.histogram("sim_host_us{phase=\"restore\"}")
            .observe_duration(Duration::from_nanos(hp.restore_ns));
        reg.histogram("sim_host_us{phase=\"run\"}")
            .observe_duration(Duration::from_nanos(hp.run_ns));
        reg.counter("sim_runs_total").add(hp.runs);
        reg.counter("sim_restores_total").add(hp.restores);
        reg.counter("sim_skipped_cycles_total").add(hp.skipped_cycles);
        reg.counter("sim_skips_total").add(hp.skips);
        reg.counter("ff_instructions_total").add(hp.ff_instructions);
        if hp.ff_instructions > 0 {
            // Tiered-run attribution: only observed when the request
            // actually fast-forwarded, so detailed-only traffic does not
            // flood the histograms with zeros.
            reg.histogram("sim_host_us{phase=\"ff\"}")
                .observe_duration(Duration::from_nanos(hp.ff_ns));
            reg.histogram("sim_host_us{phase=\"warm\"}")
                .observe_duration(Duration::from_nanos(hp.warm_ns));
        }
    }
    if let Err(e) = result {
        reg.counter(&format!("errors_total{{code=\"{}\"}}", e.code.as_str())).inc();
    }
    if let Some(trace) = sync::lock(&shared.trace).as_ref() {
        if trace.sample() {
            let mut event = Json::obj()
                .with("t_us", trace.elapsed_us())
                .with("op", op)
                .with("ok", result.is_ok())
                .with("cached", cached)
                .with("queue_us", u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX))
                .with("total_us", u64::try_from(total.as_micros()).unwrap_or(u64::MAX))
                .with("phases", span.phases_json());
            if let Some(id) = &job.id {
                // The envelope keeps the id pre-encoded for response
                // splicing; decode it back into a value for the event.
                match json::parse(id) {
                    Ok(v) => event.set("id", v),
                    Err(_) => event.set("id", id.as_str()),
                }
            }
            if let Err(e) = result {
                event.set("code", e.code.as_str());
            }
            trace.emit(&event);
        }
    }
}

/// Render one streamed progress frame: `{"id":..,"seq":N,"partial":
/// true, ...payload}`. The id comes pre-encoded from the envelope.
fn render_frame(id: Option<&str>, seq: u64, body: Json) -> String {
    let mut frame = Json::obj().with("seq", seq).with("partial", true);
    if let (Json::Obj(dst), Json::Obj(src)) = (&mut frame, body) {
        dst.extend(src);
    }
    with_id(&frame.encode(), id)
}

pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    let mut arena = Arena::new();
    while let Some(job) = shared.queue.pop() {
        let queue_wait = job.submitted.elapsed();
        // A job whose budget died in the queue is answered, not run.
        let queued_out = job.deadline.is_some_and(|d| Instant::now() >= d);
        // Fault checkpoints: both panics escape into `spawn_worker`'s
        // top-level guard, killing this thread — the job's completer
        // drop-reports a retryable error, and the supervisor respawns
        // the worker.
        let refused = if queued_out {
            Some("deadline expired while the job was queued")
        } else {
            shared.injector.checkpoint_panic(FaultSite::PanicPre);
            shared.injector.wedge(job.deadline).then_some("deadline expired in a wedged simulation")
        };
        if let Some(what) = refused {
            shared.deadlines_expired.inc();
            shared.jobs_served.inc();
            let err = ServiceError::new(ErrorCode::Deadline, what);
            observe_job(shared, &job, queue_wait, &Span::begin(), false, None, &Err(err.clone()));
            let wake = !shared.injector.fire(FaultSite::WakeLost);
            job.completer.finish(Err(err), wake);
            continue;
        }
        shared.busy_workers.add(1);
        let mut span = Span::begin();
        // Streamed jobs bypass the result cache in both directions: a
        // cache hit would suppress the progress frames the client
        // negotiated for, and re-running keeps frame sequences
        // deterministic.
        let key = if job.stream { None } else { exec::cache_key(&job.request) };
        let hit = key.as_ref().and_then(|key| shared.cache.get(key));
        let cached = hit.is_some();
        let result = match hit {
            Some(hit) => Ok(hit),
            None => {
                let mut seq: u64 = 0;
                let mut emit = |body: Json| {
                    let line = render_frame(job.id.as_deref(), seq, body);
                    seq += 1;
                    shared.stream_frames.inc();
                    let wake = !shared.injector.fire(FaultSite::WakeLost);
                    job.completer.frame(line, wake);
                };
                let mut sink = StreamSink::new(&mut emit);
                let sink = job.stream.then_some(&mut sink);
                execute_guarded(&job, &mut arena, &shared.forks, &mut span, sink).map(|body| {
                    let body: Arc<str> = Arc::from(body.as_str());
                    // An injected insert failure must only lose the
                    // caching, never the response.
                    if let Some(key) = key.filter(|_| !shared.injector.fire(FaultSite::CacheFail)) {
                        shared.cache.insert(key, Arc::clone(&body));
                    }
                    body
                })
            }
        };
        shared.busy_workers.sub(1);
        shared.jobs_served.inc();
        if matches!(&result, Err(e) if e.code == ErrorCode::Deadline) {
            shared.deadlines_expired.inc();
        }
        // Drain the arena's host-time ledger whether the job succeeded
        // or not — failed runs still spent real decode/restore/run time.
        let host = arena.take_host_profile();
        let host = (host != HostProfile::default()).then_some(host);
        observe_job(shared, &job, queue_wait, &span, cached, host, &result);
        shared.injector.checkpoint_panic(FaultSite::PanicPost);
        if shared.injector.fire(FaultSite::ArenaCorrupt) {
            // Simulated arena corruption: quarantine (drop) the arena and
            // start the next job from a fresh one.
            arena = Arena::new();
            shared.arenas_quarantined.inc();
        }
        let wake = !shared.injector.fire(FaultSite::WakeLost);
        let Job { completer, .. } = job;
        completer.finish(result, wake);
    }
}

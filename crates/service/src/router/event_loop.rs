//! The router's event loop: one thread owns the upstream listener,
//! every upstream connection, and one multiplexed v2 link per shard.
//! Upstream connections are the server's own [`Conn`] type (with router
//! job ids in the in-flight table), and each shard link is a bare
//! [`Link`], so socket reads, flushes, write faults and the per-line
//! client protocol are the code `sempe-serve` runs.
//!
//! ```text
//!  clients ──► accept ─► frame ─► parse ──► digest ─► chunk(s) ─► shard link(s)
//!                 ▲                             │                      │
//!                 │   frames: re-id, re-seq, +shard provenance ◄───────┤
//!                 │   terminals: merge chunks byte-identically ◄───────┤
//!                 │                                                    │
//!              health probes · circuit breakers · jittered retry · hedges
//! ```
//!
//! Failure policy in one paragraph: every downstream send is tracked by
//! a router-minted id (`r<job>c<chunk>-<attempt>`); a link death, probe
//! timeout, or retryable error (`E_BUSY`/`E_SHUTDOWN`/`E_INTERNAL`/
//! `E_PARSE`) requeues the chunk with jittered exponential backoff,
//! excluding the failed shard from the rendezvous pick. Frame delivery
//! is deduplicated by per-chunk index (`forward iff index ≥ delivered`)
//! — sound because shard execution is deterministic, so a retried chunk
//! replays byte-identical frames. When every chunk lands, single-chunk
//! terminals are re-id'd in place and fanned-out `batch` terminals are
//! stitched back together byte-identically to a single-shard run.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sempe_core::hash::Fnv1a;
use sempe_core::json::{self, Json, Object};
use sempe_core::telemetry::{Counter, Gauge, Histogram, Registry};

use super::merge::{self, ChunkTerminal};
use super::ring;
use super::shard::Breaker;
use super::{DialResult, RouterConfig, RouterShared};
use crate::conn::{Conn, FrameEvent, Link, Mode};
use crate::fault::FaultSite;
use crate::net::{self, Poller};
use crate::protocol::{
    op_slot, parse_deadline, parse_id, with_id, ErrorCode, MetricsFormat, Request, ServiceError,
    COMPUTE_OPS,
};
use crate::server::LOOP_TICK_MS;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;

/// An upstream client connection: the server's connection type, with
/// router job ids in its in-flight table.
type Upstream = Conn<()>;

/// Downstream link lifecycle.
#[derive(Clone, Copy)]
enum SState {
    /// Not connected; redial at `retry_at`.
    Down { retry_at: Instant },
    /// A dialer thread is connecting; give up at `deadline`.
    Dialing { deadline: Instant },
    /// Connected, waiting for the hello ack; give up at `deadline`.
    Handshaking { deadline: Instant },
    /// Speaking v2; dispatchable when also healthy and breaker-admitted.
    Ready,
}

impl SState {
    fn name(&self) -> &'static str {
        match self {
            SState::Down { .. } => "down",
            SState::Dialing { .. } => "dialing",
            SState::Handshaking { .. } => "handshaking",
            SState::Ready => "ready",
        }
    }
}

/// One downstream shard link.
struct ShardConn {
    addr: String,
    state: SState,
    /// Bumped per dial attempt; stale dialer results are discarded.
    generation: u64,
    token: Option<u64>,
    /// The socket while connected; `None` once it died or before a dial
    /// lands, so a reconnect always starts from a fresh link.
    link: Option<Link>,
    breaker: Breaker,
    /// Router-minted send id → (job, chunk index).
    inflight: HashMap<String, (u64, usize)>,
    /// Outstanding health probe: (send id, reply deadline).
    probe: Option<(String, Instant)>,
    next_probe_at: Instant,
    /// Last probe said `ready:true` (false while draining or unprobed).
    healthy: bool,
    queue_depth: u64,
}

/// One active send of a chunk to a shard (a retry or hedge makes a new
/// one; `seen` counts the frames received on *this* send).
struct SendRec {
    shard: usize,
    sid: String,
    sent_at: Instant,
    last_progress: Instant,
    seen: u64,
}

/// One dispatchable unit of upstream work: a whole request, or one
/// slice of a fanned-out `batch`.
struct Chunk {
    /// Request line with the upstream id stripped (inputs sliced for a
    /// fan-out chunk); a send prepends the router-minted id.
    body: String,
    offset: u64,
    attempt: u32,
    /// Frames forwarded upstream so far — the dedup high-water mark.
    delivered: u64,
    hedged: bool,
    /// Excluded from the next rendezvous pick after a failure.
    last_shard: Option<usize>,
    queued_since: Instant,
    not_before: Instant,
    sends: Vec<SendRec>,
    terminal: Option<String>,
    /// The terminal's `ok` member, read when it landed.
    ok: bool,
}

impl Chunk {
    fn new(body: String, offset: u64, now: Instant) -> Chunk {
        Chunk {
            body,
            offset,
            attempt: 0,
            delivered: 0,
            hedged: false,
            last_shard: None,
            queued_since: now,
            not_before: now,
            sends: Vec::new(),
            terminal: None,
            ok: false,
        }
    }
}

/// One upstream request in flight through the shard tier.
struct RJob {
    upstream: u64,
    /// Pre-encoded upstream id (`None` on a v1 connection).
    id: Option<String>,
    op: &'static str,
    /// Forward streamed frames upstream (v2 client, `batch`/`sweep`)?
    stream_frames: bool,
    /// Hedgeable: light, non-streaming work (`compile`/`run`/`attack`).
    hedgeable: bool,
    digest: u64,
    /// Next upstream frame `seq` for the merged stream.
    seq: u64,
    started: Instant,
    chunks: Vec<Chunk>,
    remaining: usize,
    total_items: u64,
}

/// Pre-resolved metric handles: the hot path must not pay a
/// `format!` + name-table lookup per request. Per-op arrays are in
/// [`COMPUTE_OPS`] order.
struct Metrics {
    req: [Arc<Counter>; COMPUTE_OPS.len()],
    /// `router_requests_total` of the inline ops, each resolved on its
    /// first request (so none is listed before it counts).
    inline_req: Vec<(&'static str, Arc<Counter>)>,
    lat: [Arc<Histogram>; COMPUTE_OPS.len()],
    shard_latency: Vec<Arc<Histogram>>,
    retries: Arc<Counter>,
    hedges: Arc<Counter>,
    frames_merged: Arc<Counter>,
    shed: Arc<Counter>,
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    shards_healthy: Arc<Gauge>,
    phase_write: Arc<Histogram>,
}

impl Metrics {
    fn new(registry: &Registry, shards: usize) -> Metrics {
        Metrics {
            req: COMPUTE_OPS
                .map(|op| registry.counter(&format!("router_requests_total{{op=\"{op}\"}}"))),
            inline_req: Vec::new(),
            lat: COMPUTE_OPS
                .map(|op| registry.histogram(&format!("router_request_latency_us{{op=\"{op}\"}}"))),
            shard_latency: (0..shards)
                .map(|i| registry.histogram(&format!("router_shard_latency_us{{shard=\"{i}\"}}")))
                .collect(),
            retries: registry.counter("router_retries_total"),
            hedges: registry.counter("router_hedges_total"),
            frames_merged: registry.counter("router_frames_merged_total"),
            shed: registry.counter("router_shed_total"),
            connections_total: registry.counter("router_connections_total"),
            connections_open: registry.gauge("router_connections_open"),
            shards_healthy: registry.gauge("router_shards_healthy"),
            phase_write: registry.histogram("phase_latency_us{phase=\"write\"}"),
        }
    }

    /// `router_requests_total{op}`, without a name lookup after an op's
    /// first request.
    fn requests(&mut self, registry: &Registry, op: &'static str) -> &Counter {
        if let Some(slot) = op_slot(op) {
            return &self.req[slot];
        }
        let at = match self.inline_req.iter().position(|(o, _)| *o == op) {
            Some(at) => at,
            None => {
                let counter = registry.counter(&format!("router_requests_total{{op=\"{op}\"}}"));
                self.inline_req.push((op, counter));
                self.inline_req.len() - 1
            }
        };
        &self.inline_req[at].1
    }
}

struct RouterLoop {
    shared: Arc<RouterShared>,
    cfg: RouterConfig,
    salts: Vec<u64>,
    ups: HashMap<u64, Upstream>,
    shards: Vec<ShardConn>,
    jobs: HashMap<u64, RJob>,
    /// Chunks awaiting dispatch now — the loop never scans the whole
    /// job table per pass.
    ready: VecDeque<(u64, usize)>,
    /// Chunks waiting out a backoff or a shard recovery; promoted back
    /// to `ready` on the sweep tick.
    delayed: Vec<(u64, usize)>,
    next_sweep_at: Instant,
    metrics: Metrics,
    next_token: u64,
    next_job: u64,
    probe_seq: u64,
    /// Counter-based jitter state (never the wall clock, so chaos runs
    /// replay deterministically).
    rng: u64,
    started: Instant,
}

/// Run the router event loop until clean shutdown.
pub(crate) fn run(
    shared: &Arc<RouterShared>,
    poller: &Poller,
    config: &RouterConfig,
) -> io::Result<()> {
    poller.add_readable(shared.listener.as_raw_fd(), TOKEN_LISTENER)?;
    poller.add_readable(shared.waker.read_half().as_raw_fd(), TOKEN_WAKER)?;
    let now = Instant::now();
    let shards: Vec<ShardConn> = config
        .shards
        .iter()
        .map(|addr| ShardConn {
            addr: addr.clone(),
            state: SState::Down { retry_at: now },
            generation: 0,
            token: None,
            link: None,
            breaker: Breaker::new(
                config.breaker_threshold,
                Duration::from_millis(config.breaker_cooloff_ms),
                Duration::from_millis(config.breaker_max_cooloff_ms),
            ),
            inflight: HashMap::new(),
            probe: None,
            next_probe_at: now,
            healthy: false,
            queue_depth: 0,
        })
        .collect();
    let mut lp = RouterLoop {
        metrics: Metrics::new(&shared.registry, config.shards.len()),
        shared: Arc::clone(shared),
        cfg: config.clone(),
        salts: config.shards.iter().map(|a| ring::shard_salt(a)).collect(),
        ups: HashMap::new(),
        shards,
        jobs: HashMap::new(),
        ready: VecDeque::new(),
        delayed: Vec::new(),
        next_sweep_at: now,
        next_token: 2,
        next_job: 0,
        probe_seq: 0,
        rng: config.seed,
        started: now,
    };
    lp.run(poller)
}

impl RouterLoop {
    fn run(&mut self, poller: &Poller) -> io::Result<()> {
        let mut events = Vec::new();
        let mut force_close_at: Option<Instant> = None;
        loop {
            events.clear();
            poller.wait(&mut events, LOOP_TICK_MS)?;
            let now = Instant::now();
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            let mut shard_lines: Vec<(usize, String)> = Vec::new();
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => {
                        if !draining {
                            self.accept_burst(poller, now);
                        }
                    }
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => {
                        if let Some(idx) = self.shards.iter().position(|s| s.token == Some(token)) {
                            self.read_shard(idx, ev, now, &mut shard_lines);
                        } else if let Some(u) = self.ups.get_mut(&token) {
                            u.on_event(ev, now);
                        }
                    }
                }
            }
            self.drain_dials(poller, now);
            for (idx, line) in shard_lines {
                self.handle_shard_line(idx, &line, now);
            }
            // Shard links that hit EOF/read errors are torn down after
            // their buffered lines were handled — a dying shard's last
            // terminals still count.
            for idx in 0..self.shards.len() {
                if matches!(self.shards[idx].state, SState::Ready | SState::Handshaking { .. })
                    && self.shards[idx].link.is_none()
                {
                    self.shard_failed(poller, idx, now);
                }
            }
            let tokens: Vec<u64> = self.ups.keys().copied().collect();
            for token in tokens {
                self.process_pending(token, now);
            }
            // Timer work (probes, stalls, hedges, backoff promotion) has
            // ≥ tens-of-ms granularity; running it on a tick instead of
            // every pass keeps the per-request path free of full-table
            // scans.
            if now >= self.next_sweep_at {
                self.next_sweep_at = now + Duration::from_millis(20);
                self.promote_delayed(now);
                self.sweep(poller, now);
                let healthy = self.available(now).len();
                self.metrics.shards_healthy.set(healthy as u64);
            }
            self.dispatch(now);
            for u in self.ups.values_mut() {
                u.flush(now, &self.metrics.phase_write);
            }
            self.flush_shards(poller, now);
            self.reap_upstreams(poller);
            // Drain endgame: no new connections, inflight work finishes,
            // then force-close stragglers. Shards are left running.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let force = *force_close_at.get_or_insert(now + self.cfg.drain_timeout());
                if (self.ups.is_empty() && self.jobs.is_empty()) || now >= force {
                    break;
                }
            }
        }
        for s in &mut self.shards {
            if let Some(link) = s.link.take() {
                link.close(poller);
            }
        }
        Ok(())
    }

    /// Counter-based jitter in `[base, 2*base)`.
    fn jitter(&mut self, base: Duration) -> Duration {
        self.rng = self.rng.wrapping_add(1);
        let roll = ring::mix(self.rng);
        let ms = base.as_millis() as u64;
        base + Duration::from_millis(if ms == 0 { 0 } else { roll % ms })
    }

    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.cfg.retry_base_ms << attempt.min(4);
        self.jitter(Duration::from_millis(base))
    }

    /// Shards eligible for new work right now.
    fn available(&mut self, now: Instant) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| {
                let s = &mut self.shards[i];
                matches!(s.state, SState::Ready) && s.healthy && s.breaker.admits(now)
            })
            .collect()
    }

    /// How long an upstream should wait before retrying when every
    /// shard is unavailable — the `retry_after_ms` hint. The soonest
    /// shard-recovery ETA (redial or breaker reopening), clamped.
    fn retry_hint_ms(&self, now: Instant) -> u64 {
        let eta_ms = self
            .shards
            .iter()
            .filter_map(|s| match s.state {
                SState::Down { retry_at } => Some(retry_at),
                _ => s.breaker.open_until(),
            })
            .map(|at| at.saturating_duration_since(now).as_millis() as u64)
            .min();
        eta_ms
            .unwrap_or(self.cfg.retry_base_ms.saturating_mul(4))
            .clamp(self.cfg.retry_base_ms, 10_000)
    }

    // ---------------------------------------------------------------- upstream

    fn accept_burst(&mut self, poller: &Poller, now: Instant) {
        net::accept_burst(&self.shared.listener, &self.shared.injector, |stream| {
            self.metrics.connections_total.inc();
            if self.shared.injector.fire(FaultSite::RegisterFail) {
                // The server panics here to exercise supervision; the
                // router sheds the connection instead — its loop has no
                // respawn wrapper to catch a panic.
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            let token = self.next_token;
            self.next_token += 1;
            if poller.add(stream.as_raw_fd(), token).is_ok() {
                self.metrics.connections_open.add(1);
                self.ups.insert(token, Upstream::new(stream, now));
            }
        });
    }

    fn process_pending(&mut self, token: u64, now: Instant) {
        loop {
            let Some(u) = self.ups.get_mut(&token) else { return };
            let Some(line) = u.next_line(&self.shared.injector, now) else { return };
            self.handle_upstream_line(token, &line, now);
        }
    }

    /// Queue a line on one upstream connection, if it is still around.
    fn reply(&mut self, token: u64, line: &str, now: Instant) {
        if let Some(u) = self.ups.get_mut(&token) {
            u.send(&self.shared.injector, line, now);
        }
    }

    /// Read one upstream line once with [`json::object`]. A compute op
    /// goes to [`RouterLoop::admit`]; an inline op, and any line the
    /// reader rejects, goes to [`Conn::admit`], which answers exactly as
    /// a direct server does.
    fn handle_upstream_line(&mut self, token: u64, line: &str, now: Instant) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        if let Ok(request) = json::object(trimmed) {
            let mut op = String::new();
            request.str_with("type", |piece| op.push_str(piece));
            if let Some(slot) = op_slot(&op) {
                self.admit(token, trimmed, &request, slot, now);
                return;
            }
        }
        let Some(u) = self.ups.get_mut(&token) else { return };
        let Some((request, id, _)) = u.admit(&self.shared.injector, trimmed, now) else { return };
        self.metrics.requests(&self.shared.registry, request.op_name()).inc();
        let body = match request {
            Request::Hello { proto } => {
                let Some(u) = self.ups.get_mut(&token) else { return };
                u.hello(proto)
            }
            Request::Stats => self.stats_line(now),
            Request::Health => self.health_line(now),
            Request::Metrics { format } => {
                self.shared.registry.gauge("router_jobs_inflight").set(self.jobs.len() as u64);
                self.shared
                    .registry
                    .gauge("uptime_ms")
                    .set(u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX));
                let base = Json::obj().with("ok", true).with("type", "metrics");
                match format {
                    MetricsFormat::Json => base
                        .with("format", "json")
                        .with("metrics", self.shared.registry.snapshot())
                        .encode(),
                    MetricsFormat::Prometheus => base
                        .with("format", "prometheus")
                        .with("text", self.shared.registry.render_prometheus())
                        .encode(),
                }
            }
            Request::Shutdown => {
                let body = Json::obj().with("ok", true).with("type", "shutdown").encode();
                self.reply(token, &with_id(&body, id.as_deref()), now);
                if let Some(u) = self.ups.get_mut(&token) {
                    u.link.close_after_flush = true;
                }
                self.shared.initiate_shutdown();
                return;
            }
            // Compute ops never get here: `json::object` reads every
            // line `Envelope::parse` does, and each went to `admit`.
            _ => return,
        };
        self.reply(token, &with_id(&body, id.as_deref()), now);
    }

    /// Admit one compute request (`request` is `line` read, its op
    /// `COMPUTE_OPS[slot]`) as a router job: apply the direct server's
    /// id rules, shed at `max_inflight`, digest `source`, fan a large
    /// `batch` across the available shards, and queue the chunk(s) for
    /// dispatch. Every other check of the body is the shard's: a request
    /// it refuses comes back as the error line a direct server sends.
    fn admit(&mut self, token: u64, line: &str, request: &Object<'_>, slot: usize, now: Instant) {
        let op = COMPUTE_OPS[slot];
        // The id span was validated with the line, so it parses.
        let id = parse_id(request.raw("id").and_then(|raw| json::parse(raw).ok()).as_ref());
        let Some(u) = self.ups.get_mut(&token) else { return };
        let id = match id {
            Ok(id) => id,
            Err(e) => {
                u.send(&self.shared.injector, &e.to_json(), now);
                return;
            }
        };
        if let Some(refusal) = u.check_id(id.as_deref()) {
            u.send(&self.shared.injector, &refusal, now);
            return;
        }
        let mode = u.mode;
        self.metrics.req[slot].inc();
        if self.jobs.len() >= self.cfg.max_inflight {
            self.metrics.shed.inc();
            let hint = self.retry_hint_ms(now);
            let body = busy_line(
                &format!("router at max inflight ({}); retry later", self.cfg.max_inflight),
                hint,
            );
            self.reply(token, &with_id(&body, id.as_deref()), now);
            return;
        }
        // Digest streamed over the decoded source, so every request for
        // one program lands on one shard.
        let mut source = Fnv1a::new();
        request.str_with("source", |piece| source.write(piece.as_bytes()));
        let total_items = if op == "batch" { request.array_len("inputs").unwrap_or(0) } else { 0 };
        let available = self.available(now).len();
        let mut chunks = None;
        if op == "batch" && total_items >= self.cfg.batch_fanout_min && available >= 2 {
            // Fan-out slices `inputs`: the one step that needs a tree. The
            // request is checked first, as a direct server would check it,
            // because `split_batch` trusts its shape.
            let Ok(tree) = json::parse(line) else { return };
            if let Err(e) = parse_deadline(&tree).and_then(|_| Request::from_json(&tree)) {
                self.reply(token, &with_id(&e.to_json(), id.as_deref()), now);
                return;
            }
            let leak_check = tree.get("leak_check").and_then(Json::as_bool) == Some(true);
            chunks = merge::split_batch(&tree, available, leak_check).map(|parts| {
                parts.into_iter().map(|(body, offset, _)| Chunk::new(body, offset, now)).collect()
            });
        }
        let chunks: Vec<Chunk> =
            chunks.unwrap_or_else(|| vec![Chunk::new(request.without("id"), 0, now)]);
        let job_id = self.next_job;
        self.next_job += 1;
        self.ready.extend((0..chunks.len()).map(|ci| (job_id, ci)));
        let job = RJob {
            upstream: token,
            id,
            op,
            stream_frames: mode == Mode::V2 && matches!(op, "batch" | "sweep"),
            hedgeable: matches!(op, "compile" | "run" | "attack"),
            digest: source.finish(),
            seq: 0,
            started: now,
            remaining: chunks.len(),
            chunks,
            total_items: total_items as u64,
        };
        self.jobs.insert(job_id, job);
        if let Some(u) = self.ups.get_mut(&token) {
            u.inflight.insert(job_id, ());
        }
    }

    // ---------------------------------------------------------------- dispatch

    /// Move delayed chunks whose backoff has elapsed back into the
    /// ready queue (sweep-tick cadence).
    fn promote_delayed(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.delayed.len() {
            let (job_id, ci) = self.delayed[i];
            let due = match self.jobs.get(&job_id) {
                // Jobs that finished or failed leave stale entries;
                // drop them by "promoting" into the skip path below.
                None => true,
                Some(job) => job.chunks.get(ci).is_none_or(|c| now >= c.not_before),
            };
            if due {
                self.delayed.swap_remove(i);
                self.ready.push_back((job_id, ci));
            } else {
                i += 1;
            }
        }
    }

    /// Send every due queued chunk to the best eligible shard. Fan-out
    /// chunks rotate through the rendezvous ranking so a fanned `batch`
    /// actually spreads; single chunks take the pure rendezvous winner.
    fn dispatch(&mut self, now: Instant) {
        if self.ready.is_empty() {
            return;
        }
        let available = self.available(now);
        if available.is_empty() {
            // Nothing can take work; park everything for the sweep tick.
            self.delayed.extend(self.ready.drain(..));
            return;
        }
        while let Some((job_id, ci)) = self.ready.pop_front() {
            let target = {
                let Some(job) = self.jobs.get(&job_id) else { continue };
                let Some(chunk) = job.chunks.get(ci) else { continue };
                if chunk.terminal.is_some() || !chunk.sends.is_empty() {
                    continue;
                }
                if now < chunk.not_before {
                    self.delayed.push((job_id, ci));
                    continue;
                }
                if job.chunks.len() > 1 {
                    let ranked = ring::rank(job.digest, &self.salts, &available);
                    let n = ranked.len();
                    (0..n)
                        .map(|k| ranked[(ci + k) % n])
                        .find(|&s| Some(s) != chunk.last_shard)
                        .or_else(|| ranked.first().copied())
                } else {
                    ring::pick(job.digest, &self.salts, &available, chunk.last_shard)
                }
            };
            match target {
                Some(shard) => self.send_chunk(job_id, ci, shard, now),
                None => self.delayed.push((job_id, ci)),
            }
        }
    }

    fn send_chunk(&mut self, job_id: u64, ci: usize, shard: usize, now: Instant) {
        let Some(job) = self.jobs.get_mut(&job_id) else { return };
        let chunk = &mut job.chunks[ci];
        let sid = format!("r{job_id}c{ci}-{}", chunk.attempt);
        let line = with_id(&chunk.body, Some(&json::escape(&sid)));
        chunk.sends.push(SendRec {
            shard,
            sid: sid.clone(),
            sent_at: now,
            last_progress: now,
            seen: 0,
        });
        self.shards[shard].inflight.insert(sid, (job_id, ci));
        self.send_shard(shard, &line, now);
    }

    /// A chunk's active send failed: clear its sends and requeue it with
    /// backoff, or fail the whole job once attempts are exhausted.
    fn retry_chunk(&mut self, job_id: u64, ci: usize, failed_shard: usize, now: Instant) {
        let Some(job) = self.jobs.get_mut(&job_id) else { return };
        let chunk = &mut job.chunks[ci];
        if chunk.terminal.is_some() {
            return;
        }
        let stale: Vec<(usize, String)> = chunk.sends.drain(..).map(|s| (s.shard, s.sid)).collect();
        chunk.attempt += 1;
        chunk.last_shard = Some(failed_shard);
        let attempt = chunk.attempt;
        let exhausted = attempt >= self.cfg.max_attempts;
        for (shard, sid) in stale {
            self.shards[shard].inflight.remove(&sid);
        }
        if exhausted {
            let hint = self.retry_hint_ms(now);
            self.fail_job(job_id, &busy_line("shard retries exhausted; retry later", hint), now);
            return;
        }
        self.metrics.retries.inc();
        let delay = self.backoff(attempt);
        if let Some(job) = self.jobs.get_mut(&job_id) {
            job.chunks[ci].not_before = now + delay;
            self.delayed.push((job_id, ci));
        }
    }

    /// Answer the upstream with `body` and drop the job (all of its
    /// outstanding sends become stale and are cleaned lazily).
    fn fail_job(&mut self, job_id: u64, body: &str, now: Instant) {
        let Some(job) = self.jobs.remove(&job_id) else { return };
        for chunk in &job.chunks {
            for s in &chunk.sends {
                self.shards[s.shard].inflight.remove(&s.sid);
            }
        }
        if let Some(u) = self.ups.get_mut(&job.upstream) {
            u.inflight.remove(&job_id);
            u.send(&self.shared.injector, &with_id(body, job.id.as_deref()), now);
        }
    }

    /// Every chunk has its terminal: stitch and deliver.
    fn finalize_job(&mut self, job_id: u64, now: Instant) {
        let Some(job) = self.jobs.remove(&job_id) else { return };
        let out = if job.chunks.len() == 1 {
            let line = job.chunks[0].terminal.as_deref().unwrap_or("");
            merge::rewrite_terminal(line, job.id.as_deref())
        } else if let Some(err) =
            job.chunks.iter().find(|c| !c.ok).and_then(|c| c.terminal.as_deref())
        {
            // One chunk failed non-retryably (bad program, sim error):
            // every chunk of the same program fails identically, so the
            // first error terminal is the whole batch's answer.
            merge::rewrite_terminal(err, job.id.as_deref())
        } else {
            let mut terms: Vec<ChunkTerminal<'_>> = job
                .chunks
                .iter()
                .filter_map(|c| {
                    c.terminal.as_deref().map(|line| ChunkTerminal { line, offset: c.offset })
                })
                .collect();
            terms.sort_by_key(|t| t.offset);
            merge::merge_batch_terminals(&terms, job.total_items, job.id.as_deref())
        };
        let body = out.unwrap_or_else(|| {
            let e = ServiceError::new(ErrorCode::Internal, "router failed to merge shard replies");
            with_id(&e.to_json(), job.id.as_deref())
        });
        if let Some(slot) = op_slot(job.op) {
            self.metrics.lat[slot].observe_duration(now.duration_since(job.started));
        }
        if let Some(u) = self.ups.get_mut(&job.upstream) {
            u.inflight.remove(&job_id);
            u.send(&self.shared.injector, &body, now);
        }
    }

    // ---------------------------------------------------------------- shard replies

    fn handle_shard_line(&mut self, idx: usize, line: &str, now: Instant) {
        match self.shards[idx].state {
            SState::Handshaking { .. } => {
                let ok = json::object(line).is_ok_and(|reply| {
                    reply.raw("ok") == Some("true")
                        && reply.raw("type").and_then(unquoted) == Some("hello")
                });
                let s = &mut self.shards[idx];
                if ok {
                    s.state = SState::Ready;
                    s.healthy = false;
                    s.next_probe_at = now; // probe immediately to go healthy
                } else {
                    // Wrong protocol or an error ack: drop the link; the
                    // sweep tears it down and schedules a redial.
                    s.link = None;
                }
            }
            SState::Ready => {
                // Read only the envelope members the router acts on; the
                // router mints every id, so none carries an escape.
                let Ok(reply) = json::object(line) else { return };
                let Some(sid) = reply.raw("id").and_then(unquoted) else { return };
                if self.shards[idx].probe.as_ref().is_some_and(|(pid, _)| pid == sid) {
                    self.handle_probe_reply(idx, &reply, now);
                    return;
                }
                let Some(&key) = self.shards[idx].inflight.get(sid) else { return };
                if reply.raw("partial") == Some("true") {
                    self.handle_frame(idx, sid, key, line, now);
                } else {
                    let ok = reply.raw("ok") == Some("true");
                    let code = reply.raw("code").and_then(unquoted).unwrap_or("");
                    self.shards[idx].inflight.remove(sid);
                    self.handle_terminal(idx, sid, key, line, ok, code, now);
                }
            }
            _ => {}
        }
    }

    fn handle_probe_reply(&mut self, idx: usize, reply: &Object<'_>, now: Instant) {
        let ok = reply.raw("ok") == Some("true");
        let ready = reply.raw("ready") == Some("true");
        let depth = reply
            .raw("queue")
            .and_then(|queue| json::object(queue).ok()?.raw("depth")?.parse().ok())
            .unwrap_or(0);
        let s = &mut self.shards[idx];
        s.probe = None;
        s.next_probe_at = now + self.cfg.probe_interval();
        s.queue_depth = depth;
        // `ready:false` means the shard is draining or its pool died —
        // the link is fine (no breaker event) but no new work goes there,
        // which is exactly the two-phase-drain rebalance.
        s.healthy = ok && ready;
        if ok {
            s.breaker.on_success();
        } else {
            s.breaker.on_failure(now);
        }
    }

    fn handle_frame(&mut self, idx: usize, sid: &str, key: (u64, usize), line: &str, now: Instant) {
        let (job_id, ci) = key;
        let Some(job) = self.jobs.get_mut(&job_id) else {
            self.shards[idx].inflight.remove(sid);
            return;
        };
        let upstream = job.upstream;
        let stream_frames = job.stream_frames;
        let jid = job.id.clone();
        let seq = job.seq;
        let chunk = &mut job.chunks[ci];
        if chunk.terminal.is_some() {
            return;
        }
        let Some(send) = chunk.sends.iter_mut().find(|s| s.sid == sid) else { return };
        send.last_progress = now;
        let index = send.seen;
        send.seen += 1;
        // Dedup across retries/hedges: every send of this deterministic
        // chunk replays the same frames, so only the first delivery of
        // each index goes upstream.
        if index < chunk.delivered {
            return;
        }
        chunk.delivered = index + 1;
        if !stream_frames {
            return;
        }
        let offset = chunk.offset;
        let Some(out) = merge::rewrite_frame(line, jid.as_deref(), seq, offset, idx) else {
            return;
        };
        job.seq += 1;
        self.metrics.frames_merged.inc();
        self.reply(upstream, &out, now);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_terminal(
        &mut self,
        idx: usize,
        sid: &str,
        key: (u64, usize),
        line: &str,
        ok: bool,
        code: &str,
        now: Instant,
    ) {
        let (job_id, ci) = key;
        // E_BUSY is backpressure, E_SHUTDOWN a drain, E_INTERNAL/E_PARSE
        // shard-side faults: all four mean "another shard can serve
        // this". Deterministic request-level errors (bad program, sim
        // failure, deadline) are the real answer and are forwarded.
        let retryable = !ok && matches!(code, "E_BUSY" | "E_SHUTDOWN" | "E_INTERNAL" | "E_PARSE");
        enum Verdict {
            Ignore,
            Retry,
            Accept { sent_at: Instant, stale: Vec<(usize, String)>, done: bool },
        }
        let verdict = {
            let Some(job) = self.jobs.get_mut(&job_id) else { return };
            let chunk = &mut job.chunks[ci];
            let Some(pos) = chunk.sends.iter().position(|s| s.sid == sid) else { return };
            if chunk.terminal.is_some() {
                // Hedge loser: the other send already answered.
                chunk.sends.remove(pos);
                Verdict::Ignore
            } else if retryable {
                Verdict::Retry
            } else {
                let sent_at = chunk.sends[pos].sent_at;
                let stale: Vec<(usize, String)> =
                    chunk.sends.drain(..).map(|s| (s.shard, s.sid)).collect();
                chunk.terminal = Some(line.to_string());
                chunk.ok = ok;
                job.remaining -= 1;
                Verdict::Accept { sent_at, stale, done: job.remaining == 0 }
            }
        };
        match verdict {
            Verdict::Ignore => {}
            Verdict::Retry => {
                // Only shard-side faults count against the breaker.
                if matches!(code, "E_INTERNAL" | "E_PARSE") {
                    self.shards[idx].breaker.on_failure(now);
                }
                if code == "E_SHUTDOWN" {
                    self.shards[idx].healthy = false;
                }
                self.retry_chunk(job_id, ci, idx, now);
            }
            Verdict::Accept { sent_at, stale, done } => {
                self.shards[idx].breaker.on_success();
                self.metrics.shard_latency[idx].observe_duration(now.duration_since(sent_at));
                for (shard, other) in stale {
                    if other != sid {
                        self.shards[shard].inflight.remove(&other);
                    }
                }
                if done {
                    self.finalize_job(job_id, now);
                }
            }
        }
    }

    // ---------------------------------------------------------------- links

    fn drain_dials(&mut self, poller: &Poller, now: Instant) {
        let mut done = Vec::new();
        {
            let mut mailbox =
                self.shared.dials.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::swap(&mut done, &mut *mailbox);
        }
        for DialResult { shard: idx, generation, result } in done {
            let stale = {
                let s = &self.shards[idx];
                generation != s.generation || !matches!(s.state, SState::Dialing { .. })
            };
            if stale {
                continue; // a newer attempt owns the link now
            }
            match result {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.shard_failed(poller, idx, now);
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if poller.add(stream.as_raw_fd(), token).is_err() {
                        self.shard_failed(poller, idx, now);
                        continue;
                    }
                    let deadline = now + self.cfg.probe_timeout();
                    let s = &mut self.shards[idx];
                    s.token = Some(token);
                    s.link = Some(Link::new(stream, now));
                    s.state = SState::Handshaking { deadline };
                    self.send_shard(idx, "{\"id\":\"h0\",\"type\":\"hello\",\"proto\":2}", now);
                }
                Err(_) => self.shard_failed(poller, idx, now),
            }
        }
    }

    fn start_dial(&mut self, idx: usize, now: Instant) {
        let timeout = self.cfg.connect_timeout();
        let s = &mut self.shards[idx];
        s.generation += 1;
        s.state = SState::Dialing { deadline: now + timeout + Duration::from_millis(250) };
        let generation = s.generation;
        let addr = s.addr.clone();
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("router-dial-{idx}"))
            .spawn(move || {
                let result = net::dial(&addr, Some(timeout));
                {
                    let mut mailbox =
                        shared.dials.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    mailbox.push(DialResult { shard: idx, generation, result });
                }
                shared.waker.wake();
            })
            .is_ok();
        if !spawned {
            let retry_at = now + self.jitter(Duration::from_millis(self.cfg.retry_base_ms * 4));
            self.shards[idx].state = SState::Down { retry_at };
        }
    }

    /// A shard link died (dial failure, EOF, probe timeout, truncated
    /// write): count it against the breaker, requeue everything it was
    /// serving, and schedule a redial.
    fn shard_failed(&mut self, poller: &Poller, idx: usize, now: Instant) {
        let retry_at = now + self.jitter(Duration::from_millis(self.cfg.retry_base_ms));
        let orphans: Vec<(u64, usize, String)> = {
            let s = &mut self.shards[idx];
            s.breaker.on_failure(now);
            s.generation += 1; // invalidate any in-flight dial
            if let Some(link) = s.link.take() {
                link.close(poller);
            }
            s.token = None;
            s.probe = None;
            s.healthy = false;
            s.state = SState::Down { retry_at };
            s.inflight.drain().map(|(sid, (job, ci))| (job, ci, sid)).collect()
        };
        for (job_id, ci, sid) in orphans {
            let still_wanted = self.jobs.get_mut(&job_id).is_some_and(|job| {
                let chunk = &mut job.chunks[ci];
                chunk.sends.retain(|s| s.sid != sid);
                chunk.terminal.is_none() && chunk.sends.is_empty()
            });
            if still_wanted {
                self.retry_chunk(job_id, ci, idx, now);
            }
        }
    }

    // ---------------------------------------------------------------- timers

    fn sweep(&mut self, poller: &Poller, now: Instant) {
        // Shard link lifecycle: redial downed links, time out dials,
        // handshakes, probes, and stuck writes.
        for idx in 0..self.shards.len() {
            let action = match self.shards[idx].state {
                SState::Down { retry_at } if now >= retry_at => 1,
                SState::Dialing { deadline } if now >= deadline => 2,
                SState::Handshaking { deadline } if now >= deadline => 2,
                SState::Ready => {
                    let s = &self.shards[idx];
                    // Wedged: no probe reply inside the window, or a
                    // write stuck past the frame timeout.
                    if s.probe.as_ref().is_some_and(|(_, deadline)| now >= *deadline)
                        || s.link
                            .as_ref()
                            .is_some_and(|l| l.write_stuck(now, self.cfg.frame_timeout()))
                    {
                        2
                    } else if s.probe.is_none() && now >= s.next_probe_at {
                        3
                    } else {
                        0
                    }
                }
                _ => 0,
            };
            match action {
                1 => self.start_dial(idx, now),
                2 => self.shard_failed(poller, idx, now),
                3 => {
                    self.probe_seq += 1;
                    let sid = format!("hp{}", self.probe_seq);
                    let line = format!("{{\"id\":{},\"type\":\"health\"}}", json::escape(&sid));
                    let deadline = now + self.cfg.probe_timeout();
                    self.shards[idx].probe = Some((sid, deadline));
                    self.send_shard(idx, &line, now);
                }
                _ => {}
            }
        }
        // Inflight sends with no progress inside the request window get
        // retried elsewhere; hedgeable work that is merely slow gets a
        // second send to the next-best shard (first terminal wins).
        let mut stalled: Vec<(u64, usize, usize)> = Vec::new();
        let mut hedges: Vec<(u64, usize, usize)> = Vec::new();
        let available = self.available(now);
        for (&job_id, job) in &self.jobs {
            for (ci, chunk) in job.chunks.iter().enumerate() {
                if chunk.terminal.is_some() {
                    continue;
                }
                if chunk.sends.is_empty() {
                    // Queued: fail upstream once no shard has taken it
                    // for the whole request window.
                    if now.duration_since(chunk.queued_since) >= self.cfg.request_timeout() {
                        stalled.push((job_id, ci, usize::MAX));
                    }
                    continue;
                }
                let freshest = chunk.sends.iter().map(|s| s.last_progress).max().unwrap_or(now);
                if now.duration_since(freshest) >= self.cfg.request_timeout() {
                    stalled.push((job_id, ci, chunk.sends[0].shard));
                    continue;
                }
                if job.hedgeable && !chunk.hedged && chunk.sends.len() == 1 {
                    let oldest = chunk.sends[0].sent_at;
                    if now.duration_since(oldest) >= self.cfg.hedge_after() {
                        let current = chunk.sends[0].shard;
                        let next = ring::rank(job.digest, &self.salts, &available)
                            .into_iter()
                            .find(|&s| s != current);
                        if let Some(target) = next {
                            hedges.push((job_id, ci, target));
                        }
                    }
                }
            }
        }
        for (job_id, ci, shard) in stalled {
            if shard == usize::MAX {
                let hint = self.retry_hint_ms(now);
                self.fail_job(
                    job_id,
                    &busy_line("no shard available within the request window", hint),
                    now,
                );
            } else {
                self.retry_chunk(job_id, ci, shard, now);
            }
        }
        for (job_id, ci, target) in hedges {
            let Some(job) = self.jobs.get_mut(&job_id) else { continue };
            let chunk = &mut job.chunks[ci];
            chunk.hedged = true;
            chunk.attempt += 1;
            self.metrics.hedges.inc();
            self.send_chunk(job_id, ci, target, now);
        }
        // Upstream timers: frame stalls, stuck writes, idle reaping.
        let (frame_timeout, idle_timeout) = (self.cfg.frame_timeout(), self.cfg.idle_timeout());
        for u in self.ups.values_mut() {
            u.sweep_timers(&self.shared.injector, now, frame_timeout, idle_timeout);
        }
    }

    // ---------------------------------------------------------------- flush / reap

    /// Drain a shard socket; its complete lines are collected for
    /// handling after the event sweep. EOF or a read error drops the
    /// link, which the main loop turns into a `shard_failed` teardown
    /// only after the buffered lines (a dying shard's last terminals)
    /// were handled.
    fn read_shard(
        &mut self,
        idx: usize,
        ev: &net::Event,
        now: Instant,
        out: &mut Vec<(usize, String)>,
    ) {
        let s = &mut self.shards[idx];
        let Some(link) = &mut s.link else { return };
        let mut frames = Vec::new();
        if !link.on_event(ev, now, &mut frames) {
            s.link = None; // dropping the link closes its socket
        }
        out.extend(frames.into_iter().filter_map(|frame| match frame {
            FrameEvent::Line(line) => Some((idx, line)),
            FrameEvent::TooLong { .. } => None,
        }));
    }

    /// Queue a downstream request line. The write faults apply here too:
    /// a truncated router→shard line kills the link (reading goes on
    /// until the flush), which exercises the retry path.
    fn send_shard(&mut self, idx: usize, line: &str, now: Instant) {
        if let Some(link) = &mut self.shards[idx].link {
            link.enqueue(&self.shared.injector, line, now);
        }
    }

    fn flush_shards(&mut self, poller: &Poller, now: Instant) {
        for idx in 0..self.shards.len() {
            let Some(link) = &mut self.shards[idx].link else { continue };
            if !link.flush(now, None) {
                // A write failed, or a truncated fault-injected write
                // killed the link's framing: same recovery either way.
                self.shard_failed(poller, idx, now);
            }
        }
    }

    fn reap_upstreams(&mut self, poller: &Poller) {
        let draining = self.shared.shutdown.load(Ordering::SeqCst);
        let closing: Vec<u64> =
            self.ups.iter().filter(|(_, u)| u.finished(draining)).map(|(&t, _)| t).collect();
        for token in closing {
            let Some(u) = self.ups.remove(&token) else { continue };
            u.link.close(poller);
            self.metrics.connections_open.sub(1);
            for job_id in u.inflight.into_keys() {
                if let Some(job) = self.jobs.remove(&job_id) {
                    for chunk in &job.chunks {
                        for s in &chunk.sends {
                            self.shards[s.shard].inflight.remove(&s.sid);
                        }
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------- inline ops

    fn shard_table(&mut self, now: Instant) -> Json {
        let mut rows = Vec::with_capacity(self.shards.len());
        for idx in 0..self.shards.len() {
            let admits = self.shards[idx].breaker.admits(now);
            let s = &mut self.shards[idx];
            let breaker = s.breaker.state(now).as_str();
            rows.push(
                Json::obj()
                    .with("addr", s.addr.as_str())
                    .with("state", s.state.name())
                    .with("healthy", s.healthy)
                    .with("available", matches!(s.state, SState::Ready) && s.healthy && admits)
                    .with("breaker", breaker)
                    .with("trips", s.breaker.trips())
                    .with("inflight", s.inflight.len())
                    .with("queue_depth", s.queue_depth),
            );
        }
        Json::Arr(rows)
    }

    fn stats_line(&mut self, now: Instant) -> String {
        let shards = self.shard_table(now);
        Json::obj()
            .with("ok", true)
            .with("type", "stats")
            .with("router", true)
            .with("shards", shards)
            .with("jobs_inflight", self.jobs.len())
            .with("connections", self.ups.len())
            .with(
                "uptime_ms",
                u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            )
            .encode()
    }

    fn health_line(&mut self, now: Instant) -> String {
        let draining = self.shared.shutdown.load(Ordering::SeqCst);
        let healthy = self.available(now).len();
        self.shared.registry.gauge("router_shards_healthy").set(healthy as u64);
        let shards = self.shard_table(now);
        Json::obj()
            .with("ok", true)
            .with("type", "health")
            .with("ready", healthy > 0 && !draining)
            .with("live", true)
            .with("draining", draining)
            .with("router", true)
            .with("shards_healthy", healthy)
            .with("shards", shards)
            .with("faults", self.shared.injector.to_json())
            .encode()
    }
}

/// The text between a string token's quotes, as written: escapes are
/// not decoded, so an escaped name never matches a plain one.
fn unquoted(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// A router-built `E_BUSY` reply with the `Retry-After`-style hint.
fn busy_line(message: &str, retry_after_ms: u64) -> String {
    Json::obj()
        .with("ok", false)
        .with("code", "E_BUSY")
        .with("error", message)
        .with("retry_after_ms", retry_after_ms)
        .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counters_keep_their_names_and_list_inline_ops_once_counted() {
        let registry = Registry::new();
        let mut metrics = Metrics::new(&registry, 1);
        let counter = |name: &str| {
            let snap = registry.snapshot();
            snap.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64)
        };
        assert_eq!(counter("router_requests_total{op=\"batch\"}"), Some(0));
        assert_eq!(counter("router_requests_total{op=\"stats\"}"), None);
        metrics.requests(&registry, "batch").inc();
        metrics.requests(&registry, "stats").inc();
        metrics.requests(&registry, "stats").inc();
        assert_eq!(counter("router_requests_total{op=\"batch\"}"), Some(1));
        assert_eq!(counter("router_requests_total{op=\"stats\"}"), Some(2));
        assert_eq!(counter("router_requests_total{op=\"health\"}"), None);
    }
}

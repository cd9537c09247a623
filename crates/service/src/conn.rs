//! The one connection layer both front doors share: the server's event
//! loop and the router's event loop drive the same types.
//!
//! Bottom up:
//!
//! * [`Framer`], [`WriteBuf`] and [`IdWindow`] are pure byte and state
//!   machines (incremental line framing with oversized-line recovery, a
//!   flush buffer with the write-fault corks, the request-id replay
//!   window). They take no sockets and no clocks beyond their
//!   arguments, so the framing rules are unit-testable without a live
//!   server.
//! * [`Link`] is one nonblocking socket with its framer and write
//!   buffer. It holds the only socket read loop, the only flush loop and
//!   the only write-fault enqueue. Client connections and the router's
//!   shard links both sit on it.
//! * [`Conn`] is one client connection: a `Link` plus the per-line
//!   protocol. That covers the v1/v2 modes, the pending queue with
//!   `read_stall` parking, the id rules, the `hello` upgrade, the
//!   frame/write/idle timers and the reap predicate. Its owner picks only
//!   the in-flight value type: the server tracks its jobs there, the
//!   router keeps `()`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use sempe_core::json::Json;
use sempe_core::telemetry::Histogram;

use crate::fault::{FaultInjector, FaultSite};
use crate::net::{Event, Poller};
use crate::protocol::{
    with_id, Envelope, ErrorCode, Request, ServiceError, MAX_REQUEST_BYTES, PROTO_VERSION,
};

/// Per-connection window of remembered request ids (reuse detection).
const ID_WINDOW: usize = 1024;

/// How many oversized-line bytes we are willing to discard while looking
/// for the terminating newline before giving up on the connection.
const DRAIN_BUDGET: usize = 16 * 1024 * 1024;

/// Events produced by feeding bytes to the [`Framer`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameEvent {
    /// A complete newline-terminated line (terminator stripped).
    Line(String),
    /// A line exceeded `MAX_REQUEST_BYTES`. `recovered` is true when the
    /// offending line was fully discarded and framing resynchronised at the
    /// next newline; false when the drain budget ran out and the connection
    /// should be closed after reporting the error.
    TooLong { recovered: bool },
}

/// State of an in-progress oversized-line drain.
struct Overflow {
    /// Bytes discarded so far (including what was buffered when we tipped
    /// over the limit).
    drained: usize,
}

/// Incremental newline framer with oversized-line recovery.
///
/// Mirrors the blocking `LineReader` the thread-per-connection server used:
/// lines longer than `MAX_REQUEST_BYTES` are discarded up to a fixed budget
/// and the stream resynchronises at the next newline, so one abusive frame
/// doesn't take down an otherwise healthy connection.
pub(crate) struct Framer {
    buf: Vec<u8>,
    overflow: Option<Overflow>,
    /// When the currently-buffered partial frame started arriving; `None`
    /// whenever the buffer is empty. The event loop uses this for the
    /// slow-loris frame timeout.
    frame_started: Option<Instant>,
}

impl Framer {
    pub(crate) fn new() -> Framer {
        Framer { buf: Vec::new(), overflow: None, frame_started: None }
    }

    /// True while a partial frame (or an overflow drain) is pending — i.e.
    /// the frame timeout clock should be running.
    pub(crate) fn mid_frame(&self) -> bool {
        self.frame_started.is_some()
    }

    /// Instant at which the pending partial frame began, if any.
    pub(crate) fn frame_started(&self) -> Option<Instant> {
        self.frame_started
    }

    /// Feed freshly-read bytes, appending decoded events to `out`.
    pub(crate) fn feed(&mut self, mut bytes: &[u8], now: Instant, out: &mut Vec<FrameEvent>) {
        // Overflow mode: discard until a newline resynchronises us or the
        // budget runs out.
        if let Some(ref mut ov) = self.overflow {
            if let Some(nl) = bytes.iter().position(|&b| b == b'\n') {
                self.overflow = None;
                out.push(FrameEvent::TooLong { recovered: true });
                bytes = &bytes[nl + 1..];
                self.frame_started = None;
            } else {
                ov.drained += bytes.len();
                if ov.drained > DRAIN_BUDGET {
                    self.overflow = None;
                    self.frame_started = None;
                    out.push(FrameEvent::TooLong { recovered: false });
                }
                return;
            }
        }

        if bytes.is_empty() {
            return;
        }
        if self.buf.is_empty() && !bytes.is_empty() {
            self.frame_started = Some(now);
        }
        self.buf.extend_from_slice(bytes);

        let mut start = 0usize;
        while let Some(rel) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + rel;
            if end - start > MAX_REQUEST_BYTES {
                out.push(FrameEvent::TooLong { recovered: true });
            } else {
                let line = String::from_utf8_lossy(&self.buf[start..end]).into_owned();
                out.push(FrameEvent::Line(line));
            }
            start = end + 1;
        }
        if start > 0 {
            self.buf.drain(..start);
        }

        if self.buf.len() > MAX_REQUEST_BYTES {
            // No newline in sight and the line is already over the limit:
            // switch to drain mode and drop what we buffered.
            self.overflow = Some(Overflow { drained: self.buf.len() });
            self.buf.clear();
            // frame_started stays set: the overflow drain is still subject
            // to the frame timeout.
            return;
        }

        if self.buf.is_empty() {
            self.frame_started = None;
        } else if self.frame_started.is_none() {
            self.frame_started = Some(now);
        }
    }
}

/// Outbound byte buffer with the two write-side fault hooks the chaos
/// suite exercises: `write_stall` (a mid-line cork that delays the tail of
/// a response) and `write_trunc` (enqueue only half a response, then the
/// owner shuts the socket down after flushing).
pub(crate) struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket (compacted lazily).
    pos: usize,
    /// `(absolute_offset, release_time)`: no bytes at or past the offset
    /// may be written before the release time. At most one cork at a time —
    /// later stalls on an already-corked buffer are ignored, matching the
    /// one-stall-per-write behavior of the blocking server.
    cork: Option<(usize, Instant)>,
}

impl WriteBuf {
    pub(crate) fn new() -> WriteBuf {
        WriteBuf { buf: Vec::new(), pos: 0, cork: None }
    }

    /// Queue a response line (newline appended).
    pub(crate) fn enqueue(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Queue a response line but cork the second half for `stall`: the
    /// fault-injected slow write. If a cork is already pending the line is
    /// queued whole behind it.
    pub(crate) fn enqueue_stalled(&mut self, line: &str, stall: Duration, now: Instant) {
        if self.cork.is_none() {
            let half = self.buf.len() + line.len().div_ceil(2);
            self.cork = Some((half, now + stall));
        }
        self.enqueue(line);
    }

    /// Queue only the first half of a response line and no terminator: the
    /// fault-injected truncation. The caller is responsible for shutting
    /// the connection down once the fragment has flushed.
    pub(crate) fn enqueue_truncated(&mut self, line: &str) {
        let half = line.len() / 2;
        self.buf.extend_from_slice(&line.as_bytes()[..half]);
    }

    /// The slice that may be written right now (respects a pending cork).
    pub(crate) fn writable_slice(&self, now: Instant) -> &[u8] {
        let mut end = self.buf.len();
        if let Some((corked_at, until)) = self.cork {
            if now < until {
                end = end.min(corked_at);
            }
        }
        &self.buf[self.pos..end.max(self.pos)]
    }

    /// Record `n` bytes as written; clears an expired/passed cork and
    /// compacts the buffer once everything queued has gone out.
    pub(crate) fn advance(&mut self, n: usize, now: Instant) {
        self.pos += n;
        if let Some((corked_at, until)) = self.cork {
            if now >= until || self.pos < corked_at {
                // Cork expired, or we haven't reached it yet and it will be
                // re-checked by writable_slice; only drop it once released.
                if now >= until {
                    self.cork = None;
                }
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            if let Some((corked_at, until)) = self.cork {
                self.cork = Some((corked_at.saturating_sub(self.pos), until));
            }
            self.pos = 0;
        }
    }

    /// True when every queued byte has been flushed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Sliding window of recently-seen request ids, used to reject accidental
/// client-side retries of an already-answered request on the same
/// connection.
pub(crate) struct IdWindow {
    seen: HashSet<String>,
    order: VecDeque<String>,
    capacity: usize,
}

impl IdWindow {
    pub(crate) fn new(capacity: usize) -> IdWindow {
        IdWindow { seen: HashSet::new(), order: VecDeque::new(), capacity }
    }

    /// Record `id`; returns false when the id was already in the window.
    pub(crate) fn admit(&mut self, id: &str) -> bool {
        if self.seen.contains(id) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(id.to_string());
        self.order.push_back(id.to_string());
        true
    }
}

/// One nonblocking socket with its framer and write buffer: the
/// byte-moving half of every connection, client or shard link.
pub(crate) struct Link {
    stream: TcpStream,
    framer: Framer,
    wbuf: WriteBuf,
    /// Edge-triggered writability: true until a write hits `WouldBlock`,
    /// re-armed by the next `EPOLLOUT` edge.
    writable: bool,
    /// Close the socket once the write buffer drains (shutdown
    /// responses, truncation faults, frame-stall errors).
    pub(crate) close_after_flush: bool,
    /// Stop feeding the framer; the socket is still drained.
    stop_reading: bool,
    /// When the socket first refused bytes we still owe it, since the
    /// last write that made progress (the write-side slow loris).
    write_stuck_since: Option<Instant>,
    /// The last byte read or line queued.
    last_activity: Instant,
}

impl Link {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Link {
        Link {
            stream,
            framer: Framer::new(),
            wbuf: WriteBuf::new(),
            writable: true,
            close_after_flush: false,
            stop_reading: false,
            write_stuck_since: None,
            last_activity: now,
        }
    }

    /// Apply one poller event: re-arm writability, and drain a readable
    /// socket (edge-triggered) into the framer. Returns false once the
    /// peer closed or the read side failed; what was framed before that
    /// is still in `frames`.
    pub(crate) fn on_event(
        &mut self,
        ev: &Event,
        now: Instant,
        frames: &mut Vec<FrameEvent>,
    ) -> bool {
        if ev.writable {
            self.writable = true;
            self.write_stuck_since = None;
        }
        if !(ev.readable || ev.hangup) {
            return true;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.last_activity = now;
                    if !self.stop_reading {
                        self.framer.feed(&chunk[..n], now, frames);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Queue one outbound line through the write-side fault sites, rolled
    /// once per line: `write_trunc` queues half the line and closes the
    /// link after the flush, `write_stall` corks the line's second half.
    /// Returns true when the line was truncated.
    pub(crate) fn enqueue(&mut self, injector: &FaultInjector, line: &str, now: Instant) -> bool {
        self.last_activity = now;
        if injector.fire(FaultSite::WriteTrunc) {
            self.wbuf.enqueue_truncated(line);
            self.close_after_flush = true;
            return true;
        }
        match injector.stall(FaultSite::WriteStall) {
            Some(stall) => self.wbuf.enqueue_stalled(line, stall, now),
            None => self.wbuf.enqueue(line),
        }
        false
    }

    /// Write as much of the buffer as the socket (and any fault cork)
    /// allows, timing the writes into `phase` when given. Returns false
    /// once the link is finished: a write failed, or a close-after-flush
    /// buffer drained and the socket was shut down.
    pub(crate) fn flush(&mut self, now: Instant, phase: Option<&Histogram>) -> bool {
        if !self.writable {
            return true;
        }
        let start = Instant::now();
        let mut wrote_any = false;
        loop {
            let slice = self.wbuf.writable_slice(now);
            if slice.is_empty() {
                break;
            }
            match (&self.stream).write(slice) {
                Ok(n) => {
                    wrote_any = true;
                    self.write_stuck_since = None;
                    self.wbuf.advance(n, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.writable = false;
                    self.write_stuck_since.get_or_insert(now);
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if let (true, Some(phase)) = (wrote_any, phase) {
            phase.observe_duration(start.elapsed());
        }
        if self.close_after_flush && self.wbuf.is_empty() {
            let _ = self.stream.shutdown(Shutdown::Both);
            return false;
        }
        true
    }

    /// The peer has refused bytes we owe it for at least `timeout`.
    pub(crate) fn write_stuck(&self, now: Instant, timeout: Duration) -> bool {
        self.write_stuck_since.is_some_and(|since| now.duration_since(since) >= timeout)
    }

    /// Deregister the socket and shut it down.
    pub(crate) fn close(&self, poller: &Poller) {
        let _ = poller.delete(self.stream.as_raw_fd());
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Which protocol generation a client connection speaks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Strictly serialized request→response; ids optional.
    Legacy,
    /// Pipelined, out-of-order, streaming; ids mandatory.
    V2,
}

/// One client connection, as either front door sees it. `T` is what the
/// owner tracks per in-flight request.
pub(crate) struct Conn<T> {
    pub(crate) link: Link,
    ids: IdWindow,
    pub(crate) mode: Mode,
    /// Framed input not yet served, in arrival order.
    pending: VecDeque<FrameEvent>,
    /// When the line at the head of `pending` may be served: `None`
    /// until its `read_stall` roll, so the roll happens once per line.
    head_release: Option<Instant>,
    /// Requests dispatched and not yet answered, keyed by the owner's
    /// serial. In v1 mode a non-empty table holds back the next line.
    pub(crate) inflight: HashMap<u64, T>,
    /// Peer sent EOF (or the read side died); buffered work still runs
    /// and pending responses still flush (half-close works).
    peer_closed: bool,
    /// Hard-close at the next reap.
    dead: bool,
}

impl<T> Conn<T> {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn<T> {
        Conn {
            link: Link::new(stream, now),
            ids: IdWindow::new(ID_WINDOW),
            mode: Mode::Legacy,
            pending: VecDeque::new(),
            head_release: None,
            inflight: HashMap::new(),
            peer_closed: false,
            dead: false,
        }
    }

    /// Apply one poller event, queueing every line it framed.
    pub(crate) fn on_event(&mut self, ev: &Event, now: Instant) {
        let mut frames = Vec::new();
        if !self.link.on_event(ev, now, &mut frames) {
            self.peer_closed = true;
        }
        self.pending.extend(frames);
    }

    /// Queue a response line; a truncated one also stops reading.
    pub(crate) fn send(&mut self, injector: &FaultInjector, line: &str, now: Instant) {
        if self.link.enqueue(injector, line, now) {
            self.link.stop_reading = true;
        }
    }

    /// Queue a final error reply, then stop reading and close after it.
    fn send_and_close(&mut self, injector: &FaultInjector, e: &ServiceError, now: Instant) {
        self.send(injector, &e.to_json(), now);
        self.link.close_after_flush = true;
        self.link.stop_reading = true;
    }

    /// The next request line to serve, in arrival order. Oversized lines
    /// are answered here. Returns `None` while the connection is closing,
    /// while a v1 request is in flight, or while the head line is parked
    /// by a `read_stall` fault (the loop's fallback tick retries it).
    pub(crate) fn next_line(&mut self, injector: &FaultInjector, now: Instant) -> Option<String> {
        loop {
            if self.link.close_after_flush
                || self.dead
                || (self.mode == Mode::Legacy && !self.inflight.is_empty())
            {
                return None;
            }
            match self.pending.front()? {
                &FrameEvent::TooLong { recovered } => {
                    self.pending.pop_front();
                    let e = ServiceError::new(
                        ErrorCode::BadRequest,
                        format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                    );
                    if recovered {
                        self.send(injector, &e.to_json(), now);
                    } else {
                        self.send_and_close(injector, &e, now);
                    }
                }
                FrameEvent::Line(_) => {
                    let release = *self.head_release.get_or_insert_with(|| {
                        now + injector.stall(FaultSite::ReadStall).unwrap_or_default()
                    });
                    if now < release {
                        return None;
                    }
                    self.head_release = None;
                    let Some(FrameEvent::Line(line)) = self.pending.pop_front() else {
                        return None;
                    };
                    return Some(line);
                }
            }
        }
    }

    /// Parse one request line and apply the id rules, answering every
    /// refusal (bad JSON, a missing or replayed id, an invalid body)
    /// itself. Returns the request with its pre-encoded id and its
    /// `deadline_ms`.
    pub(crate) fn admit(
        &mut self,
        injector: &FaultInjector,
        line: &str,
        now: Instant,
    ) -> Option<(Request, Option<String>, Option<u64>)> {
        let refusal = match Envelope::parse(line) {
            Err(e) => e.to_json(),
            Ok(envelope) => match self.check_id(envelope.id.as_deref()) {
                Some(refusal) => refusal,
                None => match envelope.req {
                    Ok(request) => return Some((request, envelope.id, envelope.deadline_ms)),
                    Err(e) => with_id(&e.to_json(), envelope.id.as_deref()),
                },
            },
        };
        self.send(injector, &refusal, now);
        None
    }

    /// The per-connection id rules: a v2 request must carry an id, and
    /// no id may repeat inside the replay window. Returns the error reply
    /// for a request that breaks either.
    pub(crate) fn check_id(&mut self, id: Option<&str>) -> Option<String> {
        match id {
            None if self.mode == Mode::V2 => Some(
                ServiceError::new(
                    ErrorCode::BadRequest,
                    "v2 requests must carry an id (responses are matched by it)",
                )
                .to_json(),
            ),
            Some(id) if !self.ids.admit(id) => {
                let e = ServiceError::new(
                    ErrorCode::BadRequest,
                    format!("request id {id} was already used on this connection"),
                );
                Some(with_id(&e.to_json(), Some(id)))
            }
            _ => None,
        }
    }

    /// Answer a `hello`: upgrade a v1 connection to v2, or refuse a
    /// duplicate or an unsupported version.
    pub(crate) fn hello(&mut self, proto: u64) -> String {
        if self.mode == Mode::V2 {
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
            self.mode = Mode::V2;
            Json::obj()
                .with("ok", true)
                .with("type", "hello")
                .with("proto", PROTO_VERSION)
                .with("streaming", true)
                .encode()
        }
    }

    /// The connection timers. A partial frame (or an overflow drain)
    /// stalled past `frame_timeout` gets a structured error and closes
    /// after the flush. A peer that stopped draining what we owe it for
    /// `frame_timeout`, or a quiescent connection idle for
    /// `idle_timeout`, is marked dead. Returns false once it is dead.
    pub(crate) fn sweep_timers(
        &mut self,
        injector: &FaultInjector,
        now: Instant,
        frame_timeout: Duration,
        idle_timeout: Duration,
    ) -> bool {
        if self.dead {
            return false;
        }
        let stalled = self
            .link
            .framer
            .frame_started()
            .is_some_and(|started| now.duration_since(started) >= frame_timeout);
        if stalled && !self.link.close_after_flush {
            let e = ServiceError::new(ErrorCode::BadRequest, "request frame stalled mid-transfer");
            self.send_and_close(injector, &e, now);
        }
        self.dead = self.link.write_stuck(now, frame_timeout)
            || (self.quiescent()
                && !self.link.framer.mid_frame()
                && now.duration_since(self.link.last_activity) >= idle_timeout);
        !self.dead
    }

    /// Nothing queued in either direction and nothing in flight.
    fn quiescent(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty() && self.link.wbuf.is_empty()
    }

    /// The reap predicate: dead, a half-closed peer that is owed
    /// nothing, or a drain with nothing owed and no partial frame.
    pub(crate) fn finished(&self, draining: bool) -> bool {
        self.dead
            || (self.peer_closed && self.quiescent())
            || (draining && self.quiescent() && !self.link.framer.mid_frame())
    }

    /// Flush the write buffer; a failed write or a finished close marks
    /// the connection dead.
    pub(crate) fn flush(&mut self, now: Instant, phase: &Histogram) {
        if !self.dead && !self.link.flush(now, Some(phase)) {
            self.dead = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(framer: &mut Framer, bytes: &[u8]) -> Vec<FrameEvent> {
        let mut out = Vec::new();
        framer.feed(bytes, Instant::now(), &mut out);
        out
    }

    #[test]
    fn splits_lines_at_every_byte_boundary() {
        // The v2 framer must produce identical lines no matter how the
        // kernel fragments the stream: feed the same payload split at every
        // possible boundary and compare against the one-shot parse.
        let payload = b"{\"id\":1,\"type\":\"stats\"}\n{\"id\":2,\"type\":\"health\"}\n";
        let mut whole = Framer::new();
        let expect = feed_all(&mut whole, payload);
        assert_eq!(expect.len(), 2, "one-shot parse should yield two lines: {expect:?}");

        for split in 0..=payload.len() {
            let mut framer = Framer::new();
            let now = Instant::now();
            let mut out = Vec::new();
            framer.feed(&payload[..split], now, &mut out);
            framer.feed(&payload[split..], now, &mut out);
            assert_eq!(out, expect, "split at byte {split} changed the frames");
        }
    }

    #[test]
    fn byte_at_a_time_feeding_matches_one_shot() {
        let payload = b"{\"type\":\"hello\",\"proto\":2}\nnot json but still a line\n";
        let mut whole = Framer::new();
        let expect = feed_all(&mut whole, payload);

        let mut framer = Framer::new();
        let now = Instant::now();
        let mut out = Vec::new();
        for b in payload {
            framer.feed(std::slice::from_ref(b), now, &mut out);
        }
        assert_eq!(out, expect);
        assert!(!framer.mid_frame(), "buffer should be empty at the end");
    }

    #[test]
    fn oversized_line_recovers_at_next_newline() {
        let mut framer = Framer::new();
        let now = Instant::now();
        let mut out = Vec::new();
        let big = vec![b'x'; MAX_REQUEST_BYTES + 2];
        framer.feed(&big, now, &mut out);
        assert!(out.is_empty(), "no event until resync: {out:?}");
        framer.feed(b"tail\n{\"ok\":1}\n", now, &mut out);
        assert_eq!(
            out,
            vec![
                FrameEvent::TooLong { recovered: true },
                FrameEvent::Line("{\"ok\":1}".to_string()),
            ]
        );
    }

    #[test]
    fn oversized_line_with_inline_newline_is_rejected_but_framing_survives() {
        let mut framer = Framer::new();
        let now = Instant::now();
        let mut out = Vec::new();
        let mut payload = vec![b'y'; MAX_REQUEST_BYTES / 2];
        payload.push(b'\n');
        // Two oversized halves that DO carry newlines within one feed call.
        let mut big = vec![b'z'; MAX_REQUEST_BYTES + 1];
        big.push(b'\n');
        big.extend_from_slice(b"after\n");
        framer.feed(&payload, now, &mut out);
        framer.feed(&big, now, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(matches!(out[0], FrameEvent::Line(_)));
        assert_eq!(out[1], FrameEvent::TooLong { recovered: true });
        assert_eq!(out[2], FrameEvent::Line("after".to_string()));
    }

    #[test]
    fn drain_budget_exhaustion_gives_up() {
        let mut framer = Framer::new();
        let now = Instant::now();
        let mut out = Vec::new();
        framer.feed(&vec![b'x'; MAX_REQUEST_BYTES + 1], now, &mut out);
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..(DRAIN_BUDGET / chunk.len() + 2) {
            framer.feed(&chunk, now, &mut out);
            if !out.is_empty() {
                break;
            }
        }
        assert_eq!(out, vec![FrameEvent::TooLong { recovered: false }]);
    }

    #[test]
    fn frame_timer_tracks_partial_lines() {
        let mut framer = Framer::new();
        let t0 = Instant::now();
        let mut out = Vec::new();
        assert!(!framer.mid_frame());
        framer.feed(b"{\"par", t0, &mut out);
        assert!(framer.mid_frame());
        assert_eq!(framer.frame_started(), Some(t0));
        framer.feed(b"tial\"}\n", t0, &mut out);
        assert!(!framer.mid_frame(), "complete line clears the frame timer");
        assert_eq!(out, vec![FrameEvent::Line("{\"partial\"}".to_string())]);
    }

    #[test]
    fn write_buf_corks_then_releases() {
        let mut wb = WriteBuf::new();
        let t0 = Instant::now();
        wb.enqueue_stalled("0123456789", Duration::from_millis(50), t0);
        // Half the line (incl. newline => 5 bytes) is writable immediately.
        let first = wb.writable_slice(t0).to_vec();
        assert_eq!(first, b"01234");
        wb.advance(first.len(), t0);
        assert!(wb.writable_slice(t0).is_empty(), "corked tail held back");
        assert!(!wb.is_empty());
        let later = t0 + Duration::from_millis(60);
        let rest = wb.writable_slice(later).to_vec();
        assert_eq!(rest, b"56789\n");
        wb.advance(rest.len(), later);
        assert!(wb.is_empty());
    }

    #[test]
    fn write_buf_truncation_drops_the_tail() {
        let mut wb = WriteBuf::new();
        let t0 = Instant::now();
        wb.enqueue_truncated("0123456789");
        assert_eq!(wb.writable_slice(t0), b"01234");
        wb.advance(5, t0);
        assert!(wb.is_empty(), "nothing beyond the fragment is ever queued");
    }

    /// A server-side connection whose peer has already sent `bytes`.
    fn conn_with_input(bytes: &[u8]) -> (Conn<()>, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(stream, Instant::now());
        client.write_all(bytes).expect("send");
        let readable = Event { token: 2, readable: true, writable: false, hangup: false };
        for _ in 0..500 {
            conn.on_event(&readable, Instant::now());
            if conn.pending.len() == bytes.iter().filter(|&&b| b == b'\n').count() {
                return (conn, client);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("the peer's lines never arrived");
    }

    #[test]
    fn v1_serializes_on_the_inflight_table_and_v2_pipelines() {
        let injector = FaultInjector::new(crate::fault::FaultPlan::default());
        let (mut conn, _client) = conn_with_input(b"a\nb\n");
        let now = Instant::now();
        assert_eq!(conn.next_line(&injector, now).as_deref(), Some("a"));
        conn.inflight.insert(7, ());
        assert_eq!(conn.next_line(&injector, now), None, "v1 holds b while a is in flight");
        conn.inflight.remove(&7);
        conn.inflight.insert(8, ());
        assert!(conn.hello(PROTO_VERSION).contains("\"ok\":true"));
        assert_eq!(conn.next_line(&injector, now).as_deref(), Some("b"), "v2 pipelines");
    }

    #[test]
    fn read_stall_parks_the_head_line_once() {
        let plan = crate::fault::FaultPlan::parse("seed=3,read_stall=1000,read_stall_ms=40");
        let injector = FaultInjector::new(plan.expect("plan"));
        let (mut conn, _client) = conn_with_input(b"a\n");
        let t0 = Instant::now();
        assert_eq!(conn.next_line(&injector, t0), None, "parked by the stall");
        assert_eq!(conn.next_line(&injector, t0 + Duration::from_millis(20)), None);
        let released = t0 + Duration::from_millis(40);
        assert_eq!(conn.next_line(&injector, released).as_deref(), Some("a"));
        assert_eq!(injector.total_injected(), 1, "one roll per line, however long it parks");
    }

    #[test]
    fn id_window_rejects_replays_and_evicts_fifo() {
        let mut ids = IdWindow::new(2);
        assert!(ids.admit("a"));
        assert!(!ids.admit("a"));
        assert!(ids.admit("b"));
        assert!(ids.admit("c")); // evicts "a"
        assert!(ids.admit("a"));
        assert!(!ids.admit("c"));
    }
}

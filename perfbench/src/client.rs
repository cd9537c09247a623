//! A blocking line-protocol client and `metrics` scrape helpers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sempe_core::json::{self, Json};

pub struct Conn {
    peer: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(peer: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { peer, stream, buf: Vec::with_capacity(64 * 1024) })
    }

    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    pub fn recv(&mut self) -> io::Result<String> {
        let mut scanned = 0;
        loop {
            if let Some(nl) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let end = scanned + nl;
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                return Ok(line);
            }
            scanned = self.buf.len();
            let mut chunk = [0u8; 64 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Upgrade to protocol v2 (pipelined ids, streamed frames).
    pub fn hello(&mut self) -> io::Result<()> {
        let resp = self.call(r#"{"id":"hello","type":"hello","proto":2}"#)?;
        if resp.contains(r#""ok":true"#) {
            Ok(())
        } else {
            Err(io::Error::other(format!("hello refused: {resp}")))
        }
    }
}

/// The body of a response whose first member is a string id:
/// `{"id":"x","ok":…}` becomes `{"ok":…}`.
pub fn strip_id(line: &str) -> Option<String> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    let close = rest.find("\",")?;
    Some(format!("{{{}", &rest[close + 2..]))
}

/// The `metrics` op's registry snapshot (`{"counters":…,"histograms":…}`).
pub fn scrape(addr: SocketAddr) -> io::Result<Json> {
    let resp = Conn::connect(addr)?.call(r#"{"type":"metrics"}"#)?;
    let v = json::parse(&resp).map_err(|e| io::Error::other(format!("metrics reply: {e}")))?;
    v.get("metrics").cloned().ok_or_else(|| io::Error::other(format!("metrics reply: {resp}")))
}

pub fn counter(m: &Json, name: &str) -> u64 {
    m.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// A histogram's `(count, sum in µs)`.
pub fn hist(m: &Json, name: &str) -> (u64, u64) {
    let h = m.get("histograms").and_then(|h| h.get(name));
    let field = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_u64).unwrap_or(0);
    (field("count"), field("sum"))
}

/// Mean µs of a histogram over the interval between two scrapes.
pub fn hist_mean_between(before: &Json, after: &Json, name: &str) -> f64 {
    let (c0, s0) = hist(before, name);
    let (c1, s1) = hist(after, name);
    crate::stats::ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
}

pub fn counter_between(before: &Json, after: &Json, name: &str) -> u64 {
    counter(after, name).saturating_sub(counter(before, name))
}

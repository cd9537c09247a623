//! Front-door conformance: a client must not be able to tell a
//! `sempe-serve` daemon from a `sempe-router` in front of one shard.
//!
//! Every case runs twice, once against a server directly and once
//! against a router, and the error replies must carry the same `code`
//! and message on both. The cases cover the per-connection protocol
//! rules both front doors enforce: oversized-line recovery, the v2 id
//! rules, the `hello` upgrade, v1 serialization, the slow-loris frame
//! timeout, the id rule (escaped, `null`, over-long and non-integer
//! ids) and the body checks a compute request must pass.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sempe_core::json::{self, Json};
use sempe_service::protocol::MAX_REQUEST_BYTES;
use sempe_service::{Router, RouterConfig, Server, ServiceConfig};

const FRAME_TIMEOUT_MS: u64 = 300;
const IDLE_TIMEOUT_MS: u64 = 5_000;

/// `n` is the patchable loop count, so two runs differ in output.
const COUNTER: &str = r"
    secret k = 1;
    var n = 1;
    var acc = 0;
    var i = 0;
    while (i < n) bound 1001 { acc = acc + 1; i = i + 1; }
    output acc;
";

fn run_line(n: u64) -> String {
    let source = json::escape(&COUNTER.replace("var n = 1;", &format!("var n = {n};")));
    format!(r#"{{"type":"run","source":{source},"backend":"sempe","max_cycles":80000000}}"#)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    fn send_line(&mut self, line: &str) {
        self.send(format!("{line}\n").as_bytes());
    }

    /// The next response line, or `None` at EOF.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        if n == 0 {
            return None;
        }
        assert!(line.ends_with('\n'), "responses are newline-terminated: {line}");
        Some(line.trim_end().to_string())
    }

    fn recv_json(&mut self) -> Json {
        let line = self.recv().expect("a response, not EOF");
        json::parse(&line).unwrap_or_else(|e| panic!("response parses ({e}): {line}"))
    }

    fn hello(&mut self) {
        self.send_line(r#"{"id":"h","type":"hello","proto":2}"#);
        let v = self.recv_json();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "hello accepted");
    }

    /// The connection still answers a plain request.
    fn assert_serving(&mut self, id: Option<&str>) {
        match id {
            Some(id) => self.send_line(&format!(r#"{{"id":"{id}","type":"stats"}}"#)),
            None => self.send_line(r#"{"type":"stats"}"#),
        }
        let v = self.recv_json();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "connection keeps serving");
    }
}

/// `(code, message)` of an error reply; panics on a success reply.
fn error_of(v: &Json) -> (String, String) {
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected an error: {}",
        v.encode()
    );
    let field = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    (field("code"), field("error"))
}

/// One conformance case: drives a connection and returns the error
/// replies it saw, in order.
type Case = fn(SocketAddr) -> Vec<(String, String)>;

fn oversized_line(addr: SocketAddr) -> Vec<(String, String)> {
    let mut c = Client::connect(addr);
    let mut big = vec![b'x'; MAX_REQUEST_BYTES + 10];
    big.push(b'\n');
    c.send(&big);
    let err = error_of(&c.recv_json());
    assert!(err.1.contains("exceeds"), "{err:?}");
    c.assert_serving(None);
    vec![err]
}

fn v2_without_id(addr: SocketAddr) -> Vec<(String, String)> {
    let mut c = Client::connect(addr);
    c.hello();
    c.send_line(&run_line(3));
    let err = error_of(&c.recv_json());
    c.assert_serving(Some("after"));
    vec![err]
}

fn bad_hellos(addr: SocketAddr) -> Vec<(String, String)> {
    let mut c = Client::connect(addr);
    c.send_line(r#"{"type":"hello","proto":3}"#);
    let unsupported = error_of(&c.recv_json());
    c.hello();
    c.send_line(r#"{"id":"h2","type":"hello","proto":2}"#);
    let duplicate = error_of(&c.recv_json());
    c.assert_serving(Some("after"));
    vec![unsupported, duplicate]
}

fn replayed_id(addr: SocketAddr) -> Vec<(String, String)> {
    let mut c = Client::connect(addr);
    let line = run_line(4).replacen('{', r#"{"id":"dup","#, 1);
    c.send_line(&line);
    let first = c.recv_json();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true), "{}", first.encode());
    c.send_line(&line);
    let replay = error_of(&c.recv_json());
    c.send_line(r#"{"id":"s","type":"stats"}"#);
    c.send_line(r#"{"id":"s","type":"stats"}"#);
    assert_eq!(c.recv_json().get("ok").and_then(Json::as_bool), Some(true));
    let inline_replay = error_of(&c.recv_json());
    vec![replay, inline_replay]
}

fn pipelined_v1_runs(addr: SocketAddr) -> Vec<(String, String)> {
    let mut c = Client::connect(addr);
    c.send_line(&format!("{}\n{}", run_line(7), run_line(2)));
    for want in [7, 2] {
        let v = c.recv_json();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", v.encode());
        assert!(v.get("partial").is_none(), "v1 never sees partial frames: {}", v.encode());
        let outputs = v.get("outputs").and_then(Json::as_array).expect("outputs");
        assert_eq!(outputs.first().and_then(Json::as_u64), Some(want), "in order: {}", v.encode());
    }
    Vec::new()
}

fn stalled_frame(addr: SocketAddr) -> Vec<(String, String)> {
    let mut c = Client::connect(addr);
    let started = Instant::now();
    c.send(br#"{"type":"sta"#);
    let err = error_of(&c.recv_json());
    assert!(started.elapsed() >= Duration::from_millis(FRAME_TIMEOUT_MS), "{err:?}");
    assert_eq!(c.recv(), None, "the connection closes after the stall error");
    vec![err]
}

/// Send `line` with `id_member` spliced in as its first member and
/// return the reply line.
fn reply_with_id(addr: SocketAddr, line: &str, id_member: &str) -> String {
    let mut c = Client::connect(addr);
    c.send_line(&line.replacen('{', &format!("{{{id_member},"), 1));
    c.recv().expect("a reply")
}

fn escaped_string_id(addr: SocketAddr) -> Vec<(String, String)> {
    let reply = reply_with_id(addr, &run_line(2), r#""id":"\u0061b""#);
    assert!(reply.starts_with(r#"{"id":"ab","ok":true"#), "canonical id echoed: {reply}");
    // Over-long as written, short once decoded: the limit reads the
    // encoded id.
    let long_raw = format!(r#""id":"{}""#, r"\u0061".repeat(40));
    let reply = reply_with_id(addr, &run_line(2), &long_raw);
    assert!(reply.starts_with(&format!(r#"{{"id":"{}","ok":true"#, "a".repeat(40))), "{reply}");
    Vec::new()
}

fn null_id_on_v1(addr: SocketAddr) -> Vec<(String, String)> {
    let reply = reply_with_id(addr, &run_line(2), r#""id":null"#);
    assert!(reply.starts_with(r#"{"ok":true"#), "a null id is no id: {reply}");
    Vec::new()
}

fn over_long_id(addr: SocketAddr) -> Vec<(String, String)> {
    // 127 characters encode to 129 bytes with their quotes.
    let id = format!(r#""id":"{}""#, "x".repeat(127));
    let reply = reply_with_id(addr, &run_line(2), &id);
    assert!(reply.starts_with(r#"{"ok":false"#), "an invalid id is not echoed: {reply}");
    vec![error_of(&json::parse(&reply).expect("reply parses"))]
}

fn non_integer_id(addr: SocketAddr) -> Vec<(String, String)> {
    let reply = reply_with_id(addr, &run_line(2), r#""id":1.5"#);
    assert!(reply.starts_with(r#"{"ok":false"#), "an invalid id is not echoed: {reply}");
    vec![error_of(&json::parse(&reply).expect("reply parses"))]
}

/// A request the body checks refuse: the reply echoes the id.
fn refused_body(addr: SocketAddr, line: &str) -> Vec<(String, String)> {
    let reply = reply_with_id(addr, line, r#""id":"r""#);
    assert!(reply.starts_with(r#"{"id":"r","ok":false"#), "{reply}");
    vec![error_of(&json::parse(&reply).expect("reply parses"))]
}

fn zero_deadline(addr: SocketAddr) -> Vec<(String, String)> {
    refused_body(addr, &run_line(2).replacen('{', r#"{"deadline_ms":0,"#, 1))
}

fn run_without_source(addr: SocketAddr) -> Vec<(String, String)> {
    refused_body(addr, r#"{"type":"run","backend":"sempe"}"#)
}

fn unknown_backend(addr: SocketAddr) -> Vec<(String, String)> {
    refused_body(addr, &run_line(2).replace(r#""backend":"sempe""#, r#""backend":"gpu""#))
}

#[test]
fn server_and_router_front_doors_answer_alike() {
    let direct = Server::start(&ServiceConfig {
        workers: 2,
        frame_timeout_ms: FRAME_TIMEOUT_MS,
        idle_timeout_ms: IDLE_TIMEOUT_MS,
        ..ServiceConfig::default()
    })
    .expect("direct server");
    let shard =
        Server::start(&ServiceConfig { workers: 2, ..ServiceConfig::default() }).expect("shard");
    let router = Router::start(&RouterConfig {
        shards: vec![shard.local_addr().to_string()],
        probe_interval_ms: 50,
        retry_base_ms: 20,
        frame_timeout_ms: FRAME_TIMEOUT_MS,
        idle_timeout_ms: IDLE_TIMEOUT_MS,
        ..RouterConfig::default()
    })
    .expect("router");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = Client::connect(router.local_addr());
        c.send_line(r#"{"type":"health"}"#);
        if c.recv_json().get("shards_healthy").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "router never saw its shard healthy");
        std::thread::sleep(Duration::from_millis(20));
    }

    let cases: [(&str, Case); 13] = [
        ("oversized line", oversized_line),
        ("v2 request without an id", v2_without_id),
        ("unsupported proto and duplicate hello", bad_hellos),
        ("replayed id", replayed_id),
        ("pipelined v1 runs", pipelined_v1_runs),
        ("stalled partial frame", stalled_frame),
        ("escaped string id", escaped_string_id),
        ("null id on v1", null_id_on_v1),
        ("129-byte id", over_long_id),
        ("non-integer id", non_integer_id),
        ("deadline_ms 0", zero_deadline),
        ("run without a source", run_without_source),
        ("unknown backend", unknown_backend),
    ];
    for (name, case) in cases {
        let via_server = case(direct.local_addr());
        let via_router = case(router.local_addr());
        assert_eq!(via_server, via_router, "{name}: the front doors disagree");
        for (code, _) in &via_server {
            assert_eq!(code, "E_BAD_REQUEST", "{name}: {via_server:?}");
        }
    }

    router.shutdown();
    router.join();
    for server in [direct, shard] {
        server.shutdown();
        server.join();
    }
}

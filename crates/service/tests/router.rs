//! Router integration tests over real TCP: digest affinity into the
//! shard cache tier, fan-out stream merging (dense per-id `seq`, shard
//! provenance, byte-identical terminals), surviving a `kill -9` of a
//! shard mid-batch with zero duplicated or lost trials, the
//! circuit-breaker open → close lifecycle against a flapping shard, and
//! malformed lines and refused fan-out batches answered exactly as a
//! direct server answers them.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use sempe_core::json::{self, Json};
use sempe_service::{Router, RouterConfig, Server, ServiceConfig};

/// A program whose runtime is controlled by the patchable `n` variable
/// (~250k loop iterations per second of wall time on the simulator).
const TUNABLE: &str = r"
    secret k = 1;
    var n = 1;
    var acc = 0;
    var i = 0;
    while (i < n) bound 2000001 { acc = acc + 1; i = i + 1; }
    output acc;
";

fn fast_config(shards: Vec<String>) -> RouterConfig {
    RouterConfig {
        shards,
        probe_interval_ms: 50,
        probe_timeout_ms: 2_000,
        connect_timeout_ms: 1_000,
        request_timeout_ms: 30_000,
        retry_base_ms: 20,
        breaker_cooloff_ms: 100,
        breaker_max_cooloff_ms: 500,
        batch_fanout_min: 4,
        ..RouterConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read");
    assert!(n > 0, "unexpected EOF");
    assert!(line.ends_with('\n'), "responses are newline-terminated: {line}");
    line.trim_end().to_string()
}

fn hello(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    writeln!(stream, r#"{{"id":"hello","type":"hello","proto":2}}"#).expect("send hello");
    let resp = read_line(reader);
    let v = json::parse(&resp).expect("hello parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(v.get("streaming").and_then(Json::as_bool), Some(true), "{resp}");
}

fn roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
    let (mut stream, mut reader) = connect(addr);
    writeln!(stream, "{line}").expect("send");
    read_line(&mut reader)
}

fn run_line(n: u64) -> String {
    let source = json::escape(&TUNABLE.replace("var n = 1;", &format!("var n = {n};")));
    format!(r#"{{"type":"run","source":{source},"backend":"sempe","max_cycles":80000000}}"#)
}

fn batch_line(id: &str, ns: &[u64]) -> String {
    let inputs: Vec<String> = ns.iter().map(|n| format!(r#"{{"n":{n}}}"#)).collect();
    format!(
        r#"{{"id":"{id}","type":"batch","source":{},"backend":"sempe","inputs":[{}],"max_cycles":80000000}}"#,
        json::escape(TUNABLE),
        inputs.join(",")
    )
}

/// Poll the router's `health` op until `shards_healthy` reaches `want`.
fn wait_healthy(addr: std::net::SocketAddr, want: u64, within: Duration) -> Json {
    let deadline = Instant::now() + within;
    loop {
        let resp = roundtrip(addr, r#"{"type":"health"}"#);
        let v = json::parse(&resp).expect("health parses");
        if v.get("shards_healthy").and_then(Json::as_u64) == Some(want) {
            return v;
        }
        assert!(Instant::now() < deadline, "router never reached {want} healthy shards: {resp}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shard_row(health: &Json, idx: usize) -> &Json {
    health.get("shards").and_then(Json::as_array).expect("shard table").get(idx).expect("row")
}

#[test]
fn digest_affinity_builds_a_sharded_cache_tier() {
    let shard_a = Server::start(&ServiceConfig::default()).expect("shard a");
    let shard_b = Server::start(&ServiceConfig::default()).expect("shard b");
    let cfg = fast_config(vec![shard_a.local_addr().to_string(), shard_b.local_addr().to_string()]);
    let router = Router::start(&cfg).expect("router");
    wait_healthy(router.local_addr(), 2, Duration::from_secs(10));

    // The same program twice through the router: rendezvous hashing
    // must land both runs on the same shard, so the second run is a
    // cache hit *there* and the other shard never sees the program.
    let line = run_line(7);
    let cold = roundtrip(router.local_addr(), &line);
    assert!(cold.contains(r#""ok":true"#), "{cold}");
    let warm = roundtrip(router.local_addr(), &line);
    assert_eq!(cold, warm, "routed cache hits stay byte-identical");

    let mut hits = 0u64;
    let mut owners = 0;
    for shard in [&shard_a, &shard_b] {
        let resp = roundtrip(shard.local_addr(), r#"{"type":"stats"}"#);
        let v = json::parse(&resp).expect("stats parses");
        let cache = v.get("cache").expect("cache section");
        let entries = cache.get("entries").and_then(Json::as_u64).unwrap_or(0);
        hits += cache.get("hits").and_then(Json::as_u64).unwrap_or(0);
        if entries > 0 {
            owners += 1;
        }
    }
    assert_eq!(owners, 1, "exactly one shard owns the digest");
    assert!(hits >= 1, "the second run hit the owner's cache");

    router.shutdown();
    router.join();
    for shard in [shard_a, shard_b] {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn fanned_out_batch_merges_streams_and_terminals_byte_identically() {
    let shard_a = Server::start(&ServiceConfig::default()).expect("shard a");
    let shard_b = Server::start(&ServiceConfig::default()).expect("shard b");
    let cfg = fast_config(vec![shard_a.local_addr().to_string(), shard_b.local_addr().to_string()]);
    let router = Router::start(&cfg).expect("router");
    wait_healthy(router.local_addr(), 2, Duration::from_secs(10));

    const ITEMS: u64 = 12;
    let line = batch_line("b", &vec![3_000u64; ITEMS as usize]);

    let (mut stream, mut reader) = connect(router.local_addr());
    hello(&mut stream, &mut reader);
    writeln!(stream, "{line}").expect("send batch");

    let mut next_seq = 0u64;
    let mut items = HashSet::new();
    let mut shards_seen = HashSet::new();
    let routed_terminal = loop {
        let resp = read_line(&mut reader);
        let v = json::parse(&resp).expect("frame parses");
        assert!(resp.starts_with(r#"{"id":"b","#), "every line is id-tagged: {resp}");
        if v.get("partial").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                v.get("seq").and_then(Json::as_u64),
                Some(next_seq),
                "merged seq must be dense and monotonic: {resp}"
            );
            next_seq += 1;
            let item = v.get("item").and_then(Json::as_u64).expect("item-tagged");
            assert!(items.insert(item), "item {item} delivered twice: {resp}");
            shards_seen.insert(v.get("shard").and_then(Json::as_u64).expect("shard provenance"));
        } else {
            break resp;
        }
    };
    assert_eq!(next_seq, ITEMS, "one merged frame per trial");
    assert_eq!(items, (0..ITEMS).collect(), "every item exactly once");
    assert_eq!(shards_seen.len(), 2, "the batch actually fanned out across both shards");

    // The merged terminal must be byte-identical to the same batch
    // against a plain single server.
    let direct = Server::start(&ServiceConfig::default()).expect("direct server");
    let (mut dstream, mut dreader) = connect(direct.local_addr());
    hello(&mut dstream, &mut dreader);
    writeln!(dstream, "{line}").expect("send direct");
    let direct_terminal = loop {
        let resp = read_line(&mut dreader);
        let v = json::parse(&resp).expect("parses");
        if v.get("partial").and_then(Json::as_bool) != Some(true) {
            break resp;
        }
    };
    assert_eq!(routed_terminal, direct_terminal, "merged terminal is byte-identical");

    router.shutdown();
    router.join();
    for shard in [shard_a, shard_b, direct] {
        shard.shutdown();
        shard.join();
    }
}

/// A `sempe-serve` child process that is SIGKILLed on drop.
struct ShardProc {
    child: Child,
    addr: String,
}

impl ShardProc {
    fn spawn(tag: &str) -> ShardProc {
        let addr_file: PathBuf = std::env::temp_dir().join(format!(
            "sempe-router-test-{}-{tag}-{:?}.addr",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_sempe-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--addr-file")
            .arg(&addr_file)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn sempe-serve");
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                if !addr.trim().is_empty() {
                    break addr.trim().to_string();
                }
            }
            assert!(Instant::now() < deadline, "shard never wrote its address");
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&addr_file);
        ShardProc { child, addr }
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn killing_a_shard_mid_batch_loses_and_duplicates_nothing() {
    let mut shards = vec![ShardProc::spawn("a"), ShardProc::spawn("b")];
    let cfg = fast_config(shards.iter().map(|s| s.addr.clone()).collect());
    let router = Router::start(&cfg).expect("router");
    wait_healthy(router.local_addr(), 2, Duration::from_secs(20));

    const ITEMS: u64 = 1000;
    // Near-trivial trials: per-trial dispatch overhead (~ms) dominates,
    // so the stream runs for seconds — plenty of window to kill a shard
    // mid-chunk — without the test taking minutes.
    let ns: Vec<u64> = (0..ITEMS).map(|i| 1 + (i % 7)).collect();
    let line = batch_line("kb", &ns);

    let (mut stream, mut reader) = connect(router.local_addr());
    hello(&mut stream, &mut reader);
    writeln!(stream, "{line}").expect("send batch");

    // Read until the stream is well underway, then SIGKILL the shard
    // that produced the most recent frame — it is provably mid-chunk.
    let mut items = HashSet::new();
    let mut killed: Option<usize> = None;
    let routed_terminal = loop {
        let resp = read_line(&mut reader);
        let v = json::parse(&resp).expect("frame parses");
        if v.get("partial").and_then(Json::as_bool) == Some(true) {
            let item = v.get("item").and_then(Json::as_u64).expect("item-tagged");
            assert!(items.insert(item), "item {item} delivered twice: {resp}");
            if killed.is_none() && items.len() == 50 {
                let idx = v.get("shard").and_then(Json::as_u64).expect("shard provenance");
                let _ = shards[idx as usize].child.kill();
                let _ = shards[idx as usize].child.wait();
                killed = Some(idx as usize);
            }
        } else {
            break resp;
        }
    };
    let killed = killed.expect("a shard was killed mid-stream");
    assert_eq!(items, (0..ITEMS).collect(), "every trial exactly once despite the kill");
    let v = json::parse(&routed_terminal).expect("terminal parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{routed_terminal}");
    assert_eq!(v.get("items").and_then(Json::as_u64), Some(ITEMS), "{routed_terminal}");

    // The router visibly resubmitted work and marked the shard down.
    let resp = roundtrip(router.local_addr(), r#"{"type":"metrics","format":"prometheus"}"#);
    let text = json::parse(&resp)
        .ok()
        .and_then(|v| v.get("text").and_then(Json::as_str).map(str::to_string))
        .expect("prometheus text");
    let retries = text
        .lines()
        .find_map(|l| l.strip_prefix("router_retries_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    assert!(retries >= 1, "the killed chunk was retried: {text}");
    let health = wait_healthy(router.local_addr(), 1, Duration::from_secs(10));
    assert_eq!(
        shard_row(&health, killed).get("healthy").and_then(Json::as_bool),
        Some(false),
        "the killed shard is marked unhealthy"
    );

    // And the survivor-assembled terminal is byte-identical to a plain
    // single-server run of the same request.
    let direct = Server::start(&ServiceConfig::default()).expect("direct server");
    let (mut dstream, mut dreader) = connect(direct.local_addr());
    hello(&mut dstream, &mut dreader);
    writeln!(dstream, "{line}").expect("send direct");
    let direct_terminal = loop {
        let resp = read_line(&mut dreader);
        let v = json::parse(&resp).expect("parses");
        if v.get("partial").and_then(Json::as_bool) != Some(true) {
            break resp;
        }
    };
    assert_eq!(routed_terminal, direct_terminal, "terminal is byte-identical to a direct run");

    direct.shutdown();
    direct.join();
    router.shutdown();
    router.join();
    shards.clear();
}

#[test]
fn circuit_breaker_opens_on_a_dead_shard_and_closes_when_it_returns() {
    // Reserve a port, then leave it dead: every dial fails.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let shard_addr = format!("127.0.0.1:{port}");
    let cfg = RouterConfig { breaker_threshold: 3, ..fast_config(vec![shard_addr.clone()]) };
    let router = Router::start(&cfg).expect("router");

    // Dial failures accumulate into the breaker until it trips open.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = roundtrip(router.local_addr(), r#"{"type":"health"}"#);
        let v = json::parse(&resp).expect("health parses");
        assert_eq!(v.get("ready").and_then(Json::as_bool), Some(false), "{resp}");
        let row = shard_row(&v, 0);
        let trips = row.get("trips").and_then(Json::as_u64).unwrap_or(0);
        if trips >= 1 && row.get("breaker").and_then(Json::as_str) == Some("open") {
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {resp}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The shard comes back on the same address: the next half-open
    // probe succeeds, the breaker closes, and the router goes ready.
    let shard = Server::start(&ServiceConfig { addr: shard_addr, ..ServiceConfig::default() })
        .expect("shard restarts on the reserved port");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = roundtrip(router.local_addr(), r#"{"type":"health"}"#);
        let v = json::parse(&resp).expect("health parses");
        let row = shard_row(&v, 0);
        if v.get("ready").and_then(Json::as_bool) == Some(true)
            && row.get("breaker").and_then(Json::as_str) == Some("closed")
        {
            break;
        }
        assert!(Instant::now() < deadline, "breaker never closed after recovery: {resp}");
        std::thread::sleep(Duration::from_millis(20));
    }

    router.shutdown();
    router.join();
    shard.shutdown();
    shard.join();
}

#[test]
fn unfanned_streamed_batches_never_wait_on_delayed_acks() {
    // A 4-item batch under the fan-out threshold streams from one shard
    // through the router as a burst of small frames. With Nagle on any
    // hop, each frame behind an unacked one waits out the peer's delayed
    // ACK (40 ms on Linux); with `TCP_NODELAY` everywhere, a tiny program
    // round-trips in a few milliseconds.
    let shard_a = Server::start(&ServiceConfig::default()).expect("shard a");
    let shard_b = Server::start(&ServiceConfig::default()).expect("shard b");
    let cfg = RouterConfig {
        batch_fanout_min: 8,
        ..fast_config(vec![shard_a.local_addr().to_string(), shard_b.local_addr().to_string()])
    };
    let router = Router::start(&cfg).expect("router");
    wait_healthy(router.local_addr(), 2, Duration::from_secs(10));

    let (mut stream, mut reader) = connect(router.local_addr());
    // `writeln!` sends the line and its newline as two writes: keep the
    // client's own Nagle out of the measurement, as real clients do.
    stream.set_nodelay(true).expect("nodelay");
    hello(&mut stream, &mut reader);
    let mut trips = Vec::new();
    for round in 0..9 {
        let id = format!("s{round}");
        let started = Instant::now();
        writeln!(stream, "{}", batch_line(&id, &[1, 2, 3, 4])).expect("send batch");
        let mut frames = 0;
        let terminal = loop {
            let resp = read_line(&mut reader);
            let v = json::parse(&resp).expect("frame parses");
            if v.get("partial").and_then(Json::as_bool) != Some(true) {
                break resp;
            }
            frames += 1;
        };
        trips.push(started.elapsed());
        assert!(terminal.starts_with(&format!(r#"{{"id":"{id}","ok":true"#)), "{terminal}");
        assert_eq!(frames, 4, "one streamed frame per item");
    }
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median routed batch round trip {median:?} (a delayed-ACK stall is >= 40 ms): {trips:?}"
    );

    router.shutdown();
    router.join();
    for shard in [shard_a, shard_b] {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn lines_broken_inside_a_nested_value_get_the_direct_parse_error_at_once() {
    // Each line is a well-formed object at the top level with a broken
    // nested value. The router must reject it as the shard's parser
    // does: a router that forwarded it would get back an id-less
    // `E_PARSE` it cannot match, and the client would wait out the
    // whole request window for an `E_BUSY`.
    let shard_a = Server::start(&ServiceConfig::default()).expect("shard a");
    let shard_b = Server::start(&ServiceConfig::default()).expect("shard b");
    let cfg = fast_config(vec![shard_a.local_addr().to_string(), shard_b.local_addr().to_string()]);
    let router = Router::start(&cfg).expect("router");
    wait_healthy(router.local_addr(), 2, Duration::from_secs(10));

    let (mut stream, mut reader) = connect(router.local_addr());
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    for broken in [r#""x":[tru]"#, r#""x":"\ud800""#, r#""x":{"k" 1}"#, r#""max_cycles":[1,]"#] {
        let line = format!(r#"{{"id":"bad","type":"run","source":"output 1;",{broken}}}"#);
        let direct = roundtrip(shard_a.local_addr(), &line);
        assert!(direct.contains(r#""code":"E_PARSE""#), "{direct}");
        let started = Instant::now();
        writeln!(stream, "{line}").expect("send");
        let routed = read_line(&mut reader);
        let took = started.elapsed();
        assert_eq!(routed, direct, "the router answers {line} as a direct server does");
        assert!(took < Duration::from_secs(1), "{line} took {took:?}");
    }
    // The connection still serves valid work.
    writeln!(stream, "{}", run_line(3)).expect("send run");
    let resp = read_line(&mut reader);
    assert!(resp.contains(r#""ok":true"#), "{resp}");

    router.shutdown();
    router.join();
    for shard in [shard_a, shard_b] {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn fanned_out_batches_are_checked_and_echoed_as_a_direct_server_does() {
    // Two healthy shards and batches over `batch_fanout_min`: each line
    // below would fan out, so the router itself must refuse what a
    // direct server refuses, with the same bytes, and echo the id the
    // direct server echoes.
    let shard_a = Server::start(&ServiceConfig::default()).expect("shard a");
    let shard_b = Server::start(&ServiceConfig::default()).expect("shard b");
    let cfg = fast_config(vec![shard_a.local_addr().to_string(), shard_b.local_addr().to_string()]);
    let router = Router::start(&cfg).expect("router");
    wait_healthy(router.local_addr(), 2, Duration::from_secs(10));

    let odd_leak_check =
        batch_line("odd", &[1, 2, 3, 4, 5]).replacen(r#""type""#, r#""leak_check":true,"type""#, 1);
    let non_integer = batch_line("frac", &[1, 2, 3, 4, 5]).replacen(r#""n":2"#, r#""n":1.5"#, 1);
    for line in [odd_leak_check, non_integer] {
        let direct = roundtrip(shard_a.local_addr(), &line);
        assert!(direct.contains(r#""code":"E_BAD_REQUEST""#), "{direct}");
        assert_eq!(roundtrip(router.local_addr(), &line), direct, "{line}");
    }

    // A valid fanned-out batch sent with an escaped string id: every
    // frame and the terminal carry the canonical id.
    let line = batch_line(r"\u0062f", &[3, 3, 3, 3, 3, 3]);
    let terminal = |addr| {
        let (mut stream, mut reader) = connect(addr);
        hello(&mut stream, &mut reader);
        writeln!(stream, "{line}").expect("send batch");
        let mut shards = HashSet::new();
        loop {
            let resp = read_line(&mut reader);
            assert!(resp.starts_with(r#"{"id":"bf","#), "canonical id: {resp}");
            let v = json::parse(&resp).expect("parses");
            if v.get("partial").and_then(Json::as_bool) != Some(true) {
                break (resp, shards);
            }
            shards.extend(v.get("shard").and_then(Json::as_u64));
        }
    };
    let (routed, shards) = terminal(router.local_addr());
    let (direct, _) = terminal(shard_a.local_addr());
    assert_eq!(shards.len(), 2, "the batch fanned out across both shards");
    assert_eq!(routed, direct, "merged terminal is byte-identical");

    router.shutdown();
    router.join();
    for shard in [shard_a, shard_b] {
        shard.shutdown();
        shard.join();
    }
}

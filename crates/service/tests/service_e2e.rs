//! End-to-end tests over a real TCP daemon: the attack API closes the
//! loop on `sempe_core::attack`, and the stress test pins the acceptance
//! bar — ≥ 100 `run` requests from ≥ 8 concurrent clients with zero
//! dropped or corrupted responses and byte-identical cache hits.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use sempe_core::json::{self, Json};
use sempe_service::{FaultPlan, Server, ServiceConfig};

const MODEXP: &str = r"
    secret key = 0b1011;
    var r = 1;
    var base = 7;
    var i = 0;
    var bit = 0;
    while (i < 4) bound 5 {
        bit = (key >> i) & 1;
        if secret (bit) { r = (r * base) % 1000003; }
        base = (base * base) % 1000003;
        i = i + 1;
    }
    output r;
";

const LEAKY_IF: &str = r"
    secret s = 1;
    var acc = 0;
    var i = 0;
    if secret (s) {
        while (i < 48) bound 49 { acc = acc + i * i; i = i + 1; }
    } else {
        acc = 7;
    }
    output acc;
";

fn start(workers: usize) -> Server {
    Server::start(&ServiceConfig { workers, ..ServiceConfig::default() }).expect("server starts")
}

/// One request/response exchange on a fresh connection.
fn roundtrip(server: &Server, line: &str) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    writeln!(stream, "{line}").expect("send");
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).expect("recv");
    assert!(resp.ends_with('\n'), "responses are newline-terminated");
    resp.trim_end().to_string()
}

fn attack_line(mode: &str, candidates: &str) -> String {
    format!(
        r#"{{"type":"attack","source":{},"mode":"{mode}","candidates":{candidates},"max_cycles":80000000}}"#,
        json::escape(MODEXP)
    )
}

#[test]
fn attack_api_recovers_baseline_secret_and_is_blind_under_sempe() {
    let server = start(2);

    let resp = roundtrip(&server, &attack_line("baseline", "[11,2,15]"));
    let v = json::parse(&resp).expect("attack response parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(v.get("secret_value").and_then(Json::as_u64), Some(11));
    let timing = v.get("timing").expect("timing section");
    assert_eq!(timing.get("can_distinguish").and_then(Json::as_bool), Some(true));
    assert_eq!(timing.get("guess").and_then(Json::as_str), Some("11"));
    assert_eq!(timing.get("recovered").and_then(Json::as_bool), Some(true));
    let branch = v.get("branch").expect("branch section");
    assert!(branch.get("leaking_branches").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(branch.get("recovered").and_then(Json::as_bool), Some(true));
    assert_eq!(branch.get("recovered_key").and_then(Json::as_u64), Some(0b1011));

    let resp = roundtrip(&server, &attack_line("sempe", "[11,2,15]"));
    let v = json::parse(&resp).expect("attack response parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let timing = v.get("timing").expect("timing section");
    assert_eq!(timing.get("can_distinguish").and_then(Json::as_bool), Some(false));
    assert_eq!(timing.get("recovered").and_then(Json::as_bool), Some(false));
    let branch = v.get("branch").expect("branch section");
    assert_eq!(branch.get("leaking_branches").and_then(Json::as_u64), Some(0));
    assert_eq!(branch.get("recovered").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("trace").unwrap().get("divergent_pairs").and_then(Json::as_u64), Some(0));

    server.shutdown();
    server.join();
}

#[test]
fn timing_attack_on_asymmetric_paths_matches_paper_claim() {
    let server = start(2);
    let line = format!(
        r#"{{"type":"attack","source":{},"candidates":[0,1],"max_cycles":80000000}}"#,
        json::escape(LEAKY_IF)
    );
    let v = json::parse(&roundtrip(&server, &line)).unwrap();
    // Default mode is baseline: the long/short paths differ in time.
    assert_eq!(v.get("mode").and_then(Json::as_str), Some("baseline"));
    assert_eq!(
        v.get("timing").unwrap().get("recovered").and_then(Json::as_bool),
        Some(true),
        "baseline timing must leak the branch direction"
    );
    server.shutdown();
    server.join();
}

#[test]
fn concurrent_clients_get_byte_identical_cached_responses() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 13; // 8 × 13 = 104 ≥ 100

    let server = start(4);

    // A small request pool: distinct `run` requests across backends and
    // sources, plus a `sweep` — enough uniques to exercise the cache,
    // few enough that most traffic is served from it.
    let mut pool: Vec<String> = Vec::new();
    for backend in ["baseline", "sempe", "cte"] {
        pool.push(format!(
            r#"{{"type":"run","source":{},"backend":"{backend}","max_cycles":80000000}}"#,
            json::escape(MODEXP)
        ));
        pool.push(format!(
            r#"{{"type":"run","source":{},"backend":"{backend}","max_cycles":80000000}}"#,
            json::escape(LEAKY_IF)
        ));
    }
    pool.push(format!(
        r#"{{"type":"sweep","source":{},"max_cycles":80000000}}"#,
        json::escape(MODEXP)
    ));

    // Cold pass: one response per unique request, sequentially, so the
    // stress pass below compares against known-cold bytes.
    let mut expected: HashMap<String, String> = HashMap::new();
    for req in &pool {
        let resp = roundtrip(&server, req);
        assert!(resp.starts_with(r#"{"ok":true"#), "cold run failed: {resp}");
        expected.insert(req.clone(), resp);
    }

    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (pool, expected, failures, server) = (&pool, &expected, &failures, &server);
            s.spawn(move || {
                // One persistent connection per client, requests pipelined
                // strictly request→response.
                let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                for i in 0..REQUESTS_PER_CLIENT {
                    let req = &pool[(client + i * CLIENTS) % pool.len()];
                    writeln!(stream, "{req}").expect("send");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("recv");
                    let resp = resp.trim_end();
                    if resp != expected[req] {
                        failures.lock().unwrap().push(format!(
                            "client {client} request {i}: response diverged from cold bytes\n\
                             want: {}\n got: {resp}",
                            expected[req]
                        ));
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n---\n"));

    // The cache served the repeats, and it says so through `stats`.
    let stats = json::parse(&roundtrip(&server, r#"{"type":"stats"}"#)).unwrap();
    let jobs = stats.get("jobs_served").and_then(Json::as_u64).unwrap();
    assert!(jobs >= (CLIENTS * REQUESTS_PER_CLIENT) as u64, "served {jobs}");
    let cache = stats.get("cache").expect("cache section");
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap();
    assert!(hits >= 90, "expected overwhelming cache traffic, got {hits} hits / {misses} misses");
    assert!(cache.get("hit_rate").and_then(Json::as_f64).unwrap() > 0.5);

    server.shutdown();
    server.join();
}

#[test]
fn backpressure_rejects_rather_than_buffers() {
    // One worker, a one-slot queue, and a burst of slow-ish jobs: every
    // response must be a clean `ok` or an explicit E_BUSY rejection —
    // never a hang, a dropped connection, or a corrupted line.
    let server =
        Server::start(&ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() })
            .expect("server starts");

    let line = format!(
        r#"{{"type":"run","source":{},"backend":"sempe","max_cycles":80000000}}"#,
        json::escape(LEAKY_IF)
    );
    let outcomes: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (line, outcomes, server) = (&line, &outcomes, &server);
            s.spawn(move || {
                let resp = roundtrip(server, line);
                outcomes.lock().unwrap().push(resp);
            });
        }
    });
    let outcomes = outcomes.into_inner().unwrap();
    assert_eq!(outcomes.len(), 8);
    let ok = outcomes.iter().filter(|r| r.starts_with(r#"{"ok":true"#)).count();
    let busy = outcomes.iter().filter(|r| r.contains("\"E_BUSY\"")).count();
    assert_eq!(ok + busy, 8, "unexpected outcome mix: {outcomes:?}");
    assert!(ok >= 1, "at least one job must be served");

    let stats = json::parse(&roundtrip(&server, r#"{"type":"stats"}"#)).unwrap();
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some((8 - ok) as u64));

    server.shutdown();
    server.join();
}

#[test]
fn batch_api_runs_paired_trials_on_the_fork_server() {
    let server = start(2);
    let line = format!(
        r#"{{"type":"batch","source":{},"backend":"sempe","inputs":[{{"key":0}},{{"key":15}},{{"key":11}},{{"key":11}}],"leak_check":true,"max_cycles":80000000}}"#,
        json::escape(MODEXP)
    );
    let v = json::parse(&roundtrip(&server, &line)).expect("batch response parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("items").and_then(Json::as_u64), Some(4));
    let results = v.get("results").and_then(Json::as_array).expect("results array");
    assert_eq!(results.len(), 4);
    // Items 2 and 3 share an input vector: identical results.
    assert_eq!(results[2].encode(), results[3].encode());
    // Under SeMPE, every secret pair is indistinguishable.
    let leak = v.get("leak").expect("leak section");
    assert_eq!(leak.get("all_clear").and_then(Json::as_bool), Some(true), "{v:?}");

    // The same pairs on the unprotected baseline leak.
    let line = line.replace(r#""backend":"sempe""#, r#""backend":"baseline""#);
    let v = json::parse(&roundtrip(&server, &line)).expect("batch response parses");
    let leak = v.get("leak").expect("leak section");
    assert_eq!(leak.get("all_clear").and_then(Json::as_bool), Some(false));

    // The fork server shows up in stats, and batch responses cache.
    let stats = json::parse(&roundtrip(&server, r#"{"type":"stats"}"#)).unwrap();
    let forks = stats.get("forks").expect("forks section");
    assert!(forks.get("checkpoints").and_then(Json::as_u64).unwrap() >= 2);

    server.shutdown();
    server.join();
}

#[test]
fn compile_and_error_paths_over_the_wire() {
    let server = start(2);
    let line =
        format!(r#"{{"type":"compile","source":{},"backend":"sempe"}}"#, json::escape(MODEXP));
    let v = json::parse(&roundtrip(&server, &line)).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("taint_clean").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("secrets").and_then(Json::as_array).map(|a| a.len()), Some(1));

    let bad = roundtrip(&server, r#"{"type":"run","source":"var x = @;"}"#);
    assert!(bad.contains("\"E_WIR\""), "{bad}");
    assert!(bad.contains("parse error"), "WIR position info survives: {bad}");

    server.shutdown();
    server.join();
}

/// Regression for a stack-overflow abort: 8000 nested parens used to
/// overflow a worker's stack and take the whole daemon down. The parser's
/// depth guard turns it into an `E_WIR` reply, and the connection lives on.
#[test]
fn hostile_nesting_gets_e_wir_and_the_connection_keeps_serving() {
    let server = start(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let deep = format!("var out = 0; out = {}1{}; output out;", "(".repeat(8000), ")".repeat(8000));
    let deep = format!(r#"{{"type":"run","source":{}}}"#, json::escape(&deep));
    let next = format!(r#"{{"type":"run","source":{}}}"#, json::escape(MODEXP));
    writeln!(stream, "{deep}\n{next}").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("first");
    assert!(resp.contains("\"E_WIR\""), "{resp}");
    assert!(resp.contains("nesting deeper than 256 levels"), "{resp}");
    resp.clear();
    reader.read_line(&mut resp).expect("second");
    assert!(resp.contains("\"ok\":true"), "the same connection serves on: {resp}");
    server.shutdown();
    server.join();
}

#[test]
fn oversized_array_gets_e_wir_and_the_connection_keeps_serving() {
    let server = start(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // 4e9 words made codegen attempt a 32 GB allocation and abort.
    let huge = "array a[4000000000]; var out = 0; out = a[1]; output out;";
    let huge = format!(r#"{{"type":"run","source":{}}}"#, json::escape(huge));
    let next = format!(r#"{{"type":"run","source":{}}}"#, json::escape(MODEXP));
    writeln!(stream, "{huge}\n{next}").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("first");
    assert!(resp.contains("\"E_WIR\""), "{resp}");
    assert!(resp.contains("data segment"), "{resp}");
    resp.clear();
    reader.read_line(&mut resp).expect("second");
    assert!(resp.contains("\"ok\":true"), "the same connection serves on: {resp}");
    server.shutdown();
    server.join();
}

/// Regression for the shutdown truncation bug: `Server::join` used to
/// force-close every connection stream right after joining the workers,
/// cutting off handlers mid-write. The drain window must let an
/// in-flight response reach the client whole.
#[test]
fn shutdown_drains_in_flight_responses_without_truncation() {
    // Every response write stalls 300 ms mid-frame, so a shutdown
    // initiated while the write is in flight would truncate it without
    // the drain phase.
    let plan = FaultPlan::parse("seed=3,write_stall=1000,write_stall_ms=300").expect("plan");
    let server = Server::start(&ServiceConfig {
        workers: 1,
        drain_timeout_ms: 5_000,
        fault_plan: Some(plan),
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let line = format!(
        r#"{{"type":"run","source":{},"backend":"sempe","max_cycles":80000000}}"#,
        json::escape(LEAKY_IF)
    );
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).expect("recv");
        resp
    });
    // Let the job get accepted and (most likely) into its stalled write,
    // then pull the rug: initiate shutdown and join the server.
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();
    server.join();

    let resp = client.join().expect("client thread");
    assert!(resp.ends_with('\n'), "response truncated by shutdown: {resp:?}");
    let v = json::parse(resp.trim_end()).expect("response parses whole");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
}

#[test]
fn garbage_after_a_valid_request_keeps_the_connection_alive() {
    let server = start(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"{\"type\":\"stats\"}\n\x01\x02 not json \x7f\n{\"type\":\"stats\"}\n")
        .expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("first");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    resp.clear();
    reader.read_line(&mut resp).expect("second");
    assert!(resp.contains("\"E_PARSE\""), "garbage gets a structured error: {resp}");
    resp.clear();
    reader.read_line(&mut resp).expect("third");
    assert!(resp.contains("\"ok\":true"), "connection survives the garbage: {resp}");
    server.shutdown();
    server.join();
}

#[test]
fn oversized_frame_mid_stream_gets_an_error_and_the_stream_recovers() {
    let server = start(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // Valid request first: the connection is mid-stream, not fresh.
    writeln!(stream, r#"{{"type":"stats"}}"#).expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("stats");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // Now an oversized frame...
    let big = format!("{{\"type\":\"run\",\"source\":\"{}\"}}", "x".repeat(2 * 1024 * 1024));
    writeln!(stream, "{big}").expect("send oversized");
    resp.clear();
    reader.read_line(&mut resp).expect("error line");
    assert!(resp.contains("\"E_BAD_REQUEST\""), "{resp}");
    assert!(resp.contains("exceeds"), "{resp}");
    // ...and the very same connection keeps serving.
    writeln!(stream, r#"{{"type":"stats"}}"#).expect("send follow-up");
    resp.clear();
    reader.read_line(&mut resp).expect("follow-up");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    server.shutdown();
    server.join();
}

#[test]
fn unknown_op_with_deadline_and_id_gets_a_structured_error() {
    let server = start(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(stream, r#"{{"type":"explode","id":"x1","deadline_ms":1000}}"#).expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("error line");
    assert!(resp.starts_with(r#"{"id":"x1","#), "id echoes back: {resp}");
    assert!(resp.contains("\"E_BAD_REQUEST\""), "{resp}");
    assert!(resp.contains("unknown request type"), "{resp}");
    // The connection stays alive.
    writeln!(stream, r#"{{"type":"stats","id":"x2"}}"#).expect("send follow-up");
    resp.clear();
    reader.read_line(&mut resp).expect("follow-up");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    server.shutdown();
    server.join();
}

#[test]
fn expired_deadline_returns_e_deadline_with_partial_stats_over_the_wire() {
    let server = start(2);
    // The budget is well above the queue wait of a loaded test run, so
    // the job starts, and the loop is long enough that the budget still
    // expires mid-simulation.
    let long_loop = r"
        var i = 0;
        while (i < 20000000) bound 20000001 { i = i + 1; }
        output i;
    ";
    let line = format!(
        r#"{{"type":"run","source":{},"max_cycles":2000000000,"deadline_ms":250,"id":7}}"#,
        json::escape(long_loop)
    );
    let started = std::time::Instant::now();
    let resp = roundtrip(&server, &line);
    let elapsed = started.elapsed();
    assert!(resp.starts_with(r#"{"id":7,"#), "numeric id echoes: {resp}");
    assert!(resp.contains("\"E_DEADLINE\""), "{resp}");
    assert!(resp.contains("\"partial\""), "partial progress reported: {resp}");
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "deadline must cut the run short, took {elapsed:?}"
    );
    // The worker survives the expired request and keeps serving.
    let resp = roundtrip(&server, r#"{"type":"health"}"#);
    assert!(resp.contains("\"ready\":true"), "{resp}");
    server.shutdown();
    server.join();
}

//! Chaos soak: concurrent clients against a fault-plan-loaded server.
//!
//! The acceptance bar (ISSUE: robustness tentpole):
//!
//! * **zero hangs** — every exchange is bounded by socket timeouts and a
//!   retry budget, and the whole soak finishes;
//! * **zero lost accepted jobs** — every request converges to exactly
//!   one successful structured response (transient `E_BUSY`, crashed
//!   workers, truncated frames and dropped connections are retried);
//! * **byte-identical results** — each converged response equals the
//!   bytes a fault-free server produces for the same request.
//!
//! Knobs (all optional, for CI's fixed-seed matrix):
//!
//! | env | meaning |
//! |---|---|
//! | `SEMPE_CHAOS_PROFILE` | `panic` \| `io` \| `mixed` (default `mixed`) |
//! | `SEMPE_CHAOS_SEED` | fault-plan seed (default 1) |
//! | `SEMPE_CHAOS_REPORT` | write a JSON soak report to this path |

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sempe_core::json::{self, Json};
use sempe_service::{FaultPlan, FaultSite, Router, RouterConfig, Server, ServiceConfig};

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

/// The soak's request pool: a light mix of every compute op, including
/// one heavy (`sweep`) request that exercises load shedding.
fn request_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for backend in ["baseline", "sempe"] {
        pool.push(format!(
            r#"{{"type":"run","source":{},"backend":"{backend}","max_cycles":80000000}}"#,
            json::escape(MODEXP)
        ));
    }
    pool.push(format!(
        r#"{{"type":"run","source":{},"backend":"sempe","max_cycles":80000000}}"#,
        json::escape(LEAKY_IF)
    ));
    pool.push(format!(r#"{{"type":"compile","source":{},"backend":"cte"}}"#, json::escape(MODEXP)));
    pool.push(format!(
        r#"{{"type":"sweep","source":{},"max_cycles":80000000}}"#,
        json::escape(LEAKY_IF)
    ));
    pool.push(format!(
        r#"{{"type":"batch","source":{},"backend":"sempe","inputs":[{{"key":0}},{{"key":11}}],"max_cycles":80000000}}"#,
        json::escape(MODEXP)
    ));
    pool
}

fn chaos_profile() -> String {
    std::env::var("SEMPE_CHAOS_PROFILE").unwrap_or_else(|_| "mixed".to_string())
}

fn chaos_seed() -> u64 {
    std::env::var("SEMPE_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

fn profile_plan(profile: &str, seed: u64) -> FaultPlan {
    let spec = match profile {
        "panic" => {
            format!("seed={seed},panic_pre=250,panic_post=150,arena_corrupt=150,cache_fail=100")
        }
        "io" => format!(
            "seed={seed},accept_drop=200,accept_storm=60,read_stall=250,write_stall=250,\
             write_trunc=200,wake_lost=150,read_stall_ms=5,write_stall_ms=5"
        ),
        "mixed" => format!(
            "seed={seed},accept_drop=100,accept_storm=40,read_stall=100,write_stall=100,\
             write_trunc=100,wake_lost=100,panic_pre=100,panic_post=80,wedge=80,cache_fail=100,\
             arena_corrupt=80,read_stall_ms=3,write_stall_ms=3,wedge_ms=20"
        ),
        other => panic!("unknown SEMPE_CHAOS_PROFILE `{other}` (panic|io|mixed)"),
    };
    FaultPlan::parse(&spec).expect("profile spec parses")
}

/// One exchange on a fresh connection. `Err` is retryable: connect
/// refused/dropped, send failure, timeout, or a truncated frame.
fn one_exchange(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    stream.set_write_timeout(Some(Duration::from_secs(20))).expect("write timeout");
    writeln!(stream, "{line}").map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).map_err(|e| format!("recv: {e}"))?;
    if resp.is_empty() {
        return Err("connection dropped before any response".to_string());
    }
    if !resp.ends_with('\n') {
        return Err(format!("truncated frame ({} bytes)", resp.len()));
    }
    Ok(resp.trim_end().to_string())
}

/// Retry one request until it converges to a non-`E_BUSY` structured
/// response. Returns `(response, attempts_used)`.
fn converge(addr: SocketAddr, line: &str, budget: u32) -> Result<(String, u32), String> {
    let mut last = String::new();
    for attempt in 1..=budget {
        match one_exchange(addr, line) {
            Ok(resp) if resp.contains("\"E_BUSY\"") => last = resp,
            Ok(resp) => return Ok((resp, attempt)),
            Err(why) => last = why,
        }
        std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
    }
    Err(format!("no convergence in {budget} attempts; last outcome: {last}"))
}

/// Fault-free golden bytes for every pool request.
fn golden(pool: &[String]) -> HashMap<String, String> {
    let server = Server::start(&ServiceConfig { workers: 2, ..ServiceConfig::default() })
        .expect("baseline server");
    let addr = server.local_addr();
    let mut expected = HashMap::new();
    for req in pool {
        let (resp, _) = converge(addr, req, 3).expect("fault-free server answers");
        assert!(resp.starts_with(r#"{"ok":true"#), "golden run failed: {resp}");
        expected.insert(req.clone(), resp);
    }
    server.shutdown();
    server.join();
    expected
}

const CLIENTS: usize = 6;
const PASSES: usize = 2;
const RETRY_BUDGET: u32 = 200;

/// Run the soak's clients against one front door. Returns the total
/// attempts spent; every divergence or non-convergence panics.
fn soak(addr: SocketAddr, pool: &[String], expected: &HashMap<String, String>) -> u64 {
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let attempts_total: Mutex<u64> = Mutex::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (failures, attempts_total) = (&failures, &attempts_total);
            s.spawn(move || {
                for pass in 0..PASSES {
                    for i in 0..pool.len() {
                        // Stagger which request each client starts on so
                        // the fault sites see interleaved traffic.
                        let req = &pool[(client + i) % pool.len()];
                        match converge(addr, req, RETRY_BUDGET) {
                            Ok((resp, attempts)) => {
                                *attempts_total.lock().unwrap() += u64::from(attempts);
                                if resp != expected[req] {
                                    failures.lock().unwrap().push(format!(
                                        "client {client} pass {pass} req {i}: bytes diverged\n\
                                         want: {}\n got: {resp}",
                                        expected[req]
                                    ));
                                }
                            }
                            Err(why) => failures
                                .lock()
                                .unwrap()
                                .push(format!("client {client} pass {pass} req {i}: {why}")),
                        }
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "soak failures:\n{}", failures.join("\n---\n"));
    let attempts = attempts_total.into_inner().unwrap();
    assert!(attempts >= (CLIENTS * PASSES * pool.len()) as u64, "attempt accounting is broken");
    attempts
}

/// Sum of the per-site injection counts in a `health` reply's ledger.
fn injected_total(health: &Json) -> u64 {
    let faults = health.get("faults").expect("faults section");
    let injected = faults.get("injected").expect("injected counts");
    FaultSite::ALL.iter().filter_map(|site| injected.get(site.name()).and_then(Json::as_u64)).sum()
}

/// The soak runs twice with the same fault plan: against a chaos
/// server, and through a chaos router in front of fault-free shards
/// (the router applies the plan to its client side and to its shard
/// links). Both front doors must converge to the fault-free bytes.
#[test]
fn chaos_soak_converges_to_fault_free_bytes() {
    let profile = chaos_profile();
    let seed = chaos_seed();
    let plan = profile_plan(&profile, seed);
    let pool = request_pool();
    let expected = golden(&pool);

    let server = Server::start(&ServiceConfig {
        workers: 3,
        queue_capacity: 32,
        restart_budget: 100_000,
        backoff_base_ms: 1,
        frame_timeout_ms: 5_000,
        drain_timeout_ms: 5_000,
        fault_plan: Some(plan.clone()),
        ..ServiceConfig::default()
    })
    .expect("chaos server");
    let addr = server.local_addr();
    let started = Instant::now();
    let attempts = soak(addr, &pool, &expected);
    // Pull the health/fault ledger for the report before draining.
    let (health, _) = converge(addr, r#"{"type":"health"}"#, 50).expect("health converges");
    let health_json = json::parse(&health).expect("health parses");
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    server.shutdown();
    server.join();

    let shards: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(&ServiceConfig { workers: 2, ..ServiceConfig::default() }).expect("shard")
        })
        .collect();
    let router = Router::start(&RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        probe_interval_ms: 50,
        retry_base_ms: 20,
        breaker_cooloff_ms: 100,
        breaker_max_cooloff_ms: 500,
        frame_timeout_ms: 5_000,
        drain_timeout_ms: 5_000,
        fault_plan: Some(plan.clone()),
        seed,
        ..RouterConfig::default()
    })
    .expect("chaos router");
    let routed_started = Instant::now();
    let routed_attempts = soak(router.local_addr(), &pool, &expected);
    let (routed_health, _) =
        converge(router.local_addr(), r#"{"type":"health"}"#, 50).expect("router health");
    let routed_json = json::parse(&routed_health).expect("router health parses");
    let routed_ms = u64::try_from(routed_started.elapsed().as_millis()).unwrap_or(u64::MAX);
    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }

    if let Ok(path) = std::env::var("SEMPE_CHAOS_REPORT") {
        let routed = Json::obj()
            .with("attempts", routed_attempts)
            .with("elapsed_ms", routed_ms)
            .with("health", routed_json.clone());
        let report = Json::obj()
            .with("profile", profile.as_str())
            .with("seed", seed)
            .with("clients", CLIENTS)
            .with("passes", PASSES)
            .with("unique_requests", pool.len())
            .with("exchanges", CLIENTS * PASSES * pool.len())
            .with("attempts", attempts)
            .with("elapsed_ms", elapsed_ms)
            .with("health", health_json.clone())
            .with("routed", routed)
            .encode();
        std::fs::write(&path, report + "\n").expect("write chaos report");
    }
    // The plan actually bit: a chaos run that injected nothing proves
    // nothing. Every profile has multi-percent rates over hundreds of
    // site visits, so zero injections means mis-wiring. The router
    // only visits the connection sites, which the `panic` profile
    // leaves at zero.
    assert!(
        injected_total(&health_json) > 0,
        "fault plan never fired — injector not wired? {health}"
    );
    let router_sites = [
        FaultSite::AcceptDrop,
        FaultSite::AcceptStorm,
        FaultSite::ReadStall,
        FaultSite::WriteStall,
        FaultSite::WriteTrunc,
    ];
    if router_sites.iter().any(|&site| plan.rate(site) > 0) {
        assert!(injected_total(&routed_json) > 0, "router never injected: {routed_health}");
    }
}

/// The wedged-simulation acceptance criterion: a request whose worker
/// wedges must come back as `E_DEADLINE` close to its `deadline_ms`,
/// and the pool must stay healthy (no thread stuck in the wedge).
#[test]
fn wedged_requests_meet_their_deadline_and_the_pool_recovers() {
    let plan = FaultPlan::parse("seed=11,wedge=1000,wedge_ms=30000").expect("plan");
    let server = Server::start(&ServiceConfig {
        workers: 2,
        fault_plan: Some(plan),
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();

    let line = format!(
        r#"{{"type":"run","source":{},"backend":"sempe","max_cycles":80000000,"deadline_ms":150}}"#,
        json::escape(LEAKY_IF)
    );
    let started = Instant::now();
    let resp = one_exchange(addr, &line).expect("wedged request still answers");
    let elapsed = started.elapsed();
    assert!(resp.contains("\"E_DEADLINE\""), "{resp}");
    assert!(
        elapsed < Duration::from_millis(2_000),
        "E_DEADLINE must arrive near the 150 ms budget, took {elapsed:?}"
    );

    // Both workers must be alive and ready — the wedge honours the
    // deadline instead of pinning the thread for its full 30 s span.
    let health = one_exchange(addr, r#"{"type":"health"}"#).expect("health");
    let v = json::parse(&health).expect("health parses");
    assert_eq!(v.get("ready").and_then(Json::as_bool), Some(true), "{health}");
    let workers = v.get("workers").expect("workers");
    assert_eq!(workers.get("alive").and_then(Json::as_u64), Some(2), "{health}");
    assert!(v.get("deadlines_expired").and_then(Json::as_u64).unwrap() >= 1, "{health}");

    server.shutdown();
    server.join();
}

/// Worker crashes are supervised: with panics injected at the
/// pre-execute checkpoint, every job still converges (retries land on
/// respawned workers) and the health report shows the restarts.
#[test]
fn crashed_workers_are_respawned_and_jobs_converge() {
    let plan = FaultPlan::parse("seed=9,panic_pre=400").expect("plan");
    let server = Server::start(&ServiceConfig {
        workers: 2,
        restart_budget: 100_000,
        backoff_base_ms: 1,
        fault_plan: Some(plan),
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();

    let line = format!(
        r#"{{"type":"run","source":{},"backend":"baseline","max_cycles":80000000}}"#,
        json::escape(MODEXP)
    );
    let golden = {
        let clean = Server::start(&ServiceConfig { workers: 1, ..ServiceConfig::default() })
            .expect("baseline server");
        let (resp, _) = converge(clean.local_addr(), &line, 3).expect("clean run");
        clean.shutdown();
        clean.join();
        resp
    };

    for _ in 0..20 {
        let (resp, _) = converge(addr, &line, 100).expect("job converges despite crashes");
        assert_eq!(resp, golden, "post-crash retry must be byte-identical");
    }

    let (health, _) = converge(addr, r#"{"type":"health"}"#, 50).expect("health");
    let v = json::parse(&health).expect("health parses");
    let workers = v.get("workers").expect("workers");
    let restarts = workers.get("restarts").and_then(Json::as_u64).unwrap();
    assert!(restarts >= 1, "panic_pre at 400‰ over 20+ jobs must crash a worker: {health}");
    assert!(workers.get("alive").and_then(Json::as_u64).unwrap() >= 1, "{health}");
    assert_eq!(v.get("ready").and_then(Json::as_bool), Some(true), "{health}");

    server.shutdown();
    server.join();
}

/// The multiplexed (v2) path under its own fault sites: `register_fail`
/// panics the event loop at connection registration (its supervision
/// wrapper respawns it with a fresh poller), `accept_storm` drops whole
/// accept bursts, and `wake_lost` swallows worker→loop wakeups (the
/// loop's fallback tick must recover them). Pipelined batches of v2
/// requests must still all converge, byte-identical modulo ids.
#[test]
fn multiplexed_pipeline_survives_loop_crashes() {
    const ROUNDS: usize = 30;
    const WINDOW: usize = 4;
    const RETRY_BUDGET: u32 = 60;

    let plan =
        FaultPlan::parse("seed=5,register_fail=120,accept_storm=80,wake_lost=250").expect("plan");
    let server = Server::start(&ServiceConfig {
        workers: 2,
        restart_budget: 100_000,
        backoff_base_ms: 1,
        fault_plan: Some(plan),
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();

    // One pipelined round: fresh connection, hello upgrade, WINDOW
    // stats requests in flight at once, read until every id has its
    // terminal response. Any transport failure retries the whole round
    // on a new connection — ids stay valid there (fresh replay window).
    let run_round = |round: usize| -> Result<(), String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        stream.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
        writeln!(stream, r#"{{"id":"hello","type":"hello","proto":2}}"#)
            .map_err(|e| format!("send hello: {e}"))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("hello recv: {e}"))?;
        if !line.contains(r#""ok":true"#) || !line.contains(r#""proto":2"#) {
            return Err(format!("hello rejected: {line}"));
        }
        let mut awaiting: Vec<String> = (0..WINDOW).map(|k| format!("r{round}-{k}")).collect();
        for id in &awaiting {
            writeln!(stream, r#"{{"id":"{id}","type":"stats"}}"#)
                .map_err(|e| format!("send: {e}"))?;
        }
        while !awaiting.is_empty() {
            line.clear();
            let n = reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection dropped mid-round".to_string());
            }
            if !line.ends_with('\n') {
                return Err("truncated frame".to_string());
            }
            let v = json::parse(line.trim_end()).map_err(|e| format!("bad frame: {e}"))?;
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("structured error: {}", line.trim_end()));
            }
            let id = v.get("id").and_then(Json::as_str).unwrap_or_default().to_string();
            awaiting.retain(|a| a != &id);
        }
        Ok(())
    };

    for round in 0..ROUNDS {
        let mut last = String::new();
        let mut converged = false;
        for attempt in 1..=RETRY_BUDGET {
            match run_round(round) {
                Ok(()) => {
                    converged = true;
                    break;
                }
                Err(why) => last = why,
            }
            std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
        }
        assert!(converged, "round {round} never converged; last outcome: {last}");
    }

    // The new sites must actually have fired, and the loop must have
    // been respawned at least once — scraped from the same registry the
    // `metrics` op serves.
    let (resp, _) = converge(addr, r#"{"type":"metrics"}"#, 50).expect("metrics converges");
    let v = json::parse(&resp).expect("metrics parses");
    let snap = v.get("metrics").expect("snapshot");
    let counter = |name: &str| {
        snap.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    let injected: u64 = ["accept_storm", "register_fail", "wake_lost"]
        .iter()
        .map(|site| counter(&format!("faults_injected_total{{site=\"{site}\"}}")))
        .sum();
    assert!(injected > 0, "multiplexed-path fault sites never fired: {resp}");
    assert!(
        counter("loop_restarts_total") >= 1,
        "register_fail at 120‰ over {ROUNDS}+ connections must crash the loop: {resp}"
    );

    server.shutdown();
    server.join();
}

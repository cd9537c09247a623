//! `sempe-client` — CLI client for the evaluation daemon.
//!
//! ```text
//! sempe-client [--addr HOST:PORT] <command> [options]
//!
//! commands:
//!   compile  --source FILE|-  [--backend baseline|sempe|cte]
//!   run      --source FILE|-  [--backend B] [--mode detailed|tiered]
//!            [--max-cycles N]
//!   sweep    --source FILE|-  [--max-cycles N]
//!   attack   --source FILE|-  [--mode baseline|sempe] [--secret NAME]
//!            [--secret-value N] [--candidates A,B,...] [--max-cycles N]
//!   batch    --source FILE|-  --inputs '[{"var":N,...},...]' [--backend B]
//!            [--mode detailed|tiered] [--leak-check] [--max-cycles N]
//!   stats
//!   health
//!   metrics  [--prometheus]
//!   shutdown
//!   raw      '<json request line>'
//! ```
//!
//! `metrics` fetches one self-consistent telemetry snapshot. By default
//! the JSON response line is printed verbatim; `--prometheus` asks the
//! server for the text rendering and prints the exposition text itself
//! (ready to pipe into a scrape file).
//!
//! `--source -` reads WIR from stdin. Response lines are printed to
//! stdout verbatim; the exit code is 0 when every response carries
//! `"ok":true`, 2 when any is a server error, 1 for usage/transport
//! problems. `--addr` defaults to `$SEMPE_ADDR` or `127.0.0.1:4870`.
//!
//! ## Repetition and pipelining
//!
//! `--repeat N` sends the request N times over **one persistent
//! connection** (reconnecting transparently if it drops). With an
//! explicit `--id X` each repetition is tagged `X-0`, `X-1`, … so the
//! per-connection replay window doesn't reject the reuse.
//!
//! `--pipeline N` upgrades the connection to protocol v2 (`hello`) and
//! keeps up to N requests in flight at once; responses — including
//! streamed `"partial":true` frames for `batch`/`sweep` — are printed
//! in **arrival order** and matched back to their request by id. Every
//! pipelined request gets an id (`req-{k}`, or `{--id}-{k}`).
//!
//! ## Resilience
//!
//! Every request is idempotent server-side (responses are
//! content-addressed), so transient failures — connection refused, a
//! dropped/truncated response frame, or an `E_BUSY` backpressure
//! rejection — are retried up to `--retries` times (default 3) with
//! jittered exponential backoff starting at `--retry-base-ms` (default
//! 50). Retries back off **per request**: in pipelined mode a busy
//! rejection parks only that request until its due time while the rest
//! of the window keeps moving. A dropped connection is re-dialed,
//! re-upgraded, and every unanswered request is reissued. `--retries 0`
//! restores strict one-shot behavior. Structured errors other than
//! `E_BUSY` are never retried. `--deadline-ms N` attaches a compute
//! budget the server enforces (`E_DEADLINE`), and `--id TOKEN` tags
//! requests so responses can be correlated. `--connect-timeout-ms N`
//! bounds each dial (nonblocking connect + poll) so a blackholed or
//! unroutable server fails fast instead of hanging on the OS default —
//! combine with `--retries` to fail over quickly when a router or
//! server is being restarted.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime};

use sempe_core::json::Json;
use sempe_service::net;

const DEFAULT_ADDR: &str = "127.0.0.1:4870";
const DEFAULT_RETRIES: u32 = 3;
const DEFAULT_RETRY_BASE_MS: u64 = 50;
/// Poll granularity while waiting for pipelined responses.
const POLL_MS: u64 = 50;

struct Options {
    addr: String,
    command: String,
    source: Option<String>,
    backend: Option<String>,
    mode: Option<String>,
    secret: Option<String>,
    secret_value: Option<u64>,
    candidates: Option<Vec<u64>>,
    max_cycles: Option<u64>,
    inputs: Option<String>,
    leak_check: bool,
    raw: Option<String>,
    prometheus: bool,
    deadline_ms: Option<u64>,
    id: Option<String>,
    retries: u32,
    retry_base_ms: u64,
    repeat: u64,
    pipeline: usize,
    connect_timeout_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sempe-client [--addr HOST:PORT] \
         <compile|run|sweep|attack|batch|stats|health|metrics|shutdown|raw> \
         [--source FILE|-] [--backend B] [--mode M] [--secret NAME] [--secret-value N] \
         [--candidates A,B,...] [--inputs JSON] [--leak-check] [--max-cycles N] \
         [--prometheus] [--deadline-ms N] [--id TOKEN] [--retries N] [--retry-base-ms N] \
         [--repeat N] [--pipeline N] [--connect-timeout-ms N] ['<json>']"
    );
    std::process::exit(1);
}

fn fail(msg: &str) -> ! {
    eprintln!("sempe-client: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: std::env::var("SEMPE_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.to_string()),
        command: String::new(),
        source: None,
        backend: None,
        mode: None,
        secret: None,
        secret_value: None,
        candidates: None,
        max_cycles: None,
        inputs: None,
        leak_check: false,
        raw: None,
        prometheus: false,
        deadline_ms: None,
        id: None,
        retries: DEFAULT_RETRIES,
        retry_base_ms: DEFAULT_RETRY_BASE_MS,
        repeat: 1,
        pipeline: 1,
        connect_timeout_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--source" => opts.source = Some(value("--source")),
            "--backend" => opts.backend = Some(value("--backend")),
            "--mode" => opts.mode = Some(value("--mode")),
            "--secret" => opts.secret = Some(value("--secret")),
            "--secret-value" => {
                opts.secret_value = Some(
                    value("--secret-value")
                        .parse()
                        .unwrap_or_else(|_| fail("--secret-value must be a non-negative integer")),
                );
            }
            "--candidates" => {
                let list = value("--candidates")
                    .split(',')
                    .map(|s| s.trim().parse::<u64>())
                    .collect::<Result<Vec<u64>, _>>()
                    .unwrap_or_else(|_| fail("--candidates must be comma-separated integers"));
                opts.candidates = Some(list);
            }
            "--max-cycles" => {
                opts.max_cycles = Some(
                    value("--max-cycles")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-cycles must be an integer")),
                );
            }
            "--inputs" => opts.inputs = Some(value("--inputs")),
            "--leak-check" => opts.leak_check = true,
            "--prometheus" => opts.prometheus = true,
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value("--deadline-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--deadline-ms must be a positive integer")),
                );
            }
            "--id" => opts.id = Some(value("--id")),
            "--retries" => {
                opts.retries = value("--retries")
                    .parse()
                    .unwrap_or_else(|_| fail("--retries must be a non-negative integer"));
            }
            "--retry-base-ms" => {
                opts.retry_base_ms = value("--retry-base-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--retry-base-ms must be an integer"));
            }
            "--repeat" => {
                opts.repeat = value("--repeat")
                    .parse()
                    .unwrap_or_else(|_| fail("--repeat must be a positive integer"));
                if opts.repeat == 0 {
                    fail("--repeat must be at least 1");
                }
            }
            "--pipeline" => {
                opts.pipeline = value("--pipeline")
                    .parse()
                    .unwrap_or_else(|_| fail("--pipeline must be a positive integer"));
                if opts.pipeline == 0 {
                    fail("--pipeline must be at least 1");
                }
            }
            "--connect-timeout-ms" => {
                let ms: u64 = value("--connect-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--connect-timeout-ms must be a positive integer"));
                if ms == 0 {
                    fail("--connect-timeout-ms must be at least 1");
                }
                opts.connect_timeout_ms = Some(ms);
            }
            "--help" | "-h" => usage(),
            other if opts.command.is_empty() && !other.starts_with('-') => {
                opts.command = other.to_string();
            }
            other if opts.command == "raw" && opts.raw.is_none() => {
                opts.raw = Some(other.to_string());
            }
            other => fail(&format!("unexpected argument `{other}`")),
        }
    }
    if opts.command.is_empty() {
        usage();
    }
    opts
}

fn read_source(opts: &Options) -> String {
    let Some(path) = &opts.source else { fail("this command needs --source FILE|-") };
    if path == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .unwrap_or_else(|e| fail(&format!("reading stdin: {e}")));
        src
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
    }
}

/// The request body as JSON — **without** an id, which the send path
/// splices per repetition/attempt so the server's per-connection replay
/// window never rejects a legitimate resend.
fn build_body(opts: &Options) -> Json {
    let with_deadline = |mut req: Json, opts: &Options| -> Json {
        if let Some(ms) = opts.deadline_ms {
            req.set("deadline_ms", ms);
        }
        req
    };
    match opts.command.as_str() {
        "compile" | "run" => {
            let mut req =
                Json::obj().with("type", opts.command.as_str()).with("source", read_source(opts));
            if let Some(b) = &opts.backend {
                req.set("backend", b.as_str());
            }
            if opts.command == "run" {
                if let Some(m) = &opts.mode {
                    req.set("mode", m.as_str());
                }
                if let Some(n) = opts.max_cycles {
                    req.set("max_cycles", n);
                }
            }
            with_deadline(req, opts)
        }
        "sweep" => {
            let mut req = Json::obj().with("type", "sweep").with("source", read_source(opts));
            if let Some(n) = opts.max_cycles {
                req.set("max_cycles", n);
            }
            with_deadline(req, opts)
        }
        "attack" => {
            let mut req = Json::obj().with("type", "attack").with("source", read_source(opts));
            if let Some(m) = &opts.mode {
                req.set("mode", m.as_str());
            }
            if let Some(s) = &opts.secret {
                req.set("secret", s.as_str());
            }
            if let Some(v) = opts.secret_value {
                req.set("secret_value", v);
            }
            if let Some(c) = &opts.candidates {
                req.set("candidates", c.clone());
            }
            if let Some(n) = opts.max_cycles {
                req.set("max_cycles", n);
            }
            with_deadline(req, opts)
        }
        "batch" => {
            let raw = opts
                .inputs
                .as_deref()
                .unwrap_or_else(|| fail("batch needs --inputs '[{\"var\":value,...},...]'"));
            let inputs = sempe_core::json::parse(raw)
                .unwrap_or_else(|e| fail(&format!("--inputs is not valid JSON: {e}")));
            let mut req = Json::obj()
                .with("type", "batch")
                .with("source", read_source(opts))
                .with("inputs", inputs);
            if let Some(b) = &opts.backend {
                req.set("backend", b.as_str());
            }
            if let Some(m) = &opts.mode {
                req.set("mode", m.as_str());
            }
            if opts.leak_check {
                req.set("leak_check", true);
            }
            if let Some(n) = opts.max_cycles {
                req.set("max_cycles", n);
            }
            with_deadline(req, opts)
        }
        "stats" => with_deadline(Json::obj().with("type", "stats"), opts),
        "health" => with_deadline(Json::obj().with("type", "health"), opts),
        "metrics" => {
            let mut req = Json::obj().with("type", "metrics");
            if opts.prometheus {
                req.set("format", "prometheus");
            }
            with_deadline(req, opts)
        }
        "shutdown" => with_deadline(Json::obj().with("type", "shutdown"), opts),
        "raw" => {
            let raw = opts.raw.as_deref().unwrap_or_else(|| fail("raw needs a JSON argument"));
            sempe_core::json::parse(raw)
                .unwrap_or_else(|e| fail(&format!("raw request is not valid JSON: {e}")))
        }
        other => fail(&format!("unknown command `{other}`")),
    }
}

fn render(body: &Json, id: Option<&str>) -> String {
    match id {
        Some(id) => {
            let mut req = body.clone();
            req.set("id", id);
            req.encode()
        }
        None => body.encode(),
    }
}

/// Deterministic-enough jitter without a PRNG dependency: hash the
/// clock's nanoseconds through a splitmix64 round.
fn jitter_ms(cap: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    let mut z = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % cap.max(1)
}

fn backoff(attempt: u32, base_ms: u64) -> Duration {
    let exp = base_ms.saturating_mul(1 << attempt.min(6)).min(5_000);
    Duration::from_millis(exp + jitter_ms(exp.max(1)))
}

/// A persistent connection with incremental line framing, so a read
/// timeout mid-response never loses the bytes already received.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Dial `addr`; with a timeout each resolved address gets a bounded
    /// nonblocking connect + poll, so a blackholed server fails fast
    /// instead of hanging on the OS default (minutes).
    fn dial(addr: &str, connect_timeout: Option<Duration>) -> Result<Conn, String> {
        let stream =
            net::dial(addr, connect_timeout).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("send: {e}"))
    }

    fn buffered_line(&mut self) -> Option<String> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
        self.buf.drain(..=nl);
        Some(line)
    }

    /// Next complete response line. `timeout: None` blocks until a line
    /// or a transport error; with a timeout, `Ok(None)` means "nothing
    /// whole yet". EOF with a partial line buffered is reported as a
    /// truncation (the fragment must not be trusted or printed).
    fn read_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, String> {
        loop {
            if let Some(line) = self.buffered_line() {
                return Ok(Some(line));
            }
            self.stream.set_read_timeout(timeout).map_err(|e| format!("recv: {e}"))?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        "server closed the connection".to_string()
                    } else {
                        "response frame truncated".to_string()
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

fn error_code(response: &str) -> Option<String> {
    sempe_core::json::parse(response.trim_end())
        .ok()
        .filter(|v| v.get("ok").and_then(Json::as_bool) != Some(true))
        .and_then(|v| v.get("code").and_then(|c| c.as_str().map(String::from)))
}

fn is_partial(response: &str) -> bool {
    sempe_core::json::parse(response.trim_end())
        .ok()
        .and_then(|v| v.get("partial").and_then(Json::as_bool))
        == Some(true)
}

/// Sequential mode: one request at a time over a persistent connection,
/// `--repeat` times. Returns true when every response was `"ok":true`.
fn run_sequential(opts: &Options, body: &Json) -> bool {
    let mut conn: Option<Conn> = None;
    let mut all_ok = true;
    for rep in 0..opts.repeat {
        let base_id =
            opts.id.as_ref().map(
                |id| {
                    if opts.repeat > 1 {
                        format!("{id}-{rep}")
                    } else {
                        id.clone()
                    }
                },
            );
        let mut attempt = 0u32;
        let response = loop {
            // A resend on the same connection needs a fresh id: the
            // original was already admitted into the replay window.
            let id = match (&base_id, attempt) {
                (Some(id), 0) => Some(id.clone()),
                (Some(id), a) => Some(format!("{id}-r{a}")),
                (None, _) => None,
            };
            let line = render(body, id.as_deref());
            let outcome = (|| -> Result<String, String> {
                if conn.is_none() {
                    conn = Some(Conn::dial(
                        &opts.addr,
                        opts.connect_timeout_ms.map(Duration::from_millis),
                    )?);
                }
                let c = conn.as_mut().expect("just dialed");
                c.send(&line)?;
                loop {
                    match c.read_line(None)? {
                        Some(resp) if is_partial(&resp) => println!("{resp}"),
                        Some(resp) => return Ok(resp),
                        None => {}
                    }
                }
            })();
            match outcome {
                Ok(resp)
                    if error_code(&resp).as_deref() == Some("E_BUSY") && attempt < opts.retries =>
                {
                    eprintln!(
                        "sempe-client: server busy, retrying ({}/{})",
                        attempt + 1,
                        opts.retries
                    );
                }
                Ok(resp) => break resp,
                Err(why) => {
                    conn = None;
                    if attempt >= opts.retries {
                        fail(&why);
                    }
                    eprintln!("sempe-client: {why}; retrying ({}/{})", attempt + 1, opts.retries);
                }
            }
            std::thread::sleep(backoff(attempt, opts.retry_base_ms));
            attempt += 1;
        };
        // `metrics --prometheus`: unwrap the exposition text out of the
        // response envelope so the output pipes into a scrape file.
        if opts.command == "metrics" && opts.prometheus {
            if let Ok(v) = sempe_core::json::parse(response.trim_end()) {
                if v.get("ok").and_then(Json::as_bool) == Some(true) {
                    if let Some(text) = v.get("text").and_then(|t| t.as_str()) {
                        print!("{text}");
                        continue;
                    }
                }
            }
        }
        println!("{}", response.trim_end());
        match sempe_core::json::parse(response.trim_end()) {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {}
            Ok(_) => all_ok = false,
            Err(e) => fail(&format!("unparseable response: {e}")),
        }
    }
    all_ok
}

/// One pipelined request: its stable index, current wire id, and how
/// many times it has been retried.
struct Slot {
    index: u64,
    attempt: u32,
}

/// Pipelined mode: upgrade to v2, keep up to `--pipeline` requests in
/// flight, print responses in arrival order. Returns true when every
/// terminal response was `"ok":true`.
fn run_pipelined(opts: &Options, body: &Json) -> bool {
    let base = opts.id.clone().unwrap_or_else(|| "req".to_string());
    let wire_id = |index: u64, attempt: u32| {
        if attempt == 0 {
            format!("{base}-{index}")
        } else {
            format!("{base}-{index}-r{attempt}")
        }
    };

    let mut conn: Option<Conn> = None;
    let mut inflight: HashMap<String, Slot> = HashMap::new();
    let mut issue: Vec<Slot> =
        (0..opts.repeat).rev().map(|index| Slot { index, attempt: 0 }).collect();
    let mut parked: Vec<(Instant, Slot)> = Vec::new();
    let mut done = 0u64;
    let mut all_ok = true;
    let mut transport_failures = 0u32;

    while done < opts.repeat {
        // (Re)connect and upgrade; unanswered requests go back to the
        // issue stack — a fresh connection has a fresh replay window, so
        // their current ids remain valid.
        if conn.is_none() {
            issue.extend(inflight.drain().map(|(_, slot)| slot));
            match (|| -> Result<Conn, String> {
                let mut c =
                    Conn::dial(&opts.addr, opts.connect_timeout_ms.map(Duration::from_millis))?;
                c.send(&render(
                    &Json::obj().with("type", "hello").with("proto", 2u64),
                    Some("hello"),
                ))?;
                let resp = c
                    .read_line(Some(Duration::from_secs(10)))?
                    .ok_or_else(|| "hello timed out".to_string())?;
                let v = sempe_core::json::parse(resp.trim_end())
                    .map_err(|e| format!("hello response unparseable: {e}"))?;
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("hello rejected: {}", resp.trim_end()));
                }
                Ok(c)
            })() {
                Ok(c) => {
                    conn = Some(c);
                    transport_failures = 0;
                }
                Err(why) => {
                    if transport_failures >= opts.retries {
                        fail(&why);
                    }
                    eprintln!(
                        "sempe-client: {why}; reconnecting ({}/{})",
                        transport_failures + 1,
                        opts.retries
                    );
                    std::thread::sleep(backoff(transport_failures, opts.retry_base_ms));
                    transport_failures += 1;
                    continue;
                }
            }
        }

        let now = Instant::now();
        // Busy-parked requests whose backoff has elapsed rejoin the line.
        let mut i = 0;
        while i < parked.len() {
            if parked[i].0 <= now {
                issue.push(parked.swap_remove(i).1);
            } else {
                i += 1;
            }
        }

        // Fill the window.
        let outcome = (|| -> Result<(), String> {
            let c = conn.as_mut().expect("connected above");
            while inflight.len() < opts.pipeline {
                let Some(slot) = issue.pop() else { break };
                let id = wire_id(slot.index, slot.attempt);
                c.send(&render(body, Some(&id)))?;
                inflight.insert(id, slot);
            }
            if inflight.is_empty() {
                return Ok(());
            }
            // Wake early enough to reissue the next parked request.
            let timeout = parked
                .iter()
                .map(|(due, _)| due.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(POLL_MS))
                .min(Duration::from_millis(POLL_MS))
                .max(Duration::from_millis(1));
            let Some(resp) = c.read_line(Some(timeout))? else { return Ok(()) };
            println!("{}", resp.trim_end());
            if is_partial(&resp) {
                return Ok(());
            }
            let rid = sempe_core::json::parse(resp.trim_end()).ok().and_then(|v| {
                v.get("id").map(|id| match id.as_str() {
                    Some(s) => s.to_string(),
                    None => id.encode(),
                })
            });
            let Some(rid) = rid else { return Ok(()) };
            let Some(slot) = inflight.remove(&rid) else { return Ok(()) };
            if error_code(&resp).as_deref() == Some("E_BUSY") && slot.attempt < opts.retries {
                let due = Instant::now() + backoff(slot.attempt, opts.retry_base_ms);
                eprintln!(
                    "sempe-client: {rid} busy, retrying ({}/{})",
                    slot.attempt + 1,
                    opts.retries
                );
                parked.push((due, Slot { index: slot.index, attempt: slot.attempt + 1 }));
                return Ok(());
            }
            done += 1;
            if error_code(&resp).is_some()
                || sempe_core::json::parse(resp.trim_end())
                    .ok()
                    .and_then(|v| v.get("ok").and_then(Json::as_bool))
                    != Some(true)
            {
                all_ok = false;
            }
            Ok(())
        })();
        if let Err(why) = outcome {
            conn = None;
            if transport_failures >= opts.retries {
                fail(&why);
            }
            eprintln!(
                "sempe-client: {why}; reconnecting ({}/{})",
                transport_failures + 1,
                opts.retries
            );
            std::thread::sleep(backoff(transport_failures, opts.retry_base_ms));
            transport_failures += 1;
        }
        // Nothing in flight and nothing issuable: everything is parked —
        // sleep until the earliest due time instead of spinning.
        if conn.is_some() && inflight.is_empty() && issue.is_empty() && done < opts.repeat {
            if let Some(due) = parked.iter().map(|(due, _)| *due).min() {
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait.min(Duration::from_millis(500)));
                }
            }
        }
    }
    all_ok
}

fn main() -> ExitCode {
    let opts = parse_args();
    let body = build_body(&opts);
    let all_ok =
        if opts.pipeline > 1 { run_pipelined(&opts, &body) } else { run_sequential(&opts, &body) };
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

//! The `service-batch` workload: 64-trial `batch` requests through a
//! `Router` in front of two single-worker shards, protocol v2 with
//! streamed per-trial frames.
//!
//! Two connections, each a closed loop with one batch in flight, and
//! two request classes that alternate:
//!
//! * `calib` — windowed table modexp on baseline, 64 candidate keys:
//!   restore-heavy (the 512 KiB image is restored in full whenever a
//!   shard's worker switches programs) and membound;
//! * `leak` — modexp on sempe with `leak_check`, 32 secret pairs:
//!   trace-heavy, with large responses.
//!
//! Fork restore, forked simulation, router fan-out and merge and
//! large-response encoding dominate here; none of them runs in
//! `service-cold`, and compile runs once per request.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sempe_compile::{compile, parse_wir, to_source, CompiledWorkload, VarId};
use sempe_core::json::{self, Json};
use sempe_core::telemetry::Span;
use sempe_service::exec::execute_traced;
use sempe_service::protocol::{ExecMode, DEFAULT_MAX_CYCLES};
use sempe_service::{
    Arena, BackendSel, ForkCache, Request, Router, RouterConfig, Server, ServiceConfig,
};
use sempe_sim::{SimConfig, Simulator};
use sempe_workloads::rng::SplitMix64;
use sempe_workloads::rsa::{modexp_program, table_modexp_program, ModexpParams, TableModexpParams};

use crate::client::{self, strip_id, Conn};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{self, SpanRec, Tracer};
use crate::{metric, more_setup, sample_rss, sampled, Cfg, Metric, Outcome, Window, LAYERS};

const CONNS: usize = 2;
const TRIALS: usize = 64;
/// Per-batch budget; a failed or refused batch counts as taking this
/// long (it misses every latency limit).
const DEADLINE_MS: u64 = 30_000;
/// Words of the `calib` table the program reads. The service caps a
/// source at 64 KiB, so the literal table is 32 KiB; the declaration is
/// widened to 512 KiB of zero-filled words, which keeps the program's
/// results unchanged and makes its image (and every full restore of it)
/// the 512 KiB the class is defined by.
const CALIB_TABLE_WORDS: usize = 1 << 12;
const CALIB_IMAGE_WORDS: usize = 1 << 16;
const CALIB_BITS: u32 = 16;
const LEAK_BITS: u32 = 12;
/// Batches per class replayed layer by layer in a traced run.
const REPLAYS_PER_CLASS: usize = 6;
/// Small-batch pairs timed routed and direct for `router.hop_us`. Four
/// items stay under the router's fan-out threshold, so the pair
/// differs only by the hop.
const HOP_PAIRS: usize = 24;
const HOP_ITEMS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Calib,
    Leak,
}

struct Programs {
    calib: String,
    leak: String,
}

fn programs(seed: u64) -> Programs {
    let mut rng = SplitMix64::new(seed);
    let (table, _) = table_modexp_program(&TableModexpParams {
        table_words: CALIB_TABLE_WORDS,
        bits: CALIB_BITS,
        key: rng.next_u64(),
    });
    let calib = to_source(&table, &[]).replacen(
        &format!("array tab[{CALIB_TABLE_WORDS}]"),
        &format!("array tab[{CALIB_IMAGE_WORDS}]"),
        1,
    );
    let leak = to_source(
        &modexp_program(&ModexpParams {
            base: rng.range_inclusive(2, 1_000_000),
            exponent: rng.next_u64(),
            bits: LEAK_BITS,
            ..ModexpParams::default()
        }),
        &[],
    );
    Programs { calib, leak }
}

/// The input vectors of batch `k` on connection `conn`: `(class,
/// variable, values)`; a pure function of the seed, so replays
/// regenerate what was sent.
fn inputs(seed: u64, conn: usize, k: u64, items: usize) -> (Class, &'static str, Vec<u64>) {
    let mut rng =
        SplitMix64::new(seed ^ (k << 8 | conn as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let values = (0..items).map(|_| rng.next_u64()).collect();
    if (k + conn as u64).is_multiple_of(2) {
        (Class::Calib, "key", values)
    } else {
        (Class::Leak, "e", values)
    }
}

fn request_line(p: &Programs, id: &str, class: Class, var: &str, values: &[u64]) -> String {
    let (source, backend, leak) = match class {
        Class::Calib => (&p.calib, "baseline", false),
        Class::Leak => (&p.leak, "sempe", true),
    };
    let items: Vec<String> = values.iter().map(|v| format!(r#"{{"{var}":{v}}}"#)).collect();
    format!(
        r#"{{"id":"{id}","type":"batch","source":{},"backend":"{backend}","inputs":[{}],"leak_check":{leak},"deadline_ms":{DEADLINE_MS}}}"#,
        json::escape(source),
        items.join(",")
    )
}

/// Read one streamed batch: `(terminal line, frames, frames dense)`.
fn read_stream(conn: &mut Conn) -> std::io::Result<(String, usize, bool)> {
    let mut frames = 0;
    let mut dense = true;
    loop {
        let line = conn.recv()?;
        if !line.contains(r#""partial":true"#) {
            return Ok((line, frames, dense));
        }
        let seq = line.split_once(r#""seq":"#).and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit()).next()?.parse::<usize>().ok()
        });
        dense &= seq == Some(frames);
        frames += 1;
    }
}

/// One completed (or failed) batch.
struct Rec {
    conn: usize,
    k: u64,
    class: Class,
    ok: bool,
    latency_us: f64,
    frames: usize,
    dense: bool,
    /// `leak.all_clear` of a `leak` batch.
    all_clear: Option<bool>,
    /// One seeded `calib` item: `(input value, reported cycles)`.
    probe: Option<(u64, u64)>,
    /// The reply body, kept for batches replayed in-process.
    body: Option<String>,
    /// Id shared by the batch's spans: connection << 32 | batch number.
    req: u64,
}

/// Inspect a terminal reply off the latency clock.
fn inspect(rec: &mut Rec, values: &[u64], body: &str, keep: bool) {
    let Ok(v) = json::parse(body) else { return };
    let results = v.get("results").and_then(Json::as_array).unwrap_or(&[]);
    match rec.class {
        Class::Leak => {
            rec.all_clear = v.get("leak").and_then(|l| l.get("all_clear")).and_then(Json::as_bool);
        }
        Class::Calib => {
            let i = (rec.k as usize * 7 + rec.conn) % values.len();
            let cycles = results.get(i).and_then(|r| r.get("cycles")).and_then(Json::as_u64);
            rec.probe = cycles.map(|c| (values[i], c));
        }
    }
    if keep {
        rec.body = Some(body.to_string());
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    conn_idx: usize,
    next_k: &mut u64,
    progs: &Programs,
    seed: u64,
    end: Instant,
    tracer: &mut Tracer,
) -> Vec<Rec> {
    let mut recs: Vec<Rec> = Vec::new();
    while Instant::now() < end {
        let k = *next_k;
        *next_k += 1;
        let (class, var, values) = inputs(seed, conn_idx, k, TRIALS);
        let line = request_line(progs, &format!("b{conn_idx}-{k}"), class, var, &values);
        let req = (conn_idx as u64) << 32 | k;
        let span = tracer.open("client.batch", req, None);
        let t0 = Instant::now();
        let reply = conn.send(&line).and_then(|()| read_stream(conn));
        let elapsed = t0.elapsed();
        tracer.close(span);
        let mut rec = Rec {
            conn: conn_idx,
            k,
            class,
            ok: false,
            latency_us: DEADLINE_MS as f64 * 1e3,
            frames: 0,
            dense: false,
            all_clear: None,
            probe: None,
            body: None,
            req,
        };
        match reply {
            Ok((terminal, frames, dense)) => {
                rec.frames = frames;
                rec.dense = dense;
                if let Some(body) = strip_id(&terminal).filter(|b| b.starts_with(r#"{"ok":true"#)) {
                    rec.ok = true;
                    rec.latency_us = elapsed.as_secs_f64() * 1e6;
                    let keep = tracer.is_on()
                        && recs.iter().filter(|r| r.class == class).count() < REPLAYS_PER_CLASS;
                    inspect(&mut rec, &values, &body, keep);
                }
            }
            Err(_) => {
                // Transport failure: one reconnect, else stop this loop.
                let fresh = Conn::connect(conn.peer()).and_then(|mut c| c.hello().map(|()| c));
                match fresh {
                    Ok(c) => *conn = c,
                    Err(_) => {
                        recs.push(rec);
                        break;
                    }
                }
            }
        }
        recs.push(rec);
    }
    recs
}

struct Rig {
    shards: Vec<Server>,
    router: Router,
    conns: Vec<Conn>,
}

impl Rig {
    fn stop(self) {
        drop(self.conns);
        self.router.shutdown();
        self.router.join();
        for s in self.shards {
            s.shutdown();
            s.join();
        }
    }

    fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(Server::local_addr).collect()
    }
}

/// `metrics` snapshots of both shards and the router.
struct Scrape {
    shards: Vec<Json>,
    router: Json,
}

fn scrape(router: SocketAddr, shards: &[SocketAddr]) -> Result<Scrape, String> {
    let err = |e: std::io::Error| format!("metrics scrape: {e}");
    Ok(Scrape {
        shards: shards.iter().map(|a| client::scrape(*a)).collect::<Result<_, _>>().map_err(err)?,
        router: client::scrape(router).map_err(err)?,
    })
}

fn setup(seed: u64, progs: &Programs) -> Result<Rig, String> {
    let shard_cfg = ServiceConfig { workers: 1, ..ServiceConfig::default() };
    let shards = vec![
        Server::start(&shard_cfg).map_err(|e| format!("shard start: {e}"))?,
        Server::start(&shard_cfg).map_err(|e| format!("shard start: {e}"))?,
    ];
    let router = Router::start(&RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router start: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health =
            Conn::connect(router.local_addr()).and_then(|mut c| c.call(r#"{"type":"health"}"#));
        let healthy = health
            .ok()
            .and_then(|h| json::parse(&h).ok())
            .and_then(|v| v.get("shards_healthy").and_then(Json::as_u64));
        if healthy == Some(2) {
            break;
        }
        if Instant::now() > deadline {
            return Err("router never saw both shards healthy".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut conns = Vec::new();
    for c in 0..CONNS {
        let mut conn = Conn::connect(router.local_addr()).map_err(|e| format!("connect: {e}"))?;
        conn.hello().map_err(|e| e.to_string())?;
        // One batch of each class per connection builds every shard's
        // checkpoints and grows the worker arenas before timing.
        for k in 0..2u64 {
            let (class, var, values) = inputs(seed ^ 0x5EED, c, k, TRIALS);
            conn.send(&request_line(progs, &format!("w{k}"), class, var, &values))
                .map_err(|e| e.to_string())?;
            let (terminal, _, _) = read_stream(&mut conn).map_err(|e| e.to_string())?;
            if !terminal.contains(r#""ok":true"#) {
                return Err(format!(
                    "warm-up batch failed: {}",
                    &terminal[..terminal.len().min(200)]
                ));
            }
        }
        conns.push(conn);
    }
    Ok(Rig { shards, router, conns })
}

struct Run {
    recs: Vec<Rec>,
    elapsed: Duration,
    before: Scrape,
    after: Scrape,
    spans: Vec<SpanRec>,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    rig: &mut Rig,
    next_k: &mut [u64],
    progs: &Programs,
    seed: u64,
    window: Duration,
    epoch: Instant,
    traced: bool,
) -> Result<Run, String> {
    let (router, shards) = (rig.router.local_addr(), rig.shard_addrs());
    let before = scrape(router, &shards)?;
    let start = Instant::now();
    let end = start + window;
    let mut recs = Vec::new();
    let mut spans = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .zip(next_k.iter_mut())
            .enumerate()
            .map(|(i, (conn, k))| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch, traced);
                    let recs = drive(conn, i, k, progs, seed, end, &mut tracer);
                    (recs, tracer)
                })
            })
            .collect();
        for h in handles {
            let (r, mut t) = h.join().expect("load thread");
            recs.extend(r);
            t.drain_into(&mut spans);
        }
    });
    let elapsed = start.elapsed();
    let after = scrape(router, &shards)?;
    Ok(Run { recs, elapsed, before, after, spans })
}

fn window_metrics(run: &Run) -> Window {
    let lat: Vec<f64> = run.recs.iter().map(|r| r.latency_us).collect();
    let class_lat = |c: Class| -> Vec<f64> {
        run.recs.iter().filter(|r| r.class == c).map(|r| r.latency_us / 1e3).collect()
    };
    let ok = run.recs.iter().filter(|r| r.ok).count();
    let tps = (ok * TRIALS) as f64 / run.elapsed.as_secs_f64();
    let (calib, leak) = (class_lat(Class::Calib), class_lat(Class::Leak));
    Window {
        contract: vec![
            metric("throughput", tps, "1/s"),
            sampled("latency_us", percentile(&lat, 0.50), "us", lat.len()),
            // p98: ~550 batches in a window leave ten beyond it.
            sampled("tail_us", percentile(&lat, 0.98), "us", lat.len()),
        ],
        named: vec![
            sampled("batch_trials_per_s", tps, "1/s", ok * TRIALS),
            sampled("batch_p50_ms", percentile(&lat, 0.50) / 1e3, "ms", lat.len()),
            sampled("batch_p99_ms", percentile(&lat, 0.99) / 1e3, "ms", lat.len()),
            sampled("batch_calib_p50_ms", percentile(&calib, 0.50), "ms", calib.len()),
            sampled("batch_leak_p50_ms", percentile(&leak, 0.50), "ms", leak.len()),
        ],
        attempted: run.recs.len() as u64,
        failed: (run.recs.len() - ok) as u64,
    }
}

/// A compiled program with its fork-server checkpoint, for direct
/// in-process forked runs.
struct Forked {
    cw: CompiledWorkload,
    var: VarId,
    cp: std::sync::Arc<sempe_sim::Checkpoint>,
    slot: Option<Simulator>,
}

impl Forked {
    fn new(source: &str, var: &str, sel: BackendSel, config: SimConfig) -> Result<Forked, String> {
        let parsed = parse_wir(source).map_err(|e| e.to_string())?;
        let var = parsed.program.find_var(var).ok_or("input variable missing")?;
        let cw = compile(&parsed.program, sel.backend()).map_err(|e| e.to_string())?;
        let cp = ForkCache::new(1).get_or_build(cw.program(), config).map_err(|e| e.to_string())?;
        Ok(Forked { cw, var, cp, slot: None })
    }

    fn cycles(&mut self, value: u64) -> Result<u64, String> {
        let sim = Simulator::restore_or_new(&mut self.slot, &self.cp);
        sim.mem_mut().write_u64(self.cw.var_addr(self.var), value);
        Ok(sim.run(DEFAULT_MAX_CYCLES).map_err(|e| e.to_string())?.cycles())
    }
}

fn class_setup(class: Class) -> (BackendSel, SimConfig, bool) {
    match class {
        Class::Calib => (BackendSel::Baseline, BackendSel::Baseline.sim_config(), false),
        Class::Leak => (BackendSel::Sempe, BackendSel::Sempe.sim_config().with_trace(), true),
    }
}

/// Off-the-clock checks on every batch: dense frames, one per trial;
/// `all_clear` on every `leak` batch; each `calib` probe equal to a
/// direct forked run of the same key.
fn check(run: &Run, direct: &mut Forked, out: &mut Outcome) -> Result<(), String> {
    for r in run.recs.iter().filter(|r| r.ok) {
        out.check(r.frames == TRIALS && r.dense, || {
            format!(
                "batch {}-{}: {} frames (dense: {}) for {TRIALS} trials",
                r.conn, r.k, r.frames, r.dense
            )
        });
        match r.class {
            Class::Leak => out.check(r.all_clear == Some(true), || {
                format!("leak batch {}-{} is not all_clear ({:?})", r.conn, r.k, r.all_clear)
            }),
            Class::Calib => {
                let ok = match r.probe {
                    Some((key, cycles)) => direct.cycles(key)? == cycles,
                    None => false,
                };
                out.check(ok, || {
                    format!(
                        "calib batch {}-{}: probe cycles differ from a direct forked run",
                        r.conn, r.k
                    )
                });
            }
        }
    }
    Ok(())
}

/// Replay the kept batches in-process, layer by layer, and through
/// `execute_traced`, whose reply must equal the routed terminal.
fn replay(
    run: &Run,
    progs: &Programs,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<(u64, f64)> {
    let mut arena = Arena::new();
    let forks = ForkCache::new(4);
    let mut exec = Vec::new();
    for r in run.recs.iter().filter(|r| r.body.is_some()) {
        let (class, var, values) = inputs(seed, r.conn, r.k, TRIALS);
        let (sel, config, leak) = class_setup(class);
        let source = if class == Class::Calib { &progs.calib } else { &progs.leak };
        let line = request_line(progs, &format!("b{}-{}", r.conn, r.k), class, var, &values);
        let root = tracer.open("replay", r.req, None);
        let _ = tracer.span("json.parse", r.req, root, || json::parse(&line));
        let parsed = tracer.span("compile.parse", r.req, root, || parse_wir(source));
        let Ok(parsed) = parsed else { continue };
        let cw =
            tracer.span("compile.codegen", r.req, root, || compile(&parsed.program, sel.backend()));
        let Ok(cw) = cw else { continue };
        let cp = tracer.span("sim.checkpoint", r.req, root, || {
            ForkCache::new(1).get_or_build(cw.program(), config)
        });
        let (Ok(cp), Some(vid)) = (cp, parsed.program.find_var(var)) else { continue };
        let mut slot = None;
        for v in &values {
            let id = tracer.open("sim.restore", r.req, root);
            let sim = Simulator::restore_or_new(&mut slot, &cp);
            sim.mem_mut().write_u64(cw.var_addr(vid), *v);
            tracer.close(id);
            let _ = tracer.span("sim.forked_run", r.req, root, || sim.run(DEFAULT_MAX_CYCLES));
        }
        tracer.close(root);

        let req = Request::Batch {
            source: source.clone(),
            backend: sel,
            mode: ExecMode::Detailed,
            inputs: values.iter().map(|v| vec![(var.to_string(), *v)]).collect(),
            leak_check: leak,
            max_cycles: DEFAULT_MAX_CYCLES,
        };
        let t0 = Instant::now();
        let id = tracer.open("service.exec", r.req, None);
        let expect = execute_traced(&req, &mut arena, &forks, None, &mut Span::begin());
        tracer.close(id);
        exec.push((r.req, t0.elapsed().as_secs_f64() * 1e6));
        let same = expect.as_deref().ok() == r.body.as_deref();
        out.check(same, || {
            format!("routed reply to batch {}-{} differs from the in-process replay", r.conn, r.k)
        });
        if let Ok(v) = json::parse(r.body.as_deref().unwrap_or("")) {
            let _ = tracer.span("json.encode", r.req, None, || v.encode());
        }
    }
    exec
}

/// `router.hop_us`: median routed minus median direct latency of small
/// (unfanned) `calib` batches with fresh inputs.
fn hop(rig: &mut Rig, progs: &Programs, seed: u64) -> Result<f64, String> {
    let mut direct = Conn::connect(rig.shards[0].local_addr()).map_err(|e| e.to_string())?;
    direct.hello().map_err(|e| e.to_string())?;
    let (mut routed_us, mut direct_us) = (Vec::new(), Vec::new());
    for i in 0..HOP_PAIRS {
        for (which, conn) in [(0u64, &mut rig.conns[0]), (1, &mut direct)] {
            let k = u64::MAX / 2 + (i as u64) * 2 + which;
            let (_, _, values) = inputs(seed, 0, k, HOP_ITEMS);
            let line = request_line(progs, &format!("h{k}"), Class::Calib, "key", &values);
            let t0 = Instant::now();
            conn.send(&line).map_err(|e| e.to_string())?;
            let (terminal, _, _) = read_stream(conn).map_err(|e| e.to_string())?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if !terminal.contains(r#""ok":true"#) {
                return Err("hop probe batch failed".into());
            }
            if which == 0 {
                routed_us.push(us)
            } else {
                direct_us.push(us)
            }
        }
    }
    Ok(median(&routed_us) - median(&direct_us))
}

fn layers(
    run: &Run,
    spans: &[SpanRec],
    exec: &[(u64, f64)],
    hop_us: f64,
    out: &mut Outcome,
) -> Vec<Metric> {
    let times = trace::self_times(spans);
    let m = |name: &str| trace::mean_self_us(&times, name);
    let replays = times.get("replay").map_or(0, |(n, _)| *n).max(1) as f64;
    let per_batch = |name: &str| trace::total_self_us(&times, name) / replays;
    let shard_sum = |f: &dyn Fn(&Json, &Json) -> f64| -> f64 {
        run.before.shards.iter().zip(&run.after.shards).map(|(b, a)| f(b, a)).sum()
    };
    let counter = |name: &str| shard_sum(&|b, a| client::counter_between(b, a, name) as f64);
    let phase = |p: &str| {
        let name = format!("phase_latency_us{{phase=\"{p}\"}}");
        let n = shard_sum(&|b, a| (client::hist(a, &name).0 - client::hist(b, &name).0) as f64);
        let s = shard_sum(&|b, a| (client::hist(a, &name).1 - client::hist(b, &name).1) as f64);
        ratio(s, n)
    };
    let fork_hits = counter("fork_hits_total");
    let fork_ratio = ratio(fork_hits, fork_hits + counter("fork_misses_total"));
    let cache_hits = counter("cache_hits_total");
    let replayed_lat: Vec<f64> = exec
        .iter()
        .filter_map(|(req, _)| run.recs.iter().find(|r| r.req == *req).map(|r| r.latency_us))
        .collect();
    let exec_us = mean(&exec.iter().map(|(_, us)| *us).collect::<Vec<_>>());
    let attributed = m("json.parse")
        + m("compile.parse")
        + m("compile.codegen")
        + m("sim.checkpoint") * (1.0 - fork_ratio)
        + per_batch("sim.restore")
        + per_batch("sim.forked_run")
        + m("json.encode")
        + phase("queue_wait")
        + phase("write");
    out.notes.push(format!(
        "unattributed: {:.0} us of a {:.0} us routed batch lies outside the timed layers; the router \
         hop alone measures {hop_us:.0} us on an unfanned 4-trial batch",
        mean(&replayed_lat) - attributed,
        mean(&replayed_lat),
    ));
    let value = |name: &str| -> f64 {
        match name {
            "sim.checkpoint_us" => m("sim.checkpoint"),
            "sim.restore_us" => m("sim.restore"),
            "sim.forked_run_us" => m("sim.forked_run"),
            "compile.parse_us" => m("compile.parse"),
            "compile.codegen_us" => m("compile.codegen"),
            "json.parse_us" => m("json.parse"),
            "json.encode_us" => m("json.encode"),
            "service.exec_us" => exec_us,
            "service.overhead_us" => mean(&replayed_lat) - exec_us,
            "service.queue_wait_us" => phase("queue_wait"),
            "service.write_us" => phase("write"),
            "service.cache_hit_ratio" => {
                ratio(cache_hits, cache_hits + counter("cache_misses_total"))
            }
            "service.fork_hit_ratio" => fork_ratio,
            "service.attributed_frac" => ratio(attributed, mean(&replayed_lat)),
            "router.hop_us" => hop_us,
            "router.retries" => client::counter_between(
                &run.before.router,
                &run.after.router,
                "router_retries_total",
            ) as f64,
            _ => 0.0,
        }
    };
    LAYERS.iter().map(|(name, unit)| metric(name, value(name), unit)).collect()
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let progs = programs(cfg.seed);
    let mut rig: Option<Rig> = None;
    while more_setup(&mut out) {
        if let Some(old) = rig.take() {
            old.stop();
        }
        let t0 = Instant::now();
        rig = Some(setup(cfg.seed, &progs)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up above");
    out.params = Json::obj()
        .with("conns", CONNS)
        .with("trials", TRIALS)
        .with("shards", 2u64)
        .with("shard_workers", 1u64)
        .with("calib", format!("table modexp, {CALIB_BITS} bits, {CALIB_TABLE_WORDS}-word table in a {CALIB_IMAGE_WORDS}-word array, baseline"))
        .with("leak", format!("modexp, {LEAK_BITS} bits, sempe, leak_check, {} pairs", TRIALS / 2))
        .with("calib_source_bytes", progs.calib.len())
        .with("deadline_ms", DEADLINE_MS);

    let epoch = Instant::now();
    let mut next_k = vec![0u64; CONNS];
    let result = (|| -> Result<(), String> {
        let (sel, config, _) = class_setup(Class::Calib);
        let mut direct = Forked::new(&progs.calib, "key", sel, config)?;
        if cfg.trace {
            let half = cfg.window / 2;
            let (plain, rss) =
                sample_rss(|| measure(&mut rig, &mut next_k, &progs, cfg.seed, half, epoch, false));
            let plain = plain?;
            out.peak_rss_mb = rss;
            out.plain = window_metrics(&plain);
            let mut traced = measure(&mut rig, &mut next_k, &progs, cfg.seed, half, epoch, true)?;
            out.traced = Some(window_metrics(&traced));
            check(&plain, &mut direct, &mut out)?;
            check(&traced, &mut direct, &mut out)?;
            let hop_us = hop(&mut rig, &progs, cfg.seed)?;
            let mut on = Tracer::new(epoch, true);
            let exec = replay(&traced, &progs, cfg.seed, &mut on, &mut out);
            let mut spans = std::mem::take(&mut traced.spans);
            on.drain_into(&mut spans);
            out.layers = layers(&traced, &spans, &exec, hop_us, &mut out);
            out.spans = spans;
        } else {
            let (run, rss) = sample_rss(|| {
                measure(&mut rig, &mut next_k, &progs, cfg.seed, cfg.window, epoch, false)
            });
            let run = run?;
            out.peak_rss_mb = rss;
            out.plain = window_metrics(&run);
            check(&run, &mut direct, &mut out)?;
        }
        Ok(())
    })();
    rig.stop();
    result?;
    Ok(out)
}

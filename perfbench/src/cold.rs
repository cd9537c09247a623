//! The `service-cold` workload: `run` requests against an in-process
//! `Server` over TCP loopback.
//!
//! Two connections, each a closed loop with one request in flight (the
//! shape of `sempe-client` and the attack drivers, which wait for every
//! reply). Each miss carries a unique seeded source — a small Fig-7
//! program or a modexp of varied size, rendered with `to_source` — and
//! the backend rotates baseline → sempe → cte. Every 4th request
//! re-sends one of the connection's last three sources verbatim, so it
//! must be a result-cache hit. Parse, codegen and `Simulator::rebuild`
//! dominate a miss; framing, JSON and the cache dominate a hit.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sempe_compile::{compile, parse_wir, to_source};
use sempe_core::hash::fnv1a;
use sempe_core::json::{self, Json};
use sempe_core::telemetry::Span;
use sempe_service::exec::execute_traced;
use sempe_service::protocol::{ExecMode, DEFAULT_MAX_CYCLES};
use sempe_service::{Arena, BackendSel, ForkCache, Request, Server, ServiceConfig};
use sempe_sim::Simulator;
use sempe_workloads::micro::{fig7_program, MicroParams, WorkloadKind};
use sempe_workloads::rng::SplitMix64;
use sempe_workloads::rsa::{modexp_program, modexp_reference, ModexpParams};

use crate::client::{self, strip_id, Conn};
use crate::host;
use crate::stats::{by_slice, mean, median, percentile, ratio};
use crate::trace::{self, SpanRec, Tracer};
use crate::{metric, more_setup, sample_rss, sampled, Cfg, Metric, Outcome, Window, LAYERS};

const CONNS: usize = 2;
/// Every `REPEAT_EVERY`th request of a connection is a verbatim repeat.
const REPEAT_EVERY: u64 = 4;
/// Per-request budget; a failed or refused request counts as taking
/// this long (it misses every latency limit).
const DEADLINE_MS: u64 = 10_000;
const BACKENDS: [BackendSel; 3] = [BackendSel::Baseline, BackendSel::Sempe, BackendSel::Cte];
/// Miss indexes of set-up warm-up requests, far above any measured one.
const WARM_INDEX: u64 = 1 << 40;
/// Set-up warm-up requests per connection (four per backend).
const WARM_REQUESTS: u64 = 12;
/// Seconds per slice of a window's figures: about 1500 misses, so a
/// slice's p99 has at least ten samples beyond it.
const SLICE_S: f64 = 0.5;
/// Seconds of load between two host probes: two slices.
const SUB_WINDOW_S: f64 = 1.0;

/// A generated miss: its source, backend and (for modexp) the host
/// reference output.
struct Source {
    source: String,
    backend: BackendSel,
    reference: Option<u64>,
}

/// The miss with unique index `u`: a pure function of `(seed, u)`, so
/// the replay regenerates exactly what was sent.
fn source(seed: u64, u: u64) -> Source {
    let mut rng = SplitMix64::new(seed ^ u.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let backend = BACKENDS[(u % 3) as usize];
    if rng.next_u64().is_multiple_of(2) {
        // The unique constant is the base: every miss computes a
        // different power, checked against the host reference.
        let p = ModexpParams {
            base: 2 + u,
            exponent: rng.next_u64(),
            bits: rng.range_inclusive(2, 6) as u32,
            ..ModexpParams::default()
        };
        Source {
            source: to_source(&modexp_program(&p), &[]),
            backend,
            reference: Some(modexp_reference(&p)),
        }
    } else {
        // Small bodies keep the simulation a minor share of a miss.
        // Quicksort and queens are left out: their worst-case loop bounds
        // make even the smallest CTE instance cost milliseconds.
        let (kind, scale) = if rng.next_u64().is_multiple_of(2) {
            (WorkloadKind::Fibonacci, rng.range_inclusive(2, 4) as u32)
        } else {
            (WorkloadKind::Ones, rng.range_inclusive(1, 2) as u32)
        };
        let p = MicroParams { kind, w: 1, iters: 1, scale, secrets: rng.next_u64() & 1 };
        let mut wir = fig7_program(&p);
        // The unique constant is the accumulator's initial value.
        let sink = wir.find_var("sink").expect("fig7 programs accumulate into `sink`");
        wir.set_var_init(sink, u);
        Source { source: to_source(&wir, &[]), backend, reference: None }
    }
}

fn body(s: &Source) -> String {
    format!(
        r#""type":"run","source":{},"backend":"{}","deadline_ms":{DEADLINE_MS}"#,
        json::escape(&s.source),
        s.backend.name()
    )
}

/// Request `k` of connection `conn`: `(unique miss index, is_repeat)`.
fn plan(conn: usize, k: u64, seed: u64) -> (u64, bool) {
    if k % REPEAT_EVERY == REPEAT_EVERY - 1 {
        let back = 1 + (seed ^ k).wrapping_mul(0x2545_F491_4F6C_DD1D) % (REPEAT_EVERY - 1);
        (miss_index(conn, k - back), true)
    } else {
        (miss_index(conn, k), false)
    }
}

fn miss_index(conn: usize, k: u64) -> u64 {
    conn as u64 + CONNS as u64 * k
}

/// One completed (or failed) request.
struct Rec {
    u: u64,
    repeat: bool,
    ok: bool,
    latency_us: f64,
    body_hash: u64,
    /// When the reply arrived, s since the window opened.
    at_s: f64,
    /// Id shared by the request's spans: connection << 32 | request
    /// number.
    req: u64,
}

/// Drive one connection's closed loop until `end`.
fn drive(
    conn: &mut Conn,
    conn_idx: usize,
    next_k: &mut u64,
    seed: u64,
    origin: Instant,
    end: Instant,
    tracer: &mut Tracer,
) -> Vec<Rec> {
    let mut recs = Vec::new();
    while Instant::now() < end {
        let k = *next_k;
        *next_k += 1;
        let (u, repeat) = plan(conn_idx, k, seed);
        let line = format!(r#"{{"id":"c{conn_idx}-{k}",{}}}"#, body(&source(seed, u)));
        let req = u64::from(conn_idx as u32) << 32 | k;
        let span = tracer.open("client.request", req, None);
        let t0 = Instant::now();
        let reply = conn.call(&line);
        let elapsed = t0.elapsed();
        tracer.close(span);
        let (ok, body_hash) = match &reply {
            Ok(r) => match strip_id(r) {
                Some(b) if b.starts_with(r#"{"ok":true"#) => (true, fnv1a(b.as_bytes())),
                _ => (false, 0),
            },
            Err(_) => (false, 0),
        };
        let latency_us = if ok { elapsed.as_secs_f64() * 1e6 } else { DEADLINE_MS as f64 * 1e3 };
        let at_s = origin.elapsed().as_secs_f64();
        recs.push(Rec { u, repeat, ok, latency_us, body_hash, at_s, req });
        if reply.is_err() {
            // Transport failure: one reconnect, else stop this loop.
            match Conn::connect(conn.peer()) {
                Ok(c) => *conn = c,
                Err(_) => break,
            }
        }
    }
    recs
}

struct Run {
    recs: Vec<Rec>,
    /// Load time of the window, without the probe pauses.
    elapsed: Duration,
    /// The host probe after each [`SUB_WINDOW_S`] of load, ns.
    probes: Vec<f64>,
    before: Json,
    after: Json,
    spans: Vec<SpanRec>,
}

fn measure(
    addr: SocketAddr,
    conns: &mut [Conn],
    next_k: &mut [u64],
    seed: u64,
    window: Duration,
    epoch: Instant,
    traced: bool,
) -> Result<Run, String> {
    let before = client::scrape(addr).map_err(|e| format!("metrics scrape: {e}"))?;
    let subs = (window.as_secs_f64() / SUB_WINDOW_S).ceil().max(1.0) as u32;
    let sub = window / subs;
    let mut recs = Vec::new();
    let mut spans = Vec::new();
    let mut probes = Vec::new();
    for i in 0..subs {
        // Reply times count load time only: the clock skips the pauses.
        let start = Instant::now();
        let origin = start.checked_sub(sub * i).unwrap_or(start);
        let end = start + sub;
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(next_k.iter_mut())
                .enumerate()
                .map(|(i, (conn, k))| {
                    s.spawn(move || {
                        let mut tracer = Tracer::new(epoch, traced);
                        let recs = drive(conn, i, k, seed, origin, end, &mut tracer);
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
        probes.push(host::probe_ns());
    }
    let elapsed = sub * subs;
    let after = client::scrape(addr).map_err(|e| format!("metrics scrape: {e}"))?;
    Ok(Run { recs, elapsed, probes, before, after, spans })
}

/// Every figure is computed per [`SLICE_S`] slice of the window and
/// rescaled to the reference host by the probe that follows the slice
/// ([`host`]); the reported value is the median over the slices. The
/// benchmark shares its host: a burst of neighbouring load then moves a
/// few slices rather than the figure, and a phase that outlasts the run
/// is rescaled away. Sample counts are the whole window's. A slice with
/// no reply to a class counts as missing every latency limit.
fn window_metrics(run: &Run) -> Window {
    let slices = by_slice(&run.recs, |r| r.at_s, SLICE_S, run.elapsed.as_secs_f64());
    let sub_s = run.elapsed.as_secs_f64() / run.probes.len() as f64;
    // The host speed during slice `j`: reference time over its probe.
    let speed = |j: usize| {
        let probe = ((j as f64 + 0.5) * SLICE_S / sub_s) as usize;
        host::PROBE_REF_NS / run.probes[probe.min(run.probes.len() - 1)]
    };
    let per_slice = |f: &dyn Fn(&[&Rec], f64) -> f64| {
        median(&slices.iter().enumerate().map(|(j, s)| f(s, speed(j))).collect::<Vec<_>>())
    };
    let lat = |repeat: bool, q: f64| {
        per_slice(&|s, speed| {
            let lat: Vec<f64> =
                s.iter().filter(|r| r.repeat == repeat).map(|r| r.latency_us).collect();
            if lat.is_empty() {
                DEADLINE_MS as f64 * 1e3
            } else {
                percentile(&lat, q) * speed
            }
        })
    };
    let count = |repeat: bool| run.recs.iter().filter(|r| r.repeat == repeat).count();
    let (misses, hits) = (count(false), count(true));
    let ok = run.recs.iter().filter(|r| r.ok).count();
    let rps = per_slice(&|s, speed| s.iter().filter(|r| r.ok).count() as f64 / SLICE_S / speed);
    Window {
        contract: vec![
            metric("throughput", rps, "1/s"),
            sampled("latency_us", lat(false, 0.50), "us", misses),
            sampled("tail_us", lat(false, 0.99), "us", misses),
        ],
        named: vec![
            sampled("run_cold_p50_us", lat(false, 0.50), "us", misses),
            sampled("run_cold_p99_us", lat(false, 0.99), "us", misses),
            sampled("run_hit_p50_us", lat(true, 0.50), "us", hits),
            sampled("service_rps", rps, "1/s", ok),
            sampled("host_speed", host::speed_median(&run.probes), "x", run.probes.len()),
        ],
        attempted: run.recs.len() as u64,
        failed: (run.recs.len() - ok) as u64,
    }
}

/// In-process replay state, kept across windows: a repeat early in one
/// window may re-send a miss of the previous one.
struct Replay {
    arena: Arena,
    forks: ForkCache,
    slot: Option<Simulator>,
    /// Reply-body hash of every checked miss, by miss index.
    miss_hash: HashMap<u64, u64>,
    /// In-process `execute_traced` time of every checked miss, µs.
    exec_us: HashMap<u64, f64>,
}

/// Off-the-clock checks: every miss reply must equal an in-process
/// `execute_traced` of the same request (and the host reference for
/// modexp), every hit the reply of the miss it repeats, and the
/// server's cache-hit count the number of repeats exactly.
/// With `tracer` on, each miss of the run is also replayed layer by
/// layer: `json::parse` → `parse_wir` → `compile` →
/// `rebuild_or_new` → `run` → `Json::encode`.
fn check(run: &Run, seed: u64, tracer: &mut Tracer, replay: &mut Replay, out: &mut Outcome) {
    let Replay { arena, forks, slot, miss_hash, exec_us } = replay;
    for r in run.recs.iter().filter(|r| r.ok && !r.repeat) {
        let s = source(seed, r.u);
        let line = format!(r#"{{"id":"r{}",{}}}"#, r.u, body(&s));
        if tracer.is_on() {
            let root = tracer.open("replay", r.req, None);
            let parsed = tracer.span("json.parse", r.req, root, || json::parse(&line));
            out.check(parsed.is_ok(), || format!("request {} is not valid JSON", r.u));
            let wir = tracer.span("compile.parse", r.req, root, || parse_wir(&s.source));
            let cw = wir.ok().and_then(|w| {
                tracer
                    .span("compile.codegen", r.req, root, || {
                        compile(&w.program, s.backend.backend())
                    })
                    .ok()
            });
            if let Some(cw) = cw {
                let id = tracer.open("sim.rebuild", r.req, root);
                let built =
                    Simulator::rebuild_or_new(slot, cw.program(), s.backend.sim_config()).is_ok();
                tracer.close(id);
                if let (true, Some(sim)) = (built, slot.as_mut()) {
                    tracer.span("sim.cold_run", r.req, root, || sim.run(DEFAULT_MAX_CYCLES)).ok();
                }
            }
            tracer.close(root);
        }
        let req = Request::Run {
            source: s.source.clone(),
            backend: s.backend,
            mode: ExecMode::Detailed,
            max_cycles: DEFAULT_MAX_CYCLES,
        };
        let t0 = Instant::now();
        let id = tracer.open("service.exec", r.req, None);
        let expect = execute_traced(&req, arena, forks, None, &mut Span::begin());
        tracer.close(id);
        exec_us.insert(r.req, t0.elapsed().as_secs_f64() * 1e6);
        let Ok(expect) = expect else {
            out.check(false, || format!("in-process replay of request {} failed", r.u));
            continue;
        };
        out.check(fnv1a(expect.as_bytes()) == r.body_hash, || {
            format!("reply to request {} differs from the in-process replay", r.u)
        });
        if let Ok(v) = json::parse(&expect) {
            if tracer.is_on() {
                let encoded = tracer.span("json.encode", r.req, None, || v.encode());
                out.check(encoded == expect, || format!("reply {} does not round-trip", r.u));
            }
            if let Some(want) = s.reference {
                let got =
                    v.get("outputs").and_then(Json::as_array).and_then(|o| o.first()?.as_u64());
                out.check(got == Some(want), || {
                    format!("request {}: output {got:?}, reference {want}", r.u)
                });
            }
        }
        miss_hash.insert(r.u, r.body_hash);
    }
    for r in run.recs.iter().filter(|r| r.ok && r.repeat) {
        out.check(miss_hash.get(&r.u) == Some(&r.body_hash), || {
            format!("hit on request {} differs from its miss", r.u)
        });
    }
    let repeats = run.recs.iter().filter(|r| r.ok && r.repeat).count() as u64;
    let hits = client::counter_between(&run.before, &run.after, "cache_hits_total");
    out.check(hits == repeats, || format!("{hits} cache hits for {repeats} repeated requests"));
}

fn layers(
    run: &Run,
    spans: &[SpanRec],
    exec_us: &HashMap<u64, f64>,
    out: &mut Outcome,
) -> Vec<Metric> {
    let times = trace::self_times(spans);
    let m = |name: &str| trace::mean_self_us(&times, name);
    let phase = |p: &str| {
        client::hist_mean_between(
            &run.before,
            &run.after,
            &format!("phase_latency_us{{phase=\"{p}\"}}"),
        )
    };
    let hits = client::counter_between(&run.before, &run.after, "cache_hits_total") as f64;
    let misses = client::counter_between(&run.before, &run.after, "cache_misses_total") as f64;
    let ok: Vec<&Rec> = run.recs.iter().filter(|r| r.ok).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .map(|r| {
            r.latency_us - if r.repeat { 0.0 } else { exec_us.get(&r.req).copied().unwrap_or(0.0) }
        })
        .collect();
    let miss_lat = mean(&ok.iter().filter(|r| !r.repeat).map(|r| r.latency_us).collect::<Vec<_>>());
    let layer_sum = [
        "json.parse",
        "compile.parse",
        "compile.codegen",
        "sim.rebuild",
        "sim.cold_run",
        "json.encode",
    ]
    .iter()
    .map(|n| m(n))
    .sum::<f64>()
        + phase("queue_wait")
        + phase("write");

    // The largest gap the server's own span leaves unattributed.
    let (req_n, req_sum) = {
        let (c0, s0) = client::hist(&run.before, "request_latency_us{op=\"run\"}");
        let (c1, s1) = client::hist(&run.after, "request_latency_us{op=\"run\"}");
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    };
    let phase_sum = |p: &str| {
        let name = format!("phase_latency_us{{phase=\"{p}\"}}");
        (client::hist(&run.after, &name).1.saturating_sub(client::hist(&run.before, &name).1))
            as f64
    };
    let unphased = ratio(
        req_sum
            - ["queue_wait", "compile", "simulate", "encode"]
                .iter()
                .map(|p| phase_sum(p))
                .sum::<f64>(),
        req_n,
    );
    let outside = mean(&ok.iter().map(|r| r.latency_us).collect::<Vec<_>>())
        - ratio(req_sum, req_n)
        - phase("write");
    let (gap, what) = if unphased > outside {
        (unphased, "inside the server's request span but in no phase")
    } else {
        (outside, "outside the server's request span (client, loopback, event loop, framing)")
    };
    out.notes.push(format!(
        "largest unattributed gap: {gap:.1} us per request {what}; parse_wir ({:.1} us) and request JSON \
         parsing ({:.1} us) are in no server phase, and the server's `compile` phase ({:.1} us) holds \
         codegen ({:.1} us) plus simulator rebuild ({:.1} us)",
        m("compile.parse"),
        m("json.parse"),
        phase("compile"),
        m("compile.codegen"),
        m("sim.rebuild"),
    ));

    let value = |name: &str| -> f64 {
        match name {
            "sim.rebuild_us" => m("sim.rebuild"),
            "sim.cold_run_us" => m("sim.cold_run"),
            "compile.parse_us" => m("compile.parse"),
            "compile.codegen_us" => m("compile.codegen"),
            "json.parse_us" => m("json.parse"),
            "json.encode_us" => m("json.encode"),
            "service.exec_us" => m("service.exec"),
            "service.overhead_us" => mean(&overhead),
            "service.queue_wait_us" => phase("queue_wait"),
            "service.write_us" => phase("write"),
            "service.cache_hit_ratio" => ratio(hits, hits + misses),
            "service.attributed_frac" => ratio(layer_sum, miss_lat),
            _ => 0.0,
        }
    };
    LAYERS.iter().map(|(name, unit)| metric(name, value(name), unit)).collect()
}

struct Rig {
    server: Server,
    conns: Vec<Conn>,
}

fn setup(seed: u64) -> Result<Rig, String> {
    let server =
        Server::start(&ServiceConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::new();
    for c in 0..CONNS {
        let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        // Warm each worker arena on every backend with sources outside
        // the measured index space.
        for k in 0..WARM_REQUESTS {
            let s = source(seed, WARM_INDEX + WARM_REQUESTS * c as u64 + k);
            let reply = conn
                .call(&format!(r#"{{"id":"w{k}",{}}}"#, body(&s)))
                .map_err(|e| e.to_string())?;
            if !reply.contains(r#""ok":true"#) {
                return Err(format!("warm-up request failed: {reply}"));
            }
        }
        conns.push(conn);
    }
    Ok(Rig { server, conns })
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rig = None;
    while more_setup(&mut out) {
        if let Some(old) = rig.take() {
            let Rig { server, conns } = old;
            drop(conns);
            server.shutdown();
            server.join();
        }
        let t0 = Instant::now();
        rig = Some(setup(cfg.seed)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Rig { server, mut conns } = rig.expect("set up above");
    let addr = server.local_addr();
    out.params = Json::obj()
        .with("conns", CONNS)
        .with("repeat_every", REPEAT_EVERY)
        .with("deadline_ms", DEADLINE_MS)
        .with("workers", "default (one per core)")
        .with("sources", "fig7 (w 1, fibonacci scale 2-4 | ones scale 1-2) or modexp (2-6 bits)");

    let epoch = Instant::now();
    let mut next_k = vec![0u64; CONNS];
    let mut replay = Replay {
        arena: Arena::new(),
        forks: ForkCache::new(4),
        slot: None,
        miss_hash: HashMap::new(),
        exec_us: HashMap::new(),
    };
    let mut off = Tracer::new(epoch, false);
    let result = (|| -> Result<(), String> {
        if cfg.trace {
            let half = cfg.window / 2;
            let (plain, rss) =
                sample_rss(|| measure(addr, &mut conns, &mut next_k, cfg.seed, half, epoch, false));
            let plain = plain?;
            out.peak_rss_mb = rss;
            out.plain = window_metrics(&plain);
            let mut traced = measure(addr, &mut conns, &mut next_k, cfg.seed, half, epoch, true)?;
            out.traced = Some(window_metrics(&traced));
            check(&plain, cfg.seed, &mut off, &mut replay, &mut out);
            let mut on = Tracer::new(epoch, true);
            check(&traced, cfg.seed, &mut on, &mut replay, &mut out);
            let mut spans = std::mem::take(&mut traced.spans);
            on.drain_into(&mut spans);
            // Request JSON parsing is a per-line cost on hits too.
            let mut hit_json = Tracer::new(epoch, true);
            for r in traced.recs.iter().filter(|r| r.repeat) {
                let line = format!(r#"{{"id":"r{}",{}}}"#, r.u, body(&source(cfg.seed, r.u)));
                hit_json.span("json.parse", r.req, None, || json::parse(&line)).ok();
            }
            hit_json.drain_into(&mut spans);
            out.layers = layers(&traced, &spans, &replay.exec_us, &mut out);
            out.spans = spans;
        } else {
            let (run, rss) = sample_rss(|| {
                measure(addr, &mut conns, &mut next_k, cfg.seed, cfg.window, epoch, false)
            });
            let run = run?;
            out.peak_rss_mb = rss;
            out.plain = window_metrics(&run);
            check(&run, cfg.seed, &mut off, &mut replay, &mut out);
        }
        Ok(())
    })();
    drop(conns);
    server.shutdown();
    server.join();
    result?;
    Ok(out)
}

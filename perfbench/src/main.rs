//! `perfbench` — the repository's benchmark.
//!
//! One binary, three workloads, each stressing a different slice of the
//! stack (the reason for each is recorded in `BENCHMARK.json`):
//!
//! * `sim` ([`sim`]) — direct `Simulator::rebuild_or_new` +
//!   `Simulator::run` calls on one thread over the Fig-7 micro kinds,
//!   RSA modexp, the membound pair (detailed, skip stepping) and the
//!   `longrun` group (tiered stepping).
//! * `service-cold` ([`cold`]) — `run` requests against an in-process
//!   `Server` over TCP loopback: unique seeded sources (cache misses)
//!   with every 4th request a verbatim repeat (a cache hit).
//! * `service-batch` ([`batch`]) — 64-trial `batch` requests through a
//!   `Router` in front of two single-worker shards, protocol v2 with
//!   streamed frames, alternating a restore-heavy class and a
//!   trace-heavy class.
//!
//! Usage: `perfbench --workload <sim|service-cold|service-batch>
//! --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]`.
//! `perfbench/run.py` builds this crate and forwards its arguments.
//!
//! Every layer is timed from outside: the benchmark wraps its own spans
//! around calls into the public functions of `sempe_compile`,
//! `sempe_sim`, `sempe_core::json` and `sempe_service`, and scrapes the
//! service's `metrics` op. With `--trace 0` the workload runs untraced
//! for the whole window and the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it runs half the window
//! untraced and half traced, replays requests in-process layer by
//! layer, writes every span to `<out-dir>`, and the last line carries
//! the per-layer metrics (the traced-minus-untraced difference of every
//! end-to-end metric is printed as the tracing overhead).
//!
//! The end-to-end metrics every workload reports, by name:
//!
//! | metric        | sim                              | service-cold          | service-batch  |
//! |---------------|----------------------------------|-----------------------|----------------|
//! | `throughput`  | committed instr/s, geomean       | completed requests/s  | trials/s       |
//! | `latency_us`  | a cell's run, geomean over cells | cache-miss p50        | batch p50      |
//! | `tail_us`     | one run of every cell            | cache-miss p99        | batch p98      |
//! | `setup_s`     | compile every cell               | start server, warm up | start rig, warm up |
//! | `peak_rss_mb` | `VmHWM` per second, median       | same                  | same           |
//!
//! All are host time. The workload's own named metrics (`sim_detailed_mips`,
//! `run_cold_p50_us`, `batch_p99_ms`, `sempe_vs_ideal_x`, `error_frac`, …)
//! are printed above the last line and kept in the report.
//!
//! The host is shared, and its speed drifts with neighbouring load (see
//! [`host`]). `sim` reports each cell's fastest run and rescales it by a
//! probe of the host's speed timed between rounds; `setup_s` is rescaled
//! the same way; `service-cold` rescales each half-second slice by the
//! probe after it and takes the median over the slices.
//!
//! Any failed correctness check makes the run exit 1.

mod batch;
mod client;
mod cold;
mod host;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sempe_core::json::Json;

/// Parsed command line.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    /// The whole measured window of the run.
    pub window: Duration,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or mean (0 when not a sample
    /// statistic).
    pub samples: u64,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit, samples: 0 }
}

pub fn sampled(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name: name.to_string(), value, unit, samples: samples as u64 }
}

/// The end-to-end view of one measured window.
#[derive(Default)]
pub struct Window {
    /// The metrics the benchmark contract bounds: `throughput`,
    /// `latency_us` (a typical operation) and `tail_us` (a slow one).
    pub contract: Vec<Metric>,
    /// The workload's own named metrics (`sim_detailed_mips`,
    /// `run_cold_p50_us`, …).
    pub named: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// One entry per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Host probe times around the set-ups, ns.
    pub setup_probes: Vec<f64>,
    /// The untraced window (the whole run with `--trace 0`).
    pub plain: Window,
    /// The traced window (`--trace 1` only).
    pub traced: Option<Window>,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: Vec<Metric>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Correctness checks evaluated.
    pub checks: u64,
    /// Workload parameters, for the report.
    pub params: Json,
    /// Free-form findings printed with the report.
    pub notes: Vec<String>,
    /// Recorded spans (`--trace 1` only).
    pub spans: Vec<trace::SpanRec>,
    /// Peak resident set of the untraced window, MiB ([`sample_rss`]).
    pub peak_rss_mb: f64,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            setup_probes: Vec::new(),
            plain: Window::default(),
            traced: None,
            layers: Vec::new(),
            failures: Vec::new(),
            checks: 0,
            params: Json::obj(),
            notes: Vec::new(),
            spans: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }
}

impl Outcome {
    /// Record one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok && self.failures.len() < 64 {
            self.failures.push(what());
        }
    }
}

/// Whether a run sets up once more: at least 5 times, and on until a
/// second of set-up time is spent (41 times at most). Each call times
/// the host probe, so probes bracket every set-up; `setup_s` is the
/// median set-up time rescaled to the reference host by the median
/// probe.
pub fn more_setup(out: &mut Outcome) -> bool {
    out.setup_probes.push(host::probe_ns());
    let done = &out.setup_s;
    done.len() < 5 || (done.iter().sum::<f64>() < 1.0 && done.len() < 41)
}

/// Every per-layer metric, in report order, with its unit. A workload
/// reports 0 for a layer it does not exercise.
pub const LAYERS: [(&str, &str); 24] = [
    ("sim.detailed.ns_per_insn", "ns"),
    ("sim.skip.cycle_frac", "count"),
    ("sim.tiered.ns_per_insn", "ns"),
    ("sim.tiered.ff_frac", "count"),
    ("sim.commit_per_fetch", "count"),
    ("sim.sempe.drain_stall_frac", "count"),
    ("sim.rebuild_us", "us"),
    ("sim.cold_run_us", "us"),
    ("sim.checkpoint_us", "us"),
    ("sim.restore_us", "us"),
    ("sim.forked_run_us", "us"),
    ("compile.parse_us", "us"),
    ("compile.codegen_us", "us"),
    ("json.parse_us", "us"),
    ("json.encode_us", "us"),
    ("service.exec_us", "us"),
    ("service.overhead_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.write_us", "us"),
    ("service.cache_hit_ratio", "count"),
    ("service.fork_hit_ratio", "count"),
    ("service.attributed_frac", "count"),
    ("router.hop_us", "us"),
    ("router.retries", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sim|service-cold|service-batch> --seed <n> \
         --seconds <s> --trace <0|1> [--out-dir <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Cfg {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 600.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Cfg { workload, seed, window: Duration::from_secs_f64(seconds), trace, out_dir }
}

/// Run `f`, a measured window, while a sampler thread reads the peak
/// resident set (`VmHWM`) once a second and restarts its count (writing
/// 5 to `clear_refs`). Returns `f`'s result and the median of the
/// per-second peaks, MiB: the window's typical peak, which set-up and a
/// rare coincidence of large buffers in flight do not set.
pub fn sample_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let restart = || {
                let _ = std::fs::write("/proc/self/clear_refs", "5");
            };
            extern "C" {
                fn malloc_trim(pad: usize) -> i32;
            }
            // Hand the memory set-up freed back to the kernel first, so
            // what the allocator happened to keep of it is not counted.
            // SAFETY: glibc's malloc_trim takes no pointers and may be
            // called at any time from any thread.
            unsafe { malloc_trim(0) };
            restart();
            let mut peaks = Vec::new();
            let mut since = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(20));
                // A trailing part-second counts only when it is all there is.
                let stop = done.load(Ordering::Relaxed);
                if since.elapsed() >= Duration::from_secs(1) || (stop && peaks.is_empty()) {
                    peaks.push(peak_rss_mb());
                    restart();
                    since = Instant::now();
                }
                if stop {
                    return peaks;
                }
            }
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        (out, stats::median(&sampler.join().expect("rss sampler thread")))
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

fn metrics_json(ms: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in ms {
        obj.set(&m.name, Json::obj().with("value", m.value).with("unit", m.unit));
    }
    obj
}

fn metrics_report(ms: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in ms {
        let mut entry = Json::obj().with("value", m.value).with("unit", m.unit);
        if m.samples > 0 {
            entry.set("samples", m.samples);
        }
        obj.set(&m.name, entry);
    }
    obj
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        if m.samples > 0 {
            println!("  {:34} {:>16.4} {:6} (n={})", m.name, m.value, m.unit, m.samples);
        } else {
            println!("  {:34} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

fn main() {
    let cfg = parse_args();
    let steal0 = host::steal_s();
    let outcome = match cfg.workload.as_str() {
        "sim" => sim::run(&cfg),
        "service-cold" => cold::run(&cfg),
        "service-batch" => batch::run(&cfg),
        other => {
            eprintln!("unknown workload `{other}` (expected sim|service-cold|service-batch)");
            std::process::exit(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    };

    let steal_s = host::steal_s() - steal0;
    let setup_speed = host::PROBE_REF_NS / stats::median(&outcome.setup_probes);
    let setup_s = stats::median(&outcome.setup_s) * setup_speed;
    let rss = outcome.peak_rss_mb;
    let mut e2e = outcome.plain.contract.clone();
    e2e.push(metric("setup_s", setup_s, "s"));
    e2e.push(metric("peak_rss_mb", rss, "MB"));
    let mut named = outcome.plain.named.clone();
    let window = &outcome.plain;
    let (attempted, failed) = match &outcome.traced {
        Some(t) => (window.attempted + t.attempted, window.failed + t.failed),
        None => (window.attempted, window.failed),
    };
    named.push(metric("error_frac", failed as f64 / attempted.max(1) as f64, "count"));

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" rustc=\"{}\" \
         rev={} steal_s={steal_s:.2}",
        cfg.workload,
        cfg.seed,
        cfg.window.as_secs_f64(),
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu_model(),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()),
    );
    println!("params {}", outcome.params.encode());
    print_metrics("end-to-end (untraced):", &e2e);
    print_metrics("named end-to-end (untraced):", &named);

    let mut report = Json::obj()
        .with("workload", cfg.workload.as_str())
        .with("seed", cfg.seed)
        .with("seconds", cfg.window.as_secs_f64())
        .with("trace", cfg.trace)
        .with(
            "host",
            Json::obj()
                .with(
                    "nproc",
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                )
                .with("cpu", cpu_model())
                .with("steal_s", steal_s)
                .with(
                    "rustc",
                    std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
                ),
        )
        .with("rev", std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()))
        .with("params", outcome.params.clone())
        .with("setup_s_reps", Json::Arr(outcome.setup_s.iter().map(|s| Json::from(*s)).collect()))
        .with("setup_host_speed", setup_speed)
        .with("end_to_end", metrics_report(&e2e))
        .with("named", metrics_report(&named))
        .with("checks", outcome.checks)
        .with(
            "failures",
            Json::Arr(outcome.failures.iter().map(|f| Json::from(f.as_str())).collect()),
        );

    let final_metrics = if let Some(traced) = &outcome.traced {
        let both = |a: &[Metric], b: &[Metric]| -> Vec<Metric> {
            a.iter()
                .filter_map(|u| {
                    b.iter().find(|t| t.name == u.name).map(|t| {
                        let mut d = t.clone();
                        d.value = t.value - u.value;
                        d.samples = 0;
                        d
                    })
                })
                .collect()
        };
        let mut overhead = both(&outcome.plain.contract, &traced.contract);
        overhead.extend(both(&outcome.plain.named, &traced.named));
        print_metrics("end-to-end (traced):", &traced.contract);
        print_metrics("named end-to-end (traced):", &traced.named);
        print_metrics("tracing overhead (traced - untraced):", &overhead);
        print_metrics("per-layer (traced):", &outcome.layers);
        let spans_path = cfg.out_dir.join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match trace::write_spans(&spans_path, &outcome.spans) {
            Ok(()) => println!("wrote {} spans to {}", outcome.spans.len(), spans_path.display()),
            Err(e) => outcome.failures.push(format!("writing spans: {e}")),
        }
        report = report
            .with("traced", metrics_report(&traced.contract))
            .with("traced_named", metrics_report(&traced.named))
            .with("tracing_overhead", metrics_report(&overhead))
            .with("per_layer", metrics_report(&outcome.layers));
        outcome.layers.clone()
    } else {
        e2e
    };
    for note in &outcome.notes {
        println!("note: {note}");
    }
    report.set("notes", Json::Arr(outcome.notes.iter().map(|n| Json::from(n.as_str())).collect()));
    let report_path = cfg.out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&report_path, report.encode() + "\n"))
    {
        eprintln!("perfbench: cannot write {}: {e}", report_path.display());
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    println!("{} correctness checks, {} failed", outcome.checks, outcome.failures.len());
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics_json(&final_metrics))
            .encode()
    );
    if !correct {
        std::process::exit(1);
    }
}
